//! Differential oracle for the autotuner's inner loop.
//!
//! The tuner scores neighbourhoods as move values with delta probes and
//! a dense predictor. `ooo_tune::reference` keeps the search as it stood
//! before that rewrite — every candidate materialized as a whole state
//! and scored with a full, hash-indexed predictor pass — and these tests
//! demand the live tuner return byte-identical results: schedule or
//! order, `k` or
//! group, baseline, predicted makespan, peak, `restarts_adopted`, and
//! every accepted move's kind, description and predicted makespan. The
//! inputs are the repository benchmark's `cold_tune` and `capped_cert`
//! catalogue shapes (tuned as the daemon's full tier tunes them) and the
//! `tuner_conformance` shapes of seeds 1-30, each with and without a
//! memory cap and with parallel restarts on and off.

use ooo_backprop::core::combined::{choose_split_k, combined_backward_order};
use ooo_backprop::core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{simulate_data_parallel, CommPolicy};
use ooo_backprop::core::multi_region::{
    backward_regions, multi_region_joint_schedule, ConstantProfile,
};
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{op_level_schedule, Strategy};
use ooo_backprop::core::reverse_k::{reverse_first_k, search_optimal_k};
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::{SimTime, TrainGraph};
use ooo_backprop::tune::order::{tune_backward_order, KFamily, TunedOrder};
use ooo_backprop::tune::pipeline::{tune_pipeline, TunedPipeline};
use ooo_backprop::tune::reference as oracle;
use ooo_backprop::tune::{tune_schedule, AppliedMove, Error, TuneOptions, Tuned};
use ooo_backprop::verify::mem::schedule_peak;
use ooo_backprop::verify::predict::{datapar_schedule, predict_makespan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every observable field of a move trajectory.
fn trajectory(moves: &[AppliedMove]) -> Vec<(&'static str, String, SimTime)> {
    moves
        .iter()
        .map(|m| (m.kind.as_str(), m.description.clone(), m.predicted))
        .collect()
}

/// Every observable field of a result, rendered for comparison; errors
/// compare by their message.
fn render<T>(r: &Result<T, Error>, fields: &impl Fn(&T) -> String) -> String {
    match r {
        Ok(t) => fields(t),
        Err(e) => format!("error: {e}"),
    }
}

fn schedule_fields(t: &Tuned) -> String {
    format!(
        "{:?} base={} pred={} peak={:?} adopted={} moves={:?}",
        t.schedule,
        t.baseline,
        t.predicted,
        t.peak,
        t.restarts_adopted,
        trajectory(&t.moves)
    )
}

fn order_fields(t: &TunedOrder) -> String {
    format!(
        "{:?} k={:?} base={} pred={} peak={:?} adopted={} moves={:?}",
        t.order,
        t.k,
        t.baseline,
        t.predicted,
        t.peak,
        t.restarts_adopted,
        trajectory(&t.moves)
    )
}

fn pipeline_fields(t: &TunedPipeline) -> String {
    format!(
        "{:?} group={} base={} pred={} peak={:?} adopted={} moves={:?}",
        t.schedule,
        t.group,
        t.baseline,
        t.predicted,
        t.peak,
        t.restarts_adopted,
        trajectory(&t.moves)
    )
}

/// `base` with the given cap (or none). A certified floor is only a
/// valid early exit uncapped, so a cap drops the target, exactly as the
/// daemon does.
fn capped(base: &TuneOptions, cap: Option<u64>) -> TuneOptions {
    TuneOptions {
        memory_cap: cap,
        target: if cap.is_some() { None } else { base.target },
        ..base.clone()
    }
}

/// Tunes with the oracle once (sequential restarts; its parallel sweep
/// adopts the same seed by construction) and with the live tuner under
/// parallel restarts on and off, and demands all three agree.
fn agree<T>(
    what: &str,
    opts: &TuneOptions,
    fields: impl Fn(&T) -> String,
    live: impl Fn(&TuneOptions) -> Result<T, Error>,
    frozen: impl Fn(&TuneOptions) -> Result<T, Error>,
) {
    let expected = render(
        &frozen(&TuneOptions {
            parallel: false,
            ..opts.clone()
        }),
        &fields,
    );
    for parallel in [true, false] {
        let o = TuneOptions {
            parallel,
            ..opts.clone()
        };
        assert_eq!(
            render(&live(&o), &fields),
            expected,
            "{what} (parallel={parallel}, cap={:?})",
            opts.memory_cap
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn check_order<C: CostModel + Sync>(
    what: &str,
    graph: &TrainGraph,
    baseline: &[Op],
    baseline_k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    family: KFamily,
    opts: &TuneOptions,
) {
    agree(
        what,
        opts,
        order_fields,
        |o| tune_backward_order(graph, baseline, baseline_k, cost, policy, family, o),
        |o| oracle::tune_backward_order(graph, baseline, baseline_k, cost, policy, family, o),
    );
}

fn check_schedule<C: CostModel + Sync>(
    what: &str,
    graph: &TrainGraph,
    baseline: &Schedule,
    cost: &C,
    opts: &TuneOptions,
) {
    agree(
        what,
        opts,
        schedule_fields,
        |o| tune_schedule(graph, baseline, cost, o),
        |o| oracle::tune_schedule(graph, baseline, cost, o),
    );
}

fn check_pipeline(
    what: &str,
    (layers, devices, strategy, group): (usize, usize, Strategy, usize),
    opts: &TuneOptions,
) {
    agree(
        what,
        opts,
        pipeline_fields,
        |o| tune_pipeline(layers, devices, strategy, group, &UnitCost, o),
        |o| oracle::tune_pipeline(layers, devices, strategy, group, &UnitCost, o),
    );
}

/// The certified floor the daemon hands the tuner as its target.
fn certified_floor<C: CostModel>(graph: &TrainGraph, schedule: &Schedule, cost: &C) -> SimTime {
    let scheduled: Vec<Op> = schedule
        .lanes
        .iter()
        .flat_map(|l| l.ops.iter().copied())
        .collect();
    let count = |f: fn(Op) -> bool| {
        schedule
            .lanes
            .iter()
            .filter(|l| l.ops.iter().any(|&o| f(o)))
            .count()
            .max(1)
    };
    ooo_backprop::core::bounds::partial_lower_bound(
        graph,
        cost,
        &scheduled,
        count(Op::is_compute),
        count(Op::is_sync),
    )
}

/// The daemon's full tier: default search, certified target, and a scan
/// budget far above what any of these searches spends.
fn full_tier(require_complete: bool, target: SimTime) -> TuneOptions {
    TuneOptions {
        require_complete,
        target: Some(target),
        budget: Some(1_000_000),
        ..TuneOptions::default()
    }
}

fn sync_cost(layers: usize, sync: u64) -> TableCost {
    TableCost::uniform(
        layers,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    )
}

fn policy_of(name: &str) -> CommPolicy {
    match name {
        "fifo" => CommPolicy::FifoCompletion,
        _ => CommPolicy::PriorityByLayer,
    }
}

fn strategy_of(name: &str) -> Strategy {
    match name {
        "gpipe" => Strategy::GPipe,
        "pipe2" => Strategy::OooPipe2,
        "dapple" => Strategy::Dapple,
        _ => Strategy::MegatronInterleaved { chunks: 2 },
    }
}

/// `order` shapes: `(layers, k, sync, policy)`.
type OrderShape = (usize, usize, u64, &'static str);
/// `pipeline` shapes: `(layers, devices, strategy, group)`.
type PipelineShape = (usize, usize, &'static str, usize);

/// A daemon `order` request: reverse-first-k baseline, uniform cost with
/// the given sync weight. `cap_tenths` caps at tenths of the baseline's
/// exact ledger peak.
fn order_request((layers, k, sync, policy): OrderShape, cap_tenths: Option<u64>) {
    let graph = TrainGraph::data_parallel(layers);
    let cost = sync_cost(layers, sync);
    let policy = policy_of(policy);
    let baseline = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
    let realized = datapar_schedule(&graph, &baseline, &cost, policy).unwrap();
    let floor = certified_floor(&graph, &realized, &cost);
    let cap =
        cap_tenths.map(|t| (schedule_peak(&graph, &realized, &cost).unwrap() * t / 10).max(1));
    let what = format!("order l={layers} k={k} sync={sync}");
    let opts = capped(&full_tier(true, floor), cap);
    let family = KFamily::ReverseFirstK;
    check_order(
        &what,
        &graph,
        &baseline,
        Some(k),
        &cost,
        policy,
        family,
        &opts,
    );
}

/// A daemon `pipeline` request under unit cost.
fn pipeline_request((layers, devices, strategy, group): PipelineShape, cap_tenths: Option<u64>) {
    let strategy = strategy_of(strategy);
    let (graph, schedule) = op_level_schedule(layers, devices, strategy, group);
    let floor = certified_floor(&graph, &schedule, &UnitCost);
    let cap =
        cap_tenths.map(|t| (schedule_peak(&graph, &schedule, &UnitCost).unwrap() * t / 10).max(1));
    let what = format!("pipeline l={layers} d={devices} {strategy:?} g={group}");
    let opts = capped(&full_tier(true, floor), cap);
    check_pipeline(&what, (layers, devices, strategy, group), &opts);
}

/// The `cold_tune` catalogue: 13 orders, 8 pipelines and the two zoo
/// bundles, tuned uncapped as the daemon's full tier tunes them.
#[test]
fn cold_tune_catalogue_matches_the_oracle() {
    const ORDERS: [OrderShape; 13] = [
        (16, 0, 3, "bylayer"),
        (16, 3, 3, "bylayer"),
        (16, 5, 5, "fifo"),
        (20, 1, 3, "bylayer"),
        (32, 0, 2, "bylayer"),
        (28, 0, 2, "fifo"),
        (20, 0, 2, "fifo"),
        (24, 0, 1, "bylayer"),
        (24, 2, 2, "bylayer"),
        (40, 0, 1, "bylayer"),
        (40, 1, 1, "fifo"),
        (45, 0, 1, "fifo"),
        (48, 1, 1, "fifo"),
    ];
    const PIPELINES: [PipelineShape; 8] = [
        (10, 2, "gpipe", 1),
        (12, 4, "gpipe", 1),
        (20, 4, "pipe2", 1),
        (16, 4, "pipe2", 2),
        (12, 4, "dapple", 1),
        (14, 4, "dapple", 1),
        (16, 4, "megatron", 1),
        (8, 2, "megatron", 2),
    ];
    for shape in ORDERS {
        order_request(shape, None);
    }
    for shape in PIPELINES {
        pipeline_request(shape, None);
    }
    // The zoo bundles: a data-parallel DenseNet-169 (order path) and a
    // single-GPU ResNet-152 (schedule path), each holding the
    // conventional order and two reverse-first-k orders.
    for (model, data_parallel) in [
        (ooo_backprop::models::zoo::densenet169(12, 32), true),
        (ooo_backprop::models::zoo::resnet(152), false),
    ] {
        let l = model.num_layers();
        let graph = if data_parallel {
            TrainGraph::data_parallel(l)
        } else {
            TrainGraph::single_gpu(l)
        };
        let mut orders = vec![graph.conventional_backprop()];
        for k in [l / 4, l / 2] {
            orders.push(reverse_first_k::<UnitCost>(&graph, k, None).unwrap());
        }
        for order in orders {
            let what = format!("{} bundle order", model.name);
            if data_parallel {
                let backward: Vec<Op> = order.into_iter().filter(|o| o.is_backward()).collect();
                let policy = CommPolicy::PriorityByLayer;
                let realized = datapar_schedule(&graph, &backward, &UnitCost, policy).unwrap();
                let floor = certified_floor(&graph, &realized, &UnitCost);
                let opts = full_tier(true, floor);
                let family = KFamily::ReverseFirstK;
                check_order(
                    &what, &graph, &backward, None, &UnitCost, policy, family, &opts,
                );
            } else {
                let schedule = Schedule::single_lane(&model.name, order);
                let floor = certified_floor(&graph, &schedule, &UnitCost);
                check_schedule(
                    &what,
                    &graph,
                    &schedule,
                    &UnitCost,
                    &full_tier(false, floor),
                );
            }
        }
    }
}

/// The `cold_tune` orders of up to 24 layers under a memory cap at 90 %
/// of the baseline peak: the capped path scores every candidate with
/// the full ledger.
#[test]
fn capped_cold_tune_orders_match_the_oracle() {
    for shape in [
        (16, 0, 3, "bylayer"),
        (16, 3, 3, "bylayer"),
        (16, 5, 5, "fifo"),
        (20, 1, 3, "bylayer"),
        (20, 0, 2, "fifo"),
        (24, 0, 1, "bylayer"),
        (24, 2, 2, "bylayer"),
    ] {
        order_request(shape, Some(9));
    }
}

/// The `capped_cert` catalogue: capped orders and pipelines at their
/// catalogue caps, and the same shapes uncapped.
#[test]
fn capped_cert_catalogue_matches_the_oracle() {
    const ORDERS: [(OrderShape, u64); 6] = [
        ((10, 0, 3, "bylayer"), 9),
        ((11, 3, 2, "fifo"), 10),
        ((12, 0, 4, "bylayer"), 8),
        ((12, 3, 3, "fifo"), 9),
        ((14, 2, 2, "bylayer"), 10),
        ((9, 1, 4, "fifo"), 8),
    ];
    const PIPELINES: [(PipelineShape, u64); 6] = [
        ((8, 2, "gpipe", 1), 9),
        ((8, 3, "dapple", 1), 8),
        ((8, 2, "pipe2", 1), 10),
        ((8, 2, "megatron", 1), 9),
        ((10, 4, "gpipe", 1), 8),
        ((10, 2, "dapple", 1), 10),
    ];
    for (shape, tenths) in ORDERS {
        order_request(shape, Some(tenths));
        order_request(shape, None);
    }
    for (shape, tenths) in PIPELINES {
        pipeline_request(shape, Some(tenths));
        pipeline_request(shape, None);
    }
}

fn random_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..6);
        c.output_grad = rng.gen_range(1..6);
        c.weight_grad = rng.gen_range(1..6);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(1..8);
    }
    cost
}

fn spiky_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..12);
        c.output_grad = rng.gen_range(1..12);
        c.weight_grad = rng.gen_range(1..20);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(0..40);
    }
    cost
}

/// A cap at 90 % of the baseline's ledger peak: binding on most inputs.
fn cap_of<C: CostModel>(graph: &TrainGraph, schedule: &Schedule, cost: &C) -> Option<u64> {
    Some((schedule_peak(graph, schedule, cost).unwrap() * 9 / 10).max(1))
}

/// Seeds 1-30 of `tests/tuner_conformance.rs`'s single-GPU shape: the
/// multi-region joint schedule, with and without a cap.
#[test]
fn single_engine_shapes_match_the_oracle_on_seeds_1_to_30() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..14);
        let graph = TrainGraph::single_gpu(l);
        let cost = random_cost(l, &mut rng);
        let per = rng.gen_range(1usize..=3);
        let (regions, subs) = backward_regions(&graph, &cost, per);
        let profile = ConstantProfile {
            speedup: 1.0 + rng.gen_range(0..5) as f64 / 10.0,
            sub_time: rng.gen_range(1..5),
        };
        let mrs = multi_region_joint_schedule(&graph, &regions, &subs, &profile).unwrap();
        let baseline = mrs.to_schedule(&regions);
        let base = TuneOptions {
            require_complete: false,
            ..TuneOptions::default()
        };
        for cap in [None, cap_of(&graph, &baseline, &cost)] {
            let what = format!("single seed {seed}");
            check_schedule(&what, &graph, &baseline, &cost, &capped(&base, cap));
        }
    }
}

/// Seeds 1-30 of the data-parallel shape: reverse-first-k from
/// `search_optimal_k`, with and without a cap.
#[test]
fn datapar_engine_shapes_match_the_oracle_on_seeds_1_to_30() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = spiky_cost(l, &mut rng);
        let policy = if seed % 2 == 0 {
            CommPolicy::FifoCompletion
        } else {
            CommPolicy::PriorityByLayer
        };
        let sim_k = |k: usize| {
            let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
            simulate_data_parallel(&graph, &order, &cost, policy)
                .unwrap()
                .makespan()
        };
        let k = search_optimal_k(l, |k| 1.0 / sim_k(k) as f64);
        let baseline = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
        let realized = datapar_schedule(&graph, &baseline, &cost, policy).unwrap();
        for cap in [None, cap_of(&graph, &realized, &cost)] {
            let what = format!("datapar seed {seed}");
            let opts = capped(&TuneOptions::default(), cap);
            let family = KFamily::ReverseFirstK;
            check_order(
                &what,
                &graph,
                &baseline,
                Some(k),
                &cost,
                policy,
                family,
                &opts,
            );
        }
    }
}

/// Seeds 1-30 of the pipeline shape: each strategy's op-level schedule,
/// with and without a cap.
#[test]
fn pipeline_engine_shapes_match_the_oracle_on_seeds_1_to_30() {
    let strategies = [
        Strategy::ModelParallel,
        Strategy::GPipe,
        Strategy::PipeDream,
        Strategy::Dapple,
        Strategy::OooPipe1,
        Strategy::OooPipe2,
    ];
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = rng.gen_range(2usize..10);
        let devices = rng.gen_range(1usize..=4);
        let strategy = strategies[rng.gen_range(0..strategies.len())];
        let (graph, schedule) = op_level_schedule(layers, devices, strategy, 1);
        for cap in [None, cap_of(&graph, &schedule, &UnitCost)] {
            let what = format!("pipeline seed {seed}");
            let opts = capped(&TuneOptions::default(), cap);
            check_pipeline(&what, (layers, devices, strategy, 1), &opts);
        }
    }
}

/// Seeds 1-30 of the hybrid shape: the combined order from
/// `choose_split_k`, with and without a cap.
#[test]
fn hybrid_engine_shapes_match_the_oracle_on_seeds_1_to_30() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = spiky_cost(l, &mut rng);
        let policy = CommPolicy::PriorityByLayer;
        let sim_k = |k: usize| {
            let order = combined_backward_order(&graph, k).unwrap();
            simulate_data_parallel(&graph, &order, &cost, policy)
                .unwrap()
                .makespan()
        };
        let k = choose_split_k(l, |k| 1.0 / sim_k(k) as f64);
        let baseline = combined_backward_order(&graph, k).unwrap();
        let realized = datapar_schedule(&graph, &baseline, &cost, policy).unwrap();
        for cap in [None, cap_of(&graph, &realized, &cost)] {
            let what = format!("hybrid seed {seed}");
            let opts = capped(&TuneOptions::default(), cap);
            check_order(
                &what,
                &graph,
                &baseline,
                Some(k),
                &cost,
                policy,
                KFamily::Combined,
                &opts,
            );
        }
    }
}

/// A schedule drawn for the predictor proptest: a random lane split of
/// a valid order, then one of the malformations the predictor must
/// report exactly as before.
fn drawn_schedule(graph: &TrainGraph, seed: u64, lanes: usize, malform: u8) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut split: Vec<Vec<Op>> = vec![Vec::new(); lanes];
    for op in graph.conventional_backprop() {
        // Some ops stay unscheduled: partial schedules are legal input.
        if rng.gen_range(0..10) == 0 {
            continue;
        }
        split[rng.gen_range(0..lanes)].push(op);
    }
    let pick = |rng: &mut StdRng, split: &[Vec<Op>]| -> Option<(usize, usize)> {
        let l = rng.gen_range(0..split.len());
        (!split[l].is_empty()).then(|| (l, rng.gen_range(0..split[l].len())))
    };
    match malform {
        // Swap two ops of one lane: often a deadlock.
        1 => {
            if let Some((l, a)) = pick(&mut rng, &split) {
                let b = rng.gen_range(0..split[l].len());
                split[l].swap(a, b);
            }
        }
        // An op the graph does not have.
        2 => {
            let l = rng.gen_range(0..lanes);
            let at = rng.gen_range(0..=split[l].len());
            split[l].insert(at, Op::Forward(LayerId(graph.layers() + 1)));
        }
        // One op scheduled twice.
        3 => {
            if let Some((l, a)) = pick(&mut rng, &split) {
                let op = split[l][a];
                let to = rng.gen_range(0..lanes);
                let at = rng.gen_range(0..=split[to].len());
                split[to].insert(at, op);
            }
        }
        _ => {}
    }
    let mut s = Schedule::new();
    for (i, ops) in split.into_iter().enumerate() {
        s.add_lane(&format!("lane{i}"), ops);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense predictor equals the frozen hash-indexed one on every
    /// op's start and end, the makespan, the critical path, and the
    /// error variant of unknown, duplicate and deadlocking schedules.
    #[test]
    fn dense_predictor_matches_the_oracle_predictor(
        l in 1usize..12,
        flavour in 0u8..3,
        seed in 0u64..1_000_000,
        lanes in 1usize..4,
        malform in 0u8..4,
    ) {
        let graph = match flavour {
            0 => TrainGraph::single_gpu(l),
            1 => TrainGraph::data_parallel(l),
            _ => TrainGraph::pipeline_parallel(l),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let cost = spiky_cost(l, &mut rng);
        let schedule = drawn_schedule(&graph, seed, lanes, malform);
        let live = predict_makespan(&graph, &schedule, &cost);
        let frozen = oracle::predict_makespan(&graph, &schedule, &cost);
        match (live, frozen) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.makespan(), b.makespan());
                prop_assert_eq!(a.ops(), b.ops());
                for p in b.ops() {
                    prop_assert_eq!(a.start_of(p.op), b.start_of(p.op));
                    prop_assert_eq!(a.finish_of(p.op), b.finish_of(p.op));
                }
                let absent = Op::Forward(LayerId(l + 1));
                prop_assert_eq!(a.start_of(absent), None);
                prop_assert_eq!(a.critical_ops(), b.critical_ops());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "live {:?} vs oracle {:?}", a.map(|p| p.makespan()), b.map(|p| p.makespan())),
        }
    }
}

/// The drawn schedules reach every outcome the proptest compares: a
/// prediction, and each error variant.
#[test]
fn drawn_schedules_cover_every_predictor_outcome() {
    use ooo_backprop::core::Error as CoreError;
    let mut seen = [false; 4];
    for seed in 0..400u64 {
        let graph = TrainGraph::data_parallel(6);
        let schedule = drawn_schedule(&graph, seed, 1 + seed as usize % 3, (seed % 4) as u8);
        let slot = match predict_makespan(&graph, &schedule, &UnitCost) {
            Ok(_) => 0,
            Err(CoreError::DependencyViolation { .. }) => 1,
            Err(CoreError::UnknownOp(_)) => 2,
            Err(CoreError::DuplicateOp(_)) => 3,
            Err(e) => panic!("unexpected predictor error {e}"),
        };
        seen[slot] = true;
    }
    assert_eq!(seen, [true; 4], "ok/deadlock/unknown/duplicate coverage");
}
