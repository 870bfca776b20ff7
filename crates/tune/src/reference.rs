//! Frozen pre-refactor implementations, kept as differential oracles.
//!
//! The tuner scores a neighbourhood as move values: delta probes on one
//! [`ooo_verify::predict::DeltaEval`] per scan, a dense-indexed
//! predictor, link reorders probed instead of re-realized, and
//! perturbations that score only the moves they sample. This module
//! preserves the search as it stood before that rewrite — every
//! candidate materialized as a whole state and scored with a full,
//! hash-indexed `predict_makespan` pass (the default
//! `scored_candidates`, no delta path at all) — so the conformance suite
//! (`tests/tuner_oracle.rs`) can demand the live tuner return
//! byte-identical results. Not part of the public API.

use crate::order::{KFamily, TunedOrder};
use crate::pipeline::TunedPipeline;
use crate::{AppliedMove, Error, MoveKind, Result, TuneOptions, Tuned};
use ooo_core::cost::CostModel;
use ooo_core::datapar::{plan_sync_service, CommPolicy};
use ooo_core::op::LayerId;
use ooo_core::pipeline::{op_level_schedule, Strategy};
use ooo_core::schedule::Schedule;
use ooo_core::{Error as CoreError, Op, SimTime, TrainGraph};
use ooo_verify::mem::schedule_peak;
use ooo_verify::predict::PredictedOp;
use ooo_verify::{Verifier, VerifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// The predictor: one topological pass over a hash-indexed union graph.
// ---------------------------------------------------------------------

/// The outcome of statically evaluating one schedule, indexed by a
/// `HashMap<Op, usize>`.
#[derive(Debug, Clone)]
pub struct Prediction {
    ops: Vec<PredictedOp>,
    index: HashMap<Op, usize>,
    binding: Vec<Option<usize>>,
    makespan: SimTime,
}

impl Prediction {
    /// The predicted makespan.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Every op with its predicted interval, lane-major.
    pub fn ops(&self) -> &[PredictedOp] {
        &self.ops
    }

    /// Predicted start of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        self.index.get(&op).map(|&i| self.ops[i].start)
    }

    /// Predicted finish of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        self.index.get(&op).map(|&i| self.ops[i].end)
    }

    /// One critical path, ties to the smallest node index.
    pub fn critical_ops(&self) -> Vec<Op> {
        let Some(last) = self
            .ops
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.end.cmp(&b.end).then(ib.cmp(ia)))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        let mut chain = Vec::new();
        let mut cur = Some(last);
        while let Some(i) = cur {
            chain.push(self.ops[i].op);
            cur = self.binding[i];
        }
        chain.reverse();
        chain
    }
}

/// The pre-rewrite `ooo_verify::predict::predict_makespan`: per-node
/// `Vec` predecessor and successor lists over a hashed op index.
///
/// # Errors
///
/// As the live predictor: unknown, duplicate, or deadlocking schedules.
pub fn predict_makespan<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> std::result::Result<Prediction, CoreError> {
    let mut index: HashMap<Op, usize> = HashMap::new();
    let mut nodes: Vec<PredictedOp> = Vec::new();
    for (li, lane) in schedule.lanes.iter().enumerate() {
        for (pos, &op) in lane.ops.iter().enumerate() {
            if !graph.contains(op) {
                return Err(CoreError::UnknownOp(op));
            }
            if index.insert(op, nodes.len()).is_some() {
                return Err(CoreError::DuplicateOp(op));
            }
            nodes.push(PredictedOp {
                op,
                lane: li,
                index: pos,
                start: 0,
                end: 0,
            });
        }
    }
    let n = nodes.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        if node.index > 0 {
            preds[i].push(i - 1);
        }
        for dep in graph.deps(node.op)? {
            if let Some(&d) = index.get(&dep) {
                preds[i].push(d);
            }
        }
    }
    let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(i);
        }
    }
    let mut binding: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop() {
        done += 1;
        let mut start: SimTime = 0;
        for &p in &preds[i] {
            let f = nodes[p].end;
            if f > start {
                start = f;
                binding[i] = Some(p);
            }
        }
        nodes[i].start = start;
        nodes[i].end = start + cost.duration(nodes[i].op);
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if done < n {
        let blocked = (0..n).find(|&i| indeg[i] > 0).expect("cycle exists");
        let op = nodes[blocked].op;
        let missing = graph
            .deps(op)?
            .into_iter()
            .find(|d| index.get(d).is_some_and(|&di| indeg[di] > 0))
            .unwrap_or(op);
        return Err(CoreError::DependencyViolation {
            op,
            missing_dep: missing,
        });
    }
    let makespan = nodes.iter().map(|p| p.end).max().unwrap_or(0);
    Ok(Prediction {
        ops: nodes,
        index,
        binding,
        makespan,
    })
}

/// The realized two-lane data-parallel schedule, exactly as
/// `ooo_verify::predict::datapar_schedule` builds it.
///
/// # Errors
///
/// When `backward` is not a valid partial order of `graph`.
pub fn datapar_schedule<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> std::result::Result<Schedule, CoreError> {
    ooo_core::schedule::validate_partial_order(graph, backward)?;
    let l = graph.layers();
    let mut t: SimTime = 0;
    let mut dw_finish: Vec<SimTime> = vec![0; l + 1];
    for &op in backward {
        t += cost.duration(op);
        if let Op::WeightGrad(LayerId(i)) = op {
            dw_finish[i] = t;
        }
    }
    let mut compute: Vec<Op> = backward.to_vec();
    for i in 1..=l {
        let u = Op::Update(LayerId(i));
        if graph.contains(u) {
            compute.push(u);
        }
        compute.push(Op::Forward(LayerId(i)));
    }
    let mut schedule = Schedule::new();
    schedule.add_lane("gpu", compute);
    if graph.contains(Op::SyncWeightGrad(LayerId(1))) {
        let link: Vec<Op> = plan_sync_service(&dw_finish, policy, |i| {
            cost.duration(Op::SyncWeightGrad(LayerId(i)))
        })
        .into_iter()
        .map(|(pick, _, _)| Op::SyncWeightGrad(LayerId(pick)))
        .collect();
        schedule.add_lane("link", link);
    }
    Ok(schedule)
}

// ---------------------------------------------------------------------
// The search loop over materialized candidates.
// ---------------------------------------------------------------------

const MEMORY_CAP_PENALTY: SimTime = 1 << 40;

fn verify_config(opts: &TuneOptions) -> VerifyConfig {
    VerifyConfig {
        require_complete: opts.require_complete,
        memory_budget: None,
        check_legality: true,
    }
}

fn capped_score(
    makespan: SimTime,
    cap: Option<u64>,
    peak: impl FnOnce() -> Option<u64>,
) -> Option<SimTime> {
    match cap {
        None => Some(makespan),
        Some(cap) => {
            let p = peak()?;
            Some(if p > cap {
                makespan.saturating_add(MEMORY_CAP_PENALTY)
            } else {
                makespan
            })
        }
    }
}

trait SearchSpace: Sync {
    type State: Clone + Send;

    fn score(&self, state: &Self::State) -> Option<SimTime>;

    fn clean(&self, state: &Self::State) -> bool;

    fn candidates(&self, state: &Self::State) -> Vec<(Self::State, String)>;

    fn scored_candidates(
        &self,
        state: &Self::State,
    ) -> Vec<(Self::State, String, Option<SimTime>)> {
        self.candidates(state)
            .into_iter()
            .map(|(st, d)| {
                let m = self.score(&st);
                (st, d, m)
            })
            .collect()
    }
}

struct Budgeter {
    scans: u64,
    limit: Option<u64>,
    deadline: Option<std::time::Instant>,
}

impl Budgeter {
    fn new(limit: Option<u64>, opts: &TuneOptions) -> Self {
        Budgeter {
            scans: 0,
            limit,
            deadline: opts.deadline,
        }
    }

    fn exhausted(&self) -> bool {
        self.limit.is_some_and(|l| self.scans >= l)
            || self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
    }

    fn charge(&mut self) {
        self.scans += 1;
    }
}

fn greedy<S: SearchSpace>(
    space: &S,
    mut cur: S::State,
    mut cur_m: SimTime,
    moves: &mut Vec<AppliedMove>,
    opts: &TuneOptions,
    budget: &mut Budgeter,
) -> (S::State, SimTime) {
    while moves.len() < opts.max_moves {
        if opts.target.is_some_and(|t| cur_m <= t) {
            break;
        }
        if budget.exhausted() {
            break;
        }
        budget.charge();
        let cands = space.scored_candidates(&cur);
        let mut scored: Vec<(SimTime, usize)> = cands
            .iter()
            .enumerate()
            .filter_map(|(i, (_, _, m))| m.map(|m| (m, i)))
            .filter(|&(m, _)| m < cur_m)
            .collect();
        scored.sort_unstable();
        let accepted = scored.into_iter().find(|&(_, i)| space.clean(&cands[i].0));
        let Some((m, i)) = accepted else { break };
        let (state, description, _) = cands[i].clone();
        moves.push(AppliedMove {
            kind: MoveKind::Greedy,
            description,
            predicted: m,
        });
        cur = state;
        cur_m = m;
    }
    (cur, cur_m)
}

fn perturb<S: SearchSpace>(
    space: &S,
    cur: S::State,
    cur_m: SimTime,
    seed: u64,
    moves: &mut Vec<AppliedMove>,
    opts: &TuneOptions,
    budget: &mut Budgeter,
) -> (S::State, SimTime) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = cur;
    let mut makespan = cur_m;
    for _ in 0..opts.perturb_moves {
        if budget.exhausted() {
            break;
        }
        budget.charge();
        let cands = space.scored_candidates(&state);
        if cands.is_empty() {
            break;
        }
        let mut picked = None;
        for _ in 0..16 {
            let i = rng.gen_range(0..cands.len());
            if let Some(m) = cands[i].2 {
                if space.clean(&cands[i].0) {
                    picked = Some((i, m));
                    break;
                }
            }
        }
        let Some((i, m)) = picked else { break };
        let (next, description, _) = cands[i].clone();
        moves.push(AppliedMove {
            kind: MoveKind::Perturb,
            description,
            predicted: m,
        });
        state = next;
        makespan = m;
    }
    (state, makespan)
}

fn restart_trial<S: SearchSpace>(
    space: &S,
    cur: S::State,
    cur_m: SimTime,
    seed: u64,
    opts: &TuneOptions,
    remaining: Option<u64>,
) -> (S::State, SimTime, Vec<AppliedMove>, u64) {
    let mut trial = Vec::new();
    let mut budget = Budgeter::new(remaining, opts);
    let (p, pm) = perturb(space, cur, cur_m, seed, &mut trial, opts, &mut budget);
    let (g, gm) = greedy(space, p, pm, &mut trial, opts, &mut budget);
    (g, gm, trial, budget.scans)
}

fn local_search<S: SearchSpace>(
    space: &S,
    init: S::State,
    init_m: SimTime,
    opts: &TuneOptions,
) -> (S::State, SimTime, Vec<AppliedMove>, usize) {
    let mut moves = Vec::new();
    let mut budget = Budgeter::new(opts.budget, opts);
    let (mut cur, mut cur_m) = greedy(space, init, init_m, &mut moves, opts, &mut budget);
    let mut adopted = 0usize;
    'sweep: loop {
        if opts.target.is_some_and(|t| cur_m <= t) {
            break;
        }
        if budget.exhausted() {
            break;
        }
        let remaining = opts.budget.map(|b| b.saturating_sub(budget.scans));
        if opts.parallel && opts.restarts > 1 {
            let trials: Vec<(S::State, SimTime, Vec<AppliedMove>, u64)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (1..=opts.restarts)
                        .map(|seed| {
                            let incumbent = cur.clone();
                            scope.spawn(move || {
                                restart_trial(space, incumbent, cur_m, seed, opts, remaining)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("restart trial panicked"))
                        .collect()
                });
            for (g, gm, trial, spent) in trials {
                if gm < cur_m {
                    cur = g;
                    cur_m = gm;
                    moves.extend(trial);
                    adopted += 1;
                    budget.scans += spent;
                    continue 'sweep;
                }
            }
        } else {
            for seed in 1..=opts.restarts {
                let (g, gm, trial, spent) =
                    restart_trial(space, cur.clone(), cur_m, seed, opts, remaining);
                if gm < cur_m {
                    cur = g;
                    cur_m = gm;
                    moves.extend(trial);
                    adopted += 1;
                    budget.scans += spent;
                    continue 'sweep;
                }
            }
        }
        break;
    }
    (cur, cur_m, moves, adopted)
}

// ---------------------------------------------------------------------
// The multi-lane schedule space.
// ---------------------------------------------------------------------

struct ScheduleSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    verifier: Verifier<'g, &'g C>,
    cross_lane: bool,
    window: Option<usize>,
    memory_cap: Option<u64>,
}

impl<C: CostModel + Sync> SearchSpace for ScheduleSpace<'_, C> {
    type State = Schedule;

    fn score(&self, state: &Schedule) -> Option<SimTime> {
        let m = predict_makespan(self.graph, state, self.cost)
            .ok()
            .map(|p| p.makespan())?;
        capped_score(m, self.memory_cap, || {
            schedule_peak(self.graph, state, self.cost).ok()
        })
    }

    fn clean(&self, state: &Schedule) -> bool {
        self.verifier.verify(state).is_clean()
    }

    fn candidates(&self, state: &Schedule) -> Vec<(Schedule, String)> {
        schedule_moves(self.graph, state, self.cross_lane, self.window)
    }
}

type MoveBatch = Vec<(Op, usize, usize)>;

fn in_window(window: Option<usize>, pi: usize, to: usize) -> bool {
    match window {
        None => true,
        Some(w) => to.abs_diff(pi) <= w,
    }
}

fn schedule_move_batches(
    graph: &TrainGraph,
    state: &Schedule,
    cross_lane: bool,
    window: Option<usize>,
) -> Vec<(MoveBatch, String)> {
    let mut out = Vec::new();
    let mut movers: Vec<(usize, usize, usize, Op)> = Vec::new();
    for (li, lane) in state.lanes.iter().enumerate() {
        for (pi, &op) in lane.ops.iter().enumerate() {
            if !op.is_weight_grad_class() {
                continue;
            }
            let id = graph.op_index(op).unwrap_or(usize::MAX);
            movers.push((id, li, pi, op));
        }
    }
    movers.sort_unstable();
    for (_, li, pi, op) in movers {
        let lane = &state.lanes[li];
        for to in 0..lane.ops.len() {
            if to == pi || !in_window(window, pi, to) {
                continue;
            }
            out.push((
                vec![(op, li, to)],
                format!("move {op} to {}:{to}", lane.name),
            ));
        }
        if cross_lane {
            for (lj, other) in state.lanes.iter().enumerate() {
                if lj == li {
                    continue;
                }
                for to in 0..=other.ops.len() {
                    if !in_window(window, pi, to) {
                        continue;
                    }
                    out.push((
                        vec![(op, lj, to)],
                        format!("move {op} to {}:{to}", other.name),
                    ));
                }
            }
        }
        let Op::WeightGrad(layer) = op else { continue };
        let update = Op::Update(layer);
        if !lane.ops.contains(&update) {
            continue;
        }
        for to in 0..=lane.ops.len().saturating_sub(2) {
            if !in_window(window, pi, to) {
                continue;
            }
            out.push((
                vec![(op, li, to), (update, li, to + 1)],
                format!("move {op}+{update} to {}:{to}", lane.name),
            ));
        }
        if cross_lane {
            for (lj, other) in state.lanes.iter().enumerate() {
                if lj == li {
                    continue;
                }
                for to in 0..=other.ops.len() {
                    if !in_window(window, pi, to) {
                        continue;
                    }
                    out.push((
                        vec![(op, lj, to), (update, lj, to + 1)],
                        format!("move {op}+{update} to {}:{to}", other.name),
                    ));
                }
            }
        }
    }
    out
}

fn apply_move_batch(state: &Schedule, batch: &MoveBatch) -> Schedule {
    let mut next = state.clone();
    for &(op, _, _) in batch {
        for lane in &mut next.lanes {
            lane.ops.retain(|&o| o != op);
        }
    }
    let mut inserts = batch.clone();
    inserts.sort_unstable_by_key(|&(_, l, p)| (l, p));
    for (op, l, p) in inserts {
        let ops = &mut next.lanes[l].ops;
        ops.insert(p.min(ops.len()), op);
    }
    next
}

fn schedule_moves(
    graph: &TrainGraph,
    state: &Schedule,
    cross_lane: bool,
    window: Option<usize>,
) -> Vec<(Schedule, String)> {
    schedule_move_batches(graph, state, cross_lane, window)
        .into_iter()
        .filter_map(|(batch, description)| {
            let next = apply_move_batch(state, &batch);
            (next != *state).then_some((next, description))
        })
        .collect()
}

/// The pre-rewrite [`crate::tune_schedule`].
///
/// # Errors
///
/// As the live entry point.
pub fn tune_schedule<C: CostModel + Sync>(
    graph: &TrainGraph,
    baseline: &Schedule,
    cost: &C,
    opts: &TuneOptions,
) -> Result<Tuned> {
    let verifier = Verifier::new(graph)
        .with_config(verify_config(opts))
        .with_cost(cost);
    let report = verifier.verify(baseline);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(graph, baseline, cost)?.makespan();
    let base_m = match opts.memory_cap {
        None => base_raw,
        Some(cap) => {
            let peak = schedule_peak(graph, baseline, cost)?;
            if peak > cap {
                base_raw.saturating_add(MEMORY_CAP_PENALTY)
            } else {
                base_raw
            }
        }
    };
    let space = ScheduleSpace {
        graph,
        cost,
        verifier,
        cross_lane: opts.cross_lane,
        window: opts.window,
        memory_cap: opts.memory_cap,
    };
    let (schedule, predicted, moves, restarts_adopted) =
        local_search(&space, baseline.clone(), base_m, opts);
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => (
            predict_makespan(graph, &schedule, cost)?.makespan(),
            Some(schedule_peak(graph, &schedule, cost)?),
        ),
    };
    Ok(Tuned {
        schedule,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}

// ---------------------------------------------------------------------
// The flat backward-order space.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct OrderState {
    order: Vec<Op>,
    k: Option<usize>,
}

struct OrderSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    policy: CommPolicy,
    family: KFamily,
    verifier: Verifier<'g, &'g C>,
    window: Option<usize>,
    memory_cap: Option<u64>,
}

impl<C: CostModel> OrderSpace<'_, C> {
    fn family_order(&self, k: usize) -> Option<Vec<Op>> {
        match self.family {
            KFamily::None => None,
            KFamily::ReverseFirstK => {
                ooo_core::reverse_k::reverse_first_k(self.graph, k, None::<(u64, &C)>).ok()
            }
            KFamily::Combined => ooo_core::combined::combined_backward_order(self.graph, k).ok(),
        }
    }
}

impl<C: CostModel + Sync> SearchSpace for OrderSpace<'_, C> {
    type State = OrderState;

    fn score(&self, state: &OrderState) -> Option<SimTime> {
        let s = datapar_schedule(self.graph, &state.order, self.cost, self.policy).ok()?;
        let m = predict_makespan(self.graph, &s, self.cost)
            .ok()
            .map(|p| p.makespan())?;
        capped_score(m, self.memory_cap, || {
            schedule_peak(self.graph, &s, self.cost).ok()
        })
    }

    fn clean(&self, state: &OrderState) -> bool {
        match datapar_schedule(self.graph, &state.order, self.cost, self.policy) {
            Ok(s) => self.verifier.verify(&s).is_clean(),
            Err(_) => false,
        }
    }

    fn candidates(&self, state: &OrderState) -> Vec<(OrderState, String)> {
        let mut out = Vec::new();
        for k in 0..=self.graph.layers() {
            let Some(order) = self.family_order(k) else {
                break;
            };
            if order == state.order {
                continue;
            }
            let label = match self.family {
                KFamily::None => unreachable!("family_order returned Some"),
                KFamily::ReverseFirstK => format!("set reverse-first-k k={k}"),
                KFamily::Combined => format!("set combined split k={k}"),
            };
            out.push((OrderState { order, k: Some(k) }, label));
        }
        for (pi, &op) in state.order.iter().enumerate() {
            if !op.is_weight_grad() {
                continue;
            }
            for to in 0..state.order.len() {
                if to == pi || self.window.is_some_and(|w| to.abs_diff(pi) > w) {
                    continue;
                }
                let mut order = state.order.clone();
                order.remove(pi);
                order.insert(to.min(order.len()), op);
                out.push((
                    OrderState { order, k: None },
                    format!("move {op} to position {to}"),
                ));
            }
        }
        out
    }
}

/// The pre-rewrite [`crate::order::tune_backward_order`].
///
/// # Errors
///
/// As the live entry point.
pub fn tune_backward_order<C: CostModel + Sync>(
    graph: &TrainGraph,
    baseline: &[Op],
    baseline_k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    family: KFamily,
    opts: &TuneOptions,
) -> Result<TunedOrder> {
    let verifier = Verifier::new(graph)
        .with_config(verify_config(opts))
        .with_cost(cost);
    let realized = datapar_schedule(graph, baseline, cost, policy)?;
    let report = verifier.verify(&realized);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(graph, &realized, cost)?.makespan();
    let base_m = match opts.memory_cap {
        None => base_raw,
        Some(cap) => {
            let peak = schedule_peak(graph, &realized, cost)?;
            if peak > cap {
                base_raw.saturating_add(MEMORY_CAP_PENALTY)
            } else {
                base_raw
            }
        }
    };
    let space = OrderSpace {
        graph,
        cost,
        policy,
        family,
        verifier,
        window: opts.window,
        memory_cap: opts.memory_cap,
    };
    let init = OrderState {
        order: baseline.to_vec(),
        k: baseline_k,
    };
    let (state, predicted, moves, restarts_adopted) = local_search(&space, init, base_m, opts);
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => {
            let s = datapar_schedule(graph, &state.order, cost, policy)?;
            (
                predict_makespan(graph, &s, cost)?.makespan(),
                Some(schedule_peak(graph, &s, cost)?),
            )
        }
    };
    Ok(TunedOrder {
        order: state.order,
        k: state.k,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}

// ---------------------------------------------------------------------
// The op-level pipeline space.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct PipeState {
    schedule: Schedule,
    group: usize,
}

struct PipeSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    verifier: Verifier<'g, &'g C>,
    layers: usize,
    devices: usize,
    strategy: Strategy,
    window: Option<usize>,
    memory_cap: Option<u64>,
}

impl<C: CostModel + Sync> SearchSpace for PipeSpace<'_, C> {
    type State = PipeState;

    fn score(&self, state: &PipeState) -> Option<SimTime> {
        let m = predict_makespan(self.graph, &state.schedule, self.cost)
            .ok()
            .map(|p| p.makespan())?;
        capped_score(m, self.memory_cap, || {
            schedule_peak(self.graph, &state.schedule, self.cost).ok()
        })
    }

    fn clean(&self, state: &PipeState) -> bool {
        self.verifier.verify(&state.schedule).is_clean()
    }

    fn candidates(&self, state: &PipeState) -> Vec<(PipeState, String)> {
        let mut out = Vec::new();
        for group in 1..=self.layers {
            if group == state.group {
                continue;
            }
            let (_, schedule) = op_level_schedule(self.layers, self.devices, self.strategy, group);
            if schedule == state.schedule {
                continue;
            }
            out.push((
                PipeState { schedule, group },
                format!("regroup modulo {group}"),
            ));
        }
        for (next, description) in schedule_moves(self.graph, &state.schedule, false, self.window) {
            out.push((
                PipeState {
                    schedule: next,
                    group: state.group,
                },
                description,
            ));
        }
        out
    }
}

/// The pre-rewrite [`crate::pipeline::tune_pipeline`].
///
/// # Errors
///
/// As the live entry point.
pub fn tune_pipeline<C: CostModel + Sync>(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    cost: &C,
    opts: &TuneOptions,
) -> Result<TunedPipeline> {
    let (graph, baseline) = op_level_schedule(layers, devices, strategy, group);
    let verifier = Verifier::new(&graph)
        .with_config(verify_config(opts))
        .with_cost(cost);
    let report = verifier.verify(&baseline);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(&graph, &baseline, cost)?.makespan();
    let base_m = match opts.memory_cap {
        None => base_raw,
        Some(cap) => {
            let peak = schedule_peak(&graph, &baseline, cost)?;
            if peak > cap {
                base_raw.saturating_add(MEMORY_CAP_PENALTY)
            } else {
                base_raw
            }
        }
    };
    let space = PipeSpace {
        graph: &graph,
        cost,
        verifier,
        layers,
        devices,
        strategy,
        window: opts.window,
        memory_cap: opts.memory_cap,
    };
    let init = PipeState {
        schedule: baseline,
        group,
    };
    let (state, predicted, moves, restarts_adopted) = local_search(&space, init, base_m, opts);
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => (
            predict_makespan(&graph, &state.schedule, cost)?.makespan(),
            Some(schedule_peak(&graph, &state.schedule, cost)?),
        ),
    };
    Ok(TunedPipeline {
        graph: graph.clone(),
        schedule: state.schedule,
        group: state.group,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}
