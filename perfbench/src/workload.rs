//! Seeded request generation for the three workloads.
//!
//! The daemon only ever sees the generated lines; everything here is a
//! pure function of the workload name and the `--seed` argument.

use ooo_core::cost::{LayerCost, TableCost, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::TrainGraph;
use std::collections::HashSet;

/// SplitMix64: a tiny, fixed, well-mixed generator, so request sets
/// never change with a dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_u64() as usize % (i + 1);
            items.swap(i, j);
        }
    }
}

/// How a workload offers its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// As many requests in flight as the daemon has workers; the next
    /// is sent when one is answered.
    Closed,
    /// Seeded Poisson arrivals at `rate` requests per second.
    Open { rate: f64 },
}

/// A named workload and its fixed reporting choices.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub offer: Loop,
    /// The fixed tail percentile reported as `latency_tail_ms`: the
    /// highest that leaves at least ten samples beyond it in a run.
    pub tail_pct: f64,
    /// Responses covered by the printed stream digest (a prefix every
    /// run reaches, so one seed gives one digest).
    pub digest_prefix: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold_tune",
        offer: Loop::Closed,
        tail_pct: 90.0,
        digest_prefix: 48,
    },
    Workload {
        name: "warm_mixed",
        offer: Loop::Open { rate: 200.0 },
        tail_pct: 99.5,
        digest_prefix: 2048,
    },
    Workload {
        name: "capped_cert",
        offer: Loop::Closed,
        tail_pct: 90.0,
        digest_prefix: 48,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One generated request: its compact body without `id`. Identical
/// bodies ask for identical work.
pub type Body = String;

fn policy_name(rng: &mut Rng) -> &'static str {
    ["bylayer", "fifo"][rng.range(0, 1) as usize]
}

fn policy_of(name: &str) -> CommPolicy {
    match name {
        "fifo" => CommPolicy::FifoCompletion,
        _ => CommPolicy::PriorityByLayer,
    }
}

/// An `order` or `cert` request body.
fn order_body(
    cmd: &str,
    layers: u64,
    k: u64,
    sync: u64,
    policy: &str,
    extra: Vec<(&str, Value)>,
) -> Body {
    let mut pairs: Vec<(String, Value)> = vec![
        ("cmd".into(), cmd.into()),
        ("layers".into(), Value::Num(layers as f64)),
        ("k".into(), Value::Num(k as f64)),
        ("sync".into(), Value::Num(sync as f64)),
        ("policy".into(), policy.into()),
    ];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(pairs).to_compact()
}

fn pipeline_body(
    layers: u64,
    devices: u64,
    strategy: &str,
    group: u64,
    extra: Vec<(&str, Value)>,
) -> Body {
    let mut pairs: Vec<(String, Value)> = vec![
        ("cmd".into(), "pipeline".into()),
        ("layers".into(), Value::Num(layers as f64)),
        ("devices".into(), Value::Num(devices as f64)),
        ("strategy".into(), strategy.into()),
        ("group".into(), Value::Num(group as f64)),
    ];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(pairs).to_compact()
}

fn strategy_of(name: &str) -> Strategy {
    match name {
        "gpipe" => Strategy::GPipe,
        "pipe2" => Strategy::OooPipe2,
        "dapple" => Strategy::Dapple,
        _ => Strategy::MegatronInterleaved { chunks: 2 },
    }
}

/// Draws until `make` yields a body not seen before, so the request is
/// a distinct cache key.
///
/// # Panics
///
/// When the request space is (nearly) exhausted: the supply asked for
/// is too large for the ranges drawn from.
fn distinct(seen: &mut HashSet<Body>, rng: &mut Rng, make: impl Fn(&mut Rng) -> Body) -> Body {
    for _ in 0..10_000 {
        let b = make(rng);
        if seen.insert(b.clone()) {
            return b;
        }
    }
    panic!("request space exhausted: ask for fewer distinct requests");
}

/// A seeded scan budget far above what any catalogue search spends:
/// it leaves the work unchanged but gives each request its own cache
/// key, so every request is a cold miss.
fn unused_budget(r: &mut Rng) -> (&'static str, Value) {
    (
        "budget",
        Value::Num(r.range(1_000_000, 1_000_000_000) as f64),
    )
}

/// `order` shapes: `(layers, k, sync, policy)`.
type OrderShape = (u64, u64, u64, &'static str);
/// `pipeline` shapes: `(layers, devices, strategy, group)`.
type PipelineShape = (u64, u64, &'static str, u64);

/// `cold_tune` orders: 16 to 48 layers, k, sync 1 to 5 and both
/// policies; some stop early at the certified floor, some scan the
/// whole neighbourhood (about 20 to 160 ms each on one core).
const COLD_ORDERS: [OrderShape; 13] = [
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

/// `cold_tune` pipelines: two shapes per strategy.
const COLD_PIPELINES: [PipelineShape; 8] = [
    (10, 2, "gpipe", 1),
    (12, 4, "gpipe", 1),
    (20, 4, "pipe2", 1),
    (16, 4, "pipe2", 2),
    (12, 4, "dapple", 1),
    (14, 4, "dapple", 1),
    (16, 4, "megatron", 1),
    (8, 2, "megatron", 2),
];

/// Draws one request of a catalogue shape; the seed only picks what
/// keeps each request distinct.
type Shape = Box<dyn Fn(&mut Rng) -> Body>;

/// Repeats a fixed catalogue in blocks, one request per shape in a
/// seeded order: every run does the same mix of work whatever its
/// seed, while the seed changes the order and every cache key.
fn blocks(seed: u64, salt: u64, count: usize, shapes: &[Shape]) -> Vec<Body> {
    let mut rng = Rng::new(seed, salt);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut block: Vec<Body> = shapes
            .iter()
            .map(|make| distinct(&mut seen, &mut rng, make))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(count);
    out
}

/// `cold_tune`: distinct full-tier `order`, `pipeline` and zoo `bundle`
/// requests.
pub fn cold_tune(seed: u64, count: usize) -> Vec<Body> {
    let orders = COLD_ORDERS.iter().map(|&(l, k, sync, p)| -> Shape {
        Box::new(move |r| order_body("order", l, k, sync, p, vec![unused_budget(r)]))
    });
    let pipes = COLD_PIPELINES.iter().map(|&(l, d, s, g)| -> Shape {
        Box::new(move |r| pipeline_body(l, d, s, g, vec![unused_budget(r)]))
    });
    // Two 150+ layer zoo bundles, whose orders sit at their certified
    // floor: they keep bundle parsing, graph build, realize, certify and
    // `tune_schedule` at zoo scale on this workload too.
    let zoo = [
        zoo_bundle(&ooo_models::zoo::densenet169(12, 32), true),
        zoo_bundle(&ooo_models::zoo::resnet(152), false),
    ];
    let bundles = zoo.into_iter().map(|b| -> Shape {
        Box::new(move |r| {
            let (key, budget) = unused_budget(r);
            obj([
                ("cmd", "bundle".into()),
                (key, budget),
                ("bundle", b.clone()),
            ])
            .to_compact()
        })
    });
    blocks(
        seed,
        1,
        count,
        &orders.chain(pipes).chain(bundles).collect::<Vec<_>>(),
    )
}

/// The exact static-ledger peak of an order request's heuristic
/// (reverse-first-k) realization.
fn order_baseline_peak(layers: u64, k: u64, sync: u64, policy: &str) -> u64 {
    let l = layers as usize;
    let graph = TrainGraph::data_parallel(l);
    let cost = TableCost::uniform(
        l,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    );
    let order = reverse_first_k(&graph, k as usize, None::<(u64, &TableCost)>)
        .expect("k <= layers by construction");
    let realized = ooo_verify::predict::datapar_schedule(&graph, &order, &cost, policy_of(policy))
        .expect("reverse-first-k orders realize");
    ooo_verify::mem::schedule_peak(&graph, &realized, &cost).expect("realized schedules evaluate")
}

/// The exact static-ledger peak of a pipeline strategy's own schedule.
fn pipeline_baseline_peak(layers: u64, devices: u64, strategy: &str, group: u64) -> u64 {
    let (graph, schedule) = ooo_core::pipeline::op_level_schedule(
        layers as usize,
        devices as usize,
        strategy_of(strategy),
        group as usize,
    );
    ooo_verify::mem::schedule_peak(&graph, &schedule, &UnitCost)
        .expect("strategy schedules evaluate")
}

/// Whether a request's heuristic baseline fits its memory cap (always,
/// without a cap): only then must the tuned makespan stay at or below
/// the baseline's.
pub fn baseline_fits(body: &str) -> bool {
    let Ok(v) = Value::parse(body) else {
        return true;
    };
    let Some(cap) = v.get("memory_cap_bytes").and_then(Value::as_u64) else {
        return true;
    };
    let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let peak = match s("cmd").as_str() {
        "order" => order_baseline_peak(n("layers"), n("k"), n("sync"), &s("policy")),
        "pipeline" => pipeline_baseline_peak(n("layers"), n("devices"), &s("strategy"), n("group")),
        _ => return true,
    };
    peak <= cap
}

/// `capped_cert` orders, with the cap as tenths of the baseline peak.
const CAPPED_ORDERS: [(OrderShape, u64); 6] = [
    ((10, 0, 3, "bylayer"), 9),
    ((11, 3, 2, "fifo"), 10),
    ((12, 0, 4, "bylayer"), 8),
    ((12, 3, 3, "fifo"), 9),
    ((14, 2, 2, "bylayer"), 10),
    ((9, 1, 4, "fifo"), 8),
];

/// `capped_cert` pipelines, with the cap as tenths of the baseline peak.
const CAPPED_PIPELINES: [(PipelineShape, u64); 6] = [
    ((8, 2, "gpipe", 1), 9),
    ((8, 3, "dapple", 1), 8),
    ((8, 2, "pipe2", 1), 10),
    ((8, 2, "megatron", 1), 9),
    ((10, 4, "gpipe", 1), 8),
    ((10, 2, "dapple", 1), 10),
];

/// `capped_cert` certifications: `(layers, k, sync, policy)`, searched
/// under a node budget drawn from `CERT_NODES`.
const CERTS: [OrderShape; 6] = [
    (10, 0, 3, "bylayer"),
    (12, 2, 3, "fifo"),
    (14, 0, 2, "bylayer"),
    (16, 2, 4, "fifo"),
    (12, 0, 4, "bylayer"),
    (14, 1, 3, "fifo"),
];
const CERT_NODES: (u64, u64) = (5_000, 6_000);

/// `capped_cert`: capped full-tier `order` and `pipeline` requests
/// with caps at or below the heuristic baseline's exact ledger peak,
/// and `cert` requests under a node budget. On every input sampled the
/// tuner's uncapped winner peaked at or above the baseline, so the caps
/// bind on a share of requests.
pub fn capped_cert(seed: u64, count: usize) -> Vec<Body> {
    let cap = |peak: u64, tenths: u64| {
        (
            "memory_cap_bytes",
            Value::Num((peak * tenths / 10).max(1) as f64),
        )
    };
    let orders = CAPPED_ORDERS
        .iter()
        .map(|&((l, k, sync, p), tenths)| -> Shape {
            let c = cap(order_baseline_peak(l, k, sync, p), tenths);
            Box::new(move |r| order_body("order", l, k, sync, p, vec![c.clone(), unused_budget(r)]))
        });
    let pipes = CAPPED_PIPELINES
        .iter()
        .map(|&((l, d, s, g), tenths)| -> Shape {
            let c = cap(pipeline_baseline_peak(l, d, s, g), tenths);
            Box::new(move |r| pipeline_body(l, d, s, g, vec![c.clone(), unused_budget(r)]))
        });
    let certs = CERTS.iter().map(|&(l, k, sync, p)| -> Shape {
        Box::new(move |r| {
            let nodes = Value::Num(r.range(CERT_NODES.0, CERT_NODES.1) as f64);
            order_body("cert", l, k, sync, p, vec![("budget", nodes)])
        })
    });
    blocks(
        seed,
        3,
        count,
        &orders.chain(pipes).chain(certs).collect::<Vec<_>>(),
    )
}

/// An inline zoo bundle as a JSON value: the model's graph with the
/// conventional order and two reverse-first-k orders. Data-parallel
/// bundles exercise the order path, single-GPU ones the schedule path.
fn zoo_bundle(model: &ooo_models::ModelSpec, data_parallel: bool) -> Value {
    let l = model.num_layers();
    let graph = if data_parallel {
        TrainGraph::data_parallel(l)
    } else {
        TrainGraph::single_gpu(l)
    };
    let mut bundle = ScheduleBundle::new(&model.name, &graph);
    bundle
        .add_order("conventional", &graph, graph.conventional_backprop())
        .expect("the conventional order validates");
    for k in [l / 4, l / 2] {
        let order = reverse_first_k::<UnitCost>(&graph, k, None).expect("k <= layers");
        bundle
            .add_order(&format!("reverse_first_{k}"), &graph, order)
            .expect("reverse-first-k orders validate");
    }
    Value::parse(&bundle.to_json().expect("bundles serialize")).expect("bundles are JSON")
}

fn zoo_bundles() -> Vec<Value> {
    use ooo_models::zoo;
    let models = [
        zoo::resnet(50),
        zoo::resnet(152),
        zoo::densenet169(12, 32),
        zoo::bert(24, 128),
    ];
    models
        .iter()
        .flat_map(|m| [zoo_bundle(m, true), zoo_bundle(m, false)])
        .collect()
}

/// `warm_mixed`: the warm-up pool and the open-loop schedule.
pub struct WarmMixed {
    /// Sent once, closed loop, before measuring: fills the cache.
    pub pool: Vec<Body>,
    /// `(due offset in ns from the start, body)`, ascending.
    pub schedule: Vec<(u64, Body)>,
}

/// The measured stream repeats blocks of 50 requests with fixed class
/// counts, shuffled within the block, so every run has the same mix:
/// 1 `stats`, 1 distinct bundle, 2 distinct heuristic-tier orders,
/// 12 pool bundles and 34 pool orders and pipelines (most are hits).
const WARM_BLOCK: [(WarmClass, usize); 5] = [
    (WarmClass::Stats, 1),
    (WarmClass::DistinctBundle, 1),
    (WarmClass::DistinctOrder, 2),
    (WarmClass::PoolBundle, 12),
    (WarmClass::PoolSmall, 34),
];

#[derive(Debug, Clone, Copy)]
enum WarmClass {
    Stats,
    DistinctBundle,
    DistinctOrder,
    PoolBundle,
    PoolSmall,
}

/// The order and pipeline pool of `warm_mixed`: cheap full-tier tunes,
/// computed once during warm-up and then served from the cache.
const WARM_ORDERS: [OrderShape; 8] = [
    (12, 0, 3, "bylayer"),
    (14, 2, 3, "fifo"),
    (16, 1, 2, "bylayer"),
    (18, 4, 1, "fifo"),
    (20, 0, 2, "fifo"),
    (22, 3, 1, "bylayer"),
    (24, 0, 5, "bylayer"),
    (12, 5, 4, "fifo"),
];
const WARM_PIPELINES: [PipelineShape; 8] = [
    (6, 2, "gpipe", 1),
    (8, 4, "gpipe", 1),
    (8, 2, "pipe2", 1),
    (10, 4, "pipe2", 2),
    (6, 3, "dapple", 1),
    (9, 3, "dapple", 1),
    (8, 2, "megatron", 1),
    (12, 4, "megatron", 2),
];
/// Layer counts the distinct heuristic-tier orders cycle through.
const WARM_HEURISTIC_LAYERS: [u64; 7] = [16, 24, 32, 40, 48, 56, 64];

/// The seeded Poisson arrival offsets (ns) in `[0, seconds)` at `rate`.
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 2);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Yields `items` round-robin, reshuffled with `rng` every round.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

pub fn warm_mixed(seed: u64, rate: f64, seconds: f64) -> WarmMixed {
    let mut rng = Rng::new(seed, 4);
    let small: Vec<Body> = WARM_ORDERS
        .iter()
        .map(|&(l, k, sync, p)| order_body("order", l, k, sync, p, vec![]))
        .chain(
            WARM_PIPELINES
                .iter()
                .map(|&(l, d, s, g)| pipeline_body(l, d, s, g, vec![])),
        )
        .collect();
    let bundles = zoo_bundles();
    let pool_bundles: Vec<Body> = bundles
        .iter()
        .map(|b| obj([("cmd", "bundle".into()), ("bundle", b.clone())]).to_compact())
        .collect();
    let mut seen: HashSet<Body> = small.iter().chain(&pool_bundles).cloned().collect();
    let mut small_deck = Deck::new(small.clone());
    let mut bundle_deck = Deck::new(pool_bundles.clone());
    let mut distinct_bundle_deck = Deck::new(bundles);
    let mut layers_deck = Deck::new(WARM_HEURISTIC_LAYERS.to_vec());
    let mut classes: Vec<WarmClass> = Vec::new();
    let mut schedule = Vec::new();
    for due in poisson_arrivals(seed, rate, seconds) {
        if classes.is_empty() {
            classes = WARM_BLOCK
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            rng.shuffle(&mut classes);
        }
        let body = match classes.pop().expect("refilled above") {
            WarmClass::Stats => obj([("cmd", "stats".into())]).to_compact(),
            WarmClass::DistinctBundle => {
                // The conventional order of a zoo bundle under a distinct
                // budget, so a distinct cache key; unit-cost zoo orders
                // sit at their certified floor, so the search stops
                // before spending the budget.
                let bundle = distinct_bundle_deck.draw(&mut rng);
                distinct(&mut seen, &mut rng, |r| {
                    obj([
                        ("cmd", "bundle".into()),
                        ("schedule", "conventional".into()),
                        ("budget", Value::Num(r.range(64, 1 << 30) as f64)),
                        ("bundle", bundle.clone()),
                    ])
                    .to_compact()
                })
            }
            WarmClass::DistinctOrder => {
                let l = layers_deck.draw(&mut rng);
                distinct(&mut seen, &mut rng, |r| {
                    let (k, sync, p) = (r.range(0, 8), r.range(1, 5), policy_name(r));
                    let extra = vec![("tier", "heuristic".into()), unused_budget(r)];
                    order_body("order", l, k, sync, p, extra)
                })
            }
            WarmClass::PoolBundle => bundle_deck.draw(&mut rng),
            WarmClass::PoolSmall => small_deck.draw(&mut rng),
        };
        schedule.push((due, body));
    }
    let pool = small.into_iter().chain(pool_bundles).collect();
    WarmMixed { pool, schedule }
}

/// Splices `id` in front of `body`, the way a client would write it.
pub fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{}", &body[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_arrivals_repeat_for_one_seed() {
        let a = poisson_arrivals(7, 200.0, 2.0);
        assert_eq!(a, poisson_arrivals(7, 200.0, 2.0));
        assert_ne!(a, poisson_arrivals(8, 200.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // About rate * seconds arrivals.
        assert!((300..500).contains(&a.len()), "{}", a.len());
        let w = warm_mixed(7, 200.0, 2.0);
        let again = warm_mixed(7, 200.0, 2.0);
        assert_eq!(w.schedule, again.schedule);
        assert_eq!(w.pool, again.pool);
    }

    #[test]
    fn seeds_give_distinct_request_sets() {
        assert_eq!(cold_tune(1, 40), cold_tune(1, 40));
        assert_ne!(cold_tune(1, 40), cold_tune(2, 40));
        assert_eq!(capped_cert(1, 12), capped_cert(1, 12));
        assert_ne!(capped_cert(1, 12), capped_cert(2, 12));
    }

    #[test]
    fn closed_loop_requests_are_all_distinct() {
        for bodies in [cold_tune(3, 480), capped_cert(3, 480)] {
            let set: HashSet<_> = bodies.iter().collect();
            assert_eq!(set.len(), bodies.len());
        }
    }

    #[test]
    fn lines_carry_the_id_first() {
        assert_eq!(line(5, r#"{"cmd":"stats"}"#), r#"{"id":5,"cmd":"stats"}"#);
    }
}
