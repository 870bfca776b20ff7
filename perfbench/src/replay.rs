//! In-process replay of a request stream, in two modes:
//!
//! * untraced: admission, cache and the daemon's own
//!   `ooo_serve::handlers::handle`, for the replay's reference wall time;
//! * traced: the same admission and cache, with the handler call
//!   sequence of `crates/serve/src/handlers.rs` mirrored here so that a
//!   span can sit around each call into a layer's public functions.
//!
//! Requests are admitted in order in chunks of `workers`, whose cache
//! misses run on up to `workers` threads (this one included), as the
//! daemon's pool would.
//! Both modes render each response, so every payload can be compared
//! byte for byte with the daemon's answer.

use crate::check::strip_id;
use crate::trace::Tracer;
use ooo_core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_serve::cache::{Decision, ScheduleCache};
use ooo_serve::protocol::{
    parse_request, strategy_name, Command, Limits, Payload, Request, Status, Tier,
};
use ooo_tune::order::{certify_order, tune_backward_order, KFamily};
use ooo_tune::{certify_schedule, tune_schedule, Error, TuneOptions};
use std::time::{Duration, Instant};

/// Mirrors the daemon's `resolve_tier` without load-based degradation
/// (the benchmark's daemon runs without `--degrade-hot`).
fn resolve_tier(req: &Request) -> Tier {
    if let Some(t) = req.tier {
        return t;
    }
    match req.budget {
        Some(b) if b < 8 => Tier::Heuristic,
        Some(b) if b < 64 => Tier::Greedy,
        _ => Tier::Full,
    }
}

// ---- The handler mirror: same calls, same order, same payloads. ----

fn tune_opts(
    tier: Tier,
    budget: Option<u64>,
    require_complete: bool,
    target: Option<SimTime>,
    memory_cap: Option<u64>,
) -> TuneOptions {
    let base = TuneOptions {
        require_complete,
        target: if memory_cap.is_some() { None } else { target },
        deadline: None,
        memory_cap,
        ..TuneOptions::default()
    };
    match tier {
        Tier::Full => TuneOptions { budget, ..base },
        Tier::Greedy => TuneOptions {
            restarts: 0,
            budget,
            ..base
        },
        Tier::Heuristic => TuneOptions {
            budget: Some(0),
            ..base
        },
    }
}

fn certified_floor<C: CostModel>(
    t: &mut Tracer,
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> SimTime {
    t.span("core.bounds", |_| {
        let scheduled: Vec<Op> = schedule
            .lanes
            .iter()
            .flat_map(|l| l.ops.iter().copied())
            .collect();
        let compute = schedule
            .lanes
            .iter()
            .filter(|l| l.ops.iter().any(|o| o.is_compute()))
            .count()
            .max(1);
        let link = schedule
            .lanes
            .iter()
            .filter(|l| l.ops.iter().any(|o| o.is_sync()))
            .count()
            .max(1);
        ooo_core::bounds::partial_lower_bound(graph, cost, &scheduled, compute, link)
    })
}

/// The span a tuner entry point is recorded under: capped searches are
/// their own layer, since they leave the delta-evaluation path.
fn tune_layer(uncapped: &'static str, memory_cap: Option<u64>) -> &'static str {
    if memory_cap.is_some() {
        "tune.capped"
    } else {
        uncapped
    }
}

/// Notes a finished tune on its span: accepted moves, adopted restarts,
/// and whether the cap (if any) was met.
fn note_tune(
    t: &mut Tracer,
    layer: &'static str,
    moves: usize,
    restarts: usize,
    peak: Option<u64>,
    cap: Option<u64>,
) {
    t.note(layer, "moves", moves as f64);
    t.note(layer, "restarts_adopted", restarts as f64);
    if let (Some(p), Some(c)) = (peak, cap) {
        t.note(layer, "cap_met", f64::from(u8::from(p <= c)));
    }
}

/// Notes the certified outcome on the uncapped order tuner's span.
fn note_outcome(
    t: &mut Tracer,
    layer: &'static str,
    baseline: SimTime,
    tuned: SimTime,
    certified: SimTime,
    floor: SimTime,
) {
    if layer == "tune.order" {
        t.note(layer, "improved", f64::from(u8::from(tuned < baseline)));
        t.note(
            layer,
            "proven_optimal",
            f64::from(u8::from(certified == floor)),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn tuned_fields(
    name: &str,
    kind: &str,
    baseline: SimTime,
    tuned: SimTime,
    certified: SimTime,
    floor: SimTime,
    peak: Option<u64>,
    cap: Option<u64>,
    k: Option<usize>,
    moves: usize,
    restarts_adopted: usize,
) -> Value {
    let opt_num = |n: Option<u64>| match n {
        Some(n) => Value::Num(n as f64),
        None => Value::Null,
    };
    obj([
        ("name", name.into()),
        ("kind", kind.into()),
        ("baseline_makespan", Value::Num(baseline as f64)),
        ("tuned_makespan", Value::Num(tuned as f64)),
        ("certified_makespan", Value::Num(certified as f64)),
        ("lower_bound", Value::Num(floor as f64)),
        ("proven_optimal", Value::Bool(certified == floor)),
        ("improved", Value::Bool(tuned < baseline)),
        ("peak", opt_num(peak)),
        ("memory_cap", opt_num(cap)),
        (
            "cap_met",
            match (peak, cap) {
                (Some(p), Some(c)) => Value::Bool(p <= c),
                _ => Value::Null,
            },
        ),
        (
            "k",
            match k {
                Some(k) => Value::Num(k as f64),
                None => Value::Null,
            },
        ),
        ("moves", Value::Num(moves as f64)),
        ("restarts_adopted", Value::Num(restarts_adopted as f64)),
    ])
}

fn diagnostics(e: &ooo_verify::Report) -> Value {
    Value::Arr(
        e.rule_codes()
            .iter()
            .map(|c| c.to_string().into())
            .collect(),
    )
}

fn tune_error(e: Error) -> Payload {
    match e {
        Error::Unsafe(report) => {
            Payload::new(Status::Unsafe, [("diagnostics", diagnostics(&report))])
        }
        other => Payload::error(other.to_string()),
    }
}

fn render(t: &mut Tracer, f: impl FnOnce() -> Payload) -> Payload {
    t.span("serve.handlers.render", |_| f())
}

#[allow(clippy::too_many_arguments)]
fn order(
    t: &mut Tracer,
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
    cap: Option<u64>,
) -> Payload {
    let mut run = || -> Result<Payload, Error> {
        let graph = t.span("core.graph", |_| TrainGraph::data_parallel(layers));
        let cost = TableCost::uniform(
            layers,
            LayerCost {
                sync_weight: sync,
                ..LayerCost::default()
            },
        );
        let baseline = t.span("core.reverse_k", |_| {
            reverse_first_k(&graph, k, None::<(u64, &TableCost)>)
        })?;
        let realized = t.span("verify.predict", |_| {
            ooo_verify::predict::datapar_schedule(&graph, &baseline, &cost, policy)
        })?;
        let floor = certified_floor(t, &graph, &realized, &cost);
        let layer = tune_layer("tune.order", cap);
        let tuned = t.span(layer, |_| {
            tune_backward_order(
                &graph,
                &baseline,
                Some(k),
                &cost,
                policy,
                KFamily::ReverseFirstK,
                &tune_opts(tier, budget, true, Some(floor), cap),
            )
        })?;
        note_tune(
            t,
            layer,
            tuned.moves.len(),
            tuned.restarts_adopted,
            tuned.peak,
            cap,
        );
        let certified = t.span("tune.certify", |_| {
            certify_order(&graph, &tuned.order, &cost, policy)
        })?;
        note_outcome(t, layer, tuned.baseline, tuned.predicted, certified, floor);
        Ok(render(t, || {
            Payload::new(
                Status::Ok,
                [
                    ("tier", tier.as_str().into()),
                    (
                        "result",
                        tuned_fields(
                            &format!("reverse-first-k(l={layers}, k={k})"),
                            "order",
                            tuned.baseline,
                            tuned.predicted,
                            certified,
                            floor,
                            tuned.peak,
                            cap,
                            tuned.k,
                            tuned.moves.len(),
                            tuned.restarts_adopted,
                        ),
                    ),
                ],
            )
        }))
    };
    run().unwrap_or_else(tune_error)
}

fn one_schedule(
    t: &mut Tracer,
    graph: &TrainGraph,
    name: &str,
    schedule: &Schedule,
    tier: Tier,
    budget: Option<u64>,
    cap: Option<u64>,
) -> Result<Value, Error> {
    let floor = certified_floor(t, graph, schedule, &UnitCost);
    let layer = tune_layer("tune.schedule", cap);
    let tuned = t.span(layer, |_| {
        tune_schedule(
            graph,
            schedule,
            &UnitCost,
            &tune_opts(tier, budget, false, Some(floor), cap),
        )
    })?;
    note_tune(
        t,
        layer,
        tuned.moves.len(),
        tuned.restarts_adopted,
        tuned.peak,
        cap,
    );
    let certified = t.span("tune.certify", |_| {
        certify_schedule(graph, &tuned.schedule, &UnitCost)
    })?;
    Ok(tuned_fields(
        name,
        "schedule",
        tuned.baseline,
        tuned.predicted,
        certified,
        floor,
        tuned.peak,
        cap,
        None,
        tuned.moves.len(),
        tuned.restarts_adopted,
    ))
}

#[allow(clippy::too_many_arguments)]
fn bundle_order(
    t: &mut Tracer,
    graph: &TrainGraph,
    name: &str,
    order: &[Op],
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
    cap: Option<u64>,
) -> Result<Value, Error> {
    let backward: Vec<_> = order.iter().copied().filter(|o| o.is_backward()).collect();
    let realized = t.span("verify.predict", |_| {
        ooo_verify::predict::datapar_schedule(graph, &backward, &UnitCost, policy)
    })?;
    let floor = certified_floor(t, graph, &realized, &UnitCost);
    let layer = tune_layer("tune.order", cap);
    let tuned = t.span(layer, |_| {
        tune_backward_order(
            graph,
            &backward,
            None,
            &UnitCost,
            policy,
            KFamily::ReverseFirstK,
            &tune_opts(tier, budget, true, Some(floor), cap),
        )
    })?;
    note_tune(
        t,
        layer,
        tuned.moves.len(),
        tuned.restarts_adopted,
        tuned.peak,
        cap,
    );
    let certified = t.span("tune.certify", |_| {
        certify_order(graph, &tuned.order, &UnitCost, policy)
    })?;
    note_outcome(t, layer, tuned.baseline, tuned.predicted, certified, floor);
    Ok(tuned_fields(
        name,
        "order",
        tuned.baseline,
        tuned.predicted,
        certified,
        floor,
        tuned.peak,
        cap,
        tuned.k,
        tuned.moves.len(),
        tuned.restarts_adopted,
    ))
}

#[allow(clippy::too_many_arguments)]
fn bundle(
    t: &mut Tracer,
    bundle: &ScheduleBundle,
    wanted: Option<&str>,
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
    cap: Option<u64>,
) -> Payload {
    let graph = match t.span("core.graph", |_| TrainGraph::new(bundle.graph.clone())) {
        Ok(g) => g,
        Err(e) => return Payload::error(format!("invalid graph configuration: {e}")),
    };
    let mut items = Vec::new();
    let mut worst = Status::Ok;
    let mut push = |r: Result<Value, Error>, name: &str| match r {
        Ok(v) => items.push(v),
        Err(Error::Unsafe(report)) => {
            worst = Status::Unsafe;
            items.push(obj([
                ("name", name.into()),
                ("kind", "unsafe".into()),
                ("diagnostics", diagnostics(&report)),
            ]));
        }
        Err(e) => {
            worst = Status::Error;
            items.push(obj([
                ("name", name.into()),
                ("kind", "error".into()),
                ("error", e.to_string().into()),
            ]));
        }
    };
    for (name, order) in &bundle.orders {
        if wanted.is_some_and(|w| w != name) {
            continue;
        }
        let item = if graph.config().sync_weight_grads {
            bundle_order(t, &graph, name, order, policy, tier, budget, cap)
        } else {
            let s = Schedule::single_lane(name, order.clone());
            one_schedule(t, &graph, name, &s, tier, budget, cap)
        };
        push(item, name);
    }
    for (name, schedule) in &bundle.schedules {
        if wanted.is_some_and(|w| w != name) {
            continue;
        }
        push(
            one_schedule(t, &graph, name, schedule, tier, budget, cap),
            name,
        );
    }
    if items.is_empty() {
        return Payload::error(match wanted {
            Some(w) => format!("no order or schedule named {w:?} in the bundle"),
            None => "bundle holds no orders or schedules".to_string(),
        });
    }
    render(t, || {
        Payload::new(
            worst,
            [
                ("tier", tier.as_str().into()),
                ("result", Value::Arr(items)),
            ],
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn pipeline(
    t: &mut Tracer,
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    tier: Tier,
    budget: Option<u64>,
    cap: Option<u64>,
) -> Payload {
    let mut run = || -> Result<Payload, Error> {
        let (pgraph, pschedule) = t.span("core.graph", |_| {
            ooo_core::pipeline::op_level_schedule(layers, devices, strategy, group)
        });
        let floor = certified_floor(t, &pgraph, &pschedule, &UnitCost);
        let layer = tune_layer("tune.pipeline", cap);
        let tuned = t.span(layer, |_| {
            ooo_tune::pipeline::tune_pipeline(
                layers,
                devices,
                strategy,
                group,
                &UnitCost,
                &tune_opts(tier, budget, true, Some(floor), cap),
            )
        })?;
        note_tune(
            t,
            layer,
            tuned.moves.len(),
            tuned.restarts_adopted,
            tuned.peak,
            cap,
        );
        let certified = t.span("tune.certify", |_| {
            certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost)
        })?;
        Ok(render(t, || {
            Payload::new(
                Status::Ok,
                [
                    ("tier", tier.as_str().into()),
                    (
                        "result",
                        tuned_fields(
                            strategy_name(strategy),
                            "pipeline",
                            tuned.baseline,
                            tuned.predicted,
                            certified,
                            floor,
                            tuned.peak,
                            cap,
                            Some(tuned.group),
                            tuned.moves.len(),
                            tuned.restarts_adopted,
                        ),
                    ),
                ],
            )
        }))
    };
    run().unwrap_or_else(tune_error)
}

/// The daemon's default `cert` node budget (`handlers::DEFAULT_CERT_NODES`).
const DEFAULT_CERT_NODES: u64 = 200_000;

fn cert(
    t: &mut Tracer,
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
) -> Payload {
    let graph = t.span("core.graph", |_| TrainGraph::data_parallel(layers));
    let cost = TableCost::uniform(
        layers,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    );
    let order = match t.span("core.reverse_k", |_| {
        reverse_first_k(&graph, k, None::<(u64, &TableCost)>)
    }) {
        Ok(o) => o,
        Err(e) => return Payload::error(e.to_string()),
    };
    let max_nodes = match tier {
        Tier::Heuristic => 0,
        _ => budget.unwrap_or(DEFAULT_CERT_NODES),
    };
    let solved = t.span("cert", |_| {
        ooo_cert::certify_order(
            &graph,
            &order,
            &cost,
            policy,
            &ooo_cert::Budget::nodes(max_nodes),
        )
    });
    match solved {
        Ok((_, solved)) => {
            t.note("cert", "nodes", solved.nodes as f64);
            t.note("cert", "delta_speedup", solved.delta_speedup());
            t.note("cert", "optimal", f64::from(u8::from(solved.is_optimal())));
            let c = &solved.certificate;
            render(t, || {
                Payload::new(
                    Status::Ok,
                    [
                        ("tier", tier.as_str().into()),
                        (
                            "result",
                            obj([
                                ("name", format!("reverse-first-k(l={layers}, k={k})").into()),
                                ("kind", "cert".into()),
                                ("cert_status", c.status().into()),
                                (
                                    "baseline_makespan",
                                    Value::Num(c.baseline_makespan() as f64),
                                ),
                                ("best_makespan", Value::Num(c.best_makespan() as f64)),
                                ("lower_bound", Value::Num(solved.lower_bound as f64)),
                                ("optimal", Value::Bool(solved.is_optimal())),
                                ("nodes", Value::Num(solved.nodes as f64)),
                            ]),
                        ),
                    ],
                )
            })
        }
        Err(e) => Payload::error(e.to_string()),
    }
}

/// The traced mirror of `ooo_serve::handlers::handle` for the commands
/// the workloads send (no faults, no deadlines).
fn mirror(t: &mut Tracer, req: &Request, tier: Tier) -> Payload {
    let (budget, cap) = (req.budget, req.memory_cap);
    match &req.cmd {
        Command::Order {
            layers,
            k,
            sync,
            policy,
        } => order(t, *layers, *k, *sync, *policy, tier, budget, cap),
        Command::Bundle {
            bundle: b,
            schedule,
            policy,
            ..
        } => bundle(t, b, schedule.as_deref(), *policy, tier, budget, cap),
        Command::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => pipeline(t, *layers, *devices, *strategy, *group, tier, budget, cap),
        Command::Cert {
            layers,
            k,
            sync,
            policy,
        } => cert(t, *layers, *k, *sync, *policy, tier, budget),
        Command::Hold | Command::Release | Command::Stats => {
            Payload::error("control command routed to a compute handler")
        }
    }
}

// ---- The replay loop. ----

/// What one replay produced.
pub struct Replay {
    /// The rendered, id-stripped response body per stream position.
    pub bodies: Vec<String>,
    /// Spans, one tracer per thread role (no spans when untraced).
    pub tracers: Vec<Tracer>,
    pub wall: Duration,
}

/// Running status counts in stream order, as the daemon's writer keeps
/// them for `stats` answers.
#[derive(Default)]
struct Tally {
    responses: u64,
    ok: u64,
    error: u64,
    unsafe_: u64,
    timeout: u64,
    overloaded: u64,
}

impl Tally {
    fn add(&mut self, status: Status) {
        self.responses += 1;
        match status {
            Status::Ok => self.ok += 1,
            Status::Error => self.error += 1,
            Status::Unsafe => self.unsafe_ += 1,
            Status::Timeout => self.timeout += 1,
            Status::Overloaded => self.overloaded += 1,
        }
    }

    fn stats(&self, hits: u64, misses: u64) -> Payload {
        Payload::new(
            Status::Ok,
            [(
                "stats",
                obj([
                    ("responses", self.responses.into()),
                    ("ok", self.ok.into()),
                    ("error", self.error.into()),
                    ("unsafe", self.unsafe_.into()),
                    ("timeout", self.timeout.into()),
                    ("overloaded", self.overloaded.into()),
                    ("cache_hits", hits.into()),
                    ("cache_misses", misses.into()),
                ]),
            )],
        )
    }
}

enum Slot {
    Ready(Payload),
    Compute(Box<Request>, Tier, Option<String>),
    Waiting,
    Stats(u64, u64),
}

/// Replays `lines` (the exact stream the daemon received; line `i` has
/// id `i`) against a fresh cache of `cache_capacity` entries.
pub fn replay(lines: &[String], workers: usize, cache_capacity: usize, traced: bool) -> Replay {
    let t0 = Instant::now();
    let limits = Limits::default();
    let mut cache = ScheduleCache::new(cache_capacity);
    let mut admission = Tracer::new(t0, traced, 0);
    let mut pool: Vec<Tracer> = (1..=workers).map(|w| Tracer::new(t0, traced, w)).collect();
    let mut tally = Tally::default();
    let mut bodies = Vec::with_capacity(lines.len());
    for (chunk_no, chunk) in lines.chunks(workers).enumerate() {
        let first = (chunk_no * workers) as u64;
        // Admission, in order: parse, resolve the tier, probe the cache.
        let mut slots: Vec<(Value, Slot)> = Vec::with_capacity(chunk.len());
        for (i, line) in chunk.iter().enumerate() {
            admission.set_request(first + i as u64);
            let parsed = admission.span("serve.protocol", |t| {
                t.note("serve.protocol", "bytes_in", line.len() as f64);
                parse_request(line, &limits)
            });
            let req = match parsed {
                Ok(req) => req,
                Err(message) => {
                    slots.push((Value::Null, Slot::Ready(Payload::error(message))));
                    continue;
                }
            };
            if matches!(req.cmd, Command::Stats) {
                slots.push((req.id.clone(), Slot::Stats(cache.hits(), cache.misses())));
                continue;
            }
            let tier = resolve_tier(&req);
            let key = req.cache_key(tier);
            let decision = match &key {
                Some(k) => admission.span("serve.cache", |t| {
                    let d = cache.lookup_or_reserve(k, first + i as u64, &req.id);
                    let hit = matches!(d, Decision::Hit(_) | Decision::Wait);
                    t.note("serve.cache", if hit { "hit" } else { "miss" }, 1.0);
                    d
                }),
                None => Decision::Bypass,
            };
            let id = req.id.clone();
            let slot = match decision {
                Decision::Hit(p) => Slot::Ready(p),
                Decision::Wait => Slot::Waiting,
                Decision::Miss => Slot::Compute(Box::new(req), tier, key),
                Decision::Bypass => Slot::Compute(Box::new(req), tier, None),
            };
            slots.push((id, slot));
        }
        // The chunk's misses, one per worker thread.
        let mut jobs: Vec<(usize, &Request, Tier, &mut Tracer)> = Vec::new();
        let mut workers_left = pool.iter_mut();
        for (i, (_, slot)) in slots.iter().enumerate() {
            if let Slot::Compute(req, tier, _) = slot {
                let t = workers_left
                    .next()
                    .expect("a chunk holds at most `workers` requests");
                t.set_request(first + i as u64);
                jobs.push((i, req, *tier, t));
            }
        }
        let run = |req: &Request, tier: Tier, t: &mut Tracer| {
            if traced {
                t.span("serve.handlers", |t| mirror(t, req, tier))
            } else {
                ooo_serve::handlers::handle(
                    &req.cmd,
                    tier,
                    req.budget,
                    None,
                    None,
                    req.memory_cap,
                    0,
                )
            }
        };
        // The first miss runs on this thread, the others on their own,
        // so the replay never runs more than `workers` threads.
        let mut jobs = jobs.into_iter();
        let computed: Vec<(usize, Payload)> = std::thread::scope(|s| {
            let here = jobs.next();
            let spawned: Vec<_> = jobs
                .map(|(i, req, tier, t)| s.spawn(move || (i, run(req, tier, t))))
                .collect();
            here.map(|(i, req, tier, t)| (i, run(req, tier, t)))
                .into_iter()
                .chain(
                    spawned
                        .into_iter()
                        .map(|h| h.join().expect("a replay worker panicked")),
                )
                .collect()
        });
        // Fulfil reservations in order; waiters take the same payload.
        let mut done: Vec<Option<Payload>> = vec![None; slots.len()];
        for (i, payload) in computed {
            if let Slot::Compute(_, _, Some(key)) = &slots[i].1 {
                admission.set_request(first + i as u64);
                let cacheable = matches!(payload.status, Status::Ok | Status::Unsafe);
                let waiters =
                    admission.span("serve.cache", |_| cache.fulfill(key, &payload, cacheable));
                for (wseq, _) in waiters {
                    done[(wseq - first) as usize] = Some(payload.clone());
                }
            }
            done[i] = Some(payload);
        }
        // Render in stream order.
        for (i, (id, slot)) in slots.into_iter().enumerate() {
            admission.set_request(first + i as u64);
            let payload = match slot {
                Slot::Ready(p) => p,
                Slot::Stats(hits, misses) => {
                    admission.span("serve.handlers.render", |_| tally.stats(hits, misses))
                }
                Slot::Compute(..) | Slot::Waiting => {
                    done[i].take().expect("every miss and waiter is answered")
                }
            };
            let line = admission.span("serve.handlers.render", |_| payload.render(&id));
            tally.add(payload.status);
            bodies.push(strip_id(&line).expect("rendered lines lead with the id"));
        }
    }
    let wall = t0.elapsed();
    let mut tracers = vec![admission];
    tracers.append(&mut pool);
    Replay {
        bodies,
        tracers,
        wall,
    }
}
