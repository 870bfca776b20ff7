//! Request handlers: the compute commands, executed on pool workers.
//!
//! Each handler runs the same request core as the corresponding
//! one-shot CLI (`ooo-tune order|bundle|pipeline`, `ooo-cert order`):
//! [`UniformProblem`], [`ScheduleBundle::entries`] and
//! [`ooo_tune::request`]. It returns a [`Payload`] instead of printing,
//! records a failing bundle entry as an item instead of aborting, and
//! threads the request's degradation tier, logical budget, and
//! wall-clock deadline into the search ([`TuneOptions::budget`] /
//! [`TuneOptions::deadline`] / [`ooo_cert::Budget`]). Every tier
//! returns a certified result — degradation reduces search effort,
//! never correctness.

use crate::protocol::{Command, FaultDirective, Payload, Status, Tier};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::UniformProblem;
use ooo_core::SimTime;
use ooo_tune::request::{self, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::time::Instant;

/// Default branch-and-bound node budget for `cert` requests without an
/// explicit `budget` (matches [`ooo_cert::Budget::default`]).
const DEFAULT_CERT_NODES: u64 = 200_000;

/// Search options for one request: tier picks the family, budget and
/// deadline bound the effort. The heuristic tier is a zero-scan tune —
/// the paper's heuristic baseline, still gate-checked and certified.
fn tune_opts(
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
    memory_cap: Option<u64>,
) -> TuneOptions {
    let base = TuneOptions {
        deadline,
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

/// One tuned result as a response object (fixed key order — the
/// response stream is byte-compared across runs).
fn tuned_fields(name: &str, o: &Outcome) -> Value {
    obj([
        ("name", name.into()),
        ("kind", o.kind.into()),
        ("baseline_makespan", o.baseline.into()),
        ("tuned_makespan", o.tuned.into()),
        ("certified_makespan", o.certified.into()),
        ("lower_bound", o.lower_bound.into()),
        ("proven_optimal", o.proven_optimal().into()),
        ("improved", o.improved().into()),
        ("peak", o.peak.into()),
        ("memory_cap", o.cap.into()),
        ("cap_met", o.cap_met().into()),
        ("k", o.k.into()),
        ("moves", o.moves.len().into()),
        ("restarts_adopted", o.restarts_adopted.into()),
    ])
}

/// The rule codes a gate refusal fired.
fn diagnostics(report: &ooo_verify::Report) -> Value {
    Value::Arr(
        report
            .rule_codes()
            .iter()
            .map(|c| c.to_string().into())
            .collect(),
    )
}

/// A served answer at `tier`.
fn answer(status: Status, tier: Tier, result: Value) -> Payload {
    Payload::new(status, [("tier", tier.as_str().into()), ("result", result)])
}

/// One tuned input as a payload: gate refusals become `unsafe`
/// responses with the fired rule codes, every other failure a
/// structured `error`.
fn tuned(tier: Tier, r: Result<(String, Outcome), Error>) -> Payload {
    match r {
        Ok((name, o)) => answer(Status::Ok, tier, tuned_fields(&name, &o)),
        Err(Error::Unsafe(report)) => {
            Payload::new(Status::Unsafe, [("diagnostics", diagnostics(&report))])
        }
        Err(e) => Payload::error(e.to_string()),
    }
}

/// Tunes every selected bundle entry. A failing entry becomes an
/// `unsafe` or `error` item and the walk goes on; the response status
/// is that of the last failing entry.
fn handle_bundle(
    bundle: &ScheduleBundle,
    wanted: Option<&str>,
    policy: CommPolicy,
    tier: Tier,
    opts: &TuneOptions,
) -> Payload {
    let graph = match bundle.train_graph() {
        Ok(g) => g,
        Err(msg) => return Payload::error(msg),
    };
    let entries = match bundle.entries(wanted) {
        Ok(e) => e,
        Err(msg) => return Payload::error(msg),
    };
    let mut worst = Status::Ok;
    let items = entries
        .map(
            |(name, entry)| match request::entry(&graph, &entry, policy, opts) {
                Ok(o) => tuned_fields(name, &o),
                Err(Error::Unsafe(report)) => {
                    worst = Status::Unsafe;
                    obj([
                        ("name", name.into()),
                        ("kind", "unsafe".into()),
                        ("diagnostics", diagnostics(&report)),
                    ])
                }
                Err(e) => {
                    worst = Status::Error;
                    obj([
                        ("name", name.into()),
                        ("kind", "error".into()),
                        ("error", e.to_string().into()),
                    ])
                }
            },
        )
        .collect();
    answer(worst, tier, Value::Arr(items))
}

fn handle_cert(
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
) -> Payload {
    let p = match UniformProblem::new(layers, k, sync) {
        Ok(p) => p,
        Err(e) => return Payload::error(e.to_string()),
    };
    // The heuristic tier skips the search entirely: a zero-node budget
    // reports the static certified bracket.
    let max_nodes = match tier {
        Tier::Heuristic => 0,
        _ => budget.unwrap_or(DEFAULT_CERT_NODES),
    };
    let mut cert_budget = ooo_cert::Budget::nodes(max_nodes);
    if let Some(d) = deadline {
        cert_budget = cert_budget.with_deadline(d);
    }
    match ooo_cert::certify_order(&p.graph, &p.order, &p.cost, policy, &cert_budget) {
        Ok((_, solved)) => {
            let c = &solved.certificate;
            answer(
                Status::Ok,
                tier,
                obj([
                    ("name", p.name.into()),
                    ("kind", "cert".into()),
                    ("cert_status", c.status().into()),
                    ("baseline_makespan", c.baseline_makespan().into()),
                    ("best_makespan", c.best_makespan().into()),
                    ("lower_bound", solved.lower_bound.into()),
                    ("optimal", solved.is_optimal().into()),
                    ("nodes", solved.nodes.into()),
                ]),
            )
        }
        Err(e) => Payload::error(e.to_string()),
    }
}

/// Executes one compute command at `tier`. Control commands never
/// reach this function.
///
/// The `fault` directive and `attempt` number implement the
/// deterministic chaos contract: `panic` fires on every attempt,
/// `flaky` only on the first (so a retry succeeds).
pub fn handle(
    cmd: &Command,
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
    fault: Option<FaultDirective>,
    memory_cap: Option<u64>,
    attempt: usize,
) -> Payload {
    match fault {
        Some(FaultDirective::Panic) => panic!("injected fault: worker panic"),
        Some(FaultDirective::Flaky) if attempt == 0 => {
            panic!("injected fault: flaky worker panic")
        }
        _ => {}
    }
    let opts = tune_opts(tier, budget, deadline, memory_cap);
    match cmd {
        Command::Order {
            layers,
            k,
            sync,
            policy,
        } => {
            let r = UniformProblem::new(*layers, *k, *sync)
                .map_err(Error::from)
                .and_then(|p| {
                    request::order(&p.graph, &p.order, Some(*k), &p.cost, *policy, &opts)
                        .map(|o| (p.name, o))
                });
            tuned(tier, r)
        }
        Command::Bundle {
            bundle,
            schedule,
            policy,
            ..
        } => handle_bundle(bundle, schedule.as_deref(), *policy, tier, &opts),
        Command::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => {
            let r = request::pipeline(*layers, *devices, *strategy, *group, &opts);
            tuned(tier, r.map(|o| (strategy.name().to_string(), o)))
        }
        Command::Cert {
            layers,
            k,
            sync,
            policy,
        } => handle_cert(*layers, *k, *sync, *policy, tier, budget, deadline),
        Command::Hold | Command::Release | Command::Stats => {
            Payload::error("control command routed to a compute handler")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_handler_serves_all_tiers_deterministically() {
        for tier in [Tier::Full, Tier::Greedy, Tier::Heuristic] {
            let cmd = Command::Order {
                layers: 4,
                k: 1,
                sync: 3,
                policy: CommPolicy::PriorityByLayer,
            };
            let a = handle(&cmd, tier, None, None, None, None, 0);
            let b = handle(&cmd, tier, None, None, None, None, 0);
            assert_eq!(a.body, b.body, "tier {tier:?}");
            assert_eq!(a.status, Status::Ok);
        }
    }

    #[test]
    fn capped_order_requests_report_the_winner_peak() {
        let cmd = Command::Order {
            layers: 6,
            k: 0,
            sync: 3,
            policy: CommPolicy::PriorityByLayer,
        };
        // Uncapped responses carry null peak/cap fields.
        let free = handle(&cmd, Tier::Full, None, None, None, None, 0);
        assert_eq!(free.status, Status::Ok);
        assert!(free.body.contains("\"peak\":null"), "{}", free.body);
        assert!(free.body.contains("\"cap_met\":null"), "{}", free.body);
        // A generous cap is met and the exact ledger peak is reported.
        let capped = handle(&cmd, Tier::Full, None, None, None, Some(1 << 30), 0);
        assert_eq!(capped.status, Status::Ok, "{}", capped.body);
        assert!(capped.body.contains("\"cap_met\":true"), "{}", capped.body);
        assert!(!capped.body.contains("\"peak\":null"), "{}", capped.body);
        // Deterministic under a cap, like every other request.
        let again = handle(&cmd, Tier::Full, None, None, None, Some(1 << 30), 0);
        assert_eq!(capped.body, again.body);
    }

    #[test]
    fn cert_handler_reports_certificates() {
        let cmd = Command::Cert {
            layers: 3,
            k: 1,
            sync: 2,
            policy: CommPolicy::FifoCompletion,
        };
        let p = handle(&cmd, Tier::Full, None, None, None, None, 0);
        assert_eq!(p.status, Status::Ok);
        assert!(p.body.contains("cert_status"), "{}", p.body);
        // Heuristic tier degrades to the static bracket but still
        // answers.
        let h = handle(&cmd, Tier::Heuristic, None, None, None, None, 0);
        assert_eq!(h.status, Status::Ok);
    }

    #[test]
    fn flaky_fault_panics_only_on_the_first_attempt() {
        let cmd = Command::Order {
            layers: 3,
            k: 0,
            sync: 3,
            policy: CommPolicy::PriorityByLayer,
        };
        let caught = std::panic::catch_unwind(|| {
            handle(
                &cmd,
                Tier::Heuristic,
                None,
                None,
                Some(FaultDirective::Flaky),
                None,
                0,
            )
        });
        assert!(caught.is_err());
        let retried = handle(
            &cmd,
            Tier::Heuristic,
            None,
            None,
            Some(FaultDirective::Flaky),
            None,
            1,
        );
        assert_eq!(retried.status, Status::Ok);
    }
}
