//! `ooo-cert` — exact schedule-optimality certification.
//!
//! Three modes, mirroring `ooo-tune`:
//!
//! ```text
//! ooo-cert order --layers N [--k K] [--sync NS] [--policy fifo|bylayer]
//!                [--budget NODES] [--json] [--out FILE]
//! ooo-cert bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer]
//!                [--budget NODES] [--json] [--out FILE]
//! ooo-cert pipeline --layers N --devices D --strategy NAME [--group G]
//!                [--budget NODES] [--json] [--out FILE]
//! ```
//!
//! `order` certifies the data-parallel realization of a reverse-first-k
//! backward order; `bundle` certifies every order and schedule of a
//! JSON-exported [`ScheduleBundle`]; `pipeline` certifies one
//! strategy's op-level schedule under fixed device placement (the lane
//! assignment is part of the problem statement there).
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when every certificate is `Optimal` or `Unknown` (the analysis
//! found nothing wrong within budget), `1` when any input is proven
//! `Improvable` (the analysis found a defect, with a witness), `2` on
//! usage, I/O, or parse problems.

use ooo_cert::{certify_order, certify_with, Budget, Certificate, Placement, Solved};
use ooo_core::cli::{mode, Shape, Spec, BUNDLE, JSON, ORDER, OUT, PIPELINE, POLICY};
use ooo_core::cost::UnitCost;
use ooo_core::export::{Entry, ScheduleBundle};
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::UniformProblem;
use ooo_core::schedule::Schedule;
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-cert order --layers N [--k K] [--sync NS] \
                     [--policy fifo|bylayer] [--budget NODES] [--json] [--out FILE]\n\
                     \x20      ooo-cert bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--budget NODES] [--json] [--out FILE]\n\
                     \x20      ooo-cert pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--budget NODES] [--json] [--out FILE]";

const BUDGET: &[&str] = &["--budget"];

const SPEC: Spec = Spec {
    tool: "ooo-cert",
    usage: USAGE,
    modes: &[
        mode("order", &[ORDER, POLICY, BUDGET, OUT], JSON, false),
        mode("bundle", &[BUNDLE, POLICY, BUDGET, OUT], JSON, true),
        mode("pipeline", &[PIPELINE, BUDGET, OUT], JSON, false),
    ],
};

/// One certified input, ready for rendering.
struct Item {
    name: String,
    kind: &'static str,
    placement: Placement,
    solved: Solved,
}

fn witness_to_json(witness: &Schedule) -> Value {
    Value::Arr(
        witness
            .lanes
            .iter()
            .map(|lane| {
                obj([
                    ("lane", lane.name.as_str().into()),
                    (
                        "ops",
                        Value::Arr(lane.ops.iter().map(|op| op.to_string().into()).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

fn item_to_json(item: &Item) -> Value {
    let s = &item.solved;
    let c = &s.certificate;
    let (witness_makespan, witness_optimal, witness) = match c {
        Certificate::Improvable {
            witness_makespan,
            witness_optimal,
            witness,
            ..
        } => (
            Value::Num(*witness_makespan as f64),
            Value::Bool(*witness_optimal),
            witness_to_json(witness),
        ),
        _ => (Value::Null, Value::Null, Value::Null),
    };
    obj([
        ("name", item.name.as_str().into()),
        ("kind", item.kind.into()),
        (
            "placement",
            match item.placement {
                Placement::ByClass => "by-class",
                Placement::Fixed => "fixed",
            }
            .into(),
        ),
        ("status", c.status().into()),
        (
            "baseline_makespan",
            Value::Num(c.baseline_makespan() as f64),
        ),
        ("best_makespan", Value::Num(c.best_makespan() as f64)),
        ("lower_bound", Value::Num(s.lower_bound as f64)),
        ("optimal", Value::Bool(s.is_optimal())),
        ("witness_makespan", witness_makespan),
        ("witness_optimal", witness_optimal),
        ("witness", witness),
        ("nodes", Value::Num(s.nodes as f64)),
        ("memo_hits", Value::Num(s.memo_hits as f64)),
        ("pruned", Value::Num(s.pruned as f64)),
        ("delta_rescored", Value::Num(s.delta_rescored as f64)),
        (
            "delta_full_equivalent",
            Value::Num(s.delta_full_equivalent as f64),
        ),
        ("delta_checks", Value::Num(s.delta_checks as f64)),
    ])
}

fn item_to_human(item: &Item) -> String {
    let s = &item.solved;
    match &s.certificate {
        Certificate::Optimal { makespan } => format!(
            "{}: makespan {makespan} is OPTIMAL (lower bound {}, {} nodes)\n",
            item.name, s.lower_bound, s.nodes
        ),
        Certificate::Improvable {
            baseline,
            witness_makespan,
            witness_optimal,
            witness,
        } => {
            let mut out = format!(
                "{}: makespan {baseline} is IMPROVABLE -> witness {witness_makespan}{} \
                 (lower bound {}, {} nodes)\n",
                item.name,
                if *witness_optimal {
                    " (proven optimal)"
                } else {
                    ""
                },
                s.lower_bound,
                s.nodes
            );
            for lane in &witness.lanes {
                let ops: Vec<String> = lane.ops.iter().map(|op| op.to_string()).collect();
                out.push_str(&format!("  {}: {}\n", lane.name, ops.join(" ")));
            }
            out
        }
        Certificate::Unknown { lower, upper } => format!(
            "{}: budget exhausted, optimum in [{lower}, {upper}] ({} nodes)\n",
            item.name, s.nodes
        ),
    }
}

fn run(shape: &Shape, budget: &Budget) -> Result<Vec<Item>, String> {
    match shape {
        Shape::Order {
            layers,
            k,
            sync,
            policy,
        } => {
            let p = UniformProblem::new(*layers, *k, *sync).map_err(|e| e.to_string())?;
            let (_, solved) = certify_order(&p.graph, &p.order, &p.cost, *policy, budget)
                .map_err(|e| e.to_string())?;
            Ok(vec![Item {
                name: p.name,
                kind: "order",
                placement: Placement::ByClass,
                solved,
            }])
        }
        Shape::Bundle {
            path,
            schedule,
            policy,
        } => {
            let (bundle, graph) = ScheduleBundle::load(path)?;
            let entries = bundle.entries(schedule.as_deref())?;
            entries
                .map(|(name, entry)| {
                    // Backward orders of a data-parallel graph certify
                    // against the link lane the engine would add.
                    let (kind, solved) = match &entry {
                        Entry::Backward(backward) => (
                            "order",
                            certify_order(&graph, backward, &UnitCost, *policy, budget)
                                .map(|(_, s)| s),
                        ),
                        Entry::Order(s) => (
                            "order",
                            certify_with(&graph, s, &UnitCost, Placement::ByClass, budget),
                        ),
                        Entry::Schedule(s) => (
                            "schedule",
                            certify_with(&graph, s, &UnitCost, Placement::ByClass, budget),
                        ),
                    };
                    Ok(Item {
                        name: name.to_string(),
                        kind,
                        placement: Placement::ByClass,
                        solved: solved.map_err(|e| format!("{name}: {e}"))?,
                    })
                })
                .collect()
        }
        Shape::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => {
            let (graph, schedule) =
                ooo_core::pipeline::op_level_schedule(*layers, *devices, *strategy, *group);
            // Device placement is part of the pipeline strategy: certify
            // the per-lane orderings only.
            let solved = certify_with(&graph, &schedule, &UnitCost, Placement::Fixed, budget)
                .map_err(|e| e.to_string())?;
            Ok(vec![Item {
                name: format!("{}(l={layers}, d={devices}, g={group})", strategy.label()),
                kind: "pipeline",
                placement: Placement::Fixed,
                solved,
            }])
        }
    }
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let shape = Shape::read(&p)?;
        let budget = p
            .count("--budget")?
            .map_or_else(Budget::default, Budget::nodes);
        let items = run(&shape, &budget)?;
        // A proven-improvable schedule is a finding; optimal and
        // budget-exhausted certificates are clean runs.
        p.report(
            &items,
            |i| item_to_json(i).to_pretty(),
            item_to_human,
            |i| matches!(i.solved.certificate, Certificate::Improvable { .. }),
        )
    })
}
