//! `ooo-advise` — static performance analysis of schedules.
//!
//! Two modes:
//!
//! ```text
//! ooo-advise bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer] [--json] [--out FILE]
//! ooo-advise pipeline --layers N --devices D --strategy NAME [--group G] [--json] [--out FILE]
//! ```
//!
//! `bundle` runs the [`ooo_verify::perf::PerfAdvisor`] over every order
//! and schedule in a JSON-exported [`ScheduleBundle`]; flat orders on a
//! data-parallel graph get the full reverse first-k analysis under the
//! chosen link policy. `pipeline` renders one strategy's op-level
//! schedule and evaluates it against the OOO-Pipe2 bubble bound.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when no advisory fired, `1` when at least one did, `2` on usage,
//! I/O, or parse problems.

use ooo_core::cli::{mode, Shape, Spec, BUNDLE, JSON, OUT, PIPELINE, POLICY};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::{Entry, ScheduleBundle};
use ooo_core::json::{obj, Value};
use ooo_verify::perf::{advise_pipeline, PerfAdvisor, PerfReport};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-advise bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--json] [--out FILE]\n\
                     \x20      ooo-advise pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--json] [--out FILE]";

const SPEC: Spec = Spec {
    tool: "ooo-advise",
    usage: USAGE,
    modes: &[
        mode("bundle", &[BUNDLE, POLICY, OUT], JSON, true),
        mode("pipeline", &[PIPELINE, OUT], JSON, false),
    ],
};

fn gap_value(gap: Option<f64>) -> Value {
    match gap {
        None => Value::Null,
        Some(g) if g.is_infinite() => Value::Str("inf".to_string()),
        // Fixed precision keeps the document byte-stable.
        Some(g) => Value::Str(format!("{g:.3}")),
    }
}

fn report_to_json(name: &str, report: &PerfReport) -> Value {
    let advice: Vec<Value> = report
        .advice
        .iter()
        .map(|a| {
            obj([
                ("rule", a.diagnostic.rule.code().into()),
                ("severity", a.diagnostic.rule.severity().as_str().into()),
                (
                    "ops",
                    Value::Arr(
                        a.diagnostic
                            .ops
                            .iter()
                            .map(|o| Value::Str(o.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "lanes",
                    Value::Arr(
                        a.diagnostic
                            .lanes
                            .iter()
                            .map(|l| l.as_str().into())
                            .collect(),
                    ),
                ),
                ("message", a.diagnostic.message.as_str().into()),
                (
                    "suggestion",
                    match &a.suggestion {
                        Some(s) => Value::Str(s.describe()),
                        None => Value::Null,
                    },
                ),
            ])
        })
        .collect();
    obj([
        ("schedule", name.into()),
        (
            "predicted_makespan",
            Value::Num(report.predicted_makespan as f64),
        ),
        ("lower_bound", Value::Num(report.lower_bound as f64)),
        (
            "scheduled_lower_bound",
            Value::Num(report.scheduled_lower_bound as f64),
        ),
        ("proven_optimal", Value::Bool(report.proven_optimal)),
        ("optimality_gap", gap_value(report.optimality_gap)),
        ("advice", Value::Arr(advice)),
    ])
}

fn report_to_human(name: &str, report: &PerfReport) -> String {
    let gap = match report.optimality_gap {
        None => "n/a (partial)".to_string(),
        Some(g) if g.is_infinite() => "inf".to_string(),
        Some(g) => format!("{g:.3}"),
    };
    let mut s = format!(
        "{name}: predicted makespan {}, lower bound {}, gap {gap}{}\n",
        report.predicted_makespan,
        report.lower_bound,
        if report.proven_optimal {
            " (proven optimal)"
        } else {
            ""
        }
    );
    for a in &report.advice {
        s.push_str(&format!(
            "  {} [{}]: {}\n",
            a.diagnostic.rule.code(),
            a.diagnostic.rule.severity().as_str(),
            a.diagnostic.message
        ));
        if let Some(fix) = &a.suggestion {
            s.push_str(&format!("    fix: {}\n", fix.describe()));
        }
    }
    s
}

fn analyze_bundle(
    path: &str,
    wanted: Option<&str>,
    policy: CommPolicy,
) -> Result<Vec<(String, PerfReport)>, String> {
    let (bundle, graph) = ScheduleBundle::load(path)?;
    let advisor = PerfAdvisor::new(&graph);
    let entries = bundle.entries(wanted)?;
    entries
        .map(|(name, entry)| {
            let (what, report) = match &entry {
                Entry::Backward(backward) => ("order", advisor.analyze_order(backward, policy)),
                Entry::Order(s) => ("order", advisor.analyze(s)),
                Entry::Schedule(s) => ("schedule", advisor.analyze(s)),
            };
            let report = report.map_err(|e| format!("{what} {name:?}: {e}"))?;
            Ok((name.to_string(), report))
        })
        .collect()
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let reports = match Shape::read(&p)? {
            Shape::Pipeline {
                layers,
                devices,
                strategy,
                group,
            } => {
                let report = advise_pipeline(layers, devices, strategy, group)
                    .map_err(|e| format!("pipeline analysis failed: {e}"))?;
                vec![(strategy.label().to_string(), report)]
            }
            Shape::Bundle {
                path,
                schedule,
                policy,
            } => analyze_bundle(&path, schedule.as_deref(), policy)?,
            Shape::Order { .. } => return Err(p.usage()),
        };
        p.report(
            &reports,
            |(name, r)| report_to_json(name, r).to_pretty(),
            |(name, r)| report_to_human(name, r),
            |(_, r)| r.has_advice(),
        )
    })
}
