//! `ooo-memcheck` — static memory-lifetime analysis of schedules.
//!
//! Runs the exact multi-lane live/peak ledger (`ooo_verify::mem`) and
//! the OM-series lifetime rules over every order and schedule of a
//! JSON-exported [`ScheduleBundle`], or over a synthetic reverse-first-k
//! realization built in-process:
//!
//! ```text
//! ooo-memcheck bundle <bundle.json> [--schedule NAME] [--budget BYTES]
//!                     [--baseline] [--json] [--out FILE]
//! ooo-memcheck order --layers N [--k K] [--sync S] [--budget BYTES]
//!                    [--baseline] [--json] [--out FILE]
//! ```
//!
//! `--budget BYTES` arms the `OM301` peak-over-budget rule; `--baseline`
//! arms the `OM501` reorder-inflates-peak comparison against the
//! in-order schedule. Exit status: `0` when no OM rule fired, `1` when
//! any finding (error or advice) fired, `2` on usage or I/O problems.

use ooo_core::cli::{mode, Shape, Spec, BUNDLE, ORDER, OUT};
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::UniformProblem;
use ooo_core::schedule::Schedule;
use ooo_core::TrainGraph;
use ooo_verify::mem::{buffer_name, check_schedule, MemAnalysis, MemCheckOptions};
use std::borrow::Cow;
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-memcheck bundle <bundle.json> [--schedule NAME] \
                     [--budget BYTES] [--baseline] [--json] [--out FILE]\n\
                     \x20      ooo-memcheck order --layers N [--k K] [--sync S] \
                     [--budget BYTES] [--baseline] [--json] [--out FILE]";

const BUDGET: &[&str] = &["--budget"];
const SWITCHES: &[&str] = &["--baseline", "--json"];

const SPEC: Spec = Spec {
    tool: "ooo-memcheck",
    usage: USAGE,
    modes: &[
        mode("bundle", &[BUNDLE, BUDGET, OUT], SWITCHES, true),
        mode("order", &[ORDER, BUDGET, OUT], SWITCHES, false),
    ],
};

/// One analyzed target rendered to the memcheck JSON document: the
/// ledger summary plus every OM finding.
fn analysis_to_json(name: &str, analysis: &MemAnalysis) -> String {
    let ledger = &analysis.ledger;
    let diags: Vec<Value> = analysis
        .diagnostics
        .iter()
        .map(|d| {
            let r = d.to_record();
            obj([
                ("rule", r.rule.as_str().into()),
                ("severity", r.severity.as_str().into()),
                (
                    "ops",
                    Value::Arr(r.ops.iter().map(|o| o.to_string().into()).collect()),
                ),
                (
                    "lanes",
                    Value::Arr(r.lanes.iter().map(|l| l.as_str().into()).collect()),
                ),
                ("message", r.message.as_str().into()),
            ])
        })
        .collect();
    obj([
        ("schedule", name.into()),
        ("initial_bytes", Value::Num(ledger.initial as f64)),
        ("peak_bytes", Value::Num(ledger.peak as f64)),
        ("peak_at", Value::Num(ledger.peak_at as f64)),
        (
            "resident_at_peak",
            Value::Arr(
                ledger
                    .resident_at_peak
                    .iter()
                    .map(|&b| buffer_name(b).into())
                    .collect(),
            ),
        ),
        ("final_bytes", Value::Num(ledger.final_usage as f64)),
        ("diagnostics", Value::Arr(diags)),
    ])
    .to_pretty()
}

fn analysis_to_human(name: &str, analysis: &MemAnalysis) -> String {
    let ledger = &analysis.ledger;
    let mut s = format!(
        "{name}: peak {} bytes at t={} (initial {}, final {})\n",
        ledger.peak, ledger.peak_at, ledger.initial, ledger.final_usage
    );
    if analysis.diagnostics.is_empty() {
        s.push_str("  clean: no findings\n");
    }
    for d in &analysis.diagnostics {
        s.push_str(&format!("  {d}\n"));
    }
    s
}

fn check<'a, C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    opts: &MemCheckOptions,
    targets: impl Iterator<Item = (&'a str, Cow<'a, Schedule>)>,
) -> Result<Vec<(String, MemAnalysis)>, String> {
    targets
        .map(
            |(name, schedule)| match check_schedule(graph, &schedule, cost, opts) {
                Ok(a) => Ok((name.to_string(), a)),
                Err(e) => Err(format!("cannot analyze {name:?}: {e}")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let opts = MemCheckOptions {
            budget: p.bytes("--budget")?,
            plan: None,
            baseline: p.switch("--baseline"),
        };
        let analyses = match Shape::read(&p)? {
            Shape::Bundle { path, schedule, .. } => {
                // Lenient parse: a bundle whose schedule is broken must
                // still load so the lifetime rules can attribute what is
                // wrong.
                let (bundle, graph) = ScheduleBundle::load(&path)?;
                let targets = bundle.flat_entries(schedule.as_deref())?;
                check(&graph, &UnitCost, &opts, targets)?
            }
            Shape::Order {
                layers,
                k,
                sync,
                policy,
            } => {
                let p = UniformProblem::new(layers, k, sync)
                    .map_err(|e| format!("cannot build reverse-first-{k}: {e}"))?;
                let realized =
                    ooo_verify::predict::datapar_schedule(&p.graph, &p.order, &p.cost, policy)
                        .map_err(|e| format!("cannot realize the order: {e}"))?;
                let target = (p.name.as_str(), Cow::Owned(realized));
                check(&p.graph, &p.cost, &opts, std::iter::once(target))?
            }
            Shape::Pipeline { .. } => return Err(p.usage()),
        };
        p.report(
            &analyses,
            |(name, a)| analysis_to_json(name, a),
            |(name, a)| analysis_to_human(name, a),
            |(_, a)| !a.diagnostics.is_empty(),
        )
    })
}
