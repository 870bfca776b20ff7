//! `ooo-tune` — predictor-guided schedule autotuning.
//!
//! Three modes:
//!
//! ```text
//! ooo-tune order --layers N [--k K] [--sync NS] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune pipeline --layers N --devices D --strategy NAME [--group G]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ```
//!
//! `order` tunes a reverse-first-k backward order of a data-parallel
//! graph with uniform per-layer costs (`--sync` sets the `S[dW]`
//! duration). `bundle` tunes every order and schedule of a
//! JSON-exported [`ScheduleBundle`]. `pipeline` tunes one strategy's
//! op-level schedule under unit cost. Every winner is certified:
//! predicted makespan == simulated makespan, tolerance 0.
//!
//! `--memory-cap BYTES` turns the objective into *min makespan subject
//! to ledger peak <= cap* ([`TuneOptions::memory_cap`]): candidates over
//! the cap are rejected, and the output reports the winner's exact
//! static ledger peak.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when every input was tuned and certified (improved or already
//! optimal), `1` when an input schedule fails the `ooo-verify` safety
//! gate (the tuner refuses unsafe starting points), `2` on usage, I/O,
//! or parse problems.

use ooo_core::cli::{mode, Fail, Parsed, Shape, Spec, BUNDLE, JSON, ORDER, OUT, PIPELINE, POLICY};
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::UniformProblem;
use ooo_tune::request::{self, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-tune order --layers N [--k K] [--sync NS] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]";

/// The search knobs every mode shares: `--restarts`, `--window`
/// ([`TuneOptions::window`]) and `--memory-cap`
/// ([`TuneOptions::memory_cap`]).
const SEARCH: &[&str] = &["--restarts", "--window", "--memory-cap"];

const SPEC: Spec = Spec {
    tool: "ooo-tune",
    usage: USAGE,
    modes: &[
        mode("order", &[ORDER, POLICY, SEARCH, OUT], JSON, false),
        mode("bundle", &[BUNDLE, POLICY, SEARCH, OUT], JSON, true),
        mode("pipeline", &[PIPELINE, SEARCH, OUT], JSON, false),
    ],
};

fn search_options(p: &Parsed) -> Result<TuneOptions, Fail> {
    let base = TuneOptions::default();
    Ok(TuneOptions {
        restarts: p.count("--restarts")?.unwrap_or(base.restarts),
        window: p.count("--window")?,
        memory_cap: p.bytes("--memory-cap")?,
        ..base
    })
}

/// One input's result, ready for rendering.
enum Item {
    Tuned(String, Outcome),
    /// The input failed the safety gate; carries the fired rule codes.
    Unsafe {
        name: String,
        codes: Vec<String>,
    },
}

fn item_to_json(item: &Item) -> Value {
    match item {
        Item::Tuned(name, o) => obj([
            ("name", name.as_str().into()),
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
            (
                "moves",
                Value::Arr(
                    o.moves
                        .iter()
                        .map(|m| Value::Str(format!("{}: {}", m.kind.as_str(), m.description)))
                        .collect(),
                ),
            ),
            ("restarts_adopted", o.restarts_adopted.into()),
        ]),
        Item::Unsafe { name, codes } => obj([
            ("name", name.as_str().into()),
            ("kind", "unsafe".into()),
            (
                "diagnostics",
                Value::Arr(codes.iter().map(|c| c.as_str().into()).collect()),
            ),
        ]),
    }
}

fn item_to_human(item: &Item) -> String {
    match item {
        Item::Tuned(name, o) => {
            let mut s = format!(
                "{name}: baseline {} -> tuned {} (certified {}, lower bound {}, {})\n",
                o.baseline,
                o.tuned,
                o.certified,
                o.lower_bound,
                if o.proven_optimal() {
                    "proven optimal"
                } else if o.improved() {
                    "improved"
                } else {
                    "already optimal under the move set"
                }
            );
            if let (Some(p), Some(c)) = (o.peak, o.cap) {
                s.push_str(&format!(
                    "  ledger peak {p} bytes vs cap {c} ({})\n",
                    if p <= c { "met" } else { "exceeded" }
                ));
            }
            for m in &o.moves {
                s.push_str(&format!(
                    "  {} {} -> {}\n",
                    m.kind.as_str(),
                    m.description,
                    m.predicted
                ));
            }
            s
        }
        Item::Unsafe { name, codes } => format!(
            "{name}: input fails the safety gate ({}), refusing to tune\n",
            codes.join(", ")
        ),
    }
}

/// Error split: gate refusals become exit-1 items named `label`,
/// everything else aborts with exit 2.
fn item(label: &str, r: Result<(String, Outcome), Error>) -> Result<Item, String> {
    match r {
        Ok((name, o)) => Ok(Item::Tuned(name, o)),
        Err(Error::Unsafe(report)) => Ok(Item::Unsafe {
            name: label.to_string(),
            codes: report.rule_codes().iter().map(|c| c.to_string()).collect(),
        }),
        Err(e) => Err(format!("{label}: {e}")),
    }
}

fn run(shape: &Shape, base: &TuneOptions) -> Result<Vec<Item>, String> {
    match shape {
        Shape::Order {
            layers,
            k,
            sync,
            policy,
        } => {
            let r = UniformProblem::new(*layers, *k, *sync)
                .map_err(Error::from)
                .and_then(|p| {
                    request::order(&p.graph, &p.order, Some(*k), &p.cost, *policy, base)
                        .map(|o| (p.name, o))
                });
            Ok(vec![item("order", r)?])
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
                    let r = request::entry(&graph, &entry, *policy, base);
                    item(name, r.map(|o| (name.to_string(), o)))
                })
                .collect()
        }
        Shape::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => {
            let r = request::pipeline(*layers, *devices, *strategy, *group, base);
            Ok(vec![item(
                "pipeline",
                r.map(|o| (strategy.label().to_string(), o)),
            )?])
        }
    }
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let (shape, base) = (Shape::read(&p)?, search_options(&p)?);
        let items = run(&shape, &base)?;
        p.report(
            &items,
            |i| item_to_json(i).to_pretty(),
            item_to_human,
            |i| matches!(i, Item::Unsafe { .. }),
        )
    })
}
