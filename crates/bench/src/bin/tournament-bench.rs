//! Emits the strategy tournament as JSON (`BENCH_tournament.json`):
//! every data-parallel zoo strategy over every bracket network under
//! the homogeneous and heterogeneous device mixes, each cell OV-clean,
//! certified at tolerance 0, and memory-reconciled.
//!
//! Every reported number is a deterministic simulated time, so two runs
//! produce byte-identical output in both modes — CI runs `--smoke`
//! twice and `cmp`s. `--strategy NAME` restricts the emitted cells for
//! quick inspection (the full group still runs; winners need the whole
//! field).

use ooo_bench::tournament;
use ooo_core::cli::{mode, Fail, Spec, OUT};
use std::process::ExitCode;

const USAGE: &str = "usage: tournament-bench [--smoke] [--strategy NAME] [--out PATH]\n\
\x20      tournament-bench --bundle PATH\n\
  Runs the strategy tournament (networks x strategies x device mixes)\n\
  and prints the BENCH_tournament.json document (or writes it to PATH).\n\
  With --smoke, runs the small bracket. With --strategy NAME, emits\n\
  only that strategy's cells. Output is byte-identical across runs.\n\
  With --bundle PATH, instead exports every data-parallel zoo\n\
  strategy's schedule as a ScheduleBundle for the analysis CLIs.";

const SPEC: Spec = Spec {
    tool: "tournament-bench",
    usage: USAGE,
    modes: &[mode(
        "",
        &[&["--strategy", "--bundle"], OUT],
        &["--smoke"],
        false,
    )],
};

/// Exports one schedule per data-parallel zoo strategy over a small
/// 8-layer graph as a [`ScheduleBundle`], so `ooo-advise bundle
/// --schedule NAME` (and the other bundle consumers) can smoke each
/// strategy from the shell.
fn export_bundle(path: &str) -> Result<(), Fail> {
    use ooo_cluster::strategy::{zoo, Shape};
    use ooo_core::cost::UnitCost;
    use ooo_core::export::ScheduleBundle;

    let shape = Shape::DataParallel { layers: 8 };
    let graph = shape
        .graph()
        .map_err(|e| format!("cannot build bundle graph: {e}"))?;
    let mut bundle = ScheduleBundle::new("strategy-zoo", &graph);
    for strat in zoo() {
        if !strat.applicable(shape) {
            continue;
        }
        let generated = strat
            .generate(shape, &UnitCost)
            .map_err(|e| format!("{} failed to generate: {e}", strat.name()))?;
        bundle
            .schedules
            .insert(strat.name().to_string(), generated.schedule);
    }
    let text = bundle
        .to_json()
        .map_err(|e| format!("bundle does not serialize: {e}"))?;
    std::fs::write(path, text).map_err(|e| Fail::Error(format!("cannot write {path}: {e}")))
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        if let Some(path) = p.text("--bundle") {
            export_bundle(path)?;
            return Ok(ExitCode::SUCCESS);
        }
        let strategy = p.text("--strategy");
        if let Some(name) = strategy {
            if ooo_cluster::strategy::strategy_by_name(name).is_none() {
                return Err(Fail::Error(format!(
                    "unknown strategy {name}; known: {}",
                    ooo_cluster::strategy::strategy_names().join(", ")
                )));
            }
        }
        let bracket = if p.switch("--smoke") {
            tournament::smoke_bracket()
        } else {
            tournament::bracket()
        };
        let mut t = tournament::run(&bracket);
        if let Some(name) = strategy {
            t.cells.retain(|c| c.strategy == name);
        }
        p.emit(&(tournament::to_json(&t).to_pretty() + "\n"))?;
        Ok(ExitCode::SUCCESS)
    })
}
