//! Emits the scale sweep as JSON (`BENCH_scale.json`): timings of every
//! rewritten hot path against its frozen pre-refactor reference at
//! 10/100/1000 stages × 8/64/512 workers, each pair asserted
//! output-identical before it is timed.
//!
//! `--smoke` runs the small deterministic points and omits the timing
//! fields, so two runs must produce byte-identical output — CI runs it
//! twice and `cmp`s.

use ooo_bench::scale;
use ooo_core::cli::{mode, Spec, OUT};
use std::process::ExitCode;

const USAGE: &str = "usage: scale-bench [--smoke] [--out PATH]\n\
  Runs the 10/100/1000-stage scale sweep and prints the\n\
  BENCH_scale.json document (or writes it to PATH). With --smoke,\n\
  runs the small points only and emits just the deterministic\n\
  differential fields (byte-identical across runs).";

const SPEC: Spec = Spec {
    tool: "scale-bench",
    usage: USAGE,
    modes: &[mode("", &[OUT], &["--smoke"], false)],
};

fn main() -> ExitCode {
    SPEC.run(|p| {
        let smoke = p.switch("--smoke");
        let points = if smoke {
            scale::smoke_points()
        } else {
            scale::sweep_points()
        };
        let rows = scale::run_sweep(&points);
        p.emit(&(scale::to_json(&rows, !smoke).to_pretty() + "\n"))?;
        Ok(ExitCode::SUCCESS)
    })
}
