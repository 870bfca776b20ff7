//! Emits the certification trajectory benchmark as JSON
//! (`BENCH_cert.json`): heuristic/tuned/certified makespans, wall
//! times, and the delta-vs-full evaluation speedup over seeds 1–10.

use ooo_bench::cert_trajectory;
use ooo_core::cli::{mode, Spec, OUT};
use std::process::ExitCode;

const USAGE: &str = "usage: cert-bench [--out PATH]\n\
  Runs the heuristic -> tuned -> certified pipeline over seeds 1-10\n\
  and prints the BENCH_cert.json document (or writes it to PATH).";

const SPEC: Spec = Spec {
    tool: "cert-bench",
    usage: USAGE,
    modes: &[mode("", &[OUT], &[], false)],
};

fn main() -> ExitCode {
    SPEC.run(|p| {
        let rows = cert_trajectory::run_default();
        p.emit(&(cert_trajectory::to_json(&rows).to_pretty() + "\n"))?;
        Ok(ExitCode::SUCCESS)
    })
}
