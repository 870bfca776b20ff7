//! Emits the serving-layer benchmark as JSON (`BENCH_serve.json`):
//! request throughput, degradation-tier latencies, and the cache-hit
//! speedup over a cold full-tier tune.

use ooo_bench::serve;
use ooo_core::cli::{mode, Spec, OUT};
use std::process::ExitCode;

const USAGE: &str = "usage: serve-bench [--smoke] [--out PATH]\n\
  Drives the in-process ooo-serve daemon through the benchmark\n\
  scenarios and prints the BENCH_serve.json document (or writes it\n\
  to PATH). --smoke runs small sizes and omits wall times, so its\n\
  output is byte-identical across runs.";

const SPEC: Spec = Spec {
    tool: "serve-bench",
    usage: USAGE,
    modes: &[mode("", &[OUT], &["--smoke"], false)],
};

fn main() -> ExitCode {
    SPEC.run(|p| {
        let smoke = p.switch("--smoke");
        let sizes = if smoke {
            serve::smoke_sizes()
        } else {
            serve::bench_sizes()
        };
        let rows = serve::run_bench(&sizes);
        p.emit(&(serve::to_json(&rows, !smoke).to_pretty() + "\n"))?;
        Ok(ExitCode::SUCCESS)
    })
}
