//! Emits the memory-ledger benchmark as JSON (`BENCH_mem.json`):
//! OM401 early-free peak savings across the zoo and the peak/makespan
//! trade of memory-capped tuning.

use ooo_bench::mem;
use ooo_core::cli::{mode, Spec, OUT};
use std::process::ExitCode;

const USAGE: &str = "usage: mem-bench [--smoke] [--out PATH]\n\
  Runs the static memory-ledger scenarios (early-free savings and the\n\
  memory-capped tuning sweep) and prints the BENCH_mem.json document\n\
  (or writes it to PATH). --smoke runs small sizes and omits wall\n\
  times, so its output is byte-identical across runs.";

const SPEC: Spec = Spec {
    tool: "mem-bench",
    usage: USAGE,
    modes: &[mode("", &[OUT], &["--smoke"], false)],
};

fn main() -> ExitCode {
    SPEC.run(|p| {
        let smoke = p.switch("--smoke");
        let sizes = if smoke {
            mem::smoke_sizes()
        } else {
            mem::bench_sizes()
        };
        let (early, caps) = mem::run_bench(&sizes);
        p.emit(&(mem::to_json(&early, &caps, !smoke).to_pretty() + "\n"))?;
        Ok(ExitCode::SUCCESS)
    })
}
