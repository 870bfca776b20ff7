//! Byte-for-byte goldens of the cluster engines as their front ends
//! print them: `figures` tables, `ooo-trace` timelines and the
//! `ooo-chaos` campaign report.
//!
//! The conformance suites check double-run identity and inequalities;
//! this one pins the exact numbers the engines produce. The figure ids
//! below are deterministic and print the same bytes in debug and
//! release builds. An `ooo-trace export` is 50-560 KB, so each is pinned
//! by its byte length and FNV-1a hash; its `summarize` text is pinned in
//! full. The goldens live in `tests/goldens/engines/`.
//!
//! On a mismatch the test writes the actual transcript to the system
//! temp dir (`<golden>.actual`) and names the first section that
//! differs. After a deliberate output change, review that file and copy
//! it over the golden.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The packages owning the binaries under golden: `ooo-cluster` owns
/// `ooo-trace`, `ooo-bench` owns `figures`, `ooo-faults` owns
/// `ooo-chaos`.
const PACKAGES: [&str; 3] = ["ooo-cluster", "ooo-bench", "ooo-faults"];

/// The deterministic `figures` ids, printed in one run.
const FIGURES: &str =
    "fig7 fig8 fig9 fig10 fig11a fig11b sec6 sec82 sec83 ablations tracemetrics chaosrecovery";

/// Every `ooo-trace` configuration: each engine of each system.
const TRACE_CASES: &[&str] = &[
    "--system single --engine tf --batch 32",
    "--system single --engine xla --batch 32",
    "--system single --engine nimble --batch 32",
    "--system single --engine ooo-xla-opt1 --batch 32",
    "--system single --engine ooo-xla --batch 32",
    "--system datapar --comm horovod",
    "--system datapar --comm byteps",
    "--system datapar --comm ooo-byteps",
    "--system pipeline --strategy gpipe",
    "--system pipeline --strategy pipedream",
    "--system pipeline --strategy ooo-pipe2",
    "--system hybrid",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/engines")
}

/// The directory of the binaries, rebuilt once per test process: the
/// root package's integration tests do not build other crates'
/// binaries, and a stale binary would be compared instead.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-q", "--bins"])
            .args(PACKAGES.iter().flat_map(|p| ["-p", p]))
            .status()
            .expect("cargo build runs");
        assert!(status.success(), "building the binaries failed");
        let exe = std::env::current_exe().expect("test executable path");
        exe.parent()
            .and_then(|p| p.parent())
            .expect("target/debug dir")
            .to_path_buf()
    })
}

fn run(name: &str, args: &str) -> Output {
    Command::new(bin_dir().join(name))
        .args(args.split(' '))
        .output()
        .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"))
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("terminated by signal")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares `actual` with the golden file section by section and panics
/// naming the first differing section.
fn check(golden: &str, actual: &str) {
    let expected = std::fs::read_to_string(golden_dir().join(golden)).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dump = std::env::temp_dir().join(format!("{golden}.actual"));
    std::fs::write(&dump, actual).expect("write the actual transcript");
    let sections = |s: &str| -> Vec<String> { s.split("\n\n").map(str::to_string).collect() };
    let (want, got) = (sections(&expected), sections(actual));
    let first = want
        .iter()
        .zip(&got)
        .find(|(w, g)| w != g)
        .map(|(w, g)| format!("expected:\n{w}\n\ngot:\n{g}"))
        .unwrap_or_else(|| format!("{} sections expected, {} produced", want.len(), got.len()));
    panic!(
        "{golden} differs; full transcript in {}\n{first}",
        dump.display()
    );
}

#[test]
fn figures_match_the_golden() {
    let out = run("figures", FIGURES);
    assert_eq!(exit_code(&out), 0, "figures failed");
    check("figures.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn trace_exports_and_summaries_match_the_golden() {
    let mut transcript = String::new();
    for args in TRACE_CASES {
        let export = run("ooo-trace", &format!("export {args}"));
        let summary = run("ooo-trace", &format!("summarize {args}"));
        transcript.push_str(&format!(
            "### {args}\nexport: exit {}, {} bytes, fnv1a {:016x}\nsummarize: exit {}\n{}{}\n",
            exit_code(&export),
            export.stdout.len(),
            fnv1a(&export.stdout),
            exit_code(&summary),
            String::from_utf8_lossy(&summary.stdout),
            String::from_utf8_lossy(&summary.stderr),
        ));
    }
    check("traces.txt", &transcript);
}

#[test]
fn chaos_report_matches_the_golden() {
    let out = run("ooo-chaos", "run --seed 42 --scenarios 5 --json");
    assert_eq!(exit_code(&out), 0, "ooo-chaos failed");
    check("chaos.json", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn degenerate_configurations_exit_1_without_panicking() {
    for args in [
        "summarize --system datapar --gpus 0 --model ffnn16",
        "summarize --system datapar --batch 0 --model ffnn16",
        "summarize --system single --engine xla --batch 0 --model ffnn16",
        "summarize --system pipeline --batch 0 --model ffnn16",
        "summarize --system hybrid --replicas 0 --model ffnn16",
    ] {
        let out = run("ooo-trace", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 1, "ooo-trace {args}: {stderr}");
        assert!(out.stdout.is_empty(), "ooo-trace {args} printed a trace");
        assert!(
            stderr.contains("invalid configuration") && !stderr.contains("panicked"),
            "ooo-trace {args}: {stderr}"
        );
    }
}
