//! Byte-for-byte goldens of the request front ends: `ooo-tune`,
//! `ooo-cert`, `ooo-advise`, `ooo-lint`, `ooo-memcheck` and the
//! `ooo-serve` handlers, plus the argv usage-error surface of those
//! CLIs and of `ooo-trace`, `ooo-chaos` and `ooo-serve`.
//!
//! The other contract suites check exit codes and double-run identity;
//! this one pins the exact bytes. Each CLI case records its exit code,
//! stdout, stderr and (for `--out` cases) the written file; each serve
//! case records the payload status and body that
//! `ooo_serve::handlers::handle` returns for one command at one tier.
//! The goldens and the bundle fixtures they run on live in
//! `tests/goldens/front_end/`.
//!
//! On a mismatch the test writes the actual transcript next to the
//! system temp dir (`<golden>.actual`) and names the first case that
//! differs. After a deliberate output change, review that file and copy
//! it over the golden.

use ooo_backprop::serve::handlers::handle;
use ooo_backprop::serve::protocol::{parse_request, Limits, Tier};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The packages owning the CLIs under golden (`ooo-verify` owns
/// `ooo-advise`, `ooo-lint` and `ooo-memcheck`; `ooo-cluster` owns
/// `ooo-trace` and `ooo-faults` owns `ooo-chaos`).
const PACKAGES: [&str; 6] = [
    "ooo-tune",
    "ooo-cert",
    "ooo-verify",
    "ooo-cluster",
    "ooo-faults",
    "ooo-serve",
];

/// Marks the argument replaced by a scratch `--out` path.
const OUT: &str = "@OUT";

/// Every CLI case: binary and its space-separated argv (empty for a
/// bare invocation). Bundle paths are relative to the fixture
/// directory, which is the working directory of each run.
const CLI_CASES: &[(&str, &str)] = &[
    // ooo-tune: the three modes, human and JSON.
    ("ooo-tune", "order --layers 8 --k 0 --sync 3"),
    ("ooo-tune", "order --layers 8 --k 0 --sync 3 --json"),
    (
        "ooo-tune",
        "order --layers 8 --k 2 --sync 2 --policy fifo --restarts 1 --window 3 --out @OUT",
    ),
    (
        "ooo-tune",
        "order --layers 8 --k 0 --sync 3 --memory-cap 999999999 --json",
    ),
    ("ooo-tune", "order --layers 6 --k 0 --sync 3 --memory-cap 1"),
    (
        "ooo-tune",
        "pipeline --layers 8 --devices 4 --strategy gpipe",
    ),
    (
        "ooo-tune",
        "pipeline --layers 8 --devices 4 --strategy pipe2 --group 2 --json",
    ),
    ("ooo-tune", "pipeline --layers 6 --devices 2 --strategy mp"),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy modelparallel",
    ),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy pipedream",
    ),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy dapple",
    ),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy megatron --json",
    ),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy pipe1",
    ),
    (
        "ooo-tune",
        "pipeline --layers 6 --devices 2 --strategy gpipe --memory-cap 999999999",
    ),
    ("ooo-tune", "bundle datapar.json"),
    ("ooo-tune", "bundle datapar.json --policy fifo --json"),
    (
        "ooo-tune",
        "bundle datapar.json --memory-cap 999999999 --json",
    ),
    ("ooo-tune", "bundle flat.json --json --out @OUT"),
    ("ooo-tune", "bundle flat.json --schedule two_lane"),
    ("ooo-tune", "bundle zoo.json --restarts 0"),
    ("ooo-tune", "bundle zoo.json --schedule twobp --json"),
    ("ooo-tune", "bundle unsafe.json"),
    ("ooo-tune", "bundle unsafe.json --json"),
    ("ooo-tune", "bundle flat.json --schedule nope"),
    ("ooo-tune", "bundle empty.json"),
    (
        "ooo-tune",
        "pipeline --layers 4 --devices 2 --strategy bogus",
    ),
    ("ooo-tune", "order --layers 4 --policy bogus"),
    ("ooo-tune", "bundle flat.json --policy bogus"),
    // ooo-cert: the three modes, human and JSON.
    ("ooo-cert", "order --layers 3 --k 0 --sync 0"),
    ("ooo-cert", "order --layers 3 --k 0 --sync 2"),
    ("ooo-cert", "order --layers 3 --k 0 --sync 2 --json"),
    (
        "ooo-cert",
        "order --layers 4 --k 1 --sync 2 --policy fifo --budget 50 --json --out @OUT",
    ),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy gpipe",
    ),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy gpipe --json",
    ),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy megatron --budget 200",
    ),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy pipe2 --group 2",
    ),
    ("ooo-cert", "bundle datapar.json"),
    ("ooo-cert", "bundle datapar.json --policy fifo --json"),
    ("ooo-cert", "bundle flat.json --json"),
    ("ooo-cert", "bundle zoo.json --budget 2000"),
    (
        "ooo-cert",
        "bundle zoo.json --schedule twobp --budget 2000 --json",
    ),
    ("ooo-cert", "bundle unsafe.json"),
    ("ooo-cert", "bundle flat.json --schedule nope"),
    ("ooo-cert", "bundle empty.json"),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy bogus",
    ),
    ("ooo-cert", "order --layers 4 --policy bogus"),
    // ooo-advise: bundle and pipeline.
    ("ooo-advise", "bundle datapar.json"),
    ("ooo-advise", "bundle datapar.json --policy fifo --json"),
    ("ooo-advise", "bundle flat.json"),
    ("ooo-advise", "bundle zoo.json"),
    (
        "ooo-advise",
        "bundle zoo.json --schedule twobp --json --out @OUT",
    ),
    ("ooo-advise", "bundle unsafe.json"),
    ("ooo-advise", "bundle flat.json --schedule nope"),
    ("ooo-advise", "bundle empty.json"),
    ("ooo-advise", "bundle flat.json --policy bogus"),
    (
        "ooo-advise",
        "pipeline --layers 8 --devices 2 --strategy gpipe",
    ),
    (
        "ooo-advise",
        "pipeline --layers 8 --devices 2 --strategy pipe2 --json",
    ),
    (
        "ooo-advise",
        "pipeline --layers 6 --devices 2 --strategy megatron",
    ),
    (
        "ooo-advise",
        "pipeline --layers 6 --devices 2 --strategy mp",
    ),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 2 --strategy bogus",
    ),
    // ooo-lint and ooo-memcheck: the flat bundle walk.
    ("ooo-lint", "datapar.json --partial"),
    ("ooo-lint", "flat.json --json"),
    ("ooo-lint", "zoo.json"),
    ("ooo-lint", "unsafe.json"),
    ("ooo-lint", "empty.json"),
    ("ooo-lint", "empty.json --json"),
    ("ooo-lint", "flat.json --schedule nope"),
    ("ooo-lint", "datapar.json --schedule realized_k1 --partial"),
    ("ooo-memcheck", "bundle datapar.json"),
    ("ooo-memcheck", "bundle flat.json --json"),
    ("ooo-memcheck", "bundle zoo.json --schedule twobp"),
    ("ooo-memcheck", "bundle unsafe.json"),
    ("ooo-memcheck", "bundle empty.json"),
    ("ooo-memcheck", "bundle empty.json --json"),
    ("ooo-memcheck", "bundle flat.json --schedule nope"),
    ("ooo-memcheck", "order --layers 6 --k 2"),
    (
        "ooo-memcheck",
        "order --layers 6 --k 2 --budget 1 --json --baseline",
    ),
    // Usage errors: bare invocations, --help, unknown modes, missing,
    // dangling and malformed values, unknown and other-mode flags,
    // out-of-range problem shapes and stray positionals.
    ("ooo-tune", ""),
    ("ooo-tune", "--help"),
    ("ooo-tune", "nope"),
    ("ooo-tune", "order"),
    ("ooo-tune", "bundle"),
    ("ooo-tune", "pipeline --layers 4 --devices 2"),
    ("ooo-tune", "order --layers 4 --out"),
    ("ooo-tune", "order --layers x"),
    ("ooo-tune", "order --layers 4 --restarts x"),
    ("ooo-tune", "order --layers 4 --memory-cap x"),
    ("ooo-tune", "order --layers 4 --bogus"),
    ("ooo-tune", "bundle flat.json --bogus"),
    (
        "ooo-tune",
        "pipeline --layers 4 --devices 2 --strategy gpipe --bogus",
    ),
    ("ooo-tune", "order --layers 0"),
    ("ooo-tune", "order --layers 2 --k 3"),
    ("ooo-tune", "order --layers 3 --layers 0"),
    (
        "ooo-tune",
        "pipeline --layers 4 --devices 0 --strategy gpipe",
    ),
    (
        "ooo-tune",
        "pipeline --layers 4 --devices 2 --strategy gpipe --group 0",
    ),
    ("ooo-tune", "order --layers 4 --schedule two_lane"),
    ("ooo-tune", "bundle flat.json --layers 4"),
    (
        "ooo-tune",
        "pipeline --layers 4 --devices 2 --strategy gpipe --k 1",
    ),
    ("ooo-tune", "bundle flat.json extra.json"),
    ("ooo-tune", "order --layers 4 extra"),
    ("ooo-cert", ""),
    ("ooo-cert", "--help"),
    ("ooo-cert", "nope"),
    ("ooo-cert", "order"),
    ("ooo-cert", "bundle"),
    ("ooo-cert", "pipeline --layers 4 --devices 2"),
    ("ooo-cert", "order --layers 4 --out"),
    ("ooo-cert", "order --layers x"),
    ("ooo-cert", "order --layers 4 --budget x"),
    ("ooo-cert", "order --layers 4 --bogus"),
    ("ooo-cert", "bundle flat.json --bogus"),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy gpipe --bogus",
    ),
    ("ooo-cert", "order --layers 0"),
    ("ooo-cert", "order --layers 2 --k 3"),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 0 --strategy gpipe",
    ),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy gpipe --group 0",
    ),
    ("ooo-cert", "order --layers 4 --schedule two_lane"),
    ("ooo-cert", "bundle flat.json --layers 4"),
    (
        "ooo-cert",
        "pipeline --layers 4 --devices 2 --strategy gpipe --sync 1",
    ),
    ("ooo-cert", "bundle flat.json extra.json"),
    ("ooo-advise", ""),
    ("ooo-advise", "--help"),
    ("ooo-advise", "order --layers 4"),
    ("ooo-advise", "bundle"),
    ("ooo-advise", "pipeline --layers 4 --devices 2"),
    ("ooo-advise", "bundle flat.json --out"),
    (
        "ooo-advise",
        "pipeline --layers x --devices 2 --strategy gpipe",
    ),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 2 --strategy gpipe --group x",
    ),
    ("ooo-advise", "bundle flat.json --bogus"),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 2 --strategy gpipe --bogus",
    ),
    (
        "ooo-advise",
        "pipeline --layers 0 --devices 2 --strategy gpipe",
    ),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 0 --strategy gpipe",
    ),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 2 --strategy gpipe --group 0",
    ),
    ("ooo-advise", "bundle flat.json --layers 4"),
    (
        "ooo-advise",
        "pipeline --layers 4 --devices 2 --strategy gpipe --schedule nope",
    ),
    ("ooo-advise", "bundle flat.json extra.json"),
    ("ooo-memcheck", ""),
    ("ooo-memcheck", "--help"),
    ("ooo-memcheck", "nope"),
    ("ooo-memcheck", "order"),
    ("ooo-memcheck", "bundle"),
    ("ooo-memcheck", "order --layers 4 --out"),
    ("ooo-memcheck", "order --layers x"),
    ("ooo-memcheck", "order --layers 4 --budget x"),
    ("ooo-memcheck", "order --layers 4 --bogus"),
    ("ooo-memcheck", "bundle flat.json --bogus"),
    ("ooo-memcheck", "order --layers 0"),
    ("ooo-memcheck", "order --layers 2 --k 3"),
    ("ooo-memcheck", "bundle flat.json --k 9"),
    ("ooo-memcheck", "bundle flat.json --layers 4 --sync 2"),
    ("ooo-memcheck", "order --layers 4 --schedule nope"),
    ("ooo-memcheck", "order --layers 4 --policy fifo"),
    ("ooo-memcheck", "bundle flat.json extra.json"),
    ("ooo-memcheck", "order --layers 4 extra"),
    ("ooo-lint", ""),
    ("ooo-lint", "--help"),
    ("ooo-lint", "--bogus"),
    ("ooo-lint", "flat.json --bogus"),
    ("ooo-lint", "flat.json --out"),
    ("ooo-lint", "flat.json --budget x"),
    ("ooo-lint", "flat.json extra.json"),
    ("ooo-lint", "flat.json --layers 4"),
    ("ooo-trace", ""),
    ("ooo-trace", "--help"),
    ("ooo-trace", "nope"),
    ("ooo-trace", "export"),
    ("ooo-trace", "export --bogus"),
    ("ooo-trace", "export --system single --batch x"),
    ("ooo-trace", "export --system single --out"),
    ("ooo-trace", "export flat.json --system single"),
    ("ooo-trace", "summarize a.json b.json"),
    ("ooo-chaos", ""),
    ("ooo-chaos", "--help"),
    ("ooo-chaos", "nope"),
    ("ooo-chaos", "run --bogus"),
    ("ooo-chaos", "run --seed x"),
    ("ooo-chaos", "run --scenarios x"),
    ("ooo-chaos", "run --scenarios 0"),
    ("ooo-chaos", "run --out"),
    ("ooo-chaos", "list extra"),
    ("ooo-serve", ""),
    ("ooo-serve", "--help"),
    ("ooo-serve", "--bogus"),
    ("ooo-serve", "--daemon --workers x"),
    ("ooo-serve", "--daemon --workers"),
    ("ooo-serve", "--daemon --retries x"),
    ("ooo-serve", "--oneshot --socket x"),
    ("ooo-serve", "--daemon --socket"),
    ("ooo-serve", "--daemon extra"),
];

/// Serve request bodies (without `id`) run at every tier. `@name`
/// stands for the inline bundle of fixture `name.json`.
const SERVE_CASES: &[&str] = &[
    r#""cmd":"order","layers":8,"k":0,"sync":3"#,
    r#""cmd":"order","layers":6,"k":1,"sync":2,"policy":"fifo""#,
    r#""cmd":"order","layers":8,"k":0,"sync":3,"budget":2"#,
    r#""cmd":"order","layers":8,"k":0,"sync":3,"memory_cap_bytes":999999999"#,
    r#""cmd":"order","layers":6,"k":0,"sync":3,"memory_cap_bytes":1"#,
    r#""cmd":"pipeline","layers":8,"devices":4,"strategy":"gpipe""#,
    r#""cmd":"pipeline","layers":8,"devices":4,"strategy":"pipe2","group":2"#,
    r#""cmd":"pipeline","layers":6,"devices":2,"strategy":"megatron""#,
    r#""cmd":"pipeline","layers":6,"devices":2,"strategy":"modelparallel""#,
    r#""cmd":"pipeline","layers":6,"devices":2,"strategy":"gpipe","memory_cap_bytes":999999999"#,
    r#""cmd":"cert","layers":3,"k":0,"sync":2"#,
    r#""cmd":"cert","layers":4,"k":1,"sync":2,"policy":"fifo","budget":50"#,
    r#""cmd":"cert","layers":3,"k":0,"sync":0,"memory_cap_bytes":5"#,
    r#""cmd":"bundle","bundle":@datapar"#,
    r#""cmd":"bundle","bundle":@datapar,"policy":"fifo","memory_cap_bytes":999999999"#,
    r#""cmd":"bundle","bundle":@flat"#,
    r#""cmd":"bundle","bundle":@flat,"schedule":"two_lane""#,
    r#""cmd":"bundle","bundle":@flat,"schedule":"nope""#,
    r#""cmd":"bundle","bundle":@zoo"#,
    r#""cmd":"bundle","bundle":@unsafe"#,
    r#""cmd":"bundle","bundle":@empty"#,
    // Requests the parser refuses.
    r#""cmd":"pipeline","layers":4,"devices":2,"strategy":"bogus""#,
    r#""cmd":"pipeline","layers":4,"devices":2,"strategy":7"#,
    r#""cmd":"order","layers":4,"policy":"bogus""#,
    r#""cmd":"cert","layers":4,"policy":3"#,
    r#""cmd":"bundle","bundle":@flat,"policy":"bogus""#,
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/front_end")
}

/// The directory of the CLI binaries, rebuilt first: the root
/// package's integration tests do not build other crates' binaries, and
/// a stale binary would be compared instead.
fn cli_dir() -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args(["build", "-q", "--bins"])
        .args(PACKAGES.iter().flat_map(|p| ["-p", p]))
        .status()
        .expect("cargo build runs");
    assert!(status.success(), "building the CLIs failed");
    let exe = std::env::current_exe().expect("test executable path");
    exe.parent()
        .and_then(|p| p.parent())
        .expect("target/debug dir")
        .to_path_buf()
}

/// Compares `actual` with the golden file section by section and panics
/// naming the first differing case.
fn check(golden: &str, actual: &str) {
    let expected = std::fs::read_to_string(golden_dir().join(golden)).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dump = std::env::temp_dir().join(format!("{golden}.actual"));
    std::fs::write(&dump, actual).expect("write the actual transcript");
    let sections = |s: &str| -> Vec<String> { s.split("\n### ").map(str::to_string).collect() };
    let (want, got) = (sections(&expected), sections(actual));
    let first = want
        .iter()
        .zip(&got)
        .find(|(w, g)| w != g)
        .map(|(w, g)| format!("expected:\n### {w}\n\ngot:\n### {g}"))
        .unwrap_or_else(|| format!("{} sections expected, {} produced", want.len(), got.len()));
    panic!(
        "{golden} differs; full transcript in {}\n{first}",
        dump.display()
    );
}

#[test]
fn cli_outputs_match_the_goldens() {
    let fixtures = golden_dir();
    let clis = cli_dir();
    let scratch = std::env::temp_dir().join(format!("ooo-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out_path = scratch.join("out.json");
    let out_arg = out_path.to_str().expect("utf-8 temp path");

    let mut transcript = String::new();
    for (name, args) in CLI_CASES {
        let _ = std::fs::remove_file(&out_path);
        let argv: Vec<&str> = args
            .split(' ')
            .filter(|a| !a.is_empty())
            .map(|a| if a == OUT { out_arg } else { a })
            .collect();
        let out = Command::new(clis.join(name))
            .args(&argv)
            .current_dir(&fixtures)
            .output()
            .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"));
        transcript.push_str(&format!(
            "### {name} {args}\nexit: {}\n--- stdout\n{}--- stderr\n{}",
            out.status.code().expect("CLI terminated by signal"),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        ));
        if argv.contains(&out_arg) {
            let written = std::fs::read_to_string(&out_path).unwrap_or_default();
            transcript.push_str(&format!("--- out\n{written}"));
        }
        transcript.push('\n');
    }
    let _ = std::fs::remove_dir_all(&scratch);
    check("cli.txt", &transcript);
}

#[test]
fn serve_payloads_match_the_goldens() {
    let fixtures = golden_dir();
    let inline = |body: &str| -> String {
        let mut line = body.to_string();
        for name in ["datapar", "flat", "zoo", "unsafe", "empty"] {
            let marker = format!("@{name}");
            if line.contains(&marker) {
                let text = std::fs::read_to_string(fixtures.join(format!("{name}.json")))
                    .expect("fixture bundle");
                let compact = ooo_backprop::core::json::Value::parse(&text)
                    .expect("fixture parses")
                    .to_compact();
                line = line.replace(&marker, &compact);
            }
        }
        format!("{{{line}}}")
    };

    let mut transcript = String::new();
    for body in SERVE_CASES {
        transcript.push_str(&format!("### {body}\n"));
        match parse_request(&inline(body), &Limits::default()) {
            Err(message) => transcript.push_str(&format!("parse error: {message}\n")),
            Ok(req) => {
                for tier in [Tier::Full, Tier::Greedy, Tier::Heuristic] {
                    let p = handle(&req.cmd, tier, req.budget, None, None, req.memory_cap, 0);
                    transcript.push_str(&format!(
                        "{}: {} {}\n",
                        tier.as_str(),
                        p.status.as_str(),
                        p.body
                    ));
                }
            }
        }
        transcript.push('\n');
    }
    check("serve.txt", &transcript);
}
