//! `ooo-lint` — lint JSON-exported schedule bundles.
//!
//! Reads a [`ScheduleBundle`] document (see `ooo_core::export`), runs the
//! `ooo-verify` analyzer over every order and schedule in it (or a single
//! named one), and prints the findings — human-readable by default,
//! machine-readable with `--json`.
//!
//! ```text
//! ooo-lint bundle.json [--schedule NAME] [--budget BYTES] [--partial] [--json] [--out FILE]
//! ```
//!
//! Exit status: `0` when every checked schedule is clean (warnings
//! allowed), `1` when any error-severity rule fired, `2` on usage or I/O
//! problems.

use ooo_core::cli::{mode, Spec, OUT};
use ooo_core::export::{diagnostics_to_json, ScheduleBundle};
use ooo_verify::{Verifier, VerifyConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-lint <bundle.json> [--schedule NAME] [--budget BYTES] \
                     [--partial] [--json] [--out FILE]";

const SPEC: Spec = Spec {
    tool: "ooo-lint",
    usage: USAGE,
    modes: &[mode(
        "",
        &[&["--schedule", "--budget"], OUT],
        &["--partial", "--json"],
        true,
    )],
};

fn main() -> ExitCode {
    SPEC.run(|p| {
        let path = p.required_positional()?;
        let verifier_config = VerifyConfig {
            require_complete: !p.switch("--partial"),
            memory_budget: p.bytes("--budget")?,
            ..VerifyConfig::default()
        };
        // Lenient parse: a bundle whose schedule is broken must still
        // load so the analyzer can explain what is wrong with it.
        let (bundle, graph) = ScheduleBundle::load(path)?;
        let targets = bundle.flat_entries(p.text("--schedule"))?;
        let verifier = Verifier::new(&graph).with_config(verifier_config);
        let reports: Vec<_> = targets
            .map(|(name, schedule)| (name, verifier.verify(&schedule)))
            .collect();
        p.report(
            &reports,
            |(name, r)| diagnostics_to_json(name, &r.to_records()),
            |(name, r)| format!("{name}: {r}"),
            |(_, r)| r.has_errors(),
        )
    })
}
