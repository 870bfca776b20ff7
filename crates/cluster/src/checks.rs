//! Debug-build schedule verification hooks.
//!
//! Every schedule this crate hands to a simulator was produced by one of
//! the paper's algorithms; in debug builds (and in release builds with
//! the `verify` feature enabled) each one is re-checked by the
//! `ooo-verify` static analyzer and the static performance advisor
//! before use. A scheduler bug that races a gradient buffer or deadlocks
//! a pipeline then fails loudly at the source instead of producing a
//! silently wrong makespan. Plain release builds compile the hook to
//! nothing; the closure is never called.

/// Checks the schedule `build` returns with both analyzers:
///
/// - the verifier must find no error (`complete` demands every op of the
///   graph, as opposed to a partial schedule such as a backward pass);
/// - the performance advisor must not fail on it, and the gap it reports
///   must be a valid ratio (≥ 1, the makespan can never beat the lower
///   bound). Advisories themselves are informational and do not fail
///   the run.
#[cfg(any(debug_assertions, feature = "verify"))]
pub(crate) fn schedule_lazy<F>(build: F, complete: bool, what: &str)
where
    F: FnOnce() -> (ooo_core::TrainGraph, ooo_core::Schedule),
{
    use ooo_verify::perf::PerfAdvisor;
    use ooo_verify::{Verifier, VerifyConfig};
    let (graph, schedule) = build();
    let report = Verifier::new(&graph)
        .with_config(VerifyConfig {
            require_complete: complete,
            ..VerifyConfig::default()
        })
        .verify(&schedule);
    assert!(
        !report.has_errors(),
        "{what}: scheduler produced an unsafe schedule:\n{report}"
    );
    let report = PerfAdvisor::new(&graph)
        .analyze(&schedule)
        .unwrap_or_else(|e| panic!("{what}: performance analysis failed: {e}"));
    if let Some(gap) = report.optimality_gap {
        assert!(
            gap >= 1.0 - 1e-9,
            "{what}: predicted makespan {} beats the lower bound {} (gap {gap})",
            report.predicted_makespan,
            report.lower_bound
        );
    }
}

#[cfg(not(any(debug_assertions, feature = "verify")))]
pub(crate) fn schedule_lazy<F>(_build: F, _complete: bool, _what: &str)
where
    F: FnOnce() -> (ooo_core::TrainGraph, ooo_core::Schedule),
{
}
