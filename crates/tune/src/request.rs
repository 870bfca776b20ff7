//! The tune-then-certify recipe behind `ooo-tune` and the `ooo-serve`
//! tuning commands.
//!
//! Every front end runs the same three steps on its input: compute the
//! certified floor of the input's op set and lane structure
//! ([`ooo_core::bounds::schedule_lower_bound`]), tune with that floor as
//! the early-exit target, and certify the winner (predicted makespan ==
//! simulated makespan). The front end only picks the base
//! [`TuneOptions`] (search effort, window, deadline, memory cap) and
//! renders the [`Outcome`]. This module owns the two rules in between:
//!
//! - completeness: the order and pipeline kinds cover their whole graph,
//!   while bundle schedules may be partial (engines whose updates are
//!   implicit), so the gate does not demand completeness for them;
//! - the floor is no early-exit target under a memory cap: an over-cap
//!   incumbent scores above any makespan floor.

use crate::order::{certify_order, tune_backward_order, KFamily};
use crate::pipeline::tune_pipeline;
use crate::{certify_schedule, tune_schedule, AppliedMove, Result, TuneOptions};
use ooo_core::bounds::schedule_lower_bound;
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::Entry;
use ooo_core::pipeline::{op_level_schedule, Strategy};
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_verify::predict::datapar_schedule;

/// One tuned and certified input.
#[derive(Debug)]
pub struct Outcome {
    /// `order`, `schedule` or `pipeline`.
    pub kind: &'static str,
    /// Predicted makespan of the input.
    pub baseline: SimTime,
    /// Predicted makespan of the winner.
    pub tuned: SimTime,
    /// Simulated makespan of the winner (equal to `tuned`).
    pub certified: SimTime,
    /// The certified floor of the input, fed to the tuner as its
    /// early-exit target.
    pub lower_bound: SimTime,
    /// Exact static ledger peak of the winner; present iff a memory cap
    /// was requested.
    pub peak: Option<u64>,
    /// The memory cap of the base options.
    pub cap: Option<u64>,
    /// Reverse-first-k depth of an order winner that is still a pure
    /// k-shape, or the modulo group of a pipeline winner.
    pub k: Option<usize>,
    /// The accepted move trajectory.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl Outcome {
    /// `true` when the certified makespan meets the floor: the winner is
    /// provably makespan-optimal for its op set and lane structure.
    pub fn proven_optimal(&self) -> bool {
        self.certified == self.lower_bound
    }

    /// `true` when the tuner strictly beat the input.
    pub fn improved(&self) -> bool {
        self.tuned < self.baseline
    }

    /// Whether the winner's peak landed under the cap; `None` without a
    /// cap.
    pub fn cap_met(&self) -> Option<bool> {
        Some(self.peak? <= self.cap?)
    }
}

/// `base` with the recipe's two rules applied.
fn options(base: &TuneOptions, require_complete: bool, floor: SimTime) -> TuneOptions {
    TuneOptions {
        require_complete,
        target: base.memory_cap.is_none().then_some(floor),
        ..base.clone()
    }
}

/// Tunes and certifies a data-parallel backward order (reverse-first-k
/// moves, realized against the engine's link lane under `policy`).
/// `k` is the input's reverse-first-k depth, when it has one.
///
/// # Errors
///
/// Realization, safety-gate and certification failures.
pub fn order<C: CostModel + Sync>(
    graph: &TrainGraph,
    backward: &[Op],
    k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    base: &TuneOptions,
) -> Result<Outcome> {
    let realized = datapar_schedule(graph, backward, cost, policy)?;
    let floor = schedule_lower_bound(graph, cost, &realized);
    let t = tune_backward_order(
        graph,
        backward,
        k,
        cost,
        policy,
        KFamily::ReverseFirstK,
        &options(base, true, floor),
    )?;
    let certified = certify_order(graph, &t.order, cost, policy)?;
    Ok(Outcome {
        kind: "order",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: t.k,
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

/// Tunes and certifies a multi-lane schedule under unit cost. The
/// schedule may be partial.
///
/// # Errors
///
/// Safety-gate and certification failures.
pub fn schedule(graph: &TrainGraph, schedule: &Schedule, base: &TuneOptions) -> Result<Outcome> {
    let floor = schedule_lower_bound(graph, &UnitCost, schedule);
    let t = tune_schedule(graph, schedule, &UnitCost, &options(base, false, floor))?;
    let certified = certify_schedule(graph, &t.schedule, &UnitCost)?;
    Ok(Outcome {
        kind: "schedule",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: None,
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

/// Tunes and certifies one pipeline strategy's op-level schedule under
/// unit cost.
///
/// # Errors
///
/// Safety-gate and certification failures.
pub fn pipeline(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    base: &TuneOptions,
) -> Result<Outcome> {
    let (graph, input) = op_level_schedule(layers, devices, strategy, group);
    let floor = schedule_lower_bound(&graph, &UnitCost, &input);
    let t = tune_pipeline(
        layers,
        devices,
        strategy,
        group,
        &UnitCost,
        &options(base, true, floor),
    )?;
    let certified = certify_schedule(&t.graph, &t.schedule, &UnitCost)?;
    Ok(Outcome {
        kind: "pipeline",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: Some(t.group),
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

/// Tunes and certifies one bundle entry under unit cost: a backward
/// order as an [`order`], anything else as a [`schedule`].
///
/// # Errors
///
/// As [`order`] and [`schedule`].
pub fn entry(
    graph: &TrainGraph,
    entry: &Entry<'_>,
    policy: CommPolicy,
    base: &TuneOptions,
) -> Result<Outcome> {
    match entry {
        Entry::Backward(backward) => order(graph, backward, None, &UnitCost, policy, base),
        Entry::Order(s) => schedule(graph, s, base),
        Entry::Schedule(s) => schedule(graph, s, base),
    }
}
