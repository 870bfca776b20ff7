//! Tuning op-level pipeline-parallel schedules.
//!
//! [`tune_pipeline`] starts from a strategy's op-level schedule
//! ([`ooo_core::pipeline::op_level_schedule`]) and searches two move
//! families: `dW`-class relocations *within* a device lane (an op may
//! not change devices — the layer allocation is fixed by the strategy),
//! and *regrouping* — replacing the whole schedule by the same
//! strategy's rendering under a different modulo group, the knob behind
//! OOO-Pipe2's modulo allocation. For strategies whose allocation
//! ignores the group the regroup moves are no-ops and greedy descent
//! simply never accepts them.

use crate::{
    tune, AppliedMove, Objective, Relocation, RelocationProbe, Result, SearchSpace, TuneOptions,
};
use ooo_core::cost::CostModel;
use ooo_core::pipeline::{op_level_schedule, Strategy};
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use std::borrow::Cow;

/// The outcome of tuning one op-level pipeline schedule.
#[derive(Debug, Clone)]
pub struct TunedPipeline {
    /// The (group-independent) pipeline dependency graph.
    pub graph: TrainGraph,
    /// The tuned schedule.
    pub schedule: Schedule,
    /// The modulo group of the final schedule.
    pub group: usize,
    /// Predicted makespan of the input schedule.
    pub baseline: SimTime,
    /// Predicted makespan of the tuned schedule.
    pub predicted: SimTime,
    /// Static ledger peak of the tuned schedule; populated iff
    /// [`TuneOptions::memory_cap`] was set.
    pub peak: Option<u64>,
    /// The accepted move trajectory.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl TunedPipeline {
    /// `true` when the tuner strictly beat the baseline.
    pub fn improved(&self) -> bool {
        self.predicted < self.baseline
    }
}

#[derive(Clone)]
struct PipeState {
    schedule: Schedule,
    group: usize,
}

/// One move of the pipeline space.
#[derive(Debug, Clone, Copy)]
enum PipeMove {
    /// Re-render the strategy under modulo group `g`.
    Regroup(usize),
    /// An in-lane `dW`-class relocation.
    Relocate(Relocation),
}

struct PipeSpace<'g, C> {
    objective: Objective<'g, C>,
    layers: usize,
    devices: usize,
    strategy: Strategy,
    window: Option<usize>,
}

impl<C: CostModel> PipeSpace<'_, C> {
    fn regrouped(&self, group: usize) -> Schedule {
        op_level_schedule(self.layers, self.devices, self.strategy, group).1
    }
}

impl<C: CostModel + Sync> SearchSpace for PipeSpace<'_, C> {
    type State = PipeState;
    type Move = PipeMove;
    type Cost = C;

    fn objective(&self) -> &Objective<'_, C> {
        &self.objective
    }

    fn realize<'s>(&self, state: &'s PipeState) -> ooo_core::Result<Cow<'s, Schedule>> {
        Ok(Cow::Borrowed(&state.schedule))
    }

    /// Regroups under every other modulo group that renders a different
    /// schedule, then the in-lane relocations (ops stay on their device).
    fn moves(&self, state: &PipeState) -> Vec<PipeMove> {
        let mut out: Vec<PipeMove> = (1..=self.layers)
            .filter(|&g| g != state.group && self.regrouped(g) != state.schedule)
            .map(PipeMove::Regroup)
            .collect();
        out.extend(
            crate::schedule_relocations(self.objective.graph, &state.schedule, false, self.window)
                .into_iter()
                .map(PipeMove::Relocate),
        );
        out
    }

    fn apply(&self, state: &PipeState, mv: &PipeMove) -> PipeState {
        match mv {
            PipeMove::Regroup(g) => PipeState {
                schedule: self.regrouped(*g),
                group: *g,
            },
            PipeMove::Relocate(r) => PipeState {
                schedule: r.apply(&state.schedule),
                group: state.group,
            },
        }
    }

    fn describe(&self, state: &PipeState, mv: &PipeMove) -> String {
        match mv {
            PipeMove::Regroup(g) => format!("regroup modulo {g}"),
            PipeMove::Relocate(r) => r.describe(&state.schedule),
        }
    }

    /// Regroups replace the whole schedule and get the full predictor
    /// pass; the in-lane relocations are delta-probed on the incumbent
    /// ([`RelocationProbe`]).
    fn delta_scores(&self, state: &PipeState, moves: &[PipeMove]) -> Vec<Option<SimTime>> {
        let mut probe =
            RelocationProbe::new(self.objective.graph, self.objective.cost, &state.schedule);
        moves
            .iter()
            .map(|mv| match mv {
                PipeMove::Regroup(g) => self.objective.makespan(&self.regrouped(*g)),
                PipeMove::Relocate(r) => probe.score(r),
            })
            .collect()
    }
}

/// Tunes the op-level schedule of `strategy` over `layers` layers and
/// `devices` devices, starting from modulo group `group`.
///
/// # Errors
///
/// [`crate::Error::Unsafe`] when the strategy's own schedule fails the
/// safety gate; [`crate::Error::Core`] when it does not evaluate.
pub fn tune_pipeline<C: CostModel + Sync>(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    cost: &C,
    opts: &TuneOptions,
) -> Result<TunedPipeline> {
    let (graph, baseline) = op_level_schedule(layers, devices, strategy, group);
    let space = PipeSpace {
        objective: Objective::new(&graph, cost, opts),
        layers,
        devices,
        strategy,
        window: opts.window,
    };
    let init = PipeState {
        schedule: baseline,
        group,
    };
    let out = tune(&space, init, opts)?;
    Ok(TunedPipeline {
        graph: graph.clone(),
        schedule: out.state.schedule,
        group: out.state.group,
        baseline: out.baseline,
        predicted: out.predicted,
        peak: out.peak,
        moves: out.moves,
        restarts_adopted: out.restarts_adopted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify_schedule;
    use ooo_core::cost::UnitCost;

    #[test]
    fn gpipe_schedule_is_improvable_by_dw_moves() {
        // GPipe computes dW eagerly inside the backward chain; deferring
        // the [dW, U] blocks (gradient fast-forwarding) shortens the
        // critical path.
        let tuned =
            tune_pipeline(8, 4, Strategy::GPipe, 1, &UnitCost, &TuneOptions::default()).unwrap();
        assert!(
            tuned.improved(),
            "GPipe's eager dW blocks must be hoistable"
        );
        let certified = certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost).unwrap();
        assert_eq!(certified, tuned.predicted);
    }

    #[test]
    fn ooo_pipe2_is_already_near_optimal() {
        let tuned = tune_pipeline(
            8,
            4,
            Strategy::OooPipe2,
            1,
            &UnitCost,
            &TuneOptions::default(),
        )
        .unwrap();
        assert!(tuned.predicted <= tuned.baseline);
        certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost).unwrap();
    }
}
