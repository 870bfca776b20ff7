//! Tuning flat backward orders of data-parallel training.
//!
//! The engines hand the data-parallel simulator a *backward order*
//! (loss, `dO`s, `dW`s); updates, forwards, and the link lane are
//! implicit. [`tune_backward_order`] searches that order directly: the
//! moves are `dW` relocations within the flat order plus *k-jumps* —
//! replacing the whole order by the reverse-first-k (or combined
//! split-k) shape for some `k`, which is what lets the tuner escape the
//! local minima the concave [`ooo_core::reverse_k::search_optimal_k`]
//! heuristic can stop at on non-concave cost surfaces.
//!
//! Scoring reconstructs the realized two-lane schedule with
//! [`ooo_verify::predict::datapar_schedule`] and evaluates it with the
//! exact predictor; the safety gate verifies that same reconstruction.
//! A scan probes each `dW` relocation on the incumbent's realized
//! schedule instead of re-realizing it.

use crate::{
    probe, tune, AppliedMove, Error, MoveBatch, Objective, Result, SearchSpace, TuneOptions,
};
use ooo_core::cost::CostModel;
use ooo_core::datapar::{simulate_data_parallel, CommPolicy, SyncPlanner};
use ooo_core::op::LayerId;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_verify::predict::{datapar_schedule, predict_makespan, DeltaEval};
use std::borrow::Cow;

/// Which family of whole-order jumps the k-move draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KFamily {
    /// No k-jumps: only `dW` relocations.
    None,
    /// [`ooo_core::reverse_k::reverse_first_k`] orders (data-parallel).
    ReverseFirstK,
    /// [`ooo_core::combined::combined_backward_order`] orders (hybrid
    /// data+pipeline parallel).
    Combined,
}

/// The outcome of tuning one flat backward order.
#[derive(Debug, Clone)]
pub struct TunedOrder {
    /// The tuned backward order.
    pub order: Vec<Op>,
    /// The k of the last accepted k-jump, when the final order is still
    /// a pure k-shape (no later relocation touched it).
    pub k: Option<usize>,
    /// Predicted makespan of the input order.
    pub baseline: SimTime,
    /// Predicted makespan of the tuned order.
    pub predicted: SimTime,
    /// Static ledger peak of the tuned order's realized schedule;
    /// populated iff [`TuneOptions::memory_cap`] was set.
    pub peak: Option<u64>,
    /// The accepted move trajectory.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl TunedOrder {
    /// `true` when the tuner strictly beat the baseline.
    pub fn improved(&self) -> bool {
        self.predicted < self.baseline
    }
}

#[derive(Clone)]
struct OrderState {
    order: Vec<Op>,
    k: Option<usize>,
}

/// One move of the order space.
#[derive(Debug, Clone, Copy)]
enum OrderMove {
    /// Replace the whole order by the family's shape at depth `k`.
    SetK(usize),
    /// Move the `dW` at position `from` of the order to position `to`.
    Relocate { op: Op, from: usize, to: usize },
}

struct OrderSpace<'g, C> {
    objective: Objective<'g, C>,
    policy: CommPolicy,
    family: KFamily,
    window: Option<usize>,
}

impl<C: CostModel> OrderSpace<'_, C> {
    fn family_order(&self, k: usize) -> Option<Vec<Op>> {
        let graph = self.objective.graph;
        match self.family {
            KFamily::None => None,
            KFamily::ReverseFirstK => {
                ooo_core::reverse_k::reverse_first_k(graph, k, None::<(u64, &C)>).ok()
            }
            KFamily::Combined => ooo_core::combined::combined_backward_order(graph, k).ok(),
        }
    }

    /// The two-lane schedule `order` realizes.
    fn realize_order(&self, order: &[Op]) -> ooo_core::Result<Schedule> {
        datapar_schedule(
            self.objective.graph,
            order,
            self.objective.cost,
            self.policy,
        )
    }
}

impl<C: CostModel + Sync> SearchSpace for OrderSpace<'_, C> {
    type State = OrderState;
    type Move = OrderMove;
    type Cost = C;

    fn objective(&self) -> &Objective<'_, C> {
        &self.objective
    }

    /// Scoring and the safety gate both see the realized two-lane
    /// schedule ([`datapar_schedule`]).
    fn realize<'s>(&self, state: &'s OrderState) -> ooo_core::Result<Cow<'s, Schedule>> {
        self.realize_order(&state.order).map(Cow::Owned)
    }

    /// k-jumps (one per depth whose shape differs from the state), then
    /// every `dW` relocation within [`TuneOptions::window`].
    fn moves(&self, state: &OrderState) -> Vec<OrderMove> {
        let mut out = Vec::new();
        for k in 0..=self.objective.graph.layers() {
            let Some(order) = self.family_order(k) else {
                break;
            };
            if order != state.order {
                out.push(OrderMove::SetK(k));
            }
        }
        for (from, &op) in state.order.iter().enumerate() {
            if !op.is_weight_grad() {
                continue;
            }
            for to in 0..state.order.len() {
                if to == from || self.window.is_some_and(|w| to.abs_diff(from) > w) {
                    continue;
                }
                out.push(OrderMove::Relocate { op, from, to });
            }
        }
        out
    }

    fn apply(&self, state: &OrderState, mv: &OrderMove) -> OrderState {
        match *mv {
            OrderMove::SetK(k) => OrderState {
                order: self.family_order(k).expect("enumerated depths exist"),
                k: Some(k),
            },
            OrderMove::Relocate { op, from, to } => {
                let mut order = state.order.clone();
                order.remove(from);
                order.insert(to.min(order.len()), op);
                OrderState { order, k: None }
            }
        }
    }

    fn describe(&self, _state: &OrderState, mv: &OrderMove) -> String {
        match (*mv, self.family) {
            (OrderMove::SetK(_), KFamily::None) => unreachable!("no k-jumps without a family"),
            (OrderMove::SetK(k), KFamily::ReverseFirstK) => format!("set reverse-first-k k={k}"),
            (OrderMove::SetK(k), KFamily::Combined) => format!("set combined split k={k}"),
            (OrderMove::Relocate { op, to, .. }, _) => format!("move {op} to position {to}"),
        }
    }

    /// k-jumps replace the whole order and get the full predictor pass.
    /// `dW` relocations are delta-probed on the incumbent's realized
    /// schedule ([`OrderProbe`]), link reorders included.
    fn delta_scores(&self, state: &OrderState, moves: &[OrderMove]) -> Vec<Option<SimTime>> {
        let mut probe = OrderProbe::new(self, &state.order);
        moves
            .iter()
            .map(|mv| match *mv {
                OrderMove::Relocate { op, from, to } => probe.score(op, from, to),
                OrderMove::SetK(_) => self
                    .realize_order(&self.apply(state, mv).order)
                    .ok()
                    .and_then(|s| self.objective.makespan(&s)),
            })
            .collect()
    }
}

/// Delta probes for the `dW` relocations of one incumbent order.
///
/// Moving `dW_i` shifts the sequential finish time of every op it jumps
/// over by `dW_i`'s duration and gives `dW_i` the finish of its new slot;
/// nothing else in the realized compute lane changes. The candidate's
/// link service order is re-planned from those shifted `dW` finishes
/// with the shared [`SyncPlanner`] — the planner [`datapar_schedule`]
/// uses — so the candidate's realized schedule is the incumbent's with
/// the compute-lane move plus every `S[dW]` whose link slot changed. That
/// is one [`DeltaEval::relocate_many`] batch, probed and reverted: the
/// score is the exact predictor on the exact realized candidate, and a
/// move that breaks a dependency deadlocks the probe and scores `None`.
struct OrderProbe<'a, 'o> {
    order: &'o [Op],
    policy: CommPolicy,
    de: DeltaEval<'a>,
    /// Sequential finish time of each position of the incumbent order.
    finish: Vec<SimTime>,
    /// The incumbent's `dW` finish per layer (index 0 unused).
    dw_finish: Vec<SimTime>,
    /// Wire time of `S[dW_i]` per layer (index 0 unused).
    sync_ns: Vec<SimTime>,
    /// The incumbent's link service order (layers); empty without a link.
    link: Vec<usize>,
    planner: SyncPlanner,
    shifted: Vec<SimTime>,
    batch: MoveBatch,
    origins: MoveBatch,
}

impl<'a, 'o> OrderProbe<'a, 'o> {
    /// A probe on `order`, which must realize and evaluate — every state
    /// the search holds does (see [`crate::RelocationProbe::new`]).
    fn new<C: CostModel>(space: &OrderSpace<'a, C>, order: &'o [Op]) -> Self {
        let (graph, cost) = (space.objective.graph, space.objective.cost);
        let realized = space.realize_order(order).expect("search states realize");
        let de = DeltaEval::new(graph, &realized, cost).expect("search states evaluate");
        let layers = graph.layers();
        let mut t: SimTime = 0;
        let mut finish = Vec::with_capacity(order.len());
        let mut dw_finish = vec![0; layers + 1];
        for &op in order {
            t += cost.duration(op);
            finish.push(t);
            if let Op::WeightGrad(LayerId(i)) = op {
                dw_finish[i] = t;
            }
        }
        let link = realized.lanes.get(1).map_or_else(Vec::new, |lane| {
            lane.ops
                .iter()
                .map(|op| op.layer().map_or(0, |LayerId(i)| i))
                .collect()
        });
        OrderProbe {
            order,
            policy: space.policy,
            de,
            finish,
            shifted: Vec::with_capacity(dw_finish.len()),
            dw_finish,
            sync_ns: std::iter::once(0)
                .chain((1..=layers).map(|i| cost.duration(Op::SyncWeightGrad(LayerId(i)))))
                .collect(),
            link,
            planner: SyncPlanner::default(),
            batch: Vec::new(),
            origins: Vec::new(),
        }
    }

    /// The exact makespan of the order with `op` moved from `from` to
    /// `to`, `None` when that order breaks a dependency.
    fn score(&mut self, op: Op, from: usize, to: usize) -> Option<SimTime> {
        self.batch.clear();
        self.batch.push((op, 0, to));
        if !self.link.is_empty() {
            let Op::WeightGrad(LayerId(moved)) = op else {
                unreachable!("only weight gradients relocate")
            };
            let start = |q: usize| if q == 0 { 0 } else { self.finish[q - 1] };
            let d = self.finish[from] - start(from);
            self.shifted.clear();
            self.shifted.extend_from_slice(&self.dw_finish);
            let (jumped, shift_later) = if to > from {
                self.shifted[moved] = self.finish[to];
                (from + 1..to + 1, false)
            } else {
                self.shifted[moved] = start(to) + d;
                (to..from, true)
            };
            for q in jumped {
                if let Op::WeightGrad(LayerId(j)) = self.order[q] {
                    self.shifted[j] = if shift_later {
                        self.finish[q] + d
                    } else {
                        self.finish[q] - d
                    };
                }
            }
            let sync_ns = &self.sync_ns;
            let plan = self
                .planner
                .plan(&self.shifted, self.policy, |i| sync_ns[i]);
            for (q, (&(layer, _, _), &old)) in plan.iter().zip(&self.link).enumerate() {
                if layer != old {
                    self.batch.push((Op::SyncWeightGrad(LayerId(layer)), 1, q));
                }
            }
        }
        probe(&mut self.de, &self.batch, &mut self.origins)
    }
}

/// Tunes a flat backward order for the data-parallel simulator under
/// `policy`. `baseline_k` documents the k-shape of the input, if any.
///
/// # Errors
///
/// [`Error::Unsafe`] when the input's realized schedule already fails
/// the safety gate; [`Error::Core`] when it does not evaluate.
pub fn tune_backward_order<C: CostModel + Sync>(
    graph: &TrainGraph,
    baseline: &[Op],
    baseline_k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    family: KFamily,
    opts: &TuneOptions,
) -> Result<TunedOrder> {
    let space = OrderSpace {
        objective: Objective::new(graph, cost, opts),
        policy,
        family,
        window: opts.window,
    };
    let init = OrderState {
        order: baseline.to_vec(),
        k: baseline_k,
    };
    let out = tune(&space, init, opts)?;
    Ok(TunedOrder {
        order: out.state.order,
        k: out.state.k,
        baseline: out.baseline,
        predicted: out.predicted,
        peak: out.peak,
        moves: out.moves,
        restarts_adopted: out.restarts_adopted,
    })
}

/// Certifies a tuned backward order: runs the data-parallel
/// discrete-event simulator and demands it match the static prediction
/// of the reconstructed schedule exactly. Returns the certified
/// makespan.
///
/// # Errors
///
/// [`Error::Certification`] on any disagreement; [`Error::Core`] when
/// the order does not simulate.
pub fn certify_order<C: CostModel>(
    graph: &TrainGraph,
    order: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<SimTime> {
    let s = datapar_schedule(graph, order, cost, policy)?;
    let predicted = predict_makespan(graph, &s, cost)?.makespan();
    let simulated = simulate_data_parallel(graph, order, cost, policy)?.makespan();
    if predicted != simulated {
        return Err(Error::Certification {
            predicted,
            simulated,
        });
    }
    Ok(simulated)
}

/// Exhaustive predictor sweep over every combined split depth `k`:
/// returns the `(k, makespan)` minimizing the predicted makespan (ties
/// to the smallest `k`). This is the tuner's k-move restricted to the
/// combined family — the hybrid engine's exact alternative to the
/// concave [`ooo_core::combined::choose_split_k`] heuristic.
///
/// # Errors
///
/// Propagates order-construction and prediction errors.
pub fn best_combined_k<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    policy: CommPolicy,
) -> Result<(usize, SimTime)> {
    let mut best: Option<(SimTime, usize)> = None;
    for k in 0..=graph.layers() {
        let order = ooo_core::combined::combined_backward_order(graph, k)?;
        let s = datapar_schedule(graph, &order, cost, policy)?;
        let m = predict_makespan(graph, &s, cost)?.makespan();
        if best.is_none_or(|(bm, _)| m < bm) {
            best = Some((m, k));
        }
    }
    let (m, k) = best.expect("graphs have at least one layer");
    Ok((k, m))
}

/// Exhaustive predictor sweep over every reverse-first-k depth:
/// returns the `(k, makespan)` minimizing the predicted makespan (ties
/// to the smallest `k`).
///
/// # Errors
///
/// Propagates order-construction and prediction errors.
pub fn best_reverse_k<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    policy: CommPolicy,
) -> Result<(usize, SimTime)> {
    let mut best: Option<(SimTime, usize)> = None;
    for k in 0..=graph.layers() {
        let order = ooo_core::reverse_k::reverse_first_k(graph, k, None::<(u64, &C)>)?;
        let s = datapar_schedule(graph, &order, cost, policy)?;
        let m = predict_makespan(graph, &s, cost)?.makespan();
        if best.is_none_or(|(bm, _)| m < bm) {
            best = Some((m, k));
        }
    }
    let (m, k) = best.expect("graphs have at least one layer");
    Ok((k, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost};
    use ooo_core::reverse_k::reverse_first_k;

    fn sync_heavy(l: usize) -> TableCost {
        TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                ..LayerCost::default()
            },
        )
    }

    #[test]
    fn k_jump_beats_conventional_order_under_heavy_sync() {
        let l = 8;
        let graph = TrainGraph::data_parallel(l);
        let cost = sync_heavy(l);
        let base = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
        let tuned = tune_backward_order(
            &graph,
            &base,
            Some(0),
            &cost,
            CommPolicy::PriorityByLayer,
            KFamily::ReverseFirstK,
            &TuneOptions::default(),
        )
        .unwrap();
        assert!(tuned.improved(), "sync-heavy k=0 must be improvable");
        let certified =
            certify_order(&graph, &tuned.order, &cost, CommPolicy::PriorityByLayer).unwrap();
        assert_eq!(certified, tuned.predicted);
    }

    #[test]
    fn best_reverse_k_matches_brute_force_simulation() {
        let l = 6;
        let graph = TrainGraph::data_parallel(l);
        let cost = sync_heavy(l);
        let (k, m) = best_reverse_k(&graph, &cost, CommPolicy::FifoCompletion).unwrap();
        let mut sim_best = SimTime::MAX;
        for kk in 0..=l {
            let order = reverse_first_k(&graph, kk, None::<(u64, &TableCost)>).unwrap();
            let s = simulate_data_parallel(&graph, &order, &cost, CommPolicy::FifoCompletion)
                .unwrap()
                .makespan();
            sim_best = sim_best.min(s);
        }
        assert_eq!(m, sim_best);
        assert!(k <= l);
    }
}
