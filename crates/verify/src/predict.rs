//! Static makespan prediction by cost-model list evaluation.
//!
//! [`predict_makespan`] derives exact start/finish times for every op of
//! a fixed multi-lane [`Schedule`] without running a discrete-event
//! simulation: the union graph (per-lane program order plus the
//! dependency edges between scheduled ops) is evaluated once in
//! topological order with the recurrence
//!
//! ```text
//! start(op) = max(finish(lane predecessor), max over deps finish(dep))
//! finish(op) = start(op) + cost.duration(op)
//! ```
//!
//! which is the same recurrence [`ooo_core::list_scheduling::simulate`]
//! resolves event by event — so for any fixed schedule the prediction
//! matches the simulated timeline **exactly** (tolerance 0). Dependencies
//! outside the schedule are treated as finished at time zero, supporting
//! the partial schedules of reverse first-k scheduling.
//!
//! [`datapar_schedule`] statically reconstructs the two-lane schedule
//! realized by [`ooo_core::datapar::simulate_data_parallel`] for a given
//! backward order and communication policy; predicting it reproduces the
//! data-parallel simulator's makespan exactly (zero latency tail).

use ooo_core::arena::GraphArena;
use ooo_core::cost::CostModel;
use ooo_core::datapar::CommPolicy;
use ooo_core::op::LayerId;
use ooo_core::schedule::Schedule;
use ooo_core::{Error, Op, SimTime, TrainGraph};

/// One scheduled operation with its predicted interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedOp {
    /// The operation.
    pub op: Op,
    /// Index of the lane it is placed on.
    pub lane: usize,
    /// Position within the lane.
    pub index: usize,
    /// Predicted start time (ns).
    pub start: SimTime,
    /// Predicted finish time (ns).
    pub end: SimTime,
}

/// The outcome of statically evaluating one schedule.
#[derive(Debug, Clone)]
pub struct Prediction {
    lane_names: Vec<String>,
    ops: Vec<PredictedOp>,
    /// The graph's op ↔ dense id mapping, so lookups need no hashing.
    arena: GraphArena,
    /// Node index per dense op id ([`ABSENT`] for unscheduled ops).
    index: Vec<u32>,
    /// For each op (by node index), the node whose finish bound its start
    /// (`None` for ops starting at time zero).
    binding: Vec<Option<usize>>,
    makespan: SimTime,
}

/// Sentinel of [`Prediction`]'s dense index: the op is not scheduled.
const ABSENT: u32 = u32::MAX;

impl Prediction {
    /// The predicted makespan: latest finish across all lanes.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Every op with its predicted interval, in lane-major schedule
    /// order.
    pub fn ops(&self) -> &[PredictedOp] {
        &self.ops
    }

    /// The lane names, in schedule order.
    pub fn lane_names(&self) -> &[String] {
        &self.lane_names
    }

    fn node_of(&self, op: Op) -> Option<&PredictedOp> {
        let id = self.arena.id_of(op)?;
        match self.index[id as usize] {
            ABSENT => None,
            i => Some(&self.ops[i as usize]),
        }
    }

    /// Predicted start time of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.start)
    }

    /// Predicted finish time of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.end)
    }

    /// Total predicted busy time of lane `lane`.
    pub fn lane_busy(&self, lane: usize) -> SimTime {
        self.ops
            .iter()
            .filter(|p| p.lane == lane)
            .map(|p| p.end - p.start)
            .sum()
    }

    /// The idle (bubble) fraction across the lanes selected by `select`,
    /// over the full `[0, makespan]` window: `1 - busy / (lanes * makespan)`.
    pub fn idle_fraction(&self, select: impl Fn(&str) -> bool) -> f64 {
        let lanes: Vec<usize> = (0..self.lane_names.len())
            .filter(|&i| select(&self.lane_names[i]))
            .collect();
        if lanes.is_empty() || self.makespan == 0 {
            return 0.0;
        }
        let busy: SimTime = lanes.iter().map(|&i| self.lane_busy(i)).sum();
        1.0 - busy as f64 / (lanes.len() as SimTime * self.makespan) as f64
    }

    /// One predicted critical path: a chain of ops, each starting exactly
    /// when its binding predecessor finishes, ending at the makespan.
    /// Deterministic (ties resolve to the smallest node index).
    pub fn critical_ops(&self) -> Vec<Op> {
        let Some(last) = self
            .ops
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.end.cmp(&b.end).then(ib.cmp(ia)))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        let mut chain = Vec::new();
        let mut cur = Some(last);
        while let Some(i) = cur {
            chain.push(self.ops[i].op);
            cur = self.binding[i];
        }
        chain.reverse();
        chain
    }
}

/// Statically evaluates `schedule` under `cost`: a single topological
/// pass over the union of lane program order and dependency edges.
///
/// # Errors
///
/// Mirrors [`ooo_core::list_scheduling::simulate`]:
/// [`Error::UnknownOp`] / [`Error::DuplicateOp`] for malformed schedules
/// and [`Error::DependencyViolation`] when the lanes deadlock.
pub fn predict_makespan<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<Prediction, Error> {
    // Dense op id -> node index, and node -> dense op id.
    let mut index: Vec<u32> = vec![ABSENT; graph.len()];
    let total: usize = schedule.lanes.iter().map(|l| l.ops.len()).sum();
    let mut ids: Vec<usize> = Vec::with_capacity(total);
    let mut nodes: Vec<PredictedOp> = Vec::with_capacity(total);
    for (li, lane) in schedule.lanes.iter().enumerate() {
        for (pos, &op) in lane.ops.iter().enumerate() {
            let v = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
            if index[v] != ABSENT {
                return Err(Error::DuplicateOp(op));
            }
            index[v] = nodes.len() as u32;
            ids.push(v);
            nodes.push(PredictedOp {
                op,
                lane: li,
                index: pos,
                start: 0,
                end: 0,
            });
        }
    }

    // Union-graph predecessors in CSR form: the lane predecessor plus
    // every *scheduled* dependency (outside deps are complete at time
    // zero), in that order.
    let n = nodes.len();
    let mut pred_start: Vec<u32> = Vec::with_capacity(n + 1);
    let mut preds: Vec<u32> = Vec::with_capacity(2 * n);
    for (i, node) in nodes.iter().enumerate() {
        pred_start.push(preds.len() as u32);
        if node.index > 0 {
            preds.push(i as u32 - 1);
        }
        for &d in graph.dep_indices(ids[i]) {
            if index[d] != ABSENT {
                preds.push(index[d]);
            }
        }
    }
    pred_start.push(preds.len() as u32);
    let preds_of = |i: usize| &preds[pred_start[i] as usize..pred_start[i + 1] as usize];
    let mut indeg: Vec<u32> = (0..n).map(|i| preds_of(i).len() as u32).collect();
    // Successors in CSR form, each list in ascending node order.
    let mut succ_start: Vec<u32> = vec![0; n + 1];
    for &p in &preds {
        succ_start[p as usize + 1] += 1;
    }
    for i in 0..n {
        succ_start[i + 1] += succ_start[i];
    }
    let mut fill: Vec<u32> = succ_start[..n].to_vec();
    let mut succs: Vec<u32> = vec![0; preds.len()];
    for i in 0..n {
        for &p in preds_of(i) {
            succs[fill[p as usize] as usize] = i as u32;
            fill[p as usize] += 1;
        }
    }

    let mut binding: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop() {
        done += 1;
        let mut start: SimTime = 0;
        for &p in preds_of(i) {
            // The first predecessor reaching the maximum finish becomes
            // the binding one (preds order is deterministic: lane
            // predecessor first, then deps in graph order).
            let f = nodes[p as usize].end;
            if f > start {
                start = f;
                binding[i] = Some(p as usize);
            }
        }
        nodes[i].start = start;
        nodes[i].end = start + cost.duration(nodes[i].op);
        for &s in &succs[succ_start[i] as usize..succ_start[i + 1] as usize] {
            let s = s as usize;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if done < n {
        // The union graph has a cycle: the lanes deadlock. Report one
        // blocked op with a scheduled-but-unfinished dependency, the way
        // the simulator does.
        let blocked = (0..n).find(|&i| indeg[i] > 0).expect("cycle exists");
        let op = nodes[blocked].op;
        let missing = graph
            .dep_indices(ids[blocked])
            .iter()
            .find(|&&d| index[d] != ABSENT && indeg[index[d] as usize] > 0)
            .map_or(op, |&d| graph.ops()[d]);
        return Err(Error::DependencyViolation {
            op,
            missing_dep: missing,
        });
    }

    let makespan = nodes.iter().map(|p| p.end).max().unwrap_or(0);
    Ok(Prediction {
        lane_names: schedule.lanes.iter().map(|l| l.name.clone()).collect(),
        ops: nodes,
        arena: graph.arena().clone(),
        index,
        binding,
        makespan,
    })
}

/// Statically reconstructs the two-lane schedule the data-parallel
/// simulator realizes for `backward` under `policy`: the compute lane
/// runs the backward order followed by `U_i`/`F_i` in layer order, the
/// link lane serves each `S[dW_i]` in the order the policy would pick it
/// given the sequential backward finish times.
///
/// Predicting the returned schedule reproduces
/// [`ooo_core::datapar::simulate_data_parallel`]'s timeline exactly
/// (zero latency tail).
///
/// # Errors
///
/// Propagates validation errors when `backward` is not a valid partial
/// order of `graph`.
pub fn datapar_schedule<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<Schedule, Error> {
    ooo_core::schedule::validate_partial_order(graph, backward)?;
    let l = graph.layers();

    // Sequential backward finish times drive the policy's pick order.
    let mut t: SimTime = 0;
    let mut dw_finish: Vec<SimTime> = vec![0; l + 1];
    for &op in backward {
        t += cost.duration(op);
        if let Op::WeightGrad(LayerId(i)) = op {
            dw_finish[i] = t;
        }
    }

    let mut compute: Vec<Op> = backward.to_vec();
    for i in 1..=l {
        let u = Op::Update(LayerId(i));
        if graph.contains(u) {
            compute.push(u);
        }
        compute.push(Op::Forward(LayerId(i)));
    }
    let mut schedule = Schedule::new();
    schedule.add_lane("gpu", compute);

    if graph.contains(Op::SyncWeightGrad(LayerId(1))) {
        // Service order from the shared O(L log L) planner — the pick
        // sequence is provably identical to the old scan-and-retain loop
        // (see `ooo_core::datapar::plan_sync_service`).
        let link: Vec<Op> = ooo_core::datapar::plan_sync_service(&dw_finish, policy, |i| {
            cost.duration(Op::SyncWeightGrad(LayerId(i)))
        })
        .into_iter()
        .map(|(pick, _, _)| Op::SyncWeightGrad(LayerId(pick)))
        .collect();
        schedule.add_lane("link", link);
    }
    Ok(schedule)
}

/// Per-op placement and timing state inside a [`DeltaEval`], indexed by
/// the op's dense graph index.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    scheduled: bool,
    lane: usize,
    pos: usize,
    start: SimTime,
    end: SimTime,
}

const UNPLACED: NodeState = NodeState {
    scheduled: false,
    lane: 0,
    pos: 0,
    start: 0,
    end: 0,
};

/// "No lane predecessor" in [`Scratch::old_pred`].
const NO_PRED: usize = usize::MAX;

/// Work buffers of one [`DeltaEval`], reused across edits so that an edit
/// allocates nothing once the buffers have grown to the schedule's size.
/// Dense arrays are indexed by the op's dense graph index.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Cone membership: `mark[v] == epoch` iff `v` is in the cone being
    /// re-scored. A new epoch empties the cone in O(1).
    mark: Vec<u32>,
    epoch: u32,
    /// Cone-internal in-degree, valid where `counted[v] == epoch`.
    indeg: Vec<u32>,
    counted: Vec<u32>,
    /// The nodes whose predecessor set changed (input of the cone pass).
    seeds: Vec<usize>,
    cone: Vec<usize>,
    stack: Vec<usize>,
    queue: Vec<usize>,
    /// `(node, start, end)` before the cone pass overwrote them.
    undo: Vec<(usize, SimTime, SimTime)>,
    /// `relocate_many`: the batch as `(node, lane, position)`.
    batch: Vec<(usize, usize, usize)>,
    /// `relocate_many`: the lanes the batch touches, ascending.
    touched: Vec<usize>,
    /// `relocate_many`: the touched lanes' contents before the edit,
    /// back to back, with `(lane, start)` per lane in `saved_spans`.
    saved: Vec<usize>,
    saved_spans: Vec<(usize, usize)>,
    /// `relocate_many`: `(lane, lane predecessor)` of every node of a
    /// touched lane before the edit ([`NO_PRED`] for a lane head).
    old_pred: Vec<(usize, usize)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            mark: vec![0; n],
            indeg: vec![0; n],
            counted: vec![0; n],
            old_pred: vec![(0, NO_PRED); n],
            ..Scratch::default()
        }
    }

    /// Starts a new cone: no node carries the returned stamp yet. On
    /// wrap-around every mark is cleared, so stale stamps never alias.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.counted.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Counts `edges` more cone-internal edges into `v` (starting from
    /// zero the first time this epoch touches `v`).
    fn count_edge(&mut self, v: usize, edges: u32) {
        if self.counted[v] != self.epoch {
            self.counted[v] = self.epoch;
            self.indeg[v] = 0;
        }
        self.indeg[v] += edges;
    }
}

/// Incremental (delta) makespan evaluator over the union graph.
///
/// Maintains the exact [`predict_makespan`] timing state for a mutable
/// multi-lane schedule, but after each edit — [`DeltaEval::place`] or
/// [`DeltaEval::relocate_many`] — re-scores **only the affected cone**:
/// the union-graph descendants of the ops whose predecessor set changed,
/// instead of running a full topological pass. For every reachable state
/// the times equal a fresh `predict_makespan` of [`DeltaEval::to_schedule`]
/// at tolerance 0 (the recurrence is identical; only the evaluation
/// order differs, and the recurrence is confluent).
///
/// Edits are all-or-nothing: an edit that would deadlock the lanes
/// (create a union-graph cycle) is rolled back structurally and timing-
/// wise, and reported as [`Error::DependencyViolation`].
///
/// Edits allocate nothing in steady state: cone membership is an
/// epoch-stamped mark array and every other work list lives in buffers
/// owned by the evaluator and reused from edit to edit.
///
/// The evaluator keeps two work counters — [`DeltaEval::rescored`]
/// (nodes actually re-scored) and [`DeltaEval::full_equivalent`] (nodes
/// a full re-evaluation would have scored per edit) — whose ratio is the
/// delta-evaluation speedup reported by the bench layer.
#[derive(Debug, Clone)]
pub struct DeltaEval<'g> {
    graph: &'g TrainGraph,
    dur: Vec<SimTime>,
    lane_names: Vec<String>,
    /// Dense op indices per lane, in program order.
    lanes: Vec<Vec<usize>>,
    nodes: Vec<NodeState>,
    scheduled: usize,
    makespan: SimTime,
    rescored: u64,
    full_equivalent: u64,
    scratch: Scratch,
}

impl<'g> DeltaEval<'g> {
    /// An evaluator over `graph` with the given (empty) lanes.
    pub fn empty<C: CostModel>(
        graph: &'g TrainGraph,
        lane_names: impl IntoIterator<Item = impl Into<String>>,
        cost: &C,
    ) -> Self {
        let n = graph.len();
        let names: Vec<String> = lane_names.into_iter().map(Into::into).collect();
        DeltaEval {
            graph,
            dur: graph.ops().iter().map(|&op| cost.duration(op)).collect(),
            lanes: vec![Vec::new(); names.len()],
            lane_names: names,
            nodes: vec![UNPLACED; n],
            scheduled: 0,
            makespan: 0,
            rescored: 0,
            full_equivalent: 0,
            scratch: Scratch::new(n),
        }
    }

    /// An evaluator seeded from an existing (possibly partial) schedule.
    ///
    /// # Errors
    ///
    /// Mirrors [`predict_makespan`]: [`Error::UnknownOp`] /
    /// [`Error::DuplicateOp`] for malformed schedules and
    /// [`Error::DependencyViolation`] when the lanes deadlock.
    pub fn new<C: CostModel>(
        graph: &'g TrainGraph,
        schedule: &Schedule,
        cost: &C,
    ) -> Result<Self, Error> {
        let mut de = Self::empty(graph, schedule.lanes.iter().map(|l| l.name.clone()), cost);
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for &op in &lane.ops {
                let v = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
                if de.nodes[v].scheduled {
                    return Err(Error::DuplicateOp(op));
                }
                de.nodes[v] = NodeState {
                    scheduled: true,
                    lane: li,
                    pos: de.lanes[li].len(),
                    start: 0,
                    end: 0,
                };
                de.lanes[li].push(v);
                de.scheduled += 1;
            }
        }
        // Every scheduled node seeds the first pass, in ascending order.
        let mut sc = std::mem::take(&mut de.scratch);
        sc.seeds
            .extend((0..de.nodes.len()).filter(|&v| de.nodes[v].scheduled));
        de.full_equivalent += de.scheduled as u64;
        let r = de.recompute_cone(&mut sc);
        de.scratch = sc;
        if let Err(blocked) = r {
            return Err(de.deadlock_error(blocked));
        }
        Ok(de)
    }

    /// The current makespan: latest finish across all lanes.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Number of scheduled ops.
    pub fn num_scheduled(&self) -> usize {
        self.scheduled
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of ops currently on lane `lane`.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// Time lane `lane` becomes available: the finish of its last op
    /// (lane times are monotone along program order), `0` when empty.
    pub fn lane_available(&self, lane: usize) -> SimTime {
        self.lanes[lane]
            .last()
            .map(|&v| self.nodes[v].end)
            .unwrap_or(0)
    }

    /// Current `(lane, position)` of `op`, if scheduled.
    pub fn position_of(&self, op: Op) -> Option<(usize, usize)> {
        let v = self.graph.op_index(op)?;
        let st = self.nodes[v];
        st.scheduled.then_some((st.lane, st.pos))
    }

    /// Current start time of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        let v = self.graph.op_index(op)?;
        self.nodes[v].scheduled.then_some(self.nodes[v].start)
    }

    /// Current finish time of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        let v = self.graph.op_index(op)?;
        self.nodes[v].scheduled.then_some(self.nodes[v].end)
    }

    /// Nodes re-scored by delta evaluation so far.
    pub fn rescored(&self) -> u64 {
        self.rescored
    }

    /// Nodes full re-evaluation would have scored over the same edits.
    pub fn full_equivalent(&self) -> u64 {
        self.full_equivalent
    }

    /// The current placement as a plain [`Schedule`].
    pub fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new();
        for (li, lane) in self.lanes.iter().enumerate() {
            s.add_lane(
                &self.lane_names[li],
                lane.iter().map(|&v| self.graph.ops()[v]).collect(),
            );
        }
        s
    }

    /// Appends `op` to the end of lane `lane` and re-scores its cone.
    /// For the branch-and-bound append discipline (all dependencies
    /// already placed, no dependents placed) the cone is the single new
    /// node — an O(deps) update. Returns the new makespan.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOp`] if `op` is not in the graph,
    /// [`Error::DuplicateOp`] if already placed,
    /// [`Error::InvalidConfig`] if `lane` is out of range, and
    /// [`Error::DependencyViolation`] (with the placement rolled back)
    /// if the append deadlocks the lanes.
    pub fn place(&mut self, lane: usize, op: Op) -> Result<SimTime, Error> {
        let v = self.graph.op_index(op).ok_or(Error::UnknownOp(op))?;
        if self.nodes[v].scheduled {
            return Err(Error::DuplicateOp(op));
        }
        if lane >= self.lanes.len() {
            return Err(Error::InvalidConfig(format!(
                "lane {lane} out of range ({} lanes)",
                self.lanes.len()
            )));
        }
        self.nodes[v] = NodeState {
            scheduled: true,
            lane,
            pos: self.lanes[lane].len(),
            start: 0,
            end: 0,
        };
        self.lanes[lane].push(v);
        self.scheduled += 1;
        self.full_equivalent += self.scheduled as u64;
        let mut sc = std::mem::take(&mut self.scratch);
        sc.seeds.clear();
        sc.seeds.push(v);
        let r = self.recompute_cone(&mut sc);
        self.scratch = sc;
        if let Err(blocked) = r {
            let err = self.deadlock_error(blocked);
            self.lanes[lane].pop();
            self.nodes[v] = UNPLACED;
            self.scheduled -= 1;
            self.refresh_makespan();
            return Err(err);
        }
        Ok(self.makespan)
    }

    /// Removes the last op of lane `lane` (the inverse of
    /// [`DeltaEval::place`]) and re-scores the removed node's cone.
    /// Returns the removed op, or `None` when the lane is empty.
    pub fn unplace_last(&mut self, lane: usize) -> Option<Op> {
        let v = self.lanes[lane].pop()?;
        self.nodes[v] = UNPLACED;
        self.scheduled -= 1;
        // Removing a node can only relax its union-graph successors; the
        // popped node was last on its lane, so only graph dependents of
        // `v` that are still scheduled can change.
        let mut sc = std::mem::take(&mut self.scratch);
        sc.seeds.clear();
        sc.seeds.extend(
            self.graph
                .dependent_indices(v)
                .iter()
                .copied()
                .filter(|&d| self.nodes[d].scheduled),
        );
        self.full_equivalent += self.scheduled as u64;
        if !sc.seeds.is_empty() {
            self.recompute_cone(&mut sc)
                .expect("removal cannot create a cycle");
        }
        self.scratch = sc;
        self.refresh_makespan();
        Some(self.graph.ops()[v])
    }

    /// Applies a batch of relocations atomically: every `(op, lane, pos)`
    /// is removed from its current slot, then re-inserted at the target
    /// coordinates (interpreted against the final lane contents, applied
    /// in ascending `(lane, pos)` order; positions are clamped to the
    /// lane length). Only the affected cone — ops whose lane predecessor
    /// changed, plus their union-graph descendants — is re-scored.
    /// Returns the new makespan.
    ///
    /// Batching matters: block moves such as relocating `[dW_i, U_i]`
    /// together have no legal single-op intermediate state.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOp`] for ops not in the graph or not scheduled,
    /// [`Error::DuplicateOp`] for an op listed twice,
    /// [`Error::InvalidConfig`] for an out-of-range target lane, and
    /// [`Error::DependencyViolation`] — with the whole batch rolled
    /// back — when the move deadlocks the lanes.
    pub fn relocate_many(&mut self, moves: &[(Op, usize, usize)]) -> Result<SimTime, Error> {
        if moves.is_empty() {
            return Ok(self.makespan);
        }
        let mut sc = std::mem::take(&mut self.scratch);
        let r = self.relocate_batch(&mut sc, moves);
        self.scratch = sc;
        r
    }

    /// Relocates a single op; see [`DeltaEval::relocate_many`].
    pub fn relocate(&mut self, op: Op, lane: usize, pos: usize) -> Result<SimTime, Error> {
        self.relocate_many(&[(op, lane, pos)])
    }

    fn relocate_batch(
        &mut self,
        sc: &mut Scratch,
        moves: &[(Op, usize, usize)],
    ) -> Result<SimTime, Error> {
        sc.batch.clear();
        for &(op, to_lane, to_pos) in moves {
            let v = self.graph.op_index(op).ok_or(Error::UnknownOp(op))?;
            if !self.nodes[v].scheduled {
                return Err(Error::UnknownOp(op));
            }
            if sc.batch.iter().any(|&(w, _, _)| w == v) {
                return Err(Error::DuplicateOp(op));
            }
            if to_lane >= self.lanes.len() {
                return Err(Error::InvalidConfig(format!(
                    "lane {to_lane} out of range ({} lanes)",
                    self.lanes.len()
                )));
            }
            sc.batch.push((v, to_lane, to_pos));
        }

        // Snapshot every lane the batch touches, for rollback and for
        // the precise predecessor-changed seed computation.
        sc.touched.clear();
        for &(v, to_lane, _) in &sc.batch {
            sc.touched.push(self.nodes[v].lane);
            sc.touched.push(to_lane);
        }
        sc.touched.sort_unstable();
        sc.touched.dedup();
        sc.saved.clear();
        sc.saved_spans.clear();
        for &l in &sc.touched {
            sc.saved_spans.push((l, sc.saved.len()));
            let lane = &self.lanes[l];
            for (p, &v) in lane.iter().enumerate() {
                sc.saved.push(v);
                sc.old_pred[v] = (l, if p > 0 { lane[p - 1] } else { NO_PRED });
            }
        }

        // Structural edit: remove all, then insert in ascending target
        // order so each requested position addresses the final contents.
        for &(v, _, _) in &sc.batch {
            let (l, p) = (self.nodes[v].lane, self.nodes[v].pos);
            self.lane_remove(l, p);
        }
        sc.batch.sort_unstable_by_key(|&(_, l, p)| (l, p));
        for &(v, l, p) in &sc.batch {
            let p = p.min(self.lanes[l].len());
            self.lane_insert(l, p, v);
        }

        // Seeds: exactly the ops whose lane predecessor changed (an op
        // that changed lanes always counts as changed).
        sc.seeds.clear();
        for &l in &sc.touched {
            let lane = &self.lanes[l];
            for (p, &v) in lane.iter().enumerate() {
                let new_pred = if p > 0 { lane[p - 1] } else { NO_PRED };
                if sc.old_pred[v] != (l, new_pred) {
                    sc.seeds.push(v);
                }
            }
        }
        sc.seeds.sort_unstable();
        sc.seeds.dedup();

        self.full_equivalent += self.scheduled as u64;
        if let Err(blocked) = self.recompute_cone(sc) {
            let err = self.deadlock_error(blocked);
            self.restore_lanes(sc);
            // Times of rolled-back nodes were restored by the failed
            // cone pass itself; only the makespan cache needs a refresh.
            self.refresh_makespan();
            return Err(err);
        }
        Ok(self.makespan)
    }

    /// Puts the lanes `relocate_batch` touched back from its snapshot.
    fn restore_lanes(&mut self, sc: &Scratch) {
        for (i, &(l, start)) in sc.saved_spans.iter().enumerate() {
            let end = sc.saved_spans.get(i + 1).map_or(sc.saved.len(), |s| s.1);
            let old = &sc.saved[start..end];
            for (p, &v) in old.iter().enumerate() {
                self.nodes[v].lane = l;
                self.nodes[v].pos = p;
            }
            self.lanes[l].clear();
            self.lanes[l].extend_from_slice(old);
        }
    }

    fn lane_remove(&mut self, lane: usize, pos: usize) -> usize {
        let v = self.lanes[lane].remove(pos);
        for (p, &w) in self.lanes[lane].iter().enumerate().skip(pos) {
            self.nodes[w].pos = p;
        }
        v
    }

    fn lane_insert(&mut self, lane: usize, pos: usize, v: usize) {
        self.lanes[lane].insert(pos, v);
        self.nodes[v].lane = lane;
        for (p, &w) in self.lanes[lane].iter().enumerate().skip(pos) {
            self.nodes[w].pos = p;
        }
    }

    fn start_bound(&self, v: usize) -> SimTime {
        let st = self.nodes[v];
        let mut start: SimTime = 0;
        if st.pos > 0 {
            start = start.max(self.nodes[self.lanes[st.lane][st.pos - 1]].end);
        }
        for &d in self.graph.dep_indices(v) {
            if self.nodes[d].scheduled {
                start = start.max(self.nodes[d].end);
            }
        }
        start
    }

    /// The scheduled union-graph successor of `v` along its lane.
    fn lane_next(&self, v: usize) -> Option<usize> {
        let st = self.nodes[v];
        self.lanes[st.lane].get(st.pos + 1).copied()
    }

    /// Re-scores the union-graph descendants of `sc.seeds` (inclusive)
    /// in topological order. On a cycle, restores the previous times of
    /// every cone node and returns one blocked node.
    fn recompute_cone(&mut self, sc: &mut Scratch) -> Result<(), usize> {
        // Collect the cone: DFS over union-graph successors. The cone is
        // closed under successors, so counting every edge leaving a cone
        // node as it is first visited yields each node's cone-internal
        // in-degree (predecessors outside the cone already carry final
        // times).
        let epoch = sc.next_epoch();
        sc.cone.clear();
        sc.stack.clear();
        sc.undo.clear();
        for i in 0..sc.seeds.len() {
            let v = sc.seeds[i];
            if self.nodes[v].scheduled {
                sc.count_edge(v, 0);
                sc.stack.push(v);
            }
        }
        while let Some(v) = sc.stack.pop() {
            if sc.mark[v] == epoch {
                continue;
            }
            sc.mark[v] = epoch;
            sc.cone.push(v);
            if let Some(s) = self.lane_next(v) {
                sc.count_edge(s, 1);
                sc.stack.push(s);
            }
            for &d in self.graph.dependent_indices(v) {
                if self.nodes[d].scheduled {
                    sc.count_edge(d, 1);
                    sc.stack.push(d);
                }
            }
        }
        if sc.cone.is_empty() {
            self.refresh_makespan();
            return Ok(());
        }

        // Kahn over cone-internal edges.
        sc.queue.clear();
        sc.queue
            .extend(sc.cone.iter().copied().filter(|&v| sc.indeg[v] == 0));
        let mut done = 0usize;
        while let Some(v) = sc.queue.pop() {
            done += 1;
            let start = self.start_bound(v);
            let node = &mut self.nodes[v];
            sc.undo.push((v, node.start, node.end));
            node.start = start;
            node.end = start + self.dur[v];
            if let Some(s) = self.lane_next(v) {
                if sc.mark[s] == epoch {
                    sc.indeg[s] -= 1;
                    if sc.indeg[s] == 0 {
                        sc.queue.push(s);
                    }
                }
            }
            for &s in self.graph.dependent_indices(v) {
                if self.nodes[s].scheduled && sc.mark[s] == epoch {
                    sc.indeg[s] -= 1;
                    if sc.indeg[s] == 0 {
                        sc.queue.push(s);
                    }
                }
            }
        }
        self.rescored += done as u64;
        if done < sc.cone.len() {
            // Only processed nodes were overwritten; put them back.
            for &(v, start, end) in &sc.undo {
                self.nodes[v].start = start;
                self.nodes[v].end = end;
            }
            let blocked = sc
                .cone
                .iter()
                .copied()
                .find(|&v| sc.indeg[v] > 0)
                .expect("cycle exists");
            return Err(blocked);
        }
        self.refresh_makespan();
        Ok(())
    }

    fn refresh_makespan(&mut self) {
        // The last op of each lane carries the lane's maximum finish.
        self.makespan = self
            .lanes
            .iter()
            .filter_map(|l| l.last().map(|&v| self.nodes[v].end))
            .max()
            .unwrap_or(0);
    }

    fn deadlock_error(&self, blocked: usize) -> Error {
        let op = self.graph.ops()[blocked];
        let missing = self
            .graph
            .dep_indices(blocked)
            .iter()
            .copied()
            .find(|&d| self.nodes[d].scheduled)
            .map(|d| self.graph.ops()[d])
            .unwrap_or(op);
        Error::DependencyViolation {
            op,
            missing_dep: missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost, UnitCost};
    use ooo_core::datapar::simulate_data_parallel;
    use ooo_core::list_scheduling::simulate;
    use ooo_core::reverse_k::reverse_first_k;

    #[test]
    fn prediction_matches_simulation_exactly_on_multi_lane_schedules() {
        let g = TrainGraph::single_gpu(7);
        let mut main = vec![Op::Loss];
        for i in (2..=7).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=7 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=7).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let sim = simulate(&g, &s, &UnitCost).unwrap();
        let pred = predict_makespan(&g, &s, &UnitCost).unwrap();
        assert_eq!(pred.makespan(), sim.makespan());
        for e in &sim.entries {
            assert_eq!(pred.start_of(e.op), Some(e.start), "{}", e.op);
            assert_eq!(pred.finish_of(e.op), Some(e.end), "{}", e.op);
        }
    }

    #[test]
    fn deadlock_is_an_error_not_a_prediction() {
        let g = TrainGraph::single_gpu(2);
        let mut s = Schedule::new();
        s.add_lane("a", vec![Op::WeightGrad(LayerId(1)), Op::Loss]);
        s.add_lane("b", vec![Op::OutputGrad(LayerId(2))]);
        assert!(matches!(
            predict_makespan(&g, &s, &UnitCost),
            Err(Error::DependencyViolation { .. })
        ));
    }

    #[test]
    fn critical_path_ends_at_makespan_and_is_a_chain() {
        let g = TrainGraph::single_gpu(5);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let p = predict_makespan(&g, &s, &UnitCost).unwrap();
        let chain = p.critical_ops();
        assert!(!chain.is_empty());
        assert_eq!(p.finish_of(*chain.last().unwrap()), Some(p.makespan()));
        for w in chain.windows(2) {
            assert_eq!(p.finish_of(w[0]), p.start_of(w[1]));
        }
    }

    /// Every schedule reachable by `DeltaEval` edits must score exactly
    /// like a fresh full prediction of the same placement.
    fn assert_delta_matches_full(g: &TrainGraph, de: &DeltaEval<'_>) {
        let full = predict_makespan(g, &de.to_schedule(), &UnitCost).unwrap();
        assert_eq!(de.makespan(), full.makespan(), "makespan diverged");
        for p in full.ops() {
            assert_eq!(de.start_of(p.op), Some(p.start), "{} start", p.op);
            assert_eq!(de.finish_of(p.op), Some(p.end), "{} end", p.op);
        }
    }

    #[test]
    fn delta_eval_matches_full_prediction_after_relocations() {
        let g = TrainGraph::single_gpu(6);
        let mut main = vec![Op::Loss];
        for i in (2..=6).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=6 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=6).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let mut de = DeltaEval::new(&g, &s, &UnitCost).unwrap();
        assert_delta_matches_full(&g, &de);

        // A sequence of legal single-op and block relocations, in-lane
        // and cross-lane, each checked against a full re-evaluation.
        de.relocate_many(&[
            (Op::WeightGrad(LayerId(6)), 1, 10),
            (Op::Update(LayerId(6)), 1, 11),
        ])
        .unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate(Op::WeightGrad(LayerId(1)), 0, 6).unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate_many(&[
            (Op::WeightGrad(LayerId(4)), 0, 3),
            (Op::Update(LayerId(4)), 0, 4),
        ])
        .unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate(Op::WeightGrad(LayerId(6)), 1, 6).unwrap();
        assert_delta_matches_full(&g, &de);

        // Delta evaluation did strictly less work than full passes would.
        assert!(de.rescored() < de.full_equivalent());
    }

    #[test]
    fn delta_eval_place_and_unplace_match_prediction() {
        let g = TrainGraph::single_gpu(5);
        let order = g.conventional_backprop();
        let mut de = DeltaEval::empty(&g, ["gpu"], &UnitCost);
        for &op in &order {
            de.place(0, op).unwrap();
        }
        assert_delta_matches_full(&g, &de);
        let full =
            predict_makespan(&g, &Schedule::single_lane("gpu", order.clone()), &UnitCost).unwrap();
        assert_eq!(de.makespan(), full.makespan());
        assert_eq!(de.unplace_last(0), Some(*order.last().unwrap()));
        assert_delta_matches_full(&g, &de);
    }

    #[test]
    fn delta_eval_rolls_back_deadlocking_edits() {
        let g = TrainGraph::single_gpu(4);
        let mut s = Schedule::new();
        s.add_lane("main", {
            let mut v = vec![Op::Loss];
            for i in (2..=4).rev() {
                v.push(Op::OutputGrad(LayerId(i)));
            }
            for i in 1..=4 {
                v.push(Op::Forward(LayerId(i)));
            }
            v
        });
        s.add_lane("sub", {
            let mut v = Vec::new();
            for i in (1..=4).rev() {
                v.push(Op::WeightGrad(LayerId(i)));
                v.push(Op::Update(LayerId(i)));
            }
            v
        });
        let mut de = DeltaEval::new(&g, &s, &UnitCost).unwrap();
        let before_schedule = de.to_schedule();
        let before_makespan = de.makespan();
        // U4 before its own dW4 deadlocks lane "sub".
        let err = de.relocate(Op::Update(LayerId(4)), 1, 0).unwrap_err();
        assert!(matches!(err, Error::DependencyViolation { .. }));
        assert_eq!(
            de.to_schedule(),
            before_schedule,
            "structure not rolled back"
        );
        assert_eq!(de.makespan(), before_makespan, "timing not rolled back");
        assert_delta_matches_full(&g, &de);
    }

    /// A fixed edit sequence: relocations (single, block, cross-lane), a
    /// deadlocking relocation, then appends and removals.
    fn fixed_edit_sequence(g: &TrainGraph) -> (u64, u64, Vec<SimTime>) {
        let mut main = vec![Op::Loss];
        for i in (2..=6).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=6 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=6).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let mut de = DeltaEval::new(g, &s, &UnitCost).unwrap();
        let mut seen = vec![de.makespan()];
        let edits: Vec<Vec<(Op, usize, usize)>> = vec![
            vec![
                (Op::WeightGrad(LayerId(6)), 1, 10),
                (Op::Update(LayerId(6)), 1, 11),
            ],
            vec![(Op::WeightGrad(LayerId(1)), 0, 6)],
            vec![
                (Op::WeightGrad(LayerId(4)), 0, 3),
                (Op::Update(LayerId(4)), 0, 4),
            ],
            vec![(Op::Update(LayerId(3)), 1, 0)],
            vec![(Op::WeightGrad(LayerId(6)), 1, 6)],
            vec![(Op::WeightGrad(LayerId(2)), 0, 1)],
        ];
        for e in &edits {
            seen.push(de.relocate_many(e).unwrap_or(0));
        }
        let mut b = DeltaEval::empty(g, ["gpu"], &UnitCost);
        for &op in &g.conventional_backprop() {
            seen.push(b.place(0, op).unwrap());
        }
        for _ in 0..5 {
            b.unplace_last(0);
            seen.push(b.makespan());
        }
        (
            de.rescored() + b.rescored(),
            de.full_equivalent() + b.full_equivalent(),
            seen,
        )
    }

    /// The work counters feed `cert`'s `delta_speedup`: the reusable
    /// scratch buffers must not change how many nodes an edit re-scores.
    /// The expected values were recorded from the allocating evaluator
    /// on the same edit sequence.
    #[test]
    fn delta_eval_counters_are_pinned_on_a_fixed_edit_sequence() {
        let g = TrainGraph::single_gpu(6);
        let (rescored, full, seen) = fixed_edit_sequence(&g);
        assert_eq!((rescored, full), (104, 573));
        assert_eq!(
            seen,
            [
                12, 12, 12, 13, 0, 13, 0, 0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 11,
                12, 13, 14, 15, 16, 17, 16, 15, 14, 13, 12
            ]
        );
    }

    fn two_lane_lazy(l: usize) -> Schedule {
        let mut main = vec![Op::Loss];
        for i in (2..=l).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=l {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=l).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        s
    }

    /// Everything observable about an evaluator's state, one line per op.
    fn snapshot(g: &TrainGraph, de: &DeltaEval<'_>) -> Vec<String> {
        g.ops()
            .iter()
            .map(|&op| {
                let (pos, start, end) = (de.position_of(op), de.start_of(op), de.finish_of(op));
                format!("{op} {pos:?} {start:?} {end:?}")
            })
            .collect()
    }

    #[test]
    fn deadlocking_batch_leaves_the_evaluator_unchanged() {
        let g = TrainGraph::single_gpu(5);
        let mut de = DeltaEval::new(&g, &two_lane_lazy(5), &UnitCost).unwrap();
        de.relocate(Op::WeightGrad(LayerId(5)), 0, 2).unwrap();
        let before = snapshot(&g, &de);
        let before_schedule = de.to_schedule();
        let before_makespan = de.makespan();
        // A cross-lane batch whose second op deadlocks: U4 ahead of dW4.
        let err = de
            .relocate_many(&[
                (Op::WeightGrad(LayerId(3)), 0, 4),
                (Op::Update(LayerId(4)), 1, 0),
            ])
            .unwrap_err();
        assert!(matches!(err, Error::DependencyViolation { .. }));
        assert_eq!(snapshot(&g, &de), before);
        assert_eq!(de.to_schedule(), before_schedule);
        assert_eq!(de.makespan(), before_makespan);
        // The next probe still scores exactly like a fresh prediction.
        de.relocate_many(&[
            (Op::WeightGrad(LayerId(2)), 0, 5),
            (Op::Update(LayerId(2)), 0, 6),
        ])
        .unwrap();
        assert_delta_matches_full(&g, &de);
    }

    #[test]
    fn cone_marks_survive_epoch_wrap_around() {
        let g = TrainGraph::single_gpu(5);
        let mut de = DeltaEval::new(&g, &two_lane_lazy(5), &UnitCost).unwrap();
        // Leave stale stamps from high epochs behind, then cross the
        // wrap: every pass must still see an empty cone to start from.
        de.scratch.epoch = u32::MAX - 3;
        let ops = [
            Op::WeightGrad(LayerId(5)),
            Op::WeightGrad(LayerId(3)),
            Op::WeightGrad(LayerId(1)),
        ];
        for step in 0..12 {
            let op = ops[step % ops.len()];
            let (lane, pos) = de.position_of(op).unwrap();
            let to = if lane == 0 {
                (1, step % 3)
            } else {
                (0, 3 + step % 4)
            };
            let _ = de.relocate(op, to.0, to.1);
            assert_delta_matches_full(&g, &de);
            let _ = de.relocate(op, lane, pos);
            assert_delta_matches_full(&g, &de);
        }
        assert!(de.scratch.epoch < 64, "the epoch did not wrap");
    }

    #[test]
    fn datapar_reconstruction_is_exact_for_both_policies() {
        for l in [4usize, 9, 16] {
            for k in [0, l / 3, l] {
                for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                    let g = TrainGraph::data_parallel(l);
                    let mut cost = TableCost::uniform(
                        l,
                        LayerCost {
                            sync_weight: 3,
                            ..LayerCost::default()
                        },
                    );
                    cost.layer_mut(LayerId(1)).sync_weight = 11;
                    let order = reverse_first_k(&g, k, None::<(u64, &TableCost)>).unwrap();
                    let sim = simulate_data_parallel(&g, &order, &cost, policy).unwrap();
                    let s = datapar_schedule(&g, &order, &cost, policy).unwrap();
                    let pred = predict_makespan(&g, &s, &cost).unwrap();
                    assert_eq!(pred.makespan(), sim.makespan(), "l={l} k={k}");
                    for e in &sim.entries {
                        assert_eq!(pred.finish_of(e.op), Some(e.end), "l={l} k={k} {}", e.op);
                    }
                }
            }
        }
    }
}
