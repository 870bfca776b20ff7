//! Combined scheduling across parallelism dimensions (the paper's
//! Section 6).
//!
//! A first-order model of hybrid data+pipeline training: `replicas`
//! pipeline groups train data-parallel; after each pipeline iteration the
//! per-layer weight gradients are synchronized across replicas over each
//! node's NIC. Reverse first-k scheduling decides the *priority order* of
//! those synchronizations, and gradient fast-forwarding shapes the
//! pipeline itself — the combination the paper sketches and leaves the
//! optimal split of as future work.

use crate::pipeline::run as run_pipeline;
use crate::{Error, Result, SimTime};
use ooo_core::pipeline::{PipelineResult, Strategy, TaskKind};
use ooo_core::trace::Timeline;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::commsim::{
    intervals_to_lane, simulate_queue_recorded, total_finish, CommRequest, Policy, ServiceInterval,
};
use ooo_netsim::link::LinkSpec;

/// Result of a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// Steady-state iteration time including exposed synchronization.
    pub iter_ns: SimTime,
    /// Global throughput (samples/s across all replicas).
    pub throughput: f64,
    /// The split point used, clamped to the layer count.
    pub k: usize,
    /// The pipeline simulation of one replica.
    pub result: PipelineResult,
    /// The cross-replica gradient synchronizations of the final
    /// simulated iteration, aligned to that iteration's start; `None`
    /// without a data-parallel dimension.
    sync: Option<Vec<ServiceInterval>>,
}

impl HybridReport {
    /// Renders the run as a [`Timeline`]: the pipeline's per-device lanes
    /// (with explicit bubble stalls) plus a `sync` lane for the
    /// cross-replica gradient synchronizations.
    pub fn to_timeline(&self, name: &str) -> Timeline {
        let mut tl = self.result.to_timeline(name);
        if let Some(sync) = &self.sync {
            tl.lanes
                .push(intervals_to_lane("sync", sync, |i| format!("S[dW{i}]")));
        }
        tl
    }
}

/// Runs hybrid data+pipeline training with reverse-first-k applied to the
/// first `k` layers' synchronizations.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero replicas and propagates
/// pipeline-simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_combined(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    k: usize,
    iterations: usize,
) -> Result<HybridReport> {
    if replicas == 0 {
        return Err(Error::InvalidConfig("replicas must be at least 1".into()));
    }
    let l = model.num_layers();
    let k = k.min(l);
    // Debug builds re-check the Section 6 combination implied by this
    // split: reverse first-k over layers 1..=k, fast-forwarding for the
    // rest, against the data-parallel dependency graph whose S[dW] edges
    // model the cross-replica synchronizations prioritized below.
    crate::checks::schedule_lazy(
        || {
            let graph = ooo_core::graph::TrainGraph::data_parallel(l);
            let order = ooo_core::combined::combined_backward_order(&graph, k)
                .expect("k clamped to the layer count");
            (graph, ooo_core::Schedule::single_lane("gpu", order))
        },
        false,
        "combined reverse first-k + fast-forwarding order",
    );
    let pipeline = run_pipeline(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        devices,
        Strategy::OooPipe2,
        1,
        iterations,
    )?;
    let iter = pipeline.iter_ns;
    let mut report = HybridReport {
        iter_ns: iter,
        throughput: batch as f64 * 1e9 / iter.max(1) as f64,
        k,
        result: pipeline.result,
        sync: None,
    };
    if replicas == 1 {
        // No data-parallel dimension: pure pipeline.
        return Ok(report);
    }

    // Gradient synchronization across replicas: one request per layer,
    // ready when the layer's last dW of the final simulated iteration
    // completed, prioritized so that the first k layers go out first
    // (reverse first-k), the rest by completion order.
    let last_iter = iterations.saturating_sub(1);
    let mut ready = vec![0u64; l + 1];
    let mut iter_start = SimTime::MAX;
    for e in &report.result.events {
        if e.task.iter == last_iter {
            iter_start = iter_start.min(e.start);
            if e.task.kind == TaskKind::WeightGrad && e.task.layer <= l {
                ready[e.task.layer] = ready[e.task.layer].max(e.end);
            }
        }
    }
    let iter_start = if iter_start == SimTime::MAX {
        0
    } else {
        iter_start
    };
    let n = replicas as f64;
    let requests: Vec<CommRequest> = (1..=l)
        .map(|i| CommRequest {
            id: i,
            bytes: (2.0 * (n - 1.0) / n * model.layers[i - 1].param_bytes as f64) as u64,
            ready_ns: ready[i].saturating_sub(iter_start),
            priority: if i <= k { i as i64 } else { 1_000 + i as i64 },
        })
        .collect();
    let (completions, intervals) =
        simulate_queue_recorded(sync_link, 512 * 1024, Policy::Priority, &requests);
    // The queue runs in iteration-relative time; shift its intervals to
    // the final iteration's start so the sync lane lines up with the
    // pipeline lanes.
    report.sync = Some(
        intervals
            .iter()
            .map(|iv| ServiceInterval {
                start_ns: iv.start_ns + iter_start,
                end_ns: iv.end_ns + iter_start,
                ..*iv
            })
            .collect(),
    );
    // Exposed synchronization: whatever finishes after the pipeline's own
    // iteration time delays the next iteration.
    report.iter_ns = iter.max(total_finish(&completions));
    report.throughput = (batch * replicas) as f64 * 1e9 / report.iter_ns.max(1) as f64;
    Ok(report)
}

/// Searches the split `k` with the concave heuristic and returns the best
/// report.
///
/// # Errors
///
/// Propagates pipeline-simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_combined_best_k(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    iterations: usize,
) -> Result<HybridReport> {
    let l = model.num_layers();
    let k = ooo_core::combined::choose_split_k(l, |k| {
        run_combined(
            model,
            batch,
            micro_batches,
            gpu,
            intra_link,
            sync_link,
            devices,
            replicas,
            k,
            iterations,
        )
        .map(|r| r.throughput)
        .unwrap_or(f64::NEG_INFINITY)
    });
    run_combined(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        sync_link,
        devices,
        replicas,
        k,
        iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::bert;

    #[test]
    fn single_replica_equals_pure_pipeline() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let hybrid = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 1, 0, 4).unwrap();
        let pure = run_pipeline(&m, 96, 4, &gpu, &nv, 4, Strategy::OooPipe2, 1, 4).unwrap();
        assert_eq!(hybrid.iter_ns, pure.iter_ns);
    }

    #[test]
    fn replication_adds_sync_cost_but_scales_throughput() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_25g();
        let one = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 1, 0, 4).unwrap();
        let four = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 0, 4).unwrap();
        assert!(four.iter_ns >= one.iter_ns);
        assert!(four.throughput > one.throughput);
    }

    #[test]
    fn traced_hybrid_aligns_sync_with_pipeline_lanes() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let r = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 2, 4).unwrap();
        let tl = r.to_timeline("hybrid");
        tl.validate().unwrap();
        let plain = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 2, 4).unwrap();
        assert_eq!(r.iter_ns, plain.iter_ns);
        let summary = tl.summarize();
        assert!(summary.lane("gpu0").is_some(), "pipeline lanes missing");
        assert!(summary.lane("sync").unwrap().busy_ns > 0, "sync lane idle");
    }

    #[test]
    fn best_k_no_worse_than_k_zero() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let base = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 0, 4).unwrap();
        let best = run_combined_best_k(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 4).unwrap();
        assert!(best.throughput >= base.throughput * 0.999);
    }

    #[test]
    fn zero_replicas_rejected_and_k_clamped() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        match run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 0, 0, 4) {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("replicas"), "{msg}"),
            other => panic!("zero replicas accepted: {other:?}"),
        }
        let deep = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 1_000, 4).unwrap();
        let full = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, m.num_layers(), 4).unwrap();
        assert_eq!(deep.k, m.num_layers());
        assert_eq!(deep.iter_ns, full.iter_ns);
    }
}
