//! Order statistics for latency samples.

/// The `q`-quantile (`0 <= q <= 1`) of `sorted` by linear interpolation
/// between closest ranks; `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile:
/// the samples ranked above `ceil(n * pct / 100)`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let kept = (n as f64 * pct / 100.0).ceil() as usize;
    n.saturating_sub(kept)
}

/// The highest percentile, among `candidates`, that leaves at least
/// `min_beyond` of `n` samples beyond it; `None` when none does.
///
/// The benchmark fixes one candidate per workload, so a run that falls
/// short of it can be reported instead of silently using a lower one.
pub fn highest_supported_percentile(
    n: usize,
    candidates: &[f64],
    min_beyond: usize,
) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 keeps 90, leaving exactly 10 beyond; p95
        // leaves 5, too few.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        let grid = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9];
        assert_eq!(highest_supported_percentile(100, &grid, 10), Some(90.0));
        // 1000 samples: p99 leaves 10, p99.5 only 5.
        assert_eq!(highest_supported_percentile(1000, &grid, 10), Some(99.0));
        // 2000 samples: p99.5 leaves exactly 10.
        assert_eq!(highest_supported_percentile(2000, &grid, 10), Some(99.5));
        // 199 samples: p95 keeps ceil(189.05) = 190 and leaves 9.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_supported_percentile(199, &grid, 10), Some(90.0));
        // Too few samples for any candidate.
        assert_eq!(highest_supported_percentile(15, &grid, 10), None);
    }
}
