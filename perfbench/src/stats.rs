//! Quantiles as exact order statistics of raw samples.
//!
//! No histogram is involved: every timed operation keeps its own sample,
//! and a quantile is the nearest-rank order statistic of the sorted
//! samples, so a reported value is always one that was measured.

/// Percentiles the tail rule may pick, in parts per ten thousand.
const TAIL_LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
const TAIL_MIN_BEYOND: u64 = 10;

/// Nearest-rank rank (1-based) of the `per10k / 10 000` quantile among
/// `n` samples: `ceil(n · q)`, at least 1. Integer arithmetic, so
/// `0.99 × 1000` is exactly rank 990.
fn rank(n: u64, per10k: u64) -> u64 {
    (n * per10k).div_ceil(10_000).max(1)
}

/// The nearest-rank `per10k / 10 000` quantile of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], per10k: u64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let r = rank(sorted.len() as u64, per10k);
    sorted[(r - 1) as usize]
}

/// The tail rule: the highest ladder percentile (p50, p90, p99, p99.9,
/// p99.99) with at least [`TAIL_MIN_BEYOND`] of `n` samples strictly
/// beyond its rank. Falls back to the median when even p50 has fewer.
/// Returned in parts per ten thousand.
#[must_use]
pub fn tail_per10k(n: u64) -> u64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Nearest-rank median of `values` (reordered in place); 0 when empty.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 5_000)
}

/// Median and tail of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: u64,
    /// Exact median (nearest rank).
    pub p50: f64,
    /// Percentile the tail rule picked, in parts per ten thousand.
    pub tail_per10k: u64,
    /// The value at that percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (reordered in place). `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as u64;
        let tail_per10k = tail_per10k(n);
        Some(Self {
            n,
            p50: quantile_sorted(samples, 5_000),
            tail_per10k,
            tail: quantile_sorted(samples, tail_per10k),
        })
    }
}

/// A percentile in parts per ten thousand as a label, e.g. `p99.9`.
#[must_use]
pub fn percentile_label(per10k: u64) -> String {
    format!("p{}", per10k as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_order_statistics() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 5_000), 500.0);
        assert_eq!(quantile_sorted(&sorted, 9_900), 990.0);
        assert_eq!(quantile_sorted(&sorted, 9_990), 999.0);
        assert_eq!(quantile_sorted(&sorted, 10_000), 1000.0);
        assert_eq!(quantile_sorted(&[7.0], 9_900), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // p99 of 1000 samples has exactly 10 beyond it; p99.9 only 1.
        assert_eq!(tail_per10k(1000), 9_900);
        assert_eq!(tail_per10k(999), 9_000);
        assert_eq!(tail_per10k(100), 9_000);
        assert_eq!(tail_per10k(99), 5_000);
        assert_eq!(tail_per10k(10_000), 9_990);
        assert_eq!(tail_per10k(100_000), 9_999);
        // Too few samples for any percentile: the median stands in.
        assert_eq!(tail_per10k(5), 5_000);
        assert_eq!(tail_per10k(1), 5_000);
        for n in 20..5_000u64 {
            let p = tail_per10k(n);
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(
                    n - rank(n, higher) < TAIL_MIN_BEYOND,
                    "n={n} skipped {higher}"
                );
            }
        }
    }

    #[test]
    fn summary_reports_median_and_tail_from_raw_samples() {
        let mut samples: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = Summary::of(&mut samples).expect("non-empty");
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.tail_per10k, 9_900);
        assert_eq!(s.tail, 1979.0);
        assert_eq!(percentile_label(s.tail_per10k), "p99");
        assert_eq!(percentile_label(9_990), "p99.9");
        assert_eq!(Summary::of(&mut []), None);
    }
}
