//! Order statistics for latency samples.

/// Samples that must lie above a reported percentile. With fewer, the
/// "percentile" is the maximum of a handful of draws, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `[0, 1]`) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`]
/// samples rank strictly above it.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Median of an unsorted sample (0 for an empty one).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut s = vec![3.0, f64::INFINITY, 1.0, 2.0];
        s.sort_by(f64::total_cmp);
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert!(percentile(&s, 1.0).is_infinite());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: rank 990 leaves exactly ten above it.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p90 needs 100, the median 20.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_mean_ratio() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
