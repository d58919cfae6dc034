//! Seeded open-loop arrival schedules.

use ucam_sim::population::SplitMix64;

/// Arrival offsets, in seconds from the start of the window, of a
/// Poisson process of `rate_per_s` over `window_s`: exponential gaps
/// drawn from `seed`, so one seed always yields one schedule.
///
/// # Panics
///
/// Panics when the rate is not positive.
#[must_use]
pub fn poisson(seed: u64, rate_per_s: f64, window_s: f64) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * window_s * 1.2) as usize + 8);
    loop {
        // `next_unit` is in [0, 1); 1 - u is in (0, 1], so ln is finite.
        at += -(1.0 - rng.next_unit()).ln() / rate_per_s;
        if at >= window_s {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(42, 300.0, 10.0);
        let b = poisson(42, 300.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson(43, 300.0, 10.0));
    }

    #[test]
    fn schedule_is_sorted_bounded_and_at_rate() {
        let s = poisson(7, 500.0, 20.0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&t| (0.0..20.0).contains(&t)));
        // 10 000 expected arrivals; the Poisson sd is 100.
        let n = s.len() as f64;
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
        // Exponential gaps: the coefficient of variation is ~1.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }
}
