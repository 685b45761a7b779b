//! Percentile selection with an honesty guard, and medians over passes.
//!
//! Percentiles use the workspace's one nearest-rank estimator
//! ([`hermes_util::stats::quantile_sorted`]). A percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie strictly beyond its
//! rank: a p99 over 40 samples is the second-largest value, not a tail.

use hermes_util::stats::{quantile_sorted, sort_samples};

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly above the nearest-rank index of `p` in `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize;
    n - 1 - rank.min(n - 1)
}

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    Some(quantile_sorted(&sorted, p))
}

/// The median of per-pass values (lower middle for even counts, so the
/// result is always one measured value). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort_samples(&mut sorted);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[(n - 1) / 2],
    }
}
