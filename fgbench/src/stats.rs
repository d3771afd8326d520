//! Summary statistics over timing samples.

/// Fewest samples that must lie above a reported percentile, so a
/// tail figure is never set by one or two outliers.
pub const MIN_TAIL: usize = 10;

/// The percentiles a latency may be reported at, highest last.
pub const STANDARD_PERCENTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Nearest-rank rank (1-based) of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` (0.9 * 100 is not
    // exactly 90) from pushing the rank one past the intended sample.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples put at least [`MIN_TAIL`] beyond their
/// `p`-quantile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_TAIL
}

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it (or there are none).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    supports(samples.len(), p).then(|| quantile(samples, p))
}

/// The highest of [`STANDARD_PERCENTILES`] that `n` samples support
/// with [`MIN_TAIL`] samples beyond it.
pub fn highest_percentile(n: usize) -> Option<f64> {
    STANDARD_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| supports(n, p))
}

/// The nearest-rank `p`-quantile with no tail requirement (NaN when
/// empty).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The median (mean of the middle two for even counts; NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of positive values (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 of 100: rank 90, 10 beyond.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_grows_with_samples() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.50));
        assert_eq!(highest_percentile(99), Some(0.50));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn highest_percentile_is_always_reportable() {
        for n in [20, 57, 100, 640, 1000, 4321, 10_000] {
            let p = highest_percentile(n).unwrap();
            assert!(percentile(&ramp(n), p).is_some(), "n={n} p={p}");
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), 5.0);
    }
}
