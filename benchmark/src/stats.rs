//! Order statistics over latency samples: medians, the percentile rule,
//! geometric means and the quartile spread the regression bounds are
//! judged against.

/// Ascending copy; NaNs (which no timer produces) would sort last.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The percentile rule: a tail percentile is reported only when at least
/// ten samples lie beyond it, so `p95` needs 200 samples and `p99` 1000.
pub fn tail_supported(samples: usize, p: f64) -> bool {
    samples as f64 * (100.0 - p) / 100.0 >= 10.0
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the driver's own spread rule.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 95.0), 190.0);
        // Exactly ten samples lie beyond the reported p95.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 95.0)).count(), 10);
        assert_eq!(percentile(&s, 100.0), 200.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
