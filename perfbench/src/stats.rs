//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile with linear interpolation between closest ranks; 0
/// for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| values.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, quantile(values, p / 100.0)))
}

/// Timing summary in the form every report line uses: the median, the
/// highest percentile with at least ten samples beyond it, and the count.
pub fn summary(values: &[f64], scale: f64, unit: &str) -> String {
    let tail = tail(values).map_or(String::new(), |(p, v)| format!(" p{p}={:.4}{unit}", v * scale));
    format!("p50={:.4}{unit}{tail} n={}", median(values) * scale, values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&v[..19]), None);
    }
}
