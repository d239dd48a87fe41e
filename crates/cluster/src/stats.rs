//! Summary statistics (mean, median, percentiles) of per-day series.

/// Summary statistics of a numeric series (medians and percentiles are
/// computed by linear interpolation between order statistics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty series).
    pub mean: f64,
    /// Minimum (0 for an empty series).
    pub min: f64,
    /// Maximum (0 for an empty series).
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics of a series.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        // pbrs-lint: allow(panic-hygiene) -- summary inputs are finite measurements; NaN is structurally impossible
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summaries"));
        Summary {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p10: percentile_sorted(&sorted, 10.0),
            p90: percentile_sorted(&sorted, 90.0),
            std_dev: variance.sqrt(),
        }
    }

    /// Convenience constructor from integer counts.
    pub fn of_counts(values: &[u64]) -> Self {
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Self::of(&as_f64)
    }
}

/// Percentile (0–100) of a sorted, non-empty series, by linear
/// interpolation between order statistics.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_and_single() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let s = Summary::of(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_of_known_series() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - core::f64::consts::SQRT_2).abs() < 1e-12);
        // Order must not matter.
        let shuffled = Summary::of(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!(s, shuffled);
    }

    #[test]
    fn median_even_length_interpolates() {
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).median, 2.5);
        assert_eq!(Summary::of(&[10.0, 20.0]).median, 15.0);
        assert_eq!(Summary::of(&[]).median, 0.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 25.0), 25.0);
        let s = Summary::of(&v);
        assert_eq!((s.p10, s.median, s.p90), (10.0, 50.0, 90.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_out_of_range_panics() {
        percentile_sorted(&[1.0], 101.0);
    }

    #[test]
    fn counts_helper() {
        let s = Summary::of_counts(&[10, 20, 30]);
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.median, 20.0);
    }
}
