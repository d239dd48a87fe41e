//! Property tests: the log-linear histogram against an exact-sort oracle.
//!
//! The claims under test are the ones the gateway's contract test relies
//! on when it cross-checks client percentiles against the gateway's:
//!
//! 1. every value lands in a bucket whose bounds contain it;
//! 2. a reported quantile falls in the same bucket as the exact
//!    order-statistic (so the error is at most one bucket width,
//!    ≤ 6.25% relative);
//! 3. quantiles are monotone in `q`;
//! 4. merging histograms is exactly recording the concatenation.

use pbrs_obs::hist::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram};
use proptest::prelude::*;

/// Exact order statistic matching the histogram's rank convention:
/// rank = ceil(q * n) clamped to [1, n], 1-indexed into the sorted data.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len() as u64;
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Latency-shaped values from raw bits: mostly small, a heavy tail, and
/// edge cases near bucket boundaries and the extremes of u64.
fn shape(raw: u64) -> u64 {
    match raw % 16 {
        0..=5 => (raw >> 4) % 1_000,                     // sub-millisecond (us)
        6..=11 => 1_000 + (raw >> 4) % 999_000,          // 1 ms .. 1 s
        12 | 13 => 1_000_000 + (raw >> 4) % 599_000_000, // 1 s .. 10 min
        14 => match (raw >> 4) % 4 {
            0 => 0,
            1 => 15, // last unit bucket
            2 => 16, // first log-linear bucket
            _ => u64::MAX,
        },
        _ => raw >> 4, // anything
    }
}

proptest! {
    #[test]
    fn every_value_is_inside_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {i} [{lo},{hi}]");
    }

    #[test]
    fn quantile_within_one_bucket_of_oracle(
        values in collection::vec(any::<u64>().prop_map(shape), 1..400),
        qs in collection::vec(0.0f64..1.0, 1..8),
    ) {
        let snap = snapshot_of(&values);
        let mut sorted = values;
        sorted.sort_unstable();
        for q in qs.into_iter().chain([0.0, 0.5, 0.95, 0.99, 1.0]) {
            let exact = exact_quantile(&sorted, q);
            let est = snap.value_at_quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(
                est >= lo && est <= hi,
                "q={q}: est {est} not in oracle's bucket [{lo},{hi}] (exact {exact})"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone(
        values in collection::vec(any::<u64>().prop_map(shape), 1..300),
    ) {
        let snap = snapshot_of(&values);
        let mut prev = 0u64;
        for step in 0..=40 {
            let q = step as f64 / 40.0;
            let v = snap.value_at_quantile(q);
            prop_assert!(v >= prev, "q={q}: {v} < previous {prev}");
            prev = v;
        }
        prop_assert_eq!(snap.value_at_quantile(1.0), snap.max());
    }

    #[test]
    fn merge_matches_concatenated_recording(
        a in collection::vec(any::<u64>().prop_map(shape), 1..200),
        b in collection::vec(any::<u64>().prop_map(shape), 1..200),
    ) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut concat = a;
        concat.extend_from_slice(&b);
        prop_assert_eq!(merged, snapshot_of(&concat));
    }

    #[test]
    fn mean_is_exact(values in collection::vec(0u64..10_000_000, 1..300)) {
        let snap = snapshot_of(&values);
        let exact = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((snap.mean() - exact).abs() < 1e-6);
    }
}
