//! The paper's reported measurements, as constants.
//!
//! Every number here is taken from the text of the paper and is used in two
//! ways: (a) to calibrate the synthetic failure/workload models, and (b) as
//! the targets the `paper_scorecard` binary in `pbrs-bench` checks.

/// Constants reported by the paper for Facebook's warehouse cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperConstants {
    /// HDFS block size: "partitioned into blocks of size 256 MB" (§2.1).
    pub block_size_bytes: u64,
    /// Data blocks per stripe: "(10, 4) RS code" (§2.1).
    pub rs_data_blocks: usize,
    /// Parity blocks per stripe (§2.1).
    pub rs_parity_blocks: usize,
    /// Storage overhead of the production code: "1.4x storage requirement"
    /// (§1).
    pub rs_storage_overhead: f64,
    /// Storage overhead of replication: "3x under conventional replication"
    /// (§1).
    pub replication_overhead: f64,
    /// Median machine-unavailability events per day: "The median is more
    /// than 50 machine-unavailability events per day" (§2.2, Fig. 3a).
    pub median_unavailability_events_per_day: f64,
    /// Detection grace period: "15 minutes is the default wait-time of the
    /// cluster to flag a machine as unavailable" (§2.2).
    pub detection_timeout_minutes: f64,
    /// Median RS blocks reconstructed per day: "A median of 95,500 blocks of
    /// RS-coded data are required to be recovered each day" (§2.2, Fig. 3b).
    pub median_blocks_reconstructed_per_day: f64,
    /// Median cross-rack recovery traffic per day: "a median of more than
    /// 180 TB of data is transferred through the TOR switches every day"
    /// (§2.2, Fig. 3b).
    pub median_cross_rack_recovery_tb_per_day: f64,
    /// Stripe-degradation split: "98.08% have exactly one block missing"
    /// (§2.2).
    pub stripes_with_one_missing_pct: f64,
    /// "The percentage of stripes with two blocks missing is 1.87%" (§2.2).
    pub stripes_with_two_missing_pct: f64,
    /// "with three or more blocks missing is 0.05%" (§2.2).
    pub stripes_with_three_plus_missing_pct: f64,
    /// Theoretical single-failure recovery saving of the proposed code:
    /// "reduces the ... bandwidth requirement by 30%" (§3.2).
    pub piggyback_recovery_saving: f64,
    /// Estimated cross-rack traffic reduction: "a reduction of more than
    /// 50 TB of cross-rack traffic per day" (§3.2).
    pub estimated_traffic_reduction_tb_per_day: f64,
    /// Order of magnitude of cluster size: "a few thousand machines" (§1,
    /// §2.1). Used as the default simulated machine count.
    pub approx_machines: usize,
    /// Per-machine raw capacity: "24-36 TB" (§2.1), midpoint in bytes.
    pub machine_capacity_bytes: u64,
    /// RS-coded data across the two clusters: "more than ten petabytes"
    /// (§2.1), in bytes.
    pub rs_coded_data_bytes: u64,
    /// Measurement window of Fig. 3a in days ("22nd Jan. to 24th Feb. 2013").
    pub unavailability_window_days: usize,
    /// Measurement window of Fig. 3b in days ("first 24 days of Feb. 2013").
    pub recovery_window_days: usize,
}

impl PaperConstants {
    /// The published values.
    pub const fn published() -> Self {
        PaperConstants {
            block_size_bytes: 256 * 1024 * 1024,
            rs_data_blocks: 10,
            rs_parity_blocks: 4,
            rs_storage_overhead: 1.4,
            replication_overhead: 3.0,
            median_unavailability_events_per_day: 50.0,
            detection_timeout_minutes: 15.0,
            median_blocks_reconstructed_per_day: 95_500.0,
            median_cross_rack_recovery_tb_per_day: 180.0,
            stripes_with_one_missing_pct: 98.08,
            stripes_with_two_missing_pct: 1.87,
            stripes_with_three_plus_missing_pct: 0.05,
            piggyback_recovery_saving: 0.30,
            estimated_traffic_reduction_tb_per_day: 50.0,
            approx_machines: 3000,
            machine_capacity_bytes: 30 * TB,
            rs_coded_data_bytes: 10 * PB,
            unavailability_window_days: 34,
            recovery_window_days: 24,
        }
    }

    /// The full stripe width `k + r`.
    pub const fn stripe_width(&self) -> usize {
        self.rs_data_blocks + self.rs_parity_blocks
    }

    /// Cross-rack bytes moved to recover a single full-size block under the
    /// production RS code (`k` whole blocks).
    pub const fn rs_bytes_per_block_recovery(&self) -> u64 {
        self.block_size_bytes * self.rs_data_blocks as u64
    }
}

impl Default for PaperConstants {
    fn default() -> Self {
        Self::published()
    }
}

/// One kibibyte-free terabyte (10^12 bytes are *not* used; storage systems in
/// the paper report binary units, so TB here is 2^40 bytes).
pub const TB: u64 = 1024 * 1024 * 1024 * 1024;

/// One petabyte (2^50 bytes).
pub const PB: u64 = 1024 * TB;

/// One gigabyte (2^30 bytes).
pub const GB: u64 = 1024 * 1024 * 1024;

/// One megabyte (2^20 bytes).
pub const MB: u64 = 1024 * 1024;

/// Converts a byte count to (binary) terabytes as a float, for reporting.
pub fn bytes_to_tb(bytes: u64) -> f64 {
    bytes as f64 / TB as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_values_are_self_consistent() {
        let c = PaperConstants::published();
        assert_eq!(c.stripe_width(), 14);
        assert!((c.rs_storage_overhead - 1.4).abs() < 1e-12);
        assert_eq!(c.block_size_bytes, 268_435_456);
        assert_eq!(c.rs_bytes_per_block_recovery(), 10 * 268_435_456);
        // The three stripe-degradation percentages sum to 100%.
        let total = c.stripes_with_one_missing_pct
            + c.stripes_with_two_missing_pct
            + c.stripes_with_three_plus_missing_pct;
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(PaperConstants::default(), c);
    }

    #[test]
    fn implied_daily_traffic_is_in_the_measured_ballpark() {
        // Sanity check that the paper's own numbers hang together: 95,500
        // recoveries/day x 10 blocks x 256MB = ~233 TB/day if every block
        // were full-size; the measured median of ~180 TB/day implies an
        // average recovered-block size of ~198 MB (files do not align to
        // 256 MB, so tail blocks are smaller). The simulator's block-size
        // model reproduces this gap.
        let c = PaperConstants::published();
        let full = c.median_blocks_reconstructed_per_day
            * c.rs_data_blocks as f64
            * bytes_to_tb(c.block_size_bytes);
        assert!(full > 225.0 && full < 245.0, "{full}");
        let implied_avg_block_mb = c.median_cross_rack_recovery_tb_per_day * TB as f64
            / (c.median_blocks_reconstructed_per_day * c.rs_data_blocks as f64)
            / MB as f64;
        assert!(implied_avg_block_mb > 150.0 && implied_avg_block_mb < 256.0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(TB, 1 << 40);
        assert_eq!(PB, 1 << 50);
        assert!((bytes_to_tb(TB) - 1.0).abs() < 1e-12);
        assert!((bytes_to_tb(512 * GB) - 0.5).abs() < 1e-12);
    }
}
