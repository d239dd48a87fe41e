//! The bandwidth-bound recovery-time model of §3.2.
//!
//! "At the scale of multiple megabytes, the system is limited by the network
//! and disk bandwidths, making the recovery time dependent only on the total
//! amount of data read and transferred." The [`TransferModel`] encodes
//! exactly that: recovery time is `bytes / bandwidth` plus a small
//! per-helper connection setup cost, so contacting more helpers (as
//! Piggybacked-RS does) barely matters while moving fewer bytes does.
//!
//! Cross-rack traffic is not counted here. Every block of a stripe lives on
//! a different rack (§2.1), so every helper byte crosses the TOR switches,
//! and the simulator adds each recovery's helper bytes to the
//! [`DayMetrics`](crate::metrics::DayMetrics) of the day it completes in.

/// The bandwidth-bound transfer/recovery-time model of §3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Sustained read+transfer bandwidth available to one recovery task, in
    /// bytes per second (disk and network are the joint bottleneck).
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed cost of opening a connection to one helper, in seconds.
    pub per_helper_setup_secs: f64,
}

impl TransferModel {
    /// The defaults used by the simulator: 40 MB/s per recovery task and
    /// 20 ms per helper connection.
    pub fn cluster_default(bandwidth_bytes_per_sec: f64) -> Self {
        TransferModel {
            bandwidth_bytes_per_sec,
            per_helper_setup_secs: 0.02,
        }
    }

    /// Time (seconds) to recover one block given the helper bytes to read
    /// and the number of helpers contacted.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn recovery_seconds(&self, bytes: u64, helpers: usize) -> f64 {
        assert!(
            self.bandwidth_bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        bytes as f64 / self.bandwidth_bytes_per_sec + helpers as f64 * self.per_helper_setup_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_time_is_dominated_by_bytes_not_helpers() {
        // The §3.2 argument: at multi-MB scale, contacting 13 helpers instead
        // of 10 is negligible next to moving 30% fewer bytes.
        let model = TransferModel::cluster_default(40.0 * 1024.0 * 1024.0);
        let block = 256u64 * 1024 * 1024;
        let rs_time = model.recovery_seconds(10 * block, 10);
        let pb_time = model.recovery_seconds((6.5 * block as f64) as u64, 11);
        assert!(pb_time < rs_time);
        assert!((rs_time / pb_time) > 1.4, "rs {rs_time} pb {pb_time}");
        // Helper setup is a tiny fraction of the total.
        let setup = 11.0 * model.per_helper_setup_secs;
        assert!(setup / pb_time < 0.01);
    }

    #[test]
    fn recovery_time_scales_linearly_with_bytes() {
        let model = TransferModel::cluster_default(100.0);
        let t1 = model.recovery_seconds(1000, 0);
        let t2 = model.recovery_seconds(2000, 0);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        TransferModel::cluster_default(0.0).recovery_seconds(1, 1);
    }
}
