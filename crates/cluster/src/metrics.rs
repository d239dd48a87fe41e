//! Per-day metrics and the simulation report.

use pbrs_trace::calibration::bytes_to_tb;
use pbrs_trace::stats::Summary;
use pbrs_trace::stripe_failures::StripeDegradation;

/// Everything the simulator measures for one day — the union of the series
/// plotted in Fig. 3a and Fig. 3b plus bookkeeping used by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DayMetrics {
    /// Day index (0-based).
    pub day: usize,
    /// Machines flagged unavailable for more than the detection timeout
    /// (the Fig. 3a series).
    pub machines_flagged: u64,
    /// RS-coded blocks reconstructed (the first Fig. 3b series).
    pub blocks_reconstructed: u64,
    /// Cross-rack bytes transferred for those reconstructions (the second
    /// Fig. 3b series).
    pub cross_rack_bytes: u64,
    /// Bytes read from helper disks.
    pub disk_bytes_read: u64,
    /// Block recoveries cancelled because their machine returned first.
    pub blocks_cancelled: u64,
    /// Recovery tasks completed.
    pub tasks_completed: u64,
    /// Machines down at the end of the day.
    pub machines_down_at_day_end: u64,
}

impl DayMetrics {
    /// Cross-rack traffic in (binary) terabytes.
    pub fn cross_rack_tb(&self) -> f64 {
        bytes_to_tb(self.cross_rack_bytes)
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Name of the erasure code the run used.
    pub code_name: String,
    /// Per-day metrics, in day order.
    pub days: Vec<DayMetrics>,
    /// Accumulated stripe-degradation census (§2.2 statistic).
    pub degradation: StripeDegradation,
    /// Number of censuses taken.
    pub censuses: u64,
    /// Total RS blocks stored in the simulated cluster.
    pub total_rs_blocks: u64,
    /// Average helper blocks downloaded per repaired block under the
    /// configured code (10.0 for RS(10,4)).
    pub average_blocks_per_repair: f64,
}

impl ClusterReport {
    /// Summary of the machines-flagged-per-day series (Fig. 3a).
    pub fn flagged_summary(&self) -> Summary {
        Summary::of_counts(
            &self
                .days
                .iter()
                .map(|d| d.machines_flagged)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of the blocks-reconstructed-per-day series (Fig. 3b).
    pub fn blocks_summary(&self) -> Summary {
        Summary::of_counts(
            &self
                .days
                .iter()
                .map(|d| d.blocks_reconstructed)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of the cross-rack-terabytes-per-day series (Fig. 3b).
    pub fn cross_rack_tb_summary(&self) -> Summary {
        Summary::of(
            &self
                .days
                .iter()
                .map(|d| d.cross_rack_tb())
                .collect::<Vec<_>>(),
        )
    }

    /// Total cross-rack bytes over the run.
    pub fn total_cross_rack_bytes(&self) -> u64 {
        self.days.iter().map(|d| d.cross_rack_bytes).sum()
    }

    /// Total blocks reconstructed over the run.
    pub fn total_blocks_reconstructed(&self) -> u64 {
        self.days.iter().map(|d| d.blocks_reconstructed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ClusterReport {
        ClusterReport {
            code_name: "RS(10, 4)".into(),
            days: vec![
                DayMetrics {
                    day: 0,
                    machines_flagged: 40,
                    blocks_reconstructed: 90_000,
                    cross_rack_bytes: 170 * 1024u64.pow(4),
                    disk_bytes_read: 170 * 1024u64.pow(4),
                    blocks_cancelled: 1000,
                    tasks_completed: 4500,
                    machines_down_at_day_end: 2,
                },
                DayMetrics {
                    day: 1,
                    machines_flagged: 60,
                    blocks_reconstructed: 110_000,
                    cross_rack_bytes: 210 * 1024u64.pow(4),
                    disk_bytes_read: 210 * 1024u64.pow(4),
                    blocks_cancelled: 500,
                    tasks_completed: 5500,
                    machines_down_at_day_end: 1,
                },
            ],
            degradation: StripeDegradation {
                one_missing: 981,
                two_missing: 18,
                three_plus_missing: 1,
            },
            censuses: 8,
            total_rs_blocks: 18_000_000,
            average_blocks_per_repair: 10.0,
        }
    }

    #[test]
    fn summaries_and_totals() {
        let r = report();
        assert_eq!(r.flagged_summary().median, 50.0);
        assert_eq!(r.blocks_summary().median, 100_000.0);
        assert!((r.cross_rack_tb_summary().median - 190.0).abs() < 1e-9);
        assert_eq!(r.total_blocks_reconstructed(), 200_000);
        assert_eq!(r.total_cross_rack_bytes(), 380 * 1024u64.pow(4));
        assert!((r.days[0].cross_rack_tb() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_percentages_follow_from_counts() {
        let r = report();
        assert!((r.degradation.one_missing_pct() - 98.1).abs() < 0.1);
    }
}
