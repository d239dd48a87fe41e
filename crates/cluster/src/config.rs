//! Simulation configuration.

use pbrs_core::registry;
use pbrs_erasure::{CodeError, CodeSpec};

use crate::calibration::{PaperConstants, MB};
use crate::unavailability::UnavailabilityModel;

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of racks.
    pub racks: usize,
    /// Machines per rack.
    pub machines_per_rack: usize,
    /// Mean RS-coded blocks per machine that need reconstruction when the
    /// machine is flagged (Poisson-distributed per machine at setup). This is
    /// the *recovery demand* per qualifying outage, not the machine's total
    /// block population: HDFS-RAID's periodic scan only rebuilds blocks that
    /// are still missing when it runs, so outages that end quickly leave most
    /// of a machine's blocks untouched.
    pub mean_rs_blocks_per_machine: f64,
    /// Nominal HDFS block size in bytes (256 MiB in production).
    pub block_size_bytes: u64,
    /// Fraction of recovered blocks that are partial "tail" blocks (files do
    /// not align to 256 MiB, so the last block of a file is smaller).
    pub tail_block_fraction: f64,
    /// Mean size of a tail block, as a fraction of the full block size.
    pub tail_block_mean_fraction: f64,
    /// The storage scheme under test, built through the unified registry
    /// (`pbrs_core::registry`).
    pub code: CodeSpec,
    /// The machine-unavailability process.
    pub unavailability: UnavailabilityModel,
    /// Minutes a machine must be unavailable before recovery starts.
    pub detection_timeout_minutes: f64,
    /// Number of cluster-wide concurrent recovery tasks.
    pub recovery_slots: usize,
    /// Per-task recovery bandwidth in bytes per second (read + transfer of
    /// helper data; recovery time is bandwidth-bound, §3.2).
    pub recovery_bandwidth_bytes_per_sec: f64,
    /// Blocks grouped into one recovery task (scheduling granularity).
    pub blocks_per_recovery_task: usize,
    /// Number of stripes tracked explicitly for the degradation census
    /// (§2.2's 98.08 / 1.87 / 0.05 split).
    pub sampled_stripes: usize,
    /// Hours between degradation censuses.
    pub census_interval_hours: f64,
    /// Minutes after which an outage no longer degrades its stripes in the
    /// census (the blocks have been rebuilt elsewhere by then); applies to
    /// permanent failures in particular.
    pub census_heal_minutes: f64,
    /// Days to simulate.
    pub days: usize,
    /// RNG seed (fixed seed ⇒ reproducible runs; pairing seeds across code
    /// choices gives the paired comparison used for the >50 TB/day estimate).
    pub seed: u64,
}

impl SimConfig {
    /// The calibration matching the paper's warehouse cluster: 3,000
    /// machines in 150 racks, ~1,800 blocks needing reconstruction per
    /// qualifying outage, 256 MiB blocks with a tail-block mix, 15-minute
    /// detection, and a recovery pipeline sized so the RS(10,4)
    /// configuration lands on the published medians (~95,500 blocks and
    /// more than 180 TB cross-rack per day) while remaining demand-limited
    /// on a typical day (the assumption behind the paper's 50 TB/day saving
    /// estimate).
    pub fn facebook() -> Self {
        let constants = PaperConstants::published();
        let machines = constants.approx_machines;
        SimConfig {
            racks: 150,
            machines_per_rack: machines / 150,
            mean_rs_blocks_per_machine: 1900.0,
            block_size_bytes: constants.block_size_bytes,
            tail_block_fraction: 0.35,
            tail_block_mean_fraction: 0.45,
            code: CodeSpec::FACEBOOK_RS,
            unavailability: UnavailabilityModel::facebook(machines),
            detection_timeout_minutes: constants.detection_timeout_minutes,
            recovery_slots: 100,
            recovery_bandwidth_bytes_per_sec: 40.0 * MB as f64,
            blocks_per_recovery_task: 20,
            sampled_stripes: 20_000,
            census_interval_hours: 6.0,
            census_heal_minutes: 6.0 * 60.0,
            days: constants.recovery_window_days,
            seed: 0x2013_0228,
        }
    }

    /// A deliberately small configuration for fast unit and integration
    /// tests (hundreds of machines, few sampled stripes, 3 days).
    pub fn small_test() -> Self {
        let machines = 200;
        SimConfig {
            racks: 20,
            machines_per_rack: 10,
            mean_rs_blocks_per_machine: 500.0,
            block_size_bytes: 64 * MB,
            tail_block_fraction: 0.3,
            tail_block_mean_fraction: 0.5,
            code: CodeSpec::FACEBOOK_RS,
            unavailability: UnavailabilityModel {
                machines,
                base_events_per_day: 10.0,
                // The production spike magnitude (~130 machines) would take
                // down most of a 200-machine test cluster at once; scale it.
                spike_probability: 0.05,
                spike_extra_events: 10.0,
                ..UnavailabilityModel::facebook(machines)
            },
            detection_timeout_minutes: 15.0,
            recovery_slots: 20,
            recovery_bandwidth_bytes_per_sec: 40.0 * MB as f64,
            blocks_per_recovery_task: 10,
            sampled_stripes: 500,
            census_interval_hours: 6.0,
            census_heal_minutes: 6.0 * 60.0,
            days: 3,
            seed: 7,
        }
    }

    /// Total machines in the cluster.
    pub fn machines(&self) -> usize {
        self.racks * self.machines_per_rack
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for zero-sized dimensions or an
    /// unbuildable code choice, with a message naming the offending field.
    pub fn validate(&self) -> Result<(), CodeError> {
        if self.racks == 0 || self.machines_per_rack == 0 {
            return Err(CodeError::InvalidParams {
                reason: "racks and machines_per_rack must be positive".into(),
            });
        }
        if self.days == 0 {
            return Err(CodeError::InvalidParams {
                reason: "must simulate at least one day".into(),
            });
        }
        if self.recovery_slots == 0 || self.blocks_per_recovery_task == 0 {
            return Err(CodeError::InvalidParams {
                reason: "recovery_slots and blocks_per_recovery_task must be positive".into(),
            });
        }
        if self.recovery_bandwidth_bytes_per_sec <= 0.0 {
            return Err(CodeError::InvalidParams {
                reason: "recovery bandwidth must be positive".into(),
            });
        }
        let code = registry::build(&self.code)?;
        let width = code.params().total_shards();
        // The shared placement model owns this constraint: rack-disjoint
        // stripes need at least one rack per shard. Its typed error is
        // surfaced here instead of panicking deep in stripe generation.
        let racks = pbrs_placement::RackMap::uniform(self.racks, self.machines_per_rack);
        if let Err(e) = pbrs_placement::PlacementPolicy::RackDisjoint.validate_width(&racks, width)
        {
            return Err(CodeError::InvalidParams {
                reason: e.to_string(),
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::facebook()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_profile_is_valid_and_matches_paper_constants() {
        let c = SimConfig::facebook();
        c.validate().unwrap();
        assert_eq!(c.machines(), 3000);
        assert_eq!(c.block_size_bytes, 256 * 1024 * 1024);
        assert_eq!(c.days, 24);
        assert_eq!(c.detection_timeout_minutes, 15.0);
        assert_eq!(c.code, CodeSpec::FACEBOOK_RS);
        // The tail-block model implies an average recovered block around
        // 200 MB, consistent with the gap between 95,500x10x256MB and the
        // measured ~180 TB/day.
        let full = c.block_size_bytes as f64;
        let mean = (1.0 - c.tail_block_fraction) * full
            + c.tail_block_fraction * c.tail_block_mean_fraction * full;
        let mean_mb = mean / MB as f64;
        assert!(mean_mb > 180.0 && mean_mb < 220.0, "{mean_mb}");
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn small_test_profile_is_valid() {
        SimConfig::small_test().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig::small_test();
        c.racks = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small_test();
        c.days = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small_test();
        c.recovery_slots = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small_test();
        c.recovery_bandwidth_bytes_per_sec = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small_test();
        c.code = CodeSpec::ReedSolomon { k: 300, r: 10 };
        assert!(c.validate().is_err());

        // Stripe wider than the rack count cannot be placed rack-disjointly.
        let mut c = SimConfig::small_test();
        c.racks = 8;
        c.machines_per_rack = 25;
        c.unavailability.machines = 200;
        assert!(c.validate().is_err());
    }
}
