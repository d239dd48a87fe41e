//! The warehouse-cluster simulator.
//!
//! [`Simulator::run`] executes the discrete-event loop: machine outages
//! arrive from the calibrated unavailability process, outages longer than
//! the detection timeout enqueue the machine's RS-coded blocks for
//! reconstruction, a bounded pool of recovery slots works through the queue
//! at a bandwidth-bound rate using the configured code's repair plans, and
//! every completed reconstruction adds its helper bytes to that day's
//! cross-rack traffic. Periodic censuses of a sampled stripe population
//! produce the §2.2 degradation statistics.

use pbrs_core::registry;
use pbrs_erasure::CodeSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::SimConfig;
use crate::event::{Event, EventQueue, SimTime};
use crate::failure::MachineFleet;
use crate::metrics::{ClusterReport, DayMetrics};
use crate::network::TransferModel;
use crate::placement::PlacementPolicy;
use crate::recovery::{BlockSizeModel, RecoveryManager, RepairCostTable};
use crate::stripes::StripeSample;
use crate::topology::{MachineId, Topology};

/// Minutes per simulated day.
const MINUTES_PER_DAY: f64 = 24.0 * 60.0;

/// The discrete-event warehouse-cluster simulator.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Simulator::try_new`] to
    /// handle the error instead.
    pub fn new(config: SimConfig) -> Self {
        // pbrs-lint: allow(panic-hygiene) -- documented panicking convenience constructor; try_new is the fallible path
        Self::try_new(config).expect("invalid simulation configuration")
    }

    /// Creates a simulator, returning the configuration error if any.
    ///
    /// # Errors
    ///
    /// Returns the validation error from [`SimConfig::validate`].
    pub fn try_new(config: SimConfig) -> Result<Self, pbrs_erasure::CodeError> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> ClusterReport {
        let config = self.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let horizon = config.days as f64 * MINUTES_PER_DAY;

        // Static cluster state.
        let topology = Topology::new(config.racks, config.machines_per_rack);
        let mut fleet = MachineFleet::new(
            &mut rng,
            topology.machines(),
            config.mean_rs_blocks_per_machine,
        );
        let policy = PlacementPolicy::new(&topology);
        // pbrs-lint: allow(panic-hygiene) -- config.code was validated by try_new before reaching here
        let code = registry::build(&config.code).expect("configuration was validated");
        let cost_table = RepairCostTable::for_code(code.as_ref());
        let stripe_width = cost_table.stripe_width;
        let mut stripes =
            StripeSample::generate(&mut rng, &policy, config.sampled_stripes, stripe_width);
        let mut recovery = RecoveryManager::new(
            cost_table,
            BlockSizeModel {
                block_size_bytes: config.block_size_bytes,
                tail_fraction: config.tail_block_fraction,
                tail_mean_fraction: config.tail_block_mean_fraction,
            },
            TransferModel::cluster_default(config.recovery_bandwidth_bytes_per_sec),
            config.recovery_slots,
            config.blocks_per_recovery_task as u64,
        );

        // Metrics.
        let mut days: Vec<DayMetrics> = (0..config.days)
            .map(|day| DayMetrics {
                day,
                ..DayMetrics::default()
            })
            .collect();
        let mut cancelled_seen = 0u64;

        // Event bootstrap.
        let mut queue = EventQueue::new();
        for e in config.unavailability.generate(&mut rng, config.days) {
            queue.schedule(
                e.start_minute,
                Event::MachineDown {
                    machine: MachineId(e.machine),
                    until: e.start_minute + e.duration_minutes,
                },
            );
        }
        let census_interval = config.census_interval_hours * 60.0;
        if !stripes.is_empty() && census_interval > 0.0 {
            queue.schedule(census_interval, Event::StripeCensus);
        }
        for day in 0..config.days {
            queue.schedule(
                (day + 1) as f64 * MINUTES_PER_DAY - 1e-6,
                Event::DayEnd { day },
            );
        }

        // Main loop.
        while let Some((now, event)) = queue.pop() {
            if now >= horizon {
                break;
            }
            let day = Self::day_of(now, config.days);
            match event {
                Event::MachineDown { machine, until } => {
                    if let Some(incarnation) = fleet.mark_down(machine, now) {
                        queue.schedule_in(
                            config.detection_timeout_minutes,
                            Event::DetectFailure {
                                machine,
                                incarnation,
                            },
                        );
                        if until.is_finite() {
                            queue.schedule(
                                until.max(now),
                                Event::MachineUp {
                                    machine,
                                    incarnation,
                                },
                            );
                        }
                    }
                }
                Event::MachineUp {
                    machine,
                    incarnation,
                } => {
                    if fleet.mark_up(machine, incarnation) {
                        recovery.cancel_machine(machine, incarnation);
                        Self::sync_cancelled(&recovery, &mut cancelled_seen, &mut days[day]);
                    }
                }
                Event::DetectFailure {
                    machine,
                    incarnation,
                } => {
                    if fleet.is_down_with(machine, incarnation) {
                        days[day].machines_flagged += 1;
                        recovery.enqueue(machine, incarnation, fleet.rs_blocks(machine));
                        Self::dispatch(&mut recovery, &mut rng, &fleet, &mut queue);
                        Self::sync_cancelled(&recovery, &mut cancelled_seen, &mut days[day]);
                    }
                }
                Event::RecoveryTaskDone {
                    blocks,
                    cross_rack_bytes,
                    ..
                } => {
                    recovery.task_finished();
                    days[day].blocks_reconstructed += blocks;
                    days[day].cross_rack_bytes += cross_rack_bytes;
                    days[day].disk_bytes_read += cross_rack_bytes;
                    days[day].tasks_completed += 1;
                    Self::dispatch(&mut recovery, &mut rng, &fleet, &mut queue);
                    Self::sync_cancelled(&recovery, &mut cancelled_seen, &mut days[day]);
                }
                Event::StripeCensus => {
                    stripes.census(&fleet.down_mask_recent(now, config.census_heal_minutes));
                    if now + census_interval < horizon {
                        queue.schedule_in(census_interval, Event::StripeCensus);
                    }
                }
                Event::DayEnd { day } => {
                    days[day].machines_down_at_day_end = fleet.down_count() as u64;
                }
            }
        }

        let average_blocks_per_repair = recovery.cost_table().average_blocks_downloaded();
        ClusterReport {
            code_name: recovery.cost_table().code_name.clone(),
            days,
            degradation: *stripes.degradation(),
            censuses: stripes.censuses(),
            total_rs_blocks: fleet.total_rs_blocks(),
            average_blocks_per_repair,
        }
    }

    fn day_of(now: SimTime, days: usize) -> usize {
        ((now / MINUTES_PER_DAY) as usize).min(days.saturating_sub(1))
    }

    fn dispatch(
        recovery: &mut RecoveryManager,
        rng: &mut StdRng,
        fleet: &MachineFleet,
        queue: &mut EventQueue,
    ) {
        let tasks = recovery.dispatch(rng, |machine, incarnation| {
            fleet.is_down_with(machine, incarnation)
        });
        for task in tasks {
            queue.schedule_in(
                task.duration_minutes,
                Event::RecoveryTaskDone {
                    machine: task.machine,
                    blocks: task.blocks,
                    cross_rack_bytes: task.cross_rack_bytes,
                },
            );
        }
    }

    fn sync_cancelled(recovery: &RecoveryManager, seen: &mut u64, day: &mut DayMetrics) {
        let total = recovery.cancelled_blocks();
        day.blocks_cancelled += total - *seen;
        *seen = total;
    }
}

/// Runs the same configuration twice — once with the production RS code and
/// once with the paper's Piggybacked-RS code — using the same seed, so the
/// two runs see the identical failure trace. Returns `(rs_report,
/// piggybacked_report)`. This is the paired experiment behind the paper's
/// "> 50 TB/day of cross-rack traffic saved" estimate (E6).
pub fn paired_rs_vs_piggybacked(mut config: SimConfig) -> (ClusterReport, ClusterReport) {
    config.code = CodeSpec::FACEBOOK_RS;
    let rs = Simulator::new(config.clone()).run();
    config.code = CodeSpec::FACEBOOK_PIGGYBACK;
    let pb = Simulator::new(config).run();
    (rs, pb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_sane_metrics() {
        let config = SimConfig::small_test();
        let report = Simulator::new(config.clone()).run();
        assert_eq!(report.days.len(), config.days);
        assert_eq!(report.code_name, "RS(10, 4)");
        assert!((report.average_blocks_per_repair - 10.0).abs() < 1e-12);
        assert!(report.total_rs_blocks > 0);
        // Some machines get flagged and some blocks get reconstructed.
        let flagged: u64 = report.days.iter().map(|d| d.machines_flagged).sum();
        let blocks = report.total_blocks_reconstructed();
        assert!(flagged > 0, "{report:?}");
        assert!(blocks > 0, "{report:?}");
        // Bytes are consistent with ~10 helper blocks per reconstructed block
        // of at most the configured block size.
        let bytes = report.total_cross_rack_bytes();
        assert!(bytes > 0);
        assert!(bytes <= blocks * 10 * config.block_size_bytes);
        assert!(report.censuses > 0);
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let config = SimConfig::small_test();
        let a = Simulator::new(config.clone()).run();
        let b = Simulator::new(config).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = SimConfig::small_test();
        let a = Simulator::new(config.clone()).run();
        config.seed += 1;
        let b = Simulator::new(config).run();
        assert_ne!(a, b);
    }

    #[test]
    fn piggybacked_code_reduces_cross_rack_traffic_on_the_same_trace() {
        let mut config = SimConfig::small_test();
        config.days = 4;
        let (rs, pb) = paired_rs_vs_piggybacked(config);
        // Same failure process (same seed) -> same flagged machines.
        let rs_flagged: u64 = rs.days.iter().map(|d| d.machines_flagged).sum();
        let pb_flagged: u64 = pb.days.iter().map(|d| d.machines_flagged).sum();
        assert_eq!(rs_flagged, pb_flagged);
        // The piggybacked run moves meaningfully fewer bytes per block.
        let rs_per_block =
            rs.total_cross_rack_bytes() as f64 / rs.total_blocks_reconstructed().max(1) as f64;
        let pb_per_block =
            pb.total_cross_rack_bytes() as f64 / pb.total_blocks_reconstructed().max(1) as f64;
        assert!(
            pb_per_block < rs_per_block * 0.85,
            "rs {rs_per_block} pb {pb_per_block}"
        );
        assert!(pb.average_blocks_per_repair < rs.average_blocks_per_repair);
    }

    #[test]
    fn replication_recovers_with_one_block_per_block() {
        let mut config = SimConfig::small_test();
        config.code = CodeSpec::Replication { copies: 3 };
        let report = Simulator::new(config).run();
        assert!((report.average_blocks_per_repair - 1.0).abs() < 1e-12);
        if report.total_blocks_reconstructed() > 0 {
            let per_block =
                report.total_cross_rack_bytes() as f64 / report.total_blocks_reconstructed() as f64;
            // One helper block (possibly a tail block) per recovery.
            assert!(per_block <= 64.0 * 1024.0 * 1024.0 + 1.0);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = SimConfig::small_test();
        config.days = 0;
        assert!(Simulator::try_new(config).is_err());
    }

    #[test]
    fn degradation_census_is_dominated_by_single_failures() {
        let mut config = SimConfig::small_test();
        config.days = 6;
        config.sampled_stripes = 2000;
        config.census_interval_hours = 2.0;
        let report = Simulator::new(config).run();
        let d = report.degradation;
        if d.total() > 50 {
            assert!(
                d.one_missing_pct() > 80.0,
                "single failures should dominate: {d:?}"
            );
            assert!(d.one_missing_pct() > d.two_missing_pct());
        }
    }
}
