//! Property-based tests of the warehouse-cluster simulator: determinism,
//! accounting invariants and the RS-vs-Piggybacked comparison under random
//! small configurations.

use pbrs_cluster::config::SimConfig;
use pbrs_cluster::sim::paired_rs_vs_piggybacked;
use pbrs_cluster::Simulator;
use pbrs_erasure::CodeSpec;
use proptest::prelude::*;

/// A small random-but-valid configuration.
fn small_config(seed: u64, racks: usize, events_per_day: f64, days: usize) -> SimConfig {
    let mut config = SimConfig::small_test();
    config.racks = racks;
    config.machines_per_rack = 8;
    config.unavailability.machines = config.machines();
    config.unavailability.base_events_per_day = events_per_day;
    config.mean_rs_blocks_per_machine = 300.0;
    config.sampled_stripes = 200;
    config.days = days;
    config.seed = seed;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulator is a pure function of its configuration.
    #[test]
    fn runs_are_deterministic(
        seed in any::<u64>(),
        racks in 14usize..30,
        events in 2.0f64..20.0,
    ) {
        let config = small_config(seed, racks, events, 2);
        let a = Simulator::new(config.clone()).run();
        let b = Simulator::new(config).run();
        prop_assert_eq!(a, b);
    }

    /// Per-day accounting invariants hold for every simulated day: traffic
    /// only occurs when blocks are reconstructed, bytes per block stay within
    /// the bounds implied by the code and the block-size model, and the
    /// flagged count never exceeds the raw event count upper bound.
    #[test]
    fn per_day_accounting_is_bounded(
        seed in any::<u64>(),
        racks in 14usize..30,
        events in 2.0f64..25.0,
        days in 2usize..5,
    ) {
        let config = small_config(seed, racks, events, days);
        let block = config.block_size_bytes as f64;
        let report = Simulator::new(config).run();
        prop_assert_eq!(report.days.len(), days);
        for day in &report.days {
            if day.blocks_reconstructed == 0 {
                prop_assert_eq!(day.cross_rack_bytes, 0);
                continue;
            }
            let per_block = day.cross_rack_bytes as f64 / day.blocks_reconstructed as f64;
            // RS(10,4): at most 10 full blocks, at least 10 minimal tail blocks.
            prop_assert!(per_block <= 10.0 * block + 1.0);
            prop_assert!(per_block > 0.0);
            prop_assert_eq!(day.disk_bytes_read, day.cross_rack_bytes);
        }
        // The census never records more degraded observations than
        // censuses x sampled stripes.
        prop_assert!(report.degradation.total() <= report.censuses * 200);
    }

    /// On the same failure trace the Piggybacked-RS run never moves more
    /// bytes per reconstructed block than the RS run, and both flag the same
    /// machines.
    #[test]
    fn piggybacked_never_worse_per_block(
        seed in any::<u64>(),
        events in 4.0f64..20.0,
    ) {
        let config = small_config(seed, 20, events, 3);
        let (rs, pb) = paired_rs_vs_piggybacked(config);
        let rs_flagged: u64 = rs.days.iter().map(|d| d.machines_flagged).sum();
        let pb_flagged: u64 = pb.days.iter().map(|d| d.machines_flagged).sum();
        prop_assert_eq!(rs_flagged, pb_flagged);
        if rs.total_blocks_reconstructed() > 0 && pb.total_blocks_reconstructed() > 0 {
            let rs_per_block =
                rs.total_cross_rack_bytes() as f64 / rs.total_blocks_reconstructed() as f64;
            let pb_per_block =
                pb.total_cross_rack_bytes() as f64 / pb.total_blocks_reconstructed() as f64;
            prop_assert!(pb_per_block <= rs_per_block * 1.001);
        }
    }

    /// Replication and LRC configurations also run to completion with sane
    /// accounting (no panics, traffic consistent with their repair costs).
    #[test]
    fn alternative_codes_simulate_cleanly(
        seed in any::<u64>(),
        use_lrc in any::<bool>(),
    ) {
        let mut config = small_config(seed, 20, 8.0, 2);
        config.code = if use_lrc {
            CodeSpec::Lrc {
                k: 10,
                local_groups: 2,
                global_parities: 4,
            }
        } else {
            CodeSpec::Replication { copies: 3 }
        };
        let report = Simulator::new(config.clone()).run();
        let expected_max_per_block = if use_lrc { 10.0 } else { 1.0 };
        if report.total_blocks_reconstructed() > 0 {
            let per_block = report.total_cross_rack_bytes() as f64
                / report.total_blocks_reconstructed() as f64;
            prop_assert!(per_block <= expected_max_per_block * config.block_size_bytes as f64 + 1.0);
        }
        prop_assert!(report.average_blocks_per_repair <= expected_max_per_block + 1e-9);
    }
}
