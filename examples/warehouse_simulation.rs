//! Simulate a scaled-down warehouse cluster for a week and print the per-day
//! recovery activity that the paper's Fig. 3b reports for the production
//! cluster — then re-run the same failure trace with the Piggybacked-RS code
//! and show the cross-rack traffic drop.
//!
//! Run with: `cargo run --release --example warehouse_simulation`

#![forbid(unsafe_code)]

use pbrs::cluster::config::SimConfig;
use pbrs::cluster::report::{human_bytes, to_markdown_table};
use pbrs::cluster::sim::paired_rs_vs_piggybacked;

fn main() {
    // A 600-machine cluster for a 7-day window: small enough to run in a few
    // seconds even in debug builds.
    let mut config = SimConfig::small_test();
    config.racks = 30;
    config.machines_per_rack = 20;
    config.unavailability.machines = config.machines();
    config.unavailability.base_events_per_day = 25.0;
    config.mean_rs_blocks_per_machine = 1200.0;
    config.days = 7;
    config.sampled_stripes = 3000;

    println!(
        "simulating {} machines / {} racks for {} days under RS(10,4)...",
        config.machines(),
        config.racks,
        config.days
    );
    // The paired experiment: same seed, same failures, different code. Its
    // RS half is the run the per-day table reports.
    let (rs, pb) = paired_rs_vs_piggybacked(config);

    let rows: Vec<Vec<String>> = rs
        .days
        .iter()
        .map(|d| {
            vec![
                d.day.to_string(),
                d.machines_flagged.to_string(),
                d.blocks_reconstructed.to_string(),
                human_bytes(d.cross_rack_bytes),
                d.blocks_cancelled.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        to_markdown_table(
            &[
                "day",
                "machines flagged",
                "blocks rebuilt",
                "cross-rack traffic",
                "rebuilds cancelled"
            ],
            &rows
        )
    );
    println!(
        "degraded-stripe census: {:.2}% one missing / {:.2}% two / {:.2}% three+ ({} observations)",
        rs.degradation.one_missing_pct(),
        rs.degradation.two_missing_pct(),
        rs.degradation.three_plus_missing_pct(),
        rs.degradation.total(),
    );

    println!("\nre-running the identical failure trace with Piggybacked-RS(10,4)...");
    let rs_total = rs.total_cross_rack_bytes();
    let pb_total = pb.total_cross_rack_bytes();
    println!(
        "cross-rack recovery traffic over the week: RS {} vs Piggybacked-RS {} ({:.1}% saved)",
        human_bytes(rs_total),
        human_bytes(pb_total),
        (1.0 - pb_total as f64 / rs_total as f64) * 100.0
    );
}
