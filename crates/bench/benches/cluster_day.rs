//! Criterion benchmark of the warehouse-cluster simulator itself: one
//! simulated day at two cluster scales, under RS and Piggybacked-RS. This
//! bounds the cost of the `paper_scorecard` binary's simulator rows and
//! documents that a production-scale month simulates in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbrs_cluster::{SimConfig, Simulator};
use pbrs_erasure::CodeSpec;
use std::hint::black_box;

fn one_day_config(machines_per_rack: usize, code: CodeSpec) -> SimConfig {
    let mut config = SimConfig::small_test();
    config.machines_per_rack = machines_per_rack;
    config.unavailability.machines = config.machines();
    config.days = 1;
    config.sampled_stripes = 1000;
    config.code = code;
    config
}

fn bench_simulated_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_simulated_day");
    group.sample_size(10);
    for machines_per_rack in [10usize, 50] {
        for (label, code) in [
            ("rs", CodeSpec::FACEBOOK_RS),
            ("piggybacked", CodeSpec::FACEBOOK_PIGGYBACK),
        ] {
            let config = one_day_config(machines_per_rack, code);
            let machines = config.machines();
            group.bench_with_input(
                BenchmarkId::new(label, format!("{machines}_machines")),
                &config,
                |b, config| {
                    b.iter(|| Simulator::new(black_box(config.clone())).run());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simulated_day);
criterion_main!(benches);
