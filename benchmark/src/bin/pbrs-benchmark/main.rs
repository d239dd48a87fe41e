//! `pbrs-benchmark` — the repo's benchmark. Runs one named workload
//! through gateway → store → chunkd on loopback and prints its metrics;
//! see `benchmark/README.md` for what is measured and why.
//!
//! `pbrs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! The last line on standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, the per-layer ones with `--trace 1`.

#![forbid(unsafe_code)]

mod layers;
mod rig;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rig::Rig;
use stats::{machine_cpu, median, percentile, process_cpu_ticks, GIB, MIB, TICKS_PER_S};
use trace::SpanLog;
use workloads::{Pass, Runner, Workload};

/// Seed used when `--seed` is absent; README.md names the hold-out seed.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
const MIN_PASSES: usize = 3;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_mib_s", "MiB/s"),
    ("op_p50_ms", "ms"),
    ("cpu_s_per_gib", "s/GiB"),
    ("backend_bytes_per_user_byte", "B/B"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 43] = [
    ("gf.encode_mib_s", "MiB/s"),
    ("gf.mul_add_mib_s", "MiB/s"),
    ("erasure.rs_encode_mib_s", "MiB/s"),
    ("core.encode_mib_s", "MiB/s"),
    ("core.reconstruct_mib_s", "MiB/s"),
    ("core.repair_mib_s", "MiB/s"),
    ("core.repair_read_fraction", "ratio"),
    ("core.repair_bytes_vs_rs", "ratio"),
    ("placement.place_ns", "ns"),
    ("store.read_stripe_healthy_p50_us", "us"),
    ("store.read_stripe_degraded_p50_us", "us"),
    ("store.put_mib_s", "MiB/s"),
    ("store.repair_stripe_p50_us", "us"),
    ("store.scan_s", "s"),
    ("store.degraded_stripe_share", "ratio"),
    ("store.helper_bytes_per_rebuilt_byte", "B/B"),
    ("store.cross_rack_share", "ratio"),
    ("store.self_us_per_stripe", "us"),
    ("chunkd.read_chunk_p50_us", "us"),
    ("chunkd.read_range_p50_us", "us"),
    ("chunkd.write_chunk_p50_us", "us"),
    ("chunkd.verify_chunk_p50_us", "us"),
    ("chunkd.stream_mib_s", "MiB/s"),
    ("chunkd.wire_bytes_per_payload_byte", "B/B"),
    ("chunkd.reconnects", "count"),
    ("gateway.get_self_ms_p50", "ms"),
    ("gateway.put_self_ms_p50", "ms"),
    ("gateway.op_p95_ms", "ms"),
    ("gateway.op_p99_ms", "ms"),
    ("gateway.op_samples", "count"),
    ("gateway.requests_shed", "count"),
    ("gateway.stage_queue_share", "ratio"),
    ("gateway.stage_erasure_share", "ratio"),
    ("gateway.stage_chunk_io_share", "ratio"),
    ("gateway.stage_flush_share", "ratio"),
    ("obs.hist_record_ns", "ns"),
    ("obs.flight_recorder_overhead_pct", "%"),
    ("bench.window_goodput_mib_s", "MiB/s"),
    ("bench.pass_spread_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.steal_share", "ratio"),
    ("bench.other_cpu_share", "ratio"),
    ("bench.spans", "count"),
];

/// Metric values by name; printed in catalogue order, and a catalogued
/// metric nobody set is a bug in the benchmark.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, value);
    }

    fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} never set"));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Passes until `seconds` have gone by, and at least [`MIN_PASSES`].
fn run_window(
    runner: &mut Runner,
    seconds: f64,
    mut each: impl FnMut(&mut Runner) -> Pass,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || passes.len() < MIN_PASSES {
        passes.push(each(runner));
    }
    passes
}

fn best_pass(passes: &[Pass]) -> &Pass {
    passes
        .iter()
        .max_by(|a, b| a.goodput_mib_s().total_cmp(&b.goodput_mib_s()))
        .expect("at least one pass")
}

fn window_goodput(passes: &[Pass]) -> f64 {
    let bytes: u64 = passes.iter().map(|p| p.user_bytes).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    bytes as f64 / MIB / wall
}

/// The untraced run: set up [`SETUP_ROUNDS`] times, warm up with one pass,
/// then measure passes for `seconds`. Every gated timing comes from the
/// least-disturbed pass — interference on a shared box only ever slows a
/// pass down.
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let payloads = rig::payloads(seed);
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut runner = None;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        let built = Runner::new(workload, Rig::build(&payloads), seed);
        setup_s.push(start.elapsed().as_secs_f64());
        if round + 1 < SETUP_ROUNDS {
            built.teardown();
        } else {
            runner = Some(built);
        }
    }
    let mut runner = runner.expect("a rig was built");

    let warm_up = runner.pass(&payloads, None);
    let passes = run_window(&mut runner, seconds, |r| r.pass(&payloads, None));
    let (final_attempted, final_failed) = runner.finish(&payloads);
    runner.teardown();

    let best = best_pass(&passes);
    let cpu_s_per_gib = passes
        .iter()
        .map(|p| p.cpu_ticks as f64 / TICKS_PER_S / (p.user_bytes as f64 / GIB))
        .fold(f64::MAX, f64::min);
    let socket_bytes: u64 = passes.iter().map(|p| p.socket_bytes).sum();
    let user_bytes: u64 = passes.iter().map(|p| p.user_bytes).sum();

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("goodput_mib_s", best.goodput_mib_s());
    metrics.set("op_p50_ms", median(&best.op_ms));
    metrics.set("cpu_s_per_gib", cpu_s_per_gib);
    metrics.set(
        "backend_bytes_per_user_byte",
        socket_bytes as f64 / user_bytes as f64,
    );

    eprintln!(
        "{}: seed {seed}, {} passes in the window, set-ups {setup_s:.3?} s",
        workload.name(),
        passes.len()
    );
    eprintln!(
        "  ungated: window goodput {:.1} MiB/s, window op p50 {:.2} ms",
        window_goodput(&passes),
        median(
            &passes
                .iter()
                .flat_map(|p| p.op_ms.iter().copied())
                .collect::<Vec<_>>()
        ),
    );
    eprintln!("  pass  goodput MiB/s  op p50 ms  cpu ticks");
    for p in &passes {
        eprintln!(
            "  {:>4}  {:>13.1}  {:>9.2}  {:>9}",
            p.index,
            p.goodput_mib_s(),
            median(&p.op_ms),
            p.cpu_ticks
        );
    }
    let all = passes.iter().chain([&warm_up]);
    Outcome {
        attempted: final_attempted + all.clone().map(|p| p.attempted).sum::<u64>(),
        failed: final_failed + all.map(|p| p.failed).sum::<u64>(),
        metrics,
    }
}

/// The traced run: one set-up, the per-layer probes on the healthy rig,
/// then the workload's own window with traced and untraced passes
/// alternating; a few ops of each traced pass are replayed layer by layer.
/// Writes `benchmark/out/trace-<workload>.json`.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let payloads = rig::payloads(seed);
    let log = SpanLog::new();
    let mut metrics = Metrics::default();
    layers::probe_cpu_layers(seed, &mut metrics);

    let rig = Rig::build(&payloads);
    let mut replayer = layers::Replayer::new(&rig, &log);
    layers::probe_flight_recorder(&rig, &payloads, &mut metrics);
    layers::probe_rig_layers(&rig, &payloads, &mut replayer, &mut metrics);

    let mut runner = Runner::new(workload, rig, seed);
    let warm_up = runner.pass(&payloads, None);
    let machine0 = machine_cpu();
    let cpu0 = process_cpu_ticks();
    // Half the window goes to passes; the replays after each traced pass
    // take about as long again.
    let mut traced = Vec::new();
    let untraced = run_window(&mut runner, seconds / 2.0, |r| {
        let pass = r.pass(&payloads, Some(&log));
        layers::replay_pass(r, &payloads, &pass, &mut replayer);
        traced.push(pass);
        r.pass(&payloads, None)
    });
    let machine1 = machine_cpu();
    let own_ticks = (process_cpu_ticks() - cpu0) as f64;
    let (final_attempted, final_failed) = runner.finish(&payloads);
    layers::probe_end_counters(&runner.rig, &mut metrics);
    runner.teardown();

    let op_ms: Vec<f64> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    metrics.set("gateway.op_p95_ms", percentile(&op_ms, 0.95));
    metrics.set("gateway.op_p99_ms", percentile(&op_ms, 0.99));
    metrics.set("gateway.op_samples", op_ms.len() as f64);
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let spread = walls.iter().fold(0.0, |a: f64, &b| a.max(b))
        - walls.iter().fold(f64::MAX, |a: f64, &b| a.min(b));
    metrics.set("bench.window_goodput_mib_s", window_goodput(&untraced));
    metrics.set("bench.pass_spread_pct", spread / median(&walls) * 100.0);
    metrics.set(
        "bench.trace_overhead_pct",
        (best_pass(&untraced).goodput_mib_s() / best_pass(&traced).goodput_mib_s() - 1.0) * 100.0,
    );
    let total = (machine1.total - machine0.total) as f64;
    metrics.set(
        "bench.steal_share",
        (machine1.steal - machine0.steal) as f64 / total,
    );
    metrics.set(
        "bench.other_cpu_share",
        ((machine1.busy - machine0.busy) as f64 - own_ticks).max(0.0) / total,
    );
    metrics.set("bench.spans", log.len() as f64);

    let path = Path::new(rig::OUT_DIR).join(format!("trace-{}.json", workload.name()));
    log.write_chrome(&path);
    eprintln!(
        "{}: {} spans -> {}",
        workload.name(),
        log.len(),
        path.display()
    );
    eprintln!(
        "  {:<22} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total_us, self_us)) in log.self_times() {
        eprintln!(
            "  {name:<22} {count:>7} {:>12.1} {:>12.1}",
            total_us / 1e3,
            self_us / 1e3
        );
    }
    let all = untraced.iter().chain(&traced).chain([&warm_up]);
    Outcome {
        attempted: final_attempted + all.clone().map(|p| p.attempted).sum::<u64>(),
        failed: final_failed + all.map(|p| p.failed).sum::<u64>(),
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pbrs-benchmark: {message}");
            eprintln!(
                "usage: pbrs-benchmark --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    fs::create_dir_all(rig::DATA_DIR).expect("create benchmark/out/data");
    eprintln!(
        "data directory {} is on {}; {} client threads",
        rig::DATA_DIR,
        rig::data_filesystem(),
        rig::client_count()
    );
    let (outcome, catalogue): (Outcome, &[(&str, &str)]) = if args.trace {
        (
            run_traced(args.workload, args.seed, args.seconds),
            &PER_LAYER,
        )
    } else {
        (
            run_end_to_end(args.workload, args.seed, args.seconds),
            &END_TO_END,
        )
    };
    for (name, unit) in catalogue {
        eprintln!("  {name:<36} {:>14.4} {unit}", outcome.metrics.0[name]);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(catalogue)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
