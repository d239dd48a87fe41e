//! Gateway experiment — tail latency of streamed GETs under concurrent
//! load, healthy vs degraded.
//!
//! Spins up a gateway over a local store, ingests a population of
//! objects through the gateway itself, wounds a configurable fraction of
//! them (one shard's chunks removed, so every read of those objects pays
//! the reconstruction the paper's §2 is about), then hammers the gateway
//! from many concurrent connections drawing objects from a zipfian
//! popularity distribution. Reports p50/p95/p99 × throughput, split into
//! healthy and degraded reads, plus the gateway's own counters (shed
//! requests must be zero below the admission threshold), and writes
//! `BENCH_gateway.json`.
//!
//! Latency is recorded into the same `pbrs-obs` log-linear histograms
//! the gateway uses server-side, so the harness can cross-check its
//! client-observed percentiles against the gateway's `METRICS` ops
//! summaries — in closed-loop mode both measure the same interval
//! (request start → last byte of the response stream) and must agree to
//! within 10% or one histogram bucket. The server's per-stage
//! (queue/erasure/chunk-io/flush) breakdown and the full Prometheus
//! exposition are captured alongside (`BENCH_gateway.prom`).
//!
//! Two load modes:
//!
//! * **closed** (default): each connection issues its next GET the moment
//!   the previous one completes — classic closed-loop, measures capacity.
//! * **open:RATE**: arrivals are scheduled at RATE requests/s spread over
//!   the connections, and latency is measured from the *scheduled*
//!   arrival, so queueing delay counts — the honest tail-latency view.
//!   (The server cross-check is skipped here: the gateway cannot see
//!   time spent queueing before the request reaches it.)
//!
//! Usage: `load_gateway [seconds] [connections] [objects] [object-KiB]
//! [degraded-%] [mode] [max-inflight]` (defaults: 10 s, 256 connections,
//! 64 objects, 256 KiB, 25 %, closed, 4096). Lower `max-inflight` below
//! the connection count to watch the gateway shed with explicit BUSY
//! instead of queueing.
//!
//! **Tracing**: the gateway's flight recorder runs at default sampling
//! (every degraded/slow/errored root retained, 1-in-N healthy) unless
//! `--no-trace` disables it — the knob exists so the same run can be
//! timed with tracing compiled in but off, quantifying overhead. With
//! tracing on, the 10 slowest retained traces are written to
//! `BENCH_gateway_traces.json` in Chrome trace_event format
//! (Perfetto-loadable), and the run asserts the flight-recorder
//! contract: every degraded GET promoted a retained trace, and every
//! retained degraded GET carries `chunk_io` spans — on remote disks
//! (`--remote-disks`, which rebuilds the pool as loopback chunkd
//! servers) those spans must name `chunkd://` backends with nonzero
//! durations.
//!
//! **Chaos mode**: `--fault-plan NAME-OR-DSL [--fault-seed N]` (seed
//! defaults to 42) rebuilds the store on fault-injected disks (a named
//! plan like `stall-one-disk`, or the DSL documented in
//! `pbrs_store::fault`) and hardens it with an op deadline, hedged
//! rebuilds, and the health tracker. The run then *asserts* the
//! failure-domain contract: zero client errors, degraded p99 bounded by
//! the deadline, and — for stall plans — the stalled disk demoted out of
//! `healthy`. The injected state rides into `BENCH_gateway.json` under
//! `"fault"`.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pbrs_bench::{f1, section};
use pbrs_chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs_gateway::client::GatewayClient;
use pbrs_gateway::server::{Gateway, GatewayConfig};
use pbrs_gateway::GatewayError;
use pbrs_obs::hist::{bucket_bounds, bucket_index};
use pbrs_obs::trace::{retained_to_chrome, TracerConfig};
use pbrs_obs::{HistogramSnapshot, LatencyHistogram, Summary};
use pbrs_store::store::{BlockStore, StoreConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    ChunkBackend, DiskState, FaultPlan, FaultyBackend, HealthPolicy, LocalDisk, PlacementPolicy,
    RackMap,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPEC: &str = "piggyback-4-2";
const CHUNK_LEN: usize = 16 * 1024; // 64 KiB stripes
const DISKS: usize = 6;
const WOUNDED_DISK: usize = 1;
const ZIPF_S: f64 = 1.0;
/// Per-disk-op deadline in chaos mode; a stalled chunk read is abandoned
/// (and served degraded) after this long.
const STORE_OP_DEADLINE: Duration = Duration::from_millis(500);
/// Smallest per-class sample count for which the client-vs-server
/// percentile agreement is asserted rather than just reported.
const AGREEMENT_MIN_SAMPLES: u64 = 50;
/// Absolute floor on the agreement tolerance, microseconds — loopback
/// scheduling noise makes tighter bars flaky for sub-millisecond reads.
const AGREEMENT_FLOOR_US: f64 = 200.0;

/// Parsed flags: positional args, fault plan text, fault seed, tracing
/// switch, remote-disk switch.
struct Flags {
    argv: Vec<String>,
    fault_text: Option<String>,
    fault_seed: u64,
    trace: bool,
    remote_disks: bool,
}

/// Splits `--fault-plan NAME [--fault-seed N] [--no-trace]
/// [--remote-disks]` out of the command line, leaving the positional
/// args in place.
fn parse_args() -> Flags {
    let mut argv: Vec<String> = env::args().collect();
    let mut fault_text = None;
    let mut fault_seed = 42u64;
    let mut trace = true;
    let mut remote_disks = false;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fault-plan" => {
                argv.remove(i);
                fault_text = Some(if i < argv.len() {
                    argv.remove(i)
                } else {
                    panic!("--fault-plan needs a plan name or DSL string")
                });
            }
            "--fault-seed" => {
                argv.remove(i);
                fault_seed = if i < argv.len() {
                    argv.remove(i).parse().expect("numeric --fault-seed")
                } else {
                    panic!("--fault-seed needs a value")
                };
            }
            "--no-trace" => {
                argv.remove(i);
                trace = false;
            }
            "--remote-disks" => {
                argv.remove(i);
                remote_disks = true;
            }
            _ => i += 1,
        }
    }
    Flags {
        argv,
        fault_text,
        fault_seed,
        trace,
        remote_disks,
    }
}

/// Zipfian sampler over `n` ranks: precomputed CDF, binary-searched.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Closed,
    /// Total arrival rate in requests/s across all connections.
    Open(f64),
}

/// Renders a microseconds [`Summary`] with the millisecond field names
/// `BENCH_gateway.json` has always carried.
fn summary_json_ms(s: &Summary) -> String {
    format!(
        concat!(
            "{{\"reads\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, ",
            "\"p999_ms\": {}, \"mean_ms\": {}, \"max_ms\": {}}}"
        ),
        s.count,
        f1(s.p50_us as f64 / 1000.0),
        f1(s.p95_us as f64 / 1000.0),
        f1(s.p99_us as f64 / 1000.0),
        f1(s.p999_us as f64 / 1000.0),
        f1(s.mean_us / 1000.0),
        f1(s.max_us as f64 / 1000.0),
    )
}

/// Finds `"key":{...}` in compact JSON and returns the braced object,
/// brace-matched. The workspace emits its own compact JSON (no string
/// escapes near these keys), so this stays a 20-line scanner instead of
/// a parser dependency.
fn json_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = json.find(&pat)? + pat.len() - 1;
    let mut depth = 0usize;
    for (i, b) in json.as_bytes()[start..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads the integer value of `"key":N` from a compact JSON object.
fn json_u64(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One client-vs-server percentile comparison.
struct Agreement {
    quantile: &'static str,
    client_us: u64,
    server_us: u64,
    tolerance_us: f64,
    ok: bool,
}

/// Compares one percentile pair: agreement means within 10% of the
/// larger value, or within one log-linear bucket width at that value
/// (both sides quantise into the same layout), with a small absolute
/// floor for sub-millisecond values.
fn compare(quantile: &'static str, client_us: u64, server_us: u64) -> Agreement {
    let big = client_us.max(server_us);
    let (lo, hi) = bucket_bounds(bucket_index(big));
    let tolerance_us = (0.10 * big as f64)
        .max((hi - lo) as f64)
        .max(AGREEMENT_FLOOR_US);
    let delta = client_us.abs_diff(server_us) as f64;
    Agreement {
        quantile,
        client_us,
        server_us,
        tolerance_us,
        ok: delta <= tolerance_us,
    }
}

/// Cross-checks a client summary against the matching server-side ops
/// summary scanned out of the METRICS JSON.
fn check_class(label: &str, client: &Summary, server_obj: &str) -> Vec<Agreement> {
    let server_count = json_u64(server_obj, "count").unwrap_or(0);
    assert_eq!(
        client.count, server_count,
        "{label}: client recorded {} reads but the gateway's ops histogram has {server_count}",
        client.count,
    );
    [
        ("p50", client.p50_us, "p50_us"),
        ("p95", client.p95_us, "p95_us"),
        ("p99", client.p99_us, "p99_us"),
    ]
    .into_iter()
    .map(|(q, client_us, server_key)| {
        let server_us = json_u64(server_obj, server_key)
            .unwrap_or_else(|| panic!("{label}: METRICS ops summary lacks {server_key}"));
        compare(q, client_us, server_us)
    })
    .collect()
}

fn agreement_json(rows: &[Agreement]) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|a| {
            format!(
                "\"{}\": {{\"client_us\": {}, \"server_us\": {}, \"tolerance_us\": {}, \"ok\": {}}}",
                a.quantile,
                a.client_us,
                a.server_us,
                f1(a.tolerance_us),
                a.ok
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let Flags {
        argv,
        fault_text,
        fault_seed,
        trace,
        remote_disks,
    } = parse_args();
    assert!(
        !(remote_disks && fault_text.is_some()),
        "--remote-disks and --fault-plan are mutually exclusive: the \
         chaos pool injects faults on local backends"
    );
    let arg = |n: usize, default: usize| -> usize {
        argv.get(n).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let seconds = arg(1, 10);
    let connections = arg(2, 256);
    let objects = arg(3, 64).max(1);
    let object_len = arg(4, 256).max(1) * 1024;
    let degraded_pct = arg(5, 25).min(100);
    let mode = match argv.get(6).cloned().unwrap_or_else(|| "closed".into()) {
        m if m.starts_with("open:") => Mode::Open(
            m.trim_start_matches("open:")
                .parse()
                .expect("open:RATE with a numeric total requests/s"),
        ),
        _ => Mode::Closed,
    };
    let max_inflight = arg(7, 4096).max(1);
    // A named plan first, else the DSL; the same text+seed replays the
    // same injected faults.
    let fault_plan = fault_text.as_deref().map(|text| {
        Arc::new(
            FaultPlan::named(text, fault_seed)
                .or_else(|_| FaultPlan::parse(text, fault_seed))
                .expect("--fault-plan: not a named plan or parsable DSL"),
        )
    });

    section("gateway load: streamed GETs, zipfian popularity, degraded share");
    println!(
        "{connections} connections x {seconds} s, {objects} objects of {} KiB \
         ({SPEC}, {} KiB chunks), {degraded_pct}% wounded, mode {}",
        object_len / 1024,
        CHUNK_LEN / 1024,
        match mode {
            Mode::Closed => "closed-loop".to_string(),
            Mode::Open(rate) => format!("open-loop at {rate} req/s"),
        }
    );

    let dir = TempDir::new("bench-gateway");
    let base_config = || {
        StoreConfig::new(dir.path().join("store"), SPEC.parse().expect("spec")).chunk_len(CHUNK_LEN)
    };
    // Remote mode: the pool is real chunkd servers on loopback, so
    // chunk_io spans carry `chunkd://` backends and chunkd-local spans
    // ride back into the gateway's flight recorder.
    let chunk_servers: Vec<ChunkServer> = if remote_disks {
        (0..DISKS)
            .map(|i| {
                ChunkServer::bind_with(
                    dir.path().join(format!("pool-{i:02}")),
                    "127.0.0.1:0",
                    ServerConfig {
                        threads: 2,
                        ..ServerConfig::default()
                    },
                )
                .expect("bind chunkd")
            })
            .collect()
    } else {
        Vec::new()
    };
    let store = Arc::new(match &fault_plan {
        // Chaos mode: every disk is a fault-injected local backend, and
        // the store is hardened — per-op deadline, hedged rebuilds, and
        // the health state machine with its circuit breaker.
        Some(plan) => {
            println!(
                "fault plan {:?} (seed {fault_seed}): hardened store, op deadline {STORE_OP_DEADLINE:?}",
                fault_text.as_deref().unwrap_or_default(),
            );
            let disks: Vec<Arc<dyn ChunkBackend>> = (0..DISKS)
                .map(|i| {
                    let inner: Arc<dyn ChunkBackend> =
                        Arc::new(LocalDisk::new(dir.path().join(format!("pool-{i:02}"))));
                    Arc::new(FaultyBackend::new(inner, Arc::clone(plan), i))
                        as Arc<dyn ChunkBackend>
                })
                .collect();
            BlockStore::open_with_backends(
                base_config()
                    .op_deadline(STORE_OP_DEADLINE)
                    .hedge_delay(Duration::from_millis(100))
                    .health_policy(HealthPolicy {
                        // Demote fast, probe rarely: each probe of a
                        // stalled disk costs one op deadline, so spacing
                        // them keeps the tail honest.
                        suspect_failures: 2,
                        probe_interval: Duration::from_secs(5),
                        ..HealthPolicy::default()
                    }),
                disks,
                RackMap::per_disk(DISKS),
                PlacementPolicy::Identity,
            )
            .expect("open store")
        }
        None if remote_disks => {
            println!("remote pool: {DISKS} chunkd servers on loopback, traced clients");
            let disks: Vec<Arc<dyn ChunkBackend>> = chunk_servers
                .iter()
                .map(|s| {
                    Arc::new(RemoteDisk::new(s.local_addr().to_string()).traced())
                        as Arc<dyn ChunkBackend>
                })
                .collect();
            BlockStore::open_with_backends(
                base_config(),
                disks,
                RackMap::uniform(DISKS / 2, 2),
                PlacementPolicy::Identity,
            )
            .expect("open store")
        }
        None => BlockStore::open(base_config()).expect("open store"),
    });
    let gateway = Gateway::serve(
        Arc::clone(&store),
        "127.0.0.1:0",
        GatewayConfig {
            workers: thread::available_parallelism().map_or(4, |p| p.get()),
            max_connections: connections + 16,
            in_flight_stripes: 4,
            max_inflight_requests: max_inflight,
            // Default sampling (every anomaly + 1-in-N healthy), but a
            // span buffer sized for this harness's fan-out: hundreds of
            // GETs in flight, each spawning tens of stripe/chunk spans,
            // must not evict each other before their roots finish.
            tracing: trace,
            tracer: TracerConfig {
                ring_capacity: 1 << 16,
                retain_capacity: 256,
                ..TracerConfig::default()
            },
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    // Population, ingested through the gateway itself.
    let mut seeder = GatewayClient::connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x9a7e_aa7e);
    let payload: Vec<u8> = (0..object_len).map(|_| rng.random()).collect();
    for i in 0..objects {
        seeder
            .put(&format!("obj-{i:04}"), &payload)
            .expect("ingest");
    }
    // Wound the configured fraction: drop one shard's chunks so every
    // read of those objects reconstructs from survivors.
    let wounded = objects * degraded_pct / 100;
    for i in 0..wounded {
        // `disk_path` covers only the all-local `open` layout; the chaos
        // and remote pools name their mounts themselves.
        let disk_root = if fault_plan.is_some() || remote_disks {
            dir.path().join(format!("pool-{WOUNDED_DISK:02}"))
        } else {
            store.disk_path(WOUNDED_DISK)
        };
        fs::remove_dir_all(disk_root.join(format!("obj-{i:04}"))).expect("wound object");
    }
    println!(
        "ingested {objects} objects ({} MiB logical), wounded {wounded}",
        objects * object_len / (1024 * 1024)
    );

    let zipf = Arc::new(Zipf::new(objects, ZIPF_S));
    let stop = Arc::new(AtomicBool::new(false));
    let busy_count = Arc::new(AtomicU64::new(0));
    let error_count = Arc::new(AtomicU64::new(0));
    // The same lock-free histograms the gateway uses server-side: every
    // load thread records straight into the shared pair, and snapshots
    // at the end give counts, exact means, and interpolated percentiles.
    let healthy_hist = Arc::new(LatencyHistogram::new());
    let degraded_hist = Arc::new(LatencyHistogram::new());

    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds as u64);
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let zipf = Arc::clone(&zipf);
            let stop = Arc::clone(&stop);
            let busy_count = Arc::clone(&busy_count);
            let error_count = Arc::clone(&error_count);
            let healthy_hist = Arc::clone(&healthy_hist);
            let degraded_hist = Arc::clone(&degraded_hist);
            thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                let mut rng = StdRng::seed_from_u64(0xc0ffee ^ c as u64);
                // Open-loop schedule: this connection's share of the rate,
                // staggered so arrivals spread within the first interval.
                let interval = match mode {
                    Mode::Closed => Duration::ZERO,
                    Mode::Open(rate) => Duration::from_secs_f64(connections as f64 / rate),
                };
                let mut next_arrival = start
                    + match mode {
                        Mode::Closed => Duration::ZERO,
                        Mode::Open(_) => interval.mul_f64(c as f64 / connections as f64),
                    };
                loop {
                    let now = Instant::now();
                    if now >= deadline || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let measured_from = match mode {
                        Mode::Closed => now,
                        Mode::Open(_) => {
                            if now < next_arrival {
                                thread::sleep(next_arrival - now);
                            }
                            let scheduled = next_arrival;
                            next_arrival += interval;
                            scheduled
                        }
                    };
                    let name = format!("obj-{:04}", zipf.sample(&mut rng));
                    let mut sink = 0usize;
                    match client.get_streamed(&name, |stripe| sink += stripe.len()) {
                        Ok(degraded_stripes) => {
                            assert!(sink > 0, "empty stream for {name}");
                            let hist = if degraded_stripes > 0 {
                                &degraded_hist
                            } else {
                                &healthy_hist
                            };
                            hist.record(measured_from.elapsed().as_micros() as u64);
                        }
                        Err(GatewayError::Busy) => {
                            busy_count.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            error_count.fetch_add(1, Ordering::Relaxed);
                            eprintln!("GET {name}: {e}");
                        }
                    }
                }
            })
        })
        .collect();

    for handle in handles {
        handle.join().expect("load thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let healthy = healthy_hist.snapshot();
    let degraded = degraded_hist.snapshot();
    let overall = {
        let mut merged: HistogramSnapshot = healthy.clone();
        merged.merge(&degraded);
        merged
    };
    let requests = overall.count();
    let h = healthy.summary();
    let d = degraded.summary();
    let o = overall.summary();

    let snapshot = gateway.metrics().snapshot();
    let busy = busy_count.load(Ordering::Relaxed);
    let errors = error_count.load(Ordering::Relaxed);
    let req_s = requests as f64 / elapsed;
    let mb_s = (requests as usize * object_len) as f64 / elapsed / (1024.0 * 1024.0);
    let degraded_share = if requests == 0 {
        0.0
    } else {
        d.count as f64 / requests as f64
    };

    println!();
    println!(
        "{:>10} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "class", "reads", "p50 ms", "p95 ms", "p99 ms", "mean ms"
    );
    for (label, s) in [("healthy", &h), ("degraded", &d), ("overall", &o)] {
        println!(
            "{label:>10} {:>8} {:>9} {:>9} {:>9} {:>9}",
            s.count,
            f1(s.p50_us as f64 / 1000.0),
            f1(s.p95_us as f64 / 1000.0),
            f1(s.p99_us as f64 / 1000.0),
            f1(s.mean_us / 1000.0),
        );
    }
    println!();
    println!(
        "throughput: {} req/s, {} MiB/s streamed; degraded share {}%",
        f1(req_s),
        f1(mb_s),
        f1(degraded_share * 100.0)
    );
    println!(
        "gateway: {} stripes served ({} degraded), {} shed, {} refused conns, {} client errors",
        snapshot.stripes_served,
        snapshot.degraded_stripes_served,
        snapshot.requests_shed,
        snapshot.connections_refused,
        errors,
    );
    assert_eq!(
        busy, snapshot.requests_shed,
        "client BUSY count and gateway shed count disagree"
    );
    if errors > 0 {
        eprintln!("WARNING: {errors} failed reads");
    }

    // Chaos contract: the injected faults must actually have fired, no
    // client saw an error, the degraded tail stayed bounded by the op
    // deadline, and a stall plan demoted its victim out of `healthy`.
    let fault_json = match &fault_plan {
        Some(plan) => {
            let plan_text = fault_text.as_deref().unwrap_or_default();
            assert_eq!(errors, 0, "chaos run surfaced client errors");
            assert!(plan.fired() > 0, "the fault plan never fired");
            if d.count > 0 {
                let bound_us = 4 * STORE_OP_DEADLINE.as_micros() as u64;
                assert!(
                    d.p99_us <= bound_us,
                    "degraded p99 {}us exceeds the {bound_us}us deadline bound",
                    d.p99_us,
                );
            }
            let health = store.health_snapshot();
            let sick: Vec<String> = health
                .iter()
                .filter(|h| h.state != DiskState::Healthy)
                .map(|h| format!("{{\"disk\": {}, \"state\": \"{}\"}}", h.disk, h.state))
                .collect();
            if plan_text.starts_with("stall-one-disk") {
                assert!(
                    !sick.is_empty(),
                    "the stalled disk was never demoted: {health:?}"
                );
            }
            println!(
                "fault plan fired {} times; non-healthy disks: {}",
                plan.fired(),
                if sick.is_empty() {
                    "none".to_string()
                } else {
                    sick.join(", ")
                }
            );
            format!(
                "{{\"plan\": \"{plan_text}\", \"seed\": {fault_seed}, \
                 \"injections\": {}, \"sick_disks\": [{}]}}",
                plan.fired(),
                sick.join(", ")
            )
        }
        None => "null".to_string(),
    };

    // Server-side view: the versioned METRICS JSON (ops + stage
    // breakdown) and the Prometheus exposition, over the wire like any
    // monitoring agent would fetch them.
    let server_metrics = seeder.metrics().expect("METRICS rpc");
    let prometheus = seeder.prometheus().expect("PROMETHEUS rpc");
    assert!(
        server_metrics.contains("\"schema_version\":2"),
        "METRICS response is not schema v2"
    );
    let ops = json_object(&server_metrics, "ops").expect("METRICS v2 lacks \"ops\"");
    let stages = json_object(&server_metrics, "stages").expect("METRICS v2 lacks \"stages\"");

    // Cross-check: client-observed percentiles vs the gateway's own
    // histograms. Both measure request start → last byte written, so in
    // closed-loop mode they must agree; in open-loop mode the client
    // clock starts at the *scheduled* arrival, which the server cannot
    // see, so the check is reported but not enforced.
    let enforce = matches!(mode, Mode::Closed);
    let mut checks: Vec<(String, String)> = Vec::new();
    println!();
    println!("client vs server percentiles (tolerance: 10% or one bucket):");
    for (label, key, client) in [
        ("healthy", "get_healthy", &h),
        ("degraded", "get_degraded", &d),
    ] {
        let server_obj =
            json_object(ops, key).unwrap_or_else(|| panic!("METRICS ops lacks \"{key}\""));
        let rows = check_class(label, client, server_obj);
        for a in &rows {
            println!(
                "{label:>10} {:>5}: client {} ms, server {} ms ({})",
                a.quantile,
                f1(a.client_us as f64 / 1000.0),
                f1(a.server_us as f64 / 1000.0),
                if a.ok { "agree" } else { "DISAGREE" },
            );
            if enforce && client.count >= AGREEMENT_MIN_SAMPLES {
                assert!(
                    a.ok,
                    "{label} {}: client {}us vs server {}us exceeds tolerance {}us",
                    a.quantile, a.client_us, a.server_us, a.tolerance_us
                );
            }
        }
        checks.push((label.to_string(), agreement_json(&rows)));
    }

    // Stage breakdown straight from the gateway: where a GET's time went.
    println!();
    println!("server-side GET stage p50s (ms):");
    for path in ["healthy_get", "degraded_get"] {
        let path_obj = json_object(stages, path).expect("stage path");
        let mut parts = Vec::new();
        for stage in ["queue", "erasure", "chunk_io", "flush"] {
            let stage_obj = json_object(path_obj, stage).expect("stage summary");
            let p50 = json_u64(stage_obj, "p50_us").unwrap_or(0);
            parts.push(format!("{stage} {}", f1(p50 as f64 / 1000.0)));
        }
        println!("{path:>14}: {}", parts.join(", "));
    }

    // Flight recorder: pull the assembled trees over the wire (the
    // TRACES verb grafts chunkd-local spans in before rendering), write
    // the 10 slowest for Perfetto, and assert the tail-sampling
    // contract — every degraded GET promoted a retained trace, and the
    // retained degraded trees carry real chunk-io work.
    let tracing_json = if trace {
        let wire = seeder.traces().expect("TRACES rpc");
        assert!(
            wire.chrome.starts_with("{\"traceEvents\":["),
            "TRACES chrome payload is not trace_event JSON"
        );
        let tracer = gateway.tracer();
        let mut retained = tracer.retained();
        retained.sort_by_key(|t| std::cmp::Reverse(t.root_dur_us()));
        let slowest = &retained[..retained.len().min(10)];
        fs::write("BENCH_gateway_traces.json", retained_to_chrome(slowest))
            .expect("write BENCH_gateway_traces.json");
        let retained_total = tracer.retained_total();
        assert!(
            retained_total >= d.count,
            "only {retained_total} traces were ever retained, but clients saw \
             {} degraded GETs — a degraded root escaped the flight recorder",
            d.count,
        );
        let mut degraded_trees = 0u64;
        for t in retained
            .iter()
            .filter(|t| t.op == "get" && t.reasons.contains(&"degraded"))
        {
            degraded_trees += 1;
            let io: Vec<_> = t.spans.iter().filter(|s| s.name == "chunk_io").collect();
            assert!(
                !io.is_empty(),
                "retained degraded GET trace {} has no chunk_io spans",
                t.trace,
            );
            if remote_disks {
                assert!(
                    io.iter().any(|s| {
                        s.dur_us > 0 && s.tag("backend").is_some_and(|b| b.contains("chunkd://"))
                    }),
                    "retained degraded GET trace {} lacks a nonzero chunk_io \
                     span on a remote disk",
                    t.trace,
                );
            }
        }
        if d.count > 0 {
            assert!(
                degraded_trees > 0,
                "degraded GETs ran but none survive in the retained buffer"
            );
        }
        println!();
        println!(
            "flight recorder: {retained_total} traces retained over the run, \
             {} live ({degraded_trees} degraded GET trees), slowest root {} ms \
             -> BENCH_gateway_traces.json",
            retained.len(),
            f1(slowest.first().map_or(0, |t| t.root_dur_us()) as f64 / 1000.0),
        );
        format!(
            "{{\"enabled\": true, \"retained_total\": {retained_total}, \
             \"retained_now\": {}, \"degraded_trees_retained\": {degraded_trees}, \
             \"slowest_root_us\": {}}}",
            retained.len(),
            slowest.first().map_or(0, |t| t.root_dur_us()),
        )
    } else {
        "{\"enabled\": false}".to_string()
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"gateway_load\",\n",
            "  \"spec\": \"{spec}\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seconds\": {seconds},\n",
            "  \"connections\": {connections},\n",
            "  \"objects\": {objects},\n",
            "  \"object_bytes\": {object_bytes},\n",
            "  \"degraded_pct_configured\": {degraded_pct},\n",
            "  \"requests\": {requests},\n",
            "  \"req_per_s\": {req_s},\n",
            "  \"mib_per_s\": {mb_s},\n",
            "  \"degraded_share\": {degraded_share},\n",
            "  \"busy_shed\": {busy},\n",
            "  \"client_errors\": {errors},\n",
            "  \"remote_disks\": {remote_disks},\n",
            "  \"tracing\": {tracing},\n",
            "  \"fault\": {fault},\n",
            "  \"healthy\": {healthy},\n",
            "  \"degraded\": {degraded},\n",
            "  \"overall\": {overall},\n",
            "  \"server_agreement\": {{\"enforced\": {enforce}, \"healthy\": {ah}, \"degraded\": {ad}}},\n",
            "  \"server_stages\": {stages},\n",
            "  \"gateway_metrics\": {gw}\n",
            "}}\n"
        ),
        spec = SPEC,
        mode = match mode {
            Mode::Closed => "closed".to_string(),
            Mode::Open(rate) => format!("open:{rate}"),
        },
        seconds = seconds,
        connections = connections,
        objects = objects,
        object_bytes = object_len,
        degraded_pct = degraded_pct,
        requests = requests,
        req_s = f1(req_s),
        mb_s = f1(mb_s),
        degraded_share = f1(degraded_share),
        busy = busy,
        errors = errors,
        remote_disks = remote_disks,
        tracing = tracing_json,
        fault = fault_json,
        healthy = summary_json_ms(&h),
        degraded = summary_json_ms(&d),
        overall = summary_json_ms(&o),
        enforce = enforce,
        ah = checks[0].1,
        ad = checks[1].1,
        stages = stages,
        gw = server_metrics.trim_end(),
    );
    fs::write("BENCH_gateway.json", &json).expect("write BENCH_gateway.json");
    fs::write("BENCH_gateway.prom", &prometheus).expect("write BENCH_gateway.prom");
    println!(
        "Wrote BENCH_gateway.json ({requests} samples) and BENCH_gateway.prom ({} lines).",
        prometheus.lines().count()
    );

    if let Some(plan) = &fault_plan {
        plan.release(); // unpark any executor still inside a stall
    }
    gateway.shutdown();
}
