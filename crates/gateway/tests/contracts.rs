//! The gateway's contracts under concurrent load, on loopback.
//!
//! * **Storm**: closed-loop streamed GETs over traced chunkd servers,
//!   healthy and wounded objects alternating, below and above the
//!   admission limit.
//! * **Chaos**: concurrent GETs while one disk's reads stall forever,
//!   through a store hardened with an op deadline, hedged rebuilds and
//!   the health tracker. No client error, a tail bounded by the deadline,
//!   the stall actually injected, and the stalled disk demoted.
//!
//! Both check what only load can break (see [`assert_gateway_saw`]): no
//! silent drops, client-observed percentiles that agree with the
//! gateway's own op histograms, and a flight recorder that keeps every
//! degraded GET with its chunk I/O. The exposition and trace formats are
//! checked on single GETs in `loopback.rs`.

mod common;

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use common::{chunkd_store, client, pattern};
use pbrs_chunkd::ChunkServer;
use pbrs_gateway::client::GatewayError;
use pbrs_gateway::server::{Gateway, GatewayConfig};
use pbrs_obs::hist::{bucket_bounds, bucket_index};
use pbrs_obs::{HistogramSnapshot, LatencyHistogram, Summary};
use pbrs_store::store::{BlockStore, StoreConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    ChunkBackend, DiskState, FaultPlan, FaultyBackend, HealthPolicy, LocalDisk, PlacementPolicy,
    RackMap,
};

const CHUNK_LEN: usize = 16 * 1024;
/// Eight full stripes per object: enough gateway work per GET that the
/// part of its latency outside the gateway's clock (the request waiting
/// for the reactor to parse it, the client waking for the last byte)
/// stays well inside the 10% agreement.
const OBJECT_LEN: usize = 4 * CHUNK_LEN * 8;
const CONNECTIONS: usize = 16;
/// Fewest samples per class for which the percentile agreement means
/// anything; a class the caller names must reach it rather than skip.
const AGREEMENT_MIN_SAMPLES: u64 = 50;
/// Absolute floor on the agreement tolerance: loopback scheduling noise
/// makes tighter bars meaningless for sub-millisecond reads.
const AGREEMENT_FLOOR_US: f64 = 200.0;

/// Each test loads the box on purpose; taking this first keeps one
/// test's storm out of the other's latencies.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the clients of one storm saw.
struct Storm {
    healthy: HistogramSnapshot,
    degraded: HistogramSnapshot,
    busy: u64,
    errors: u64,
}

/// `CONNECTIONS` closed-loop clients, released together, each issuing
/// `gets` streamed GETs over `names` in turn (connection `c` starts at
/// name `c`). A completed GET's latency, request start to last byte, is
/// recorded as degraded if any stripe of it was.
fn storm(gw: &Gateway, names: &[String], gets: usize) -> Storm {
    let healthy = LatencyHistogram::new();
    let degraded = LatencyHistogram::new();
    let busy = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Barrier::new(CONNECTIONS);
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS {
            let (healthy, degraded, busy, errors, start) =
                (&healthy, &degraded, &busy, &errors, &start);
            s.spawn(move || {
                let mut client = client(gw);
                start.wait();
                // A STAT round trip (answered inline, outside every op
                // histogram) first: the reactor has then accepted this
                // connection and the threads released together have all
                // been scheduled once, so no GET's client clock includes
                // an accept or that start-up herd.
                client.stat(&names[0]).unwrap();
                for i in 0..gets {
                    let name = &names[(c + i) % names.len()];
                    let mut streamed = 0;
                    let t0 = Instant::now();
                    match client.get_streamed(name, |stripe| streamed += stripe.len()) {
                        Ok(degraded_stripes) => {
                            let elapsed = t0.elapsed();
                            assert_eq!(streamed, OBJECT_LEN, "GET {name}");
                            let class = if degraded_stripes > 0 {
                                degraded
                            } else {
                                healthy
                            };
                            class.record_duration(elapsed);
                        }
                        Err(GatewayError::Busy) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("GET {name}: {e}");
                        }
                    }
                }
            });
        }
    });
    Storm {
        healthy: healthy.snapshot(),
        degraded: degraded.snapshot(),
        busy: busy.into_inner(),
        errors: errors.into_inner(),
    }
}

/// The gateway's own records of a finished storm match what its clients
/// saw:
///
/// * every BUSY a client received is a shed the gateway counted;
/// * per class, the op histogram counted the GETs the clients finished,
///   and for each class in `agreeing` (which must reach
///   `AGREEMENT_MIN_SAMPLES`) client and server p50/p95/p99 agree;
/// * the flight recorder kept every degraded GET, and each degraded tree
///   it still holds has a timed `chunk_io` span on a disk whose
///   description contains `backend`.
#[track_caller]
fn assert_gateway_saw(gw: &Gateway, run: &Storm, agreeing: &[&str], backend: &str) {
    // A METRICS round trip passes through the reactor, which records each
    // GET's latency right after its last byte is written: every GET the
    // clients finished is in the histograms from here on.
    client(gw).metrics().unwrap();
    assert_eq!(
        run.busy,
        gw.metrics().snapshot().requests_shed,
        "client BUSY count and gateway shed count disagree"
    );

    let latency = gw.metrics().latency();
    for (class, seen, recorded) in [
        ("healthy", &run.healthy, &latency.get_healthy),
        ("degraded", &run.degraded, &latency.get_degraded),
    ] {
        assert_eq!(
            seen.count(),
            recorded.count(),
            "{class}: clients completed {} GETs, the gateway's histogram has {}",
            seen.count(),
            recorded.count()
        );
        if agreeing.contains(&class) {
            assert_agree(class, &seen.summary(), &recorded.summary());
        }
    }

    let tracer = gw.tracer();
    let degraded_gets = run.degraded.count();
    assert!(
        tracer.retained_total() >= degraded_gets,
        "{} traces retained, but clients saw {degraded_gets} degraded GETs",
        tracer.retained_total()
    );
    let retained = tracer.retained();
    let degraded_trees: Vec<_> = retained
        .iter()
        .filter(|t| t.op == "get" && t.reasons.contains(&"degraded"))
        .collect();
    assert!(
        degraded_gets == 0 || !degraded_trees.is_empty(),
        "no degraded GET tree survives"
    );
    for tree in degraded_trees {
        assert!(
            tree.spans.iter().any(|s| s.name == "chunk_io"
                && s.dur_us > 0
                && s.tag("backend").is_some_and(|b| b.contains(backend))),
            "degraded GET trace {} has no timed chunk_io span on a {backend} disk",
            tree.trace
        );
    }
}

/// Client and server percentiles of one GET class agree: p50/p95/p99
/// each within 10% of the larger value or one log-linear bucket at it,
/// never tighter than `AGREEMENT_FLOOR_US`, over at least
/// `AGREEMENT_MIN_SAMPLES` GETs.
#[track_caller]
fn assert_agree(class: &str, client: &Summary, server: &Summary) {
    assert!(
        client.count >= AGREEMENT_MIN_SAMPLES,
        "{class}: {} samples, below the {AGREEMENT_MIN_SAMPLES} the agreement needs",
        client.count
    );
    for (quantile, client_us, server_us) in [
        ("p50", client.p50_us, server.p50_us),
        ("p95", client.p95_us, server.p95_us),
        ("p99", client.p99_us, server.p99_us),
    ] {
        let big = client_us.max(server_us);
        let (lo, hi) = bucket_bounds(bucket_index(big));
        let tolerance_us = (0.10 * big as f64)
            .max((hi - lo) as f64)
            .max(AGREEMENT_FLOOR_US);
        assert!(
            client_us.abs_diff(server_us) as f64 <= tolerance_us,
            "{class} {quantile}: client {client_us}us vs server {server_us}us \
             exceeds {tolerance_us}us"
        );
    }
}

/// A gateway over its own chunkd pool holding `names`. Odd-numbered
/// objects lose shard 1's chunks, so every read of them rebuilds from
/// survivors. Each gateway needs its own store: a store records its spans
/// into the tracer of the first gateway that served it.
fn wounded_gateway(
    dir: &TempDir,
    names: &[String],
    config: GatewayConfig,
) -> (Vec<ChunkServer>, Gateway) {
    let (servers, store) = chunkd_store(dir, CHUNK_LEN);
    let gw = Gateway::serve(store, "127.0.0.1:0", config).unwrap();
    let mut c = client(&gw);
    for (i, name) in names.iter().enumerate() {
        c.put(name, &pattern(OBJECT_LEN)).unwrap();
        if i % 2 == 1 {
            fs::remove_dir_all(servers[1].root().join(name)).unwrap();
        }
    }
    (servers, gw)
}

#[test]
fn storm_over_chunkd_keeps_the_observability_contract() {
    let _exclusive = exclusive();
    // One store worker. The gateway's op clock starts when its reactor
    // parses a request; until then the request waits in the socket, timed
    // by the client alone. With the default four workers beside the
    // clients and the twelve chunkd threads, on a 2-core box, the reactor
    // waited for a CPU for over half of the storm, that pre-parse wait
    // reached 1.7-4 ms at p99, and the agreement failed about one run in
    // ten. With one worker the wait is 0.3-1.5 ms at p99.
    let config = || GatewayConfig {
        workers: 1,
        ..GatewayConfig::default()
    };
    // Each connection alternates healthy and wounded objects.
    let names: Vec<String> = (0..8).map(|i| format!("obj-{i}")).collect();

    // Below the admission limit nothing is shed.
    let dir = TempDir::new("gw-contract-storm");
    let (_servers, gw) = wounded_gateway(&dir, &names, config());
    let run = storm(&gw, &names, 32);
    assert_eq!(run.errors, 0, "storm GETs failed");
    assert_eq!(run.busy, 0);
    assert_gateway_saw(&gw, &run, &["healthy", "degraded"], "chunkd://");
    gw.shutdown();

    // Above it, a storm wider than the limit is shed, and every BUSY a
    // client received is one the gateway counted.
    let dir = TempDir::new("gw-contract-shed");
    let (_servers, gw) = wounded_gateway(
        &dir,
        &names,
        GatewayConfig {
            max_inflight_requests: CONNECTIONS / 4,
            ..config()
        },
    );
    let run = storm(&gw, &names, 32);
    assert_eq!(run.errors, 0, "storm GETs failed");
    assert!(
        run.busy > 0,
        "a storm of {CONNECTIONS} never hit a limit of {}",
        CONNECTIONS / 4
    );
    assert_gateway_saw(&gw, &run, &[], "chunkd://");
    gw.shutdown();
}

/// Unparks every stalled read when dropped, so a failed assertion cannot
/// leave the test binary hung on the stall.
struct ReleaseOnDrop(Arc<FaultPlan>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[test]
fn stalled_disk_under_concurrent_gets_keeps_the_chaos_contract() {
    let _exclusive = exclusive();
    let dir = TempDir::new("gw-contract-chaos");
    let op_deadline = Duration::from_millis(500);
    // Disk 2 holds data shard 2 of every stripe under identity placement,
    // so every GET meets the stall.
    let plan = Arc::new(FaultPlan::parse("disk=2 op=read stall", 42).unwrap());
    let disks: Vec<Arc<dyn ChunkBackend>> = (0..6)
        .map(|i| {
            let inner: Arc<dyn ChunkBackend> =
                Arc::new(LocalDisk::new(dir.path().join(format!("pool-{i:02}"))));
            Arc::new(FaultyBackend::new(inner, Arc::clone(&plan), i)) as Arc<dyn ChunkBackend>
        })
        .collect();
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "piggyback-4-2".parse().unwrap())
                .chunk_len(CHUNK_LEN)
                .op_deadline(op_deadline)
                .hedge_delay(Duration::from_millis(100))
                .health_policy(HealthPolicy {
                    // Demote fast, probe rarely: each probe of the stalled
                    // disk costs one op deadline.
                    suspect_failures: 2,
                    probe_interval: Duration::from_secs(5),
                    ..HealthPolicy::default()
                }),
            disks,
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );
    let gw = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    let _release = ReleaseOnDrop(Arc::clone(&plan));
    let mut c = client(&gw);
    let names: Vec<String> = (0..4).map(|i| format!("obj-{i}")).collect();
    for name in &names {
        c.put(name, &pattern(OBJECT_LEN)).unwrap();
    }

    let run = storm(&gw, &names, 4);
    assert_eq!(run.errors, 0, "the stalled disk surfaced client errors");
    assert_eq!(run.busy, 0);
    assert!(plan.fired() > 0, "the fault plan never fired");
    let degraded = run.degraded.summary();
    let bound_us = 4 * op_deadline.as_micros() as u64;
    assert!(
        degraded.p99_us <= bound_us,
        "degraded p99 {}us exceeds 4x the op deadline ({bound_us}us)",
        degraded.p99_us
    );
    let state = store.disk_state(2);
    assert!(
        matches!(state, Some(s) if s != DiskState::Healthy),
        "the stalled disk was never demoted: {state:?}"
    );
    // Every GET meets the stall, so every one is degraded: that class
    // alone has the samples to agree on, under the default four workers.
    assert_gateway_saw(&gw, &run, &["degraded"], "faulty(");

    let text = c.prometheus().unwrap();
    for family in [
        "pbrs_disk_health",
        "pbrs_disk_shed_total",
        "pbrs_disk_timeouts_total",
        "pbrs_store_hedged_reads_total",
        "pbrs_gateway_requests_expired_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "{family}: {text}"
        );
    }
}
