//! Failure-domain hardening, end to end: deterministic fault injection
//! driving the deadline guard, the health state machine, hedged planned
//! rebuilds, and the repair daemon's health-priority scheduling.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, DaemonConfig, DiskState, EventKind, FaultPlan, FaultyBackend,
    HealthPolicy, LocalDisk, Outcome, PlacementPolicy, RackMap, RepairDaemon, StoreConfig,
};

const CHUNK_LEN: usize = 512;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 11) % 251) as u8).collect()
}

/// Path of one chunk file within the `pool-NN` backend layout used here
/// (the store's own `disk_path`/`chunk_path` cover only the all-local
/// `BlockStore::open` layout).
fn pool_chunk(
    dir: &TempDir,
    disk: usize,
    object: &str,
    stripe: u64,
    shard: usize,
) -> std::path::PathBuf {
    dir.path()
        .join(format!("pool-{disk:02}"))
        .join(object)
        .join(format!("{stripe:08}-{shard:02}.chunk"))
}

/// One `FaultyBackend(LocalDisk)` per pool slot, all sharing `plan`.
fn faulty_pool(dir: &TempDir, count: usize, plan: &Arc<FaultPlan>) -> Vec<Arc<dyn ChunkBackend>> {
    (0..count)
        .map(|i| {
            let inner: Arc<dyn ChunkBackend> =
                Arc::new(LocalDisk::new(dir.path().join(format!("pool-{i:02}"))));
            Arc::new(FaultyBackend::new(inner, Arc::clone(plan), i)) as Arc<dyn ChunkBackend>
        })
        .collect()
}

/// Small-threshold policy: two failures demote, probes far apart (so a
/// tripped breaker visibly sheds) unless a test overrides it.
fn policy() -> HealthPolicy {
    HealthPolicy {
        window: 8,
        suspect_failures: 2,
        failed_failures: 6,
        probe_interval: Duration::from_secs(60),
        recovery_successes: 3,
    }
}

fn hardened(dir: &TempDir, spec: &str, disks: usize, plan: &Arc<FaultPlan>) -> BlockStore {
    BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), spec.parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .op_deadline(Duration::from_millis(200))
            .hedge_delay(Duration::from_millis(60))
            .health_policy(policy()),
        faulty_pool(dir, disks, plan),
        RackMap::per_disk(disks),
        PlacementPolicy::Identity,
    )
    .unwrap()
}

#[test]
fn stalled_disk_is_routed_around_within_deadline_and_demoted() {
    let dir = TempDir::new("chaos-stall");
    // Disk 2 (a data shard under identity placement) stalls every read
    // indefinitely; writes are clean so `put` lays the object down intact.
    let plan = Arc::new(FaultPlan::parse("disk=2 op=read stall", 42).unwrap());
    let store = hardened(&dir, "piggyback-4-2", 6, &plan);
    let data = pattern(4 * CHUNK_LEN * 3); // 3 full stripes
    store.put("obj", &data[..]).unwrap();

    // Every stripe read hits the stall on shard 2, abandons it at the
    // deadline, and serves the stripe degraded from the survivors.
    let start = Instant::now();
    assert_eq!(store.get("obj").unwrap(), data);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline did not bound the stalled reads: {elapsed:?}"
    );

    // Two timeouts demoted the stalled disk; the transition is journaled
    // and the advisory state hit the store root.
    assert_eq!(store.disk_state(2), Some(DiskState::Suspect));
    let health = store.health().unwrap();
    assert!(health.total_timeouts() >= 2);
    let events = store.health_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::DiskHealth && e.detail.contains("suspect")),
        "breaker trip missing from the health journal: {events:?}"
    );
    let advisory =
        std::fs::read_to_string(dir.path().join("root").join("HEALTH.advisory")).unwrap();
    assert!(advisory.contains("suspect"), "advisory: {advisory:?}");

    // With the breaker open, further reads shed the sick disk without
    // waiting on the stall at all.
    let start = Instant::now();
    assert_eq!(store.get("obj").unwrap(), data);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "breaker did not shed: {:?}",
        start.elapsed()
    );
    let metrics = store.metrics();
    assert!(metrics.disk_timeouts >= 2, "{metrics:?}");
    assert!(metrics.disk_sheds >= 1, "{metrics:?}");
    assert!(metrics.degraded_stripe_reads >= 6, "{metrics:?}");

    plan.release();
}

#[test]
fn hedged_rebuild_switches_to_the_next_ranked_helper_set() {
    let dir = TempDir::new("chaos-hedge");
    // Shard 1's disk is wounded (chunks deleted) and parity disk 4 stalls:
    // the first-choice RS helper set {0,2,3,4} runs into the stall, hedges,
    // and the next-ranked set {0,2,3,5} completes the rebuild.
    let plan = Arc::new(FaultPlan::parse("disk=4 op=read stall", 7).unwrap());
    let store = hardened(&dir, "rs-4-2", 6, &plan);
    let stripes = 3usize;
    let data = pattern(4 * CHUNK_LEN * stripes);
    store.put("obj", &data[..]).unwrap();
    std::fs::remove_dir_all(dir.path().join("pool-01")).unwrap();

    let start = Instant::now();
    assert_eq!(store.get("obj").unwrap(), data);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "hedge did not bound the stalled helper: {elapsed:?}"
    );
    let metrics = store.metrics();
    assert_eq!(metrics.hedged_reads, stripes as u64, "{metrics:?}");
    assert_eq!(metrics.hedge_wins, stripes as u64, "{metrics:?}");
    // The planned (hedged) path won every stripe: no full reconstruction.
    assert_eq!(metrics.degraded_stripe_reads, stripes as u64);

    plan.release();
}

#[test]
fn a_hedge_plans_around_the_slow_helper_for_every_code() {
    // Every code plans its reads from its generator over the shards still
    // on offer, so the round after the hedge plans over the shards left
    // once the stalled helper is exiled: it is never read again, and the
    // hedge wins.
    // Each case: code, k, pool disks, wiped shard, stalled helper.
    for (spec, k, disks, wiped, stalled) in
        [("piggyback-4-2", 4, 6, 1, 4), ("lrc-10-2-4", 10, 16, 0, 10)]
    {
        let dir = TempDir::new("chaos-hedge-any-code");
        let rule = format!("disk={stalled} op=read stall");
        let plan = Arc::new(FaultPlan::parse(&rule, 7).unwrap());
        let store = hardened(&dir, spec, disks, &plan);
        let data = pattern(k * CHUNK_LEN);
        store.put("obj", &data[..]).unwrap();
        std::fs::remove_dir_all(dir.path().join(format!("pool-{wiped:02}"))).unwrap();

        assert_eq!(store.get("obj").unwrap(), data, "{spec}");
        let metrics = store.metrics();
        assert_eq!(metrics.hedged_reads, 1, "{spec}: {metrics:?}");
        assert_eq!(metrics.hedge_wins, 1, "{spec}: {metrics:?}");
        assert_eq!(metrics.disk_timeouts, 1, "{spec}: {metrics:?}");
        assert_eq!(metrics.degraded_stripe_reads, 1, "{spec}");

        plan.release();
    }
}

#[test]
fn guarded_chunk_ops_of_a_stripe_overlap() {
    let dir = TempDir::new("chaos-overlap");
    // Every chunk read and write takes 100 ms. A guarded store begins a
    // stripe's ops on their disks' executors before it waits for any, so
    // a one-stripe PUT or GET costs about one delay, not one per chunk.
    let plan = Arc::new(FaultPlan::parse("op=read delay=100ms; op=write delay=100ms", 1).unwrap());
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .op_deadline(Duration::from_secs(5)),
        faulty_pool(&dir, 6, &plan),
        RackMap::per_disk(6),
        PlacementPolicy::Identity,
    )
    .unwrap();
    let data = pattern(4 * CHUNK_LEN);

    let start = Instant::now();
    store.put("obj", &data[..]).unwrap();
    let put = start.elapsed();
    let start = Instant::now();
    assert_eq!(store.get("obj").unwrap(), data);
    let get = start.elapsed();
    let bound = Duration::from_millis(300);
    assert!(
        put < bound && get < bound,
        "a stripe paid for its chunk ops in series: put {put:?}, get {get:?}"
    );
    assert_eq!(store.metrics().disk_timeouts, 0);
}

#[test]
fn a_repair_writes_its_rebuilt_chunks_back_together() {
    let dir = TempDir::new("chaos-write-back");
    // Every chunk write takes 100 ms. A repair of four lost chunks begins
    // their four write-backs on the disks' executors before it waits for
    // any, so it costs about one delay, not four.
    let plan = Arc::new(FaultPlan::parse("op=write delay=100ms", 1).unwrap());
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "rs-10-4".parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .op_deadline(Duration::from_secs(5)),
        faulty_pool(&dir, 14, &plan),
        RackMap::per_disk(14),
        PlacementPolicy::Identity,
    )
    .unwrap();
    let data = pattern(10 * CHUNK_LEN);
    store.put("obj", &data[..]).unwrap();
    let lost = [0, 3, 6, 9];
    for shard in lost {
        std::fs::remove_file(pool_chunk(&dir, shard, "obj", 0, shard)).unwrap();
    }

    let start = Instant::now();
    let repair = store.repair_stripe("obj", 0, &lost).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(repair.rebuilt, lost);
    assert!(
        elapsed < Duration::from_millis(300),
        "the write-back paid for its writes in series: {elapsed:?}"
    );
    assert_eq!(store.metrics().disk_timeouts, 0);
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn repeated_runs_under_the_same_seed_are_deterministic() {
    // Same plan text + seed ⇒ identical injected outcomes, hence identical
    // hedge/health counters — the property the chaos CI job leans on.
    let run = |seed: u64| -> (u64, u64, Option<DiskState>) {
        let dir = TempDir::new("chaos-seed");
        let plan = Arc::new(FaultPlan::parse("disk=2 op=read p=0.5 error", seed).unwrap());
        // One thread drives the object, so the read-op order (and therefore
        // the per-rule fault sequence) is identical across runs.
        let store = BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
                .chunk_len(CHUNK_LEN)
                .op_deadline(Duration::from_millis(500))
                .health_policy(policy()),
            faulty_pool(&dir, 6, &plan),
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap();
        let data = pattern(4 * CHUNK_LEN * 8);
        store.put("obj", &data[..]).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
        (
            plan.fired(),
            store.metrics().degraded_stripe_reads,
            store.disk_state(2),
        )
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must replay the same faults");
    assert!(a.0 > 0, "p=0.5 over 8 stripes should fire at least once");
}

#[test]
fn daemon_repairs_stripes_on_sick_disks_first() {
    let dir = TempDir::new("chaos-priority");
    // A rule that can never fire: the pool is plumbed for injection but
    // this test wants clean disks.
    let plan = Arc::new(FaultPlan::parse("disk=5 op=meta error after=1000000000", 1).unwrap());
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
                .chunk_len(CHUNK_LEN)
                .op_deadline(Duration::from_millis(500))
                .health_policy(HealthPolicy {
                    // Probe interval zero: Suspect disks still serve every op
                    // (each one a probe), so scrub and repair see real bytes;
                    // large recovery threshold keeps the state pinned.
                    probe_interval: Duration::ZERO,
                    recovery_successes: 100,
                    suspect_failures: 2,
                    ..policy()
                }),
            faulty_pool(&dir, 6, &plan),
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );
    let data = pattern(4 * CHUNK_LEN);
    // BTreeMap scan order is ("cold", …) < ("hot", …): without the health
    // priority, "cold" would be enqueued and repaired first.
    store.put("cold", &data[..]).unwrap();
    store.put("hot", &data[..]).unwrap();
    std::fs::remove_file(pool_chunk(&dir, 3, "cold", 0, 3)).unwrap();
    std::fs::remove_file(pool_chunk(&dir, 1, "hot", 0, 1)).unwrap();
    // Disk 1 (holding "hot"'s damage) is demoted by two recorded timeouts.
    let health = Arc::clone(store.health().unwrap());
    health.record(1, Outcome::Timeout);
    health.record(1, Outcome::Timeout);
    assert_eq!(store.disk_state(1), Some(DiskState::Suspect));

    let daemon = RepairDaemon::start(
        Arc::clone(&store),
        DaemonConfig {
            workers: 1, // serial: repair order == queue order
            scan_interval: None,
        },
    );
    let scan = daemon.scan_now().unwrap();
    assert_eq!(scan.enqueued_stripes, 2);
    daemon.wait_idle();
    let repairs: Vec<String> = daemon
        .recent_events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Repair)
        .map(|e| e.detail)
        .collect();
    assert_eq!(repairs.len(), 2);
    assert!(
        repairs[0].contains("hot"),
        "sick-disk stripe must repair first: {repairs:?}"
    );
    daemon.shutdown();
    assert!(store.scrub().unwrap().is_clean());
}
