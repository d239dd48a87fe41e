//! End-to-end loopback scenarios: a store mounting a mix of local disks
//! and chunkd-served remote disks survives the full lifecycle — ingest,
//! degraded reads, a lost remote disk, daemon repair, remote corruption,
//! and remote tmp sweeping.

use std::fs::{self, File};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use pbrs_chunkd::protocol::{read_frame, write_frame};
use pbrs_chunkd::{ChunkServer, RemoteDisk, Request, Response, ServerConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkStatus, DaemonConfig, FaultPlan, LocalDisk, PlacementPolicy,
    RackMap, RepairDaemon, StoreConfig,
};

const CHUNK_LEN: usize = 512;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 37 + 11) % 251) as u8).collect()
}

/// A piggyback-4-2 store with disks 0–2 remote (chunkd over loopback) and
/// disks 3–5 local, driven through loss, repair and corruption.
#[test]
fn mixed_local_remote_store_full_lifecycle() {
    let dir = TempDir::new("chunkd-loopback");
    let servers: Vec<ChunkServer> = (0..3)
        .map(|i| {
            ChunkServer::bind_with(
                dir.path().join(format!("srv-{i:02}")),
                "127.0.0.1:0",
                ServerConfig {
                    threads: 2,
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let mut disks: Vec<Arc<dyn ChunkBackend>> = servers
        .iter()
        .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())) as Arc<dyn ChunkBackend>)
        .collect();
    for i in 3..6 {
        disks.push(Arc::new(LocalDisk::new(
            dir.path().join(format!("disk-{i:02}")),
        )));
    }
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "piggyback-4-2".parse().unwrap())
                .chunk_len(CHUNK_LEN),
            disks,
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );

    // Ingest + healthy read-back, chunks on sockets.
    let data = pattern(4 * CHUNK_LEN * 5 + 217); // 6 stripes, last partial
    store.put("obj", &data[..]).unwrap();
    assert_eq!(store.get("obj").unwrap(), data);
    let after_put = store.socket_counters();
    assert!(
        after_put.bytes_sent > (6 * 3 * CHUNK_LEN) as u64,
        "three disks' worth of chunks must have crossed sockets: {after_put:?}"
    );

    // Lose remote disk 1 wholesale (its server stays up, its files die).
    fs::remove_dir_all(servers[1].root()).unwrap();
    let scrub = store.scrub().unwrap();
    assert_eq!(scrub.lost_disks, vec![1]);
    assert_eq!(scrub.damages.len(), 6);
    assert_eq!(store.get("obj").unwrap(), data, "degraded read over TCP");
    assert!(store.metrics().degraded_stripe_reads >= 6);

    // The daemon rebuilds the remote disk over the wire.
    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.chunks_repaired, 6);
    assert_eq!(stats.failures, 0);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);

    // Corrupt one byte of a remote chunk: detected through the wire's
    // checksum verification, served degraded, repaired on demand.
    let victim = servers[2].root().join("obj/00000002-02.chunk");
    let mut bytes = fs::read(&victim).unwrap();
    let at = bytes.len() - 7;
    bytes[at] ^= 0x40;
    fs::write(&victim, &bytes).unwrap();
    assert_eq!(store.get("obj").unwrap(), data, "read over corrupt remote");
    assert!(store.metrics().corrupt_chunks_detected >= 1);
    let repair = store.repair_stripe("obj", 2, &[2]).unwrap();
    assert_eq!(repair.rebuilt, vec![2]);
    assert!(store.scrub().unwrap().is_clean());

    // A stale tmp on a remote disk is swept through the protocol and
    // reported with its disk index.
    let stale = servers[0].root().join("obj/00000000-00.tmp");
    fs::write(&stale, b"crash leftover").unwrap();
    File::options()
        .write(true)
        .open(&stale)
        .unwrap()
        .set_modified(SystemTime::now() - Duration::from_secs(3600))
        .unwrap();
    let scrub = store.scrub().unwrap();
    assert_eq!(scrub.stale_tmp_removed, vec!["disk-00/obj/00000000-00.tmp"]);
    assert!(!stale.exists());
}

/// Reopening a store over the same mounts preserves objects, and a dead
/// server surfaces as a lost disk (not a hang or a hard error).
#[test]
fn reopen_and_server_death_are_handled() {
    let dir = TempDir::new("chunkd-reopen");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let make_disks = |addr: &str| -> Vec<Arc<dyn ChunkBackend>> {
        let mut disks: Vec<Arc<dyn ChunkBackend>> = vec![Arc::new(RemoteDisk::with_timeout(
            addr.to_string(),
            Duration::from_millis(500),
        ))];
        for i in 1..6 {
            disks.push(Arc::new(LocalDisk::new(
                dir.path().join(format!("disk-{i:02}")),
            )));
        }
        disks
    };
    let config = || {
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap()).chunk_len(CHUNK_LEN)
    };
    let data = pattern(4 * CHUNK_LEN + 99);
    {
        let store = BlockStore::open_with_backends(
            config(),
            make_disks(&addr),
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap();
        store.put("obj", &data[..]).unwrap();
    }
    // Reopen over the same mounts: the object is still there.
    let store = BlockStore::open_with_backends(
        config(),
        make_disks(&addr),
        RackMap::per_disk(6),
        PlacementPolicy::Identity,
    )
    .unwrap();
    assert_eq!(store.get("obj").unwrap(), data);

    // Kill the server: the remote disk reports lost, reads degrade, and
    // nothing hangs (the client's timeout bounds every attempt).
    server.shutdown();
    let scrub = store.scrub().unwrap();
    assert_eq!(scrub.lost_disks, vec![0]);
    assert_eq!(store.get("obj").unwrap(), data, "served from survivors");
}

/// Every remote op served by the chunk server lands in its per-op latency
/// histogram, and the Prometheus exposition carries the families.
#[test]
fn server_times_each_remote_op() {
    let dir = TempDir::new("chunkd-op-latency");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let disk = RemoteDisk::new(server.local_addr().to_string());

    let payload = pattern(CHUNK_LEN);
    let id = pbrs_store::ChunkId {
        stripe: 0,
        shard: 0,
    };
    disk.ensure_object("obj").unwrap();
    disk.write_chunk("obj", id, &payload).unwrap();
    let mut out = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into("obj", id, &mut out).unwrap().unwrap();
    assert_eq!(out, payload);
    disk.read_chunk_range("obj", id, CHUNK_LEN, 0, &mut out[..CHUNK_LEN / 2])
        .unwrap()
        .unwrap();
    disk.verify_chunk("obj", id, CHUNK_LEN).unwrap();
    assert!(disk.is_available());

    let counts: std::collections::BTreeMap<String, u64> = server
        .op_latency()
        .into_iter()
        .map(|(name, s)| (name, s.count))
        .collect();
    for op in [
        "op_ping_duration_seconds",
        "op_ensure_object_duration_seconds",
        "op_write_chunk_duration_seconds",
        "op_read_chunk_duration_seconds",
        "op_read_range_duration_seconds",
        "op_verify_duration_seconds",
    ] {
        assert!(counts[op] >= 1, "{op} was never recorded: {counts:?}");
    }
    // Ops never served stay at zero but are still present.
    assert_eq!(counts["op_remove_object_duration_seconds"], 0);

    let text = server.metrics_prometheus();
    assert!(text.contains("# TYPE pbrs_chunkd_op_read_chunk_duration_seconds histogram"));
    assert!(text.contains("pbrs_chunkd_op_read_chunk_duration_seconds_count 1"));
    assert!(text.contains("le=\"+Inf\""));
    server.shutdown();
}

/// The server-side fault hook over real sockets: an injected connection
/// drop kills the connection (the client's transparent retry rides it
/// out), a stalled op is bounded by the client's deadline budget, and an
/// already-expired budget is refused with a typed error instead of work.
#[test]
fn fault_hook_drops_connections_and_deadlines_bound_stalls() {
    let dir = TempDir::new("chunkd-chaos");
    let plan =
        Arc::new(FaultPlan::parse("op=read drop count=1; disk=0 op=verify stall", 11).unwrap());
    let server = ChunkServer::bind_with(
        dir.path().join("srv"),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            fault_plan: Some(Arc::clone(&plan)),
            fault_disk: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let disk =
        RemoteDisk::with_timeout(server.local_addr().to_string(), Duration::from_millis(400))
            .deadline(Duration::from_millis(400));
    let id = pbrs_store::ChunkId {
        stripe: 0,
        shard: 0,
    };
    let payload = pattern(CHUNK_LEN);
    disk.ensure_object("obj").unwrap();
    disk.write_chunk("obj", id, &payload).unwrap();

    // First read hits the drop fault: the server kills the connection
    // without answering; the client redials and the retry succeeds.
    let mut out = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into("obj", id, &mut out).unwrap().unwrap();
    assert_eq!(out, payload);
    assert!(plan.fired() >= 1, "the drop rule never fired");
    assert!(
        disk.reconnect_stats().successes >= 2,
        "surviving the drop requires a redial: {:?}",
        disk.reconnect_stats()
    );

    // The stalled verify is bounded by the budget and degrades to a lost
    // chunk — never a hang, never a hard error.
    let start = std::time::Instant::now();
    let (status, _) = disk.verify_chunk("obj", id, CHUNK_LEN).unwrap();
    assert_eq!(status, ChunkStatus::Missing);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stalled verify not bounded: {:?}",
        start.elapsed()
    );

    // A wire frame whose budget is already spent gets the typed refusal.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let expired = Request::Deadline {
        budget_ms: 0,
        inner: Box::new(Request::Ping),
    };
    write_frame(&mut stream, 1, &expired.encode()).unwrap();
    let (req_id, body, _) = read_frame(&mut stream).unwrap();
    assert_eq!(req_id, 1);
    match Response::decode(&body).unwrap() {
        Response::Err { message } => assert!(message.contains("deadline"), "{message}"),
        other => panic!("expected a deadline refusal, got {other:?}"),
    }

    plan.release(); // unstall the parked server worker before teardown
    server.shutdown();
}
