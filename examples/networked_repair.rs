//! The paper's experiment on a real network: every "disk" of the store is
//! a chunkd TCP server on loopback, one of them loses all its data, and
//! the repair daemon rebuilds it over sockets — so the helper bytes of
//! `rs-10-4` vs `piggyback-10-4` are measured on per-connection socket
//! counters, not just file I/O. Piggybacked-RS repairs the same lost disk
//! with ~30 % less traffic actually crossing the wire.
//!
//! Client traffic takes the network path too: the object is ingested and
//! verified through a `pbrs-gateway` front door on loopback, so bytes flow
//! client → gateway → chunkd servers end to end.
//!
//! Run with: `cargo run --release --example networked_repair`

#![forbid(unsafe_code)]

use std::fs;
use std::sync::Arc;

use pbrs::chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs::prelude::*;
use pbrs::store::testing::TempDir;

/// Logical file size to ingest under each code.
const FILE_LEN: usize = 16 * 1024 * 1024;
/// Chunk payload bytes (shard size per stripe).
const CHUNK_LEN: usize = 128 * 1024;
/// The data disk whose server loses everything.
const LOST_DISK: usize = 0;
/// Bytes chunkd puts around every response body: the frame header
/// (length and request id, 12 bytes) and the status byte.
const RESPONSE_FRAMING: u64 = 13;

struct RunResult {
    code: String,
    helper_socket_bytes: u64,
    rebuilt_socket_bytes: u64,
    chunks_repaired: u64,
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `(responses, pings)`: the requests `server` has answered so far, of
/// any op, and how many of them were pings.
fn answered(server: &ChunkServer) -> (u64, u64) {
    server
        .op_latency()
        .iter()
        .fold((0, 0), |(all, pings), (op, summary)| {
            let ping = if op.starts_with("op_ping_") {
                summary.count
            } else {
                0
            };
            (all + summary.count, pings + ping)
        })
}

/// [`answered`] summed over every server but the lost one.
fn helpers_answered(servers: &[ChunkServer]) -> (u64, u64) {
    servers
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != LOST_DISK)
        .map(|(_, s)| answered(s))
        .fold((0, 0), |(a, p), (da, dp)| (a + da, p + dp))
}

fn run_code(spec: &str, file: &[u8]) -> Result<RunResult, Box<dyn std::error::Error>> {
    println!("--- {spec} ---");
    let dir = TempDir::new(&format!("networked-repair-{spec}"));
    let code_spec: CodeSpec = spec.parse()?;
    let code = build_spec(&code_spec)?;
    let n = code.params().total_shards();

    // One chunk server per disk, all on loopback with OS-assigned ports.
    let servers: Vec<ChunkServer> = (0..n)
        .map(|i| {
            ChunkServer::bind_with(
                dir.path().join(format!("srv-{i:02}")),
                "127.0.0.1:0",
                ServerConfig {
                    threads: 2,
                    ..ServerConfig::default()
                },
            )
        })
        .collect::<Result<_, _>>()?;
    let remotes: Vec<Arc<RemoteDisk>> = servers
        .iter()
        .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())))
        .collect();
    let disks: Vec<Arc<dyn ChunkBackend>> = remotes
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ChunkBackend>)
        .collect();
    // The legacy layout: shard i on server i, every server its own rack.
    let store = Arc::new(BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), code_spec).chunk_len(CHUNK_LEN),
        disks,
        RackMap::per_disk(n),
        PlacementPolicy::Identity,
    )?);

    // The client-facing door: a streaming gateway over the same store, so
    // ingest and verification cross the wire twice (client → gateway,
    // gateway → chunk servers).
    let gateway = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default())?;
    let mut client = GatewayClient::connect(gateway.local_addr())?;

    let (len, stripes) = client.put("demo.bin", file)?;
    println!(
        "ingested {len} bytes as {stripes} stripes through the gateway at {} \
         across {n} chunk servers ({:.1} MiB of chunks over sockets)",
        gateway.local_addr(),
        mib(store.socket_counters().bytes_sent),
    );

    // Disaster: disk LOST_DISK's server loses every byte it stored (the
    // server itself stays up — the machine rebooted with a fresh drive).
    fs::remove_dir_all(servers[LOST_DISK].root())?;
    println!(
        "wiped the disk behind {} (server still answering)",
        servers[LOST_DISK].local_addr()
    );

    // Measure exactly the repair's traffic: snapshot each connection's
    // counters, let the daemon rebuild, and diff.
    let helpers_before: u64 = remotes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != LOST_DISK)
        .map(|(_, r)| r.counters().bytes_received)
        .sum();
    let lost_before = remotes[LOST_DISK].counters().bytes_sent;
    let answered_before = helpers_answered(&servers);
    let scrubbed_before = store.metrics().scrub_bytes_read;

    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    let scan = daemon.scan_now()?;
    println!(
        "repair scan: lost disks {:?}, {} damaged chunks in {} stripes",
        scan.lost_disks, scan.damaged_chunks, scan.enqueued_stripes
    );
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.failures, 0, "repairs must succeed");
    assert_eq!(
        store.metrics().scrub_bytes_read,
        scrubbed_before,
        "a lost disk is rebuilt from manifest + placement, not from a scrub"
    );

    // Take the traffic deltas *now*: the verification reads below are
    // ordinary reads, not part of the repair being measured.
    let helper_socket_bytes: u64 = remotes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != LOST_DISK)
        .map(|(_, r)| r.counters().bytes_received)
        .sum::<u64>()
        - helpers_before;
    let rebuilt_socket_bytes = remotes[LOST_DISK].counters().bytes_sent - lost_before;

    // The helper sockets carried exactly what the repairs fetched plus
    // framing: every response's header and status byte, and each scan
    // ping's one-byte answer. Nothing else — in particular, no zero
    // padding of the object's short last stripe.
    let (responses, pings) = {
        let after = helpers_answered(&servers);
        (after.0 - answered_before.0, after.1 - answered_before.1)
    };
    assert_eq!(
        helper_socket_bytes,
        stats.fetched_bytes + responses * RESPONSE_FRAMING + pings,
        "helper socket bytes must be the fetched bytes plus framing only"
    );
    assert!(
        stats.fetched_bytes < stats.helper_bytes,
        "the short last stripe's padding is priced but never fetched"
    );

    assert!(
        store.scrub()?.is_clean(),
        "store must be whole after repair"
    );
    // Verify through the same client path readers would use: a full
    // streamed GET, which must now be byte-identical *and* clean — the
    // end frame reports zero degraded stripes once the rebuild landed.
    let got = client.get("demo.bin")?;
    assert_eq!(got.data, file, "rebuilt bytes must match over the gateway");
    assert_eq!(
        got.degraded_stripes, 0,
        "no stripe should read degraded after the repair"
    );
    gateway.shutdown();
    println!(
        "daemon rebuilt {} chunks: {:.1} MiB of helper bytes received over \
         sockets ({:.1} MiB fetched of a {:.1} MiB plan), {:.1} MiB of \
         rebuilt chunks sent back",
        stats.chunks_repaired,
        mib(helper_socket_bytes),
        mib(stats.fetched_bytes),
        mib(stats.helper_bytes),
        mib(rebuilt_socket_bytes),
    );

    Ok(RunResult {
        code: store.code().name(),
        helper_socket_bytes,
        rebuilt_socket_bytes,
        chunks_repaired: stats.chunks_repaired,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("pbrs networked repair: every disk a TCP chunk server, one wiped\n");
    let file: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 31 + 7) % 253) as u8).collect();

    let rs = run_code("rs-10-4", &file)?;
    println!();
    let pb = run_code("piggyback-10-4", &file)?;

    println!(
        "\n--- socket traffic of the repair, same workload \
         ({} MiB, disk {LOST_DISK} wiped) ---",
        FILE_LEN / (1024 * 1024)
    );
    println!(
        "{:<22} {:>16} {:>14} {:>8}",
        "code", "helper MiB (rx)", "rebuilt MiB", "chunks"
    );
    for r in [&rs, &pb] {
        println!(
            "{:<22} {:>16.1} {:>14.1} {:>8}",
            r.code,
            mib(r.helper_socket_bytes),
            mib(r.rebuilt_socket_bytes),
            r.chunks_repaired
        );
    }
    let saving = 1.0 - pb.helper_socket_bytes as f64 / rs.helper_socket_bytes as f64;
    println!(
        "\nPiggybacked-RS moved {:.1}% fewer helper bytes across the sockets \
         for the same rebuilt disk.",
        saving * 100.0
    );
    assert!(
        saving >= 0.25,
        "expected >= 25% socket-traffic saving, measured {:.1}%",
        saving * 100.0
    );
    Ok(())
}
