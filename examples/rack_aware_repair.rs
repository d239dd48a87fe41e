//! The paper's cross-rack traffic argument reproduced on real sockets with
//! real racks: 14 "racks" of chunkd TCP servers (2 disks each, 28 servers),
//! a store placing stripes over the pool under a chosen placement policy,
//! one disk wiped, and the repair traffic measured on per-socket byte
//! counters *split by rack* — the simulator's Fig-3-style accounting made
//! observable on real I/O.
//!
//! Four runs: {rs-10-4, piggyback-10-4} × {rack-disjoint, rack-aware}.
//! Client traffic (ingest and verification) goes through a `pbrs-gateway`
//! front door, so the object crosses real sockets end to end.
//!
//! * Under **rack-disjoint** placement (§2.1's production layout) every
//!   helper byte crosses a rack boundary, so Piggybacked-RS's ~30 % helper
//!   saving is a ~30 % cross-rack saving — the paper's headline.
//! * Under **rack-aware** (grouped) placement the locality-first repair
//!   scheduler finds same-rack helpers, so part of the helper traffic never
//!   leaves the rack at all — the remedy the rack-aware-recovery literature
//!   explores.
//!
//! Run with: `cargo run --release --example rack_aware_repair`

#![forbid(unsafe_code)]

use std::fs;
use std::sync::Arc;

use pbrs::chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs::prelude::*;
use pbrs::store::testing::TempDir;

/// Racks of chunk servers; must be >= the code width (14) for the
/// rack-disjoint policy.
const RACKS: usize = 14;
/// Chunk servers per rack — the pool (28) is twice the code width, so the
/// placement genuinely chooses.
const DISKS_PER_RACK: usize = 2;
/// Logical file size to ingest under each code × policy.
const FILE_LEN: usize = 8 * 1024 * 1024;
/// Chunk payload bytes (shard size per stripe).
const CHUNK_LEN: usize = 64 * 1024;
/// Data shards of both codes under test (rs-10-4 / piggyback-10-4).
const DATA_SHARDS: usize = 10;
/// Bytes chunkd puts around every response body: the frame header
/// (length and request id, 12 bytes) and the status byte.
const RESPONSE_FRAMING: u64 = 13;

struct RunResult {
    code: String,
    policy: PlacementPolicy,
    /// Helper bytes received from servers outside the lost disk's rack
    /// (socket counters, frame headers included).
    cross_rack_bytes: u64,
    /// Helper bytes received from the lost disk's rack-mates.
    intra_rack_bytes: u64,
    /// The store's price of the repairs' plans (payload bytes), by rack.
    store_intra: u64,
    store_cross: u64,
    /// What the repairs fetched of that price: the short last stripe's
    /// zero padding is priced but never read.
    store_fetched: u64,
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

/// [`answered`] summed over every server but `lost`.
fn helpers_answered(servers: &[ChunkServer], lost: usize) -> (u64, u64) {
    servers
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != lost)
        .map(|(_, s)| answered(s))
        .fold((0, 0), |(a, p), (da, dp)| (a + da, p + dp))
}

fn run(
    spec: &str,
    policy: PlacementPolicy,
    file: &[u8],
) -> Result<RunResult, Box<dyn std::error::Error>> {
    println!("--- {spec} under {policy} placement ---");
    let dir = TempDir::new(&format!("rack-aware-{spec}-{policy}"));
    let code_spec: CodeSpec = spec.parse()?;
    let pool = RACKS * DISKS_PER_RACK;

    // One chunk server per pool disk, all on loopback; rack r owns disks
    // r*DISKS_PER_RACK .. (r+1)*DISKS_PER_RACK (matching RackMap::uniform).
    let servers: Vec<ChunkServer> = (0..pool)
        .map(|i| {
            ChunkServer::bind_with(
                dir.path().join(format!("srv-{i:02}")),
                "127.0.0.1:0",
                ServerConfig {
                    threads: 1,
                    ..ServerConfig::default()
                },
            )
        })
        .collect::<Result<_, _>>()?;
    let racks = RackMap::uniform(RACKS, DISKS_PER_RACK);
    let remotes: Vec<Arc<RemoteDisk>> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let rack = racks
                .rack_name(racks.rack_of(i).expect("pool disk"))
                .to_string();
            Arc::new(RemoteDisk::new(s.local_addr().to_string()).labeled(rack))
        })
        .collect();
    let disks: Vec<Arc<dyn ChunkBackend>> = remotes
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ChunkBackend>)
        .collect();
    let store = Arc::new(BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), code_spec)
            .chunk_len(CHUNK_LEN)
            .placement_seed(0x2013),
        disks,
        racks.clone(),
        policy,
    )?);

    // The client door: object traffic enters and leaves through a gateway,
    // not direct store calls; repair below stays the store's business.
    let gateway = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default())?;
    let mut client = GatewayClient::connect(gateway.local_addr())?;

    let (len, stripes) = client.put("demo.bin", file)?;
    println!(
        "ingested {len} bytes as {stripes} stripes through the gateway \
         over {pool} chunk servers in {RACKS} racks"
    );

    // Disaster: a server holding *data* chunks loses every byte (the
    // machine rebooted with a fresh drive; the server keeps answering).
    // The paper's measured recovery stream is data-block reconstruction,
    // so the victim is the disk holding the most data chunks and no parity
    // chunks — placement is a pure function of (seed, object, stripe), so
    // both codes see the identical stripe→disk layout and lose the same
    // disk: a perfectly paired comparison.
    let lost_disk = {
        let mut data_held = vec![0usize; pool];
        let mut parity_held = vec![0usize; pool];
        for stripe in 0..stripes {
            for (shard, &disk) in store.stripe_disks("demo.bin", stripe).iter().enumerate() {
                if shard < DATA_SHARDS {
                    data_held[disk] += 1;
                } else {
                    parity_held[disk] += 1;
                }
            }
        }
        (0..pool)
            .filter(|&d| parity_held[d] == 0 && data_held[d] > 0)
            .max_by_key(|&d| data_held[d])
            .expect("some pool disk holds only data chunks (deterministic seed)")
    };
    fs::remove_dir_all(servers[lost_disk].root())?;
    let lost_rack = racks.rack_of(lost_disk).expect("pool disk");
    println!(
        "wiped the disk behind {} ({}) — it held data chunks only",
        servers[lost_disk].local_addr(),
        remotes[lost_disk].describe(),
    );

    // Snapshot each helper connection's received bytes, repair, and diff —
    // exactly the repair's socket traffic, split by the helper's rack.
    let before: Vec<u64> = remotes
        .iter()
        .map(|r| r.counters().bytes_received)
        .collect();
    let metrics_before = store.metrics();
    let answered_before = helpers_answered(&servers, lost_disk);

    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    let scan = daemon.scan_now()?;
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.failures, 0, "repairs must succeed");
    println!(
        "repair scan found {} damaged chunks in {} stripes; daemon rebuilt {} chunks",
        scan.damaged_chunks, scan.enqueued_stripes, stats.chunks_repaired
    );

    let mut intra = 0u64;
    let mut cross = 0u64;
    for (i, remote) in remotes.iter().enumerate() {
        if i == lost_disk {
            continue; // the rebuilt chunks flow *to* this server, not from it
        }
        let delta = remote.counters().bytes_received - before[i];
        if racks.rack_of(i) == Some(lost_rack) {
            intra += delta;
        } else {
            cross += delta;
        }
    }
    let metrics = store.metrics();

    // The helper sockets carried exactly what the repairs fetched plus
    // framing: every response's header and status byte, and each scan
    // ping's one-byte answer.
    let (responses, pings) = {
        let after = helpers_answered(&servers, lost_disk);
        (after.0 - answered_before.0, after.1 - answered_before.1)
    };
    assert_eq!(
        intra + cross,
        stats.fetched_bytes + responses * RESPONSE_FRAMING + pings,
        "helper socket bytes must be the fetched bytes plus framing only"
    );

    assert!(
        store.scrub()?.is_clean(),
        "store must be whole after repair"
    );
    // Verify the rebuilt object over the client path: byte-identical and,
    // per the GET end frame, served with zero degraded stripes.
    let got = client.get("demo.bin")?;
    assert_eq!(got.data, file, "rebuilt bytes must match over the gateway");
    assert_eq!(
        got.degraded_stripes, 0,
        "no stripe should read degraded after the repair"
    );
    gateway.shutdown();
    for server in servers {
        server.shutdown();
    }

    Ok(RunResult {
        code: store.code().name(),
        policy,
        cross_rack_bytes: cross,
        intra_rack_bytes: intra,
        store_intra: metrics.repair_intra_rack_bytes - metrics_before.repair_intra_rack_bytes,
        store_cross: metrics.repair_cross_rack_bytes - metrics_before.repair_cross_rack_bytes,
        store_fetched: stats.fetched_bytes,
        chunks_repaired: stats.chunks_repaired,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "pbrs rack-aware repair: {RACKS} racks x {DISKS_PER_RACK} chunk servers, \
         one disk wiped per run\n"
    );
    let file: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 31 + 7) % 253) as u8).collect();

    let mut results = Vec::new();
    for policy in [PlacementPolicy::RackDisjoint, PlacementPolicy::RackAware] {
        for spec in ["rs-10-4", "piggyback-10-4"] {
            results.push(run(spec, policy, &file)?);
            println!();
        }
    }

    println!(
        "--- repair socket traffic by rack locality, same workload \
         ({} MiB, one data-chunk disk wiped) ---",
        FILE_LEN / (1024 * 1024)
    );
    println!(
        "{:<22} {:<14} {:>15} {:>15} {:>12} {:>7}",
        "code", "placement", "cross-rack MiB", "intra-rack MiB", "intra share", "chunks"
    );
    for r in &results {
        let share =
            r.intra_rack_bytes as f64 / (r.intra_rack_bytes + r.cross_rack_bytes).max(1) as f64;
        println!(
            "{:<22} {:<14} {:>15.2} {:>15.2} {:>11.1}% {:>7}",
            r.code,
            r.policy.to_string(),
            mib(r.cross_rack_bytes),
            mib(r.intra_rack_bytes),
            share * 100.0,
            r.chunks_repaired
        );
    }

    // The paper's headline, on wires: under rack-disjoint placement every
    // helper byte crosses racks, so Piggybacked-RS's helper saving is a
    // cross-rack saving.
    let cross_of = |code: &str, policy: PlacementPolicy| {
        results
            .iter()
            .find(|r| r.code.to_lowercase().starts_with(code) && r.policy == policy)
            .expect("run present")
    };
    let rs_disjoint = cross_of("rs", PlacementPolicy::RackDisjoint);
    let pb_disjoint = cross_of("piggybacked", PlacementPolicy::RackDisjoint);
    let saving = 1.0 - pb_disjoint.cross_rack_bytes as f64 / rs_disjoint.cross_rack_bytes as f64;
    println!(
        "\npiggyback-10-4 moved {:.1}% fewer cross-rack helper bytes than rs-10-4 \
         under rack-disjoint placement",
        saving * 100.0
    );
    assert!(
        saving >= 0.25,
        "expected >= 25% cross-rack saving on socket counters, measured {:.1}%",
        saving * 100.0
    );

    // The remedy: grouped placement plus locality-first helper choice keeps
    // part of the repair traffic inside the rack.
    let rs_aware = cross_of("rs", PlacementPolicy::RackAware);
    assert!(
        rs_aware.intra_rack_bytes > 0 && rs_aware.store_intra > 0,
        "rack-aware placement must yield same-rack helper bytes"
    );
    for r in &results {
        if r.policy == PlacementPolicy::RackDisjoint {
            assert_eq!(
                r.store_intra, 0,
                "{}: rack-disjoint placement admits no same-rack helpers",
                r.code
            );
        }
    }
    let aware_share = rs_aware.intra_rack_bytes as f64
        / (rs_aware.intra_rack_bytes + rs_aware.cross_rack_bytes) as f64;
    println!(
        "rack-aware placement kept {:.1}% of rs-10-4's repair traffic inside the rack \
         ({:.2} MiB intra vs {:.2} MiB cross on sockets; the store's plan priced \
         {:.2} MiB intra / {:.2} MiB cross and fetched {:.2} MiB of it)",
        aware_share * 100.0,
        mib(rs_aware.intra_rack_bytes),
        mib(rs_aware.cross_rack_bytes),
        mib(rs_aware.store_intra),
        mib(rs_aware.store_cross),
        mib(rs_aware.store_fetched),
    );
    Ok(())
}
