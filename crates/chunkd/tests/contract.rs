//! The networked `repair_reads` contract: a remote single-failure repair
//! issues exactly the declared helper ranges — no byte outside them ever
//! crosses the socket.
//!
//! Proof technique (borrowed from `crates/core/tests/repair_reads.rs`):
//! after ingesting an object, every helper chunk *on the servers' disks*
//! is rewritten so the bytes outside the declared ranges are garbage (with
//! checksums recomputed, so reads of undeclared ranges would verify and
//! poison the rebuild undetected). If the repair still reproduces the lost
//! chunk bit-for-bit, it cannot have read any undeclared byte. The per-disk
//! socket counters then pin down the *quantity*: each helper connection
//! carried its declared range plus a few framing bytes — for Piggybacked-RS
//! parity helpers, half a chunk, never a whole one.
//!
//! Both hold with the helper reads overlapped (all begun, then all waited
//! for): overlap changes when the bytes move, never which bytes. The
//! multi-loss path has the same kind of contract — an MDS code fetches
//! exactly k whole survivors, and the other disks' sockets stay silent.
//!
//! The write side's contract is that there is one write path: a chunk begun
//! and waited for is the chunk `write_chunk` writes — same file, same bytes
//! on the socket, same refusals.

use std::fs;
use std::sync::Arc;

use pbrs_chunkd::{ChunkServer, RemoteDisk};
use pbrs_core::registry;
use pbrs_erasure::{reads_for_shard, total_read_bytes, CodeSpec, ShardRead};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    chunk, BlockStore, ChunkBackend, ChunkId, PlacementPolicy, RackMap, StoreConfig, StoreError,
};

const CHUNK_LEN: usize = 2048;
const STRIPES: u64 = 2;
const TARGET: usize = 1; // a data shard: piggyback uses half-chunk helpers

/// Per-response wire overhead: 4-byte length prefix + 8-byte request id
/// + 1 status byte.
const FRAME_OVERHEAD: u64 = pbrs_wire::FRAME_OVERHEAD as u64 + 1;

fn garbage_fill_outside(path: &std::path::Path, id: ChunkId, declared: &[&ShardRead]) -> Vec<u8> {
    let original = chunk::read_chunk(path, id, CHUNK_LEN).unwrap().unwrap();
    let mut doctored: Vec<u8> = (0..CHUNK_LEN)
        .map(|i| ((i * 89 + 31) % 251) as u8)
        .collect();
    for read in declared {
        doctored[read.range()].copy_from_slice(&original[read.range()]);
    }
    chunk::write_chunk(path, id, &doctored).unwrap();
    original
}

/// A `piggyback-6-3` store over nine loopback chunk servers (shard `i` on
/// server `i`) holding a [`STRIPES`]-stripe object.
struct Rig {
    // Field order is drop order: the store and its clients go before the
    // servers, the servers before their directory.
    store: BlockStore,
    remotes: Vec<Arc<RemoteDisk>>,
    servers: Vec<ChunkServer>,
    _dir: TempDir,
}

fn rig(label: &str) -> Rig {
    let spec: CodeSpec = "piggyback-6-3".parse().unwrap();
    let code = registry::build(&spec).unwrap();
    let n = code.params().total_shards();

    let dir = TempDir::new(label);
    let servers: Vec<ChunkServer> = (0..n)
        .map(|i| ChunkServer::bind(dir.path().join(format!("srv-{i:02}")), "127.0.0.1:0").unwrap())
        .collect();
    let remotes: Vec<Arc<RemoteDisk>> = servers
        .iter()
        .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())))
        .collect();
    let disks: Vec<Arc<dyn ChunkBackend>> = remotes
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ChunkBackend>)
        .collect();
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), spec).chunk_len(CHUNK_LEN),
        disks,
        RackMap::per_disk(n),
        PlacementPolicy::Identity,
    )
    .unwrap();

    let data: Vec<u8> = (0..code.params().data_shards() * CHUNK_LEN * STRIPES as usize)
        .map(|i| ((i * 31 + 7) % 253) as u8)
        .collect();
    store.put("obj", &data[..]).unwrap();
    Rig {
        store,
        remotes,
        servers,
        _dir: dir,
    }
}

fn chunk_path(server: &ChunkServer, stripe: u64, shard: usize) -> std::path::PathBuf {
    server
        .root()
        .join("obj")
        .join(format!("{stripe:08}-{shard:02}.chunk"))
}

#[test]
fn remote_repair_reads_only_the_declared_ranges() {
    let Rig {
        store,
        remotes,
        servers,
        _dir,
    } = rig("chunkd-contract");
    let params = store.code().params();
    let (k, n) = (params.data_shards(), params.total_shards());
    // The declared helper ranges for losing shard TARGET.
    let mut available = vec![true; n];
    available[TARGET] = false;
    let reads = store
        .code()
        .repair_reads(TARGET, &available, CHUNK_LEN)
        .unwrap();
    let declared_bytes = total_read_bytes(&reads);
    assert!(
        declared_bytes < (k * CHUNK_LEN) as u64,
        "piggyback data repair must beat the RS baseline"
    );

    // Doctor every helper chunk on the servers' disks: garbage outside the
    // declared ranges, valid checksums throughout. Remember the target's
    // original payloads, then delete them.
    let mut lost_payloads = Vec::new();
    for stripe in 0..STRIPES {
        for (shard, server) in servers.iter().enumerate() {
            let id = ChunkId { stripe, shard };
            let path = chunk_path(server, stripe, shard);
            if shard == TARGET {
                lost_payloads.push(chunk::read_chunk(&path, id, CHUNK_LEN).unwrap().unwrap());
                fs::remove_file(&path).unwrap();
            } else {
                let declared: Vec<&ShardRead> = reads_for_shard(&reads, shard).collect();
                garbage_fill_outside(&path, id, &declared);
            }
        }
    }

    // Snapshot per-disk socket counters, then repair both stripes.
    let before: Vec<u64> = remotes
        .iter()
        .map(|r| r.counters().bytes_received)
        .collect();
    for stripe in 0..STRIPES {
        let repair = store.repair_stripe("obj", stripe, &[TARGET]).unwrap();
        assert_eq!(repair.rebuilt, vec![TARGET], "stripe {stripe}");
        assert_eq!(repair.helper_bytes, declared_bytes, "stripe {stripe}");
    }

    // The rebuilds consumed garbage-adjacent helpers and still reproduced
    // the lost chunks exactly: no undeclared byte was read.
    for stripe in 0..STRIPES {
        let id = ChunkId {
            stripe,
            shard: TARGET,
        };
        let path = chunk_path(&servers[TARGET], stripe, TARGET);
        let rebuilt = chunk::read_chunk(&path, id, CHUNK_LEN).unwrap().unwrap();
        assert_eq!(
            rebuilt, lost_payloads[stripe as usize],
            "stripe {stripe}: rebuild diverged — an undeclared range was read"
        );
    }

    // Socket accounting: each helper disk received its declared ranges
    // plus only framing overhead; Piggybacked-RS parity helpers shipped
    // half-chunks, never whole ones.
    for (shard, remote) in remotes.iter().enumerate() {
        if shard == TARGET {
            continue;
        }
        let declared: Vec<&ShardRead> = reads_for_shard(&reads, shard).collect();
        let declared_disk: u64 = declared.iter().map(|r| r.len as u64).sum();
        let got = remote.counters().bytes_received - before[shard];
        let max = STRIPES * (declared_disk + FRAME_OVERHEAD * declared.len().max(1) as u64);
        assert!(
            got >= STRIPES * declared_disk && got <= max,
            "shard {shard}: {got} socket bytes for {declared_disk} declared \
             bytes per stripe (max {max})"
        );
        if declared.iter().all(|r| r.len == CHUNK_LEN / 2) && !declared.is_empty() {
            assert!(
                got < STRIPES * CHUNK_LEN as u64,
                "shard {shard}: a half-chunk helper shipped a whole chunk"
            );
        }
    }
}

#[test]
fn remote_multi_loss_repair_ships_exactly_k_whole_survivors() {
    let Rig {
        store,
        remotes,
        servers,
        _dir,
    } = rig("chunkd-contract-survivors");
    let params = store.code().params();
    let (k, n) = (params.data_shards(), params.total_shards());
    const LOST: [usize; 2] = [0, 4];
    let lost_payloads: Vec<Vec<u8>> = LOST
        .iter()
        .map(|&shard| {
            let path = chunk_path(&servers[shard], 0, shard);
            let id = ChunkId { stripe: 0, shard };
            let payload = chunk::read_chunk(&path, id, CHUNK_LEN).unwrap().unwrap();
            fs::remove_file(&path).unwrap();
            payload
        })
        .collect();

    let before: Vec<u64> = remotes
        .iter()
        .map(|r| r.counters().bytes_received)
        .collect();
    let repair = store.repair_stripe("obj", 0, &LOST).unwrap();
    assert_eq!(repair.rebuilt, LOST);
    assert_eq!(repair.helper_bytes, (k * CHUNK_LEN) as u64);
    for (&shard, original) in LOST.iter().zip(&lost_payloads) {
        let path = chunk_path(&servers[shard], 0, shard);
        let id = ChunkId { stripe: 0, shard };
        assert_eq!(
            &chunk::read_chunk(&path, id, CHUNK_LEN).unwrap().unwrap(),
            original
        );
    }

    // With one rack per disk the survivors rank in index order: the first
    // k of them each shipped one whole chunk in one frame, and the rest —
    // never begun, because nothing failed — shipped nothing at all.
    let survivors: Vec<usize> = (0..n).filter(|s| !LOST.contains(s)).collect();
    for (rank, &shard) in survivors.iter().enumerate() {
        let got = remotes[shard].counters().bytes_received - before[shard];
        let expect = if rank < k {
            CHUNK_LEN as u64 + FRAME_OVERHEAD
        } else {
            0
        };
        assert_eq!(got, expect, "survivor shard {shard} (rank {rank})");
    }
}

#[test]
fn begin_write_then_wait_is_write_chunk() {
    let dir = TempDir::new("chunkd-contract-write");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let disk = RemoteDisk::new(server.local_addr().to_string());
    disk.ensure_object("obj").unwrap();
    let payload: Vec<u8> = (0..CHUNK_LEN).map(|i| ((i * 17 + 3) % 251) as u8).collect();
    let at = |stripe| ChunkId { stripe, shard: 2 };
    let (blocking, split) = (at(0), at(1));

    let start = disk.counters();
    disk.write_chunk("obj", blocking, &payload).unwrap();
    let after_blocking = disk.counters();
    disk.begin_write("obj", split, &payload).wait().unwrap();
    let after_split = disk.counters();

    // The same bytes crossed the socket in each direction ...
    assert_eq!(
        after_split.bytes_sent - after_blocking.bytes_sent,
        after_blocking.bytes_sent - start.bytes_sent
    );
    assert_eq!(
        after_split.bytes_received - after_blocking.bytes_received,
        after_blocking.bytes_received - start.bytes_received
    );
    // ... and the same file landed: header (its chunk id aside) and payload.
    let file = |id: ChunkId| {
        let name = format!("{:08}-{:02}.chunk", id.stripe, id.shard);
        server.root().join("obj").join(name)
    };
    assert_eq!(
        fs::metadata(file(blocking)).unwrap().len(),
        fs::metadata(file(split)).unwrap().len()
    );
    for id in [blocking, split] {
        assert_eq!(
            chunk::read_chunk(&file(id), id, CHUNK_LEN)
                .unwrap()
                .unwrap(),
            payload
        );
    }

    // A payload that cannot fit a frame is refused by both, the same way,
    // and writes nothing.
    let oversized = vec![0u8; pbrs_wire::MAX_FRAME];
    let huge = at(2);
    let refusals = [
        disk.write_chunk("obj", huge, &oversized).unwrap_err(),
        disk.begin_write("obj", huge, &oversized)
            .wait()
            .unwrap_err(),
    ];
    for refusal in &refusals {
        assert!(matches!(refusal, StoreError::Io { .. }), "{refusal}");
    }
    assert_eq!(refusals[0].to_string(), refusals[1].to_string());
    assert!(!file(huge).exists());
    // The client is still usable afterwards.
    assert!(disk.is_available());
}
