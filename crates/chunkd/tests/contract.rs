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
//!
//! Zero padding crosses no socket. A short stripe's padding chunks are
//! written as `WriteZeros` (the server writes the zero chunk a `WriteChunk`
//! of zeros would) and read as `Verify` (only the verdict comes back), so a
//! PUT, a GET and a padding repair move exactly their payload chunks plus
//! per-request framing — pinned here byte for byte.

use std::fs;
use std::sync::Arc;
use std::time::Duration;

use pbrs_chunkd::protocol::encode_verify;
use pbrs_chunkd::{ChunkServer, RemoteDisk, Request, ServerConfig};
use pbrs_core::registry;
use pbrs_erasure::{total_read_bytes, CodeSpec, ShardRead};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    chunk, BackendCounters, BlockStore, ChunkBackend, ChunkId, ChunkStatus, FaultPlan, LocalDisk,
    PlacementPolicy, RackMap, StoreConfig, StoreError,
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
    let dir = TempDir::new(label);
    let (store, remotes, servers) = cluster(&dir, "piggyback-6-3", None);
    let data: Vec<u8> = (0..store.stripe_data_len() * STRIPES as usize)
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

/// A `spec` store over one loopback chunk server per shard (shard `i` on
/// server `i`, one rack per disk), with its clients and servers. With an
/// `op_deadline` every disk is mounted behind a `GuardedDisk`.
fn cluster(
    dir: &TempDir,
    spec: &str,
    op_deadline: Option<Duration>,
) -> (BlockStore, Vec<Arc<RemoteDisk>>, Vec<ChunkServer>) {
    let spec: CodeSpec = spec.parse().unwrap();
    let n = registry::build(&spec).unwrap().params().total_shards();
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
    let mut config = StoreConfig::new(dir.path().join("root"), spec).chunk_len(CHUNK_LEN);
    if let Some(deadline) = op_deadline {
        config = config.op_deadline(deadline);
    }
    let store = BlockStore::open_with_backends(
        config,
        disks,
        RackMap::per_disk(n),
        PlacementPolicy::Identity,
    )
    .unwrap();
    (store, remotes, servers)
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
                let declared: Vec<&ShardRead> = reads.iter().filter(|r| r.shard == shard).collect();
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
        let declared: Vec<&ShardRead> = reads.iter().filter(|r| r.shard == shard).collect();
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

/// Bytes one request frame puts on the socket ahead of any write payload:
/// the frame header and the encoded request.
fn head(request: Request) -> u64 {
    (pbrs_wire::FRAME_OVERHEAD + request.encode().len()) as u64
}

/// Socket bytes moved on each disk between two counter snapshots.
fn moved(remotes: &[Arc<RemoteDisk>], before: &[BackendCounters]) -> Vec<(u64, u64)> {
    remotes
        .iter()
        .zip(before)
        .map(|(remote, before)| {
            let now = remote.counters();
            (
                now.bytes_sent - before.bytes_sent,
                now.bytes_received - before.bytes_received,
            )
        })
        .collect()
}

fn snapshot(remotes: &[Arc<RemoteDisk>]) -> Vec<BackendCounters> {
    remotes.iter().map(|r| r.counters()).collect()
}

#[test]
fn padding_moves_only_framing_for_put_get_and_repair() {
    const K: usize = 10;
    const PADDING_TARGET: usize = 9;
    // A one-chunk object and a three-and-a-half-chunk one: 1 and 4 data
    // chunks hold payload, the other 9 and 6 are zero padding. Each goes to
    // a bare store and to one whose disks are guarded by a deadline.
    let cases = [(CHUNK_LEN, 1), (7 * CHUNK_LEN / 2, 4)];
    for (op_deadline, (len, filled)) in [None, Some(Duration::from_secs(30))]
        .into_iter()
        .flat_map(|deadline| cases.map(|case| (deadline, case)))
    {
        let dir = TempDir::new("chunkd-contract-padding");
        let (store, remotes, servers) = cluster(&dir, "piggyback-10-4", op_deadline);
        let label = format!("{len} bytes, op_deadline {op_deadline:?}");
        let data: Vec<u8> = (0..len).map(|i| ((i * 13 + 5) % 251) as u8).collect();
        let object = || "obj".to_string();
        let id = ChunkId {
            stripe: 0,
            shard: 0,
        };
        let chunk = CHUNK_LEN as u64;
        let len32 = CHUNK_LEN as u32;
        let write = head(Request::WriteChunk {
            object: object(),
            id,
            payload: Vec::new(),
        });
        let zeros = head(Request::WriteZeros {
            object: object(),
            id,
            len: len32,
        });
        let read = head(Request::ReadChunk {
            object: object(),
            id,
            len: len32,
        });
        let verify = head(Request::Verify {
            object: object(),
            id,
            chunk_len: len32,
        });
        // Every response: the frame header and the status byte, then the
        // op's payload — a verify's verdict is its byte count and status.
        let ok = FRAME_OVERHEAD;
        let verdict = ok + encode_verify(&ChunkStatus::Healthy, 0).len() as u64;
        let padding = |shard: usize| (filled..K).contains(&shard);

        // PUT: payload chunks carry chunk_len bytes each, padding only a
        // length.
        let before = snapshot(&remotes);
        store.put("obj", &data[..]).unwrap();
        let expect: Vec<(u64, u64)> = (0..14)
            .map(|shard| {
                if padding(shard) {
                    (zeros, ok)
                } else {
                    (write + chunk, ok)
                }
            })
            .collect();
        assert_eq!(moved(&remotes, &before), expect, "put of {label}");

        // GET: the filled chunks are read, the padding only checked; parity
        // disks stay silent.
        let before = snapshot(&remotes);
        assert_eq!(store.get("obj").unwrap(), data);
        let expect: Vec<(u64, u64)> = (0..14)
            .map(|shard| match shard {
                s if padding(s) => (verify, verdict),
                s if s < K => (read, ok + chunk),
                _ => (0, 0),
            })
            .collect();
        assert_eq!(moved(&remotes, &before), expect, "get of {label}");

        // Repair of a lost padding chunk: the target is checked and written
        // as a length; no helper is read.
        let path = chunk_path(&servers[PADDING_TARGET], 0, PADDING_TARGET);
        let original = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let before = snapshot(&remotes);
        let repair = store.repair_stripe("obj", 0, &[PADDING_TARGET]).unwrap();
        assert_eq!(repair.rebuilt, vec![PADDING_TARGET]);
        assert_eq!(repair.fetched_bytes, 0);
        let mut expect = vec![(0, 0); 14];
        // A missing chunk's verdict carries no more bytes than a healthy one's.
        expect[PADDING_TARGET] = (verify + zeros, verdict + ok);
        assert_eq!(moved(&remotes, &before), expect, "repair of {label}");
        assert_eq!(fs::read(&path).unwrap(), original, "rebuilt byte for byte");
        assert!(store.scrub().unwrap().is_clean());
    }
}

#[test]
fn write_zeros_lays_down_the_chunk_a_write_of_zeros_does() {
    let dir = TempDir::new("chunkd-contract-zeros");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let disk = RemoteDisk::new(server.local_addr().to_string());
    let id = ChunkId {
        stripe: 3,
        shard: 5,
    };
    let path = chunk_path(&server, id.stripe, id.shard);

    let start = disk.counters();
    disk.begin_write_zeros("obj", id, CHUNK_LEN).wait().unwrap();
    let sent = disk.counters().bytes_sent - start.bytes_sent;
    let from_zeros = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();
    disk.write_chunk("obj", id, &vec![0u8; CHUNK_LEN]).unwrap();
    assert_eq!(
        fs::read(&path).unwrap(),
        from_zeros,
        "same file, byte for byte"
    );
    // Only the request crossed the socket, no payload.
    assert_eq!(
        sent,
        head(Request::WriteZeros {
            object: "obj".into(),
            id,
            len: CHUNK_LEN as u32,
        })
    );

    // A length no frame could carry is refused before anything is sized
    // by it, and writes nothing.
    let huge = ChunkId { stripe: 4, ..id };
    let refusal = disk
        .begin_write_zeros("obj", huge, pbrs_wire::MAX_FRAME)
        .wait()
        .unwrap_err();
    assert!(matches!(refusal, StoreError::Io { .. }), "{refusal}");
    assert!(!chunk_path(&server, huge.stripe, huge.shard).exists());
    assert!(disk.is_available());
}

#[test]
fn a_write_fault_fires_on_write_zeros() {
    let dir = TempDir::new("chunkd-contract-zeros-fault");
    let plan = Arc::new(FaultPlan::parse("disk=0 op=write error count=1", 7).unwrap());
    let server = ChunkServer::bind_with(
        dir.path().join("srv"),
        "127.0.0.1:0",
        ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let disk = RemoteDisk::new(server.local_addr().to_string());
    let id = ChunkId {
        stripe: 0,
        shard: 1,
    };
    let err = disk
        .begin_write_zeros("obj", id, CHUNK_LEN)
        .wait()
        .unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(plan.fired(), 1);
    assert!(!chunk_path(&server, 0, 1).exists());
    // The rule is spent: the next zero write lands.
    disk.begin_write_zeros("obj", id, CHUNK_LEN).wait().unwrap();
    assert!(disk
        .verify_chunk("obj", id, CHUNK_LEN)
        .unwrap()
        .0
        .is_healthy());
}

#[test]
fn begin_verify_agrees_with_verify_chunk() {
    let dir = TempDir::new("chunkd-contract-verify");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let remote = RemoteDisk::new(server.local_addr().to_string());
    // The provided default, over the same files.
    let local = LocalDisk::new(server.root());
    let payload: Vec<u8> = (0..CHUNK_LEN).map(|i| (i % 241) as u8).collect();
    let id = |stripe| ChunkId { stripe, shard: 2 };
    // Stripe 0 healthy, 1 missing, 2 payload-corrupt, 3 header-corrupt,
    // 4 truncated.
    for stripe in [0, 2, 3, 4] {
        remote.write_chunk("obj", id(stripe), &payload).unwrap();
    }
    let damage = |stripe: u64, edit: &dyn Fn(&mut Vec<u8>)| {
        let path = chunk_path(&server, stripe, 2);
        let mut bytes = fs::read(&path).unwrap();
        edit(&mut bytes);
        fs::write(&path, bytes).unwrap();
    };
    damage(2, &|b| b[chunk::HEADER_LEN + 9] ^= 0x20);
    damage(3, &|b| b[10] ^= 0x01);
    damage(4, &|b| b.truncate(chunk::HEADER_LEN + CHUNK_LEN / 2));

    for disk in [&remote as &dyn ChunkBackend, &local] {
        let mut healthy = 0;
        for stripe in 0..5 {
            let (status, _) = disk.verify_chunk("obj", id(stripe), CHUNK_LEN).unwrap();
            let begun = disk
                .begin_verify("obj", id(stripe), CHUNK_LEN)
                .wait()
                .unwrap();
            healthy += usize::from(status.is_healthy());
            assert_eq!(
                begun,
                status.into_read(),
                "{} stripe {stripe}",
                disk.describe()
            );
        }
        assert_eq!(healthy, 1, "{}", disk.describe());
    }
    // A disk that cannot be reached is lost: its chunk is missing.
    let addr = server.local_addr().to_string();
    server.shutdown();
    let gone = RemoteDisk::with_timeout(addr, std::time::Duration::from_millis(200));
    assert_eq!(
        gone.begin_verify("obj", id(0), CHUNK_LEN).wait().unwrap(),
        Err(ChunkStatus::Missing)
    );
}
