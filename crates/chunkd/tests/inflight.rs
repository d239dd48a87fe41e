//! A chunk server that dies with reads in flight: every pending read
//! resolves as `Missing` within the client timeout (no hang), a stripe
//! being read at that moment is served degraded, and the next read dials
//! a fresh connection.
//!
//! "In flight" is made certain, not likely, by a relay between the client
//! and a real chunk server: it forwards request frames as they come and
//! counts them, but can hold the responses back — so the test kills the
//! connection knowing exactly which reads are registered, written and
//! unanswered.
//!
//! The same relay shows the other way a pending request ends without its
//! answer: the caller drops it. The slot goes back at once (the table
//! itself is checked in `client.rs`'s unit tests); here, what a peer can
//! see — the write still lands, its late response is discarded by the
//! next waiter to read the socket, and the connection carries on without
//! a redial.
//!
//! And it shows the waiters' reading turn failing cleanly: a response
//! withheld from the waiter reading the socket also fails the waiter
//! parked behind it, each within its own deadline.
//!
//! Last, a write whose connection is cut before its frame is forwarded:
//! the one retry sends the frame again from the caller's own payload —
//! the client keeps no copy — over a fresh dial, and the chunk lands. Its
//! body is byte for byte the first attempt's, envelope included, and so
//! is a cut-off read's.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use pbrs_chunkd::{ChunkServer, RemoteDisk, Request};
use pbrs_obs::trace::{ScopedCtx, TraceCtx};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkId, ChunkStatus, LocalDisk, PlacementPolicy, RackMap,
    StoreConfig,
};
use pbrs_wire::{encode_envelope, read_frame, write_frame};

const CHUNK_LEN: usize = 512;
const TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Default)]
struct RelayState {
    /// Responses wait here instead of reaching the client.
    hold: bool,
    /// Every connection is cut, and new ones are closed as accepted.
    dead: bool,
    /// The next request frame is swallowed and its connection cut.
    cut_next: bool,
    /// Request frames handed to the server so far.
    requests: usize,
    /// The body of every request frame read off a client, cut ones
    /// included.
    bodies: Vec<Vec<u8>>,
    sockets: Vec<TcpStream>,
}

struct Relay {
    addr: SocketAddr,
    state: Arc<(Mutex<RelayState>, Condvar)>,
}

impl Relay {
    fn in_front_of(upstream: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new((Mutex::new(RelayState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        std::thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                let mut guard = shared.0.lock().unwrap();
                if guard.dead {
                    continue; // dropped: accepted and closed, like a dying host
                }
                let server = TcpStream::connect(upstream).unwrap();
                guard.sockets.push(client.try_clone().unwrap());
                guard.sockets.push(server.try_clone().unwrap());
                drop(guard);
                let (mut from_client, mut to_server) =
                    (client.try_clone().unwrap(), server.try_clone().unwrap());
                let requests = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Ok((id, body)) = read_frame(&mut from_client) {
                        let cut = {
                            let mut guard = requests.0.lock().unwrap();
                            guard.bodies.push(body.clone());
                            std::mem::take(&mut guard.cut_next)
                        };
                        if cut {
                            let _ = from_client.shutdown(Shutdown::Both);
                            let _ = to_server.shutdown(Shutdown::Both);
                            return;
                        }
                        if write_frame(&mut to_server, id, &body).is_err() {
                            return;
                        }
                        requests.0.lock().unwrap().requests += 1;
                        requests.1.notify_all();
                    }
                });
                let (mut from_server, mut to_client) = (server, client);
                let responses = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Ok((id, body)) = read_frame(&mut from_server) {
                        let mut guard = responses.0.lock().unwrap();
                        while guard.hold && !guard.dead {
                            guard = responses.1.wait(guard).unwrap();
                        }
                        if guard.dead || write_frame(&mut to_client, id, &body).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        Relay { addr, state }
    }

    fn set(&self, change: impl FnOnce(&mut RelayState)) {
        change(&mut self.state.0.lock().unwrap());
        self.state.1.notify_all();
    }

    fn requests(&self) -> usize {
        self.state.0.lock().unwrap().requests
    }

    /// The request bodies read off clients since the last call.
    fn take_bodies(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.state.0.lock().unwrap().bodies)
    }

    /// Blocks until `count` request frames have reached the server.
    fn wait_for_requests(&self, count: usize) {
        let mut guard = self.state.0.lock().unwrap();
        while guard.requests < count {
            guard = self.state.1.wait(guard).unwrap();
        }
    }

    /// The host dies: every open connection is cut mid-conversation.
    fn kill(&self) {
        self.set(|s| {
            s.dead = true;
            for socket in s.sockets.drain(..) {
                let _ = socket.shutdown(Shutdown::Both);
            }
        });
    }

    fn revive(&self) {
        self.set(|s| {
            s.dead = false;
            s.hold = false;
        });
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 41 + 7) % 251) as u8).collect()
}

#[test]
fn reads_in_flight_when_the_server_dies_all_resolve_missing_then_the_client_redials() {
    let dir = TempDir::new("chunkd-inflight");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let local = LocalDisk::new(server.root());
    local.ensure_object("obj").unwrap();
    const READS: usize = 4;
    for shard in 0..READS {
        let id = ChunkId { stripe: 0, shard };
        local.write_chunk("obj", id, &pattern(CHUNK_LEN)).unwrap();
    }
    let relay = Relay::in_front_of(server.local_addr());
    let disk = RemoteDisk::with_timeout(relay.addr.to_string(), TIMEOUT);
    assert!(disk.is_available());
    let dials_before = disk.reconnect_stats().attempts;

    relay.set(|s| s.hold = true);
    let sent_before = relay.requests();
    let mut bufs = vec![vec![0u8; CHUNK_LEN]; READS];
    let pending: Vec<_> = bufs
        .iter_mut()
        .enumerate()
        .map(|(shard, buf)| disk.begin_read("obj", ChunkId { stripe: 0, shard }, CHUNK_LEN, 0, buf))
        .collect();
    // All four requests are with the server; none has been answered.
    relay.wait_for_requests(sent_before + READS);

    let died = Instant::now();
    relay.kill();
    for read in pending {
        assert_eq!(read.wait().unwrap(), Err(ChunkStatus::Missing));
    }
    assert!(
        died.elapsed() < TIMEOUT,
        "pending reads must fail with the connection, not time out one by one: {:?}",
        died.elapsed()
    );

    // The host comes back: the very next read dials a fresh connection.
    relay.revive();
    let mut buf = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into(
        "obj",
        ChunkId {
            stripe: 0,
            shard: 0,
        },
        &mut buf,
    )
    .unwrap()
    .unwrap();
    assert_eq!(buf, pattern(CHUNK_LEN));
    assert!(disk.reconnect_stats().attempts > dials_before);
}

#[test]
fn a_stripe_read_during_the_death_is_served_degraded() {
    let dir = TempDir::new("chunkd-inflight-stripe");
    let servers: Vec<ChunkServer> = (0..6)
        .map(|i| ChunkServer::bind(dir.path().join(format!("srv-{i}")), "127.0.0.1:0").unwrap())
        .collect();
    // Disk 0 is reached through the relay; the rest directly.
    let relay = Relay::in_front_of(servers[0].local_addr());
    let disks: Vec<Arc<dyn ChunkBackend>> = servers
        .iter()
        .enumerate()
        .map(|(i, server)| {
            let addr = if i == 0 {
                relay.addr
            } else {
                server.local_addr()
            };
            Arc::new(RemoteDisk::with_timeout(addr.to_string(), TIMEOUT)) as Arc<dyn ChunkBackend>
        })
        .collect();
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap()).chunk_len(CHUNK_LEN),
        disks,
        RackMap::per_disk(6),
        PlacementPolicy::Identity,
    )
    .unwrap();
    let data = pattern(4 * CHUNK_LEN);
    store.put("obj", &data[..]).unwrap();
    assert_eq!(store.get("obj").unwrap(), data);
    assert_eq!(store.metrics().degraded_stripe_reads, 0);

    relay.set(|s| s.hold = true);
    let sent_before = relay.requests();
    let died = std::thread::scope(|scope| {
        let get = scope.spawn(|| store.get("obj"));
        // Shard 0's read is on the wire and unanswered: the stripe read is
        // parked in its wait when the host goes.
        relay.wait_for_requests(sent_before + 1);
        let died = Instant::now();
        relay.kill();
        assert_eq!(get.join().unwrap().unwrap(), data, "rebuilt from survivors");
        died
    });
    assert!(died.elapsed() < TIMEOUT, "{:?}", died.elapsed());
    assert_eq!(store.metrics().degraded_stripe_reads, 1);

    // Back up: the next stripe read is healthy again, over a new connection.
    relay.revive();
    assert_eq!(store.get("obj").unwrap(), data);
    assert_eq!(store.metrics().degraded_stripe_reads, 1);
}

#[test]
fn a_write_dropped_unwaited_leaves_the_connection_in_service() {
    let dir = TempDir::new("chunkd-inflight-drop");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let relay = Relay::in_front_of(server.local_addr());
    let disk = RemoteDisk::with_timeout(relay.addr.to_string(), TIMEOUT);
    disk.ensure_object("obj").unwrap();
    let dials = disk.reconnect_stats().attempts;
    let id = ChunkId {
        stripe: 0,
        shard: 0,
    };

    relay.set(|s| s.hold = true);
    let sent_before = relay.requests();
    let payload = pattern(CHUNK_LEN);
    let pending = disk.begin_write("obj", id, &payload);
    relay.wait_for_requests(sent_before + 1);
    // On the wire, unanswered — and nobody will ever wait for it.
    drop(pending);
    relay.set(|s| s.hold = false);

    // The orphaned response is thrown away by id; the next request gets its
    // own answer, over the same connection, and finds the chunk written.
    let mut buf = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into("obj", id, &mut buf).unwrap().unwrap();
    assert_eq!(buf, pattern(CHUNK_LEN));
    assert_eq!(disk.reconnect_stats().attempts, dials, "no redial");
}

#[test]
fn a_write_cut_off_in_flight_is_resent_from_the_borrowed_payload() {
    let dir = TempDir::new("chunkd-inflight-cut");
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let relay = Relay::in_front_of(server.local_addr());
    let disk = RemoteDisk::with_timeout(relay.addr.to_string(), TIMEOUT).traced();
    let id = ChunkId {
        stripe: 0,
        shard: 0,
    };
    let payload = pattern(CHUNK_LEN);
    let ctx = TraceCtx::from_raw(0x61, 0x62).unwrap();

    // The first frame never reaches the server: only the retry, sent again
    // from `payload`, can land the chunk.
    relay.set(|s| s.cut_next = true);
    {
        let _scope = ScopedCtx::enter(Some(ctx));
        disk.begin_write("obj", id, &payload).wait().unwrap();
    }
    assert_eq!(disk.reconnect_stats().attempts, 2, "one redial");
    assert_eq!(relay.requests(), 1, "only the retry was forwarded");
    let local = LocalDisk::new(server.root());
    assert_eq!(
        local.verify_chunk("obj", id, CHUNK_LEN).unwrap(),
        (ChunkStatus::Healthy, CHUNK_LEN as u64)
    );
    // Both attempts sent the same body: the envelope and the fields,
    // encoded once, then the caller's payload.
    let mut write = Vec::new();
    encode_envelope(Some(ctx), &mut write);
    let fields = Request::WriteChunk {
        object: "obj".into(),
        id,
        payload: payload.clone(),
    };
    write.extend_from_slice(&fields.encode());
    assert_eq!(relay.take_bodies(), [write.clone(), write]);

    // An untraced read cut off the same way is resent byte for byte too.
    let plain = RemoteDisk::with_timeout(relay.addr.to_string(), TIMEOUT);
    relay.set(|s| s.cut_next = true);
    let mut out = vec![0u8; CHUNK_LEN];
    plain.read_chunk_into("obj", id, &mut out).unwrap().unwrap();
    assert_eq!(out, payload);
    let read = Request::ReadChunk {
        object: "obj".into(),
        id,
        len: CHUNK_LEN as u32,
    }
    .encode();
    assert_eq!(relay.take_bodies(), [read.clone(), read]);
}

/// A disk served through a relay, with chunks 0 and 1 of stripe 0 written
/// (chunk 1 is chunk 0 with every byte flipped).
fn relayed_disk(dir: &TempDir, timeout: Duration) -> (ChunkServer, Relay, RemoteDisk) {
    let server = ChunkServer::bind(dir.path().join("srv"), "127.0.0.1:0").unwrap();
    let local = LocalDisk::new(server.root());
    local.ensure_object("obj").unwrap();
    for shard in 0..2 {
        local
            .write_chunk("obj", ChunkId { stripe: 0, shard }, &chunk(shard))
            .unwrap();
    }
    let relay = Relay::in_front_of(server.local_addr());
    let disk = RemoteDisk::with_timeout(relay.addr.to_string(), timeout);
    (server, relay, disk)
}

fn chunk(shard: usize) -> Vec<u8> {
    let flip = if shard == 0 { 0 } else { 0xFF };
    pattern(CHUNK_LEN).iter().map(|b| b ^ flip).collect()
}

#[test]
fn a_read_dropped_unwaited_is_discarded_by_the_next_reader() {
    let dir = TempDir::new("chunkd-inflight-drop-read");
    let (_server, relay, disk) = relayed_disk(&dir, TIMEOUT);
    assert!(disk.is_available());
    let dials = disk.reconnect_stats().attempts;

    relay.set(|s| s.hold = true);
    let sent_before = relay.requests();
    let mut stale = vec![0u8; CHUNK_LEN];
    let pending = disk.begin_read(
        "obj",
        ChunkId {
            stripe: 0,
            shard: 0,
        },
        CHUNK_LEN,
        0,
        &mut stale,
    );
    relay.wait_for_requests(sent_before + 1);
    // On the wire, unanswered — and nobody will ever wait for it.
    drop(pending);
    relay.set(|s| s.hold = false);

    // The stale response reaches the socket first; the next read's waiter
    // reads it, finds nobody registered under its id, drops it, and then
    // reads its own.
    let mut buf = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into(
        "obj",
        ChunkId {
            stripe: 0,
            shard: 1,
        },
        &mut buf,
    )
    .unwrap()
    .unwrap();
    assert_eq!(buf, chunk(1));
    assert!(stale.iter().all(|&b| b == 0), "a dropped read never lands");
    assert_eq!(disk.reconnect_stats().attempts, dials, "no redial");
}

#[test]
fn a_withheld_response_fails_the_reading_waiter_and_the_one_parked_behind_it() {
    // Short patience: each waiter spends it once, and a call that ran out
    // of time is not resent.
    let patience = Duration::from_millis(500);
    let dir = TempDir::new("chunkd-inflight-withheld");
    let (_server, relay, disk) = relayed_disk(&dir, patience);
    assert!(disk.is_available());
    let dials = disk.reconnect_stats().attempts;

    relay.set(|s| s.hold = true);
    // Two waiters start waiting together on one connection: whichever
    // takes the reading turn blocks on the socket, and the other parks
    // behind it.
    let start = Barrier::new(2);
    let began = Instant::now();
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..2)
            .map(|shard| {
                let (disk, start) = (&disk, &start);
                scope.spawn(move || {
                    let mut buf = vec![0u8; CHUNK_LEN];
                    let read = disk.begin_read(
                        "obj",
                        ChunkId { stripe: 0, shard },
                        CHUNK_LEN,
                        0,
                        &mut buf,
                    );
                    start.wait();
                    read.wait().unwrap()
                })
            })
            .collect();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(ChunkStatus::Missing));
        }
    });
    let waited = began.elapsed();
    assert!(waited >= patience, "nothing answered: {waited:?}");
    assert!(
        waited < TIMEOUT,
        "both give up at their own deadlines, the parked one too: {waited:?}"
    );

    // The responses flow again: the next read redials and is answered.
    relay.set(|s| s.hold = false);
    let mut buf = vec![0u8; CHUNK_LEN];
    disk.read_chunk_into(
        "obj",
        ChunkId {
            stripe: 0,
            shard: 1,
        },
        &mut buf,
    )
    .unwrap()
    .unwrap();
    assert_eq!(buf, chunk(1));
    assert!(
        disk.reconnect_stats().attempts > dials,
        "a fresh connection"
    );
}
