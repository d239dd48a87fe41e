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
//! see — the write still lands, its late response is discarded, and the
//! connection carries on without a redial.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pbrs_chunkd::protocol::{read_frame, write_frame};
use pbrs_chunkd::{ChunkServer, RemoteDisk};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkId, ChunkStatus, LocalDisk, PlacementPolicy, RackMap,
    StoreConfig,
};

const CHUNK_LEN: usize = 512;
const TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Default)]
struct RelayState {
    /// Responses wait here instead of reaching the client.
    hold: bool,
    /// Every connection is cut, and new ones are closed as accepted.
    dead: bool,
    /// Request frames handed to the server so far.
    requests: usize,
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
                    while let Ok((id, body, _)) = read_frame(&mut from_client) {
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
                    while let Ok((id, body, _)) = read_frame(&mut from_server) {
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
    let pending = disk.begin_write("obj", id, &pattern(CHUNK_LEN));
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
