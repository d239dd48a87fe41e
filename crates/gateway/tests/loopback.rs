//! End-to-end gateway tests on loopback: round trips, typed misses,
//! degraded streaming over real chunkd sockets, pipelined demultiplexing
//! by request id, explicit BUSY shedding, and hostile-frame hygiene.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pbrs_chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs_gateway::client::{GatewayClient, GatewayError};
use pbrs_gateway::protocol::{self, Request, Response};
use pbrs_gateway::server::{Gateway, GatewayConfig};
use pbrs_store::store::{BlockStore, StoreConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{ChunkBackend, PlacementPolicy, RackMap};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

fn local_store(dir: &TempDir, spec: &str, chunk_len: usize) -> Arc<BlockStore> {
    let spec = spec.parse().unwrap();
    Arc::new(
        BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(chunk_len))
            .unwrap(),
    )
}

fn gateway(store: &Arc<BlockStore>, config: GatewayConfig) -> Gateway {
    Gateway::serve(Arc::clone(store), "127.0.0.1:0", config).unwrap()
}

fn client(gw: &Gateway) -> GatewayClient {
    let c = GatewayClient::connect(gw.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

#[test]
fn put_get_stat_delete_round_trip() {
    let dir = TempDir::new("gw-roundtrip");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    // 2.5 stripes, so the stream has a short tail.
    let data = pattern(4 * 512 * 2 + 700);
    let (len, stripes) = c.put("obj", &data).unwrap();
    assert_eq!(len, data.len() as u64);
    assert_eq!(stripes, 3);

    assert_eq!(c.stat("obj").unwrap(), (data.len() as u64, 3));

    let got = c.get("obj").unwrap();
    assert_eq!(got.data, data);
    assert_eq!(got.degraded_stripes, 0);

    // Streaming arrives in stripe-sized pieces, in order.
    let mut pieces = Vec::new();
    let degraded = c
        .get_streamed("obj", |stripe| pieces.push(stripe.to_vec()))
        .unwrap();
    assert_eq!(degraded, 0);
    assert_eq!(pieces.len(), 3);
    assert_eq!(pieces.concat(), data);
    assert!(pieces[0].len() == 4 * 512 && pieces[2].len() == 700);

    // Typed misses: never-existed vs deleted.
    assert!(matches!(c.get("nope"), Err(GatewayError::NotFound)));
    assert_eq!(c.delete("obj").unwrap(), data.len() as u64);
    assert!(matches!(c.get("obj"), Err(GatewayError::Deleted)));
    assert!(matches!(c.stat("obj"), Err(GatewayError::Deleted)));
    assert!(matches!(c.delete("obj"), Err(GatewayError::Deleted)));

    // Duplicate PUT of a live name is a remote error, not a hang.
    c.put("dup", b"x").unwrap();
    assert!(matches!(c.put("dup", b"y"), Err(GatewayError::Remote(_))));

    // Empty objects round-trip too.
    c.put("empty", b"").unwrap();
    let empty = c.get("empty").unwrap();
    assert!(empty.data.is_empty());

    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("\"objects_put\":3"), "{metrics}");
    assert!(metrics.contains("\"objects_deleted\":1"), "{metrics}");
}

#[test]
fn degraded_get_over_chunkd_sockets_reports_rebuilt_stripes() {
    let dir = TempDir::new("gw-degraded");
    let spec: pbrs_erasure::CodeSpec = "piggyback-4-2".parse().unwrap();
    // Every disk a real chunkd TCP server on loopback.
    let servers: Vec<ChunkServer> = (0..6)
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
    let disks: Vec<Arc<dyn ChunkBackend>> = servers
        .iter()
        .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())) as Arc<dyn ChunkBackend>)
        .collect();
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), spec).chunk_len(512),
            disks,
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    let data = pattern(4 * 512 * 4); // 4 full stripes
    c.put("obj", &data).unwrap();
    let healthy = c.get("obj").unwrap();
    assert_eq!(healthy.data, data);
    assert_eq!(healthy.degraded_stripes, 0);

    // One chunk server loses every byte it stored; reads must degrade,
    // not fail, and the stream must say so.
    fs::remove_dir_all(servers[1].root()).unwrap();
    let degraded = c.get("obj").unwrap();
    assert_eq!(degraded.data, data);
    assert_eq!(degraded.degraded_stripes, 4);

    let metrics = c.metrics().unwrap();
    assert!(
        metrics.contains("\"degraded_stripes_served\":4"),
        "{metrics}"
    );
}

/// A GET that fails *after* the `ObjectHeader` is out — damage beyond the
/// code's tolerance discovered mid-stream — terminates the stream with a
/// typed error frame in bounded time: no hang, no connection teardown.
#[test]
fn mid_stream_failure_terminates_with_typed_error_not_a_hang() {
    let dir = TempDir::new("gw-midstream");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    let data = pattern(4 * 512 * 4); // 4 stripes
    c.put("obj", &data).unwrap();

    // Kill stripe 2 on three of six disks: one more loss than rs-4-2
    // tolerates, and only discovered when the stream reaches it.
    for disk in 0..3 {
        let obj = store.disk_path(disk).join("obj");
        for entry in fs::read_dir(&obj).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("00000002-") {
                fs::remove_file(&path).unwrap();
            }
        }
    }

    let start = std::time::Instant::now();
    let mut delivered = 0u64;
    let err = c.get_streamed("obj", |_| delivered += 1).unwrap_err();
    match err {
        GatewayError::Remote(_) => {}
        other => panic!("expected a typed mid-stream error, got {other:?}"),
    }
    assert_eq!(delivered, 2, "the healthy prefix streams before the error");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "mid-stream failure must not hang: {:?}",
        start.elapsed()
    );

    // The error frame ends only that exchange; the connection sails on.
    assert_eq!(c.stat("obj").unwrap(), (data.len() as u64, 4));
    assert!(gw.metrics().snapshot().request_errors >= 1);
}

/// With `request_deadline` set, a stripe job that out-waits its budget in
/// the queue is refused with a typed `deadline exceeded` error and counted
/// as expired, and the exposition carries the new families.
#[test]
fn request_deadline_expires_queued_stripes_with_typed_errors() {
    let dir = TempDir::new("gw-deadline");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(
        &store,
        GatewayConfig {
            // Zero patience: the first stripe job has always already
            // expired by the time a worker dequeues it.
            request_deadline: Some(Duration::ZERO),
            ..GatewayConfig::default()
        },
    );
    let mut c = client(&gw);
    c.put("obj", &pattern(4 * 512 * 2)).unwrap(); // PUTs carry no deadline

    match c.get_streamed("obj", |_| {}) {
        Err(GatewayError::Remote(message)) => {
            assert!(message.contains("deadline exceeded"), "{message}");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert!(gw.metrics().snapshot().requests_expired >= 1);

    let text = c.prometheus().unwrap();
    assert!(
        text.contains("pbrs_gateway_requests_expired_total"),
        "{text}"
    );
    // The store's disk-health family rides the same exposition (empty
    // state set here: this store runs unhardened).
    assert!(text.contains("# TYPE pbrs_disk_health gauge"), "{text}");
}

#[test]
fn pipelined_requests_demux_by_id() {
    let dir = TempDir::new("gw-pipeline");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    let a = pattern(4 * 512 * 3);
    let b: Vec<u8> = pattern(4 * 512 * 2).iter().map(|x| x ^ 0xFF).collect();
    c.put("a", &a).unwrap();
    c.put("b", &b).unwrap();

    // Fire three requests back-to-back without reading anything, under
    // distinctive ids, then collect every frame of all three exchanges.
    c.send_request(1001, &Request::Get { name: "a".into() })
        .unwrap();
    c.send_request(1002, &Request::Get { name: "b".into() })
        .unwrap();
    c.send_request(1003, &Request::Stat { name: "a".into() })
        .unwrap();

    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    let mut stat = None;
    let mut open = 3; // exchanges still expecting frames
    let mut ids_seen = Vec::new();
    while open > 0 {
        let (id, resp) = c.recv_response().unwrap();
        ids_seen.push(id);
        match (id, resp) {
            (1001, Response::Data { data }) => got_a.extend_from_slice(&data),
            (1002, Response::Data { data }) => got_b.extend_from_slice(&data),
            (1001 | 1002, Response::ObjectHeader { .. }) => {}
            (1001 | 1002, Response::ObjectEnd { .. }) => open -= 1,
            (1003, Response::Stat { len, stripes }) => {
                stat = Some((len, stripes));
                open -= 1;
            }
            (id, other) => panic!("unexpected frame {other:?} for id {id}"),
        }
    }
    // Reassembled streams are intact per id, whatever the interleaving.
    assert_eq!(got_a, a);
    assert_eq!(got_b, b);
    assert_eq!(stat, Some((a.len() as u64, 3)));
    // The cheap STAT must not have been forced to wait behind both full
    // GET streams: its frame arrives before the last stream frame.
    let stat_pos = ids_seen.iter().position(|&i| i == 1003).unwrap();
    assert!(
        stat_pos < ids_seen.len() - 1,
        "stat answered dead last: {ids_seen:?}"
    );

    // A request id already in flight is rejected without killing the
    // connection or the original exchange. Both frames go out in ONE
    // write, so the reactor reads them together and parses the STAT in the
    // same pass that admitted the GET — before any stripe of it can have
    // been read, let alone the whole stream finished (the object is longer
    // than the per-connection stripe budget, so the GET needs several
    // trips through the reactor). Two separate writes would let a fast GET
    // complete in between, making the STAT legitimately succeed.
    let big = pattern(4 * 512 * (GatewayConfig::default().in_flight_stripes + 2));
    c.put("big", &big).unwrap();
    let mut both = Vec::new();
    let get = Request::Get { name: "big".into() };
    let stat = Request::Stat { name: "big".into() };
    protocol::write_frame(&mut both, 7, &get.encode()).unwrap();
    protocol::write_frame(&mut both, 7, &stat.encode()).unwrap();
    let mut raw = TcpStream::connect(gw.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&both).unwrap();
    let mut saw_dup_error = false;
    let mut streamed = Vec::new();
    loop {
        let (id, body) = protocol::read_frame(&mut raw).unwrap();
        assert_eq!(id, 7);
        match Response::decode(&body).unwrap() {
            Response::Err { message } => {
                assert!(message.contains("already in flight"), "{message}");
                saw_dup_error = true;
            }
            Response::ObjectEnd { .. } => break,
            Response::ObjectHeader { .. } => {}
            Response::Data { data } => streamed.extend_from_slice(&data),
            other => panic!("unexpected {other:?}"),
        }
    }
    // The error was queued while the GET was still being admitted, so it
    // precedes the end of the stream — which itself arrives intact.
    assert!(saw_dup_error, "the duplicate id was not rejected");
    assert_eq!(streamed, big);
}

#[test]
fn busy_shed_above_the_admission_limit_and_recovery() {
    let dir = TempDir::new("gw-busy");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(
        &store,
        GatewayConfig {
            max_inflight_requests: 1,
            ..GatewayConfig::default()
        },
    );

    // Connection A opens an ingest and stalls, pinning the only slot.
    let mut a = client(&gw);
    a.send_request(
        1,
        &Request::PutStart {
            name: "slow".into(),
        },
    )
    .unwrap();
    a.send_request(1, &Request::PutData { data: pattern(100) })
        .unwrap();
    // Wait until A's PUT_START is admitted so the slot is surely pinned
    // before probing (otherwise the probe could win the slot and shed A).
    for _ in 0..500 {
        if gw.metrics().snapshot().requests_admitted >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(gw.metrics().snapshot().requests_admitted, 1);

    // Connection B is shed with BUSY — explicitly, not queued.
    let mut b = client(&gw);
    assert!(
        matches!(probe_admission(&mut b), Err(GatewayError::Busy)),
        "no BUSY while the admission slot was pinned"
    );

    // A finishes; the slot frees; B succeeds.
    a.send_request(1, &Request::PutEnd).unwrap();
    match a.recv_response().unwrap() {
        (1, Response::Created { len, .. }) => assert_eq!(len, 100),
        other => panic!("unexpected {other:?}"),
    }
    let mut ok = false;
    for _ in 0..50 {
        match b.get("slow") {
            Ok(obj) => {
                assert_eq!(obj.data, pattern(100));
                ok = true;
                break;
            }
            Err(GatewayError::Busy) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(ok, "gateway never recovered after the slot freed");

    let snapshot = gw.metrics().snapshot();
    assert!(snapshot.requests_shed >= 1);
}

/// A worker-backed probe that reports BUSY distinctly (STAT is answered
/// inline and never shed, so it cannot probe admission).
fn probe_admission(c: &mut GatewayClient) -> Result<(), GatewayError> {
    let id = c.fresh_id();
    c.send_request(
        id,
        &Request::Delete {
            name: "absent".into(),
        },
    )?;
    match c.recv_response()? {
        (got, Response::Busy) if got == id => Err(GatewayError::Busy),
        (got, _) if got == id => Ok(()),
        (got, _) => Err(GatewayError::Protocol(format!("stray id {got}"))),
    }
}

#[test]
fn slow_reader_is_flow_controlled_not_buffered() {
    let dir = TempDir::new("gw-slowreader");
    let store = local_store(&dir, "rs-4-2", 512);
    // Budget of one: at most one stripe frame queued per connection.
    let gw = gateway(
        &store,
        GatewayConfig {
            in_flight_stripes: 1,
            ..GatewayConfig::default()
        },
    );
    let mut c = client(&gw);
    let data = pattern(4 * 512 * 16); // 16 stripes
    c.put("obj", &data).unwrap();

    // Read the stream deliberately slowly; it must arrive complete and
    // in order anyway — the budget throttles, it never drops.
    let mut assembled = Vec::new();
    let degraded = c
        .get_streamed("obj", |stripe| {
            std::thread::sleep(Duration::from_millis(5));
            assembled.extend_from_slice(stripe);
        })
        .unwrap();
    assert_eq!(assembled, data);
    assert_eq!(degraded, 0);
}

#[test]
fn hostile_frames_poison_only_their_connection() {
    let dir = TempDir::new("gw-hostile");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());

    // An oversized length prefix closes the connection...
    let mut evil = TcpStream::connect(gw.local_addr()).unwrap();
    evil.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hostile = ((protocol::MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    hostile.extend_from_slice(&1u64.to_le_bytes());
    evil.write_all(&hostile).unwrap();
    let mut sink = Vec::new();
    use std::io::Read;
    assert_eq!(
        evil.read_to_end(&mut sink).unwrap_or(0),
        0,
        "expected close"
    );

    // ...while a well-behaved connection sails on, and a garbage *body*
    // (frameable but undecodable) gets a typed error, keeping the
    // connection usable.
    let mut c = client(&gw);
    c.put("obj", b"hello").unwrap();
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    protocol::write_frame(&mut stream, 9, &[0xEE, 1, 2, 3]).unwrap();
    let (id, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(id, 9);
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Err { .. }
    ));
    // Same socket still serves real requests.
    protocol::write_frame(
        &mut stream,
        10,
        &Request::Stat { name: "obj".into() }.encode(),
    )
    .unwrap();
    let (id, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(id, 10);
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Stat { len: 5, .. }
    ));
}

#[test]
fn abandoned_ingest_leaves_no_trace() {
    let dir = TempDir::new("gw-abandon");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());

    {
        let mut c = client(&gw);
        c.send_request(
            1,
            &Request::PutStart {
                name: "ghost".into(),
            },
        )
        .unwrap();
        c.send_request(
            1,
            &Request::PutData {
                data: pattern(5000),
            },
        )
        .unwrap();
        // Connection dies mid-ingest, END never sent.
    }
    // The reservation must be released and the partial chunks removed:
    // the same name becomes writable again.
    let mut c = client(&gw);
    let mut ok = false;
    for _ in 0..100 {
        match c.put("ghost", b"fresh") {
            Ok(_) => {
                ok = true;
                break;
            }
            Err(GatewayError::Remote(_)) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(ok, "abandoned ingest kept the name reserved");
    assert_eq!(c.get("ghost").unwrap().data, b"fresh");
}

#[test]
fn many_concurrent_connections() {
    let dir = TempDir::new("gw-concurrent");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());
    let addr = gw.local_addr();

    let handles: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = GatewayClient::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                let name = format!("obj-{i}");
                let data = pattern(4 * 512 + i * 37);
                loop {
                    match c.put(&name, &data) {
                        Ok(_) => break,
                        Err(GatewayError::Busy) => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
                let got = c.get(&name).unwrap();
                assert_eq!(got.data, data);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snapshot = gw.metrics().snapshot();
    assert_eq!(snapshot.objects_put, 32);
    assert_eq!(snapshot.connections_accepted, 32);
}

#[test]
fn connection_cap_refuses_loudly() {
    let dir = TempDir::new("gw-conncap");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(
        &store,
        GatewayConfig {
            max_connections: 2,
            ..GatewayConfig::default()
        },
    );
    let mut a = client(&gw);
    let _b = client(&gw);
    a.put("x", b"data").unwrap(); // force both registrations through

    // The third connection is accepted then closed; a read sees EOF.
    let mut c = TcpStream::connect(gw.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    use std::io::Read;
    let mut sink = [0u8; 1];
    let mut refused = false;
    for _ in 0..100 {
        match c.read(&mut sink) {
            Ok(0) => {
                refused = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(refused, "over-cap connection was not closed");
    assert!(gw.metrics().snapshot().connections_refused >= 1);

    // Freeing a slot lets new connections in.
    drop(a);
    let mut d = GatewayClient::connect(gw.local_addr()).unwrap();
    d.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut ok = false;
    for _ in 0..100 {
        match d.stat("x") {
            Ok((4, _)) => {
                ok = true;
                break;
            }
            Ok(other) => panic!("unexpected stat {other:?}"),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                d = GatewayClient::connect(gw.local_addr()).unwrap();
                d.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            }
        }
    }
    assert!(ok, "slot never freed after disconnect");
}

/// The tentpole end to end: a degraded GET over real sockets leaves ONE
/// retained trace tree that spans three processes — gateway root, store
/// read/rebuild spans, and chunkd-side spans shipped back over the wire
/// — with `chunk_io` leaves naming the helper disks and racks actually
/// read. Also exercises client-supplied contexts and the exposition's
/// exemplars and journal-drop families.
#[test]
fn degraded_get_retains_one_tree_spanning_gateway_store_and_chunkd() {
    let dir = TempDir::new("gw-trace");
    let spec: pbrs_erasure::CodeSpec = "piggyback-4-2".parse().unwrap();
    let servers: Vec<ChunkServer> = (0..6)
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
    // `.traced()` opts the client half in; the servers record spans for
    // trace-wrapped requests by default.
    let disks: Vec<Arc<dyn ChunkBackend>> = servers
        .iter()
        .map(|s| {
            Arc::new(RemoteDisk::new(s.local_addr().to_string()).traced()) as Arc<dyn ChunkBackend>
        })
        .collect();
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), spec).chunk_len(512),
            disks,
            RackMap::uniform(3, 2),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    let data = pattern(4 * 512 * 2); // 2 stripes
    c.put("obj", &data).unwrap();
    // Lose one chunk server entirely; the GET degrades on every stripe.
    fs::remove_dir_all(servers[1].root()).unwrap();
    let got = c.get("obj").unwrap();
    assert_eq!(got.data, data);
    assert_eq!(got.degraded_stripes, 2);

    // The TRACES verb assembles the cross-process tree: the gateway
    // pulls chunkd-local spans over FETCH_SPANS before rendering.
    let traces = c.traces().unwrap();
    assert!(traces.json.contains("\"degraded\""), "{}", traces.json);
    assert!(
        traces.chrome.starts_with("{\"traceEvents\":["),
        "{}",
        traces.chrome
    );

    // Inspect the tree structurally through the in-process handle (the
    // JSON above is the same data rendered).
    let retained = gw.tracer().retained();
    let tree = retained
        .iter()
        .find(|t| t.reasons.contains(&"degraded"))
        .expect("the degraded GET must be retained");
    assert_eq!(tree.op, "get");
    let root = tree
        .spans
        .iter()
        .find(|s| s.id == tree.root)
        .expect("root span present");
    assert!(root.process.starts_with("gateway:"), "{:?}", root.process);
    assert!(
        tree.spans
            .iter()
            .any(|s| s.name == "read_stripe" && s.tag("degraded").is_some()),
        "store spans must join the gateway's tree"
    );
    // chunk_io leaves name the helper disks, their racks, and the remote
    // backends actually read.
    let leaves: Vec<_> = tree.spans.iter().filter(|s| s.name == "chunk_io").collect();
    assert!(!leaves.is_empty());
    assert!(
        leaves.iter().any(
            |s| s.tag("backend").is_some_and(|b| b.contains("chunkd://"))
                && s.tag("rack").is_some()
        ),
        "{leaves:?}"
    );
    // Spans shipped back from at least two distinct chunkd processes.
    let chunkd_procs: std::collections::HashSet<&str> = tree
        .spans
        .iter()
        .filter(|s| s.process.starts_with("chunkd:"))
        .map(|s| s.process.as_str())
        .collect();
    assert!(
        chunkd_procs.len() >= 2,
        "expected spans from >= 2 chunkd processes, got {chunkd_procs:?}"
    );

    // A client-supplied context is adopted: the op joins the caller's
    // trace instead of minting a fresh id.
    let ctx = pbrs_obs::trace::TraceCtx::from_raw(0xfeed_beef_dead_cafe, 0x1).unwrap();
    let traced = c.get_traced("obj", ctx).unwrap();
    assert_eq!(traced.data, data);
    // The root finishes on the reactor thread just after the final
    // frame's write(2); on loopback the client can observe ObjectEnd
    // first, so poll briefly.
    let mut adopted = false;
    for _ in 0..500 {
        if gw
            .tracer()
            .retained()
            .iter()
            .any(|t| t.trace.as_u64() == ctx.trace.as_u64())
        {
            adopted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        adopted,
        "client-supplied trace id must be retained (degraded op): {:?}",
        gw.tracer()
            .retained()
            .iter()
            .map(|t| (t.op.clone(), t.trace.as_u64(), t.reasons.clone()))
            .collect::<Vec<_>>()
    );

    // Exemplars: the degraded-GET histogram member links its bucket to a
    // retained trace id; journal drop counters ride the same exposition.
    let text = c.prometheus().unwrap();
    assert!(
        text.contains("op=\"get_degraded\"")
            && text.contains("# {trace_id=\"")
            && text.contains("pbrs_journal_events_dropped_total{component=\"gateway\"} 0"),
        "{text}"
    );
}

/// The gateway's per-op latency histograms, GET stage breakdowns, v2
/// METRICS JSON, and Prometheus exposition all report the ops we ran.
#[test]
fn latency_histograms_and_expositions_cover_all_ops() {
    let dir = TempDir::new("gw-latency");
    let store = local_store(&dir, "rs-4-2", 512);
    let gw = gateway(&store, GatewayConfig::default());
    let mut c = client(&gw);

    let data = pattern(4 * 512 * 3 + 77);
    c.put("obj", &data).unwrap();
    c.put("victim", &data).unwrap();
    assert_eq!(c.get("obj").unwrap().degraded_stripes, 0);

    // Lose a disk: the next GET is degraded.
    fs::remove_dir_all(store.disk_path(2)).unwrap();
    let degraded = c.get("obj").unwrap();
    assert_eq!(degraded.data, data);
    assert!(degraded.degraded_stripes > 0);
    c.delete("victim").unwrap();

    // A METRICS round trip serialises through the reactor, so every op
    // recorded above is visible both in the JSON and in direct snapshots.
    let json = c.metrics().unwrap();
    assert!(json.contains("\"schema_version\":2"), "{json}");
    assert!(json.contains("\"ops\":{\"put\":{\"count\":2"), "{json}");
    assert!(
        json.contains("\"stages\":{\"healthy_get\":{\"queue\":"),
        "{json}"
    );
    assert!(json.contains("\"store\":{"), "{json}");

    let latency = gw.metrics().latency();
    assert_eq!(latency.put.count(), 2);
    assert_eq!(latency.get_healthy.count(), 1);
    assert_eq!(latency.get_degraded.count(), 1);
    assert_eq!(latency.delete.count(), 1);
    assert!(latency.get_healthy.summary().p50_us > 0);
    // A degraded whole-object GET cannot be faster than its own mean.
    assert!(latency.get_degraded.max() >= latency.get_degraded.summary().p50_us);

    // One stage sample set per completed GET; chunk-io did real work.
    let healthy = &latency.healthy_get_stages;
    assert_eq!(healthy.stage(pbrs_obs::Stage::ChunkIo).count(), 1);
    assert!(healthy.stage(pbrs_obs::Stage::ChunkIo).summary().p50_us > 0);
    let degraded_stages = &latency.degraded_get_stages;
    assert_eq!(degraded_stages.stage(pbrs_obs::Stage::Erasure).count(), 1);
    assert!(
        degraded_stages
            .stage(pbrs_obs::Stage::Erasure)
            .summary()
            .max_us
            > 0
    );

    let text = c.prometheus().unwrap();
    assert!(
        text.contains("# TYPE pbrs_gateway_op_duration_seconds histogram"),
        "{text}"
    );
    assert!(
        text.contains("pbrs_gateway_op_duration_seconds_count{op=\"get_degraded\"} 1"),
        "{text}"
    );
    assert!(
        text.contains(
            "pbrs_gateway_get_stage_duration_seconds_count{path=\"healthy\",stage=\"chunk_io\"} 1"
        ),
        "{text}"
    );
    assert!(text.contains("pbrs_gateway_objects_put_total 2"), "{text}");
    assert!(
        text.contains("# TYPE pbrs_store_stripe_read_duration_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("pbrs_store_"), "{text}");
}
