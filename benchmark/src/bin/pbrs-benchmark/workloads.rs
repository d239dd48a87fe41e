//! The four workloads as *passes*: fixed, seed-determined units of
//! identical work that repeat until the measured window is over.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use pbrs_gateway::client::GatewayClient;
use pbrs_store::{ChunkBackend, ChunkId, DaemonConfig, RepairDaemon};

use crate::rig::{self, Rig, CHUNK_LEN, LOST_DISK, OBJECTS, OBJECT_LEN};
use crate::stats::{process_cpu_ticks, Rng, MIB};
use crate::trace::{span, SpanId, SpanLog, NO_PARENT};

/// Names each `put_ingest` client overwrites pass after pass.
pub const RING_PER_CLIENT: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    GetHealthy,
    GetDegraded,
    PutIngest,
    DiskRebuild,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GetHealthy,
        Workload::GetDegraded,
        Workload::PutIngest,
        Workload::DiskRebuild,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GetHealthy => "get_healthy",
            Workload::GetDegraded => "get_degraded",
            Workload::PutIngest => "put_ingest",
            Workload::DiskRebuild => "disk_rebuild",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The root span of one op of a traced pass, so the op can be replayed
/// layer by layer under the same op id afterwards.
pub struct Root {
    pub op: u64,
    pub span: SpanId,
    /// Object index (GET) or index within the client's ring (PUT).
    pub item: usize,
}

pub struct Pass {
    /// Which of the runner's passes this was, the warm-up being 0.
    pub index: u64,
    pub wall_s: f64,
    pub cpu_ticks: u64,
    /// Bytes users moved; rebuilt chunk bytes on `disk_rebuild`.
    pub user_bytes: u64,
    pub socket_bytes: u64,
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub roots: Vec<Root>,
}

impl Pass {
    pub fn goodput_mib_s(&self) -> f64 {
        self.user_bytes as f64 / MIB / self.wall_s
    }
}

pub struct OpResult {
    pub ms: f64,
    pub ok: bool,
    pub degraded_stripes: u64,
    pub root: Root,
}

/// One workload on one rig.
pub struct Runner {
    pub workload: Workload,
    pub rig: Rig,
    seed: u64,
    clients: Vec<GatewayClient>,
    passes: u64,
    next_op: u64,
    /// The population's chunks on [`LOST_DISK`].
    pub lost: Vec<(String, ChunkId)>,
    /// Σ `repair_reads` lengths over `lost`: what one rebuild of the disk
    /// must read from helpers, byte for byte.
    expected_helper_bytes: u64,
}

impl Runner {
    /// Takes a populated rig and brings it to the workload's starting
    /// state (`get_degraded` loses its disk here).
    pub fn new(workload: Workload, rig: Rig, seed: u64) -> Runner {
        let lost = rig.chunks_on_disk(LOST_DISK);
        let expected_helper_bytes = lost
            .iter()
            .flat_map(|(_, id)| rig::repair_reads(rig.store.code(), id.shard))
            .map(|read| read.len as u64)
            .sum();
        if workload == Workload::GetDegraded {
            rig.wipe_disk(LOST_DISK);
        }
        let clients = (0..rig::client_count()).map(|_| rig.connect()).collect();
        Runner {
            workload,
            rig,
            seed,
            clients,
            passes: 0,
            next_op: 1,
            lost,
            expected_helper_bytes,
        }
    }

    /// Ring names carry the seed, at a fixed width: the name's length is
    /// part of every chunk request, and byte counts must not vary by seed.
    pub fn ring_name(&self, slot: usize) -> String {
        format!("ring-{:08x}-{slot:02}", self.seed as u32)
    }

    /// Which population payload a client's ring item `item` carries after
    /// pass `pass`.
    pub fn ring_payload(item: usize, pass: u64) -> usize {
        (item + pass as usize) % OBJECTS
    }

    /// Stripes of one population read that lost a data shard.
    fn expected_degraded_stripes(&self) -> u64 {
        let k = self.rig.store.code().params().data_shards();
        self.lost.iter().filter(|(_, id)| id.shard < k).count() as u64
    }

    pub fn pass(&mut self, payloads: &[Vec<u8>], log: Option<&SpanLog>) -> Pass {
        let pass = if self.workload == Workload::DiskRebuild {
            self.rebuild_pass(log)
        } else {
            self.serve_pass(payloads, log)
        };
        self.passes += 1;
        pass
    }

    /// Every client GETs the whole population once (`put_ingest`: PUTs
    /// each name of its own ring once), in an order drawn from the seed.
    fn serve_pass(&mut self, payloads: &[Vec<u8>], log: Option<&SpanLog>) -> Pass {
        let pass = self.passes;
        let put = self.workload == Workload::PutIngest;
        let per_client = if put { RING_PER_CLIENT } else { OBJECTS };
        let clients = self.clients.len();
        // `names[c][j]`: the j-th item of client c. GET clients share the
        // population; every PUT client owns a ring.
        let names: Vec<Vec<String>> = (0..clients)
            .map(|c| {
                (0..per_client)
                    .map(|j| {
                        if put {
                            self.ring_name(c * RING_PER_CLIENT + j)
                        } else {
                            rig::object_name(j)
                        }
                    })
                    .collect()
            })
            .collect();
        if put && pass > 0 {
            // Untimed: the previous incarnation goes before the clock starts.
            for name in names.iter().flatten() {
                self.clients[0].delete(name).expect("DELETE ring object");
            }
        }
        let mut rng = Rng::new(self.seed ^ (pass + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let orders: Vec<Vec<usize>> = (0..clients).map(|_| rng.permutation(per_client)).collect();
        let op_base = self.next_op;
        self.next_op += (clients * per_client) as u64;

        let cpu0 = process_cpu_ticks();
        let socket0 = self.rig.socket_bytes();
        let start = Instant::now();
        let results: Vec<OpResult> = thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(orders.iter().zip(&names))
                .enumerate()
                .map(|(lane, (client, (order, names)))| {
                    s.spawn(move || {
                        order
                            .iter()
                            .enumerate()
                            .map(|(j, &item)| {
                                let op = op_base + (lane * per_client + j) as u64;
                                let name = &names[item];
                                let lane = lane as u32;
                                if put {
                                    let payload = &payloads[Self::ring_payload(item, pass)];
                                    put_op(client, log, op, lane, item, name, payload)
                                } else {
                                    get_op(client, log, op, lane, item, name, &payloads[item])
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_ticks = process_cpu_ticks() - cpu0;
        let socket_bytes = self.rig.socket_bytes() - socket0;

        let mut failed = results.iter().filter(|r| !r.ok).count() as u64;
        let degraded: u64 = results.iter().map(|r| r.degraded_stripes).sum();
        let expected_degraded = match self.workload {
            Workload::GetDegraded => clients as u64 * self.expected_degraded_stripes(),
            _ => 0,
        };
        if degraded != expected_degraded {
            eprintln!(
                "pass {pass}: {degraded} degraded stripes served, expected {expected_degraded}"
            );
            failed += 1;
        }
        Pass {
            index: pass,
            wall_s,
            cpu_ticks,
            user_bytes: (results.len() * OBJECT_LEN) as u64,
            socket_bytes,
            op_ms: results.iter().map(|r| r.ms).collect(),
            attempted: results.len() as u64,
            failed,
            roots: results.into_iter().map(|r| r.root).collect(),
        }
    }

    /// One rebuild cycle: lose the disk, let the daemon find and repair
    /// the damage, check what it did.
    fn rebuild_pass(&mut self, log: Option<&SpanLog>) -> Pass {
        let op = self.next_op;
        self.next_op += 1;
        self.rig.wipe_disk(LOST_DISK);
        let before = self.rig.store.metrics();
        let cpu0 = process_cpu_ticks();
        let socket0 = self.rig.socket_bytes();
        // The two phases are root spans of the op beside the cycle, so the
        // cycle's children are its replays alone.
        let (daemon, root, cycle_us) = span(log, "daemon.cycle", op, NO_PARENT, 0, |_| {
            let daemon = RepairDaemon::start(Arc::clone(&self.rig.store), DaemonConfig::default());
            span(log, "daemon.scan_now", op, NO_PARENT, 0, |_| {
                daemon.scan_now().expect("scan")
            });
            span(log, "daemon.wait_idle", op, NO_PARENT, 0, |_| {
                daemon.wait_idle()
            });
            daemon
        });
        let cpu_ticks = process_cpu_ticks() - cpu0;
        let socket_bytes = self.rig.socket_bytes() - socket0;
        let stats = daemon.shutdown();

        let helper_bytes =
            self.rig.store.metrics().repair_helper_bytes - before.repair_helper_bytes;
        let ok = stats.failures == 0
            && stats.chunks_repaired == self.lost.len() as u64
            && helper_bytes == self.expected_helper_bytes
            && stats.helper_bytes == self.expected_helper_bytes
            && self.lost_chunks_healthy();
        if !ok {
            eprintln!(
                "rebuild cycle {}: {stats:?}, {helper_bytes} helper bytes (expected {} chunks, {} bytes)",
                self.passes,
                self.lost.len(),
                self.expected_helper_bytes
            );
        }
        Pass {
            index: self.passes,
            wall_s: cycle_us / 1e6,
            cpu_ticks,
            user_bytes: stats.bytes_written,
            socket_bytes,
            op_ms: vec![cycle_us / 1e3],
            attempted: 1,
            failed: u64::from(!ok),
            roots: vec![Root {
                op,
                span: root,
                item: 0,
            }],
        }
    }

    /// Server-side checksum verification of every chunk the lost disk
    /// held — what a scrub would report for them, without re-reading the
    /// other thirteen disks after every cycle.
    fn lost_chunks_healthy(&self) -> bool {
        self.lost.iter().all(|(name, id)| {
            self.rig.remotes[LOST_DISK]
                .verify_chunk(name, *id, CHUNK_LEN)
                .is_ok_and(|(status, _)| status.is_healthy())
        })
    }

    /// The end-of-run half of the correctness wall; returns
    /// `(attempted, failed)`. Ends with a scrub of the whole store, which
    /// must find no damage unless the workload left the disk lost.
    pub fn finish(&mut self, payloads: &[Vec<u8>]) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        if self.workload == Workload::PutIngest && self.passes > 0 {
            for slot in 0..self.clients.len() * RING_PER_CLIENT {
                let name = self.ring_name(slot);
                let payload =
                    &payloads[Self::ring_payload(slot % RING_PER_CLIENT, self.passes - 1)];
                let result = get_op(&mut self.clients[0], None, 0, 0, slot, &name, payload);
                attempted += 1;
                failed += u64::from(!result.ok);
            }
        }
        if self.workload != Workload::GetDegraded {
            attempted += 1;
            let clean = self.rig.store.scrub().is_ok_and(|r| r.is_clean());
            if !clean {
                eprintln!("final scrub found damage");
                failed += 1;
            }
        }
        (attempted, failed)
    }

    pub fn teardown(self) {
        drop(self.clients);
        self.rig.teardown();
    }
}

/// One streamed GET, every stripe compared with the generated payload as
/// it arrives. A BUSY, an error or a differing byte fails the op.
pub fn get_op(
    client: &mut GatewayClient,
    log: Option<&SpanLog>,
    op: u64,
    lane: u32,
    item: usize,
    name: &str,
    payload: &[u8],
) -> OpResult {
    let mut offset = 0usize;
    let mut same = true;
    let (result, root, us) = span(log, "client.get", op, NO_PARENT, lane, |_| {
        client.get_streamed(name, |stripe| {
            let end = offset + stripe.len();
            same &= payload.get(offset..end) == Some(stripe);
            offset = end;
        })
    });
    if let Err(e) = &result {
        eprintln!("GET {name}: {e}");
    }
    OpResult {
        ms: us / 1e3,
        ok: result.is_ok() && same && offset == payload.len(),
        degraded_stripes: result.unwrap_or(0),
        root: Root {
            op,
            span: root,
            item,
        },
    }
}

pub fn put_op(
    client: &mut GatewayClient,
    log: Option<&SpanLog>,
    op: u64,
    lane: u32,
    item: usize,
    name: &str,
    payload: &[u8],
) -> OpResult {
    let (result, root, us) = span(log, "client.put", op, NO_PARENT, lane, |_| {
        client.put(name, payload)
    });
    if let Err(e) = &result {
        eprintln!("PUT {name}: {e}");
    }
    OpResult {
        ms: us / 1e3,
        ok: result.is_ok_and(|(len, _)| len == payload.len() as u64),
        degraded_stripes: 0,
        root: Root {
            op,
            span: root,
            item,
        },
    }
}

/// Reads the whole population once through the gateway at `addr`, from the
/// usual number of clients, every byte checked; returns the seconds taken.
pub fn read_population(addr: SocketAddr, payloads: &[Vec<u8>]) -> f64 {
    let clients = rig::client_count();
    let start = Instant::now();
    thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect to gateway");
                for i in (c..payloads.len()).step_by(clients) {
                    let name = rig::object_name(i);
                    let get = get_op(&mut client, None, 0, 0, i, &name, &payloads[i]);
                    assert!(
                        get.ok && get.degraded_stripes == 0,
                        "population read of {name}"
                    );
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}
