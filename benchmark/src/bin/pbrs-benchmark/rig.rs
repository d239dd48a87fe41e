//! The rig every workload runs on: 16 loopback chunkd servers (one rack
//! each), a `piggyback-10-4` store over 16 `RemoteDisk`s, and a gateway —
//! library defaults everywhere, so a change to a default is measured.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

use pbrs_chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs_erasure::{CodeSpec, ErasureCode, ShardRead};
use pbrs_gateway::client::GatewayClient;
use pbrs_gateway::server::{Gateway, GatewayConfig};
use pbrs_store::{BlockStore, ChunkBackend, ChunkId, PlacementPolicy, RackMap, StoreConfig};

use crate::stats::Rng;

pub const SPEC: &str = "piggyback-10-4";
pub const DISKS: usize = 16;
pub const CHUNK_LEN: usize = 64 * 1024;
pub const OBJECTS: usize = 16;
pub const OBJECT_LEN: usize = 4 * 1024 * 1024;
/// The disk `get_degraded` and `disk_rebuild` lose.
pub const LOST_DISK: usize = 3;
/// Fixed, not derived from `--seed`: the layout (which stripes keep a
/// shard on [`LOST_DISK`]) decides how much work a pass is, and a pass
/// must be the same work under every seed for runs to be comparable.
pub const PLACEMENT_SEED: u64 = 0x0b5e_55ed;
/// Everything the benchmark writes lives here, inside the checkout.
pub const OUT_DIR: &str = "benchmark/out";
/// Chunk files and the manifest. `run.sh` mounts a tmpfs here when it may,
/// so the rig works in a subdirectory it can remove.
pub const DATA_DIR: &str = "benchmark/out/data";

pub fn object_name(index: usize) -> String {
    format!("obj-{index:03}")
}

/// The population's payloads: `OBJECTS` distinct buffers derived from the
/// seed. Generated once per process, outside any timed region.
pub fn payloads(seed: u64) -> Vec<Vec<u8>> {
    (0..OBJECTS)
        .map(|i| {
            let mut data = vec![0u8; OBJECT_LEN];
            Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)).fill(&mut data);
            data
        })
        .collect()
}

pub fn client_count() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

pub struct Rig {
    dir: PathBuf,
    pub servers: Vec<ChunkServer>,
    pub remotes: Vec<Arc<RemoteDisk>>,
    pub store: Arc<BlockStore>,
    pub gateway: Gateway,
}

impl Rig {
    /// Binds the servers, opens the store, starts the gateway, and ingests
    /// the population through the gateway.
    pub fn build(payloads: &[Vec<u8>]) -> Rig {
        let dir = Path::new(DATA_DIR).join("rig");
        // A crashed earlier run may have left its data behind.
        let _ = fs::remove_dir_all(&dir);
        let servers: Vec<ChunkServer> = (0..DISKS)
            .map(|i| {
                ChunkServer::bind_with(
                    dir.join(format!("disk-{i:02}")),
                    "127.0.0.1:0",
                    ServerConfig::default(),
                )
                .expect("bind chunkd")
            })
            .collect();
        let (remotes, store) = open_store(&dir, &servers);
        let gateway = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default())
            .expect("start gateway");
        let rig = Rig {
            dir,
            servers,
            remotes,
            store,
            gateway,
        };
        rig.populate(payloads);
        rig
    }

    fn populate(&self, payloads: &[Vec<u8>]) {
        let clients = client_count();
        let addr = self.addr();
        thread::scope(|s| {
            for c in 0..clients {
                s.spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("connect to gateway");
                    for i in (c..payloads.len()).step_by(clients) {
                        client
                            .put(&object_name(i), &payloads[i])
                            .expect("populate PUT");
                    }
                });
            }
        });
    }

    pub fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    pub fn connect(&self) -> GatewayClient {
        GatewayClient::connect(self.addr()).expect("connect to gateway")
    }

    /// A second store over the same root and servers (fresh `RemoteDisk`
    /// connections): lets a probe serve the same objects through a
    /// differently configured gateway.
    pub fn second_store(&self) -> Arc<BlockStore> {
        open_store(&self.dir, &self.servers).1
    }

    /// Loses a disk the way the paper's failures do: its directory vanishes
    /// while the server stays up. Losing a lost disk again is a no-op.
    pub fn wipe_disk(&self, disk: usize) {
        match fs::remove_dir_all(self.servers[disk].root()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => panic!("wipe disk {disk}: {e}"),
            _ => {}
        }
    }

    /// Bytes that crossed the chunkd sockets so far, both directions, frame
    /// headers included.
    pub fn socket_bytes(&self) -> u64 {
        self.remotes
            .iter()
            .map(|r| {
                let c = r.counters();
                c.bytes_sent + c.bytes_received
            })
            .sum()
    }

    /// Dials beyond each client's first: must stay 0.
    pub fn reconnects(&self) -> u64 {
        self.remotes
            .iter()
            .map(|r| r.reconnect_stats().attempts.saturating_sub(1))
            .sum()
    }

    /// Every `(object, stripe, shard)` of the population whose chunk lives
    /// on `disk`, in manifest order.
    pub fn chunks_on_disk(&self, disk: usize) -> Vec<(String, ChunkId)> {
        let mut out = Vec::new();
        for (name, info) in self.store.objects() {
            for stripe in 0..info.stripes {
                let row = self.store.stripe_disks(&name, stripe);
                if let Some(shard) = row.iter().position(|&d| d == disk) {
                    out.push((name.clone(), ChunkId { stripe, shard }));
                }
            }
        }
        out
    }

    /// Stops every thread the rig started and deletes its data.
    pub fn teardown(self) {
        let Rig {
            dir,
            servers,
            remotes,
            store,
            gateway,
        } = self;
        gateway.shutdown();
        drop(store);
        drop(remotes);
        // Each server joins its workers on a 100 ms poll; stop them side
        // by side rather than one after another.
        thread::scope(|s| {
            for server in servers {
                s.spawn(move || server.shutdown());
            }
        });
        fs::remove_dir_all(&dir).expect("remove benchmark data");
    }
}

fn open_store(dir: &Path, servers: &[ChunkServer]) -> (Vec<Arc<RemoteDisk>>, Arc<BlockStore>) {
    let remotes: Vec<Arc<RemoteDisk>> = servers
        .iter()
        .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())))
        .collect();
    let disks: Vec<Arc<dyn ChunkBackend>> = remotes
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ChunkBackend>)
        .collect();
    let spec: CodeSpec = SPEC.parse().expect("valid spec");
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.join("root"), spec)
            .chunk_len(CHUNK_LEN)
            .placement_seed(PLACEMENT_SEED),
        disks,
        RackMap::per_disk(DISKS),
        PlacementPolicy::RackDisjoint,
    )
    .expect("open store");
    (remotes, Arc::new(store))
}

/// The filesystem type `DATA_DIR` is on, from `/proc/mounts`: the virtual
/// disk's flush cost enters the write paths unless this says `tmpfs`.
pub fn data_filesystem() -> String {
    let dir = fs::canonicalize(DATA_DIR).expect("data directory exists");
    let mounts = fs::read_to_string("/proc/mounts").expect("read /proc/mounts");
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (point, fstype) = (fields.nth(1)?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// The helper byte ranges `code` reads to rebuild shard `target` of a
/// 64 KiB-chunk stripe when nothing else is lost.
pub fn repair_reads(code: &dyn ErasureCode, target: usize) -> Vec<ShardRead> {
    let mut available = vec![true; code.params().total_shards()];
    available[target] = false;
    code.repair_reads(target, &available, CHUNK_LEN)
        .expect("single-failure repair plan")
}
