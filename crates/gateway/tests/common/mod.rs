//! Fixtures shared by the loopback and contract suites.

use std::sync::Arc;
use std::time::Duration;

use pbrs_chunkd::{ChunkServer, RemoteDisk, ServerConfig};
use pbrs_gateway::client::GatewayClient;
use pbrs_gateway::server::Gateway;
use pbrs_store::store::{BlockStore, StoreConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{ChunkBackend, PlacementPolicy, RackMap};

pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

pub fn client(gw: &Gateway) -> GatewayClient {
    let c = GatewayClient::connect(gw.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

/// A `piggyback-4-2` store whose six disks are chunkd TCP servers on
/// loopback, two per rack, placed by identity (disk `i` holds shard `i`).
/// `.traced()` opts the client half in; the servers record spans for
/// trace-wrapped requests by default.
pub fn chunkd_store(dir: &TempDir, chunk_len: usize) -> (Vec<ChunkServer>, Arc<BlockStore>) {
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
        .map(|s| {
            Arc::new(RemoteDisk::new(s.local_addr().to_string()).traced()) as Arc<dyn ChunkBackend>
        })
        .collect();
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "piggyback-4-2".parse().unwrap())
                .chunk_len(chunk_len),
            disks,
            RackMap::uniform(3, 2),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    );
    (servers, store)
}
