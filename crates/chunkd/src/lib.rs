//! `pbrs-chunkd` — a per-"disk" TCP chunk server and client for the pbrs
//! block store.
//!
//! The rest of the workspace measures the paper's repair-traffic argument
//! on local file I/O; this crate puts a real network between the store and
//! its disks, so the ~30 % Piggybacked-RS saving is observed on *socket*
//! byte counters rather than inferred:
//!
//! * [`ChunkServer`] — a blocking TCP server (small `std::thread` accept
//!   pool, no async runtime) exposing one local disk directory over the
//!   [`protocol`], framed by `pbrs-wire`. The operation set mirrors
//!   [`pbrs_store::ChunkBackend`] one-to-one; `ReadRange` serves exactly
//!   the helper byte ranges `ErasureCode::repair_reads` names, so a
//!   Piggybacked-RS helper ships half a chunk, never a whole one.
//! * [`RemoteDisk`] — the client side, implementing
//!   [`pbrs_store::ChunkBackend`] over one multiplexed connection with
//!   lazy connect, one transparent reconnect-and-retry (every op is
//!   idempotent), and per-connection read/write byte counters. The waiter
//!   reads: there is no reader thread, the callers waiting on a
//!   connection take turns reading it, and a read's payload goes from the
//!   socket straight into the buffer the read was begun with.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbrs_chunkd::{ChunkServer, RemoteDisk};
//! use pbrs_store::testing::TempDir;
//! use pbrs_store::{BlockStore, ChunkBackend, LocalDisk, PlacementPolicy, RackMap, StoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = TempDir::new("chunkd-doc");
//! // Serve two of a 4-disk rs-2-2 store's disks over loopback TCP.
//! let servers: Vec<ChunkServer> = (0..2)
//!     .map(|i| ChunkServer::bind(dir.path().join(format!("remote-{i}")), "127.0.0.1:0"))
//!     .collect::<Result<_, _>>()?;
//! let mut disks: Vec<Arc<dyn ChunkBackend>> = servers
//!     .iter()
//!     .map(|s| Arc::new(RemoteDisk::new(s.local_addr().to_string())) as Arc<dyn ChunkBackend>)
//!     .collect();
//! for i in 2..4 {
//!     disks.push(Arc::new(LocalDisk::new(dir.path().join(format!("local-{i}")))));
//! }
//! let store = BlockStore::open_with_backends(
//!     StoreConfig::new(dir.path().join("root"), "rs-2-2".parse()?).chunk_len(1024),
//!     disks,
//!     RackMap::per_disk(4),
//!     PlacementPolicy::Identity,
//! )?;
//! let payload = vec![7u8; 5000];
//! store.put("demo", &payload[..])?;
//! assert_eq!(store.get("demo")?, payload);
//! // Chunk bytes for disks 0 and 1 crossed real sockets:
//! assert!(store.socket_counters().bytes_sent > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ReconnectStats, RemoteDisk, BACKOFF_BASE, BACKOFF_CAP, DEFAULT_TIMEOUT};
pub use protocol::{Request, Response};
pub use server::{ChunkServer, ServerConfig};
