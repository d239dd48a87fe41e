//! `pbrs-store` — a file-backed, erasure-coded block store with degraded
//! reads and a background repair daemon.
//!
//! The rest of the workspace *models* the paper's repair-traffic argument
//! (codecs, plans, a cluster simulator); this crate *executes* it against
//! real bytes on a real filesystem, so the ~30 % Piggybacked-RS saving is
//! measured on file I/O rather than predicted:
//!
//! * **Write path** — [`BlockStore::put`] streams an object into fixed-size
//!   stripes, encodes each with the zero-copy codec core
//!   ([`pbrs_erasure::ErasureCode::encode_into`]) and spreads the `k + r`
//!   chunks over one directory per "disk" as CRC-32-checksummed chunk files
//!   ([`chunk`]), all of a stripe's writes in flight together
//!   ([`ChunkBackend::begin_write`]), tracked by a durable stripe manifest
//!   ([`manifest`]).
//! * **Read path** — [`BlockStore::get`] serves objects chunk by chunk and,
//!   when a chunk is missing or fails its checksum, transparently falls
//!   back to a *degraded read*: each lost chunk's repair plan, reading
//!   exactly the helper byte ranges named by
//!   [`pbrs_erasure::ErasureCode::repair_reads_ranked`] (half-chunks for a
//!   Piggybacked-RS single loss) and counting them; a helper that fails is
//!   planned around.
//! * **Repair path** — a [`RepairDaemon`] starts from the failure: a disk
//!   that has become unavailable is rebuilt from the manifest's placement
//!   rows ([`BlockStore::chunks_on_disks`], no chunk read), while passes
//!   with no new loss scrub the store for corrupt and missing chunks; a
//!   worker pool rebuilds what either found along each code's repair plan
//!   and exports traffic counters per code ([`MetricsSnapshot`],
//!   [`DaemonStats`]).
//! * **Pluggable disks** — every chunk touch goes through a [`ChunkBackend`]
//!   ([`backend`]): the default is the local directory-per-disk layout
//!   ([`LocalDisk`]), and the `pbrs-chunkd` crate serves the same surface
//!   over TCP so helper bytes cross real sockets (counted by
//!   [`BlockStore::socket_counters`]).
//!
//! # Placement & racks
//!
//! A store mounts a backend *pool* — possibly larger than the code's shard
//! count — grouped into named racks by a [`RackMap`] (one chunkd endpoint
//! group = one rack), and a [`PlacementPolicy`] decides which pool disks
//! each stripe's chunks land on ([`BlockStore::open_with_backends`]):
//!
//! * [`PlacementPolicy::Identity`] — shard `i` on disk `i`, the classic
//!   fixed layout ([`BlockStore::open`] uses it with one single-disk rack
//!   per backend, so every helper byte counts as cross-rack, matching the
//!   paper's §2.1 worst case);
//! * [`PlacementPolicy::RackDisjoint`] — every shard in a distinct rack,
//!   the production placement whose recovery traffic the paper measures:
//!   *all* of it crosses top-of-rack switches;
//! * [`PlacementPolicy::RackAware`] — grouped placement: stripes occupy as
//!   few racks as possible, so repairs can find same-rack helpers.
//!
//! Placement is deterministic (seeded via
//! [`store::StoreConfig::placement_seed`]) and every stripe's chosen disk
//! set is persisted in the manifest, which is the authority on reopen. The
//! repair paths are *locality-first*: helper choice prefers same-rack
//! survivors when the code allows it
//! ([`pbrs_erasure::ErasureCode::repair_reads_ranked`]), and every helper
//! byte is accounted intra-rack vs cross-rack ([`MetricsSnapshot`],
//! [`StripeRepair`], [`daemon::DaemonStats`], and per-rack socket sums via
//! [`BlockStore::rack_counters`]) — the paper's cross-rack recovery-traffic
//! split measured on real I/O. `examples/rack_aware_repair.rs` runs the
//! whole experiment against racks of chunkd servers.
//!
//! # Object lifecycle
//!
//! Objects are immutable; [`BlockStore::delete`] removes one by writing a
//! durable manifest tombstone (reads fail immediately), and the next
//! [`BlockStore::scrub`] sweeps the dead chunks from every disk and clears
//! the tombstone ([`ScrubReport::tombstones_swept`]). A deleted name is
//! immediately reusable.
//!
//! # Durability
//!
//! What survives a power loss, and why:
//!
//! * **A committed object is fully durable.** [`BlockStore::put`] writes
//!   every chunk of every stripe durably *before* committing the manifest
//!   entry, so a manifest that lists an object implies all of its chunks
//!   hit stable storage first.
//! * **Every file lands via tmp → fsync → rename → directory fsync.** The
//!   file's own `fsync` makes its *bytes* durable, but the rename that
//!   publishes it lives in the parent directory's data blocks — without
//!   fsyncing the directory too, a crash can forget the rename and
//!   resurrect the old file (or no file) despite the data being on disk.
//!   Chunk writes ([`chunk::write_chunk`]), manifest commits
//!   ([`Manifest::save`]) and object-directory creation (by a chunk
//!   write's first landing, or [`ChunkBackend::ensure_object`]) all
//!   follow this discipline.
//! * **A crashed writer leaves only debris, never corruption.** An
//!   interrupted `put` leaves orphan chunks (its name was never committed)
//!   and possibly `*.tmp` files; an interrupted repair leaves at worst a
//!   `*.tmp` next to a still-valid old chunk. [`BlockStore::scrub`] deletes
//!   tmp files older than [`store::STALE_TMP_MIN_AGE`] and reports them
//!   ([`ScrubReport::stale_tmp_removed`]), so debris cannot accumulate or
//!   be mistaken for damage.
//! * **Worker panics are contained.** A panicking repair worker is counted
//!   as a failure ([`error::StoreError::WorkerPanic`] in the journal); the
//!   daemon keeps running and [`RepairDaemon::wait_idle`] still terminates.
//!   `put` and `get` have no workers: they run on the caller's thread.
//!
//! # Example
//!
//! ```
//! use pbrs_store::testing::TempDir;
//! use pbrs_store::{BlockStore, StoreConfig};
//!
//! # fn main() -> Result<(), pbrs_store::StoreError> {
//! let dir = TempDir::new("lib-doc");
//! let store = BlockStore::open(
//!     StoreConfig::new(dir.path().join("store"), "piggyback-10-4".parse().unwrap())
//!         .chunk_len(4096),
//! )?;
//! let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
//! store.put("dataset", &payload[..])?;
//!
//! // Lose one "disk": reads still succeed, served degraded.
//! std::fs::remove_dir_all(store.disk_path(3)).unwrap();
//! assert_eq!(store.get("dataset")?, payload);
//! let metrics = store.metrics();
//! assert!(metrics.degraded_stripe_reads > 0);
//! assert!(metrics.degraded_helper_bytes > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod chunk;
pub mod daemon;
pub mod error;
pub mod fault;
pub mod guard;
pub mod health;
pub mod manifest;
pub mod metrics;
pub mod store;
pub mod stream;
pub mod testing;

pub use backend::{
    BackendCounters, ChunkBackend, LocalDisk, PendingRead, PendingWrite, ReadyRead, ReadyWrite,
};
pub use chunk::{ChunkId, ChunkRead, ChunkStatus};
pub use daemon::{DaemonConfig, DaemonStats, RepairDaemon, ScanReport, EVENT_JOURNAL_CAPACITY};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultyBackend};
pub use guard::GuardedDisk;
pub use health::{
    Admission, DiskHealth, DiskHealthSnapshot, DiskState, HealthPolicy, HealthTracker, Outcome,
    Transition,
};
// The daemon's journal speaks pbrs-obs event types — re-exported so store
// callers can match on kinds without a separate import.
pub use error::StoreError;
pub use manifest::{Manifest, ObjectInfo};
pub use metrics::{MetricsSnapshot, StoreLatency, StoreLatencySnapshot};
pub use pbrs_obs::{Event, EventKind};
// The placement types are pbrs-placement's — re-exported so store callers
// can mount rack-aware pools without a separate import.
pub use pbrs_placement::{PlacementError, PlacementMap, PlacementPolicy, RackMap};
pub use store::{
    BlockStore, Damage, PlacedChunk, ScrubReport, StoreConfig, StripeRepair, DEFAULT_CHUNK_LEN,
};
pub use stream::{ObjectReader, ObjectWriter};
