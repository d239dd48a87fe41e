//! The block store: striped, checksummed, erasure-coded object storage over
//! a set of "disk" directories.
//!
//! # Layout
//!
//! A store owns one [`ChunkBackend`] per shard of the configured code. By
//! default ([`BlockStore::open`]) every backend is a [`LocalDisk`] directory
//! under the store root — so losing a directory models losing a disk (or
//! the machine behind it):
//!
//! ```text
//! root/
//!   MANIFEST                 durable stripe manifest
//!   disk-00/                 shard 0 of every stripe
//!     my-object/00000000-00.chunk
//!     my-object/00000001-00.chunk
//!   disk-01/ …               shard 1 of every stripe
//! ```
//!
//! [`BlockStore::open_with_backends`] mounts any mix of local and remote
//! disks instead (the `pbrs-chunkd` crate serves a disk over TCP and its
//! client implements [`ChunkBackend`]), in which case helper bytes for
//! degraded reads and repairs cross real sockets and are counted by
//! [`BlockStore::socket_counters`]. The manifest always lives locally at
//! the store root.
//!
//! # Core and paths
//!
//! This file is the store's core: its configuration and report types,
//! [`BlockStore`] with `open` and the accessors, the per-caller stripe
//! scratch, and the steps every path shares — the span shell of a stripe
//! op, the settling of a chunk read, and the byte ledger
//! ([`BlockStore::metrics`]). Each path is a child module, its file under
//! `store/`:
//!
//! * `write.rs` — `put`'s name reservation, stripe encode and one write
//!   batch per stripe, the manifest commit, and [`BlockStore::delete`];
//! * `read.rs` — a stripe served into the caller's buffer, degraded when a
//!   chunk of it is lost;
//! * `rebuild.rs` — the one rebuild loop of degraded reads and repairs,
//!   and [`BlockStore::repair_stripe`];
//! * `scrub.rs` — what a repair starts from: [`BlockStore::scrub`], the
//!   one chunk check that a repair also runs on its claims, the tombstone
//!   and tmp sweeps, and the chunks placed on lost disks
//!   ([`BlockStore::chunks_on_disks`]).
//!
//! # Zero padding
//!
//! Every path treats the zero padding of an object's short last stripe
//! (the data chunks past its payload) as resident zeros, and no path
//! moves its bytes. A read zero-fills a padding slot and only checks the
//! chunk ([`ChunkBackend::begin_verify`]), so damaged padding still
//! degrades its stripe. A rebuild never fetches padding, a lost padding
//! chunk is rebuilt with no helper read, and every plan counts padding as
//! a survivor. `put` and repair write a padding chunk as a length
//! ([`ChunkBackend::begin_write_zeros`]). Helper-byte counters still price
//! the whole plan; [`StripeRepair::fetched_bytes`] counts what was read.

mod read;
mod rebuild;
mod scrub;
mod write;

use std::collections::HashSet;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use pbrs_core::registry::{self, DynCode};
use pbrs_erasure::{CodeSpec, ErasureCode, ShardBuffer};
use pbrs_placement::{PlacementMap, PlacementPolicy, RackMap};

use crate::backend::{BackendCounters, ChunkBackend, LocalDisk};
use crate::chunk::{self, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};
use crate::guard::GuardedDisk;
use crate::health::{DiskHealthSnapshot, DiskState, HealthPolicy, HealthTracker, Transition};
use crate::manifest::{Manifest, ObjectInfo};
use crate::metrics::{MetricsSnapshot, StoreLatency, StoreLatencySnapshot, StoreMetrics};
use pbrs_obs::trace::{self, RootFlags, ScopedCtx, SpanBuilder, SpanRecord, Tracer};
use pbrs_obs::{Event, EventJournal, EventKind};

/// Default chunk payload length: 64 KiB.
pub const DEFAULT_CHUNK_LEN: usize = 64 * 1024;

/// How old a `*.tmp` file must be before [`BlockStore::scrub`] deletes it
/// as a crash leftover. Younger tmp files may belong to a live writer that
/// is between its tmp write and its rename.
pub const STALE_TMP_MIN_AGE: Duration = Duration::from_secs(60);

/// Configuration for opening a [`BlockStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Root directory of the store (created if absent).
    pub root: PathBuf,
    /// The erasure code protecting every stripe.
    pub spec: CodeSpec,
    /// Payload bytes per chunk. Must be a positive multiple of the code's
    /// granularity (Piggybacked-RS needs even lengths).
    pub chunk_len: usize,
    /// Seed of the deterministic stripe placement (persisted in the
    /// manifest; reopening with a different seed is a config mismatch).
    /// Irrelevant for the identity policy.
    pub placement_seed: u64,
    /// How old a `*.tmp` file must be before scrub deletes it as a crash
    /// leftover (default [`STALE_TMP_MIN_AGE`]). Crash tests shrink it so
    /// debris sweeps don't need wall-clock sleeps.
    pub stale_tmp_min_age: Duration,
    /// When set, every backend is wrapped in a [`GuardedDisk`]: chunk ops
    /// are abandoned at this deadline (surfacing as missing chunks the
    /// read path routes around), outcomes feed a per-disk
    /// [`HealthTracker`], and Suspect/Failed disks shed load through its
    /// circuit breaker. `None` (the default) mounts backends bare with no
    /// behavior change.
    pub op_deadline: Option<Duration>,
    /// When set (requires [`StoreConfig::op_deadline`]), a rebuild of one
    /// lost chunk begins its first plan's helper reads together under this
    /// budget instead of the full deadline. Every helper that misses it or
    /// fails is abandoned, and the rebuild re-plans around them under the
    /// full deadline. Seed it from the healthy-read p99 (see
    /// [`BlockStore::latency`]).
    pub hedge_delay: Option<Duration>,
    /// Thresholds of the disk health state machine (used only under
    /// [`StoreConfig::op_deadline`]).
    pub health_policy: HealthPolicy,
}

impl StoreConfig {
    /// A configuration with the default chunk length.
    pub fn new(root: impl Into<PathBuf>, spec: CodeSpec) -> Self {
        StoreConfig {
            root: root.into(),
            spec,
            chunk_len: DEFAULT_CHUNK_LEN,
            placement_seed: 0,
            stale_tmp_min_age: STALE_TMP_MIN_AGE,
            op_deadline: None,
            hedge_delay: None,
            health_policy: HealthPolicy::default(),
        }
    }

    /// Overrides the chunk payload length.
    #[must_use]
    pub fn chunk_len(mut self, chunk_len: usize) -> Self {
        self.chunk_len = chunk_len;
        self
    }

    /// Overrides the deterministic placement seed.
    #[must_use]
    pub fn placement_seed(mut self, seed: u64) -> Self {
        self.placement_seed = seed;
        self
    }

    /// Enables deadline enforcement + health tracking on every disk.
    #[must_use]
    pub fn op_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = Some(deadline);
        self
    }

    /// Enables hedged single-loss rebuilds (effective only with
    /// [`StoreConfig::op_deadline`]).
    #[must_use]
    pub fn hedge_delay(mut self, delay: Duration) -> Self {
        self.hedge_delay = Some(delay);
        self
    }

    /// Overrides the health state machine thresholds.
    #[must_use]
    pub fn health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health_policy = policy;
        self
    }
}

/// Why a chunk needs repair, as found by a scrub pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Damage {
    /// The owning object.
    pub object: String,
    /// Stripe within the object.
    pub stripe: u64,
    /// Shard within the stripe.
    pub shard: usize,
    /// The pool disk holding (or that held) the damaged chunk, as resolved
    /// through the stripe's placement.
    pub disk: usize,
    /// What the scrub found.
    pub status: ChunkStatus,
}

/// Where the manifest says one chunk lives, as listed by
/// [`BlockStore::chunks_on_disks`] — a statement about placement, not about
/// the chunk's bytes (nothing was read to produce it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedChunk {
    /// The owning object.
    pub object: String,
    /// Stripe within the object.
    pub stripe: u64,
    /// Shard within the stripe.
    pub shard: usize,
    /// The pool disk the stripe's placement row puts the shard on.
    pub disk: usize,
}

/// Result of one scrub pass over the whole store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Every chunk that cannot serve reads, in manifest order.
    pub damages: Vec<Damage>,
    /// Disk indices whose backend reports the disk missing/unreachable.
    pub lost_disks: Vec<usize>,
    /// Chunks examined.
    pub chunks_examined: u64,
    /// Payload bytes read and checksummed.
    pub bytes_read: u64,
    /// Stale `*.tmp` files (crash leftovers older than
    /// [`STALE_TMP_MIN_AGE`]) deleted by this pass, as
    /// `disk-NN/<path within disk>` strings (plus `MANIFEST.tmp` for a
    /// stale manifest temp at the root). Reported so operators can tell
    /// crash debris from damage — these files never endanger data.
    pub stale_tmp_removed: Vec<String>,
    /// Deleted objects whose dead chunks this pass swept from every disk
    /// (their tombstones are now cleared from the manifest).
    pub tombstones_swept: Vec<String>,
}

impl ScrubReport {
    /// Whether every chunk of every object is healthy.
    pub fn is_clean(&self) -> bool {
        self.damages.is_empty()
    }
}

/// Outcome of repairing the damaged chunks of one stripe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StripeRepair {
    /// Shards rebuilt and written back.
    pub rebuilt: Vec<usize>,
    /// Shards that turned out to be healthy after all (skipped).
    pub already_healthy: Vec<usize>,
    /// The plans' price: the union of the helper byte ranges the final
    /// plans ([`ErasureCode::repair_reads_ranked`]) name, one per rebuilt
    /// shard — for a single loss, the paper's repair download. Zero
    /// padding the store never fetches is still priced; see
    /// [`StripeRepair::fetched_bytes`] for what was read.
    pub helper_bytes: u64,
    /// The part of `helper_bytes` sourced from the rebuilt chunk's own
    /// rack — nonzero when the placement groups shards and the
    /// locality-first scheduler found same-rack helpers.
    pub intra_rack_bytes: u64,
    /// The part of `helper_bytes` that crosses racks (the paper's scarce
    /// resource).
    pub cross_rack_bytes: u64,
    /// Helper payload bytes actually requested from backends: the price
    /// less the zero padding of a short last stripe, plus the ranges of
    /// plans that a failed helper made the rebuild give up. On networked
    /// disks this is what the helper sockets carry, framing aside.
    pub fetched_bytes: u64,
    /// Rebuilt payload bytes written.
    pub bytes_written: u64,
}

/// A file-backed erasure-coded block store. All methods take `&self`; the
/// store is `Sync` and is shared across the repair daemon's worker threads
/// via `Arc`.
pub struct BlockStore {
    root: PathBuf,
    spec: CodeSpec,
    code: DynCode,
    chunk_len: usize,
    /// The mounted backend pool — at least as many disks as the code has
    /// shards. Chunk I/O goes through these, never straight to the
    /// filesystem, so local and remote disks mix transparently; *which*
    /// disk holds a given `(object, stripe, shard)` chunk is decided by
    /// `map` and pinned in the manifest.
    disks: Vec<Arc<dyn ChunkBackend>>,
    /// Under [`StoreConfig::op_deadline`], `guards[i]` is the same
    /// [`GuardedDisk`] that `disks[i]` erases to `dyn ChunkBackend` —
    /// kept concretely so a hedged round can begin its reads under the
    /// hedge budget. All `None` when hardening is off.
    guards: Vec<Option<Arc<GuardedDisk>>>,
    /// Per-disk health state machine (only under `op_deadline`).
    health: Option<Arc<HealthTracker>>,
    /// Ring of disk-health transition events (only under `op_deadline`);
    /// the breaker-trip audit trail.
    health_journal: Option<Arc<EventJournal>>,
    hedge_delay: Option<Duration>,
    stale_tmp_min_age: Duration,
    /// The validated placement map: rack grouping + policy + seed.
    map: PlacementMap,
    manifest: RwLock<Manifest>,
    /// Names currently being written, to keep concurrent `put`s of the same
    /// name from interleaving.
    in_flight: Mutex<HashSet<String>>,
    metrics: StoreMetrics,
    latency: StoreLatency,
    /// Test-only failure injection (see
    /// [`BlockStore::inject_repair_panic`]).
    repair_panic: AtomicBool,
    /// Causal-tracing sink, installed once by the embedding process (the
    /// gateway) via [`BlockStore::set_tracer`]. Store spans are recorded
    /// only while a [`pbrs_obs::TraceCtx`] is in scope on the calling
    /// thread, so an untraced store pays one atomic load per op.
    tracer: OnceLock<Arc<Tracer>>,
}

/// Per-caller reusable buffers for stripe reads and repairs: one full
/// `n × chunk_len` stripe, its residency mask, and one solve output.
///
/// Each reader and each [`crate::RepairDaemon`] worker reuses one scratch
/// (instead of fresh `Vec`s per stripe), which keeps the degraded-read and
/// repair hot paths allocation-free in steady state. A scratch still holds
/// its previous stripe, so every read or repair starts by clearing
/// `present`: a stale flag would make a rebuild skip a helper read and use
/// the previous stripe's bytes.
pub(crate) struct StripeScratch {
    /// Chunk payloads land here, shard `i` in slot `i`.
    buf: ShardBuffer,
    /// Which slots of `buf` hold a whole verified payload (or the zeros of
    /// padding): a rebuild ranks these first and never reads them again.
    present: Vec<bool>,
    /// Output of one solve, before it is copied into its target's slot.
    rebuilt: Vec<u8>,
}

/// What a batch of chunk reads came to, filed read by read as each is
/// waited for: a batch is always collected in full before anyone acts on
/// a failure in it.
#[derive(Default)]
struct ReadOutcome {
    /// Shards whose read found the chunk missing or corrupt, in wait order.
    failed: Vec<usize>,
    /// The first hard I/O error, if any.
    hard: Option<StoreError>,
}

/// One stripe as the read, write and rebuild paths address it.
pub(crate) struct StripeRef<'a> {
    object: &'a str,
    stripe: u64,
    /// The stripe's placement: shard `i` lives on pool disk `row[i]`.
    row: &'a [usize],
    /// The data shards that start at or past the stripe's payload: the
    /// zero padding `Ingest` wrote into an object's short last stripe
    /// (empty for every other stripe). The store knows these bytes, so no
    /// read or rebuild fetches them and no write sends them. A partly
    /// filled chunk is not padding.
    padding: Range<usize>,
}

/// The span a stripe op runs in ([`BlockStore::in_span`]).
#[derive(Clone, Copy)]
enum StripeSpan {
    /// A child of the trace context in scope on the thread; no span
    /// without one.
    Child(&'static str),
    /// A root span: repair jobs run with no caller trace (the daemon mints
    /// none), so each job is its own trace. A context in scope (a traced
    /// admin op) is adopted as its parent instead.
    Root(&'static str),
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("root", &self.root)
            .field("spec", &self.spec)
            .field("chunk_len", &self.chunk_len)
            .finish_non_exhaustive()
    }
}

impl BlockStore {
    /// Opens (or creates) the store under `config.root` with the default
    /// all-local layout: one [`LocalDisk`] directory per shard of the code,
    /// created under the root.
    ///
    /// A fresh root gets a new manifest and one directory per shard of the
    /// code. An existing root's manifest must agree with the configured code
    /// spec and chunk length.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] for an unusable chunk length,
    /// [`StoreError::ConfigMismatch`] when reopening with different
    /// geometry, and I/O or manifest-parse failures.
    pub fn open(config: StoreConfig) -> Result<Self> {
        let code = registry::build(&config.spec)?;
        let n = code.params().total_shards();
        let disks: Vec<Arc<dyn ChunkBackend>> = (0..n)
            .map(|disk| {
                Arc::new(LocalDisk::new(config.root.join(format!("disk-{disk:02}"))))
                    as Arc<dyn ChunkBackend>
            })
            .collect();
        // Legacy layout: shard `i` on disk `i`, every disk its own rack (so
        // all helper traffic counts as cross-rack, like the paper's §2.1).
        let racks = RackMap::per_disk(n);
        let store = Self::open_inner(config, code, disks, racks, PlacementPolicy::Identity)?;
        // The all-local layout pre-creates its disk directories so a fresh
        // store scrubs clean (no "lost disks") before the first write.
        for disk in 0..store.disk_count() {
            let dir = store.disk_path(disk);
            fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        }
        chunk::fsync_dir(&store.root).map_err(|e| StoreError::io(&store.root, e))?;
        Ok(store)
    }

    /// Opens (or creates) the store over a caller-provided backend *pool* —
    /// any mix of [`LocalDisk`]s and remote disks (e.g. `pbrs-chunkd`
    /// clients), grouped into named racks by `racks` (one chunkd endpoint
    /// group = one rack) and at least as many disks as the code has shards.
    /// `policy` decides which pool disks each stripe's chunks land on; the
    /// chosen disk sets are pinned in the manifest, which always lives
    /// locally at `config.root`.
    ///
    /// # Errors
    ///
    /// Everything [`BlockStore::open`] returns, plus
    /// [`StoreError::InvalidConfig`] when the rack map does not cover the
    /// backend pool and [`StoreError::Placement`] when stripes of the
    /// code's width cannot be placed under `policy` (e.g. rack-disjoint
    /// with fewer racks than shards).
    pub fn open_with_backends(
        config: StoreConfig,
        disks: Vec<Arc<dyn ChunkBackend>>,
        racks: RackMap,
        policy: PlacementPolicy,
    ) -> Result<Self> {
        let code = registry::build(&config.spec)?;
        Self::open_inner(config, code, disks, racks, policy)
    }

    /// The shared open path: validates geometry against the (already
    /// built) code, loads or creates the manifest, and assembles the store.
    fn open_inner(
        config: StoreConfig,
        code: DynCode,
        disks: Vec<Arc<dyn ChunkBackend>>,
        racks: RackMap,
        policy: PlacementPolicy,
    ) -> Result<Self> {
        if config.chunk_len == 0 || !config.chunk_len.is_multiple_of(code.granularity()) {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "chunk_len {} must be a positive multiple of the code's granularity {}",
                    config.chunk_len,
                    code.granularity()
                ),
            });
        }
        let n = code.params().total_shards();
        if racks.disk_count() != disks.len() {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "rack map covers {} disks but {} backends are mounted",
                    racks.disk_count(),
                    disks.len()
                ),
            });
        }
        // Validates policy feasibility (width vs racks/pool) up front, so
        // every later placement lookup is infallible.
        let map = PlacementMap::new(racks, policy, n, config.placement_seed)?;
        fs::create_dir_all(&config.root).map_err(|e| StoreError::io(&config.root, e))?;
        let manifest = match Manifest::load(&config.root)? {
            Some(existing) => {
                pinned("code", existing.spec, config.spec)?;
                pinned("chunk_len", existing.chunk_len, config.chunk_len)?;
                pinned("pool", existing.pool, disks.len())?;
                pinned("policy", existing.policy, policy)?;
                pinned("placement_seed", existing.seed, config.placement_seed)?;
                existing
            }
            None => {
                let fresh = Manifest::new(
                    config.spec,
                    config.chunk_len,
                    disks.len(),
                    policy,
                    config.placement_seed,
                );
                fresh.save(&config.root)?;
                fresh
            }
        };
        // Failure-domain hardening: wrap every backend in a GuardedDisk so
        // chunk ops are deadline-bounded and every outcome feeds the health
        // tracker; transitions land in a dedicated journal.
        let mut disks = disks;
        let mut guards: Vec<Option<Arc<GuardedDisk>>> = vec![None; disks.len()];
        let (mut health, mut health_journal) = (None, None);
        if let Some(deadline) = config.op_deadline {
            let journal = Arc::new(EventJournal::new(crate::daemon::EVENT_JOURNAL_CAPACITY));
            let advisory = config.root.join(crate::health::ADVISORY_FILE);
            let policy = config.health_policy.clone();
            let tracker = Arc::new(HealthTracker::new(disks.len(), policy, Some(advisory)));
            let hook: Arc<dyn Fn(Transition) + Send + Sync> = {
                let journal = Arc::clone(&journal);
                Arc::new(move |t: Transition| {
                    let text = format!("disk {} {} -> {}", t.disk, t.from, t.to);
                    journal.push(EventKind::DiskHealth, text);
                })
            };
            for (i, (disk, slot)) in disks.iter_mut().zip(&mut guards).enumerate() {
                let (tracker, hook) = (Arc::clone(&tracker), Some(Arc::clone(&hook)));
                let guard = Arc::new(GuardedDisk::new(
                    Arc::clone(disk),
                    i,
                    deadline,
                    tracker,
                    hook,
                ));
                *disk = Arc::clone(&guard) as Arc<dyn ChunkBackend>;
                *slot = Some(guard);
            }
            health = Some(tracker);
            health_journal = Some(journal);
        }
        Ok(BlockStore {
            root: config.root,
            spec: config.spec,
            code,
            chunk_len: config.chunk_len,
            disks,
            guards,
            health,
            health_journal,
            hedge_delay: config.hedge_delay.filter(|_| config.op_deadline.is_some()),
            stale_tmp_min_age: config.stale_tmp_min_age,
            map,
            manifest: RwLock::new(manifest),
            in_flight: Mutex::new(HashSet::new()),
            metrics: StoreMetrics::default(),
            latency: StoreLatency::default(),
            repair_panic: AtomicBool::new(false),
            tracer: OnceLock::new(),
        })
    }

    /// The live codec.
    pub fn code(&self) -> &(dyn ErasureCode + Send + Sync) {
        self.code.as_ref()
    }

    /// Payload bytes per chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Number of mounted backends (the disk pool). Equal to the shard count
    /// for identity-placed stores; larger pools spread stripes under the
    /// configured [`PlacementPolicy`].
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Shards per stripe (`k + r` of the configured code).
    pub fn shards_per_stripe(&self) -> usize {
        self.code.params().total_shards()
    }

    /// The rack grouping of the backend pool.
    pub fn racks(&self) -> &RackMap {
        self.map.racks()
    }

    /// The placement policy stripes are placed under.
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.map.policy()
    }

    /// The pool disks holding each shard of one stripe: entry `i` is the
    /// disk index of shard `i`. Resolved from the manifest's persisted
    /// placement (identity `[0, 1, …]` for identity-placed stores).
    pub fn stripe_disks(&self, object: &str, stripe: u64) -> Vec<usize> {
        Self::resolve_row(&self.read_manifest(), &self.map, object, stripe)
    }

    /// The manifest-first row lookup shared by every chunk-touching path:
    /// persisted placement rows are the authority; objects without rows
    /// (identity stores) use the fixed layout; and a placed object's
    /// missing row (only possible for out-of-range stripes) falls back to
    /// the deterministic derivation.
    fn resolve_row(
        manifest: &Manifest,
        map: &PlacementMap,
        object: &str,
        stripe: u64,
    ) -> Vec<usize> {
        if let Some(row) = manifest
            .placements
            .get(object)
            .and_then(|rows| rows.get(usize::try_from(stripe).ok()?))
        {
            return row.clone();
        }
        map.disks_for_object_stripe(object, stripe)
    }

    /// Logical data bytes per stripe (`k × chunk_len`).
    pub fn stripe_data_len(&self) -> usize {
        self.code.params().data_shards() * self.chunk_len
    }

    /// Payload bytes carried by stripe `stripe` of an object described by
    /// `info` (the last stripe may be short).
    pub(crate) fn stripe_payload_len(&self, info: &ObjectInfo, stripe: u64) -> usize {
        let full = self.stripe_data_len() as u64;
        info.len.saturating_sub(stripe * full).min(full) as usize
    }

    /// Addresses stripe `stripe` of `object` (described by `info`) placed
    /// on `row`, with the zero padding its payload leaves.
    pub(crate) fn stripe_ref<'a>(
        &self,
        object: &'a str,
        info: &ObjectInfo,
        stripe: u64,
        row: &'a [usize],
    ) -> StripeRef<'a> {
        StripeRef {
            object,
            stripe,
            row,
            padding: self.padding(self.stripe_payload_len(info, stripe)),
        }
    }

    /// The data shards of a stripe carrying `payload` bytes that hold no
    /// byte of it: the zero padding of a short stripe (empty for a full
    /// one). A partly filled chunk is not padding.
    pub(crate) fn padding(&self, payload: usize) -> Range<usize> {
        let k = self.code.params().data_shards();
        payload.div_ceil(self.chunk_len).min(k)..k
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of disk `disk` in the default all-local layout (shard
    /// `disk` of every stripe lives here). Stores mounted with
    /// [`BlockStore::open_with_backends`] may keep that shard elsewhere —
    /// see [`BlockStore::backend`] for the authoritative location.
    pub fn disk_path(&self, disk: usize) -> PathBuf {
        self.root.join(format!("disk-{disk:02}"))
    }

    /// Path of one chunk file in the default all-local layout.
    pub fn chunk_path(&self, object: &str, stripe: u64, shard: usize) -> PathBuf {
        self.disk_path(shard)
            .join(object)
            .join(format!("{stripe:08}-{shard:02}.chunk"))
    }

    /// The backend serving shard `disk` of every stripe.
    pub fn backend(&self, disk: usize) -> &Arc<dyn ChunkBackend> {
        &self.disks[disk]
    }

    /// Sum of every backend's transport counters. For stores mounting
    /// remote disks this is the bytes that actually crossed sockets —
    /// degraded reads and repairs of networked chunks show up here; an
    /// all-local store reports zeros.
    pub fn socket_counters(&self) -> BackendCounters {
        self.counters_of(0..self.disks.len())
    }

    /// Per-rack sums of the backends' transport counters, in rack order —
    /// [`BlockStore::socket_counters`] split by the rack map, so the bytes
    /// entering and leaving each "rack" of chunk servers are visible
    /// separately (the paper's per-TOR-switch view).
    pub fn rack_counters(&self) -> Vec<(String, BackendCounters)> {
        let racks = self.map.racks();
        (0..racks.racks())
            .map(|rack| {
                let disks = racks.rack_disks(rack).iter().copied();
                (racks.rack_name(rack).to_string(), self.counters_of(disks))
            })
            .collect()
    }

    /// The sum of the transport counters of `disks`.
    fn counters_of(&self, disks: impl IntoIterator<Item = usize>) -> BackendCounters {
        let counters = disks.into_iter().map(|disk| self.disks[disk].counters());
        counters.fold(BackendCounters::default(), BackendCounters::combined)
    }

    /// Metadata of one object, if present.
    pub fn object(&self, name: &str) -> Option<ObjectInfo> {
        self.read_manifest().objects.get(name).copied()
    }

    /// Metadata of object `name`, with the typed miss distinction
    /// [`BlockStore::object`] cannot make: a tombstoned name yields
    /// [`StoreError::ObjectDeleted`] ("it existed, you deleted it"), an
    /// unknown one [`StoreError::ObjectNotFound`]. Callers surfacing
    /// results to clients — the gateway — map the two to different
    /// statuses; neither is an I/O failure.
    pub fn lookup(&self, name: &str) -> Result<ObjectInfo> {
        let manifest = self.read_manifest();
        let info = manifest.objects.get(name).copied();
        info.ok_or_else(|| Self::missing(&manifest, name))
    }

    /// Why `manifest` has no entry for `name`: [`StoreError::ObjectDeleted`]
    /// under a tombstone, [`StoreError::ObjectNotFound`] otherwise.
    fn missing(manifest: &Manifest, name: &str) -> StoreError {
        let name = name.to_string();
        if manifest.tombstones.contains(&name) {
            StoreError::ObjectDeleted { name }
        } else {
            StoreError::ObjectNotFound { name }
        }
    }

    /// The manifest, locked for reading.
    fn read_manifest(&self) -> RwLockReadGuard<'_, Manifest> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.manifest.read().expect("lock")
    }

    /// The manifest, locked for writing.
    fn write_manifest(&self) -> RwLockWriteGuard<'_, Manifest> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.manifest.write().expect("lock")
    }

    /// Names and metadata of every object, in name order.
    pub fn objects(&self) -> Vec<(String, ObjectInfo)> {
        self.read_manifest()
            .objects
            .iter()
            .map(|(name, info)| (name.clone(), *info))
            .collect()
    }

    /// A labelled copy of the store's traffic counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(&self.code.name(), self.health.as_deref())
    }

    /// A point-in-time copy of the store's latency histograms: healthy and
    /// degraded stripe reads, degraded reconstructs, and repair jobs.
    pub fn latency(&self) -> StoreLatencySnapshot {
        self.latency.snapshot()
    }

    /// The per-disk health tracker, when the store was opened with
    /// [`StoreConfig::op_deadline`]; `None` on an unhardened store.
    pub fn health(&self) -> Option<&Arc<HealthTracker>> {
        self.health.as_ref()
    }

    /// Point-in-time health state + counters of every disk (empty on an
    /// unhardened store).
    pub fn health_snapshot(&self) -> Vec<DiskHealthSnapshot> {
        self.health.as_ref().map_or_else(Vec::new, |h| h.snapshot())
    }

    /// One disk's health state (`None` on an unhardened store).
    pub fn disk_state(&self, disk: usize) -> Option<DiskState> {
        self.health.as_ref().map(|h| h.disk(disk).state())
    }

    /// Recent disk-health transition events, oldest first (empty on an
    /// unhardened store) — Healthy→Suspect breaker trips and recoveries.
    pub fn health_events(&self) -> Vec<Event> {
        self.health_journal
            .as_ref()
            .map_or_else(Vec::new, |j| j.recent())
    }

    /// Events dropped by the disk-health journal because its ring was
    /// full (0 on an unhardened store).
    pub fn journal_dropped(&self) -> u64 {
        self.health_journal.as_ref().map_or(0, |j| j.dropped())
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Installs the tracer store spans are recorded into. One-shot: the
    /// first caller wins (the store is shared via `Arc`; the gateway
    /// installs its tracer right after open). Without a tracer, or
    /// without a trace context in scope, the store records nothing.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The installed tracer, when present and enabled.
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get().filter(|t| t.is_enabled())
    }

    /// Starts a child span of the trace context in scope on this thread,
    /// or `None` when tracing is off or no context is in scope.
    fn trace_span(&self, name: &str) -> Option<(SpanBuilder, &Arc<Tracer>)> {
        let tracer = self.tracer()?;
        let ctx = trace::current_ctx()?;
        Some((tracer.span(name, ctx), tracer))
    }

    /// The one span shell of a stripe op. With tracing on, `op` runs with
    /// the span as its thread's trace scope, so the `chunk_io` and
    /// `rebuild` spans it opens parent on it. Then the span is tagged with
    /// the stripe, with `degraded` when `degraded` says so of the result
    /// or with the `fault` that failed it, and finished.
    fn in_span<T>(
        &self,
        kind: StripeSpan,
        object: &str,
        stripe: u64,
        op: impl FnOnce() -> Result<T>,
        degraded: impl FnOnce(&T) -> bool,
    ) -> Result<T> {
        let span = match kind {
            StripeSpan::Child(name) => self.trace_span(name),
            StripeSpan::Root(name) => self
                .tracer()
                .map(|t| (t.root_span(name, trace::current_ctx()), t)),
        };
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = op();
        drop(scope);
        if let Some((mut s, tracer)) = span {
            s.tag("object", object);
            s.tag("stripe", stripe.to_string());
            match &result {
                Ok(value) if degraded(value) => s.tag("degraded", "true"),
                Ok(_) => {}
                Err(e) => s.tag("fault", e.to_string()),
            }
            if let StripeSpan::Root(_) = kind {
                let flags = RootFlags {
                    error: result.is_err(),
                    ..RootFlags::default()
                };
                s.finish_root(tracer, flags);
            } else {
                s.finish(tracer);
            }
        }
        result
    }

    /// Drains spans recorded on the far side of every mounted backend
    /// (see [`ChunkBackend::drain_spans`]) so the embedding process can
    /// merge chunkd-side spans into its retained trace trees.
    pub fn drain_remote_spans(&self) -> Vec<SpanRecord> {
        self.disks.iter().flat_map(|d| d.drain_spans()).collect()
    }

    // ------------------------------------------------------------------
    // Steps every path shares
    // ------------------------------------------------------------------

    /// A fresh scratch sized for this store's stripes.
    pub(crate) fn new_scratch(&self) -> StripeScratch {
        let n = self.code.params().total_shards();
        StripeScratch {
            buf: ShardBuffer::zeroed(n, self.chunk_len),
            present: vec![false; n],
            rebuilt: vec![0u8; self.chunk_len],
        }
    }

    /// Closes one chunk read of a batch: finishes its span, if it has one
    /// (tagging a failure with `fail_tag`), counts the damage, and files
    /// the result in `outcome`. Returns whether the read delivered its
    /// bytes.
    fn settle_read(
        &self,
        shard: usize,
        io_span: Option<(SpanBuilder, &Arc<Tracer>)>,
        result: ChunkRead<()>,
        fail_tag: &str,
        outcome: &mut ReadOutcome,
    ) -> bool {
        if let Some((mut s, tracer)) = io_span {
            match &result {
                Ok(Ok(())) => {}
                Ok(Err(status)) => s.tag(fail_tag, format!("{status:?}")),
                Err(e) => s.tag("fault", e.to_string()),
            }
            s.finish(tracer);
        }
        match result {
            Ok(Ok(())) => return true,
            Ok(Err(status)) => {
                self.note_damage(&status);
                outcome.failed.push(shard);
            }
            Err(e) => {
                outcome.hard.get_or_insert(e);
            }
        }
        false
    }

    /// Counts a chunk found corrupt, by any path.
    fn note_damage(&self, status: &ChunkStatus) {
        if matches!(status, ChunkStatus::Corrupt { .. }) {
            StoreMetrics::add(&self.metrics.corrupt_chunks_detected, 1);
        }
    }
}

/// Checks one field of the geometry a manifest pins against the value
/// the store is opened with.
fn pinned<T: PartialEq + std::fmt::Display>(
    field: &'static str,
    on_disk: T,
    configured: T,
) -> Result<()> {
    if on_disk == configured {
        return Ok(());
    }
    Err(StoreError::ConfigMismatch {
        field,
        on_disk: on_disk.to_string(),
        configured: configured.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;
    use pbrs_erasure::total_read_bytes;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    fn small_store(dir: &TempDir, spec: &str) -> BlockStore {
        let spec: CodeSpec = spec.parse().unwrap();
        BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(512)).unwrap()
    }

    #[test]
    fn put_get_round_trip_all_sizes() {
        let dir = TempDir::new("store-roundtrip");
        let store = small_store(&dir, "rs-4-2");
        // Partial stripe, exact stripe, multi-stripe, empty.
        for (name, len) in [
            ("tiny", 10usize),
            ("exact", 4 * 512),
            ("multi", 3 * 4 * 512 + 77),
            ("empty", 0),
        ] {
            let data = pattern(len);
            let info = store.put(name, &data[..]).unwrap();
            assert_eq!(info.len, len as u64, "{name}");
            assert_eq!(store.get(name).unwrap(), data, "{name}");
        }
        assert_eq!(store.objects().len(), 4);
        let snap = store.metrics();
        assert_eq!(snap.degraded_stripe_reads, 0);
        assert_eq!(snap.bytes_served, snap.bytes_ingested);
    }

    #[test]
    fn degraded_get_heals_every_stripe() {
        // Many stripes, all degraded.
        let dir = TempDir::new("store-degraded-get");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 9 + 45); // 10 stripes
        store.put("obj", &data[..]).unwrap();
        fs::remove_dir_all(store.disk_path(2)).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
        let snap = store.metrics();
        assert_eq!(snap.degraded_stripe_reads, 10);
        assert!(snap.degraded_helper_bytes > 0);
    }

    #[test]
    fn get_surfaces_unrecoverable_stripes() {
        let dir = TempDir::new("store-get-unrecoverable");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(4 * 512 * 6);
        store.put("obj", &data[..]).unwrap();
        for disk in [0, 1, 2] {
            fs::remove_dir_all(store.disk_path(disk)).unwrap();
        }
        assert!(matches!(
            store.get("obj"),
            Err(StoreError::StripeUnrecoverable { survivors: 3, .. })
        ));
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let dir = TempDir::new("store-names");
        let store = small_store(&dir, "rs-4-2");
        store.put("a", &b"hello"[..]).unwrap();
        assert!(matches!(
            store.put("a", &b"again"[..]),
            Err(StoreError::ObjectExists { .. })
        ));
        assert!(matches!(
            store.put("../evil", &b"x"[..]),
            Err(StoreError::InvalidObjectName { .. })
        ));
        assert!(matches!(
            store.get("missing"),
            Err(StoreError::ObjectNotFound { .. })
        ));
    }

    #[test]
    fn reopen_checks_geometry() {
        let dir = TempDir::new("store-reopen");
        let root = dir.path().join("store");
        let spec: CodeSpec = "rs-4-2".parse().unwrap();
        {
            let store = BlockStore::open(StoreConfig::new(&root, spec).chunk_len(512)).unwrap();
            store.put("a", &pattern(100)[..]).unwrap();
        }
        // Same geometry reopens and still serves.
        let store = BlockStore::open(StoreConfig::new(&root, spec).chunk_len(512)).unwrap();
        assert_eq!(store.get("a").unwrap(), pattern(100));
        // Different geometry is rejected.
        assert!(matches!(
            BlockStore::open(StoreConfig::new(&root, spec).chunk_len(1024)),
            Err(StoreError::ConfigMismatch { .. })
        ));
        let other: CodeSpec = "rs-6-3".parse().unwrap();
        assert!(matches!(
            BlockStore::open(StoreConfig::new(&root, other).chunk_len(512)),
            Err(StoreError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn degraded_read_after_losing_a_disk() {
        let dir = TempDir::new("store-degraded");
        // (6, 3): piggyback groups of 3, so a data repair reads
        // (6 + 3) / 2 = 4.5 chunk-equivalents instead of 6.
        let store = small_store(&dir, "piggyback-6-3");
        let data = pattern(6 * 512 * 2 + 123);
        store.put("obj", &data[..]).unwrap();
        fs::remove_dir_all(store.disk_path(1)).unwrap();
        assert_eq!(store.get("obj").unwrap(), data, "degraded read");
        let snap = store.metrics();
        assert_eq!(snap.degraded_stripe_reads, 3);
        assert!(snap.degraded_helper_bytes > 0);
        // Piggyback single-loss reads fewer helper bytes than k whole chunks.
        let mut available = vec![true; 9];
        available[1] = false;
        let per_stripe = total_read_bytes(&store.code().repair_reads(1, &available, 512).unwrap());
        assert_eq!(snap.degraded_helper_bytes, 3 * per_stripe);
        assert!(per_stripe < 6 * 512);
    }

    #[test]
    fn two_losses_still_serve_and_repair() {
        let dir = TempDir::new("store-two-losses");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(4 * 512 + 64);
        store.put("obj", &data[..]).unwrap();
        fs::remove_dir_all(store.disk_path(0)).unwrap();
        fs::remove_dir_all(store.disk_path(3)).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
        // Repair both stripes, then the scrub is clean again.
        let scrub = store.scrub().unwrap();
        assert_eq!(scrub.lost_disks, vec![0, 3]);
        for stripe in 0..2 {
            let damaged: Vec<usize> = scrub
                .damages
                .iter()
                .filter(|d| d.stripe == stripe)
                .map(|d| d.shard)
                .collect();
            let repair = store.repair_stripe("obj", stripe, &damaged).unwrap();
            assert_eq!(repair.rebuilt, vec![0, 3]);
        }
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn three_losses_are_unrecoverable_for_rs_4_2() {
        let dir = TempDir::new("store-unrecoverable");
        let store = small_store(&dir, "rs-4-2");
        // A full stripe: every lost chunk holds data. (The zero padding of
        // a short stripe would count as a survivor.)
        store.put("obj", &pattern(4 * 512)[..]).unwrap();
        for disk in [0, 1, 2] {
            fs::remove_dir_all(store.disk_path(disk)).unwrap();
        }
        assert!(matches!(
            store.get("obj"),
            Err(StoreError::StripeUnrecoverable { survivors: 3, .. })
        ));
    }

    #[test]
    fn corrupt_chunk_is_served_and_repaired_like_missing() {
        let dir = TempDir::new("store-corrupt");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(4 * 512);
        store.put("obj", &data[..]).unwrap();
        // Flip one payload byte of shard 2, stripe 0.
        let path = store.chunk_path("obj", 0, 2);
        let mut bytes = fs::read(&path).unwrap();
        let at = chunk::HEADER_LEN + 99;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(
            store.get("obj").unwrap(),
            data,
            "degraded read over corrupt"
        );
        assert!(store.metrics().corrupt_chunks_detected >= 1);
        let repair = store.repair_stripe("obj", 0, &[2]).unwrap();
        assert_eq!(repair.rebuilt, vec![2]);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn repair_stripe_dedups_the_damaged_list() {
        let dir = TempDir::new("store-dedup");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(4 * 512);
        store.put("obj", &data[..]).unwrap();
        fs::remove_file(store.chunk_path("obj", 0, 2)).unwrap();
        // A duplicated index must not make a second target or
        // double-count the metrics.
        let repair = store.repair_stripe("obj", 0, &[2, 2, 2]).unwrap();
        assert_eq!(repair.rebuilt, vec![2]);
        assert_eq!(repair.helper_bytes, 4 * 512, "k whole chunks for RS");
        assert_eq!(store.metrics().chunks_repaired, 1);
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn corrupt_helper_cannot_poison_a_rebuild() {
        let dir = TempDir::new("store-poison");
        let store = small_store(&dir, "piggyback-6-3");
        let data = pattern(6 * 512);
        store.put("obj", &data[..]).unwrap();
        // Lose chunk 0 and bit-rot the b-half of one of its repair helpers:
        // the planned rebuild reads exactly that half, must detect the bad
        // checksum, and must re-plan around the helper instead of writing
        // a poisoned chunk under a fresh valid CRC.
        fs::remove_file(store.chunk_path("obj", 0, 0)).unwrap();
        let helper = store.chunk_path("obj", 0, 3);
        let mut bytes = fs::read(&helper).unwrap();
        let at = chunk::HEADER_LEN + 512 / 2 + 7;
        bytes[at] ^= 0x80;
        fs::write(&helper, &bytes).unwrap();

        let repair = store.repair_stripe("obj", 0, &[0]).unwrap();
        // Both the lost chunk and the rotten helper end up rebuilt.
        assert_eq!(repair.rebuilt, vec![0, 3]);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), data, "no poisoned bytes served");
    }

    #[test]
    fn one_scratch_serves_a_multi_loss_then_a_single_loss_repair() {
        let dir = TempDir::new("store-scratch");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(2 * 4 * 512);
        store.put("obj", &data[..]).unwrap();
        let mut scratch = store.new_scratch();
        // The multi-loss repair leaves stripe 0's survivors in the scratch,
        // flagged present...
        for shard in [1, 2] {
            fs::remove_file(store.chunk_path("obj", 0, shard)).unwrap();
        }
        let repair = store
            .repair_stripe_with("obj", 0, &[1, 2], &mut scratch)
            .unwrap();
        assert_eq!(repair.rebuilt, vec![1, 2]);
        // ...and the planned rebuild of stripe 1 must read its own helpers,
        // not reuse stripe 0's.
        fs::remove_file(store.chunk_path("obj", 1, 1)).unwrap();
        let repair = store
            .repair_stripe_with("obj", 1, &[1], &mut scratch)
            .unwrap();
        assert_eq!(repair.rebuilt, vec![1]);
        assert_eq!(repair.fetched_bytes, 4 * 512, "k whole chunks read");
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn too_few_survivors_are_reported_in_chunks() {
        // Piggybacked-RS decodes two symbols per chunk; the store still
        // counts chunks: 9 survive of the 10 needed.
        let dir = TempDir::new("store-unrecoverable");
        let store = small_store(&dir, "piggyback-10-4");
        store.put("obj", &pattern(10 * 512)[..]).unwrap();
        let lost = [0, 4, 9, 11, 13];
        for shard in lost {
            fs::remove_file(store.chunk_path("obj", 0, shard)).unwrap();
        }
        for result in [
            store.get("obj").map(|_| ()),
            store.repair_stripe("obj", 0, &lost).map(|_| ()),
        ] {
            assert!(
                matches!(
                    result,
                    Err(StoreError::StripeUnrecoverable {
                        survivors: 9,
                        needed: 10,
                        ..
                    })
                ),
                "{result:?}"
            );
        }
    }

    #[test]
    fn repair_stripe_skips_healthy_shards() {
        let dir = TempDir::new("store-skip");
        let store = small_store(&dir, "rs-4-2");
        store.put("obj", &pattern(300)[..]).unwrap();
        let repair = store.repair_stripe("obj", 0, &[1, 4]).unwrap();
        assert!(repair.rebuilt.is_empty());
        assert_eq!(repair.already_healthy, vec![1, 4]);
        assert_eq!(repair.helper_bytes, 0);
    }

    #[test]
    fn open_rejects_bad_chunk_len() {
        let dir = TempDir::new("store-badlen");
        let spec: CodeSpec = "piggyback-4-2".parse().unwrap();
        assert!(matches!(
            BlockStore::open(StoreConfig::new(dir.path().join("s"), spec).chunk_len(0)),
            Err(StoreError::InvalidConfig { .. })
        ));
        // Piggyback needs even chunk lengths.
        assert!(matches!(
            BlockStore::open(StoreConfig::new(dir.path().join("s"), spec).chunk_len(511)),
            Err(StoreError::InvalidConfig { .. })
        ));
    }
}
