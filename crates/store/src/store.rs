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
//! # Write path
//!
//! `put` streams an object into stripes of `k × chunk_len` bytes, encodes
//! each stripe with the zero-copy [`ErasureCode::encode_into`] into a single
//! contiguous [`ShardBuffer`], and writes all `k + r` chunks as checksummed
//! files (see [`crate::chunk`]). One thread drives an object, one stripe at
//! a time; the concurrency is inside the stripe, across its disks: all
//! `k + r` writes are begun ([`ChunkBackend::begin_write`]) before any is
//! waited for, so a stripe on networked disks costs its slowest write, not
//! their sum. The manifest is committed only after every chunk of the object
//! is durable, so a crashed `put` leaves orphan chunks, never a
//! readable-but-wrong object. `put` and the streaming
//! [`crate::ObjectWriter`] are the same sequence ([`crate::stream`]).
//!
//! # Read path and degraded reads
//!
//! `get` reads the `k` data chunks of each stripe — begun together, then
//! collected together ([`ChunkBackend::begin_read`]) — and verifies their
//! checksums. When a chunk is missing or corrupt the stripe is served
//! *degraded*: with a single loss the store executes the code's cheapest
//! repair — reading exactly the helper byte ranges named by
//! [`ErasureCode::repair_reads`], which for Piggybacked-RS means
//! half-chunks — and with multiple losses it falls back to a full
//! [`ErasureCode::reconstruct_in_place`] over every surviving chunk. The
//! helper bytes crossing disks are counted in [`StoreMetrics`], which is how
//! the paper's ~30 % repair-traffic saving becomes measurable on real file
//! I/O. `get` is [`crate::ObjectReader`] driven over every stripe: stripes
//! decode one after another straight into the output buffer with one
//! reusable stripe-sized scratch — no per-stripe allocation on the hot path.
//!
//! # Repair path
//!
//! [`BlockStore::repair_stripe`] rebuilds damaged chunks in place (atomic
//! rename, like every chunk write) along the same cheapest path; the
//! [`crate::daemon::RepairDaemon`] drives it from a scrub/enqueue loop
//! across a worker pool.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use pbrs_core::registry::{self, DynCode};
use pbrs_erasure::{CodeError, CodeSpec, ErasureCode, ShardBuffer, ShardRead};
use pbrs_placement::{PlacementMap, PlacementPolicy, RackMap};

use crate::backend::{BackendCounters, ChunkBackend, LocalDisk};
use crate::chunk::{self, ChunkId, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};
use crate::guard::GuardedDisk;
use crate::health::{DiskHealthSnapshot, DiskState, HealthPolicy, HealthTracker, Transition};
use crate::manifest::{manifest_path, validate_object_name, Manifest, ObjectInfo};
use crate::metrics::{MetricsSnapshot, StoreLatency, StoreLatencySnapshot, StoreMetrics};
use pbrs_obs::trace::{self, RootFlags, ScopedCtx, SpanBuilder, SpanRecord, Tracer};
use pbrs_obs::{Event, EventJournal, EventKind, Stage, StageTimes};

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
    /// When set (requires [`StoreConfig::op_deadline`]), single-failure
    /// planned rebuilds give their first-choice helper set only this long
    /// per helper read before abandoning it and hedging to the
    /// next-ranked survivor set. Seed it from the healthy-read p99 (see
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

    /// Overrides the stale-tmp sweep age.
    #[must_use]
    pub fn stale_tmp_min_age(mut self, min_age: Duration) -> Self {
        self.stale_tmp_min_age = min_age;
        self
    }

    /// Enables deadline enforcement + health tracking on every disk.
    #[must_use]
    pub fn op_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = Some(deadline);
        self
    }

    /// Enables hedged planned rebuilds (effective only with
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

/// File name of the incremental-scrub cursor within the store root.
pub const SCRUB_CURSOR_FILE: &str = "SCRUB.cursor";

/// Result of one incremental scrub pass ([`BlockStore::scrub_partial`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialScrubReport {
    /// Damaged chunks found in the scanned window, in manifest order.
    pub damages: Vec<Damage>,
    /// Stripes examined by this pass.
    pub stripes_scanned: u64,
    /// Chunks examined.
    pub chunks_examined: u64,
    /// Payload bytes read and checksummed.
    pub bytes_read: u64,
    /// Whether this pass reached the end of the object table and reset the
    /// cursor to the start (a full sweep of the store has completed since
    /// the last wrap).
    pub wrapped: bool,
}

/// The persisted position of the incremental scrub: the next stripe to
/// verify, as `(object, stripe)` in object-name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ScrubCursor {
    object: Option<String>,
    stripe: u64,
}

/// Outcome of repairing the damaged chunks of one stripe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StripeRepair {
    /// Shards rebuilt and written back.
    pub rebuilt: Vec<usize>,
    /// Shards that turned out to be healthy after all (skipped).
    pub already_healthy: Vec<usize>,
    /// Helper bytes read from surviving disks.
    pub helper_bytes: u64,
    /// Helper bytes sourced from the rebuilt chunk's own rack — nonzero
    /// when the placement groups shards and the locality-first scheduler
    /// found same-rack helpers.
    pub intra_rack_bytes: u64,
    /// Helper bytes that crossed racks (the paper's scarce resource).
    pub cross_rack_bytes: u64,
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
    /// kept concretely so the hedged read path can pass per-attempt
    /// deadlines. All `None` when hardening is off.
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
    fail: FailPoints,
    /// Causal-tracing sink, installed once by the embedding process (the
    /// gateway) via [`BlockStore::set_tracer`]. Store spans are recorded
    /// only while a [`pbrs_obs::TraceCtx`] is in scope on the calling
    /// thread, so an untraced store pays one atomic load per op.
    tracer: OnceLock<Arc<Tracer>>,
}

/// Test-only failure injection flags (see
/// [`BlockStore::inject_repair_panic`]).
#[derive(Debug, Default)]
struct FailPoints {
    repair_panic: AtomicBool,
}

/// Per-caller reusable buffers for stripe reads and repairs: one full
/// `n × chunk_len` stripe, its validity mask, and one rebuilt-chunk slot.
///
/// Reusing one scratch per reader or repair worker (instead of fresh `Vec`s
/// per stripe) keeps the degraded-read and repair hot paths allocation-free
/// in steady state — with the SIMD GF kernels the encode itself is fast
/// enough that per-stripe allocation churn would otherwise show up in
/// profiles.
pub(crate) struct StripeScratch {
    /// Chunk payloads land here, shard `i` in slot `i`.
    buf: ShardBuffer,
    /// Which slots of `buf` currently hold verified payloads.
    present: Vec<bool>,
    /// Output chunk of a single-failure planned rebuild.
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

/// Helper-byte accounting of one rebuild, split by rack locality relative
/// to the disk being rebuilt (`total == intra_rack + cross_rack`).
#[derive(Debug, Default, Clone, Copy)]
struct HelperTraffic {
    total: u64,
    intra_rack: u64,
    cross_rack: u64,
}

impl HelperTraffic {
    fn add(&mut self, bytes: u64, intra: bool) {
        self.total += bytes;
        if intra {
            self.intra_rack += bytes;
        } else {
            self.cross_rack += bytes;
        }
    }
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
                if existing.spec != config.spec {
                    return Err(StoreError::ConfigMismatch {
                        field: "code",
                        on_disk: existing.spec.to_string(),
                        configured: config.spec.to_string(),
                    });
                }
                if existing.chunk_len != config.chunk_len {
                    return Err(StoreError::ConfigMismatch {
                        field: "chunk_len",
                        on_disk: existing.chunk_len.to_string(),
                        configured: config.chunk_len.to_string(),
                    });
                }
                if existing.pool != disks.len() {
                    return Err(StoreError::ConfigMismatch {
                        field: "pool",
                        on_disk: existing.pool.to_string(),
                        configured: disks.len().to_string(),
                    });
                }
                if existing.policy != policy {
                    return Err(StoreError::ConfigMismatch {
                        field: "policy",
                        on_disk: existing.policy.to_string(),
                        configured: policy.to_string(),
                    });
                }
                if existing.seed != config.placement_seed {
                    return Err(StoreError::ConfigMismatch {
                        field: "placement_seed",
                        on_disk: existing.seed.to_string(),
                        configured: config.placement_seed.to_string(),
                    });
                }
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
        let mut health = None;
        let mut health_journal = None;
        if let Some(deadline) = config.op_deadline {
            let journal = Arc::new(EventJournal::new(crate::daemon::EVENT_JOURNAL_CAPACITY));
            let tracker = Arc::new(HealthTracker::new(
                disks.len(),
                config.health_policy.clone(),
                Some(config.root.join(crate::health::ADVISORY_FILE)),
            ));
            let hook: Arc<dyn Fn(Transition) + Send + Sync> = {
                let journal = Arc::clone(&journal);
                Arc::new(move |t: Transition| {
                    journal.push(
                        EventKind::DiskHealth,
                        format!("disk {} {} -> {}", t.disk, t.from, t.to),
                    );
                })
            };
            disks = disks
                .into_iter()
                .enumerate()
                .map(|(i, inner)| {
                    let guard = Arc::new(GuardedDisk::new(
                        inner,
                        i,
                        deadline,
                        Arc::clone(&tracker),
                        Some(Arc::clone(&hook)),
                    ));
                    guards[i] = Some(Arc::clone(&guard));
                    guard as Arc<dyn ChunkBackend>
                })
                .collect();
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
            fail: FailPoints::default(),
            tracer: OnceLock::new(),
        })
    }

    /// The spec of the code protecting this store.
    pub fn spec(&self) -> CodeSpec {
        self.spec
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
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let manifest = self.manifest.read().expect("lock");
        Self::resolve_row(&manifest, &self.map, object, stripe)
    }

    /// The manifest-first row lookup shared by every chunk-touching path:
    /// persisted placement rows are the authority; objects without rows
    /// (identity stores, legacy manifests) use the fixed layout; and a
    /// placed object's missing row (only possible for out-of-range stripes)
    /// falls back to the deterministic derivation.
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

    /// Every stripe row of one object (placement per stripe), resolved once
    /// so multi-stripe reads do not take the manifest lock per stripe.
    pub(crate) fn object_rows(&self, object: &str, stripes: u64) -> Vec<Vec<usize>> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let manifest = self.manifest.read().expect("lock");
        (0..stripes)
            .map(|s| Self::resolve_row(&manifest, &self.map, object, s))
            .collect()
    }

    /// Every chunk the manifest places on one of `disks`, in manifest
    /// (object, stripe, shard) order — what a store loses when those disks
    /// do. Resolved from manifest and placement rows alone: no chunk is
    /// opened, no backend is asked, so the answer costs microseconds where
    /// a [`BlockStore::scrub`] re-reads every disk to reach the same list.
    pub fn chunks_on_disks(&self, disks: &[usize]) -> Vec<PlacedChunk> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let manifest = self.manifest.read().expect("lock");
        let mut placed = Vec::new();
        for (object, info) in &manifest.objects {
            for stripe in 0..info.stripes {
                let row = Self::resolve_row(&manifest, &self.map, object, stripe);
                for (shard, disk) in row.into_iter().enumerate() {
                    if disks.contains(&disk) {
                        placed.push(PlacedChunk {
                            object: object.clone(),
                            stripe,
                            shard,
                            disk,
                        });
                    }
                }
            }
        }
        placed
    }

    /// Logical data bytes per stripe (`k × chunk_len`).
    pub fn stripe_data_len(&self) -> usize {
        self.code.params().data_shards() * self.chunk_len
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
        self.disks
            .iter()
            .fold(BackendCounters::default(), |acc, disk| {
                acc.combined(disk.counters())
            })
    }

    /// Per-rack sums of the backends' transport counters, in rack order —
    /// [`BlockStore::socket_counters`] split by the rack map, so the bytes
    /// entering and leaving each "rack" of chunk servers are visible
    /// separately (the paper's per-TOR-switch view).
    pub fn rack_counters(&self) -> Vec<(String, BackendCounters)> {
        let racks = self.map.racks();
        (0..racks.racks())
            .map(|rack| {
                let sum = racks
                    .rack_disks(rack)
                    .iter()
                    .fold(BackendCounters::default(), |acc, &disk| {
                        acc.combined(self.disks[disk].counters())
                    });
                (racks.rack_name(rack).to_string(), sum)
            })
            .collect()
    }

    /// Test-only failure injection: while enabled,
    /// [`BlockStore::repair_stripe`] panics on entry. Exists so
    /// crash-safety tests can prove the repair daemon survives a panicking
    /// worker (and `wait_idle` terminates); never enable it outside tests.
    pub fn inject_repair_panic(&self, enabled: bool) {
        self.fail.repair_panic.store(enabled, Ordering::SeqCst);
    }

    /// Metadata of one object, if present.
    pub fn object(&self, name: &str) -> Option<ObjectInfo> {
        self.manifest
            .read()
            .expect("lock") // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .objects
            .get(name)
            .copied()
    }

    /// Metadata of object `name`, with the typed miss distinction
    /// [`BlockStore::object`] cannot make: a tombstoned name yields
    /// [`StoreError::ObjectDeleted`] ("it existed, you deleted it"), an
    /// unknown one [`StoreError::ObjectNotFound`]. Callers surfacing
    /// results to clients — the gateway — map the two to different
    /// statuses; neither is an I/O failure.
    pub fn lookup(&self, name: &str) -> Result<ObjectInfo> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let manifest = self.manifest.read().expect("lock");
        if let Some(info) = manifest.objects.get(name) {
            return Ok(*info);
        }
        if manifest.tombstones.contains(name) {
            return Err(StoreError::ObjectDeleted {
                name: name.to_string(),
            });
        }
        Err(StoreError::ObjectNotFound {
            name: name.to_string(),
        })
    }

    /// Names and metadata of every object, in name order.
    pub fn objects(&self) -> Vec<(String, ObjectInfo)> {
        self.manifest
            .read()
            .expect("lock") // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .objects
            .iter()
            .map(|(name, info)| (name.clone(), *info))
            .collect()
    }

    /// A labelled copy of the store's traffic counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(&self.code.name());
        // The deadline/breaker counters live in the health tracker (they
        // are recorded inside GuardedDisk, below the metrics struct);
        // mirror them into the snapshot so one struct tells the story.
        if let Some(health) = &self.health {
            snap.disk_timeouts = health.total_timeouts();
            snap.disk_sheds = health.total_shed();
        }
        snap
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

    /// Tags a span with the identity of a pool disk: index, rack name,
    /// and the backend's own description (a path or a `chunkd://` addr) —
    /// the labels a trace reader needs to see *which* disk a chunk read
    /// actually touched.
    fn tag_disk(&self, span: &mut SpanBuilder, disk: usize) {
        span.tag("disk", disk.to_string());
        let racks = self.map.racks();
        if let Some(rack) = racks.rack_of(disk) {
            span.tag("rack", racks.rack_name(rack).to_string());
        }
        span.tag("backend", self.disks[disk].describe());
    }

    /// Drains spans recorded on the far side of every mounted backend
    /// (see [`ChunkBackend::drain_spans`]) so the embedding process can
    /// merge chunkd-side spans into its retained trace trees.
    pub fn drain_remote_spans(&self) -> Vec<SpanRecord> {
        self.disks.iter().flat_map(|d| d.drain_spans()).collect()
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Reserves `name` against concurrent writers and existing objects:
    /// the shared admission step of [`BlockStore::put`] and the streaming
    /// [`crate::ObjectWriter`]. A successful reservation must be paired
    /// with [`BlockStore::release_name`].
    pub(crate) fn reserve_name(&self, name: &str) -> Result<()> {
        validate_object_name(name)?;
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut in_flight = self.in_flight.lock().expect("lock");
        if self
            .manifest
            .read()
            .expect("lock") // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .objects
            .contains_key(name)
            || !in_flight.insert(name.to_string())
        {
            return Err(StoreError::ObjectExists {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Releases a [`BlockStore::reserve_name`] reservation.
    pub(crate) fn release_name(&self, name: &str) {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.in_flight.lock().expect("lock").remove(name);
    }

    /// Pre-ingest disk preparation for a reserved name: sweeps the dead
    /// chunks of a tombstoned predecessor (the old and new files share
    /// names, so the old ones must go *before* new ones land), then
    /// creates the object directory on every pool disk (the placement may
    /// put stripes anywhere).
    pub(crate) fn prepare_object_dirs(&self, name: &str) -> Result<()> {
        let tombstoned = self
            .manifest
            .read()
            .expect("lock") // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .tombstones
            .contains(name);
        if tombstoned {
            for disk in &self.disks {
                disk.remove_object(name)?;
            }
        }
        for disk in &self.disks {
            disk.ensure_object(name)?;
        }
        Ok(())
    }

    /// The durable commit of a fully ingested object (every chunk of every
    /// stripe written): pins the metadata and placement rows in the
    /// manifest, clears any tombstone, and rolls all of it back if the
    /// manifest save fails — an object whose entry never became durable
    /// must not be readable. Shared by [`BlockStore::put`] and the
    /// streaming [`crate::ObjectWriter`].
    pub(crate) fn commit_object(&self, name: &str, total: u64, stripes: u64) -> Result<ObjectInfo> {
        let info = ObjectInfo {
            len: total,
            stripes,
        };
        // Re-derive the rows the stripe writes used (placement is a pure
        // function of name + stripe) and pin them in the manifest.
        let rows: Option<Vec<Vec<usize>>> =
            (self.map.policy() != PlacementPolicy::Identity).then(|| {
                (0..stripes)
                    .map(|s| self.map.disks_for_object_stripe(name, s))
                    .collect()
            });
        {
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            let mut manifest = self.manifest.write().expect("lock");
            manifest.objects.insert(name.to_string(), info);
            if let Some(rows) = rows {
                manifest.placements.insert(name.to_string(), rows);
            }
            let had_tombstone = manifest.tombstones.remove(name);
            if let Err(e) = manifest.save(&self.root) {
                // Keep the in-memory map honest (matching the durable file):
                // an object whose manifest entry never became durable must
                // not be readable (its chunks are about to be cleaned up by
                // the caller).
                manifest.objects.remove(name);
                manifest.placements.remove(name);
                if had_tombstone {
                    manifest.tombstones.insert(name.to_string());
                }
                return Err(e);
            }
        }
        StoreMetrics::add(&self.metrics.bytes_ingested, total);
        Ok(info)
    }

    /// Encodes the (already filled) data shards of `buf` and writes all
    /// `n` chunk files of `stripe`.
    pub(crate) fn encode_and_write_stripe(
        &self,
        name: &str,
        stripe: u64,
        buf: &mut ShardBuffer,
        times: &mut StageTimes,
    ) -> Result<()> {
        let span = self.trace_span("write_stripe");
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.encode_and_write_stripe_inner(name, stripe, buf, times);
        drop(scope);
        if let Some((mut s, tracer)) = span {
            s.tag("object", name);
            s.tag("stripe", stripe.to_string());
            if let Err(e) = &result {
                s.tag("fault", e.to_string());
            }
            s.finish(tracer);
        }
        result
    }

    fn encode_and_write_stripe_inner(
        &self,
        name: &str,
        stripe: u64,
        buf: &mut ShardBuffer,
        times: &mut StageTimes,
    ) -> Result<()> {
        let (k, n) = {
            let params = self.code.params();
            (params.data_shards(), params.total_shards())
        };
        {
            let erasure_start = Instant::now();
            let (data, mut parity) = buf.split_mut(k);
            self.code.encode_into(&data, &mut parity)?;
            times.add_duration(Stage::Erasure, erasure_start.elapsed());
        }
        // Pure function of (seed, name, stripe): the commit re-derives and
        // persists the same row.
        let row = self.map.disks_for_object_stripe(name, stripe);
        let io_start = Instant::now();
        // The n chunks go to n different disks, so all n writes are begun
        // before any is waited for: the stripe costs the slowest write, not
        // their sum.
        let pending: Vec<_> = row
            .iter()
            .enumerate()
            .map(|(shard, &disk)| {
                self.disks[disk].begin_write(name, ChunkId { stripe, shard }, buf.shard(shard))
            })
            .collect();
        // Every write is collected before the first error is returned: none
        // is still in flight when the caller removes the object's chunks.
        let mut first_error = None;
        for write in pending {
            if let Err(e) = write.wait() {
                first_error.get_or_insert(e);
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        times.add_duration(Stage::ChunkIo, io_start.elapsed());
        StoreMetrics::add(&self.metrics.chunks_written, n as u64);
        StoreMetrics::add(
            &self.metrics.chunk_bytes_written,
            (n * self.chunk_len) as u64,
        );
        Ok(())
    }

    /// Best-effort removal of every chunk of `name` on every disk (cleanup
    /// after a failed `put`).
    pub(crate) fn remove_object_chunks(&self, name: &str) {
        for disk in &self.disks {
            let _ = disk.remove_object(name);
        }
    }

    // ------------------------------------------------------------------
    // Read path
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

    /// Serves the `k × chunk_len` data bytes of one stripe into `dest`,
    /// reusing the caller's scratch buffers throughout. `row` is the
    /// stripe's placement: shard `i` lives on pool disk `row[i]`. Returns
    /// whether the stripe was served degraded (one or more chunks rebuilt
    /// from survivors instead of read directly) — callers like the gateway
    /// surface that share per response.
    ///
    /// Stage attribution: chunk reads (healthy and helper) accumulate into
    /// `times` as [`Stage::ChunkIo`], rebuild arithmetic as
    /// [`Stage::Erasure`], and the whole-stripe duration feeds the store's
    /// healthy/degraded latency histograms.
    pub(crate) fn read_stripe_into(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        dest: &mut [u8],
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<bool> {
        let span = self.trace_span("read_stripe");
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.read_stripe_into_inner(object, stripe, row, dest, scratch, times);
        drop(scope);
        if let Some((mut s, tracer)) = span {
            s.tag("object", object);
            s.tag("stripe", stripe.to_string());
            match &result {
                Ok(true) => s.tag("degraded", "true"),
                Ok(false) => {}
                Err(e) => s.tag("fault", e.to_string()),
            }
            s.finish(tracer);
        }
        result
    }

    fn read_stripe_into_inner(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        dest: &mut [u8],
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<bool> {
        let stripe_start = Instant::now();
        let k = self.code.params().data_shards();
        debug_assert_eq!(dest.len(), self.stripe_data_len());
        // Fast path: read and verify the k data chunks straight into the
        // caller's destination — the healthy case touches no scratch and
        // pays no extra copy. The chunks sit on k different disks, so all k
        // reads are begun before any is waited for: the stripe costs the
        // slowest round trip, not their sum.
        let pending: Vec<_> = dest
            .chunks_mut(self.chunk_len)
            .enumerate()
            .map(|(shard, slot)| {
                self.disks[row[shard]].begin_read(
                    object,
                    ChunkId { stripe, shard },
                    self.chunk_len,
                    0,
                    slot,
                )
            })
            .collect();
        // Every read is collected before a hard error is returned: no read
        // is left in flight into `dest`.
        let mut outcome = ReadOutcome::default();
        for (shard, read) in pending.into_iter().enumerate() {
            self.settle_read(shard, None, read.wait(), "", &mut outcome);
        }
        if let Some(e) = outcome.hard {
            return Err(e);
        }
        let bad = outcome.failed;
        times.add_duration(Stage::ChunkIo, stripe_start.elapsed());
        if bad.is_empty() {
            self.latency
                .healthy_stripe_read
                .record_duration(stripe_start.elapsed());
            return Ok(false);
        }

        // Degraded read: install the verified data chunks into the scratch
        // stripe (the rebuild reads its helpers from there).
        StoreMetrics::add(&self.metrics.degraded_stripe_reads, 1);
        let rebuild_start = Instant::now();
        scratch.present.fill(false);
        for shard in 0..k {
            if !bad.contains(&shard) {
                scratch
                    .buf
                    .shard_mut(shard)
                    .copy_from_slice(&dest[shard * self.chunk_len..(shard + 1) * self.chunk_len]);
                scratch.present[shard] = true;
            }
        }
        if bad.len() == 1 {
            if let Some(traffic) =
                self.try_planned_rebuild(object, stripe, row, bad[0], scratch, times)?
            {
                self.note_degraded_traffic(traffic);
                for shard in 0..k {
                    let src = if shard == bad[0] {
                        &scratch.rebuilt[..]
                    } else {
                        scratch.buf.shard(shard)
                    };
                    dest[shard * self.chunk_len..(shard + 1) * self.chunk_len].copy_from_slice(src);
                }
                self.latency
                    .degraded_reconstruct
                    .record_duration(rebuild_start.elapsed());
                self.latency
                    .degraded_stripe_read
                    .record_duration(stripe_start.elapsed());
                return Ok(true);
            }
        }

        // Multiple losses (or helpers unavailable): full reconstruction. The
        // extra survivor reads are the degraded cost; the healthy data
        // payloads were already read above and are not read twice.
        let mut damaged = bad;
        let traffic =
            self.reconstruct_from_survivors(object, stripe, row, &mut damaged, scratch, times)?;
        self.note_degraded_traffic(traffic);
        for shard in 0..k {
            dest[shard * self.chunk_len..(shard + 1) * self.chunk_len]
                .copy_from_slice(scratch.buf.shard(shard));
        }
        self.latency
            .degraded_reconstruct
            .record_duration(rebuild_start.elapsed());
        self.latency
            .degraded_stripe_read
            .record_duration(stripe_start.elapsed());
        Ok(true)
    }

    /// Read-metrics bump for streaming readers ([`crate::ObjectReader`]),
    /// which serve an object without going through [`BlockStore::get`].
    pub(crate) fn note_streamed_read(&self, bytes_served: u64, whole_object: bool) {
        if whole_object {
            StoreMetrics::add(&self.metrics.objects_read, 1);
        }
        StoreMetrics::add(&self.metrics.bytes_served, bytes_served);
    }

    fn note_degraded_traffic(&self, traffic: HelperTraffic) {
        StoreMetrics::add(&self.metrics.degraded_helper_bytes, traffic.total);
        StoreMetrics::add(&self.metrics.degraded_intra_rack_bytes, traffic.intra_rack);
        StoreMetrics::add(&self.metrics.degraded_cross_rack_bytes, traffic.cross_rack);
    }

    /// Opens the `chunk_io` span of one helper read, when tracing is on.
    /// It stays open from the read's begin to its wait, so overlapping
    /// reads show as overlapping spans.
    fn chunk_io_span(
        &self,
        disk: usize,
        shard: usize,
        bytes: usize,
    ) -> Option<(SpanBuilder, &Arc<Tracer>)> {
        let mut io_span = self.trace_span("chunk_io");
        if let Some((s, _)) = io_span.as_mut() {
            self.tag_disk(s, disk);
            s.tag("shard", shard.to_string());
            s.tag("bytes", bytes.to_string());
        }
        io_span
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

    /// Executes the code's cheapest single-failure repair for shard
    /// `target`, materialising exactly the helper byte ranges the rebuild
    /// consumes. Helper choice is *locality-first*: survivors sharing the
    /// target disk's rack are ranked ahead of cross-rack ones, and codes
    /// with helper freedom (see [`ErasureCode::repair_reads_ranked`]) read
    /// as many same-rack helpers as their mathematics allows. Ranges whose
    /// chunk is already resident in the scratch (CRC-verified, flagged in
    /// `present`) are used as they sit; the rest are partial-read from disk
    /// into the scratch stripe, and a helper that turns out to be missing
    /// or corrupt makes the whole attempt return `None` so the caller falls
    /// back to full reconstruction.
    ///
    /// On success the rebuilt chunk is left in `scratch.rebuilt` and the
    /// returned traffic prices the *full* plan — the bytes a rebuilding
    /// node fetches across disks in the paper's model, split intra/cross
    /// rack relative to the target's disk — regardless of how many ranges
    /// happened to be resident here. Bytes of the scratch stripe outside
    /// the plan's ranges may be stale from earlier stripes; the
    /// [`ErasureCode::repair_reads`] contract guarantees the rebuild never
    /// reads them.
    fn try_planned_rebuild(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        target: usize,
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<Option<HelperTraffic>> {
        let n = self.code.params().total_shards();
        let mut available = vec![true; n];
        available[target] = false;
        let available = available;
        let racks = self.map.racks();
        let target_disk = row[target];
        // Hedging: with a hedge delay configured, the first-choice helper
        // set gets only that long per helper read; when one exceeds it (or
        // fails), the slow shard is *exiled* — ranked behind every other
        // survivor — and the next-ranked helper set is tried with the full
        // deadline, abandon-and-switch rather than wait. The availability
        // mask stays single-failure (the plan API's contract); codes with
        // no helper freedom (fixed plans) return the same set again, which
        // is detected below and falls through to full reconstruction.
        const EXILE_RANK: u64 = 1 << 32;
        let max_attempts = if self.hedge_delay.is_some() { 2 } else { 1 };
        let mut exiled: Vec<usize> = Vec::new();
        for attempt in 0..max_attempts {
            // Locality-first helper preference: same-rack survivors rank 0;
            // shards the hedge gave up on rank behind everything.
            let exiled_now = exiled.clone();
            let rank = move |shard: usize| {
                u64::from(!racks.same_rack(row[shard], target_disk))
                    + if exiled_now.contains(&shard) {
                        EXILE_RANK
                    } else {
                        0
                    }
            };
            let reads = self
                .code
                .repair_reads_ranked(target, &available, self.chunk_len, &rank)?;
            if attempt > 0 && reads.iter().any(|r| exiled.contains(&r.shard)) {
                // No alternate helper set exists for this code: the full
                // reconstruction path routes around the slow shard instead.
                return Ok(None);
            }
            let mut traffic = HelperTraffic::default();
            let io_start = Instant::now();
            // A hedged first attempt reads its helpers one at a time, each
            // under the short hedge budget, and gives up at the first slow
            // one (abandon-and-switch). Every other attempt begins all its
            // helper reads — they go to different disks — and then waits
            // for all of them.
            let hedge = self.hedge_delay.filter(|_| attempt == 0);
            let fail_tag = if attempt + 1 < max_attempts {
                // A hedge that will retry abandons this read; otherwise
                // the helper loss just fails the plan.
                "abandoned"
            } else {
                "helper_failed"
            };
            let windows = match scratch.buf.windows_mut(&reads) {
                Ok(windows) => windows,
                // A plan this store cannot lay out is not worth failing the
                // stripe over: full reconstruction needs no plan.
                Err(_) => return Ok(None),
            };
            let mut outcome = ReadOutcome::default();
            let mut pending = Vec::with_capacity(reads.len());
            for (read, dest) in reads.iter().zip(windows) {
                traffic.add(
                    read.len as u64,
                    racks.same_rack(row[read.shard], target_disk),
                );
                if scratch.present[read.shard] {
                    continue; // verified payload already in place
                }
                let id = ChunkId {
                    stripe,
                    shard: read.shard,
                };
                let disk = row[read.shard];
                let io_span = self.chunk_io_span(disk, read.shard, read.len);
                match (hedge, &self.guards[disk]) {
                    (Some(delay), Some(guard)) => {
                        let result = guard.read_chunk_range_deadline(
                            object,
                            id,
                            self.chunk_len,
                            read.offset,
                            dest,
                            delay,
                        );
                        if !self.settle_read(read.shard, io_span, result, fail_tag, &mut outcome) {
                            break;
                        }
                    }
                    _ => pending.push((
                        read.shard,
                        io_span,
                        self.disks[disk].begin_read(object, id, self.chunk_len, read.offset, dest),
                    )),
                }
            }
            for (shard, io_span, read) in pending {
                self.settle_read(shard, io_span, read.wait(), fail_tag, &mut outcome);
            }
            if let Some(e) = outcome.hard {
                return Err(e);
            }
            let failed_shard = outcome.failed.first().copied();
            times.add_duration(Stage::ChunkIo, io_start.elapsed());
            match failed_shard {
                None => {
                    let mut rebuild_span = self.trace_span("rebuild");
                    if let Some((s, _)) = rebuild_span.as_mut() {
                        s.tag("target_shard", target.to_string());
                        if attempt > 0 {
                            // The alternate helper set finished first: the
                            // hedge won against the exiled slow shard.
                            s.tag("hedged", "winner");
                        }
                    }
                    let erasure_start = Instant::now();
                    self.code.repair_from_reads(
                        target,
                        &reads,
                        &scratch.buf.as_set(),
                        &mut scratch.rebuilt,
                    )?;
                    times.add_duration(Stage::Erasure, erasure_start.elapsed());
                    if attempt > 0 {
                        StoreMetrics::add(&self.metrics.hedge_wins, 1);
                    }
                    if let Some((s, tracer)) = rebuild_span {
                        s.finish(tracer);
                    }
                    return Ok(Some(traffic));
                }
                Some(shard) if attempt + 1 < max_attempts => {
                    exiled.push(shard);
                    StoreMetrics::add(&self.metrics.hedged_reads, 1);
                }
                Some(_) => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Reads surviving chunks into the scratch stripe and rebuilds every
    /// missing slot in place — the shared engine of multi-loss degraded
    /// reads and multi-loss repairs.
    ///
    /// Shards flagged in `scratch.present` were already read and verified
    /// by the caller (the data chunks of a degraded read; none for
    /// repairs): they are neither re-read nor re-counted. `damaged` lists
    /// shards known lost or corrupt; any further damage discovered while
    /// reading survivors is appended for the caller to rebuild. MDS codes
    /// stop reading once `k` survivors are present — any `k` shards decode
    /// the stripe, so that is all a rebuilding node would fetch, and
    /// survivors sharing the first damaged disk's rack are read first so
    /// that budget prefers intra-rack bytes — while non-MDS codes (LRC)
    /// read every survivor, since `k` arbitrary shards may not span the
    /// data.
    ///
    /// On success the whole stripe (data and parity) is valid in
    /// `scratch.buf`; returns the helper traffic read here, split
    /// intra/cross rack relative to the first damaged shard's disk.
    fn reconstruct_from_survivors(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        damaged: &mut Vec<usize>,
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<HelperTraffic> {
        let params = self.code.params();
        let (k, n) = (params.data_shards(), params.total_shards());
        let racks = self.map.racks();
        let home_disk = damaged.first().map(|&s| row[s]);
        let same_rack_as_home =
            |shard: usize| home_disk.is_some_and(|home| racks.same_rack(row[shard], home));
        // Locality-first survivor order: same-rack shards before cross-rack
        // ones, index order within each class (MDS codes stop at k, so the
        // order decides which racks the helper bytes come from).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&shard| (!same_rack_as_home(shard), shard));
        let mut survivors = scratch.present.iter().filter(|&&p| p).count();
        let mut traffic = HelperTraffic::default();
        let io_start = Instant::now();
        let mut candidates = order
            .into_iter()
            .filter(|&shard| !scratch.present[shard] && !damaged.contains(&shard))
            .collect::<Vec<_>>()
            .into_iter();
        // Each round begins exactly the reads still needed — for an MDS code
        // the k − survivors next-ranked shards, for any other code every
        // candidate — and waits for all of them; a round runs again only to
        // top up for reads that failed.
        loop {
            let want = if self.code.is_mds() {
                k.saturating_sub(survivors)
            } else {
                usize::MAX
            };
            let round: Vec<ShardRead> = candidates
                .by_ref()
                .take(want)
                .map(|shard| ShardRead::whole(shard, self.chunk_len))
                .collect();
            if round.is_empty() {
                break;
            }
            let pending: Vec<_> = round
                .iter()
                .zip(scratch.buf.windows_mut(&round)?)
                .map(|(read, slot)| {
                    let shard = read.shard;
                    let io_span = self.chunk_io_span(row[shard], shard, self.chunk_len);
                    let id = ChunkId { stripe, shard };
                    let read =
                        self.disks[row[shard]].begin_read(object, id, self.chunk_len, 0, slot);
                    (shard, io_span, read)
                })
                .collect();
            let mut outcome = ReadOutcome::default();
            for (shard, io_span, read) in pending {
                if self.settle_read(shard, io_span, read.wait(), "helper_failed", &mut outcome) {
                    scratch.present[shard] = true;
                    survivors += 1;
                    traffic.add(self.chunk_len as u64, same_rack_as_home(shard));
                }
            }
            if let Some(e) = outcome.hard {
                return Err(e);
            }
            // Damage the caller had not seen yet.
            damaged.extend(outcome.failed);
        }
        times.add_duration(Stage::ChunkIo, io_start.elapsed());
        if survivors < k {
            return Err(StoreError::StripeUnrecoverable {
                object: object.to_string(),
                stripe,
                survivors,
                needed: k,
            });
        }
        {
            let erasure_start = Instant::now();
            let mut view = scratch.buf.as_set_mut();
            self.code
                .reconstruct_in_place(&mut view, &scratch.present)
                .map_err(|e| self.unrecoverable(object, stripe, survivors, e))?;
            times.add_duration(Stage::Erasure, erasure_start.elapsed());
        }
        Ok(traffic)
    }

    fn unrecoverable(
        &self,
        object: &str,
        stripe: u64,
        survivors: usize,
        e: CodeError,
    ) -> StoreError {
        match e {
            CodeError::NotEnoughShards { needed, .. } => StoreError::StripeUnrecoverable {
                object: object.to_string(),
                stripe,
                survivors,
                needed,
            },
            CodeError::ReconstructionFailed { .. } => StoreError::StripeUnrecoverable {
                object: object.to_string(),
                stripe,
                survivors,
                needed: self.code.params().data_shards(),
            },
            other => StoreError::Code(other),
        }
    }

    fn note_damage(&self, status: &ChunkStatus) {
        if matches!(status, ChunkStatus::Corrupt { .. }) {
            StoreMetrics::add(&self.metrics.corrupt_chunks_detected, 1);
        }
    }

    // ------------------------------------------------------------------
    // Repair path
    // ------------------------------------------------------------------

    /// Rebuilds the `damaged` shards of one stripe and writes them back.
    ///
    /// Each claimed shard is re-verified first; shards that are healthy by
    /// now (e.g. repaired by a concurrent worker) are skipped. A single
    /// damaged shard is rebuilt along the code's cheapest path with
    /// byte-exact helper reads; multiple damaged shards use a full
    /// reconstruction over the survivors.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectNotFound`],
    /// [`StoreError::StripeUnrecoverable`], or I/O / codec failures.
    pub fn repair_stripe(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
    ) -> Result<StripeRepair> {
        // Repair jobs run with no caller trace (the daemon mints none), so
        // each job is its own root trace; a caller-scoped context (e.g. a
        // traced admin op) is adopted instead of replaced.
        let span = self
            .tracer()
            .map(|t| (t.root_span("repair", trace::current_ctx()), t));
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.repair_stripe_inner(object, stripe, damaged);
        drop(scope);
        if let Some((mut s, tracer)) = span {
            s.tag("object", object);
            s.tag("stripe", stripe.to_string());
            if let Err(e) = &result {
                s.tag("fault", e.to_string());
            }
            s.finish_root(
                tracer,
                RootFlags {
                    error: result.is_err(),
                    ..RootFlags::default()
                },
            );
        }
        result
    }

    fn repair_stripe_inner(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
    ) -> Result<StripeRepair> {
        // SeqCst: crash-test failpoint, flipped rarely and read cold.
        if self.fail.repair_panic.load(Ordering::SeqCst) {
            // pbrs-lint: allow(panic-hygiene) -- injected failure hook; panicking here is the tested behaviour
            panic!("injected repair panic (object {object:?} stripe {stripe})");
        }
        let job_start = Instant::now();
        let info = self
            .object(object)
            .ok_or_else(|| StoreError::ObjectNotFound {
                name: object.to_string(),
            })?;
        let n = self.code.params().total_shards();
        if stripe >= info.stripes {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe {stripe} out of range for object {object:?} ({} stripes)",
                    info.stripes
                ),
            });
        }
        let row = self.stripe_disks(object, stripe);
        let mut report = StripeRepair::default();
        // Dedup the claimed shards so a repeated index cannot disable the
        // cheap single-failure path or double-count the repair metrics.
        let mut damaged = damaged.to_vec();
        damaged.sort_unstable();
        damaged.dedup();
        let mut targets: Vec<usize> = Vec::new();
        for &shard in &damaged {
            if shard >= n {
                return Err(StoreError::Code(CodeError::InvalidShardIndex {
                    index: shard,
                    total: n,
                }));
            }
            let (status, bytes) = self.disks[row[shard]].verify_chunk(
                object,
                ChunkId { stripe, shard },
                self.chunk_len,
            )?;
            StoreMetrics::add(&self.metrics.chunks_scrubbed, 1);
            StoreMetrics::add(&self.metrics.scrub_bytes_read, bytes);
            if status.is_healthy() {
                report.already_healthy.push(shard);
            } else {
                self.note_damage(&status);
                targets.push(shard);
            }
        }
        if targets.is_empty() {
            return Ok(report);
        }
        // The damaged disk's storage may be gone entirely; recreate the
        // object's directory before writing rebuilt chunks into it.
        for &shard in &targets {
            self.disks[row[shard]].ensure_object(object)?;
        }

        let mut scratch = self.new_scratch();
        let mut times = StageTimes::new();
        if targets.len() == 1 {
            if let Some(traffic) = self.try_planned_rebuild(
                object,
                stripe,
                &row,
                targets[0],
                &mut scratch,
                &mut times,
            )? {
                let target = targets[0];
                self.disks[row[target]].write_chunk(
                    object,
                    ChunkId {
                        stripe,
                        shard: target,
                    },
                    &scratch.rebuilt,
                )?;
                self.note_repair_traffic(traffic);
                StoreMetrics::add(&self.metrics.chunks_repaired, 1);
                StoreMetrics::add(&self.metrics.repair_bytes_written, self.chunk_len as u64);
                report.rebuilt.push(target);
                report.helper_bytes += traffic.total;
                report.intra_rack_bytes += traffic.intra_rack;
                report.cross_rack_bytes += traffic.cross_rack;
                report.bytes_written += self.chunk_len as u64;
                self.latency.repair_job.record_duration(job_start.elapsed());
                return Ok(report);
            }
        }

        // Multi-loss (or helpers unavailable): decode from survivors, then
        // write every damaged chunk back (including any damage discovered
        // while reading).
        let traffic = self.reconstruct_from_survivors(
            object,
            stripe,
            &row,
            &mut targets,
            &mut scratch,
            &mut times,
        )?;
        targets.sort_unstable();
        for &shard in &targets {
            self.disks[row[shard]].ensure_object(object)?;
            self.disks[row[shard]].write_chunk(
                object,
                ChunkId { stripe, shard },
                scratch.buf.shard(shard),
            )?;
            report.rebuilt.push(shard);
            report.bytes_written += self.chunk_len as u64;
        }
        self.note_repair_traffic(traffic);
        StoreMetrics::add(&self.metrics.chunks_repaired, targets.len() as u64);
        StoreMetrics::add(
            &self.metrics.repair_bytes_written,
            (targets.len() * self.chunk_len) as u64,
        );
        report.helper_bytes += traffic.total;
        report.intra_rack_bytes += traffic.intra_rack;
        report.cross_rack_bytes += traffic.cross_rack;
        self.latency.repair_job.record_duration(job_start.elapsed());
        Ok(report)
    }

    fn note_repair_traffic(&self, traffic: HelperTraffic) {
        StoreMetrics::add(&self.metrics.repair_helper_bytes, traffic.total);
        StoreMetrics::add(&self.metrics.repair_intra_rack_bytes, traffic.intra_rack);
        StoreMetrics::add(&self.metrics.repair_cross_rack_bytes, traffic.cross_rack);
    }

    // ------------------------------------------------------------------
    // Scrub
    // ------------------------------------------------------------------

    /// Verifies every chunk of every object (full checksum read) and
    /// reports all damage, plus disks whose backend reports the disk
    /// missing or unreachable. Also sweeps crash leftovers: stale `*.tmp`
    /// files (older than [`STALE_TMP_MIN_AGE`]) on every disk and a stale
    /// `MANIFEST.tmp` at the root are deleted and reported, so debris from
    /// a crashed writer can neither accumulate nor be mistaken for damage.
    ///
    /// # Errors
    ///
    /// Returns hard I/O failures only; missing/corrupt chunks are reported,
    /// not errors.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.scrub_given(self.unavailable_disks())
    }

    /// The disks whose backend reports them missing or unreachable right
    /// now: one [`ChunkBackend::is_available`] per disk, no chunk I/O.
    pub(crate) fn unavailable_disks(&self) -> Vec<usize> {
        (0..self.disks.len())
            .filter(|&disk| !self.disks[disk].is_available())
            .collect()
    }

    /// [`BlockStore::scrub`] for a caller that has just asked every backend
    /// whether it is there (the repair daemon does, to pick its pass). Asking
    /// again would not be free: each ask is a round trip, and on a hardened
    /// or fault-injected pool it spends a breaker probe or a fault-plan op.
    pub(crate) fn scrub_given(&self, lost_disks: Vec<usize>) -> Result<ScrubReport> {
        let mut report = ScrubReport {
            lost_disks,
            ..ScrubReport::default()
        };
        report.tombstones_swept = self.sweep_tombstones()?;
        for (name, info) in self.objects() {
            for stripe in 0..info.stripes {
                let row = self.stripe_disks(&name, stripe);
                let (examined, bytes) =
                    self.verify_stripe(&name, stripe, &row, &mut report.damages)?;
                report.chunks_examined += examined;
                report.bytes_read += bytes;
            }
        }
        for (disk, backend) in self.disks.iter().enumerate() {
            for rel in backend.sweep_tmp(self.stale_tmp_min_age)? {
                report
                    .stale_tmp_removed
                    .push(format!("disk-{disk:02}/{rel}"));
            }
        }
        if self.sweep_stale_manifest_tmp()? {
            report.stale_tmp_removed.push("MANIFEST.tmp".to_string());
        }
        StoreMetrics::add(&self.metrics.chunks_scrubbed, report.chunks_examined);
        StoreMetrics::add(&self.metrics.scrub_bytes_read, report.bytes_read);
        Ok(report)
    }

    /// Verifies every chunk of one stripe (placement-resolved), appending
    /// damage to `damages`; returns `(chunks examined, bytes read)`.
    fn verify_stripe(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        damages: &mut Vec<Damage>,
    ) -> Result<(u64, u64)> {
        let mut examined = 0u64;
        let mut bytes_read = 0u64;
        for (shard, &disk) in row.iter().enumerate() {
            let (status, bytes) =
                self.disks[disk].verify_chunk(object, ChunkId { stripe, shard }, self.chunk_len)?;
            examined += 1;
            bytes_read += bytes;
            if !status.is_healthy() {
                self.note_damage(&status);
                damages.push(Damage {
                    object: object.to_string(),
                    stripe,
                    shard,
                    disk: row[shard],
                    status,
                });
            }
        }
        Ok((examined, bytes_read))
    }

    /// Sweeps the dead chunks of every tombstoned object from every pool
    /// disk; tombstones whose sweep completes on *all* disks are cleared
    /// from the manifest (an unreachable disk keeps the tombstone alive for
    /// a later pass). Returns the names fully swept.
    fn sweep_tombstones(&self) -> Result<Vec<String>> {
        let tombstones: Vec<String> = self
            .manifest
            .read()
            .expect("lock") // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            .tombstones
            .iter()
            .cloned()
            .collect();
        if tombstones.is_empty() {
            return Ok(Vec::new());
        }
        let mut swept = Vec::new();
        for name in tombstones {
            // Attempt every disk even after a failure: one unreachable disk
            // must not leave the others' dead chunks lingering for passes.
            let mut clean = true;
            for disk in &self.disks {
                if disk.remove_object(&name).is_err() {
                    clean = false;
                }
            }
            if clean {
                swept.push(name);
            }
        }
        if !swept.is_empty() {
            // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            let mut manifest = self.manifest.write().expect("lock");
            for name in &swept {
                manifest.tombstones.remove(name);
            }
            if let Err(e) = manifest.save(&self.root) {
                // Keep memory matching the durable file: the sweep itself
                // is idempotent, so the next scrub simply retries.
                for name in &swept {
                    manifest.tombstones.insert(name.clone());
                }
                return Err(e);
            }
        }
        Ok(swept)
    }

    /// Incremental scrub: verifies up to `max_stripes` stripes starting at
    /// the persisted cursor (`root/SCRUB.cursor`), then advances and
    /// persists the cursor — so a full-store sweep can be spread over many
    /// small passes and survives restarts. Objects are visited in name
    /// order; a pass that reaches the end of the table resets the cursor
    /// and reports `wrapped = true`. Deleting or adding objects between
    /// passes is safe: a vanished cursor object resumes at the next name.
    ///
    /// Unlike the full [`BlockStore::scrub`], a partial pass does not sweep
    /// tombstones or stale tmp files — those belong to the (cheap,
    /// per-store) full pass; this one spreads the expensive checksum reads.
    ///
    /// # Errors
    ///
    /// Returns hard I/O failures only; missing/corrupt chunks are reported,
    /// not errors.
    pub fn scrub_partial(&self, max_stripes: usize) -> Result<PartialScrubReport> {
        let mut report = PartialScrubReport::default();
        if max_stripes == 0 {
            return Ok(report);
        }
        let cursor = self.load_scrub_cursor()?;
        let objects = self.objects();
        // Resume at the cursor: the first object at or after the cursor
        // name (it may have been deleted since), at the cursor stripe only
        // when the object still matches exactly.
        let start = match &cursor.object {
            None => 0,
            Some(at) => objects
                .iter()
                .position(|(name, _)| name.as_str() >= at.as_str())
                .unwrap_or(objects.len()),
        };
        let mut next: Option<ScrubCursor> = None;
        'scan: for (idx, (name, info)) in objects.iter().enumerate().skip(start) {
            let first_stripe = match &cursor.object {
                Some(at) if idx == start && at == name => cursor.stripe.min(info.stripes),
                _ => 0,
            };
            for stripe in first_stripe..info.stripes {
                if report.stripes_scanned == max_stripes as u64 {
                    next = Some(ScrubCursor {
                        object: Some(name.clone()),
                        stripe,
                    });
                    break 'scan;
                }
                let row = self.stripe_disks(name, stripe);
                let (examined, bytes) =
                    self.verify_stripe(name, stripe, &row, &mut report.damages)?;
                report.stripes_scanned += 1;
                report.chunks_examined += examined;
                report.bytes_read += bytes;
            }
        }
        report.wrapped = next.is_none();
        self.save_scrub_cursor(&next.unwrap_or_default())?;
        StoreMetrics::add(&self.metrics.chunks_scrubbed, report.chunks_examined);
        StoreMetrics::add(&self.metrics.scrub_bytes_read, report.bytes_read);
        Ok(report)
    }

    /// Loads the persisted incremental-scrub cursor (missing or unreadable
    /// file = start of the table; the cursor is a progress hint, not data).
    fn load_scrub_cursor(&self) -> Result<ScrubCursor> {
        let path = self.root.join(SCRUB_CURSOR_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ScrubCursor::default()),
            Err(e) => return Err(StoreError::io(&path, e)),
        };
        let mut cursor = ScrubCursor::default();
        for line in text.lines() {
            match line.split_once(' ') {
                Some(("object", name)) if validate_object_name(name).is_ok() => {
                    cursor.object = Some(name.to_string());
                }
                Some(("stripe", n)) => cursor.stripe = n.parse().unwrap_or(0),
                _ => {}
            }
        }
        Ok(cursor)
    }

    /// Persists the cursor atomically (tmp + rename; no fsync — losing a
    /// cursor to a crash only costs re-verifying a few stripes).
    fn save_scrub_cursor(&self, cursor: &ScrubCursor) -> Result<()> {
        let path = self.root.join(SCRUB_CURSOR_FILE);
        let mut text = String::new();
        if let Some(object) = &cursor.object {
            text.push_str(&format!("object {object}\n"));
        }
        text.push_str(&format!("stripe {}\n", cursor.stripe));
        let tmp = path.with_extension("cursor.tmp");
        fs::write(&tmp, text).map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Deletes object `name`: its manifest entry (and placement rows) are
    /// replaced by a durable tombstone, so reads fail immediately, and the
    /// chunks become garbage that the next [`BlockStore::scrub`] sweeps
    /// from every disk. Reusing the name with [`BlockStore::put`] is legal
    /// right away (the put sweeps the dead chunks first).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectNotFound`],
    /// [`StoreError::ObjectDeleted`] for a name already tombstoned, or
    /// manifest I/O failures.
    pub fn delete(&self, name: &str) -> Result<ObjectInfo> {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut manifest = self.manifest.write().expect("lock");
        let Some(info) = manifest.objects.remove(name) else {
            return Err(if manifest.tombstones.contains(name) {
                StoreError::ObjectDeleted {
                    name: name.to_string(),
                }
            } else {
                StoreError::ObjectNotFound {
                    name: name.to_string(),
                }
            });
        };
        let rows = manifest.placements.remove(name);
        manifest.tombstones.insert(name.to_string());
        if let Err(e) = manifest.save(&self.root) {
            // Roll back to match the durable file: the object is still
            // committed on disk, so it must stay readable in memory too.
            manifest.objects.insert(name.to_string(), info);
            if let Some(rows) = rows {
                manifest.placements.insert(name.to_string(), rows);
            }
            manifest.tombstones.remove(name);
            return Err(e);
        }
        drop(manifest);
        // If the incremental scrub was parked mid-way through this object,
        // rewind its stripe to 0: a re-put under the same name must have
        // its early stripes verified by the current sweep, not silently
        // skipped. Best-effort — the cursor is a progress hint, and a
        // failed rewind only costs re-verification.
        if let Ok(cursor) = self.load_scrub_cursor() {
            if cursor.object.as_deref() == Some(name) && cursor.stripe > 0 {
                let _ = self.save_scrub_cursor(&ScrubCursor {
                    object: Some(name.to_string()),
                    stripe: 0,
                });
            }
        }
        Ok(info)
    }

    /// Deletes `root/MANIFEST.tmp` if it is a stale crash leftover (a live
    /// `Manifest::save` is between tmp-write and rename for well under
    /// [`STALE_TMP_MIN_AGE`]). Returns whether a file was removed.
    fn sweep_stale_manifest_tmp(&self) -> Result<bool> {
        let tmp = manifest_path(&self.root).with_extension("tmp");
        let stale = fs::metadata(&tmp)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= self.stale_tmp_min_age);
        if !stale {
            return Ok(false);
        }
        match fs::remove_file(&tmp) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io(&tmp, e)),
        }
    }
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers practically all of them).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
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
        store.put("obj", &pattern(100)[..]).unwrap();
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
        // A duplicated index must not disable the single-failure path or
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
        // checksum, and must fall back to full reconstruction instead of
        // writing a poisoned chunk under a fresh valid CRC.
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
