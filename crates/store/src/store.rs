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
//! files (see [`crate::chunk`]); the zero padding of a short last stripe
//! is written as zero chunks ([`ChunkBackend::begin_write_zeros`]), so no
//! payload is sent for it. One thread drives an object, one stripe at
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
//! checksums; a short stripe's padding chunks are only checked
//! ([`ChunkBackend::begin_verify`]). When a chunk is missing or corrupt
//! the stripe is served
//! *degraded*: one rebuild loop plans each lost data chunk with
//! [`ErasureCode::repair_reads_ranked`] over the shards still available,
//! reads exactly the helper byte ranges the plans name (for a
//! Piggybacked-RS single loss, half-chunks) that the read has not already
//! delivered, and solves each target with
//! [`ErasureCode::repair_from_reads`]. A helper that fails is planned
//! around: it is never asked again, and the next plan costs only the
//! ranges it adds. The helper bytes crossing disks are counted in
//! [`StoreMetrics`], which is how the paper's ~30 % repair-traffic saving
//! becomes measurable on real file I/O. `get` is [`crate::ObjectReader`]
//! driven over every stripe: stripes decode one after another straight
//! into the output buffer with one reusable stripe-sized scratch — no
//! per-stripe allocation on the hot path.
//!
//! # Repair path
//!
//! [`BlockStore::repair_stripe`] rebuilds damaged chunks in place (atomic
//! rename, like every chunk write) with the same loop, from an empty
//! scratch; a helper found damaged on the way is rebuilt and written back
//! too. The [`crate::daemon::RepairDaemon`] drives it from a scrub/enqueue
//! loop across a worker pool.
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

use std::collections::HashSet;
use std::fs;
use std::io;
use std::ops::Range;
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

/// Helper-byte accounting of one rebuild: the price, split by rack
/// locality relative to the disk being rebuilt
/// (`total == intra_rack + cross_rack`), and the bytes `fetched` from
/// backends to pay it (see [`StripeRepair::fetched_bytes`]).
#[derive(Debug, Default, Clone, Copy)]
struct HelperTraffic {
    total: u64,
    intra_rack: u64,
    cross_rack: u64,
    fetched: u64,
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

/// The union of `reads`, one read per shard in shard order: a shard read
/// over two different ranges is read whole.
fn union_of<'a>(
    reads: impl IntoIterator<Item = &'a ShardRead>,
    chunk_len: usize,
) -> Vec<ShardRead> {
    let mut union: Vec<ShardRead> = reads.into_iter().copied().collect();
    union.sort_unstable_by_key(|read| (read.shard, read.offset, read.len));
    union.dedup();
    union.dedup_by(|later, kept| {
        later.shard == kept.shard && {
            *kept = ShardRead::whole(kept.shard, chunk_len);
            true
        }
    });
    union
}

/// One stripe as the read and rebuild paths address it.
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
    /// names, so the old ones must go *before* new ones land). Nothing is
    /// created: each disk's object directory is made by the first chunk
    /// write that lands there ([`ChunkBackend::write_chunk`]), so a fresh
    /// name costs no round trip before its first stripe.
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
    /// `n` chunk files of `stripe`. The data shards in `padding` are zero
    /// padding ([`BlockStore::padding`]): they are written as zero chunks
    /// ([`ChunkBackend::begin_write_zeros`]), so no payload is sent for them.
    pub(crate) fn encode_and_write_stripe(
        &self,
        name: &str,
        stripe: u64,
        buf: &mut ShardBuffer,
        padding: Range<usize>,
    ) -> Result<()> {
        let span = self.trace_span("write_stripe");
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.encode_and_write_stripe_inner(name, stripe, buf, padding);
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
        padding: Range<usize>,
    ) -> Result<()> {
        let (k, n) = {
            let params = self.code.params();
            (params.data_shards(), params.total_shards())
        };
        {
            let (data, mut parity) = buf.split_mut(k);
            self.code.encode_into(&data, &mut parity)?;
        }
        // Pure function of (seed, name, stripe): the commit re-derives and
        // persists the same row.
        let row = self.map.disks_for_object_stripe(name, stripe);
        // The n chunks go to n different disks, so all n writes are begun
        // before any is waited for: the stripe costs the slowest write, not
        // their sum.
        let pending: Vec<_> = row
            .iter()
            .enumerate()
            .map(|(shard, &disk)| {
                let id = ChunkId { stripe, shard };
                if padding.contains(&shard) {
                    self.disks[disk].begin_write_zeros(name, id, self.chunk_len)
                } else {
                    self.disks[disk].begin_write(name, id, buf.shard(shard))
                }
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

    /// Serves the `k × chunk_len` data bytes of stripe `at` into `dest`,
    /// reusing the caller's scratch buffers throughout. Returns whether
    /// the stripe was served degraded (one or more chunks rebuilt from
    /// survivors instead of read directly) — callers like the gateway
    /// surface that share per response.
    ///
    /// Stage attribution: chunk reads (healthy and helper) accumulate into
    /// `times` as [`Stage::ChunkIo`], rebuild arithmetic as
    /// [`Stage::Erasure`], and the whole-stripe duration feeds the store's
    /// healthy/degraded latency histograms.
    pub(crate) fn read_stripe_into(
        &self,
        at: &StripeRef<'_>,
        dest: &mut [u8],
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<bool> {
        let span = self.trace_span("read_stripe");
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.read_stripe_into_inner(at, dest, scratch, times);
        drop(scope);
        if let Some((mut s, tracer)) = span {
            s.tag("object", at.object);
            s.tag("stripe", at.stripe.to_string());
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
        at: &StripeRef<'_>,
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
        // slowest round trip, not their sum. A padding chunk's bytes are
        // known: its slot is zeroed and its chunk only checked, so a lost
        // or damaged padding chunk still degrades the stripe.
        let pending: Vec<_> = dest
            .chunks_mut(self.chunk_len)
            .enumerate()
            .map(|(shard, slot)| {
                let disk = &self.disks[at.row[shard]];
                let id = ChunkId {
                    stripe: at.stripe,
                    shard,
                };
                if at.padding.contains(&shard) {
                    slot.fill(0);
                    disk.begin_verify(at.object, id, self.chunk_len)
                } else {
                    disk.begin_read(at.object, id, self.chunk_len, 0, slot)
                }
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
        let mut bad = outcome.failed;
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
        let mut traffic = HelperTraffic::default();
        self.rebuild(at, &mut bad, false, scratch, &mut traffic, times)?;
        // Only the lost chunks changed: the rest of `dest` is as read.
        for shard in bad {
            dest[shard * self.chunk_len..(shard + 1) * self.chunk_len]
                .copy_from_slice(scratch.buf.shard(shard));
        }
        self.note_degraded_traffic(traffic);
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
        StoreMetrics::add(&self.metrics.degraded_fetched_bytes, traffic.fetched);
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

    /// Rebuilds every shard in `targets` into its slot of `scratch.buf`:
    /// the one rebuild loop of degraded reads and repairs. Each round
    /// plans, reads, and then solves or re-plans.
    ///
    /// * **Plan.** Each open target gets
    ///   [`ErasureCode::repair_reads_ranked`] over the shards still
    ///   available: every shard but the targets and the helpers found bad.
    ///   The zero padding stays available, lost or not: its bytes are
    ///   known. Resident shards rank first — whole chunks already verified
    ///   in the scratch (flagged in `present`) and padding — then shards in
    ///   the first target's rack, then the rest, ties by index. A helper
    ///   the hedge gave up on is left out of the plan, unless no plan
    ///   avoids it.
    /// * **Read.** The plans' ranges on shards that are not resident are
    ///   begun together — they sit on different disks — and then waited
    ///   for. A whole chunk that arrives is resident from then on, so no
    ///   later round reads it again. A padding target's plan is not read.
    /// * **Re-plan.** A helper that fails is marked bad and never asked
    ///   again for this stripe; with `adopt_failed` (a repair) it joins
    ///   `targets`, to be rebuilt and written back too.
    /// * **Solve.** A target whose plan was read in full is rebuilt by
    ///   [`ErasureCode::repair_from_reads`] and stays out of every later
    ///   plan. A padding target is its zeroed slot.
    ///
    /// Hedging: with a hedge delay configured, a single-target rebuild's
    /// first round begins its reads under the short hedge budget
    /// (`GuardedDisk::begin_read_within`) instead of the full deadline.
    /// Every helper that misses the budget or fails is *exiled*, not
    /// marked bad: the next round plans around it, and reads it under the
    /// full deadline only when no plan avoids it.
    ///
    /// The price added to `traffic` is the union of the final plans'
    /// ranges, split intra/cross rack relative to the first target's disk,
    /// whether or not a range was resident or padding here;
    /// `traffic.fetched` counts every range begun. Bytes of the scratch
    /// outside the ranges read may be stale from earlier stripes:
    /// [`ErasureCode::repair_from_reads`] reads only the ranges it is given.
    fn rebuild(
        &self,
        at: &StripeRef<'_>,
        targets: &mut Vec<usize>,
        adopt_failed: bool,
        scratch: &mut StripeScratch,
        traffic: &mut HelperTraffic,
        times: &mut StageTimes,
    ) -> Result<()> {
        let n = self.code.params().total_shards();
        let racks = self.map.racks();
        let row = at.row;
        let home = row[targets[0]];
        // Whole slots: a reader's scratch still holds its previous stripe.
        for shard in at.padding.clone() {
            scratch.buf.shard_mut(shard).fill(0);
            scratch.present[shard] = true;
        }
        let mut bad = vec![false; n];
        let mut exiled: Vec<usize> = Vec::new();
        let mut hedge = self
            .hedge_delay
            .filter(|_| targets.len() == 1 && !at.padding.contains(&targets[0]));
        let mut open = targets.clone();
        let mut solved: Vec<ShardRead> = Vec::new();
        while !open.is_empty() {
            let mut available: Vec<bool> = (0..n)
                .map(|s| !bad[s] && (at.padding.contains(&s) || !targets.contains(&s)))
                .collect();
            let rank = |shard: usize| -> u64 {
                if scratch.present[shard] {
                    0
                } else {
                    1 + u64::from(!racks.same_rack(row[shard], home))
                }
            };
            let mut plans = Vec::with_capacity(open.len());
            for &target in &open {
                // Only a padding target is available (to the other plans).
                let kept = std::mem::replace(&mut available[target], false);
                let around: Vec<bool> = (0..n)
                    .map(|s| available[s] && !exiled.contains(&s))
                    .collect();
                let plan = self
                    .code
                    .repair_reads_ranked(target, &around, self.chunk_len, &rank)
                    .or_else(|_| {
                        self.code
                            .repair_reads_ranked(target, &available, self.chunk_len, &rank)
                    });
                available[target] = kept;
                plans.push(match plan {
                    Ok(plan) => plan,
                    // A padding target is its zeroed slot: a plan only
                    // prices it, so having none is no loss.
                    Err(_) if at.padding.contains(&target) => Vec::new(),
                    Err(e) => {
                        let survivors = available.iter().filter(|&&a| a).count();
                        return Err(self.unrecoverable(at.object, at.stripe, survivors, e));
                    }
                });
            }
            let to_read = open
                .iter()
                .zip(&plans)
                .filter(|&(target, _)| !at.padding.contains(target))
                .flat_map(|(_, plan)| plan);
            let mut reads = union_of(to_read, self.chunk_len);
            reads.retain(|read| !scratch.present[read.shard]);

            let io_start = Instant::now();
            let hedge_now = hedge.take();
            let fail_tag = if hedge_now.is_some() {
                "abandoned"
            } else {
                "helper_failed"
            };
            let mut pending = Vec::with_capacity(reads.len());
            for (read, window) in reads.iter().zip(scratch.buf.windows_mut(&reads)?) {
                traffic.fetched += read.len as u64;
                let id = ChunkId {
                    stripe: at.stripe,
                    shard: read.shard,
                };
                let disk = row[read.shard];
                let io_span = self.chunk_io_span(disk, read.shard, read.len);
                let (offset, chunk_len) = (read.offset, self.chunk_len);
                let begun = match (hedge_now, &self.guards[disk]) {
                    (Some(budget), Some(guard)) => {
                        guard.begin_read_within(budget, at.object, id, chunk_len, offset, window)
                    }
                    _ => self.disks[disk].begin_read(at.object, id, chunk_len, offset, window),
                };
                pending.push((read, io_span, begun));
            }
            let mut outcome = ReadOutcome::default();
            for (read, io_span, pending) in pending {
                if self.settle_read(read.shard, io_span, pending.wait(), fail_tag, &mut outcome) {
                    scratch.present[read.shard] |= read.len == self.chunk_len;
                }
            }
            if let Some(e) = outcome.hard {
                return Err(e);
            }
            times.add_duration(Stage::ChunkIo, io_start.elapsed());
            if hedge_now.is_some() && !outcome.failed.is_empty() {
                exiled.extend(outcome.failed);
                StoreMetrics::add(&self.metrics.hedged_reads, 1);
                continue;
            }

            let mut adopted = Vec::new();
            for &shard in &outcome.failed {
                bad[shard] = true;
                if adopt_failed && !targets.contains(&shard) {
                    targets.push(shard);
                    adopted.push(shard);
                }
            }
            let mut next = Vec::new();
            for (&target, plan) in open.iter().zip(plans) {
                let padding = at.padding.contains(&target);
                if !padding && plan.iter().any(|read| bad[read.shard]) {
                    next.push(target);
                    continue;
                }
                if !padding {
                    // The hedge won when the round after it read a plan
                    // around the exiled shards with no helper failing.
                    let hedge_won = !exiled.is_empty()
                        && !bad.contains(&true)
                        && plan.iter().all(|read| !exiled.contains(&read.shard));
                    let mut rebuild_span = self.trace_span("rebuild");
                    if let Some((s, _)) = rebuild_span.as_mut() {
                        s.tag("target_shard", target.to_string());
                        if hedge_won {
                            s.tag("hedged", "winner");
                        }
                    }
                    let erasure_start = Instant::now();
                    self.code.repair_from_reads(
                        target,
                        &plan,
                        &scratch.buf.as_set(),
                        &mut scratch.rebuilt,
                    )?;
                    scratch
                        .buf
                        .shard_mut(target)
                        .copy_from_slice(&scratch.rebuilt);
                    times.add_duration(Stage::Erasure, erasure_start.elapsed());
                    if hedge_won {
                        StoreMetrics::add(&self.metrics.hedge_wins, 1);
                    }
                    if let Some((s, tracer)) = rebuild_span {
                        s.finish(tracer);
                    }
                }
                solved.extend(plan);
            }
            next.extend(adopted);
            open = next;
        }
        for read in union_of(&solved, self.chunk_len) {
            traffic.add(read.len as u64, racks.same_rack(row[read.shard], home));
        }
        Ok(())
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
    /// now (e.g. repaired by a concurrent worker) are skipped. The rest
    /// are rebuilt from byte-exact helper reads of each shard's plan; a
    /// helper found missing or corrupt on the way is planned around, then
    /// rebuilt and written back as well.
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
        self.repair_stripe_with(object, stripe, damaged, &mut self.new_scratch())
    }

    /// [`BlockStore::repair_stripe`] on a caller's scratch, which a repair
    /// worker reuses across its jobs.
    pub(crate) fn repair_stripe_with(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
        scratch: &mut StripeScratch,
    ) -> Result<StripeRepair> {
        // Repair jobs run with no caller trace (the daemon mints none), so
        // each job is its own root trace; a caller-scoped context (e.g. a
        // traced admin op) is adopted instead of replaced.
        let span = self
            .tracer()
            .map(|t| (t.root_span("repair", trace::current_ctx()), t));
        let scope = span.as_ref().map(|(s, _)| ScopedCtx::enter(Some(s.ctx())));
        let result = self.repair_stripe_inner(object, stripe, damaged, scratch);
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
        scratch: &mut StripeScratch,
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
        // Dedup the claimed shards so a repeated index cannot become a
        // second target or double-count the repair metrics.
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

        let at = self.stripe_ref(object, &info, stripe, &row);
        // Nothing of this stripe has been read into the scratch yet.
        scratch.present.fill(false);
        let mut times = StageTimes::new();
        let mut traffic = HelperTraffic::default();
        // Damage found while reading helpers is rebuilt and written back too.
        self.rebuild(&at, &mut targets, true, scratch, &mut traffic, &mut times)?;
        targets.sort_unstable();
        for &shard in &targets {
            self.write_back(&at, shard, scratch.buf.shard(shard))?;
        }
        let written = (targets.len() * self.chunk_len) as u64;
        self.note_repair_traffic(traffic);
        StoreMetrics::add(&self.metrics.chunks_repaired, targets.len() as u64);
        StoreMetrics::add(&self.metrics.repair_bytes_written, written);
        report.rebuilt = targets;
        report.helper_bytes = traffic.total;
        report.intra_rack_bytes = traffic.intra_rack;
        report.cross_rack_bytes = traffic.cross_rack;
        report.fetched_bytes = traffic.fetched;
        report.bytes_written = written;
        self.latency.repair_job.record_duration(job_start.elapsed());
        Ok(report)
    }

    /// Writes rebuilt shard `shard` of stripe `at` back to its disk; a
    /// padding shard is written as a zero chunk, with no payload sent.
    fn write_back(&self, at: &StripeRef<'_>, shard: usize, payload: &[u8]) -> Result<()> {
        let disk = &self.disks[at.row[shard]];
        let id = ChunkId {
            stripe: at.stripe,
            shard,
        };
        if at.padding.contains(&shard) {
            disk.begin_write_zeros(at.object, id, self.chunk_len).wait()
        } else {
            disk.write_chunk(at.object, id, payload)
        }
    }

    fn note_repair_traffic(&self, traffic: HelperTraffic) {
        StoreMetrics::add(&self.metrics.repair_helper_bytes, traffic.total);
        StoreMetrics::add(&self.metrics.repair_intra_rack_bytes, traffic.intra_rack);
        StoreMetrics::add(&self.metrics.repair_cross_rack_bytes, traffic.cross_rack);
        StoreMetrics::add(&self.metrics.repair_fetched_bytes, traffic.fetched);
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
