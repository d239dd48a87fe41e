//! The background repair daemon.
//!
//! A [`RepairDaemon`] owns a pool of `std::thread` workers fed by a shared
//! queue of per-stripe repair tasks. A scan pass
//! ([`RepairDaemon::scan_now`], or a periodic scanner thread when
//! [`DaemonConfig::scan_interval`] is set) fills the queue; what a pass
//! does depends on what it learns by asking every backend
//! [`crate::ChunkBackend::is_available`] (one ping per disk, no chunk I/O):
//!
//! * **Recovery pass** — some disk is unavailable that was not on this
//!   daemon's previous pass. Repair starts from the failure: the pass lists
//!   the chunks the manifest places on the unavailable disks
//!   ([`BlockStore::chunks_on_disks`] — rows of metadata, no chunk read),
//!   enqueues one task per stripe (two lost disks sharing a stripe make one
//!   task carrying both shards) and returns. Every disk that is down is
//!   listed, not only the new one: a stripe with a shard on each is the
//!   stripe closest to data loss. The deep audit waits for the next pass —
//!   its reads would compete with the helper reads for the same survivors,
//!   and a damaged helper is caught by its checksum and rewritten by the
//!   repair that reads it.
//! * **Audit pass** — every other pass. [`BlockStore::scrub`] verifies
//!   every chunk of every object, and each stripe with damage is enqueued.
//!   This finds corruption on disks that answer, the rest of a disk that
//!   came back half-rebuilt, and stripes whose repair failed last pass. A
//!   disk that stays down therefore costs one recovery pass; it does not
//!   keep the audit from running.
//!
//! Tasks are ordered most-at-risk first: stripes with more damaged shards,
//! then stripes whose damage sits on sicker disks, then manifest order.
//! Workers pop tasks and call [`BlockStore::repair_stripe`], which
//! re-verifies each claimed chunk — so an unavailability that was a false
//! alarm (a flaky ping, a disk the breaker sheds) costs one verify per
//! chunk, not a rebuild — and rebuilds what is really gone along each
//! code's cheapest repair path. The daemon's counters (and the store's
//! [`crate::metrics::MetricsSnapshot`]) report the helper bytes that
//! crossed disks — the store-level reproduction of the paper's
//! repair-traffic measurements.
//!
//! Everything is plain `std`: queue + `Condvar` hand-off, atomic counters,
//! graceful shutdown on [`RepairDaemon::shutdown`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbrs_store::{BlockStore, DaemonConfig, RepairDaemon, StoreConfig};
//! use pbrs_store::testing::TempDir;
//!
//! # fn main() -> Result<(), pbrs_store::StoreError> {
//! let dir = TempDir::new("daemon-doc");
//! let spec = "rs-4-2".parse().unwrap();
//! let store = Arc::new(BlockStore::open(
//!     StoreConfig::new(dir.path().join("store"), spec).chunk_len(256),
//! )?);
//! store.put("obj", &vec![7u8; 4096][..])?;
//!
//! // Lose a disk, then let the daemon find and rebuild every lost chunk.
//! std::fs::remove_dir_all(store.disk_path(2)).unwrap();
//! let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
//! let scan = daemon.scan_now()?;
//! assert_eq!(scan.lost_disks, vec![2]);
//! daemon.wait_idle();
//! let stats = daemon.shutdown();
//! assert!(stats.chunks_repaired > 0);
//! assert!(store.scrub()?.is_clean());
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use pbrs_obs::{Event, EventJournal, EventKind};

use crate::error::{Result, StoreError};
use crate::store::{panic_message, BlockStore};

/// How many structured events the daemon's journal retains; older events
/// are evicted (and counted) once the ring is full.
pub const EVENT_JOURNAL_CAPACITY: usize = 64;

/// Configuration of a [`RepairDaemon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Worker threads rebuilding stripes in parallel.
    pub workers: usize,
    /// When set, a scanner thread rescans the store at this interval; when
    /// `None`, scans run only on [`RepairDaemon::scan_now`].
    pub scan_interval: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            scan_interval: None,
        }
    }
}

/// One unit of repair work: every damaged shard of one stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RepairTask {
    object: String,
    stripe: u64,
    damaged: Vec<usize>,
}

/// Outcome of one scan pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanReport {
    /// Disks whose backend reported them missing or unreachable.
    pub lost_disks: Vec<usize>,
    /// Chunks the pass found in need of repair: on a recovery pass every
    /// chunk the manifest places on a lost disk (none of them was read), on
    /// an audit pass every chunk the scrub found missing or corrupt.
    pub damaged_chunks: usize,
    /// Stripe repair tasks enqueued (stripes already queued are skipped).
    pub enqueued_stripes: usize,
}

/// Counters accumulated over the daemon's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Scan passes completed.
    pub scans: u64,
    /// Stripe repair tasks executed.
    pub stripes_repaired: u64,
    /// Chunks rebuilt and written back.
    pub chunks_repaired: u64,
    /// Helper bytes read from surviving disks by repairs.
    pub helper_bytes: u64,
    /// Helper bytes served from within the rebuilt chunk's own rack (the
    /// locality-first scheduler's yield; zero without a grouping placement).
    pub intra_rack_bytes: u64,
    /// Helper bytes that crossed racks — the paper's headline metric.
    pub cross_rack_bytes: u64,
    /// Rebuilt payload bytes written.
    pub bytes_written: u64,
    /// Repairs that failed (e.g. unrecoverable stripes).
    pub failures: u64,
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<RepairTask>,
    /// Stripes currently queued or being repaired, to dedup repeat scans.
    pending: HashSet<(String, u64)>,
    /// Workers currently executing a task.
    active: usize,
    /// The disks that were unavailable on the previous scan pass. A pass
    /// that finds a disk down which is not in here runs as a recovery pass.
    down: Vec<usize>,
}

struct Shared {
    store: Arc<BlockStore>,
    queue: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when the queue drains and every worker goes idle.
    idle: Condvar,
    shutdown: AtomicBool,
    scans: AtomicU64,
    stripes_repaired: AtomicU64,
    chunks_repaired: AtomicU64,
    helper_bytes: AtomicU64,
    intra_rack_bytes: AtomicU64,
    cross_rack_bytes: AtomicU64,
    bytes_written: AtomicU64,
    failures: AtomicU64,
    /// Bounded ring of structured events (repairs, scans, failures,
    /// panics).
    journal: EventJournal,
}

impl Shared {
    fn new(store: Arc<BlockStore>, journal: EventJournal) -> Self {
        Shared {
            store,
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            scans: AtomicU64::new(0),
            stripes_repaired: AtomicU64::new(0),
            chunks_repaired: AtomicU64::new(0),
            helper_bytes: AtomicU64::new(0),
            intra_rack_bytes: AtomicU64::new(0),
            cross_rack_bytes: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            journal,
        }
    }
}

/// A running repair daemon; see the [module docs](self) for the lifecycle.
pub struct RepairDaemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    scanner: Option<JoinHandle<()>>,
}

impl RepairDaemon {
    /// Starts the worker pool (and the periodic scanner, if configured).
    pub fn start(store: Arc<BlockStore>, config: DaemonConfig) -> Self {
        let shared = Arc::new(Shared::new(
            store,
            EventJournal::new(EVENT_JOURNAL_CAPACITY),
        ));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pbrs-repair-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // pbrs-lint: allow(panic-hygiene) -- thread spawn fails only on OS resource exhaustion at startup; aborting is the intended response
                    .expect("spawn repair worker")
            })
            .collect();
        let scanner = config.scan_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pbrs-repair-scan".into())
                .spawn(move || scanner_loop(&shared, interval))
                // pbrs-lint: allow(panic-hygiene) -- thread spawn fails only on OS resource exhaustion at startup; aborting is the intended response
                .expect("spawn repair scanner")
        });
        RepairDaemon {
            shared,
            workers,
            scanner,
        }
    }

    /// Runs one scan pass now — a recovery pass if a disk has become
    /// unavailable since this daemon's previous pass, an audit pass (a full
    /// [`BlockStore::scrub`]) otherwise; see the [module docs](self) —
    /// enqueues a repair task for every stripe it found that is not already
    /// queued, and wakes the workers.
    ///
    /// # Errors
    ///
    /// Propagates hard I/O failures from the scrub; a recovery pass reads
    /// nothing and cannot fail.
    pub fn scan_now(&self) -> Result<ScanReport> {
        scan_once(&self.shared)
    }

    /// Blocks until the queue is empty and every worker is idle.
    ///
    /// With no periodic scanner this means "all damage found so far is
    /// repaired (or recorded as failed)".
    pub fn wait_idle(&self) {
        let mut queue = self.shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        while !queue.tasks.is_empty() || queue.active > 0 {
            queue = self.shared.idle.wait(queue).expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        }
    }

    /// A copy of the daemon's lifetime counters.
    pub fn stats(&self) -> DaemonStats {
        let s = &self.shared;
        DaemonStats {
            // Relaxed, all fields: lifetime tallies sampled for reporting;
            // cross-counter skew from in-flight repairs is acceptable.
            scans: s.scans.load(Ordering::Relaxed),
            stripes_repaired: s.stripes_repaired.load(Ordering::Relaxed),
            // Relaxed: see above.
            chunks_repaired: s.chunks_repaired.load(Ordering::Relaxed),
            helper_bytes: s.helper_bytes.load(Ordering::Relaxed),
            // Relaxed: see above.
            intra_rack_bytes: s.intra_rack_bytes.load(Ordering::Relaxed),
            cross_rack_bytes: s.cross_rack_bytes.load(Ordering::Relaxed),
            // Relaxed: see above.
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
            failures: s.failures.load(Ordering::Relaxed),
        }
    }

    /// The daemon's recent structured events, oldest first: successful
    /// repairs, scans that enqueued work, and failures/panics. The journal
    /// is a bounded ring of [`EVENT_JOURNAL_CAPACITY`] entries; older
    /// events are evicted and counted by [`RepairDaemon::events_dropped`].
    pub fn recent_events(&self) -> Vec<Event> {
        self.shared.journal.recent()
    }

    /// Events evicted from the journal because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.shared.journal.dropped()
    }

    /// Stops the scanner and workers (finishing in-flight tasks, dropping
    /// queued ones) and returns the final counters.
    ///
    /// Dropping the daemon without calling this performs the same stop/join
    /// sequence; `shutdown` only adds the final stats.
    pub fn shutdown(mut self) -> DaemonStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // SeqCst: once-per-shutdown flag; the strongest order keeps it
        // trivially correct against the scanner/worker polling loads.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        if let Some(scanner) = self.scanner.take() {
            let _ = scanner.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RepairDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for RepairDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairDaemon")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn scan_once(shared: &Shared) -> Result<ScanReport> {
    let store = &shared.store;
    let lost_disks = store.unavailable_disks();
    // A transition, not a level: a disk that stays down gets one recovery
    // pass, and the passes after it audit (which is also what retries the
    // stripes whose repair failed).
    let newly_lost = {
        let mut queue = shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let newly_lost = lost_disks.iter().any(|disk| !queue.down.contains(disk));
        queue.down.clone_from(&lost_disks);
        newly_lost
    };
    let report = if newly_lost {
        let placed = store.chunks_on_disks(&lost_disks);
        let chunks = placed
            .iter()
            .map(|c| (&c.object, c.stripe, c.shard, c.disk));
        let enqueued_stripes = enqueue(shared, chunks, |enqueued| {
            let noun = if lost_disks.len() == 1 {
                "disk"
            } else {
                "disks"
            };
            let disks: Vec<String> = lost_disks.iter().map(usize::to_string).collect();
            format!(
                "{noun} {} unavailable: {} chunks from placement, no chunk read, enqueued {enqueued} stripes",
                disks.join(", "),
                placed.len()
            )
        });
        ScanReport {
            lost_disks,
            damaged_chunks: placed.len(),
            enqueued_stripes,
        }
    } else {
        let scrub = store.scrub_given(lost_disks)?;
        let chunks = scrub
            .damages
            .iter()
            .map(|d| (&d.object, d.stripe, d.shard, d.disk));
        let enqueued_stripes = enqueue(shared, chunks, |enqueued| {
            format!(
                "scan found {} damaged chunks, enqueued {enqueued} stripes",
                scrub.damages.len()
            )
        });
        ScanReport {
            lost_disks: scrub.lost_disks,
            damaged_chunks: scrub.damages.len(),
            enqueued_stripes,
        }
    };
    // Relaxed: stats tally, sampled only by stats().
    shared.scans.fetch_add(1, Ordering::Relaxed);
    Ok(report)
}

/// Groups `(object, stripe, shard, disk)` chunks into one task per stripe,
/// queues those not already pending most-at-risk first, journals the pass
/// (`describe` gets the number of stripes enqueued) and wakes the workers;
/// returns the number of stripes enqueued.
fn enqueue<'a>(
    shared: &Shared,
    chunks: impl Iterator<Item = (&'a String, u64, usize, usize)>,
    describe: impl FnOnce(usize) -> String,
) -> usize {
    let health = shared.store.health_snapshot();
    let severity = |disk: usize| health.get(disk).map_or(0, |h| h.state.severity());
    let mut by_stripe: BTreeMap<(&String, u64), (Vec<usize>, u64)> = BTreeMap::new();
    for (object, stripe, shard, disk) in chunks {
        let entry = by_stripe.entry((object, stripe)).or_default();
        entry.0.push(shard);
        entry.1 += severity(disk);
    }
    let mut ordered: Vec<_> = by_stripe.into_iter().collect();
    // Most at risk first. A stripe missing two shards is one failure nearer
    // to data loss than any stripe missing one (the paper's 1.87 % against
    // 98.08 %). Among equals, on a hardened store, damage on Suspect/Failed
    // disks goes first: those disks are losing ops right now. The sort is
    // stable, so what is left is manifest (object, stripe) order.
    ordered.sort_by_key(|(_, (shards, severity))| std::cmp::Reverse((shards.len(), *severity)));
    let mut enqueued = 0usize;
    {
        let mut queue = shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        for ((object, stripe), (damaged, _severity)) in ordered {
            if queue.pending.insert((object.clone(), stripe)) {
                queue.tasks.push_back(RepairTask {
                    object: object.clone(),
                    stripe,
                    damaged,
                });
                enqueued += 1;
            }
        }
        // Journal only scans that found work — a fast periodic scanner over
        // a healthy store would otherwise evict every interesting event.
        // The entry goes in before the queue lock is released, i.e. before
        // any worker can see (let alone finish) one of these tasks: journal
        // order is causal order, the scan ahead of the repairs it caused.
        if enqueued > 0 {
            shared.journal.push(EventKind::Scan, describe(enqueued));
        }
    }
    if enqueued > 0 {
        shared.work.notify_all();
    }
    enqueued
}

/// Undoes one task's queue bookkeeping when dropped: decrements
/// `queue.active`, removes the `pending` entry (so later scans can
/// re-enqueue the stripe), and wakes `wait_idle` waiters if the queue just
/// drained. Running this in a drop guard — not straight-line code — is what
/// keeps a panicking [`BlockStore::repair_stripe`] from leaking the
/// counters and hanging [`RepairDaemon::wait_idle`] forever.
struct TaskGuard<'a> {
    shared: &'a Shared,
    object: String,
    stripe: u64,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        let mut queue = self.shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        queue.active -= 1;
        queue
            .pending
            .remove(&(std::mem::take(&mut self.object), self.stripe));
        if queue.tasks.is_empty() && queue.active == 0 {
            self.shared.idle.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            loop {
                // Shutdown wins over queued work: in-flight repairs finish,
                // queued ones are dropped (as `shutdown` documents), so
                // stopping never waits on a long backlog of disk rebuilds.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.tasks.pop_front() {
                    queue.active += 1;
                    break task;
                }
                queue = shared.work.wait(queue).expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
            }
        };

        // From here to the end of the iteration the guard owns the task's
        // bookkeeping; a panic below unwinds through it instead of leaking
        // `active`/`pending`.
        let guard = TaskGuard {
            shared,
            object: task.object.clone(),
            stripe: task.stripe,
        };
        // Contain panics at the task boundary: the worker thread survives,
        // the panic becomes a counted failure, and the stripe stays
        // repairable by a later scan.
        let result = catch_unwind(AssertUnwindSafe(|| {
            shared
                .store
                .repair_stripe(&task.object, task.stripe, &task.damaged)
        }))
        .unwrap_or_else(|payload| {
            Err(StoreError::WorkerPanic {
                context: format!(
                    "repair of {:?} stripe {}: {}",
                    task.object,
                    task.stripe,
                    panic_message(payload.as_ref())
                ),
            })
        });
        match result {
            Ok(repair) => {
                // Relaxed, this whole block: independent stats tallies,
                // sampled only by stats(); they publish no other memory.
                shared.stripes_repaired.fetch_add(1, Ordering::Relaxed);
                shared
                    .chunks_repaired
                    // Relaxed: see block comment above.
                    .fetch_add(repair.rebuilt.len() as u64, Ordering::Relaxed);
                shared
                    .helper_bytes
                    // Relaxed: see block comment above.
                    .fetch_add(repair.helper_bytes, Ordering::Relaxed);
                shared
                    .intra_rack_bytes
                    // Relaxed: see block comment above.
                    .fetch_add(repair.intra_rack_bytes, Ordering::Relaxed);
                shared
                    .cross_rack_bytes
                    // Relaxed: see block comment above.
                    .fetch_add(repair.cross_rack_bytes, Ordering::Relaxed);
                shared
                    .bytes_written
                    // Relaxed: see block comment above.
                    .fetch_add(repair.bytes_written, Ordering::Relaxed);
                shared.journal.push(
                    EventKind::Repair,
                    format!(
                        "repaired {:?} stripe {}: {} chunks rebuilt, {} helper bytes",
                        task.object,
                        task.stripe,
                        repair.rebuilt.len(),
                        repair.helper_bytes
                    ),
                );
            }
            Err(e) => {
                // Relaxed: stats tally, sampled only by stats().
                shared.failures.fetch_add(1, Ordering::Relaxed);
                let kind = match &e {
                    StoreError::WorkerPanic { .. } => EventKind::Panic,
                    _ => EventKind::Error,
                };
                shared.journal.push(
                    kind,
                    format!(
                        "repair of {:?} stripe {} failed: {e}",
                        task.object, task.stripe
                    ),
                );
            }
        }
        drop(guard);
    }
}

fn scanner_loop(shared: &Shared, interval: Duration) {
    // SeqCst: shutdown poll, once per scan interval; pairs with the
    // store in stop_and_join.
    while !shared.shutdown.load(Ordering::SeqCst) {
        if let Err(e) = scan_once(shared) {
            shared
                .journal
                .push(EventKind::Error, format!("scan failed: {e}"));
            // Relaxed: stats tally, sampled only by stats().
            shared.failures.fetch_add(1, Ordering::Relaxed);
        }
        // Sleep in small slices so shutdown stays responsive.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = (interval - slept).min(Duration::from_millis(20));
            thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::testing::TempDir;
    use std::fs;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 17 + 3) % 253) as u8).collect()
    }

    fn store_with_object(dir: &TempDir, spec: &str, len: usize) -> Arc<BlockStore> {
        let spec = spec.parse().unwrap();
        let store = Arc::new(
            BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(512))
                .unwrap(),
        );
        store.put("obj", &pattern(len)[..]).unwrap();
        store
    }

    #[test]
    fn daemon_rebuilds_a_lost_disk() {
        let dir = TempDir::new("daemon-lost-disk");
        let store = store_with_object(&dir, "piggyback-4-2", 4 * 512 * 3 + 5);
        fs::remove_dir_all(store.disk_path(0)).unwrap();

        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        let scan = daemon.scan_now().unwrap();
        assert_eq!(scan.lost_disks, vec![0]);
        assert_eq!(scan.damaged_chunks, 4);
        assert_eq!(scan.enqueued_stripes, 4);
        daemon.wait_idle();

        // A second scan finds nothing new.
        let rescan = daemon.scan_now().unwrap();
        assert_eq!(rescan.damaged_chunks, 0);
        assert_eq!(rescan.enqueued_stripes, 0);

        let stats = daemon.shutdown();
        assert_eq!(stats.scans, 2);
        assert_eq!(stats.stripes_repaired, 4);
        assert_eq!(stats.chunks_repaired, 4);
        assert!(stats.helper_bytes > 0);
        assert_eq!(stats.failures, 0);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), pattern(4 * 512 * 3 + 5));
    }

    #[test]
    fn periodic_scanner_repairs_without_manual_scans() {
        let dir = TempDir::new("daemon-periodic");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * 2);
        fs::remove_dir_all(store.disk_path(5)).unwrap();

        let daemon = RepairDaemon::start(
            Arc::clone(&store),
            DaemonConfig {
                workers: 2,
                scan_interval: Some(Duration::from_millis(10)),
            },
        );
        // Poll until the background loop has healed the store.
        for _ in 0..500 {
            if daemon.stats().chunks_repaired >= 2 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.shutdown();
        assert!(stats.scans >= 1);
        assert_eq!(stats.chunks_repaired, 2);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn unrecoverable_damage_is_a_counted_failure() {
        let dir = TempDir::new("daemon-failure");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512);
        for disk in [0, 1, 2] {
            fs::remove_dir_all(store.disk_path(disk)).unwrap();
        }
        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        daemon.scan_now().unwrap();
        daemon.wait_idle();
        let stats = daemon.shutdown();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.chunks_repaired, 0);
    }

    #[test]
    fn dropping_the_daemon_joins_its_threads() {
        let dir = TempDir::new("daemon-drop");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512);
        fs::remove_dir_all(store.disk_path(1)).unwrap();
        {
            let daemon = RepairDaemon::start(
                Arc::clone(&store),
                DaemonConfig {
                    workers: 2,
                    scan_interval: Some(Duration::from_millis(5)),
                },
            );
            daemon.scan_now().unwrap();
            daemon.wait_idle();
            // No shutdown(): Drop must stop the scanner and join everything
            // (a leak would hang the test binary at exit instead).
        }
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn panicking_repair_worker_cannot_hang_wait_idle() {
        let dir = TempDir::new("daemon-panic");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * 3);
        fs::remove_dir_all(store.disk_path(2)).unwrap();

        // Every repair_stripe call panics: wait_idle must still return,
        // the panics must be counted as failures, and the pending entries
        // must be released so a later scan can re-enqueue the stripes.
        store.inject_repair_panic(true);
        let daemon = RepairDaemon::start(
            Arc::clone(&store),
            DaemonConfig {
                workers: 2,
                scan_interval: None,
            },
        );
        let scan = daemon.scan_now().unwrap();
        assert_eq!(scan.enqueued_stripes, 3);
        daemon.wait_idle(); // the bug: this used to block forever
        let stats = daemon.stats();
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.chunks_repaired, 0);
        // The journal carries the failures as structured events.
        let panics: Vec<_> = daemon
            .recent_events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Panic)
            .collect();
        assert_eq!(panics.len(), 3, "one Panic event per failed stripe");
        assert!(panics.iter().all(|e| e.detail.contains("panic")));

        // The workers survived their panics and the stripes were not
        // poisoned: heal everything on the next scan.
        store.inject_repair_panic(false);
        let rescan = daemon.scan_now().unwrap();
        assert_eq!(rescan.enqueued_stripes, 3, "pending entries were leaked");
        daemon.wait_idle();
        let stats = daemon.shutdown();
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.chunks_repaired, 3);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), pattern(4 * 512 * 3));
    }

    #[test]
    fn journal_stays_bounded_under_concurrent_workers() {
        let dir = TempDir::new("daemon-journal");
        // 70 stripes: enough repair events to overflow the 64-entry ring
        // while four workers push concurrently.
        let stripes = 70usize;
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * stripes);
        fs::remove_dir_all(store.disk_path(3)).unwrap();

        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        let scan = daemon.scan_now().unwrap();
        assert_eq!(scan.enqueued_stripes, stripes);
        daemon.wait_idle();

        let events = daemon.recent_events();
        assert_eq!(events.len(), EVENT_JOURNAL_CAPACITY);
        // 1 Scan + 70 Repair events were pushed; the ring kept the newest.
        assert!(daemon.events_dropped() >= (stripes as u64 + 1) - EVENT_JOURNAL_CAPACITY as u64);
        assert!(events.iter().all(|e| e.kind == EventKind::Repair));
        assert!(events.iter().all(|e| e.detail.contains("chunks rebuilt")));
        // Events are oldest-first and timestamps never go backwards.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }

        let stats = daemon.shutdown();
        assert_eq!(stats.stripes_repaired, stripes as u64);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn a_scan_is_journaled_before_its_tasks_can_be_taken() {
        use std::sync::{OnceLock, TryLockError};
        use std::time::SystemTime;

        let dir = TempDir::new("daemon-scan-order");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * 2);
        fs::remove_dir_all(store.disk_path(1)).unwrap();

        // No workers at all: the only thread that can hold the queue lock
        // is the scan itself. The journal's clock runs inside `push`, so a
        // locked queue at that instant means the `Scan` entry lands before
        // a worker could take — never mind finish and journal — any task
        // this scan enqueued; a free queue means the tasks were already up
        // for grabs with the scan not yet on record.
        let shared: Arc<OnceLock<Arc<Shared>>> = Arc::new(OnceLock::new());
        let clock = {
            let shared = Arc::clone(&shared);
            move || {
                let queue = &shared.get().expect("set before the scan").queue;
                assert!(
                    matches!(queue.try_lock(), Err(TryLockError::WouldBlock)),
                    "tasks were visible to workers before the scan was journaled"
                );
                SystemTime::now()
            }
        };
        let daemon = Arc::new(Shared::new(
            store,
            EventJournal::with_clock(EVENT_JOURNAL_CAPACITY, clock),
        ));
        assert!(shared.set(Arc::clone(&daemon)).is_ok());

        let scan = scan_once(&daemon).unwrap();
        assert_eq!(scan.enqueued_stripes, 2);
        let events = daemon.journal.recent();
        assert_eq!(events.len(), 1, "the clock (and its assertion) ran once");
        assert_eq!(events[0].kind, EventKind::Scan);
        assert_eq!(daemon.queue.lock().unwrap().tasks.len(), 2);
    }

    /// A daemon with no threads: passes run on the test's own thread via
    /// `scan_once`, and the queue keeps what they enqueued.
    fn workerless(store: &Arc<BlockStore>) -> Shared {
        Shared::new(Arc::clone(store), EventJournal::new(EVENT_JOURNAL_CAPACITY))
    }

    fn queued(daemon: &Shared) -> Vec<RepairTask> {
        daemon.queue.lock().unwrap().tasks.iter().cloned().collect()
    }

    #[test]
    fn a_lost_disk_is_enqueued_without_reading_a_chunk() {
        let dir = TempDir::new("daemon-no-chunk-io");
        let stripes = 5usize;
        let store = store_with_object(&dir, "piggyback-4-2", 4 * 512 * stripes);
        fs::remove_dir_all(store.disk_path(4)).unwrap();

        let daemon = workerless(&store);
        let before = store.metrics();
        let scan = scan_once(&daemon).unwrap();
        let after = store.metrics();
        assert_eq!(after.chunks_scrubbed, before.chunks_scrubbed);
        assert_eq!(after.scrub_bytes_read, before.scrub_bytes_read);

        assert_eq!(scan.lost_disks, vec![4]);
        assert_eq!(scan.damaged_chunks, stripes);
        assert_eq!(scan.enqueued_stripes, stripes);
        let expected: Vec<RepairTask> = (0..stripes as u64)
            .map(|stripe| RepairTask {
                object: "obj".into(),
                stripe,
                damaged: vec![4],
            })
            .collect();
        assert_eq!(queued(&daemon), expected);
        let events = daemon.journal.recent();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].detail.starts_with("disk 4 unavailable: 5 chunks"),
            "{:?}",
            events[0].detail
        );
    }

    #[test]
    fn two_lost_disks_sharing_a_stripe_make_one_task() {
        let dir = TempDir::new("daemon-two-disks");
        let stripes = 3u64;
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * stripes as usize);
        for disk in [1, 4] {
            fs::remove_dir_all(store.disk_path(disk)).unwrap();
        }

        let probe = workerless(&store);
        let scan = scan_once(&probe).unwrap();
        assert_eq!(scan.lost_disks, vec![1, 4]);
        assert_eq!(scan.damaged_chunks, 2 * stripes as usize);
        assert_eq!(scan.enqueued_stripes, stripes as usize);
        assert!(queued(&probe).iter().all(|t| t.damaged == [1, 4]));

        // One repair per stripe rebuilds both shards from one read of the
        // k survivors it decodes from.
        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        daemon.scan_now().unwrap();
        daemon.wait_idle();
        let stats = daemon.shutdown();
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.stripes_repaired, stripes);
        assert_eq!(stats.chunks_repaired, 2 * stripes);
        assert_eq!(stats.helper_bytes, stripes * 4 * 512);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn a_recovery_pass_follows_a_transition_not_a_level() {
        let dir = TempDir::new("daemon-transition");
        let stripes = 3usize;
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * stripes);
        let chunks = (stripes * 6) as u64;
        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        // One pass run to completion, with the chunk payload bytes it and
        // its repairs verified: none for a recovery pass, every chunk that
        // is there for an audit.
        let pass = || {
            let before = store.metrics().scrub_bytes_read;
            let report = daemon.scan_now().unwrap();
            daemon.wait_idle();
            (report, store.metrics().scrub_bytes_read - before)
        };

        // Pass 1, disk 2 newly gone: recovery. Its repairs all fail.
        fs::remove_dir_all(store.disk_path(2)).unwrap();
        store.inject_repair_panic(true);
        let (scan, read) = pass();
        assert_eq!((scan.enqueued_stripes, read), (stripes, 0));
        assert_eq!(daemon.stats().failures, stripes as u64);

        // Pass 2, disk 2 still gone: that is a level, so the pass audits —
        // and finds the same stripes again.
        store.inject_repair_panic(false);
        let (scan, read) = pass();
        assert_eq!(scan.lost_disks, vec![2]);
        assert_eq!(scan.enqueued_stripes, stripes);
        assert_eq!(read, (chunks - stripes as u64) * 512);
        assert_eq!(daemon.stats().chunks_repaired, stripes as u64);

        // Pass 3 sees the disk back (an audit, and clean)...
        let (scan, read) = pass();
        assert_eq!((scan.lost_disks, scan.damaged_chunks), (vec![], 0));
        assert_eq!(read, chunks * 512);

        // ...so losing it again is a new transition: recovery once more.
        fs::remove_dir_all(store.disk_path(2)).unwrap();
        let (scan, read) = pass();
        assert_eq!((scan.enqueued_stripes, read), (stripes, 0));
        let stats = daemon.shutdown();
        assert_eq!(stats.chunks_repaired, 2 * stripes as u64);
        assert_eq!(stats.failures, stripes as u64);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn stripes_missing_more_shards_are_queued_first() {
        let dir = TempDir::new("daemon-most-at-risk");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * 3);
        // Manifest order is stripe 0, 1, 2; stripe 2 is the one that is a
        // single failure away from data loss.
        fs::remove_file(store.chunk_path("obj", 0, 3)).unwrap();
        fs::remove_file(store.chunk_path("obj", 2, 0)).unwrap();
        fs::remove_file(store.chunk_path("obj", 2, 5)).unwrap();
        fs::remove_file(store.chunk_path("obj", 1, 1)).unwrap();

        let daemon = workerless(&store);
        scan_once(&daemon).unwrap();
        let order: Vec<(u64, Vec<usize>)> = queued(&daemon)
            .into_iter()
            .map(|t| (t.stripe, t.damaged))
            .collect();
        assert_eq!(
            order,
            [(2, vec![0, 5]), (0, vec![3]), (1, vec![1])],
            "two-shard stripe first, then manifest order"
        );
    }

    #[test]
    fn scan_events_are_journaled_when_damage_is_found() {
        let dir = TempDir::new("daemon-scan-event");
        let store = store_with_object(&dir, "rs-4-2", 4 * 512 * 2);
        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());

        // A clean scan journals nothing.
        daemon.scan_now().unwrap();
        assert!(daemon.recent_events().is_empty());

        fs::remove_dir_all(store.disk_path(1)).unwrap();
        daemon.scan_now().unwrap();
        daemon.wait_idle();
        let events = daemon.recent_events();
        assert_eq!(events[0].kind, EventKind::Scan);
        assert!(events[0].detail.contains("enqueued 2 stripes"));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::Repair)
                .count(),
            2
        );
        daemon.shutdown();
    }

    #[test]
    fn wait_idle_returns_immediately_when_clean() {
        let dir = TempDir::new("daemon-idle");
        let store = store_with_object(&dir, "rep-3", 100);
        let daemon = RepairDaemon::start(
            store,
            DaemonConfig {
                workers: 1,
                scan_interval: None,
            },
        );
        daemon.wait_idle();
        let scan = daemon.scan_now().unwrap();
        assert_eq!(scan.enqueued_stripes, 0);
        daemon.wait_idle();
        assert_eq!(daemon.shutdown().stripes_repaired, 0);
    }
}
