//! The background repair daemon.
//!
//! A [`RepairDaemon`] owns a pool of `std::thread` workers fed by a shared
//! scan/enqueue queue. A scan pass ([`RepairDaemon::scan_now`], or a
//! periodic scanner thread when [`DaemonConfig::scan_interval`] is set)
//! scrubs every chunk of the store, groups the damage it finds by stripe,
//! and enqueues one repair task per damaged stripe; workers pop tasks and
//! call [`BlockStore::repair_stripe`], which rebuilds missing or corrupt
//! chunks along each code's cheapest repair path. The daemon's counters
//! (and the store's [`crate::metrics::MetricsSnapshot`]) report the helper
//! bytes that crossed disks — the store-level reproduction of the paper's
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
use crate::store::{panic_message, BlockStore, ScrubReport};

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
    /// Disk indices whose directory is missing entirely.
    pub lost_disks: Vec<usize>,
    /// Damaged chunks found by the scrub.
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
    /// panics); replaces the old single-slot `last_error` string.
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

    /// Runs one scan pass now: scrub the store, enqueue a repair task for
    /// every damaged stripe not already queued, and wake the workers.
    ///
    /// # Errors
    ///
    /// Propagates hard I/O failures from the scrub.
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

    /// The most recent repair failure, if any.
    ///
    /// Compatibility shim over the event journal: returns the detail of the
    /// latest `Error`/`Panic` event. Prefer [`RepairDaemon::recent_events`]
    /// for the full structured history.
    pub fn last_error(&self) -> Option<String> {
        self.shared.journal.last_failure()
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
    let scrub: ScrubReport = shared.store.scrub()?;
    // On a hardened store, stripes whose damage sits on Suspect/Failed
    // disks repair first: those disks are actively losing ops right now,
    // so their stripes are the closest to dropping below k survivors.
    let health = shared.store.health_snapshot();
    let severity = |disk: usize| health.get(disk).map_or(0, |h| h.state.severity());
    let mut by_stripe: BTreeMap<(String, u64), (Vec<usize>, u64)> = BTreeMap::new();
    for damage in &scrub.damages {
        let entry = by_stripe
            .entry((damage.object.clone(), damage.stripe))
            .or_default();
        entry.0.push(damage.shard);
        entry.1 += severity(damage.disk);
    }
    let damaged_chunks = scrub.damages.len();
    let mut ordered: Vec<_> = by_stripe.into_iter().collect();
    // Stable sort: manifest (object, stripe) order within equal priority.
    ordered.sort_by_key(|entry| std::cmp::Reverse(entry.1 .1));
    let mut enqueued = 0usize;
    {
        let mut queue = shared.queue.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        for ((object, stripe), (damaged, _priority)) in ordered {
            if queue.pending.insert((object.clone(), stripe)) {
                queue.tasks.push_back(RepairTask {
                    object,
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
            shared.journal.push(
                EventKind::Scan,
                format!("scan found {damaged_chunks} damaged chunks, enqueued {enqueued} stripes"),
            );
        }
    }
    if enqueued > 0 {
        shared.work.notify_all();
    }
    // Relaxed: stats tally, sampled only by stats().
    shared.scans.fetch_add(1, Ordering::Relaxed);
    Ok(ScanReport {
        lost_disks: scrub.lost_disks,
        damaged_chunks,
        enqueued_stripes: enqueued,
    })
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
        assert!(
            daemon.last_error().unwrap().contains("panic"),
            "last_error must name the panic: {:?}",
            daemon.last_error()
        );
        // The journal carries the same failures as structured events.
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
        assert!(daemon.last_error().is_none(), "no failures occurred");

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
