//! Deadline enforcement over any [`ChunkBackend`].
//!
//! The store's I/O is synchronous: a backend that *stalls* (rather than
//! errors) pins the calling worker for as long as the stall lasts — a
//! remote disk's request timeout bounds that for chunkd mounts, but a
//! local disk on a sick device, or any backend wrapped by a `stall`
//! fault, can hold a thread forever. A [`GuardedDisk`] wraps a backend
//! with a small executor: ops run on the executor's threads, the calling
//! worker waits at most the configured deadline, and a late op is
//! *abandoned* — the caller gets [`ChunkStatus::Missing`] (reads) or a
//! `TimedOut` error (writes) within the deadline, and the store routes
//! around the disk exactly as it routes around a dead one.
//!
//! Every outcome feeds the disk's [`DiskHealth`]: timeouts and errors
//! demote it toward Suspect/Failed, and once the breaker trips,
//! [`GuardedDisk`] sheds ordinary ops without touching the backend at
//! all (fast `Missing`), letting one probe through per interval.
//!
//! An abandoned op's thread is stuck until the backend unsticks; the
//! executor spawns a replacement (up to [`MAX_WORKERS`]) so later ops
//! still run. When every worker slot is stuck the guard fails ops
//! immediately — by then the disk has long since been demoted and the
//! breaker sheds almost everything anyway.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::backend::{BackendCounters, ChunkBackend, PendingWrite, ReadyWrite};
use crate::chunk::{ChunkId, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};
use crate::health::{Admission, DiskHealth, HealthTracker, Outcome, Transition};

/// Ceiling on executor threads per guarded disk. Each abandoned (stuck)
/// op burns one slot until the backend unsticks; beyond the ceiling the
/// guard fails fast instead of spawning more.
pub const MAX_WORKERS: usize = 4;

type Job = Box<dyn FnOnce() + Send>;

struct Executor {
    tx: mpsc::Sender<Job>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    /// Threads spawned so far.
    live: AtomicUsize,
    /// Threads currently inside a job (stuck ones count forever).
    busy: Arc<AtomicUsize>,
    name: String,
}

impl Executor {
    fn new(name: String) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        Executor {
            tx,
            rx: Arc::new(Mutex::new(rx)),
            live: AtomicUsize::new(0),
            busy: Arc::new(AtomicUsize::new(0)),
            name,
        }
    }

    /// Submits a job, spawning a worker if none is idle. Returns false
    /// when every worker slot is stuck in an abandoned op.
    fn submit(&self, job: Job) -> bool {
        let live = self.live.load(Ordering::Acquire);
        let busy = self.busy.load(Ordering::Acquire);
        if busy >= live {
            if live >= MAX_WORKERS {
                return false;
            }
            let rx = Arc::clone(&self.rx);
            let busy = Arc::clone(&self.busy);
            let spawned = std::thread::Builder::new()
                .name(format!("guard-{}", self.name))
                .spawn(move || loop {
                    let job = {
                        let guard = rx.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
                        guard.recv()
                    };
                    let Ok(job) = job else { return };
                    busy.fetch_add(1, Ordering::AcqRel);
                    job();
                    busy.fetch_sub(1, Ordering::AcqRel);
                })
                .is_ok();
            if spawned {
                self.live.fetch_add(1, Ordering::AcqRel);
            } else if live == 0 {
                return false;
            }
        }
        self.tx.send(job).is_ok()
    }
}

/// A deadline-enforcing, health-tracking wrapper around one pool disk.
pub struct GuardedDisk {
    inner: Arc<dyn ChunkBackend>,
    deadline: Duration,
    health: Arc<HealthTracker>,
    disk: usize,
    executor: Executor,
    /// Where health transitions go (journal + metrics), if anywhere.
    on_transition: Option<Arc<dyn Fn(Transition) + Send + Sync>>,
}

impl std::fmt::Debug for GuardedDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedDisk")
            .field("inner", &self.inner.describe())
            .field("deadline", &self.deadline)
            .field("state", &self.health.disk(self.disk).state())
            .finish()
    }
}

impl GuardedDisk {
    /// Wraps `inner` as pool disk `disk`, bounding every op at
    /// `deadline` and feeding outcomes into `health`.
    pub fn new(
        inner: Arc<dyn ChunkBackend>,
        disk: usize,
        deadline: Duration,
        health: Arc<HealthTracker>,
        on_transition: Option<Arc<dyn Fn(Transition) + Send + Sync>>,
    ) -> Self {
        GuardedDisk {
            executor: Executor::new(format!("disk-{disk:02}")),
            inner,
            deadline,
            health,
            disk,
            on_transition,
        }
    }

    fn me(&self) -> &DiskHealth {
        self.health.disk(self.disk)
    }

    fn record(&self, outcome: Outcome) {
        if let Some(t) = self.health.record(self.disk, outcome) {
            if let Some(hook) = &self.on_transition {
                hook(t);
            }
        }
    }

    /// Runs `op` on the executor with a deadline; `Err(())` = timed out
    /// or no worker available (both recorded as timeouts).
    fn run_with_deadline<T: Send + 'static>(
        &self,
        deadline: Duration,
        op: impl FnOnce(&dyn ChunkBackend) -> T + Send + 'static,
    ) -> std::result::Result<T, ()> {
        let (tx, rx) = mpsc::sync_channel(1);
        let inner = Arc::clone(&self.inner);
        let submitted = self.executor.submit(Box::new(move || {
            // The receiver may be long gone (abandoned op): ignore.
            let _ = tx.send(op(inner.as_ref()));
        }));
        if !submitted {
            self.record(Outcome::Timeout);
            return Err(());
        }
        match rx.recv_timeout(deadline) {
            Ok(v) => Ok(v),
            Err(_) => {
                self.record(Outcome::Timeout);
                Err(())
            }
        }
    }

    /// Shared read-shaped flow: breaker check, deadline run, outcome
    /// recording. `shed`/`timeout` name the result for a shed op and an
    /// abandoned op respectively.
    fn guarded_read<T: Send + 'static>(
        &self,
        deadline: Duration,
        op: impl FnOnce(&dyn ChunkBackend) -> ChunkRead<T> + Send + 'static,
    ) -> ChunkRead<T> {
        match self.me().admit() {
            Admission::Shed => return Ok(Err(ChunkStatus::Missing)),
            Admission::Allow | Admission::Probe => {}
        }
        match self.run_with_deadline(deadline, op) {
            Ok(Ok(inner)) => {
                match &inner {
                    Ok(_) | Err(ChunkStatus::Missing) => self.record(Outcome::Ok),
                    Err(ChunkStatus::Corrupt { .. }) | Err(ChunkStatus::Healthy) => {
                        self.record(Outcome::Error)
                    }
                }
                Ok(inner)
            }
            // Degrade, don't fail: on a hardened store a sick disk's hard
            // read error is routed around exactly like a missing chunk —
            // the error itself lives on in the disk's health record.
            Ok(Err(_)) => {
                self.record(Outcome::Error);
                Ok(Err(ChunkStatus::Missing))
            }
            Err(()) => Ok(Err(ChunkStatus::Missing)),
        }
    }

    /// Like [`ChunkBackend::read_chunk_range`] but bounded at `deadline`
    /// instead of the disk's configured one — the hedged-read primitive:
    /// the store gives the first-choice helper set a shorter budget and
    /// switches survivor sets when it expires.
    pub fn read_chunk_range_deadline(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
        deadline: Duration,
    ) -> ChunkRead<()> {
        let object = object.to_string();
        let len = out.len();
        let result = self.guarded_read(deadline.min(self.deadline), move |disk| {
            let mut buf = vec![0u8; len];
            disk.read_chunk_range(&object, id, chunk_len, offset, &mut buf)
                .map(|inner| inner.map(|()| buf))
        });
        match result? {
            Ok(buf) => {
                out.copy_from_slice(&buf);
                Ok(Ok(()))
            }
            Err(status) => Ok(Err(status)),
        }
    }
}

impl ChunkBackend for GuardedDisk {
    fn describe(&self) -> String {
        format!("guarded({}, {:?})", self.inner.describe(), self.deadline)
    }

    fn is_available(&self) -> bool {
        match self.me().admit() {
            Admission::Shed => false,
            Admission::Allow | Admission::Probe => self
                .run_with_deadline(self.deadline, |disk| disk.is_available())
                .unwrap_or(false),
        }
    }

    fn ensure_object(&self, object: &str) -> Result<()> {
        let name = object.to_string();
        let result = self.run_with_deadline(self.deadline, move |disk| disk.ensure_object(&name));
        self.settle_write(object, result)
    }

    fn remove_object(&self, object: &str) -> Result<()> {
        let name = object.to_string();
        match self.run_with_deadline(self.deadline, move |disk| disk.remove_object(&name)) {
            Ok(result) => result,
            Err(()) => Err(self.timeout_error(object)),
        }
    }

    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<()> {
        let name = object.to_string();
        let payload = payload.to_vec();
        let result = self.run_with_deadline(self.deadline, move |disk| {
            disk.write_chunk(&name, id, &payload)
        });
        self.settle_write(object, result)
    }

    /// The inner backend's own zero write, so a networked disk still sends
    /// only the length. It finishes under the deadline before returning.
    fn begin_write_zeros<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        len: usize,
    ) -> Box<dyn PendingWrite + 'a> {
        let name = object.to_string();
        let result = self.run_with_deadline(self.deadline, move |disk| {
            disk.begin_write_zeros(&name, id, len).wait()
        });
        Box::new(ReadyWrite(self.settle_write(object, result)))
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        let name = object.to_string();
        let len = out.len();
        let result = self.guarded_read(self.deadline, move |disk| {
            let mut buf = vec![0u8; len];
            disk.read_chunk_into(&name, id, &mut buf)
                .map(|inner| inner.map(|()| buf))
        });
        match result? {
            Ok(buf) => {
                out.copy_from_slice(&buf);
                Ok(Ok(()))
            }
            Err(status) => Ok(Err(status)),
        }
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        self.read_chunk_range_deadline(object, id, chunk_len, offset, out, self.deadline)
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64)> {
        match self.me().admit() {
            Admission::Shed => return Ok((ChunkStatus::Missing, 0)),
            Admission::Allow | Admission::Probe => {}
        }
        let name = object.to_string();
        match self.run_with_deadline(self.deadline, move |disk| {
            disk.verify_chunk(&name, id, chunk_len)
        }) {
            Ok(Ok(verdict)) => {
                match &verdict {
                    (ChunkStatus::Corrupt { .. }, _) => self.record(Outcome::Error),
                    _ => self.record(Outcome::Ok),
                }
                Ok(verdict)
            }
            // Degrade like a read: a hard verify error reports the chunk
            // missing and charges the disk's health.
            Ok(Err(_)) => {
                self.record(Outcome::Error);
                Ok((ChunkStatus::Missing, 0))
            }
            Err(()) => Ok((ChunkStatus::Missing, 0)),
        }
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>> {
        match self.run_with_deadline(self.deadline, move |disk| disk.sweep_tmp(min_age)) {
            Ok(result) => result,
            Err(()) => Ok(Vec::new()), // nothing sweepable within deadline
        }
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn drain_spans(&self) -> Vec<pbrs_obs::trace::SpanRecord> {
        // Span shipping is cheap metadata; no deadline gate needed.
        self.inner.drain_spans()
    }
}

impl GuardedDisk {
    /// Records a write-shaped op's outcome on the disk's health and turns
    /// an abandoned op into a `TimedOut` error.
    fn settle_write(
        &self,
        object: &str,
        result: std::result::Result<Result<()>, ()>,
    ) -> Result<()> {
        match result {
            Ok(result) => {
                self.record(if result.is_ok() {
                    Outcome::Ok
                } else {
                    Outcome::Error
                });
                result
            }
            Err(()) => Err(self.timeout_error(object)),
        }
    }

    fn timeout_error(&self, object: &str) -> StoreError {
        StoreError::io(
            format!("guard://disk-{:02}/{object}", self.disk),
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "op on {} exceeded the {:?} deadline",
                    self.inner.describe(),
                    self.deadline
                ),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalDisk;
    use crate::fault::{FaultPlan, FaultyBackend};
    use crate::health::{DiskState, HealthPolicy};
    use crate::testing::TempDir;
    use std::time::Instant;

    const ID: ChunkId = ChunkId {
        stripe: 0,
        shard: 0,
    };

    fn tracker() -> Arc<HealthTracker> {
        Arc::new(HealthTracker::new(
            4,
            HealthPolicy {
                window: 8,
                suspect_failures: 2,
                failed_failures: 6,
                probe_interval: Duration::from_secs(60),
                recovery_successes: 2,
            },
            None,
        ))
    }

    fn guarded_local(dir: &TempDir, deadline: Duration) -> (GuardedDisk, Arc<HealthTracker>) {
        let tracker = tracker();
        let disk = GuardedDisk::new(
            Arc::new(LocalDisk::new(dir.path().join("disk"))),
            0,
            deadline,
            Arc::clone(&tracker),
            None,
        );
        (disk, tracker)
    }

    #[test]
    fn healthy_ops_pass_through() {
        let dir = TempDir::new("guard-ok");
        let (disk, tracker) = guarded_local(&dir, Duration::from_secs(5));
        disk.ensure_object("obj").unwrap();
        disk.write_chunk("obj", ID, &[9u8; 128]).unwrap();
        let mut buf = [0u8; 128];
        disk.read_chunk_into("obj", ID, &mut buf).unwrap().unwrap();
        assert_eq!(buf, [9u8; 128]);
        let mut range = [0u8; 64];
        disk.read_chunk_range("obj", ID, 128, 64, &mut range)
            .unwrap()
            .unwrap();
        assert_eq!(range, [9u8; 64]);
        assert_eq!(tracker.disk(0).state(), DiskState::Healthy);
        assert_eq!(tracker.total_timeouts(), 0);
    }

    #[test]
    fn stalled_reads_return_missing_within_the_deadline_and_demote() {
        let dir = TempDir::new("guard-stall");
        let plan = Arc::new(FaultPlan::parse("op=read stall", 7).unwrap());
        let inner: Arc<dyn ChunkBackend> = Arc::new(LocalDisk::new(dir.path().join("disk")));
        inner.ensure_object("obj").unwrap();
        inner.write_chunk("obj", ID, &[1u8; 64]).unwrap();
        let tracker = tracker();
        let disk = GuardedDisk::new(
            Arc::new(FaultyBackend::new(inner, Arc::clone(&plan), 0)),
            0,
            Duration::from_millis(80),
            Arc::clone(&tracker),
            None,
        );
        let mut buf = [0u8; 64];
        let start = Instant::now();
        let first = disk.read_chunk_into("obj", ID, &mut buf).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(first, Err(ChunkStatus::Missing));
        assert!(
            elapsed < Duration::from_millis(500),
            "deadline did not bound the stall: {elapsed:?}"
        );
        // Second timeout trips the breaker (suspect_failures = 2)…
        assert_eq!(
            disk.read_chunk_into("obj", ID, &mut buf).unwrap(),
            Err(ChunkStatus::Missing)
        );
        assert_eq!(tracker.disk(0).state(), DiskState::Suspect);
        assert_eq!(tracker.total_timeouts(), 2);
        // …after which ops shed fast: the probe interval is 60 s, so the
        // next reads never touch the stalled backend.
        let t0 = Instant::now();
        let _ = disk.read_chunk_into("obj", ID, &mut buf);
        for _ in 0..8 {
            assert_eq!(
                disk.read_chunk_into("obj", ID, &mut buf).unwrap(),
                Err(ChunkStatus::Missing)
            );
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "breaker must shed without waiting on the stall: {:?}",
            t0.elapsed()
        );
        assert!(tracker.disk(0).shed_count() >= 8);
        plan.release();
    }

    #[test]
    fn stalled_writes_error_within_the_deadline() {
        let dir = TempDir::new("guard-stall-write");
        let plan = Arc::new(FaultPlan::parse("op=write stall", 7).unwrap());
        let inner: Arc<dyn ChunkBackend> = Arc::new(LocalDisk::new(dir.path().join("disk")));
        inner.ensure_object("obj").unwrap();
        let tracker = tracker();
        let disk = GuardedDisk::new(
            Arc::new(FaultyBackend::new(inner, Arc::clone(&plan), 0)),
            0,
            Duration::from_millis(80),
            tracker,
            None,
        );
        let err = disk.write_chunk("obj", ID, &[0u8; 16]).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { source, .. }
                if source.kind() == std::io::ErrorKind::TimedOut),
            "{err}"
        );
        plan.release();
    }

    #[test]
    fn errors_demote_and_recovery_probes_promote() {
        let dir = TempDir::new("guard-recover");
        // First 2 reads fail hard, everything after runs clean.
        let plan = Arc::new(FaultPlan::parse("op=read error count=2", 7).unwrap());
        let inner: Arc<dyn ChunkBackend> = Arc::new(LocalDisk::new(dir.path().join("disk")));
        inner.ensure_object("obj").unwrap();
        inner.write_chunk("obj", ID, &[5u8; 64]).unwrap();
        let tracker = Arc::new(HealthTracker::new(
            1,
            HealthPolicy {
                window: 8,
                suspect_failures: 2,
                failed_failures: 6,
                probe_interval: Duration::ZERO, // every op is a probe
                recovery_successes: 2,
            },
            None,
        ));
        let disk = GuardedDisk::new(
            Arc::new(FaultyBackend::new(inner, plan, 0)),
            0,
            Duration::from_secs(5),
            Arc::clone(&tracker),
            None,
        );
        let mut buf = [0u8; 64];
        for _ in 0..2 {
            let _ = disk.read_chunk_into("obj", ID, &mut buf);
        }
        assert_eq!(tracker.disk(0).state(), DiskState::Suspect);
        // Probe interval is zero: the next ops run for real and succeed,
        // promoting the disk back.
        for _ in 0..2 {
            let _ = disk.read_chunk_into("obj", ID, &mut buf);
        }
        assert_eq!(tracker.disk(0).state(), DiskState::Healthy);
        assert_eq!(tracker.disk(0).error_count(), 2);
    }
}
