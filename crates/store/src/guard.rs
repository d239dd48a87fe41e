//! Deadline enforcement over any [`ChunkBackend`].
//!
//! A backend that *stalls* (rather than errors) holds whoever waits on it
//! for as long as the stall lasts — a remote disk's request timeout bounds
//! that for chunkd mounts, but a local disk on a sick device, or any
//! backend wrapped by a `stall` fault, can hold a thread forever. A
//! [`GuardedDisk`] wraps a backend with a small executor, and every chunk
//! op is begun there: [`ChunkBackend::begin_read`],
//! [`ChunkBackend::begin_write`], [`ChunkBackend::begin_write_zeros`] and
//! [`ChunkBackend::begin_verify`] submit the op and return a handle whose
//! deadline is fixed when the op is begun. A stripe that begins its ops on
//! its guarded disks before waiting for any therefore waits for the
//! slowest, not for their sum. An op still running at its deadline is
//! *abandoned*: its wait returns [`ChunkStatus::Missing`] (reads) or a
//! `TimedOut` error (writes), and the store routes around the disk exactly
//! as it routes around a dead one. A hedged rebuild begins its first
//! round's reads the same way under a shorter budget
//! (`GuardedDisk::begin_read_within`). The meta ops and `verify_chunk` run
//! on the executor too, and are waited for at once.
//!
//! Every outcome feeds the disk's [`crate::health::DiskHealth`]: timeouts
//! and errors demote it toward Suspect/Failed, and once the breaker trips,
//! [`GuardedDisk`] sheds reads and checks when they are begun, without
//! touching the backend at all (fast `Missing`), letting one probe through
//! per interval.
//!
//! An abandoned op's thread is stuck until the backend unsticks; the
//! executor spawns a replacement (up to [`MAX_WORKERS`]) so later ops
//! still run. When every worker slot is stuck the guard fails ops
//! immediately — by then the disk has long since been demoted and the
//! breaker sheds almost everything anyway.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::backend::{BackendCounters, ChunkBackend, PendingRead, PendingWrite, ReadyRead};
use crate::chunk::{ChunkId, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};
use crate::health::{Admission, HealthTracker, Outcome, Transition};

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

/// An op begun on the executor: its result arrives on `rx` unless `until`
/// passes first.
struct Begun<T> {
    rx: mpsc::Receiver<T>,
    until: Instant,
}

/// A guarded read or check in flight. The inner op fills a buffer of its
/// own on the executor, which lands in `out` only if the op finishes in
/// time: an abandoned op never writes into the caller's memory.
struct GuardedRead<'a> {
    guard: &'a GuardedDisk,
    begun: Begun<Result<(ChunkStatus, Vec<u8>)>>,
    out: &'a mut [u8],
}

impl PendingRead for GuardedRead<'_> {
    fn wait(self: Box<Self>) -> ChunkRead<()> {
        let (status, buf) = self.guard.settle(self.guard.finish(self.begun));
        if status.is_healthy() {
            self.out.copy_from_slice(&buf);
        }
        Ok(status.into_read())
    }
}

/// A guarded write in flight; an abandoned one is a `TimedOut` error.
struct GuardedWrite<'a> {
    guard: &'a GuardedDisk,
    begun: Begun<Result<()>>,
    object: String,
}

impl PendingWrite for GuardedWrite<'_> {
    fn wait(self: Box<Self>) -> Result<()> {
        let Ok(result) = self.guard.finish(self.begun) else {
            return Err(self.guard.timeout_error(&self.object));
        };
        let outcome = result.as_ref().map_or(Outcome::Error, |()| Outcome::Ok);
        self.guard.record(outcome);
        result
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

    /// Whether the breaker turns the next read or check away.
    fn shed(&self) -> bool {
        matches!(self.health.disk(self.disk).admit(), Admission::Shed)
    }

    fn record(&self, outcome: Outcome) {
        if let Some(t) = self.health.record(self.disk, outcome) {
            if let Some(hook) = &self.on_transition {
                hook(t);
            }
        }
    }

    /// Submits `op` to the executor, to be collected within `budget`.
    fn begin<T: Send + 'static>(
        &self,
        budget: Duration,
        op: impl FnOnce(&dyn ChunkBackend) -> T + Send + 'static,
    ) -> Begun<T> {
        let until = Instant::now() + budget;
        let (tx, rx) = mpsc::sync_channel(1);
        let inner = Arc::clone(&self.inner);
        // A job no worker takes is dropped with its sender, so its wait
        // finds the channel closed: a timeout.
        let _ = self.executor.submit(Box::new(move || {
            // The receiver may be long gone (abandoned op): ignore.
            let _ = tx.send(op(inner.as_ref()));
        }));
        Begun { rx, until }
    }

    /// Waits for a begun op until its deadline; `Err(())` = timed out or
    /// no worker available (both recorded as timeouts).
    fn finish<T>(&self, begun: Begun<T>) -> std::result::Result<T, ()> {
        let left = begun.until.saturating_duration_since(Instant::now());
        let result = begun.rx.recv_timeout(left).map_err(drop);
        if result.is_err() {
            self.record(Outcome::Timeout);
        }
        result
    }

    /// Runs `op` on the executor under the disk's deadline and waits.
    fn run_with_deadline<T: Send + 'static>(
        &self,
        op: impl FnOnce(&dyn ChunkBackend) -> T + Send + 'static,
    ) -> std::result::Result<T, ()> {
        self.finish(self.begin(self.deadline, op))
    }

    /// Files a read-shaped op's verdict on the disk's health: a corrupt
    /// chunk or a hard error counts against the disk. Degrade, don't fail:
    /// a hard error, like a late op, reads as a missing chunk, which the
    /// store routes around — the error lives on in the health record.
    fn settle<T: Default>(
        &self,
        result: std::result::Result<Result<(ChunkStatus, T)>, ()>,
    ) -> (ChunkStatus, T) {
        match result {
            Ok(Ok(verdict)) => {
                let corrupt = matches!(verdict.0, ChunkStatus::Corrupt { .. });
                self.record(if corrupt { Outcome::Error } else { Outcome::Ok });
                verdict
            }
            Ok(Err(_)) => {
                self.record(Outcome::Error);
                (ChunkStatus::Missing, T::default())
            }
            Err(()) => (ChunkStatus::Missing, T::default()),
        }
    }

    /// Begins a read-shaped op (a read into `out`, or a check with an
    /// empty `out`), unless the breaker sheds it.
    fn begin_guarded_read<'a>(
        &'a self,
        budget: Duration,
        out: &'a mut [u8],
        op: impl FnOnce(&dyn ChunkBackend, &mut [u8]) -> ChunkRead<()> + Send + 'static,
    ) -> Box<dyn PendingRead + 'a> {
        if self.shed() {
            return Box::new(ReadyRead(Ok(Err(ChunkStatus::Missing))));
        }
        let len = out.len();
        let begun = self.begin(budget, move |disk| {
            let mut buf = vec![0u8; len];
            let status = op(disk, &mut buf)?.err().unwrap_or(ChunkStatus::Healthy);
            Ok((status, buf))
        });
        Box::new(GuardedRead {
            guard: self,
            begun,
            out,
        })
    }

    /// Begins a write-shaped op on `object` under the disk's deadline.
    fn begin_guarded_write<'a>(
        &'a self,
        object: &str,
        op: impl FnOnce(&dyn ChunkBackend, &str) -> Result<()> + Send + 'static,
    ) -> Box<dyn PendingWrite + 'a> {
        let name = object.to_string();
        Box::new(GuardedWrite {
            guard: self,
            begun: self.begin(self.deadline, move |disk| op(disk, &name)),
            object: object.to_string(),
        })
    }

    fn timeout_error(&self, object: &str) -> StoreError {
        let (inner, deadline) = (self.inner.describe(), self.deadline);
        let what = format!("op on {inner} exceeded the {deadline:?} deadline");
        let error = std::io::Error::new(std::io::ErrorKind::TimedOut, what);
        StoreError::io(format!("guard://disk-{:02}/{object}", self.disk), error)
    }

    /// [`ChunkBackend::begin_read`] under `budget` instead of the disk's
    /// deadline (whichever is shorter) — the hedged-read primitive: the
    /// store gives the first-choice helpers a shorter budget and plans
    /// around the ones that miss it.
    pub(crate) fn begin_read_within<'a>(
        &'a self,
        budget: Duration,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        let name = object.to_string();
        self.begin_guarded_read(budget.min(self.deadline), out, move |disk, buf| {
            disk.read_chunk_range(&name, id, chunk_len, offset, buf)
        })
    }
}

impl ChunkBackend for GuardedDisk {
    fn describe(&self) -> String {
        format!("guarded({}, {:?})", self.inner.describe(), self.deadline)
    }

    fn is_available(&self) -> bool {
        !self.shed() && self.run_with_deadline(|disk| disk.is_available()) == Ok(true)
    }

    fn ensure_object(&self, object: &str) -> Result<()> {
        self.begin_guarded_write(object, |disk, name| disk.ensure_object(name))
            .wait()
    }

    fn remove_object(&self, object: &str) -> Result<()> {
        let name = object.to_string();
        self.run_with_deadline(move |disk| disk.remove_object(&name))
            .unwrap_or_else(|()| Err(self.timeout_error(object)))
    }

    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        self.begin_read_within(self.deadline, object, id, chunk_len, offset, out)
    }

    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &'a [u8],
    ) -> Box<dyn PendingWrite + 'a> {
        let payload = payload.to_vec();
        self.begin_guarded_write(object, move |disk, name| {
            disk.write_chunk(name, id, &payload)
        })
    }

    /// The inner backend's own zero write, so a networked disk still sends
    /// only the length.
    fn begin_write_zeros<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        len: usize,
    ) -> Box<dyn PendingWrite + 'a> {
        self.begin_guarded_write(object, move |disk, name| {
            disk.begin_write_zeros(name, id, len).wait()
        })
    }

    /// The inner backend's own check, so a networked disk still ships only
    /// the verdict.
    fn begin_verify<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Box<dyn PendingRead + 'a> {
        let name = object.to_string();
        self.begin_guarded_read(self.deadline, &mut [], move |disk, _| {
            disk.begin_verify(&name, id, chunk_len).wait()
        })
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64)> {
        if self.shed() {
            return Ok((ChunkStatus::Missing, 0));
        }
        let name = object.to_string();
        Ok(
            self.settle(
                self.run_with_deadline(move |disk| disk.verify_chunk(&name, id, chunk_len)),
            ),
        )
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>> {
        // Nothing is sweepable past the deadline.
        self.run_with_deadline(move |disk| disk.sweep_tmp(min_age))
            .unwrap_or(Ok(Vec::new()))
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn drain_spans(&self) -> Vec<pbrs_obs::trace::SpanRecord> {
        // Span shipping is cheap metadata; no deadline gate needed.
        self.inner.drain_spans()
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
