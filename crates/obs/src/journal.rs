//! Bounded structured event journal.
//!
//! Long-running daemons used to keep a single `last_error` slot; one
//! flaky disk would overwrite the evidence of the panic that preceded
//! it. An [`EventJournal`] keeps the last N structured [`Event`]s —
//! repairs, scrubs, scans, errors, panics — each with a wall-clock
//! timestamp, and counts what it had to drop, so "what happened while I
//! wasn't looking" has an answer bounded in memory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::trace::{self, TraceId};

/// What kind of thing happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A repair job completed.
    Repair,
    /// A scrub pass completed (or found something).
    Scrub,
    /// A scan pass completed.
    Scan,
    /// An operation failed with an error.
    Error,
    /// A worker panicked (and was contained).
    Panic,
    /// A disk changed health state (Healthy/Suspect/Failed transition,
    /// circuit-breaker trip or recovery).
    DiskHealth,
}

impl EventKind {
    /// Stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Repair => "repair",
            EventKind::Scrub => "scrub",
            EventKind::Scan => "scan",
            EventKind::Error => "error",
            EventKind::Panic => "panic",
            EventKind::DiskHealth => "disk_health",
        }
    }

    /// Does this kind describe a failure?
    pub fn is_failure(self) -> bool {
        matches!(self, EventKind::Error | EventKind::Panic)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry.
#[derive(Clone, Debug)]
pub struct Event {
    /// Wall-clock time the event was recorded.
    pub at: SystemTime,
    /// Event category.
    pub kind: EventKind,
    /// Free-form description (object name, stripe index, error text, …).
    pub detail: String,
    /// The trace that was active ([`trace::current_ctx`]) when the
    /// event was recorded, making repair/health events joinable to
    /// retained traces.
    pub trace: Option<TraceId>,
}

impl Event {
    /// Seconds since the Unix epoch (0 if the clock is before it).
    pub fn unix_secs(&self) -> u64 {
        self.at
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// A bounded ring of [`Event`]s. Pushes never block longer than the
/// (short) internal lock; when full, the oldest event is dropped and
/// counted. Events are stamped *under* that lock, so the retained ring is
/// ordered by timestamp as well as by arrival.
pub struct EventJournal {
    capacity: usize,
    inner: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    clock: Box<dyn Fn() -> SystemTime + Send + Sync>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventJournal {
    /// A journal holding at most `capacity` events (minimum 1), stamped
    /// from the wall clock.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, SystemTime::now)
    }

    /// [`EventJournal::new`] with the timestamp source injected — the seam
    /// that lets a test pin down *when*, relative to its own locks, an
    /// event is stamped and appended.
    pub fn with_clock(
        capacity: usize,
        clock: impl Fn() -> SystemTime + Send + Sync + 'static,
    ) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
            clock: Box::new(clock),
        }
    }

    /// Record an event now, tagged with the scoped trace if one is
    /// active on this thread.
    pub fn push(&self, kind: EventKind, detail: impl Into<String>) {
        let detail = detail.into();
        let trace = trace::current_ctx().map(|ctx| ctx.trace);
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.len() == self.capacity {
            inner.pop_front();
            // Relaxed: a plain overflow tally; the ring itself is guarded
            // by the mutex above.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // Stamped with the ring locked: a pusher that read the clock
        // first could be overtaken on its way to the lock and append an
        // older time behind a newer one.
        inner.push_back(Event {
            at: (self.clock)(),
            kind,
            detail,
            trace,
        });
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far to respect the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Count of retained events by kind.
    pub fn count_by_kind(&self, kind: EventKind) -> usize {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_recent_preserve_order() {
        let j = EventJournal::new(8);
        j.push(EventKind::Scan, "pass 1");
        j.push(EventKind::Repair, "obj/3");
        j.push(EventKind::Error, "disk 2 gone");
        let events = j.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Scan);
        assert_eq!(events[2].detail, "disk 2 gone");
        assert!(events[0].at <= events[2].at);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let j = EventJournal::new(3);
        for i in 0..10 {
            j.push(EventKind::Repair, format!("r{i}"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let details: Vec<_> = j.recent().into_iter().map(|e| e.detail).collect();
        assert_eq!(details, ["r7", "r8", "r9"]);
    }

    #[test]
    fn events_carry_the_scoped_trace_when_one_is_active() {
        use crate::trace::{ScopedCtx, TraceCtx};
        let j = EventJournal::new(8);
        j.push(EventKind::Scan, "untagged");
        let ctx = TraceCtx::from_raw(0xabc, 0xdef).unwrap();
        {
            let _g = ScopedCtx::enter(Some(ctx));
            j.push(EventKind::Repair, "tagged");
        }
        j.push(EventKind::Scrub, "untagged again");
        let events = j.recent();
        assert_eq!(events[0].trace, None);
        assert_eq!(events[1].trace, Some(ctx.trace));
        assert_eq!(events[2].trace, None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let j = EventJournal::new(0);
        j.push(EventKind::Scan, "a");
        j.push(EventKind::Scan, "b");
        assert_eq!(j.len(), 1);
        assert_eq!(j.recent()[0].detail, "b");
    }

    #[test]
    fn events_are_stamped_while_the_ring_is_locked() {
        use std::sync::atomic::AtomicU64;
        use std::sync::{mpsc, Arc, OnceLock, TryLockError};
        use std::time::Duration;

        // A ticking clock: every read is later than the one before. On its
        // first read — thread A's, mid-push — it hands off to thread B and
        // lets B run into its own push before A's stamp is taken. Had A
        // read the clock before taking the ring lock, B (stamped later)
        // could append first; with the stamp taken under the lock B can
        // only queue up behind A.
        let journal: Arc<OnceLock<Arc<EventJournal>>> = Arc::new(OnceLock::new());
        let ticks = AtomicU64::new(0);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let clock = {
            let journal = Arc::clone(&journal);
            let entered_rx = Mutex::new(entered_rx);
            move || {
                let tick = ticks.fetch_add(1, Ordering::SeqCst);
                if tick == 0 {
                    go_tx.send(()).unwrap();
                    entered_rx.lock().unwrap().recv().unwrap();
                    let ring = &journal.get().unwrap().inner;
                    assert!(
                        matches!(ring.try_lock(), Err(TryLockError::WouldBlock)),
                        "the clock was read outside the ring lock"
                    );
                }
                UNIX_EPOCH + Duration::from_secs(tick)
            }
        };
        let j = Arc::new(EventJournal::with_clock(8, clock));
        journal.set(Arc::clone(&j)).unwrap();

        let b = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                go_rx.recv().unwrap();
                entered_tx.send(()).unwrap();
                j.push(EventKind::Repair, "b");
            })
        };
        j.push(EventKind::Scan, "a");
        b.join().unwrap();

        let events = j.recent();
        let details: Vec<_> = events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["a", "b"]);
        assert!(events[0].at < events[1].at);
    }

    #[test]
    fn concurrent_pushes_stay_bounded() {
        use std::sync::Arc;
        let j = Arc::new(EventJournal::new(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        j.push(EventKind::Repair, format!("t{t} i{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.len(), 16);
        assert_eq!(j.dropped(), 8 * 1000 - 16);
    }
}
