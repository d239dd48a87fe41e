//! Per-disk health lifecycle: `Healthy → Suspect → Failed` with
//! hysteresis, a circuit breaker, and persisted advisory state.
//!
//! A flaky disk retried forever with no memory pins workers and inflates
//! tail latency; a dead-but-not-removed disk burns a timeout per op. The
//! [`HealthTracker`] gives every pool disk a small state machine fed by
//! op outcomes:
//!
//! ```text
//!            failures ≥ suspect_failures          failures ≥ failed_failures
//!  Healthy ─────────────────────────────▶ Suspect ─────────────────────────▶ Failed
//!     ▲                                     │  ▲                               │
//!     └──── recovery_successes consecutive ─┘  └─ recovery_successes probes ───┘
//!                 ok probes                          (one level at a time)
//! ```
//!
//! * Outcomes (ok / error / timeout) land in a sliding window per disk;
//!   crossing the error+timeout threshold demotes the disk.
//! * Demotion trips the **circuit breaker**: while a disk is Suspect or
//!   Failed, [`DiskHealth::admit`] sheds ordinary ops (the caller routes
//!   around the disk, e.g. serving the chunk degraded) and lets one
//!   *probe* through per [`HealthPolicy::probe_interval`] to test for
//!   recovery.
//! * Promotion is hysteretic: [`HealthPolicy::recovery_successes`]
//!   *consecutive* ok outcomes climb one level at a time, so a disk that
//!   answers one probe out of three stays shed.
//!
//! Transitions are reported to the caller (to count, journal, and export
//! as `pbrs_disk_health`) and mirrored into a small advisory file so an
//! operator — or the next process to open the store — can see which
//! disks were sick. The file is *advisory*: it never gates correctness,
//! and a stale one only costs a few extra probes.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Health state of one pool disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskState {
    /// Serving ops normally.
    #[default]
    Healthy,
    /// Error/timeout rate crossed the threshold; breaker is shedding
    /// ordinary load, probes test for recovery.
    Suspect,
    /// Kept failing while Suspect; treated as lost until probes recover.
    Failed,
}

impl DiskState {
    /// Stable snake_case name (metrics label, advisory file).
    pub fn as_str(self) -> &'static str {
        match self {
            DiskState::Healthy => "healthy",
            DiskState::Suspect => "suspect",
            DiskState::Failed => "failed",
        }
    }

    /// Numeric severity for the `pbrs_disk_health` gauge (0/1/2).
    pub fn severity(self) -> u64 {
        match self {
            DiskState::Healthy => 0,
            DiskState::Suspect => 1,
            DiskState::Failed => 2,
        }
    }

    fn parse(s: &str) -> Option<DiskState> {
        match s {
            "healthy" => Some(DiskState::Healthy),
            "suspect" => Some(DiskState::Suspect),
            "failed" => Some(DiskState::Failed),
            _ => None,
        }
    }
}

impl std::fmt::Display for DiskState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Thresholds of the health state machine. The defaults suit tests and
/// loopback benches (small windows, sub-second probes); production tuning
/// is workload-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Sliding-window size in ops.
    pub window: usize,
    /// Errors+timeouts within the window that demote Healthy → Suspect.
    pub suspect_failures: u32,
    /// Errors+timeouts within the window that demote Suspect → Failed.
    pub failed_failures: u32,
    /// While Suspect/Failed, at most one probe op per this interval.
    pub probe_interval: Duration,
    /// Consecutive ok outcomes that promote one level back toward
    /// Healthy.
    pub recovery_successes: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            window: 32,
            suspect_failures: 3,
            failed_failures: 8,
            probe_interval: Duration::from_millis(500),
            recovery_successes: 3,
        }
    }
}

/// What the breaker says about one op before it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Disk is Healthy: run the op.
    Allow,
    /// Disk is Suspect/Failed but this op is the recovery probe: run it
    /// and report the outcome.
    Probe,
    /// Disk is Suspect/Failed and a probe already ran this interval:
    /// don't touch the disk, route around it.
    Shed,
}

/// One op's outcome, as recorded into the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The op completed (including "chunk missing" answers — an honest
    /// answer is a healthy disk).
    Ok,
    /// The op failed hard (I/O error, corrupt payload).
    Error,
    /// The op exceeded its deadline.
    Timeout,
}

/// A state transition, for the caller to count and journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Pool disk index.
    pub disk: usize,
    /// State before.
    pub from: DiskState,
    /// State after.
    pub to: DiskState,
}

#[derive(Debug)]
struct DiskInner {
    state: DiskState,
    /// Ring of recent outcomes: `true` = failure.
    window: Vec<bool>,
    next_slot: usize,
    filled: usize,
    consecutive_ok: u32,
    next_probe: Option<Instant>,
}

impl DiskInner {
    fn new(window: usize) -> Self {
        DiskInner {
            state: DiskState::Healthy,
            window: vec![false; window.max(1)],
            next_slot: 0,
            filled: 0,
            consecutive_ok: 0,
            next_probe: None,
        }
    }

    fn push(&mut self, failure: bool) {
        self.window[self.next_slot] = failure;
        self.next_slot = (self.next_slot + 1) % self.window.len();
        self.filled = (self.filled + 1).min(self.window.len());
    }

    fn failures_in_window(&self) -> u32 {
        self.window[..self.filled].iter().filter(|&&f| f).count() as u32
    }

    fn reset_window(&mut self) {
        self.window.fill(false);
        self.next_slot = 0;
        self.filled = 0;
    }
}

/// Health of one pool disk: the state machine plus its breaker.
#[derive(Debug)]
pub struct DiskHealth {
    disk: usize,
    policy: HealthPolicy,
    inner: Mutex<DiskInner>,
    /// Ops shed by the breaker.
    shed: AtomicU64,
    /// Ops that timed out.
    timeouts: AtomicU64,
    /// Hard errors recorded.
    errors: AtomicU64,
    /// Probes admitted while Suspect/Failed.
    probes: AtomicU64,
}

impl DiskHealth {
    fn new(disk: usize, policy: HealthPolicy) -> Self {
        let window = policy.window;
        DiskHealth {
            disk,
            policy,
            inner: Mutex::new(DiskInner::new(window)),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// Current state.
    pub fn state(&self) -> DiskState {
        self.inner.lock().expect("lock").state // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
    }

    /// Breaker decision for an op starting now.
    pub fn admit(&self) -> Admission {
        self.admit_at(Instant::now())
    }

    /// [`DiskHealth::admit`] with an explicit clock (testable).
    pub fn admit_at(&self, now: Instant) -> Admission {
        let mut inner = self.inner.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        if inner.state == DiskState::Healthy {
            return Admission::Allow;
        }
        let due = inner.next_probe.is_none_or(|at| now >= at);
        if due {
            inner.next_probe = Some(now + self.policy.probe_interval);
            // Relaxed: stats tally; admission state is under the mutex.
            self.probes.fetch_add(1, Ordering::Relaxed);
            Admission::Probe
        } else {
            // Relaxed: stats tally; admission state is under the mutex.
            self.shed.fetch_add(1, Ordering::Relaxed);
            Admission::Shed
        }
    }

    /// Records one op outcome; returns the transition it caused, if any.
    pub fn record(&self, outcome: Outcome) -> Option<Transition> {
        match outcome {
            Outcome::Timeout => {
                // Relaxed: stats tally; breaker state is under the mutex.
                self.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Error => {
                // Relaxed: stats tally; breaker state is under the mutex.
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Ok => {}
        }
        let mut inner = self.inner.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let before = inner.state;
        match outcome {
            Outcome::Ok => {
                inner.push(false);
                if inner.state == DiskState::Healthy {
                    return None;
                }
                inner.consecutive_ok += 1;
                if inner.consecutive_ok >= self.policy.recovery_successes {
                    inner.state = match inner.state {
                        DiskState::Failed => DiskState::Suspect,
                        _ => DiskState::Healthy,
                    };
                    inner.consecutive_ok = 0;
                    // A promotion earns a fresh window: old failures must
                    // not instantly re-demote the disk (hysteresis).
                    inner.reset_window();
                    if inner.state == DiskState::Healthy {
                        inner.next_probe = None;
                    }
                }
            }
            Outcome::Error | Outcome::Timeout => {
                inner.push(true);
                inner.consecutive_ok = 0;
                let failures = inner.failures_in_window();
                inner.state = match inner.state {
                    DiskState::Healthy if failures >= self.policy.suspect_failures => {
                        // Trip the breaker: next op is the probe.
                        inner.next_probe = None;
                        DiskState::Suspect
                    }
                    DiskState::Suspect if failures >= self.policy.failed_failures => {
                        DiskState::Failed
                    }
                    same => same,
                };
            }
        }
        let after = inner.state;
        (before != after).then_some(Transition {
            disk: self.disk,
            from: before,
            to: after,
        })
    }

    /// Ops shed by the breaker so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Deadline timeouts recorded so far.
    pub fn timeout_count(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Hard errors recorded so far.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Probes admitted so far.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Seeds the state from a persisted advisory entry.
    fn set_advisory_state(&self, state: DiskState) {
        let mut inner = self.inner.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        inner.state = state;
        inner.next_probe = None;
    }
}

/// Point-in-time health of one disk, for metrics and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskHealthSnapshot {
    /// Pool disk index.
    pub disk: usize,
    /// Current state.
    pub state: DiskState,
    /// Ops shed by the breaker.
    pub shed: u64,
    /// Deadline timeouts.
    pub timeouts: u64,
    /// Hard errors.
    pub errors: u64,
    /// Recovery probes admitted.
    pub probes: u64,
}

/// Health of a whole disk pool, plus the persisted advisory file.
#[derive(Debug)]
pub struct HealthTracker {
    disks: Vec<DiskHealth>,
    /// Where advisory state persists (`HEALTH.advisory` in the store
    /// root); `None` disables persistence.
    advisory_path: Option<PathBuf>,
}

/// File name of the persisted advisory health state in the store root.
pub const ADVISORY_FILE: &str = "HEALTH.advisory";

impl HealthTracker {
    /// A tracker for `disks` pool disks under `policy`. If
    /// `advisory_path` is given, previously persisted Suspect/Failed
    /// states are loaded back (advisory only — probes re-verify) and
    /// every transition is persisted.
    pub fn new(disks: usize, policy: HealthPolicy, advisory_path: Option<PathBuf>) -> Self {
        let tracker = HealthTracker {
            disks: (0..disks)
                .map(|d| DiskHealth::new(d, policy.clone()))
                .collect(),
            advisory_path,
        };
        if let Some(path) = &tracker.advisory_path {
            if let Ok(text) = fs::read_to_string(path) {
                for line in text.lines() {
                    let mut parts = line.split_whitespace();
                    if let (Some(disk), Some(state)) = (parts.next(), parts.next()) {
                        if let (Ok(disk), Some(state)) =
                            (disk.parse::<usize>(), DiskState::parse(state))
                        {
                            if state != DiskState::Healthy {
                                if let Some(d) = tracker.disks.get(disk) {
                                    d.set_advisory_state(state);
                                }
                            }
                        }
                    }
                }
            }
        }
        tracker
    }

    /// The per-disk health handle.
    pub fn disk(&self, disk: usize) -> &DiskHealth {
        &self.disks[disk]
    }

    /// Number of tracked disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Records an outcome for `disk`; on a transition, persists the new
    /// advisory state and returns the transition for journaling.
    pub fn record(&self, disk: usize, outcome: Outcome) -> Option<Transition> {
        let transition = self.disks[disk].record(outcome)?;
        self.persist();
        Some(transition)
    }

    /// Total breaker-shed ops across the pool.
    pub fn total_shed(&self) -> u64 {
        self.disks.iter().map(DiskHealth::shed_count).sum()
    }

    /// Total deadline timeouts across the pool.
    pub fn total_timeouts(&self) -> u64 {
        self.disks.iter().map(DiskHealth::timeout_count).sum()
    }

    /// Point-in-time health of every disk.
    pub fn snapshot(&self) -> Vec<DiskHealthSnapshot> {
        self.disks
            .iter()
            .map(|d| DiskHealthSnapshot {
                disk: d.disk,
                state: d.state(),
                shed: d.shed_count(),
                timeouts: d.timeout_count(),
                errors: d.error_count(),
                probes: d.probe_count(),
            })
            .collect()
    }

    /// Best-effort advisory persistence: one `disk state` line per disk.
    /// Never fails the op that triggered it — health is advisory, chunk
    /// data has its own durability story.
    fn persist(&self) {
        let Some(path) = &self.advisory_path else {
            return;
        };
        let mut text = String::new();
        for d in &self.disks {
            text.push_str(&format!("{} {}\n", d.disk, d.state()));
        }
        let _ = fs::write(path, text);
    }
}

/// Renders the pool's health as Prometheus families:
/// `pbrs_disk_health{disk=...}` (gauge: 0 healthy / 1 suspect / 2
/// failed) plus per-disk shed/timeout/probe counters.
pub fn write_prometheus(snapshot: &[DiskHealthSnapshot], out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(out, "# TYPE pbrs_disk_health gauge");
    for d in snapshot {
        let _ = writeln!(
            out,
            "pbrs_disk_health{{disk=\"{}\",state=\"{}\"}} {}",
            d.disk,
            d.state,
            d.state.severity()
        );
    }
    for (family, pick) in [
        (
            "pbrs_disk_shed_total",
            &(|d: &DiskHealthSnapshot| d.shed) as &dyn Fn(_) -> u64,
        ),
        ("pbrs_disk_timeouts_total", &|d: &DiskHealthSnapshot| {
            d.timeouts
        }),
        ("pbrs_disk_probes_total", &|d: &DiskHealthSnapshot| d.probes),
    ] {
        let _ = writeln!(out, "# TYPE {family} counter");
        for d in snapshot {
            let _ = writeln!(out, "{family}{{disk=\"{}\"}} {}", d.disk, pick(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            window: 8,
            suspect_failures: 3,
            failed_failures: 6,
            probe_interval: Duration::from_millis(50),
            recovery_successes: 2,
        }
    }

    #[test]
    fn failures_demote_and_probes_recover() {
        let tracker = HealthTracker::new(2, policy(), None);
        // Two failures: still Healthy (threshold is 3).
        assert!(tracker.record(0, Outcome::Error).is_none());
        assert!(tracker.record(0, Outcome::Timeout).is_none());
        assert_eq!(tracker.disk(0).state(), DiskState::Healthy);
        // Third failure trips Suspect.
        let t = tracker.record(0, Outcome::Error).unwrap();
        assert_eq!((t.from, t.to), (DiskState::Healthy, DiskState::Suspect));
        // The other disk is untouched.
        assert_eq!(tracker.disk(1).state(), DiskState::Healthy);
        // Two consecutive oks (recovery_successes) promote back.
        assert!(tracker.record(0, Outcome::Ok).is_none());
        let t = tracker.record(0, Outcome::Ok).unwrap();
        assert_eq!((t.from, t.to), (DiskState::Suspect, DiskState::Healthy));
    }

    #[test]
    fn sustained_failures_reach_failed_and_recover_one_level_at_a_time() {
        let tracker = HealthTracker::new(1, policy(), None);
        let mut seen = Vec::new();
        for _ in 0..6 {
            if let Some(t) = tracker.record(0, Outcome::Timeout) {
                seen.push((t.from, t.to));
            }
        }
        assert_eq!(
            seen,
            [
                (DiskState::Healthy, DiskState::Suspect),
                (DiskState::Suspect, DiskState::Failed)
            ]
        );
        // Recovery climbs Failed → Suspect → Healthy, two oks per level.
        let t = |tr: Option<Transition>| tr.map(|t| (t.from, t.to));
        assert_eq!(t(tracker.record(0, Outcome::Ok)), None);
        assert_eq!(
            t(tracker.record(0, Outcome::Ok)),
            Some((DiskState::Failed, DiskState::Suspect))
        );
        assert_eq!(t(tracker.record(0, Outcome::Ok)), None);
        assert_eq!(
            t(tracker.record(0, Outcome::Ok)),
            Some((DiskState::Suspect, DiskState::Healthy))
        );
    }

    #[test]
    fn one_ok_between_failures_does_not_recover() {
        let tracker = HealthTracker::new(1, policy(), None);
        for _ in 0..3 {
            tracker.record(0, Outcome::Error);
        }
        assert_eq!(tracker.disk(0).state(), DiskState::Suspect);
        // ok, fail, ok, fail … never two consecutive oks: stays Suspect.
        for _ in 0..4 {
            tracker.record(0, Outcome::Ok);
            tracker.record(0, Outcome::Error);
        }
        assert_eq!(tracker.disk(0).state(), DiskState::Suspect);
    }

    #[test]
    fn breaker_sheds_between_probes() {
        let tracker = HealthTracker::new(1, policy(), None);
        let d = tracker.disk(0);
        let t0 = Instant::now();
        assert_eq!(d.admit_at(t0), Admission::Allow);
        for _ in 0..3 {
            tracker.record(0, Outcome::Error);
        }
        // First op after the trip is the probe; the rest of the interval
        // sheds; after the interval the next probe is admitted.
        assert_eq!(d.admit_at(t0), Admission::Probe);
        assert_eq!(d.admit_at(t0), Admission::Shed);
        assert_eq!(d.admit_at(t0 + Duration::from_millis(10)), Admission::Shed);
        assert_eq!(d.admit_at(t0 + Duration::from_millis(60)), Admission::Probe);
        assert_eq!(d.shed_count(), 2);
        assert_eq!(d.probe_count(), 2);
    }

    #[test]
    fn advisory_state_round_trips_through_the_file() {
        let dir = crate::testing::TempDir::new("health-advisory");
        let path = dir.path().join(ADVISORY_FILE);
        let tracker = HealthTracker::new(3, policy(), Some(path.clone()));
        for _ in 0..3 {
            tracker.record(1, Outcome::Error);
        }
        assert_eq!(tracker.disk(1).state(), DiskState::Suspect);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("1 suspect"), "{text}");
        // A fresh tracker (fresh process) loads the advisory state back.
        let reopened = HealthTracker::new(3, policy(), Some(path));
        assert_eq!(reopened.disk(0).state(), DiskState::Healthy);
        assert_eq!(reopened.disk(1).state(), DiskState::Suspect);
        // Advisory state is probed, not trusted forever: two oks recover.
        reopened.record(1, Outcome::Ok);
        reopened.record(1, Outcome::Ok);
        assert_eq!(reopened.disk(1).state(), DiskState::Healthy);
    }

    #[test]
    fn prometheus_rendering_carries_state_and_counters() {
        let tracker = HealthTracker::new(2, policy(), None);
        for _ in 0..3 {
            tracker.record(1, Outcome::Timeout);
        }
        let t0 = Instant::now();
        tracker.disk(1).admit_at(t0);
        tracker.disk(1).admit_at(t0);
        let mut out = String::new();
        write_prometheus(&tracker.snapshot(), &mut out);
        assert!(out.contains("# TYPE pbrs_disk_health gauge"), "{out}");
        assert!(out.contains("pbrs_disk_health{disk=\"0\",state=\"healthy\"} 0"));
        assert!(out.contains("pbrs_disk_health{disk=\"1\",state=\"suspect\"} 1"));
        assert!(out.contains("pbrs_disk_timeouts_total{disk=\"1\"} 3"));
        assert!(out.contains("pbrs_disk_shed_total{disk=\"1\"} 1"));
    }
}
