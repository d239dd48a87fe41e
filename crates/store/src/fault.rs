//! Deterministic fault injection for chunk backends.
//!
//! Real clusters live in a permanent state of partial failure — disks
//! stall, links drop, payloads rot — but loopback TCP is depressingly
//! reliable, so none of the store's failure handling is exercised unless
//! the failures are *manufactured*. A [`FaultPlan`] is a seeded,
//! scriptable schedule of per-disk, per-op faults, and a
//! [`FaultyBackend`] wraps any [`ChunkBackend`] to execute it: the same
//! plan text and seed always produce the same fault sequence, so a chaos
//! test that catches a bug is a *reproducer*, not an anecdote.
//!
//! # The plan DSL
//!
//! A plan is a `;`-separated list of rules; each rule is whitespace-
//! separated `key=value` clauses plus one fault word:
//!
//! ```text
//! disk=2 op=read stall                  # disk 2 read ops block forever
//! disk=0 op=read delay=25ms p=0.5       # half of disk 0's reads +25ms
//! disk=1 corrupt count=3                # first 3 matching ops corrupt
//! op=write error after=10               # writes fail from the 11th on
//! disk=3 op=read short                  # range reads come back truncated
//! disk=1 drop                           # connection drop (chunkd hook)
//! ```
//!
//! Clauses: `disk=N` (default: every disk), `op=read|write|verify|meta`
//! (default: every op), `p=0.0..1.0` (fire probability, seeded;
//! default 1), `after=N` (skip the first N matching ops), `count=N`
//! (fire at most N times). Fault words: `delay=DURms`, `stall`, `drop`,
//! `short`, `corrupt`, `error`.
//!
//! # Fault semantics at the backend boundary
//!
//! * **delay** — sleep, then run the real op.
//! * **stall** — block until [`FaultPlan::release`] (or forever): the
//!   disk that neither answers nor errors. Deadline wrappers above
//!   ([`crate::guard::GuardedDisk`]) or the chunkd client's request
//!   timeout are what bound the caller.
//! * **error** — the op fails with a hard [`StoreError::Io`].
//! * **drop** — a connection-level fault: the error carries
//!   [`io::ErrorKind::ConnectionAborted`], and the chunkd server kills
//!   the connection instead of answering when it sees one.
//! * **corrupt** — reads report [`ChunkStatus::Corrupt`] (the store
//!   verifies payloads, so a flipped byte and a checksum verdict are the
//!   same event at this boundary); non-reads degrade to **error**.
//! * **short** — reads report only part of the payload arriving, which
//!   the verifying backend surface turns into [`ChunkStatus::Corrupt`]
//!   with a distinct reason; non-reads degrade to **error**.
//!
//! Every fired fault is counted per rule ([`FaultPlan::fired`]) so tests
//! can assert the schedule actually executed.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::backend::{BackendCounters, ChunkBackend};
use crate::chunk::{ChunkId, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};

/// Which backend operation a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `read_chunk_into` / `read_chunk_range`.
    Read,
    /// `write_chunk`.
    Write,
    /// `verify_chunk`.
    Verify,
    /// Everything else: `ensure_object`, `remove_object`, `sweep_tmp`,
    /// `is_available`. Neither `put` nor repair calls `ensure_object` —
    /// a chunk write creates its object's directory and is gated as
    /// `Write` — so a `put` meets `Meta` only in the tombstone sweep of a
    /// reused name and in a failed ingest's clean-up.
    Meta,
}

impl FaultOp {
    fn parse(s: &str) -> Option<FaultOp> {
        match s {
            "read" => Some(FaultOp::Read),
            "write" => Some(FaultOp::Write),
            "verify" => Some(FaultOp::Verify),
            "meta" => Some(FaultOp::Meta),
            _ => None,
        }
    }
}

/// What a fired rule does to the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Added latency before the real op runs.
    Delay(Duration),
    /// Block until the plan is released — the "neither answers nor
    /// errors" disk.
    Stall,
    /// Hard error return.
    Error,
    /// Connection-level drop (chunkd kills the connection; at the plain
    /// backend boundary this is a `ConnectionAborted` error).
    Drop,
    /// Reads report a truncated payload (surfaces as `Corrupt`).
    ShortRead,
    /// Reads report a corrupt payload.
    Corrupt,
}

/// One rule of a plan: a match predicate plus a fault.
#[derive(Debug)]
struct Rule {
    disk: Option<usize>,
    op: Option<FaultOp>,
    kind: FaultKind,
    /// Fire probability in 1/65536ths (65536 = always).
    prob: u32,
    /// Skip the first `after` matching ops.
    after: u64,
    /// Fire at most this many times.
    count: Option<u64>,
    /// Ops that matched the predicate so far.
    matched: AtomicU64,
    /// Times the rule actually fired.
    fired: AtomicU64,
}

impl Rule {
    fn matches(&self, disk: usize, op: FaultOp) -> bool {
        self.disk.is_none_or(|d| d == disk) && self.op.is_none_or(|o| o == op)
    }
}

/// A seeded, scriptable schedule of per-disk/per-op faults. Shared
/// (via `Arc`) between every [`FaultyBackend`] it drives, the chunkd
/// server hook, and the test asserting on it.
pub struct FaultPlan {
    rules: Vec<Rule>,
    seed: u64,
    /// Stall latch: stalled ops wait here until `release()`.
    released: Mutex<bool>,
    unstall: Condvar,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rules", &self.rules.len())
            .field("seed", &self.seed)
            .field("fired", &self.fired())
            .finish()
    }
}

/// The decision [`FaultPlan::gate`] hands back after executing any
/// delay/stall part of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Fail the op with a hard I/O error.
    Error,
    /// Fail the op as a connection drop (`ConnectionAborted`).
    Drop,
    /// Report the payload corrupt (reads) / fail hard (non-reads).
    Corrupt,
    /// Report a truncated payload (reads) / fail hard (non-reads).
    ShortRead,
}

impl FaultPlan {
    /// Parses a plan from the DSL (see [the module docs](self)). The seed
    /// drives every probabilistic rule: same text + same seed = same
    /// fault sequence.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending clause.
    pub fn parse(text: &str, seed: u64) -> std::result::Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule_text in text.split(';') {
            let rule_text = rule_text.trim();
            if rule_text.is_empty() {
                continue;
            }
            rules.push(Self::parse_rule(rule_text)?);
        }
        if rules.is_empty() {
            return Err("fault plan has no rules".into());
        }
        Ok(FaultPlan {
            rules,
            seed,
            released: Mutex::new(false),
            unstall: Condvar::new(),
        })
    }

    fn parse_rule(text: &str) -> std::result::Result<Rule, String> {
        let mut disk = None;
        let mut op = None;
        let mut kind = None;
        let mut prob = 65536u32;
        let mut after = 0u64;
        let mut count = None;
        let set_kind = |k: FaultKind, kind: &mut Option<FaultKind>| {
            if kind.is_some() {
                return Err(format!("rule {text:?} names two faults"));
            }
            *kind = Some(k);
            Ok(())
        };
        for clause in text.split_whitespace() {
            match clause.split_once('=') {
                Some(("disk", v)) => {
                    disk = Some(v.parse().map_err(|_| format!("bad disk index {v:?}"))?);
                }
                Some(("op", v)) => {
                    op = Some(FaultOp::parse(v).ok_or_else(|| format!("unknown op {v:?}"))?);
                }
                Some(("p", v)) => {
                    let p: f64 = v.parse().map_err(|_| format!("bad probability {v:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {v:?} outside [0, 1]"));
                    }
                    prob = (p * 65536.0).round() as u32;
                }
                Some(("after", v)) => {
                    after = v.parse().map_err(|_| format!("bad after count {v:?}"))?;
                }
                Some(("count", v)) => {
                    count = Some(v.parse().map_err(|_| format!("bad fire count {v:?}"))?);
                }
                Some(("delay", v)) => {
                    set_kind(FaultKind::Delay(parse_duration(v)?), &mut kind)?;
                }
                None => match clause {
                    "stall" => set_kind(FaultKind::Stall, &mut kind)?,
                    "drop" => set_kind(FaultKind::Drop, &mut kind)?,
                    "short" => set_kind(FaultKind::ShortRead, &mut kind)?,
                    "corrupt" => set_kind(FaultKind::Corrupt, &mut kind)?,
                    "error" => set_kind(FaultKind::Error, &mut kind)?,
                    other => return Err(format!("unknown clause {other:?}")),
                },
                Some((key, _)) => return Err(format!("unknown clause key {key:?}")),
            }
        }
        let kind = kind.ok_or_else(|| format!("rule {text:?} names no fault"))?;
        Ok(Rule {
            disk,
            op,
            kind,
            prob,
            after,
            count,
            matched: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        })
    }

    /// Releases every stalled (and future) `stall` fault: stalled ops
    /// unblock and run for real. Call at teardown so stalled server
    /// threads unwind instead of leaking past the test.
    pub fn release(&self) {
        *self.released.lock().expect("lock") = true; // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.unstall.notify_all();
    }

    /// Total faults fired across all rules so far.
    pub fn fired(&self) -> u64 {
        self.rules
            .iter()
            // Relaxed: stats read; per-rule totals need not be a
            // consistent cross-rule cut.
            .map(|r| r.fired.load(Ordering::Relaxed))
            .sum()
    }

    /// Runs the schedule for one op: executes any delay/stall inline and
    /// returns what (if anything) the caller must inject. First matching
    /// rule that fires wins.
    pub fn gate(&self, disk: usize, op: FaultOp) -> Option<Injected> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(disk, op) {
                continue;
            }
            // Relaxed RMW: the atomicity of fetch_add alone guarantees
            // unique seqs; no other memory rides on this counter.
            let seq = rule.matched.fetch_add(1, Ordering::Relaxed);
            if seq < rule.after {
                continue;
            }
            if let Some(cap) = rule.count {
                // Relaxed: advisory fast path only — the authoritative
                // cap check is the fetch_update claim below.
                if rule.fired.load(Ordering::Relaxed) >= cap {
                    continue;
                }
            }
            if rule.prob < 65536 {
                // splitmix64 over (seed, rule, seq): deterministic per
                // plan seed and op sequence, decorrelated across rules.
                let mut z = self
                    .seed
                    .wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if (z & 0xFFFF) as u32 >= rule.prob {
                    continue;
                }
            }
            if let Some(cap) = rule.count {
                // Claim one firing slot atomically: checking the cap and
                // incrementing in one RMW, otherwise two concurrent gates
                // could both pass a load-then-add and over-fire the rule.
                let claimed = rule
                    .fired
                    // Relaxed: only this counter's own value decides.
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fired| {
                        (fired < cap).then_some(fired + 1)
                    })
                    .is_ok();
                if !claimed {
                    continue;
                }
            } else {
                // Relaxed: uncapped tally, read only by fired().
                rule.fired.fetch_add(1, Ordering::Relaxed);
            }
            match rule.kind {
                FaultKind::Delay(d) => {
                    std::thread::sleep(d);
                    return None;
                }
                FaultKind::Stall => {
                    let mut released = self.released.lock().expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
                    while !*released {
                        released = self.unstall.wait(released).expect("lock"); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
                    }
                    return None; // released: run the real op
                }
                FaultKind::Error => return Some(Injected::Error),
                FaultKind::Drop => return Some(Injected::Drop),
                FaultKind::Corrupt => return Some(Injected::Corrupt),
                FaultKind::ShortRead => return Some(Injected::ShortRead),
            }
        }
        None
    }
}

fn parse_duration(v: &str) -> std::result::Result<Duration, String> {
    if let Some(ms) = v.strip_suffix("ms") {
        return ms
            .parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|_| format!("bad duration {v:?}"));
    }
    if let Some(s) = v.strip_suffix('s') {
        return s
            .parse::<u64>()
            .map(Duration::from_secs)
            .map_err(|_| format!("bad duration {v:?}"));
    }
    Err(format!("duration {v:?} needs an ms or s suffix"))
}

/// The error an injected hard fault surfaces as.
pub fn injected_error(what: Injected) -> io::Error {
    match what {
        Injected::Drop => io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected fault: connection drop",
        ),
        _ => io::Error::other("injected fault"),
    }
}

/// A [`ChunkBackend`] that runs a [`FaultPlan`] in front of an inner
/// backend. Test/bench-only by construction: nothing in the store mounts
/// one unless the harness does.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Arc<dyn ChunkBackend>,
    plan: Arc<FaultPlan>,
    disk: usize,
}

impl FaultyBackend {
    /// Wraps `inner` as pool disk `disk` under `plan`.
    pub fn new(inner: Arc<dyn ChunkBackend>, plan: Arc<FaultPlan>, disk: usize) -> Self {
        FaultyBackend { inner, plan, disk }
    }

    /// Maps a non-read injection to its hard error.
    fn hard(&self, object: &str, what: Injected) -> StoreError {
        StoreError::io(
            format!("fault://disk-{}/{object}", self.disk),
            injected_error(what),
        )
    }

    /// Maps a read-op injection to the read result it produces.
    fn read_outcome(&self, object: &str, what: Injected) -> ChunkRead<()> {
        match what {
            Injected::Corrupt => Ok(Err(ChunkStatus::Corrupt {
                reason: "injected fault: payload corrupt".into(),
            })),
            Injected::ShortRead => Ok(Err(ChunkStatus::Corrupt {
                reason: "injected fault: short read".into(),
            })),
            hard => Err(self.hard(object, hard)),
        }
    }
}

impl ChunkBackend for FaultyBackend {
    fn describe(&self) -> String {
        format!("faulty({})", self.inner.describe())
    }

    fn is_available(&self) -> bool {
        if self.plan.gate(self.disk, FaultOp::Meta).is_some() {
            return false;
        }
        self.inner.is_available()
    }

    fn ensure_object(&self, object: &str) -> Result<()> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Meta) {
            return Err(self.hard(object, what));
        }
        self.inner.ensure_object(object)
    }

    fn remove_object(&self, object: &str) -> Result<()> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Meta) {
            return Err(self.hard(object, what));
        }
        self.inner.remove_object(object)
    }

    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<()> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Write) {
            return Err(self.hard(object, what));
        }
        self.inner.write_chunk(object, id, payload)
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Read) {
            return self.read_outcome(object, what);
        }
        self.inner.read_chunk_into(object, id, out)
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Read) {
            return self.read_outcome(object, what);
        }
        self.inner
            .read_chunk_range(object, id, chunk_len, offset, out)
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64)> {
        match self.plan.gate(self.disk, FaultOp::Verify) {
            Some(Injected::Corrupt) | Some(Injected::ShortRead) => Ok((
                ChunkStatus::Corrupt {
                    reason: "injected fault".into(),
                },
                0,
            )),
            Some(hard) => Err(self.hard(object, hard)),
            None => self.inner.verify_chunk(object, id, chunk_len),
        }
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>> {
        if let Some(what) = self.plan.gate(self.disk, FaultOp::Meta) {
            return Err(self.hard("<sweep>", what));
        }
        self.inner.sweep_tmp(min_age)
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn drain_spans(&self) -> Vec<pbrs_obs::trace::SpanRecord> {
        self.inner.drain_spans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalDisk;
    use crate::testing::TempDir;
    use std::time::Instant;

    fn local(dir: &TempDir) -> Arc<dyn ChunkBackend> {
        Arc::new(LocalDisk::new(dir.path().join("disk")))
    }

    const ID: ChunkId = ChunkId {
        stripe: 0,
        shard: 0,
    };

    fn write_one(backend: &dyn ChunkBackend) {
        backend.ensure_object("obj").unwrap();
        backend.write_chunk("obj", ID, &[7u8; 64]).unwrap();
    }

    #[test]
    fn dsl_rejects_malformed_rules() {
        for bad in [
            "",
            "disk=1",              // no fault
            "disk=x stall",        // bad index
            "op=frobnicate stall", // unknown op
            "stall drop",          // two faults
            "delay=10 disk=0",     // missing unit
            "p=1.5 error",         // probability out of range
            "banana",              // unknown clause
        ] {
            assert!(FaultPlan::parse(bad, 1).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_rule_hits_only_its_disk_and_op() {
        let dir = TempDir::new("fault-error");
        let plan = Arc::new(FaultPlan::parse("disk=1 op=read error", 9).unwrap());
        let ok = FaultyBackend::new(local(&dir), Arc::clone(&plan), 0);
        let dir2 = TempDir::new("fault-error-2");
        let bad = FaultyBackend::new(local(&dir2), Arc::clone(&plan), 1);
        write_one(&ok);
        write_one(&bad); // writes pass: the rule is op=read
        let mut buf = [0u8; 64];
        assert!(ok.read_chunk_into("obj", ID, &mut buf).is_ok());
        assert!(bad.read_chunk_into("obj", ID, &mut buf).is_err());
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn corrupt_and_short_surface_as_chunk_status() {
        let dir = TempDir::new("fault-corrupt");
        let plan = Arc::new(FaultPlan::parse("op=read corrupt count=1; op=read short", 3).unwrap());
        let disk = FaultyBackend::new(local(&dir), plan, 0);
        write_one(&disk);
        let mut buf = [0u8; 64];
        let first = disk.read_chunk_into("obj", ID, &mut buf).unwrap();
        assert!(
            matches!(first, Err(ChunkStatus::Corrupt { ref reason }) if reason.contains("corrupt")),
            "{first:?}"
        );
        // Rule 1 is exhausted (count=1); rule 2 now fires with "short".
        let second = disk.read_chunk_into("obj", ID, &mut buf).unwrap();
        assert!(
            matches!(second, Err(ChunkStatus::Corrupt { ref reason }) if reason.contains("short")),
            "{second:?}"
        );
    }

    #[test]
    fn after_skips_and_count_caps() {
        let dir = TempDir::new("fault-window");
        let plan = Arc::new(FaultPlan::parse("op=read error after=2 count=2", 5).unwrap());
        let disk = FaultyBackend::new(local(&dir), plan.clone(), 0);
        write_one(&disk);
        let mut buf = [0u8; 64];
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(disk.read_chunk_into("obj", ID, &mut buf).is_ok());
        }
        assert_eq!(outcomes, [true, true, false, false, true, true]);
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn probability_is_deterministic_under_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse("op=read error p=0.5", seed).unwrap();
            (0..32)
                .map(|_| plan.gate(0, FaultOp::Read).is_some())
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        let fired = run(42).iter().filter(|&&f| f).count();
        assert!((4..=28).contains(&fired), "p=0.5 fired {fired}/32");
    }

    #[test]
    fn stall_blocks_until_released() {
        let dir = TempDir::new("fault-stall");
        let plan = Arc::new(FaultPlan::parse("op=read stall", 1).unwrap());
        let disk = Arc::new(FaultyBackend::new(local(&dir), Arc::clone(&plan), 0));
        write_one(disk.as_ref());
        let started = Instant::now();
        let reader = {
            let disk = Arc::clone(&disk);
            std::thread::spawn(move || {
                let mut buf = [0u8; 64];
                disk.read_chunk_into("obj", ID, &mut buf).unwrap().unwrap();
                started.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(60));
        plan.release();
        let stalled_for = reader.join().unwrap();
        assert!(
            stalled_for >= Duration::from_millis(50),
            "read returned after {stalled_for:?}, before release"
        );
    }

    /// Regression: the `count=` cap used to be a load-then-add, so two
    /// threads racing through `gate` could both pass the check and
    /// over-fire the rule. The cap claim is now a single RMW; no
    /// interleaving may yield more injections than the cap.
    #[test]
    fn count_cap_holds_under_concurrent_gates() {
        for round in 0..8 {
            let plan = Arc::new(FaultPlan::parse("op=read error count=4", round).unwrap());
            let injected: usize = std::thread::scope(|s| {
                (0..8)
                    .map(|_| {
                        let plan = Arc::clone(&plan);
                        s.spawn(move || {
                            (0..64)
                                .filter(|_| plan.gate(0, FaultOp::Read).is_some())
                                .count()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            });
            assert_eq!(injected, 4, "round {round}: cap must be exact");
            assert_eq!(plan.fired(), 4);
        }
    }
}
