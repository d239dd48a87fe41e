//! Causal request tracing: wire-propagated span trees with a
//! tail-sampling flight recorder.
//!
//! Aggregate histograms ([`crate::hist`]) answer "how slow is the p99?";
//! this module answers "why was *this* request the p99?". A
//! [`TraceCtx`] — a `(TraceId, SpanId)` pair — is minted at the front
//! door (gateway admission), threaded **by value** through the serving
//! path, and propagated across process boundaries by the wire
//! protocols. Every timed section becomes a [`SpanRecord`]: name,
//! parent, start, duration, and free-form tags (disk and rack labels,
//! degraded/hedged/fault annotations).
//!
//! Finished spans land in a bounded ring of independently-locked slots
//! (no global lock on the hot path; pushes are an atomic cursor bump
//! plus one uncontended slot lock). Nothing survives the ring unless
//! the **flight recorder** decides the completed request was
//! interesting: when a *root* span finishes, its whole tree is promoted
//! to a small retained buffer only if the op was slow (per-op
//! threshold), degraded, hedged, errored, or deadline-expired — plus a
//! configurable 1-in-N sample of healthy traffic. Overhead stays near
//! zero; every anomaly is captured whole.
//!
//! Retained trees render two ways: a structured JSON document
//! ([`retained_to_json`]) and Chrome `trace_event` format
//! ([`retained_to_chrome`]) loadable in `chrome://tracing` / Perfetto.
//!
//! This module is the workspace's **only** span-timing clock seam: all
//! `Instant`/`SystemTime` reads for span timestamps happen here (see
//! `lint.toml`'s wall-clock allowlist).

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Identifies one end-to-end request across every process it touches.
/// Always nonzero: zero is the wire encoding of "absent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw id; `None` for zero (reserved for "absent").
    pub fn new(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within a trace. Always nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// Wraps a raw id; `None` for zero (reserved for "absent").
    pub fn new(raw: u64) -> Option<SpanId> {
        (raw != 0).then_some(SpanId(raw))
    }

    /// The raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The by-value trace context: which trace a unit of work belongs to and
/// which span is its parent. `Copy`, two words — cheap to thread through
/// job structs and wire envelopes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The end-to-end request id.
    pub trace: TraceId,
    /// The span that child work should parent on.
    pub span: SpanId,
}

impl TraceCtx {
    /// Reconstructs a context from raw wire values; `None` if the trace
    /// id or span id is zero (the "absent" encoding).
    pub fn from_raw(trace: u64, span: u64) -> Option<TraceCtx> {
        Some(TraceCtx {
            trace: TraceId::new(trace)?,
            span: SpanId::new(span)?,
        })
    }
}

/// One finished span: a named, timed section of one process's work on
/// behalf of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span (`None` for the root).
    pub parent: Option<SpanId>,
    /// Section name (`get`, `stripe`, `chunk_io`, …).
    pub name: String,
    /// Recording process (`gateway`, `chunkd:<addr>`, …).
    pub process: String,
    /// Start time, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form annotations: disk/rack labels, `degraded`, `hedged`,
    /// `abandoned`, fault notes.
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// The value of tag `key`, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

// ---------------------------------------------------------------------
// Clocks and ids
// ---------------------------------------------------------------------

/// Epoch anchor: one wall-clock read at first use, then monotonic time
/// carries every timestamp. Spans from one process are therefore
/// mutually consistent (and monotone) even if the wall clock steps.
fn epoch_anchor() -> &'static (u64, Instant) {
    static ANCHOR: OnceLock<(u64, Instant)> = OnceLock::new();
    ANCHOR.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (unix_us, Instant::now())
    })
}

/// Microseconds since the Unix epoch, derived from the monotonic clock
/// past the first call.
pub fn now_unix_micros() -> u64 {
    let (base_us, base) = epoch_anchor();
    base_us + base.elapsed().as_micros() as u64
}

/// Splittable-mix finalizer: decorrelates sequential counter values into
/// well-spread 64-bit ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-unique nonzero 64-bit id: a per-process counter seeded from
/// the wall clock, scrambled through splitmix64.
fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        splitmix64(nanos ^ (std::process::id() as u64) << 32)
    });
    loop {
        // Relaxed: the counter only has to hand out distinct values;
        // it publishes no other memory.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed.wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

// ---------------------------------------------------------------------
// Scoped (thread-local) context
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT_CTX: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The context installed on this thread by [`ScopedCtx`], if any. This
/// is how layers below a value-threading boundary (the object-safe disk
/// trait, the event journal) observe the active trace without signature
/// changes.
pub fn current_ctx() -> Option<TraceCtx> {
    CURRENT_CTX.with(|c| c.get())
}

/// RAII guard installing a thread-local [`TraceCtx`] for the duration of
/// a scope; the previous context (if any) is restored on drop.
#[derive(Debug)]
pub struct ScopedCtx {
    prev: Option<TraceCtx>,
}

impl ScopedCtx {
    /// Installs `ctx` (a `None` leaves the current context untouched but
    /// still restores correctly, so callers can pass their optional
    /// context straight through).
    pub fn enter(ctx: Option<TraceCtx>) -> ScopedCtx {
        let prev = CURRENT_CTX.with(|c| c.get());
        if let Some(ctx) = ctx {
            CURRENT_CTX.with(|c| c.set(Some(ctx)));
        }
        ScopedCtx { prev }
    }
}

impl Drop for ScopedCtx {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_CTX.with(|c| c.set(prev));
    }
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// Flight-recorder and ring sizing / retention policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracerConfig {
    /// Master switch: a disabled tracer mints contexts (so wiring stays
    /// identical) but records and retains nothing.
    pub enabled: bool,
    /// Total finished spans buffered while they await their root. Must
    /// outlast the span fan-out of the requests in flight; when full,
    /// the oldest trace's spans are evicted whole (silently).
    pub ring_capacity: usize,
    /// Complete trees the flight recorder retains (oldest evicted).
    pub retain_capacity: usize,
    /// When nonzero, finished spans are also queued (bounded, oldest
    /// dropped) for another process to drain — the chunkd ship-back path.
    pub export_capacity: usize,
    /// Root duration at or above which an op is "slow" (µs), unless
    /// overridden per op in `slow_us`.
    pub default_slow_us: u64,
    /// Per-op-name overrides of the slow threshold (µs).
    pub slow_us: Vec<(String, u64)>,
    /// Retain 1 in N healthy roots (0 disables healthy sampling).
    pub healthy_sample_n: u64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            enabled: true,
            ring_capacity: 4096,
            retain_capacity: 64,
            export_capacity: 0,
            default_slow_us: 50_000,
            slow_us: Vec::new(),
            healthy_sample_n: 128,
        }
    }
}

/// One complete span tree the flight recorder decided to keep, plus why.
#[derive(Clone, Debug)]
pub struct RetainedTrace {
    /// The trace id.
    pub trace: TraceId,
    /// The root span's id.
    pub root: SpanId,
    /// The root op name (`get`, `put`, `repair`, …).
    pub op: String,
    /// Why the tree was retained (`slow`, `degraded`, `hedged`,
    /// `error`, `deadline_expired`, `sampled`).
    pub reasons: Vec<&'static str>,
    /// Every captured span of the trace (local at retention time;
    /// remote spans merge in via [`Tracer::attach_spans`]). Sorted by
    /// start time; includes the root.
    pub spans: Vec<SpanRecord>,
}

impl RetainedTrace {
    /// The root span's duration in microseconds (0 if the root span is
    /// somehow absent).
    pub fn root_dur_us(&self) -> u64 {
        self.spans
            .iter()
            .find(|s| s.id == self.root)
            .map(|s| s.dur_us)
            .unwrap_or(0)
    }

    /// Spans whose parent is `parent`, in start order.
    pub fn children_of(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }
}

/// Outcome flags the caller knows about the finished root op; combined
/// with span-tag evidence (`hedged`, `abandoned`, `fault`) to decide
/// retention.
#[derive(Clone, Copy, Debug, Default)]
pub struct RootFlags {
    /// The op was served degraded (reconstruction ran).
    pub degraded: bool,
    /// A hedged retry was issued.
    pub hedged: bool,
    /// The op failed.
    pub error: bool,
    /// The op exceeded its deadline.
    pub expired: bool,
}

/// An in-progress span: started on creation, recorded on
/// [`SpanBuilder::finish`]. Carries its own timing, so it can move
/// across threads with the work it measures.
#[derive(Debug)]
pub struct SpanBuilder {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    started: Instant,
    tags: Vec<(String, String)>,
}

impl SpanBuilder {
    /// The context child work should use to parent on this span.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span: self.id,
        }
    }

    /// Adds a tag.
    pub fn tag(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.tags.push((key.into(), value.into()));
    }

    fn into_record(self, process: &str) -> SpanRecord {
        let dur_us = self.started.elapsed().as_micros() as u64;
        SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: self.name,
            process: process.to_string(),
            start_us: self.start_us,
            dur_us,
            tags: self.tags,
        }
    }

    /// Finishes the span and records it with `tracer`.
    pub fn finish(self, tracer: &Tracer) {
        tracer.record(self.into_record(&tracer.process));
    }

    /// Finishes a **root** span: records it, then runs the flight
    /// recorder's tail-sampling decision over the whole local tree.
    /// Returns whether the tree was retained.
    pub fn finish_root(self, tracer: &Tracer, flags: RootFlags) -> bool {
        tracer.finish_root(self.into_record(&tracer.process), flags)
    }
}

/// Finished spans awaiting their root, grouped by trace so a finishing
/// root collects its whole local tree in O(own spans) instead of
/// scanning every buffered span. Bounded by total span count; when
/// full, the oldest trace is evicted whole.
#[derive(Debug, Default)]
struct PendingSpans {
    by_trace: HashMap<u64, Vec<SpanRecord>>,
    /// Trace arrival order, for whole-trace eviction. May hold ids of
    /// traces already taken by their root; those are skipped on
    /// eviction and compacted away when the backlog grows.
    order: VecDeque<u64>,
    /// Total spans across `by_trace`.
    total: usize,
}

impl PendingSpans {
    fn push(&mut self, span: SpanRecord, capacity: usize) {
        let key = span.trace.as_u64();
        let entry = self.by_trace.entry(key).or_insert_with(|| {
            self.order.push_back(key);
            Vec::new()
        });
        entry.push(span);
        self.total += 1;
        while self.total > capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.by_trace.remove(&oldest) {
                self.total -= evicted.len();
            }
        }
    }

    fn take(&mut self, trace: TraceId) -> Vec<SpanRecord> {
        let spans = self.by_trace.remove(&trace.as_u64()).unwrap_or_default();
        self.total -= spans.len();
        // `order` keeps a stale id per taken trace; compact once the
        // stale share dominates so it stays proportional to the map.
        if self.order.len() > 2 * self.by_trace.len() + 64 {
            let live = &self.by_trace;
            self.order.retain(|t| live.contains_key(t));
        }
        spans
    }
}

/// Per-process span recorder: bounded pending-span buffer, tail-sampling
/// flight recorder, and (optionally) an export queue for cross-process
/// span ship-back. Instance-scoped — a test can run a gateway tracer and
/// several chunkd tracers in one OS process without crosstalk.
#[derive(Debug)]
pub struct Tracer {
    process: String,
    config: TracerConfig,
    /// Finished spans grouped by trace, awaiting their root.
    pending: Mutex<PendingSpans>,
    retained: Mutex<VecDeque<RetainedTrace>>,
    export: Mutex<VecDeque<SpanRecord>>,
    healthy_seen: AtomicU64,
    /// Roots retained since creation (all reasons).
    retained_total: AtomicU64,
}

impl Tracer {
    /// A tracer for `process` with the given policy.
    pub fn new(process: impl Into<String>, config: TracerConfig) -> Tracer {
        Tracer {
            process: process.into(),
            config,
            pending: Mutex::new(PendingSpans::default()),
            retained: Mutex::new(VecDeque::new()),
            export: Mutex::new(VecDeque::new()),
            healthy_seen: AtomicU64::new(0),
            retained_total: AtomicU64::new(0),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Roots the flight recorder has retained since creation.
    pub fn retained_total(&self) -> u64 {
        self.retained_total.load(Ordering::Relaxed)
    }

    /// Starts a new root span. With `supplied` (a client-provided
    /// context), the trace id is reused and the root parents on the
    /// client's span; otherwise a fresh trace is minted.
    pub fn root_span(&self, name: impl Into<String>, supplied: Option<TraceCtx>) -> SpanBuilder {
        let (trace, parent) = match supplied {
            Some(ctx) => (ctx.trace, Some(ctx.span)),
            None => (TraceId(fresh_id()), None),
        };
        SpanBuilder {
            trace,
            id: SpanId(fresh_id()),
            parent,
            name: name.into(),
            start_us: now_unix_micros(),
            started: Instant::now(),
            tags: Vec::new(),
        }
    }

    /// Starts a child span of `ctx`.
    pub fn span(&self, name: impl Into<String>, ctx: TraceCtx) -> SpanBuilder {
        SpanBuilder {
            trace: ctx.trace,
            id: SpanId(fresh_id()),
            parent: Some(ctx.span),
            name: name.into(),
            start_us: now_unix_micros(),
            started: Instant::now(),
            tags: Vec::new(),
        }
    }

    /// Records a finished span into the pending buffer (and export
    /// queue when configured). No-op when disabled.
    pub fn record(&self, span: SpanRecord) {
        if !self.config.enabled {
            return;
        }
        if self.config.export_capacity > 0 {
            let mut q = lock(&self.export);
            if q.len() == self.config.export_capacity {
                q.pop_front();
            }
            q.push_back(span.clone());
        }
        lock(&self.pending).push(span, self.config.ring_capacity.max(1));
    }

    /// The slow threshold (µs) for op `name`.
    pub fn slow_threshold_us(&self, name: &str) -> u64 {
        self.config
            .slow_us
            .iter()
            .find(|(op, _)| op == name)
            .map(|(_, us)| *us)
            .unwrap_or(self.config.default_slow_us)
    }

    /// Flight-recorder decision for a finished root: take the local
    /// tree from the pending buffer, decide retention from caller
    /// flags, span-tag evidence, the per-op slow threshold, and healthy
    /// sampling. Returns whether the tree was retained.
    pub fn finish_root(&self, root: SpanRecord, flags: RootFlags) -> bool {
        if !self.config.enabled {
            return false;
        }
        let mut spans = lock(&self.pending).take(root.trace);
        let mut reasons: Vec<&'static str> = Vec::new();
        if root.dur_us >= self.slow_threshold_us(&root.name) {
            reasons.push("slow");
        }
        if flags.degraded || spans.iter().any(|s| s.tag("degraded").is_some()) {
            reasons.push("degraded");
        }
        if flags.hedged || spans.iter().any(|s| s.tag("hedged").is_some()) {
            reasons.push("hedged");
        }
        if flags.error || spans.iter().any(|s| s.tag("fault").is_some()) {
            reasons.push("error");
        }
        if flags.expired {
            reasons.push("deadline_expired");
        }
        if reasons.is_empty() {
            let n = self.config.healthy_sample_n;
            // Relaxed: an independent tally; exact 1-in-N spacing under
            // contention is not part of the sampling contract.
            let seen = self.healthy_seen.fetch_add(1, Ordering::Relaxed);
            if n > 0 && seen.is_multiple_of(n) {
                reasons.push("sampled");
            }
        }
        let retain = !reasons.is_empty();
        let trace = RetainedTrace {
            trace: root.trace,
            root: root.id,
            op: root.name.clone(),
            reasons,
            spans: Vec::new(),
        };
        // The root still ships to exporters (chunkd sends its ops' roots
        // back to the gateway) but does not re-enter the pending buffer:
        // its trace is finished, and a stale entry per op would evict
        // live traces.
        if self.config.export_capacity > 0 {
            let mut q = lock(&self.export);
            if q.len() == self.config.export_capacity {
                q.pop_front();
            }
            q.push_back(root.clone());
        }
        if !retain {
            return false;
        }
        spans.push(root);
        spans.sort_by_key(|s| (s.start_us, s.id.as_u64()));
        let mut trace = trace;
        trace.spans = spans;
        let mut retained = lock(&self.retained);
        if retained.len() == self.config.retain_capacity.max(1) {
            retained.pop_front();
        }
        retained.push_back(trace);
        // Relaxed: a metrics tally sampled by readers; publishes nothing.
        self.retained_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Snapshot of the retained trees, oldest first.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        lock(&self.retained).iter().cloned().collect()
    }

    /// Merges externally-recorded spans (e.g. shipped back from chunkd)
    /// into any retained tree with a matching trace id, deduplicating by
    /// span id. Spans matching no retained tree are discarded. Returns
    /// how many were attached.
    pub fn attach_spans(&self, spans: Vec<SpanRecord>) -> usize {
        let mut retained = lock(&self.retained);
        let mut attached = 0;
        for span in spans {
            for tree in retained.iter_mut() {
                if tree.trace == span.trace && !tree.spans.iter().any(|s| s.id == span.id) {
                    let at = tree.spans.partition_point(|s| {
                        (s.start_us, s.id.as_u64()) <= (span.start_us, span.id.as_u64())
                    });
                    tree.spans.insert(at, span);
                    attached += 1;
                    break;
                }
            }
        }
        attached
    }

    /// Drains the export queue (spans finished since the last drain, up
    /// to the configured bound) — the chunkd ship-back primitive.
    pub fn drain_export(&self) -> Vec<SpanRecord> {
        lock(&self.export).drain(..).collect()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    json_escape_into(out, s);
    out.push('"');
}

/// Renders retained trees as a structured JSON document:
/// `{"traces":[{"trace_id","op","reasons",[spans...]}]}`, each span
/// carrying `span_id`/`parent_id` links that encode the tree.
pub fn retained_to_json(traces: &[RetainedTrace]) -> String {
    let mut out = String::from("{\"traces\":[");
    for (ti, t) in traces.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str("{\"trace_id\":");
        push_json_str(&mut out, &t.trace.to_string());
        out.push_str(",\"root_id\":");
        push_json_str(&mut out, &t.root.to_string());
        out.push_str(",\"op\":");
        push_json_str(&mut out, &t.op);
        out.push_str(",\"root_dur_us\":");
        out.push_str(&t.root_dur_us().to_string());
        out.push_str(",\"reasons\":[");
        for (i, r) in t.reasons.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, r);
        }
        out.push_str("],\"spans\":[");
        for (si, s) in t.spans.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("{\"span_id\":");
            push_json_str(&mut out, &s.id.to_string());
            out.push_str(",\"parent_id\":");
            match s.parent {
                Some(p) => push_json_str(&mut out, &p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            push_json_str(&mut out, &s.name);
            out.push_str(",\"process\":");
            push_json_str(&mut out, &s.process);
            out.push_str(",\"start_us\":");
            out.push_str(&s.start_us.to_string());
            out.push_str(",\"dur_us\":");
            out.push_str(&s.dur_us.to_string());
            out.push_str(",\"tags\":{");
            for (i, (k, v)) in s.tags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders retained trees in Chrome `trace_event` JSON (the
/// `{"traceEvents":[...]}` object form): one complete (`ph:"X"`) event
/// per span, one pid per recording process (with `process_name`
/// metadata), one tid per trace. Load the output in `chrome://tracing`
/// or [Perfetto](https://ui.perfetto.dev).
pub fn retained_to_chrome(traces: &[RetainedTrace]) -> String {
    // Stable pid per process label, in order of appearance.
    let mut pids: Vec<&str> = Vec::new();
    let mut pid_of = HashMap::new();
    for t in traces {
        for s in &t.spans {
            if !pid_of.contains_key(s.process.as_str()) {
                pid_of.insert(s.process.as_str(), pids.len() + 1);
                pids.push(&s.process);
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, process) in pids.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        out.push_str(&(pid + 1).to_string());
        out.push_str(",\"tid\":0,\"args\":{\"name\":");
        push_json_str(&mut out, process);
        out.push_str("}}");
    }
    for (ti, t) in traces.iter().enumerate() {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            push_json_str(&mut out, &s.name);
            out.push_str(",\"cat\":\"pbrs\",\"ph\":\"X\",\"ts\":");
            out.push_str(&s.start_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&s.dur_us.max(1).to_string());
            out.push_str(",\"pid\":");
            out.push_str(
                &pid_of
                    .get(s.process.as_str())
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            );
            out.push_str(",\"tid\":");
            out.push_str(&(ti + 1).to_string());
            out.push_str(",\"args\":{\"trace_id\":");
            push_json_str(&mut out, &t.trace.to_string());
            out.push_str(",\"span_id\":");
            push_json_str(&mut out, &s.id.to_string());
            out.push_str(",\"parent_id\":");
            match s.parent {
                Some(p) => push_json_str(&mut out, &p.to_string()),
                None => out.push_str("null"),
            }
            for (k, v) in &s.tags {
                out.push(',');
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tracer(config: TracerConfig) -> Tracer {
        Tracer::new("test", config)
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id");
        }
    }

    #[test]
    fn scoped_ctx_nests_and_restores() {
        assert_eq!(current_ctx(), None);
        let outer = TraceCtx::from_raw(1, 2).unwrap();
        let inner = TraceCtx::from_raw(3, 4).unwrap();
        {
            let _a = ScopedCtx::enter(Some(outer));
            assert_eq!(current_ctx(), Some(outer));
            {
                let _b = ScopedCtx::enter(Some(inner));
                assert_eq!(current_ctx(), Some(inner));
                {
                    // None passes the current context through.
                    let _c = ScopedCtx::enter(None);
                    assert_eq!(current_ctx(), Some(inner));
                }
            }
            assert_eq!(current_ctx(), Some(outer));
        }
        assert_eq!(current_ctx(), None);
    }

    #[test]
    fn zero_wire_values_decode_to_absent() {
        assert_eq!(TraceCtx::from_raw(0, 5), None);
        assert_eq!(TraceCtx::from_raw(5, 0), None);
        assert!(TraceCtx::from_raw(5, 6).is_some());
    }

    #[test]
    fn degraded_root_is_retained_with_its_children() {
        let t = test_tracer(TracerConfig {
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let root = t.root_span("get", None);
        let mut child = t.span("stripe", root.ctx());
        let leaf = t.span("chunk_io", child.ctx());
        leaf.finish(&t);
        child.tag("degraded", "1");
        child.finish(&t);
        let retained = root.finish_root(
            &t,
            RootFlags {
                degraded: true,
                ..RootFlags::default()
            },
        );
        assert!(retained);
        let trees = t.retained();
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.op, "get");
        assert!(tree.reasons.contains(&"degraded"));
        assert_eq!(tree.spans.len(), 3);
        // Parent links form one tree rooted at the root span.
        let root_span = tree.spans.iter().find(|s| s.id == tree.root).unwrap();
        assert_eq!(root_span.parent, None);
        assert_eq!(tree.children_of(tree.root).len(), 1);
    }

    #[test]
    fn healthy_fast_roots_are_dropped_unless_sampled() {
        let t = test_tracer(TracerConfig {
            healthy_sample_n: 4,
            default_slow_us: u64::MAX,
            ..TracerConfig::default()
        });
        let mut kept = 0;
        for _ in 0..8 {
            let root = t.root_span("get", None);
            if root.finish_root(&t, RootFlags::default()) {
                kept += 1;
            }
        }
        assert_eq!(kept, 2, "1-in-4 sampling over 8 healthy roots");
        assert!(t.retained().iter().all(|tr| tr.reasons == vec!["sampled"]));
    }

    #[test]
    fn slow_threshold_is_per_op() {
        let t = test_tracer(TracerConfig {
            default_slow_us: 0, // everything is slow
            slow_us: vec![("put".to_string(), u64::MAX)],
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        assert!(t
            .root_span("get", None)
            .finish_root(&t, RootFlags::default()));
        assert!(!t
            .root_span("put", None)
            .finish_root(&t, RootFlags::default()));
        assert_eq!(t.retained_total(), 1);
    }

    #[test]
    fn hedged_evidence_in_span_tags_retains_the_tree() {
        let t = test_tracer(TracerConfig {
            default_slow_us: u64::MAX,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let root = t.root_span("get", None);
        let mut child = t.span("rebuild", root.ctx());
        child.tag("hedged", "disk 3 stalled");
        child.finish(&t);
        assert!(root.finish_root(&t, RootFlags::default()));
        assert_eq!(t.retained()[0].reasons, vec!["hedged"]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_mints_contexts() {
        // Compiled in but disabled.
        let t = Tracer::new(
            "test",
            TracerConfig {
                enabled: false,
                ring_capacity: 1,
                ..TracerConfig::default()
            },
        );
        let root = t.root_span("get", None);
        let ctx = root.ctx();
        assert_ne!(ctx.trace.as_u64(), 0);
        let leaf = t.span("chunk_io", ctx);
        leaf.finish(&t);
        assert!(!root.finish_root(
            &t,
            RootFlags {
                degraded: true,
                ..RootFlags::default()
            }
        ));
        assert!(t.retained().is_empty());
        assert!(t.drain_export().is_empty());
    }

    #[test]
    fn retained_buffer_is_bounded() {
        let t = test_tracer(TracerConfig {
            default_slow_us: 0,
            retain_capacity: 3,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        for _ in 0..10 {
            t.root_span("get", None)
                .finish_root(&t, RootFlags::default());
        }
        assert_eq!(t.retained().len(), 3);
        assert_eq!(t.retained_total(), 10);
    }

    #[test]
    fn export_queue_ships_and_drains() {
        let t = test_tracer(TracerConfig {
            export_capacity: 4,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let ctx = TraceCtx::from_raw(7, 8).unwrap();
        for _ in 0..6 {
            t.span("disk_read", ctx).finish(&t);
        }
        let drained = t.drain_export();
        assert_eq!(drained.len(), 4, "bounded, oldest dropped");
        assert!(t.drain_export().is_empty());
    }

    #[test]
    fn attach_spans_merges_remote_spans_into_retained_trees() {
        let t = test_tracer(TracerConfig {
            default_slow_us: 0,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let root = t.root_span("get", None);
        let leaf_ctx = {
            let leaf = t.span("chunk_io", root.ctx());
            let ctx = leaf.ctx();
            leaf.finish(&t);
            ctx
        };
        assert!(root.finish_root(&t, RootFlags::default()));
        // A "remote" span parented on the local leaf.
        let remote = SpanRecord {
            trace: leaf_ctx.trace,
            id: SpanId::new(0xdead).unwrap(),
            parent: Some(leaf_ctx.span),
            name: "read_range".to_string(),
            process: "chunkd:127.0.0.1:9000".to_string(),
            start_us: now_unix_micros(),
            dur_us: 42,
            tags: vec![("object".to_string(), "obj".to_string())],
        };
        // Unmatched trace ids are discarded; duplicates attach once.
        let stray = SpanRecord {
            trace: TraceId::new(0xbeef).unwrap(),
            ..remote.clone()
        };
        assert_eq!(t.attach_spans(vec![remote.clone(), stray]), 1);
        assert_eq!(t.attach_spans(vec![remote.clone()]), 0);
        let tree = &t.retained()[0];
        assert!(tree.spans.iter().any(|s| s.id == remote.id));
        assert_eq!(tree.children_of(leaf_ctx.span).len(), 1);
    }

    #[test]
    fn json_rendering_carries_the_tree() {
        let t = test_tracer(TracerConfig {
            default_slow_us: 0,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let root = t.root_span("get", None);
        let mut leaf = t.span("chunk_io", root.ctx());
        leaf.tag("disk", "3");
        leaf.tag("rack", "r\"1\"");
        leaf.finish(&t);
        root.finish_root(&t, RootFlags::default());
        let json = retained_to_json(&t.retained());
        assert!(json.starts_with("{\"traces\":["));
        assert!(json.contains("\"op\":\"get\""));
        assert!(json.contains("\"name\":\"chunk_io\""));
        assert!(json.contains("\"disk\":\"3\""));
        assert!(json.contains("\"rack\":\"r\\\"1\\\"\""), "{json}");
        assert!(json.contains("\"reasons\":[\"slow\"]"));
    }

    #[test]
    fn chrome_rendering_is_trace_event_shaped() {
        let t = test_tracer(TracerConfig {
            default_slow_us: 0,
            healthy_sample_n: 0,
            ..TracerConfig::default()
        });
        let root = t.root_span("get", None);
        let leaf = t.span("chunk_io", root.ctx());
        leaf.finish(&t);
        root.finish_root(&t, RootFlags::default());
        let chrome = retained_to_chrome(&t.retained());
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"M\""), "process metadata");
        assert!(chrome.contains("\"ph\":\"X\""), "complete events");
        assert!(chrome.contains("\"process_name\""));
        assert!(chrome.ends_with("]}"));
    }

    #[test]
    fn unix_micros_are_monotone() {
        let a = now_unix_micros();
        let b = now_unix_micros();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000_000, "after Sep 2020 in µs");
    }
}
