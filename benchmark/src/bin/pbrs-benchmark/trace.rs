//! The traced run's span recorder. Spans are taken from outside the
//! program, around the calls into each layer, kept in memory, and written
//! as Chrome `trace_event` JSON when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `NO_PARENT` marks an op's root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = 0;

pub struct Span {
    pub name: &'static str,
    /// Spans of one benchmark op (one GET, PUT or rebuild cycle) share it.
    pub op: u64,
    pub id: SpanId,
    pub parent: SpanId,
    pub lane: u32,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `work` inside a span, handing it the span's id so children
    /// can name it as parent; returns the result, that id and the span's
    /// duration in microseconds.
    pub fn record<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        lane: u32,
        work: impl FnOnce(SpanId) -> R,
    ) -> (R, SpanId, f64) {
        // Relaxed: the id only has to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = work(id);
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span log lock").push(Span {
            name,
            op,
            id,
            parent,
            lane,
            start_us,
            dur_us,
        });
        (result, id, dur_us)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// Per span name: `(count, total µs, self µs)`, where a span's self time
    /// is its duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span log lock");
        let mut children: BTreeMap<SpanId, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            *children.entry(s.parent).or_default() += s.dur_us;
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += s.dur_us - children.get(&s.id).copied().unwrap_or(0.0);
        }
        by_name
    }

    /// Writes every span as a Chrome `trace_event` complete event
    /// (Perfetto / `chrome://tracing` load it as is).
    pub fn write_chrome(&self, path: &Path) {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = String::with_capacity(spans.len() * 160 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name, s.lane, s.start_us, s.dur_us, s.op, s.id, s.parent
            )
            .expect("write to string");
        }
        out.push_str("\n]}\n");
        fs::write(path, out).expect("write trace file");
    }
}

/// Times `work`, and records it as a span when a log is given: traced and
/// untraced passes run the very same code.
pub fn span<R>(
    log: Option<&SpanLog>,
    name: &'static str,
    op: u64,
    parent: SpanId,
    lane: u32,
    work: impl FnOnce(SpanId) -> R,
) -> (R, SpanId, f64) {
    match log {
        Some(log) => log.record(name, op, parent, lane, work),
        None => {
            let start = Instant::now();
            let result = work(NO_PARENT);
            (result, NO_PARENT, start.elapsed().as_secs_f64() * 1e6)
        }
    }
}
