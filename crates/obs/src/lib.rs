//! `pbrs-obs`: the workspace's observability core.
//!
//! The paper's whole argument is measurement — repair and degraded-read
//! traffic *observed* on a production warehouse cluster. This crate
//! gives the serving stack the same discipline about latency that the
//! store already has about bytes:
//!
//! * [`hist`] — lock-free log-linear latency histograms with a fixed
//!   mergeable bucket layout (16 sub-buckets per octave, ≤ 6.25%
//!   relative error), exact sums for means, and interpolated
//!   `p50/p95/p99/p999`;
//! * [`stage`] — the [`stage::Stage`] vocabulary (`Queue`, `Erasure`,
//!   `ChunkIo`, `Flush`), per-request [`stage::StageTimes`]
//!   accumulators, and shared [`stage::StageSet`] histogram bundles;
//! * [`registry`] — a named registry of histograms for layers whose
//!   metrics grow organically;
//! * [`journal`] — a bounded structured [`journal::EventJournal`]
//!   (repairs, scrubs, errors, panics, with timestamps) replacing
//!   single-slot `last_error` strings;
//! * [`prom`] — Prometheus text-exposition rendering over all of the
//!   above, with histogram `le` boundaries in seconds and optional
//!   exemplars linking hot buckets to retained traces;
//! * [`trace`] — causal request tracing: wire-propagated
//!   [`trace::TraceCtx`] span trees recorded into a bounded ring, with
//!   a tail-sampling flight recorder that retains complete trees for
//!   slow/degraded/hedged/errored roots plus a 1-in-N healthy sample.
//!
//! Convention: every histogram in this workspace records
//! **microseconds**. JSON expositions carry `_us` fields; the
//! Prometheus renderer converts to seconds at the boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod prom;
pub mod registry;
pub mod stage;
pub mod trace;

pub use hist::{HistogramSnapshot, LatencyHistogram, Summary};
pub use journal::{Event, EventJournal, EventKind};
pub use registry::Registry;
pub use stage::{Stage, StageSet, StageSnapshot, StageTimes};
pub use trace::{
    RetainedTrace, RootFlags, ScopedCtx, SpanBuilder, SpanId, SpanRecord, TraceCtx, TraceId,
    Tracer, TracerConfig,
};
