//! A named registry of latency histograms.
//!
//! Layers that grow metrics organically (the chunk servers' per-op
//! timings) register by name and get back a shared handle; the registry
//! renders everything it holds in one pass, either as a flat JSON object
//! or as Prometheus exposition text. Layers with a fixed metric struct
//! (the gateway's `GatewayMetrics`) keep their structs and use
//! [`crate::prom`] directly — the registry is for the open-ended case.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::prom;

/// A registry of named histograms. Cheap to clone handles out of; names
/// are stable and render in sorted order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the histogram `name` (values in microseconds).
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        Arc::clone(inner.entry(name.to_string()).or_default())
    }

    /// Snapshot every histogram, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        inner
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
            .collect()
    }

    /// Render everything as Prometheus exposition text. Each metric name
    /// is prefixed with `prefix` (pass `""` for none); values are
    /// microseconds and render with `le` boundaries in seconds.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, h) in self.snapshot() {
            let full = format!("{prefix}{name}");
            prom::type_line(&mut out, &full, "histogram");
            prom::histogram_samples(&mut out, &full, &[], &h);
        }
        out
    }

    /// Render everything as one flat JSON object of histogram summaries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, h)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&name);
            out.push_str("\":");
            out.push_str(&h.summary().to_json());
        }
        out.push('}');
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        f.debug_struct("Registry")
            .field("metrics", &inner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.histogram("lat");
        let b = r.histogram("lat");
        a.record(1);
        b.record(2);
        assert_eq!(r.histogram("lat").snapshot().count(), 2);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let r = Registry::new();
        r.histogram("zeta").record(1);
        r.histogram("alpha").record(3);
        r.histogram("mid").record(10);
        let names: Vec<_> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn prometheus_render_has_type_lines_and_values() {
        let r = Registry::new();
        r.histogram("op_duration_seconds").record(1_000_000);
        let text = r.to_prometheus("pbrs_test_");
        assert!(text.contains("# TYPE pbrs_test_op_duration_seconds histogram"));
        assert!(text.contains("pbrs_test_op_duration_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn json_render_is_flat_with_histogram_summaries() {
        let r = Registry::new();
        r.histogram("lat").record(100);
        r.histogram("n").record(2);
        let j = r.to_json();
        assert!(j.starts_with("{\"lat\":{\"count\":1"), "{j}");
        assert!(j.contains(",\"n\":{\"count\":1"), "{j}");
    }
}
