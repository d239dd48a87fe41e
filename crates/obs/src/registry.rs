//! A named metric registry over counters, gauges and histograms.
//!
//! Layers that grow metrics organically (the chunk servers' per-op
//! timings, ad-hoc instrumentation in tests and benches) register by
//! name and get back a shared handle; the registry renders everything it
//! holds in one pass, either as a flat JSON object or as Prometheus
//! exposition text. Layers with a fixed metric struct (the gateway's
//! `GatewayMetrics`) keep their structs and use [`crate::prom`]
//! directly — the registry is for the open-ended case.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::prom;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: same contract as `inc`.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

/// Snapshot of one registry entry.
#[derive(Clone, Debug)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram snapshot (values in microseconds).
    Histogram(HistogramSnapshot),
}

/// A registry of named metrics. Cheap to clone handles out of; names
/// are stable and render in sorted order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            // pbrs-lint: allow(panic-hygiene) -- metric kind collision is a programming error caught at registration
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            // pbrs-lint: allow(panic-hygiene) -- metric kind collision is a programming error caught at registration
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` (values in microseconds).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(LatencyHistogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            // pbrs-lint: allow(panic-hygiene) -- metric kind collision is a programming error caught at registration
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let inner = self.inner.lock().unwrap(); // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        inner
            .iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect()
    }

    /// Render everything as Prometheus exposition text. Each metric name
    /// is prefixed with `prefix` (pass `""` for none); histogram values
    /// are microseconds and render with `le` boundaries in seconds.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, snap) in self.snapshot() {
            let full = format!("{prefix}{name}");
            match snap {
                MetricSnapshot::Counter(v) => {
                    prom::type_line(&mut out, &full, "counter");
                    prom::sample(&mut out, &full, &[], v as f64);
                }
                MetricSnapshot::Gauge(v) => {
                    prom::type_line(&mut out, &full, "gauge");
                    prom::sample(&mut out, &full, &[], v as f64);
                }
                MetricSnapshot::Histogram(h) => {
                    prom::type_line(&mut out, &full, "histogram");
                    prom::histogram_samples(&mut out, &full, &[], &h);
                }
            }
        }
        out
    }

    /// Render everything as one flat JSON object: counters and gauges as
    /// numbers, histograms as summary sub-objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, snap)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&name);
            out.push_str("\":");
            match snap {
                MetricSnapshot::Counter(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Gauge(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Histogram(h) => out.push_str(&h.summary().to_json()),
            }
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
        let a = r.counter("requests");
        let b = r.counter("requests");
        a.add(1);
        b.add(2);
        assert_eq!(r.counter("requests").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let r = Registry::new();
        r.counter("zeta").add(1);
        r.gauge("alpha").set(-3);
        r.histogram("mid").record(10);
        let names: Vec<_> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn prometheus_render_has_type_lines_and_values() {
        let r = Registry::new();
        r.counter("ops_total").add(7);
        r.gauge("depth").set(4);
        r.histogram("op_duration_seconds").record(1_000_000);
        let text = r.to_prometheus("pbrs_test_");
        assert!(text.contains("# TYPE pbrs_test_ops_total counter"));
        assert!(text.contains("pbrs_test_ops_total 7"));
        assert!(text.contains("# TYPE pbrs_test_depth gauge"));
        assert!(text.contains("pbrs_test_depth 4"));
        assert!(text.contains("# TYPE pbrs_test_op_duration_seconds histogram"));
        assert!(text.contains("pbrs_test_op_duration_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn json_render_is_flat_with_histogram_summaries() {
        let r = Registry::new();
        r.counter("n").add(2);
        r.histogram("lat").record(100);
        let j = r.to_json();
        assert!(j.contains("\"n\":2"));
        assert!(j.contains("\"lat\":{\"count\":1"));
    }
}
