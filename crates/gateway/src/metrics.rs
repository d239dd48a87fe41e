//! Gateway-side traffic and admission counters, plus per-op latency
//! histograms and per-stage timing of GETs.
//!
//! The counters are relaxed `AtomicU64`s bumped from the reactor thread
//! (and read from anywhere): monotonic totals, not a consistent snapshot,
//! exactly like the store's [`pbrs_store::metrics`]. Latency lives in
//! lock-free [`LatencyHistogram`]s (microsecond samples): one histogram
//! per op class ([`OpClass`]) — with GETs split healthy vs degraded — and
//! one [`StageSet`] per GET path breaking each request into
//! queue/erasure/chunk-io/flush time. The `METRICS` RPC serialises all of
//! it as versioned JSON (`schema_version: 2`, documented in
//! `OPERATIONS.md`), and the `PROMETHEUS` RPC renders the text
//! exposition, so a load generator can cross-check its client-observed
//! percentiles against the server's without scraping logs.

use std::sync::atomic::{AtomicU64, Ordering};

use pbrs_obs::hist::HistogramSnapshot;
use pbrs_obs::trace::RetainedTrace;
use pbrs_obs::{prom, LatencyHistogram, StageSet, StageSnapshot};

/// The op classes the gateway tracks latency for. GETs are split by
/// whether any stripe of the response was served degraded — the paper's
/// healthy-vs-degraded read-latency comparison, measured at the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A committed PUT (PUT_START → Created).
    Put,
    /// A GET whose every stripe was read healthy.
    GetHealthy,
    /// A GET that rebuilt at least one stripe from survivors.
    GetDegraded,
    /// A committed DELETE.
    Delete,
}

/// Live counters of one gateway; see the [module docs](self).
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// End-to-end PUT latency (admission to last response byte written).
    pub put_latency: LatencyHistogram,
    /// End-to-end latency of fully-healthy GETs.
    pub get_healthy_latency: LatencyHistogram,
    /// End-to-end latency of GETs with ≥ 1 degraded stripe.
    pub get_degraded_latency: LatencyHistogram,
    /// End-to-end DELETE latency.
    pub delete_latency: LatencyHistogram,
    /// Stage breakdown (queue/erasure/chunk-io/flush) of healthy GETs.
    pub healthy_get_stages: StageSet,
    /// Stage breakdown of degraded GETs.
    pub degraded_get_stages: StageSet,
    /// Connections accepted and registered.
    pub connections_accepted: AtomicU64,
    /// Connections refused because `max_connections` was reached
    /// (accepted and immediately closed).
    pub connections_refused: AtomicU64,
    /// Currently registered connections.
    pub open_connections: AtomicU64,
    /// Requests admitted (PUT/GET/DELETE that got past the admission
    /// gate, plus every STAT/METRICS).
    pub requests_admitted: AtomicU64,
    /// Requests shed with `BUSY` at the admission gate.
    pub requests_shed: AtomicU64,
    /// Bytes read off client sockets (framing included).
    pub bytes_in: AtomicU64,
    /// Bytes written to client sockets (framing included).
    pub bytes_out: AtomicU64,
    /// Stripes streamed to clients by GETs.
    pub stripes_served: AtomicU64,
    /// Of those, stripes served degraded (rebuilt from survivors).
    pub degraded_stripes_served: AtomicU64,
    /// Objects committed by PUTs.
    pub objects_put: AtomicU64,
    /// Objects tombstoned by DELETEs.
    pub objects_deleted: AtomicU64,
    /// Requests answered with an error response.
    pub request_errors: AtomicU64,
    /// GET stripe jobs abandoned at dequeue because they out-waited
    /// [`request_deadline`](crate::server::GatewayConfig::request_deadline).
    pub requests_expired: AtomicU64,
}

/// A point-in-time copy of [`GatewayMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`GatewayMetrics::connections_accepted`].
    pub connections_accepted: u64,
    /// See [`GatewayMetrics::connections_refused`].
    pub connections_refused: u64,
    /// See [`GatewayMetrics::open_connections`].
    pub open_connections: u64,
    /// See [`GatewayMetrics::requests_admitted`].
    pub requests_admitted: u64,
    /// See [`GatewayMetrics::requests_shed`].
    pub requests_shed: u64,
    /// See [`GatewayMetrics::bytes_in`].
    pub bytes_in: u64,
    /// See [`GatewayMetrics::bytes_out`].
    pub bytes_out: u64,
    /// See [`GatewayMetrics::stripes_served`].
    pub stripes_served: u64,
    /// See [`GatewayMetrics::degraded_stripes_served`].
    pub degraded_stripes_served: u64,
    /// See [`GatewayMetrics::objects_put`].
    pub objects_put: u64,
    /// See [`GatewayMetrics::objects_deleted`].
    pub objects_deleted: u64,
    /// See [`GatewayMetrics::request_errors`].
    pub request_errors: u64,
    /// See [`GatewayMetrics::requests_expired`].
    pub requests_expired: u64,
}

impl GatewayMetrics {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        // Relaxed: metrics cells are independent tallies sampled by
        // snapshot(); they publish no other memory.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(counter: &AtomicU64, n: u64) {
        // Relaxed: same contract as `add`.
        counter.fetch_sub(n, Ordering::Relaxed);
    }

    /// The latency histogram of one op class.
    pub fn op_latency(&self, class: OpClass) -> &LatencyHistogram {
        match class {
            OpClass::Put => &self.put_latency,
            OpClass::GetHealthy => &self.get_healthy_latency,
            OpClass::GetDegraded => &self.get_degraded_latency,
            OpClass::Delete => &self.delete_latency,
        }
    }

    /// Snapshot of every latency histogram and stage set.
    pub fn latency(&self) -> GatewayLatencySnapshot {
        GatewayLatencySnapshot {
            put: self.put_latency.snapshot(),
            get_healthy: self.get_healthy_latency.snapshot(),
            get_degraded: self.get_degraded_latency.snapshot(),
            delete: self.delete_latency.snapshot(),
            healthy_get_stages: self.healthy_get_stages.snapshot(),
            degraded_get_stages: self.degraded_get_stages.snapshot(),
        }
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            connections_accepted: get(&self.connections_accepted),
            connections_refused: get(&self.connections_refused),
            open_connections: get(&self.open_connections),
            requests_admitted: get(&self.requests_admitted),
            requests_shed: get(&self.requests_shed),
            bytes_in: get(&self.bytes_in),
            bytes_out: get(&self.bytes_out),
            stripes_served: get(&self.stripes_served),
            degraded_stripes_served: get(&self.degraded_stripes_served),
            objects_put: get(&self.objects_put),
            objects_deleted: get(&self.objects_deleted),
            request_errors: get(&self.request_errors),
            requests_expired: get(&self.requests_expired),
        }
    }
}

/// Point-in-time copy of the gateway's latency histograms and stage sets.
#[derive(Clone, Debug)]
pub struct GatewayLatencySnapshot {
    /// See [`GatewayMetrics::put_latency`].
    pub put: HistogramSnapshot,
    /// See [`GatewayMetrics::get_healthy_latency`].
    pub get_healthy: HistogramSnapshot,
    /// See [`GatewayMetrics::get_degraded_latency`].
    pub get_degraded: HistogramSnapshot,
    /// See [`GatewayMetrics::delete_latency`].
    pub delete: HistogramSnapshot,
    /// See [`GatewayMetrics::healthy_get_stages`].
    pub healthy_get_stages: StageSnapshot,
    /// See [`GatewayMetrics::degraded_get_stages`].
    pub degraded_get_stages: StageSnapshot,
}

/// One exemplar per op class, harvested from the flight recorder's
/// retained traces: the Prometheus exposition attaches each to the
/// bucket its root duration falls into, linking the histogram's slow
/// tail to a concrete trace id the `TRACES` verb can expand.
#[derive(Clone, Debug, Default)]
pub struct OpExemplars {
    /// Exemplar for the `put` histogram member.
    pub put: Option<prom::Exemplar>,
    /// Exemplar for `get_healthy`.
    pub get_healthy: Option<prom::Exemplar>,
    /// Exemplar for `get_degraded`.
    pub get_degraded: Option<prom::Exemplar>,
    /// Exemplar for `delete`.
    pub delete: Option<prom::Exemplar>,
}

impl OpExemplars {
    /// Picks, per op class, the most recently retained trace (latest
    /// wins — retention order is chronological). A retained `get` counts
    /// as degraded when the recorder kept it for that reason.
    pub fn from_retained(traces: &[RetainedTrace]) -> OpExemplars {
        let mut ex = OpExemplars::default();
        for t in traces {
            let slot = match t.op.as_str() {
                "put" => &mut ex.put,
                "get" if t.reasons.contains(&"degraded") => &mut ex.get_degraded,
                "get" => &mut ex.get_healthy,
                "delete" => &mut ex.delete,
                _ => continue,
            };
            *slot = Some(prom::Exemplar {
                trace_id: t.trace.to_string(),
                value_us: t.root_dur_us(),
            });
        }
        ex
    }
}

impl GatewayLatencySnapshot {
    /// The `"ops"` object of the v2 metrics JSON: one [`pbrs_obs::Summary`]
    /// per op class.
    pub fn ops_json(&self) -> String {
        format!(
            "{{\"put\":{},\"get_healthy\":{},\"get_degraded\":{},\"delete\":{}}}",
            self.put.summary().to_json(),
            self.get_healthy.summary().to_json(),
            self.get_degraded.summary().to_json(),
            self.delete.summary().to_json(),
        )
    }

    /// The `"stages"` object of the v2 metrics JSON: per-stage summaries
    /// for the healthy and degraded GET paths.
    pub fn stages_json(&self) -> String {
        format!(
            "{{\"healthy_get\":{},\"degraded_get\":{}}}",
            self.healthy_get_stages.to_json(),
            self.degraded_get_stages.to_json(),
        )
    }

    /// Appends the gateway's latency families to a Prometheus exposition,
    /// attaching each op class's exemplar (when present) to the bucket its
    /// value falls in.
    pub fn write_prometheus_with_exemplars(&self, out: &mut String, exemplars: &OpExemplars) {
        let dur = "pbrs_gateway_op_duration_seconds";
        prom::type_line(out, dur, "histogram");
        for (class, snap, ex) in [
            ("put", &self.put, &exemplars.put),
            ("get_healthy", &self.get_healthy, &exemplars.get_healthy),
            ("get_degraded", &self.get_degraded, &exemplars.get_degraded),
            ("delete", &self.delete, &exemplars.delete),
        ] {
            prom::histogram_samples_with_exemplar(out, dur, &[("op", class)], snap, ex.as_ref());
        }
        let stage_dur = "pbrs_gateway_get_stage_duration_seconds";
        prom::type_line(out, stage_dur, "histogram");
        for (path, stages) in [
            ("healthy", &self.healthy_get_stages),
            ("degraded", &self.degraded_get_stages),
        ] {
            for (stage, _) in stages.summaries() {
                prom::histogram_samples(
                    out,
                    stage_dur,
                    &[("path", path), ("stage", stage.as_str())],
                    stages.stage(stage),
                );
            }
        }
    }
}

impl MetricsSnapshot {
    /// Appends the gateway's counters to a Prometheus exposition.
    pub fn write_prometheus(&self, out: &mut String) {
        let fields: [(&str, u64); 13] = [
            ("connections_accepted", self.connections_accepted),
            ("connections_refused", self.connections_refused),
            ("open_connections", self.open_connections),
            ("requests_admitted", self.requests_admitted),
            ("requests_shed", self.requests_shed),
            ("bytes_in", self.bytes_in),
            ("bytes_out", self.bytes_out),
            ("stripes_served", self.stripes_served),
            ("degraded_stripes_served", self.degraded_stripes_served),
            ("objects_put", self.objects_put),
            ("objects_deleted", self.objects_deleted),
            ("request_errors", self.request_errors),
            ("requests_expired", self.requests_expired),
        ];
        for (name, value) in fields {
            // `open_connections` is a level, not a monotonic total.
            let (full, kind) = if name == "open_connections" {
                (format!("pbrs_gateway_{name}"), "gauge")
            } else {
                (format!("pbrs_gateway_{name}_total"), "counter")
            };
            prom::type_line(out, &full, kind);
            prom::sample(out, &full, &[], value as f64);
        }
    }

    /// The `METRICS` RPC payload (`schema_version: 2`): every counter,
    /// per-op latency summaries (`"ops"`), per-stage GET breakdowns
    /// (`"stages"`), and the store's latency section (`"store"`,
    /// pre-rendered by the caller).
    pub fn to_json(&self, latency: &GatewayLatencySnapshot, store_json: &str) -> String {
        format!(
            concat!(
                "{{\"schema_version\":2,",
                "\"connections_accepted\":{},\"connections_refused\":{},",
                "\"open_connections\":{},\"requests_admitted\":{},",
                "\"requests_shed\":{},\"bytes_in\":{},\"bytes_out\":{},",
                "\"stripes_served\":{},\"degraded_stripes_served\":{},",
                "\"objects_put\":{},\"objects_deleted\":{},",
                "\"request_errors\":{},\"requests_expired\":{},",
                "\"ops\":{},\"stages\":{},\"store\":{}}}"
            ),
            self.connections_accepted,
            self.connections_refused,
            self.open_connections,
            self.requests_admitted,
            self.requests_shed,
            self.bytes_in,
            self.bytes_out,
            self.stripes_served,
            self.degraded_stripes_served,
            self.objects_put,
            self.objects_deleted,
            self.request_errors,
            self.requests_expired,
            latency.ops_json(),
            latency.stages_json(),
            store_json,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_json() {
        let m = GatewayMetrics::default();
        GatewayMetrics::add(&m.requests_admitted, 3);
        GatewayMetrics::add(&m.requests_shed, 1);
        GatewayMetrics::add(&m.open_connections, 2);
        GatewayMetrics::sub(&m.open_connections, 1);
        let snap = m.snapshot();
        assert_eq!(snap.requests_admitted, 3);
        assert_eq!(snap.requests_shed, 1);
        assert_eq!(snap.open_connections, 1);
        let json = snap.to_json(&m.latency(), "{}");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests_shed\":1"));
    }

    #[test]
    fn metrics_json_matches_its_golden_bytes() {
        use pbrs_obs::Stage;

        let m = GatewayMetrics::default();
        let counters = [
            &m.connections_accepted,
            &m.connections_refused,
            &m.open_connections,
            &m.requests_admitted,
            &m.requests_shed,
            &m.bytes_in,
            &m.bytes_out,
            &m.stripes_served,
            &m.degraded_stripes_served,
            &m.objects_put,
            &m.objects_deleted,
            &m.request_errors,
            &m.requests_expired,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            GatewayMetrics::add(counter, i as u64 + 1);
        }
        m.put_latency.record(120);
        m.get_healthy_latency.record(900);
        m.get_healthy_latency.record(1_500);
        m.get_degraded_latency.record(40_000);
        m.healthy_get_stages.record(Stage::Queue, 30);
        m.degraded_get_stages.record(Stage::Erasure, 700);
        let json = m.snapshot().to_json(&m.latency(), "{\"stripe_reads\":7}");
        let golden = concat!(
            "{\"schema_version\":2,\"connections_accepted\":1,\"connections_refused\":2,",
            "\"open_connections\":3,\"requests_admitted\":4,\"requests_shed\":5,",
            "\"bytes_in\":6,\"bytes_out\":7,\"stripes_served\":8,",
            "\"degraded_stripes_served\":9,\"objects_put\":10,\"objects_deleted\":11,",
            "\"request_errors\":12,\"requests_expired\":13,",
            "\"ops\":{",
            "\"put\":{\"count\":1,\"p50_us\":120,\"p95_us\":120,\"p99_us\":120,",
            "\"p999_us\":120,\"mean_us\":120.0,\"max_us\":120},",
            "\"get_healthy\":{\"count\":2,\"p50_us\":927,\"p95_us\":1500,\"p99_us\":1500,",
            "\"p999_us\":1500,\"mean_us\":1200.0,\"max_us\":1500},",
            "\"get_degraded\":{\"count\":1,\"p50_us\":40000,\"p95_us\":40000,",
            "\"p99_us\":40000,\"p999_us\":40000,\"mean_us\":40000.0,\"max_us\":40000},",
            "\"delete\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0}},",
            "\"stages\":{\"healthy_get\":{",
            "\"queue\":{\"count\":1,\"p50_us\":30,\"p95_us\":30,\"p99_us\":30,",
            "\"p999_us\":30,\"mean_us\":30.0,\"max_us\":30},",
            "\"erasure\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0},",
            "\"chunk_io\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0},",
            "\"flush\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0}},",
            "\"degraded_get\":{",
            "\"queue\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0},",
            "\"erasure\":{\"count\":1,\"p50_us\":700,\"p95_us\":700,\"p99_us\":700,",
            "\"p999_us\":700,\"mean_us\":700.0,\"max_us\":700},",
            "\"chunk_io\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0},",
            "\"flush\":{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,",
            "\"p999_us\":0,\"mean_us\":0.0,\"max_us\":0}}},",
            "\"store\":{\"stripe_reads\":7}}",
        );
        assert_eq!(json, golden);
    }
}
