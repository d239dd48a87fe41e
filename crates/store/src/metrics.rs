//! Traffic and health counters.
//!
//! The whole point of running a real store under the paper's codes is to
//! *measure bytes*. The bytes that PUTs, degraded reads, repairs and scrubs
//! move are counted once, in the store's byte ledger: one row per purpose,
//! each holding the plans' helper bytes split by rack and the bytes read
//! and written. Beside it sit plain counts (objects, stripes, chunks,
//! hedges). [`crate::BlockStore::metrics`] produces a [`MetricsSnapshot`]
//! labelled with the store's code, so two stores running the same
//! workload under different codes can be compared side by side — the
//! paper's RS-vs-Piggybacked experiment on real file I/O.

use std::sync::atomic::{AtomicU64, Ordering};

use pbrs_obs::hist::HistogramSnapshot;
use pbrs_obs::prom;
use pbrs_obs::LatencyHistogram;

use crate::health::HealthTracker;

/// Why a chunk op moved bytes: the row of the [`Ledger`] it is counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Purpose {
    /// A PUT's chunk writes: chunk bytes stored, zero padding included.
    Put,
    /// The helper reads of rebuilds that serve degraded reads.
    Degraded,
    /// A repair's helper reads and its write-back.
    Repair,
    /// Checksum verifies: scrub passes, and the re-verify of the chunks a
    /// repair is asked to rebuild.
    Scrub,
}

/// Bytes moved for one purpose. `same_rack + cross_rack` is the plans'
/// price, the helper bytes ([`crate::StripeRepair::helper_bytes`]), split
/// by the helper's rack relative to the target's, and recorded when a
/// rebuild succeeds; `read` is the bytes of the reads begun on backends,
/// recorded as they are begun, and `written` the chunk bytes stored.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Traffic {
    /// Planned helper bytes from the target's own rack.
    pub(crate) same_rack: u64,
    /// Planned helper bytes from other racks.
    pub(crate) cross_rack: u64,
    /// Bytes of the reads begun.
    pub(crate) read: u64,
    /// Chunk bytes of the writes that landed, zero chunks included: a
    /// write batch records them once every write of it has succeeded.
    pub(crate) written: u64,
}

impl Traffic {
    /// The plans' price: every planned helper byte.
    pub(crate) fn helper(&self) -> u64 {
        self.same_rack + self.cross_rack
    }
}

/// The store's byte table: one atomic [`Traffic`] row per [`Purpose`].
/// Rows only grow.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// `rows[purpose]` holds `[same_rack, cross_rack, read, written]`.
    rows: [[AtomicU64; 4]; 4],
}

impl Ledger {
    /// Adds `traffic` to the row of `purpose`.
    pub(crate) fn record(&self, purpose: Purpose, traffic: Traffic) {
        let Traffic {
            same_rack,
            cross_rack,
            read,
            written,
        } = traffic;
        let cells = &self.rows[purpose as usize];
        for (cell, n) in cells.iter().zip([same_rack, cross_rack, read, written]) {
            // Relaxed: independent tallies that publish no other memory.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The row of `purpose` as it stands now.
    pub(crate) fn row(&self, purpose: Purpose) -> Traffic {
        let [same_rack, cross_rack, read, written] = self.rows[purpose as usize]
            .each_ref()
            // Relaxed: a sample for reporting; skew against a record in
            // flight is acceptable.
            .map(|c| c.load(Ordering::Relaxed));
        Traffic {
            same_rack,
            cross_rack,
            read,
            written,
        }
    }
}

/// Shared atomic counters, updated by every store thread: the byte
/// [`Ledger`] and the counts beside it.
#[derive(Debug, Default)]
pub(crate) struct StoreMetrics {
    /// The bytes PUTs, degraded reads, repairs and scrubs moved, by
    /// purpose.
    pub(crate) ledger: Ledger,
    /// Logical object bytes accepted by `put`.
    pub(crate) bytes_ingested: AtomicU64,
    /// Chunk files written by `put` (data + parity).
    pub(crate) chunks_written: AtomicU64,
    /// Objects served by `get`.
    pub(crate) objects_read: AtomicU64,
    /// Logical object bytes served by `get`.
    pub(crate) bytes_served: AtomicU64,
    /// Stripes that needed a degraded read to be served.
    pub(crate) degraded_stripe_reads: AtomicU64,
    /// Chunks found corrupt (bad checksum / header) by any path.
    pub(crate) corrupt_chunks_detected: AtomicU64,
    /// Chunks rebuilt by repair.
    pub(crate) chunks_repaired: AtomicU64,
    /// Chunks examined by scrub passes.
    pub(crate) chunks_scrubbed: AtomicU64,
    /// Single-loss rebuilds that abandoned a slow helper and re-planned
    /// around it (only under [`crate::StoreConfig::hedge_delay`]).
    pub(crate) hedged_reads: AtomicU64,
    /// Hedged rebuilds whose switched-to helper set completed the rebuild.
    pub(crate) hedge_wins: AtomicU64,
}

impl StoreMetrics {
    /// Adds `n` to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, labelled with the code
    /// `name`. The deadline and breaker counts are the health tracker's
    /// (0 without one): they are recorded inside the guarded disks.
    pub(crate) fn snapshot(&self, code: &str, health: Option<&HealthTracker>) -> MetricsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let put = self.ledger.row(Purpose::Put);
        let degraded = self.ledger.row(Purpose::Degraded);
        let repair = self.ledger.row(Purpose::Repair);
        let scrub = self.ledger.row(Purpose::Scrub);
        MetricsSnapshot {
            code: code.to_string(),
            bytes_ingested: get(&self.bytes_ingested),
            chunks_written: get(&self.chunks_written),
            chunk_bytes_written: put.written,
            objects_read: get(&self.objects_read),
            bytes_served: get(&self.bytes_served),
            degraded_stripe_reads: get(&self.degraded_stripe_reads),
            degraded_helper_bytes: degraded.helper(),
            degraded_intra_rack_bytes: degraded.same_rack,
            degraded_cross_rack_bytes: degraded.cross_rack,
            degraded_fetched_bytes: degraded.read,
            corrupt_chunks_detected: get(&self.corrupt_chunks_detected),
            chunks_repaired: get(&self.chunks_repaired),
            repair_helper_bytes: repair.helper(),
            repair_intra_rack_bytes: repair.same_rack,
            repair_cross_rack_bytes: repair.cross_rack,
            repair_fetched_bytes: repair.read,
            repair_bytes_written: repair.written,
            chunks_scrubbed: get(&self.chunks_scrubbed),
            scrub_bytes_read: scrub.read,
            hedged_reads: get(&self.hedged_reads),
            hedge_wins: get(&self.hedge_wins),
            disk_timeouts: health.map_or(0, HealthTracker::total_timeouts),
            disk_sheds: health.map_or(0, HealthTracker::total_shed),
        }
    }
}

/// A point-in-time copy of a store's counters, labelled with its code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `ErasureCode::name()` of the store's code.
    pub code: String,
    /// Logical object bytes accepted by `put`.
    pub bytes_ingested: u64,
    /// Chunk files written by `put`.
    pub chunks_written: u64,
    /// Chunk bytes stored by `put`, zero padding included: `n ×
    /// chunk_len` per stripe, though a padding chunk is written with no
    /// payload.
    pub chunk_bytes_written: u64,
    /// Objects served by `get`.
    pub objects_read: u64,
    /// Logical object bytes served by `get`.
    pub bytes_served: u64,
    /// Stripes that needed a degraded read to be served.
    pub degraded_stripe_reads: u64,
    /// The price of the rebuilds that served degraded reads.
    pub degraded_helper_bytes: u64,
    /// Degraded-read helper bytes sourced from the damaged chunk's own rack.
    pub degraded_intra_rack_bytes: u64,
    /// Degraded-read helper bytes that crossed racks.
    pub degraded_cross_rack_bytes: u64,
    /// Helper bytes degraded reads actually requested from backends,
    /// counted as each read is begun, so a degraded read that fails is
    /// counted too.
    pub degraded_fetched_bytes: u64,
    /// Chunks found corrupt by any path.
    pub corrupt_chunks_detected: u64,
    /// Chunks rebuilt by repair.
    pub chunks_repaired: u64,
    /// The price of repairs: the helper bytes their plans consume.
    pub repair_helper_bytes: u64,
    /// Repair helper bytes sourced from the rebuilt chunk's own rack.
    pub repair_intra_rack_bytes: u64,
    /// Repair helper bytes that crossed racks.
    pub repair_cross_rack_bytes: u64,
    /// Helper bytes repairs actually requested from backends, counted as
    /// each read is begun, so a repair that fails is counted too.
    pub repair_fetched_bytes: u64,
    /// Rebuilt chunk payload bytes written back.
    pub repair_bytes_written: u64,
    /// Chunks examined by scrub passes.
    pub chunks_scrubbed: u64,
    /// Payload bytes read by scrub passes.
    pub scrub_bytes_read: u64,
    /// Single-loss rebuilds that abandoned a slow helper and re-planned.
    pub hedged_reads: u64,
    /// Hedged rebuilds completed by the switched-to helper set.
    pub hedge_wins: u64,
    /// Chunk ops abandoned at the per-op deadline.
    pub disk_timeouts: u64,
    /// Chunk ops shed by a disk's circuit breaker.
    pub disk_sheds: u64,
}

/// Lock-free latency histograms for the store's hot paths (all values in
/// microseconds). Kept apart from the counters so [`MetricsSnapshot`]
/// stays a plain `Eq` counter struct.
#[derive(Debug, Default)]
pub struct StoreLatency {
    /// Whole-stripe reads served entirely from healthy chunks.
    pub healthy_stripe_read: LatencyHistogram,
    /// Whole-stripe reads that needed reconstruction (includes the
    /// healthy-chunk reads that preceded the damage discovery).
    pub degraded_stripe_read: LatencyHistogram,
    /// Just the reconstruct portion of a degraded read: helper reads plus
    /// erasure arithmetic.
    pub degraded_reconstruct: LatencyHistogram,
    /// Whole repair jobs ([`crate::BlockStore::repair_stripe`]): verify,
    /// rebuild, write back.
    pub repair_job: LatencyHistogram,
}

impl StoreLatency {
    /// A point-in-time copy of every histogram.
    pub fn snapshot(&self) -> StoreLatencySnapshot {
        StoreLatencySnapshot {
            healthy_stripe_read: self.healthy_stripe_read.snapshot(),
            degraded_stripe_read: self.degraded_stripe_read.snapshot(),
            degraded_reconstruct: self.degraded_reconstruct.snapshot(),
            repair_job: self.repair_job.snapshot(),
        }
    }
}

/// Point-in-time copies of the store's latency histograms.
#[derive(Clone, Debug)]
pub struct StoreLatencySnapshot {
    /// Healthy whole-stripe read durations.
    pub healthy_stripe_read: HistogramSnapshot,
    /// Degraded whole-stripe read durations.
    pub degraded_stripe_read: HistogramSnapshot,
    /// Reconstruct-only portion of degraded reads.
    pub degraded_reconstruct: HistogramSnapshot,
    /// Whole repair-job durations.
    pub repair_job: HistogramSnapshot,
}

impl StoreLatencySnapshot {
    /// Append this snapshot as Prometheus histogram families
    /// (`pbrs_store_*_duration_seconds`).
    pub fn write_prometheus(&self, out: &mut String) {
        let read = "pbrs_store_stripe_read_duration_seconds";
        prom::type_line(out, read, "histogram");
        prom::histogram_samples(out, read, &[("path", "healthy")], &self.healthy_stripe_read);
        prom::histogram_samples(
            out,
            read,
            &[("path", "degraded")],
            &self.degraded_stripe_read,
        );
        let reconstruct = "pbrs_store_degraded_reconstruct_duration_seconds";
        prom::type_line(out, reconstruct, "histogram");
        prom::histogram_samples(out, reconstruct, &[], &self.degraded_reconstruct);
        let repair = "pbrs_store_repair_job_duration_seconds";
        prom::type_line(out, repair, "histogram");
        prom::histogram_samples(out, repair, &[], &self.repair_job);
    }

    /// Render as a JSON object of [`pbrs_obs::Summary`] sub-objects.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"healthy_stripe_read\":{},\"degraded_stripe_read\":{},",
                "\"degraded_reconstruct\":{},\"repair_job\":{}}}"
            ),
            self.healthy_stripe_read.summary().to_json(),
            self.degraded_stripe_read.summary().to_json(),
            self.degraded_reconstruct.summary().to_json(),
            self.repair_job.summary().to_json(),
        )
    }
}

impl MetricsSnapshot {
    /// Append the counters as Prometheus `pbrs_store_*` samples.
    pub fn write_prometheus(&self, out: &mut String) {
        let fields: [(&str, u64); 23] = [
            ("bytes_ingested", self.bytes_ingested),
            ("chunks_written", self.chunks_written),
            ("chunk_bytes_written", self.chunk_bytes_written),
            ("objects_read", self.objects_read),
            ("bytes_served", self.bytes_served),
            ("degraded_stripe_reads", self.degraded_stripe_reads),
            ("degraded_helper_bytes", self.degraded_helper_bytes),
            ("degraded_intra_rack_bytes", self.degraded_intra_rack_bytes),
            ("degraded_cross_rack_bytes", self.degraded_cross_rack_bytes),
            ("degraded_fetched_bytes", self.degraded_fetched_bytes),
            ("corrupt_chunks_detected", self.corrupt_chunks_detected),
            ("chunks_repaired", self.chunks_repaired),
            ("repair_helper_bytes", self.repair_helper_bytes),
            ("repair_intra_rack_bytes", self.repair_intra_rack_bytes),
            ("repair_cross_rack_bytes", self.repair_cross_rack_bytes),
            ("repair_fetched_bytes", self.repair_fetched_bytes),
            ("repair_bytes_written", self.repair_bytes_written),
            ("chunks_scrubbed", self.chunks_scrubbed),
            ("scrub_bytes_read", self.scrub_bytes_read),
            ("hedged_reads", self.hedged_reads),
            ("hedge_wins", self.hedge_wins),
            ("disk_timeouts", self.disk_timeouts),
            ("disk_sheds", self.disk_sheds),
        ];
        for (field, value) in fields {
            let name = format!("pbrs_store_{field}_total");
            prom::type_line(out, &name, "counter");
            out.push_str(&name);
            out.push_str("{code=\"");
            out.push_str(&self.code);
            out.push_str("\"} ");
            out.push_str(&value.to_string());
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let metrics = StoreMetrics::default();
        StoreMetrics::add(&metrics.bytes_ingested, 100);
        // Every cell distinct, so a swapped purpose or column shows.
        let cells = |same_rack, cross_rack, read, written| Traffic {
            same_rack,
            cross_rack,
            read,
            written,
        };
        metrics.ledger.record(Purpose::Put, cells(11, 13, 17, 19));
        metrics
            .ledger
            .record(Purpose::Degraded, cells(1, 4, 23, 29));
        metrics.ledger.record(Purpose::Repair, cells(2, 5, 31, 37));
        metrics.ledger.record(Purpose::Scrub, cells(41, 43, 47, 53));
        let snap = metrics.snapshot("RS(10, 4)", None);
        assert_eq!(snap.code, "RS(10, 4)");
        assert_eq!(snap.bytes_ingested, 100);
        assert_eq!(snap.repair_helper_bytes, 7);
        assert_eq!(snap.degraded_helper_bytes, 5);
        assert_eq!(snap.chunk_bytes_written, 19);
        assert_eq!(snap.degraded_intra_rack_bytes, 1);
        assert_eq!(snap.degraded_cross_rack_bytes, 4);
        assert_eq!(snap.degraded_fetched_bytes, 23);
        assert_eq!(snap.repair_intra_rack_bytes, 2);
        assert_eq!(snap.repair_cross_rack_bytes, 5);
        assert_eq!(snap.repair_fetched_bytes, 31);
        assert_eq!(snap.repair_bytes_written, 37);
        assert_eq!(snap.scrub_bytes_read, 47);
        assert_eq!(
            snap.degraded_helper_bytes,
            snap.degraded_intra_rack_bytes + snap.degraded_cross_rack_bytes
        );
        assert_eq!(
            snap.repair_helper_bytes,
            snap.repair_intra_rack_bytes + snap.repair_cross_rack_bytes
        );
        // Counters keep accumulating after a snapshot.
        StoreMetrics::add(&metrics.bytes_ingested, 1);
        assert_eq!(metrics.snapshot("x", None).bytes_ingested, 101);
    }

    #[test]
    fn latency_snapshot_renders_json_and_prometheus() {
        let latency = StoreLatency::default();
        latency.degraded_reconstruct.record(1_500);
        latency.repair_job.record(20_000);
        let snap = latency.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"degraded_reconstruct\":{\"count\":1"));
        assert!(json.contains("\"repair_job\":{\"count\":1"));
        let mut prom_text = String::new();
        snap.write_prometheus(&mut prom_text);
        assert!(
            prom_text.contains("# TYPE pbrs_store_degraded_reconstruct_duration_seconds histogram")
        );
        assert!(prom_text.contains("pbrs_store_repair_job_duration_seconds_count 1"));
        assert!(prom_text.contains("path=\"healthy\""));
    }

    #[test]
    fn counters_render_prometheus_with_code_label() {
        let metrics = StoreMetrics::default();
        let degraded = Traffic {
            same_rack: 40,
            cross_rack: 2,
            ..Traffic::default()
        };
        metrics.ledger.record(Purpose::Degraded, degraded);
        let repair = Traffic {
            read: 7,
            ..Traffic::default()
        };
        metrics.ledger.record(Purpose::Repair, repair);
        let mut out = String::new();
        metrics
            .snapshot("Piggybacked-RS(10, 4)", None)
            .write_prometheus(&mut out);
        assert!(out.contains("# TYPE pbrs_store_degraded_helper_bytes_total counter"));
        assert!(out
            .contains("pbrs_store_degraded_helper_bytes_total{code=\"Piggybacked-RS(10, 4)\"} 42"));
        assert!(
            out.contains("pbrs_store_repair_fetched_bytes_total{code=\"Piggybacked-RS(10, 4)\"} 7")
        );
        assert!(out.contains("# TYPE pbrs_store_degraded_fetched_bytes_total counter"));
    }
}
