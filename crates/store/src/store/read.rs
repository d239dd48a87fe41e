//! The read path: one stripe served into the caller's buffer, degraded
//! when a chunk of it is lost.
//!
//! `get` reads the `k` data chunks of each stripe — begun together, then
//! collected together ([`crate::ChunkBackend::begin_read`]) — and verifies
//! their checksums; a short stripe's padding chunks are only checked
//! ([`crate::ChunkBackend::begin_verify`]). When a chunk is missing or corrupt
//! the stripe is served *degraded*: the one rebuild loop (`rebuild.rs`) plans
//! each lost data chunk over the shards still available, reads exactly the
//! helper byte ranges the plans name (for a Piggybacked-RS single loss,
//! half-chunks) that the read has not already delivered, and solves each
//! target. The helper bytes crossing disks are counted in the store's byte
//! ledger ([`BlockStore::metrics`]), which is how the paper's ~30 %
//! repair-traffic saving becomes measurable on real file I/O. `get` is
//! [`crate::ObjectReader`] driven over every stripe: stripes decode one after
//! another straight into the output buffer with one reusable stripe-sized
//! scratch — no per-stripe allocation on the hot path.

use std::time::Instant;

use pbrs_obs::{Stage, StageTimes};

use super::{BlockStore, ReadOutcome, StripeRef, StripeScratch, StripeSpan};
use crate::chunk::ChunkId;
use crate::error::Result;
use crate::metrics::{Purpose, StoreMetrics};

impl BlockStore {
    /// Every stripe row of one object (placement per stripe), resolved once
    /// so multi-stripe reads do not take the manifest lock per stripe.
    pub(crate) fn object_rows(&self, object: &str, stripes: u64) -> Vec<Vec<usize>> {
        let manifest = self.read_manifest();
        (0..stripes)
            .map(|s| Self::resolve_row(&manifest, &self.map, object, s))
            .collect()
    }

    /// Serves the `k × chunk_len` data bytes of stripe `at` into `dest`,
    /// reusing the caller's scratch buffers throughout. Returns whether
    /// the stripe was served degraded (one or more chunks rebuilt from
    /// survivors instead of read directly) — callers like the gateway
    /// surface that share per response.
    ///
    /// Stage attribution: chunk reads (healthy and helper) accumulate into
    /// `times` as [`Stage::ChunkIo`], rebuild arithmetic as
    /// [`Stage::Erasure`], and the whole-stripe duration feeds the store's
    /// healthy/degraded latency histograms.
    pub(crate) fn read_stripe_into(
        &self,
        at: &StripeRef<'_>,
        dest: &mut [u8],
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<bool> {
        let op = || self.read_stripe_into_inner(at, dest, scratch, times);
        let span = StripeSpan::Child("read_stripe");
        self.in_span(span, at.object, at.stripe, op, |&degraded| degraded)
    }

    fn read_stripe_into_inner(
        &self,
        at: &StripeRef<'_>,
        dest: &mut [u8],
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<bool> {
        let stripe_start = Instant::now();
        let k = self.code.params().data_shards();
        debug_assert_eq!(dest.len(), self.stripe_data_len());
        // Fast path: read and verify the k data chunks straight into the
        // caller's destination — the healthy case touches no scratch and
        // pays no extra copy. The chunks sit on k different disks, so all k
        // reads are begun before any is waited for: the stripe costs the
        // slowest round trip, not their sum. A padding chunk's bytes are
        // known: its slot is zeroed and its chunk only checked, so a lost
        // or damaged padding chunk still degrades the stripe.
        let pending: Vec<_> = dest
            .chunks_mut(self.chunk_len)
            .enumerate()
            .map(|(shard, slot)| {
                let disk = &self.disks[at.row[shard]];
                let id = ChunkId {
                    stripe: at.stripe,
                    shard,
                };
                if at.padding.contains(&shard) {
                    slot.fill(0);
                    disk.begin_verify(at.object, id, self.chunk_len)
                } else {
                    disk.begin_read(at.object, id, self.chunk_len, 0, slot)
                }
            })
            .collect();
        // Every read is collected before a hard error is returned: no read
        // is left in flight into `dest`.
        let mut outcome = ReadOutcome::default();
        for (shard, read) in pending.into_iter().enumerate() {
            self.settle_read(shard, None, read.wait(), "", &mut outcome);
        }
        if let Some(e) = outcome.hard {
            return Err(e);
        }
        let mut bad = outcome.failed;
        times.add_duration(Stage::ChunkIo, stripe_start.elapsed());
        if bad.is_empty() {
            self.latency
                .healthy_stripe_read
                .record_duration(stripe_start.elapsed());
            return Ok(false);
        }

        // Degraded read: install the verified data chunks into the scratch
        // stripe (the rebuild reads its helpers from there).
        StoreMetrics::add(&self.metrics.degraded_stripe_reads, 1);
        let rebuild_start = Instant::now();
        scratch.present.fill(false);
        for shard in 0..k {
            if !bad.contains(&shard) {
                scratch
                    .buf
                    .shard_mut(shard)
                    .copy_from_slice(&dest[shard * self.chunk_len..(shard + 1) * self.chunk_len]);
                scratch.present[shard] = true;
            }
        }
        self.rebuild(at, &mut bad, Purpose::Degraded, scratch, times)?;
        // Only the lost chunks changed: the rest of `dest` is as read.
        for shard in bad {
            dest[shard * self.chunk_len..(shard + 1) * self.chunk_len]
                .copy_from_slice(scratch.buf.shard(shard));
        }
        self.latency
            .degraded_reconstruct
            .record_duration(rebuild_start.elapsed());
        self.latency
            .degraded_stripe_read
            .record_duration(stripe_start.elapsed());
        Ok(true)
    }

    /// Read-metrics bump for streaming readers ([`crate::ObjectReader`]),
    /// which serve an object without going through [`BlockStore::get`].
    pub(crate) fn note_streamed_read(&self, bytes_served: u64, whole_object: bool) {
        if whole_object {
            StoreMetrics::add(&self.metrics.objects_read, 1);
        }
        StoreMetrics::add(&self.metrics.bytes_served, bytes_served);
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use crate::store::{BlockStore, StoreConfig};
    use crate::testing::TempDir;
    use crate::StoreError;

    #[test]
    fn a_failed_degraded_read_counts_the_helper_reads_it_began() {
        let dir = TempDir::new("store-read-failed");
        let spec = "rs-4-2".parse().unwrap();
        let store =
            BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(4096))
                .unwrap();
        let data: Vec<u8> = (0..4 * 4096).map(|i| (i % 251) as u8).collect();
        store.put("obj", &data[..]).unwrap();
        for shard in [0, 4, 5] {
            fs::remove_file(store.chunk_path("obj", 0, shard)).unwrap();
        }
        let before = store.metrics();
        assert!(matches!(
            store.get("obj"),
            Err(StoreError::StripeUnrecoverable { .. })
        ));
        let after = store.metrics();
        // Data shards 1–3 are read by the fast path; the rebuild then
        // begins one helper at a time, parity 4 and then parity 5, and
        // both turn out lost: 2 × 4096 bytes were asked for.
        assert_eq!(
            after.degraded_fetched_bytes - before.degraded_fetched_bytes,
            2 * 4096
        );
        assert_eq!(after.degraded_helper_bytes, before.degraded_helper_bytes);
    }
}
