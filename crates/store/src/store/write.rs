//! The write path: an object's name reserved, its stripes encoded and
//! written, its manifest entry committed, and `delete`.
//!
//! `put` streams an object into stripes of `k × chunk_len` bytes, encodes each
//! stripe with the zero-copy [`pbrs_erasure::ErasureCode::encode_into`] into a
//! single contiguous [`ShardBuffer`], and writes all `k + r` chunks as
//! checksummed files (see [`crate::chunk`]); the zero padding of a short last
//! stripe is written as zero chunks
//! ([`crate::ChunkBackend::begin_write_zeros`]), so no payload is sent for it.
//! One thread drives an object, one stripe at a time; the concurrency is inside
//! the stripe, across its disks: all `k + r` writes are begun
//! ([`crate::ChunkBackend::begin_write`]) before any is waited for, so a stripe
//! on networked disks costs its slowest write, not their sum. A repair's
//! write-back is the same write batch. The manifest is committed only after
//! every chunk of the object is durable, so a crashed `put` leaves orphan
//! chunks, never a readable-but-wrong object. `put` and the streaming
//! [`crate::ObjectWriter`] are the same sequence ([`crate::stream`]).

use std::ops::Range;

use pbrs_erasure::ShardBuffer;
use pbrs_placement::PlacementPolicy;

use super::{BlockStore, StripeRef, StripeSpan};
use crate::chunk::ChunkId;
use crate::error::{Result, StoreError};
use crate::manifest::{validate_object_name, ObjectInfo};
use crate::metrics::{Purpose, StoreMetrics, Traffic};

impl BlockStore {
    /// Reserves `name` against concurrent writers and existing objects:
    /// the shared admission step of [`BlockStore::put`] and the streaming
    /// [`crate::ObjectWriter`]. A successful reservation must be paired
    /// with [`BlockStore::release_name`].
    pub(crate) fn reserve_name(&self, name: &str) -> Result<()> {
        validate_object_name(name)?;
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        let mut in_flight = self.in_flight.lock().expect("lock");
        if self.read_manifest().objects.contains_key(name) || !in_flight.insert(name.to_string()) {
            return Err(StoreError::ObjectExists {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Releases a [`BlockStore::reserve_name`] reservation.
    pub(crate) fn release_name(&self, name: &str) {
        // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
        self.in_flight.lock().expect("lock").remove(name);
    }

    /// Pre-ingest disk preparation for a reserved name: sweeps the dead chunks
    /// of a tombstoned predecessor (the old and new files share names, so the
    /// old ones must go *before* new ones land). Nothing is created: each
    /// disk's object directory is made by the first chunk write that lands
    /// there ([`crate::ChunkBackend::write_chunk`]), so a fresh name costs no
    /// round trip before its first stripe.
    pub(crate) fn prepare_object_dirs(&self, name: &str) -> Result<()> {
        if self.read_manifest().tombstones.contains(name) {
            self.remove_batch(name)?;
        }
        Ok(())
    }

    /// Removes every chunk of `name` from every disk in one batch: every
    /// removal is begun ([`crate::ChunkBackend::begin_remove`]) before any
    /// is waited for, and every one is collected before the first error is
    /// returned.
    fn remove_batch(&self, name: &str) -> Result<()> {
        let pending: Vec<_> = self
            .disks
            .iter()
            .map(|disk| disk.begin_remove(name))
            .collect();
        let waited: Vec<Result<()>> = pending.into_iter().map(|remove| remove.wait()).collect();
        waited.into_iter().collect()
    }

    /// The durable commit of a fully ingested object (every chunk of every
    /// stripe written): pins the metadata and placement rows in the
    /// manifest, clears any tombstone, and rolls all of it back if the
    /// manifest save fails — an object whose entry never became durable
    /// must not be readable. Shared by [`BlockStore::put`] and the
    /// streaming [`crate::ObjectWriter`].
    pub(crate) fn commit_object(&self, name: &str, total: u64, stripes: u64) -> Result<ObjectInfo> {
        let info = ObjectInfo {
            len: total,
            stripes,
        };
        // Re-derive the rows the stripe writes used (placement is a pure
        // function of name + stripe) and pin them in the manifest.
        let rows: Option<Vec<Vec<usize>>> =
            (self.map.policy() != PlacementPolicy::Identity).then(|| {
                (0..stripes)
                    .map(|s| self.map.disks_for_object_stripe(name, s))
                    .collect()
            });
        {
            let mut manifest = self.write_manifest();
            manifest.objects.insert(name.to_string(), info);
            if let Some(rows) = rows {
                manifest.placements.insert(name.to_string(), rows);
            }
            let had_tombstone = manifest.tombstones.remove(name);
            if let Err(e) = manifest.save(&self.root) {
                // Keep the in-memory map honest (matching the durable file):
                // an object whose manifest entry never became durable must
                // not be readable (its chunks are about to be cleaned up by
                // the caller).
                manifest.objects.remove(name);
                manifest.placements.remove(name);
                if had_tombstone {
                    manifest.tombstones.insert(name.to_string());
                }
                return Err(e);
            }
        }
        StoreMetrics::add(&self.metrics.bytes_ingested, total);
        Ok(info)
    }

    /// Encodes the (already filled) data shards of `buf` and writes all
    /// `n` chunk files of `stripe` in one [`BlockStore::write_batch`]. The
    /// data shards in `padding` are zero padding ([`BlockStore::padding`]).
    pub(crate) fn encode_and_write_stripe(
        &self,
        name: &str,
        stripe: u64,
        buf: &mut ShardBuffer,
        padding: Range<usize>,
    ) -> Result<()> {
        let op = || {
            let (k, n) = {
                let params = self.code.params();
                (params.data_shards(), params.total_shards())
            };
            {
                let (data, mut parity) = buf.split_mut(k);
                self.code.encode_into(&data, &mut parity)?;
            }
            // Pure function of (seed, name, stripe): the commit re-derives
            // and persists the same row.
            let row = self.map.disks_for_object_stripe(name, stripe);
            let at = StripeRef {
                object: name,
                stripe,
                row: &row,
                padding,
            };
            self.write_batch(&at, buf, 0..n, Purpose::Put)?;
            StoreMetrics::add(&self.metrics.chunks_written, n as u64);
            Ok(())
        };
        let span = StripeSpan::Child("write_stripe");
        self.in_span(span, name, stripe, op, |_| false)
    }

    /// Writes shards `shards` of stripe `at` from their slots of `buf`, a
    /// padding shard as a zero chunk with no payload sent
    /// ([`crate::ChunkBackend::begin_write_zeros`]): the one chunk write batch
    /// of `put` and repair. The chunks go to different disks, so every write is
    /// begun before any is waited for, and the batch costs its slowest write,
    /// not their sum. Every write is collected before the first error is
    /// returned: none is still in flight when the caller removes the object's
    /// chunks. On success the chunk bytes stored are recorded in `purpose`'s
    /// row of the ledger, and returned.
    pub(super) fn write_batch(
        &self,
        at: &StripeRef<'_>,
        buf: &ShardBuffer,
        shards: impl IntoIterator<Item = usize>,
        purpose: Purpose,
    ) -> Result<u64> {
        let pending: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let disk = &self.disks[at.row[shard]];
                let id = ChunkId {
                    stripe: at.stripe,
                    shard,
                };
                if at.padding.contains(&shard) {
                    disk.begin_write_zeros(at.object, id, self.chunk_len)
                } else {
                    disk.begin_write(at.object, id, buf.shard(shard))
                }
            })
            .collect();
        let written = (pending.len() * self.chunk_len) as u64;
        // Every write is waited for, then the first error is returned.
        let waited: Vec<Result<()>> = pending.into_iter().map(|write| write.wait()).collect();
        waited.into_iter().collect::<Result<()>>()?;
        let stored = Traffic {
            written,
            ..Traffic::default()
        };
        self.metrics.ledger.record(purpose, stored);
        Ok(written)
    }

    /// Best-effort removal of every chunk of `name` on every disk (cleanup
    /// after a failed `put`).
    pub(crate) fn remove_object_chunks(&self, name: &str) {
        let _ = self.remove_batch(name);
    }

    /// Deletes object `name`: its manifest entry (and placement rows) are
    /// replaced by a durable tombstone, so reads fail immediately, and the
    /// chunks become garbage that the next [`BlockStore::scrub`] sweeps
    /// from every disk. Reusing the name with [`BlockStore::put`] is legal
    /// right away (the put sweeps the dead chunks first).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectNotFound`],
    /// [`StoreError::ObjectDeleted`] for a name already tombstoned, or
    /// manifest I/O failures.
    pub fn delete(&self, name: &str) -> Result<ObjectInfo> {
        let mut manifest = self.write_manifest();
        let Some(info) = manifest.objects.remove(name) else {
            return Err(Self::missing(&manifest, name));
        };
        let rows = manifest.placements.remove(name);
        manifest.tombstones.insert(name.to_string());
        if let Err(e) = manifest.save(&self.root) {
            // Roll back to match the durable file: the object is still
            // committed on disk, so it must stay readable in memory too.
            manifest.objects.insert(name.to_string(), info);
            if let Some(rows) = rows {
                manifest.placements.insert(name.to_string(), rows);
            }
            manifest.tombstones.remove(name);
            return Err(e);
        }
        Ok(info)
    }
}
