//! Scrub: every chunk of every object verified by a full checksum read,
//! with the sweeps of what deleted objects and crashed writers leave
//! behind, and the cheaper question a repair daemon asks first: which
//! disks are gone, and which chunks the manifest placed on them.
//!
//! The chunk check is written once ([`BlockStore::verify_chunks`]): a
//! scrub pass runs it over every shard of every stripe, and a repair over
//! the shards it was asked to rebuild, to skip those a concurrent worker
//! has healed. A pass also sweeps the dead chunks of tombstoned objects
//! and stale `*.tmp` files, so debris from a crashed writer can neither
//! accumulate nor be mistaken for damage.

use std::fs;
use std::io;
use std::time::SystemTime;

use super::{BlockStore, Damage, PlacedChunk, ScrubReport};
use crate::chunk::{ChunkId, ChunkStatus};
use crate::error::{Result, StoreError};
use crate::manifest::manifest_path;
use crate::metrics::{Purpose, StoreMetrics, Traffic};

impl BlockStore {
    /// Every chunk the manifest places on one of `disks`, in manifest
    /// (object, stripe, shard) order — what a store loses when those disks
    /// do. Resolved from manifest and placement rows alone: no chunk is
    /// opened, no backend is asked, so the answer costs microseconds where
    /// a [`BlockStore::scrub`] re-reads every disk to reach the same list.
    pub fn chunks_on_disks(&self, disks: &[usize]) -> Vec<PlacedChunk> {
        let manifest = self.read_manifest();
        let mut placed = Vec::new();
        for (object, info) in &manifest.objects {
            for stripe in 0..info.stripes {
                let row = Self::resolve_row(&manifest, &self.map, object, stripe);
                for (shard, disk) in row.into_iter().enumerate() {
                    if disks.contains(&disk) {
                        placed.push(PlacedChunk {
                            object: object.clone(),
                            stripe,
                            shard,
                            disk,
                        });
                    }
                }
            }
        }
        placed
    }

    /// Verifies every chunk of every object (full checksum read) and reports
    /// all damage, plus disks whose backend reports the disk missing or
    /// unreachable. Also sweeps crash leftovers: stale `*.tmp` files (older
    /// than [`super::STALE_TMP_MIN_AGE`]) on every disk and a stale
    /// `MANIFEST.tmp` at the root are deleted and reported, so debris from a
    /// crashed writer can neither accumulate nor be mistaken for damage.
    ///
    /// # Errors
    ///
    /// Returns hard I/O failures only; missing/corrupt chunks are reported,
    /// not errors.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.scrub_given(self.unavailable_disks())
    }

    /// The disks whose backend reports them missing or unreachable right
    /// now: one [`crate::ChunkBackend::is_available`] per disk, no chunk I/O.
    pub(crate) fn unavailable_disks(&self) -> Vec<usize> {
        (0..self.disks.len())
            .filter(|&disk| !self.disks[disk].is_available())
            .collect()
    }

    /// [`BlockStore::scrub`] for a caller that has just asked every backend
    /// whether it is there (the repair daemon does, to pick its pass). Asking
    /// again would not be free: each ask is a round trip, and on a hardened
    /// or fault-injected pool it spends a breaker probe or a fault-plan op.
    pub(crate) fn scrub_given(&self, lost_disks: Vec<usize>) -> Result<ScrubReport> {
        let mut report = ScrubReport {
            lost_disks,
            ..ScrubReport::default()
        };
        report.tombstones_swept = self.sweep_tombstones()?;
        for (name, info) in self.objects() {
            for stripe in 0..info.stripes {
                let row = self.stripe_disks(&name, stripe);
                report.bytes_read +=
                    self.verify_chunks(&name, stripe, &row, 0..row.len(), |shard, status| {
                        report.damages.push(Damage {
                            object: name.clone(),
                            stripe,
                            shard,
                            disk: row[shard],
                            status,
                        });
                    })?;
                report.chunks_examined += row.len() as u64;
            }
        }
        for (disk, backend) in self.disks.iter().enumerate() {
            for rel in backend.sweep_tmp(self.stale_tmp_min_age)? {
                report
                    .stale_tmp_removed
                    .push(format!("disk-{disk:02}/{rel}"));
            }
        }
        if self.sweep_stale_manifest_tmp()? {
            report.stale_tmp_removed.push("MANIFEST.tmp".to_string());
        }
        Ok(report)
    }

    /// Verifies shards `shards` of stripe `stripe` of `object`, placed on
    /// `row`, one full checksum read at a time, and hands each damaged
    /// shard with its status to `damaged`: the one chunk check of scrub
    /// passes and of a repair's claims. The chunks verified are counted in
    /// `chunks_scrubbed`, and the bytes read in the ledger's scrub row, as
    /// each stripe is verified, so a pass that stops at a hard error still
    /// counts what it read. Returns the bytes read.
    pub(super) fn verify_chunks(
        &self,
        object: &str,
        stripe: u64,
        row: &[usize],
        shards: impl IntoIterator<Item = usize>,
        mut damaged: impl FnMut(usize, ChunkStatus),
    ) -> Result<u64> {
        let mut examined = 0;
        let mut verified = Traffic::default();
        let mut outcome = Ok(());
        for shard in shards {
            let id = ChunkId { stripe, shard };
            match self.disks[row[shard]].verify_chunk(object, id, self.chunk_len) {
                Ok((status, bytes)) => {
                    examined += 1;
                    verified.read += bytes;
                    if !status.is_healthy() {
                        self.note_damage(&status);
                        damaged(shard, status);
                    }
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        StoreMetrics::add(&self.metrics.chunks_scrubbed, examined);
        self.metrics.ledger.record(Purpose::Scrub, verified);
        outcome.map(|()| verified.read)
    }

    /// Sweeps the dead chunks of every tombstoned object from every pool
    /// disk; tombstones whose sweep completes on *all* disks are cleared
    /// from the manifest (an unreachable disk keeps the tombstone alive for
    /// a later pass). Returns the names fully swept.
    fn sweep_tombstones(&self) -> Result<Vec<String>> {
        let tombstones: Vec<String> = self.read_manifest().tombstones.iter().cloned().collect();
        if tombstones.is_empty() {
            return Ok(Vec::new());
        }
        let mut swept = Vec::new();
        for name in tombstones {
            // Attempt every disk even after a failure: one unreachable disk
            // must not leave the others' dead chunks lingering for passes.
            let mut clean = true;
            for disk in &self.disks {
                if disk.remove_object(&name).is_err() {
                    clean = false;
                }
            }
            if clean {
                swept.push(name);
            }
        }
        if !swept.is_empty() {
            let mut manifest = self.write_manifest();
            for name in &swept {
                manifest.tombstones.remove(name);
            }
            if let Err(e) = manifest.save(&self.root) {
                // Keep memory matching the durable file: the sweep itself
                // is idempotent, so the next scrub simply retries.
                for name in &swept {
                    manifest.tombstones.insert(name.clone());
                }
                return Err(e);
            }
        }
        Ok(swept)
    }

    /// Deletes `root/MANIFEST.tmp` if it is a stale crash leftover (a live
    /// `Manifest::save` is between tmp-write and rename for well under
    /// [`super::STALE_TMP_MIN_AGE`]). Returns whether a file was removed.
    fn sweep_stale_manifest_tmp(&self) -> Result<bool> {
        let tmp = manifest_path(&self.root).with_extension("tmp");
        let stale = fs::metadata(&tmp)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= self.stale_tmp_min_age);
        if !stale {
            return Ok(false);
        }
        match fs::remove_file(&tmp) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io(&tmp, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::store::{BlockStore, StoreConfig};
    use crate::testing::TempDir;
    use crate::{ChunkBackend, FaultPlan, FaultyBackend, LocalDisk, PlacementPolicy, RackMap};

    #[test]
    fn a_scrub_stopped_by_a_hard_error_counts_what_it_read() {
        let dir = TempDir::new("store-scrub-stopped");
        // Disk 3 fails every verify: the pass reads shards 0–2 of the one
        // stripe, then stops at shard 3.
        let plan = Arc::new(FaultPlan::parse("disk=3 op=verify error", 1).unwrap());
        let disks = (0..6)
            .map(|i| {
                let inner: Arc<dyn ChunkBackend> =
                    Arc::new(LocalDisk::new(dir.path().join(format!("disk-{i:02}"))));
                Arc::new(FaultyBackend::new(inner, Arc::clone(&plan), i)) as Arc<dyn ChunkBackend>
            })
            .collect();
        let store = BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap()).chunk_len(512),
            disks,
            RackMap::per_disk(6),
            PlacementPolicy::Identity,
        )
        .unwrap();
        store.put("obj", &[7u8; 4 * 512][..]).unwrap();
        assert!(store.scrub().is_err());
        let snap = store.metrics();
        assert_eq!(snap.chunks_scrubbed, 3);
        assert_eq!(snap.scrub_bytes_read, 3 * 512);
    }
}
