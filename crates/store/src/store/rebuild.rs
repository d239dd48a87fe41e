//! The repair path: the one rebuild loop of degraded reads and repairs,
//! and [`BlockStore::repair_stripe`].
//!
//! [`BlockStore::rebuild`] plans each lost chunk with
//! [`pbrs_erasure::ErasureCode::repair_reads_ranked`] over the shards still
//! available, reads exactly the helper byte ranges the plans name, and solves
//! each target with [`pbrs_erasure::ErasureCode::repair_from_reads`]. A helper
//! that fails is planned around: it is never asked again, and the next plan
//! costs only the ranges it adds. The read path (`read.rs`) runs it into a
//! reader's scratch; [`BlockStore::repair_stripe`] runs it from an empty
//! scratch and writes the rebuilt chunks back in one write batch (`write.rs`),
//! atomically like every chunk write. A helper found damaged on the way is
//! rebuilt and written back too. The [`crate::daemon::RepairDaemon`] drives
//! repairs from a scrub/enqueue loop across a worker pool.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use pbrs_erasure::{CodeError, ShardRead};
use pbrs_obs::trace::{SpanBuilder, Tracer};
use pbrs_obs::{Stage, StageTimes};

use super::{BlockStore, ReadOutcome, StripeRef, StripeRepair, StripeScratch, StripeSpan};
use crate::chunk::ChunkId;
use crate::error::{Result, StoreError};
use crate::metrics::{Purpose, StoreMetrics, Traffic};

/// The union of `reads`, one read per shard in shard order: a shard read
/// over two different ranges is read whole.
fn union_of<'a>(
    reads: impl IntoIterator<Item = &'a ShardRead>,
    chunk_len: usize,
) -> Vec<ShardRead> {
    let mut union: Vec<ShardRead> = reads.into_iter().copied().collect();
    union.sort_unstable_by_key(|read| (read.shard, read.offset, read.len));
    union.dedup();
    union.dedup_by(|later, kept| {
        later.shard == kept.shard && {
            *kept = ShardRead::whole(kept.shard, chunk_len);
            true
        }
    });
    union
}

impl BlockStore {
    /// Test-only failure injection: while enabled,
    /// [`BlockStore::repair_stripe`] panics on entry. Exists so
    /// crash-safety tests can prove the repair daemon survives a panicking
    /// worker (and `wait_idle` terminates); never enable it outside tests.
    pub fn inject_repair_panic(&self, enabled: bool) {
        self.repair_panic.store(enabled, Ordering::SeqCst);
    }

    /// The byte ledger's repair row and the chunks repaired, as they stand
    /// now: the store's repair totals, whose change a
    /// [`crate::RepairDaemon`] reports.
    pub(crate) fn repair_totals(&self) -> (Traffic, u64) {
        // Relaxed: a sample for reporting, like the ledger row.
        let chunks = self.metrics.chunks_repaired.load(Ordering::Relaxed);
        (self.metrics.ledger.row(Purpose::Repair), chunks)
    }

    /// Rebuilds every shard in `targets` into its slot of `scratch.buf`:
    /// the one rebuild loop of degraded reads and repairs. Each round
    /// plans, reads, and then solves or re-plans.
    ///
    /// * **Plan.** Each open target gets
    ///   [`pbrs_erasure::ErasureCode::repair_reads_ranked`] over the shards
    ///   still available: every shard but the targets and the helpers found
    ///   bad. The zero padding stays available, lost or not: its bytes are
    ///   known. Resident shards rank first — whole chunks already verified in
    ///   the scratch (flagged in `present`) and padding — then shards in the
    ///   first target's rack, then the rest, ties by index. A helper the hedge
    ///   gave up on is left out of the plan, unless no plan avoids it.
    /// * **Read.** The plans' ranges on shards that are not resident are
    ///   begun together — they sit on different disks — and then waited
    ///   for. A whole chunk that arrives is resident from then on, so no
    ///   later round reads it again. A padding target's plan is not read.
    /// * **Re-plan.** A helper that fails is marked bad and never asked
    ///   again for this stripe; for a [`Purpose::Repair`] it joins
    ///   `targets`, to be rebuilt and written back too.
    /// * **Solve.** A target whose plan was read in full is rebuilt by
    ///   [`pbrs_erasure::ErasureCode::repair_from_reads`] and stays out of
    ///   every later plan. A padding target is its zeroed slot.
    ///
    /// Hedging: with a hedge delay configured, a single-target rebuild's
    /// first round begins its reads under the short hedge budget
    /// (`GuardedDisk::begin_read_within`) instead of the full deadline.
    /// Every helper that misses the budget or fails is *exiled*, not
    /// marked bad: the next round plans around it, and reads it under the
    /// full deadline only when no plan avoids it.
    ///
    /// Ledger: each round's reads are recorded in `purpose`'s row as they are
    /// begun, so a rebuild that fails still counts what it asked the helpers
    /// for. A rebuild that succeeds then records its price: the union of the
    /// final plans' ranges, split same/cross rack relative to the first
    /// target's disk, whether or not a range was resident or padding here. The
    /// returned [`Traffic`] holds both. Bytes of the scratch outside the ranges
    /// read may be stale from earlier stripes:
    /// [`pbrs_erasure::ErasureCode::repair_from_reads`] reads only the ranges
    /// it is given.
    pub(super) fn rebuild(
        &self,
        at: &StripeRef<'_>,
        targets: &mut Vec<usize>,
        purpose: Purpose,
        scratch: &mut StripeScratch,
        times: &mut StageTimes,
    ) -> Result<Traffic> {
        let n = self.code.params().total_shards();
        let racks = self.map.racks();
        let row = at.row;
        let home = row[targets[0]];
        // Whole slots: a reader's scratch still holds its previous stripe.
        for shard in at.padding.clone() {
            scratch.buf.shard_mut(shard).fill(0);
            scratch.present[shard] = true;
        }
        let mut bad = vec![false; n];
        let mut exiled: Vec<usize> = Vec::new();
        let mut hedge = self
            .hedge_delay
            .filter(|_| targets.len() == 1 && !at.padding.contains(&targets[0]));
        let mut open = targets.clone();
        let mut solved: Vec<ShardRead> = Vec::new();
        let mut fetched = 0;
        while !open.is_empty() {
            let mut available: Vec<bool> = (0..n)
                .map(|s| !bad[s] && (at.padding.contains(&s) || !targets.contains(&s)))
                .collect();
            let rank = |shard: usize| -> u64 {
                if scratch.present[shard] {
                    0
                } else {
                    1 + u64::from(!racks.same_rack(row[shard], home))
                }
            };
            let mut plans = Vec::with_capacity(open.len());
            for &target in &open {
                // Only a padding target is available (to the other plans).
                let kept = std::mem::replace(&mut available[target], false);
                let around: Vec<bool> = (0..n)
                    .map(|s| available[s] && !exiled.contains(&s))
                    .collect();
                let plan = self
                    .code
                    .repair_reads_ranked(target, &around, self.chunk_len, &rank)
                    .or_else(|_| {
                        self.code
                            .repair_reads_ranked(target, &available, self.chunk_len, &rank)
                    });
                available[target] = kept;
                plans.push(match plan {
                    Ok(plan) => plan,
                    // A padding target is its zeroed slot: a plan only
                    // prices it, so having none is no loss.
                    Err(_) if at.padding.contains(&target) => Vec::new(),
                    Err(e) => {
                        let survivors = available.iter().filter(|&&a| a).count();
                        return Err(self.unrecoverable(at.object, at.stripe, survivors, e));
                    }
                });
            }
            let to_read = open
                .iter()
                .zip(&plans)
                .filter(|&(target, _)| !at.padding.contains(target))
                .flat_map(|(_, plan)| plan);
            let mut reads = union_of(to_read, self.chunk_len);
            reads.retain(|read| !scratch.present[read.shard]);

            let io_start = Instant::now();
            let hedge_now = hedge.take();
            let fail_tag = if hedge_now.is_some() {
                "abandoned"
            } else {
                "helper_failed"
            };
            let mut pending = Vec::with_capacity(reads.len());
            for (read, window) in reads.iter().zip(scratch.buf.windows_mut(&reads)?) {
                let id = ChunkId {
                    stripe: at.stripe,
                    shard: read.shard,
                };
                let disk = row[read.shard];
                let io_span = self.chunk_io_span(disk, read.shard, read.len);
                let (offset, chunk_len) = (read.offset, self.chunk_len);
                let begun = match (hedge_now, &self.guards[disk]) {
                    (Some(budget), Some(guard)) => {
                        guard.begin_read_within(budget, at.object, id, chunk_len, offset, window)
                    }
                    _ => self.disks[disk].begin_read(at.object, id, chunk_len, offset, window),
                };
                pending.push((read, io_span, begun));
            }
            let begun = Traffic {
                read: reads.iter().map(|read| read.len as u64).sum(),
                ..Traffic::default()
            };
            self.metrics.ledger.record(purpose, begun);
            fetched += begun.read;
            let mut outcome = ReadOutcome::default();
            for (read, io_span, pending) in pending {
                if self.settle_read(read.shard, io_span, pending.wait(), fail_tag, &mut outcome) {
                    scratch.present[read.shard] |= read.len == self.chunk_len;
                }
            }
            if let Some(e) = outcome.hard {
                return Err(e);
            }
            times.add_duration(Stage::ChunkIo, io_start.elapsed());
            if hedge_now.is_some() && !outcome.failed.is_empty() {
                exiled.extend(outcome.failed);
                StoreMetrics::add(&self.metrics.hedged_reads, 1);
                continue;
            }

            let mut adopted = Vec::new();
            for &shard in &outcome.failed {
                bad[shard] = true;
                if purpose == Purpose::Repair && !targets.contains(&shard) {
                    targets.push(shard);
                    adopted.push(shard);
                }
            }
            let mut next = Vec::new();
            for (&target, plan) in open.iter().zip(plans) {
                let padding = at.padding.contains(&target);
                if !padding && plan.iter().any(|read| bad[read.shard]) {
                    next.push(target);
                    continue;
                }
                if !padding {
                    // The hedge won when the round after it read a plan
                    // around the exiled shards with no helper failing.
                    let hedge_won = !exiled.is_empty()
                        && !bad.contains(&true)
                        && plan.iter().all(|read| !exiled.contains(&read.shard));
                    let mut rebuild_span = self.trace_span("rebuild");
                    if let Some((s, _)) = rebuild_span.as_mut() {
                        s.tag("target_shard", target.to_string());
                        if hedge_won {
                            s.tag("hedged", "winner");
                        }
                    }
                    let erasure_start = Instant::now();
                    self.code.repair_from_reads(
                        target,
                        &plan,
                        &scratch.buf.as_set(),
                        &mut scratch.rebuilt,
                    )?;
                    scratch
                        .buf
                        .shard_mut(target)
                        .copy_from_slice(&scratch.rebuilt);
                    times.add_duration(Stage::Erasure, erasure_start.elapsed());
                    if hedge_won {
                        StoreMetrics::add(&self.metrics.hedge_wins, 1);
                    }
                    if let Some((s, tracer)) = rebuild_span {
                        s.finish(tracer);
                    }
                }
                solved.extend(plan);
            }
            next.extend(adopted);
            open = next;
        }
        let mut price = Traffic::default();
        for read in union_of(&solved, self.chunk_len) {
            if racks.same_rack(row[read.shard], home) {
                price.same_rack += read.len as u64;
            } else {
                price.cross_rack += read.len as u64;
            }
        }
        self.metrics.ledger.record(purpose, price);
        Ok(Traffic {
            read: fetched,
            ..price
        })
    }

    /// The store's error for a target no plan can rebuild: a
    /// [`StoreError::StripeUnrecoverable`] counted in chunks, whatever
    /// the code's symbols per chunk.
    fn unrecoverable(
        &self,
        object: &str,
        stripe: u64,
        survivors: usize,
        e: CodeError,
    ) -> StoreError {
        let needed = match e {
            CodeError::NotEnoughShards { needed, .. } => needed,
            CodeError::ReconstructionFailed { .. } => self.code.params().data_shards(),
            other => return StoreError::Code(other),
        };
        StoreError::StripeUnrecoverable {
            object: object.to_string(),
            stripe,
            survivors,
            needed,
        }
    }

    /// Opens the `chunk_io` span of one helper read, when tracing is on,
    /// tagged with the disk it touches (index, rack name and the backend's
    /// own description, a path or a `chunkd://` addr), the shard and the
    /// bytes. It stays open from the read's begin to its wait, so
    /// overlapping reads show as overlapping spans.
    fn chunk_io_span(
        &self,
        disk: usize,
        shard: usize,
        bytes: usize,
    ) -> Option<(SpanBuilder, &Arc<Tracer>)> {
        let mut io_span = self.trace_span("chunk_io");
        if let Some((s, _)) = io_span.as_mut() {
            s.tag("disk", disk.to_string());
            let racks = self.map.racks();
            if let Some(rack) = racks.rack_of(disk) {
                s.tag("rack", racks.rack_name(rack).to_string());
            }
            s.tag("backend", self.disks[disk].describe());
            s.tag("shard", shard.to_string());
            s.tag("bytes", bytes.to_string());
        }
        io_span
    }

    /// Rebuilds the `damaged` shards of one stripe and writes them back.
    ///
    /// Each claimed shard is re-verified first; shards that are healthy by
    /// now (e.g. repaired by a concurrent worker) are skipped. The rest
    /// are rebuilt from byte-exact helper reads of each shard's plan; a
    /// helper found missing or corrupt on the way is planned around, then
    /// rebuilt and written back as well.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectNotFound`],
    /// [`StoreError::StripeUnrecoverable`], or I/O / codec failures.
    pub fn repair_stripe(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
    ) -> Result<StripeRepair> {
        self.repair_stripe_with(object, stripe, damaged, &mut self.new_scratch())
    }

    /// [`BlockStore::repair_stripe`] on a caller's scratch, which a repair
    /// worker reuses across its jobs.
    pub(crate) fn repair_stripe_with(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
        scratch: &mut StripeScratch,
    ) -> Result<StripeRepair> {
        let op = || self.repair_stripe_inner(object, stripe, damaged, scratch);
        self.in_span(StripeSpan::Root("repair"), object, stripe, op, |_| false)
    }

    fn repair_stripe_inner(
        &self,
        object: &str,
        stripe: u64,
        damaged: &[usize],
        scratch: &mut StripeScratch,
    ) -> Result<StripeRepair> {
        // SeqCst: crash-test failpoint, flipped rarely and read cold.
        if self.repair_panic.load(Ordering::SeqCst) {
            // pbrs-lint: allow(panic-hygiene) -- injected failure hook; panicking here is the tested behaviour
            panic!("injected repair panic (object {object:?} stripe {stripe})");
        }
        let job_start = Instant::now();
        let info = self
            .object(object)
            .ok_or_else(|| StoreError::ObjectNotFound {
                name: object.to_string(),
            })?;
        let n = self.code.params().total_shards();
        if stripe >= info.stripes {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe {stripe} out of range for object {object:?} ({} stripes)",
                    info.stripes
                ),
            });
        }
        // Dedup the claimed shards so a repeated index cannot become a
        // second target or double-count the repair metrics.
        let mut damaged = damaged.to_vec();
        damaged.sort_unstable();
        damaged.dedup();
        if let Some(&index) = damaged.last().filter(|&&shard| shard >= n) {
            return Err(StoreError::Code(CodeError::InvalidShardIndex {
                index,
                total: n,
            }));
        }
        let row = self.stripe_disks(object, stripe);
        let mut targets: Vec<usize> = Vec::new();
        self.verify_chunks(object, stripe, &row, damaged.iter().copied(), |shard, _| {
            targets.push(shard);
        })?;
        let mut report = StripeRepair {
            already_healthy: damaged
                .into_iter()
                .filter(|shard| !targets.contains(shard))
                .collect(),
            ..StripeRepair::default()
        };
        if targets.is_empty() {
            return Ok(report);
        }

        let at = self.stripe_ref(object, &info, stripe, &row);
        // Nothing of this stripe has been read into the scratch yet.
        scratch.present.fill(false);
        let mut times = StageTimes::new();
        // Damage found while reading helpers is rebuilt and written back too.
        let traffic = self.rebuild(&at, &mut targets, Purpose::Repair, scratch, &mut times)?;
        targets.sort_unstable();
        let written =
            self.write_batch(&at, &scratch.buf, targets.iter().copied(), Purpose::Repair)?;
        StoreMetrics::add(&self.metrics.chunks_repaired, targets.len() as u64);
        report.rebuilt = targets;
        report.helper_bytes = traffic.helper();
        report.intra_rack_bytes = traffic.same_rack;
        report.cross_rack_bytes = traffic.cross_rack;
        report.fetched_bytes = traffic.read;
        report.bytes_written = written;
        self.latency.repair_job.record_duration(job_start.elapsed());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use crate::store::{BlockStore, StoreConfig};
    use crate::testing::TempDir;
    use crate::StoreError;

    #[test]
    fn a_failed_repair_counts_the_helper_reads_it_began() {
        let dir = TempDir::new("store-repair-failed");
        let spec = "rs-4-2".parse().unwrap();
        let store =
            BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(4096))
                .unwrap();
        let data: Vec<u8> = (0..4 * 4096).map(|i| (i % 251) as u8).collect();
        store.put("obj", &data[..]).unwrap();
        for shard in [0, 1, 2] {
            fs::remove_file(store.chunk_path("obj", 0, shard)).unwrap();
        }
        let before = store.metrics();
        assert!(matches!(
            store.repair_stripe("obj", 0, &[0]),
            Err(StoreError::StripeUnrecoverable { .. })
        ));
        let after = store.metrics();
        // Round 1 plans shard 0 from shards 1–4 and begins all four whole
        // chunks; 1 and 2 turn out lost, and no plan is left for round 2.
        assert_eq!(
            after.repair_fetched_bytes - before.repair_fetched_bytes,
            4 * 4096
        );
        assert_eq!(after.repair_helper_bytes, before.repair_helper_bytes);
        assert_eq!(after.repair_bytes_written, before.repair_bytes_written);
        assert_eq!(after.chunks_repaired, before.chunks_repaired);
    }
}
