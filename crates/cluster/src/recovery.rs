//! The HDFS-RAID-style recovery pipeline.
//!
//! When a machine has been unavailable for longer than the 15-minute
//! detection timeout, the blocks it stores are queued for reconstruction.
//! A bounded pool of recovery slots works through the queue; each task
//! rebuilds a batch of blocks by downloading helper data according to the
//! configured code's single-loss repair reads, at a bandwidth-bound rate.
//! If the machine returns before its queue drains, the remaining work is
//! cancelled (the blocks were never lost, only unavailable). This matches the behaviour the
//! paper measures: the recovery traffic is driven by how many blocks get
//! reconstructed while machines are away, not by the raw number of blocks on
//! failed machines.

use std::collections::VecDeque;

use rand::Rng;

use pbrs_core::NodeRepairCost;
use pbrs_erasure::ErasureCode;

use crate::distributions;
use crate::network::TransferModel;
use crate::topology::MachineId;

/// Per-stripe-position repair cost, precomputed from the configured code's
/// single-loss repair reads so the hot path never re-plans.
#[derive(Debug, Clone)]
pub struct RepairCostTable {
    /// Human-readable code name.
    pub code_name: String,
    /// For every stripe position, the helpers contacted and the blocks-worth
    /// of helper data downloaded per repaired block.
    pub per_shard: Vec<NodeRepairCost>,
}

impl RepairCostTable {
    /// Builds the table from [`NodeRepairCost::of_every_shard`].
    pub fn for_code(code: &dyn ErasureCode) -> Self {
        RepairCostTable {
            code_name: code.name(),
            per_shard: NodeRepairCost::of_every_shard(code),
        }
    }

    /// Shards per stripe (`k + r` for MDS codes).
    pub fn stripe_width(&self) -> usize {
        self.per_shard.len()
    }

    /// Average helper blocks downloaded per repaired block, over all stripe
    /// positions.
    pub fn average_blocks_downloaded(&self) -> f64 {
        let blocks: f64 = self.per_shard.iter().map(|c| c.shards_downloaded).sum();
        blocks / self.stripe_width() as f64
    }
}

/// Work queued for one flagged machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRecovery {
    machine: MachineId,
    incarnation: u64,
    blocks_remaining: u64,
}

/// A dispatched recovery task (a batch of block reconstructions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryTask {
    /// The machine whose blocks are being rebuilt.
    pub machine: MachineId,
    /// Blocks rebuilt by this task.
    pub blocks: u64,
    /// Helper bytes read and transferred across racks.
    pub cross_rack_bytes: u64,
    /// Task duration in minutes.
    pub duration_minutes: f64,
}

/// Block-size model: full 256 MB blocks plus a fraction of smaller tail
/// blocks (files do not align to the block size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSizeModel {
    /// Nominal block size in bytes.
    pub block_size_bytes: u64,
    /// Fraction of blocks that are partial tail blocks.
    pub tail_fraction: f64,
    /// Mean tail-block size as a fraction of the full block size.
    pub tail_mean_fraction: f64,
}

impl BlockSizeModel {
    /// Samples the size of one recovered block.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if distributions::bernoulli(rng, self.tail_fraction) {
            // Tail blocks are uniform in (0, 2 * mean_fraction] of the full
            // size, capped at the full size.
            let hi = (2.0 * self.tail_mean_fraction).min(1.0);
            let frac = rng.random_range(f64::MIN_POSITIVE..hi);
            ((self.block_size_bytes as f64) * frac) as u64
        } else {
            self.block_size_bytes
        }
    }
}

/// The recovery scheduler: a FIFO of flagged machines' blocks served by a
/// bounded number of concurrent tasks.
#[derive(Debug)]
pub struct RecoveryManager {
    cost_table: RepairCostTable,
    block_sizes: BlockSizeModel,
    transfer: TransferModel,
    max_slots: usize,
    blocks_per_task: u64,
    pending: VecDeque<PendingRecovery>,
    active_tasks: usize,
    /// Blocks whose recovery was cancelled because the machine returned.
    cancelled_blocks: u64,
}

impl RecoveryManager {
    /// Creates a manager.
    pub fn new(
        cost_table: RepairCostTable,
        block_sizes: BlockSizeModel,
        transfer: TransferModel,
        max_slots: usize,
        blocks_per_task: u64,
    ) -> Self {
        RecoveryManager {
            cost_table,
            block_sizes,
            transfer,
            max_slots,
            blocks_per_task,
            pending: VecDeque::new(),
            active_tasks: 0,
            cancelled_blocks: 0,
        }
    }

    /// The repair-cost table in use.
    pub fn cost_table(&self) -> &RepairCostTable {
        &self.cost_table
    }

    /// Queues recovery of `blocks` blocks stored on `machine`.
    pub fn enqueue(&mut self, machine: MachineId, incarnation: u64, blocks: u64) {
        if blocks == 0 {
            return;
        }
        self.pending.push_back(PendingRecovery {
            machine,
            incarnation,
            blocks_remaining: blocks,
        });
    }

    /// Removes queued (not yet dispatched) work for a machine that returned.
    pub fn cancel_machine(&mut self, machine: MachineId, incarnation: u64) {
        let mut cancelled = 0;
        self.pending.retain(|p| {
            if p.machine == machine && p.incarnation == incarnation {
                cancelled += p.blocks_remaining;
                false
            } else {
                true
            }
        });
        self.cancelled_blocks += cancelled;
    }

    /// Marks one task as finished, freeing its slot.
    pub fn task_finished(&mut self) {
        debug_assert!(self.active_tasks > 0, "no task to finish");
        self.active_tasks = self.active_tasks.saturating_sub(1);
    }

    /// Dispatches as many tasks as free slots and queued work allow,
    /// returning the newly started tasks. `is_still_down` lets the manager
    /// drop stale queue entries for machines that already returned.
    pub fn dispatch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mut is_still_down: impl FnMut(MachineId, u64) -> bool,
    ) -> Vec<RecoveryTask> {
        let mut started = Vec::new();
        while self.active_tasks < self.max_slots {
            let Some(mut entry) = self.pending.pop_front() else {
                break;
            };
            if !is_still_down(entry.machine, entry.incarnation) {
                self.cancelled_blocks += entry.blocks_remaining;
                continue;
            }
            let batch = entry.blocks_remaining.min(self.blocks_per_task);
            entry.blocks_remaining -= batch;
            if entry.blocks_remaining > 0 {
                // Round-robin between flagged machines.
                self.pending.push_back(entry);
            }
            let task = self.build_task(rng, entry.machine, batch);
            self.active_tasks += 1;
            started.push(task);
        }
        started
    }

    fn build_task<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        machine: MachineId,
        blocks: u64,
    ) -> RecoveryTask {
        let mut bytes = 0u64;
        let mut seconds = 0.0;
        for _ in 0..blocks {
            let size = self.block_sizes.sample(rng);
            // The failed block occupies a uniformly random stripe position
            // (every block of a stripe is equally likely to be the one on the
            // failed machine).
            let position = rng.random_range(0..self.cost_table.stripe_width());
            let cost = &self.cost_table.per_shard[position];
            let helper_bytes = (cost.shards_downloaded * size as f64) as u64;
            bytes += helper_bytes;
            seconds += self.transfer.recovery_seconds(helper_bytes, cost.helpers);
        }
        RecoveryTask {
            machine,
            blocks,
            cross_rack_bytes: bytes,
            duration_minutes: seconds / 60.0,
        }
    }

    /// Blocks whose recovery was cancelled because their machine returned.
    pub fn cancelled_blocks(&self) -> u64 {
        self.cancelled_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbrs_core::{registry, PiggybackedRs};
    use pbrs_erasure::ReedSolomon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn manager(code: &dyn ErasureCode, slots: usize, per_task: u64) -> RecoveryManager {
        RecoveryManager::new(
            RepairCostTable::for_code(code),
            BlockSizeModel {
                block_size_bytes: 64 * 1024 * 1024,
                tail_fraction: 0.0,
                tail_mean_fraction: 0.5,
            },
            TransferModel::cluster_default(40.0 * 1024.0 * 1024.0),
            slots,
            per_task,
        )
    }

    /// Blocks queued and not yet dispatched.
    fn queued_blocks(m: &RecoveryManager) -> u64 {
        m.pending.iter().map(|p| p.blocks_remaining).sum()
    }

    #[test]
    fn cost_table_for_rs_and_piggybacked() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let pb = PiggybackedRs::new(10, 4).unwrap();
        let rs_table = RepairCostTable::for_code(&rs);
        let pb_table = RepairCostTable::for_code(&pb);
        assert_eq!(rs_table.stripe_width(), 14);
        assert!(rs_table
            .per_shard
            .iter()
            .all(|c| c.shards_downloaded == 10.0));
        assert!((rs_table.average_blocks_downloaded() - 10.0).abs() < 1e-12);
        assert!((pb_table.average_blocks_downloaded() - 7.642857).abs() < 1e-3);
        assert_eq!(pb_table.per_shard[0].helpers, 11);
        assert_eq!(pb_table.per_shard[13].helpers, 10);
        assert_eq!(pb_table.code_name, "Piggybacked-RS(10, 4)");
    }

    #[test]
    fn cost_table_from_spec_matches_direct_construction() {
        let direct = RepairCostTable::for_code(&PiggybackedRs::new(10, 4).unwrap());
        // The simulator's path: spec → registry → table.
        let built = registry::build(&"piggyback-10-4".parse().unwrap()).unwrap();
        let via_spec = RepairCostTable::for_code(built.as_ref());
        assert_eq!(via_spec.code_name, direct.code_name);
        assert_eq!(via_spec.per_shard, direct.per_shard);
    }

    #[test]
    fn block_size_model_mean_and_range() {
        let model = BlockSizeModel {
            block_size_bytes: 100,
            tail_fraction: 0.5,
            tail_mean_fraction: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s <= 100));
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 75.0).abs() < 2.0, "{mean}");
    }

    #[test]
    fn dispatch_respects_slot_limit_and_batching() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let mut m = manager(&rs, 3, 10);
        let mut rng = StdRng::seed_from_u64(1);
        m.enqueue(MachineId(0), 1, 100);
        let tasks = m.dispatch(&mut rng, |_, _| true);
        assert_eq!(tasks.len(), 3, "only 3 slots");
        assert!(tasks.iter().all(|t| t.blocks == 10));
        assert_eq!(m.active_tasks, 3);
        assert_eq!(queued_blocks(&m), 70);

        // Finishing a task frees a slot for the next batch.
        m.task_finished();
        let more = m.dispatch(&mut rng, |_, _| true);
        assert_eq!(more.len(), 1);
        assert_eq!(queued_blocks(&m), 60);
    }

    #[test]
    fn returned_machines_are_cancelled_at_dispatch() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut m = manager(&rs, 2, 5);
        let mut rng = StdRng::seed_from_u64(2);
        m.enqueue(MachineId(7), 1, 20);
        let tasks = m.dispatch(&mut rng, |_, _| false);
        assert!(tasks.is_empty());
        assert_eq!(m.cancelled_blocks(), 20);
        assert_eq!(queued_blocks(&m), 0);
    }

    #[test]
    fn explicit_cancellation_removes_queued_work() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut m = manager(&rs, 1, 5);
        m.enqueue(MachineId(1), 1, 10);
        m.enqueue(MachineId(2), 1, 10);
        m.cancel_machine(MachineId(1), 1);
        assert_eq!(m.cancelled_blocks(), 10);
        assert_eq!(queued_blocks(&m), 10);
        // Cancelling a different incarnation does nothing.
        m.cancel_machine(MachineId(2), 9);
        assert_eq!(queued_blocks(&m), 10);
    }

    #[test]
    fn task_costs_reflect_the_code() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let pb = PiggybackedRs::new(10, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut m_rs = manager(&rs, 1, 50);
        let mut m_pb = manager(&pb, 1, 50);
        m_rs.enqueue(MachineId(0), 1, 50);
        m_pb.enqueue(MachineId(0), 1, 50);
        let t_rs = m_rs.dispatch(&mut rng, |_, _| true).remove(0);
        let t_pb = m_pb.dispatch(&mut rng, |_, _| true).remove(0);
        // RS moves 10 blocks of helper data per block; the piggybacked code
        // moves ~7.6 on average, so both bytes and duration drop.
        assert!(t_pb.cross_rack_bytes < t_rs.cross_rack_bytes);
        assert!(t_pb.duration_minutes < t_rs.duration_minutes);
        let ratio = t_pb.cross_rack_bytes as f64 / t_rs.cross_rack_bytes as f64;
        assert!(ratio > 0.6 && ratio < 0.9, "{ratio}");
    }

    #[test]
    fn zero_block_enqueue_is_ignored() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut m = manager(&rs, 1, 5);
        m.enqueue(MachineId(0), 1, 0);
        assert!(m.pending.is_empty());
    }
}
