//! Cross-crate integration tests: the paper's headline claims exercised
//! through the public facade API, from the byte-level codecs up to the
//! cluster simulator.

use pbrs::cluster::config::SimConfig;
use pbrs::cluster::sim::paired_rs_vs_piggybacked;
use pbrs::cluster::Simulator;
use pbrs::code::{toy_example, SavingsReport};
use pbrs::erasure::total_read_bytes;
use pbrs::prelude::*;

/// Encodes `data` into a full stripe buffer, data shards first.
fn encode_stripe(code: &dyn ErasureCode, data: &[Vec<u8>]) -> ShardBuffer {
    let mut stripe = ShardBuffer::zeroed(code.params().total_shards(), data[0].len());
    for (i, shard) in data.iter().enumerate() {
        stripe.shard_mut(i).copy_from_slice(shard);
    }
    let (data, mut parity) = stripe.split_mut(data.len());
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

/// Fills the `lost` slots with garbage and rebuilds them in place.
fn erase_and_reconstruct(code: &dyn ErasureCode, stripe: &mut ShardBuffer, lost: &[usize]) {
    let mut present = vec![true; stripe.shard_count()];
    for &i in lost {
        present[i] = false;
        stripe.shard_mut(i).fill(0xEE);
    }
    code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
        .unwrap();
}

/// Rebuilds `target` from only the bytes its `repair_reads` name: every
/// other byte of the helper buffer is garbage. Returns the rebuilt shard and
/// the bytes read.
fn repair_from_reads_only(
    code: &dyn ErasureCode,
    stripe: &ShardBuffer,
    target: usize,
) -> (Vec<u8>, u64) {
    let (n, len) = (stripe.shard_count(), stripe.shard_len());
    let mut available = vec![true; n];
    available[target] = false;
    let reads = code.repair_reads(target, &available, len).unwrap();
    let mut helpers = ShardBuffer::zeroed(n, len);
    for i in 0..n {
        helpers.shard_mut(i).fill(0xEE);
    }
    for read in &reads {
        helpers.shard_mut(read.shard)[read.range()]
            .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
    }
    let mut out = vec![0u8; len];
    code.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
        .unwrap();
    (out, total_read_bytes(&reads))
}

/// §3.1-3.2: the (10, 4) Piggybacked-RS code keeps RS's storage optimality
/// and fault tolerance while cutting single-failure recovery download by
/// roughly 30% for data blocks.
#[test]
fn headline_savings_claim() {
    let report = SavingsReport::for_params(10, 4).unwrap();
    assert!(report.average_data_saving >= 0.30);
    assert!(report.average_data_saving < 0.40);
    assert!(report.average_all_saving > 0.20);

    let pb = PiggybackedRs::new(10, 4).unwrap();
    let rs = ReedSolomon::new(10, 4).unwrap();
    assert_eq!(pb.storage_overhead(), rs.storage_overhead());
    assert_eq!(pb.fault_tolerance(), rs.fault_tolerance());
    assert!(pb.is_mds());
}

/// Fig. 4: the toy (2, 2) example repairs node 1 with 3 bytes instead of 4.
#[test]
fn toy_example_byte_counts() {
    let code = toy_example();
    let data = vec![vec![0xAA, 0xBB], vec![0xCC, 0xDD]];
    let stripe = encode_stripe(&code, &data);
    let (shard, bytes_read) = repair_from_reads_only(&code, &stripe, 0);
    assert_eq!(bytes_read, 3);
    assert_eq!(shard, data[0]);
}

/// End-to-end archival flow across crates: split a file into shards, encode,
/// lose r blocks, reconstruct, and get the identical file back — for every
/// code exposed through the trait object interface. The stripe buffer holds
/// its shards back to back, so splitting is a copy into each data shard and
/// joining is a prefix of the buffer.
#[test]
fn archival_round_trip_through_trait_objects() {
    let file: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    let rs = ReedSolomon::new(10, 4).unwrap();
    let pb = PiggybackedRs::new(10, 4).unwrap();
    let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
    let codes: Vec<&dyn ErasureCode> = vec![&rs, &pb, &lrc];
    for code in codes {
        let (k, n) = (code.params().data_shards(), code.params().total_shards());
        let shard_len = file.len().div_ceil(k).next_multiple_of(code.granularity());
        let mut stripe = ShardBuffer::zeroed(n, shard_len);
        for (i, block) in file.chunks(shard_len).enumerate() {
            stripe.shard_mut(i)[..block.len()].copy_from_slice(block);
        }
        let (data, mut parity) = stripe.split_mut(k);
        code.encode_into(&data, &mut parity).unwrap();
        let original = stripe.clone();
        // Erase as many blocks as the code guarantees to tolerate.
        let lost: Vec<usize> = (0..code.fault_tolerance()).map(|i| i * 2).collect();
        erase_and_reconstruct(code, &mut stripe, &lost);
        assert_eq!(stripe, original, "{}", code.name());
        let mut recovered = stripe.into_inner();
        recovered.truncate(file.len());
        assert_eq!(recovered, file, "{}", code.name());
    }
}

/// The efficient repair path and full reconstruction agree for every data
/// block of the production code, and the byte accounting matches the
/// theoretical analysis exactly.
#[test]
fn repair_costs_match_analysis_across_the_stripe() {
    let code = PiggybackedRs::new(10, 4).unwrap();
    let analysis = SavingsReport::for_params(10, 4).unwrap();
    let shard_len = 2048usize;
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| (0..shard_len).map(|j| ((i * 7 + j) % 256) as u8).collect())
        .collect();
    let stripe = encode_stripe(&code, &data);
    for target in 0..14 {
        let (shard, bytes_read) = repair_from_reads_only(&code, &stripe, target);
        assert_eq!(shard, stripe.shard(target));
        let mut full = stripe.clone();
        erase_and_reconstruct(&code, &mut full, &[target]);
        assert_eq!(full, stripe, "target {target}");
        let expected =
            (analysis.per_shard[target].shards_downloaded * shard_len as f64).round() as u64;
        assert_eq!(bytes_read, expected, "target {target}");
    }
}

/// The warehouse simulator, driven through the facade, reproduces the
/// paper's comparative result on a small cluster: same failures, less
/// cross-rack recovery traffic per reconstructed block under Piggybacked-RS.
#[test]
fn simulator_paired_comparison() {
    let mut config = SimConfig::small_test();
    config.days = 5;
    let (rs, pb) = paired_rs_vs_piggybacked(config);
    assert_eq!(rs.days.len(), 5);
    assert_eq!(pb.days.len(), 5);
    let rs_flagged: u64 = rs.days.iter().map(|d| d.machines_flagged).sum();
    let pb_flagged: u64 = pb.days.iter().map(|d| d.machines_flagged).sum();
    assert_eq!(
        rs_flagged, pb_flagged,
        "paired runs share the failure trace"
    );
    assert!(rs.total_blocks_reconstructed() > 0);
    let rs_per_block = rs.total_cross_rack_bytes() as f64 / rs.total_blocks_reconstructed() as f64;
    let pb_per_block = pb.total_cross_rack_bytes() as f64 / pb.total_blocks_reconstructed() as f64;
    assert!(pb_per_block < rs_per_block * 0.85);
}

/// The LRC baseline really does trade storage for repair traffic, matching
/// the related-work discussion.
#[test]
fn lrc_tradeoff_versus_piggybacked() {
    let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
    let pb = PiggybackedRs::new(10, 4).unwrap();
    assert!(lrc.storage_overhead() > pb.storage_overhead());
    assert!(!lrc.is_mds());
    let mut available = vec![true; 16];
    available[0] = false;
    let lrc_plan = lrc.repair_plan(0, &available).unwrap();
    let mut pb_available = vec![true; 14];
    pb_available[0] = false;
    let pb_plan = pb.repair_plan(0, &pb_available).unwrap();
    assert!(lrc_plan.total_fraction() < pb_plan.total_fraction());
}

/// Replication as a code: 3x storage, single-block repair.
#[test]
fn replication_baseline_through_facade() {
    let rep = Replication::triple();
    let data = vec![vec![1u8, 2, 3, 4]];
    let mut stripe = encode_stripe(&rep, &data);
    erase_and_reconstruct(&rep, &mut stripe, &[0, 2]);
    assert_eq!(stripe.shard(0), &[1u8, 2, 3, 4]);
    assert_eq!(rep.storage_overhead(), 3.0);
}

/// A longer single-code simulation keeps its internal accounting consistent:
/// traffic is proportional to blocks within the bounds set by the code and
/// block-size model, and the degradation census is dominated by single
/// failures.
#[test]
fn simulator_accounting_invariants() {
    let mut config = SimConfig::small_test();
    config.days = 6;
    config.sampled_stripes = 1500;
    config.code = CodeSpec::FACEBOOK_PIGGYBACK;
    let report = Simulator::new(config.clone()).run();
    for day in &report.days {
        let min_per_block = 6.5 * (config.block_size_bytes as f64) * 0.001;
        let max_per_block = 10.0 * config.block_size_bytes as f64;
        if day.blocks_reconstructed > 0 {
            let per_block = day.cross_rack_bytes as f64 / day.blocks_reconstructed as f64;
            assert!(
                per_block >= min_per_block && per_block <= max_per_block,
                "{per_block}"
            );
        } else {
            assert_eq!(day.cross_rack_bytes, 0);
        }
    }
    if report.degradation.total() > 100 {
        assert!(report.degradation.one_missing_pct() > 80.0);
    }
}
