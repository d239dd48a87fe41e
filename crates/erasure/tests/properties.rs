//! Property-based tests for the baseline codes: MDS round-trips, repair
//! correctness, and cost-model invariants under random parameters and
//! erasure patterns.

use pbrs_erasure::{
    total_read_bytes, CodeError, ErasureCode, Lrc, LrcParams, ReedSolomon, Replication, ShardBuffer,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_data(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..len).map(|_| rng.random()).collect())
        .collect()
}

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
fn erase_and_reconstruct(
    code: &dyn ErasureCode,
    stripe: &mut ShardBuffer,
    lost: &[usize],
) -> Result<(), CodeError> {
    let mut present = vec![true; stripe.shard_count()];
    for &i in lost {
        present[i] = false;
        stripe.shard_mut(i).fill(0xEE);
    }
    code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any <= r erasures of an RS stripe are recoverable and recover the
    /// original bytes exactly.
    #[test]
    fn rs_round_trip_any_erasure_pattern(
        k in 2usize..12,
        r in 1usize..6,
        len in 1usize..64,
        erasures in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len);
        let original = encode_stripe(&rs, &data);

        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(erasures.min(r));
        let mut stripe = original.clone();
        erase_and_reconstruct(&rs, &mut stripe, &indices).unwrap();
        prop_assert_eq!(stripe, original);
    }

    /// Erasing more than r shards must be rejected, never silently mis-decoded.
    #[test]
    fn rs_rejects_excess_erasures(
        k in 2usize..10,
        r in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, 16);
        let mut stripe = encode_stripe(&rs, &data);
        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(r + 1);
        prop_assert!(erase_and_reconstruct(&rs, &mut stripe, &indices).is_err());
    }

    /// Single-shard repair returns exactly the lost shard, for every shard
    /// position, and its metrics match the plan (k whole shards).
    #[test]
    fn rs_single_repair_matches_plan(
        k in 2usize..12,
        r in 1usize..5,
        len in 1usize..48,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len);
        let all = encode_stripe(&rs, &data);
        let target = rng.random_range(0..k + r);
        let mut degraded = all.clone();
        degraded.shard_mut(target).fill(0xEE);
        let mut out = vec![0u8; len];
        rs.repair_into(target, &degraded.as_set(), &mut out).unwrap();
        prop_assert_eq!(&out[..], all.shard(target));
        let mut available = vec![true; k + r];
        available[target] = false;
        let reads = rs.repair_reads(target, &available, len).unwrap();
        prop_assert_eq!(reads.len(), k);
        prop_assert_eq!(total_read_bytes(&reads), (k * len) as u64);
    }

    /// Re-encoding the data accepts valid stripes and exposes any single-bit
    /// corruption of any shard.
    #[test]
    fn rs_verify_detects_corruption(
        k in 2usize..8,
        r in 1usize..4,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len);
        let mut stripe = encode_stripe(&rs, &data);
        let consistent = |stripe: &ShardBuffer| {
            let mut fresh = stripe.clone();
            let (data, mut parity) = fresh.split_mut(k);
            rs.encode_into(&data, &mut parity).unwrap();
            fresh == *stripe
        };
        prop_assert!(consistent(&stripe));
        let victim = rng.random_range(0..k + r);
        let byte = rng.random_range(0..len);
        let bit = 1u8 << rng.random_range(0..8);
        stripe.shard_mut(victim)[byte] ^= bit;
        prop_assert!(!consistent(&stripe));
    }

    /// LRC recovers from any pattern of up to `global_parities` erasures.
    #[test]
    fn lrc_round_trip_within_guarantee(
        k in 4usize..12,
        l in 2usize..4,
        g in 1usize..4,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        prop_assume!(l <= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let lrc = Lrc::new(LrcParams { k, local_groups: l, global_parities: g }).unwrap();
        let data = random_data(&mut rng, k, len);
        let original = encode_stripe(&lrc, &data);
        let n = lrc.params().total_shards();
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        indices.truncate(rng.random_range(0..=g));
        let mut stripe = original.clone();
        erase_and_reconstruct(&lrc, &mut stripe, &indices).unwrap();
        prop_assert_eq!(stripe, original);
    }

    /// A single LRC data-shard failure is repaired strictly more cheaply than
    /// under RS with the same k whenever the group is smaller than k.
    #[test]
    fn lrc_single_repair_cheaper_than_rs(
        k in 4usize..12,
        l in 2usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(l <= k && k / l + 1 < k);
        let mut rng = StdRng::seed_from_u64(seed);
        let lrc = Lrc::new(LrcParams { k, local_groups: l, global_parities: 2 }).unwrap();
        let target = rng.random_range(0..k);
        let price = total_read_bytes(&lrc.single_loss_reads()[target]);
        prop_assert!(price < k as u64);
        // And the repair actually yields the right bytes.
        let data = random_data(&mut rng, k, 24);
        let all = encode_stripe(&lrc, &data);
        let (rebuilt, _) = repair_from_reads_only(&lrc, &all, target);
        prop_assert_eq!(&rebuilt[..], all.shard(target));
    }

    /// Replication round-trips and repairs from a single surviving copy.
    #[test]
    fn replication_round_trip(
        replicas in 2usize..6,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rep = Replication::new(replicas).unwrap();
        let data = random_data(&mut rng, 1, len);
        let original = encode_stripe(&rep, &data);
        // Erase all but one random copy.
        let survivor = rng.random_range(0..replicas);
        let lost: Vec<usize> = (0..replicas).filter(|&i| i != survivor).collect();
        let mut stripe = original.clone();
        erase_and_reconstruct(&rep, &mut stripe, &lost).unwrap();
        prop_assert_eq!(stripe, original);
    }

    /// The single-loss table's price, scaled to the shard length, equals the
    /// bytes a repair reads when it is executed from only its declared
    /// ranges.
    #[test]
    fn plan_bytes_match_execution(
        len in 2usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(10, 4).unwrap();
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let codes: Vec<(&dyn ErasureCode, usize)> = vec![(&rs, 14), (&lrc, 16)];
        for (code, n) in codes {
            let data = random_data(&mut rng, 10, len);
            let stripe = encode_stripe(code, &data);
            let target = rng.random_range(0..n);
            let price = total_read_bytes(&code.single_loss_reads()[target]);
            let (rebuilt, bytes_read) = repair_from_reads_only(code, &stripe, target);
            prop_assert_eq!(&rebuilt[..], stripe.shard(target));
            prop_assert_eq!(bytes_read, price * len as u64);
        }
    }
}
