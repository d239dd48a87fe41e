//! Property-based tests for the Piggybacked-RS code: the MDS property, the
//! equivalence of efficient repair and full decode, and the cost model.

use pbrs_core::{PiggybackDesign, PiggybackedRs, SavingsReport};
use pbrs_erasure::{
    total_read_bytes, CodeError, CodeParams, ErasureCode, ReedSolomon, ShardBuffer,
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
fn encode_stripe<C: ErasureCode>(code: &C, data: &[Vec<u8>]) -> ShardBuffer {
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
    code: &PiggybackedRs,
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
    code: &PiggybackedRs,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MDS: any pattern of up to r erasures is recoverable bit-exactly.
    #[test]
    fn piggybacked_rs_is_mds(
        k in 2usize..12,
        r in 1usize..6,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len * 2);
        let original = encode_stripe(&code, &data);
        let erase = rng.random_range(0..=r);
        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(erase);
        let mut stripe = original.clone();
        erase_and_reconstruct(&code, &mut stripe, &indices).unwrap();
        prop_assert_eq!(stripe, original);
    }

    /// More than r erasures must be rejected.
    #[test]
    fn piggybacked_rs_rejects_excess_erasures(
        k in 2usize..10,
        r in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let data = random_data(&mut rng, k, 8);
        let mut stripe = encode_stripe(&code, &data);
        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(r + 1);
        prop_assert!(erase_and_reconstruct(&code, &mut stripe, &indices).is_err());
    }

    /// Single-shard repair (efficient or fallback) always reproduces the
    /// exact shard and never costs more than the RS baseline.
    #[test]
    fn single_repair_is_exact_and_never_worse_than_rs(
        k in 2usize..12,
        r in 1usize..6,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len * 2);
        let all = encode_stripe(&code, &data);
        let target = rng.random_range(0..k + r);
        let (rebuilt, bytes_read) = repair_from_reads_only(&code, &all, target);
        prop_assert_eq!(&rebuilt[..], all.shard(target));
        prop_assert!(bytes_read <= (k * len * 2) as u64);
        // And the single-loss table's price matches the bytes actually read.
        let price = total_read_bytes(&code.single_loss_reads()[target]);
        prop_assert_eq!(bytes_read, price * len as u64);
    }

    /// The efficient repair path and a full-stripe decode agree on the
    /// rebuilt shard for every piggybacked data shard.
    #[test]
    fn efficient_repair_agrees_with_full_decode(
        k in 2usize..12,
        r in 2usize..6,
        len in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len * 2);
        let stripe = encode_stripe(&code, &data);
        let target = rng.random_range(0..k);
        let mut available = vec![true; k + r];
        available[target] = false;
        prop_assume!(code.efficient_repair_available(target, &available));
        let (efficient, _) = repair_from_reads_only(&code, &stripe, target);

        let mut full = stripe.clone();
        erase_and_reconstruct(&code, &mut full, &[target]).unwrap();
        prop_assert_eq!(full.shard(target), &efficient[..]);
    }

    /// Parity shard 0 of the piggybacked code always equals the plain RS
    /// parity over the two substripes (it must stay clean for repairs).
    #[test]
    fn clean_parity_matches_plain_rs(
        k in 2usize..10,
        r in 1usize..5,
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len * 2);
        let pb_stripe = encode_stripe(&code, &data);
        let a: Vec<Vec<u8>> = data.iter().map(|d| d[..len].to_vec()).collect();
        let b: Vec<Vec<u8>> = data.iter().map(|d| d[len..].to_vec()).collect();
        let (pa, pb) = (encode_stripe(&rs, &a), encode_stripe(&rs, &b));
        prop_assert_eq!(&pb_stripe.shard(k)[..len], pa.shard(k));
        prop_assert_eq!(&pb_stripe.shard(k)[len..], pb.shard(k));
        // Every parity's a-half is the plain RS parity (piggybacks only touch
        // the b-half).
        for j in k..k + r {
            prop_assert_eq!(&pb_stripe.shard(j)[..len], pa.shard(j));
        }
    }

    /// The analytical savings report agrees with the executed repair cost for
    /// every shard of a random (k, r).
    #[test]
    fn savings_report_matches_executed_repairs(
        k in 2usize..10,
        r in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let report = SavingsReport::for_params(k, r).unwrap();
        let len = 16usize;
        let data = random_data(&mut rng, k, len);
        let stripe = encode_stripe(&code, &data);
        for target in 0..k + r {
            let (rebuilt, bytes_read) = repair_from_reads_only(&code, &stripe, target);
            prop_assert_eq!(&rebuilt[..], stripe.shard(target));
            let expected_bytes = (report.per_shard[target].shards_downloaded * len as f64).round() as u64;
            prop_assert_eq!(bytes_read, expected_bytes);
        }
        // Savings are monotone in the sense that no shard does worse than RS.
        for c in &report.per_shard {
            prop_assert!(c.saving_vs_rs >= 0.0);
            prop_assert!(c.shards_downloaded <= k as f64 + 1e-12);
        }
    }

    /// Custom designs that cover only part of the data still give an MDS code
    /// whose covered shards repair cheaply and uncovered shards cost k.
    #[test]
    fn partial_designs_are_valid_codes(
        k in 3usize..9,
        r in 2usize..5,
        covered in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = CodeParams::new(k, r).unwrap();
        let covered = covered.min(k);
        // Put `covered` shards in the first group, leave the rest uncovered.
        let mut groups = vec![Vec::new(); r - 1];
        groups[0] = (0..covered).collect();
        let design = PiggybackDesign::from_groups(params, groups).unwrap();
        let code = PiggybackedRs::with_design(design).unwrap();

        let data = random_data(&mut rng, k, 12);
        let original = encode_stripe(&code, &data);
        // MDS check on a random r-erasure pattern.
        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(r);
        let mut stripe = original.clone();
        erase_and_reconstruct(&code, &mut stripe, &indices).unwrap();
        prop_assert_eq!(stripe, original);

        // Cost structure, in half-shards (the table's shard length is 2).
        let table = code.single_loss_reads();
        for (target, reads) in table.iter().enumerate().take(k) {
            let expect = if target < covered { k + covered } else { 2 * k };
            prop_assert_eq!(total_read_bytes(reads), expect as u64);
        }
    }
}
