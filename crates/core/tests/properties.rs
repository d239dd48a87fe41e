//! Property-based tests for the Piggybacked-RS code: the MDS property, the
//! equivalence of efficient repair and full decode, and the cost model.

use pbrs_core::{PiggybackDesign, PiggybackedRs, SavingsReport};
use pbrs_erasure::{
    total_read_bytes, CodeError, CodeParams, ErasureCode, ReedSolomon, ShardBuffer,
};
use pbrs_gf::tables;
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

/// The rank of `rows`, by plain Gaussian elimination.
fn rank(rows: &[Vec<u8>]) -> usize {
    let mut m = rows.to_vec();
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for col in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| m[r][col] != 0) else {
            continue;
        };
        m.swap(rank, p);
        let inv = tables::inverse(m[rank][col]).unwrap();
        let pivot = m[rank].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != rank && row[col] != 0 {
                let f = tables::mul(row[col], inv);
                for (x, &p) in row.iter_mut().zip(&pivot) {
                    *x ^= tables::mul(f, p);
                }
            }
        }
        rank += 1;
    }
    rank
}

/// Whether `size` of `rows` from `from` on, with `chosen`, span `goal`.
fn some_span(
    rows: &[Vec<u8>],
    goal: &[u8],
    size: usize,
    from: usize,
    chosen: &mut Vec<Vec<u8>>,
) -> bool {
    if size == 0 {
        let mut with = chosen.clone();
        with.push(goal.to_vec());
        return rank(chosen) == rank(&with);
    }
    (from..rows.len()).any(|i| {
        chosen.push(rows[i].clone());
        let spans = some_span(rows, goal, size - 1, i + 1, chosen);
        chosen.pop();
        spans
    })
}

/// The price, in half-chunks, of the paper's read for data shard `target`
/// (`k + |group|`, or `2k`, `k` whole shards, when no group smaller than
/// `k` holds it), and the fewest half-chunks that rebuild it, by brute
/// force from the paper's structure with no planner code. The other data
/// b-halves and the clean parity's b-half (`k` halves) give every
/// b-symbol; `a_target` then needs the fewest a-space rows that span it:
/// other data a-halves (unit rows), parity a-halves (RS parity rows) and
/// piggybacked parities' b-halves less their b-part (their group's
/// indicator row). Sets smaller than the paper's are tried, so the fewest
/// is never more than the paper's.
fn paper_and_fewest_halves(code: &PiggybackedRs, target: usize) -> (usize, usize) {
    let (k, r) = (code.params().data_shards(), code.params().parity_shards());
    let unit = |i: usize| -> Vec<u8> { (0..k).map(|c| u8::from(c == i)).collect() };
    let rs = code.inner_rs().generator();
    let groups = code.design().groups();
    let mut rows: Vec<Vec<u8>> = (0..k).filter(|&i| i != target).map(unit).collect();
    rows.extend((k..k + r).map(|j| rs.row(j).to_vec()));
    rows.extend(
        groups
            .iter()
            .filter(|group| !group.is_empty())
            .map(|group| (0..k).map(|c| u8::from(group.contains(&c))).collect()),
    );
    let paper = groups
        .iter()
        .find(|group| group.contains(&target))
        .map_or(k, Vec::len);
    let fewest = (1..paper)
        .find(|&size| some_span(&rows, &unit(target), size, 0, &mut Vec::new()))
        .unwrap_or(paper);
    (k + paper, k + fewest)
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

    /// Every data shard's repair reads exactly the fewest half-chunks its
    /// generator allows, and rebuilds the same bytes as a full-stripe
    /// decode. That is at most the paper's `(k + |group|) / 2` shards (`k`
    /// when the group holds all `k`), and less where a combination of
    /// parity rows cancels more data columns than one group's XOR does
    /// (RS(10, 2)'s parity row holds 62 at data columns 4 and 8, so 8 of
    /// piggyback-10-2's data shards read 19 half-chunks).
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
        for target in 0..k {
            let (_, fewest) = paper_and_fewest_halves(&code, target);
            let (efficient, bytes_read) = repair_from_reads_only(&code, &stripe, target);
            prop_assert_eq!(bytes_read, (fewest * len) as u64, "target {}", target);

            let mut full = stripe.clone();
            erase_and_reconstruct(&code, &mut full, &[target]).unwrap();
            prop_assert_eq!(full.shard(target), &efficient[..]);
        }
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

        // Cost structure, in half-shards (the table's shard length is 2):
        // exactly the fewest the generator allows, at most the paper's
        // price (a (7, 4) code with shards 0–3 in its group rebuilds the
        // uncovered shard 4 from 13 halves, not 14).
        let table = code.single_loss_reads();
        for (target, reads) in table.iter().enumerate().take(k) {
            let (paper, fewest) = paper_and_fewest_halves(&code, target);
            let expect = if target < covered { k + covered } else { 2 * k };
            prop_assert_eq!(paper, expect);
            prop_assert_eq!(total_read_bytes(reads), fewest as u64, "target {}", target);
        }
    }
}
