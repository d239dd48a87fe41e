//! The `repair_reads` contract: for every code in the registry, with only
//! the target shard missing, `repair_into` depends on *no byte outside the
//! declared ranges* — a caller that materialises only those ranges still
//! gets the exact shard back, and the ranges' byte total is the code's
//! single-loss price (`single_loss_reads`) scaled to the shard length.
//!
//! The `pbrs-store` crate's degraded reads and repair daemon read exactly
//! these ranges from chunk files *into a scratch stripe reused across
//! stripes*, so this test is the safety net under its partial-read I/O.
//! Crucially, the bytes outside the declared ranges are filled with
//! garbage, not zeros: every `repair_into` is XOR-linear, so an undeclared
//! read of a zeroed range would contribute nothing and escape detection —
//! garbage is what actually sits there when the store's scratch holds a
//! previous stripe.

use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_core::registry;
use pbrs_erasure::{decode, total_read_bytes, CodeError, ErasureCode, ShardBuffer, ShardRead};

fn encoded_stripe(code: &dyn ErasureCode, shard_len: usize, rng: &mut StdRng) -> ShardBuffer {
    let params = code.params();
    let mut stripe = ShardBuffer::zeroed(params.total_shards(), shard_len);
    for i in 0..params.data_shards() {
        for byte in stripe.shard_mut(i) {
            *byte = rng.random();
        }
    }
    let (data, mut parity) = stripe.split_mut(params.data_shards());
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

#[test]
fn repair_into_reads_only_the_declared_ranges() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let shard_len = 64 * code.granularity();
        let stripe = encoded_stripe(code.as_ref(), shard_len, &mut rng);
        let table = code.single_loss_reads();

        for target in 0..n {
            let mut available = vec![true; n];
            available[target] = false;
            let reads = code.repair_reads(target, &available, shard_len).unwrap();

            // The ranges must price exactly like the single-loss table.
            assert_eq!(
                total_read_bytes(&reads),
                total_read_bytes(&table[target]) * 64,
                "{spec} target {target}: ranges disagree with the table's price"
            );
            for read in &reads {
                assert_ne!(read.shard, target, "{spec}: a plan never reads the target");
                assert!(read.len > 0 && read.end() <= shard_len, "{spec}: bad range");
            }

            // Materialise *only* the declared ranges; everything else is
            // garbage (including the whole shards the plan does not touch),
            // as in the store's reused scratch stripe. Zeros would be
            // XOR-invisible and could not catch an undeclared read.
            let mut sparse = ShardBuffer::zeroed(n, shard_len);
            for shard in 0..n {
                for byte in sparse.shard_mut(shard) {
                    *byte = rng.random();
                }
            }
            for read in &reads {
                sparse.shard_mut(read.shard)[read.offset..read.end()]
                    .copy_from_slice(&stripe.shard(read.shard)[read.offset..read.end()]);
            }
            let mut out = vec![0u8; shard_len];
            code.repair_into(target, &sparse.as_set(), &mut out)
                .unwrap();
            assert_eq!(
                out,
                stripe.shard(target),
                "{spec} target {target}: repair from sparse ranges diverged"
            );
        }
    }
}

/// The ranked companion contract: whatever helper choice
/// `repair_reads_ranked` makes under an adversarial preference,
/// `repair_from_reads` rebuilds the exact shard from *only* those ranges
/// (everything else garbage), and the preference can only steer choice, not
/// inflate cost.
#[test]
fn ranked_reads_and_repair_from_reads_agree() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let shard_len = 64 * code.granularity();
        let stripe = encoded_stripe(code.as_ref(), shard_len, &mut rng);

        for target in 0..n {
            let mut available = vec![true; n];
            available[target] = false;
            let canonical = code.repair_reads(target, &available, shard_len).unwrap();
            // Prefer *high* shard indices — the opposite of the canonical
            // first-k choice, so codes with helper freedom must move.
            let rank = |shard: usize| (n - shard) as u64;
            let ranked = code
                .repair_reads_ranked(target, &available, shard_len, &rank)
                .unwrap();
            assert_eq!(
                total_read_bytes(&ranked),
                total_read_bytes(&canonical),
                "{spec} target {target}: preference must not change the cost"
            );

            let mut sparse = ShardBuffer::zeroed(n, shard_len);
            for shard in 0..n {
                for byte in sparse.shard_mut(shard) {
                    *byte = rng.random();
                }
            }
            for read in &ranked {
                sparse.shard_mut(read.shard)[read.offset..read.end()]
                    .copy_from_slice(&stripe.shard(read.shard)[read.offset..read.end()]);
            }
            let mut out = vec![0u8; shard_len];
            code.repair_from_reads(target, &ranked, &sparse.as_set(), &mut out)
                .unwrap();
            assert_eq!(
                out,
                stripe.shard(target),
                "{spec} target {target}: ranked repair from sparse ranges diverged"
            );
        }
    }
}

/// Codes with helper freedom (RS, replication) must actually honour the
/// preference; structurally-fixed plans may ignore it.
#[test]
fn rs_and_replication_honour_helper_preference() {
    let code = registry::build_str("rs-10-4").unwrap();
    let mut available = vec![true; 14];
    available[0] = false;
    // Rank helpers 4..14 cheap, 1..4 expensive: an MDS code can satisfy the
    // whole repair from the 10 cheap helpers.
    let rank = |shard: usize| u64::from(shard < 4);
    let reads = code.repair_reads_ranked(0, &available, 64, &rank).unwrap();
    let shards: Vec<usize> = reads.iter().map(|r| r.shard).collect();
    assert_eq!(shards, (4..14).collect::<Vec<_>>());

    let rep = registry::build_str("rep-3").unwrap();
    let mut available = vec![true; 3];
    available[0] = false;
    let prefer_last = |shard: usize| (3 - shard) as u64;
    let reads = rep
        .repair_reads_ranked(0, &available, 64, &prefer_last)
        .unwrap();
    assert_eq!(reads.len(), 1);
    assert_eq!(
        reads[0].shard, 2,
        "the preferred replica is the copy source"
    );
}

/// A read set naming the target shard itself must be rejected — otherwise
/// the "rebuild" would copy the stale slot being repaired.
#[test]
fn repair_from_reads_rejects_reads_of_the_target() {
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let shard_len = 64 * code.granularity();
        let stripe = ShardBuffer::zeroed(n, shard_len);
        let mut out = vec![0u8; shard_len];
        let poisoned: Vec<ShardRead> = (0..code.params().data_shards())
            .map(|shard| ShardRead::whole(shard, shard_len))
            .collect();
        // Target 0 appears in its own read set.
        assert!(
            code.repair_from_reads(0, &poisoned, &stripe.as_set(), &mut out)
                .is_err(),
            "{spec}: reads naming the target must be rejected"
        );
        // Out-of-range helper shards are errors, not panics.
        let bogus = [ShardRead::whole(n + 3, shard_len)];
        assert!(
            code.repair_from_reads(0, &bogus, &stripe.as_set(), &mut out)
                .is_err(),
            "{spec}: out-of-range reads must be rejected"
        );
    }
}

#[test]
fn repair_reads_rejects_bad_inputs() {
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let mut available = vec![true; n];
        available[0] = false;
        // Unaligned shard length.
        assert!(code.repair_reads(0, &available, 0).is_err(), "{spec}");
        if code.granularity() > 1 {
            assert!(code.repair_reads(0, &available, 63).is_err(), "{spec}");
        }
        // Target not actually missing.
        assert!(code.repair_reads(1, &available, 64).is_err(), "{spec}");
        // Out-of-range target.
        assert!(code.repair_reads(n, &available, 64).is_err(), "{spec}");
        // Degraded masks are rejected: `repair_reads` is the single-failure
        // read set of `repair_into`. The ranked form accepts them.
        let mut degraded = available.clone();
        degraded[n - 1] = false;
        assert!(
            code.repair_reads(0, &degraded, 64 * code.granularity())
                .is_err(),
            "{spec}: a second missing shard must be rejected"
        );
        assert!(
            code.repair_reads_ranked(0, &degraded, 64 * code.granularity(), &|_| 0)
                .is_ok(),
            "{spec}: the ranked reads route around a second missing shard"
        );
    }
}

#[test]
fn piggyback_reads_are_half_shards_for_data_targets() {
    let code = registry::build_str("piggyback-10-4").unwrap();
    let shard_len = 128;
    for target in 0..10 {
        let mut available = vec![true; 14];
        available[target] = false;
        let reads = code.repair_reads(target, &available, shard_len).unwrap();
        // Clean parity and carrier contribute second halves only.
        assert!(
            reads
                .iter()
                .filter(|r| r.shard >= 10)
                .all(|r| r.offset == shard_len / 2 && r.len == shard_len / 2),
            "target {target}"
        );
        // Some data helpers are half reads, the group peers whole reads.
        assert!(reads.iter().any(|r| r.len == shard_len / 2));
        assert!(reads.iter().any(|r| r.len == shard_len));
        // Fewer bytes than the RS baseline of k whole shards.
        assert!(total_read_bytes(&reads) < 10 * shard_len as u64);
    }
    // Parity targets read every data b-half plus the 9 other half-chunks
    // the search found: 19 halves, one fewer than k whole shards, each
    // read a whole half or a whole chunk.
    for target in 10..14 {
        let mut available = vec![true; 14];
        available[target] = false;
        let reads = code.repair_reads(target, &available, shard_len).unwrap();
        assert_eq!(total_read_bytes(&reads), 19 * shard_len as u64 / 2);
        assert!(reads
            .iter()
            .filter(|r| r.shard < 10)
            .all(|r| r.offset + r.len == shard_len));
        assert!(reads
            .iter()
            .all(|r| r.len == shard_len || r.len == shard_len / 2));
    }
}

/// Every range a single-loss plan names is one half of the chunk or the
/// whole chunk — for every registry spec, every target, and every helper
/// ranking (no preference, and each other shard ranked behind the rest).
/// A chunk file checksums its payload
/// in exactly those two halves, so the half CRCs cover every repair byte
/// and `read_chunk_range` never needs its unaligned side-buffer path.
#[test]
fn every_repair_read_is_a_whole_half_or_the_whole_chunk() {
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        for shard_len in [256, 64 * 1024] {
            let half = shard_len / 2;
            let covered = [(0, shard_len), (0, half), (half, shard_len - half)];
            for target in 0..n {
                let mut available = vec![true; n];
                available[target] = false;
                for exiled in (0..n).filter(|&s| s != target).map(Some).chain([None]) {
                    let rank = |shard: usize| u64::from(Some(shard) == exiled);
                    let reads = code
                        .repair_reads_ranked(target, &available, shard_len, &rank)
                        .unwrap();
                    for read in &reads {
                        assert!(
                            covered.contains(&(read.offset, read.len)),
                            "{spec} target {target} exiled {exiled:?} len {shard_len}: \
                             {read:?} is not a half or the whole chunk"
                        );
                    }
                }
            }
        }
    }
}

/// Plans for a target with a *second* shard also lost — the ones the
/// cluster simulator prices for multi-failure stripes — name a helper set
/// that really rebuilds the target. For every registry code, every target
/// and every second loss the code accepts, `repair_reads_ranked` over the
/// degraded mask avoids both lost shards, prices in proportion to the
/// shard length (16 times its price at `shard_len = granularity()`), and
/// `repair_from_reads` rebuilds the target byte-exactly from only those
/// ranges, every other byte holding garbage.
#[test]
fn degraded_plans_execute_from_their_fetches_alone() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let mut executed = 0;
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let shard_len = 16 * code.granularity();
        let stripe = encoded_stripe(code.as_ref(), shard_len, &mut rng);

        for target in 0..n {
            for second in (0..n).filter(|&s| s != target) {
                let mut available = vec![true; n];
                available[target] = false;
                available[second] = false;
                let Ok(reads) = code.repair_reads_ranked(target, &available, shard_len, &|_| 0)
                else {
                    continue;
                };
                assert!(
                    reads.iter().all(|r| available[r.shard]),
                    "{spec}: reads for {target} name a lost shard"
                );
                let unit = code.repair_reads_ranked(target, &available, code.granularity(), &|_| 0);
                assert_eq!(
                    total_read_bytes(&reads),
                    total_read_bytes(&unit.unwrap()) * 16,
                    "{spec}: reads for {target} do not scale with the shard length"
                );
                let scratch = sparse_copy(&stripe, &reads, &mut rng);
                let mut out = vec![0u8; shard_len];
                code.repair_from_reads(target, &reads, &scratch.as_set(), &mut out)
                    .unwrap();
                assert_eq!(
                    out,
                    stripe.shard(target),
                    "{spec}: target {target} with {second} also lost"
                );
                executed += 1;
            }
        }
    }
    // 14 x 13 pairs for each of RS and Piggybacked-RS, 16 x 15 for LRC and
    // 3 x 2 for replication: every pair has a plan.
    assert_eq!(executed, 182 + 182 + 240 + 6);
}

/// `repair_from_reads` rebuilds from whatever read set it is given, not from
/// the code's own choice: for every registry code and every target, a
/// spanning read set the code would not pick rebuilds the shard exactly
/// with every other byte garbage, and a read set that cannot span the
/// target is refused rather than answered with wrong bytes.
#[test]
fn repair_from_reads_honours_any_read_set() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for spec in registry::known_specs() {
        let code = registry::build(&spec).unwrap();
        let n = code.params().total_shards();
        let k = code.params().data_shards();
        let g = code.granularity();
        let shard_len = 16 * g;
        let stripe = encoded_stripe(code.as_ref(), shard_len, &mut rng);
        let generator = code.generator();

        for target in 0..n {
            // Survivors, highest index first: the opposite of every code's
            // own preference for low indices and local groups.
            let survivors: Vec<usize> = (0..n).rev().filter(|&s| s != target).collect();
            let helpers = if code.is_mds() {
                survivors[..k].to_vec()
            } else {
                decode::select_independent_rows(generator, &survivors).unwrap()
            };
            let reads: Vec<ShardRead> = helpers
                .iter()
                .map(|&shard| ShardRead::whole(shard, shard_len))
                .collect();
            let scratch = sparse_copy(&stripe, &reads, &mut rng);
            let mut out = vec![0u8; shard_len];
            code.repair_from_reads(target, &reads, &scratch.as_set(), &mut out)
                .unwrap();
            assert_eq!(
                out,
                stripe.shard(target),
                "{spec} target {target}: rebuild from {helpers:?} diverged"
            );

            // Every shard whose symbols all miss a column the target
            // depends on: their span misses the target's rows.
            let target_rows = target * g..(target + 1) * g;
            let column = (0..generator.cols())
                .find(|&c| target_rows.clone().any(|row| generator.get(row, c) != 0))
                .unwrap();
            let blind: Vec<ShardRead> = survivors
                .iter()
                .filter(|&&s| (s * g..(s + 1) * g).all(|row| generator.get(row, column) == 0))
                .map(|&shard| ShardRead::whole(shard, shard_len))
                .collect();
            let scratch = sparse_copy(&stripe, &blind, &mut rng);
            assert!(
                matches!(
                    code.repair_from_reads(target, &blind, &scratch.as_set(), &mut out),
                    Err(CodeError::ReconstructionFailed { .. })
                ),
                "{spec} target {target}: reads {blind:?} cannot span the target"
            );
        }
    }
}

/// A copy of `stripe` that holds its true bytes only inside `reads`; every
/// other byte is garbage, as in the store's reused scratch stripe.
fn sparse_copy(stripe: &ShardBuffer, reads: &[ShardRead], rng: &mut StdRng) -> ShardBuffer {
    let mut sparse = stripe.clone();
    for shard in 0..sparse.shard_count() {
        sparse
            .shard_mut(shard)
            .iter_mut()
            .for_each(|b| *b = rng.random());
    }
    for read in reads {
        sparse.shard_mut(read.shard)[read.range()]
            .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
    }
    sparse
}
