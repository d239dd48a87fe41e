//! Ground-truth checks of the view API for every baseline code.
//!
//! Across a `(k, r)` grid and odd shard lengths: `encode_into` overwrites
//! every parity byte (a garbage-filled parity buffer encodes to the same
//! bytes as a zeroed one), `reconstruct_in_place` turns garbage-filled
//! missing slots back into the original bytes without disturbing the
//! survivors, `repair_into` rebuilds every shard position exactly, and an
//! over-erased stripe is refused with `NotEnoughShards`.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_erasure::{
    CodeError, CodeSpec, ErasureCode, Lrc, LrcParams, ReedSolomon, Replication, ShardBuffer,
    ShardSet,
};

fn random_data(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..len).map(|_| rng.random()).collect())
        .collect()
}

/// Encodes `data` into a stripe whose parity slots start out as `fill`.
fn encode_over<C: ErasureCode>(code: &C, data: &[Vec<u8>], fill: u8) -> ShardBuffer {
    let mut stripe = ShardBuffer::zeroed(code.params().total_shards(), data[0].len());
    for i in 0..stripe.shard_count() {
        match data.get(i) {
            Some(shard) => stripe.shard_mut(i).copy_from_slice(shard),
            None => stripe.shard_mut(i).fill(fill),
        }
    }
    let (data, mut parity) = stripe.split_mut(data.len());
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

/// Encodes over a zeroed and over a 0xEE-filled parity buffer, asserts the
/// two agree, and returns the full stripe.
fn assert_encode_overwrites<C: ErasureCode>(code: &C, data: &[Vec<u8>]) -> ShardBuffer {
    let full = encode_over(code, data, 0);
    assert_eq!(encode_over(code, data, 0xEE), full, "{}", code.name());
    full
}

/// Fills `missing` with garbage, reconstructs in place and returns the
/// result; on success the stripe must equal `full` again.
fn reconstruct_from_garbage<C: ErasureCode>(
    code: &C,
    full: &ShardBuffer,
    missing: &[usize],
) -> Result<Result<(), CodeError>, TestCaseError> {
    let mut stripe = full.clone();
    let mut present = vec![true; stripe.shard_count()];
    for &i in missing {
        present[i] = false;
        stripe.shard_mut(i).fill(0xDD);
    }
    let result = code.reconstruct_in_place(&mut stripe.as_set_mut(), &present);
    if result.is_ok() {
        // Missing slots hold the original bytes again; present slots were
        // left as they were.
        for i in 0..stripe.shard_count() {
            prop_assert_eq!(
                stripe.shard(i),
                full.shard(i),
                "shard {} of {} missing {:?}",
                i,
                code.name(),
                missing
            );
        }
    }
    Ok(result)
}

/// Repairs every shard position from a stripe whose target slot is stale.
fn assert_repair_every_shard<C: ErasureCode>(code: &C, full: &ShardBuffer) {
    for target in 0..full.shard_count() {
        let mut stripe = full.clone();
        stripe.shard_mut(target).fill(0xAA);
        let mut out = vec![0x55u8; full.shard_len()];
        code.repair_into(target, &stripe.as_set(), &mut out)
            .unwrap();
        assert_eq!(
            out,
            full.shard(target),
            "target {target} of {}",
            code.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reed–Solomon: encode, repair and reconstruct recover the original
    /// bytes over a (k, r) grid and odd shard lengths.
    #[test]
    fn rs_view_api_round_trips(
        k in 2usize..12,
        r in 1usize..6,
        len in 1usize..48,
        erasures in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, len);
        let full = assert_encode_overwrites(&rs, &data);
        assert_repair_every_shard(&rs, &full);

        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(erasures.min(r));
        reconstruct_from_garbage(&rs, &full, &indices)?.unwrap();
    }

    /// LRC: the same, including the local-repair phase and the global
    /// fallback.
    #[test]
    fn lrc_view_api_round_trips(
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
        let full = assert_encode_overwrites(&lrc, &data);
        assert_repair_every_shard(&lrc, &full);

        let n = lrc.params().total_shards();
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        indices.truncate(rng.random_range(0..=g));
        reconstruct_from_garbage(&lrc, &full, &indices)?.unwrap();
    }

    /// Replication: the same, down to a single surviving copy.
    #[test]
    fn replication_view_api_round_trips(
        replicas in 2usize..6,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rep = Replication::new(replicas).unwrap();
        let data = random_data(&mut rng, 1, len);
        let full = assert_encode_overwrites(&rep, &data);
        assert_repair_every_shard(&rep, &full);

        // Erase all but one random survivor.
        let survivor = rng.random_range(0..replicas);
        let missing: Vec<usize> = (0..replicas).filter(|&i| i != survivor).collect();
        reconstruct_from_garbage(&rep, &full, &missing)?.unwrap();
    }

    /// An over-erased stripe is refused with `NotEnoughShards` by both the
    /// decode API (`reconstruct_in_place`) and the planning API
    /// (`repair_reads_ranked`), never silently mis-decoded.
    #[test]
    fn excess_erasures_fail_in_both_apis(
        k in 2usize..8,
        r in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = ReedSolomon::new(k, r).unwrap();
        let data = random_data(&mut rng, k, 16);
        let full = encode_over(&rs, &data, 0);
        let mut indices: Vec<usize> = (0..k + r).collect();
        indices.shuffle(&mut rng);
        indices.truncate(r + 1);
        let decoded = reconstruct_from_garbage(&rs, &full, &indices)?;
        prop_assert!(
            matches!(decoded, Err(CodeError::NotEnoughShards { .. })),
            "{:?}",
            decoded
        );
        let mut available = vec![true; k + r];
        for &i in &indices {
            available[i] = false;
        }
        let planned = rs.repair_reads_ranked(indices[0], &available, 16, &|_| 0);
        prop_assert!(
            matches!(planned, Err(CodeError::NotEnoughShards { .. })),
            "{:?}",
            planned
        );
    }

    /// CodeSpec parse/display round-trips for every valid combination the
    /// grid produces.
    #[test]
    fn code_spec_round_trips(
        k in 1usize..30,
        r in 1usize..10,
        l in 1usize..6,
        copies in 2usize..12,
    ) {
        let specs = [
            CodeSpec::ReedSolomon { k, r },
            CodeSpec::PiggybackedRs { k, r },
            CodeSpec::Lrc { k, local_groups: l, global_parities: r },
            CodeSpec::Replication { copies },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: CodeSpec = text.parse().unwrap();
            prop_assert_eq!(parsed, spec, "{}", text);
        }
    }
}

/// `repair_into` validates its inputs like the rest of the API.
#[test]
fn repair_into_validates_inputs() {
    let rs = ReedSolomon::new(4, 2).unwrap();
    let buf = vec![0u8; 6 * 8];
    let set = ShardSet::new(&buf, 6, 8).unwrap();
    let mut out = vec![0u8; 8];
    assert!(
        rs.repair_into(6, &set, &mut out).is_err(),
        "target out of range"
    );
    let mut short = vec![0u8; 7];
    assert!(
        rs.repair_into(0, &set, &mut short).is_err(),
        "wrong out length"
    );
    let narrow = ShardSet::new(&buf[..40], 5, 8).unwrap();
    assert!(
        rs.repair_into(0, &narrow, &mut out).is_err(),
        "wrong shard count"
    );
}
