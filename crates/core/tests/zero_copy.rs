//! Ground-truth checks of the Piggybacked-RS view API across a `(k, r)`
//! grid and odd (even-aligned) shard lengths — including the two-symbol
//! decode and the download-efficient repair path.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_core::{registry, PiggybackedRs};
use pbrs_erasure::{CodeError, ErasureCode, ShardBuffer, ShardSetMut};

/// Random data shards followed by `r` parity slots holding `fill`.
fn random_stripe(rng: &mut StdRng, k: usize, r: usize, len: usize, fill: u8) -> ShardBuffer {
    let mut stripe = ShardBuffer::zeroed(k + r, len);
    for i in 0..k {
        stripe
            .shard_mut(i)
            .iter_mut()
            .for_each(|b| *b = rng.random());
    }
    for i in k..k + r {
        stripe.shard_mut(i).fill(fill);
    }
    stripe
}

/// Encodes the data shards of `stripe` into its parity slots.
fn encode(code: &PiggybackedRs, mut stripe: ShardBuffer) -> ShardBuffer {
    let (data, mut parity) = stripe.split_mut(code.params().data_shards());
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode_into overwrites every parity byte: stale 0xEE parity slots
    /// encode to exactly the bytes zeroed ones do.
    #[test]
    fn encode_into_overwrites_stale_parity(
        k in 2usize..12,
        r in 1usize..6,
        half in 1usize..24,
        seed in any::<u64>(),
    ) {
        let code = PiggybackedRs::new(k, r).unwrap();
        let zeroed = random_stripe(&mut StdRng::seed_from_u64(seed), k, r, half * 2, 0);
        let stale = random_stripe(&mut StdRng::seed_from_u64(seed), k, r, half * 2, 0xEE);
        prop_assert_eq!(encode(&code, stale), encode(&code, zeroed));
    }

    /// reconstruct_in_place turns garbage in up to r missing slots back into
    /// the original bytes and leaves every surviving shard as it was.
    #[test]
    fn reconstruct_in_place_restores_garbage_slots(
        k in 2usize..12,
        r in 1usize..6,
        half in 1usize..16,
        erasures in 0usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let full = encode(&code, random_stripe(&mut rng, k, r, half * 2, 0));
        let n = k + r;

        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let missing: Vec<usize> = indices.into_iter().take(erasures.min(r)).collect();

        let mut stripe = full.clone();
        let mut present = vec![true; n];
        for &i in &missing {
            present[i] = false;
            stripe.shard_mut(i).fill(0xDD);
        }
        code.reconstruct_in_place(&mut stripe.as_set_mut(), &present).unwrap();
        for i in 0..n {
            prop_assert_eq!(stripe.shard(i), full.shard(i), "shard {}", i);
        }
    }

    /// Over-erased stripes fail in place with `NotEnoughShards`, and
    /// surviving shards (including piggybacked parities) are left
    /// bit-identical.
    #[test]
    fn in_place_failure_restores_survivors(
        k in 2usize..10,
        r in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let full = encode(&code, random_stripe(&mut rng, k, r, 8, 0));
        let n = k + r;

        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let missing: Vec<usize> = indices.into_iter().take(r + 1).collect();
        let mut stripe = full.clone();
        let mut present = vec![true; n];
        for &i in &missing {
            present[i] = false;
        }
        let result = code.reconstruct_in_place(&mut stripe.as_set_mut(), &present);
        prop_assert!(
            matches!(result, Err(CodeError::NotEnoughShards { .. })),
            "{:?}",
            result
        );
        for i in (0..n).filter(|&i| present[i]) {
            prop_assert_eq!(stripe.shard(i), full.shard(i), "survivor {}", i);
        }
    }

    /// repair_into rebuilds every shard position from a stale target slot —
    /// covered data shards (the efficient path), uncovered data shards, and
    /// parities.
    #[test]
    fn repair_into_rebuilds_every_shard(
        k in 2usize..12,
        r in 1usize..6,
        half in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let code = PiggybackedRs::new(k, r).unwrap();
        let full = encode(&code, random_stripe(&mut rng, k, r, half * 2, 0));
        for target in 0..k + r {
            let mut stripe = full.clone();
            stripe.shard_mut(target).fill(0xAA);
            let mut out = vec![0x55u8; half * 2];
            code.repair_into(target, &stripe.as_set(), &mut out).unwrap();
            prop_assert_eq!(&out[..], full.shard(target), "target {}", target);
        }
    }
}

/// Registry-built boxed codes expose the zero-copy API through the trait
/// object, end to end.
#[test]
fn boxed_code_runs_zero_copy_round_trip() {
    let code = registry::build_str("piggyback-10-4").unwrap();
    let mut stripe = ShardBuffer::zeroed(14, 32);
    for i in 0..10 {
        for (j, b) in stripe.shard_mut(i).iter_mut().enumerate() {
            *b = ((i * 13 + j * 7 + 3) % 256) as u8;
        }
    }
    {
        let (data, mut parity) = stripe.split_mut(10);
        code.encode_into(&data, &mut parity).unwrap();
    }
    let original = stripe.clone();

    // Single-shard repair through the view API.
    let mut out = vec![0u8; 32];
    code.repair_into(3, &stripe.as_set(), &mut out).unwrap();
    assert_eq!(out, original.shard(3));

    // Full in-place reconstruction of r failures.
    let mut present = vec![true; 14];
    for lost in [0, 5, 11, 13] {
        present[lost] = false;
        stripe.shard_mut(lost).fill(0);
    }
    code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
        .unwrap();
    assert_eq!(stripe, original);
}

/// The view API rejects shard lengths that are not a multiple of the
/// code's granularity (2 for the piggybacked code).
#[test]
fn view_api_rejects_unaligned_lengths() {
    let code = PiggybackedRs::new(4, 2).unwrap();
    let data_buf = vec![0u8; 4 * 7];
    let data = pbrs_erasure::ShardSet::new(&data_buf, 4, 7).unwrap();
    let mut parity_buf = vec![0u8; 2 * 7];
    let mut parity = ShardSetMut::new(&mut parity_buf, 2, 7).unwrap();
    assert!(matches!(
        code.encode_into(&data, &mut parity),
        Err(pbrs_erasure::CodeError::UnalignedShard {
            len: 7,
            granularity: 2
        })
    ));
}
