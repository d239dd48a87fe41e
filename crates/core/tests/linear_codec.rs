//! The linear codec every code shares, pinned from the outside: the parity
//! bytes of each registry code (as CRC-32s of seeded stripes), the outcome
//! of every loss pattern of up to `n − k` shards, and errors counted in
//! shards rather than symbols.
//!
//! The parity table is the on-disk format: a stored chunk must decode with
//! any later build, on any GF backend, so a change to these values is a
//! format break, not a test to update.

use pbrs_core::registry::{self, DynCode};
use pbrs_erasure::{CodeError, ShardBuffer};
use pbrs_gf::crc32::crc32;

/// SplitMix64: a fixed, dependency-free byte source, so the golden CRCs do
/// not move with a random-number crate.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A stripe of `shard_len`-byte shards whose data comes from `seed` and
/// whose parity slots start as garbage, encoded.
fn encoded(code: &DynCode, shard_len: usize, seed: u64) -> ShardBuffer {
    let params = code.params();
    let k = params.data_shards();
    let mut stripe = ShardBuffer::zeroed(params.total_shards(), shard_len);
    let data = seeded_bytes(seed, k * shard_len);
    for (i, chunk) in data.chunks_exact(shard_len).enumerate() {
        stripe.shard_mut(i).copy_from_slice(chunk);
    }
    for i in k..params.total_shards() {
        stripe.shard_mut(i).fill(0xEE);
    }
    let (data, mut parity) = stripe.split_mut(k);
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

/// CRC-32 of every parity shard, per spec and shard length, with data from
/// `seeded_bytes(0x5EED, k · len)`.
#[rustfmt::skip]
const GOLDEN_PARITY: &[(&str, usize, &[u32])] = &[
    ("rs-10-4", 2048, &[0x58ABE20C, 0x6ED48946, 0x2FCE1474, 0x16F45CA8]),
    ("rs-10-4", 65538, &[0x47F8E9D3, 0x60D11F84, 0x5BB78396, 0x713DC43F]),
    ("piggyback-10-4", 2048, &[0x58ABE20C, 0xD8944F02, 0x35E067C8, 0xDBDA9A2D]),
    ("piggyback-10-4", 65538, &[0x47F8E9D3, 0x68C6FD6C, 0x26508D8C, 0x3AD3EE99]),
    ("lrc-10-2-4", 2048, &[0xAF97810A, 0xBE127C78, 0x58ABE20C, 0x6ED48946, 0x2FCE1474, 0x16F45CA8]),
    ("lrc-10-2-4", 65538, &[0x8660578A, 0x34EFE02A, 0x47F8E9D3, 0x60D11F84, 0x5BB78396, 0x713DC43F]),
    ("rep-3", 2048, &[0xA7153E57, 0xA7153E57]),
    ("rep-3", 65538, &[0x55BC64E7, 0x55BC64E7]),
    ("piggyback-4-2", 2048, &[0x52FB5D32, 0xEEF5C021]),
    ("piggyback-4-2", 65538, &[0xD0B69F44, 0xCF18DFA9]),
    ("piggyback-6-3", 2048, &[0x7597FE6D, 0x41C9CFA1, 0x01E72F70]),
    ("piggyback-6-3", 65538, &[0xF810F278, 0x3F319112, 0xB0F6CCD8]),
];

#[test]
fn parity_bytes_match_the_golden_crcs() {
    let mut seen = Vec::new();
    for &(spec, shard_len, want) in GOLDEN_PARITY {
        let code = registry::build_str(spec).unwrap();
        let stripe = encoded(&code, shard_len, 0x5EED);
        let k = code.params().data_shards();
        let got: Vec<u32> = (k..stripe.shard_count())
            .map(|i| crc32(stripe.shard(i)))
            .collect();
        assert_eq!(got, want, "{spec} at {shard_len}-byte shards");
        seen.push(spec);
    }
    // Every registry code is pinned, plus two more piggyback shapes.
    for spec in registry::known_specs() {
        assert!(seen.contains(&spec.to_string().as_str()), "{spec} unpinned");
    }
    for spec in ["piggyback-4-2", "piggyback-6-3"] {
        assert!(seen.contains(&spec), "{spec} unpinned");
    }
}

/// Every mask of `1..=n − k` lost shards of `code`, as availability masks.
fn loss_masks(n: usize, max_lost: usize) -> impl Iterator<Item = Vec<bool>> {
    (1u32..1 << n)
        .filter(move |mask| mask.count_ones() as usize <= max_lost)
        .map(move |mask| (0..n).map(|i| mask & (1 << i) == 0).collect())
}

#[test]
fn every_loss_pattern_restores_exact_bytes_or_fails_untouched() {
    let expected = [
        ("rs-10-4", 1470, 1470),
        ("piggyback-10-4", 1470, 1470),
        ("lrc-10-2-4", 14_455, 14_892),
        ("rep-3", 6, 6),
    ];
    for spec in registry::known_specs() {
        let name = spec.to_string();
        let code = registry::build(&spec).unwrap();
        let params = code.params();
        let (n, k) = (params.total_shards(), params.data_shards());
        let original = encoded(&code, 12, 7);
        let (mut recovered, mut tried) = (0, 0);
        for present in loss_masks(n, n - k) {
            tried += 1;
            let mut stripe = original.clone();
            for i in (0..n).filter(|&i| !present[i]) {
                stripe.shard_mut(i).fill(0xDD);
            }
            match code.reconstruct_in_place(&mut stripe.as_set_mut(), &present) {
                Ok(()) => {
                    assert_eq!(stripe, original, "{name}: {present:?}");
                    recovered += 1;
                }
                Err(e) => {
                    // At most n − k losses leave k survivors, so only a
                    // non-MDS code can fail, and only for lack of span.
                    assert!(!code.is_mds(), "{name}: {present:?}: {e}");
                    assert!(
                        matches!(e, CodeError::ReconstructionFailed { .. }),
                        "{name}: {e}"
                    );
                    for i in (0..n).filter(|&i| present[i]) {
                        assert_eq!(stripe.shard(i), original.shard(i), "{name}: survivor {i}");
                    }
                }
            }
        }
        let want = expected
            .iter()
            .find(|(spec, ..)| *spec == name)
            .unwrap_or_else(|| panic!("no expected counts for {name}"));
        assert_eq!((recovered, tried), (want.1, want.2), "{name}");
    }
}

#[test]
fn too_few_survivors_are_counted_in_shards_not_symbols() {
    // Piggybacked-RS decodes two symbols per shard, but a caller asked
    // about shards: 9 of the 10 needed survive, not 18 of 20.
    let code = registry::build_str("piggyback-10-4").unwrap();
    let original = encoded(&code, 64, 3);
    let mut stripe = original.clone();
    let mut present = vec![true; 14];
    for lost in [0, 4, 9, 11, 13] {
        present[lost] = false;
        stripe.shard_mut(lost).fill(0xDD);
    }
    let result = code.reconstruct_in_place(&mut stripe.as_set_mut(), &present);
    assert!(
        matches!(
            result,
            Err(CodeError::NotEnoughShards {
                needed: 10,
                available: 9
            })
        ),
        "{result:?}"
    );
    for i in (0..14).filter(|&i| present[i]) {
        assert_eq!(stripe.shard(i), original.shard(i), "survivor {i}");
    }
}
