//! x86-64 kernels: `pshufb` split-nibble GF(2^8) multiplies (SSSE3 and
//! AVX2) and the carry-less-multiply CRC-32 fold (PCLMULQDQ).
//!
//! The classic vectorised multiply from Intel ISA-L and Plank et al.'s
//! "Screaming Fast Galois Field Arithmetic Using Intel SIMD Instructions":
//! for a fixed scalar `c`, precompute two 16-entry tables
//!
//! * `lo[x] = c · x` for the low nibble `x` in `0..16`, and
//! * `hi[x] = c · (x << 4)` for the high nibble,
//!
//! so that `c · byte = lo[byte & 0xF] ⊕ hi[byte >> 4]`. `pshufb` performs
//! sixteen (SSSE3) or thirty-two (AVX2, two 128-bit lanes) of those table
//! lookups per instruction, turning the whole multiply-accumulate into a
//! handful of loads, shuffles and XORs per 16/32-byte block.
//!
//! The CRC fold is Gopal et al.'s (Intel, 2009, "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction"), the one zlib, Linux
//! and crc32fast use. A CRC is a remainder modulo a polynomial over GF(2),
//! and multiplying a 64-bit half of the remainder-so-far by `x^n mod P` —
//! one `pclmulqdq` — moves it `n` bits further down the message without
//! changing the final remainder. Four 128-bit accumulators each absorb
//! every fourth 16-byte block (folded 512 bits forward by `K1`/`K2`), are
//! combined into one (`K3`/`K4`, 128 bits), reduced to 64 bits (`K4`,
//! `K5`), and a Barrett step (`P'`, `µ'`) takes the remainder to 32 bits.
//! See [`crate::crc32`] for when it runs.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`: the intrinsics
//! need raw-pointer loads/stores and the `#[target_feature]` functions must
//! only run on CPUs that support the feature. Both obligations are
//! discharged locally — every pointer is derived from an in-bounds slice
//! range or a 16-byte array, and the wrappers are only reached through
//! [`crate::backend`] dispatch or [`crate::crc32`]'s feature check, both
//! of which verify the feature at runtime with `is_x86_feature_detected!`
//! (debug-asserted again by the GF wrappers, asserted by the CRC one).

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
    _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set1_epi8, _mm_set_epi32, _mm_set_epi64x, _mm_shuffle_epi8,
    _mm_srli_epi64, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use crate::tables;

/// The two 16-entry half-byte product tables for one scalar.
struct NibbleTables {
    lo: [u8; 16],
    hi: [u8; 16],
}

#[inline]
fn nibble_tables(c: u8) -> NibbleTables {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for x in 0..16u8 {
        lo[x as usize] = tables::mul(c, x);
        hi[x as usize] = tables::mul(c, x << 4);
    }
    NibbleTables { lo, hi }
}

/// `dst[i] ^= c * src[i]` on SSSE3; `c` must not be 0 or 1.
pub(crate) fn mul_add_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: the dispatcher only selects this backend after runtime
    // detection confirmed SSSE3 (debug-asserted above).
    unsafe { ssse3_kernel::<true>(&nibble_tables(c), src, dst) }
    tail_scalar::<true>(c, src, dst, src.len() - src.len() % 16);
}

/// `dst[i] = c * src[i]` on SSSE3; `c` must not be 0 or 1.
pub(crate) fn mul_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: as in `mul_add_ssse3`.
    unsafe { ssse3_kernel::<false>(&nibble_tables(c), src, dst) }
    tail_scalar::<false>(c, src, dst, src.len() - src.len() % 16);
}

/// `dst[i] ^= c * src[i]` on AVX2; `c` must not be 0 or 1.
pub(crate) fn mul_add_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as in `mul_add_ssse3`, for the AVX2 feature.
    unsafe { avx2_kernel::<true>(&nibble_tables(c), src, dst) }
    tail_scalar::<true>(c, src, dst, src.len() - src.len() % 32);
}

/// `dst[i] = c * src[i]` on AVX2; `c` must not be 0 or 1.
pub(crate) fn mul_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as in `mul_add_ssse3`, for the AVX2 feature.
    unsafe { avx2_kernel::<false>(&nibble_tables(c), src, dst) }
    tail_scalar::<false>(c, src, dst, src.len() - src.len() % 32);
}

/// Finishes the sub-vector tail starting at `from` with scalar lookups.
#[inline]
fn tail_scalar<const ACCUMULATE: bool>(c: u8, src: &[u8], dst: &mut [u8], from: usize) {
    for (s, d) in src[from..].iter().zip(dst[from..].iter_mut()) {
        if ACCUMULATE {
            *d ^= tables::mul(c, *s);
        } else {
            *d = tables::mul(c, *s);
        }
    }
}

/// # Safety
///
/// Requires SSSE3. `src` and `dst` must have equal lengths.
#[target_feature(enable = "ssse3")]
unsafe fn ssse3_kernel<const ACCUMULATE: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    // SAFETY: the table arrays are 16 bytes, exactly one unaligned load.
    let lo_t = unsafe { _mm_loadu_si128(t.lo.as_ptr().cast::<__m128i>()) };
    let hi_t = unsafe { _mm_loadu_si128(t.hi.as_ptr().cast::<__m128i>()) };
    let mask = _mm_set1_epi8(0x0F);
    let blocks = src.len() / 16;
    for block in 0..blocks {
        let at = block * 16;
        // SAFETY: `at + 16 <= src.len() == dst.len()`, so every 16-byte
        // unaligned load/store below stays inside the slices.
        unsafe {
            let v = _mm_loadu_si128(src.as_ptr().add(at).cast::<__m128i>());
            let lo = _mm_and_si128(v, mask);
            let hi = _mm_and_si128(_mm_srli_epi64::<4>(v), mask);
            let product = _mm_xor_si128(_mm_shuffle_epi8(lo_t, lo), _mm_shuffle_epi8(hi_t, hi));
            let out = dst.as_mut_ptr().add(at).cast::<__m128i>();
            let value = if ACCUMULATE {
                _mm_xor_si128(_mm_loadu_si128(out), product)
            } else {
                product
            };
            _mm_storeu_si128(out, value);
        }
    }
}

/// # Safety
///
/// Requires AVX2. `src` and `dst` must have equal lengths.
#[target_feature(enable = "avx2")]
unsafe fn avx2_kernel<const ACCUMULATE: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    // SAFETY: the table arrays are 16 bytes, exactly one unaligned load
    // each, broadcast into both 128-bit lanes (vpshufb looks up within
    // each lane independently).
    let (lo_t, hi_t): (__m256i, __m256i) = unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast::<__m128i>())),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast::<__m128i>())),
        )
    };
    let mask = _mm256_set1_epi8(0x0F);
    let blocks = src.len() / 32;
    for block in 0..blocks {
        let at = block * 32;
        // SAFETY: `at + 32 <= src.len() == dst.len()`, so every 32-byte
        // unaligned load/store below stays inside the slices.
        unsafe {
            let v = _mm256_loadu_si256(src.as_ptr().add(at).cast::<__m256i>());
            let lo = _mm256_and_si256(v, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
            let product =
                _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, lo), _mm256_shuffle_epi8(hi_t, hi));
            let out = dst.as_mut_ptr().add(at).cast::<__m256i>();
            let value = if ACCUMULATE {
                _mm256_xor_si256(_mm256_loadu_si256(out), product)
            } else {
                product
            };
            _mm256_storeu_si256(out, value);
        }
    }
}

// CRC-32 fold constants for the reflected IEEE polynomial
// P = 0x1_04C1_1DB7. Each `K` is `x^n mod P`, bit-reflected and shifted
// left one (the reflected product comes out one bit short); `µ'` is
// `floor(x^64 / P)` and `P'` is `P`, both reflected over 33 bits.
/// `x^(4·128+32) mod P`: folds an accumulator 512 bits forward (low half).
const K1: i64 = 0x1_5444_2BD4;
/// `x^(4·128−32) mod P`: the same for the high half.
const K2: i64 = 0x1_C6E4_1596;
/// `x^(128+32) mod P`: folds 128 bits forward (low half).
const K3: i64 = 0x1_7519_97D0;
/// `x^(128−32) mod P`: the same for the high half, and the 128 → 64 step.
const K4: i64 = 0x0_CCAA_009E;
/// `x^64 mod P`: the 64 → 32 (+32) step ahead of the Barrett reduction.
const K5: i64 = 0x1_63CD_6124;
/// `P'`, the polynomial itself.
const P_X: i64 = 0x1_DB71_0641;
/// `µ'`, the Barrett constant.
const MU: i64 = 0x1_F701_1641;

/// Advances the raw (inverted) CRC-32 `state` over `blocks` by
/// carry-less-multiply folding; there must be at least four blocks.
pub(crate) fn crc32_fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
    // Checked in release builds too: two cached loads against a kernel
    // call that covers at least 64 bytes.
    assert!(
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1"),
        "CRC fold called on a CPU without PCLMULQDQ and SSE4.1"
    );
    // SAFETY: the assertion above confirmed both target features.
    unsafe { crc32_fold_kernel(state, blocks) }
}

/// One 16-byte block as a vector.
#[inline]
fn load_block(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is exactly 16 readable bytes, one unaligned load.
    unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
}

/// `acc` carried forward by the distance `keys` encodes, plus `next`:
/// `acc.lo · keys.lo ⊕ acc.hi · keys.hi ⊕ next`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// [`crc32_fold`] behind its feature check.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_fold_kernel(state: u32, blocks: &[[u8; 16]]) -> u32 {
    let (head, rest) = blocks.split_at(4);
    let mut acc = [
        load_block(&head[0]),
        load_block(&head[1]),
        load_block(&head[2]),
        load_block(&head[3]),
    ];
    // The raw state is the running remainder of everything before these
    // blocks; XORed into the first 32 message bits it carries the stream
    // forward exactly as the table kernel's `crc ^ bytes` does.
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));

    // Fold by 4: lane `i` absorbs every fourth block, 512 bits apart.
    let k1k2 = _mm_set_epi64x(K2, K1);
    let (quads, singles) = rest.as_chunks::<4>();
    for quad in quads {
        for (lane, block) in acc.iter_mut().zip(quad) {
            *lane = fold_16(*lane, load_block(block), k1k2);
        }
    }

    // Combine the four lanes, then fold in the last < 4 blocks one by one.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_16(acc[0], acc[1], k3k4);
    x = fold_16(x, acc[2], k3k4);
    x = fold_16(x, acc[3], k3k4);
    for block in singles {
        x = fold_16(x, load_block(block), k3k4);
    }

    // 128 → 64 bits: the low half carried over the high half (K4), then
    // the low 32 bits of that carried 64 bits on (K5).
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett reduction, 64 → 32 bits, bit-reflected: T1 = (R mod x^32)·µ',
    // T2 = (T1 mod x^32)·P', and the remainder is the upper half of R ⊕ T2.
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(41).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn nibble_tables_compose_the_full_product() {
        for c in [2u8, 0x1D, 0x53, 0xFF] {
            let t = nibble_tables(c);
            for x in 0..=255u8 {
                let via_tables = t.lo[(x & 0x0F) as usize] ^ t.hi[(x >> 4) as usize];
                assert_eq!(via_tables, tables::mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn simd_kernels_match_scalar_on_awkward_lengths() {
        for len in [1usize, 15, 16, 17, 31, 32, 33, 100, 255] {
            let src = buf(len, 7);
            for c in [2u8, 0x1D, 0x8E, 0xFF] {
                let expect_mul: Vec<u8> = src.iter().map(|&s| tables::mul(c, s)).collect();
                if std::arch::is_x86_feature_detected!("ssse3") {
                    let mut dst = buf(len, 31);
                    let base = dst.clone();
                    mul_add_ssse3(c, &src, &mut dst);
                    for i in 0..len {
                        assert_eq!(dst[i], base[i] ^ expect_mul[i], "ssse3 len={len} c={c}");
                    }
                    let mut out = vec![0xAAu8; len];
                    mul_ssse3(c, &src, &mut out);
                    assert_eq!(out, expect_mul);
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut dst = buf(len, 31);
                    let base = dst.clone();
                    mul_add_avx2(c, &src, &mut dst);
                    for i in 0..len {
                        assert_eq!(dst[i], base[i] ^ expect_mul[i], "avx2 len={len} c={c}");
                    }
                    let mut out = vec![0xAAu8; len];
                    mul_avx2(c, &src, &mut out);
                    assert_eq!(out, expect_mul);
                }
            }
        }
    }
}
