//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`): the checksum
//! every chunk file carries over its header and over each payload half.
//!
//! A CRC is the remainder of the message, read as a polynomial over GF(2),
//! modulo a fixed generator. That is why it lives beside the GF(2^8)
//! kernels and follows the same once-per-process [`backend`](crate::backend) choice. Two
//! kernels advance the same raw state, so a stream may pass from one to
//! the other at any byte:
//!
//! * **slicing-by-8** (portable): eight 256-entry tables, built at compile
//!   time, fold eight input bytes into the state with eight independent
//!   lookups instead of eight dependent ones. It is the whole kernel under
//!   the `scalar` and `swar` backends, off x86-64 and under Miri, and it
//!   finishes every input the fold leaves over.
//! * **carry-less-multiply fold** (x86-64): under the `ssse3` and `avx2`
//!   backends, on a CPU with PCLMULQDQ and SSE4.1, an input of at least 64
//!   bytes has its 16-byte-multiple body folded 64 bytes per step (see
//!   `simd.rs`); the tail of under 16 bytes goes through the tables. It
//!   runs about sixteen times as fast as slicing-by-8 (the `crc32` rows of
//!   `BENCH_gf_kernels.json`).
//!
//! Both compute the same checksum: same polynomial, same on-disk and
//! header CRCs, so every chunk file ever written stays readable.

/// Builds the slicing tables at compile time. `TABLES[0]` is the classic
/// reflected byte table; `TABLES[j][b]` is the CRC state after byte `b`
/// followed by `j` zero bytes, which is what lets eight bytes be folded at
/// once.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The shortest input the fold takes: its four 16-byte accumulators start
/// out loaded with the first 64 bytes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_LEN: usize = 64;

/// Whether the CPU has what the carry-less-multiply fold needs.
#[cfg(target_arch = "x86_64")]
fn clmul_supported() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Whether [`Crc32::update`] folds with carry-less multiplies: only under a
/// SIMD [`backend`](crate::backend), so pinning `PBRS_GF_BACKEND=scalar|swar` runs the
/// portable CRC too.
fn fold_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use crate::backend::{self, Backend};
        matches!(backend::active(), Backend::Ssse3 | Backend::Avx2) && clmul_supported()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel [`Crc32::update`] runs on inputs of 64 bytes or more in this
/// process: `"clmul"` (the carry-less-multiply fold) or `"portable"`
/// (slicing-by-8).
pub fn kernel_name() -> &'static str {
    if fold_enabled() {
        "clmul"
    } else {
        "portable"
    }
}

/// Slicing-by-8: advances the raw (inverted) state `crc` over `data`.
fn slicing_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// A streaming CRC-32 hasher.
///
/// # Example
///
/// ```
/// use pbrs_gf::crc32::{crc32, Crc32};
///
/// let mut hasher = Crc32::new();
/// hasher.update(b"12345");
/// hasher.update(b"6789");
/// assert_eq!(hasher.finish(), crc32(b"123456789"));
/// assert_eq!(hasher.finish(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let data = if data.len() >= FOLD_MIN_LEN && fold_enabled() {
            let (blocks, tail) = data.as_chunks::<16>();
            self.state = crate::simd::crc32_fold(self.state, blocks);
            tail
        } else {
            data
        };
        self.state = slicing_by_8(self.state, data);
    }

    /// The checksum of everything fed so far (does not consume the hasher;
    /// further updates continue the stream).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the slicing tables replaced, kept as the
    /// reference both fast paths are checked against.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &byte| {
            (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
        })
    }

    fn bytewise_crc32(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Up to 256 KiB: four 64 KiB `verify_chunk` buffers. Miri interprets
    /// every byte, so it gets short inputs.
    const MAX_LEN: usize = if cfg!(miri) { 1024 } else { 256 * 1024 };

    #[test]
    fn every_short_length_and_start_matches_the_bytewise_oracle() {
        // Lengths 0–15 cover the empty input, a tail with no block, exactly
        // one block, and one block plus every tail; 56–99 cross the fold's
        // 64-byte threshold with every 16-byte tail. The start offset moves
        // the slice across every alignment of the backing buffer.
        let data: Vec<u8> = (0..128u32).map(|i| (i * 73 + 5) as u8).collect();
        for start in 0..16 {
            for len in (0..16).chain(56..100) {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    bytewise_crc32(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dispatched_slicing_and_fold_match_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN),
            start in 0usize..16,
            cuts in proptest::collection::vec(any::<u32>(), 0..6),
        ) {
            let data = &data[start.min(data.len())..];
            let expect = bytewise_crc32(data);
            prop_assert_eq!(crc32(data), expect);
            prop_assert_eq!(slicing_by_8(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF, expect);
            // The fold itself, whichever backend this process is pinned to.
            #[cfg(target_arch = "x86_64")]
            if clmul_supported() && data.len() >= FOLD_MIN_LEN {
                let (blocks, tail) = data.as_chunks::<16>();
                let state = crate::simd::crc32_fold(0xFFFF_FFFF, blocks);
                prop_assert_eq!(slicing_by_8(state, tail) ^ 0xFFFF_FFFF, expect);
            }
            // Arbitrary `update` split points: the stream must not care
            // where a block boundary, or a hand-off between the fold and
            // the tables, falls relative to a call boundary.
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (data.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut hasher = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                hasher.update(&data[at..cut]);
                at = cut;
            }
            hasher.update(&data[at..]);
            prop_assert_eq!(hasher.finish(), expect);
        }
    }

    #[test]
    fn known_vectors() {
        // The standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 9_999, 5_000, 37] {
            let mut hasher = Crc32::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finish(), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // 64 KiB, the size of a chunk half: long enough for the fold.
        let mut data = vec![0x5Au8; 64 * 1024];
        let clean = crc32(&data);
        let bits = data.len() * 8;
        for bit in [0usize, 7, 2048, 4095, bits / 2, bits - 129, bits - 1] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
