//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), implemented
//! in-crate so chunk checksumming needs no external dependency.
//!
//! The hot loop is *slicing-by-8*: eight 256-entry tables, built at
//! compile time, let one iteration fold eight input bytes into the state
//! with eight independent lookups instead of eight dependent ones. Every
//! chunk read, write and verify checksums its whole payload, so this loop
//! is what a chunk round trip mostly spends its CPU on. The checksum
//! itself is unchanged — same polynomial, same on-disk and header CRCs.

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

/// A streaming CRC-32 hasher.
///
/// # Example
///
/// ```
/// use pbrs_store::crc32::{crc32, Crc32};
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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
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
    /// reference the fast path is checked against.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &byte| {
            (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
        })
    }

    fn bytewise_crc32(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn every_short_length_and_start_matches_the_bytewise_oracle() {
        // Lengths 0–15 cover the empty input, a tail with no block, exactly
        // one block, and one block plus every tail; the start offset moves
        // the slice across every alignment of the backing buffer.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 73 + 5) as u8).collect();
        for start in 0..16 {
            for len in 0..16 {
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
        fn slicing_matches_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            start in 0usize..9,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32(data), bytewise_crc32(data));
            // Arbitrary `update` split points: the stream must not care
            // where a block boundary falls relative to a call boundary.
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| usize::from(c) % (data.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut hasher = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                hasher.update(&data[at..cut]);
                at = cut;
            }
            hasher.update(&data[at..]);
            prop_assert_eq!(hasher.finish(), bytewise_crc32(data));
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
        let mut data = vec![0x5Au8; 512];
        let clean = crc32(&data);
        for bit in [0usize, 7, 2048, 4095] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
