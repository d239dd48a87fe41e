//! The paper's toy example (Fig. 4 / Example 1).
//!
//! Two data units `{a1, a2}` and `{b1, b2}` are encoded with a `(k = 2,
//! r = 2)` RS code, and `a1` is added onto the second parity of the second
//! substripe. Node 1 can then be recovered by downloading `b2`, `(b1 + b2)`
//! and `(b1 + 2·b2 + a1)` — three bytes instead of the four an RS code would
//! need — while the code still tolerates any two node failures and uses no
//! extra storage.

use pbrs_erasure::{CodeError, CodeParams};

use crate::code::PiggybackedRs;
use crate::design::PiggybackDesign;

/// Builds the `(2, 2)` piggybacked code of the paper's Example 1: only the
/// first data shard is piggybacked, onto the second parity.
///
/// # Panics
///
/// Never panics; the construction is statically valid.
pub fn toy_example() -> PiggybackedRs {
    // pbrs-lint: allow(panic-hygiene) -- documented never-panics wrapper; the constants are statically valid
    try_toy_example().expect("the paper's toy example parameters are always valid")
}

/// Fallible variant of [`toy_example`] for callers that prefer a `Result`.
///
/// # Errors
///
/// Never fails in practice; present for API symmetry.
pub fn try_toy_example() -> Result<PiggybackedRs, CodeError> {
    let params = CodeParams::new(2, 2)?;
    let design = PiggybackDesign::from_groups(params, vec![vec![0]])?;
    PiggybackedRs::with_design(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbrs_erasure::{total_read_bytes, ErasureCode, ShardBuffer};

    /// Encodes the two data shards of a toy stripe into all four shards.
    fn encode(code: &PiggybackedRs, data: [[u8; 2]; 2]) -> ShardBuffer {
        let mut stripe = ShardBuffer::zeroed(4, 2);
        stripe.shard_mut(0).copy_from_slice(&data[0]);
        stripe.shard_mut(1).copy_from_slice(&data[1]);
        let (data, mut parity) = stripe.split_mut(2);
        code.encode_into(&data, &mut parity).unwrap();
        stripe
    }

    /// Rebuilds `target` from only the bytes its `repair_reads` name and
    /// returns the shard and the bytes read.
    fn repair(code: &PiggybackedRs, all: &ShardBuffer, target: usize) -> (Vec<u8>, u64) {
        let mut available = [true; 4];
        available[target] = false;
        let reads = code.repair_reads(target, &available, 2).unwrap();
        let mut helpers = ShardBuffer::zeroed(4, 2);
        for i in 0..4 {
            helpers.shard_mut(i).fill(0xEE);
        }
        for read in &reads {
            helpers.shard_mut(read.shard)[read.range()]
                .copy_from_slice(&all.shard(read.shard)[read.range()]);
        }
        let mut out = vec![0u8; 2];
        code.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
            .unwrap();
        (out, pbrs_erasure::total_read_bytes(&reads))
    }

    /// Encode exactly the stripe drawn in Fig. 4 of the paper, with one byte
    /// per substripe symbol, and check the stored symbols and the 3-byte
    /// recovery of node 1.
    #[test]
    fn figure_4_recovery_downloads_three_bytes_instead_of_four() {
        let code = toy_example();
        // One byte per substripe symbol -> each shard is [a_i, b_i].
        let a = [17u8, 203u8];
        let b = [99u8, 45u8];
        let data = [[a[0], b[0]], [a[1], b[1]]];
        let all = encode(&code, data);
        let parity = [all.shard(2), all.shard(3)];

        // The inner RS code is systematic with some parity coefficients
        // f_1, f_2; what matters for the example is the structure:
        // parity 0 = (f_1(a), f_1(b)) untouched, parity 1 = (f_2(a), f_2(b)+a1).
        let rs = code.inner_rs();
        let f = |row: &[u8], x: &[u8; 2]| -> u8 {
            pbrs_gf::tables::mul(row[0], x[0]) ^ pbrs_gf::tables::mul(row[1], x[1])
        };
        let p1 = rs.parity_row(0).to_vec();
        let p2 = rs.parity_row(1).to_vec();
        assert_eq!(parity[0], [f(&p1, &a), f(&p1, &b)]);
        assert_eq!(parity[1], [f(&p2, &a), f(&p2, &b) ^ a[0]]);

        // Recover node 1 (shard 0): the repair reads download 3 bytes —
        // b2 from node 2, the clean parity's b-half, and the piggybacked
        // parity's b-half.
        let reads = code.repair_reads(0, &[false, true, true, true], 2).unwrap();
        assert_eq!(reads.len(), 3);
        assert!(reads.iter().all(|r| r.len == 1), "half of each helper");
        assert_eq!(total_read_bytes(&reads), 3, "3 bytes instead of 4");

        assert_eq!(repair(&code, &all, 0), (data[0].to_vec(), 3));

        // The second data node is not piggybacked, so its recovery costs the
        // full 4 bytes, exactly as under RS.
        assert_eq!(repair(&code, &all, 1), (data[1].to_vec(), 4));
    }

    /// "One can easily verify that this code can tolerate the failure of any
    /// 2 of the 4 nodes" — verify it exhaustively.
    #[test]
    fn tolerates_any_two_of_four_failures() {
        let code = toy_example();
        let all = encode(&code, [[1, 2], [3, 4]]);
        for i in 0..4 {
            for j in 0..4 {
                let mut stripe = all.clone();
                let mut present = [true; 4];
                for lost in [i, j] {
                    present[lost] = false;
                    stripe.shard_mut(lost).fill(0xEE);
                }
                code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
                    .unwrap();
                assert_eq!(stripe, all, "failures ({i},{j})");
            }
        }
    }

    #[test]
    fn no_additional_storage_is_used() {
        let code = toy_example();
        let rs = pbrs_erasure::ReedSolomon::new(2, 2).unwrap();
        assert_eq!(code.storage_overhead(), rs.storage_overhead());
        // Same number of parity shards, same shard sizes: two data shards
        // of 2 bytes encode into a 4 x 2-byte stripe.
        let stripe = encode(&code, [[5, 6], [7, 8]]);
        assert_eq!((stripe.shard_count(), stripe.shard_len()), (4, 2));
    }

    #[test]
    fn fallible_constructor_matches() {
        let a = toy_example();
        let b = try_toy_example().unwrap();
        assert_eq!(a.design(), b.design());
        assert_eq!(a.params(), b.params());
    }
}
