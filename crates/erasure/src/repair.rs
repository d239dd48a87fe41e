//! Repair reads and the solver that executes them.
//!
//! The paper's core argument is about *bytes*: recovering one RS-coded block
//! reads and ships `k` whole blocks across racks, and the Piggybacked-RS code
//! reduces that amount by about 30 %. A repair is priced in one currency,
//! the [`ShardRead`] byte ranges a code's read choice names: the store
//! fetches exactly those ranges from disks, and the cluster simulator and
//! the savings reports price a block as the same reads taken at
//! `shard_len = granularity()` ([`ErasureCode::single_loss_reads`]), scaled
//! to the block size.
//!
//! Every code here is linear, so every repair is too: one solver here is
//! the body of every [`ErasureCode::repair_from_reads`], rebuilding a shard
//! from the helper bytes a code's read choice names, whatever the code.

use pbrs_gf::slice_ops;

use crate::params::validate_repair_views;
use crate::views::ShardSet;
use crate::{decode, CodeError, ErasureCode};

/// One contiguous byte range of a helper shard that a repair actually reads.
///
/// Callers that execute repairs against real storage (the `pbrs-store`
/// crate) read exactly the ranges the rebuild consumes instead of whole
/// shards, and every repair cost is the sum of these lengths
/// ([`total_read_bytes`]). Produced by
/// [`crate::ErasureCode::repair_reads_ranked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardRead {
    /// Index of the helper shard within the stripe.
    pub shard: usize,
    /// Byte offset of the range within the shard.
    pub offset: usize,
    /// Length of the range in bytes.
    pub len: usize,
}

impl ShardRead {
    /// A read of the whole shard.
    pub fn whole(shard: usize, shard_len: usize) -> Self {
        ShardRead {
            shard,
            offset: 0,
            len: shard_len,
        }
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// The byte range within the helper shard, ready for slice indexing.
    pub fn range(&self) -> core::ops::Range<usize> {
        self.offset..self.end()
    }
}

/// Total bytes covered by a set of reads.
pub fn total_read_bytes(reads: &[ShardRead]) -> u64 {
    reads.iter().map(|r| r.len as u64).sum()
}

/// Whole-shard reads of the `count` available shards other than `target`
/// with the lowest `rank` (ties broken by shard index), in shard order: the
/// read choice of a code that any `count` survivors decode.
///
/// # Errors
///
/// Returns [`CodeError::NotEnoughShards`] when fewer than `count` shards
/// other than `target` are available.
pub fn lowest_ranked_reads(
    target: usize,
    available: &[bool],
    count: usize,
    shard_len: usize,
    rank: &dyn Fn(usize) -> u64,
) -> Result<Vec<ShardRead>, CodeError> {
    let mut helpers: Vec<usize> = (0..available.len())
        .filter(|&i| available[i] && i != target)
        .collect();
    if helpers.len() < count {
        return Err(CodeError::NotEnoughShards {
            needed: count,
            available: helpers.len(),
        });
    }
    helpers.sort_by_key(|&i| (rank(i), i));
    helpers.truncate(count);
    helpers.sort_unstable();
    Ok(helpers
        .into_iter()
        .map(|shard| ShardRead::whole(shard, shard_len))
        .collect())
}

/// Rebuilds shard `target` of `code` into `out` from exactly the helper
/// bytes `reads` names: the body of every [`ErasureCode::repair_from_reads`].
///
/// A shard of `g = code.granularity()` symbols is `g` equal byte ranges, and
/// symbol `s` of shard `i` is row `i·g + s` of [`ErasureCode::generator`].
/// Each read must name a helper other than `target` and cover whole symbols
/// inside its shard; it contributes the rows of the symbols it covers. One
/// elimination expresses each of the target's `g` rows as a combination of
/// those rows, and each output symbol is then one pass over the helper
/// symbols with a non-zero coefficient. Helper bytes are reached only
/// through validated reads, so a repair cannot read outside its ranges.
///
/// # Errors
///
/// The view errors of [`validate_repair_views`],
/// [`CodeError::InvalidShardIndex`] for a read past the stripe, and
/// [`CodeError::ReconstructionFailed`] for a read of the target, a range
/// that is not whole symbols inside the shard, or reads that do not span
/// the target.
pub(crate) fn repair_from_reads<C: ErasureCode + ?Sized>(
    code: &C,
    target: usize,
    reads: &[ShardRead],
    helpers: &ShardSet<'_>,
    out: &mut [u8],
) -> Result<(), CodeError> {
    let g = code.granularity();
    let shard_len = validate_repair_views(target, helpers, out, code.params(), g)?;
    let n = helpers.shard_count();
    let sym = shard_len / g;
    let mut rows: Vec<usize> = Vec::new();
    for read in reads {
        if read.shard >= n {
            return Err(CodeError::InvalidShardIndex {
                index: read.shard,
                total: n,
            });
        }
        if read.shard == target {
            // The target's rows span themselves: the "rebuild" would copy
            // the stale slot being repaired.
            return Err(CodeError::ReconstructionFailed {
                context: "a repair read may not name the target shard",
            });
        }
        let inside = read
            .offset
            .checked_add(read.len)
            .is_some_and(|end| end <= shard_len);
        if !inside || !read.offset.is_multiple_of(sym) || !read.len.is_multiple_of(sym) {
            return Err(CodeError::ReconstructionFailed {
                context: "a repair read must cover whole symbols inside its shard",
            });
        }
        let first = read.shard * g + read.offset / sym;
        rows.extend(first..first + read.len / sym);
    }
    rows.sort_unstable();
    rows.dedup();
    let generator = code.generator();
    let helper_rows: Vec<&[u8]> = rows.iter().map(|&row| generator.row(row)).collect();
    let target_rows: Vec<&[u8]> = (0..g).map(|s| generator.row(target * g + s)).collect();
    let coeffs = decode::solve_combination(&helper_rows, &target_rows).ok_or(
        CodeError::ReconstructionFailed {
            context: "the reads do not span the target shard",
        },
    )?;
    for (coeffs, out) in coeffs.iter().zip(out.chunks_exact_mut(sym)) {
        let (nonzero, srcs): (Vec<u8>, Vec<&[u8]>) = coeffs
            .iter()
            .zip(&rows)
            .filter(|&(&c, _)| c != 0)
            .map(|(&c, &row)| (c, &helpers.shard(row / g)[(row % g) * sym..][..sym]))
            .unzip();
        slice_ops::linear_combination_into(&nonzero, srcs, out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReedSolomon, ShardBuffer};

    /// An encoded `(k, r)` RS stripe of `len`-byte shards.
    fn rs_stripe(k: usize, r: usize, len: usize) -> (ReedSolomon, ShardBuffer) {
        let rs = ReedSolomon::new(k, r).unwrap();
        let mut stripe = ShardBuffer::zeroed(k + r, len);
        for i in 0..k {
            for (j, byte) in stripe.shard_mut(i).iter_mut().enumerate() {
                *byte = (i * 11 + j * 7 + 3) as u8;
            }
        }
        let (data, mut parity) = stripe.split_mut(k);
        rs.encode_into(&data, &mut parity).unwrap();
        (rs, stripe)
    }

    /// Rebuilds `target` from only `reads`, every other byte garbage.
    fn solve(
        rs: &ReedSolomon,
        stripe: &ShardBuffer,
        target: usize,
        reads: &[ShardRead],
    ) -> Result<Vec<u8>, CodeError> {
        let mut sparse = ShardBuffer::zeroed(stripe.shard_count(), stripe.shard_len());
        for i in 0..stripe.shard_count() {
            sparse.shard_mut(i).fill(0xA5);
        }
        let inside = |r: &&ShardRead| {
            r.offset
                .checked_add(r.len)
                .is_some_and(|end| end <= stripe.shard_len())
        };
        for read in reads.iter().filter(inside) {
            sparse.shard_mut(read.shard)[read.range()]
                .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
        }
        let mut out = vec![0u8; stripe.shard_len()];
        repair_from_reads(rs, target, reads, &sparse.as_set(), &mut out).map(|()| out)
    }

    #[test]
    fn solver_rebuilds_any_single_shard() {
        let (rs, stripe) = rs_stripe(5, 3, 24);
        for target in 0..8 {
            // The k shards after the target, wrapping: never the code's own
            // first-k choice for every target.
            let reads: Vec<ShardRead> = (1..=5)
                .map(|d| ShardRead::whole((target + d) % 8, 24))
                .collect();
            let rebuilt = solve(&rs, &stripe, target, &reads).unwrap();
            assert_eq!(rebuilt, stripe.shard(target), "target {target}");
        }
    }

    #[test]
    fn solver_rebuilds_a_data_shard_through_parity() {
        // Data shard 0 from the other four data shards and the first parity:
        // the parity row is the only one that reaches shard 0.
        let (rs, stripe) = rs_stripe(5, 2, 16);
        let reads: Vec<ShardRead> = (1..6).map(|s| ShardRead::whole(s, 16)).collect();
        assert_eq!(solve(&rs, &stripe, 0, &reads).unwrap(), stripe.shard(0));
    }

    #[test]
    fn solver_refuses_reads_that_do_not_span_the_target() {
        let (rs, stripe) = rs_stripe(3, 2, 8);
        for helpers in [&[][..], &[1, 2], &[1, 3], &[3, 4]] {
            let reads: Vec<ShardRead> = helpers.iter().map(|&s| ShardRead::whole(s, 8)).collect();
            assert!(
                matches!(
                    solve(&rs, &stripe, 0, &reads),
                    Err(CodeError::ReconstructionFailed { .. })
                ),
                "helpers {helpers:?}"
            );
        }
    }

    #[test]
    fn solver_refuses_partial_symbol_ranges() {
        let (rs, stripe) = rs_stripe(4, 2, 8);
        let whole: Vec<ShardRead> = (1..5).map(|s| ShardRead::whole(s, 8)).collect();
        assert_eq!(solve(&rs, &stripe, 0, &whole).unwrap(), stripe.shard(0));
        // RS has one symbol per shard: a half read, a range past the shard
        // end and an overflowing one are all refused, never read.
        for bad in [(0, 4), (4, 4), (8, 8), (usize::MAX, 2)] {
            let mut reads = whole.clone();
            reads[2] = ShardRead {
                shard: 3,
                offset: bad.0,
                len: bad.1,
            };
            assert!(
                matches!(
                    solve(&rs, &stripe, 0, &reads),
                    Err(CodeError::ReconstructionFailed { .. })
                ),
                "range {bad:?}"
            );
        }
    }
}
