//! Repair reads: the planner that chooses them and the solver that
//! executes them.
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
//! Every code here is linear, so every repair is too: one planner here,
//! a table of minimum read sets searched once in each generator, chooses
//! the reads of every [`ErasureCode::repair_reads_ranked`], and one solver
//! is the body of every [`ErasureCode::repair_from_reads`], rebuilding a
//! shard from the helper bytes those reads name, whatever the code.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

use pbrs_gf::{slice_ops, Matrix};

use crate::decode;
use crate::params::validate_repair_views;
use crate::views::ShardSet;
use crate::{CodeError, ErasureCode};

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

/// Whole-shard reads of available shards other than `target`, taken in
/// `(rank, index)` order: each shard that adds rank to the symbol rows
/// taken before it is kept, until they span the data. For an MDS code
/// those are the `k` lowest-ranked shards. In shard order.
///
/// # Errors
///
/// [`CodeError::NotEnoughShards`] when fewer than `k` shards are available,
/// and [`CodeError::ReconstructionFailed`] when the available shards of a
/// non-MDS code do not span the data.
pub(crate) fn whole_shard_reads(
    generator: &Matrix,
    g: usize,
    target: usize,
    available: &[bool],
    shard_len: usize,
    rank: &dyn Fn(usize) -> u64,
) -> Result<Vec<ShardRead>, CodeError> {
    let k = generator.cols() / g;
    let mut helpers: Vec<usize> = (0..available.len())
        .filter(|&i| available[i] && i != target)
        .collect();
    if helpers.len() < k {
        return Err(CodeError::NotEnoughShards {
            needed: k,
            available: helpers.len(),
        });
    }
    helpers.sort_by_key(|&i| (rank(i), i));
    let rows: Vec<usize> = helpers.iter().flat_map(|&i| i * g..(i + 1) * g).collect();
    let mut shards: Vec<usize> = decode::select_independent_rows(generator, &rows)
        .ok_or(CodeError::ReconstructionFailed {
            context: "surviving shards do not span the data",
        })?
        .into_iter()
        .map(|row| row / g)
        .collect();
    shards.sort_unstable();
    shards.dedup();
    Ok(shards
        .into_iter()
        .map(|shard| ShardRead::whole(shard, shard_len))
        .collect())
}

/// The plans of shard `target` ([`target_plans`]) of the code whose
/// symbol-level generator is `generator`, `g` symbols per shard: sets of
/// symbol rows, each sorted. Each target's plans are searched once per
/// process, on its first repair, outside the lock: every store opens a
/// code of its own, and a piggyback-10-4 table takes tens of milliseconds
/// (a large code's parity, up to a second), so only the first repair of a
/// kind pays for it and no other repair waits on it.
pub(crate) fn plans(generator: &Matrix, g: usize, target: usize) -> Arc<Plans> {
    // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
    let tables = PLANS.lock().expect("lock");
    let known = tables
        .get(&g)
        .and_then(|by_generator| by_generator.get(generator))
        .and_then(|row| row[target].clone());
    drop(tables);
    if let Some(plans) = known {
        return plans;
    }
    let plans = Arc::new(target_plans(generator, g, target));
    // pbrs-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
    let mut tables = PLANS.lock().expect("lock");
    let row = tables
        .entry(g)
        .or_default()
        .entry(generator.clone())
        .or_insert_with(|| vec![None; generator.rows() / g]);
    Arc::clone(row[target].get_or_insert(plans))
}

/// One target's plans: sets of symbol rows, each sorted.
pub(crate) type Plans = Vec<Vec<usize>>;

/// Every target's [`plans`] searched in this process.
static PLANS: LazyLock<Mutex<PlanTables>> = LazyLock::new(Mutex::default);

/// [`plans`]' memo: by symbols per shard, then generator, then target.
type PlanTables = HashMap<usize, HashMap<Matrix, Vec<Option<Arc<Plans>>>>>;

/// The minimum read sets of shard `target` cheaper than `k` whole shards,
/// found by search ([`decode::minimal_spanning_sets`]) over `generator`,
/// the symbol-level generator of a code with `g` symbols per shard. Row
/// `i·g + s` is symbol `s` of shard `i`, so a plan's rows are its reads
/// ([`cheapest_plan`] turns them into byte ranges).
///
/// Every plan holds a seed: a basis, taken greedily in row order, of the
/// other shards' rows that are zero on every symbol-0 column, plus a
/// minimum set of the other rows that, with the seed, spans the target's
/// `g` rows. For `g = 1` the seed is empty. For Piggybacked-RS it is the
/// data b-halves, plus the clean parity's b-half for a data target: the
/// b-substripe a repair reads anyway, so the search runs over a-parts.
fn target_plans(generator: &Matrix, g: usize, target: usize) -> Vec<Vec<usize>> {
    let others = (0..generator.rows()).filter(|row| row / g != target);
    let quiet: Vec<usize> = others
        .clone()
        .filter(|&row| generator.row(row).iter().step_by(g).all(|&x| x == 0))
        .collect();
    let seed = decode::independent_rows(generator, &quiet);
    let candidates: Vec<usize> = others.filter(|row| !seed.contains(row)).collect();
    let rows = |rows: &[usize]| -> Vec<&[u8]> { rows.iter().map(|&r| generator.row(r)).collect() };
    let targets: Vec<usize> = (target * g..(target + 1) * g).collect();
    decode::minimal_spanning_sets(&rows(&seed), &rows(&candidates), &rows(&targets))
        .into_iter()
        .filter(|chosen| seed.len() + chosen.len() < generator.cols())
        .map(|chosen| {
            let mut plan = seed.clone();
            plan.extend(chosen.iter().map(|&c| candidates[c]));
            plan.sort_unstable();
            plan
        })
        .collect()
}

/// The cheapest of `plans` (symbol-row sets of [`target_plans`],
/// `g` symbols per shard) whose shards are all `available`, as reads of
/// `shard_len`-byte shards: a shard read in all its symbols is read whole.
/// Cheapest means the fewest bytes on shards of non-zero `rank` (not
/// already at hand), then the least `Σ rank × bytes`, then the first plan
/// in the table's order, which is shard order. `None` when no plan is
/// available.
pub(crate) fn cheapest_plan(
    plans: &[Vec<usize>],
    g: usize,
    available: &[bool],
    shard_len: usize,
    rank: &dyn Fn(usize) -> u64,
) -> Option<Vec<ShardRead>> {
    let sym = shard_len / g;
    plans
        .iter()
        .filter(|plan| plan.iter().all(|&row| available[row / g]))
        .min_by_key(|plan| {
            plan.iter().fold((0u64, 0u64), |(fetched, weighted), &row| {
                let rank = rank(row / g);
                let bytes = sym as u64;
                (
                    fetched + u64::from(rank > 0) * bytes,
                    weighted + rank * bytes,
                )
            })
        })
        .map(|plan| {
            let mut reads: Vec<ShardRead> = Vec::with_capacity(plan.len());
            for &row in plan {
                let (shard, offset) = (row / g, (row % g) * sym);
                match reads.last_mut() {
                    Some(last) if last.shard == shard && last.end() == offset => last.len += sym,
                    _ => reads.push(ShardRead {
                        shard,
                        offset,
                        len: sym,
                    }),
                }
            }
            reads
        })
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
