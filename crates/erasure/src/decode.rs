//! Generic decoding of linear codes from their generator matrix.
//!
//! Every code in this workspace (Reed–Solomon, LRC, replication and the
//! Piggybacked-RS code) is a linear code over GF(2^8): a shard is `g` equal
//! symbols, symbol `s` of shard `i` equals `G[i·g + s] · d`, where `d` is the
//! vector of `k·g` data symbols and `G` is the code's `n·g × k·g` symbol-level
//! generator matrix (`g = 1` for all but Piggybacked-RS, whose two symbols
//! are its two substripes).
//!
//! Decoding therefore reduces to: pick `k·g` surviving symbols whose
//! generator rows are linearly independent, invert that submatrix, recover
//! the data, and re-encode whatever is missing. This module implements that
//! once so that every code shares the same, well-tested path.

use pbrs_gf::slice_ops;
use pbrs_gf::Matrix;

use crate::views::ShardSetMut;
use crate::CodeError;

/// Selects `k` row indices from `candidates` whose rows in `generator` are
/// linearly independent, preferring earlier candidates.
///
/// Returns `None` when the candidate rows do not span the full data space
/// (possible for non-MDS codes such as LRC under unlucky failure patterns).
pub fn select_independent_rows(generator: &Matrix, candidates: &[usize]) -> Option<Vec<usize>> {
    let k = generator.cols();
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    // The selected rows in echelon form, with their pivots.
    let mut basis: Vec<(usize, Vec<u8>)> = Vec::with_capacity(k);
    for &idx in candidates {
        if selected.len() == k {
            break;
        }
        let mut row = generator.row(idx).to_vec();
        for (pivot, b) in &basis {
            eliminate(&mut row, b, *pivot);
        }
        if let Some(pivot) = normalise(&mut row) {
            basis.push((pivot, row));
            selected.push(idx);
        }
    }
    (selected.len() == k).then_some(selected)
}

/// Reconstructs every missing shard of a linear code *in place*, inside a
/// borrowed shard view, without allocating any shard-sized buffer: the body
/// of every [`crate::ErasureCode::reconstruct_in_place`].
///
/// `shards` holds all `n` shard slots of the stripe; `present[i]` says
/// whether slot `i` currently holds valid bytes. `generator` is the
/// symbol-level generator, `n·g × k·g` with `g` rows per shard: each slot is
/// split into `g` equal symbol slices, symbol `s` of shard `i` being row
/// `i·g + s`. One `k·g × k·g` inversion over independent surviving symbol
/// rows gives every missing symbol as a combination of those survivors
/// (`O((k·g)²)` bookkeeping — nothing proportional to the shard length is
/// allocated), and one multi-output pass writes them all. Present slots are
/// never written, and nothing is written unless the decode succeeds.
///
/// # Errors
///
/// * [`CodeError::NotEnoughShards`] if fewer than `k` shards survive,
///   counted in shards, not symbols.
/// * [`CodeError::ReconstructionFailed`] if the surviving rows do not span
///   the data space (only possible for non-MDS generators).
/// * [`CodeError::Matrix`] if inversion fails unexpectedly.
pub fn reconstruct_linear_in_place(
    generator: &Matrix,
    shards: &mut ShardSetMut<'_>,
    present: &[bool],
) -> Result<(), CodeError> {
    let n = present.len();
    let g = generator.rows() / n;
    let k = generator.cols() / g;
    debug_assert_eq!(shards.shard_count(), n, "caller validates shard count");
    debug_assert_eq!(generator.rows(), n * g, "g generator rows per shard");
    debug_assert!(shards.shard_len().is_multiple_of(g), "caller aligns shards");

    let survivors = present.iter().filter(|&&ok| ok).count();
    if survivors == n {
        return Ok(());
    }
    if survivors < k {
        return Err(CodeError::NotEnoughShards {
            needed: k,
            available: survivors,
        });
    }
    let rows_of = |want: bool| -> Vec<usize> {
        (0..n)
            .filter(|&i| present[i] == want)
            .flat_map(|i| i * g..(i + 1) * g)
            .collect()
    };
    let (present_rows, missing_rows) = (rows_of(true), rows_of(false));

    // Fast path: all data shards survive, so every missing shard is a parity
    // and is re-encoded straight from the data symbols, which lead the
    // survivors. Otherwise shard_i = row_i · data and data = inv · selected,
    // so shard_i = (row_i · inv) · selected: one coefficient row per missing
    // symbol over the selected survivors.
    let missing = generator.submatrix_rows(&missing_rows)?;
    let (coeffs, selected): (Matrix, Vec<usize>) = if (0..k).all(|i| present[i]) {
        (missing, (0..k * g).collect())
    } else {
        let rows = select_independent_rows(generator, &present_rows).ok_or(
            CodeError::ReconstructionFailed {
                context: "surviving shards do not span the data",
            },
        )?;
        let inv = generator.submatrix_rows(&rows)?.inverted()?;
        // Each selected row's position among the present rows, which are in
        // index order like the survivor symbols below.
        let positions = rows
            .iter()
            .map(|row| {
                present_rows
                    .binary_search(row)
                    // pbrs-lint: allow(panic-hygiene) -- selected rows come from present_rows itself
                    .expect("selected rows are present")
            })
            .collect();
        (missing.multiply(&inv)?, positions)
    };

    let sym = shards.shard_len() / g;
    let missing_mask: Vec<bool> = present.iter().map(|&ok| !ok).collect();
    let (outs, survivors) = shards.split_parts_mut(&missing_mask);
    let mut outs: Vec<&mut [u8]> = outs
        .into_iter()
        .flat_map(|shard| shard.chunks_exact_mut(sym))
        .collect();
    let symbols: Vec<&[u8]> = survivors
        .into_iter()
        .flat_map(|shard| shard.chunks_exact(sym))
        .collect();
    let srcs: Vec<&[u8]> = selected.iter().map(|&p| symbols[p]).collect();
    let row_refs: Vec<&[u8]> = (0..coeffs.rows()).map(|i| coeffs.row(i)).collect();
    slice_ops::matrix_mul_into(&row_refs, &srcs, &mut outs);
    Ok(())
}

/// Finds, for each target row `t`, coefficients `c` such that
/// `Σ_i c[i] * rows[i] == t`, i.e. expresses each target symbol's generator
/// row as a linear combination of the helper symbols' generator rows. All
/// targets share one Gauss–Jordan elimination.
///
/// Returns `None` when any target row is not in the span of `rows`. Free
/// variables are set to zero, so helpers that are not needed receive a zero
/// coefficient.
pub fn solve_combination(rows: &[&[u8]], targets: &[&[u8]]) -> Option<Vec<Vec<u8>>> {
    let m = rows.len();
    let t = targets.len();
    let Some(k) = targets.first().map(|row| row.len()) else {
        return Some(Vec::new());
    };
    debug_assert!(rows.iter().chain(targets).all(|r| r.len() == k));
    // Solve A^T c = t where A^T is k×m: one equation per data symbol.
    // Build the augmented matrix [A^T | t_0 .. t_{t-1}] and run Gauss-Jordan.
    let mut aug = Matrix::zero(k, m + t);
    for (j, row) in rows.iter().chain(targets).enumerate() {
        for (i, &v) in row.iter().enumerate() {
            aug.set(i, j, v);
        }
    }
    let mut pivot_col_of_row: Vec<Option<usize>> = vec![None; k];
    let mut pivot_row = 0usize;
    for col in 0..m {
        if pivot_row == k {
            break;
        }
        let Some(p) = (pivot_row..k).find(|&r| aug.get(r, col) != 0) else {
            continue;
        };
        aug.swap_rows(pivot_row, p);
        // pbrs-lint: allow(panic-hygiene) -- pivot was chosen as a non-zero entry by the search above
        let inv = pbrs_gf::tables::inverse(aug.get(pivot_row, col)).expect("pivot non-zero");
        for c in col..m + t {
            aug.set(
                pivot_row,
                c,
                pbrs_gf::tables::mul(aug.get(pivot_row, c), inv),
            );
        }
        for r in 0..k {
            if r != pivot_row && aug.get(r, col) != 0 {
                let factor = aug.get(r, col);
                for c in col..m + t {
                    let v = aug.get(r, c) ^ pbrs_gf::tables::mul(factor, aug.get(pivot_row, c));
                    aug.set(r, c, v);
                }
            }
        }
        pivot_col_of_row[pivot_row] = Some(col);
        pivot_row += 1;
    }
    // Rows below the last pivot have an all-zero left side: a non-zero
    // right side there means that target is out of reach.
    if (pivot_row..k).any(|r| (m..m + t).any(|c| aug.get(r, c) != 0)) {
        return None;
    }
    Some(
        (m..m + t)
            .map(|rhs| {
                let mut coeffs = vec![0u8; m];
                for (r, pivot) in pivot_col_of_row.iter().enumerate() {
                    if let Some(col) = *pivot {
                        coeffs[col] = aug.get(r, rhs);
                    }
                }
                coeffs
            })
            .collect(),
    )
}

/// `v -= v[pivot] · row`, for a `row` that is 1 at `pivot`: clears `v` at
/// the pivot.
fn eliminate(v: &mut [u8], row: &[u8], pivot: usize) {
    let f = v[pivot];
    if f != 0 {
        for (x, &r) in v.iter_mut().zip(row) {
            *x ^= pbrs_gf::tables::mul(f, r);
        }
    }
}

/// Scales `v` to 1 at its first non-zero entry and returns that entry's
/// index, the pivot; `None` for the zero vector.
fn normalise(v: &mut [u8]) -> Option<usize> {
    let pivot = v.iter().position(|&x| x != 0)?;
    // pbrs-lint: allow(panic-hygiene) -- the pivot was chosen non-zero
    let inv = pbrs_gf::tables::inverse(v[pivot]).expect("pivot non-zero");
    for x in v.iter_mut() {
        *x = pbrs_gf::tables::mul(*x, inv);
    }
    Some(pivot)
}

/// Brings the `dim`-byte rows of `rows` to echelon form in place, the
/// independent ones first, and returns how many there are: their rank.
fn echelon(rows: &mut [u8], dim: usize) -> usize {
    let mut kept = 0;
    for j in 0..rows.len() / dim {
        let (done, rest) = rows.split_at_mut(j * dim);
        let row = &mut rest[..dim];
        for prev in done[..kept * dim].chunks_exact(dim) {
            if let Some(pivot) = prev.iter().position(|&x| x != 0) {
                eliminate(row, prev, pivot);
            }
        }
        if normalise(row).is_some() {
            rows.copy_within(j * dim..(j + 1) * dim, kept * dim);
            kept += 1;
        }
    }
    kept
}

/// Every minimum-size subset of `candidates` whose rows, together with all
/// of the `seed` rows, span every row of `targets`: when all candidates cost
/// the same, the cheapest ways to add to the seed so that a repair can solve
/// for the targets. Each subset lists candidate indices in ascending order,
/// and the subsets come in lexicographic order. The answer is empty when
/// even every candidate together falls short, and `[[]]` when the seed
/// alone suffices. It is empty too when the search runs out of its budget
/// of about a million subsets: what it found so far may not be minimal.
///
/// The seed is factored out first: every candidate and target is reduced
/// against the seed's span, so the search runs in the quotient space (a
/// Piggybacked-RS parity, seeded with every data b-half, sees each other
/// half-chunk through its `k`-long a-part). A depth-first search then grows
/// independent subsets only — a minimum subset never holds a dependent row
/// — and cuts a branch once its size plus the rank the targets still lack
/// exceeds the best size found.
pub fn minimal_spanning_sets(
    seed: &[&[u8]],
    candidates: &[&[u8]],
    targets: &[&[u8]],
) -> Vec<Vec<usize>> {
    // The seed in reduced echelon form: each row is zero at every other
    // row's pivot, so a reduced vector is zero at all of them.
    let mut seed_basis: Vec<(usize, Vec<u8>)> = Vec::new();
    for row in seed {
        let mut v = row.to_vec();
        for (pivot, prev) in &seed_basis {
            eliminate(&mut v, prev, *pivot);
        }
        if let Some(pivot) = normalise(&mut v) {
            for (_, prev) in &mut seed_basis {
                eliminate(prev, &v, pivot);
            }
            seed_basis.push((pivot, v));
        }
    }
    let project = |row: &&[u8]| -> Vec<u8> {
        let mut v = row.to_vec();
        for (pivot, prev) in &seed_basis {
            eliminate(&mut v, prev, *pivot);
        }
        v.iter()
            .enumerate()
            .filter(|(c, _)| !seed_basis.iter().any(|(p, _)| p == c))
            .map(|(_, &x)| x)
            .collect()
    };
    let candidates: Vec<Vec<u8>> = candidates.iter().map(project).collect();
    let dim = targets
        .first()
        .map_or(0, |row| row.len() - seed_basis.len());
    let mut residual: Vec<u8> = targets.iter().flat_map(project).collect();
    let rank = echelon(&mut residual, dim.max(1));
    residual.truncate(rank * dim);
    let mut search = SpanSearch {
        candidates: &candidates,
        dim,
        budget: SEARCH_BUDGET,
        best: candidates.len() + 1,
        found: Vec::new(),
        chosen: Vec::new(),
        basis: Vec::new(),
    };
    search.extend(0, &residual);
    if search.budget == 0 {
        return Vec::new();
    }
    search.found
}

/// How many subsets [`minimal_spanning_sets`] visits before it gives up.
/// A Piggybacked-RS `(10, 4)` parity takes at most about 50,000 and a
/// `(12, 4)` one about 220,000 (a quarter of a second in release); a much
/// larger code would take longer than its repairs are worth, so it keeps
/// its `k`-shard reads instead.
const SEARCH_BUDGET: usize = 1 << 20;

/// The state of [`minimal_spanning_sets`]' depth-first search, in the
/// quotient space of `dim` coordinates.
struct SpanSearch<'a> {
    candidates: &'a [Vec<u8>],
    dim: usize,
    /// Subsets still to visit before the search gives up.
    budget: usize,
    /// The size of the smallest spanning subset found so far (one more than
    /// the number of candidates while there is none).
    best: usize,
    found: Vec<Vec<usize>>,
    /// The subset being grown, and its rows in echelon form with their
    /// pivots (each row zero at the pivots before it).
    chosen: Vec<usize>,
    basis: Vec<(usize, Vec<u8>)>,
}

impl SpanSearch<'_> {
    /// Explores every independent extension of `chosen` by candidates from
    /// `from` on. `residual` is what the targets still lack: their span
    /// reduced against `basis`, in echelon form, one row per missing rank.
    fn extend(&mut self, from: usize, residual: &[u8]) {
        self.budget = self.budget.saturating_sub(1);
        if self.budget == 0 {
            return;
        }
        let lacking = residual.len() / self.dim.max(1);
        if lacking == 0 {
            if self.chosen.len() < self.best {
                self.best = self.chosen.len();
                self.found.clear();
            }
            self.found.push(self.chosen.clone());
            return;
        }
        if self.chosen.len() + lacking > self.best {
            return;
        }
        let mut next = vec![0u8; residual.len()];
        for i in from..self.candidates.len() {
            let mut v = self.candidates[i].clone();
            for (pivot, row) in &self.basis {
                eliminate(&mut v, row, *pivot);
            }
            let Some(pivot) = normalise(&mut v) else {
                continue;
            };
            next.copy_from_slice(residual);
            for row in next.chunks_exact_mut(self.dim) {
                eliminate(row, &v, pivot);
            }
            let lacking = echelon(&mut next, self.dim);
            self.chosen.push(i);
            self.basis.push((pivot, v));
            self.extend(i + 1, &next[..lacking * self.dim]);
            self.basis.pop();
            self.chosen.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardBuffer;
    use pbrs_gf::Matrix;

    /// Builds the systematic generator used by the RS code for testing the
    /// generic machinery in isolation.
    fn systematic_generator(k: usize, r: usize) -> Matrix {
        let v = Matrix::vandermonde(k + r, k);
        let top = v.submatrix(0, 0, k, k).unwrap();
        let inv = top.inverted().unwrap();
        v.multiply(&inv).unwrap()
    }

    fn encode_with(generator: &Matrix, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        (0..generator.rows())
            .map(|i| {
                let mut out = vec![0u8; data[0].len()];
                pbrs_gf::slice_ops::linear_combination(generator.row(i), &refs, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn select_rows_prefers_earlier_candidates() {
        let g = systematic_generator(4, 2);
        let rows = select_independent_rows(&g, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(rows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_rows_skips_dependent_rows() {
        // Duplicate a row in a custom generator: the duplicate must be skipped.
        let mut g = systematic_generator(3, 2);
        let dup = g.row(3).to_vec();
        for (c, v) in dup.iter().enumerate() {
            g.set(4, c, *v);
        }
        let rows = select_independent_rows(&g, &[3, 4, 0, 1, 2]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&3));
        assert!(!rows.contains(&4), "the duplicated row must be skipped");
    }

    #[test]
    fn select_rows_fails_when_span_insufficient() {
        let g = systematic_generator(4, 2);
        assert!(select_independent_rows(&g, &[0, 1, 2]).is_none());
    }

    #[test]
    fn reconstruct_round_trip_all_patterns() {
        let k = 4;
        let r = 3;
        let n = k + r;
        let g = systematic_generator(k, r);
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![(i * 29 + 5) as u8; 24]).collect();
        let all = encode_with(&g, &data);
        let original = ShardBuffer::from_shards(&all).unwrap();

        // Erase every possible subset of up to r shards (exhaustive for n=7);
        // erased slots hold stale garbage, and every slot must come back.
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize > r {
                continue;
            }
            let mut stripe = original.clone();
            let present: Vec<bool> = (0..n).map(|i| mask & (1 << i) == 0).collect();
            for i in (0..n).filter(|&i| !present[i]) {
                stripe.shard_mut(i).fill(0xDD);
            }
            reconstruct_linear_in_place(&g, &mut stripe.as_set_mut(), &present).unwrap();
            assert_eq!(stripe, original, "mask {mask:#b}");
        }
    }

    #[test]
    fn reconstruct_too_many_missing() {
        let g = systematic_generator(4, 2);
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
        let mut stripe = ShardBuffer::from_shards(&encode_with(&g, &data)).unwrap();
        let present = [false, false, false, true, true, true];
        assert!(matches!(
            reconstruct_linear_in_place(&g, &mut stripe.as_set_mut(), &present),
            Err(CodeError::NotEnoughShards {
                needed: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn in_place_reconstruct_too_many_missing() {
        let g = systematic_generator(4, 2);
        let mut buf = vec![0u8; 6 * 8];
        let mut view = ShardSetMut::new(&mut buf, 6, 8).unwrap();
        let present = [true, true, true, false, false, false];
        assert!(matches!(
            reconstruct_linear_in_place(&g, &mut view, &present),
            Err(CodeError::NotEnoughShards {
                needed: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn decode_data_does_not_mutate_input() {
        // A generator whose two parity rows coincide: shards 2, 3, 4 then
        // carry only two independent rows, so the decode must fail — and a
        // failed decode must leave every surviving shard as it found it.
        let mut g = systematic_generator(3, 2);
        let dup = g.row(3).to_vec();
        for (c, v) in dup.iter().enumerate() {
            g.set(4, c, *v);
        }
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 9; 16]).collect();
        let mut stripe = ShardBuffer::from_shards(&encode_with(&g, &data)).unwrap();
        let before = stripe.clone();
        let present = [false, false, true, true, true];
        assert!(matches!(
            reconstruct_linear_in_place(&g, &mut stripe.as_set_mut(), &present),
            Err(CodeError::ReconstructionFailed { .. })
        ));
        assert_eq!(stripe, before);
    }

    #[test]
    fn minimal_spanning_sets_finds_every_smallest_subset() {
        let g = systematic_generator(4, 2);
        let rows = |idx: &[usize]| -> Vec<&[u8]> { idx.iter().map(|&i| g.row(i)).collect() };
        // MDS: any 4 of the other five rows span parity row 4, and no 3 do.
        let sets = minimal_spanning_sets(&[], &rows(&[0, 1, 2, 3, 5]), &rows(&[4]));
        let expect: Vec<Vec<usize>> = (0..5)
            .rev()
            .map(|skip| (0..5).filter(|&i| i != skip).collect())
            .collect();
        assert_eq!(sets, expect);
        // A seed row counts without being chosen: any 3 of the rest.
        let sets = minimal_spanning_sets(&rows(&[0]), &rows(&[1, 2, 3, 5]), &rows(&[4]));
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|set| set.len() == 3));
        // Data row 2 is one of the candidates: the one-row set.
        let sets = minimal_spanning_sets(&rows(&[0]), &rows(&[1, 2, 4]), &rows(&[2]));
        assert_eq!(sets, vec![vec![1]]);
        // The seed alone suffices: the empty set. Out of reach: none.
        assert_eq!(
            minimal_spanning_sets(&rows(&[0, 1]), &rows(&[2]), &rows(&[0, 1])),
            vec![Vec::<usize>::new()]
        );
        assert!(minimal_spanning_sets(&rows(&[0]), &rows(&[1, 2]), &rows(&[3])).is_empty());
    }

    #[test]
    fn minimal_spanning_sets_gives_up_past_its_budget() {
        // Any 20 of the other 39 rows of a (20, 20) MDS code span a parity
        // row, and proving that no 19 do takes far more than the budget.
        let g = systematic_generator(20, 20);
        let others: Vec<&[u8]> = (0..40).filter(|&i| i != 20).map(|i| g.row(i)).collect();
        assert!(minimal_spanning_sets(&[], &others, &[g.row(20)]).is_empty());
    }

    #[test]
    fn solve_combination_expresses_parity_from_data() {
        let g = systematic_generator(4, 2);
        // Parity row 4 is a combination of the four identity rows with its own
        // coefficients.
        let rows: Vec<&[u8]> = (0..4).map(|i| g.row(i)).collect();
        let coeffs = solve_combination(&rows, &[g.row(4), g.row(5)]).unwrap();
        assert_eq!(coeffs, vec![g.row(4).to_vec(), g.row(5).to_vec()]);
    }

    #[test]
    fn solve_combination_detects_unreachable_target() {
        let g = systematic_generator(4, 2);
        // Rows 0..3 cannot produce row 3 alone from rows 0..2.
        let rows: Vec<&[u8]> = (0..3).map(|i| g.row(i)).collect();
        assert!(solve_combination(&rows, &[g.row(3)]).is_none());
        // One unreachable target fails the whole solve.
        assert!(solve_combination(&rows, &[g.row(0), g.row(3)]).is_none());
        // Empty helper set can only produce the zero row.
        assert!(solve_combination(&[], &[g.row(0)]).is_none());
        assert_eq!(
            solve_combination(&[], &[&[0, 0, 0, 0]]),
            Some(vec![Vec::new()])
        );
    }
}
