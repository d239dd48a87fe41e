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
    let rows = independent_rows(generator, candidates);
    (rows.len() == generator.cols()).then_some(rows)
}

/// The `candidates`, in order, whose rows in `generator` are independent of
/// the rows taken before them, until those span the data.
pub(crate) fn independent_rows(generator: &Matrix, candidates: &[usize]) -> Vec<usize> {
    // The taken rows in echelon form, with their pivots.
    let mut basis: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut taken: Vec<usize> = Vec::new();
    for &idx in candidates {
        if basis.len() == generator.cols() {
            break;
        }
        let mut row = generator.row(idx).to_vec();
        for (pivot, b) in &basis {
            eliminate(&mut row, b, *pivot);
        }
        if let Some(pivot) = normalise(&mut row) {
            basis.push((pivot, row));
            taken.push(idx);
        }
    }
    taken
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
/// exceeds the best size found. When the targets lack one dimension (a
/// Piggybacked-RS data shard or clean parity, an LRC shard), the minimum
/// sets are the smallest circuits through the target (`circuits_through`),
/// which come first: they answer when they are quick to find (every data
/// shard of the codes tested, up to a `(40, 5)` Piggybacked-RS and a
/// `(30, 2, 4)` LRC), and otherwise the smallest set they found bounds the
/// depth-first search (an LRC global parity).
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
    // One dimension short: the lightest dependencies answer, or bound the
    // search when they take too long to find.
    let mut best = candidates.len() + 1;
    if rank == 1 {
        match circuits_through(&candidates, &residual, &mut CIRCUIT_BUDGET.clone()) {
            Ok(found) => return found,
            Err(bound) => best = bound,
        }
    }
    let mut search = SpanSearch {
        candidates: &candidates,
        dim,
        budget: SEARCH_BUDGET,
        best,
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

/// Every minimum set of `candidates` whose span holds the one row
/// `target`, which lies in their span; or, when finding them all would
/// take more than the `budget` left, the size of the smallest such set
/// found so far (one more than the number of candidates if none).
///
/// A set spans the target exactly when some dependency `x` among the
/// target and the candidates (`x₀·target + Σ xᵢ·candidateᵢ = 0`) has `x₀ ≠
/// 0` and its support inside the set, so the minimum sets are the supports,
/// less the target, of the lightest such dependencies. The dependencies
/// form a linear code, whose lightest words are found as in the
/// Brouwer–Zimmermann algorithm: the code is written in systematic form on
/// information sets, each taking as many positions as it can that no set
/// before it holds, and for `p = 1, 2, …` every word non-zero at exactly
/// `p` positions of some set is made from `p` rows of that set's form. A
/// word not yet made is non-zero at `p + 1` or more positions of every
/// set, and so at that many, less the set's positions held before, of the
/// positions first held by each set; once those bounds add up to more than
/// the lightest weight found, every lightest word has been made. A
/// `(40, 5)` Piggybacked-RS data shard's 10 of 48 candidates take 45,954
/// words. Sets come in lexicographic order, like
/// [`minimal_spanning_sets`]' own.
fn circuits_through(
    candidates: &[Vec<u8>],
    target: &[u8],
    budget: &mut usize,
) -> Result<Vec<Vec<usize>>, usize> {
    let (dim, m) = (target.len(), candidates.len());
    // Each vector beside its own unit row: a vector that reduces to zero
    // leaves beside it the dependency that cancelled it.
    let mut basis: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut dependencies: Vec<Vec<u8>> = Vec::new();
    for (j, vector) in std::iter::once(target)
        .chain(candidates.iter().map(Vec::as_slice))
        .enumerate()
    {
        let mut row = vector.to_vec();
        row.resize(dim + 1 + m, 0);
        row[dim + j] = 1;
        for (pivot, b) in &basis {
            eliminate(&mut row, b, *pivot);
        }
        if row[..dim].iter().all(|&x| x == 0) {
            dependencies.push(row.split_off(dim));
        } else if let Some(pivot) = normalise(&mut row) {
            basis.push((pivot, row));
        }
    }
    let rank = dependencies.len();
    // The systematic forms, each with how many of its positions are new.
    let mut forms: Vec<(Vec<Vec<u8>>, usize)> = Vec::new();
    let mut held = vec![false; m + 1];
    loop {
        let (mut rows, was) = (dependencies.clone(), held.clone());
        let (mut pivots, mut new) = (0, 0);
        for c in (0..=m)
            .filter(|&c| !was[c])
            .chain((0..=m).filter(|&c| was[c]))
        {
            let Some(p) = (pivots..rank).find(|&i| rows[i][c] != 0) else {
                continue;
            };
            rows.swap(pivots, p);
            // pbrs-lint: allow(panic-hygiene) -- the pivot was chosen non-zero
            let inv = pbrs_gf::tables::inverse(rows[pivots][c]).expect("pivot non-zero");
            rows[pivots]
                .iter_mut()
                .for_each(|x| *x = pbrs_gf::tables::mul(*x, inv));
            let pivot_row = rows[pivots].clone();
            for row in &mut rows {
                eliminate(row, &pivot_row, c);
            }
            rows[pivots] = pivot_row;
            new += usize::from(!was[c]);
            held[c] = true;
            pivots += 1;
        }
        if new == 0 {
            break;
        }
        forms.push((rows, new));
    }
    let mut found: Vec<Vec<usize>> = Vec::new();
    let mut lightest = m + 2;
    // What every word not yet made weighs at least, per form.
    let mut unmade: Vec<usize> = vec![0; forms.len()];
    let words = |p: usize| binomial(rank, p).saturating_mul(255usize.saturating_pow(p as u32 - 1));
    'levels: for p in 1..=rank {
        for (j, (rows, new)) in forms.iter().enumerate() {
            // Past the two cheap levels, give up at once if, were no
            // lighter word found, the words still to make until the bounds
            // pass the lightest would not fit.
            let (mut bounds, mut cost) = (unmade.clone(), 0usize);
            let ahead = (p..=rank).flat_map(|q| (0..forms.len()).map(move |i| (q, i)));
            for (q, i) in ahead.skip(j).take_while(|_| p > 2) {
                if bounds.iter().sum::<usize>() > lightest {
                    break;
                }
                cost = cost.saturating_add(words(q));
                bounds[i] = (q + 1).saturating_sub(rank - forms[i].1);
            }
            if cost.max(words(p)) > *budget {
                return Err(lightest - 1);
            }
            *budget -= words(p);
            combinations(rows, p, 0, &vec![0; m + 1], &mut |x| {
                if x[0] == 0 {
                    return;
                }
                let weight = x.iter().filter(|&&v| v != 0).count();
                if weight < lightest {
                    lightest = weight;
                    found.clear();
                }
                if weight == lightest {
                    found.push((0..m).filter(|&i| x[i + 1] != 0).collect());
                }
            });
            unmade[j] = (p + 1).saturating_sub(rank - new);
            if unmade.iter().sum::<usize>() > lightest {
                break 'levels;
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    Ok(found)
}

/// Calls `visit` with `word` plus every combination of `p` of `rows` from
/// `from` on, with non-zero coefficients, the first of them 1 (from the
/// first call, with `from` 0 and `word` zero): every word of their span non-zero in exactly those rows' pivot
/// positions, up to scale.
fn combinations(
    rows: &[Vec<u8>],
    p: usize,
    from: usize,
    word: &[u8],
    visit: &mut dyn FnMut(&[u8]),
) {
    if p == 0 {
        return visit(word);
    }
    let scales = if from == 0 { 1..=1 } else { 1..=255 };
    let mut next = word.to_vec();
    for i in from..=rows.len() - p {
        for s in scales.clone() {
            for ((n, &w), &r) in next.iter_mut().zip(word).zip(&rows[i]) {
                *n = w ^ pbrs_gf::tables::mul(s, r);
            }
            combinations(rows, p - 1, i + 1, &next, visit);
        }
    }
}

/// `C(n, k)` for `k ≤ n`, saturating.
fn binomial(n: usize, k: usize) -> usize {
    (0..k.min(n.saturating_sub(k))).fold(1usize, |c, i| c.saturating_mul(n - i) / (i + 1))
}

/// How many words [`circuits_through`] makes before it hands over to the
/// depth-first search: a word costs a few dozen byte operations, a subset
/// of the search a few hundred. A `(30, 2, 4)` LRC data shard takes
/// 1,327,317 (its 15 of 35 candidates); an LRC global parity would take
/// more than this, and is left to the depth-first search.
const CIRCUIT_BUDGET: usize = 1 << 22;

/// How many subsets [`minimal_spanning_sets`] visits before it gives up.
/// A Piggybacked-RS `(10, 4)` parity takes at most about 17,000 and a
/// `(12, 4)` one about 67,000; a much larger code (a `(14, 10)` parity)
/// would take longer than its repairs are worth, so it keeps its `k`-shard
/// reads instead.
const SEARCH_BUDGET: usize = 1 << 20;

/// The state of [`minimal_spanning_sets`]' depth-first search, in the
/// quotient space of `dim` coordinates.
struct SpanSearch<'a> {
    candidates: &'a [Vec<u8>],
    dim: usize,
    /// Subsets still to visit before the search gives up.
    budget: usize,
    /// The size of the smallest spanning subset found so far, or the
    /// largest one looked for (one more than the number of candidates
    /// while there is no bound).
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
        // Each pick lowers the lack by at most one: leave enough to pick.
        for i in from..=self.candidates.len().saturating_sub(lacking) {
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
    fn circuits_through_a_row_are_its_minimum_spanning_sets() {
        // An LRC-like generator: 6 data rows, two XOR rows over halves of
        // the data, two RS parity rows. Every minimum set of the other
        // rows that spans each row, by brute force over all subsets.
        let rs = systematic_generator(6, 2);
        let mut g = Matrix::zero(10, 6);
        for i in 0..6 {
            g.set(i, i, 1);
            g.set(6 + i / 3, i, 1);
            for j in 0..2 {
                g.set(8 + j, i, rs.get(6 + j, i));
            }
        }
        for target in 0..10 {
            let others: Vec<Vec<u8>> = (0..10)
                .filter(|&i| i != target)
                .map(|i| g.row(i).to_vec())
                .collect();
            let mut expect: Vec<Vec<usize>> = Vec::new();
            for mask in 0u32..1 << others.len() {
                let set: Vec<usize> = (0..others.len()).filter(|&i| mask >> i & 1 == 1).collect();
                let mut rows: Vec<usize> =
                    set.iter().map(|&i| i + usize::from(i >= target)).collect();
                let rank = independent_rows(&g, &rows).len();
                rows.push(target);
                if independent_rows(&g, &rows).len() > rank || rank < set.len() {
                    continue;
                }
                match expect.first().map(Vec::len) {
                    Some(len) if len < set.len() => continue,
                    Some(len) if len > set.len() => expect.clear(),
                    _ => {}
                }
                expect.push(set);
            }
            expect.sort_unstable();
            assert_eq!(
                circuits_through(&others, g.row(target), &mut SEARCH_BUDGET.clone()),
                Ok(expect.clone()),
                "row {target}"
            );
            let others: Vec<&[u8]> = others.iter().map(Vec::as_slice).collect();
            assert_eq!(
                minimal_spanning_sets(&[], &others, &[g.row(target)]),
                expect,
                "row {target}"
            );
        }
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
