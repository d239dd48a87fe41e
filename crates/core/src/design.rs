//! Piggyback designs: which data shards are piggybacked onto which parity.
//!
//! A design for a `(k, r)` code assigns to each of the parities `2..r`
//! (0-based: parity indices `1..r`) a *group* of data shards; the sum of the
//! group's first-substripe symbols is added to that parity's second-substripe
//! symbol. Parity 0 is always kept clean so that the second substripe can be
//! decoded during an efficient repair.
//!
//! The default design partitions **all** data shards into `r − 1` contiguous,
//! nearly equal groups, which minimises the average repair download within
//! this family (every data shard gets a cheap repair, and smaller groups are
//! cheaper): of the 8 splits of `(10, 4)`'s data into three groups, the
//! balanced `(4, 3, 3)` reads the least, 0.750 of the stripe per repair
//! against 0.757 for `(4, 4, 2)` and 0.868 for `(8, 1, 1)`. The paper's toy example (Fig. 4) uses a custom design that
//! piggybacks only the first data shard.

use pbrs_erasure::{CodeError, CodeParams};

/// Assignment of data shards to piggybacked parities for a `(k, r)` code.
///
/// Group `j` (for `j` in `0..r−1`) is added onto parity `j + 1`'s second
/// substripe. Groups must be disjoint; they need not cover every data shard.
///
/// # Example
///
/// ```
/// use pbrs_core::PiggybackDesign;
/// use pbrs_erasure::CodeParams;
///
/// let params = CodeParams::new(10, 4)?;
/// let design = PiggybackDesign::balanced(params);
/// assert_eq!(design.groups().len(), 3);
/// assert_eq!(design.groups()[0], vec![0, 1, 2, 3]);
/// // Shard 5 rides on the second piggybacked parity (stripe index 12).
/// assert_eq!(design.group_of(5), Some(1));
/// # Ok::<(), pbrs_erasure::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiggybackDesign {
    params: CodeParams,
    /// `groups[j]` lists the data shards whose first-substripe symbols are
    /// added to parity `j + 1`.
    groups: Vec<Vec<usize>>,
    /// For each data shard, the index of the group it belongs to (if any).
    group_of: Vec<Option<usize>>,
}

impl PiggybackDesign {
    /// The default design: all `k` data shards partitioned into `r − 1`
    /// contiguous, nearly equal groups (the first `k mod (r−1)` groups get
    /// one extra member). With `r == 1` there are no piggybacked parities and
    /// the code degenerates to plain RS over two substripes.
    pub fn balanced(params: CodeParams) -> Self {
        let k = params.data_shards();
        let r = params.parity_shards();
        let group_count = r.saturating_sub(1);
        let mut groups = Vec::with_capacity(group_count);
        if let (Some(base), Some(extra)) = (k.checked_div(group_count), k.checked_rem(group_count))
        {
            let mut next = 0usize;
            for gi in 0..group_count {
                let size = base + usize::from(gi < extra);
                groups.push((next..next + size).collect());
                next += size;
            }
        }
        // pbrs-lint: allow(panic-hygiene) -- balanced grouping satisfies from_groups' own checks by construction
        Self::from_groups(params, groups).expect("balanced groups are always valid")
    }

    /// Builds a design from explicit groups. `groups[j]` is added to parity
    /// `j + 1`; there must be exactly `r − 1` groups (they may be empty).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if the group count is not
    /// `r − 1`, a group references an out-of-range shard, or two groups
    /// overlap.
    pub fn from_groups(params: CodeParams, groups: Vec<Vec<usize>>) -> Result<Self, CodeError> {
        let k = params.data_shards();
        let r = params.parity_shards();
        if groups.len() != r.saturating_sub(1) {
            return Err(CodeError::InvalidParams {
                reason: format!(
                    "expected {} piggyback groups for r = {}, got {}",
                    r.saturating_sub(1),
                    r,
                    groups.len()
                ),
            });
        }
        let mut group_of: Vec<Option<usize>> = vec![None; k];
        for (gi, group) in groups.iter().enumerate() {
            for &shard in group {
                if shard >= k {
                    return Err(CodeError::InvalidParams {
                        reason: format!(
                            "piggyback group references data shard {shard} but k = {k}"
                        ),
                    });
                }
                if group_of[shard].is_some() {
                    return Err(CodeError::InvalidParams {
                        reason: format!("data shard {shard} appears in more than one group"),
                    });
                }
                group_of[shard] = Some(gi);
            }
        }
        Ok(PiggybackDesign {
            params,
            groups,
            group_of,
        })
    }

    /// The `(k, r)` parameters this design applies to.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The piggyback groups; `groups()[j]` rides on parity `j + 1`.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The group index that `data_shard` belongs to, if it is piggybacked.
    ///
    /// # Panics
    ///
    /// Panics if `data_shard >= k`.
    pub fn group_of(&self, data_shard: usize) -> Option<usize> {
        self.group_of[data_shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PiggybackedRs;
    use pbrs_erasure::ErasureCode;

    fn params(k: usize, r: usize) -> CodeParams {
        CodeParams::new(k, r).unwrap()
    }

    /// Number of data shards covered by some piggyback group.
    fn covered_shards(d: &PiggybackDesign) -> usize {
        d.group_of.iter().filter(|g| g.is_some()).count()
    }

    #[test]
    fn balanced_design_facebook() {
        let d = PiggybackDesign::balanced(params(10, 4));
        assert_eq!(d.groups().len(), 3);
        assert_eq!(d.groups()[0], vec![0, 1, 2, 3]);
        assert_eq!(d.groups()[1], vec![4, 5, 6]);
        assert_eq!(d.groups()[2], vec![7, 8, 9]);
        assert_eq!(covered_shards(&d), 10);
        assert_eq!(d.group_of(0), Some(0));
        assert_eq!(d.group_of(9), Some(2));
    }

    #[test]
    fn balanced_design_even_split() {
        let d = PiggybackDesign::balanced(params(12, 4));
        assert_eq!(d.groups()[0].len(), 4);
        assert_eq!(d.groups()[1].len(), 4);
        assert_eq!(d.groups()[2].len(), 4);
    }

    #[test]
    fn single_parity_has_no_groups() {
        let d = PiggybackDesign::balanced(params(6, 1));
        assert!(d.groups().is_empty());
        assert_eq!(covered_shards(&d), 0);
        assert_eq!(d.group_of(3), None);
    }

    #[test]
    fn two_parities_single_group() {
        let d = PiggybackDesign::balanced(params(2, 2));
        assert_eq!(d.groups(), &[vec![0, 1]]);
        assert_eq!(d.group_of(1), Some(0));
    }

    #[test]
    fn custom_design_toy_example() {
        // The paper's Fig. 4: only a1 (shard 0) is piggybacked.
        let d = PiggybackDesign::from_groups(params(2, 2), vec![vec![0]]).unwrap();
        assert_eq!(covered_shards(&d), 1);
        assert_eq!(d.group_of(0), Some(0));
        assert_eq!(d.group_of(1), None);
    }

    #[test]
    fn balanced_groups_minimise_the_average_repair_download() {
        // The 8 ways to split 10 data shards into 3 non-empty contiguous
        // groups, largest first, each priced by the code's own reads.
        let splits = [
            [8, 1, 1],
            [7, 2, 1],
            [6, 3, 1],
            [6, 2, 2],
            [5, 4, 1],
            [5, 3, 2],
            [4, 4, 2],
            [4, 3, 3],
        ];
        let price = |sizes: &[usize; 3]| {
            let mut next = 0;
            let groups = sizes
                .iter()
                .map(|&size| {
                    next += size;
                    (next - size..next).collect()
                })
                .collect();
            let design = PiggybackDesign::from_groups(params(10, 4), groups).unwrap();
            PiggybackedRs::with_design(design)
                .unwrap()
                .average_repair_fraction()
        };
        let balanced = price(&[4, 3, 3]);
        assert!((balanced - 0.75).abs() < 1e-9, "{balanced}");
        for sizes in &splits[..7] {
            assert!(price(sizes) > balanced, "{sizes:?}");
        }
    }

    #[test]
    fn custom_design_validation() {
        // Wrong group count.
        assert!(PiggybackDesign::from_groups(params(4, 3), vec![vec![0]]).is_err());
        // Out-of-range member.
        assert!(PiggybackDesign::from_groups(params(4, 2), vec![vec![7]]).is_err());
        // Overlapping groups.
        assert!(PiggybackDesign::from_groups(params(4, 3), vec![vec![0, 1], vec![1, 2]]).is_err());
        // Empty groups are allowed.
        let d = PiggybackDesign::from_groups(params(4, 3), vec![vec![], vec![0, 1, 2, 3]]).unwrap();
        assert_eq!(covered_shards(&d), 4);
        assert_eq!(d.group_of(0), Some(1));
    }
}
