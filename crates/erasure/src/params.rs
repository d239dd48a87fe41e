//! Code parameter types and validation.

use core::fmt;

use crate::views::{ShardSet, ShardSetMut};
use crate::{CodeError, ErasureCode};

/// The `(k, r)` parameters of an erasure code: `k` data shards encoded into
/// `r` parity shards, `n = k + r` shards per stripe.
///
/// The Facebook warehouse cluster studied in the paper uses `(10, 4)`, giving
/// a 1.4× storage overhead compared to 3× for replication.
///
/// # Example
///
/// ```
/// use pbrs_erasure::CodeParams;
///
/// let p = CodeParams::new(10, 4)?;
/// assert_eq!(p.total_shards(), 14);
/// assert!((p.storage_overhead() - 1.4).abs() < 1e-9);
/// # Ok::<(), pbrs_erasure::CodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeParams {
    k: usize,
    r: usize,
}

impl CodeParams {
    /// The parameters used in production by the warehouse cluster: `(10, 4)`.
    pub const FACEBOOK: CodeParams = CodeParams { k: 10, r: 4 };

    /// Creates and validates code parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `k == 0`, `r == 0`, or
    /// `k + r > 256` (the GF(2^8) constructions used here support at most 256
    /// shards per stripe).
    pub fn new(k: usize, r: usize) -> Result<Self, CodeError> {
        if k == 0 {
            return Err(CodeError::InvalidParams {
                reason: "k (data shards) must be at least 1".into(),
            });
        }
        if r == 0 {
            return Err(CodeError::InvalidParams {
                reason: "r (parity shards) must be at least 1".into(),
            });
        }
        if k + r > 256 {
            return Err(CodeError::InvalidParams {
                reason: format!("k + r = {} exceeds the GF(2^8) limit of 256", k + r),
            });
        }
        Ok(CodeParams { k, r })
    }

    /// Number of data shards `k`.
    pub const fn data_shards(&self) -> usize {
        self.k
    }

    /// Number of parity shards `r`.
    pub const fn parity_shards(&self) -> usize {
        self.r
    }

    /// Total shards per stripe `n = k + r`.
    pub const fn total_shards(&self) -> usize {
        self.k + self.r
    }

    /// Storage overhead `n / k` (1.4 for the production (10, 4) code).
    pub fn storage_overhead(&self) -> f64 {
        self.total_shards() as f64 / self.k as f64
    }

    /// `true` if `index` refers to a data shard (indices `0..k`).
    pub const fn is_data_shard(&self, index: usize) -> bool {
        index < self.k
    }

    /// `true` if `index` refers to a parity shard (indices `k..k+r`).
    pub const fn is_parity_shard(&self, index: usize) -> bool {
        index >= self.k && index < self.k + self.r
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.k, self.r)
    }
}

/// Checks a shard length against a code's granularity: non-zero and a
/// multiple of `granularity`.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParams`] for empty shards and
/// [`CodeError::UnalignedShard`] for misaligned lengths.
pub fn validate_shard_len(len: usize, granularity: usize) -> Result<usize, CodeError> {
    if len == 0 {
        return Err(CodeError::InvalidParams {
            reason: "shards must not be empty".into(),
        });
    }
    if !len.is_multiple_of(granularity) {
        return Err(CodeError::UnalignedShard { len, granularity });
    }
    Ok(len)
}

/// Validates the view pair handed to `encode_into`: `k` data shards, `r`
/// parity slots, equal shard lengths aligned to `granularity`. Returns the
/// common shard length.
///
/// # Errors
///
/// Returns the appropriate [`CodeError`] variant for count, size or
/// alignment violations.
pub fn validate_encode_views(
    data: &ShardSet<'_>,
    parity: &ShardSetMut<'_>,
    params: CodeParams,
    granularity: usize,
) -> Result<usize, CodeError> {
    if data.shard_count() != params.data_shards() {
        return Err(CodeError::ShardCountMismatch {
            expected: params.data_shards(),
            actual: data.shard_count(),
        });
    }
    if parity.shard_count() != params.parity_shards() {
        return Err(CodeError::ShardCountMismatch {
            expected: params.parity_shards(),
            actual: parity.shard_count(),
        });
    }
    if parity.shard_len() != data.shard_len() {
        return Err(CodeError::ShardSizeMismatch {
            expected: data.shard_len(),
            actual: parity.shard_len(),
        });
    }
    validate_shard_len(data.shard_len(), granularity)
}

/// Validates the view and availability mask handed to
/// `reconstruct_in_place`: `n` shard slots, a mask of the same width, and an
/// aligned shard length. Returns the shard length.
///
/// # Errors
///
/// Returns the appropriate [`CodeError`] variant for count, size or
/// alignment violations.
pub fn validate_stripe_view(
    shards: &ShardSetMut<'_>,
    present: &[bool],
    params: CodeParams,
    granularity: usize,
) -> Result<usize, CodeError> {
    let n = params.total_shards();
    if shards.shard_count() != n {
        return Err(CodeError::ShardCountMismatch {
            expected: n,
            actual: shards.shard_count(),
        });
    }
    if present.len() != n {
        return Err(CodeError::ShardCountMismatch {
            expected: n,
            actual: present.len(),
        });
    }
    validate_shard_len(shards.shard_len(), granularity)
}

/// Validates the inputs of `code.repair_reads_ranked`: a shard length that
/// is a non-zero multiple of the code's granularity, an `n`-wide mask, and
/// an in-range `target` that the mask marks missing.
///
/// # Errors
///
/// Returns [`CodeError::UnalignedShard`], [`CodeError::ShardCountMismatch`],
/// [`CodeError::InvalidShardIndex`] or [`CodeError::TargetNotMissing`].
pub fn validate_repair_request<C: ErasureCode + ?Sized>(
    code: &C,
    target: usize,
    available: &[bool],
    shard_len: usize,
) -> Result<(), CodeError> {
    let granularity = code.granularity();
    if shard_len == 0 || !shard_len.is_multiple_of(granularity) {
        return Err(CodeError::UnalignedShard {
            len: shard_len,
            granularity,
        });
    }
    let n = code.params().total_shards();
    if available.len() != n {
        return Err(CodeError::ShardCountMismatch {
            expected: n,
            actual: available.len(),
        });
    }
    if target >= n {
        return Err(CodeError::InvalidShardIndex {
            index: target,
            total: n,
        });
    }
    if available[target] {
        return Err(CodeError::TargetNotMissing { index: target });
    }
    Ok(())
}

/// Validates the inputs of `repair_from_reads`: a full `n`-shard helper
/// view, an in-range target, and an output slice of exactly one shard.
/// Returns the shard length.
///
/// # Errors
///
/// Returns the appropriate [`CodeError`] variant for count, size, index or
/// alignment violations.
pub fn validate_repair_views(
    target: usize,
    helpers: &ShardSet<'_>,
    out: &[u8],
    params: CodeParams,
    granularity: usize,
) -> Result<usize, CodeError> {
    let n = params.total_shards();
    if helpers.shard_count() != n {
        return Err(CodeError::ShardCountMismatch {
            expected: n,
            actual: helpers.shard_count(),
        });
    }
    if target >= n {
        return Err(CodeError::InvalidShardIndex {
            index: target,
            total: n,
        });
    }
    if out.len() != helpers.shard_len() {
        return Err(CodeError::ShardSizeMismatch {
            expected: helpers.shard_len(),
            actual: out.len(),
        });
    }
    validate_shard_len(helpers.shard_len(), granularity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params() {
        let p = CodeParams::new(10, 4).unwrap();
        assert_eq!(p.data_shards(), 10);
        assert_eq!(p.parity_shards(), 4);
        assert_eq!(p.total_shards(), 14);
        assert!((p.storage_overhead() - 1.4).abs() < 1e-12);
        assert_eq!(p, CodeParams::FACEBOOK);
        assert_eq!(p.to_string(), "(10, 4)");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(
            CodeParams::new(0, 4),
            Err(CodeError::InvalidParams { .. })
        ));
        assert!(matches!(
            CodeParams::new(4, 0),
            Err(CodeError::InvalidParams { .. })
        ));
        assert!(matches!(
            CodeParams::new(200, 100),
            Err(CodeError::InvalidParams { .. })
        ));
        // Exactly 256 total is allowed.
        assert!(CodeParams::new(200, 56).is_ok());
    }

    #[test]
    fn shard_classification() {
        let p = CodeParams::new(3, 2).unwrap();
        assert!(p.is_data_shard(0));
        assert!(p.is_data_shard(2));
        assert!(!p.is_data_shard(3));
        assert!(p.is_parity_shard(3));
        assert!(p.is_parity_shard(4));
        assert!(!p.is_parity_shard(5));
    }

    #[test]
    fn data_validation() {
        assert_eq!(validate_shard_len(4, 1).unwrap(), 4);
        assert_eq!(validate_shard_len(4, 2).unwrap(), 4);
        assert!(matches!(
            validate_shard_len(3, 2),
            Err(CodeError::UnalignedShard { .. })
        ));
        assert!(matches!(
            validate_shard_len(0, 1),
            Err(CodeError::InvalidParams { .. })
        ));
    }

    #[test]
    fn view_validation() {
        let p = CodeParams::new(2, 2).unwrap();
        let data_buf = vec![1u8; 8];
        let mut parity_buf = vec![0u8; 8];
        let data = crate::ShardSet::new(&data_buf, 2, 4).unwrap();
        let parity = crate::ShardSetMut::new(&mut parity_buf, 2, 4).unwrap();
        assert_eq!(validate_encode_views(&data, &parity, p, 1).unwrap(), 4);
        assert_eq!(validate_encode_views(&data, &parity, p, 2).unwrap(), 4);
        assert!(matches!(
            validate_encode_views(&data, &parity, p, 3),
            Err(CodeError::UnalignedShard { .. })
        ));
        // Wrong data shard count.
        let narrow = crate::ShardSet::new(&data_buf, 1, 8).unwrap();
        assert!(matches!(
            validate_encode_views(&narrow, &parity, p, 1),
            Err(CodeError::ShardCountMismatch { .. })
        ));
        // Parity length differing from data length.
        let mut short = vec![0u8; 4];
        let short_parity = crate::ShardSetMut::new(&mut short, 2, 2).unwrap();
        assert!(matches!(
            validate_encode_views(&data, &short_parity, p, 1),
            Err(CodeError::ShardSizeMismatch { .. })
        ));

        let mut stripe_buf = vec![0u8; 16];
        let stripe = crate::ShardSetMut::new(&mut stripe_buf, 4, 4).unwrap();
        assert_eq!(validate_stripe_view(&stripe, &[true; 4], p, 2).unwrap(), 4);
        assert!(matches!(
            validate_stripe_view(&stripe, &[true; 3], p, 1),
            Err(CodeError::ShardCountMismatch { .. })
        ));

        let helpers = crate::ShardSet::new(&stripe_buf, 4, 4).unwrap();
        let mut out = vec![0u8; 4];
        assert_eq!(validate_repair_views(1, &helpers, &out, p, 2).unwrap(), 4);
        assert!(matches!(
            validate_repair_views(4, &helpers, &out, p, 1),
            Err(CodeError::InvalidShardIndex { .. })
        ));
        out.push(0);
        assert!(matches!(
            validate_repair_views(1, &helpers, &out, p, 1),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
    }

    #[test]
    fn present_validation() {
        let p = CodeParams::new(2, 1).unwrap();
        let mut buf = vec![0u8; 18];
        let stripe = crate::ShardSetMut::new(&mut buf, 3, 6).unwrap();
        let mask = [true, false, true];
        assert_eq!(validate_stripe_view(&stripe, &mask, p, 2).unwrap(), 6);
        assert!(matches!(
            validate_stripe_view(&stripe, &mask, p, 4),
            Err(CodeError::UnalignedShard { .. })
        ));
        assert!(matches!(
            validate_stripe_view(&stripe, &[true, false], p, 1),
            Err(CodeError::ShardCountMismatch { .. })
        ));
        let wider = CodeParams::new(3, 1).unwrap();
        assert!(matches!(
            validate_stripe_view(&stripe, &[true; 4], wider, 1),
            Err(CodeError::ShardCountMismatch { .. })
        ));
    }
}
