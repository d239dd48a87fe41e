//! The systematic `(k, r)` Reed–Solomon code.
//!
//! This is the code deployed on the Facebook warehouse cluster studied in the
//! paper (with `k = 10, r = 4`): storage optimal (MDS), constructible for any
//! parameters, but expensive to repair — recovering a single shard reads and
//! downloads `k` whole shards, i.e. the entire logical size of the stripe.
//!
//! # Construction
//!
//! The generator matrix is `G = V · (V_top)⁻¹` where `V` is a
//! `(k + r) × k` Vandermonde matrix over distinct evaluation points. Every
//! `k × k` submatrix of `V` is invertible, and multiplying on the right by a
//! fixed invertible matrix preserves that property, so every `k`-subset of
//! rows of `G` is invertible: the code is MDS and the top `k` rows are the
//! identity (systematic).

use pbrs_gf::Matrix;

use crate::params::validate_repair_request;
use crate::repair::{lowest_ranked_reads, ShardRead};
use crate::{CodeError, CodeParams, ErasureCode};

/// A systematic, MDS Reed–Solomon erasure code.
///
/// # Example
///
/// ```
/// use pbrs_erasure::{ErasureCode, ReedSolomon};
///
/// # fn main() -> Result<(), pbrs_erasure::CodeError> {
/// // The warehouse cluster's production parameters.
/// let rs = ReedSolomon::new(10, 4)?;
/// assert!(rs.is_mds());
/// assert!((rs.storage_overhead() - 1.4).abs() < 1e-9);
///
/// // Repairing any single shard requires downloading the full logical
/// // stripe: k shards out of k data shards worth of information.
/// let mut available = vec![true; 14];
/// available[0] = false;
/// let plan = rs.repair_plan(0, &available)?;
/// assert_eq!(plan.helper_count(), 10);
/// assert_eq!(plan.total_fraction(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// Full `(k + r) × k` systematic generator matrix.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a `(k, r)` Reed–Solomon code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for unsupported `(k, r)` (zero
    /// values or `k + r > 256`).
    pub fn new(k: usize, r: usize) -> Result<Self, CodeError> {
        let params = CodeParams::new(k, r)?;
        Ok(Self::from_params(params))
    }

    /// Creates the code from already validated parameters.
    pub fn from_params(params: CodeParams) -> Self {
        let k = params.data_shards();
        let n = params.total_shards();
        let v = Matrix::vandermonde(n, k);
        // pbrs-lint: allow(panic-hygiene) -- k <= n, so the k-by-k top block is in range
        let top = v.submatrix(0, 0, k, k).expect("top block exists");
        let inv = top
            .inverted()
            // pbrs-lint: allow(panic-hygiene) -- a Vandermonde top block over distinct points is invertible
            .expect("Vandermonde top block is always invertible");
        // pbrs-lint: allow(panic-hygiene) -- n-by-k times k-by-k dimensions agree by construction
        let generator = v.multiply(&inv).expect("dimensions agree");
        ReedSolomon { params, generator }
    }

    /// The code used by the Facebook warehouse cluster: `(10, 4)`.
    pub fn facebook() -> Self {
        Self::from_params(CodeParams::FACEBOOK)
    }

    /// The coefficients used to produce parity shard `j` (0-based within the
    /// parity shards) as a linear combination of the `k` data shards.
    ///
    /// # Panics
    ///
    /// Panics if `j >= r`.
    pub fn parity_row(&self, j: usize) -> &[u8] {
        assert!(j < self.params.parity_shards(), "parity index out of range");
        self.generator.row(self.params.data_shards() + j)
    }
}

impl ErasureCode for ReedSolomon {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn name(&self) -> String {
        format!(
            "RS({}, {})",
            self.params.data_shards(),
            self.params.parity_shards()
        )
    }

    fn generator(&self) -> &Matrix {
        &self.generator
    }

    fn repair_reads_ranked(
        &self,
        target: usize,
        available: &[bool],
        shard_len: usize,
        rank: &dyn Fn(usize) -> u64,
    ) -> Result<Vec<ShardRead>, CodeError> {
        validate_repair_request(self, target, available, shard_len)?;
        // MDS: any k survivors decode the stripe, so honour the caller's
        // preference fully — take the k lowest-ranked helpers.
        lowest_ranked_reads(
            target,
            available,
            self.params.data_shards(),
            shard_len,
            rank,
        )
    }

    fn is_mds(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::Fraction;
    use crate::{ShardBuffer, ShardSet, ShardSetMut};

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 31 + j * 7 + 13) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    /// Encodes `data` into a full stripe buffer, data shards first.
    fn encode_stripe(rs: &ReedSolomon, data: &[Vec<u8>]) -> ShardBuffer {
        let mut stripe = ShardBuffer::zeroed(rs.params().total_shards(), data[0].len());
        for (i, shard) in data.iter().enumerate() {
            stripe.shard_mut(i).copy_from_slice(shard);
        }
        let (data, mut parity) = stripe.split_mut(data.len());
        rs.encode_into(&data, &mut parity).unwrap();
        stripe
    }

    /// Fills the `lost` slots with garbage and rebuilds them in place.
    fn erase_and_reconstruct(
        rs: &ReedSolomon,
        stripe: &mut ShardBuffer,
        lost: &[usize],
    ) -> Result<(), CodeError> {
        let mut present = vec![true; stripe.shard_count()];
        for &i in lost {
            present[i] = false;
            stripe.shard_mut(i).fill(0xEE);
        }
        rs.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
    }

    #[test]
    fn construction_is_systematic() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let g = rs.generator();
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(g.get(r, c), u8::from(r == c));
            }
        }
        // Rows 6..9 are the parity block.
        assert_eq!((g.rows(), g.cols()), (9, 6));
    }

    #[test]
    fn facebook_parameters() {
        let rs = ReedSolomon::facebook();
        assert_eq!(rs.params(), CodeParams::FACEBOOK);
        assert_eq!(rs.name(), "RS(10, 4)");
        assert!((rs.storage_overhead() - 1.4).abs() < 1e-12);
        assert_eq!(rs.fault_tolerance(), 4);
        assert!(rs.is_mds());
        assert_eq!(rs.granularity(), 1);
    }

    #[test]
    fn encode_then_verify() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let mut stripe = encode_stripe(&rs, &sample_data(10, 128));
        // Re-encoding the data must reproduce the stored parity exactly...
        let reencoded = |stripe: &ShardBuffer| {
            let mut fresh = stripe.clone();
            let (data, mut parity) = fresh.split_mut(10);
            rs.encode_into(&data, &mut parity).unwrap();
            fresh == *stripe
        };
        assert!(reencoded(&stripe));
        // ...and a corrupt parity byte must show.
        stripe.shard_mut(12)[5] ^= 0x40;
        assert!(!reencoded(&stripe));
    }

    #[test]
    fn encoding_is_linear() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let a = sample_data(4, 64);
        let b: Vec<Vec<u8>> = sample_data(4, 64)
            .into_iter()
            .map(|s| s.into_iter().map(|x| x.wrapping_add(91)).collect())
            .collect();
        let xor: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let (sa, sb, sxor) = (
            encode_stripe(&rs, &a),
            encode_stripe(&rs, &b),
            encode_stripe(&rs, &xor),
        );
        for j in 4..6 {
            for i in 0..64 {
                assert_eq!(sxor.shard(j)[i], sa.shard(j)[i] ^ sb.shard(j)[i]);
            }
        }
    }

    #[test]
    fn reconstruct_all_single_and_double_failures() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let original = encode_stripe(&rs, &sample_data(5, 40));
        for i in 0..8 {
            for j in 0..8 {
                let mut stripe = original.clone();
                erase_and_reconstruct(&rs, &mut stripe, &[i, j]).unwrap();
                assert_eq!(stripe, original, "lost {i} and {j}");
            }
        }
    }

    #[test]
    fn reconstruct_exactly_r_failures() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let original = encode_stripe(&rs, &sample_data(10, 64));
        // Erase 4 shards spanning data and parity.
        let mut stripe = original.clone();
        erase_and_reconstruct(&rs, &mut stripe, &[0, 3, 9, 11]).unwrap();
        assert_eq!(stripe, original);
    }

    #[test]
    fn reconstruct_rejects_more_than_r_failures() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut stripe = encode_stripe(&rs, &sample_data(4, 16));
        assert!(matches!(
            erase_and_reconstruct(&rs, &mut stripe, &[0, 1, 4]),
            Err(CodeError::NotEnoughShards { .. })
        ));
    }

    #[test]
    fn decode_data_only() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let data = sample_data(6, 48);
        let mut stripe = encode_stripe(&rs, &data);
        // Lose three data shards; decode them from parity.
        erase_and_reconstruct(&rs, &mut stripe, &[1, 2, 5]).unwrap();
        for (i, shard) in data.iter().enumerate() {
            assert_eq!(stripe.shard(i), &shard[..]);
        }
    }

    #[test]
    fn repair_plan_downloads_k_whole_shards() {
        let rs = ReedSolomon::facebook();
        let mut available = vec![true; 14];
        available[3] = false;
        let plan = rs.repair_plan(3, &available).unwrap();
        assert_eq!(plan.target, 3);
        assert_eq!(plan.helper_count(), 10);
        assert!(plan.fetches.iter().all(|f| f.fraction == Fraction::ONE));
        // 256 MB blocks: repairing one block moves 2.5 GB, as in the paper.
        let block = 256 * 1024 * 1024;
        assert_eq!(plan.bytes_read(block), 10 * block as u64);
    }

    #[test]
    fn repair_executes_plan_and_returns_shard() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let data = sample_data(10, 96);
        let mut stripe = encode_stripe(&rs, &data);
        stripe.shard_mut(7).fill(0xEE);
        let mut out = vec![0u8; 96];
        rs.repair_into(7, &stripe.as_set(), &mut out).unwrap();
        assert_eq!(out, data[7]);

        let mut available = vec![true; 14];
        available[7] = false;
        let plan = rs.repair_plan(7, &available).unwrap();
        assert_eq!(plan.helper_count(), 10);
        assert_eq!(plan.bytes_read(96), 10 * 96);
    }

    #[test]
    fn repair_of_available_shard_is_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let available = vec![true; 6];
        assert!(matches!(
            rs.repair_plan(0, &available),
            Err(CodeError::TargetNotMissing { index: 0 })
        ));
    }

    #[test]
    fn average_repair_fraction_is_one() {
        // RS reads the whole logical stripe no matter which shard fails.
        let rs = ReedSolomon::new(10, 4).unwrap();
        assert!((rs.average_repair_fraction() - 1.0).abs() < 1e-12);
        let rs2 = ReedSolomon::new(6, 3).unwrap();
        assert!((rs2.average_repair_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mds_property_random_spot_checks_for_larger_codes() {
        // (12, 6): erase 6 random shards repeatedly and reconstruct.
        let rs = ReedSolomon::new(12, 6).unwrap();
        let original = encode_stripe(&rs, &sample_data(12, 32));
        let mut state = 0x12345678u64;
        for _ in 0..50 {
            let mut lost: Vec<usize> = Vec::new();
            while lost.len() < 6 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (state >> 33) as usize % 18;
                if !lost.contains(&idx) {
                    lost.push(idx);
                }
            }
            let mut stripe = original.clone();
            erase_and_reconstruct(&rs, &mut stripe, &lost).unwrap();
            assert_eq!(stripe, original, "lost {lost:?}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let mut stripe = ShardBuffer::zeroed(5, 8);
        // Wrong data shard count.
        let (data, mut parity) = stripe.split_mut(2);
        assert!(matches!(
            rs.encode_into(&data, &mut parity),
            Err(CodeError::ShardCountMismatch { .. })
        ));
        // Parity shards of a different length than the data shards.
        let data_buf = vec![0u8; 3 * 8];
        let mut parity_buf = vec![0u8; 2 * 9];
        let data = ShardSet::new(&data_buf, 3, 8).unwrap();
        let mut parity = ShardSetMut::new(&mut parity_buf, 2, 9).unwrap();
        assert!(matches!(
            rs.encode_into(&data, &mut parity),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
        // Wrong stripe width on reconstruct.
        let mut narrow = stripe.subset_mut(0..4);
        assert!(matches!(
            rs.reconstruct_in_place(&mut narrow, &[true; 4]),
            Err(CodeError::ShardCountMismatch { .. })
        ));
    }
}
