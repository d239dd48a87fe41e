//! The Piggybacked-RS code: its symbol-level generator and its
//! download-efficient choice of repair reads — the paper's half-chunk plan
//! for a data shard, and for a parity the cheapest half-chunk sets a search
//! over the generator finds. Encoding, MDS reconstruction and the repair
//! arithmetic are the generator-derived ones every [`ErasureCode`] shares.

use std::sync::OnceLock;

use pbrs_gf::Matrix;

use pbrs_erasure::params::validate_repair_request;
use pbrs_erasure::{
    cheapest_plan, lowest_ranked_reads, minimal_symbol_plans, CodeError, CodeParams, ErasureCode,
    ReedSolomon, ShardRead,
};

use crate::design::PiggybackDesign;

/// A `(k, r)` Piggybacked-RS code.
///
/// Each shard holds the symbols of **two** byte-level substripes,
/// concatenated: the first `len/2` bytes belong to substripe `a` and the
/// last `len/2` bytes to substripe `b`. Data shards store `(a_i, b_i)`
/// unchanged (the code is systematic). Parity shard `j` stores
/// `(f_j(a), f_j(b) + g_j(a))` where `f_j` is the underlying Reed–Solomon
/// parity function and `g_j(a)` is the XOR of the first-substripe symbols of
/// the design's group `j − 1` (`g_0 = 0`, i.e. parity 0 stays clean).
///
/// The code keeps both properties the paper insists on:
///
/// * **storage optimality (MDS)** — any `r` shard losses are recoverable and
///   no extra storage is used;
/// * **parameter flexibility** — any `(k, r)` with `k + r ≤ 256` works.
///
/// and reduces the data read and downloaded for single data-shard repair
/// from `k` shard-equivalents to `(k + |group|) / 2`. A parity is rebuilt
/// from every data b-half plus a minimum set of other half-chunks that
/// spans it, found once by a search over the generator: 19 halves instead
/// of 20 for `(10, 4)`.
///
/// # Example
///
/// ```
/// use pbrs_core::PiggybackedRs;
/// use pbrs_erasure::{total_read_bytes, ErasureCode, ShardBuffer};
///
/// # fn main() -> Result<(), pbrs_erasure::CodeError> {
/// let code = PiggybackedRs::new(10, 4)?;
/// let mut stripe = ShardBuffer::zeroed(14, 32);
/// for i in 0..10 {
///     stripe.shard_mut(i).fill(i as u8);
/// }
/// let (data, mut parity) = stripe.split_mut(10);
/// code.encode_into(&data, &mut parity)?;
///
/// // Lose a data shard and repair it with ~30% less download than RS:
/// // shard 5 belongs to a piggyback group of 3, so the repair reads
/// // (10 + 3) / 2 = 6.5 shard-equivalents instead of 10.
/// let mut available = vec![true; 14];
/// available[5] = false;
/// let reads = code.repair_reads(5, &available, 32)?;
/// assert_eq!(total_read_bytes(&reads), (6.5 * 32.0) as u64);
/// let mut rebuilt = vec![0u8; 32];
/// code.repair_from_reads(5, &reads, &stripe.as_set(), &mut rebuilt)?;
/// assert_eq!(rebuilt, [5u8; 32]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PiggybackedRs {
    params: CodeParams,
    design: PiggybackDesign,
    rs: ReedSolomon,
    /// `2n × 2k` symbol-level generator: data shard `i` owns `a_i` (row
    /// `2i`) and `b_i` (row `2i + 1`).
    generator: Matrix,
    /// Per shard, the minimum half-chunk read sets cheaper than `k` whole
    /// shards that the search found for a parity (empty for data shards),
    /// built on first use.
    plans: OnceLock<Vec<Vec<Vec<usize>>>>,
}

impl PiggybackedRs {
    /// Creates a `(k, r)` Piggybacked-RS code with the default balanced
    /// piggyback design.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for unsupported `(k, r)`.
    pub fn new(k: usize, r: usize) -> Result<Self, CodeError> {
        let params = CodeParams::new(k, r)?;
        Self::with_design(PiggybackDesign::balanced(params))
    }

    /// Creates the code from an explicit piggyback design.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if the design's parameters are
    /// unsupported.
    pub fn with_design(design: PiggybackDesign) -> Result<Self, CodeError> {
        let params = design.params();
        let rs = ReedSolomon::from_params(params);
        let k = params.data_shards();
        // Both substripes are the RS code; parity j's b-half also carries
        // the a-symbols of group j − 1.
        let mut generator = Matrix::zero(2 * params.total_shards(), 2 * k);
        for i in 0..params.total_shards() {
            for (c, &v) in rs.generator().row(i).iter().enumerate() {
                generator.set(2 * i, 2 * c, v);
                generator.set(2 * i + 1, 2 * c + 1, v);
            }
        }
        for (j, group) in design.groups().iter().enumerate() {
            for &m in group {
                generator.set(2 * (k + j + 1) + 1, 2 * m, 1);
            }
        }
        Ok(PiggybackedRs {
            params,
            design,
            rs,
            generator,
            plans: OnceLock::new(),
        })
    }

    /// The `(10, 4)` code proposed in the paper as a drop-in replacement for
    /// the warehouse cluster's RS code.
    pub fn facebook() -> Self {
        // pbrs-lint: allow(panic-hygiene) -- constant (10, 4) parameters are statically valid
        Self::new(10, 4).expect("(10, 4) is always valid")
    }

    /// The piggyback design in use.
    pub fn design(&self) -> &PiggybackDesign {
        &self.design
    }

    /// The underlying Reed–Solomon code applied to each substripe.
    pub fn inner_rs(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Returns `true` if the download-efficient repair path applies to
    /// `target` under the given availability mask: the target must be a
    /// piggybacked data shard, and all other data shards, the clean parity
    /// and the carrier parity must be available.
    pub fn efficient_repair_available(&self, target: usize, available: &[bool]) -> bool {
        if available.len() != self.params.total_shards() {
            return false;
        }
        if target >= self.params.data_shards() || available[target] {
            return false;
        }
        let Some(carrier) = self.design.carrier_parity(target) else {
            return false;
        };
        let clean_parity = self.params.data_shards();
        let data_ok = (0..self.params.data_shards()).all(|i| i == target || available[i]);
        data_ok && available[clean_parity] && available[carrier]
    }

    /// The parities' read sets, in half-chunks (row `2i` is shard `i`'s
    /// a-half, `2i + 1` its b-half): for each parity, every data b-half plus
    /// a minimum set of other half-chunks that spans both of its halves,
    /// kept when fewer than `2k` halves. With the b-substripe known, each
    /// candidate counts only through its a-part, so the search runs over at
    /// most `2n − k − 2` vectors of length `k`.
    fn parity_plans(&self) -> &[Vec<Vec<usize>>] {
        self.plans.get_or_init(|| {
            let (k, n) = (self.params.data_shards(), self.params.total_shards());
            let b_halves: Vec<usize> = (0..k).map(|i| 2 * i + 1).collect();
            (0..n)
                .map(|target| {
                    if target < k {
                        return Vec::new();
                    }
                    let others: Vec<usize> = (0..2 * n)
                        .filter(|&row| row / 2 != target && !b_halves.contains(&row))
                        .collect();
                    minimal_symbol_plans(&self.generator, 2, target, &b_halves, &others)
                })
                .collect()
        })
    }
}

impl ErasureCode for PiggybackedRs {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn name(&self) -> String {
        format!(
            "Piggybacked-RS({}, {})",
            self.params.data_shards(),
            self.params.parity_shards()
        )
    }

    fn granularity(&self) -> usize {
        2
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
        let k = self.params.data_shards();
        // A parity: the cheapest searched set that is available.
        if let Some(reads) =
            cheapest_plan(&self.parity_plans()[target], 2, available, shard_len, rank)
        {
            return Ok(reads);
        }
        if !self.efficient_repair_available(target, available) {
            // Uncovered data targets, damaged stripes and parities with no
            // searched set available read the k lowest-ranked whole shards,
            // like plain RS.
            return lowest_ranked_reads(target, available, k, shard_len, rank);
        }
        // The download-efficient path reads the b-half (second half) of the
        // non-peer data shards, the clean parity and the carrier parity, and
        // both halves of the target's group peers: the carrier stores
        // f_c(b) + Σ_{group} a_i, so a_target = carrier.b ⊕ f_c(b) ⊕ Σ_{peers} a_p.
        let (carrier, peers) = self
            .design
            .carrier_parity(target)
            .zip(self.design.group_peers(target))
            // pbrs-lint: allow(panic-hygiene) -- efficient_repair_available implies a carrier and its group
            .expect("checked");
        let half = shard_len / 2;
        let b_half = |shard| ShardRead {
            shard,
            offset: half,
            len: half,
        };
        Ok((0..k)
            .filter(|&i| i != target)
            .map(|i| {
                if peers.contains(&i) {
                    ShardRead::whole(i, shard_len)
                } else {
                    b_half(i)
                }
            })
            .chain([b_half(k), b_half(carrier)])
            .collect())
    }

    fn is_mds(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbrs_erasure::{total_read_bytes, ShardBuffer};

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 41 + j * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// Encodes `data` into a full stripe buffer, data shards first.
    fn full_stripe<C: ErasureCode>(code: &C, data: &[Vec<u8>]) -> ShardBuffer {
        let mut stripe = ShardBuffer::zeroed(code.params().total_shards(), data[0].len());
        for (i, shard) in data.iter().enumerate() {
            stripe.shard_mut(i).copy_from_slice(shard);
        }
        let (data, mut parity) = stripe.split_mut(data.len());
        code.encode_into(&data, &mut parity).unwrap();
        stripe
    }

    /// Fills the `lost` slots with garbage and rebuilds them in place.
    fn erase_and_reconstruct(
        code: &PiggybackedRs,
        stripe: &mut ShardBuffer,
        lost: &[usize],
    ) -> Result<(), CodeError> {
        let mut present = vec![true; stripe.shard_count()];
        for &i in lost {
            present[i] = false;
            stripe.shard_mut(i).fill(0xEE);
        }
        code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
    }

    /// Rebuilds `target` with `repair_into` from a copy of `all` whose target
    /// slot holds garbage.
    fn repair_target(code: &PiggybackedRs, all: &ShardBuffer, target: usize) -> Vec<u8> {
        let mut stripe = all.clone();
        stripe.shard_mut(target).fill(0xEE);
        let mut out = vec![0u8; all.shard_len()];
        code.repair_into(target, &stripe.as_set(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn facebook_constructor_and_metadata() {
        let code = PiggybackedRs::facebook();
        assert_eq!(code.name(), "Piggybacked-RS(10, 4)");
        assert_eq!(code.params(), CodeParams::FACEBOOK);
        assert_eq!(code.granularity(), 2);
        assert!(code.is_mds());
        assert_eq!(code.fault_tolerance(), 4);
        assert!((code.storage_overhead() - 1.4).abs() < 1e-12);
        assert_eq!(code.design().groups().len(), 3);
        assert_eq!(code.inner_rs().params(), CodeParams::FACEBOOK);
    }

    #[test]
    fn parity_zero_matches_plain_rs_and_others_differ() {
        let code = PiggybackedRs::new(4, 3).unwrap();
        let data = sample_data(4, 16);
        let stripe = full_stripe(&code, &data);
        let parity: Vec<&[u8]> = (4..7).map(|i| stripe.shard(i)).collect();

        // Build the plain RS parities over the two substripes for comparison.
        let rs = ReedSolomon::new(4, 3).unwrap();
        let a: Vec<Vec<u8>> = data.iter().map(|d| d[..8].to_vec()).collect();
        let b: Vec<Vec<u8>> = data.iter().map(|d| d[8..].to_vec()).collect();
        let (rs_a, rs_b) = (full_stripe(&rs, &a), full_stripe(&rs, &b));
        let pa: Vec<&[u8]> = (4..7).map(|i| rs_a.shard(i)).collect();
        let pb: Vec<&[u8]> = (4..7).map(|i| rs_b.shard(i)).collect();

        // Parity 0 is exactly the RS parity of both substripes.
        assert_eq!(&parity[0][..8], pa[0]);
        assert_eq!(&parity[0][8..], pb[0]);
        // Piggybacked parities share the a-half but differ in the b-half.
        for j in 1..3 {
            assert_eq!(&parity[j][..8], pa[j]);
            assert_ne!(&parity[j][8..], pb[j]);
        }
        // And the difference is exactly the group XOR.
        let group0 = &code.design().groups()[0]; // rides on parity 1
        let mut expect = pb[1].to_vec();
        for &i in group0 {
            for (e, s) in expect.iter_mut().zip(a[i].iter()) {
                *e ^= s;
            }
        }
        assert_eq!(&parity[1][8..], &expect[..]);
    }

    #[test]
    fn unaligned_shards_rejected() {
        let code = PiggybackedRs::new(4, 2).unwrap();
        let mut stripe = ShardBuffer::zeroed(6, 15);
        let (data, mut parity) = stripe.split_mut(4);
        assert!(matches!(
            code.encode_into(&data, &mut parity),
            Err(CodeError::UnalignedShard {
                len: 15,
                granularity: 2
            })
        ));
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        let code = PiggybackedRs::facebook();
        let data = sample_data(10, 64);
        let mut all = full_stripe(&code, &data);
        let reencodes = |stripe: &ShardBuffer| {
            let mut fresh = stripe.clone();
            let (data, mut parity) = fresh.split_mut(10);
            code.encode_into(&data, &mut parity).unwrap();
            fresh == *stripe
        };
        assert!(reencodes(&all));
        all.shard_mut(11)[40] ^= 1;
        assert!(!reencodes(&all));
    }

    #[test]
    fn mds_reconstruction_for_all_r_failure_patterns_small_code() {
        // (4, 2): 15 patterns of exactly 2 failures, plus all single failures.
        let code = PiggybackedRs::new(4, 2).unwrap();
        let data = sample_data(4, 12);
        let all = full_stripe(&code, &data);
        let n = 6;
        for i in 0..n {
            for j in i..n {
                let mut stripe = all.clone();
                erase_and_reconstruct(&code, &mut stripe, &[i, j]).unwrap();
                assert_eq!(stripe, all, "failures ({i},{j})");
            }
        }
    }

    #[test]
    fn mds_reconstruction_facebook_code_spot_checks() {
        let code = PiggybackedRs::facebook();
        let data = sample_data(10, 32);
        let all = full_stripe(&code, &data);
        let patterns: Vec<Vec<usize>> = vec![
            vec![0],
            vec![13],
            vec![0, 1, 2, 3],
            vec![10, 11, 12, 13],
            vec![0, 5, 11, 13],
            vec![2, 7, 9, 12],
            vec![6, 10],
        ];
        for pattern in patterns {
            let mut stripe = all.clone();
            erase_and_reconstruct(&code, &mut stripe, &pattern).unwrap();
            assert_eq!(stripe, all, "pattern {pattern:?}");
        }
    }

    #[test]
    fn too_many_failures_rejected() {
        let code = PiggybackedRs::new(4, 2).unwrap();
        let data = sample_data(4, 8);
        let mut stripe = full_stripe(&code, &data);
        assert!(matches!(
            erase_and_reconstruct(&code, &mut stripe, &[0, 1, 2]),
            Err(CodeError::NotEnoughShards { .. })
        ));
    }

    #[test]
    fn efficient_repair_plan_costs_for_facebook_code() {
        let code = PiggybackedRs::facebook();
        // Group sizes are 4, 3, 3 -> repair fractions (10+4)/2 = 7 and
        // (10+3)/2 = 6.5 shard-equivalents: 14 and 13 bytes at the table's
        // shard length of 2.
        let table = code.single_loss_reads();
        for (target, reads) in table.iter().enumerate().take(10) {
            let group_len = code.design().groups()[code.design().group_of(target).unwrap()].len();
            let expect = (10.0 + group_len as f64) / 2.0;
            let shards = total_read_bytes(reads) as f64 / 2.0;
            assert!((shards - expect).abs() < 1e-12, "target {target}");
            // Helpers: k-1 data + clean parity + carrier parity.
            assert_eq!(reads.len(), 11);
        }
        // Parity shards read every data b-half plus the 9 other half-chunks
        // the search found: 19 of the 20 halves of RS's 10 whole shards.
        for reads in &table[10..] {
            assert_eq!(total_read_bytes(reads), 19);
        }
    }

    #[test]
    fn efficient_repair_recovers_exact_bytes_every_data_shard() {
        let code = PiggybackedRs::facebook();
        let data = sample_data(10, 64);
        let all = full_stripe(&code, &data);
        for target in 0..14 {
            // Execute the repair from only the bytes its reads name.
            let mut available = vec![true; 14];
            available[target] = false;
            let reads = code.repair_reads(target, &available, 64).unwrap();
            let mut helpers = ShardBuffer::zeroed(14, 64);
            for i in 0..14 {
                helpers.shard_mut(i).fill(0xEE);
            }
            for read in &reads {
                helpers.shard_mut(read.shard)[read.range()]
                    .copy_from_slice(&all.shard(read.shard)[read.range()]);
            }
            let mut out = vec![0u8; 64];
            code.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
                .unwrap();
            assert_eq!(out, all.shard(target), "target {target}");
            assert_eq!(repair_target(&code, &all, target), all.shard(target));
            if target < 10 {
                let group_len =
                    code.design().groups()[code.design().group_of(target).unwrap()].len();
                let expect_bytes =
                    ((10 - group_len) as u64 * 32) + (group_len as u64 - 1) * 64 + 32 + 32;
                assert_eq!(total_read_bytes(&reads), expect_bytes);
                assert_eq!(reads.len(), 11);
            } else {
                // 19 half-chunks of 32 bytes, from 12 helpers.
                assert_eq!(total_read_bytes(&reads), 19 * 32);
                assert_eq!(reads.len(), 12);
            }
        }
    }

    #[test]
    fn efficient_repair_detection() {
        let code = PiggybackedRs::facebook();
        let mut available = vec![true; 14];
        available[0] = false;
        assert!(code.efficient_repair_available(0, &available));
        // Clean parity missing -> no efficient repair.
        available[10] = false;
        assert!(!code.efficient_repair_available(0, &available));
        available[10] = true;
        // Carrier parity missing -> no efficient repair.
        available[11] = false;
        assert!(!code.efficient_repair_available(0, &available));
        available[11] = true;
        // Another data shard missing -> no efficient repair.
        available[5] = false;
        assert!(!code.efficient_repair_available(0, &available));
        available[5] = true;
        // Parity shards never take the efficient path.
        available[12] = false;
        assert!(!code.efficient_repair_available(12, &available));
        // Available targets are never "repairable".
        assert!(!code.efficient_repair_available(1, &available));
        // Wrong mask length.
        assert!(!code.efficient_repair_available(0, &[false; 3]));
    }

    #[test]
    fn degraded_repair_falls_back_to_full_decode() {
        let code = PiggybackedRs::facebook();
        let data = sample_data(10, 32);
        let all = full_stripe(&code, &data);
        // Two failures: the target and its carrier parity.
        let mut available = vec![true; 14];
        available[0] = false;
        available[11] = false;
        let reads = code.repair_reads_ranked(0, &available, 32, &|_| 0).unwrap();
        // Fallback cost: k whole shards.
        assert_eq!(total_read_bytes(&reads), 10 * 32);
        // Decoding from exactly those k shards rebuilds the target.
        let mut present = vec![false; 14];
        for read in &reads {
            present[read.shard] = true;
        }
        let mut stripe = all.clone();
        for i in (0..14).filter(|&i| !present[i]) {
            stripe.shard_mut(i).fill(0xEE);
        }
        code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
            .unwrap();
        assert_eq!(stripe.shard(0), all.shard(0));
    }

    #[test]
    fn fallback_reads_the_lowest_ranked_shards() {
        // Data shard 0 and its carrier parity 11 are lost, so shard 0 takes
        // the k-whole-shard read. Ranking shards 1–3 last keeps all but one
        // of them out of it: the ten lowest-ranked shards are not the ten
        // lowest-indexed.
        let code = PiggybackedRs::facebook();
        let all = full_stripe(&code, &sample_data(10, 32));
        let mut available = vec![true; 14];
        available[0] = false;
        available[11] = false;
        let rank = |shard: usize| u64::from(shard < 4);
        let reads = code.repair_reads_ranked(0, &available, 32, &rank).unwrap();
        let shards: Vec<usize> = reads.iter().map(|read| read.shard).collect();
        assert_eq!(shards, [1, 4, 5, 6, 7, 8, 9, 10, 12, 13]);
        let mut out = vec![0u8; 32];
        code.repair_from_reads(0, &reads, &all.as_set(), &mut out)
            .unwrap();
        assert_eq!(out, all.shard(0));
    }

    #[test]
    fn parity_repair_picks_the_lowest_ranked_minimal_plan() {
        // Parity 10 has several 19-half plans. Ranking a shard of the first
        // one behind the rest moves the repair to a plan without it, at the
        // same price.
        let code = PiggybackedRs::facebook();
        let plans = &code.parity_plans()[10];
        let avoid = plans[0]
            .iter()
            .map(|row| row / 2)
            .find(|&shard| {
                plans
                    .iter()
                    .any(|plan| plan.iter().all(|row| row / 2 != shard))
            })
            .unwrap();
        let mut available = vec![true; 14];
        available[10] = false;
        let rank = |shard: usize| u64::from(shard == avoid);
        let reads = code.repair_reads_ranked(10, &available, 64, &rank).unwrap();
        assert!(reads.iter().all(|read| read.shard != avoid), "{reads:?}");
        assert_eq!(total_read_bytes(&reads), 19 * 32);
    }

    #[test]
    fn repair_error_paths() {
        let code = PiggybackedRs::new(4, 2).unwrap();
        let data = sample_data(4, 8);
        let all = full_stripe(&code, &data);
        assert!(matches!(
            code.repair_reads_ranked(0, &[true; 6], 8, &|_| 0),
            Err(CodeError::TargetNotMissing { index: 0 })
        ));
        let mut out = vec![0u8; 8];
        assert!(matches!(
            code.repair_into(99, &all.as_set(), &mut out),
            Err(CodeError::InvalidShardIndex { .. })
        ));
        let mut available = vec![true; 6];
        available[0] = false;
        assert!(matches!(
            code.repair_reads_ranked(99, &available, 8, &|_| 0),
            Err(CodeError::InvalidShardIndex { .. })
        ));
        assert!(matches!(
            code.repair_reads_ranked(0, &[true; 3], 8, &|_| 0),
            Err(CodeError::ShardCountMismatch { .. })
        ));
    }

    #[test]
    fn average_repair_fraction_improves_on_rs_by_about_a_quarter() {
        let code = PiggybackedRs::facebook();
        let rs = ReedSolomon::facebook();
        let pb = code.average_repair_fraction();
        let rs_frac = rs.average_repair_fraction();
        assert!((rs_frac - 1.0).abs() < 1e-12);
        // (6 * 6.5 + 4 * 7 + 4 * 9.5) / (14 * 10) = 0.75: each parity reads
        // 19 half-chunks.
        assert!((pb - 0.75).abs() < 1e-9, "got {pb}");
    }

    #[test]
    fn works_with_stripe_helper_and_arbitrary_parameters() {
        for (k, r) in [(2usize, 2usize), (5, 3), (6, 4), (12, 4), (10, 2)] {
            let code = PiggybackedRs::new(k, r).unwrap();
            let original = full_stripe(&code, &sample_data(k, 20));
            // Erase r shards (the last r, mixing data and parity).
            let lost: Vec<usize> = (k..k + r).collect();
            let mut stripe = original.clone();
            erase_and_reconstruct(&code, &mut stripe, &lost).unwrap();
            assert_eq!(stripe, original, "({k},{r})");
        }
    }

    #[test]
    fn single_parity_code_degenerates_to_rs_costs() {
        let code = PiggybackedRs::new(6, 1).unwrap();
        let data = sample_data(6, 10);
        let all = full_stripe(&code, &data);
        assert_eq!(repair_target(&code, &all, 2), all.shard(2));
        let mut available = vec![true; 7];
        available[2] = false;
        let reads = code.repair_reads(2, &available, 10).unwrap();
        assert_eq!(total_read_bytes(&reads), 6 * 10);
        assert!((code.average_repair_fraction() - 1.0).abs() < 1e-12);
    }
}
