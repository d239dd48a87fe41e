//! An Azure/Xorbas-style Local Reconstruction Code (LRC).
//!
//! The paper's related-work section contrasts Piggybacked-RS with LRCs
//! (Huang et al., USENIX ATC'12; Sathiamoorthy et al., VLDB'13): LRCs also
//! reduce recovery download, but they do so by storing *extra* local parity
//! blocks, so they are not storage optimal (not MDS). This implementation
//! exists so the comparison table (experiment E7) can quantify that
//! trade-off with the same [`ErasureCode`] interface.
//!
//! # Construction
//!
//! `k` data shards are split into `l` contiguous, nearly equal local groups.
//! Each group gets one XOR local parity; `g` global parities are the parity
//! shards of a systematic `(k, g)` Reed–Solomon code over all the data.
//! Shard layout: `[data 0..k | local parities k..k+l | global parities
//! k+l..k+l+g]`.
//!
//! An LRC is nothing but this generator: local parities are just more
//! rows, so encode, full reconstruction and the choice of repair reads are
//! the generator-derived ones every [`ErasureCode`] shares. The search
//! behind [`ErasureCode::repair_reads_ranked`] finds that a single failed
//! data shard or local parity is spanned by the other members of its local
//! group (`k/l` downloads instead of `k`), which is how LRC trades storage
//! for recovery bandwidth, and that a global parity is spanned by 9 other
//! shards instead of `k = 10` for the Xorbas `(10, 2, 4)` code. A repair
//! whose group is damaged reads whole shards that span the data, and a
//! full reconstruction decodes every loss pattern whose surviving rows
//! span the data, in one pass with no local phase.

use pbrs_gf::Matrix;

use crate::{CodeError, CodeParams, ErasureCode, ReedSolomon};

/// Parameters of a local reconstruction code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LrcParams {
    /// Number of data shards.
    pub k: usize,
    /// Number of local groups (each contributes one XOR parity).
    pub local_groups: usize,
    /// Number of global Reed–Solomon parities.
    pub global_parities: usize,
}

impl LrcParams {
    /// The Xorbas-HDFS configuration used as the comparison point against the
    /// warehouse cluster's (10, 4) RS code: 10 data, 2 local, 4 global
    /// (1.6× storage overhead).
    pub const XORBAS: LrcParams = LrcParams {
        k: 10,
        local_groups: 2,
        global_parities: 4,
    };

    /// Total shards per stripe.
    pub const fn total_shards(&self) -> usize {
        self.k + self.local_groups + self.global_parities
    }
}

/// A local reconstruction code.
///
/// # Example
///
/// ```
/// use pbrs_erasure::{ErasureCode, Lrc, LrcParams};
///
/// # fn main() -> Result<(), pbrs_erasure::CodeError> {
/// let lrc = Lrc::new(LrcParams::XORBAS)?;
/// assert!(!lrc.is_mds());
/// assert!((lrc.storage_overhead() - 1.6).abs() < 1e-9);
///
/// // A single data failure is repaired inside its local group of 5:
/// let mut available = vec![true; 16];
/// available[2] = false;
/// let reads = lrc.repair_reads(2, &available, 64)?;
/// assert_eq!(reads.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lrc {
    lrc_params: LrcParams,
    params: CodeParams,
    /// Full `n × k` generator matrix (identity, local XOR rows, global rows).
    generator: Matrix,
}

impl Lrc {
    /// Creates a local reconstruction code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if any dimension is zero, if
    /// there are more groups than data shards, or the stripe exceeds 256
    /// shards.
    pub fn new(lrc_params: LrcParams) -> Result<Self, CodeError> {
        let LrcParams {
            k,
            local_groups: l,
            global_parities: g,
        } = lrc_params;
        if k == 0 || l == 0 || g == 0 {
            return Err(CodeError::InvalidParams {
                reason: "k, local_groups and global_parities must all be positive".into(),
            });
        }
        if l > k {
            return Err(CodeError::InvalidParams {
                reason: "cannot have more local groups than data shards".into(),
            });
        }
        let params = CodeParams::new(k, l + g)?;
        let global = ReedSolomon::new(k, g)?;

        // Identity rows, then one XOR row per local group: contiguous,
        // nearly equal groups, the first (k mod l) one member larger.
        let n = lrc_params.total_shards();
        let mut generator = Matrix::zero(n, k);
        for i in 0..k {
            generator.set(i, i, 1);
        }
        let mut next = 0;
        for gi in 0..l {
            let size = k / l + usize::from(gi < k % l);
            for m in next..next + size {
                generator.set(k + gi, m, 1);
            }
            next += size;
        }
        for j in 0..g {
            for (c, &coeff) in global.parity_row(j).iter().enumerate() {
                generator.set(k + l + j, c, coeff);
            }
        }

        Ok(Lrc {
            lrc_params,
            params,
            generator,
        })
    }

    /// The LRC-specific parameters.
    pub fn lrc_params(&self) -> LrcParams {
        self.lrc_params
    }

    /// Index of the local parity shard of `group`.
    pub fn local_parity_index(&self, group: usize) -> usize {
        self.lrc_params.k + group
    }
}

impl ErasureCode for Lrc {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn name(&self) -> String {
        format!(
            "LRC({}, {}, {})",
            self.lrc_params.k, self.lrc_params.local_groups, self.lrc_params.global_parities
        )
    }

    fn generator(&self) -> &Matrix {
        &self.generator
    }

    fn is_mds(&self) -> bool {
        false
    }

    fn fault_tolerance(&self) -> usize {
        // Any pattern of up to `global_parities` failures is recoverable:
        // failed local parities are recomputed from data, and the remaining
        // failures are covered by the (k, g) MDS global code. Many larger
        // patterns are also recoverable, but not all.
        self.lrc_params.global_parities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardBuffer;

    /// Each local group's data shards, read off its local parity's row.
    fn groups(lrc: &Lrc) -> Vec<Vec<usize>> {
        let LrcParams {
            k, local_groups, ..
        } = lrc.lrc_params();
        (0..local_groups)
            .map(|gi| {
                let row = lrc.generator().row(lrc.local_parity_index(gi));
                (0..k).filter(|&c| row[c] != 0).collect()
            })
            .collect()
    }

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// Encodes `data` into a full stripe buffer, data shards first.
    fn full_stripe(lrc: &Lrc, data: &[Vec<u8>]) -> ShardBuffer {
        let mut stripe = ShardBuffer::zeroed(lrc.params().total_shards(), data[0].len());
        for (i, shard) in data.iter().enumerate() {
            stripe.shard_mut(i).copy_from_slice(shard);
        }
        let (data, mut parity) = stripe.split_mut(data.len());
        lrc.encode_into(&data, &mut parity).unwrap();
        stripe
    }

    /// Fills the `lost` slots with garbage and rebuilds them in place.
    fn erase_and_reconstruct(
        lrc: &Lrc,
        stripe: &mut ShardBuffer,
        lost: &[usize],
    ) -> Result<(), CodeError> {
        let mut present = vec![true; stripe.shard_count()];
        for &i in lost {
            present[i] = false;
            stripe.shard_mut(i).fill(0xEE);
        }
        lrc.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
    }

    #[test]
    fn xorbas_parameters() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        assert_eq!(lrc.name(), "LRC(10, 2, 4)");
        assert_eq!(lrc.params().total_shards(), 16);
        assert!((lrc.storage_overhead() - 1.6).abs() < 1e-12);
        assert_eq!(lrc.fault_tolerance(), 4);
        assert!(!lrc.is_mds());
        assert_eq!(lrc.local_parity_index(1), 11);
        assert_eq!(groups(&lrc), [vec![0, 1, 2, 3, 4], vec![5, 6, 7, 8, 9]]);
    }

    #[test]
    fn invalid_parameters() {
        assert!(Lrc::new(LrcParams {
            k: 0,
            local_groups: 1,
            global_parities: 1
        })
        .is_err());
        assert!(Lrc::new(LrcParams {
            k: 4,
            local_groups: 5,
            global_parities: 1
        })
        .is_err());
        assert!(Lrc::new(LrcParams {
            k: 4,
            local_groups: 2,
            global_parities: 0
        })
        .is_err());
    }

    #[test]
    fn uneven_groups() {
        let lrc = Lrc::new(LrcParams {
            k: 7,
            local_groups: 3,
            global_parities: 2,
        })
        .unwrap();
        assert_eq!(groups(&lrc), [vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn encode_and_verify() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let data = sample_data(10, 64);
        let all = full_stripe(&lrc, &data);
        assert_eq!(all.shard_count(), 16);
        // Re-encoding over stale parity reproduces the stripe.
        let mut again = all.clone();
        again.shard_mut(13).fill(0xEE);
        let (d, mut p) = again.split_mut(10);
        lrc.encode_into(&d, &mut p).unwrap();
        assert_eq!(again, all);
        // Local parity 0 really is the XOR of group 0.
        let mut expect = [0u8; 64];
        for shard in &data[..5] {
            for (e, b) in expect.iter_mut().zip(shard) {
                *e ^= b;
            }
        }
        assert_eq!(all.shard(10), expect);
    }

    #[test]
    fn single_failure_repairs_locally() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let data = sample_data(10, 48);
        let all = full_stripe(&lrc, &data);
        for target in 0..12 {
            // data shards and local parities repair within the group of 5 + 1
            let mut available = vec![true; 16];
            available[target] = false;
            let reads = lrc.repair_reads(target, &available, 48).unwrap();
            assert_eq!(reads.len(), 5, "target {target}");
            // Execute the repair and check the bytes.
            let mut stripe = all.clone();
            stripe.shard_mut(target).fill(0xEE);
            let mut out = vec![0u8; 48];
            lrc.repair_into(target, &stripe.as_set(), &mut out).unwrap();
            assert_eq!(out, all.shard(target), "target {target}");
        }
    }

    #[test]
    fn global_parity_repair_reads_nine_searched_shards() {
        // The search finds, for every global parity, 9 other shards whose
        // rows span its row: one fewer than the k = 10 a global decode reads.
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let all = full_stripe(&lrc, &sample_data(10, 48));
        for target in 12..16 {
            let mut available = vec![true; 16];
            available[target] = false;
            let reads = lrc.repair_reads(target, &available, 48).unwrap();
            assert_eq!(reads.len(), 9, "target {target}");
            // Rebuilt from only those shards, every other slot garbage.
            let mut helpers = ShardBuffer::zeroed(16, 48);
            for i in 0..16 {
                helpers.shard_mut(i).fill(0xEE);
            }
            for read in &reads {
                helpers
                    .shard_mut(read.shard)
                    .copy_from_slice(all.shard(read.shard));
            }
            let mut out = vec![0u8; 48];
            lrc.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
                .unwrap();
            assert_eq!(out, all.shard(target), "target {target}");
        }
    }

    #[test]
    fn global_fallback_reads_the_lowest_ranked_shards() {
        // Shards 0 and 1 of one group are lost, so shard 0 takes the global
        // decode. Ranking shards 2–4 last keeps them out of it: the ten
        // lowest-ranked independent shards are 5–10 and 12–15 (local
        // parity 11 is the sum of 5–9), not the ten lowest-indexed.
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let all = full_stripe(&lrc, &sample_data(10, 48));
        let mut available = vec![true; 16];
        available[0] = false;
        available[1] = false;
        let rank = |shard: usize| u64::from(shard < 5);
        let reads = lrc.repair_reads_ranked(0, &available, 48, &rank).unwrap();
        let shards: Vec<usize> = reads.iter().map(|read| read.shard).collect();
        assert_eq!(shards, [5, 6, 7, 8, 9, 10, 12, 13, 14, 15]);
        let mut out = vec![0u8; 48];
        lrc.repair_from_reads(0, &reads, &all.as_set(), &mut out)
            .unwrap();
        assert_eq!(out, all.shard(0));
    }

    #[test]
    fn local_repair_falls_back_when_group_is_damaged() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let mut available = vec![true; 16];
        available[0] = false;
        available[1] = false; // same group -> local plan impossible for 0
        let reads = lrc.repair_reads_ranked(0, &available, 48, &|_| 0).unwrap();
        assert_eq!(reads.len(), 10, "global fallback downloads k shards");
    }

    #[test]
    fn reconstruct_up_to_global_parity_failures() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let data = sample_data(10, 32);
        let all = full_stripe(&lrc, &data);
        // Any 4 failures must be recoverable (fault_tolerance = 4). Spot-check
        // a set of patterns including data, local and global shards.
        let patterns: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![0, 5, 10, 12],
            vec![10, 11, 12, 13],
            vec![12, 13, 14, 15],
            vec![4, 9, 11, 14],
            vec![0, 1, 5, 6],
        ];
        for pattern in patterns {
            let mut stripe = all.clone();
            erase_and_reconstruct(&lrc, &mut stripe, &pattern).unwrap();
            assert_eq!(stripe, all, "pattern {pattern:?}");
        }
    }

    #[test]
    fn reconstruct_can_exceed_guarantee_when_failures_are_spread() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let data = sample_data(10, 32);
        let all = full_stripe(&lrc, &data);
        // 5 failures: one data in group 0 (locally repairable), plus 4 spread
        // over the globally-protected shards.
        let mut stripe = all.clone();
        erase_and_reconstruct(&lrc, &mut stripe, &[0, 5, 12, 13, 14]).unwrap();
        assert_eq!(stripe, all);
    }

    #[test]
    fn some_patterns_beyond_guarantee_fail() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let data = sample_data(10, 32);
        let all = full_stripe(&lrc, &data);
        // 6 failures concentrated on group 0 data + its local parity cannot be
        // decoded: only 9 independent equations remain for 10 unknowns.
        let mut stripe = all.clone();
        assert!(erase_and_reconstruct(&lrc, &mut stripe, &[0, 1, 2, 3, 4, 10]).is_err());
    }

    #[test]
    fn average_repair_fraction_beats_rs_but_storage_is_worse() {
        let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
        let rs = crate::ReedSolomon::new(10, 4).unwrap();
        assert!(lrc.average_repair_fraction() < rs.average_repair_fraction());
        assert!(lrc.storage_overhead() > rs.storage_overhead());
    }

    #[test]
    fn small_lrc_full_erasure_sweep_within_guarantee() {
        // k=4, l=2, g=2 (n=8): exhaustively test all failure patterns of size
        // <= 2 = fault tolerance.
        let lrc = Lrc::new(LrcParams {
            k: 4,
            local_groups: 2,
            global_parities: 2,
        })
        .unwrap();
        let data = sample_data(4, 16);
        let all = full_stripe(&lrc, &data);
        for a in 0..8 {
            for b in a..8 {
                let mut stripe = all.clone();
                erase_and_reconstruct(&lrc, &mut stripe, &[a, b]).unwrap();
                assert_eq!(stripe, all, "failures ({a},{b})");
            }
        }
    }
}
