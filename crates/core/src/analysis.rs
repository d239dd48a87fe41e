//! Theoretical repair-cost analysis.
//!
//! Section 3 of the paper claims that the proposed (10, 4) Piggybacked-RS
//! code "saves around 30 % on average in the amount of read and download for
//! recovery of single block failures" while remaining storage optimal. The
//! functions here compute those numbers exactly — per shard, averaged over
//! data shards, and averaged over all shards — for any `(k, r)` and any
//! piggyback design, directly from the repair reads the code actually uses
//! ([`ErasureCode::single_loss_reads`]).

use pbrs_erasure::{total_read_bytes, CodeError, ErasureCode};

use crate::code::PiggybackedRs;

/// Repair cost of one shard, in units of the stripe's logical data size
/// (`k` shard-equivalents = 1.0, matching how the paper reports "amount of
/// read and download").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRepairCost {
    /// The shard index within the stripe.
    pub shard: usize,
    /// `true` for data shards, `false` for parity shards.
    pub is_data: bool,
    /// Number of helper shards contacted.
    pub helpers: usize,
    /// Shard-equivalents downloaded (e.g. 6.5 for a (10,4) piggybacked data
    /// shard in a group of 3; 10.0 under plain RS).
    pub shards_downloaded: f64,
    /// Fraction of the stripe's logical size downloaded
    /// (`shards_downloaded / k`).
    pub fraction_of_stripe: f64,
    /// Relative saving versus the `(k, r)` RS baseline (which always
    /// downloads `k` shards), in `[0, 1)`.
    pub saving_vs_rs: f64,
}

impl NodeRepairCost {
    /// The single-loss repair cost of every shard of `code`, in shard
    /// order, read off [`ErasureCode::single_loss_reads`]: a read of `len`
    /// bytes there is `len / granularity()` of a shard.
    pub fn of_every_shard<C: ErasureCode + ?Sized>(code: &C) -> Vec<NodeRepairCost> {
        let params = code.params();
        let (k, g) = (params.data_shards() as f64, code.granularity() as f64);
        let table = code.single_loss_reads();
        table
            .iter()
            .enumerate()
            .map(|(shard, reads)| {
                let shards_downloaded = total_read_bytes(reads) as f64 / g;
                NodeRepairCost {
                    shard,
                    is_data: params.is_data_shard(shard),
                    helpers: reads.len(),
                    shards_downloaded,
                    fraction_of_stripe: shards_downloaded / k,
                    saving_vs_rs: 1.0 - shards_downloaded / k,
                }
            })
            .collect()
    }
}

/// Single-failure repair costs of a Piggybacked-RS code, shard by shard,
/// with the averages the paper quotes.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsReport {
    /// Data shards `k`.
    pub k: usize,
    /// Parity shards `r`.
    pub r: usize,
    /// Per-shard repair costs (length `k + r`).
    pub per_shard: Vec<NodeRepairCost>,
    /// Average saving versus RS over the `k` data shards only.
    pub average_data_saving: f64,
    /// Average saving versus RS over all `k + r` shards, weighting every
    /// shard equally (the warehouse cluster places every block of a stripe
    /// on its own machine, so each is equally likely to need recovery).
    pub average_all_saving: f64,
    /// Average shard-equivalents downloaded per single-shard repair,
    /// over all shards.
    pub average_shards_downloaded: f64,
}

impl SavingsReport {
    /// Computes the report for a Piggybacked-RS code from its single-loss
    /// repair costs ([`NodeRepairCost::of_every_shard`]).
    pub fn for_code(code: &PiggybackedRs) -> Self {
        let params = code.params();
        let per_shard = NodeRepairCost::of_every_shard(code);
        let data_costs: Vec<&NodeRepairCost> = per_shard.iter().filter(|c| c.is_data).collect();
        let average_data_saving =
            data_costs.iter().map(|c| c.saving_vs_rs).sum::<f64>() / data_costs.len() as f64;
        let average_all_saving =
            per_shard.iter().map(|c| c.saving_vs_rs).sum::<f64>() / per_shard.len() as f64;
        let average_shards_downloaded =
            per_shard.iter().map(|c| c.shards_downloaded).sum::<f64>() / per_shard.len() as f64;
        SavingsReport {
            k: params.data_shards(),
            r: params.parity_shards(),
            per_shard,
            average_data_saving,
            average_all_saving,
            average_shards_downloaded,
        }
    }

    /// Computes the report for the default balanced design of a `(k, r)`
    /// code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for unsupported parameters.
    pub fn for_params(k: usize, r: usize) -> Result<Self, CodeError> {
        Ok(SavingsReport::for_code(&PiggybackedRs::new(k, r)?))
    }

    /// Average shard-equivalents downloaded for a single *data* shard repair.
    pub fn average_data_shards_downloaded(&self) -> f64 {
        let data: Vec<&NodeRepairCost> = self.per_shard.iter().filter(|c| c.is_data).collect();
        data.iter().map(|c| c.shards_downloaded).sum::<f64>() / data.len() as f64
    }
}

/// A side-by-side comparison of storage and repair characteristics of one
/// code against the `(k, r)` RS baseline, used by the paper-style comparison
/// table (experiment E7).
#[derive(Debug, Clone, PartialEq)]
pub struct CodeComparison {
    /// Display name of the code.
    pub name: String,
    /// Storage overhead (total/data).
    pub storage_overhead: f64,
    /// Guaranteed fault tolerance (shards).
    pub fault_tolerance: usize,
    /// Whether the code is MDS (storage optimal).
    pub is_mds: bool,
    /// Average fraction of the stripe's logical size read+downloaded to
    /// repair a single shard (averaged over all shards).
    pub average_repair_fraction: f64,
    /// Average number of whole shards (blocks) downloaded to repair a single
    /// shard — the unit the paper's cross-rack traffic measurements use
    /// (10 blocks for the production RS code, 1 for replication).
    pub average_blocks_per_repair: f64,
}

impl CodeComparison {
    /// Builds the comparison row for any erasure code.
    pub fn of<C: ErasureCode + ?Sized>(code: &C) -> Self {
        let fraction = code.average_repair_fraction();
        CodeComparison {
            name: code.name(),
            storage_overhead: code.storage_overhead(),
            fault_tolerance: code.fault_tolerance(),
            is_mds: code.is_mds(),
            average_repair_fraction: fraction,
            average_blocks_per_repair: fraction * code.params().data_shards() as f64,
        }
    }

    /// Relative repair-traffic saving of this code versus a `(k, r)` RS code
    /// (which always reads the whole logical stripe).
    pub fn saving_vs_rs(&self) -> f64 {
        1.0 - self.average_repair_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbrs_erasure::{Lrc, LrcParams, ReedSolomon, Replication};

    #[test]
    fn facebook_savings_match_paper_claims() {
        let report = SavingsReport::for_params(10, 4).unwrap();
        assert_eq!(report.k, 10);
        assert_eq!(report.r, 4);
        assert_eq!(report.per_shard.len(), 14);

        // Per-shard numbers: groups of size 4, 3, 3 -> 7.0 or 6.5 shards for
        // data. A parity reads every data b-half plus the 9 other half-chunks
        // the search found (19 halves = 9.5 shards) from 12 helpers.
        for c in &report.per_shard {
            if c.is_data {
                assert!(c.shards_downloaded == 7.0 || c.shards_downloaded == 6.5);
                assert_eq!(c.helpers, 11);
            } else {
                assert_eq!(c.shards_downloaded, 9.5);
                assert_eq!(c.helpers, 12);
            }
        }

        // Paper §3.1-3.2: "saves around 30% on average ... for recovery of
        // single block failures". The data-shard average is 33%, the
        // all-shard average 25% ((6·6.5 + 4·7 + 4·9.5) / 14 = 7.5 of 10
        // shards); both bracket the paper's rounded claim.
        assert!(
            (report.average_data_saving - 0.33).abs() < 0.005,
            "{}",
            report.average_data_saving
        );
        assert!(
            (report.average_all_saving - 0.25).abs() < 0.005,
            "{}",
            report.average_all_saving
        );
        assert!(report.average_data_saving >= 0.30);
        let avg_data_dl = report.average_data_shards_downloaded();
        assert!((avg_data_dl - 6.7).abs() < 1e-9);
    }

    #[test]
    fn toy_example_savings() {
        // The paper's Fig. 4 example: only shard 0 is piggybacked, so only it
        // saves (3 bytes instead of 4 = 25%).
        let report = SavingsReport::for_code(&crate::toy::toy_example());
        assert_eq!(report.per_shard[0].shards_downloaded, 1.5);
        assert!((report.per_shard[0].saving_vs_rs - 0.25).abs() < 1e-12);
        assert_eq!(report.per_shard[1].shards_downloaded, 2.0);
        assert_eq!(report.per_shard[2].shards_downloaded, 2.0);
        assert_eq!(report.per_shard[3].shards_downloaded, 2.0);
    }

    #[test]
    fn savings_grow_with_more_parities() {
        // More parities -> smaller groups -> bigger savings.
        let saving = |r| {
            SavingsReport::for_params(10, r)
                .unwrap()
                .average_data_saving
        };
        let (s2, s3, s4, s5) = (saving(2), saving(3), saving(4), saving(5));
        assert!(s2 < s3 && s3 < s4 && s4 < s5);
        // r = 2 puts every data shard in one group of size k, so the
        // piggyback itself buys nothing. What the generator still allows
        // comes from RS(10, 2)'s second parity row, whose coefficients at
        // data shards 4 and 8 are equal (both 62): its a-half and the
        // piggyback sum then cancel a_4 and a_8 at once, and every other
        // data shard reads 19 half-chunks instead of 20, a saving of
        // 8 × 0.05 / 10 = 4 % over the data shards. Larger r stays below
        // the 50% asymptote of two-substripe piggybacking.
        assert!((s2 - 0.04).abs() < 1e-12, "{s2}");
        for s in [s2, s3, s4, s5] {
            assert!((0.0..0.5).contains(&s));
        }
    }

    #[test]
    fn single_parity_code_has_no_savings() {
        let report = SavingsReport::for_params(6, 1).unwrap();
        assert_eq!(report.average_data_saving, 0.0);
        assert_eq!(report.average_all_saving, 0.0);
        assert_eq!(report.average_shards_downloaded, 6.0);
    }

    #[test]
    fn comparison_rows_reflect_the_papers_tradeoffs() {
        let rs = CodeComparison::of(&ReedSolomon::new(10, 4).unwrap());
        let pb = CodeComparison::of(&PiggybackedRs::facebook());
        let lrc = CodeComparison::of(&Lrc::new(LrcParams::XORBAS).unwrap());
        let rep = CodeComparison::of(&Replication::triple());

        // Storage optimality: RS and Piggybacked-RS are MDS at 1.4x; LRC needs
        // 1.6x; replication needs 3x.
        assert!(rs.is_mds && pb.is_mds && !lrc.is_mds && rep.is_mds);
        assert!((rs.storage_overhead - 1.4).abs() < 1e-12);
        assert!((pb.storage_overhead - 1.4).abs() < 1e-12);
        assert!((lrc.storage_overhead - 1.6).abs() < 1e-12);
        assert!((rep.storage_overhead - 3.0).abs() < 1e-12);

        // Repair traffic per failed block: RS downloads 10 blocks;
        // Piggybacked-RS ~7.6; LRC fewer still; replication exactly 1.
        assert!((rs.average_repair_fraction - 1.0).abs() < 1e-12);
        assert!((rs.average_blocks_per_repair - 10.0).abs() < 1e-12);
        assert!(pb.average_repair_fraction < rs.average_repair_fraction);
        assert!(pb.saving_vs_rs() > 0.2);
        assert!(pb.average_blocks_per_repair < 8.0 && pb.average_blocks_per_repair > 7.0);
        assert!(lrc.average_blocks_per_repair < pb.average_blocks_per_repair);
        assert!((rep.average_blocks_per_repair - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_propagate() {
        assert!(SavingsReport::for_params(0, 4).is_err());
        assert!(SavingsReport::for_params(300, 300).is_err());
    }
}
