//! N-way replication expressed as an erasure code.
//!
//! The warehouse cluster stores frequently accessed data as 3 replicas; the
//! paper uses 3× replication as the storage-overhead baseline (3× versus
//! 1.4× for the (10, 4) RS code). Modelling it through the same
//! [`ErasureCode`] trait lets the simulator and the comparison tables treat
//! all schemes uniformly: replication has `k = 1`, `r = replicas − 1`, and a
//! single-shard repair copies exactly one replica.

use pbrs_gf::Matrix;

use crate::{CodeError, CodeParams, ErasureCode};

/// N-way replication (`k = 1`, `r = replicas − 1`).
///
/// # Example
///
/// ```
/// use pbrs_erasure::{total_read_bytes, ErasureCode, Replication};
///
/// # fn main() -> Result<(), pbrs_erasure::CodeError> {
/// let rep = Replication::new(3)?;
/// assert_eq!(rep.storage_overhead(), 3.0);
///
/// // Recovery copies exactly one replica — this is why replication is cheap
/// // on the network and expensive on disk capacity.
/// let reads = rep.repair_reads(0, &[false, true, true], 64)?;
/// assert_eq!(reads.len(), 1);
/// assert_eq!(total_read_bytes(&reads), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replication {
    params: CodeParams,
    /// `n × 1` all-ones generator: every shard is the one data symbol.
    generator: Matrix,
}

impl Replication {
    /// Creates an n-way replication scheme storing `replicas` total copies.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `replicas < 2` or
    /// `replicas > 256`.
    pub fn new(replicas: usize) -> Result<Self, CodeError> {
        if replicas < 2 {
            return Err(CodeError::InvalidParams {
                reason: "replication needs at least 2 copies".into(),
            });
        }
        Ok(Replication {
            params: CodeParams::new(1, replicas - 1)?,
            generator: Matrix::from_rows(replicas, 1, vec![1; replicas]),
        })
    }

    /// The cluster's default scheme: 3 replicas.
    pub fn triple() -> Self {
        // pbrs-lint: allow(panic-hygiene) -- the constant 3 is a valid replica count
        Self::new(3).expect("3 replicas are always valid")
    }

    /// Total number of copies stored.
    pub fn replicas(&self) -> usize {
        self.params.total_shards()
    }
}

impl ErasureCode for Replication {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn name(&self) -> String {
        format!("{}-replication", self.replicas())
    }

    fn generator(&self) -> &Matrix {
        &self.generator
    }

    fn is_mds(&self) -> bool {
        // A (1, r) repetition code is trivially MDS.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardBuffer, ShardRead};

    #[test]
    fn parameters_and_overhead() {
        let rep = Replication::triple();
        assert_eq!(rep.replicas(), 3);
        assert_eq!(rep.name(), "3-replication");
        assert_eq!(rep.storage_overhead(), 3.0);
        assert_eq!(rep.fault_tolerance(), 2);
        assert!(rep.is_mds());
        assert!(Replication::new(1).is_err());
        assert!(Replication::new(2).is_ok());
    }

    #[test]
    fn encode_copies() {
        let rep = Replication::triple();
        let mut stripe = ShardBuffer::zeroed(3, 3);
        stripe.shard_mut(0).copy_from_slice(&[7, 8, 9]);
        let (data, mut copies) = stripe.split_mut(1);
        rep.encode_into(&data, &mut copies).unwrap();
        for i in 0..3 {
            assert_eq!(stripe.shard(i), &[7u8, 8, 9]);
        }
    }

    #[test]
    fn reconstruct_from_any_copy() {
        let rep = Replication::triple();
        let mut stripe = ShardBuffer::zeroed(3, 10);
        stripe.shard_mut(0).fill(0xEE);
        stripe.shard_mut(2).fill(42);
        rep.reconstruct_in_place(&mut stripe.as_set_mut(), &[false, false, true])
            .unwrap();
        for i in 0..3 {
            assert_eq!(stripe.shard(i), &[42u8; 10]);
        }
        assert!(rep
            .reconstruct_in_place(&mut stripe.as_set_mut(), &[false; 3])
            .is_err());
    }

    #[test]
    fn repair_downloads_one_copy() {
        let rep = Replication::triple();
        let reads = rep.repair_reads(1, &[true, false, true], 256).unwrap();
        assert_eq!(reads, vec![ShardRead::whole(0, 256)]);

        let mut stripe = ShardBuffer::zeroed(3, 64);
        stripe.shard_mut(0).fill(5);
        stripe.shard_mut(2).fill(5);
        let mut out = vec![0xAAu8; 64];
        rep.repair_into(1, &stripe.as_set(), &mut out).unwrap();
        assert_eq!(out, vec![5u8; 64]);
    }

    #[test]
    fn average_repair_fraction_is_whole_block() {
        // k = 1, so repairing one shard reads exactly one "logical stripe".
        let rep = Replication::triple();
        assert!((rep.average_repair_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repair_plan_error_paths() {
        let rep = Replication::triple();
        assert!(matches!(
            rep.repair_reads_ranked(0, &[false, true], 8, &|_| 0),
            Err(CodeError::ShardCountMismatch { .. })
        ));
        assert!(matches!(
            rep.repair_reads_ranked(5, &[false, true, true], 8, &|_| 0),
            Err(CodeError::InvalidShardIndex { .. })
        ));
        assert!(matches!(
            rep.repair_reads_ranked(0, &[true, true, true], 8, &|_| 0),
            Err(CodeError::TargetNotMissing { .. })
        ));
        assert!(matches!(
            rep.repair_reads_ranked(0, &[false, false, false], 8, &|_| 0),
            Err(CodeError::NotEnoughShards { .. })
        ));
    }
}
