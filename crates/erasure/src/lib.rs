//! Erasure-code abstractions, zero-copy shard views and baseline codes.
//!
//! This crate defines the [`ErasureCode`] trait used throughout the
//! Piggybacked-RS reproduction, together with the three baseline codes the
//! paper compares against or builds upon:
//!
//! * [`ReedSolomon`] — the systematic, MDS `(k, r)` Reed–Solomon code used by
//!   the Facebook warehouse cluster (`k = 10, r = 4` in production);
//! * [`Replication`] — n-way replication (the cluster's default `3×` scheme);
//! * [`Lrc`] — an Azure-style Local Reconstruction Code, discussed in the
//!   paper's related-work section as the non-MDS alternative.
//!
//! The Piggybacked-RS code itself lives in the `pbrs-core` crate and is
//! implemented on top of the [`ReedSolomon`] encoder defined here.
//!
//! # One API: borrowed views over contiguous buffers
//!
//! The paper's argument is entirely about *bytes moved per repair*, so the
//! codec never copies shards before the GF(2^8) kernels run. Every method
//! operates on borrowed views over contiguous buffers ([`ShardSet`] /
//! [`ShardSetMut`]); a missing shard is a `false` in an availability mask
//! over whatever bytes its slot holds, never a separate allocation:
//!
//! * [`ErasureCode::encode_into`] — write `r` parity shards into a caller
//!   provided buffer;
//! * [`ErasureCode::reconstruct_in_place`] — rebuild missing shard slots
//!   inside the stripe buffer itself, guided by an availability mask;
//! * [`ErasureCode::repair_into`] — rebuild one shard into a caller
//!   provided slice, along the code's cheapest single-failure path;
//! * [`ErasureCode::repair_reads`] / [`ErasureCode::repair_from_reads`] —
//!   name the exact helper byte ranges a repair consumes, then rebuild from
//!   only those bytes (the pair the store executes against real disks).
//!
//! None of these allocate shard-sized memory in steady state; the only
//! bookkeeping allocations are `O(n)` index vectors and one `O(k²)` matrix
//! inversion where decoding requires it. [`ShardBuffer`] is an owned stripe
//! buffer for callers that do not already manage their own memory: its data
//! shards sit back to back, so splitting a byte block into `k` shards is a
//! copy into [`ShardBuffer::shard_mut`] and joining them is a prefix of the
//! buffer.
//!
//! # Choosing a code by name
//!
//! [`CodeSpec`] names any code in the workspace as a compact string —
//! `"rs-10-4"`, `"piggyback-10-4"`, `"lrc-10-2-4"`, `"rep-3"` — and the
//! `pbrs-core` crate's `registry::build` turns a spec into a boxed
//! [`ErasureCode`], so the simulator, benches and examples all select codes
//! uniformly.
//!
//! # Recovery cost model
//!
//! The paper's measurements are about *how many bytes cross the racks* when a
//! block is recovered, so every code exposes not only byte-level
//! encode / decode / repair but also a [`RepairPlan`]: the exact set of helper
//! shards and the fraction of each shard that must be read and transferred to
//! rebuild a target shard. The warehouse-cluster simulator in `pbrs-cluster`
//! turns those plans into cross-rack traffic without moving real bytes.
//!
//! # Example
//!
//! ```
//! use pbrs_erasure::{ErasureCode, ReedSolomon, ShardBuffer};
//!
//! # fn main() -> Result<(), pbrs_erasure::CodeError> {
//! let rs = ReedSolomon::new(10, 4)?;
//!
//! // Zero-copy encode: one contiguous stripe buffer, parity written in
//! // place right behind the data it protects.
//! let mut stripe = ShardBuffer::zeroed(14, 64);
//! for i in 0..10 {
//!     stripe.shard_mut(i).fill(i as u8);
//! }
//! let (data, mut parity) = stripe.split_mut(10);
//! rs.encode_into(&data, &mut parity)?;
//!
//! // Lose three shards and rebuild them in place.
//! let mut present = vec![true; 14];
//! for lost in [0, 5, 12] {
//!     present[lost] = false;
//!     stripe.shard_mut(lost).fill(0);
//! }
//! rs.reconstruct_in_place(&mut stripe.as_set_mut(), &present)?;
//! assert_eq!(stripe.shard(0), &[0u8; 64]);
//! assert_eq!(stripe.shard(5), &[5u8; 64]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod error;
pub mod lrc;
pub mod params;
pub mod reed_solomon;
pub mod repair;
pub mod replication;
pub mod spec;
pub mod views;

pub use error::CodeError;
pub use lrc::{Lrc, LrcParams};
pub use params::CodeParams;
pub use reed_solomon::ReedSolomon;
pub use repair::{
    reads_for_shard, total_read_bytes, FetchRequest, Fraction, RepairMetrics, RepairPlan, ShardRead,
};
pub use replication::Replication;
pub use spec::CodeSpec;
pub use views::{ShardBuffer, ShardSet, ShardSetMut, SplitShards};

/// A `(k, r)` erasure code over byte shards.
///
/// Implementations encode `k` equally sized data shards into `r` parity
/// shards and can rebuild missing shards from any sufficiently large subset
/// of the survivors. All shards of a stripe have the same length, which must
/// be a multiple of [`ErasureCode::granularity`].
///
/// The three `*_into` / `*_in_place` methods are the core every code
/// implements natively; none of them allocates shard-sized memory.
pub trait ErasureCode {
    /// The `(k, r)` parameters of the code.
    fn params(&self) -> CodeParams;

    /// A human-readable name used in reports and benchmark output.
    fn name(&self) -> String;

    /// Shard lengths must be a multiple of this many bytes.
    ///
    /// Plain Reed–Solomon operates byte-by-byte (granularity 1); the
    /// Piggybacked-RS code couples two byte-level stripes and therefore
    /// requires even shard lengths (granularity 2).
    fn granularity(&self) -> usize {
        1
    }

    /// Encodes `k` data shards into `r` parity shards, writing the parity
    /// bytes into a caller-provided view. Performs no shard-sized
    /// allocation.
    ///
    /// `data` must hold exactly `k` shards and `parity` exactly `r` slots of
    /// the same length; any prior contents of `parity` are overwritten.
    ///
    /// # Errors
    ///
    /// Returns an error if either view has the wrong shard count, if the
    /// lengths differ, or if the length is not a multiple of
    /// [`ErasureCode::granularity`].
    fn encode_into(
        &self,
        data: &ShardSet<'_>,
        parity: &mut ShardSetMut<'_>,
    ) -> Result<(), CodeError>;

    /// Rebuilds every missing shard of a stripe in place. Performs no
    /// shard-sized allocation.
    ///
    /// `shards` holds all `k + r` shard slots (data first); `present[i]`
    /// says whether slot `i` currently holds valid bytes. Present slots are
    /// never modified; the contents of missing slots on entry are ignored
    /// and overwritten with the reconstructed bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the view or mask have the wrong width, if the
    /// shard length is unaligned, or if too many shards are missing for this
    /// code.
    fn reconstruct_in_place(
        &self,
        shards: &mut ShardSetMut<'_>,
        present: &[bool],
    ) -> Result<(), CodeError>;

    /// Rebuilds the single shard `target` into `out`, reading helpers along
    /// the code's cheapest single-failure path (the one priced by
    /// [`ErasureCode::repair_plan`]). Performs no shard-sized allocation.
    ///
    /// `helpers` must hold all `k + r` shard slots; every slot other than
    /// `target` must contain valid bytes (the `target` slot's contents are
    /// ignored). `out` must be exactly one shard long.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed view, an out-of-range `target`, or
    /// an `out` slice whose length is not one shard.
    fn repair_into(
        &self,
        target: usize,
        helpers: &ShardSet<'_>,
        out: &mut [u8],
    ) -> Result<(), CodeError>;

    /// Computes the cheapest supported plan for rebuilding shard `target`
    /// given the availability mask `available` (length `k + r`).
    ///
    /// The default plan downloads `k` whole surviving shards, which is the
    /// Reed–Solomon behaviour the paper measures in production.
    ///
    /// # Errors
    ///
    /// Returns an error if `target` is out of range, if `target` is marked
    /// available, or if too few shards survive.
    fn repair_plan(&self, target: usize, available: &[bool]) -> Result<RepairPlan, CodeError> {
        default_repair_plan(self.params(), target, available)
    }

    /// The concrete byte ranges of the helper shards that
    /// [`ErasureCode::repair_into`] reads when rebuilding shard `target`,
    /// for shards of `shard_len` bytes.
    ///
    /// This is the byte-exact companion of [`ErasureCode::repair_plan`]: the
    /// plan prices the repair in shard fractions, while these ranges pin the
    /// fractions to offsets, so a caller executing the repair against real
    /// storage can read (and account) exactly the bytes the rebuild
    /// consumes. The contract every implementation upholds: when the helper
    /// view holds valid bytes *within the returned ranges*,
    /// [`ErasureCode::repair_into`] produces the correct shard — bytes
    /// outside the ranges are never read, so callers may leave them zeroed.
    ///
    /// `available` must mark every shard except `target` as present — the
    /// same single-failure precondition as [`ErasureCode::repair_into`],
    /// whose read set these ranges describe. Degraded masks are rejected;
    /// use [`ErasureCode::repair_plan`] to price those.
    ///
    /// The default derives prefix ranges from the plan's fractions, which is
    /// exact for every code whose plans read whole shards (RS, replication,
    /// LRC). Codes with sub-shard reads (Piggybacked-RS reads half-shards)
    /// override this to name the actual halves.
    ///
    /// # Errors
    ///
    /// Returns an error for an unaligned `shard_len`, a mask with more
    /// shards missing than `target`, plus the same failure modes as
    /// [`ErasureCode::repair_plan`].
    fn repair_reads(
        &self,
        target: usize,
        available: &[bool],
        shard_len: usize,
    ) -> Result<Vec<ShardRead>, CodeError> {
        if shard_len == 0 || !shard_len.is_multiple_of(self.granularity()) {
            return Err(CodeError::UnalignedShard {
                len: shard_len,
                granularity: self.granularity(),
            });
        }
        let plan = self.repair_plan(target, available)?;
        validate_single_failure_mask(target, available)?;
        Ok(plan
            .fetches
            .iter()
            .map(|f| ShardRead {
                shard: f.shard,
                offset: 0,
                // pbrs-lint: allow(panic-hygiene) -- a fraction of shard_len is at most shard_len, which is a usize
                len: usize::try_from(f.fraction.bytes_of(shard_len)).expect("range fits a shard"),
            })
            .collect())
    }

    /// [`ErasureCode::repair_reads`] with a helper-preference hook: when the
    /// code has freedom in choosing its helpers, shards with a *lower*
    /// `rank(shard)` are preferred (ties broken by shard index).
    ///
    /// This is how placement-aware callers (the store's locality-first
    /// repair scheduler) steer repairs toward cheap helpers — rank same-rack
    /// survivors 0 and cross-rack survivors 1 and an MDS code will read as
    /// many same-rack helpers as its mathematics allows. Codes whose plans
    /// are structurally fixed (Piggybacked-RS reads specific half-shards,
    /// LRC reads its local group) ignore the rank and return their canonical
    /// reads — preference never changes *how many* bytes a code reads, only
    /// *where* it reads them when equivalent choices exist.
    ///
    /// Execute the returned reads with [`ErasureCode::repair_from_reads`],
    /// which honours whatever helper choice was made here; plain
    /// [`ErasureCode::repair_into`] assumes the canonical read set.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ErasureCode::repair_reads`].
    fn repair_reads_ranked(
        &self,
        target: usize,
        available: &[bool],
        shard_len: usize,
        rank: &dyn Fn(usize) -> u64,
    ) -> Result<Vec<ShardRead>, CodeError> {
        let _ = rank; // the canonical plan has no helper freedom to exercise
        self.repair_reads(target, available, shard_len)
    }

    /// Rebuilds shard `target` from exactly the helper bytes covered by
    /// `reads` — the execution companion of
    /// [`ErasureCode::repair_reads_ranked`].
    ///
    /// `reads` must be the ranges returned by a
    /// [`ErasureCode::repair_reads`] / [`ErasureCode::repair_reads_ranked`]
    /// call on this code for the same `target` and shard length; bytes of
    /// `helpers` outside those ranges are never touched and may be stale.
    /// The default delegates to [`ErasureCode::repair_into`], which is
    /// correct for every code whose read set is canonical; codes that honour
    /// a ranked helper choice (RS, replication) override it to rebuild from
    /// the shards the reads actually name.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ErasureCode::repair_into`], plus
    /// [`CodeError::ReconstructionFailed`] when `reads` does not describe a
    /// decodable helper set for `target`.
    fn repair_from_reads(
        &self,
        target: usize,
        reads: &[ShardRead],
        helpers: &ShardSet<'_>,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let _ = reads; // canonical read set == repair_into's read set
        self.repair_into(target, helpers, out)
    }

    /// Storage overhead of the code: total shards divided by data shards
    /// (1.4 for the warehouse cluster's (10, 4) RS code, 3.0 for 3-way
    /// replication).
    fn storage_overhead(&self) -> f64 {
        self.params().storage_overhead()
    }

    /// Number of shard failures the code is guaranteed to tolerate.
    fn fault_tolerance(&self) -> usize {
        self.params().parity_shards()
    }

    /// Whether the code is Maximum Distance Separable, i.e. storage optimal
    /// for its fault tolerance. RS and Piggybacked-RS are; LRC is not.
    fn is_mds(&self) -> bool;

    /// Average fraction of the stripe's logical data that must be read and
    /// transferred to repair a single shard, averaged over all `k + r`
    /// shards with equal weight.
    ///
    /// For a `(k, r)` RS code this is exactly 1.0 (the whole logical stripe);
    /// the Piggybacked-RS code pushes it down by roughly 30 % for (10, 4).
    fn average_repair_fraction(&self) -> f64 {
        let params = self.params();
        let n = params.total_shards();
        let mut total = 0.0;
        for target in 0..n {
            let mut available = vec![true; n];
            available[target] = false;
            let plan = self
                .repair_plan(target, &available)
                // pbrs-lint: allow(panic-hygiene) -- every Code guarantees a plan for a single failure
                .expect("single-failure repair plan must exist");
            total += plan.total_fraction();
        }
        // Normalise by k so the figure is "stripe logical size" units.
        total / (n as f64 * params.data_shards() as f64)
    }
}

/// Rejects availability masks with any shard other than `target` missing —
/// the precondition of [`ErasureCode::repair_reads`], whose ranges describe
/// the fixed read set of [`ErasureCode::repair_into`] (which itself assumes
/// every non-target shard is valid).
///
/// # Errors
///
/// Returns [`CodeError::NotEnoughShards`] when additional shards are
/// missing.
pub fn validate_single_failure_mask(target: usize, available: &[bool]) -> Result<(), CodeError> {
    let missing_others = available
        .iter()
        .enumerate()
        .filter(|&(i, &a)| !a && i != target)
        .count();
    if missing_others > 0 {
        return Err(CodeError::NotEnoughShards {
            needed: available.len() - 1,
            available: available.len() - 1 - missing_others,
        });
    }
    Ok(())
}

/// The classic Reed–Solomon repair plan: read `k` whole surviving shards.
///
/// Exposed so that other codes (and the simulator) can reference the baseline
/// cost without instantiating a codec.
///
/// # Errors
///
/// Returns an error if `target` is out of range or marked available, if the
/// availability mask has the wrong length, or if fewer than `k` helpers
/// survive.
pub fn default_repair_plan(
    params: CodeParams,
    target: usize,
    available: &[bool],
) -> Result<RepairPlan, CodeError> {
    let n = params.total_shards();
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
    let helpers: Vec<usize> = (0..n).filter(|&i| available[i] && i != target).collect();
    if helpers.len() < params.data_shards() {
        return Err(CodeError::NotEnoughShards {
            needed: params.data_shards(),
            available: helpers.len(),
        });
    }
    let fetches = helpers
        .into_iter()
        .take(params.data_shards())
        .map(|shard| FetchRequest {
            shard,
            fraction: Fraction::ONE,
        })
        .collect();
    Ok(RepairPlan { target, fetches })
}
