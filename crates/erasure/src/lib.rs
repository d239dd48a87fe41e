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
//! * [`ErasureCode::repair_reads_ranked`] / [`ErasureCode::repair_from_reads`]
//!   — name the exact helper byte ranges a repair consumes, then rebuild
//!   from only those bytes (the pair the store executes against real
//!   disks); [`ErasureCode::repair_reads`] and [`ErasureCode::repair_into`]
//!   are the same pair for a single failure with no helper preference.
//!
//! None of these allocate shard-sized memory in steady state; the only
//! bookkeeping allocations are `O(n)` index vectors and one small GF(2^8)
//! elimination where decoding or repair requires it. [`ShardBuffer`] is an
//! owned stripe buffer for callers that do not already manage their own
//! memory: its data shards sit back to back, so splitting a byte block into
//! `k` shards is a copy into [`ShardBuffer::shard_mut`] and joining them is
//! a prefix of the buffer.
//!
//! # One linear codec
//!
//! Every code here is linear, so a code is its symbol-level
//! [`ErasureCode::generator`] (Piggybacked-RS has two symbols per shard, one
//! per substripe) plus its choice of reads,
//! [`ErasureCode::repair_reads_ranked`]. Where that choice is not fixed by
//! the code's structure, it is searched in the generator:
//! [`decode::minimal_spanning_sets`] finds every minimum set of helper
//! symbols that spans a target, which is how a Piggybacked-RS parity
//! reads 19 half-chunks and an LRC global parity 9 shards, not `k` whole
//! shards. Everything else is derived once, in the trait, from those two:
//!
//! * [`ErasureCode::encode_into`] multiplies the generator's parity rows by
//!   the data symbols in one multi-output pass;
//! * [`ErasureCode::reconstruct_in_place`] inverts one `k·g × k·g` block of
//!   surviving symbol rows and writes every missing symbol in one pass
//!   ([`decode::reconstruct_linear_in_place`]);
//! * [`ErasureCode::repair_from_reads`] expands the reads to generator rows,
//!   solves for the target's symbols in one elimination, and combines only
//!   the bytes it was told to read, so a repair cannot read outside its
//!   declared ranges. `repair_reads_ranked` accepts degraded masks;
//!   `repair_reads` still refuses them.
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
//! block is recovered, and a repair has one price: the bytes of its
//! [`ShardRead`]s. The store fetches those ranges from real disks;
//! [`ErasureCode::single_loss_reads`] takes the same reads at
//! `shard_len = granularity()` for every shard, and that one table is what
//! [`ErasureCode::average_repair_fraction`], the savings reports in
//! `pbrs-core` and the warehouse-cluster simulator in `pbrs-cluster` read,
//! scaling it to a block size instead of moving real bytes.
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
    cheapest_plan, lowest_ranked_reads, minimal_symbol_plans, total_read_bytes, ShardRead,
};
pub use replication::Replication;
pub use spec::CodeSpec;
pub use views::{ShardBuffer, ShardSet, ShardSetMut, SplitShards};

use pbrs_gf::{slice_ops, Matrix};

/// A `(k, r)` erasure code over byte shards.
///
/// Implementations encode `k` equally sized data shards into `r` parity
/// shards and can rebuild missing shards from any sufficiently large subset
/// of the survivors. All shards of a stripe have the same length, which must
/// be a multiple of [`ErasureCode::granularity`].
///
/// A code is its symbol-level [`ErasureCode::generator`] plus its read
/// choice ([`ErasureCode::repair_reads_ranked`]): beside those it names its
/// parameters, its name and whether it is MDS, and encode, reconstruction
/// and every repair method are provided, derived once from the generator.
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
    /// the same length; any prior contents of `parity` are overwritten. The
    /// parity symbols are the generator's rows `k·g..n·g` times the `k·g`
    /// data symbols, all of them in one multi-output pass, so each data
    /// byte crosses the memory bus once.
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
    ) -> Result<(), CodeError> {
        let (params, g) = (self.params(), self.granularity());
        let sym = params::validate_encode_views(data, parity, params, g)? / g;
        let generator = self.generator();
        let rows: Vec<&[u8]> = (params.data_shards() * g..generator.rows())
            .map(|row| generator.row(row))
            .collect();
        let srcs: Vec<&[u8]> = data.iter().flat_map(|s| s.chunks_exact(sym)).collect();
        let (outs, _) = parity.split_parts_mut(&vec![true; params.parity_shards()]);
        let mut outs: Vec<&mut [u8]> = outs
            .into_iter()
            .flat_map(|s| s.chunks_exact_mut(sym))
            .collect();
        slice_ops::matrix_mul_into(&rows, &srcs, &mut outs);
        Ok(())
    }

    /// Rebuilds every missing shard of a stripe in place. Performs no
    /// shard-sized allocation.
    ///
    /// `shards` holds all `k + r` shard slots (data first); `present[i]`
    /// says whether slot `i` currently holds valid bytes. Present slots are
    /// never modified; the contents of missing slots on entry are ignored
    /// and overwritten with the reconstructed bytes. The decode is one
    /// inversion over surviving symbol rows of [`ErasureCode::generator`]
    /// (see [`decode::reconstruct_linear_in_place`]); on an error no slot is
    /// written.
    ///
    /// # Errors
    ///
    /// Returns an error if the view or mask have the wrong width, if the
    /// shard length is unaligned, [`CodeError::NotEnoughShards`] (in shard
    /// units) if fewer than `k` shards survive, and
    /// [`CodeError::ReconstructionFailed`] if the survivors of a non-MDS
    /// code do not span the data.
    fn reconstruct_in_place(
        &self,
        shards: &mut ShardSetMut<'_>,
        present: &[bool],
    ) -> Result<(), CodeError> {
        params::validate_stripe_view(shards, present, self.params(), self.granularity())?;
        decode::reconstruct_linear_in_place(self.generator(), shards, present)
    }

    /// The symbol-level generator matrix: `n·g × k·g`, where
    /// `g = granularity()`.
    ///
    /// A shard of a stripe is `g` equal byte ranges (symbols); symbol `s`
    /// of shard `i` is row `i·g + s`, a combination of the `k·g` data
    /// symbols. Every repair is a solve over these rows (see
    /// [`ErasureCode::repair_from_reads`]).
    fn generator(&self) -> &Matrix;

    /// The helper byte ranges this code reads to rebuild shard `target`
    /// under the availability mask `available` (length `k + r`), for shards
    /// of `shard_len` bytes: the code's one piece of repair logic.
    ///
    /// When the code has freedom in choosing its helpers, shards with a
    /// *lower* `rank(shard)` are preferred (ties broken by shard index).
    /// This is how placement-aware callers (the store's locality-first
    /// repair scheduler) steer repairs toward cheap helpers: rank same-rack
    /// survivors 0 and cross-rack survivors 1 and an MDS code will read as
    /// many same-rack helpers as its mathematics allows. A code with
    /// several equally cheap read sets (a Piggybacked-RS parity or an LRC
    /// global parity, whose sets a search over the generator finds; see
    /// [`minimal_symbol_plans`]) takes the one with the fewest bytes on
    /// shards of non-zero rank, then the least `Σ rank × bytes`
    /// ([`cheapest_plan`]); its `k`-whole-shard fallback reads the `k`
    /// lowest-ranked shards. Reads fixed by the code's structure (a
    /// Piggybacked-RS data shard's half-shards, an LRC local group) ignore
    /// the rank: preference never changes *how many* bytes a code reads,
    /// only *where* it reads them.
    ///
    /// Degraded masks (more shards missing than `target`) are accepted:
    /// the reads then avoid every missing shard. Execute the reads with
    /// [`ErasureCode::repair_from_reads`].
    ///
    /// # Errors
    ///
    /// Returns an error for an unaligned `shard_len`, a mask of the wrong
    /// width, an out-of-range `target`, a `target` marked available, or too
    /// few survivors to rebuild it.
    fn repair_reads_ranked(
        &self,
        target: usize,
        available: &[bool],
        shard_len: usize,
        rank: &dyn Fn(usize) -> u64,
    ) -> Result<Vec<ShardRead>, CodeError>;

    /// [`ErasureCode::repair_reads_ranked`] with no helper preference, for a
    /// single failure: `available` must mark every shard except `target` as
    /// present, and degraded masks are rejected. Bytes outside the returned
    /// ranges are never read by [`ErasureCode::repair_from_reads`], so a
    /// caller executing the repair against real storage reads (and
    /// accounts) exactly these bytes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ErasureCode::repair_reads_ranked`], plus
    /// [`CodeError::NotEnoughShards`] when another shard is missing.
    fn repair_reads(
        &self,
        target: usize,
        available: &[bool],
        shard_len: usize,
    ) -> Result<Vec<ShardRead>, CodeError> {
        let reads = self.repair_reads_ranked(target, available, shard_len, &|_| 0)?;
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
        Ok(reads)
    }

    /// Rebuilds shard `target` into `out` from exactly the helper bytes
    /// covered by `reads`, the ranges of a
    /// [`ErasureCode::repair_reads_ranked`] call (or any other read set
    /// that spans the target).
    ///
    /// The reads are expanded to their symbols' rows of
    /// [`ErasureCode::generator`], one elimination expresses the target's
    /// symbols in those rows, and the output is one linear combination per
    /// symbol. Bytes of `helpers` outside `reads` are never touched and may
    /// be stale. `out` must be exactly one shard long.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed view, an out-of-range `target` or
    /// read, and [`CodeError::ReconstructionFailed`] when a read names the
    /// target, does not cover whole symbols inside its shard, or the reads
    /// do not span the target.
    fn repair_from_reads(
        &self,
        target: usize,
        reads: &[ShardRead],
        helpers: &ShardSet<'_>,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        repair::repair_from_reads(self, target, reads, helpers, out)
    }

    /// Rebuilds the single shard `target` into `out` along the code's
    /// cheapest single-failure path: [`ErasureCode::repair_reads`] followed
    /// by [`ErasureCode::repair_from_reads`]. Performs no shard-sized
    /// allocation.
    ///
    /// `helpers` must hold all `k + r` shard slots; every slot other than
    /// `target` must contain valid bytes (the `target` slot's contents are
    /// ignored).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ErasureCode::repair_reads`] and
    /// [`ErasureCode::repair_from_reads`].
    fn repair_into(
        &self,
        target: usize,
        helpers: &ShardSet<'_>,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let available: Vec<bool> = (0..self.params().total_shards())
            .map(|i| i != target)
            .collect();
        let reads = self.repair_reads(target, &available, out.len())?;
        self.repair_from_reads(target, &reads, helpers, out)
    }

    /// Every shard's single-loss repair reads: entry `t` is
    /// [`ErasureCode::repair_reads`] of target `t` with every other shard
    /// present, at `shard_len = granularity()`, so a read of `len` bytes is
    /// `len / granularity()` of a shard. This is the one table every
    /// single-loss repair price is read from; for a block of `b` bytes the
    /// repair downloads `total_read_bytes(&table[t]) · b / granularity()`
    /// bytes. For Reed–Solomon that is `k` whole shards, the cost the paper
    /// measures in production.
    ///
    /// # Panics
    ///
    /// Panics if the code cannot repair a single loss, which no valid code
    /// of this workspace does.
    fn single_loss_reads(&self) -> Vec<Vec<ShardRead>> {
        let n = self.params().total_shards();
        (0..n)
            .map(|target| {
                let available: Vec<bool> = (0..n).map(|i| i != target).collect();
                self.repair_reads(target, &available, self.granularity())
                    // pbrs-lint: allow(panic-hygiene) -- every valid code repairs a single loss
                    .expect("every code repairs a single loss")
            })
            .collect()
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
    /// shards with equal weight: [`ErasureCode::single_loss_reads`] in units
    /// of the stripe's `k` data shards.
    ///
    /// For a `(k, r)` RS code this is exactly 1.0 (the whole logical stripe);
    /// the Piggybacked-RS code pushes it down by roughly 30 % for (10, 4).
    fn average_repair_fraction(&self) -> f64 {
        let params = self.params();
        let g = self.granularity() as f64;
        let shards: f64 = self
            .single_loss_reads()
            .iter()
            .map(|reads| total_read_bytes(reads) as f64 / g)
            .sum();
        // Normalise by k so the figure is "stripe logical size" units.
        shards / (params.total_shards() as f64 * params.data_shards() as f64)
    }
}
