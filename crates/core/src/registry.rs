//! The unified code registry: one constructor for every code.
//!
//! `pbrs-erasure` defines [`CodeSpec`], the textual naming scheme for codes
//! (`"rs-10-4"`, `"piggyback-10-4"`, `"lrc-10-2-4"`, `"rep-3"`). This module
//! turns a spec into a live, boxed [`ErasureCode`] — it lives here rather
//! than in `pbrs-erasure` because the Piggybacked-RS implementation sits
//! above that crate.
//!
//! Everything that selects a code — the cluster simulator's `CodeChoice`,
//! the benchmark binaries, the examples — goes through [`build`], so adding
//! a code to the workspace means implementing the trait and adding one
//! registry arm, not touching every entry point.
//!
//! # Example
//!
//! ```
//! use pbrs_core::registry;
//!
//! let code = registry::build_str("piggyback-10-4").unwrap();
//! assert_eq!(code.name(), "Piggybacked-RS(10, 4)");
//! assert!(code.is_mds());
//! ```

use pbrs_erasure::{CodeError, CodeSpec, ErasureCode, Lrc, LrcParams, ReedSolomon, Replication};

use crate::code::PiggybackedRs;

/// A boxed code as built by the registry: every implementation is plain data,
/// so the trait objects are `Send + Sync` and shareable across the threads of
/// a store or simulator.
pub type DynCode = Box<dyn ErasureCode + Send + Sync>;

/// The canonical spec of each code family in the registry, at the paper's
/// parameters: `rs-10-4`, `piggyback-10-4`, `lrc-10-2-4`, `rep-3`.
///
/// Tests that must hold "for every code in the registry" iterate this list.
pub fn known_specs() -> Vec<CodeSpec> {
    vec![
        CodeSpec::FACEBOOK_RS,
        CodeSpec::FACEBOOK_PIGGYBACK,
        CodeSpec::Lrc {
            k: 10,
            local_groups: 2,
            global_parities: 4,
        },
        CodeSpec::Replication { copies: 3 },
    ]
}

/// Builds the erasure code a spec describes.
///
/// # Errors
///
/// Propagates parameter-validation errors from the code constructors.
pub fn build(spec: &CodeSpec) -> Result<DynCode, CodeError> {
    Ok(match *spec {
        CodeSpec::ReedSolomon { k, r } => Box::new(ReedSolomon::new(k, r)?),
        CodeSpec::PiggybackedRs { k, r } => Box::new(PiggybackedRs::new(k, r)?),
        CodeSpec::Lrc {
            k,
            local_groups,
            global_parities,
        } => Box::new(Lrc::new(LrcParams {
            k,
            local_groups,
            global_parities,
        })?),
        CodeSpec::Replication { copies } => Box::new(Replication::new(copies)?),
    })
}

/// Parses a spec string and builds the code it describes.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParams`] for an unparsable spec, plus the
/// same failure modes as [`build`].
pub fn build_str(spec: &str) -> Result<DynCode, CodeError> {
    build(&spec.parse()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbrs_erasure::ShardBuffer;

    #[test]
    fn builds_every_family() {
        let cases = [
            ("rs-10-4", "RS(10, 4)", 14),
            ("piggyback-10-4", "Piggybacked-RS(10, 4)", 14),
            ("lrc-10-2-4", "LRC(10, 2, 4)", 16),
            ("rep-3", "3-replication", 3),
        ];
        for (spec, name, width) in cases {
            let code = build_str(spec).unwrap();
            assert_eq!(code.name(), name, "{spec}");
            assert_eq!(code.params().total_shards(), width, "{spec}");
        }
    }

    #[test]
    fn built_codes_round_trip_data() {
        for spec in ["rs-4-2", "piggyback-4-2", "lrc-4-2-2", "rep-3"] {
            let code = build_str(spec).unwrap();
            let (k, n) = (code.params().data_shards(), code.params().total_shards());
            let mut original = ShardBuffer::zeroed(n, 16);
            for i in 0..k {
                for (j, byte) in original.shard_mut(i).iter_mut().enumerate() {
                    *byte = ((i * 7 + j * 3 + 1) % 256) as u8;
                }
            }
            let (data, mut parity) = original.split_mut(k);
            code.encode_into(&data, &mut parity).unwrap();
            let mut stripe = original.clone();
            stripe.shard_mut(0).fill(0xEE);
            let mut present = vec![true; n];
            present[0] = false;
            code.reconstruct_in_place(&mut stripe.as_set_mut(), &present)
                .unwrap();
            assert_eq!(stripe, original, "{spec}");
        }
    }

    #[test]
    fn invalid_specs_and_parameters_are_rejected() {
        assert!(build_str("rs-0-4").is_err());
        assert!(build_str("nonsense").is_err());
        // Parses, but the LRC constructor rejects zero local groups.
        assert!(build(&CodeSpec::Lrc {
            k: 4,
            local_groups: 0,
            global_parities: 2
        })
        .is_err());
    }
}
