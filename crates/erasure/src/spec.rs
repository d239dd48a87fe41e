//! Textual code specifications.
//!
//! A [`CodeSpec`] names any erasure code in the workspace as a compact,
//! human-typable string — the format used by benchmark CLIs, simulator
//! configurations and examples, so every entry point selects codes the same
//! way:
//!
//! | spec              | code                                              |
//! |-------------------|---------------------------------------------------|
//! | `rs-10-4`         | `(10, 4)` Reed–Solomon                            |
//! | `piggyback-10-4`  | `(10, 4)` Piggybacked-RS                          |
//! | `lrc-10-2-4`      | LRC: 10 data, 2 local groups, 4 global parities   |
//! | `rep-3`           | 3-way replication                                 |
//!
//! Parsing and [`core::fmt::Display`] round-trip exactly. Building a boxed
//! [`crate::ErasureCode`] from a spec lives in the `pbrs-core` crate
//! (`registry::build`), because the Piggybacked-RS implementation lives
//! above this crate.

use core::fmt;
use core::str::FromStr;

use crate::{CodeError, CodeParams};

/// A parsed code specification: which scheme, with which parameters.
///
/// # Example
///
/// ```
/// use pbrs_erasure::CodeSpec;
///
/// let spec: CodeSpec = "piggyback-10-4".parse().unwrap();
/// assert_eq!(spec, CodeSpec::PiggybackedRs { k: 10, r: 4 });
/// assert_eq!(spec.to_string(), "piggyback-10-4");
/// assert_eq!(spec.total_shards(), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeSpec {
    /// A `(k, r)` Reed–Solomon code: `rs-k-r`.
    ReedSolomon {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe.
        r: usize,
    },
    /// A `(k, r)` Piggybacked-RS code: `piggyback-k-r`.
    PiggybackedRs {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe.
        r: usize,
    },
    /// A local reconstruction code: `lrc-k-l-g`.
    Lrc {
        /// Data shards per stripe.
        k: usize,
        /// Local groups (one XOR parity each).
        local_groups: usize,
        /// Global Reed–Solomon parities.
        global_parities: usize,
    },
    /// N-way replication: `rep-n` (total copies).
    Replication {
        /// Total copies stored.
        copies: usize,
    },
}

impl CodeSpec {
    /// The production baseline: `rs-10-4`.
    pub const FACEBOOK_RS: CodeSpec = CodeSpec::ReedSolomon { k: 10, r: 4 };

    /// The paper's proposal: `piggyback-10-4`.
    pub const FACEBOOK_PIGGYBACK: CodeSpec = CodeSpec::PiggybackedRs { k: 10, r: 4 };

    /// Total shards per stripe for this spec.
    pub fn total_shards(&self) -> usize {
        match *self {
            CodeSpec::ReedSolomon { k, r } | CodeSpec::PiggybackedRs { k, r } => k + r,
            CodeSpec::Lrc {
                k,
                local_groups,
                global_parities,
            } => k + local_groups + global_parities,
            CodeSpec::Replication { copies } => copies,
        }
    }

    /// The `(k, r)` parameters this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if the parameters are out of
    /// range for the GF(2^8) constructions.
    pub fn params(&self) -> Result<CodeParams, CodeError> {
        match *self {
            CodeSpec::ReedSolomon { k, r } | CodeSpec::PiggybackedRs { k, r } => {
                CodeParams::new(k, r)
            }
            CodeSpec::Lrc {
                k,
                local_groups,
                global_parities,
            } => CodeParams::new(k, local_groups + global_parities),
            CodeSpec::Replication { copies } => {
                if copies < 2 {
                    return Err(CodeError::InvalidParams {
                        reason: "replication needs at least 2 copies".into(),
                    });
                }
                CodeParams::new(1, copies - 1)
            }
        }
    }
}

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodeSpec::ReedSolomon { k, r } => write!(f, "rs-{k}-{r}"),
            CodeSpec::PiggybackedRs { k, r } => write!(f, "piggyback-{k}-{r}"),
            CodeSpec::Lrc {
                k,
                local_groups,
                global_parities,
            } => write!(f, "lrc-{k}-{local_groups}-{global_parities}"),
            CodeSpec::Replication { copies } => write!(f, "rep-{copies}"),
        }
    }
}

fn parse_fields<const N: usize>(
    spec: &str,
    rest: &str,
    names: [&str; N],
) -> Result<[usize; N], CodeError> {
    let mut out = [0usize; N];
    let mut fields = rest.split('-');
    for (slot, name) in out.iter_mut().zip(names) {
        let field = fields.next().unwrap_or("");
        if field.is_empty() {
            return Err(CodeError::InvalidParams {
                reason: format!("code spec {spec:?} is missing its \"{name}\" parameter"),
            });
        }
        *slot = field.parse().map_err(|_| CodeError::InvalidParams {
            reason: format!(
                "code spec {spec:?}: \"{name}\" parameter {field:?} is not a non-negative integer"
            ),
        })?;
    }
    if let Some(extra) = fields.next() {
        return Err(CodeError::InvalidParams {
            reason: format!(
                "code spec {spec:?} has an unexpected trailing token {extra:?} \
                 after its {N} expected parameter(s)"
            ),
        });
    }
    Ok(out)
}

impl FromStr for CodeSpec {
    type Err = CodeError;

    fn from_str(s: &str) -> Result<Self, CodeError> {
        let lowered = s.trim().to_ascii_lowercase();
        let (family, rest) = lowered
            .split_once('-')
            .ok_or_else(|| CodeError::InvalidParams {
                reason: format!(
                    "code spec {s:?} is not of the form family-params \
                     (rs-k-r, piggyback-k-r, lrc-k-l-g, rep-n)"
                ),
            })?;
        let spec = match family {
            "rs" => {
                let [k, r] = parse_fields(s, rest, ["k", "r"])?;
                CodeSpec::ReedSolomon { k, r }
            }
            "piggyback" | "pbrs" => {
                let [k, r] = parse_fields(s, rest, ["k", "r"])?;
                CodeSpec::PiggybackedRs { k, r }
            }
            "lrc" => {
                let [k, local_groups, global_parities] =
                    parse_fields(s, rest, ["k", "local-groups", "global-parities"])?;
                CodeSpec::Lrc {
                    k,
                    local_groups,
                    global_parities,
                }
            }
            "rep" | "replication" => {
                let [copies] = parse_fields(s, rest, ["copies"])?;
                CodeSpec::Replication { copies }
            }
            other => {
                return Err(CodeError::InvalidParams {
                    reason: format!(
                        "unknown code family {other:?} in spec {s:?} \
                         (expected rs, piggyback, lrc or rep)"
                    ),
                })
            }
        };
        // Reject obviously unbuildable parameters at parse time so errors
        // surface where the string came from, not deep in a constructor.
        spec.params()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for text in ["rs-10-4", "piggyback-10-4", "lrc-10-2-4", "rep-3", "rs-6-3"] {
            let spec: CodeSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text, "{text}");
            let again: CodeSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again);
        }
    }

    #[test]
    fn parse_accepts_aliases_and_case() {
        assert_eq!(
            "PBRS-10-4".parse::<CodeSpec>().unwrap(),
            CodeSpec::PiggybackedRs { k: 10, r: 4 }
        );
        assert_eq!(
            "replication-3".parse::<CodeSpec>().unwrap(),
            CodeSpec::Replication { copies: 3 }
        );
        assert_eq!(
            " Rs-4-2 ".parse::<CodeSpec>().unwrap(),
            CodeSpec::ReedSolomon { k: 4, r: 2 }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "rs",
            "rs-10",
            "rs-10-4-2",
            "rs-x-4",
            "huffman-3-1",
            "rep-1",
            "rs-0-4",
            "rs-300-10",
            "lrc-10-2",
            "rep-",
            "-",
        ] {
            assert!(
                matches!(
                    bad.parse::<CodeSpec>(),
                    Err(CodeError::InvalidParams { .. })
                ),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        let reason_of = |bad: &str| match bad.parse::<CodeSpec>() {
            Err(CodeError::InvalidParams { reason }) => reason,
            other => panic!("{bad:?} should fail with InvalidParams, got {other:?}"),
        };
        // Non-numeric parameter: names both the parameter and the token.
        let reason = reason_of("rs-x-4");
        assert!(
            reason.contains("\"k\"") && reason.contains("\"x\""),
            "{reason}"
        );
        // Missing parameter: names the parameter that was expected.
        let reason = reason_of("rs-10");
        assert!(reason.contains("\"r\""), "{reason}");
        let reason = reason_of("rep-");
        assert!(reason.contains("\"copies\""), "{reason}");
        let reason = reason_of("lrc-10-2");
        assert!(reason.contains("\"global-parities\""), "{reason}");
        // Trailing junk: names the extra token.
        let reason = reason_of("rs-10-4-9");
        assert!(reason.contains("\"9\""), "{reason}");
        // Unknown family: names the family.
        let reason = reason_of("huffman-3-1");
        assert!(reason.contains("\"huffman\""), "{reason}");
    }

    #[test]
    fn derived_parameters() {
        assert_eq!(CodeSpec::FACEBOOK_RS.total_shards(), 14);
        assert_eq!(CodeSpec::FACEBOOK_PIGGYBACK.total_shards(), 14);
        let lrc: CodeSpec = "lrc-10-2-4".parse().unwrap();
        assert_eq!(lrc.total_shards(), 16);
        let rep: CodeSpec = "rep-3".parse().unwrap();
        assert_eq!(rep.total_shards(), 3);
        assert_eq!(rep.params().unwrap(), CodeParams::new(1, 2).unwrap());
    }
}
