//! Piggybacked-RS erasure codes.
//!
//! This crate implements the storage code proposed in *"A Solution to the
//! Network Challenges of Data Recovery in Erasure-coded Distributed Storage
//! Systems: A Study on the Facebook Warehouse Cluster"* (Rashmi, Shah, Gu,
//! Kuang, Borthakur, Ramchandran — USENIX HotStorage 2013), built on the
//! Piggybacking framework of Rashmi, Shah & Ramchandran (ISIT 2013).
//!
//! # The idea
//!
//! A `(k, r)` Reed–Solomon code is storage optimal (MDS) and works for any
//! parameters, but recovering a single lost shard requires downloading `k`
//! whole shards — the entire logical size of the stripe. On the Facebook
//! warehouse cluster this recovery traffic exceeds 180 TB of cross-rack
//! transfer per day (paper §2.2).
//!
//! A Piggybacked-RS code takes **two byte-level substripes** of an existing
//! RS code and adds carefully chosen functions ("piggybacks") of the first
//! substripe onto the parities of the second substripe:
//!
//! ```text
//!              substripe a      substripe b
//! data i:        a_i               b_i
//! parity 1:      f_1(a)            f_1(b)                 (kept clean)
//! parity j>1:    f_j(a)            f_j(b) + Σ_{i∈S_{j−1}} a_i
//! ```
//!
//! where `S_1..S_{r−1}` partition the data shards into groups. The code is
//! still MDS (any `k` shards decode substripe `a`, which strips the
//! piggybacks and leaves substripe `b` a plain RS codeword; the library
//! decodes both at once from one symbol-level generator), still works for
//! any `(k, r)`, and repairing a lost data
//! shard now downloads roughly `(k + group size)/2` shard-equivalents
//! instead of `k` — about a 30 % reduction for the production `(10, 4)`
//! parameters. The paper leaves parity repairs at RS cost, but the
//! generator allows less: a search finds that every `(10, 4)` parity can be
//! rebuilt from 19 half-chunks (every data b-half and 9 more) instead of 20,
//! so the average over all 14 shards is 7.5 shard-equivalents, 25 % below
//! RS.
//!
//! # Example
//!
//! ```
//! use pbrs_core::PiggybackedRs;
//! use pbrs_erasure::{total_read_bytes, ErasureCode};
//!
//! # fn main() -> Result<(), pbrs_erasure::CodeError> {
//! // The code proposed in the paper as a drop-in replacement for the
//! // warehouse cluster's (10, 4) RS code.
//! let code = PiggybackedRs::new(10, 4)?;
//! assert!(code.is_mds());
//! assert!((code.storage_overhead() - 1.4).abs() < 1e-9);
//!
//! // Repairing data shard 0 downloads 7 shard-equivalents instead of 10.
//! let mut available = vec![true; 14];
//! available[0] = false;
//! let reads = code.repair_reads(0, &available, 64)?;
//! assert_eq!(total_read_bytes(&reads), 7 * 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod code;
pub mod design;
pub mod registry;
pub mod toy;

pub use analysis::{CodeComparison, NodeRepairCost, SavingsReport};
pub use code::PiggybackedRs;
pub use design::PiggybackDesign;
pub use toy::toy_example;
