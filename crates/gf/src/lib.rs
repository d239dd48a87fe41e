//! Arithmetic over the finite field GF(2^8) and the dense linear algebra
//! needed by erasure codes.
//!
//! This crate is the lowest-level substrate of the Piggybacked-RS
//! reproduction: every byte of every parity in the higher-level crates is
//! produced by the kernels defined here.
//!
//! # Contents
//!
//! * [`Gf256`] — a field element with the usual operator overloads.
//! * [`tables`] — exp/log tables for the `x^8 + x^4 + x^3 + x^2 + 1`
//!   (`0x11D`) polynomial, built at compile time.
//! * [`slice_ops`] — bulk kernels (`mul_slice`, `mul_add_slice`,
//!   `xor_slice`, and the multi-output [`slice_ops::matrix_mul_into`])
//!   used by the encoders on whole shards.
//! * [`backend`] — runtime selection of the bulk-kernel implementation
//!   (scalar lookup / portable SWAR / x86-64 `pshufb` SIMD).
//! * [`matrix`] — dense matrices over GF(2^8): multiplication,
//!   Gauss–Jordan inversion, rank, and the Vandermonde constructor.
//! * [`crc32`] — the CRC-32 every chunk file is checksummed with:
//!   polynomial arithmetic over GF(2), by slicing-by-8 tables or an x86-64
//!   carry-less-multiply fold.
//!
//! # Kernel backends
//!
//! The shard-sized kernels in [`slice_ops`] dispatch at runtime to the
//! fastest implementation the CPU supports:
//!
//! | backend  | technique                                | availability |
//! |----------|------------------------------------------|--------------|
//! | `scalar` | 256-entry lookup row per coefficient     | always (oracle) |
//! | `swar`   | bit-sliced lane-parallel blocks (SWAR)   | always |
//! | `ssse3`  | `pshufb` split-nibble tables, 16 B/step  | x86-64 with SSSE3 |
//! | `avx2`   | `vpshufb` split-nibble tables, 32 B/step | x86-64 with AVX2 |
//!
//! Selection happens once per process: set `PBRS_GF_BACKEND` to `scalar`,
//! `swar`, `ssse3`, `avx2` or `auto` to pin a backend (unsupported choices
//! fall back to auto-detection); otherwise the best supported backend wins.
//! All backends produce bit-identical results — the scalar path is the
//! oracle the others are property-tested against. See [`backend`] for the
//! full policy and [`backend::force`] for programmatic switching in
//! benchmarks.
//!
//! [`crc32`] follows the same choice rather than adding a knob of its own:
//! under `scalar` or `swar` it runs portable slicing-by-8; under `ssse3` or
//! `avx2` it folds with `pclmulqdq` when the CPU also reports PCLMULQDQ and
//! SSE4.1. Both give the same checksum.
//!
//! # Example
//!
//! ```
//! use pbrs_gf::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! // Multiplication distributes over XOR-addition.
//! let c = Gf256::new(7);
//! assert_eq!((a + b) * c, a * c + b * c);
//! // Every non-zero element has an inverse.
//! assert_eq!(a * a.inverse().unwrap(), Gf256::ONE);
//! ```

// `unsafe` is denied everywhere except the `simd` module, which needs it
// for `core::arch` intrinsics and carries per-block SAFETY justifications.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod backend;
pub mod crc32;
pub mod gf256;
pub mod matrix;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod slice_ops;
mod swar;
pub mod tables;

pub use backend::Backend;
pub use gf256::Gf256;
pub use matrix::Matrix;
