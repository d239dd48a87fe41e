//! Runtime selection of the GF(2^8) bulk-kernel backend.
//!
//! The slice kernels in [`crate::slice_ops`] exist in several
//! implementations of increasing speed:
//!
//! * [`Backend::Scalar`] — one 256-entry table lookup per byte. Always
//!   available; it is the reference oracle every other backend is tested
//!   against.
//! * [`Backend::Swar`] — portable bit-sliced blocks: the shift-and-add
//!   product is hoisted over a 128-byte block, so every step is a
//!   straight-line pass of lane-parallel byte shifts, masks and XORs with
//!   no table traffic — "SIMD within a register" arithmetic the compiler
//!   lowers to whatever wide registers the target baseline guarantees
//!   (SSE2 on x86-64, NEON on aarch64, `u64` words elsewhere).
//! * [`Backend::Ssse3`] / [`Backend::Avx2`] — x86-64 `pshufb` split-nibble
//!   multiply (the technique behind Intel ISA-L and the "Screaming Fast
//!   Galois Field Arithmetic" paper): two 16-entry tables, one for each
//!   nibble of the source byte, looked up 16 (SSSE3) or 32 (AVX2) bytes
//!   per instruction. Selected only when the CPU reports the feature.
//!
//! The active backend is chosen once per process: the `PBRS_GF_BACKEND`
//! environment variable wins if it names a supported backend
//! (`scalar`, `swar`, `ssse3`, `avx2`, or `auto`); otherwise the fastest
//! supported backend is used. An override naming an *unsupported* backend
//! falls back to auto-detection rather than failing, so a pinned CI
//! environment never aborts on older hardware. Benchmarks and tests can
//! switch backends programmatically with [`force`].

use core::fmt;
use core::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// One implementation of the bulk GF(2^8) kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Per-byte 256-entry lookup rows (the portable reference oracle).
    Scalar,
    /// Portable bit-sliced blocks (lane-parallel shift-and-add).
    Swar,
    /// x86-64 SSSE3 `pshufb` split-nibble tables, 16 bytes per step.
    Ssse3,
    /// x86-64 AVX2 `vpshufb` split-nibble tables, 32 bytes per step.
    Avx2,
}

/// Every backend, slowest first.
pub const ALL: [Backend; 4] = [
    Backend::Scalar,
    Backend::Swar,
    Backend::Ssse3,
    Backend::Avx2,
];

impl Backend {
    /// Short lowercase name, matching the `PBRS_GF_BACKEND` values.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            Backend::Ssse3 => "ssse3",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar | Backend::Swar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Ssse3 | Backend::Avx2 => false,
        }
    }

    const fn to_u8(self) -> u8 {
        match self {
            Backend::Scalar => 1,
            Backend::Swar => 2,
            Backend::Ssse3 => 3,
            Backend::Avx2 => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Backend> {
        match v {
            1 => Some(Backend::Scalar),
            2 => Some(Backend::Swar),
            3 => Some(Backend::Ssse3),
            4 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The error returned when parsing an unknown backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The string that did not name a backend.
    pub input: String,
}

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown GF backend {:?} (expected scalar, swar, ssse3, avx2 or auto)",
            self.input
        )
    }
}

impl std::error::Error for UnknownBackend {}

impl FromStr for Backend {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "swar" => Ok(Backend::Swar),
            "ssse3" => Ok(Backend::Ssse3),
            "avx2" => Ok(Backend::Avx2),
            other => Err(UnknownBackend {
                input: other.to_string(),
            }),
        }
    }
}

/// The fastest backend the current CPU supports.
pub fn detect_best() -> Backend {
    for candidate in [Backend::Avx2, Backend::Ssse3] {
        if candidate.is_supported() {
            return candidate;
        }
    }
    Backend::Swar
}

/// Backends supported on the current CPU, slowest first.
pub fn supported() -> Vec<Backend> {
    ALL.into_iter().filter(|b| b.is_supported()).collect()
}

/// The cached process-wide choice; 0 means "not chosen yet".
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn choose() -> Backend {
    match std::env::var("PBRS_GF_BACKEND") {
        Ok(value) if !value.trim().eq_ignore_ascii_case("auto") => match value.parse::<Backend>() {
            Ok(requested) if requested.is_supported() => requested,
            Ok(requested) => {
                // A valid name this CPU lacks: the documented portable
                // fallback, but say so — a pinned CI row silently running
                // a different backend would be worse than the message.
                let fallback = detect_best();
                eprintln!(
                    "[pbrs-gf] PBRS_GF_BACKEND={requested} is not supported on this CPU; \
                     using {fallback}"
                );
                fallback
            }
            Err(err) => {
                // A typo names nothing; don't let it masquerade as a choice.
                let fallback = detect_best();
                eprintln!("[pbrs-gf] ignoring PBRS_GF_BACKEND: {err}; using {fallback}");
                fallback
            }
        },
        _ => detect_best(),
    }
}

/// The backend every dispatching kernel in [`crate::slice_ops`] uses; it
/// also decides whether [`crate::crc32`] may use its carry-less-multiply
/// fold (only under a SIMD backend).
///
/// Resolved once per process from `PBRS_GF_BACKEND` (falling back to
/// [`detect_best`]) and cached; [`force`] replaces the cached choice.
pub fn active() -> Backend {
    // Relaxed: a self-contained cache cell. Racing initialisers compute
    // the same value, and every backend yields identical bytes anyway.
    if let Some(backend) = Backend::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        return backend;
    }
    let chosen = choose();
    // Relaxed: idempotent publish of the cache cell read above.
    ACTIVE.store(chosen.to_u8(), Ordering::Relaxed);
    chosen
}

/// Forces the process-wide backend, returning `false` (and changing
/// nothing) if the CPU does not support it.
///
/// Intended for benchmarks and backend-comparison tests; production
/// callers should rely on [`active`]'s env-plus-detection policy. Note the
/// choice is global: concurrent threads observing different backends mid
/// switch still compute identical bytes, since every backend implements
/// the same field arithmetic.
pub fn force(backend: Backend) -> bool {
    if !backend.is_supported() {
        return false;
    }
    // Relaxed: see the doc comment — a mid-switch stale read is benign
    // because all backends compute the same field arithmetic.
    ACTIVE.store(backend.to_u8(), Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for backend in ALL {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
            assert_eq!(backend.to_string(), backend.name());
        }
        assert!("pshufb".parse::<Backend>().is_err());
        let err = "bogus".parse::<Backend>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn portable_backends_always_supported() {
        assert!(Backend::Scalar.is_supported());
        assert!(Backend::Swar.is_supported());
        let supported = supported();
        assert!(supported.contains(&Backend::Scalar));
        assert!(supported.contains(&Backend::Swar));
        assert!(supported.contains(&detect_best()));
    }

    #[test]
    fn force_and_active_agree() {
        // Whatever is active is supported. Remember it: this test must
        // restore the process-wide choice afterwards, or a PBRS_GF_BACKEND
        // pin (the CI backend matrix) would stop covering every test that
        // happens to run after this one in the same binary.
        let original = active();
        assert!(original.is_supported());
        for backend in supported() {
            assert!(force(backend));
            assert_eq!(active(), backend);
        }
        // Unsupported forces are rejected without changing the choice.
        #[cfg(not(target_arch = "x86_64"))]
        {
            let before = active();
            assert!(!force(Backend::Avx2));
            assert_eq!(active(), before);
        }
        // Leave the process exactly as this test found it.
        assert!(force(original));
    }
}
