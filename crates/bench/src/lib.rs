//! Shared output helpers for the `pbrs-bench` binaries.
//!
//! `paper_scorecard` checks the paper's numbers against the closed forms,
//! the unavailability model and the simulator; `gf_kernels` measures the
//! Galois-field and CRC kernel throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a titled section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// Formats a float with one decimal place.
pub fn f1(value: f64) -> String {
    format!("{value:.1}")
}
