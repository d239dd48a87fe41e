//! Report formatting: markdown tables and binary byte units, shared by the
//! `pbrs-bench` binaries and the examples.

use std::fmt::Write as _;

/// Renders a GitHub-flavoured markdown table.
///
/// # Panics
///
/// Panics if any row has a different number of columns than the header.
pub fn to_markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    // pbrs-lint: allow(panic-hygiene) -- fmt::Write into a String is infallible
    writeln!(out, "| {} |", header.join(" | ")).expect("writing to a String cannot fail");
    writeln!(out, "|{}|", vec!["---"; header.len()].join("|"))
        // pbrs-lint: allow(panic-hygiene) -- fmt::Write into a String is infallible
        .expect("writing to a String cannot fail");
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width must match header width");
        // pbrs-lint: allow(panic-hygiene) -- fmt::Write into a String is infallible
        writeln!(out, "| {} |", row.join(" | ")).expect("writing to a String cannot fail");
    }
    out
}

/// Formats a byte count using binary units (KiB/MiB/GiB/TiB/PiB) with two
/// decimals, matching the way the paper reports traffic volumes.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_layout() {
        let md = to_markdown_table(
            &["code", "overhead"],
            &[vec!["RS(10,4)".into(), "1.4".into()]],
        );
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| code | overhead |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| RS(10,4) | 1.4 |");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn markdown_table_rejects_ragged_rows() {
        to_markdown_table(&["a", "b"], &[vec!["only one".into()]]);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert_eq!(human_bytes(1024u64.pow(4)), "1.00 TiB");
        assert_eq!(human_bytes(180 * 1024u64.pow(4)), "180.00 TiB");
        assert_eq!(human_bytes(3 * 1024u64.pow(5)), "3.00 PiB");
    }
}
