//! `pbrs-lint` — the workspace invariant checker.
//!
//! A dependency-free static analyzer for this repository: a hand-rolled,
//! comment/string/char-literal-aware Rust [`lexer`], a test-scope pass
//! ([`scope`]), a `lint.toml` config ([`config`]), and five token-pattern
//! [`rules`] that machine-check the invariants the codebase previously
//! enforced by review discipline:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-confinement` | `unsafe` only in allowlisted modules, always documented; every other crate root `#![forbid(unsafe_code)]` |
//! | `panic-hygiene` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | `atomics-audit` | every `Ordering::Relaxed`/`SeqCst` site justified by a comment within 2 lines |
//! | `wire-protocol` | no lossy `as` casts in the protocol files; every opcode constant matched by a decoder arm |
//! | `wall-clock` | `Instant::now`/`SystemTime::now` confined to guard/health/obs/daemon seams |
//!
//! Findings can be waived inline with
//! `// pbrs-lint: allow(<rule>) -- <reason>` ([`waiver`]); a reasonless
//! waiver is itself an error. There is deliberately no `--fix`: every
//! exemption is written, reviewed, and reasoned about by a person.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run --release -p pbrs-lint
//! ```
//!
//! The rule catalogue, waiver syntax, and `lint.toml` schema are
//! documented in `CONTRIBUTING.md`.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use config::{Config, Severity};
use diag::{Diagnostic, Report};
use rules::{FileCtx, ALL_RULES};
use walk::FileKind;

/// Lints one in-memory source file as if it lived at `rel`, with the file
/// kind and crate-root flag pinned by the caller (the walker has the real
/// answers; fixtures may fake them) — the engine behind both the workspace
/// walk and the fixture self-tests.
///
/// `only` restricts to a subset of rule names; `None` runs all.
pub fn check_source_as(
    rel: &str,
    kind: FileKind,
    crate_root: bool,
    src: &str,
    cfg: &Config,
    only: Option<&[String]>,
) -> Vec<Diagnostic> {
    let lex = lexer::lex(src);
    let scopes = scope::analyze(&lex);
    let mut out = Vec::new();
    let waivers = waiver::WaiverSet::collect(rel, &lex, &mut out);
    let ctx = FileCtx {
        rel,
        kind,
        is_crate_root: crate_root,
        lex: &lex,
        scopes: &scopes,
        waivers: &waivers,
    };
    for (name, rule) in ALL_RULES {
        if let Some(filter) = only {
            if !filter.iter().any(|f| f == name) {
                continue;
            }
        }
        let sev = cfg.severity(name);
        if sev == Severity::Off {
            continue;
        }
        rule(&ctx, cfg, sev, &mut out);
    }
    out
}

/// Walks the workspace at `root` and runs every enabled rule over every
/// discovered file.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or file reads.
pub fn run_workspace(root: &Path, cfg: &Config, only: Option<&[String]>) -> io::Result<Report> {
    let files = walk::discover(root, cfg)?;
    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };
    for file in &files {
        let src = fs::read_to_string(&file.abs)?;
        report.diagnostics.extend(check_source_as(
            &file.rel,
            file.kind,
            file.is_crate_root,
            &src,
            cfg,
            only,
        ));
    }
    report.finish();
    Ok(report)
}

/// Loads `lint.toml` from `root`.
///
/// # Errors
///
/// I/O errors reading the file, or `InvalidData` for config syntax
/// errors (with the line number in the message).
pub fn load_config(root: &Path) -> io::Result<Config> {
    let path = root.join("lint.toml");
    let text = fs::read_to_string(&path)?;
    Config::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Searches `start` and its ancestors for a directory holding
/// `lint.toml`.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("lint.toml").is_file())
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{classify, is_crate_root};

    fn cfg(text: &str) -> Config {
        Config::parse(text).expect("test config parses")
    }

    /// Lints `src` as if it lived at `rel`, classified by that path.
    fn check_source(
        rel: &str,
        src: &str,
        cfg: &Config,
        only: Option<&[String]>,
    ) -> Vec<Diagnostic> {
        check_source_as(rel, classify(rel), is_crate_root(rel), src, cfg, only)
    }

    #[test]
    fn check_source_routes_by_path() {
        let c = cfg("[rule.panic-hygiene]\nseverity = \"error\"");
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        // Library code: flagged.
        let d = check_source("crates/x/src/f.rs", src, &c, None);
        assert!(d.iter().any(|d| d.rule == "panic-hygiene"), "{d:?}");
        // Bench bin: exempt.
        let d = check_source("crates/bench/src/bin/f.rs", src, &c, None);
        assert!(d.iter().all(|d| d.rule != "panic-hygiene"), "{d:?}");
    }

    #[test]
    fn rule_filter_limits_output() {
        let c = cfg("");
        let src = "pub fn f() { std::process::exit(0) }";
        // Crate-root check would fire for unsafe-confinement on lib.rs…
        let all = check_source("crates/x/src/lib.rs", src, &c, None);
        assert!(all.iter().any(|d| d.rule == "unsafe-confinement"));
        // …but a filter to panic-hygiene silences it.
        let only = vec!["panic-hygiene".to_string()];
        let filtered = check_source("crates/x/src/lib.rs", src, &c, Some(&only));
        assert!(filtered.is_empty(), "{filtered:?}");
    }

    #[test]
    fn severity_off_disables_a_rule() {
        let c = cfg("[rule.panic-hygiene]\nseverity = \"off\"");
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let d = check_source("crates/x/src/f.rs", src, &c, None);
        assert!(d.is_empty(), "{d:?}");
    }
}
