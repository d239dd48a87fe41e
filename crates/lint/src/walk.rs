//! Workspace file discovery and classification.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{matches_any, Config};

/// What kind of compilation unit a file belongs to — rules scope by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/*/src/**`, `src/**` excluding `src/bin`).
    Lib,
    /// A binary root or its modules (`src/bin/**`, `crates/*/src/bin/**`).
    Bin,
    /// An example (`examples/*.rs`).
    Example,
    /// An integration test or bench (`tests/**`, `benches/**`).
    Test,
}

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Classification.
    pub kind: FileKind,
    /// Whether this file is a crate root rustc compiles directly
    /// (`lib.rs`, `main.rs`, `src/bin/*.rs`, `examples/*.rs`).
    pub is_crate_root: bool,
}

/// Classifies a workspace-relative path. Pure, so fixtures can pretend to
/// be any path.
pub fn classify(rel: &str) -> FileKind {
    let in_tests = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
    if in_tests {
        FileKind::Test
    } else if rel.split('/').any(|seg| seg == "examples") {
        FileKind::Example
    } else if rel.split('/').any(|seg| seg == "bin") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// True for paths rustc compiles as crate roots.
pub fn is_crate_root(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    match segs.as_slice() {
        [.., "src", "lib.rs"] | [.., "src", "main.rs"] => true,
        [.., "src", "bin", f] | [.., "examples", f] => f.ends_with(".rs"),
        // Top-level integration test / bench files are roots too, but the
        // unsafe-confinement root checks deliberately skip Test kind.
        [.., "tests", f] | [.., "benches", f] => f.ends_with(".rs"),
        _ => false,
    }
}

/// Recursively collects every `.rs` file under `root` that is not
/// excluded by `[workspace] exclude`, sorted by path for determinism.
///
/// # Errors
///
/// Propagates filesystem errors other than transient not-found races.
pub fn discover(root: &Path, cfg: &Config) -> io::Result<Vec<SourceFile>> {
    let exclude = cfg.list("workspace", "exclude");
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let rel = match path.strip_prefix(root) {
                Ok(rel) => rel.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            // Hidden dirs (.git, .github) hold no Rust sources we lint.
            if rel
                .split('/')
                .next_back()
                .is_some_and(|s| s.starts_with('.'))
            {
                continue;
            }
            if matches_any(exclude, &rel) {
                continue;
            }
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(SourceFile {
                    kind: classify(&rel),
                    is_crate_root: is_crate_root(&rel),
                    rel,
                    abs: path,
                });
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/gf/src/simd.rs"), FileKind::Lib);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/bench/src/bin/gf_kernels.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("examples/chaos_repair.rs"), FileKind::Example);
        assert_eq!(classify("crates/gf/tests/properties.rs"), FileKind::Test);
        assert_eq!(classify("crates/erasure/benches/codec.rs"), FileKind::Test);
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("crates/gf/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/bin/gf_kernels.rs"));
        assert!(is_crate_root("examples/chaos_repair.rs"));
        assert!(is_crate_root("crates/gf/tests/properties.rs"));
        assert!(!is_crate_root("crates/gf/src/simd.rs"));
        assert!(!is_crate_root("crates/store/src/store.rs"));
    }
}
