//! The durable stripe manifest.
//!
//! One small text file at the store root records the store-wide geometry
//! (code spec, chunk length, backend pool size, placement policy and seed),
//! every object's logical length and stripe count, every placed stripe's
//! disk set, and the tombstones of deleted objects whose chunks are still
//! awaiting the scrub sweep. The format is line-oriented and versioned:
//!
//! ```text
//! pbrs-store v2
//! code piggyback-10-4
//! chunk 65536
//! pool 28
//! policy rack-disjoint
//! pseed 42
//! object 67108864 26 my-dataset.bin
//! place my-dataset.bin 0 3,7,12,25,1,9,14,20,5,17,22,11,27,6
//! tomb old-dataset.bin
//! ```
//!
//! `place` lines exist only for stores with a non-identity placement
//! policy: they pin each stripe's shard→disk assignment durably, so reads
//! after a reopen resolve chunks without re-deriving the placement (the
//! derivation is deterministic, but the manifest is the authority). `tomb`
//! lines are the delete path's write-ahead record: the named object is gone
//! from the object table, and its chunks are garbage to be swept by the
//! next scrub.
//!
//! Object names are restricted to `[A-Za-z0-9._-]` (and may not be `.` or
//! `..`), so a name is always a safe directory component and the name can be
//! the final, whitespace-containing-free token of its line. The manifest is
//! rewritten atomically (`MANIFEST.tmp` + rename) after every mutation, so
//! a crash leaves either the old or the new manifest, never a torn one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use pbrs_erasure::CodeSpec;
use pbrs_placement::PlacementPolicy;

use crate::error::{Result, StoreError};

/// File name of the manifest within the store root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The first line of every manifest.
const VERSION_LINE_V2: &str = "pbrs-store v2";

/// Durable description of one stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Logical length in bytes (the exact byte count `get` returns).
    pub len: u64,
    /// Number of stripes the object occupies.
    pub stripes: u64,
}

/// The in-memory manifest: store geometry plus the object table, stripe
/// placements and delete tombstones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The erasure code every stripe of this store uses.
    pub spec: CodeSpec,
    /// Payload bytes per chunk (equal for every chunk in the store).
    pub chunk_len: usize,
    /// Backends mounted (the disk pool the placements index into).
    pub pool: usize,
    /// The placement policy stripes were (and will be) placed under.
    pub policy: PlacementPolicy,
    /// The deterministic placement seed.
    pub seed: u64,
    /// All objects, keyed by name.
    pub objects: BTreeMap<String, ObjectInfo>,
    /// Per-stripe disk sets of placed objects: `placements[name][stripe]`
    /// lists the disk holding each shard. Objects without an entry use the
    /// identity layout (shard `i` on disk `i`).
    pub placements: BTreeMap<String, Vec<Vec<usize>>>,
    /// Deleted objects whose chunks have not been swept yet.
    pub tombstones: BTreeSet<String>,
}

/// Validates an object name for use as a path component and manifest token.
///
/// # Errors
///
/// Returns [`StoreError::InvalidObjectName`] for empty names, names longer
/// than 255 bytes, path-traversal names (`.`, `..`) and characters outside
/// `[A-Za-z0-9._-]`.
pub fn validate_object_name(name: &str) -> Result<()> {
    let reject = |reason| {
        Err(StoreError::InvalidObjectName {
            name: name.to_string(),
            reason,
        })
    };
    if name.is_empty() {
        return reject("name is empty");
    }
    if name.len() > 255 {
        return reject("name exceeds 255 bytes");
    }
    if name == "." || name == ".." {
        return reject("name is a path-traversal component");
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return reject("allowed characters are A-Z a-z 0-9 . _ -");
    }
    Ok(())
}

impl Manifest {
    /// A fresh manifest with no objects.
    pub fn new(
        spec: CodeSpec,
        chunk_len: usize,
        pool: usize,
        policy: PlacementPolicy,
        seed: u64,
    ) -> Self {
        Manifest {
            spec,
            chunk_len,
            pool,
            policy,
            seed,
            objects: BTreeMap::new(),
            placements: BTreeMap::new(),
            tombstones: BTreeSet::new(),
        }
    }

    /// Serialises the manifest to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(VERSION_LINE_V2);
        out.push('\n');
        out.push_str(&format!("code {}\n", self.spec));
        out.push_str(&format!("chunk {}\n", self.chunk_len));
        out.push_str(&format!("pool {}\n", self.pool));
        out.push_str(&format!("policy {}\n", self.policy));
        out.push_str(&format!("pseed {}\n", self.seed));
        for (name, info) in &self.objects {
            out.push_str(&format!("object {} {} {name}\n", info.len, info.stripes));
        }
        for (name, stripes) in &self.placements {
            for (stripe, disks) in stripes.iter().enumerate() {
                let list: Vec<String> = disks.iter().map(usize::to_string).collect();
                out.push_str(&format!("place {name} {stripe} {}\n", list.join(",")));
            }
        }
        for name in &self.tombstones {
            out.push_str(&format!("tomb {name}\n"));
        }
        out
    }

    /// Parses a manifest from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptManifest`] naming the offending line.
    pub fn parse(path: &Path, text: &str) -> Result<Self> {
        let corrupt = |line: usize, reason: String| StoreError::CorruptManifest {
            path: path.to_path_buf(),
            line,
            reason,
        };
        let mut lines = text.lines().enumerate();
        let Some((_, version)) = lines.next() else {
            return Err(corrupt(0, "empty manifest".into()));
        };
        if version != VERSION_LINE_V2 {
            return Err(corrupt(
                1,
                format!("unknown version line {version:?} (expected {VERSION_LINE_V2:?})"),
            ));
        }
        let mut spec: Option<CodeSpec> = None;
        let mut chunk_len: Option<usize> = None;
        let mut pool: Option<usize> = None;
        let mut policy: Option<PlacementPolicy> = None;
        let mut seed: u64 = 0;
        let mut objects = BTreeMap::new();
        let mut placements: BTreeMap<String, Vec<Vec<usize>>> = BTreeMap::new();
        let mut tombstones = BTreeSet::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| corrupt(lineno, format!("malformed line {line:?}")))?;
            match key {
                "code" => {
                    let parsed = rest
                        .parse()
                        .map_err(|e| corrupt(lineno, format!("bad code spec: {e}")))?;
                    spec = Some(parsed);
                }
                "chunk" => {
                    let parsed = rest
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad chunk length {rest:?}")))?;
                    chunk_len = Some(parsed);
                }
                "pool" => {
                    let parsed = rest
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad pool size {rest:?}")))?;
                    pool = Some(parsed);
                }
                "policy" => {
                    let parsed = rest
                        .parse()
                        .map_err(|e| corrupt(lineno, format!("bad placement policy: {e}")))?;
                    policy = Some(parsed);
                }
                "pseed" => {
                    seed = rest
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad placement seed {rest:?}")))?;
                }
                "object" => {
                    let mut fields = rest.splitn(3, ' ');
                    let (len, stripes, name) = match (fields.next(), fields.next(), fields.next()) {
                        (Some(len), Some(stripes), Some(name)) => (len, stripes, name),
                        _ => {
                            return Err(corrupt(
                                lineno,
                                format!("object line needs <len> <stripes> <name>: {line:?}"),
                            ))
                        }
                    };
                    let len: u64 = len
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad object length {len:?}")))?;
                    let stripes: u64 = stripes
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad stripe count {stripes:?}")))?;
                    validate_object_name(name)
                        .map_err(|e| corrupt(lineno, format!("bad object name: {e}")))?;
                    if objects
                        .insert(name.to_string(), ObjectInfo { len, stripes })
                        .is_some()
                    {
                        return Err(corrupt(lineno, format!("duplicate object {name:?}")));
                    }
                }
                "place" => {
                    let mut fields = rest.splitn(3, ' ');
                    let (name, stripe, disks) = match (fields.next(), fields.next(), fields.next())
                    {
                        (Some(name), Some(stripe), Some(disks)) => (name, stripe, disks),
                        _ => {
                            return Err(corrupt(
                                lineno,
                                format!("place line needs <name> <stripe> <disks>: {line:?}"),
                            ))
                        }
                    };
                    validate_object_name(name)
                        .map_err(|e| corrupt(lineno, format!("bad object name: {e}")))?;
                    let stripe: usize = stripe
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad stripe index {stripe:?}")))?;
                    let disks: Vec<usize> = disks
                        .split(',')
                        .map(|d| d.parse::<usize>())
                        .collect::<std::result::Result<_, _>>()
                        .map_err(|_| corrupt(lineno, format!("bad disk list {disks:?}")))?;
                    let rows = placements.entry(name.to_string()).or_default();
                    // Placement rows must arrive dense and in stripe order.
                    if stripe != rows.len() {
                        return Err(corrupt(
                            lineno,
                            format!(
                                "place line for {name:?} stripe {stripe} out of order \
                                 (expected stripe {})",
                                rows.len()
                            ),
                        ));
                    }
                    rows.push(disks);
                }
                "tomb" => {
                    validate_object_name(rest)
                        .map_err(|e| corrupt(lineno, format!("bad tombstone name: {e}")))?;
                    tombstones.insert(rest.to_string());
                }
                other => return Err(corrupt(lineno, format!("unknown key {other:?}"))),
            }
        }
        let spec = spec.ok_or_else(|| corrupt(0, "missing \"code\" line".into()))?;
        let chunk_len = chunk_len.ok_or_else(|| corrupt(0, "missing \"chunk\" line".into()))?;
        let pool = pool.ok_or_else(|| corrupt(0, "missing \"pool\" line".into()))?;
        let policy = policy.ok_or_else(|| corrupt(0, "missing \"policy\" line".into()))?;
        let manifest = Manifest {
            spec,
            chunk_len,
            pool,
            policy,
            seed,
            objects,
            placements,
            tombstones,
        };
        manifest.check_consistency(path)?;
        Ok(manifest)
    }

    /// Cross-line invariants: placements reference live objects, cover their
    /// stripes exactly, index real disks, and no name is both an object and
    /// a tombstone.
    fn check_consistency(&self, path: &Path) -> Result<()> {
        let corrupt = |reason: String| StoreError::CorruptManifest {
            path: path.to_path_buf(),
            line: 0,
            reason,
        };
        let width = self.spec.total_shards();
        for (name, rows) in &self.placements {
            let info = self
                .objects
                .get(name)
                .ok_or_else(|| corrupt(format!("placement for unknown object {name:?}")))?;
            if rows.len() as u64 != info.stripes {
                return Err(corrupt(format!(
                    "object {name:?} has {} stripes but {} placement rows",
                    info.stripes,
                    rows.len()
                )));
            }
            for (stripe, disks) in rows.iter().enumerate() {
                if disks.len() != width {
                    return Err(corrupt(format!(
                        "placement of {name:?} stripe {stripe} lists {} disks \
                         for a {width}-shard code",
                        disks.len()
                    )));
                }
                if let Some(&bad) = disks.iter().find(|&&d| d >= self.pool) {
                    return Err(corrupt(format!(
                        "placement of {name:?} stripe {stripe} names disk {bad} \
                         outside the {}-disk pool",
                        self.pool
                    )));
                }
            }
        }
        if self.policy == PlacementPolicy::Identity {
            if let Some(name) = self.placements.keys().next() {
                return Err(corrupt(format!(
                    "placement rows for {name:?} under the identity policy"
                )));
            }
        } else {
            // A placed store's manifest is the placement authority: every
            // non-empty object must carry its rows.
            for (name, info) in &self.objects {
                if info.stripes > 0 && !self.placements.contains_key(name) {
                    return Err(corrupt(format!(
                        "object {name:?} has no placement rows under the {} policy",
                        self.policy
                    )));
                }
            }
        }
        if let Some(both) = self
            .tombstones
            .iter()
            .find(|t| self.objects.contains_key(*t))
        {
            return Err(corrupt(format!(
                "{both:?} is both a live object and a tombstone"
            )));
        }
        Ok(())
    }

    /// Loads the manifest from `root/MANIFEST`, or `None` if the file does
    /// not exist (a fresh store).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] / [`StoreError::CorruptManifest`].
    pub fn load(root: &Path) -> Result<Option<Self>> {
        let path = manifest_path(root);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(&path, e)),
        };
        Self::parse(&path, &text).map(Some)
    }

    /// Atomically and durably writes the manifest to `root/MANIFEST`: the
    /// text goes to a `.tmp` sibling, is fsynced, is renamed into place,
    /// and the root directory is fsynced — so a crash at any point leaves
    /// either the old manifest or the new one, and a completed save cannot
    /// be undone by power loss (the rename lives in the directory's data
    /// blocks, which the file's own fsync does not cover).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, root: &Path) -> Result<()> {
        use std::io::Write;

        let path = manifest_path(root);
        let tmp = path.with_extension("tmp");
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut file = fs::File::create(tmp)?;
            file.write_all(self.to_text().as_bytes())?;
            // Without the sync, the rename below can hit disk before the
            // data blocks, leaving a torn manifest after power loss.
            file.sync_data()?;
            Ok(())
        };
        write(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
        crate::chunk::fsync_dir(root).map_err(|e| StoreError::io(root, e))?;
        Ok(())
    }
}

/// Path of the manifest file within a store root.
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join(MANIFEST_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    fn sample() -> Manifest {
        let mut m = Manifest::new(
            CodeSpec::FACEBOOK_PIGGYBACK,
            65536,
            28,
            PlacementPolicy::RackDisjoint,
            42,
        );
        m.objects.insert(
            "a.bin".into(),
            ObjectInfo {
                len: 1000,
                stripes: 1,
            },
        );
        m.objects.insert(
            "models_v2-final".into(),
            ObjectInfo {
                len: 1500,
                stripes: 2,
            },
        );
        m.placements.insert(
            "a.bin".into(),
            vec![vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 1, 4, 7, 10]],
        );
        m.placements.insert(
            "models_v2-final".into(),
            vec![
                vec![2, 5, 8, 11, 14, 17, 20, 23, 26, 0, 3, 6, 9, 12],
                vec![13, 16, 19, 22, 25, 1, 4, 7, 10, 2, 5, 8, 11, 14],
            ],
        );
        m.tombstones.insert("gone.bin".into());
        m
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let parsed = Manifest::parse(Path::new("MANIFEST"), &m.to_text()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = TempDir::new("manifest-io");
        let m = sample();
        m.save(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap().unwrap(), m);
        assert!(!manifest_path(dir.path()).with_extension("tmp").exists());
        // A store root with no manifest loads as None.
        let empty = TempDir::new("manifest-empty");
        assert!(Manifest::load(empty.path()).unwrap().is_none());
    }

    #[test]
    fn v1_manifests_are_refused_on_line_1() {
        let text = "pbrs-store v1\ncode rs-10-4\nchunk 64\nobject 10 1 a\n";
        match Manifest::parse(Path::new("MANIFEST"), text) {
            Err(StoreError::CorruptManifest { line, reason, .. }) => {
                assert_eq!(line, 1);
                assert!(reason.contains("pbrs-store v1"), "{reason}");
            }
            other => panic!("a v1 manifest must be refused, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_damage() {
        let path = Path::new("MANIFEST");
        let v2 = "pbrs-store v2\ncode rs-4-2\nchunk 64\npool 12\npolicy rack-disjoint\npseed 7\n";
        let fixed = "pbrs-store v2\ncode rs-10-4\nchunk 64\npool 14\npolicy identity\n";
        // Both headers load on their own, so each case fails on its damage.
        for header in [v2, fixed] {
            Manifest::parse(path, header).unwrap();
        }
        let cases = [
            ("".to_string(), "empty"),
            ("pbrs-store v9\n".to_string(), "version"),
            (
                "pbrs-store v2\nchunk 64\npool 14\npolicy identity\n".to_string(),
                "missing \"code\"",
            ),
            (
                "pbrs-store v2\ncode rs-10-4\npool 14\npolicy identity\n".to_string(),
                "missing \"chunk\"",
            ),
            (
                "pbrs-store v2\ncode nonsense-1\nchunk 64\npool 14\npolicy identity\n".to_string(),
                "code spec",
            ),
            (
                "pbrs-store v2\ncode rs-10-4\nchunk x\npool 14\npolicy identity\n".to_string(),
                "chunk length",
            ),
            (
                "pbrs-store v2\ncode rs-10-4\nchunk 64\npolicy identity\n".to_string(),
                "missing \"pool\"",
            ),
            (
                "pbrs-store v2\ncode rs-10-4\nchunk 64\npool 14\n".to_string(),
                "missing \"policy\"",
            ),
            (format!("{v2}policy sideways\n"), "unknown policy"),
            (format!("{fixed}object 10 a\n"), "object line"),
            (
                format!("{fixed}object 10 1 a\nobject 10 1 a\n"),
                "duplicate",
            ),
            (format!("{fixed}whatever 1\n"), "unknown key"),
            (
                format!("{v2}object 10 1 a\nplace a 1 0,1,2,3,4,5\n"),
                "place row out of order",
            ),
            (
                format!("{v2}object 10 1 a\nplace a 0 0,1,2\n"),
                "place row too narrow",
            ),
            (
                format!("{v2}object 10 1 a\nplace a 0 0,1,2,3,4,99\n"),
                "place disk outside the pool",
            ),
            (
                format!("{v2}place ghost 0 0,1,2,3,4,5\n"),
                "place for unknown object",
            ),
            (
                format!("{v2}object 10 1 a\n"),
                "object missing its placement rows",
            ),
            (
                format!("{v2}object 10 1 a\nplace a 0 0,1,2,3,4,5\ntomb a\n"),
                "object and tombstone at once",
            ),
        ];
        for (text, why) in cases {
            assert!(
                Manifest::parse(path, &text).is_err(),
                "{why}: {text:?} should be rejected"
            );
        }
    }

    #[test]
    fn object_name_validation() {
        for good in ["a", "A-1_b.bin", "x".repeat(255).as_str(), "..a", "a.."] {
            assert!(validate_object_name(good).is_ok(), "{good:?}");
        }
        for bad in [
            "",
            ".",
            "..",
            "a/b",
            "a b",
            "a\nb",
            "é",
            "x".repeat(256).as_str(),
        ] {
            assert!(validate_object_name(bad).is_err(), "{bad:?}");
        }
    }
}
