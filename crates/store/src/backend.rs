//! Pluggable per-disk chunk storage.
//!
//! The store's original layout — one local directory per "disk" — is one
//! implementation of a small trait, [`ChunkBackend`]: everything
//! [`crate::BlockStore`] needs from a disk is chunk-file I/O keyed by
//! `(object, stripe, shard)` plus a little lifecycle management. Factoring
//! that surface out lets a store mount any mix of:
//!
//! * [`LocalDisk`] — the classic directory-per-disk layout defined here;
//! * a remote disk served by the `pbrs-chunkd` TCP chunk server, whose
//!   client implements this trait over a length-prefixed wire protocol.
//!
//! The trait is deliberately *range-aware*: [`ChunkBackend::read_chunk_range`]
//! serves exactly the helper byte ranges
//! [`pbrs_erasure::ErasureCode::repair_reads`] names (half-chunks for
//! Piggybacked-RS), so a networked backend ships only the bytes a repair
//! actually consumes — the paper's cross-rack traffic argument, measurable
//! on real sockets via [`ChunkBackend::counters`].
//!
//! # Durability
//!
//! [`LocalDisk`] is where the store's crash-safety contract is enforced:
//! every chunk write goes to a `*.tmp` sibling, is fsynced, renamed into
//! place, *and the containing directory is fsynced* — without that last
//! step a power loss can forget the rename itself and resurrect the old
//! file (or no file) even though the data blocks hit the platter. Object
//! directories are fsynced into their disk root on creation for the same
//! reason. Stale `*.tmp` files left by a crash are swept by
//! [`ChunkBackend::sweep_tmp`] (driven from [`crate::BlockStore::scrub`]).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use crate::chunk::{self, ChunkId, ChunkRead, ChunkStatus};
use crate::error::{Result, StoreError};

/// Transport byte counters of a backend.
///
/// For a networked backend these are the bytes that actually crossed the
/// socket (frame headers included), in each direction, since the backend
/// was created. Purely local backends report zeros: no byte leaves the
/// machine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BackendCounters {
    /// Bytes sent to the disk (requests, including chunk payloads written).
    pub bytes_sent: u64,
    /// Bytes received from the disk (responses, including payloads read).
    pub bytes_received: u64,
}

impl BackendCounters {
    /// Sums two counter snapshots.
    #[must_use]
    pub fn combined(self, other: BackendCounters) -> BackendCounters {
        BackendCounters {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
        }
    }
}

/// A chunk read that has been *begun* ([`ChunkBackend::begin_read`]) but
/// whose outcome has not been collected yet. The destination buffer stays
/// mutably borrowed until [`PendingRead::wait`] returns.
pub trait PendingRead {
    /// Blocks until the read has finished and yields its outcome, in the
    /// same shape the blocking reads return.
    ///
    /// # Errors
    ///
    /// Hard I/O failures only; missing/corrupt chunks are the inner result.
    fn wait(self: Box<Self>) -> ChunkRead<()>;
}

/// A [`PendingRead`] whose outcome is already known: what a backend with
/// nothing to overlap hands back from [`ChunkBackend::begin_read`].
#[derive(Debug)]
pub struct ReadyRead(pub ChunkRead<()>);

impl PendingRead for ReadyRead {
    fn wait(self: Box<Self>) -> ChunkRead<()> {
        self.0
    }
}

/// A chunk write that has been *begun* ([`ChunkBackend::begin_write`]) but
/// whose outcome has not been collected yet: the mirror of [`PendingRead`].
pub trait PendingWrite {
    /// Blocks until the write has finished; `Ok` means the chunk is durable
    /// on the disk, exactly as for [`ChunkBackend::write_chunk`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem/transport failure.
    fn wait(self: Box<Self>) -> Result<()>;
}

/// A [`PendingWrite`] whose outcome is already known: what a backend with
/// nothing to overlap hands back from [`ChunkBackend::begin_write`].
#[derive(Debug)]
pub struct ReadyWrite(pub Result<()>);

impl PendingWrite for ReadyWrite {
    fn wait(self: Box<Self>) -> Result<()> {
        self.0
    }
}

/// One "disk" of a [`crate::BlockStore`]: chunk-file storage keyed by
/// `(object, stripe, shard)`.
///
/// Implementations must be safe to share across every thread that holds
/// the store: gateway workers, each driving its own object, and the repair
/// daemon's pool. Methods that read chunks use the store's
/// [`ChunkRead`] shape: the outer error is a hard I/O failure, the inner
/// one a missing/corrupt chunk the caller will repair around.
pub trait ChunkBackend: Send + Sync + fmt::Debug {
    /// Human-readable location of the disk (a path, or a `chunkd://` addr).
    fn describe(&self) -> String;

    /// Whether the disk is currently present and reachable. A `false` here
    /// is what [`crate::ScrubReport::lost_disks`] reports.
    fn is_available(&self) -> bool;

    /// Creates (durably) the object's directory, so chunk writes for it can
    /// land. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem/transport failure.
    fn ensure_object(&self, object: &str) -> Result<()>;

    /// Best-effort removal of every chunk of `object` on this disk. A
    /// missing object directory is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on transport failure.
    fn remove_object(&self, object: &str) -> Result<()>;

    /// Writes one chunk atomically (tmp + fsync + rename + dir fsync).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem/transport failure.
    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<()>;

    /// Reads and fully verifies one chunk into `out` (whose length is the
    /// expected payload length).
    ///
    /// # Errors
    ///
    /// Hard I/O failures only; missing/corrupt chunks are the inner result.
    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()>;

    /// Reads `out.len()` payload bytes at `offset`, checksum-verified at
    /// half-chunk granularity — the partial-read primitive behind
    /// [`pbrs_erasure::ErasureCode::repair_reads`] execution.
    ///
    /// # Errors
    ///
    /// Hard I/O failures only; missing/corrupt chunks are the inner result.
    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()>;

    /// Starts reading `out.len()` payload bytes at `offset` of a chunk whose
    /// payload is `chunk_len` bytes, and returns without waiting for them:
    /// the split form of [`ChunkBackend::read_chunk_into`] (when the range is
    /// the whole payload) and [`ChunkBackend::read_chunk_range`] (otherwise),
    /// with the same verification and the same outcome at
    /// [`PendingRead::wait`]. A stripe's chunks live on different disks, so
    /// a caller that begins all its reads before waiting for any pays for
    /// the slowest round trip instead of their sum.
    ///
    /// The default performs the blocking read here and now and returns a
    /// finished handle — right for a backend with no round trip to overlap,
    /// and for wrappers whose blocking reads carry semantics (deadlines,
    /// injected faults) that must keep applying. A networked backend
    /// overrides it to put the request on the wire and return.
    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        Box::new(ReadyRead(if offset == 0 && out.len() == chunk_len {
            self.read_chunk_into(object, id, out)
        } else {
            self.read_chunk_range(object, id, chunk_len, offset, out)
        }))
    }

    /// Starts writing one chunk and returns without waiting for it to land:
    /// the split form of [`ChunkBackend::write_chunk`], with the same
    /// atomicity and the same outcome at [`PendingWrite::wait`]. The payload
    /// is not borrowed past this call. A stripe's `n` chunks go to `n`
    /// different disks, so a caller that begins them all before waiting for
    /// any pays for the slowest write instead of their sum.
    ///
    /// The default performs the blocking write here and now and returns a
    /// finished handle, for the same backends and the same reasons as
    /// [`ChunkBackend::begin_read`]'s default.
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &[u8],
    ) -> Box<dyn PendingWrite + 'a> {
        Box::new(ReadyWrite(self.write_chunk(object, id, payload)))
    }

    /// Fully verifies one chunk without returning its bytes; reports the
    /// status and how many payload bytes were read doing so. For a remote
    /// disk the verification runs server-side: only the verdict crosses
    /// the wire, never the payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on hard failure.
    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64)>;

    /// Deletes `*.tmp` files older than `min_age` (crash leftovers from
    /// writers that died between tmp-write and rename), returning the
    /// disk-relative paths removed. Young tmp files are left alone: they
    /// may belong to a writer that is still mid-rename.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on hard failure.
    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>>;

    /// Transport byte counters (zeros for purely local backends).
    fn counters(&self) -> BackendCounters {
        BackendCounters::default()
    }

    /// Drain trace spans recorded on the far side of this backend.
    ///
    /// A networked backend that ships requests under a trace envelope can
    /// fetch the server's finished spans here so the caller can assemble
    /// one cross-process trace tree. Local backends have no far side and
    /// return nothing.
    fn drain_spans(&self) -> Vec<pbrs_obs::trace::SpanRecord> {
        Vec::new()
    }
}

/// The classic local backend: one directory per disk, one subdirectory per
/// object, one checksummed chunk file per `(stripe, shard)` (see
/// [`crate::chunk`] for the file format and [the module docs](self) for the
/// durability contract).
#[derive(Debug)]
pub struct LocalDisk {
    root: PathBuf,
}

impl LocalDisk {
    /// A backend over `root` (not created until the first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LocalDisk { root: root.into() }
    }

    /// The disk's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one chunk file within this disk.
    pub fn chunk_path(&self, object: &str, id: ChunkId) -> PathBuf {
        self.root
            .join(object)
            .join(format!("{:08}-{:02}.chunk", id.stripe, id.shard))
    }
}

impl ChunkBackend for LocalDisk {
    fn describe(&self) -> String {
        self.root.display().to_string()
    }

    fn is_available(&self) -> bool {
        self.root.is_dir()
    }

    fn ensure_object(&self, object: &str) -> Result<()> {
        let dir = self.root.join(object);
        if dir.is_dir() {
            return Ok(()); // already created (and made durable) earlier
        }
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        // Make the new directory entries durable: a crash after this call
        // must not forget that the object (or the disk root) exists.
        chunk::fsync_dir(&self.root).map_err(|e| StoreError::io(&self.root, e))?;
        Ok(())
    }

    fn remove_object(&self, object: &str) -> Result<()> {
        match fs::remove_dir_all(self.root.join(object)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(self.root.join(object), e)),
        }
    }

    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<()> {
        chunk::write_chunk(&self.chunk_path(object, id), id, payload)
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        chunk::read_chunk_into(&self.chunk_path(object, id), id, out)
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        chunk::read_chunk_range(&self.chunk_path(object, id), id, chunk_len, offset, out)
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64)> {
        chunk::verify_chunk(&self.chunk_path(object, id), id, chunk_len)
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>> {
        let mut removed = Vec::new();
        // The disk root itself plus every object directory one level down.
        let top = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(removed),
            Err(e) => return Err(StoreError::io(&self.root, e)),
        };
        let mut dirs = vec![self.root.clone()];
        for entry in top {
            let entry = entry.map_err(|e| StoreError::io(&self.root, e))?;
            if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                dirs.push(entry.path());
            }
        }
        let now = SystemTime::now();
        for dir in dirs {
            let entries = match fs::read_dir(&dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(StoreError::io(&dir, e)),
            };
            for entry in entries {
                let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("tmp")
                    || !entry.file_type().map(|t| t.is_file()).unwrap_or(false)
                {
                    continue;
                }
                if !is_stale(&entry, now, min_age) {
                    continue; // possibly a live writer mid-rename
                }
                match fs::remove_file(&path) {
                    // A concurrent rename/removal got there first: fine.
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        return Err(StoreError::io(&path, e))
                    }
                    _ => {}
                }
                let rel = path
                    .strip_prefix(&self.root)
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                removed.push(rel);
            }
        }
        removed.sort();
        Ok(removed)
    }
}

/// Whether a directory entry's mtime is at least `min_age` in the past.
/// Unknown mtimes count as fresh: never delete what we cannot date.
fn is_stale(entry: &fs::DirEntry, now: SystemTime, min_age: Duration) -> bool {
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| now.duration_since(mtime).ok())
        .is_some_and(|age| age >= min_age)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;
    use std::fs::File;

    const ID: ChunkId = ChunkId {
        stripe: 0,
        shard: 1,
    };

    #[test]
    fn local_disk_round_trip_and_layout() {
        let dir = TempDir::new("backend-local");
        let disk = LocalDisk::new(dir.path().join("disk-01"));
        assert!(!disk.is_available());
        disk.ensure_object("obj").unwrap();
        assert!(disk.is_available());
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        disk.write_chunk("obj", ID, &payload).unwrap();
        assert_eq!(
            disk.chunk_path("obj", ID),
            dir.path()
                .join("disk-01")
                .join("obj")
                .join("00000000-01.chunk")
        );
        let mut out = vec![0u8; 512];
        disk.read_chunk_into("obj", ID, &mut out).unwrap().unwrap();
        assert_eq!(out, payload);
        let mut half = vec![0u8; 256];
        disk.read_chunk_range("obj", ID, 512, 256, &mut half)
            .unwrap()
            .unwrap();
        assert_eq!(half, &payload[256..]);
        let (status, bytes) = disk.verify_chunk("obj", ID, 512).unwrap();
        assert!(status.is_healthy());
        assert_eq!(bytes, 512);
        assert_eq!(disk.counters(), BackendCounters::default());

        disk.remove_object("obj").unwrap();
        assert!(matches!(
            disk.read_chunk_into("obj", ID, &mut out)
                .unwrap()
                .unwrap_err(),
            ChunkStatus::Missing
        ));
        disk.remove_object("obj").unwrap(); // idempotent
    }

    #[test]
    fn sweep_tmp_removes_only_stale_files() {
        let dir = TempDir::new("backend-sweep");
        let disk = LocalDisk::new(dir.path().join("disk-00"));
        disk.ensure_object("obj").unwrap();
        let stale = dir.path().join("disk-00/obj/00000003-00.tmp");
        let fresh = dir.path().join("disk-00/obj/00000004-00.tmp");
        let root_stale = dir.path().join("disk-00/stray.tmp");
        let chunk = dir.path().join("disk-00/obj/keep.chunk");
        for path in [&stale, &fresh, &root_stale, &chunk] {
            fs::write(path, b"leftover").unwrap();
        }
        let old = SystemTime::now() - Duration::from_secs(3600);
        for path in [&stale, &root_stale] {
            File::options()
                .write(true)
                .open(path)
                .unwrap()
                .set_modified(old)
                .unwrap();
        }

        let removed = disk.sweep_tmp(Duration::from_secs(60)).unwrap();
        assert_eq!(removed, vec!["obj/00000003-00.tmp", "stray.tmp"]);
        assert!(!stale.exists(), "stale tmp deleted");
        assert!(fresh.exists(), "fresh tmp kept (may be a live writer)");
        assert!(chunk.exists(), "non-tmp files untouched");
        // A second sweep finds nothing; a missing disk sweeps to empty.
        assert!(disk.sweep_tmp(Duration::from_secs(60)).unwrap().is_empty());
        assert!(LocalDisk::new(dir.path().join("nope"))
            .sweep_tmp(Duration::ZERO)
            .unwrap()
            .is_empty());
    }
}
