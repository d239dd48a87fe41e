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
//! The trait is deliberately *range-aware*: [`ChunkBackend::begin_read`]
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
//! reason; the first chunk write of an object creates its directory
//! that way. Stale `*.tmp` files left by a crash are swept by
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
    /// Blocks until the read has finished and yields its outcome.
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
///
/// Every chunk op is *begun*, then *waited* for. A backend implements one
/// chunk read ([`ChunkBackend::begin_read`]) and one chunk write
/// ([`ChunkBackend::begin_write`]), plus `describe`, `is_available`,
/// `ensure_object`, `remove_object`, `verify_chunk` and `sweep_tmp`. The
/// blocking [`ChunkBackend::read_chunk_into`],
/// [`ChunkBackend::read_chunk_range`] and [`ChunkBackend::write_chunk`]
/// are provided as a begun op waited for at once; the zero write, the
/// begun check, the begun removal, the counters and the span drain have
/// defaults that a backend overrides when it can do better.
pub trait ChunkBackend: Send + Sync + fmt::Debug {
    /// Human-readable location of the disk (a path, or a `chunkd://` addr).
    fn describe(&self) -> String;

    /// Whether the disk is currently present and reachable. A `false` here
    /// is what [`crate::ScrubReport::lost_disks`] reports.
    fn is_available(&self) -> bool;

    /// Creates (durably) the object's directory. Idempotent. A chunk write
    /// creates the directory it needs on its own
    /// ([`ChunkBackend::begin_write`]), so neither `put` nor repair calls
    /// this; it remains as an explicit pre-create.
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

    /// Starts removing every chunk of `object` on this disk, and returns
    /// without waiting: [`ChunkBackend::remove_object`] begun, its outcome
    /// collected at [`PendingWrite::wait`]. An object lives on every disk of
    /// the pool, so a caller that begins all its removals before waiting for
    /// any pays for the slowest round trip instead of their sum.
    ///
    /// The default performs the [`ChunkBackend::remove_object`] here and
    /// now, which is right for a backend with nothing to overlap and for
    /// wrappers that gate [`ChunkBackend::remove_object`].
    fn begin_remove<'a>(&'a self, object: &str) -> Box<dyn PendingWrite + 'a> {
        Box::new(ReadyWrite(self.remove_object(object)))
    }

    /// Starts reading `out.len()` payload bytes at `offset` of a chunk whose
    /// payload is `chunk_len` bytes, and returns without waiting for them.
    /// The range is checksum-verified at half-chunk granularity (see
    /// [`crate::chunk::read_chunk_range`]): a whole chunk, or exactly the
    /// helper ranges [`pbrs_erasure::ErasureCode::repair_reads`] names. The
    /// outcome arrives at [`PendingRead::wait`]. A stripe's chunks live on
    /// different disks, so a caller that begins all its reads before
    /// waiting for any pays for the slowest round trip instead of their
    /// sum.
    ///
    /// Required: it is a backend's one chunk read. A backend with nothing
    /// to overlap reads here and now and returns a [`ReadyRead`]; a
    /// networked one puts the request on the wire and returns.
    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a>;

    /// Starts writing one chunk atomically (tmp + fsync + rename + dir
    /// fsync), creating the object's directory — durably, as
    /// [`ChunkBackend::ensure_object`] does — if it does not exist yet, and
    /// returns without waiting for it to land. The payload stays borrowed
    /// until the handle is waited for or dropped, so a networked backend
    /// can send it straight from the caller's buffer — and must not be
    /// changed meanwhile. A stripe's `n` chunks go to `n` different disks,
    /// so a caller that begins them all before waiting for any pays for
    /// the slowest write instead of their sum.
    ///
    /// Required: it is a backend's one chunk write, finished here and now
    /// ([`ReadyWrite`]) by a backend with nothing to overlap.
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &'a [u8],
    ) -> Box<dyn PendingWrite + 'a>;

    /// Writes one chunk and waits for it: [`ChunkBackend::begin_write`]
    /// waited for at once.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem/transport failure.
    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<()> {
        self.begin_write(object, id, payload).wait()
    }

    /// Reads and fully verifies one chunk into `out` (whose length is the
    /// expected payload length): [`ChunkBackend::begin_read`] of the whole
    /// payload, waited for at once.
    ///
    /// # Errors
    ///
    /// Hard I/O failures only; missing/corrupt chunks are the inner result.
    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        let chunk_len = out.len();
        self.begin_read(object, id, chunk_len, 0, out).wait()
    }

    /// Reads `out.len()` payload bytes at `offset`:
    /// [`ChunkBackend::begin_read`] waited for at once.
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
    ) -> ChunkRead<()> {
        self.begin_read(object, id, chunk_len, offset, out).wait()
    }

    /// Starts writing one chunk of `len` zero bytes: the same chunk file,
    /// with the same atomicity and outcome, as [`ChunkBackend::begin_write`]
    /// of `len` zeros. It is how the store writes the zero padding of a
    /// short stripe. A networked backend sends only the length, and the far
    /// side writes the zeros itself.
    ///
    /// The default performs the [`ChunkBackend::write_chunk`] of a zeroed
    /// buffer here and now, which is right for a backend with nothing to
    /// overlap and for wrappers that gate [`ChunkBackend::begin_write`].
    fn begin_write_zeros<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        len: usize,
    ) -> Box<dyn PendingWrite + 'a> {
        Box::new(ReadyWrite(self.write_chunk(object, id, &vec![0u8; len])))
    }

    /// Starts checking one chunk whose payload is `chunk_len` bytes, and
    /// returns without waiting for the verdict: a read that moves no bytes.
    /// At [`PendingRead::wait`] a healthy chunk is `Ok(Ok(()))` and a
    /// missing or damaged one its [`ChunkStatus`], as a read of it would
    /// report. It is how the store reads the zero padding of a short
    /// stripe, whose bytes it knows but whose chunk it must still check.
    /// The check is [`ChunkBackend::verify_chunk`]'s: header and both half
    /// checksums.
    ///
    /// The default performs the [`ChunkBackend::verify_chunk`] here and now,
    /// which is right for a backend with nothing to overlap and for
    /// wrappers that gate [`ChunkBackend::verify_chunk`].
    fn begin_verify<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Box<dyn PendingRead + 'a> {
        Box::new(ReadyRead(
            self.verify_chunk(object, id, chunk_len)
                .map(|(status, _)| status.into_read()),
        ))
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

    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        let path = self.chunk_path(object, id);
        Box::new(ReadyRead(chunk::read_chunk_range(
            &path, id, chunk_len, offset, out,
        )))
    }

    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &'a [u8],
    ) -> Box<dyn PendingWrite + 'a> {
        let path = self.chunk_path(object, id);
        Box::new(ReadyWrite(match chunk::write_chunk(&path, id, payload) {
            // The first write of an object to this disk: create the
            // directory (durably) and write again.
            Err(StoreError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
                self.ensure_object(object)
                    .and_then(|()| chunk::write_chunk(&path, id, payload))
            }
            written => written,
        }))
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
    fn the_first_write_creates_the_object_directory_and_the_disk_root() {
        let dir = TempDir::new("backend-on-demand");
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        // No disk root yet, let alone an object directory.
        let disk = LocalDisk::new(dir.path().join("disk-00"));
        disk.write_chunk("obj", ID, &payload).unwrap();
        // The root exists, the object directory does not.
        let fresh = LocalDisk::new(dir.path().join("disk-01"));
        fs::create_dir(fresh.root()).unwrap();
        fresh.write_chunk("obj", ID, &payload).unwrap();
        for disk in [&disk, &fresh] {
            assert!(disk.is_available());
            let (status, bytes) = disk.verify_chunk("obj", ID, 512).unwrap();
            assert!(status.is_healthy(), "{status:?}");
            assert_eq!(bytes, 512);
            // A second object on a disk that is already there.
            disk.write_chunk("other", ID, &payload).unwrap();
            assert!(disk.verify_chunk("other", ID, 512).unwrap().0.is_healthy());
        }
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
