//! Object I/O: the one ingest sequence and the one read sequence, and the
//! whole-object and stripe-at-a-time entry points over each.
//!
//! An object is written by one sequence — reserve the name, prepare the
//! disks, fill a stripe buffer, zero-pad the tail, encode and write each
//! stripe, commit the manifest entry or clean up — and read by one — look
//! the object up, resolve its placement rows, decode stripe after stripe
//! through one reusable scratch. [`BlockStore::put`] and
//! [`BlockStore::get`] are those sequences driven to completion in one
//! call; a network front door cannot hold O(object) per request, so the
//! same code is also exposed a stripe at a time:
//!
//! * [`ObjectWriter`] — ingest: bytes are appended in arbitrary-sized
//!   pieces into one reusable stripe buffer; every time a stripe fills it
//!   is encoded and its `k + r` chunk writes are begun together and
//!   collected together. The manifest commit happens only at
//!   [`ObjectWriter::finish`], with exactly the durability contract of
//!   `put` (every chunk durable before the entry), and dropping an
//!   unfinished writer aborts cleanly — chunks removed, name released.
//! * [`ObjectReader`] — serving: the object's metadata and placement rows
//!   are resolved once, then [`ObjectReader::read_stripe`] decodes any
//!   stripe into a caller buffer, transparently degrading when chunks are
//!   missing (and reporting that it did, so a serving tier can measure
//!   degraded-read share). One reusable scratch rides along, so steady
//!   state allocates nothing.
//!
//! One thread drives an object; what overlaps is the chunk I/O inside each
//! stripe, across its disks. The writer and the reader hold an
//! `Arc<BlockStore>` and are `Send`, so a reactor can hand them between
//! worker threads as a request progresses.

use std::io::{self, Read};
use std::sync::Arc;

use pbrs_erasure::ShardBuffer;
use pbrs_obs::StageTimes;

use crate::error::{Result, StoreError};
use crate::manifest::ObjectInfo;
use crate::store::{BlockStore, StripeScratch};

/// The ingest sequence: what [`BlockStore::put`] drives to completion and
/// [`ObjectWriter`] drives piece by piece. The store is borrowed per call,
/// so `put(&self)` needs no `Arc`.
struct Ingest {
    name: String,
    buf: ShardBuffer,
    /// Data bytes buffered in the current (unwritten) stripe; always less
    /// than a full stripe between calls.
    filled: usize,
    /// Stripes already encoded and written.
    stripes: u64,
    /// Total payload bytes accepted.
    total: u64,
    /// Cumulative erasure/chunk-io time across flushed stripes.
    stage_times: StageTimes,
    state: IngestState,
}

#[derive(PartialEq)]
enum IngestState {
    Open,
    /// A stripe write failed: the object can no longer be committed.
    Poisoned,
    /// Committed or cleaned up; the name is released.
    Closed,
}

impl Ingest {
    /// Reserves `name` and prepares its directory on every disk.
    fn begin(store: &BlockStore, name: &str) -> Result<Self> {
        store.reserve_name(name)?;
        let mut ingest = Ingest {
            name: name.to_string(),
            buf: ShardBuffer::zeroed(store.shards_per_stripe(), store.chunk_len()),
            filled: 0,
            stripes: 0,
            total: 0,
            stage_times: StageTimes::new(),
            state: IngestState::Open,
        };
        match store.prepare_object_dirs(name) {
            Ok(()) => Ok(ingest),
            Err(e) => {
                ingest.close(store, false);
                Err(e)
            }
        }
    }

    /// Appends everything `src` yields, reading straight into the stripe
    /// buffer; each stripe that fills is encoded and written before the
    /// next byte is read.
    fn fill(&mut self, store: &BlockStore, src: &mut impl Read) -> Result<()> {
        self.check_open()?;
        let chunk_len = store.chunk_len();
        loop {
            let (shard, offset) = (self.filled / chunk_len, self.filled % chunk_len);
            let got = match src.read(&mut self.buf.shard_mut(shard)[offset..]) {
                Ok(0) => return Ok(()),
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StoreError::io(store.root().join("<input>"), e)),
            };
            self.filled += got;
            self.total += got as u64;
            if self.filled == store.stripe_data_len() {
                self.flush_stripe(store)?;
            }
        }
    }

    /// Encodes and writes the buffered stripe (zero-padding a partial
    /// tail), poisoning the ingest on failure.
    fn flush_stripe(&mut self, store: &BlockStore) -> Result<()> {
        let chunk_len = store.chunk_len();
        let k = store.stripe_data_len() / chunk_len;
        // Zero everything past the payload: a partial tail stripe must not
        // leak bytes from the previous stripe into parity.
        let shard = self.filled / chunk_len;
        if shard < k {
            self.buf.shard_mut(shard)[self.filled % chunk_len..].fill(0);
            for s in shard + 1..k {
                self.buf.shard_mut(s).fill(0);
            }
        }
        let result = store.encode_and_write_stripe(
            &self.name,
            self.stripes,
            &mut self.buf,
            &mut self.stage_times,
        );
        match result {
            Ok(()) => {
                self.stripes += 1;
                self.filled = 0;
            }
            Err(_) => self.state = IngestState::Poisoned,
        }
        result
    }

    /// Flushes a partial tail stripe, commits the manifest entry, and
    /// closes the ingest either way.
    fn finish(&mut self, store: &BlockStore) -> Result<ObjectInfo> {
        self.check_open()?;
        let flushed = match self.filled {
            0 => Ok(()),
            _ => self.flush_stripe(store),
        };
        let result =
            flushed.and_then(|()| store.commit_object(&self.name, self.total, self.stripes));
        self.close(store, result.is_ok());
        result
    }

    /// Ends the ingest (idempotent): unless the object was committed, every
    /// chunk written so far is removed best-effort — *before* the name is
    /// released, so a retrying writer cannot recreate the name and then
    /// lose its chunks to this removal.
    fn close(&mut self, store: &BlockStore, committed: bool) {
        if self.state == IngestState::Closed {
            return;
        }
        if !committed {
            store.remove_object_chunks(&self.name);
        }
        store.release_name(&self.name);
        self.state = IngestState::Closed;
    }

    fn check_open(&self) -> Result<()> {
        match self.state {
            IngestState::Open => Ok(()),
            _ => Err(StoreError::ObjectExists {
                name: self.name.clone(),
            }),
        }
    }
}

/// Stripe-at-a-time object ingest; see the [module docs](self).
///
/// Created by [`BlockStore::writer`]. The name is reserved for the whole
/// life of the writer: concurrent `put`s or writers for the same name
/// fail with [`StoreError::ObjectExists`]. Call [`ObjectWriter::finish`]
/// to commit; dropping the writer first aborts the ingest (best-effort
/// chunk cleanup, reservation released).
pub struct ObjectWriter {
    store: Arc<BlockStore>,
    ingest: Ingest,
}

impl ObjectWriter {
    pub(crate) fn new(store: Arc<BlockStore>, name: &str) -> Result<Self> {
        let ingest = Ingest::begin(&store, name)?;
        Ok(ObjectWriter { store, ingest })
    }

    /// The object name being written.
    pub fn name(&self) -> &str {
        &self.ingest.name
    }

    /// Payload bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.ingest.total
    }

    /// Cumulative per-stage time (erasure encode vs chunk I/O) spent by
    /// this writer's stripe flushes so far.
    pub fn stage_times(&self) -> StageTimes {
        self.ingest.stage_times
    }

    /// Appends `data` to the object. Every time the internal stripe
    /// buffer fills, that stripe is encoded and all of its chunks are
    /// written before the call returns — memory held is always one
    /// stripe, regardless of object size.
    ///
    /// # Errors
    ///
    /// Chunk-write and codec failures. After an error the writer is
    /// poisoned: further writes and [`ObjectWriter::finish`] fail, and
    /// dropping it cleans up the partial object.
    pub fn write(&mut self, mut data: &[u8]) -> Result<()> {
        self.ingest.fill(&self.store, &mut data)
    }

    /// Commits the object: flushes a partial tail stripe, then writes the
    /// manifest entry durably. Only after this returns `Ok` is the object
    /// readable; a writer dropped before `finish` leaves no trace.
    ///
    /// # Errors
    ///
    /// Chunk-write, codec, and manifest I/O failures — in every case the
    /// partial object's chunks are removed and the name is released.
    pub fn finish(mut self) -> Result<ObjectInfo> {
        self.ingest.finish(&self.store)
    }

    /// Abandons the ingest: best-effort removal of every chunk written so
    /// far, then the name reservation is released. Equivalent to dropping
    /// the writer, but lets the caller see it happen explicitly.
    pub fn abort(self) {}
}

impl Drop for ObjectWriter {
    fn drop(&mut self) {
        self.ingest.close(&self.store, false);
    }
}

impl std::fmt::Debug for ObjectWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectWriter")
            .field("name", &self.ingest.name)
            .field("bytes_written", &self.ingest.total)
            .field("stripes", &self.ingest.stripes)
            .finish()
    }
}

/// The read sequence: what [`BlockStore::get`] drives over every stripe
/// and [`ObjectReader`] exposes a stripe at a time. Borrows the store per
/// call, like [`Ingest`].
struct Serve {
    name: String,
    info: ObjectInfo,
    rows: Vec<Vec<usize>>,
    scratch: StripeScratch,
    degraded_stripes: u64,
    /// Per-stage time of the most recent `read_stripe` call.
    last_stage_times: StageTimes,
    /// Cumulative per-stage time across all `read_stripe` calls.
    stage_times: StageTimes,
}

impl Serve {
    /// Looks the object up and resolves every stripe's placement once.
    fn open(store: &BlockStore, name: &str) -> Result<Self> {
        let info = store.lookup(name)?;
        store.note_streamed_read(0, true);
        Ok(Serve {
            name: name.to_string(),
            info,
            rows: store.object_rows(name, info.stripes),
            scratch: store.new_scratch(),
            degraded_stripes: 0,
            last_stage_times: StageTimes::new(),
            stage_times: StageTimes::new(),
        })
    }

    /// Payload bytes carried by stripe `stripe` (the last may be short).
    fn stripe_payload_len(&self, store: &BlockStore, stripe: u64) -> usize {
        let full = store.stripe_data_len() as u64;
        let start = stripe * full;
        (self.info.len.saturating_sub(start)).min(full) as usize
    }

    /// See [`ObjectReader::read_stripe`].
    fn read_stripe(
        &mut self,
        store: &BlockStore,
        stripe: u64,
        out: &mut [u8],
    ) -> Result<(usize, bool)> {
        if stripe >= self.info.stripes {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe {stripe} out of range for {:?} ({} stripes)",
                    self.name, self.info.stripes
                ),
            });
        }
        let stripe_len = store.stripe_data_len();
        if out.len() < stripe_len {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe buffer of {} bytes is smaller than the stripe ({stripe_len})",
                    out.len()
                ),
            });
        }
        // pbrs-lint: allow(panic-hygiene) -- stripe is bounded by rows.len(), which is a usize
        let row = &self.rows[usize::try_from(stripe).expect("stripe count fits usize")];
        let mut times = StageTimes::new();
        let degraded = store.read_stripe_into(
            &self.name,
            stripe,
            row,
            &mut out[..stripe_len],
            &mut self.scratch,
            &mut times,
        )?;
        self.last_stage_times = times;
        self.stage_times.merge(&times);
        if degraded {
            self.degraded_stripes += 1;
        }
        let payload = self.stripe_payload_len(store, stripe);
        store.note_streamed_read(payload as u64, false);
        Ok((payload, degraded))
    }
}

/// Stripe-at-a-time object serving; see the [module docs](self).
///
/// Created by [`BlockStore::reader`]. Metadata and per-stripe placement
/// are resolved once at creation; each [`ObjectReader::read_stripe`] then
/// costs exactly that stripe's chunk reads (plus rebuild work when
/// degraded), reusing one internal scratch across calls.
pub struct ObjectReader {
    store: Arc<BlockStore>,
    serve: Serve,
}

impl ObjectReader {
    pub(crate) fn new(store: Arc<BlockStore>, name: &str) -> Result<Self> {
        let serve = Serve::open(&store, name)?;
        Ok(ObjectReader { store, serve })
    }

    /// The object name being read.
    pub fn name(&self) -> &str {
        &self.serve.name
    }

    /// The object's metadata (total length, stripe count).
    pub fn info(&self) -> ObjectInfo {
        self.serve.info
    }

    /// Total payload length in bytes.
    pub fn len(&self) -> u64 {
        self.serve.info.len
    }

    /// Whether the object is empty (zero stripes).
    pub fn is_empty(&self) -> bool {
        self.serve.info.len == 0
    }

    /// Number of stripes.
    pub fn stripes(&self) -> u64 {
        self.serve.info.stripes
    }

    /// The full-stripe payload size (`k × chunk_len`); every stripe but
    /// possibly the last carries exactly this many bytes.
    pub fn stripe_len(&self) -> usize {
        self.store.stripe_data_len()
    }

    /// Payload bytes carried by stripe `stripe` (the last stripe may be
    /// short).
    pub fn stripe_payload_len(&self, stripe: u64) -> usize {
        self.serve.stripe_payload_len(&self.store, stripe)
    }

    /// Stripes served degraded so far by this reader.
    pub fn degraded_stripes(&self) -> u64 {
        self.serve.degraded_stripes
    }

    /// Per-stage time (chunk I/O vs erasure arithmetic) of the most
    /// recent [`ObjectReader::read_stripe`] call — the per-stripe delta a
    /// serving tier ships with each response frame.
    pub fn last_stage_times(&self) -> StageTimes {
        self.serve.last_stage_times
    }

    /// Cumulative per-stage time across every stripe this reader served.
    pub fn stage_times(&self) -> StageTimes {
        self.serve.stage_times
    }

    /// Decodes stripe `stripe` into the front of `out`, transparently
    /// degrading when chunks are missing or corrupt. Returns the payload
    /// length (`stripe_payload_len`; bytes past it in `out` are padding)
    /// and whether the stripe was served degraded.
    ///
    /// `out` must hold at least [`ObjectReader::stripe_len`] bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::StripeUnrecoverable`] when too many chunks are lost,
    /// I/O failures, or [`StoreError::InvalidConfig`] for an out-of-range
    /// stripe or an undersized buffer.
    pub fn read_stripe(&mut self, stripe: u64, out: &mut [u8]) -> Result<(usize, bool)> {
        self.serve.read_stripe(&self.store, stripe, out)
    }
}

impl std::fmt::Debug for ObjectReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectReader")
            .field("name", &self.serve.name)
            .field("len", &self.serve.info.len)
            .field("stripes", &self.serve.info.stripes)
            .field("degraded_stripes", &self.serve.degraded_stripes)
            .finish()
    }
}

impl BlockStore {
    /// Stores `reader`'s bytes as object `name`, streaming stripe by stripe.
    ///
    /// Objects are immutable: storing an existing name fails.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectExists`], [`StoreError::InvalidObjectName`],
    /// or I/O / codec failures. On failure the manifest is left without the
    /// object; already written chunks are removed best-effort.
    pub fn put(&self, name: &str, mut reader: impl Read) -> Result<ObjectInfo> {
        let mut ingest = Ingest::begin(self, name)?;
        let result = ingest
            .fill(self, &mut reader)
            .and_then(|()| ingest.finish(self));
        ingest.close(self, false); // still open only if `fill` failed
        result
    }

    /// Reads object `name` back, transparently falling back to degraded
    /// reads for stripes with missing or corrupt chunks.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ObjectNotFound`],
    /// [`StoreError::ObjectDeleted`] for a tombstoned name, or
    /// [`StoreError::StripeUnrecoverable`] when more chunks are lost than
    /// the code tolerates.
    pub fn get(&self, name: &str) -> Result<Vec<u8>> {
        let mut serve = Serve::open(self, name)?;
        let stripe_len = self.stripe_data_len();
        let padded = usize::try_from(serve.info.stripes)
            .ok()
            .and_then(|stripes| stripes.checked_mul(stripe_len))
            // pbrs-lint: allow(panic-hygiene) -- an object larger than usize::MAX could not have been written
            .expect("object fits in memory");
        let mut out = vec![0u8; padded];
        for (stripe, dest) in out.chunks_mut(stripe_len).enumerate() {
            serve.read_stripe(self, stripe as u64, dest)?;
        }
        // The payload is never longer than its stripes.
        out.truncate(usize::try_from(serve.info.len).unwrap_or(padded));
        Ok(out)
    }

    /// Opens a streaming writer for a new object `name`; see
    /// [`ObjectWriter`]. The name is reserved until the writer finishes
    /// or is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectExists`], [`StoreError::InvalidObjectName`],
    /// or disk preparation failures.
    pub fn writer(self: &Arc<Self>, name: &str) -> Result<ObjectWriter> {
        ObjectWriter::new(Arc::clone(self), name)
    }

    /// Opens a streaming reader over object `name`; see [`ObjectReader`].
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`], or [`StoreError::ObjectDeleted`]
    /// for a tombstoned name.
    pub fn reader(self: &Arc<Self>, name: &str) -> Result<ObjectReader> {
        ObjectReader::new(Arc::clone(self), name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::testing::TempDir;
    use pbrs_erasure::CodeSpec;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    fn small_store(dir: &TempDir, spec: &str) -> Arc<BlockStore> {
        let spec: CodeSpec = spec.parse().unwrap();
        Arc::new(
            BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(512))
                .unwrap(),
        )
    }

    #[test]
    fn streamed_write_matches_put_semantics() {
        let dir = TempDir::new("stream-write");
        let store = small_store(&dir, "rs-4-2");
        // 2.5 stripes, written in awkward piece sizes.
        let data = pattern(4 * 512 * 2 + 700);
        let mut writer = store.writer("obj").unwrap();
        for piece in data.chunks(333) {
            writer.write(piece).unwrap();
        }
        let info = writer.finish().unwrap();
        assert_eq!(info.len, data.len() as u64);
        assert_eq!(info.stripes, 3);
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn put_and_writer_lay_down_identical_chunk_files() {
        // One ingest sequence behind both entry points: the same bytes in
        // one `put` and in awkward `write` pieces, partial tail included.
        let dir = TempDir::new("stream-parity");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 7 + 311); // 8 stripes, last partial
        store.put("whole", &data[..]).unwrap();
        let mut writer = store.writer("pieces").unwrap();
        for piece in data.chunks(333) {
            writer.write(piece).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), store.object("whole").unwrap());
        for stripe in 0..8 {
            for shard in 0..6 {
                assert_eq!(
                    std::fs::read(store.chunk_path("whole", stripe, shard)).unwrap(),
                    std::fs::read(store.chunk_path("pieces", stripe, shard)).unwrap(),
                    "stripe {stripe} shard {shard}"
                );
            }
        }
        assert_eq!(store.get("whole").unwrap(), data);
        assert_eq!(store.get("pieces").unwrap(), data);
    }

    #[test]
    fn failed_preparation_leaves_no_directory_behind() {
        use crate::backend::{ChunkBackend, LocalDisk};
        use crate::fault::{FaultPlan, FaultyBackend};
        use crate::{PlacementPolicy, RackMap};

        let dir = TempDir::new("stream-prepare-fail");
        // Disk 3 refuses metadata ops four times: `ensure_object` and the
        // clean-up's `remove_object`, for each of the two attempts below.
        let plan = Arc::new(FaultPlan::parse("disk=3 op=meta error count=4", 1).unwrap());
        let disks: Vec<Arc<dyn ChunkBackend>> = (0..6)
            .map(|i| {
                let local = LocalDisk::new(dir.path().join(format!("disk-{i:02}")));
                Arc::new(FaultyBackend::new(Arc::new(local), Arc::clone(&plan), i))
                    as Arc<dyn ChunkBackend>
            })
            .collect();
        let store = Arc::new(
            BlockStore::open_with_backends(
                StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap()).chunk_len(512),
                disks,
                RackMap::per_disk(6),
                PlacementPolicy::Identity,
            )
            .unwrap(),
        );
        let no_trace = |attempt: &str| {
            for disk in 0..6 {
                let object_dir = dir.path().join(format!("disk-{disk:02}")).join("obj");
                assert!(!object_dir.exists(), "{attempt} left {object_dir:?} behind");
            }
        };
        assert!(matches!(store.writer("obj"), Err(StoreError::Io { .. })));
        no_trace("writer()");
        assert!(matches!(
            store.put("obj", &pattern(100)[..]),
            Err(StoreError::Io { .. })
        ));
        no_trace("put()");
        assert_eq!(plan.fired(), 4);
        // The name was released both times, and the disk has recovered.
        store.put("obj", &pattern(100)[..]).unwrap();
        assert_eq!(store.get("obj").unwrap(), pattern(100));
    }

    #[test]
    fn dropped_writer_leaves_no_trace_and_frees_the_name() {
        let dir = TempDir::new("stream-abort");
        let store = small_store(&dir, "rs-4-2");
        {
            let mut writer = store.writer("obj").unwrap();
            writer.write(&pattern(5000)).unwrap();
            // The name is reserved while the writer lives.
            assert!(matches!(
                store.writer("obj"),
                Err(StoreError::ObjectExists { .. })
            ));
            // Dropped without finish.
        }
        assert!(matches!(
            store.get("obj"),
            Err(StoreError::ObjectNotFound { .. })
        ));
        // The name is free again, and a clean ingest works.
        let data = pattern(1000);
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn reader_streams_stripes_healthy_and_degraded() {
        let dir = TempDir::new("stream-read");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 3 + 123);
        store.put("obj", &data[..]).unwrap();

        let mut reader = store.reader("obj").unwrap();
        assert_eq!(reader.len(), data.len() as u64);
        assert_eq!(reader.stripes(), 4);
        let mut out = vec![0u8; reader.stripe_len()];
        let mut served = Vec::new();
        for stripe in 0..reader.stripes() {
            let (len, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(!degraded, "healthy store must not degrade");
            served.extend_from_slice(&out[..len]);
        }
        assert_eq!(served, data);

        // Lose a data disk: the same reader API serves degraded and says so.
        std::fs::remove_dir_all(store.disk_path(1)).unwrap();
        let mut reader = store.reader("obj").unwrap();
        let mut served = Vec::new();
        for stripe in 0..reader.stripes() {
            let (len, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(degraded, "stripe {stripe} must report degraded");
            served.extend_from_slice(&out[..len]);
        }
        assert_eq!(served, data);
        assert_eq!(reader.degraded_stripes(), 4);
    }

    #[test]
    fn stage_times_and_latency_histograms_accumulate() {
        use pbrs_obs::Stage;
        let dir = TempDir::new("stream-stages");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 3);
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        // Stripes have been flushed, so encode + chunk writes were timed.
        let wt = writer.stage_times();
        assert!(wt.get(Stage::ChunkIo) > 0, "writer chunk io untimed");
        writer.finish().unwrap();

        let mut out = vec![0u8; store.stripe_data_len()];
        let mut reader = store.reader("obj").unwrap();
        reader.read_stripe(0, &mut out).unwrap();
        let healthy = reader.last_stage_times();
        assert!(healthy.get(Stage::ChunkIo) > 0, "read chunk io untimed");
        assert_eq!(healthy.get(Stage::Erasure), 0, "healthy read ran erasure");
        assert_eq!(store.latency().healthy_stripe_read.count(), 1);

        // Lose a disk: degraded reads time the reconstruct and feed the
        // degraded histograms.
        std::fs::remove_dir_all(store.disk_path(0)).unwrap();
        let mut reader = store.reader("obj").unwrap();
        for stripe in 0..reader.stripes() {
            let (_, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(degraded);
        }
        let total = reader.stage_times();
        assert!(total.get(Stage::ChunkIo) > 0);
        let latency = store.latency();
        assert_eq!(latency.degraded_stripe_read.count(), 3);
        assert_eq!(latency.degraded_reconstruct.count(), 3);
        assert!(latency.degraded_reconstruct.p99() <= latency.degraded_stripe_read.max());
    }

    #[test]
    fn reader_of_deleted_object_sees_the_typed_error() {
        let dir = TempDir::new("stream-deleted");
        let store = small_store(&dir, "rs-4-2");
        store.put("obj", &pattern(100)[..]).unwrap();
        store.delete("obj").unwrap();
        assert!(matches!(
            store.reader("obj"),
            Err(StoreError::ObjectDeleted { .. })
        ));
        assert!(matches!(
            store.reader("never"),
            Err(StoreError::ObjectNotFound { .. })
        ));
    }

    #[test]
    fn empty_object_round_trips() {
        let dir = TempDir::new("stream-empty");
        let store = small_store(&dir, "rs-4-2");
        let writer = store.writer("empty").unwrap();
        let info = writer.finish().unwrap();
        assert_eq!(info.len, 0);
        assert_eq!(info.stripes, 0);
        let reader = store.reader("empty").unwrap();
        assert!(reader.is_empty());
        assert_eq!(store.get("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn out_of_range_stripe_and_short_buffer_are_rejected() {
        let dir = TempDir::new("stream-bounds");
        let store = small_store(&dir, "rs-4-2");
        store.put("obj", &pattern(100)[..]).unwrap();
        let mut reader = store.reader("obj").unwrap();
        let mut out = vec![0u8; reader.stripe_len()];
        assert!(reader.read_stripe(5, &mut out).is_err());
        let mut short = vec![0u8; 8];
        assert!(reader.read_stripe(0, &mut short).is_err());
    }
}
