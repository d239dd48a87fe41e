//! Overlapped chunk I/O, seen from the backend: the store *begins* every
//! read of a batch before it *waits* for any, and the batches are exactly
//! the reads the serial loops used to issue — k data chunks for a healthy
//! stripe, the `repair_reads` ranges for a planned rebuild, the first k
//! survivors (plus a top-up per failure) for a full reconstruction. The
//! write side has one batch: the n chunks of a stripe, for `put` and for
//! `ObjectWriter` alike, all collected even when one of them fails.
//!
//! The double below records every `begin_read` / `begin_write` and every
//! `wait` in one shared log. A blocking call is recorded as a begin
//! immediately followed by its wait, so a site that fell back to
//! one-at-a-time I/O would show up as an alternating log.

use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pbrs_erasure::ShardRead;
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, FaultPlan, FaultyBackend, LocalDisk,
    PendingRead, PendingWrite, PlacementPolicy, RackMap, StoreConfig, StoreError,
};

const CHUNK_LEN: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Begin(ShardRead),
    Wait(usize),
    BeginWrite(usize),
    WaitWrite(usize),
}

type Log = Arc<Mutex<Vec<Event>>>;

/// A disk that logs when each read and write is begun and waited for.
#[derive(Debug)]
struct Recording {
    inner: Arc<dyn ChunkBackend>,
    log: Log,
}

struct RecordedRead<'a> {
    inner: Box<dyn PendingRead + 'a>,
    shard: usize,
    log: &'a Log,
}

impl PendingRead for RecordedRead<'_> {
    fn wait(self: Box<Self>) -> ChunkRead<()> {
        self.log.lock().unwrap().push(Event::Wait(self.shard));
        self.inner.wait()
    }
}

struct RecordedWrite<'a> {
    inner: Box<dyn PendingWrite + 'a>,
    shard: usize,
    log: &'a Log,
}

impl PendingWrite for RecordedWrite<'_> {
    fn wait(self: Box<Self>) -> Result<(), StoreError> {
        self.log.lock().unwrap().push(Event::WaitWrite(self.shard));
        self.inner.wait()
    }
}

impl ChunkBackend for Recording {
    fn describe(&self) -> String {
        format!("recording({})", self.inner.describe())
    }
    fn is_available(&self) -> bool {
        self.inner.is_available()
    }
    fn ensure_object(&self, object: &str) -> Result<(), StoreError> {
        self.inner.ensure_object(object)
    }
    fn remove_object(&self, object: &str) -> Result<(), StoreError> {
        self.inner.remove_object(object)
    }
    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<(), StoreError> {
        self.begin_write(object, id, payload).wait()
    }
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &[u8],
    ) -> Box<dyn PendingWrite + 'a> {
        self.log.lock().unwrap().push(Event::BeginWrite(id.shard));
        Box::new(RecordedWrite {
            inner: self.inner.begin_write(object, id, payload),
            shard: id.shard,
            log: &self.log,
        })
    }
    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        let chunk_len = out.len();
        self.begin_read(object, id, chunk_len, 0, out).wait()
    }
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
    fn begin_read<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &'a mut [u8],
    ) -> Box<dyn PendingRead + 'a> {
        self.log.lock().unwrap().push(Event::Begin(ShardRead {
            shard: id.shard,
            offset,
            len: out.len(),
        }));
        Box::new(RecordedRead {
            inner: self.inner.begin_read(object, id, chunk_len, offset, out),
            shard: id.shard,
            log: &self.log,
        })
    }
    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64), StoreError> {
        self.inner.verify_chunk(object, id, chunk_len)
    }
    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>, StoreError> {
        self.inner.sweep_tmp(min_age)
    }
}

const N: usize = 9;

/// How a test stacks its doubles on pool disk `i`.
type Mount<'a> = &'a dyn Fn(usize, LocalDisk, &Log) -> Arc<dyn ChunkBackend>;

fn recording(inner: impl ChunkBackend + 'static, log: &Log) -> Arc<dyn ChunkBackend> {
    Arc::new(Recording {
        inner: Arc::new(inner),
        log: Arc::clone(log),
    })
}

/// An empty `piggyback-6-3` store (shard `i` on disk `i`, one rack per
/// disk) over whatever `mount` builds on each local directory.
fn store_over(dir: &TempDir, mount: Mount) -> (BlockStore, Log) {
    let log = Log::default();
    let disks = (0..N)
        .map(|i| {
            let local = LocalDisk::new(dir.path().join(format!("disk-{i:02}")));
            mount(i, local, &log)
        })
        .collect();
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "piggyback-6-3".parse().unwrap())
            .chunk_len(CHUNK_LEN),
        disks,
        RackMap::per_disk(N),
        PlacementPolicy::Identity,
    )
    .unwrap();
    (store, log)
}

/// Two stripes of payload.
fn two_stripes() -> Vec<u8> {
    (0..6 * CHUNK_LEN * 2)
        .map(|i| ((i * 29 + 3) % 251) as u8)
        .collect()
}

/// A store over recording disks, holding a two-stripe object.
fn recorded_store(dir: &TempDir) -> (BlockStore, Log, Vec<u8>) {
    let (store, log) = store_over(dir, &|_, local, log| recording(local, log));
    let data = two_stripes();
    store.put("obj", &data[..]).unwrap();
    (store, log, data)
}

fn chunk_file(dir: &TempDir, stripe: u64, shard: usize) -> std::path::PathBuf {
    dir.path()
        .join(format!("disk-{shard:02}"))
        .join("obj")
        .join(format!("{stripe:08}-{shard:02}.chunk"))
}

/// Drains the log, keeping its read events or its write events.
fn drain(log: &Log, writes: bool) -> Vec<Event> {
    let mut events = std::mem::take(&mut *log.lock().unwrap());
    events.retain(|e| writes == matches!(e, Event::BeginWrite(_) | Event::WaitWrite(_)));
    events
}

fn take(log: &Log) -> Vec<Event> {
    drain(log, false)
}

fn take_writes(log: &Log) -> Vec<Event> {
    drain(log, true)
}

/// The write log of `stripes` stripes: per stripe, all n writes begun in
/// shard order, then all n waited for in the same order.
fn write_batches(stripes: usize) -> Vec<Event> {
    let one: Vec<Event> = (0..N)
        .map(Event::BeginWrite)
        .chain((0..N).map(Event::WaitWrite))
        .collect();
    one.repeat(stripes)
}

/// The log of one batch: every read begun, in order, then every read
/// waited for, in the same order.
fn batch(reads: &[ShardRead]) -> Vec<Event> {
    reads
        .iter()
        .map(|&r| Event::Begin(r))
        .chain(reads.iter().map(|r| Event::Wait(r.shard)))
        .collect()
}

fn whole(shards: impl IntoIterator<Item = usize>) -> Vec<ShardRead> {
    shards
        .into_iter()
        .map(|s| ShardRead::whole(s, CHUNK_LEN))
        .collect()
}

#[test]
fn a_healthy_stripe_begins_all_k_reads_before_the_first_wait() {
    let dir = TempDir::new("overlap-healthy");
    let (store, log, data) = recorded_store(&dir);
    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    let per_stripe = batch(&whole(0..6));
    assert_eq!(take(&log), [per_stripe.clone(), per_stripe].concat());
}

#[test]
fn a_planned_rebuild_begins_exactly_the_repair_reads_ranges() {
    let dir = TempDir::new("overlap-planned");
    let (store, log, data) = recorded_store(&dir);
    const TARGET: usize = 1;
    let mut available = vec![true; 9];
    available[TARGET] = false;
    let plan = store
        .code()
        .repair_reads(TARGET, &available, CHUNK_LEN)
        .unwrap();
    assert!(
        plan.iter().any(|r| r.len == CHUNK_LEN / 2),
        "a piggyback data-shard repair reads half-chunks"
    );
    fs::remove_file(chunk_file(&dir, 0, TARGET)).unwrap();

    // Degraded GET of stripe 0: the k data reads (one comes back missing),
    // then only the plan's ranges that are not already resident — the
    // parity helpers — as one batch. Stripe 1 is healthy.
    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    let parity_helpers: Vec<ShardRead> = plan.iter().copied().filter(|r| r.shard >= 6).collect();
    assert!(!parity_helpers.is_empty());
    assert_eq!(
        take(&log),
        [
            batch(&whole(0..6)),
            batch(&parity_helpers),
            batch(&whole(0..6))
        ]
        .concat()
    );

    // Repair of the same chunk starts from an empty scratch: the whole plan,
    // byte range for byte range, begun before the first wait.
    let repair = store.repair_stripe("obj", 0, &[TARGET]).unwrap();
    assert_eq!(repair.rebuilt, vec![TARGET]);
    assert_eq!(take(&log), batch(&plan));
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn survivor_reads_stop_at_k_and_top_up_only_for_failures() {
    let dir = TempDir::new("overlap-survivors");
    let (store, log, data) = recorded_store(&dir);
    // Two known losses, plus a corrupt survivor nobody has noticed yet.
    fs::remove_file(chunk_file(&dir, 0, 0)).unwrap();
    fs::remove_file(chunk_file(&dir, 0, 1)).unwrap();
    let rotten = chunk_file(&dir, 0, 2);
    let mut bytes = fs::read(&rotten).unwrap();
    bytes[pbrs_store::chunk::HEADER_LEN + 5] ^= 0x10;
    fs::write(&rotten, bytes).unwrap();

    take(&log);
    let repair = store.repair_stripe("obj", 0, &[0, 1]).unwrap();
    assert_eq!(repair.rebuilt, vec![0, 1, 2]);
    // An MDS code needs k = 6 survivors: the first round begins exactly
    // the six next-ranked shards; shard 2 fails its checksum, so a second
    // round tops up with exactly one more.
    assert_eq!(
        take(&log),
        [batch(&whole(2..8)), batch(&whole([8]))].concat()
    );
    assert_eq!(repair.helper_bytes, 6 * CHUNK_LEN as u64);
    assert_eq!(store.get("obj").unwrap(), data);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn a_stripe_begins_all_n_writes_before_the_first_wait_for_put_and_writer() {
    let dir = TempDir::new("overlap-writes");
    let (store, log) = store_over(&dir, &|_, local, log| recording(local, log));
    let data = two_stripes();
    store.put("put", &data[..]).unwrap();
    assert_eq!(take_writes(&log), write_batches(2));

    let store = Arc::new(store);
    let mut writer = store.writer("streamed").unwrap();
    for piece in data.chunks(333) {
        writer.write(piece).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(take_writes(&log), write_batches(2));
    assert_eq!(store.get("put").unwrap(), data);
    assert_eq!(store.get("streamed").unwrap(), data);
}

#[test]
fn the_default_begin_write_is_the_blocking_write_performed_eagerly() {
    // A wrapper that does not override `begin_write` sits above the
    // recorder, so every write reaches it as a blocking `write_chunk`.
    let dir = TempDir::new("overlap-eager");
    let plan = Arc::new(FaultPlan::parse("disk=0 op=verify error", 1).unwrap());
    let (store, log) = store_over(&dir, &|i, local, log| {
        Arc::new(FaultyBackend::new(
            recording(local, log),
            Arc::clone(&plan),
            i,
        ))
    });
    store.put("obj", &two_stripes()[..]).unwrap();
    let pairs: Vec<Event> = (0..N)
        .flat_map(|shard| [Event::BeginWrite(shard), Event::WaitWrite(shard)])
        .collect();
    assert_eq!(take_writes(&log), pairs.repeat(2));
}

#[test]
fn a_failed_write_is_reported_only_after_all_n_are_collected() {
    let dir = TempDir::new("overlap-failed-write");
    // Two disks refuse writes; the recorder sits above the fault, so it
    // sees the store's begins and waits, failed or not.
    let plan =
        Arc::new(FaultPlan::parse("disk=2 op=write error; disk=5 op=write error", 1).unwrap());
    let (store, log) = store_over(&dir, &|i, local, log| {
        recording(
            FaultyBackend::new(Arc::new(local), Arc::clone(&plan), i),
            log,
        )
    });
    let err = store.put("obj", &two_stripes()[..]).unwrap_err();
    // The first stripe: every write begun, every write waited for — also
    // the six behind the first failure — and no second stripe.
    assert_eq!(take_writes(&log), write_batches(1));
    assert!(
        err.to_string().contains("disk-2"),
        "the first error is the one returned: {err}"
    );
    assert_eq!(plan.fired(), 2);
    // put's cleanup ran after the last wait: nothing of the object is left.
    for disk in 0..N {
        assert!(
            !dir.path()
                .join(format!("disk-{disk:02}"))
                .join("obj")
                .exists(),
            "disk {disk} still holds chunks of the failed put"
        );
    }
    assert!(store.objects().is_empty());
}
