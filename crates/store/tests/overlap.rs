//! Overlapped chunk I/O, seen from the backend: the store *begins* every
//! read of a batch before it *waits* for any. A healthy stripe is one
//! batch of its k data chunks. A rebuild is one batch per round: the
//! ranges its plans (`repair_reads_ranked`, one plan per lost chunk) name
//! that are not already resident. A failed helper makes one more round
//! that plans around it, so each range is begun once, the failed helper
//! is never asked again, and an MDS code tops up with one survivor per
//! failure. A short stripe's zero padding is never read: a GET begins a
//! check of each padding chunk (`begin_verify`) in the batch of k, its
//! rebuilds begin no range on it, and a lost padding chunk is rebuilt with
//! no read at all.
//! The write side has one batch: the n chunks of a stripe, for `put` and
//! for `ObjectWriter` alike, all collected even when one of them fails; a
//! short stripe's padding chunks are begun in it as zero writes.
//!
//! A PUT onto a tombstoned name sweeps the old chunks as one batch too:
//! every disk's removal is begun before any is waited for.
//!
//! The double below records every `begin_read` / `begin_verify` /
//! `begin_write` / `begin_write_zeros` / `begin_remove` and every `wait` in
//! one shared log.
//! A blocking call is the trait's begun op waited for at once, so it is
//! recorded as a begin immediately followed by its wait, and a site that
//! fell back to one-at-a-time I/O would show up as an alternating log.

use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pbrs_core::registry;
use pbrs_erasure::{total_read_bytes as total, CodeSpec, ShardRead};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, FaultPlan, FaultyBackend, LocalDisk,
    PendingRead, PendingWrite, PlacementPolicy, RackMap, StoreConfig, StoreError,
};

const CHUNK_LEN: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Begin(ShardRead),
    BeginVerify(usize),
    Wait(usize),
    BeginWrite(usize),
    BeginWriteZeros(usize),
    WaitWrite(usize),
    BeginRemove,
    WaitRemove,
}

type Log = Arc<Mutex<Vec<Event>>>;

/// A disk that logs when each read, check and write is begun and waited
/// for.
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
    /// What its wait logs.
    waited: Event,
    log: &'a Log,
}

impl PendingWrite for RecordedWrite<'_> {
    fn wait(self: Box<Self>) -> Result<(), StoreError> {
        self.log.lock().unwrap().push(self.waited);
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
    fn begin_remove<'a>(&'a self, object: &str) -> Box<dyn PendingWrite + 'a> {
        self.log.lock().unwrap().push(Event::BeginRemove);
        Box::new(RecordedWrite {
            inner: self.inner.begin_remove(object),
            waited: Event::WaitRemove,
            log: &self.log,
        })
    }
    fn begin_write<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        payload: &'a [u8],
    ) -> Box<dyn PendingWrite + 'a> {
        self.log.lock().unwrap().push(Event::BeginWrite(id.shard));
        Box::new(RecordedWrite {
            inner: self.inner.begin_write(object, id, payload),
            waited: Event::WaitWrite(id.shard),
            log: &self.log,
        })
    }
    fn begin_write_zeros<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        len: usize,
    ) -> Box<dyn PendingWrite + 'a> {
        self.log
            .lock()
            .unwrap()
            .push(Event::BeginWriteZeros(id.shard));
        Box::new(RecordedWrite {
            inner: self.inner.begin_write_zeros(object, id, len),
            waited: Event::WaitWrite(id.shard),
            log: &self.log,
        })
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
    fn begin_verify<'a>(
        &'a self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Box<dyn PendingRead + 'a> {
        self.log.lock().unwrap().push(Event::BeginVerify(id.shard));
        Box::new(RecordedRead {
            inner: self.inner.begin_verify(object, id, chunk_len),
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
    store_of(dir, "piggyback-6-3", mount)
}

/// [`store_over`] for any code.
fn store_of(dir: &TempDir, spec: &str, mount: Mount) -> (BlockStore, Log) {
    let spec: CodeSpec = spec.parse().unwrap();
    let n = registry::build(&spec).unwrap().params().total_shards();
    let log = Log::default();
    let disks = (0..n)
        .map(|i| {
            let local = LocalDisk::new(dir.path().join(format!("disk-{i:02}")));
            mount(i, local, &log)
        })
        .collect();
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), spec).chunk_len(CHUNK_LEN),
        disks,
        RackMap::per_disk(n),
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

/// The data shards of [`short_store`]'s stripe that hold payload; the
/// rest of the six are zero padding.
const FILLED: std::ops::Range<usize> = 0..3;

/// A store over recording disks, holding a one-stripe object of two and a
/// half chunks: shards 0 and 1 full, shard 2 half filled, shards 3–5 zero
/// padding.
fn short_store(dir: &TempDir) -> (BlockStore, Log, Vec<u8>) {
    let (store, log) = store_over(dir, &|_, local, log| recording(local, log));
    let data = two_stripes()[..5 * CHUNK_LEN / 2].to_vec();
    store.put("obj", &data[..]).unwrap();
    (store, log, data)
}

/// The single-loss plan for `target`, as the code declares it.
fn plan(store: &BlockStore, target: usize) -> Vec<ShardRead> {
    let mut available = vec![true; N];
    available[target] = false;
    store
        .code()
        .repair_reads(target, &available, CHUNK_LEN)
        .unwrap()
}

/// The reads of `plan` on shards that hold data or parity.
fn unpadded(plan: &[ShardRead]) -> Vec<ShardRead> {
    plan.iter()
        .copied()
        .filter(|r| FILLED.contains(&r.shard) || r.shard >= 6)
        .collect()
}

fn chunk_file(dir: &TempDir, stripe: u64, shard: usize) -> std::path::PathBuf {
    dir.path()
        .join(format!("disk-{shard:02}"))
        .join("obj")
        .join(format!("{stripe:08}-{shard:02}.chunk"))
}

fn is_write(e: &Event) -> bool {
    matches!(
        e,
        Event::BeginWrite(_) | Event::BeginWriteZeros(_) | Event::WaitWrite(_)
    )
}

fn is_remove(e: &Event) -> bool {
    matches!(e, Event::BeginRemove | Event::WaitRemove)
}

/// Drains the log, keeping the events `keep` picks.
fn drain(log: &Log, keep: impl Fn(&Event) -> bool) -> Vec<Event> {
    let mut events = std::mem::take(&mut *log.lock().unwrap());
    events.retain(keep);
    events
}

/// The read and check events.
fn take(log: &Log) -> Vec<Event> {
    drain(log, |e| !is_write(e) && !is_remove(e))
}

fn take_writes(log: &Log) -> Vec<Event> {
    drain(log, is_write)
}

fn take_removes(log: &Log) -> Vec<Event> {
    drain(log, is_remove)
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

/// The reads `events` begins, checked to be begun once each, with no
/// chunk begun again once a whole read of it was begun.
fn begun_once(events: &[Event]) -> Vec<ShardRead> {
    let begun: Vec<ShardRead> = events
        .iter()
        .filter_map(|e| match e {
            Event::Begin(read) => Some(*read),
            _ => None,
        })
        .collect();
    let mut whole = Vec::new();
    for (i, read) in begun.iter().enumerate() {
        assert!(
            !begun[..i].contains(read),
            "{read:?} begun twice: {begun:?}"
        );
        assert!(
            !whole.contains(&read.shard),
            "shard {} begun again after a whole read: {begun:?}",
            read.shard
        );
        if read.len == CHUNK_LEN {
            whole.push(read.shard);
        }
    }
    begun
}

#[test]
fn a_failed_planned_helper_is_planned_around_and_begun_once() {
    let dir = TempDir::new("overlap-failed-helper");
    let (store, log, data) = recorded_store(&dir);
    const TARGET: usize = 1;
    const HELPER: usize = 6;
    assert!(plan(&store, TARGET).iter().any(|r| r.shard == HELPER));
    fs::remove_file(chunk_file(&dir, 0, TARGET)).unwrap();
    fs::remove_file(chunk_file(&dir, 0, HELPER)).unwrap();
    let helper_begins = |begun: &[ShardRead]| begun.iter().filter(|r| r.shard == HELPER).count();

    // Degraded GET: the plan's two parity half-chunks are begun, shard 6
    // fails, and the re-plan adds one whole chunk, shard 7. Stripe 1 is
    // healthy.
    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    let events = take(&log);
    let (stripe_0, stripe_1) = events.split_at(events.len() - 12);
    assert_eq!(stripe_1, batch(&whole(0..6)));
    let begun = begun_once(stripe_0);
    assert_eq!(helper_begins(&begun), 1, "{begun:?}");
    let metrics = store.metrics();
    assert_eq!(metrics.degraded_fetched_bytes, 512);
    // The final plan is k whole chunks: 0, 2, 3, 4, 5 and 7.
    assert_eq!(metrics.degraded_helper_bytes, 6 * CHUNK_LEN as u64);

    // Repair from an empty scratch: the plan, then the re-plan's whole
    // chunks that are not resident yet. The failed helper is rebuilt too.
    let repair = store.repair_stripe("obj", 0, &[TARGET]).unwrap();
    assert_eq!(repair.rebuilt, vec![TARGET, HELPER]);
    let begun = begun_once(&take(&log));
    assert_eq!(helper_begins(&begun), 1, "{begun:?}");
    assert_eq!(repair.fetched_bytes, 2176);
    assert_eq!(total(&begun), 2176);
    assert_eq!(repair.helper_bytes, 6 * CHUNK_LEN as u64);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn an_lrc_multi_loss_reads_each_target_s_local_group() {
    let dir = TempDir::new("overlap-lrc");
    let (store, log) = store_of(&dir, "lrc-10-2-4", &|_, local, log| recording(local, log));
    let data: Vec<u8> = (0..10 * CHUNK_LEN).map(|i| (i * 7 % 251) as u8).collect();
    store.put("obj", &data[..]).unwrap();
    // Data shards 0 and 5 sit in local groups {0–4} and {5–9}, whose XOR
    // parities are shards 10 and 11.
    for shard in [0, 5] {
        fs::remove_file(chunk_file(&dir, 0, shard)).unwrap();
    }

    // The GET holds the eight surviving data chunks: each group's
    // rebuild adds only its local parity.
    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    let events = take(&log);
    assert_eq!(events[20..], batch(&whole([10, 11])));
    let metrics = store.metrics();
    assert_eq!(metrics.degraded_fetched_bytes, 2 * CHUNK_LEN as u64);
    assert_eq!(metrics.degraded_helper_bytes, 10 * CHUNK_LEN as u64);

    // The repair reads both local groups, 10 chunks, not all 14 survivors.
    let repair = store.repair_stripe("obj", 0, &[0, 5]).unwrap();
    assert_eq!(repair.rebuilt, vec![0, 5]);
    let groups = whole([1, 2, 3, 4, 6, 7, 8, 9, 10, 11]);
    assert_eq!(take(&log), batch(&groups));
    assert_eq!(repair.fetched_bytes, 10 * CHUNK_LEN as u64);
    assert_eq!(repair.helper_bytes, 10 * CHUNK_LEN as u64);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn an_rs_repair_with_a_failed_helper_fetches_the_plan_plus_one_chunk() {
    let dir = TempDir::new("overlap-rs-failed-helper");
    let (store, log) = store_of(&dir, "rs-4-2", &|_, local, log| recording(local, log));
    let data: Vec<u8> = (0..4 * CHUNK_LEN).map(|i| (i * 13 % 251) as u8).collect();
    store.put("obj", &data[..]).unwrap();
    fs::remove_file(chunk_file(&dir, 0, 1)).unwrap();
    fs::remove_file(chunk_file(&dir, 0, 4)).unwrap();

    // The plan is the first k survivors; parity 4 fails, and the next
    // survivor replaces it.
    take(&log);
    let repair = store.repair_stripe("obj", 0, &[1]).unwrap();
    assert_eq!(repair.rebuilt, vec![1, 4]);
    assert_eq!(
        take(&log),
        [batch(&whole([0, 2, 3, 4])), batch(&whole([5]))].concat()
    );
    assert_eq!(repair.fetched_bytes, 5 * CHUNK_LEN as u64);
    assert_eq!(repair.helper_bytes, 4 * CHUNK_LEN as u64);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn a_short_stripe_repair_begins_only_the_unpadded_plan_ranges() {
    // A parity target's plan is whole chunks; a data target's is the
    // piggyback half-chunk ranges. Both plans read some of the padding.
    for (target, range_len) in [(7, CHUNK_LEN), (1, CHUNK_LEN / 2)] {
        let dir = TempDir::new("overlap-short-repair");
        let (store, log, data) = short_store(&dir);
        let plan = plan(&store, target);
        let fetched = unpadded(&plan);
        assert!(fetched.len() < plan.len(), "target {target}");
        assert!(
            fetched.iter().any(|r| r.len == range_len),
            "target {target}"
        );
        fs::remove_file(chunk_file(&dir, 0, target)).unwrap();

        take(&log);
        let repair = store.repair_stripe("obj", 0, &[target]).unwrap();
        assert_eq!(repair.rebuilt, vec![target]);
        assert_eq!(take(&log), batch(&fetched), "target {target}");
        assert_eq!(repair.helper_bytes, total(&plan));
        assert_eq!(repair.fetched_bytes, total(&fetched));
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.get("obj").unwrap(), data);
    }
}

#[test]
fn a_padding_target_is_rebuilt_without_a_read() {
    let dir = TempDir::new("overlap-short-padding");
    let (store, log, data) = short_store(&dir);
    const TARGET: usize = 4;
    fs::remove_file(chunk_file(&dir, 0, TARGET)).unwrap();

    take(&log);
    let repair = store.repair_stripe("obj", 0, &[TARGET]).unwrap();
    assert_eq!(repair.rebuilt, vec![TARGET]);
    assert_eq!(take(&log), []);
    assert_eq!(repair.helper_bytes, total(&plan(&store, TARGET)));
    assert_eq!(repair.fetched_bytes, 0);
    let id = ChunkId {
        stripe: 0,
        shard: TARGET,
    };
    let (status, _) = store
        .backend(TARGET)
        .verify_chunk("obj", id, CHUNK_LEN)
        .unwrap();
    assert!(status.is_healthy(), "{status:?}");
    assert_eq!(store.get("obj").unwrap(), data);
}

/// The log of a short stripe's GET: the filled data chunks' reads and the
/// padding chunks' checks, all begun in shard order, then all waited for.
fn short_get_batch() -> Vec<Event> {
    FILLED
        .map(|s| Event::Begin(ShardRead::whole(s, CHUNK_LEN)))
        .chain((FILLED.end..6).map(Event::BeginVerify))
        .chain((0..6).map(Event::Wait))
        .collect()
}

#[test]
fn a_healthy_short_stripe_checks_its_padding_in_the_batch_of_k() {
    let dir = TempDir::new("overlap-short-healthy");
    let (store, log, data) = short_store(&dir);
    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    assert_eq!(take(&log), short_get_batch());
    assert_eq!(store.metrics().degraded_stripe_reads, 0);
}

#[test]
fn a_short_stripe_begins_its_padding_as_zero_writes_in_the_batch_of_n() {
    let dir = TempDir::new("overlap-short-put");
    let (store, log) = store_over(&dir, &|_, local, log| recording(local, log));
    let data = &two_stripes()[..5 * CHUNK_LEN / 2];
    store.put("put", data).unwrap();
    let store = Arc::new(store);
    let mut writer = store.writer("streamed").unwrap();
    writer.write(data).unwrap();
    writer.finish().unwrap();
    let begins = (0..N).map(|shard| {
        if (FILLED.end..6).contains(&shard) {
            Event::BeginWriteZeros(shard)
        } else {
            Event::BeginWrite(shard)
        }
    });
    let batch: Vec<Event> = begins.chain((0..N).map(Event::WaitWrite)).collect();
    assert_eq!(take_writes(&log), batch.repeat(2));
    for name in ["put", "streamed"] {
        assert_eq!(store.get(name).unwrap(), data);
        for shard in FILLED.end..6 {
            let path = dir
                .path()
                .join(format!("disk-{shard:02}/{name}/00000000-{shard:02}.chunk"));
            let id = ChunkId { stripe: 0, shard };
            let payload = pbrs_store::chunk::read_chunk(&path, id, CHUNK_LEN);
            assert_eq!(payload.unwrap().unwrap(), vec![0u8; CHUNK_LEN]);
        }
    }
}

#[test]
fn a_degraded_get_of_lost_padding_issues_only_the_k_data_reads() {
    let dir = TempDir::new("overlap-short-get");
    let (store, log, data) = short_store(&dir);
    fs::remove_file(chunk_file(&dir, 0, 5)).unwrap();

    take(&log);
    assert_eq!(store.get("obj").unwrap(), data);
    // The k − p filled chunks are read and the p padding chunks checked;
    // the lost one is rebuilt as zeros, with nothing more begun.
    assert_eq!(take(&log), short_get_batch());
    let metrics = store.metrics();
    assert_eq!(metrics.degraded_stripe_reads, 1);
    assert_eq!(metrics.degraded_fetched_bytes, 0);
    assert_eq!(metrics.degraded_helper_bytes, total(&plan(&store, 5)));
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
fn a_put_onto_a_tombstoned_name_begins_every_removal_before_the_first_wait() {
    let dir = TempDir::new("overlap-removes");
    let (store, log) = store_over(&dir, &|_, local, log| recording(local, log));
    let data = two_stripes();
    store.put("obj", &data[..]).unwrap();
    store.delete("obj").unwrap();
    assert!(take_removes(&log).is_empty(), "a delete only tombstones");
    store.put("obj", &data[..]).unwrap();
    let sweep: Vec<Event> = [Event::BeginRemove; N]
        .into_iter()
        .chain([Event::WaitRemove; N])
        .collect();
    assert_eq!(take_removes(&log), sweep);
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn a_fault_wrapper_forwards_the_begun_writes() {
    // A wrapper above the recorder gates each write when it is begun and
    // hands back the inner backend's begun write, so a stripe's n writes
    // still overlap beneath it.
    let dir = TempDir::new("overlap-forwarded");
    let plan = Arc::new(FaultPlan::parse("disk=0 op=verify error", 1).unwrap());
    let (store, log) = store_over(&dir, &|i, local, log| {
        Arc::new(FaultyBackend::new(
            recording(local, log),
            Arc::clone(&plan),
            i,
        ))
    });
    store.put("obj", &two_stripes()[..]).unwrap();
    assert_eq!(take_writes(&log), write_batches(2));
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
