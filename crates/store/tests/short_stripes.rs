//! Short stripes: an object's last stripe carries fewer than `k` chunks
//! of payload, and the data chunks past its end are zero padding the
//! store wrote itself. Rebuilds treat that padding as resident zeros —
//! never fetched, always a survivor — so a short stripe repairs with
//! fewer helper reads, and survives more lost chunks, than a full one.
//!
//! Reads never fetch padding either: a GET zeroes each padding slot of
//! its buffer and only checks the padding chunk, so a lost or damaged
//! padding chunk degrades its stripe exactly as a read of it would.

use std::fs;
use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use pbrs_core::registry;
use pbrs_erasure::{total_read_bytes, CodeSpec, ShardRead};
use pbrs_store::testing::TempDir;
use pbrs_store::{BlockStore, StoreConfig, StoreError};

const CHUNK_LEN: usize = 256;

fn store(dir: &TempDir, spec: CodeSpec) -> BlockStore {
    BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(CHUNK_LEN)).unwrap()
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random()).collect()
}

/// An `rs-10-4` / `piggyback-10-4` object of one full stripe and a
/// [`SHORT`] stripe of three and a half chunks: its shards 0–3 hold data,
/// 4–9 are padding, 10–13 parity.
fn with_short_stripe(spec: &str) -> (TempDir, BlockStore, Vec<u8>) {
    let dir = TempDir::new(&format!("short-{spec}"));
    let store = store(&dir, spec.parse().unwrap());
    let data = payload(10 * CHUNK_LEN + 7 * CHUNK_LEN / 2, 0x5107);
    store.put("obj", &data[..]).unwrap();
    (dir, store, data)
}

const SHORT: u64 = 1;

fn lose(store: &BlockStore, stripe: u64, shards: &[usize]) {
    for &shard in shards {
        fs::remove_file(store.chunk_path("obj", stripe, shard)).unwrap();
    }
}

#[test]
fn a_short_stripe_survives_more_than_n_minus_k_losses_when_some_are_padding() {
    for spec in ["rs-10-4", "piggyback-10-4"] {
        let (_dir, store, data) = with_short_stripe(spec);
        let originals: Vec<Vec<u8>> = (0..14)
            .map(|shard| fs::read(store.chunk_path("obj", SHORT, shard)).unwrap())
            .collect();
        // Five losses, one more than r = 4: two data chunks (one of them
        // half filled), two of padding and one parity. The full stripe
        // loses data shard 7 as well: its degraded read fills the reader's
        // scratch with helpers, also in the slots that are padding in the
        // short stripe read next with the same scratch.
        const LOST: [usize; 5] = [0, 3, 4, 7, 12];
        lose(&store, SHORT, &LOST);
        lose(&store, 0, &[7]);

        assert_eq!(store.get("obj").unwrap(), data, "{spec}: degraded read");
        let repair = store.repair_stripe("obj", SHORT, &LOST).unwrap();
        assert_eq!(repair.rebuilt, LOST, "{spec}");
        for shard in LOST {
            assert_eq!(
                fs::read(store.chunk_path("obj", SHORT, shard)).unwrap(),
                originals[shard],
                "{spec}: shard {shard} rebuilt byte for byte"
            );
        }
        store.repair_stripe("obj", 0, &[7]).unwrap();
        assert!(store.scrub().unwrap().is_clean(), "{spec}");
        assert_eq!(store.get("obj").unwrap(), data, "{spec}: after repair");
    }
}

#[test]
fn losing_more_than_n_minus_k_real_chunks_is_still_refused() {
    for spec in ["rs-10-4", "piggyback-10-4"] {
        let (_dir, store, _) = with_short_stripe(spec);
        // Five chunks that hold data or parity: the six padding shards
        // and the three real survivors make nine, one short of k.
        const LOST: [usize; 5] = [0, 1, 2, 10, 11];
        lose(&store, SHORT, &LOST);
        let unrecoverable =
            |r| matches!(r, Err(StoreError::StripeUnrecoverable { survivors: 9, .. }));
        assert!(unrecoverable(store.get("obj").map(drop)), "{spec}: get");
        assert!(
            unrecoverable(store.repair_stripe("obj", SHORT, &LOST).map(drop)),
            "{spec}: repair"
        );
    }
}

#[test]
fn losing_n_minus_k_real_chunks_and_a_padding_chunk_is_recoverable() {
    for spec in ["rs-10-4", "piggyback-10-4"] {
        let (_dir, store, data) = with_short_stripe(spec);
        // Four real chunks, as many as r, and one padding chunk: the
        // padding chunk is zeros, so it needs no helper of its own.
        const LOST: [usize; 5] = [0, 1, 2, 5, 10];
        lose(&store, SHORT, &LOST);
        assert_eq!(store.get("obj").unwrap(), data, "{spec}: degraded read");
        let repair = store.repair_stripe("obj", SHORT, &LOST).unwrap();
        assert_eq!(repair.rebuilt, LOST, "{spec}");
        assert!(store.scrub().unwrap().is_clean(), "{spec}");
    }
}

/// How a padding chunk is damaged on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    Missing,
    Truncated,
    HeaderCorrupt,
    PayloadCorrupt,
}

fn damage(store: &BlockStore, stripe: u64, shard: usize, how: Damage) {
    let path = store.chunk_path("obj", stripe, shard);
    let mut bytes = fs::read(&path).unwrap();
    match how {
        Damage::Missing => return fs::remove_file(&path).unwrap(),
        Damage::Truncated => bytes.truncate(bytes.len() / 2),
        Damage::HeaderCorrupt => bytes[10] ^= 0x01,
        Damage::PayloadCorrupt => bytes[pbrs_store::chunk::HEADER_LEN + 77] ^= 0x40,
    }
    fs::write(&path, bytes).unwrap();
}

#[test]
fn a_damaged_padding_chunk_still_degrades_its_stripe() {
    for spec in ["rs-10-4", "piggyback-10-4"] {
        for how in [
            Damage::Missing,
            Damage::Truncated,
            Damage::HeaderCorrupt,
            Damage::PayloadCorrupt,
        ] {
            let (_dir, store, data) = with_short_stripe(spec);
            damage(&store, SHORT, 6, how);
            let before = store.metrics();
            assert_eq!(store.get("obj").unwrap(), data, "{spec} {how:?}");
            let after = store.metrics();
            assert_eq!(
                after.degraded_stripe_reads - before.degraded_stripe_reads,
                1,
                "{spec} {how:?}: only the short stripe is degraded"
            );
            assert_eq!(
                after.corrupt_chunks_detected - before.corrupt_chunks_detected,
                u64::from(how != Damage::Missing),
                "{spec} {how:?}"
            );
            // A padding target is rebuilt with no helper read.
            assert_eq!(after.degraded_fetched_bytes, 0, "{spec} {how:?}");
            store.repair_stripe("obj", SHORT, &[6]).unwrap();
            assert!(store.scrub().unwrap().is_clean(), "{spec} {how:?}");
        }
    }
}

#[test]
fn a_recycled_buffer_reads_back_zeroed_padding() {
    for spec in ["rs-10-4", "piggyback-10-4"] {
        let (_dir, store, data) = with_short_stripe(spec);
        let store = Arc::new(store);
        let stripe_len = store.stripe_data_len();
        let tail = &data[stripe_len..];
        // Shard 2 holds data, shard 3 is half filled; both are real.
        for lost in [None, Some(2), Some(3)] {
            if let Some(shard) = lost {
                fs::remove_file(store.chunk_path("obj", SHORT, shard)).unwrap();
            }
            let mut reader = store.reader("obj").unwrap();
            let mut out = vec![0xA5u8; stripe_len];
            // A full stripe first, so the reader's scratch holds real bytes.
            assert_eq!(
                reader.read_stripe(0, &mut out).unwrap(),
                (stripe_len, false)
            );
            out.fill(0xA5);
            let (len, degraded) = reader.read_stripe(SHORT, &mut out).unwrap();
            assert_eq!((len, degraded), (tail.len(), lost.is_some()), "{spec}");
            assert_eq!(&out[..len], tail, "{spec} lost {lost:?}");
            assert!(
                out[len..].iter().all(|&b| b == 0),
                "{spec} lost {lost:?}: padding slots read back as zeros"
            );
        }
        let originals = {
            let (_dir, fresh, _) = with_short_stripe(spec);
            [2, 3].map(|shard| fs::read(fresh.chunk_path("obj", SHORT, shard)).unwrap())
        };
        let repair = store.repair_stripe("obj", SHORT, &[2, 3]).unwrap();
        assert_eq!(repair.rebuilt, vec![2, 3]);
        for (shard, original) in [2, 3].into_iter().zip(originals) {
            assert_eq!(
                fs::read(store.chunk_path("obj", SHORT, shard)).unwrap(),
                original,
                "{spec}: shard {shard} rebuilt byte for byte"
            );
        }
    }
}

/// The single-loss plan for `target`, as the code declares it.
fn plan(store: &BlockStore, target: usize) -> Vec<ShardRead> {
    let n = store.shards_per_stripe();
    let mut available = vec![true; n];
    available[target] = false;
    store
        .code()
        .repair_reads(target, &available, CHUNK_LEN)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every registry spec × an object of 1 byte to 2 stripes × each lost
    /// shard of its last stripe: the repair restores the chunk exactly,
    /// prices the whole declared plan, and fetches only the plan's reads
    /// of shards that are not padding — nothing at all for a padding
    /// target.
    #[test]
    fn every_spec_prices_the_plan_and_fetches_only_real_shards(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for spec in registry::known_specs() {
            let dir = TempDir::new("short-prop");
            let store = store(&dir, spec);
            let k = spec.params().unwrap().data_shards();
            let stripe_len = k * CHUNK_LEN;
            let len = rng.random_range(1..=2 * stripe_len);
            let data = payload(len, rng.random());
            let info = store.put("obj", &data[..]).unwrap();
            let last = info.stripes - 1;
            let tail = len - last as usize * stripe_len;
            let padding = tail.div_ceil(CHUNK_LEN)..k;
            for shard in 0..store.shards_per_stripe() {
                let path = store.chunk_path("obj", last, shard);
                let original = fs::read(&path).unwrap();
                fs::remove_file(&path).unwrap();
                let repair = store.repair_stripe("obj", last, &[shard]).unwrap();
                prop_assert_eq!(&repair.rebuilt, &vec![shard]);
                prop_assert_eq!(fs::read(&path).unwrap(), original, "{} shard {}", spec, shard);

                let plan = plan(&store, shard);
                prop_assert_eq!(repair.helper_bytes, total_read_bytes(&plan));
                let fetched: u64 = if padding.contains(&shard) {
                    0
                } else {
                    plan.iter()
                        .filter(|r| !padding.contains(&r.shard))
                        .map(|r| r.len as u64)
                        .sum()
                };
                prop_assert_eq!(repair.fetched_bytes, fetched, "{} shard {}", spec, shard);
            }
            prop_assert_eq!(store.get("obj").unwrap(), data);
        }
    }
}
