//! Crash-consistency scenarios: what a writer that died mid-write leaves
//! behind, and that scrub + repair restore the store to a clean state
//! without mistaking debris for damage (or deleting a live writer's tmp).

use std::fs::{self, File};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use pbrs_store::testing::TempDir;
use pbrs_store::{BlockStore, ChunkStatus, DaemonConfig, RepairDaemon, StoreConfig};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 13 + 5) % 251) as u8).collect()
}

fn age(path: &std::path::Path, by: Duration) {
    File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(SystemTime::now() - by)
        .unwrap();
}

/// A crash between a chunk's tmp write and its rename leaves a stale
/// `*.tmp` and no renamed chunk file. Scrub must delete the tmp, report it
/// separately from the damage, and repair must rebuild the chunk.
#[test]
fn stale_tmp_plus_missing_chunk_is_swept_and_repaired() {
    let dir = TempDir::new("crash-consistency");
    let store = Arc::new(
        BlockStore::open(
            StoreConfig::new(dir.path().join("store"), "rs-4-2".parse().unwrap()).chunk_len(512),
        )
        .unwrap(),
    );
    let data = pattern(4 * 512 * 2);
    store.put("obj", &data[..]).unwrap();

    // Simulate the crash: chunk (1, 2) never got renamed — its payload sits
    // in a tmp sibling — and the renamed file is gone.
    let chunk = store.chunk_path("obj", 1, 2);
    let tmp = chunk.with_extension("tmp");
    fs::rename(&chunk, &tmp).unwrap();
    age(&tmp, Duration::from_secs(3600));
    // A second, younger tmp elsewhere models a live writer mid-rename.
    let fresh_tmp = store.chunk_path("obj", 0, 0).with_extension("tmp");
    fs::write(&fresh_tmp, b"live writer").unwrap();

    let scrub = store.scrub().unwrap();
    assert_eq!(scrub.stale_tmp_removed, vec!["disk-02/obj/00000001-02.tmp"]);
    assert!(!tmp.exists(), "stale tmp deleted");
    assert!(fresh_tmp.exists(), "fresh tmp kept");
    assert_eq!(scrub.damages.len(), 1);
    assert_eq!(scrub.damages[0].stripe, 1);
    assert_eq!(scrub.damages[0].shard, 2);
    assert_eq!(scrub.damages[0].status, ChunkStatus::Missing);

    // The repair daemon heals the missing chunk; afterwards only the fresh
    // tmp (a live writer's) remains, and the object reads back intact.
    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.chunks_repaired, 1);
    assert_eq!(stats.failures, 0);
    let rescrub = store.scrub().unwrap();
    assert!(rescrub.is_clean());
    assert!(rescrub.stale_tmp_removed.is_empty());
    assert_eq!(store.get("obj").unwrap(), data);
}

/// A stale `MANIFEST.tmp` (a manifest save that died before its rename) is
/// swept from the store root; the committed manifest it shadowed is intact.
#[test]
fn stale_manifest_tmp_is_swept() {
    let dir = TempDir::new("crash-manifest-tmp");
    let root = dir.path().join("store");
    let store = BlockStore::open(StoreConfig::new(&root, "rs-4-2".parse().unwrap()).chunk_len(512))
        .unwrap();
    store.put("obj", &pattern(100)[..]).unwrap();

    let tmp = root.join("MANIFEST.tmp");
    fs::write(&tmp, "pbrs-store v1\ncode rs-4-2\nchunk 512\n").unwrap();
    age(&tmp, Duration::from_secs(3600));

    let scrub = store.scrub().unwrap();
    assert!(scrub.is_clean());
    assert_eq!(scrub.stale_tmp_removed, vec!["MANIFEST.tmp"]);
    assert!(!tmp.exists());
    // The real manifest still loads on reopen.
    drop(store);
    let reopened =
        BlockStore::open(StoreConfig::new(&root, "rs-4-2".parse().unwrap()).chunk_len(512))
            .unwrap();
    assert_eq!(reopened.get("obj").unwrap(), pattern(100));
}

/// Panic injection through the public API: a panicking repair worker may
/// not hang its caller.
#[test]
fn injected_panics_terminate_instead_of_hanging() {
    let dir = TempDir::new("crash-panics");
    let store = Arc::new(
        BlockStore::open(
            StoreConfig::new(dir.path().join("store"), "rs-4-2".parse().unwrap()).chunk_len(512),
        )
        .unwrap(),
    );
    let data = pattern(4 * 512 * 4);
    store.put("obj", &data[..]).unwrap();

    // Daemon under injected repair panics: wait_idle returns, failure
    // counted, and the damage is still repairable afterwards.
    fs::remove_file(store.chunk_path("obj", 0, 1)).unwrap();
    store.inject_repair_panic(true);
    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    assert_eq!(daemon.stats().failures, 1);
    store.inject_repair_panic(false);
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    assert_eq!(daemon.shutdown().chunks_repaired, 1);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);
}
