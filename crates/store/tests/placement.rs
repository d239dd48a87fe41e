//! Placed-store integration tests: a backend pool larger than the code
//! width, rack-disjoint and rack-aware policies, persisted placements
//! across reopen, locality-first repair accounting, the delete→tombstone→
//! sweep lifecycle, and resumable incremental scrubs.

use std::fs;
use std::sync::Arc;

use pbrs_store::testing::TempDir;
use pbrs_store::{
    BlockStore, ChunkBackend, DaemonConfig, LocalDisk, PlacementPolicy, RackMap, RepairDaemon,
    StoreConfig, StoreError,
};

const CHUNK_LEN: usize = 512;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 41 + 5) % 251) as u8).collect()
}

/// One `LocalDisk` per pool slot under `dir`, stable across reopens.
fn pool_disks(dir: &TempDir, count: usize) -> Vec<Arc<dyn ChunkBackend>> {
    (0..count)
        .map(|i| {
            Arc::new(LocalDisk::new(dir.path().join(format!("pool-{i:02}"))))
                as Arc<dyn ChunkBackend>
        })
        .collect()
}

fn pool_path(dir: &TempDir, disk: usize) -> std::path::PathBuf {
    dir.path().join(format!("pool-{disk:02}"))
}

/// 6 racks × 2 disks, rs-4-2 (width 6) rack-disjoint over a 12-disk pool.
fn disjoint_store(dir: &TempDir) -> BlockStore {
    BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .placement_seed(7),
        pool_disks(dir, 12),
        RackMap::uniform(6, 2),
        PlacementPolicy::RackDisjoint,
    )
    .unwrap()
}

#[test]
fn placed_store_round_trip_persists_placement_across_reopen() {
    let dir = TempDir::new("placement-roundtrip");
    let data = pattern(4 * CHUNK_LEN * 5 + 333); // 6 stripes, last partial
    {
        let store = disjoint_store(&dir);
        store.put("obj", &data[..]).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
        // Every stripe resolves to 6 in-bounds, rack-disjoint pool disks,
        // and the chunk files really live where the placement says.
        for stripe in 0..6u64 {
            let row = store.stripe_disks("obj", stripe);
            assert_eq!(row.len(), 6);
            assert!(
                store.racks().is_rack_disjoint(&row),
                "stripe {stripe}: {row:?}"
            );
            for (shard, &disk) in row.iter().enumerate() {
                let chunk = pool_path(&dir, disk)
                    .join("obj")
                    .join(format!("{stripe:08}-{shard:02}.chunk"));
                assert!(
                    chunk.is_file(),
                    "stripe {stripe} shard {shard} on disk {disk}"
                );
            }
        }
    }
    // Reopen over the same mounts: placements come back from the manifest.
    let reopened = disjoint_store(&dir);
    assert_eq!(reopened.get("obj").unwrap(), data);
    assert_eq!(reopened.placement_policy(), PlacementPolicy::RackDisjoint);
    let fresh = disjoint_store(&dir);
    for stripe in 0..6u64 {
        assert_eq!(
            reopened.stripe_disks("obj", stripe),
            fresh.stripe_disks("obj", stripe)
        );
    }
}

#[test]
fn a_put_creates_the_object_directory_only_where_its_chunks_land() {
    let dir = TempDir::new("placement-on-demand-dirs");
    let store = BlockStore::open_with_backends(
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .placement_seed(7),
        pool_disks(&dir, 16),
        RackMap::uniform(8, 2),
        PlacementPolicy::RackDisjoint,
    )
    .unwrap();
    let data = pattern(4 * CHUNK_LEN * 2); // 2 stripes
    store.put("obj", &data[..]).unwrap();
    let mut used: Vec<usize> = (0..2u64)
        .flat_map(|stripe| store.stripe_disks("obj", stripe))
        .collect();
    used.sort_unstable();
    used.dedup();
    assert!(used.len() < 16, "the test needs a disk outside every row");
    for disk in 0..16 {
        assert_eq!(
            pool_path(&dir, disk).join("obj").is_dir(),
            used.contains(&disk),
            "disk {disk}, rows on {used:?}"
        );
    }
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn degraded_reads_succeed_for_every_lost_pool_disk() {
    let dir = TempDir::new("placement-every-disk");
    let store = Arc::new(disjoint_store(&dir));
    let data = pattern(4 * CHUNK_LEN * 7 + 99); // 8 stripes
    store.put("obj", &data[..]).unwrap();

    for disk in 0..12 {
        fs::remove_dir_all(pool_path(&dir, disk)).unwrap();
        assert_eq!(
            store.get("obj").unwrap(),
            data,
            "degraded read after losing pool disk {disk}"
        );
        // Heal before the next iteration so losses never accumulate.
        let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
        daemon.scan_now().unwrap();
        daemon.wait_idle();
        assert_eq!(daemon.shutdown().failures, 0, "disk {disk}");
        assert!(store.scrub().unwrap().is_clean(), "disk {disk}");
    }
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn rack_disjoint_repairs_are_all_cross_rack() {
    let dir = TempDir::new("placement-disjoint-cross");
    let store = Arc::new(disjoint_store(&dir));
    store.put("obj", &pattern(4 * CHUNK_LEN * 6)[..]).unwrap();
    fs::remove_dir_all(pool_path(&dir, 3)).unwrap();

    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert!(stats.helper_bytes > 0);
    assert_eq!(
        stats.intra_rack_bytes, 0,
        "rack-disjoint placement leaves no same-rack helpers"
    );
    assert_eq!(stats.cross_rack_bytes, stats.helper_bytes);
    let snap = store.metrics();
    assert_eq!(snap.repair_cross_rack_bytes, stats.cross_rack_bytes);
    assert_eq!(snap.repair_intra_rack_bytes, 0);
}

/// The recovery pass's list and the scrub's are the same list: for every
/// pool disk, what the manifest places on it is exactly what a full scrub
/// reports damaged once the disk is wiped.
#[test]
fn placement_enumeration_equals_the_scrub_of_a_wiped_disk() {
    let dir = TempDir::new("placement-enumerate");
    let store = disjoint_store(&dir);
    for (name, stripes) in [("a", 5), ("b", 1), ("c", 7)] {
        store
            .put(name, &pattern(4 * CHUNK_LEN * stripes - 17)[..])
            .unwrap();
    }
    let mut seen = 0;
    for disk in 0..12 {
        let placed = store.chunks_on_disks(&[disk]);
        assert!(placed.iter().all(|c| c.disk == disk));
        seen += placed.len();

        let saved = dir.path().join("saved");
        fs::rename(pool_path(&dir, disk), &saved).unwrap();
        let scrub = store.scrub().unwrap();
        fs::rename(&saved, pool_path(&dir, disk)).unwrap();
        assert_eq!(scrub.lost_disks, vec![disk]);
        let damaged: Vec<_> = scrub
            .damages
            .iter()
            .map(|d| (&d.object, d.stripe, d.shard, d.disk))
            .collect();
        let listed: Vec<_> = placed
            .iter()
            .map(|c| (&c.object, c.stripe, c.shard, c.disk))
            .collect();
        assert_eq!(listed, damaged, "disk {disk}");
    }
    assert_eq!(seen, 13 * 6, "every chunk sits on exactly one disk");
    assert!(store.chunks_on_disks(&[]).is_empty());
    assert_eq!(
        store.chunks_on_disks(&(0..12).collect::<Vec<_>>()).len(),
        seen
    );
}

/// A pass that finds a newly lost disk enqueues that disk's stripes and
/// nothing else; damage on a disk that still answers waits one pass for the
/// audit, and is repaired by it.
#[test]
fn damage_on_a_present_disk_is_found_by_the_pass_after_recovery() {
    let dir = TempDir::new("placement-deferred-audit");
    let store = Arc::new(disjoint_store(&dir));
    let data = pattern(4 * CHUNK_LEN * 8);
    store.put("obj", &data[..]).unwrap();

    let lost = 3;
    let lost_stripes = store.chunks_on_disks(&[lost]).len();
    // A stripe with no shard on the lost disk: the recovery pass has no
    // reason to touch it, so nothing but an audit can find damage there.
    let stripe = (0..8)
        .find(|&s| !store.stripe_disks("obj", s).contains(&lost))
        .expect("a 12-disk pool leaves some width-6 stripe off disk 3");
    let victim_disk = store.stripe_disks("obj", stripe)[0];
    let victim = pool_path(&dir, victim_disk)
        .join("obj")
        .join(format!("{stripe:08}-00.chunk"));
    let mut bytes = fs::read(&victim).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x04;
    fs::write(&victim, &bytes).unwrap();
    fs::remove_dir_all(pool_path(&dir, lost)).unwrap();

    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    let recovery = daemon.scan_now().unwrap();
    assert_eq!(recovery.lost_disks, vec![lost]);
    assert_eq!(recovery.damaged_chunks, lost_stripes);
    assert_eq!(recovery.enqueued_stripes, lost_stripes);
    daemon.wait_idle();
    assert_eq!(daemon.stats().chunks_repaired, lost_stripes as u64);

    let audit = daemon.scan_now().unwrap();
    assert_eq!(audit.lost_disks, Vec::<usize>::new());
    assert_eq!(audit.damaged_chunks, 1);
    assert_eq!(audit.enqueued_stripes, 1);
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.chunks_repaired, lost_stripes as u64 + 1);
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn rack_aware_placement_yields_intra_rack_helpers() {
    let dir = TempDir::new("placement-aware-intra");
    let store = Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
                .chunk_len(CHUNK_LEN)
                .placement_seed(11),
            pool_disks(&dir, 12),
            RackMap::uniform(6, 2),
            PlacementPolicy::RackAware,
        )
        .unwrap(),
    );
    let data = pattern(4 * CHUNK_LEN * 12); // 12 stripes for coverage
    store.put("obj", &data[..]).unwrap();
    fs::remove_dir_all(pool_path(&dir, 0)).unwrap();

    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    daemon.scan_now().unwrap();
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(stats.failures, 0);
    assert!(stats.helper_bytes > 0);
    // Grouped placement: disk 0's rack-mate (disk 1) holds the other shard
    // of every stripe disk 0 served, and the locality-first scheduler
    // prefers it — some helper bytes must be intra-rack.
    assert!(
        stats.intra_rack_bytes > 0,
        "locality-first repair found no same-rack helpers: {stats:?}"
    );
    assert_eq!(
        stats.intra_rack_bytes + stats.cross_rack_bytes,
        stats.helper_bytes
    );
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn geometry_mismatches_are_rejected_on_reopen() {
    let dir = TempDir::new("placement-mismatch");
    {
        let store = disjoint_store(&dir);
        store.put("obj", &pattern(100)[..]).unwrap();
    }
    let config = || {
        StoreConfig::new(dir.path().join("root"), "rs-4-2".parse().unwrap())
            .chunk_len(CHUNK_LEN)
            .placement_seed(7)
    };
    // Wrong policy.
    assert!(matches!(
        BlockStore::open_with_backends(
            config(),
            pool_disks(&dir, 12),
            RackMap::uniform(6, 2),
            PlacementPolicy::RackAware,
        ),
        Err(StoreError::ConfigMismatch {
            field: "policy",
            ..
        })
    ));
    // Wrong pool size (feasible placement, so the manifest check decides).
    assert!(matches!(
        BlockStore::open_with_backends(
            config(),
            pool_disks(&dir, 8),
            RackMap::uniform(8, 1),
            PlacementPolicy::RackDisjoint,
        ),
        Err(StoreError::ConfigMismatch { field: "pool", .. })
    ));
    // Wrong seed.
    assert!(matches!(
        BlockStore::open_with_backends(
            config().placement_seed(8),
            pool_disks(&dir, 12),
            RackMap::uniform(6, 2),
            PlacementPolicy::RackDisjoint,
        ),
        Err(StoreError::ConfigMismatch {
            field: "placement_seed",
            ..
        })
    ));
    // Infeasible geometry is a typed placement error, not a panic: width 6
    // cannot be rack-disjoint over 4 racks.
    assert!(matches!(
        BlockStore::open_with_backends(
            config(),
            pool_disks(&dir, 8),
            RackMap::uniform(4, 2),
            PlacementPolicy::RackDisjoint,
        ),
        Err(StoreError::ConfigMismatch { .. }) | Err(StoreError::Placement(_))
    ));
    // A rack map that does not cover the pool is invalid config.
    assert!(matches!(
        BlockStore::open_with_backends(
            config(),
            pool_disks(&dir, 12),
            RackMap::uniform(5, 2),
            PlacementPolicy::RackDisjoint,
        ),
        Err(StoreError::InvalidConfig { .. })
    ));
}

#[test]
fn delete_tombstones_then_scrub_sweeps_the_dead_chunks() {
    let dir = TempDir::new("placement-delete");
    let store = disjoint_store(&dir);
    let data = pattern(4 * CHUNK_LEN * 3 + 17);
    store.put("obj", &data[..]).unwrap();
    store.put("keep", &pattern(600)[..]).unwrap();
    let row0 = store.stripe_disks("obj", 0);

    let info = store.delete("obj").unwrap();
    assert_eq!(info.len, data.len() as u64);
    // Gone from the namespace immediately; chunks still on disk until the
    // sweep. The miss is *typed*: the tombstone makes "deleted" (an
    // answer) distinguishable from "never existed" and from I/O failure.
    assert!(matches!(
        store.get("obj"),
        Err(StoreError::ObjectDeleted { .. })
    ));
    assert!(matches!(
        store.delete("obj"),
        Err(StoreError::ObjectDeleted { .. })
    ));
    assert!(matches!(
        store.get("never-existed"),
        Err(StoreError::ObjectNotFound { .. })
    ));
    let dead_chunk = pool_path(&dir, row0[0])
        .join("obj")
        .join("00000000-00.chunk");
    assert!(dead_chunk.is_file(), "chunks linger until the sweep");

    let scrub = store.scrub().unwrap();
    assert_eq!(scrub.tombstones_swept, vec!["obj".to_string()]);
    assert!(scrub.is_clean());
    assert!(!dead_chunk.exists(), "sweep removed the dead chunks");
    for disk in 0..12 {
        assert!(!pool_path(&dir, disk).join("obj").exists(), "disk {disk}");
    }
    // The survivor is untouched; a second scrub sweeps nothing.
    assert_eq!(store.get("keep").unwrap(), pattern(600));
    assert!(store.scrub().unwrap().tombstones_swept.is_empty());
}

#[test]
fn deleted_names_can_be_reused_before_the_sweep() {
    let dir = TempDir::new("placement-reuse");
    let store = disjoint_store(&dir);
    store.put("obj", &pattern(4 * CHUNK_LEN * 2)[..]).unwrap();
    store.delete("obj").unwrap();
    // No scrub in between: put must sweep the dead chunks itself, and the
    // recommitted object must read back its *new* bytes.
    let fresh = pattern(4 * CHUNK_LEN + 77);
    store.put("obj", &fresh[..]).unwrap();
    assert_eq!(store.get("obj").unwrap(), fresh);
    // The tombstone is gone: nothing sweeps the reused name's chunks.
    let scrub = store.scrub().unwrap();
    assert!(scrub.tombstones_swept.is_empty());
    assert!(scrub.is_clean());
    assert_eq!(store.get("obj").unwrap(), fresh);
}
