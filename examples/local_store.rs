//! The paper's experiment on real file I/O: ingest a file into an
//! erasure-coded local block store, delete one "disk" directory, watch a
//! degraded read succeed anyway, run the background repair daemon, and
//! compare the cross-disk helper bytes for `rs-10-4` vs `piggyback-10-4`.
//!
//! Run with: `cargo run --release --example local_store`

#![forbid(unsafe_code)]

use std::fs;
use std::sync::Arc;

use pbrs::prelude::*;
use pbrs::store::testing::TempDir;

/// Logical file size to ingest under each code.
const FILE_LEN: usize = 16 * 1024 * 1024;
/// Chunk payload bytes (shard size per stripe).
const CHUNK_LEN: usize = 128 * 1024;
/// The data disk we destroy.
const LOST_DISK: usize = 0;

struct RunResult {
    code: String,
    degraded_helper_bytes: u64,
    repair_helper_bytes: u64,
    chunks_repaired: u64,
}

fn run_code(spec: &str, file: &[u8]) -> Result<RunResult, StoreError> {
    println!("--- {spec} ---");
    let dir = TempDir::new(&format!("local-store-{spec}"));
    let store = Arc::new(BlockStore::open(
        StoreConfig::new(dir.path().join("store"), spec.parse().unwrap()).chunk_len(CHUNK_LEN),
    )?);

    // Ingest: stream the file into stripes across one directory per disk.
    let info = store.put("demo.bin", file)?;
    println!(
        "ingested {} bytes as {} stripes of {} x {} KiB chunks over {} disks",
        info.len,
        info.stripes,
        store.disk_count(),
        CHUNK_LEN / 1024,
        store.disk_count(),
    );

    // Disaster: one whole disk directory disappears.
    fs::remove_dir_all(store.disk_path(LOST_DISK)).unwrap();
    println!("deleted disk directory {:?}", store.disk_path(LOST_DISK));

    // The store still serves the file, reading repair helpers instead of
    // the lost chunks — and counts exactly the helper bytes it read.
    let read_back = store.get("demo.bin")?;
    assert_eq!(read_back, file, "degraded read must be byte-identical");
    let metrics = store.metrics();
    println!(
        "degraded read OK: {} stripes served degraded, {:.1} MiB helper bytes",
        metrics.degraded_stripe_reads,
        mib(metrics.degraded_helper_bytes),
    );

    // Background repair: the scan sees the disk is gone, enqueues the
    // stripes the manifest placed on it, and a worker pool rebuilds them,
    // all while the store stays online.
    let daemon = RepairDaemon::start(Arc::clone(&store), DaemonConfig::default());
    let scan = daemon.scan_now()?;
    println!(
        "repair scan: lost disks {:?}, {} damaged chunks in {} stripes",
        scan.lost_disks, scan.damaged_chunks, scan.enqueued_stripes
    );
    daemon.wait_idle();
    let stats = daemon.shutdown();
    assert_eq!(
        store.metrics().scrub_bytes_read,
        metrics.scrub_bytes_read,
        "a lost disk is rebuilt from manifest + placement, not from a scrub"
    );
    assert!(
        store.scrub()?.is_clean(),
        "store must be whole after repair"
    );
    println!(
        "daemon rebuilt {} chunks, reading {:.1} MiB of helpers across disks",
        stats.chunks_repaired,
        mib(stats.helper_bytes),
    );

    Ok(RunResult {
        code: store.code().name(),
        degraded_helper_bytes: metrics.degraded_helper_bytes,
        repair_helper_bytes: stats.helper_bytes,
        chunks_repaired: stats.chunks_repaired,
    })
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() -> Result<(), StoreError> {
    println!("pbrs local store: lose-a-disk cycle under RS vs Piggybacked-RS\n");
    let file: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 31 + 7) % 253) as u8).collect();

    let rs = run_code("rs-10-4", &file)?;
    println!();
    let pb = run_code("piggyback-10-4", &file)?;

    println!(
        "\n--- helper bytes, same workload ({} MiB, disk {LOST_DISK} lost) ---",
        FILE_LEN / (1024 * 1024)
    );
    println!(
        "{:<22} {:>14} {:>14} {:>10}",
        "code", "degraded MiB", "repair MiB", "chunks"
    );
    for r in [&rs, &pb] {
        println!(
            "{:<22} {:>14.1} {:>14.1} {:>10}",
            r.code,
            mib(r.degraded_helper_bytes),
            mib(r.repair_helper_bytes),
            r.chunks_repaired
        );
    }
    let saving = 1.0 - pb.repair_helper_bytes as f64 / rs.repair_helper_bytes as f64;
    println!(
        "\nPiggybacked-RS repaired the same lost disk with {:.1}% less cross-disk traffic.",
        saving * 100.0
    );
    assert!(
        saving >= 0.25,
        "expected >= 25% repair-traffic saving, measured {:.1}%",
        saving * 100.0
    );
    Ok(())
}
