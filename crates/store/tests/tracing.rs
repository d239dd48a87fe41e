//! Causal-tracing integration: store spans under a scoped trace context.
//!
//! The store records spans only when (a) a tracer is installed and (b) a
//! [`TraceCtx`] is in scope on the calling thread — exactly how the
//! gateway drives it. These tests pin the span shapes the flight
//! recorder's consumers rely on: a degraded read retains a tree whose
//! `chunk_io` leaves name the disks and racks actually read, and a
//! repair job mints its own root trace.

use std::fs;
use std::sync::Arc;

use pbrs_obs::trace::{RootFlags, ScopedCtx, Tracer, TracerConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{BlockStore, StoreConfig};

const CHUNK_LEN: usize = 1024;

fn spec() -> pbrs_erasure::CodeSpec {
    "piggyback-6-2".parse().unwrap()
}

fn open_traced(dir: &TempDir) -> (BlockStore, Arc<Tracer>) {
    let store =
        BlockStore::open(StoreConfig::new(dir.path().join("store"), spec()).chunk_len(CHUNK_LEN))
            .unwrap();
    let tracer = Arc::new(Tracer::new("store-test", TracerConfig::default()));
    store.set_tracer(Arc::clone(&tracer));
    (store, tracer)
}

fn delete_chunk(store: &BlockStore, object: &str, stripe: u64, shard: usize) {
    let disk = store.stripe_disks(object, stripe)[shard];
    let path = store
        .disk_path(disk)
        .join(object)
        .join(format!("{stripe:08}-{shard:02}.chunk"));
    fs::remove_file(path).unwrap();
}

#[test]
fn degraded_get_retains_a_tree_with_disk_labelled_chunk_io_leaves() {
    let dir = TempDir::new("trace-degraded");
    let (store, tracer) = open_traced(&dir);
    let data: Vec<u8> = (0..4 * CHUNK_LEN).map(|i| (i % 251) as u8).collect();
    store.put("obj", &data[..]).unwrap();
    delete_chunk(&store, "obj", 0, 0);

    let root = tracer.root_span("get", None);
    let ctx = root.ctx();
    let got = {
        let _scope = ScopedCtx::enter(Some(ctx));
        store.get("obj").unwrap()
    };
    assert_eq!(got, data);
    assert!(
        root.finish_root(&tracer, RootFlags::default()),
        "a degraded read must be retained via span-tag evidence alone"
    );

    let retained = tracer.retained();
    assert_eq!(retained.len(), 1);
    let tree = &retained[0];
    assert_eq!(tree.trace, ctx.trace);
    assert!(tree.reasons.contains(&"degraded"), "{:?}", tree.reasons);

    let read = tree
        .spans
        .iter()
        .find(|s| s.name == "read_stripe" && s.tag("degraded").is_some())
        .expect("one stripe read span tagged degraded");
    assert_eq!(read.parent, Some(tree.root));
    assert_eq!(read.tag("object"), Some("obj"));

    // Every helper read is a chunk_io leaf under the stripe span, naming
    // the pool disk, its rack, and the backend actually touched.
    let leaves: Vec<_> = tree.spans.iter().filter(|s| s.name == "chunk_io").collect();
    assert!(!leaves.is_empty(), "helper reads must leave chunk_io spans");
    for leaf in &leaves {
        assert_eq!(leaf.parent, Some(read.id));
        let disk: usize = leaf.tag("disk").unwrap().parse().unwrap();
        assert!(disk < store.disk_count());
        assert!(leaf.tag("rack").is_some(), "{:?}", leaf.tags);
        assert!(
            leaf.tag("backend").unwrap().contains("disk-"),
            "{:?}",
            leaf.tags
        );
    }
    // The helper reads are begun together and then collected, and each
    // span runs from its read's begin to its wait: the siblings share an
    // instant at which all of them are open. (Start and duration are each
    // truncated to whole microseconds, hence the slack.)
    assert!(leaves.len() >= 2, "{} helper reads", leaves.len());
    let last_start = leaves.iter().map(|s| s.start_us).max().unwrap();
    let first_end = leaves.iter().map(|s| s.start_us + s.dur_us).min().unwrap();
    assert!(
        last_start <= first_end + 2,
        "chunk_io siblings do not overlap: last start {last_start}, first end {first_end}"
    );
}

#[test]
fn healthy_get_is_not_retained_beyond_sampling() {
    let dir = TempDir::new("trace-healthy");
    let (store, tracer) = open_traced(&dir);
    let data = vec![7u8; 2 * CHUNK_LEN];
    store.put("obj", &data[..]).unwrap();

    let mut retained = 0;
    for _ in 0..3 {
        let root = tracer.root_span("get", None);
        let _scope = ScopedCtx::enter(Some(root.ctx()));
        store.get("obj").unwrap();
        drop(_scope);
        if root.finish_root(&tracer, RootFlags::default()) {
            retained += 1;
        }
    }
    // Default 1-in-128 sampling retains exactly the first healthy root.
    assert_eq!(retained, 1);
    assert_eq!(tracer.retained()[0].reasons, vec!["sampled"]);
}

#[test]
fn repair_jobs_mint_their_own_root_trace() {
    let dir = TempDir::new("trace-repair");
    let (store, tracer) = open_traced(&dir);
    let data = vec![3u8; 3 * CHUNK_LEN];
    store.put("obj", &data[..]).unwrap();
    delete_chunk(&store, "obj", 0, 1);

    let report = store.repair_stripe("obj", 0, &[1]).unwrap();
    assert_eq!(report.rebuilt, vec![1]);

    // No caller context: the repair is its own root, caught here by the
    // 1-in-N healthy sampler (first root always samples).
    let retained = tracer.retained();
    assert_eq!(retained.len(), 1);
    let tree = &retained[0];
    assert_eq!(tree.op, "repair");
    assert_eq!(tree.spans.iter().filter(|s| s.name == "repair").count(), 1);
    assert!(
        tree.spans
            .iter()
            .any(|s| s.name == "chunk_io" && s.tag("rack").is_some()),
        "helper reads of the rebuild must appear under the repair root"
    );
    assert!(
        tree.spans.iter().any(|s| s.name == "rebuild"),
        "the planned rebuild records its erasure span"
    );
}
