//! `pbrs` — Piggybacked-RS erasure codes and the Facebook warehouse-cluster
//! recovery-traffic study, reproduced in Rust.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`gf`] — GF(2^8) arithmetic and matrices ([`pbrs_gf`]);
//! * [`erasure`] — the [`erasure::ErasureCode`] trait, the zero-copy shard
//!   views ([`erasure::ShardSet`] / [`erasure::ShardSetMut`] /
//!   [`erasure::ShardBuffer`]), the [`erasure::CodeSpec`] naming scheme, and
//!   the Reed–Solomon / replication / LRC baselines ([`pbrs_erasure`]);
//! * [`code`] — the Piggybacked-RS code and the unified
//!   [`code::registry`] that builds any code from a spec ([`pbrs_core`]);
//! * [`cluster`] — the warehouse-cluster study: calibrated synthetic
//!   traces, the discrete-event simulator, and report formatting
//!   ([`pbrs_cluster`]);
//! * [`obs`] — the observability core: lock-free latency histograms,
//!   per-stage request timers, a named metric registry, and the bounded
//!   structured event journal ([`pbrs_obs`]);
//! * [`store`] — a file-backed erasure-coded block store with degraded
//!   reads and a background repair daemon ([`pbrs_store`]);
//! * [`chunkd`] — a per-"disk" TCP chunk server and client, so a store can
//!   mount remote disks and repair over real sockets ([`pbrs_chunkd`]);
//! * [`gateway`] — a streaming object gateway in front of the store: a
//!   readiness-based reactor serving `PUT`/`GET`/`DELETE` stripe by
//!   stripe over length-prefixed frames ([`pbrs_gateway`]).
//!
//! See the `examples/` directory for runnable end-to-end scenarios.
//!
//! # Quick start
//!
//! Codes are selected by spec string through one registry — `"rs-10-4"`,
//! `"piggyback-10-4"`, `"lrc-10-2-4"`, `"rep-3"` — and every code offers
//! one allocation-free API over borrowed shard views: `encode_into`,
//! `reconstruct_in_place`, `repair_into`, and the byte-exact repair pair
//! `repair_reads` / `repair_from_reads` that the store executes:
//!
//! ```
//! use pbrs::prelude::*;
//!
//! # fn main() -> Result<(), pbrs::erasure::CodeError> {
//! // The paper's proposed (10, 4) Piggybacked-RS code, built by name.
//! let code = build_code("piggyback-10-4")?;
//!
//! // Zero-copy encode: the whole stripe lives in one contiguous buffer and
//! // parity is written in place right behind the data it protects.
//! let (k, n) = (10, 14);
//! let mut stripe = ShardBuffer::zeroed(n, 64);
//! for i in 0..k {
//!     stripe.shard_mut(i).fill(i as u8);
//! }
//! let (data, mut parity) = stripe.split_mut(k);
//! code.encode_into(&data, &mut parity)?;
//!
//! // A machine holding block 7 fails: rebuild just that block, reading
//! // ~30% fewer bytes than the production RS code would.
//! let mut rebuilt = vec![0u8; 64];
//! code.repair_into(7, &stripe.as_set(), &mut rebuilt)?;
//! assert_eq!(rebuilt, vec![7u8; 64]);
//!
//! // The repair plan prices that rebuild for the simulator: 6.5 or 7.0
//! // shard-equivalents instead of RS's 10.
//! let mut available = vec![true; n];
//! available[7] = false;
//! let plan = code.repair_plan(7, &available)?;
//! assert!(plan.total_fraction() < 10.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Kernel backends: how fast the bytes move
//!
//! Every parity byte above was produced by the GF(2^8) bulk kernels in
//! [`gf::slice_ops`]. They dispatch once per process to the fastest
//! implementation the CPU supports — `scalar` (256-entry lookup rows, the
//! reference oracle), `swar` (portable bit-sliced blocks), or the x86-64
//! `pshufb` split-nibble paths `ssse3`/`avx2` — and encodes run through
//! the cache-blocked multi-output [`gf::slice_ops::matrix_mul_into`],
//! which reads each data shard once for *all* parity outputs. All
//! backends are bit-identical (property-tested against the scalar
//! oracle); only throughput differs. The chunk checksum, [`gf::crc32`],
//! follows the same choice: slicing-by-8 under `scalar`/`swar`, a
//! `pclmulqdq` fold under `ssse3`/`avx2` where the CPU has it.
//!
//! Set the `PBRS_GF_BACKEND` environment variable to `scalar`, `swar`,
//! `ssse3`, `avx2` or `auto` to pin the choice — overrides naming a
//! backend this CPU lacks fall back to auto-detection, so a pinned config
//! is portable. Benchmarks can switch programmatically:
//!
//! ```
//! use pbrs::gf::backend;
//!
//! // What is this process encoding with, and what could it use?
//! println!("active gf backend: {}", backend::active());
//! for candidate in backend::supported() {
//!     println!("supported: {candidate}");
//! }
//! ```
//!
//! `cargo run --release -p pbrs-bench --bin gf_kernels` measures every
//! supported backend (and multi-output vs row-at-a-time encode), plus
//! both CRC-32 kernels, and writes the machine-readable
//! `BENCH_gf_kernels.json`.
//!
//! # Storing real bytes
//!
//! The [`store`] crate turns the codecs into an embeddable block store: one
//! directory per "disk", fixed-size stripes of CRC-checksummed chunk files,
//! transparent degraded reads, and a background repair daemon whose
//! counters reproduce the paper's repair-traffic savings on real file I/O
//! (see `examples/local_store.rs` for the full lose-a-disk cycle):
//!
//! ```
//! use pbrs::prelude::*;
//! use pbrs::store::testing::TempDir;
//!
//! # fn main() -> Result<(), pbrs::store::StoreError> {
//! let dir = TempDir::new("facade-quickstart");
//! let store = BlockStore::open(
//!     StoreConfig::new(dir.path().join("store"), "piggyback-10-4".parse().unwrap())
//!         .chunk_len(4096),
//! )?;
//!
//! let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
//! store.put("dataset", &payload[..])?;
//!
//! // Lose a disk: reads degrade transparently along the cheapest repair
//! // path, and the helper bytes that crossed disks are counted.
//! std::fs::remove_dir_all(store.disk_path(0)).unwrap();
//! assert_eq!(store.get("dataset")?, payload);
//! assert!(store.metrics().degraded_helper_bytes > 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Putting the network back in the picture
//!
//! The paper's numbers are about bytes crossing a *network* during
//! recovery. The [`chunkd`] crate closes that gap: each "disk" can be a
//! TCP chunk server ([`chunkd::ChunkServer`]), mounted into a store as a
//! [`chunkd::RemoteDisk`] via [`store::BlockStore::open_with_backends`].
//! The wire protocol serves exactly the byte ranges
//! [`erasure::ErasureCode::repair_reads`] names — half-chunks for
//! Piggybacked-RS — and per-connection counters
//! ([`store::BlockStore::socket_counters`]) report the helper bytes that
//! actually crossed each socket. `examples/networked_repair.rs` wipes one
//! remote disk and measures the paper's ~30 % saving on those counters.
//!
//! # Gateway: serving objects over the wire
//!
//! The [`gateway`] crate puts a network front door on the store. A
//! [`gateway::Gateway`] is a single reactor thread multiplexing
//! non-blocking sockets with `poll(2)` plus a small worker pool doing the
//! erasure work; objects stream **stripe by stripe** in both directions,
//! so a 10 GiB `GET` holds O(stripe) gateway memory, not O(object).
//! Backpressure is explicit: a global admission cap sheds with a `BUSY`
//! status (never silent queueing), and per-connection stripe budgets keep
//! one slow client from ballooning the output queues. Every `GET` stream
//! ends by reporting how many stripes were served *degraded* — the
//! paper's recovery cost, measured at the serving edge:
//!
//! ```
//! use std::sync::Arc;
//! use pbrs::prelude::*;
//! use pbrs::store::testing::TempDir;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = TempDir::new("facade-gateway");
//! let store = Arc::new(BlockStore::open(
//!     StoreConfig::new(dir.path().join("store"), "piggyback-4-2".parse().unwrap())
//!         .chunk_len(1024),
//! )?);
//! let gw = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default())?;
//!
//! let mut client = GatewayClient::connect(gw.local_addr())?;
//! let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
//! client.put("dataset", &payload)?;
//!
//! // Lose a disk: the gateway keeps serving, and says it degraded.
//! std::fs::remove_dir_all(store.disk_path(0)).unwrap();
//! let got = client.get("dataset")?;
//! assert_eq!(got.data, payload);
//! assert!(got.degraded_stripes > 0);
//! # Ok(())
//! # }
//! ```
//!
//! `crates/gateway/tests/contracts.rs` drives a gateway from concurrent
//! connections, healthy and degraded GETs alternating, and checks its
//! metrics, traces and chaos behaviour against what the clients saw;
//! `benchmark/` measures its throughput and latency per workload.
//! `OPERATIONS.md` documents the knobs and the metrics schema.
//!
//! # Placement & racks
//!
//! The paper's network problem is *made* by placement: §2.1's rack-disjoint
//! layout puts every block of a stripe in a different rack, so every helper
//! byte of a recovery crosses a top-of-rack switch. The [`placement`] crate
//! is the one model of that decision, shared by the simulator and the
//! store: a [`placement::RackMap`] groups a disk (or machine) pool into
//! named racks, and a [`placement::PlacementPolicy`] — `rack-disjoint`,
//! `rack-aware` (grouped), or `identity` — deterministically assigns each
//! stripe its disk set.
//!
//! A store can mount a backend pool *larger* than the code width
//! ([`store::BlockStore::open_with_backends`] takes the rack map and
//! policy), persists each stripe's placement in its manifest, and repairs
//! *locality-first*: helper choice prefers same-rack survivors when the
//! code allows it ([`erasure::ErasureCode::repair_reads_ranked`]), with
//! every helper byte accounted intra-rack vs cross-rack down to per-socket
//! counters. `examples/rack_aware_repair.rs` stands up 14 racks of chunkd
//! servers, kills a disk, and prints the paper-style cross-rack traffic
//! table for both codes under both policies — Piggybacked-RS moves ~33 %
//! fewer cross-rack bytes under rack-disjoint placement, and the rack-aware
//! policy keeps ~10 % of the repair traffic inside the rack.

#![forbid(unsafe_code)]

pub use pbrs_chunkd as chunkd;
pub use pbrs_cluster as cluster;
pub use pbrs_core as code;
pub use pbrs_erasure as erasure;
pub use pbrs_gateway as gateway;
pub use pbrs_gf as gf;
pub use pbrs_obs as obs;
pub use pbrs_placement as placement;
pub use pbrs_store as store;

/// Convenient single-import prelude with the most frequently used items.
pub mod prelude {
    pub use pbrs_chunkd::{ChunkServer, RemoteDisk};
    pub use pbrs_core::registry::{build as build_spec, build_str as build_code, DynCode};
    pub use pbrs_core::{PiggybackDesign, PiggybackedRs, SavingsReport};
    pub use pbrs_erasure::{
        CodeError, CodeParams, CodeSpec, ErasureCode, Lrc, LrcParams, ReedSolomon, RepairPlan,
        Replication, ShardBuffer, ShardRead, ShardSet, ShardSetMut,
    };
    pub use pbrs_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayError};
    pub use pbrs_gf::Gf256;
    pub use pbrs_obs::{EventJournal, LatencyHistogram, Registry, Stage, StageTimes};
    pub use pbrs_placement::{PlacementError, PlacementMap, PlacementPolicy, RackMap};
    pub use pbrs_store::{
        BackendCounters, BlockStore, ChunkBackend, DaemonConfig, DiskState, EventKind, FaultPlan,
        FaultyBackend, HealthPolicy, LocalDisk, MetricsSnapshot, RepairDaemon, StoreConfig,
        StoreError,
    };
}
