//! Per-layer measurements for the traced run: pure-CPU probes of the
//! codec layers, and *replays* that redo one benchmark op layer by layer —
//! the same object through the store directly, then each stripe's chunk
//! I/O through `RemoteDisk`, then the codec call on the fetched shards —
//! recording a span around every call.

use std::hint::black_box;
use std::time::Instant;

use pbrs_core::registry;
use pbrs_erasure::{ErasureCode, ShardBuffer};
use pbrs_gateway::server::{Gateway, GatewayConfig};
use pbrs_gf::slice_ops;
use pbrs_obs::{LatencyHistogram, Stage};
use pbrs_placement::{PlacementMap, PlacementPolicy, RackMap};
use pbrs_store::{ChunkBackend, ChunkId};

use crate::rig::{self, Rig, CHUNK_LEN, DISKS, LOST_DISK, OBJECTS, SPEC};
use crate::stats::{median, Rng, MIB};
use crate::trace::{SpanId, SpanLog, NO_PARENT};
use crate::workloads::{self, Workload};
use crate::Metrics;

/// Lane (Chrome `tid`) of the serial probe ops, apart from the workload's
/// client lanes 0 and 1.
const PROBE_LANE: u32 = 9;
/// Objects the serial GET probes read, healthy and again degraded.
const PROBE_GETS: usize = 16;
const PROBE_PUTS: usize = 8;

/// Everything the replays time, by kind.
#[derive(Default)]
pub struct Samples {
    pub read_stripe_healthy_us: Vec<f64>,
    pub read_stripe_degraded_us: Vec<f64>,
    /// `read_stripe` minus its chunk reads and codec call, per stripe.
    pub stripe_self_us: Vec<f64>,
    pub read_chunk_us: Vec<f64>,
    pub read_range_us: Vec<f64>,
    pub write_chunk_us: Vec<f64>,
    pub verify_chunk_us: Vec<f64>,
    pub repair_stripe_us: Vec<f64>,
    pub scrub_s: Vec<f64>,
    /// Healthy stripes' full-chunk reads: payload, socket bytes, seconds.
    pub chunk_payload_bytes: u64,
    pub chunk_wire_bytes: u64,
    pub chunk_read_s: f64,
    pub store_put_bytes: u64,
    pub store_put_s: f64,
}

pub struct Replayer<'a> {
    log: &'a SpanLog,
    pub samples: Samples,
    buf: ShardBuffer,
    stripe: Vec<u8>,
    rebuilt: Vec<u8>,
}

impl<'a> Replayer<'a> {
    pub fn new(rig: &Rig, log: &'a SpanLog) -> Self {
        let params = rig.store.code().params();
        Replayer {
            log,
            samples: Samples::default(),
            buf: ShardBuffer::zeroed(params.total_shards(), CHUNK_LEN),
            stripe: vec![0; params.data_shards() * CHUNK_LEN],
            rebuilt: vec![0; CHUNK_LEN],
        }
    }

    /// Replays a GET of `name`: every stripe through
    /// `ObjectReader::read_stripe`, then every stripe's chunk reads (and,
    /// for a stripe that lost a data chunk, its helper ranges and repair).
    /// Returns the store-level time in µs.
    pub fn replay_get(&mut self, rig: &Rig, op: u64, parent: SpanId, lane: u32, name: &str) -> f64 {
        let store = &rig.store;
        let code = store.code();
        let k = code.params().data_shards();
        let mut reader = store.reader(name).expect("open reader");
        let mut store_us = 0.0;
        let mut stripe_spans = Vec::new();
        for stripe in 0..reader.stripes() {
            let ((_, degraded), id, us) =
                self.log.record("store.read_stripe", op, parent, lane, |_| {
                    reader
                        .read_stripe(stripe, &mut self.stripe)
                        .expect("replay read_stripe")
                });
            store_us += us;
            stripe_spans.push((id, us, degraded));
        }
        for (stripe, (stripe_span, stripe_us, degraded)) in stripe_spans.into_iter().enumerate() {
            let stripe = stripe as u64;
            let row = store.stripe_disks(name, stripe);
            let socket0 = rig.socket_bytes();
            let mut children_us = 0.0;
            let mut chunk_us = Vec::with_capacity(k);
            let mut missing = None;
            for (shard, &disk) in row.iter().enumerate().take(k) {
                let id = ChunkId { stripe, shard };
                let (read, _, us) =
                    self.log
                        .record("chunkd.read_chunk", op, stripe_span, lane, |_| {
                            rig.remotes[disk]
                                .read_chunk_into(name, id, self.buf.shard_mut(shard))
                                .expect("replay chunk read")
                        });
                children_us += us;
                match read {
                    Ok(()) => chunk_us.push(us),
                    Err(_) => missing = Some(shard),
                }
            }
            if let Some(target) = missing {
                let reads = rig::repair_reads(code, target);
                // Ranges on data chunks are already resident, as on the
                // store's own degraded path; only parity helpers are read.
                for read in reads.iter().filter(|r| r.shard >= k) {
                    let id = ChunkId {
                        stripe,
                        shard: read.shard,
                    };
                    let (_, _, us) =
                        self.log
                            .record("chunkd.read_range", op, stripe_span, lane, |_| {
                                rig.remotes[row[read.shard]]
                                    .read_chunk_range(
                                        name,
                                        id,
                                        CHUNK_LEN,
                                        read.offset,
                                        &mut self.buf.shard_mut(read.shard)[read.range()],
                                    )
                                    .expect("replay range read")
                                    .expect("helper range present")
                            });
                    children_us += us;
                    if read.len == CHUNK_LEN / 2 {
                        self.samples.read_range_us.push(us);
                    }
                }
                let (_, _, us) = self.log.record("core.repair", op, stripe_span, lane, |_| {
                    code.repair_from_reads(target, &reads, &self.buf.as_set(), &mut self.rebuilt)
                        .expect("replay repair")
                });
                children_us += us;
            } else {
                self.samples.chunk_payload_bytes += (k * CHUNK_LEN) as u64;
                self.samples.chunk_wire_bytes += rig.socket_bytes() - socket0;
                self.samples.chunk_read_s += chunk_us.iter().sum::<f64>() / 1e6;
            }
            self.samples.read_chunk_us.extend(chunk_us);
            self.samples.stripe_self_us.push(stripe_us - children_us);
            if degraded {
                self.samples.read_stripe_degraded_us.push(stripe_us);
            } else {
                self.samples.read_stripe_healthy_us.push(stripe_us);
            }
        }
        store_us
    }

    /// Replays a PUT of `payload`: `BlockStore::put` under a shadow name,
    /// then per stripe the encode and the 14 chunk writes under a second
    /// one. Both shadows are removed again. Returns the store-level µs.
    pub fn replay_put(
        &mut self,
        rig: &Rig,
        op: u64,
        parent: SpanId,
        lane: u32,
        payload: &[u8],
    ) -> f64 {
        let store = &rig.store;
        let code = store.code();
        let k = code.params().data_shards();
        let shadow = format!("shadow-{op:08}");
        let raw = format!("shadow-raw-{op:08}");
        let (info, put_span, store_us) = self.log.record("store.put", op, parent, lane, |_| {
            store.put(&shadow, payload).expect("replay put")
        });
        self.samples.store_put_bytes += info.len;
        self.samples.store_put_s += store_us / 1e6;

        for remote in &rig.remotes {
            self.log
                .record("chunkd.ensure_object", op, put_span, lane, |_| {
                    remote.ensure_object(&raw).expect("replay ensure_object")
                });
        }
        for stripe in 0..info.stripes {
            let base = stripe as usize * k * CHUNK_LEN;
            for shard in 0..k {
                let start = (base + shard * CHUNK_LEN).min(payload.len());
                let end = (start + CHUNK_LEN).min(payload.len());
                let slot = self.buf.shard_mut(shard);
                slot[..end - start].copy_from_slice(&payload[start..end]);
                slot[end - start..].fill(0);
            }
            self.log.record("core.encode", op, put_span, lane, |_| {
                let (data, mut parity) = self.buf.split_mut(k);
                code.encode_into(&data, &mut parity).expect("replay encode")
            });
            let row = store.stripe_disks(&raw, stripe);
            for (shard, &disk) in row.iter().enumerate() {
                let id = ChunkId { stripe, shard };
                let (_, _, us) = self
                    .log
                    .record("chunkd.write_chunk", op, put_span, lane, |_| {
                        rig.remotes[disk]
                            .write_chunk(&raw, id, self.buf.shard(shard))
                            .expect("replay chunk write")
                    });
                self.samples.write_chunk_us.push(us);
            }
        }
        store.delete(&shadow).expect("delete shadow object");
        for remote in &rig.remotes {
            remote.remove_object(&shadow).expect("sweep shadow object");
            remote.remove_object(&raw).expect("sweep raw shadow object");
        }
        store_us
    }

    /// Replays a rebuild of [`LOST_DISK`] twice over: through the store
    /// (`scrub` alone, then `repair_stripe` per damaged stripe), and
    /// through the chunk layer (verify, helper ranges, codec repair, write
    /// back). Loses the disk before each and leaves it rebuilt. Returns
    /// what the store-level repairs added to `metrics()`.
    pub fn replay_rebuild(
        &mut self,
        rig: &Rig,
        op: u64,
        parent: SpanId,
        lane: u32,
        lost: &[(String, ChunkId)],
    ) -> RepairCounts {
        let store = &rig.store;
        let code = store.code();

        rig.wipe_disk(LOST_DISK);
        let (report, _, us) = self.log.record("store.scrub", op, parent, lane, |_| {
            store.scrub().expect("replay scrub")
        });
        assert_eq!(report.damages.len(), lost.len(), "scrub sees the lost disk");
        self.samples.scrub_s.push(us / 1e6);
        let before = store.metrics();
        let mut repair_spans = Vec::with_capacity(lost.len());
        for (name, id) in lost {
            let (_, span, us) = self
                .log
                .record("store.repair_stripe", op, parent, lane, |_| {
                    store
                        .repair_stripe(name, id.stripe, &[id.shard])
                        .expect("replay repair_stripe")
                });
            self.samples.repair_stripe_us.push(us);
            repair_spans.push(span);
        }
        let after = store.metrics();

        rig.wipe_disk(LOST_DISK);
        let target_disk = &rig.remotes[LOST_DISK];
        for ((name, id), span) in lost.iter().zip(repair_spans) {
            let row = store.stripe_disks(name, id.stripe);
            let (_, _, us) = self.log.record("chunkd.verify_chunk", op, span, lane, |_| {
                target_disk
                    .verify_chunk(name, *id, CHUNK_LEN)
                    .expect("replay verify")
            });
            self.samples.verify_chunk_us.push(us);
            let reads = rig::repair_reads(code, id.shard);
            for read in &reads {
                let helper = ChunkId {
                    stripe: id.stripe,
                    shard: read.shard,
                };
                let (_, _, us) = self.log.record("chunkd.read_range", op, span, lane, |_| {
                    rig.remotes[row[read.shard]]
                        .read_chunk_range(
                            name,
                            helper,
                            CHUNK_LEN,
                            read.offset,
                            &mut self.buf.shard_mut(read.shard)[read.range()],
                        )
                        .expect("replay range read")
                        .expect("helper range present")
                });
                if read.len == CHUNK_LEN / 2 {
                    self.samples.read_range_us.push(us);
                }
            }
            self.log.record("core.repair", op, span, lane, |_| {
                code.repair_from_reads(id.shard, &reads, &self.buf.as_set(), &mut self.rebuilt)
                    .expect("replay repair")
            });
            self.log
                .record("chunkd.ensure_object", op, span, lane, |_| {
                    target_disk
                        .ensure_object(name)
                        .expect("replay ensure_object")
                });
            let (_, _, us) = self.log.record("chunkd.write_chunk", op, span, lane, |_| {
                target_disk
                    .write_chunk(name, *id, &self.rebuilt)
                    .expect("replay chunk write")
            });
            self.samples.write_chunk_us.push(us);
        }
        RepairCounts {
            helper_bytes: after.repair_helper_bytes - before.repair_helper_bytes,
            cross_rack_bytes: after.repair_cross_rack_bytes - before.repair_cross_rack_bytes,
            bytes_written: after.repair_bytes_written - before.repair_bytes_written,
        }
    }
}

pub struct RepairCounts {
    pub helper_bytes: u64,
    pub cross_rack_bytes: u64,
    pub bytes_written: u64,
}

/// Median seconds per call of `work` over `calls` timed calls.
fn time_calls(calls: usize, mut work: impl FnMut()) -> f64 {
    for _ in 0..3 {
        work();
    }
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The layers below the store, on buffers in memory: GF kernels, the
/// RS baseline, the piggyback codec, placement, and the histogram the
/// system records every latency into.
pub fn probe_cpu_layers(seed: u64, m: &mut Metrics) {
    const CALLS: usize = 200;
    let mut rng = Rng::new(seed);
    let pb = registry::build_str(SPEC).expect("piggyback code");
    let rs = registry::build_str("rs-10-4").expect("rs code");
    let k = pb.params().data_shards();
    let n = pb.params().total_shards();
    let stripe_mib = (k * CHUNK_LEN) as f64 / MIB;
    let chunk_mib = CHUNK_LEN as f64 / MIB;

    let srcs: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let mut v = vec![0u8; CHUNK_LEN];
            rng.fill(&mut v);
            v
        })
        .collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
    let rows: Vec<Vec<u8>> = (0..n - k)
        .map(|_| (0..k).map(|_| (rng.next_u64() % 255 + 1) as u8).collect())
        .collect();
    let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0u8; CHUNK_LEN]; n - k];
    let s = time_calls(CALLS, || {
        let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        slice_ops::matrix_mul_into(&row_refs, black_box(&src_refs), &mut out_refs);
    });
    m.set("gf.encode_mib_s", stripe_mib / s);
    let s = time_calls(CALLS, || {
        slice_ops::mul_add_slice(0x53, black_box(&srcs[0]), &mut outs[0]);
    });
    m.set("gf.mul_add_mib_s", chunk_mib / s);

    let mut buf = ShardBuffer::zeroed(n, CHUNK_LEN);
    for (shard, src) in srcs.iter().enumerate() {
        buf.shard_mut(shard).copy_from_slice(src);
    }
    let mut encode = |code: &dyn ErasureCode| {
        time_calls(CALLS, || {
            let (data, mut parity) = buf.split_mut(k);
            code.encode_into(black_box(&data), &mut parity)
                .expect("encode");
        })
    };
    m.set("erasure.rs_encode_mib_s", stripe_mib / encode(rs.as_ref()));
    m.set("core.encode_mib_s", stripe_mib / encode(pb.as_ref()));

    // `buf` now holds a piggyback stripe; lose data shard 0 and rebuild it.
    let mut present = vec![true; n];
    present[0] = false;
    let s = time_calls(CALLS, || {
        pb.reconstruct_in_place(&mut buf.as_set_mut(), black_box(&present))
            .expect("reconstruct");
    });
    m.set("core.reconstruct_mib_s", stripe_mib / s);

    let mut out = vec![0u8; CHUNK_LEN];
    let mut repair_mib_s = Vec::with_capacity(n);
    let (mut pb_reads, mut rs_reads) = (0u64, 0u64);
    for target in 0..n {
        let s = time_calls(CALLS / 4, || {
            pb.repair_into(target, black_box(&buf.as_set()), &mut out)
                .expect("repair");
        });
        repair_mib_s.push(chunk_mib / s);
        let read_bytes = |code: &dyn ErasureCode| -> u64 {
            rig::repair_reads(code, target)
                .iter()
                .map(|r| r.len as u64)
                .sum()
        };
        pb_reads += read_bytes(pb.as_ref());
        rs_reads += read_bytes(rs.as_ref());
    }
    m.set(
        "core.repair_mib_s",
        repair_mib_s.iter().sum::<f64>() / n as f64,
    );
    m.set(
        "core.repair_read_fraction",
        pb_reads as f64 / (n * k * CHUNK_LEN) as f64,
    );
    m.set("core.repair_bytes_vs_rs", pb_reads as f64 / rs_reads as f64);

    let map = PlacementMap::new(
        RackMap::per_disk(DISKS),
        PlacementPolicy::RackDisjoint,
        n,
        rig::PLACEMENT_SEED,
    )
    .expect("placement map");
    const BATCH: u64 = 1000;
    let s = time_calls(20, || {
        for stripe in 0..BATCH {
            black_box(map.disks_for_object_stripe(black_box("obj-000"), stripe));
        }
    });
    m.set("placement.place_ns", s * 1e9 / BATCH as f64);

    let hist = LatencyHistogram::new();
    let s = time_calls(20, || {
        for v in 0..BATCH {
            hist.record(black_box(v * 37));
        }
    });
    m.set("obs.hist_record_ns", s * 1e9 / BATCH as f64);
}

/// The layers from chunkd up, measured on the rig with serial traced ops:
/// each op is the client call followed by its replay. Expects a healthy,
/// populated rig and leaves it healthy.
pub fn probe_rig_layers(
    rig: &Rig,
    payloads: &[Vec<u8>],
    replayer: &mut Replayer<'_>,
    m: &mut Metrics,
) {
    let log = replayer.log;
    let lost = rig.chunks_on_disk(LOST_DISK);
    let mut client = rig.connect();
    let mut next_op = 1_000_000u64;
    let mut op_id = || {
        next_op += 1;
        next_op
    };

    // Healthy GETs.
    let mut get_self_ms = Vec::new();
    for (i, payload) in payloads.iter().enumerate().take(PROBE_GETS) {
        let op = op_id();
        let name = rig::object_name(i);
        let get = workloads::get_op(&mut client, Some(log), op, PROBE_LANE, i, &name, payload);
        assert!(get.ok, "probe GET {name}");
        let store_us = replayer.replay_get(rig, op, get.root.span, PROBE_LANE, &name);
        get_self_ms.push(get.ms - store_us / 1e3);
    }
    m.set("gateway.get_self_ms_p50", median(&get_self_ms));

    // The same GETs with the disk lost.
    rig.wipe_disk(LOST_DISK);
    let before = rig.store.metrics();
    let stripes_before = replayer.samples.stripe_self_us.len();
    for (i, payload) in payloads.iter().enumerate().take(PROBE_GETS) {
        let op = op_id();
        let name = rig::object_name(i);
        let get = workloads::get_op(&mut client, Some(log), op, PROBE_LANE, i, &name, payload);
        assert!(get.ok, "probe degraded GET {name}");
        replayer.replay_get(rig, op, get.root.span, PROBE_LANE, &name);
    }
    // Each stripe was read twice, by the gateway and by the replay.
    let stripe_reads = 2 * (replayer.samples.stripe_self_us.len() - stripes_before);
    let degraded_reads = rig.store.metrics().degraded_stripe_reads - before.degraded_stripe_reads;
    m.set(
        "store.degraded_stripe_share",
        degraded_reads as f64 / stripe_reads as f64,
    );

    // One rebuild of the lost disk through the store and the chunk layer.
    let counts = replayer.replay_rebuild(rig, op_id(), NO_PARENT, PROBE_LANE, &lost);
    m.set(
        "store.helper_bytes_per_rebuilt_byte",
        counts.helper_bytes as f64 / counts.bytes_written as f64,
    );
    m.set(
        "store.cross_rack_share",
        counts.cross_rack_bytes as f64 / counts.helper_bytes as f64,
    );

    // PUTs.
    let mut put_self_ms = Vec::new();
    for (i, payload) in payloads.iter().enumerate().take(PROBE_PUTS) {
        let op = op_id();
        let name = format!("probe-put-{i:02}");
        let put = workloads::put_op(&mut client, Some(log), op, PROBE_LANE, i, &name, payload);
        assert!(put.ok, "probe PUT {name}");
        let store_us = replayer.replay_put(rig, op, put.root.span, PROBE_LANE, payload);
        put_self_ms.push(put.ms - store_us / 1e3);
        client.delete(&name).expect("delete probe object");
    }
    m.set("gateway.put_self_ms_p50", median(&put_self_ms));

    let s = &replayer.samples;
    m.set(
        "store.read_stripe_healthy_p50_us",
        median(&s.read_stripe_healthy_us),
    );
    m.set(
        "store.read_stripe_degraded_p50_us",
        median(&s.read_stripe_degraded_us),
    );
    m.set(
        "store.self_us_per_stripe",
        s.stripe_self_us.iter().sum::<f64>() / s.stripe_self_us.len() as f64,
    );
    m.set(
        "store.put_mib_s",
        s.store_put_bytes as f64 / MIB / s.store_put_s,
    );
    m.set("store.repair_stripe_p50_us", median(&s.repair_stripe_us));
    m.set("store.scan_s", median(&s.scrub_s));
    m.set("chunkd.read_chunk_p50_us", median(&s.read_chunk_us));
    m.set("chunkd.read_range_p50_us", median(&s.read_range_us));
    m.set("chunkd.write_chunk_p50_us", median(&s.write_chunk_us));
    m.set("chunkd.verify_chunk_p50_us", median(&s.verify_chunk_us));
    m.set(
        "chunkd.stream_mib_s",
        s.chunk_payload_bytes as f64 / MIB / s.chunk_read_s,
    );
    m.set(
        "chunkd.wire_bytes_per_payload_byte",
        s.chunk_wire_bytes as f64 / s.chunk_payload_bytes as f64,
    );
}

/// What the gateway's flight recorder costs: the population read through
/// a gateway with `GatewayConfig::default()` (tracing on) against the same
/// read through one with `tracing: false` — two fresh gateways, each over
/// its own second store, passes alternating, best pass of each. Expects a
/// healthy rig.
pub fn probe_flight_recorder(rig: &Rig, payloads: &[Vec<u8>], m: &mut Metrics) {
    const ROUNDS: usize = 6;
    let serve = |tracing: bool| {
        let config = GatewayConfig {
            tracing,
            ..GatewayConfig::default()
        };
        Gateway::serve(rig.second_store(), "127.0.0.1:0", config).expect("start probe gateway")
    };
    let gateways = [serve(true), serve(false)];
    let mut best = [f64::MAX; 2];
    for round in 0..ROUNDS {
        // Whichever goes second in a round runs on the warmer machine.
        for which in [round % 2, 1 - round % 2] {
            let secs = workloads::read_population(gateways[which].local_addr(), payloads);
            best[which] = best[which].min(secs);
        }
    }
    for gateway in gateways {
        gateway.shutdown();
    }
    m.set(
        "obs.flight_recorder_overhead_pct",
        (best[0] / best[1] - 1.0) * 100.0,
    );
}

/// Counters read once at the end of the traced run.
pub fn probe_end_counters(rig: &Rig, m: &mut Metrics) {
    m.set("chunkd.reconnects", rig.reconnects() as f64);
    let gateway = rig.gateway.metrics();
    m.set(
        "gateway.requests_shed",
        gateway.snapshot().requests_shed as f64,
    );
    // Stage time of every GET this process sent through the gateway.
    let latency = gateway.latency();
    let mut stages = latency.healthy_get_stages;
    stages.merge(&latency.degraded_get_stages);
    let sum = |stage: Stage| stages.stage(stage).sum() as f64;
    let total = sum(Stage::Queue) + sum(Stage::Erasure) + sum(Stage::ChunkIo) + sum(Stage::Flush);
    for (name, stage) in [
        ("gateway.stage_queue_share", Stage::Queue),
        ("gateway.stage_erasure_share", Stage::Erasure),
        ("gateway.stage_chunk_io_share", Stage::ChunkIo),
        ("gateway.stage_flush_share", Stage::Flush),
    ] {
        m.set(name, sum(stage) / total);
    }
}

/// How many of a traced pass's ops are replayed after it.
const REPLAYS_PER_PASS: usize = 4;

/// Replays the first ops of a traced pass under their own op ids and root
/// spans.
pub fn replay_pass(
    runner: &workloads::Runner,
    payloads: &[Vec<u8>],
    pass: &workloads::Pass,
    replayer: &mut Replayer<'_>,
) {
    for root in pass.roots.iter().take(REPLAYS_PER_PASS) {
        match runner.workload {
            Workload::GetHealthy | Workload::GetDegraded => {
                let name = rig::object_name(root.item);
                replayer.replay_get(&runner.rig, root.op, root.span, PROBE_LANE, &name);
            }
            Workload::PutIngest => {
                let payload = &payloads[workloads::Runner::ring_payload(root.item, pass.index)];
                replayer.replay_put(&runner.rig, root.op, root.span, PROBE_LANE, payload);
            }
            Workload::DiskRebuild => {
                replayer.replay_rebuild(&runner.rig, root.op, root.span, PROBE_LANE, &runner.lost);
            }
        }
    }
}

const _: () = assert!(PROBE_GETS <= OBJECTS && PROBE_PUTS <= OBJECTS);
