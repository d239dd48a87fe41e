//! Criterion benchmarks of the single-block repair path — the operation the
//! paper's measurement study is about. Compares RS, Piggybacked-RS and LRC
//! at the production stripe geometry, each rebuilding one lost block with
//! `repair_into` from a pre-encoded stripe buffer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pbrs_core::PiggybackedRs;
use pbrs_erasure::{ErasureCode, Lrc, LrcParams, ReedSolomon, ShardBuffer};
use std::hint::black_box;

/// A full stripe of `code` over patterned data shards of `len` bytes.
fn encoded_stripe(code: &dyn ErasureCode, len: usize) -> ShardBuffer {
    let k = code.params().data_shards();
    let mut stripe = ShardBuffer::zeroed(code.params().total_shards(), len);
    for i in 0..k {
        for (j, byte) in stripe.shard_mut(i).iter_mut().enumerate() {
            *byte = ((i * 53 + j * 17 + 9) % 256) as u8;
        }
    }
    let (data, mut parity) = stripe.split_mut(k);
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

fn bench_single_block_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_block_repair");
    let shard_len = 256 * 1024;
    group.throughput(Throughput::Bytes(shard_len as u64));

    let rs = ReedSolomon::new(10, 4).unwrap();
    let pb = PiggybackedRs::new(10, 4).unwrap();
    let lrc = Lrc::new(LrcParams::XORBAS).unwrap();
    let codes: [(&str, &dyn ErasureCode); 3] = [
        ("rs_10_4", &rs),
        ("piggybacked_rs_10_4", &pb),
        ("lrc_10_2_4", &lrc),
    ];
    for (name, code) in codes {
        let stripe = encoded_stripe(code, shard_len);
        let mut out = vec![0u8; shard_len];
        group.bench_function(name, |b| {
            b.iter(|| {
                code.repair_into(5, black_box(&stripe.as_set()), black_box(&mut out))
                    .unwrap();
            })
        });
    }
    group.finish();
}

/// Choosing the reads alone: the per-stripe planning cost the store pays
/// before it begins a repair's fetches.
fn bench_repair_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_reads_only");
    let shard_len = 256 * 1024;
    let pb = PiggybackedRs::new(10, 4).unwrap();
    let mut available = vec![true; 14];
    available[5] = false;
    group.bench_function("piggybacked_rs_reads", |b| {
        b.iter(|| {
            pb.repair_reads(5, black_box(&available), shard_len)
                .unwrap()
        })
    });
    let rs = ReedSolomon::new(10, 4).unwrap();
    group.bench_function("rs_reads", |b| {
        b.iter(|| {
            rs.repair_reads(5, black_box(&available), shard_len)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_block_repair, bench_repair_planning);
criterion_main!(benches);
