//! Criterion benchmarks of the Piggybacked-RS codec: encode throughput,
//! single-shard repair and full reconstruction, side by side with the RS
//! baseline at the production (10, 4) parameters, all through the view API
//! over pre-allocated stripe buffers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pbrs_core::PiggybackedRs;
use pbrs_erasure::{ErasureCode, ReedSolomon, ShardBuffer};
use std::hint::black_box;

/// A stripe buffer for `code` whose data shards hold a fixed pattern,
/// encoded when `encode` is set.
fn stripe(code: &dyn ErasureCode, len: usize, encode: bool) -> ShardBuffer {
    let k = code.params().data_shards();
    let mut stripe = ShardBuffer::zeroed(code.params().total_shards(), len);
    for i in 0..k {
        for (j, byte) in stripe.shard_mut(i).iter_mut().enumerate() {
            *byte = ((i * 37 + j * 11 + 1) % 256) as u8;
        }
    }
    if encode {
        let (data, mut parity) = stripe.split_mut(k);
        code.encode_into(&data, &mut parity).unwrap();
    }
    stripe
}

fn bench_encode_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_10_4");
    let shard_len = 256 * 1024;
    group.throughput(Throughput::Bytes((shard_len * 10) as u64));

    // Parity written straight into a pre-allocated stripe buffer.
    let rs = ReedSolomon::new(10, 4).unwrap();
    let pb = PiggybackedRs::new(10, 4).unwrap();
    let mut stripe = stripe(&rs, shard_len, false);
    group.bench_function("rs_encode_into", |b| {
        b.iter(|| {
            let (data_view, mut parity_view) = stripe.split_mut(10);
            rs.encode_into(black_box(&data_view), &mut parity_view)
                .unwrap();
        });
    });
    group.bench_function("piggybacked_rs_encode_into", |b| {
        b.iter(|| {
            let (data_view, mut parity_view) = stripe.split_mut(10);
            pb.encode_into(black_box(&data_view), &mut parity_view)
                .unwrap();
        });
    });
    group.finish();
}

fn bench_repair_comparison(c: &mut Criterion) {
    // The operation the paper is about: rebuilding one lost data block.
    // repair_into reads borrowed views and writes one caller-provided
    // buffer.
    let mut group = c.benchmark_group("single_repair_10_4");
    let shard_len = 256 * 1024;
    group.throughput(Throughput::Bytes(shard_len as u64));

    let pb = PiggybackedRs::new(10, 4).unwrap();
    let stripe = stripe(&pb, shard_len, true);
    let mut out = vec![0u8; shard_len];
    group.bench_function("repair_into", |b| {
        b.iter(|| {
            pb.repair_into(5, black_box(&stripe.as_set()), black_box(&mut out))
                .unwrap();
        });
    });
    group.finish();
}

fn bench_reconstruct_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct_two_failures_10_4");
    let shard_len = 256 * 1024;
    let mut present = vec![true; 14];
    present[0] = false;
    present[11] = false;

    let rs = ReedSolomon::new(10, 4).unwrap();
    let pb = PiggybackedRs::new(10, 4).unwrap();
    let codes: [(&str, &dyn ErasureCode); 2] =
        [("rs_in_place", &rs), ("piggybacked_rs_in_place", &pb)];
    for (name, code) in codes {
        let mut stripe = stripe(code, shard_len, true);
        group.bench_function(name, |b| {
            b.iter(|| {
                code.reconstruct_in_place(black_box(&mut stripe.as_set_mut()), black_box(&present))
                    .unwrap();
            })
        });
    }
    group.finish();
}

fn bench_encode_parameter_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("piggybacked_encode_sweep");
    let shard_len = 64 * 1024;
    for (k, r) in [(6usize, 3usize), (10, 4), (12, 6)] {
        let code = PiggybackedRs::new(k, r).unwrap();
        let mut stripe = stripe(&code, shard_len, false);
        group.throughput(Throughput::Bytes((shard_len * k) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_r{r}")),
            &(k, r),
            |b, _| {
                b.iter(|| {
                    let (data_view, mut parity_view) = stripe.split_mut(k);
                    code.encode_into(black_box(&data_view), &mut parity_view)
                        .unwrap();
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode_comparison,
    bench_repair_comparison,
    bench_reconstruct_comparison,
    bench_encode_parameter_sweep
);
criterion_main!(benches);
