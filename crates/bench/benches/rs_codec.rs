//! Criterion benchmarks of the Reed–Solomon codec used as the production
//! baseline: encode throughput, full reconstruction of up to r erasures and
//! single-shard repair, all through the view API over one pre-allocated
//! stripe buffer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pbrs_erasure::{ErasureCode, ReedSolomon, ShardBuffer};
use std::hint::black_box;

/// A (10, 4) stripe buffer whose data shards hold a fixed pattern, encoded
/// when `encode` is set.
fn stripe(rs: &ReedSolomon, len: usize, encode: bool) -> ShardBuffer {
    let mut stripe = ShardBuffer::zeroed(14, len);
    for i in 0..10 {
        for (j, byte) in stripe.shard_mut(i).iter_mut().enumerate() {
            *byte = ((i * 31 + j * 7 + 3) % 256) as u8;
        }
    }
    if encode {
        let (data, mut parity) = stripe.split_mut(10);
        rs.encode_into(&data, &mut parity).unwrap();
    }
    stripe
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode_10_4");
    let rs = ReedSolomon::new(10, 4).unwrap();
    for shard_len in [16 * 1024usize, 256 * 1024, 1024 * 1024] {
        group.throughput(Throughput::Bytes((shard_len * 10) as u64));
        // Parity written into the stripe buffer right behind the data.
        let mut stripe = stripe(&rs, shard_len, false);
        group.bench_with_input(
            BenchmarkId::new("encode_into", shard_len),
            &shard_len,
            |b, _| {
                b.iter(|| {
                    let (data_view, mut parity_view) = stripe.split_mut(10);
                    rs.encode_into(black_box(&data_view), &mut parity_view)
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_reconstruct_10_4");
    let shard_len = 256 * 1024;
    let rs = ReedSolomon::new(10, 4).unwrap();
    for missing in [1usize, 2, 4] {
        group.throughput(Throughput::Bytes((shard_len * missing) as u64));
        // Rebuild directly inside the stripe buffer.
        let mut stripe = stripe(&rs, shard_len, true);
        let mut present = vec![true; 14];
        for i in 0..missing {
            present[i * 3] = false;
        }
        group.bench_with_input(BenchmarkId::new("in_place", missing), &missing, |b, _| {
            b.iter(|| {
                rs.reconstruct_in_place(black_box(&mut stripe.as_set_mut()), black_box(&present))
                    .unwrap();
            });
        });
    }
    group.finish();
}

fn bench_single_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_single_repair_10_4");
    let shard_len = 256 * 1024;
    let rs = ReedSolomon::new(10, 4).unwrap();
    group.throughput(Throughput::Bytes(shard_len as u64));

    let stripe = stripe(&rs, shard_len, true);
    let mut out = vec![0u8; shard_len];
    group.bench_function("repair_into", |b| {
        b.iter(|| {
            rs.repair_into(5, black_box(&stripe.as_set()), black_box(&mut out))
                .unwrap();
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_reconstruct,
    bench_single_repair
);
criterion_main!(benches);
