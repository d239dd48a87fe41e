//! GF(2^8) kernel microbenchmark — the machine-readable perf trajectory of
//! the bulk kernels every encode, decode and repair in the workspace runs
//! on.
//!
//! Measures, for every backend the CPU supports (scalar lookup, portable
//! SWAR, and x86-64 SSSE3/AVX2 `pshufb` where available):
//!
//! * `mul_add` — the fused multiply-accumulate `dst ^= c·src` on one shard;
//! * `encode-rows` — a (10, 4) Reed–Solomon encode done row-at-a-time
//!   (each parity reads all ten data shards: the pre-blocking code path);
//! * `encode-multi` — the same encode through the cache-blocked
//!   multi-output [`slice_ops::matrix_mul_into`], which reads each data
//!   shard once for all four parities;
//!
//! and, for each CRC-32 kernel the CPU supports (`portable` slicing-by-8,
//! and the x86-64 `clmul` fold where available):
//!
//! * `crc32` — the chunk checksum over one shard-sized buffer.
//!
//! Results are printed as a markdown table and written to
//! `BENCH_gf_kernels.json` (MB/s per backend × shard size) so the numbers
//! are diffable across PRs.
//!
//! Usage: `gf_kernels [--quick]` (`--quick` shrinks the measurement time
//! for CI smoke runs).

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

use pbrs_bench::{f1, section};
use pbrs_cluster::report::to_markdown_table;
use pbrs_erasure::ReedSolomon;
use pbrs_gf::backend::{self, Backend};
use pbrs_gf::{crc32, slice_ops};

/// Shard sizes to sweep: small enough to sit in L2, and the 1 MiB shard
/// the acceptance threshold is measured on.
const SHARD_SIZES: [usize; 3] = [64 * 1024, 256 * 1024, 1024 * 1024];

const K: usize = 10;
const R: usize = 4;

struct Sample {
    kernel: &'static str,
    /// A GF backend name, or the CRC-32 kernel's (`portable` / `clmul`).
    backend: &'static str,
    shard_bytes: usize,
    mb_per_s: f64,
}

fn filled(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(167).wrapping_add(seed))
        .collect()
}

/// Runs `work` repeatedly until `budget_secs` of wall time is spent and
/// returns achieved MB/s, where one call to `work` moves `bytes` bytes.
fn throughput(bytes: usize, budget_secs: f64, mut work: impl FnMut()) -> f64 {
    // Warm up caches and the backend's table setup.
    work();
    let mut iterations = 0u64;
    let started = Instant::now();
    loop {
        work();
        iterations += 1;
        if started.elapsed().as_secs_f64() >= budget_secs && iterations >= 3 {
            break;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    (bytes as f64 * iterations as f64) / (1024.0 * 1024.0) / secs
}

fn measure_backend(backend: Backend, shard_bytes: usize, budget_secs: f64) -> Vec<Sample> {
    assert!(backend::force(backend), "backend was reported supported");

    let src = filled(shard_bytes, 3);
    let mut dst = filled(shard_bytes, 11);
    let mul_add = throughput(shard_bytes, budget_secs, || {
        slice_ops::mul_add_slice(0x8E, &src, &mut dst);
    });

    // A realistic rs-10-4 encode: 10 data shards in, 4 parity shards out.
    let rs = ReedSolomon::new(K, R).expect("(10, 4) is valid");
    let rows: Vec<&[u8]> = (0..R).map(|j| rs.parity_row(j)).collect();
    let data: Vec<Vec<u8>> = (0..K).map(|i| filled(shard_bytes, i as u8)).collect();
    let srcs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let mut parity: Vec<Vec<u8>> = (0..R).map(|_| vec![0u8; shard_bytes]).collect();
    let encoded_bytes = K * shard_bytes;

    let rows_at_a_time = throughput(encoded_bytes, budget_secs, || {
        for (row, out) in rows.iter().zip(parity.iter_mut()) {
            slice_ops::linear_combination(row, &srcs, out);
        }
    });
    let multi_output = throughput(encoded_bytes, budget_secs, || {
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        slice_ops::matrix_mul_into(&rows, &srcs, &mut outs);
    });

    [
        ("mul_add", mul_add),
        ("encode-rows", rows_at_a_time),
        ("encode-multi", multi_output),
    ]
    .into_iter()
    .map(|(kernel, mb_per_s)| Sample {
        kernel,
        backend: backend.name(),
        shard_bytes,
        mb_per_s,
    })
    .collect()
}

/// CRC-32 over one shard, once per kernel: the portable one (forced via
/// the `swar` backend) and whatever the best backend selects.
fn measure_crc32(shard_bytes: usize, budget_secs: f64) -> Vec<Sample> {
    let data = filled(shard_bytes, 5);
    let mut samples: Vec<Sample> = Vec::new();
    for backend in [Backend::Swar, backend::detect_best()] {
        assert!(backend::force(backend), "backend was reported supported");
        let kernel = crc32::kernel_name();
        if samples.iter().any(|s| s.backend == kernel) {
            continue;
        }
        let mb_per_s = throughput(shard_bytes, budget_secs, || {
            black_box(crc32::crc32(black_box(&data)));
        });
        samples.push(Sample {
            kernel: "crc32",
            backend: kernel,
            shard_bytes,
            mb_per_s,
        });
    }
    samples
}

fn shard_label(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{} MiB", bytes / (1024 * 1024))
    } else {
        format!("{} KiB", bytes / 1024)
    }
}

fn write_json(path: &str, samples: &[Sample], speedup: f64, crc_speedup: f64) {
    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"backend\": \"{}\", \"shard_bytes\": {}, \
             \"mb_per_s\": {:.1}}}",
            s.kernel, s.backend, s.shard_bytes, s.mb_per_s
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"gf_kernels\",\n  \"code\": \"rs-{K}-{R}\",\n  \
         \"best_backend\": \"{}\",\n  \
         \"encode_speedup_swar_vs_scalar_1mib\": {:.2},\n  \
         \"crc32_speedup_clmul_vs_portable_64kib\": {:.2},\n  \"results\": [\n{}\n  ]\n}}\n",
        backend::detect_best(),
        speedup,
        crc_speedup,
        rows
    );
    fs::write(path, json).expect("write benchmark JSON");
}

fn main() {
    let quick = env::args().any(|a| a == "--quick");
    let budget_secs = if quick { 0.03 } else { 0.25 };

    let backends = backend::supported();
    section(&format!(
        "GF(2^8) kernel throughput (backends: {}, rs-{K}-{R} encode)",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let mut samples = Vec::new();
    for &shard_bytes in &SHARD_SIZES {
        for &backend in &backends {
            eprintln!(
                "[pbrs-bench] gf kernels: {} @ {}",
                backend,
                shard_label(shard_bytes)
            );
            samples.extend(measure_backend(backend, shard_bytes, budget_secs));
        }
        eprintln!("[pbrs-bench] crc32: @ {}", shard_label(shard_bytes));
        samples.extend(measure_crc32(shard_bytes, budget_secs));
    }
    // Leave the process on the auto-detected backend.
    backend::force(backend::detect_best());

    let header = ["kernel", "shard", "backend", "MB/s"];
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.kernel.to_string(),
                shard_label(s.shard_bytes),
                s.backend.to_string(),
                f1(s.mb_per_s),
            ]
        })
        .collect();
    print!("{}", to_markdown_table(&header, &rows));

    let rate = |kernel: &str, backend: &str, shard: usize| {
        samples
            .iter()
            .find(|s| s.kernel == kernel && s.backend == backend && s.shard_bytes == shard)
            .map(|s| s.mb_per_s)
            .unwrap_or(f64::NAN)
    };
    let one_mib = 1024 * 1024;
    let speedup = rate("encode-multi", "swar", one_mib) / rate("encode-multi", "scalar", one_mib);
    let crc_speedup = rate("crc32", "clmul", 64 * 1024) / rate("crc32", "portable", 64 * 1024);
    println!(
        "\nrs-{K}-{R} encode on 1 MiB shards: SWAR is {speedup:.2}x the scalar oracle; \
         best backend is {}.\nCRC-32 on 64 KiB: the clmul fold is {crc_speedup:.2}x \
         slicing-by-8 (NaN: no clmul on this CPU).",
        backend::detect_best()
    );

    write_json("BENCH_gf_kernels.json", &samples, speedup, crc_speedup);
    println!("Wrote BENCH_gf_kernels.json ({} samples).", samples.len());
}
