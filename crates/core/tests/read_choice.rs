//! The read-choice oracle: every single-loss plan a code declares is the
//! cheapest read set its generator allows.
//!
//! A read set is a set of helper symbols (whole shards for `g = 1`, half
//! chunks for Piggybacked-RS), and it can rebuild the target exactly when
//! the generator rows of its symbols span the target's rows. The oracle
//! tries every subset of the other shards' symbols, by brute force and
//! with its own rank test, and keeps the smallest that spans. It shares no
//! code with the planner's search.

use pbrs_core::registry;
use pbrs_erasure::{total_read_bytes, ErasureCode, ShardBuffer};
use pbrs_gf::tables;

/// The rank of `rows`, by plain Gaussian elimination.
fn rank(rows: &[&[u8]]) -> usize {
    let mut m: Vec<Vec<u8>> = rows.iter().map(|row| row.to_vec()).collect();
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for col in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| m[r][col] != 0) else {
            continue;
        };
        m.swap(rank, p);
        let inv = tables::inverse(m[rank][col]).unwrap();
        let pivot = m[rank].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != rank && row[col] != 0 {
                let f = tables::mul(row[col], inv);
                for (x, &p) in row.iter_mut().zip(&pivot) {
                    *x ^= tables::mul(f, p);
                }
            }
        }
        rank += 1;
    }
    rank
}

/// The fewest symbols of shards other than `target` whose generator rows
/// span the target's rows, over every subset.
fn minimum_symbols(code: &dyn ErasureCode, target: usize) -> usize {
    let g = code.granularity();
    let generator = code.generator();
    let helpers: Vec<usize> = (0..code.params().total_shards() * g)
        .filter(|row| row / g != target)
        .collect();
    let targets: Vec<&[u8]> = (0..g).map(|s| generator.row(target * g + s)).collect();
    let mut best = helpers.len();
    for mask in 0u32..1 << helpers.len() {
        let size = mask.count_ones() as usize;
        if size >= best {
            continue;
        }
        let rows: Vec<&[u8]> = (0..helpers.len())
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| generator.row(helpers[i]))
            .collect();
        let with_targets: Vec<&[u8]> = rows.iter().chain(&targets).copied().collect();
        if rank(&rows) == rank(&with_targets) {
            best = size;
        }
    }
    best
}

#[test]
fn every_single_loss_plan_reads_the_fewest_bytes_the_generator_allows() {
    for spec in [
        "rs-10-4",
        "rep-3",
        "lrc-10-2-4",
        "piggyback-4-2",
        "piggyback-6-3",
    ] {
        let code = registry::build_str(spec).unwrap();
        let g = code.granularity();
        // Symbols of 8 bytes.
        let shard_len = 8 * g;
        let n = code.params().total_shards();
        for target in 0..n {
            let available: Vec<bool> = (0..n).map(|i| i != target).collect();
            let reads = code.repair_reads(target, &available, shard_len).unwrap();
            let minimum = minimum_symbols(code.as_ref(), target) as u64 * 8;
            assert_eq!(
                total_read_bytes(&reads),
                minimum,
                "{spec} shard {target}: the plan against the cheapest read set"
            );
        }
    }
}

#[test]
fn piggyback_10_4_parities_rebuild_from_19_half_chunks() {
    let code = registry::build_str("piggyback-10-4").unwrap();
    let shard_len = 64;
    let mut stripe = ShardBuffer::zeroed(14, shard_len);
    for i in 0..10 {
        for (j, byte) in stripe.shard_mut(i).iter_mut().enumerate() {
            *byte = (i * 53 + j * 29 + 1) as u8;
        }
    }
    let (data, mut parity) = stripe.split_mut(10);
    code.encode_into(&data, &mut parity).unwrap();
    for target in 10..14 {
        let mut available = vec![true; 14];
        available[target] = false;
        let reads = code.repair_reads(target, &available, shard_len).unwrap();
        assert_eq!(
            total_read_bytes(&reads),
            19 * shard_len as u64 / 2,
            "parity {target}: 19 half-chunks"
        );
        // Only the named ranges hold real bytes; the rest is garbage.
        let mut helpers = ShardBuffer::zeroed(14, shard_len);
        for i in 0..14 {
            helpers.shard_mut(i).fill(0xE7);
        }
        for read in &reads {
            helpers.shard_mut(read.shard)[read.range()]
                .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
        }
        let mut out = vec![0u8; shard_len];
        code.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
            .unwrap();
        assert_eq!(out, stripe.shard(target), "parity {target}");
    }
}
