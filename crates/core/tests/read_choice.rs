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
use pbrs_erasure::{total_read_bytes, ErasureCode, ShardBuffer, ShardRead};
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

/// Every `k`-subset of `n` indices, in lexicographic order.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut chosen: Vec<usize> = (0..k).collect();
    loop {
        out.push(chosen.clone());
        let Some(i) = (0..k).rev().find(|&i| chosen[i] < n - k + i) else {
            return out;
        };
        chosen[i] += 1;
        for j in i + 1..k {
            chosen[j] = chosen[j - 1] + 1;
        }
    }
}

#[test]
fn is_mds_holds_exactly_when_every_k_shards_have_full_symbol_rank() {
    for spec in [
        "rs-10-4",
        "rep-3",
        "lrc-10-2-4",
        "piggyback-4-2",
        "piggyback-6-3",
        "piggyback-10-4",
    ] {
        let code = registry::build_str(spec).unwrap();
        let (n, k, g) = (
            code.params().total_shards(),
            code.params().data_shards(),
            code.granularity(),
        );
        let generator = code.generator();
        let every_subset_full = subsets(n, k).iter().all(|shards| {
            let rows: Vec<&[u8]> = shards
                .iter()
                .flat_map(|&s| s * g..(s + 1) * g)
                .map(|row| generator.row(row))
                .collect();
            rank(&rows) == k * g
        });
        assert_eq!(code.is_mds(), every_subset_full, "{spec}");
    }
}

/// The planner's prices, pinned: for every registry code and
/// `piggyback-6-3`, every target and every mask of at most `n − k` losses
/// that includes it, the ranked reads at one byte per symbol, summed three
/// ways: bytes with no helper preference, `Σ rank × bytes` under the
/// preference `i ↦ (7·i) mod 3`, and the masks the code cannot plan.
/// A change to how any code chooses its reads moves one of them.
#[test]
fn planner_prices_are_pinned() {
    let specs: Vec<String> = registry::known_specs()
        .iter()
        .map(ToString::to_string)
        .chain(["piggyback-6-3".to_string()])
        .collect();
    let mut got: Vec<(String, u64, u64, usize)> = Vec::new();
    for spec in specs {
        let code = registry::build_str(&spec).unwrap();
        let (n, k, g) = (
            code.params().total_shards(),
            code.params().data_shards(),
            code.granularity(),
        );
        let spread = |i: usize| (7 * i as u64) % 3;
        let (mut bytes, mut weighted, mut unplanned) = (0, 0, 0);
        for lost in 1..=n - k {
            for mask in subsets(n, lost) {
                let available: Vec<bool> = (0..n).map(|i| !mask.contains(&i)).collect();
                for &target in &mask {
                    match code.repair_reads_ranked(target, &available, g, &|_| 0) {
                        Ok(reads) => bytes += total_read_bytes(&reads),
                        Err(_) => unplanned += 1,
                    }
                    if let Ok(reads) = code.repair_reads_ranked(target, &available, g, &spread) {
                        weighted += reads
                            .iter()
                            .map(|r| spread(r.shard) * r.len as u64)
                            .sum::<u64>();
                    }
                }
            }
        }
        got.push((spec, bytes, weighted, unplanned));
    }
    let expect = [
        ("rs-10-4", 52_920, 47_535, 0),
        ("piggyback-10-4", 105_566, 95_027, 0),
        ("lrc-10-2-4", 724_305, 646_659, 2_622),
        ("rep-3", 9, 7, 0),
        ("piggyback-6-3", 3_959, 3_818, 0),
    ];
    let expect: Vec<(String, u64, u64, usize)> = expect
        .iter()
        .map(|&(spec, bytes, weighted, unplanned)| (spec.to_string(), bytes, weighted, unplanned))
        .collect();
    assert_eq!(got, expect);
}

/// Piggybacked-RS with `r = 2` has one group holding all `k` data shards,
/// so a data shard's piggyback read (its `k − 1` peers whole, the two
/// parities' b-halves) costs exactly `k` whole shards and is no plan: the
/// repair reads the `k` lowest-ranked whole shards, as for any MDS code.
#[test]
fn piggyback_4_2_data_targets_read_the_k_lowest_ranked_whole_shards() {
    let code = registry::build_str("piggyback-4-2").unwrap();
    for target in 0..4 {
        let mut available = vec![true; 6];
        available[target] = false;
        for rank in [
            |_: usize| 0,
            |i: usize| (7 * i as u64) % 3,
            |i: usize| 6 - i as u64,
        ] {
            let mut expect: Vec<usize> = (0..6).filter(|&i| i != target).collect();
            expect.sort_by_key(|&i| (rank(i), i));
            expect.truncate(4);
            expect.sort_unstable();
            let reads = code
                .repair_reads_ranked(target, &available, 16, &rank)
                .unwrap();
            assert_eq!(
                reads,
                expect
                    .iter()
                    .map(|&shard| ShardRead::whole(shard, 16))
                    .collect::<Vec<_>>(),
                "target {target}"
            );
        }
    }
}

/// Data shards find their reads however large their groups: every data
/// shard of these Piggybacked-RS codes reads the paper's `k + |group|`
/// half-chunks, and every data shard and local parity of an LRC with
/// groups of 15 reads its group. A depth-first search over their 24 to 48
/// candidates runs past its budget; the circuit search finds each in at
/// most 1.4 million words.
#[test]
fn large_group_codes_keep_their_group_reads() {
    let price = |spec: &str, target: usize| {
        let code = registry::build_str(spec).unwrap();
        let n = code.params().total_shards();
        let mut available = vec![true; n];
        available[target] = false;
        let reads = code
            .repair_reads(target, &available, code.granularity())
            .unwrap();
        total_read_bytes(&reads)
    };
    for (spec, k, group) in [
        ("piggyback-20-3", 20, 10),
        ("piggyback-20-5", 20, 5),
        ("piggyback-40-5", 40, 10),
    ] {
        for target in 0..k {
            assert_eq!(
                price(spec, target),
                (k + group) as u64,
                "{spec} shard {target}"
            );
        }
    }
    for target in 0..32 {
        assert_eq!(price("lrc-30-2-4", target), 15, "lrc-30-2-4 shard {target}");
    }
}
