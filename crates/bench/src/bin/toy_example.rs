//! Experiment E4 — Fig. 4 / Example 1: the (2, 2) piggybacking toy example.
//! Recovery of node 1 downloads 3 bytes instead of the 4 an RS code needs,
//! while the code still tolerates any 2 of 4 node failures with no extra
//! storage.

#![forbid(unsafe_code)]

use pbrs_bench::{print_comparison, row, section};
use pbrs_core::toy_example;
use pbrs_erasure::{total_read_bytes, ErasureCode, ReedSolomon, ShardBuffer};

/// Encodes the two data shards `data` into a full four-shard stripe.
fn encode(code: &dyn ErasureCode, data: [[u8; 2]; 2]) -> ShardBuffer {
    let mut stripe = ShardBuffer::zeroed(4, 2);
    stripe.shard_mut(0).copy_from_slice(&data[0]);
    stripe.shard_mut(1).copy_from_slice(&data[1]);
    let (data, mut parity) = stripe.split_mut(2);
    code.encode_into(&data, &mut parity).unwrap();
    stripe
}

/// Rebuilds node `target` from only the bytes its repair reads name,
/// returning the rebuilt shard, the bytes downloaded and the nodes contacted.
fn repair(code: &dyn ErasureCode, stripe: &ShardBuffer, target: usize) -> (Vec<u8>, u64, usize) {
    let mut available = [true; 4];
    available[target] = false;
    let reads = code.repair_reads(target, &available, 2).unwrap();
    let mut helpers = ShardBuffer::zeroed(4, 2);
    for i in 0..4 {
        helpers.shard_mut(i).fill(0xEE);
    }
    for read in &reads {
        helpers.shard_mut(read.shard)[read.range()]
            .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
    }
    let mut out = vec![0u8; 2];
    code.repair_from_reads(target, &reads, &helpers.as_set(), &mut out)
        .unwrap();
    (out, total_read_bytes(&reads), reads.len())
}

fn main() {
    let code = toy_example();
    let rs = ReedSolomon::new(2, 2).unwrap();

    // One byte per substripe symbol, as drawn in the paper's figure.
    let (a1, a2, b1, b2) = (0x11u8, 0x22u8, 0x33u8, 0x44u8);
    let data = [[a1, b1], [a2, b2]];
    let stripe = encode(&code, data);
    let parity = [stripe.shard(2), stripe.shard(3)];

    section("Fig. 4 — the piggybacked (2, 2) stripe");
    println!("node 1 stores (a1, b1)                 = ({a1:#04x}, {b1:#04x})");
    println!("node 2 stores (a2, b2)                 = ({a2:#04x}, {b2:#04x})");
    println!(
        "node 3 stores (f1(a), f1(b))           = ({:#04x}, {:#04x})",
        parity[0][0], parity[0][1]
    );
    println!(
        "node 4 stores (f2(a), f2(b) + a1)      = ({:#04x}, {:#04x})   <- piggyback",
        parity[1][0], parity[1][1]
    );

    // Repair node 1 under both codes.
    let (pb_shard, pb_bytes, pb_nodes) = repair(&code, &stripe, 0);
    let (rs_shard, rs_bytes, rs_nodes) = repair(&rs, &encode(&rs, data), 0);

    section("Recovering node 1");
    println!(
        "piggybacked code downloads: b2, f1(b), f2(b)+a1  ->  {pb_bytes} bytes from {pb_nodes} nodes"
    );
    println!(
        "plain RS code downloads   : both symbols of any 2 nodes -> {rs_bytes} bytes from {rs_nodes} nodes"
    );
    assert_eq!(pb_shard, data[0]);
    assert_eq!(rs_shard, data[0]);

    section("Paper vs. measured");
    print_comparison(&[
        row(
            "bytes downloaded to recover node 1 (piggybacked)",
            3,
            pb_bytes,
        ),
        row("bytes downloaded to recover node 1 (RS)", 4, rs_bytes),
        row(
            "fault tolerance (any failures of 4 nodes)",
            2,
            code.fault_tolerance(),
        ),
        row(
            "extra storage used by the piggyback",
            "none",
            "none (same 4 x 2 bytes)",
        ),
    ]);
}
