//! Quickstart: build codes by spec string through the unified registry,
//! encode a stripe with the paper's proposed Piggybacked-RS code using the
//! zero-copy API, lose a block, and repair it with ~30% less network
//! traffic than the production Reed–Solomon code would need.
//!
//! Run with: `cargo run --example quickstart`

#![forbid(unsafe_code)]

use pbrs::prelude::*;

fn main() -> Result<(), CodeError> {
    // The warehouse cluster's production scheme and the paper's proposal,
    // both selected by name: 10 data blocks + 4 parity blocks per stripe
    // (1.4x storage overhead).
    let rs = build_code("rs-10-4")?;
    let piggybacked = build_code("piggyback-10-4")?;

    // Ten "blocks" of application data (tiny here; 256 MB in production),
    // laid out in one contiguous stripe buffer per code.
    let (k, n, block_len) = (10, 14, 1024);
    let mut rs_stripe = ShardBuffer::zeroed(n, block_len);
    for i in 0..k {
        rs_stripe
            .shard_mut(i)
            .iter_mut()
            .enumerate()
            .for_each(|(j, b)| *b = ((i * 37 + j) % 256) as u8);
    }
    let mut pb_stripe = rs_stripe.clone();

    // Zero-copy encode: parity is written in place, right behind the data
    // it protects. Both codes produce 4 parity blocks of the same size —
    // the piggybacked code uses no extra storage.
    {
        let (data, mut parity) = rs_stripe.split_mut(k);
        rs.encode_into(&data, &mut parity)?;
    }
    {
        let (data, mut parity) = pb_stripe.split_mut(k);
        piggybacked.encode_into(&data, &mut parity)?;
    }

    // A machine holding block 6 becomes unavailable. Rebuild it under both
    // codes straight into a caller-provided buffer, and compare the bytes
    // each code's repair reads move across the network.
    let target = 6;
    let mut rs_rebuilt = vec![0u8; block_len];
    let mut pb_rebuilt = vec![0u8; block_len];
    rs.repair_into(target, &rs_stripe.as_set(), &mut rs_rebuilt)?;
    piggybacked.repair_into(target, &pb_stripe.as_set(), &mut pb_rebuilt)?;
    assert_eq!(rs_rebuilt, rs_stripe.shard(target));
    assert_eq!(pb_rebuilt, pb_stripe.shard(target));

    let mut available = vec![true; n];
    available[target] = false;
    let rs_reads = rs.repair_reads(target, &available, block_len)?;
    let pb_reads = piggybacked.repair_reads(target, &available, block_len)?;
    let (rs_bytes, pb_bytes) = (total_read_bytes(&rs_reads), total_read_bytes(&pb_reads));
    println!("Repairing block 6 of a (10, 4) stripe of 1 KiB blocks:");
    println!(
        "  Reed-Solomon   : {} helpers, {rs_bytes} bytes read and transferred",
        rs_reads.len()
    );
    println!(
        "  Piggybacked-RS : {} helpers, {pb_bytes} bytes read and transferred",
        pb_reads.len()
    );
    let saving = 1.0 - pb_bytes as f64 / rs_bytes as f64;
    println!(
        "  saving         : {:.1}% less recovery traffic",
        saving * 100.0
    );

    // Both codes tolerate any 4 block losses (they are MDS): zero the lost
    // blocks and rebuild them in place inside the stripe buffer.
    let mut present = vec![true; n];
    for lost in [0, 3, 6, 12] {
        present[lost] = false;
    }
    let rs_original = rs_stripe.clone();
    let pb_original = pb_stripe.clone();
    for lost in [0, 3, 6, 12] {
        rs_stripe.shard_mut(lost).fill(0);
        pb_stripe.shard_mut(lost).fill(0);
    }
    rs.reconstruct_in_place(&mut rs_stripe.as_set_mut(), &present)?;
    piggybacked.reconstruct_in_place(&mut pb_stripe.as_set_mut(), &present)?;
    assert_eq!(rs_stripe, rs_original);
    assert_eq!(pb_stripe, pb_original);
    println!("Both codes reconstructed a stripe with 4 missing blocks exactly, in place.");
    Ok(())
}
