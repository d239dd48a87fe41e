//! Archive a file the way the warehouse cluster archives cold data: split it
//! into blocks, group blocks into (10, 4) stripes, place every block on a
//! different rack, then survive machine failures and degraded reads.
//!
//! Run with: `cargo run --example archival_file`

#![forbid(unsafe_code)]

use pbrs::prelude::*;

fn main() -> Result<(), CodeError> {
    // "A file or a directory is first partitioned into blocks ... every set
    //  is then encoded with a (10, 4) RS code" (§2.1). Here we use the
    // Piggybacked-RS replacement the paper proposes and a small file,
    // selecting the code by spec through the registry.
    let code = build_code("piggyback-10-4")?;
    let code = code.as_ref();
    let (k, n) = (10, 14);
    let file: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();

    // Split the file into 10 equal data blocks (the code works on two
    // byte-level substripes, so block sizes must be even). The stripe
    // buffer keeps its blocks back to back, so splitting is a copy into
    // each block and the zero padding is already there.
    let block_len = file.len().div_ceil(k).next_multiple_of(code.granularity());
    let mut stripe = ShardBuffer::zeroed(n, block_len);
    for (i, block) in file.chunks(block_len).enumerate() {
        stripe.shard_mut(i)[..block.len()].copy_from_slice(block);
    }
    let (data, mut parity) = stripe.split_mut(k);
    code.encode_into(&data, &mut parity)?;
    let original = stripe.clone();
    println!(
        "archived a {}-byte file as {k} data blocks of {block_len} bytes + 4 parity blocks",
        file.len()
    );

    // Two machines in different racks fail: one holding a data block, one
    // holding a parity block. Their slots now hold garbage.
    let mut available = vec![true; n];
    for lost in [2, 11] {
        available[lost] = false;
        stripe.shard_mut(lost).fill(0xEE);
    }
    println!("lost block 2 (data) and block 11 (parity); stripe is degraded but readable");

    // Degraded read: decode a copy of the stripe and hand the file back —
    // joining the blocks is a prefix of the buffer.
    let mut working = stripe.clone();
    code.reconstruct_in_place(&mut working.as_set_mut(), &available)?;
    let mut recovered_file = working.into_inner();
    recovered_file.truncate(file.len());
    assert_eq!(recovered_file, file);
    println!(
        "degraded read returned the exact original file ({} bytes)",
        recovered_file.len()
    );

    // Background repair, parity first: with block 2 also lost, the parity
    // repair has no cheap path and decodes from 10 whole blocks.
    let parity_reads = code.repair_reads_ranked(11, &available, block_len, &|_| 0)?;
    let mut scratch = stripe.clone();
    code.reconstruct_in_place(&mut scratch.as_set_mut(), &available)?;
    stripe.shard_mut(11).copy_from_slice(scratch.shard(11));
    available[11] = true;
    println!(
        "healed parity block 11 from {} helpers ({} bytes)",
        parity_reads.len(),
        total_read_bytes(&parity_reads)
    );

    // Now block 2 is the only loss, so its repair takes the piggyback path:
    // read only the byte ranges `repair_reads` names. Every other byte of
    // the helper buffer is garbage and is never looked at.
    let reads = code.repair_reads(2, &available, block_len)?;
    let mut helpers = ShardBuffer::zeroed(n, block_len);
    for i in 0..n {
        helpers.shard_mut(i).fill(0xEE);
    }
    for read in &reads {
        helpers.shard_mut(read.shard)[read.range()]
            .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
    }
    let mut rebuilt = vec![0u8; block_len];
    code.repair_from_reads(2, &reads, &helpers.as_set(), &mut rebuilt)?;
    let moved = total_read_bytes(&reads);
    let rs_moved = (k * block_len) as u64;
    println!(
        "background repair of block 2 read {} ranges and moved {moved} bytes \
         (a plain RS code would have moved {rs_moved} bytes)",
        reads.len()
    );
    assert!(moved < rs_moved, "piggyback repair must read less than RS");
    stripe.shard_mut(2).copy_from_slice(&rebuilt);

    // Healed: every block matches the original, so the parity is consistent
    // with the data again.
    assert_eq!(stripe, original);
    println!("stripe fully healed and parity-consistent");
    Ok(())
}
