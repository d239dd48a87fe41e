//! Compare the storage schemes the paper discusses — 3-way replication, the
//! production RS(10,4) code, the proposed Piggybacked-RS(10,4), and an LRC
//! baseline — on storage overhead, repair download and durability.
//!
//! Run with: `cargo run --example repair_comparison`

#![forbid(unsafe_code)]

use pbrs::cluster::reliability::model_for_code;
use pbrs::cluster::report::to_markdown_table;
use pbrs::code::CodeComparison;
use pbrs::prelude::*;

fn main() -> Result<(), CodeError> {
    // Every scheme the paper discusses, selected uniformly by spec string
    // through the registry.
    let codes: Vec<pbrs::code::registry::DynCode> =
        ["rep-3", "rs-10-4", "piggyback-10-4", "lrc-10-2-4"]
            .iter()
            .map(|spec| build_code(spec))
            .collect::<Result<_, _>>()?;

    // Reliability model: 256 MB blocks, 40 MB/s bandwidth-bound repair, one
    // permanent block loss per four block-years.
    let block = 256.0 * 1024.0 * 1024.0;
    let bandwidth = 40.0 * 1024.0 * 1024.0;
    let mtbf_hours = 4.0 * 365.25 * 24.0;

    let rows: Vec<Vec<String>> = codes
        .iter()
        .map(|code| {
            let c = CodeComparison::of(code.as_ref());
            let mttdl = model_for_code(
                code.params().total_shards(),
                code.fault_tolerance(),
                c.average_blocks_per_repair * block,
                code.params().data_shards() as f64 * block,
                bandwidth,
                mtbf_hours,
            );
            vec![
                c.name.clone(),
                format!("{:.2}x", c.storage_overhead),
                format!("{}", c.fault_tolerance),
                if c.is_mds { "yes" } else { "no" }.to_string(),
                format!("{:.2}", c.average_blocks_per_repair),
                format!("{:.1e} years", mttdl.stripe_mttdl_years()),
            ]
        })
        .collect();

    print!(
        "{}",
        to_markdown_table(
            &[
                "scheme",
                "storage overhead",
                "failures tolerated",
                "storage optimal (MDS)",
                "blocks downloaded per block repaired",
                "per-stripe MTTDL"
            ],
            &rows
        )
    );

    println!();
    println!("Reading the table the way the paper does:");
    println!(" * replication is cheap to repair but needs 3x storage (the cost the cluster is escaping);");
    println!(" * RS(10,4) is storage optimal but repairs cost 10 whole blocks of network traffic;");
    println!(
        " * Piggybacked-RS keeps the 1.4x/MDS storage story and cuts the repair download by ~30%"
    );
    println!("   for data blocks (~24% averaged over all 14 blocks), which also raises the MTTDL;");
    println!(" * LRC repairs even cheaper but gives up storage optimality (1.6x).");
    Ok(())
}
