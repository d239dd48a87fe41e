//! The paper scorecard: each number the paper reports, beside the number
//! this reproduction computes for it and the tolerance it is held to.
//!
//! Three sources feed it:
//!
//! * closed forms over the codes themselves (repair reads, storage
//!   overhead, the transfer-time and MTTDL models, the binomial stripe
//!   model);
//! * the machine-unavailability model behind Fig. 3a;
//! * the warehouse simulator: one paired run (RS(10, 4), then
//!   Piggybacked-RS(10, 4) on the same failure trace) for Fig. 3b and the
//!   traffic saving, and a six-month stripe census for §2.2.
//!
//! Prints the scorecard and the (k, r) sweep as markdown tables and writes
//! `BENCH_paper.json`: every row with its note, plus the per-day Fig. 3
//! series. Exits non-zero if a gated row misses. A report-only row shows
//! its real pass or miss but does not fail the run.
//!
//! Usage: `cargo run --release -p pbrs-bench --bin paper_scorecard` (about
//! a second in release; the paper-scale simulation is slow in debug builds).

#![forbid(unsafe_code)]

use std::fs;
use std::process::ExitCode;

use pbrs_bench::section;
use pbrs_cluster::network::TransferModel;
use pbrs_cluster::reliability::model_for_code;
use pbrs_cluster::sim::paired_rs_vs_piggybacked;
use pbrs_cluster::{ClusterReport, SimConfig, Simulator};
use pbrs_core::{registry, toy_example, CodeComparison, SavingsReport};
use pbrs_erasure::{total_read_bytes, CodeSpec, ErasureCode, ReedSolomon, ShardBuffer};
use pbrs_trace::calibration::{bytes_to_tb, PaperConstants, MB};
use pbrs_trace::report::to_markdown_table;
use pbrs_trace::stats::Summary;
use pbrs_trace::stripe_failures::{
    binomial_degradation_estimate, implied_concurrent_unavailability,
};
use pbrs_trace::unavailability::UnavailabilityModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use Tolerance::{Exact, Points, Relative};

const PAPER: PaperConstants = PaperConstants::published();
/// The production block size, and the bandwidth one repair gets (§3.2).
const BLOCK: u64 = 256 * MB;
const BANDWIDTH: f64 = 40.0 * MB as f64;

// Where a row's number comes from.
const CLOSED: &str = "closed form";
const SIM: &str = "simulator";
const UNAVAIL: &str = "unavailability model";

/// The band a row's number must fall in to pass.
#[derive(Debug, Clone, Copy)]
enum Tolerance {
    /// Equal to the target.
    Exact(f64),
    /// Within ± the second value of the target, in the row's own units
    /// (percentage points for a percentage).
    Points(f64, f64),
    /// Within ± the second value, a fraction, of the target.
    Relative(f64, f64),
}

impl Tolerance {
    fn holds(self, ours: f64) -> bool {
        match self {
            Exact(target) => (ours - target).abs() <= 1e-9 * target.abs().max(1.0),
            Points(target, points) => (ours - target).abs() <= points,
            Relative(target, fraction) => (ours - target).abs() <= fraction * target.abs(),
        }
    }

    fn label(self) -> String {
        match self {
            Exact(target) => format!("= {}", num(target)),
            Points(target, points) => format!("{} ± {}", num(target), num(points)),
            Relative(target, fraction) => format!("{} ± {}%", num(target), num(fraction * 100.0)),
        }
    }
}

/// Up to four decimals, trailing zeros dropped.
fn num(value: f64) -> String {
    let s = format!("{value:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One paper-vs-ours comparison.
#[derive(Debug)]
struct Row {
    source: &'static str,
    section: &'static str,
    claim: String,
    paper: String,
    ours: f64,
    /// `ours` as printed, to the digits the claim is stated in.
    shown: String,
    tolerance: Tolerance,
    gated: bool,
    note: String,
}

/// A row for `claim`; [`Row::ours`] fills in the number and its band.
fn row(source: &'static str, section: &'static str, claim: &str, paper: &str) -> Row {
    Row {
        source,
        section,
        claim: claim.to_string(),
        paper: paper.to_string(),
        ours: f64::NAN,
        shown: String::new(),
        tolerance: Exact(f64::NAN),
        gated: false,
        note: String::new(),
    }
}

impl Row {
    /// Our number, printed with `decimals` places, and its band.
    fn ours(mut self, ours: f64, decimals: usize, tolerance: Tolerance) -> Self {
        self.ours = ours;
        self.shown = format!("{ours:.decimals$}");
        self.tolerance = tolerance;
        self
    }

    fn pass(&self) -> bool {
        self.tolerance.holds(self.ours)
    }

    /// Makes a miss fail the run.
    fn gated(mut self) -> Self {
        self.gated = true;
        self
    }

    fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Non-zero when any gated row misses.
fn exit_status(rows: &[Row]) -> u8 {
    u8::from(rows.iter().any(|r| r.gated && !r.pass()))
}

/// §2.2's split of degraded stripes by blocks missing (1, 2, ≥3), in
/// percent, as three rows; `how` tells the simulated and binomial rows apart.
fn degraded_rows(source: &'static str, how: &str, split: [f64; 3], note: &str) -> Vec<Row> {
    let paper = [
        ("1 block", PAPER.stripes_with_one_missing_pct),
        ("2 blocks", PAPER.stripes_with_two_missing_pct),
        ("≥3 blocks", PAPER.stripes_with_three_plus_missing_pct),
    ];
    let rows = paper.iter().zip(split).map(|(&(missing, target), ours)| {
        let claim = format!("degraded stripes, {missing} missing{how} (%)");
        let row = row(source, "§2.2", &claim, &format!("{target}%"));
        row.ours(ours, 2, Points(target, 0.5)).note(note)
    });
    rows.collect()
}

/// Encodes the (2, 2) stripe `data` under `code`, rebuilds node 1 from
/// only the bytes its repair reads name, and returns the bytes downloaded
/// and the nodes contacted.
fn toy_repair(code: &dyn ErasureCode, data: [[u8; 2]; 2]) -> (u64, usize) {
    let mut stripe = ShardBuffer::zeroed(4, 2);
    stripe.shard_mut(0).copy_from_slice(&data[0]);
    stripe.shard_mut(1).copy_from_slice(&data[1]);
    let (data_shards, mut parity) = stripe.split_mut(2);
    let encoded = code.encode_into(&data_shards, &mut parity);
    encoded.expect("the toy stripe geometry is valid");
    let reads = code.repair_reads(0, &[false, true, true, true], 2);
    let reads = reads.expect("one lost node of four is repairable");
    let mut helpers = ShardBuffer::zeroed(4, 2);
    for read in &reads {
        helpers.shard_mut(read.shard)[read.range()]
            .copy_from_slice(&stripe.shard(read.shard)[read.range()]);
    }
    let mut out = [0u8; 2];
    let repaired = code.repair_from_reads(0, &reads, &helpers.as_set(), &mut out);
    repaired.expect("the named reads suffice");
    assert_eq!(out, data[0], "{} rebuilt node 1 wrongly", code.name());
    (total_read_bytes(&reads), reads.len())
}

/// Storage overhead of each scheme, with its repair cost and MTTDL in the
/// note. MTTDL assumes bandwidth-bound repairs and one permanent block
/// loss per 4 years.
fn scheme_rows() -> Vec<Row> {
    let schemes = [
        ("rep-3", "§1", "3×", PAPER.replication_overhead),
        ("rs-10-4", "§1", "1.4×", PAPER.rs_storage_overhead),
        ("piggyback-10-4", "§3", "1.4×", PAPER.rs_storage_overhead),
        ("lrc-10-2-4", "§5", "1.6× (XORing Elephants)", 1.6),
    ];
    let rows = schemes.iter().map(|&(spec, section, paper, target)| {
        let code = registry::build_str(spec).expect("scheme specs are valid");
        let c = CodeComparison::of(code.as_ref());
        let (n, k) = (code.params().total_shards(), code.params().data_shards());
        let repair = c.average_blocks_per_repair * BLOCK as f64;
        let (degraded, mtbf) = (k as f64 * BLOCK as f64, 4.0 * 365.25 * 24.0);
        let mttdl = model_for_code(n, c.fault_tolerance, repair, degraded, BANDWIDTH, mtbf);
        let (blocks, saving) = (c.average_blocks_per_repair, c.saving_vs_rs() * 100.0);
        let note = format!(
            "MDS {}, tolerates {}, {blocks:.2} blocks per repair ({saving:.1}% below the \
             stripe), per-stripe MTTDL {:.1e} years",
            c.is_mds,
            c.fault_tolerance,
            mttdl.stripe_mttdl_years()
        );
        let claim = format!("storage overhead, {spec}");
        let scheme = row(CLOSED, section, &claim, paper).ours(c.storage_overhead, 2, Exact(target));
        Row {
            gated: spec == "piggyback-10-4",
            ..scheme.note(note)
        }
    });
    rows.collect()
}

/// Rows computed from the codes and models alone: instant, no simulation.
fn closed_form_rows() -> Vec<Row> {
    let savings = SavingsReport::for_params(10, 4).expect("(10, 4) is supported");
    let pb = registry::build(&CodeSpec::FACEBOOK_PIGGYBACK).expect("the Facebook spec is valid");
    let lrc = registry::build_str("lrc-10-2-4").expect("the LRC spec is valid");
    let mds = |code: &registry::DynCode| f64::from(u8::from(code.is_mds()));
    let data_saving = savings.average_data_saving * 100.0;
    let all_saving = savings.average_all_saving * 100.0;
    let helpers = savings.average_data_shards_downloaded();
    let (thirty, seven) = (PAPER.piggyback_recovery_saving * 100.0, Points(7.0, 0.5));

    // Fig. 4: the (2, 2) toy code, one byte per substripe symbol.
    let data = [[0x11, 0x33], [0x22, 0x44]];
    let toy = toy_example();
    let rs22 = ReedSolomon::new(2, 2).expect("(2, 2) is valid");
    let (toy_bytes, toy_nodes) = toy_repair(&toy, data);
    let (rs_bytes, rs_nodes) = toy_repair(&rs22, data);
    let extra = toy.storage_overhead() - rs22.storage_overhead();
    let tolerates = toy.fault_tolerance() as f64;

    // "Time taken for recovery": a data block in a group of 3 (6.5 blocks
    // from 11 helpers) against RS's 10 blocks from 10, at 40 MB/s.
    let model = TransferModel::cluster_default(BANDWIDTH);
    let shard = &savings.per_shard[5];
    let rs_secs = model.recovery_seconds(10 * BLOCK, 10);
    let pb_bytes = (shard.shards_downloaded * BLOCK as f64) as u64;
    let pb_secs = model.recovery_seconds(pb_bytes, shard.helpers);
    let speedup = Relative(10.0 / shard.shards_downloaded, 0.05);
    let setup = 100.0 * shard.helpers as f64 * model.per_helper_setup_secs / pb_secs;

    // The binomial model at the concurrent unavailability that the paper's
    // own 1.87% implies.
    let width = PAPER.stripe_width();
    let p = implied_concurrent_unavailability(width, PAPER.stripes_with_two_missing_pct);
    let (one, two, three) = binomial_degradation_estimate(width, p);
    let note = format!("at concurrent unavailability {:.3}%", p * 100.0);
    let binomial = degraded_rows(CLOSED, ", binomial", [one, two, three], &note);

    let mut rows = scheme_rows();
    rows.extend([
        row(CLOSED, "§3", "failures tolerated, piggyback-10-4", "4")
            .ours(pb.fault_tolerance() as f64, 0, Exact(4.0))
            .gated(),
        row(CLOSED, "§3", "piggyback-10-4 is MDS (1 = yes)", "yes")
            .ours(mds(&pb), 0, Exact(1.0))
            .gated(),
        row(CLOSED, "§5", "lrc-10-2-4 is MDS (1 = yes)", "no").ours(mds(&lrc), 0, Exact(0.0)),
        row(CLOSED, "§3.2", "data-block repair saving vs RS (%)", "~30%")
            .ours(data_saving, 2, Points(thirty, 5.0))
            .gated()
            .note(format!("{all_saving:.2}% over all 14 blocks")),
        row(CLOSED, "§3.2", "helper blocks per data repair", "~7 of 10").ours(helpers, 2, seven),
        row(CLOSED, "§3.1", "toy (2,2): bytes to rebuild node 1", "3")
            .ours(toy_bytes as f64, 0, Exact(3.0))
            .gated()
            .note(format!("b2, f1(b), f2(b)+a1 from {toy_nodes} nodes")),
        row(CLOSED, "§3.1", "toy (2,2): RS bytes to rebuild node 1", "4")
            .ours(rs_bytes as f64, 0, Exact(4.0))
            .gated()
            .note(format!("both symbols of {rs_nodes} nodes")),
        row(CLOSED, "§3.1", "toy (2,2): failures tolerated", "2").ours(tolerates, 0, Exact(2.0)),
        row(CLOSED, "§3.1", "toy (2,2): storage beyond RS", "none").ours(extra, 2, Exact(0.0)),
        row(CLOSED, "§3.2", "recovery speedup, 256 MB", "bytes decide")
            .ours(rs_secs / pb_secs, 2, speedup)
            .note(format!("{rs_secs:.2} vs {pb_secs:.2} s, setup {setup:.2}%")),
    ]);
    rows.extend(binomial);
    rows
}

/// Fig. 3a over the paper's 34-day window and a 90-day horizon; also
/// returns the 34-day events-per-day series.
fn unavailability_rows() -> (Vec<Row>, Vec<u64>) {
    let model = UnavailabilityModel::facebook(PAPER.approx_machines);
    let timeout = PAPER.detection_timeout_minutes;
    let counts = |days: usize| {
        let events = model.generate(&mut StdRng::seed_from_u64(0x2013_0122), days);
        UnavailabilityModel::daily_qualifying_counts(&events, days, timeout)
    };
    let days = PAPER.unavailability_window_days;
    let series = counts(days);
    let window = Summary::of_counts(&series);
    let long = Summary::of_counts(&counts(90));
    let median = Relative(PAPER.median_unavailability_events_per_day, 0.15);
    let spikes = "the model's spikes add 130 events on 9% of days";
    let rows = vec![
        row(UNAVAIL, "§2.2", "median unavailability events/day", "> 50")
            .ours(window.median, 1, median)
            .gated(),
        row(UNAVAIL, "§2.2", "median events/day over 90 days", "> 50")
            .ours(long.median, 1, median)
            .note(format!("p10 {:.1}, p90 {:.1}", long.p10, long.p90)),
        row(UNAVAIL, "§2.2", "busiest day (events)", "~250-350")
            .ours(window.max, 1, Points(300.0, 50.0))
            .note(format!("{spikes}; 90-day max {:.0}", long.max)),
        row(UNAVAIL, "§2.2", "quietest day (events)", "~20-40")
            .ours(window.min, 1, Points(30.0, 10.0))
            .note(spikes),
        row(UNAVAIL, "§2.2", "measurement window (days)", "34").ours(days as f64, 0, Exact(34.0)),
    ];
    (rows, series)
}

/// Fig. 3b and the §3.2 traffic saving, from the paired run.
fn simulator_rows(rs: &ClusterReport, pb: &ClusterReport) -> Vec<Row> {
    let (blocks, tb) = (rs.blocks_summary(), rs.cross_rack_tb_summary());
    let pb_tb = pb.cross_rack_tb_summary();
    let day_pairs = rs.days.iter().zip(&pb.days);
    let saved: Vec<f64> = day_pairs
        .map(|(a, b)| a.cross_rack_tb() - b.cross_rack_tb())
        .collect();
    let saved = Summary::of(&saved);
    let reduction = (1.0 - pb_tb.mean / tb.mean) * 100.0;
    let per_block = |r: &ClusterReport| {
        r.total_cross_rack_bytes() as f64 / r.total_blocks_reconstructed() as f64
    };
    let totals = |r: &ClusterReport| {
        let tb = bytes_to_tb(r.total_cross_rack_bytes());
        format!("{tb:.1} TB over {} blocks", r.total_blocks_reconstructed())
    };
    let pb_code = registry::build(&CodeSpec::FACEBOOK_PIGGYBACK).expect("the spec is valid");
    let closed = CodeComparison::of(pb_code.as_ref()).average_blocks_per_repair / 10.0;
    let rs_blocks = Relative(PAPER.median_blocks_reconstructed_per_day, 0.15);
    let rs_tb = Relative(PAPER.median_cross_rack_recovery_tb_per_day, 0.15);
    let saved_tb = Relative(PAPER.estimated_traffic_reduction_tb_per_day, 0.15);
    let events = Relative(PAPER.median_unavailability_events_per_day, 0.15);
    let (flagged, helpers) = (rs.flagged_summary().median, rs.average_blocks_per_repair);

    let mut rows = vec![
        row(SIM, "§2.2", "median RS blocks rebuilt / day", "95,500")
            .ours(blocks.median, 1, rs_blocks)
            .gated(),
        row(SIM, "§2.2", "median RS cross-rack TB / day", "> 180")
            .ours(tb.median, 1, rs_tb)
            .gated(),
        row(SIM, "§2.2", "median machines flagged / day", "> 50").ours(flagged, 1, events),
        row(SIM, "§2.2", "helper blocks per RS repair", "10").ours(helpers, 1, Exact(10.0)),
    ];
    for (pct, blocks, tb) in [("p10", blocks.p10, tb.p10), ("p90", blocks.p90, tb.p90)] {
        let claim = format!("{pct} of daily RS blocks");
        let daily = row(SIM, "§2.2", &claim, "~60K-120K");
        rows.push(daily.ours(blocks, 1, Points(90_000.0, 30_000.0)));
        let claim = format!("{pct} of daily RS cross-rack TB");
        rows.push(row(SIM, "§2.2", &claim, "~50-250").ours(tb, 1, Points(150.0, 100.0)));
    }
    rows.extend([
        row(SIM, "§3.2", "median TB saved / day", "> 50 (estimate)")
            .ours(saved.median, 1, saved_tb)
            .note(format!(
                "mean {:.1}; RS {:.1} vs piggyback {:.1} TB/day. The paper applies the 30% \
                 data-block saving to all 180 TB; parity repairs, 4 of 14, save nothing",
                saved.mean, tb.median, pb_tb.median
            )),
        row(SIM, "§3.2", "cross-rack TB saved (%)", "~30% (1 block)")
            .ours(reduction, 1, Points(30.0, 5.0))
            .note("over all recoveries, parity blocks included"),
        row(SIM, "§3.2", "piggyback / RS bytes per block", "-")
            .ours(per_block(pb) / per_block(rs), 4, Relative(closed, 0.01))
            .gated()
            .note(format!(
                "closed form {:.4} / 10. RS moves {}, piggyback {}",
                closed * 10.0,
                totals(rs),
                totals(pb)
            )),
    ]);
    rows
}

/// §2.2's missing-blocks split, from a six-month census.
fn census_rows() -> Vec<Row> {
    // The census needs only the unavailability process, so the recovery
    // volume is cut to keep six months of a production-size cluster fast.
    let mut config = SimConfig::facebook();
    config.days = 180;
    config.sampled_stripes = 30_000;
    config.census_interval_hours = 12.0;
    config.mean_rs_blocks_per_machine = 500.0;
    config.blocks_per_recovery_task = 100;
    let report = Simulator::new(config).run();
    let d = report.degradation;
    let split = [
        d.one_missing_pct(),
        d.two_missing_pct(),
        d.three_plus_missing_pct(),
    ];
    let note = format!("{} observations in {} censuses", d.total(), report.censuses);
    let rows = degraded_rows(SIM, "", split, &note).into_iter();
    rows.map(Row::gated).collect()
}

/// Piggybacked-RS at other (k, r): the construction is not tied to (10, 4).
fn sweep_table() -> String {
    let params = [(6, 3), (10, 4), (12, 4), (14, 10), (10, 2), (20, 5)];
    let rows: Vec<Vec<String>> = params
        .iter()
        .map(|&(k, r)| {
            let sweep = SavingsReport::for_params(k, r).expect("sweep parameters are supported");
            vec![
                format!("({k}, {r})"),
                format!("{:.2}", (k + r) as f64 / k as f64),
                format!("{:.2}", sweep.average_data_shards_downloaded()),
                format!("{:.2}%", sweep.average_data_saving * 100.0),
                format!("{:.2}%", sweep.average_all_saving * 100.0),
            ]
        })
        .collect();
    let header = [
        "(k, r)",
        "storage overhead",
        "blocks downloaded per data-block repair",
        "saving vs RS (data blocks)",
        "saving vs RS (all blocks)",
    ];
    to_markdown_table(&header, &rows)
}

fn scorecard_table(rows: &[Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let pass = if r.pass() { "yes" } else { "**no**" };
            let gate = if r.gated { " (gated)" } else { "" };
            let claim = format!("{} {}", r.section, r.claim);
            let (paper, ours, source) = (r.paper.clone(), r.shown.clone(), r.source.into());
            let (tolerance, pass) = (r.tolerance.label(), format!("{pass}{gate}"));
            vec![claim, paper, ours, source, tolerance, pass]
        })
        .collect();
    let header = ["claim", "paper", "ours", "source", "tolerance", "pass"];
    to_markdown_table(&header, &cells)
}

/// A JSON string literal.
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn row_json(r: &Row) -> String {
    let (claim, section, paper) = (quoted(&r.claim), quoted(r.section), quoted(&r.paper));
    let (source, note) = (quoted(r.source), quoted(&r.note));
    let tolerance = quoted(&r.tolerance.label());
    format!(
        "    {{\"claim\": {claim}, \"section\": {section}, \"paper\": {paper}, \"ours\": {}, \
         \"source\": {source}, \"tolerance\": {tolerance}, \"gated\": {}, \"pass\": {}, \
         \"note\": {note}}}",
        r.ours,
        r.gated,
        r.pass()
    )
}

fn main() -> ExitCode {
    let mut rows = closed_form_rows();
    let (fig3a_rows, fig3a) = unavailability_rows();
    rows.extend(fig3a_rows);
    let (rs, pb) = paired_rs_vs_piggybacked(SimConfig::facebook());
    rows.extend(simulator_rows(&rs, &pb));
    rows.extend(census_rows());

    section("Paper scorecard");
    print!("{}", scorecard_table(&rows));
    section("Piggybacked-RS at other (k, r)");
    print!("{}", sweep_table());

    let events = fig3a.iter().map(|&n| n as f64);
    let blocks = rs.days.iter().map(|d| d.blocks_reconstructed as f64);
    let tb = |r: &ClusterReport| r.days.iter().map(|d| d.cross_rack_tb()).collect();
    let series: [(&str, Vec<f64>); 4] = [
        ("fig3a_events_per_day", events.collect()),
        ("fig3b_rs_blocks_per_day", blocks.collect()),
        ("rs_cross_rack_tb_per_day", tb(&rs)),
        ("piggybacked_cross_rack_tb_per_day", tb(&pb)),
    ];
    let series = series.map(|(name, values)| {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        format!("    \"{name}\": [{}]", values.join(", "))
    });
    let rows_json: Vec<String> = rows.iter().map(row_json).collect();
    let (rows_json, series) = (rows_json.join(",\n"), series.join(",\n"));
    let json = format!(
        "{{\n  \"bench\": \"paper_scorecard\",\n  \"rows\": [\n{rows_json}\n  ],\n  \
         \"series\": {{\n{series}\n  }}\n}}\n"
    );
    fs::write("BENCH_paper.json", json).expect("write BENCH_paper.json");

    let gated = rows.iter().filter(|r| r.gated).count();
    let missed = rows.iter().filter(|r| !r.pass()).count();
    println!("\n{} rows: {gated} gated, {missed} missed.", rows.len());
    println!("Wrote BENCH_paper.json.");
    ExitCode::from(exit_status(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_tolerance_kind_has_an_inside_and_an_outside() {
        assert!(Exact(4.0).holds(4.0));
        assert!(!Exact(4.0).holds(3.0));
        assert!(Points(98.08, 0.5).holds(98.27));
        assert!(!Points(0.05, 0.5).holds(0.6));
        assert!(Relative(180.0, 0.15).holds(196.0));
        assert!(!Relative(50.0, 0.15).holds(40.3));
        assert_eq!(Relative(95_500.0, 0.15).label(), "95500 ± 15%");
        assert_eq!(Points(30.0, 5.0).label(), "30 ± 5");
    }

    #[test]
    fn only_a_gated_miss_fails_the_run() {
        let miss = || row(CLOSED, "§0", "miss", "1").ours(2.0, 0, Exact(1.0));
        let hit = || row(CLOSED, "§0", "hit", "1").ours(1.0, 0, Exact(1.0));
        assert_eq!(exit_status(&[hit().gated(), miss()]), 0);
        assert_ne!(exit_status(&[hit(), miss().gated()]), 0);
    }

    #[test]
    fn every_closed_form_row_passes() {
        for r in closed_form_rows() {
            assert!(
                r.pass(),
                "{}: {} vs {}",
                r.claim,
                r.shown,
                r.tolerance.label()
            );
        }
    }
}
