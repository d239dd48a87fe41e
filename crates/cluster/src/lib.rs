//! A discrete-event simulator of the warehouse cluster studied in the paper.
//!
//! The paper's measurement study (its Figs. 3a/3b and §2.2 statistics) comes
//! from Facebook's production warehouse cluster: a few thousand machines in
//! racks behind oversubscribed top-of-rack (TOR) switches, storing >10 PB of
//! (10, 4) RS-coded HDFS blocks whose recovery traffic the authors measured.
//! Production traces are not available, so this crate rebuilds the machinery
//! those measurements came from, calibrated to every statistic the paper
//! reports:
//!
//! * [`calibration`] — the paper's reported constants (medians, percentages,
//!   block and cluster sizes) in one place, with the sentence of the paper
//!   each value comes from;
//! * [`distributions`] — the samplers (Poisson, normal, log-normal) used by
//!   the failure and workload models, implemented here so the workspace
//!   needs no extra dependencies;
//! * [`unavailability`] — the machine-unavailability process behind Fig. 3a;
//! * [`stripe_failures`] — the stripe-degradation distribution of §2.2;
//! * [`stats`] — summaries of sampled series;
//! * [`report`] — markdown tables and byte units for printed reports;
//! * [`topology`] — racks, machines, TOR/aggregation switches;
//! * [`config`] — cluster and workload parameters, with a
//!   [`config::SimConfig::facebook`] profile calibrated to the paper;
//! * [`failure`] — the fleet state the unavailability process drives;
//! * [`placement`] + [`stripes`] — rack-disjoint block placement and the
//!   sampled stripe census used for the §2.2 degradation statistics;
//! * [`recovery`] — the HDFS-RAID-style recovery pipeline: 15-minute
//!   detection, a bounded pool of recovery slots, cancellation when machines
//!   return, and per-block repair costs read off the configured erasure
//!   code's single-loss repair reads;
//! * [`network`] — the bandwidth-bound recovery-time model of §3.2;
//! * [`event`] — the discrete-event engine;
//! * [`metrics`] — per-day metrics and report types;
//! * [`reliability`] — the Markov MTTDL model backing the paper's
//!   reliability argument;
//! * [`sim`] — the [`sim::Simulator`] that ties everything together.
//!
//! # Example
//!
//! ```
//! use pbrs_cluster::config::SimConfig;
//! use pbrs_cluster::sim::Simulator;
//! use pbrs_erasure::CodeSpec;
//!
//! // A small cluster, one simulated week, RS(10,4) recovery.
//! let mut config = SimConfig::small_test();
//! config.days = 7;
//! config.code = CodeSpec::ReedSolomon { k: 10, r: 4 };
//! let report = Simulator::new(config).run();
//! assert_eq!(report.days.len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod distributions;
pub mod event;
pub mod failure;
pub mod metrics;
pub mod network;
pub mod placement;
pub mod recovery;
pub mod reliability;
pub mod report;
pub mod sim;
pub mod stats;
pub mod stripe_failures;
pub mod stripes;
pub mod topology;
pub mod unavailability;

pub use config::SimConfig;
pub use metrics::{ClusterReport, DayMetrics};
pub use sim::Simulator;
