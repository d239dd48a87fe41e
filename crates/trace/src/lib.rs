//! Synthetic traces, statistics and calibration constants for the
//! warehouse-cluster recovery study.
//!
//! The paper's first half is a measurement study of Facebook's warehouse
//! cluster. Those production traces are not available, so this crate provides
//! the closest synthetic equivalents, calibrated to every statistic the paper
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
//! * [`stats`] — medians and percentiles;
//! * [`report`] — markdown tables and byte units for printed reports.
//!
//! The per-day Fig. 3b series come from the discrete-event simulator in
//! `pbrs-cluster`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod distributions;
pub mod report;
pub mod stats;
pub mod stripe_failures;
pub mod unavailability;

pub use calibration::PaperConstants;
pub use stats::Summary;
pub use stripe_failures::StripeDegradation;
pub use unavailability::{UnavailabilityEvent, UnavailabilityModel};
