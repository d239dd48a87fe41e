//! The machine-unavailability process behind Fig. 3a.
//!
//! The paper reports, for each of ~34 days, the number of machines that were
//! unavailable for more than 15 minutes; the median exceeds 50 events/day
//! with occasional spikes above 250 (rolling software upgrades, rack
//! maintenance and correlated reboots). The model here is a compound
//! process: a Poisson base rate of independent machine events plus rare
//! "spike" days that add a burst of correlated events, with log-normal
//! downtime durations and a small probability that a machine never returns
//! (a permanent failure requiring full re-replication of its blocks).

use rand::Rng;

use crate::distributions;

/// One machine-unavailability event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnavailabilityEvent {
    /// Index of the affected machine.
    pub machine: usize,
    /// Start of the outage, in minutes since the start of the simulation.
    pub start_minute: f64,
    /// Outage duration in minutes (`f64::INFINITY` for permanent failures).
    pub duration_minutes: f64,
}

impl UnavailabilityEvent {
    /// `true` if the outage lasts longer than the cluster's detection
    /// timeout and therefore triggers recovery (the events Fig. 3a counts).
    pub fn exceeds(&self, timeout_minutes: f64) -> bool {
        self.duration_minutes > timeout_minutes
    }
}

/// Parameters of the unavailability process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnavailabilityModel {
    /// Number of machines in the cluster.
    pub machines: usize,
    /// Mean number of independent (non-spike) events per day that exceed the
    /// detection timeout.
    pub base_events_per_day: f64,
    /// Probability that a day is a "spike" day (correlated maintenance).
    pub spike_probability: f64,
    /// Mean number of additional events on a spike day.
    pub spike_extra_events: f64,
    /// Median outage duration in minutes (log-normal).
    pub median_duration_minutes: f64,
    /// Log-normal shape parameter of the outage duration.
    pub duration_sigma: f64,
    /// Probability that an event is a permanent machine failure.
    pub permanent_failure_probability: f64,
    /// Fraction of generated events that fall below the detection timeout
    /// (short blips Fig. 3a does not count but the cluster still sees).
    pub short_blip_fraction: f64,
    /// The detection timeout (minutes) used to scale short blips.
    pub detection_timeout_minutes: f64,
}

impl UnavailabilityModel {
    /// The calibration used to reproduce Fig. 3a: ~52 qualifying events per
    /// day at the median with spikes into the hundreds, on a cluster of a
    /// few thousand machines.
    pub fn facebook(machines: usize) -> Self {
        UnavailabilityModel {
            machines,
            base_events_per_day: 52.0,
            spike_probability: 0.09,
            spike_extra_events: 130.0,
            median_duration_minutes: 90.0,
            duration_sigma: 1.0,
            permanent_failure_probability: 0.008,
            short_blip_fraction: 0.35,
            detection_timeout_minutes: 15.0,
        }
    }

    /// Generates all events for `days` days. Events are sorted by start
    /// time; machines are chosen uniformly at random (a machine may fail
    /// more than once over the horizon, matching production behaviour).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, days: usize) -> Vec<UnavailabilityEvent> {
        let mut events = Vec::new();
        for day in 0..days {
            let mut qualifying = distributions::poisson(rng, self.base_events_per_day);
            if distributions::bernoulli(rng, self.spike_probability) {
                qualifying += distributions::poisson(rng, self.spike_extra_events);
            }
            // Short blips that never reach the detection timeout.
            let blips = (qualifying as f64 * self.short_blip_fraction
                / (1.0 - self.short_blip_fraction))
                .round() as u64;
            for _ in 0..qualifying {
                events.push(self.one_event(rng, day, false));
            }
            for _ in 0..blips {
                events.push(self.one_event(rng, day, true));
            }
        }
        // pbrs-lint: allow(panic-hygiene) -- event start minutes are finite; NaN is structurally impossible
        events.sort_by(|a, b| a.start_minute.partial_cmp(&b.start_minute).expect("no NaN"));
        events
    }

    fn one_event<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        day: usize,
        blip: bool,
    ) -> UnavailabilityEvent {
        let machine = rng.random_range(0..self.machines);
        let start_minute = day as f64 * MINUTES_PER_DAY + rng.random_range(0.0..MINUTES_PER_DAY);
        let duration_minutes = if blip {
            rng.random_range(0.5..self.detection_timeout_minutes)
        } else if distributions::bernoulli(rng, self.permanent_failure_probability) {
            f64::INFINITY
        } else {
            // Durations below the timeout would not qualify; shift the
            // log-normal so every non-blip event exceeds the timeout.
            self.detection_timeout_minutes
                + distributions::log_normal_median(
                    rng,
                    self.median_duration_minutes,
                    self.duration_sigma,
                )
        };
        UnavailabilityEvent {
            machine,
            start_minute,
            duration_minutes,
        }
    }

    /// Counts, for each day, the events whose outage exceeded the detection
    /// timeout — exactly the series plotted in Fig. 3a.
    pub fn daily_qualifying_counts(
        events: &[UnavailabilityEvent],
        days: usize,
        timeout_minutes: f64,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; days];
        for e in events {
            if e.exceeds(timeout_minutes) {
                let day = (e.start_minute / MINUTES_PER_DAY) as usize;
                if day < days {
                    counts[day] += 1;
                }
            }
        }
        counts
    }
}

/// Minutes in a day.
pub const MINUTES_PER_DAY: f64 = 24.0 * 60.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn event_helpers() {
        let e = UnavailabilityEvent {
            machine: 7,
            start_minute: 100.0,
            duration_minutes: 30.0,
        };
        assert!(e.exceeds(15.0));
        assert!(!e.exceeds(60.0));
        let p = UnavailabilityEvent {
            duration_minutes: f64::INFINITY,
            ..e
        };
        assert!(p.exceeds(1e9));
    }

    #[test]
    fn daily_counts_match_fig_3a_shape() {
        let mut rng = StdRng::seed_from_u64(42);
        let model = UnavailabilityModel::facebook(3000);
        let days = 90;
        let events = model.generate(&mut rng, days);
        let counts = UnavailabilityModel::daily_qualifying_counts(&events, days, 15.0);
        assert_eq!(counts.len(), days);
        let summary = Summary::of_counts(&counts);
        // Median above 50 events/day (paper), but not wildly above.
        assert!(summary.median > 50.0, "median {summary:?}");
        assert!(summary.median < 75.0, "median {summary:?}");
        // Occasional spike days into the hundreds, as in Fig. 3a.
        assert!(summary.max > 120.0, "max {summary:?}");
        assert!(summary.max < 450.0, "max {summary:?}");
        // Quiet days stay in a plausible range.
        assert!(summary.min > 20.0, "min {summary:?}");
    }

    #[test]
    fn blips_do_not_count_toward_fig_3a() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = UnavailabilityModel::facebook(100);
        let events = model.generate(&mut rng, 10);
        let blips = events.iter().filter(|e| !e.exceeds(15.0)).count();
        let qualifying = events.iter().filter(|e| e.exceeds(15.0)).count();
        assert!(blips > 0, "the model generates sub-timeout blips too");
        assert!(qualifying > 0);
        // Qualifying events all exceed the timeout by construction.
        assert!(events
            .iter()
            .filter(|e| e.exceeds(15.0))
            .all(|e| e.duration_minutes > 15.0));
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = UnavailabilityModel::facebook(500);
        let days = 5;
        let events = model.generate(&mut rng, days);
        assert!(events
            .windows(2)
            .all(|w| w[0].start_minute <= w[1].start_minute));
        assert!(events
            .iter()
            .all(|e| e.start_minute >= 0.0 && e.start_minute < days as f64 * MINUTES_PER_DAY));
        assert!(events.iter().all(|e| e.machine < 500));
    }

    #[test]
    fn permanent_failures_are_rare_but_present() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = UnavailabilityModel::facebook(3000);
        let events = model.generate(&mut rng, 120);
        let permanent = events
            .iter()
            .filter(|e| e.duration_minutes.is_infinite())
            .count();
        let total = events.len();
        assert!(permanent > 0);
        assert!((permanent as f64) < total as f64 * 0.03);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let model = UnavailabilityModel::facebook(100);
        let a = model.generate(&mut StdRng::seed_from_u64(9), 3);
        let b = model.generate(&mut StdRng::seed_from_u64(9), 3);
        assert_eq!(a, b);
    }
}
