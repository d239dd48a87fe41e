//! A Markov MTTDL model backing the paper's reliability argument (§3.2).
//!
//! The paper argues qualitatively that because Piggybacked-RS repairs a
//! block faster than RS (it reads and transfers ~30 % less data, and
//! recovery is bandwidth-bound), the mean time to data loss (MTTDL) of the
//! system should be *higher*. This module quantifies that with the standard
//! birth–death Markov chain for a stripe: state `i` means `i` blocks of the
//! stripe are currently lost, block failures arrive at rate `(n − i)·λ`,
//! repairs complete at rate `μ_i`, and data loss is the absorbing state
//! `r + 1`.

/// Parameters of the per-stripe Markov model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttdlModel {
    /// Total blocks per stripe (`k + r`).
    pub stripe_width: usize,
    /// Failures the code tolerates (`r` for MDS codes).
    pub fault_tolerance: usize,
    /// Per-block failure rate in events per hour (permanent losses, not
    /// transient unavailability).
    pub block_failure_rate_per_hour: f64,
    /// Time to repair a single failed block, in hours (bandwidth-bound:
    /// helper bytes / recovery bandwidth).
    pub single_repair_hours: f64,
    /// Time to repair one block when several are missing (full-stripe
    /// decode), in hours.
    pub degraded_repair_hours: f64,
}

impl MttdlModel {
    /// Mean time to data loss of a single stripe, in hours, starting from
    /// the all-healthy state.
    ///
    /// Solves the expected-absorption-time recurrence of the birth–death
    /// chain directly.
    ///
    /// # Panics
    ///
    /// Panics if rates are non-positive or the width/tolerance are
    /// inconsistent.
    pub fn stripe_mttdl_hours(&self) -> f64 {
        let n = self.stripe_width as f64;
        let r = self.fault_tolerance;
        assert!(
            self.stripe_width > self.fault_tolerance,
            "width must exceed tolerance"
        );
        assert!(
            self.block_failure_rate_per_hour > 0.0,
            "failure rate must be positive"
        );
        assert!(
            self.single_repair_hours > 0.0 && self.degraded_repair_hours > 0.0,
            "repair times must be positive"
        );
        // States 0..=r are transient; r+1 is absorbing. With failure rate
        // f_i = (n − i)·λ and repair rate m_i (0 for i = 0), the expected
        // absorption times satisfy
        //   (f_i + m_i) T_i − m_i T_{i−1} − f_i T_{i+1} = 1,   T_{r+1} = 0.
        // Setting d_i = T_i − T_{i+1} turns this into the numerically stable
        // forward recurrence d_0 = 1/f_0, d_i = (1 + m_i d_{i−1}) / f_i, and
        // T_0 = Σ d_i (all terms positive, no cancellation — a direct
        // Gaussian solve would lose to the ~(m/f)^r condition number).
        let lambda = self.block_failure_rate_per_hour;
        let mut total = 0.0f64;
        let mut d_prev = 0.0f64;
        for i in 0..=r {
            let f_i = (n - i as f64) * lambda;
            let m_i = if i == 0 {
                0.0
            } else if i == 1 {
                1.0 / self.single_repair_hours
            } else {
                1.0 / self.degraded_repair_hours
            };
            let d_i = (1.0 + m_i * d_prev) / f_i;
            total += d_i;
            d_prev = d_i;
        }
        total
    }

    /// Convenience: MTTDL in years.
    pub fn stripe_mttdl_years(&self) -> f64 {
        self.stripe_mttdl_hours() / (24.0 * 365.25)
    }
}

/// Builds the MTTDL model for a code given its single-failure repair volume.
///
/// * `stripe_width`, `fault_tolerance` — the code's parameters.
/// * `single_repair_bytes` — helper bytes read for a single-block repair.
/// * `degraded_repair_bytes` — helper bytes for a repair when several blocks
///   are missing (full-stripe decode).
/// * `repair_bandwidth_bytes_per_sec` — the bandwidth-bound repair rate.
/// * `block_mtbf_hours` — mean time between permanent losses of one block.
pub fn model_for_code(
    stripe_width: usize,
    fault_tolerance: usize,
    single_repair_bytes: f64,
    degraded_repair_bytes: f64,
    repair_bandwidth_bytes_per_sec: f64,
    block_mtbf_hours: f64,
) -> MttdlModel {
    MttdlModel {
        stripe_width,
        fault_tolerance,
        block_failure_rate_per_hour: 1.0 / block_mtbf_hours,
        single_repair_hours: single_repair_bytes / repair_bandwidth_bytes_per_sec / 3600.0,
        degraded_repair_hours: degraded_repair_bytes / repair_bandwidth_bytes_per_sec / 3600.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_model() -> MttdlModel {
        // (10, 4) stripe of 256MB blocks, 40 MB/s repair bandwidth, one
        // permanent block loss per ~4 years.
        model_for_code(
            14,
            4,
            10.0 * 256.0 * 1024.0 * 1024.0,
            10.0 * 256.0 * 1024.0 * 1024.0,
            40.0 * 1024.0 * 1024.0,
            4.0 * 365.25 * 24.0,
        )
    }

    #[test]
    fn mttdl_is_astronomically_large_for_four_parities() {
        let m = base_model();
        let years = m.stripe_mttdl_years();
        // Repair takes ~64s against a ~4-year MTBF; losing 5 blocks within
        // overlapping repair windows is essentially impossible.
        assert!(years > 1e12, "{years}");
    }

    #[test]
    fn faster_repair_improves_mttdl() {
        let slow = base_model();
        let fast = MttdlModel {
            single_repair_hours: slow.single_repair_hours * 0.7,
            ..slow
        };
        assert!(
            fast.stripe_mttdl_hours() > slow.stripe_mttdl_hours(),
            "cutting repair time must raise MTTDL"
        );
        // Only the single-failure repair rate changed, so the dominant term
        // of the MTTDL scales by roughly the inverse of the repair-time cut.
        let ratio = fast.stripe_mttdl_hours() / slow.stripe_mttdl_hours();
        assert!(ratio > 1.3, "{ratio}");
    }

    #[test]
    fn more_parities_mean_higher_mttdl() {
        let two = MttdlModel {
            stripe_width: 12,
            fault_tolerance: 2,
            ..base_model()
        };
        let four = base_model();
        assert!(four.stripe_mttdl_hours() > two.stripe_mttdl_hours() * 1e3);
    }

    #[test]
    fn higher_failure_rate_lowers_mttdl() {
        let base = base_model();
        let risky = MttdlModel {
            block_failure_rate_per_hour: base.block_failure_rate_per_hour * 10.0,
            ..base
        };
        assert!(risky.stripe_mttdl_hours() < base.stripe_mttdl_hours());
    }

    #[test]
    fn replication_is_far_less_durable_than_rs_at_same_storage() {
        // 3-replication: width 3, tolerance 2.
        let replication = MttdlModel {
            stripe_width: 3,
            fault_tolerance: 2,
            ..base_model()
        };
        let rs = base_model();
        assert!(rs.stripe_mttdl_hours() > replication.stripe_mttdl_hours());
    }

    #[test]
    #[should_panic(expected = "repair times must be positive")]
    fn invalid_repair_time_panics() {
        let mut m = base_model();
        m.single_repair_hours = 0.0;
        m.stripe_mttdl_hours();
    }
}
