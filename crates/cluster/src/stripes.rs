//! Sampled stripes and the degradation census.
//!
//! The cluster stores tens of millions of RS-coded blocks; the simulator
//! keeps only aggregate per-machine block counts for traffic accounting,
//! but the §2.2 statistic — how many blocks of a degraded
//! stripe are missing at once — needs explicit stripe→machine placements.
//! A configurable sample of stripes is therefore placed explicitly and
//! censused periodically; the sample is large enough (default 20,000) that
//! the conditional distribution is stable.

use rand::Rng;

use pbrs_trace::stripe_failures::StripeDegradation;

use crate::placement::PlacementPolicy;
use crate::topology::MachineId;

/// A sampled stripe: which machine stores each of its blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledStripe {
    /// Machine holding block `i` of the stripe.
    pub machines: Vec<MachineId>,
}

/// The set of explicitly placed stripes used for degradation statistics.
#[derive(Debug, Clone, Default)]
pub struct StripeSample {
    stripes: Vec<SampledStripe>,
    /// Accumulated census results over the whole run.
    degradation: StripeDegradation,
    censuses: u64,
}

impl StripeSample {
    /// Places `count` stripes of `width` blocks each using `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `width` stripes cannot be placed rack-disjointly on the
    /// policy's topology — callers validate this up front through
    /// [`crate::config::SimConfig::validate`], which surfaces the same
    /// constraint as a typed error.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        policy: &PlacementPolicy,
        count: usize,
        width: usize,
    ) -> Self {
        let stripes = (0..count)
            .map(|_| SampledStripe {
                machines: policy
                    .place_stripe(rng, width)
                    // pbrs-lint: allow(panic-hygiene) -- stripe width was validated against the topology at simulation build time
                    .expect("stripe width validated against the topology"),
            })
            .collect();
        StripeSample {
            stripes,
            degradation: StripeDegradation::default(),
            censuses: 0,
        }
    }

    /// Number of sampled stripes.
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// `true` if no stripes are sampled (the census is then skipped).
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Runs one census: for every sampled stripe, counts how many of its
    /// blocks sit on currently-unavailable machines and records degraded
    /// stripes into the running distribution.
    pub fn census(&mut self, machine_down: &[bool]) {
        for stripe in &self.stripes {
            let missing = stripe.machines.iter().filter(|m| machine_down[m.0]).count();
            self.degradation.record(missing);
        }
        self.censuses += 1;
    }

    /// The accumulated degradation distribution.
    pub fn degradation(&self) -> &StripeDegradation {
        &self.degradation
    }

    /// Number of censuses taken.
    pub fn censuses(&self) -> u64 {
        self.censuses
    }

    /// The sampled stripes (used by tests).
    pub fn stripes(&self) -> &[SampledStripe] {
        &self.stripes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(count: usize) -> StripeSample {
        let policy = PlacementPolicy::new(Topology::new(20, 10));
        let mut rng = StdRng::seed_from_u64(11);
        StripeSample::generate(&mut rng, &policy, count, 14)
    }

    #[test]
    fn generation_places_requested_stripes() {
        let s = sample(100);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert_eq!(s.censuses(), 0);
        assert!(s.stripes().iter().all(|st| st.machines.len() == 14));
    }

    #[test]
    fn census_counts_degraded_stripes_only() {
        let mut s = sample(50);
        // No machines down: nothing recorded.
        let all_up = vec![false; 200];
        s.census(&all_up);
        assert_eq!(s.degradation().total(), 0);
        assert_eq!(s.censuses(), 1);

        // Take down one machine: every sampled stripe using it has exactly
        // one missing block.
        let victim = s.stripes()[0].machines[3];
        let mut down = vec![false; 200];
        down[victim.0] = true;
        s.census(&down);
        let using_victim = s
            .stripes()
            .iter()
            .filter(|st| st.machines.contains(&victim))
            .count() as u64;
        assert_eq!(s.degradation().total(), using_victim);
        assert_eq!(s.degradation().one_missing, using_victim);
        assert_eq!(s.degradation().two_missing, 0);
    }

    #[test]
    fn census_detects_multi_block_degradation() {
        let mut s = sample(20);
        // Take down two machines of the same stripe.
        let m0 = s.stripes()[0].machines[0];
        let m1 = s.stripes()[0].machines[1];
        let mut down = vec![false; 200];
        down[m0.0] = true;
        down[m1.0] = true;
        s.census(&down);
        assert!(s.degradation().two_missing >= 1);
    }

    #[test]
    fn empty_sample_is_harmless() {
        let mut s = StripeSample::default();
        assert!(s.is_empty());
        s.census(&[false; 10]);
        assert_eq!(s.degradation().total(), 0);
    }
}
