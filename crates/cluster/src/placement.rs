//! Rack-disjoint block placement over the simulated topology.
//!
//! "The 14 blocks belonging to a particular stripe are placed on 14
//! different (randomly chosen) machines. In order to secure the data against
//! rack-failures, these machines are chosen from different racks." (§2.1)
//!
//! The placement *model* lives in the shared `pbrs-placement` crate — the
//! same [`RackMap`] / policy machinery the block store places real chunks
//! with — and this module is only the adapter binding it to the simulator's
//! [`Topology`] and [`MachineId`]s. Because of the rack-disjoint policy,
//! every helper block read during a recovery is on a different rack from
//! the rebuilding node, so all recovery traffic crosses the TOR switches.

use rand::Rng;

use pbrs_placement::{place_stripe, PlacementPolicy as Policy};
pub use pbrs_placement::{PlacementError, RackMap};

use crate::topology::{MachineId, Topology};

/// The rack-disjoint placement policy for a simulated topology.
#[derive(Debug, Clone)]
pub struct PlacementPolicy {
    racks: RackMap,
}

impl PlacementPolicy {
    /// Creates the policy for a topology.
    pub fn new(topology: &Topology) -> Self {
        PlacementPolicy {
            racks: RackMap::uniform(topology.racks(), topology.machines_per_rack()),
        }
    }

    /// Places the `width` blocks of one stripe on `width` machines in
    /// `width` distinct racks.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::WidthExceedsRacks`] when `width` exceeds
    /// the number of racks (also surfaced up front by
    /// [`crate::config::SimConfig::validate`]).
    pub fn place_stripe<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        width: usize,
    ) -> Result<Vec<MachineId>, PlacementError> {
        let machines = place_stripe(&self.racks, Policy::RackDisjoint, width, rng.random(), 0)?;
        Ok(machines.into_iter().map(MachineId).collect())
    }

    /// Checks that a placement is rack-disjoint (used by tests and debug
    /// assertions).
    pub fn is_rack_disjoint(&self, placement: &[MachineId]) -> bool {
        let disks: Vec<usize> = placement.iter().map(|&m| m.0).collect();
        self.racks.is_rack_disjoint(&disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn placements_are_rack_disjoint_and_in_range() {
        let policy = PlacementPolicy::new(&Topology::new(20, 10));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let placement = policy.place_stripe(&mut rng, 14).unwrap();
            assert_eq!(placement.len(), 14);
            assert!(policy.is_rack_disjoint(&placement));
            assert!(placement.iter().all(|m| m.0 < 200));
            // Distinct machines follow from distinct racks.
            let mut ids: Vec<usize> = placement.iter().map(|m| m.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 14);
        }
    }

    #[test]
    fn placement_uses_many_racks_over_time() {
        let topology = Topology::new(30, 5);
        let policy = PlacementPolicy::new(&topology);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 30];
        for _ in 0..100 {
            for m in policy.place_stripe(&mut rng, 14).unwrap() {
                seen[topology.rack_of(m).0] = true;
            }
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 29,
            "placement should spread across racks"
        );
    }

    #[test]
    fn non_disjoint_placement_detected() {
        let policy = PlacementPolicy::new(&Topology::new(4, 4));
        assert!(!policy.is_rack_disjoint(&[MachineId(0), MachineId(1)]));
        assert!(policy.is_rack_disjoint(&[MachineId(0), MachineId(5)]));
    }

    #[test]
    fn too_wide_stripe_is_a_typed_error_not_a_panic() {
        let policy = PlacementPolicy::new(&Topology::new(4, 4));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            policy.place_stripe(&mut rng, 5),
            Err(PlacementError::WidthExceedsRacks { width: 5, racks: 4 })
        );
    }
}
