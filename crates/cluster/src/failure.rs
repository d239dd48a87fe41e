//! Machine fleet state: who is up, who is down, and how many RS-coded
//! blocks each machine holds.
//!
//! The unavailability *process* itself (how often machines go down, for how
//! long) lives in [`crate::unavailability`]; this module tracks the
//! resulting state inside the simulator, including the incarnation counters
//! that guard against stale detection/return events when a machine fails
//! again while a previous outage is still being processed.

use rand::Rng;

use crate::distributions;
use crate::topology::MachineId;

/// State of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineState {
    /// Whether the machine is currently unavailable.
    pub down: bool,
    /// Simulation time (minutes) at which the current outage started
    /// (meaningless when `down` is false).
    pub down_since: f64,
    /// Incremented every time the machine goes down; detection and return
    /// events carry the incarnation they belong to.
    pub incarnation: u64,
    /// Number of RS-coded blocks stored on the machine.
    pub rs_blocks: u64,
}

/// The whole fleet.
#[derive(Debug, Clone)]
pub struct MachineFleet {
    states: Vec<MachineState>,
}

impl MachineFleet {
    /// Creates a fleet of `machines` machines, each holding a
    /// Poisson-distributed number of RS blocks around `mean_rs_blocks`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, machines: usize, mean_rs_blocks: f64) -> Self {
        let states = (0..machines)
            .map(|_| MachineState {
                down: false,
                down_since: 0.0,
                incarnation: 0,
                rs_blocks: distributions::poisson(rng, mean_rs_blocks),
            })
            .collect();
        MachineFleet { states }
    }

    /// Marks a machine as down at time `now` (minutes) and returns the new
    /// incarnation number. Returns `None` if the machine was already down
    /// (overlapping events are ignored, as in the real cluster's monitoring).
    pub fn mark_down(&mut self, machine: MachineId, now: f64) -> Option<u64> {
        let state = &mut self.states[machine.0];
        if state.down {
            return None;
        }
        state.down = true;
        state.down_since = now;
        state.incarnation += 1;
        Some(state.incarnation)
    }

    /// Marks a machine as up again, if `incarnation` matches its current
    /// outage. Returns `true` if the machine actually transitioned.
    pub fn mark_up(&mut self, machine: MachineId, incarnation: u64) -> bool {
        let state = &mut self.states[machine.0];
        if state.down && state.incarnation == incarnation {
            state.down = false;
            true
        } else {
            false
        }
    }

    /// `true` if the machine is currently down with the given incarnation.
    pub fn is_down_with(&self, machine: MachineId, incarnation: u64) -> bool {
        let state = self.states[machine.0];
        state.down && state.incarnation == incarnation
    }

    /// Number of machines currently down.
    pub fn down_count(&self) -> usize {
        self.states.iter().filter(|s| s.down).count()
    }

    /// Down-mask that only counts machines whose current outage started less
    /// than `heal_minutes` ago. Machines unavailable for longer than that
    /// (in particular permanently failed ones) have had their blocks rebuilt
    /// elsewhere, so their stripes are no longer degraded — this is the mask
    /// the stripe census uses.
    pub fn down_mask_recent(&self, now: f64, heal_minutes: f64) -> Vec<bool> {
        self.states
            .iter()
            .map(|s| s.down && now - s.down_since < heal_minutes)
            .collect()
    }

    /// RS blocks stored on one machine.
    pub fn rs_blocks(&self, machine: MachineId) -> u64 {
        self.states[machine.0].rs_blocks
    }

    /// Total RS blocks across the fleet.
    pub fn total_rs_blocks(&self) -> u64 {
        self.states.iter().map(|s| s.rs_blocks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(n: usize) -> MachineFleet {
        let mut rng = StdRng::seed_from_u64(5);
        MachineFleet::new(&mut rng, n, 1000.0)
    }

    #[test]
    fn construction_distributes_blocks() {
        let f = fleet(100);
        assert_eq!(f.states.len(), 100);
        let total = f.total_rs_blocks();
        assert!(total > 90_000 && total < 110_000, "{total}");
        // Every machine starts up with zero incarnations.
        assert!((0..100).all(|i| !f.states[i].down));
        assert_eq!(f.down_count(), 0);
        assert_eq!(f.states[3].incarnation, 0);
    }

    #[test]
    fn down_up_cycle_with_incarnations() {
        let mut f = fleet(4);
        let m = MachineId(2);
        let inc1 = f.mark_down(m, 100.0).unwrap();
        assert_eq!(inc1, 1);
        assert!(f.states[m.0].down);
        assert!(f.is_down_with(m, 1));
        assert!(!f.is_down_with(m, 0));
        assert_eq!(f.down_count(), 1);
        assert!(f.down_mask_recent(100.0, f64::INFINITY)[2]);

        // Overlapping down event is ignored.
        assert_eq!(f.mark_down(m, 120.0), None);
        assert_eq!(f.states[m.0].down_since, 100.0);

        // Wrong incarnation does not bring the machine up.
        assert!(!f.mark_up(m, 0));
        assert!(f.states[m.0].down);
        assert!(f.mark_up(m, 1));
        assert!(!f.states[m.0].down);
        // Second up with the same incarnation is a no-op.
        assert!(!f.mark_up(m, 1));

        // A new outage gets a new incarnation.
        let inc2 = f.mark_down(m, 500.0).unwrap();
        assert_eq!(inc2, 2);
        assert_eq!(f.states[m.0].down_since, 500.0);
    }

    #[test]
    fn recent_mask_heals_long_outages() {
        let mut f = fleet(3);
        f.mark_down(MachineId(0), 0.0);
        f.mark_down(MachineId(1), 900.0);
        // At t=1000 with a 6-hour (360-minute) healing horizon, machine 0's
        // blocks have been rebuilt elsewhere but machine 1 is still degraded.
        assert_eq!(f.down_mask_recent(1000.0, 360.0), vec![false, true, false]);
        // With no healing horizon every down machine counts.
        assert_eq!(
            f.down_mask_recent(1000.0, f64::INFINITY),
            vec![true, true, false]
        );
    }

    #[test]
    fn block_counts_are_stable() {
        let f = fleet(10);
        let before: Vec<u64> = (0..10).map(|i| f.rs_blocks(MachineId(i))).collect();
        let mut f2 = f.clone();
        f2.mark_down(MachineId(0), 1.0);
        let after: Vec<u64> = (0..10).map(|i| f2.rs_blocks(MachineId(i))).collect();
        assert_eq!(before, after, "state transitions never change block counts");
    }
}
