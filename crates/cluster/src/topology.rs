//! Cluster topology: racks, machines and the switch hierarchy.
//!
//! The paper's Fig. 1 shows the relevant structure: machines sit in racks
//! behind top-of-rack (TOR) switches, which connect through an aggregation
//! switch. Because every block of a stripe is placed on a different rack,
//! every helper byte of a recovery crosses a TOR switch — that is exactly the
//! traffic the measurement study quantifies.

/// Identifier of a machine within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub usize);

/// Identifier of a rack within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub usize);

/// The static shape of the cluster: `racks × machines_per_rack` machines,
/// with machine `i` living in rack `i / machines_per_rack`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    racks: usize,
    machines_per_rack: usize,
}

impl Topology {
    /// Creates a topology with the given rack count and rack size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(racks: usize, machines_per_rack: usize) -> Self {
        assert!(racks > 0, "topology needs at least one rack");
        assert!(machines_per_rack > 0, "racks need at least one machine");
        Topology {
            racks,
            machines_per_rack,
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Machines per rack.
    pub fn machines_per_rack(&self) -> usize {
        self.machines_per_rack
    }

    /// Total machines in the cluster.
    pub fn machines(&self) -> usize {
        self.racks * self.machines_per_rack
    }

    /// The rack a machine lives in.
    ///
    /// # Panics
    ///
    /// Panics if the machine id is out of range.
    pub fn rack_of(&self, machine: MachineId) -> RackId {
        assert!(machine.0 < self.machines(), "machine id out of range");
        RackId(machine.0 / self.machines_per_rack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_and_rack_mapping() {
        let t = Topology::new(150, 20);
        assert_eq!(t.racks(), 150);
        assert_eq!(t.machines_per_rack(), 20);
        assert_eq!(t.machines(), 3000);
        assert_eq!(t.rack_of(MachineId(0)), RackId(0));
        assert_eq!(t.rack_of(MachineId(19)), RackId(0));
        assert_eq!(t.rack_of(MachineId(20)), RackId(1));
        assert_eq!(t.rack_of(MachineId(2999)), RackId(149));
    }

    #[test]
    fn machines_in_rack_enumeration() {
        let t = Topology::new(3, 4);
        let rack1: Vec<usize> = (0..t.machines())
            .filter(|&m| t.rack_of(MachineId(m)) == RackId(1))
            .collect();
        assert_eq!(rack1, vec![4, 5, 6, 7]);
        assert_eq!(t.machines(), 12);
    }

    #[test]
    fn cross_rack_detection() {
        let t = Topology::new(2, 3);
        assert_eq!(t.rack_of(MachineId(0)), t.rack_of(MachineId(2)));
        assert_ne!(t.rack_of(MachineId(0)), t.rack_of(MachineId(3)));
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_rejected() {
        Topology::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "machine id out of range")]
    fn out_of_range_machine_rejected() {
        Topology::new(2, 2).rack_of(MachineId(4));
    }
}
