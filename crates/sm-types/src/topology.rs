//! Fleet topology: regions, data centers, racks, machines.
//!
//! The paper places shard replicas across fault domains at all levels —
//! region, data center, rack (§5.1 soft goal 2) — so the topology model
//! exposes each machine's position in that hierarchy.

use crate::ids::{MachineId, RegionId};

/// A level of the fault-domain hierarchy, ordered from largest to
/// smallest blast radius.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultDomain {
    /// A geographic region.
    Region,
    /// A data center inside a region.
    DataCenter,
    /// A rack inside a data center.
    Rack,
    /// A single machine.
    Machine,
}

impl FaultDomain {
    /// All levels, largest first.
    pub const ALL: [FaultDomain; 4] = [
        FaultDomain::Region,
        FaultDomain::DataCenter,
        FaultDomain::Rack,
        FaultDomain::Machine,
    ];
}

/// A machine's coordinates in the fault-domain hierarchy.
///
/// Data-center and rack ids are globally unique (not per-region indices),
/// so equality at any level can be checked directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Location {
    /// Region the machine lives in.
    pub region: RegionId,
    /// Globally unique data-center id.
    pub datacenter: u32,
    /// Globally unique rack id.
    pub rack: u32,
    /// The machine itself.
    pub machine: MachineId,
}

impl Location {
    /// Returns the identifier of this location's domain at `level`.
    ///
    /// Identifiers from different levels must not be compared with each
    /// other; within one level they are unique.
    pub fn domain(&self, level: FaultDomain) -> u64 {
        match level {
            FaultDomain::Region => u64::from(self.region.raw()),
            FaultDomain::DataCenter => u64::from(self.datacenter),
            FaultDomain::Rack => u64::from(self.rack),
            FaultDomain::Machine => u64::from(self.machine.raw()),
        }
    }
}
