//! Machine fleet state.

use sm_types::{LoadVector, Location, MachineId};

/// A machine's availability state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MachineState {
    /// Serving normally.
    Up,
    /// Crashed or powered off unexpectedly.
    Failed,
    /// Undergoing planned maintenance (§4.2).
    Maintenance,
}

/// A physical machine known to the cluster manager.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Identifier.
    pub id: MachineId,
    /// Position in the fault-domain hierarchy.
    pub location: Location,
    /// Resource capacity available to containers.
    pub capacity: LoadVector,
    /// Whether the machine has local SSD/HDD (§2.2.6).
    pub has_storage: bool,
    /// Current availability.
    pub(crate) state: MachineState,
}

impl Machine {
    /// Creates an up machine.
    pub fn new(location: Location, capacity: LoadVector, has_storage: bool) -> Self {
        Self {
            id: location.machine,
            location,
            capacity,
            has_storage,
            state: MachineState::Up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{MachineId, RegionId};

    fn loc() -> Location {
        Location {
            region: RegionId(0),
            datacenter: 0,
            rack: 0,
            machine: MachineId(7),
        }
    }

    #[test]
    fn new_machine_is_up() {
        let m = Machine::new(loc(), LoadVector::zero(), true);
        assert_eq!(m.id, MachineId(7));
        assert!(m.has_storage);
    }
}
