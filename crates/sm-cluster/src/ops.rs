//! Container lifecycle operations and maintenance events.
//!
//! The planned/unplanned distinction matters: at Facebook, planned
//! container stops are ≈1000× more frequent than unplanned failures
//! (Figure 1), which is why treating planned events as failures
//! amplifies unavailability so badly (§1.1).

use sm_sim::SimTime;
use sm_types::{ContainerId, MachineId};

/// Identifier of a pending/approved container operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

/// What the operation does to the container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Start a new container.
    Start,
    /// Stop the container permanently (e.g. auto-scaler shrinking).
    Stop,
    /// Restart in place (e.g. binary upgrade).
    Restart,
    /// Move the container to another machine.
    Move {
        /// Destination machine.
        to: MachineId,
    },
}

/// Why the operation was requested.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpReason {
    /// Rolling binary upgrade — negotiable (§4.1).
    Upgrade,
    /// Auto-scaler adjusting container count — negotiable.
    Autoscale,
    /// Hardware maintenance or kernel upgrade — non-negotiable (§4.2);
    /// the cluster manager only gives advance notice.
    Maintenance,
    /// Operator-initiated — negotiable.
    Manual,
}

impl OpReason {
    /// Whether the cluster manager will wait for TaskController approval.
    pub(crate) fn is_negotiable(self) -> bool {
        !matches!(self, OpReason::Maintenance)
    }
}

/// A pending container lifecycle operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ContainerOp {
    /// Identifier, unique per cluster manager.
    pub id: OpId,
    /// Target container.
    pub container: ContainerId,
    /// What to do.
    pub kind: OpKind,
    /// Why.
    pub reason: OpReason,
}

/// The impact of a maintenance event on affected machines (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintenanceImpact {
    /// Short network loss (e.g. rack switch maintenance); state survives.
    NetworkLoss,
    /// Processes restart; in-memory state is lost, disks survive.
    RuntimeStateLoss,
    /// Machine is re-imaged; all local state is lost.
    FullStateLoss,
    /// Machine is decommissioned and never comes back.
    FullMachineLoss,
}

/// An announced maintenance event with start/end times (§4.2).
///
/// Non-negotiable: SM cannot delay it, only prepare (drain or demote
/// primaries off the affected machines before `start`).
#[derive(Clone, Debug)]
pub struct MaintenanceEvent {
    /// Affected machines.
    pub machines: Vec<MachineId>,
    /// What the affected machines lose.
    pub impact: MaintenanceImpact,
    /// When the event begins.
    pub start: SimTime,
    /// When the machines come back (ignored for
    /// [`MaintenanceImpact::FullMachineLoss`]).
    pub end: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiability_per_reason() {
        assert!(OpReason::Upgrade.is_negotiable());
        assert!(OpReason::Autoscale.is_negotiable());
        assert!(OpReason::Manual.is_negotiable());
        assert!(!OpReason::Maintenance.is_negotiable());
    }

    #[test]
    fn maintenance_event_fields() {
        let ev = MaintenanceEvent {
            machines: vec![MachineId(1), MachineId(2)],
            impact: MaintenanceImpact::NetworkLoss,
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(160),
        };
        assert_eq!(ev.machines.len(), 2);
        assert!(ev.start < ev.end);
    }
}
