//! Containers (Twine "tasks") hosting application servers.

use sm_types::{AppId, ContainerId, MachineId};

/// A container's lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ContainerState {
    /// Serving traffic.
    Running,
    /// Temporarily down for a planned operation (restart/move/upgrade).
    Restarting,
    /// Down due to an unplanned failure, awaiting failover.
    Failed,
    /// Permanently stopped.
    Stopped,
}

/// A container deployed by the cluster manager.
#[derive(Clone, Debug)]
pub struct Container {
    /// Identifier; the application server inside shares the same number.
    pub id: ContainerId,
    /// Owning application (job).
    pub app: AppId,
    /// Machine currently hosting the container.
    pub machine: MachineId,
    /// Lifecycle state.
    pub(crate) state: ContainerState,
    /// Binary version; rolling upgrades bump this.
    pub version: u32,
}

impl Container {
    /// Creates a running container.
    pub fn new(id: ContainerId, app: AppId, machine: MachineId, version: u32) -> Self {
        Self {
            id,
            app,
            machine,
            state: ContainerState::Running,
            version,
        }
    }

    /// True if the container is serving.
    pub(crate) fn is_running(&self) -> bool {
        self.state == ContainerState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_flags() {
        let mut c = Container::new(ContainerId(1), AppId(2), MachineId(3), 1);
        assert!(c.is_running());
        c.state = ContainerState::Restarting;
        assert!(!c.is_running());
        c.state = ContainerState::Failed;
        assert!(!c.is_running());
    }
}
