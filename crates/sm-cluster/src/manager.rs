//! The per-region cluster manager.
//!
//! One [`ClusterManager`] instance runs per region, mirroring Twine's
//! regional scope (§2.2.2) — global coordination across regions is
//! exactly what SM's TaskController adds on top (§4.1). The manager is a
//! synchronous state machine: negotiable operations sit in a pending set
//! until something (normally the TaskController) approves them via
//! [`ClusterManager::begin_op`]; the caller schedules the returned
//! completion time and later calls [`ClusterManager::complete_op`].

use crate::container::{Container, ContainerState};
use crate::machine::{Machine, MachineState};
use crate::ops::{ContainerOp, MaintenanceEvent, MaintenanceImpact, OpId, OpKind, OpReason};
use sm_sim::{SimDuration, SimTime};
use sm_types::{AppId, ContainerId, MachineId, SmError};
use std::collections::BTreeMap;

/// Counts of container stops by cause, for Figure 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StopCounters {
    /// Stops from planned events (upgrades, maintenance, moves).
    pub planned: u64,
    /// Stops from unplanned failures (crashes, machine loss).
    pub unplanned: u64,
}

/// A state change the embedding world may need to react to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmEvent {
    /// A container stopped serving.
    ContainerDown {
        /// Which container.
        container: ContainerId,
        /// True for planned operations, false for failures.
        planned: bool,
    },
    /// A container resumed serving (possibly on a new machine or with a
    /// new binary version).
    ContainerUp {
        /// Which container.
        container: ContainerId,
    },
    /// A container was permanently removed.
    ContainerGone {
        /// Which container.
        container: ContainerId,
    },
}

/// An approved operation in flight: the container is down and will be
/// back (if at all) at `resume_at`.
#[derive(Clone, Copy, Debug)]
pub struct OpStarted {
    /// The operation.
    pub op: ContainerOp,
    /// When to call [`ClusterManager::complete_op`]; `None` for stops,
    /// which never complete.
    pub resume_at: Option<SimTime>,
}

/// A Twine-like regional cluster manager.
pub struct ClusterManager {
    machines: BTreeMap<MachineId, Machine>,
    containers: BTreeMap<ContainerId, Container>,
    target_versions: BTreeMap<AppId, u32>,
    pending: BTreeMap<OpId, ContainerOp>,
    executing: BTreeMap<OpId, ContainerOp>,
    announced_maintenance: Vec<MaintenanceEvent>,
    counters: StopCounters,
    restart_duration: SimDuration,
    next_op: u64,
}

impl ClusterManager {
    /// Creates a region's manager with the given container restart
    /// duration (downtime of a planned restart). Its machines carry the
    /// region; the embedding world keys managers by it.
    pub fn new(restart_duration: SimDuration) -> Self {
        Self {
            machines: BTreeMap::new(),
            containers: BTreeMap::new(),
            target_versions: BTreeMap::new(),
            pending: BTreeMap::new(),
            executing: BTreeMap::new(),
            announced_maintenance: Vec::new(),
            counters: StopCounters::default(),
            restart_duration,
            next_op: 0,
        }
    }

    /// Registers a machine.
    pub fn add_machine(&mut self, machine: Machine) {
        self.machines.insert(machine.id, machine);
    }

    /// Deploys a running container for `app` on `machine`.
    ///
    /// Container ids are caller-allocated so they can be globally unique
    /// across regional managers.
    pub fn deploy(
        &mut self,
        id: ContainerId,
        app: AppId,
        machine: MachineId,
        version: u32,
    ) -> Result<(), SmError> {
        if self.containers.contains_key(&id) {
            return Err(SmError::conflict(format!("{id} exists")));
        }
        if !self.machines.contains_key(&machine) {
            return Err(SmError::not_found(machine));
        }
        self.containers
            .insert(id, Container::new(id, app, machine, version));
        self.target_versions.entry(app).or_insert(version);
        Ok(())
    }

    /// Containers of `app`, in id order.
    pub fn containers_of(&self, app: AppId) -> Vec<&Container> {
        self.containers.values().filter(|c| c.app == app).collect()
    }

    /// Stop counters for Figure 1.
    pub fn counters(&self) -> StopCounters {
        self.counters
    }

    // ---- Negotiable operations (§4.1) ----

    /// Queues a negotiable operation for one container.
    pub fn request_op(
        &mut self,
        container: ContainerId,
        kind: OpKind,
        reason: OpReason,
    ) -> Result<OpId, SmError> {
        if !self.containers.contains_key(&container) {
            return Err(SmError::not_found(container));
        }
        debug_assert!(
            reason.is_negotiable(),
            "use maintenance APIs for non-negotiable"
        );
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.pending.insert(
            id,
            ContainerOp {
                id,
                container,
                kind,
                reason,
            },
        );
        Ok(id)
    }

    /// Starts a rolling upgrade of `app` to `new_version`: queues one
    /// negotiable restart per running container and returns the op ids.
    pub fn start_rolling_upgrade(&mut self, app: AppId, new_version: u32) -> Vec<OpId> {
        self.target_versions.insert(app, new_version);
        let targets: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.app == app && c.is_running())
            .map(|c| c.id)
            .collect();
        targets
            .into_iter()
            .filter_map(|c| self.request_op(c, OpKind::Restart, OpReason::Upgrade).ok())
            .collect()
    }

    /// The operations awaiting TaskController approval — the batch Twine
    /// sends in each TaskControl notification.
    pub fn pending_ops(&self) -> Vec<ContainerOp> {
        self.pending.values().copied().collect()
    }

    /// Number of approved operations still executing.
    pub fn executing_count(&self) -> usize {
        self.executing.len()
    }

    /// Executes an approved pending operation: the container goes down
    /// now and (for restarts/moves) comes back after the restart
    /// duration. The caller must invoke [`Self::complete_op`] at
    /// `resume_at`.
    pub fn begin_op(&mut self, op_id: OpId, now: SimTime) -> Result<OpStarted, SmError> {
        let op = self
            .pending
            .remove(&op_id)
            .ok_or_else(|| SmError::not_found(format!("op {op_id:?}")))?;
        let container = self
            .containers
            .get_mut(&op.container)
            .ok_or_else(|| SmError::not_found(op.container))?;
        let resume_at = match op.kind {
            OpKind::Stop => {
                container.state = ContainerState::Stopped;
                self.counters.planned += 1;
                None
            }
            OpKind::Restart | OpKind::Move { .. } => {
                container.state = ContainerState::Restarting;
                self.counters.planned += 1;
                Some(now + self.restart_duration)
            }
            OpKind::Start => Some(now + self.restart_duration),
        };
        self.executing.insert(op_id, op);
        Ok(OpStarted { op, resume_at })
    }

    /// Completes an executing operation: restarted containers come back
    /// running at the app's target version; moved containers land on the
    /// destination machine. One whose machine failed meanwhile stays
    /// down there — `ContainerDown`, unplanned — until
    /// [`Self::recover_machine`] brings it back.
    pub fn complete_op(&mut self, op_id: OpId) -> Result<CmEvent, SmError> {
        let op = self
            .executing
            .remove(&op_id)
            .ok_or_else(|| SmError::not_found(format!("op {op_id:?}")))?;
        let target_version = self
            .containers
            .get(&op.container)
            .map(|c| *self.target_versions.get(&c.app).unwrap_or(&c.version));
        let container = self
            .containers
            .get_mut(&op.container)
            .ok_or_else(|| SmError::not_found(op.container))?;
        match op.kind {
            OpKind::Stop => {
                self.containers.remove(&op.container);
                return Ok(CmEvent::ContainerGone {
                    container: op.container,
                });
            }
            OpKind::Restart => {
                if let Some(v) = target_version {
                    container.version = v;
                }
            }
            OpKind::Move { to } => container.machine = to,
            OpKind::Start => {}
        }
        let machine = self.machines.get(&container.machine);
        if machine.is_some_and(|m| m.state == MachineState::Failed) {
            container.state = ContainerState::Failed;
            return Ok(CmEvent::ContainerDown {
                container: op.container,
                planned: false,
            });
        }
        container.state = ContainerState::Running;
        Ok(CmEvent::ContainerUp {
            container: op.container,
        })
    }

    /// True when a rolling upgrade of `app` has fully converged: no
    /// pending or executing ops and every container runs the target
    /// version.
    pub fn upgrade_finished(&self, app: AppId) -> bool {
        let target = match self.target_versions.get(&app) {
            Some(v) => *v,
            None => return true,
        };
        let ops_done = self
            .pending
            .values()
            .chain(self.executing.values())
            .all(|op| {
                self.containers
                    .get(&op.container)
                    .map(|c| c.app != app)
                    .unwrap_or(true)
            });
        ops_done
            && self
                .containers
                .values()
                .filter(|c| c.app == app)
                .all(|c| c.version == target && c.is_running())
    }

    // ---- Unplanned failures ----

    /// Crashes one container (unplanned). Returns the down event.
    pub fn crash_container(&mut self, id: ContainerId) -> Result<CmEvent, SmError> {
        let container = self
            .containers
            .get_mut(&id)
            .ok_or_else(|| SmError::not_found(id))?;
        container.state = ContainerState::Failed;
        self.counters.unplanned += 1;
        Ok(CmEvent::ContainerDown {
            container: id,
            planned: false,
        })
    }

    /// Fails a machine (unplanned): all its running containers fail.
    /// Returns the affected container ids.
    pub fn fail_machine(&mut self, machine: MachineId) -> Result<Vec<ContainerId>, SmError> {
        let m = self
            .machines
            .get_mut(&machine)
            .ok_or_else(|| SmError::not_found(machine))?;
        m.state = MachineState::Failed;
        let mut affected = Vec::new();
        for c in self.containers.values_mut() {
            if c.machine == machine && c.is_running() {
                c.state = ContainerState::Failed;
                self.counters.unplanned += 1;
                affected.push(c.id);
            }
        }
        Ok(affected)
    }

    /// Recovers a failed machine; its failed containers restart in place.
    /// Returns the containers that came back.
    pub fn recover_machine(&mut self, machine: MachineId) -> Result<Vec<ContainerId>, SmError> {
        let m = self
            .machines
            .get_mut(&machine)
            .ok_or_else(|| SmError::not_found(machine))?;
        m.state = MachineState::Up;
        let mut recovered = Vec::new();
        for c in self.containers.values_mut() {
            if c.machine == machine && c.state == ContainerState::Failed {
                c.state = ContainerState::Running;
                recovered.push(c.id);
            }
        }
        Ok(recovered)
    }

    /// Fails all machines in a region at once — the whole-region outage
    /// of §8.3. Returns affected containers.
    pub fn fail_all_machines(&mut self) -> Vec<ContainerId> {
        let ids: Vec<MachineId> = self.machines.keys().copied().collect();
        let mut affected = Vec::new();
        for id in ids {
            affected.extend(self.fail_machine(id).unwrap_or_default());
        }
        affected
    }

    /// Recovers all failed machines in the region.
    pub fn recover_all_machines(&mut self) -> Vec<ContainerId> {
        let ids: Vec<MachineId> = self.machines.keys().copied().collect();
        let mut recovered = Vec::new();
        for id in ids {
            recovered.extend(self.recover_machine(id).unwrap_or_default());
        }
        recovered
    }

    // ---- Non-negotiable maintenance (§4.2) ----

    /// Announces a maintenance event in advance, so SM can prepare
    /// (drain/demote) before [`Self::begin_maintenance`].
    pub fn announce_maintenance(&mut self, event: MaintenanceEvent) {
        self.announced_maintenance.push(event);
    }

    /// Begins announced maintenance on `machines` (the world calls this
    /// at the event's start time). Containers on affected machines stop
    /// serving; these count as planned stops. Returns affected containers.
    pub fn begin_maintenance(
        &mut self,
        machines: &[MachineId],
        impact: MaintenanceImpact,
    ) -> Vec<ContainerId> {
        let mut affected = Vec::new();
        for &mid in machines {
            if let Some(m) = self.machines.get_mut(&mid) {
                m.state = if impact == MaintenanceImpact::FullMachineLoss {
                    MachineState::Failed
                } else {
                    MachineState::Maintenance
                };
            }
            for c in self.containers.values_mut() {
                if c.machine == mid && c.is_running() {
                    c.state = ContainerState::Restarting;
                    self.counters.planned += 1;
                    affected.push(c.id);
                }
            }
        }
        affected
    }

    /// Ends maintenance: machines return to service and their containers
    /// resume (except after full machine loss). Returns resumed
    /// containers.
    pub fn end_maintenance(
        &mut self,
        machines: &[MachineId],
        impact: MaintenanceImpact,
    ) -> Vec<ContainerId> {
        let mut resumed = Vec::new();
        if impact == MaintenanceImpact::FullMachineLoss {
            return resumed;
        }
        for &mid in machines {
            if let Some(m) = self.machines.get_mut(&mid) {
                m.state = MachineState::Up;
            }
            for c in self.containers.values_mut() {
                if c.machine == mid && c.state == ContainerState::Restarting {
                    c.state = ContainerState::Running;
                    resumed.push(c.id);
                }
            }
        }
        resumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{LoadVector, Location, RegionId};

    fn cm_with(n_machines: u32) -> ClusterManager {
        let mut cm = ClusterManager::new(SimDuration::from_secs(30));
        for i in 0..n_machines {
            cm.add_machine(Machine::new(
                Location {
                    region: RegionId(0),
                    datacenter: 0,
                    rack: i / 4,
                    machine: MachineId(i),
                },
                LoadVector::zero(),
                false,
            ));
        }
        cm
    }

    /// True if the container is running on a serving machine.
    fn serving(cm: &ClusterManager, id: ContainerId) -> bool {
        cm.containers.get(&id).is_some_and(|c| {
            c.is_running()
                && cm
                    .machines
                    .get(&c.machine)
                    .is_some_and(|m| m.state == MachineState::Up)
        })
    }

    #[test]
    fn deploy_and_lookup() {
        let mut cm = cm_with(2);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        cm.deploy(ContainerId(1), AppId(1), MachineId(1), 1)
            .unwrap();
        assert!(serving(&cm, ContainerId(0)));
        assert_eq!(cm.containers_of(AppId(1)).len(), 2);
        assert!(cm
            .deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .is_err());
        assert!(cm
            .deploy(ContainerId(9), AppId(1), MachineId(99), 1)
            .is_err());
    }

    #[test]
    fn rolling_upgrade_lifecycle() {
        let mut cm = cm_with(3);
        for i in 0..3 {
            cm.deploy(ContainerId(i), AppId(1), MachineId(i), 1)
                .unwrap();
        }
        let ops = cm.start_rolling_upgrade(AppId(1), 2);
        assert_eq!(ops.len(), 3);
        assert_eq!(cm.pending_ops().len(), 3);
        assert!(!cm.upgrade_finished(AppId(1)));

        let now = SimTime::from_secs(10);
        let started = cm.begin_op(ops[0], now).unwrap();
        assert_eq!(started.resume_at, Some(SimTime::from_secs(40)));
        assert!(!serving(&cm, ContainerId(0)));
        assert_eq!(cm.pending_ops().len(), 2);
        assert_eq!(cm.executing_count(), 1);

        let ev = cm.complete_op(ops[0]).unwrap();
        assert_eq!(
            ev,
            CmEvent::ContainerUp {
                container: ContainerId(0)
            }
        );
        assert!(serving(&cm, ContainerId(0)));
        assert_eq!(cm.containers[&ContainerId(0)].version, 2);
        assert!(!cm.upgrade_finished(AppId(1)), "two containers remain");

        for &op in &ops[1..] {
            cm.begin_op(op, now).unwrap();
            cm.complete_op(op).unwrap();
        }
        assert!(cm.upgrade_finished(AppId(1)));
        assert_eq!(cm.counters().planned, 3);
        assert_eq!(cm.counters().unplanned, 0);
    }

    #[test]
    fn begin_op_requires_pending() {
        let mut cm = cm_with(1);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        assert!(cm.begin_op(OpId(99), SimTime::ZERO).is_err());
        let op = cm
            .request_op(ContainerId(0), OpKind::Restart, OpReason::Manual)
            .unwrap();
        cm.begin_op(op, SimTime::ZERO).unwrap();
        // Double begin fails; op moved to executing.
        assert!(cm.begin_op(op, SimTime::ZERO).is_err());
    }

    #[test]
    fn stop_removes_container() {
        let mut cm = cm_with(1);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        let op = cm
            .request_op(ContainerId(0), OpKind::Stop, OpReason::Autoscale)
            .unwrap();
        let started = cm.begin_op(op, SimTime::ZERO).unwrap();
        assert_eq!(started.resume_at, None);
        let ev = cm.complete_op(op).unwrap();
        assert_eq!(
            ev,
            CmEvent::ContainerGone {
                container: ContainerId(0)
            }
        );
        assert!(!cm.containers.contains_key(&ContainerId(0)));
    }

    #[test]
    fn move_changes_machine() {
        let mut cm = cm_with(2);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        let op = cm
            .request_op(
                ContainerId(0),
                OpKind::Move { to: MachineId(1) },
                OpReason::Manual,
            )
            .unwrap();
        cm.begin_op(op, SimTime::ZERO).unwrap();
        cm.complete_op(op).unwrap();
        assert_eq!(cm.containers[&ContainerId(0)].machine, MachineId(1));
        assert!(serving(&cm, ContainerId(0)));
    }

    #[test]
    fn machine_failure_and_recovery() {
        let mut cm = cm_with(2);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        cm.deploy(ContainerId(1), AppId(1), MachineId(1), 1)
            .unwrap();
        let affected = cm.fail_machine(MachineId(0)).unwrap();
        assert_eq!(affected, vec![ContainerId(0)]);
        assert!(!serving(&cm, ContainerId(0)));
        assert!(serving(&cm, ContainerId(1)));
        assert_eq!(cm.counters().unplanned, 1);

        let recovered = cm.recover_machine(MachineId(0)).unwrap();
        assert_eq!(recovered, vec![ContainerId(0)]);
        assert!(serving(&cm, ContainerId(0)));
    }

    #[test]
    fn region_wide_outage() {
        let mut cm = cm_with(4);
        for i in 0..4 {
            cm.deploy(ContainerId(i), AppId(1), MachineId(i), 1)
                .unwrap();
        }
        let affected = cm.fail_all_machines();
        assert_eq!(affected.len(), 4);
        assert!((0..4).all(|i| !serving(&cm, ContainerId(i))));
        let recovered = cm.recover_all_machines();
        assert_eq!(recovered.len(), 4);
        assert!((0..4).all(|i| serving(&cm, ContainerId(i))));
    }

    #[test]
    fn maintenance_counts_as_planned() {
        let mut cm = cm_with(2);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        cm.announce_maintenance(MaintenanceEvent {
            machines: vec![MachineId(0)],
            impact: MaintenanceImpact::NetworkLoss,
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
        });
        let affected = cm.begin_maintenance(&[MachineId(0)], MaintenanceImpact::NetworkLoss);
        assert_eq!(affected, vec![ContainerId(0)]);
        assert!(!serving(&cm, ContainerId(0)));
        assert_eq!(cm.counters().planned, 1);

        let resumed = cm.end_maintenance(&[MachineId(0)], MaintenanceImpact::NetworkLoss);
        assert_eq!(resumed, vec![ContainerId(0)]);
        assert!(serving(&cm, ContainerId(0)));
    }

    #[test]
    fn full_machine_loss_never_resumes() {
        let mut cm = cm_with(1);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        cm.begin_maintenance(&[MachineId(0)], MaintenanceImpact::FullMachineLoss);
        let resumed = cm.end_maintenance(&[MachineId(0)], MaintenanceImpact::FullMachineLoss);
        assert!(resumed.is_empty());
        assert!(!serving(&cm, ContainerId(0)));
    }

    #[test]
    fn an_operation_completing_on_a_failed_machine_leaves_its_container_down() {
        let mut cm = cm_with(2);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        cm.deploy(ContainerId(1), AppId(1), MachineId(0), 1)
            .unwrap();
        let ops = cm.start_rolling_upgrade(AppId(1), 2);
        let moved = cm
            .request_op(
                ContainerId(1),
                OpKind::Move { to: MachineId(1) },
                OpReason::Manual,
            )
            .unwrap();
        cm.begin_op(ops[0], SimTime::ZERO).unwrap();
        cm.begin_op(moved, SimTime::ZERO).unwrap();
        // Restarting containers are not running: the failures list none.
        assert!(cm.fail_machine(MachineId(0)).unwrap().is_empty());
        assert!(cm.fail_machine(MachineId(1)).unwrap().is_empty());
        for (op, container) in [(ops[0], ContainerId(0)), (moved, ContainerId(1))] {
            let down = CmEvent::ContainerDown {
                container,
                planned: false,
            };
            assert_eq!(cm.complete_op(op).unwrap(), down);
            assert!(!serving(&cm, container));
        }
        assert_eq!(cm.containers[&ContainerId(0)].version, 2);
        assert_eq!(cm.containers[&ContainerId(1)].machine, MachineId(1));
        // Each comes back with the machine it is on.
        assert_eq!(cm.recover_machine(MachineId(0)).unwrap(), [ContainerId(0)]);
        assert_eq!(cm.recover_machine(MachineId(1)).unwrap(), [ContainerId(1)]);
        assert!(serving(&cm, ContainerId(0)) && serving(&cm, ContainerId(1)));
    }

    #[test]
    fn crash_container_is_unplanned() {
        let mut cm = cm_with(1);
        cm.deploy(ContainerId(0), AppId(1), MachineId(0), 1)
            .unwrap();
        let ev = cm.crash_container(ContainerId(0)).unwrap();
        assert_eq!(
            ev,
            CmEvent::ContainerDown {
                container: ContainerId(0),
                planned: false
            }
        );
        assert_eq!(cm.counters().unplanned, 1);
    }
}
