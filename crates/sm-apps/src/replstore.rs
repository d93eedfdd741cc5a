//! A ZippyDB-like primary-secondary replicated store (§2.5).
//!
//! Each shard is a [`ReplicationGroup`]:
//! the SM-elected primary is the log leader handling writes; secondaries
//! replicate and serve eventually-consistent reads. The store exists to
//! exercise SM's primary-secondary machinery end to end — role changes
//! arriving through `change_role` drive leader elections in the log.
//!
//! Membership follows the log, not the RPC: the 5-step migration (§3.2)
//! maps onto joint-consensus reconfiguration so a replica can move
//! between servers without losing an acked write:
//!
//! - `prepare_add_shard` joins the group as a non-voting **learner**
//!   and starts catch-up (step 1: new owner warms up while the old one
//!   still serves);
//! - `prepare_drop_shard` on the primary runs the **handover**
//!   reconfiguration (old voters − self + new owner) and only succeeds
//!   once the new configuration has committed;
//! - `add_shard` promotes the (caught-up) replica to voter via a joint
//!   change if the handover has not already done so, and for a primary
//!   role elects it — a safe joint election that requires quorums in
//!   every active voter set;
//! - `drop_shard` leaves the group only after a committed
//!   reconfiguration excludes this replica; a voter that cannot get the
//!   change through (no leader reachable) steps down and stays as a
//!   non-serving zombie for the control plane to clean up later, rather
//!   than tearing a hole in the quorum.
//!
//! The group state is shared between the replicas of a shard via
//! `Rc<RefCell<...>>`: in the real system that shared state *is* the
//! network protocol; in this deterministic simulation a shared cell is
//! the faithful single-threaded equivalent.

use crate::forwarding::ShardHost;
use crate::replication::ReplicationGroup;
use crate::AppResponse;
use sm_core::ShardServer;
use sm_types::{LoadVector, Metric, ReplicaRole, ServerId, ShardId, SmError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Replication rounds a membership-changing RPC may pump before giving
/// up and reporting `Unavailable` (each change needs at most two
/// entries — joint + stable — to commit; under faults the rounds fail
/// fast and the RPC nacks so the orchestrator aborts the migration).
const RECONFIG_PUMP_ROUNDS: usize = 8;

/// The shared replication groups of one deployment, one per shard.
pub(crate) type SharedGroups = Rc<RefCell<BTreeMap<ShardId, ReplicationGroup<ServerId>>>>;

/// Creates an empty shared group table.
pub fn shared_groups() -> SharedGroups {
    Rc::new(RefCell::new(BTreeMap::new()))
}

/// One replicated-store application server.
#[derive(Debug)]
pub struct ReplStoreServer {
    /// This server's id.
    pub id: ServerId,
    host: ShardHost,
    groups: SharedGroups,
}

impl ReplStoreServer {
    /// Creates a server over the deployment's shared groups.
    pub fn new(id: ServerId, groups: SharedGroups) -> Self {
        Self {
            id,
            host: ShardHost::new(),
            groups,
        }
    }

    /// Routing decision for a request on `shard`.
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit(shard, forwarded)
    }

    /// Writes through the shard's log (primary only): appends,
    /// replicates to every reachable member, and advances the commit
    /// index. Returns the log position of the write.
    pub fn write(&mut self, shard: ShardId, data: Vec<u8>) -> Result<usize, SmError> {
        if self.host.role_of(shard) != Some(ReplicaRole::Primary) {
            return Err(SmError::Rejected(format!("{shard} not primary here")));
        }
        let mut groups = self.groups.borrow_mut();
        let group = groups
            .get_mut(&shard)
            .ok_or_else(|| SmError::not_found(shard))?;
        let idx = group.append(self.id, data)?;
        // Replicate to all followers; in the simulation replication is a
        // synchronous round (latency is charged by the harness).
        group.pump();
        Ok(idx)
    }

    /// Reads the number of committed application writes at this replica
    /// (an eventually-consistent read; configuration entries are not
    /// counted).
    pub fn committed_len(&self, shard: ShardId) -> usize {
        self.groups
            .borrow()
            .get(&shard)
            .and_then(|g| g.log(self.id).map(|l| l.committed_data_len()))
            .unwrap_or(0)
    }
}

impl ShardServer for ReplStoreServer {
    /// Step 3 of the migration: officially own the replica. A fresh
    /// group bootstraps; joining a live group promotes this replica
    /// (learner or new) to voter through a joint reconfiguration that
    /// must commit before the RPC succeeds. A primary role additionally
    /// runs a safe election.
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)?;
        let outcome = (|| {
            let mut groups = self.groups.borrow_mut();
            let group = groups
                .entry(shard)
                .or_insert_with(|| ReplicationGroup::new([]));
            if !group.is_voter(self.id) {
                let live = group
                    .voters()
                    .iter()
                    .chain(group.joint_old().into_iter().flatten())
                    .any(|&m| group.log(m).is_some_and(|l| !l.is_empty()));
                if !live {
                    group.add_member(self.id)?;
                } else {
                    // Live group: learner catch-up, then the two-phase
                    // voter promotion.
                    group.add_learner(self.id);
                    let _catching_up = group.replicate_to(self.id);
                    group.advance_commit();
                    let leader = group
                        .leader()
                        .ok_or_else(|| SmError::Unavailable(format!("{shard} has no leader")))?;
                    let mut target = group.voters().clone();
                    target.insert(self.id);
                    group.begin_reconfig(leader, target)?;
                    if !group.pump_until_config_commits(RECONFIG_PUMP_ROUNDS) {
                        return Err(SmError::Unavailable(format!(
                            "{shard} reconfiguration could not commit"
                        )));
                    }
                }
            }
            if role.is_primary() {
                // A caught-up voter wins immediately; a stale one needs
                // one replication round first.
                if group.elect(self.id).is_err() {
                    group.pump();
                    group.elect(self.id)?;
                }
            }
            Ok(())
        })();
        if outcome.is_err() {
            // Roll the host registration back so a nacked RPC leaves no
            // half-added replica serving traffic.
            let _rollback = self.host.drop_shard(shard);
        }
        outcome
    }

    /// Step 5 of the migration: leave. A voter leaves the configuration
    /// *before* it leaves the group — via a committed reconfiguration —
    /// so the quorum never silently shrinks. When no leader is
    /// reachable to drive the change, the replica stops serving (the
    /// host drop) but stays in the group as a zombie voter; its log —
    /// durable storage — keeps counting toward quorums until the
    /// control plane re-places it.
    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.host.drop_shard(shard)?;
        let mut groups = self.groups.borrow_mut();
        let Some(group) = groups.get_mut(&shard) else {
            return Ok(());
        };
        if !group.is_hosted(self.id) {
            return Ok(());
        }
        if !group.is_voter(self.id) {
            // Learner (or already reconfigured out): safe to remove.
            group.remove_member(self.id)?;
            return Ok(());
        }
        let leader = group.leader();
        let can_drive = match leader {
            Some(l) => l == self.id || !group.is_down(l),
            None => false,
        };
        if can_drive {
            let l = leader.unwrap_or(self.id);
            let mut target = group.voters().clone();
            target.remove(&self.id);
            if !target.is_empty()
                && group.begin_reconfig(l, target).is_ok()
                && group.pump_until_config_commits(RECONFIG_PUMP_ROUNDS)
                && !group.is_voter(self.id)
            {
                group.step_down(self.id);
                group.remove_member(self.id)?;
                return Ok(());
            }
        }
        // Zombie-stay: no safe way out right now. The replica no longer
        // serves (host dropped) but its vote and log remain.
        group.step_down(self.id);
        Ok(())
    }

    /// SM role switch. Promotion to primary is a safe joint election —
    /// it fails (and the RPC nacks) unless this replica's log covers
    /// every committed entry and quorums of every active voter set are
    /// reachable.
    fn change_role(
        &mut self,
        shard: ShardId,
        _current: ReplicaRole,
        new: ReplicaRole,
    ) -> Result<(), SmError> {
        // `current` is the control plane's *belief*, which can lag
        // reality: if this replica's previous ChangeRole was applied
        // but its ack was eaten by the network, the control plane
        // retries from the stale role. Converge to the target role
        // instead of nacking forever on the mismatch — the group's
        // epoch (not host-side bookkeeping) is what makes leadership
        // changes safe.
        let actual = self
            .host
            .role_of(shard)
            .ok_or_else(|| SmError::not_found(shard))?;
        let mut groups = self.groups.borrow_mut();
        let group = groups
            .get_mut(&shard)
            .ok_or_else(|| SmError::not_found(shard))?;
        // Election before the host-side flip, so a nack leaves no
        // half-applied role behind for the retry to trip over.
        if new.is_primary() {
            if group.elect(self.id).is_err() {
                // One catch-up round, then retry; a genuinely stale or
                // partitioned candidate still fails and the RPC nacks.
                group.pump();
                group.elect(self.id)?;
            }
        } else if group.leader() == Some(self.id) {
            group.step_down(self.id);
        }
        if actual != new {
            self.host.change_role(shard, actual, new)?;
        }
        Ok(())
    }

    /// Step 1 of the migration: start catch-up on the new owner while
    /// the old owner keeps serving. Joins as a non-voting learner, so a
    /// slow catch-up never stalls the group's commits.
    fn prepare_add_shard(
        &mut self,
        shard: ShardId,
        current_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_add_shard(shard, current_owner, role)?;
        let mut groups = self.groups.borrow_mut();
        if let Some(group) = groups.get_mut(&shard) {
            group.add_learner(self.id);
            let _catching_up = group.replicate_to(self.id);
            group.advance_commit();
        }
        Ok(())
    }

    /// Step 2 of the migration: the old owner hands over. For a primary
    /// move this runs the handover reconfiguration (the old voters
    /// minus self, plus the new owner) and succeeds only once the new
    /// configuration has
    /// committed; the old primary keeps leading as a pure proposer
    /// until `change_role`/`add_shard` elects the new owner.
    fn prepare_drop_shard(
        &mut self,
        shard: ShardId,
        new_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_drop_shard(shard, new_owner, role)?;
        if !role.is_primary() {
            return Ok(());
        }
        let mut groups = self.groups.borrow_mut();
        let group = groups
            .get_mut(&shard)
            .ok_or_else(|| SmError::not_found(shard))?;
        if group.leader() != Some(self.id) {
            // Not the log leader (e.g. already handed over): nothing to
            // reconfigure here.
            return Ok(());
        }
        group.add_learner(new_owner);
        let _catching_up = group.replicate_to(new_owner);
        group.advance_commit();
        let mut target = group.voters().clone();
        target.remove(&self.id);
        target.insert(new_owner);
        group.begin_reconfig(self.id, target)?;
        if !group.pump_until_config_commits(RECONFIG_PUMP_ROUNDS) {
            return Err(SmError::Unavailable(format!(
                "{shard} handover reconfiguration could not commit"
            )));
        }
        Ok(())
    }

    fn report_load(&self) -> Vec<(ShardId, LoadVector)> {
        self.host
            .shards()
            .map(|(shard, _)| {
                let storage = self
                    .groups
                    .borrow()
                    .get(shard)
                    .and_then(|g| g.log(self.id).map(|l| l.len() as f64))
                    .unwrap_or(0.0);
                let mut v = LoadVector::zero();
                v.set(Metric::ShardCount.id(), 1.0);
                v.set(Metric::Storage.id(), storage);
                (*shard, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ShardId = ShardId(0);

    fn deployment() -> (ReplStoreServer, ReplStoreServer, ReplStoreServer) {
        let groups = shared_groups();
        let mut a = ReplStoreServer::new(ServerId(1), groups.clone());
        let mut b = ReplStoreServer::new(ServerId(2), groups.clone());
        let mut c = ReplStoreServer::new(ServerId(3), groups);
        a.add_shard(S, ReplicaRole::Primary).unwrap();
        b.add_shard(S, ReplicaRole::Secondary).unwrap();
        c.add_shard(S, ReplicaRole::Secondary).unwrap();
        (a, b, c)
    }

    #[test]
    fn writes_replicate_and_commit() {
        let (mut a, b, c) = deployment();
        a.write(S, b"hello".to_vec()).unwrap();
        a.write(S, b"world".to_vec()).unwrap();
        assert_eq!(a.committed_len(S), 2);
        assert_eq!(b.committed_len(S), 2);
        assert_eq!(c.committed_len(S), 2);
    }

    #[test]
    fn secondary_write_rejected() {
        let (_a, mut b, _c) = deployment();
        assert!(matches!(
            b.write(S, b"x".to_vec()),
            Err(SmError::Rejected(_))
        ));
    }

    #[test]
    fn sm_driven_failover_preserves_commits() {
        let (mut a, mut b, _c) = deployment();
        a.write(S, b"durable".to_vec()).unwrap();
        // Primary's server drains; SM promotes b via change_role. The
        // drop commits a reconfiguration to {b, c} first.
        a.drop_shard(S).unwrap();
        b.change_role(S, ReplicaRole::Secondary, ReplicaRole::Primary)
            .unwrap();
        assert_eq!(b.committed_len(S), 1);
        b.write(S, b"after".to_vec()).unwrap();
        assert_eq!(b.committed_len(S), 2);
        // The departed replica really left the configuration.
        let groups = b.groups.borrow();
        assert!(!groups[&S].is_voter(ServerId(1)));
        assert!(!groups[&S].is_hosted(ServerId(1)));
    }

    #[test]
    fn graceful_takeover_catches_up_first() {
        let (mut a, _b, _c) = deployment();
        a.write(S, b"x".to_vec()).unwrap();
        let groups = a.groups.clone();
        let mut d = ReplStoreServer::new(ServerId(4), groups);
        // Step 1 of migration joins the group as a learner and catches
        // up — without touching the voter set.
        d.prepare_add_shard(S, ServerId(1), ReplicaRole::Primary)
            .unwrap();
        assert_eq!(d.committed_len(S), 1);
        {
            let groups = d.groups.borrow();
            assert!(!groups[&S].is_voter(ServerId(4)));
        }
        // Step 3: official takeover promotes to voter and elects it.
        d.add_shard(S, ReplicaRole::Primary).unwrap();
        assert!(d.write(S, b"y".to_vec()).is_ok());
        assert_eq!(d.committed_len(S), 2);
    }

    #[test]
    fn five_step_primary_move_loses_no_acked_write() {
        let (mut a, b, c) = deployment();
        for i in 0..5u8 {
            a.write(S, vec![i]).unwrap();
        }
        let mut d = ReplStoreServer::new(ServerId(4), a.groups.clone());
        // Step 1: new owner starts catch-up (learner).
        d.prepare_add_shard(S, ServerId(1), ReplicaRole::Primary)
            .unwrap();
        // Step 2: old owner hands over — commits voters {2,3,4}.
        a.prepare_drop_shard(S, ServerId(4), ReplicaRole::Primary)
            .unwrap();
        {
            let groups = a.groups.borrow();
            assert!(!groups[&S].is_voter(ServerId(1)));
            assert!(groups[&S].is_voter(ServerId(4)));
        }
        // Step 3: new owner takes over (safe election).
        d.add_shard(S, ReplicaRole::Primary).unwrap();
        // Step 4 happens at the routing layer; step 5: old owner leaves.
        a.drop_shard(S).unwrap();
        assert_eq!(d.committed_len(S), 5);
        assert_eq!(b.committed_len(S), 5);
        assert_eq!(c.committed_len(S), 5);
        d.write(S, b"after-move".to_vec()).unwrap();
        assert_eq!(d.committed_len(S), 6);
        let groups = d.groups.borrow();
        assert!(!groups[&S].is_hosted(ServerId(1)));
    }

    #[test]
    fn secondary_move_runs_two_reconfigs() {
        let (mut a, _b, mut c) = deployment();
        a.write(S, b"x".to_vec()).unwrap();
        let mut d = ReplStoreServer::new(ServerId(4), a.groups.clone());
        // Secondary moves use add-then-drop with no prepare phase.
        d.add_shard(S, ReplicaRole::Secondary).unwrap();
        {
            let groups = d.groups.borrow();
            assert!(groups[&S].is_voter(ServerId(4)));
            assert_eq!(groups[&S].voters().len(), 4);
        }
        c.drop_shard(S).unwrap();
        let groups = d.groups.borrow();
        assert!(!groups[&S].is_hosted(ServerId(3)));
        assert_eq!(groups[&S].voters().len(), 3);
        assert_eq!(groups[&S].log(ServerId(4)).unwrap().committed_data_len(), 1);
    }

    #[test]
    fn drop_without_reachable_leader_stays_zombie() {
        let (mut a, mut b, _c) = deployment();
        a.write(S, b"x".to_vec()).unwrap();
        // The leader's node crashes (network-level, not via SM).
        {
            let mut groups = b.groups.borrow_mut();
            let g = groups.get_mut(&S).unwrap();
            g.set_down(ServerId(1), true);
            g.step_down(ServerId(1));
        }
        // b is told to drop while the group is leaderless: it cannot
        // commit a reconfiguration, so it stops serving but stays a
        // voter — the quorum does not silently shrink.
        b.drop_shard(S).unwrap();
        let groups = b.groups.borrow();
        assert!(groups[&S].is_voter(ServerId(2)), "zombie keeps its vote");
        assert!(groups[&S].is_hosted(ServerId(2)));
    }

    #[test]
    fn load_report_includes_storage() {
        let (mut a, _b, _c) = deployment();
        a.write(S, b"abc".to_vec()).unwrap();
        let report = a.report_load();
        assert_eq!(report[0].1.get(Metric::Storage.id()), 1.0);
    }
}
