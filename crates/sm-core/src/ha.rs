//! The running scale-out control plane (§6.1, Figure 14) and its fault
//! tolerance (§3.2, §6.2).
//!
//! [`HaControlPlane`] *is* Figure 14: the application registry is its
//! `policies` map, the application manager and the partition registry
//! are [`crate::control_plane`]'s ZooKeeper-free types, the read
//! service is its partition and server → partition indices, the
//! frontend is the routing in [`HaControlPlane::rpc_acked`] and
//! [`HaControlPlane::handle_event`] (server → partition → mini-SM →
//! orchestrator), and a mini-SM is a [`MiniSm`]: a lease plus the
//! orchestrators of the partitions assigned to it.
//!
//! Three fault-tolerance mechanisms, layered:
//!
//! 1. **Persistence with fencing** — every orchestrator serializes its
//!    durable state ([`crate::Orchestrator::snapshot`]) into a
//!    versioned znode after each reconciliation step. Writes go through
//!    a [`ZkLease`], which issues *conditional* sets: the expected
//!    znode version is the one this lease last wrote (or adopted on
//!    takeover). A stale owner — one whose session expired and whose
//!    partition failed over — gets [`SmError::Unavailable`] (session
//!    gone) or [`SmError::Conflict`] (version advanced by the new
//!    owner) and permanently degrades to read-only. It can never
//!    clobber the new owner's state.
//! 2. **Liveness & failover** — each mini-SM holds an ephemeral znode
//!    under `/sm/minisms`, each application server one under
//!    `/servers`. The [`HaControlPlane`] keeps a child watch on
//!    `/sm/minisms` and an exists watch per server znode; session
//!    expiry deletes the ephemeral, the watch fires, and
//!    [`HaControlPlane::handle_event`] reassigns the dead mini-SM's
//!    partitions to survivors (bootstrapping each new owner from the
//!    persisted znode) or marks the dead server down in its partition's
//!    orchestrator. Server-down detection is therefore watch-driven —
//!    nothing calls `server_down` directly.
//! 3. **Idempotent recovery** — a restored orchestrator re-drives
//!    in-flight work from the durable assignment: replayed acks for
//!    migrations it no longer tracks are ignored, re-sent `add_shard` /
//!    `drop_shard` calls are no-ops at the server. Killing a mini-SM at
//!    any step of the five-step graceful migration and recovering is
//!    exercised in `tests/chaos.rs`.
//!
//! The znode layout and the fencing rule are documented in DESIGN.md
//! ("Control-plane fault tolerance").

use crate::api::{OrchCommand, ServerRpc};
use crate::control_plane::{Partition, PartitionRegistry};
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use sm_types::{
    AppId, AppPolicy, LoadVector, Location, MiniSmId, PartitionId, ServerId, ShardId, SmError,
};
use sm_zk::{CreateMode, SessionId, WatchEvent, WatchKind, ZkStore};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Znode layout used by the control plane.
pub mod paths {
    use sm_types::{MiniSmId, PartitionId, ServerId};

    /// Control-plane root.
    pub(crate) const SM: &str = "/sm";
    /// Parent of per-partition durable state nodes.
    pub(crate) const PARTITIONS: &str = "/sm/partitions";
    /// Parent of per-mini-SM ephemeral liveness nodes.
    pub(crate) const MINISMS: &str = "/sm/minisms";
    /// The partition registry's durable state node.
    pub const REGISTRY: &str = "/sm/registry";
    /// Parent of per-server ephemeral liveness nodes.
    pub const SERVERS: &str = "/servers";

    /// Durable state node of one partition's orchestrator.
    pub fn partition_state(partition: PartitionId) -> String {
        format!("{PARTITIONS}/p{}", partition.raw())
    }

    /// Ephemeral liveness node of one mini-SM.
    pub(crate) fn minism_node(minism: MiniSmId) -> String {
        format!("{MINISMS}/m{}", minism.raw())
    }

    /// Ephemeral liveness node of one application server.
    pub fn server_node(server: ServerId) -> String {
        format!("{SERVERS}/srv{}", server.raw())
    }

    /// Parses a `/sm/minisms/m<N>` path back to its mini-SM id.
    pub(crate) fn parse_minism(path: &str) -> Option<MiniSmId> {
        let rest = path.strip_prefix(MINISMS)?.strip_prefix("/m")?;
        rest.parse().ok().map(MiniSmId)
    }

    /// Parses a `/servers/srv<N>` path back to its server id.
    pub(crate) fn parse_server(path: &str) -> Option<ServerId> {
        let rest = path.strip_prefix(SERVERS)?.strip_prefix("/srv")?;
        rest.parse().ok().map(ServerId)
    }
}

/// Reads a notification of `session`'s exists watch on a server's
/// liveness node: re-arms the one-shot watch and returns the server and
/// whether its node exists *now*. Under a simulated (or real) network a
/// `Deleted` event may arrive after the server already re-registered;
/// the event is only a hint that the node changed, so its kind is never
/// read. `None` for another session's event or another path.
pub fn watched_server(
    zk: &mut ZkStore,
    session: SessionId,
    event: &WatchEvent,
) -> Option<(ServerId, bool)> {
    let server = paths::parse_server(&event.path).filter(|_| event.watcher == session)?;
    zk.watch_exists(session, &event.path);
    Some((server, zk.exists(&event.path)))
}

/// Creates the persistent base directories if they do not exist yet,
/// returning any watch events the creations fired.
pub(crate) fn ensure_base(
    zk: &mut ZkStore,
    session: SessionId,
) -> Result<Vec<WatchEvent>, SmError> {
    let mut events = Vec::new();
    for path in [paths::SM, paths::PARTITIONS, paths::MINISMS, paths::SERVERS] {
        if !zk.exists(path) {
            let (_, ev) = zk.create(session, path, Vec::new(), CreateMode::Persistent)?;
            events.extend(ev);
        }
    }
    Ok(events)
}

/// A fenced writer: one ZK session plus the znode versions it has
/// written, enforcing the paper's stale-leader rule. Every write is a
/// conditional set against the last version this lease observed; the
/// first write to an existing znode *adopts* its current version (the
/// takeover path), after which the previous owner's cached version is
/// stale and its next conditional set fails.
///
/// Any failed write permanently fences the lease — a degraded owner
/// must rebuild through a fresh lease (a new session), never retry
/// blindly.
#[derive(Debug)]
pub struct ZkLease {
    /// The ZK session the lease writes through.
    pub session: SessionId,
    versions: BTreeMap<String, u64>,
    fenced: bool,
}

impl ZkLease {
    /// Opens a fresh lease on a new session.
    pub fn new(zk: &mut ZkStore) -> Self {
        Self {
            session: zk.connect(),
            versions: BTreeMap::new(),
            fenced: false,
        }
    }

    /// True once any write has failed; all further writes are refused.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// Writes `data` to `path`, fenced by the znode version. Creates
    /// the node when missing; adopts the current version on the first
    /// write to a node created by a predecessor.
    pub fn write(
        &mut self,
        zk: &mut ZkStore,
        path: &str,
        data: Vec<u8>,
    ) -> Result<Vec<WatchEvent>, SmError> {
        if self.fenced {
            return Err(SmError::Unavailable(format!(
                "lease on session {:?} is fenced",
                self.session
            )));
        }
        if !zk.session_alive(self.session) {
            self.fenced = true;
            return Err(SmError::Unavailable(format!(
                "session {:?} expired; write to {path} refused",
                self.session
            )));
        }
        let expected = match self.versions.get(path) {
            Some(&v) => v,
            None => {
                if !zk.exists(path) {
                    match zk.create(self.session, path, data, CreateMode::Persistent) {
                        Ok((_, events)) => {
                            self.versions.insert(path.to_string(), 0);
                            return Ok(events);
                        }
                        Err(e) => {
                            self.fenced = true;
                            return Err(e);
                        }
                    }
                }
                // Takeover: adopt the version the predecessor left.
                let (_, stat) = zk.get(path)?;
                stat.version
            }
        };
        match zk.set_as(self.session, path, data, Some(expected)) {
            Ok((version, events)) => {
                self.versions.insert(path.to_string(), version);
                Ok(events)
            }
            Err(e) => {
                self.fenced = true;
                Err(e)
            }
        }
    }
}

/// One mini-SM process (Figure 14's "Mini-SM Control Plane"): the
/// orchestrators of the partitions assigned to it, the lease that
/// fences their state writes, and (on that lease's session) the
/// ephemeral znode advertising its liveness.
pub struct MiniSm {
    /// Identifier.
    pub id: MiniSmId,
    /// The fenced writer bound to this process's ZK session.
    pub lease: ZkLease,
    orchestrators: BTreeMap<PartitionId, Orchestrator>,
}

impl MiniSm {
    /// Starts a mini-SM process: fresh session, base directories, and
    /// the ephemeral liveness node `/sm/minisms/m<id>`.
    fn start(zk: &mut ZkStore, id: MiniSmId) -> Result<(Self, Vec<WatchEvent>), SmError> {
        let lease = ZkLease::new(zk);
        let mut events = ensure_base(zk, lease.session)?;
        let (_, ev) = zk.create(
            lease.session,
            &paths::minism_node(id),
            Vec::new(),
            CreateMode::Ephemeral,
        )?;
        events.extend(ev);
        let minism = Self {
            id,
            lease,
            orchestrators: BTreeMap::new(),
        };
        Ok((minism, events))
    }

    /// Partitions currently managed.
    pub fn partitions(&self) -> impl Iterator<Item = &PartitionId> {
        self.orchestrators.keys()
    }

    /// Persists one partition's orchestrator state through the lease.
    pub fn persist(
        &mut self,
        zk: &mut ZkStore,
        partition: PartitionId,
    ) -> Result<Vec<WatchEvent>, SmError> {
        let Some(orch) = self.orchestrators.get(&partition) else {
            return Err(SmError::NotFound(format!(
                "partition {partition:?} not hosted by mini-SM {:?}",
                self.id
            )));
        };
        self.lease
            .write(zk, &paths::partition_state(partition), orch.snapshot())
    }
}

/// Counters describing the HA layer's activity (tests and figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HaStats {
    /// Mini-SM failovers executed.
    pub failovers: u64,
    /// Partitions bootstrapped from a persisted znode snapshot.
    pub snapshot_restores: u64,
    /// Partitions rebuilt from membership (no snapshot found).
    pub rebuilds: u64,
    /// State writes refused because the writer was fenced.
    pub fenced_writes: u64,
    /// Acks dropped because their partition's owner was mid-failover.
    pub dropped_acks: u64,
    /// Recovery steps that hit an unexpected error and degraded.
    pub recovery_errors: u64,
}

/// The HA control plane: Figure 14 (see the module doc for where each
/// box lives) made crash-tolerant. Partition-to-mini-SM assignment is
/// persisted (fenced) in `/sm/registry`, each partition's orchestrator
/// state in `/sm/partitions/p<id>`, and liveness flows through
/// ephemerals and watches rather than direct calls.
pub struct HaControlPlane {
    config: OrchestratorConfig,
    capacity: LoadVector,
    policies: BTreeMap<AppId, AppPolicy>,
    /// The registry's own session: holds the watches and the registry lease.
    session: SessionId,
    registry_lease: ZkLease,
    /// Partition-to-mini-SM assignment (persisted in [`paths::REGISTRY`]).
    pub registry: PartitionRegistry,
    partitions: BTreeMap<PartitionId, Partition>,
    server_to_partition: BTreeMap<ServerId, PartitionId>,
    minisms: BTreeMap<MiniSmId, MiniSm>,
    server_locations: BTreeMap<ServerId, Location>,
    down_servers: BTreeSet<ServerId>,
    stats: HaStats,
}

impl HaControlPlane {
    /// Builds the control plane: connects its session, creates the base
    /// znodes, and arms the child watch on `/sm/minisms`.
    pub fn new(
        zk: &mut ZkStore,
        config: OrchestratorConfig,
        capacity: LoadVector,
        max_servers_per_minism: usize,
    ) -> Result<(Self, Vec<WatchEvent>), SmError> {
        let registry_lease = ZkLease::new(zk);
        let session = registry_lease.session;
        let events = ensure_base(zk, session)?;
        zk.watch_children(session, paths::MINISMS);
        Ok((
            Self {
                config,
                capacity,
                policies: BTreeMap::new(),
                session,
                registry_lease,
                registry: PartitionRegistry::new(max_servers_per_minism),
                partitions: BTreeMap::new(),
                server_to_partition: BTreeMap::new(),
                minisms: BTreeMap::new(),
                server_locations: BTreeMap::new(),
                down_servers: BTreeSet::new(),
                stats: HaStats::default(),
            },
            events,
        ))
    }

    /// Activity counters.
    pub fn stats(&self) -> HaStats {
        self.stats
    }

    /// Registers an application's policy (replication shape).
    pub fn register_app(&mut self, app: AppId, policy: AppPolicy) {
        self.policies.insert(app, policy);
    }

    /// Records a server's location and arms the exists watch on its
    /// liveness node — the watch-driven replacement for calling
    /// `server_down` directly.
    pub fn register_server(&mut self, zk: &mut ZkStore, server: ServerId, location: Location) {
        self.server_locations.insert(server, location);
        zk.watch_exists(self.session, &paths::server_node(server));
    }

    /// Deploys a partition: assigns it to a mini-SM (starting one if
    /// needed), builds its orchestrator, runs the initial placement,
    /// and persists both the partition state and the registry.
    pub fn deploy_partition(
        &mut self,
        zk: &mut ZkStore,
        partition: &Partition,
    ) -> Result<Vec<WatchEvent>, SmError> {
        if !self.policies.contains_key(&partition.app) {
            return Err(no_policy(partition.app));
        }
        self.partitions.insert(partition.id, partition.clone());
        for &server in &partition.servers {
            self.server_to_partition.insert(server, partition.id);
        }
        let mut events = Vec::new();
        self.adopt(zk, partition.id, &mut events)?.run_emergency();
        events.extend(self.persist_partition(zk, partition.id));
        events.extend(self.persist_registry(zk));
        Ok(events)
    }

    /// Gives a known partition an owner and a fresh orchestrator there:
    /// assigns it in the registry (which mints the owner's id), starts
    /// that mini-SM if it is not running (its start events go to
    /// `events`), and builds the orchestrator from the partition's
    /// membership and the app's policy.
    fn adopt(
        &mut self,
        zk: &mut ZkStore,
        pid: PartitionId,
        events: &mut Vec<WatchEvent>,
    ) -> Result<&mut Orchestrator, SmError> {
        let partition = self
            .partitions
            .get(&pid)
            .ok_or_else(|| SmError::NotFound(format!("unknown partition {pid:?}")))?;
        let policy = self
            .policies
            .get(&partition.app)
            .ok_or_else(|| no_policy(partition.app))?;
        let replica_count =
            partition.shards.len() * policy.replication.replicas_per_shard() as usize;
        let owner = self.registry.assign(partition, replica_count);
        let host = match self.minisms.entry(owner) {
            Entry::Occupied(running) => running.into_mut(),
            Entry::Vacant(slot) => {
                let (host, started) = MiniSm::start(zk, owner)?;
                events.extend(started);
                slot.insert(host)
            }
        };
        let mut orch = Orchestrator::new(partition.app, policy.clone(), self.config.clone());
        for &server in &partition.servers {
            let location = locate(&self.server_locations, server);
            orch.register_server(server, location, self.capacity);
        }
        orch.register_shards(partition.shards.iter().copied());
        // entry() hands back the freshly inserted orchestrator without a
        // second lookup that would need an unreachable panic path.
        Ok(match host.orchestrators.entry(pid) {
            Entry::Occupied(mut old) => {
                old.insert(orch);
                old.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(orch),
        })
    }

    /// Drains every hosted orchestrator's command outbox, tagged by
    /// partition.
    pub fn take_commands(&mut self) -> Vec<(PartitionId, OrchCommand)> {
        let mut out = Vec::new();
        for host in self.minisms.values_mut() {
            for (&pid, orch) in &mut host.orchestrators {
                out.extend(orch.take_commands().into_iter().map(|cmd| (pid, cmd)));
            }
        }
        out
    }

    /// Routes a server's RPC ack to the orchestrator owning its
    /// partition and persists the resulting state. Acks for partitions
    /// whose owner is mid-failover are dropped (counted) — the restored
    /// orchestrator re-drives the migration from the durable state, so
    /// a replayed or lost ack is harmless.
    pub fn rpc_acked(
        &mut self,
        zk: &mut ZkStore,
        server: ServerId,
        rpc: ServerRpc,
    ) -> Vec<WatchEvent> {
        self.on_server(zk, server, true, |orch| orch.rpc_acked(server, rpc))
    }

    /// Routes a server's RPC failure like [`Self::rpc_acked`].
    pub fn rpc_failed(
        &mut self,
        zk: &mut ZkStore,
        server: ServerId,
        rpc: ServerRpc,
    ) -> Vec<WatchEvent> {
        self.on_server(zk, server, true, |orch| orch.rpc_failed(server, rpc))
    }

    /// Figure 14's frontend: finds the orchestrator owning `server`'s
    /// partition, applies `f` to it and persists the resulting state.
    /// With no running owner nothing is written, and an `ack` is
    /// counted as dropped (a liveness notification is not an ack).
    fn on_server(
        &mut self,
        zk: &mut ZkStore,
        server: ServerId,
        ack: bool,
        f: impl FnOnce(&mut Orchestrator),
    ) -> Vec<WatchEvent> {
        let pid = self.server_to_partition.get(&server).copied();
        let Some((pid, orch)) = pid.and_then(|pid| Some((pid, self.orchestrator(pid)?))) else {
            self.stats.dropped_acks += u64::from(ack);
            return Vec::new();
        };
        f(orch);
        self.persist_partition(zk, pid)
    }

    /// Reacts to a watch event addressed to the control plane's
    /// session: mini-SM expiry triggers failover, server znode deletion
    /// marks the server down, recreation reconciles it back. Watches
    /// are one-shot, so each handled event re-arms its watch. Events
    /// addressed to other sessions are ignored (not this watcher's).
    pub fn handle_event(&mut self, zk: &mut ZkStore, event: &WatchEvent) -> Vec<WatchEvent> {
        if event.watcher != self.session {
            return Vec::new();
        }
        if event.path == paths::MINISMS {
            zk.watch_children(self.session, paths::MINISMS);
            if event.kind != WatchKind::ChildrenChanged {
                return Vec::new();
            }
            let live: BTreeSet<MiniSmId> = zk
                .children(paths::MINISMS)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| paths::parse_minism(p))
                .collect();
            let registered: Vec<MiniSmId> = self.registry.mini_sms().map(|(id, _)| *id).collect();
            let mut events = Vec::new();
            for id in registered {
                if !live.contains(&id) {
                    events.extend(self.fail_over(zk, id));
                }
            }
            return events;
        }
        match watched_server(zk, self.session, event) {
            Some((server, true)) => {
                self.down_servers.remove(&server);
                // The server may have restarted empty: re-send its
                // assignment, and re-place what emergency placement
                // moved away in the meantime.
                self.on_server(zk, server, false, |orch| {
                    orch.reconcile_server(server);
                    orch.run_emergency();
                })
            }
            Some((server, false)) if self.down_servers.insert(server) => {
                self.on_server(zk, server, false, |orch| orch.server_down(server))
            }
            _ => Vec::new(), // not a server, or a duplicate notification
        }
    }

    /// Fails over every partition of a dead mini-SM to survivors (or
    /// freshly started mini-SMs), bootstrapping each new owner from the
    /// persisted znode state. The new owner's first fenced write adopts
    /// the znode version, which permanently fences the dead owner.
    fn fail_over(&mut self, zk: &mut ZkStore, dead: MiniSmId) -> Vec<WatchEvent> {
        // Drop the process object if it is still around (zombie path).
        self.minisms.remove(&dead);
        let orphans = self.registry.remove_minism(dead);
        if orphans.is_empty() {
            return Vec::new();
        }
        self.stats.failovers += 1;
        let mut events = Vec::new();
        for pid in orphans {
            let snapshot = zk.get(&paths::partition_state(pid)).ok().map(|(d, _)| d);
            let down: Vec<ServerId> = self
                .partitions
                .get(&pid)
                .into_iter()
                .flat_map(|partition| partition.servers.iter().copied())
                .filter(|s| self.down_servers.contains(s))
                .collect();
            let Ok(orch) = self.adopt(zk, pid, &mut events) else {
                self.stats.recovery_errors += 1;
                continue;
            };
            // A corrupt snapshot degrades to the orchestrator built
            // from membership rather than refusing to recover.
            let restored = snapshot.map(|bytes| orch.restore(&bytes).is_ok());
            for server in down {
                orch.server_down(server);
            }
            orch.run_emergency();
            match restored {
                Some(true) => self.stats.snapshot_restores += 1,
                Some(false) => {
                    self.stats.recovery_errors += 1;
                    self.stats.rebuilds += 1;
                }
                None => self.stats.rebuilds += 1,
            }
            events.extend(self.persist_partition(zk, pid));
        }
        events.extend(self.persist_registry(zk));
        events
    }

    /// Crashes a mini-SM process: the object is dropped and its session
    /// expired, deleting the ephemeral and firing the registry's child
    /// watch. Failover happens when that event is delivered to
    /// [`Self::handle_event`], not here — mirroring the real system's
    /// detection delay.
    pub fn crash_minism(&mut self, zk: &mut ZkStore, id: MiniSmId) -> Vec<WatchEvent> {
        match self.minisms.remove(&id) {
            Some(host) => zk.expire_session(host.lease.session),
            None => Vec::new(),
        }
    }

    /// Expires a mini-SM's session but keeps the process object alive
    /// and returns it: a zombie. Its lease fences on the next write;
    /// the direct fencing test drives exactly that.
    pub fn zombie_minism(
        &mut self,
        zk: &mut ZkStore,
        id: MiniSmId,
    ) -> (Option<MiniSm>, Vec<WatchEvent>) {
        match self.minisms.remove(&id) {
            Some(host) => {
                let events = zk.expire_session(host.lease.session);
                (Some(host), events)
            }
            None => (None, Vec::new()),
        }
    }

    /// Restarts a crashed mini-SM: it rejoins empty under a fresh
    /// session and becomes eligible for future partition assignments.
    /// Fails with [`SmError::Conflict`] while the old incarnation is
    /// still registered (its expiry has not been observed yet).
    pub fn restart_minism(
        &mut self,
        zk: &mut ZkStore,
        id: MiniSmId,
    ) -> Result<Vec<WatchEvent>, SmError> {
        if self.minisms.contains_key(&id) {
            return Err(SmError::Conflict(format!(
                "mini-SM {id:?} is still running"
            )));
        }
        self.registry.restore_minism(id)?;
        let (host, mut events) = MiniSm::start(zk, id)?;
        self.minisms.insert(id, host);
        // The restore changed registry membership in memory; persist it
        // so a control-plane crash right after this restart recovers a
        // registry that knows about the rejoined mini-SM.
        events.extend(self.persist_registry(zk));
        Ok(events)
    }

    /// The running mini-SM the registry names as `partition`'s owner.
    fn owner(&self, partition: PartitionId) -> Option<&MiniSm> {
        self.minisms.get(&self.registry.minism_of(partition)?)
    }

    fn owner_mut(&mut self, partition: PartitionId) -> Option<&mut MiniSm> {
        self.minisms.get_mut(&self.registry.minism_of(partition)?)
    }

    /// The orchestrator currently owning `partition`, if any.
    pub fn orchestrator(&mut self, partition: PartitionId) -> Option<&mut Orchestrator> {
        self.owner_mut(partition)?.orchestrators.get_mut(&partition)
    }

    /// Mini-SM processes currently running.
    pub fn running_minisms(&self) -> Vec<MiniSmId> {
        self.minisms.keys().copied().collect()
    }

    /// Shards that currently lack a full placement: no replica at all,
    /// or no primary where the policy requires one.
    pub fn unplaced(&self) -> Vec<(PartitionId, ShardId)> {
        let mut missing = Vec::new();
        for (&pid, partition) in &self.partitions {
            let needs_primary = self
                .policies
                .get(&partition.app)
                .is_some_and(|p| p.replication.has_primary());
            let orch = self.owner(pid).and_then(|m| m.orchestrators.get(&pid));
            let placed = |shard| {
                orch.is_some_and(|orch| {
                    !orch.assignment().replicas(shard).is_empty()
                        && (!needs_primary || orch.assignment().primary_of(shard).is_some())
                })
            };
            let lacking = partition.shards.iter().filter(|&&shard| !placed(shard));
            missing.extend(lacking.map(|&shard| (pid, shard)));
        }
        missing
    }

    /// True when every shard of every partition is placed.
    pub fn fully_placed(&self) -> bool {
        self.unplaced().is_empty()
    }

    /// Total in-flight graceful migrations across all orchestrators.
    pub fn in_flight_total(&self) -> usize {
        self.partitions
            .keys()
            .filter_map(|&pid| self.owner(pid)?.orchestrators.get(&pid))
            .map(Orchestrator::in_flight_migrations)
            .sum()
    }

    fn persist_partition(&mut self, zk: &mut ZkStore, pid: PartitionId) -> Vec<WatchEvent> {
        match self.owner_mut(pid).map(|host| host.persist(zk, pid)) {
            Some(Ok(events)) => events,
            Some(Err(_)) => {
                self.stats.fenced_writes += 1;
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    fn persist_registry(&mut self, zk: &mut ZkStore) -> Vec<WatchEvent> {
        let snapshot = self.registry.snapshot();
        match self.registry_lease.write(zk, paths::REGISTRY, snapshot) {
            Ok(events) => events,
            Err(_) => {
                self.stats.fenced_writes += 1;
                Vec::new()
            }
        }
    }
}

/// A running application server's liveness registration: an ephemeral
/// znode on its own session. Dropping the session (crash, partition)
/// deletes the node and notifies the control plane's exists watch.
pub struct ServerLease {
    /// The registered server.
    pub server: ServerId,
    /// The session holding the ephemeral.
    pub session: SessionId,
}

impl ServerLease {
    /// Registers a server: fresh session plus `/servers/srv<id>`.
    pub fn register(
        zk: &mut ZkStore,
        server: ServerId,
    ) -> Result<(Self, Vec<WatchEvent>), SmError> {
        let session = zk.connect();
        let mut events = ensure_base(zk, session)?;
        let (_, ev) = zk.create(
            session,
            &paths::server_node(server),
            Vec::new(),
            CreateMode::Ephemeral,
        )?;
        events.extend(ev);
        Ok((Self { server, session }, events))
    }

    /// Expires the server's session, deleting its liveness node.
    pub fn expire(self, zk: &mut ZkStore) -> Vec<WatchEvent> {
        zk.expire_session(self.session)
    }
}

/// Client-side half of the §3.2 fencing contract: a server tracks the
/// last time the control plane acknowledged its heartbeat and stops
/// serving on its own once that silence exceeds `timeout`.
///
/// The safety rule is `timeout` strictly **less** than the ZK session
/// timeout (with margin for one heartbeat interval plus network skew):
/// a partitioned server must have wiped itself *before* the control
/// plane can see its ephemeral vanish and promote a replacement —
/// otherwise a stale-lease window opens where two unfenced primaries
/// overlap. The DST oracle's `dual_primary` invariant exists to catch
/// exactly the runs where a world gets this ordering wrong.
#[derive(Clone, Copy, Debug)]
pub struct SelfFenceTimer {
    last_ack: sm_sim::SimTime,
    timeout: sm_sim::SimDuration,
}

impl SelfFenceTimer {
    /// A timer that considers itself acked at `now`.
    pub fn new(now: sm_sim::SimTime, timeout: sm_sim::SimDuration) -> Self {
        Self {
            last_ack: now,
            timeout,
        }
    }

    /// Records a heartbeat acknowledgement arriving at `now`. Stale
    /// acks (older than the last recorded one — the net can reorder)
    /// are ignored so they cannot push the fence deadline backwards.
    pub fn ack(&mut self, now: sm_sim::SimTime) {
        if now >= self.last_ack {
            self.last_ack = now;
        }
    }

    /// True once the server has gone unacknowledged long enough that
    /// it must stop serving: `now - last_ack > timeout`. The bound is
    /// strict so a timer checked exactly at the deadline still holds.
    pub fn must_fence(&self, now: sm_sim::SimTime) -> bool {
        now.since(self.last_ack) > self.timeout
    }
}

fn no_policy(app: AppId) -> SmError {
    SmError::NotFound(format!("no policy for {app:?}"))
}

fn locate(locations: &BTreeMap<ServerId, Location>, server: ServerId) -> Location {
    locations.get(&server).copied().unwrap_or(Location {
        region: sm_types::RegionId(0),
        datacenter: 0,
        rack: server.raw(),
        machine: sm_types::MachineId(server.raw()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control_plane::ApplicationManager;
    use sm_allocator::{AllocConfig, MoveCaps};
    use sm_sim::{SimDuration, SimTime};
    use sm_types::{MachineId, Metric, RegionId, ShardId};

    fn config() -> OrchestratorConfig {
        OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps::default(),
            alloc: AllocConfig::new(vec![Metric::ShardCount.id()]),
            skip_cutover_ack: false,
        }
    }

    fn loc(s: u32) -> Location {
        Location {
            region: RegionId(0),
            datacenter: 0,
            rack: s,
            machine: MachineId(s),
        }
    }

    struct Rig {
        zk: ZkStore,
        cp: HaControlPlane,
        servers: BTreeMap<ServerId, ServerLease>,
        partitions: Vec<Partition>,
    }

    /// Builds a world: `n_servers` registered servers split into
    /// partitions of at most 4 servers — one per mini-SM — all deployed
    /// and settled.
    fn rig(n_servers: u32, n_shards: u64) -> Rig {
        rig_capped(n_servers, n_shards, 4)
    }

    /// [`rig`] with a mini-SM taking partitions up to `minism_cap` servers.
    fn rig_capped(n_servers: u32, n_shards: u64, minism_cap: usize) -> Rig {
        let mut zk = ZkStore::new();
        let (mut cp, _events) = HaControlPlane::new(
            &mut zk,
            config(),
            LoadVector::single(Metric::ShardCount.id(), 1000.0),
            minism_cap,
        )
        .expect("control plane");
        let app = AppId(0);
        cp.register_app(app, AppPolicy::primary_only());
        let mut r = Rig {
            zk,
            cp,
            servers: BTreeMap::new(),
            partitions: Vec::new(),
        };
        let server_ids: Vec<ServerId> = (0..n_servers).map(ServerId).collect();
        for &s in &server_ids {
            r.cp.register_server(&mut r.zk, s, loc(s.raw()));
            let (lease, events) = ServerLease::register(&mut r.zk, s).expect("server lease");
            r.servers.insert(s, lease);
            // Deliver the Created events so one-shot watches re-arm —
            // exactly what the embedding world does.
            deliver(&mut r, events);
        }
        let shard_ids: Vec<ShardId> = (0..n_shards).map(ShardId).collect();
        let mut mgr = ApplicationManager::new(4);
        let partitions = mgr.partition_app(app, &server_ids, &shard_ids);
        for p in &partitions {
            let events = r.cp.deploy_partition(&mut r.zk, p).expect("deploy");
            deliver(&mut r, events);
        }
        r.partitions = partitions;
        settle(&mut r);
        r
    }

    /// Acks every outstanding RPC until the command stream drains.
    fn settle(r: &mut Rig) {
        for _round in 0..200 {
            let cmds = r.cp.take_commands();
            if cmds.is_empty() {
                return;
            }
            for (_pid, cmd) in cmds {
                if let OrchCommand::Rpc { server, rpc } = cmd {
                    // Dead servers never ack.
                    if r.servers.contains_key(&server) {
                        r.cp.rpc_acked(&mut r.zk, server, rpc);
                    }
                }
            }
        }
    }

    /// Delivers every pending watch event (and those it generates).
    fn deliver(r: &mut Rig, mut events: Vec<WatchEvent>) {
        let mut guard = 0;
        while let Some(e) = events.pop() {
            guard += 1;
            assert!(guard < 10_000, "watch event storm");
            let more = r.cp.handle_event(&mut r.zk, &e);
            events.extend(more);
        }
    }

    #[test]
    fn deploy_persists_fenced_state() {
        let r = rig(8, 32);
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        for p in &r.partitions {
            let (data, stat) =
                r.zk.get(&paths::partition_state(p.id))
                    .expect("state znode exists");
            assert!(data.starts_with(b"smorch v1"));
            assert!(stat.version > 0, "state was persisted more than once");
        }
        let (reg, _) = r.zk.get(paths::REGISTRY).expect("registry znode");
        assert!(reg.starts_with(b"smreg v1"));
        assert_eq!(r.cp.stats().fenced_writes, 0);
    }

    #[test]
    fn minism_crash_fails_over_from_snapshot() {
        let mut r = rig(8, 32);
        let dead = *r.cp.running_minisms().first().expect("a mini-SM");
        let events = r.cp.crash_minism(&mut r.zk, dead);
        assert!(
            events
                .iter()
                .any(|e| e.path == paths::MINISMS && e.kind == WatchKind::ChildrenChanged),
            "expiry must fire the registry's child watch: {events:?}"
        );
        deliver(&mut r, events);
        settle(&mut r);
        assert!(!r.cp.running_minisms().contains(&dead));
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let s = r.cp.stats();
        assert_eq!(s.failovers, 1);
        assert!(s.snapshot_restores > 0, "{s:?}");
        for p in &r.partitions {
            assert_ne!(r.cp.registry.minism_of(p.id), Some(dead));
        }
    }

    #[test]
    fn a_server_lost_after_a_takeover_is_repaired_by_the_new_owner() {
        let mut r = rig(8, 32);
        let victim = ServerId(3);
        let part = r
            .partitions
            .iter()
            .find(|p| p.servers.contains(&victim))
            .map(|p| p.id)
            .expect("victim's partition");
        let owner = r.cp.registry.minism_of(part).expect("owned");
        let events = r.cp.crash_minism(&mut r.zk, owner);
        deliver(&mut r, events);
        settle(&mut r);
        assert_ne!(r.cp.registry.minism_of(part), Some(owner));
        // The new owner, not the dead one, hears the server's loss.
        let lease = r.servers.remove(&victim).expect("registered");
        let events = lease.expire(&mut r.zk);
        deliver(&mut r, events);
        settle(&mut r);
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let orch = r.cp.orchestrator(part).expect("new owner");
        assert!(orch.shards_on(victim).is_empty(), "victim still assigned");
        let s = r.cp.stats();
        assert_eq!(s.failovers, 1, "{s:?}");
        assert!(s.snapshot_restores > 0, "{s:?}");
    }

    #[test]
    fn zombie_minism_write_is_fenced_and_absent() {
        let mut r = rig(8, 32);
        let target = *r.cp.running_minisms().first().expect("a mini-SM");
        let (zombie, events) = r.cp.zombie_minism(&mut r.zk, target);
        let mut zombie = zombie.expect("zombie handle");
        let pid = *zombie.partitions().next().expect("hosts a partition");
        let before = r.zk.get(&paths::partition_state(pid)).expect("state");
        // Failover re-owns the partition...
        deliver(&mut r, events);
        settle(&mut r);
        // ...then the zombie tries to write its stale state.
        let err = zombie.persist(&mut r.zk, pid);
        assert!(matches!(err, Err(SmError::Unavailable(_))));
        assert!(zombie.lease.is_fenced());
        // The zombie's write is provably absent: the znode holds what
        // the new owner wrote, which restores to a valid orchestrator.
        let after = r.zk.get(&paths::partition_state(pid)).expect("state");
        assert!(after.1.version >= before.1.version);
        assert!(after.0.starts_with(b"smorch v1"));
        // And a second attempt stays fenced without touching ZK.
        let again = zombie.persist(&mut r.zk, pid);
        assert!(matches!(again, Err(SmError::Unavailable(_))));
    }

    #[test]
    fn one_minism_hosts_every_partition_that_fits() {
        let mut r = rig_capped(8, 32, 100);
        assert_eq!(r.partitions.len(), 2);
        let running = r.cp.running_minisms();
        assert_eq!(running.len(), 1, "both partitions fit one mini-SM");
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let (zombie, _events) = r.cp.zombie_minism(&mut r.zk, running[0]);
        let hosted: Vec<PartitionId> = zombie.expect("running").partitions().copied().collect();
        let deployed: Vec<PartitionId> = r.partitions.iter().map(|p| p.id).collect();
        assert_eq!(hosted, deployed);
    }

    #[test]
    fn a_corrupt_snapshot_rebuilds_from_membership_and_is_counted() {
        let mut r = rig(8, 32);
        let pid = r.partitions[0].id;
        r.zk.set(&paths::partition_state(pid), b"garbage".to_vec(), None)
            .expect("state znode exists");
        let owner = r.cp.registry.minism_of(pid).expect("owned");
        let events = r.cp.crash_minism(&mut r.zk, owner);
        deliver(&mut r, events);
        let s = r.cp.stats();
        assert_eq!(
            (
                s.failovers,
                s.rebuilds,
                s.recovery_errors,
                s.snapshot_restores
            ),
            (1, 1, 1, 0),
            "{s:?}"
        );
        settle(&mut r);
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let (state, _) = r.zk.get(&paths::partition_state(pid)).expect("state");
        assert!(
            state.starts_with(b"smorch v1"),
            "the new owner overwrote it"
        );
    }

    #[test]
    fn an_ack_for_a_partition_in_failover_is_dropped_and_counted() {
        let mut r = rig(8, 32);
        let part = r.partitions[0].clone();
        let owner = r.cp.registry.minism_of(part.id).expect("owned");
        let pending = r.cp.crash_minism(&mut r.zk, owner);
        let before = r.zk.get(&paths::partition_state(part.id)).expect("state");
        // The ChildrenChanged event is still in flight: no owner runs.
        let rpc = ServerRpc::DropShard {
            shard: part.shards[0],
        };
        let events = r.cp.rpc_acked(&mut r.zk, part.servers[0], rpc);
        assert!(events.is_empty());
        assert_eq!(r.cp.stats().dropped_acks, 1);
        // A liveness notification for the same partition is not an ack.
        let lease = r.servers.remove(&part.servers[1]).expect("registered");
        let expired = lease.expire(&mut r.zk);
        deliver(&mut r, expired);
        assert_eq!(r.cp.stats().dropped_acks, 1);
        let after = r.zk.get(&paths::partition_state(part.id)).expect("state");
        assert_eq!(after, before, "nothing was written");
        // The failover replays the down server onto the new owner.
        deliver(&mut r, pending);
        settle(&mut r);
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let orch = r.cp.orchestrator(part.id).expect("new owner");
        assert!(orch.shards_on(part.servers[1]).is_empty());
    }

    #[test]
    fn deploy_without_a_policy_registers_nothing() {
        let mut zk = ZkStore::new();
        let capacity = LoadVector::single(Metric::ShardCount.id(), 1000.0);
        let (mut cp, _events) =
            HaControlPlane::new(&mut zk, config(), capacity, 4).expect("control plane");
        let servers: Vec<ServerId> = (0..4).map(ServerId).collect();
        let shards: Vec<ShardId> = (0..8).map(ShardId).collect();
        let part = ApplicationManager::new(4)
            .partition_app(AppId(7), &servers, &shards)
            .remove(0);
        let err = cp.deploy_partition(&mut zk, &part);
        assert!(matches!(err, Err(SmError::NotFound(_))), "{err:?}");
        assert_eq!(cp.registry.minism_count(), 0);
        assert!(cp.running_minisms().is_empty());
        assert!(cp.unplaced().is_empty(), "the partition is not on record");
        // Its servers are unknown to the routing index: a counted drop.
        let rpc = ServerRpc::DropShard { shard: shards[0] };
        assert!(cp.rpc_acked(&mut zk, servers[0], rpc).is_empty());
        assert_eq!(cp.stats().dropped_acks, 1);
    }

    #[test]
    fn stale_version_fences_even_with_live_session() {
        // Two leases racing on one znode: the one that lost its cached
        // version gets Conflict and fences, even though its session is
        // still alive.
        let mut zk = ZkStore::new();
        let mut a = ZkLease::new(&mut zk);
        let mut b = ZkLease::new(&mut zk);
        a.write(&mut zk, "/sm", vec![]).expect("mkdir");
        a.write(&mut zk, "/sm/x", b"a1".to_vec()).expect("create");
        b.write(&mut zk, "/sm/x", b"b1".to_vec()).expect("adopt");
        let err = a.write(&mut zk, "/sm/x", b"a2".to_vec());
        assert!(matches!(err, Err(SmError::Conflict(_))));
        assert!(a.is_fenced());
        assert_eq!(zk.get("/sm/x").expect("node").0, b"b1");
    }

    #[test]
    fn server_expiry_is_watch_driven() {
        let mut r = rig(8, 32);
        let victim = ServerId(3);
        let lease = r.servers.remove(&victim).expect("registered");
        let events = lease.expire(&mut r.zk);
        assert!(
            events
                .iter()
                .any(|e| e.kind == WatchKind::Deleted && e.path == paths::server_node(victim)),
            "{events:?}"
        );
        deliver(&mut r, events);
        settle(&mut r);
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
        let pid = *r
            .cp
            .partitions
            .iter()
            .find(|(_, p)| p.servers.contains(&victim))
            .map(|(pid, _)| pid)
            .expect("victim's partition");
        let orch = r.cp.orchestrator(pid).expect("owner");
        assert!(orch.shards_on(victim).is_empty(), "victim still assigned");
        // The server comes back: new lease, Created event, reconcile.
        let (lease, events) = ServerLease::register(&mut r.zk, victim).expect("re-register");
        r.servers.insert(victim, lease);
        deliver(&mut r, events);
        settle(&mut r);
        assert!(r.cp.fully_placed());
    }

    #[test]
    fn restart_rejoins_after_failover_only() {
        let mut r = rig(8, 32);
        let dead = *r.cp.running_minisms().first().expect("a mini-SM");
        let events = r.cp.crash_minism(&mut r.zk, dead);
        // Before the expiry is observed, the registry still lists the
        // old incarnation: restart must refuse.
        let early = r.cp.restart_minism(&mut r.zk, dead);
        assert!(early.is_err());
        deliver(&mut r, events);
        settle(&mut r);
        let events = r.cp.restart_minism(&mut r.zk, dead).expect("rejoin");
        deliver(&mut r, events);
        assert!(r.cp.running_minisms().contains(&dead));
    }

    #[test]
    fn stale_deleted_notification_defers_to_current_state() {
        // A partition can delay a `Deleted` watch event past the
        // server's re-registration. handle_event must trust the
        // *current* exists() state, not the stale event kind, or it
        // would mark a healthy, re-registered server down.
        let mut r = rig(8, 32);
        let victim = ServerId(3);
        let lease = r.servers.remove(&victim).expect("registered");
        let events = lease.expire(&mut r.zk);
        let stale: Vec<WatchEvent> = events
            .iter()
            .filter(|e| e.kind == WatchKind::Deleted && e.path == paths::server_node(victim))
            .cloned()
            .collect();
        assert!(!stale.is_empty());
        // The node is already back before the Deleted event is seen.
        let (lease, reg_events) = ServerLease::register(&mut r.zk, victim).expect("re-register");
        r.servers.insert(victim, lease);
        for e in stale {
            r.cp.handle_event(&mut r.zk, &e);
        }
        deliver(&mut r, reg_events);
        settle(&mut r);
        assert!(
            !r.cp.down_servers.contains(&victim),
            "stale Deleted must not mark a live server down"
        );
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
    }

    #[test]
    fn stale_created_notification_defers_to_current_state() {
        // The converse reordering: a delayed `Created` event arrives
        // after the node is already gone. Trusting the event kind would
        // resurrect a dead server; the exists() re-check marks it down.
        let mut r = rig(8, 32);
        let victim = ServerId(3);
        let lease = r.servers.remove(&victim).expect("registered");
        let expiry_events = lease.expire(&mut r.zk);
        let stale_created = WatchEvent {
            watcher: r.cp.session,
            path: paths::server_node(victim),
            kind: WatchKind::Created,
        };
        let more = r.cp.handle_event(&mut r.zk, &stale_created);
        deliver(&mut r, more);
        assert!(
            r.cp.down_servers.contains(&victim),
            "stale Created must not resurrect a deleted server"
        );
        // The real Deleted events are then harmless duplicates.
        deliver(&mut r, expiry_events);
        settle(&mut r);
        assert!(r.cp.down_servers.contains(&victim));
        assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
    }

    #[test]
    fn self_fence_timer_fences_strictly_after_timeout() {
        let timeout = SimDuration::from_secs(5);
        let mut t = SelfFenceTimer::new(SimTime::ZERO, timeout);
        assert!(!t.must_fence(SimTime::from_secs(5)), "bound is strict");
        assert!(t.must_fence(SimTime::from_secs(5) + SimDuration::from_micros(1)));
        t.ack(SimTime::from_secs(4));
        assert!(!t.must_fence(SimTime::from_secs(9)));
        assert!(t.must_fence(SimTime::from_secs(10)));
    }

    #[test]
    fn self_fence_timer_ignores_reordered_stale_acks() {
        let mut t = SelfFenceTimer::new(SimTime::from_secs(10), SimDuration::from_secs(5));
        // A delayed ack from t=2 arrives after the t=10 one: the net
        // reordered. It must not move the deadline backwards.
        t.ack(SimTime::from_secs(2));
        assert!(!t.must_fence(SimTime::from_secs(15)));
        assert!(t.must_fence(SimTime::from_secs(16)));
    }
}
