//! The scale-out global control plane (§6.1, Figure 14).
//!
//! A single SM control plane cannot manage millions of servers and
//! billions of shards, so SM shards *itself*: applications are divided
//! into partitions (thousands of servers, hundreds of thousands of
//! replicas each), partitions are assigned to mini-SMs, and mini-SMs
//! scale out horizontally. This module is that bookkeeping layer:
//!
//! - [`ApplicationRegistry`] — applications and their policies;
//! - [`ApplicationManager`] — splits an application's servers/shards
//!   into partitions;
//! - [`PartitionRegistry`] — assigns partitions to mini-SMs,
//!   least-loaded first, adding mini-SMs as capacity demands;
//! - [`ReadService`] — indices over control-plane metadata for queries.

use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use sm_types::{AppId, AppPolicy, MiniSmId, PartitionId, ServerId, ShardId, SmError};
use std::collections::BTreeMap;

/// Per-application record in the registry.
#[derive(Clone, Debug)]
pub struct AppRecord {
    /// Human name.
    pub name: String,
    /// Policy.
    pub policy: AppPolicy,
    /// The application's partitions, in creation order.
    pub partitions: Vec<PartitionId>,
}

/// The application registry: the entry point of Figure 14.
#[derive(Debug, Default)]
pub struct ApplicationRegistry {
    apps: BTreeMap<AppId, AppRecord>,
    next_app: u32,
}

impl ApplicationRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an application, returning its id.
    pub fn register(&mut self, name: impl Into<String>, policy: AppPolicy) -> AppId {
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.apps.insert(
            id,
            AppRecord {
                name: name.into(),
                policy,
                partitions: Vec::new(),
            },
        );
        id
    }

    /// Looks up an application.
    pub fn get(&self, app: AppId) -> Option<&AppRecord> {
        self.apps.get(&app)
    }

    /// Records that `app` gained a partition.
    pub fn add_partition(&mut self, app: AppId, partition: PartitionId) {
        if let Some(rec) = self.apps.get_mut(&app) {
            rec.partitions.push(partition);
        }
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no application is registered.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Iterates over all applications.
    pub fn iter(&self) -> impl Iterator<Item = (&AppId, &AppRecord)> {
        self.apps.iter()
    }
}

/// A partition: a disjoint slice of one application's servers and
/// shards, managed by exactly one mini-SM (§6.1). A shard's replicas
/// always stay within one partition.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Identifier.
    pub id: PartitionId,
    /// Owning application.
    pub app: AppId,
    /// Servers in this partition.
    pub servers: Vec<ServerId>,
    /// Shards in this partition.
    pub shards: Vec<ShardId>,
}

/// Splits applications into partitions.
#[derive(Debug)]
pub struct ApplicationManager {
    /// Maximum servers per partition (the paper: "thousands").
    pub max_servers_per_partition: usize,
    next_partition: u32,
}

impl ApplicationManager {
    /// Creates a manager with the given partition size limit.
    pub fn new(max_servers_per_partition: usize) -> Self {
        assert!(max_servers_per_partition > 0);
        Self {
            max_servers_per_partition,
            next_partition: 0,
        }
    }

    /// Divides an application into partitions: servers are split into
    /// chunks of at most `max_servers_per_partition`, and shards are
    /// distributed round-robin so every partition gets a proportional
    /// slice. Replicas of one shard live in one partition by
    /// construction (the shard itself belongs to exactly one).
    // sm-lint: allow(P1) — indexes are `i % n_parts` with n_parts = len ≥ 1
    pub fn partition_app(
        &mut self,
        app: AppId,
        servers: &[ServerId],
        shards: &[ShardId],
    ) -> Vec<Partition> {
        let n_parts = servers
            .len()
            .div_ceil(self.max_servers_per_partition)
            .max(1);
        let mut parts: Vec<Partition> = (0..n_parts)
            .map(|_| {
                let id = PartitionId(self.next_partition);
                self.next_partition += 1;
                Partition {
                    id,
                    app,
                    servers: Vec::new(),
                    shards: Vec::new(),
                }
            })
            .collect();
        for (i, &srv) in servers.iter().enumerate() {
            parts[i % n_parts].servers.push(srv);
        }
        for (i, &shard) in shards.iter().enumerate() {
            parts[i % n_parts].shards.push(shard);
        }
        parts
    }
}

/// Capacity bookkeeping for one mini-SM.
#[derive(Clone, Debug, Default)]
pub struct MiniSmInfo {
    /// Partitions assigned.
    pub partitions: Vec<PartitionId>,
    /// Servers managed (sum over partitions).
    pub servers: usize,
    /// Shard replicas managed (sum over partitions).
    pub replicas: usize,
}

/// Assigns partitions to mini-SMs (Figure 14's partition registry).
#[derive(Debug)]
pub struct PartitionRegistry {
    mini_sms: BTreeMap<MiniSmId, MiniSmInfo>,
    assignment: BTreeMap<PartitionId, MiniSmId>,
    /// A mini-SM takes new partitions until it manages this many servers.
    pub max_servers_per_minism: usize,
    /// ... or this many shard replicas, whichever fills first.
    pub max_replicas_per_minism: usize,
    next_minism: u32,
}

impl PartitionRegistry {
    /// Creates a registry; mini-SMs are added on demand.
    pub fn new(max_servers_per_minism: usize) -> Self {
        assert!(max_servers_per_minism > 0);
        Self {
            mini_sms: BTreeMap::new(),
            assignment: BTreeMap::new(),
            max_servers_per_minism,
            max_replicas_per_minism: usize::MAX,
            next_minism: 0,
        }
    }

    /// Sets the replica capacity of a mini-SM (builder style).
    pub fn with_replica_cap(mut self, max_replicas: usize) -> Self {
        assert!(max_replicas > 0);
        self.max_replicas_per_minism = max_replicas;
        self
    }

    /// Assigns a partition to the least-loaded mini-SM with room,
    /// scaling out with a fresh mini-SM when none fits.
    pub fn assign(&mut self, partition: &Partition, replica_count: usize) -> MiniSmId {
        let fit = self
            .mini_sms
            .iter()
            .filter(|(_, info)| {
                info.servers + partition.servers.len() <= self.max_servers_per_minism
                    && info.replicas + replica_count <= self.max_replicas_per_minism
            })
            .min_by_key(|(_, info)| info.servers)
            .map(|(id, _)| *id);
        let id = fit.unwrap_or_else(|| {
            let id = MiniSmId(self.next_minism);
            self.next_minism += 1;
            id
        });
        let info = self.mini_sms.entry(id).or_default();
        info.partitions.push(partition.id);
        info.servers += partition.servers.len();
        info.replicas += replica_count;
        self.assignment.insert(partition.id, id);
        id
    }

    /// The mini-SM managing `partition`.
    pub fn minism_of(&self, partition: PartitionId) -> Option<MiniSmId> {
        self.assignment.get(&partition).copied()
    }

    /// Removes a mini-SM (it crashed or its ZK session expired) and
    /// returns the partitions it was managing, now orphaned and waiting
    /// for reassignment via [`PartitionRegistry::assign`]. Removing an
    /// unknown mini-SM is a no-op returning no orphans, so a duplicate
    /// expiry notification is harmless.
    pub(crate) fn remove_minism(&mut self, dead: MiniSmId) -> Vec<PartitionId> {
        let Some(info) = self.mini_sms.remove(&dead) else {
            return Vec::new();
        };
        for partition in &info.partitions {
            self.assignment.remove(partition);
        }
        info.partitions
    }

    /// Re-admits a mini-SM after a restart: it comes back empty and
    /// becomes eligible for future [`assign`](Self::assign) calls.
    /// Returns [`SmError::Conflict`] if a mini-SM with that id is still
    /// registered — the caller must fail it over first.
    pub(crate) fn restore_minism(&mut self, id: MiniSmId) -> Result<(), SmError> {
        if self.mini_sms.contains_key(&id) {
            return Err(SmError::Conflict(format!(
                "mini-SM {id:?} is already registered"
            )));
        }
        self.mini_sms.insert(id, MiniSmInfo::default());
        self.next_minism = self.next_minism.max(id.raw() + 1);
        Ok(())
    }

    /// All mini-SMs with their loads.
    pub fn mini_sms(&self) -> impl Iterator<Item = (&MiniSmId, &MiniSmInfo)> {
        self.mini_sms.iter()
    }

    /// Number of mini-SMs in service.
    pub fn minism_count(&self) -> usize {
        self.mini_sms.len()
    }

    /// Serializes the registry into the hand-rolled line format stored
    /// in its znode (`smreg v1`). Deterministic: BTreeMap iteration
    /// order, no timestamps.
    pub fn snapshot(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::from("smreg v1\n");
        let _infallible = writeln!(
            out,
            "caps {} {} {}",
            self.max_servers_per_minism, self.max_replicas_per_minism, self.next_minism
        );
        for (id, info) in &self.mini_sms {
            let _infallible = writeln!(
                out,
                "minism {} {} {}",
                id.raw(),
                info.servers,
                info.replicas
            );
        }
        for (partition, minism) in &self.assignment {
            let _infallible = writeln!(out, "assign {} {}", partition.raw(), minism.raw());
        }
        out.into_bytes()
    }

    /// Restores a registry from [`snapshot`](Self::snapshot) bytes,
    /// replacing all current state. Per-mini-SM partition lists are
    /// rebuilt from the `assign` lines.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SmError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SmError::InvalidArgument("registry snapshot is not UTF-8".into()))?;
        let mut lines = text.lines();
        if lines.next() != Some("smreg v1") {
            return Err(SmError::InvalidArgument(
                "registry snapshot missing 'smreg v1' header".into(),
            ));
        }
        let bad =
            |line: &str| SmError::InvalidArgument(format!("malformed registry line: {line:?}"));
        let mut mini_sms: BTreeMap<MiniSmId, MiniSmInfo> = BTreeMap::new();
        let mut assignment: BTreeMap<PartitionId, MiniSmId> = BTreeMap::new();
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["caps", srv, rep, next] => {
                    self.max_servers_per_minism = srv.parse().map_err(|_| bad(line))?;
                    self.max_replicas_per_minism = rep.parse().map_err(|_| bad(line))?;
                    self.next_minism = next.parse().map_err(|_| bad(line))?;
                }
                ["minism", id, servers, replicas] => {
                    let id = MiniSmId(id.parse().map_err(|_| bad(line))?);
                    let info = mini_sms.entry(id).or_default();
                    info.servers = servers.parse().map_err(|_| bad(line))?;
                    info.replicas = replicas.parse().map_err(|_| bad(line))?;
                }
                ["assign", partition, minism] => {
                    let partition = PartitionId(partition.parse().map_err(|_| bad(line))?);
                    let minism = MiniSmId(minism.parse().map_err(|_| bad(line))?);
                    mini_sms
                        .entry(minism)
                        .or_default()
                        .partitions
                        .push(partition);
                    assignment.insert(partition, minism);
                }
                [] => {}
                _ => return Err(bad(line)),
            }
        }
        self.mini_sms = mini_sms;
        self.assignment = assignment;
        Ok(())
    }
}

/// Read-only indices over control-plane metadata (Figure 14's read
/// service): answers "which partition/mini-SM serves shard X of app Y"
/// and "what does server Z belong to" without touching the mini-SMs.
#[derive(Debug, Default)]
pub struct ReadService {
    shard_to_partition: BTreeMap<(AppId, ShardId), PartitionId>,
    server_to_partition: BTreeMap<ServerId, PartitionId>,
}

impl ReadService {
    /// Creates an empty read service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a partition's membership.
    pub fn index_partition(&mut self, partition: &Partition) {
        for &shard in &partition.shards {
            self.shard_to_partition
                .insert((partition.app, shard), partition.id);
        }
        for &server in &partition.servers {
            self.server_to_partition.insert(server, partition.id);
        }
    }

    /// The partition holding `(app, shard)`.
    pub fn partition_of_shard(&self, app: AppId, shard: ShardId) -> Option<PartitionId> {
        self.shard_to_partition.get(&(app, shard)).copied()
    }

    /// The partition a server belongs to.
    pub(crate) fn partition_of_server(&self, server: ServerId) -> Option<PartitionId> {
        self.server_to_partition.get(&server).copied()
    }
}

/// One mini-SM instance (Figure 14's "Mini-SM Control Plane"): a
/// process hosting the orchestrators of the partitions assigned to it.
///
/// Each partition gets its own [`Orchestrator`]; the mini-SM is a thin
/// multiplexer that owns them and routes by partition id. In production
/// each mini-SM is the Figure 10 control plane (orchestrator +
/// allocator + ZooKeeper client) for its partitions.
pub struct MiniSm {
    /// Identifier.
    pub id: MiniSmId,
    orchestrators: BTreeMap<PartitionId, Orchestrator>,
}

impl MiniSm {
    /// Creates an empty mini-SM.
    pub fn new(id: MiniSmId) -> Self {
        Self {
            id,
            orchestrators: BTreeMap::new(),
        }
    }

    /// Takes over a partition: builds its orchestrator from the
    /// partition's membership and the app's policy.
    pub(crate) fn adopt_partition(
        &mut self,
        partition: &Partition,
        policy: AppPolicy,
        config: OrchestratorConfig,
        locate: impl Fn(ServerId) -> sm_types::Location,
        capacity: sm_types::LoadVector,
    ) -> &mut Orchestrator {
        let mut orch = Orchestrator::new(partition.app, policy, config);
        for &server in &partition.servers {
            orch.register_server(server, locate(server), capacity);
        }
        orch.register_shards(partition.shards.iter().copied());
        // entry() hands back the freshly inserted orchestrator without a
        // second lookup that would need an unreachable panic path.
        match self.orchestrators.entry(partition.id) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.insert(orch);
                e.into_mut()
            }
            std::collections::btree_map::Entry::Vacant(e) => e.insert(orch),
        }
    }

    /// The orchestrator of one partition.
    pub fn orchestrator(&mut self, partition: PartitionId) -> Option<&mut Orchestrator> {
        self.orchestrators.get_mut(&partition)
    }

    /// Partitions currently managed.
    pub fn partitions(&self) -> impl Iterator<Item = &PartitionId> {
        self.orchestrators.keys()
    }

    /// Total shard replicas under management.
    pub fn replica_count(&self) -> usize {
        self.orchestrators
            .values()
            .map(|o| o.assignment().replica_count())
            .sum()
    }
}

/// The global entry point (Figure 14's frontend): resolves an
/// application's shard to the mini-SM responsible for it, composing the
/// application registry, read service, and partition registry.
// sm-lint: allow(U1) — PAPER.md "Twine cluster manager" row (its TaskControl calls enter SM through Fig 10's frontend); no world drives it yet
pub struct Frontend<'a> {
    /// Application registry.
    pub apps: &'a ApplicationRegistry,
    /// Metadata indices.
    pub reads: &'a ReadService,
    /// Partition-to-mini-SM assignment.
    pub partitions: &'a PartitionRegistry,
}

impl<'a> Frontend<'a> {
    /// The mini-SM managing `(app, shard)`, if registered.
    // sm-lint: allow(U1) — PAPER.md "Twine cluster manager" row (its TaskControl calls enter SM through Fig 10's frontend); no world drives it yet
    pub fn minism_for_shard(&self, app: AppId, shard: ShardId) -> Option<MiniSmId> {
        let partition = self.reads.partition_of_shard(app, shard)?;
        self.partitions.minism_of(partition)
    }

    /// The mini-SM managing a server, if registered.
    // sm-lint: allow(U1) — PAPER.md "Twine cluster manager" row (its TaskControl calls enter SM through Fig 10's frontend); no world drives it yet
    pub fn minism_for_server(&self, server: ServerId) -> Option<MiniSmId> {
        let partition = self.reads.partition_of_server(server)?;
        self.partitions.minism_of(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }
    fn shards(n: u64) -> Vec<ShardId> {
        (0..n).map(ShardId).collect()
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = ApplicationRegistry::new();
        let a = reg.register("kvstore", AppPolicy::primary_only());
        let b = reg.register("queue", AppPolicy::secondary_only(2));
        assert_ne!(a, b);
        assert_eq!(reg.get(a).unwrap().name, "kvstore");
        assert_eq!(reg.len(), 2);
        reg.add_partition(a, PartitionId(0));
        assert_eq!(reg.get(a).unwrap().partitions, vec![PartitionId(0)]);
    }

    #[test]
    fn small_app_is_one_partition() {
        let mut mgr = ApplicationManager::new(1000);
        let parts = mgr.partition_app(AppId(0), &servers(10), &shards(100));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].servers.len(), 10);
        assert_eq!(parts[0].shards.len(), 100);
    }

    #[test]
    fn large_app_splits_evenly() {
        let mut mgr = ApplicationManager::new(100);
        let parts = mgr.partition_app(AppId(0), &servers(250), &shards(1000));
        assert_eq!(parts.len(), 3);
        // Servers split near-evenly; shards proportional.
        for p in &parts {
            assert!(p.servers.len() >= 83 && p.servers.len() <= 84);
            assert!(p.shards.len() >= 333 && p.shards.len() <= 334);
        }
        // Disjoint shard sets.
        let mut all: Vec<ShardId> = parts.iter().flat_map(|p| p.shards.clone()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn partition_ids_are_unique_across_apps() {
        let mut mgr = ApplicationManager::new(100);
        let p1 = mgr.partition_app(AppId(0), &servers(150), &shards(10));
        let p2 = mgr.partition_app(AppId(1), &servers(150), &shards(10));
        let mut ids: Vec<PartitionId> = p1.iter().chain(p2.iter()).map(|p| p.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn partition_registry_scales_out() {
        let mut mgr = ApplicationManager::new(50);
        let mut reg = PartitionRegistry::new(100);
        // 8 partitions of 50 servers: 2 per mini-SM -> 4 mini-SMs.
        let parts = mgr.partition_app(AppId(0), &servers(400), &shards(800));
        for p in &parts {
            reg.assign(p, p.shards.len() * 2);
        }
        assert_eq!(reg.minism_count(), 4);
        for (_, info) in reg.mini_sms() {
            assert_eq!(info.servers, 100);
            assert_eq!(info.partitions.len(), 2);
        }
        // Every partition resolvable.
        for p in &parts {
            assert!(reg.minism_of(p.id).is_some());
        }
    }

    #[test]
    fn registry_prefers_least_loaded() {
        let mut mgr = ApplicationManager::new(10);
        let mut reg = PartitionRegistry::new(100);
        let small = mgr.partition_app(AppId(0), &servers(10), &shards(1));
        let m0 = reg.assign(&small[0], 1);
        // Next assignment goes to the same (only) mini-SM while it fits.
        let small2 = mgr.partition_app(AppId(1), &servers(10), &shards(1));
        let m1 = reg.assign(&small2[0], 1);
        assert_eq!(m0, m1);
    }

    #[test]
    fn minism_hosts_partition_orchestrators() {
        use sm_allocator::{AllocConfig, MoveCaps};
        use sm_types::{LoadVector, Location, MachineId, Metric, RegionId};
        let mut mgr = ApplicationManager::new(4);
        let parts = mgr.partition_app(AppId(0), &servers(8), &shards(16));
        assert_eq!(parts.len(), 2);
        let mut minism = MiniSm::new(MiniSmId(0));
        let config = OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps::default(),
            alloc: AllocConfig::new(vec![Metric::ShardCount.id()]),
            skip_cutover_ack: false,
        };
        for p in &parts {
            let orch = minism.adopt_partition(
                p,
                AppPolicy::primary_only(),
                config.clone(),
                |s| Location {
                    region: RegionId(0),
                    datacenter: 0,
                    rack: s.raw(),
                    machine: MachineId(s.raw()),
                },
                LoadVector::single(Metric::ShardCount.id(), 100.0),
            );
            // Bootstrap each partition and settle synchronously.
            orch.run_emergency();
            loop {
                let cmds = orch.take_commands();
                if cmds.is_empty() {
                    break;
                }
                for c in cmds {
                    if let crate::api::OrchCommand::Rpc { server, rpc } = c {
                        orch.rpc_acked(server, rpc);
                    }
                }
            }
        }
        assert_eq!(minism.partitions().count(), 2);
        assert_eq!(minism.replica_count(), 16);
    }

    #[test]
    fn registry_failover_reassigns_orphans() {
        let mut mgr = ApplicationManager::new(10);
        let mut reg = PartitionRegistry::new(20);
        let parts = mgr.partition_app(AppId(0), &servers(40), &shards(40));
        for p in &parts {
            reg.assign(p, p.shards.len());
        }
        assert_eq!(reg.minism_count(), 2);
        let dead = reg.minism_of(parts[0].id).expect("assigned");
        let orphans = reg.remove_minism(dead);
        assert!(!orphans.is_empty());
        for o in &orphans {
            assert!(reg.minism_of(*o).is_none(), "orphan still assigned");
        }
        // Orphans land on survivors or freshly minted mini-SMs, never
        // back on the dead id.
        for p in parts.iter().filter(|p| orphans.contains(&p.id)) {
            let new_owner = reg.assign(p, p.shards.len());
            assert_ne!(new_owner, dead);
        }
        // A duplicate expiry notification is a harmless no-op.
        assert!(reg.remove_minism(dead).is_empty());
        // After the failover completed, the restarted mini-SM may
        // rejoin empty; rejoining while registered is a conflict.
        reg.restore_minism(dead).expect("rejoin");
        let conflict = reg.restore_minism(dead);
        assert!(
            matches!(conflict, Err(SmError::Conflict(_))),
            "{conflict:?}"
        );
    }

    #[test]
    fn registry_snapshot_round_trips() {
        let mut mgr = ApplicationManager::new(10);
        let mut reg = PartitionRegistry::new(20).with_replica_cap(500);
        let parts = mgr.partition_app(AppId(0), &servers(50), &shards(60));
        for p in &parts {
            reg.assign(p, p.shards.len());
        }
        let snap = reg.snapshot();
        let mut restored = PartitionRegistry::new(1);
        restored.restore(&snap).expect("valid snapshot");
        assert_eq!(restored.minism_count(), reg.minism_count());
        for p in &parts {
            assert_eq!(restored.minism_of(p.id), reg.minism_of(p.id));
        }
        assert_eq!(restored.snapshot(), snap, "restore is lossless");
        // New assignments after restore never reuse a minted id.
        let extra = mgr.partition_app(AppId(1), &servers(30), &shards(10));
        let mut minted: Vec<MiniSmId> = reg.mini_sms().map(|(id, _)| *id).collect();
        for p in &extra {
            minted.push(restored.assign(p, p.shards.len()));
        }
        minted.sort();
        let uniq = minted.len();
        minted.dedup();
        assert!(minted.len() <= uniq);
        // Corrupt snapshots are rejected, not panicked on.
        assert!(restored.restore(b"garbage").is_err());
        assert!(restored.restore(b"smreg v1\nminism x y z\n").is_err());
    }

    #[test]
    fn frontend_resolves_shard_to_minism() {
        let mut registry = ApplicationRegistry::new();
        let app = registry.register("kv", AppPolicy::primary_only());
        let mut mgr = ApplicationManager::new(50);
        let mut partitions = PartitionRegistry::new(60);
        let mut reads = ReadService::new();
        for p in mgr.partition_app(app, &servers(100), &shards(400)) {
            partitions.assign(&p, p.shards.len());
            reads.index_partition(&p);
        }
        let frontend = Frontend {
            apps: &registry,
            reads: &reads,
            partitions: &partitions,
        };
        let m = frontend
            .minism_for_shard(app, ShardId(123))
            .expect("resolved");
        let via_server = frontend.minism_for_server(ServerId(3)).expect("resolved");
        let _ = (m, via_server);
        assert!(frontend.minism_for_shard(AppId(9), ShardId(0)).is_none());
    }

    #[test]
    fn read_service_indices() {
        let mut mgr = ApplicationManager::new(100);
        let parts = mgr.partition_app(AppId(3), &servers(150), &shards(10));
        let mut rs = ReadService::new();
        for p in &parts {
            rs.index_partition(p);
        }
        for p in &parts {
            for &s in &p.shards {
                assert_eq!(rs.partition_of_shard(AppId(3), s), Some(p.id));
            }
            for &srv in &p.servers {
                assert_eq!(rs.partition_of_server(srv), Some(p.id));
            }
        }
        assert!(rs.partition_of_shard(AppId(9), ShardId(0)).is_none());
    }
}
