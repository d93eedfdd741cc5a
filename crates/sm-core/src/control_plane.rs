//! The scale-out global control plane (§6.1, Figure 14): the half
//! that is pure bookkeeping and needs no ZooKeeper.
//!
//! A single SM control plane cannot manage millions of servers and
//! billions of shards, so SM shards *itself*: applications are divided
//! into partitions (thousands of servers, hundreds of thousands of
//! replicas each), partitions are assigned to mini-SMs, and mini-SMs
//! scale out horizontally. Figure 14's boxes live in two modules:
//!
//! - application manager — [`ApplicationManager`] here: splits an
//!   application's servers/shards into [`Partition`]s;
//! - partition registry — [`PartitionRegistry`] here: assigns
//!   partitions to mini-SMs, least-loaded first, adding mini-SMs as
//!   capacity demands (`fig16` drives these two at census scale);
//! - application registry, read service, frontend, mini-SM — the
//!   running half, [`crate::ha`]: [`HaControlPlane`](crate::ha::HaControlPlane)'s
//!   `policies` map, its partition and server → partition indices, its
//!   ack and watch routing, and [`MiniSm`](crate::ha::MiniSm).

use sm_types::{AppId, MiniSmId, PartitionId, ServerId, ShardId, SmError};
use std::collections::BTreeMap;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reader of [`PartitionRegistry::snapshot`]'s format, kept
    /// to prove the format round-trips.
    impl PartitionRegistry {
        /// Restores a registry from [`snapshot`](Self::snapshot) bytes,
        /// replacing all current state. Per-mini-SM partition lists are
        /// rebuilt from the `assign` lines.
        fn restore(&mut self, bytes: &[u8]) -> Result<(), SmError> {
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

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }
    fn shards(n: u64) -> Vec<ShardId> {
        (0..n).map(ShardId).collect()
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
}
