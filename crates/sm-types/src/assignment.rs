//! Shard-to-server assignments and the routed shard map.
//!
//! [`Assignment`] is the control plane's desired state: which server
//! holds which replica of which shard, in which role. [`ShardMap`] is the
//! versioned, client-facing view disseminated through service discovery
//! so routers can pick a server for a key (§3.2).
//!
//! Both keep "who holds what" in one [`ShardTable`] (`crate::table`): a
//! map taken from an assignment shares its leaves, so a version costs
//! what moved since the last one, from `current_map` through `publish`
//! to a router's `install_map`, and not the fleet.

use crate::ids::{ReplicaRole, ServerId, ShardId};
use crate::table::{ShardTable, Slot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One replica's placement: which server hosts it and in which role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaAssignment {
    /// Hosting server.
    pub server: ServerId,
    /// Replica role.
    pub role: ReplicaRole,
}

/// The desired shard-to-server assignment for one application partition.
///
/// Invariants maintained by the mutating methods:
/// - a shard has at most one [`ReplicaRole::Primary`] replica;
/// - a server hosts at most one replica of a given shard;
/// - `by_server` is `shards` projected by server;
/// - `primaryless` is the shards of `shards` with no primary.
#[derive(Clone, Default)]
pub struct Assignment {
    /// The table a [`ShardMap`] taken from here shares, leaf by leaf.
    shards: ShardTable,
    /// Reverse index: the shards each server hosts, ascending; no entry
    /// for a server that hosts nothing. Derived state, so `Debug` and
    /// `==` leave it out. Written only by `host` and `unhost`, which the
    /// mutators that change a host go through, and by
    /// [`Self::drop_server`], which takes a server's entry whole.
    by_server: BTreeMap<ServerId, Vec<ShardId>>,
    /// The shards that hold replicas but no primary. Derived state like
    /// `by_server`; written only by [`Self::add_replica`],
    /// [`Self::change_role`] and `take_replica`, where a shard's roles
    /// change (a move keeps them).
    primaryless: BTreeSet<ShardId>,
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// `shards` as a `{shard: [replica, ..]}` map: the transcript
        /// digests hash this text.
        struct Shards<'a>(&'a ShardTable);
        impl fmt::Debug for Shards<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let shards = self.0.iter().map(|(s, e)| (s, &e.replicas));
                f.debug_map().entries(shards).finish()
            }
        }
        f.debug_struct("Assignment")
            .field("shards", &Shards(&self.shards))
            .finish()
    }
}

impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
    }
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards with at least one replica.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total replica count across shards.
    pub fn replica_count(&self) -> usize {
        self.by_shard().map(|(_, rs)| rs.len()).sum()
    }

    /// The replicas of `shard` (empty slice if unknown).
    pub fn replicas(&self, shard: ShardId) -> &[ReplicaAssignment] {
        self.shards.get(&shard).map_or(&[], |e| &e.replicas)
    }

    /// The server hosting the primary of `shard`, if any.
    pub fn primary_of(&self, shard: ShardId) -> Option<ServerId> {
        self.replicas(shard)
            .iter()
            .find(|r| r.role.is_primary())
            .map(|r| r.server)
    }

    /// The shards that hold replicas but no primary, ascending. Costs
    /// those shards, not the whole assignment.
    pub fn primaryless(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.primaryless.iter().copied()
    }

    /// Iterates over all `(shard, replica)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ReplicaAssignment)> {
        self.by_shard()
            .flat_map(|(s, rs)| rs.iter().map(move |r| (s, r)))
    }

    /// Iterates over `(shard, its replicas)` in ascending shard order;
    /// every shard it yields has at least one replica.
    pub fn by_shard(&self) -> impl Iterator<Item = (ShardId, &[ReplicaAssignment])> {
        self.shards.iter().map(|(s, e)| (*s, e.replicas.as_slice()))
    }

    /// Iterates over shard ids in ascending order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.iter().map(|(s, _)| *s)
    }

    /// Shards hosted by `server` in ascending order, with the role held
    /// there. Costs the replicas on `server`, not the whole assignment.
    pub fn replicas_on(
        &self,
        server: ServerId,
    ) -> impl Iterator<Item = (ShardId, ReplicaRole)> + '_ {
        let hosted = self.by_server.get(&server).map(Vec::as_slice);
        hosted.unwrap_or(&[]).iter().filter_map(move |&shard| {
            let mut replicas = self.replicas(shard).iter();
            Some((shard, replicas.find(|r| r.server == server)?.role))
        })
    }

    /// [`Self::replicas_on`], collected.
    pub fn shards_on(&self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        self.replicas_on(server).collect()
    }

    /// `shard`'s entry and the replicas it holds, empty if unknown: the
    /// one search of a mutator, which decides a refusal on this read so
    /// that a refused call copies no leaf.
    fn find(&self, shard: ShardId) -> (Option<Slot>, &[ReplicaAssignment]) {
        let found = self.shards.slot(shard);
        (
            found.map(|(slot, _)| slot),
            found.map_or(&[], |(_, e)| &e.replicas),
        )
    }

    /// Adds a replica.
    ///
    /// Returns an error string if the server already hosts this shard or
    /// the shard already has a primary and `role` is primary.
    pub fn add_replica(
        &mut self,
        shard: ShardId,
        server: ServerId,
        role: ReplicaRole,
    ) -> Result<(), String> {
        let (slot, replicas) = self.find(shard);
        if replicas.iter().any(|r| r.server == server) {
            return Err(format!("{server} already hosts {shard}"));
        }
        if role.is_primary() && replicas.iter().any(|r| r.role.is_primary()) {
            return Err(format!("{shard} already has a primary"));
        }
        let replica = ReplicaAssignment { server, role };
        match slot.and_then(|slot| self.shards.at_mut(slot)) {
            Some(entry) => {
                entry.replicas.push(replica);
                book_primary(&mut self.primaryless, shard, &entry.replicas);
            }
            None => {
                book_primary(&mut self.primaryless, shard, &[replica]);
                let replicas = vec![replica];
                self.shards.insert(shard, ShardMapEntry { replicas });
            }
        }
        self.host(shard, server);
        Ok(())
    }

    /// Removes the replica of `shard` on `server`; returns whether one
    /// was removed.
    pub fn remove_replica(&mut self, shard: ShardId, server: ServerId) -> bool {
        let taken = self.take_replica(shard, server);
        taken.map(|_| self.unhost(shard, server)).is_some()
    }

    /// Moves the replica of `shard` from `from` to `to`, keeping its role:
    /// it leaves its place among the shard's replicas for the last.
    pub fn move_replica(
        &mut self,
        shard: ShardId,
        from: ServerId,
        to: ServerId,
    ) -> Result<(), String> {
        let (slot, replicas) = self.find(shard);
        let at = replicas.iter().position(|r| r.server == from);
        let at = at.ok_or_else(|| format!("{from} does not host {shard}"))?;
        if replicas.iter().any(|r| r.server == to) {
            return Err(format!("{to} already hosts {shard}"));
        }
        if let Some(entry) = slot.and_then(|slot| self.shards.at_mut(slot)) {
            let mut replica = entry.replicas.remove(at);
            replica.server = to;
            entry.replicas.push(replica);
        }
        self.unhost(shard, from);
        self.host(shard, to);
        Ok(())
    }

    /// Changes the role of the replica of `shard` on `server`.
    ///
    /// Promoting to primary fails if another replica is already primary;
    /// demote that one first.
    pub fn change_role(
        &mut self,
        shard: ShardId,
        server: ServerId,
        new_role: ReplicaRole,
    ) -> Result<(), String> {
        let (slot, replicas) = self.find(shard);
        if new_role.is_primary()
            && replicas
                .iter()
                .any(|r| r.role.is_primary() && r.server != server)
        {
            return Err(format!("{shard} already has a primary elsewhere"));
        }
        if replicas.is_empty() {
            return Err(format!("unknown shard {shard}"));
        }
        let at = replicas
            .iter()
            .position(|r| r.server == server)
            .ok_or_else(|| format!("{server} does not host {shard}"))?;
        if let Some(entry) = slot.and_then(|slot| self.shards.at_mut(slot)) {
            if let Some(rep) = entry.replicas.get_mut(at) {
                rep.role = new_role;
            }
            book_primary(&mut self.primaryless, shard, &entry.replicas);
        }
        Ok(())
    }

    /// Drops every replica hosted by `server`, returning the shards (and
    /// roles) that lost a replica — the input to emergency re-placement.
    /// One search per replica dropped.
    pub fn drop_server(&mut self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        let hosted = self.by_server.remove(&server).unwrap_or_default();
        let take = |shard| Some((shard, self.take_replica(shard, server)?));
        hosted.into_iter().filter_map(take).collect()
    }

    /// Takes the replica of `shard` on `server` out of the table, and the
    /// shard with it if that was its last, and books the shard in
    /// `primaryless`; the caller updates `by_server`. Returns the role
    /// the replica held, or `None` if there was none.
    fn take_replica(&mut self, shard: ShardId, server: ServerId) -> Option<ReplicaRole> {
        let (slot, replicas) = self.find(shard);
        let (slot, at) = (slot?, replicas.iter().position(|r| r.server == server)?);
        let entry = self.shards.at_mut(slot)?;
        let role = entry.replicas.remove(at).role;
        book_primary(&mut self.primaryless, shard, &entry.replicas);
        if entry.replicas.is_empty() {
            self.shards.remove_at(slot);
        }
        Some(role)
    }

    /// Records `server` as hosting `shard` in `by_server`.
    fn host(&mut self, shard: ShardId, server: ServerId) {
        let hosted = self.by_server.entry(server).or_default();
        if let Err(at) = hosted.binary_search(&shard) {
            hosted.insert(at, shard);
        }
    }

    /// Records `server` as no longer hosting `shard` in `by_server`.
    fn unhost(&mut self, shard: ShardId, server: ServerId) {
        if let Some(hosted) = self.by_server.get_mut(&server) {
            if let Ok(at) = hosted.binary_search(&shard) {
                hosted.remove(at);
            }
            if hosted.is_empty() {
                self.by_server.remove(&server);
            }
        }
    }
}

/// Books `shard` in the primary-less `set` by the `replicas` it now
/// holds: in it while they are some and none is the primary.
fn book_primary(set: &mut BTreeSet<ShardId>, shard: ShardId, replicas: &[ReplicaAssignment]) {
    if replicas.is_empty() || replicas.iter().any(|r| r.role.is_primary()) {
        set.remove(&shard);
    } else {
        set.insert(shard);
    }
}

/// One shard's entry in the client-facing map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMapEntry {
    /// Replicas in no particular order.
    pub replicas: Vec<ReplicaAssignment>,
}

impl ShardMapEntry {
    /// The primary's server, if the shard has one.
    pub fn primary(&self) -> Option<ServerId> {
        self.replicas
            .iter()
            .find(|r| r.role.is_primary())
            .map(|r| r.server)
    }

    /// All servers hosting this shard.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.replicas.iter().map(|r| r.server)
    }
}

/// A versioned snapshot of shard placements, disseminated to clients via
/// service discovery (§3.2). Versions increase monotonically; routers
/// ignore maps older than what they already hold.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMap {
    /// Monotonic version.
    pub version: u64,
    /// Per-shard placement.
    pub entries: ShardTable,
}

impl ShardMap {
    /// A map at `version` that shares `assignment`'s table: O(leaves),
    /// no shard is copied until one side writes to its leaf.
    pub fn from_assignment(version: u64, assignment: &Assignment) -> Self {
        let entries = assignment.shards.clone();
        Self { version, entries }
    }

    /// Looks up one shard.
    pub fn entry(&self, shard: ShardId) -> Option<&ShardMapEntry> {
        self.entries.get(&shard)
    }

    /// Number of shards in the map.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> ShardId {
        ShardId(n)
    }
    fn srv(n: u32) -> ServerId {
        ServerId(n)
    }

    #[test]
    fn add_and_lookup() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(1)));
        assert_eq!(a.replicas(s(1)).len(), 2);
        assert_eq!(a.shard_count(), 1);
        assert_eq!(a.replica_count(), 2);
    }

    #[test]
    fn rejects_two_primaries() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        assert!(a.add_replica(s(1), srv(2), ReplicaRole::Primary).is_err());
    }

    #[test]
    fn rejects_same_server_twice() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Secondary).unwrap();
        assert!(a.add_replica(s(1), srv(1), ReplicaRole::Secondary).is_err());
    }

    #[test]
    fn move_preserves_role() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.move_replica(s(1), srv(1), srv(9)).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(9)));
        assert!(a.move_replica(s(1), srv(1), srv(2)).is_err());
    }

    #[test]
    fn move_to_occupied_server_fails() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        assert!(a.move_replica(s(1), srv(1), srv(2)).is_err());
    }

    #[test]
    fn change_role_promote_demote() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        // Cannot promote while another primary exists.
        assert!(a.change_role(s(1), srv(2), ReplicaRole::Primary).is_err());
        a.change_role(s(1), srv(1), ReplicaRole::Secondary).unwrap();
        a.change_role(s(1), srv(2), ReplicaRole::Primary).unwrap();
        assert_eq!(a.primary_of(s(1)), Some(srv(2)));
    }

    #[test]
    fn drop_server_reports_lost_replicas() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(2), srv(1), ReplicaRole::Secondary).unwrap();
        a.add_replica(s(2), srv(2), ReplicaRole::Primary).unwrap();
        let lost = a.drop_server(srv(1));
        assert_eq!(lost.len(), 2);
        assert_eq!(a.replicas(s(1)).len(), 0);
        assert_eq!(a.replicas(s(2)).len(), 1);
        assert_eq!(a.shard_count(), 1, "empty shard entry is pruned");
    }

    /// `shards_on` as it was before the reverse index — a filter over
    /// the whole assignment — kept as the model the index is checked
    /// against.
    fn shards_on_scan(a: &Assignment, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        a.iter()
            .filter(|(_, r)| r.server == server)
            .map(|(s, r)| (s, r.role))
            .collect()
    }

    #[test]
    fn reverse_index_follows_every_mutator() {
        const SERVERS: u32 = 8;
        let mut below = crate::table::tests::seeded(0x5eed_0016);
        let mut a = Assignment::new();
        let mut refused = BTreeMap::new();
        for step in 0..10_000 {
            let (shard, server) = (s(below(24)), srv(below(u64::from(SERVERS)) as u32));
            let other = srv(below(u64::from(SERVERS)) as u32);
            let role = if below(3) == 0 {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            };
            let before = a.clone();
            let outcome = match below(100) {
                0..=39 => a.add_replica(shard, server, role),
                40..=59 if a.remove_replica(shard, server) => Ok(()),
                40..=59 => Err("nothing to remove".to_string()),
                60..=79 => a.move_replica(shard, server, other),
                80..=94 => a.change_role(shard, server, role),
                _ => {
                    let lost = a.drop_server(server);
                    assert_eq!(lost, shards_on_scan(&before, server), "step {step}");
                    Ok(())
                }
            };
            if let Err(why) = outcome {
                assert_eq!(a, before, "step {step}: a refused call changes nothing");
                let kind = why.replace(|c: char| c.is_ascii_digit(), "");
                *refused.entry(kind).or_insert(0) += 1;
            }
            for v in 0..SERVERS {
                assert_eq!(
                    a.shards_on(srv(v)),
                    shards_on_scan(&a, srv(v)),
                    "step {step}"
                );
            }
            let mut rebuilt = Assignment::new();
            for (shard, r) in a.iter() {
                rebuilt.add_replica(shard, r.server, r.role).unwrap();
            }
            assert_eq!(rebuilt, a, "step {step}");
            assert_eq!(
                rebuilt.by_server, a.by_server,
                "step {step}: index is canonical"
            );
            let model: BTreeMap<_, _> = a.by_shard().collect();
            let shown = format!("Assignment {{ shards: {model:?} }}");
            assert_eq!(
                format!("{a:?}"),
                shown,
                "step {step}: Debug shows `shards` alone"
            );
        }
        // Every refusal was walked: duplicate host, second primary (by
        // add and by promotion), missing host, unknown shard, and a
        // remove that finds nothing.
        assert_eq!(refused.len(), 6, "{refused:?}");
    }

    /// The shards with replicas and no primary, by a walk of them all:
    /// the model the kept index is checked against.
    fn primaryless_scan(a: &Assignment) -> Vec<ShardId> {
        let lacking = a
            .by_shard()
            .filter(|(_, rs)| !rs.iter().any(|r| r.role.is_primary()));
        lacking.map(|(shard, _)| shard).collect()
    }

    #[test]
    fn the_primaryless_index_follows_its_scan() {
        const SERVERS: u64 = 6;
        let mut below = crate::table::tests::seeded(0x5eed_0040);
        let mut a = Assignment::new();
        // Steps that ended with the index empty, and with it not.
        let mut seen = [0; 2];
        for step in 0..20_000 {
            let (shard, server) = (s(below(4)), srv(below(SERVERS) as u32));
            let other = srv(below(SERVERS) as u32);
            let role = if below(2) == 0 {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            };
            let before = a.clone();
            let done = match below(100) {
                0..=39 => a.add_replica(shard, server, role).is_ok(),
                40..=59 => a.remove_replica(shard, server),
                60..=74 => {
                    let done = a.move_replica(shard, server, other).is_ok();
                    // The moved replica goes last, its role kept.
                    let mut want = before.replicas(shard).to_vec();
                    if let Some(at) = want
                        .iter()
                        .position(|r| r.server == server)
                        .filter(|_| done)
                    {
                        let moved = want.remove(at);
                        want.push(ReplicaAssignment {
                            server: other,
                            ..moved
                        });
                    }
                    assert_eq!(a.replicas(shard), want, "step {step}");
                    done
                }
                75..=97 => a.change_role(shard, server, role).is_ok(),
                _ => !a.drop_server(server).is_empty(),
            };
            if !done {
                assert_eq!(a.primaryless, before.primaryless, "step {step}");
            }
            let kept: Vec<ShardId> = a.primaryless().collect();
            assert_eq!(kept, primaryless_scan(&a), "step {step}");
            seen[usize::from(!kept.is_empty())] += 1;
        }
        assert!(seen.iter().all(|&steps| steps > 1_000), "{seen:?}");
    }

    #[test]
    fn shard_map_snapshot() {
        let mut a = Assignment::new();
        a.add_replica(s(1), srv(1), ReplicaRole::Primary).unwrap();
        a.add_replica(s(1), srv(2), ReplicaRole::Secondary).unwrap();
        let map = ShardMap::from_assignment(7, &a);
        assert_eq!(map.version, 7);
        let entry = map.entry(s(1)).unwrap();
        assert_eq!(entry.primary(), Some(srv(1)));
        assert_eq!(entry.servers().count(), 2);
        assert!(map.entry(s(99)).is_none());
    }
}
