//! Server-side shard hosting with the §4.3 forwarding states.
//!
//! [`ShardHost`] is the bookkeeping every SM application server needs:
//! which shards it holds in which role, plus the three migration states
//! of the graceful primary handover —
//!
//! - **prepare-add** (new primary, step 1): requests are accepted only
//!   when forwarded from the current owner;
//! - **prepare-drop** (old primary, step 2): every request is forwarded
//!   to the new owner;
//! - **tombstone** (old primary, step 5): after `drop_shard` the server
//!   keeps forwarding stragglers to the new owner, so no request that
//!   reached it under a stale routing table is ever dropped.
//!
//! All of it, and the application's own per-shard state `D`, sits in
//! one record per shard:
//!
//! ```text
//! BTreeMap<ShardId, Hosting<D>>
//! Hosting { role, pre_add, forward_to, tombstone, data: Option<D> }
//! ```
//!
//! so admitting a request is one lookup, and the application's read of
//! the shard's data right after it finds the same map node. The fields
//! are independent (a product, not one state): a hosted shard that is
//! prepared again keeps its `role` beside `pre_add`, `add_shard` leaves
//! `forward_to` standing, and data may exist for a shard with no role.
//! A record whose five fields are all empty is removed.

use sm_types::{ReplicaRole, ServerId, ShardId, SmError};
use std::collections::BTreeMap;

/// What to do with a request that reached this server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppResponse {
    /// Serve it here.
    Serve,
    /// Forward to the server now responsible (graceful migration).
    Forward(ServerId),
    /// Reject: this server does not (or no longer) host the shard and
    /// has nowhere to forward — the client saw a stale map.
    NotMine,
}

/// All one server keeps about one shard.
#[derive(Clone, Debug)]
struct Hosting<D> {
    /// The role held, if the shard is hosted.
    role: Option<ReplicaRole>,
    /// Step-1 state: the current owner we expect forwards from.
    pre_add: Option<ServerId>,
    /// Step-2 state: the new owner we forward to (replica kept).
    forward_to: Option<ServerId>,
    /// Step-5 state: a dropped shard still forwarding stragglers.
    tombstone: Option<ServerId>,
    /// The application's state for the shard.
    data: Option<D>,
}

impl<D> Default for Hosting<D> {
    fn default() -> Self {
        Self {
            role: None,
            pre_add: None,
            forward_to: None,
            tombstone: None,
            data: None,
        }
    }
}

/// Shard-hosting state for one application server; `D` is what the
/// application keeps per shard (nothing by default).
#[derive(Clone, Debug)]
pub struct ShardHost<D = ()> {
    records: BTreeMap<ShardId, Hosting<D>>,
    /// Records with a role.
    hosted: usize,
}

impl<D> Default for ShardHost<D> {
    fn default() -> Self {
        Self {
            records: BTreeMap::new(),
            hosted: 0,
        }
    }
}

impl ShardHost {
    /// Creates an empty host with no per-shard application state. (On
    /// `ShardHost<()>` so that `ShardHost::new()` needs no annotation;
    /// a host with state is `ShardHost::default()`.)
    pub fn new() -> Self {
        Self::default()
    }
}

impl<D> ShardHost<D> {
    /// The role held for `shard`, if hosted.
    pub fn role_of(&self, shard: ShardId) -> Option<ReplicaRole> {
        self.records.get(&shard).and_then(|r| r.role)
    }

    /// Number of hosted shards.
    pub fn shard_count(&self) -> usize {
        self.hosted
    }

    /// Hosted shards with roles.
    pub fn shards(&self) -> impl Iterator<Item = (&ShardId, &ReplicaRole)> {
        self.records
            .iter()
            .filter_map(|(shard, r)| Some((shard, r.role.as_ref()?)))
    }

    /// The application's state for `shard`, if any.
    pub fn data(&self, shard: ShardId) -> Option<&D> {
        self.records.get(&shard).and_then(|r| r.data.as_ref())
    }

    /// The application's state for `shard`, mutably.
    pub fn data_mut(&mut self, shard: ShardId) -> Option<&mut D> {
        self.records.get_mut(&shard).and_then(|r| r.data.as_mut())
    }

    /// Replaces the application's state for `shard`, hosted or not.
    pub fn set_data(&mut self, shard: ShardId, data: Option<D>) {
        self.edit(shard, |r| r.data = data);
    }

    /// Applies `f` to `shard`'s record (an empty one when absent),
    /// keeps `hosted` in step and removes a record left empty.
    fn edit(&mut self, shard: ShardId, f: impl FnOnce(&mut Hosting<D>)) {
        let record = self.records.entry(shard).or_default();
        let had_role = record.role.is_some();
        f(record);
        let has_role = record.role.is_some();
        let empty = !has_role
            && record.pre_add.is_none()
            && record.forward_to.is_none()
            && record.tombstone.is_none()
            && record.data.is_none();
        self.hosted = self.hosted + usize::from(has_role) - usize::from(had_role);
        if empty {
            self.records.remove(&shard);
        }
    }

    /// Implements `add_shard` (also step 3 of graceful migration).
    pub fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.edit(shard, |r| {
            r.pre_add = None;
            r.tombstone = None;
            r.role = Some(role);
        });
        Ok(())
    }

    /// Implements `drop_shard` (also step 5). If the shard was in the
    /// forwarding state, the forward target is kept as a tombstone.
    ///
    /// Idempotent: dropping a shard this host does not hold is a no-op
    /// success. The orchestrator retries drops whose ack a lossy
    /// network may have eaten (reclaiming suspect copies), so "ensure
    /// not hosting" must converge rather than error on the second
    /// delivery.
    pub fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.edit(shard, |r| {
            r.role = None;
            r.pre_add = None;
            r.tombstone = r.forward_to.take().or(r.tombstone);
        });
        Ok(())
    }

    /// Implements `change_role`.
    pub fn change_role(
        &mut self,
        shard: ShardId,
        current: ReplicaRole,
        new: ReplicaRole,
    ) -> Result<(), SmError> {
        let role = self
            .records
            .get_mut(&shard)
            .and_then(|r| r.role.as_mut())
            .ok_or_else(|| SmError::not_found(shard))?;
        if *role != current {
            return Err(SmError::conflict(format!(
                "{shard} role is {role}, not {current}"
            )));
        }
        *role = new;
        Ok(())
    }

    /// Implements `prepare_add_shard` (step 1).
    pub fn prepare_add_shard(
        &mut self,
        shard: ShardId,
        current_owner: ServerId,
        _role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.edit(shard, |r| {
            r.pre_add = Some(current_owner);
            r.tombstone = None;
        });
        Ok(())
    }

    /// Implements `prepare_drop_shard` (step 2).
    pub fn prepare_drop_shard(
        &mut self,
        shard: ShardId,
        new_owner: ServerId,
        _role: ReplicaRole,
    ) -> Result<(), SmError> {
        match self.records.get_mut(&shard) {
            Some(r) if r.role.is_some() => r.forward_to = Some(new_owner),
            _ => return Err(SmError::not_found(shard)),
        }
        Ok(())
    }

    /// Decides what to do with a **primary-type** request for `shard` —
    /// one only the shard's single primary may serve. `forwarded` is
    /// true when the request came from the shard's previous owner rather
    /// than directly from a client.
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.admit_class(shard, forwarded, true)
    }

    /// Decides what to do with a **secondary-type** request — one any
    /// replica of the shard may serve (reads under a secondary-only
    /// replication policy, §2's read-only applications).
    pub fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.admit_class(shard, forwarded, false)
    }

    // sm-lint: hot-path
    fn admit_class(&self, shard: ShardId, forwarded: bool, needs_primary: bool) -> AppResponse {
        let Some(r) = self.records.get(&shard) else {
            return AppResponse::NotMine;
        };
        // Step-2/-5 forwarding takes precedence: the handover is in
        // progress or completed and the new owner serves.
        if let Some(target) = r.forward_to.or(r.tombstone) {
            return AppResponse::Forward(target);
        }
        if r.pre_add.is_some() {
            // Step 1: only the old owner's forwards are accepted.
            return if forwarded {
                AppResponse::Serve
            } else {
                AppResponse::NotMine
            };
        }
        match r.role {
            Some(role) if !needs_primary || role.is_primary() => AppResponse::Serve,
            // A secondary replica holds the data but must never admit a
            // primary-type request: after a failover rebuilds
            // replication, the demoted server may be re-added as a
            // secondary of the very shard it used to lead, and a
            // role-blind Serve here is a permanent dual primary (found
            // by the 1000-seed swarm, `lossy_net` seed 809). The
            // client's retry goes back through the router, which points
            // at the real primary.
            _ => AppResponse::NotMine,
        }
    }

    /// Clears everything — a process restart losing soft state.
    pub fn wipe(&mut self) {
        self.records.clear();
        self.hosted = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `ShardHost` as it was before the one record: four maps, probed
    /// one after another by `admit_class`. Kept verbatim as the model.
    #[derive(Clone, Debug, Default)]
    pub(crate) struct FourMaps {
        shards: BTreeMap<ShardId, ReplicaRole>,
        pre_add: BTreeMap<ShardId, ServerId>,
        forward_to: BTreeMap<ShardId, ServerId>,
        tombstones: BTreeMap<ShardId, ServerId>,
    }

    impl FourMaps {
        pub(crate) fn role_of(&self, shard: ShardId) -> Option<ReplicaRole> {
            self.shards.get(&shard).copied()
        }

        pub(crate) fn shard_count(&self) -> usize {
            self.shards.len()
        }

        pub(crate) fn shards(&self) -> impl Iterator<Item = (&ShardId, &ReplicaRole)> {
            self.shards.iter()
        }

        pub(crate) fn add_shard(
            &mut self,
            shard: ShardId,
            role: ReplicaRole,
        ) -> Result<(), SmError> {
            self.pre_add.remove(&shard);
            self.tombstones.remove(&shard);
            self.shards.insert(shard, role);
            Ok(())
        }

        pub(crate) fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
            self.shards.remove(&shard);
            self.pre_add.remove(&shard);
            if let Some(target) = self.forward_to.remove(&shard) {
                self.tombstones.insert(shard, target);
            }
            Ok(())
        }

        pub(crate) fn change_role(
            &mut self,
            shard: ShardId,
            current: ReplicaRole,
            new: ReplicaRole,
        ) -> Result<(), SmError> {
            let role = self
                .shards
                .get_mut(&shard)
                .ok_or_else(|| SmError::not_found(shard))?;
            if *role != current {
                return Err(SmError::conflict(format!(
                    "{shard} role is {role}, not {current}"
                )));
            }
            *role = new;
            Ok(())
        }

        pub(crate) fn prepare_add_shard(
            &mut self,
            shard: ShardId,
            current_owner: ServerId,
            _role: ReplicaRole,
        ) -> Result<(), SmError> {
            self.pre_add.insert(shard, current_owner);
            self.tombstones.remove(&shard);
            Ok(())
        }

        pub(crate) fn prepare_drop_shard(
            &mut self,
            shard: ShardId,
            new_owner: ServerId,
            _role: ReplicaRole,
        ) -> Result<(), SmError> {
            if !self.shards.contains_key(&shard) {
                return Err(SmError::not_found(shard));
            }
            self.forward_to.insert(shard, new_owner);
            Ok(())
        }

        pub(crate) fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
            self.admit_class(shard, forwarded, true)
        }

        pub(crate) fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
            self.admit_class(shard, forwarded, false)
        }

        fn admit_class(&self, shard: ShardId, forwarded: bool, needs_primary: bool) -> AppResponse {
            if let Some(&target) = self.forward_to.get(&shard) {
                return AppResponse::Forward(target);
            }
            if let Some(&target) = self.tombstones.get(&shard) {
                return AppResponse::Forward(target);
            }
            if self.pre_add.contains_key(&shard) {
                return if forwarded {
                    AppResponse::Serve
                } else {
                    AppResponse::NotMine
                };
            }
            match self.shards.get(&shard) {
                Some(role) if !needs_primary || role.is_primary() => AppResponse::Serve,
                Some(_) => AppResponse::NotMine,
                None => AppResponse::NotMine,
            }
        }

        pub(crate) fn wipe(&mut self) {
            self.shards.clear();
            self.pre_add.clear();
            self.forward_to.clear();
            self.tombstones.clear();
        }

        /// Shards with an entry in any of the four maps.
        fn known(&self) -> std::collections::BTreeSet<ShardId> {
            let maps = [&self.pre_add, &self.forward_to, &self.tombstones];
            let states = maps.into_iter().flat_map(|m| m.keys());
            self.shards.keys().chain(states).copied().collect()
        }
    }

    #[test]
    fn one_record_host_equals_the_four_map_model() {
        const SHARDS: u64 = 8;
        const SERVERS: usize = 3;
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0018);
        let mut hosts: Vec<(ShardHost<u32>, FourMaps)> =
            (0..SERVERS).map(|_| Default::default()).collect();
        // What `set_data` stored, per host: the model of the fifth field.
        let mut data: Vec<BTreeMap<ShardId, u32>> = vec![BTreeMap::new(); SERVERS];
        let mut outcomes: BTreeMap<String, u32> = BTreeMap::new();
        for step in 0..10_000u32 {
            let at = rng.index(SERVERS);
            let (host, model) = &mut hosts[at];
            let shard = ShardId(rng.range_u64(0, SHARDS));
            let peer = ServerId(rng.index(SERVERS) as u32);
            let role = |rng: &mut sm_sim::SimRng| match rng.chance(0.5) {
                true => ReplicaRole::Primary,
                false => ReplicaRole::Secondary,
            };
            let (a, b) = (role(&mut rng), role(&mut rng));
            // Any call at any time, not the §4.3 order.
            let (name, got, want) = match rng.index(100) {
                0..=19 => ("add", host.add_shard(shard, a), model.add_shard(shard, a)),
                20..=37 => ("drop", host.drop_shard(shard), model.drop_shard(shard)),
                38..=52 => (
                    "change_role",
                    host.change_role(shard, a, b),
                    model.change_role(shard, a, b),
                ),
                53..=67 => (
                    "prepare_add",
                    host.prepare_add_shard(shard, peer, a),
                    model.prepare_add_shard(shard, peer, a),
                ),
                68..=82 => (
                    "prepare_drop",
                    host.prepare_drop_shard(shard, peer, a),
                    model.prepare_drop_shard(shard, peer, a),
                ),
                83..=97 => {
                    let value = rng.chance(0.6).then_some(step);
                    host.set_data(shard, value);
                    match value {
                        Some(v) => data[at].insert(shard, v),
                        None => data[at].remove(&shard),
                    };
                    ("set_data", Ok(()), Ok(()))
                }
                _ => {
                    host.wipe();
                    model.wipe();
                    data[at].clear();
                    ("wipe", Ok(()), Ok(()))
                }
            };
            assert_eq!(got, want, "step {step}: {name} {shard}");
            *outcomes
                .entry(format!("{name} {}", got.is_ok()))
                .or_insert(0) += 1;

            for s in (0..SHARDS).map(ShardId) {
                for forwarded in [false, true] {
                    assert_eq!(
                        host.admit(s, forwarded),
                        model.admit(s, forwarded),
                        "step {step}: {name} {shard}, admit {s} {forwarded}"
                    );
                    assert_eq!(
                        host.admit_secondary(s, forwarded),
                        model.admit_secondary(s, forwarded),
                        "step {step}: {name} {shard}, admit_secondary {s} {forwarded}"
                    );
                }
                assert_eq!(host.role_of(s), model.role_of(s), "step {step}: {s}");
                assert_eq!(host.data(s), data[at].get(&s), "step {step}: {s}");
                assert_eq!(host.data_mut(s), data[at].get_mut(&s), "step {step}: {s}");
            }
            assert_eq!(host.shard_count(), model.shard_count(), "step {step}");
            assert!(host.shards().eq(model.shards()), "step {step}");
            // A record exists exactly for the shards something is known
            // about: none is empty, so the map stays bounded.
            let mut known = model.known();
            known.extend(data[at].keys());
            assert!(host.records.keys().eq(known.iter()), "step {step}: {name}");
        }
        // Every call was both accepted and, where it can be, refused.
        assert_eq!(outcomes.len(), 9, "{outcomes:?}");
        assert!(outcomes.values().all(|&n| n > 100), "{outcomes:?}");
    }

    const S: ShardId = ShardId(1);
    const OLD: ServerId = ServerId(10);
    const NEW: ServerId = ServerId(20);

    #[test]
    fn plain_hosting() {
        let mut h = ShardHost::new();
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Serve);
        assert_eq!(h.role_of(S), Some(ReplicaRole::Primary));
        h.drop_shard(S).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
        h.drop_shard(S)
            .expect("drop is idempotent: retried drops converge");
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
    }

    #[test]
    fn graceful_handover_never_rejects() {
        // Walk both sides of the §4.3 protocol and check admission at
        // every step.
        let mut old = ShardHost::new();
        let mut new = ShardHost::new();
        old.add_shard(S, ReplicaRole::Primary).unwrap();

        // Step 1: new primary prepared; direct requests rejected there,
        // forwarded ones accepted.
        new.prepare_add_shard(S, OLD, ReplicaRole::Primary).unwrap();
        assert_eq!(new.admit(S, false), AppResponse::NotMine);
        assert_eq!(new.admit(S, true), AppResponse::Serve);
        // Clients still reach the old primary directly.
        assert_eq!(old.admit(S, false), AppResponse::Serve);

        // Step 2: old primary forwards everything.
        old.prepare_drop_shard(S, NEW, ReplicaRole::Primary)
            .unwrap();
        assert_eq!(old.admit(S, false), AppResponse::Forward(NEW));

        // Step 3: new primary officially owns the shard.
        new.add_shard(S, ReplicaRole::Primary).unwrap();
        assert_eq!(new.admit(S, false), AppResponse::Serve);
        assert_eq!(new.admit(S, true), AppResponse::Serve);

        // Step 5: old primary dropped the replica but keeps forwarding
        // stragglers via the tombstone.
        old.drop_shard(S).unwrap();
        assert_eq!(old.admit(S, false), AppResponse::Forward(NEW));
        assert_eq!(old.shard_count(), 0);
    }

    #[test]
    fn secondary_replica_never_admits_primary_requests() {
        // Failover aftermath: the old primary is wiped and re-added as
        // a secondary of its former shard. It holds the data, but a
        // direct request must bounce to the router (and thence the real
        // primary) — a role-blind Serve here is a permanent dual
        // primary (1000-seed swarm, lossy_net seed 809).
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Secondary).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
        assert_eq!(h.admit(S, true), AppResponse::NotMine);
        // Promotion makes it servable.
        h.change_role(S, ReplicaRole::Secondary, ReplicaRole::Primary)
            .unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Serve);
    }

    #[test]
    fn abrupt_drop_rejects_stale_requests() {
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        // No prepare_drop first: nothing to forward to.
        h.drop_shard(S).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
    }

    #[test]
    fn change_role_validates() {
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Secondary).unwrap();
        assert!(h
            .change_role(S, ReplicaRole::Primary, ReplicaRole::Secondary)
            .is_err());
        h.change_role(S, ReplicaRole::Secondary, ReplicaRole::Primary)
            .unwrap();
        assert_eq!(h.role_of(S), Some(ReplicaRole::Primary));
        assert!(h
            .change_role(ShardId(99), ReplicaRole::Primary, ReplicaRole::Secondary)
            .is_err());
    }

    #[test]
    fn prepare_drop_requires_hosting() {
        let mut h = ShardHost::new();
        assert!(h.prepare_drop_shard(S, NEW, ReplicaRole::Primary).is_err());
    }

    #[test]
    fn readd_clears_tombstone() {
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        h.prepare_drop_shard(S, NEW, ReplicaRole::Primary).unwrap();
        h.drop_shard(S).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Forward(NEW));
        // The shard migrates back later.
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Serve);
    }

    #[test]
    fn wipe_models_process_restart() {
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        h.wipe();
        assert_eq!(h.shard_count(), 0);
        assert_eq!(h.admit(S, false), AppResponse::NotMine);
    }
}
