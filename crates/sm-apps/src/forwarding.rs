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
//! Forwarding is by key range: a plain move hands the whole shard to
//! one successor under the same id, a merge to one successor under the
//! union's id, a split to the child covering the request's key.
//!
//! All of it, and the application's own per-shard state `D`, sits in
//! one record per shard:
//!
//! ```text
//! BTreeMap<ShardId, Hosting<D>>
//! Hosting { role, pre_add, forward: Option<Rule>, data: Option<D> }
//! ```
//!
//! so admitting a request is one lookup, and the application's read of
//! the shard's data right after it finds the same map node. The fields
//! are independent (a product, not one state): a hosted shard that is
//! prepared again keeps its `role` beside `pre_add`, and data may exist
//! for a shard with no role. `forward` held with a role is step 2, held
//! without one it is the step-5 tombstone: `drop_shard` leaves it,
//! `prepare_add_shard` clears the tombstone only, and `add_shard`
//! always clears it — a source told to serve again serves. A record
//! whose four fields are all empty is removed.

use sm_types::{AppKey, ReplicaRole, ServerId, ShardId, SmError};
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

/// A shard that takes over requests, and the server preparing it.
type Successor = (ShardId, ServerId);

/// Where the requests of a shard no longer served here go.
#[derive(Clone, Debug)]
enum Rule {
    /// One successor: a move keeps the shard's id, a merge names the
    /// union's.
    To(ShardId, ServerId),
    /// Two successors, `(split point, left, right)`: keys below the
    /// point go left. Boxed, so a record stays small.
    Split(Box<(AppKey, Successor, Successor)>),
}

/// All one server keeps about one shard.
#[derive(Clone, Debug)]
struct Hosting<D> {
    /// The role held, if the shard is hosted.
    role: Option<ReplicaRole>,
    /// Step-1 state: the current owner we expect forwards from.
    pre_add: Option<ServerId>,
    /// Step-2 state while a role is held (replica kept), step-5
    /// tombstone once it is dropped.
    forward: Option<Rule>,
    /// The application's state for the shard.
    data: Option<D>,
}

impl<D> Default for Hosting<D> {
    fn default() -> Self {
        Self {
            role: None,
            pre_add: None,
            forward: None,
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
    pub(crate) fn role_of(&self, shard: ShardId) -> Option<ReplicaRole> {
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
    pub(crate) fn data_mut(&mut self, shard: ShardId) -> Option<&mut D> {
        self.records.get_mut(&shard).and_then(|r| r.data.as_mut())
    }

    /// Replaces the application's state for `shard`, hosted or not.
    pub(crate) fn set_data(&mut self, shard: ShardId, data: Option<D>) {
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
            && record.forward.is_none()
            && record.data.is_none();
        self.hosted = self.hosted + usize::from(has_role) - usize::from(had_role);
        if empty {
            self.records.remove(&shard);
        }
    }

    /// Implements `add_shard` (also step 3 of graceful migration). Ends
    /// any forwarding: the shard is served here from now on.
    pub fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.edit(shard, |r| {
            r.pre_add = None;
            r.forward = None;
            r.role = Some(role);
        });
        Ok(())
    }

    /// Implements `drop_shard` (also step 5). If the shard was in the
    /// forwarding state, the rule stays behind as a tombstone.
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
            if r.role.is_none() {
                r.forward = None;
            }
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
        self.forward(shard, Rule::To(shard, new_owner))
    }

    /// Implements `split_forward`: the replica is kept, and each request
    /// goes to the prepared child covering its key — `left` below `at`,
    /// `right` from it up.
    pub(crate) fn split_forward(
        &mut self,
        parent: ShardId,
        at: AppKey,
        left: Successor,
        right: Successor,
    ) -> Result<(), SmError> {
        self.forward(parent, Rule::Split(Box::new((at, left, right))))
    }

    /// Implements `merge_forward`: every request for `source` goes to the
    /// prepared union `target` on `to`.
    pub(crate) fn merge_forward(
        &mut self,
        source: ShardId,
        target: ShardId,
        to: ServerId,
    ) -> Result<(), SmError> {
        self.forward(source, Rule::To(target, to))
    }

    /// Installs a step-2 rule for a shard held here.
    fn forward(&mut self, shard: ShardId, rule: Rule) -> Result<(), SmError> {
        match self.records.get_mut(&shard) {
            Some(r) if r.role.is_some() => r.forward = Some(rule),
            _ => return Err(SmError::not_found(shard)),
        }
        Ok(())
    }

    /// True while requests for `shard` are forwarded (step 2 or the
    /// tombstone).
    pub(crate) fn is_forwarding(&self, shard: ShardId) -> bool {
        self.records
            .get(&shard)
            .is_some_and(|r| r.forward.is_some())
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
    pub(crate) fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.admit_class(shard, forwarded, false)
    }

    /// [`Self::admit`] for a request that carries its key, so that a
    /// split parent can pick the child: the shard the request now
    /// belongs to, and what to do with it.
    pub(crate) fn admit_key(
        &self,
        shard: ShardId,
        key: &AppKey,
        forwarded: bool,
    ) -> (ShardId, AppResponse) {
        match self.records.get(&shard).and_then(|r| r.forward.as_ref()) {
            Some(Rule::Split(split)) => {
                let (at, left, right) = &**split;
                let (child, to) = if key < at { *left } else { *right };
                (child, AppResponse::Forward(to))
            }
            Some(Rule::To(next, to)) => (*next, AppResponse::Forward(*to)),
            None => (shard, self.admit(shard, forwarded)),
        }
    }

    // sm-lint: hot-path
    fn admit_class(&self, shard: ShardId, forwarded: bool, needs_primary: bool) -> AppResponse {
        let Some(r) = self.records.get(&shard) else {
            return AppResponse::NotMine;
        };
        // Step-2/-5 forwarding takes precedence: the handover is in
        // progress or completed and the new owner serves. Without a key
        // there is no telling which child of a split that is.
        match &r.forward {
            Some(Rule::To(_, target)) => return AppResponse::Forward(*target),
            Some(Rule::Split(_)) => return AppResponse::NotMine,
            None => {}
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
    pub(crate) fn wipe(&mut self) {
        self.records.clear();
        self.hosted = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `ShardHost` as it was before the one record: four maps, probed
    /// one after another by `admit_class`. Kept verbatim as the model,
    /// but for `add_shard` ending a forward.
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
            self.forward_to.remove(&shard);
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

    /// `split::SplitHost`'s §4.3 half as it was before it delegated to
    /// [`ShardHost`]: its own four maps, a three-way rule, admission by
    /// key. Kept verbatim as the model of `split_forward`,
    /// `merge_forward` and `admit_key`.
    #[derive(Clone, Debug)]
    enum Fwd {
        Move(ServerId),
        Split {
            at: AppKey,
            left: ShardId,
            left_to: ServerId,
            right: ShardId,
            right_to: ServerId,
        },
        Merge {
            target: ShardId,
            to: ServerId,
        },
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Decision {
        Serve,
        Forward { shard: ShardId, to: ServerId },
        NotMine,
    }

    #[derive(Default)]
    struct RangeModel {
        shards: BTreeMap<ShardId, ReplicaRole>,
        pre_add: BTreeMap<ShardId, ServerId>,
        fwd: BTreeMap<ShardId, Fwd>,
        tomb: BTreeMap<ShardId, Fwd>,
    }

    impl RangeModel {
        fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) {
            self.pre_add.remove(&shard);
            self.fwd.remove(&shard);
            self.tomb.remove(&shard);
            self.shards.insert(shard, role);
        }

        fn drop_shard(&mut self, shard: ShardId) {
            self.shards.remove(&shard);
            self.pre_add.remove(&shard);
            if let Some(rule) = self.fwd.remove(&shard) {
                self.tomb.insert(shard, rule);
            }
        }

        fn change_role(&mut self, shard: ShardId, current: ReplicaRole, new: ReplicaRole) {
            if let Some(role) = self.shards.get_mut(&shard).filter(|r| **r == current) {
                *role = new;
            }
        }

        fn prepare_add_shard(&mut self, shard: ShardId, current_owner: ServerId) {
            self.pre_add.insert(shard, current_owner);
            self.tomb.remove(&shard);
        }

        fn forward(&mut self, shard: ShardId, rule: Fwd) -> Result<(), SmError> {
            if !self.shards.contains_key(&shard) {
                return Err(SmError::not_found(shard));
            }
            self.fwd.insert(shard, rule);
            Ok(())
        }

        fn admit(&self, shard: ShardId, key: &AppKey, forwarded: bool) -> Decision {
            if let Some(rule) = self.fwd.get(&shard).or_else(|| self.tomb.get(&shard)) {
                let (shard, to) = match rule {
                    Fwd::Move(to) => (shard, *to),
                    Fwd::Split {
                        at, left, left_to, ..
                    } if key < at => (*left, *left_to),
                    Fwd::Split {
                        right, right_to, ..
                    } => (*right, *right_to),
                    Fwd::Merge { target, to } => (*target, *to),
                };
                return Decision::Forward { shard, to };
            }
            let mine = if self.pre_add.contains_key(&shard) {
                forwarded
            } else {
                self.shards.get(&shard).is_some_and(|r| r.is_primary())
            };
            if mine {
                Decision::Serve
            } else {
                Decision::NotMine
            }
        }

        /// True while a split rule stands for `shard`.
        fn splits(&self, shard: ShardId) -> bool {
            let rule = self.fwd.get(&shard).or_else(|| self.tomb.get(&shard));
            matches!(rule, Some(Fwd::Split { .. }))
        }
    }

    #[test]
    fn one_record_host_equals_the_four_map_models() {
        const SHARDS: u64 = 8;
        const SERVERS: usize = 3;
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0018);
        let mut hosts: Vec<(ShardHost<u32>, FourMaps, RangeModel)> =
            (0..SERVERS).map(|_| Default::default()).collect();
        // Split points, and a key below, between, on and above them.
        let points = [1u64 << 62, 1 << 63].map(AppKey::from_u64);
        let probes = [0, 1 << 62, (1 << 63) - 1, 1 << 63, u64::MAX].map(AppKey::from_u64);
        // What `set_data` stored, per host: the model of the fifth field.
        let mut data: Vec<BTreeMap<ShardId, u32>> = vec![BTreeMap::new(); SERVERS];
        let mut outcomes: BTreeMap<String, u32> = BTreeMap::new();
        for step in 0..10_000u32 {
            let at = rng.index(SERVERS);
            let (host, model, ranged) = &mut hosts[at];
            let shard = ShardId(rng.range_u64(0, SHARDS));
            let peer = ServerId(rng.index(SERVERS) as u32);
            let other = ServerId(rng.index(SERVERS) as u32);
            // Children and unions carry ids no walked shard has.
            let minted = ShardId(SHARDS + rng.range_u64(0, SHARDS));
            let role = |rng: &mut sm_sim::SimRng| match rng.chance(0.5) {
                true => ReplicaRole::Primary,
                false => ReplicaRole::Secondary,
            };
            let (a, b) = (role(&mut rng), role(&mut rng));
            // Any call at any time, not the §4.3 order.
            let (name, got, want) = match rng.index(100) {
                0..=17 => {
                    ranged.add_shard(shard, a);
                    ("add", host.add_shard(shard, a), model.add_shard(shard, a))
                }
                18..=33 => {
                    ranged.drop_shard(shard);
                    ("drop", host.drop_shard(shard), model.drop_shard(shard))
                }
                34..=45 => {
                    ranged.change_role(shard, a, b);
                    (
                        "change_role",
                        host.change_role(shard, a, b),
                        model.change_role(shard, a, b),
                    )
                }
                46..=58 => {
                    ranged.prepare_add_shard(shard, peer);
                    (
                        "prepare_add",
                        host.prepare_add_shard(shard, peer, a),
                        model.prepare_add_shard(shard, peer, a),
                    )
                }
                59..=69 => (
                    "prepare_drop",
                    host.prepare_drop_shard(shard, peer, a),
                    ranged
                        .forward(shard, Fwd::Move(peer))
                        .and(model.prepare_drop_shard(shard, peer, a)),
                ),
                70..=77 => {
                    let at = points[rng.index(points.len())].clone();
                    let rule = Fwd::Split {
                        at: at.clone(),
                        left: minted,
                        left_to: peer,
                        right: ShardId(minted.raw() + SHARDS),
                        right_to: other,
                    };
                    // Without a key the four-map model cannot say which
                    // child: it is not consulted while the rule stands.
                    (
                        "split_forward",
                        host.split_forward(
                            shard,
                            at,
                            (minted, peer),
                            (ShardId(minted.raw() + SHARDS), other),
                        ),
                        ranged.forward(shard, rule),
                    )
                }
                78..=85 => {
                    let rule = Fwd::Merge {
                        target: minted,
                        to: peer,
                    };
                    // Without a key a merge is a move to `peer`.
                    (
                        "merge_forward",
                        host.merge_forward(shard, minted, peer),
                        ranged
                            .forward(shard, rule)
                            .and(model.prepare_drop_shard(shard, peer, a)),
                    )
                }
                86..=97 => {
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
                    *ranged = RangeModel::default();
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
                    // A keyless request that meets a split rule bounces.
                    let (primary, secondary) = match ranged.splits(s) {
                        true => (AppResponse::NotMine, AppResponse::NotMine),
                        false => (
                            model.admit(s, forwarded),
                            model.admit_secondary(s, forwarded),
                        ),
                    };
                    assert_eq!(
                        host.admit(s, forwarded),
                        primary,
                        "step {step}: {name} {shard}, admit {s} {forwarded}"
                    );
                    assert_eq!(
                        host.admit_secondary(s, forwarded),
                        secondary,
                        "step {step}: {name} {shard}, admit_secondary {s} {forwarded}"
                    );
                    for key in &probes {
                        let want = match ranged.admit(s, key, forwarded) {
                            Decision::Serve => (s, AppResponse::Serve),
                            Decision::Forward { shard, to } => (shard, AppResponse::Forward(to)),
                            Decision::NotMine => (s, AppResponse::NotMine),
                        };
                        assert_eq!(
                            host.admit_key(s, key, forwarded),
                            want,
                            "step {step}: {name} {shard}, admit_key {s} {key:?} {forwarded}"
                        );
                    }
                }
                assert_eq!(
                    host.is_forwarding(s),
                    ranged.fwd.contains_key(&s) || ranged.tomb.contains_key(&s),
                    "step {step}: {s}"
                );
                assert_eq!(host.role_of(s), model.role_of(s), "step {step}: {s}");
                assert_eq!(host.data(s), data[at].get(&s), "step {step}: {s}");
                assert_eq!(host.data_mut(s), data[at].get_mut(&s), "step {step}: {s}");
            }
            assert_eq!(host.shard_count(), model.shard_count(), "step {step}");
            assert!(host.shards().eq(model.shards()), "step {step}");
            // A record exists exactly for the shards something is known
            // about: none is empty, so the map stays bounded.
            let mut known = model.known();
            known.extend(ranged.fwd.keys().chain(ranged.tomb.keys()));
            known.extend(data[at].keys());
            assert!(host.records.keys().eq(known.iter()), "step {step}: {name}");
        }
        // Every call was both accepted and, where it can be, refused.
        assert_eq!(outcomes.len(), 13, "{outcomes:?}");
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
    fn a_resumed_source_serves_again() {
        // A graceful move abandoned after step 2: the control plane
        // tells the source to take the shard back. The add ends the
        // forward — the target it points at was told to drop.
        let mut h = ShardHost::new();
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        h.prepare_drop_shard(S, NEW, ReplicaRole::Primary).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Forward(NEW));
        h.add_shard(S, ReplicaRole::Primary).unwrap();
        assert_eq!(h.admit(S, false), AppResponse::Serve);
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
