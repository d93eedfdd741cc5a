//! The ownership-change state machine: every move, split and merge the
//! orchestrator has in flight, and every compensation it still owes.
//!
//! §4.3's graceful migration is one protocol — prepare the new owner,
//! make the old owner forward, hand over, publish, drop — and a change
//! of any kind runs a sub-sequence of it ([`Kind::steps`]; the table is
//! drawn in the `orchestrator` module doc). A [`Change`] records who
//! leaves (`sources`), who enters (`targets`), which step is awaited and
//! which of that step's RPCs are acked. [`Change::expected_rpcs`] is the
//! only place a step's wire form is spelled: a step is *sent* from it
//! and its acks are *matched* against it.
//!
//! Whatever a finished or aborted change still owes a server is a
//! pending compensation `(shard, server, what)`:
//!
//! - `Reclaim` — `DropShard` a copy the assignment does not place there:
//!   a target an aborted change sent `Prepare` or `Add`, a retired
//!   parent (step 5 of a committed split/merge), or a server whose RPC
//!   failed — "failed" only means no ack arrived, so it may have applied
//!   it. Until the drop is acked the shard is busy: re-placing it earlier
//!   could make the unacked copy a second willing primary (§3.2).
//! - `Resume` — `AddShard` a source of an aborted change whose kind
//!   forwards (a graceful move, a split, a merge: all primary-role) and
//!   that still owns its shard, cancelling its forwarding state.
//! - `Promote` — `ChangeRole` a surviving secondary to primary.
//!
//! Every abort takes one path, whatever the kind and whether before its
//! commit or — a move — after it: the parties come from the kind's row
//! of [`Kind::steps`], and a compensation the assignment makes moot is
//! dropped — a reclaim where it places the shard, a resume where it does
//! not. **A resume waits for the reclaims of its shard:** while a
//! reclaim of the shard is pending, a requested resume is held in
//! `pending` unsent, so source and target never both act as primary. Its
//! waiting is derived, not stored — it is sent when the last reclaim of
//! its shard is acked or lapses with its dead holder. A split/merge's
//! targets are other shards than its sources, so their resumes never
//! wait.
//!
//! A nacked reclaim or resume is re-sent while its server lives; a
//! nacked promotion moves on to the next live secondary. A server whose
//! lease expires is fenced, so its reclaims and resumes lapse; one that
//! restarts in place came back empty, so its resumes lapse and every
//! split/merge touching it aborts (plain moves run on — the re-sent
//! `AddShard`s are all such a server needs). A standby restored from a
//! snapshot still forgets every change in flight and every pending
//! compensation, a waiting resume included.

use crate::api::ServerRpc;
use crate::orchestrator::Orchestrator;
use sm_allocator::ReplicaMove;
use sm_types::{AppKey, ReplicaRole, ServerId, ShardId, SmError};

/// A `(shard, server)` pair leaving or entering ownership.
type Party = (ShardId, ServerId);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// §4.3 five-step protocol (a primary with a live source).
    Graceful,
    /// Add-then-drop (secondaries; safe to double-host briefly).
    Secondary,
    /// Drop-then-add (ablation mode for primaries).
    Abrupt,
    /// Fresh placement: no source, or a dead one with nothing to hand
    /// off (kept as a source only so its server still counts as
    /// involved).
    Fresh,
    /// 1→2: `sources[0]` is the parent, `targets` the two children.
    Split,
    /// 2→1: `sources` are the two neighbours, `targets[0]` their union.
    Merge,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    /// `PrepareAddShard` → targets (accept only forwarded requests).
    Prepare,
    /// `PrepareDropShard` / `SplitForward` / `MergeForward` → sources.
    Forward,
    /// `AddShard` → targets (the cutover).
    Add,
    /// No RPC: record the change in assignment and spec, publish.
    Commit,
    /// `DropShard` → sources.
    Drop,
}

impl Kind {
    /// The one step table. A committed split/merge ends at `Commit`:
    /// its sources are retired there and dropped as reclaims, so the
    /// children are free to move while a parent still drains.
    fn steps(self) -> &'static [Step] {
        use Step::*;
        match self {
            Kind::Graceful => &[Prepare, Forward, Add, Commit, Drop],
            Kind::Secondary => &[Add, Commit, Drop],
            Kind::Abrupt => &[Drop, Add, Commit],
            Kind::Fresh => &[Add, Commit],
            Kind::Split | Kind::Merge => &[Prepare, Forward, Add, Commit],
        }
    }

    fn is_reshard(self) -> bool {
        matches!(self, Kind::Split | Kind::Merge)
    }
}

/// One in-flight ownership change. The targets of a split/merge are in
/// neither `shards`, the spec, nor any published map until it commits,
/// so clients cannot reach them and an abort only has to reclaim
/// unpublished state.
pub(crate) struct Change {
    kind: Kind,
    role: ReplicaRole,
    sources: [Option<Party>; 2],
    targets: [Option<Party>; 2],
    /// Index into `kind.steps()` of the awaited step.
    step: u8,
    /// Bit `i` is set once slot `i` of `expected_rpcs()` is acked.
    acked: u8,
    /// The scheduler slot a move holds.
    mv: Option<ReplicaMove>,
    /// Where a split divides its parent's range.
    split_at: Option<AppKey>,
}

impl Change {
    fn new(
        kind: Kind,
        role: ReplicaRole,
        sources: [Option<Party>; 2],
        targets: [Option<Party>; 2],
    ) -> Self {
        Self {
            kind,
            role,
            sources,
            targets,
            step: 0,
            acked: 0,
            mv: None,
            split_at: None,
        }
    }

    pub(crate) fn split(parent: Party, at: AppKey, children: [Party; 2]) -> Self {
        Self {
            split_at: Some(at),
            ..Self::new(
                Kind::Split,
                ReplicaRole::Primary,
                [Some(parent), None],
                children.map(Some),
            )
        }
    }

    pub(crate) fn merge(neighbours: [Party; 2], union: Party) -> Self {
        let (sources, targets) = (neighbours.map(Some), [Some(union), None]);
        Self::new(Kind::Merge, ReplicaRole::Primary, sources, targets)
    }

    fn step(&self) -> Option<Step> {
        self.kind.steps().get(usize::from(self.step)).copied()
    }

    fn parties(&self) -> impl Iterator<Item = Party> + '_ {
        self.sources.iter().chain(&self.targets).flatten().copied()
    }

    fn involves(&self, server: ServerId) -> bool {
        self.parties().any(|(_, s)| s == server)
    }

    /// The RPCs the awaited step sends, one per party it addresses
    /// (slot `i` answers bit `i` of `acked`). Each concerns its own
    /// party's shard, so `rpc.shard()` finds the change an ack is for.
    fn expected_rpcs(&self) -> [Option<(ServerId, ServerRpc)>; 2] {
        let Some(step) = self.step() else {
            return [None; 2];
        };
        let (role, [owner, _], [t0, t1]) = (self.role, self.sources, self.targets);
        let addressed = match step {
            Step::Prepare | Step::Add => self.targets,
            Step::Forward | Step::Drop => self.sources,
            Step::Commit => [None; 2],
        };
        addressed.map(|party| {
            let (shard, server) = party?;
            let rpc = match (step, self.kind) {
                (Step::Prepare, _) => ServerRpc::PrepareAddShard {
                    shard,
                    current_owner: owner?.1,
                    role,
                },
                (Step::Forward, Kind::Split) => ServerRpc::SplitForward {
                    parent: shard,
                    left: t0?.0,
                    left_to: t0?.1,
                    right: t1?.0,
                    right_to: t1?.1,
                },
                (Step::Forward, Kind::Merge) => ServerRpc::MergeForward {
                    source: shard,
                    target: t0?.0,
                    target_to: t0?.1,
                },
                (Step::Forward, _) => ServerRpc::PrepareDropShard {
                    shard,
                    new_owner: t0?.1,
                    role,
                },
                (Step::Add, _) => ServerRpc::AddShard { shard, role },
                (Step::Drop, _) => ServerRpc::DropShard { shard },
                (Step::Commit, _) => return None,
            };
            Some((server, rpc))
        })
    }

    /// Records an ack. `None`: this change does not await it;
    /// `Some(true)`: the awaited step is now fully acked.
    fn ack(&mut self, server: ServerId, rpc: ServerRpc) -> Option<bool> {
        let expected = self.expected_rpcs();
        let slot = expected.iter().position(|e| *e == Some((server, rpc)))?;
        self.acked |= 1 << slot;
        let mut slots = expected.iter().enumerate();
        Some(slots.all(|(i, e)| e.is_none() || self.acked & (1 << i) != 0))
    }
}

/// What a pending compensation asks of its server (see the module doc).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Compensation {
    Promote,
    Reclaim,
    Resume,
}

impl Compensation {
    fn rpc(self, shard: ShardId) -> ServerRpc {
        match self {
            Compensation::Promote => ServerRpc::ChangeRole {
                shard,
                current: ReplicaRole::Secondary,
                new: ReplicaRole::Primary,
            },
            Compensation::Reclaim => ServerRpc::DropShard { shard },
            Compensation::Resume => ServerRpc::AddShard {
                shard,
                role: ReplicaRole::Primary,
            },
        }
    }

    /// The compensation an ack of `rpc` could settle.
    fn settled_by(rpc: &ServerRpc) -> Option<Self> {
        match rpc {
            ServerRpc::ChangeRole { .. } => Some(Compensation::Promote),
            ServerRpc::DropShard { .. } => Some(Compensation::Reclaim),
            ServerRpc::AddShard { .. } => Some(Compensation::Resume),
            _ => None,
        }
    }
}

impl Orchestrator {
    // ---- What is in flight ----

    /// True while nothing new may start on `shard`: it is inside a
    /// change, or a compensation of it is still unacked.
    pub(crate) fn busy(&self, shard: ShardId) -> bool {
        self.held(shard) || self.promoting(shard)
    }

    /// `busy` but for a pending promotion, which holds back neither a
    /// replica's placement (the refill after a failure runs beside the
    /// promotion) nor a reclaim.
    fn held(&self, shard: ShardId) -> bool {
        let mut pending = self.pending_for(shard);
        self.change_of.contains_key(&shard)
            || pending.any(|(_, what)| what != Compensation::Promote)
    }

    /// The compensations of `shard` still awaiting their ack, and their
    /// servers.
    fn pending_for(&self, shard: ShardId) -> impl Iterator<Item = (ServerId, Compensation)> + '_ {
        // The least key `pending` can hold for `shard`.
        let first = (shard, ServerId(0), Compensation::Promote);
        let of_shard = self
            .pending
            .range(first..)
            .take_while(move |p| p.0 == shard);
        of_shard.map(|&(_, server, what)| (server, what))
    }

    /// The in-flight change involving `shard` — there is at most one,
    /// since [`Self::held`] refuses a second.
    fn change_involving(&self, shard: ShardId) -> Option<&Change> {
        self.changes.get(*self.change_of.get(&shard)?)
    }

    /// True while a promotion of `shard` awaits its ack.
    pub(crate) fn promoting(&self, shard: ShardId) -> bool {
        let mut pending = self.pending_for(shard);
        pending.any(|(_, what)| what == Compensation::Promote)
    }

    /// True while a replica move (not a split/merge) of `shard` is in
    /// flight — one that will revisit the shard's placement when it
    /// ends.
    pub(crate) fn moving(&self, shard: ShardId) -> bool {
        let slot = self.change_of.get(&shard);
        slot.is_some_and(|&idx| idx >= self.reshards)
    }

    /// True while any in-flight change has `server` as source or target.
    pub(crate) fn involves(&self, server: ServerId) -> bool {
        self.changes.iter().any(|c| c.involves(server))
    }

    /// The scheduler moves of the changes in flight.
    pub(crate) fn moves_in_flight(&self) -> impl Iterator<Item = ReplicaMove> + '_ {
        self.changes.iter().filter_map(|c| c.mv)
    }

    /// Count of in-flight migrations (tests / metrics).
    pub fn in_flight_migrations(&self) -> usize {
        self.changes.len() - self.reshards
    }

    /// Count of in-flight split/merge operations (tests / metrics).
    pub fn in_flight_reshards(&self) -> usize {
        self.reshards
    }

    /// The pending split point of `parent`, while a split of it is in
    /// flight. The world uses this to derive the child ranges when it
    /// delivers the `SplitForward` RPC (the RPC itself carries only ids,
    /// keeping [`ServerRpc`] `Copy`).
    pub fn pending_split(&self, parent: ShardId) -> Option<&AppKey> {
        let c = self.change_involving(parent)?;
        let of_parent = matches!(c.sources, [Some((p, _)), _] if p == parent);
        c.split_at.as_ref().filter(|_| of_parent)
    }

    /// Forgets everything in flight (a restored standby starts clean).
    pub(crate) fn clear_in_flight(&mut self) {
        self.changes.clear();
        self.change_of.clear();
        self.reshards = 0;
        self.pending.clear();
    }

    /// Files `change` and sends its first step. Splits/merges are kept
    /// ahead of the moves, in starting order, so a sweep aborts them in
    /// a reproducible order and both counts are O(1).
    pub(crate) fn begin(&mut self, change: Change) {
        let reshard = change.kind.is_reshard();
        self.changes.push(change);
        let mut idx = self.changes.len() - 1;
        if reshard {
            self.changes.swap(idx, self.reshards);
            self.index_change(idx);
            idx = self.reshards;
            self.reshards += 1;
        }
        self.index_change(idx);
        self.send_step(idx);
    }

    /// Unfiles `changes[idx]`, leaving the split/merge prefix in order.
    fn take_change(&mut self, idx: usize) -> Option<Change> {
        if idx >= self.changes.len() {
            return None;
        }
        let mut hole = idx;
        if idx < self.reshards {
            self.reshards -= 1;
            self.changes.swap(idx, self.reshards);
            hole = self.reshards;
        }
        let taken = self.changes.swap_remove(hole);
        for (shard, _) in taken.parties() {
            self.change_of.remove(&shard);
        }
        self.index_change(hole);
        if hole != idx {
            self.index_change(idx);
        }
        Some(taken)
    }

    /// Points `change_of` at `changes[idx]` for every shard it involves;
    /// called wherever a change lands on a position.
    fn index_change(&mut self, idx: usize) {
        let parties = self.changes.get(idx).into_iter().flat_map(Change::parties);
        for (shard, _) in parties {
            self.change_of.insert(shard, idx);
        }
    }

    fn send_step(&mut self, idx: usize) {
        let Some(change) = self.changes.get(idx) else {
            return;
        };
        for (server, rpc) in change.expected_rpcs().into_iter().flatten() {
            self.send_rpc(server, rpc);
        }
    }

    // ---- Starting a move ----

    /// Starts `mv`, or skips it as stale; true when it started.
    pub(crate) fn start_move(&mut self, mv: ReplicaMove) -> bool {
        let shard = mv.shard;
        // Plans can be superseded (a drain or emergency run replaces a
        // periodic plan), so a released move may be stale by the time it
        // starts. Skip moves whose source no longer hosts the shard,
        // fresh adds of a shard that no longer lacks a slot, moves whose
        // target already hosts the shard or is down (a server that held
        // nothing plans nothing again when it goes), and moves of held
        // shards (moving a parent's primary mid-forward would strand the
        // forwarding chain) — the next allocation run re-plans anything
        // still suboptimal.
        let replicas = self.state.assignment.replicas(shard);
        let source = mv
            .from
            .map(|from| replicas.iter().find(|r| r.server == from));
        let stale_source = match source {
            Some(held) => held.is_none(),
            None => !self.books.lacks(shard),
        };
        let stale_target = replicas.iter().any(|r| r.server == mv.to) || !self.server_alive(mv.to);
        if stale_source || stale_target || self.held(shard) {
            if let Some(s) = self.scheduler.as_mut() {
                s.complete(&mv);
            }
            return false;
        }
        // Role: keep the role held at the source; fresh adds become
        // primary if the shard needs one.
        let role = source.flatten().map(|r| r.role).unwrap_or_else(|| {
            if self.policy.replication.has_primary()
                && !replicas.iter().any(|r| r.role.is_primary())
                && !self.promoting(shard)
            {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            }
        });
        let kind = match (mv.from, role) {
            // No source, or a dead one: nothing to hand off.
            (Some(from), _) if !self.server_alive(from) => Kind::Fresh,
            (None, _) => Kind::Fresh,
            (Some(_), ReplicaRole::Secondary) => Kind::Secondary,
            (Some(_), ReplicaRole::Primary) if self.state.config.graceful_migration => {
                Kind::Graceful
            }
            (Some(_), ReplicaRole::Primary) => Kind::Abrupt,
        };
        let sources = [mv.from.map(|from| (shard, from)), None];
        self.begin(Change {
            mv: Some(mv),
            ..Change::new(kind, role, sources, [Some((shard, mv.to)), None])
        });
        true
    }

    // ---- Acks ----

    /// Handles an RPC acknowledgement from an application server,
    /// settling the compensation or advancing the change it answers.
    pub fn rpc_acked(&mut self, server: ServerId, rpc: ServerRpc) {
        let shard = rpc.shard();
        // Compensations first. A reclaim or resume is never also a live
        // change's ack: it is only created once every change touching
        // that (shard, server) was aborted or committed, and no new one
        // can start while it is pending.
        let settles = Compensation::settled_by(&rpc).map(|what| (shard, server, what));
        if settles.is_some_and(|settled| self.pending.remove(&settled)) {
            match rpc {
                // The suspect copy is confirmed gone: a source resume
                // that waited for it can be sent, the shard is safe to
                // place again, and a promotion deferred by the reclaim
                // can go ahead.
                ServerRpc::DropShard { .. } => {
                    self.send_waiting_resumes(shard);
                    self.refill_if_orphaned(shard);
                    self.ensure_primary_for(shard);
                }
                ServerRpc::ChangeRole { new, .. } if new.is_primary() => {
                    self.promoted(shard, server)
                }
                _ => {}
            }
            return;
        }
        let Some(&idx) = self.change_of.get(&shard) else {
            return;
        };
        let awaited = self.changes.get_mut(idx);
        if awaited.and_then(|c| c.ack(server, rpc)) == Some(true) {
            self.advance(idx);
        }
    }

    fn promoted(&mut self, shard: ShardId, server: ServerId) {
        let promoted = self.state.assignment.edit();
        match promoted.change_role(shard, server, ReplicaRole::Primary) {
            Ok(()) => {
                self.stats.promotions += 1;
                self.publish_map();
            }
            Err(reason) => {
                // The server acked the promotion but the assignment
                // refused it (e.g. a concurrent path already installed
                // another primary). The acker now wrongly believes it
                // is primary: demote it, surface the anomaly, and
                // re-run role reconciliation instead of publishing a
                // map that contradicts reality.
                self.stats.failed_transitions += 1;
                self.push_error(SmError::conflict(format!(
                    "promotion of {shard} at {server} acked but rejected: {reason}"
                )));
                self.send_rpc(server, demotion(shard));
                self.ensure_primary_for(shard);
            }
        }
    }

    /// The awaited step of `changes[idx]` is fully acked: leave it and
    /// run the change forward to its next awaited RPC, or to its end.
    fn advance(&mut self, idx: usize) {
        loop {
            let Some(c) = self.changes.get_mut(idx) else {
                return;
            };
            let left = c.step();
            c.step += 1;
            c.acked = 0;
            let (kind, next, [source, _]) = (c.kind, c.step(), c.sources);
            if let (Some(Step::Drop), Some((shard, from))) = (left, source) {
                // A graceful move's commit already handed the replica
                // over; an abrupt one's map changes once, at its commit.
                if kind != Kind::Graceful {
                    self.remove_replica(shard, from);
                }
                if kind == Kind::Secondary {
                    self.publish_map();
                }
            }
            match next {
                None => return self.finish(idx),
                Some(Step::Commit) => {
                    if self.commit(idx) {
                        return;
                    }
                }
                Some(step) => {
                    self.send_step(idx);
                    // DST ablation: commit a split/merge when its
                    // cutover is sent. See
                    // `OrchestratorConfig::skip_cutover_ack`.
                    let unacked_cutover = step == Step::Add
                        && kind.is_reshard()
                        && self.state.config.skip_cutover_ack;
                    if !unacked_cutover {
                        return;
                    }
                }
            }
        }
    }

    /// The point of no return: records `changes[idx]` in the assignment
    /// (and, for a split/merge, the spec — one atomic step, so every
    /// shard id keeps a single immutable range from mint to removal),
    /// then publishes. Returns true when the change ended here.
    fn commit(&mut self, idx: usize) -> bool {
        let Some(c) = self.changes.get(idx) else {
            return true;
        };
        let (kind, mut role, [source, _], [target, _]) = (c.kind, c.role, c.sources, c.targets);
        if !kind.is_reshard() {
            let Some((shard, to)) = target else {
                return false;
            };
            match source {
                Some((_, from)) if kind == Kind::Graceful => self.move_replica(shard, from, to),
                _ => {
                    if kind == Kind::Fresh
                        && role.is_primary()
                        && self.state.assignment.primary_of(shard).is_some()
                    {
                        // A concurrent promotion won the primary role
                        // while this add was in flight; demote the
                        // newcomer and record it as a secondary.
                        role = ReplicaRole::Secondary;
                        self.send_rpc(to, demotion(shard));
                    }
                    let _refused = self.add_replica(shard, to, role);
                }
            }
            self.publish_map();
            return false;
        }
        // A split/merge leaves the list before it commits: its targets
        // stop being busy the moment they are real shards.
        let (Some(c), Some(spec)) = (self.take_change(idx), self.spec.as_ref()) else {
            return true;
        };
        let sources = c.sources.iter().flatten();
        let targets = c.targets.iter().flatten();
        let new_spec = match (c.sources, c.targets, &c.split_at) {
            ([Some((parent, _)), None], [Some((left, _)), Some((right, _))], Some(at)) => {
                spec.split_shard(parent, at, left, right)
            }
            ([Some((left, _)), Some((right, _))], [Some((union, _)), None], _) => {
                spec.merge_shards(left, right, union)
            }
            _ => Err("malformed change".into()),
        };
        match new_spec {
            Ok(new_spec) => self.spec = Some(new_spec),
            Err(reason) => {
                // Unreachable by construction (the change held its
                // sources' ranges exclusively); surface and recover
                // rather than corrupt the spec.
                let shard = source.map(|(shard, _)| shard);
                self.push_error(SmError::conflict(format!(
                    "{kind:?} of {shard:?} failed at commit: {reason}"
                )));
                self.abort(&c, None);
                return true;
            }
        }
        let desired_of = |&(shard, _): &Party| self.state.desired_replicas.get(&shard).copied();
        let desired = sources.clone().filter_map(desired_of).max().unwrap_or(1);
        for &(shard, to) in targets {
            self.state.shards.edit().push(shard);
            self.set_desired(shard, Some(desired));
            if let Err(reason) = self.add_replica(shard, to, c.role) {
                self.push_error(SmError::conflict(format!(
                    "{shard} could not be recorded at {to}: {reason}"
                )));
            }
        }
        for &(shard, _) in sources {
            self.retire_shard(shard);
        }
        self.publish_map();
        match kind {
            Kind::Split => self.stats.splits_completed += 1,
            _ => self.stats.merges_completed += 1,
        }
        if desired > 1 {
            // New shards start primary-only; refill their secondaries.
            self.run_emergency();
        }
        true
    }

    /// Removes a committed-away shard from every book and drains its
    /// remaining replicas as reclaims (step 5: the old primary keeps
    /// forwarding residual traffic until dropped).
    fn retire_shard(&mut self, shard: ShardId) {
        let holders = self.state.assignment.replicas(shard).iter();
        for server in holders.map(|r| r.server).collect::<Vec<_>>() {
            self.remove_replica(shard, server);
            self.request(shard, server, Compensation::Reclaim);
        }
        self.state.shards.edit().retain(|&s| s != shard);
        self.set_desired(shard, None);
        self.state.loads.edit().0.retain(|&(s, _)| s != shard);
    }

    /// The last step of the move `changes[idx]` is acked.
    fn finish(&mut self, idx: usize) {
        let Some(c) = self.take_change(idx) else {
            return;
        };
        self.stats.completed_moves += 1;
        self.release_slot(&c);
        // A shard can end a move without a primary (e.g. its promotion
        // failed while this replacement replica was being placed);
        // re-elect as soon as the shard is quiescent.
        if let [Some((shard, _)), _] = c.targets {
            self.ensure_primary_for(shard);
        }
        self.pump_scheduler();
    }

    fn release_slot(&mut self, c: &Change) {
        if let (Some(mv), Some(scheduler)) = (c.mv, self.scheduler.as_mut()) {
            scheduler.complete(&mv);
        }
    }

    // ---- Aborts and compensation ----

    /// Gives up the already unfiled `c` and compensates exactly the
    /// parties its sent steps touched: a target sent `Prepare` or `Add`
    /// is reclaimed, and a source of a kind that forwards is resumed.
    /// [`Self::request`] drops what the assignment makes moot, so a move
    /// aborted after its commit neither reclaims its new owner nor
    /// resumes its old one. `dead` marks a server that just restarted
    /// empty (or failed) — nothing is sent to it.
    fn abort(&mut self, c: &Change, dead: Option<ServerId>) {
        match c.kind {
            Kind::Split => self.stats.splits_aborted += 1,
            Kind::Merge => self.stats.merges_aborted += 1,
            _ => self.stats.aborted_moves += 1,
        }
        self.release_slot(c);
        let mut sent = c.kind.steps().iter().take(usize::from(c.step) + 1);
        let entered = sent.any(|step| matches!(step, Step::Prepare | Step::Add));
        for &(shard, server) in c.targets.iter().flatten() {
            // A target minted for this change was never registered.
            if !self.state.desired_replicas.contains_key(&shard) {
                self.state.loads.edit().0.retain(|&(s, _)| s != shard);
            }
            if entered && Some(server) != dead {
                self.request(shard, server, Compensation::Reclaim);
            }
        }
        let forwards = c.kind.steps().contains(&Step::Forward);
        for &(shard, server) in c.sources.iter().flatten() {
            if forwards && Some(server) != dead {
                self.request(shard, server, Compensation::Resume);
            }
        }
    }

    /// Holds a compensation pending until acked and sends it once; a
    /// resume waits while its shard is reclaimed. Nothing goes to a dead
    /// server (lease expiry fences whatever it held), and a compensation
    /// the assignment makes moot is dropped: a resume where it does not
    /// place the shard, a reclaim where it does.
    pub(crate) fn request(&mut self, shard: ShardId, server: ServerId, what: Compensation) {
        let reclaim = what == Compensation::Reclaim;
        let moot = what != Compensation::Promote && self.hosts(shard, server) == reclaim;
        if moot || !self.server_alive(server) || !self.pending.insert((shard, server, what)) {
            return;
        }
        self.send_when_due(shard, server, what);
    }

    /// Sends a pending compensation, unless it is a resume that must
    /// wait for the reclaims of its shard (see the module doc).
    fn send_when_due(&mut self, shard: ShardId, server: ServerId, what: Compensation) {
        if what != Compensation::Resume
            || !self
                .pending_for(shard)
                .any(|p| p.1 == Compensation::Reclaim)
        {
            self.send_rpc(server, what.rpc(shard));
        }
    }

    /// Sends the resumes of `shard` that waited for its reclaims, once
    /// none is left.
    fn send_waiting_resumes(&mut self, shard: ShardId) {
        let pending: Vec<_> = self.pending_for(shard).collect();
        for (server, what) in pending.into_iter().filter(|p| p.1 == Compensation::Resume) {
            self.send_when_due(shard, server, what);
        }
    }

    /// Handles an RPC failure: the change it belongs to is aborted, the
    /// compensation it carried retried; failure-driven repair happens
    /// through [`Self::server_down`].
    pub fn rpc_failed(&mut self, server: ServerId, rpc: ServerRpc) {
        let shard = rpc.shard();
        // A failed reclaim or resume retries (a copy never dropped keeps
        // its shard busy; a source primary that never resumes serving
        // blackholes its range). Its server lives: `server_down` lets
        // both lapse.
        let retried = Compensation::settled_by(&rpc).filter(|&what| {
            what != Compensation::Promote && self.pending.contains(&(shard, server, what))
        });
        if let Some(what) = retried {
            return self.send_when_due(shard, server, what);
        }
        let hit = self.change_of.get(&shard).copied();
        let hit = hit.filter(|&idx| self.changes.get(idx).is_some_and(|c| c.involves(server)));
        if let Some(c) = hit.and_then(|idx| self.take_change(idx)) {
            self.abort(&c, None);
            self.pump_scheduler();
        }
        // A failed *promotion* retries on the next live secondary: the
        // application may have nacked because a safe joint election was
        // momentarily impossible there (stale log, unreachable quorum),
        // while another replica can win right now. Without the retry
        // the shard stays primary-less until an unrelated event.
        let was_promoting = self.pending.remove(&(shard, server, Compensation::Promote));
        if was_promoting && matches!(rpc, ServerRpc::ChangeRole { new, .. } if new.is_primary()) {
            self.retry_promotion(shard, server);
        }
        // "Failed" only means no ack arrived: if the server lives and
        // the assignment does not place this shard there, it may hold
        // an unacked copy — reclaim it.
        self.request(shard, server, Compensation::Reclaim);
        self.refill_if_orphaned(shard);
    }

    /// An aborted fresh add or a settled reclaim can leave `shard` with
    /// no replica at all and no move in flight to give it one: re-place
    /// it now instead of waiting for the next periodic run. A shard no
    /// longer registered (a retired split/merge parent, a child of a
    /// change that failed) has nothing to place, and a run would only
    /// replace the plan still queued.
    fn refill_if_orphaned(&mut self, shard: ShardId) {
        let registered = self.state.desired_replicas.contains_key(&shard);
        if registered && self.state.assignment.replicas(shard).is_empty() && !self.moving(shard) {
            self.run_emergency();
        }
    }

    /// `server` lost whatever it held: its lease expired (`down`) or it
    /// restarted in place. Aborts the changes that depended on it —
    /// only the splits/merges after a restart — and lets lapse the
    /// compensations that are now moot (see the module doc); a resume
    /// that waited for a lapsed reclaim is sent. Returns true when a
    /// reclaim lapsed, freeing its shard to be re-placed. Runs while the
    /// assignment still reflects pre-failure reality: an aborted source
    /// is resumed only where it still owns its shard.
    pub(crate) fn sweep(&mut self, server: ServerId, down: bool) -> bool {
        let scope = if down {
            self.changes.len()
        } else {
            self.reshards
        };
        for idx in (0..scope).rev() {
            if self.changes.get(idx).is_some_and(|c| c.involves(server)) {
                if let Some(c) = self.take_change(idx) {
                    self.abort(&c, Some(server));
                }
            }
        }
        let mut lapsed_reclaims = Vec::new();
        self.pending.retain(|&(shard, holder, what)| {
            // A promotion never lapses here; a reclaim only with a fence.
            let lapses = what != Compensation::Promote && (down || what == Compensation::Resume);
            let lapsed = holder == server && lapses;
            lapsed_reclaims.extend((lapsed && what == Compensation::Reclaim).then_some(shard));
            !lapsed
        });
        for &shard in &lapsed_reclaims {
            self.send_waiting_resumes(shard);
        }
        !lapsed_reclaims.is_empty()
    }
}

/// `ChangeRole` primary → secondary.
pub(crate) fn demotion(shard: ShardId) -> ServerRpc {
    ServerRpc::ChangeRole {
        shard,
        current: ReplicaRole::Primary,
        new: ReplicaRole::Secondary,
    }
}

#[cfg(test)]
mod tests {
    use super::Compensation;
    use crate::api::{OrchCommand, ServerRpc};
    use crate::orchestrator::{OrchStats, Orchestrator, OrchestratorConfig};
    use sm_allocator::{AllocConfig, MoveCaps};
    use sm_sim::SimRng;
    use sm_types::{
        AppId, AppPolicy, LoadVector, Location, MachineId, Metric, RegionId, ReplicaRole, ServerId,
        ShardId, ShardingSpec,
    };
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    type Sent = (ServerId, ServerRpc);

    // ---- Reference model: the scans `change_of` replaced ----

    impl super::Change {
        /// Whether the scans over `changes` took this change to involve
        /// `shard`.
        fn involves_shard(&self, shard: ShardId) -> bool {
            // A move's parties all concern the one shard it moves; checking
            // just its target keeps the scans over many moves cheap.
            if !self.kind.is_reshard() {
                return matches!(self.targets, [Some((s, _)), _] if s == shard);
            }
            self.parties().any(|(s, _)| s == shard)
        }
    }

    impl Orchestrator {
        /// `change_of` is `changes` projected by shard, no shard is in two
        /// changes, and every indexed lookup answers what its scan did.
        fn check_change_index(&self) {
            let mut projected = BTreeMap::new();
            for (idx, c) in self.changes.iter().enumerate() {
                for (shard, _) in c.parties() {
                    let earlier = projected.insert(shard, idx).unwrap_or(idx);
                    assert_eq!(earlier, idx, "{shard} is in two changes");
                }
            }
            assert_eq!(self.change_of, projected);
            let indexed = projected.keys();
            for &shard in self.state.shards.iter().chain(indexed) {
                let mut scan = self.changes.iter();
                let first = scan.position(|c| c.involves_shard(shard));
                assert_eq!(self.change_of.get(&shard).copied(), first, "{shard}");
                let mut pending = self.pending.iter();
                let held = first.is_some()
                    || pending.any(|&(s, _, what)| s == shard && what != Compensation::Promote);
                assert_eq!(self.held(shard), held, "{shard} held");
                let moving = first.is_some_and(|idx| idx >= self.reshards);
                assert_eq!(self.moving(shard), moving, "{shard} moving");
            }
        }
    }

    fn new_orch(
        servers: u32,
        capacity: f64,
        graceful: bool,
        skip_cutover_ack: bool,
        caps: MoveCaps,
    ) -> Orchestrator {
        let mut alloc = AllocConfig::new(vec![Metric::ShardCount.id()]);
        alloc.search.seed = 7;
        let config = OrchestratorConfig {
            graceful_migration: graceful,
            move_caps: caps,
            alloc,
            skip_cutover_ack,
        };
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config);
        for i in 0..servers {
            let location = Location {
                region: RegionId(0),
                datacenter: 0,
                rack: i,
                machine: MachineId(i),
            };
            let capacity = LoadVector::single(Metric::ShardCount.id(), capacity);
            o.register_server(ServerId(i), location, capacity);
        }
        o
    }

    fn rpcs(o: &mut Orchestrator) -> Vec<Sent> {
        o.take_commands()
            .into_iter()
            .filter_map(|c| match c {
                OrchCommand::Rpc { server, rpc } => Some((server, rpc)),
                OrchCommand::MapChanged { .. } => None,
            })
            .collect()
    }

    /// Delivers `queue` and everything it provokes, oldest first, like
    /// a world whose live servers ack and whose dead servers time out.
    /// Returns each RPC in the order sent, with the number of RPCs
    /// answered before it was sent: delivery keeps that order, so the
    /// RPCs at positions `answered..i` were unanswered when the one at
    /// `i` was sent.
    fn settle(o: &mut Orchestrator, queue: Vec<Sent>) -> Vec<(Sent, usize)> {
        let mut sent: Vec<(Sent, usize)> = queue.into_iter().map(|s| (s, 0)).collect();
        sent.extend(rpcs(o).into_iter().map(|s| (s, 0)));
        let mut answered = 0;
        while let Some(&((server, rpc), _)) = sent.get(answered) {
            if o.server_alive(server) {
                o.rpc_acked(server, rpc);
            } else {
                o.rpc_failed(server, rpc);
            }
            answered += 1;
            sent.extend(rpcs(o).into_iter().map(|s| (s, answered)));
            o.check_change_index();
            o.check_books();
            assert!(answered < 10_000, "the orchestrator never went quiet");
        }
        sent
    }

    // ---- Refactor witness: seeded transcripts ----

    /// What a transcript records: every part it is fed, one per line.
    #[derive(Default)]
    struct Text(String);

    impl Text {
        fn feed(&mut self, part: &str) {
            assert!(!part.contains('\n'), "a part is one line: {part}");
            self.0.push_str(part);
            self.0.push('\n');
        }
    }

    const SERVERS: u32 = 12;
    const SHARDS: u64 = 48;
    const STEPS: usize = 2500;

    struct Transcript {
        o: Orchestrator,
        rng: SimRng,
        graceful: bool,
        skip_cutover_ack: bool,
        outstanding: VecDeque<Sent>,
        down: BTreeSet<ServerId>,
        /// Whether the script reports loads before its rebalances.
        loads: bool,
        text: Text,
        /// Counters summed over every control-plane epoch.
        totals: OrchStats,
    }

    fn add(total: &mut OrchStats, s: OrchStats) {
        total.completed_moves += s.completed_moves;
        total.aborted_moves += s.aborted_moves;
        total.promotions += s.promotions;
        total.splits_completed += s.splits_completed;
        total.splits_aborted += s.splits_aborted;
        total.merges_completed += s.merges_completed;
        total.merges_aborted += s.merges_aborted;
    }

    impl Transcript {
        fn orch(graceful: bool, skip_cutover_ack: bool) -> Orchestrator {
            let caps = MoveCaps {
                max_total: 6,
                max_per_server: 2,
                max_per_shard: 1,
            };
            new_orch(SERVERS, 40.0, graceful, skip_cutover_ack, caps)
        }

        fn new(seed: u64, graceful: bool, skip_cutover_ack: bool) -> Self {
            let mut o = Self::orch(graceful, skip_cutover_ack);
            o.register_shards((0..SHARDS).map(ShardId));
            o.register_spec(ShardingSpec::uniform_u64(SHARDS));
            o.run_emergency();
            Self {
                o,
                rng: SimRng::seeded(seed),
                graceful,
                skip_cutover_ack,
                outstanding: VecDeque::new(),
                down: BTreeSet::new(),
                loads: true,
                text: Text::default(),
                totals: OrchStats::default(),
            }
        }

        /// Records the outbox and queues its RPCs.
        fn absorb(&mut self) {
            self.o.check_change_index();
            self.o.check_build_input();
            self.o.check_books();
            let commands = self.o.take_commands();
            self.text.feed(&format!("{commands:?}"));
            for c in commands {
                if let OrchCommand::Rpc { server, rpc } = c {
                    self.outstanding.push_back((server, rpc));
                }
            }
        }

        fn server(&mut self) -> ServerId {
            ServerId(self.rng.index(SERVERS as usize) as u32)
        }

        fn spec_shards(&self) -> Vec<ShardId> {
            let spec = self.o.sharding_spec().expect("spec registered");
            spec.shard_ids().collect()
        }

        /// A control-plane failover (§6.2): a fresh orchestrator takes
        /// the snapshot and the current spec; RPCs already on the wire
        /// keep arriving, as acks for changes it never started.
        fn restart(&mut self) {
            let snapshot = self.o.snapshot();
            let spec = self.o.sharding_spec().cloned().expect("spec registered");
            self.text.feed(&format!("{:?}", self.o.stats()));
            add(&mut self.totals, self.o.stats());
            let mut standby = Self::orch(self.graceful, self.skip_cutover_ack);
            for &s in &self.down {
                standby.server_down(s);
            }
            standby.register_spec(spec);
            standby.restore(&snapshot).expect("own snapshot restores");
            self.o = standby;
        }

        fn step(&mut self) {
            let roll = self.rng.index(1000);
            match roll {
                0..=449 => {
                    if let Some((server, rpc)) = self.outstanding.pop_front() {
                        self.o.rpc_acked(server, rpc);
                    }
                }
                450..=699 if !self.outstanding.is_empty() => {
                    let i = self.rng.index(self.outstanding.len());
                    if let Some((server, rpc)) = self.outstanding.remove(i) {
                        if roll < 620 {
                            self.o.rpc_acked(server, rpc);
                        } else {
                            self.o.rpc_failed(server, rpc);
                        }
                    }
                }
                700..=729 if self.down.len() < 4 => {
                    let s = self.server();
                    self.down.insert(s);
                    self.o.server_down(s);
                }
                730..=769 => {
                    let s = self.server();
                    self.down.remove(&s);
                    self.o.server_up(s);
                }
                770..=799 => {
                    let s = self.server();
                    self.down.remove(&s);
                    self.o.reconcile_server(s);
                }
                800..=814 => {
                    let s = self.server();
                    self.o.drain_server(s);
                }
                815..=834 => {
                    let s = self.server();
                    self.o.drain_finished(s);
                }
                835..=859 if !self.loads => {
                    self.o.run_periodic();
                }
                835..=859 => {
                    let reports = self
                        .spec_shards()
                        .into_iter()
                        .map(|s| {
                            let load = self.rng.f64_range(0.2, 3.0);
                            (s, LoadVector::single(Metric::ShardCount.id(), load))
                        })
                        .collect();
                    self.o.report_load(ServerId(0), reports);
                    self.o.run_periodic();
                }
                860..=929 => {
                    let shards = self.spec_shards();
                    if let Some(&shard) = shards.get(self.rng.index(shards.len())) {
                        let started = self.o.start_split(shard).is_ok();
                        self.text.feed(if started { "split" } else { "no split" });
                    }
                }
                930..=997 => {
                    let shards = self.spec_shards();
                    let i = self.rng.index(shards.len());
                    if let (Some(&l), Some(&r)) = (shards.get(i), shards.get(i + 1)) {
                        let started = self.o.start_merge(l, r).is_ok();
                        self.text.feed(if started { "merge" } else { "no merge" });
                    }
                }
                998..=999 => self.restart(),
                _ => {}
            }
            self.absorb();
        }

        fn run(mut self) -> (String, OrchStats) {
            self.absorb();
            for _ in 0..STEPS {
                self.step();
            }
            // Quiesce: every RPC is answered, dead servers time out.
            while let Some((server, rpc)) = self.outstanding.pop_front() {
                if self.down.contains(&server) {
                    self.o.rpc_failed(server, rpc);
                } else {
                    self.o.rpc_acked(server, rpc);
                }
                self.absorb();
            }
            self.text.feed(&format!("{:?}", self.o.assignment()));
            self.text.feed(&format!("{:?}", self.o.stats()));
            self.text.feed(&format!(
                "{} {}",
                self.o.in_flight_migrations(),
                self.o.in_flight_reshards()
            ));
            add(&mut self.totals, self.o.stats());
            (self.text.0, self.totals)
        }
    }

    /// Refactor witness for the ownership-change machinery. One
    /// orchestrator per cell is driven by a seeded script — acks and
    /// nacks in and out of order, server failures, restarts in place,
    /// drains, rebalances, splits, merges and control-plane failovers
    /// landing mid-change — and the `Debug` rendering of everything it
    /// emits, its final assignment and its counters are recorded as
    /// text, one line per part, in `transcripts/seed-<n>.txt`. Only a
    /// change of behaviour re-records them, and CHANGES.md says which
    /// one; a refactor must leave every one unchanged. A mismatch
    /// prints the first divergent line and writes the new text under
    /// `target/transcripts/`, from where it is copied over the recorded
    /// file to re-record.
    #[test]
    fn seeded_transcripts_are_unchanged() {
        // (seed, graceful_migration, skip_cutover_ack)
        let cells: [(u64, bool, bool); 8] = [
            (1, true, false),
            (2, true, false),
            (3, false, false),
            (4, false, false),
            (5, true, true),
            (6, true, true),
            (7, false, true),
            (8, false, true),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut drifted = Vec::new();
        let mut total = OrchStats::default();
        for (seed, graceful, skip) in cells {
            let name = format!("seed-{seed}.txt");
            let recorded = std::fs::read_to_string(dir.join("transcripts").join(&name));
            let recorded = recorded.unwrap_or_default();
            let (got, stats) = Transcript::new(seed, graceful, skip).run();
            if got != recorded {
                let out = dir.join("../../target/transcripts");
                std::fs::create_dir_all(&out).expect("target/ is writable");
                std::fs::write(out.join(&name), &got).expect("target/ is writable");
                println!("{name} drifted; the new text is in {}", out.display());
                print_divergence(&recorded, &got);
                drifted.push(seed);
            }
            add(&mut total, stats);
        }
        println!("transcript totals: {total:?}");
        // Non-vacuous: the scripts reach every outcome of every kind.
        assert!(total.completed_moves > 100 && total.aborted_moves > 10);
        assert!(total.splits_completed > 10 && total.splits_aborted > 10);
        assert!(total.merges_completed > 10 && total.merges_aborted > 10);
        assert!(total.promotions > 10);
        assert!(drifted.is_empty(), "transcripts drifted: {drifted:?}");
    }

    /// `restore` rebuilds the books the live run kept. The transcript's
    /// script runs without load reports, since `smorch v1` carries no
    /// loads; the loads minted with split and merge targets are handed to
    /// the standby first, as its first reports would be. Every 50 steps
    /// the live orchestrator's snapshot is restored into a fresh one with
    /// the same servers and liveness, whose books must equal the live
    /// ones (but for the kept periodic problem, which a standby builds
    /// again).
    #[test]
    fn a_restored_standby_books_what_the_live_run_kept() {
        use crate::orchestrator::Loads;
        let (mut restores, mut lacking) = (0, 0);
        for (seed, graceful) in [(1, true), (3, false)] {
            let mut t = Transcript::new(seed, graceful, false);
            t.loads = false;
            t.absorb();
            for step in 0..STEPS {
                t.step();
                if step % 50 != 49 {
                    continue;
                }
                let mut standby = Transcript::orch(graceful, false);
                for &s in &t.down {
                    standby.server_down(s);
                }
                *standby.state.loads.edit() = Loads(t.o.state.loads.0.clone());
                standby
                    .restore(&t.o.snapshot())
                    .expect("own snapshot restores");
                let at = format!("seed {seed}, step {step}");
                standby.books.assert_same(&t.o.books, &at);
                restores += 1;
                lacking += usize::from(!t.o.books.fully_placed());
            }
        }
        // Non-vacuous: some restores caught a shard lacking a live slot.
        println!("{restores} restores, {lacking} while a shard lacked a live slot");
        assert_eq!(restores, 100);
        assert!(
            lacking > 10,
            "{lacking} of {restores} restores lacked a slot"
        );
    }

    /// Prints the first line at which `got` leaves `want`, after the
    /// three lines before it.
    fn print_divergence(want: &str, got: &str) {
        let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
        let at =
            (want.iter().zip(&got).position(|(w, g)| w != g)).unwrap_or(want.len().min(got.len()));
        println!("  first divergent line: {}", at + 1);
        for line in &got[at.saturating_sub(3)..at] {
            println!("    {line}");
        }
        println!("  - {}", want.get(at).unwrap_or(&"<end of text>"));
        println!("  + {}", got.get(at).unwrap_or(&"<end of text>"));
    }

    /// A solve is reused exactly while nothing it reads has changed:
    /// the transcript's script plus the mutators it lacks, an allocator
    /// run after every step, each compared with a fresh run over the
    /// copied-out model (`run_checked`). A write that missed its
    /// revision count replays a stale plan here.
    #[test]
    fn a_reused_plan_is_the_plan_a_fresh_solve_returns() {
        use crate::orchestrator::Mode;
        let mut t = Transcript::new(21, true, false);
        let mut rng = SimRng::seeded(0x21);
        // A second region, which the script's failures never reach, for
        // region preferences to tell apart.
        for i in SERVERS..SERVERS + 3 {
            let location = Location {
                region: RegionId(1),
                datacenter: 1,
                rack: i,
                machine: MachineId(i),
            };
            let capacity = LoadVector::single(Metric::ShardCount.id(), 40.0);
            t.o.register_server(ServerId(i), location, capacity);
        }
        let (mut reused, mut solved) = (0, 0);
        for _ in 0..2_000 {
            let shard = ShardId(rng.index(2 * SHARDS as usize) as u64);
            match rng.index(16) {
                0 => t.o.set_desired_replicas(shard, 1 + rng.index(3) as u32),
                1 => {
                    let region = RegionId(rng.index(2) as u16);
                    t.o.set_region_preference(shard, region, rng.f64_range(0.5, 2.0));
                }
                2 => {
                    let load = LoadVector::single(Metric::ShardCount.id(), rng.f64_range(0.2, 3.0));
                    t.o.report_load(ServerId(0), vec![(shard, load)]);
                }
                3 if rng.chance(0.2) => {
                    let snapshot = t.o.snapshot();
                    t.o.restore(&snapshot).expect("own snapshot restores");
                }
                _ => t.step(),
            }
            // The runs below send more than the script's steps answer:
            // answer the oldest few, so that changes still reach their end.
            for _ in 0..rng.index(4) {
                if let Some((server, rpc)) = t.outstanding.pop_front() {
                    t.o.rpc_acked(server, rpc);
                }
            }
            let mode = if rng.chance(0.97) {
                Mode::Emergency
            } else {
                Mode::Periodic
            };
            // Once, and now and then again at once: nothing between the
            // two changes what a solve reads.
            for _ in 0..1 + usize::from(rng.chance(0.25)) {
                let counted = if t.o.run_checked(mode) {
                    &mut reused
                } else {
                    &mut solved
                };
                *counted += 1;
                t.absorb();
            }
        }
        add(&mut t.totals, t.o.stats());
        println!(
            "{reused} runs reused a plan, {solved} did not; {:?}",
            t.totals
        );
        assert!(reused > 400 && solved > 400);
        // Splits and merges reached both their ends under the walk.
        assert!(t.totals.splits_completed > 5 && t.totals.splits_aborted > 5);
        assert!(t.totals.merges_completed > 5 && t.totals.merges_aborted > 5);
        assert!(t.totals.completed_moves > 100 && t.totals.promotions > 10);
    }

    // ---- Interrupt every step of every kind ----

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Kind {
        Graceful,
        Secondary,
        Abrupt,
        Fresh,
        Split,
        Merge,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Interrupt {
        Nack,
        SourceDown,
        TargetDown,
        ReconcileSource,
        ReconcileTarget,
    }

    const SUBJECT: ShardId = ShardId(0);

    /// A settled 8-server, 2-shard world with one change of `kind`
    /// just started on shard 0, and the change's source server.
    fn started(kind: Kind) -> (Orchestrator, Option<ServerId>) {
        let caps = MoveCaps {
            max_total: 100,
            max_per_server: 100,
            max_per_shard: 1,
        };
        // Capacity 4 makes the bootstrap spread: one replica a server.
        let mut o = new_orch(8, 4.0, kind != Kind::Abrupt, false, caps);
        o.register_shards((0..2).map(ShardId));
        o.register_spec(ShardingSpec::uniform_u64(2));
        o.run_emergency();
        settle(&mut o, Vec::new());
        let primary = o.assignment().primary_of(SUBJECT).expect("bootstrapped");
        let secondary = o
            .assignment()
            .replicas(SUBJECT)
            .iter()
            .find(|r| !r.role.is_primary())
            .map(|r| r.server)
            .expect("bootstrapped with a secondary");
        let source = match kind {
            Kind::Graceful | Kind::Abrupt | Kind::Split | Kind::Merge => Some(primary),
            Kind::Secondary => Some(secondary),
            Kind::Fresh => None,
        };
        match kind {
            Kind::Graceful | Kind::Abrupt | Kind::Secondary => {
                let from = source.expect("moves have a source");
                assert_eq!(o.shards_on(from).len(), 1, "one replica to drain");
                assert_eq!(o.drain_server(from), 1);
            }
            Kind::Fresh => {
                o.set_desired_replicas(SUBJECT, 3);
                assert_eq!(o.run_emergency(), 1);
            }
            Kind::Split => o.start_split(SUBJECT).expect("split starts"),
            Kind::Merge => o.start_merge(SUBJECT, ShardId(1)).expect("merge starts"),
        }
        (o, source)
    }

    /// The RPC rounds of an uninterrupted change of `kind`: round `i`
    /// holds what step `i` awaits.
    fn uninterrupted(kind: Kind, steps: usize) -> Vec<Vec<Sent>> {
        let (mut o, _) = started(kind);
        (0..steps)
            .map(|_| {
                let round = rpcs(&mut o);
                for &(server, rpc) in &round {
                    o.rpc_acked(server, rpc);
                }
                round
            })
            .collect()
    }

    #[test]
    fn every_step_of_every_kind_survives_every_interruption() {
        use ServerRpc::*;
        type Shape = fn(&ServerRpc) -> bool;
        let prepare: Shape = |r| matches!(r, PrepareAddShard { .. });
        let add: Shape = |r| matches!(r, AddShard { .. });
        let drop: Shape = |r| matches!(r, DropShard { .. });
        let forward: Shape = |r| {
            matches!(
                r,
                PrepareDropShard { .. } | SplitForward { .. } | MergeForward { .. }
            )
        };
        // Rows of the step table: what each kind awaits, in order, and
        // the round in which its target first appears.
        let table: [(Kind, Vec<Shape>, usize); 6] = [
            (
                Kind::Graceful,
                vec![prepare, |r| matches!(r, PrepareDropShard { .. }), add, drop],
                0,
            ),
            (Kind::Secondary, vec![add, drop], 0),
            (Kind::Abrupt, vec![drop, add], 1),
            (Kind::Fresh, vec![add], 0),
            (
                Kind::Split,
                vec![prepare, |r| matches!(r, SplitForward { .. }), add],
                0,
            ),
            (
                Kind::Merge,
                vec![prepare, |r| matches!(r, MergeForward { .. }), add],
                0,
            ),
        ];
        let interrupts = [
            Interrupt::Nack,
            Interrupt::SourceDown,
            Interrupt::TargetDown,
            Interrupt::ReconcileSource,
            Interrupt::ReconcileTarget,
        ];
        let (mut rows, mut resumed, mut waited) = (0, 0, 0);
        for (kind, shapes, target_round) in &table {
            let rounds = uninterrupted(*kind, shapes.len());
            for (round, shape) in rounds.iter().zip(shapes) {
                assert!(!round.is_empty() && round.iter().all(|(_, r)| shape(r)));
            }
            let target = rounds[*target_round][0].0;
            for (step, expected) in rounds.iter().enumerate() {
                for interrupt in interrupts {
                    let (mut o, source) = started(*kind);
                    let who = match interrupt {
                        Interrupt::SourceDown | Interrupt::ReconcileSource => source,
                        _ => Some(target),
                    };
                    let Some(who) = who else { continue };
                    let row = format!("{kind:?} step {step} {interrupt:?}");
                    for _ in 0..step {
                        for (server, rpc) in rpcs(&mut o) {
                            o.rpc_acked(server, rpc);
                        }
                    }
                    let mut awaited = rpcs(&mut o);
                    assert_eq!(awaited, *expected, "{row}: deterministic replay");
                    match interrupt {
                        Interrupt::Nack => {
                            let (server, rpc) = awaited.remove(0);
                            o.rpc_failed(server, rpc);
                        }
                        Interrupt::SourceDown | Interrupt::TargetDown => o.server_down(who),
                        Interrupt::ReconcileSource | Interrupt::ReconcileTarget => {
                            o.reconcile_server(who)
                        }
                    }
                    // The sources sent `Forward` that still own their
                    // shard once interrupted: an abort owes each a resume.
                    let forwarded = rounds
                        .iter()
                        .position(|r| r.iter().all(|(_, r)| forward(r)));
                    let sources = forwarded.map_or(&[][..], |f| &rounds[f]);
                    let owns = |&(source, rpc): &Sent| {
                        let replicas = o.assignment().replicas(rpc.shard());
                        replicas.iter().any(|r| r.server == source)
                    };
                    let sent_forward = forwarded.is_some_and(|f| step >= f);
                    let owed: Vec<Sent> = sources.iter().copied().filter(owns).collect();
                    let sent = settle(&mut o, awaited);
                    rows += 1;

                    // Exactly one abort, in the kind's own counter —
                    // except that a restart in place leaves a plain
                    // move running: the re-sent `AddShard`s are all the
                    // server needs, so the move completes.
                    let reconcile = matches!(
                        interrupt,
                        Interrupt::ReconcileSource | Interrupt::ReconcileTarget
                    );
                    let stats = o.stats();
                    let aborts = (
                        stats.aborted_moves,
                        stats.splits_aborted,
                        stats.merges_aborted,
                    );
                    let want = match kind {
                        Kind::Split => (0, 1, 0),
                        Kind::Merge => (0, 0, 1),
                        _ if reconcile => (0, 0, 0),
                        _ => (1, 0, 0),
                    };
                    assert_eq!(aborts, want, "{row}: (moves, splits, merges) aborted");
                    assert_eq!(stats.splits_completed + stats.merges_completed, 0, "{row}");
                    assert_eq!(stats.failed_transitions, 0, "{row}");
                    quiescent_and_whole(&o, &row);

                    // The order of an abort: no resume of a shard is sent
                    // while a reclaim of it is unanswered (§3.2), and every
                    // source sent `Forward` that still owns its shard is
                    // resumed (§4.3).
                    let aborted = aborts != (0, 0, 0);
                    for &(source, rpc) in sources.iter().filter(|_| aborted) {
                        let (shard, role) = (rpc.shard(), ReplicaRole::Primary);
                        let resume = (source, AddShard { shard, role });
                        let reclaim = |&((_, r), _): &(Sent, usize)| r == DropShard { shard };
                        let resumes = sent.iter().enumerate().filter(|(_, (s, _))| *s == resume);
                        for (i, &(_, answered)) in resumes {
                            assert!(
                                !sent[answered..i].iter().any(reclaim),
                                "{row}: {source} resumed while {shard} was being reclaimed"
                            );
                            waited += usize::from(sent[..answered].iter().any(reclaim));
                        }
                        if sent_forward && owed.contains(&(source, rpc)) {
                            let resumed_here = sent.iter().any(|(s, _)| *s == resume);
                            assert!(resumed_here, "{row}: {source} never resumed {shard}");
                            resumed += 1;
                        }
                    }

                    // The subject is free again: it can be moved (its
                    // scheduler slot and every hold on it are gone)...
                    let host = o.assignment().primary_of(SUBJECT).expect("checked above");
                    assert!(o.drain_server(host) >= 1, "{row}: follow-up drain");
                    settle(&mut o, Vec::new());
                    assert!(
                        o.shards_on(host).iter().all(|(s, _)| *s != SUBJECT),
                        "{row}: the subject moved off {host}"
                    );
                    o.run_periodic();
                    settle(&mut o, Vec::new());
                    quiescent_and_whole(&o, &row);
                    // ...and resharded: no compensation is still
                    // pending for it, not even at a dead server.
                    o.start_split(SUBJECT)
                        .unwrap_or_else(|e| panic!("{row}: follow-up split refused: {e:?}"));
                    settle(&mut o, Vec::new());
                    assert_eq!(o.stats().splits_completed, 1, "{row}");
                    assert_eq!(o.stats().aborted_moves, aborts.0, "{row}: no late abort");
                    assert!(o.drain_errors().is_empty(), "{row}");
                }
            }
        }
        assert_eq!(rows, 5 * 15 - 2, "kind x step x interruption");
        // Non-vacuous: 30 forwarding sources were owed a resume (graceful
        // 2 steps x 2 interruptions, split 2 x 4, merge 2 x 9 sources),
        // and the graceful nacks' resumes (steps 0-2) waited for the
        // reclaim of their shard.
        assert_eq!(
            (resumed, waited),
            (30, 3),
            "(sources resumed, resumes waited)"
        );
    }

    /// A graceful move of shard 0 whose step-3 `AddShard` was nacked: its
    /// target's reclaim is sent and unanswered, its source's resume waits.
    /// Returns the source and the target.
    fn aborted_at_cutover() -> (Orchestrator, ServerId, ServerId) {
        let (mut o, source) = started(Kind::Graceful);
        let source = source.expect("a graceful move has a source");
        for _ in 0..2 {
            for (server, rpc) in rpcs(&mut o) {
                o.rpc_acked(server, rpc);
            }
        }
        let cutover = rpcs(&mut o);
        let [(target, rpc @ ServerRpc::AddShard { .. })] = cutover[..] else {
            panic!("one cutover, to the target: {cutover:?}");
        };
        o.rpc_failed(target, rpc);
        let reclaim = (target, ServerRpc::DropShard { shard: SUBJECT });
        assert_eq!(rpcs(&mut o), [reclaim], "only the reclaim is sent");
        (o, source, target)
    }

    #[test]
    fn a_target_that_dies_holding_the_reclaim_releases_the_waiting_resume() {
        let (mut o, source, target) = aborted_at_cutover();
        o.server_down(target);
        let role = ReplicaRole::Primary;
        let resume = (
            source,
            ServerRpc::AddShard {
                shard: SUBJECT,
                role,
            },
        );
        let sent = rpcs(&mut o);
        assert!(
            sent.contains(&resume),
            "server_down sends the resume: {sent:?}"
        );
        settle(&mut o, sent);
        assert!(o.pending.is_empty(), "{:?}", o.pending);
        quiescent_and_whole(&o, "target down");
        assert_eq!(o.assignment().primary_of(SUBJECT), Some(source));
    }

    #[test]
    fn a_waiting_resume_lapses_with_its_source() {
        let (mut o, source, target) = aborted_at_cutover();
        o.server_down(source);
        let resumes = o.pending.iter().filter(|p| p.2 == Compensation::Resume);
        assert_eq!(resumes.count(), 0, "the resume lapsed");
        // The target's reclaim, still unanswered, is acked now.
        let sent = settle(
            &mut o,
            vec![(target, ServerRpc::DropShard { shard: SUBJECT })],
        );
        let to_source = sent.iter().filter(|((server, _), _)| *server == source);
        assert_eq!(to_source.count(), 0, "nothing is sent to the dead source");
        assert!(o.pending.is_empty(), "{:?}", o.pending);
        quiescent_and_whole(&o, "source down");
        let host = o.assignment().primary_of(SUBJECT).expect("checked above");
        assert!(o.drain_server(host) >= 1, "follow-up drain");
        settle(&mut o, Vec::new());
        assert!(o.shards_on(host).iter().all(|(s, _)| *s != SUBJECT));
    }

    /// Nothing in flight, and every shard of the spec has at least one
    /// replica and exactly one primary.
    #[test]
    fn a_queued_plan_survives_the_reclaim_ack_of_a_split_parent() {
        let caps = MoveCaps {
            max_total: 1,
            max_per_server: 1,
            max_per_shard: 1,
        };
        let mut o = new_orch(4, 8.0, true, false, caps);
        o.register_shards((0..8).map(ShardId));
        o.register_spec(ShardingSpec::uniform_u64(8));
        o.run_emergency();
        settle(&mut o, Vec::new());
        // Split shard 0 up to its commit, holding back the acks of the
        // parent's reclaims.
        o.start_split(SUBJECT).expect("split starts");
        let mut held = Vec::new();
        loop {
            let round = rpcs(&mut o);
            if round.is_empty() {
                break;
            }
            for (server, rpc) in round {
                match rpc {
                    ServerRpc::DropShard { shard, .. } if shard == SUBJECT => {
                        held.push((server, rpc))
                    }
                    _ => o.rpc_acked(server, rpc),
                }
            }
        }
        assert_eq!(o.stats().splits_completed, 1);
        assert!(!held.is_empty(), "the parent's copies are reclaimed");
        // Four empty servers: a rebalance, one move at a time.
        for i in 4..8 {
            let location = Location {
                region: RegionId(0),
                datacenter: 0,
                rack: i,
                machine: MachineId(i),
            };
            o.register_server(
                ServerId(i),
                location,
                LoadVector::single(Metric::ShardCount.id(), 8.0),
            );
        }
        let planned = o.run_periodic();
        let queued = |o: &Orchestrator| o.scheduler.as_ref().map_or(0, |s| s.pending());
        let waiting = queued(&o);
        assert!(
            planned > 1 && waiting > 0,
            "{planned} planned, {waiting} queued"
        );
        for (server, rpc) in held {
            o.rpc_acked(server, rpc);
        }
        assert_eq!(
            queued(&o),
            waiting,
            "the retired parent's reclaim replaced the plan"
        );
        let completed = o.stats().completed_moves;
        settle(&mut o, Vec::new());
        assert_eq!(o.stats().completed_moves - completed, planned as u64);
    }

    fn quiescent_and_whole(o: &Orchestrator, row: &str) {
        assert_eq!(o.in_flight_migrations(), 0, "{row}: moves in flight");
        assert_eq!(o.in_flight_reshards(), 0, "{row}: reshards in flight");
        let spec = o.sharding_spec().expect("spec registered");
        for shard in spec.shard_ids() {
            let replicas = o.assignment().replicas(shard);
            let primaries = replicas.iter().filter(|r| r.role.is_primary()).count();
            assert!(!replicas.is_empty(), "{row}: {shard} has no replica");
            assert_eq!(primaries, 1, "{row}: {shard} has {primaries} primaries");
        }
    }
}
