//! A compact replicated log with safe dynamic reconfiguration.
//!
//! ZippyDB (§2.5) runs a Paxos group per shard: the primary is the
//! leader/proposer, secondaries are acceptors/learners. This module
//! implements the steady-state (single-leader) portion of that
//! machinery — the leader appends entries, replicates them to
//! followers, and commits once a quorum acknowledges — plus the piece a
//! migration-driven system cannot live without: **joint-consensus
//! membership changes** (Raft §6 style). A reconfiguration from voter
//! set `C_old` to `C_new` goes through an intermediate `Joint` log
//! entry; while it is in flight, commits and elections require quorums
//! in *both* sets, so no two disjoint quorums can ever both commit and
//! no election can lose a committed entry, no matter where a crash or
//! partition lands mid-change. See DESIGN.md "Reconfigurable
//! replication" for the protocol choice and failure matrix.
//!
//! New replicas join as non-voting **learners** first (`add_learner`):
//! they receive the log but count toward no quorum, so a slow catch-up
//! never stalls commits. Once caught up, a `begin_reconfig` promotes
//! them to voters.
//!
//! Safety invariants maintained and tested here:
//! - the commit index never exceeds what a quorum of *every* active
//!   voter set has acknowledged;
//! - followers' logs are always prefixes of the leader's log;
//! - committed entries are never lost across failovers or
//!   reconfigurations;
//! - adjacent committed configurations always share an intersecting
//!   quorum pair (the [`Self::committed_config_chain`] the DST oracle
//!   audits).
//!
//! For deterministic simulation the group carries link gates
//! ([`Self::set_down`], [`Self::block_link`]): the chaos world mirrors
//! its `SimNet` partitions into them so this shared-state group behaves
//! asynchronously under faults while unit tests stay synchronous.

use sm_types::SmError;
use std::collections::{BTreeMap, BTreeSet};

/// A configuration log entry: either the joint phase (quorums required
/// in both sets) or the final stable set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigEntry<Id: Ord + Copy> {
    /// `C_old,new`: both sets must supply a quorum for commits and
    /// elections until this entry commits.
    Joint {
        /// The outgoing voter set.
        old: BTreeSet<Id>,
        /// The incoming voter set.
        new: BTreeSet<Id>,
    },
    /// `C_new`: the single voter set after the joint phase.
    Stable(BTreeSet<Id>),
}

impl<Id: Ord + Copy> ConfigEntry<Id> {
    /// The quorum-set list this configuration requires (one set for
    /// stable, two for joint).
    pub(crate) fn quorum_sets(&self) -> Vec<BTreeSet<Id>> {
        match self {
            ConfigEntry::Joint { old, new } => vec![old.clone(), new.clone()],
            ConfigEntry::Stable(s) => vec![s.clone()],
        }
    }
}

/// An entry's payload: client data or a configuration change.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload<Id: Ord + Copy> {
    /// Opaque application bytes.
    Data(Vec<u8>),
    /// A membership change, replicated and committed like data.
    Config(ConfigEntry<Id>),
}

/// A log entry: payload plus the term-like epoch of the leader that
/// appended it (epochs bump on failover).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogEntry<Id: Ord + Copy> {
    /// Leadership epoch at append time.
    pub epoch: u64,
    /// Payload.
    pub payload: Payload<Id>,
}

impl<Id: Ord + Copy> LogEntry<Id> {
    /// The application bytes, if this is a data entry.
    pub fn data(&self) -> Option<&[u8]> {
        match &self.payload {
            Payload::Data(d) => Some(d),
            Payload::Config(_) => None,
        }
    }

    /// True for configuration entries.
    pub(crate) fn is_config(&self) -> bool {
        matches!(self.payload, Payload::Config(_))
    }
}

/// One replica's log state.
#[derive(Clone, Debug)]
pub struct ReplicaLog<Id: Ord + Copy> {
    entries: Vec<LogEntry<Id>>,
    committed: usize,
}

impl<Id: Ord + Copy> Default for ReplicaLog<Id> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            committed: 0,
        }
    }
}

impl<Id: Ord + Copy> ReplicaLog<Id> {
    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry exists.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of committed entries.
    pub(crate) fn committed(&self) -> usize {
        self.committed
    }

    /// The committed prefix.
    pub fn committed_entries(&self) -> &[LogEntry<Id>] {
        self.entries.get(..self.committed).unwrap_or(&[])
    }

    /// All entries, committed or not.
    pub fn entries(&self) -> &[LogEntry<Id>] {
        &self.entries
    }

    /// Number of committed *data* entries (configuration entries are
    /// bookkeeping, not application writes).
    pub(crate) fn committed_data_len(&self) -> usize {
        self.committed_entries()
            .iter()
            .filter(|e| !e.is_config())
            .count()
    }
}

/// The shard's replication group, driven by the leader.
#[derive(Clone, Debug)]
pub struct ReplicationGroup<Id: Ord + Copy> {
    epoch: u64,
    leader: Option<Id>,
    /// Every hosted replica's log — voters and learners alike.
    logs: BTreeMap<Id, ReplicaLog<Id>>,
    /// How many entries each replica has acknowledged this epoch. Also
    /// the leader's per-follower match-index hint: within an epoch it is
    /// a true match index (acks reset on election), so replication ships
    /// only the suffix past it.
    acked: BTreeMap<Id, usize>,
    /// The current voter set (the `new` side while a joint change is in
    /// flight — configurations take effect on append).
    voters: BTreeSet<Id>,
    /// The outgoing voter set while a joint change is in flight.
    joint_old: Option<BTreeSet<Id>>,
    /// Log index of the in-flight configuration entry, if any.
    pending_config: Option<usize>,
    /// Membership before any log entry existed — the configuration a
    /// log with no config entries implies.
    bootstrap: BTreeSet<Id>,
    /// DST mutation switch: when true, `begin_reconfig` swaps the voter
    /// set in one unsafe step (no joint phase). Exists only to prove
    /// the oracle catches the resulting violations.
    single_step: bool,
    /// Entries shipped by `replicate_to` (perf regression counter: a
    /// full catch-up must be O(log length), not quadratic).
    replication_work: u64,
    /// Crashed replicas: they cannot vote, append, or receive entries.
    down: BTreeSet<Id>,
    /// Directed blocked links mirrored from the simulated network; a
    /// blocked link in either direction kills the RPC round trip.
    blocked: BTreeSet<(Id, Id)>,
}

impl<Id: Ord + Copy + std::fmt::Debug> ReplicationGroup<Id> {
    /// Creates a group over the given bootstrap members with no leader.
    pub fn new(members: impl IntoIterator<Item = Id>) -> Self {
        let logs: BTreeMap<Id, ReplicaLog<Id>> = members
            .into_iter()
            .map(|m| (m, ReplicaLog::default()))
            .collect();
        let acked = logs.keys().map(|&m| (m, 0)).collect();
        let voters: BTreeSet<Id> = logs.keys().copied().collect();
        Self {
            epoch: 0,
            leader: None,
            logs,
            acked,
            bootstrap: voters.clone(),
            voters,
            joint_old: None,
            pending_config: None,
            single_step: false,
            replication_work: 0,
            down: BTreeSet::new(),
            blocked: BTreeSet::new(),
        }
    }

    /// Current leader.
    pub fn leader(&self) -> Option<Id> {
        self.leader
    }

    /// Number of hosted replicas (voters and learners).
    pub fn members(&self) -> usize {
        self.logs.len()
    }

    /// True when `id` hosts a replica (voter or learner).
    pub(crate) fn is_hosted(&self, id: Id) -> bool {
        self.logs.contains_key(&id)
    }

    /// The current voter set.
    pub(crate) fn voters(&self) -> &BTreeSet<Id> {
        &self.voters
    }

    /// The outgoing voter set while a joint change is in flight.
    pub(crate) fn joint_old(&self) -> Option<&BTreeSet<Id>> {
        self.joint_old.as_ref()
    }

    /// True when `id` is a voter in the effective configuration (either
    /// side of an in-flight joint change).
    pub(crate) fn is_voter(&self, id: Id) -> bool {
        self.voters.contains(&id) || self.joint_old.as_ref().is_some_and(|o| o.contains(&id))
    }

    /// True while a membership change has not yet fully committed.
    pub(crate) fn reconfig_in_flight(&self) -> bool {
        self.pending_config.is_some()
    }

    /// DST mutation switch: single-step (joint-free) membership swaps.
    pub(crate) fn set_single_step(&mut self, on: bool) {
        self.single_step = on;
    }

    // ---- Simulation link gates ----

    /// Marks a replica crashed (true) or recovered (false). A down
    /// replica cannot vote, append, or receive replication; its log —
    /// durable storage — survives.
    pub fn set_down(&mut self, id: Id, down: bool) {
        if down {
            self.down.insert(id);
        } else {
            self.down.remove(&id);
        }
    }

    /// True when `id` is marked crashed.
    pub fn is_down(&self, id: Id) -> bool {
        self.down.contains(&id)
    }

    /// Blocks the directed link `a → b` (mirrors a network partition).
    pub(crate) fn block_link(&mut self, a: Id, b: Id) {
        self.blocked.insert((a, b));
    }

    /// Clears every blocked link (partition healed).
    pub(crate) fn clear_blocked_links(&mut self) {
        self.blocked.clear();
    }

    /// True when `a` and `b` can complete an RPC round trip: both up
    /// and neither direction blocked.
    fn linked(&self, a: Id, b: Id) -> bool {
        a == b
            || (!self.down.contains(&a)
                && !self.down.contains(&b)
                && !self.blocked.contains(&(a, b))
                && !self.blocked.contains(&(b, a)))
    }

    // ---- Elections ----

    /// A replica's election key: Raft's up-to-date comparison, (epoch
    /// of the last entry, log length).
    fn election_key(&self, id: &Id) -> (u64, usize) {
        self.logs
            .get(id)
            .map(|log| (log.entries.last().map(|e| e.epoch).unwrap_or(0), log.len()))
            .unwrap_or((0, 0))
    }

    /// Majority size of one voter set.
    fn quorum_of(set: &BTreeSet<Id>) -> usize {
        set.len() / 2 + 1
    }

    /// Votes `candidate` can gather within `set`: reachable members
    /// whose logs are no more up-to-date than the candidate's.
    fn supporters_in(&self, candidate: Id, key: (u64, usize), set: &BTreeSet<Id>) -> usize {
        set.iter()
            .filter(|&&m| {
                m == candidate || (self.linked(candidate, m) && key >= self.election_key(&m))
            })
            .count()
    }

    /// True when `id` could win an election right now.
    fn can_win(&self, id: Id) -> bool {
        if !self.is_voter(id) || self.down.contains(&id) || !self.logs.contains_key(&id) {
            return false;
        }
        let key = self.election_key(&id);
        if self.supporters_in(id, key, &self.voters) < Self::quorum_of(&self.voters) {
            return false;
        }
        match &self.joint_old {
            Some(old) => self.supporters_in(id, key, old) >= Self::quorum_of(old),
            None => true,
        }
    }

    /// Makes `id` the leader (SM `change_role` to primary). Bumps the
    /// epoch. The candidate must be a voter in the effective
    /// configuration and its log at least as up-to-date as a quorum of
    /// *every* active voter set (both sets while a joint change is in
    /// flight) — those quorums intersect every commit quorum, so every
    /// committed entry is in the new leader's log.
    pub fn elect(&mut self, id: Id) -> Result<(), SmError> {
        if !self.logs.contains_key(&id) {
            return Err(SmError::not_found(format!("{id:?}")));
        }
        if !self.is_voter(id) {
            return Err(SmError::Rejected(format!("{id:?} is not a voter")));
        }
        if self.down.contains(&id) {
            return Err(SmError::Unavailable(format!("{id:?} is down")));
        }
        if !self.can_win(id) {
            return Err(SmError::conflict(format!(
                "{id:?} cannot gather a quorum of every active voter set"
            )));
        }
        self.epoch += 1;
        self.leader = Some(id);
        // Ack state from earlier epochs is stale (followers may hold
        // divergent suffixes); it resets and rebuilds via replication.
        let leader_len = self.logs.get(&id).map(|l| l.len()).unwrap_or(0);
        for (m, ack) in self.acked.iter_mut() {
            *ack = if *m == id { leader_len } else { 0 };
        }
        // The new leader's log decides the effective configuration: an
        // uncommitted config entry a quorum never saw rolls back here,
        // exactly like any other uncommitted entry.
        self.adopt_config_from(id);
        // A still-pending config entry from an older epoch cannot commit
        // by counting (Raft's current-term rule), so re-propose it under
        // the new epoch to keep the reconfiguration moving.
        if let Some(idx) = self.pending_config {
            let pending = self
                .logs
                .get(&id)
                .and_then(|l| l.entries.get(idx))
                .filter(|e| e.epoch < self.epoch && e.is_config())
                .cloned();
            if let Some(entry) = pending {
                if let Ok(new_idx) = self.append_payload(id, entry.payload) {
                    self.pending_config = Some(new_idx);
                }
            }
        }
        Ok(())
    }

    /// Re-derives (voters, joint_old, pending_config) from the last
    /// configuration entry in `id`'s log, falling back to the bootstrap
    /// membership.
    fn adopt_config_from(&mut self, id: Id) {
        let Some(log) = self.logs.get(&id) else {
            return;
        };
        let found = log
            .entries
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, e)| match &e.payload {
                Payload::Config(c) => Some((i, c.clone())),
                Payload::Data(_) => None,
            });
        match found {
            Some((i, ConfigEntry::Joint { old, new })) => {
                self.voters = new;
                self.joint_old = Some(old);
                self.pending_config = Some(i);
            }
            Some((i, ConfigEntry::Stable(s))) => {
                self.voters = s;
                self.joint_old = None;
                self.pending_config = if i < log.committed { None } else { Some(i) };
            }
            None => {
                self.voters = self.bootstrap.clone();
                self.joint_old = None;
                self.pending_config = None;
            }
        }
    }

    /// The leader steps down (demotion or graceful drop); no new leader
    /// until the next election.
    pub fn step_down(&mut self, id: Id) {
        if self.leader == Some(id) {
            self.leader = None;
        }
    }

    // ---- Membership ----

    /// Adds a bootstrap voter. Only legal while the group's log is
    /// empty — once any entry exists, membership changes must go
    /// through [`Self::add_learner`] + [`Self::begin_reconfig`].
    pub(crate) fn add_member(&mut self, id: Id) -> Result<(), SmError> {
        if self.logs.values().any(|l| !l.is_empty()) {
            return Err(SmError::Rejected(
                "group is live; use add_learner + begin_reconfig".into(),
            ));
        }
        self.logs.entry(id).or_default();
        self.acked.entry(id).or_insert(0);
        self.voters.insert(id);
        self.bootstrap.insert(id);
        Ok(())
    }

    /// Adds a non-voting learner: it receives the log via replication
    /// but counts toward no quorum. Idempotent; a later
    /// [`Self::begin_reconfig`] promotes it to a voter.
    pub(crate) fn add_learner(&mut self, id: Id) {
        self.logs.entry(id).or_default();
        self.acked.entry(id).or_insert(0);
    }

    /// Removes a hosted replica. Refused while `id` is still a voter of
    /// a live group — callers must first commit a reconfiguration that
    /// excludes it (the §4.3 `drop_shard` discipline: leave the config,
    /// then the group).
    pub(crate) fn remove_member(&mut self, id: Id) -> Result<(), SmError> {
        let live = self.logs.values().any(|l| !l.is_empty());
        if self.is_voter(id) {
            if live {
                return Err(SmError::Rejected(format!(
                    "{id:?} is still a voter; commit a reconfiguration first"
                )));
            }
            // Bootstrap-phase removal (nothing logged yet).
            self.voters.remove(&id);
            self.bootstrap.remove(&id);
        }
        self.logs.remove(&id);
        self.acked.remove(&id);
        self.down.remove(&id);
        if self.leader == Some(id) {
            self.leader = None;
        }
        Ok(())
    }

    /// Starts a membership change to voter set `new` by appending a
    /// joint configuration entry (`C_old,new`). The change takes effect
    /// immediately (configurations are active on append): commits and
    /// elections now require quorums in both sets. When the joint entry
    /// commits, the leader automatically appends the stable `C_new`
    /// entry; when *that* commits, the change is complete
    /// ([`Self::reconfig_in_flight`] turns false).
    ///
    /// Every member of `new` must already host a replica (use
    /// [`Self::add_learner`] to start catch-up first). A change to the
    /// current voter set is a no-op; a second change while one is in
    /// flight is rejected.
    pub(crate) fn begin_reconfig(&mut self, leader: Id, new: BTreeSet<Id>) -> Result<(), SmError> {
        if self.leader != Some(leader) {
            return Err(SmError::Rejected(format!("{leader:?} is not leader")));
        }
        if new.is_empty() {
            return Err(SmError::InvalidArgument("empty voter set".into()));
        }
        for m in &new {
            if !self.logs.contains_key(m) {
                return Err(SmError::not_found(format!(
                    "{m:?} hosts no replica; add_learner first"
                )));
            }
        }
        if new == self.voters && self.joint_old.is_none() && self.pending_config.is_none() {
            return Ok(());
        }
        if self.pending_config.is_some() {
            return Err(SmError::conflict("a reconfiguration is already in flight"));
        }
        if self.single_step {
            // Unsafe mutation path: swap the voter set in one step with
            // no joint phase. Kept only so the DST oracle can prove it
            // catches the resulting split-brain/lost-write violations.
            let idx =
                self.append_payload(leader, Payload::Config(ConfigEntry::Stable(new.clone())))?;
            self.voters = new;
            self.joint_old = None;
            self.pending_config = Some(idx);
            return Ok(());
        }
        let old = self.voters.clone();
        let idx = self.append_payload(
            leader,
            Payload::Config(ConfigEntry::Joint {
                old: old.clone(),
                new: new.clone(),
            }),
        )?;
        self.joint_old = Some(old);
        self.voters = new;
        self.pending_config = Some(idx);
        Ok(())
    }

    // ---- The log ----

    /// Leader appends a data entry to its own log. Not yet committed.
    pub fn append(&mut self, leader: Id, data: Vec<u8>) -> Result<usize, SmError> {
        self.append_payload(leader, Payload::Data(data))
    }

    fn append_payload(&mut self, leader: Id, payload: Payload<Id>) -> Result<usize, SmError> {
        if self.leader != Some(leader) {
            return Err(SmError::Rejected(format!("{leader:?} is not leader")));
        }
        if self.down.contains(&leader) {
            return Err(SmError::Unavailable(format!("{leader:?} is down")));
        }
        let epoch = self.epoch;
        // A leader whose log was removed is a control-plane bug upstream,
        // but it must surface as an error, not a panic.
        let log = self
            .logs
            .get_mut(&leader)
            .ok_or_else(|| SmError::not_found(format!("{leader:?} hosts no replica")))?;
        log.entries.push(LogEntry { epoch, payload });
        let n = log.len();
        self.acked.insert(leader, n);
        Ok(n - 1)
    }

    /// Replicates the leader's log to one follower (one message
    /// exchange): the follower truncates divergence, appends missing
    /// entries, and acks its new length. Ships only the suffix past the
    /// follower's match-index hint — within an epoch the recorded ack
    /// is a true match index (acks reset on election), so steady-state
    /// rounds are O(new entries), not O(log length).
    pub fn replicate_to(&mut self, follower: Id) -> Result<usize, SmError> {
        let leader = self
            .leader
            .ok_or_else(|| SmError::Unavailable("no leader".into()))?;
        if follower == leader {
            return Ok(self.logs.get(&leader).map(|l| l.len()).unwrap_or(0));
        }
        if !self.linked(leader, follower) {
            return Err(SmError::Unavailable(format!(
                "{leader:?} cannot reach {follower:?}"
            )));
        }
        let leader_log = self
            .logs
            .get(&leader)
            .ok_or_else(|| SmError::not_found(format!("{leader:?} hosts no replica")))?;
        let leader_len = leader_log.len();
        let follower_len = self
            .logs
            .get(&follower)
            .ok_or_else(|| SmError::not_found(format!("{follower:?}")))?
            .len();
        // Match-index hint, validated by one boundary compare (O(1)).
        let mut common = self
            .acked
            .get(&follower)
            .copied()
            .unwrap_or(0)
            .min(follower_len)
            .min(leader_len);
        if common > 0 {
            let boundary_matches = match (
                self.logs
                    .get(&leader)
                    .and_then(|l| l.entries.get(common - 1)),
                self.logs
                    .get(&follower)
                    .and_then(|l| l.entries.get(common - 1)),
            ) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            debug_assert!(boundary_matches, "match hint out of sync with logs");
            if !boundary_matches {
                common = 0;
            }
        }
        // Extend the common prefix past the hint (right after an
        // election the hint is 0 and this is the one full scan).
        while common < follower_len && common < leader_len {
            let same = match (
                self.logs.get(&leader).and_then(|l| l.entries.get(common)),
                self.logs.get(&follower).and_then(|l| l.entries.get(common)),
            ) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if !same {
                break;
            }
            common += 1;
        }
        let suffix: Vec<LogEntry<Id>> = self
            .logs
            .get(&leader)
            .map(|l| l.entries.iter().skip(common).cloned().collect())
            .unwrap_or_default();
        self.replication_work += suffix.len() as u64;
        let log = self
            .logs
            .get_mut(&follower)
            .ok_or_else(|| SmError::not_found(format!("{follower:?}")))?;
        // Truncate divergence (entries from a deposed leader). Safe
        // elections guarantee the committed prefix is shared, so the
        // truncation point never cuts committed entries — except under
        // the deliberate single-step mutation, whose whole point is
        // that this invariant breaks (the DST oracle must catch it).
        debug_assert!(
            self.single_step || common >= log.committed,
            "truncating a committed entry"
        );
        log.entries.truncate(common);
        log.entries.extend(suffix);
        let n = log.entries.len();
        self.acked.insert(follower, n);
        Ok(n)
    }

    /// One replication round: ship the log to every reachable hosted
    /// replica, then advance the commit index. Unreachable followers
    /// are skipped (they catch up after the fault heals).
    pub(crate) fn pump(&mut self) {
        for f in self.follower_ids() {
            let _unreachable = self.replicate_to(f);
        }
        self.advance_commit();
    }

    /// Pumps up to `rounds` replication rounds, stopping early once no
    /// reconfiguration is in flight. Returns true when the change (if
    /// any) fully committed.
    pub(crate) fn pump_until_config_commits(&mut self, rounds: usize) -> bool {
        for _ in 0..rounds {
            if !self.reconfig_in_flight() {
                return true;
            }
            self.pump();
        }
        !self.reconfig_in_flight()
    }

    /// The largest index acknowledged by a quorum of one voter set.
    fn quorum_ack(&self, set: &BTreeSet<Id>) -> usize {
        let mut acks: Vec<usize> = set
            .iter()
            .map(|m| self.acked.get(m).copied().unwrap_or(0))
            .collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        acks.get(Self::quorum_of(set) - 1).copied().unwrap_or(0)
    }

    /// Advances the commit index to the largest index acknowledged by a
    /// quorum of **every** active voter set (both sets during a joint
    /// change), restricted to entries of the current epoch (Raft's
    /// current-term commit rule), and propagates it to every replica's
    /// view — but only up to what each has actually acknowledged this
    /// epoch, so a diverged follower never marks unsynced entries
    /// committed. Completes configuration changes whose entries commit.
    pub fn advance_commit(&mut self) -> usize {
        let Some(leader) = self.leader else {
            return self.committed();
        };
        let mut commit = self.quorum_ack(&self.voters);
        if let Some(old) = &self.joint_old {
            commit = commit.min(self.quorum_ack(old));
        }
        let (leader_len, leader_committed) = self
            .logs
            .get(&leader)
            .map(|l| (l.len(), l.committed))
            .unwrap_or((0, 0));
        commit = commit.min(leader_len);
        // Current-epoch rule: an entry from an older epoch only commits
        // once an entry of the current epoch is committed past it —
        // otherwise a later, more up-to-date leader could still
        // overwrite it (Raft figure 8).
        if let Some(log) = self.logs.get(&leader) {
            while commit > leader_committed
                && log.entries.get(commit - 1).map(|e| e.epoch) != Some(self.epoch)
            {
                commit -= 1;
            }
        }
        commit = commit.max(leader_committed);
        for (m, log) in self.logs.iter_mut() {
            let acked = self.acked.get(m).copied().unwrap_or(0);
            log.committed = commit.min(acked).min(log.entries.len()).max(log.committed);
        }
        self.finish_config_commits();
        commit
    }

    /// Drives the two-phase change forward: when the joint entry
    /// commits, append the stable `C_new` entry; when that commits, the
    /// change is complete.
    fn finish_config_commits(&mut self) {
        let Some(leader) = self.leader else { return };
        loop {
            let Some(idx) = self.pending_config else {
                return;
            };
            let Some(log) = self.logs.get(&leader) else {
                return;
            };
            if log.committed <= idx {
                return;
            }
            let entry = log.entries.get(idx).cloned();
            match entry.map(|e| e.payload) {
                Some(Payload::Config(ConfigEntry::Joint { new, .. })) => {
                    match self.append_payload(leader, Payload::Config(ConfigEntry::Stable(new))) {
                        Ok(idx2) => {
                            self.joint_old = None;
                            self.pending_config = Some(idx2);
                        }
                        Err(_) => return,
                    }
                }
                Some(Payload::Config(ConfigEntry::Stable(s))) => {
                    self.voters = s;
                    self.joint_old = None;
                    self.pending_config = None;
                }
                _ => {
                    self.pending_config = None;
                }
            }
        }
    }

    /// The group-wide commit index.
    pub(crate) fn committed(&self) -> usize {
        self.logs.values().map(|l| l.committed).max().unwrap_or(0)
    }

    /// A replica's log (reads).
    pub fn log(&self, id: Id) -> Option<&ReplicaLog<Id>> {
        self.logs.get(&id)
    }

    /// The data entry at log position `idx` of `id`'s log, if present.
    pub(crate) fn data_at(&self, id: Id, idx: usize) -> Option<&[u8]> {
        self.logs
            .get(&id)
            .and_then(|l| l.entries.get(idx))
            .and_then(|e| e.data())
    }

    /// All hosted replicas except the leader — the replication targets.
    pub(crate) fn follower_ids(&self) -> Vec<Id> {
        self.logs
            .keys()
            .copied()
            .filter(|id| Some(*id) != self.leader)
            .collect()
    }

    /// Voters that could win an election right now — the safe
    /// candidates for promotion after the leader fails (their logs are
    /// at least as up-to-date as a quorum of every active voter set, so
    /// they hold every committed entry).
    pub fn safe_successors(&self) -> Vec<Id> {
        self.logs
            .keys()
            .filter(|&&id| Some(id) != self.leader && self.can_win(id))
            .copied()
            .collect()
    }

    // ---- Configuration auditing (the DST oracle's raw material) ----

    /// The configuration `id` believes committed: the quorum sets of
    /// the last configuration entry in its committed prefix, falling
    /// back to the bootstrap membership. `None` when `id` hosts no
    /// replica.
    pub(crate) fn committed_config_view(&self, id: Id) -> Option<Vec<BTreeSet<Id>>> {
        let log = self.logs.get(&id)?;
        let view = log
            .committed_entries()
            .iter()
            .rev()
            .find_map(|e| match &e.payload {
                Payload::Config(c) => Some(c.quorum_sets()),
                Payload::Data(_) => None,
            })
            .unwrap_or_else(|| vec![self.bootstrap.clone()]);
        Some(view)
    }

    /// The full committed configuration history: the bootstrap
    /// membership followed by every configuration entry in the
    /// committed prefix of the most-advanced log. The DST oracle checks
    /// that adjacent configurations always share an intersecting quorum
    /// pair — the property a single-step membership swap violates.
    pub(crate) fn committed_config_chain(&self) -> Vec<Vec<BTreeSet<Id>>> {
        let mut chain = vec![vec![self.bootstrap.clone()]];
        let best = self.logs.values().max_by_key(|l| l.committed);
        if let Some(log) = best {
            for e in log.committed_entries() {
                if let Payload::Config(c) = &e.payload {
                    chain.push(c.quorum_sets());
                }
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_sim::SimRng;

    fn set(ids: &[u32]) -> BTreeSet<u32> {
        ids.iter().copied().collect()
    }

    fn group3() -> ReplicationGroup<u32> {
        let mut g = ReplicationGroup::new([1u32, 2, 3]);
        g.elect(1).unwrap();
        g
    }

    #[test]
    fn append_replicate_commit() {
        let mut g = group3();
        g.append(1, b"a".to_vec()).unwrap();
        g.append(1, b"b".to_vec()).unwrap();
        assert_eq!(g.advance_commit(), 0, "no follower acked yet");
        g.replicate_to(2).unwrap();
        assert_eq!(g.advance_commit(), 2, "leader + one follower = quorum of 3");
        assert_eq!(g.log(2).unwrap().committed(), 2);
        // Third replica still behind but commit holds.
        assert_eq!(g.log(3).unwrap().len(), 0);
        g.replicate_to(3).unwrap();
        g.advance_commit();
        assert_eq!(g.log(3).unwrap().committed(), 2);
    }

    #[test]
    fn non_leader_append_rejected() {
        let mut g = group3();
        assert!(matches!(
            g.append(2, b"x".to_vec()),
            Err(SmError::Rejected(_))
        ));
    }

    #[test]
    fn append_with_missing_leader_log_errors_not_panics() {
        // Force the inconsistent state via a fresh group whose "leader"
        // never hosted a log: elect on an empty bootstrap is impossible,
        // so exercise the guard through the public API by removing the
        // leader's log in the only legal window (empty logs).
        let mut g: ReplicationGroup<u32> = ReplicationGroup::new([1u32, 2, 3]);
        g.elect(1).unwrap();
        g.remove_member(1).unwrap(); // log still empty: legal, clears leader
        assert!(g.append(1, b"x".to_vec()).is_err());
    }

    #[test]
    fn committed_entries_survive_failover() {
        let mut g = group3();
        g.append(1, b"committed".to_vec()).unwrap();
        g.replicate_to(2).unwrap();
        g.advance_commit();
        // Leader 1 also has an uncommitted entry that reached nobody.
        g.append(1, b"uncommitted".to_vec()).unwrap();

        // Leader crashes. Only replica 2 holds the committed entry; 3
        // is empty and must not be electable.
        g.set_down(1, true);
        g.step_down(1);
        let safe = g.safe_successors();
        assert_eq!(safe, vec![2]);
        assert!(g.elect(3).is_err(), "stale replica cannot lead");
        g.elect(2).unwrap();
        assert_eq!(g.epoch, 2);

        // The committed entry is intact at the new leader; replication
        // to 3 carries it over. The uncommitted entry stays only on the
        // crashed node until it returns and truncates.
        g.replicate_to(3).unwrap();
        g.append(2, b"next".to_vec()).unwrap();
        g.replicate_to(3).unwrap();
        g.advance_commit();
        let log3 = g.log(3).unwrap();
        assert!(log3.committed() >= 1);
        assert_eq!(log3.committed_entries()[0].data(), Some(&b"committed"[..]));
    }

    #[test]
    fn divergent_follower_truncates() {
        let mut g = group3();
        g.append(1, b"a".to_vec()).unwrap();
        g.replicate_to(2).unwrap();
        g.replicate_to(3).unwrap();
        g.advance_commit();
        // Leader 1 appends an entry that never replicates, then dies.
        g.append(1, b"lost".to_vec()).unwrap();
        g.set_down(1, true);
        g.step_down(1);
        g.elect(2).unwrap();
        // New leader writes a different entry at the same index.
        g.append(2, b"winner".to_vec()).unwrap();
        g.replicate_to(3).unwrap();
        g.advance_commit();
        let log3 = g.log(3).unwrap();
        assert_eq!(log3.len(), 2);
        assert_eq!(log3.entries()[1].data(), Some(&b"winner"[..]));
        assert_eq!(log3.entries()[1].epoch, 2);
        // The deposed leader returns; replication truncates its
        // divergent suffix.
        g.set_down(1, false);
        g.replicate_to(1).unwrap();
        assert_eq!(g.log(1).unwrap().entries()[1].data(), Some(&b"winner"[..]));
    }

    #[test]
    fn commit_requires_majority_of_current_members() {
        // 5 members: quorum is 3.
        let mut g = ReplicationGroup::new([1u32, 2, 3, 4, 5]);
        g.elect(1).unwrap();
        g.append(1, b"x".to_vec()).unwrap();
        g.replicate_to(2).unwrap();
        assert_eq!(g.advance_commit(), 0, "2 of 5 acked");
        g.replicate_to(3).unwrap();
        assert_eq!(g.advance_commit(), 1, "3 of 5 acked");
    }

    // ---- Learners ----

    #[test]
    fn learner_replicates_but_counts_toward_no_quorum() {
        let mut g = group3();
        g.add_learner(9);
        g.append(1, b"a".to_vec()).unwrap();
        g.replicate_to(9).unwrap();
        // Leader + learner acked, but the learner is no voter: 1 of 3.
        assert_eq!(g.advance_commit(), 0);
        g.replicate_to(2).unwrap();
        assert_eq!(g.advance_commit(), 1);
        assert_eq!(g.log(9).unwrap().committed(), 1, "learner learns commits");
        assert!(!g.is_voter(9));
    }

    #[test]
    fn live_group_rejects_raw_membership_mutation() {
        let mut g = group3();
        g.append(1, b"x".to_vec()).unwrap();
        assert!(matches!(g.add_member(4), Err(SmError::Rejected(_))));
        assert!(matches!(g.remove_member(2), Err(SmError::Rejected(_))));
        assert_eq!(g.members(), 3);
        assert!(g.is_voter(2));
    }

    // ---- Joint reconfiguration ----

    /// Drives a healthy group's pending reconfiguration to completion.
    fn settle(g: &mut ReplicationGroup<u32>) {
        assert!(g.pump_until_config_commits(8), "healthy group settles");
    }

    #[test]
    fn reconfig_moves_one_voter_without_losing_commits() {
        let mut g = group3();
        for i in 0..5u8 {
            g.append(1, vec![i]).unwrap();
        }
        g.pump();
        assert_eq!(g.committed(), 5);

        // Move voter 3 → 4: learner catch-up, then the two-phase swap.
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        g.begin_reconfig(1, set(&[1, 2, 4])).unwrap();
        assert!(g.reconfig_in_flight());
        settle(&mut g);
        assert_eq!(g.voters(), &set(&[1, 2, 4]));
        assert!(g.joint_old().is_none());
        // 3 is no longer a voter; it can now be removed.
        g.remove_member(3).unwrap();
        assert_eq!(g.log(4).unwrap().committed_data_len(), 5);
        // The chain records bootstrap → joint → stable.
        let chain = g.committed_config_chain();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[1].len(), 2, "joint phase has two quorum sets");
    }

    #[test]
    fn joint_commit_requires_quorums_in_both_sets() {
        // 1,2,3 → 3,4,5: disjoint-leaning change.
        let mut g = group3();
        g.append(1, b"seed".to_vec()).unwrap();
        g.pump();
        for m in [4u32, 5] {
            g.add_learner(m);
            g.replicate_to(m).unwrap();
        }
        g.begin_reconfig(1, set(&[3, 4, 5])).unwrap();
        // Partition the old majority away: 2 and 3 unreachable.
        g.block_link(1, 2);
        g.block_link(1, 3);
        let before = g.committed();
        g.append(1, b"joint-blocked".to_vec()).unwrap();
        for _ in 0..4 {
            g.pump();
        }
        // New set {3,4,5} has a quorum (4,5 reachable) but old set
        // {1,2,3} only has the leader: no commit may advance.
        assert_eq!(g.committed(), before, "old-set quorum still required");
        assert!(g.reconfig_in_flight());
        // Heal; the change completes.
        g.clear_blocked_links();
        settle(&mut g);
        assert_eq!(g.voters(), &set(&[3, 4, 5]));
    }

    #[test]
    fn joint_election_requires_quorums_in_both_sets() {
        let mut g = group3();
        g.append(1, b"seed".to_vec()).unwrap();
        g.pump();
        for m in [4u32, 5] {
            g.add_learner(m);
        }
        g.begin_reconfig(1, set(&[3, 4, 5])).unwrap();
        // Replicate the joint entry everywhere WITHOUT advancing the
        // commit index, so the joint phase is still open at the crash.
        for m in [2u32, 3, 4, 5] {
            g.replicate_to(m).unwrap();
        }
        // Leader crashes mid-joint.
        g.set_down(1, true);
        g.step_down(1);
        // 4 can reach a quorum of the NEW set {3,4,5} (itself + 5) but
        // none of the old set {1,2,3}: 1 is down, 2 and 3 partitioned
        // away. A new-set quorum alone must not elect.
        g.block_link(4, 2);
        g.block_link(4, 3);
        assert!(g.elect(4).is_err(), "needs the old-set quorum too");
        // Heal: now 2 and 3 grant their votes and both quorums hold.
        g.clear_blocked_links();
        g.elect(4).unwrap();
        assert!(g.reconfig_in_flight(), "new leader adopts the change");
        settle(&mut g);
        assert_eq!(g.voters(), &set(&[3, 4, 5]));
        assert_eq!(g.log(4).unwrap().committed_data_len(), 1);
    }

    #[test]
    fn overlapping_reconfigurations_rejected() {
        let mut g = group3();
        g.append(1, b"x".to_vec()).unwrap();
        g.add_learner(4);
        g.add_learner(5);
        g.begin_reconfig(1, set(&[1, 2, 4])).unwrap();
        let second = g.begin_reconfig(1, set(&[1, 2, 5]));
        assert!(matches!(second, Err(SmError::Conflict(_))));
        // Re-requesting the in-flight change is also rejected (it is
        // not yet committed), but the no-op form — requesting the
        // *current* committed set with nothing in flight — is Ok.
        settle(&mut g);
        g.begin_reconfig(1, set(&[1, 2, 4])).unwrap();
        assert!(!g.reconfig_in_flight());
    }

    #[test]
    fn leader_removed_from_new_config_keeps_leading_until_commit_then_hands_off() {
        let mut g = group3();
        for i in 0..3u8 {
            g.append(1, vec![i]).unwrap();
        }
        g.pump();
        // The leader reconfigures itself out: 1,2,3 → 2,3.
        g.begin_reconfig(1, set(&[2, 3])).unwrap();
        assert!(!g.voters().contains(&1), "config effective on append");
        // It keeps leading as a pure proposer until the change commits.
        settle(&mut g);
        assert_eq!(g.leader(), Some(1), "proposer-only leader still in charge");
        g.append(1, b"still-serving".to_vec()).unwrap();
        g.pump();
        assert_eq!(g.log(2).unwrap().committed_data_len(), 4);
        // Commit counting excluded the leader: quorum came from {2,3}.
        // The handoff: elect a member of the new set, then remove 1.
        g.elect(2).unwrap();
        g.remove_member(1).unwrap();
        assert_eq!(g.members(), 2);
        g.append(2, b"after".to_vec()).unwrap();
        g.pump();
        assert_eq!(g.log(3).unwrap().committed_data_len(), 5);
    }

    #[test]
    fn add_then_remove_same_node_round_trips() {
        let mut g = group3();
        g.append(1, b"x".to_vec()).unwrap();
        g.pump();
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        g.begin_reconfig(1, set(&[1, 2, 3, 4])).unwrap();
        settle(&mut g);
        assert!(g.is_voter(4));
        g.begin_reconfig(1, set(&[1, 2, 3])).unwrap();
        settle(&mut g);
        assert!(!g.is_voter(4));
        g.remove_member(4).unwrap();
        assert_eq!(g.members(), 3);
        assert_eq!(g.log(1).unwrap().committed_data_len(), 1);
    }

    #[test]
    fn learner_crash_during_catch_up_stalls_nothing() {
        let mut g = group3();
        for i in 0..4u8 {
            g.append(1, vec![i]).unwrap();
        }
        g.pump();
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        // The learner crashes mid-catch-up; commits keep flowing.
        g.set_down(4, true);
        g.append(1, b"while-down".to_vec()).unwrap();
        g.pump();
        assert_eq!(g.log(1).unwrap().committed_data_len(), 5);
        // Reconfiguring it in while it is down is allowed (it is hosted)
        // but cannot finish until it recovers if its ack is needed —
        // here {1,2,3,4} still has quorum 3 without it, so the change
        // commits; the learner-turned-voter catches up on recovery.
        g.begin_reconfig(1, set(&[1, 2, 3, 4])).unwrap();
        settle(&mut g);
        g.set_down(4, false);
        g.pump();
        assert_eq!(g.log(4).unwrap().committed_data_len(), 5);
    }

    #[test]
    fn reelection_mid_joint_adopts_and_completes_the_change() {
        let mut g = group3();
        g.append(1, b"x".to_vec()).unwrap();
        g.pump();
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        g.begin_reconfig(1, set(&[2, 3, 4])).unwrap();
        g.pump(); // joint replicated everywhere
                  // Leader crashes before the stable entry commits.
        g.set_down(1, true);
        g.step_down(1);
        g.elect(2).unwrap();
        assert!(g.reconfig_in_flight(), "new leader adopts the change");
        settle(&mut g);
        assert_eq!(g.voters(), &set(&[2, 3, 4]));
        assert_eq!(g.log(2).unwrap().committed_data_len(), 1);
    }

    #[test]
    fn uncommitted_joint_rolls_back_on_election_without_it() {
        let mut g = group3();
        g.append(1, b"committed".to_vec()).unwrap();
        g.pump();
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        // The joint entry reaches nobody: links to 2 and 3 are blocked.
        g.block_link(1, 2);
        g.block_link(1, 3);
        g.block_link(1, 4);
        g.begin_reconfig(1, set(&[1, 2, 4])).unwrap();
        assert!(g.reconfig_in_flight());
        // Leader crashes; heal the others.
        g.set_down(1, true);
        g.step_down(1);
        g.clear_blocked_links();
        g.elect(2).unwrap();
        // 2 never saw the joint entry: the change rolled back.
        assert!(!g.reconfig_in_flight());
        assert_eq!(
            g.voters(),
            &set(&[1, 2, 3]),
            "uncommitted config rolled back"
        );
        assert_eq!(g.log(2).unwrap().committed_data_len(), 1);
    }

    #[test]
    fn single_step_mutation_loses_an_acked_write() {
        // The documented unsafety the joint phase exists to prevent —
        // and the scenario the DST oracle must catch when the mutation
        // switch is on. 1,2,3 swaps straight to 3,4,5.
        let mut g = group3();
        for m in [4u32, 5] {
            g.add_learner(m);
        }
        // The write commits with acks from {1,2} — a quorum of the OLD
        // set — while 3, 4, 5 are partitioned away from the leader.
        g.append(1, b"acked".to_vec()).unwrap();
        g.block_link(1, 3);
        g.block_link(1, 4);
        g.block_link(1, 5);
        g.pump();
        assert_eq!(g.log(1).unwrap().committed_data_len(), 1, "write was acked");
        // Single-step swap straight to {3,4,5}: no joint phase.
        g.set_single_step(true);
        g.begin_reconfig(1, set(&[3, 4, 5])).unwrap();
        // The old leader crashes; the new set elects 3, which never saw
        // the write — yet gathers a quorum of {3,4,5} effortlessly.
        g.set_down(1, true);
        g.step_down(1);
        g.clear_blocked_links();
        g.elect(3).unwrap();
        g.append(3, b"overwrite".to_vec()).unwrap();
        g.pump();
        // The acked write is gone: with the joint phase this election
        // would have been impossible (no quorum of {1,2,3} supports 3),
        // and even replica 2's committed copy gets truncated over.
        assert_eq!(g.data_at(3, 0), Some(&b"overwrite"[..]));
        assert_ne!(g.data_at(2, 0), Some(&b"acked"[..]), "committed write lost");
    }

    // ---- Match-index hint (perf) ----

    #[test]
    fn catch_up_ships_each_entry_once() {
        let mut g = group3();
        const N: usize = 10_000;
        for i in 0..N {
            g.append(1, vec![(i % 251) as u8]).unwrap();
            g.replicate_to(2).unwrap();
            g.replicate_to(3).unwrap();
        }
        g.advance_commit();
        assert_eq!(g.committed(), N);
        // Every round ships exactly the one new entry per follower: the
        // total is 2N, not the quadratic ~N² of a full-log clone.
        assert_eq!(g.replication_work, 2 * N as u64);
        // A fresh learner catches up in one O(N) shipment.
        g.add_learner(4);
        g.replicate_to(4).unwrap();
        assert_eq!(g.replication_work, 3 * N as u64);
        // Steady-state rounds with nothing new ship nothing.
        g.replicate_to(2).unwrap();
        g.replicate_to(4).unwrap();
        assert_eq!(g.replication_work, 3 * N as u64);
    }

    // ---- Seeded interleaving sweep ----

    /// Acked (committed) writes survive 1000 random interleavings of
    /// appends, replication, reconfigurations, crashes, restarts, and
    /// elections.
    #[test]
    fn acked_never_lost_across_random_reconfigure_crash_elect_interleavings() {
        let mut rng = SimRng::seeded(0x4EC0_4F16);
        for case in 0..1000u32 {
            let mut g: ReplicationGroup<u32> = ReplicationGroup::new([0u32, 1, 2]);
            g.elect(0).unwrap();
            let mut next_byte = 0u8;
            // (log index, payload) of every write whose commit was
            // observed — the client saw an ack.
            let mut acked: Vec<(usize, u8)> = Vec::new();
            let mut pending: Vec<(usize, u8)> = Vec::new();
            let observe_commits = |g: &ReplicationGroup<u32>,
                                   pending: &mut Vec<(usize, u8)>,
                                   acked: &mut Vec<(usize, u8)>| {
                if let Some(leader) = g.leader() {
                    let committed = g.log(leader).map(|l| l.committed()).unwrap_or(0);
                    let mut i = 0;
                    while i < pending.len() {
                        if pending[i].0 < committed {
                            acked.push(pending.swap_remove(i));
                        } else {
                            i += 1;
                        }
                    }
                }
            };
            for _step in 0..40 {
                match rng.index(10) {
                    0..=3 => {
                        if let Some(leader) = g.leader() {
                            next_byte = next_byte.wrapping_add(1);
                            if let Ok(idx) = g.append(leader, vec![next_byte]) {
                                pending.push((idx, next_byte));
                            }
                            g.pump();
                            observe_commits(&g, &mut pending, &mut acked);
                        }
                    }
                    4 | 5 => {
                        g.pump();
                        observe_commits(&g, &mut pending, &mut acked);
                    }
                    6 => {
                        // Reconfigure: swap one voter for a fresh node,
                        // or re-admit a removed one.
                        if let Some(leader) = g.leader() {
                            if !g.reconfig_in_flight() {
                                let voters = g.voters().clone();
                                let candidates: Vec<u32> =
                                    (0..8u32).filter(|m| !voters.contains(m)).collect();
                                let incoming = candidates[rng.index(candidates.len())];
                                let outgoing = *voters.iter().nth(rng.index(voters.len())).unwrap();
                                if outgoing != leader {
                                    g.add_learner(incoming);
                                    let mut target = voters.clone();
                                    target.remove(&outgoing);
                                    target.insert(incoming);
                                    let _busy = g.begin_reconfig(leader, target);
                                }
                            }
                        }
                    }
                    7 => {
                        // Crash a random hosted replica (at most one
                        // down at a time so progress stays possible).
                        let hosted: Vec<u32> =
                            g.follower_ids().into_iter().chain(g.leader()).collect();
                        let victim = hosted[rng.index(hosted.len())];
                        if !g.is_down(victim) && (0..8u32).filter(|&m| g.is_down(m)).count() < 1 {
                            g.set_down(victim, true);
                            g.step_down(victim);
                        }
                    }
                    8 => {
                        for m in 0..8u32 {
                            if g.is_down(m) {
                                g.set_down(m, false);
                                break;
                            }
                        }
                    }
                    _ => {
                        let hosted: Vec<u32> =
                            g.follower_ids().into_iter().chain(g.leader()).collect();
                        let candidate = hosted[rng.index(hosted.len())];
                        let _outcome = g.elect(candidate);
                    }
                }
                // The invariant: every acked write is still present,
                // byte for byte, at its log position in the current
                // leader's log.
                if let Some(leader) = g.leader() {
                    for &(idx, byte) in &acked {
                        assert_eq!(
                            g.data_at(leader, idx),
                            Some(&[byte][..]),
                            "case {case}: acked write at {idx} lost or rewritten"
                        );
                    }
                }
            }
            // Quiesce: revive everyone, elect if needed, settle.
            for m in 0..8u32 {
                g.set_down(m, false);
            }
            if g.leader().is_none() {
                let succ = g.safe_successors();
                if let Some(&id) = succ.first() {
                    g.elect(id).unwrap();
                }
            }
            for _ in 0..6 {
                g.pump();
            }
            if let Some(leader) = g.leader() {
                for &(idx, byte) in &acked {
                    assert_eq!(
                        g.data_at(leader, idx),
                        Some(&[byte][..]),
                        "case {case}: acked write at {idx} lost after quiescence"
                    );
                }
            }
        }
    }
}
