//! The orchestrator's books: every index derived from its authoritative
//! state, in one value.
//!
//! The orchestrator's authoritative state is [`State`] (config, servers,
//! shards, desired counts, assignment, loads): what it is told, or what
//! a standby restores from ZooKeeper (§3.2). Everything else it keeps
//! to answer cheaply is [`Books`]: the usage of
//! each server, the shards that lack an offered slot (`lacking`) or hold
//! a replica no run is offered (`surplus`), the shards per desired count
//! (`widths`) and the kept periodic problem. Its fields are private and
//! written only by four event calls, each made by the orchestrator's one
//! writer of what changed:
//!
//! - [`Books::hosts_changed`] — a shard's hosts changed;
//! - [`Books::load_changed`] — a shard's load changed;
//! - [`Books::server_changed`] — a server's liveness changed;
//! - [`Books::desired_changed`] — a shard's desired count changed.
//!
//! [`Books::rebuild`] derives the same books from the state alone:
//! `restore` reads the state and rebuilds, and the tests compare the
//! books with a scan of the state after every step.

use crate::orchestrator::{Loads, OrchestratorConfig, ServerEntry, ShardList};
use crate::rev::Rev;
use sm_allocator::{PeriodicProblem, ServerInfo};
use sm_types::{Assignment, Fixed, LoadVector, ReplicaAssignment, ReplicaRole, ServerId, ShardId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// The orchestrator's authoritative state: what an allocator run reads
/// and the books are derived from. Each field is a `Rev`, written only
/// through a call that counts, so `revision()` names their joint state
/// exactly.
pub(crate) struct State {
    pub(crate) config: Rev<OrchestratorConfig>,
    pub(crate) servers: Rev<BTreeMap<ServerId, ServerEntry>>,
    pub(crate) shards: Rev<ShardList>,
    pub(crate) desired_replicas: Rev<BTreeMap<ShardId, u32>>,
    pub(crate) assignment: Rev<Assignment>,
    pub(crate) loads: Rev<Loads>,
}

impl State {
    /// A state with nothing registered, tuned by `config`.
    pub(crate) fn new(config: OrchestratorConfig) -> Self {
        Self {
            config: config.into(),
            servers: Rev::default(),
            shards: Rev::default(),
            desired_replicas: Rev::default(),
            assignment: Rev::default(),
            loads: Rev::default(),
        }
    }

    /// True if `server` is registered and alive.
    pub(crate) fn alive(&self, server: ServerId) -> bool {
        self.servers.get(&server).is_some_and(|e| e.alive)
    }

    /// The state of the four `Rev` fields a periodic problem is built of
    /// and cannot be patched for: it is built again when they move.
    pub(crate) fn shape(&self) -> [u64; 4] {
        let (config, servers) = (self.config.rev(), self.servers.rev());
        let (shards, desired) = (self.shards.rev(), self.desired_replicas.rev());
        [config, servers, shards, desired]
    }
}

/// Every index derived from the [`State`] (see the module doc).
#[derive(Default)]
pub(crate) struct Books {
    /// Per server, the summed load of the replicas the assignment puts
    /// on it.
    usage: Usage,
    /// The registered shards whose first `desired` replicas are not
    /// `desired` replicas on live servers: what an emergency run places.
    lacking: BTreeSet<ShardId>,
    /// The shards holding replicas no allocator run is offered: a
    /// registered shard's beyond its first `desired`, every one of an
    /// unregistered shard's.
    surplus: BTreeSet<ShardId>,
    /// How many registered shards desire each replica count.
    widths: BTreeMap<u32, usize>,
    /// The problem of the last periodic run and the shape it was built
    /// at; stale once the shape moves, and dropped where next met.
    periodic: Option<([u64; 4], PeriodicProblem)>,
}

impl Books {
    /// The books of `state`, derived from it alone: every replica it
    /// holds and every desired count booked as if just written.
    pub(crate) fn rebuild(state: &State) -> Self {
        let mut books = Self::default();
        for (shard, replica) in state.assignment.iter() {
            books.hosts_changed(state, shard, None, Some(replica.server));
        }
        for &shard in state.desired_replicas.keys() {
            books.desired_changed(state, shard, None);
        }
        books
    }

    /// `shard`'s replica left `from`, joined `to`, or both, in the
    /// assignment of `state`.
    pub(crate) fn hosts_changed(
        &mut self,
        state: &State,
        shard: ShardId,
        from: Option<ServerId>,
        to: Option<ServerId>,
    ) {
        let load = state.loads.of(shard);
        if let Some(from) = from {
            self.usage.book(from, |used| used - load);
        }
        if let Some(to) = to {
            self.usage.book(to, |used| used + load);
        }
        self.book(state, shard);
    }

    /// `shard`'s load went from `old` to `load`; `assignment` and `shape`
    /// are the state's (the loads are being written, so the rest of the
    /// state is passed in parts). Its hosts are read off the kept
    /// periodic problem's row, which it patches, where that row holds
    /// every replica (the shard has none beyond its offered slots), and
    /// are looked up in the assignment only where it does not.
    pub(crate) fn load_changed(
        &mut self,
        shape: [u64; 4],
        assignment: &Assignment,
        shard: ShardId,
        old: LoadVector,
        load: LoadVector,
    ) {
        let Self {
            usage,
            surplus,
            periodic,
            ..
        } = self;
        let row = kept_at(periodic, shape).and_then(|p| p.set_shard(shard, load, []));
        let mut book = |server| usage.book(server, |used| used - old + load);
        match row.filter(|_| !surplus.contains(&shard)) {
            Some(slots) => slots.iter().flatten().for_each(|&server| book(server)),
            None => (assignment.replicas(shard).iter()).for_each(|r| book(r.server)),
        }
    }

    /// `server`'s liveness changed: every shard it hosts is booked again,
    /// and so is every one it `lost`. A dead server holds nothing
    /// (`server_down` drops its replicas first), so its usage goes whole
    /// and no lost replica's load is looked up.
    pub(crate) fn server_changed(
        &mut self,
        state: &State,
        server: ServerId,
        lost: &[(ShardId, ReplicaRole)],
    ) {
        if !state.alive(server) {
            self.usage.remove(server);
        }
        let hosted = state.assignment.replicas_on(server).map(|(shard, _)| shard);
        for shard in hosted.chain(lost.iter().map(|&(shard, _)| shard)) {
            self.book(state, shard);
        }
    }

    /// `shard`'s desired count was `old` and is now the state's (`None`:
    /// not registered).
    pub(crate) fn desired_changed(&mut self, state: &State, shard: ShardId, old: Option<u32>) {
        if let Some(width) = old.and_then(|old| self.widths.get_mut(&old)) {
            *width -= 1;
        }
        self.widths.retain(|_, shards| *shards > 0);
        if let Some(&n) = state.desired_replicas.get(&shard) {
            *self.widths.entry(n).or_default() += 1;
        }
        self.book(state, shard);
    }

    /// Books whether `shard` lacks a slot an allocator run offers it, and
    /// whether it holds a replica no run is offered; rewrites the slots
    /// it is offered, as the allocator's source visits them, in the kept
    /// periodic problem.
    fn book(&mut self, state: &State, shard: ShardId) {
        let held = state.assignment.replicas(shard);
        let desired = state.desired_replicas.get(&shard).map(|&n| n as usize);
        let lacking = desired.is_some_and(|n| {
            let offered = held.get(..n);
            !offered.is_some_and(|slots| slots.iter().all(|r| state.alive(r.server)))
        });
        let surplus = held.len() > desired.unwrap_or(0);
        for (set, member) in [(&mut self.lacking, lacking), (&mut self.surplus, surplus)] {
            if member {
                set.insert(shard);
            } else {
                set.remove(&shard);
            }
        }
        if let Some(periodic) = kept_at(&mut self.periodic, state.shape()) {
            let offered = held.iter().map(|r| Some(r.server));
            let slots = offered
                .chain(std::iter::repeat(None))
                .take(desired.unwrap_or(1));
            periodic.set_shard(shard, state.loads.of(shard), slots);
        }
    }

    /// Takes the kept periodic problem out for a run, if it was built at
    /// `shape`; [`Self::keep_periodic`] puts it back.
    pub(crate) fn take_periodic(&mut self, shape: [u64; 4]) -> Option<PeriodicProblem> {
        kept_at(&mut self.periodic, shape)?;
        self.periodic.take().map(|(_, periodic)| periodic)
    }

    /// Keeps `periodic`, built at `shape`, to be patched from now on.
    pub(crate) fn keep_periodic(&mut self, shape: [u64; 4], periodic: PeriodicProblem) {
        self.periodic = Some((shape, periodic));
    }

    /// True if `shard` is registered and lacks a slot an allocator run
    /// offers it.
    pub(crate) fn lacks(&self, shard: ShardId) -> bool {
        self.lacking.contains(&shard)
    }

    /// True when every slot an allocator run would be offered holds a
    /// replica on a live server. An emergency run then has no move to
    /// make: nothing is unplaced, and its move budget — the unplaced
    /// slots — is zero.
    pub(crate) fn fully_placed(&self) -> bool {
        self.lacking.is_empty()
    }

    /// The live, non-draining servers, ranked by their usage for the
    /// picks of one drain, split or merge.
    pub(crate) fn ranked(&self, state: &State) -> Ranked {
        let n = state.servers.len();
        let (mut walk, mut books) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (&id, e) in state.servers.iter().filter(|(_, e)| e.alive && !e.draining) {
            let used = self.usage.get(id);
            walk.push(Reverse((rank(used, e.capacity), id, books.len())));
            books.push((used, e.capacity));
        }
        Ranked {
            walk: walk.into(),
            books,
            passed: Vec::new(),
        }
    }

    /// The emergency cut (`PlacementSource::cut`) over the `live`
    /// servers, read from the books: the start is each live server's
    /// usage, less the replicas no run is offered (`surplus`) and the
    /// offered ones of the shards visited (`lacking`); the preference
    /// penalties are summed over the preferring shards alone.
    pub(crate) fn cut(
        &self,
        state: &State,
        live: &[ServerInfo],
        mut visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>]),
    ) -> (Vec<(LoadVector, Fixed)>, usize) {
        let usage = |s: &ServerInfo| self.usage.get(s.id);
        let mut start: Vec<_> = live.iter().map(|s| (usage(s), Fixed::default())).collect();
        let bin = |server: ServerId| live.binary_search_by_key(&server, |s| s.id).ok();
        // A shard's desired count, and its replicas split at it: the
        // offered ones, its first `desired`, and the rest.
        let offered = |shard: ShardId| {
            let held = state.assignment.replicas(shard);
            let desired = state.desired_replicas.get(&shard).map(|&n| n as usize);
            let (offered, rest) = held.split_at(desired.unwrap_or(0).min(held.len()));
            (desired, offered, rest)
        };
        let mut take = |load: LoadVector, held: &[ReplicaAssignment]| {
            for b in held.iter().filter_map(|r| bin(r.server)) {
                if let Some(at) = start.get_mut(b) {
                    at.0 -= load;
                }
            }
        };
        for &shard in &self.surplus {
            take(state.loads.of(shard), offered(shard).2);
        }
        let mut slots = Vec::new();
        let lacking: Vec<ShardId> = self.lacking.iter().copied().collect();
        for shard in state.shards.in_order_of(lacking) {
            let load = state.loads.of(shard);
            let (desired, held, _) = offered(shard);
            take(load, held);
            slots.clear();
            slots.extend(held.iter().map(|r| Some(r.server)));
            slots.resize(desired.unwrap_or(1), None);
            visit(shard, load, &slots);
        }
        for (&shard, &(want, weight)) in &state.config.alloc.region_preferences {
            if self.lacking.contains(&shard) {
                continue;
            }
            for b in offered(shard).1.iter().filter_map(|r| bin(r.server)) {
                let elsewhere = live.get(b).is_some_and(|s| s.location.region != want);
                if let Some(at) = start.get_mut(b).filter(|_| elsewhere) {
                    at.1 = at.1 + Fixed::from(weight);
                }
            }
        }
        let widest = self.widths.keys().next_back().map_or(0, |&n| n as usize);
        (start, widest)
    }
}

/// The kept periodic problem, if it was built at `shape`; a stale one is
/// dropped.
fn kept_at(
    periodic: &mut Option<([u64; 4], PeriodicProblem)>,
    shape: [u64; 4],
) -> Option<&mut PeriodicProblem> {
    if periodic.as_ref().is_some_and(|(at, _)| *at != shape) {
        *periodic = None;
    }
    periodic.as_mut().map(|(_, periodic)| periodic)
}

/// Per server, its usage, ascending by server: ids are minted densely,
/// so a server is looked for first at its id's offset from the first
/// id, then by a binary search.
#[derive(Default)]
struct Usage(Vec<(ServerId, LoadVector)>);

impl Usage {
    /// Where `server`'s usage sits, or where it would be inserted.
    fn find(&self, server: ServerId) -> Result<usize, usize> {
        let first = self.0.first().map_or(0, |(s, _)| s.raw());
        let guess = server.raw().checked_sub(first).map(|at| at as usize);
        match guess.filter(|&at| self.0.get(at).is_some_and(|(s, _)| *s == server)) {
            Some(at) => Ok(at),
            None => self.0.binary_search_by_key(&server, |&(s, _)| s),
        }
    }

    /// `server`'s usage; zero where none is booked.
    fn get(&self, server: ServerId) -> LoadVector {
        let at = self.find(server).ok().and_then(|at| self.0.get(at));
        at.map_or_else(LoadVector::zero, |&(_, used)| used)
    }

    /// Books `server`'s usage as `change` makes it, from zero where
    /// none is booked.
    fn book(&mut self, server: ServerId, change: impl FnOnce(LoadVector) -> LoadVector) {
        let at = self.find(server).unwrap_or_else(|at| {
            self.0.insert(at, (server, LoadVector::zero()));
            at
        });
        if let Some((_, used)) = self.0.get_mut(at) {
            *used = change(*used);
        }
    }

    /// Forgets `server`'s usage.
    fn remove(&mut self, server: ServerId) {
        if let Ok(at) = self.find(server) {
            self.0.remove(at);
        }
    }
}

/// A server's `(rank, id, book)` entry in [`Ranked`]'s walk.
type Candidate = Reverse<(u64, ServerId, usize)>;

/// The candidate targets of one drain, split or merge, walked least
/// utilized first and, among equals, lowest id first: the order in which
/// a scan of the servers meets its first minimum. A pick earmarks its
/// load on its target and re-ranks that server alone, so it reads the
/// servers it walks past, not the fleet.
pub(crate) struct Ranked {
    walk: BinaryHeap<Candidate>,
    /// Per server, its usage plus the loads earmarked on it, and its
    /// capacity.
    books: Vec<(LoadVector, LoadVector)>,
    /// The servers the current pick walked past; kept for its capacity.
    passed: Vec<Candidate>,
}

impl Ranked {
    /// The first server in the walk that is not `excluded` and has room
    /// for `load` (or no capacity configured); `load` is earmarked on it.
    pub(crate) fn pick(
        &mut self,
        excluded: impl Fn(ServerId) -> bool,
        load: LoadVector,
    ) -> Option<ServerId> {
        let mut picked = None;
        while let Some(Reverse(next @ (_, id, book))) = self.walk.pop() {
            let with_room = self.books.get_mut(book).filter(|(used, capacity)| {
                (*used + load).fits_within(capacity) || *capacity == LoadVector::zero()
            });
            if let Some((used, capacity)) = with_room.filter(|_| !excluded(id)) {
                *used += load;
                self.walk.push(Reverse((rank(*used, *capacity), id, book)));
                picked = Some(id);
                break;
            }
            self.passed.push(Reverse(next));
        }
        self.walk.extend(self.passed.drain(..));
        picked
    }
}

/// A server's utilization as a key that orders as the `f64` does: one
/// folded by `f64::max` from 0.0 is never NaN nor negative, and such
/// floats order as their bits.
fn rank(used: LoadVector, capacity: LoadVector) -> u64 {
    used.max_utilization(&capacity).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The books as the scans of the state read them: the usage summed
    /// over the assignment (servers that use nothing left out), the
    /// lacking and surplus shards filtered, the widths counted.
    type Scanned = (
        BTreeMap<ServerId, LoadVector>,
        BTreeSet<ShardId>,
        BTreeSet<ShardId>,
        BTreeMap<u32, usize>,
    );

    fn scan(state: &State) -> Scanned {
        let mut usage: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
        for (shard, replica) in state.assignment.iter() {
            *usage.entry(replica.server).or_default() += state.loads.of(shard);
        }
        usage.retain(|_, used| *used != LoadVector::zero());
        let desired = |shard| state.desired_replicas.get(&shard).map(|&n| n as usize);
        let lacking = state.shards.iter().copied().filter(|&shard| {
            let held = state.assignment.replicas(shard).iter();
            let mut slots: Vec<_> = held.map(|r| Some(r.server)).collect();
            slots.resize(desired(shard).unwrap_or(1), None);
            let live = |slot: &Option<ServerId>| slot.is_some_and(|on| state.alive(on));
            !slots.iter().all(live)
        });
        let surplus = state.assignment.by_shard();
        let surplus = surplus.filter(|(shard, held)| held.len() > desired(*shard).unwrap_or(0));
        let mut widths = BTreeMap::new();
        for &n in state.desired_replicas.values() {
            *widths.entry(n).or_insert(0) += 1;
        }
        let surplus = surplus.map(|(shard, _)| shard).collect();
        (usage, lacking.collect(), surplus, widths)
    }

    impl Books {
        /// The books as [`scan`] reads them.
        fn scanned(&self) -> Scanned {
            let usage = self.usage.0.iter().copied();
            let usage = usage
                .filter(|(_, used)| *used != LoadVector::zero())
                .collect();
            let (lacking, surplus) = (self.lacking.clone(), self.surplus.clone());
            (usage, lacking, surplus, self.widths.clone())
        }

        /// The books are a scan of `state`, and so are the books rebuilt
        /// from it.
        pub(crate) fn check(&self, state: &State) {
            let want = scan(state);
            assert_eq!(
                self.scanned(),
                want,
                "the books are not a scan of the state"
            );
            let rebuilt = Books::rebuild(state).scanned();
            assert_eq!(
                rebuilt, want,
                "the rebuilt books are not a scan of the state"
            );
        }

        /// The same books as `other`'s, but for the kept periodic problem.
        pub(crate) fn assert_same(&self, other: &Books, at: &str) {
            assert_eq!(self.scanned(), other.scanned(), "{at}");
        }

        /// The kept periodic problem, if it was built at `shape`.
        pub(crate) fn kept_periodic(&self, shape: [u64; 4]) -> Option<&PeriodicProblem> {
            let kept = self.periodic.as_ref().filter(|(at, _)| *at == shape);
            kept.map(|(_, periodic)| periodic)
        }
    }
}
