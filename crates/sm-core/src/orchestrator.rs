//! The per-partition orchestrator.
//!
//! One orchestrator manages one application partition (§6.1): it owns
//! the desired shard-to-server assignment, reacts to server failures
//! with emergency re-placement and primary promotion, collects load,
//! runs the allocator periodically, executes allocation plans under the
//! system-stability move caps, drains servers ahead of planned events,
//! and splits hot shards and merges cold ones.
//!
//! Every ownership change — a replica move (1→1), a split (1→2), a
//! merge (2→1) — runs a sub-sequence of the five steps of §4.3's
//! graceful migration, in the numbered order of its row; *sources*
//! leave ownership, *targets* enter it, ✔ is the point of no return:
//!
//! | kind           | prepare → targets      | forward → sources      | add → targets   | commit | drop → sources     |
//! |----------------|------------------------|------------------------|-----------------|--------|--------------------|
//! | graceful move  | 1 `PrepareAddShard`    | 2 `PrepareDropShard`   | 3 `AddShard`    | 4 ✔    | 5 `DropShard`      |
//! | secondary move | —                      | —                      | 1 `AddShard`    | 2 ✔    | 3 `DropShard`      |
//! | abrupt move    | —                      | —                      | 2 `AddShard`    | 3 ✔    | 1 `DropShard`      |
//! | fresh add      | —                      | —                      | 1 `AddShard`    | 2 ✔    | —                  |
//! | split          | 1 `PrepareAddShard` ×2 | 2 `SplitForward`       | 3 `AddShard` ×2 | 4 ✔    | 5 reclaim parent   |
//! | merge          | 1 `PrepareAddShard`    | 2 `MergeForward` ×2    | 3 `AddShard`    | 4 ✔    | 5 reclaim both     |
//!
//! *Prepare*: the new owner accepts only forwarded requests. *Forward*:
//! the old owner keeps its data, stops serving directly and forwards
//! (a split parent per key, to the child covering it). *Add*: the new
//! owner officially owns the role. *Commit*: the assignment (and for a
//! split/merge the spec, in the same step) records the handover and the
//! new map is published — only once *every* add is acked. *Drop*: the
//! old owner drains residual forwarded traffic. A graceful move is for
//! primaries with a live source; an abrupt move is its ablation (the
//! middle curve of Figure 17); the source of a secondary move is
//! unrecorded when its drop is acked.
//!
//! A change aborts on any nack, on the death of an involved server, and
//! — a split/merge — on an involved server's restart. Every abort takes
//! one path: the targets it prepared or added are reclaimed, and the
//! sources of a kind that forwards resume serving once no reclaim of
//! their shard is pending. `change.rs` holds the state machine and the
//! compensation rules; this file holds membership, placement and
//! persistence.
//!
//! Membership has one way out and one way back. A server whose lease
//! expired leaves through [`Orchestrator::server_down`]; each primary
//! it held is inherited through `ensure_primary_for`, which waits while
//! a reclaim or a change of the shard is pending, so a new owner is
//! enabled only after the old one is disabled. A server that restarted
//! or was lost returns through [`Orchestrator::reconcile_server`]:
//! alive, its drain ended, re-sent what the assignment still places on
//! it.
//!
//! The orchestrator is a synchronous state machine: methods mutate state
//! and append [`OrchCommand`]s to an outbox the embedding world drains,
//! delivering RPCs to application servers and feeding acks back in.

use crate::api::{OrchCommand, ServerRpc};
use crate::books::{Books, State};
use crate::change::{demotion, Change, Compensation};
use crate::splitter::{ReshardOp, SplitScaler};
use sm_allocator::{
    AllocConfig, Allocator, MoveCaps, MoveScheduler, PeriodicProblem, PlacementSource, ReplicaMove,
    ServerInfo,
};
use sm_types::{
    AppId, AppPolicy, Assignment, Fixed, LoadVector, Location, ReplicaAssignment, ReplicaRole,
    ServerId, ShardId, ShardMap, ShardingSpec, SmError,
};
use std::collections::{BTreeMap, BTreeSet};

/// Orchestrator tuning and ablation switches.
#[derive(Clone, Debug)]
pub struct OrchestratorConfig {
    /// Use the §4.3 graceful protocol for primary moves; when false,
    /// primaries move abruptly (drop-then-add) — the middle curve of
    /// Figure 17.
    pub graceful_migration: bool,
    /// System-stability caps on concurrent moves (§5.1 hard
    /// constraint 1).
    pub move_caps: MoveCaps,
    /// Allocator configuration.
    pub alloc: AllocConfig,
    /// Fault-injection ablation for the resharding protocol: commit a
    /// split/merge as soon as the cutover `add_shard`s are *sent*
    /// instead of waiting for their acks. A child that dies before
    /// applying then owns a range nobody serves — the skew-storm world's
    /// oracle catches this as a lost request. Never enable outside DST.
    pub skip_cutover_ack: bool,
}

/// A server known to the orchestrator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServerEntry {
    /// Fault-domain coordinates.
    pub location: Location,
    /// Capacity per metric.
    pub capacity: LoadVector,
    /// False once the server is detected down.
    pub alive: bool,
    /// True while the server is being evacuated.
    pub draining: bool,
}

/// Counters exposed for tests and experiment reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrchStats {
    /// Completed replica moves/placements.
    pub completed_moves: u64,
    /// Migrations aborted by failures.
    pub aborted_moves: u64,
    /// Primary promotions performed after failures.
    pub promotions: u64,
    /// Shard map versions published.
    pub maps_published: u64,
    /// Promotion acks whose assignment transition was rejected — each
    /// one also surfaces an [`SmError`] via
    /// [`Orchestrator::drain_errors`].
    pub failed_transitions: u64,
    /// Splits committed (spec swapped to the two children).
    pub splits_completed: u64,
    /// Splits aborted before commit (children reclaimed, parent kept).
    pub splits_aborted: u64,
    /// Merges committed (spec swapped to the merged shard).
    pub merges_completed: u64,
    /// Merges aborted before commit (target reclaimed, sources kept).
    pub merges_aborted: u64,
}

/// The per-partition orchestrator.
pub struct Orchestrator {
    pub(crate) policy: AppPolicy,
    /// The authoritative state, which an allocator run reads.
    pub(crate) state: State,
    /// Everything derived from `state` (`books.rs`).
    pub(crate) books: Books,
    /// The moves of the last allocator run and what it ran on: a run
    /// is a pure function of its mode and the `Rev` fields, so while
    /// their revision stands the moves are reused. One slot for both
    /// modes, emptied before any run begins — a plan is up to a move
    /// per replica, and nothing that size may outlive its use.
    solved: Option<(SolveKey, Vec<ReplicaMove>)>,
    map_version: u64,
    outbox: Vec<OrchCommand>,
    /// In-flight ownership changes: the first `reshards` are the
    /// splits/merges, the rest the replica moves (`change.rs`).
    pub(crate) changes: Vec<Change>,
    pub(crate) reshards: usize,
    /// The position in `changes` of the one change involving a shard;
    /// `change.rs` rewrites it wherever a change changes position.
    pub(crate) change_of: BTreeMap<ShardId, usize>,
    /// Compensations awaiting their ack (`change.rs`).
    pub(crate) pending: BTreeSet<(ShardId, ServerId, Compensation)>,
    pub(crate) scheduler: Option<MoveScheduler>,
    /// Scratch, empty between calls: the wave `pump_scheduler` starts.
    wave: Vec<ReplicaMove>,
    pub(crate) stats: OrchStats,
    /// The authoritative key-range spec, once registered. Resharding
    /// (split/merge) rewrites it.
    pub(crate) spec: Option<ShardingSpec>,
    /// Next never-used shard id for minting split/merge children.
    next_shard_id: u64,
    /// Surfaced anomalies (e.g. rejected promotion transitions), drained
    /// by the embedding world for logging. Bounded.
    errors: Vec<SmError>,
}

impl Orchestrator {
    /// Creates an orchestrator for one partition of `_app`. Which
    /// application that is matters to the caller only (it keys its
    /// orchestrators and policies by it): nothing here reads it, and the
    /// parameter stays because the repo benchmark names this signature.
    pub fn new(_app: AppId, policy: AppPolicy, config: OrchestratorConfig) -> Self {
        Self {
            policy,
            state: State::new(config),
            books: Books::default(),
            solved: None,
            map_version: 0,
            outbox: Vec::new(),
            changes: Vec::new(),
            reshards: 0,
            change_of: BTreeMap::new(),
            pending: BTreeSet::new(),
            scheduler: None,
            wave: Vec::new(),
            stats: OrchStats::default(),
            spec: None,
            next_shard_id: 0,
            errors: Vec::new(),
        }
    }

    /// Current desired assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.state.assignment
    }

    /// Counters.
    pub fn stats(&self) -> OrchStats {
        self.stats
    }

    /// Updates one shard's regional placement preference (§5.1 soft
    /// goal 1). Takes effect on the next allocation run — the Figure 20
    /// workflow, where an administrator repoints AppShards at the region
    /// their DBShards moved to.
    pub fn set_region_preference(
        &mut self,
        shard: ShardId,
        region: sm_types::RegionId,
        weight: f64,
    ) {
        let preferences = &mut self.state.config.edit().alloc.region_preferences;
        preferences.insert(shard, (region, weight));
    }

    /// True if `server` is registered and alive.
    pub fn server_alive(&self, server: ServerId) -> bool {
        self.state.alive(server)
    }

    /// True if the assignment places a replica of `shard` on `server`.
    pub(crate) fn hosts(&self, shard: ShardId, server: ServerId) -> bool {
        let mut replicas = self.state.assignment.replicas(shard).iter();
        replicas.any(|r| r.server == server)
    }

    /// Registers an application server.
    pub fn register_server(&mut self, id: ServerId, location: Location, capacity: LoadVector) {
        self.state.servers.edit().insert(
            id,
            ServerEntry {
                location,
                capacity,
                alive: true,
                draining: false,
            },
        );
        self.books.server_changed(&self.state, id, &[]);
    }

    /// Registers the application's shards (app-defined, §3.1), each with
    /// the policy's default replica count; one already registered is
    /// skipped.
    pub fn register_shards(&mut self, shards: impl IntoIterator<Item = ShardId>) {
        let n = self.policy.replication.replicas_per_shard();
        for s in shards {
            if self.state.desired_replicas.contains_key(&s) {
                continue;
            }
            self.state.shards.edit().push(s);
            self.set_desired(s, Some(n));
            self.next_shard_id = self.next_shard_id.max(s.raw() + 1);
        }
    }

    /// Registers the application's key-range spec, enabling adaptive
    /// resharding (`start_split` / `start_merge`). The
    /// spec's shards should also be registered via
    /// [`Self::register_shards`].
    pub fn register_spec(&mut self, spec: ShardingSpec) {
        if let Some(max) = spec.max_shard_id() {
            self.next_shard_id = self.next_shard_id.max(max.raw() + 1);
        }
        self.spec = Some(spec);
    }

    /// The current key-range spec, if one was registered. Resharding
    /// rewrites it at each commit; readers pair it with
    /// [`Self::current_map`] to route by key.
    pub fn sharding_spec(&self) -> Option<&ShardingSpec> {
        self.spec.as_ref()
    }

    /// Drains surfaced anomalies (rejected transitions, failed commits)
    /// for the embedding world to log.
    pub fn drain_errors(&mut self) -> Vec<SmError> {
        std::mem::take(&mut self.errors)
    }

    pub(crate) fn push_error(&mut self, err: SmError) {
        // Bounded: an unread backlog must not grow without limit.
        if self.errors.len() < 64 {
            self.errors.push(err);
        }
    }

    /// Drains the outbox; the world executes these commands.
    pub fn take_commands(&mut self) -> Vec<OrchCommand> {
        std::mem::take(&mut self.outbox)
    }

    pub(crate) fn send_rpc(&mut self, server: ServerId, rpc: ServerRpc) {
        self.outbox.push(OrchCommand::Rpc { server, rpc });
    }

    pub(crate) fn publish_map(&mut self) {
        self.map_version += 1;
        self.stats.maps_published += 1;
        // Collapse consecutive change notices: the world only needs to
        // know the latest version.
        if let Some(OrchCommand::MapChanged { version }) = self.outbox.last_mut() {
            *version = self.map_version;
            return;
        }
        self.outbox.push(OrchCommand::MapChanged {
            version: self.map_version,
        });
    }

    /// The current shard map at the latest published version. It shares
    /// the assignment's table — O(leaves), no shard copied; the next
    /// writes to the assignment copy the leaves they touch.
    pub fn current_map(&self) -> ShardMap {
        ShardMap::from_assignment(self.map_version, &self.state.assignment)
    }

    /// Stores a server's load report (pulled periodically in §3.2).
    pub fn report_load(&mut self, _server: ServerId, loads: Vec<(ShardId, LoadVector)>) {
        self.write_loads(loads);
    }

    /// The one writer of loads: sets each shard's load and books each
    /// change. A report of a tenth of the loads kept or more walks them
    /// in step with its ascending run, as `placements` walks them: a
    /// shard above every shard walked so far is read off the walk; one
    /// out of order or repeated is looked up after it, in the order
    /// given, as is every shard of a smaller report (one server's).
    /// Shards with no load kept join the loads in one merge at the end —
    /// only those registered or minted for a change in flight: a host
    /// still holding a retired parent or an aborted child reports it
    /// until its reclaim is acked. (A load is forgotten where its shard
    /// stops being either.)
    fn write_loads(&mut self, loads: impl IntoIterator<Item = (ShardId, LoadVector)>) {
        let shape = self.state.shape();
        let book = self.state.loads.edit();
        let mut moved = |shard: ShardId, held: &mut LoadVector, load: LoadVector| {
            if *held != load {
                let old = std::mem::replace(held, load);
                let assignment = &self.state.assignment;
                self.books.load_changed(shape, assignment, shard, old, load);
            }
        };
        let mut loads = loads.into_iter();
        let mut rest = Vec::new();
        if 10 * loads.size_hint().0 >= book.0.len() {
            let mut walk = book.0.iter_mut().map(|(s, l)| (*s, l)).peekable();
            let mut largest = None;
            for (shard, load) in loads.by_ref() {
                let on_walk = largest < Some(shard);
                largest = largest.max(Some(shard));
                match on_walk.then(|| next_at(&mut walk, shard)).flatten() {
                    Some(held) => moved(shard, held, load),
                    None => rest.push((shard, load)),
                }
            }
        }
        let mut fresh = BTreeMap::new();
        for (shard, load) in rest.into_iter().chain(loads) {
            let kept =
                |s| self.state.desired_replicas.contains_key(s) || self.change_of.contains_key(s);
            let held = match book.find(shard).and_then(|at| book.0.get_mut(at)) {
                Some((_, held)) => held,
                None if kept(&shard) => fresh.entry(shard).or_insert_with(unit_load),
                None => continue,
            };
            moved(shard, held, load);
        }
        if !fresh.is_empty() {
            book.0.extend(fresh);
            book.0.sort_unstable_by_key(|&(shard, _)| shard);
        }
    }

    // ---- Host changes: each writer edits the assignment and books it ----

    /// Adds a replica of `shard` on `to`.
    pub(crate) fn add_replica(
        &mut self,
        shard: ShardId,
        to: ServerId,
        role: ReplicaRole,
    ) -> Result<(), String> {
        self.state.assignment.edit().add_replica(shard, to, role)?;
        self.books.hosts_changed(&self.state, shard, None, Some(to));
        Ok(())
    }

    /// Removes the replica of `shard` on `from`, if there is one.
    pub(crate) fn remove_replica(&mut self, shard: ShardId, from: ServerId) {
        if self.state.assignment.edit().remove_replica(shard, from) {
            self.books
                .hosts_changed(&self.state, shard, Some(from), None);
        }
    }

    /// Moves the replica of `shard` on `from` to `to`, if it can.
    pub(crate) fn move_replica(&mut self, shard: ShardId, from: ServerId, to: ServerId) {
        let held = self.state.assignment.edit();
        if held.move_replica(shard, from, to).is_ok() {
            self.books
                .hosts_changed(&self.state, shard, Some(from), Some(to));
        }
    }

    /// The one writer of desired counts: `shard` wants `n` replicas, or,
    /// with `None`, is no longer registered.
    pub(crate) fn set_desired(&mut self, shard: ShardId, n: Option<u32>) {
        let desired = self.state.desired_replicas.edit();
        let old = match n {
            Some(n) => desired.insert(shard, n),
            None => desired.remove(&shard),
        };
        self.books.desired_changed(&self.state, shard, old);
    }

    // ---- Allocation ----

    /// What an allocator run reads, shard by shard in `shards` order
    /// (the solver numbers its entities by it): the shard, its load,
    /// its desired replica count and the replicas it holds. The run is
    /// offered exactly `desired` slots — the first `desired` replicas
    /// held, then `None`s.
    ///
    /// `shards` is in commit order, which is ascending by id except
    /// where splits overlapped, so the three per-shard maps are walked
    /// in step with it: an id above every id walked so far is read off
    /// the maps' iterators, which have passed nothing above that
    /// largest id; any other id is looked up.
    fn placements(
        &self,
    ) -> impl Iterator<Item = (ShardId, LoadVector, usize, &[ReplicaAssignment])> {
        let mut desired = self
            .state
            .desired_replicas
            .iter()
            .map(|(s, n)| (*s, *n))
            .peekable();
        let mut loads = self.state.loads.0.iter().copied().peekable();
        let mut held = self.state.assignment.by_shard().peekable();
        let mut largest = None;
        self.state.shards.iter().map(move |&shard| {
            let (desired, load, held) = if largest < Some(shard) {
                largest = Some(shard);
                (
                    next_at(&mut desired, shard),
                    next_at(&mut loads, shard),
                    next_at(&mut held, shard),
                )
            } else {
                (
                    self.state.desired_replicas.get(&shard).copied(),
                    self.state.loads.get(&shard).copied(),
                    Some(self.state.assignment.replicas(shard)),
                )
            };
            let desired = desired.unwrap_or(1) as usize;
            let load = load.unwrap_or_else(unit_load);
            (shard, load, desired, held.unwrap_or(&[]))
        })
    }

    /// The state of the six `Rev` fields, by which a solve is reused.
    fn revision(&self) -> [u64; 6] {
        let [config, servers, shards, desired] = self.state.shape();
        let (assignment, loads) = (self.state.assignment.rev(), self.state.loads.rev());
        [config, servers, shards, desired, assignment, loads]
    }

    /// The moves an allocator run in `mode` plans for the state as it
    /// is: none where an emergency run is offered nothing to place, the
    /// last run's while the state it ran on stands, a fresh run's
    /// otherwise.
    fn solve(&mut self, mode: Mode) -> Vec<ReplicaMove> {
        let fresh = |o: &Self| plan(&Placements(o), mode);
        if mode == Mode::Emergency && self.books.fully_placed() {
            debug_assert!(fresh(self).is_empty(), "placed, yet a move");
            return Vec::new();
        }
        let key = (mode, self.revision());
        let moves = match self.solved.take() {
            Some((solved, moves)) if solved == key => {
                debug_assert_eq!(moves, fresh(self), "a reused plan went stale");
                moves
            }
            _ if mode == Mode::Periodic => self.plan_periodic(),
            _ => fresh(self),
        };
        self.solved = Some((key, moves.clone()));
        moves
    }

    /// The moves of a periodic run: the kept problem's plan, the problem
    /// built first where none is kept.
    fn plan_periodic(&mut self) -> Vec<ReplicaMove> {
        let shape = self.state.shape();
        let kept = self.books.take_periodic(shape);
        let mut periodic = kept.unwrap_or_else(|| PeriodicProblem::from(&Placements(self)));
        let moves = periodic.moves();
        self.books.keep_periodic(shape, periodic);
        moves
    }

    /// Runs the periodic allocation (§5.1 periodic mode) and begins
    /// executing the plan under the move caps.
    pub fn run_periodic(&mut self) -> usize {
        self.run(Mode::Periodic)
    }

    /// Runs the emergency allocation (§5.1 emergency mode): places only
    /// the replicas that currently lack a server.
    pub fn run_emergency(&mut self) -> usize {
        self.run(Mode::Emergency)
    }

    /// Plans in `mode` and installs the plan, which replaces whatever
    /// plan was still executing — also when its moves are reused ones.
    fn run(&mut self, mode: Mode) -> usize {
        let moves = self.solve(mode);
        let n = moves.len();
        self.install_plan(moves);
        n
    }

    /// Replaces the executing plan. The moves still in flight keep
    /// their slots in the new scheduler, so a re-plan cannot start more
    /// moves on a server than its cap allows.
    fn install_plan(&mut self, moves: Vec<ReplicaMove>) {
        let scheduler = MoveScheduler::new(moves, self.state.config.move_caps);
        self.scheduler = Some(scheduler.carrying(self.moves_in_flight()));
        self.pump_scheduler();
    }

    /// Starts the scheduler's next wave, and releases again while a wave
    /// skipped a stale move: the slots its completion freed would else
    /// wait for the next allocator run or server event.
    pub(crate) fn pump_scheduler(&mut self) {
        let mut wave = std::mem::take(&mut self.wave);
        while let Some(scheduler) = self.scheduler.as_mut() {
            scheduler.release_into(&mut wave);
            let mut skipped = false;
            for &mv in &wave {
                skipped |= !self.start_move(mv);
            }
            wave.clear();
            if !skipped {
                break;
            }
        }
        self.wave = wave;
        // A finished plan holds nothing a later call reads: its arrays
        // go now, not when the next plan replaces it.
        if self.scheduler.as_ref().is_some_and(MoveScheduler::is_done) {
            self.scheduler = None;
        }
    }

    // ---- Failure handling ----

    /// Marks a server down (ZooKeeper ephemeral expired, §3.2): its
    /// replicas are dropped from the assignment, a surviving secondary
    /// is promoted where the primary was lost — by `ensure_primary_for`,
    /// so only once no reclaim or change of that shard is pending — a
    /// new map is published, and the emergency allocator refills the
    /// missing replicas.
    pub fn server_down(&mut self, server: ServerId) {
        if !self.server_alive(server) {
            return;
        }
        // No shard is booked here: each one the server held is booked
        // once it is dropped, below, and `sweep` reads no books.
        if let Some(e) = self.state.servers.edit().get_mut(&server) {
            e.alive = false;
        }
        // Lease expiry fences the dead server (§3.2: it wiped itself or
        // will refuse traffic): every change touching it aborts, and any
        // unacked copy it held is gone — its reclaims lapse, freeing
        // those shards to be re-placed by the emergency run below.
        let freed = self.sweep(server, true);
        let lost = self.state.assignment.edit().drop_server(server);
        self.books.server_changed(&self.state, server, &lost);
        // Before the refill below can make the shard busy: a deferred
        // heir is promoted when the reclaim that held it back is acked.
        for &(shard, _) in lost.iter().filter(|(_, role)| role.is_primary()) {
            self.ensure_primary_for(shard);
        }
        self.publish_map();
        if !lost.is_empty() || freed {
            self.run_emergency();
        }
        self.ensure_primaries();
        self.pump_scheduler();
    }

    /// Marks `server` available again and ends its drain, sending it
    /// nothing: for a server that never lost what it held (a failover
    /// standby's view of its fleet, the end of a drain). A server that
    /// came back from a restart or a detected loss returns through
    /// [`Self::reconcile_server`].
    pub fn server_up(&mut self, server: ServerId) {
        self.set_server(server, |e| (e.alive, e.draining) = (true, false));
    }

    /// Changes the entry of `server`, if it is registered.
    fn set_server(&mut self, server: ServerId, change: impl FnOnce(&mut ServerEntry)) {
        if let Some(e) = self.state.servers.edit().get_mut(&server) {
            let alive = e.alive;
            change(e);
            if e.alive != alive {
                self.books.server_changed(&self.state, server, &[]);
            }
        }
    }

    // ---- Drain (planned events, §4.1/§4.2) ----

    /// Begins evacuating `server`: every replica it hosts is migrated to
    /// a greedily chosen target (graceful for primaries). Returns the
    /// number of migrations started; zero means it was already empty.
    pub fn drain_server(&mut self, server: ServerId) -> usize {
        self.set_server(server, |e| e.draining = true);
        let mut moves = Vec::new();
        // Each pick earmarks its load, so that the picks of one drain
        // spread instead of piling onto the coldest server.
        let mut ranked = self.books.ranked(&self.state);
        for (shard, _) in self.state.assignment.replicas_on(server) {
            if self.moving(shard) {
                continue;
            }
            let hosts = self.state.assignment.replicas(shard);
            let hosting = |id| hosts.iter().any(|r| r.server == id);
            let Some(target) = ranked.pick(hosting, self.state.loads.of(shard)) else {
                continue;
            };
            moves.push(ReplicaMove {
                shard,
                replica: 0,
                from: Some(server),
                to: target,
            });
        }
        let n = moves.len();
        self.install_plan(moves);
        n
    }

    /// True once `server` hosts nothing and no change still involves
    /// it — the signal the TaskController waits for before approving the
    /// container operation.
    pub fn is_drained(&self, server: ServerId) -> bool {
        self.state.assignment.replicas_on(server).next().is_none() && !self.involves(server)
    }

    /// Clears the draining mark after the container operation completes.
    pub fn drain_finished(&mut self, server: ServerId) {
        self.set_server(server, |e| e.draining = false);
    }

    // ---- Non-negotiable maintenance preparation (§4.2) ----

    /// Prepares for an announced, non-delayable maintenance event on
    /// `servers`: for a short-impact event (e.g. rack-switch network
    /// loss), secondaries may stay, but every primary on an affected
    /// server is demoted while a secondary on an unaffected server is
    /// promoted. Returns the number of role swaps started.
    ///
    /// Shards whose every replica sits on an affected server have
    /// nowhere to promote to; they are left as-is (the event's downtime
    /// hits them regardless — placement spread exists to make this
    /// rare).
    pub fn prepare_for_maintenance(&mut self, servers: &[ServerId]) -> usize {
        let affected: BTreeSet<ServerId> = servers.iter().copied().collect();
        let mut swaps = 0;
        let shard_list: Vec<ShardId> = self.state.shards.to_vec();
        for shard in shard_list {
            let Some(primary) = self.state.assignment.primary_of(shard) else {
                continue;
            };
            if !affected.contains(&primary) {
                continue;
            }
            let successor = self
                .state
                .assignment
                .replicas(shard)
                .iter()
                .find(|r| {
                    !r.role.is_primary()
                        && !affected.contains(&r.server)
                        && self.server_alive(r.server)
                })
                .map(|r| r.server);
            let Some(new_primary) = successor else {
                continue; // every replica is in the blast radius
            };
            // Demote in place, then promote through the normal
            // promotion path (ack-driven, publishes the map).
            let demoted = self.state.assignment.edit();
            let _outcome = demoted.change_role(shard, primary, ReplicaRole::Secondary);
            self.send_rpc(primary, demotion(shard));
            self.request(shard, new_primary, Compensation::Promote);
            swaps += 1;
        }
        if swaps > 0 {
            self.publish_map();
        }
        swaps
    }

    /// Replicas currently hosted per server (for the TaskController's
    /// availability view).
    pub fn shards_on(&self, server: ServerId) -> Vec<(ShardId, ReplicaRole)> {
        self.state.assignment.shards_on(server)
    }

    /// Role reconciliation: promotes a live secondary wherever a shard
    /// that should have a primary lacks one and no promotion or
    /// migration is already in flight. Covers the corner where a
    /// promotion RPC fails (e.g. the chosen successor dies before
    /// acking) — without this, the shard would stay primary-less until
    /// an unrelated event.
    fn ensure_primaries(&mut self) {
        if !self.policy.replication.has_primary() {
            return;
        }
        // The assignment keeps the shards without a primary (ascending,
        // and no promotion below changes the assignment); only those are
        // visited, in `shards` order, but for the ones whose promotion is
        // pending: busy, `ensure_primary_for` would skip them.
        let unpromoted = |s: &ShardId| !self.promoting(*s);
        let primaryless = self.state.assignment.primaryless();
        let lacking: Vec<ShardId> = primaryless.filter(unpromoted).collect();
        if lacking.is_empty() {
            return;
        }
        for shard in self.state.shards.in_order_of(lacking) {
            self.ensure_primary_for(shard);
        }
    }

    /// Per-shard variant of the role reconciliation, cheap enough for
    /// hot paths like migration completion, and the one choice of heir
    /// for a primary lost with its server: the first live replica, once
    /// nothing of the shard is in flight.
    pub(crate) fn ensure_primary_for(&mut self, shard: ShardId) {
        let replicas = self.state.assignment.replicas(shard);
        if !self.policy.replication.has_primary()
            || replicas.iter().any(|r| r.role.is_primary())
            || replicas.is_empty()
            // Busy covers a suspect unacked copy, which may still be
            // primary-willing; promoting a survivor before the reclaim
            // resolves would make two (§3.2).
            || self.busy(shard)
        {
            return;
        }
        let heir = replicas.iter().find(|r| self.server_alive(r.server));
        if let Some(server) = heir.map(|r| r.server) {
            self.request(shard, server, Compensation::Promote);
        }
    }

    /// Re-drives a failed promotion on the next candidate: live
    /// non-primary replicas in server order, starting just past the
    /// server that nacked and wrapping around to it last — a sole
    /// secondary gets retried too (it may only have needed one more
    /// catch-up round). No-op when another promotion for the shard is
    /// already pending.
    pub(crate) fn retry_promotion(&mut self, shard: ShardId, failed: ServerId) {
        if self.promoting(shard) {
            return;
        }
        let mut candidates: Vec<ServerId> = self
            .state
            .assignment
            .replicas(shard)
            .iter()
            .filter(|r| !r.role.is_primary())
            .map(|r| r.server)
            .filter(|srv| self.server_alive(*srv))
            .collect();
        candidates.sort_unstable();
        let next = candidates
            .iter()
            .copied()
            .find(|&srv| srv > failed)
            .or_else(|| candidates.first().copied());
        if let Some(server) = next {
            self.request(shard, server, Compensation::Promote);
        }
    }

    // ---- Adaptive resharding (beyond the paper) ----
    //
    // Splits and merges are the `split` and `merge` rows of the step
    // table in the module doc; starting one is a placement decision.

    /// Begins a graceful split of `parent` at its range midpoint.
    pub(crate) fn start_split(&mut self, parent: ShardId) -> Result<(), SmError> {
        let spec = self
            .spec
            .as_ref()
            .ok_or_else(|| SmError::conflict("no sharding spec registered"))?;
        let range = spec
            .range_of(parent)
            .ok_or_else(|| SmError::not_found(parent))?;
        let at = range
            .midpoint()
            .ok_or_else(|| SmError::conflict(format!("{parent} is too narrow to split")))?;
        if self.busy(parent) {
            return Err(SmError::conflict(format!("{parent} is busy")));
        }
        let owner = self.live_primary(parent)?;
        // Each child inherits half the parent's observed load; targets
        // are picked like drain targets, spreading the two halves.
        let half = self.state.loads.of(parent).scale(0.5);
        let mut ranked = self.books.ranked(&self.state);
        let mut pick = || {
            let to = ranked.pick(|id| id == owner, half);
            to.ok_or_else(|| SmError::Unavailable("no server can host a split child".into()))
        };
        let (left_to, right_to) = (pick()?, pick()?);
        let children = [left_to, right_to].map(|to| (self.mint_shard(), to));
        self.begin(Change::split((parent, owner), at, children));
        self.write_loads(children.map(|(child, _)| (child, half)));
        Ok(())
    }

    /// Begins a graceful merge of the adjacent shards `left` and
    /// `right` into one freshly minted shard.
    pub(crate) fn start_merge(&mut self, left: ShardId, right: ShardId) -> Result<(), SmError> {
        let spec = self
            .spec
            .as_ref()
            .ok_or_else(|| SmError::conflict("no sharding spec registered"))?;
        let lr = spec
            .range_of(left)
            .ok_or_else(|| SmError::not_found(left))?;
        let rr = spec
            .range_of(right)
            .ok_or_else(|| SmError::not_found(right))?;
        if lr.merge(rr).is_none() {
            return Err(SmError::InvalidArgument(format!(
                "{left} and {right} are not adjacent"
            )));
        }
        if self.busy(left) || self.busy(right) {
            return Err(SmError::conflict(format!("{left} or {right} is busy")));
        }
        let owners = [self.live_primary(left)?, self.live_primary(right)?];
        let mut combined = self.state.loads.of(left);
        combined += self.state.loads.of(right);
        let union_to = self
            .books
            .ranked(&self.state)
            .pick(|id| owners.contains(&id), combined)
            .ok_or_else(|| SmError::Unavailable("no server can host the merged shard".into()))?;
        let union = (self.mint_shard(), union_to);
        let [left_owner, right_owner] = owners;
        self.begin(Change::merge(
            [(left, left_owner), (right, right_owner)],
            union,
        ));
        self.write_loads([(union.0, combined)]);
        Ok(())
    }

    fn live_primary(&self, shard: ShardId) -> Result<ServerId, SmError> {
        self.state
            .assignment
            .primary_of(shard)
            .filter(|&p| self.server_alive(p))
            .ok_or_else(|| SmError::Unavailable(format!("{shard} has no live primary")))
    }

    /// Mints a never-used shard id.
    fn mint_shard(&mut self) -> ShardId {
        let id = ShardId(self.next_shard_id);
        self.next_shard_id += 1;
        id
    }

    /// Runs the split scaler over the latest load reports and starts as
    /// many recommended operations as the concurrency budget allows.
    /// Returns the number started.
    pub fn run_reshard(&mut self, scaler: &SplitScaler) -> usize {
        let Some(spec) = self.spec.clone() else {
            return 0;
        };
        let slots = scaler.config().max_concurrent.saturating_sub(self.reshards);
        if slots == 0 {
            return 0;
        }
        let shards = self.state.shards.iter().copied();
        let busy: BTreeSet<ShardId> = shards.filter(|&s| self.busy(s)).collect();
        let ops = scaler.evaluate(&spec, |s| self.state.loads.get(&s).copied(), &busy);
        let mut started = 0;
        for op in ops.into_iter().take(slots) {
            let outcome = match op {
                ReshardOp::Split { shard } => self.start_split(shard),
                ReshardOp::Merge { left, right } => self.start_merge(left, right),
            };
            // A refused start (no target with headroom, primary briefly
            // missing) is not an anomaly; the next tick retries.
            if outcome.is_ok() {
                started += 1;
            }
        }
        started
    }

    // ---- State persistence (§3.2, §6.2) ----

    /// Serializes the orchestrator's durable state — the assignment,
    /// desired replica counts, and map version — in a compact
    /// line-oriented format. [`crate::ha::HaControlPlane`] stores this
    /// in ZooKeeper so that a standby mini-SM can take over, and
    /// application servers can bootstrap their assignment without the
    /// control plane.
    pub fn snapshot(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::from("smorch v1\n");
        let _infallible = writeln!(out, "version {}", self.map_version);
        for (shard, n) in self.state.desired_replicas.iter() {
            let _infallible = writeln!(out, "desired {} {}", shard.raw(), n);
        }
        for (shard, replica) in self.state.assignment.iter() {
            let _infallible = writeln!(
                out,
                "replica {} {} {}",
                shard.raw(),
                replica.server.raw(),
                if replica.role.is_primary() { "P" } else { "S" }
            );
        }
        out.into_bytes()
    }

    /// Restores the durable state written by [`Self::snapshot`] into a
    /// freshly constructed orchestrator (servers must be registered by
    /// the caller, as in a normal start-up). Replaces the shard list
    /// and assignment wholesale and forgets everything in flight.
    pub(crate) fn restore(&mut self, bytes: &[u8]) -> Result<(), SmError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| SmError::InvalidArgument(format!("snapshot not utf-8: {e}")))?;
        let mut lines = text.lines();
        if lines.next() != Some("smorch v1") {
            return Err(SmError::InvalidArgument("unknown snapshot header".into()));
        }
        let mut assignment = Assignment::new();
        let mut desired = BTreeMap::new();
        let mut version = 0u64;
        for line in lines {
            let bad = || SmError::InvalidArgument(format!("bad line: {line}"));
            let num = |v: &str| v.parse::<u64>().map_err(|_| bad());
            let mut parts = line.split_whitespace();
            match [(); 5].map(|()| parts.next()) {
                [Some("version"), Some(v), None, ..] => version = num(v)?,
                [Some("desired"), Some(shard), Some(n), None, _] => {
                    desired.insert(ShardId(num(shard)?), num(n)? as u32);
                }
                [Some("replica"), Some(shard), Some(server), Some(role), None] => {
                    let role = match role {
                        "P" => ReplicaRole::Primary,
                        "S" => ReplicaRole::Secondary,
                        _ => return Err(bad()),
                    };
                    let (shard, server) = (ShardId(num(shard)?), ServerId(num(server)? as u32));
                    let added = assignment.add_replica(shard, server, role);
                    added.map_err(SmError::InvalidArgument)?;
                }
                [None, ..] => {}
                _ => return Err(bad()),
            }
        }
        // Restored ids above the registered spec's maximum (the children
        // of earlier splits) must never be minted again.
        if let Some(max) = desired.keys().next_back() {
            self.next_shard_id = self.next_shard_id.max(max.raw() + 1);
        }
        let shards = self.state.shards.edit();
        *shards = ShardList::default();
        desired.keys().for_each(|&shard| shards.push(shard));
        *self.state.assignment.edit() = assignment;
        // Nothing is in flight after a restore, so only the registered
        // shards keep their loads.
        let loads = self.state.loads.edit();
        loads.0.retain(|(shard, _)| desired.contains_key(shard));
        *self.state.desired_replicas.edit() = desired;
        self.books = Books::rebuild(&self.state);
        self.map_version = version;
        self.clear_in_flight();
        self.scheduler = None;
        Ok(())
    }

    /// The one way back for a server that restarted or was lost: marks
    /// it alive and not draining, and re-sends `add_shard` for
    /// everything the assignment still places on it (§3.2: on start-up
    /// a server also reads its assignment from ZooKeeper; this is the
    /// control-plane push side of that reconciliation). A server
    /// restarted before detection gets its shards back; after a
    /// detected loss the assignment places nothing there, so nothing is
    /// sent and the caller's emergency run re-places what moved away.
    pub fn reconcile_server(&mut self, server: ServerId) {
        self.set_server(server, |e| (e.alive, e.draining) = (true, false));
        // An in-place restart silently discarded any split/merge
        // forwarding or prepared-child state the server held. Committing
        // such an op later would hand ownership to a child that no
        // longer exists, or leave a "forwarding" parent serving
        // directly — abort now and let the scaler retry once quiescent.
        self.sweep(server, false);
        for (shard, role) in self.state.assignment.shards_on(server) {
            self.send_rpc(server, ServerRpc::AddShard { shard, role });
        }
    }
}

/// What an allocator run is a pure function of: its mode and the
/// revisions of the six `Rev` fields it reads.
type SolveKey = (Mode, [u64; 6]);

/// The two allocation modes of §5.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mode {
    Emergency,
    Periodic,
}

/// The moves of one allocator run in `mode` over `source`.
fn plan(source: &impl PlacementSource, mode: Mode) -> Vec<ReplicaMove> {
    match mode {
        Mode::Periodic => PeriodicProblem::from(source).moves(),
        // Emergency placements are fresh adds only.
        Mode::Emergency => {
            let mut moves = Allocator::plan_emergency(source).moves;
            moves.retain(|m| m.from.is_none());
            moves
        }
    }
}

/// The orchestrator's state and books as the allocator's source: read
/// in place, no copy of them made for the run.
struct Placements<'a>(&'a Orchestrator);

impl PlacementSource for Placements<'_> {
    fn config(&self) -> &AllocConfig {
        &self.0.state.config.alloc
    }

    fn servers(&self) -> impl Iterator<Item = ServerInfo> {
        let live = self.0.state.servers.iter().filter(|(_, e)| e.alive);
        live.map(|(id, e)| ServerInfo {
            id: *id,
            location: e.location,
            capacity: e.capacity,
            draining: e.draining,
        })
    }

    fn for_each_shard(&self, mut visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>])) {
        let mut slots = Vec::new();
        for (shard, load, desired, held) in self.0.placements() {
            slots.clear();
            slots.extend(held.iter().take(desired).map(|r| Some(r.server)));
            slots.resize(desired, None);
            visit(shard, load, &slots);
        }
    }

    fn size(&self) -> (usize, usize) {
        let shards = self.0.state.shards.len();
        let replicas = self.0.policy.replication.replicas_per_shard();
        (shards, shards * replicas as usize)
    }

    /// Read from the kept books ([`Books::cut`]).
    fn cut(
        &self,
        visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>]),
    ) -> (Vec<(LoadVector, Fixed)>, usize) {
        let live: Vec<ServerInfo> = self.servers().collect();
        self.0.books.cut(&self.0.state, &live, visit)
    }
}

/// The registered shards in commit order, which is ascending by id
/// except where splits overlapped, and whether it is ascending now:
/// written only through `push` and `retain`, which keep that flag, so no
/// reader walks the list to learn it.
#[derive(Debug, Default)]
pub(crate) struct ShardList {
    ids: Vec<ShardId>,
    unordered: bool,
}

impl ShardList {
    /// Lists `shard` last.
    pub(crate) fn push(&mut self, shard: ShardId) {
        self.unordered |= self.ids.last() >= Some(&shard);
        self.ids.push(shard);
    }

    /// Keeps the shards `keep` accepts, in their order.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&ShardId) -> bool) {
        self.ids.retain(keep);
        self.unordered &= !self.ids.is_sorted();
    }

    /// Those of the ascending `some` that are listed, in list order:
    /// while the list ascends, `some` is already in it.
    pub(crate) fn in_order_of(&self, mut some: Vec<ShardId>) -> Vec<ShardId> {
        if self.unordered {
            let listed = self.ids.iter().copied();
            return listed.filter(|s| some.binary_search(s).is_ok()).collect();
        }
        some.retain(|shard| self.ids.binary_search(shard).is_ok());
        some
    }
}

impl std::ops::Deref for ShardList {
    type Target = [ShardId];

    fn deref(&self) -> &[ShardId] {
        &self.ids
    }
}

/// Each shard's last reported load, in one run ascending by shard: a
/// large report walks it in step, streaming, and a lookup reads one
/// place or binary-searches (`find`). Kept ascending by every writer:
/// `write_loads`, and the `retain` that forgets a shard.
#[derive(Debug, Default)]
pub(crate) struct Loads(pub(crate) Vec<(ShardId, LoadVector)>);

impl Loads {
    /// The last load reported for `shard`.
    pub(crate) fn get(&self, shard: &ShardId) -> Option<&LoadVector> {
        self.0.get(self.find(*shard)?).map(|(_, load)| load)
    }

    /// The last load reported for `shard`, or one unit of shard count.
    pub(crate) fn of(&self, shard: ShardId) -> LoadVector {
        self.get(&shard).copied().unwrap_or_else(unit_load)
    }

    /// Where `shard`'s load sits. Ids are minted densely, so it is looked
    /// for first at its id's offset from the first id: one read where no
    /// id below it is missing, a binary search where one is.
    fn find(&self, shard: ShardId) -> Option<usize> {
        let first = self.0.first().map_or(0, |(s, _)| s.raw());
        let guess = shard.raw().checked_sub(first).map(|at| at as usize);
        let hit = guess.filter(|&at| self.0.get(at).is_some_and(|(s, _)| *s == shard));
        hit.or_else(|| self.0.binary_search_by_key(&shard, |&(s, _)| s).ok())
    }
}

/// The load assumed for a shard that has reported none.
fn unit_load() -> LoadVector {
    LoadVector::single(sm_types::Metric::ShardCount.id(), 1.0)
}

/// Advances an ascending `(shard, value)` iterator to `shard` and takes
/// its value, if it has one; entries below `shard` are passed for good.
fn next_at<V>(
    iter: &mut std::iter::Peekable<impl Iterator<Item = (ShardId, V)>>,
    shard: ShardId,
) -> Option<V> {
    while iter.next_if(|(s, _)| *s < shard).is_some() {}
    iter.next_if(|(s, _)| *s == shard).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_allocator::{AllocInput, ShardPlacement};
    use sm_types::{MachineId, Metric, RegionId};

    fn loc(region: u16, machine: u32) -> Location {
        Location {
            region: RegionId(region),
            datacenter: u32::from(region),
            rack: u32::from(region) * 1000 + machine,
            machine: MachineId(machine),
        }
    }

    fn config() -> OrchestratorConfig {
        let mut alloc = AllocConfig::new(vec![Metric::ShardCount.id()]);
        alloc.search.seed = 7;
        OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps {
                max_total: 1000,
                max_per_server: 1000,
                max_per_shard: 1,
            },
            alloc,
            skip_cutover_ack: false,
        }
    }

    fn cap(v: f64) -> LoadVector {
        LoadVector::single(Metric::ShardCount.id(), v)
    }

    /// Orchestrator with `n` servers in one region.
    fn orch(policy: AppPolicy, n: u32, shards: u64) -> Orchestrator {
        let mut o = Orchestrator::new(AppId(1), policy, config());
        for i in 0..n {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards((0..shards).map(ShardId));
        o
    }

    impl Orchestrator {
        /// The allocator's input as a copy of the books, three map
        /// lookups per shard: the model for [`Placements`], which is read in
        /// place by a walk in step.
        pub(crate) fn build_input(&self) -> AllocInput {
            let servers: Vec<ServerInfo> = self
                .state
                .servers
                .iter()
                .filter(|(_, e)| e.alive)
                .map(|(id, e)| ServerInfo {
                    id: *id,
                    location: e.location,
                    capacity: e.capacity,
                    draining: e.draining,
                })
                .collect();
            let shards: Vec<ShardPlacement> = self
                .state
                .shards
                .iter()
                .map(|&shard| {
                    let desired = *self.state.desired_replicas.get(&shard).unwrap_or(&1) as usize;
                    let mut replicas: Vec<Option<ServerId>> = self
                        .state
                        .assignment
                        .replicas(shard)
                        .iter()
                        .map(|r| Some(r.server))
                        .collect();
                    replicas.resize(desired, None);
                    replicas.truncate(desired.max(replicas.len()));
                    ShardPlacement {
                        shard,
                        load_per_replica: self.state.loads.of(shard),
                        replicas,
                    }
                })
                .collect();
            AllocInput {
                servers,
                shards,
                config: self.state.config.alloc.clone(),
            }
        }

        /// [`Self::run`], its moves first compared with those of an
        /// allocator run over `build_input`, the copy made now. True when
        /// the moves were reused ones.
        pub(crate) fn run_checked(&mut self, mode: Mode) -> bool {
            let want = plan(&self.build_input(), mode);
            let key = (mode, self.revision());
            let kept = self.solved.as_ref().map(|(solved, _)| *solved) == Some(key);
            let solves = mode == Mode::Periodic || !self.books.fully_placed();
            let got = self.solve(mode);
            assert_eq!(got, want, "{mode:?}, reusing: {}", kept && solves);
            self.install_plan(got);
            kept && solves
        }

        /// What the allocator reads through [`Placements`], copied out.
        fn books_read(&self) -> AllocInput {
            let books = Placements(self);
            let mut shards = Vec::new();
            books.for_each_shard(|shard, load_per_replica, slots| {
                shards.push(ShardPlacement {
                    shard,
                    load_per_replica,
                    replicas: slots.to_vec(),
                })
            });
            AllocInput {
                servers: books.servers().collect(),
                shards,
                config: books.config().clone(),
            }
        }

        /// [`Placements`] reads as `build_input` copies; a mismatch names
        /// the first shard that differs. `fully_placed` says what the
        /// copy shows, and the cut of the books visits what a walk of the
        /// copy visits and starts where it starts.
        pub(crate) fn check_build_input(&self) {
            let (got, want) = (self.books_read(), self.build_input());
            for (got, want) in got.shards.iter().zip(&want.shards) {
                let (got, want) = (format!("{got:?}"), format!("{want:?}"));
                assert_eq!(got, want, "shards are {:?}", *self.state.shards);
            }
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            let mut slots = want.shards.iter().flat_map(|s| &s.replicas);
            let placed = slots.all(|slot| slot.is_some_and(|on| self.server_alive(on)));
            assert_eq!(self.books.fully_placed(), placed);

            let registered: BTreeSet<ShardId> = self.state.shards.iter().copied().collect();
            assert_eq!(
                registered.len(),
                self.state.shards.len(),
                "a shard listed twice"
            );
            assert!(
                registered.iter().eq(self.state.desired_replicas.keys()),
                "listed, not desired"
            );
            assert_eq!(cut_of(&Placements(self)), cut_of(&want), "the kept cut");
        }

        /// The books are a scan of the state, and so is their rebuild
        /// (`Books::check`); the assignment's primary-less shards are a
        /// scan's; every load kept is a registered shard's or a target's
        /// in flight; and a kept periodic problem is a fresh build's, and
        /// so is the evaluator its solver keeps, reset at its initial
        /// assignment.
        pub(crate) fn check_books(&self) {
            self.books.check(&self.state);
            let led = |rs: &[ReplicaAssignment]| rs.iter().any(|r| r.role.is_primary());
            let scan = self.state.assignment.by_shard().filter(|(_, rs)| !led(rs));
            let scan: Vec<ShardId> = scan.map(|(shard, _)| shard).collect();
            let kept: Vec<ShardId> = self.state.assignment.primaryless().collect();
            assert_eq!(kept, scan, "the primary-less shards");
            for (shard, _) in &self.state.loads.0 {
                let kept = self.state.desired_replicas.contains_key(shard)
                    || self.change_of.contains_key(shard);
                assert!(
                    kept,
                    "a load kept for {shard}, neither registered nor in flight"
                );
            }
            let shape = self.state.shape();
            if let Some(kept) = self.books.kept_periodic(shape) {
                let fresh = PeriodicProblem::from(&Placements(self));
                assert_eq!(
                    format!("{kept:?}"),
                    format!("{fresh:?}"),
                    "kept at {shape:?}"
                );
                if let Some([kept, fresh]) = kept.problem().kept_evaluator() {
                    let (kept, fresh) = (format!("{kept:?}"), format!("{fresh:?}"));
                    assert_eq!(kept, fresh, "the kept evaluator at {shape:?}");
                }
            }
        }

        /// Adjusts one registered shard's desired replica count. Takes
        /// effect on the next allocation run; shrinking drops excess
        /// secondaries immediately.
        pub(crate) fn set_desired_replicas(&mut self, shard: ShardId, n: u32) {
            if !self.state.desired_replicas.contains_key(&shard) {
                return;
            }
            self.set_desired(shard, Some(n.max(1)));
            let current = self.state.assignment.replicas(shard).len() as u32;
            if current > n {
                // Drop excess replicas, secondaries first.
                let mut victims: Vec<(ServerId, ReplicaRole)> = self
                    .state
                    .assignment
                    .replicas(shard)
                    .iter()
                    .map(|r| (r.server, r.role))
                    .collect();
                victims.sort_by_key(|(_, role)| role.is_primary());
                for (server, _) in victims.into_iter().take((current - n) as usize) {
                    self.remove_replica(shard, server);
                    self.send_rpc(server, ServerRpc::DropShard { shard });
                }
                self.publish_map();
            }
        }
    }

    /// What the cut of a source visits, where it starts, and how wide
    /// the widest shard is.
    type Cut = (
        Vec<(ShardId, LoadVector, Vec<Option<ServerId>>)>,
        Vec<(LoadVector, Fixed)>,
        usize,
    );

    fn cut_of(source: &impl PlacementSource) -> Cut {
        let mut visited = Vec::new();
        let (start, widest) =
            source.cut(|shard, load, slots| visited.push((shard, load, slots.to_vec())));
        (visited, start, widest)
    }

    #[test]
    fn the_books_offer_exactly_the_desired_slots() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 3);
        let add = |o: &mut Orchestrator, shard: u64, server: u32| {
            let (shard, server) = (ShardId(shard), ServerId(server));
            let added = o.add_replica(shard, server, ReplicaRole::Secondary);
            added.expect("a free server");
        };
        // Shard 0 holds three replicas of its desired two, shard 1 one of
        // two, shard 2 none; only shard 1 has reported a load.
        for (shard, server) in [(0, 2), (0, 0), (0, 3), (1, 1)] {
            add(&mut o, shard, server);
        }
        o.report_load(ServerId(1), vec![(ShardId(1), cap(7.0))]);
        let input = o.books_read();
        let slots: Vec<_> = input.shards.iter().map(|s| s.replicas.clone()).collect();
        let unit = cap(1.0);
        assert_eq!(slots[0], [Some(ServerId(2)), Some(ServerId(0))]);
        assert_eq!(slots[1], [Some(ServerId(1)), None]);
        assert_eq!(slots[2], [None, None]);
        let loads: Vec<_> = input.shards.iter().map(|s| s.load_per_replica).collect();
        assert_eq!(loads, [unit, cap(7.0), unit]);
        o.check_build_input();
        o.check_books();
    }

    #[test]
    fn the_books_read_out_of_order_shards_like_the_lookup_builder() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 0);
        o.register_shards([5, 3, 4, 9, 1].map(ShardId));
        o.check_build_input();
        // Every shard differs from every other in desired count, load and
        // replicas held, so a value read for the wrong id shows.
        for (i, shard) in [1, 3, 4, 5, 9].into_iter().map(ShardId).enumerate() {
            o.set_desired(shard, Some(1 + i as u32));
            o.report_load(ServerId(0), vec![(shard, cap(shard.raw() as f64))]);
            let (server, role) = (ServerId(i as u32 % 4), ReplicaRole::Secondary);
            o.add_replica(shard, server, role).expect("a free server");
            o.check_build_input();
            o.check_books();
        }
        let read = o.books_read();
        let order: Vec<_> = read.shards.iter().map(|s| s.shard.raw()).collect();
        assert_eq!(order, [5, 3, 4, 9, 1]);
    }

    #[test]
    fn in_order_of_visits_what_the_filter_over_all_shards_visited() {
        use sm_sim::SimRng;
        let (mut ascending, mut overlapped) = (0, 0);
        for seed in 0..400 {
            let mut rng = SimRng::seeded(seed);
            let listed = rng.index(40);
            let ids = rng.sample_indices(60, listed);
            let mut shards: Vec<ShardId> = ids.into_iter().map(|i| ShardId(i as u64)).collect();
            // Commit order: ascending, but for the children of splits
            // that overlapped.
            shards.sort();
            if seed % 2 == 1 && shards.len() > 1 {
                let (a, b) = (rng.index(shards.len()), rng.index(shards.len()));
                shards.swap(a, b);
            }
            // Ascending ids, some of them (a retired parent still being
            // reclaimed) in the assignment but no longer in `shards`.
            let mut list = ShardList::default();
            shards.iter().for_each(|&shard| list.push(shard));
            // A retired parent leaves the list, which may ascend again.
            if seed % 4 >= 2 && !shards.is_empty() {
                let gone = shards.remove(rng.index(shards.len()));
                list.retain(|&s| s != gone);
            }
            let some = (0..70).filter(|_| rng.chance(0.3));
            let some: Vec<ShardId> = some.map(ShardId).collect();
            let all = shards.iter().copied();
            let want: Vec<ShardId> = all.filter(|s| some.binary_search(s).is_ok()).collect();
            assert_eq!(list.in_order_of(some), want, "seed {seed}");
            assert_eq!(list.unordered, !shards.is_sorted(), "seed {seed}");
            if shards.is_sorted() {
                ascending += 1;
            } else {
                overlapped += 1;
            }
        }
        assert!(ascending > 150 && overlapped > 150);
    }

    #[test]
    fn a_load_is_found_where_a_scan_finds_it() {
        use sm_sim::SimRng;
        for seed in 0..200 {
            let mut rng = SimRng::seeded(seed);
            let (first, minted) = (rng.index(50) as u64, rng.index(4) as u64);
            // Ids minted densely, a few retired (holes) and a few minted
            // far above (split children).
            let dense = (first..first + 60).filter(|_| !rng.chance(0.1));
            let ids = dense.chain((0..minted).map(|i| 1_000 + 7 * i));
            let loads = Loads(ids.map(|id| (ShardId(id), cap(id as f64))).collect());
            for id in 0..1_100 {
                let want = loads.0.iter().find(|(s, _)| s.raw() == id).map(|(_, l)| l);
                assert_eq!(loads.get(&ShardId(id)), want, "seed {seed} id {id}");
            }
        }
    }

    /// Drives all outstanding RPCs to acked completion, like a perfectly
    /// responsive world. Returns all commands processed.
    fn settle(o: &mut Orchestrator) -> Vec<OrchCommand> {
        let mut all = Vec::new();
        loop {
            let cmds = o.take_commands();
            if cmds.is_empty() {
                break;
            }
            for c in &cmds {
                if let OrchCommand::Rpc { server, rpc } = c {
                    o.rpc_acked(*server, *rpc);
                }
            }
            all.extend(cmds);
        }
        all
    }

    #[test]
    fn a_replan_keeps_each_server_within_its_move_cap() {
        let mut config = config();
        config.move_caps.max_per_server = 2;
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config);
        for i in 0..8 {
            o.register_server(ServerId(i), loc(0, i), cap(20.0));
        }
        o.register_shards((0..64).map(ShardId));
        o.run_emergency();
        settle(&mut o);
        // Server 3 comes back empty, so the next failover's plan puts
        // most of what server 5 held there; the plan is then installed
        // again while its first moves are in flight.
        o.server_down(ServerId(3));
        settle(&mut o);
        o.server_up(ServerId(3));
        o.server_down(ServerId(5));
        assert!(o.run_emergency() > 4, "a plan of a few moves");
        let mut most = 0;
        loop {
            let commands = o.take_commands();
            if commands.is_empty() {
                break;
            }
            for c in commands {
                if let OrchCommand::Rpc { server, rpc } = c {
                    for s in (0..8).map(ServerId) {
                        let moves = o.moves_in_flight();
                        let on = moves.filter(|m| m.from == Some(s) || m.to == s).count();
                        most = most.max(on);
                    }
                    o.rpc_acked(server, rpc);
                }
            }
        }
        assert!(most <= 2, "{most} moves in flight on one server, cap 2");
        assert_eq!(o.assignment().replica_count(), 128, "every replica placed");
    }

    #[test]
    fn bootstrap_places_all_shards() {
        let mut o = orch(AppPolicy::primary_only(), 4, 20);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().shard_count(), 20);
        for s in 0..20 {
            assert!(o.assignment().primary_of(ShardId(s)).is_some());
        }
        assert_eq!(o.in_flight_migrations(), 0);
    }

    #[test]
    fn solver_threads_knob_keeps_plans_deterministic() {
        // Same world, two runs with threads=2: the parallel solve must
        // produce identical placements both times and place everything.
        let threaded = || {
            let mut cfg = config();
            cfg.alloc.search.threads = 2;
            let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), cfg);
            for i in 0..6 {
                o.register_server(ServerId(i), loc(0, i), cap(1000.0));
            }
            o.register_shards((0..24).map(ShardId));
            o.run_emergency();
            settle(&mut o);
            o.run_periodic();
            settle(&mut o);
            (0..24)
                .map(|s| o.assignment().primary_of(ShardId(s)))
                .collect::<Vec<_>>()
        };
        let first = threaded();
        let second = threaded();
        assert!(first.iter().all(Option::is_some));
        assert_eq!(first, second, "threaded plans must be reproducible");
    }

    #[test]
    fn primary_secondary_bootstrap_assigns_roles() {
        let mut o = orch(AppPolicy::primary_secondary(2), 6, 10);
        o.run_emergency();
        settle(&mut o);
        for s in 0..10 {
            let replicas = o.assignment().replicas(ShardId(s));
            assert_eq!(replicas.len(), 3, "shard {s}");
            assert_eq!(
                replicas.iter().filter(|r| r.role.is_primary()).count(),
                1,
                "exactly one primary"
            );
        }
    }

    #[test]
    fn graceful_migration_follows_five_steps() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };

        // Hand-inject a move and walk the protocol step by step.
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        // Step 1: prepare_add to the new primary.
        let cmds = o.take_commands();
        assert_eq!(
            cmds,
            vec![OrchCommand::Rpc {
                server: to,
                rpc: ServerRpc::PrepareAddShard {
                    shard: ShardId(0),
                    current_owner: from,
                    role: ReplicaRole::Primary
                }
            }]
        );
        o.rpc_acked(
            to,
            ServerRpc::PrepareAddShard {
                shard: ShardId(0),
                current_owner: from,
                role: ReplicaRole::Primary,
            },
        );
        // Step 2: prepare_drop to the old primary.
        let cmds = o.take_commands();
        assert!(matches!(
            cmds[0],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::PrepareDropShard { .. }
            } if server == from
        ));
        o.rpc_acked(
            from,
            ServerRpc::PrepareDropShard {
                shard: ShardId(0),
                new_owner: to,
                role: ReplicaRole::Primary,
            },
        );
        // Step 3: add to the new primary.
        let cmds = o.take_commands();
        assert!(matches!(
            cmds[0],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::AddShard { .. }
            } if server == to
        ));
        // Assignment still points at the old primary pre-ack.
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(from));
        o.rpc_acked(
            to,
            ServerRpc::AddShard {
                shard: ShardId(0),
                role: ReplicaRole::Primary,
            },
        );
        // Step 4: map published; step 5: drop sent to the old primary.
        let cmds = o.take_commands();
        assert!(matches!(cmds[0], OrchCommand::MapChanged { .. }));
        assert!(matches!(
            cmds[1],
            OrchCommand::Rpc {
                server,
                rpc: ServerRpc::DropShard { .. }
            } if server == from
        ));
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(to));
        o.rpc_acked(from, ServerRpc::DropShard { shard: ShardId(0) });
        assert_eq!(o.in_flight_migrations(), 0);
        assert_eq!(o.stats().completed_moves, 2, "bootstrap + migration");
    }

    #[test]
    fn abrupt_mode_drops_before_adding() {
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), {
            let mut c = config();
            c.graceful_migration = false;
            c
        });
        for i in 0..2 {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards([ShardId(0)]);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        let cmds = o.take_commands();
        assert_eq!(
            cmds,
            vec![OrchCommand::Rpc {
                server: from,
                rpc: ServerRpc::DropShard { shard: ShardId(0) }
            }],
            "abrupt mode drops first"
        );
        o.rpc_acked(from, ServerRpc::DropShard { shard: ShardId(0) });
        // Shard is now nowhere — the unavailability window.
        assert!(o.assignment().primary_of(ShardId(0)).is_none());
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(to));
    }

    /// Shrunk from the seeded transcripts (seed 1, shard 22), where it
    /// leaked replicas: a fresh add still queued when its target dies —
    /// a server that held nothing, so its loss plans nothing again — is
    /// not started. Started, a world that answers a fenced server's RPC
    /// committed a replica on a dead server; that replica sat among the
    /// shard's offered slots, so the shard lacked one for good and every
    /// refill added a replica past `desired`.
    #[test]
    fn a_queued_add_to_a_dead_server_is_not_started() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 1);
        o.run_emergency();
        settle(&mut o);
        let shard = ShardId(0);
        let idle = (0..4).map(ServerId).find(|&s| !o.hosts(shard, s));
        let idle = idle.expect("two of four servers host the shard");
        o.set_desired_replicas(shard, 3);
        let add = ReplicaMove {
            shard,
            replica: 2,
            from: None,
            to: idle,
        };
        o.scheduler = Some(MoveScheduler::new(vec![add], o.state.config.move_caps));
        o.server_down(idle);
        settle(&mut o);
        o.run_emergency();
        settle(&mut o);
        let held = o.state.assignment.replicas(shard);
        let dead = held.iter().filter(|r| !o.server_alive(r.server)).count();
        assert_eq!((held.len(), dead), (3, 0), "{held:?}");
        assert!(!o.books.lacks(shard));
    }

    /// A wave whose every move is stale, with nothing else in flight,
    /// does not strand the rest of its plan: the slots its skipped moves
    /// freed are released again at once, not at the next allocator run
    /// or server event.
    #[test]
    fn a_stale_wave_does_not_strand_its_plan() {
        let mut o = orch(AppPolicy::primary_only(), 3, 2);
        o.run_emergency();
        settle(&mut o);
        o.state.config.edit().move_caps.max_total = 1;
        let on = |o: &Orchestrator, shard| o.assignment().primary_of(ShardId(shard)).unwrap();
        let next = |server: ServerId, by| ServerId((server.0 + by) % 3);
        let mv = |shard, from, to| ReplicaMove {
            shard: ShardId(shard),
            replica: 0,
            from: Some(from),
            to,
        };
        // Shard 0's move names a source that does not host it.
        let (held, moving) = (on(&o, 0), on(&o, 1));
        o.install_plan(vec![
            mv(0, next(held, 1), next(held, 2)),
            mv(1, moving, next(moving, 1)),
        ]);
        assert_eq!(o.in_flight_migrations(), 1, "the second move is stranded");
        settle(&mut o);
        assert_eq!(on(&o, 1), next(moving, 1));
        assert_eq!(on(&o, 0), held);
    }

    #[test]
    fn server_failure_promotes_secondary_and_refills() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 4);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        let shards_lost = o.shards_on(victim).len();
        assert!(shards_lost > 0);

        o.server_down(victim);
        settle(&mut o);

        // Every shard has a primary again, on a live server.
        for s in 0..4 {
            let p = o.assignment().primary_of(ShardId(s)).unwrap();
            assert_ne!(p, victim);
        }
        // Replica counts restored to 2.
        for s in 0..4 {
            assert_eq!(o.assignment().replicas(ShardId(s)).len(), 2, "shard {s}");
        }
        assert!(o.stats().promotions >= 1);
    }

    #[test]
    fn primary_only_failover_recreates_primaries() {
        let mut o = orch(AppPolicy::primary_only(), 3, 9);
        o.run_emergency();
        settle(&mut o);
        o.server_down(ServerId(0));
        settle(&mut o);
        for s in 0..9 {
            let p = o.assignment().primary_of(ShardId(s)).expect("replaced");
            assert_ne!(p, ServerId(0));
        }
    }

    #[test]
    fn drain_empties_server_gracefully() {
        let mut o = orch(AppPolicy::primary_only(), 4, 12);
        o.run_emergency();
        settle(&mut o);
        let victim = ServerId(0);
        let before = o.shards_on(victim).len();
        assert!(before > 0, "victim should host something");
        assert!(!o.is_drained(victim));

        let started = o.drain_server(victim);
        assert_eq!(started, before);
        settle(&mut o);
        assert!(o.is_drained(victim));
        assert_eq!(o.assignment().shard_count(), 12, "nothing lost");
        // Cleared for reuse after the planned event.
        o.drain_finished(victim);
        assert!(!o.state.servers[&victim].draining);
    }

    // ---- Reference model: the target picker before the ranked walk ----

    impl Orchestrator {
        /// The servers a pick may choose, in id order, each with its
        /// utilization: live, non-draining, outside `exclude`, and with
        /// room for `load` on its usage plus its `extra` — the usage
        /// summed from the assignment on every look.
        fn candidates_scan(
            &self,
            exclude: &[ServerId],
            extra: &BTreeMap<ServerId, LoadVector>,
            load: &LoadVector,
        ) -> Vec<(ServerId, f64)> {
            self.state
                .servers
                .iter()
                .filter(|(id, e)| e.alive && !e.draining && !exclude.contains(id))
                .filter_map(|(id, e)| {
                    let mut usage = self.usage_of(*id);
                    if let Some(x) = extra.get(id) {
                        usage += *x;
                    }
                    // Honor capacity where configured.
                    let room = (usage + *load).fits_within(&e.capacity)
                        || e.capacity == LoadVector::zero();
                    room.then(|| (*id, usage.max_utilization(&e.capacity)))
                })
                .collect()
        }

        /// The picker before the ranked walk: the first candidate of
        /// least utilization, as `min_by` over the scan meets it.
        fn pick_target_scan(
            &self,
            exclude: &[ServerId],
            extra: &BTreeMap<ServerId, LoadVector>,
            load: &LoadVector,
        ) -> Option<ServerId> {
            let candidates = self.candidates_scan(exclude, extra, load).into_iter();
            candidates
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(id, _)| id)
        }

        /// True when more than one candidate has the least utilization:
        /// the pick is then decided by the id tie-break.
        fn pick_is_tied(
            &self,
            exclude: &[ServerId],
            extra: &BTreeMap<ServerId, LoadVector>,
            load: &LoadVector,
        ) -> bool {
            let candidates = self.candidates_scan(exclude, extra, load);
            let least = candidates
                .iter()
                .map(|&(_, u)| u)
                .fold(f64::INFINITY, f64::min);
            candidates.iter().filter(|&&(_, u)| u == least).count() > 1
        }

        /// One server's usage by a filter over the whole assignment.
        fn usage_of(&self, server: ServerId) -> LoadVector {
            let mut usage = LoadVector::zero();
            for (shard, _) in self
                .state
                .assignment
                .iter()
                .filter(|(_, r)| r.server == server)
            {
                usage += self.state.loads.of(shard);
            }
            usage
        }
    }

    /// A seeded fleet for the picker tests: 3 to 16 servers, some dead,
    /// some draining, and 10 to 119 shards of one to three replicas. Its
    /// capacities run from none at all through binding to ample, per
    /// metric, and most loads are non-integer on two metrics. With `ties`
    /// the fleet is built for the id tie-break to decide most picks:
    /// every load is one unit, every server has one integer capacity or
    /// none, and the servers past the first two thirds hold nothing.
    /// Returns the fleet, its generator and how many servers may host.
    fn picker_fleet(seed: u64, ties: bool) -> (Orchestrator, sm_sim::SimRng, usize) {
        let mut rng = sm_sim::SimRng::seeded(seed);
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config());
        let servers = 3 + rng.index(14) as u32;
        let shards = 10 + rng.index(110) as u64;
        let room = shards as f64 * 6.0 / f64::from(servers);
        let per_server = 2 * shards as usize / servers as usize;
        let shared = ties.then(|| cap((1 + rng.index(per_server + 2)) as f64));
        for i in 0..servers {
            let mut capacity = LoadVector::zero();
            if let Some(shared) = shared {
                capacity = if rng.chance(0.15) { capacity } else { shared };
            } else {
                for metric in [Metric::Cpu, Metric::ShardCount] {
                    if !rng.chance(0.2) {
                        capacity.set(metric.id(), rng.f64_range(0.4, 3.0) * room);
                    }
                }
            }
            o.register_server(ServerId(i), loc(0, i), capacity);
            let entry = o.state.servers.edit().get_mut(&ServerId(i)).unwrap();
            entry.alive = !rng.chance(0.15);
            entry.draining = rng.chance(0.15);
        }
        let hosting = if ties {
            (servers as usize * 2 / 3).max(3)
        } else {
            servers as usize
        };
        o.register_shards((0..shards).map(ShardId));
        for shard in (0..shards).map(ShardId) {
            let copies = 1 + rng.index(3.min(hosting));
            let hosts = rng.sample_indices(hosting, copies);
            for (nth, host) in hosts.into_iter().enumerate() {
                let role = if nth == 0 {
                    ReplicaRole::Primary
                } else {
                    ReplicaRole::Secondary
                };
                o.add_replica(shard, ServerId(host as u32), role).unwrap();
            }
            // Non-integer loads on two metrics; the rest fall back to one
            // unit of shard count.
            if !ties && rng.chance(0.8) {
                let mut load = cap(rng.f64_range(0.3, 1.7));
                load.set(Metric::Cpu.id(), rng.f64_range(0.05, 9.0));
                o.report_load(ServerId(0), vec![(shard, load)]);
            }
        }
        o.check_books();
        (o, rng, hosting)
    }

    #[test]
    fn drain_picks_the_targets_the_scanning_picker_picked() {
        let (mut picked, mut refused, mut fleets) = (BTreeSet::new(), 0, 0);
        // Per kind of fleet, the picks made and those the id tie-break
        // decided.
        let (mut picks, mut tied) = ([0, 0], [0, 0]);
        for seed in 0..480 {
            // Half the fleets with varied loads and capacities, half
            // with ties.
            let ties = seed >= 240;
            let (mut o, mut rng, hosting) = picker_fleet(seed, ties);
            let victim = ServerId(rng.index(hosting) as u32);
            let entry = o.state.servers.edit().get_mut(&victim).unwrap();
            (entry.alive, entry.draining) = (true, true);

            // The drain loop over the scanning picker, each pick checked
            // against the ranked walk's.
            let mut ranked = o.books.ranked(&o.state);
            let mut extra: BTreeMap<ServerId, LoadVector> = BTreeMap::new();
            let mut want = Vec::new();
            for (shard, _) in o.shards_on(victim) {
                let load = o.state.loads.of(shard);
                let hosts = o.state.assignment.replicas(shard).iter();
                let hosts: Vec<ServerId> = hosts.map(|r| r.server).collect();
                let target = o.pick_target_scan(&hosts, &extra, &load);
                let walked = ranked.pick(|id| hosts.contains(&id), load);
                assert_eq!(walked, target, "seed {seed}, {shard}");
                match target {
                    Some(target) => {
                        picks[usize::from(ties)] += 1;
                        tied[usize::from(ties)] +=
                            usize::from(o.pick_is_tied(&hosts, &extra, &load));
                        *extra.entry(target).or_insert_with(LoadVector::zero) += load;
                        want.push((shard, target));
                        picked.insert(target);
                    }
                    None => refused += 1,
                }
            }
            // The drain itself: each started move first addresses its
            // target, in plan order.
            assert_eq!(o.drain_server(victim), want.len(), "seed {seed}");
            let started = rpcs(&mut o).into_iter().map(|(to, rpc)| (rpc.shard(), to));
            assert_eq!(started.collect::<Vec<_>>(), want, "seed {seed}");
            fleets += usize::from(!want.is_empty());
        }
        println!("{fleets} fleets drained, {refused} replicas refused, {tied:?} of {picks:?} tied");
        // Non-vacuous: most fleets moved something, the capacity filter
        // refused some replicas, the picks were spread, and in the tie
        // fleets the id tie-break decided most picks.
        assert!(fleets >= 400 && refused > 100 && picked.len() > 10);
        assert!(2 * tied[1] > picks[1], "{tied:?} of {picks:?} tied");
    }

    #[test]
    fn splits_and_merges_pick_the_targets_the_scanning_picker_picked() {
        let (mut started, mut refused, mut tied) = ([0, 0], [0, 0], 0);
        for seed in 0..480 {
            let ties = seed % 2 == 1;
            let fleet = || {
                let (mut o, rng, _) = picker_fleet(seed, ties);
                o.register_spec(ShardingSpec::uniform_u64(o.state.shards.len() as u64));
                let led = o.state.shards.iter().copied();
                let led: Vec<ShardId> = led.filter(|&s| o.live_primary(s).is_ok()).collect();
                (o, rng, led)
            };

            // A split: two children of half the parent's load each, off
            // its primary, the right one picked after the left one's
            // earmark.
            let (mut o, mut rng, led) = fleet();
            if led.is_empty() {
                continue;
            }
            let parent = led[rng.index(led.len())];
            let owner = [o.live_primary(parent).unwrap()];
            let half = o.state.loads.of(parent).scale(0.5);
            let mut extra = BTreeMap::new();
            tied += usize::from(o.pick_is_tied(&owner, &extra, &half));
            let left = o.pick_target_scan(&owner, &extra, &half);
            let right = left.and_then(|left| {
                extra.insert(left, half);
                o.pick_target_scan(&owner, &extra, &half)
            });
            let split = o.start_split(parent);
            match (left, right) {
                (Some(left), Some(right)) => {
                    assert!(split.is_ok(), "seed {seed}: {split:?}");
                    let targets = rpcs(&mut o).into_iter().map(|(to, _)| to);
                    assert_eq!(targets.collect::<Vec<_>>(), [left, right], "seed {seed}");
                    started[0] += 1;
                }
                _ => {
                    let unavailable = matches!(split, Err(SmError::Unavailable(_)));
                    assert!(unavailable, "seed {seed}: {split:?}");
                    refused[0] += 1;
                }
            }

            // A merge of two adjacent shards with live primaries, into one
            // server off both.
            let (mut o, mut rng, led) = fleet();
            let pairs: Vec<_> = led
                .windows(2)
                .filter(|w| w[0].raw() + 1 == w[1].raw())
                .collect();
            let Some(&&[left, right]) = pairs.get(rng.index(pairs.len().max(1))) else {
                continue;
            };
            let owners = [left, right].map(|s| o.live_primary(s).unwrap());
            let combined = o.state.loads.of(left) + o.state.loads.of(right);
            tied += usize::from(o.pick_is_tied(&owners, &BTreeMap::new(), &combined));
            let target = o.pick_target_scan(&owners, &BTreeMap::new(), &combined);
            let merge = o.start_merge(left, right);
            match target {
                Some(target) => {
                    assert!(merge.is_ok(), "seed {seed}: {merge:?}");
                    let targets = rpcs(&mut o).into_iter().map(|(to, _)| to);
                    assert_eq!(targets.collect::<Vec<_>>(), [target], "seed {seed}");
                    started[1] += 1;
                }
                None => {
                    let unavailable = matches!(merge, Err(SmError::Unavailable(_)));
                    assert!(unavailable, "seed {seed}: {merge:?}");
                    refused[1] += 1;
                }
            }
        }
        println!("splits, merges: {started:?} started, {refused:?} refused, {tied} tied");
        assert!(started[0] > 400 && started[1] > 400, "{started:?}");
        assert!(
            refused[0] > 20 && refused[1] > 20 && tied > 300,
            "{refused:?}, {tied}"
        );
    }

    #[test]
    fn drain_at_fleet_scale_costs_the_drained_server_not_the_fleet() {
        // 16,384 shards x 128 servers, primary + 1 secondary: the size
        // at which summing every candidate's usage from the whole
        // assignment, per replica, took this test minutes. It hangs
        // visibly again if a fleet-wide scan returns to the path.
        let shards = 16_384;
        let mut o = orch(AppPolicy::primary_secondary(1), 128, shards);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().replica_count(), 2 * shards as usize);

        let victim = ServerId(5);
        let held = o.shards_on(victim).len();
        assert!(held >= 128, "the victim hosts its share: {held}");
        assert_eq!(o.drain_server(victim), held);
        settle(&mut o);
        assert!(o.is_drained(victim));
        assert_eq!(o.assignment().replica_count(), 2 * shards as usize);
        assert!(o.drain_errors().is_empty());
    }

    #[test]
    fn drain_of_empty_server_is_immediate() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let empty = if o.shards_on(ServerId(0)).is_empty() {
            ServerId(0)
        } else {
            ServerId(1)
        };
        if o.shards_on(empty).is_empty() {
            assert_eq!(o.drain_server(empty), 0);
            assert!(o.is_drained(empty));
        }
    }

    #[test]
    fn scaler_changes_replica_count() {
        let mut o = orch(AppPolicy::secondary_only(2), 5, 2);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 2);

        // Scale up to 4: next emergency run fills the new slots.
        o.set_desired_replicas(ShardId(0), 4);
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 4);

        // Scale down to 1: drops happen immediately.
        o.set_desired_replicas(ShardId(0), 1);
        settle(&mut o);
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 1);
    }

    #[test]
    fn scale_down_prefers_dropping_secondaries() {
        let mut o = orch(AppPolicy::primary_secondary(2), 5, 1);
        o.run_emergency();
        settle(&mut o);
        let primary = o.assignment().primary_of(ShardId(0)).unwrap();
        o.set_desired_replicas(ShardId(0), 2);
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(primary));
        assert_eq!(o.assignment().replicas(ShardId(0)).len(), 2);
    }

    #[test]
    fn rpc_failure_aborts_migration() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        o.run_emergency();
        settle(&mut o);
        let from = o.assignment().primary_of(ShardId(0)).unwrap();
        let to = if from == ServerId(0) {
            ServerId(1)
        } else {
            ServerId(0)
        };
        o.install_plan(vec![ReplicaMove {
            shard: ShardId(0),
            replica: 0,
            from: Some(from),
            to,
        }]);
        let cmds = o.take_commands();
        let OrchCommand::Rpc { server, rpc } = cmds[0] else {
            panic!("expected rpc");
        };
        o.rpc_failed(server, rpc);
        assert_eq!(o.in_flight_migrations(), 0);
        assert_eq!(o.stats().aborted_moves, 1);
        // Old primary untouched.
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(from));
    }

    #[test]
    fn periodic_run_balances_shard_count() {
        // Shard-count capacity of 16 per server makes the 10% balance
        // band bind: 16 shards on 4 servers -> avg util 0.25, so no
        // server may hold more than 16 x 0.35 = 5.6 shards.
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), config());
        for i in 0..4 {
            o.register_server(ServerId(i), loc(0, i), cap(16.0));
        }
        o.register_shards((0..16).map(ShardId));
        // Bootstrap everything onto server 0 by failing the others first.
        o.server_down(ServerId(1));
        o.server_down(ServerId(2));
        o.server_down(ServerId(3));
        o.run_emergency();
        settle(&mut o);
        assert_eq!(o.shards_on(ServerId(0)).len(), 16);
        o.server_up(ServerId(1));
        o.server_up(ServerId(2));
        o.server_up(ServerId(3));
        // Shard-count load reports.
        for s in 0..16 {
            o.report_load(
                ServerId(0),
                vec![(ShardId(s), LoadVector::single(Metric::ShardCount.id(), 1.0))],
            );
        }
        o.run_periodic();
        settle(&mut o);
        // No server may end above the 5.6-shard band; nothing is lost.
        for i in 0..4 {
            let n = o.shards_on(ServerId(i)).len();
            assert!(n <= 5, "server {i} has {n} shards");
        }
        assert_eq!(o.assignment().shard_count(), 16);
    }

    #[test]
    fn maintenance_preparation_swaps_roles_off_affected_servers() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 8);
        o.run_emergency();
        settle(&mut o);
        // Rack maintenance hits servers 0 and 1.
        let affected = [ServerId(0), ServerId(1)];
        let primaries_on_affected: Vec<ShardId> = (0..8)
            .map(ShardId)
            .filter(|&s| {
                o.assignment()
                    .primary_of(s)
                    .map(|p| affected.contains(&p))
                    .unwrap_or(false)
            })
            .collect();
        let escapable = primaries_on_affected
            .iter()
            .filter(|&&s| {
                o.assignment()
                    .replicas(s)
                    .iter()
                    .any(|r| !r.role.is_primary() && !affected.contains(&r.server))
            })
            .count();
        let swaps = o.prepare_for_maintenance(&affected);
        settle(&mut o);
        // Every shard that can escape has its primary off the affected
        // servers; secondaries may stay (§4.2).
        for s in primaries_on_affected {
            let p = o.assignment().primary_of(s).expect("still has a primary");
            let other_replica_outside = o
                .assignment()
                .replicas(s)
                .iter()
                .any(|r| !affected.contains(&r.server));
            if other_replica_outside {
                assert!(
                    !affected.contains(&p),
                    "shard {s} primary still in blast radius"
                );
            }
        }
        assert_eq!(swaps, escapable, "one swap per escapable shard");
        // No shard lost replicas: demote/promote only.
        assert_eq!(o.assignment().replica_count(), 16);
    }

    #[test]
    fn maintenance_preparation_skips_fully_affected_shards() {
        let mut o = orch(AppPolicy::primary_secondary(1), 2, 1);
        o.run_emergency();
        settle(&mut o);
        // Both replicas live on the only two servers; nothing to do.
        let swaps = o.prepare_for_maintenance(&[ServerId(0), ServerId(1)]);
        assert_eq!(swaps, 0);
        assert!(o.assignment().primary_of(ShardId(0)).is_some());
    }

    #[test]
    fn failed_promotion_is_retried_until_a_primary_exists() {
        let mut o = orch(AppPolicy::primary_secondary(2), 5, 3);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        o.server_down(victim);
        // Intercept the promotion RPC and fail it (the successor
        // rejects or times out) instead of acking.
        let cmds = o.take_commands();
        let mut failed_one = false;
        for c in &cmds {
            if let OrchCommand::Rpc { server, rpc } = c {
                match rpc {
                    ServerRpc::ChangeRole { new, .. } if new.is_primary() && !failed_one => {
                        o.rpc_failed(*server, *rpc);
                        failed_one = true;
                    }
                    _ => o.rpc_acked(*server, *rpc),
                }
            }
        }
        assert!(failed_one, "a promotion was attempted");
        // ensure_primaries re-elects; settle the retry.
        settle(&mut o);
        for s in 0..3 {
            let p = o.assignment().primary_of(ShardId(s));
            assert!(p.is_some(), "shard {s} has a primary again: {p:?}");
            assert_ne!(p, Some(victim));
        }
    }

    #[test]
    fn nacked_promotion_immediately_retries_the_next_secondary() {
        let mut o = orch(AppPolicy::primary_secondary(2), 4, 1);
        o.run_emergency();
        settle(&mut o);
        let victim = o.assignment().primary_of(ShardId(0)).unwrap();
        o.server_down(victim);
        // Nack the promotion (the application's safe election can
        // reject a momentarily stale candidate); ack everything else.
        let cmds = o.take_commands();
        let mut nacked = None;
        for c in &cmds {
            if let OrchCommand::Rpc { server, rpc } = c {
                match rpc {
                    ServerRpc::ChangeRole { new, .. } if new.is_primary() && nacked.is_none() => {
                        o.rpc_failed(*server, *rpc);
                        nacked = Some(*server);
                    }
                    _ => o.rpc_acked(*server, *rpc),
                }
            }
        }
        let nacked = nacked.expect("a promotion was attempted");
        // The retry is already queued — no periodic sweep needed — and
        // goes to a different secondary.
        let retry = o
            .take_commands()
            .into_iter()
            .find_map(|c| match c {
                OrchCommand::Rpc {
                    server,
                    rpc: rpc @ ServerRpc::ChangeRole { new, .. },
                } if new.is_primary() => Some((server, rpc)),
                _ => None,
            })
            .expect("immediate promotion retry");
        assert_ne!(retry.0, nacked, "retry targets the next candidate");
        o.rpc_acked(retry.0, retry.1);
        settle(&mut o);
        assert_eq!(o.assignment().primary_of(ShardId(0)), Some(retry.0));
    }

    #[test]
    fn snapshot_restore_round_trips_through_a_standby() {
        let mut o = orch(AppPolicy::primary_secondary(1), 5, 20);
        o.run_emergency();
        settle(&mut o);
        o.set_desired_replicas(ShardId(3), 3);
        settle(&mut o);
        let snapshot = o.snapshot();

        // A standby control-plane replica takes over (§6.2): fresh
        // orchestrator, same servers, restored state.
        let mut standby = Orchestrator::new(AppId(1), AppPolicy::primary_secondary(1), config());
        for i in 0..5 {
            standby.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        standby.restore(&snapshot).expect("restore");
        assert_eq!(standby.assignment(), o.assignment());

        // The standby is fully operational: it can handle a failure.
        let victim = standby.assignment().primary_of(ShardId(0)).unwrap();
        standby.server_down(victim);
        settle(&mut standby);
        let p = standby.assignment().primary_of(ShardId(0)).unwrap();
        assert_ne!(p, victim);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut o = orch(AppPolicy::primary_only(), 2, 1);
        assert!(o.restore(b"not a snapshot").is_err());
        assert!(o.restore(b"smorch v1\nbogus record 1").is_err());
        assert!(o.restore(b"smorch v1\nreplica 1 2 X").is_err());
        assert!(o.restore(&[0xff, 0xfe]).is_err());
        // Empty-but-valid snapshot restores to an empty assignment.
        o.restore(b"smorch v1\nversion 9\n").unwrap();
        assert_eq!(o.assignment().shard_count(), 0);
    }

    #[test]
    fn duplicate_server_down_is_idempotent() {
        let mut o = orch(AppPolicy::primary_only(), 3, 3);
        o.run_emergency();
        settle(&mut o);
        o.server_down(ServerId(0));
        let published = o.stats().maps_published;
        o.server_down(ServerId(0));
        assert_eq!(o.stats().maps_published, published, "second call no-ops");
    }

    /// `reconcile_server` is the one way back: whatever happened to the
    /// server, it ends alive and not draining, and it is re-sent what
    /// the assignment still places on it — all it held while its loss
    /// was never declared, nothing after a declared loss.
    #[test]
    fn reconcile_server_is_the_one_way_back() {
        for (declared_down, draining) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let row = format!("declared down: {declared_down}, draining: {draining}");
            let mut o = orch(AppPolicy::primary_only(), 3, 6);
            o.run_emergency();
            settle(&mut o);
            let server = ServerId(0);
            let held = o.shards_on(server);
            assert!(!held.is_empty(), "{row}");
            if draining {
                assert!(o.drain_server(server) > 0, "{row}");
            }
            if declared_down {
                o.server_down(server);
            }
            rpcs(&mut o);
            o.reconcile_server(server);
            let entry = o.state.servers[&server];
            assert!(entry.alive && !entry.draining, "{row}");
            let add = |&(shard, role)| (server, ServerRpc::AddShard { shard, role });
            let resent: Vec<_> = held.iter().filter(|_| !declared_down).map(add).collect();
            assert_eq!(rpcs(&mut o), resent, "{row}");
        }
    }

    // ---- Adaptive resharding ----

    /// Drains the outbox into `(server, rpc)` pairs, dropping map
    /// notices.
    fn rpcs(o: &mut Orchestrator) -> Vec<(ServerId, ServerRpc)> {
        o.take_commands()
            .into_iter()
            .filter_map(|c| match c {
                OrchCommand::Rpc { server, rpc } => Some((server, rpc)),
                _ => None,
            })
            .collect()
    }

    /// Bootstrapped primary-only orchestrator with a registered
    /// two-shard uniform spec.
    fn reshard_orch(servers: u32) -> Orchestrator {
        let mut o = orch(AppPolicy::primary_only(), servers, 2);
        o.register_spec(ShardingSpec::uniform_u64(2));
        o.run_emergency();
        settle(&mut o);
        o
    }

    #[test]
    fn graceful_split_walks_the_generalized_five_steps() {
        let mut o = reshard_orch(3);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        assert_eq!(o.in_flight_reshards(), 1);

        // Step 1: both children prepared on servers != the old primary.
        let prepares = rpcs(&mut o);
        assert_eq!(prepares.len(), 2);
        for (s, r) in &prepares {
            assert!(matches!(
                r,
                ServerRpc::PrepareAddShard {
                    current_owner,
                    role: ReplicaRole::Primary,
                    ..
                } if *current_owner == old_primary
            ));
            assert_ne!(*s, old_primary);
            o.rpc_acked(*s, *r);
        }

        // Step 2: the parent stops serving directly and forwards
        // per-key; the split point is exposed for the world.
        assert!(o.pending_split(parent).is_some());
        let fwd = rpcs(&mut o);
        assert_eq!(fwd.len(), 1);
        let (s, r) = fwd[0];
        assert_eq!(s, old_primary);
        assert!(matches!(r, ServerRpc::SplitForward { parent: p, .. } if p == parent));
        o.rpc_acked(s, r);

        // Step 3: cutover adds — nothing committed until both ack.
        let adds = rpcs(&mut o);
        assert_eq!(adds.len(), 2);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 2);
        for (s, r) in &adds {
            assert!(matches!(
                r,
                ServerRpc::AddShard {
                    role: ReplicaRole::Primary,
                    ..
                }
            ));
            o.rpc_acked(*s, *r);
        }

        // Step 4: atomic commit — spec rewritten, children published,
        // parent retired. Step 5: residual drain via the reclaim path.
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        assert!(o.pending_split(parent).is_none());
        let spec = o.sharding_spec().unwrap();
        assert_eq!(spec.shard_count(), 3, "shard 1 plus two children");
        assert!(spec.range_of(parent).is_none());
        for (child, _) in [(ShardId(2), ()), (ShardId(3), ())] {
            assert!(spec.range_of(child).is_some(), "minted child in spec");
            assert!(o.assignment().primary_of(child).is_some());
        }
        settle(&mut o); // acks the parent's DropShard reclaim
        assert!(o.assignment().replicas(parent).is_empty());
    }

    #[test]
    fn graceful_merge_walks_the_inverse_protocol() {
        let mut o = reshard_orch(3);
        let left_primary = o.assignment().primary_of(ShardId(0)).unwrap();
        let right_primary = o.assignment().primary_of(ShardId(1)).unwrap();
        o.start_merge(ShardId(0), ShardId(1)).unwrap();

        // Prepare the target off both source primaries.
        let prepares = rpcs(&mut o);
        assert_eq!(prepares.len(), 1);
        let (target_to, prep) = prepares[0];
        assert_ne!(target_to, left_primary);
        assert_ne!(target_to, right_primary);
        o.rpc_acked(target_to, prep);

        // Both sources forward into the target.
        let fwds = rpcs(&mut o);
        assert_eq!(fwds.len(), 2);
        for (s, r) in &fwds {
            assert!(matches!(r, ServerRpc::MergeForward { .. }));
            o.rpc_acked(*s, *r);
        }

        // Single cutover add, then commit.
        let adds = rpcs(&mut o);
        assert_eq!(adds.len(), 1);
        assert_eq!(adds[0].0, target_to);
        o.rpc_acked(adds[0].0, adds[0].1);
        assert_eq!(o.stats().merges_completed, 1);
        let spec = o.sharding_spec().unwrap();
        assert_eq!(spec.shard_count(), 1);
        let merged = ShardId(2);
        assert!(spec.range_of(merged).is_some());
        assert_eq!(o.assignment().primary_of(merged), Some(target_to));
        settle(&mut o);
        assert!(o.assignment().replicas(ShardId(0)).is_empty());
        assert!(o.assignment().replicas(ShardId(1)).is_empty());
    }

    #[test]
    fn split_aborts_on_nack_and_the_parent_resumes() {
        let mut o = reshard_orch(3);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        for (s, r) in rpcs(&mut o) {
            o.rpc_acked(s, r); // prepares
        }
        let fwd = rpcs(&mut o);
        o.rpc_failed(fwd[0].0, fwd[0].1); // the parent refuses to forward

        assert_eq!(o.stats().splits_aborted, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        let cleanup = rpcs(&mut o);
        // Both prepared children are reclaimed; the parent resumes.
        assert_eq!(
            cleanup
                .iter()
                .filter(|(_, r)| matches!(r, ServerRpc::DropShard { .. }))
                .count(),
            2
        );
        assert!(cleanup.iter().any(|(s, r)| *s == old_primary
            && matches!(r, ServerRpc::AddShard { shard, .. } if *shard == parent)));
        for (s, r) in cleanup {
            o.rpc_acked(s, r);
        }
        settle(&mut o);
        assert_eq!(
            o.sharding_spec().unwrap().shard_count(),
            2,
            "spec untouched"
        );
        assert_eq!(o.assignment().primary_of(parent), Some(old_primary));
        assert_eq!(o.in_flight_migrations(), 0);
    }

    #[test]
    fn involved_server_failure_aborts_the_split() {
        let mut o = reshard_orch(4);
        let parent = ShardId(0);
        let old_primary = o.assignment().primary_of(parent).unwrap();
        o.start_split(parent).unwrap();
        let prepares = rpcs(&mut o);
        let (left_to, _) = prepares[0];
        for (s, r) in &prepares {
            o.rpc_acked(*s, *r);
        }
        // A child target dies mid-forward: the whole op aborts and the
        // parent keeps (resumes) serving its original range.
        o.server_down(left_to);
        assert_eq!(o.stats().splits_aborted, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        settle(&mut o);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 2);
        assert_eq!(o.assignment().primary_of(parent), Some(old_primary));
    }

    #[test]
    fn skip_cutover_ack_commits_before_children_ack() {
        let mut cfg = config();
        cfg.skip_cutover_ack = true;
        let mut o = Orchestrator::new(AppId(1), AppPolicy::primary_only(), cfg);
        for i in 0..3 {
            o.register_server(ServerId(i), loc(0, i), cap(1000.0));
        }
        o.register_shards((0..2).map(ShardId));
        o.register_spec(ShardingSpec::uniform_u64(2));
        o.run_emergency();
        settle(&mut o);
        o.start_split(ShardId(0)).unwrap();
        for (s, r) in rpcs(&mut o) {
            o.rpc_acked(s, r); // prepares
        }
        let fwd = rpcs(&mut o);
        o.rpc_acked(fwd[0].0, fwd[0].1);
        // Mutated behavior: committed the instant the cutover adds were
        // *sent* — children own ranges they may never have applied.
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.in_flight_reshards(), 0);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 3);
    }

    #[test]
    fn run_reshard_executes_scaler_recommendations() {
        let mut o = reshard_orch(3);
        o.report_load(
            ServerId(0),
            vec![(ShardId(0), cap(500.0)), (ShardId(1), cap(50.0))],
        );
        let scaler = crate::SplitScaler::new(crate::SplitScalerConfig::new(
            Metric::ShardCount.id(),
            100.0,
            30.0,
            1,
            8,
        ));
        assert_eq!(o.run_reshard(&scaler), 1, "hot shard 0 splits");
        assert_eq!(o.run_reshard(&scaler), 0, "concurrency cap holds");
        settle(&mut o);
        assert_eq!(o.stats().splits_completed, 1);
        assert_eq!(o.sharding_spec().unwrap().shard_count(), 3);
    }

    #[test]
    fn rejected_promotion_transition_is_surfaced_not_ignored() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 1);
        o.run_emergency();
        settle(&mut o);
        let shard = ShardId(0);
        let a = o.assignment().primary_of(shard).unwrap();
        o.server_down(a);
        // Hold back the promotion ack; drive everything else.
        let mut promote = None;
        loop {
            let cmds = rpcs(&mut o);
            if cmds.is_empty() {
                break;
            }
            for (s, r) in cmds {
                if promote.is_none()
                    && matches!(r, ServerRpc::ChangeRole { new, .. } if new.is_primary())
                {
                    promote = Some((s, r));
                } else {
                    o.rpc_acked(s, r);
                }
            }
        }
        let (b, promote) = promote.expect("promotion queued");
        // The candidate's lease expires while its ack is in flight...
        o.server_down(b);
        settle(&mut o);
        // ...and the stale ack arrives: the assignment (which dropped
        // b's replica) refuses the transition. Before the fix this was
        // silently ignored and a contradictory map published.
        let published = o.stats().maps_published;
        o.rpc_acked(b, promote);
        assert_eq!(o.stats().failed_transitions, 1);
        assert_eq!(o.stats().maps_published, published, "no contradictory map");
        let errs = o.drain_errors();
        assert_eq!(errs.len(), 1, "anomaly surfaced: {errs:?}");
        assert!(o.drain_errors().is_empty(), "drained");
        settle(&mut o);
        assert!(o.assignment().primary_of(shard).is_some(), "re-elected");
    }

    #[test]
    fn a_shard_registered_twice_plans_the_moves_of_registering_it_once() {
        let run = |twice: bool| {
            let mut o = orch(AppPolicy::primary_secondary(1), 4, 3);
            if twice {
                o.register_shards([ShardId(1)]);
            }
            o.check_build_input();
            (o.run_emergency(), o.take_commands())
        };
        let once = run(false);
        assert_eq!(once.0, 6, "two replicas of each of three shards");
        assert_eq!(run(true), once);
    }

    /// A host still holding a shard that is neither registered nor a
    /// target in flight — a retired split parent, an aborted child —
    /// reports its load until its reclaim is acked; that load is not
    /// kept, nor one of a shard never heard of.
    #[test]
    fn a_load_is_kept_only_for_a_registered_shard_or_a_target_in_flight() {
        let mut o = reshard_orch(3);
        let parent = ShardId(0);
        let host = o.state.assignment.primary_of(parent).expect("bootstrapped");
        let kept = |o: &Orchestrator, shard: u64| o.state.loads.get(&ShardId(shard)).copied();
        // Splitting shard 0 mints 2 and 3; a nack of the first prepare
        // aborts the split, and its children are reclaimed.
        o.start_split(parent).expect("a split starts");
        o.report_load(host, vec![(ShardId(2), cap(3.0)), (ShardId(7), cap(1.0))]);
        o.check_books();
        assert_eq!((kept(&o, 2), kept(&o, 7)), (Some(cap(3.0)), None));
        let (to, prepare) = rpcs(&mut o)[0];
        o.rpc_failed(to, prepare);
        o.report_load(to, vec![(ShardId(2), cap(2.0))]);
        o.check_books();
        assert_eq!(kept(&o, 2), None, "an aborted child");
        settle(&mut o);
        // The next split (of 4 and 5) commits while the parent's
        // reclaims are held back.
        o.start_split(parent).expect("a split starts again");
        let mut held = Vec::new();
        while let commands @ [_, ..] = &rpcs(&mut o)[..] {
            for &(server, rpc) in commands {
                match rpc {
                    ServerRpc::DropShard { shard } if shard == parent => held.push(server),
                    _ => o.rpc_acked(server, rpc),
                }
            }
        }
        assert_eq!((o.stats().splits_completed, held.len()), (1, 1));
        o.report_load(host, vec![(parent, cap(5.0)), (ShardId(4), cap(4.0))]);
        o.check_books();
        assert_eq!((kept(&o, 0), kept(&o, 4)), (None, Some(cap(4.0))));
    }

    /// A standby that marked a server down restores a snapshot placing
    /// replicas there, and then sees the server registered again or back
    /// up: every shard it hosts is booked again.
    #[test]
    fn a_server_back_alive_books_what_it_hosts() {
        let mut o = orch(AppPolicy::primary_secondary(1), 4, 8);
        o.run_emergency();
        settle(&mut o);
        for registered in [true, false] {
            let mut standby = orch(AppPolicy::primary_secondary(1), 4, 0);
            standby.server_down(ServerId(0));
            standby.restore(&o.snapshot()).expect("restore");
            standby.check_books();
            assert!(!standby.books.fully_placed(), "server 0 hosted a shard");
            if registered {
                standby.register_server(ServerId(0), loc(0, 0), cap(1000.0));
            } else {
                standby.server_up(ServerId(0));
            }
            standby.check_books();
            assert!(standby.books.fully_placed(), "registered: {registered}");
        }
    }

    #[test]
    fn restore_never_remints_a_restored_shard_id() {
        // 8 shards; splitting shard 3 mints 8 and 9.
        let mut o = orch(AppPolicy::primary_only(), 4, 8);
        o.register_spec(ShardingSpec::uniform_u64(8));
        o.run_emergency();
        settle(&mut o);
        o.start_split(ShardId(3)).unwrap();
        settle(&mut o);
        assert!(o.assignment().primary_of(ShardId(9)).is_some());
        let snapshot = o.snapshot();

        // The standby registers the spec it was deployed with, which
        // ends at id 7 (persisting the spec is a separate matter).
        let mut standby = orch(AppPolicy::primary_only(), 4, 0);
        standby.register_spec(ShardingSpec::uniform_u64(8));
        standby.restore(&snapshot).expect("restore");
        standby.start_split(ShardId(0)).unwrap();
        for (_, rpc) in rpcs(&mut standby) {
            let child = rpc.shard();
            assert!(child.raw() >= 10, "{child} is a live shard's id");
        }
    }

    #[test]
    fn restore_forgets_everything_in_flight() {
        let mut o = reshard_orch(4);
        o.start_split(ShardId(0)).unwrap();
        assert_eq!(o.in_flight_reshards(), 1);
        // Hold shard 1 behind a pending reclaim: nack the first RPC of a
        // move of it, so its target may hold an unacked copy.
        let host = o.assignment().primary_of(ShardId(1)).unwrap();
        o.drain_server(host);
        let (target, prepare) = rpcs(&mut o)
            .into_iter()
            .find(|(_, r)| r.shard() == ShardId(1))
            .expect("shard 1 starts moving");
        o.rpc_failed(target, prepare);
        o.drain_finished(host);
        let snapshot = o.snapshot();
        o.take_commands(); // a failover: nothing in the outbox is ever answered

        o.restore(&snapshot).expect("restore");
        assert_eq!(o.in_flight_reshards(), 0);
        assert_eq!(o.in_flight_migrations(), 0);
        // Shard 1 is placeable again: no reclaim survives to hold it.
        assert_eq!(o.drain_server(host), o.shards_on(host).len());
        settle(&mut o);
        assert!(o.is_drained(host));
        assert!(o.assignment().primary_of(ShardId(1)).is_some());
    }
}
