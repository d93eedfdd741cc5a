//! Reconfiguration chaos: a seeded discrete-event world that keeps the
//! control plane continuously migrating [`ReplStoreServer`] replicas —
//! the 5-step protocol driving joint-consensus membership changes in
//! every shard's [`ReplicationGroup`] — while a fault plan
//! ([`FaultProfile::ReconfigChaos`]) crashes nodes, expires sessions,
//! and partitions islands specifically during in-flight
//! reconfigurations.
//!
//! The [`Reconfig`] scenario wires a bare [`Orchestrator`] (no
//! ZooKeeper: the HA layer is exercised by [`crate::chaos`]; this world
//! isolates the replication safety argument) to a fleet of
//! replicated-store servers sharing per-shard [`ReplicationGroup`]s.
//! Control-plane RPCs travel through the kit's net with correlation ids
//! and give-up timers ([`crate::kit`]), so a
//! partitioned or crashed server produces genuine nacks and timeouts —
//! which abort migrations mid-flight, exactly the interruptions the
//! joint-consensus protocol must survive. Network partitions are
//! mirrored into every group's link gates, so replication and elections
//! see the same islands the RPC plane does.
//!
//! Safety is judged by the [`Oracle`]:
//!
//! - **ReplicaSetAgreement** — every shard's committed configuration
//!   chain is audited on every scan: adjacent configurations must share
//!   a pair of voter sets whose quorums always intersect (the joint
//!   bridge), and at quiescence every replica must hold the same view
//!   of the committed configuration.
//! - **Acked-then-lost** — a client write is acked only once its log
//!   position commits under the group's quorum rule; at quiescence
//!   every acked `(shard, index)` must still hold its exact payload at
//!   the authoritative replica, checked through the oracle's
//!   write-tag machinery (a lost write surfaces as a stale read).
//!
//! The documented mutation switch ([`ReconfigConfig::single_step`])
//! replaces joint changes with unsound single-step membership swaps;
//! `tests/reconfig.rs` proves the oracle catches the corruption. The
//! whole run is a pure function of `(config, plan)`: same seed and
//! plan, identical verdict and stats.

use crate::kit::{
    self, Change, Fleet, FleetState, Outcome, Params, Plan, Report, Resolution, Scenario, Wire,
};
use crate::replication::ReplicationGroup;
use crate::replstore::{shared_groups, ReplStoreServer, SharedGroups};
use sm_allocator::MoveCaps;
use sm_core::exchange::Host;
use sm_core::{OrchCommand, Orchestrator, ServerRpc};
use sm_sim::faults::{fault_plan, Fault, FaultProfile};
use sm_sim::net::Endpoint;
use sm_sim::oracle::Oracle;
use sm_sim::{SimDuration, SimTime};
use sm_types::{AppId, AppPolicy, LoadVector, Metric, ServerId, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// Application servers (ids `0..SERVERS`).
const SERVERS: u32 = 6;
/// Replicated shards (ids `0..SHARDS`), each a 3-replica group.
const SHARDS: u64 = 8;
/// Concurrent write generators.
const CLIENTS: u32 = 2;
/// Gap between one client's writes.
const WRITE_INTERVAL: SimDuration = SimDuration::from_millis(150);
/// Background replication cadence (stand-in for the leader's
/// heartbeat-driven append stream).
const REPLICATE_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Churn cadence: every tick alternately drains a random server
/// (starting graceful 5-step migrations) or welcomes the previous one
/// back, so reconfigurations are in flight essentially all the time.
const CHURN_INTERVAL: SimDuration = SimDuration::from_secs(6);
/// An unacked write still uncommitted after this long is written off as
/// (legally) lost.
const WRITE_DEADLINE: SimDuration = SimDuration::from_secs(20);
/// Clients and churn stop here; in-flight work drains.
const TRAFFIC_END: SimTime = SimTime::from_secs(110);
/// Periodic scans stop here; past the last recovery.
const END: SimTime = SimTime::from_secs(130);

/// Shape of one reconfiguration-chaos run. The fault schedule derives
/// from `(seed, profile)`, so the run reproduces from this config
/// alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigConfig {
    /// Seed for traffic, churn, fault schedule, and network draws.
    pub seed: u64,
    /// Fault-plan profile.
    pub profile: FaultProfile,
    /// DST mutation switch: replace joint membership changes with
    /// unsound single-step swaps. Never set outside `tests/reconfig.rs`
    /// and the swarm's `--mutate` — it exists to prove
    /// `ReplicaSetAgreement` has teeth.
    pub single_step: bool,
}

impl ReconfigConfig {
    /// The compact shape the swarm and the tier-1 gate run: a small
    /// fleet, dense churn, and a one-minute fault window.
    pub fn dst(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seed,
            profile,
            single_step: false,
        }
    }
}

/// Event alphabet of the reconfiguration scenario (the kit carries
/// RPCs, fault hits, timeouts, and the failure detector).
#[derive(Debug)]
pub enum ReconfigEvent {
    /// Client `i` issues its next write.
    WriteTick(u32),
    /// Background replication round across all groups.
    ReplicateTick,
    /// Drain a random server or welcome the previous one back.
    ChurnTick,
    /// Retry pacemaker: re-issue nacked or timed-out migration steps
    /// and plan replacements on a fixed 500ms backoff. (The invariant
    /// audit itself is an engine-scheduled sweep, not an event.)
    RetryTick,
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Writes that reached a live primary and appended.
    pub writes_attempted: u64,
    /// Writes whose log position committed — the acked set the oracle
    /// defends.
    pub writes_acked: u64,
    /// Writes rejected at the primary (role raced a migration).
    pub writes_rejected: u64,
    /// Unacked writes written off (never committed, or replaced before
    /// commit) — legal losses, never acked to a client.
    pub writes_lost_unacked: u64,
    /// Committed configuration entries across all groups — each joint
    /// or stable config entry that reached commit.
    pub reconfigs_completed: u64,
    /// Migration-step RPCs (add/drop/change-role/handover) nacked or
    /// timed out while a fault was active — reconfigurations genuinely
    /// interrupted by the plan.
    pub reconfigs_interrupted: u64,
    /// Of those, interruptions that landed while the shard's group had
    /// a joint configuration literally in flight.
    pub joint_interruptions: u64,
    /// Drain migrations started by the churn driver.
    pub drains_started: u64,
    /// Control-plane RPCs that timed out unanswered.
    pub rpc_timeouts: u64,
    /// Control-plane RPCs the server answered with a failure.
    pub rpc_nacks: u64,
    /// Server container crashes injected.
    pub server_crashes: u64,
    /// Session expiries injected.
    pub session_expiries: u64,
    /// Network partitions injected.
    pub net_partitions: u64,
}

/// Outcome of one reconfiguration-chaos run.
pub type ReconfigReport = Report<ReconfigStats>;

/// A write appended at a primary, awaiting its commit before the
/// client may be acked.
#[derive(Clone, Copy, Debug)]
struct PendingWrite {
    shard: ShardId,
    idx: usize,
    tag: u64,
    issued: SimTime,
}

/// What the authoritative replica says about a pending write's slot.
enum Probe {
    /// The slot has not committed yet.
    NotYet,
    /// The slot committed holding this tag.
    Tag(u64),
    /// The slot committed holding something that is not a data tag
    /// (the entry was replaced by a config entry before commit).
    Gone,
}

/// One voter-set configuration with ids flattened for the oracle.
type FlatConfig = Vec<BTreeSet<u64>>;

fn flat(config: Vec<BTreeSet<ServerId>>) -> FlatConfig {
    let ids = |set: BTreeSet<ServerId>| set.into_iter().map(|id| u64::from(id.raw())).collect();
    config.into_iter().map(ids).collect()
}

/// What the scenario's handlers work through.
type Cx<'a, 'c> = kit::Cx<'a, 'c, ReconfigEvent>;

/// The reconfiguration-chaos scenario. Process liveness lives in the
/// kit's `FleetState`; a server's logs — durable storage — live in
/// the shared groups and survive a crash.
pub struct Reconfig {
    cfg: ReconfigConfig,
    cp: Orchestrator,
    groups: SharedGroups,
    hosts: BTreeMap<ServerId, ReplStoreServer>,
    fleet: FleetState,
    /// Monotone write counter: the payload of every write and the tag
    /// the oracle checks the acked set against.
    write_tag: u64,
    pending: Vec<PendingWrite>,
    /// Every acked write, for the quiescent acked-then-lost audit.
    acked: Vec<PendingWrite>,
    acked_keys: BTreeSet<u64>,
    /// Per-shard committed-config-chain length at the last scan.
    chain_lens: BTreeMap<ShardId, usize>,
    /// Server currently being drained by the churn driver.
    draining: Option<ServerId>,
    /// Sum of every group's commit watermark at the last replication
    /// round — cheap change detection for the oracle sweep.
    committed_sum: u64,
    /// The world's own counters (the fleet's are merged in at the end).
    stats: ReconfigStats,
}

impl Reconfig {
    /// True when every shard has a primary and no migration is stuck.
    fn converged(&self) -> bool {
        self.cp.in_flight_migrations() == 0 && self.unplaced_count() == 0
    }

    /// Shards currently missing a primary (diagnostics).
    fn unplaced_count(&self) -> usize {
        (0..SHARDS)
            .filter(|&s| self.cp.assignment().primary_of(ShardId(s)).is_none())
            .count()
    }

    /// The oracle key for one write's log slot.
    fn write_key(shard: ShardId, idx: usize) -> u64 {
        shard.raw() * 1_000_000 + idx as u64
    }

    /// The replica whose log is authoritative for `group` right now:
    /// the leader if it has a log, else the most-committed replica.
    fn authoritative(&self, group: &ReplicationGroup<ServerId>) -> Option<ServerId> {
        if let Some(l) = group.leader() {
            if group.log(l).is_some() {
                return Some(l);
            }
        }
        (0..SERVERS)
            .map(ServerId)
            .filter(|&s| group.log(s).is_some())
            .max_by_key(|&s| {
                group
                    .log(s)
                    .map(|l| (l.committed(), l.len()))
                    .unwrap_or((0, 0))
            })
    }

    fn probe_write(&self, shard: ShardId, idx: usize) -> Probe {
        let groups = self.groups.borrow();
        let Some(group) = groups.get(&shard) else {
            return Probe::Gone;
        };
        let Some(auth) = self.authoritative(group) else {
            return Probe::NotYet;
        };
        let committed = group.log(auth).map(|l| l.committed()).unwrap_or(0);
        if committed <= idx {
            return Probe::NotYet;
        }
        match group
            .data_at(auth, idx)
            .and_then(|d| <[u8; 8]>::try_from(d).ok())
        {
            Some(bytes) => Probe::Tag(u64::from_be_bytes(bytes)),
            None => Probe::Gone,
        }
    }

    /// Acks every pending write whose slot committed with its payload
    /// intact; writes off slots that were replaced or stalled past the
    /// deadline (legal: those clients were never acked).
    fn check_pending(&mut self, now: SimTime, oracle: &mut Oracle) {
        let pending = std::mem::take(&mut self.pending);
        for w in pending {
            match self.probe_write(w.shard, w.idx) {
                Probe::Tag(tag) if tag == w.tag => {
                    let key = Self::write_key(w.shard, w.idx);
                    if self.acked_keys.insert(key) {
                        oracle.write_acked(key, w.tag);
                        self.acked.push(w);
                        self.stats.writes_acked += 1;
                    }
                }
                Probe::Tag(_) | Probe::Gone => self.stats.writes_lost_unacked += 1,
                Probe::NotYet if now.since(w.issued) > WRITE_DEADLINE => {
                    self.stats.writes_lost_unacked += 1
                }
                Probe::NotYet => self.pending.push(w),
            }
        }
    }

    fn write_tick(&mut self, client: u32, cx: &mut Cx<'_, '_>) {
        if cx.now() < TRAFFIC_END {
            cx.schedule_in(WRITE_INTERVAL, ReconfigEvent::WriteTick(client));
        }
        let shard = ShardId(cx.rng().range_u64(0, SHARDS));
        let Some(primary) = self.cp.assignment().primary_of(shard) else {
            return;
        };
        let Some(host) = self.hosts.get_mut(&primary) else {
            return;
        };
        if !self.fleet.is_up(primary) {
            return;
        }
        self.write_tag += 1;
        let tag = self.write_tag;
        match host.write(shard, tag.to_be_bytes().to_vec()) {
            Ok(idx) => {
                self.stats.writes_attempted += 1;
                self.pending.push(PendingWrite {
                    shard,
                    idx,
                    tag,
                    issued: cx.now(),
                });
            }
            Err(_) => self.stats.writes_rejected += 1,
        }
        self.check_pending(cx.now(), &mut cx.oracle);
    }

    fn replicate_tick(&mut self, cx: &mut Cx<'_, '_>) {
        if cx.now() < END {
            cx.schedule_in(REPLICATE_INTERVAL, ReconfigEvent::ReplicateTick);
        }
        let mut committed_sum = 0u64;
        for g in self.groups.borrow_mut().values_mut() {
            g.pump();
            committed_sum += g.committed() as u64;
        }
        // Most replication rounds move nothing; only a commit-watermark
        // advance (a config or data entry just committed somewhere) is
        // worth an oracle sweep.
        if committed_sum != self.committed_sum {
            self.committed_sum = committed_sum;
            cx.state_changed();
        }
        self.check_pending(cx.now(), &mut cx.oracle);
    }

    /// The churn driver: alternately drain a random live server (every
    /// replica it hosts starts a graceful 5-step migration) and welcome
    /// the previous one back, so membership changes stay in flight for
    /// the whole run.
    fn churn_tick(&mut self, cx: &mut Cx<'_, '_>) {
        if cx.now() < TRAFFIC_END {
            cx.schedule_in(CHURN_INTERVAL, ReconfigEvent::ChurnTick);
        }
        match self.draining.take() {
            Some(s) => {
                self.cp.server_up(s);
                self.cp.run_periodic();
            }
            None => {
                let candidates: Vec<ServerId> = (0..SERVERS)
                    .map(ServerId)
                    .filter(|&s| self.fleet.is_up(s) && !self.fleet.is_partitioned(s))
                    .collect();
                if !candidates.is_empty() {
                    let pick = candidates[cx.rng().index(candidates.len())];
                    let started = self.cp.drain_server(pick);
                    self.stats.drains_started += started as u64;
                    self.draining = Some(pick);
                }
            }
        }
        cx.flush(self.cp.take_commands());
        cx.state_changed();
    }

    /// The retry pacemaker. Nacked and timed-out migration steps are
    /// deliberately *not* re-flushed inline (see
    /// [`kit::fleet_resolved`]): they leave here, on a fixed 500ms
    /// backoff, alongside replacement planning for failed-over shards.
    fn retry_tick(&mut self, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        if now < END {
            cx.schedule_in(SimDuration::from_millis(500), ReconfigEvent::RetryTick);
        }
        self.check_pending(now, &mut cx.oracle);
        self.cp.run_emergency();
        cx.flush(self.cp.take_commands());
    }

    /// Audits one shard's committed configuration chain and counts its
    /// newly committed entries.
    fn audit_chain(
        &mut self,
        at: SimTime,
        shard: ShardId,
        chain: &[FlatConfig],
        oracle: &mut Oracle,
    ) {
        let prev = self.chain_lens.insert(shard, chain.len()).unwrap_or(1);
        self.stats.reconfigs_completed += chain.len().saturating_sub(prev) as u64;
        oracle.replica_config_chain(at, shard.raw(), chain);
    }

    /// The mutation switch, (re)applied to every group.
    fn corrupt_groups(&self) {
        if self.cfg.single_step {
            for g in self.groups.borrow_mut().values_mut() {
                g.set_single_step(true);
            }
        }
    }
}

impl Fleet for Reconfig {
    fn fleet(&mut self) -> (&mut FleetState, &mut Orchestrator) {
        (&mut self.fleet, &mut self.cp)
    }

    fn on(&mut self, change: Change) {
        let mut groups = self.groups.borrow_mut();
        match change {
            // A crashed server stops voting and receiving replication
            // in every group, and loses any leadership.
            Change::Crashed(s) => {
                for g in groups.values_mut() {
                    g.set_down(s, true);
                    if g.leader() == Some(s) {
                        g.step_down(s);
                    }
                }
            }
            Change::Restarted(s) => groups.values_mut().for_each(|g| g.set_down(s, false)),
            // Mirror the partition into every group's link gates so
            // replication and elections see the same islands the RPC
            // plane does.
            Change::Partitioned(spec) => {
                let ids = || (0..SERVERS).map(|i| (ServerId(i), Endpoint::Server(i)));
                for (a, ep_a) in ids() {
                    for (b, ep_b) in ids().filter(|&(b, _)| b != a) {
                        if spec.blocks(ep_a, ep_b) {
                            groups.values_mut().for_each(|g| g.block_link(a, b));
                        }
                    }
                }
            }
            Change::Healed => groups.values_mut().for_each(|g| g.clear_blocked_links()),
            Change::DeclaredDown(s) => {
                if self.draining == Some(s) {
                    self.draining = None;
                }
            }
            Change::Interrupted(rpc) => match rpc {
                ServerRpc::AddShard { .. }
                | ServerRpc::DropShard { .. }
                | ServerRpc::ChangeRole { .. }
                | ServerRpc::PrepareDropShard { .. } => {
                    self.stats.reconfigs_interrupted += 1;
                    if groups
                        .get(&rpc.shard())
                        .is_some_and(|g| g.reconfig_in_flight())
                    {
                        self.stats.joint_interruptions += 1;
                    }
                }
                // The reconfig world's orchestrator never splits or merges.
                ServerRpc::PrepareAddShard { .. }
                | ServerRpc::SplitForward { .. }
                | ServerRpc::MergeForward { .. } => {}
            },
            Change::Islanded(_) | Change::Rejoined(_) => {}
        }
    }
}

impl Scenario for Reconfig {
    const WORLD: &'static str = "reconfig";
    const MUTATION: &'static str = "single_step";
    const DRAINS: bool = false;
    type Config = ReconfigConfig;
    type Event = ReconfigEvent;
    type Host = ReplStoreServer;
    type Stats = ReconfigStats;
    type Extra = ();

    fn params(cfg: &ReconfigConfig) -> Params {
        Params {
            seed: cfg.seed,
            servers: SERVERS,
            end: END,
        }
    }

    fn cell(seed: u64, profile: FaultProfile, mutate: bool) -> ReconfigConfig {
        ReconfigConfig {
            single_step: mutate,
            ..ReconfigConfig::dst(seed, profile)
        }
    }

    fn key(cfg: &ReconfigConfig) -> (&'static str, bool) {
        (cfg.profile.name(), cfg.single_step)
    }

    /// Registers the fleet, places every shard, and settles the initial
    /// migration storm synchronously (the experiment starts from a
    /// fully replicated steady state).
    fn build(cfg: ReconfigConfig) -> Self {
        let caps = MoveCaps {
            max_total: 1000,
            max_per_server: 1000,
            max_per_shard: 1,
        };
        let orch = kit::orch_config(Metric::ShardCount.id(), caps);
        let mut cp = Orchestrator::new(AppId(0), AppPolicy::primary_secondary(2), orch);
        let groups = shared_groups();
        let mut hosts = BTreeMap::new();
        for id in (0..SERVERS).map(ServerId) {
            let capacity = LoadVector::single(Metric::ShardCount.id(), 1000.0);
            cp.register_server(id, kit::loc(id.raw()), capacity);
            hosts.insert(id, ReplStoreServer::new(id, groups.clone()));
        }
        cp.register_shards((0..SHARDS).map(ShardId));
        cp.run_emergency();
        let apply = |_: &Orchestrator, server: ServerId, rpc: ServerRpc| {
            let host = hosts.get_mut(&server);
            host.is_some_and(|h| rpc.dispatch(h).is_ok())
        };
        kit::settle(&mut cp, apply, |_, _| true);
        let world = Self {
            cfg,
            cp,
            groups,
            hosts,
            fleet: FleetState::default(),
            write_tag: 0,
            pending: Vec::new(),
            acked: Vec::new(),
            acked_keys: BTreeSet::new(),
            chain_lens: BTreeMap::new(),
            draining: None,
            committed_sum: 0,
            stats: ReconfigStats::default(),
        };
        world.corrupt_groups();
        world
    }

    /// No mini-SMs in this world: the plan covers servers and the
    /// network only.
    fn default_plan(&self) -> Plan {
        let cfg = &self.cfg;
        fault_plan(&cfg.profile.config(cfg.seed, SERVERS, 0))
    }

    fn script(&self) -> Vec<(SimTime, ReconfigEvent)> {
        let writers = (0..CLIENTS).map(|c| {
            let at = SimTime::from_millis(5_000 + 37 * u64::from(c));
            (at, ReconfigEvent::WriteTick(c))
        });
        writers
            .chain([
                (SimTime::from_secs(1), ReconfigEvent::ReplicateTick),
                (SimTime::from_secs(1), ReconfigEvent::RetryTick),
                (SimTime::from_secs(10), ReconfigEvent::ChurnTick),
            ])
            .collect()
    }

    fn handle(&mut self, cx: &mut Cx<'_, '_>, event: ReconfigEvent) {
        match event {
            ReconfigEvent::WriteTick(c) => self.write_tick(c, cx),
            ReconfigEvent::ReplicateTick => self.replicate_tick(cx),
            ReconfigEvent::ChurnTick => self.churn_tick(cx),
            ReconfigEvent::RetryTick => self.retry_tick(cx),
        }
    }

    fn take_commands(&mut self) -> impl Iterator<Item = OrchCommand> {
        self.cp.take_commands().into_iter()
    }

    /// A dead process never answers — the control plane's give-up
    /// timer reaps the RPC. A live one runs the real migration step,
    /// which fails honestly (bounded replication pump) when the group
    /// cannot commit the membership change.
    fn host(&mut self, server: ServerId, _rpc: &ServerRpc) -> Host<'_, ReplStoreServer> {
        match self.hosts.get_mut(&server) {
            Some(h) if self.fleet.is_up(server) => Host::Serving(h),
            _ => Host::Down,
        }
    }

    fn resolved(&mut self, cx: &mut Cx<'_, '_>, server: ServerId, rpc: ServerRpc, how: Resolution) {
        kit::fleet_resolved(self, cx, server, rpc, how);
    }

    fn fault(&mut self, cx: &mut Cx<'_, '_>, fault: Fault) {
        kit::fleet_fault(self, cx, fault);
    }

    fn detect_down(&mut self, cx: &mut Cx<'_, '_>, i: u32) {
        kit::fleet_detect_down(self, cx, i);
    }

    /// Audit every shard's committed configuration chain, count newly
    /// committed configuration entries, and record trace points.
    fn scan(&mut self, cx: &mut Cx<'_, '_>) {
        let now = cx.now();
        // The mutation switch must also corrupt groups (re)created
        // after bootstrap.
        self.corrupt_groups();
        let chains: Vec<(ShardId, Vec<FlatConfig>)> = self
            .groups
            .borrow()
            .iter()
            .map(|(shard, g)| (*shard, chain_of(g)))
            .collect();
        for (shard, chain) in chains {
            self.audit_chain(now, shard, &chain, &mut cx.oracle);
        }
        for (series, value) in [
            ("pending_writes", self.pending.len() as u64),
            ("acked_total", self.stats.writes_acked),
            ("reconfigs_completed", self.stats.reconfigs_completed),
            ("rpc_nacks", self.fleet.rpc_nacks),
            (
                "in_flight_migrations",
                self.cp.in_flight_migrations() as u64,
            ),
        ] {
            cx.trace.record(series, now, value as f64);
        }
    }

    /// Quiescence: heal everything, settle the control plane against a
    /// healthy fleet, replicate to convergence, then run the final
    /// audits — config-chain safety, per-replica view agreement, and
    /// the acked-then-lost sweep over every acked write.
    fn finish(mut self, wire: &mut Wire) -> Outcome<ReconfigStats, ()> {
        let at = END;
        // Defensive heal (the plan pairs every fault with a recovery,
        // but a shrunk plan may have dropped one).
        wire.net.heal_partition();
        wire.net.heal_degradation();
        let ids: Vec<ServerId> = self.hosts.keys().copied().collect();
        let (_, islanded) = self.fleet.revive_all();
        for g in self.groups.borrow_mut().values_mut() {
            g.clear_blocked_links();
            for s in &ids {
                g.set_down(*s, false);
            }
        }
        for s in islanded.into_iter().chain(self.draining.take()).chain(ids) {
            self.cp.server_up(s);
        }
        // Settle the control plane synchronously: every command runs
        // against the healthy fleet until the orchestrator goes quiet.
        let hosts = &mut self.hosts;
        let apply = |_: &Orchestrator, server: ServerId, rpc: ServerRpc| {
            let host = hosts.get_mut(&server);
            host.is_some_and(|h| rpc.dispatch(h).is_ok())
        };
        kit::settle(&mut self.cp, apply, |cp, round| {
            cp.run_emergency() == 0 && (round > 0 || cp.run_periodic() == 0)
        });
        // Replicate to convergence.
        for _ in 0..8 {
            for g in self.groups.borrow_mut().values_mut() {
                g.pump();
            }
        }
        self.check_pending(at, &mut wire.oracle);
        // Final audits.
        let shards: Vec<ShardId> = self.groups.borrow().keys().copied().collect();
        for shard in shards {
            let (chain, views) = {
                let groups = self.groups.borrow();
                let g = &groups[&shard];
                let views: Vec<FlatConfig> = (0..SERVERS)
                    .filter_map(|s| g.committed_config_view(ServerId(s)))
                    .map(flat)
                    .collect();
                (chain_of(g), views)
            };
            self.audit_chain(at, shard, &chain, &mut wire.oracle);
            wire.oracle.replica_views_converged(at, shard.raw(), &views);
        }
        // Acked-then-lost: every acked write must still hold its exact
        // payload at the authoritative replica.
        for w in &self.acked {
            let observed = match self.probe_write(w.shard, w.idx) {
                Probe::Tag(tag) => Some(tag),
                Probe::NotYet | Probe::Gone => None,
            };
            let key = Self::write_key(w.shard, w.idx);
            wire.oracle.read_served(at, key, observed);
        }
        Outcome {
            converged: self.converged(),
            unplaced: self.unplaced_count(),
            stats: ReconfigStats {
                rpc_timeouts: self.fleet.rpc_timeouts,
                rpc_nacks: self.fleet.rpc_nacks,
                server_crashes: self.fleet.server_crashes,
                session_expiries: self.fleet.session_expiries,
                net_partitions: self.fleet.net_partitions,
                ..self.stats
            },
            extra: (),
        }
    }
}

/// One shard's committed configuration chain, flattened for the oracle.
fn chain_of(group: &ReplicationGroup<ServerId>) -> Vec<FlatConfig> {
    let chain = group.committed_config_chain();
    chain.into_iter().map(flat).collect()
}

/// Runs one seeded reconfiguration-chaos experiment to completion.
pub fn run_reconfig(cfg: ReconfigConfig) -> ReconfigReport {
    kit::run::<Reconfig>(cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_bootstraps_with_replicated_groups() {
        let w = Reconfig::build(ReconfigConfig::dst(1, FaultProfile::ReconfigChaos));
        assert_eq!(w.unplaced_count(), 0, "every shard gets a primary");
        assert!(w.converged());
        let groups = w.groups.borrow();
        assert_eq!(groups.len(), SHARDS as usize);
        for (shard, g) in groups.iter() {
            assert_eq!(g.voters().len(), 3, "{shard} is 3-way replicated");
            assert_eq!(
                g.leader(),
                w.cp.assignment().primary_of(*shard),
                "log leader matches the SM primary for {shard}"
            );
        }
        assert!(
            !w.default_plan().is_empty(),
            "profile derives a fault schedule"
        );
    }

    #[test]
    fn quiet_run_completes_reconfigs_and_stays_clean() {
        // No faults at all: churn alone must drive real joint
        // reconfigurations through the 5-step protocol, commit them,
        // and lose nothing.
        let cfg = ReconfigConfig::dst(7, FaultProfile::ReconfigChaos);
        let r = kit::run::<Reconfig>(cfg, Some(Vec::new()));
        assert_eq!(r.total_violations, 0, "oracle: {:?}", r.violations);
        assert!(r.converged, "{} unplaced", r.unplaced);
        assert!(
            r.stats.reconfigs_completed >= 10,
            "churn must commit membership changes: {:?}",
            r.stats
        );
        assert!(r.stats.writes_acked > 100, "{:?}", r.stats);
        assert_eq!(r.stats.writes_lost_unacked, 0, "{:?}", r.stats);
    }
}
