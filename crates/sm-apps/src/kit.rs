//! The world kit: one copy of everything the seeded chaos worlds share.
//!
//! A chaos world is a [`Scenario`] — its traffic script, event
//! alphabet, host model, and stats — run on top of the kit, which owns
//! the plumbing every world used to carry privately:
//!
//! - the [`Wire`]: the [`SimNet`], the idempotent control-plane RPC
//!   exchange ([`RpcExchange`] — correlation ids, exactly-once
//!   resolution, host-side dedup, fenced-host refusal), the [`Oracle`],
//!   the trace, and the fault plan;
//! - the event loop ([`Event`]): RPC delivery / result / give-up, fault
//!   hits (network faults applied here, the rest handed to the
//!   scenario), the failure detector's `DetectDown`, and the oracle
//!   sweep gate;
//! - for worlds over a bare [`Orchestrator`], the crate-private `Fleet` half:
//!   process liveness, the 3 s failure detector, partition bookkeeping,
//!   and how RPC outcomes reach the orchestrator;
//! - the run driver [`run`], the ddmin wrapper [`shrink`], the swarm
//!   grid runner [`run_grid`], the reproducer codec
//!   ([`repro_to_json`] / [`repro_from_json`]), and the [`Report`].
//!
//! Everything is statically dispatched: a world's event type is
//! [`Event<A>`] over its own alphabet `A`, and the simulated world is
//! `Kit<S>`, monomorphized per scenario.

use crate::dst::{fault_from_json, fault_to_json, shrink_plan, Json, Parser};
use sm_allocator::{AllocConfig, MoveCaps};
use sm_core::exchange::{Host, RpcCall, RpcExchange};
use sm_core::{OrchCommand, Orchestrator, OrchestratorConfig, ServerRpc, ShardServer};
use sm_sim::faults::{Fault, FaultProfile};
use sm_sim::net::{Endpoint, NetStats, PartitionSpec, SimNet};
use sm_sim::oracle::{InvariantKind, Oracle, OracleViolation};
use sm_sim::{Ctx, LatencyModel, SimDuration, SimRng, SimTime, Simulation, TraceLog, World};
use sm_types::{Location, MachineId, Metric, MetricId, RegionId, ServerId};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A time-sorted fault schedule.
pub type Plan = Vec<(SimTime, Fault)>;

/// What a scenario's handlers work through: the shared plumbing (it
/// dereferences to the [`Wire`]) plus the engine's clock, randomness,
/// and scheduler for the scenario's own alphabet `A`.
pub struct Cx<'a, 'c, A> {
    wire: &'a mut Wire,
    ctx: &'a mut Ctx<'c, Event<A>>,
}

impl<A> Cx<'_, '_, A> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The run's random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }

    /// Schedules a scenario event to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: A) {
        self.ctx.schedule_in(delay, Event::App(event));
    }

    /// Marks that this event changed oracle-relevant state: the sweep
    /// runs at this same timestamp, right after the handler returns.
    pub fn state_changed(&mut self) {
        self.ctx.state_changed();
    }

    /// Puts one message from `src` to `dst` on the wire: `event()` is
    /// scheduled once per copy the net delivers. False when no copy
    /// left.
    pub(crate) fn send(&mut self, src: Endpoint, dst: Endpoint, event: impl Fn() -> A) -> bool {
        let copies = self.wire.net.transmit(src, dst).copies;
        for &d in copies.iter() {
            self.ctx.schedule_in(d, Event::App(event()));
        }
        !copies.is_empty()
    }

    /// Sends freshly minted orchestrator commands out as RPCs through
    /// the net, each with a correlation id and a give-up timer.
    pub fn flush(&mut self, commands: impl IntoIterator<Item = OrchCommand>) {
        for cmd in commands {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                let wire = &mut *self.wire;
                let t = wire
                    .net
                    .transmit(Endpoint::ControlPlane, Endpoint::Server(server.raw()));
                let call = wire.exchange.send(server, rpc, t.copies.len());
                for d in t.copies {
                    self.ctx.schedule_in(d, Event::RpcSend(call));
                }
                let timeout = Event::RpcTimeout { id: call.id };
                self.ctx.schedule_in(RPC_TIMEOUT, timeout);
            }
        }
    }
}

impl<A> std::ops::Deref for Cx<'_, '_, A> {
    type Target = Wire;
    fn deref(&self) -> &Wire {
        self.wire
    }
}

impl<A> std::ops::DerefMut for Cx<'_, '_, A> {
    fn deref_mut(&mut self) -> &mut Wire {
        self.wire
    }
}

/// Base one-way network latency of every world (jitter on top).
const RPC_LATENCY: SimDuration = SimDuration::from_millis(10);
/// The control plane gives up on an unanswered RPC after this.
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// How long the failure detector takes to declare a dead or islanded
/// server down; until then RPCs to it time out and operations stall.
const DETECTION_DELAY: SimDuration = SimDuration::from_secs(3);

/// The single-region rack-per-server location every world places
/// server `s` at.
pub fn loc(s: u32) -> Location {
    Location {
        region: RegionId(0),
        datacenter: 0,
        rack: s,
        machine: MachineId(s),
    }
}

/// The graceful-migration orchestrator config every world starts from,
/// balancing on `metric`.
pub(crate) fn orch_config(metric: MetricId, move_caps: MoveCaps) -> OrchestratorConfig {
    OrchestratorConfig {
        graceful_migration: true,
        move_caps,
        alloc: AllocConfig::new(vec![metric]),
        skip_cutover_ack: false,
    }
}

/// The graceful-migration orchestrator config balancing shard counts
/// under the default move caps.
pub fn default_orch_config() -> OrchestratorConfig {
    orch_config(Metric::ShardCount.id(), MoveCaps::default())
}

/// The kit's event alphabet around a scenario's own alphabet `A`.
#[derive(Debug)]
pub enum Event<A> {
    /// One copy of a control-plane RPC reaches its server.
    RpcSend(RpcCall),
    /// The server's ack or nack reaches the control plane; late and
    /// duplicate results are ignored.
    RpcResult {
        /// Correlation id.
        id: u64,
        /// Whether the server applied it.
        ok: bool,
    },
    /// The control plane gives up on an unanswered RPC (a no-op if the
    /// result already arrived).
    RpcTimeout {
        /// Correlation id.
        id: u64,
    },
    /// The i-th entry of the fault plan fires.
    FaultHit(usize),
    /// The failure detector's verdict on server `i` is due.
    DetectDown(u32),
    /// A scenario event.
    App(A),
}

/// How an outstanding RPC left the exchange's books.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The server applied it.
    Ack,
    /// The server refused it.
    Nack,
    /// No answer within the give-up timeout.
    GaveUp,
}

/// The numbers the kit needs from a scenario's config.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seed for the engine and the network.
    pub seed: u64,
    /// Application servers (ids `0..servers`).
    pub servers: u32,
    /// Sweeps stop here and the timed run ends.
    pub end: SimTime,
}

/// The shared plumbing a scenario's handlers reach through their [`Cx`].
pub struct Wire {
    /// The simulated network every message crosses.
    pub net: SimNet,
    /// The invariant oracle.
    pub oracle: Oracle,
    /// Recorded time series.
    pub trace: TraceLog,
    exchange: RpcExchange,
    plan: Plan,
    degraded: bool,
    params: Params,
}

impl Wire {
    fn new(params: Params, plan: Plan) -> Self {
        let latency_ms = RPC_LATENCY.as_millis_f64();
        Self {
            net: SimNet::new(
                LatencyModel::uniform(1, latency_ms, latency_ms),
                params.seed,
            ),
            oracle: Oracle::new(),
            trace: TraceLog::new(),
            exchange: RpcExchange::default(),
            plan,
            degraded: false,
            params,
        }
    }

    /// The fault plan this run executes.
    pub fn plan(&self) -> &[(SimTime, Fault)] {
        &self.plan
    }

    /// True while the network itself is broken: a partition is active
    /// or a lossy window is open.
    pub(crate) fn net_fault_active(&self) -> bool {
        self.degraded || self.net.partition().is_some()
    }

    /// The network half of a fault; everything else is the scenario's.
    fn apply_net_fault(&mut self, fault: Fault) {
        match fault {
            Fault::PartitionStart(spec) => self.net.start_partition(spec),
            Fault::PartitionHeal => self.net.heal_partition(),
            Fault::NetDegrade { drop_pct, dup_pct } => {
                self.degraded = true;
                self.net
                    .set_degradation(f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0);
            }
            Fault::NetHeal => {
                self.degraded = false;
                self.net.heal_degradation();
            }
            _ => {}
        }
    }
}

/// What a run leaves behind once the scenario has settled.
pub struct Outcome<St, X> {
    /// True when every shard had a primary and nothing was stuck.
    pub converged: bool,
    /// Shards lacking a primary at the end (diagnostics; 0 expected).
    pub unplaced: usize,
    /// The scenario's counters.
    pub stats: St,
    /// Whatever else the scenario reports.
    pub extra: X,
}

/// One chaos world: what genuinely differs between worlds. The kit
/// calls the hooks; handlers reach the shared plumbing through the
/// [`Cx`] they are handed.
pub trait Scenario: Sized {
    /// The `"world"` tag reproducer documents carry.
    const WORLD: &'static str;
    /// The name of this world's documented mutation flag in reproducer
    /// documents.
    const MUTATION: &'static str;
    /// True when the run drains the event queue past `end` (in-flight
    /// requests finishing against a healthy fleet) before settling.
    const DRAINS: bool;
    /// The run's shape.
    type Config: Copy + Send + Sync;
    /// The scenario's own event alphabet.
    type Event;
    /// The server type control-plane RPCs dispatch onto.
    type Host: ShardServer;
    /// Counters.
    type Stats: Debug + Send;
    /// Extra report fields (`()` for most worlds).
    type Extra: Debug + Send;

    /// The numbers the kit runs on.
    fn params(cfg: &Self::Config) -> Params;
    /// The DST-shaped cell for `(seed, profile)`, with the documented
    /// mutation switched on when `mutate` — the shape reproducers and
    /// swarm grids use.
    fn cell(seed: u64, profile: FaultProfile, mutate: bool) -> Self::Config;
    /// A cell's reproducer key: profile name and mutation flag.
    fn key(cfg: &Self::Config) -> (&'static str, bool);
    /// Builds the world and settles its initial placement.
    fn build(cfg: Self::Config) -> Self;
    /// The fault plan the config derives when none is given.
    fn default_plan(&self) -> Plan;
    /// The opening script: the scenario's first events.
    fn script(&self) -> Vec<(SimTime, Self::Event)>;
    /// Handles one scenario event.
    fn handle(&mut self, cx: &mut Cx<'_, '_, Self::Event>, event: Self::Event);
    /// Drains the control plane's pending commands.
    fn take_commands(&mut self) -> impl Iterator<Item = OrchCommand>;
    /// What a control-plane delivery for `server` finds there.
    fn host(&mut self, server: ServerId, rpc: &ServerRpc) -> Host<'_, Self::Host>;
    /// Reports a resolved RPC to the control plane.
    fn resolved(
        &mut self,
        cx: &mut Cx<'_, '_, Self::Event>,
        server: ServerId,
        rpc: ServerRpc,
        how: Resolution,
    );
    /// Applies the non-network half of a fault (the kit already applied
    /// partitions and degradation to the net, and flushes afterwards).
    fn fault(&mut self, cx: &mut Cx<'_, '_, Self::Event>, fault: Fault);
    /// The failure detector's verdict on server `i` is due. Worlds
    /// whose control plane detects failures itself never schedule it.
    fn detect_down(&mut self, _cx: &mut Cx<'_, '_, Self::Event>, _i: u32) {}
    /// The oracle sweep body (change-driven plus a 1 s safety net; the
    /// kit stops sweeping past `end`).
    fn scan(&mut self, cx: &mut Cx<'_, '_, Self::Event>);
    /// Quiescence: heal, settle, run the final audits, and report.
    fn finish(self, wire: &mut Wire) -> Outcome<Self::Stats, Self::Extra>;
}

/// The simulated world: a scenario on the shared plumbing.
struct Kit<S: Scenario> {
    scenario: S,
    wire: Wire,
}

/// The engine-facing context of scenario `S`.
type EngineCx<'c, S> = Ctx<'c, Event<<S as Scenario>::Event>>;

impl<S: Scenario> Kit<S> {
    /// The first of ack / nack / give-up for `id` reaches the scenario;
    /// every later one finds nothing outstanding.
    fn resolve(&mut self, id: u64, how: Resolution, ctx: &mut EngineCx<'_, S>) {
        let Some((server, rpc)) = self.wire.exchange.resolve(id) else {
            return;
        };
        let wire = &mut self.wire;
        self.scenario
            .resolved(&mut Cx { wire, ctx }, server, rpc, how);
        ctx.state_changed();
    }
}

impl<S: Scenario> World for Kit<S> {
    type Event = Event<S::Event>;

    fn handle(&mut self, ctx: &mut EngineCx<'_, S>, event: Self::Event) {
        let Kit { scenario, wire } = self;
        match event {
            Event::App(event) => scenario.handle(&mut Cx { wire, ctx }, event),
            Event::RpcSend(call) => {
                let reply = wire
                    .exchange
                    .deliver(&call, || scenario.host(call.server, &call.rpc));
                let Some(reply) = reply else {
                    return; // nothing answers; the give-up timer reaps it
                };
                if reply.applied {
                    // The server's hosted-shard set just changed — the
                    // instant a dual primary can first exist. Sweep
                    // now, not at the next poll.
                    ctx.state_changed();
                }
                let t = wire
                    .net
                    .transmit(Endpoint::Server(call.server.raw()), Endpoint::ControlPlane);
                for d in t.copies {
                    let (id, ok) = (call.id, reply.ok);
                    ctx.schedule_in(d, Event::RpcResult { id, ok });
                }
            }
            Event::RpcResult { id, ok } => {
                let how = if ok {
                    Resolution::Ack
                } else {
                    Resolution::Nack
                };
                self.resolve(id, how, ctx);
            }
            Event::RpcTimeout { id } => self.resolve(id, Resolution::GaveUp, ctx),
            Event::FaultHit(i) => {
                let Some(&(_, fault)) = wire.plan.get(i) else {
                    return;
                };
                wire.apply_net_fault(fault);
                let mut cx = Cx { wire, ctx };
                scenario.fault(&mut cx, fault);
                cx.flush(scenario.take_commands());
                ctx.state_changed();
            }
            Event::DetectDown(i) => scenario.detect_down(&mut Cx { wire, ctx }, i),
        }
    }

    fn sweep(&mut self, ctx: &mut EngineCx<'_, S>) {
        // Gated to the experiment window: past `end` the periodic
        // drivers have stopped by design, and the drain is not audited.
        if ctx.now() <= self.wire.params.end {
            let wire = &mut self.wire;
            self.scenario.scan(&mut Cx { wire, ctx });
        }
    }

    fn sweep_interval(&self) -> Option<SimDuration> {
        // Coarse safety net only: the interesting sweeps are the
        // change-driven ones right after placement- or liveness-
        // affecting events.
        Some(SimDuration::from_secs(1))
    }
}

// ---------------------------------------------------------------------
// The fleet half: bare-orchestrator worlds under the failure detector.
// ---------------------------------------------------------------------

/// Process liveness and fault counters for a fleet driven by a bare
/// [`Orchestrator`] (no ZooKeeper: the control plane learns of deaths
/// from the kit's failure detector).
#[derive(Default)]
pub(crate) struct FleetState {
    down: BTreeSet<ServerId>,
    /// Alive servers the detector declared down behind a partition,
    /// to be welcomed back when it heals.
    partitioned: BTreeSet<ServerId>,
    /// Server container crashes injected.
    pub(crate) server_crashes: u64,
    /// Session expiries injected.
    pub(crate) session_expiries: u64,
    /// Network partitions injected.
    pub(crate) net_partitions: u64,
    /// Control-plane RPCs the server answered with a failure.
    pub(crate) rpc_nacks: u64,
    /// Control-plane RPCs that timed out unanswered.
    pub(crate) rpc_timeouts: u64,
}

impl FleetState {
    /// Whether server `s`'s process is running.
    pub(crate) fn is_up(&self, s: ServerId) -> bool {
        !self.down.contains(&s)
    }

    /// Whether the detector has declared live server `s` unreachable.
    pub(crate) fn is_partitioned(&self, s: ServerId) -> bool {
        self.partitioned.contains(&s)
    }

    /// True while the plan has something actively broken — the window
    /// in which a nacked protocol step counts as fault-interrupted.
    pub(crate) fn fault_active(&self, wire: &Wire) -> bool {
        wire.net_fault_active() || !self.down.is_empty()
    }

    /// Quiescence: every process is back. Returns the servers that were
    /// down and the ones the detector had islanded.
    pub(crate) fn revive_all(&mut self) -> (BTreeSet<ServerId>, BTreeSet<ServerId>) {
        (
            std::mem::take(&mut self.down),
            std::mem::take(&mut self.partitioned),
        )
    }
}

/// A liveness transition the fleet applier reports to its scenario.
pub(crate) enum Change {
    /// `s`'s process died (crash or session loss).
    Crashed(ServerId),
    /// `s`'s process came back with a fresh session.
    Restarted(ServerId),
    /// A partition started.
    Partitioned(PartitionSpec),
    /// The partition healed.
    Healed,
    /// The detector found live `s` islanded; by now its own §3.2
    /// self-fence timer (strictly shorter) has fired.
    Islanded(ServerId),
    /// Islanded `s` is reachable again and re-establishes its session.
    Rejoined(ServerId),
    /// The detector declared `s` down (dead or islanded).
    DeclaredDown(ServerId),
    /// A protocol step was nacked or timed out while a fault was active.
    Interrupted(ServerRpc),
}

/// A scenario whose control plane is a bare [`Orchestrator`]: the kit
/// supplies its fault applier, failure detector, and RPC-outcome path.
pub(crate) trait Fleet: Scenario {
    /// The liveness state and the orchestrator it feeds.
    fn fleet(&mut self) -> (&mut FleetState, &mut Orchestrator);
    /// Mirrors a liveness transition into the scenario's host model.
    fn on(&mut self, change: Change);
}

/// [`Scenario::fault`] for a [`Fleet`]: process crashes and restarts,
/// partition bookkeeping, and arming the failure detector.
pub(crate) fn fleet_fault<S: Fleet>(s: &mut S, cx: &mut Cx<'_, '_, S::Event>, fault: Fault) {
    let servers = cx.params.servers;
    match fault {
        Fault::ServerCrash(i) | Fault::SessionExpiry(i) => {
            let id = ServerId(i);
            let (fleet, _) = s.fleet();
            if i >= servers || !fleet.down.insert(id) {
                return;
            }
            if matches!(fault, Fault::ServerCrash(_)) {
                fleet.server_crashes += 1;
            } else {
                fleet.session_expiries += 1;
            }
            s.on(Change::Crashed(id));
            // The control plane only learns of the death once its
            // failure detector fires; until then, RPCs to the dead
            // server time out and operations stall mid-step.
            cx.ctx.schedule_in(DETECTION_DELAY, Event::DetectDown(i));
        }
        Fault::ServerRestart(i) | Fault::SessionRestore(i) => {
            let id = ServerId(i);
            if !s.fleet().0.down.remove(&id) {
                return;
            }
            s.on(Change::Restarted(id));
            s.fleet().1.reconcile_server(id);
        }
        Fault::PartitionStart(spec) => {
            s.fleet().0.net_partitions += 1;
            s.on(Change::Partitioned(spec));
            for i in (0..servers).filter(|&i| spec.contains(Endpoint::Server(i))) {
                cx.ctx.schedule_in(DETECTION_DELAY, Event::DetectDown(i));
            }
        }
        Fault::PartitionHeal => {
            s.on(Change::Healed);
            for id in std::mem::take(&mut s.fleet().0.partitioned) {
                s.on(Change::Rejoined(id));
                let (fleet, cp) = s.fleet();
                if fleet.is_up(id) {
                    cp.reconcile_server(id);
                }
            }
        }
        // The kit applied degradation to the net; no mini-SMs here.
        Fault::NetDegrade { .. }
        | Fault::NetHeal
        | Fault::MiniSmCrash(_)
        | Fault::MiniSmRestart(_) => {}
    }
}

/// [`Scenario::detect_down`] for a [`Fleet`]: a server that is (still)
/// dead or (still) islanded is declared down, aborting its in-flight
/// operations and failing its shards over.
pub(crate) fn fleet_detect_down<S: Fleet>(s: &mut S, cx: &mut Cx<'_, '_, S::Event>, i: u32) {
    let id = ServerId(i);
    let up = s.fleet().0.is_up(id);
    let islanded = cx
        .net
        .partition()
        .is_some_and(|spec| spec.contains(Endpoint::Server(i)));
    if up && !islanded {
        return; // recovered before detection
    }
    if up {
        // Alive but unreachable: remember to welcome it back when the
        // partition heals.
        s.on(Change::Islanded(id));
        s.fleet().0.partitioned.insert(id);
    }
    s.on(Change::DeclaredDown(id));
    s.fleet().1.server_down(id);
    cx.flush(s.take_commands());
    cx.state_changed();
}

/// [`Scenario::resolved`] for a [`Fleet`]: acks advance the protocol at
/// once; nacked and timed-out steps are *not* re-flushed inline — they
/// leave with the scenario's retry pacemaker, so a persistently failing
/// step retries on a fixed backoff instead of melting into a 2×RTT
/// storm.
pub(crate) fn fleet_resolved<S: Fleet>(
    s: &mut S,
    cx: &mut Cx<'_, '_, S::Event>,
    server: ServerId,
    rpc: ServerRpc,
    how: Resolution,
) {
    let (fleet, cp) = s.fleet();
    match how {
        Resolution::Ack => {
            cp.rpc_acked(server, rpc);
            cx.flush(s.take_commands());
            return;
        }
        Resolution::Nack => fleet.rpc_nacks += 1,
        Resolution::GaveUp => fleet.rpc_timeouts += 1,
    }
    if fleet.fault_active(cx) {
        s.on(Change::Interrupted(rpc));
    }
    s.fleet().1.rpc_failed(server, rpc);
}

/// Settles a bare orchestrator synchronously against its fleet: every
/// command is applied through `apply` and acked or failed until the
/// orchestrator goes quiet (bootstrap and quiescence only — during the
/// run commands travel the net). `idle` is consulted with the round
/// number whenever no commands are pending; it may plan more work and
/// returns true once there is nothing left to do.
pub(crate) fn settle(
    cp: &mut Orchestrator,
    mut apply: impl FnMut(&Orchestrator, ServerId, ServerRpc) -> bool,
    mut idle: impl FnMut(&mut Orchestrator, usize) -> bool,
) {
    for round in 0..200 {
        let cmds = cp.take_commands();
        if cmds.is_empty() {
            if idle(cp, round) {
                break;
            }
            continue;
        }
        for cmd in cmds {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                if apply(cp, server, rpc) {
                    cp.rpc_acked(server, rpc);
                } else {
                    cp.rpc_failed(server, rpc);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Run driver, report, shrink, grid.
// ---------------------------------------------------------------------

/// Outcome of one run — everything the acceptance checks need.
#[derive(Debug)]
pub struct Report<St, X = ()> {
    /// The scenario's counters.
    pub stats: St,
    /// The scenario's extra report fields.
    pub extra: X,
    /// Network delivery counters.
    pub net: NetStats,
    /// Invariant violations the oracle observed (empty on a safe run).
    pub violations: Vec<OracleViolation>,
    /// Total violations, uncapped (the list above is capped).
    pub total_violations: u64,
    /// True when, at the end, every shard had a primary and nothing was
    /// stuck mid-operation.
    pub converged: bool,
    /// Shards lacking a primary at the end (diagnostics; 0 expected).
    pub unplaced: usize,
    /// The fault plan the run executed (replay/shrink input).
    pub plan: Plan,
    /// The run's time-series trace, rendered as CSV (5 s buckets) —
    /// byte-identical across reruns of the same seed and plan.
    pub trace_csv: String,
}

impl<St, X> Report<St, X> {
    /// True when the oracle observed at least one invariant violation.
    pub fn failed(&self) -> bool {
        self.total_violations > 0
    }

    /// The distinct invariant kinds violated.
    pub fn violated_kinds(&self) -> BTreeSet<InvariantKind> {
        self.violations.iter().map(|v| v.kind).collect()
    }

    /// A canonical one-line-per-violation rendering — two runs have
    /// identical oracle verdicts iff these strings are equal.
    pub fn verdict(&self) -> String {
        let mut out = format!("total={}\n", self.total_violations);
        for v in &self.violations {
            out.push_str(&format!("{} {} {}\n", v.at.0, v.kind.name(), v.detail));
        }
        out
    }
}

/// The report type of scenario `S`.
pub(crate) type ReportOf<S> = Report<<S as Scenario>::Stats, <S as Scenario>::Extra>;

/// Runs one seeded experiment to completion. `plan` is the explicit
/// (time-sorted) fault plan of the replay/shrink path; `None` derives
/// it from the config. The whole run is a pure function of `(cfg,
/// plan)`.
// sm-lint: allow(P1) — runs whole worlds: reaches sm-sim constructor invariants and the solver chain baselined under P1/sm-core
pub fn run<S: Scenario>(cfg: S::Config, plan: Option<Plan>) -> ReportOf<S> {
    let params = S::params(&cfg);
    let scenario = S::build(cfg);
    let plan = plan.unwrap_or_else(|| scenario.default_plan());
    let script = scenario.script();
    let hits: Vec<SimTime> = plan.iter().map(|(at, _)| *at).collect();
    let wire = Wire::new(params, plan);
    let mut sim = Simulation::new(Kit { scenario, wire }, params.seed);
    for (i, at) in hits.into_iter().enumerate() {
        sim.schedule_at(at, Event::FaultHit(i));
    }
    for (at, event) in script {
        sim.schedule_at(at, Event::App(event));
    }
    sim.run_until(params.end);
    if S::DRAINS {
        sim.run();
    }
    // Whatever else is still in flight is abandoned; `finish` settles
    // the control plane synchronously against the healed fleet.
    let Kit { scenario, mut wire } = sim.into_world();
    let outcome = scenario.finish(&mut wire);
    Report {
        stats: outcome.stats,
        extra: outcome.extra,
        net: wire.net.stats(),
        violations: wire.oracle.violations().to_vec(),
        total_violations: wire.oracle.total_violations(),
        converged: outcome.converged,
        unplaced: outcome.unplaced,
        plan: wire.plan,
        trace_csv: wire.trace.to_csv(5),
    }
}

/// Shrinks a failing fault plan to a minimal reproducer through the
/// ddmin core (`dst::shrink_plan`): a candidate counts as still-failing
/// when it violates one of the originally observed invariant kinds
/// (so the shrinker cannot wander onto an unrelated failure). Returns
/// `None` when the plan does not fail.
pub fn shrink<S: Scenario>(cfg: S::Config, plan: &[(SimTime, Fault)]) -> Option<Plan> {
    let replay = |plan: &[(SimTime, Fault)]| run::<S>(cfg, Some(plan.to_vec()));
    let kinds = replay(plan).violated_kinds();
    if kinds.is_empty() {
        return None;
    }
    shrink_plan(plan, |candidate| {
        replay(candidate)
            .violations
            .iter()
            .any(|v| kinds.contains(&v.kind))
    })
}

/// Runs every job in the grid and returns reports in input order.
///
/// Each run is single-threaded and pure, so `threads` changes only
/// wall-clock time: report `i` is always the run of `jobs[i]`, and its
/// trace and verdict are byte-identical whether `threads` is 1 or 16.
pub fn run_grid<S: Scenario>(jobs: &[S::Config], threads: usize) -> Vec<ReportOf<S>> {
    let run_one = |cfg: &S::Config| run::<S>(*cfg, None);
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, ReportOf<S>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    // Relaxed: the counter hands out indices and
                    // publishes nothing else.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = jobs.get(i) else { break };
                        mine.push((i, run_one(cfg)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, report)| report).collect()
}

// ---------------------------------------------------------------------
// The reproducer codec.
// ---------------------------------------------------------------------

/// Serializes a reproducer — the cell's seed, profile, and mutation
/// flag plus its (possibly shrunk) fault plan — as a self-contained
/// JSON document tagged with its world.
pub fn repro_to_json<S: Scenario>(cfg: &S::Config, plan: &[(SimTime, Fault)]) -> String {
    let (profile, mutated) = S::key(cfg);
    let events: Vec<String> = plan
        .iter()
        .map(|(at, f)| format!("    {{\"at_us\":{},\"fault\":{}}}", at.0, fault_to_json(*f)))
        .collect();
    format!(
        "{{\n  \"world\": \"{}\",\n  \"seed\": {},\n  \"profile\": \"{profile}\",\n  \"{}\": {mutated},\n  \"plan\": [\n{}\n  ]\n}}\n",
        S::WORLD,
        S::params(cfg).seed,
        S::MUTATION,
        events.join(",\n")
    )
}

/// Parses a reproducer back into `S`'s DST-shaped cell plus its plan.
/// Returns `None` for malformed input and for another world's document
/// (never panics). Documents without a `"world"` tag predate it; they
/// are told apart by their mutation flag's name.
pub fn repro_from_json<S: Scenario>(text: &str) -> Option<(S::Config, Plan)> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let doc = parser.value()?;
    if doc
        .get("world")
        .is_some_and(|w| w.as_str() != Some(S::WORLD))
    {
        return None;
    }
    let cfg = S::cell(
        doc.get("seed")?.as_u64()?,
        FaultProfile::parse(doc.get("profile")?.as_str()?)?,
        doc.get(S::MUTATION)?.as_bool()?,
    );
    let Json::Arr(events) = doc.get("plan")? else {
        return None;
    };
    let mut plan = Vec::with_capacity(events.len());
    for e in events {
        let at = SimTime(e.get("at_us")?.as_u64()?);
        plan.push((at, fault_from_json(e.get("fault")?)?));
    }
    Some((cfg, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chaos, ChaosConfig, Reconfig, Split};

    fn every_fault_kind() -> Plan {
        let island = PartitionSpec {
            lo: 2,
            len: 3,
            asym: true,
        };
        let lossy = Fault::NetDegrade {
            drop_pct: 5,
            dup_pct: 3,
        };
        vec![
            (SimTime::from_secs(10), Fault::ServerCrash(3)),
            (SimTime::from_secs(12), Fault::SessionExpiry(4)),
            (SimTime::from_secs(13), Fault::MiniSmCrash(1)),
            (SimTime::from_secs(14), Fault::PartitionStart(island)),
            (SimTime::from_secs(15), lossy),
            (SimTime::from_secs(20), Fault::NetHeal),
            (SimTime::from_secs(21), Fault::PartitionHeal),
            (SimTime::from_secs(22), Fault::MiniSmRestart(1)),
            (SimTime::from_secs(23), Fault::SessionRestore(4)),
            (SimTime::from_secs(24), Fault::ServerRestart(3)),
        ]
    }

    /// Round-trips `S`'s mutated cell and checks the other worlds
    /// refuse the document.
    fn round_trips<S: Scenario>(profile: FaultProfile)
    where
        S::Config: PartialEq + Debug,
    {
        let cfg = S::cell(9, profile, true);
        let plan = every_fault_kind();
        let json = repro_to_json::<S>(&cfg, &plan);
        let (cfg2, plan2) = repro_from_json::<S>(&json).expect("own output parses");
        assert_eq!(cfg, cfg2);
        assert_eq!(plan, plan2);
        let takers = [
            repro_from_json::<Chaos>(&json).is_some(),
            repro_from_json::<Reconfig>(&json).is_some(),
            repro_from_json::<Split>(&json).is_some(),
        ];
        assert_eq!(takers.iter().filter(|&&t| t).count(), 1, "{json}");
    }

    #[test]
    fn repro_json_round_trips_in_every_world_and_only_its_own() {
        round_trips::<Chaos>(FaultProfile::Mixed);
        round_trips::<Reconfig>(FaultProfile::ReconfigChaos);
        round_trips::<Split>(FaultProfile::SplitChaos);
    }

    #[test]
    fn documents_older_than_the_world_tag_still_parse() {
        let chaos = "{\"seed\":4,\"profile\":\"mixed\",\"disable_self_fencing\":true,\"plan\":[]}";
        let (cfg, plan) = repro_from_json::<Chaos>(chaos).expect("pre-tag chaos document");
        assert_eq!(cfg, Chaos::cell(4, FaultProfile::Mixed, true));
        assert!(plan.is_empty());
        assert!(repro_from_json::<Reconfig>(chaos).is_none());

        let reconfig =
            "{\"seed\":5,\"profile\":\"reconfig_chaos\",\"single_step\":false,\"plan\":[]}";
        let (cfg, _) = repro_from_json::<Reconfig>(reconfig).expect("pre-tag reconfig document");
        assert_eq!(cfg, Reconfig::cell(5, FaultProfile::ReconfigChaos, false));
        assert!(repro_from_json::<Chaos>(reconfig).is_none());

        // Split documents always carried the tag (and an `adaptive`
        // knob, which a DST cell does not have).
        let split = "{\"world\":\"split\",\"seed\":6,\"profile\":\"split_chaos\",\
                     \"adaptive\":true,\"skip_cutover_ack\":true,\"plan\":[]}";
        let (cfg, _) = repro_from_json::<Split>(split).expect("tagged split document");
        assert_eq!(cfg, Split::cell(6, FaultProfile::SplitChaos, true));
    }

    #[test]
    fn repro_parser_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"seed\": \"x\"}",
            "{\"seed\": 1}",
            "{\"seed\":1,\"profile\":\"nope\",\"disable_self_fencing\":false,\"plan\":[]}",
            "{\"seed\":1,\"profile\":\"mixed\",\"disable_self_fencing\":false,\"plan\":[{\"at_us\":1,\"fault\":{\"kind\":\"warp\"}}]}",
            "{\"world\":\"moon\",\"seed\":1,\"profile\":\"mixed\",\"disable_self_fencing\":false,\"plan\":[]}",
        ] {
            assert!(repro_from_json::<Chaos>(bad).is_none(), "accepted: {bad}");
        }
        // A covering-shaped run is not a DST cell: its document names a
        // profile that does not parse back.
        let covering = repro_to_json::<Chaos>(&ChaosConfig::covering(1), &[]);
        assert!(repro_from_json::<Chaos>(&covering).is_none());
    }

    #[test]
    fn grid_reports_land_at_their_input_index() {
        let jobs: Vec<ChaosConfig> = (11..15)
            .map(|seed| ChaosConfig::dst(seed, FaultProfile::CrashOnly))
            .collect();
        let threaded = run_grid::<Chaos>(&jobs, 3);
        assert_eq!(threaded.len(), jobs.len());
        for (cfg, report) in jobs.iter().zip(&threaded) {
            let solo = run::<Chaos>(*cfg, None);
            assert_eq!(report.plan, solo.plan, "seed {}", cfg.seed);
            assert_eq!(report.trace_csv, solo.trace_csv, "seed {}", cfg.seed);
        }
    }
}
