//! The control-plane workloads: `control_failover`, `control_rebalance`
//! and `control_drain`, one per kind of operation so that no number
//! pools two kinds.
//!
//! An `Orchestrator` (primary + 1 secondary, Cpu and ShardCount
//! balanced, 500 moves in flight at most, graceful migration) beside a
//! `DiscoveryService` and a `ConcurrentRouter`, driven by a perfectly
//! responsive world: every `OrchCommand::Rpc` is acked at once. No
//! request is served. The script is a bootstrap (the set-up window) and
//! then operations of the workload's kind, one after another: failovers
//! and rebalances on 16,384 shards x 128 servers, drains on a smaller
//! fleet (`drain_server` is quadratic in replicas). Every call into a
//! crate is its own window, and the whole script is replayed from
//! scratch, doing identical work each time, until the time is up.

use crate::stats;
use crate::trace::{Name, Off, OpTotals, Probe, Tracer};
use crate::{Args, Report};
use sm_allocator::{
    AllocConfig, AllocInput, AllocationPlan, Allocator, MoveCaps, ServerInfo, ShardPlacement,
};
use sm_core::{OrchCommand, Orchestrator, OrchestratorConfig};
use sm_routing::{ConcurrentRouter, DiscoveryService, RouterHandle};
use sm_sim::{SimDuration, SimRng};
use sm_types::{
    AppId, AppPolicy, LoadBalancePolicy, LoadVector, Location, MachineId, Metric, RegionId,
    ServerId, ShardId,
};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const APP: AppId = AppId(0);
const REPLICAS: usize = 2;
const SUBSCRIBERS: usize = 64;
/// A rebalance makes this share of all shards hot, all on one server.
const HOT_SHARE: f64 = 0.01;
const HOT_FACTOR: f64 = 12.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `server_down` → `run_emergency` → settle → publish, then `server_up`.
    Failover,
    /// `report_load` with one server's shards hot → `run_periodic` → settle → publish.
    Rebalance,
    /// `drain_server` → settle → `drain_finished` → publish, then `server_up`.
    Drain,
}

#[derive(Clone, Copy)]
struct Scale {
    shards: u64,
    servers: u32,
}

/// Where failovers and rebalances run, and the one drain of the traced
/// run that shows what a drain costs at this size.
const FLEET: Scale = Scale {
    shards: 16_384,
    servers: 128,
};
/// Where the drains of the script run. One drain of a 256-replica
/// server of `FLEET` takes 17 s; here one of a 64-replica server takes
/// 36 ms, in the same `drain_server`. See README.md.
const DRAIN_FLEET: Scale = Scale {
    shards: 1_024,
    servers: 32,
};

impl Kind {
    /// The fleet the script of this kind runs on.
    fn scale(self) -> Scale {
        match self {
            Kind::Failover | Kind::Rebalance => FLEET,
            Kind::Drain => DRAIN_FLEET,
        }
    }

    /// Operations in one replay of the script: a quarter of a second
    /// of them. With the bootstrap and the checks after every operation
    /// a replay takes 0.4 to 0.7 s, so a run replays every call thirty
    /// to fifty times; more replays steady a floor more than more
    /// operations do.
    fn ops(self) -> usize {
        match self {
            Kind::Failover | Kind::Rebalance => 12,
            Kind::Drain => 8,
        }
    }
}

/// The counts of one operation that must repeat exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct OpCounts {
    rpcs: u64,
    moves: u64,
    planned: u64,
    inflight_max: u64,
    map_version: u64,
}

/// Measurements outside the script, made in the traced replays only.
#[derive(Default)]
struct Shadow {
    /// Milliseconds and solver evaluations of each shadow plan.
    plans: Vec<(f64, u64)>,
    /// One snapshot of the orchestrator per operation.
    snapshot_ms: Vec<f64>,
    snapshot_bytes: usize,
}

/// One replay of the script.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    /// The name and seconds of every timed call, in script order.
    windows: Vec<Window>,
    counts: Vec<OpCounts>,
    failed_ops: u64,
    first_failure: Option<String>,
    shadow: Shadow,
}

type Window = (Name, f64);

struct Plane {
    scale: Scale,
    orch: Orchestrator,
    discovery: DiscoveryService,
    rng: SimRng,
    router: Arc<ConcurrentRouter>,
    handle: RouterHandle,
    servers: Vec<(ServerId, Location, LoadVector)>,
    alloc: AllocConfig,
    base_loads: Vec<LoadVector>,
    /// The loads the script last reported.
    loads: Vec<LoadVector>,
    /// The servers the operations pick, in order.
    order: Vec<ServerId>,
}

fn timed<P: Probe, T>(
    p: &mut P,
    windows: &mut Vec<Window>,
    name: Name,
    call: impl FnOnce() -> T,
) -> T {
    let span = p.enter(name);
    let t = Instant::now();
    let out = call();
    let dt = t.elapsed();
    p.exit(span);
    windows.push((name, dt.as_secs_f64()));
    out
}

/// Acks every RPC the orchestrator sends until it sends none: returns
/// the RPCs acked and the most migrations in flight.
fn settle<P: Probe>(orch: &mut Orchestrator, p: &mut P) -> (u64, u64) {
    let (mut rpcs, mut inflight_max) = (0, 0);
    loop {
        let s = p.enter(Name::TakeCommands);
        let commands = orch.take_commands();
        p.exit(s);
        if commands.is_empty() {
            return (rpcs, inflight_max);
        }
        for command in commands {
            if let OrchCommand::Rpc { server, rpc } = command {
                inflight_max = inflight_max.max(orch.in_flight_migrations() as u64);
                let s = p.enter(Name::RpcAcked);
                orch.rpc_acked(server, rpc);
                p.exit(s);
                rpcs += 1;
            }
        }
    }
}

impl Plane {
    /// Everything before the bootstrap: cheap, and part of set-up.
    fn new(scale: Scale, seed: u64) -> Plane {
        let mut rng = SimRng::seeded(seed);
        let mut policy = AppPolicy::primary_secondary(REPLICAS as u32 - 1);
        policy.load_balance = LoadBalancePolicy::MultiMetric(vec![Metric::Cpu, Metric::ShardCount]);
        let mut alloc = AllocConfig::new(policy.load_balance.metrics());
        alloc.search.seed = seed;
        let config = OrchestratorConfig {
            graceful_migration: true,
            move_caps: MoveCaps {
                max_total: 500,
                max_per_server: 8,
                max_per_shard: 1,
            },
            alloc: alloc.clone(),
            skip_cutover_ack: false,
        };
        let mut orch = Orchestrator::new(APP, policy, config);

        let base_loads: Vec<LoadVector> = (0..scale.shards)
            .map(|_| {
                let mut load = LoadVector::single(Metric::ShardCount.id(), 1.0);
                load.set(Metric::Cpu.id(), 1.0 + rng.f64());
                load
            })
            .collect();
        // Four times the fair share of either metric.
        let per_server = (scale.shards as usize * REPLICAS) as f64 / f64::from(scale.servers);
        let mut capacity = LoadVector::single(Metric::ShardCount.id(), 4.0 * per_server);
        capacity.set(Metric::Cpu.id(), 4.0 * 1.5 * per_server);
        let servers: Vec<(ServerId, Location, LoadVector)> = (0..scale.servers)
            .map(|i| {
                let location = Location {
                    region: RegionId(0),
                    datacenter: 0,
                    rack: i / 2,
                    machine: MachineId(i),
                };
                (ServerId(i), location, capacity)
            })
            .collect();
        for &(id, location, capacity) in &servers {
            orch.register_server(id, location, capacity);
        }
        orch.register_shards((0..scale.shards).map(ShardId));

        let mut discovery = DiscoveryService::new(4, SimDuration::from_millis(100));
        for _ in 0..SUBSCRIBERS {
            discovery.subscribe();
        }
        let router = Arc::new(ConcurrentRouter::new());
        let handle = router.handle().expect("a free reader slot");
        let mut order: Vec<ServerId> = servers.iter().map(|s| s.0).collect();
        rng.shuffle(&mut order);
        Plane {
            scale,
            orch,
            discovery,
            rng,
            router,
            handle,
            servers,
            alloc,
            loads: base_loads.clone(),
            base_loads,
            order,
        }
    }

    fn reported(&self) -> Vec<(ShardId, LoadVector)> {
        (0..).map(ShardId).zip(self.loads.iter().copied()).collect()
    }

    /// `current_map` → `publish` → `install_map`, a window each.
    fn publish<P: Probe>(&mut self, p: &mut P, windows: &mut Vec<Window>) -> u64 {
        let map = Rc::new(timed(p, windows, Name::CurrentMap, || {
            self.orch.current_map()
        }));
        let version = map.version;
        let deliveries = timed(p, windows, Name::Publish, || {
            self.discovery.publish(APP, map.clone(), &mut self.rng)
        });
        std::hint::black_box(deliveries.is_ok());
        let owned = (*map).clone();
        timed(p, windows, Name::InstallMap, || {
            self.router.install_map(APP, owned)
        });
        version
    }

    /// The placement after an operation must be whole, settled, and
    /// what the router routes by.
    fn check(&mut self, map_version: u64) -> Result<(), String> {
        let assignment = self.orch.assignment();
        for s in 0..self.scale.shards {
            let replicas = assignment.replicas(ShardId(s));
            let primaries = replicas.iter().filter(|r| r.role.is_primary()).count();
            if replicas.len() != REPLICAS || primaries != 1 {
                return Err(format!(
                    "shard {s} has {} replicas, {primaries} primary",
                    replicas.len()
                ));
            }
            let routed = self.handle.route_shard(APP, ShardId(s)).map(|d| d.server);
            if routed.ok() != assignment.primary_of(ShardId(s)) {
                return Err(format!("router and current_map disagree on shard {s}"));
            }
        }
        if self.handle.map_version(APP) != map_version {
            return Err(format!("router is not at map version {map_version}"));
        }
        if self.orch.in_flight_migrations() != 0 {
            return Err("a migration is still in flight".into());
        }
        match self.orch.drain_errors().first() {
            Some(e) => Err(format!("orchestrator error: {e:?}")),
            None => Ok(()),
        }
    }

    /// The allocator's input as the orchestrator builds it: for the
    /// state now, or for the state right after `down` fails.
    fn alloc_input(&self, down: Option<ServerId>) -> AllocInput {
        let assignment = self.orch.assignment();
        AllocInput {
            servers: self
                .servers
                .iter()
                .filter(|s| Some(s.0) != down)
                .map(|&(id, location, capacity)| ServerInfo {
                    id,
                    location,
                    capacity,
                    draining: false,
                })
                .collect(),
            shards: (0..self.scale.shards)
                .map(|s| {
                    let mut replicas: Vec<Option<ServerId>> = assignment
                        .replicas(ShardId(s))
                        .iter()
                        .filter(|r| Some(r.server) != down)
                        .map(|r| Some(r.server))
                        .collect();
                    replicas.resize(REPLICAS, None);
                    ShardPlacement {
                        shard: ShardId(s),
                        load_per_replica: self.loads[s as usize],
                        replicas,
                    }
                })
                .collect(),
            config: self.alloc.clone(),
        }
    }

    /// Measurements beside the script: the allocator plan the coming
    /// operation will compute (timed on an input rebuilt here, then
    /// thrown away) and one orchestrator snapshot.
    fn shadow(&self, kind: Kind, shadow: &mut Shadow, server: ServerId) {
        type Plan = fn(&AllocInput) -> AllocationPlan;
        let plan: Option<(Option<ServerId>, Plan)> = match kind {
            Kind::Failover => Some((Some(server), Allocator::plan_emergency)),
            Kind::Rebalance => Some((None, Allocator::plan_periodic)),
            // `drain_server` picks targets itself, without the allocator.
            Kind::Drain => None,
        };
        if let Some((down, plan)) = plan {
            let input = self.alloc_input(down);
            let t = Instant::now();
            let plan = plan(&input);
            shadow
                .plans
                .push((t.elapsed().as_secs_f64() * 1e3, plan.search.evaluated));
        }
        let t = Instant::now();
        let bytes = self.orch.snapshot();
        shadow.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        shadow.snapshot_bytes = bytes.len();
    }

    /// The `cycle`th operation of the script, on the `cycle`th server
    /// of the seeded order; returns its counts.
    fn op<P: Probe>(
        &mut self,
        p: &mut P,
        kind: Kind,
        cycle: usize,
        windows: &mut Vec<Window>,
        shadow: Option<&mut Shadow>,
    ) -> Result<OpCounts, String> {
        let server = self.order[cycle % self.order.len()];
        let held = self.orch.shards_on(server).len() as u64;
        let moved_before = self.orch.stats().completed_moves;
        if kind == Kind::Rebalance {
            let hot = (self.scale.shards as f64 * HOT_SHARE) as usize;
            self.loads.clone_from(&self.base_loads);
            for (shard, _) in self.orch.shards_on(server).into_iter().take(hot) {
                let load = &mut self.loads[shard.raw() as usize];
                load.set(Metric::Cpu.id(), load.get(Metric::Cpu.id()) * HOT_FACTOR);
            }
        }
        if let Some(shadow) = shadow {
            self.shadow(kind, shadow, server);
        }

        let root = p.enter(Name::Op);
        let planned = match kind {
            Kind::Failover => {
                timed(p, windows, Name::ServerDown, || {
                    self.orch.server_down(server)
                });
                timed(p, windows, Name::RunEmergency, || self.orch.run_emergency())
            }
            Kind::Rebalance => {
                let reported = self.reported();
                timed(p, windows, Name::ReportLoad, || {
                    self.orch.report_load(server, reported)
                });
                timed(p, windows, Name::RunPeriodic, || self.orch.run_periodic())
            }
            Kind::Drain => timed(p, windows, Name::DrainServer, || {
                self.orch.drain_server(server)
            }),
        };
        let span = p.enter(Name::Settle);
        let t = Instant::now();
        let (rpcs, inflight_max) = settle(&mut self.orch, p);
        let dt = t.elapsed();
        p.exit(span);
        windows.push((Name::Settle, dt.as_secs_f64()));
        if kind == Kind::Drain {
            self.orch.drain_finished(server);
        }
        let map_version = self.publish(p, windows);
        p.exit(root);

        self.check(map_version)?;
        if kind == Kind::Drain {
            // Every replica the server held is gone from it.
            let left = self.orch.shards_on(server).len();
            if planned as u64 != held || left != 0 {
                return Err(format!(
                    "drain of {server} moved {planned} of {held} replicas, {left} left"
                ));
            }
        }
        if kind != Kind::Rebalance {
            self.orch.server_up(server);
        }
        Ok(OpCounts {
            rpcs,
            moves: self.orch.stats().completed_moves - moved_before,
            planned: planned as u64,
            inflight_max,
            map_version,
        })
    }

    /// Bootstrap, the set-up window: report every shard's load, place
    /// every replica, settle, publish the first map.
    fn bootstrap(&mut self) {
        self.router
            .register_app(APP, sm_types::ShardingSpec::uniform_u64(self.scale.shards));
        self.orch.report_load(ServerId(0), self.reported());
        self.orch.run_emergency();
        settle(&mut self.orch, &mut Off);
        self.publish(&mut Off, &mut Vec::new());
    }
}

/// Replays the script of `kind` once from scratch.
fn replay<P: Probe>(
    kind: Kind,
    seed: u64,
    p: &mut P,
    mut end_op: impl FnMut(&mut P),
    shadowed: bool,
) -> Replay {
    let mut replay = Replay::default();
    let t = Instant::now();
    let mut plane = Plane::new(kind.scale(), seed);
    plane.bootstrap();
    replay.setup_s = t.elapsed().as_secs_f64();
    let bootstrapped = plane.handle.map_version(APP);
    if let Err(e) = plane.check(bootstrapped) {
        replay.first_failure = Some(format!("bootstrap: {e}"));
        replay.failed_ops += 1;
    }
    for cycle in 0..kind.ops() {
        let shadow = shadowed.then_some(&mut replay.shadow);
        match plane.op(p, kind, cycle, &mut replay.windows, shadow) {
            Ok(counts) => replay.counts.push(counts),
            Err(e) => {
                replay.failed_ops += 1;
                replay
                    .first_failure
                    .get_or_insert(format!("{kind:?} {cycle}: {e}"));
                replay.counts.push(OpCounts::default());
            }
        }
        end_op(p);
    }
    replay
}

/// Sum over the picked windows of each window's floor across
/// `replays`, and how many windows were picked.
fn floor_sum(
    replays: &[Replay],
    pick: impl Fn(Name) -> bool,
) -> Result<(stats::Estimate, usize), String> {
    let picked: Vec<Vec<f64>> = replays
        .iter()
        .map(|r| {
            let windows = r.windows.iter().filter(|(name, _)| pick(*name));
            windows.map(|(_, s)| *s).collect()
        })
        .collect();
    let windows = picked[0].len();
    stats::windowed(&picked, stats::MIN_WINDOWED).map(|e| (e, windows))
}

pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = args.untraced_seconds();
    let start = Instant::now();
    let mut replays = Vec::new();
    // No replay is started that would end after the time is up.
    let mut longest = std::time::Duration::ZERO;
    while start.elapsed() + longest < budget || replays.len() < stats::MIN_WINDOWED {
        let t = Instant::now();
        replays.push(replay(kind, args.seed, &mut Off, |_| {}, false));
        crate::host::replay_done();
        longest = longest.max(t.elapsed());
    }
    let setups: Vec<f64> = replays.iter().map(|r| r.setup_s).collect();
    report.set("setup_s", stats::floor_of(&setups).floor);
    let (script, _) = floor_sum(&replays, |_| true)?;
    let ops = kind.ops();
    report.set("work_per_s", ops as f64 / script.floor);
    report.set("bench.p50_over_floor", script.p50 / script.floor);
    report.note(format!(
        "{} replays of {ops} {kind:?} operations, {:.3} ms each",
        replays.len(),
        script.floor * 1e3 / ops as f64
    ));

    // Seeded orchestrator and solver: every replay does identical work.
    let counts = &replays[0].counts;
    if let Some(r) = replays.iter().find(|r| r.counts != *counts) {
        let at = r.counts.iter().zip(counts).position(|(a, b)| a != b);
        report.problem(format!(
            "replays differ in their counts at operation {at:?}"
        ));
    }
    report.attempted = (replays.len() * ops) as u64;
    report.failed = replays.iter().map(|r| r.failed_ops).sum();
    if let Some(e) = replays.iter().find_map(|r| r.first_failure.as_ref()) {
        report.problem(e.clone());
    }
    let total = |f: fn(&OpCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let moves = total(|c| c.moves);
    report.set("sm-core.moves_per_op", moves / ops as f64);
    report.set("sm-core.rpcs_per_move", total(|c| c.rpcs) / moves.max(1.0));
    report.set(
        "sm-core.inflight_max",
        counts.iter().map(|c| c.inflight_max).max().unwrap_or(0) as f64,
    );
    if kind == Kind::Rebalance {
        let planning = counts.iter().filter(|c| c.planned > 0).count();
        if planning * 10 < ops * 9 {
            report.problem(format!(
                "only {planning} of {ops} rebalances planned a move"
            ));
        }
    }

    // Per call, from the same untraced windows; a call this kind of
    // operation does not make is left out.
    for (name, metric, scale) in [
        (Name::ServerDown, "sm-core.server_down_ms", 1e3),
        (Name::RunEmergency, "sm-core.run_emergency_ms", 1e3),
        (Name::ReportLoad, "sm-core.report_load_ms", 1e3),
        (Name::RunPeriodic, "sm-core.run_periodic_ms", 1e3),
        (Name::DrainServer, "sm-core.drain_server_ms", 1e3),
        (Name::Settle, "sm-core.settle_ms", 1e3),
        (Name::CurrentMap, "sm-core.current_map_ms", 1e3),
        (Name::Publish, "sm-routing.discovery_publish_us", 1e6),
        (Name::InstallMap, "sm-routing.install_map_ms", 1e3),
    ] {
        if replays[0].windows.iter().any(|(n, _)| *n == name) {
            let (e, calls) = floor_sum(&replays, |n| n == name)?;
            report.set(metric, e.floor * scale / calls as f64);
        }
    }

    if args.trace {
        traced(args, kind, script.floor, &mut report);
    }
    Ok(report)
}

/// The traced replays: spans around every call and every RPC ack, the
/// allocator and snapshot measurements beside the script.
fn traced(args: &Args, kind: Kind, untraced_script_s: f64, report: &mut Report) {
    let mut tracer = Tracer::new(kind.ops() as u32);
    report.set("bench.span_cost_ns", tracer.span_cost_ns());
    let start = Instant::now();
    let mut ops: Vec<Vec<OpTotals>> = Vec::new();
    let mut shadows: Vec<Shadow> = Vec::new();
    while ops.is_empty() || start.elapsed() < args.traced_seconds() {
        let mut totals = Vec::new();
        let r = replay(
            kind,
            args.seed,
            &mut tracer,
            |t| totals.push(t.end_op()),
            true,
        );
        ops.push(totals);
        shadows.push(r.shadow);
    }
    // Per operation the fastest traced replay, summed over operations.
    let floor_over_ops = |f: &dyn Fn(&OpTotals) -> f64| -> f64 {
        (0..ops[0].len())
            .map(|i| {
                let column: Vec<f64> = ops.iter().map(|replay| f(&replay[i])).collect();
                stats::floor_of(&column).floor
            })
            .sum()
    };
    let count = |name: Name| -> f64 { ops[0].iter().map(|t| t.get(name).count as f64).sum() };
    let op_ns = floor_over_ops(&|t| t.get(Name::Op).span_ns);
    let op_self_ns = floor_over_ops(&|t| t.get(Name::Op).self_ns);
    report.set("bench.stage_coverage", 1.0 - op_self_ns / op_ns);
    if op_self_ns > 0.1 * op_ns {
        report.problem(format!(
            "stages cover only {} of the operations",
            1.0 - op_self_ns / op_ns
        ));
    }
    report.set(
        "bench.trace_overhead_ratio",
        op_ns / 1e9 / untraced_script_s,
    );
    for (name, metric) in [
        (Name::RpcAcked, "sm-core.rpc_acked_us"),
        (Name::TakeCommands, "sm-core.take_commands_us"),
    ] {
        let self_ns = floor_over_ops(&|t| t.get(name).self_ns);
        report.set(metric, self_ns / 1e3 / count(name).max(1.0));
    }

    // The same shadow measurements in every traced replay: the fastest
    // of each, then the mean.
    let fastest = |f: &dyn Fn(&Shadow) -> Vec<f64>| -> Vec<f64> {
        let per_replay: Vec<Vec<f64>> = shadows.iter().map(f).collect();
        (0..per_replay[0].len())
            .map(|i| {
                let column: Vec<f64> = per_replay.iter().map(|r| r[i]).collect();
                stats::floor_of(&column).floor
            })
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    report.set(
        "sm-core.snapshot_ms",
        mean(&fastest(&|s| s.snapshot_ms.clone())),
    );
    report.set("sm-core.snapshot_bytes", shadows[0].snapshot_bytes as f64);
    let evals = |s: &Shadow| -> Vec<u64> { s.plans.iter().map(|p| p.1).collect() };
    if shadows.iter().any(|s| evals(s) != evals(&shadows[0])) {
        report.problem("solver evaluations differ between replays".into());
    }
    let plan_ms = mean(&fastest(&|s| s.plans.iter().map(|p| p.0).collect()));
    match kind {
        Kind::Failover => report.set("sm-allocator.plan_emergency_ms", plan_ms),
        Kind::Rebalance => {
            report.set("sm-allocator.plan_periodic_ms", plan_ms);
            let evals = mean(
                &evals(&shadows[0])
                    .iter()
                    .map(|&e| e as f64)
                    .collect::<Vec<_>>(),
            );
            report.set("sm-solver.evals_per_plan", evals);
            report.set("sm-solver.evals_per_s", evals / (plan_ms / 1e3));
            if let Some(call_ms) = report.values.get("sm-core.run_periodic_ms").copied() {
                report.set("sm-core.build_input_ms", call_ms - plan_ms);
            }
        }
        Kind::Drain => {
            let (ms, moved) = full_scale_drain(args.seed, report);
            report.set("sm-core.drain_full_scale_ms", ms);
            report.note(format!(
                "one drain of {moved} replicas on {} shards x {} servers took {ms:.0} ms",
                FLEET.shards, FLEET.servers
            ));
        }
    }
    report.tracer = Some(tracer);
}

/// One drain on the large fleet, once: what `drain_server` costs at the
/// size the other two kinds run at, too long to replay. Returns the
/// milliseconds in `drain_server` and the replicas it moved.
fn full_scale_drain(seed: u64, report: &mut Report) -> (f64, usize) {
    let mut plane = Plane::new(FLEET, seed);
    plane.bootstrap();
    let server = plane.order[0];
    let t = Instant::now();
    let moved = plane.orch.drain_server(server);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    settle(&mut plane.orch, &mut Off);
    plane.orch.drain_finished(server);
    let version = plane.publish(&mut Off, &mut Vec::new());
    report.attempted += 1;
    if let Err(e) = plane.check(version) {
        report.failed += 1;
        report.problem(format!("full-scale drain: {e}"));
    }
    if !plane.orch.shards_on(server).is_empty() {
        report.failed += 1;
        report.problem("the full-scale drain left replicas behind".into());
    }
    (ms, moved)
}
