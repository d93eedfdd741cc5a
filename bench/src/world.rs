//! The whole-system workload: `world_upgrade`.
//!
//! The paper's headline experiment (Fig 17) on the simulator: a
//! primary-only KV app of 2,000 shards on 24 servers, 12 clients at 10
//! requests a second, and a rolling upgrade that restarts at most 10%
//! of the containers at a time behind the TaskController and graceful
//! migration. `sm-sim`, `sm-cluster`, the TaskController, the
//! orchestrator, discovery, routers and the app all run together.
//!
//! The script warms the world to sim-t = 600 s (the set-up window),
//! starts the upgrade at 601 s and runs to 1,500 s in windows of a
//! tenth of a simulated second (some 40 events, 150 µs: short enough to
//! run undisturbed on a busy host); it is replayed from scratch until
//! the time is up. The end is fixed and not "when the upgrade has
//! finished": an upgrade does the same work whether it takes 424 or 704
//! simulated seconds, so the events of a fixed stretch cost the same
//! for every seed, and those of the upgrade alone do not (133,000 to
//! 169,000 a second).

use crate::stats;
use crate::trace::{Name, OpTotals, Probe, Tracer};
use crate::{Args, Report};
use sm_apps::harness::{ExperimentConfig, SimWorld, WorldEvent};
use sm_apps::{run_chaos, run_reconfig, run_split, ChaosConfig, ReconfigConfig, SplitConfig};
use sm_cluster::{ContainerOp, OpId, OpKind, OpReason};
use sm_core::{AvailabilityView, TaskController};
use sm_sim::{Ctx, FaultProfile, SimDuration, SimTime, Simulation, World};
use sm_types::{AppId, ContainerId, RegionId, ReplicaRole, ShardId};
use std::time::Instant;

const SERVERS: u32 = 24;
const SHARDS: u64 = 2_000;
const CLIENTS: u32 = 12;
const REQUESTS_PER_CLIENT_S: f64 = 10.0;
const WARM_S: u64 = 600;
/// The upgrade takes 424 to 704 simulated seconds; one that has not
/// finished by then fails the run.
const END_S: u64 = 1_500;
const WINDOW_MS: u64 = 100;
const REGION: RegionId = RegionId(0);

/// Replays of each DST cell, of the bare engine, and of the
/// TaskController review, in the traced run.
const CELL_REPLAYS: usize = 5;
const REVIEW_REPLAYS: usize = 40;
/// Reviews timed together: one takes tens of nanoseconds.
const REVIEW_BATCH: usize = 1_000;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::single_region(SERVERS, SHARDS);
    cfg.seed = seed;
    cfg.policy.max_concurrent_container_ops = (SERVERS / 10).max(1);
    cfg.no_tc_concurrency = (SERVERS as usize / 10).max(1);
    cfg.request_rate = REQUESTS_PER_CLIENT_S;
    cfg.clients_per_region = CLIENTS;
    cfg
}

/// One replay of the script; the counts must repeat exactly.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    /// Seconds per upgrade window.
    windows: Vec<f64>,
    counts: Counts,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Counts {
    /// Events handled in the upgrade windows.
    steps: u64,
    ok: u64,
    failed: u64,
    forwarded: u64,
    /// Simulated milliseconds from `StartUpgrade` to the end of the
    /// window `upgrade_finished` first held in; 0 when it never did.
    upgrade_sim_ms: u64,
}

fn warmed(seed: u64) -> (Simulation<SimWorld>, f64) {
    let t = Instant::now();
    let mut sim = SimWorld::primed(config(seed));
    sim.run_until(SimTime::from_secs(WARM_S));
    sim.schedule_at(
        SimTime::from_secs(WARM_S + 1),
        WorldEvent::StartUpgrade {
            region: REGION,
            version: 2,
        },
    );
    (sim, t.elapsed().as_secs_f64())
}

fn upgrade_finished(sim: &Simulation<SimWorld>) -> bool {
    sim.world()
        .cluster_manager(REGION)
        .is_some_and(|cm| cm.upgrade_finished(AppId(0)))
}

/// The ends of the upgrade windows, in simulated milliseconds.
fn window_ends_ms() -> impl Iterator<Item = u64> {
    (WARM_S * 1000 + WINDOW_MS..=END_S * 1000).step_by(WINDOW_MS as usize)
}

const UPGRADE_START_MS: u64 = (WARM_S + 1) * 1000;

fn counts(sim: &Simulation<SimWorld>, steps_before: u64, upgrade_sim_ms: u64) -> Counts {
    let stats = sim.world().stats;
    Counts {
        steps: sim.steps() - steps_before,
        ok: stats.ok,
        failed: stats.failed,
        forwarded: stats.forwarded,
        upgrade_sim_ms,
    }
}

/// An untraced replay: one `run_until` per window.
fn replay(seed: u64) -> Replay {
    let (mut sim, setup_s) = warmed(seed);
    let steps_before = sim.steps();
    let mut windows = Vec::with_capacity(window_ends_ms().count());
    let mut upgrade_sim_ms = 0;
    // Nothing is being upgraded before `StartUpgrade` either.
    let mut upgrading = false;
    for end in window_ends_ms() {
        let t = Instant::now();
        sim.run_until(SimTime::from_millis(end));
        windows.push(t.elapsed().as_secs_f64());
        if upgrade_sim_ms == 0 {
            if !upgrade_finished(&sim) {
                upgrading = true;
            } else if upgrading {
                upgrade_sim_ms = end - UPGRADE_START_MS;
            }
        }
    }
    Replay {
        setup_s,
        windows,
        counts: counts(&sim, steps_before, upgrade_sim_ms),
    }
}

/// What a traced replay returns.
struct Traced {
    totals: Vec<OpTotals>,
    steps: u64,
    /// Simulated seconds from `StartUpgrade` to the event after which
    /// `upgrade_finished` first held (exact); 0 when it never did.
    upgrade_sim_s: f64,
}

/// A traced replay: the same script one `Simulation::step` at a time
/// (`step` takes no deadline, so a window ends with the first event at
/// or past its end), a span around every step.
fn traced_replay(seed: u64, tracer: &mut Tracer) -> Traced {
    let (mut sim, _) = warmed(seed);
    let steps_before = sim.steps();
    let mut totals = Vec::new();
    let mut upgrade_sim_s = 0.0;
    let mut upgrading = false;
    for end in window_ends_ms() {
        let window = tracer.enter(Name::Window);
        while sim.now() < SimTime::from_millis(end) {
            let step = tracer.enter(Name::WorldStep);
            let more = sim.step();
            tracer.exit(step);
            if upgrade_sim_s == 0.0 {
                if !upgrade_finished(&sim) {
                    upgrading = true;
                } else if upgrading {
                    upgrade_sim_s = sim.now().as_secs_f64() - UPGRADE_START_MS as f64 / 1e3;
                }
            }
            if !more {
                break;
            }
        }
        tracer.exit(window);
        totals.push(tracer.end_op());
    }
    Traced {
        totals,
        steps: sim.steps() - steps_before,
        upgrade_sim_s,
    }
}

/// A world that only keeps the engine busy: each event schedules the
/// next of its chain.
struct Idle;

impl World for Idle {
    type Event = SimDuration;

    fn handle(&mut self, ctx: &mut Ctx<'_, SimDuration>, gap: SimDuration) {
        ctx.schedule_in(gap, gap);
    }
}

/// Wall ns per event of the bare engine over `events` events.
fn engine_ns_per_event(seed: u64, events: u64) -> f64 {
    let mut sim = Simulation::new(Idle, seed);
    // As many concurrent chains as the world has clients and servers,
    // at gaps around the clients' 100 ms.
    for chain in 0..u64::from(CLIENTS + SERVERS) {
        sim.schedule_in(
            SimDuration::from_millis(chain),
            SimDuration::from_millis(60 + 3 * chain),
        );
    }
    let t = Instant::now();
    for _ in 0..events {
        sim.step();
    }
    t.elapsed().as_secs_f64() * 1e9 / events as f64
}

/// `TaskController::review` of a restart of every container, on a view
/// the size of this world's.
fn tc_review_us() -> f64 {
    let ops: Vec<ContainerOp> = (0..SERVERS)
        .map(|i| ContainerOp {
            id: OpId(u64::from(i)),
            container: ContainerId(i),
            kind: OpKind::Restart,
            reason: OpReason::Upgrade,
        })
        .collect();
    let mut view = AvailabilityView::default();
    for container in 0..SERVERS {
        let shards = (u64::from(container)..SHARDS)
            .step_by(SERVERS as usize)
            .map(|s| (ShardId(s), ReplicaRole::Primary))
            .collect();
        view.shards_on.insert(ContainerId(container), shards);
    }
    let policy = config(0).policy;
    let samples: Vec<f64> = (0..REVIEW_REPLAYS)
        .map(|_| {
            // A review changes the controller, so each gets a fresh one.
            let mut controllers: Vec<TaskController> = (0..REVIEW_BATCH)
                .map(|_| TaskController::new(policy.clone()))
                .collect();
            let t = Instant::now();
            for tc in &mut controllers {
                std::hint::black_box(tc.review(REGION, &ops, &view));
            }
            t.elapsed().as_secs_f64() * 1e6 / REVIEW_BATCH as f64
        })
        .collect();
    stats::floor_of(&samples).floor
}

fn cell_ms(mut cell: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CELL_REPLAYS)
        .map(|_| {
            let t = Instant::now();
            cell();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::floor_of(&samples).floor
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = args.untraced_seconds();
    let start = Instant::now();
    let mut replays = Vec::new();
    // No replay is started that would end after the time is up.
    let mut longest = std::time::Duration::ZERO;
    while start.elapsed() + longest < budget || replays.len() < stats::MIN_WINDOWED {
        let t = Instant::now();
        replays.push(replay(args.seed));
        crate::host::replay_done();
        longest = longest.max(t.elapsed());
    }
    let setups: Vec<f64> = replays.iter().map(|r| r.setup_s).collect();
    report.set("setup_s", stats::floor_of(&setups).floor);
    let windows: Vec<Vec<f64>> = replays.iter().map(|r| r.windows.clone()).collect();
    let script = stats::windowed(&windows, stats::MIN_WINDOWED)?;
    let counts = replays[0].counts;
    report.set("work_per_s", counts.steps as f64 / script.floor);
    report.set("sm-sim.steps", counts.steps as f64);
    report.set("sm-apps.world_forwarded", counts.forwarded as f64);
    report.set("bench.p50_over_floor", script.p50 / script.floor);
    report.note(format!(
        "{} replays of {} windows: {counts:?}",
        replays.len(),
        windows[0].len()
    ));

    report.attempted = counts.ok + counts.failed;
    report.failed = counts.failed;
    if counts.upgrade_sim_ms == 0 {
        report.problem("the upgrade did not finish".into());
    }
    if replays.iter().any(|r| r.counts != counts) {
        report.problem("replays differ in their counts".into());
    }

    if args.trace {
        let mut tracer = Tracer::new(4);
        report.set("bench.span_cost_ns", tracer.span_cost_ns());
        let Traced {
            totals,
            steps,
            upgrade_sim_s,
        } = traced_replay(args.seed, &mut tracer);
        report.set("op.upgrade_sim_s", upgrade_sim_s);
        // The exact time lies in the window the untraced replays saw it in.
        let window_end = counts.upgrade_sim_ms as f64 / 1e3;
        if !(window_end - WINDOW_MS as f64 / 1e3..=window_end).contains(&upgrade_sim_s) {
            report.problem(format!(
                "the traced upgrade took {upgrade_sim_s} s, the untraced ones {window_end} s"
            ));
        }
        let ns = |f: fn(&OpTotals) -> f64| totals.iter().map(f).sum::<f64>();
        let engine_ns = stats::floor_of(
            &(0..CELL_REPLAYS)
                .map(|_| engine_ns_per_event(args.seed, counts.steps))
                .collect::<Vec<f64>>(),
        )
        .floor;
        report.set("sm-sim.engine_ns_per_event", engine_ns);
        let step_ns = ns(|t| t.get(Name::WorldStep).self_ns) / steps as f64;
        report.set("sm-apps.world_step_us", (step_ns - engine_ns) / 1e3);
        report.set(
            "bench.trace_overhead_ratio",
            ns(|t| t.get(Name::Window).span_ns) / 1e9 / script.floor,
        );
        report.set("sm-core.tc_review_us", tc_review_us());
        // One seeded cell of each DST world: the before-numbers for the
        // world-kit and journal work (ROADMAP items 2 and 4). Their
        // oracles are tier-1's business, not this benchmark's.
        let cell_seed = 1 + args.seed % 8;
        report.set(
            "sm-apps.chaos_cell_ms",
            cell_ms(|| {
                std::hint::black_box(run_chaos(ChaosConfig::covering(cell_seed)));
            }),
        );
        report.set(
            "sm-apps.reconfig_cell_ms",
            cell_ms(|| {
                let cfg = ReconfigConfig::dst(cell_seed, FaultProfile::ReconfigChaos);
                std::hint::black_box(run_reconfig(cfg));
            }),
        );
        report.set(
            "sm-apps.split_cell_ms",
            cell_ms(|| {
                let cfg = SplitConfig::dst(cell_seed, FaultProfile::SplitChaos);
                std::hint::black_box(run_split(cfg));
            }),
        );
        report.tracer = Some(tracer);
    }
    Ok(report)
}
