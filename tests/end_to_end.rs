//! Cross-crate integration tests: full simulated deployments driven
//! through the public API of the facade crate.

use shard_manager::apps::harness::{AppKind, ExperimentConfig, SimWorld, WorldEvent};
use shard_manager::apps::kit::{default_orch_config, loc};
use shard_manager::apps::{AppResponse, ShardHost};
use shard_manager::core::{OrchCommand, Orchestrator, ServerRpc};
use shard_manager::sim::{SimDuration, SimTime, Simulation};
use shard_manager::types::{
    AppId, AppPolicy, LoadVector, Metric, RegionId, ReplicaRole, ServerId, ShardId,
};
use std::collections::{BTreeMap, VecDeque};

#[test]
fn upgrade_under_full_sm_is_lossless() {
    let mut cfg = ExperimentConfig::single_region(12, 300);
    cfg.clients_per_region = 6;
    cfg.request_rate = 8.0;
    cfg.policy.max_concurrent_container_ops = 2;
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(50));
    let before = sim.world().stats;
    sim.schedule_at(
        SimTime::from_secs(51),
        WorldEvent::StartUpgrade {
            region: RegionId(0),
            version: 2,
        },
    );
    sim.run_until(SimTime::from_secs(900));
    let w = sim.world();
    assert!(
        w.cluster_manager(RegionId(0))
            .unwrap()
            .upgrade_finished(AppId(0)),
        "upgrade converged"
    );
    assert_eq!(
        w.stats.failed, before.failed,
        "no request failed during the graceful upgrade"
    );
    assert!(
        w.stats.forwarded > 0,
        "the §4.3 forwarding path was exercised"
    );
    // Every container runs the new binary.
    let cm = w.cluster_manager(RegionId(0)).unwrap();
    for c in cm.containers_of(AppId(0)) {
        assert_eq!(c.version, 2);
    }
}

#[test]
fn blind_upgrade_loses_requests() {
    let mut cfg = ExperimentConfig::single_region(12, 300);
    cfg.clients_per_region = 6;
    cfg.request_rate = 8.0;
    cfg.use_taskcontroller = false;
    cfg.graceful_migration = false;
    cfg.no_tc_concurrency = 2;
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(50));
    let before = sim.world().stats;
    sim.schedule_at(
        SimTime::from_secs(51),
        WorldEvent::StartUpgrade {
            region: RegionId(0),
            version: 2,
        },
    );
    sim.run_until(SimTime::from_secs(900));
    let w = sim.world();
    assert!(
        w.stats.failed > before.failed,
        "blind restarts must drop requests"
    );
}

#[test]
fn region_failure_and_recovery_round_trip() {
    let mut cfg = ExperimentConfig::three_region_geo(6, 120);
    cfg.policy = AppPolicy::secondary_only(2);
    cfg.clients_per_region = 3;
    cfg.request_rate = 4.0;
    cfg.failure_detection = SimDuration::from_secs(10);
    cfg.periodic_alloc_interval = SimDuration::from_secs(30);
    let mut sim = SimWorld::primed(cfg);
    sim.schedule_at(SimTime::from_secs(90), WorldEvent::RegionFail(RegionId(0)));
    sim.run_until(SimTime::from_secs(250));
    {
        // All shards still fully replicated outside the dead region.
        let w = sim.world();
        for s in 0..120 {
            let replicas = w.orchestrator().assignment().replicas(ShardId(s));
            assert_eq!(replicas.len(), 2, "shard {s} re-replicated");
            for r in replicas {
                assert_ne!(w.server_region(r.server), Some(RegionId(0)));
            }
        }
    }
    sim.schedule_at(
        SimTime::from_secs(260),
        WorldEvent::RegionRecover(RegionId(0)),
    );
    sim.run_until(SimTime::from_secs(500));
    let w = sim.world();
    // Replicas spread back across all three regions (load balancing
    // pulls some home even without preferences).
    let in_r0 = (0..120)
        .filter(|&s| {
            w.orchestrator()
                .assignment()
                .replicas(ShardId(s))
                .iter()
                .any(|r| w.server_region(r.server) == Some(RegionId(0)))
        })
        .count();
    assert!(in_r0 > 0, "recovered region gets replicas again");
    assert!(w.stats.success_rate() > 0.9, "{:?}", w.stats);
}

#[test]
fn crash_failover_preserves_every_shard() {
    let mut cfg = ExperimentConfig::single_region(8, 200);
    cfg.failure_detection = SimDuration::from_secs(5);
    cfg.clients_per_region = 4;
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(40));
    sim.schedule_at(SimTime::from_secs(41), WorldEvent::ServerCrash(ServerId(3)));
    sim.schedule_at(SimTime::from_secs(42), WorldEvent::ServerCrash(ServerId(4)));
    sim.run_until(SimTime::from_secs(200));
    let w = sim.world();
    assert_eq!(w.orchestrator().assignment().shard_count(), 200);
    assert!(w.orchestrator().shards_on(ServerId(3)).is_empty());
    assert!(w.orchestrator().shards_on(ServerId(4)).is_empty());
    for s in 0..200 {
        assert!(w
            .orchestrator()
            .assignment()
            .primary_of(ShardId(s))
            .is_some());
    }
}

#[test]
fn queue_app_world_preserves_order_metrics() {
    let mut cfg = ExperimentConfig::single_region(6, 60);
    cfg.app = AppKind::Queue;
    cfg.clients_per_region = 4;
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(120));
    let w = sim.world();
    assert!(w.stats.ok > 500, "queue world serves: {:?}", w.stats);
    assert!(w.stats.success_rate() > 0.99);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut cfg = ExperimentConfig::single_region(6, 100);
        cfg.clients_per_region = 3;
        let mut sim = SimWorld::primed(cfg);
        sim.schedule_at(SimTime::from_secs(60), WorldEvent::ServerCrash(ServerId(1)));
        sim.run_until(SimTime::from_secs(150));
        let w = sim.world();
        (
            w.stats.ok,
            w.stats.failed,
            w.orchestrator().stats().completed_moves,
        )
    };
    assert_eq!(run(), run(), "same seed, same world, same outcome");
}

#[test]
fn maintenance_window_with_preparation_keeps_primaries_available() {
    use shard_manager::cluster::MaintenanceImpact;
    let mut cfg = ExperimentConfig::single_region(8, 120);
    cfg.policy = AppPolicy::primary_secondary(1);
    cfg.clients_per_region = 4;
    cfg.request_rate = 6.0;
    // Detection slower than the 60 s window: no failover churn, the
    // §4.2 preparation is what carries availability.
    cfg.failure_detection = SimDuration::from_secs(90);
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(50));

    let affected = vec![ServerId(0), ServerId(1)];
    sim.schedule_at(
        SimTime::from_secs(55),
        WorldEvent::MaintenancePrepare {
            servers: affected.clone(),
        },
    );
    sim.schedule_at(
        SimTime::from_secs(60),
        WorldEvent::MaintenanceStart {
            region: RegionId(0),
            servers: affected.clone(),
            impact: MaintenanceImpact::NetworkLoss,
        },
    );
    sim.schedule_at(
        SimTime::from_secs(120),
        WorldEvent::MaintenanceEnd {
            region: RegionId(0),
            servers: affected.clone(),
            impact: MaintenanceImpact::NetworkLoss,
        },
    );
    // During the window, no primary sits on an affected server (every
    // shard here has a secondary elsewhere to promote).
    sim.run_until(SimTime::from_secs(90));
    {
        let w = sim.world();
        for s in 0..120 {
            if let Some(p) = w.orchestrator().assignment().primary_of(ShardId(s)) {
                assert!(!affected.contains(&p), "shard {s} primary in blast radius");
            }
        }
    }
    sim.run_until(SimTime::from_secs(300));
    let w = sim.world();
    assert!(
        w.stats.success_rate() > 0.97,
        "maintenance handled gracefully: {:?}",
        w.stats
    );
    assert_eq!(w.serving_count(), 8, "everyone back after the window");
}

#[test]
fn a_region_back_before_detection_serves_its_shards_again() {
    // Region 0 is down for 5 s against 20 s failure detection: the
    // control plane never sees the loss, so its servers restart empty
    // while still assigned their shards and must be reconciled.
    let mut cfg = ExperimentConfig::three_region_geo(4, 60);
    cfg.clients_per_region = 3;
    cfg.request_rate = 4.0;
    let mut sim = SimWorld::primed(cfg);
    sim.schedule_at(SimTime::from_secs(90), WorldEvent::RegionFail(RegionId(0)));
    sim.schedule_at(
        SimTime::from_secs(95),
        WorldEvent::RegionRecover(RegionId(0)),
    );
    sim.run_until(SimTime::from_secs(120));
    let before = sim.world().stats;
    sim.run_until(SimTime::from_secs(600));
    let w = sim.world();
    assert!(w.stats.ok > before.ok, "{:?}", w.stats);
    assert_eq!(w.stats.failed, before.failed, "{:?}", w.stats);
    assert_eq!(w.stats.not_mine, before.not_mine, "{:?}", w.stats);
}

/// A container still restarting when its region comes back stays down
/// until its restart completes: the region's recovery brings back only
/// the containers the cluster manager recovered.
#[test]
fn a_container_still_restarting_stays_down_when_its_region_recovers() {
    let mut cfg = ExperimentConfig::single_region(8, 96);
    cfg.policy.max_concurrent_container_ops = 2;
    let mut sim = SimWorld::primed(cfg);
    sim.run_until(SimTime::from_secs(30));
    sim.schedule_in(
        SimDuration::ZERO,
        WorldEvent::StartUpgrade {
            region: RegionId(0),
            version: 2,
        },
    );
    let executing = |sim: &Simulation<SimWorld>| {
        let cm = sim.world().cluster_manager(RegionId(0));
        cm.map_or(0, |cm| cm.executing_count())
    };
    while executing(&sim) == 0 {
        assert!(sim.step(), "the upgrade starts a restart");
    }
    let failed_at = sim.now();
    sim.schedule_in(SimDuration::ZERO, WorldEvent::RegionFail(RegionId(0)));
    let recover = WorldEvent::RegionRecover(RegionId(0));
    sim.schedule_in(SimDuration::from_secs(2), recover);
    sim.run_until(failed_at + SimDuration::from_secs(3));
    let restarting = executing(&sim);
    assert!(restarting > 0, "the restarts outlast the outage");
    assert_eq!(sim.world().serving_count(), 8 - restarting);
}

/// Applies one control-plane RPC to a host (`ShardHost` is the
/// bookkeeping, not a `ShardServer`).
fn apply(host: &mut ShardHost, rpc: ServerRpc) {
    let applied = match rpc {
        ServerRpc::AddShard { shard, role } => host.add_shard(shard, role),
        ServerRpc::DropShard { shard } => host.drop_shard(shard),
        ServerRpc::ChangeRole {
            shard,
            current,
            new,
        } => host.change_role(shard, current, new),
        ServerRpc::PrepareAddShard {
            shard,
            current_owner,
            role,
        } => host.prepare_add_shard(shard, current_owner, role),
        ServerRpc::PrepareDropShard {
            shard,
            new_owner,
            role,
        } => host.prepare_drop_shard(shard, new_owner, role),
        ServerRpc::SplitForward { .. } | ServerRpc::MergeForward { .. } => {
            panic!("no reshard in this world: {rpc:?}")
        }
    };
    applied.unwrap_or_else(|e| panic!("{rpc:?}: {e}"));
}

/// One control-plane event `settle` saw.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Seen {
    Sent(ServerId, ServerRpc),
    Acked(ServerId, ServerRpc),
}

/// Delivers every command oldest first, applying and acking each, except
/// the RPCs `fail` picks, which are answered with `rpc_failed` and never
/// applied. Returns what was sent and acked, in order.
fn settle(
    cp: &mut Orchestrator,
    hosts: &mut BTreeMap<ServerId, ShardHost>,
    mut fail: impl FnMut(ServerId, ServerRpc) -> bool,
) -> Vec<Seen> {
    let (mut seen, mut queue) = (Vec::new(), VecDeque::new());
    for _ in 0..1_000 {
        for cmd in cp.take_commands() {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                seen.push(Seen::Sent(server, rpc));
                queue.push_back((server, rpc));
            }
        }
        let Some((server, rpc)) = queue.pop_front() else {
            return seen;
        };
        if fail(server, rpc) {
            cp.rpc_failed(server, rpc);
        } else {
            apply(hosts.entry(server).or_default(), rpc);
            cp.rpc_acked(server, rpc);
            seen.push(Seen::Acked(server, rpc));
        }
    }
    panic!("the orchestrator never went quiet");
}

/// §4.3: a graceful move whose step-3 `AddShard` fails is aborted, its
/// target reclaimed, and — once that reclaim is acked, so the two never
/// overlap as willing primaries (§3.2) — its source resumed: `srv0`
/// serves `shard0` again instead of forwarding it into `srv1`'s
/// `NotMine`, and there is nothing left to repair.
#[test]
fn an_aborted_graceful_move_hands_its_shard_back() {
    let (srv0, srv1, srv2) = (ServerId(0), ServerId(1), ServerId(2));
    let shard0 = ShardId(0);
    let capacity = || LoadVector::single(Metric::ShardCount.id(), 1000.0);
    let mut cp = Orchestrator::new(AppId(0), AppPolicy::primary_only(), default_orch_config());
    let mut hosts = BTreeMap::new();

    // srv0 alone takes all four shards.
    cp.register_server(srv0, loc(0), capacity());
    cp.register_shards((0..4).map(ShardId));
    cp.run_emergency();
    settle(&mut cp, &mut hosts, |_, _| false);
    assert_eq!(cp.assignment().primary_of(shard0), Some(srv0));

    // Two empty servers join; draining srv0 moves every shard off it
    // gracefully. The first AddShard of shard0 (step 3, to srv1) fails.
    cp.register_server(srv1, loc(1), capacity());
    cp.register_server(srv2, loc(2), capacity());
    assert!(cp.drain_server(srv0) > 0);
    let mut failed = None;
    let seen = settle(&mut cp, &mut hosts, |server, rpc| {
        let first =
            failed.is_none() && matches!(rpc, ServerRpc::AddShard { shard, .. } if shard == shard0);
        if first {
            failed = Some(server);
        }
        first
    });
    assert_eq!(failed, Some(srv1), "shard0's step 3 went to srv1");

    // The control plane: srv0 is shard0's primary, nothing is in flight.
    assert_eq!(cp.assignment().primary_of(shard0), Some(srv0));
    assert_eq!(cp.in_flight_migrations(), 0);

    // The resume is sent only after srv1 has acked dropping its copy.
    let position = |event| seen.iter().position(|e| *e == event);
    let reclaimed = position(Seen::Acked(srv1, ServerRpc::DropShard { shard: shard0 }));
    let resume = ServerRpc::AddShard {
        shard: shard0,
        role: ReplicaRole::Primary,
    };
    let resumed = position(Seen::Sent(srv0, resume));
    assert!(reclaimed.is_some() && resumed.is_some(), "{seen:?}");
    assert!(resumed > reclaimed, "resumed before the reclaim was acked");

    // The hosts agree: srv0 serves shard0 again, srv1 holds nothing.
    for forwarded in [false, true] {
        assert_eq!(hosts[&srv0].admit(shard0, forwarded), AppResponse::Serve);
        assert_eq!(hosts[&srv1].admit(shard0, forwarded), AppResponse::NotMine);
    }

    // Nothing to repair: an emergency run plans nothing and sends nothing.
    assert_eq!(cp.run_emergency(), 0);
    assert!(cp.take_commands().is_empty());
}

/// Drains `cp`'s outbox into its RPCs, dropping map notices.
fn rpcs(cp: &mut Orchestrator) -> Vec<(ServerId, ServerRpc)> {
    let cmds = cp.take_commands().into_iter();
    let rpc = |cmd| match cmd {
        OrchCommand::Rpc { server, rpc } => Some((server, rpc)),
        _ => None,
    };
    cmds.filter_map(rpc).collect()
}

/// §3.2: a new owner is enabled only after the old one is disabled. A
/// drain moves `shard0`'s primary to an empty server, and the source
/// dies while the step-3 `AddShard` to that target is unacked: the
/// target may hold a primary-willing copy, so the surviving secondary
/// is promoted only once the target has acked dropping it.
#[test]
fn a_lost_primary_is_inherited_only_after_the_suspect_copy_is_dropped() {
    let shard0 = ShardId(0);
    let capacity = || LoadVector::single(Metric::ShardCount.id(), 1000.0);
    let policy = AppPolicy::primary_secondary(1);
    let mut cp = Orchestrator::new(AppId(0), policy, default_orch_config());
    let mut hosts = BTreeMap::new();

    // shard0 on srv0 and srv1; srv2 joins empty.
    cp.register_server(ServerId(0), loc(0), capacity());
    cp.register_server(ServerId(1), loc(1), capacity());
    cp.register_shards([shard0]);
    cp.run_emergency();
    settle(&mut cp, &mut hosts, |_, _| false);
    let primary = cp.assignment().primary_of(shard0).expect("placed");
    let heir = ServerId(1 - primary.raw());
    let target = ServerId(2);
    cp.register_server(target, loc(2), capacity());

    // Drain the primary; deliver in order until step 3 reaches srv2.
    assert_eq!(cp.drain_server(primary), 1);
    let mut queue = VecDeque::new();
    loop {
        queue.extend(rpcs(&mut cp));
        let (server, rpc) = queue.pop_front().expect("the move reaches step 3");
        if server == target && matches!(rpc, ServerRpc::AddShard { .. }) {
            break; // held unacked
        }
        apply(hosts.entry(server).or_default(), rpc);
        cp.rpc_acked(server, rpc);
    }

    // The primary dies: only the reclaim of the suspect copy is sent.
    cp.server_down(primary);
    let reclaim = ServerRpc::DropShard { shard: shard0 };
    assert_eq!(rpcs(&mut cp), [(target, reclaim)], "no promotion yet");

    // Its ack enables the heir.
    apply(hosts.entry(target).or_default(), reclaim);
    cp.rpc_acked(target, reclaim);
    let promote = ServerRpc::ChangeRole {
        shard: shard0,
        current: ReplicaRole::Secondary,
        new: ReplicaRole::Primary,
    };
    assert!(rpcs(&mut cp).contains(&(heir, promote)));
    apply(hosts.entry(heir).or_default(), promote);
    cp.rpc_acked(heir, promote);
    assert_eq!(cp.assignment().primary_of(shard0), Some(heir));
}
