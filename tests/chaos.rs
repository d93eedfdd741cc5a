//! Chaos acceptance gate: the ZooKeeper-backed control plane survives
//! a seeded fault schedule (tier-1; wired into `scripts/check.sh`).
//!
//! Three layers of checks:
//!
//! - the full chaos run ([`shard_manager::apps::run_chaos`]) meets the
//!   coverage floors (every mini-SM crashed, ≥10% of server sessions
//!   expired) and the safety floors (no dual primary, no dropped
//!   requests, converged after quiescence) with byte-identical traces
//!   per seed;
//! - recovery idempotence: killing a mini-SM after each step of the
//!   5-step graceful primary migration (§4.3) and failing over from
//!   the persisted znode leaves a consistent, serving system, and
//!   replaying the last-applied step is a no-op;
//! - fencing: a zombie mini-SM's write after failover gets an
//!   [`SmError`] and is provably absent from the znode.

use shard_manager::apps::kit::{default_orch_config, loc};
use shard_manager::apps::{run_chaos, AppResponse, ChaosConfig, ExternalStore, KvServer};
use shard_manager::core::ha::{paths, HaControlPlane, ServerLease};
use shard_manager::core::{ApplicationManager, OrchCommand, Partition, ServerRpc};
use shard_manager::types::{
    AppId, AppPolicy, LoadVector, Metric, PartitionId, ServerId, ShardId, ShardingSpec, SmError,
};
use shard_manager::zk::{WatchEvent, ZkStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

// ---------------------------------------------------------------- chaos

#[test]
fn chaos_meets_acceptance_floors() {
    let cfg = ChaosConfig::covering(42);
    let report = run_chaos(cfg);

    // Coverage floors.
    assert!(
        report.extra.crashed_minisms.len() >= report.extra.initial_minisms,
        "every mini-SM must crash at least once: {:?} of {}",
        report.extra.crashed_minisms,
        report.extra.initial_minisms
    );
    assert!(
        report.extra.expired_sessions.len() * 10 >= cfg.servers as usize,
        "at least 10% of server sessions must expire: {:?}",
        report.extra.expired_sessions
    );
    assert!(report.stats.server_crashes > 0, "{:?}", report.stats);

    // Safety floors.
    assert_eq!(report.stats.dual_primary, 0, "dual primary observed");
    assert_eq!(report.stats.dropped, 0, "requests dropped");
    assert!(
        report.converged,
        "not converged: {} shards unplaced",
        report.unplaced
    );

    // The run did real work and real recovery.
    assert!(report.stats.served > 1_000, "{:?}", report.stats);
    assert!(
        report.extra.ha.failovers as usize >= report.extra.initial_minisms,
        "{:?}",
        report.extra.ha
    );
    assert!(
        report.extra.ha.snapshot_restores > 0,
        "{:?}",
        report.extra.ha
    );
    assert!(
        !report.extra.recoveries_ms.is_empty(),
        "recovery time must be measured"
    );
}

#[test]
fn chaos_reruns_are_byte_identical_per_seed() {
    let a = run_chaos(ChaosConfig::covering(7));
    let b = run_chaos(ChaosConfig::covering(7));
    assert_eq!(a.trace_csv, b.trace_csv, "same seed must replay exactly");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.extra.recoveries_ms, b.extra.recoveries_ms);
    assert_eq!(a.extra.crashed_minisms, b.extra.crashed_minisms);

    let c = run_chaos(ChaosConfig::covering(8));
    assert_ne!(
        a.trace_csv, c.trace_csv,
        "different seeds must explore different histories"
    );
}

// ------------------------------------------------- recovery idempotence

struct Rig {
    zk: ZkStore,
    cp: HaControlPlane,
    hosts: BTreeMap<ServerId, KvServer>,
    partitions: Vec<Partition>,
    /// Held so the rig's server sessions never expire.
    _leases: Vec<ServerLease>,
}

/// Delivers pending watch events (and those they generate) to the
/// control plane.
fn deliver(r: &mut Rig, mut events: Vec<WatchEvent>) {
    let mut guard = 0;
    while let Some(e) = events.pop() {
        guard += 1;
        assert!(guard < 10_000, "watch event storm");
        events.extend(r.cp.handle_event(&mut r.zk, &e));
    }
}

/// Applies and acks every outstanding RPC until the stream drains,
/// mirroring the effects on the application servers.
fn settle(r: &mut Rig) {
    for _round in 0..300 {
        let cmds = r.cp.take_commands();
        if cmds.is_empty() {
            return;
        }
        for (_pid, cmd) in cmds {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                let ok = r
                    .hosts
                    .get_mut(&server)
                    .map(|h| rpc.dispatch(h).is_ok())
                    .unwrap_or(false);
                let events = if ok {
                    r.cp.rpc_acked(&mut r.zk, server, rpc)
                } else {
                    r.cp.rpc_failed(&mut r.zk, server, rpc)
                };
                deliver(r, events);
            }
        }
    }
}

fn rig(n_servers: u32, n_shards: u64) -> Rig {
    let mut zk = ZkStore::new();
    let (mut cp, setup) = HaControlPlane::new(
        &mut zk,
        default_orch_config(),
        LoadVector::single(Metric::ShardCount.id(), 1000.0),
        4,
    )
    .expect("control plane over fresh ZK");
    let app = AppId(0);
    cp.register_app(app, AppPolicy::primary_only());
    let spec = Rc::new(ShardingSpec::uniform_u64(n_shards));
    let external = Rc::new(RefCell::new(ExternalStore::new()));
    let mut r = Rig {
        zk,
        cp,
        hosts: BTreeMap::new(),
        partitions: Vec::new(),
        _leases: Vec::new(),
    };
    deliver(&mut r, setup);
    let server_ids: Vec<ServerId> = (0..n_servers).map(ServerId).collect();
    for &s in &server_ids {
        r.cp.register_server(&mut r.zk, s, loc(s.raw()));
        let (lease, events) = ServerLease::register(&mut r.zk, s).expect("fresh session");
        r._leases.push(lease);
        deliver(&mut r, events);
        r.hosts
            .insert(s, KvServer::new(s, spec.clone(), external.clone()));
    }
    let shard_ids: Vec<ShardId> = (0..n_shards).map(ShardId).collect();
    let mut mgr = ApplicationManager::new(4);
    let partitions = mgr.partition_app(app, &server_ids, &shard_ids);
    for p in &partitions {
        let events = r.cp.deploy_partition(&mut r.zk, p).expect("deploy");
        deliver(&mut r, events);
    }
    r.partitions = partitions;
    settle(&mut r);
    r
}

/// Routes one client request for `shard` the way service discovery
/// would — to the mapped primary, following forwards — and reports
/// whether some server ultimately served it.
fn request_lands(r: &mut Rig, pid: PartitionId, shard: ShardId) -> bool {
    let Some(orch) = r.cp.orchestrator(pid) else {
        return false;
    };
    let Some(mut target) = orch.assignment().primary_of(shard) else {
        return false;
    };
    let mut forwarded = false;
    for _hop in 0..5 {
        match r.hosts.get(&target).map(|h| h.admit(shard, forwarded)) {
            Some(AppResponse::Serve) => return true,
            Some(AppResponse::Forward(next)) => {
                target = next;
                forwarded = true;
            }
            Some(AppResponse::NotMine) | None => return false,
        }
    }
    false
}

/// Kills the owning mini-SM after exactly `k` acks of one shard's
/// graceful migration, fails over, and checks the recovered system.
fn crash_after_k_steps(k: usize) {
    let mut r = rig(8, 16);
    let p0 = r.partitions[0].clone();

    // Drain a server that hosts at least one shard — every hosted
    // primary starts a graceful migration.
    let victim = *p0
        .servers
        .iter()
        .find(|&&s| {
            r.cp.orchestrator(p0.id)
                .map(|o| !o.shards_on(s).is_empty())
                .unwrap_or(false)
        })
        .expect("some server hosts shards");
    let drained =
        r.cp.orchestrator(p0.id)
            .map(|o| o.drain_server(victim))
            .unwrap_or(0);
    assert!(drained > 0, "drain must start migrations");

    // Collect the first wave of RPCs and follow ONE shard's migration,
    // acking exactly k steps; other shards' migrations stay in flight.
    let mut pending: Vec<(ServerId, ServerRpc)> = Vec::new();
    for (_pid, cmd) in r.cp.take_commands() {
        if let OrchCommand::Rpc { server, rpc } = cmd {
            pending.push((server, rpc));
        }
    }
    let s0 = pending.first().expect("a migration RPC").1.shard();
    let mut last_ack: Option<(ServerId, ServerRpc)> = None;
    for _step in 0..k {
        let idx = pending
            .iter()
            .position(|&(_, rpc)| rpc.shard() == s0)
            .expect("next step RPC for the tracked shard");
        let (server, rpc) = pending.remove(idx);
        let applied = r
            .hosts
            .get_mut(&server)
            .map(|h| rpc.dispatch(h).is_ok())
            .unwrap_or(false);
        assert!(applied, "server must accept step RPC {rpc:?}");
        let events = r.cp.rpc_acked(&mut r.zk, server, rpc);
        deliver(&mut r, events);
        last_ack = Some((server, rpc));
        for (_pid, cmd) in r.cp.take_commands() {
            if let OrchCommand::Rpc { server, rpc } = cmd {
                pending.push((server, rpc));
            }
        }
    }

    // Crash the owning mini-SM mid-migration; the new owner restores
    // from the znode snapshot persisted at the last acked step.
    let owner = r.cp.registry.minism_of(p0.id).expect("partition owned");
    let events = r.cp.crash_minism(&mut r.zk, owner);
    deliver(&mut r, events);
    settle(&mut r);

    // The recovered control plane is consistent and serving.
    assert!(
        r.cp.fully_placed(),
        "k={k}: unplaced after failover: {:?}",
        r.cp.unplaced()
    );
    for &shard in &p0.shards {
        let willing = r
            .hosts
            .values()
            .filter(|h| h.admit(shard, false) == AppResponse::Serve)
            .count();
        assert!(willing <= 1, "k={k}: dual primary on {shard:?}");
        assert!(
            request_lands(&mut r, p0.id, shard),
            "k={k}: request for {shard:?} has nowhere to land"
        );
    }

    // Re-running the last applied step against the recovered
    // orchestrator is a no-op: the durable state already reflects it.
    if let Some((server, rpc)) = last_ack {
        let before =
            r.cp.orchestrator(p0.id)
                .map(|o| o.snapshot())
                .expect("recovered orchestrator");
        let events = r.cp.rpc_acked(&mut r.zk, server, rpc);
        deliver(&mut r, events);
        let after =
            r.cp.orchestrator(p0.id)
                .map(|o| o.snapshot())
                .expect("recovered orchestrator");
        assert_eq!(before, after, "k={k}: replayed step must be a no-op");
        assert!(
            r.cp.take_commands().is_empty(),
            "k={k}: replayed step must not emit RPCs"
        );
    }
}

// One test per step of the §4.3 graceful migration: k acks applied
// before the crash (k=0 → crash before any step lands; k=4 → crash
// after the final drop, i.e. migration complete).

#[test]
fn recovery_idempotent_before_any_step() {
    crash_after_k_steps(0);
}

#[test]
fn recovery_idempotent_after_prepare_add() {
    crash_after_k_steps(1);
}

#[test]
fn recovery_idempotent_after_prepare_drop() {
    crash_after_k_steps(2);
}

#[test]
fn recovery_idempotent_after_add_and_map_publish() {
    crash_after_k_steps(3);
}

#[test]
fn recovery_idempotent_after_final_drop() {
    crash_after_k_steps(4);
}

// ---------------------------------------------------------------- fence

#[test]
fn stale_minism_write_gets_error_and_is_absent_from_znode() {
    let mut r = rig(8, 16);
    let target = *r.cp.running_minisms().first().expect("a mini-SM");
    let (zombie, events) = r.cp.zombie_minism(&mut r.zk, target);
    let mut zombie = zombie.expect("zombie process handle");
    let pid = *zombie.partitions().next().expect("hosts a partition");

    // Failover hands the partition to a new owner...
    deliver(&mut r, events);
    settle(&mut r);
    assert!(r.cp.fully_placed(), "unplaced: {:?}", r.cp.unplaced());
    let (owned, stat_after_failover) = r.zk.get(&paths::partition_state(pid)).expect("state");

    // ...and the stale incumbent's write is rejected with an SmError —
    // never a panic, never a clobber.
    let err = zombie.persist(&mut r.zk, pid);
    assert!(
        matches!(err, Err(SmError::Unavailable(_))),
        "stale write must fail softly: {err:?}"
    );
    assert!(zombie.lease.is_fenced(), "zombie must be fenced for good");
    let (data, stat) = r.zk.get(&paths::partition_state(pid)).expect("state");
    assert_eq!(data, owned, "zombie bytes must be absent from the znode");
    assert_eq!(stat.version, stat_after_failover.version);
}
