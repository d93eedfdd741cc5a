//! Composability tests (§1.2, §7): individual SM components used
//! standalone, the way the "Data Placer" and generic-TaskController
//! adopters consume them.

use shard_manager::allocator::{AllocConfig, AllocInput, Allocator, ServerInfo, ShardPlacement};
use shard_manager::cluster::{ClusterManager, ContainerOp, Machine, OpKind, OpReason};
use shard_manager::core::{AvailabilityView, TaskController};
use shard_manager::routing::{ConcurrentRouter, DiscoveryService};
use shard_manager::sim::{SimDuration, SimRng, SimTime};
use shard_manager::types::{
    AppId, AppKey, AppPolicy, Assignment, ContainerId, LoadVector, Location, MachineId, Metric,
    RegionId, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec,
};
use std::rc::Rc;
use std::sync::Arc;

fn location(region: u16, machine: u32) -> Location {
    Location {
        region: RegionId(region),
        datacenter: u32::from(region),
        rack: machine,
        machine: MachineId(machine),
    }
}

/// The Data Placer path: a custom sharding control plane uses only the
/// allocator.
#[test]
fn allocator_standalone_data_placer() {
    let servers: Vec<ServerInfo> = (0..9)
        .map(|i| ServerInfo {
            id: ServerId(i),
            location: location((i / 3) as u16, i),
            capacity: LoadVector::single(Metric::Storage.id(), 100.0),
            draining: false,
        })
        .collect();
    let shards: Vec<ShardPlacement> = (0..30)
        .map(|s| {
            ShardPlacement::unplaced(ShardId(s), LoadVector::single(Metric::Storage.id(), 5.0), 3)
        })
        .collect();
    let mut config = AllocConfig::new(vec![Metric::Storage.id()]);
    config.search.seed = 1;
    let plan = Allocator::plan_periodic(&AllocInput {
        servers,
        shards,
        config,
    });
    assert_eq!(plan.unplaced(), 0);
    assert_eq!(plan.violations.total(), 0);
    // Three replicas, three regions: full geo spread for every shard.
    for (_, replicas) in plan.target() {
        let mut regions: Vec<u32> = replicas.iter().flatten().map(|r| r.raw() / 3).collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 3);
    }
}

/// The generic-TaskController path (§7): a statically sharded app
/// brings its own shard map and only wants safe restart sequencing.
#[test]
fn taskcontroller_standalone_with_cluster_manager() {
    let mut cm = ClusterManager::new(SimDuration::from_secs(10));
    for i in 0..4u32 {
        cm.add_machine(Machine::new(location(0, i), LoadVector::zero(), false));
        cm.deploy(ContainerId(i), AppId(7), MachineId(i), 1)
            .unwrap();
    }
    let ops: Vec<ContainerOp> = (0..4)
        .map(|i| {
            let id = cm
                .request_op(ContainerId(i), OpKind::Restart, OpReason::Upgrade)
                .unwrap();
            cm.pending_ops().into_iter().find(|o| o.id == id).unwrap()
        })
        .collect();

    // The application supplies its own static shard map: container i
    // hosts replicas of shards i and (i+1) % 4.
    let mut policy = AppPolicy::secondary_only(2);
    policy.max_concurrent_container_ops = 4;
    policy.max_unavailable_replicas_per_shard = 1;
    let mut tc = TaskController::new(policy);
    let mut view = AvailabilityView::default();
    for i in 0..4u32 {
        view.shards_on.insert(
            ContainerId(i),
            vec![
                (ShardId(u64::from(i)), ReplicaRole::Secondary),
                (ShardId(u64::from((i + 1) % 4)), ReplicaRole::Secondary),
            ],
        );
    }
    let review = tc.review(RegionId(0), &ops, &view);
    // Adjacent containers share a shard, so only every other container
    // may restart concurrently.
    assert_eq!(review.approved.len(), 2, "{review:?}");
    for op in &review.approved {
        let started = cm.begin_op(*op, SimTime::ZERO).unwrap();
        cm.complete_op(started.op.id).unwrap();
        tc.op_finished(RegionId(0), *op);
    }
    let review = tc.review(RegionId(0), &cm.pending_ops(), &view);
    assert_eq!(review.approved.len(), 2, "the rest follow");
}

/// Service discovery + router reused without the orchestrator.
#[test]
fn discovery_and_router_standalone() {
    let app = AppId(3);
    let mut discovery = DiscoveryService::new(4, SimDuration::from_millis(50));
    let sub = discovery.subscribe();
    let mut rng = SimRng::seeded(5);

    let mut assignment = Assignment::new();
    for s in 0..8 {
        assignment
            .add_replica(ShardId(s), ServerId((s % 4) as u32), ReplicaRole::Primary)
            .unwrap();
    }
    let map = Rc::new(ShardMap::from_assignment(1, &assignment));
    let deliveries = discovery.publish(app, map.clone(), &mut rng).unwrap();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].0, sub);

    let spec = ShardingSpec::uniform_u64(8);
    let shared = Arc::new(ConcurrentRouter::new());
    shared.register_app(app, spec.clone());
    shared.install_map(app, ShardMap::clone(&map));
    let mut router = shared.handle().unwrap();
    let d = router.route(app, &AppKey::from_u64(0)).unwrap();
    assert_eq!(d.shard, ShardId(0));
    assert_eq!(d.server, ServerId(0));
    // Prefix scans fan out across the app-defined ranges.
    assert_eq!(spec.shards_for_prefix(&[]).len(), 8);
}

/// The control plane's ZooKeeper-free bookkeeping layers compose.
#[test]
fn control_plane_registries_compose() {
    use shard_manager::core::control_plane::{ApplicationManager, PartitionRegistry};
    let servers: Vec<ServerId> = (0..300).map(ServerId).collect();
    let shards: Vec<ShardId> = (0..3_000).map(ShardId).collect();

    let mut mgr = ApplicationManager::new(100);
    let mut minisms = PartitionRegistry::new(250);
    let parts = mgr.partition_app(AppId(0), &servers, &shards);
    for part in &parts {
        minisms.assign(part, part.shards.len());
    }
    assert_eq!(parts.len(), 3);
    assert!(minisms.minism_count() >= 2, "scale-out happened");
    // Any shard resolves to its partition and mini-SM.
    let p = parts
        .iter()
        .find(|p| p.shards.contains(&ShardId(1_234)))
        .unwrap();
    assert!(minisms.minism_of(p.id).is_some());
}
