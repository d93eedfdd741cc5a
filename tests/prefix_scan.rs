//! End-to-end prefix scans: the §3.1 payoff of app-key sharding.
//!
//! Laser's prefix scans work because SM shards the application's own
//! key space, preserving locality. This test runs the KV store behind
//! the router: a scan resolves the shard set from the sharding spec,
//! visits each owning server, and returns every matching key in order.

use shard_manager::apps::kv::{ExternalStore, KvServer};
use shard_manager::core::ShardServer;
use shard_manager::routing::ConcurrentRouter;
use shard_manager::types::{
    AppId, AppKey, Assignment, KeyRange, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

const APP: AppId = AppId(0);

#[test]
fn prefix_scan_spans_shards_and_returns_everything_in_order() {
    // App-defined uneven ranges over string keys.
    let spec = Rc::new(
        ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::from("a"), AppKey::from("m")),
                ShardId(0),
            ),
            (
                KeyRange::new(AppKey::from("m"), AppKey::from("user:5")),
                ShardId(1),
            ),
            (KeyRange::from(AppKey::from("user:5")), ShardId(2)),
        ])
        .expect("valid spec"),
    );
    let external = Rc::new(RefCell::new(ExternalStore::new()));

    // Three servers, one shard each.
    let mut servers: BTreeMap<ServerId, KvServer> = (1..=3)
        .map(|i| {
            (
                ServerId(i),
                KvServer::new(ServerId(i), spec.clone(), external.clone()),
            )
        })
        .collect();
    let mut assignment = Assignment::new();
    for (i, shard) in [(1u32, ShardId(0)), (2, ShardId(1)), (3, ShardId(2))] {
        servers
            .get_mut(&ServerId(i))
            .unwrap()
            .add_shard(shard, ReplicaRole::Primary)
            .unwrap();
        assignment
            .add_replica(shard, ServerId(i), ReplicaRole::Primary)
            .unwrap();
    }
    let shared = Arc::new(ConcurrentRouter::new());
    shared.register_app(APP, (*spec).clone());
    shared.install_map(APP, ShardMap::from_assignment(1, &assignment));
    let mut router = shared.handle().expect("slot");

    // Writes go to whichever server owns each key; "user:" keys span
    // the boundary between shards 1 and 2.
    for (key, value) in [
        ("apple", "1"),
        ("melon", "2"),
        ("user:1", "u1"),
        ("user:42", "u42"),
        ("user:5", "u5"),
        ("user:9", "u9"),
        ("zebra", "3"),
    ] {
        let d = router.route(APP, &AppKey::from(key)).expect("routable");
        servers.get_mut(&d.server).unwrap().put(
            d.shard,
            AppKey::from(key),
            value.as_bytes().to_vec(),
        );
    }

    // The scan fans out exactly over the shards whose ranges intersect
    // the prefix — here shards 1 and 2, not shard 0.
    let scan_shards = spec.shards_for_prefix(b"user:");
    assert_eq!(scan_shards, vec![ShardId(1), ShardId(2)]);

    let mut results = Vec::new();
    for shard in scan_shards {
        let d = router.route_shard(APP, shard).expect("routable");
        results.extend(
            servers
                .get_mut(&d.server)
                .unwrap()
                .prefix_scan(shard, b"user:"),
        );
    }
    let keys: Vec<String> = results.iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(keys, vec!["user:1", "user:42", "user:5", "user:9"]);
}

#[test]
fn scan_after_migration_sees_rebuilt_data() {
    let spec = Rc::new(ShardingSpec::new(vec![(KeyRange::full(), ShardId(0))]).unwrap());
    let external = Rc::new(RefCell::new(ExternalStore::new()));
    let mut old = KvServer::new(ServerId(1), spec.clone(), external.clone());
    old.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
    old.put(ShardId(0), AppKey::from("k:1"), b"v".to_vec());
    old.put(ShardId(0), AppKey::from("k:2"), b"v".to_vec());

    // Graceful migration to a new server: prepare warms the cache.
    let mut new = KvServer::new(ServerId(2), spec, external);
    new.prepare_add_shard(ShardId(0), ServerId(1), ReplicaRole::Primary)
        .unwrap();
    new.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
    old.drop_shard(ShardId(0)).unwrap();

    let hits = new.prefix_scan(ShardId(0), b"k:");
    assert_eq!(hits.len(), 2, "scan sees the rebuilt soft state");
}
