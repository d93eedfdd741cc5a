//! Property tests for the routing layer (§2.2.1, §3.3).
//!
//! Three families of properties, each checked over seeded key
//! populations rather than hand-picked examples:
//!
//! 1. **balance** — consistent hashing spreads keys so no server owns
//!    wildly more than its fair share;
//! 2. **monotonicity** — a single join (or leave) only moves the keys
//!    that must move: everything else keeps its owner;
//! 3. **agreement** — a `RouterHandle` fed through `DiscoveryService`
//!    always routes according to the latest published shard map, never
//!    a stale or invented one.

use sm_routing::{ConcurrentRouter, ConsistentHashRing, DiscoveryService, StaticSharding};
use sm_sim::{SimDuration, SimRng};
use sm_types::{AppId, AppKey, Assignment, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

const APP: AppId = AppId(7);

/// A seeded population of well-spread keys.
fn keys(rng: &mut SimRng, n: usize) -> Vec<AppKey> {
    (0..n).map(|_| AppKey::from_u64(rng.next_u64())).collect()
}

fn ring_with(n_servers: u32, vnodes: u32) -> ConsistentHashRing {
    let mut ring = ConsistentHashRing::new(vnodes);
    for i in 0..n_servers {
        ring.add_server(ServerId(i));
    }
    ring
}

fn load_per_server(ring: &ConsistentHashRing, ks: &[AppKey]) -> BTreeMap<ServerId, usize> {
    let mut loads = BTreeMap::new();
    for k in ks {
        let owner = ring.server_for(k).expect("non-empty ring");
        *loads.entry(owner).or_insert(0usize) += 1;
    }
    loads
}

// --- 1. balance ---------------------------------------------------------

#[test]
fn ring_balance_max_over_mean_is_bounded() {
    // Over 1k keys and several seeds, the most loaded of 10 servers
    // (64 vnodes each) must stay within 2x the mean load, and every
    // server must receive at least some keys.
    for seed in 0..5u64 {
        let mut rng = SimRng::seeded(0xba1a_0000 + seed);
        let ks = keys(&mut rng, 1_000);
        let ring = ring_with(10, 64);
        let loads = load_per_server(&ring, &ks);
        assert_eq!(loads.len(), 10, "every server owns keys (seed {seed})");
        let mean = ks.len() as f64 / loads.len() as f64;
        let max = *loads.values().max().expect("loads") as f64;
        let min = *loads.values().min().expect("loads") as f64;
        assert!(
            max / mean <= 2.0,
            "seed {seed}: max/mean = {:.2} (max {max}, mean {mean})",
            max / mean
        );
        assert!(
            min / mean >= 0.25,
            "seed {seed}: starved server, min/mean = {:.2}",
            min / mean
        );
    }
}

#[test]
fn more_vnodes_never_hurt_balance_much() {
    // Balance (max/mean) with 128 vnodes should be no worse than ~20%
    // above balance with 8 vnodes — more vnodes smooth the ring.
    let mut rng = SimRng::seeded(0x00ba_1aff);
    let ks = keys(&mut rng, 4_000);
    let spread = |vnodes: u32| {
        let ring = ring_with(8, vnodes);
        let loads = load_per_server(&ring, &ks);
        let mean = ks.len() as f64 / 8.0;
        *loads.values().max().expect("loads") as f64 / mean
    };
    let coarse = spread(8);
    let fine = spread(128);
    assert!(
        fine <= coarse * 1.2,
        "128 vnodes ({fine:.2}) much worse than 8 vnodes ({coarse:.2})"
    );
}

// --- 2. monotonicity ----------------------------------------------------

#[test]
fn join_only_moves_keys_to_the_new_server() {
    // Monotone join: after adding one server, a key either kept its
    // owner or moved to the new server. Across seeds and ring sizes.
    for (seed, n) in [(1u64, 4u32), (2, 9), (3, 16)] {
        let mut rng = SimRng::seeded(0x10b0 + seed);
        let ks = keys(&mut rng, 1_000);
        let mut ring = ring_with(n, 64);
        let before: Vec<ServerId> = ks
            .iter()
            .map(|k| ring.server_for(k).expect("non-empty"))
            .collect();
        let newcomer = ServerId(n);
        ring.add_server(newcomer);
        let mut moved = 0usize;
        for (k, old) in ks.iter().zip(&before) {
            let now = ring.server_for(k).expect("non-empty");
            if now != *old {
                assert_eq!(now, newcomer, "key moved to a non-joining server");
                moved += 1;
            }
        }
        // ~1/(n+1) of keys should move: some, but not a majority.
        assert!(moved > 0, "join moved nothing (n={n})");
        assert!(
            (moved as f64) < ks.len() as f64 * 0.5,
            "join moved {moved}/{} keys (n={n})",
            ks.len()
        );
    }
}

#[test]
fn leave_only_moves_the_departed_servers_keys() {
    for seed in 0..3u64 {
        let mut rng = SimRng::seeded(0x1eaf + seed);
        let ks = keys(&mut rng, 1_000);
        let mut ring = ring_with(8, 64);
        let victim = ServerId((seed % 8) as u32);
        let before: Vec<ServerId> = ks
            .iter()
            .map(|k| ring.server_for(k).expect("non-empty"))
            .collect();
        ring.remove_server(victim);
        for (k, old) in ks.iter().zip(&before) {
            let now = ring.server_for(k).expect("non-empty");
            if *old == victim {
                assert_ne!(now, victim, "key still on removed server");
            } else {
                assert_eq!(now, *old, "unrelated key moved on leave");
            }
        }
    }
}

#[test]
fn join_then_leave_is_identity() {
    // Removing the server that just joined restores every ownership —
    // the ring holds no hidden state.
    let mut rng = SimRng::seeded(0x00ab_5e11);
    let ks = keys(&mut rng, 1_000);
    let mut ring = ring_with(6, 32);
    let before: Vec<ServerId> = ks
        .iter()
        .map(|k| ring.server_for(k).expect("non-empty"))
        .collect();
    ring.add_server(ServerId(6));
    ring.remove_server(ServerId(6));
    for (k, old) in ks.iter().zip(&before) {
        assert_eq!(ring.server_for(k).expect("non-empty"), *old);
    }
}

#[test]
fn static_sharding_resharding_is_not_monotone() {
    // The contrast the paper draws (§2.2.1): static sharding violates
    // the monotone-join property — growing 10 -> 11 tasks moves keys
    // between *pre-existing* servers too.
    let mut rng = SimRng::seeded(0x0057_a71c);
    let ks = keys(&mut rng, 2_000);
    let s10 = StaticSharding::new(10);
    let s11 = StaticSharding::new(11);
    let cross_moved = ks
        .iter()
        .filter(|k| {
            let old = s10.server_for(k);
            let new = s11.server_for(k);
            new != old && new != ServerId(10)
        })
        .count();
    assert!(
        cross_moved > ks.len() / 2,
        "expected most keys to move between old servers, got {cross_moved}"
    );
}

// --- 3. router/discovery agreement --------------------------------------

fn assignment(version: u64, n_shards: u64, n_servers: u32) -> Rc<ShardMap> {
    let mut a = Assignment::new();
    for s in 0..n_shards {
        let primary = ServerId(((s + version) % u64::from(n_servers)) as u32);
        let secondary = ServerId(((s + version + 1) % u64::from(n_servers)) as u32);
        a.add_replica(ShardId(s), primary, ReplicaRole::Primary)
            .expect("add primary");
        a.add_replica(ShardId(s), secondary, ReplicaRole::Secondary)
            .expect("add secondary");
    }
    Rc::new(ShardMap::from_assignment(version, &a))
}

#[test]
fn router_always_agrees_with_latest_discovery_map() {
    // Feed a stream of publishes (including stale ones discovery must
    // reject) through DiscoveryService into a router. After every
    // delivered update, each routed key must land on a replica that the
    // *latest* discovery map lists for that key's shard, at the latest
    // version.
    let n_shards = 16u64;
    let mut rng = SimRng::seeded(0x000d_15c0);
    let mut discovery = DiscoveryService::new(2, SimDuration::from_millis(10));
    discovery.subscribe();
    let shared = Arc::new(ConcurrentRouter::new());
    shared.register_app(APP, ShardingSpec::uniform_u64(n_shards));
    let mut router = shared.handle().expect("slot");

    let ks = keys(&mut rng, 200);
    let mut version = 0u64;
    for round in 0..20u64 {
        // Sometimes try a stale version; discovery must reject it and
        // the router must keep routing on the newest map.
        let publish_version = if round % 4 == 3 && version > 1 {
            version - 1
        } else {
            version + 1
        };
        let map = assignment(publish_version, n_shards, 10);
        match discovery.publish(APP, Rc::clone(&map), &mut rng) {
            Ok(_) => version = publish_version,
            Err(stored) => assert_eq!(stored, version, "rejection reports stored version"),
        }
        // The subscriber pulls whatever discovery says is latest.
        let latest = Rc::clone(discovery.latest(APP).expect("published at least once"));
        assert_eq!(latest.version, version);
        shared.install_map(APP, ShardMap::clone(&latest));
        assert_eq!(router.map_version(APP), version);

        for k in &ks {
            let d = router.route(APP, k).expect("routable key");
            assert_eq!(d.map_version, version, "decision on stale map");
            let entry = latest.entry(d.shard).expect("shard in latest map");
            assert!(
                entry.servers().any(|s| s == d.server),
                "round {round}: routed {k} to {:?}, not a replica of {:?} in v{version}",
                d.server,
                d.shard
            );
            assert_eq!(entry.primary(), Some(d.server), "primary preferred");
        }
    }
}

#[test]
fn out_of_order_delivery_converges_to_latest() {
    // Discovery fan-out can deliver updates out of order; install_map
    // must keep the newest. Simulate by installing a permuted sequence.
    let n_shards = 8u64;
    let mut rng = SimRng::seeded(0x0000_00ff);
    let shared = Arc::new(ConcurrentRouter::new());
    shared.register_app(APP, ShardingSpec::uniform_u64(n_shards));
    let mut router = shared.handle().expect("slot");
    let mut versions: Vec<u64> = (1..=12).collect();
    // Seeded Fisher-Yates shuffle.
    for i in (1..versions.len()).rev() {
        let j = rng.range_u64(0, i as u64 + 1) as usize;
        versions.swap(i, j);
    }
    let mut freshest = 0u64;
    for v in versions {
        let accepted = shared.install_map(APP, ShardMap::clone(&assignment(v, n_shards, 6)));
        assert_eq!(accepted, v > freshest, "install_map({v}) after {freshest}");
        freshest = freshest.max(v);
        assert_eq!(router.map_version(APP), freshest);
    }
    assert_eq!(router.map_version(APP), 12);
    let want = assignment(12, n_shards, 6);
    for k in keys(&mut rng, 100) {
        let d = router.route(APP, &k).expect("routable");
        let entry = want.entry(d.shard).expect("shard");
        assert_eq!(entry.primary(), Some(d.server));
    }
}
