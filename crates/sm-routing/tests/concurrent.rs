//! Stress and differential tests for the concurrent request plane.
//!
//! These are *real-thread* tests (not DES): the router's whole point is
//! cross-thread publication — readers refreshing their handles' caches
//! while writers store new versions — which a deterministic scheduler
//! cannot exercise. Determinism is kept where it matters — key
//! populations are seeded per thread with `SimRng::seed_from`, and
//! every assertion is schedule-independent: decisions are checked
//! against an *algebraic* invariant (the primary of shard `s` at
//! version `v` is server `(v + s) % SERVERS`), so any torn read —
//! a decision mixing fields from two map versions — fails the formula
//! no matter how the threads interleave.

use sm_routing::{ConcurrentRouter, ResolvedMap};
use sm_sim::SimRng;
use sm_types::{AppId, AppKey, Assignment, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const APP: AppId = AppId(7);
const SHARDS: u64 = 32;
const SERVERS: u64 = 16;
const FINAL_VERSION: u64 = 1000;
const SEED: u64 = 0xc0c0_0007;

/// The map at `version`: shard `s`'s primary is fully determined by
/// `(version, s)`, so a routed decision can be validated from its own
/// fields alone.
fn map_at(version: u64) -> ShardMap {
    let mut a = Assignment::new();
    for s in 0..SHARDS {
        let primary = ServerId(((version + s) % SERVERS) as u32);
        a.add_replica(ShardId(s), primary, ReplicaRole::Primary)
            .expect("add primary");
    }
    ShardMap::from_assignment(version, &a)
}

fn expected_server(version: u64, shard: ShardId) -> ServerId {
    ServerId(((version + shard.0) % SERVERS) as u32)
}

#[test]
fn eight_reader_threads_survive_a_thousand_map_installs() {
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, ShardingSpec::uniform_u64(SHARDS));
    assert!(router.install_map(APP, map_at(1)));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..8u64 {
            let router = Arc::clone(&router);
            readers.push(scope.spawn(move || {
                let mut rng = SimRng::seed_from(SEED, t);
                let keys: Vec<AppKey> = (0..64).map(|_| AppKey::from_u64(rng.next_u64())).collect();
                let mut handle = router.handle().expect("a handle");
                let mut last_seen = 0u64;
                let mut routed = 0u64;
                loop {
                    for key in &keys {
                        let d = handle.route(APP, key).expect("covered key");
                        routed += 1;
                        // No torn reads: the decision is internally
                        // consistent with the single map version it
                        // claims to come from.
                        assert_eq!(
                            d.server,
                            expected_server(d.map_version, d.shard),
                            "torn read: shard {:?} v{} -> {:?}",
                            d.shard,
                            d.map_version,
                            d.server
                        );
                        // Only actually-installed versions are visible.
                        assert!(
                            (1..=FINAL_VERSION).contains(&d.map_version),
                            "never-installed version {}",
                            d.map_version
                        );
                        // Per-handle observed versions are monotone.
                        assert!(
                            d.map_version >= last_seen,
                            "version went backwards: {} after {}",
                            d.map_version,
                            last_seen
                        );
                        last_seen = d.map_version;
                    }
                    if last_seen == FINAL_VERSION {
                        return routed;
                    }
                }
            }));
        }

        // The install storm: 999 published versions while readers spin.
        for version in 2..=FINAL_VERSION {
            assert!(router.install_map(APP, map_at(version)));
        }

        for reader in readers {
            let routed = reader.join().expect("reader thread");
            assert!(routed >= 64, "each reader routed through the storm");
        }
    });

    assert_eq!(router.map_version(APP), FINAL_VERSION);
    assert!(router.install_map(APP, map_at(FINAL_VERSION + 1)));
}

#[test]
fn concurrent_handle_agrees_with_a_freshly_built_kernel() {
    // Differential oracle: whatever the router caches, swaps and hands
    // its handle, a decision must equal the one a kernel built on the
    // spot from the same spec and map gives for the same key.
    let concurrent = Arc::new(ConcurrentRouter::new());
    let spec = ShardingSpec::uniform_u64(SHARDS);
    concurrent.register_app(APP, spec.clone());
    let mut handle = concurrent.handle().expect("a handle");

    let mut rng = SimRng::seed_from(SEED, 99);
    let mut rr = 0u64;
    for version in [1u64, 2, 5, 9] {
        assert!(concurrent.install_map(APP, map_at(version)));
        let kernel = ResolvedMap::build(Some(&spec), &map_at(version));
        for _ in 0..250 {
            let key = AppKey::from_u64(rng.next_u64());
            assert_eq!(
                handle.route(APP, &key).expect("covered"),
                kernel.route(&key, &mut rr).expect("covered"),
                "divergence at v{version} for {key}"
            );
        }
        let shard = ShardId(rng.next_u64() % SHARDS);
        assert_eq!(
            handle.route_shard(APP, shard).expect("present"),
            kernel.route_shard(shard, &mut rr).expect("present")
        );
    }
}

#[test]
fn racing_writers_never_install_an_older_version() {
    // Four writers draw versions of two apps from one counter per app,
    // so a writer that drew an older version can reach `install_map`
    // after one that drew a newer one. The router must refuse it: the
    // installed version only ever grows, and ends at the newest drawn.
    const APPS: [AppId; 2] = [AppId(1), AppId(2)];
    const INSTALLS_PER_WRITER: u64 = 1_000;
    let router = Arc::new(ConcurrentRouter::new());
    for app in APPS {
        router.register_app(app, ShardingSpec::uniform_u64(SHARDS));
    }
    let drawn = [AtomicU64::new(0), AtomicU64::new(0)];
    let writers_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (router, writers_done) = (&router, &writers_done);
                scope.spawn(move || {
                    let mut rng = SimRng::seed_from(SEED, 100 + t);
                    let keys: Vec<AppKey> =
                        (0..16).map(|_| AppKey::from_u64(rng.next_u64())).collect();
                    let mut handle = router.handle().expect("a handle");
                    let mut last_seen = [0u64; 2];
                    loop {
                        let done = writers_done.load(Ordering::Acquire);
                        for (app, last) in APPS.iter().zip(&mut last_seen) {
                            for key in &keys {
                                // Before an app's first install its key
                                // routes are `Unavailable`.
                                let Ok(d) = handle.route(*app, key) else {
                                    continue;
                                };
                                assert_eq!(
                                    d.server,
                                    expected_server(d.map_version, d.shard),
                                    "torn read: {app} shard {:?} v{}",
                                    d.shard,
                                    d.map_version
                                );
                                assert!(
                                    d.map_version >= *last,
                                    "{app} went backwards: v{} after v{}",
                                    d.map_version,
                                    last
                                );
                                *last = d.map_version;
                            }
                        }
                        if done {
                            return;
                        }
                    }
                })
            })
            .collect();

        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let (router, drawn) = (&router, &drawn);
                scope.spawn(move || {
                    for i in 0..INSTALLS_PER_WRITER {
                        let a = ((w + i) % 2) as usize;
                        let version = drawn[a].fetch_add(1, Ordering::SeqCst) + 1;
                        // `false` is a refused older version: expected.
                        router.install_map(APPS[a], map_at(version));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        writers_done.store(true, Ordering::Release);
        for reader in readers {
            reader.join().expect("reader thread");
        }
    });

    for (app, drawn) in APPS.iter().zip(&drawn) {
        let newest = drawn.load(Ordering::SeqCst);
        assert_eq!(newest, 2 * INSTALLS_PER_WRITER, "every draw counted");
        assert_eq!(
            router.map_version(*app),
            newest,
            "{app} lost its newest version"
        );
    }
}
