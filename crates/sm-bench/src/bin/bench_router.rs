//! Machine-readable request-plane benchmark: emits one JSON document
//! on stdout with single-thread and 8-thread `route` throughput over
//! the shared [`ConcurrentRouter`] plus route-latency percentiles
//! under a concurrent map-install storm.
//!
//! `scripts/bench.sh router` runs this and records the output as
//! `BENCH_router.json`; `tests/bench_router.rs` gates the recorded
//! numbers (a conservative single-thread lookups/sec floor always, the
//! multi-core speedup only when the recording host had ≥ 8 cores).
//!
//! Real threads, deliberately: each handle's cache check, and its
//! refresh under the router's read lock while a writer stores new
//! versions, are the things being measured, and a deterministic
//! scheduler cannot contend on them. No RNG is used — keys come from a
//! Weyl sequence — so the workload itself is identical run to run; only
//! the timings vary.

use sm_routing::ConcurrentRouter;
use sm_types::{AppId, AppKey, Assignment, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The app the readers route against.
const APP: AppId = AppId(1);
/// The app the writer storms with installs.
const STORM_APP: AppId = AppId(2);
const SHARDS: u64 = 16_384;
const SERVERS: u64 = 256;
const STORM_SHARDS: u64 = 256;
/// Distinct keys cycled by every reader (fits in cache on purpose —
/// the benchmark measures the router, not DRAM).
const KEY_COUNT: u64 = 4_096;
const THREADS: usize = 8;
const SINGLE_LOOKUPS: u64 = 8_000_000;
const PER_THREAD_LOOKUPS: u64 = 1_000_000;
const STORM_INSTALLS: u64 = 1_000;
const STORM_READERS: usize = 2;
/// Weyl increment (2^64 / φ): a full-period sequence whose order is
/// decorrelated from the key-range order, so lookups scatter across
/// the whole range table.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The routed map: every shard has a primary and one secondary so the
/// common (primary) decision path dominates, as in production.
fn routed_map() -> ShardMap {
    let mut a = Assignment::new();
    for s in 0..SHARDS {
        a.add_replica(
            ShardId(s),
            ServerId((s % SERVERS) as u32),
            ReplicaRole::Primary,
        )
        .expect("add primary");
        a.add_replica(
            ShardId(s),
            ServerId(((s + 1) % SERVERS) as u32),
            ReplicaRole::Secondary,
        )
        .expect("add secondary");
    }
    ShardMap::from_assignment(1, &a)
}

/// One storm-app map version (small on purpose — the cost under test
/// is the readers' cache refresh, not map construction).
fn storm_map(version: u64) -> ShardMap {
    let mut a = Assignment::new();
    for s in 0..STORM_SHARDS {
        let primary = ServerId(((version + s) % SERVERS) as u32);
        a.add_replica(ShardId(s), primary, ReplicaRole::Primary)
            .expect("add primary");
    }
    ShardMap::from_assignment(version, &a)
}

fn keys() -> Vec<AppKey> {
    (0..KEY_COUNT)
        .map(|i| AppKey::from_u64(i.wrapping_mul(WEYL)))
        .collect()
}

fn router() -> Arc<ConcurrentRouter> {
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, ShardingSpec::uniform_u64(SHARDS));
    assert!(router.install_map(APP, routed_map()), "fresh install");
    router.register_app(STORM_APP, ShardingSpec::uniform_u64(STORM_SHARDS));
    assert!(router.install_map(STORM_APP, storm_map(1)), "fresh install");
    router
}

/// `lookups` routes on one handle; returns (wall seconds, xor sink).
fn run_reader(router: &Arc<ConcurrentRouter>, keys: &[AppKey], lookups: u64) -> (f64, u64) {
    let mut handle = router.handle().expect("a handle");
    let mut sink = 0u64;
    let start = Instant::now();
    for i in 0..lookups {
        let key = &keys[(i % KEY_COUNT) as usize];
        let d = handle.route(APP, key).expect("covered key");
        sink ^= u64::from(d.server.0);
    }
    (start.elapsed().as_secs_f64(), sink)
}

fn single_thread(router: &Arc<ConcurrentRouter>, keys: &[AppKey]) -> f64 {
    // Warm the handle caches and the branch predictors once.
    let (_warm_wall, warm_sink) = run_reader(router, keys, KEY_COUNT);
    let (wall_s, sink) = run_reader(router, keys, SINGLE_LOOKUPS);
    eprintln!(
        "bench_router: 1 thread wall={wall_s:.3}s sink={}",
        sink ^ warm_sink
    );
    wall_s
}

fn multi_thread(router: &Arc<ConcurrentRouter>, keys: &[AppKey]) -> f64 {
    let barrier = Barrier::new(THREADS + 1);
    let mut wall_s = 0.0;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            workers.push(scope.spawn(|| {
                barrier.wait();
                run_reader(router, keys, PER_THREAD_LOOKUPS)
            }));
        }
        barrier.wait();
        let start = Instant::now();
        let mut sink = 0u64;
        for w in workers {
            let (_thread_wall, thread_sink) = w.join().expect("reader thread");
            sink ^= thread_sink;
        }
        wall_s = start.elapsed().as_secs_f64();
        eprintln!("bench_router: {THREADS} threads wall={wall_s:.3}s sink={sink}");
    });
    wall_s
}

/// Readers route the big app and time every 16th lookup while a writer
/// installs `STORM_INSTALLS` storm-app versions; each install bumps the
/// global stamp, so every sampled route pays the cache-revalidation
/// path. Returns sorted per-route latencies in nanoseconds.
fn install_storm(router: &Arc<ConcurrentRouter>, keys: &[AppKey]) -> Vec<u64> {
    let final_version = 1 + STORM_INSTALLS;
    let storm_maps: Vec<ShardMap> = (2..=final_version).map(storm_map).collect();
    let mut samples: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..STORM_READERS {
            readers.push(scope.spawn(|| {
                let mut handle = router.handle().expect("a handle");
                let mut local: Vec<u64> = Vec::with_capacity(65_536);
                let mut sink = 0u64;
                let mut i = 0u64;
                loop {
                    let key = &keys[(i % KEY_COUNT) as usize];
                    if i.is_multiple_of(16) {
                        let start = Instant::now();
                        let d = handle.route(APP, key).expect("covered key");
                        local.push(start.elapsed().as_nanos() as u64);
                        sink ^= u64::from(d.server.0);
                    } else {
                        let d = handle.route(APP, key).expect("covered key");
                        sink ^= u64::from(d.server.0);
                    }
                    i += 1;
                    if i.is_multiple_of(1_024) && handle.map_version(STORM_APP) == final_version {
                        eprintln!(
                            "bench_router: storm reader sink={sink} samples={}",
                            local.len()
                        );
                        return local;
                    }
                }
            }));
        }
        for map in storm_maps {
            assert!(router.install_map(STORM_APP, map), "monotone install");
        }
        for reader in readers {
            samples.extend(reader.join().expect("storm reader"));
        }
    });
    samples.sort_unstable();
    samples
}

/// The value at quantile `q` of ascending `sorted` (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keys = keys();
    let router = router();

    let single_wall = single_thread(&router, &keys);
    let multi_wall = multi_thread(&router, &keys);
    let storm = install_storm(&router, &keys);

    let single_rate = SINGLE_LOOKUPS as f64 / single_wall;
    let multi_lookups = THREADS as u64 * PER_THREAD_LOOKUPS;
    let multi_rate = multi_lookups as f64 / multi_wall;

    let mut out = String::from("{\n");
    let _infallible = write!(
        out,
        "  \"bench\": \"router\",\n  \"cores\": {cores},\n  \"shards\": {SHARDS},\n  \
         \"servers\": {SERVERS},\n  \"keys\": {KEY_COUNT},\n  \
         \"single_thread\": {{\"lookups\": {SINGLE_LOOKUPS}, \"wall_s\": {single_wall:.4}, \
         \"lookups_per_sec\": {single_rate:.0}}},\n  \
         \"multi_thread\": {{\"threads\": {THREADS}, \"lookups\": {multi_lookups}, \
         \"wall_s\": {multi_wall:.4}, \"lookups_per_sec\": {multi_rate:.0}, \
         \"speedup_vs_1t\": {:.2}}},\n  \
         \"install_storm\": {{\"installs\": {STORM_INSTALLS}, \"readers\": {STORM_READERS}, \
         \"route_samples\": {}, \"p50_route_ns\": {}, \"p99_route_ns\": {}}},\n  \
         \"floors\": {{\"single_thread_lookups_per_sec\": 5000000, \
         \"multi_core_speedup\": 3.0, \"speedup_asserted_when_cores_at_least\": 8}}\n}}",
        multi_rate / single_rate,
        storm.len(),
        percentile(&storm, 0.50),
        percentile(&storm, 0.99),
    );
    println!("{out}");
}
