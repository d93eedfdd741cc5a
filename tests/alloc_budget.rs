//! Allocation budgets, counted, not timed.
//!
//! **One allocator run.** A failover or a rebalance should cost its
//! search plus a few flat passes over the fleet — not a handful of heap
//! allocations per shard around the search. The first test counts the
//! heap allocations (and reallocations) the test thread makes inside one
//! `server_down` and one `run_periodic` on 4,096 shards × 64 servers
//! (primary + 1 secondary, one spread scope active: 32 racks in one
//! region), so a reintroduced per-group `Vec` or map, a cloned
//! `AllocInput` or a second evaluator fails `cargo test` on any host,
//! without a stopwatch.
//!
//! Counts per call, and per shard:
//!
//! | call                         | PR 16         | PR 17        | now         |
//! |------------------------------|---------------|--------------|-------------|
//! | `server_down`                | 29,993 (7.3)  | 8,935 (2.2)  | 728 (0.18)  |
//! | `run_periodic`               | 42,961 (10.5) | 9,721 (2.4)  | 1,504 (0.37)|
//! | `run_emergency`, right after | as the first  | as the first | 57          |
//!
//! Nothing is left per shard: the orchestrator's books are read in
//! place (no `AllocInput`, so no `replicas` `Vec` per `ShardPlacement`)
//! and `AllocationPlan`'s target is three arrays. What is counted is flat
//! (arrays sized once per evaluator, per-server lists) or per move. The
//! third row is a plan reused: the moves of the run inside `server_down`
//! are installed again without a second solve, since nothing a solve
//! reads changed in between. A debug build re-solves on every reuse to
//! check the moves, so that row is a release build's (`scripts/check.sh`
//! runs this file in both); the first two are the same in either.
//!
//! **One request.** A read touches the router, the host and the shard's
//! cache and should allocate nothing; a key is 24 bytes with its bytes
//! inside, so making or cloning one should not either. The second test
//! counts, over 10,000 requests on 1,024 shards × 16 `KvServer`s with
//! 4,096 preloaded 8-byte keys, and for one `ResolvedMap::build` on
//! 16,384 ranges:
//!
//! | 10,000 of                                   | parent (PR 17) | now    |
//! |---------------------------------------------|----------------|--------|
//! | `route` + `admit` + `get`                   | 10,000         | 0      |
//! | `AppKey::from_u64` + `key.clone()`          | 20,000         | 0      |
//! | `key.clone()` + an overwriting `put`        | 30,000         | 10,000 |
//! | one `ResolvedMap::build`, 16,384 ranges     | 32,774         | 7      |
//!
//! The put's one allocation is the external store's copy of the value;
//! the build's seven are its columns.
//!
//! **One map version.** `Assignment` and `ShardMap` share one table of
//! copy-on-write leaves, so taking, publishing and installing a version
//! should cost its spine and a router's flat columns, and a write after
//! it the leaves it touches. The third test counts, on the first fleet
//! and on a router that holds 16,384 ranges:
//!
//! | call                                       | parent (PR 23)  | now            |
//! |--------------------------------------------|-----------------|----------------|
//! | `current_map()`, 4,096 shards              | 4,473           | 2 (the spine)  |
//! | `server_down` + settle beside a held map   | as without one  | + 11 per leaf  |
//! | `install_map`, next version, 16,384 ranges | 11              | 6              |
//!
//! A leaf of eight copied is an `Arc`, a `Vec` and eight replica lists,
//! and the list that then gains a replica grows (1,411 for 124 moves
//! today; a table copied whole would be 5,120); an install's six are
//! the table's three columns, `ranges` and the `Arc`s of the kernel and
//! the map (nothing per range on either side: an install's saving is
//! time).
//!
//! One test binary for all three: the counter is per thread, each test
//! runs on its own, and nothing else may allocate on any.

// The counting allocator implements `GlobalAlloc`, an unsafe trait; it
// is the workspace's one `unsafe` code, and it only forwards to `System`.
#![allow(unsafe_code)]

use shard_manager::allocator::{AllocConfig, MoveCaps};
use shard_manager::apps::{AppResponse, ExternalStore, KvServer};
use shard_manager::core::{OrchCommand, Orchestrator, OrchestratorConfig, ShardServer};
use shard_manager::routing::{ConcurrentRouter, ResolvedMap};
use shard_manager::types::{
    AppId, AppKey, AppPolicy, Assignment, LoadBalancePolicy, LoadVector, Location, MachineId,
    Metric, RegionId, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;

const SHARDS: u64 = 4_096;
const SERVERS: u32 = 64;

thread_local! {
    /// Const-initialised and without a destructor, so reading it inside
    /// the allocator neither allocates nor runs after thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is passed through to `System` unchanged; the
// counter is a plain thread-local statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations and reallocations this thread makes while `f` runs.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Acks every RPC the orchestrator sends until it sends none.
fn settle(orch: &mut Orchestrator) {
    loop {
        let commands = orch.take_commands();
        if commands.is_empty() {
            return;
        }
        for command in commands {
            if let OrchCommand::Rpc { server, rpc } = command {
                orch.rpc_acked(server, rpc);
            }
        }
    }
}

/// A bootstrapped, settled fleet: the `control_*` plane of `bench/` at a
/// quarter of its size.
fn fleet() -> Orchestrator {
    let mut policy = AppPolicy::primary_secondary(1);
    policy.load_balance = LoadBalancePolicy::MultiMetric(vec![Metric::Cpu, Metric::ShardCount]);
    let mut alloc = AllocConfig::new(policy.load_balance.metrics());
    alloc.search.seed = 1;
    let config = OrchestratorConfig {
        graceful_migration: true,
        move_caps: MoveCaps {
            max_total: 500,
            max_per_server: 8,
            max_per_shard: 1,
        },
        alloc,
        skip_cutover_ack: false,
    };
    let mut orch = Orchestrator::new(AppId(1), policy, config);
    // Four times the fair share of either metric.
    let per_server = (SHARDS * 2) as f64 / f64::from(SERVERS);
    let mut capacity = LoadVector::single(Metric::ShardCount.id(), 4.0 * per_server);
    capacity.set(Metric::Cpu.id(), 4.0 * 1.5 * per_server);
    for i in 0..SERVERS {
        let location = Location {
            region: RegionId(0),
            datacenter: 0,
            rack: i / 2,
            machine: MachineId(i),
        };
        orch.register_server(ServerId(i), location, capacity);
    }
    orch.register_shards((0..SHARDS).map(ShardId));
    orch.report_load(ServerId(0), loads(None));
    orch.run_emergency();
    settle(&mut orch);
    assert_eq!(orch.assignment().replica_count() as u64, SHARDS * 2);
    orch
}

/// Every shard's load; the shards in `hot` are twelve times as busy.
fn loads(hot: Option<&[ShardId]>) -> Vec<(ShardId, LoadVector)> {
    let shards = (0..SHARDS).map(ShardId);
    shards
        .map(|shard| {
            let mut load = LoadVector::single(Metric::ShardCount.id(), 1.0);
            let cpu = 1.0 + (shard.raw() % 16) as f64 / 16.0;
            let hot = hot.is_some_and(|hot| hot.binary_search(&shard).is_ok());
            load.set(Metric::Cpu.id(), if hot { 12.0 * cpu } else { cpu });
            (shard, load)
        })
        .collect()
}

/// `(server_down, the run_emergency after it, run_periodic)` allocation
/// counts on a fresh fleet, and the moves that `run_emergency` installed.
fn measure() -> ([u64; 3], u64) {
    let mut orch = fleet();
    let down = count_allocs(|| orch.server_down(ServerId(7)));
    let mut replanned = 0;
    let again = count_allocs(|| replanned = orch.run_emergency());
    assert!(replanned > 0, "the failed server held nothing");
    settle(&mut orch);
    assert_eq!(orch.assignment().replica_count() as u64, SHARDS * 2);
    // 1% of the shards, all on one server, run hot: the rebalance moves.
    let hot: Vec<ShardId> = orch.shards_on(ServerId(3)).iter().map(|s| s.0).collect();
    orch.report_load(ServerId(3), loads(hot.get(..SHARDS as usize / 100)));
    let mut planned = 0;
    let periodic = count_allocs(|| planned = orch.run_periodic());
    assert!(planned > 0, "the rebalance plans no move");
    ([down, again, periodic], replanned as u64)
}

#[test]
fn an_allocator_run_allocates_per_fleet_pass_not_per_shard() {
    let ([down, again, periodic], replanned) = measure();
    println!(
        "server_down: {down} allocations, run_emergency again: {again} for {replanned} moves, \
         run_periodic: {periodic}, {SHARDS} shards"
    );
    // Half an allocation per shard covers what is flat — per-server
    // lists, the arrays of one evaluator per priority batch — and what
    // is per move started, so that one allocation per shard anywhere on
    // the path fails.
    let budget = SHARDS / 2;
    assert!(down <= budget, "server_down: {down} > {budget}");
    assert!(periodic <= budget, "run_periodic: {periodic} > {budget}");
    // A reused plan costs its copy and its install — the scheduler's
    // books of the moves it releases (124 today) — and nothing per
    // shard. A debug build solves again to check the reuse, within what
    // the first solve took.
    let reuse = if cfg!(debug_assertions) {
        down
    } else {
        replanned + 32
    };
    assert!(again <= reuse, "run_emergency again: {again} > {reuse}");
    assert_eq!(measure().0, [down, again, periodic], "a second fleet");
}

/// `shards` primaries dealt round-robin onto `servers`.
fn primary_only(shards: u64, servers: u32) -> Assignment {
    let mut assignment = Assignment::new();
    for s in 0..shards {
        let server = ServerId((s % u64::from(servers)) as u32);
        assignment
            .add_replica(ShardId(s), server, ReplicaRole::Primary)
            .expect("one primary per shard");
    }
    assignment
}

/// [`primary_only`], as version 1.
fn primary_only_map(shards: u64, servers: u32) -> ShardMap {
    ShardMap::from_assignment(1, &primary_only(shards, servers))
}

#[test]
fn a_map_version_costs_its_spine_and_an_install_its_flat_columns() {
    // `server_down` and the moves it starts, to the last ack.
    let fail_over = |orch: &mut Orchestrator| {
        orch.server_down(ServerId(7));
        settle(orch);
    };
    let mut orch = fleet();
    let free = count_allocs(|| fail_over(&mut orch));

    let mut orch = fleet();
    let mut held = None;
    let taken = count_allocs(|| held = Some(orch.current_map()));
    let held = held.expect("a map");
    let beside = count_allocs(|| fail_over(&mut orch));
    let next = orch.current_map();
    let moved = (held.entries.iter().zip(&next.entries))
        .filter(|(was, is)| was != is)
        .count() as u64;
    assert_eq!(held.shard_count() as u64, SHARDS);
    assert!(moved > 0, "the failed server held nothing");

    // A second version beside the spec the first was resolved against.
    const APP: AppId = AppId(0);
    let mut assignment = primary_only(16_384, 64);
    let router = ConcurrentRouter::new();
    router.register_app(APP, ShardingSpec::uniform_u64(16_384));
    router.install_map(APP, ShardMap::from_assignment(1, &assignment));
    assignment
        .move_replica(ShardId(9), ServerId(9), ServerId(10))
        .expect("shard 9 is on server 9");
    let second = ShardMap::from_assignment(2, &assignment);
    let install = count_allocs(|| assert!(router.install_map(APP, second)));

    println!(
        "current_map: {taken}, server_down + settle: {free} alone, {beside} beside a held map \
         ({moved} shards moved), install_map: {install}"
    );
    assert!(taken <= 4, "current_map: {taken} > its spine");
    // Each shard that moved is in one leaf; at most every one in its own.
    let budget = free + 12 * moved;
    assert!(beside <= budget, "beside a held map: {beside} > {budget}");
    assert!(install <= 16, "install_map: {install} > its flat columns");
}

#[test]
fn a_read_allocates_nothing_and_a_put_once() {
    const APP: AppId = AppId(0);
    const FLEET_SHARDS: u64 = 1_024;
    const FLEET_SERVERS: u32 = 16;
    const KEYS: usize = 4_096;
    const REQUESTS: usize = 10_000;

    let spec = ShardingSpec::uniform_u64(FLEET_SHARDS);
    let map = primary_only_map(FLEET_SHARDS, FLEET_SERVERS);
    let router = Arc::new(ConcurrentRouter::new());
    router.register_app(APP, spec.clone());
    router.install_map(APP, map.clone());
    let mut handle = router.handle().expect("a handle");
    let spec = Rc::new(spec);
    let external = Rc::new(RefCell::new(ExternalStore::new()));
    let mut servers: Vec<KvServer> = (0..FLEET_SERVERS)
        .map(|i| KvServer::new(ServerId(i), spec.clone(), external.clone()))
        .collect();
    for (shard, entry) in &map.entries {
        let server = entry.primary().expect("a primary");
        servers[server.raw() as usize]
            .add_shard(*shard, ReplicaRole::Primary)
            .expect("add_shard");
    }
    let keys: Vec<AppKey> = (0..KEYS as u64)
        .map(|i| AppKey::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    // Preloads, and lets the handle take its first look at the map.
    for key in &keys {
        let d = handle.route(APP, key).expect("a route");
        servers[d.server.raw() as usize].put(d.shard, key.clone(), vec![0u8; 64]);
    }

    let mut hits = 0;
    let reads = count_allocs(|| {
        for i in 0..REQUESTS {
            let key = &keys[i % KEYS];
            let d = handle.route(APP, key).expect("a route");
            let server = &mut servers[d.server.raw() as usize];
            assert_eq!(server.admit(d.shard, false), AppResponse::Serve);
            hits += usize::from(server.get(d.shard, key).is_some());
        }
    });
    assert_eq!(hits, REQUESTS);

    let made = count_allocs(|| {
        for i in 0..REQUESTS {
            black_box(AppKey::from_u64(black_box(i as u64)));
            black_box(keys[i % KEYS].clone());
        }
    });

    // Values made beforehand: what is counted is the request path.
    let mut values = vec![vec![1u8; 64]; REQUESTS];
    let puts = count_allocs(|| {
        for (i, value) in values.drain(..).enumerate() {
            let key = &keys[i % KEYS];
            let d = handle.route(APP, key).expect("a route");
            servers[d.server.raw() as usize].put(d.shard, key.clone(), value);
        }
    });

    let spec = ShardingSpec::uniform_u64(16_384);
    let map = primary_only_map(16_384, 64);
    let build = count_allocs(|| {
        black_box(ResolvedMap::build(Some(&spec), &map));
    });

    println!("reads: {reads}, keys: {made}, puts: {puts}, build: {build}");
    assert_eq!(reads, 0, "route + admit + get");
    assert_eq!(made, 0, "AppKey::from_u64 + clone");
    assert_eq!(puts, REQUESTS as u64, "the store's copy of the value");
    assert!(build <= 16, "ResolvedMap::build: {build} > its columns");
}
