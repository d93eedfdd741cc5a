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
//! | `server_down`                | 29,993 (7.3)  | 8,935 (2.2)  | 296 (0.07)  |
//! | `run_periodic`               | 42,961 (10.5) | 9,721 (2.4)  | 548 (0.13)  |
//! | `run_emergency`, right after | as the first  | as the first | 17          |
//!
//! Nothing is left per shard: the orchestrator's books are read in
//! place (no `AllocInput`, so no `replicas` `Vec` per `ShardPlacement`)
//! and `AllocationPlan`'s target is a slot array. What is counted is flat
//! (the arrays of the one evaluator a solve builds, per-server lists) or
//! per move; a search round draws its target samples on a pool the
//! search keeps, so it allocates none (a `Vec` a (region, band) group
//! drawn made `server_down` 463 and `run_periodic` 594). `run_periodic`
//! was 1,501 with one evaluator built per priority batch. It makes 28
//! rounds over three batches, so three more allocations a round (637)
//! or an evaluator built again per batch fails its bound. `server_down`
//! also counts the bytes it requests: 167,315 (41 a shard), none of
//! them a row per shard. Its
//! emergency problem holds only the shards that lost a replica, and its
//! plan's target only their rows; a problem and an evaluator over every
//! slot request 1,625,216 (397 a shard), a target over every shard 32 a
//! shard more, so its bound is 64 bytes a shard. And
//! `a_failover_costs_the_loss_not_the_fleet` runs one `server_down` at
//! 4,096 × 64 and at 16,384 × 256, where a server holds as many
//! replicas: the counts differ by the per-bin columns of the problem,
//! not by the fleet. The
//! third row is a plan reused: the moves of the run inside `server_down`
//! are installed again without a second solve, since nothing a solve
//! reads changed in between. Its install builds the scheduler's arrays
//! over the plan, the same 17 blocks at either size for the 124 moves
//! it carries in flight; ordered maps of them took 72. A debug build
//! re-solves on every reuse to check the moves, so that row is a release
//! build's (`scripts/check.sh` runs this file in both); the first two
//! are the same in either.
//!
//! **One rebalance.** Its load report and its periodic problem should
//! cost what changed, not the fleet. After a settled rebalance that made
//! 40 of one server's shards hot (1% of the smaller fleet), a
//! whole-table `report_load` in which 32 loads changed allocates
//! nothing beyond the report, at 4,096 × 64 and at 16,384 × 256 alike:
//! the report is walked in step with the kept loads (written entry by
//! entry after the walk, it buffers the table: 11 and 13). A second
//! `run_periodic`, after a report that cools one of them and heats 16
//! of another server's shards, solves the kept problem from the
//! evaluator it keeps, patched for what changed, undoes its moves at the
//! end and diffs the entities that moved: 35 and 37 allocations, 10,541
//! and 16,413 bytes, for 8 moves at either size, bounded at 16 + 4 and
//! 4 KiB a move. A plan's target over every slot requests 8 bytes an
//! entity (76,077 bytes then), and an evaluator built again per solve
//! 45, in 447 allocations and 1,684 at 4x.
//!
//! **One drain.** A drain should cost its replicas and one pass over
//! the servers. `a_drain_allocates_per_server_not_per_replica` counts
//! one `drain_server` at 4,096 × 64 and at 16,384 × 256, where the
//! drained server holds 124 and 125 replicas: 21 and 22 allocations.
//! The walk makes a few of them: its heap, its books and the list of
//! the servers a pick passed. The rest are the move list and the install
//! of the plan. The picker that scanned the fleet for each replica allocated a
//! list of the replica's hosts per pick, plus a map of the earmarks:
//! 160 and 163. The bound is 40 plus one per 16 servers.
//! `settling_a_drain_allocates_per_move_not_per_plan` then acks every
//! RPC of that drain, no map held, so no leaf is copied: 162 and 143
//! allocations for 124 and 125 moves, a wave of one move after each
//! but the first. The scheduler allocates nothing a wave; the outbox
//! and the lists a replica joins are the rest. A `Vec` per wave and
//! ordered maps of the slots made it 301 and 285. The bound is 1.5 a
//! move.
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
//! | one `ResolvedMap::build`, 16,384 ranges     | 32,774         | 8      |
//!
//! The put's one allocation is the external store's copy of the value;
//! the build's eight are its five columns — the shard → range one
//! sorted, then shared — and the spine of the map it holds (six before
//! the shard → range column).
//!
//! **One map version.** `Assignment` and `ShardMap` share one table of
//! copy-on-write leaves, so taking, publishing and installing a version
//! should cost its spine and a router's range column, and a write after
//! it the leaves it touches. The third test counts, on the first fleet
//! and on a router that holds 16,384 ranges:
//!
//! | call                                       | parent (PR 23)  | now            |
//! |--------------------------------------------|-----------------|----------------|
//! | `current_map()`, 4,096 shards              | 4,473           | 2 (the spine)  |
//! | `server_down` + settle beside a held map   | as without one  | + 11 per leaf  |
//! | `install_map`, next version, 16,384 ranges | 11              | 2              |
//!
//! A leaf of eight copied is an `Arc`, a `Vec` and eight replica lists,
//! and the list that then gains a replica grows (1,411 for 124 moves
//! today; a table copied whole would be 5,120); an install's two are
//! the fused range column, copied at its first changed entry, and the
//! kernel's `Arc` (four while an install copied the spine of the map
//! the kernel holds; it now takes the map it is handed). They request
//! 262,328 bytes, 16 a range. An install whose version changes no
//! primary shares the held column and requests 168; one that fuses
//! every range again requests the column for it too, so that bound is
//! 1 KiB.
//!
//! One test binary for all eight: the counter is per thread, each test
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
/// What a drain may allocate besides one per 16 servers (see "One drain").
const DRAIN_FLAT: u64 = 40;

thread_local! {
    /// Const-initialised and without a destructor, so reading it inside
    /// the allocator neither allocates nor runs after thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a reallocation's new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is passed through to `System` unchanged; the
// counter is a plain thread-local statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations and reallocations this thread makes while `f` runs.
fn count_allocs(f: impl FnOnce()) -> u64 {
    count_bytes(f).0
}

/// [`count_allocs`], and the bytes those allocations requested.
fn count_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
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
    fleet_of(SHARDS, SERVERS)
}

/// [`fleet`] at `shards` × `servers`.
fn fleet_of(shards: u64, servers: u32) -> Orchestrator {
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
    let per_server = (shards * 2) as f64 / f64::from(servers);
    let mut capacity = LoadVector::single(Metric::ShardCount.id(), 4.0 * per_server);
    capacity.set(Metric::Cpu.id(), 4.0 * 1.5 * per_server);
    for i in 0..servers {
        let location = Location {
            region: RegionId(0),
            datacenter: 0,
            rack: i / 2,
            machine: MachineId(i),
        };
        orch.register_server(ServerId(i), location, capacity);
    }
    orch.register_shards((0..shards).map(ShardId));
    orch.report_load(ServerId(0), loads(shards, None));
    orch.run_emergency();
    settle(&mut orch);
    assert_eq!(orch.assignment().replica_count() as u64, shards * 2);
    orch
}

/// The load of each of `shards` shards; those in `hot` are twelve times
/// as busy.
fn loads(shards: u64, hot: Option<&[ShardId]>) -> Vec<(ShardId, LoadVector)> {
    let shards = (0..shards).map(ShardId);
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
/// counts on a fresh fleet, the moves that `run_emergency` installed, and
/// the bytes `server_down` requested.
fn measure() -> ([u64; 3], u64, u64) {
    let mut orch = fleet();
    let (down, down_bytes) = count_bytes(|| orch.server_down(ServerId(7)));
    let mut replanned = 0;
    let again = count_allocs(|| replanned = orch.run_emergency());
    assert!(replanned > 0, "the failed server held nothing");
    settle(&mut orch);
    assert_eq!(orch.assignment().replica_count() as u64, SHARDS * 2);
    // 1% of the shards, all on one server, run hot: the rebalance moves.
    let hot: Vec<ShardId> = orch.shards_on(ServerId(3)).iter().map(|s| s.0).collect();
    orch.report_load(ServerId(3), loads(SHARDS, hot.get(..SHARDS as usize / 100)));
    let mut planned = 0;
    let periodic = count_allocs(|| planned = orch.run_periodic());
    assert!(planned > 0, "the rebalance plans no move");
    ([down, again, periodic], replanned as u64, down_bytes)
}

#[test]
fn an_allocator_run_allocates_per_fleet_pass_not_per_shard() {
    let ([down, again, periodic], replanned, down_bytes) = measure();
    println!(
        "server_down: {down} allocations ({down_bytes} bytes), run_emergency again: {again} \
         for {replanned} moves, run_periodic: {periodic}, {SHARDS} shards"
    );
    // Half an allocation per shard covers what is flat — per-server
    // lists, the arrays of the solve's one evaluator — and what is per
    // move started, so that one allocation per shard anywhere on the
    // path fails.
    let budget = SHARDS / 2;
    assert!(down <= budget, "server_down: {down} > {budget}");
    // 548 today over 28 search rounds: three allocations more a round, or
    // a second evaluator build per batch, fails.
    assert!(periodic <= 600, "run_periodic: {periodic} > 600");
    // A reused plan costs its copy and its install: a scheduler's
    // arrays over the plan, a constant number of blocks however many of
    // its moves it carries in flight (124 here; books of them kept in
    // ordered maps took 72). A debug build solves again to check the
    // reuse, within what the first solve took.
    let reuse = if cfg!(debug_assertions) { down } else { 24 };
    assert!(again <= reuse, "run_emergency again: {again} > {reuse}");
    assert_eq!(measure().0, [down, again, periodic], "a second fleet");
    // An emergency problem over every slot requests 397 bytes a shard;
    // the cut requests 43, none of them a row per shard, and a target
    // over every shard would add 32.
    let bytes = 64 * SHARDS;
    assert!(
        down_bytes <= bytes,
        "server_down: {down_bytes} bytes > {bytes}"
    );
}

/// One `server_down` on a bootstrapped `shards` × `servers` fleet: its
/// allocations, the bytes they request, and the replicas the server
/// held; then the allocations of the `run_emergency` right after it,
/// which installs the same moves again.
fn fail_over_at(shards: u64, servers: u32) -> (u64, u64, usize, u64) {
    let mut orch = fleet_of(shards, servers);
    let held = orch.shards_on(ServerId(7)).len();
    let (allocs, bytes) = count_bytes(|| orch.server_down(ServerId(7)));
    let again = count_allocs(|| {
        orch.run_emergency();
    });
    (allocs, bytes, held, again)
}

#[test]
fn a_failover_costs_the_loss_not_the_fleet() {
    let (small, small_bytes, small_held, small_again) = fail_over_at(SHARDS, SERVERS);
    let (large, large_bytes, large_held, large_again) = fail_over_at(4 * SHARDS, 4 * SERVERS);
    println!(
        "server_down of {small_held} replicas: {small} allocations ({small_bytes} bytes) at \
         {SHARDS} x {SERVERS}, of {large_held}: {large} ({large_bytes} bytes) at 4x that; \
         run_emergency again: {small_again} and {large_again}"
    );
    // Installing a plan builds its scheduler's arrays: as many blocks
    // for the 124 moves carried in flight as for the 125 at 4x, where a
    // block per move differs by one. A debug build solves again to
    // check the reuse.
    if !cfg!(debug_assertions) {
        assert_eq!(small_again, large_again, "run_emergency again at 4x");
    }
    // The same loss: each server holds 128 replicas at either size, give
    // or take the few the bootstrap's balance leaves.
    assert!(
        small_held.abs_diff(large_held) <= 4,
        "{small_held} and {large_held} lost"
    );
    // What is left that grows with the fleet allocates per bin the cut's
    // entities touch, and those spread wider on a wider fleet: at most
    // one more allocation per replica lost.
    let most = small + large_held as u64;
    assert!(large <= most, "server_down at 4x: {large} > {most}");
    // Bytes grow by the per-server columns of the problem and its
    // evaluator (563 a server today), not by a row per shard: a target
    // over every shard requests 32 bytes a shard, 393,216 more here.
    let most = small_bytes + 1_700 * u64::from(3 * SERVERS);
    assert!(
        large_bytes <= most,
        "server_down at 4x: {large_bytes} bytes > {most}"
    );
}

/// How many of one server's shards a rebalance's report makes hot, at
/// either size: 1% of the smaller fleet's shards.
const HOT: usize = SHARDS as usize / 100;

/// A `shards` × `servers` fleet that has run one settled rebalance, so
/// its periodic problem is kept, and the shards of the server whose
/// first [`HOT`] the report made hot.
fn rebalanced_at(shards: u64, servers: u32) -> (Orchestrator, Vec<ShardId>) {
    let mut orch = fleet_of(shards, servers);
    let hot: Vec<ShardId> = orch.shards_on(ServerId(3)).iter().map(|s| s.0).collect();
    orch.report_load(ServerId(3), loads(shards, hot.get(..HOT)));
    orch.run_periodic();
    settle(&mut orch);
    (orch, hot)
}

/// The allocations of a whole-table report in which `changed` loads
/// change, on a rebalanced `shards` × `servers` fleet.
fn report_at(shards: u64, servers: u32, changed: usize) -> u64 {
    let (mut orch, hot) = rebalanced_at(shards, servers);
    // The first `changed` of the hot shards cool down.
    let report = loads(shards, hot.get(changed..HOT));
    count_allocs(|| orch.report_load(ServerId(3), report))
}

#[test]
fn a_load_report_costs_the_loads_that_changed() {
    let (small, large) = (
        report_at(SHARDS, SERVERS, 32),
        report_at(4 * SHARDS, 4 * SERVERS, 32),
    );
    println!("report_load, 32 of the loads changed: {small} allocations at {SHARDS} x {SERVERS}, {large} at 4x that");
    // The report is walked in step with the kept loads, and a changed
    // load patches the usage and the kept problem in place: nothing is
    // allocated beyond the report itself, at either size. A report
    // written entry by entry after the walk buffers the whole table.
    assert_eq!(small, large, "report_load at 4x");
    assert!(small <= 2, "report_load: {small} > 2");
}

/// The allocations and bytes of a second `run_periodic` on a rebalanced
/// `shards` × `servers` fleet, after a report in which one load changed,
/// and the moves it planned.
fn second_rebalance_at(shards: u64, servers: u32) -> (u64, u64, u64) {
    let (mut orch, hot) = rebalanced_at(shards, servers);
    // The hottest shard cools down, and 16 of another server's shards
    // turn hot.
    let mut hot = hot.get(1..HOT).unwrap_or_default().to_vec();
    hot.extend(orch.shards_on(ServerId(5)).iter().take(16).map(|s| s.0));
    hot.sort();
    orch.report_load(ServerId(5), loads(shards, Some(&hot)));
    let mut planned = 0;
    let (allocs, bytes) = count_bytes(|| planned = orch.run_periodic());
    (allocs, bytes, planned as u64)
}

#[test]
fn a_second_rebalance_solves_the_kept_problem() {
    let (small, small_bytes, small_moves) = second_rebalance_at(SHARDS, SERVERS);
    let (large, large_bytes, large_moves) = second_rebalance_at(4 * SHARDS, 4 * SERVERS);
    println!(
        "run_periodic again: {small} allocations, {small_bytes} bytes for {small_moves} moves at \
         {SHARDS} x {SERVERS}, {large}, {large_bytes} for {large_moves} at 4x that"
    );
    // The solve starts from the evaluator its problem keeps, patched for
    // what changed, undoes its moves when it ends, and diffs the entities
    // that moved alone: what it requests afresh is per move, at either
    // size. A move edits two bins' entity lists, each saved once a solve
    // (1 KiB for 128 replicas), and is listed, installed and booked. A
    // target over every slot requests 8 bytes an entity, 65,536 and
    // 262,144 here; an evaluator built again per solve, 45 an entity.
    for (allocs, bytes, moves) in [
        (small, small_bytes, small_moves),
        (large, large_bytes, large_moves),
    ] {
        assert!(moves > 0, "the rebalance plans no move");
        let most = 16 + 4 * moves;
        assert!(allocs <= most, "run_periodic again: {allocs} > {most}");
        let most = 4_096 * moves;
        assert!(bytes <= most, "run_periodic again: {bytes} bytes > {most}");
    }
}

/// One `drain_server` on a bootstrapped `shards` × `servers` fleet: its
/// allocations and the replicas the drained server held.
fn drain_at(shards: u64, servers: u32) -> (u64, usize) {
    let mut orch = fleet_of(shards, servers);
    let held = orch.shards_on(ServerId(7)).len();
    let mut started = 0;
    let allocs = count_allocs(|| started = orch.drain_server(ServerId(7)));
    assert_eq!(started, held, "a move per replica held");
    (allocs, held)
}

#[test]
fn a_drain_allocates_per_server_not_per_replica() {
    let (small, small_held) = drain_at(SHARDS, SERVERS);
    let (large, large_held) = drain_at(4 * SHARDS, 4 * SERVERS);
    println!(
        "drain_server of {small_held} replicas: {small} allocations at {SHARDS} x {SERVERS}, \
         of {large_held}: {large} at 4x that"
    );
    assert!(
        small_held >= 120 && small_held.abs_diff(large_held) <= 4,
        "{small_held} and {large_held} held"
    );
    for (allocs, servers) in [(small, SERVERS), (large, 4 * SERVERS)] {
        let most = DRAIN_FLAT + u64::from(servers) / 16;
        assert!(
            allocs <= most,
            "drain_server at {servers} servers: {allocs} > {most}"
        );
    }
}

/// One `drain_server` on a bootstrapped `shards` × `servers` fleet,
/// settled: the allocations and bytes of the settle, and the moves it
/// finished.
fn settled_drain_at(shards: u64, servers: u32) -> (u64, u64, u64) {
    let mut orch = fleet_of(shards, servers);
    let moved = orch.drain_server(ServerId(7));
    let (allocs, bytes) = count_bytes(|| settle(&mut orch));
    assert!(orch.shards_on(ServerId(7)).is_empty(), "the drain settled");
    (allocs, bytes, moved as u64)
}

#[test]
fn settling_a_drain_allocates_per_move_not_per_plan() {
    let (small, small_bytes, small_moves) = settled_drain_at(SHARDS, SERVERS);
    let (large, large_bytes, large_moves) = settled_drain_at(4 * SHARDS, 4 * SERVERS);
    println!(
        "settling a drain of {small_moves} moves: {small} allocations ({small_bytes} bytes) at \
         {SHARDS} x {SERVERS}, of {large_moves}: {large} ({large_bytes} bytes) at 4x that"
    );
    // A finished move frees its slots and the next wave, one move, is
    // released into the orchestrator's one scratch list: the scheduler
    // allocates nothing per wave. What is left is the outbox after each
    // `take_commands` and the books' lists a replica joins, about one a
    // move at either size. A `Vec` per wave adds one a move (a map per
    // slot count or waiting set, a node now and then): 2.4 and 2.3 then.
    for (allocs, moves) in [(small, small_moves), (large, large_moves)] {
        assert!(moves >= 120, "{moves} moves");
        let most = moves * 3 / 2;
        assert!(allocs <= most, "settling {moves} moves: {allocs} > {most}");
    }
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
    let (install, install_bytes) = count_bytes(|| assert!(router.install_map(APP, second)));
    // A third that changes no primary: a secondary joins shard 9.
    assignment
        .add_replica(ShardId(9), ServerId(11), ReplicaRole::Secondary)
        .expect("shard 9 is not on server 11");
    let third = ShardMap::from_assignment(3, &assignment);
    let (_, kept_bytes) = count_bytes(|| assert!(router.install_map(APP, third)));

    println!(
        "current_map: {taken}, server_down + settle: {free} alone, {beside} beside a held map \
         ({moved} shards moved), install_map: {install} ({install_bytes} bytes; \
         {kept_bytes} with no primary changed)"
    );
    assert!(taken <= 4, "current_map: {taken} > its spine");
    // Each shard that moved is in one leaf; at most every one in its own.
    let budget = free + 12 * moved;
    assert!(beside <= budget, "beside a held map: {beside} > {budget}");
    assert!(install <= 16, "install_map: {install} > its flat columns");
    // The range column, 16 bytes a range, copied once; and nothing of
    // it where no primary changed, which a fused column would copy too.
    let bytes = 16 * 16_384 + (1 << 10);
    assert!(
        install_bytes <= bytes,
        "install_map: {install_bytes} bytes > {bytes}"
    );
    assert!(
        kept_bytes <= 1 << 10,
        "install_map, no primary changed: {kept_bytes} bytes > 1 KiB"
    );
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
