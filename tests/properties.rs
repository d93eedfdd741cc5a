//! Property-based tests on the core invariants.
//!
//! Cases are generated from the workspace's own seeded [`SimRng`]
//! rather than an external property-testing framework: each property
//! runs a few hundred random cases from a fixed seed, so a failure is
//! reproducible by construction (the case index is reported in the
//! panic message).

use shard_manager::sim::SimRng;
use shard_manager::solver::penalty_tree::PenaltyTree;
use shard_manager::solver::{
    BalanceSpec, Bin, BinId, CapacitySpec, Entity, EntityId, Evaluator, ExclusionSpec, Problem,
    Scope, Spec, SpecSet,
};
use shard_manager::types::{
    AppKey, Assignment, KeyRange, LoadVector, Location, MachineId, Metric, RegionId, ReplicaRole,
    ServerId, ShardId, ShardingSpec,
};

// ---- Key-space properties ----

#[test]
fn uniform_spec_covers_key_space() {
    let mut rng = SimRng::seeded(0xA11CE);
    for case in 0..500 {
        let n = rng.range_u64(1, 64);
        let key = rng.next_u64();
        let spec = ShardingSpec::uniform_u64(n);
        let k = AppKey::from_u64(key);
        let shard = spec.shard_for(&k).expect("covered");
        let range = spec.range_of(shard).expect("range exists");
        assert!(range.contains(&k), "case {case}: n={n} key={key}");
    }
}

#[test]
fn prefix_scan_selects_exactly_matching_ranges() {
    let mut rng = SimRng::seeded(0xB0B);
    for case in 0..300 {
        let n = rng.range_u64(1, 32);
        let len = rng.index(3);
        let prefix: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
        let spec = ShardingSpec::uniform_u64(n);
        let selected = spec.shards_for_prefix(&prefix);
        for (range, shard) in spec.iter() {
            let intersects = range_intersects_prefix(range, &prefix);
            assert_eq!(
                selected.contains(shard),
                intersects,
                "case {case}: shard {shard} range {range} prefix {prefix:?}"
            );
        }
    }
}

#[test]
fn u64_key_order() {
    let mut rng = SimRng::seeded(0xC0DE);
    for _ in 0..1000 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_eq!(a.cmp(&b), AppKey::from_u64(a).cmp(&AppKey::from_u64(b)));
    }
}

/// Draws a random non-empty range: arbitrary byte-string bounds (short
/// keys hit the interesting prefix/adjacency edge cases), sometimes
/// unbounded, sometimes anchored at the minimum key.
fn random_range(rng: &mut SimRng) -> KeyRange {
    loop {
        let draw = |rng: &mut SimRng| {
            let len = rng.range_u64(0, 5) as usize;
            AppKey::new(
                (0..len)
                    .map(|_| rng.range_u64(0, 4) as u8)
                    .collect::<Vec<u8>>(),
            )
        };
        let start = if rng.chance(0.2) {
            AppKey::min()
        } else {
            draw(rng)
        };
        let range = if rng.chance(0.2) {
            KeyRange::from(start)
        } else {
            let end = draw(rng);
            if end <= start {
                continue;
            }
            KeyRange::new(start, end)
        };
        if !range.is_empty() {
            return range;
        }
    }
}

#[test]
fn split_children_partition_the_parent_exactly() {
    let mut rng = SimRng::seeded(0x5711);
    let mut split_cases = 0;
    for case in 0..500 {
        let parent = random_range(&mut rng);
        // The canonical split point; skip unsplittable slivers.
        let Some(at) = parent.midpoint() else {
            continue;
        };
        split_cases += 1;
        let (left, right) = parent
            .split_at(&at)
            .expect("midpoint is always a valid split point");
        // Both halves are real shards-to-be.
        assert!(!left.is_empty(), "case {case}: empty left of {parent}");
        assert!(!right.is_empty(), "case {case}: empty right of {parent}");
        // They tile the parent with no gap and no overlap.
        assert_eq!(left.start, parent.start, "case {case}");
        assert_eq!(left.end.as_ref(), Some(&at), "case {case}");
        assert_eq!(right.start, at, "case {case}");
        assert_eq!(right.end, parent.end, "case {case}");
        assert!(!left.overlaps(&right), "case {case}: {left} vs {right}");
        // Membership: random keys land in exactly one child iff they
        // were in the parent.
        for _ in 0..16 {
            let len = rng.range_u64(0, 6) as usize;
            let key = AppKey::new(
                (0..len)
                    .map(|_| rng.range_u64(0, 4) as u8)
                    .collect::<Vec<u8>>(),
            );
            let in_children = usize::from(left.contains(&key)) + usize::from(right.contains(&key));
            assert_eq!(
                usize::from(parent.contains(&key)),
                in_children,
                "case {case}: key {key} parent {parent} at {at}"
            );
        }
    }
    assert!(split_cases > 400, "only {split_cases} splittable cases");
}

#[test]
fn adjacent_merge_round_trips_a_split() {
    let mut rng = SimRng::seeded(0x3E61);
    for case in 0..500 {
        let parent = random_range(&mut rng);
        let Some(at) = parent.midpoint() else {
            continue;
        };
        let (left, right) = parent.split_at(&at).expect("splittable");
        // Merge heals the cut in either argument order.
        assert_eq!(left.merge(&right), Some(parent.clone()), "case {case}");
        assert_eq!(right.merge(&left), Some(parent.clone()), "case {case}");
    }
}

#[test]
fn non_adjacent_ranges_refuse_to_merge() {
    let mut rng = SimRng::seeded(0x6A99);
    for case in 0..500 {
        let a = random_range(&mut rng);
        let b = random_range(&mut rng);
        let adjacent = a.end.as_ref() == Some(&b.start) || b.end.as_ref() == Some(&a.start);
        assert_eq!(
            a.merge(&b).is_some(),
            adjacent,
            "case {case}: {a} merge {b}"
        );
    }
}

#[test]
fn spec_split_and_merge_preserve_coverage() {
    let mut rng = SimRng::seeded(0x57EC);
    for case in 0..200 {
        let n = rng.range_u64(1, 16);
        let mut spec = ShardingSpec::uniform_u64(n);
        let mut next_id = n;
        // A random walk of splits and merges; coverage must hold after
        // every step.
        for step in 0..8 {
            let ids: Vec<ShardId> = spec.shard_ids().collect();
            let tag = || format!("case {case} step {step}");
            if rng.chance(0.5) {
                // Split a random shard at its midpoint.
                let parent = ids[rng.index(ids.len())];
                let Some(at) = spec.range_of(parent).and_then(KeyRange::midpoint) else {
                    continue;
                };
                let (l, r) = (ShardId(next_id), ShardId(next_id + 1));
                next_id += 2;
                spec = spec.split_shard(parent, &at, l, r).expect("valid split");
                assert!(spec.range_of(parent).is_none(), "{}", tag());
            } else if ids.len() >= 2 {
                // Merge a random adjacent pair (sorted by range start,
                // neighbors in iteration order are adjacent).
                let entries: Vec<ShardId> = spec.iter().map(|(_, s)| *s).collect();
                let i = rng.index(entries.len() - 1);
                let into = ShardId(next_id);
                next_id += 1;
                spec = spec
                    .merge_shards(entries[i], entries[i + 1], into)
                    .expect("iteration neighbors are adjacent");
                assert!(spec.range_of(into).is_some(), "{}", tag());
            }
            // Coverage: every random key has exactly one owner, and the
            // owner's range agrees.
            for _ in 0..8 {
                let key = AppKey::from_u64(rng.next_u64());
                let owner = spec.shard_for(&key);
                let covering = spec.iter().filter(|(r, _)| r.contains(&key)).count();
                assert_eq!(covering, 1, "{}: key {key} has {covering} owners", tag());
                let shard = owner.expect("covered");
                assert!(
                    spec.range_of(shard).expect("owner in spec").contains(&key),
                    "{}: owner range disagrees for {key}",
                    tag()
                );
            }
        }
    }
}

fn range_intersects_prefix(range: &KeyRange, prefix: &[u8]) -> bool {
    // Oracle: brute force over the interval bounds.
    let lo = AppKey::new(prefix);
    let hi = {
        let mut p = prefix.to_vec();
        loop {
            match p.last_mut() {
                None => break None,
                Some(255) => {
                    p.pop();
                }
                Some(x) => {
                    *x += 1;
                    break Some(AppKey::new(p.clone()));
                }
            }
        }
    };
    match hi {
        Some(hi) => range.overlaps(&KeyRange::new(lo, hi)),
        None => range.overlaps(&KeyRange::from(lo)),
    }
}

// ---- Assignment invariants ----

#[derive(Debug, Clone)]
enum AsgOp {
    Add(u64, u32, bool),
    Remove(u64, u32),
    Move(u64, u32, u32),
    ChangeRole(u64, u32, bool),
    DropServer(u32),
}

fn random_asg_op(rng: &mut SimRng) -> AsgOp {
    let shard = rng.range_u64(0, 8);
    let a = rng.range_u64(0, 6) as u32;
    let b = rng.range_u64(0, 6) as u32;
    let flag = rng.chance(0.5);
    match rng.index(5) {
        0 => AsgOp::Add(shard, a, flag),
        1 => AsgOp::Remove(shard, a),
        2 => AsgOp::Move(shard, a, b),
        3 => AsgOp::ChangeRole(shard, a, flag),
        _ => AsgOp::DropServer(a),
    }
}

/// Under arbitrary operation sequences, an assignment never holds two
/// primaries for a shard and never hosts a shard twice on one server.
#[test]
fn assignment_invariants_hold() {
    let mut rng = SimRng::seeded(0xA55);
    for case in 0..200 {
        let mut a = Assignment::new();
        let steps = rng.index(60);
        for _ in 0..steps {
            let op = random_asg_op(&mut rng);
            let _ignored_result = match op {
                AsgOp::Add(s, v, p) => a
                    .add_replica(
                        ShardId(s),
                        ServerId(v),
                        if p {
                            ReplicaRole::Primary
                        } else {
                            ReplicaRole::Secondary
                        },
                    )
                    .map(|_| true),
                AsgOp::Remove(s, v) => Ok(a.remove_replica(ShardId(s), ServerId(v))),
                AsgOp::Move(s, x, y) => a
                    .move_replica(ShardId(s), ServerId(x), ServerId(y))
                    .map(|_| true),
                AsgOp::ChangeRole(s, v, p) => a
                    .change_role(
                        ShardId(s),
                        ServerId(v),
                        if p {
                            ReplicaRole::Primary
                        } else {
                            ReplicaRole::Secondary
                        },
                    )
                    .map(|_| true),
                AsgOp::DropServer(v) => Ok(!a.drop_server(ServerId(v)).is_empty()),
            };
            for shard in a.shard_ids().collect::<Vec<_>>() {
                let replicas = a.replicas(shard);
                let primaries = replicas.iter().filter(|r| r.role.is_primary()).count();
                assert!(
                    primaries <= 1,
                    "case {case}: {shard} has {primaries} primaries"
                );
                let mut servers: Vec<ServerId> = replicas.iter().map(|r| r.server).collect();
                servers.sort();
                servers.dedup();
                assert_eq!(
                    servers.len(),
                    replicas.len(),
                    "case {case}: {shard} hosted twice"
                );
            }
        }
    }
}

// ---- Penalty tree vs naive oracle ----

#[test]
fn penalty_tree_matches_naive_sum() {
    let mut rng = SimRng::seeded(0x7EE);
    for case in 0..100 {
        let mut tree = PenaltyTree::new(64);
        let mut naive = vec![0.0f64; 64];
        let updates = 1 + rng.index(200);
        for _ in 0..updates {
            let i = rng.index(64);
            let v = rng.f64_range(0.0, 100.0);
            tree.set(i, v);
            naive[i] = v;
            let expect: f64 = naive.iter().sum();
            assert!(
                (tree.total() - expect).abs() < 1e-6,
                "case {case}: tree {} vs naive {expect}",
                tree.total()
            );
        }
        // Top-k agrees with a naive argmax scan on the hottest leaf.
        if let Some(&top) = tree.top_k(1).first() {
            let best = naive
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite penalties"))
                .expect("non-empty")
                .0;
            assert!((naive[top] - naive[best]).abs() < 1e-9, "case {case}");
        }
    }
}

// ---- Evaluator: incremental deltas match recomputation ----

/// For random problems and random applied moves, the incrementally
/// maintained objective equals a from-scratch recomputation, and every
/// predicted move delta matches the actual change.
#[test]
fn evaluator_incremental_consistency() {
    let mut rng = SimRng::seeded(0xE7A1);
    for case in 0..150 {
        let seed = rng.range_u64(0, 500);
        let mut p = Problem::new();
        for i in 0..9u32 {
            p.add_bin(Bin {
                capacity: LoadVector::single(Metric::Cpu.id(), 50.0),
                location: Location {
                    region: RegionId((i % 3) as u16),
                    datacenter: i % 3,
                    rack: i,
                    machine: MachineId(i),
                },
                draining: i == 0,
            });
        }
        let mut groups = Vec::new();
        for gi in 0..8 {
            let g = p.new_group();
            groups.push(g);
            for r in 0..3 {
                let load = ((seed + gi as u64 * 3 + r) % 7 + 1) as f64;
                p.add_entity(
                    Entity {
                        load: LoadVector::single(Metric::Cpu.id(), load),
                        group: Some(g),
                    },
                    Some(BinId(((gi * 3 + r as usize) + seed as usize) % 9)),
                );
            }
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups,
            weight: 2.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Drain(shard_manager::solver::DrainSpec {
            weight: 1.5,
            priority: 1,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        let moves = 1 + rng.index(40);
        for _ in 0..moves {
            let entity = EntityId(rng.index(24));
            let target = BinId(rng.index(9));
            if let Some(delta) = eval.eval_move(entity, target) {
                let before = eval.total_penalty();
                eval.apply_move(entity, target);
                let after = eval.total_penalty();
                assert!(
                    (after - before - delta).abs() < 1e-9,
                    "case {case}: predicted {delta}, got {}",
                    after - before
                );
                assert!((after - eval.recompute_total()).abs() < 1e-9, "case {case}");
            }
        }
    }
}

// ---- Move scheduler caps ----

/// The scheduler never exceeds any cap and always drains.
#[test]
fn move_scheduler_respects_caps() {
    use shard_manager::allocator::{MoveCaps, MoveScheduler, ReplicaMove};
    use std::collections::BTreeMap;
    let mut rng = SimRng::seeded(0x5C4ED);
    for case in 0..200 {
        let raw: Vec<(u64, u32, u32)> = (0..rng.index(60))
            .map(|_| {
                (
                    rng.range_u64(0, 12),
                    rng.range_u64(0, 8) as u32,
                    rng.range_u64(0, 8) as u32,
                )
            })
            .collect();
        let total = 1 + rng.index(7);
        let per_server = 1 + rng.index(3);
        let per_shard = 1 + rng.index(2);
        let moves: Vec<ReplicaMove> = raw
            .into_iter()
            .filter(|(_, from, to)| from != to)
            .enumerate()
            .map(|(i, (s, from, to))| ReplicaMove {
                shard: ShardId(s),
                replica: i,
                from: Some(ServerId(from)),
                to: ServerId(to),
            })
            .collect();
        let n = moves.len();
        let caps = MoveCaps {
            max_total: total,
            max_per_server: per_server,
            max_per_shard: per_shard,
        };
        let mut sched = MoveScheduler::new(moves, caps);
        let mut executed = 0usize;
        let mut guard = 0;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 10_000, "case {case}: scheduler must make progress");
            let wave = sched.release();
            assert!(sched.in_flight() <= total, "case {case}");
            let mut per_srv: BTreeMap<ServerId, usize> = BTreeMap::new();
            let mut per_shd: BTreeMap<ShardId, usize> = BTreeMap::new();
            for mv in &wave {
                for s in mv.from.into_iter().chain([mv.to]) {
                    *per_srv.entry(s).or_insert(0) += 1;
                }
                *per_shd.entry(mv.shard).or_insert(0) += 1;
            }
            for (_, k) in per_srv {
                assert!(k <= per_server, "case {case}");
            }
            for (_, k) in per_shd {
                assert!(k <= per_shard, "case {case}");
            }
            assert!(
                !wave.is_empty() || sched.in_flight() > 0,
                "case {case}: stuck with nothing in flight"
            );
            for mv in wave {
                executed += 1;
                sched.complete(&mv);
            }
        }
        assert_eq!(executed, n, "case {case}");
    }
}

// ---- ZooKeeper session semantics ----

/// Ephemerals die with their session; persistents survive.
#[test]
fn zk_ephemerals_die_with_session() {
    use shard_manager::zk::{CreateMode, ZkStore};
    let mut rng = SimRng::seeded(0x2008);
    for case in 0..200 {
        let mut zk = ZkStore::new();
        let sessions: Vec<_> = (0..4).map(|_| zk.connect()).collect();
        let root = zk.connect();
        zk.create(root, "/n", vec![], CreateMode::Persistent)
            .expect("create root container");
        let expire = rng.index(4);
        let mut expected_alive = Vec::new();
        let nodes = 1 + rng.index(19);
        for i in 0..nodes {
            let owner = rng.index(4);
            let ephemeral = rng.chance(0.5);
            let path = format!("/n/z{i}");
            let mode = if ephemeral {
                CreateMode::Ephemeral
            } else {
                CreateMode::Persistent
            };
            zk.create(sessions[owner], &path, vec![], mode)
                .expect("create node");
            if !ephemeral || owner != expire {
                expected_alive.push(path);
            }
        }
        zk.expire_session(sessions[expire]);
        for path in &expected_alive {
            assert!(zk.exists(path), "case {case}: {path} should survive");
        }
        let children = zk.children("/n").expect("children of /n");
        assert_eq!(children.len(), expected_alive.len(), "case {case}");
    }
}

// ---- Local search end-state invariants ----

/// Whatever the starting assignment, local search never worsens the
/// objective and never leaves a hard capacity/colocation violation it
/// didn't start with.
#[test]
fn search_is_monotone_and_respects_hard_constraints() {
    use shard_manager::solver::{LocalSearch, SearchConfig};
    let mut rng = SimRng::seeded(0x5EA);
    for case in 0..60 {
        let seed = rng.range_u64(0, 200);
        let placements: Vec<usize> = (0..18).map(|_| rng.index(6)).collect();
        let mut p = Problem::new();
        for i in 0..6u32 {
            p.add_bin(Bin {
                capacity: LoadVector::single(Metric::Cpu.id(), 12.0),
                location: Location {
                    region: RegionId((i % 2) as u16),
                    datacenter: i % 2,
                    rack: i,
                    machine: MachineId(i),
                },
                draining: false,
            });
        }
        let mut groups = Vec::new();
        for g in 0..6 {
            let group = p.new_group();
            groups.push(group);
            for r in 0..3 {
                p.add_entity(
                    Entity {
                        load: LoadVector::single(Metric::Cpu.id(), 2.0),
                        group: Some(group),
                    },
                    Some(BinId(placements[g * 3 + r])),
                );
            }
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups,
            weight: 2.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert!(
            stats.final_penalty <= stats.initial_penalty + 1e-9,
            "case {case}"
        );
        // Final state: hard capacity holds wherever the start held it;
        // here the start always fits (6 entities/bin max = 12 load), so
        // the end must too, and no group is colocated... capacity only:
        let eval = Evaluator::with_assignment(&p, &specs, u8::MAX, &assignment);
        let end = eval.violations();
        assert_eq!(end.unplaced, 0, "case {case}");
        // Hard capacity: a start within capacity must end within it.
        let mut start_usage = [0.0f64; 6];
        for &b in placements.iter() {
            start_usage[b] += 2.0;
        }
        if start_usage.iter().all(|&u| u <= 12.0) {
            assert_eq!(end.capacity, 0, "case {case}");
        }
    }
}

// ---- Replication log safety ----

#[derive(Debug, Clone)]
enum LogOp {
    Append(u8),
    Replicate(usize),
    Commit,
    KillLeader,
    ElectSafe(usize),
}

fn random_log_op(rng: &mut SimRng) -> LogOp {
    match rng.index(5) {
        0 => LogOp::Append(rng.range_u64(0, 256) as u8),
        1 => LogOp::Replicate(rng.index(5)),
        2 => LogOp::Commit,
        3 => LogOp::KillLeader,
        _ => LogOp::ElectSafe(rng.index(5)),
    }
}

/// Committed entries are never lost or reordered, under arbitrary
/// interleavings of appends, replication, leader kills, and safe
/// elections.
#[test]
fn replication_never_loses_committed_entries() {
    use shard_manager::apps::replication::ReplicationGroup;
    let mut rng = SimRng::seeded(0x10C);
    for case in 0..150 {
        let mut g: ReplicationGroup<u32> = ReplicationGroup::new([0u32, 1, 2, 3, 4]);
        g.elect(0).expect("initial election");
        let mut committed_history: Vec<Vec<u8>> = Vec::new();
        let steps = rng.index(80);
        for _ in 0..steps {
            match random_log_op(&mut rng) {
                LogOp::Append(b) => {
                    if let Some(leader) = g.leader() {
                        let _appended = g.append(leader, vec![b]);
                    }
                }
                LogOp::Replicate(f) => {
                    let _replicated = g.replicate_to(f as u32);
                }
                LogOp::Commit => {
                    g.advance_commit();
                    // The leader's commit index may lag right after an
                    // election (followers haven't re-acked), but two
                    // safety properties must always hold:
                    // 1. everything ever committed is a prefix of the
                    //    current leader's log (no committed data lost);
                    // 2. whatever the leader now reports committed never
                    //    rewrites earlier committed data.
                    if let Some(leader) = g.leader() {
                        if let Some(log) = g.log(leader) {
                            assert!(
                                log.entries().len() >= committed_history.len(),
                                "case {case}: leader lost committed entries"
                            );
                            for (h, e) in committed_history.iter().zip(log.entries()) {
                                assert_eq!(
                                    h.as_slice(),
                                    e.data().unwrap_or(&[]),
                                    "case {case}: committed entry rewritten in log"
                                );
                            }
                            let prefix: Vec<Vec<u8>> = log
                                .committed_entries()
                                .iter()
                                .map(|e| e.data().unwrap_or(&[]).to_vec())
                                .collect();
                            for (a, b) in committed_history.iter().zip(prefix.iter()) {
                                assert_eq!(a, b, "case {case}: commit index covers different data");
                            }
                            if prefix.len() > committed_history.len() {
                                committed_history = prefix;
                            }
                        }
                    }
                }
                LogOp::KillLeader => {
                    // The leader's node crashes: it stops serving and
                    // cannot vote, but its log — durable storage —
                    // survives and the node may return later. No
                    // precondition is needed: the joint-quorum election
                    // rule alone guarantees committed entries survive.
                    // Keep at most two of five down so recovery stays
                    // possible.
                    if let Some(leader) = g.leader() {
                        let down_now = (0..5u32).filter(|&m| g.is_down(m)).count();
                        if down_now >= 2 {
                            for m in 0..5u32 {
                                if g.is_down(m) {
                                    g.set_down(m, false);
                                    break;
                                }
                            }
                        }
                        g.set_down(leader, true);
                        g.step_down(leader);
                    }
                }
                LogOp::ElectSafe(pick) => {
                    let safe = g.safe_successors();
                    if !safe.is_empty() && g.leader().is_none() {
                        let id = safe[pick % safe.len()];
                        g.elect(id).expect("safe successor is electable");
                    }
                }
            }
        }
    }
}

// ---- Graceful-handover admission: a request is never rejected ----

/// At every step of the §4.3 protocol, a client request that reaches
/// either server is served or forwarded to the other — never rejected —
/// as long as the client could have reached step 0 state.
#[test]
fn handover_admission_never_drops() {
    use shard_manager::apps::forwarding::{AppResponse, ShardHost};
    use shard_manager::types::ReplicaRole;
    for step in 0..5usize {
        for forwarded in [false, true] {
            let shard = ShardId(1);
            let old_id = ServerId(10);
            let new_id = ServerId(20);
            let mut old = ShardHost::new();
            let mut new = ShardHost::new();
            old.add_shard(shard, ReplicaRole::Primary)
                .expect("initial add");
            if step >= 1 {
                new.prepare_add_shard(shard, old_id, ReplicaRole::Primary)
                    .expect("prepare add");
            }
            if step >= 2 {
                old.prepare_drop_shard(shard, new_id, ReplicaRole::Primary)
                    .expect("prepare drop");
            }
            if step >= 3 {
                new.add_shard(shard, ReplicaRole::Primary).expect("add");
            }
            if step >= 4 {
                old.drop_shard(shard).expect("drop");
            }
            // A client with a pre-migration map sends to the old server.
            match old.admit(shard, false) {
                AppResponse::Serve => {}
                AppResponse::Forward(target) => {
                    assert_eq!(target, new_id);
                    // The forwarded request must be accepted at the target.
                    assert_eq!(new.admit(shard, true), AppResponse::Serve);
                }
                AppResponse::NotMine => panic!("old server dropped a request at step {step}"),
            }
            // A client with a post-migration map (possible once step >= 3)
            // sends to the new server directly.
            if step >= 3 {
                assert_eq!(new.admit(shard, forwarded), AppResponse::Serve);
            }
        }
    }
}
