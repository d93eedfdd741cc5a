//! Deterministic n-way parallel local search.
//!
//! [`ParallelSearch`] runs N seeded [`LocalSearch`] workers on
//! `std::thread::scope` (std-only, no work-stealing runtime) over a
//! **region partition**: bins are striped across N disjoint
//! partitions (round-robin over the region-sorted bin list, so every
//! partition spans every region), entities follow their replica
//! group or their initial bin, and each partition is solved
//! concurrently on a *narrower* configuration. The merged assignment
//! is then polished by a short sequential full-problem pass. Because
//! each worker searches a sub-problem (fewer candidate entities,
//! fewer target bins, smaller per-round scans), total work shrinks —
//! it is faster even on a single core.
//!
//! Determinism: the result is a pure function of `(problem, specs,
//! seed, threads)`. Worker `i` derives its RNG with
//! [`SimRng::seed_from`]`(seed, i)` — never by ad-hoc seed arithmetic
//! (sm-lint rule D2) — workers share no mutable state, results are
//! collected by joining handles in worker-index order, and every
//! reduction is order-independent. Budgets stay eval-counted, so no
//! wall-clock reading ever influences a decision (rule D1).

use crate::problem::{BinId, Entity, EntityId, GroupId, Problem};
use crate::search::{LocalSearch, SearchConfig, SearchStats};
use crate::specs::{AffinitySpec, ExclusionSpec, Spec, SpecSet};
use sm_sim::SimRng;

/// Marker for "entity/group not present in this partition".
const ABSENT: u32 = u32::MAX;

/// One disjoint slice of the full problem, with id-remapping tables
/// back to the global index spaces.
struct Partition {
    problem: Problem,
    specs: SpecSet,
    /// Local entity index -> global entity id.
    global_entity: Vec<EntityId>,
    /// Local bin index -> global bin id.
    global_bin: Vec<BinId>,
}

/// The deterministic parallel driver over [`LocalSearch`].
pub struct ParallelSearch {
    config: SearchConfig,
}

impl ParallelSearch {
    /// Creates a driver; `config.threads` is the worker count.
    pub fn new(config: SearchConfig) -> Self {
        Self { config }
    }

    /// Solves a problem its caller keeps and patches between solves
    /// ([`Problem::set_entity`]), as [`Self::solve`] would: returns the
    /// entities whose bin changes, ascending, each with the bin it ends
    /// on. On one thread the evaluator is kept with the problem between
    /// calls, so a solve after a few patches costs its search, not a
    /// build over every entity; a call with other `specs` builds it
    /// afresh.
    pub fn solve_moves(
        &self,
        problem: &mut Problem,
        specs: &SpecSet,
    ) -> (Vec<(EntityId, Option<BinId>)>, SearchStats) {
        if self.config.threads.min(problem.bin_count()) <= 1 {
            return LocalSearch::new(self.config.clone()).solve_moves(problem, specs);
        }
        let (assignment, stats) = self.solve(problem, specs);
        let changed = assignment.into_iter().zip(problem.initial_assignment());
        let moved = changed.enumerate().filter(|(_, (to, from))| to != *from);
        (moved.map(|(e, (to, _))| (EntityId(e), to)).collect(), stats)
    }

    /// Solves the problem. With `threads <= 1` this is byte-identical
    /// to [`LocalSearch::solve`]; otherwise disjoint sub-problems are
    /// solved concurrently, merged, then sequentially polished.
    pub fn solve(&self, problem: &Problem, specs: &SpecSet) -> (Vec<Option<BinId>>, SearchStats) {
        let n = self.config.threads.min(problem.bin_count()).max(1);
        if n <= 1 {
            return LocalSearch::new(self.config.clone()).solve(problem, specs);
        }
        let seed = self.config.seed;
        let partitions = build_partitions(problem, specs, n);

        // Workers get half the budget between them; the polish pass
        // gets whatever the workers left over.
        let per_worker_budget = self.config.eval_budget.map(|b| b / (2 * n as u64));
        let results: Vec<(Vec<Option<BinId>>, SearchStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(i, part)| {
                    let cfg = narrow(&self.config, per_worker_budget);
                    scope.spawn(move || {
                        let mut rng = SimRng::seed_from(seed, i as u64);
                        LocalSearch::new(cfg).solve_from(
                            &part.problem,
                            &part.specs,
                            part.problem.initial_assignment(),
                            &mut rng,
                        )
                    })
                })
                .collect();
            // Joining in worker-index order makes the collection order
            // independent of thread scheduling.
            handles
                .into_iter()
                .map(|h| h.join().expect("partition worker panicked"))
                .collect()
        });

        // Merge: partitions own disjoint bin and entity sets, so the
        // merged assignment is a set of independent writes — its value
        // does not depend on merge order.
        let mut merged: Vec<Option<BinId>> = vec![None; problem.entity_count()];
        for (part, (local_assignment, _)) in partitions.iter().zip(&results) {
            for (le, maybe_bin) in local_assignment.iter().enumerate() {
                merged[part.global_entity[le].0] = maybe_bin.map(|lb| part.global_bin[lb.0]);
            }
        }
        let worker_evaluated: u64 = results.iter().map(|(_, s)| s.evaluated).sum();
        let worker_moves: usize = results.iter().map(|(_, s)| s.moves).sum();

        // Sequential cross-partition polish over the full problem,
        // continuing the deterministic eval clock where the workers
        // stopped. The merged assignment is already near-feasible, so
        // the polish runs a single full-goal batch instead of the
        // priority ladder.
        let mut polish_cfg = self.config.clone();
        polish_cfg.use_batching = false;
        polish_cfg.eval_budget = self
            .config
            .eval_budget
            .map(|b| b.saturating_sub(worker_evaluated));
        let mut rng = SimRng::seed_from(seed, n as u64);
        let (assignment, polish_stats) =
            LocalSearch::new(polish_cfg).solve_from(problem, specs, &merged, &mut rng);

        let mut stats = polish_stats;
        // Partitions are bin-disjoint and group-disjoint, so every
        // penalty term is partition-local and the global initial
        // penalty is the sum of the per-partition ones (up to each
        // partition's own balance average, which striping keeps within
        // noise of the global average).
        stats.initial_penalty = results.iter().map(|(_, s)| s.initial_penalty).sum();
        stats.moves += worker_moves;
        stats.evaluated += worker_evaluated;
        // Shift the polish timeline onto the combined eval clock.
        for (evals, _, _) in &mut stats.timeline {
            *evals += worker_evaluated;
        }
        (assignment, stats)
    }
}

/// Narrows the per-round search widths for a partition worker: the
/// sub-problem is smaller, so smaller candidate fans reach the same
/// quality with less work.
fn narrow(base: &SearchConfig, budget: Option<u64>) -> SearchConfig {
    SearchConfig {
        hot_bins_per_round: (base.hot_bins_per_round / 4).max(2),
        entities_per_bin: (base.entities_per_bin / 2).max(4),
        targets_per_entity: (base.targets_per_entity / 3).max(8),
        // Workers converge fast and leave fine-tuning to the polish
        // pass, so a long non-improving tail is wasted work.
        patience: (base.patience / 4).max(2),
        eval_budget: budget,
        ..base.clone()
    }
}

/// Splits `problem` into `n` disjoint partitions.
///
/// Bins are sorted by (region domain, index) and striped round-robin,
/// so every partition spans every region — affinity, balance, and
/// spread goals all stay locally satisfiable and each partition's
/// average utilization tracks the global one. Entities follow their
/// replica group (`group % n`, keeping exclusion goals evaluable
/// in-partition), or the partition of their initial bin, or `id % n`
/// when unplaced; a grouped entity whose initial bin landed in another
/// partition enters its partition unplaced and is re-placed there.
fn build_partitions(problem: &Problem, specs: &SpecSet, n: usize) -> Vec<Partition> {
    let n_bins = problem.bin_count();
    let n_entities = problem.entity_count();
    let n_groups = problem.group_count();

    let mut region_sorted: Vec<usize> = (0..n_bins).collect();
    region_sorted.sort_by_key(|&b| {
        (
            problem
                .bin(BinId(b))
                .location
                .domain(sm_types::FaultDomain::Region),
            b,
        )
    });
    let mut part_of_bin = vec![0usize; n_bins];
    for (rank, &b) in region_sorted.iter().enumerate() {
        part_of_bin[b] = rank % n;
    }

    let part_of_group: Vec<usize> = (0..n_groups).map(|g| g % n).collect();
    let part_of_entity: Vec<usize> = (0..n_entities)
        .map(|e| {
            let entity = problem.entity(EntityId(e));
            if let Some(g) = entity.group {
                part_of_group[g.0]
            } else if let Some(bin) = problem.initial_assignment()[e] {
                part_of_bin[bin.0]
            } else {
                e % n
            }
        })
        .collect();

    // Global -> local id tables, shared across partitions (each slot
    // is only meaningful for the owning partition). Bins, groups, and
    // entities are distributed in one pass each — ascending global
    // order, so local ids are ascending within every partition.
    let mut local_bin = vec![ABSENT; n_bins];
    let mut local_entity = vec![ABSENT; n_entities];
    let mut local_group = vec![ABSENT; n_groups];

    let mut subs: Vec<Problem> = (0..n).map(|_| Problem::new()).collect();
    let mut global_bins: Vec<Vec<BinId>> = vec![Vec::new(); n];
    let mut global_entities: Vec<Vec<EntityId>> = vec![Vec::new(); n];
    for b in 0..n_bins {
        let p = part_of_bin[b];
        local_bin[b] = subs[p].add_bin(*problem.bin(BinId(b))).0 as u32;
        global_bins[p].push(BinId(b));
    }
    for g in 0..n_groups {
        let p = part_of_group[g];
        local_group[g] = subs[p].new_group().0 as u32;
    }
    for e in 0..n_entities {
        let p = part_of_entity[e];
        let entity = problem.entity(EntityId(e));
        let initial = problem.initial_assignment()[e]
            .and_then(|bin| (part_of_bin[bin.0] == p).then(|| BinId(local_bin[bin.0] as usize)));
        let id = subs[p].add_entity(
            Entity {
                load: entity.load,
                group: entity.group.map(|g| GroupId(local_group[g.0] as usize)),
            },
            initial,
        );
        local_entity[e] = id.0 as u32;
        global_entities[p].push(EntityId(e));
    }

    subs.into_iter()
        .zip(global_bins)
        .zip(global_entities)
        .enumerate()
        .map(|(p, ((sub, global_bin), global_entity))| Partition {
            specs: remap_specs(
                specs,
                &local_entity,
                &local_group,
                &part_of_entity,
                &part_of_group,
                p,
            ),
            problem: sub,
            global_entity,
            global_bin,
        })
        .collect()
}

/// Projects `specs` onto one partition: constraints and bin-local goals
/// copy through unchanged; affinity and exclusion goals keep only the
/// entities/groups owned by the partition, remapped to local ids.
fn remap_specs(
    specs: &SpecSet,
    local_entity: &[u32],
    local_group: &[u32],
    part_of_entity: &[usize],
    part_of_group: &[usize],
    p: usize,
) -> SpecSet {
    let mut out = SpecSet::new();
    out.constraints = specs.constraints.clone();
    out.forbid_group_colocation = specs.forbid_group_colocation;
    for goal in &specs.goals {
        match goal {
            Spec::Affinity(s) => {
                let affinities: Vec<(EntityId, u64, f64)> = s
                    .affinities
                    .iter()
                    .filter(|(e, _, _)| part_of_entity[e.0] == p)
                    .map(|(e, dom, w)| (EntityId(local_entity[e.0] as usize), *dom, *w))
                    .collect();
                if !affinities.is_empty() {
                    out.add_goal(Spec::Affinity(AffinitySpec {
                        scope: s.scope,
                        affinities,
                        priority: s.priority,
                    }));
                }
            }
            Spec::Exclusion(s) => {
                let groups: Vec<GroupId> = s
                    .groups
                    .iter()
                    .filter(|g| part_of_group[g.0] == p)
                    .map(|g| GroupId(local_group[g.0] as usize))
                    .collect();
                if !groups.is_empty() {
                    out.add_goal(Spec::Exclusion(ExclusionSpec {
                        scope: s.scope,
                        groups,
                        weight: s.weight,
                        priority: s.priority,
                    }));
                }
            }
            other => {
                out.add_goal(other.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Bin;
    use crate::specs::{BalanceSpec, CapacitySpec, Scope};
    use sm_types::{LoadVector, Location, MachineId, Metric, RegionId};

    fn loc(region: u16, machine: u32) -> Location {
        Location {
            region: RegionId(region),
            datacenter: u32::from(region),
            rack: u32::from(region) * 1000 + machine / 2,
            machine: MachineId(machine),
        }
    }

    fn cpu(v: f64) -> LoadVector {
        LoadVector::single(Metric::Cpu.id(), v)
    }

    /// A skewed problem: several regions, all load piled on few bins.
    fn skewed_problem(regions: u16, bins_per_region: u32, entities: usize) -> (Problem, SpecSet) {
        let mut p = Problem::new();
        let mut machine = 0;
        for r in 0..regions {
            for _ in 0..bins_per_region {
                p.add_bin(Bin {
                    capacity: cpu(100.0),
                    location: loc(r, machine),
                    draining: false,
                });
                machine += 1;
            }
        }
        let pile = p.bin_count().min(4);
        for i in 0..entities {
            p.add_entity(
                Entity {
                    load: cpu(4.0),
                    group: None,
                },
                Some(BinId(i % pile)),
            );
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
        (p, specs)
    }

    fn run(threads: usize, seed: u64) -> (Vec<Option<BinId>>, SearchStats) {
        let (p, specs) = skewed_problem(3, 8, 120);
        let solver = ParallelSearch::new(SearchConfig {
            seed,
            threads,
            ..Default::default()
        });
        solver.solve(&p, &specs)
    }

    #[test]
    fn single_thread_matches_local_search() {
        let (p, specs) = skewed_problem(3, 8, 120);
        let cfg = SearchConfig {
            seed: 5,
            threads: 1,
            ..Default::default()
        };
        let (a1, s1) = ParallelSearch::new(cfg.clone()).solve(&p, &specs);
        let (a2, s2) = LocalSearch::new(cfg).solve(&p, &specs);
        assert_eq!(a1, a2);
        assert_eq!(s1.timeline, s2.timeline);
        assert_eq!(s1.evaluated, s2.evaluated);
    }

    #[test]
    fn region_partition_is_deterministic_and_feasible() {
        for threads in [2, 4] {
            let (a1, s1) = run(threads, 9);
            let (a2, s2) = run(threads, 9);
            assert_eq!(a1, a2, "partition threads={threads}");
            assert_eq!(s1.timeline, s2.timeline);
            assert_eq!(s1.final_violations, 0);
            assert!(a1.iter().all(Option::is_some));
        }
    }

    #[test]
    fn partitions_cover_problem_disjointly() {
        let (p, specs) = skewed_problem(3, 8, 120);
        let parts = build_partitions(&p, &specs, 4);
        assert_eq!(parts.len(), 4);
        let mut bin_seen = vec![false; p.bin_count()];
        let mut entity_seen = vec![false; p.entity_count()];
        for part in &parts {
            // Every partition spans all three regions.
            let regions: std::collections::BTreeSet<u16> = part
                .problem
                .bins()
                .iter()
                .map(|b| b.location.region.0)
                .collect();
            assert_eq!(regions.len(), 3, "striping must cover every region");
            for b in &part.global_bin {
                assert!(!bin_seen[b.0], "bin {b:?} in two partitions");
                bin_seen[b.0] = true;
            }
            for e in &part.global_entity {
                assert!(!entity_seen[e.0], "entity {e:?} in two partitions");
                entity_seen[e.0] = true;
            }
        }
        assert!(bin_seen.iter().all(|&s| s));
        assert!(entity_seen.iter().all(|&s| s));
    }

    #[test]
    fn grouped_entities_stay_with_their_group() {
        let mut p = Problem::new();
        let mut machine = 0;
        for r in 0..3u16 {
            for _ in 0..4 {
                p.add_bin(Bin {
                    capacity: cpu(100.0),
                    location: loc(r, machine),
                    draining: false,
                });
                machine += 1;
            }
        }
        let mut groups = Vec::new();
        for i in 0..6 {
            let g = p.new_group();
            groups.push(g);
            for r in 0..2 {
                p.add_entity(
                    Entity {
                        load: cpu(2.0),
                        group: Some(g),
                    },
                    Some(BinId((i + r) % 12)),
                );
            }
        }
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups,
            weight: 5.0,
            priority: 0,
        }));
        let parts = build_partitions(&p, &specs, 3);
        for part in &parts {
            // Each local group's members must all live in this
            // partition, so the exclusion goal can see them together.
            for e in &part.global_entity {
                if let Some(g) = p.entity(*e).group {
                    assert_eq!(
                        g.0 % 3,
                        parts.iter().position(|q| std::ptr::eq(q, part)).unwrap()
                    );
                }
            }
            // Remapped exclusion goals reference only local groups.
            for goal in &part.specs.goals {
                if let Spec::Exclusion(s) = goal {
                    for g in &s.groups {
                        assert!(g.0 < part.problem.group_count());
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_than_bins_clamps() {
        let (p, specs) = skewed_problem(1, 2, 10);
        let solver = ParallelSearch::new(SearchConfig {
            seed: 1,
            threads: 8,
            ..Default::default()
        });
        let (a, s) = solver.solve(&p, &specs);
        assert!(a.iter().all(Option::is_some));
        assert_eq!(s.final_violations, 0);
    }
}
