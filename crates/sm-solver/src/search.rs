//! The local-search engine (§5.3).
//!
//! Starting from the current assignment, the search repeatedly:
//!
//! 1. picks the hottest bins by attributed penalty (plus the replica
//!    groups that currently violate a spread goal);
//! 2. enumerates candidate entities on them — large loads first, with
//!    equivalent entities deduplicated;
//! 3. samples destination bins, either uniformly or *grouped* by
//!    (region, utilization band), the domain-knowledge optimization the
//!    paper credits with the Figure 22 speedup;
//! 4. evaluates every candidate move incrementally and applies the best
//!    improving one; when single moves stall it attempts two-way swaps.
//!
//! Goals are activated in priority batches (earlier batches get more of
//! the evaluation budget), and the run stops on convergence, an
//! exhausted move/evaluation budget, or a zero objective. All budgets
//! are counted in solver steps, never wall time, so a solve is a pure
//! function of `(problem, specs, seed)` — the property the replayable
//! simulator and the figure harness rely on (sm-lint rule D1).

use crate::eval::{Evaluator, ViolationStats};
use crate::problem::{BinId, EntityId, Problem};
use crate::specs::SpecSet;
use sm_types::METRIC_COUNT;

use sm_sim::SimRng;

/// Tuning knobs and ablation switches for [`LocalSearch`].
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// RNG seed.
    pub seed: u64,
    /// Worker count for [`crate::ParallelSearch`]; `0` or `1` means
    /// the plain single-threaded [`LocalSearch`] path.
    pub threads: usize,
    /// Maximum number of applied moves (the paper's "move budget").
    pub max_moves: usize,
    /// Candidate-evaluation budget; `None` = unbounded. This is the
    /// deterministic replacement for a wall-clock budget: evaluations
    /// are the unit of solver work, so equal seeds + equal budgets
    /// give identical runs (sm-lint rule D1).
    pub eval_budget: Option<u64>,
    /// Hot bins examined per round.
    pub hot_bins_per_round: usize,
    /// Candidate entities taken from each hot bin.
    pub entities_per_bin: usize,
    /// Destination bins sampled per candidate entity.
    pub targets_per_entity: usize,
    /// The §5.3 candidate optimizations, together: sample targets
    /// across (region, utilization band) groups instead of uniformly,
    /// skip equivalent entities, evaluate large shards before small
    /// ones, and attempt two-way swaps when single moves stall.
    pub use_optimizations: bool,
    /// §5.3: activate goals in priority batches.
    pub use_batching: bool,
    /// Record a timeline sample every this many applied moves.
    pub sample_every: usize,
    /// Consecutive non-improving rounds (with resampled candidates)
    /// before a batch is declared converged.
    pub patience: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            threads: 1,
            max_moves: usize::MAX,
            eval_budget: None,
            hot_bins_per_round: 8,
            entities_per_bin: 8,
            targets_per_entity: 24,
            use_optimizations: true,
            use_batching: true,
            sample_every: 512,
            patience: 16,
        }
    }
}

impl SearchConfig {
    /// The naive configuration used as the Figure 22 ablation baseline:
    /// uniform random target sampling and none of the §5.3 candidate
    /// optimizations.
    pub fn baseline(seed: u64) -> Self {
        Self {
            seed,
            use_optimizations: false,
            use_batching: false,
            ..Self::default()
        }
    }
}

/// Outcome statistics of a search run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Applied moves.
    pub moves: usize,
    /// Candidate evaluations performed.
    pub evaluated: u64,
    /// Objective before the run.
    pub initial_penalty: f64,
    /// Objective after the run.
    pub final_penalty: f64,
    /// Total violations after the run.
    pub final_violations: usize,
    /// The violations after the run by category, counted on the last
    /// batch's evaluator (every goal the run activated).
    pub violations: ViolationStats,
    /// `(evaluations so far, total violations, penalty)` samples over
    /// the run — the series plotted in Figures 21 and 22. Evaluations
    /// are the deterministic clock of a solve; callers that want wall
    /// time measure around `solve()` themselves.
    pub timeline: Vec<(u64, usize, f64)>,
}

/// Reusable per-round buffers so the hot loop never reallocates:
/// candidate and target vectors are cleared and refilled each round
/// instead of constructed fresh.
#[derive(Default)]
struct Scratch {
    candidates: Vec<EntityId>,
    targets: Vec<BinId>,
    on_bin: Vec<EntityId>,
    /// `(misplacement, load, entity)` ranking keys, computed once per
    /// entity per round instead of once per sort comparison.
    ranked: Vec<(f64, f64, EntityId)>,
    /// Load keys of candidates kept so far (equivalence dedup).
    seen_keys: Vec<[u64; METRIC_COUNT]>,
}

/// The local-search solver.
pub struct LocalSearch {
    config: SearchConfig,
}

impl LocalSearch {
    /// Creates a solver with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        Self { config }
    }

    /// Solves the problem: returns the final assignment and run stats.
    pub fn solve(&self, problem: &Problem, specs: &SpecSet) -> (Vec<Option<BinId>>, SearchStats) {
        let mut rng = SimRng::seeded(self.config.seed);
        self.solve_from(
            problem,
            specs,
            problem.initial_assignment().to_vec(),
            &mut rng,
        )
    }

    /// Like [`Self::solve`] but starting from an explicit assignment
    /// and an externally seeded RNG — the building block
    /// [`crate::ParallelSearch`] uses for per-worker solves and for the
    /// sequential cross-partition polish pass.
    pub(crate) fn solve_from(
        &self,
        problem: &Problem,
        specs: &SpecSet,
        initial: Vec<Option<BinId>>,
        rng: &mut SimRng,
    ) -> (Vec<Option<BinId>>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut assignment = initial;
        let mut scratch = Scratch::default();

        let batches: Vec<u8> = if self.config.use_batching {
            specs.priorities()
        } else {
            vec![u8::MAX]
        };
        let batches = if batches.is_empty() {
            vec![u8::MAX]
        } else {
            batches
        };
        let n_batches = batches.len() as u32;

        for (bi, &prio) in batches.iter().enumerate() {
            let mut eval = Evaluator::with_assignment(problem, specs, prio, &assignment);
            if bi == 0 {
                stats.initial_penalty = eval.total_penalty();
                self.place_unplaced(problem, &mut eval, rng, &mut stats, &mut scratch);
            }
            // Earlier batches get a larger share of the remaining
            // budget: batch k of n gets 1/(n-k) of what is left when
            // it starts.
            let batch_deadline = self.config.eval_budget.map(|budget| {
                let remaining = budget.saturating_sub(stats.evaluated);
                let share = remaining / u64::from(n_batches - bi as u32);
                stats.evaluated + share
            });
            self.run_batch(
                problem,
                &mut eval,
                rng,
                &mut stats,
                batch_deadline,
                &mut scratch,
            );
            assignment = eval.assignment();
            stats.final_penalty = eval.total_penalty();
            stats.violations = eval.violations();
            stats.final_violations = stats.violations.total();
        }
        stats
            .timeline
            .push((stats.evaluated, stats.final_violations, stats.final_penalty));
        (assignment, stats)
    }

    /// Emergency-style greedy placement of unplaced entities: sample
    /// candidate bins, keep the best non-violating one.
    fn place_unplaced(
        &self,
        problem: &Problem,
        eval: &mut Evaluator,
        rng: &mut SimRng,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
    ) {
        let n_bins = problem.bin_count();
        if n_bins == 0 {
            return;
        }
        for i in 0..problem.entity_count() {
            let e = EntityId(i);
            if eval.bin_of(e).is_some() {
                continue;
            }
            self.sample_targets(eval, rng, n_bins, &mut scratch.targets);
            let mut best: Option<(f64, BinId)> = None;
            for &t in &scratch.targets {
                stats.evaluated += 1;
                if let Some(delta) = eval.eval_move(e, t) {
                    if best.map(|(d, _)| delta < d).unwrap_or(true) {
                        best = Some((delta, t));
                    }
                }
            }
            // Fall back to a full scan if sampling found nothing feasible.
            if best.is_none() {
                for b in 0..n_bins {
                    stats.evaluated += 1;
                    if let Some(delta) = eval.eval_move(e, BinId(b)) {
                        if best.map(|(d, _)| delta < d).unwrap_or(true) {
                            best = Some((delta, BinId(b)));
                        }
                    }
                }
            }
            if let Some((_, t)) = best {
                eval.apply_move(e, t);
                stats.moves += 1;
            }
        }
    }

    fn run_batch(
        &self,
        problem: &Problem,
        eval: &mut Evaluator,
        rng: &mut SimRng,
        stats: &mut SearchStats,
        deadline: Option<u64>,
        scratch: &mut Scratch,
    ) {
        let n_bins = problem.bin_count();
        if n_bins < 2 {
            return;
        }
        let mut moves_since_sample = 0usize;
        let mut dry_rounds = 0usize;
        loop {
            if stats.moves >= self.config.max_moves {
                return;
            }
            if let Some(d) = deadline {
                if stats.evaluated >= d {
                    return;
                }
            }
            if eval.total_penalty() <= 1e-9 {
                return;
            }

            let improved = self.one_round(eval, rng, stats, n_bins, scratch);
            if stats.moves / self.config.sample_every.max(1)
                != moves_since_sample / self.config.sample_every.max(1)
            {
                moves_since_sample = stats.moves;
                stats.timeline.push((
                    stats.evaluated,
                    eval.violations().total(),
                    eval.total_penalty(),
                ));
            }
            if improved {
                dry_rounds = 0;
            } else {
                // Candidates and targets are sampled, so one dry round
                // does not prove convergence; retry with fresh samples
                // (and swaps) up to the configured patience.
                dry_rounds += 1;
                let swapped = self.config.use_optimizations
                    && self.try_swaps(eval, rng, stats, n_bins, scratch);
                if swapped {
                    dry_rounds = 0;
                } else if dry_rounds >= self.config.patience.max(1) {
                    return; // local optimum for this batch
                }
            }
        }
    }

    /// One improvement round: gather candidates, apply the best move.
    /// Returns false when no improving move was found.
    fn one_round(
        &self,
        eval: &mut Evaluator,
        rng: &mut SimRng,
        stats: &mut SearchStats,
        n_bins: usize,
        scratch: &mut Scratch,
    ) -> bool {
        self.candidate_entities(eval, rng, scratch);
        if scratch.candidates.is_empty() {
            return false;
        }
        self.sample_targets(eval, rng, n_bins, &mut scratch.targets);
        let mut best: Option<(f64, EntityId, BinId)> = None;
        for &e in &scratch.candidates {
            for &t in &scratch.targets {
                stats.evaluated += 1;
                if let Some(delta) = eval.eval_move(e, t) {
                    if delta < -1e-9 && best.map(|(d, _, _)| delta < d).unwrap_or(true) {
                        best = Some((delta, e, t));
                    }
                }
            }
        }
        match best {
            Some((_, e, t)) => {
                eval.apply_move(e, t);
                stats.moves += 1;
                true
            }
            None => false,
        }
    }

    /// Candidate source entities: from the hottest bins (large loads
    /// first, deduplicated by equivalence) plus members of violated
    /// spread groups. Fills `scratch.candidates`.
    fn candidate_entities(&self, eval: &Evaluator, rng: &mut SimRng, scratch: &mut Scratch) {
        scratch.candidates.clear();
        for bin in eval.hot_bins(self.config.hot_bins_per_round) {
            scratch.on_bin.clear();
            scratch.on_bin.extend_from_slice(eval.entities_on(bin));
            // Shuffle first so ties in the ranking rotate across rounds
            // — otherwise unfixable candidates can starve fixable ones.
            rng.shuffle(&mut scratch.on_bin);
            if self.config.use_optimizations {
                // Rank by how much the entity's own violations hurt the
                // objective (affinity/drain misplacement), then by load
                // (§5.3: evaluate large shards earlier). Keys are
                // computed once per entity; the stable sort over the
                // shuffled order matches sorting with per-comparison
                // key recomputation exactly.
                scratch.ranked.clear();
                scratch.ranked.extend(
                    scratch
                        .on_bin
                        .iter()
                        .map(|&e| (eval.entity_misplacement(e), sum_load(eval, e), e)),
                );
                scratch.ranked.sort_by(|a, b| {
                    (b.0, b.1)
                        .partial_cmp(&(a.0, a.1))
                        .expect("loads are finite")
                });
                scratch.on_bin.clear();
                scratch.on_bin.extend(scratch.ranked.iter().map(|r| r.2));
            }
            if self.config.use_optimizations {
                // Keep the first entity of each distinct load vector,
                // stopping as soon as the per-bin quota is filled — the
                // tail never needs its keys computed.
                scratch.seen_keys.clear();
                let mut kept = 0usize;
                for idx in 0..scratch.on_bin.len() {
                    if kept == self.config.entities_per_bin {
                        break;
                    }
                    let e = scratch.on_bin[idx];
                    let key = load_key(eval, e);
                    if scratch.seen_keys.contains(&key) {
                        continue;
                    }
                    scratch.seen_keys.push(key);
                    scratch.on_bin[kept] = e;
                    kept += 1;
                }
                scratch.on_bin.truncate(kept);
            } else {
                scratch.on_bin.truncate(self.config.entities_per_bin);
            }
            scratch.candidates.extend_from_slice(&scratch.on_bin);
        }
        // Replica groups violating a spread goal contribute their
        // members directly — their bins may not be hot.
        let violated = eval.violated_groups();
        for (_, members) in violated.iter().take(self.config.hot_bins_per_round) {
            scratch.candidates.extend(members.iter().copied());
        }
        scratch
            .candidates
            .truncate(self.config.hot_bins_per_round * self.config.entities_per_bin * 2);
    }

    /// Samples destination bins into `out`. With grouped sampling, bins
    /// are grouped by (region, utilization band) and each group
    /// contributes samples, so region-preference and spread goals
    /// always see in-region and out-of-region options; otherwise
    /// sampling is uniform. The group index is maintained incrementally
    /// by the evaluator, keeping the per-round cost O(k) instead of
    /// O(bins).
    fn sample_targets(
        &self,
        eval: &Evaluator,
        rng: &mut SimRng,
        n_bins: usize,
        out: &mut Vec<BinId>,
    ) {
        out.clear();
        let k = self.config.targets_per_entity.min(n_bins);
        if !self.config.use_optimizations {
            out.extend(rng.sample_indices(n_bins, k).into_iter().map(BinId));
            return;
        }
        let groups = eval.target_groups();
        let per_group = (k / groups.len().max(1)).max(1);
        for bins in groups.values() {
            for idx in rng.sample_indices(bins.len(), per_group) {
                out.push(BinId(bins[idx]));
            }
        }
    }

    /// Attempts two-way swaps between entities on hot bins and entities
    /// on sampled other bins. Returns true if a swap was applied.
    fn try_swaps(
        &self,
        eval: &mut Evaluator,
        rng: &mut SimRng,
        stats: &mut SearchStats,
        n_bins: usize,
        scratch: &mut Scratch,
    ) -> bool {
        let hot = eval.hot_bins(4);
        self.sample_targets(eval, rng, n_bins, &mut scratch.targets);
        // Snapshot buffers: `apply_move` below invalidates the
        // evaluator's live entity lists.
        let mut hot_entities: Vec<EntityId> = Vec::with_capacity(4);
        let mut others: Vec<EntityId> = Vec::with_capacity(2);
        for &hot_bin in &hot {
            hot_entities.clear();
            hot_entities.extend(eval.entities_on(hot_bin).iter().take(4));
            for &e1 in &hot_entities {
                for ti in 0..scratch.targets.len().min(8) {
                    let other_bin = scratch.targets[ti];
                    if other_bin == hot_bin {
                        continue;
                    }
                    others.clear();
                    others.extend(eval.entities_on(other_bin).iter().take(2));
                    for &e2 in &others {
                        stats.evaluated += 2;
                        let Some(d1) = eval.eval_move(e1, other_bin) else {
                            continue;
                        };
                        eval.apply_move(e1, other_bin);
                        let d2 = eval.eval_move(e2, hot_bin);
                        match d2 {
                            Some(d2) if d1 + d2 < -1e-9 => {
                                eval.apply_move(e2, hot_bin);
                                stats.moves += 2;
                                return true;
                            }
                            _ => {
                                // Revert the speculative first half.
                                eval.apply_move(e1, hot_bin);
                            }
                        }
                    }
                }
            }
        }
        false
    }
}

fn sum_load(eval: &Evaluator, e: EntityId) -> f64 {
    let load = eval.load_of(e);
    (0..METRIC_COUNT)
        .map(|m| load.get(sm_types::MetricId(m)))
        .sum()
}

fn load_key(eval: &Evaluator, e: EntityId) -> [u64; METRIC_COUNT] {
    let load = eval.load_of(e);
    let mut key = [0u64; METRIC_COUNT];
    for (m, slot) in key.iter_mut().enumerate() {
        *slot = load.get(sm_types::MetricId(m)).to_bits();
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bin, Entity};
    use crate::specs::{
        AffinitySpec, BalanceSpec, CapacitySpec, ExclusionSpec, Scope, Spec, UtilizationCapSpec,
    };
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

    /// Builds `bins_per_region x regions` bins of CPU capacity 100.
    fn build_bins(p: &mut Problem, regions: u16, bins_per_region: u32) {
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
    }

    #[test]
    fn balances_skewed_load() {
        // 40 entities of load 10 all piled on bin 0 of 8 bins: avg util
        // is 0.5, so the balance band is 60 per bin; search must spread.
        let mut p = Problem::new();
        build_bins(&mut p, 1, 8);
        for _ in 0..40 {
            p.add_entity(
                Entity {
                    load: cpu(10.0),
                    group: None,
                },
                Some(BinId(0)),
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
        let solver = LocalSearch::new(SearchConfig {
            seed: 7,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert_eq!(stats.final_violations, 0, "all balance violations fixed");
        assert!(stats.final_penalty <= 1e-9);
        assert!(stats.moves > 0);
        // No bin should hold more than 60.
        let mut usage = vec![0.0; 8];
        for (i, b) in assignment.iter().enumerate() {
            let _ = i;
            usage[b.unwrap().0] += 10.0;
        }
        assert!(usage.iter().all(|&u| u <= 60.0 + 1e-9), "usage {usage:?}");
    }

    #[test]
    fn respects_hard_capacity() {
        // Two entities of 80 cannot share a 100-capacity bin.
        let mut p = Problem::new();
        build_bins(&mut p, 1, 2);
        let e0 = p.add_entity(
            Entity {
                load: cpu(80.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(80.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.9,
            weight: 1.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 1,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert_ne!(assignment[e0.0], assignment[e1.0]);
        assert_eq!(stats.final_violations, 0);
    }

    #[test]
    fn places_unplaced_entities() {
        let mut p = Problem::new();
        build_bins(&mut p, 1, 4);
        for _ in 0..10 {
            p.add_entity(
                Entity {
                    load: cpu(10.0),
                    group: None,
                },
                None,
            );
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        let solver = LocalSearch::new(SearchConfig {
            seed: 3,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert!(assignment.iter().all(Option::is_some));
        assert_eq!(stats.final_violations, 0);
    }

    #[test]
    fn honors_region_preference() {
        let mut p = Problem::new();
        build_bins(&mut p, 3, 4); // regions 0,1,2
        let mut prefs = Vec::new();
        let mut entities = Vec::new();
        for i in 0..12 {
            let e = p.add_entity(
                Entity {
                    load: cpu(5.0),
                    group: None,
                },
                Some(BinId(0)),
            );
            // All entities prefer region 2.
            prefs.push((e, 2u64, 10.0));
            entities.push(i);
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities: prefs,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 5,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert_eq!(stats.final_violations, 0, "every entity reaches region 2");
        for b in assignment.iter().flatten() {
            assert_eq!(p.bin(*b).location.region, RegionId(2));
        }
    }

    #[test]
    fn spreads_replica_groups_across_regions() {
        let mut p = Problem::new();
        build_bins(&mut p, 3, 2);
        let mut groups = Vec::new();
        for _ in 0..6 {
            let g = p.new_group();
            groups.push(g);
            // Both replicas start in region 0.
            p.add_entity(
                Entity {
                    load: cpu(5.0),
                    group: Some(g),
                },
                Some(BinId(0)),
            );
            p.add_entity(
                Entity {
                    load: cpu(5.0),
                    group: Some(g),
                },
                Some(BinId(1)),
            );
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: groups.clone(),
            weight: 5.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 11,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert_eq!(stats.final_violations, 0);
        // Each group's two replicas are in different regions.
        for gi in 0..6 {
            let b0 = assignment[gi * 2].unwrap();
            let b1 = assignment[gi * 2 + 1].unwrap();
            assert_ne!(p.bin(b0).location.region, p.bin(b1).location.region);
        }
    }

    #[test]
    fn move_budget_caps_work() {
        let mut p = Problem::new();
        build_bins(&mut p, 1, 8);
        for _ in 0..40 {
            p.add_entity(
                Entity {
                    load: cpu(10.0),
                    group: None,
                },
                Some(BinId(0)),
            );
        }
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 2,
            max_moves: 5,
            ..Default::default()
        });
        let (_, stats) = solver.solve(&p, &specs);
        assert!(stats.moves <= 5);
        assert!(stats.final_penalty < stats.initial_penalty);
    }

    #[test]
    fn baseline_config_disables_optimizations() {
        let cfg = SearchConfig::baseline(9);
        assert!(!cfg.use_optimizations);
        assert!(!cfg.use_batching);
    }

    #[test]
    fn baseline_still_solves_simple_problems() {
        let mut p = Problem::new();
        build_bins(&mut p, 1, 4);
        for _ in 0..20 {
            p.add_entity(
                Entity {
                    load: cpu(10.0),
                    group: None,
                },
                Some(BinId(0)),
            );
        }
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig::baseline(4));
        let (_, stats) = solver.solve(&p, &specs);
        assert_eq!(stats.final_violations, 0);
    }

    #[test]
    fn batching_processes_priorities_in_order() {
        // Priority 0: utilization cap; priority 1: affinity. Both must
        // end satisfied; batching must not undo earlier work.
        let mut p = Problem::new();
        build_bins(&mut p, 2, 3);
        let mut prefs = Vec::new();
        for _ in 0..12 {
            let e = p.add_entity(
                Entity {
                    load: cpu(10.0),
                    group: None,
                },
                Some(BinId(0)),
            );
            prefs.push((e, 1u64, 1.0));
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.9,
            weight: 10.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities: prefs,
            priority: 1,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 13,
            ..Default::default()
        });
        let (assignment, stats) = solver.solve(&p, &specs);
        assert_eq!(stats.final_violations, 0);
        // Region 1 has 3 bins x 100 capacity; 120 load fits under 90%.
        for b in assignment.iter().flatten() {
            assert_eq!(p.bin(*b).location.region, RegionId(1));
        }
    }

    #[test]
    fn timeline_is_recorded() {
        let mut p = Problem::new();
        build_bins(&mut p, 1, 8);
        for _ in 0..64 {
            p.add_entity(
                Entity {
                    load: cpu(5.0),
                    group: None,
                },
                Some(BinId(0)),
            );
        }
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.05,
            weight: 1.0,
            priority: 0,
        }));
        let solver = LocalSearch::new(SearchConfig {
            seed: 17,
            sample_every: 8,
            ..Default::default()
        });
        let (_, stats) = solver.solve(&p, &specs);
        assert!(!stats.timeline.is_empty());
        let (_, final_viol, final_pen) = *stats.timeline.last().unwrap();
        assert_eq!(final_viol, stats.final_violations);
        assert!((final_pen - stats.final_penalty).abs() < 1e-9);
    }

    /// Exhaustively finds the minimum-penalty assignment for a tiny problem.
    ///
    /// Returns `(assignment, penalty)`. The reference local search is
    /// compared against.
    ///
    /// # Panics
    ///
    /// Panics if `bins^entities` exceeds one million combinations.
    fn optimal_tiny(problem: &Problem, specs: &SpecSet) -> (Vec<Option<BinId>>, f64) {
        let n_e = problem.entity_count();
        let n_b = problem.bin_count();
        let combos = (n_b as f64).powi(n_e as i32);
        assert!(
            combos <= 1e6,
            "optimal_tiny is for tiny problems only ({combos} combos)"
        );
        let mut best_pen = f64::INFINITY;
        let mut best: Vec<Option<BinId>> = vec![None; n_e];
        let mut counter = vec![0usize; n_e];
        loop {
            let assignment: Vec<Option<BinId>> = counter.iter().map(|&b| Some(BinId(b))).collect();
            let eval = Evaluator::with_assignment(problem, specs, u8::MAX, &assignment);
            // Hard constraints: skip infeasible assignments.
            if eval.violations().capacity == 0 {
                let pen = eval.total_penalty();
                if pen < best_pen {
                    best_pen = pen;
                    best = assignment;
                }
            }
            // Increment the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == n_e {
                    return (best, best_pen);
                }
                counter[i] += 1;
                if counter[i] < n_b {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn local_search_matches_brute_force_optimum() {
        // Three bins over two regions; a replica pair to keep apart and
        // two singles.
        let mut p = Problem::new();
        for m in 0..3 {
            p.add_bin(Bin {
                capacity: cpu(10.0),
                location: Location {
                    region: RegionId(m as u16 % 2),
                    datacenter: m % 2,
                    rack: m,
                    machine: MachineId(m),
                },
                draining: false,
            });
        }
        let g = p.new_group();
        for (load, group) in [(6.0, Some(g)), (6.0, Some(g)), (3.0, None), (3.0, None)] {
            p.add_entity(
                Entity {
                    load: cpu(load),
                    group,
                },
                None,
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
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: vec![g],
            weight: 3.0,
            priority: 0,
        }));
        let (_, best_pen) = optimal_tiny(&p, &specs);
        let solver = LocalSearch::new(SearchConfig {
            seed: 23,
            ..Default::default()
        });
        let (_, stats) = solver.solve(&p, &specs);
        assert!(
            stats.final_penalty <= best_pen + 1e-9,
            "local search {} vs optimum {best_pen}",
            stats.final_penalty
        );
    }
}
