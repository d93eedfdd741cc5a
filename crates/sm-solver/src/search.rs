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

use crate::eval::{Columns, Evaluator, ViolationStats};
use crate::problem::{BinId, EntityId, Problem};
use crate::specs::SpecSet;
use sm_types::LoadVector;

use sm_sim::SimRng;

/// Tuning knobs and ablation switches for [`LocalSearch`].
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// RNG seed.
    pub seed: u64,
    /// Worker count for [`crate::ParallelSearch`]; `0` or `1` means
    /// the plain single-threaded [`LocalSearch`] path. The allocator
    /// applies it to periodic solves: its emergency runs are
    /// single-threaded.
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
    /// The violations after the run by category, counted on the
    /// solve's evaluator after its last batch (every goal the run
    /// activated).
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
    /// The round's hot bins.
    hot: Vec<usize>,
    on_bin: Vec<EntityId>,
    /// `(misplacement, load, index into on_bin)` ranking keys, computed
    /// once per entity per round instead of once per comparison.
    ranked: Vec<(u64, u64, u32)>,
    /// Load keys of candidates kept so far (equivalence dedup).
    seen_keys: Vec<LoadVector>,
    /// Snapshots of the entity lists a swap reads, which its speculative
    /// `apply_move` reorders.
    swap_hot: Vec<EntityId>,
    swap_other: Vec<EntityId>,
    /// The identity `0..len` between draws: what `sample_into` shuffles.
    pool: Vec<usize>,
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
        self.solve_from(problem, specs, problem.initial_assignment(), &mut rng)
    }

    /// Like [`Self::solve`] but starting from an explicit assignment
    /// and an externally seeded RNG — the building block
    /// [`crate::ParallelSearch`] uses for per-worker solves and for the
    /// sequential cross-partition polish pass.
    pub(crate) fn solve_from(
        &self,
        problem: &Problem,
        specs: &SpecSet,
        initial: &[Option<BinId>],
        rng: &mut SimRng,
    ) -> (Vec<Option<BinId>>, SearchStats) {
        let columns = Columns::new(problem, initial);
        let (eval, stats) = self.search(problem, specs, columns, rng, false);
        (eval.assignment(), stats)
    }

    /// [`Self::solve`] for a caller that keeps `problem` and patches it
    /// between solves: the evaluator starts from the columns the last
    /// solve left with the problem, if it was under the same `specs`,
    /// and its moves are undone after the search so the columns go back
    /// to the initial assignment. Returns the entities whose bin
    /// changed, ascending, with the bin each ends on.
    pub(crate) fn solve_moves(
        &self,
        problem: &mut Problem,
        specs: &SpecSet,
    ) -> (Vec<(EntityId, Option<BinId>)>, SearchStats) {
        // Columns kept under other specs hold other goals' tables.
        let kept = problem.derived.columns.take();
        let kept = kept.filter(|(kept, _)| kept == specs);
        let at = problem.initial_assignment();
        let (kept, columns) = kept.unwrap_or_else(|| (specs.clone(), Columns::new(problem, at)));
        let mut rng = SimRng::seeded(self.config.seed);
        let (eval, stats) = self.search(problem, specs, columns, &mut rng, true);
        let (columns, moved) = eval.undo(at);
        problem.derived.columns = Some((kept, columns));
        (moved, stats)
    }

    /// The search over `columns`, through the priority batches: one of
    /// every goal without batching. One evaluator for the whole solve:
    /// each batch after the first adds its goals to it (`enter_batch`).
    /// A `kept` solve's moves are undone after it, so it saves the lists
    /// they edit; so does one with a later batch, whose entry reads them.
    fn search<'p>(
        &self,
        problem: &'p Problem,
        specs: &SpecSet,
        columns: Columns,
        rng: &mut SimRng,
        kept: bool,
    ) -> (Evaluator<'p>, SearchStats) {
        let mut batches = specs.priorities();
        if !self.config.use_batching || batches.is_empty() {
            batches = vec![u8::MAX];
        }
        let mut eval = Evaluator::with_columns(problem, specs, batches[0], columns);
        eval.save_lists(kept || batches.len() > 1);
        let mut stats = SearchStats::default();
        let mut scratch = Scratch::default();
        let n_batches = batches.len() as u32;
        stats.initial_penalty = eval.total_penalty();
        self.place_unplaced(problem, &mut eval, rng, &mut stats, &mut scratch);
        for (bi, &prio) in batches.iter().enumerate() {
            if bi > 0 {
                eval.enter_batch(specs, prio);
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
        }
        stats.final_penalty = eval.total_penalty();
        stats.violations = eval.violations();
        stats.final_violations = stats.violations.total();
        stats
            .timeline
            .push((stats.evaluated, stats.final_violations, stats.final_penalty));
        (eval, stats)
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
        if n_bins == 0 || eval.unplaced() == 0 {
            return;
        }
        for i in 0..problem.entity_count() {
            let e = EntityId(i);
            if eval.bin_of(e).is_some() {
                continue;
            }
            self.sample_targets(eval, rng, n_bins, scratch);
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
        self.sample_targets(eval, rng, n_bins, scratch);
        let mut best: Option<(f64, EntityId, BinId)> = None;
        for &e in &scratch.candidates {
            let source = eval.source(e);
            for &t in &scratch.targets {
                stats.evaluated += 1;
                if let Some(delta) = eval.eval_from(&source, t) {
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
        let quota = self.config.entities_per_bin;
        eval.hot_bins(self.config.hot_bins_per_round, &mut scratch.hot);
        for &bin in &scratch.hot {
            scratch.on_bin.clear();
            scratch
                .on_bin
                .extend_from_slice(eval.entities_on(BinId(bin)));
            // Shuffle first so ties in the ranking rotate across rounds
            // — otherwise unfixable candidates can starve fixable ones.
            rng.shuffle(&mut scratch.on_bin);
            if !self.config.use_optimizations {
                scratch.candidates.extend(scratch.on_bin.iter().take(quota));
                continue;
            }
            // Rank by how much the entity's own violations hurt the
            // objective (affinity/drain misplacement), then by load
            // (§5.3: evaluate large shards earlier), then by shuffled
            // position: the order a stable sort of the shuffle gives, in
            // integer keys.
            let ranked = &mut scratch.ranked;
            ranked.clear();
            let keys = scratch.on_bin.iter().map(|&e| eval.rank_of(e));
            ranked.extend((0..).zip(keys).map(|(pos, (mis, load))| (mis, load, pos)));
            // Keep the first entity of each distinct load vector,
            // stopping as soon as the per-bin quota is filled.
            let (seen, candidates) = (&mut scratch.seen_keys, &mut scratch.candidates);
            seen.clear();
            take_ranked(ranked, quota, |pos| {
                let e = scratch.on_bin[pos];
                let fresh = !seen.contains(eval.load_of(e));
                if fresh {
                    seen.push(*eval.load_of(e));
                    candidates.push(e);
                }
                fresh
            });
        }
        // Replica groups violating a spread goal contribute their
        // members directly — their bins may not be hot.
        for members in eval.violated_groups().take(self.config.hot_bins_per_round) {
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
        scratch: &mut Scratch,
    ) {
        let (out, pool) = (&mut scratch.targets, &mut scratch.pool);
        out.clear();
        let k = self.config.targets_per_entity.min(n_bins);
        if !self.config.use_optimizations {
            sample_into(rng, n_bins, k, pool, |idx| out.push(BinId(idx)));
            return;
        }
        let groups = eval.target_groups();
        let per_group = (k / groups.len().max(1)).max(1);
        for bins in groups.values() {
            let mut take = |idx| out.extend(bins.get(idx).map(|&bin| BinId(bin)));
            sample_into(rng, bins.len(), per_group, pool, &mut take);
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
        eval.hot_bins(4, &mut scratch.hot);
        self.sample_targets(eval, rng, n_bins, scratch);
        for &hot_bin in &scratch.hot {
            let hot_bin = BinId(hot_bin);
            scratch.swap_hot.clear();
            scratch
                .swap_hot
                .extend(eval.entities_on(hot_bin).iter().take(4));
            for &e1 in &scratch.swap_hot {
                for &other_bin in scratch.targets.iter().take(8) {
                    if other_bin == hot_bin {
                        continue;
                    }
                    scratch.swap_other.clear();
                    scratch
                        .swap_other
                        .extend(eval.entities_on(other_bin).iter().take(2));
                    for &e2 in &scratch.swap_other {
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

/// Hands `take` the positions in `ranked`, a hot bin's `(misplacement,
/// load, shuffled position)` keys, in ascending order — misplacement,
/// then load, descending, then position — until it has taken `quota` of
/// them. Only the head the quota can reach is ordered; the tail is
/// sorted only if `take` passes over some of the head.
fn take_ranked(ranked: &mut [(u64, u64, u32)], quota: usize, mut take: impl FnMut(usize) -> bool) {
    let mut sorted = quota.min(ranked.len());
    if (1..ranked.len()).contains(&sorted) {
        ranked.select_nth_unstable(sorted - 1);
    }
    ranked[..sorted].sort_unstable();
    let mut taken = 0;
    for idx in 0..ranked.len() {
        if taken == quota {
            return;
        }
        if idx == sorted {
            ranked[sorted..].sort_unstable();
            sorted = ranked.len();
        }
        taken += usize::from(take(ranked[idx].2 as usize));
    }
}

/// `SimRng::sample_indices(n, k)` handed to `take` index by index: the
/// same draws and the same indices in the same order, drawn by a partial
/// Fisher–Yates on `pool`, the identity `0..len` (grown to `n` here),
/// whose swaps are undone after: O(k), and nothing is allocated once the
/// pool is as large as the largest `n`.
fn sample_into(
    rng: &mut SimRng,
    n: usize,
    k: usize,
    pool: &mut Vec<usize>,
    mut take: impl FnMut(usize),
) {
    if k >= n {
        return (0..n).for_each(take);
    }
    pool.extend(pool.len()..n);
    for i in 0..k {
        pool.swap(i, i + rng.index(n - i));
    }
    pool.iter().take(k).for_each(|&idx| take(idx));
    // Every swap is with a place at `i` or past it, so a value that left
    // a place past `k` sits in the first `k` now: putting those places
    // and the first `k` back undoes every swap.
    for i in 0..k {
        let idx = pool.get_mut(i).map_or(i, |at| std::mem::replace(at, i));
        if let Some(at) = pool.get_mut(idx).filter(|_| idx >= k) {
            *at = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::METRIC_COUNT;
    use std::cmp::Ordering;

    /// The rank order the integer keys replace, the model for them:
    /// misplacement, then load, descending; ties by shuffled position.
    fn rank_order(a: &(f64, f64, usize), b: &(f64, f64, usize)) -> Ordering {
        let by_keys = (b.0, b.1).partial_cmp(&(a.0, a.1));
        by_keys.expect("loads are finite").then(a.2.cmp(&b.2))
    }

    fn sum_load(eval: &Evaluator, e: EntityId) -> f64 {
        let load = eval.load_of(e);
        (0..METRIC_COUNT)
            .map(|m| load.get(sm_types::MetricId(m)))
            .sum()
    }

    /// The key the model dedups candidates by: a load vector's bits.
    fn load_key(eval: &Evaluator, e: EntityId) -> [u64; METRIC_COUNT] {
        let load = eval.load_of(e);
        let mut key = [0u64; METRIC_COUNT];
        for (m, slot) in key.iter_mut().enumerate() {
            *slot = load.get(sm_types::MetricId(m)).to_bits();
        }
        key
    }
    use crate::problem::{Bin, Entity};
    use crate::specs::{
        AffinitySpec, BalanceSpec, CapacitySpec, ExclusionSpec, Scope, Spec, UtilizationCapSpec,
    };
    use sm_types::{Location, MachineId, Metric, RegionId};

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

    /// The search as it was with an evaluator built afresh for every
    /// priority batch and every hot bin ranked by a full stable sort:
    /// the reference `solve_from` must equal. Target sampling, swaps and
    /// unplaced placement are shared, unchanged, with the solver.
    struct Model<'a>(&'a LocalSearch);

    impl Model<'_> {
        fn solve_from(
            &self,
            problem: &Problem,
            specs: &SpecSet,
            initial: Vec<Option<BinId>>,
            rng: &mut SimRng,
        ) -> (Vec<Option<BinId>>, SearchStats) {
            let search = self.0;
            let mut stats = SearchStats::default();
            let mut assignment = initial;
            let mut scratch = Scratch::default();
            let mut batches = vec![u8::MAX];
            if search.config.use_batching && !specs.priorities().is_empty() {
                batches = specs.priorities();
            }
            let n_batches = batches.len() as u32;
            for (bi, &prio) in batches.iter().enumerate() {
                let mut eval = Evaluator::with_assignment(problem, specs, prio, &assignment);
                if bi == 0 {
                    stats.initial_penalty = eval.total_penalty();
                    search.place_unplaced(problem, &mut eval, rng, &mut stats, &mut scratch);
                }
                let deadline = search.config.eval_budget.map(|budget| {
                    let remaining = budget.saturating_sub(stats.evaluated);
                    stats.evaluated + remaining / u64::from(n_batches - bi as u32)
                });
                self.run_batch(problem, &mut eval, rng, &mut stats, deadline, &mut scratch);
                assignment = eval.assignment();
                stats.final_penalty = eval.total_penalty();
                stats.violations = eval.violations();
                stats.final_violations = stats.violations.total();
            }
            let last = (stats.evaluated, stats.final_violations, stats.final_penalty);
            stats.timeline.push(last);
            (assignment, stats)
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
            let (config, n_bins) = (&self.0.config, problem.bin_count());
            if n_bins < 2 {
                return;
            }
            let (mut moves_since_sample, mut dry_rounds) = (0, 0);
            while stats.moves < config.max_moves
                && deadline.is_none_or(|d| stats.evaluated < d)
                && eval.total_penalty() > 1e-9
            {
                let improved = self.one_round(eval, rng, stats, n_bins, scratch);
                let every = config.sample_every.max(1);
                if stats.moves / every != moves_since_sample / every {
                    moves_since_sample = stats.moves;
                    let violations = eval.violations().total();
                    let sample = (stats.evaluated, violations, eval.total_penalty());
                    stats.timeline.push(sample);
                }
                if improved {
                    dry_rounds = 0;
                } else {
                    dry_rounds += 1;
                    if config.use_optimizations
                        && self.0.try_swaps(eval, rng, stats, n_bins, scratch)
                    {
                        dry_rounds = 0;
                    } else if dry_rounds >= config.patience.max(1) {
                        return;
                    }
                }
            }
        }

        fn one_round(
            &self,
            eval: &mut Evaluator,
            rng: &mut SimRng,
            stats: &mut SearchStats,
            n_bins: usize,
            scratch: &mut Scratch,
        ) -> bool {
            let candidates = self.candidate_entities(eval, rng);
            if candidates.is_empty() {
                return false;
            }
            self.0.sample_targets(eval, rng, n_bins, scratch);
            let mut best: Option<(f64, EntityId, BinId)> = None;
            for &e in &candidates {
                for &t in &scratch.targets {
                    stats.evaluated += 1;
                    if let Some(delta) = eval.eval_move(e, t) {
                        if delta < -1e-9 && best.is_none_or(|(d, _, _)| delta < d) {
                            best = Some((delta, e, t));
                        }
                    }
                }
            }
            let Some((_, e, t)) = best else {
                return false;
            };
            eval.apply_move(e, t);
            stats.moves += 1;
            true
        }

        fn candidate_entities(&self, eval: &Evaluator, rng: &mut SimRng) -> Vec<EntityId> {
            let config = &self.0.config;
            let mut candidates = Vec::new();
            let mut hot = Vec::new();
            eval.hot_bins(config.hot_bins_per_round, &mut hot);
            for bin in hot {
                let mut on_bin = eval.entities_on(BinId(bin)).to_vec();
                rng.shuffle(&mut on_bin);
                if config.use_optimizations {
                    let key = |e: &EntityId| (eval.entity_misplacement(*e), sum_load(eval, *e));
                    on_bin.sort_by(|a, b| key(b).partial_cmp(&key(a)).unwrap());
                    let mut seen = Vec::new();
                    on_bin.retain(|&e| {
                        let fresh = !seen.contains(&load_key(eval, e));
                        if fresh {
                            seen.push(load_key(eval, e));
                        }
                        fresh
                    });
                }
                on_bin.truncate(config.entities_per_bin);
                candidates.extend(on_bin);
            }
            for members in eval.violated_groups().take(config.hot_bins_per_round) {
                candidates.extend_from_slice(members);
            }
            candidates.truncate(config.hot_bins_per_round * config.entities_per_bin * 2);
            candidates
        }
    }

    /// A seeded problem small enough to solve a few hundred times: one
    /// to three regions, a draining bin now and then, replica groups
    /// with unplaced members, loads from a short list so equal loads
    /// meet on a hot bin, and every goal kind at a priority from 0 to 3
    /// in shuffled spec order.
    fn seeded_problem(rng: &mut SimRng) -> (Problem, SpecSet) {
        let mut p = Problem::new();
        let (regions, per_region) = (1 + rng.index(3) as u16, 2 + rng.index(5) as u32);
        let mut machine = 0;
        for r in 0..regions {
            for _ in 0..per_region {
                p.add_bin(Bin {
                    capacity: cpu(100.0),
                    location: loc(r, machine),
                    draining: rng.chance(0.1),
                });
                machine += 1;
            }
        }
        let n_bins = p.bin_count();
        let loads = [1.0, 2.0, 2.0, 5.0, 0.1 + rng.f64() * 9.9];
        let hot_bin = BinId(rng.index(n_bins));
        let (mut groups, mut prefs) = (Vec::new(), Vec::new());
        for _ in 0..10 + rng.index(50) {
            let group = rng.chance(0.5).then(|| {
                if groups.is_empty() || rng.chance(0.4) {
                    groups.push(p.new_group());
                }
                groups[groups.len() - 1]
            });
            let at = match rng.index(10) {
                0 => None,
                1..=5 => Some(hot_bin),
                _ => Some(BinId(rng.index(n_bins))),
            };
            let load = cpu(loads[rng.index(loads.len())]);
            let e = p.add_entity(Entity { load, group }, at);
            if rng.chance(0.3) {
                prefs.push((e, rng.index(usize::from(regions)) as u64, 1.0 + rng.f64()));
            }
        }
        let mut goals = vec![
            Spec::Balance(BalanceSpec {
                metric: Metric::Cpu.id(),
                tolerance: 0.05 + rng.f64() * 0.2,
                weight: 1.0,
                priority: 0,
            }),
            Spec::UtilizationCap(UtilizationCapSpec {
                metric: Metric::Cpu.id(),
                threshold: 0.3 + rng.f64() * 0.6,
                weight: 2.0,
                priority: 0,
            }),
            Spec::Drain(crate::specs::DrainSpec {
                weight: 3.0,
                priority: 0,
            }),
            Spec::Affinity(AffinitySpec {
                scope: Scope::Region,
                affinities: prefs,
                priority: 0,
            }),
            Spec::Exclusion(ExclusionSpec {
                scope: Scope::Rack,
                groups: groups.clone(),
                weight: 1.0,
                priority: 0,
            }),
            Spec::Exclusion(ExclusionSpec {
                scope: Scope::Region,
                groups,
                weight: 4.0,
                priority: 0,
            }),
        ];
        rng.shuffle(&mut goals);
        let mut specs = SpecSet::new();
        specs.forbid_group_colocation = rng.chance(0.5);
        if rng.chance(0.7) {
            specs.add_constraint(CapacitySpec {
                metric: Metric::Cpu.id(),
            });
        }
        for mut goal in goals {
            if rng.chance(0.2) {
                continue;
            }
            let priority = rng.index(4) as u8;
            match &mut goal {
                Spec::Balance(s) => s.priority = priority,
                Spec::UtilizationCap(s) => s.priority = priority,
                Spec::Affinity(s) => s.priority = priority,
                Spec::Exclusion(s) => s.priority = priority,
                Spec::Drain(s) => s.priority = priority,
            }
            specs.add_goal(goal);
        }
        (p, specs)
    }

    /// The integer keys pick what `rank_order` picks: on bins of up to 40
    /// entities whose misplacements and loads come from a short list, so
    /// most tie and the shuffled position decides (unit loads among them),
    /// with -0.0 beside +0.0 and negative sums; each entity of one of four
    /// load classes, the first of each class taken, up to the quota.
    #[test]
    fn the_integer_keys_pick_what_rank_order_picks() {
        let values = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0, 1.0, 2.0, 1e300];
        let mut rng = SimRng::seeded(43);
        let (mut ties, mut signed_zeros) = (0, 0);
        for case in 0..4_000 {
            let n = 1 + rng.index(40);
            let unit = rng.chance(0.25);
            let value = |rng: &mut SimRng| values[rng.index(values.len())];
            let bin: Vec<(f64, f64, usize)> = (0..n)
                .map(|pos| {
                    let misplacement = if rng.chance(0.5) {
                        0.0
                    } else {
                        value(&mut rng)
                    };
                    let load = if unit { 1.0 } else { value(&mut rng) };
                    (misplacement, load, pos)
                })
                .collect();
            let class: Vec<usize> = (0..n).map(|_| rng.index(4)).collect();
            let quota = rng.index(9);
            let first_of_each = |order: &mut dyn Iterator<Item = usize>| {
                let mut seen = Vec::new();
                let mut picked = Vec::new();
                for pos in order {
                    if picked.len() == quota {
                        break;
                    }
                    if !seen.contains(&class[pos]) {
                        seen.push(class[pos]);
                        picked.push(pos);
                    }
                }
                picked
            };
            let mut model = bin.clone();
            model.sort_by(rank_order);
            let want = first_of_each(&mut model.iter().map(|&(_, _, pos)| pos));
            let key = |x: f64| !crate::penalty_tree::rank_key(x);
            let mut ranked: Vec<_> = (bin.iter())
                .map(|&(mis, load, pos)| (key(mis), key(load), pos as u32))
                .collect();
            let (mut seen, mut got) = (Vec::new(), Vec::new());
            take_ranked(&mut ranked, quota, |pos| {
                let fresh = !seen.contains(&class[pos]);
                if fresh {
                    seen.push(class[pos]);
                    got.push(pos);
                }
                fresh
            });
            assert_eq!(got, want, "case {case}: {bin:?}, classes {class:?}");
            let same = |(a, b): (&(f64, f64, usize), &(f64, f64, usize))| (a.0, a.1) == (b.0, b.1);
            ties += model
                .iter()
                .zip(&model[1..])
                .filter(|&pair| same(pair))
                .count();
            let zeros = |x: f64| x == 0.0;
            signed_zeros += usize::from(
                bin.iter().any(|m| zeros(m.1) && m.1.is_sign_negative())
                    && bin.iter().any(|m| zeros(m.1) && m.1.is_sign_positive()),
            );
        }
        assert!(
            ties > 10_000 && signed_zeros > 300,
            "{ties} ties, {signed_zeros} signed zeros"
        );
    }

    #[test]
    fn the_kept_pool_draws_what_sample_indices_draws() {
        let mut pool = Vec::new();
        let mut cases = 0;
        for n in 0..40usize {
            for k in [0, 1, 2, 3, n / 2, n.saturating_sub(1), n, n + 1, n + 5] {
                for seed in 0..8 {
                    let seed = (n * 1_000 + k) as u64 * 16 + seed;
                    let (mut kept, mut fresh) = (SimRng::seeded(seed), SimRng::seeded(seed));
                    let mut drawn = Vec::new();
                    sample_into(&mut kept, n, k, &mut pool, |idx| drawn.push(idx));
                    assert_eq!(drawn, fresh.sample_indices(n, k), "n {n} k {k}");
                    assert_eq!(kept.next_u64(), fresh.next_u64(), "n {n} k {k}");
                    assert!(pool.iter().enumerate().all(|(i, &v)| i == v), "n {n} k {k}");
                    cases += 1;
                }
            }
        }
        // The pool only grew: a draw from a smaller `n` left it whole.
        assert_eq!((pool.len(), cases), (39, 40 * 9 * 8));
    }

    #[test]
    fn solve_from_equals_the_rebuilding_full_sort_model() {
        let mut rng = SimRng::seeded(34);
        let mut batched = 0;
        for case in 0..240u64 {
            let (p, specs) = seeded_problem(&mut rng);
            let mut config = SearchConfig {
                seed: case,
                max_moves: [usize::MAX, 3, 40][rng.index(3)],
                eval_budget: rng.chance(0.5).then(|| 200 + rng.index(5_000) as u64),
                hot_bins_per_round: [1, 2, 8][rng.index(3)],
                entities_per_bin: [1, 2, 3, 8][rng.index(4)],
                targets_per_entity: [2, 8, 24][rng.index(3)],
                use_optimizations: rng.chance(0.8),
                use_batching: rng.chance(0.8),
                sample_every: 1 + rng.index(8),
                patience: 1 + rng.index(6),
                ..SearchConfig::default()
            };
            let mut initial = p.initial_assignment().to_vec();
            // One case in four is a polish pass: `ParallelSearch`'s
            // call with `threads: 2`, on a merged assignment, one batch,
            // and a stream seeded after its workers'.
            let mut stream = SimRng::seeded(case);
            if case % 4 == 3 {
                config.threads = 2;
                config.use_batching = false;
                for slot in &mut initial {
                    if rng.chance(0.5) {
                        *slot = Some(BinId(rng.index(p.bin_count())));
                    }
                }
                stream = SimRng::seed_from(case, 2);
            }
            batched += usize::from(config.use_batching && specs.priorities().len() > 1);
            let search = LocalSearch::new(config);
            let mut model_stream = stream.clone();
            let (got, stats) = search.solve_from(&p, &specs, &initial, &mut stream);
            let (want, model) = Model(&search).solve_from(&p, &specs, initial, &mut model_stream);
            let timeline = |s: &SearchStats| -> Vec<(u64, usize, u64)> {
                let samples = s.timeline.iter();
                samples.map(|&(e, v, pen)| (e, v, pen.to_bits())).collect()
            };
            assert_eq!(got, want, "case {case}: assignment");
            assert_eq!(
                (stats.evaluated, stats.moves, stats.violations),
                (model.evaluated, model.moves, model.violations),
                "case {case}: evaluations, moves, violations"
            );
            assert_eq!(
                (
                    stats.initial_penalty.to_bits(),
                    stats.final_penalty.to_bits()
                ),
                (
                    model.initial_penalty.to_bits(),
                    model.final_penalty.to_bits()
                ),
                "case {case}: penalties"
            );
            assert_eq!(timeline(&stats), timeline(&model), "case {case}: timeline");
            assert_eq!(
                stream.next_u64(),
                model_stream.next_u64(),
                "case {case}: rng"
            );
        }
        assert!(batched > 100, "{batched} cases ran more than one batch");
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
