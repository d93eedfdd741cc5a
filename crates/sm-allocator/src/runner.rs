//! Problem construction and the two allocation modes.

use crate::input::{PlacementSource, ServerInfo};
use crate::plan::{AllocationPlan, ReplicaMove, Rows, Target};
use sm_solver::{
    AffinitySpec, Bin, BinId, CapacitySpec, DrainSpec, Entity, EntityId, ExclusionSpec,
    ParallelSearch, Problem, Scope, SearchConfig, SearchStats, Spec, SpecSet, UtilizationCapSpec,
};
use sm_types::{FaultDomain, Fixed, LoadVector, ServerId, ShardId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Goal priorities, matching the §5.1 ordering.
const PRIO_PLACEMENT: u8 = 0; // region preference + spread of replicas
const PRIO_DRAIN: u8 = 1; // planned maintenance
const PRIO_UTIL: u8 = 2; // utilization threshold
const PRIO_BALANCE: u8 = 3; // global/regional load balancing

/// Default goal weights. Spread outweighs region preference so that a
/// shard preferring region R lands *one* replica in R while its
/// siblings spread elsewhere — the steady state of the §8.3 experiment.
const WEIGHT_SPREAD_REGION: f64 = 4.0;
const WEIGHT_SPREAD_DC: f64 = 2.0;
const WEIGHT_SPREAD_RACK: f64 = 1.0;
const WEIGHT_DRAIN: f64 = 8.0;
const WEIGHT_UTIL: f64 = 2.0;
const WEIGHT_BALANCE: f64 = 1.0;

/// Preferred per-server utilization ceiling (soft goal 4).
const UTILIZATION_THRESHOLD: f64 = 0.9;
/// Allowed deviation above mean utilization (soft goals 5/6).
const BALANCE_TOLERANCE: f64 = 0.1;

/// The spread scopes, widest first, with their fault domain and weight.
const SPREAD: [(Scope, FaultDomain, f64); 3] = [
    (Scope::Region, FaultDomain::Region, WEIGHT_SPREAD_REGION),
    (Scope::DataCenter, FaultDomain::DataCenter, WEIGHT_SPREAD_DC),
    (Scope::Rack, FaultDomain::Rack, WEIGHT_SPREAD_RACK),
];

/// The SM allocator over one application partition.
pub struct Allocator;

impl Allocator {
    /// Periodic mode (§5.1): optimize the placement of all shards under
    /// the full goal list.
    pub fn plan_periodic<S: PlacementSource>(source: &S) -> AllocationPlan {
        PeriodicProblem::from(source).plan()
    }

    /// Emergency mode (§5.1): place unassigned replicas as quickly as
    /// possible while satisfying hard constraints; soft goals beyond
    /// placement-critical ones (preference/spread) are not optimized.
    ///
    /// Nothing placed can move in this mode, so the problem holds only
    /// the shards that lack a replica — every slot of each, so a spread
    /// group is whole — over bins that start from the usage of the
    /// shards left out ([`PlacementSource::cut`]). The run is
    /// single-threaded, and its plan's target and violations cover the
    /// shards it rebuilt. Where its greedy placement leaves a slot
    /// empty, it is run again over every shard, whose search may then
    /// move placed replicas to make room; that plan is the whole
    /// problem's.
    pub fn plan_emergency<S: PlacementSource>(source: &S) -> AllocationPlan {
        let mut search = source.config().search.clone();
        search.threads = 1;
        let plan = solve_placement(build_problem(source, true), &search);
        if plan.violations.unplaced == 0 {
            return plan;
        }
        solve_placement(build_problem(source, false), &search)
    }
}

/// The periodic problem of a source, kept between runs: built once,
/// then patched by its keeper through [`Self::set_shard`] wherever a
/// shard's load or placement changes. Anything else it is made of — the
/// offered servers, the shards and their order, their slot counts, the
/// configuration — it cannot be patched for; its keeper builds it again
/// when one changes. While it is kept in step, [`Self::plan`] is the plan
/// [`Allocator::plan_periodic`] makes of the source. Its solver keeps
/// the evaluator with the problem between plans, patched with it, so a
/// plan after a few patches costs its search.
#[derive(Debug)]
pub struct PeriodicProblem {
    built: Built,
    search: SearchConfig,
    /// Row indices in ascending shard order; empty when the rows are.
    by_id: Vec<usize>,
}

impl<S: PlacementSource> From<&S> for PeriodicProblem {
    fn from(source: &S) -> Self {
        let built = build_problem(source, false);
        let shards = &built.rows.shards;
        let mut by_id = Vec::new();
        if !shards.is_sorted() {
            by_id.extend(0..shards.len());
            by_id.sort_by_key(|&row| shards.get(row));
        }
        Self {
            built,
            search: source.config().search.clone(),
            by_id,
        }
    }
}

impl PeriodicProblem {
    /// Rewrites `shard`'s row as the source now visits it: `load` on each
    /// replica, and where each of the `slots` given is placed (`None`
    /// needs placement), from the row's first slot on; a slot not given
    /// stays where it is. Returns the row's slots as it now holds them;
    /// a shard the problem does not hold is ignored, and `None`.
    pub fn set_shard(
        &mut self,
        shard: ShardId,
        load: LoadVector,
        slots: impl IntoIterator<Item = Option<ServerId>>,
    ) -> Option<&[Option<ServerId>]> {
        let Built {
            problem,
            server_index,
            rows,
            slots: kept,
            ..
        } = &mut self.built;
        // Shards registered as 0, 1, 2, ... sit at their own index.
        let own = usize::try_from(shard.raw()).ok();
        let row = if own.is_some_and(|row| rows.shards.get(row) == Some(&shard)) {
            own
        } else if self.by_id.is_empty() {
            rows.shards.binary_search(&shard).ok()
        } else {
            let at = self
                .by_id
                .binary_search_by(|&row| rows.shards.get(row).cmp(&Some(&shard)));
            at.ok().and_then(|at| self.by_id.get(at).copied())
        };
        let span = row.map(|row| rows.span(row))?;
        let kept = kept.get_mut(span.clone()).unwrap_or_default();
        let mut slots = slots.into_iter();
        for (e, kept) in span.map(EntityId).zip(kept.iter_mut()) {
            let bin = match slots.next() {
                Some(slot) => {
                    *kept = slot;
                    slot.and_then(|s| server_index.get(s))
                }
                // The slot's bin as the problem holds it.
                None => problem.initial_assignment().get(e.0).copied().flatten(),
            };
            problem.set_entity(e, load, bin);
        }
        Some(kept)
    }

    /// The plan of a periodic run over the source the problem is kept
    /// in step with.
    pub fn plan(&mut self) -> AllocationPlan {
        let (moved, search) = self.solve();
        plan_of(&self.built, &moved, search)
    }

    /// The moves of [`Self::plan`], diffed from the entities that moved
    /// alone: no target over every slot is built.
    pub fn moves(&mut self) -> Vec<ReplicaMove> {
        let (moved, _) = self.solve();
        moves_of(&self.built, &moved)
    }

    /// The kept problem solved: the entities whose bin changes, with the
    /// bin each ends on.
    fn solve(&mut self) -> (Vec<(EntityId, Option<BinId>)>, SearchStats) {
        let Built { problem, specs, .. } = &mut self.built;
        ParallelSearch::new(self.search.clone()).solve_moves(problem, specs)
    }

    /// The solver's problem, with what its plans keep.
    pub fn problem(&self) -> &Problem {
        &self.built.problem
    }
}

/// Solves what [`build_problem`] made under the placement goals alone.
/// The move budget covers exactly the unplaced replicas, so the run
/// cannot drift into load-balancing work.
fn solve_placement(mut built: Built, search: &SearchConfig) -> AllocationPlan {
    // Dropped, not just left out of the batches, so batching doesn't
    // schedule them at all.
    built.specs.goals.retain(|g| g.priority() == PRIO_PLACEMENT);
    let unplaced = built.slots.iter().filter(|slot| slot.is_none()).count();
    let search = SearchConfig {
        max_moves: unplaced,
        ..search.clone()
    };
    // Nothing keeps this problem, so the solve moves nothing back: the
    // entities that moved are read off the assignment it ends on.
    let (problem, specs) = (&built.problem, &built.specs);
    let (assignment, search) = ParallelSearch::new(search).solve(problem, specs);
    let changed = assignment.into_iter().zip(problem.initial_assignment());
    let moved = changed.enumerate().filter(|(_, (to, from))| to != *from);
    let moved: Vec<_> = moved.map(|(e, (to, _))| (EntityId(e), to)).collect();
    plan_of(&built, &moved, search)
}

/// The plan of a solve of what [`build_problem`] made, in which the
/// entities in `moved` end on the bins given: its moves, and its target
/// over every slot.
fn plan_of(
    built: &Built,
    moved: &[(EntityId, Option<BinId>)],
    search: SearchStats,
) -> AllocationPlan {
    let server_of = |bin: Option<BinId>| bin.and_then(|b| built.server_ids.get(b.0).copied());
    let initial = built.problem.initial_assignment().iter();
    let mut slots: Vec<Option<ServerId>> = initial.map(|&bin| server_of(bin)).collect();
    for &(e, to) in moved {
        if let Some(slot) = slots.get_mut(e.0) {
            *slot = server_of(to);
        }
    }
    AllocationPlan {
        moves: moves_of(built, moved),
        target: Target {
            rows: built.rows.clone(),
            slots,
        },
        // Counted by the solve's last evaluator, which had every goal
        // the problem's specs hold active.
        violations: search.violations,
        search,
    }
}

/// The moves of the entities in `moved`, each ending on the bin given,
/// fresh placements first.
fn moves_of(built: &Built, moved: &[(EntityId, Option<BinId>)]) -> Vec<ReplicaMove> {
    let Built {
        problem,
        server_ids,
        rows,
        ..
    } = built;
    // Entities were minted shard by shard, slot by slot, so entity `e`
    // is slot `e` of the target, in the row whose span holds it. A slot
    // on a server that is no longer offered (failed) was resolved to no
    // bin in the initial assignment, so its move is a fresh placement,
    // not a graceful relocation.
    let server_of = |bin: Option<BinId>| bin.and_then(|b| server_ids.get(b.0).copied());
    let mut moves = Vec::new();
    for &(e, to) in moved {
        let Some(&from) = problem.initial_assignment().get(e.0) else {
            continue;
        };
        let (from, to) = (server_of(from), server_of(to));
        let row = rows.ends.partition_point(|&end| end <= e.0);
        if let (Some(to), Some(&shard)) = (to.filter(|&to| from != Some(to)), rows.shards.get(row))
        {
            let replica = e.0 - rows.span(row).start;
            moves.push(ReplicaMove {
                shard,
                replica,
                from,
                to,
            });
        }
    }
    // Fresh placements first: restoring availability beats balance.
    moves.sort_by_key(|m| (m.from.is_some(), m.shard, m.replica));
    moves
}

/// Server-id -> bin lookup: a dense table when the raw ids are compact
/// (the common case), falling back to a map otherwise. The dense path
/// turns the per-replica lookup in problem construction into an O(1)
/// array read.
#[derive(Debug)]
enum ServerIndex {
    Dense(Vec<Option<BinId>>),
    Sparse(BTreeMap<ServerId, BinId>),
}

impl ServerIndex {
    /// The index of `servers`, bin `i` being `servers[i]`.
    // sm-lint: allow(P1) — table is sized max_raw + 1, every id is <= max_raw
    fn of(servers: &[ServerInfo]) -> Self {
        let bins = servers.iter().enumerate().map(|(i, s)| (s.id, BinId(i)));
        let max_raw = servers.iter().map(|s| s.id.raw()).max().unwrap_or(0);
        if (max_raw as usize) < 4 * servers.len() + 1024 {
            let mut table = vec![None; max_raw as usize + 1];
            for (s, b) in bins {
                table[s.raw() as usize] = Some(b);
            }
            ServerIndex::Dense(table)
        } else {
            ServerIndex::Sparse(bins.collect())
        }
    }

    fn get(&self, s: ServerId) -> Option<BinId> {
        match self {
            ServerIndex::Dense(table) => table.get(s.raw() as usize).copied().flatten(),
            ServerIndex::Sparse(map) => map.get(&s).copied(),
        }
    }
}

/// What [`build_problem`] makes of a source.
#[derive(Debug)]
struct Built {
    problem: Problem,
    specs: SpecSet,
    /// Bin -> server.
    server_ids: Vec<ServerId>,
    /// Server -> bin.
    server_index: ServerIndex,
    /// The problem's shards and their slot ranges: the plan's target
    /// rows.
    rows: Arc<Rows>,
    /// Each slot as the source yielded it; `None` is unplaced.
    slots: Vec<Option<ServerId>>,
}

/// Builds the solver problem from one walk of `source`; entities are
/// minted shard by shard, slot by slot. A `cut` problem holds only the
/// shards [`PlacementSource::cut`] visits, over bins that start from
/// the usage it returns for the shards left out.
fn build_problem<S: PlacementSource>(source: &S, cut: bool) -> Built {
    let config = source.config();
    let servers: Vec<_> = source.servers().collect();
    let (shard_count, slot_count) = if cut { (0, 0) } else { source.size() };
    let mut problem = Problem::with_capacity(servers.len(), slot_count);
    for s in &servers {
        problem.add_bin(Bin {
            capacity: s.capacity,
            location: s.location,
            draining: s.draining,
        });
    }
    let server_ids: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
    let server_index = ServerIndex::of(&servers);
    // Per spread scope, the distinct domains.
    let spread_domains = SPREAD.map(|(_, level, _)| {
        let domains = servers.iter().map(|s| s.location.domain(level));
        domains.collect::<BTreeSet<_>>().len()
    });

    let mut rows = Rows {
        shards: Vec::with_capacity(shard_count),
        ends: Vec::with_capacity(shard_count),
    };
    let mut slots = Vec::with_capacity(slot_count);
    let mut affinities = Vec::new();
    let mut spread_groups = Vec::new();
    let mut max_replicas = 1usize;
    let add = |shard, load, placed: &[Option<ServerId>]| {
        max_replicas = max_replicas.max(placed.len());
        rows.shards.push(shard);
        let group = (placed.len() > 1).then(|| problem.new_group());
        spread_groups.extend(group);
        let pref = config.region_preferences.get(&shard);
        for &on in placed {
            // A replica placed on a server that is no longer offered
            // (failed/removed) is treated as unplaced.
            let bin = on.and_then(|s| server_index.get(s));
            let e = problem.add_entity(Entity { load, group }, bin);
            if let Some(&(region, weight)) = pref {
                affinities.push((e, u64::from(region.raw()), weight));
            }
        }
        slots.extend_from_slice(placed);
        rows.ends.push(slots.len());
    };
    if cut {
        let (start, widest) = source.cut(add);
        problem.set_start(start);
        max_replicas = max_replicas.max(widest);
    } else {
        source.for_each_shard(add);
    }

    let mut specs = SpecSet::new();
    specs.forbid_group_colocation = true;
    for &m in &config.lb_metrics {
        specs.add_constraint(CapacitySpec { metric: m });
    }
    if !affinities.is_empty() {
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities,
            priority: PRIO_PLACEMENT,
        }));
    }
    // Spread at every level with enough distinct domains to host each
    // replica separately.
    for (&(scope, _, weight), &domains) in SPREAD.iter().zip(&spread_domains) {
        if domains >= max_replicas && !spread_groups.is_empty() {
            specs.add_goal(Spec::Exclusion(ExclusionSpec {
                scope,
                groups: spread_groups.clone(),
                weight,
                priority: PRIO_PLACEMENT,
            }));
        }
    }
    if servers.iter().any(|s| s.draining) {
        specs.add_goal(Spec::Drain(DrainSpec {
            weight: WEIGHT_DRAIN,
            priority: PRIO_DRAIN,
        }));
    }
    for &m in &config.lb_metrics {
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: m,
            threshold: UTILIZATION_THRESHOLD,
            weight: WEIGHT_UTIL,
            priority: PRIO_UTIL,
        }));
        specs.add_goal(Spec::Balance(sm_solver::BalanceSpec {
            metric: m,
            tolerance: BALANCE_TOLERANCE,
            weight: WEIGHT_BALANCE,
            priority: PRIO_BALANCE,
        }));
    }
    Built {
        problem,
        specs,
        server_ids,
        server_index,
        rows: Arc::new(rows),
        slots,
    }
}

/// [`PlacementSource::cut`] by one walk of every shard: a shard with
/// every slot on an offered server adds its load, and its penalty under
/// the region-preference goal, to the servers it is on; any other is
/// visited.
pub(crate) fn cut_by_walk<S: PlacementSource + ?Sized>(
    source: &S,
    mut visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>]),
) -> (Vec<(LoadVector, Fixed)>, usize) {
    let servers: Vec<_> = source.servers().collect();
    let server_index = ServerIndex::of(&servers);
    let preferences = &source.config().region_preferences;
    let mut start = vec![(LoadVector::zero(), Fixed::default()); servers.len()];
    let mut widest = 0;
    let mut bins = Vec::new();
    source.for_each_shard(|shard, load, slots| {
        widest = widest.max(slots.len());
        bins.clear();
        bins.extend(slots.iter().map(|s| s.and_then(|s| server_index.get(s))));
        if bins.contains(&None) {
            return visit(shard, load, slots);
        }
        let pref = preferences.get(&shard);
        for b in bins.iter().flatten() {
            let (Some(at), Some(s)) = (start.get_mut(b.0), servers.get(b.0)) else {
                continue;
            };
            at.0 += load;
            if let Some(&(_, weight)) = pref.filter(|&&(want, _)| s.location.region != want) {
                at.1 = at.1 + Fixed::from(weight);
            }
        }
    });
    (start, widest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{AllocConfig, AllocInput, ServerInfo, ShardPlacement};
    use sm_types::{LoadVector, Location, MachineId, Metric, RegionId, ShardId};

    fn server(id: u32, region: u16, rack: u32, cap: f64) -> ServerInfo {
        ServerInfo {
            id: ServerId(id),
            location: Location {
                region: RegionId(region),
                datacenter: u32::from(region),
                rack: u32::from(region) * 1000 + rack,
                machine: MachineId(id),
            },
            capacity: LoadVector::single(Metric::Cpu.id(), cap),
            draining: false,
        }
    }

    fn cpu(v: f64) -> LoadVector {
        LoadVector::single(Metric::Cpu.id(), v)
    }

    fn config() -> AllocConfig {
        let mut c = AllocConfig::new(vec![Metric::Cpu.id()]);
        c.search.seed = 42;
        c
    }

    /// What a plan is compared by.
    #[derive(PartialEq, Debug)]
    struct Outcome {
        moves: Vec<ReplicaMove>,
        target: Vec<(ShardId, Vec<Option<ServerId>>)>,
        evaluated: u64,
        violations: sm_solver::ViolationStats,
    }

    fn outcome(plan: AllocationPlan) -> Outcome {
        Outcome {
            target: plan
                .target()
                .map(|(s, slots)| (s, slots.to_vec()))
                .collect(),
            moves: plan.moves,
            evaluated: plan.search.evaluated,
            violations: plan.violations,
        }
    }

    /// `got` against the model's outcome for the whole input: a cut
    /// plan, whose target holds only the shards it rebuilt, by its
    /// moves, `evaluated` and those rows; any other plan whole.
    fn assert_matches(got: AllocationPlan, want: &Outcome, context: &str) {
        let got = outcome(got);
        if got.target.len() == want.target.len() {
            return assert_eq!(&got, want, "{context}");
        }
        assert_eq!(got.moves, want.moves, "{context}: moves");
        assert_eq!(got.evaluated, want.evaluated, "{context}: evaluated");
        let rebuilt: BTreeSet<ShardId> = got.target.iter().map(|(s, _)| *s).collect();
        let rows = want.target.iter().filter(|(s, _)| rebuilt.contains(s));
        assert_eq!(got.target, rows.cloned().collect::<Vec<_>>(), "{context}");
    }

    /// `plan` as it was before the target went flat, kept as the model:
    /// parallel-vector indexing through a `(shard index, slot)` table, a
    /// `Vec` per target row, and a second evaluator built on the final
    /// assignment only to count its violations.
    fn plan_model(input: &AllocInput, max_priority: u8) -> Outcome {
        let Built {
            problem,
            mut specs,
            server_ids,
            ..
        } = build_problem(input, false);
        let shards = input.shards.iter().enumerate();
        let slot_index: Vec<(usize, usize)> = shards
            .flat_map(|(i, s)| (0..s.replicas.len()).map(move |slot| (i, slot)))
            .collect();
        specs.goals.retain(|g| g.priority() <= max_priority);
        let (assignment, stats) =
            ParallelSearch::new(input.config.search.clone()).solve(&problem, &specs);
        let mut moves = Vec::new();
        let mut target: Vec<(ShardId, Vec<Option<ServerId>>)> = input
            .shards
            .iter()
            .map(|s| (s.shard, vec![None; s.replicas.len()]))
            .collect();
        for (entity_idx, &(shard_idx, slot)) in slot_index.iter().enumerate() {
            let new_server = assignment[entity_idx].map(|b| server_ids[b.0]);
            target[shard_idx].1[slot] = new_server;
            let old_server = problem.initial_assignment()[entity_idx].map(|b| server_ids[b.0]);
            if let Some(to) = new_server {
                if old_server != Some(to) {
                    moves.push(ReplicaMove {
                        shard: input.shards[shard_idx].shard,
                        replica: slot,
                        from: old_server,
                        to,
                    });
                }
            }
        }
        moves.sort_by_key(|m| (m.from.is_some(), m.shard, m.replica));
        let eval =
            sm_solver::Evaluator::with_assignment(&problem, &specs, max_priority, &assignment);
        Outcome {
            moves,
            target,
            evaluated: stats.evaluated,
            violations: eval.violations(),
        }
    }

    /// The model's `plan_emergency`: the move budget set on a clone of
    /// the whole input, solved on one thread.
    fn plan_emergency_model(input: &AllocInput) -> Outcome {
        let slots = input.shards.iter().flat_map(|s| &s.replicas);
        let mut limited = input.clone();
        limited.config.search.max_moves = slots.filter(|r| r.is_none()).count();
        limited.config.search.threads = 1;
        plan_model(&limited, PRIO_PLACEMENT)
    }

    /// A second source: the facts of an `AllocInput` kept the way a
    /// control plane keeps them — keyed maps, the shard order beside
    /// them — and a slot count it does not know.
    struct Books<'a> {
        config: &'a AllocConfig,
        servers: BTreeMap<ServerId, ServerInfo>,
        order: Vec<ShardId>,
        shards: BTreeMap<ShardId, &'a ShardPlacement>,
    }

    impl<'a> Books<'a> {
        fn of(input: &'a AllocInput) -> Self {
            Self {
                config: &input.config,
                servers: input.servers.iter().map(|s| (s.id, *s)).collect(),
                order: input.shards.iter().map(|s| s.shard).collect(),
                shards: input.shards.iter().map(|s| (s.shard, s)).collect(),
            }
        }
    }

    impl PlacementSource for Books<'_> {
        fn config(&self) -> &AllocConfig {
            self.config
        }

        fn servers(&self) -> impl Iterator<Item = ServerInfo> {
            self.servers.values().copied()
        }

        fn for_each_shard(&self, mut visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>])) {
            for shard in &self.order {
                let s = self.shards[shard];
                visit(s.shard, s.load_per_replica, &s.replicas);
            }
        }

        fn size(&self) -> (usize, usize) {
            (0, 0)
        }
    }

    #[test]
    fn plans_equal_the_rebuilding_model_on_seeded_inputs() {
        let (mut with_moves, mut with_violations, mut unplaceable) = (0, 0, 0);
        for seed in 0..120u64 {
            let mut rng = sm_sim::SimRng::seeded(seed);
            let regions = 1 + rng.index(3) as u32;
            let n_servers = 6 + rng.index(14) as u32;
            let mut servers: Vec<ServerInfo> = (0..n_servers)
                .map(|i| server(i, (i % regions) as u16, i / 2, rng.f64_range(30.0, 90.0)))
                .collect();
            if seed % 3 == 0 {
                servers[rng.index(n_servers as usize)].draining = true;
            }
            let mut cfg = config();
            cfg.search.seed = seed;
            cfg.search.threads = if seed % 2 == 0 { 1 } else { 4 };
            // Server 99 is not offered: a replica on it counts as lost.
            let place = |rng: &mut sm_sim::SimRng| match rng.index(10) {
                0 | 1 => None,
                2 => Some(ServerId(99)),
                _ => Some(ServerId(rng.index(n_servers as usize / 2) as u32)),
            };
            let shards: Vec<ShardPlacement> = (0..30 + rng.index(60) as u64)
                .map(|s| {
                    if seed % 5 == 0 && rng.chance(0.3) {
                        let region = RegionId(rng.index(regions as usize) as u16);
                        cfg.region_preferences.insert(ShardId(s), (region, 1.0));
                    }
                    ShardPlacement {
                        shard: ShardId(s),
                        load_per_replica: cpu(rng.f64_range(0.5, 6.0)),
                        replicas: (0..1 + rng.index(3)).map(|_| place(&mut rng)).collect(),
                    }
                })
                .collect();
            let input = AllocInput {
                servers,
                shards,
                config: cfg,
            };
            let books = Books::of(&input);
            let emergency = (
                Allocator::plan_emergency(&input),
                Allocator::plan_emergency(&books),
                plan_emergency_model(&input),
            );
            let periodic = (
                Allocator::plan_periodic(&input),
                Allocator::plan_periodic(&books),
                plan_model(&input, u8::MAX),
            );
            for (mode, (got, through_books, want)) in
                [("emergency", emergency), ("periodic", periodic)]
            {
                with_moves += usize::from(!got.moves.is_empty());
                with_violations += usize::from(got.violations.total() > 0);
                unplaceable += usize::from(got.unplaced() > 0);
                assert_eq!(got.target, through_books.target, "seed {seed} {mode}");
                assert_matches(through_books, &want, &format!("seed {seed} {mode}: books"));
                assert_matches(got, &want, &format!("seed {seed} {mode}"));
            }
        }
        println!("{with_moves} plans move, {with_violations} keep violations, {unplaceable} leave a replica unplaced");
        assert!(with_moves > 200 && with_violations > 20);
    }

    /// A problem kept and patched equals one built afresh. A seeded
    /// fleet, its shards in order or shuffled, is edited step by step:
    /// loads and slots written shard by shard in no order (a slot moved,
    /// emptied, or put on a server no longer offered), which the kept
    /// problem is patched for; and now and then a server lost, a desired
    /// count changed or a region preference added, for which its keeper
    /// builds it again. After every step its plan equals
    /// `plan_periodic` over a fresh copy of the input, on one thread and
    /// on four.
    #[test]
    fn a_kept_problem_plans_as_a_fresh_input_does() {
        let (mut patched, mut rebuilt, mut moved) = (0, 0, 0);
        for seed in 0..16u64 {
            let mut rng = sm_sim::SimRng::seeded(0xa11 + seed);
            let regions = 1 + rng.index(3) as u32;
            let n_servers = 6 + rng.index(10) as u32;
            let mut cfg = config();
            cfg.search.seed = seed;
            cfg.search.threads = if seed % 2 == 0 { 1 } else { 4 };
            let mut input = AllocInput {
                servers: (0..n_servers)
                    .map(|i| server(i, (i % regions) as u16, i / 2, rng.f64_range(40.0, 90.0)))
                    .collect(),
                shards: (0..30 + rng.index(40) as u64)
                    .map(|s| ShardPlacement {
                        shard: ShardId(s),
                        load_per_replica: cpu(rng.f64_range(0.5, 6.0)),
                        replicas: (0..1 + rng.index(3))
                            .map(|_| Some(ServerId(rng.index(n_servers as usize) as u32)))
                            .collect(),
                    })
                    .collect(),
                config: cfg,
            };
            if seed % 3 == 0 {
                rng.shuffle(&mut input.shards);
            }
            let mut kept = PeriodicProblem::from(&input);
            for step in 0..10 {
                let i = rng.index(input.shards.len());
                match rng.index(8) {
                    0 => {
                        let at = rng.index(input.servers.len());
                        input.servers.remove(at);
                        kept = PeriodicProblem::from(&input);
                        rebuilt += 1;
                    }
                    1 => {
                        input.shards[i].replicas.resize(1 + rng.index(3), None);
                        kept = PeriodicProblem::from(&input);
                        rebuilt += 1;
                    }
                    2 => {
                        let region = RegionId(rng.index(regions as usize) as u16);
                        let shard = input.shards[i].shard;
                        input.config.region_preferences.insert(shard, (region, 1.0));
                        kept = PeriodicProblem::from(&input);
                        rebuilt += 1;
                    }
                    _ => {
                        for _ in 0..1 + rng.index(4) {
                            let at = rng.index(input.shards.len());
                            let s = &mut input.shards[at];
                            if rng.chance(0.5) {
                                s.load_per_replica = cpu(rng.f64_range(0.5, 12.0));
                            }
                            let slot = rng.index(s.replicas.len());
                            s.replicas[slot] = match rng.index(6) {
                                0 => None,
                                1 => Some(ServerId(99)),
                                _ => Some(ServerId(rng.index(n_servers as usize) as u32)),
                            };
                            let slots = s.replicas.iter().copied();
                            kept.set_shard(s.shard, s.load_per_replica, slots);
                            patched += 1;
                        }
                    }
                }
                for threads in [1, 4] {
                    let mut fresh = input.clone();
                    fresh.config.search.threads = threads;
                    kept.search.threads = threads;
                    let want = outcome(Allocator::plan_periodic(&fresh));
                    moved += usize::from(!want.moves.is_empty());
                    let context = format!("seed {seed} step {step} threads {threads}");
                    assert_eq!(outcome(kept.plan()), want, "{context}");
                }
            }
        }
        println!("{patched} patches, {rebuilt} rebuilds, {moved} plans that move");
        assert!(patched > 200 && rebuilt > 30 && moved > 200);
    }

    /// A failed-over fleet: `shards` shards of 1–3 replicas on distinct
    /// servers among `servers` (in `regions` regions, two racks a
    /// server), some slots never placed, `lost` servers gone — their
    /// slots `None` as in the control plane's books, or still naming
    /// the server as an input may — a share of the shards preferring a
    /// region, some servers draining, capacities within `slack` of the
    /// load.
    fn failover(rng: &mut sm_sim::SimRng, shards: u64, servers: u32, lost: usize) -> AllocInput {
        let regions = 1 + rng.index(3) as u32;
        let mut cfg = config();
        cfg.search.seed = rng.next_u64();
        let mut placed = vec![0.0; servers as usize];
        let prefer = rng.chance(0.5);
        let shards: Vec<ShardPlacement> = (0..shards)
            .map(|s| {
                if prefer && rng.chance(0.3) {
                    let region = RegionId(rng.index(regions as usize) as u16);
                    cfg.region_preferences
                        .insert(ShardId(s), (region, 0.5 + rng.f64_range(0.0, 1.0)));
                }
                let load = rng.f64_range(0.3, 3.0);
                let n = 1 + rng.index(3);
                let on = rng.sample_indices(servers as usize, n);
                on.iter().for_each(|&i| placed[i] += load);
                let mut replicas: Vec<_> = on.iter().map(|&i| Some(ServerId(i as u32))).collect();
                if rng.chance(0.01) {
                    replicas[0] = None;
                }
                ShardPlacement {
                    shard: ShardId(s),
                    load_per_replica: cpu(load),
                    replicas,
                }
            })
            .collect();
        let slack = rng.f64_range(1.0, 1.6);
        let mut servers: Vec<ServerInfo> = (0..servers)
            .map(|i| {
                let cap = placed[i as usize] * slack * rng.f64_range(0.9, 1.1) + 1.0;
                server(i, (i % regions) as u16, i / 2, cap)
            })
            .collect();
        for _ in 0..rng.index(3) {
            let i = rng.index(servers.len());
            servers[i].draining = true;
        }
        let gone: Vec<ServerId> = (0..lost)
            .map(|_| servers.remove(rng.index(servers.len())).id)
            .collect();
        let books = rng.chance(0.5);
        let mut input = AllocInput {
            servers,
            shards,
            config: cfg,
        };
        for slot in input.shards.iter_mut().flat_map(|s| &mut s.replicas) {
            if books && slot.is_some_and(|s| gone.contains(&s)) {
                *slot = None;
            }
        }
        input
    }

    #[test]
    fn the_cut_emergency_plan_equals_the_whole_build() {
        let (mut fallbacks, mut cut_plans) = (0, 0);
        for seed in 0..100u64 {
            let mut rng = sm_sim::SimRng::seeded(0xc07 + seed);
            let shards = 512 + rng.index(3_585) as u64;
            let servers = 16 + rng.index(49) as u32;
            let lost = 1 + rng.index(3);
            let input = failover(&mut rng, shards, servers, lost);
            let mut search = input.config.search.clone();
            search.threads = 1;
            let cut = solve_placement(build_problem(&input, true), &search);
            let fell_back = cut.violations.unplaced > 0;
            fallbacks += usize::from(fell_back);
            cut_plans += usize::from(!fell_back && !cut.moves.is_empty());
            let got = Allocator::plan_emergency(&input);
            assert_eq!(got.violations, got.search.violations, "seed {seed}");
            let want = plan_emergency_model(&input);
            assert_matches(got, &want, &format!("seed {seed}"));
        }
        println!("{cut_plans} cut plans, {fallbacks} whole-fleet fallbacks");
        assert!(
            fallbacks >= 10 && cut_plans >= 50,
            "{cut_plans} cut, {fallbacks} fell back"
        );
    }

    /// One server lost: the cut holds exactly the slots of the shards it
    /// held, the same at 1,024 × 16 as at sixteen times that.
    #[test]
    fn the_cut_problem_holds_only_what_the_lost_server_held() {
        let count_at = |shards: u64, servers: u32| {
            let slots = |s: u64| {
                let (a, b) = (s % u64::from(servers), (s * 7 + 3) % u64::from(servers));
                let b = if a == b {
                    (b + 1) % u64::from(servers)
                } else {
                    b
                };
                [a, b]
                    .map(|i| Some(ServerId(i as u32)).filter(|_| i != 5))
                    .to_vec()
            };
            let input = AllocInput {
                servers: (0..servers)
                    .filter(|&i| i != 5)
                    .map(|i| server(i, 0, i / 2, 1e6))
                    .collect(),
                shards: (0..shards)
                    .map(|s| ShardPlacement {
                        shard: ShardId(s),
                        load_per_replica: cpu(1.0 + (s % 16) as f64 / 16.0),
                        replicas: slots(s),
                    })
                    .collect(),
                config: config(),
            };
            let lacking: usize = (input.shards.iter())
                .filter(|s| s.replicas.contains(&None))
                .map(|s| s.replicas.len())
                .sum();
            let cut = build_problem(&input, true);
            assert_eq!(cut.problem.entity_count(), lacking);
            assert_eq!(Allocator::plan_emergency(&input).unplaced(), 0);
            lacking
        };
        let (small, large) = (count_at(1_024, 16), count_at(16_384, 256));
        println!(
            "one server lost: {small} slots in the cut at 1,024 x 16, {large} at 16,384 x 256"
        );
        assert_eq!(small, large);
    }

    #[test]
    fn periodic_places_and_spreads_replicas() {
        // 3 regions x 2 servers; 10 shards x 2 replicas, all unplaced.
        let servers: Vec<ServerInfo> = (0..6)
            .map(|i| server(i, (i / 2) as u16, i, 100.0))
            .collect();
        let shards: Vec<ShardPlacement> = (0..10)
            .map(|s| ShardPlacement::unplaced(ShardId(s), cpu(5.0), 2))
            .collect();
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_periodic(&input);
        assert_eq!(plan.unplaced(), 0);
        assert_eq!(plan.violations.total(), 0);
        // Replicas of each shard are in different regions.
        for (_, replicas) in plan.target() {
            let r0 = replicas[0].unwrap();
            let r1 = replicas[1].unwrap();
            assert_ne!(r0.raw() / 2, r1.raw() / 2, "replicas share a region");
            assert_ne!(r0, r1);
        }
    }

    #[test]
    fn region_preference_places_one_replica_in_region() {
        let servers: Vec<ServerInfo> = (0..6)
            .map(|i| server(i, (i / 2) as u16, i, 100.0))
            .collect();
        let mut cfg = config();
        for s in 0..8u64 {
            cfg.region_preferences
                .insert(ShardId(s), (RegionId(1), 1.0));
        }
        let shards: Vec<ShardPlacement> = (0..8)
            .map(|s| ShardPlacement::unplaced(ShardId(s), cpu(4.0), 2))
            .collect();
        let input = AllocInput {
            servers,
            shards,
            config: cfg,
        };
        let plan = Allocator::plan_periodic(&input);
        assert_eq!(plan.unplaced(), 0);
        for (_, replicas) in plan.target() {
            let regions: Vec<u32> = replicas.iter().map(|r| r.unwrap().raw() / 2).collect();
            assert!(
                regions.contains(&1),
                "no replica in preferred region: {regions:?}"
            );
            assert_ne!(regions[0], regions[1], "spread still holds");
        }
    }

    #[test]
    fn emergency_only_places_missing_replicas() {
        let servers: Vec<ServerInfo> = (0..4).map(|i| server(i, 0, i, 100.0)).collect();
        // Shard 0 fully placed; shard 1 lost a replica.
        let shards = vec![
            ShardPlacement {
                shard: ShardId(0),
                load_per_replica: cpu(5.0),
                replicas: vec![Some(ServerId(0)), Some(ServerId(1))],
            },
            ShardPlacement {
                shard: ShardId(1),
                load_per_replica: cpu(5.0),
                replicas: vec![Some(ServerId(2)), None],
            },
        ];
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_emergency(&input);
        assert_eq!(plan.unplaced(), 0);
        // Exactly one move: the missing replica; existing ones untouched.
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.shard, ShardId(1));
        assert_eq!(mv.from, None);
        assert_ne!(mv.to, ServerId(2), "not colocated with its sibling");
    }

    #[test]
    fn replicas_on_failed_servers_are_replaced() {
        // Server 9 is not in the input (failed); its replica re-places.
        let servers: Vec<ServerInfo> = (0..3).map(|i| server(i, 0, i, 100.0)).collect();
        let shards = vec![ShardPlacement {
            shard: ShardId(0),
            load_per_replica: cpu(5.0),
            replicas: vec![Some(ServerId(9)), Some(ServerId(0))],
        }];
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_emergency(&input);
        assert_eq!(plan.unplaced(), 0);
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.moves[0].from, None, "failed source is gone");
    }

    #[test]
    fn draining_server_is_evacuated() {
        let mut servers: Vec<ServerInfo> = (0..4).map(|i| server(i, 0, i, 100.0)).collect();
        servers[0].draining = true;
        let shards: Vec<ShardPlacement> = (0..6)
            .map(|s| ShardPlacement {
                shard: ShardId(s),
                load_per_replica: cpu(5.0),
                replicas: vec![Some(ServerId(0))],
            })
            .collect();
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_periodic(&input);
        for (_, replicas) in plan.target() {
            assert_ne!(
                replicas[0],
                Some(ServerId(0)),
                "shard left on draining server"
            );
        }
        assert_eq!(plan.violations.drain, 0);
    }

    #[test]
    fn overload_is_rebalanced() {
        let servers: Vec<ServerInfo> = (0..4).map(|i| server(i, 0, i, 100.0)).collect();
        // 16 shards of 10 CPU all on server 0: utilization 160% -> must move.
        let shards: Vec<ShardPlacement> = (0..16)
            .map(|s| ShardPlacement {
                shard: ShardId(s),
                load_per_replica: cpu(10.0),
                replicas: vec![Some(ServerId(0))],
            })
            .collect();
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_periodic(&input);
        assert_eq!(plan.violations.total(), 0);
        assert!(!plan.moves.is_empty());
        // Final spread: 40 load per server, all within the 10% band.
        let mut usage = BTreeMap::new();
        for (_, replicas) in plan.target() {
            *usage.entry(replicas[0].unwrap()).or_insert(0.0) += 10.0;
        }
        for (_, u) in usage {
            assert!(u <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn moves_list_fresh_placements_first() {
        let servers: Vec<ServerInfo> = (0..4).map(|i| server(i, 0, i, 100.0)).collect();
        let shards = vec![
            ShardPlacement {
                shard: ShardId(0),
                load_per_replica: cpu(60.0),
                replicas: vec![Some(ServerId(0))],
            },
            ShardPlacement {
                shard: ShardId(1),
                load_per_replica: cpu(60.0),
                replicas: vec![Some(ServerId(0))],
            },
            ShardPlacement::unplaced(ShardId(2), cpu(10.0), 1),
        ];
        let input = AllocInput {
            servers,
            shards,
            config: config(),
        };
        let plan = Allocator::plan_periodic(&input);
        if plan.moves.len() > 1 {
            let first_from_none: Vec<bool> = plan.moves.iter().map(|m| m.from.is_none()).collect();
            let first_true_run = first_from_none.iter().take_while(|&&b| b).count();
            assert!(first_true_run >= 1, "fresh placement ordered first");
        }
    }
}
