//! Incremental objective evaluation.
//!
//! The evaluator maintains, under entity moves:
//!
//! - per-bin usage vectors and entity counts;
//! - a [`PenaltyTree`] whose leaf `b` holds bin `b`'s total attributable
//!   penalty (balance excess + utilization-cap excess + drain penalty +
//!   the affinity penalties of entities it hosts), so the objective
//!   updates in O(1) per touched bin;
//! - per-group placed/distinct-domain counts for exclusion (spread)
//!   goals — a group's domain occupancy is read off its few members'
//!   current bins, never stored — with the set of currently violated
//!   groups exposed to the search so it can target colocated replicas
//!   directly.
//!
//! A key simplification the paper also exploits: moves never change the
//! total load, so per-metric average utilization — and therefore every
//! balance threshold — is a constant of the run.
//!
//! What the evaluator owns is one value, its `Columns`, which a kept
//! solve hands back to its problem at the problem's initial assignment:
//! the problem patches them as it is patched, and the next solve's first
//! batch starts from them instead of from a build over every entity.

use crate::penalty_tree::{rank_key, PenaltyTree};
use crate::problem::{BinId, Entity, EntityId, GroupId, Members, Problem};
use crate::specs::{Scope, Spec, SpecSet};
use sm_types::{Fixed, LoadVector, MetricId, METRIC_COUNT};
use std::collections::{BTreeMap, BTreeSet};

const UNPLACED: u32 = u32::MAX;

/// Violation counts for reporting (the y-axis of Figures 21–23).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationStats {
    /// Bins over a hard capacity constraint.
    pub capacity: usize,
    /// `(bin, balance-goal)` pairs above the balance band.
    pub balance: usize,
    /// `(bin, cap-goal)` pairs above the utilization threshold.
    pub utilization: usize,
    /// Entities placed outside their preferred domain.
    pub affinity: usize,
    /// `(spec, group)` pairs with colocated replicas.
    pub exclusion: usize,
    /// Draining bins still hosting entities.
    pub drain: usize,
    /// Entities without a placement.
    pub unplaced: usize,
}

impl ViolationStats {
    /// Sum of all violation categories.
    pub fn total(&self) -> usize {
        self.capacity
            + self.balance
            + self.utilization
            + self.affinity
            + self.exclusion
            + self.drain
            + self.unplaced
    }
}

#[derive(Clone, Copy, Debug)]
struct BalanceGoal {
    metric: MetricId,
    weight: f64,
    /// Per-bin threshold = capacity x limit_util.
    limit_util: f64,
}

#[derive(Clone, Copy, Debug)]
struct CapGoal {
    metric: MetricId,
    weight: f64,
    threshold: f64,
}

#[derive(Clone, Debug)]
struct ExclusionGoal {
    scope: Scope,
    weight: f64,
    /// `in_goal[group] == true` if the group participates.
    in_goal: Vec<bool>,
    /// Per-group: placed members and the distinct domains they occupy.
    placed: Vec<u32>,
    distinct: Vec<u32>,
}

impl ExclusionGoal {
    fn group_penalty(&self, g: usize) -> f64 {
        self.weight * f64::from(self.placed[g].saturating_sub(self.distinct[g]))
    }
}

/// The source side of a move of entity `e`, as [`Evaluator::source`]
/// computes it for a search round's targets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Source {
    e: EntityId,
    from: Option<usize>,
    change: Option<f64>,
}

/// An entity's summed load over every metric, the search's second rank
/// value, as a negated [`rank_key`].
fn load_rank(load: &LoadVector) -> u64 {
    let sum: f64 = (0..METRIC_COUNT).map(|m| load.get(MetricId(m))).sum();
    !rank_key(sum)
}

/// The incremental evaluator over one problem, carried through the
/// priority batches of a solve: each batch activates more goals.
#[derive(Debug)]
pub struct Evaluator<'p> {
    // -- static problem data, borrowed: the entities are most of the
    // problem --
    entities: &'p [Entity],
    members: &'p Members,
    n_groups: usize,
    /// The problem's start sums (empty: none).
    start: &'p [(LoadVector, Fixed)],
    /// Average utilization per metric over the whole problem and its
    /// start — constant under moves since total load and capacity are
    /// fixed.
    avg_util: [f64; METRIC_COUNT],

    // -- active specs, pre-resolved --
    hard_metrics: Vec<MetricId>,
    forbid_group_colocation: bool,
    balance_goals: Vec<BalanceGoal>,
    cap_goals: Vec<CapGoal>,
    drain_weight: f64,

    c: Columns,
}

/// What an evaluator owns: the few bins copied out for dense access, the
/// tables of the goals whose bookkeeping spans entities, and the search
/// state. A kept solve leaves them with its problem at the problem's
/// initial assignment, [`Problem::set_entity`] patches them there, and
/// [`Evaluator::enter_batch`] makes them a fresh build's again.
#[derive(Clone, Debug)]
pub(crate) struct Columns {
    bin_capacity: Vec<LoadVector>,
    /// Per bin: domain id at [host, rack, dc, region].
    bin_domains: Vec<[u64; 4]>,
    bin_draining: Vec<bool>,
    /// The start's usage plus every entity's load, placed or not.
    total_load: LoadVector,
    /// The goals of priority `<= active` are on; `None` before the first
    /// batch.
    active: Option<u8>,
    /// Per entity: `(scope index, preferred domain, weight)` preferences;
    /// empty when no affinity goal is active.
    entity_prefs: Vec<Vec<(usize, u64, Fixed)>>,
    exclusion_goals: Vec<ExclusionGoal>,

    // -- search state --
    assignment: Vec<u32>,
    /// Per bin, the start's usage plus its entities' loads.
    bin_usage: Vec<LoadVector>,
    /// Per bin, the start's affinity penalty plus its entities'.
    bin_affinity: Vec<Fixed>,
    /// Entities currently on each bin, maintained incrementally under
    /// moves so [`Evaluator::entities_on`] is O(1) instead of an
    /// O(n_entities) scan. Ascending when a batch starts and between
    /// solves; within a batch the order is move-history dependent
    /// (swap-remove) but a pure function of the move sequence.
    bin_entities: Vec<Vec<EntityId>>,
    /// Position of each placed entity within its bin's entity list;
    /// stale past a patch's edit in a list until the next batch entry.
    entity_pos: Vec<u32>,
    /// Per bin, whether a move or a patch has edited its entity list
    /// since a batch last started.
    touched: Vec<bool>,
    /// Per entity, the rank key of its summed load (see [`rank_key`]).
    rank_load: Vec<u64>,
    /// Whether a search move saves a bin's list before its first edit
    /// in the solve: set where something reads the saved lists, an undo
    /// or a later batch's entry.
    saving: bool,
    /// The lists saved this solve, back to back, each ascending, as the
    /// solve found it; bin `b`'s is `saved[range]` for `saved_at[b]`.
    saved: Vec<EntityId>,
    saved_at: Vec<Option<(u32, u32)>>,
    /// `(bin, entity)` for each entity moved onto a saved bin it was not
    /// saved on: a batch entry's scratch.
    arrivals: Vec<(usize, EntityId)>,
    /// Cached (region, utilization band) key of each bin.
    bin_group_key: Vec<(u64, u8)>,
    /// Bins grouped by their key, maintained incrementally: a bin moves
    /// between groups only when a move shifts its utilization band.
    target_groups: BTreeMap<(u64, u8), Vec<usize>>,
    /// Position of each bin within its target group's vector.
    bin_group_pos: Vec<u32>,
    tree: PenaltyTree,
    exclusion_total: f64,
    violated_groups: BTreeSet<(usize, GroupId)>,
    unplaced_count: usize,
    /// The entities moved since the columns were last at the problem's
    /// initial assignment, once per move.
    moved: Vec<EntityId>,
}

fn scope_index(scope: Scope) -> usize {
    match scope {
        Scope::Host => 0,
        Scope::Rack => 1,
        Scope::DataCenter => 2,
        Scope::Region => 3,
    }
}

impl Columns {
    /// The columns of `problem` at `assignment`, before any goal is
    /// admitted: each bin's entity list ascending.
    pub(crate) fn new(problem: &Problem, assignment: &[Option<BinId>]) -> Self {
        let n_bins = problem.bin_count();
        let bins = problem.bins();
        let mut levels = sm_types::FaultDomain::ALL;
        levels.reverse();
        let mut bin_usage: Vec<_> = problem.start().iter().map(|&(usage, _)| usage).collect();
        bin_usage.resize(n_bins, LoadVector::zero());
        let mut columns = Self {
            bin_capacity: bins.iter().map(|b| b.capacity).collect(),
            bin_domains: bins
                .iter()
                .map(|b| levels.map(|d| b.location.domain(d)))
                .collect(),
            bin_draining: bins.iter().map(|b| b.draining).collect(),
            total_load: bin_usage.iter().fold(LoadVector::zero(), |sum, &u| sum + u),
            active: None,
            entity_prefs: Vec::new(),
            exclusion_goals: Vec::new(),
            assignment: (assignment.iter())
                .map(|bin| bin.map_or(UNPLACED, |b| b.0 as u32))
                .collect(),
            bin_usage,
            bin_affinity: vec![Fixed::default(); n_bins],
            bin_entities: vec![Vec::new(); n_bins],
            entity_pos: vec![0; problem.entity_count()],
            touched: vec![false; n_bins],
            rank_load: Vec::with_capacity(problem.entity_count()),
            saving: false,
            saved: Vec::new(),
            saved_at: vec![None; n_bins],
            arrivals: Vec::new(),
            bin_group_key: vec![(0, 0); n_bins],
            target_groups: BTreeMap::new(),
            bin_group_pos: vec![0; n_bins],
            tree: PenaltyTree::new(n_bins),
            exclusion_total: 0.0,
            violated_groups: BTreeSet::new(),
            unplaced_count: 0,
            moved: Vec::new(),
        };
        for (i, entity) in problem.entities().iter().enumerate() {
            columns.total_load += entity.load;
            columns.rank_load.push(load_rank(&entity.load));
            match columns.bin_of(EntityId(i)) {
                Some(b) => {
                    columns.bin_usage[b] += entity.load;
                    columns.index_add(EntityId(i), b, false);
                }
                None => columns.unplaced_count += 1,
            }
        }
        columns.touched.fill(false);
        columns
    }

    /// Current bin of an entity.
    fn bin_of(&self, e: EntityId) -> Option<usize> {
        let b = self.assignment[e.0];
        (b != UNPLACED).then_some(b as usize)
    }

    /// The affinity penalty entity `e` incurs when placed on `bin`.
    fn affinity_penalty(&self, e: EntityId, bin: usize) -> Fixed {
        let mut pen = Fixed::default();
        for &(si, dom, w) in self.entity_prefs.get(e.0).into_iter().flatten() {
            if self.bin_domains[bin][si] != dom {
                pen = pen + w;
            }
        }
        pen
    }

    /// Adds `e` to `bin`'s entity list: at the end, or, for a patch
    /// (`ascending`), in its place in the ascending list, leaving the
    /// positions past it stale.
    fn index_add(&mut self, e: EntityId, bin: usize, ascending: bool) {
        let list = &mut self.bin_entities[bin];
        let pos = match ascending {
            true => list.binary_search(&e).unwrap_or_else(|pos| pos),
            false => list.len(),
        };
        list.insert(pos, e);
        self.entity_pos[e.0] = pos as u32;
        self.touched[bin] = true;
    }

    /// Removes `e` from `bin`'s entity list: by swap-remove, or, for a
    /// patch (`ascending`), keeping the ascending list in order and the
    /// positions past it stale.
    fn index_remove(&mut self, e: EntityId, bin: usize, ascending: bool) {
        let list = &mut self.bin_entities[bin];
        if ascending {
            debug_assert!(list.is_sorted(), "a patched list out of order");
            if let Ok(pos) = list.binary_search(&e) {
                list.remove(pos);
            }
        } else {
            let pos = self.entity_pos[e.0] as usize;
            debug_assert_eq!(list[pos], e, "entity index out of sync");
            list.swap_remove(pos);
            if pos < list.len() {
                let displaced = list[pos];
                self.entity_pos[displaced.0] = pos as u32;
            }
        }
        self.touched[bin] = true;
    }

    /// Copies `bin`'s list, as the solve found it, before its first edit
    /// in a solve that saves.
    fn save(&mut self, bin: usize) {
        if self.saving && self.saved_at[bin].is_none() {
            let start = self.saved.len() as u32;
            self.saved.extend_from_slice(&self.bin_entities[bin]);
            self.saved_at[bin] = Some((start, self.saved.len() as u32));
        }
    }

    /// Makes each list edited since the last batch entry ascending again,
    /// with its positions: a saved one by merging what stayed of its
    /// saved list with what arrived since, a patched one as it is (a
    /// patch keeps it ascending), and any other by a sort.
    fn order_lists(&mut self) {
        self.arrivals.clear();
        for &e in &self.moved {
            let b = self.assignment[e.0];
            let Some(&Some((start, end))) = self.saved_at.get(b as usize) else {
                continue;
            };
            let saved = &self.saved[start as usize..end as usize];
            if saved.binary_search(&e).is_err() {
                self.arrivals.push((b as usize, e));
            }
        }
        self.arrivals.sort_unstable();
        self.arrivals.dedup();
        let mut arrivals = self.arrivals.as_slice();
        for (b, list) in self.bin_entities.iter_mut().enumerate() {
            if !std::mem::take(&mut self.touched[b]) {
                continue;
            }
            // Arrivals on a bin not edited since the last entry are in
            // its list already.
            let skip = arrivals.partition_point(|&(bin, _)| bin < b);
            let here = arrivals.partition_point(|&(bin, _)| bin <= b);
            let came = &arrivals[skip..here];
            arrivals = &arrivals[here..];
            match self.saved_at[b] {
                Some((start, end)) => {
                    let saved = &self.saved[start as usize..end as usize];
                    let stayed = saved.iter().filter(|e| self.assignment[e.0] == b as u32);
                    let mut came = came.iter().map(|&(_, e)| e).peekable();
                    list.clear();
                    for &e in stayed {
                        while let Some(arrived) = came.next_if(|&arrived| arrived < e) {
                            list.push(arrived);
                        }
                        list.push(e);
                    }
                    list.extend(came);
                }
                None if list.is_sorted() => {}
                None => list.sort_unstable(),
            }
            for (pos, e) in list.iter().enumerate() {
                self.entity_pos[e.0] = pos as u32;
            }
        }
    }

    /// True if a member of group `g` other than `e` sits in domain `dom`
    /// of the scope at index `si` — the group's domain occupancy, read
    /// off its few members' current bins instead of a stored count.
    fn sibling_in(&self, members: &Members, e: EntityId, g: usize, si: usize, dom: u64) -> bool {
        members.of_group(g).iter().any(|&m| {
            let b = self.assignment[m.0];
            m != e && b != UNPLACED && self.bin_domains[b as usize][si] == dom
        })
    }

    /// Books `e`, of group `group`, joining `bin` (or leaving it) into
    /// every exclusion goal of its group. A group's distinct-domain count
    /// moves exactly when no sibling shares the domain.
    fn exclusion_update(
        &mut self,
        members: &Members,
        e: EntityId,
        group: Option<GroupId>,
        bin: usize,
        joining: bool,
    ) {
        let Some(GroupId(g)) = group else {
            return;
        };
        for gi in 0..self.exclusion_goals.len() {
            if !self.exclusion_goals[gi].in_goal[g] {
                continue;
            }
            let si = scope_index(self.exclusion_goals[gi].scope);
            let dom = self.bin_domains[bin][si];
            let alone = u32::from(!self.sibling_in(members, e, g, si, dom));
            let goal = &mut self.exclusion_goals[gi];
            let before = goal.group_penalty(g);
            if joining {
                goal.placed[g] += 1;
                goal.distinct[g] += alone;
            } else {
                goal.placed[g] -= 1;
                goal.distinct[g] -= alone;
            }
            let after = goal.group_penalty(g);
            self.exclusion_total += after - before;
            if goal.placed[g] > goal.distinct[g] {
                self.violated_groups.insert((gi, GroupId(g)));
            } else {
                self.violated_groups.remove(&(gi, GroupId(g)));
            }
        }
    }

    /// Moves `e` off its bin (or out of the unplaced count) as `old` is,
    /// and onto `to` (or among the unplaced) as `new` is; a patch keeps
    /// the lists it edits `ascending`.
    fn shift(
        &mut self,
        members: &Members,
        e: EntityId,
        [old, new]: [Entity; 2],
        to: Option<usize>,
        ascending: bool,
    ) {
        match self.bin_of(e) {
            Some(f) => {
                self.exclusion_update(members, e, old.group, f, false);
                self.bin_usage[f] -= old.load;
                self.bin_affinity[f] = self.bin_affinity[f] - self.affinity_penalty(e, f);
                self.index_remove(e, f, ascending);
            }
            None => self.unplaced_count -= 1,
        }
        let Some(b) = to else {
            (self.assignment[e.0], self.entity_pos[e.0]) = (UNPLACED, 0);
            self.unplaced_count += 1;
            return;
        };
        self.assignment[e.0] = b as u32;
        self.bin_usage[b] += new.load;
        self.bin_affinity[b] = self.bin_affinity[b] + self.affinity_penalty(e, b);
        self.index_add(e, b, ascending);
        self.exclusion_update(members, e, new.group, b, true);
    }

    /// Patches the columns for [`Problem::set_entity`]: `e`, which was
    /// `old` on `from` (the columns are at the initial assignment), is
    /// now `new` on `to`. A load change on the same bin moves its usage
    /// by the exact difference; any other change is a move, which keeps
    /// the lists ascending.
    pub(crate) fn set_entity(
        &mut self,
        members: &Members,
        e: EntityId,
        [old, new]: [Entity; 2],
        [from, to]: [Option<BinId>; 2],
    ) {
        debug_assert_eq!(
            self.bin_of(e),
            from.map(|b| b.0),
            "columns off the initial bins"
        );
        self.total_load -= old.load;
        self.total_load += new.load;
        self.rank_load[e.0] = load_rank(&new.load);
        match (from, to) {
            (Some(b), Some(to)) if b == to => self.bin_usage[b.0] += new.load - old.load,
            _ => self.shift(members, e, [old, new], to.map(|b| b.0), true),
        }
    }
}

impl<'p> Evaluator<'p> {
    /// Builds an evaluator for `problem` with the goals of priority
    /// `<= max_priority` from `specs` active, seeded with the problem's
    /// initial assignment.
    pub fn new(problem: &'p Problem, specs: &SpecSet, max_priority: u8) -> Self {
        Self::with_assignment(problem, specs, max_priority, problem.initial_assignment())
    }

    /// Builds an evaluator afresh, seeded from an explicit assignment —
    /// the working assignment a parallel worker or a polish pass starts
    /// from.
    pub fn with_assignment(
        problem: &'p Problem,
        specs: &SpecSet,
        max_priority: u8,
        assignment: &[Option<BinId>],
    ) -> Self {
        let columns = Columns::new(problem, assignment);
        Self::with_columns(problem, specs, max_priority, columns)
    }

    /// An evaluator over `columns`, which are `problem`'s, entered at
    /// the batch of the goals of priority `<= max_priority`.
    pub(crate) fn with_columns(
        problem: &'p Problem,
        specs: &SpecSet,
        max_priority: u8,
        columns: Columns,
    ) -> Self {
        let total_cap = (columns.bin_capacity.iter()).fold(LoadVector::zero(), |sum, &c| sum + c);
        let avg_util = std::array::from_fn(|m| {
            let cap = total_cap.get(MetricId(m));
            if cap > 0.0 {
                columns.total_load.get(MetricId(m)) / cap
            } else {
                0.0
            }
        });
        let mut eval = Self {
            entities: problem.entities(),
            members: problem.members(),
            n_groups: problem.group_count(),
            start: problem.start(),
            avg_util,
            hard_metrics: specs.constraints.iter().map(|c| c.metric).collect(),
            forbid_group_colocation: specs.forbid_group_colocation,
            balance_goals: Vec::new(),
            cap_goals: Vec::new(),
            drain_weight: 0.0,
            c: columns,
        };
        eval.enter_batch(specs, max_priority);
        eval
    }

    /// Enters the batch of the goals of priority `<= max_priority`,
    /// after which the evaluator equals a fresh [`Self::with_assignment`]
    /// at `max_priority` on the current assignment. Within a solve,
    /// batches only add goals; a kept solve's first batch may drop some.
    ///
    /// Goal lists are rebuilt in spec order, the order of a bin's
    /// penalty terms in their float sum. Usages, spread counts and the
    /// affinity sums are carried; a kind's tables are set up again only
    /// where one of its goals is on at this batch and off at the last, or
    /// the other way round. [`Self::rebase`] rebuilds the indexes and the
    /// penalties.
    pub(crate) fn enter_batch(&mut self, specs: &SpecSet, max_priority: u8) {
        let was = self.c.active.replace(max_priority);
        let goals = specs.goals_up_to(max_priority);
        let flips = |kind: fn(&Spec) -> bool| {
            let on = |p: Option<u8>, g: &Spec| p.is_some_and(|p| g.priority() <= p);
            (specs.goals.iter()).any(|g| kind(g) && on(Some(max_priority), g) != on(was, g))
        };
        let affinity = |g: &Spec| matches!(g, Spec::Affinity(_));
        let new_prefs = flips(affinity);
        let new_spread = flips(|g| matches!(g, Spec::Exclusion(_)));
        let prefs_on = goals.iter().any(|g| affinity(g));
        self.balance_goals.clear();
        self.cap_goals.clear();
        self.drain_weight = 0.0;
        if new_prefs {
            let n = self.c.assignment.len() * usize::from(prefs_on);
            self.c.entity_prefs.iter_mut().for_each(Vec::clear);
            self.c.entity_prefs.resize(n, Vec::new());
        }
        if new_spread {
            self.c.exclusion_goals.clear();
        }
        let n_groups = self.n_groups;
        for goal in goals {
            match goal {
                Spec::Balance(s) => self.balance_goals.push(BalanceGoal {
                    metric: s.metric,
                    weight: s.weight,
                    limit_util: self.avg_util[s.metric.0] + s.tolerance,
                }),
                Spec::UtilizationCap(s) => self.cap_goals.push(CapGoal {
                    metric: s.metric,
                    weight: s.weight,
                    threshold: s.threshold,
                }),
                Spec::Affinity(s) if new_prefs => {
                    let si = scope_index(s.scope);
                    for &(e, dom, w) in &s.affinities {
                        self.c.entity_prefs[e.0].push((si, dom, w.into()));
                    }
                }
                Spec::Exclusion(s) if new_spread => {
                    let mut in_goal = vec![false; n_groups];
                    for g in &s.groups {
                        in_goal[g.0] = true;
                    }
                    self.c.exclusion_goals.push(ExclusionGoal {
                        scope: s.scope,
                        weight: s.weight,
                        in_goal,
                        placed: vec![0; n_groups],
                        distinct: vec![0; n_groups],
                    });
                }
                Spec::Drain(s) => self.drain_weight += s.weight,
                Spec::Affinity(_) | Spec::Exclusion(_) => {}
            }
        }
        if new_spread {
            self.count_spread();
        }
        if new_prefs {
            self.sum_affinity(prefs_on);
        }
        self.rebase();
    }

    /// Sums each bin's affinity penalties: the start's, then those of
    /// the entities placed on it; all zero while no affinity goal is on.
    fn sum_affinity(&mut self, on: bool) {
        self.c.bin_affinity.fill(Fixed::default());
        if !on {
            return;
        }
        for (b, &(_, affinity)) in self.start.iter().enumerate() {
            self.c.bin_affinity[b] = affinity;
        }
        for i in 0..self.c.assignment.len() {
            if let Some(b) = self.c.bin_of(EntityId(i)) {
                self.c.bin_affinity[b] =
                    self.c.bin_affinity[b] + self.c.affinity_penalty(EntityId(i), b);
            }
        }
    }

    /// Counts each spread goal's placed members and distinct domains
    /// group by group, in one pass over the members, and books the
    /// groups that violate.
    fn count_spread(&mut self) {
        let c = &mut self.c;
        c.violated_groups.clear();
        for (gi, goal) in c.exclusion_goals.iter_mut().enumerate() {
            let si = scope_index(goal.scope);
            for g in (0..goal.in_goal.len()).filter(|&g| goal.in_goal[g]) {
                let members = self.members.of_group(g);
                let domain = |m: &EntityId| {
                    let b = c.assignment[m.0];
                    (b != UNPLACED).then(|| c.bin_domains[b as usize][si])
                };
                let (mut placed, mut distinct) = (0, 0);
                for (i, dom) in members.iter().map(domain).enumerate() {
                    if dom.is_some() {
                        placed += 1;
                        distinct += u32::from(!members[..i].iter().any(|m| domain(m) == dom));
                    }
                }
                (goal.placed[g], goal.distinct[g]) = (placed, distinct);
                if placed > distinct {
                    c.violated_groups.insert((gi, GroupId(g)));
                }
            }
        }
    }

    /// Rebuilds the state a move history leaves path-dependent the way a
    /// fresh build makes it: each entity list a move or a patch edited
    /// ascending again, the penalty leaves and target groups in bin
    /// order, and the spread total summed over the violated groups,
    /// which is the sum over every group: each other group adds +0.0.
    fn rebase(&mut self) {
        self.c.order_lists();
        let c = &mut self.c;
        c.tree.reset();
        c.target_groups.values_mut().for_each(Vec::clear);
        for b in 0..self.c.bin_usage.len() {
            self.refresh_leaf(b);
            let key = self.compute_group_key(b);
            self.c.bin_group_key[b] = key;
            let group = self.c.target_groups.entry(key).or_default();
            self.c.bin_group_pos[b] = group.len() as u32;
            group.push(b);
        }
        let c = &mut self.c;
        c.target_groups.retain(|_, group| !group.is_empty());
        c.exclusion_total = 0.0;
        for &(gi, GroupId(g)) in &c.violated_groups {
            c.exclusion_total += c.exclusion_goals[gi].group_penalty(g);
        }
    }

    /// Saves each bin's list before a search move first edits it in
    /// this solve if `on`: for a solve whose lists an undo or a later
    /// batch's entry reads back.
    pub(crate) fn save_lists(&mut self, on: bool) {
        self.c.saving = on;
    }

    /// Ends a kept solve: moves each entity the search moved back to its
    /// bin in `initial`, the problem's initial assignment, and puts each
    /// list it edited back as it was saved. Returns the columns there,
    /// and the entities whose bin differed, ascending, with the bin each
    /// had.
    pub(crate) fn undo(
        self,
        initial: &[Option<BinId>],
    ) -> (Columns, Vec<(EntityId, Option<BinId>)>) {
        let (entities, members, mut c) = (self.entities, self.members, self.c);
        let mut log = std::mem::take(&mut c.moved);
        log.sort_unstable();
        log.dedup();
        let mut moved = Vec::new();
        for &e in &log {
            let (back, at) = (initial[e.0].map(|b| b.0), c.bin_of(e));
            if at != back {
                moved.push((e, at.map(BinId)));
                c.shift(members, e, [entities[e.0]; 2], back, false);
            }
        }
        log.clear();
        c.moved = log;
        for (b, list) in c.bin_entities.iter_mut().enumerate() {
            if let Some((start, end)) = c.saved_at[b].take() {
                list.clear();
                list.extend_from_slice(&c.saved[start as usize..end as usize]);
                for (pos, e) in list.iter().enumerate() {
                    c.entity_pos[e.0] = pos as u32;
                }
                c.touched[b] = false;
            }
        }
        debug_assert!(!c.touched.contains(&true), "a list edited but not saved");
        c.saved.clear();
        c.saving = false;
        (c, moved)
    }

    /// The bin-local penalty of `bin` from its current usage.
    fn bin_local_penalty(&self, bin: usize) -> f64 {
        let (usage, count) = (&self.c.bin_usage[bin], self.c.bin_entities[bin].len());
        self.hypothetical_bin_penalty(bin, usage, count, self.c.bin_affinity[bin])
    }

    fn refresh_leaf(&mut self, bin: usize) {
        let pen = self.bin_local_penalty(bin);
        self.c.tree.set(bin, pen);
    }

    /// Recomputes a bin's (region, utilization band) key from scratch.
    fn compute_group_key(&self, bin: usize) -> (u64, u8) {
        let region = self.c.bin_domains[bin][3];
        let util = self.c.bin_usage[bin].max_utilization(&self.c.bin_capacity[bin]);
        let band = (util * 5.0).floor().clamp(0.0, 10.0) as u8;
        (region, band)
    }

    /// Moves `bin` to the target group matching its current utilization
    /// band, if the band shifted. O(log groups) — called once per
    /// touched bin per move.
    fn refresh_group_key(&mut self, bin: usize) {
        let key = self.compute_group_key(bin);
        let c = &mut self.c;
        let old = c.bin_group_key[bin];
        if key == old {
            return;
        }
        let pos = c.bin_group_pos[bin] as usize;
        let group = c
            .target_groups
            .get_mut(&old)
            .expect("bin was indexed under its old key");
        group.swap_remove(pos);
        if pos < group.len() {
            let displaced = group[pos];
            c.bin_group_pos[displaced] = pos as u32;
        }
        if group.is_empty() {
            c.target_groups.remove(&old);
        }
        let group = c.target_groups.entry(key).or_default();
        c.bin_group_pos[bin] = group.len() as u32;
        group.push(bin);
        c.bin_group_key[bin] = key;
    }

    /// The exclusion-penalty delta of moving `e` from `from` to `to`,
    /// computed without mutating state.
    fn exclusion_delta(&self, e: EntityId, from: Option<usize>, to: usize) -> f64 {
        let Some(GroupId(g)) = self.entities[e.0].group else {
            return 0.0;
        };
        let mut delta = 0.0;
        for goal in &self.c.exclusion_goals {
            if !goal.in_goal[g] {
                continue;
            }
            let si = scope_index(goal.scope);
            let to_dom = self.c.bin_domains[to][si];
            let from_dom = from.map(|b| self.c.bin_domains[b][si]);
            if from_dom == Some(to_dom) {
                continue; // same domain: penalty unchanged
            }
            let mut distinct_delta: i64 = 0;
            let mut placed_delta: i64 = 0;
            if let Some(fd) = from_dom {
                if !self.c.sibling_in(self.members, e, g, si, fd) {
                    distinct_delta -= 1;
                }
            } else {
                placed_delta += 1;
            }
            if !self.c.sibling_in(self.members, e, g, si, to_dom) {
                distinct_delta += 1;
            }
            delta += goal.weight * (placed_delta - distinct_delta) as f64;
        }
        delta
    }

    /// Returns true if placing `e` on `bin` would break a hard capacity
    /// constraint.
    pub(crate) fn violates_hard(&self, e: EntityId, bin: BinId) -> bool {
        let load = &self.entities[e.0].load;
        let usage = &self.c.bin_usage[bin.0];
        let cap = &self.c.bin_capacity[bin.0];
        if self.hard_metrics.iter().any(|&m| {
            let l = load.get(m);
            l > 0.0 && usage.get(m) + l > cap.get(m)
        }) {
            return true;
        }
        if self.forbid_group_colocation {
            if let Some(g) = self.entities[e.0].group {
                let target = bin.0 as u32;
                let mut siblings = self.members.of_group(g.0).iter();
                return siblings.any(|&m| m != e && self.c.assignment[m.0] == target);
            }
        }
        false
    }

    /// Evaluates the objective delta of moving `e` to `to`. Returns
    /// `None` if the move is a no-op or breaks a hard constraint.
    /// Negative deltas are improvements.
    pub fn eval_move(&self, e: EntityId, to: BinId) -> Option<f64> {
        self.eval_from(&self.source(e), to)
    }

    /// The source side of moving `e`, the same for every target: the
    /// change of its bin's leaf on losing it, `None` while unplaced.
    pub(crate) fn source(&self, e: EntityId) -> Source {
        let from = self.c.bin_of(e);
        let change = from.map(|f| {
            let aff_from = self.c.affinity_penalty(e, f);
            let usage = self.c.bin_usage[f] - self.entities[e.0].load;
            let count = self.c.bin_entities[f].len() - 1;
            let affinity = self.c.bin_affinity[f] - aff_from;
            let from_after = self.hypothetical_bin_penalty(f, &usage, count, affinity);
            from_after - self.c.tree.get(f)
        });
        Source { e, from, change }
    }

    /// [`Self::eval_move`] of the entity whose source side is `source`:
    /// the destination leaf's change, the source's, then the spread
    /// delta, summed in that order.
    pub(crate) fn eval_from(&self, source: &Source, to: BinId) -> Option<f64> {
        let e = source.e;
        if source.from == Some(to.0) || self.violates_hard(e, to) {
            return None;
        }
        let aff_to = self.c.affinity_penalty(e, to.0);
        // Destination leaf after gaining the entity.
        let to_after = {
            let usage = self.c.bin_usage[to.0] + self.entities[e.0].load;
            let count = self.c.bin_entities[to.0].len() + 1;
            self.hypothetical_bin_penalty(to.0, &usage, count, self.c.bin_affinity[to.0] + aff_to)
        };
        let mut delta = to_after - self.c.tree.get(to.0);
        if let Some(change) = source.change {
            delta += change;
        }
        delta += self.exclusion_delta(e, source.from, to.0);
        Some(delta)
    }

    fn hypothetical_bin_penalty(
        &self,
        bin: usize,
        usage: &LoadVector,
        count: usize,
        affinity: Fixed,
    ) -> f64 {
        let cap = &self.c.bin_capacity[bin];
        let mut pen = 0.0;
        for g in &self.balance_goals {
            let limit = cap.get(g.metric) * g.limit_util;
            let over = usage.get(g.metric) - limit;
            if over > 0.0 {
                pen += g.weight * over;
            }
        }
        for g in &self.cap_goals {
            let limit = cap.get(g.metric) * g.threshold;
            let over = usage.get(g.metric) - limit;
            if over > 0.0 {
                pen += g.weight * over;
            }
        }
        if self.c.bin_draining[bin] {
            pen += self.drain_weight * count as f64;
        }
        pen + f64::from(affinity)
    }

    /// Applies a move previously vetted by [`Self::eval_move`].
    pub fn apply_move(&mut self, e: EntityId, to: BinId) {
        let from = self.c.bin_of(e);
        debug_assert_ne!(from, Some(to.0), "no-op move");
        self.c.moved.push(e);
        from.into_iter().chain([to.0]).for_each(|b| self.c.save(b));
        let c = &mut self.c;
        c.shift(self.members, e, [self.entities[e.0]; 2], Some(to.0), false);
        if let Some(f) = from {
            self.refresh_leaf(f);
            self.refresh_group_key(f);
        }
        self.refresh_leaf(to.0);
        self.refresh_group_key(to.0);
    }

    /// Total objective: bin penalties plus exclusion penalties.
    pub fn total_penalty(&self) -> f64 {
        self.c.tree.total() + self.c.exclusion_total
    }

    /// Current bin of an entity.
    pub(crate) fn bin_of(&self, e: EntityId) -> Option<BinId> {
        self.c.bin_of(e).map(BinId)
    }

    /// Entities without a placement.
    pub(crate) fn unplaced(&self) -> usize {
        self.c.unplaced_count
    }

    /// Current usage of a bin.
    pub fn usage_of(&self, bin: BinId) -> &LoadVector {
        &self.c.bin_usage[bin.0]
    }

    /// The hottest `k` bins by attributed penalty, into `out`.
    pub(crate) fn hot_bins(&self, k: usize, out: &mut Vec<usize>) {
        self.c.tree.top_k_into(k, out);
    }

    /// Entities currently on `bin`, unordered (within-bin order is a
    /// deterministic function of the move history). O(1): the list is
    /// maintained incrementally under moves.
    pub fn entities_on(&self, bin: BinId) -> &[EntityId] {
        &self.c.bin_entities[bin.0]
    }

    /// The members of each group with colocated replicas, once per
    /// exclusion goal it violates.
    pub(crate) fn violated_groups(&self) -> impl Iterator<Item = &[EntityId]> {
        (self.c.violated_groups.iter()).map(|(_, g)| self.members.of_group(g.0))
    }

    /// Load of one entity.
    pub(crate) fn load_of(&self, e: EntityId) -> &LoadVector {
        &self.entities[e.0].load
    }

    /// The affinity penalty entity `e` incurs at its current placement —
    /// how much moving it *could* recover. Used by the search to rank
    /// candidates ("prioritizing shards whose constraint or goal
    /// violations impair the optimization objective the most", §5.3).
    pub(crate) fn entity_misplacement(&self, e: EntityId) -> f64 {
        let Some(b) = self.c.bin_of(e) else {
            return 0.0;
        };
        let mut pen = f64::from(self.c.affinity_penalty(e, b));
        if self.c.bin_draining[b] {
            pen += self.drain_weight;
        }
        pen
    }

    /// The keys the search ranks `e` by among the entities on its bin:
    /// its misplacement, then its summed load, each a [`rank_key`]
    /// negated, so ascending keys are descending values.
    pub(crate) fn rank_of(&self, e: EntityId) -> (u64, u64) {
        (
            !rank_key(self.entity_misplacement(e)),
            self.c.rank_load[e.0],
        )
    }

    /// Grouping key for grouped target sampling (§5.3 optimization 4):
    /// the bin's region plus a coarse utilization band, so sampling
    /// across keys covers every region and both hot and cold servers.
    /// O(1): cached and refreshed only when a move shifts the band.
    pub fn target_group_key(&self, bin: BinId) -> (u64, u8) {
        self.c.bin_group_key[bin.0]
    }

    /// All bins grouped by [`Self::target_group_key`], maintained
    /// incrementally so the search never rebuilds the grouping per
    /// round. Within-group order is a deterministic function of the
    /// move history.
    pub(crate) fn target_groups(&self) -> &BTreeMap<(u64, u8), Vec<usize>> {
        &self.c.target_groups
    }

    /// Snapshot of the current assignment.
    pub fn assignment(&self) -> Vec<Option<BinId>> {
        (0..self.c.assignment.len())
            .map(|e| self.bin_of(EntityId(e)))
            .collect()
    }

    /// Discrete violation counts for reporting. O(bins x goals).
    pub fn violations(&self) -> ViolationStats {
        const EPS: f64 = 1e-9;
        let c = &self.c;
        let mut stats = ViolationStats {
            unplaced: c.unplaced_count,
            ..Default::default()
        };
        for b in 0..c.bin_usage.len() {
            let usage = &c.bin_usage[b];
            let cap = &c.bin_capacity[b];
            let over = |&&m: &&MetricId| usage.get(m) > cap.get(m);
            stats.capacity += self.hard_metrics.iter().filter(over).count();
            for g in &self.balance_goals {
                if usage.get(g.metric) > cap.get(g.metric) * g.limit_util + EPS {
                    stats.balance += 1;
                }
            }
            for g in &self.cap_goals {
                if usage.get(g.metric) > cap.get(g.metric) * g.threshold + EPS {
                    stats.utilization += 1;
                }
            }
            if c.bin_draining[b] && !c.bin_entities[b].is_empty() {
                stats.drain += 1;
            }
        }
        for (e, prefs) in c.entity_prefs.iter().enumerate() {
            let Some(b) = c.bin_of(EntityId(e)) else {
                continue;
            };
            if prefs
                .iter()
                .any(|&(si, dom, _)| c.bin_domains[b][si] != dom)
            {
                stats.affinity += 1;
            }
        }
        stats.exclusion = c.violated_groups.len();
        stats
    }

    /// Recomputes the objective from scratch — test oracle for the
    /// incremental bookkeeping.
    pub fn recompute_total(&self) -> f64 {
        let mut total = 0.0;
        for b in 0..self.c.bin_usage.len() {
            total += self.bin_local_penalty(b);
        }
        for goal in &self.c.exclusion_goals {
            for g in 0..goal.placed.len() {
                total += goal.group_penalty(g);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bin, Entity};
    use crate::specs::{
        AffinitySpec, BalanceSpec, CapacitySpec, DrainSpec, ExclusionSpec, UtilizationCapSpec,
    };
    use sm_types::{Location, MachineId, Metric, RegionId};

    impl Evaluator<'_> {
        /// Cross-checks every incremental index against the assignment
        /// vector — the reference for the O(1) hot-path bookkeeping.
        fn assert_index_consistent(&self) {
            for (b, list) in self.c.bin_entities.iter().enumerate() {
                for &e in list {
                    assert_eq!(
                        self.c.assignment[e.0], b as u32,
                        "bin {b}: stale entity {e:?} in index"
                    );
                    assert_eq!(
                        list[self.c.entity_pos[e.0] as usize], e,
                        "entity {e:?}: position index out of sync"
                    );
                }
            }
            let placed = self.c.assignment.iter().filter(|&&a| a != UNPLACED).count();
            let indexed: usize = self.c.bin_entities.iter().map(Vec::len).sum();
            assert_eq!(placed, indexed, "placed entities vs indexed entities");
            for (b, &key) in self.c.bin_group_key.iter().enumerate() {
                assert_eq!(key, self.compute_group_key(b), "bin {b}: stale group key");
                let group = self
                    .c
                    .target_groups
                    .get(&key)
                    .unwrap_or_else(|| panic!("bin {b}: group {key:?} missing"));
                assert_eq!(
                    group[self.c.bin_group_pos[b] as usize], b,
                    "bin {b}: group position out of sync"
                );
            }
            let grouped: usize = self.c.target_groups.values().map(Vec::len).sum();
            assert_eq!(grouped, self.c.bin_group_key.len(), "bins vs grouped bins");
            // The spread bookkeeping, recounted from `assignment` alone.
            let mut total = 0.0;
            let mut violated = BTreeSet::new();
            for (gi, goal) in self.c.exclusion_goals.iter().enumerate() {
                let si = scope_index(goal.scope);
                for g in 0..goal.in_goal.len() {
                    let members = self.members.of_group(g).iter();
                    let bins = members.map(|m| self.c.assignment[m.0]);
                    let domains: Vec<u64> = bins
                        .filter(|&b| b != UNPLACED && goal.in_goal[g])
                        .map(|b| self.c.bin_domains[b as usize][si])
                        .collect();
                    let distinct = domains.iter().collect::<BTreeSet<_>>().len();
                    assert_eq!(
                        (goal.placed[g] as usize, goal.distinct[g] as usize),
                        (domains.len(), distinct),
                        "goal {gi}, group {g}: placed and distinct domains"
                    );
                    total += goal.weight * (domains.len() - distinct) as f64;
                    if domains.len() > distinct {
                        violated.insert((gi, GroupId(g)));
                    }
                }
            }
            assert_eq!(self.c.violated_groups, violated, "violated groups");
            let drift = (self.c.exclusion_total - total).abs();
            assert!(drift <= 1e-9 * total.max(1.0), "exclusion total vs recount");
        }
    }

    fn loc(region: u16, machine: u32) -> Location {
        Location {
            region: RegionId(region),
            datacenter: u32::from(region) * 10 + machine / 4,
            rack: u32::from(region) * 100 + machine / 2,
            machine: MachineId(machine),
        }
    }

    /// Two regions x two bins, capacity 10 CPU each.
    fn two_region_problem() -> Problem {
        let mut p = Problem::new();
        for (r, m) in [(0u16, 0u32), (0, 1), (1, 2), (1, 3)] {
            p.add_bin(Bin {
                capacity: LoadVector::single(Metric::Cpu.id(), 10.0),
                location: loc(r, m),
                draining: false,
            });
        }
        p
    }

    fn cpu(v: f64) -> LoadVector {
        LoadVector::single(Metric::Cpu.id(), v)
    }

    #[test]
    fn hard_constraint_rejects_overflow() {
        let mut p = two_region_problem();
        let e0 = p.add_entity(
            Entity {
                load: cpu(8.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(5.0),
                group: None,
            },
            Some(BinId(1)),
        );
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        let eval = Evaluator::new(&p, &specs, u8::MAX);
        // Moving e1 (5.0) onto bin 0 (8.0/10) would exceed capacity.
        assert!(eval.violates_hard(e1, BinId(0)));
        assert!(eval.eval_move(e1, BinId(0)).is_none());
        // Moving e0 onto bin 1 (5+8 > 10) rejected too.
        assert!(eval.eval_move(e0, BinId(1)).is_none());
        // Empty bins are fine.
        assert!(eval.eval_move(e0, BinId(2)).is_some());
    }

    #[test]
    fn balance_penalty_improves_when_spreading() {
        let mut p = two_region_problem();
        // All load on bin 0: 8.0 of 40 total capacity -> avg util 0.2.
        let entities: Vec<EntityId> = (0..4)
            .map(|_| {
                p.add_entity(
                    Entity {
                        load: cpu(2.0),
                        group: None,
                    },
                    Some(BinId(0)),
                )
            })
            .collect();
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        // Bin 0 usage 8.0, limit = 10 * (0.2 + 0.1) = 3.0 -> penalty 5.0.
        assert!((eval.total_penalty() - 5.0).abs() < 1e-9);
        assert_eq!(eval.violations().balance, 1);

        let delta = eval.eval_move(entities[0], BinId(1)).unwrap();
        assert!(
            (delta - (-2.0)).abs() < 1e-9,
            "moving 2.0 off reduces excess"
        );
        eval.apply_move(entities[0], BinId(1));
        assert!((eval.total_penalty() - 3.0).abs() < 1e-9);

        // Spread fully: 2 per bin on two bins -> still above 3.0? 4.0 > 3 -> 1 each.
        eval.apply_move(entities[1], BinId(2));
        eval.apply_move(entities[2], BinId(3));
        // bins: 2,2,2,2 -> usage 2.0 < 3.0 limit -> zero penalty.
        assert!(eval.total_penalty().abs() < 1e-9);
        assert_eq!(eval.violations().total(), 0);
    }

    #[test]
    fn utilization_cap_penalty() {
        let mut p = two_region_problem();
        let e = p.add_entity(
            Entity {
                load: cpu(9.5),
                group: None,
            },
            Some(BinId(0)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.9,
            weight: 2.0,
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        // 9.5 over the 9.0 threshold -> 0.5 x 2.0 = 1.0.
        assert!((eval.total_penalty() - 1.0).abs() < 1e-9);
        assert_eq!(eval.violations().utilization, 1);
        eval.apply_move(e, BinId(1));
        // Still over on the other bin; unchanged total.
        assert!((eval.total_penalty() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_penalty_tracks_region() {
        let mut p = two_region_problem();
        let e = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities: vec![(e, 1, 3.0)], // prefers region 1
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        assert!((eval.total_penalty() - 3.0).abs() < 1e-9);
        assert_eq!(eval.violations().affinity, 1);

        let delta = eval.eval_move(e, BinId(2)).unwrap();
        assert!((delta - (-3.0)).abs() < 1e-9);
        eval.apply_move(e, BinId(2));
        assert!(eval.total_penalty().abs() < 1e-9);
        assert_eq!(eval.violations().affinity, 0);

        // Moving within the preferred region keeps zero penalty.
        let delta = eval.eval_move(e, BinId(3)).unwrap();
        assert!(delta.abs() < 1e-9);
    }

    #[test]
    fn exclusion_penalty_spreads_replicas() {
        let mut p = two_region_problem();
        let g = p.new_group();
        let e0 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(1)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: vec![g],
            weight: 4.0,
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        // Both replicas in region 0 -> one colocated pair -> 4.0.
        assert!((eval.total_penalty() - 4.0).abs() < 1e-9);
        assert_eq!(eval.violations().exclusion, 1);
        assert_eq!(eval.violated_groups().count(), 1);

        let delta = eval.eval_move(e1, BinId(2)).unwrap();
        assert!((delta - (-4.0)).abs() < 1e-9);
        eval.apply_move(e1, BinId(2));
        assert!(eval.total_penalty().abs() < 1e-9);
        assert!(eval.violated_groups().next().is_none());

        // Moving it back recreates the violation.
        eval.apply_move(e1, BinId(1));
        assert!((eval.total_penalty() - 4.0).abs() < 1e-9);
        let _ = e0;
    }

    #[test]
    fn exclusion_delta_within_same_domain_is_zero() {
        let mut p = two_region_problem();
        let g = p.new_group();
        let _e0 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(2)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: vec![g],
            weight: 4.0,
            priority: 0,
        }));
        let eval = Evaluator::new(&p, &specs, u8::MAX);
        // Moving e1 from bin 2 to bin 3 stays in region 1.
        let delta = eval.eval_move(e1, BinId(3)).unwrap();
        assert!(delta.abs() < 1e-9);
    }

    #[test]
    fn drain_penalty_counts_entities() {
        let mut p = Problem::new();
        for (r, m) in [(0u16, 0u32), (0, 1), (1, 2), (1, 3)] {
            p.add_bin(Bin {
                capacity: cpu(10.0),
                location: loc(r, m),
                draining: m == 0,
            });
        }
        let e0 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let _e1 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            Some(BinId(0)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::Drain(DrainSpec {
            weight: 1.5,
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        assert!((eval.total_penalty() - 3.0).abs() < 1e-9);
        assert_eq!(eval.violations().drain, 1);
        eval.apply_move(e0, BinId(1));
        assert!((eval.total_penalty() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn eval_move_matches_apply_delta() {
        // Cross-check: predicted delta == actual total change, across a
        // mixed goal set.
        let mut p = two_region_problem();
        let g = p.new_group();
        let e0 = p.add_entity(
            Entity {
                load: cpu(6.0),
                group: Some(g),
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(3.0),
                group: Some(g),
            },
            Some(BinId(0)),
        );
        let e2 = p.add_entity(
            Entity {
                load: cpu(2.0),
                group: None,
            },
            Some(BinId(2)),
        );
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.05,
            weight: 1.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Rack,
            groups: vec![g],
            weight: 2.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities: vec![(e2, 0, 1.0)],
            priority: 0,
        }));
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);

        for (e, to) in [
            (e1, BinId(3)),
            (e2, BinId(1)),
            (e0, BinId(2)),
            (e1, BinId(0)),
        ] {
            if let Some(delta) = eval.eval_move(e, to) {
                let before = eval.total_penalty();
                eval.apply_move(e, to);
                let after = eval.total_penalty();
                assert!(
                    (after - before - delta).abs() < 1e-9,
                    "delta mismatch for {e:?}->{to:?}: predicted {delta}, actual {}",
                    after - before
                );
                // And the incremental total matches a from-scratch recompute.
                assert!((after - eval.recompute_total()).abs() < 1e-9);
                eval.assert_index_consistent();
            }
        }
    }

    #[test]
    fn unplaced_entities_counted_and_placeable() {
        let mut p = two_region_problem();
        let e = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            None,
        );
        let specs = SpecSet::new();
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        assert_eq!(eval.violations().unplaced, 1);
        assert!(eval.bin_of(e).is_none());
        eval.apply_move(e, BinId(1));
        assert_eq!(eval.violations().unplaced, 0);
        assert_eq!(eval.bin_of(e), Some(BinId(1)));
        assert_eq!(eval.entities_on(BinId(1)), [e]);
        eval.assert_index_consistent();
    }

    #[test]
    fn group_colocation_hard_constraint() {
        let mut p = two_region_problem();
        let g = p.new_group();
        let _e0 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(0)),
        );
        let e1 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: Some(g),
            },
            Some(BinId(1)),
        );
        let e2 = p.add_entity(
            Entity {
                load: cpu(1.0),
                group: None,
            },
            Some(BinId(1)),
        );
        let mut specs = SpecSet::new();
        specs.forbid_group_colocation = true;
        let eval = Evaluator::new(&p, &specs, u8::MAX);
        // e1 cannot join its sibling on bin 0.
        assert!(eval.violates_hard(e1, BinId(0)));
        assert!(eval.eval_move(e1, BinId(0)).is_none());
        // Ungrouped entities are unaffected.
        assert!(!eval.violates_hard(e2, BinId(0)));
        // And e1 can go anywhere else.
        assert!(eval.eval_move(e1, BinId(2)).is_some());
    }

    /// The per-goal, per-group `domain -> members` maps the evaluator
    /// kept before it read a group's occupancy off its members' bins,
    /// with the delta computed from them: the model for
    /// `exclusion_delta`.
    struct DomainCounts(Vec<Vec<BTreeMap<u64, u32>>>);

    impl DomainCounts {
        fn domain(eval: &Evaluator, goal: usize, bin: usize) -> u64 {
            eval.c.bin_domains[bin][scope_index(eval.c.exclusion_goals[goal].scope)]
        }

        fn book(&mut self, eval: &Evaluator, e: EntityId, bin: usize, joining: bool) {
            let Some(GroupId(g)) = eval.entities[e.0].group else {
                return;
            };
            for (gi, goal) in eval.c.exclusion_goals.iter().enumerate() {
                if !goal.in_goal[g] {
                    continue;
                }
                let counts = &mut self.0[gi][g];
                let dom = Self::domain(eval, gi, bin);
                if joining {
                    *counts.entry(dom).or_insert(0) += 1;
                } else {
                    let count = counts.get_mut(&dom).expect("entity was counted");
                    *count -= 1;
                    if *count == 0 {
                        counts.remove(&dom);
                    }
                }
            }
        }

        fn delta(&self, eval: &Evaluator, e: EntityId, from: Option<usize>, to: usize) -> f64 {
            let Some(GroupId(g)) = eval.entities[e.0].group else {
                return 0.0;
            };
            let mut delta = 0.0;
            for (gi, goal) in eval.c.exclusion_goals.iter().enumerate() {
                if !goal.in_goal[g] {
                    continue;
                }
                let to_dom = Self::domain(eval, gi, to);
                let from_dom = from.map(|b| Self::domain(eval, gi, b));
                if from_dom == Some(to_dom) {
                    continue;
                }
                let mut distinct_delta: i64 = 0;
                let mut placed_delta: i64 = 0;
                if let Some(fd) = from_dom {
                    let c = *self.0[gi][g].get(&fd).unwrap_or(&0);
                    if c == 1 {
                        distinct_delta -= 1;
                    }
                } else {
                    placed_delta += 1;
                }
                let to_count = *self.0[gi][g].get(&to_dom).unwrap_or(&0);
                if to_count == 0 {
                    distinct_delta += 1;
                }
                delta += goal.weight * (placed_delta - distinct_delta) as f64;
            }
            delta
        }
    }

    #[test]
    fn spread_bookkeeping_survives_a_seeded_walk() {
        let mut rng = sm_sim::SimRng::seeded(17);
        // 24 bins; machine, rack, datacenter and region ids all start at
        // zero, so the same domain id means different things per scope.
        let mut p = Problem::new();
        for m in 0..24u32 {
            p.add_bin(Bin {
                capacity: cpu(1000.0),
                location: Location {
                    region: RegionId((m / 12) as u16),
                    datacenter: m / 6,
                    rack: m / 2,
                    machine: MachineId(m),
                },
                draining: false,
            });
        }
        // Groups of 1 to 5 with some members unplaced, in one or two of
        // the three spread goals, plus ungrouped entities.
        let groups: Vec<GroupId> = (0..16).map(|_| p.new_group()).collect();
        for (i, &g) in groups.iter().enumerate() {
            for _ in 0..1 + i % 5 {
                let at = rng.chance(0.7).then(|| BinId(rng.index(24)));
                let group = Some(g);
                p.add_entity(
                    Entity {
                        load: cpu(1.0),
                        group,
                    },
                    at,
                );
            }
        }
        for _ in 0..6 {
            let (load, group) = (cpu(1.0), None);
            p.add_entity(Entity { load, group }, Some(BinId(rng.index(24))));
        }
        let mut specs = SpecSet::new();
        for (i, (scope, weight)) in [
            (Scope::Rack, 1.0),
            (Scope::DataCenter, 2.0),
            (Scope::Region, 4.0),
        ]
        .into_iter()
        .enumerate()
        {
            let groups = groups.iter().copied();
            specs.add_goal(Spec::Exclusion(ExclusionSpec {
                scope,
                groups: groups.filter(|g| g.0 % 3 != i).collect(),
                weight,
                priority: 0,
            }));
        }
        let mut eval = Evaluator::new(&p, &specs, u8::MAX);
        eval.assert_index_consistent();
        let mut model = DomainCounts(vec![vec![BTreeMap::new(); 16]; 3]);
        for e in 0..p.entity_count() {
            if let Some(bin) = eval.bin_of(EntityId(e)) {
                model.book(&eval, EntityId(e), bin.0, true);
            }
        }

        let (mut within_domain, mut reverted, mut nonzero) = (0, 0, 0);
        for _ in 0..10_000 {
            let e = EntityId(rng.index(p.entity_count()));
            let from = eval.bin_of(e).map(|b| b.0);
            // One move in four stays inside the rack it leaves.
            let to = match from {
                Some(f) if rng.chance(0.25) => f ^ 1,
                _ => rng.index(24),
            };
            if from == Some(to) {
                continue;
            }
            let delta = eval.exclusion_delta(e, from, to);
            assert_eq!(
                delta,
                model.delta(&eval, e, from, to),
                "{e:?} {from:?} -> {to}"
            );
            nonzero += usize::from(delta != 0.0);
            within_domain += usize::from(from.is_some_and(|f| f / 2 == to / 2));
            let before = eval.total_penalty();
            let mut apply = |eval: &mut Evaluator, from: Option<usize>, to: usize| {
                if let Some(f) = from {
                    model.book(eval, e, f, false);
                }
                eval.apply_move(e, BinId(to));
                model.book(eval, e, to, true);
                eval.assert_index_consistent();
            };
            apply(&mut eval, from, to);
            assert!((eval.total_penalty() - before - delta).abs() < 1e-9);
            // The speculative half of a swap: there and straight back.
            if let (Some(f), true) = (from, rng.chance(0.3)) {
                apply(&mut eval, Some(to), f);
                assert!((eval.total_penalty() - before).abs() < 1e-9);
                reverted += 1;
            }
        }
        assert!(within_domain > 1000 && reverted > 1000 && nonzero > 1000);
        assert_eq!(
            eval.violations().unplaced,
            0,
            "the walk placed every entity"
        );
    }

    /// Asserts that `carried` drives a search exactly as `fresh` would:
    /// same objective bits, usages, counts, candidate lists, target
    /// groups, hot bins and move deltas on every `(entity, bin)` pair.
    fn assert_same_search_state(carried: &Evaluator, fresh: &Evaluator) {
        assert_eq!(
            carried.total_penalty().to_bits(),
            fresh.total_penalty().to_bits()
        );
        assert_eq!(carried.violations(), fresh.violations());
        for b in 0..fresh.c.bin_usage.len() {
            assert_eq!(carried.entities_on(BinId(b)), fresh.entities_on(BinId(b)));
            assert_eq!(carried.usage_of(BinId(b)), fresh.usage_of(BinId(b)));
        }
        assert_eq!(carried.target_groups(), fresh.target_groups());
        let (mut hot, mut fresh_hot) = (Vec::new(), Vec::new());
        carried.hot_bins(8, &mut hot);
        fresh.hot_bins(8, &mut fresh_hot);
        assert_eq!(hot, fresh_hot);
        for e in (0..fresh.c.assignment.len()).map(EntityId) {
            for b in (0..fresh.c.bin_usage.len()).map(BinId) {
                let delta = |eval: &Evaluator| eval.eval_move(e, b).map(f64::to_bits);
                assert_eq!(delta(carried), delta(fresh), "{e:?} -> {b:?}");
            }
        }
    }

    /// Two regions of six bins, bin 3 draining, and 40 entities in
    /// groups of up to three, some unplaced, some preferring a region;
    /// under a capacity constraint and goals at priorities 0 to 2, the
    /// region spread, the affinity and the drain goal at `placement`.
    /// Later batches come first in spec order.
    fn seeded_fleet(rng: &mut sm_sim::SimRng, placement: u8) -> (Problem, SpecSet) {
        let mut p = Problem::new();
        for m in 0..12u32 {
            p.add_bin(Bin {
                capacity: cpu(40.0),
                location: loc((m / 6) as u16, m),
                draining: m == 3,
            });
        }
        // Loads that are not dyadic, so they round where they enter.
        let groups: Vec<GroupId> = (0..12).map(|_| p.new_group()).collect();
        let mut prefs = Vec::new();
        for i in 0..40 {
            let group = (i % 4 != 0).then(|| groups[rng.index(groups.len())]);
            let at = rng.chance(0.9).then(|| BinId(rng.index(4)));
            let load = cpu(0.1 + 0.3 * rng.index(7) as f64);
            let e = p.add_entity(Entity { load, group }, at);
            if rng.chance(0.4) {
                prefs.push((e, rng.index(2) as u64, 0.7));
            }
        }
        let mut specs = SpecSet::new();
        specs.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        });
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.3,
            weight: 0.3,
            priority: 2,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Region,
            groups: groups.clone(),
            weight: 4.0,
            priority: placement,
        }));
        specs.add_goal(Spec::Affinity(AffinitySpec {
            scope: Scope::Region,
            affinities: prefs,
            priority: placement,
        }));
        specs.add_goal(Spec::Drain(DrainSpec {
            weight: 1.5,
            priority: placement,
        }));
        specs.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        specs.add_goal(Spec::Exclusion(ExclusionSpec {
            scope: Scope::Rack,
            groups,
            weight: 1.0,
            priority: 0,
        }));
        (p, specs)
    }

    #[test]
    fn a_carried_evaluator_equals_a_fresh_build_at_each_batch() {
        for seed in 0..16 {
            let mut rng = sm_sim::SimRng::seeded(seed);
            // The exclusion and the affinity goal of batch 1 are new
            // when it starts.
            let (p, specs) = seeded_fleet(&mut rng, 1);
            let mut eval = Evaluator::new(&p, &specs, 0);
            for priority in [1, 2] {
                // A walk of vetted moves, with the spread and affinity
                // bookkeeping of the goals still to come left idle.
                let mut applied = 0;
                for _ in 0..300 {
                    let (e, to) = (EntityId(rng.index(40)), BinId(rng.index(12)));
                    if eval.eval_move(e, to).is_some() {
                        eval.apply_move(e, to);
                        applied += 1;
                    }
                }
                assert!(applied > 100, "seed {seed}: {applied} moves applied");
                eval.enter_batch(&specs, priority);
                eval.assert_index_consistent();
                let fresh = Evaluator::with_assignment(&p, &specs, priority, &eval.assignment());
                assert_same_search_state(&eval, &fresh);
            }
        }
    }

    /// A kept solve's columns, patched, are a fresh build's. Each seeded
    /// fleet, its placement goals in the first batch or in the second,
    /// is solved on one thread, its search's moves undone, then patched:
    /// loads changed, entities moved, emptied, put back or put on the
    /// draining bin. Entered at the first batch and at each later one,
    /// the kept columns equal a fresh build over the patched problem;
    /// four rounds a fleet, each kept solve equal to a solve of a copy
    /// that kept nothing.
    #[test]
    fn a_kept_evaluator_equals_a_fresh_build_after_patches() {
        use crate::search::{LocalSearch, SearchConfig};
        let (mut moved, mut patched) = (0, 0);
        for seed in 0..12u64 {
            let mut rng = sm_sim::SimRng::seeded(0x6e7 + seed);
            let (mut p, specs) = seeded_fleet(&mut rng, (seed % 2) as u8);
            // Narrow rounds stall often, so swaps are tried and kept.
            let search = LocalSearch::new(SearchConfig {
                seed,
                hot_bins_per_round: 1 + rng.index(4),
                entities_per_bin: 1 + rng.index(4),
                targets_per_entity: 2 + rng.index(8),
                ..SearchConfig::default()
            });
            for round in 0..4 {
                let context = format!("seed {seed} round {round}");
                // `solve` builds its evaluator afresh.
                let (want, model) = search.solve(&p, &specs);
                let initial = p.initial_assignment();
                let want: Vec<_> = (want.into_iter().enumerate())
                    .filter(|&(e, to)| to != initial[e])
                    .map(|(e, to)| (EntityId(e), to))
                    .collect();
                let (got, stats) = search.solve_moves(&mut p, &specs);
                assert_eq!(got, want, "{context}: moves");
                assert_eq!(
                    (stats.evaluated, stats.final_penalty.to_bits()),
                    (model.evaluated, model.final_penalty.to_bits()),
                    "{context}: evaluations, penalty"
                );
                moved += got.len();
                for _ in 0..1 + rng.index(6) {
                    let e = EntityId(rng.index(p.entity_count()));
                    let mut load = p.entity(e).load;
                    if rng.chance(0.5) {
                        load = cpu(0.1 + 0.3 * rng.index(7) as f64);
                    }
                    let to = match rng.index(5) {
                        0 => None,
                        1 => Some(BinId(3)),
                        2 => p.initial_assignment()[e.0],
                        _ => Some(BinId(rng.index(12))),
                    };
                    p.set_entity(e, load, to);
                    patched += 1;
                }
                let columns = p.derived.columns.clone().map(|(_, columns)| columns);
                let columns = columns.expect("a solve on one thread keeps its columns");
                let batches = specs.priorities();
                let mut kept = Evaluator::with_columns(&p, &specs, batches[0], columns);
                for (i, &priority) in batches.iter().enumerate() {
                    if i > 0 {
                        kept.enter_batch(&specs, priority);
                    }
                    kept.assert_index_consistent();
                    let at = p.initial_assignment();
                    let fresh = Evaluator::with_assignment(&p, &specs, priority, at);
                    assert_same_search_state(&kept, &fresh);
                }
            }
        }
        println!("{moved} moved, {patched} patched");
        assert!(
            moved > 600 && patched > 100,
            "{moved} moved, {patched} patched"
        );
    }

    /// `eval_move` as one pass per `(entity, target)`, the source side
    /// computed for each target: the model for the source side computed
    /// once per candidate.
    fn eval_move_model(eval: &Evaluator, e: EntityId, to: BinId) -> Option<f64> {
        let from = eval.c.assignment[e.0];
        if from == to.0 as u32 || eval.violates_hard(e, to) {
            return None;
        }
        let load = eval.entities[e.0].load;
        let aff_to = eval.c.affinity_penalty(e, to.0);
        let to_after = {
            let usage = eval.c.bin_usage[to.0] + load;
            let count = eval.c.bin_entities[to.0].len() + 1;
            let affinity = eval.c.bin_affinity[to.0] + aff_to;
            eval.hypothetical_bin_penalty(to.0, &usage, count, affinity)
        };
        let mut delta = to_after - eval.c.tree.get(to.0);
        let from_bin = (from != UNPLACED).then(|| {
            let f = from as usize;
            let aff_from = eval.c.affinity_penalty(e, f);
            let usage = eval.c.bin_usage[f] - load;
            let count = eval.c.bin_entities[f].len() - 1;
            let affinity = eval.c.bin_affinity[f] - aff_from;
            let from_after = eval.hypothetical_bin_penalty(f, &usage, count, affinity);
            delta += from_after - eval.c.tree.get(f);
            f
        });
        delta += eval.exclusion_delta(e, from_bin, to.0);
        Some(delta)
    }

    /// The source side once per candidate, then the per-target pass, is
    /// `eval_move`'s model bit for bit on every `(entity, bin)` pair of
    /// seeded fleets (unplaced entities, a draining bin, affinity and
    /// spread goals), at each batch along a walk of vetted moves.
    #[test]
    fn the_source_side_once_per_candidate_is_eval_move_bitwise() {
        let (mut unplaced, mut draining, mut preferring) = (0, 0, 0);
        for seed in 0..12 {
            let mut rng = sm_sim::SimRng::seeded(0x50c + seed);
            let (p, specs) = seeded_fleet(&mut rng, (seed % 3) as u8);
            let mut eval = Evaluator::new(&p, &specs, 0);
            for priority in specs.priorities() {
                eval.enter_batch(&specs, priority);
                for _ in 0..12 {
                    for e in (0..p.entity_count()).map(EntityId) {
                        let source = eval.source(e);
                        unplaced += usize::from(eval.bin_of(e).is_none());
                        draining += usize::from(eval.bin_of(e) == Some(BinId(3)));
                        preferring += usize::from(eval.entity_misplacement(e) != 0.0);
                        for b in (0..p.bin_count()).map(BinId) {
                            let bits = |delta: Option<f64>| delta.map(f64::to_bits);
                            let want = bits(eval_move_model(&eval, e, b));
                            assert_eq!(bits(eval.eval_from(&source, b)), want, "{e:?} -> {b:?}");
                            assert_eq!(bits(eval.eval_move(e, b)), want, "{e:?} -> {b:?}");
                        }
                    }
                    for _ in 0..8 {
                        let (e, to) = (EntityId(rng.index(40)), BinId(rng.index(12)));
                        if eval.eval_move(e, to).is_some() {
                            eval.apply_move(e, to);
                        }
                    }
                }
            }
        }
        assert!(
            unplaced > 100 && draining > 100 && preferring > 1_000,
            "{unplaced} unplaced, {draining} draining, {preferring} preferring"
        );
    }

    /// At rest between solves each bin's list is ascending, holds the
    /// entities the assignment puts on the bin, and agrees with
    /// `entity_pos` unless a patch since the last batch entry left the
    /// positions past its edit stale (`touched`).
    fn assert_lists_at_rest(c: &Columns) {
        let mut placed = 0;
        for (b, list) in c.bin_entities.iter().enumerate() {
            assert!(list.is_sorted(), "bin {b}: {list:?}");
            for (pos, e) in list.iter().enumerate() {
                assert_eq!(c.assignment[e.0], b as u32, "bin {b}: {e:?} not on it");
                if !c.touched[b] {
                    assert_eq!(c.entity_pos[e.0], pos as u32, "bin {b}: {e:?} position");
                }
            }
            placed += list.len();
        }
        let on_bins = c.assignment.iter().filter(|&&b| b != UNPLACED).count();
        assert_eq!(placed, on_bins, "entities on bins vs in lists");
        assert!(c.saved.is_empty() && c.saved_at.iter().all(Option::is_none));
    }

    /// After any mix of kept solves and patches, the kept lists are at
    /// rest: ascending, right after a solve with every position agreeing.
    /// Solves of one to three batches, narrow and wide, and patches that
    /// move, empty, put back and reload entities.
    #[test]
    fn kept_solves_and_patches_leave_every_list_ascending() {
        use crate::search::{LocalSearch, SearchConfig};
        let (mut solves, mut patches) = (0, 0);
        for seed in 0..10u64 {
            let mut rng = sm_sim::SimRng::seeded(0xa5c + seed);
            let (mut p, specs) = seeded_fleet(&mut rng, (seed % 3) as u8);
            for round in 0..6 {
                let search = LocalSearch::new(SearchConfig {
                    seed: seed * 8 + round,
                    hot_bins_per_round: 1 + rng.index(8),
                    entities_per_bin: 1 + rng.index(8),
                    targets_per_entity: 2 + rng.index(12),
                    ..SearchConfig::default()
                });
                search.solve_moves(&mut p, &specs);
                solves += 1;
                let columns = p.derived.columns.as_ref().map(|(_, c)| c);
                let columns = columns.expect("a solve on one thread keeps its columns");
                assert!(
                    !columns.touched.contains(&true),
                    "seed {seed}: a list left unordered"
                );
                assert_lists_at_rest(columns);
                for _ in 0..rng.index(12) {
                    let e = EntityId(rng.index(p.entity_count()));
                    let load = cpu(0.1 + 0.3 * rng.index(7) as f64);
                    let to = match rng.index(4) {
                        0 => None,
                        1 => p.initial_assignment()[e.0],
                        _ => Some(BinId(rng.index(12))),
                    };
                    p.set_entity(e, load, to);
                    patches += 1;
                    let columns = p.derived.columns.as_ref().map(|(_, c)| c);
                    assert_lists_at_rest(columns.expect("kept columns"));
                }
            }
        }
        assert!(
            solves == 60 && patches > 250,
            "{solves} solves, {patches} patches"
        );
    }

    /// Columns kept under one spec set are not reused under another with
    /// the same goal kinds and priorities: the second kept solve, under
    /// other preferences and spread groups, is a fresh solve's.
    #[test]
    fn a_kept_solve_under_other_specs_is_a_fresh_solve() {
        use crate::search::{LocalSearch, SearchConfig};
        for seed in 0..6u64 {
            let mut rng = sm_sim::SimRng::seeded(0x5bec + seed);
            let (mut p, specs) = seeded_fleet(&mut rng, 0);
            let (_, other) = seeded_fleet(&mut rng, 0);
            let search = LocalSearch::new(SearchConfig {
                seed,
                ..SearchConfig::default()
            });
            search.solve_moves(&mut p, &specs);
            let (want, model) = search.solve(&p, &other);
            let initial = p.initial_assignment();
            let want: Vec<_> = (want.into_iter().enumerate())
                .filter(|&(e, to)| to != initial[e])
                .map(|(e, to)| (EntityId(e), to))
                .collect();
            let (got, stats) = search.solve_moves(&mut p, &other);
            assert_eq!(got, want, "seed {seed}: moves");
            assert_eq!(
                (stats.evaluated, stats.final_penalty.to_bits()),
                (model.evaluated, model.final_penalty.to_bits()),
                "seed {seed}: evaluations, penalty"
            );
        }
    }

    #[test]
    fn priority_filter_excludes_later_batches() {
        let mut p = two_region_problem();
        let _e = p.add_entity(
            Entity {
                load: cpu(9.9),
                group: None,
            },
            Some(BinId(0)),
        );
        let mut specs = SpecSet::new();
        specs.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.5,
            weight: 1.0,
            priority: 3,
        }));
        let eval_p0 = Evaluator::new(&p, &specs, 0);
        assert_eq!(eval_p0.total_penalty(), 0.0, "goal in later batch inactive");
        let eval_p3 = Evaluator::new(&p, &specs, 3);
        assert!(eval_p3.total_penalty() > 0.0);
    }
}
