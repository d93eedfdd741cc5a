//! The spec API: hard constraints and prioritized soft goals.
//!
//! This mirrors the ReBalancer interface sketched in Figure 13 of the
//! paper (`addConstraint(CapacitySpec{...})`, `addGoal(BalanceSpec{...},
//! weight)`, affinity and exclusion specs). Systems code expresses
//! *what* a good placement looks like; the search engine decides *how*
//! to find one.

use crate::problem::{EntityId, GroupId};
use sm_types::MetricId;

/// The aggregation scope of a constraint or goal.
///
/// `Host` means per-bin; the coarser scopes aggregate over the bins
/// sharing the corresponding fault domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Per server.
    Host,
    /// Per rack.
    Rack,
    /// Per data center.
    DataCenter,
    /// Per region.
    Region,
}

/// Hard constraint: per-host usage of `metric` must not exceed capacity
/// (§5.1 hard constraint 2). Moves that would violate it are rejected
/// outright rather than penalized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacitySpec {
    /// The constrained metric.
    pub metric: MetricId,
}

/// Soft goal: keep per-host utilization of `metric` within `tolerance`
/// of the fleet-average utilization (§5.1 soft goals 5 & 6).
///
/// The penalty for a bin is the load excess above
/// `capacity x (avg_util + tolerance)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BalanceSpec {
    /// The balanced metric.
    pub metric: MetricId,
    /// Allowed deviation above average utilization, e.g. 0.1 for 10%.
    pub tolerance: f64,
    /// Penalty weight.
    pub weight: f64,
    /// Goal priority batch (0 = most critical).
    pub priority: u8,
}

/// Soft goal: keep per-host utilization of `metric` below `threshold`
/// (§5.1 soft goal 4, e.g. 90%).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilizationCapSpec {
    /// The capped metric.
    pub metric: MetricId,
    /// Utilization ceiling in `[0, 1]`.
    pub threshold: f64,
    /// Penalty weight.
    pub weight: f64,
    /// Goal priority batch.
    pub priority: u8,
}

/// Soft goal: place specific entities in specific domains (§5.1 soft
/// goal 1 — per-shard regional placement preference).
#[derive(Clone, Debug, PartialEq)]
pub struct AffinitySpec {
    /// The domain level of the preference (normally [`Scope::Region`]).
    pub scope: Scope,
    /// `(entity, preferred domain id, weight)` triples; the weight is
    /// charged while the entity is placed outside the domain.
    pub affinities: Vec<(EntityId, u64, f64)>,
    /// Goal priority batch.
    pub priority: u8,
}

/// Soft goal: spread each group's entities across distinct domains
/// (§5.1 soft goal 2 — spread of replicas).
///
/// The penalty for a group is `weight x (placed_members - distinct
/// domains)`: zero when every replica sits in its own domain.
#[derive(Clone, Debug, PartialEq)]
pub struct ExclusionSpec {
    /// The domain level to spread across.
    pub scope: Scope,
    /// The groups to spread (normally every shard's replica group).
    pub groups: Vec<GroupId>,
    /// Penalty weight per colocated pair.
    pub weight: f64,
    /// Goal priority batch.
    pub priority: u8,
}

/// Soft goal: move entities off draining bins (§5.1 soft goal 3 —
/// planned maintenance preparation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrainSpec {
    /// Penalty weight per entity sitting on a draining bin.
    pub weight: f64,
    /// Goal priority batch.
    pub priority: u8,
}

/// Any soft goal.
#[derive(Clone, Debug, PartialEq)]
pub enum Spec {
    /// Balance load across hosts.
    Balance(BalanceSpec),
    /// Cap host utilization.
    UtilizationCap(UtilizationCapSpec),
    /// Regional/domain placement preferences.
    Affinity(AffinitySpec),
    /// Spread replica groups across domains.
    Exclusion(ExclusionSpec),
    /// Evacuate draining bins.
    Drain(DrainSpec),
}

impl Spec {
    /// The goal's priority batch.
    pub fn priority(&self) -> u8 {
        match self {
            Spec::Balance(s) => s.priority,
            Spec::UtilizationCap(s) => s.priority,
            Spec::Affinity(s) => s.priority,
            Spec::Exclusion(s) => s.priority,
            Spec::Drain(s) => s.priority,
        }
    }
}

/// A full problem specification: hard constraints plus soft goals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecSet {
    /// Hard capacity constraints.
    pub constraints: Vec<CapacitySpec>,
    /// Soft goals in insertion order.
    pub goals: Vec<Spec>,
    /// Hard constraint: no two members of one group may share a bin —
    /// SM's invariant that no two servers host replicas of the same
    /// shard at once.
    pub forbid_group_colocation: bool,
}

impl SpecSet {
    /// Creates an empty spec set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a hard constraint (Figure 13's `addConstraint`).
    pub fn add_constraint(&mut self, spec: CapacitySpec) -> &mut Self {
        self.constraints.push(spec);
        self
    }

    /// Adds a soft goal (Figure 13's `addGoal`).
    pub fn add_goal(&mut self, spec: Spec) -> &mut Self {
        self.goals.push(spec);
        self
    }

    /// The distinct goal priorities present, ascending (the batch
    /// schedule of §5.3).
    pub(crate) fn priorities(&self) -> Vec<u8> {
        let mut ps: Vec<u8> = self.goals.iter().map(Spec::priority).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// The goals with priority <= `max_priority` (cumulative batching).
    pub(crate) fn goals_up_to(&self, max_priority: u8) -> Vec<&Spec> {
        self.goals
            .iter()
            .filter(|g| g.priority() <= max_priority)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::Metric;

    #[test]
    fn priorities_sorted_deduped() {
        let mut set = SpecSet::new();
        set.add_goal(Spec::Drain(DrainSpec {
            weight: 1.0,
            priority: 2,
        }));
        set.add_goal(Spec::Balance(BalanceSpec {
            metric: Metric::Cpu.id(),
            tolerance: 0.1,
            weight: 1.0,
            priority: 0,
        }));
        set.add_goal(Spec::UtilizationCap(UtilizationCapSpec {
            metric: Metric::Cpu.id(),
            threshold: 0.9,
            weight: 1.0,
            priority: 0,
        }));
        assert_eq!(set.priorities(), vec![0, 2]);
        assert_eq!(set.goals_up_to(0).len(), 2);
        assert_eq!(set.goals_up_to(2).len(), 3);
    }

    #[test]
    fn builder_chains() {
        let mut set = SpecSet::new();
        set.add_constraint(CapacitySpec {
            metric: Metric::Cpu.id(),
        })
        .add_constraint(CapacitySpec {
            metric: Metric::Storage.id(),
        });
        assert_eq!(set.constraints.len(), 2);
    }
}
