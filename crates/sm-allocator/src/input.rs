//! Allocator input: the placement state of one application partition.

use sm_solver::SearchConfig;
use sm_types::{Fixed, LoadVector, Location, MetricId, RegionId, ServerId, ShardId};
use std::collections::BTreeMap;

/// One application server available as a placement target.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Server id.
    pub id: ServerId,
    /// Fault-domain coordinates.
    pub location: Location,
    /// Capacity per metric.
    pub capacity: LoadVector,
    /// True when the server should be evacuated (pending maintenance or
    /// upgrade) — soft goal 3.
    pub draining: bool,
}

/// One shard's replicas and their current placement.
#[derive(Clone, Debug)]
pub struct ShardPlacement {
    /// Shard id.
    pub shard: ShardId,
    /// Load of each replica (replicas of a shard share the shard's
    /// per-replica load).
    pub load_per_replica: LoadVector,
    /// Current placement of each replica; `None` needs (re)placement.
    pub replicas: Vec<Option<ServerId>>,
}

impl ShardPlacement {
    /// A shard whose `n` replicas are all unplaced.
    pub fn unplaced(shard: ShardId, load: LoadVector, n: usize) -> Self {
        Self {
            shard,
            load_per_replica: load,
            replicas: vec![None; n],
        }
    }
}

/// Allocator configuration distilled from an [`sm_types::AppPolicy`].
#[derive(Clone, Debug)]
pub struct AllocConfig {
    /// Metrics to balance (and cap) — from the app's LB policy.
    pub lb_metrics: Vec<MetricId>,
    /// Per-shard regional placement preferences (soft goal 1).
    pub region_preferences: BTreeMap<ShardId, (RegionId, f64)>,
    /// Solver tuning/ablation switches.
    pub search: SearchConfig,
}

impl AllocConfig {
    /// A reasonable default for `metrics`.
    pub fn new(lb_metrics: Vec<MetricId>) -> Self {
        Self {
            lb_metrics,
            region_preferences: BTreeMap::new(),
            search: SearchConfig::default(),
        }
    }
}

/// The full input of one allocation run.
#[derive(Clone, Debug)]
pub struct AllocInput {
    /// Available servers (failed servers must be excluded by the caller).
    pub servers: Vec<ServerInfo>,
    /// Shards with current replica placements.
    pub shards: Vec<ShardPlacement>,
    /// Policy knobs.
    pub config: AllocConfig,
}

/// What one allocator run reads of the placement state. [`AllocInput`]
/// is one source; a control plane that keeps the same facts in its own
/// books is another, read in place instead of copied into an
/// `AllocInput` first.
pub trait PlacementSource {
    /// Policy knobs.
    fn config(&self) -> &AllocConfig;

    /// Available servers (failed servers are not offered).
    fn servers(&self) -> impl Iterator<Item = ServerInfo>;

    /// Calls `visit` once per shard, in the order the solver is to
    /// number its entities, with the shard, the load of each of its
    /// replicas, and the current placement of each replica slot (`None`
    /// needs (re)placement).
    fn for_each_shard(&self, visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>]));

    /// The shards [`Self::for_each_shard`] will visit and the slots they
    /// have in all. Sizes the problem: a wrong count costs a regrowth,
    /// not a wrong plan.
    fn size(&self) -> (usize, usize);

    /// What an emergency run cuts out: calls `visit` as
    /// [`Self::for_each_shard`] does, in its order, but only for the
    /// shards with a slot that is not on an offered server. Returns, per
    /// offered server in [`Self::servers`] order, the summed load of the
    /// slots the other shards place on it and their summed weight under
    /// a region preference its region does not meet; and the most slots
    /// any shard has. The default walks every shard; a source that keeps
    /// these sums can answer in what the cut costs.
    fn cut(
        &self,
        visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>]),
    ) -> (Vec<(LoadVector, Fixed)>, usize) {
        crate::runner::cut_by_walk(self, visit)
    }
}

impl PlacementSource for AllocInput {
    fn config(&self) -> &AllocConfig {
        &self.config
    }

    fn servers(&self) -> impl Iterator<Item = ServerInfo> {
        self.servers.iter().copied()
    }

    fn for_each_shard(&self, mut visit: impl FnMut(ShardId, LoadVector, &[Option<ServerId>])) {
        for s in &self.shards {
            visit(s.shard, s.load_per_replica, &s.replicas);
        }
    }

    fn size(&self) -> (usize, usize) {
        let slots = self.shards.iter().map(|s| s.replicas.len()).sum();
        (self.shards.len(), slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::Metric;

    #[test]
    fn unplaced_shard_has_no_servers() {
        let sp = ShardPlacement::unplaced(ShardId(1), LoadVector::single(Metric::Cpu.id(), 1.0), 3);
        assert_eq!(sp.replicas, vec![None, None, None]);
    }
}
