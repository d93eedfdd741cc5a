//! Application policies and configuration.
//!
//! An [`AppPolicy`] captures everything an application owner configures
//! when onboarding onto Shard Manager: the replication mode (§2.2.3),
//! deployment mode (§2.2.2), drain policy for planned events (§2.2.5),
//! load-balancing policy (§2.2.4), availability caps enforced by the
//! TaskController (§4.1), and placement preferences (§5.1).

use crate::ids::{RegionId, ShardId};
use crate::load::{Metric, MetricId};
use std::collections::BTreeMap;

/// How a shard's replicas are organized (§2.2.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicationMode {
    /// One replica per shard; SM guarantees no two servers serve the same
    /// shard at once.
    PrimaryOnly,
    /// `replicas` equal-role replicas per shard.
    SecondaryOnly {
        /// Replica count per shard.
        replicas: u32,
    },
    /// One SM-elected primary plus `secondaries` secondaries per shard.
    PrimarySecondary {
        /// Secondary count per shard.
        secondaries: u32,
    },
}

impl ReplicationMode {
    /// Total replicas per shard under this mode.
    pub fn replicas_per_shard(&self) -> u32 {
        match self {
            ReplicationMode::PrimaryOnly => 1,
            ReplicationMode::SecondaryOnly { replicas } => *replicas,
            ReplicationMode::PrimarySecondary { secondaries } => secondaries + 1,
        }
    }

    /// Whether shards in this mode have a primary replica.
    pub fn has_primary(&self) -> bool {
        !matches!(self, ReplicationMode::SecondaryOnly { .. })
    }
}

/// Regional vs geo-distributed deployment (§2.2.2, Figure 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeploymentMode {
    /// A complete copy of all shards lives in one region; shards never
    /// migrate across regions.
    Regional,
    /// Shards may be placed in, and migrate across, any region.
    GeoDistributed,
}

/// What to do with a replica role when its container is about to restart
/// (§2.2.5, Figure 8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrainPolicy {
    /// Proactively migrate the replica out before the restart.
    Drain,
    /// Leave it in place and tolerate the downtime.
    NoDrain,
}

/// Load-balancing policy (§2.2.4, Figure 7).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoadBalancePolicy {
    /// Balance the number of shards per server.
    ShardCount,
    /// Balance a single resource metric (CPU, memory, storage).
    SingleResource(Metric),
    /// Balance a single application-level synthetic metric.
    SingleSynthetic,
    /// Balance several metrics at once.
    MultiMetric(Vec<Metric>),
}

impl LoadBalancePolicy {
    /// The metric slots this policy balances.
    pub fn metrics(&self) -> Vec<MetricId> {
        match self {
            LoadBalancePolicy::ShardCount => vec![Metric::ShardCount.id()],
            LoadBalancePolicy::SingleResource(m) => vec![m.id()],
            LoadBalancePolicy::SingleSynthetic => vec![Metric::Synthetic.id()],
            LoadBalancePolicy::MultiMetric(ms) => ms.iter().map(|m| m.id()).collect(),
        }
    }
}

/// The five data-persistency options of §2.4, recorded for census
/// reporting; SM's behaviour does not branch on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataPersistency {
    /// Operates directly on external databases.
    Stateless,
    /// Caches external state in memory.
    SoftState,
    /// Materialized view on local SSD, updated by standard external tools.
    StandardMaterialized,
    /// Materialized view updated by a custom built-in library.
    CustomMaterialized,
    /// Self-managed replicated persistent state (consensus).
    Persistent,
}

/// Everything an application configures when adopting SM.
#[derive(Clone, Debug)]
pub struct AppPolicy {
    /// Replication mode.
    pub replication: ReplicationMode,
    /// Regional or geo-distributed deployment.
    pub deployment: DeploymentMode,
    /// Drain policy for primary replicas on planned restarts.
    pub drain_primary: DrainPolicy,
    /// Drain policy for secondary replicas on planned restarts.
    pub drain_secondary: DrainPolicy,
    /// Load-balancing policy.
    pub load_balance: LoadBalancePolicy,
    /// Global cap on concurrent container operations (§4.1).
    pub max_concurrent_container_ops: u32,
    /// Per-shard cap on replicas that may be unavailable at once (§4.1).
    pub max_unavailable_replicas_per_shard: u32,
    /// Per-shard regional placement preferences with weights
    /// (§5.1 soft goal 1). Shards not listed have no preference.
    pub region_preferences: BTreeMap<ShardId, (RegionId, f64)>,
    /// Data-persistency option (§2.4), for census reporting.
    pub persistency: DataPersistency,
}

impl AppPolicy {
    /// A sensible default for a primary-only soft-state application, the
    /// most common kind at Facebook (§2.2.3).
    pub fn primary_only() -> Self {
        Self {
            replication: ReplicationMode::PrimaryOnly,
            deployment: DeploymentMode::GeoDistributed,
            drain_primary: DrainPolicy::Drain,
            drain_secondary: DrainPolicy::NoDrain,
            load_balance: LoadBalancePolicy::ShardCount,
            max_concurrent_container_ops: 1,
            max_unavailable_replicas_per_shard: 0,
            region_preferences: BTreeMap::new(),
            persistency: DataPersistency::SoftState,
        }
    }

    /// A ZippyDB-like policy: one primary plus `secondaries`
    /// secondaries, multi-metric LB (§2.5).
    pub fn primary_secondary(secondaries: u32) -> Self {
        Self {
            replication: ReplicationMode::PrimarySecondary { secondaries },
            deployment: DeploymentMode::GeoDistributed,
            drain_primary: DrainPolicy::Drain,
            drain_secondary: DrainPolicy::NoDrain,
            load_balance: LoadBalancePolicy::MultiMetric(vec![
                Metric::Cpu,
                Metric::Storage,
                Metric::ShardCount,
            ]),
            max_concurrent_container_ops: 2,
            max_unavailable_replicas_per_shard: 1,
            region_preferences: BTreeMap::new(),
            persistency: DataPersistency::Persistent,
        }
    }

    /// A secondary-only policy with `replicas` equal replicas per shard.
    pub fn secondary_only(replicas: u32) -> Self {
        Self {
            replication: ReplicationMode::SecondaryOnly { replicas },
            deployment: DeploymentMode::GeoDistributed,
            drain_primary: DrainPolicy::NoDrain,
            drain_secondary: DrainPolicy::NoDrain,
            load_balance: LoadBalancePolicy::ShardCount,
            max_concurrent_container_ops: 2,
            max_unavailable_replicas_per_shard: 1,
            region_preferences: BTreeMap::new(),
            persistency: DataPersistency::SoftState,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_per_shard() {
        assert_eq!(ReplicationMode::PrimaryOnly.replicas_per_shard(), 1);
        assert_eq!(
            ReplicationMode::SecondaryOnly { replicas: 3 }.replicas_per_shard(),
            3
        );
        assert_eq!(
            ReplicationMode::PrimarySecondary { secondaries: 2 }.replicas_per_shard(),
            3
        );
    }

    #[test]
    fn has_primary() {
        assert!(ReplicationMode::PrimaryOnly.has_primary());
        assert!(ReplicationMode::PrimarySecondary { secondaries: 1 }.has_primary());
        assert!(!ReplicationMode::SecondaryOnly { replicas: 2 }.has_primary());
    }

    #[test]
    fn lb_policy_metrics() {
        assert_eq!(
            LoadBalancePolicy::ShardCount.metrics(),
            vec![Metric::ShardCount.id()]
        );
        assert_eq!(
            LoadBalancePolicy::MultiMetric(vec![Metric::Cpu, Metric::Storage]).metrics(),
            vec![Metric::Cpu.id(), Metric::Storage.id()]
        );
        assert_eq!(
            LoadBalancePolicy::SingleSynthetic.metrics(),
            vec![Metric::Synthetic.id()]
        );
    }

    #[test]
    fn presets_match_paper_profiles() {
        let p = AppPolicy::primary_only();
        assert_eq!(p.replication.replicas_per_shard(), 1);
        assert_eq!(p.drain_primary, DrainPolicy::Drain);
        assert_eq!(p.max_unavailable_replicas_per_shard, 0);

        let z = AppPolicy::primary_secondary(2);
        assert_eq!(z.replication.replicas_per_shard(), 3);
        assert_eq!(z.persistency, DataPersistency::Persistent);
    }
}
