//! The adaptive shard splitter (beyond the paper).
//!
//! The paper's SM never splits or merges shards (§3.1): a viral key
//! range has no remedy except overloading its server. Following the
//! "Self-healing Nodes with Adaptive Data-Sharding" direction, the
//! [`SplitScaler`] watches per-shard load and recommends *resharding*
//! operations: split a hot shard's key range at its midpoint, or merge
//! two adjacent cold shards back into one. The
//! [`crate::Orchestrator`] executes each recommendation as the `split`
//! (1→2) or `merge` (2→1) row of its ownership-change step table, so no
//! request window is ever unowned — see `Orchestrator::start_split` /
//! `start_merge`.
//!
//! The scaler itself is a pure decision function: `(spec, loads, busy)`
//! in, recommendations out. All execution state lives in the
//! orchestrator so the decisions stay trivially deterministic and
//! testable.

use sm_types::{LoadVector, MetricId, ShardId, ShardingSpec};
use std::collections::BTreeSet;

/// Split-scaler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SplitScalerConfig {
    /// The load metric the scaler watches.
    pub metric: MetricId,
    /// Split a shard when its load exceeds this.
    pub split_above: f64,
    /// Merge two adjacent shards when their combined load stays below
    /// this. Must be below `split_above`, or a merge would immediately
    /// re-split.
    pub merge_below: f64,
    /// Never merge below this many shards.
    pub min_shards: usize,
    /// Never split above this many shards.
    pub max_shards: usize,
    /// Cap on concurrently executing split/merge operations.
    pub max_concurrent: usize,
}

impl SplitScalerConfig {
    /// A scaler splitting above `split_above` and merging neighbors
    /// whose combined load stays below `merge_below`, keeping the shard
    /// count within `[min_shards, max_shards]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < merge_below < split_above` and
    /// `0 < min_shards <= max_shards`.
    pub fn new(
        metric: MetricId,
        split_above: f64,
        merge_below: f64,
        min_shards: usize,
        max_shards: usize,
    ) -> Self {
        assert!(
            merge_below > 0.0 && merge_below < split_above,
            "need 0 < merge_below < split_above for hysteresis"
        );
        assert!(
            min_shards >= 1 && min_shards <= max_shards,
            "bad shard-count bounds"
        );
        Self {
            metric,
            split_above,
            merge_below,
            min_shards,
            max_shards,
            max_concurrent: 1,
        }
    }

    /// Allows up to `n` concurrent split/merge operations.
    pub fn with_max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }
}

/// One recommended resharding operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReshardOp {
    /// Split `shard`'s key range at its midpoint.
    Split {
        /// The hot shard to split.
        shard: ShardId,
    },
    /// Merge the adjacent ranges of `left` and `right` into one shard.
    Merge {
        /// The shard owning the lower range.
        left: ShardId,
        /// The shard owning the adjacent higher range.
        right: ShardId,
    },
}

/// The adaptive shard splitter: key-range split/merge decisions.
#[derive(Clone, Debug)]
pub struct SplitScaler {
    config: SplitScalerConfig,
}

impl SplitScaler {
    /// Creates a scaler.
    pub fn new(config: SplitScalerConfig) -> Self {
        Self { config }
    }

    /// The configuration the scaler runs with.
    pub fn config(&self) -> SplitScalerConfig {
        self.config
    }

    /// Evaluates the spec against the latest per-shard loads.
    ///
    /// `busy` names shards that must not be touched (already splitting,
    /// merging, migrating, or reclaiming). Returns at most
    /// `max_concurrent` operations: hottest splits first, then coldest
    /// adjacent merges, never recommending both for the same shard and
    /// never crossing the `[min_shards, max_shards]` bounds even if all
    /// recommendations execute.
    pub(crate) fn evaluate(
        &self,
        spec: &ShardingSpec,
        loads: impl Fn(ShardId) -> Option<LoadVector>,
        busy: &BTreeSet<ShardId>,
    ) -> Vec<ReshardOp> {
        let mut out = Vec::new();
        let count = spec.shard_count();
        let load_of = |s: ShardId| loads(s).map(|l| l.get(self.config.metric));

        // Splits: hottest first. Each split nets +1 shard.
        let mut hot: Vec<(f64, ShardId)> = spec
            .iter()
            .filter(|(range, shard)| !busy.contains(shard) && range.midpoint().is_some())
            .filter_map(|(_, shard)| {
                load_of(*shard)
                    .filter(|&l| l > self.config.split_above)
                    .map(|l| (l, *shard))
            })
            .collect();
        hot.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let split_budget = self.config.max_shards.saturating_sub(count);
        for (_, shard) in hot.into_iter().take(split_budget) {
            if out.len() >= self.config.max_concurrent {
                return out;
            }
            out.push(ReshardOp::Split { shard });
        }

        // Merges: adjacent cold pairs, coldest first, disjoint. Shards
        // being split this round are off-limits. Each merge nets -1.
        let claimed: BTreeSet<ShardId> = out
            .iter()
            .filter_map(|op| match op {
                ReshardOp::Split { shard } => Some(*shard),
                ReshardOp::Merge { .. } => None,
            })
            .collect();
        let entries: Vec<_> = spec.iter().collect();
        let mut cold: Vec<(f64, ShardId, ShardId)> = entries
            .iter()
            .zip(entries.iter().skip(1))
            .filter_map(|((lr, ls), (rr, rs))| {
                if busy.contains(ls)
                    || busy.contains(rs)
                    || claimed.contains(ls)
                    || claimed.contains(rs)
                {
                    return None;
                }
                // Only truly adjacent ranges merge.
                lr.merge(rr)?;
                let combined = load_of(*ls)? + load_of(*rs)?;
                (combined < self.config.merge_below).then_some((combined, *ls, *rs))
            })
            .collect();
        cold.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut merged: BTreeSet<ShardId> = BTreeSet::new();
        let mut merge_budget = count.saturating_sub(self.config.min_shards);
        for (_, left, right) in cold {
            if out.len() >= self.config.max_concurrent || merge_budget == 0 {
                break;
            }
            if merged.contains(&left) || merged.contains(&right) {
                continue; // pairs sharing a shard are not independent
            }
            merged.insert(left);
            merged.insert(right);
            merge_budget -= 1;
            out.push(ReshardOp::Merge { left, right });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::Metric;
    use std::collections::BTreeMap;

    fn cfg() -> SplitScalerConfig {
        SplitScalerConfig::new(Metric::Synthetic.id(), 100.0, 30.0, 2, 8).with_max_concurrent(4)
    }

    fn loads(pairs: &[(u64, f64)]) -> impl Fn(ShardId) -> Option<LoadVector> {
        let loads: BTreeMap<ShardId, LoadVector> = pairs
            .iter()
            .map(|&(s, l)| (ShardId(s), LoadVector::single(Metric::Synthetic.id(), l)))
            .collect();
        move |s| loads.get(&s).copied()
    }

    #[test]
    fn hot_shard_is_split_first() {
        let spec = ShardingSpec::uniform_u64(4);
        let scaler = SplitScaler::new(cfg());
        let ops = scaler.evaluate(
            &spec,
            loads(&[(0, 50.0), (1, 250.0), (2, 150.0), (3, 50.0)]),
            &BTreeSet::new(),
        );
        assert_eq!(
            ops,
            vec![
                ReshardOp::Split { shard: ShardId(1) },
                ReshardOp::Split { shard: ShardId(2) },
            ],
            "hottest first; in-band shards untouched"
        );
    }

    #[test]
    fn cold_neighbors_merge_coldest_first_and_disjoint() {
        let spec = ShardingSpec::uniform_u64(4);
        let scaler = SplitScaler::new(cfg());
        // All four cold: pairs (0,1)=4, (1,2)=12, (2,3)=18. Coldest is
        // (0,1); (1,2) then conflicts, (2,3) still fits.
        let ops = scaler.evaluate(
            &spec,
            loads(&[(0, 1.0), (1, 3.0), (2, 9.0), (3, 9.0)]),
            &BTreeSet::new(),
        );
        assert_eq!(
            ops,
            vec![
                ReshardOp::Merge {
                    left: ShardId(0),
                    right: ShardId(1)
                },
                ReshardOp::Merge {
                    left: ShardId(2),
                    right: ShardId(3)
                },
            ]
        );
    }

    #[test]
    fn busy_shards_and_bounds_are_respected() {
        let spec = ShardingSpec::uniform_u64(2);
        let scaler = SplitScaler::new(cfg());
        // Hot but busy: nothing.
        let busy: BTreeSet<ShardId> = [ShardId(0)].into_iter().collect();
        let ops = scaler.evaluate(&spec, loads(&[(0, 500.0), (1, 1.0)]), &busy);
        assert!(ops.is_empty());
        // At min_shards=2, a cold pair must not merge.
        let ops = scaler.evaluate(&spec, loads(&[(0, 1.0), (1, 1.0)]), &BTreeSet::new());
        assert!(ops.is_empty(), "merge would go below min_shards");
        // At max_shards, a hot shard must not split.
        let spec8 = ShardingSpec::uniform_u64(8);
        let all_hot: Vec<(u64, f64)> = (0..8).map(|s| (s, 500.0)).collect();
        let ops = scaler.evaluate(&spec8, loads(&all_hot), &BTreeSet::new());
        assert!(ops.is_empty(), "split would go above max_shards");
    }

    #[test]
    fn shards_without_load_reports_are_left_alone() {
        let spec = ShardingSpec::uniform_u64(3);
        let scaler = SplitScaler::new(cfg());
        let ops = scaler.evaluate(&spec, loads(&[(1, 1.0)]), &BTreeSet::new());
        assert!(ops.is_empty(), "no report, no decision");
    }

    #[test]
    fn unsplittable_sliver_is_skipped() {
        // A one-key-wide range has no interior split point.
        use sm_types::{AppKey, KeyRange};
        let sliver = KeyRange::new(AppKey::new(vec![0x10]), AppKey::new(vec![0x10, 0x00, 0x01]));
        assert!(sliver.midpoint().is_some(), "this one still splits");
        let nosplit = KeyRange::new(AppKey::new(vec![0x10]), AppKey::new(vec![0x10, 0x00]));
        let spec = ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::min(), AppKey::new(vec![0x10])),
                ShardId(0),
            ),
            (nosplit, ShardId(1)),
            (KeyRange::from(AppKey::new(vec![0x10, 0x00])), ShardId(2)),
        ])
        .unwrap();
        let scaler = SplitScaler::new(cfg());
        let ops = scaler.evaluate(&spec, loads(&[(1, 500.0)]), &BTreeSet::new());
        assert!(ops.is_empty(), "hot but unsplittable");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_band_rejected() {
        SplitScalerConfig::new(Metric::Synthetic.id(), 10.0, 20.0, 1, 4);
    }
}
