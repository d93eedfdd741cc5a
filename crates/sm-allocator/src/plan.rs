//! Allocation plans: the diff between current and computed placement.

use sm_solver::{SearchStats, ViolationStats};
use sm_types::{ServerId, ShardId};
use std::sync::Arc;

/// One replica relocation (or initial placement when `from` is `None`).
/// Ordered by shard, then replica slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ReplicaMove {
    /// The shard.
    pub shard: ShardId,
    /// Which replica slot of the shard.
    pub replica: usize,
    /// Source server; `None` for a fresh placement.
    pub from: Option<ServerId>,
    /// Destination server.
    pub to: ServerId,
}

/// The output of one allocator run.
#[derive(Clone, Debug)]
pub struct AllocationPlan {
    /// Moves to execute; fresh placements sort before relocations.
    pub moves: Vec<ReplicaMove>,
    /// The computed target, read through [`Self::target`].
    pub(crate) target: Target,
    /// Violations remaining in the computed placement.
    pub violations: ViolationStats,
    /// Solver statistics.
    pub search: SearchStats,
}

/// Per shard, per replica slot, the server: every slot in one array,
/// shard after shard in input order, so a plan costs one allocation
/// however many shards it covers; the rows are the solved problem's.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Target {
    pub(crate) rows: Arc<Rows>,
    pub(crate) slots: Vec<Option<ServerId>>,
}

/// A problem's shards in input order and where each one's slots end.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Rows {
    pub(crate) shards: Vec<ShardId>,
    /// `ends[i]` is one past shard `i`'s last slot; its first is
    /// `ends[i - 1]`, or 0.
    pub(crate) ends: Vec<usize>,
}

impl Rows {
    /// The slots of row `i`.
    pub(crate) fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).and_then(|i| self.ends.get(i));
        let end = self.ends.get(i).copied().unwrap_or(0);
        start.copied().unwrap_or(0)..end
    }
}

impl AllocationPlan {
    /// The computed target: per shard, in input order, the server of
    /// each replica slot.
    pub fn target(&self) -> impl Iterator<Item = (ShardId, &[Option<ServerId>])> {
        let Target { rows, slots } = &self.target;
        let shards = rows.shards.iter().enumerate();
        shards.map(|(i, &shard)| (shard, slots.get(rows.span(i)).unwrap_or(&[])))
    }

    /// Number of replicas the plan leaves unplaced.
    pub fn unplaced(&self) -> usize {
        self.target.slots.iter().filter(|r| r.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_reads_back_shard_by_shard() {
        let plan = AllocationPlan {
            moves: vec![],
            target: Target {
                rows: Arc::new(Rows {
                    shards: vec![ShardId(0), ShardId(7), ShardId(1)],
                    ends: vec![2, 2, 4],
                }),
                slots: vec![Some(ServerId(1)), None, None, None],
            },
            violations: ViolationStats::default(),
            search: SearchStats::default(),
        };
        assert_eq!(plan.unplaced(), 3);
        let rows: Vec<_> = plan.target().collect();
        let none = None::<ServerId>;
        assert_eq!(rows[0], (ShardId(0), &[Some(ServerId(1)), none][..]));
        assert_eq!(rows[1], (ShardId(7), &[][..]), "a shard offering no slot");
        assert_eq!(rows[2], (ShardId(1), &[none, none][..]));
    }
}
