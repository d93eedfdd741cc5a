//! Allocation plans: the diff between current and computed placement.

use sm_solver::{SearchStats, ViolationStats};
use sm_types::{ServerId, ShardId};

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
/// shard after shard in input order, so a plan costs three allocations
/// however many shards it covers.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Target {
    pub(crate) shards: Vec<ShardId>,
    /// `ends[i]` is one past shard `i`'s last slot in `slots`; its
    /// first is `ends[i - 1]`, or 0.
    pub(crate) ends: Vec<usize>,
    pub(crate) slots: Vec<Option<ServerId>>,
}

impl AllocationPlan {
    /// The computed target: per shard, in input order, the server of
    /// each replica slot.
    pub fn target(&self) -> impl Iterator<Item = (ShardId, &[Option<ServerId>])> {
        let Target {
            shards,
            ends,
            slots,
        } = &self.target;
        let mut start = 0;
        shards.iter().zip(ends).map(move |(&shard, &end)| {
            let of_shard = slots.get(start..end).unwrap_or(&[]);
            start = end;
            (shard, of_shard)
        })
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
                shards: vec![ShardId(0), ShardId(7), ShardId(1)],
                ends: vec![2, 2, 4],
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
