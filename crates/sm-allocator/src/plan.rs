//! Allocation plans: the diff between current and computed placement.

use sm_solver::{SearchStats, ViolationStats};
use sm_types::{ServerId, ShardId};

/// One replica relocation (or initial placement when `from` is `None`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
    /// The computed target: per shard, per replica slot, the server.
    pub target: Vec<(ShardId, Vec<Option<ServerId>>)>,
    /// Violations remaining in the computed placement.
    pub violations: ViolationStats,
    /// Solver statistics.
    pub search: SearchStats,
}

impl AllocationPlan {
    /// Number of replicas the plan leaves unplaced.
    pub fn unplaced(&self) -> usize {
        self.target
            .iter()
            .map(|(_, rs)| rs.iter().filter(|r| r.is_none()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaced_counts_missing_slots() {
        let plan = AllocationPlan {
            moves: vec![],
            target: vec![
                (ShardId(0), vec![Some(ServerId(1)), None]),
                (ShardId(1), vec![None, None]),
            ],
            violations: ViolationStats::default(),
            search: SearchStats::default(),
        };
        assert_eq!(plan.unplaced(), 3);
    }
}
