//! A primary-only queue service with in-order delivery.
//!
//! Models the instant-messaging queue of §8.2: each shard is an ordered
//! queue of messages for a set of devices; exactly one server (the
//! primary) owns a shard at a time, which is what guarantees in-order
//! delivery. Queue state is soft: the durable log lives upstream, so a
//! moved shard restarts from the last acknowledged sequence number.

use crate::forwarding::ShardHost;
use crate::AppResponse;
use sm_core::ShardServer;
use sm_types::{LoadVector, Metric, ReplicaRole, ServerId, ShardId, SmError};
use std::collections::{BTreeMap, VecDeque};

/// One queue application server.
#[derive(Debug, Default)]
// sm-lint: allow(U1) — PAPER.md "Production applications" row (queue service: the consumer side and its in-order handover); no world drives it yet
pub struct QueueServer {
    host: ShardHost,
    queues: BTreeMap<ShardId, VecDeque<(u64, Vec<u8>)>>,
    /// Next sequence number to assign, per shard. Persisted upstream in
    /// the real system; kept across moves via the shared counter the
    /// harness owns. Locally it only ever increases.
    next_seq: BTreeMap<ShardId, u64>,
}

impl QueueServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routing decision for a primary-type request on `shard`.
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit(shard, forwarded)
    }

    /// Routing decision for a secondary-type request (any replica
    /// serves — secondary-only replication policies).
    pub(crate) fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit_secondary(shard, forwarded)
    }

    /// Enqueues a message, returning its sequence number.
    pub(crate) fn enqueue(&mut self, shard: ShardId, payload: Vec<u8>) -> Result<u64, SmError> {
        if self.host.role_of(shard) != Some(ReplicaRole::Primary) {
            return Err(SmError::Unavailable(format!("{shard} not primary here")));
        }
        let seq = self.next_seq.entry(shard).or_insert(0);
        let n = *seq;
        *seq += 1;
        self.queues
            .entry(shard)
            .or_default()
            .push_back((n, payload));
        Ok(n)
    }

    /// Dequeues the oldest message.
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (queue service: the consumer side and its in-order handover); no world drives it yet
    pub fn dequeue(&mut self, shard: ShardId) -> Result<Option<(u64, Vec<u8>)>, SmError> {
        if self.host.role_of(shard) != Some(ReplicaRole::Primary) {
            return Err(SmError::Unavailable(format!("{shard} not primary here")));
        }
        Ok(self.queues.get_mut(&shard).and_then(VecDeque::pop_front))
    }

    /// Queue depth of one shard — the paper's "single synthetic metric"
    /// (request queue size, §2.2.4).
    pub fn depth(&self, shard: ShardId) -> usize {
        self.queues.get(&shard).map(VecDeque::len).unwrap_or(0)
    }

    /// True if the shard's queue is already materialized locally.
    pub(crate) fn is_warm(&self, shard: ShardId) -> bool {
        self.queues.contains_key(&shard)
    }

    /// Restores a shard's sequence counter after a migration (the
    /// harness carries it over, standing in for the upstream log).
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (queue service: the consumer side and its in-order handover); no world drives it yet
    pub fn restore_seq(&mut self, shard: ShardId, next: u64) {
        self.next_seq.insert(shard, next);
    }

    /// The shard's next sequence number (for handover).
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (queue service: the consumer side and its in-order handover); no world drives it yet
    pub fn seq_of(&self, shard: ShardId) -> u64 {
        self.next_seq.get(&shard).copied().unwrap_or(0)
    }
}

impl ShardServer for QueueServer {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)?;
        self.queues.entry(shard).or_default();
        Ok(())
    }

    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.host.drop_shard(shard)?;
        self.queues.remove(&shard);
        Ok(())
    }

    fn change_role(
        &mut self,
        shard: ShardId,
        current: ReplicaRole,
        new: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.change_role(shard, current, new)
    }

    fn prepare_add_shard(
        &mut self,
        shard: ShardId,
        current_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_add_shard(shard, current_owner, role)?;
        // Warm the queue state ahead of the handover.
        self.queues.entry(shard).or_default();
        Ok(())
    }

    fn prepare_drop_shard(
        &mut self,
        shard: ShardId,
        new_owner: ServerId,
        role: ReplicaRole,
    ) -> Result<(), SmError> {
        self.host.prepare_drop_shard(shard, new_owner, role)
    }

    fn report_load(&self) -> Vec<(ShardId, LoadVector)> {
        self.host
            .shards()
            .map(|(shard, _)| {
                let mut v = LoadVector::zero();
                v.set(Metric::ShardCount.id(), 1.0);
                v.set(Metric::Synthetic.id(), self.depth(*shard) as f64);
                (*shard, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ShardId = ShardId(0);

    #[test]
    fn fifo_order_per_shard() {
        let mut q = QueueServer::new();
        q.add_shard(S, ReplicaRole::Primary).unwrap();
        for i in 0..5u8 {
            q.enqueue(S, vec![i]).unwrap();
        }
        for i in 0..5u8 {
            let (seq, payload) = q.dequeue(S).unwrap().unwrap();
            assert_eq!(seq, u64::from(i));
            assert_eq!(payload, vec![i]);
        }
        assert_eq!(q.dequeue(S).unwrap(), None);
    }

    #[test]
    fn only_primary_serves() {
        let mut q = QueueServer::new();
        q.add_shard(S, ReplicaRole::Secondary).unwrap();
        assert!(q.enqueue(S, vec![1]).is_err());
        assert!(q.dequeue(S).is_err());
        q.change_role(S, ReplicaRole::Secondary, ReplicaRole::Primary)
            .unwrap();
        assert!(q.enqueue(S, vec![1]).is_ok());
    }

    #[test]
    fn sequence_survives_migration() {
        let mut old = QueueServer::new();
        old.add_shard(S, ReplicaRole::Primary).unwrap();
        old.enqueue(S, vec![0]).unwrap();
        old.enqueue(S, vec![1]).unwrap();
        let carried = old.seq_of(S);

        let mut new = QueueServer::new();
        new.add_shard(S, ReplicaRole::Primary).unwrap();
        new.restore_seq(S, carried);
        let seq = new.enqueue(S, vec![2]).unwrap();
        assert_eq!(seq, 2, "numbering continues in order");
    }

    #[test]
    fn depth_reports_synthetic_load() {
        let mut q = QueueServer::new();
        q.add_shard(S, ReplicaRole::Primary).unwrap();
        q.enqueue(S, vec![1]).unwrap();
        q.enqueue(S, vec![2]).unwrap();
        let report = q.report_load();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].1.get(Metric::Synthetic.id()), 2.0);
    }
}
