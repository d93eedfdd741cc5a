//! An AdEvents-like stream processor (§2.5).
//!
//! A primary-only SM application whose shards map 1:1 to data-bus
//! partitions. Each shard consumes its partition and maintains a
//! materialized aggregate (event counts per key) — §2.4 option 3:
//! standard materialized state, rebuilt by replaying the bus from
//! offset 0 whenever the shard lands on a new server. The paper's
//! AdEvents story is that converting these pipelines from static
//! sharding to SM's geo-distributed deployments cut machine usage 67%.

use crate::databus::DataBus;
use crate::forwarding::ShardHost;
use crate::AppResponse;
use sm_core::ShardServer;
use sm_types::{LoadVector, Metric, ReplicaRole, ServerId, ShardId, SmError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One stream-processing application server.
#[derive(Debug)]
// sm-lint: allow(U1) — PAPER.md "Production applications" row (AdEvents: the stream processor); no world drives it yet
pub struct StreamServer {
    /// This server's id.
    pub id: ServerId,
    host: ShardHost,
    bus: Rc<RefCell<DataBus>>,
    topic: String,
    /// Per shard: consume offset and the materialized aggregate.
    state: BTreeMap<ShardId, ShardState>,
}

#[derive(Debug, Default)]
struct ShardState {
    offset: u64,
    /// Event counts keyed by the record's first byte (a stand-in for a
    /// real aggregation key).
    counts: BTreeMap<u8, u64>,
}

impl StreamServer {
    /// Creates a server consuming `topic` on the shared bus. Shard `k`
    /// consumes partition `k`.
    pub fn new(id: ServerId, bus: Rc<RefCell<DataBus>>, topic: impl Into<String>) -> Self {
        Self {
            id,
            host: ShardHost::new(),
            bus,
            topic: topic.into(),
            state: BTreeMap::new(),
        }
    }

    /// Routing decision for a request on `shard`.
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit(shard, forwarded)
    }

    /// Consumes up to `max` pending records for one hosted shard,
    /// folding them into the aggregate. Returns records processed.
    // sm-lint: allow(U1) — PAPER.md "Production applications" row (AdEvents: the stream processor); no world drives it yet
    pub fn poll(&mut self, shard: ShardId, max: usize) -> Result<usize, SmError> {
        if self.host.role_of(shard).is_none() {
            return Err(SmError::not_found(shard));
        }
        let state = self.state.entry(shard).or_default();
        let bus = self.bus.borrow();
        let batch = bus.consume(&self.topic, shard.raw() as u32, state.offset, max)?;
        let n = batch.len();
        for (offset, record) in batch {
            let key = record.first().copied().unwrap_or(0);
            *state.counts.entry(key).or_insert(0) += 1;
            state.offset = offset + 1;
        }
        Ok(n)
    }

    /// The materialized count for `key` in one shard's aggregate.
    pub fn count(&self, shard: ShardId, key: u8) -> u64 {
        self.state
            .get(&shard)
            .and_then(|s| s.counts.get(&key).copied())
            .unwrap_or(0)
    }

    /// Records consumed so far on `shard` (its offset).
    pub(crate) fn offset(&self, shard: ShardId) -> u64 {
        self.state.get(&shard).map(|s| s.offset).unwrap_or(0)
    }

    /// Lag behind the bus end offset.
    pub(crate) fn lag(&self, shard: ShardId) -> u64 {
        let end = self
            .bus
            .borrow()
            .end_offset(&self.topic, shard.raw() as u32)
            .unwrap_or(0);
        end.saturating_sub(self.offset(shard))
    }
}

impl ShardServer for StreamServer {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)?;
        // Materialized state is rebuilt by replaying from offset 0.
        self.state.insert(shard, ShardState::default());
        Ok(())
    }

    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.host.drop_shard(shard)?;
        self.state.remove(&shard);
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
        // Start replaying early so the handover finds a warm aggregate.
        self.state.entry(shard).or_default();
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
                v.set(Metric::Synthetic.id(), self.lag(*shard) as f64);
                (*shard, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StreamServer, Rc<RefCell<DataBus>>) {
        let bus = Rc::new(RefCell::new(DataBus::new()));
        bus.borrow_mut().create_topic("ads", 4);
        let srv = StreamServer::new(ServerId(1), bus.clone(), "ads");
        (srv, bus)
    }

    #[test]
    fn consumes_and_aggregates() {
        let (mut srv, bus) = setup();
        srv.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
        for _ in 0..3 {
            bus.borrow_mut().publish("ads", 0, vec![7]).unwrap();
        }
        bus.borrow_mut().publish("ads", 0, vec![9]).unwrap();
        let n = srv.poll(ShardId(0), 100).unwrap();
        assert_eq!(n, 4);
        assert_eq!(srv.count(ShardId(0), 7), 3);
        assert_eq!(srv.count(ShardId(0), 9), 1);
        assert_eq!(srv.lag(ShardId(0)), 0);
    }

    #[test]
    fn rebuild_after_move_replays_everything() {
        let (mut srv, bus) = setup();
        srv.add_shard(ShardId(1), ReplicaRole::Primary).unwrap();
        for _ in 0..5 {
            bus.borrow_mut().publish("ads", 1, vec![1]).unwrap();
        }
        srv.poll(ShardId(1), 100).unwrap();
        assert_eq!(srv.count(ShardId(1), 1), 5);
        // Shard moves to a new server: state rebuilt from offset 0.
        let mut srv2 = StreamServer::new(ServerId(2), bus.clone(), "ads");
        srv2.add_shard(ShardId(1), ReplicaRole::Primary).unwrap();
        assert_eq!(srv2.offset(ShardId(1)), 0);
        srv2.poll(ShardId(1), 100).unwrap();
        assert_eq!(srv2.count(ShardId(1), 1), 5, "aggregate fully rebuilt");
    }

    #[test]
    fn poll_requires_hosting() {
        let (mut srv, _bus) = setup();
        assert!(srv.poll(ShardId(0), 10).is_err());
    }

    #[test]
    fn lag_reported_as_synthetic_load() {
        let (mut srv, bus) = setup();
        srv.add_shard(ShardId(2), ReplicaRole::Primary).unwrap();
        for _ in 0..7 {
            bus.borrow_mut().publish("ads", 2, vec![0]).unwrap();
        }
        let report = srv.report_load();
        assert_eq!(report[0].1.get(Metric::Synthetic.id()), 7.0);
        srv.poll(ShardId(2), 100).unwrap();
        let report = srv.report_load();
        assert_eq!(report[0].1.get(Metric::Synthetic.id()), 0.0);
    }

    #[test]
    fn incremental_polling_respects_max() {
        let (mut srv, bus) = setup();
        srv.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
        for _ in 0..10 {
            bus.borrow_mut().publish("ads", 0, vec![0]).unwrap();
        }
        assert_eq!(srv.poll(ShardId(0), 4).unwrap(), 4);
        assert_eq!(srv.offset(ShardId(0)), 4);
        assert_eq!(srv.poll(ShardId(0), 100).unwrap(), 6);
    }
}
