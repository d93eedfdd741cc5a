//! A Laser-like soft-state key-value store (§2.4 option 2/3, §3.1).
//!
//! Data durably lives in an [`ExternalStore`] (standing in for an
//! external database plus a Kafka-like update feed). A [`KvServer`]
//! caches the key range of each shard it hosts; `add_shard` rebuilds the
//! shard's data from the external store, which is exactly why soft-state
//! apps tolerate shard moves cheaply. Because sharding is app-key based,
//! the store supports prefix scans — the operation the paper calls out
//! as impossible under hashed (UUID-key) sharding.

use crate::forwarding::ShardHost;
use crate::AppResponse;
use sm_core::ShardServer;
use sm_types::{AppKey, LoadVector, Metric, ReplicaRole, ServerId, ShardId, ShardingSpec, SmError};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

/// The durable source of truth shared by all servers of the app.
#[derive(Debug, Default)]
pub struct ExternalStore {
    data: BTreeMap<AppKey, Vec<u8>>,
}

impl ExternalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a key durably.
    pub fn put(&mut self, key: AppKey, value: Vec<u8>) {
        self.data.insert(key, value);
    }

    /// Reads a key.
    pub fn get(&self, key: &AppKey) -> Option<&Vec<u8>> {
        self.data.get(key)
    }

    /// All pairs within `range`, for shard rebuilds. Walks the range,
    /// not the store.
    pub fn scan_range(&self, range: &sm_types::KeyRange) -> Vec<(AppKey, Vec<u8>)> {
        if range.is_empty() {
            // `BTreeMap::range` panics on an inverted range.
            return Vec::new();
        }
        let end = range.end.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
        self.data
            .range((Bound::Included(&range.start), end))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Total keys stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// One KV application server.
#[derive(Debug)]
pub struct KvServer {
    /// This server's id (used in forwarding decisions).
    pub id: ServerId,
    host: ShardHost,
    spec: Rc<ShardingSpec>,
    external: Rc<std::cell::RefCell<ExternalStore>>,
    /// Cached data per hosted shard.
    data: BTreeMap<ShardId, BTreeMap<AppKey, Vec<u8>>>,
    /// Requests served (for synthetic load reporting).
    served: u64,
}

impl KvServer {
    /// Creates a server over the app's sharding spec and external store.
    pub fn new(
        id: ServerId,
        spec: Rc<ShardingSpec>,
        external: Rc<std::cell::RefCell<ExternalStore>>,
    ) -> Self {
        Self {
            id,
            host: ShardHost::new(),
            spec,
            external,
            data: BTreeMap::new(),
            served: 0,
        }
    }

    /// Routing decision for a primary-type request on `shard`.
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit(shard, forwarded)
    }

    /// Routing decision for a secondary-type request (any replica
    /// serves — secondary-only replication policies).
    pub fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit_secondary(shard, forwarded)
    }

    /// Shards currently hosted.
    pub fn shard_count(&self) -> usize {
        self.host.shard_count()
    }

    /// Serves a get; the caller must have admitted the request.
    pub fn get(&mut self, shard: ShardId, key: &AppKey) -> Option<Vec<u8>> {
        self.served += 1;
        self.data.get(&shard).and_then(|m| m.get(key).cloned())
    }

    /// Serves a put: writes through to the external store and the cache.
    pub fn put(&mut self, shard: ShardId, key: AppKey, value: Vec<u8>) {
        self.served += 1;
        self.external.borrow_mut().put(key.clone(), value.clone());
        self.data.entry(shard).or_default().insert(key, value);
    }

    /// Serves a prefix scan over one hosted shard, returning matching
    /// pairs in key order.
    pub fn prefix_scan(&mut self, shard: ShardId, prefix: &[u8]) -> Vec<(AppKey, Vec<u8>)> {
        self.served += 1;
        self.data
            .get(&shard)
            .map(|m| {
                m.iter()
                    .filter(|(k, _)| k.has_prefix(prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if the shard's data is already materialized locally.
    pub fn is_warm(&self, shard: ShardId) -> bool {
        self.data.contains_key(&shard)
    }

    /// Simulates a process restart: all soft state is lost.
    pub fn restart(&mut self) {
        self.host.wipe();
        self.data.clear();
    }
}

impl ShardServer for KvServer {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)?;
        // Rebuild the shard's soft state from the external store.
        let rebuilt = match self.spec.range_of(shard) {
            Some(range) => self.external.borrow().scan_range(range),
            None => Vec::new(),
        };
        self.data.insert(shard, rebuilt.into_iter().collect());
        Ok(())
    }

    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.host.drop_shard(shard)?;
        self.data.remove(&shard);
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
        // Warm the cache ahead of the handover.
        let rebuilt = match self.spec.range_of(shard) {
            Some(range) => self.external.borrow().scan_range(range),
            None => Vec::new(),
        };
        self.data.insert(shard, rebuilt.into_iter().collect());
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
                v.set(
                    Metric::Storage.id(),
                    self.data.get(shard).map(|m| m.len() as f64).unwrap_or(0.0),
                );
                (*shard, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn setup() -> (KvServer, Rc<RefCell<ExternalStore>>, Rc<ShardingSpec>) {
        let spec = Rc::new(ShardingSpec::uniform_u64(4));
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let server = KvServer::new(ServerId(1), spec.clone(), external.clone());
        (server, external, spec)
    }

    #[test]
    fn add_shard_rebuilds_from_external() {
        let (mut srv, external, spec) = setup();
        let key = AppKey::from_u64(42);
        external.borrow_mut().put(key.clone(), b"v".to_vec());
        let shard = spec.shard_for(&key).unwrap();
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        assert_eq!(srv.get(shard, &key), Some(b"v".to_vec()));
    }

    #[test]
    fn scan_range_equals_a_filter_over_the_whole_store() {
        let mut rng = sm_sim::SimRng::seeded(16);
        let mut store = ExternalStore::new();
        for _ in 0..400 {
            store.put(
                AppKey::from_u64(rng.range_u64(0, 1000)),
                vec![rng.index(256) as u8],
            );
        }
        let (mut hits, mut none) = (0, 0);
        for _ in 0..2000 {
            // Bounded either way round (so also inverted), unbounded,
            // and — one draw in ten — empty on a stored key.
            let start = AppKey::from_u64(rng.range_u64(0, 1100));
            let end = match rng.index(10) {
                0 => None,
                1 => Some(start.clone()),
                _ => Some(AppKey::from_u64(rng.range_u64(0, 1100))),
            };
            let range = sm_types::KeyRange { start, end };
            let filtered: Vec<(AppKey, Vec<u8>)> = store
                .data
                .iter()
                .filter(|(k, _)| range.contains(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(store.scan_range(&range), filtered, "{range:?}");
            hits += usize::from(!filtered.is_empty());
            none += usize::from(range.is_empty());
        }
        assert!(
            hits > 500 && none > 500,
            "{hits} non-empty, {none} empty or inverted"
        );
    }

    #[test]
    fn puts_write_through() {
        let (mut srv, external, spec) = setup();
        let key = AppKey::from_u64(7);
        let shard = spec.shard_for(&key).unwrap();
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        srv.put(shard, key.clone(), b"x".to_vec());
        assert_eq!(external.borrow().get(&key), Some(&b"x".to_vec()));
        // A fresh server rebuilding the shard sees the write.
        let mut srv2 = KvServer::new(ServerId(2), spec.clone(), external.clone());
        srv2.add_shard(shard, ReplicaRole::Primary).unwrap();
        assert_eq!(srv2.get(shard, &key), Some(b"x".to_vec()));
    }

    #[test]
    fn prefix_scan_within_shard() {
        let spec =
            Rc::new(ShardingSpec::new(vec![(sm_types::KeyRange::full(), ShardId(0))]).unwrap());
        let external = Rc::new(RefCell::new(ExternalStore::new()));
        let mut srv = KvServer::new(ServerId(1), spec, external);
        srv.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
        srv.put(ShardId(0), AppKey::from("user:1"), b"a".to_vec());
        srv.put(ShardId(0), AppKey::from("user:2"), b"b".to_vec());
        srv.put(ShardId(0), AppKey::from("item:1"), b"c".to_vec());
        let hits = srv.prefix_scan(ShardId(0), b"user:");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, AppKey::from("user:1"));
        assert_eq!(hits[1].0, AppKey::from("user:2"));
    }

    #[test]
    fn drop_frees_cache_but_data_survives_externally() {
        let (mut srv, external, spec) = setup();
        let key = AppKey::from_u64(9);
        let shard = spec.shard_for(&key).unwrap();
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        srv.put(shard, key.clone(), b"kept".to_vec());
        srv.drop_shard(shard).unwrap();
        assert_eq!(srv.shard_count(), 0);
        assert_eq!(external.borrow().get(&key), Some(&b"kept".to_vec()));
    }

    #[test]
    fn restart_loses_soft_state_only() {
        let (mut srv, external, spec) = setup();
        let key = AppKey::from_u64(3);
        let shard = spec.shard_for(&key).unwrap();
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        srv.put(shard, key.clone(), b"v".to_vec());
        srv.restart();
        assert_eq!(srv.shard_count(), 0);
        // Re-adding restores from the external store.
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        assert_eq!(srv.get(shard, &key), Some(b"v".to_vec()));
        let _ = external;
    }

    #[test]
    fn load_report_covers_hosted_shards() {
        let (mut srv, _external, spec) = setup();
        srv.add_shard(ShardId(0), ReplicaRole::Primary).unwrap();
        srv.add_shard(ShardId(1), ReplicaRole::Secondary).unwrap();
        let report = srv.report_load();
        assert_eq!(report.len(), 2);
        for (_, load) in report {
            assert_eq!(load.get(Metric::ShardCount.id()), 1.0);
        }
        let _ = spec;
    }
}
