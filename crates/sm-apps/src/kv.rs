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
    pub(crate) fn scan_range(&self, range: &sm_types::KeyRange) -> Vec<(AppKey, Vec<u8>)> {
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

/// One shard's cached pairs.
type Cache = BTreeMap<AppKey, Vec<u8>>;

/// One KV application server.
#[derive(Debug)]
pub struct KvServer {
    /// This server's id (used in forwarding decisions).
    pub id: ServerId,
    /// Hosting state and, in the same per-shard record, the cache.
    host: ShardHost<Cache>,
    spec: Rc<ShardingSpec>,
    external: Rc<std::cell::RefCell<ExternalStore>>,
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
            host: ShardHost::default(),
            spec,
            external,
        }
    }

    /// Routing decision for a primary-type request on `shard`.
    // sm-lint: hot-path
    pub fn admit(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit(shard, forwarded)
    }

    /// Routing decision for a secondary-type request (any replica
    /// serves — secondary-only replication policies).
    pub(crate) fn admit_secondary(&self, shard: ShardId, forwarded: bool) -> AppResponse {
        self.host.admit_secondary(shard, forwarded)
    }

    /// Shards currently hosted.
    pub fn shard_count(&self) -> usize {
        self.host.shard_count()
    }

    /// Serves a get; the caller must have admitted the request.
    // sm-lint: hot-path
    pub fn get(&self, shard: ShardId, key: &AppKey) -> Option<&[u8]> {
        self.host.data(shard)?.get(key).map(Vec::as_slice)
    }

    /// Serves a put: writes through to the external store and the cache.
    pub fn put(&mut self, shard: ShardId, key: AppKey, value: Vec<u8>) {
        self.external.borrow_mut().put(key.clone(), value.clone());
        match self.host.data_mut(shard) {
            Some(cache) => {
                cache.insert(key, value);
            }
            None => self.host.set_data(shard, Some(Cache::from([(key, value)]))),
        }
    }

    /// Serves a prefix scan over one hosted shard, returning matching
    /// pairs in key order.
    pub fn prefix_scan(&self, shard: ShardId, prefix: &[u8]) -> Vec<(AppKey, Vec<u8>)> {
        // Keys with the prefix are contiguous, from the prefix itself on.
        self.host
            .data(shard)
            .map(|m| {
                m.range(AppKey::new(prefix)..)
                    .take_while(|(k, _)| k.has_prefix(prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if the shard's data is already materialized locally.
    pub(crate) fn is_warm(&self, shard: ShardId) -> bool {
        self.host.data(shard).is_some()
    }

    /// Simulates a process restart: all soft state is lost.
    pub fn restart(&mut self) {
        self.host.wipe();
    }

    /// Rebuilds the shard's soft state from the external store.
    fn rebuild(&mut self, shard: ShardId) {
        let rebuilt = match self.spec.range_of(shard) {
            Some(range) => self.external.borrow().scan_range(range),
            None => Vec::new(),
        };
        self.host
            .set_data(shard, Some(rebuilt.into_iter().collect()));
    }
}

impl ShardServer for KvServer {
    fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
        self.host.add_shard(shard, role)?;
        self.rebuild(shard);
        Ok(())
    }

    fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
        self.host.drop_shard(shard)?;
        self.host.set_data(shard, None);
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
        self.rebuild(shard);
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
                    self.host.data(*shard).map_or(0.0, |m| m.len() as f64),
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

    /// `KvServer` as it was before the cache moved into the host's
    /// per-shard record: a four-map host and, beside it, a shard-keyed
    /// map of caches; `get` cloned, `prefix_scan` filtered the whole
    /// shard. The bodies are kept verbatim as the model.
    struct TwoMapServer {
        host: crate::forwarding::tests::FourMaps,
        spec: Rc<ShardingSpec>,
        external: Rc<RefCell<ExternalStore>>,
        data: BTreeMap<ShardId, BTreeMap<AppKey, Vec<u8>>>,
    }

    impl TwoMapServer {
        fn get(&mut self, shard: ShardId, key: &AppKey) -> Option<Vec<u8>> {
            self.data.get(&shard).and_then(|m| m.get(key).cloned())
        }

        fn put(&mut self, shard: ShardId, key: AppKey, value: Vec<u8>) {
            self.external.borrow_mut().put(key.clone(), value.clone());
            self.data.entry(shard).or_default().insert(key, value);
        }

        fn prefix_scan(&mut self, shard: ShardId, prefix: &[u8]) -> Vec<(AppKey, Vec<u8>)> {
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

        fn is_warm(&self, shard: ShardId) -> bool {
            self.data.contains_key(&shard)
        }

        fn restart(&mut self) {
            self.host.wipe();
            self.data.clear();
        }

        fn rebuild(&mut self, shard: ShardId) {
            let rebuilt = match self.spec.range_of(shard) {
                Some(range) => self.external.borrow().scan_range(range),
                None => Vec::new(),
            };
            self.data.insert(shard, rebuilt.into_iter().collect());
        }

        fn add_shard(&mut self, shard: ShardId, role: ReplicaRole) -> Result<(), SmError> {
            self.host.add_shard(shard, role)?;
            self.rebuild(shard);
            Ok(())
        }

        fn drop_shard(&mut self, shard: ShardId) -> Result<(), SmError> {
            self.host.drop_shard(shard)?;
            self.data.remove(&shard);
            Ok(())
        }

        fn prepare_add_shard(
            &mut self,
            shard: ShardId,
            owner: ServerId,
            role: ReplicaRole,
        ) -> Result<(), SmError> {
            self.host.prepare_add_shard(shard, owner, role)?;
            self.rebuild(shard);
            Ok(())
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

    #[test]
    fn one_record_server_equals_the_two_map_model() {
        const SHARDS: u64 = 6;
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0218);
        // Four shards in the spec; ids 4 and 5 are never in it, so a
        // rebuild of one finds no range.
        let spec = Rc::new(ShardingSpec::uniform_u64(4));
        let stores = [(); 2].map(|_| Rc::new(RefCell::new(ExternalStore::new())));
        let mut srv = KvServer::new(ServerId(1), spec.clone(), stores[0].clone());
        let mut model = TwoMapServer {
            host: Default::default(),
            spec: spec.clone(),
            external: stores[1].clone(),
            data: BTreeMap::new(),
        };
        // 64 keys in 8 clusters of a shared 7-byte prefix.
        let keys: Vec<AppKey> = (0..64u64)
            .map(|i| AppKey::from_u64((i / 8) << 61 | (i % 8) << 8 | 7))
            .collect();
        let mut calls: BTreeMap<&str, u32> = BTreeMap::new();
        let (mut cold_puts, mut tombstoned) = (0, 0);
        for step in 0..10_000u32 {
            let shard = ShardId(rng.range_u64(0, SHARDS));
            let key = &keys[rng.index(keys.len())];
            // A put goes where the key belongs, or — one in eight —
            // anywhere, hosted or not.
            let home = match rng.index(8) {
                0 => shard,
                _ => spec.shard_for(key).unwrap(),
            };
            let role = match rng.chance(0.7) {
                true => ReplicaRole::Primary,
                false => ReplicaRole::Secondary,
            };
            let peer = ServerId(2 + rng.index(2) as u32);
            let name = match rng.index(100) {
                0..=29 => {
                    cold_puts += u32::from(!model.is_warm(home));
                    let value = step.to_le_bytes().to_vec();
                    srv.put(home, key.clone(), value.clone());
                    model.put(home, key.clone(), value);
                    "put"
                }
                30..=49 => {
                    let want = model.add_shard(shard, role);
                    assert_eq!(srv.add_shard(shard, role), want, "step {step}");
                    "add_shard"
                }
                50..=59 => {
                    let want = model.prepare_add_shard(shard, peer, role);
                    let got = srv.prepare_add_shard(shard, peer, role);
                    assert_eq!(got, want, "step {step}");
                    "prepare_add_shard"
                }
                60..=74 => {
                    let want = model.host.prepare_drop_shard(shard, peer, role);
                    let got = srv.prepare_drop_shard(shard, peer, role);
                    assert_eq!(got, want, "step {step}");
                    "prepare_drop_shard"
                }
                75..=94 => {
                    let forwarding =
                        matches!(model.host.admit(shard, false), AppResponse::Forward(_));
                    assert_eq!(
                        srv.drop_shard(shard),
                        model.drop_shard(shard),
                        "step {step}"
                    );
                    if forwarding {
                        // The tombstone stays, the data goes.
                        tombstoned += 1;
                        assert!(matches!(srv.admit(shard, false), AppResponse::Forward(_)));
                        assert!(!srv.is_warm(shard), "step {step}");
                    }
                    "drop_shard"
                }
                95..=98 => {
                    let want = model.host.change_role(shard, role, ReplicaRole::Primary);
                    let got = srv.change_role(shard, role, ReplicaRole::Primary);
                    assert_eq!(got, want, "step {step}");
                    "change_role"
                }
                _ => {
                    srv.restart();
                    model.restart();
                    "restart"
                }
            };
            *calls.entry(name).or_insert(0) += 1;

            for s in (0..SHARDS).map(ShardId) {
                assert_eq!(srv.is_warm(s), model.is_warm(s), "step {step}: {name} {s}");
                for forwarded in [false, true] {
                    assert_eq!(srv.admit(s, forwarded), model.host.admit(s, forwarded));
                    assert_eq!(
                        srv.admit_secondary(s, forwarded),
                        model.host.admit_secondary(s, forwarded)
                    );
                }
                let prefix = keys[rng.index(keys.len())].as_bytes();
                let prefix = &prefix[..rng.index(prefix.len() + 1)];
                assert_eq!(
                    srv.prefix_scan(s, prefix),
                    model.prefix_scan(s, prefix),
                    "step {step}: {name}, scan {s} {prefix:?}"
                );
            }
            for (s, k) in [
                (shard, key),
                (home, key),
                (shard, &keys[rng.index(keys.len())]),
            ] {
                let want = model.get(s, k);
                assert_eq!(srv.get(s, k), want.as_deref(), "step {step}: {name} {s}");
            }
            assert_eq!(srv.shard_count(), model.host.shard_count(), "step {step}");
            assert_eq!(
                srv.report_load(),
                model.report_load(),
                "step {step}: {name}"
            );
        }
        assert_eq!(stores[0].borrow().data, stores[1].borrow().data);
        assert_eq!(calls.len(), 7, "{calls:?}");
        assert!(
            cold_puts > 100 && tombstoned > 100,
            "{cold_puts} puts to a shard with no data, {tombstoned} drops of a forwarding shard"
        );
    }

    #[test]
    fn add_shard_rebuilds_from_external() {
        let (mut srv, external, spec) = setup();
        let key = AppKey::from_u64(42);
        external.borrow_mut().put(key.clone(), b"v".to_vec());
        let shard = spec.shard_for(&key).unwrap();
        srv.add_shard(shard, ReplicaRole::Primary).unwrap();
        assert_eq!(srv.get(shard, &key), Some(&b"v"[..]));
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
        assert_eq!(srv2.get(shard, &key), Some(&b"x"[..]));
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
        assert_eq!(srv.get(shard, &key), Some(&b"v"[..]));
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
