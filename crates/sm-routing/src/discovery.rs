//! The service discovery system: versioned map storage plus fan-out.

use sm_sim::{SimDuration, SimRng};
use sm_types::{AppId, ShardMap};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A subscriber (one client process's router) registered for updates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubscriberId(pub u64);

/// The discovery service for one deployment.
///
/// Internally the real system fans out through a multi-level
/// data-distribution tree (§3.2); here each subscriber sits at a tree
/// depth determined by its index and a configured fanout, and an update
/// reaches it after `depth x per_hop_delay` plus jitter. The embedding
/// world takes the `(subscriber, delay)` pairs returned by
/// [`DiscoveryService::publish`] and schedules the deliveries.
#[derive(Debug)]
pub struct DiscoveryService {
    maps: BTreeMap<AppId, Rc<ShardMap>>,
    /// Subscribers with their tree depth, computed once at subscribe
    /// time so `publish` is O(subscribers) instead of
    /// O(subscribers x depth).
    subscribers: Vec<(SubscriberId, u32)>,
    fanout: usize,
    per_hop_delay: SimDuration,
    next_subscriber: u64,
    /// Capacity of the depth currently being filled (`fanout^depth`).
    level_size: u64,
    /// Subscribers already placed at the current depth.
    level_used: u64,
    /// The depth new subscribers are placed at (root children = 1).
    next_depth: u32,
}

impl DiscoveryService {
    /// Creates a service with the given tree fanout and per-hop delay.
    pub fn new(fanout: usize, per_hop_delay: SimDuration) -> Self {
        assert!(fanout >= 2, "distribution tree needs fanout >= 2");
        Self {
            maps: BTreeMap::new(),
            subscribers: Vec::new(),
            fanout,
            per_hop_delay,
            next_subscriber: 0,
            level_size: fanout as u64,
            level_used: 0,
            next_depth: 1,
        }
    }

    /// Registers a new subscriber and returns its id.
    ///
    /// The subscriber's tree depth is assigned here (with fanout `f`,
    /// depth `d` holds `f^d` subscribers, `d >= 1`) and stored, so each
    /// later `publish` reads it back in O(1).
    pub fn subscribe(&mut self) -> SubscriberId {
        let id = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        if self.level_used >= self.level_size {
            self.next_depth += 1;
            self.level_size *= self.fanout as u64;
            self.level_used = 0;
        }
        self.level_used += 1;
        self.subscribers.push((id, self.next_depth));
        id
    }

    /// The stored tree depth of subscriber index `i` (0 if unknown).
    #[cfg(test)]
    fn depth(&self, i: usize) -> u32 {
        self.subscribers.get(i).map(|(_, d)| *d).unwrap_or(0)
    }

    /// Publishes a new map version for `app`. Returns the deliveries the
    /// world must schedule: `(subscriber, delay)` pairs. Maps older than
    /// the stored version are rejected with the stored version.
    pub fn publish(
        &mut self,
        app: AppId,
        map: Rc<ShardMap>,
        rng: &mut SimRng,
    ) -> Result<Vec<(SubscriberId, SimDuration)>, u64> {
        if let Some(existing) = self.maps.get(&app) {
            if map.version <= existing.version {
                return Err(existing.version);
            }
        }
        self.maps.insert(app, map);
        let deliveries = self
            .subscribers
            .iter()
            .map(|&(s, depth)| {
                let hops = u64::from(depth);
                let base = self.per_hop_delay.mul(hops);
                let jitter =
                    SimDuration::from_millis_f64(rng.f64() * self.per_hop_delay.as_millis_f64());
                (s, base + jitter)
            })
            .collect();
        Ok(deliveries)
    }

    /// The latest map for `app` (what a booting subscriber fetches).
    pub fn latest(&self, app: AppId) -> Option<&Rc<ShardMap>> {
        self.maps.get(&app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{Assignment, ReplicaRole, ServerId, ShardId};

    fn map(version: u64) -> Rc<ShardMap> {
        let mut a = Assignment::new();
        a.add_replica(ShardId(1), ServerId(1), ReplicaRole::Primary)
            .unwrap();
        Rc::new(ShardMap::from_assignment(version, &a))
    }

    #[test]
    fn publish_and_fetch_latest() {
        let mut d = DiscoveryService::new(2, SimDuration::from_millis(50));
        let mut rng = SimRng::seeded(1);
        d.publish(AppId(1), map(1), &mut rng).unwrap();
        assert_eq!(d.latest(AppId(1)).unwrap().version, 1);
        assert!(d.latest(AppId(2)).is_none());
    }

    #[test]
    fn stale_publish_rejected() {
        let mut d = DiscoveryService::new(2, SimDuration::from_millis(50));
        let mut rng = SimRng::seeded(1);
        d.publish(AppId(1), map(5), &mut rng).unwrap();
        assert_eq!(d.publish(AppId(1), map(5), &mut rng), Err(5));
        assert_eq!(d.publish(AppId(1), map(3), &mut rng), Err(5));
        assert!(d.publish(AppId(1), map(6), &mut rng).is_ok());
    }

    #[test]
    fn deliveries_cover_all_subscribers() {
        let mut d = DiscoveryService::new(2, SimDuration::from_millis(50));
        let mut rng = SimRng::seeded(2);
        let subs: Vec<SubscriberId> = (0..10).map(|_| d.subscribe()).collect();
        let deliveries = d.publish(AppId(1), map(1), &mut rng).unwrap();
        assert_eq!(deliveries.len(), 10);
        let delivered: std::collections::HashSet<_> = deliveries.iter().map(|(s, _)| *s).collect();
        assert_eq!(delivered.len(), subs.len());
    }

    #[test]
    fn deeper_subscribers_wait_longer() {
        let mut d = DiscoveryService::new(2, SimDuration::from_millis(100));
        let mut rng = SimRng::seeded(3);
        // With fanout 2: indices 0-1 depth 1, 2-5 depth 2, 6-13 depth 3.
        for _ in 0..14 {
            d.subscribe();
        }
        let deliveries = d.publish(AppId(1), map(1), &mut rng).unwrap();
        let d0 = deliveries[0].1;
        let d13 = deliveries[13].1;
        assert!(d13 > d0, "depth-3 subscriber slower than depth-1");
        // Depth 1 delay in [100, 200) ms; depth 3 in [300, 400) ms.
        assert!(d0.as_millis_f64() >= 100.0 && d0.as_millis_f64() < 200.0);
        assert!(d13.as_millis_f64() >= 300.0 && d13.as_millis_f64() < 400.0);
    }

    #[test]
    fn depth_computation() {
        let mut d = DiscoveryService::new(3, SimDuration::from_millis(1));
        for _ in 0..13 {
            d.subscribe();
        }
        assert_eq!(d.depth(0), 1);
        assert_eq!(d.depth(2), 1);
        assert_eq!(d.depth(3), 2);
        assert_eq!(d.depth(11), 2);
        assert_eq!(d.depth(12), 3);
        assert_eq!(d.depth(99), 0, "unknown index");
    }
}
