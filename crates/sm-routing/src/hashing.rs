//! The legacy sharding schemes SM competes with (§2.2.1).
//!
//! Figure 4 splits Facebook's sharded applications across four schemes.
//! Besides SM and the custom control planes, the legacy pair is:
//!
//! - **static sharding** — `taskID = key mod total_tasks`, the fixed
//!   binding Twine's sequential task ids made easy (being deprecated,
//!   §7): resharding moves almost every key;
//! - **consistent hashing** — a vnode ring: resharding moves only
//!   ~1/n of the key space, but placement is hash-determined, so none
//!   of SM's placement intelligence (region preference, spread, load
//!   balancing) can apply.
//!
//! Both are implemented here so tests and benches can quantify the
//! trade-off the paper describes: static sharding is ~3x more popular
//! than consistent hashing despite the resharding cost, because
//! resharding is rare and soft state is rebuilt from external stores.

use sm_types::{AppKey, ServerId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash64(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Static sharding: `task = hash(key) mod total_tasks` with a fixed
/// task-to-server identity (task i runs on server i).
#[derive(Clone, Copy, Debug)]
pub struct StaticSharding {
    /// Number of tasks (containers) in the job.
    pub total_tasks: u32,
}

impl StaticSharding {
    /// Creates a static sharding over `total_tasks` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `total_tasks` is zero.
    pub fn new(total_tasks: u32) -> Self {
        assert!(total_tasks > 0, "need at least one task");
        Self { total_tasks }
    }

    /// The task (== server) responsible for `key`.
    pub fn server_for(&self, key: &AppKey) -> ServerId {
        ServerId((hash64(&key.as_bytes()) % u64::from(self.total_tasks)) as u32)
    }
}

/// A consistent-hash ring with virtual nodes.
///
/// The ring is a sorted `(hash, server)` slice: lookups binary-search a
/// contiguous array instead of walking `BTreeMap` nodes, and the
/// distinct-server count is maintained at (rare) mutation time instead
/// of being recomputed per query.
#[derive(Clone, Debug, Default)]
pub struct ConsistentHashRing {
    /// Vnodes sorted by hash (the clockwise ring order).
    ring: Vec<(u64, ServerId)>,
    vnodes: u32,
    /// Number of distinct servers, updated on add/remove.
    distinct: usize,
}

impl ConsistentHashRing {
    /// Creates an empty ring with `vnodes` virtual nodes per server.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "need at least one vnode per server");
        Self {
            ring: Vec::new(),
            vnodes,
            distinct: 0,
        }
    }

    /// Adds a server's vnodes to the ring (idempotent).
    pub fn add_server(&mut self, server: ServerId) {
        if self.ring.iter().any(|&(_, s)| s == server) {
            return;
        }
        for v in 0..self.vnodes {
            self.ring.push((hash64(&(server.raw(), v)), server));
        }
        self.ring.sort_unstable();
        self.distinct += 1;
    }

    /// Removes a server's vnodes.
    pub fn remove_server(&mut self, server: ServerId) {
        let before = self.ring.len();
        self.ring.retain(|&(_, s)| s != server);
        if self.ring.len() != before {
            self.distinct -= 1;
        }
    }

    /// The server owning `key`: the first vnode clockwise from the
    /// key's hash (binary search). Returns `None` on an empty ring.
    pub fn server_for(&self, key: &AppKey) -> Option<ServerId> {
        if self.ring.is_empty() {
            return None;
        }
        let h = hash64(&key.as_bytes());
        let idx = self.ring.partition_point(|&(vh, _)| vh < h);
        let idx = if idx == self.ring.len() { 0 } else { idx };
        self.ring.get(idx).map(|&(_, s)| s)
    }
}

/// Fraction of `keys` whose owner changes between two ownership
/// functions — the resharding disruption metric.
pub fn disruption(
    keys: &[AppKey],
    before: impl Fn(&AppKey) -> Option<ServerId>,
    after: impl Fn(&AppKey) -> Option<ServerId>,
) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let moved = keys.iter().filter(|k| before(k) != after(k)).count();
    moved as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<AppKey> {
        (0..n)
            .map(|i| AppKey::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect()
    }

    /// 1,000 pinned keys of 0 to 40 bytes: 8-byte integers, printable
    /// strings either side of `AppKey`'s inline boundary, raw bytes.
    fn pinned_keys() -> Vec<AppKey> {
        (0..1000u64)
            .map(|i| match i % 4 {
                0 => AppKey::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15)),
                1 => AppKey::new(format!("user:{i}:{}", "x".repeat(i as usize % 31))),
                2 => AppKey::new(vec![(i % 251) as u8; i as usize % 41]),
                _ => AppKey::new(i.to_le_bytes().repeat(i as usize % 6)),
            })
            .collect()
    }

    /// Both baselines place a key by the `DefaultHasher` hash of its
    /// bytes, so how `AppKey` stores them must not show. The picks are
    /// those of the `Vec<u8>`-backed key (recorded at PR 17), one digit
    /// per pinned key: a task of 16 in hex, a ring server of 10.
    #[test]
    fn placements_of_pinned_keys_are_the_recorded_ones() {
        const STATIC_16: &str = "\
             e27382185991aa3b3767bda58f3191178d49e04a58be4aba9ef33993980a844c\
             2e434c48c2fa74c98f56171ceed0ee46d47fe6e889b02b01ab147ea416900fd8\
             aaf215ba5836ad872d0de2548eec2ba27455ec035ffd0bdfcc15d08388e1f1f4\
             2ac670399298340eead50349c7b9ffc054c8b55b5d12500cbd3cd859c244aa41\
             a71b7b4baf99c8a442a693d954f0ee1d3bcec08944c453c61775fc08d7be5239\
             dfd745139747e1d7b6de1be144db20e2585f24bfe372213ad1e36f98a6f4010d\
             a0d9a17209a14e27c7eacdb18453198b19c30603c18f58afaf4d5bf8f449a1c7\
             a506952daa2ff17b7f7c42a365b5ee0d18d99bf8b720f7b2bcedb562dbf32140\
             01e81a8e6eb8f263475b120342299bf0402ca5082e3cb1127179887605d9cc5d\
             0181bae29e44416bc31af724c062c7129f741291810c301ca52d6eb35e23a77f\
             342d4ae2f837646fc02040a8db1b59d25df8c3614e86a8b0906e7b141bda2f6f\
             97f1b5d53c81e189197d434158994cc4c458899ca0a3738a8d2d3410b08123ee\
             c87e15fb19b388942746c1af56441b4d747854683213d02341f881043f327a8c\
             926bcbdde6f9b5567ef5e57618e762b171468bfc13a4f6b791e1464bc5d2ddb5\
             19863d5903047443a0086da4269d41b7d54dc336a64ff57b4d1ff425a0c8ac68\
             d33e359d2017b06874970387061ee7bb2717a4ef";
        const RING_10: &str = "\
             1366547321793351080584858751872833715067145416577995764077988750\
             4641816662969764850447890075452635673357212667415052945570188473\
             9022286316464955650964967476677323540944816509923840428150677624\
             6524532613234769490731732157617396664874808906946509570488324055\
             0759575532212431279000262635796078058536867556610573465399941082\
             7338268820975210715326821469730253990603244610345511546612718269\
             0262828051702332492572689603256270291466156981159163654296897003\
             3764610587993593101626636657574659553589685607131866478625740511\
             6615249081538900272664074212056171769948436076145017571660899605\
             8435106890226926517209550218663481077659780412549177113043367465\
             6145456431700722942157679299618554687927820706991093305495114664\
             8768508075222420679176840807001611097855112552064959086357486050\
             8060365056673566808701067974286784201897697475021043477823130467\
             7125356713598082102555080345133636646900341299036423174689649575\
             9966790537137275504270017316659328316247618956078162080841478049\
             0370063702787768625745631343411685156883";
        let keys = pinned_keys();
        let s = StaticSharding::new(16);
        let picks: String = keys
            .iter()
            .map(|k| format!("{:x}", s.server_for(k).raw()))
            .collect();
        assert_eq!(picks, STATIC_16);
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..10 {
            ring.add_server(ServerId(i));
        }
        let picks: String = keys
            .iter()
            .map(|k| ring.server_for(k).unwrap().raw().to_string())
            .collect();
        assert_eq!(picks, RING_10);
    }

    #[test]
    fn static_sharding_is_deterministic_and_bounded() {
        let s = StaticSharding::new(16);
        for k in keys(1000) {
            let a = s.server_for(&k);
            assert_eq!(a, s.server_for(&k));
            assert!(a.raw() < 16);
        }
    }

    #[test]
    fn static_sharding_balances_roughly() {
        let s = StaticSharding::new(10);
        let mut counts = [0usize; 10];
        for k in keys(10_000) {
            counts[s.server_for(&k).raw() as usize] += 1;
        }
        for c in counts {
            assert!((700..=1300).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn ring_covers_all_servers_roughly_evenly() {
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..10 {
            ring.add_server(ServerId(i));
        }
        let mut counts = [0usize; 10];
        for k in keys(10_000) {
            counts[ring.server_for(&k).unwrap().raw() as usize] += 1;
        }
        for c in counts {
            assert!((500..=1600).contains(&c), "skewed ring bucket: {c}");
        }
    }

    #[test]
    fn empty_ring_returns_none() {
        let ring = ConsistentHashRing::new(8);
        assert!(ring.server_for(&AppKey::from_u64(1)).is_none());
    }

    #[test]
    fn consistent_hashing_moves_about_one_nth_on_grow() {
        // The scheme's selling point: adding the 11th server moves
        // ~1/11 of keys.
        let ks = keys(20_000);
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..10 {
            ring.add_server(ServerId(i));
        }
        let before: std::collections::HashMap<&AppKey, Option<ServerId>> =
            ks.iter().map(|k| (k, ring.server_for(k))).collect();
        ring.add_server(ServerId(10));
        let moved = disruption(&ks, |k| before[k], |k| ring.server_for(k));
        assert!(
            (0.03..=0.20).contains(&moved),
            "expected ~1/11 ≈ 9% of keys to move, got {:.1}%",
            moved * 100.0
        );
        // And every key that moved went to the new server.
        for k in &ks {
            let now = ring.server_for(k);
            if now != before[k] {
                assert_eq!(now, Some(ServerId(10)));
            }
        }
    }

    #[test]
    fn static_sharding_moves_almost_everything_on_grow() {
        // §2.2.1: resharding a statically sharded app is disruptive —
        // going from 10 to 11 tasks remaps ~(1 - 1/11) ≈ 91% of keys.
        let ks = keys(20_000);
        let s10 = StaticSharding::new(10);
        let s11 = StaticSharding::new(11);
        let moved = disruption(
            &ks,
            |k| Some(s10.server_for(k)),
            |k| Some(s11.server_for(k)),
        );
        assert!(
            moved > 0.80,
            "static resharding should move most keys, got {:.1}%",
            moved * 100.0
        );
    }

    #[test]
    fn ring_removal_only_moves_the_removed_servers_keys() {
        let ks = keys(20_000);
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..8 {
            ring.add_server(ServerId(i));
        }
        let before: Vec<Option<ServerId>> = ks.iter().map(|k| ring.server_for(k)).collect();
        ring.remove_server(ServerId(3));
        for (i, k) in ks.iter().enumerate() {
            let now = ring.server_for(k);
            if before[i] != Some(ServerId(3)) {
                assert_eq!(now, before[i], "unaffected key moved");
            } else {
                assert_ne!(now, Some(ServerId(3)));
            }
        }
    }
}
