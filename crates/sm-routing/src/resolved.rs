//! The immutable per-(app, version) resolution kernel.
//!
//! A [`ResolvedMap`] is made once per installed shard-map version and
//! never mutated: key → shard resolution is a binary search over a
//! sorted slice of range starts (accelerated by a packed 8-byte key
//! prefix column, so most comparisons are a single `u64` compare), and
//! what the search finds is one fused `RangeEntry` holding the
//! range's shard and that shard's primary server. The common
//! `route(key)` path is therefore **one** binary search plus one
//! 16-byte read — no table walk, no allocation, no locking. Only a
//! shard without a primary goes on to the [`ShardMap`] the kernel was
//! resolved from, which also serves shard → replica-set resolution.
//! The kernel holds that map itself, sharing every leaf with the
//! publisher's.
//!
//! The start, prefix and end columns are the sharding spec's alone, so
//! they are `Arc`s, like the shard → range column: [`ResolvedMap::build`]
//! fills them when a spec is new, and [`ResolvedMap::with_map`] — every
//! later version beside that spec — shares them and re-reads the 16-byte
//! entry only of the ranges whose shards sit in leaves the new map and
//! the held one do not share.
//!
//! Every route is this kernel's: the simulated clients of the DES
//! worlds hold the kernels their publishers built (one per partition
//! where a world runs several mini-SMs, each kept until its partition's
//! next one), and [`crate::ConcurrentRouter`] (shared by N threads,
//! cached per handle) hands its handles the same type, so the
//! deterministic oracles exercise the exact code the throughput bench
//! measures.

use sm_types::{AppKey, ServerId, ShardId, ShardMap, ShardMapEntry, ShardingSpec, SmError};
use std::sync::Arc;

/// Where a request should go.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteDecision {
    /// The shard owning the key.
    pub shard: ShardId,
    /// The chosen server.
    pub server: ServerId,
    /// The map version the decision was based on (for staleness
    /// diagnostics).
    pub map_version: u64,
}

/// Sentinel [`RangeEntry::primary`]: the map names no primary for the
/// shard (or lacks the shard), so the route goes through the map. A
/// server with this very id takes that way too and gets the same answer.
const NO_SERVER: u32 = u32::MAX;

/// All a route reads once the search has found its range.
#[derive(Clone, Copy, Debug)]
struct RangeEntry {
    /// Owning shard of the range.
    shard: ShardId,
    /// Raw id of the shard's first primary replica, or [`NO_SERVER`].
    primary: u32,
    /// Whether keys lie between this range's end and the next range's
    /// start (or past a bounded last range). Only then is the end key
    /// compared.
    gap_after: bool,
}

/// The first eight bytes of a key, big-endian, zero-padded — an order-
/// preserving prefix: `prefix64(a) < prefix64(b)` implies `a < b`, and
/// `a <= b` implies `prefix64(a) <= prefix64(b)`. Ties fall back to a
/// full lexicographic compare.
// sm-lint: hot-path
fn prefix64(bytes: &[u8]) -> u64 {
    let mut out = [0u8; 8];
    for (dst, src) in out.iter_mut().zip(bytes.iter()) {
        *dst = *src;
    }
    u64::from_be_bytes(out)
}

/// The fused entry of each `(shard, gap_after)` range against `map`.
/// Ranges in key order mostly name shards in id order, so the map's
/// entries are walked forward beside them; a range the walk does not
/// meet is looked up. The walk decides what a range costs, never what
/// its entry holds.
fn fuse(map: &ShardMap, ranges: impl Iterator<Item = (ShardId, bool)>) -> Arc<[RangeEntry]> {
    let mut walk = map.entries.iter().peekable();
    let fused = ranges.map(|(shard, gap_after)| {
        while walk.next_if(|(id, _)| **id < shard).is_some() {}
        let entry = match walk.next_if(|(id, _)| **id == shard) {
            Some((_, entry)) => Some(entry),
            None => map.entry(shard),
        };
        RangeEntry {
            shard,
            primary: primary_of(entry),
            gap_after,
        }
    });
    fused.collect()
}

/// The first index at or past `from` whose shard is not below `shard`:
/// a gallop from `from`, so shards sought in ascending order cost the log
/// of the distance between them.
fn seek(by_shard: &[(ShardId, u32)], from: usize, shard: ShardId) -> usize {
    let (mut at, mut step) = (from, 1);
    while by_shard.get(at + step).is_some_and(|(s, _)| *s < shard) {
        at += step;
        step *= 2;
    }
    let end = (at + step + 1).min(by_shard.len());
    let window = by_shard.get(at..end).unwrap_or_default();
    at + window.partition_point(|(s, _)| *s < shard)
}

/// [`RangeEntry::primary`] of a shard's entry, or of a shard the map
/// lacks.
fn primary_of(entry: Option<&ShardMapEntry>) -> u32 {
    entry
        .and_then(ShardMapEntry::primary)
        .map_or(NO_SERVER, ServerId::raw)
}

/// One app's sharding spec and shard map, resolved into flat sorted
/// columns for allocation-free, lock-free routing.
#[derive(Clone, Debug, Default)]
pub struct ResolvedMap {
    /// The shard-map version this kernel was built from: `map.version`,
    /// kept beside the columns every route reads.
    version: u64,
    /// 8-byte big-endian prefixes of `starts`, the binary-search
    /// fast column. This and the next two columns are the spec's alone,
    /// so every version resolved beside one spec shares them.
    starts_p64: Arc<[u64]>,
    /// Range start keys, ascending (the tie-break column).
    starts: Arc<[AppKey]>,
    /// Range end keys (`None` = unbounded), parallel to `starts`; read
    /// only where `gap_after` is set.
    ends: Arc<[Option<AppKey>]>,
    /// `(shard, index of its range)`, ascending: the spec's, shared
    /// like `starts`.
    by_shard: Arc<[(ShardId, u32)]>,
    /// The fused per-range entries, parallel to `starts`; versions
    /// share it until one of its entries changes.
    ranges: Arc<[RangeEntry]>,
    /// The map resolved: shard → replica set, for a shard without a
    /// primary and for `route_shard` / `route_nearest`.
    map: ShardMap,
}

impl ResolvedMap {
    /// Resolves `spec` (if known) against `map` into the dense form.
    ///
    /// Cost is O(ranges + shards), with a clone of every range's keys:
    /// paid when an app's spec is new to the router. The next version
    /// beside the same spec is [`Self::with_map`]'s.
    pub fn build(spec: Option<&ShardingSpec>, map: &ShardMap) -> Self {
        let Some(spec) = spec else {
            return Self {
                version: map.version,
                map: map.clone(),
                ..Self::default()
            };
        };
        // `ShardingSpec::iter` yields ranges sorted by start, so the
        // columns come out sorted without another sort pass.
        let next_starts = spec.iter().skip(1).map(|(range, _)| Some(&range.start));
        let gaps = spec.iter().zip(next_starts.chain([None]));
        let gaps = gaps.map(|((range, _), next)| range.end.as_ref() != next);
        let mut by_shard: Vec<(ShardId, u32)> = (spec.iter().enumerate())
            .map(|(i, (_, shard))| (*shard, i as u32))
            .collect();
        by_shard.sort_unstable();
        Self {
            version: map.version,
            starts_p64: spec
                .iter()
                .map(|(r, _)| prefix64(r.start.as_bytes()))
                .collect(),
            starts: spec.iter().map(|(r, _)| r.start.clone()).collect(),
            ends: spec.iter().map(|(r, _)| r.end.clone()).collect(),
            by_shard: by_shard.into(),
            ranges: fuse(map, spec.iter().map(|(_, shard)| *shard).zip(gaps)),
            map: map.clone(),
        }
    }

    /// The kernel of `map` beside the spec `self` was resolved against:
    /// the spec's columns are shared, and what is read again is the
    /// primary of each range whose shard sits in a leaf that `map` and
    /// the map `self` holds do not share — no key is cloned or
    /// compared. The kernel keeps `map` itself. Only right while that
    /// spec stands; a new spec is a [`Self::build`].
    pub fn with_map(&self, map: ShardMap) -> Self {
        Self {
            version: map.version,
            starts_p64: self.starts_p64.clone(),
            starts: self.starts.clone(),
            ends: self.ends.clone(),
            by_shard: self.by_shard.clone(),
            ranges: self.fuse_changed(&map).0,
            map,
        }
    }

    /// [`Self::with_map`]'s range column, and how many range entries it
    /// wrote.
    fn fuse_changed(&self, map: &ShardMap) -> (Arc<[RangeEntry]>, usize) {
        let (held, next) = (&self.map.entries, &map.entries);
        // The shards of the leaves only one of the two maps has, in id
        // order: each with its entry in `map`, or none when only the held
        // map has it. Every other shard kept its entry.
        let mut gone = held
            .leaves_not_in(next)
            .flatten()
            .map(|(id, _)| *id)
            .peekable();
        let mut now = next.leaves_not_in(held).flatten().peekable();
        let changed = std::iter::from_fn(|| {
            let next = now.peek().map(|(id, _)| *id);
            match gone.next_if(|id| next.is_none_or(|n| *id < n)) {
                Some(id) => Some((id, None)),
                None => {
                    gone.next_if(|id| Some(*id) == next);
                    now.next().map(|(id, entry)| (*id, Some(entry)))
                }
            }
        });
        let mut ranges = self.ranges.clone();
        let (mut at, mut written) = (0, 0);
        for (shard, entry) in changed {
            at = seek(&self.by_shard, at, shard);
            let Some(&(_, range)) = self.by_shard.get(at).filter(|(s, _)| *s == shard) else {
                continue;
            };
            let (range, primary) = (range as usize, primary_of(entry));
            written += 1;
            // The column is copied once, at its first changed entry.
            if ranges.get(range).is_some_and(|e| e.primary != primary) {
                if let Some(e) = Arc::make_mut(&mut ranges).get_mut(range) {
                    e.primary = primary;
                }
            }
        }
        (ranges, written)
    }

    /// The shard-map version this kernel resolves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard map this kernel resolves.
    pub(crate) fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The entry of the range containing `key`, or `None` when the key
    /// falls in a gap (or no spec was available).
    ///
    /// `partition_point`-style binary search over the start column:
    /// the prefix column decides all but prefix-tied comparisons with
    /// one `u64` compare each.
    // sm-lint: hot-path
    fn covering_range(&self, key: &AppKey) -> Option<&RangeEntry> {
        let kp = prefix64(key.as_bytes());
        let mut lo = 0usize;
        let mut hi = self.starts_p64.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let sp = self.starts_p64.get(mid).copied()?;
            // Is starts[mid] <= key?  Decided by the prefix unless tied.
            let le = if sp < kp {
                true
            } else if sp > kp {
                false
            } else {
                self.starts.get(mid).is_some_and(|s| s <= key)
            };
            if le {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let idx = lo.checked_sub(1)?;
        let entry = self.ranges.get(idx)?;
        if entry.gap_after && self.ends.get(idx)?.as_ref().is_some_and(|end| key >= end) {
            return None;
        }
        Some(entry)
    }

    /// Resolves the shard owning `key`, or `None` for gap keys / no
    /// spec.
    // sm-lint: hot-path
    pub fn shard_for(&self, key: &AppKey) -> Option<ShardId> {
        self.covering_range(key).map(|entry| entry.shard)
    }

    /// Routes `key` preferring the shard's primary; secondary-only
    /// shards round-robin across replicas via the caller-owned cursor.
    ///
    /// One binary search, then the range's fused entry — no allocation
    /// on any path, and no map read when the shard has a primary.
    // sm-lint: hot-path
    pub fn route(&self, key: &AppKey, rr_cursor: &mut u64) -> Result<RouteDecision, SmError> {
        let Some(entry) = self.covering_range(key) else {
            return Err(SmError::not_found(format!("no shard covers key {key}")));
        };
        if entry.primary == NO_SERVER {
            return self.route_shard(entry.shard, rr_cursor);
        }
        Ok(RouteDecision {
            shard: entry.shard,
            server: ServerId(entry.primary),
            map_version: self.version,
        })
    }

    /// Routes directly to `shard`, preferring its primary.
    // sm-lint: hot-path
    pub fn route_shard(
        &self,
        shard: ShardId,
        rr_cursor: &mut u64,
    ) -> Result<RouteDecision, SmError> {
        self.decide(shard, self.entry(shard)?, rr_cursor)
    }

    /// Routes `key` to the replica of its shard that `distance` puts
    /// closest — how geo-distributed reads pick a local replica (§8.3).
    /// The metric is the caller's (say, base latency from the client's
    /// region to the server's), with `f64::INFINITY` for a server it
    /// cannot place; equally near replicas keep map order.
    pub fn route_nearest(
        &self,
        key: &AppKey,
        distance: impl Fn(ServerId) -> f64,
    ) -> Result<RouteDecision, SmError> {
        let shard = self
            .shard_for(key)
            .ok_or_else(|| SmError::not_found(format!("no shard covers key {key}")))?;
        let server = self
            .entry(shard)?
            .servers()
            .min_by(|a, b| {
                // NaN (a corrupt latency table) degrades to an
                // arbitrary-but-served replica instead of panicking.
                distance(*a)
                    .partial_cmp(&distance(*b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| SmError::Unavailable(format!("{shard} has no replicas")))?;
        Ok(RouteDecision {
            shard,
            server,
            map_version: self.version,
        })
    }

    /// `shard`'s entry, or the error a route to a shard the map lacks
    /// ends in.
    // sm-lint: hot-path
    fn entry(&self, shard: ShardId) -> Result<&ShardMapEntry, SmError> {
        self.map
            .entry(shard)
            .ok_or_else(|| SmError::Unavailable(format!("{shard} not in map v{}", self.version)))
    }

    /// Picks a server for an already-resolved `(shard, entry)` pair: the
    /// first primary in replica order, else the next replica round-robin.
    // sm-lint: hot-path
    fn decide(
        &self,
        shard: ShardId,
        entry: &ShardMapEntry,
        rr_cursor: &mut u64,
    ) -> Result<RouteDecision, SmError> {
        let server = match entry.primary() {
            Some(primary) => primary,
            None => {
                // Secondary-only: round-robin straight off the replica
                // list — no intermediate Vec.
                let replicas = &entry.replicas;
                *rr_cursor = rr_cursor.wrapping_add(1);
                let n = replicas.len();
                let picked = match n {
                    0 => None,
                    _ => replicas.get((*rr_cursor as usize) % n).map(|r| r.server),
                };
                picked.ok_or_else(|| SmError::Unavailable(format!("{shard} has no replicas")))?
            }
        };
        Ok(RouteDecision {
            shard,
            server,
            map_version: self.version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{
        Assignment, KeyRange, RegionId, ReplicaAssignment, ReplicaRole, ShardMapEntry, ShardTable,
    };
    use std::collections::BTreeMap;

    fn assignment(shards: u64) -> Assignment {
        let mut a = Assignment::new();
        for s in 0..shards {
            a.add_replica(ShardId(s), ServerId(s as u32), ReplicaRole::Primary)
                .unwrap();
            a.add_replica(ShardId(s), ServerId(s as u32 + 100), ReplicaRole::Secondary)
                .unwrap();
        }
        a
    }

    /// The kernel as it was before the fused entry: after the search
    /// a route walked `ends`, `range_shards` and a by-shard lookup of the
    /// shard's replicas. `covering_range`, `route`, `route_shard` and
    /// `decide` are kept as the model, over a plain `BTreeMap` in the
    /// place of the flat table the kernel of that day searched.
    struct ColumnWalk {
        version: u64,
        starts_p64: Vec<u64>,
        starts: Vec<AppKey>,
        ends: Vec<Option<AppKey>>,
        range_shards: Vec<ShardId>,
        table: BTreeMap<ShardId, ShardMapEntry>,
    }

    impl ColumnWalk {
        fn build(spec: Option<&ShardingSpec>, map: &ShardMap) -> Self {
            let mut out = Self {
                version: map.version,
                starts_p64: Vec::new(),
                starts: Vec::new(),
                ends: Vec::new(),
                range_shards: Vec::new(),
                table: map.entries.iter().map(|(s, e)| (*s, e.clone())).collect(),
            };
            for (range, shard) in spec.iter().flat_map(|s| s.iter()) {
                out.starts_p64.push(prefix64(range.start.as_bytes()));
                out.starts.push(range.start.clone());
                out.ends.push(range.end.clone());
                out.range_shards.push(*shard);
            }
            out
        }

        fn covering_range(&self, key: &AppKey) -> Option<usize> {
            let kp = prefix64(key.as_bytes());
            let mut lo = 0usize;
            let mut hi = self.starts.len();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let sp = self.starts_p64.get(mid).copied()?;
                // Is starts[mid] <= key?  Decided by the prefix unless tied.
                let le = if sp < kp {
                    true
                } else if sp > kp {
                    false
                } else {
                    self.starts.get(mid).is_some_and(|s| s <= key)
                };
                if le {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let idx = lo.checked_sub(1)?;
            match self.ends.get(idx)? {
                Some(end) if key >= end => None,
                _ => Some(idx),
            }
        }

        fn shard_for(&self, key: &AppKey) -> Option<ShardId> {
            let idx = self.covering_range(key)?;
            self.range_shards.get(idx).copied()
        }

        fn route(&self, key: &AppKey, rr_cursor: &mut u64) -> Result<RouteDecision, SmError> {
            let idx = match self.covering_range(key) {
                Some(i) => i,
                None => {
                    return Err(SmError::not_found(format!("no shard covers key {key}")));
                }
            };
            let shard =
                self.range_shards.get(idx).copied().ok_or_else(|| {
                    SmError::Unavailable("resolved columns out of sync".to_string())
                })?;
            let Some(entry) = self.table.get(&shard) else {
                return Err(SmError::Unavailable(format!(
                    "{shard} not in map v{}",
                    self.version
                )));
            };
            self.decide(shard, entry, rr_cursor)
        }

        fn route_shard(
            &self,
            shard: ShardId,
            rr_cursor: &mut u64,
        ) -> Result<RouteDecision, SmError> {
            let entry = self.table.get(&shard).ok_or_else(|| {
                SmError::Unavailable(format!("{shard} not in map v{}", self.version))
            })?;
            self.decide(shard, entry, rr_cursor)
        }

        fn decide(
            &self,
            shard: ShardId,
            entry: &ShardMapEntry,
            rr_cursor: &mut u64,
        ) -> Result<RouteDecision, SmError> {
            let first_primary = entry
                .replicas
                .iter()
                .find(|r| r.role == ReplicaRole::Primary);
            let server = match first_primary {
                Some(primary) => primary.server,
                None => {
                    let replicas: Vec<ServerId> = entry.replicas.iter().map(|r| r.server).collect();
                    *rr_cursor = rr_cursor.wrapping_add(1);
                    let n = replicas.len();
                    let picked = match n {
                        0 => None,
                        _ => replicas.get((*rr_cursor as usize) % n).copied(),
                    };
                    picked
                        .ok_or_else(|| SmError::Unavailable(format!("{shard} has no replicas")))?
                }
            };
            Ok(RouteDecision {
                shard,
                server,
                map_version: self.version,
            })
        }
    }

    /// The fused column as `(shard, primary, gap_after)`.
    fn column(kernel: &ResolvedMap) -> Vec<(ShardId, u32, bool)> {
        (kernel.ranges.iter())
            .map(|e| (e.shard, e.primary, e.gap_after))
            .collect()
    }

    /// A seeded key: short, long, printable, with runs of zeros, and
    /// often sharing eight or more leading bytes with another.
    fn seeded_key(rng: &mut sm_sim::SimRng) -> AppKey {
        const STEMS: [&[u8]; 6] = [
            b"",
            b"ab",
            b"ab\0",
            &[0; 8],
            b"abcdefgh",
            b"a-stem-of-more-than-22-bytes",
        ];
        let mut bytes = match rng.index(3) {
            0 => rng.next_u64().to_be_bytes().to_vec(),
            _ => STEMS[rng.index(STEMS.len())].to_vec(),
        };
        for _ in 0..rng.index(4) {
            bytes.push([0, 1, b'x', 0xff][rng.index(4)]);
        }
        AppKey::new(bytes)
    }

    /// A seeded spec (none, and an empty one, among them), the shards
    /// it names and the sorted boundaries its ranges were cut at: each
    /// range ends at the next boundary or, one time in three, short of
    /// it (a gap).
    fn seeded_spec(
        rng: &mut sm_sim::SimRng,
        case: u64,
    ) -> (Option<ShardingSpec>, Vec<ShardId>, Vec<AppKey>) {
        let mut bounds: Vec<AppKey> = (0..rng.index(14)).map(|_| seeded_key(rng)).collect();
        bounds.sort();
        bounds.dedup();
        let mut entries = Vec::new();
        let mut shard_ids = Vec::new();
        for (i, pair) in bounds.windows(2).enumerate() {
            let gap_end = KeyRange::new(pair[0].clone(), pair[1].clone()).midpoint();
            let end = match gap_end {
                Some(mid) if rng.index(3) == 0 => mid,
                _ => pair[1].clone(),
            };
            // Ids in no key order, so the by-shard table and the
            // key columns disagree about what comes first.
            let shard = ShardId((i as u64 * 7 + case) % 23);
            if rng.index(8) > 0 && !shard_ids.contains(&shard) {
                shard_ids.push(shard);
                entries.push((KeyRange::new(pair[0].clone(), end), shard));
            }
        }
        if let (Some(last), true) = (bounds.last(), rng.chance(0.5)) {
            shard_ids.push(ShardId(100));
            entries.push((KeyRange::from(last.clone()), ShardId(100)));
        }
        let spec = match case % 10 {
            0 => None,
            1 => Some(ShardingSpec::new(Vec::new()).unwrap()),
            _ => Some(ShardingSpec::new(entries).unwrap()),
        };
        (spec, shard_ids, bounds)
    }

    /// A seeded map: per shard absent, replica-less, secondary-only, or
    /// with a primary anywhere among its replicas (twice, sometimes: the
    /// first one counts).
    fn seeded_map(rng: &mut sm_sim::SimRng, shard_ids: &[ShardId], version: u64) -> ShardMap {
        let mut map = ShardMap {
            version,
            entries: ShardTable::default(),
        };
        for shard in shard_ids.iter().copied().chain([ShardId(200)]) {
            let replicas = |rng: &mut sm_sim::SimRng, n: usize, primaries: usize| {
                let mut out: Vec<ReplicaAssignment> = (0..n)
                    .map(|i| ReplicaAssignment {
                        server: ServerId(rng.index(50) as u32),
                        role: if i < primaries {
                            ReplicaRole::Primary
                        } else {
                            ReplicaRole::Secondary
                        },
                    })
                    .collect();
                rng.shuffle(&mut out);
                out
            };
            let some = 1 + rng.index(3);
            let replicas = match rng.index(8) {
                0 => continue,
                1 => Vec::new(),
                2 | 3 => replicas(rng, some, 0),
                4 => replicas(rng, 3, 2),
                // A server whose id is the entry's sentinel.
                5 => vec![ReplicaAssignment {
                    server: ServerId(u32::MAX),
                    role: ReplicaRole::Primary,
                }],
                _ => replicas(rng, some, 1),
            };
            map.entries.insert(shard, ShardMapEntry { replicas });
        }
        map
    }

    /// Probes: every boundary, just past it, and fresh keys.
    fn seeded_probes(rng: &mut sm_sim::SimRng, bounds: &[AppKey]) -> Vec<AppKey> {
        let mut probes = bounds.to_vec();
        for b in bounds {
            let mut past = b.as_bytes().to_vec();
            past.push(0);
            probes.push(AppKey::new(past));
        }
        probes.extend((0..40).map(|_| seeded_key(rng)));
        probes.push(AppKey::new([0u8; 8]));
        probes.push(AppKey::min());
        probes
    }

    #[test]
    fn fused_route_equals_the_column_walk() {
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0018);
        let mut routes: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..300u64 {
            let (spec, shard_ids, bounds) = seeded_spec(&mut rng, case);
            let map = seeded_map(&mut rng, &shard_ids, case + 1);
            let fused = ResolvedMap::build(spec.as_ref(), &map);
            let model = ColumnWalk::build(spec.as_ref(), &map);
            let probes = seeded_probes(&mut rng, &bounds);
            let (mut rr_fused, mut rr_model) = (case, case);
            for key in &probes {
                assert_eq!(
                    fused.shard_for(key),
                    model.shard_for(key),
                    "case {case}: {key:?}"
                );
                if let Some(spec) = &spec {
                    assert_eq!(
                        fused.shard_for(key),
                        spec.shard_for(key),
                        "case {case}: {key:?}"
                    );
                }
                let got = fused.route(key, &mut rr_fused);
                assert_eq!(got, model.route(key, &mut rr_model), "case {case}: {key:?}");
                assert_eq!(rr_fused, rr_model, "case {case}: {key:?}");
                let kind = match &got {
                    Ok(d) if fused.map.entry(d.shard).unwrap().primary() == Some(d.server) => {
                        "primary"
                    }
                    Ok(_) => "round robin",
                    Err(SmError::NotFound(_)) => "gap",
                    Err(SmError::Unavailable(m)) if m.contains("not in map") => "not in map",
                    Err(SmError::Unavailable(m)) if m.contains("no replicas") => "no replicas",
                    Err(other) => panic!("case {case}: {other}"),
                };
                *routes.entry(kind).or_insert(0) += 1;
            }
            for shard in (0..23).chain([100, 200, 300]).map(ShardId) {
                assert_eq!(
                    fused.route_shard(shard, &mut rr_fused),
                    model.route_shard(shard, &mut rr_model),
                    "case {case}: {shard}"
                );
                assert_eq!(rr_fused, rr_model, "case {case}: {shard}");
            }
        }
        // Every way a route can end was taken, each many times.
        assert_eq!(routes.len(), 5, "{routes:?}");
        assert!(routes.values().all(|&n| n > 300), "{routes:?}");
    }

    /// A uniform spec some of whose shards split, a child sometimes
    /// again: the children take the next ids past every shard so far, so
    /// the ranges name shards out of id order. The parents stay among the
    /// ids, as a map during a split still carries them.
    fn split_spec(rng: &mut sm_sim::SimRng) -> (ShardingSpec, Vec<ShardId>) {
        let n = 2 + rng.index(30) as u64;
        let mut spec = ShardingSpec::uniform_u64(n);
        let mut ids: Vec<ShardId> = (0..n).map(ShardId).collect();
        for _ in 0..rng.index(4) {
            let parent = ids[rng.index(ids.len())];
            let Some(at) = spec.range_of(parent).and_then(KeyRange::midpoint) else {
                continue;
            };
            let (left, right) = (ShardId(ids.len() as u64), ShardId(ids.len() as u64 + 1));
            if let Ok(split) = spec.split_shard(parent, &at, left, right) {
                spec = split;
                ids.extend([left, right]);
            }
        }
        (spec, ids)
    }

    #[test]
    fn the_fuse_walk_equals_a_lookup_per_range() {
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0030);
        let mut cases: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..400u64 {
            let (spec, shard_ids) = match seeded_spec(&mut rng, case) {
                (Some(spec), ids, _) if case % 2 == 0 => (spec, ids),
                _ => split_spec(&mut rng),
            };
            let before = seeded_map(&mut rng, &shard_ids, 1);
            let map = seeded_map(&mut rng, &shard_ids, 2);
            let built = ResolvedMap::build(Some(&spec), &map);
            let kept = ResolvedMap::build(Some(&spec), &before).with_map(map.clone());
            let named: Vec<ShardId> = spec.shard_ids().collect();
            for kernel in [&built, &kept] {
                assert_eq!(kernel.ranges.len(), named.len(), "case {case}");
                for (got, &shard) in kernel.ranges.iter().zip(&named) {
                    let primary = map.entry(shard).and_then(ShardMapEntry::primary);
                    let want = primary.map_or(NO_SERVER, ServerId::raw);
                    assert_eq!((got.shard, got.primary), (shard, want), "case {case}");
                }
            }
            let lacked = named.iter().any(|s| map.entry(*s).is_none());
            let unnamed = map.entries.iter().any(|(s, _)| !named.contains(s));
            let occurred = [
                ("ranges in id order", named.windows(2).any(|p| p[0] < p[1])),
                (
                    "ranges out of id order",
                    named.windows(2).any(|p| p[0] > p[1]),
                ),
                ("range shards the map lacks", lacked),
                ("map shards no range names", unnamed),
            ];
            for (kind, occurred) in occurred {
                *cases.entry(kind).or_insert(0) += u32::from(occurred);
            }
        }
        assert_eq!(cases.len(), 4, "{cases:?}");
        assert!(cases.values().all(|&n| n >= 50), "{cases:?}");
    }

    /// `got` answers as `want` does — decisions, error strings and the
    /// cursor's advance — for every probe and every shard id in use.
    fn assert_same_answers(got: &ResolvedMap, want: &ResolvedMap, probes: &[AppKey], case: u64) {
        let (mut rr_got, mut rr_want) = (case, case);
        let far = |server: ServerId| f64::from(server.raw() % 7);
        for key in probes {
            let route = got.route(key, &mut rr_got);
            assert_eq!(route, want.route(key, &mut rr_want), "case {case}: {key:?}");
            let nearest = got.route_nearest(key, far);
            assert_eq!(
                nearest,
                want.route_nearest(key, far),
                "case {case}: {key:?}"
            );
        }
        for shard in (0..23).chain([100, 200, 300]).map(ShardId) {
            let route = got.route_shard(shard, &mut rr_got);
            let wanted = want.route_shard(shard, &mut rr_want);
            assert_eq!(route, wanted, "case {case}: {shard}");
        }
        assert_eq!(rr_got, rr_want, "case {case}");
    }

    #[test]
    fn an_install_beside_the_same_spec_keeps_every_answer() {
        const APP: sm_types::AppId = sm_types::AppId(1);
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0024);
        let mut shared = 0;
        for case in 0..500u64 {
            let (spec, mut shard_ids, bounds) = seeded_spec(&mut rng, case);
            let first = seeded_map(&mut rng, &shard_ids, 1);
            let second = seeded_map(&mut rng, &shard_ids, 2);
            let probes = seeded_probes(&mut rng, &bounds);

            // The kernel: the columns are the first build's, the answers
            // a fresh build's.
            let built = ResolvedMap::build(spec.as_ref(), &first);
            let kept = built.with_map(second.clone());
            let fresh = ResolvedMap::build(spec.as_ref(), &second);
            assert!(Arc::ptr_eq(&kept.starts, &built.starts) && kept.version() == 2);
            shared += kept.starts.len();
            assert_same_answers(&kept, &fresh, &probes, case);

            // The router: two installs beside one spec (or beside none),
            // then a new spec and a third.
            let router = Arc::new(crate::ConcurrentRouter::new());
            if let Some(spec) = &spec {
                router.register_app(APP, spec.clone());
            }
            assert!(router.install_map(APP, first) && router.install_map(APP, second));
            let mut handle = router.handle().unwrap();
            let mut rr = 0;
            let mut assert_routes_as = |want: &ResolvedMap, probes: &[AppKey]| {
                for key in probes {
                    let route = handle.route(APP, key);
                    assert_eq!(route, want.route(key, &mut rr), "case {case}: {key:?}");
                }
                for shard in (0..23).chain([100, 200, 300]).map(ShardId) {
                    let route = handle.route_shard(APP, shard);
                    assert_eq!(
                        route,
                        want.route_shard(shard, &mut rr),
                        "case {case}: {shard}"
                    );
                }
            };
            match &spec {
                Some(_) => assert_routes_as(&fresh, &probes),
                None => assert_routes_as(&fresh, &[]),
            }
            let (Some(respec), more_ids, bounds) = seeded_spec(&mut rng, case + 3) else {
                continue;
            };
            shard_ids.extend(more_ids);
            let third = seeded_map(&mut rng, &shard_ids, 3);
            router.register_app(APP, respec.clone());
            assert!(router.install_map(APP, third.clone()));
            let fresh = ResolvedMap::build(Some(&respec), &third);
            assert_routes_as(&fresh, &seeded_probes(&mut rng, &bounds));
        }
        assert!(shared > 2_000, "{shared} ranges kept their keys");
    }

    /// A seeded version chain beside one spec: each version moves
    /// replicas, changes roles (leaving some shards primary-less), adds
    /// and drops shards so that leaves split and empty, and now and then
    /// is a map not taken from the held one's assignment. Each install
    /// patched into the held kernel equals a full `fuse`, entry by entry
    /// and route by route.
    #[test]
    fn an_incremental_install_equals_a_full_fuse() {
        let mut rng = sm_sim::SimRng::seeded(0x5eed_0035);
        let (mut foreign, mut versions) = (0, 0);
        for case in 0..60u64 {
            let (spec, ids) = match case % 3 {
                0 => {
                    let n = 64 + rng.index(400) as u64;
                    (ShardingSpec::uniform_u64(n), (0..n).map(ShardId).collect())
                }
                _ => split_spec(&mut rng),
            };
            let bounds: Vec<AppKey> = spec.iter().map(|(r, _)| r.start.clone()).collect();
            let probes = seeded_probes(&mut rng, &bounds);
            // Ids past the spec's too: shards the map has and no range
            // names.
            let pick = |rng: &mut sm_sim::SimRng| match rng.index(10) {
                0 => ShardId(1_000 + rng.index(20) as u64),
                _ => ids[rng.index(ids.len())],
            };
            let server = |rng: &mut sm_sim::SimRng| ServerId(rng.index(12) as u32);
            let mut a = Assignment::new();
            for &shard in &ids {
                if rng.index(6) > 0 {
                    let role = match rng.index(4) {
                        0 => ReplicaRole::Secondary,
                        _ => ReplicaRole::Primary,
                    };
                    a.add_replica(shard, server(&mut rng), role).unwrap();
                }
            }
            let mut kernel = ResolvedMap::build(Some(&spec), &ShardMap::from_assignment(1, &a));
            for version in 2..40u64 {
                for _ in 0..1 + rng.index(6) {
                    let (shard, from, to) = (pick(&mut rng), server(&mut rng), server(&mut rng));
                    let role = match rng.index(3) {
                        0 => ReplicaRole::Primary,
                        _ => ReplicaRole::Secondary,
                    };
                    match rng.index(5) {
                        0 => drop(a.move_replica(shard, from, to)),
                        1 => drop(a.change_role(shard, from, role)),
                        2 => drop(a.add_replica(shard, to, role)),
                        3 => drop(a.remove_replica(shard, from)),
                        // A whole shard goes: its leaf may empty.
                        _ => drop(a.drop_server(from).len()),
                    }
                }
                let map = match rng.index(12) {
                    0 => {
                        foreign += 1;
                        seeded_map(&mut rng, &ids, version)
                    }
                    _ => ShardMap::from_assignment(version, &a),
                };
                kernel = kernel.with_map(map.clone());
                let fresh = ResolvedMap::build(Some(&spec), &map);
                assert_eq!(column(&kernel), column(&fresh), "case {case} v{version}");
                assert_same_answers(&kernel, &fresh, &probes, case);
                let model = ColumnWalk::build(Some(&spec), &map);
                let (mut rr_kernel, mut rr_model) = (case, case);
                for key in &probes {
                    let route = kernel.route(key, &mut rr_kernel);
                    assert_eq!(
                        route,
                        model.route(key, &mut rr_model),
                        "case {case}: {key:?}"
                    );
                }
                versions += 1;
            }
        }
        println!("{versions} versions, {foreign} not taken from the held map");
        assert!(foreign > 50, "{foreign} maps not taken from the held one");
    }

    /// A version that moves one primary rewrites the ranges of the one
    /// leaf it touched, on either side, whatever the fleet's size; one
    /// that changes no primary keeps the held column.
    #[test]
    fn a_one_move_install_rewrites_only_the_ranges_of_its_leaves() {
        let written_at = |shards: u64| {
            let mut a = Assignment::new();
            for s in 0..shards {
                let server = ServerId((s % 64) as u32);
                a.add_replica(ShardId(s), server, ReplicaRole::Primary)
                    .unwrap();
            }
            let spec = ShardingSpec::uniform_u64(shards);
            let kernel = ResolvedMap::build(Some(&spec), &ShardMap::from_assignment(1, &a));
            a.move_replica(ShardId(9), ServerId(9), ServerId(10))
                .unwrap();
            let map = ShardMap::from_assignment(2, &a);
            let (_, written) = kernel.fuse_changed(&map);
            let next = kernel.with_map(map.clone());
            assert_eq!(
                column(&next),
                column(&ResolvedMap::build(Some(&spec), &map))
            );
            a.add_replica(ShardId(9), ServerId(11), ReplicaRole::Secondary)
                .unwrap();
            let last = next.with_map(ShardMap::from_assignment(3, &a));
            assert!(Arc::ptr_eq(&last.ranges, &next.ranges));
            written
        };
        let (small, large) = (written_at(1_024), written_at(16_384));
        println!("one move: {small} ranges written at 1,024, {large} at 16,384");
        assert_eq!(small, large);
        assert!(small <= 2 * 15, "{small} > two leaves' worth");
    }

    #[test]
    fn uniform_ranges_have_no_gap_so_no_end_key_is_compared() {
        let spec = ShardingSpec::uniform_u64(16_384);
        let map = ShardMap::from_assignment(1, &assignment(4));
        let r = ResolvedMap::build(Some(&spec), &map);
        assert_eq!(r.ranges.len(), 16_384);
        assert!(r.ranges.iter().all(|e| !e.gap_after));
        // A bounded last range does have one.
        let spec = ShardingSpec::new(vec![(
            KeyRange::new(AppKey::min(), AppKey::from_u64(9)),
            ShardId(0),
        )])
        .unwrap();
        let r = ResolvedMap::build(Some(&spec), &map);
        assert!(r.ranges.iter().all(|e| e.gap_after));
        assert_eq!(
            std::mem::size_of::<RangeEntry>(),
            16,
            "four to a cache line"
        );
    }

    #[test]
    fn prefix64_preserves_order() {
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 1],
            b"abc".to_vec(),
            b"abcdefgh".to_vec(),
            b"abcdefghi".to_vec(),
            vec![0xff; 12],
        ];
        for a in &keys {
            for b in &keys {
                if prefix64(a) < prefix64(b) {
                    assert!(a < b, "{a:?} {b:?}");
                }
                if a <= b {
                    assert!(prefix64(a) <= prefix64(b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_agrees_with_spec_shard_for() {
        let spec = ShardingSpec::uniform_u64(64);
        let map = ShardMap::from_assignment(3, &assignment(64));
        let r = ResolvedMap::build(Some(&spec), &map);
        assert_eq!(r.version(), 3);
        for i in 0..5000u64 {
            let key = AppKey::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(r.shard_for(&key), spec.shard_for(&key), "key {key}");
        }
        // Long / short byte-string keys exercise the prefix tie-break.
        for raw in [b"".to_vec(), b"abc".to_vec(), vec![0xff; 16], vec![0u8; 9]] {
            let key = AppKey::new(raw);
            assert_eq!(r.shard_for(&key), spec.shard_for(&key), "key {key}");
        }
    }

    #[test]
    fn gap_keys_are_not_found() {
        // S0:[10,20), S1:[30,40) with gaps around them.
        let spec = ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::from_u64(10), AppKey::from_u64(20)),
                ShardId(0),
            ),
            (
                KeyRange::new(AppKey::from_u64(30), AppKey::from_u64(40)),
                ShardId(1),
            ),
        ])
        .unwrap();
        let map = ShardMap::from_assignment(1, &assignment(2));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        assert_eq!(r.shard_for(&AppKey::from_u64(15)), Some(ShardId(0)));
        assert_eq!(r.shard_for(&AppKey::from_u64(5)), None);
        assert_eq!(r.shard_for(&AppKey::from_u64(25)), None);
        assert_eq!(r.shard_for(&AppKey::from_u64(45)), None);
        let err = r.route(&AppKey::from_u64(25), &mut rr).unwrap_err();
        assert!(matches!(err, SmError::NotFound(_)), "{err}");
    }

    #[test]
    fn routes_to_primary_and_round_robins_secondaries() {
        let spec = ShardingSpec::uniform_u64(4);
        let map = ShardMap::from_assignment(2, &assignment(4));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        let d = r.route(&AppKey::from_u64(0), &mut rr).unwrap();
        assert_eq!(d.shard, ShardId(0));
        assert_eq!(d.server, ServerId(0));
        assert_eq!(d.map_version, 2);

        // Secondary-only shard round-robins without allocating.
        let mut a = Assignment::new();
        for srv in [1u32, 2, 3] {
            a.add_replica(ShardId(0), ServerId(srv), ReplicaRole::Secondary)
                .unwrap();
        }
        let spec = ShardingSpec::uniform_u64(1);
        let r = ResolvedMap::build(Some(&spec), &ShardMap::from_assignment(1, &a));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..9 {
            seen.insert(r.route(&AppKey::from_u64(7), &mut rr).unwrap().server);
        }
        assert_eq!(seen.len(), 3, "all three secondaries used");
    }

    #[test]
    fn missing_shard_and_missing_spec_errors() {
        // Spec says 4 shards but the map only has 2 of them.
        let spec = ShardingSpec::uniform_u64(4);
        let map = ShardMap::from_assignment(1, &assignment(2));
        let r = ResolvedMap::build(Some(&spec), &map);
        let mut rr = 0u64;
        let err = r.route(&AppKey::from_u64(u64::MAX), &mut rr).unwrap_err();
        assert!(matches!(err, SmError::Unavailable(_)), "{err}");
        assert!(err.to_string().contains("not in map v1"), "{err}");

        // No spec: key routing is NotFound, shard routing still works.
        let r = ResolvedMap::build(None, &ShardMap::from_assignment(1, &assignment(2)));
        assert_eq!(r.shard_for(&AppKey::from_u64(0)), None);
        let d = r.route_shard(ShardId(1), &mut rr).unwrap();
        assert_eq!(d.server, ServerId(1));
    }

    #[test]
    fn nearest_replica_routing() {
        let mut a = Assignment::new();
        for srv in [1u32, 2, 3] {
            a.add_replica(ShardId(0), ServerId(srv), ReplicaRole::Secondary)
                .unwrap();
        }
        let spec = ShardingSpec::uniform_u64(1);
        let r = ResolvedMap::build(Some(&spec), &ShardMap::from_assignment(4, &a));
        let latency = sm_sim::LatencyModel::frc_prn_odn();
        // Server 1 is at FRC, server 2 at ODN; nobody knows server 3.
        let from = |client: u16| {
            let latency = &latency;
            move |server: ServerId| match server.raw() {
                1 => latency.base_ms(RegionId(client), RegionId(0)),
                2 => latency.base_ms(RegionId(client), RegionId(2)),
                _ => f64::INFINITY,
            }
        };
        let key = AppKey::from_u64(3);
        // A client at FRC picks the FRC replica, one at ODN the ODN one.
        let d = r.route_nearest(&key, from(0)).unwrap();
        assert_eq!(
            (d.shard, d.server, d.map_version),
            (ShardId(0), ServerId(1), 4)
        );
        assert_eq!(r.route_nearest(&key, from(2)).unwrap().server, ServerId(2));
        // Only unknown servers: still served, first in map order.
        let d = r.route_nearest(&key, |_| f64::INFINITY).unwrap();
        assert_eq!(d.server, ServerId(1));
        // A NaN distance (a corrupt latency table) does not panic.
        let d = r.route_nearest(&key, |s| if s == ServerId(2) { f64::NAN } else { 1.0 });
        assert!(d.is_ok(), "{d:?}");

        // The errors are the kernel's own: gap key, shard not in the
        // map, shard without replicas.
        let none = ResolvedMap::build(None, &ShardMap::from_assignment(1, &a));
        let err = none.route_nearest(&key, |_| 0.0).unwrap_err();
        assert!(matches!(err, SmError::NotFound(_)), "{err}");
        let spec = ShardingSpec::uniform_u64(2);
        let mut map = ShardMap::from_assignment(1, &a);
        let r = ResolvedMap::build(Some(&spec), &map);
        let err = r
            .route_nearest(&AppKey::from_u64(u64::MAX), |_| 0.0)
            .unwrap_err();
        assert!(err.to_string().contains("not in map v1"), "{err}");
        map.entries.insert(
            ShardId(1),
            ShardMapEntry {
                replicas: Vec::new(),
            },
        );
        let r = ResolvedMap::build(Some(&spec), &map);
        let err = r
            .route_nearest(&AppKey::from_u64(u64::MAX), |_| 0.0)
            .unwrap_err();
        assert!(err.to_string().contains("no replicas"), "{err}");
    }
}
