//! Application key space and app-defined sharding (§3.1).
//!
//! Shard Manager shards the *application's own* key space (the "app-key"
//! approach) and lets the application decide the key-to-shard mapping
//! (the "app-sharding" approach). This preserves key locality, which is
//! what makes prefix scans possible in stores like Laser.
//!
//! A [`ShardingSpec`] is an ordered list of non-overlapping, half-open
//! key ranges, each owned by one shard. Lookup is a binary search.

use crate::ids::ShardId;
use std::fmt;

/// Keys up to this long live inside the [`AppKey`] itself.
const INLINE: usize = 22;

/// A key's bytes: inside the value when they fit, on the heap when
/// not. Either way 24 bytes, what the `Vec<u8>` it replaced took.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<[u8]>),
}

/// An application key: an opaque byte string ordered lexicographically.
///
/// Numeric key spaces are supported by encoding integers big-endian (see
/// [`AppKey::from_u64`]), which preserves numeric order.
///
/// Equality, order, hash and `{:?}` are those of the byte string (what
/// a `Vec<u8>` gives), whichever way it is stored: range searches,
/// the hashed baselines' placements and the seeded trace digests all
/// rest on that.
#[derive(Clone)]
pub struct AppKey(Repr);

impl AppKey {
    /// Creates a key from raw bytes.
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        let src = bytes.as_ref();
        let mut inline = [0u8; INLINE];
        match (inline.get_mut(..src.len()), u8::try_from(src.len())) {
            (Some(dst), Ok(len)) => {
                dst.copy_from_slice(src);
                Self(Repr::Inline { len, bytes: inline })
            }
            _ => Self(Repr::Heap(src.into())),
        }
    }

    /// Encodes a `u64` so that byte order equals numeric order.
    pub fn from_u64(v: u64) -> Self {
        Self::new(v.to_be_bytes())
    }

    /// The key's bytes.
    // sm-lint: hot-path
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or(&[]),
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Returns true if `self` starts with `prefix`.
    pub fn has_prefix(&self, prefix: &[u8]) -> bool {
        self.as_bytes().starts_with(prefix)
    }

    /// The smallest key, i.e. the empty byte string.
    pub fn min() -> Self {
        Self::new([])
    }
}

impl PartialEq for AppKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for AppKey {}

impl PartialOrd for AppKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AppKey {
    // sm-lint: hot-path
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for AppKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for AppKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AppKey").field(&self.as_bytes()).finish()
    }
}

impl From<&str> for AppKey {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl fmt::Display for AppKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(self.as_bytes()) {
            if s.chars().all(|c| c.is_ascii_graphic()) && !s.is_empty() {
                return write!(f, "{s}");
            }
        }
        write!(f, "0x")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A half-open key range `[start, end)`; `end == None` means unbounded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub start: AppKey,
    /// Exclusive upper bound, or `None` for "to the end of the key space".
    pub end: Option<AppKey>,
}

impl KeyRange {
    /// Creates a bounded range `[start, end)`.
    pub fn new(start: AppKey, end: AppKey) -> Self {
        Self {
            start,
            end: Some(end),
        }
    }

    /// Creates a range covering `[start, +inf)`.
    pub fn from(start: AppKey) -> Self {
        Self { start, end: None }
    }

    /// Creates the full key range.
    pub fn full() -> Self {
        Self {
            start: AppKey::min(),
            end: None,
        }
    }

    /// Returns true if the range contains `key`.
    pub fn contains(&self, key: &AppKey) -> bool {
        if *key < self.start {
            return false;
        }
        match &self.end {
            Some(end) => key < end,
            None => true,
        }
    }

    /// Returns true if the two ranges share any key.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        let self_before_other = match &self.end {
            Some(end) => *end <= other.start,
            None => false,
        };
        let other_before_self = match &other.end {
            Some(end) => *end <= self.start,
            None => false,
        };
        !(self_before_other || other_before_self)
    }

    /// Returns true if the range is empty (`end <= start`).
    pub fn is_empty(&self) -> bool {
        match &self.end {
            Some(end) => *end <= self.start,
            None => false,
        }
    }

    /// Returns true if every key with `prefix` could fall in this range.
    ///
    /// This is conservative in the right direction for routing a prefix
    /// scan: it may include ranges with no matching key but never
    /// excludes a range that has one.
    pub(crate) fn may_contain_prefix(&self, prefix: &[u8]) -> bool {
        // The keys with `prefix` form the interval [prefix, successor(prefix)).
        let lo = AppKey::new(prefix);
        match prefix_successor(prefix) {
            Some(hi) => self.overlaps(&KeyRange::new(lo, AppKey::new(hi))),
            None => self.overlaps(&KeyRange::from(lo)),
        }
    }

    /// Splits the range at `at` into `([start, at), [at, end))`.
    ///
    /// Returns `None` unless `at` is strictly inside the range, so both
    /// children are non-empty.
    pub fn split_at(&self, at: &AppKey) -> Option<(KeyRange, KeyRange)> {
        if *at <= self.start {
            return None;
        }
        if let Some(end) = &self.end {
            if at >= end {
                return None;
            }
        }
        let left = KeyRange::new(self.start.clone(), at.clone());
        let right = KeyRange {
            start: at.clone(),
            end: self.end.clone(),
        };
        Some((left, right))
    }

    /// A key strictly inside the range, halving it by key-space measure.
    ///
    /// Byte strings are read as base-256 fractions in `[0, 1)` (the
    /// unbounded end is `1`), so the midpoint of `[s, e)` is `(s+e)/2`
    /// re-encoded as the shortest byte string — at most one byte longer
    /// than the wider bound. Returns `None` when the range has no
    /// interior key (e.g. `["a", "a\0")`), in which case it cannot be
    /// split.
    pub fn midpoint(&self) -> Option<AppKey> {
        let s = self.start.as_bytes();
        // `int` is the integer part of start+end: the unbounded end is
        // exactly 1.0 (all-zero digits), a bounded end is < 1.0.
        let (mut int, e): (u16, &[u8]) = match &self.end {
            Some(end) => (0, end.as_bytes()),
            None => (1, &[]),
        };
        let len = s.len().max(e.len());
        // Digit-wise add with carry, least-significant (rightmost) first.
        let mut sum = vec![0u16; len];
        let mut carry: u16 = 0;
        for i in (0..len).rev() {
            let a = u16::from(s.get(i).copied().unwrap_or(0));
            let b = u16::from(e.get(i).copied().unwrap_or(0));
            let t = a + b + carry;
            if let Some(slot) = sum.get_mut(i) {
                *slot = t & 0xff;
            }
            carry = t >> 8;
        }
        int += carry;
        // Halve: shift right one bit, the remainder flowing down a digit.
        let mut rem = int & 1;
        let mut mid = Vec::with_capacity(len + 1);
        for digit in sum {
            let t = (rem << 8) | digit;
            mid.push((t >> 1) as u8);
            rem = t & 1;
        }
        if rem == 1 {
            mid.push(0x80);
        }
        // Trailing zero bytes add nothing to the fraction but make the
        // string compare high; strip to the canonical shortest form.
        while mid.last() == Some(&0) {
            mid.pop();
        }
        let mid = AppKey::new(mid);
        let above_start = self.start < mid;
        let below_end = match &self.end {
            Some(end) => mid < *end,
            None => true,
        };
        (above_start && below_end).then_some(mid)
    }

    /// Merges two adjacent ranges (in either order) into one.
    ///
    /// Returns `None` unless one range ends exactly where the other
    /// starts — merging non-adjacent ranges would swallow the keys in
    /// between.
    pub fn merge(&self, other: &KeyRange) -> Option<KeyRange> {
        if self.end.as_ref() == Some(&other.start) {
            return Some(KeyRange {
                start: self.start.clone(),
                end: other.end.clone(),
            });
        }
        if other.end.as_ref() == Some(&self.start) {
            return Some(KeyRange {
                start: other.start.clone(),
                end: self.end.clone(),
            });
        }
        None
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.end {
            Some(end) => write!(f, "[{}, {})", self.start, end),
            None => write!(f, "[{}, +inf)", self.start),
        }
    }
}

/// Returns the smallest byte string greater than every string with the
/// given prefix, or `None` if the prefix is all `0xff` (no upper bound).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// An application's key-to-shard mapping: an ordered set of disjoint
/// ranges, each owned by a shard (§3.1).
///
/// The ranges may be uneven and are entirely application-chosen. The
/// paper's SM never resharded; here the shard scaler may additionally
/// split a hot shard's range or merge cold neighbors via
/// [`ShardingSpec::transfer_range`], producing a new spec version with
/// the same no-gap/no-overlap guarantees.
///
/// # Examples
///
/// ```
/// use sm_types::keys::{AppKey, KeyRange, ShardingSpec};
/// use sm_types::ids::ShardId;
///
/// let spec = ShardingSpec::uniform_u64(4);
/// assert_eq!(spec.shard_count(), 4);
/// let s = spec.shard_for(&AppKey::from_u64(u64::MAX)).unwrap();
/// assert_eq!(s, ShardId(3));
/// ```
#[derive(Clone)]
pub struct ShardingSpec {
    /// `(range, shard)` pairs sorted by `range.start`.
    entries: Vec<(KeyRange, ShardId)>,
    /// `(shard, index into entries)` sorted by shard: derived from
    /// `entries`, so equality and `{:?}` leave it out.
    by_shard: Vec<(ShardId, usize)>,
}

impl PartialEq for ShardingSpec {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for ShardingSpec {}

impl fmt::Debug for ShardingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardingSpec")
            .field("entries", &self.entries)
            .finish()
    }
}

impl ShardingSpec {
    /// Builds a spec from `(range, shard)` pairs.
    ///
    /// Returns an error message if ranges are empty, overlap, or a shard
    /// id appears twice.
    pub fn new(mut entries: Vec<(KeyRange, ShardId)>) -> Result<Self, String> {
        entries.sort_by(|a, b| a.0.start.cmp(&b.0.start));
        let mut seen = std::collections::HashSet::new();
        for (range, shard) in &entries {
            if range.is_empty() {
                return Err(format!("empty range {range} for {shard}"));
            }
            if !seen.insert(*shard) {
                return Err(format!("duplicate shard id {shard}"));
            }
        }
        for pair in entries.windows(2) {
            if let [(a, _), (b, _)] = pair {
                if a.overlaps(b) {
                    return Err(format!("ranges {a} and {b} overlap"));
                }
            }
        }
        Ok(Self::indexed(entries))
    }

    /// Wraps valid entries, sorted by start, with their by-shard index.
    fn indexed(entries: Vec<(KeyRange, ShardId)>) -> Self {
        let mut by_shard: Vec<(ShardId, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, shard))| (*shard, i))
            .collect();
        by_shard.sort_unstable();
        Self { entries, by_shard }
    }

    /// Splits the `u64` key space into `n` equal ranges, one per shard,
    /// with shard ids `0..n`. The first range starts at [`AppKey::min`]
    /// (the empty key), so the spec partitions the *whole* key space —
    /// there is no gap below the smallest encodable key.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_u64(n: u64) -> Self {
        assert!(n > 0, "need at least one shard");
        let step = u64::MAX / n;
        let mut entries = Vec::with_capacity(n as usize);
        for i in 0..n {
            let start = if i == 0 {
                AppKey::min()
            } else {
                AppKey::from_u64(i * step)
            };
            let range = if i + 1 == n {
                KeyRange::from(start)
            } else {
                KeyRange::new(start, AppKey::from_u64((i + 1) * step))
            };
            entries.push((range, ShardId(i)));
        }
        Self::indexed(entries)
    }

    /// Number of shards in the spec.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(range, shard)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(KeyRange, ShardId)> {
        self.entries.iter()
    }

    /// All shard ids in key order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.entries.iter().map(|(_, s)| *s)
    }

    /// Resolves a key to its owning shard via binary search, or `None`
    /// if the key falls in a gap not covered by any range.
    pub fn shard_for(&self, key: &AppKey) -> Option<ShardId> {
        let idx = self
            .entries
            .partition_point(|(range, _)| range.start <= *key);
        if idx == 0 {
            return None;
        }
        let (range, shard) = &self.entries[idx - 1];
        range.contains(key).then_some(*shard)
    }

    /// Returns the shards whose ranges may hold keys with `prefix`, in
    /// key order — the shard set a prefix scan must visit.
    pub fn shards_for_prefix(&self, prefix: &[u8]) -> Vec<ShardId> {
        self.entries
            .iter()
            .filter(|(range, _)| range.may_contain_prefix(prefix))
            .map(|(_, shard)| *shard)
            .collect()
    }

    /// Returns the range owned by `shard`, if any.
    pub fn range_of(&self, shard: ShardId) -> Option<&KeyRange> {
        let at = self.by_shard.binary_search_by_key(&shard, |&(s, _)| s);
        let &(_, idx) = self.by_shard.get(at.ok()?)?;
        self.entries.get(idx).map(|(range, _)| range)
    }

    /// The largest shard id in the spec (for minting child ids).
    pub fn max_shard_id(&self) -> Option<ShardId> {
        self.entries.iter().map(|(_, s)| *s).max()
    }

    /// Moves ownership of `range` — a non-empty prefix, suffix, or the
    /// whole of `from`'s range — to shard `to`, returning the new spec.
    ///
    /// This is the single primitive behind split and merge cutovers:
    /// * carving a child out of a parent narrows `from` and inserts
    ///   `to` (a split cutover, one child at a time);
    /// * transferring the whole range to a `to` that already owns an
    ///   adjacent range extends `to` and removes `from` (a merge
    ///   cutover, one source at a time).
    ///
    /// Ownership changes atomically: every key in `range` is owned both
    /// before and after, by exactly one shard. Carving the middle of a
    /// range (neither edge shared) is rejected — it would leave `from`
    /// owning two disconnected pieces.
    pub(crate) fn transfer_range(
        &self,
        from: ShardId,
        range: &KeyRange,
        to: ShardId,
    ) -> Result<ShardingSpec, String> {
        if from == to {
            return Err(format!("cannot transfer {from} to itself"));
        }
        if range.is_empty() {
            return Err(format!("cannot transfer empty range {range}"));
        }
        let mut entries = self.entries.clone();
        let idx = entries
            .iter()
            .position(|(_, s)| *s == from)
            .ok_or_else(|| format!("{from} not in spec"))?;
        let owned = match entries.get(idx) {
            Some((r, _)) => r.clone(),
            None => return Err(format!("{from} not in spec")),
        };
        let within = range.start >= owned.start
            && match (&range.end, &owned.end) {
                (Some(re), Some(oe)) => re <= oe,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => true,
            };
        if !within {
            return Err(format!("{range} is not within {from}'s range {owned}"));
        }
        let starts_at_edge = range.start == owned.start;
        let ends_at_edge = range.end == owned.end;
        match (starts_at_edge, ends_at_edge) {
            (true, true) => {
                entries.remove(idx);
            }
            (true, false) => {
                // `range` is a proper prefix; `from` keeps the suffix.
                // `range.end` must be `Some` here: a `None` end either
                // matches `owned.end` (handled above) or fails `within`.
                let rest_start = match &range.end {
                    Some(re) => re.clone(),
                    None => return Err(format!("{range} is not a prefix of {owned}")),
                };
                if let Some(slot) = entries.get_mut(idx) {
                    slot.0 = KeyRange {
                        start: rest_start,
                        end: owned.end.clone(),
                    };
                }
            }
            (false, true) => {
                // `range` is a proper suffix; `from` keeps the prefix.
                if let Some(slot) = entries.get_mut(idx) {
                    slot.0 = KeyRange::new(owned.start.clone(), range.start.clone());
                }
            }
            (false, false) => {
                return Err(format!(
                    "{range} shares neither edge of {from}'s range {owned}"
                ));
            }
        }
        match entries.iter().position(|(_, s)| *s == to) {
            Some(j) => {
                let existing = match entries.get(j) {
                    Some((r, _)) => r.clone(),
                    None => return Err(format!("{to} not in spec")),
                };
                let merged = existing
                    .merge(range)
                    .ok_or_else(|| format!("{to}'s range {existing} is not adjacent to {range}"))?;
                if let Some(slot) = entries.get_mut(j) {
                    slot.0 = merged;
                }
            }
            None => entries.push((range.clone(), to)),
        }
        ShardingSpec::new(entries)
    }

    /// Splits `parent`'s range at `at`: the left half goes to `left`,
    /// the right half to `right` (two fresh shard ids), and `parent`
    /// leaves the spec.
    pub fn split_shard(
        &self,
        parent: ShardId,
        at: &AppKey,
        left: ShardId,
        right: ShardId,
    ) -> Result<ShardingSpec, String> {
        if left == right {
            return Err(format!("split children must differ, got {left} twice"));
        }
        let owned = self
            .range_of(parent)
            .ok_or_else(|| format!("{parent} not in spec"))?;
        let (l, r) = owned
            .split_at(at)
            .ok_or_else(|| format!("split point {at} is not inside {owned}"))?;
        self.transfer_range(parent, &l, left)?
            .transfer_range(parent, &r, right)
    }

    /// Merges the adjacent ranges of `left` and `right` into the fresh
    /// shard id `into`; both sources leave the spec.
    pub fn merge_shards(
        &self,
        left: ShardId,
        right: ShardId,
        into: ShardId,
    ) -> Result<ShardingSpec, String> {
        let lr = self
            .range_of(left)
            .ok_or_else(|| format!("{left} not in spec"))?
            .clone();
        let rr = self
            .range_of(right)
            .ok_or_else(|| format!("{right} not in spec"))?
            .clone();
        if lr.merge(&rr).is_none() {
            return Err(format!("{left} ({lr}) and {right} ({rr}) are not adjacent"));
        }
        self.transfer_range(left, &lr, into)?
            .transfer_range(right, &rr, into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> AppKey {
        AppKey::from(s)
    }

    /// splitmix64: the seeded stream of the walks below.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// Up to `max` bytes, half of them from a small alphabet, so
        /// that printable keys, zeros and 0xff all turn up.
        fn bytes(&mut self, max: usize) -> Vec<u8> {
            let len = self.below(max as u64 + 1);
            (0..len)
                .map(|_| match self.below(6) {
                    0 => 0,
                    1 => 0xff,
                    2 => b'a' + self.below(3) as u8,
                    _ => self.below(256) as u8,
                })
                .collect()
        }
    }

    /// `AppKey` as it was before keys moved inline — the derives over a
    /// `Vec<u8>` — kept as the model: its order, equality, hash and
    /// three renderings are the contract (range searches, the hashed
    /// baselines' placements and the trace digests rest on them).
    mod model {
        use std::fmt;

        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct AppKey(pub Vec<u8>);

        impl fmt::Display for AppKey {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Ok(s) = std::str::from_utf8(&self.0) {
                    if s.chars().all(|c| c.is_ascii_graphic()) && !s.is_empty() {
                        return write!(f, "{s}");
                    }
                }
                write!(f, "0x")?;
                for b in &self.0 {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
        }
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn app_key_equals_its_vec_model() {
        assert_eq!(std::mem::size_of::<AppKey>(), 24, "what a Vec<u8> took");
        assert!(std::mem::size_of::<Option<AppKey>>() <= 32);
        const MAX: usize = 40;
        let mut rng = Mix(0x5eed_0018);
        // Orderings seen, and pairs with one key on either side of the
        // inline boundary.
        let (mut less, mut equal, mut greater, mut straddling) = (0, 0, 0, 0);
        for pair in 0..10_000 {
            let a = rng.bytes(MAX);
            let b = match rng.below(6) {
                // A shared prefix of any length, then a fresh tail.
                0 | 1 => {
                    let keep = rng.below(a.len() as u64 + 1) as usize;
                    let mut b = a[..keep].to_vec();
                    b.extend(rng.bytes(MAX - keep));
                    b
                }
                // Trailing zeros: longer, so greater.
                2 => {
                    let mut b = a.clone();
                    b.resize(a.len() + rng.below((MAX - a.len()) as u64 + 1) as usize, 0);
                    b
                }
                3 => a.clone(),
                4 => Vec::new(),
                _ => rng.bytes(MAX),
            };
            let (ka, kb) = (AppKey::new(&a), AppKey::new(&b));
            let (ma, mb) = (model::AppKey(a.clone()), model::AppKey(b.clone()));
            assert_eq!(ka.as_bytes(), a, "pair {pair}");
            assert_eq!(ka.cmp(&kb), ma.cmp(&mb), "pair {pair}: {a:?} {b:?}");
            assert_eq!(ka.partial_cmp(&kb), ma.partial_cmp(&mb), "pair {pair}");
            assert_eq!(ka == kb, ma == mb, "pair {pair}: {a:?} {b:?}");
            for (key, model) in [(&ka, &ma), (&kb, &mb), (&ka.clone(), &ma)] {
                assert_eq!(hash_of(key), hash_of(model), "pair {pair}: {model:?}");
                assert_eq!(format!("{key:?}"), format!("{model:?}"), "pair {pair}");
                assert_eq!(format!("{key:#?}"), format!("{model:#?}"), "pair {pair}");
                assert_eq!(key.to_string(), model.to_string(), "pair {pair}");
            }
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => less += 1,
                std::cmp::Ordering::Equal => equal += 1,
                std::cmp::Ordering::Greater => greater += 1,
            }
            straddling += usize::from((a.len() <= INLINE) != (b.len() <= INLINE));
        }
        assert!(
            less > 2_000 && equal > 1_000 && greater > 2_000 && straddling > 2_000,
            "{less} less, {equal} equal, {greater} greater, {straddling} straddling"
        );
        // Either side of the boundary, and the longest length a `u8` holds.
        for len in [0, 1, 8, INLINE - 1, INLINE, INLINE + 1, 255, 256, 1000] {
            let raw = vec![0xabu8; len];
            let key = AppKey::new(&raw);
            assert_eq!(key.as_bytes(), raw, "{len} bytes");
            assert_eq!(
                matches!(key.0, Repr::Inline { .. }),
                len <= INLINE,
                "{len} bytes"
            );
        }
    }

    /// `range_of` as it was before the by-shard column: a scan.
    fn range_of_scan(spec: &ShardingSpec, shard: ShardId) -> Option<&KeyRange> {
        spec.iter().find(|(_, s)| *s == shard).map(|(r, _)| r)
    }

    #[test]
    fn range_of_equals_the_scan_through_a_split_merge_walk() {
        let mut rng = Mix(0x5eed_0118);
        let mut spec = ShardingSpec::uniform_u64(8);
        let mut next_id = 8;
        let mut dead = vec![ShardId(u64::MAX), ShardId(1 << 40), ShardId(999)];
        let (mut splits, mut merges, mut transfers, mut refused) = (0, 0, 0, 0);
        for step in 0..2_000 {
            let live: Vec<(KeyRange, ShardId)> = spec.iter().cloned().collect();
            let at = rng.below(live.len() as u64 - 1) as usize;
            let ((left_range, left), (_, right)) = (&live[at], &live[at + 1]);
            // Keep between 3 and 24 shards, so every kind of step stays
            // possible and the per-step check stays cheap.
            let kind = match live.len() {
                0..=3 => 0,
                24.. => 1,
                _ => rng.below(3),
            };
            let outcome = match kind {
                0 => match left_range.midpoint() {
                    Some(mid) => {
                        next_id += 2;
                        splits += 1;
                        spec.split_shard(*left, &mid, ShardId(next_id - 2), ShardId(next_id - 1))
                    }
                    None => Err("no interior key".to_string()),
                },
                1 => {
                    next_id += 1;
                    merges += 1;
                    spec.merge_shards(*left, *right, ShardId(next_id - 1))
                }
                // The boundary between two neighbours moves left: the
                // upper half of `left` goes to `right`.
                _ => match left_range.midpoint() {
                    Some(mid) => {
                        transfers += 1;
                        let upper = KeyRange {
                            start: mid,
                            end: left_range.end.clone(),
                        };
                        spec.transfer_range(*left, &upper, *right)
                    }
                    None => Err("no interior key".to_string()),
                },
            };
            match outcome {
                Ok(next) => spec = next,
                Err(_) => refused += 1,
            }
            for (_, shard) in &live {
                if range_of_scan(&spec, *shard).is_none() {
                    dead.push(*shard);
                }
            }
            let probes = spec.shard_ids().chain(dead.iter().rev().take(3).copied());
            for shard in probes.collect::<Vec<_>>() {
                assert_eq!(
                    spec.range_of(shard),
                    range_of_scan(&spec, shard),
                    "step {step}: {shard}"
                );
            }
            // The column is derived state: a spec rebuilt from the
            // entries is equal, and `{:?}` shows the entries alone.
            let entries: Vec<(KeyRange, ShardId)> = spec.iter().cloned().collect();
            let rebuilt = ShardingSpec::new(entries.clone()).unwrap();
            assert_eq!(rebuilt, spec, "step {step}");
            assert_eq!(rebuilt.by_shard, spec.by_shard, "step {step}");
            assert_eq!(
                format!("{spec:?}"),
                format!("ShardingSpec {{ entries: {entries:?} }}"),
                "step {step}"
            );
        }
        assert!(
            splits > 300 && merges > 300 && transfers > 300 && refused < 100,
            "{splits} splits, {merges} merges, {transfers} transfers, {refused} refused"
        );
        assert!(dead.len() > 600, "{} shards left the spec", dead.len());
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = KeyRange::new(k("b"), k("d"));
        assert!(!r.contains(&k("a")));
        assert!(r.contains(&k("b")));
        assert!(r.contains(&k("c")));
        assert!(!r.contains(&k("d")));

        assert!(r.overlaps(&KeyRange::new(k("c"), k("e"))));
        assert!(
            !r.overlaps(&KeyRange::new(k("d"), k("e"))),
            "touching ranges do not overlap"
        );
        assert!(r.overlaps(&KeyRange::from(k("a"))));
        assert!(KeyRange::full().overlaps(&r));
    }

    #[test]
    fn unbounded_range_contains_everything_above_start() {
        let r = KeyRange::from(k("m"));
        assert!(r.contains(&k("zzz")));
        assert!(!r.contains(&k("a")));
    }

    #[test]
    fn spec_rejects_overlap_and_duplicates() {
        let bad = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("m")), ShardId(0)),
            (KeyRange::new(k("g"), k("z")), ShardId(1)),
        ]);
        assert!(bad.is_err());

        let dup = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("b")), ShardId(0)),
            (KeyRange::new(k("b"), k("c")), ShardId(0)),
        ]);
        assert!(dup.is_err());

        let empty = ShardingSpec::new(vec![(KeyRange::new(k("b"), k("a")), ShardId(0))]);
        assert!(empty.is_err());
    }

    #[test]
    fn uneven_app_defined_shards_resolve_correctly() {
        // The paper's example: S0:[1,9], S1:[10,99], S2:[100,100000].
        let spec = ShardingSpec::new(vec![
            (
                KeyRange::new(AppKey::from_u64(1), AppKey::from_u64(10)),
                ShardId(0),
            ),
            (
                KeyRange::new(AppKey::from_u64(10), AppKey::from_u64(100)),
                ShardId(1),
            ),
            (
                KeyRange::new(AppKey::from_u64(100), AppKey::from_u64(100_001)),
                ShardId(2),
            ),
        ])
        .unwrap();
        assert_eq!(spec.shard_for(&AppKey::from_u64(1)), Some(ShardId(0)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(9)), Some(ShardId(0)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(10)), Some(ShardId(1)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(55)), Some(ShardId(1)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(100_000)), Some(ShardId(2)));
        assert_eq!(spec.shard_for(&AppKey::from_u64(0)), None, "gap below S0");
        assert_eq!(
            spec.shard_for(&AppKey::from_u64(200_000)),
            None,
            "gap above S2"
        );
    }

    #[test]
    fn uniform_covers_whole_space() {
        let spec = ShardingSpec::uniform_u64(16);
        for key in [0u64, 1, 12345, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            assert!(spec.shard_for(&AppKey::from_u64(key)).is_some());
        }
        assert_eq!(spec.shard_count(), 16);
    }

    #[test]
    fn prefix_scan_selects_minimal_shard_set() {
        let spec = ShardingSpec::new(vec![
            (KeyRange::new(k("a"), k("f")), ShardId(0)),
            (KeyRange::new(k("f"), k("n")), ShardId(1)),
            (KeyRange::new(k("n"), k("t")), ShardId(2)),
            (KeyRange::from(k("t")), ShardId(3)),
        ])
        .unwrap();
        assert_eq!(spec.shards_for_prefix(b"g"), vec![ShardId(1)]);
        // Prefix "f" spans exactly shard 1 ([f, n)).
        assert_eq!(spec.shards_for_prefix(b"f"), vec![ShardId(1)]);
        // Empty prefix = full scan.
        assert_eq!(spec.shards_for_prefix(b"").len(), 4);
        assert_eq!(spec.shards_for_prefix(b"zz"), vec![ShardId(3)]);
    }

    #[test]
    fn prefix_successor_handles_0xff() {
        assert_eq!(prefix_successor(b"a"), Some(b"b".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
    }

    #[test]
    fn u64_key_encoding_preserves_order() {
        let mut keys: Vec<u64> = vec![0, 1, 255, 256, 65535, 1 << 40, u64::MAX];
        keys.sort_unstable();
        let encoded: Vec<AppKey> = keys.iter().map(|&v| AppKey::from_u64(v)).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(k("user:42").to_string(), "user:42");
        assert_eq!(AppKey::new(vec![0x00, 0xab]).to_string(), "0x00ab");
        assert_eq!(KeyRange::new(k("a"), k("b")).to_string(), "[a, b)");
    }

    #[test]
    fn split_at_partitions_the_range() {
        let r = KeyRange::new(k("b"), k("h"));
        let (l, rr) = r.split_at(&k("e")).unwrap();
        assert_eq!(l, KeyRange::new(k("b"), k("e")));
        assert_eq!(rr, KeyRange::new(k("e"), k("h")));
        assert!(
            r.split_at(&k("b")).is_none(),
            "split at start is empty-left"
        );
        assert!(r.split_at(&k("h")).is_none(), "split at end is empty-right");
        assert!(r.split_at(&k("z")).is_none(), "split outside");

        let unbounded = KeyRange::from(k("m"));
        let (l, rr) = unbounded.split_at(&k("q")).unwrap();
        assert_eq!(l, KeyRange::new(k("m"), k("q")));
        assert_eq!(rr, KeyRange::from(k("q")));
    }

    #[test]
    fn midpoint_is_strictly_interior() {
        // u64-encoded bounds halve numerically.
        let r = KeyRange::new(AppKey::from_u64(0), AppKey::from_u64(1 << 32));
        let m = r.midpoint().unwrap();
        assert_eq!(m, AppKey::new(vec![0x00, 0x00, 0x00, 0x00, 0x80]));
        // Odd-width ranges gain at most one byte.
        let r = KeyRange::new(k("a"), k("b"));
        let m = r.midpoint().unwrap();
        assert_eq!(m.as_bytes(), vec![0x61, 0x80]);
        // Unbounded end acts as 1.0.
        let m = KeyRange::full().midpoint().unwrap();
        assert_eq!(m.as_bytes(), vec![0x80]);
        let m = KeyRange::from(AppKey::new(vec![0x80])).midpoint().unwrap();
        assert_eq!(m.as_bytes(), vec![0xc0]);
        // No interior key -> unsplittable.
        assert!(KeyRange::new(k("a"), AppKey::new(b"a\x00"))
            .midpoint()
            .is_none());
        // Interior exists even when bounds differ only deep in the tail.
        let r = KeyRange::new(k("a"), AppKey::new(b"a\x00\x01"));
        let m = r.midpoint().unwrap();
        assert!(r.start < m);
        assert!(m < r.end.clone().unwrap());
    }

    #[test]
    fn merge_requires_adjacency() {
        let ab = KeyRange::new(k("a"), k("b"));
        let bc = KeyRange::new(k("b"), k("c"));
        let cd = KeyRange::new(k("c"), k("d"));
        assert_eq!(ab.merge(&bc), Some(KeyRange::new(k("a"), k("c"))));
        assert_eq!(
            bc.merge(&ab),
            Some(KeyRange::new(k("a"), k("c"))),
            "order-agnostic"
        );
        assert!(ab.merge(&cd).is_none(), "gap between the two");
        assert!(ab.merge(&ab).is_none(), "self-merge");
        let tail = KeyRange::from(k("b"));
        assert_eq!(ab.merge(&tail), Some(KeyRange::from(k("a"))));
    }

    #[test]
    fn spec_split_and_merge_round_trip() {
        let spec = ShardingSpec::uniform_u64(4);
        let parent = ShardId(1);
        let at = spec.range_of(parent).unwrap().midpoint().unwrap();
        let split = spec
            .split_shard(parent, &at, ShardId(4), ShardId(5))
            .unwrap();
        assert_eq!(split.shard_count(), 5);
        assert!(split.range_of(parent).is_none(), "parent left the spec");
        assert_eq!(split.shard_for(&at), Some(ShardId(5)));
        // Children partition the parent exactly.
        let l = split.range_of(ShardId(4)).unwrap();
        let r = split.range_of(ShardId(5)).unwrap();
        assert_eq!(l.merge(r), Some(spec.range_of(parent).unwrap().clone()));
        // Merging the children back restores the original geometry.
        let merged = split
            .merge_shards(ShardId(4), ShardId(5), ShardId(6))
            .unwrap();
        assert_eq!(merged.shard_count(), 4);
        assert_eq!(
            merged.range_of(ShardId(6)),
            spec.range_of(parent),
            "merged range equals the original parent range"
        );
    }

    #[test]
    fn spec_transfer_rejects_bad_shapes() {
        let spec = ShardingSpec::uniform_u64(2);
        let owned = spec.range_of(ShardId(0)).unwrap().clone();
        // Carving the middle is rejected.
        let a = owned.midpoint().unwrap();
        let inner_end = KeyRange::new(a.clone(), owned.end.clone().unwrap())
            .midpoint()
            .unwrap();
        let middle = KeyRange::new(a, inner_end);
        assert!(spec
            .transfer_range(ShardId(0), &middle, ShardId(9))
            .is_err());
        // Transfers to a non-adjacent existing shard are rejected.
        let spec3 = ShardingSpec::uniform_u64(3);
        let prefix = KeyRange::new(
            spec3.range_of(ShardId(0)).unwrap().start.clone(),
            spec3.range_of(ShardId(0)).unwrap().midpoint().unwrap(),
        );
        assert!(spec3
            .transfer_range(ShardId(0), &prefix, ShardId(2))
            .is_err());
        // Unknown shards, self-transfer, out-of-range.
        assert!(spec.transfer_range(ShardId(7), &owned, ShardId(9)).is_err());
        assert!(spec.transfer_range(ShardId(0), &owned, ShardId(0)).is_err());
        assert!(spec.transfer_range(ShardId(1), &owned, ShardId(9)).is_err());
        // Non-adjacent spec-level merge is rejected.
        assert!(spec3
            .merge_shards(ShardId(0), ShardId(2), ShardId(9))
            .is_err());
        assert_eq!(spec3.max_shard_id(), Some(ShardId(2)));
    }
}
