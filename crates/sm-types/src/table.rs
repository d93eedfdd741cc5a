//! The one ordered `ShardId → ShardMapEntry` table, with shared,
//! copy-on-write leaves.
//!
//! [`crate::Assignment`] keeps its shards in a [`ShardTable`] and
//! [`crate::ShardMap`] its entries, so a map taken from an assignment —
//! and every `clone` of it on the way to the routers — is a copy of the
//! spine (one `Arc` and one first id per leaf), not of the shards. A
//! write goes through `Arc::make_mut`: the first one to a leaf after a
//! copy was taken copies that leaf (its entries and their replica
//! lists), every later one writes in place, and a version already handed
//! out never changes. Dropping a version frees only the leaves nothing
//! else reads.

use crate::assignment::ShardMapEntry;
use crate::ids::ShardId;
use std::fmt;
use std::sync::Arc;

/// Entries a leaf is filled to when ids arrive in ascending order: what
/// a copy of the table costs is shards / 8 `Arc`s, what the first write
/// to a leaf after one costs is at most 15 entries.
const LEAF_FILL: usize = 8;

/// A leaf that grows to this many entries splits in two.
const LEAF_SPLIT: usize = 2 * LEAF_FILL;

type Leaf = Vec<(ShardId, ShardMapEntry)>;

/// Where one shard's entry sits, as [`ShardTable::slot`] found it; it
/// holds until the table's next insert or remove.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    leaf: usize,
    at: usize,
}

/// An ordered map from shard to its replicas. Iteration is ascending by
/// id; `==` and `Debug` read content alone, never what is shared.
#[derive(Clone, Default)]
pub struct ShardTable {
    /// `firsts[i]` is the first id in `leaves[i]`: the search column.
    firsts: Vec<ShardId>,
    /// Ascending, none empty, each shorter than [`LEAF_SPLIT`].
    leaves: Vec<Arc<Leaf>>,
    len: usize,
}

impl ShardTable {
    /// The leaf `id` belongs in, and its place there (`Err` = where it
    /// would be inserted).
    fn find(&self, id: ShardId) -> (usize, Result<usize, usize>) {
        let i = self.firsts.partition_point(|first| *first <= id);
        let i = i.saturating_sub(1);
        let leaf = self.leaves.get(i);
        let at = leaf.map_or(Err(0), |leaf| leaf.binary_search_by_key(&id, |e| e.0));
        (i, at)
    }

    /// Number of shards in the table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Looks up one shard.
    pub fn get(&self, id: &ShardId) -> Option<&ShardMapEntry> {
        let (i, at) = self.find(*id);
        self.leaves.get(i)?.get(at.ok()?).map(|e| &e.1)
    }

    /// One shard's entry, to write. A miss copies nothing.
    pub fn get_mut(&mut self, id: &ShardId) -> Option<&mut ShardMapEntry> {
        let slot = self.slot(*id)?.0;
        self.at_mut(slot)
    }

    /// `id`'s entry and where it sits: one search serves a read and the
    /// write at that slot that follows it.
    pub(crate) fn slot(&self, id: ShardId) -> Option<(Slot, &ShardMapEntry)> {
        let (leaf, at) = self.find(id);
        let at = at.ok()?;
        let entry = &self.leaves.get(leaf)?.get(at)?.1;
        Some((Slot { leaf, at }, entry))
    }

    /// The entry at `slot`, to write: the first write after a copy was
    /// taken copies its leaf.
    pub(crate) fn at_mut(&mut self, slot: Slot) -> Option<&mut ShardMapEntry> {
        let leaf = Arc::make_mut(self.leaves.get_mut(slot.leaf)?);
        leaf.get_mut(slot.at).map(|e| &mut e.1)
    }

    /// Sets `id`'s entry, returning the one it replaces.
    pub fn insert(&mut self, id: ShardId, entry: ShardMapEntry) -> Option<ShardMapEntry> {
        let (i, at) = self.find(id);
        let last = i + 1 >= self.leaves.len();
        let at = match (at, self.leaves.get_mut(i)) {
            (Ok(at), Some(leaf)) => {
                let old = Arc::make_mut(leaf).get_mut(at)?;
                return Some(std::mem::replace(&mut old.1, entry));
            }
            (Ok(at) | Err(at), _) => at,
        };
        self.len += 1;
        match self.leaves.get_mut(i) {
            // Ids in ascending order open a new leaf past LEAF_FILL (as
            // the first id of all does), so a table filled in order has
            // no half-empty halves of a split.
            Some(leaf) if !(last && at == leaf.len() && at >= LEAF_FILL) => {
                let leaf = Arc::make_mut(leaf);
                leaf.insert(at, (id, entry));
                if leaf.len() >= LEAF_SPLIT {
                    let tail = leaf.split_off(LEAF_FILL);
                    self.firsts.insert(i + 1, tail.first().map_or(id, |e| e.0));
                    self.leaves.insert(i + 1, Arc::new(tail));
                }
                if let (0, Some(first)) = (at, self.firsts.get_mut(i)) {
                    *first = id;
                }
            }
            _ => {
                self.firsts.push(id);
                self.leaves.push(Arc::new(vec![(id, entry)]));
            }
        }
        None
    }

    /// Takes the entry at `slot` out of the table; a leaf that empties
    /// goes with it.
    pub(crate) fn remove_at(&mut self, Slot { leaf: i, at }: Slot) -> Option<ShardMapEntry> {
        let leaf = Arc::make_mut(self.leaves.get_mut(i).filter(|leaf| at < leaf.len())?);
        let (_, entry) = leaf.remove(at);
        self.len -= 1;
        match (leaf.first(), self.firsts.get_mut(i)) {
            (Some(e), Some(first)) => *first = e.0,
            _ => {
                self.firsts.remove(i);
                self.leaves.remove(i);
            }
        }
        Some(entry)
    }

    /// The leaves of `self` that `other` does not hold (`Arc::ptr_eq`),
    /// in id order, each as its entries. A shard whose entry in `self`
    /// differs from its entry in `other`, or that only `self` holds, is
    /// in one of them; every other shard of `self` sits in a leaf that
    /// `other` holds too. One pass over both spines.
    pub fn leaves_not_in<'a>(
        &'a self,
        other: &'a ShardTable,
    ) -> impl Iterator<Item = &'a [(ShardId, ShardMapEntry)]> + 'a {
        // A leaf both hold starts at the same id in both.
        let mut at = 0;
        let leaves = self.firsts.iter().zip(&self.leaves);
        let unshared = leaves.filter(move |(first, leaf)| {
            while other.firsts.get(at).is_some_and(|f| f < first) {
                at += 1;
            }
            !other.leaves.get(at).is_some_and(|l| Arc::ptr_eq(l, leaf))
        });
        unshared.map(|(_, leaf)| leaf.as_slice())
    }

    /// Iterates `(shard, entry)` in ascending shard order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            leaves: self.leaves.iter(),
            leaf: [].iter(),
        }
    }
}

/// [`ShardTable::iter`]'s iterator.
pub struct Iter<'a> {
    leaves: std::slice::Iter<'a, Arc<Leaf>>,
    leaf: std::slice::Iter<'a, (ShardId, ShardMapEntry)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a ShardId, &'a ShardMapEntry);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((id, entry)) = self.leaf.next() {
                return Some((id, entry));
            }
            self.leaf = self.leaves.next()?.iter();
        }
    }
}

impl<'a> IntoIterator for &'a ShardTable {
    type Item = (&'a ShardId, &'a ShardMapEntry);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for ShardTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for ShardTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

// A published map is read by router threads while the control plane
// writes the assignment it was taken from.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<crate::ShardMap>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Assignment, ReplicaAssignment, ReplicaRole, ServerId, ShardMap};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    /// splitmix64, as a `below(n)` draw.
    pub(crate) fn seeded(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    fn entry(servers: &[u32]) -> ShardMapEntry {
        let replica = |&server| ReplicaAssignment {
            server: ServerId(server),
            role: ReplicaRole::Secondary,
        };
        ShardMapEntry {
            replicas: servers.iter().map(replica).collect(),
        }
    }

    /// No empty leaf, none at the split size, `firsts` true, ids ascending.
    fn assert_well_formed(table: &ShardTable) {
        assert_eq!(table.firsts.len(), table.leaves.len());
        for (first, leaf) in table.firsts.iter().zip(&table.leaves) {
            assert!(!leaf.is_empty() && leaf.len() < LEAF_SPLIT, "{table:?}");
            assert_eq!(Some(*first), leaf.first().map(|e| e.0));
        }
        let ids: Vec<ShardId> = table.iter().map(|(id, _)| *id).collect();
        assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:?}");
        assert_eq!(ids.len(), table.len());
    }

    #[test]
    fn the_table_follows_its_model_and_a_copy_never_changes() {
        type Model = BTreeMap<ShardId, ShardMapEntry>;
        let mut below = seeded(0x5eed_0024);
        let (mut table, mut model) = (ShardTable::default(), Model::new());
        // Copies taken along the way, each with the model's of that moment.
        let mut copies: Vec<(ShardTable, Model)> = Vec::new();
        let (mut most_leaves, mut vanished) = (0, 0);
        for step in 0..20_000u64 {
            let leaves_before = table.leaves.len();
            // Ids from a range that fills and splits leaves while inserts
            // lead, then empties them while removes do.
            let id = ShardId(below(160));
            let filling = (step / 1_500) % 2 == 0;
            match below(100) {
                0..=44 if filling => {
                    let new = entry(&[below(9) as u32]);
                    assert_eq!(table.insert(id, new.clone()), model.insert(id, new));
                }
                0..=59 => {
                    let slot = table.slot(id).map(|(slot, _)| slot);
                    let removed = slot.and_then(|slot| table.remove_at(slot));
                    assert_eq!(removed, model.remove(&id), "step {step}");
                }
                60..=84 => {
                    let (got, want) = (table.get_mut(&id), model.get_mut(&id));
                    assert_eq!(got.is_some(), want.is_some(), "step {step}");
                    if let (Some(got), Some(want)) = (got, want) {
                        got.replicas.extend(entry(&[step as u32]).replicas);
                        want.replicas.extend(entry(&[step as u32]).replicas);
                    }
                }
                85..=94 => {
                    let new = entry(&[1, 2]);
                    assert_eq!(table.insert(id, new.clone()), model.insert(id, new));
                }
                _ => {
                    copies.truncate(5);
                    copies.insert(0, (table.clone(), model.clone()));
                }
            }
            assert_well_formed(&table);
            assert_eq!(table.get(&id), model.get(&id), "step {step}");
            assert!(table.iter().eq(model.iter()), "step {step}");
            assert_eq!(format!("{table:?}"), format!("{model:?}"), "step {step}");
            for (copy, model_then) in &copies {
                assert!(
                    copy.iter().eq(model_then.iter()),
                    "step {step}: a copy moved"
                );
                assert_eq!(*copy == table, *model_then == model, "step {step}");
            }
            most_leaves = most_leaves.max(table.leaves.len());
            vanished += u64::from(table.leaves.len() < leaves_before);
        }
        assert!(
            most_leaves >= 10 && vanished >= 30,
            "{most_leaves} leaves, {vanished} vanished"
        );
    }

    #[test]
    fn ids_in_order_fill_leaves_of_eight() {
        let mut table = ShardTable::default();
        for id in 0..100 {
            table.insert(ShardId(id), entry(&[1]));
        }
        assert_well_formed(&table);
        assert_eq!(table.leaves.len(), 13);
        assert!(table
            .leaves
            .iter()
            .take(12)
            .all(|leaf| leaf.len() == LEAF_FILL));
    }

    fn fleet(shards: u64) -> Assignment {
        let mut a = Assignment::new();
        for s in 0..shards {
            a.add_replica(ShardId(s), ServerId(s as u32 % 7), ReplicaRole::Primary)
                .unwrap();
            a.add_replica(ShardId(s), ServerId(7), ReplicaRole::Secondary)
                .unwrap();
        }
        a
    }

    /// Leaves of `a` that `b` holds too, place by place.
    fn shared_leaves(a: &ShardMap, b: &ShardMap) -> usize {
        let pairs = a.entries.leaves.iter().zip(&b.entries.leaves);
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    #[test]
    fn from_assignment_shares_every_leaf() {
        let mut a = fleet(1_000);
        let before = ShardMap::from_assignment(1, &a);
        let leaves = before.entries.leaves.len();
        assert_eq!(leaves, 125);
        assert_eq!(
            shared_leaves(&before, &ShardMap::from_assignment(2, &a)),
            leaves
        );
        // A refused call copies nothing; a move copies its shard's leaf.
        a.add_replica(ShardId(500), ServerId(7), ReplicaRole::Secondary)
            .unwrap_err();
        a.change_role(ShardId(500), ServerId(9), ReplicaRole::Secondary)
            .unwrap_err();
        assert!(!a.remove_replica(ShardId(500), ServerId(9)));
        assert_eq!(
            shared_leaves(&before, &ShardMap::from_assignment(2, &a)),
            leaves
        );
        a.move_replica(ShardId(500), ServerId(7), ServerId(8))
            .unwrap();
        let after = ShardMap::from_assignment(2, &a);
        assert_eq!(shared_leaves(&before, &after), leaves - 1);
        assert_eq!(before, ShardMap::from_assignment(1, &fleet(1_000)));
        assert_ne!(before.entries, after.entries);
    }

    #[test]
    fn a_version_a_reader_holds_stands_while_the_writer_goes_on() {
        let mut below = seeded(0x5eed_0124);
        let mut a = fleet(96);
        // What the reader was last handed, and how often it has compared.
        let (versions, handed) = mpsc::channel::<(ShardMap, Vec<(ShardId, ShardMapEntry)>)>();
        let compares = &AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let Ok((mut map, mut content)) = handed.recv() else {
                    return;
                };
                loop {
                    let held = map.entries.iter().map(|(id, e)| (*id, e.clone()));
                    assert!(held.eq(content.iter().cloned()), "v{} moved", map.version);
                    compares.fetch_add(1, Ordering::SeqCst);
                    match handed.try_recv() {
                        Ok(next) => (map, content) = next,
                        Err(mpsc::TryRecvError::Empty) => {}
                        Err(mpsc::TryRecvError::Disconnected) => return,
                    }
                }
            });
            for call in 0..10_000u64 {
                if call % 100 == 0 {
                    let map = ShardMap::from_assignment(1 + call / 100, &a);
                    let content = map.entries.iter().map(|(id, e)| (*id, e.clone()));
                    let content = content.collect();
                    versions.send((map, content)).expect("the reader is up");
                }
                if call % 20 == 0 {
                    // Two more compares: one at least began after the
                    // writes so far, against a version taken before them.
                    let seen = compares.load(Ordering::SeqCst);
                    while compares.load(Ordering::SeqCst) < seen + 2 {
                        std::thread::yield_now();
                    }
                }
                let (shard, server) = (ShardId(below(96)), ServerId(below(9) as u32));
                let other = ServerId(below(9) as u32);
                match below(4) {
                    0 => drop(a.add_replica(shard, server, ReplicaRole::Secondary)),
                    1 => drop(a.remove_replica(shard, server)),
                    2 => drop(a.move_replica(shard, server, other)),
                    _ => drop(a.change_role(shard, server, ReplicaRole::Secondary)),
                }
            }
            drop(versions);
        });
        assert!(compares.load(Ordering::SeqCst) >= 1_000);
    }
}
