//! The optimization problem model: entities, bins, and the assignment.

use crate::eval::{Columns, Evaluator};
use crate::specs::SpecSet;
use sm_types::{Fixed, LoadVector, Location};
use std::sync::OnceLock;

/// Index of an entity (a shard replica) in a [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntityId(pub usize);

/// Index of a bin (a server) in a [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BinId(pub usize);

/// A replica group: all replicas of one shard share a group, which is
/// what spread/exclusion goals operate on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub usize);

/// An entity to place: one shard replica with its load vector.
#[derive(Clone, Copy, Debug)]
pub struct Entity {
    /// Resource demand, added to whichever bin hosts the entity.
    pub load: LoadVector,
    /// Replica group (the shard), if the entity has siblings to spread.
    pub group: Option<GroupId>,
}

/// A bin that can host entities: one application server.
#[derive(Clone, Copy, Debug)]
pub struct Bin {
    /// Resource capacity.
    pub capacity: LoadVector,
    /// Position in the fault-domain hierarchy (region/DC/rack/machine).
    pub location: Location,
    /// True if the bin is being drained (pending maintenance or
    /// upgrade); soft goal 3 steers entities away from such bins.
    pub draining: bool,
}

/// A placement problem: entities, bins, and an initial assignment.
///
/// `EntityId`/`BinId`/`GroupId` are dense indices minted by the `add_*`
/// methods, so lookups are plain vector indexing on the hot path.
#[derive(Debug, Default)]
pub struct Problem {
    entities: Vec<Entity>,
    bins: Vec<Bin>,
    initial: Vec<Option<BinId>>,
    group_count: usize,
    /// Per bin, the usage and affinity penalty of what is outside the
    /// problem; empty when nothing is.
    start: Vec<(LoadVector, Fixed)>,
    pub(crate) derived: Derived,
}

/// What a problem derives from itself: each group's members, built on
/// first use (set_entity never changes a group), and the evaluator
/// columns a kept solve leaves at the initial assignment. Adding a bin,
/// a group or an entity, or setting the start, drops both. Not part of
/// what the problem is, so it does not print.
#[derive(Default)]
pub(crate) struct Derived {
    members: OnceLock<Members>,
    pub(crate) columns: Option<(SpecSet, Columns)>,
}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

/// Entities per group, ascending, as one CSR pair: group `g` owns
/// `entities[start[g]..start[g + 1]]`.
#[derive(Debug)]
pub(crate) struct Members {
    start: Vec<u32>,
    entities: Vec<EntityId>,
}

impl Members {
    /// Counting sort of the grouped entities by group: sizes, then
    /// offsets, then a fill through a moving cursor per group.
    fn of(all: &[Entity], n_groups: usize) -> Self {
        let mut start = vec![0u32; n_groups + 1];
        for g in all.iter().filter_map(|e| e.group) {
            start[g.0 + 1] += 1;
        }
        for g in 0..n_groups {
            start[g + 1] += start[g];
        }
        let mut cursor = start.clone();
        let mut entities = vec![EntityId(0); start[n_groups] as usize];
        for (i, entity) in all.iter().enumerate() {
            if let Some(g) = entity.group {
                entities[cursor[g.0] as usize] = EntityId(i);
                cursor[g.0] += 1;
            }
        }
        Self { start, entities }
    }

    /// The members of group `g`, ascending.
    pub(crate) fn of_group(&self, g: usize) -> &[EntityId] {
        &self.entities[self.start[g] as usize..self.start[g + 1] as usize]
    }
}

impl Problem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty problem with room for `bins` bins and `entities`
    /// entities, so that building one of known size never regrows.
    pub fn with_capacity(bins: usize, entities: usize) -> Self {
        Self {
            entities: Vec::with_capacity(entities),
            bins: Vec::with_capacity(bins),
            initial: Vec::with_capacity(entities),
            ..Self::default()
        }
    }

    /// Adds a bin, returning its id.
    pub fn add_bin(&mut self, bin: Bin) -> BinId {
        self.derived = Derived::default();
        self.bins.push(bin);
        BinId(self.bins.len() - 1)
    }

    /// Mints a fresh group id for a shard's replicas.
    pub fn new_group(&mut self) -> GroupId {
        self.derived = Derived::default();
        self.group_count += 1;
        GroupId(self.group_count - 1)
    }

    /// Adds an entity with its initial placement (or `None` if it needs
    /// emergency placement), returning its id.
    pub fn add_entity(&mut self, entity: Entity, placed_on: Option<BinId>) -> EntityId {
        self.derived = Derived::default();
        self.entities.push(entity);
        self.initial.push(placed_on);
        EntityId(self.entities.len() - 1)
    }

    /// Rewrites entity `id`'s load and initial placement; its group
    /// stays. For a problem kept between solves and patched as the
    /// placement it models changes: the columns a kept solve left are
    /// patched with it, by the exact load difference or a move. An
    /// unknown id is ignored.
    pub fn set_entity(&mut self, id: EntityId, load: LoadVector, placed_on: Option<BinId>) {
        let entity = self.entities.get_mut(id.0).zip(self.initial.get_mut(id.0));
        let Some((entity, initial)) = entity else {
            return;
        };
        let old = *entity;
        entity.load = load;
        let from = std::mem::replace(initial, placed_on);
        let Derived { members, columns } = &mut self.derived;
        if let Some((_, columns)) = columns {
            let members = members.get_or_init(|| Members::of(&self.entities, self.group_count));
            let new = Entity { load, ..old };
            columns.set_entity(members, id, [old, new], [from, placed_on]);
        }
    }

    /// Cuts this problem out of a larger placement whose other entities
    /// stay where they are: `start[b]` is bin `b`'s usage, and the sum of
    /// the affinity penalties, of those other entities. An evaluator adds
    /// its own entities to these sums, so the few entities that can move
    /// see the larger placement's bin usages, and its average
    /// utilization. The penalties are the caller's, under the affinity
    /// goal it passes. [`crate::ParallelSearch`]'s partitions do not carry
    /// a start: a cut problem is solved on one thread.
    pub fn set_start(&mut self, start: Vec<(LoadVector, Fixed)>) {
        self.derived = Derived::default();
        self.start = start;
    }

    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Number of groups minted.
    pub(crate) fn group_count(&self) -> usize {
        self.group_count
    }

    /// Looks up an entity.
    pub(crate) fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.0]
    }

    /// Looks up a bin.
    pub(crate) fn bin(&self, id: BinId) -> &Bin {
        &self.bins[id.0]
    }

    /// All bins.
    pub(crate) fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// All entities.
    pub(crate) fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Each group's members, built once.
    pub(crate) fn members(&self) -> &Members {
        (self.derived.members).get_or_init(|| Members::of(&self.entities, self.group_count))
    }

    /// [`Self::set_start`]'s sums, or nothing.
    pub(crate) fn start(&self) -> &[(LoadVector, Fixed)] {
        &self.start
    }

    /// The initial assignment (entity index -> bin).
    pub fn initial_assignment(&self) -> &[Option<BinId>] {
        &self.initial
    }

    /// For checks of a kept problem: the evaluator the columns its last
    /// single-threaded solve left make, and a fresh build's, both at the
    /// initial assignment with every goal of that solve's specs on;
    /// `None` while no columns are kept. The two must be equal.
    #[doc(hidden)]
    pub fn kept_evaluator(&self) -> Option<[Evaluator<'_>; 2]> {
        let (specs, kept) = self.derived.columns.as_ref()?;
        let fresh = Columns::new(self, self.initial_assignment());
        Some([kept.clone(), fresh].map(|c| Evaluator::with_columns(self, specs, u8::MAX, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{MachineId, RegionId};

    fn loc(machine: u32) -> Location {
        Location {
            region: RegionId(0),
            datacenter: 0,
            rack: machine / 8,
            machine: MachineId(machine),
        }
    }

    #[test]
    fn ids_are_dense() {
        let mut p = Problem::new();
        let b0 = p.add_bin(Bin {
            capacity: LoadVector::zero(),
            location: loc(0),
            draining: false,
        });
        let b1 = p.add_bin(Bin {
            capacity: LoadVector::zero(),
            location: loc(1),
            draining: false,
        });
        assert_eq!(b0, BinId(0));
        assert_eq!(b1, BinId(1));

        let g = p.new_group();
        let e = p.add_entity(
            Entity {
                load: LoadVector::zero(),
                group: Some(g),
            },
            Some(b1),
        );
        assert_eq!(e, EntityId(0));
        assert_eq!(p.initial_assignment()[0], Some(b1));
        assert_eq!(p.entity_count(), 1);
        assert_eq!(p.bin_count(), 2);
        assert_eq!(p.group_count(), 1);
    }
}
