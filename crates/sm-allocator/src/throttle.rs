//! System-stability move throttling (§5.1 hard constraint 1).
//!
//! A computed plan may contain thousands of moves; executing them all at
//! once would churn the system. The [`MoveScheduler`] releases moves in
//! waves subject to three caps: total concurrent moves, concurrent
//! moves touching any one server, and concurrent moves of any one
//! shard's replicas.

use crate::plan::ReplicaMove;
use sm_types::{ServerId, ShardId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Concurrency caps for plan execution.
#[derive(Clone, Copy, Debug)]
pub struct MoveCaps {
    /// Max moves in flight overall (the per-application cap).
    pub max_total: usize,
    /// Max in-flight moves touching one server (source or destination).
    pub max_per_server: usize,
    /// Max in-flight moves of one shard's replicas.
    pub max_per_shard: usize,
}

impl Default for MoveCaps {
    fn default() -> Self {
        Self {
            max_total: 64,
            max_per_server: 2,
            max_per_shard: 1,
        }
    }
}

/// No slot (a fresh add's source, a carried move's server outside the
/// plan), or no position (the end of a list).
const NONE: u32 = u32::MAX;

/// A plan position.
#[derive(Clone, Copy, Debug)]
struct Position {
    /// The slots its move holds in flight, in the order a release checks
    /// them: its shard's, its source's (`NONE` for a fresh add), its
    /// destination's.
    slots: [u32; 3],
    released: bool,
    /// The next in-flight position of its shard slot's list.
    next: u32,
}

/// A cap slot: one shard's or one server's.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Moves in flight holding it.
    held: u32,
    /// Where its region of `waiting` starts; the next slot's starts
    /// where it ends, leaving room for every position that holds it.
    start: u32,
    /// The positions waiting on it: a min-heap of `len` at `start`,
    /// while `scan` is the scheduler's.
    len: u32,
    scan: u32,
    /// The first in-flight position of the shard it is the slot of.
    flying: u32,
}

impl Slot {
    const EMPTY: Self = Self {
        held: 0,
        start: 0,
        len: 0,
        scan: 0,
        flying: NONE,
    };
}

/// Releases a plan's moves in cap-respecting waves.
///
/// A release takes moves in plan order. A move a full shard or server
/// slot blocks waits on that slot, and a later release re-examines only
/// the moves waiting on the slots completions freed since, each slot's
/// list in plan order until the slot is full again: a move waiting on a
/// slot nothing freed is still blocked by it. A release that stops at
/// the total cap has not seen the moves after it, so the next one scans
/// every queued move from the first.
///
/// The plan's distinct shards and servers are numbered once, from their
/// sorted columns, so every count and list is an array of the plan's
/// size, whatever ids the application registers.
#[derive(Clone, Debug)]
pub struct MoveScheduler {
    /// The plan, then the carried moves that no queued move is.
    plan: Vec<ReplicaMove>,
    /// Per entry of `plan`, its slots and its state.
    at: Vec<Position>,
    /// The plan's shards and servers, ascending and distinct: shard `i`
    /// is slot `i`, server `j` slot `shards.len() + j`, and the last
    /// slot lists the carried moves of the shards outside the plan.
    shards: Vec<ShardId>,
    servers: Vec<ServerId>,
    slots: Vec<Slot>,
    /// The slots' waiting regions, each slot's a heap; not kept while
    /// `rescan` is set.
    waiting: Vec<u32>,
    /// Counts the scans: one empties every waiting list by starting
    /// anew, so a slot's list counts while its `scan` is this.
    scan: u32,
    /// No position before it is queued.
    first: usize,
    queued: usize,
    caps: MoveCaps,
    /// Moves in flight: the shard slots' lists, summed.
    flying: usize,
    /// The slots completions freed since the last release.
    freed: Vec<u32>,
    /// Scratch: the heads of the freed slots' lists.
    heads: BinaryHeap<Reverse<(u32, u32)>>,
    /// True when the next release scans every queued move.
    rescan: bool,
}

impl MoveScheduler {
    /// Creates a scheduler over the plan's moves, preserving order.
    pub fn new(plan: Vec<ReplicaMove>, caps: MoveCaps) -> Self {
        let mut shards: Vec<ShardId> = plan.iter().map(|mv| mv.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut servers: Vec<ServerId> = plan.iter().flat_map(Self::servers_of).collect();
        servers.sort_unstable();
        servers.dedup();
        let mut slots = vec![Slot::EMPTY; shards.len() + servers.len() + 1];
        let mut sched = Self {
            plan: Vec::new(),
            at: Vec::with_capacity(plan.len()),
            shards,
            servers,
            slots: Vec::new(),
            waiting: Vec::new(),
            scan: 0,
            first: 0,
            queued: plan.len(),
            caps,
            flying: 0,
            freed: Vec::new(),
            heads: BinaryHeap::new(),
            rescan: true,
        };
        // Each slot's region has room for every position holding it.
        for mv in &plan {
            let held = sched.slots_of(mv);
            for s in held {
                if let Some(slot) = slots.get_mut(s as usize) {
                    slot.len += 1;
                }
            }
            sched.at.push(Position {
                slots: held,
                released: false,
                next: NONE,
            });
        }
        let mut end = 0;
        for slot in &mut slots {
            slot.start = end;
            end += std::mem::take(&mut slot.len);
        }
        sched.waiting = vec![0; end as usize];
        sched.slots = slots;
        sched.plan = plan;
        sched
    }

    /// This scheduler with `in_flight`, moves an earlier plan released
    /// that are still executing, counted in flight: each holds its slots
    /// until [`Self::complete`], and a queued move equal to one of them
    /// is that move, released already.
    pub fn carrying(mut self, in_flight: impl IntoIterator<Item = ReplicaMove>) -> Self {
        let mut carried: Vec<ReplicaMove> = in_flight.into_iter().collect();
        carried.sort_unstable();
        // Each carried move is the first queued move equal to it.
        for at in 0..self.at.len() {
            let Some((mv, p)) = self.plan.get(at).zip(self.at.get(at)) else {
                break;
            };
            if carried.is_empty() {
                break;
            }
            if let (false, Ok(i)) = (p.released, carried.binary_search(mv)) {
                carried.remove(i);
                self.queued -= 1;
                self.hold(at);
            }
        }
        self.plan.reserve_exact(carried.len());
        self.at.reserve_exact(carried.len());
        for mv in carried {
            let slots = self.slots_of(&mv);
            self.plan.push(mv);
            self.at.push(Position {
                slots,
                released: true,
                next: NONE,
            });
            self.hold(self.at.len() - 1);
        }
        self
    }

    /// Moves not yet released.
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// Moves currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flying
    }

    /// True when every move has been released and completed.
    pub fn is_done(&self) -> bool {
        self.queued == 0 && self.flying == 0
    }

    fn servers_of(mv: &ReplicaMove) -> impl Iterator<Item = ServerId> {
        mv.from.into_iter().chain(std::iter::once(mv.to))
    }

    /// The slot of `shard`: the last one when the plan has no move of it.
    fn shard_slot(&self, shard: ShardId) -> usize {
        let outside = self.shards.len() + self.servers.len();
        self.shards.binary_search(&shard).unwrap_or(outside)
    }

    /// The slots `mv` holds in flight.
    fn slots_of(&self, mv: &ReplicaMove) -> [u32; 3] {
        let server = |id: ServerId| match self.servers.binary_search(&id) {
            Ok(j) => (self.shards.len() + j) as u32,
            Err(_) => NONE,
        };
        let from = mv.from.map_or(NONE, server);
        [self.shard_slot(mv.shard) as u32, from, server(mv.to)]
    }

    fn full(&self, slot: u32) -> bool {
        let cap = if (slot as usize) < self.shards.len() {
            self.caps.max_per_shard
        } else {
            self.caps.max_per_server
        };
        let held = self.slots.get(slot as usize);
        held.is_some_and(|s| s.held as usize >= cap)
    }

    /// Counts the move at `at` in flight, released: it holds its slots
    /// until [`Self::complete`].
    fn hold(&mut self, at: usize) {
        let Some(p) = self.at.get_mut(at) else {
            return;
        };
        p.released = true;
        let [shard, ..] = p.slots;
        for s in p.slots {
            if let Some(slot) = self.slots.get_mut(s as usize) {
                slot.held += 1;
            }
        }
        if let Some(slot) = self.slots.get_mut(shard as usize) {
            p.next = std::mem::replace(&mut slot.flying, at as u32);
        }
        self.flying += 1;
    }

    /// Examines the queued move at `at`: releases it into `wave` when
    /// no slot of it is full, or returns the slot it waits on.
    fn examine(&mut self, at: usize, wave: &mut Vec<ReplicaMove>) -> Option<u32> {
        let slots = self.at.get(at)?.slots;
        if let Some(slot) = slots.into_iter().find(|&slot| self.full(slot)) {
            return Some(slot);
        }
        self.queued -= 1;
        self.hold(at);
        wave.extend(self.plan.get(at));
        None
    }

    /// Releases the next wave of startable moves (possibly empty if the
    /// caps are saturated): [`Self::release_into`] a new `Vec`.
    pub fn release(&mut self) -> Vec<ReplicaMove> {
        let mut wave = Vec::new();
        self.release_into(&mut wave);
        wave
    }

    /// Appends the next wave of startable moves to `wave` (possibly
    /// none if the caps are saturated).
    ///
    /// Zero caps are honored rather than special-cased: a cap of 0
    /// releases nothing, keeps every move queued, and never stalls the
    /// caller. A move whose source equals its destination holds *two*
    /// per-server slots on that server (its source slot and its
    /// destination slot), mirroring how a real move would occupy both
    /// ends of the copy.
    pub fn release_into(&mut self, wave: &mut Vec<ReplicaMove>) {
        if self.rescan {
            self.scan(wave);
        } else {
            self.revisit(wave);
        }
        self.freed.clear();
    }

    /// Examines every queued move from the first, and keeps the blocked
    /// ones waiting if it saw them all.
    fn scan(&mut self, wave: &mut Vec<ReplicaMove>) {
        let released = self.at.get(self.first..).unwrap_or_default();
        self.first += released.iter().take_while(|p| p.released).count();
        self.scan = self.scan.wrapping_add(1);
        if self.scan == 0 {
            // Wrapped: a list last kept 2^32 scans ago would count again.
            for slot in &mut self.slots {
                slot.len = 0;
            }
        }
        for at in self.first..self.at.len() {
            if self.at.get(at).is_none_or(|p| p.released) {
                continue;
            }
            if self.flying < self.caps.max_total {
                if let Some(slot) = self.examine(at, wave) {
                    self.wait(slot, at as u32);
                }
            }
            if self.flying >= self.caps.max_total {
                return;
            }
        }
        self.rescan = false;
    }

    /// Examines the moves waiting on the freed slots, their lists merged
    /// in plan order.
    fn revisit(&mut self, wave: &mut Vec<ReplicaMove>) {
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        for &slot in &self.freed {
            heads.extend(self.first_waiting(slot).map(|at| Reverse((at, slot))));
        }
        while let Some(Reverse((at, slot))) = heads.pop() {
            if self.full(slot) {
                continue;
            }
            // `at` is the least waiting on `slot`: a move waits on a
            // slot only while it is full, and nothing frees a slot
            // during a release.
            self.unwait(slot);
            if let Some(other) = self.examine(at as usize, wave) {
                self.wait(other, at);
            }
            if self.flying >= self.caps.max_total {
                self.rescan = true;
                break;
            }
            heads.extend(self.first_waiting(slot).map(|at| Reverse((at, slot))));
        }
        self.heads = heads;
    }

    /// The first position waiting on `slot`.
    fn first_waiting(&self, slot: u32) -> Option<u32> {
        let s = self.slots.get(slot as usize);
        let s = s.filter(|s| s.scan == self.scan && s.len > 0)?;
        self.waiting.get(s.start as usize).copied()
    }

    /// The region of `waiting` of `slot`, and the slot.
    fn region(&mut self, slot: u32) -> Option<(&mut [u32], &mut Slot)> {
        let end = self.slots.get(slot as usize + 1).map(|s| s.start as usize);
        let s = self.slots.get_mut(slot as usize)?;
        if s.scan != self.scan {
            (s.scan, s.len) = (self.scan, 0);
        }
        let end = end.unwrap_or(self.waiting.len());
        Some((self.waiting.get_mut(s.start as usize..end)?, s))
    }

    /// Puts the position `at` on the list of the slot it waits on.
    fn wait(&mut self, slot: u32, at: u32) {
        if let Some((heap, s)) = self.region(slot) {
            s.len += u32::from(heap_push(heap, s.len as usize, at));
        }
    }

    /// Takes the first position off the list of `slot`.
    fn unwait(&mut self, slot: u32) {
        if let Some((heap, s)) = self.region(slot) {
            s.len -= u32::from(heap_pop(heap, s.len as usize));
        }
    }

    /// Marks a released move complete, freeing its cap slots.
    ///
    /// Unknown moves are ignored (idempotent completion).
    pub fn complete(&mut self, mv: &ReplicaMove) {
        let shard = self.shard_slot(mv.shard);
        // The first of its shard's moves in flight that is `mv`.
        let (mut before, mut at) = (NONE, self.slots.get(shard).map_or(NONE, |s| s.flying));
        while let Some(p) = self.at.get(at as usize) {
            if self.plan.get(at as usize) == Some(mv) {
                break;
            }
            (before, at) = (at, p.next);
        }
        let Some(&Position { slots, next, .. }) = self.at.get(at as usize) else {
            return;
        };
        match self.at.get_mut(before as usize) {
            Some(p) => p.next = next,
            None => {
                if let Some(s) = self.slots.get_mut(shard) {
                    s.flying = next;
                }
            }
        }
        self.flying -= 1;
        for slot in slots {
            let Some(s) = self.slots.get_mut(slot as usize) else {
                continue;
            };
            s.held = s.held.saturating_sub(1);
            if !self.rescan && !self.freed.contains(&slot) {
                self.freed.push(slot);
            }
        }
    }
}

/// Puts `at` on the min-heap `heap[..len]`; false when `heap` has no
/// room for it.
fn heap_push(heap: &mut [u32], len: usize, at: u32) -> bool {
    let Some(free) = heap.get_mut(len) else {
        return false;
    };
    *free = at;
    let mut child = len;
    while child > 0 {
        let parent = (child - 1) / 2;
        if heap.get(parent) <= heap.get(child) {
            break;
        }
        heap.swap(parent, child);
        child = parent;
    }
    true
}

/// Takes the least off the min-heap `heap[..len]`; false when it is
/// empty.
fn heap_pop(heap: &mut [u32], len: usize) -> bool {
    let Some(last) = len.checked_sub(1).filter(|&last| last < heap.len()) else {
        return false;
    };
    heap.swap(0, last);
    let mut parent = 0;
    loop {
        let mut least = parent;
        for child in [2 * parent + 1, 2 * parent + 2] {
            if child < last && heap.get(child) < heap.get(least) {
                least = child;
            }
        }
        if least == parent {
            return true;
        }
        heap.swap(parent, least);
        parent = least;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::{BTreeMap, Entry};

    /// Per server and per shard, the moves in flight holding it, where
    /// any do.
    fn loads(sched: &MoveScheduler) -> (BTreeMap<ServerId, usize>, BTreeMap<ShardId, usize>) {
        let held = |s: usize| sched.slots.get(s).map_or(0, |s| s.held as usize);
        let servers = sched.servers.iter().enumerate();
        let servers = servers.map(|(j, &id)| (id, held(sched.shards.len() + j)));
        let shards = sched
            .shards
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, held(i)));
        (
            servers.filter(|l| l.1 > 0).collect(),
            shards.filter(|l| l.1 > 0).collect(),
        )
    }

    /// The moves in every shard slot's in-flight list, ascending.
    fn flying(sched: &MoveScheduler) -> Vec<ReplicaMove> {
        let mut moves = Vec::new();
        for slot in &sched.slots {
            let mut at = slot.flying;
            while let Some(p) = sched.at.get(at as usize) {
                moves.extend(sched.plan.get(at as usize));
                at = p.next;
            }
        }
        moves.sort();
        moves
    }

    fn mv(shard: u64, from: Option<u32>, to: u32) -> ReplicaMove {
        ReplicaMove {
            shard: ShardId(shard),
            replica: 0,
            from: from.map(ServerId),
            to: ServerId(to),
        }
    }

    #[test]
    fn respects_total_cap() {
        let moves: Vec<ReplicaMove> = (0..10)
            .map(|i| mv(i, Some(100 + i as u32), i as u32))
            .collect();
        let mut sched = MoveScheduler::new(
            moves,
            MoveCaps {
                max_total: 3,
                max_per_server: 10,
                max_per_shard: 10,
            },
        );
        let wave = sched.release();
        assert_eq!(wave.len(), 3);
        assert_eq!(sched.in_flight(), 3);
        assert_eq!(sched.pending(), 7);
        // Nothing more until a completion.
        assert!(sched.release().is_empty());
        sched.complete(&wave[0]);
        assert_eq!(sched.release().len(), 1);
    }

    #[test]
    fn respects_per_server_cap() {
        // All moves target server 5.
        let moves: Vec<ReplicaMove> = (0..4).map(|i| mv(i, None, 5)).collect();
        let mut sched = MoveScheduler::new(moves, MoveCaps::default());
        let wave = sched.release();
        assert_eq!(wave.len(), 2, "per-server cap of 2");
        sched.complete(&wave[0]);
        sched.complete(&wave[1]);
        assert_eq!(sched.release().len(), 2);
        assert!(sched.is_done() || sched.in_flight() > 0);
    }

    #[test]
    fn respects_per_shard_cap() {
        // Two replica moves of the same shard.
        let moves = vec![mv(7, Some(1), 2), mv(7, Some(3), 4)];
        let mut sched = MoveScheduler::new(moves, MoveCaps::default());
        let wave = sched.release();
        assert_eq!(wave.len(), 1, "one replica of a shard moves at a time");
        sched.complete(&wave[0]);
        assert_eq!(sched.release().len(), 1);
    }

    #[test]
    fn preserves_order_for_blocked_moves() {
        let moves = vec![
            mv(1, None, 5),
            mv(2, None, 5),
            mv(3, None, 5),
            mv(4, None, 6),
        ];
        let mut sched = MoveScheduler::new(
            moves,
            MoveCaps {
                max_total: 10,
                max_per_server: 1,
                max_per_shard: 1,
            },
        );
        let wave = sched.release();
        // Shard 1 takes server 5; shards 2,3 blocked; shard 4 proceeds.
        assert_eq!(
            wave.iter().map(|m| m.shard.raw()).collect::<Vec<_>>(),
            vec![1, 4]
        );
        sched.complete(&wave[0]);
        let wave2 = sched.release();
        assert_eq!(wave2[0].shard, ShardId(2), "blocked moves keep order");
    }

    #[test]
    fn drains_to_done() {
        let moves: Vec<ReplicaMove> = (0..20)
            .map(|i| mv(i, Some(i as u32), 50 + i as u32))
            .collect();
        let mut sched = MoveScheduler::new(moves, MoveCaps::default());
        let mut executed = 0;
        while !sched.is_done() {
            let wave = sched.release();
            assert!(!wave.is_empty() || sched.in_flight() > 0, "no deadlock");
            for m in wave {
                executed += 1;
                sched.complete(&m);
            }
        }
        assert_eq!(executed, 20);
    }

    /// `complete` as it was when `in_flight` was a list: the first equal
    /// move found by a scan, swapped out.
    #[derive(Default)]
    struct Scanning {
        in_flight: Vec<ReplicaMove>,
        server_load: BTreeMap<ServerId, usize>,
        shard_load: BTreeMap<ShardId, usize>,
    }

    impl Scanning {
        fn released(&mut self, mv: ReplicaMove) {
            for s in MoveScheduler::servers_of(&mv) {
                *self.server_load.entry(s).or_insert(0) += 1;
            }
            *self.shard_load.entry(mv.shard).or_insert(0) += 1;
            self.in_flight.push(mv);
        }

        fn complete(&mut self, mv: &ReplicaMove) {
            let Some(pos) = self.in_flight.iter().position(|m| m == mv) else {
                return;
            };
            self.in_flight.swap_remove(pos);
            for s in MoveScheduler::servers_of(mv) {
                if let Some(n) = self.server_load.get_mut(&s) {
                    *n = n.saturating_sub(1);
                }
            }
            if let Some(n) = self.shard_load.get_mut(&mv.shard) {
                *n = n.saturating_sub(1);
            }
        }
    }

    #[test]
    fn completion_in_any_order_frees_what_the_scanning_list_freed() {
        // Nobody observes the order of `in_flight` (`in_flight()` is its
        // length), so finding a move by key frees the same slots as the
        // scan did — also for a move in flight twice, completed twice,
        // or never released.
        let (mut completions, mut unscanned) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = sm_sim::SimRng::seeded(seed);
            let moves: Vec<ReplicaMove> = (0..rng.index(80))
                .map(|_| {
                    let from = rng.chance(0.7).then(|| rng.index(6) as u32);
                    let mut m = mv(rng.index(10) as u64, from, rng.index(6) as u32);
                    m.replica = rng.index(2);
                    m
                })
                .collect();
            let caps = MoveCaps {
                max_total: 1 + rng.index(12),
                max_per_server: 1 + rng.index(6),
                max_per_shard: 1 + rng.index(3),
            };
            let mut sched = MoveScheduler::new(moves.clone(), caps);
            let mut model = Scanning::default();
            for _ in 0..400 {
                if sched.is_done() {
                    break;
                }
                // A release that need not scan looks only at the moves
                // waiting on a slot freed since the last one; a scan of
                // every queued move finds the same wave.
                let mut looking = sched.clone();
                unscanned += usize::from(!sched.rescan);
                looking.rescan = true;
                let wave = sched.release();
                assert_eq!(wave, looking.release(), "seed {seed}");
                for m in wave {
                    model.released(m);
                }
                for _ in 0..1 + rng.index(3) {
                    // Mostly a move in flight, whichever; sometimes one
                    // that may not be (never released, or completed).
                    let held = &model.in_flight;
                    let done = if held.is_empty() || rng.chance(0.1) {
                        moves[rng.index(moves.len())]
                    } else {
                        held[rng.index(held.len())]
                    };
                    sched.complete(&done);
                    model.complete(&done);
                    completions += 1;
                    assert_eq!(sched.in_flight(), model.in_flight.len(), "seed {seed}");
                    // The arrays count every slot of the plan, the
                    // model only those ever released: both drop zeros.
                    let (servers, shards) = loads(&sched);
                    let mut held = model.server_load.clone();
                    held.retain(|_, n| *n > 0);
                    assert_eq!(servers, held, "seed {seed}");
                    let mut held = model.shard_load.clone();
                    held.retain(|_, n| *n > 0);
                    assert_eq!(shards, held, "seed {seed}");
                    let mut want = model.in_flight.clone();
                    want.sort();
                    assert_eq!(flying(&sched), want, "seed {seed}");
                }
            }
            assert!(moves.is_empty() || sched.is_done(), "seed {seed}: drained");
        }
        println!("{completions} completions, {unscanned} releases that did not scan");
        assert!(completions > 5_000 && unscanned > 100);
    }

    /// The scheduler as it was before blocked moves waited on a slot:
    /// the first release after a completion pops every queued move from
    /// the head, starting what fits and putting back what it skips.
    #[derive(Clone)]
    struct ScanningScheduler {
        queue: Vec<ReplicaMove>,
        caps: MoveCaps,
        in_flight: BTreeMap<ReplicaMove, usize>,
        flying: usize,
        settled: bool,
        server_load: BTreeMap<ServerId, usize>,
        shard_load: BTreeMap<ShardId, usize>,
    }

    impl ScanningScheduler {
        fn new(moves: Vec<ReplicaMove>, caps: MoveCaps) -> Self {
            Self {
                queue: moves.into_iter().rev().collect(),
                caps,
                in_flight: BTreeMap::new(),
                flying: 0,
                settled: false,
                server_load: BTreeMap::new(),
                shard_load: BTreeMap::new(),
            }
        }

        fn can_start(&self, mv: &ReplicaMove) -> bool {
            if self.flying >= self.caps.max_total {
                return false;
            }
            if *self.shard_load.get(&mv.shard).unwrap_or(&0) >= self.caps.max_per_shard {
                return false;
            }
            MoveScheduler::servers_of(mv)
                .all(|s| *self.server_load.get(&s).unwrap_or(&0) < self.caps.max_per_server)
        }

        fn hold(&mut self, mv: ReplicaMove) {
            for s in MoveScheduler::servers_of(&mv) {
                *self.server_load.entry(s).or_insert(0) += 1;
            }
            *self.shard_load.entry(mv.shard).or_insert(0) += 1;
            *self.in_flight.entry(mv).or_insert(0) += 1;
            self.flying += 1;
        }

        /// The model of [`MoveScheduler::carrying`]: each of `held`
        /// holds its slots, and the first queued move equal to it, in
        /// plan order, is it.
        fn carrying(mut self, held: &[ReplicaMove]) -> Self {
            let mut left: BTreeMap<ReplicaMove, usize> = BTreeMap::new();
            for &mv in held {
                self.hold(mv);
                *left.entry(mv).or_insert(0) += 1;
            }
            // `queue` is the plan reversed.
            let plan: Vec<ReplicaMove> = self.queue.drain(..).rev().collect();
            for mv in plan {
                match left.get_mut(&mv).filter(|n| **n > 0) {
                    Some(n) => *n -= 1,
                    None => self.queue.push(mv),
                }
            }
            self.queue.reverse();
            self
        }

        fn release(&mut self) -> Vec<ReplicaMove> {
            let mut released = Vec::new();
            if self.settled {
                return released;
            }
            self.settled = true;
            let mut skipped = Vec::new();
            while let Some(mv) = self.queue.pop() {
                if self.can_start(&mv) {
                    self.hold(mv);
                    released.push(mv);
                } else {
                    skipped.push(mv);
                }
                if self.flying >= self.caps.max_total {
                    break;
                }
            }
            for mv in skipped.into_iter().rev() {
                self.queue.push(mv);
            }
            released
        }

        fn complete(&mut self, mv: &ReplicaMove) {
            let Entry::Occupied(mut held) = self.in_flight.entry(*mv) else {
                return;
            };
            if *held.get() > 1 {
                *held.get_mut() -= 1;
            } else {
                held.remove();
            }
            self.flying -= 1;
            self.settled = false;
            for s in MoveScheduler::servers_of(mv) {
                if let Some(n) = self.server_load.get_mut(&s) {
                    *n = n.saturating_sub(1);
                }
            }
            if let Some(n) = self.shard_load.get_mut(&mv.shard) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// What [`drive`] saw: non-empty waves, waves that left the total
    /// cap full, and completions of a move not in flight.
    #[derive(Default)]
    struct Seen {
        waves: usize,
        capped: usize,
        unknown: usize,
    }

    /// Releases from `sched` and `model` in step, comparing each wave,
    /// and completes moves in flight — those of `held` and those
    /// released — in random order, now and then one never released or
    /// already completed, until both are done.
    fn drive(
        (mut sched, mut model): (MoveScheduler, ScanningScheduler),
        moves: &[ReplicaMove],
        mut held: Vec<ReplicaMove>,
        rng: &mut sm_sim::SimRng,
        (seed, seen): (u64, &mut Seen),
    ) {
        let caps = model.caps;
        assert_eq!(sched.pending(), model.queue.len(), "seed {seed}");
        assert_eq!(sched.in_flight(), model.flying, "seed {seed}");
        for round in 0..800 {
            let wave = sched.release();
            assert_eq!(wave, model.release(), "seed {seed} round {round}");
            seen.waves += usize::from(!wave.is_empty());
            seen.capped += usize::from(caps.max_total > 0 && sched.in_flight() == caps.max_total);
            held.extend(wave);
            for _ in 0..rng.index(4) {
                let done = if held.is_empty() || rng.chance(0.08) {
                    seen.unknown += 1;
                    let from = rng.chance(0.5).then_some(0);
                    moves
                        .get(rng.index(moves.len() + 1))
                        .copied()
                        .unwrap_or(mv(99, from, 0))
                } else {
                    held.swap_remove(rng.index(held.len()))
                };
                sched.complete(&done);
                model.complete(&done);
            }
            assert_eq!(sched.in_flight(), model.flying, "seed {seed}");
            assert_eq!(sched.pending(), model.queue.len(), "seed {seed}");
            if sched.is_done() {
                break;
            }
        }
    }

    /// A random move of one of `shards` shards between `servers`
    /// servers, and whether it is a self-move.
    fn random_move(rng: &mut sm_sim::SimRng, shards: usize, servers: usize) -> (ReplicaMove, bool) {
        let from = rng.chance(0.6).then(|| rng.index(servers) as u32);
        let to = rng.index(servers) as u32;
        let mut m = mv(rng.index(shards) as u64, from, to);
        m.replica = rng.index(3);
        (m, from == Some(to))
    }

    /// Caps of at most `most` each, now and then zero.
    fn random_caps(rng: &mut sm_sim::SimRng, most: [usize; 3]) -> MoveCaps {
        let mut cap = |most: usize| {
            if rng.chance(0.05) {
                0
            } else {
                1 + rng.index(most)
            }
        };
        MoveCaps {
            max_total: cap(most[0]),
            max_per_server: cap(most[1]),
            max_per_shard: cap(most[2]),
        }
    }

    #[test]
    fn every_wave_is_the_scanning_schedulers() {
        let (mut seen, mut zero_caps) = (Seen::default(), 0);
        let (mut self_moves, mut doubles) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = sm_sim::SimRng::seeded(0x5c4e + seed);
            let (servers, shards) = (1 + rng.index(8), 1 + rng.index(16));
            let mut moves: Vec<ReplicaMove> = Vec::new();
            for _ in 0..rng.index(150) {
                let m = if !moves.is_empty() && rng.chance(0.05) {
                    doubles += 1;
                    moves[rng.index(moves.len())]
                } else {
                    let (m, self_move) = random_move(&mut rng, shards, servers);
                    self_moves += usize::from(self_move);
                    m
                };
                moves.push(m);
            }
            let caps = random_caps(&mut rng, [12, 4, 2]);
            zero_caps +=
                usize::from(caps.max_total * caps.max_per_server * caps.max_per_shard == 0);
            let sched = MoveScheduler::new(moves.clone(), caps);
            let model = ScanningScheduler::new(moves.clone(), caps);
            drive(
                (sched, model),
                &moves,
                Vec::new(),
                &mut rng,
                (seed, &mut seen),
            );
        }
        let Seen {
            waves,
            capped,
            unknown,
        } = seen;
        println!(
            "{waves} waves, {capped} at the total cap, {zero_caps} plans with a zero cap, \
             {self_moves} self-moves, {doubles} repeated moves, {unknown} unknown completions"
        );
        assert!(waves > 5_000 && capped > 1_000 && zero_caps > 20);
        assert!(self_moves > 500 && doubles > 500 && unknown > 1_000);
    }

    #[test]
    fn a_replan_carrying_moves_releases_what_the_scanning_scheduler_does() {
        // A re-plan installed while moves of the last plan are in flight:
        // some of them are queued moves of the new plan, some are not
        // (among them moves of shards and servers the plan never names),
        // and some are in flight twice.
        let mut seen = Seen::default();
        let (mut queued, mut outside, mut twice) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = sm_sim::SimRng::seeded(0xca55 + seed);
            let (servers, shards) = (1 + rng.index(8), 1 + rng.index(16));
            let moves: Vec<ReplicaMove> = (0..rng.index(100))
                .map(|_| random_move(&mut rng, shards, servers).0)
                .collect();
            let mut held: Vec<ReplicaMove> = Vec::new();
            for _ in 0..rng.index(16) {
                let m = if !held.is_empty() && rng.chance(0.15) {
                    twice += 1;
                    held[rng.index(held.len())]
                } else if !moves.is_empty() && rng.chance(0.5) {
                    queued += 1;
                    moves[rng.index(moves.len())]
                } else {
                    random_move(&mut rng, 2 * shards, 2 * servers).0
                };
                held.push(m);
            }
            let caps = random_caps(&mut rng, [16, 4, 2]);
            let sched = MoveScheduler::new(moves.clone(), caps).carrying(held.clone());
            outside += sched.plan.len() - moves.len();
            let model = ScanningScheduler::new(moves.clone(), caps).carrying(&held);
            drive((sched, model), &moves, held, &mut rng, (seed, &mut seen));
        }
        let Seen { waves, capped, .. } = seen;
        println!(
            "{waves} waves, {capped} at the total cap; carried: {queued} queued moves, \
             {outside} moves no queued move is, {twice} moves twice"
        );
        assert!(waves > 3_000 && capped > 500);
        assert!(queued > 500 && outside > 1_000 && twice > 300);
    }

    #[test]
    fn complete_unknown_move_is_noop() {
        let mut sched = MoveScheduler::new(vec![], MoveCaps::default());
        sched.complete(&mv(1, None, 2));
        assert!(sched.is_done());
    }

    // --- edge cases around the cap boundaries --------------------------

    #[test]
    fn zero_total_cap_releases_nothing_and_never_hangs() {
        // A zero budget is a legal configuration (e.g. an operator
        // freezing migrations). release() must return empty without
        // spinning and without dropping or reordering queued moves.
        let moves: Vec<ReplicaMove> = (0..5).map(|i| mv(i, Some(i as u32), 50)).collect();
        let mut sched = MoveScheduler::new(
            moves,
            MoveCaps {
                max_total: 0,
                max_per_server: 10,
                max_per_shard: 10,
            },
        );
        for _ in 0..3 {
            assert!(sched.release().is_empty());
            assert_eq!(sched.pending(), 5, "frozen queue keeps every move");
            assert_eq!(sched.in_flight(), 0);
        }
        assert!(!sched.is_done(), "frozen is not done");
    }

    #[test]
    fn zero_per_shard_cap_blocks_everything_without_losing_order() {
        // Per-shard cap 0 blocks every move, however often released.
        let moves = vec![mv(3, None, 1), mv(1, None, 2), mv(2, None, 3)];
        let caps = |max_per_shard| MoveCaps {
            max_total: 10,
            max_per_server: 10,
            max_per_shard,
        };
        let mut sched = MoveScheduler::new(moves.clone(), caps(0));
        for _ in 0..3 {
            assert!(sched.release().is_empty());
            assert_eq!((sched.pending(), sched.in_flight()), (3, 0));
        }
        assert!(!sched.is_done(), "blocked is not done");
        // The same plan under a cap of 1 starts in plan order.
        let wave = MoveScheduler::new(moves, caps(1)).release();
        assert_eq!(
            wave.iter().map(|m| m.shard.raw()).collect::<Vec<_>>(),
            vec![3, 1, 2],
            "plan order"
        );
    }

    #[test]
    fn burst_exactly_at_total_cap_fills_in_one_wave() {
        // n == max_total: the entire burst goes out in a single wave —
        // the boundary itself is admitted, not off-by-one rejected.
        let at_cap: Vec<ReplicaMove> = (0..4).map(|i| mv(i, None, i as u32)).collect();
        let caps = MoveCaps {
            max_total: 4,
            max_per_server: 10,
            max_per_shard: 10,
        };
        let mut sched = MoveScheduler::new(at_cap, caps);
        assert_eq!(sched.release().len(), 4, "exactly-at-cap burst admitted");
        assert_eq!(sched.pending(), 0);

        // n == max_total + 1: exactly one move waits.
        let over: Vec<ReplicaMove> = (0..5).map(|i| mv(i, None, i as u32)).collect();
        let mut sched = MoveScheduler::new(over, caps);
        assert_eq!(sched.release().len(), 4);
        assert_eq!(sched.pending(), 1, "only the over-cap move waits");
        assert!(sched.release().is_empty(), "cap saturated until complete");
    }

    #[test]
    fn completions_refill_exactly_the_freed_slots() {
        // Refill across the per-server boundary: server 9 is saturated
        // at 2; each completion must open exactly one slot there while
        // the total cap stays untouched.
        let moves: Vec<ReplicaMove> = (0..6).map(|i| mv(i, None, 9)).collect();
        let mut sched = MoveScheduler::new(moves, MoveCaps::default());
        let wave = sched.release();
        assert_eq!(wave.len(), 2, "per-server cap");
        assert!(sched.release().is_empty());
        sched.complete(&wave[0]);
        let refill = sched.release();
        assert_eq!(refill.len(), 1, "one completion frees one slot");
        assert_eq!(refill[0].shard, ShardId(2), "next move in plan order");
        // Completing both in-flight moves frees two slots at once.
        sched.complete(&wave[1]);
        sched.complete(&refill[0]);
        assert_eq!(sched.release().len(), 2);
    }

    #[test]
    fn self_move_holds_both_server_slots() {
        // Edge found while auditing the accounting: a move whose source
        // equals its destination counts that server twice (source slot +
        // destination slot). With the default per-server cap of 2 it
        // therefore saturates the server alone — and the accounting must
        // return to zero on completion, not leak a slot.
        let moves = vec![mv(1, Some(5), 5), mv(2, Some(5), 6)];
        let mut sched = MoveScheduler::new(moves, MoveCaps::default());
        let wave = sched.release();
        assert_eq!(wave.len(), 1, "self-move saturates server 5 alone");
        assert_eq!(wave[0].shard, ShardId(1));
        sched.complete(&wave[0]);
        let wave2 = sched.release();
        assert_eq!(wave2.len(), 1, "both slots freed, no leak");
        sched.complete(&wave2[0]);
        assert!(sched.is_done());
    }
}
