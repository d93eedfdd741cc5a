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
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::{BTreeSet, BinaryHeap};

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

/// A cap slot a blocked move waits on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Slot {
    Shard(ShardId),
    Server(ServerId),
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
#[derive(Clone, Debug)]
pub struct MoveScheduler {
    plan: Vec<ReplicaMove>,
    /// Per plan position, whether its move was released.
    released: Vec<bool>,
    /// No position before it is queued.
    first: usize,
    queued: usize,
    caps: MoveCaps,
    /// The released moves, each with how often it is in flight (a plan
    /// may list one move twice), found by `(shard, replica)` first.
    in_flight: BTreeMap<ReplicaMove, usize>,
    /// The sum of `in_flight`'s counts.
    flying: usize,
    server_load: BTreeMap<ServerId, usize>,
    shard_load: BTreeMap<ShardId, usize>,
    /// Each blocked move's position, by the slot it waits on; not kept
    /// while `rescan` is set.
    waiting: BTreeSet<(Slot, usize)>,
    /// The slots completions freed since the last release.
    freed: Vec<Slot>,
    /// Scratch: a scan's blocked moves, and the heads of the freed
    /// slots' lists.
    blocked: Vec<(Slot, usize)>,
    heads: BinaryHeap<Reverse<(usize, Slot)>>,
    /// True when the next release scans every queued move.
    rescan: bool,
}

impl MoveScheduler {
    /// Creates a scheduler over the plan's moves, preserving order.
    pub fn new(plan: Vec<ReplicaMove>, caps: MoveCaps) -> Self {
        Self {
            released: vec![false; plan.len()],
            first: 0,
            queued: plan.len(),
            plan,
            caps,
            in_flight: BTreeMap::new(),
            flying: 0,
            server_load: BTreeMap::new(),
            shard_load: BTreeMap::new(),
            waiting: BTreeSet::new(),
            freed: Vec::new(),
            blocked: Vec::new(),
            heads: BinaryHeap::new(),
            rescan: true,
        }
    }

    /// This scheduler with `in_flight`, moves an earlier plan released
    /// that are still executing, counted in flight: each holds its slots
    /// until [`Self::complete`], and a queued move equal to one of them
    /// is that move, released already.
    pub fn carrying(mut self, in_flight: impl IntoIterator<Item = ReplicaMove>) -> Self {
        let mut carried: BTreeMap<ReplicaMove, usize> = BTreeMap::new();
        for mv in in_flight {
            self.hold(mv);
            *carried.entry(mv).or_insert(0) += 1;
        }
        for (mv, released) in self.plan.iter().zip(&mut self.released) {
            if let Some(n) = carried.get_mut(mv).filter(|n| **n > 0) {
                (*n, *released) = (*n - 1, true);
                self.queued -= 1;
            }
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

    fn slots_of(mv: &ReplicaMove) -> impl Iterator<Item = Slot> {
        let servers = Self::servers_of(mv).map(Slot::Server);
        std::iter::once(Slot::Shard(mv.shard)).chain(servers)
    }

    fn full(&self, slot: Slot) -> bool {
        let (held, cap) = match slot {
            Slot::Shard(s) => (self.shard_load.get(&s), self.caps.max_per_shard),
            Slot::Server(s) => (self.server_load.get(&s), self.caps.max_per_server),
        };
        held.copied().unwrap_or(0) >= cap
    }

    /// The moves in flight holding `slot`.
    fn load(&mut self, slot: Slot) -> &mut usize {
        match slot {
            Slot::Shard(s) => self.shard_load.entry(s).or_insert(0),
            Slot::Server(s) => self.server_load.entry(s).or_insert(0),
        }
    }

    /// Counts `mv` in flight: it holds its slots until [`Self::complete`].
    fn hold(&mut self, mv: ReplicaMove) {
        for slot in Self::slots_of(&mv) {
            *self.load(slot) += 1;
        }
        *self.in_flight.entry(mv).or_insert(0) += 1;
        self.flying += 1;
    }

    /// Examines the queued move at `at`: releases it into `wave` when
    /// no slot of it is full, or returns the slot it waits on.
    fn examine(&mut self, at: usize, wave: &mut Vec<ReplicaMove>) -> Option<Slot> {
        let mv = *self.plan.get(at)?;
        if let Some(slot) = Self::slots_of(&mv).find(|&slot| self.full(slot)) {
            return Some(slot);
        }
        if let Some(released) = self.released.get_mut(at) {
            *released = true;
        }
        self.hold(mv);
        self.queued -= 1;
        wave.push(mv);
        None
    }

    /// Releases the next wave of startable moves (possibly empty if the
    /// caps are saturated).
    ///
    /// Zero caps are honored rather than special-cased: a cap of 0
    /// releases nothing, keeps every move queued, and never stalls the
    /// caller. A move whose source equals its destination holds *two*
    /// per-server slots on that server (its source slot and its
    /// destination slot), mirroring how a real move would occupy both
    /// ends of the copy.
    pub fn release(&mut self) -> Vec<ReplicaMove> {
        let mut wave = Vec::new();
        if self.rescan {
            self.scan(&mut wave);
        } else {
            self.revisit(&mut wave);
        }
        self.freed.clear();
        wave
    }

    /// Examines every queued move from the first, and indexes the
    /// blocked ones if it saw them all.
    fn scan(&mut self, wave: &mut Vec<ReplicaMove>) {
        let released = self.released.get(self.first..).unwrap_or_default();
        self.first += released.iter().take_while(|&&r| r).count();
        let mut blocked = std::mem::take(&mut self.blocked);
        blocked.clear();
        let mut seen = true;
        for at in self.first..self.plan.len() {
            if self.released.get(at) != Some(&false) {
                continue;
            }
            if self.flying < self.caps.max_total {
                blocked.extend(self.examine(at, wave).map(|slot| (slot, at)));
            }
            if self.flying >= self.caps.max_total {
                seen = false;
                break;
            }
        }
        if seen {
            self.waiting = blocked.drain(..).collect();
            self.rescan = false;
        }
        self.blocked = blocked;
    }

    /// Examines the moves waiting on the freed slots, their lists merged
    /// in plan order.
    fn revisit(&mut self, wave: &mut Vec<ReplicaMove>) {
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        for &slot in &self.freed {
            heads.extend(self.next_waiting(slot, 0));
        }
        while let Some(Reverse((at, slot))) = heads.pop() {
            if self.full(slot) {
                continue;
            }
            self.waiting.remove(&(slot, at));
            if let Some(other) = self.examine(at, wave) {
                self.waiting.insert((other, at));
            }
            if self.flying >= self.caps.max_total {
                self.rescan = true;
                break;
            }
            heads.extend(self.next_waiting(slot, at + 1));
        }
        self.heads = heads;
    }

    /// The first move at or after `from` waiting on `slot`.
    fn next_waiting(&self, slot: Slot, from: usize) -> Option<Reverse<(usize, Slot)>> {
        let head = self.waiting.range((slot, from)..).next();
        head.filter(|(of, _)| *of == slot)
            .map(|&(_, at)| Reverse((at, slot)))
    }

    /// Marks a released move complete, freeing its cap slots.
    ///
    /// Unknown moves are ignored (idempotent completion).
    pub fn complete(&mut self, mv: &ReplicaMove) {
        let Entry::Occupied(mut held) = self.in_flight.entry(*mv) else {
            return;
        };
        if *held.get() > 1 {
            *held.get_mut() -= 1;
        } else {
            held.remove();
        }
        self.flying -= 1;
        for slot in Self::slots_of(mv) {
            let held = self.load(slot);
            *held = held.saturating_sub(1);
            if !self.rescan && !self.freed.contains(&slot) {
                self.freed.push(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    assert_eq!(sched.server_load, model.server_load, "seed {seed}");
                    assert_eq!(sched.shard_load, model.shard_load, "seed {seed}");
                    let mut want = model.in_flight.clone();
                    want.sort();
                    let got = sched.in_flight.iter().flat_map(|(m, &n)| vec![*m; n]);
                    assert_eq!(got.collect::<Vec<_>>(), want, "seed {seed}");
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

        fn release(&mut self) -> Vec<ReplicaMove> {
            let mut released = Vec::new();
            if self.settled {
                return released;
            }
            self.settled = true;
            let mut skipped = Vec::new();
            while let Some(mv) = self.queue.pop() {
                if self.can_start(&mv) {
                    for s in MoveScheduler::servers_of(&mv) {
                        *self.server_load.entry(s).or_insert(0) += 1;
                    }
                    *self.shard_load.entry(mv.shard).or_insert(0) += 1;
                    *self.in_flight.entry(mv).or_insert(0) += 1;
                    self.flying += 1;
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

    #[test]
    fn every_wave_is_the_scanning_schedulers() {
        let (mut waves, mut capped, mut zero_caps) = (0, 0, 0);
        let (mut self_moves, mut doubles, mut unknown) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = sm_sim::SimRng::seeded(0x5c4e + seed);
            let (servers, shards) = (1 + rng.index(8) as u32, 1 + rng.index(16) as u64);
            let mut moves: Vec<ReplicaMove> = Vec::new();
            for _ in 0..rng.index(150) {
                let m = if !moves.is_empty() && rng.chance(0.05) {
                    doubles += 1;
                    moves[rng.index(moves.len())]
                } else {
                    let from = rng.chance(0.6).then(|| rng.index(servers as usize) as u32);
                    let to = rng.index(servers as usize) as u32;
                    self_moves += usize::from(from == Some(to));
                    let mut m = mv(rng.index(shards as usize) as u64, from, to);
                    m.replica = rng.index(3);
                    m
                };
                moves.push(m);
            }
            let cap = |rng: &mut sm_sim::SimRng, most: usize| {
                if rng.chance(0.05) {
                    0
                } else {
                    1 + rng.index(most)
                }
            };
            let caps = MoveCaps {
                max_total: cap(&mut rng, 12),
                max_per_server: cap(&mut rng, 4),
                max_per_shard: cap(&mut rng, 2),
            };
            zero_caps +=
                usize::from(caps.max_total * caps.max_per_server * caps.max_per_shard == 0);
            let mut sched = MoveScheduler::new(moves.clone(), caps);
            let mut model = ScanningScheduler::new(moves.clone(), caps);
            let mut held: Vec<ReplicaMove> = Vec::new();
            for round in 0..800 {
                let wave = sched.release();
                assert_eq!(wave, model.release(), "seed {seed} round {round}");
                waves += usize::from(!wave.is_empty());
                capped += usize::from(caps.max_total > 0 && sched.in_flight() == caps.max_total);
                held.extend(wave);
                for _ in 0..rng.index(4) {
                    // A move in flight, taken anywhere; now and then one
                    // never released, or already completed.
                    let done = if held.is_empty() || rng.chance(0.08) {
                        unknown += 1;
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
        println!(
            "{waves} waves, {capped} at the total cap, {zero_caps} plans with a zero cap, \
             {self_moves} self-moves, {doubles} repeated moves, {unknown} unknown completions"
        );
        assert!(waves > 5_000 && capped > 1_000 && zero_caps > 20);
        assert!(self_moves > 500 && doubles > 500 && unknown > 1_000);
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
