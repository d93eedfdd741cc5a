//! The event queue behind the [`crate::Simulation`] loop: a **calendar
//! queue**, a near-future wheel of fixed-width time buckets plus a
//! far-future overflow map. Pushes are O(1) appends, pops amortize to a
//! small per-bucket sort, and empty stretches of virtual time are
//! skipped with a bitmap scan (within the wheel) or a single
//! ordered-map lookup (beyond it) instead of being stepped through poll
//! by poll. Its reference model, a binary heap over `(at, seq)`, lives
//! in `tests/queue_stress.rs`.
//!
//! # Tie-order contract
//!
//! Every scheduled event carries `(at, seq)` where `seq` is a global
//! monotone insertion counter. The queue pops in strict `(at, seq)`
//! order: same-instant events are FIFO by insertion, and a run's event
//! order — and therefore its traces — is a pure function of the
//! schedule, never of queue internals.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A timestamped event with its insertion sequence number.
pub(crate) struct Scheduled<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

/// Microseconds per wheel bucket, as a shift: 1024 µs ≈ 1 ms. Latency
/// samples land at µs resolution, so a bucket groups one RTT's worth of
/// deliveries; the per-bucket sort stays tiny.
const BUCKET_SHIFT: u32 = 10;
/// Wheel slots. 1024 buckets × ~1 ms ≈ 1.05 s of near future — wide
/// enough that heartbeats, retries, and RPC hops all stay on the wheel.
/// Must be a multiple of 64 (the occupancy bitmap is word-indexed).
const WHEEL_SLOTS: usize = 1024;
const WORDS: usize = WHEEL_SLOTS / 64;

/// The calendar queue.
///
/// Invariants:
/// - `cursor` is the absolute bucket index of the last pop (events only
///   leave in nondecreasing time, and the engine clamps pushes to
///   `now`, so no push ever lands below `cursor`);
/// - wheel slot `b % WHEEL_SLOTS` holds exactly the events of absolute
///   bucket `b` for `b` in `[cursor, cursor + WHEEL_SLOTS)`; buckets
///   beyond the horizon live in `overflow` keyed by absolute index;
/// - `cur` stages the bucket currently being drained, sorted in
///   *descending* `(at, seq)` order so the next event is `cur.pop()`;
///   same-bucket pushes during the drain are inserted in place.
pub(crate) struct CalendarQueue<E> {
    wheel: Vec<Vec<Scheduled<E>>>,
    /// One bit per wheel slot: set iff the slot is non-empty.
    occupied: [u64; WORDS],
    /// Events currently on the wheel (not slots).
    wheel_len: usize,
    /// Far-future buckets: absolute bucket index → events, unsorted.
    overflow: BTreeMap<u64, Vec<Scheduled<E>>>,
    /// Absolute bucket index the queue has drained up to.
    cursor: u64,
    /// The staged bucket, descending `(at, seq)`; `pop` takes the tail.
    cur: Vec<Scheduled<E>>,
    /// True while `cur` stages bucket `cursor` (its wheel slot is then
    /// empty and same-bucket pushes go straight into `cur`).
    staged: bool,
    len: usize,
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            wheel_len: 0,
            overflow: BTreeMap::new(),
            cursor: 0,
            cur: Vec::new(),
            staged: false,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn bucket_of(at: SimTime) -> u64 {
        at.0 >> BUCKET_SHIFT
    }

    pub(crate) fn push(&mut self, s: Scheduled<E>) {
        let b = Self::bucket_of(s.at);
        debug_assert!(b >= self.cursor, "push below the queue cursor");
        self.len += 1;
        if b == self.cursor && self.staged {
            // The bucket being drained: keep `cur` sorted (descending),
            // so the new event pops in exact (at, seq) order.
            let pos = self.cur.partition_point(|x| (x.at, x.seq) > (s.at, s.seq));
            self.cur.insert(pos, s);
        } else if b < self.cursor + WHEEL_SLOTS as u64 {
            let slot = (b % WHEEL_SLOTS as u64) as usize;
            if let (Some(word), Some(bucket)) =
                (self.occupied.get_mut(slot / 64), self.wheel.get_mut(slot))
            {
                *word |= 1 << (slot % 64);
                bucket.push(s);
                self.wheel_len += 1;
            }
        } else {
            self.overflow.entry(b).or_default().push(s);
        }
    }

    /// Sets or clears wheel slot `slot`'s occupancy bit. Every slot is
    /// below `WHEEL_SLOTS` by construction, here and at each `get` below.
    fn mark(&mut self, slot: usize, occupied: bool) {
        if let Some(word) = self.occupied.get_mut(slot / 64) {
            let bit = 1 << (slot % 64);
            if occupied {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// Offset (in buckets from `cursor`) of the first occupied wheel
    /// slot, scanning the bitmap a word at a time.
    fn next_occupied_offset(&self) -> Option<u64> {
        let n = WHEEL_SLOTS as u64;
        let mut d = 0u64;
        while d < n {
            let slot = ((self.cursor + d) % n) as usize;
            let bit = slot % 64;
            let w = self.occupied.get(slot / 64).map_or(0, |w| w >> bit);
            if w != 0 {
                let cand = d + u64::from(w.trailing_zeros());
                return (cand < n).then_some(cand);
            }
            d += 64 - bit as u64;
        }
        None
    }

    /// Moves every overflow bucket that now fits the wheel horizon onto
    /// the wheel. Called after any cursor advance.
    fn pull_overflow(&mut self) {
        let end = self.cursor + WHEEL_SLOTS as u64;
        loop {
            let k = match self.overflow.first_key_value() {
                Some((&k, _)) if k < end => k,
                _ => break,
            };
            if let Some(v) = self.overflow.remove(&k) {
                let slot = (k % WHEEL_SLOTS as u64) as usize;
                self.mark(slot, true);
                self.wheel_len += v.len();
                if let Some(bucket) = self.wheel.get_mut(slot) {
                    debug_assert!(bucket.is_empty(), "slot not drained");
                    *bucket = v;
                }
            }
        }
    }

    /// Stages the bucket at `cursor`: swaps its slot into `cur` (the
    /// slot inherits `cur`'s spent allocation — buckets recycle their
    /// backing storage) and sorts descending.
    fn stage_cursor_bucket(&mut self) {
        let slot = (self.cursor % WHEEL_SLOTS as u64) as usize;
        debug_assert!(self.cur.is_empty());
        if let Some(bucket) = self.wheel.get_mut(slot) {
            std::mem::swap(&mut self.cur, bucket);
        }
        self.mark(slot, false);
        self.wheel_len -= self.cur.len();
        self.cur.sort_unstable_by_key(|s| Reverse((s.at, s.seq)));
        self.staged = true;
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            if let Some(s) = self.cur.pop() {
                self.len -= 1;
                return Some(s);
            }
            if self.len == 0 {
                return None;
            }
            // Advance: fast-forward over empty buckets — a bitmap scan
            // within the wheel, a single ordered-map lookup beyond it.
            self.staged = false;
            match self.next_occupied_offset() {
                Some(d) => {
                    self.cursor += d;
                    self.pull_overflow();
                    self.stage_cursor_bucket();
                }
                None => {
                    // The wheel is empty; jump straight to the first
                    // far-future bucket (idle-gap fast-forward).
                    let Some((&k, _)) = self.overflow.first_key_value() else {
                        debug_assert!(false, "len > 0 with no events anywhere");
                        return None;
                    };
                    self.cursor = k;
                    self.pull_overflow();
                    self.stage_cursor_bucket();
                }
            }
        }
    }

    /// Timestamp of the next event without popping it (non-mutating:
    /// the cursor only moves on actual pops, so later pushes at earlier
    /// times stay legal).
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        if let Some(s) = self.cur.last() {
            return Some(s.at);
        }
        if self.wheel_len > 0 {
            if let Some(d) = self.next_occupied_offset() {
                let slot = ((self.cursor + d) % WHEEL_SLOTS as u64) as usize;
                return self
                    .wheel
                    .get(slot)
                    .and_then(|v| v.iter().map(|s| s.at).min());
            }
        }
        // The first overflow bucket holds the globally earliest
        // remaining event (buckets are keyed by time).
        self.overflow
            .first_key_value()
            .and_then(|(_, v)| v.iter().map(|s| s.at).min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            at: SimTime(at_us),
            seq,
            event: seq,
        }
    }

    /// Drains a queue, asserting strict (at, seq) order, and returns
    /// the popped sequence numbers.
    fn drain(q: &mut CalendarQueue<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut last = (SimTime::ZERO, 0u64);
        while let Some(s) = q.pop() {
            assert!((s.at, s.seq) >= last, "order violated at seq {}", s.seq);
            last = (s.at, s.seq);
            out.push(s.seq);
        }
        out
    }

    #[test]
    fn same_bucket_events_pop_in_seq_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..10 {
            q.push(ev(500, seq));
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_wrap_and_overflow_both_drain_in_time_order() {
        let mut q = CalendarQueue::new();
        // One event per region: staged bucket, same wheel turn, next
        // wheel turn (forces rollover), and deep overflow (days out).
        q.push(ev(10, 0));
        q.push(ev(900_000, 1)); // within the first horizon
        q.push(ev(3_000_000, 2)); // next wheel turn
        q.push(ev(86_400_000_000, 3)); // one day out
        assert_eq!(q.next_at(), Some(SimTime(10)));
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_into_staged_bucket_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(ev(100, 0));
        q.push(ev(300, 1));
        let first = q.pop().expect("first");
        assert_eq!(first.seq, 0);
        // Same bucket, between the two: must pop before seq 1.
        q.push(ev(200, 2));
        q.push(ev(300, 3)); // ties with seq 1 at t=300: FIFO by seq
        assert_eq!(drain(&mut q), vec![2, 1, 3]);
    }

    #[test]
    fn idle_gap_jump_lands_exactly() {
        let mut q = CalendarQueue::new();
        q.push(ev(1_000, 0));
        q.push(ev(3_600_000_000, 1)); // an hour later, nothing between
        assert_eq!(q.pop().map(|s| s.seq), Some(0));
        assert_eq!(q.next_at(), Some(SimTime(3_600_000_000)));
        assert_eq!(q.pop().map(|s| s.at), Some(SimTime(3_600_000_000)));
        assert_eq!(q.pop().map(|s| s.seq), None);
    }
}
