//! Seeded stress tests for the calendar event queue: the engine must
//! deliver in exact `(at, seq)` order under randomized interleavings,
//! bucket rollovers, far-future overflow, and multi-week idle gaps.
//!
//! The model checks run *through the engine* (not against queue
//! internals): a world that records `(now, event)` for every delivery
//! is exactly the sorted-by-`(at, seq)` view of the schedule, so a
//! stable-sorted vector is a complete reference model for a static
//! schedule, and a binary heap over `(at, seq, event)` running the same
//! rules is one for handler-time pushes.

use sm_sim::{Ctx, SimDuration, SimRng, SimTime, Simulation, World};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Records every delivery; events optionally fan out follow-ups, so the
/// stress runs also mix handler-time pushes with setup-time pushes.
struct Recorder {
    seen: Vec<(SimTime, u64)>,
    /// `(delay_us, payload)` follow-ups, popped one per `Spawn` event.
    spawns: Vec<(u64, u64)>,
}

/// Event payloads ≥ `SPAWN_BASE` pop one entry off `spawns` and
/// schedule it as a follow-up.
const SPAWN_BASE: u64 = 1 << 32;

impl World for Recorder {
    type Event = u64;
    fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
        self.seen.push((ctx.now(), ev));
        if ev >= SPAWN_BASE {
            if let Some((delay, payload)) = self.spawns.pop() {
                ctx.schedule_in(SimDuration::from_micros(delay), payload);
            }
        }
    }
}

fn run(schedule: &[(u64, u64)], spawns: Vec<(u64, u64)>) -> Vec<(SimTime, u64)> {
    let mut sim = Simulation::new(
        Recorder {
            seen: Vec::new(),
            spawns,
        },
        1,
    );
    for &(at, ev) in schedule {
        sim.schedule_at(SimTime(at), ev);
    }
    sim.run();
    sim.into_world().seen
}

/// The reference engine: a binary heap over `(at, seq, event)` applying
/// [`Recorder`]'s rules, so handler-time pushes take the next `seq`.
fn heap_model(schedule: &[(u64, u64)], mut spawns: Vec<(u64, u64)>) -> Vec<(SimTime, u64)> {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = (0..)
        .zip(schedule)
        .map(|(seq, &(at, ev))| Reverse((at, seq, ev)))
        .collect();
    let mut seq = schedule.len() as u64;
    let mut seen = Vec::new();
    while let Some(Reverse((now, _, ev))) = heap.pop() {
        seen.push((SimTime(now), ev));
        if ev >= SPAWN_BASE {
            if let Some((delay, payload)) = spawns.pop() {
                heap.push(Reverse((now + delay, seq, payload)));
                seq += 1;
            }
        }
    }
    seen
}

/// The reference model for a static schedule: stable sort by time.
/// Insertion order is the tiebreak — exactly the engine's `(at, seq)`
/// contract — so `sort_by_key` (stable) on `at` alone is the spec.
fn model(schedule: &[(u64, u64)]) -> Vec<(SimTime, u64)> {
    let mut v: Vec<(SimTime, u64)> = schedule.iter().map(|&(at, ev)| (SimTime(at), ev)).collect();
    v.sort_by_key(|&(at, _)| at);
    v
}

#[test]
fn randomized_static_schedules_match_the_sorted_model() {
    for seed in 0..24 {
        let mut rng = SimRng::seeded(seed);
        let n = 200 + rng.range_u64(0, 2_000) as usize;
        // Mix scales: same-µs bursts, wheel-width spreads, far-future
        // outliers. range picked per event so every run crosses bucket
        // and wheel boundaries many times.
        let schedule: Vec<(u64, u64)> = (0..n as u64)
            .map(|i| {
                let at = match rng.range_u64(0, 10) {
                    0..=3 => rng.range_u64(0, 2_000),           // dense head
                    4..=6 => rng.range_u64(0, 2_000_000),       // within ~2 wheel turns
                    7..=8 => rng.range_u64(0, 600_000_000),     // minutes out
                    _ => rng.range_u64(0, 14 * 86_400_000_000), // up to 2 weeks out
                };
                (at, i)
            })
            .collect();
        assert_eq!(
            run(&schedule, Vec::new()),
            model(&schedule),
            "calendar queue diverged from model at seed {seed}"
        );
    }
}

#[test]
fn randomized_dynamic_interleavings_match_across_queues() {
    // Handler-time pushes interleave pops with inserts — the case a
    // static model can't express. The engine and the heap must agree
    // exactly.
    for seed in 0..16 {
        let mut rng = SimRng::seeded(0xD15C0 + seed);
        let schedule: Vec<(u64, u64)> = (0..400)
            .map(|i| (rng.range_u64(0, 5_000_000), SPAWN_BASE + i))
            .collect();
        let spawns: Vec<(u64, u64)> = (0..400)
            .map(|i| {
                let delay = match rng.range_u64(0, 4) {
                    0 => 0,                                    // same instant as the parent
                    1 => rng.range_u64(0, 1_024),              // same or next bucket
                    2 => rng.range_u64(0, 1_100_000),          // just past the wheel horizon
                    _ => rng.range_u64(0, 3 * 86_400_000_000), // days of overflow
                };
                (delay, i)
            })
            .collect();
        let a = run(&schedule, spawns.clone());
        let b = heap_model(&schedule, spawns);
        assert_eq!(a, b, "engine and heap diverged at seed {seed}");
        assert_eq!(a.len(), 800);
    }
}

#[test]
fn bucket_rollover_and_overflow_edges() {
    // Hand-picked boundary times: bucket edges (1024µs), the wheel
    // horizon (1024 buckets ≈ 1.048s), one-past wraps, and deep
    // overflow — with same-instant ties at each.
    let edges = [
        0u64,
        1,
        1_023,
        1_024,     // second bucket
        1_048_575, // last µs on the initial wheel horizon
        1_048_576, // first µs past it (overflow at push time)
        1_048_577,
        2 * 1_048_576,      // a full horizon later
        86_400_000_000,     // 1 day
        7 * 86_400_000_000, // 1 week
    ];
    let mut schedule = Vec::new();
    let mut i = 0;
    for &at in &edges {
        for _ in 0..3 {
            schedule.push((at, i));
            i += 1;
        }
    }
    // Push in reverse so insertion order disagrees with time order
    // everywhere except within each tie-burst (reversal is per-time).
    let mut reversed: Vec<(u64, u64)> = Vec::new();
    for &at in edges.iter().rev() {
        for &(a, ev) in &schedule {
            if a == at {
                reversed.push((a, ev));
            }
        }
    }
    assert_eq!(run(&reversed, Vec::new()), model(&reversed));
}

#[test]
fn multi_week_idle_gaps_fast_forward_exactly() {
    // A sparse schedule across six weeks: one event every ~3.5 days.
    // The calendar queue must jump each gap (instead of stepping
    // through ~300 million empty buckets) and land on the exact µs.
    let schedule: Vec<(u64, u64)> = (0..12)
        .map(|i| (i * 3 * 86_400_000_000 + i * 500_000_000 + 7, i))
        .collect();
    let got = run(&schedule, Vec::new());
    assert_eq!(got, model(&schedule));
    assert_eq!(got.last().map(|&(t, _)| t), Some(SimTime(schedule[11].0)));
}

#[test]
fn run_until_across_idle_gap_parks_then_resumes() {
    struct Quiet;
    impl World for Quiet {
        type Event = u64;
        fn handle(&mut self, _ctx: &mut Ctx<'_, u64>, _ev: u64) {}
    }
    let mut sim = Simulation::new(Quiet, 3);
    sim.schedule_at(SimTime::from_days(20), 1);
    // The deadline falls inside the 20-day idle gap.
    sim.run_until(SimTime::from_days(13));
    assert_eq!(sim.now(), SimTime::from_days(13), "clock parks at deadline");
    assert_eq!(sim.steps(), 0);
    // Late push into the gap must still come out first.
    sim.schedule_at(SimTime::from_days(15), 2);
    sim.run();
    assert_eq!(sim.steps(), 2);
    assert_eq!(sim.now(), SimTime::from_days(20));
}
