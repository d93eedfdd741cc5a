//! Machine-readable simulator benchmark: emits one JSON document on
//! stdout measuring the discrete-event engine itself, in two scenarios.
//!
//! - `dense`: ~1.2M self-rescheduling timer events across 10k chains,
//!   the engine's raw events/sec.
//! - `calendar_week`: seven simulated days of sparse maintenance
//!   activity on 2 000 servers. The *baseline* runs a self-scheduled
//!   500 ms oracle poll event (1.2M polls/week) on the same engine,
//!   while the *current* configuration uses the engine's change-driven
//!   sweep subscription and a coarse 60 s safety net. Both process the
//!   same useful events and run the identical check body; the headline
//!   `speedup` is the ratio of useful-events/sec.
//!
//! `scripts/bench.sh sim` records the output as `BENCH_sim.json`;
//! `tests/bench_sim.rs` gates the recorded numbers. Wall clock is fine
//! here (sm-bench binaries time real work); the simulated workload is
//! seeded and byte-identical run to run — only the timings vary.

use sm_sim::{Ctx, SimDuration, SimTime, Simulation, World};
use std::fmt::Write as _;
use std::time::Instant;

/// Weyl increment (2^64 / φ): full-period sequence used for setup-time
/// jitter so the workload is identical run to run without any RNG in
/// this (threaded-by-`available_parallelism`) module. Handler-time
/// randomness comes from the engine's own seeded `SimRng` via `Ctx`.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

// ------------------------------------------------------------- dense

/// Self-rescheduling timer chains.
const CHAINS: u64 = 10_000;
/// Dense scenario horizon (simulated).
const DENSE_SECS: u64 = 60;

/// Every event reschedules itself with a seeded pseudorandom delay; the
/// queue always holds [`CHAINS`] entries.
struct DenseWorld {
    end: SimTime,
    events: u64,
    sink: u64,
}

impl World for DenseWorld {
    type Event = u64;
    fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
        self.events += 1;
        self.sink = self.sink.wrapping_mul(0x100000001b3) ^ ev;
        if ctx.now() < self.end {
            let delay = ctx.rng().range_u64(1_000, 1_000_000);
            ctx.schedule_in(SimDuration::from_micros(delay), ev);
        }
    }
}

/// Runs the dense scenario; returns (wall seconds, events).
fn dense() -> (f64, u64) {
    let mut sim = Simulation::new(
        DenseWorld {
            end: SimTime::from_secs(DENSE_SECS),
            events: 0,
            sink: 0,
        },
        11,
    );
    for chain in 0..CHAINS {
        sim.schedule_at(SimTime(chain.wrapping_mul(WEYL) % 1_000_000), chain);
    }
    let start = Instant::now();
    sim.run_until(SimTime::from_secs(DENSE_SECS));
    let wall = start.elapsed().as_secs_f64();
    let world = sim.into_world();
    eprintln!(
        "bench_sim: dense wall={wall:.3}s events={} sink={}",
        world.events, world.sink
    );
    (wall, world.events)
}

// ----------------------------------------------------- calendar week

/// Servers with a daily one-hour maintenance window each.
const SERVERS: u64 = 2_000;
/// Simulated horizon: one calendar week.
const WEEK_DAYS: u64 = 7;
/// The baseline's oracle poll cadence (the old world design).
const POLL_MS: u64 = 500;
/// The current safety-net cadence — coarse, because change-driven
/// sweeps already observe every mutation instant.
const SAFETY_NET_SECS: u64 = 60;
/// Sentinel event id for the baseline's self-scheduled poll.
const POLL: u64 = u64::MAX;

/// How the week world arranges its oracle checks.
#[derive(Clone, Copy, PartialEq)]
enum Style {
    /// Old design: a 500 ms poll event rescheduling itself all week.
    Polling,
    /// New design: `state_changed()` plus the engine safety net.
    Subscribed,
}

struct WeekWorld {
    style: Style,
    end: SimTime,
    /// Small mutable state the check body folds over — identical work
    /// for the poll body and the sweep body.
    state: [u64; 64],
    checks: u64,
    useful: u64,
    sink: u64,
}

impl WeekWorld {
    fn check(&mut self) {
        self.checks += 1;
        let mut acc = 0u64;
        for w in self.state {
            acc = acc.rotate_left(7) ^ w;
        }
        self.sink ^= acc;
    }
}

impl World for WeekWorld {
    type Event = u64;
    fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
        if ev == POLL {
            self.check();
            if ctx.now() < self.end {
                ctx.schedule_in(SimDuration::from_millis(POLL_MS), POLL);
            }
            return;
        }
        self.useful += 1;
        self.state[(ev % 64) as usize] = self.state[(ev % 64) as usize].wrapping_add(ev | 1);
        if self.style == Style::Subscribed {
            ctx.state_changed();
        }
    }

    fn sweep(&mut self, _ctx: &mut Ctx<'_, u64>) {
        self.check();
    }

    fn sweep_interval(&self) -> Option<SimDuration> {
        match self.style {
            Style::Polling => None,
            Style::Subscribed => Some(SimDuration::from_secs(SAFETY_NET_SECS)),
        }
    }
}

/// The week's useful events: each server upgraded once per day inside
/// a one-hour window starting 09:00, with seeded jitter. Deterministic
/// and identical for both styles.
fn week_schedule() -> Vec<(SimTime, u64)> {
    let mut schedule = Vec::new();
    for day in 0..WEEK_DAYS {
        let window = SimTime::from_days(day) + SimDuration::from_secs(9 * 3_600);
        for server in 0..SERVERS {
            let jitter = (day * SERVERS + server).wrapping_mul(WEYL) % 1_500_000;
            let slot = server * 3_600_000_000 / SERVERS + jitter;
            schedule.push((window + SimDuration::from_micros(slot), server));
        }
    }
    schedule
}

/// Runs the week in `style`; returns (wall s, useful, total
/// check-or-event count, sweeps).
fn week(style: Style, schedule: &[(SimTime, u64)]) -> (f64, u64, u64, u64) {
    let end = SimTime::from_days(WEEK_DAYS);
    let mut sim = Simulation::new(
        WeekWorld {
            style,
            end,
            state: [0; 64],
            checks: 0,
            useful: 0,
            sink: 0,
        },
        5,
    );
    for &(at, ev) in schedule {
        sim.schedule_at(at, ev);
    }
    if style == Style::Polling {
        sim.schedule_at(SimTime::from_millis(POLL_MS), POLL);
    }
    let start = Instant::now();
    sim.run_until(end);
    let wall = start.elapsed().as_secs_f64();
    let steps = sim.steps();
    let sweeps = sim.sweeps();
    let world = sim.into_world();
    eprintln!(
        "bench_sim: week wall={wall:.3}s useful={} checks={} steps={steps} \
         sweeps={sweeps} sink={}",
        world.useful, world.checks, world.sink
    );
    (wall, world.useful, steps, sweeps)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm-up pass (allocator, page faults), then the measured pass.
    let (_warm_wall, _warm_events) = dense();
    let (dense_wall, dense_events) = dense();
    let dense_rate = dense_events as f64 / dense_wall;

    let schedule = week_schedule();
    let (base_wall, base_useful, base_steps, _) = week(Style::Polling, &schedule);
    let (cur_wall, cur_useful, cur_steps, cur_sweeps) = week(Style::Subscribed, &schedule);
    assert_eq!(base_useful, cur_useful, "same useful work in both designs");
    let base_rate = base_useful as f64 / base_wall;
    let cur_rate = cur_useful as f64 / cur_wall;

    let mut out = String::from("{\n");
    let _infallible = write!(
        out,
        "  \"bench\": \"sim\",\n  \"cores\": {cores},\n  \
         \"dense\": {{\"chains\": {CHAINS}, \"events\": {dense_events}, \
         \"wall_s\": {dense_wall:.4}, \"events_per_sec\": {dense_rate:.0}}},\n  \
         \"calendar_week\": {{\"sim_days\": {WEEK_DAYS}, \"servers\": {SERVERS}, \
         \"useful_events\": {cur_useful}, \
         \"baseline_total_steps\": {base_steps}, \"baseline_wall_s\": {base_wall:.4}, \
         \"baseline_useful_per_sec\": {base_rate:.0}, \
         \"current_total_steps\": {cur_steps}, \"current_sweeps\": {cur_sweeps}, \
         \"current_wall_s\": {cur_wall:.4}, \"current_useful_per_sec\": {cur_rate:.0}, \
         \"speedup\": {:.2}}},\n  \
         \"floors\": {{\"calendar_week_speedup\": 5.0, \"current_useful_per_sec\": 200000}}\n}}",
        cur_rate / base_rate,
    );
    println!("{out}");
}
