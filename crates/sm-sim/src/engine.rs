//! The discrete-event loop.
//!
//! A [`Simulation`] owns a user-defined [`World`] plus a calendar queue
//! of timestamped events. `run_until` repeatedly pops the earliest event,
//! advances the clock, and hands the event to the world, which may
//! schedule more events through the [`Ctx`] it receives. Ties in time
//! break by insertion order, so same-instant events are FIFO and runs
//! are fully deterministic.
//!
//! # Oracle sweeps
//!
//! Worlds that audit invariants implement [`World::sweep`] and return a
//! safety-net cadence from [`World::sweep_interval`]. The engine then
//! owns the sweep schedule: it runs a sweep immediately after any event
//! whose handler called [`Ctx::state_changed`] (same timestamp, so
//! sub-interval violation windows are observed), and fires a coarse
//! safety-net sweep whenever a full interval passes without one. Worlds
//! cannot forget to arm the sweep, and the old fixed-poll blind spot —
//! a violation that opens and closes between two polls — is gone.

use crate::queue::{CalendarQueue, Scheduled};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The simulated system: owns all component state and reacts to events.
pub trait World {
    /// The event alphabet this world understands.
    type Event;

    /// Handles one event at `ctx.now()`; schedule follow-ups via `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);

    /// Audits world state at `ctx.now()` (invariant checks, trace
    /// samples). The engine calls this after state-changing events and
    /// on the safety-net cadence; worlds never schedule it themselves.
    fn sweep(&mut self, _ctx: &mut Ctx<'_, Self::Event>) {}

    /// Safety-net sweep cadence, or `None` for no sweeps. Read once at
    /// [`Simulation`] construction; returning a different value later
    /// has no effect.
    fn sweep_interval(&self) -> Option<SimDuration> {
        None
    }
}

/// Handle given to [`World::handle`] for scheduling and randomness.
pub struct Ctx<'a, E> {
    now: SimTime,
    rng: &'a mut SimRng,
    queue: &'a mut CalendarQueue<E>,
    seq: &'a mut u64,
    dirty: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time; times in the past fire at
    /// the current instant (events never travel backwards).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = *self.seq;
        *self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Marks that this event changed oracle-relevant state: the engine
    /// runs [`World::sweep`] at this same timestamp, right after the
    /// current handler returns.
    pub fn state_changed(&mut self) {
        *self.dirty = true;
    }
}

/// The event loop driving a [`World`].
///
/// # Examples
///
/// ```
/// use sm_sim::{Ctx, SimDuration, SimTime, Simulation, World};
///
/// struct Counter {
///     fired: u32,
/// }
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
///         self.fired += 1;
///         if self.fired < 3 {
///             ctx.schedule_in(SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: 0 }, 42);
/// sim.schedule_at(SimTime::ZERO, ());
/// sim.run();
/// assert_eq!(sim.world().fired, 3);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub struct Simulation<W: World> {
    world: W,
    /// Boxed, so moving a `Simulation` stays cheap: the wheel header
    /// (occupancy bitmap and bookkeeping) is a few hundred bytes.
    queue: Box<CalendarQueue<W::Event>>,
    now: SimTime,
    seq: u64,
    rng: SimRng,
    steps: u64,
    sweeps: u64,
    dirty: bool,
    /// Safety-net cadence, captured from the world at construction.
    sweep_every: Option<SimDuration>,
    /// When the next safety-net sweep is due (pushed out by any sweep).
    sweep_next: Option<SimTime>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation over `world` with the given RNG seed.
    pub fn new(world: W, seed: u64) -> Self {
        let sweep_every = world.sweep_interval();
        Self {
            world,
            queue: Box::new(CalendarQueue::new()),
            now: SimTime::ZERO,
            seq: 0,
            rng: SimRng::seeded(seed),
            steps: 0,
            sweeps: 0,
            dirty: false,
            sweep_every,
            sweep_next: sweep_every.map(|every| SimTime::ZERO + every),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of oracle sweeps run so far (not counted in [`steps`]).
    ///
    /// [`steps`]: Simulation::steps
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Number of events still waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Read access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The simulation's random source (for setup-time sampling).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules an event at an absolute time (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs the sweep at the current instant and re-arms the safety
    /// net a full interval out.
    fn sweep_now(&mut self) {
        self.sweeps += 1;
        self.dirty = false;
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            queue: &mut self.queue,
            seq: &mut self.seq,
            dirty: &mut self.dirty,
        };
        self.world.sweep(&mut ctx);
        // A sweep observing its own writes must not re-trigger itself.
        self.dirty = false;
        if let Some(every) = self.sweep_every {
            self.sweep_next = Some(self.now + every);
        }
    }

    /// Advances past exactly one thing — a due safety-net sweep or the
    /// next event (plus its change-driven sweep) — and returns true.
    /// Returns false when nothing remains at or before `limit`.
    ///
    /// With no events left, safety-net sweeps only run inside a bounded
    /// window (`limit = Some`): an unbounded drain would never finish.
    fn advance_once(&mut self, limit: Option<SimTime>) -> bool {
        let head = self.queue.next_at();
        if let Some(due) = self.sweep_next {
            // The safety net fires only strictly before the next event:
            // an event at the due instant goes first and usually
            // resolves the sweep by marking itself dirty.
            let before_head = head.map_or(limit.is_some(), |h| due < h);
            if before_head {
                if limit.is_some_and(|lim| due > lim) {
                    // Neither the sweep nor any event fits the window
                    // (the head, if any, is even later than the sweep).
                    return false;
                }
                debug_assert!(due >= self.now, "time must not go backwards");
                self.now = due;
                self.sweep_now();
                return true;
            }
        }
        let Some(h) = head else {
            return false;
        };
        if limit.is_some_and(|lim| h > lim) {
            return false;
        }
        let Some(next) = self.queue.pop() else {
            return false;
        };
        debug_assert!(next.at >= self.now, "time must not go backwards");
        self.now = next.at;
        self.steps += 1;
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            queue: &mut self.queue,
            seq: &mut self.seq,
            dirty: &mut self.dirty,
        };
        self.world.handle(&mut ctx, next.event);
        if self.dirty {
            self.sweep_now();
        }
        true
    }

    /// Processes a single event (or due sweep); returns false if
    /// nothing remains.
    pub fn step(&mut self) -> bool {
        self.advance_once(None)
    }

    /// Runs until the queue drains or the next event is after `deadline`;
    /// the clock then rests at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.advance_once(Some(deadline)) {}
        if self.now < deadline {
            // Nothing before the deadline remains; the bounded run has
            // semantically advanced time to it, so callers can keep
            // scheduling relative to the deadline.
            self.now = deadline;
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.advance_once(None) {}
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            self.seen.push((ctx.now(), ev));
            if ev == 100 {
                // Fan out two follow-ups at the same future instant.
                ctx.schedule_in(SimDuration::from_secs(1), 101);
                ctx.schedule_in(SimDuration::from_secs(1), 102);
            }
        }
    }

    fn sim() -> Simulation<Recorder> {
        Simulation::new(Recorder { seen: Vec::new() }, 1)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = sim();
        s.schedule_at(SimTime::from_secs(3), 3);
        s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_at(SimTime::from_secs(2), 2);
        s.run();
        let evs: Vec<u32> = s.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(evs, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_secs(3));
        assert_eq!(s.steps(), 3);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let mut s = sim();
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(5), i);
        }
        s.run();
        let evs: Vec<u32> = s.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(evs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut s = sim();
        s.schedule_at(SimTime::from_secs(1), 100);
        s.run();
        let evs: Vec<u32> = s.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(evs, vec![100, 101, 102]);
        assert_eq!(s.world().seen[1].0, SimTime::from_secs(2));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim();
        s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_at(SimTime::from_secs(10), 10);
        s.run_until(SimTime::from_secs(5));
        assert_eq!(s.world().seen.len(), 1);
        // Queue still holds the later event.
        s.run_until(SimTime::from_secs(20));
        assert_eq!(s.world().seen.len(), 2);
    }

    #[test]
    fn run_until_parks_clock_when_idle() {
        let mut s = sim();
        s.run_until(SimTime::from_secs(30));
        assert_eq!(s.now(), SimTime::from_secs(30));
    }

    #[test]
    fn past_events_fire_now_not_backwards() {
        let mut s = sim();
        s.schedule_at(SimTime::from_secs(5), 1);
        s.run();
        s.schedule_at(SimTime::from_secs(1), 2); // in the past
        s.run();
        assert_eq!(s.world().seen[1].0, SimTime::from_secs(5));
    }

    #[test]
    fn mixed_schedules_run_in_at_seq_order() {
        let mut s = sim();
        // A mix of ties, out-of-order pushes, and a fan-out chain: the
        // follow-ups 100 schedules at 2 s queue behind the earlier ties.
        s.schedule_at(SimTime::from_secs(7), 7);
        s.schedule_at(SimTime::from_secs(1), 100);
        for i in 0..5 {
            s.schedule_at(SimTime::from_secs(2), i);
        }
        s.run();
        let evs: Vec<u32> = s.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(evs, vec![100, 0, 1, 2, 3, 4, 101, 102, 7]);
    }

    /// A world with a sweep subscription: records each sweep instant
    /// and whether the flag was up at that moment.
    struct Swept {
        flag: bool,
        sweeps_at: Vec<(SimTime, bool)>,
    }

    /// Events: 1 = raise flag (dirty), 2 = lower flag (dirty),
    /// 0 = unrelated event (not dirty).
    impl World for Swept {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            match ev {
                1 => {
                    self.flag = true;
                    ctx.state_changed();
                }
                2 => {
                    self.flag = false;
                    ctx.state_changed();
                }
                _ => {}
            }
        }
        fn sweep(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.sweeps_at.push((ctx.now(), self.flag));
        }
        fn sweep_interval(&self) -> Option<SimDuration> {
            Some(SimDuration::from_millis(500))
        }
    }

    fn swept() -> Simulation<Swept> {
        Simulation::new(
            Swept {
                flag: false,
                sweeps_at: Vec::new(),
            },
            1,
        )
    }

    #[test]
    fn change_driven_sweep_fires_at_the_marking_instant() {
        let mut s = swept();
        // Flag is up only for 40ms, entirely inside one 500ms interval.
        s.schedule_at(SimTime::from_millis(130), 1);
        s.schedule_at(SimTime::from_millis(170), 2);
        s.run_until(SimTime::from_secs(1));
        let seen = &s.world().sweeps_at;
        assert!(seen.contains(&(SimTime::from_millis(130), true)));
        assert!(seen.contains(&(SimTime::from_millis(170), false)));
    }

    #[test]
    fn unmarked_events_do_not_sweep() {
        let mut s = swept();
        s.schedule_at(SimTime::from_millis(100), 0);
        s.schedule_at(SimTime::from_millis(200), 0);
        s.run_until(SimTime::from_millis(400));
        assert!(s.world().sweeps_at.is_empty());
        assert_eq!(s.sweeps(), 0);
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn safety_net_keeps_cadence_through_idle_windows() {
        let mut s = swept();
        s.run_until(SimTime::from_secs(2));
        // Sweeps at 500ms, 1s, 1.5s, 2s even with zero events.
        let at: Vec<SimTime> = s.world().sweeps_at.iter().map(|&(t, _)| t).collect();
        assert_eq!(
            at,
            (1..=4)
                .map(|i| SimTime::from_millis(500 * i))
                .collect::<Vec<_>>()
        );
        assert_eq!(s.now(), SimTime::from_secs(2));
        assert_eq!(s.steps(), 0);
        assert_eq!(s.sweeps(), 4);
    }

    #[test]
    fn change_driven_sweep_pushes_the_safety_net_out() {
        let mut s = swept();
        // Dirty event at 400ms → sweep at 400ms; next safety net is
        // then due at 900ms, not 500ms.
        s.schedule_at(SimTime::from_millis(400), 1);
        s.run_until(SimTime::from_millis(1000));
        let at: Vec<SimTime> = s.world().sweeps_at.iter().map(|&(t, _)| t).collect();
        assert_eq!(
            at,
            vec![SimTime::from_millis(400), SimTime::from_millis(900)]
        );
    }

    #[test]
    fn drain_run_does_not_sweep_forever() {
        let mut s = swept();
        s.schedule_at(SimTime::from_millis(600), 1);
        s.run(); // unbounded drain: must terminate
        assert_eq!(s.now(), SimTime::from_millis(600));
        // One safety-net sweep (500ms) + the change-driven one (600ms).
        assert_eq!(s.sweeps(), 2);
    }
}
