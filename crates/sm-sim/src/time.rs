//! Simulated time.
//!
//! Time is a `u64` count of microseconds since simulation start.
//! Microsecond resolution keeps intra-region RPC latencies (~hundreds of
//! µs) representable while two simulated days still fit comfortably.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant `secs` seconds after start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Builds an instant `ms` milliseconds after start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant `days` days after start.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400_000_000)
    }

    /// Whole seconds since start (truncating).
    pub(crate) const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Builds a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000_000)
    }

    /// Builds a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// The span in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Multiplies the span by an integer factor.
    pub const fn mul(self, k: u64) -> Self {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000);
        assert_eq!(SimTime::from_millis(5).0, 5_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).0, 1_500);
        assert_eq!(SimDuration::from_millis_f64(-3.0).0, 0, "negative clamps");
        assert_eq!(SimTime::from_secs(90).as_secs(), 90);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.0, 10_500_000);
        assert_eq!((t - SimTime::from_secs(10)).as_millis_f64(), 500.0);
        // Saturating subtraction: earlier - later is zero, not underflow.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs(1).mul(3), SimDuration::from_secs(3));
    }

    #[test]
    fn multi_week_horizons_stay_exact() {
        // Six weeks of microseconds is nowhere near u64 range: the
        // representable horizon is u64::MAX µs ≈ 584 thousand years.
        let six_weeks = SimTime::from_days(42);
        assert_eq!(six_weeks.0, 42 * 86_400 * 1_000_000);
        assert_eq!(six_weeks.as_secs(), 42 * 86_400);

        // Microsecond arithmetic at that horizon is still exact.
        let t = six_weeks + SimDuration::from_micros(1);
        assert_eq!((t - six_weeks).0, 1);
        assert_eq!(
            t - SimTime::ZERO,
            SimDuration::from_days(42) + SimDuration::from_micros(1)
        );

        // And the f64 view has not lost precision: 2^53 µs ≈ 285 years,
        // so week-scale instants round-trip through as_secs_f64.
        assert!((six_weeks.0 as f64) < (1u64 << 53) as f64);
        let secs = six_weeks.as_secs_f64();
        assert_eq!((secs * 1e6) as u64, six_weeks.0);

        // Repeated accumulation of a sub-millisecond tick lands on the
        // closed-form instant exactly (integer µs: no drift to amass).
        let mut t = SimTime::from_days(42);
        let tick = SimDuration::from_micros(500);
        for _ in 0..200_000 {
            t += tick;
        }
        assert_eq!(
            t,
            SimTime::from_days(42) + SimDuration::from_micros(500 * 200_000)
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(35).to_string(), "35.000ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500s");
    }
}
