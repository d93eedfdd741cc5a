//! Diurnal load curves.
//!
//! Production figures 18 and 23 ride on the day/night request cycle of
//! billions of users. This sinusoid-with-noise generator reproduces
//! that envelope.

use sm_sim::{SimRng, SimTime};

/// A periodic load curve: `base x (1 + amplitude x sin(...))`.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalCurve {
    /// Mean level.
    pub base: f64,
    /// Relative swing in `[0, 1]`.
    pub amplitude: f64,
    /// Period in seconds (86_400 for a day).
    pub period_secs: f64,
    /// Phase offset in seconds (where in the cycle t=0 falls).
    pub phase_secs: f64,
}

impl DiurnalCurve {
    /// A daily curve peaking `peak_hour` hours into each day.
    pub fn daily(base: f64, amplitude: f64, peak_hour: f64) -> Self {
        // sin peaks at a quarter period; shift so the peak lands at
        // `peak_hour`.
        let period = 86_400.0;
        let phase = peak_hour * 3600.0 - period / 4.0;
        Self {
            base,
            amplitude: amplitude.clamp(0.0, 1.0),
            period_secs: period,
            phase_secs: phase,
        }
    }

    /// The deterministic level at `t`.
    pub(crate) fn level(&self, t: SimTime) -> f64 {
        let x = (t.as_secs_f64() - self.phase_secs) / self.period_secs;
        self.base * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * x).sin())
    }

    /// The level with multiplicative noise of `noise` relative width.
    pub fn sample(&self, t: SimTime, noise: f64, rng: &mut SimRng) -> f64 {
        let jitter = 1.0 + noise * (rng.f64() * 2.0 - 1.0);
        (self.level(t) * jitter).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_at_configured_hour() {
        let c = DiurnalCurve::daily(100.0, 0.5, 20.0);
        let peak = c.level(SimTime::from_secs(20 * 3600));
        let trough = c.level(SimTime::from_secs(8 * 3600));
        assert!((peak - 150.0).abs() < 1e-6, "peak {peak}");
        assert!((trough - 50.0).abs() < 1e-6, "trough {trough}");
    }

    #[test]
    fn period_repeats_daily() {
        let c = DiurnalCurve::daily(10.0, 0.3, 12.0);
        let a = c.level(SimTime::from_secs(5 * 3600));
        let b = c.level(SimTime::from_secs(5 * 3600 + 86_400));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn noise_stays_bounded_and_nonnegative() {
        let c = DiurnalCurve::daily(100.0, 0.9, 0.0);
        let mut rng = SimRng::seeded(3);
        for h in 0..48 {
            let v = c.sample(SimTime::from_secs(h * 3600), 0.2, &mut rng);
            assert!(v >= 0.0);
            assert!(v <= 100.0 * 1.9 * 1.2 + 1e-9);
        }
    }

    #[test]
    fn amplitude_clamped() {
        let c = DiurnalCurve::daily(10.0, 5.0, 0.0);
        assert_eq!(c.amplitude, 1.0);
    }
}
