//! The replay-floor estimator.
//!
//! On a shared host interference only ever *adds* time, in bursts, so
//! the fast end of a sample set is the stable end. A workload is a
//! script cut into windows of fixed work; every window is replayed R
//! times and its floor is the mean of the fastest `⌊0.05·R⌋` replays,
//! at least 1 and at most 20. A timed metric is one floor
//! (single-window form: many replays of one short stretch) or a sum of
//! floors (windowed form: a script replayed R times, each window
//! keeping its own fastest replays). Medians are reported next to the
//! floors, ungated, so a disturbed host shows.
//!
//! The cap of 20 is there because on the host this was built on the
//! bursts last seconds to minutes (README.md, "Noise"): a run may hold
//! only a fraction of a second of undisturbed time, and 20 samples are
//! 5% of the fewest replays a single-window metric accepts, enough to
//! average the clock's own jitter, and no more undisturbed time than
//! that.

/// Fewest replays a single-window metric is computed from.
pub const MIN_SINGLE: usize = 400;
/// Fewest replays a windowed metric is computed from.
pub const MIN_WINDOWED: usize = 5;

/// Share of the replays, from the fast end, that make up the floor,
/// and the most samples it is ever the mean of.
const FLOOR_SHARE: f64 = 0.05;
const FLOOR_MOST: usize = 20;

/// A replay-floor estimate next to the median of the same samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    pub floor: f64,
    pub p50: f64,
}

/// Mean of the fastest 5% of `samples` (at least 1, at most 20), and
/// the median of all of them.
/// Smaller is faster; pass time per unit of work.
pub fn floor_of(samples: &[f64]) -> Estimate {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = ((sorted.len() as f64 * FLOOR_SHARE) as usize).clamp(1, FLOOR_MOST);
    Estimate {
        floor: sorted[..k].iter().sum::<f64>() / k as f64,
        p50: sorted[sorted.len() / 2],
    }
}

/// `min p5 p25 p50 p90` of `samples`, for the notes a run prints.
pub fn spread(samples: &[f64]) -> String {
    let at = |p: f64| sm_sim::percentile(samples, p).unwrap_or(f64::NAN);
    format!(
        "min {:.4e} p5 {:.4e} p25 {:.4e} p50 {:.4e} p90 {:.4e}",
        at(0.0),
        at(5.0),
        at(25.0),
        at(50.0),
        at(90.0)
    )
}

/// Single-window form: refuses fewer than [`MIN_SINGLE`] replays.
pub fn single(samples: &[f64]) -> Result<Estimate, String> {
    if samples.len() < MIN_SINGLE {
        return Err(format!(
            "{} replays of a single-window metric, need {MIN_SINGLE}",
            samples.len()
        ));
    }
    Ok(floor_of(samples))
}

/// Windowed form: `replays[r][w]` is the time of window `w` in replay
/// `r`. Returns the sum over windows of each window's floor. Refuses
/// fewer than `least` replays ([`MIN_WINDOWED`], or [`MIN_SINGLE`] for
/// a script as short as a single window) and replays of unequal length
/// (a replayed script has the same windows every time).
pub fn windowed(replays: &[Vec<f64>], least: usize) -> Result<Estimate, String> {
    if replays.len() < least {
        return Err(format!(
            "{} replays of a windowed metric, need {least}",
            replays.len()
        ));
    }
    let windows = replays[0].len();
    if windows == 0 || replays.iter().any(|r| r.len() != windows) {
        return Err("replays differ in their windows".into());
    }
    let mut sum = Estimate {
        floor: 0.0,
        p50: 0.0,
    };
    let mut column = Vec::with_capacity(replays.len());
    for w in 0..windows {
        column.clear();
        column.extend(replays.iter().map(|r| r[w]));
        let e = floor_of(&column);
        sum.floor += e.floor;
        sum.p50 += e.p50;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stand-in for host interference: a true cost plus
    /// one-sided noise that hits a share of the samples in bursts.
    fn noisy(truth: f64, n: usize, hit_share: f64, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let jitter = truth * 0.002 * next();
                if next() < hit_share {
                    truth * (1.0 + 3.0 * next()) + jitter
                } else {
                    truth + jitter
                }
            })
            .collect()
    }

    #[test]
    fn floor_ignores_one_sided_noise_that_moves_the_median() {
        let quiet = floor_of(&noisy(10.0, 2000, 0.1, 1));
        let loud = floor_of(&noisy(10.0, 2000, 0.7, 2));
        assert!((quiet.floor - 10.0).abs() < 0.05, "{quiet:?}");
        assert!((loud.floor - 10.0).abs() < 0.05, "{loud:?}");
        assert!(loud.p50 > 12.0, "median should show the noise: {loud:?}");
    }

    #[test]
    fn floor_takes_five_percent_at_least_one_at_most_twenty() {
        assert_eq!(floor_of(&[3.0, 1.0, 2.0]).floor, 1.0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(floor_of(&s).floor, 3.0); // mean of 1..=5
        assert_eq!(floor_of(&s).p50, 51.0);
        let s: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(floor_of(&s).floor, 10.5); // mean of 1..=20
    }

    #[test]
    fn windowed_takes_each_windows_own_fastest_replay() {
        // Every replay is disturbed in a different window, so every
        // whole-replay total is 13 while the undisturbed script is 6.
        let replays: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..6).map(|w| if w == r { 8.0 } else { 1.0 }).collect())
            .collect();
        let e = windowed(&replays, MIN_WINDOWED).unwrap();
        assert_eq!(e.floor, 6.0);
        assert!(replays.iter().all(|r| r.iter().sum::<f64>() == 13.0));
    }

    #[test]
    fn windowed_sums_noisy_windows_close_to_truth() {
        let truths = [5.0, 20.0, 1.0, 9.0];
        let replays: Vec<Vec<f64>> = (0..8u64)
            .map(|r| {
                truths
                    .iter()
                    .enumerate()
                    .map(|(w, &t)| noisy(t, 1, 0.5, 97 * r + w as u64 + 1)[0])
                    .collect()
            })
            .collect();
        let e = windowed(&replays, MIN_WINDOWED).unwrap();
        assert!((e.floor - 35.0).abs() < 0.2, "{e:?}");
    }

    #[test]
    fn refuses_too_few_replays_and_ragged_scripts() {
        assert!(single(&vec![1.0; MIN_SINGLE - 1]).is_err());
        assert!(single(&vec![1.0; MIN_SINGLE]).is_ok());
        assert!(windowed(&vec![vec![1.0]; MIN_WINDOWED - 1], MIN_WINDOWED).is_err());
        assert!(windowed(&vec![vec![1.0]; MIN_WINDOWED], MIN_WINDOWED).is_ok());
        assert!(windowed(&vec![vec![1.0]; MIN_SINGLE - 1], MIN_SINGLE).is_err());
        let mut ragged = vec![vec![1.0, 2.0]; MIN_WINDOWED];
        ragged[2].pop();
        assert!(windowed(&ragged, MIN_WINDOWED).is_err());
    }
}
