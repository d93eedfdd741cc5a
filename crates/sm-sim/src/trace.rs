//! Time-series recording for the figure harness.
//!
//! Experiments record named series of `(time, value)` points into a
//! [`TraceLog`]; the figure binaries then print them as aligned columns
//! or CSV so the paper's plots can be regenerated from the output.

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named time series.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Appends a point; times should be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// Minimum value over the whole series.
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|(_, v)| *v).reduce(f64::min)
    }

    /// Maximum value over the whole series.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|(_, v)| *v).reduce(f64::max)
    }

    /// Mean of the values recorded within `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Buckets the series into windows of `window_secs`, averaging the
    /// values in each window. Returns `(window_start_secs, mean)` pairs.
    pub fn bucket_mean(&self, window_secs: u64) -> Vec<(u64, f64)> {
        let mut buckets: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        for (t, v) in &self.points {
            let w = t.as_secs() / window_secs * window_secs;
            let e = buckets.entry(w).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        buckets
            .into_iter()
            .map(|(w, (sum, n))| (w, sum / n as f64))
            .collect()
    }

    /// Buckets the series into windows of `window_secs`, summing values.
    pub fn bucket_sum(&self, window_secs: u64) -> Vec<(u64, f64)> {
        let mut buckets: BTreeMap<u64, f64> = BTreeMap::new();
        for (t, v) in &self.points {
            let w = t.as_secs() / window_secs * window_secs;
            *buckets.entry(w).or_insert(0.0) += v;
        }
        buckets.into_iter().collect()
    }
}

/// A collection of named series produced by one experiment run.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    series: BTreeMap<String, Series>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a point on the named series, creating it on first use.
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push(at, value);
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Iterates over `(name, series)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Series)> {
        self.series.iter()
    }

    /// Renders all series bucketed on a common window as CSV with one
    /// time column and one column per series (empty cell when a series
    /// has no points in a window).
    pub fn to_csv(&self, window_secs: u64) -> String {
        let names: Vec<&String> = self.series.keys().collect();
        let bucketed: Vec<BTreeMap<u64, f64>> = self
            .series
            .values()
            .map(|series| series.bucket_mean(window_secs).into_iter().collect())
            .collect();
        let mut windows: Vec<u64> = bucketed.iter().flat_map(|b| b.keys().copied()).collect();
        windows.sort_unstable();
        windows.dedup();

        let mut out = String::from("time_s");
        for n in &names {
            let _infallible = write!(out, ",{n}");
        }
        out.push('\n');
        for w in windows {
            let _infallible = write!(out, "{w}");
            for b in &bucketed {
                match b.get(&w) {
                    Some(v) => {
                        let _infallible = write!(out, ",{v:.4}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_stats() {
        let mut log = TraceLog::new();
        log.record("lat", SimTime::from_secs(1), 10.0);
        log.record("lat", SimTime::from_secs(2), 30.0);
        log.record("lat", SimTime::from_secs(3), 20.0);
        let s = log.series("lat").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some(10.0));
        assert_eq!(s.max(), Some(30.0));
        assert_eq!(s.last(), Some(20.0));
        assert_eq!(
            s.mean_in(SimTime::from_secs(1), SimTime::from_secs(3)),
            Some(20.0)
        );
        assert!(s
            .mean_in(SimTime::from_secs(9), SimTime::from_secs(10))
            .is_none());
    }

    #[test]
    fn bucketing() {
        let mut s = Series::default();
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(5), 3.0);
        s.push(SimTime::from_secs(10), 5.0);
        let means = s.bucket_mean(10);
        assert_eq!(means, vec![(0, 2.0), (10, 5.0)]);
        let sums = s.bucket_sum(10);
        assert_eq!(sums, vec![(0, 4.0), (10, 5.0)]);
    }

    #[test]
    fn csv_alignment_with_gaps() {
        let mut log = TraceLog::new();
        log.record("a", SimTime::from_secs(0), 1.0);
        log.record("a", SimTime::from_secs(10), 2.0);
        log.record("b", SimTime::from_secs(10), 9.0);
        let csv = log.to_csv(10);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines[1], "0,1.0000,");
        assert_eq!(lines[2], "10,2.0000,9.0000");
    }

    #[test]
    fn unknown_series_is_none() {
        assert!(TraceLog::new().series("nope").is_none());
    }
}
