//! Load metrics and load vectors.
//!
//! SM collects per-shard load on multiple metrics and balances each of
//! them (§2.2.4, §8.4 balances storage, CPU, and shard count). A
//! [`LoadVector`] is a small fixed-size vector indexed by [`MetricId`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of metric slots in a [`LoadVector`].
pub const METRIC_COUNT: usize = 4;

/// Index of a metric inside a [`LoadVector`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricId(pub usize);

/// Well-known metrics used across the workspace.
///
/// "Synthetic" is an application-level metric such as request-queue size
/// (§2.2.4); shard count is modelled by giving each shard a load of 1.0
/// on [`Metric::ShardCount`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Metric {
    /// CPU consumption.
    Cpu,
    /// Local storage bytes (SSD/HDD).
    Storage,
    /// An application-defined synthetic metric.
    Synthetic,
    /// Constant 1.0 per shard; balancing it balances shard counts.
    ShardCount,
}

impl Metric {
    /// The slot this metric occupies in a [`LoadVector`].
    pub const fn id(self) -> MetricId {
        MetricId(self as usize)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Cpu => write!(f, "cpu"),
            Metric::Storage => write!(f, "storage"),
            Metric::Synthetic => write!(f, "synthetic"),
            Metric::ShardCount => write!(f, "shard_count"),
        }
    }
}

/// A fixed-width vector of non-negative loads, one slot per metric.
///
/// # Examples
///
/// ```
/// use sm_types::load::{LoadVector, Metric};
///
/// let mut v = LoadVector::zero();
/// v.set(Metric::Cpu.id(), 2.5);
/// v.set(Metric::ShardCount.id(), 1.0);
/// let doubled = v + v;
/// assert_eq!(doubled.get(Metric::Cpu.id()), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LoadVector {
    values: [f64; METRIC_COUNT],
}

impl LoadVector {
    /// The all-zero vector.
    pub const fn zero() -> Self {
        Self {
            values: [0.0; METRIC_COUNT],
        }
    }

    /// A vector with a single non-zero slot.
    pub fn single(metric: MetricId, value: f64) -> Self {
        let mut v = Self::zero();
        v.set(metric, value);
        v
    }

    /// Reads one slot.
    pub fn get(&self, metric: MetricId) -> f64 {
        self.values[metric.0]
    }

    /// Writes one slot.
    pub fn set(&mut self, metric: MetricId, value: f64) {
        self.values[metric.0] = value;
    }

    /// Returns true if every slot of `self` fits within `capacity`.
    pub fn fits_within(&self, capacity: &LoadVector) -> bool {
        self.values
            .iter()
            .zip(capacity.values.iter())
            .all(|(v, c)| v <= c)
    }

    /// Clamps every slot to be >= 0, absorbing floating-point drift from
    /// repeated add/subtract cycles.
    pub fn clamp_non_negative(&mut self) {
        for v in &mut self.values {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Returns the vector scaled by `k` (e.g. per-replica load times
    /// replica count).
    pub fn scale(&self, k: f64) -> LoadVector {
        let mut out = *self;
        for v in &mut out.values {
            *v *= k;
        }
        out
    }

    /// Iterates `(metric, value)` over the non-zero slots.
    pub(crate) fn iter_nonzero(&self) -> impl Iterator<Item = (MetricId, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (MetricId(i), *v))
    }

    /// The maximum utilization ratio across metrics with non-zero
    /// capacity, e.g. 0.9 means the hottest metric is at 90%.
    pub fn max_utilization(&self, capacity: &LoadVector) -> f64 {
        self.values
            .iter()
            .zip(capacity.values.iter())
            .filter(|(_, c)| **c > 0.0)
            .map(|(v, c)| v / c)
            .fold(0.0, f64::max)
    }
}

impl Add for LoadVector {
    type Output = LoadVector;
    fn add(mut self, rhs: LoadVector) -> LoadVector {
        self += rhs;
        self
    }
}

impl AddAssign for LoadVector {
    fn add_assign(&mut self, rhs: LoadVector) {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a += b;
        }
    }
}

impl Sub for LoadVector {
    type Output = LoadVector;
    fn sub(mut self, rhs: LoadVector) -> LoadVector {
        self -= rhs;
        self
    }
}

impl SubAssign for LoadVector {
    fn sub_assign(&mut self, rhs: LoadVector) {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a -= b;
        }
    }
}

impl fmt::Display for LoadVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        let mut first = true;
        for (m, v) in self.iter_nonzero() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "m{}={v:.2}", m.0)?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_ids_are_distinct_slots() {
        let ids = [
            Metric::Cpu.id(),
            Metric::Storage.id(),
            Metric::Synthetic.id(),
            Metric::ShardCount.id(),
        ];
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), METRIC_COUNT);
    }

    #[test]
    fn arithmetic_round_trips() {
        let a = LoadVector::single(Metric::Cpu.id(), 3.0);
        let b = LoadVector::single(Metric::Storage.id(), 5.0);
        let sum = a + b;
        assert_eq!(sum.get(Metric::Cpu.id()), 3.0);
        assert_eq!(sum.get(Metric::Storage.id()), 5.0);
        let back = sum - b;
        assert_eq!(back, a);
    }

    #[test]
    fn fits_within_checks_every_metric() {
        let mut load = LoadVector::zero();
        load.set(Metric::Cpu.id(), 2.0);
        load.set(Metric::Storage.id(), 10.0);
        let mut cap = LoadVector::zero();
        cap.set(Metric::Cpu.id(), 4.0);
        cap.set(Metric::Storage.id(), 10.0);
        assert!(load.fits_within(&cap));
        cap.set(Metric::Storage.id(), 9.9);
        assert!(!load.fits_within(&cap));
    }

    #[test]
    fn max_utilization_ignores_zero_capacity_metrics() {
        let mut load = LoadVector::zero();
        load.set(Metric::Cpu.id(), 9.0);
        load.set(Metric::Synthetic.id(), 100.0);
        let cap = LoadVector::single(Metric::Cpu.id(), 10.0);
        assert!((load.max_utilization(&cap) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn clamp_absorbs_negative_drift() {
        let a = LoadVector::single(Metric::Cpu.id(), 0.1);
        let b = LoadVector::single(Metric::Cpu.id(), 0.30000000000000004);
        let mut v = a - b + LoadVector::single(Metric::Cpu.id(), 0.2);
        v.clamp_non_negative();
        assert!(v.get(Metric::Cpu.id()) >= 0.0);
    }

    #[test]
    fn scale_multiplies_every_slot() {
        let mut v = LoadVector::zero();
        v.set(Metric::Cpu.id(), 2.0);
        v.set(Metric::Storage.id(), 3.0);
        let s = v.scale(2.5);
        assert_eq!(s.get(Metric::Cpu.id()), 5.0);
        assert_eq!(s.get(Metric::Storage.id()), 7.5);
        assert_eq!(v.get(Metric::Cpu.id()), 2.0, "original untouched");
    }

    #[test]
    fn display_shows_nonzero_only() {
        let mut v = LoadVector::zero();
        v.set(Metric::Storage.id(), 1.5);
        assert_eq!(v.to_string(), "(m1=1.50)");
        assert_eq!(LoadVector::zero().to_string(), "()");
    }
}
