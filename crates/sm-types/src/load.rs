//! Load metrics and load vectors.
//!
//! SM collects per-shard load on multiple metrics and balances each of
//! them (§2.2.4, §8.4 balances storage, CPU, and shard count). A
//! [`LoadVector`] is a small fixed-size vector indexed by [`MetricId`].
//! Its slots are [`Fixed`] amounts, so sums of loads are exact.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A load amount in binary fixed point: an `i64` count of 2⁻¹⁶ units.
///
/// An `f64` is rounded once, where it enters (`Fixed::from`), to the
/// nearest unit, ties away from zero; past that, sums and differences
/// are exact, so adds and subtracts in any order give the same bits and
/// `a + b − b == a`. Whole and halved amounts, and their sums, read back
/// (`f64::from`) as the very `f64` they entered as.
///
/// The range is ±2⁴⁷ ≈ ±1.4 × 10¹⁴. Rounding is defined for every
/// `f64`: NaN becomes 0; a value at or beyond ±2⁴⁷, infinities among
/// them, becomes the end of the range on its side; a negative value
/// rounds like its magnitude. Sums are plain `i64` arithmetic, exact
/// within the range — 19K servers of capacity 10⁹ come to 1.9 × 10¹³ —
/// and a sum that could leave it is to be taken in `f64`, as
/// utilizations and penalties are (past the range, a debug build
/// panics and a release build wraps).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed(i64);

/// Units per 1.0.
const UNIT: f64 = 65_536.0;

impl From<f64> for Fixed {
    fn from(value: f64) -> Self {
        // `as` saturates at the ends of `i64` and takes NaN to 0.
        Fixed((value * UNIT).round() as i64)
    }
}

impl From<Fixed> for f64 {
    fn from(value: Fixed) -> f64 {
        value.0 as f64 / UNIT
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&f64::from(*self), f)
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 + rhs.0)
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 - rhs.0)
    }
}

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

/// A fixed-width vector of non-negative loads, one [`Fixed`] slot per
/// metric, read and written as `f64`.
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadVector {
    values: [Fixed; METRIC_COUNT],
}

impl LoadVector {
    /// The all-zero vector.
    pub const fn zero() -> Self {
        Self {
            values: [Fixed(0); METRIC_COUNT],
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
        self.values[metric.0].into()
    }

    /// Writes one slot, rounded to a [`Fixed`].
    pub fn set(&mut self, metric: MetricId, value: f64) {
        self.values[metric.0] = value.into();
    }

    /// Returns true if every slot of `self` fits within `capacity`.
    pub fn fits_within(&self, capacity: &LoadVector) -> bool {
        self.values
            .iter()
            .zip(capacity.values.iter())
            .all(|(v, c)| v <= c)
    }

    /// Returns the vector scaled by `k` (e.g. per-replica load times
    /// replica count), each slot rounded to a [`Fixed`].
    pub fn scale(&self, k: f64) -> LoadVector {
        LoadVector {
            values: self.values.map(|v| (f64::from(v) * k).into()),
        }
    }

    /// The maximum utilization ratio across metrics with non-zero
    /// capacity, e.g. 0.9 means the hottest metric is at 90%.
    pub fn max_utilization(&self, capacity: &LoadVector) -> f64 {
        self.values
            .iter()
            .zip(capacity.values.iter())
            .filter(|(_, c)| c.0 > 0)
            .map(|(&v, &c)| f64::from(v) / f64::from(c))
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
        for (a, b) in self.values.iter_mut().zip(rhs.values) {
            *a = *a + b;
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
        for (a, b) in self.values.iter_mut().zip(rhs.values) {
            *a = *a - b;
        }
    }
}

impl fmt::Display for LoadVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = (0..METRIC_COUNT).filter(|&m| self.values[m].0 != 0);
        let slots: Vec<String> = nonzero
            .map(|m| format!("m{m}={:.2}", self.get(MetricId(m))))
            .collect();
        write!(f, "({})", slots.join(", "))
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

    /// Over seeded load sets of amounts that are not dyadic, every
    /// order of adding them, and of then taking them off again, gives
    /// the same bits, and `a + b − b == a`.
    #[test]
    fn sums_are_exact_in_any_order() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..200 {
            let loads: Vec<LoadVector> = (0..2 + next(30))
                .map(|_| {
                    let mut v = LoadVector::zero();
                    for m in 0..METRIC_COUNT {
                        v.set(MetricId(m), next(1_000_000) as f64 * 0.001 + 0.1);
                    }
                    v
                })
                .collect();
            let mut order: Vec<usize> = (0..loads.len()).collect();
            let sum_in = |order: &[usize]| {
                order
                    .iter()
                    .fold(LoadVector::zero(), |acc, &i| acc + loads[i])
            };
            let total = sum_in(&order);
            for _ in 0..8 {
                for i in (1..order.len()).rev() {
                    order.swap(i, next(i as u64 + 1) as usize);
                }
                assert_eq!(sum_in(&order), total);
                // Interleaved: take off each load, then put back all but
                // the first, in shuffled order.
                let mut running = total;
                for &i in &order {
                    running -= loads[i];
                }
                assert_eq!(running, LoadVector::zero());
                for &i in &order[1..] {
                    running += loads[i];
                }
                assert_eq!(running + loads[order[0]], total);
                assert_eq!(total - loads[order[0]], running);
            }
            let (a, b) = (loads[0], loads[1]);
            assert_eq!(a + b - b, a);
        }
    }

    /// Each kind of `f64` rounds one documented way.
    #[test]
    fn rounding_is_defined_for_every_f64() {
        let end = f64::from(Fixed(i64::MAX));
        assert_eq!(end, 2f64.powi(47));
        let cases = [
            (f64::NAN, 0.0),
            (f64::INFINITY, end),
            (f64::NEG_INFINITY, -end),
            (1e300, end),
            (-1e300, -end),
            (end, end),
            (-2.5, -2.5),
            (-0.1, -6554.0 / UNIT),
            (0.1, 6554.0 / UNIT),
            (1.5 / UNIT, 2.0 / UNIT),
            (-1.5 / UNIT, -2.0 / UNIT),
            (0.4 / UNIT, 0.0),
            (1e9, 1e9),
        ];
        for (value, want) in cases {
            assert_eq!(f64::from(Fixed::from(value)), want, "{value}");
        }
        // The largest `f64` below the end of the range is kept exactly.
        let below = 2f64.powi(47) - 2f64.powi(-6);
        assert_eq!(f64::from(Fixed::from(below)), below);
        assert_eq!(Fixed::from(-1e300), Fixed(i64::MIN));
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
