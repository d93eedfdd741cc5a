//! Per-bin penalties under a maintained sum.
//!
//! §5.3: ReBalancer "represents an optimization objective as a tree of
//! variables ... When evaluating a shard move, it only traverses tree
//! nodes whose values may change, resulting in O(log(n)) complexity."
//! The objective here is a tree of depth one: a leaf per bin under
//! their sum. A move touches two bins; writing a leaf adjusts the sum
//! by the leaf's change, so an update and a read of the total are both
//! O(1) — no move re-sums all n bins, and nothing ever asks for the sum
//! of a sub-range, which is all that interior nodes would buy.

/// A total-order key of `x`: keys compare as the values do, `-0.0`
/// ranking as `+0.0`, for every value `partial_cmp` orders; a NaN gets a
/// key too, so a ranking by keys has no panic path.
pub(crate) fn rank_key(x: f64) -> u64 {
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// `f64` penalty leaves with a cached total.
#[derive(Clone, Debug)]
pub struct PenaltyTree {
    leaves: Vec<f64>,
    total: f64,
}

impl PenaltyTree {
    /// Creates a tree of `n` zero leaves.
    pub fn new(n: usize) -> Self {
        Self {
            leaves: vec![0.0; n],
            total: 0.0,
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Current value of leaf `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.leaves[i]
    }

    /// Sets leaf `i` to `value`, moving the total by the difference.
    pub fn set(&mut self, i: usize, value: f64) {
        let delta = value - self.leaves[i];
        if delta == 0.0 {
            return;
        }
        self.leaves[i] = value;
        self.total += delta;
    }

    /// Total penalty across all leaves in O(1).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Sets every leaf and the total back to zero, as [`Self::new`]
    /// makes them, keeping the allocation.
    pub(crate) fn reset(&mut self) {
        self.leaves.fill(0.0);
        self.total = 0.0;
    }

    /// Indices of the `k` largest leaves, descending by value, skipping
    /// zero-penalty leaves. O(n) scan — used once per search round, not
    /// per move evaluation.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut hot = Vec::new();
        self.top_k_into(k, &mut hot);
        hot
    }

    /// [`Self::top_k`] into `out`: equal leaves rank by ascending index,
    /// as a stable sort of the scan leaves them. Only the `k` kept are
    /// sorted, and nothing is allocated once `out` has grown.
    pub(crate) fn top_k_into(&self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.leaves.len()).filter(|&i| self.leaves[i] > 0.0));
        let hotter = |&i: &usize| (!rank_key(self.leaves[i]), i);
        if out.len() > k {
            if k > 0 {
                out.select_nth_unstable_by_key(k - 1, hotter);
            }
            out.truncate(k);
        }
        out.sort_unstable_by_key(hotter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_total() {
        let mut t = PenaltyTree::new(8);
        t.set(0, 5.0);
        t.set(3, 2.0);
        t.set(7, 1.0);
        assert_eq!(t.total(), 8.0);
        t.set(3, 0.0);
        assert_eq!(t.total(), 6.0);
        assert_eq!(t.get(0), 5.0);
        assert_eq!(t.get(3), 0.0);
    }

    #[test]
    fn top_k_orders_descending_and_skips_zeros() {
        let mut t = PenaltyTree::new(5);
        t.set(0, 1.0);
        t.set(2, 9.0);
        t.set(4, 5.0);
        assert_eq!(t.top_k(2), vec![2, 4]);
        assert_eq!(t.top_k(10), vec![2, 4, 0]);
        assert!(PenaltyTree::new(3).top_k(2).is_empty());
    }

    #[test]
    fn repeated_updates_keep_total_consistent() {
        let mut t = PenaltyTree::new(4);
        for round in 0..100 {
            let i = round % 4;
            t.set(i, round as f64);
        }
        let expect: f64 = (96..100).map(|v| v as f64).sum();
        assert!((t.total() - expect).abs() < 1e-9);
    }

    #[test]
    fn top_k_equals_a_stable_sort_of_the_scan() {
        // Few distinct values, so most leaves tie with another.
        let mut rng = sm_sim::SimRng::seeded(5);
        let mut t = PenaltyTree::new(64);
        for _ in 0..200 {
            t.set(rng.index(64), rng.index(5) as f64);
            let mut model: Vec<usize> = (0..64).filter(|&i| t.get(i) > 0.0).collect();
            model.sort_by(|&a, &b| t.get(b).partial_cmp(&t.get(a)).unwrap());
            for k in [0, 1, 3, 8, 64] {
                let kept = model.iter().take(k).copied().collect::<Vec<_>>();
                assert_eq!(t.top_k(k), kept, "k = {k}");
            }
        }
    }

    #[test]
    fn top_k_with_k_at_least_len_returns_all_nonzero() {
        let mut t = PenaltyTree::new(3);
        t.set(0, 2.0);
        t.set(1, 7.0);
        t.set(2, 4.0);
        // k == len and k > len both return every non-zero leaf.
        assert_eq!(t.top_k(3), vec![1, 2, 0]);
        assert_eq!(t.top_k(100), vec![1, 2, 0]);
        t.set(2, 0.0);
        assert_eq!(t.top_k(100), vec![1, 0], "zeroed leaf drops out");
    }

    #[test]
    fn zero_leaf_tree_is_empty_and_inert() {
        let t = PenaltyTree::new(0);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.total(), 0.0);
        assert!(t.top_k(5).is_empty());
        // A non-empty tree is not `is_empty` even with all-zero leaves.
        let t1 = PenaltyTree::new(1);
        assert_eq!(t1.len(), 1);
        assert!(!t1.is_empty());
        assert_eq!(t1.total(), 0.0);
    }

    #[test]
    fn add_remove_round_trips_keep_cached_total_fresh() {
        // Many add/remove round-trips accumulate float error in the
        // cached total; it must stay within 1e-9 of a from-scratch
        // recompute of the surviving leaves.
        let mut t = PenaltyTree::new(16);
        for round in 0..1_000 {
            let i = (round * 7 + 3) % 16;
            let v = ((round % 13) as f64) * 0.37 + 0.11;
            t.set(i, v); // add
            if round % 3 == 0 {
                t.set(i, 0.0); // remove again
            }
        }
        let fresh: f64 = (0..16).map(|i| t.get(i)).sum();
        assert!(
            (t.total() - fresh).abs() < 1e-9,
            "cached {} vs fresh {}",
            t.total(),
            fresh
        );
        // Drain every leaf: the cached total returns to ~zero.
        for i in 0..16 {
            t.set(i, 0.0);
        }
        assert!(t.total().abs() < 1e-9);
        assert!(t.top_k(16).is_empty());
    }
}
