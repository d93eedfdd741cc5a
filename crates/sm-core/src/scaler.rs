//! The shard scaler (§3.4, §6.1): per-shard replica-count adjustment.
//!
//! In response to load changes on individual shards, SM can adjust each
//! shard's replica count independently — scaling out a hot shard by
//! adding read replicas and scaling a cold one back in. The scaler
//! watches a single scalar load signal per shard (e.g. CPU or the
//! synthetic metric) and keeps per-replica load inside a band.

use sm_types::{LoadVector, MetricId, ShardId};
use std::collections::BTreeMap;

/// Scaler tuning.
#[derive(Clone, Copy, Debug)]
pub struct ShardScalerConfig {
    /// The load metric the scaler watches.
    pub metric: MetricId,
    /// Add a replica when per-replica load exceeds this.
    pub scale_up_above: f64,
    /// Remove a replica when per-replica load falls below this.
    pub scale_down_below: f64,
    /// Replica-count floor.
    pub min_replicas: u32,
    /// Replica-count ceiling.
    pub max_replicas: u32,
}

impl ShardScalerConfig {
    /// A scaler keeping per-replica load within `[low, high]` on `metric`.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high` and `min >= 1`.
    pub fn new(metric: MetricId, low: f64, high: f64, min: u32, max: u32) -> Self {
        assert!(low < high, "band must be non-empty");
        assert!(min >= 1 && min <= max, "bad replica bounds");
        Self {
            metric,
            scale_up_above: high,
            scale_down_below: low,
            min_replicas: min,
            max_replicas: max,
        }
    }
}

/// One recommended change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScaleDecision {
    /// The shard to resize.
    pub shard: ShardId,
    /// Current replica count.
    pub from: u32,
    /// Recommended replica count.
    pub to: u32,
}

/// The shard scaler.
#[derive(Clone, Debug)]
pub struct ShardScaler {
    config: ShardScalerConfig,
}

impl ShardScaler {
    /// Creates a scaler.
    pub fn new(config: ShardScalerConfig) -> Self {
        Self { config }
    }

    /// Evaluates every shard: `loads` holds each shard's *total* load
    /// (across all its replicas) and `replicas` its current replica
    /// count. Returns the recommended changes, hysteresis applied — a
    /// shard is only resized when the new count would put per-replica
    /// load back inside the band.
    // sm-lint: allow(U1) — PAPER.md "Production traces" row (diurnal load: the replica-count shard scaler follows it); no world drives it yet
    pub fn evaluate(
        &self,
        loads: &BTreeMap<ShardId, LoadVector>,
        replicas: &BTreeMap<ShardId, u32>,
    ) -> Vec<ScaleDecision> {
        let mut out = Vec::new();
        for (&shard, load) in loads {
            let n = replicas.get(&shard).copied().unwrap_or(1).max(1);
            let total = load.get(self.config.metric);
            let per_replica = total / f64::from(n);
            let mut target = n;
            if per_replica > self.config.scale_up_above {
                // Smallest count that brings per-replica load to or
                // below the upper bound.
                target = (total / self.config.scale_up_above).ceil() as u32;
            } else if per_replica < self.config.scale_down_below && n > self.config.min_replicas {
                // Largest count that keeps per-replica load under the
                // upper bound after shrinking.
                let candidate = (total / self.config.scale_up_above).ceil().max(1.0) as u32;
                if candidate < n {
                    target = candidate;
                }
            }
            let target = target.clamp(self.config.min_replicas, self.config.max_replicas);
            if target != n {
                out.push(ScaleDecision {
                    shard,
                    from: n,
                    to: target,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::Metric;

    fn cfg() -> ShardScalerConfig {
        ShardScalerConfig::new(Metric::Cpu.id(), 2.0, 10.0, 1, 8)
    }

    fn eval(total_load: f64, replicas: u32) -> Vec<ScaleDecision> {
        let scaler = ShardScaler::new(cfg());
        let mut loads = BTreeMap::new();
        loads.insert(ShardId(0), LoadVector::single(Metric::Cpu.id(), total_load));
        let mut reps = BTreeMap::new();
        reps.insert(ShardId(0), replicas);
        scaler.evaluate(&loads, &reps)
    }

    #[test]
    fn steady_load_makes_no_change() {
        assert!(eval(15.0, 2).is_empty(), "7.5 per replica is in band");
    }

    #[test]
    fn hot_shard_scales_up() {
        let d = eval(45.0, 2); // 22.5 per replica > 10
        assert_eq!(
            d,
            vec![ScaleDecision {
                shard: ShardId(0),
                from: 2,
                to: 5 // 45/10 = 4.5 -> 5 replicas -> 9.0 each
            }]
        );
    }

    #[test]
    fn cold_shard_scales_down() {
        let d = eval(3.0, 4); // 0.75 per replica < 2
        assert_eq!(
            d,
            vec![ScaleDecision {
                shard: ShardId(0),
                from: 4,
                to: 1
            }]
        );
    }

    #[test]
    fn respects_bounds() {
        // Enormous load still capped at max_replicas.
        let d = eval(1000.0, 2);
        assert_eq!(d[0].to, 8);
        // Cold shard never below min.
        let d = eval(0.0, 1);
        assert!(d.is_empty());
    }

    #[test]
    fn hysteresis_avoids_flapping() {
        // 19 load on 2 replicas = 9.5 each, just under the top: stay.
        assert!(eval(19.0, 2).is_empty());
        // 11 load on 2 replicas = 5.5 each: in band, stay (no shrink to
        // 1 which would give 11 > 10).
        assert!(eval(11.0, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "band must be non-empty")]
    fn bad_band_rejected() {
        ShardScalerConfig::new(Metric::Cpu.id(), 5.0, 2.0, 1, 4);
    }
}
