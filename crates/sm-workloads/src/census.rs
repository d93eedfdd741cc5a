//! A synthetic population of sharded applications.
//!
//! §2.2 reports the demographics of the hundreds of sharded applications
//! at Facebook. This generator samples a population whose *by-app*
//! marginals match the paper's numbers, and whose category-dependent
//! size distributions reproduce the *by-server* skew (a few mega
//! applications dominating server counts — §1.1's "bimodal nature").

use sm_sim::SimRng;
use sm_types::{DataPersistency, DeploymentMode, DrainPolicy};

/// How an application is sharded (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardingScheme {
    /// Built atop Shard Manager.
    ShardManager,
    /// Fixed taskID-based binding.
    Static,
    /// Consistent hashing.
    ConsistentHashing,
    /// A custom sharding control plane (the mega data stores).
    Custom,
}

/// Load-balancing policy category (Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LbCategory {
    /// Shards per server.
    ShardCount,
    /// One resource metric.
    SingleResource,
    /// One application-level metric.
    SingleSynthetic,
    /// Several metrics.
    MultiMetric,
}

/// Replication strategy (Figure 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicationCategory {
    /// One replica per shard.
    PrimaryOnly,
    /// Equal-role replicas.
    SecondaryOnly,
    /// One primary plus secondaries.
    PrimarySecondary,
}

/// One synthetic application.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Sharding scheme.
    pub scheme: ShardingScheme,
    /// Server count.
    pub servers: u64,
    /// Shard count.
    pub shards: u64,
    /// Deployment mode (SM apps only; Figure 5).
    pub deployment: DeploymentMode,
    /// Replication strategy (Figure 6).
    pub replication: ReplicationCategory,
    /// LB policy (Figure 7).
    pub lb: LbCategory,
    /// Drain policy for primaries (Figure 8).
    pub drain_primary: DrainPolicy,
    /// Drain policy for secondaries (Figure 8).
    pub drain_secondary: DrainPolicy,
    /// Uses storage machines (Figure 9).
    pub uses_storage: bool,
    /// Data-persistency option (§2.4).
    pub persistency: DataPersistency,
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct CensusConfig {
    /// Number of applications to generate.
    pub apps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        Self {
            apps: 600,
            seed: 2021,
        }
    }
}

/// The generated population.
#[derive(Clone, Debug)]
pub struct Census {
    /// All applications.
    pub apps: Vec<AppProfile>,
}

fn pick<T: Copy>(rng: &mut SimRng, choices: &[(T, f64)]) -> T {
    let total: f64 = choices.iter().map(|(_, w)| w).sum();
    let mut draw = rng.f64() * total;
    for &(value, w) in choices {
        if draw < w {
            return value;
        }
        draw -= w;
    }
    choices.last().expect("non-empty choices").0
}

impl Census {
    /// Generates a population matching the §2.2 marginals.
    pub fn generate(config: CensusConfig) -> Self {
        let mut rng = SimRng::seeded(config.seed);
        let mut apps = Vec::with_capacity(config.apps);
        for _ in 0..config.apps {
            // Figure 4, by #application: SM 54%, static 35%, CH 10%,
            // custom 1%.
            let scheme = pick(
                &mut rng,
                &[
                    (ShardingScheme::ShardManager, 0.54),
                    (ShardingScheme::Static, 0.35),
                    (ShardingScheme::ConsistentHashing, 0.10),
                    (ShardingScheme::Custom, 0.01),
                ],
            );
            // Sizes: heavy-tailed, with custom data stores much larger
            // (1% of apps but 27% of servers) and static/CH smaller.
            // Size means calibrated so the by-server shares land near
            // Figure 4: custom data stores are few but huge.
            // Calibrated so ~14% of SM deployments reach 1,000+ servers
            // (Figure 15) and the by-server shares land near Figure 4.
            let servers = match scheme {
                ShardingScheme::Custom => rng.power_law(20_000.0, 150_000.0, 1.2) as u64,
                ShardingScheme::ShardManager => rng.power_law(4.0, 19_000.0, 0.25) as u64,
                ShardingScheme::Static => rng.power_law(4.0, 19_000.0, 0.22) as u64,
                ShardingScheme::ConsistentHashing => rng.power_law(4.0, 19_000.0, 0.2) as u64,
            };
            // Shards per server: 10-200x (Figure 15's envelope).
            let shards = (servers as f64 * rng.f64_range(10.0, 200.0)) as u64;

            // Figure 6 by #application: primary-only 68%, p-s 24%,
            // secondary-only 8%. Bigger apps replicate more, producing
            // the by-server skew.
            // Attribute skew comes from three size tiers: the paper's
            // mega applications behave differently from the long tail.
            let tier = if servers > 2_000 {
                2
            } else if servers > 200 {
                1
            } else {
                0
            };
            let replication = pick(
                &mut rng,
                &[
                    (ReplicationCategory::PrimaryOnly, [0.82, 0.45, 0.15][tier]),
                    (
                        ReplicationCategory::PrimarySecondary,
                        [0.17, 0.30, 0.47][tier],
                    ),
                    (ReplicationCategory::SecondaryOnly, [0.01, 0.25, 0.38][tier]),
                ],
            );
            // Figure 5 by #application: geo-distributed 33%; larger
            // deployments skew geo (58% of servers).
            let deployment = if rng.chance([0.25, 0.50, 0.60][tier]) {
                DeploymentMode::GeoDistributed
            } else {
                DeploymentMode::Regional
            };
            // Figure 7 by #application: shard count 55%, single
            // resource 10%, single synthetic 10%, multi-metric 25%;
            // multi-metric dominates by servers (65%).
            let lb = pick(
                &mut rng,
                &[
                    (LbCategory::MultiMetric, [0.105, 0.55, 0.70][tier]),
                    (LbCategory::SingleResource, [0.10, 0.12, 0.08][tier]),
                    (LbCategory::SingleSynthetic, [0.125, 0.05, 0.02][tier]),
                    (LbCategory::ShardCount, [0.67, 0.28, 0.15][tier]),
                ],
            );
            // Figure 8: 94% of apps drain primaries; 22% drain
            // secondaries.
            let drain_primary = if rng.chance(0.94) {
                DrainPolicy::Drain
            } else {
                DrainPolicy::NoDrain
            };
            let drain_secondary = if rng.chance(0.22) {
                DrainPolicy::Drain
            } else {
                DrainPolicy::NoDrain
            };
            // Figure 9: 18% of apps on storage machines (38% of
            // servers, so storage apps skew big).
            let uses_storage = rng.chance([0.10, 0.35, 0.40][tier]);
            // §2.4: options 1/2 cover 82% of apps.
            let persistency = if uses_storage {
                pick(
                    &mut rng,
                    &[
                        (DataPersistency::StandardMaterialized, 0.75),
                        (DataPersistency::CustomMaterialized, 0.10),
                        (DataPersistency::Persistent, 0.15),
                    ],
                )
            } else {
                pick(
                    &mut rng,
                    &[
                        (DataPersistency::Stateless, 0.35),
                        (DataPersistency::SoftState, 0.65),
                    ],
                )
            };
            apps.push(AppProfile {
                scheme,
                servers,
                shards,
                deployment,
                replication,
                lb,
                drain_primary,
                drain_secondary,
                uses_storage,
                persistency,
            });
        }
        Self { apps }
    }

    /// Fraction of apps matching `pred`, by count.
    pub fn frac_by_app(&self, pred: impl Fn(&AppProfile) -> bool) -> f64 {
        let n = self.apps.iter().filter(|a| pred(a)).count();
        n as f64 / self.apps.len().max(1) as f64
    }

    /// Fraction of servers belonging to apps matching `pred`.
    pub fn frac_by_server(&self, pred: impl Fn(&AppProfile) -> bool) -> f64 {
        let total: u64 = self.apps.iter().map(|a| a.servers).sum();
        let hit: u64 = self
            .apps
            .iter()
            .filter(|a| pred(a))
            .map(|a| a.servers)
            .sum();
        hit as f64 / total.max(1) as f64
    }

    /// The SM-managed subset.
    pub fn sm_apps(&self) -> impl Iterator<Item = &AppProfile> {
        self.apps
            .iter()
            .filter(|a| a.scheme == ShardingScheme::ShardManager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census() -> Census {
        Census::generate(CensusConfig {
            apps: 2000,
            seed: 7,
        })
    }

    #[test]
    fn scheme_mix_matches_figure4() {
        let c = census();
        let sm = c.frac_by_app(|a| a.scheme == ShardingScheme::ShardManager);
        assert!((0.49..=0.59).contains(&sm), "SM by-app {sm}");
        let static_ = c.frac_by_app(|a| a.scheme == ShardingScheme::Static);
        assert!((0.30..=0.40).contains(&static_), "static by-app {static_}");
        let custom = c.frac_by_app(|a| a.scheme == ShardingScheme::Custom);
        assert!(custom < 0.03, "custom by-app {custom}");
        // Custom apps are few but consume an outsized server share.
        let custom_srv = c.frac_by_server(|a| a.scheme == ShardingScheme::Custom);
        assert!(custom_srv > 0.08, "custom by-server {custom_srv}");
    }

    #[test]
    fn replication_mix_matches_figure6() {
        let c = census();
        let po = c.frac_by_app(|a| a.replication == ReplicationCategory::PrimaryOnly);
        assert!((0.60..=0.76).contains(&po), "primary-only {po}");
        let so_srv = c.frac_by_server(|a| a.replication == ReplicationCategory::SecondaryOnly);
        let so_app = c.frac_by_app(|a| a.replication == ReplicationCategory::SecondaryOnly);
        assert!(so_srv > so_app, "secondary-only skews large");
    }

    #[test]
    fn lb_mix_matches_figure7() {
        let c = census();
        let sc = c.frac_by_app(|a| a.lb == LbCategory::ShardCount);
        assert!((0.45..=0.65).contains(&sc), "shard-count {sc}");
        let mm_srv = c.frac_by_server(|a| a.lb == LbCategory::MultiMetric);
        assert!(mm_srv > 0.40, "multi-metric by server {mm_srv}");
    }

    #[test]
    fn drain_mix_matches_figure8() {
        let c = census();
        let dp = c.frac_by_app(|a| a.drain_primary == DrainPolicy::Drain);
        assert!((0.90..=0.98).contains(&dp), "drain primaries {dp}");
        let ds = c.frac_by_app(|a| a.drain_secondary == DrainPolicy::Drain);
        assert!((0.15..=0.30).contains(&ds), "drain secondaries {ds}");
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let c = census();
        let mut sizes: Vec<u64> = c.apps.iter().map(|a| a.servers).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let max = *sizes.last().unwrap();
        assert!(max > median * 50, "max {max} vs median {median}");
        // Figure 15: largest deployments reach ~19K+ servers.
        assert!(max > 10_000);
    }

    #[test]
    fn determinism() {
        let a = Census::generate(CensusConfig { apps: 100, seed: 1 });
        let b = Census::generate(CensusConfig { apps: 100, seed: 1 });
        assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(b.apps.iter()) {
            assert_eq!(x.servers, y.servers);
            assert_eq!(x.scheme, y.scheme);
        }
    }
}
