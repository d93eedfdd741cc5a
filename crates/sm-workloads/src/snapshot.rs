//! ZippyDB-like allocator problem snapshots (§8.4).
//!
//! Figure 21 stress-tests the allocator on a snapshot of a production
//! ZippyDB deployment: three balanced metrics (storage, CPU, shard
//! count), shard loads spanning 20x, server storage capacity varying by
//! up to 20%, and a *random* initial assignment to maximize violations.
//! This generator synthesizes inputs with those statistics at any scale.

use sm_allocator::{AllocConfig, AllocInput, ServerInfo, ShardPlacement};
use sm_sim::SimRng;
use sm_types::{LoadVector, Location, MachineId, Metric, RegionId, ServerId, ShardId};

/// Snapshot shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// Server count (1K / 3K / 5K in Figure 21).
    pub servers: u32,
    /// Shard count (75K / 225K / 375K in Figure 21).
    pub shards: u64,
    /// Regions to spread servers over.
    pub regions: u16,
    /// Ratio between the largest and smallest shard load (paper: 20).
    pub load_spread: f64,
    /// Relative capacity heterogeneity (paper: up to 20%).
    pub capacity_jitter: f64,
    /// RNG seed.
    pub seed: u64,
    /// Give every shard a regional placement preference (its home
    /// region, `shard % regions`). This is what makes the Figure 22
    /// ablation bite: suitable move targets become rare, so uniform
    /// random target sampling struggles where grouped sampling does not.
    pub region_prefs: bool,
}

impl SnapshotConfig {
    /// The Figure 21 scale points: 0 -> 75K/1K, 1 -> 225K/3K, 2 -> 375K/5K.
    pub fn figure21(scale: usize) -> Self {
        let (servers, shards) = match scale {
            0 => (1_000, 75_000),
            1 => (3_000, 225_000),
            _ => (5_000, 375_000),
        };
        Self {
            servers,
            shards,
            regions: 3,
            load_spread: 20.0,
            capacity_jitter: 0.2,
            seed: 84,
            region_prefs: false,
        }
    }

    /// A laptop-scale variant preserving the shard/server ratio (75:1)
    /// and every distributional property.
    pub fn figure21_scaled(servers: u32) -> Self {
        Self {
            servers,
            shards: u64::from(servers) * 75,
            regions: 3,
            load_spread: 20.0,
            capacity_jitter: 0.2,
            seed: 84,
            region_prefs: false,
        }
    }

    /// The Figure 22 ablation problem: many regions and a per-shard
    /// region preference, so good targets are rare.
    pub fn figure22(servers: u32) -> Self {
        Self {
            servers,
            shards: u64::from(servers) * 75,
            regions: 12,
            load_spread: 20.0,
            capacity_jitter: 0.2,
            seed: 84,
            region_prefs: true,
        }
    }
}

/// A generated snapshot ready to feed the allocator.
#[derive(Clone, Debug)]
pub struct ZippyDbSnapshot {
    /// The allocator input (random initial assignment).
    pub input: AllocInput,
}

impl ZippyDbSnapshot {
    /// Generates the snapshot.
    pub fn generate(cfg: SnapshotConfig) -> Self {
        let mut rng = SimRng::seeded(cfg.seed);
        let metrics = vec![
            Metric::Cpu.id(),
            Metric::Storage.id(),
            Metric::ShardCount.id(),
        ];

        // Shard loads: heavy within a bounded 20x band, correlated
        // across CPU and storage.
        let mut shard_loads = Vec::with_capacity(cfg.shards as usize);
        let mut total = LoadVector::zero();
        for _ in 0..cfg.shards {
            let scale = rng.power_law(1.0, cfg.load_spread, 0.9);
            let mut v = LoadVector::zero();
            v.set(Metric::Cpu.id(), scale * rng.f64_range(0.8, 1.2));
            v.set(Metric::Storage.id(), scale * rng.f64_range(0.8, 1.2));
            v.set(Metric::ShardCount.id(), 1.0);
            total += v;
            shard_loads.push(v);
        }

        // Server capacities sized for ~72% average utilization — tight
        // enough that a random assignment scatters servers across the
        // 90% threshold and the 10% balance band, as in the paper's
        // stress test — with per-server jitter up to `capacity_jitter`.
        let per_server = |m| total.get(m) / f64::from(cfg.servers) / 0.72;
        let servers: Vec<ServerInfo> = (0..cfg.servers)
            .map(|i| {
                let region = RegionId((i % u32::from(cfg.regions)) as u16);
                let jitter = 1.0 - cfg.capacity_jitter * rng.f64();
                let mut capacity = LoadVector::zero();
                capacity.set(Metric::Cpu.id(), per_server(Metric::Cpu.id()) * jitter);
                capacity.set(
                    Metric::Storage.id(),
                    per_server(Metric::Storage.id()) * jitter,
                );
                capacity.set(
                    Metric::ShardCount.id(),
                    per_server(Metric::ShardCount.id()) * jitter,
                );
                ServerInfo {
                    id: ServerId(i),
                    location: Location {
                        region,
                        datacenter: u32::from(region.raw()),
                        rack: i / 20,
                        machine: MachineId(i),
                    },
                    capacity,
                    draining: false,
                }
            })
            .collect();

        // Random initial assignment: the stress test's worst case.
        let shards: Vec<ShardPlacement> = shard_loads
            .iter()
            .enumerate()
            .map(|(i, load)| ShardPlacement {
                shard: ShardId(i as u64),
                load_per_replica: *load,
                replicas: vec![Some(ServerId(
                    rng.range_u64(0, u64::from(cfg.servers)) as u32
                ))],
            })
            .collect();

        let mut config = AllocConfig::new(metrics);
        config.search.seed = cfg.seed;
        if cfg.region_prefs {
            for s in 0..cfg.shards {
                config.region_preferences.insert(
                    ShardId(s),
                    (RegionId((s % u64::from(cfg.regions)) as u16), 2.0),
                );
            }
        }
        Self {
            input: AllocInput {
                servers,
                shards,
                config,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ZippyDbSnapshot {
        ZippyDbSnapshot::generate(SnapshotConfig {
            servers: 40,
            shards: 3_000,
            regions: 3,
            load_spread: 20.0,
            capacity_jitter: 0.2,
            seed: 5,
            region_prefs: false,
        })
    }

    #[test]
    fn shapes_match_config() {
        let s = small();
        assert_eq!(s.input.servers.len(), 40);
        assert_eq!(s.input.shards.len(), 3_000);
        assert!(s.input.shards.iter().all(|sp| sp.replicas[0].is_some()));
    }

    #[test]
    fn load_spread_is_about_20x() {
        let s = small();
        let loads: Vec<f64> = s
            .input
            .shards
            .iter()
            .map(|sp| sp.load_per_replica.get(Metric::Cpu.id()))
            .collect();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        let ratio = max / min;
        assert!(ratio > 10.0 && ratio < 40.0, "spread ratio {ratio}");
    }

    #[test]
    fn capacity_heterogeneity_within_20pct() {
        let s = small();
        let caps: Vec<f64> = s
            .input
            .servers
            .iter()
            .map(|srv| srv.capacity.get(Metric::Storage.id()))
            .collect();
        let max = caps.iter().cloned().fold(0.0, f64::max);
        let min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min >= max * 0.8 - 1e-9,
            "jitter bounded at 20%: {min} vs {max}"
        );
    }

    #[test]
    fn random_assignment_has_violations() {
        let s = small();
        // Feed through the allocator's evaluator indirectly: count
        // servers whose shard-count usage exceeds the 90% threshold.
        let mut usage = vec![0.0f64; s.input.servers.len()];
        for sp in &s.input.shards {
            usage[sp.replicas[0].unwrap().raw() as usize] +=
                sp.load_per_replica.get(Metric::Cpu.id());
        }
        let over: usize = s
            .input
            .servers
            .iter()
            .enumerate()
            .filter(|(i, srv)| usage[*i] > srv.capacity.get(Metric::Cpu.id()) * 0.9)
            .count();
        assert!(over > 0, "random start should violate somewhere");
    }

    #[test]
    fn figure21_scales() {
        let s0 = SnapshotConfig::figure21(0);
        assert_eq!((s0.servers, s0.shards), (1_000, 75_000));
        let s2 = SnapshotConfig::figure21(2);
        assert_eq!((s2.servers, s2.shards), (5_000, 375_000));
        let scaled = SnapshotConfig::figure21_scaled(200);
        assert_eq!(scaled.shards, 15_000);
    }
}
