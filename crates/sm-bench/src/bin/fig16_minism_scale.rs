//! Figure 16: the scale of mini-SMs in the scale-out control plane.
//!
//! Feeds the census through the application manager (partitioning) and
//! the partition registry (mini-SM assignment), then prints each
//! mini-SM's server/replica load — Figure 16's scatter.

use sm_bench::{banner, compare, table, Scale};
use sm_core::control_plane::{ApplicationManager, PartitionRegistry};
use sm_types::{AppId, DeploymentMode, ServerId, ShardId};
use sm_workloads::census::{Census, CensusConfig, ReplicationCategory};

fn main() {
    banner(
        "Figure 16",
        "scale of mini-SMs (servers and replicas managed)",
    );
    let apps = match Scale::from_env() {
        Scale::Paper => 2000,
        Scale::Small => 250,
    };
    let census = Census::generate(CensusConfig { apps, seed: 2021 });

    // Partition every SM application; cap partitions at 4,000 servers
    // ("thousands of servers" per partition, §6.1) and mini-SMs at 50K
    // servers (the paper's largest mini-SM).
    let mut mgr = ApplicationManager::new(4_000);
    let mut regional = PartitionRegistry::new(50_000).with_replica_cap(1_500_000);
    let mut geo = PartitionRegistry::new(50_000).with_replica_cap(1_500_000);

    let mut next_server = 0u32;
    let mut next_shard = 0u64;
    for (i, app) in census.sm_apps().enumerate() {
        let servers: Vec<ServerId> = (0..app.servers)
            .map(|k| ServerId(next_server + k as u32))
            .collect();
        next_server += app.servers as u32;
        let shards: Vec<ShardId> = (0..app.shards.min(3_000_000))
            .map(|k| ShardId(next_shard + k))
            .collect();
        next_shard += shards.len() as u64;
        let replicas_per_shard = match app.replication {
            ReplicationCategory::PrimaryOnly => 1usize,
            ReplicationCategory::SecondaryOnly => 2,
            ReplicationCategory::PrimarySecondary => 3,
        };
        for part in mgr.partition_app(AppId(i as u32), &servers, &shards) {
            let replicas = part.shards.len() * replicas_per_shard;
            match app.deployment {
                DeploymentMode::Regional => regional.assign(&part, replicas),
                DeploymentMode::GeoDistributed => geo.assign(&part, replicas),
            };
        }
    }

    let mut rows = Vec::new();
    let mut max_servers = 0usize;
    let mut max_replicas = 0usize;
    for (kind, registry) in [("regional", &regional), ("geo-distributed", &geo)] {
        for (id, info) in registry.mini_sms() {
            max_servers = max_servers.max(info.servers);
            max_replicas = max_replicas.max(info.replicas);
            rows.push(vec![
                format!("{kind} {id}"),
                info.partitions.len().to_string(),
                info.servers.to_string(),
                info.replicas.to_string(),
            ]);
        }
    }
    rows.sort_by(|a, b| {
        b[2].parse::<usize>()
            .unwrap_or(0)
            .cmp(&a[2].parse::<usize>().unwrap_or(0))
    });
    rows.truncate(20);
    println!(
        "{}",
        table(
            &["mini-SM", "partitions", "servers", "shard replicas"],
            &rows
        )
    );

    compare(
        "regional mini-SMs in service",
        "139 (production)",
        regional.minism_count(),
    );
    compare(
        "geo-distributed mini-SMs in service",
        "48 (production)",
        geo.minism_count(),
    );
    compare("largest mini-SM, servers", "~50K", max_servers);
    compare("largest mini-SM, shard replicas", "~1.3M", max_replicas);
}
