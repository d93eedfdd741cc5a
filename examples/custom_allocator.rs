//! Composability (§1.2, §7): adopting only the allocator.
//!
//! ```sh
//! cargo run --release --example custom_allocator
//! ```
//!
//! The paper's "Data Placer" path: a complex data store keeps its own
//! orchestrator but reuses SM's allocator to compute shard-to-server
//! assignments that honor both its placement needs and the
//! infrastructure contracts. This example drives `sm-allocator`
//! standalone: geo spread, region preferences, a draining server, and
//! capacity-constrained balancing — no SM control plane involved.

use shard_manager::allocator::{AllocConfig, AllocInput, Allocator, ServerInfo, ShardPlacement};
use shard_manager::types::{LoadVector, Location, MachineId, Metric, RegionId, ServerId, ShardId};

fn main() {
    // 3 regions x 4 servers with heterogeneous CPU capacity.
    let mut servers = Vec::new();
    for i in 0..12u32 {
        let region = RegionId((i / 4) as u16);
        servers.push(ServerInfo {
            id: ServerId(i),
            location: Location {
                region,
                datacenter: u32::from(region.raw()),
                rack: i,
                machine: MachineId(i),
            },
            capacity: LoadVector::single(Metric::Cpu.id(), if i % 4 == 0 { 80.0 } else { 100.0 }),
            draining: i == 5, // server 5 has pending maintenance
        });
    }

    // 60 shards x 2 replicas, all unplaced; shards 0-19 prefer region 2.
    let shards: Vec<ShardPlacement> = (0..60)
        .map(|s| ShardPlacement::unplaced(ShardId(s), LoadVector::single(Metric::Cpu.id(), 6.0), 2))
        .collect();
    let mut config = AllocConfig::new(vec![Metric::Cpu.id()]);
    for s in 0..20u64 {
        config
            .region_preferences
            .insert(ShardId(s), (RegionId(2), 1.5));
    }
    config.search.seed = 2;

    let plan = Allocator::plan_periodic(&AllocInput {
        servers,
        shards,
        config,
    });
    println!(
        "plan: {} placements, {} violations left",
        plan.moves.len(),
        plan.violations.total()
    );

    // Verify the properties the Data Placer is hired for.
    let region_of = |srv: ServerId| RegionId((srv.raw() / 4) as u16);
    let mut on_draining = 0;
    let mut colocated = 0;
    let mut pref_honored = 0;
    for (shard, replicas) in plan.target() {
        let regions: Vec<RegionId> = replicas.iter().flatten().map(|&r| region_of(r)).collect();
        if regions.len() == 2 && regions[0] == regions[1] {
            colocated += 1;
        }
        if replicas.iter().flatten().any(|&r| r == ServerId(5)) {
            on_draining += 1;
        }
        if shard.raw() < 20 && regions.contains(&RegionId(2)) {
            pref_honored += 1;
        }
    }
    println!("replica pairs sharing a region : {colocated} (want 0 — spread goal)");
    println!("replicas on the draining server: {on_draining} (want 0 — drain goal)");
    println!("preferring shards in region 2  : {pref_honored}/20 (region preference)");
}
