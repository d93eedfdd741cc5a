//! Refactor witness for the seeded worlds (tier-1): the chaos worlds
//! and the figure world.
//!
//! Every chaos cell below — the same seeded cells `tests/{chaos,dst,
//! reconfig,split}.rs` run — is pinned to
//! an FNV-1a-64 digest of its trace CSV, oracle verdict, `Debug`-
//! rendered stats and net counters, and convergence outcome. The
//! digests were recorded at the commit *before* the three worlds moved
//! onto `sm_apps::kit`. The figure world (`SimWorld`, which Figs 17–20
//! run) is pinned the same way over its trace CSV, its stats and the
//! orchestrator's stats: one upgrade cell per app, and one geo cell
//! with a region outage shorter than failure detection and one longer.
//! A refactor of the worlds, the kit or the apps must leave every
//! digest unchanged. A deliberate behaviour change re-records them (run with
//! `--nocapture`: each mismatch prints the new value) and says so in
//! its PR.

use shard_manager::apps::harness::{AppKind, ExperimentConfig, SimWorld, WorldEvent};
use shard_manager::apps::kit::{Report, Scenario};
use shard_manager::apps::{run, Chaos, ChaosConfig, Reconfig, Split};
use shard_manager::sim::faults::FaultProfile;
use shard_manager::sim::SimTime;
use shard_manager::types::{AppPolicy, RegionId, ServerId};
use std::fmt::Debug;

/// FNV-1a, 64-bit, over the parts with a NUL between them.
fn fnv1a64(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest<St: Debug, X>(r: &Report<St, X>) -> u64 {
    fnv1a64(&[
        &r.trace_csv,
        &r.verdict(),
        &format!("{:?}", r.stats),
        &format!("{:?}", r.net),
        &format!("{} {}", r.converged, r.unplaced),
    ])
}

/// Runs every `(cell, expected digest)` pair and reports all
/// mismatches at once.
fn check<S: Scenario>(family: &str, cells: &[(S::Config, u64)])
where
    S::Config: Debug,
{
    let mut drifted = Vec::new();
    for (cfg, want) in cells {
        let got = digest(&run::<S>(*cfg, None));
        if got != *want {
            println!("{family} {cfg:?}: recorded 0x{want:016x}, now 0x{got:016x}");
            drifted.push(format!("0x{want:016x} -> 0x{got:016x}"));
        }
    }
    assert!(drifted.is_empty(), "{family} digests drifted: {drifted:?}");
}

#[test]
fn chaos_covering_cells_are_unchanged() {
    check::<Chaos>(
        "chaos",
        &[
            (ChaosConfig::covering(0), 0xc82a_e1df_3946_e741),
            (ChaosConfig::covering(7), 0xf300_7898_0597_e6c7),
            (ChaosConfig::covering(42), 0x1bc7_e63e_70ff_17bc),
            (ChaosConfig::covering(1337), 0x9dc5_7828_52bf_a4f0),
        ],
    );
}

#[test]
fn dst_profile_cells_are_unchanged() {
    // In these three seeds the islanded servers host no shard, so the
    // symmetric and asymmetric cells coincide: only heartbeats cross
    // the partition, and both shapes block those.
    let islands = [
        0x612d_8a09_9051_dc7e_u64,
        0x5143_59a9_6d25_ebad,
        0x6e6c_b43d_7db1_abb5,
    ];
    let mixed = [
        0x5395_9d6f_1f7a_f826_u64,
        0x31bd_a800_69d1_36d1,
        0x0fb1_4f94_7642_05a5,
    ];
    let cells: Vec<(ChaosConfig, u64)> = [
        (FaultProfile::SymPartition, islands),
        (FaultProfile::AsymPartition, islands),
        (FaultProfile::Mixed, mixed),
    ]
    .into_iter()
    .flat_map(|(profile, want)| {
        (0..3).map(move |seed| (ChaosConfig::dst(seed, profile), want[seed as usize]))
    })
    .collect();
    check::<Chaos>("dst", &cells);
}

#[test]
fn reconfig_cells_are_unchanged() {
    let cell = |seed| <Reconfig as Scenario>::cell(seed, FaultProfile::ReconfigChaos, false);
    check::<Reconfig>(
        "reconfig",
        &[
            (cell(0), 0x541d_db37_2a6e_d95f),
            (cell(3), 0xf9ee_833c_0a9f_0e67),
            (cell(11), 0xed95_7e15_0c9a_688c),
            (cell(29), 0x8d39_78ef_ec73_db3a),
        ],
    );
}

#[test]
fn split_smoke_grid_is_unchanged() {
    let want = [
        0xb924_ac8f_8290_d832_u64,
        0xf779_f999_6028_4825,
        0xf01a_48f8_6e4d_8be3,
        0x1868_1363_e5e6_6d88,
        0x3e41_647b_78f7_3226,
        0xa6f6_7346_8d7c_c183,
        0x5ca0_1094_37d5_cd03,
        0x44c4_05ae_b8b4_6f96,
    ];
    let cells: Vec<_> = (0..8u64)
        .map(|seed| {
            let cfg = <Split as Scenario>::cell(seed, FaultProfile::SplitChaos, false);
            (cfg, want[seed as usize])
        })
        .collect();
    check::<Split>("split", &cells);
}

/// One figure-world run of `script` (seconds, event) up to `until`
/// seconds, digested over its trace CSV, its stats and the
/// orchestrator's stats.
fn figure_world_digest(cfg: ExperimentConfig, script: Vec<(u64, WorldEvent)>, until: u64) -> u64 {
    let mut sim = SimWorld::primed(cfg);
    for (secs, event) in script {
        sim.schedule_at(SimTime::from_secs(secs), event);
    }
    sim.run_until(SimTime::from_secs(until));
    let w = sim.world();
    fnv1a64(&[
        &w.trace.to_csv(10),
        &format!("{:?}", w.stats),
        &format!("{:?}", w.orchestrator().stats()),
    ])
}

/// A canary wave, a rolling upgrade and a crash on 8 servers × 96
/// shards.
fn upgrade_digest(app: AppKind, policy: Option<AppPolicy>) -> u64 {
    let mut cfg = ExperimentConfig::single_region(8, 96);
    cfg.app = app;
    if let Some(policy) = policy {
        cfg.policy = policy;
    }
    cfg.clients_per_region = 3;
    cfg.policy.max_concurrent_container_ops = 2;
    let region = RegionId(0);
    let script = vec![
        (40, WorldEvent::CanaryRestart { region, count: 2 }),
        (100, WorldEvent::StartUpgrade { region, version: 2 }),
        (250, WorldEvent::ServerCrash(ServerId(5))),
    ];
    figure_world_digest(cfg, script, 450)
}

/// Three regions of 4 servers × 60 shards and 20 s failure detection.
/// Region 0 is down for 5 s, so the control plane never sees the loss
/// and reconciles its servers; region 1 is down for 200 s, so its loss
/// is detected and repaired.
fn geo_outages_digest() -> u64 {
    let mut cfg = ExperimentConfig::three_region_geo(4, 60);
    cfg.clients_per_region = 3;
    cfg.request_rate = 4.0;
    let script = vec![
        (90, WorldEvent::RegionFail(RegionId(0))),
        (95, WorldEvent::RegionRecover(RegionId(0))),
        (200, WorldEvent::RegionFail(RegionId(1))),
        (400, WorldEvent::RegionRecover(RegionId(1))),
    ];
    figure_world_digest(cfg, script, 600)
}

#[test]
fn figure_world_cells_are_unchanged() {
    let primary_secondary = Some(AppPolicy::primary_secondary(1));
    let cells = [
        (
            "kv",
            upgrade_digest(AppKind::Kv, None),
            0x156c_f44f_05cb_8268,
        ),
        (
            "queue",
            upgrade_digest(AppKind::Queue, None),
            0xdfb1_e792_9ee3_453d,
        ),
        (
            "queue primary-secondary",
            upgrade_digest(AppKind::Queue, primary_secondary),
            0x0c45_f0b9_2d68_7985,
        ),
        ("geo outages", geo_outages_digest(), 0x56d8_d352_c4f3_3c46),
    ];
    let mut drifted = Vec::new();
    for (name, got, want) in cells {
        if got != want {
            println!("figure world {name}: recorded 0x{want:016x}, now 0x{got:016x}");
            drifted.push(format!("{name}: 0x{want:016x} -> 0x{got:016x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "figure world digests drifted: {drifted:?}"
    );
}
