//! DST acceptance gate: a fixed-seed smoke swarm (tier-1; wired into
//! `scripts/check.sh`).
//!
//! Four layers of checks:
//!
//! - the smoke swarm — 8 seeds x 3 fault profiles, including an
//!   asymmetric-partition profile — completes with **zero invariant
//!   violations** from the always-on oracle, and the partition
//!   profiles demonstrably blocked traffic (the runs are not vacuous);
//! - determinism: re-running a cell single-threaded reproduces the
//!   multi-threaded run's trace CSV and oracle verdict byte for byte —
//!   same seed + plan ⇒ same run, independent of thread count;
//! - the documented fencing mutation (`disable_self_fencing`, which
//!   makes a server keep serving on a stale lease instead of wiping
//!   itself, §3.2) is caught by the oracle and shrunk to a reproducer
//!   of at most 5 fault events that still fails when replayed from its
//!   JSON form;
//! - reproducer JSON round-trips exactly.
//!
//! A DST cell is [`ChaosConfig::dst`]; the swarm, shrinker and codec
//! are the world kit's generic ones.

use shard_manager::apps::kit::{repro_from_json, repro_to_json, run, run_grid, shrink};
use shard_manager::apps::{run_chaos, Chaos, ChaosConfig, ChaosReport};
use shard_manager::sim::faults::{Fault, FaultProfile};
use shard_manager::sim::oracle::InvariantKind;
use shard_manager::sim::SimTime;

/// Replays a cell under an explicit (edited) fault plan.
fn replay(cfg: ChaosConfig, plan: Vec<(SimTime, Fault)>) -> ChaosReport {
    run::<Chaos>(cfg, Some(plan))
}

/// The fixed smoke grid: 8 seeds across symmetric-partition,
/// asymmetric-partition, and mixed profiles (24 cells).
fn smoke_grid() -> Vec<ChaosConfig> {
    let profiles = [
        FaultProfile::SymPartition,
        FaultProfile::AsymPartition,
        FaultProfile::Mixed,
    ];
    profiles
        .iter()
        .flat_map(|&profile| (0..8).map(move |seed| ChaosConfig::dst(seed, profile)))
        .collect()
}

#[test]
fn smoke_swarm_is_violation_free_and_not_vacuous() {
    let jobs = smoke_grid();
    let reports = run_grid::<Chaos>(&jobs, 4);
    assert_eq!(reports.len(), 24);

    for (cfg, r) in jobs.iter().zip(&reports) {
        let tag = format!("seed={} profile={:?}", cfg.seed, cfg.profile);
        assert_eq!(r.total_violations, 0, "{tag}: {:?}", r.violations);
        assert!(r.converged, "{tag} did not converge");
        assert!(
            r.stats.served > 1000,
            "{tag} served only {}",
            r.stats.served
        );
        assert_eq!(r.stats.dropped, 0, "{tag}");

        // Non-vacuity: every partition-profile cell actually
        // partitioned the network (messages were blocked), made
        // ZooKeeper expire at least one silent session, and drove at
        // least one server to self-fence — the §3.2 mechanism under
        // test really ran.
        if cfg.profile != Some(FaultProfile::Mixed) {
            assert!(r.stats.net_partitions >= 2, "{tag}: no partitions");
            assert!(r.net.blocked > 0, "{tag}: partition blocked nothing");
            assert!(r.stats.zk_expiries >= 1, "{tag}: no ZK expiry");
            assert!(r.stats.self_fences >= 1, "{tag}: no self-fence");
        }
    }
}

#[test]
fn same_cell_is_byte_identical_across_thread_counts() {
    // One asymmetric-partition cell, run three ways: inside a
    // 4-thread swarm, inside a 2-thread swarm, and alone on the main
    // thread. Every run must produce the same trace and verdict.
    let grid: Vec<ChaosConfig> = (0..4)
        .map(|s| ChaosConfig::dst(s, FaultProfile::AsymPartition))
        .collect();
    let wide = run_grid::<Chaos>(&grid, 4);
    let narrow = run_grid::<Chaos>(&grid, 2);
    let solo = run_chaos(grid[3]);

    let from_wide = &wide[3];
    let from_narrow = &narrow[3];
    assert_eq!(from_wide.trace_csv, from_narrow.trace_csv);
    assert_eq!(from_wide.trace_csv, solo.trace_csv);
    assert_eq!(from_wide.verdict(), from_narrow.verdict());
    assert_eq!(from_wide.verdict(), solo.verdict());
    assert_eq!(from_wide.plan, solo.plan);

    // Different seeds still differ (the comparison above is not
    // trivially comparing empty traces).
    assert_ne!(wide[2].trace_csv, wide[3].trace_csv);
}

/// THE DOCUMENTED MUTATION: `disable_self_fencing` turns off the §3.2
/// self-fence timer, so a server whose heartbeat acks stop (because it
/// is partitioned from ZooKeeper) keeps serving on its stale lease
/// while the control plane — seeing the session expire — promotes a
/// replacement. Two unfenced willing primaries for the same shard is
/// precisely the paper's at-most-one-primary violation; the oracle
/// must catch it, and the shrinker must reduce the 16-event fault plan
/// to a minimal reproducer (a single partition window: start + heal,
/// well under the 5-event acceptance bound).
#[test]
fn broken_fencing_is_caught_shrunk_and_replayable() {
    // Scan seeds until the mutation bites (not every seed's partition
    // windows overlap traffic on a fatal shard).
    let (cfg, failing) = (0..10)
        .map(|seed| {
            let cfg = ChaosConfig {
                disable_self_fencing: true,
                ..ChaosConfig::dst(seed, FaultProfile::AsymPartition)
            };
            (cfg, run_chaos(cfg))
        })
        .find(|(_, r)| r.failed())
        .expect("within 10 seeds the broken fencing must cause a violation");

    // Caught: the violations are the fencing kind(s) the mutation
    // breaks, not collateral noise.
    let kinds = failing.violated_kinds();
    assert!(
        kinds.contains(&InvariantKind::DualPrimary) || kinds.contains(&InvariantKind::StaleRead),
        "unexpected kinds: {kinds:?}"
    );
    assert!(
        kinds
            .iter()
            .all(|k| matches!(k, InvariantKind::DualPrimary | InvariantKind::StaleRead)),
        "collateral violation kinds: {kinds:?}"
    );

    // Shrunk: at most 5 fault events (acceptance bound).
    let minimal = shrink::<Chaos>(cfg, &failing.plan).expect("a failing plan must be shrinkable");
    assert!(
        minimal.len() <= 5,
        "reproducer has {} events: {minimal:?}",
        minimal.len()
    );
    assert!(!minimal.is_empty(), "an empty plan cannot fail");

    // Replayable: through the JSON form and back, the minimal plan
    // still fails with the same invariant kind(s).
    let json = repro_to_json::<Chaos>(&cfg, &minimal);
    let (cfg2, plan2) = repro_from_json::<Chaos>(&json).expect("emitted reproducer JSON parses");
    assert_eq!(cfg2, cfg);
    assert_eq!(plan2, minimal);
    let replayed = replay(cfg2, plan2);
    assert!(replayed.failed(), "minimal reproducer must still fail");
    assert!(
        replayed.violated_kinds().iter().all(|k| kinds.contains(k)),
        "replay drifted to different kinds: {:?} vs {kinds:?}",
        replayed.violated_kinds()
    );

    // And the fix fixes it: the same seed and plan with fencing
    // enabled is clean.
    let fixed = replay(
        ChaosConfig {
            disable_self_fencing: false,
            ..cfg
        },
        minimal,
    );
    assert_eq!(
        fixed.total_violations, 0,
        "self-fencing must neutralize the reproducer: {:?}",
        fixed.violations
    );
}
