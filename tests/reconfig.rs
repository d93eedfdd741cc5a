//! Reconfiguration acceptance gate (tier-1; wired into
//! `scripts/check.sh`): joint-consensus membership changes under
//! chaos.
//!
//! Four layers of checks:
//!
//! - the smoke swarm — 8 seeds of [`FaultProfile::ReconfigChaos`]
//!   (crashes, session expiries, and partitions landing inside a
//!   continuous drain/undrain churn loop) completes with **zero
//!   invariant violations**, every acked write intact, and the runs
//!   are not vacuous: each seed commits real membership changes AND
//!   has migration steps genuinely interrupted by an active fault;
//! - determinism: the same `(config, plan)` cell reproduces stats,
//!   verdict, and plan exactly;
//! - the documented mutation (`single_step`, which replaces joint
//!   `C_old,new` bridges with one-shot voter-set swaps) is caught by
//!   the `ReplicaSetAgreement` / acked-then-lost oracle, shrunk to a
//!   minimal fault plan, and the reproducer round-trips through its
//!   JSON form and still fails on replay;
//! - the fix fixes it: the shrunk plan is clean with joint consensus
//!   back on.

use shard_manager::apps::kit::{repro_from_json, repro_to_json, run, shrink};
use shard_manager::apps::{run_reconfig, Reconfig, ReconfigConfig, ReconfigReport};
use shard_manager::sim::faults::{Fault, FaultProfile};
use shard_manager::sim::oracle::InvariantKind;
use shard_manager::sim::SimTime;

/// Replays a cell under an explicit (edited) fault plan.
fn replay(cfg: ReconfigConfig, plan: Vec<(SimTime, Fault)>) -> ReconfigReport {
    run::<Reconfig>(cfg, Some(plan))
}

/// The fixed smoke grid: 8 seeds of the reconfiguration-chaos profile.
fn smoke_grid() -> Vec<ReconfigConfig> {
    (0..8)
        .map(|seed| ReconfigConfig::dst(seed, FaultProfile::ReconfigChaos))
        .collect()
}

#[test]
fn reconfig_smoke_swarm_is_violation_free_and_not_vacuous() {
    let mut interrupted_total = 0;
    let mut joint_total = 0;
    for cfg in smoke_grid() {
        let r = run_reconfig(cfg);
        let tag = format!("seed={}", cfg.seed);
        println!(
            "{tag}: stats={:?} net_blocked={} unplaced={}",
            r.stats, r.net.blocked, r.unplaced
        );
        assert_eq!(
            r.total_violations, 0,
            "{tag}: joint consensus must keep every invariant: {:?}",
            r.violations
        );
        assert!(r.converged, "{tag}: {} shards unplaced", r.unplaced);

        // Traffic was real and nothing acked went missing.
        assert!(r.stats.writes_acked > 200, "{tag}: {:?}", r.stats);

        // Non-vacuity, per seed: the churn loop committed real
        // membership changes while the plan injected real faults.
        assert!(r.stats.reconfigs_completed >= 8, "{tag}: {:?}", r.stats);
        assert!(r.stats.server_crashes >= 1, "{tag}: {:?}", r.stats);
        assert!(r.stats.net_partitions >= 1, "{tag}: {:?}", r.stats);
        interrupted_total += r.stats.reconfigs_interrupted;
        joint_total += r.stats.joint_interruptions;
    }
    // Non-vacuity, across the grid: faults genuinely interrupted
    // in-flight reconfigurations — migration steps nacked or timed out
    // while a fault was active, a healthy share of them with a joint
    // configuration literally uncommitted in the log.
    assert!(
        interrupted_total >= 20,
        "only {interrupted_total} interrupted reconfigurations across the grid"
    );
    assert!(
        joint_total >= 1,
        "no interruption landed during a joint phase"
    );
}

#[test]
fn same_cell_reproduces_exactly() {
    let cfg = ReconfigConfig::dst(3, FaultProfile::ReconfigChaos);
    let a = run_reconfig(cfg);
    let b = run_reconfig(cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.verdict(), b.verdict());
    assert_eq!(a.plan, b.plan);
    // Different seeds still differ (the comparison above is not
    // trivially comparing empty runs).
    let c = run_reconfig(ReconfigConfig::dst(4, FaultProfile::ReconfigChaos));
    assert_ne!(a.stats, c.stats);
}

/// THE DOCUMENTED MUTATION: `single_step` makes every group commit
/// membership changes as one-shot voter-set swaps instead of routing
/// them through a joint `C_old,new` entry. A drain handover swaps one
/// voter for another — old and new sets then admit disjoint quorums,
/// which is exactly how pre-joint-consensus Raft loses acked writes.
/// The oracle must catch it, the ddmin shrinker must cut the fault
/// plan to a minimal reproducer, and the reproducer must survive a
/// JSON round-trip and still fail on replay.
#[test]
fn single_step_membership_change_is_caught_shrunk_and_replayable() {
    let failing = smoke_grid()
        .into_iter()
        .map(|mut cfg| {
            cfg.single_step = true;
            (cfg, run_reconfig(cfg))
        })
        .find(|(_, r)| r.failed())
        .expect("within the smoke grid the single-step mutation must cause a violation");
    let (cfg, report) = failing;

    // Caught: by the replica-set-agreement audit or the acked-write
    // sweep, not collateral noise.
    let kinds = report.violated_kinds();
    assert!(
        kinds.contains(&InvariantKind::ReplicaSetAgreement)
            || kinds.contains(&InvariantKind::StaleRead),
        "unexpected kinds: {kinds:?}"
    );
    assert!(
        kinds.iter().all(|k| matches!(
            k,
            InvariantKind::ReplicaSetAgreement | InvariantKind::StaleRead
        )),
        "collateral violation kinds: {kinds:?}"
    );

    // Shrunk: the churn loop alone (plus at most a few fault events)
    // reproduces the corruption.
    let minimal = shrink::<Reconfig>(cfg, &report.plan).expect("a failing plan must be shrinkable");
    assert!(
        minimal.len() <= 5,
        "reproducer has {} events: {minimal:?}",
        minimal.len()
    );

    // Replayable: through the JSON form and back, the minimal plan
    // still fails with the same invariant kind(s).
    let json = repro_to_json::<Reconfig>(&cfg, &minimal);
    let (cfg2, plan2) = repro_from_json::<Reconfig>(&json).expect("emitted reproducer JSON parses");
    assert_eq!(cfg2, cfg);
    assert_eq!(plan2, minimal);
    let replayed = replay(cfg2, plan2.clone());
    assert!(replayed.failed(), "minimal reproducer must still fail");
    assert!(
        replayed.violated_kinds().iter().all(|k| kinds.contains(k)),
        "replay drifted to different kinds: {:?} vs {kinds:?}",
        replayed.violated_kinds()
    );

    // And the fix fixes it: the same seed and plan with joint
    // consensus restored is clean.
    let fixed = replay(
        ReconfigConfig {
            single_step: false,
            ..cfg
        },
        plan2,
    );
    assert_eq!(
        fixed.total_violations, 0,
        "joint consensus must neutralize the reproducer: {:?}",
        fixed.violations
    );
    assert!(fixed.converged);
}
