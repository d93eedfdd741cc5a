//! Adaptive-sharding acceptance gate (tier-1; wired into
//! `scripts/check.sh`): splits and merges under a skew storm with
//! chaos.
//!
//! Four layers of checks:
//!
//! - the smoke swarm — 8 seeds of [`FaultProfile::SplitChaos`]
//!   (crashes, session expiries, partitions, and lossy-net windows
//!   landing inside in-flight splits and merges while a viral key range
//!   drives the adaptive scaler) completes with **zero invariant
//!   violations**, every request served, and the runs are not vacuous:
//!   each seed commits real splits AND merges, the shard count rises
//!   and falls back, and faults genuinely abort in-flight operations;
//! - determinism: the same `(config, plan)` cell reproduces stats,
//!   verdict, and plan exactly;
//! - the documented mutation (`skip_cutover_ack`, which commits a
//!   split/merge when the cutover `add_shard`s are *sent* instead of
//!   acked) is caught by the lost-request / coverage oracle under a
//!   lossy network, shrunk to a minimal fault plan, and the reproducer
//!   round-trips through its JSON form and still fails on replay;
//! - the fix fixes it: the shrunk plan is clean with the all-or-nothing
//!   cutover back on.

use shard_manager::apps::kit::{repro_from_json, repro_to_json, run, shrink};
use shard_manager::apps::{run_split, Split, SplitConfig, SplitReport};
use shard_manager::sim::faults::{Fault, FaultProfile};
use shard_manager::sim::oracle::InvariantKind;
use shard_manager::sim::SimTime;

/// Replays a cell under an explicit (edited) fault plan.
fn replay(cfg: SplitConfig, plan: Vec<(SimTime, Fault)>) -> SplitReport {
    run::<Split>(cfg, Some(plan))
}

/// The fixed smoke grid: 8 seeds of the split-chaos profile.
fn smoke_grid() -> Vec<SplitConfig> {
    (0..8)
        .map(|seed| SplitConfig::dst(seed, FaultProfile::SplitChaos))
        .collect()
}

/// The mutation hunt runs under one long moderate lossy window spanning
/// the skew storm: heavy enough that some cutover `add_shard` gets
/// eaten mid-split, light enough that most operations survive their
/// prepare and forward steps and actually *reach* the cutover.
fn lossy_storm_plan() -> Vec<(SimTime, Fault)> {
    vec![
        (
            SimTime::from_secs(26),
            Fault::NetDegrade {
                drop_pct: 12,
                dup_pct: 0,
            },
        ),
        (SimTime::from_secs(68), Fault::NetHeal),
    ]
}

#[test]
fn split_smoke_swarm_is_violation_free_and_not_vacuous() {
    let mut aborted_total = 0;
    let mut interrupted_total = 0;
    for cfg in smoke_grid() {
        let r = run_split(cfg);
        let tag = format!("seed={}", cfg.seed);
        println!(
            "{tag}: stats={:?} net_blocked={} unplaced={}",
            r.stats, r.net.blocked, r.unplaced
        );
        assert_eq!(
            r.total_violations, 0,
            "{tag}: the graceful split protocol must keep every invariant: {:?}",
            r.violations
        );
        assert!(r.converged, "{tag}: {} shards unplaced", r.unplaced);

        // Traffic was real and every request was eventually served.
        assert!(r.stats.served > 3_000, "{tag}: {:?}", r.stats);
        assert_eq!(r.stats.dropped, 0, "{tag}: {:?}", r.stats);

        // Non-vacuity, per seed: the viral window drove real splits
        // through the 5-step protocol, the cooldown drove real merges,
        // the shard count breathed, and the plan injected real faults.
        assert!(r.stats.splits_completed >= 4, "{tag}: {:?}", r.stats);
        assert!(r.stats.merges_completed >= 4, "{tag}: {:?}", r.stats);
        // 8 is the world's initial shard count, `SHARDS` in split.rs.
        assert!(
            r.stats.peak_shards > 8 && r.stats.final_shards < r.stats.peak_shards,
            "{tag}: shard count must rise under the storm and fall back: {:?}",
            r.stats
        );
        assert!(r.stats.server_crashes >= 1, "{tag}: {:?}", r.stats);
        assert!(r.stats.net_partitions >= 1, "{tag}: {:?}", r.stats);
        aborted_total += r.stats.splits_aborted + r.stats.merges_aborted;
        interrupted_total += r.stats.reshard_rpc_interrupted;
    }
    // Non-vacuity, across the grid: faults genuinely interrupted
    // in-flight splits and merges — operations were aborted mid-flight
    // (children reclaimed, sources restored) and resharding protocol
    // RPCs were nacked or timed out while a fault was active.
    assert!(
        aborted_total >= 4,
        "only {aborted_total} aborted split/merge operations across the grid"
    );
    assert!(
        interrupted_total >= 4,
        "only {interrupted_total} fault-interrupted resharding RPCs across the grid"
    );
}

#[test]
fn same_cell_reproduces_exactly() {
    let cfg = SplitConfig::dst(3, FaultProfile::SplitChaos);
    let a = run_split(cfg);
    let b = run_split(cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.verdict(), b.verdict());
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.trace_csv, b.trace_csv);
    // Different seeds still differ (the comparison above is not
    // trivially comparing empty runs).
    let c = run_split(SplitConfig::dst(4, FaultProfile::SplitChaos));
    assert_ne!(a.stats, c.stats);
}

/// THE DOCUMENTED MUTATION: `skip_cutover_ack` commits a split or merge
/// the moment the cutover `add_shard`s are *sent*. If the network eats
/// one, the spec now names a child whose server never started serving
/// it — and because the commit already retired the operation, nothing
/// ever retries the grant. Clients route the child's range straight
/// into the hole until their retry budgets die. The oracle must catch
/// it, the ddmin shrinker must cut the fault plan to a minimal
/// reproducer, and the reproducer must survive a JSON round-trip and
/// still fail on replay.
#[test]
fn skipped_cutover_ack_is_caught_shrunk_and_replayable() {
    let failing = smoke_grid()
        .into_iter()
        .map(|mut cfg| {
            cfg.skip_cutover_ack = true;
            let r = replay(cfg, lossy_storm_plan());
            (cfg, r)
        })
        .find(|(_, r)| r.failed())
        .expect("within the lossy grid the skipped cutover ack must cause a violation");
    let (cfg, report) = failing;

    // Caught: as lost requests (a permanently unserved range) or a
    // coverage/convergence audit failure, not collateral noise.
    let expected = [
        InvariantKind::LostRequest,
        InvariantKind::KeyspaceCoverage,
        InvariantKind::Unconverged,
    ];
    let kinds = report.violated_kinds();
    assert!(
        kinds.iter().any(|k| expected.contains(k)),
        "unexpected kinds: {kinds:?}"
    );
    assert!(
        kinds.iter().all(|k| expected.contains(k)),
        "collateral violation kinds: {kinds:?}"
    );

    // Shrunk: a handful of fault events reproduce the hole.
    let minimal = shrink::<Split>(cfg, &report.plan).expect("a failing plan must be shrinkable");
    assert!(
        minimal.len() <= 5,
        "reproducer has {} events: {minimal:?}",
        minimal.len()
    );

    // Replayable: through the JSON form and back, the minimal plan
    // still fails with the same invariant kind(s).
    let json = repro_to_json::<Split>(&cfg, &minimal);
    let (cfg2, plan2) = repro_from_json::<Split>(&json).expect("emitted reproducer JSON parses");
    assert_eq!(cfg2, cfg);
    assert_eq!(plan2, minimal);
    let replayed = replay(cfg2, plan2.clone());
    assert!(replayed.failed(), "minimal reproducer must still fail");
    assert!(
        replayed.violated_kinds().iter().all(|k| kinds.contains(k)),
        "replay drifted to different kinds: {:?} vs {kinds:?}",
        replayed.violated_kinds()
    );

    // And the fix fixes it: the same seed and plan with the
    // all-or-nothing cutover restored is clean.
    let fixed = replay(
        SplitConfig {
            skip_cutover_ack: false,
            ..cfg
        },
        plan2,
    );
    assert_eq!(
        fixed.total_violations, 0,
        "the acked cutover must neutralize the reproducer: {:?}",
        fixed.violations
    );
    assert!(fixed.converged);
}
