//! Checked-in reproducers, replayed (tier-1).
//!
//! `tests/repros/` keeps the reproducer documents the swarm has shrunk
//! (`swarm --mutate --out DIR` writes them; `swarm --replay FILE` reads
//! them), named `<world>-<profile>-<seed>.json`. Each is replayed
//! through `repro_from_json` and `kit::run`:
//!
//! - a documented mutation's reproducer still fails, with exactly the
//!   invariant kind it was shrunk for, and the same seed and plan are
//!   clean and converged with the mutation off;
//! - `chaos-lossy_net-809.json` is the full 16-event plan of the seed
//!   that found the role-blind `admit` bug, and `chaos-split_chaos-3.json`
//!   a 16-event plan shrunk from the 24 of a seed where an aborted move
//!   left its target's copy unreclaimed — two unfenced willing primaries
//!   of one shard — until every aborted change reclaimed the targets it
//!   had entered: both stay clean and converged.
//!
//! - `reconfig-mixed-13.json` is a known gap (ROADMAP item 2): seed 13
//!   of the reconfig world's `mixed` profile, shrunk to 4 fault events,
//!   ends with two committed-config views of one shard with no mutation
//!   on. Its test asserts that violation until the fix inverts it.
//!   `reconfig-mixed-8.json` is a second one, of another shape: seed 8
//!   of the same profile, which ddmin cannot shrink below its 10 fault
//!   events (two partitions, a crash and restart, a session expiry and
//!   restore, and a degraded net), ends with two committed-config views
//!   of another shard.
//!
//! The documents were written before the kit worlds' configs lost
//! their one-valued fields; that they still parse and replay is the
//! proof that a document names a cell, not a config.

use shard_manager::apps::kit::{repro_from_json, run, Scenario};
use shard_manager::apps::{Chaos, Reconfig, Split};
use shard_manager::sim::faults::FaultProfile;
use shard_manager::sim::oracle::InvariantKind;
use std::collections::BTreeSet;

/// Replays a mutation's reproducer, then the same seed and plan with
/// the mutation off.
fn mutation_is_caught_and_its_fix_is_clean<S: Scenario>(doc: &str, kind: InvariantKind) {
    let (cfg, plan) = repro_from_json::<S>(doc).expect("a reproducer document parses");
    let (profile, mutated) = S::key(&cfg);
    assert!(mutated, "{}: the document turns its mutation on", S::WORLD);
    let caught = run::<S>(cfg, Some(plan.clone()));
    assert_eq!(
        caught.violated_kinds(),
        BTreeSet::from([kind]),
        "{}: {:?}",
        S::WORLD,
        caught.violations
    );

    let profile = FaultProfile::parse(profile).expect("a cell's profile parses");
    let fixed = S::cell(S::params(&cfg).seed, profile, false);
    let clean = run::<S>(fixed, Some(plan));
    assert_eq!(
        clean.total_violations,
        0,
        "{}: {:?}",
        S::WORLD,
        clean.violations
    );
    assert!(clean.converged, "{}: {} unplaced", S::WORLD, clean.unplaced);
}

#[test]
fn disabled_self_fencing_reproducer_still_fails() {
    mutation_is_caught_and_its_fix_is_clean::<Chaos>(
        include_str!("repros/chaos-asym_partition-0.json"),
        InvariantKind::DualPrimary,
    );
}

#[test]
fn single_step_reconfig_reproducer_still_fails() {
    mutation_is_caught_and_its_fix_is_clean::<Reconfig>(
        include_str!("repros/reconfig-reconfig_chaos-1.json"),
        InvariantKind::ReplicaSetAgreement,
    );
}

#[test]
fn skipped_cutover_ack_reproducer_still_fails() {
    mutation_is_caught_and_its_fix_is_clean::<Split>(
        include_str!("repros/split-split_chaos-13.json"),
        InvariantKind::LostRequest,
    );
}

/// Replays a chaos reproducer of `events` fault events that must stay
/// clean and converged.
fn stays_clean(doc: &str, seed: u64, profile: FaultProfile, events: usize) {
    let (cfg, plan) = repro_from_json::<Chaos>(doc).expect("a reproducer document parses");
    assert_eq!(cfg, Chaos::cell(seed, profile, false));
    assert_eq!(plan.len(), events);
    let r = run::<Chaos>(cfg, Some(plan));
    assert_eq!(r.total_violations, 0, "{:?}", r.violations);
    assert!(r.converged, "{} unplaced", r.unplaced);
}

#[test]
fn lossy_net_seed_809_stays_clean() {
    let doc = include_str!("repros/chaos-lossy_net-809.json");
    stays_clean(doc, 809, FaultProfile::LossyNet, 16);
}

#[test]
fn split_chaos_seed_3_stays_clean() {
    let doc = include_str!("repros/chaos-split_chaos-3.json");
    stays_clean(doc, 3, FaultProfile::SplitChaos, 16);
}

/// Known gap: a one-server partition, 3% drop / 2% dup and the two
/// heals leave shard 6 with 2 distinct committed-config views across its
/// 4 replicas at 130 s — the oracle's quiescence check
/// `ReplicaSetAgreement`, and nothing else. When `sm-apps::replication`
/// stops losing the committed entry, this replay turns clean and the
/// test becomes a `stays_clean` one.
#[test]
fn reconfig_mixed_seed_13_still_disagrees() {
    let doc = include_str!("repros/reconfig-mixed-13.json");
    let (cfg, plan) = repro_from_json::<Reconfig>(doc).expect("a reproducer document parses");
    assert_eq!(cfg, Reconfig::cell(13, FaultProfile::Mixed, false));
    assert_eq!(plan.len(), 4);
    let r = run::<Reconfig>(cfg, Some(plan));
    assert_eq!(
        r.violated_kinds(),
        BTreeSet::from([InvariantKind::ReplicaSetAgreement]),
        "{:?}",
        r.violations
    );
    let views = "shard 6: 2 distinct committed-config views across 4 replicas";
    assert!(
        r.violations.iter().any(|v| v.detail == views),
        "{:?}",
        r.violations
    );
}

/// Known gap, of another shape than seed 13's: all 10 fault events of
/// seed 8 are needed (ddmin removes none) — a one-server partition, a
/// crash and restart of server 0, an asymmetric partition, a session
/// expiry and its restore, and 3% drop / 2% dup — and they leave shard 1
/// with 2 distinct committed-config views across 4 replicas at 130 s,
/// the oracle's `ReplicaSetAgreement` and nothing else. When
/// `sm-apps::replication` stops losing the committed entry, this replay
/// turns clean and the test becomes a `stays_clean` one.
#[test]
fn reconfig_mixed_seed_8_still_disagrees() {
    let doc = include_str!("repros/reconfig-mixed-8.json");
    let (cfg, plan) = repro_from_json::<Reconfig>(doc).expect("a reproducer document parses");
    assert_eq!(cfg, Reconfig::cell(8, FaultProfile::Mixed, false));
    assert_eq!(plan.len(), 10);
    let r = run::<Reconfig>(cfg, Some(plan));
    assert_eq!(
        r.violated_kinds(),
        BTreeSet::from([InvariantKind::ReplicaSetAgreement]),
        "{:?}",
        r.violations
    );
    let views = "shard 1: 2 distinct committed-config views across 4 replicas";
    assert!(
        r.violations.iter().any(|v| v.detail == views),
        "{:?}",
        r.violations
    );
}
