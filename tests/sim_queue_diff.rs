//! Differential gate for the calendar event queue: every DES world must
//! produce **byte-identical** runs under the calendar queue and the
//! reference binary heap.
//!
//! The engine's ordering contract is `(at, seq)` — time, then push
//! order — and both queue implementations must realize it exactly,
//! including tie ordering within one microsecond. Any divergence shows
//! up here as a trace or report mismatch long before it could corrupt a
//! figure or a swarm verdict.
//!
//! Coverage: 25 seeded cells across every kit world (chaos, DST fault
//! profiles, reconfiguration chaos, the skew-storm split world), each
//! run twice — once per queue kind — and compared on the full trace CSV
//! plus the entire `Debug`-rendered report (stats, violations,
//! counters).

use shard_manager::apps::kit::{run, Scenario};
use shard_manager::apps::{Chaos, ChaosConfig, Reconfig, Split};
use shard_manager::sim::faults::FaultProfile;
use shard_manager::sim::QueueKind;
use std::fmt::Debug;

/// Asserts the two queue kinds produce the same run of `cfg`: traces
/// first (the sharpest signal, byte for byte), then the verdict, then
/// the whole report.
fn assert_same<S: Scenario>(cfg: S::Config)
where
    S::Config: Debug,
{
    let a = run::<S>(cfg, None, QueueKind::Calendar);
    let b = run::<S>(cfg, None, QueueKind::BinaryHeap);
    assert_eq!(
        a.trace_csv, b.trace_csv,
        "{cfg:?}: traces diverged between calendar queue and binary heap"
    );
    assert_eq!(a.verdict(), b.verdict(), "{cfg:?}: verdicts diverged");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{cfg:?}: reports diverged between calendar queue and binary heap"
    );
}

#[test]
fn chaos_runs_are_identical_across_queue_kinds() {
    for seed in [0, 7, 42, 1337] {
        assert_same::<Chaos>(ChaosConfig::covering(seed));
    }
}

#[test]
fn dst_cells_are_identical_across_queue_kinds() {
    let profiles = [
        FaultProfile::SymPartition,
        FaultProfile::AsymPartition,
        FaultProfile::Mixed,
    ];
    for profile in profiles {
        for seed in 0..3 {
            assert_same::<Chaos>(ChaosConfig::dst(seed, profile));
        }
    }
}

#[test]
fn reconfig_runs_are_identical_across_queue_kinds() {
    for seed in [0, 3, 11, 29] {
        assert_same::<Reconfig>(Reconfig::cell(seed, FaultProfile::ReconfigChaos, false));
    }
}

#[test]
fn split_runs_are_identical_across_queue_kinds() {
    for seed in 0..8 {
        assert_same::<Split>(Split::cell(seed, FaultProfile::SplitChaos, false));
    }
}
