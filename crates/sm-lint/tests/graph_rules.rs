//! End-to-end tests of the cross-file rules over the seeded fixture
//! trees in `fixtures/` — each tree is a miniature workspace that
//! `lint_workspace` scans exactly like the real one. The fixtures are
//! excluded from the real workspace scan (`fixtures` is a skip dir),
//! so the violations seeded here never count against the repo.

use sm_lint::{lint_workspace, Report, RuleId};
use std::path::PathBuf;

fn lint_fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    lint_workspace(&root).expect("fixture tree scans")
}

#[test]
fn p1_reports_the_shortest_call_chain_across_files() {
    let report = lint_fixture("p1_chain");
    let p1: Vec<_> = report.unwaived().filter(|v| v.rule == RuleId::P1).collect();
    assert_eq!(p1.len(), 2, "assign and route are both roots: {p1:?}");
    let assign = p1
        .iter()
        .find(|v| v.file.ends_with("entry.rs"))
        .expect("finding rooted at entry.rs");
    assert!(
        assign.pattern.contains("assign → route → place"),
        "shortest chain printed: {}",
        assign.pattern
    );
    assert!(
        assign
            .pattern
            .contains("reaches `[]` at crates/sm-core/src/registry.rs:10"),
        "chain names the panic site: {}",
        assign.pattern
    );
}

#[test]
fn l1_flags_the_two_lock_cycle_but_accepts_consistent_order() {
    let cycle = lint_fixture("l1_cycle");
    let l1: Vec<_> = cycle.unwaived().filter(|v| v.rule == RuleId::L1).collect();
    assert_eq!(l1.len(), 1, "exactly one deduped cycle: {l1:?}");
    assert!(
        l1[0].pattern.contains("shards") && l1[0].pattern.contains("servers"),
        "cycle names both locks: {}",
        l1[0].pattern
    );

    let consistent = lint_fixture("l1_consistent");
    assert!(
        consistent.violations.iter().all(|v| v.rule != RuleId::L1),
        "consistent order is clean"
    );
}

#[test]
fn d5_flags_transitive_wall_clock_reach_from_sim_code() {
    let report = lint_fixture("d5_clock");
    let d5: Vec<_> = report.unwaived().filter(|v| v.rule == RuleId::D5).collect();
    assert_eq!(d5.len(), 1, "{d5:?}");
    assert!(d5[0].file.ends_with("step.rs"), "flagged at the sim root");
    assert!(
        d5[0].pattern.contains("step → measure"),
        "chain printed: {}",
        d5[0].pattern
    );
    // The direct read in sm-bench is D1-legal and not a D5 root.
    assert!(
        report
            .violations
            .iter()
            .all(|v| !v.file.ends_with("measure.rs")),
        "{:?}",
        report.violations
    );
}

#[test]
fn r4_flags_hot_path_fns_that_reach_a_lock() {
    let report = lint_fixture("r4_hotlock");
    let r4: Vec<_> = report.unwaived().filter(|v| v.rule == RuleId::R4).collect();
    assert_eq!(r4.len(), 1, "only the marked transitive locker: {r4:?}");
    assert!(r4[0].file.ends_with("fast.rs"), "rooted at the hot fn");
    assert!(
        r4[0].pattern.contains("Table::lookup → Table::snapshot"),
        "chain printed: {}",
        r4[0].pattern
    );
    assert!(
        r4[0].pattern.contains("`state.lock()`"),
        "lock site named: {}",
        r4[0].pattern
    );
    // The unmarked locker, the lock-free hot fn, and the hot-marked
    // locker outside the R4 crates are all clean.
    assert!(
        report.violations.iter().all(|v| v.rule != RuleId::R4
            || (!v.pattern.contains("rebuild")
                && !v.pattern.contains("probe")
                && !v.pattern.contains("resolve"))),
        "{:?}",
        report.violations
    );
}

#[test]
fn w1_flags_the_stale_waiver_and_spares_the_live_one() {
    let report = lint_fixture("w1_stale");
    let w1: Vec<_> = report.unwaived().filter(|v| v.rule == RuleId::W1).collect();
    assert_eq!(w1.len(), 1, "{w1:?}");
    assert_eq!(w1[0].line, 5, "the comment line of the stale waiver");
    assert!(
        w1[0].pattern.contains("stale allow(R1)"),
        "{}",
        w1[0].pattern
    );
    // The live waiver on line 11 is consumed by the R1 violation there.
    assert_eq!(report.waived().count(), 1);
}

#[test]
fn u1_flags_pub_items_nothing_outside_the_crate_names() {
    let report = lint_fixture("u1_surface");
    let flagged: Vec<_> = report
        .unwaived()
        .map(|v| (v.rule, v.pattern.as_str()))
        .collect();
    // Used by another crate, by the crate's own bin, by `bench/src`, or
    // reached through `shared`'s signature: all fine; a `fn` named
    // outside only as a local / a field is not. `bench/src` is read for
    // names only — its `unwrap` is not linted.
    assert_eq!(
        flagged,
        [
            (RuleId::U1, "pub orphan"),
            (RuleId::U1, "pub unit_tested"),
            (RuleId::U1, "pub shadowed"),
        ],
        "{:?}",
        report.violations
    );
    let waived: Vec<_> = report.waived().map(|v| v.pattern.as_str()).collect();
    assert_eq!(waived, ["pub paper_named"], "and W1 finds the waiver live");
}

#[test]
fn d1_flags_an_environment_read_in_a_world_but_not_in_the_tooling() {
    let report = lint_fixture("d1_env");
    let d1: Vec<_> = report.unwaived().filter(|v| v.rule == RuleId::D1).collect();
    assert_eq!(d1.len(), 1, "{:?}", report.violations);
    assert!(
        d1[0].file.ends_with("sm-apps/src/world.rs"),
        "{}",
        d1[0].file
    );
    assert_eq!(d1[0].pattern, "env::var");
}

#[test]
fn whole_workspace_analysis_is_fast() {
    // sm-lint is not simulation code: wall-clock here is the point.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("workspace root");
    let started = std::time::Instant::now();
    let report = lint_workspace(&root).expect("workspace scans");
    let elapsed = started.elapsed();
    assert!(report.files_scanned > 50);
    assert!(
        report.call_edges > 1000,
        "graph built: {}",
        report.call_edges
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "workspace analysis took {elapsed:?} (budget 5s)"
    );
}
