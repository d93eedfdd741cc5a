#![warn(missing_docs)]
//! `sm-lint`: workspace-specific determinism & robustness lints.
//!
//! The figure-regeneration harness replays `sm-sim` scenarios and
//! expects identical traces for identical seeds, and the control plane
//! earns its availability numbers by degrading through [`SmError`]
//! rather than panicking. No off-the-shelf linter knows either
//! contract, so this crate enforces them — with per-line pattern rules
//! and, since v2, cross-file rules over a workspace **call graph**
//! (see [`lex`], [`graph`], [`callrules`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no `Instant::now` / `SystemTime::now` / `env::var*` outside `sm-bench` |
//! | D2   | no ambient RNG — only the seeded `sm_sim::SimRng` |
//! | D3   | no `HashMap`/`HashSet` in deterministic crates |
//! | D4   | no literal `SimNet` seeds in test code — seeds come from the harness |
//! | D5   | no *transitive* wall-clock/entropy reach from `sm-sim`/`sm-solver`/`sm-apps` |
//! | R1   | no `unwrap`/`expect`/`panic!` in control-plane non-test code |
//! | R2   | no `let _ =` value discards |
//! | R3   | no discarded `WatchEvent`s in control-plane code |
//! | R4   | no lock acquisition reachable from `// sm-lint: hot-path` fns |
//! | P1   | no control-plane `pub fn` transitively reaching a panic / `[]` |
//! | L1   | no cycles in the global lock-acquisition order |
//! | W1   | no stale waivers — an `allow(..)` must still trigger |
//! | U1   | no `pub` item that nothing outside its crate's `src/` names |
//!
//! Legitimate exceptions are *documented*, not hidden, with an inline
//! waiver: `// sm-lint: allow(D3) — justification` (parsed only from
//! real comments — never from strings or doc text). The tier-1 test
//! `tests/lint.rs` runs the linter over the workspace and requires zero
//! unwaived violations of every rule.
//!
//! [`SmError`]: https://docs.rs/sm-types

pub(crate) mod callrules;
pub(crate) mod graph;
pub(crate) mod lex;
pub mod report;
pub(crate) mod rules;
pub mod scan;
mod surface;

pub use report::Report;
pub use rules::{check_file, RuleId, Violation};

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Directories scanned inside the workspace root.
const SCAN_ROOTS: [&str; 4] = ["src", "tests", "examples", "crates"];

/// The repo benchmark: outside the workspace and never linted, but a
/// caller of the crates' `pub` items like any other, so U1 reads it.
const BENCH_SRC: &str = "bench/src";

/// Directory names never descended into. `fixtures` holds sm-lint's
/// own seeded-violation test trees, which must not lint the workspace.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "node_modules", "fixtures"];

/// Lints every `.rs` file of the workspace rooted at `root`: line
/// rules per file, the surface rule U1 across them, then graph rules
/// (P1/L1/D5/R4) over the extracted call graph, then the W1
/// stale-waiver audit over everything.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rust_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    let mut parsed: Vec<(String, Vec<scan::LineInfo>)> = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let lines = scan::analyze(&src);
        report.violations.extend(rules::check_file(&rel, &lines));
        report.files_scanned += 1;
        parsed.push((rel, lines));
    }

    // U1 also counts what the benchmark package names; which of its
    // files names what does not matter, only that none is a library's.
    let mut bench_files = Vec::new();
    if root.join(BENCH_SRC).is_dir() {
        collect_rust_files(&root.join(BENCH_SRC), &mut bench_files)?;
    }
    let mut bench = Vec::new();
    for file in &bench_files {
        let src = std::fs::read_to_string(file)?;
        bench.push((BENCH_SRC.to_string(), scan::analyze(&src)));
    }
    report
        .violations
        .extend(surface::check(parsed.iter().chain(&bench)));

    // Cross-file rules over the call graph.
    let g = graph::Graph::build(&parsed);
    report.fns_indexed = g.fns.len();
    report.call_edges = g.edge_count();
    let by_file: BTreeMap<String, Vec<scan::LineInfo>> = parsed.into_iter().collect();
    let findings = callrules::check_graph(&g, &by_file);
    report.violations.extend(findings.violations);

    // W1: audit every waiver against what actually triggered.
    let mut used: BTreeSet<(String, usize, RuleId)> = g.used_fact_waivers.clone();
    used.extend(findings.used_waivers);
    let waived: BTreeSet<(String, usize, RuleId)> = report
        .violations
        .iter()
        .filter(|v| v.waiver.is_some())
        .map(|v| (v.file.clone(), v.line, v.rule))
        .collect();
    report
        .violations
        .extend(callrules::stale_waivers(&by_file, &waived, &used));

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping build and VCS dirs.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lints_a_synthetic_tree() {
        let dir = std::env::temp_dir().join(format!("sm-lint-test-{}", std::process::id()));
        let core = dir.join("crates/sm-core/src");
        std::fs::create_dir_all(&core).expect("mkdir");
        std::fs::write(
            core.join("bad.rs"),
            "fn f() { x.unwrap(); let t = Instant::now(); }\n",
        )
        .expect("write");
        std::fs::write(
            core.join("waived.rs"),
            "fn g() { y.unwrap(); } // sm-lint: allow(R1) — test fixture\n",
        )
        .expect("write");
        let report = lint_workspace(&dir).expect("lint");
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.fns_indexed, 2);
        assert_eq!(report.unwaived().count(), 2, "{:?}", report.violations);
        assert_eq!(report.waived().count(), 1);
        assert!(!report.is_clean());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fixture_dirs_are_not_scanned() {
        let dir = std::env::temp_dir().join(format!("sm-lint-fix-{}", std::process::id()));
        let fixtures = dir.join("crates/sm-lint/fixtures/p1/crates/sm-core/src");
        std::fs::create_dir_all(&fixtures).expect("mkdir");
        std::fs::write(fixtures.join("bad.rs"), "fn f() { x.unwrap(); }\n").expect("write");
        let report = lint_workspace(&dir).expect("lint");
        assert_eq!(report.files_scanned, 0, "fixtures must be skipped");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
