//! Tier-1 gate: the workspace must be clean under `sm-lint`.
//!
//! The linter enforces the repo-specific determinism, robustness and
//! surface invariants (line rules D1–D4, R1–R3, graph rules
//! P1/L1/D5/R4/W1 and the closed-surface rule U1; see DESIGN.md and the
//! `sm-lint` crate docs). Every rule is held at **zero** unwaived
//! violations: a hit either gets fixed or gets an inline
//! `// sm-lint: allow(..) — justification` waiver.

use std::path::Path;

#[test]
fn workspace_has_zero_unwaived_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = sm_lint::lint_workspace(root).expect("scan workspace sources");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — lint roots moved?",
        report.files_scanned
    );
    assert!(
        report.fns_indexed > 500,
        "suspiciously few fns indexed ({}) — graph extraction broke?",
        report.fns_indexed
    );
    let failures: Vec<String> = report
        .unwaived()
        .map(|v| format!("{}:{}: [{}] `{}`", v.file, v.line, v.rule.name(), v.pattern))
        .collect();
    assert!(
        failures.is_empty(),
        "unwaived sm-lint violations:\n{}\n(fix them or add `// sm-lint: allow(<rule>) — why`)",
        failures.join("\n")
    );
}

#[test]
fn lint_report_renders_both_formats() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = sm_lint::lint_workspace(root).expect("scan workspace sources");
    let text = report.render_text();
    assert!(text.contains("sm-lint:"), "text summary present: {text}");
    let json = report.render_json();
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"by_rule\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
