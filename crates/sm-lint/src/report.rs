//! Human-readable and JSON rendering of lint results.

use crate::rules::{RuleId, Violation};
use std::fmt::Write as _;

/// The outcome of linting a workspace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every rule hit, waived or not, ordered by file then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `fn` items indexed into the call graph.
    pub fns_indexed: usize,
    /// Number of resolved call edges in the graph.
    pub call_edges: usize,
}

impl Report {
    /// Violations with no matching waiver — these fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waiver.is_none())
    }

    /// Violations documented by an inline waiver.
    pub fn waived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waiver.is_some())
    }

    /// True when the workspace is clean (zero unwaived violations).
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in self.unwaived() {
            let _ignored = writeln!(
                out,
                "{}:{}: [{}] `{}` — {}",
                v.file,
                v.line,
                v.rule.name(),
                v.pattern,
                v.rule.describe()
            );
        }
        let waived = self.waived().count();
        let unwaived = self.unwaived().count();
        let _ignored = writeln!(
            out,
            "sm-lint: {} files, {} fns, {} call edges, {} violation(s), {} waived",
            self.files_scanned, self.fns_indexed, self.call_edges, unwaived, waived
        );
        if unwaived == 0 && waived > 0 {
            for v in self.waived() {
                let _ignored = writeln!(
                    out,
                    "  waived {}:{} [{}] — {}",
                    v.file,
                    v.line,
                    v.rule.name(),
                    v.waiver.as_deref().unwrap_or("")
                );
            }
        }
        out
    }

    /// Renders the JSON report (hand-rolled: the workspace builds
    /// without third-party crates).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ignored = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ignored = writeln!(out, "  \"fns_indexed\": {},", self.fns_indexed);
        let _ignored = writeln!(out, "  \"call_edges\": {},", self.call_edges);
        let _ignored = writeln!(out, "  \"unwaived\": {},", self.unwaived().count());
        let _ignored = writeln!(out, "  \"waived\": {},", self.waived().count());
        let mut per_rule: Vec<(RuleId, usize)> = RuleId::ALL
            .iter()
            .map(|r| (*r, self.unwaived().filter(|v| v.rule == *r).count()))
            .collect();
        per_rule.retain(|(_, n)| *n > 0);
        out.push_str("  \"by_rule\": {");
        for (i, (rule, n)) in per_rule.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ignored = write!(out, "\"{}\": {}", rule.name(), n);
        }
        out.push_str("},\n");
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let _ignored = write!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"pattern\": \"{}\"",
                v.rule.name(),
                json_escape(&v.file),
                v.line,
                json_escape(&v.pattern)
            );
            if let Some(w) = &v.waiver {
                let _ignored = write!(out, ", \"waiver\": \"{}\"", json_escape(w));
            }
            out.push('}');
            if i + 1 < self.violations.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ignored = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            violations: vec![
                Violation {
                    rule: RuleId::D1,
                    file: "crates/sm-sim/src/time.rs".into(),
                    line: 3,
                    pattern: "Instant::now".into(),
                    waiver: None,
                },
                Violation {
                    rule: RuleId::R1,
                    file: "crates/sm-zk/src/store.rs".into(),
                    line: 9,
                    pattern: "unwrap".into(),
                    waiver: Some("checked above".into()),
                },
            ],
            files_scanned: 2,
            ..Report::default()
        }
    }

    #[test]
    fn text_report_lists_unwaived_and_counts() {
        let text = sample().render_text();
        assert!(text.contains("crates/sm-sim/src/time.rs:3: [D1]"));
        assert!(
            !text.contains("store.rs:9: [R1]"),
            "waived not listed as failure"
        );
        assert!(text.contains("1 violation(s), 1 waived"));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let json = sample().render_json();
        assert!(json.contains("\"unwaived\": 1"));
        assert!(json.contains("\"waived\": 1"));
        assert!(json.contains("\"by_rule\": {\"D1\": 1}"));
        assert!(json.contains("\"waiver\": \"checked above\""));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn clean_report() {
        let r = Report {
            violations: vec![],
            files_scanned: 5,
            ..Report::default()
        };
        assert!(r.is_clean());
        assert!(r.render_text().contains("0 violation(s)"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
