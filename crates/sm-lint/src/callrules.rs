//! Cross-file rules over the workspace call graph: P1
//! (panic-reachability), L1 (lock-order cycles), D5 (transitive
//! wall-clock/entropy reach), R4 (hot-path lock freedom), and the W1
//! stale-waiver audit.
//!
//! P1 and D5 are reachability problems: one reverse BFS from every
//! "fact" function marks everything that can reach a panic (or clock
//! read); a forward BFS per flagged root then reconstructs the
//! *shortest* call chain for the report, so the finding reads as a
//! concrete repro path, not a yes/no bit.

use crate::graph::{Event, FnNode, Graph};
use crate::rules::{waiver_decls, waivers_governing, RuleId, Violation};
use crate::scan::LineInfo;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates whose non-test `pub fn`s must not transitively panic (P1).
/// `sm-cluster`/`sm-allocator` stay line-rule-only for now: their APIs
/// are driven by the solver, not by live control-plane traffic.
pub(crate) const P1_CRATES: [&str; 3] = ["sm-core", "sm-zk", "sm-routing"];

/// Individual files whose non-test `pub fn`s are P1 roots regardless
/// of which crate they sit in: the replicated-log data plane, the
/// adaptive split/merge scaler, the idempotent control-plane RPC
/// exchange, and the world kit that drives it. A panic there loses a
/// replica's availability — the exact failure mode the reconfiguration
/// protocol exists to survive — wedges resharding mid-storm, drops the
/// §3.2 dedup/fencing rules on the floor, or turns a chaos verdict into
/// a crash, so these paths must degrade to `SmError`, never to a crash.
/// Listing a file here is deliberate even when its crate is already in
/// [`P1_CRATES`]: the pin survives module moves and crate-list changes.
pub(crate) const P1_FILES: [&str; 5] = [
    "crates/sm-apps/src/replication.rs",
    "crates/sm-apps/src/replstore.rs",
    "crates/sm-core/src/splitter.rs",
    "crates/sm-core/src/exchange.rs",
    "crates/sm-apps/src/kit.rs",
];

/// True when `f` is a P1 root by crate or by file.
fn p1_root(f: &FnNode) -> bool {
    (P1_CRATES.contains(&f.crate_name.as_str()) || P1_FILES.contains(&f.file.as_str()))
        && f.is_pub
        && !f.is_test
}

/// Crates whose fns must not transitively reach wall-clock/entropy
/// reads (D5) — the replay-deterministic simulator stack.
pub(crate) const D5_CRATES: [&str; 3] = ["sm-sim", "sm-solver", "sm-apps"];

/// Crates whose `// sm-lint: hot-path` fns must not transitively
/// acquire a lock (R4) — the request plane's lock-free read side.
pub(crate) const R4_CRATES: [&str; 3] = ["sm-routing", "sm-types", "sm-apps"];

/// Output of the graph rules.
pub(crate) struct GraphFindings {
    /// P1/L1/D5 violations (waiver-annotated like line rules).
    pub violations: Vec<Violation>,
    /// `(file, governed line, rule)` waivers consumed by graph rules —
    /// merged with fact-level usage for the W1 audit.
    pub used_waivers: BTreeSet<(String, usize, RuleId)>,
}

/// Runs P1, L1, D5 and R4 over the graph.
pub(crate) fn check_graph(g: &Graph, files: &BTreeMap<String, Vec<LineInfo>>) -> GraphFindings {
    let mut out = GraphFindings {
        violations: Vec::new(),
        used_waivers: BTreeSet::new(),
    };
    let adj: Vec<Vec<usize>> = g.fns.iter().map(|f| g.callees(f)).collect();

    check_reachability(
        g,
        &adj,
        files,
        &mut out,
        RuleId::P1,
        |f| !f.panic_sites.is_empty(),
        |f| f.panic_sites.first().cloned(),
        // A root that panics directly is its own one-hop chain; it is
        // still reported (R1 does not cover `[]` indexing).
        p1_root,
    );
    check_reachability(
        g,
        &adj,
        files,
        &mut out,
        RuleId::D5,
        |f| !f.clock_sites.is_empty(),
        |f| f.clock_sites.first().cloned(),
        |f| {
            D5_CRATES.contains(&f.crate_name.as_str())
                && !f.is_test
                // Direct reads are D1/D2's findings; D5 owns the
                // transitive-only case.
                && f.clock_sites.is_empty()
        },
    );
    check_reachability(
        g,
        &adj,
        files,
        &mut out,
        RuleId::R4,
        |f| !f.locks().is_empty(),
        |f| {
            f.locks().first().map(|&(lock, line)| crate::graph::Site {
                pattern: format!("{lock}.lock()"),
                line,
            })
        },
        // A hot-marked fn that locks directly is its own one-hop
        // chain — marking it hot-path *is* the claim being checked.
        |f| R4_CRATES.contains(&f.crate_name.as_str()) && f.hot_path && !f.is_test,
    );
    check_lock_order(g, &adj, files, &mut out);
    out
}

/// Shared engine for P1, D5 and R4: reverse-reach from fact fns, then
/// a shortest forward chain per flagged root. `first_site` returns an
/// owned [`Site`] so rules whose facts are not stored as sites (R4's
/// lock events) can synthesize one for the report.
#[allow(clippy::too_many_arguments)]
fn check_reachability(
    g: &Graph,
    adj: &[Vec<usize>],
    files: &BTreeMap<String, Vec<LineInfo>>,
    out: &mut GraphFindings,
    rule: RuleId,
    has_fact: impl Fn(&FnNode) -> bool,
    first_site: impl Fn(&FnNode) -> Option<crate::graph::Site>,
    is_root: impl Fn(&FnNode) -> bool,
) {
    let n = g.fns.len();
    // Reverse reachability from every fact fn.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in adj.iter().enumerate() {
        for &c in callees {
            radj[c].push(caller);
        }
    }
    let mut reaches = vec![false; n];
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| has_fact(&g.fns[i])).collect();
    for &i in &queue {
        reaches[i] = true;
    }
    while let Some(i) = queue.pop_front() {
        for &caller in &radj[i] {
            if !reaches[caller] {
                reaches[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    let roots: Vec<usize> = (0..n)
        .filter(|&i| is_root(&g.fns[i]) && reaches[i])
        .collect();
    for root in roots {
        // Forward BFS to the nearest fact fn for the shortest chain.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[root] = true;
        q.push_back(root);
        let mut terminal = None;
        while let Some(i) = q.pop_front() {
            if has_fact(&g.fns[i]) {
                terminal = Some(i);
                break;
            }
            for &c in &adj[i] {
                if !seen[c] {
                    seen[c] = true;
                    parent[c] = Some(i);
                    q.push_back(c);
                }
            }
        }
        let Some(term) = terminal else { continue };
        let mut chain = vec![term];
        while let Some(p) = parent[*chain.last().expect("nonempty")] {
            chain.push(p);
        }
        chain.reverse();
        let names: Vec<String> = chain.iter().map(|&i| g.fns[i].qualified()).collect();
        let tf = &g.fns[term];
        let site = first_site(tf).expect("terminal has a fact site");
        let pattern = format!(
            "{} reaches `{}` at {}:{}",
            names.join(" → "),
            site.pattern,
            tf.file,
            site.line
        );
        let rf = &g.fns[root];
        let waiver = waiver_for(files, &rf.file, rf.line, rule, &mut out.used_waivers);
        out.violations.push(Violation {
            rule,
            file: rf.file.clone(),
            line: rf.line,
            pattern,
            waiver,
        });
    }
}

/// L1: build the global lock-order graph (intra-function order plus
/// one level of caller-held → callee-acquired propagation) and report
/// every cycle.
fn check_lock_order(
    g: &Graph,
    adj: &[Vec<usize>],
    files: &BTreeMap<String, Vec<LineInfo>>,
    out: &mut GraphFindings,
) {
    // Edge lock_a → lock_b with a witness: where b was acquired (or
    // the call that acquires it) while a was held.
    #[derive(Clone)]
    struct Witness {
        file: String,
        line: usize,
        via: String,
    }
    let mut edges: BTreeMap<String, BTreeMap<String, Witness>> = BTreeMap::new();
    let mut add_edge = |a: &str, b: &str, w: Witness| {
        if a != b {
            edges
                .entry(a.to_string())
                .or_default()
                .entry(b.to_string())
                .or_insert(w);
        }
    };
    for (fi, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let mut held: Vec<String> = Vec::new();
        for e in &f.events {
            match e {
                Event::Lock { lock, line } => {
                    for h in &held {
                        add_edge(
                            h,
                            lock,
                            Witness {
                                file: f.file.clone(),
                                line: *line,
                                via: f.qualified(),
                            },
                        );
                    }
                    held.push(lock.clone());
                }
                Event::Call(c) => {
                    if held.is_empty() {
                        continue;
                    }
                    // One-level propagation: locks the direct callee
                    // acquires are ordered after everything held here.
                    // (adj was built from the same resolve(), so scan
                    // candidates directly for their lock events.)
                    for &ci in adj[fi].iter() {
                        let callee = &g.fns[ci];
                        if callee.name != c.callee {
                            continue;
                        }
                        for (lock, line) in callee.locks() {
                            for h in &held {
                                add_edge(
                                    h,
                                    lock,
                                    Witness {
                                        file: f.file.clone(),
                                        line: c.line,
                                        via: format!(
                                            "{} → {} (acquires `{}` at {}:{})",
                                            f.qualified(),
                                            callee.qualified(),
                                            lock,
                                            callee.file,
                                            line
                                        ),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: for each edge a→b, a path b→…→a closes a cycle.
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for (a, outs) in &edges {
        for b in outs.keys() {
            let Some(path) = bfs_path(&edges, b, a) else {
                continue;
            };
            // Cycle nodes: a → b → … → a.
            let mut cycle = vec![a.clone()];
            cycle.extend(path);
            let key: BTreeSet<String> = cycle.iter().cloned().collect();
            if !reported.insert(key) {
                continue;
            }
            let w = &edges[a][b];
            let pattern = format!(
                "lock-order cycle {} → {} (edge `{}` → `{}` in {})",
                cycle.join(" → "),
                a,
                a,
                b,
                w.via
            );
            let waiver = waiver_for(files, &w.file, w.line, RuleId::L1, &mut out.used_waivers);
            out.violations.push(Violation {
                rule: RuleId::L1,
                file: w.file.clone(),
                line: w.line,
                pattern,
                waiver,
            });
        }
    }
}

/// Shortest path `from → … → to` over the lock-order graph.
fn bfs_path(
    edges: &BTreeMap<String, BTreeMap<String, impl Sized>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut q = VecDeque::new();
    q.push_back(from);
    while let Some(n) = q.pop_front() {
        if n == to {
            let mut path = vec![n.to_string()];
            let mut cur = n;
            while let Some(&p) = parent.get(cur) {
                path.push(p.to_string());
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if let Some(outs) = edges.get(n) {
            for nxt in outs.keys() {
                let nxt = nxt.as_str();
                if nxt != from && !parent.contains_key(nxt) {
                    parent.insert(nxt, n);
                    q.push_back(nxt);
                }
            }
        }
    }
    None
}

/// Looks up a waiver for `rule` governing `line` of `file`, recording
/// usage for the W1 audit.
fn waiver_for(
    files: &BTreeMap<String, Vec<LineInfo>>,
    file: &str,
    line: usize,
    rule: RuleId,
    used: &mut BTreeSet<(String, usize, RuleId)>,
) -> Option<String> {
    let lines = files.get(file)?;
    let idx = line.checked_sub(1)?;
    if idx >= lines.len() {
        return None;
    }
    for (r, j) in waivers_governing(lines, idx) {
        if r == rule {
            used.insert((file.to_string(), line, rule));
            return Some(j);
        }
    }
    None
}

/// W1: every `sm-lint: allow(..)` comment must still be earning its
/// keep. `waived` holds `(file, line, rule)` of violations that
/// carried a waiver; `used` holds waivers consumed at fact level.
pub(crate) fn stale_waivers(
    files: &BTreeMap<String, Vec<LineInfo>>,
    waived: &BTreeSet<(String, usize, RuleId)>,
    used: &BTreeSet<(String, usize, RuleId)>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (file, lines) in files {
        for (idx, info) in lines.iter().enumerate() {
            let Some((names, _)) = waiver_decls(&info.comment) else {
                continue;
            };
            // A whole-line comment governs the next line.
            let governed = if info.masked.trim().is_empty() {
                idx + 2
            } else {
                idx + 1
            };
            for name in names {
                let Some(rule) = RuleId::parse(&name) else {
                    out.push(Violation {
                        rule: RuleId::W1,
                        file: file.clone(),
                        line: idx + 1,
                        pattern: format!("allow({name}) names an unknown rule"),
                        waiver: None,
                    });
                    continue;
                };
                let key = (file.clone(), governed, rule);
                if !waived.contains(&key) && !used.contains(&key) {
                    out.push(Violation {
                        rule: RuleId::W1,
                        file: file.clone(),
                        line: idx + 1,
                        pattern: format!(
                            "stale allow({}) — line {} no longer triggers {}",
                            rule.name(),
                            governed,
                            rule.name()
                        ),
                        waiver: None,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::scan::analyze;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<(String, Vec<LineInfo>)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), analyze(s)))
            .collect();
        let g = Graph::build(&parsed);
        let map: BTreeMap<String, Vec<LineInfo>> = parsed.into_iter().collect();
        check_graph(&g, &map).violations
    }

    #[test]
    fn p1_reports_shortest_chain_across_files() {
        let entry = "pub fn assign() { route(); }\n";
        let mid = "\
pub fn route() { place(); }
fn place(v: &[u32]) -> u32 { v[0] }
";
        let v = run(&[
            ("crates/sm-core/src/entry.rs", entry),
            ("crates/sm-core/src/mid.rs", mid),
        ]);
        let p1: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::P1).collect();
        assert_eq!(p1.len(), 2, "assign and route both flagged: {p1:?}");
        let assign = p1
            .iter()
            .find(|v| v.pattern.starts_with("assign"))
            .expect("assign");
        assert!(
            assign.pattern.contains("assign → route → place"),
            "{}",
            assign.pattern
        );
        assert!(assign
            .pattern
            .contains("`[]` at crates/sm-core/src/mid.rs:2"));
    }

    #[test]
    fn p1_ignores_private_test_and_out_of_scope_fns() {
        let v = run(&[(
            "crates/sm-solver/src/x.rs",
            "pub fn solve(v: &[u32]) -> u32 { v[0] }\n",
        )]);
        assert!(
            v.iter().all(|v| v.rule != RuleId::P1),
            "sm-solver not in P1 scope"
        );
        let v = run(&[(
            "crates/sm-core/src/x.rs",
            "fn private(v: &[u32]) -> u32 { v[0] }\n",
        )]);
        assert!(
            v.iter().all(|v| v.rule != RuleId::P1),
            "private fns are not roots"
        );
    }

    #[test]
    fn p1_waiver_suppresses_fact_and_records_usage() {
        let src = "\
// sm-lint: allow(P1) — fencing asserted upstream
pub fn assign(v: &[u32]) -> u32 { v[0] }
";
        let parsed = vec![("crates/sm-core/src/x.rs".to_string(), analyze(src))];
        let g = Graph::build(&parsed);
        let map: BTreeMap<String, Vec<LineInfo>> = parsed.into_iter().collect();
        let f = check_graph(&g, &map);
        assert!(
            f.violations.iter().all(|v| v.rule != RuleId::P1),
            "waived panic site must not seed P1: {:?}",
            f.violations
        );
        let key = ("crates/sm-core/src/x.rs".to_string(), 2, RuleId::P1);
        assert!(
            g.used_fact_waivers.contains(&key),
            "{:?}",
            g.used_fact_waivers
        );
        // …and a *used* fact waiver is not stale under W1.
        let stale = stale_waivers(&map, &BTreeSet::new(), &g.used_fact_waivers);
        assert!(stale.is_empty(), "{stale:?}");
    }

    #[test]
    fn l1_detects_two_function_cycle_and_accepts_consistent_order() {
        let bad = "\
fn first(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}
fn second(&self) {
    let b = self.beta.lock();
    let a = self.alpha.lock();
}
";
        let v = run(&[("crates/sm-routing/src/x.rs", bad)]);
        let l1: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::L1).collect();
        assert_eq!(l1.len(), 1, "{l1:?}");
        assert!(l1[0].pattern.contains("alpha"), "{}", l1[0].pattern);
        assert!(l1[0].pattern.contains("beta"), "{}", l1[0].pattern);

        let ok = "\
fn first(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}
fn second(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}
";
        let v = run(&[("crates/sm-routing/src/x.rs", ok)]);
        assert!(
            v.iter().all(|v| v.rule != RuleId::L1),
            "consistent order is clean"
        );
    }

    #[test]
    fn l1_propagates_one_level_through_calls() {
        let src = "\
impl Locks {
    fn outer(&self) {
        let a = self.alpha.lock();
        self.inner();
    }
    fn inner(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
    }
}
";
        // outer: alpha held across call to inner (beta) → alpha→beta;
        // inner alone orders beta→alpha: cycle.
        let v = run(&[("crates/sm-routing/src/x.rs", src)]);
        assert!(v.iter().any(|v| v.rule == RuleId::L1), "{v:?}");
    }

    #[test]
    fn r4_flags_only_marked_fns_in_scope_and_honors_waivers() {
        let src = "\
// sm-lint: hot-path
pub fn fast() { slow(); }
fn slow(&self) { let g = self.guard.lock(); }
pub fn admin() { let g = self.guard.lock(); }
";
        let v = run(&[("crates/sm-routing/src/x.rs", src)]);
        let r4: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::R4).collect();
        assert_eq!(r4.len(), 1, "{r4:?}");
        assert!(r4[0].pattern.contains("fast → slow"), "{}", r4[0].pattern);
        assert!(
            r4[0].pattern.contains("`guard.lock()`"),
            "{}",
            r4[0].pattern
        );

        // Out-of-scope crate: same code, no finding.
        let v = run(&[("crates/sm-core/src/x.rs", src)]);
        assert!(v.iter().all(|v| v.rule != RuleId::R4), "{v:?}");

        // A root-level waiver suppresses (and is recorded for W1).
        let waived = "\
// sm-lint: hot-path
// sm-lint: allow(R4) — cold-start fill, measured uncontended
pub fn fast() { let g = self.guard.lock(); }
";
        let parsed = vec![("crates/sm-routing/src/x.rs".to_string(), analyze(waived))];
        let g = Graph::build(&parsed);
        let map: BTreeMap<String, Vec<LineInfo>> = parsed.into_iter().collect();
        let f = check_graph(&g, &map);
        let r4: Vec<&Violation> = f
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::R4)
            .collect();
        assert_eq!(r4.len(), 1, "{r4:?}");
        assert!(r4[0].waiver.is_some(), "waiver attached: {:?}", r4[0]);
    }

    #[test]
    fn d5_flags_transitive_clock_reach_only() {
        let sim = "pub fn step() { measure(); }\n";
        let bench = "pub fn measure() { let t = Instant::now(); }\n";
        let v = run(&[
            ("crates/sm-sim/src/x.rs", sim),
            ("crates/sm-bench/src/m.rs", bench),
        ]);
        let d5: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::D5).collect();
        assert_eq!(d5.len(), 1, "{d5:?}");
        assert!(
            d5[0].pattern.contains("step → measure"),
            "{}",
            d5[0].pattern
        );
        assert!(d5[0].pattern.contains("Instant::now"));
        // The direct reader in sm-bench is not a D5 finding.
        assert_eq!(d5[0].file, "crates/sm-sim/src/x.rs");
    }

    #[test]
    fn stale_and_unknown_waivers_are_flagged() {
        let src = "\
fn clean() -> u32 { 1 }
// sm-lint: allow(R1) — no longer needed
fn also_clean() -> u32 { 2 }
fn x() {} // sm-lint: allow(Q9) — typo
";
        let files: BTreeMap<String, Vec<LineInfo>> =
            [("crates/sm-core/src/x.rs".to_string(), analyze(src))].into();
        let v = stale_waivers(&files, &BTreeSet::new(), &BTreeSet::new());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].pattern.contains("stale allow(R1)"), "{}", v[0].pattern);
        assert_eq!(v[0].line, 2);
        assert!(v[1].pattern.contains("unknown rule"));
    }

    #[test]
    fn live_waivers_are_not_stale() {
        let src = "fn f() { x.unwrap(); } // sm-lint: allow(R1) — checked\n";
        let files: BTreeMap<String, Vec<LineInfo>> =
            [("crates/sm-core/src/x.rs".to_string(), analyze(src))].into();
        let waived: BTreeSet<(String, usize, RuleId)> =
            [("crates/sm-core/src/x.rs".to_string(), 1, RuleId::R1)].into();
        let v = stale_waivers(&files, &waived, &BTreeSet::new());
        assert!(v.is_empty(), "{v:?}");
    }
}
