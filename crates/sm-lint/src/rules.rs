//! The invariant catalog: which rules exist and where they apply.
//!
//! Rule scoping is by *crate class*, derived from the file path:
//!
//! - **Deterministic crates** (`sm-sim`, `sm-solver`, `sm-core`,
//!   `sm-allocator`, `sm-zk`, `sm-cluster`) back the replayable
//!   simulator, so rule D3 bans order-randomized collections there.
//! - **Control-plane crates** (`sm-core`, `sm-zk`, `sm-cluster`,
//!   `sm-allocator`) must degrade via `SmError`, never a panic, so
//!   rule R1 applies to their non-test code.
//! - `sm-bench` is the one crate allowed to read the wall clock (D1);
//!   `sm-lint` itself is tooling and shares that exemption.

use crate::scan::{find_word, LineInfo};

/// Identifier of an enforced invariant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    /// No wall-clock reads (`Instant::now` / `SystemTime::now`) and no
    /// environment reads (`env::var*`) outside `sm-bench`: simulated
    /// time only, and no ambient process state inside a seeded world.
    D1,
    /// No ambient RNG (`thread_rng`, `rand::random`, `from_entropy`):
    /// the seeded `sm_sim::SimRng` only. In modules that spawn threads,
    /// additionally no `SimRng::seeded` — per-worker streams must come
    /// from the sanctioned `SimRng::seed_from(seed, worker_idx)`
    /// derivation, never ad-hoc seed arithmetic.
    D2,
    /// No `HashMap`/`HashSet` in deterministic crates: iteration order
    /// is randomized per process, which breaks replay. Use
    /// `BTreeMap`/`BTreeSet` or sort explicitly.
    D3,
    /// Test code must not construct a `SimNet` with a literal seed:
    /// the seed must flow in from the harness (a config, a loop
    /// variable, the fault-plan DSL) so a failing run's seed is the one
    /// reported and replayable. `SimNet::new(model, 42)` in a test
    /// hides the seed from the swarm/replay machinery.
    D4,
    /// No `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
    /// non-test control-plane code: propagate `SmError`.
    R1,
    /// No `let _ =` discards: name the binding (`let _ignored_x`) so
    /// the dropped value — often a `Result` — is documented.
    R2,
    /// Control-plane code may not ignore pending `WatchEvent`s: a
    /// `let _event = ...` discard of a watch-event result (or a bare
    /// `expire_session(...)` / `handle_event(...)` statement) silently
    /// drops liveness notifications, leaving one-shot watches unarmed
    /// and failures undetected. Deliver the events or waive with a
    /// justification.
    R3,
    /// Panic reachability (call-graph rule): a non-test `pub fn` in a
    /// control-plane crate (`sm-core`, `sm-zk`, `sm-routing`) must not
    /// *transitively* reach `panic!` / `unwrap` / `expect` /
    /// `unreachable!` / `[]` indexing through workspace calls. The
    /// report prints the shortest offending call chain.
    P1,
    /// Lock-order consistency (call-graph rule): per-function ordered
    /// lock-acquisition sequences, propagated one call level, must not
    /// form a cycle in the global lock-order graph — a cycle is a
    /// latent deadlock between concurrent paths.
    L1,
    /// Hot-path lock freedom (call-graph rule): a function marked
    /// `// sm-lint: hot-path` in a request-plane crate (`sm-routing`,
    /// `sm-types`, `sm-apps`) must not reach a `Mutex`/`RwLock` acquisition
    /// (`.lock()` / `.read()` / `.write()`) through workspace calls —
    /// the concurrent router's read side is advertised as lock-free,
    /// and this rule is what keeps that claim honest as the code
    /// evolves. The report prints the shortest marked-fn → lock chain.
    R4,
    /// Transitive wall-clock / entropy reach (call-graph rule): a
    /// non-test fn in a deterministic crate (`sm-sim`, `sm-solver`,
    /// `sm-apps`) must not reach `Instant::now` / `SystemTime::now` /
    /// ambient RNG through calls — even when the reading fn lives in a
    /// D1-exempt crate like `sm-bench`.
    D5,
    /// Stale-waiver audit: an `sm-lint: allow(..)` comment whose
    /// governed line no longer triggers the named rule is itself a
    /// finding — waivers must not outlive the code they excuse. Not
    /// waivable; delete the stale waiver instead.
    W1,
    /// Closed public surface (cross-file rule, see [`crate::surface`]):
    /// a `pub` item in non-test library code whose name no file outside
    /// its crate's `src/` mentions is `pub(crate)` at most — then the
    /// compiler, not a reviewer, reports it when it dies.
    U1,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 13] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::P1,
        RuleId::L1,
        RuleId::W1,
        RuleId::U1,
    ];

    /// The rule's short name as used in waivers (`D1`...`W1`).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::P1 => "P1",
            RuleId::L1 => "L1",
            RuleId::W1 => "W1",
            RuleId::U1 => "U1",
        }
    }

    /// Parses a waiver rule name.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim() {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "P1" => Some(RuleId::P1),
            "L1" => Some(RuleId::L1),
            "W1" => Some(RuleId::W1),
            "U1" => Some(RuleId::U1),
            _ => None,
        }
    }

    /// One-line description used in reports.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "wall-clock or environment read outside sm-bench \
                 (use sim time / step budgets; pass settings through the config)"
            }
            RuleId::D2 => {
                "ambient RNG (use the seeded sm_sim::SimRng; \
                 in threaded code derive workers via SimRng::seed_from)"
            }
            RuleId::D3 => "order-randomized HashMap/HashSet in a deterministic crate",
            RuleId::D4 => {
                "SimNet constructed with a literal seed in test code \
                 (take the seed from the harness so failures replay)"
            }
            RuleId::D5 => {
                "deterministic-crate fn transitively reaches a wall-clock/entropy \
                 read (keep measurement at the sm-bench boundary)"
            }
            RuleId::R1 => "panic path in control-plane code (propagate SmError)",
            RuleId::R2 => "`let _ =` discards a value (name the binding)",
            RuleId::R3 => {
                "watch events ignored in control-plane code \
                 (deliver the WatchEvents or waive with justification)"
            }
            RuleId::R4 => {
                "hot-path fn transitively acquires a lock \
                 (keep `// sm-lint: hot-path` code lock-free or drop the marker)"
            }
            RuleId::P1 => {
                "control-plane pub fn transitively reaches a panic \
                 (break the chain with SmError or waive the proven-safe site)"
            }
            RuleId::L1 => {
                "lock-order cycle across the call graph \
                 (acquire locks in one global order)"
            }
            RuleId::W1 => "stale waiver: governed line no longer triggers the rule (delete it)",
            RuleId::U1 => {
                "pub item named by nothing outside its crate's src/ \
                 (make it pub(crate); delete it if the compiler then calls it dead)"
            }
        }
    }
}

/// Crates whose behaviour must be a pure function of the seed.
pub(crate) const DETERMINISTIC_CRATES: [&str; 6] = [
    "sm-sim",
    "sm-solver",
    "sm-core",
    "sm-allocator",
    "sm-zk",
    "sm-cluster",
];

/// Crates whose non-test code must not panic.
pub(crate) const CONTROL_PLANE_CRATES: [&str; 4] =
    ["sm-core", "sm-zk", "sm-cluster", "sm-allocator"];

/// Crates exempt from D1 (measurement tooling: `sm-bench` times with
/// the wall clock and takes `SM_SCALE` / `SM_THREADS`).
pub(crate) const WALL_CLOCK_EXEMPT: [&str; 2] = ["sm-bench", "sm-lint"];

/// Where a scanned file lives, as far as rule scoping cares.
#[derive(Clone, Debug)]
pub(crate) struct FileClass {
    /// Workspace crate the file belongs to (`sm-core`,
    /// `shard-manager` for the facade, `tests` / `examples` for the
    /// root directories).
    pub crate_name: String,
    /// True for integration-test and bench targets (`tests/`,
    /// `benches/` directories): R1 never applies there.
    pub test_target: bool,
}

/// Classifies a workspace-relative path like `crates/sm-core/src/api.rs`.
pub(crate) fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        match parts.first() {
            Some(&"tests") => "tests".to_string(),
            Some(&"examples") => "examples".to_string(),
            _ => "shard-manager".to_string(),
        }
    };
    let test_target = parts.contains(&"tests") || parts.contains(&"benches");
    FileClass {
        crate_name,
        test_target,
    }
}

/// A single rule hit.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant was violated.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending pattern (e.g. `Instant::now`).
    pub pattern: String,
    /// Justification text when the line carries a matching waiver.
    pub waiver: Option<String>,
}

/// Returns the waivers declared on a line's *comment channel*, as
/// `(rule, justification)` pairs.
///
/// Waiver syntax: `// sm-lint: allow(D3) — justification`, with
/// multiple rules separated by commas: `allow(D1, R1)`. A waiver on a
/// line applies to that line; a whole-line waiver comment applies to
/// the next line instead. Only plain comments count: the caller passes
/// [`crate::scan::LineInfo::comment`], so a string literal or doc
/// comment containing the waiver syntax never waives anything.
pub(crate) fn waivers_on(comment: &str) -> Vec<(RuleId, String)> {
    let (names, justification) = match waiver_decls(comment) {
        Some(d) => d,
        None => return Vec::new(),
    };
    names
        .iter()
        .filter_map(|n| RuleId::parse(n))
        .map(|r| (r, justification.clone()))
        .collect()
}

/// Like [`waivers_on`], but keeps the raw rule-name tokens so the W1
/// audit can flag `allow(..)` entries naming unknown rules. Returns
/// `(names, justification)` when the line declares a waiver.
pub(crate) fn waiver_decls(comment: &str) -> Option<(Vec<String>, String)> {
    let at = comment.find("sm-lint: allow(")?;
    let after = &comment[at + "sm-lint: allow(".len()..];
    let close = after.find(')')?;
    let justification = after[close + 1..]
        .trim_start_matches([' ', '-', '—', ':'])
        .trim()
        .to_string();
    let names = after[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    Some((names, justification))
}

/// The waivers governing line `idx` (0-based): declared on the line
/// itself, or on a directly preceding whole-line comment.
pub(crate) fn waivers_governing(lines: &[LineInfo], idx: usize) -> Vec<(RuleId, String)> {
    let mut active = waivers_on(&lines[idx].comment);
    if idx > 0 {
        let above = &lines[idx - 1];
        if above.masked.trim().is_empty() {
            active.extend(waivers_on(&above.comment));
        }
    }
    active
}

/// Patterns that constitute a D1 violation: the wall clock, and the
/// process environment (`env::var` also matches `vars`, `var_os`,
/// `vars_os`) — a seeded world replays only what its config holds.
const D1_PATTERNS: [&str; 3] = ["Instant::now", "SystemTime::now", "env::var"];
/// Patterns that constitute a D2 violation.
const D2_PATTERNS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];
/// Markers that make a file "threaded" for D2's worker-seeding check.
const THREAD_MARKERS: [&str; 3] = ["std::thread", "thread::spawn", "thread::scope"];
/// Unordered collection types banned by D3.
const D3_PATTERNS: [&str; 2] = ["HashMap", "HashSet"];
/// Panicking constructs banned by R1 (matched as `name` followed by
/// `(` or `!`).
const R1_PATTERNS: [&str; 5] = ["unwrap", "expect", "panic!", "todo!", "unimplemented!"];
/// Expressions whose results carry `WatchEvent`s that a control plane
/// must deliver, not discard (R3).
const R3_SOURCES: [&str; 3] = ["expire_session", "handle_event", "WatchEvent"];

/// Returns true when the `SimNet::new(...)` call starting in
/// `lines[idx]` passes a bare integer literal as its final (seed)
/// argument. The call may span lines; up to eight are examined.
fn simnet_literal_seed(lines: &[LineInfo], idx: usize, start: usize) -> bool {
    // Collect the argument text between the call's balanced parens.
    let mut args = String::new();
    let mut depth = 0usize;
    let mut opened = false;
    'outer: for (k, info) in lines.iter().enumerate().skip(idx).take(8) {
        let text = if k == idx {
            &lines[idx].masked[start..]
        } else {
            info.masked.as_str()
        };
        for c in text.chars() {
            match c {
                '(' => {
                    depth += 1;
                    if depth == 1 {
                        opened = true;
                        continue;
                    }
                }
                ')' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break 'outer;
                    }
                }
                _ => {}
            }
            if opened && depth >= 1 {
                args.push(c);
            }
        }
        args.push(' ');
    }
    // The seed is the last top-level argument (ignoring a trailing
    // comma from multi-line formatting).
    let args = args.trim_end().trim_end_matches(',');
    let mut level = 0usize;
    let mut last_arg_start = 0usize;
    for (i, c) in args.char_indices() {
        match c {
            '(' | '[' | '{' => level += 1,
            ')' | ']' | '}' => level = level.saturating_sub(1),
            ',' if level == 0 => last_arg_start = i + 1,
            _ => {}
        }
    }
    let seed = args[last_arg_start..].trim();
    !seed.is_empty() && seed.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// Runs every applicable rule over one file's lines.
pub fn check_file(rel_path: &str, lines: &[LineInfo]) -> Vec<Violation> {
    let class = classify(rel_path);
    let deterministic = DETERMINISTIC_CRATES.contains(&class.crate_name.as_str());
    let control_plane =
        CONTROL_PLANE_CRATES.contains(&class.crate_name.as_str()) && !class.test_target;
    let wall_clock_ok = WALL_CLOCK_EXEMPT.contains(&class.crate_name.as_str());
    // A file that spawns threads must derive every per-worker RNG with
    // `SimRng::seed_from`; plain `SimRng::seeded` there usually means
    // ad-hoc seed arithmetic like `seeded(seed + worker)`, whose
    // streams are not independent.
    let threaded = lines
        .iter()
        .any(|l| THREAD_MARKERS.iter().any(|m| l.masked.contains(m)));

    let mut out = Vec::new();
    for (idx, info) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut hits: Vec<(RuleId, String)> = Vec::new();

        if !wall_clock_ok {
            for pat in D1_PATTERNS {
                if info.masked.contains(pat) {
                    hits.push((RuleId::D1, pat.to_string()));
                }
            }
        }
        for pat in D2_PATTERNS {
            if find_word(&info.masked, pat.trim_end_matches('!')).is_some() {
                hits.push((RuleId::D2, pat.to_string()));
            }
        }
        if info.masked.contains("rand::random") {
            hits.push((RuleId::D2, "rand::random".to_string()));
        }
        if threaded && find_word(&info.masked, "SimRng::seeded").is_some() {
            hits.push((RuleId::D2, "SimRng::seeded in threaded module".to_string()));
        }
        if deterministic {
            for pat in D3_PATTERNS {
                if find_word(&info.masked, pat).is_some() {
                    hits.push((RuleId::D3, pat.to_string()));
                }
            }
        }
        if class.test_target || info.in_test {
            if let Some(pos) = info.masked.find("SimNet::new") {
                if simnet_literal_seed(lines, idx, pos + "SimNet::new".len()) {
                    hits.push((RuleId::D4, "SimNet::new(.., <literal seed>)".to_string()));
                }
            }
        }
        if control_plane && !info.in_test {
            for pat in R1_PATTERNS {
                let bare = pat.trim_end_matches('!');
                if let Some(pos) = find_word(&info.masked, bare) {
                    // `unwrap`/`expect` count only as method calls
                    // (`.unwrap(`); macros only with their bang.
                    let rest = &info.masked[pos + bare.len()..];
                    let is_macro = pat.ends_with('!');
                    let matched = if is_macro {
                        rest.starts_with('!')
                    } else {
                        rest.starts_with('(') && info.masked[..pos].ends_with('.')
                    };
                    if matched {
                        hits.push((RuleId::R1, pat.to_string()));
                    }
                }
            }
        }
        if control_plane && !info.in_test {
            // R3: a named-underscore discard (`let _event = ...`) of a
            // watch-event-bearing expression...
            if let Some(pos) = info.masked.find("let _") {
                let rest = &info.masked[pos + "let _".len()..];
                let named = rest
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
                if named {
                    if let Some(eq) = rest.find('=') {
                        let rhs = &rest[eq..];
                        if let Some(pat) = R3_SOURCES.iter().find(|p| rhs.contains(**p)) {
                            hits.push((RuleId::R3, (*pat).to_string()));
                        }
                    }
                }
            }
            // ...or a bare statement that drops the returned events on
            // the floor.
            let t = info.masked.trim();
            if !t.contains("let ")
                && !t.contains('=')
                && t.ends_with(';')
                && (t.contains(".expire_session(") || t.contains(".handle_event("))
            {
                hits.push((RuleId::R3, "discarded watch events".to_string()));
            }
        }
        if !class.test_target && !info.in_test {
            // `let _ =` anywhere in the line, but not `let _name =`.
            if let Some(pos) = info.masked.find("let _") {
                let boundary = info.masked[..pos]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                let rest = info.masked[pos + "let _".len()..].trim_start();
                if boundary && rest.starts_with('=') && !rest.starts_with("==") {
                    hits.push((RuleId::R2, "let _ =".to_string()));
                }
            }
        }

        if hits.is_empty() {
            continue;
        }

        // Waivers: same line, or a whole-line waiver comment directly
        // above.
        let active: Vec<(RuleId, String)> = waivers_governing(lines, idx);
        for (rule, pattern) in hits {
            let waiver = active
                .iter()
                .find(|(r, _)| *r == rule)
                .map(|(_, j)| j.clone());
            out.push(Violation {
                rule,
                file: rel_path.to_string(),
                line: lineno,
                pattern,
                waiver,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::analyze;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &analyze(src))
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/sm-core/src/api.rs").crate_name, "sm-core");
        assert_eq!(classify("src/lib.rs").crate_name, "shard-manager");
        assert_eq!(classify("tests/end_to_end.rs").crate_name, "tests");
        assert!(classify("tests/end_to_end.rs").test_target);
        assert!(classify("crates/sm-bench/benches/solver.rs").test_target);
        assert!(!classify("crates/sm-core/src/api.rs").test_target);
    }

    #[test]
    fn d1_flags_wall_clock_outside_bench() {
        let v = lint("crates/sm-sim/src/time.rs", "let t = Instant::now();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::D1);
        let v = lint("crates/sm-bench/src/lib.rs", "let t = Instant::now();\n");
        assert!(v.is_empty(), "sm-bench is exempt");
    }

    #[test]
    fn d1_flags_environment_reads_outside_bench() {
        for read in [
            "std::env::var(\"SM_DEBUG_MAP\")",
            "env::vars()",
            "env::var_os(K)",
        ] {
            let v = lint(
                "crates/sm-apps/src/harness.rs",
                &format!("if {read}.is_ok() {{}}\n"),
            );
            assert_eq!(v.len(), 1, "{read}: {v:?}");
            assert_eq!(v[0].rule, RuleId::D1);
        }
        let scale = "match std::env::var(\"SM_SCALE\").as_deref() {}\n";
        assert!(lint("crates/sm-bench/src/lib.rs", scale).is_empty());
        // Build-time `env!` and the argument list are not the environment.
        let ok = "let r = env!(\"CARGO_MANIFEST_DIR\"); let a = std::env::args();\n";
        assert!(lint("crates/sm-apps/src/kit.rs", ok).is_empty());
    }

    #[test]
    fn d2_flags_ambient_rng_everywhere() {
        let v = lint("crates/sm-apps/src/kv.rs", "let r = thread_rng();\n");
        assert_eq!(v[0].rule, RuleId::D2);
        let v = lint("tests/foo.rs", "let x: u8 = rand::random();\n");
        assert_eq!(v[0].rule, RuleId::D2);
    }

    #[test]
    fn d2_threaded_module_requires_seed_from() {
        // `SimRng::seeded` inside a module that spawns threads is an
        // ad-hoc worker derivation: flagged.
        let src = "use std::thread;\n\
                   fn run(seed: u64, i: u64) { let rng = SimRng::seeded(seed + i); }\n";
        let v = lint("crates/sm-solver/src/parallel.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D2);
        assert_eq!(v[0].line, 2);

        // The sanctioned derivation passes.
        let ok = "use std::thread;\n\
                  fn run(seed: u64, i: u64) { let rng = SimRng::seed_from(seed, i); }\n";
        assert!(lint("crates/sm-solver/src/parallel.rs", ok).is_empty());

        // Without thread usage, `SimRng::seeded` stays legal.
        let single = "fn run(seed: u64) { let rng = SimRng::seeded(seed); }\n";
        assert!(lint("crates/sm-solver/src/search.rs", single).is_empty());
    }

    #[test]
    fn d2_thread_marker_in_comment_does_not_count() {
        let src = "// std::thread is used elsewhere\n\
                   fn run(seed: u64) { let rng = SimRng::seeded(seed); }\n";
        assert!(lint("crates/sm-solver/src/search.rs", src).is_empty());
    }

    #[test]
    fn d3_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("crates/sm-core/src/api.rs", src).len(), 1);
        assert!(lint("crates/sm-apps/src/kv.rs", src).is_empty());
        assert!(lint("crates/sm-routing/src/router.rs", src).is_empty());
    }

    #[test]
    fn d4_flags_literal_simnet_seed_in_test_code() {
        // Integration-test target: literal seed flagged.
        let v = lint(
            "tests/dst.rs",
            "fn t() { let net = SimNet::new(LatencyModel::uniform(1, 10.0, 10.0), 42); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D4);

        // #[cfg(test)] module in a library: also flagged.
        let v = lint(
            "crates/sm-sim/src/net.rs",
            "#[cfg(test)]\nmod tests {\n  fn t() { let n = SimNet::new(model(), 7); }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D4);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn d4_accepts_harness_provided_seeds() {
        // A seed that flows in through a variable or config is the
        // sanctioned shape.
        let ok = "fn t() { let seed = harness_seed(); let n = SimNet::new(model(), seed); }\n";
        assert!(lint("tests/dst.rs", ok).is_empty());
        let cfg = "fn t(cfg: &Config) { let n = SimNet::new(model(), cfg.seed); }\n";
        assert!(lint("tests/dst.rs", cfg).is_empty());
    }

    #[test]
    fn d4_ignores_non_test_code_and_spans_lines() {
        // Production code may embed defaults; D4 is about tests hiding
        // the replay seed.
        let prod = "fn bench() { let n = SimNet::new(model(), 42); }\n";
        assert!(lint("crates/sm-apps/src/chaos.rs", prod).is_empty());

        // A multi-line call with a literal seed is still caught.
        let multi = "fn t() {\n  let n = SimNet::new(\n    LatencyModel::uniform(1, 5.0, 9.0),\n    1234,\n  );\n}\n";
        let v = lint("tests/dst.rs", multi);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D4);
        assert_eq!(v[0].line, 2, "anchored at the constructor line");
    }

    #[test]
    fn r1_scope_and_test_exemption() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        let v = lint("crates/sm-zk/src/store.rs", src);
        assert_eq!(v.len(), 1, "only the non-test unwrap: {v:?}");
        assert_eq!(v[0].line, 1);
        // Not a control-plane crate: no R1 at all.
        assert!(lint("crates/sm-solver/src/search.rs", src).is_empty());
    }

    #[test]
    fn r1_does_not_flag_unwrap_or() {
        let v = lint(
            "crates/sm-core/src/api.rs",
            "fn f() { x.unwrap_or(1); y.unwrap_or_default(); z.expect_err(\"e\"); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_flags_panic_macros() {
        let v = lint(
            "crates/sm-cluster/src/ops.rs",
            "fn f() { panic!(\"boom\"); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pattern, "panic!");
    }

    #[test]
    fn r2_flags_let_underscore() {
        let v = lint("crates/sm-apps/src/kv.rs", "fn f() { let _ = send(); }\n");
        assert_eq!(v[0].rule, RuleId::R2);
        let v = lint(
            "crates/sm-apps/src/kv.rs",
            "fn f() { let _ack = send(); }\n",
        );
        assert!(v.is_empty(), "named discards are fine");
    }

    #[test]
    fn r3_flags_named_discard_of_watch_events() {
        let v = lint(
            "crates/sm-core/src/ha.rs",
            "fn f(zk: &mut ZkStore) { let _events = zk.expire_session(s); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::R3);
        // Binding and delivering the events is the intended shape.
        let ok = lint(
            "crates/sm-core/src/ha.rs",
            "fn f(zk: &mut ZkStore) { let events = zk.expire_session(s); deliver(events); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn r3_flags_bare_statement_discard() {
        let v = lint(
            "crates/sm-zk/src/lib.rs",
            "fn f(zk: &mut ZkStore) {\n    zk.expire_session(s);\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::R3);
        assert_eq!(v[0].pattern, "discarded watch events");
    }

    #[test]
    fn r3_scope_is_control_plane_non_test_only() {
        let src = "fn f(zk: &mut ZkStore) { let _events = zk.expire_session(s); }\n";
        assert!(lint("crates/sm-apps/src/chaos.rs", src).is_empty());
        assert!(lint("tests/chaos.rs", src).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n  fn t(zk: &mut ZkStore) { zk.expire_session(s); }\n}\n";
        assert!(lint("crates/sm-zk/src/store.rs", in_test).is_empty());
    }

    #[test]
    fn r3_waiver_is_recorded() {
        let v = lint(
            "crates/sm-core/src/ha.rs",
            "fn f() { let _event = zk.expire_session(s); } \
             // sm-lint: allow(R3) — fencing test: events intentionally withheld\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::R3);
        assert!(v[0].waiver.is_some());
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let v = lint(
            "crates/sm-core/src/api.rs",
            "// Instant::now is banned; so is unwrap()\nlet s = \"panic!\";\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn same_line_waiver_is_recorded() {
        let v = lint(
            "crates/sm-zk/src/store.rs",
            "fn f() { x.unwrap(); } // sm-lint: allow(R1) — invariant: checked above\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].waiver.as_deref(), Some("invariant: checked above"));
    }

    #[test]
    fn previous_line_waiver_applies() {
        let v = lint(
            "crates/sm-zk/src/store.rs",
            "// sm-lint: allow(R1) — parent existence checked above\nfn f() { x.unwrap(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].waiver.is_some());
    }

    #[test]
    fn waiver_for_other_rule_does_not_apply() {
        let v = lint(
            "crates/sm-zk/src/store.rs",
            "fn f() { x.unwrap(); } // sm-lint: allow(D3) — wrong rule\n",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].waiver.is_none());
    }

    #[test]
    fn waiver_parsing_multiple_rules() {
        let ws = waivers_on("// sm-lint: allow(D1, R1) — measuring real time here");
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].0, RuleId::D1);
        assert_eq!(ws[1].0, RuleId::R1);
        assert_eq!(ws[0].1, "measuring real time here");
    }
}
