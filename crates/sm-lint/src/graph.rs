//! Workspace call-graph extraction from token streams.
//!
//! One linear pass over each file's tokens (see [`crate::lex`]) finds
//! every `fn` item — its name, enclosing `impl` type, crate, pub-ness,
//! and test-ness — and records per-function **facts** the cross-file
//! rules in [`crate::callrules`] consume:
//!
//! - ordered body events: workspace calls and lock acquisitions
//!   (`.lock()` / `.read()` / `.write()` with a named receiver),
//! - direct panic sites (`panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `.unwrap()`, `.expect()`, `[]` indexing),
//! - direct wall-clock / entropy reads (`Instant::now`,
//!   `SystemTime::now`, `thread_rng`, `from_entropy`, `OsRng`,
//!   `getrandom`).
//!
//! A fact on a line waived for the matching rule is *suppressed* at
//! extraction time (and the waiver recorded as used, for W1): an
//! `// sm-lint: allow(R1) — invariant` unwrap does not poison every
//! caller.
//!
//! Call edges are resolved **by name**, not by type inference:
//!
//! - `Type::func(..)` resolves inside `impl Type` blocks when `Type`
//!   is a workspace impl type; unknown capitalized qualifiers (std
//!   types) resolve to nothing;
//! - `module::func(..)` (lowercase qualifier) and bare `func(..)`
//!   resolve to every workspace fn with that name (free fns first);
//! - `self.method(..)` prefers the enclosing impl's method;
//! - `recv.method(..)` resolves to every workspace fn named `method`.
//!
//! Known false negatives (documented, accepted): calls through
//! function pointers / closures / trait objects, macro-generated
//! bodies, and methods on external types that shadow a workspace name
//! resolved to nothing. Known over-approximation: a method name shared
//! with std (`get`, `insert`, ...) links every receiver to every
//! workspace fn of that name — the ratchet baseline absorbs the noise
//! and the chain in the report makes false edges easy to spot.

use crate::lex::{lex, Tok, TokKind};
use crate::rules::{classify, waivers_governing, RuleId};
use crate::scan::LineInfo;
use std::collections::{BTreeMap, BTreeSet};

/// A direct panic site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    /// What panics / reads the clock (`.unwrap()`, `[]`, `Instant::now`).
    pub pattern: String,
    /// 1-based line of the site.
    pub line: usize,
}

/// One ordered body event relevant to the cross-file rules.
#[derive(Debug, Clone)]
pub enum Event {
    /// Acquisition of a named lock (`self.state.lock()` → `state`).
    Lock {
        /// Receiver identifier naming the lock field/binding.
        lock: String,
        /// 1-based line of the acquisition.
        line: usize,
    },
    /// A call that may resolve to workspace functions.
    Call(CallRef),
}

/// An unresolved call site.
#[derive(Debug, Clone)]
pub(crate) struct CallRef {
    /// Called identifier (`place_shard`, `new`).
    pub callee: String,
    /// Path qualifier directly before `::`, when present.
    pub qualifier: Option<String>,
    /// True for `.callee(..)` method syntax.
    pub method: bool,
    /// True when the method receiver is literally `self`.
    pub receiver_self: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// One `fn` item in the workspace.
#[derive(Debug, Clone)]
pub(crate) struct FnNode {
    /// Function name (unqualified).
    pub name: String,
    /// Enclosing `impl` type, when inside one.
    pub impl_type: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Crate class of the file (`sm-core`, `tests`, ...).
    pub crate_name: String,
    /// Declared with `pub` (incl. `pub(crate)`).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region / `#[test]` fn, or in a test
    /// target (`tests/`, `benches/`).
    pub is_test: bool,
    /// Marked `// sm-lint: hot-path` (on the `fn` line or a comment
    /// line above it) — a root for rule R4's lock-freedom check.
    pub hot_path: bool,
    /// Ordered calls and lock acquisitions.
    pub events: Vec<Event>,
    /// Names bound to closures in the body (`let f = |..|`). A bare
    /// call to one is the closure, not a same-named workspace fn —
    /// and the closure body's own facts are already scanned inline.
    pub local_closures: BTreeSet<String>,
    /// Unwaived direct panic sites.
    pub panic_sites: Vec<Site>,
    /// Unwaived direct wall-clock / entropy reads.
    pub clock_sites: Vec<Site>,
}

impl FnNode {
    /// `Type::name` when inside an impl, else `name`.
    pub(crate) fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }

    /// Lock names acquired anywhere in the body, in order.
    pub(crate) fn locks(&self) -> Vec<(&str, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Lock { lock, line } => Some((lock.as_str(), *line)),
                Event::Call(_) => None,
            })
            .collect()
    }
}

/// The extracted workspace call graph.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    /// Every fn item, in file order.
    pub fns: Vec<FnNode>,
    /// name → fn indices (all).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// name → fn indices with no impl type (free fns).
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, name) → fn indices.
    pub by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// Impl type names seen anywhere (to tell workspace types from
    /// std types in `Type::func` calls).
    pub impl_types: BTreeSet<String>,
    /// `(file, governed line, rule)` of waivers consumed by
    /// suppressing a fact at extraction time — input to the W1 audit.
    pub used_fact_waivers: BTreeSet<(String, usize, RuleId)>,
}

/// Identifiers that look like calls but are control flow / bindings.
const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "pub", "use", "impl", "where", "unsafe", "async", "await",
    "dyn", "box", "const", "static", "crate",
];

/// Macro names that constitute a direct panic site.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Ambient-entropy identifiers (shared with rule D2's line pass).
const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

impl Graph {
    /// Builds the graph from every scanned file's lines.
    pub fn build(files: &[(String, Vec<LineInfo>)]) -> Graph {
        let mut g = Graph::default();
        for (rel, lines) in files {
            extract_file(&mut g, rel, lines);
        }
        for (i, f) in g.fns.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
            match &f.impl_type {
                Some(t) => {
                    g.by_impl
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    g.impl_types.insert(t.clone());
                }
                None => g.free_by_name.entry(f.name.clone()).or_default().push(i),
            }
        }
        g
    }

    /// Method candidates for `.name(..)` on an unknown receiver: only
    /// impl methods (never free fns — `s.parse()` must not resolve to
    /// a free `parse`), and only when exactly one workspace type
    /// defines the name. Common std-shadowing names (`get`, `insert`,
    /// `write`, ...) are defined on several workspace types and thus
    /// ambiguous, so they produce no edge — a documented false
    /// negative that buys precision.
    fn method_candidates(&self, name: &str) -> Vec<usize> {
        let cands: Vec<usize> = self
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.is_some())
                    .collect()
            })
            .unwrap_or_default();
        let types: BTreeSet<&String> = cands
            .iter()
            .filter_map(|&i| self.fns[i].impl_type.as_ref())
            .collect();
        if types.len() == 1 {
            cands
        } else {
            Vec::new()
        }
    }

    /// Resolves a call site to candidate fn indices. Callers that are
    /// not test code never resolve into test fns.
    pub fn resolve(&self, call: &CallRef, caller: &FnNode) -> Vec<usize> {
        let name = call.callee.as_str();
        let mut out: Vec<usize> = if call.method {
            if call.receiver_self {
                // `self.m(..)`: the enclosing impl's method when it
                // exists, else an unambiguous same-named method (trait
                // impls for the same logical type live in separate
                // blocks).
                match caller
                    .impl_type
                    .as_ref()
                    .and_then(|t| self.by_impl.get(&(t.clone(), name.to_string())))
                {
                    Some(v) => v.clone(),
                    None => self.method_candidates(name),
                }
            } else {
                self.method_candidates(name)
            }
        } else if let Some(q) = &call.qualifier {
            if q == "Self" {
                match caller
                    .impl_type
                    .as_ref()
                    .and_then(|t| self.by_impl.get(&(t.clone(), name.to_string())))
                {
                    Some(v) => v.clone(),
                    None => self.method_candidates(name),
                }
            } else if self.impl_types.contains(q) {
                // Known workspace type: resolve inside its impls only.
                self.by_impl
                    .get(&(q.clone(), name.to_string()))
                    .cloned()
                    .unwrap_or_default()
            } else if q.chars().next().is_some_and(|c| c.is_uppercase()) {
                // External type (Vec::new, BTreeMap::from, ...): no
                // workspace edge.
                Vec::new()
            } else {
                // Module path: free fns by name.
                self.free_by_name.get(name).cloned().unwrap_or_default()
            }
        } else if caller.local_closures.contains(name) {
            // Shadowed by a local closure; its body was scanned inline.
            Vec::new()
        } else {
            // Bare call: free fns first; fall back to an unambiguous
            // method (nested fns inside impl blocks carry the impl
            // type).
            match self.free_by_name.get(name) {
                Some(v) => v.clone(),
                None => self.method_candidates(name),
            }
        };
        if !caller.is_test {
            out.retain(|&i| !self.fns[i].is_test);
        }
        out
    }

    /// Deduplicated resolved callee indices of `f`, in event order.
    pub(crate) fn callees(&self, f: &FnNode) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for e in &f.events {
            if let Event::Call(c) = e {
                for idx in self.resolve(c, f) {
                    if seen.insert(idx) {
                        out.push(idx);
                    }
                }
            }
        }
        out
    }

    /// Total resolved call edges (for report stats).
    pub(crate) fn edge_count(&self) -> usize {
        self.fns.iter().map(|f| self.callees(f).len()).sum()
    }
}

/// What a just-seen `fn` item is waiting for (`{` body or `;` decl).
struct PendingFn {
    name: String,
    line: usize,
    is_pub: bool,
    paren_depth: i32,
}

enum Scope {
    Fn(usize),
    Impl(Option<String>),
    Other,
}

fn extract_file(g: &mut Graph, rel: &str, lines: &[LineInfo]) {
    let class = classify(rel);
    let masked: String = {
        // Rejoin the per-line masked text; token lines stay correct.
        let mut s = String::with_capacity(lines.iter().map(|l| l.masked.len() + 1).sum());
        for l in lines {
            s.push_str(&l.masked);
            s.push('\n');
        }
        s
    };
    let toks = lex(&masked);

    let mut depth: i32 = 0;
    let mut scopes: Vec<(Scope, i32)> = Vec::new();
    let mut pending: Option<PendingFn> = None;
    let mut i = 0usize;

    let in_test_line = |line: usize| -> bool {
        class.test_target || lines.get(line.saturating_sub(1)).is_some_and(|l| l.in_test)
    };

    while i < toks.len() {
        let t = &toks[i];

        // ---- pending fn header: wait for the body `{` or a `;` ----
        if let Some(p) = &mut pending {
            match t.kind {
                TokKind::Punct('(') => p.paren_depth += 1,
                TokKind::Punct(')') => p.paren_depth -= 1,
                TokKind::Punct('{') if p.paren_depth == 0 => {
                    let p = pending.take().expect("pending checked above");
                    let impl_type = scopes.iter().rev().find_map(|(s, _)| match s {
                        Scope::Impl(t) => Some(t.clone()),
                        _ => None,
                    });
                    g.fns.push(FnNode {
                        name: p.name,
                        impl_type: impl_type.flatten(),
                        file: rel.to_string(),
                        line: p.line,
                        crate_name: class.crate_name.clone(),
                        is_pub: p.is_pub,
                        is_test: in_test_line(p.line),
                        hot_path: hot_path_marked(lines, p.line),
                        events: Vec::new(),
                        local_closures: BTreeSet::new(),
                        panic_sites: Vec::new(),
                        clock_sites: Vec::new(),
                    });
                    scopes.push((Scope::Fn(g.fns.len() - 1), depth));
                    depth += 1;
                    i += 1;
                    continue;
                }
                TokKind::Punct(';') if p.paren_depth == 0 => {
                    pending = None;
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(PendingFn {
                        name: name_tok.text.clone(),
                        line: t.line,
                        is_pub: lookback_is_pub(&toks, i),
                        paren_depth: 0,
                    });
                    i += 2;
                } else {
                    // `fn(..)` pointer type — not an item.
                    i += 1;
                }
                continue;
            }
            TokKind::Ident if t.text == "impl" => {
                // Parse the impl header up to its `{`; the impl type
                // is the last path segment of the `for`-target (or the
                // self type when there is no `for`).
                let (ty, brace_idx) = parse_impl_header(&toks, i + 1);
                match brace_idx {
                    Some(b) => {
                        scopes.push((Scope::Impl(ty), depth));
                        depth += 1;
                        i = b + 1;
                    }
                    None => i += 1,
                }
                continue;
            }
            TokKind::Punct('{') => {
                scopes.push((Scope::Other, depth));
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if let Some((_, open)) = scopes.last() {
                    if *open == depth {
                        scopes.pop();
                    }
                }
            }
            _ => {
                let current_fn = scopes.iter().rev().find_map(|(s, _)| match s {
                    Scope::Fn(idx) => Some(*idx),
                    _ => None,
                });
                if let Some(fi) = current_fn {
                    // `let [mut] name = [move] |` — a closure binding.
                    if t.is_ident("let") {
                        let mut j = i + 1;
                        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                            j += 1;
                        }
                        let named = toks.get(j).filter(|t| t.kind == TokKind::Ident);
                        if let Some(name) = named {
                            let mut k = j + 1;
                            if toks.get(k).is_some_and(|t| t.is_punct('=')) {
                                k += 1;
                                if toks.get(k).is_some_and(|t| t.is_ident("move")) {
                                    k += 1;
                                }
                                if toks.get(k).is_some_and(|t| t.is_punct('|')) {
                                    g.fns[fi].local_closures.insert(name.text.clone());
                                }
                            }
                        }
                    }
                    extract_event(g, fi, rel, lines, &toks, i);
                }
            }
        }
        i += 1;
    }
}

/// Is the fn whose header starts on 1-based `line` marked
/// `// sm-lint: hot-path`? The marker may trail the header line itself
/// or sit on a comment line above it — doc comments and `#[..]`
/// attribute lines between the marker and the header are skipped, so
/// the natural `/// docs` → `// sm-lint: hot-path` → `#[inline]` →
/// `pub fn` stack works in any order. The walk stops at the first
/// blank or code line, so a marker never leaks across items.
fn hot_path_marked(lines: &[LineInfo], line: usize) -> bool {
    const MARKER: &str = "sm-lint: hot-path";
    let idx = line.saturating_sub(1);
    if lines.get(idx).is_some_and(|l| l.comment.contains(MARKER)) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let Some(l) = lines.get(j) else { break };
        let code = l.masked.trim();
        let attribute = code.starts_with('#');
        let comment_only = code.is_empty() && !l.raw.trim().is_empty();
        if !attribute && !comment_only {
            // Blank line or real code: the marker (like a waiver
            // trailing a code line) governs that line, not this fn.
            break;
        }
        if l.comment.contains(MARKER) {
            return true;
        }
    }
    false
}

/// Was the `fn` at token `at` declared `pub` (incl. `pub(crate)`)?
fn lookback_is_pub(toks: &[Tok], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Ident => match toks[j].text.as_str() {
                "pub" => return true,
                "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "self" | "in" => {}
                _ => return false,
            },
            TokKind::Punct('(') | TokKind::Punct(')') => {}
            _ => return false,
        }
    }
    false
}

/// Parses an `impl` header starting after the `impl` token. Returns
/// the impl type name (last path segment, `for`-target preferred) and
/// the index of the opening `{`.
fn parse_impl_header(toks: &[Tok], mut j: usize) -> (Option<String>, Option<usize>) {
    let mut angle: i32 = 0;
    let mut ty: Option<String> = None;
    let mut after_for = false;
    let mut last_ident_at_top: Option<String> = None;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                // `->` inside generic bounds must not close an angle.
                let arrow = j > 0 && toks[j - 1].kind == TokKind::Punct('-');
                if !arrow {
                    angle -= 1;
                }
            }
            TokKind::Punct('{') if angle <= 0 => {
                let chosen = if after_for {
                    ty.take()
                } else {
                    ty.take().or(last_ident_at_top)
                };
                return (chosen, Some(j));
            }
            TokKind::Punct(';') if angle <= 0 => return (None, None),
            TokKind::Ident if angle <= 0 => {
                if toks[j].text == "for" {
                    after_for = true;
                    ty = None;
                    last_ident_at_top = None;
                } else if toks[j].text != "where"
                    && toks[j].text != "dyn"
                    && toks[j].text != "mut"
                    && toks[j].text != "unsafe"
                {
                    // Track the last path segment: `a::b::Type` keeps
                    // replacing until generics/`{`.
                    last_ident_at_top = Some(toks[j].text.clone());
                    if ty.is_none() || is_path_continuation(toks, j) {
                        ty = Some(toks[j].text.clone());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, None)
}

/// True when the ident at `j` is preceded by `::` (a path segment that
/// should replace the previously seen segment).
fn is_path_continuation(toks: &[Tok], j: usize) -> bool {
    j >= 2 && toks[j - 1].kind == TokKind::Punct(':') && toks[j - 2].kind == TokKind::Punct(':')
}

/// Examines the token at `i` for body facts, recording into fn `fi`.
fn extract_event(g: &mut Graph, fi: usize, rel: &str, lines: &[LineInfo], toks: &[Tok], i: usize) {
    let t = &toks[i];
    let next = toks.get(i + 1);
    let prev = i.checked_sub(1).and_then(|j| toks.get(j));
    match t.kind {
        TokKind::Ident => {
            let name = t.text.as_str();
            if KEYWORDS.contains(&name) {
                return;
            }
            // Entropy idents are clock-class facts wherever they
            // appear (call or not).
            if ENTROPY_IDENTS.contains(&name) {
                add_clock_site(g, fi, rel, lines, name, t.line, RuleId::D2);
                return;
            }
            let next_is = |c: char| next.is_some_and(|n| n.is_punct(c));
            if next_is('!') {
                // Macro invocation `name!(..)` / `name![..]` / `name!{..}`
                // — `a != b` has `=` after the bang instead.
                let open = toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'));
                if open && PANIC_MACROS.contains(&name) {
                    add_panic_site(g, fi, rel, lines, &format!("{name}!"), t.line);
                }
                return;
            }
            if !next_is('(') {
                // `Instant::now` detection rides on the `now` ident
                // even without a call paren (e.g. passed as a fn).
                if name == "now" && is_path_continuation(toks, i) {
                    if let Some(q) = toks.get(i.wrapping_sub(3)) {
                        if q.is_ident("Instant") || q.is_ident("SystemTime") {
                            add_clock_site(
                                g,
                                fi,
                                rel,
                                lines,
                                &format!("{}::now", q.text),
                                t.line,
                                RuleId::D1,
                            );
                        }
                    }
                }
                return;
            }
            // `name(` — a call, a panic method, or a lock acquisition.
            let is_method = prev.is_some_and(|p| p.is_punct('.'));
            if is_method && (name == "unwrap" || name == "expect") {
                add_panic_site(g, fi, rel, lines, &format!(".{name}()"), t.line);
                return;
            }
            if name == "now" && is_path_continuation(toks, i) {
                if let Some(q) = toks.get(i.wrapping_sub(3)) {
                    if q.is_ident("Instant") || q.is_ident("SystemTime") {
                        add_clock_site(
                            g,
                            fi,
                            rel,
                            lines,
                            &format!("{}::now", q.text),
                            t.line,
                            RuleId::D1,
                        );
                        return;
                    }
                }
            }
            if is_method
                && (name == "lock" || name == "read" || name == "write")
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
            {
                // Zero-arg `.lock()` / `.read()` / `.write()`: a lock
                // acquisition when the receiver is a plain ident
                // (`self.state.lock()` → `state`). `file.write(buf)`
                // has args and stays a plain call.
                if let Some(recv) = i.checked_sub(2).and_then(|j| toks.get(j)) {
                    if recv.kind == TokKind::Ident && recv.text != "self" {
                        g.fns[fi].events.push(Event::Lock {
                            lock: recv.text.clone(),
                            line: t.line,
                        });
                        return;
                    }
                }
            }
            let receiver_self = is_method
                && i.checked_sub(2)
                    .and_then(|j| toks.get(j))
                    .is_some_and(|r| r.is_ident("self"));
            let qualifier = if !is_method && is_path_continuation(toks, i) {
                i.checked_sub(3)
                    .and_then(|j| toks.get(j))
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.clone())
            } else {
                None
            };
            g.fns[fi].events.push(Event::Call(CallRef {
                callee: name.to_string(),
                qualifier,
                method: is_method,
                receiver_self,
                line: t.line,
            }));
        }
        TokKind::Punct('[') => {
            // Indexing `expr[..]`: previous token is an ident, `)` or
            // `]`. Attributes (`#[..]`), macros (`vec![..]`), array
            // literals/types (`= [..]`, `: [u8; 4]`) all fail that
            // test.
            let indexish = prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            if indexish {
                add_panic_site(g, fi, rel, lines, "[]", t.line);
            }
        }
        _ => {}
    }
}

/// Records a panic site unless the line waives P1 (or R1 — a justified
/// non-panicking unwrap must not poison every caller).
fn add_panic_site(
    g: &mut Graph,
    fi: usize,
    rel: &str,
    lines: &[LineInfo],
    pattern: &str,
    line: usize,
) {
    for (rule, _) in waivers_governing(lines, line.saturating_sub(1)) {
        if rule == RuleId::P1 || rule == RuleId::R1 {
            g.used_fact_waivers.insert((rel.to_string(), line, rule));
            return;
        }
    }
    // A waiver on the fn header governs every fact in the body — the
    // ergonomic form for fns whose safety argument is structural
    // (fixed-size arrays, index-from-position).
    let header = g.fns[fi].line;
    for (rule, _) in waivers_governing(lines, header.saturating_sub(1)) {
        if rule == RuleId::P1 || rule == RuleId::R1 {
            g.used_fact_waivers.insert((rel.to_string(), header, rule));
            return;
        }
    }
    g.fns[fi].panic_sites.push(Site {
        pattern: pattern.to_string(),
        line,
    });
}

/// Records a wall-clock / entropy site unless the line waives D5 (or
/// the matching direct rule: D1 for clocks, D2 for entropy).
fn add_clock_site(
    g: &mut Graph,
    fi: usize,
    rel: &str,
    lines: &[LineInfo],
    pattern: &str,
    line: usize,
    direct_rule: RuleId,
) {
    for (rule, _) in waivers_governing(lines, line.saturating_sub(1)) {
        if rule == RuleId::D5 || rule == direct_rule {
            g.used_fact_waivers.insert((rel.to_string(), line, rule));
            return;
        }
    }
    let header = g.fns[fi].line;
    for (rule, _) in waivers_governing(lines, header.saturating_sub(1)) {
        if rule == RuleId::D5 || rule == direct_rule {
            g.used_fact_waivers.insert((rel.to_string(), header, rule));
            return;
        }
    }
    // Dedup: `Instant::now` trips both the bare-path and call checks.
    let sites = &mut g.fns[fi].clock_sites;
    if sites
        .last()
        .is_some_and(|s| s.line == line && s.pattern == pattern)
    {
        return;
    }
    sites.push(Site {
        pattern: pattern.to_string(),
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::analyze;

    fn build_one(path: &str, src: &str) -> Graph {
        Graph::build(&[(path.to_string(), analyze(src))])
    }

    #[test]
    fn finds_fns_impls_and_pubness() {
        let src = "\
pub fn free() {}
struct S;
impl S {
    pub(crate) fn method(&self) {}
    fn private(&self) {}
}
impl Display for S {
    fn fmt(&self) {}
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let names: Vec<(String, Option<String>, bool)> = g
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, true),
                ("method".into(), Some("S".into()), true),
                ("private".into(), Some("S".into()), false),
                ("fmt".into(), Some("S".into()), false),
            ]
        );
        assert!(g.impl_types.contains("S"));
    }

    #[test]
    fn trait_decls_without_body_are_skipped() {
        let src =
            "trait T { fn sig(&self); fn with_default(&self) { helper(); } }\nfn helper() {}\n";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let names: Vec<&str> = g.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default", "helper"]);
    }

    #[test]
    fn records_panic_sites_and_calls() {
        let src = "\
fn a(x: Option<u32>, v: &[u32]) -> u32 {
    helper();
    x.unwrap() + v[0]
}
fn b() { panic!(\"boom\"); }
fn helper() {}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let a = &g.fns[0];
        assert_eq!(a.panic_sites.len(), 2, "{:?}", a.panic_sites);
        assert_eq!(a.panic_sites[0].pattern, ".unwrap()");
        assert_eq!(a.panic_sites[1].pattern, "[]");
        let callees = g.callees(a);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.fns[callees[0]].name, "helper");
        assert_eq!(g.fns[1].panic_sites[0].pattern, "panic!");
    }

    #[test]
    fn not_equals_is_not_a_macro() {
        let g = build_one(
            "crates/sm-core/src/x.rs",
            "fn f(a: u32, b: u32) -> bool { a != b }\n",
        );
        assert!(g.fns[0].panic_sites.is_empty());
    }

    #[test]
    fn attribute_and_literal_brackets_are_not_indexing() {
        let src = "\
fn f() {
    #[allow(dead_code)]
    let a: [u8; 2] = [1, 2];
    let v = vec![3];
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        assert!(
            g.fns[0].panic_sites.is_empty(),
            "{:?}",
            g.fns[0].panic_sites
        );
    }

    #[test]
    fn indexing_after_call_or_index_counts() {
        let g = build_one(
            "crates/sm-core/src/x.rs",
            "fn f(m: M) -> u32 { m.rows()[0] + m.grid[1][2] }\n",
        );
        assert_eq!(g.fns[0].panic_sites.len(), 3, "{:?}", g.fns[0].panic_sites);
    }

    #[test]
    fn waived_sites_are_suppressed_and_recorded() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // sm-lint: allow(P1) — checked by caller
    x.unwrap()
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        assert!(g.fns[0].panic_sites.is_empty());
        assert!(g.used_fact_waivers.contains(&(
            "crates/sm-core/src/x.rs".to_string(),
            3,
            RuleId::P1
        )));
    }

    #[test]
    fn lock_events_record_receiver() {
        let src = "\
fn f(&self) {
    let a = self.alpha.lock();
    let b = self.beta.write();
    self.file.write(b);
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let locks: Vec<(&str, usize)> = g.fns[0].locks();
        assert_eq!(locks, vec![("alpha", 2), ("beta", 3)]);
    }

    #[test]
    fn clock_sites_detected() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        let g = build_one("crates/sm-bench/src/x.rs", src);
        let pats: Vec<&str> = g.fns[0]
            .clock_sites
            .iter()
            .map(|s| s.pattern.as_str())
            .collect();
        assert_eq!(pats, vec!["Instant::now", "thread_rng"]);
    }

    #[test]
    fn resolution_prefers_impl_methods_and_skips_std_types() {
        let src = "\
struct R;
impl R {
    pub fn get(&self) -> u32 { self.inner() }
    fn inner(&self) -> u32 { 1 }
}
fn caller(r: R) {
    let v = Vec::new();
    let x = R::get(&r);
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let get = &g.fns[0];
        let callees = g.callees(get);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.fns[callees[0]].name, "inner");
        let caller = g.fns.iter().find(|f| f.name == "caller").expect("caller");
        let callees: Vec<&str> = g
            .callees(caller)
            .iter()
            .map(|&i| g.fns[i].name.as_str())
            .collect();
        assert_eq!(callees, vec!["get"], "Vec::new resolves to nothing");
    }

    #[test]
    fn prod_code_never_resolves_into_test_fns() {
        let src = "\
fn live() { shared(); }
#[cfg(test)]
mod tests {
    fn shared() { boom.unwrap(); }
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let live = &g.fns[0];
        assert!(g.callees(live).is_empty(), "test fn must not be a callee");
    }

    #[test]
    fn cross_file_resolution_by_name() {
        let a = "pub fn entry() { helper(); }\n";
        let b = "pub fn helper() { x.unwrap(); }\n";
        let g = Graph::build(&[
            ("crates/sm-core/src/a.rs".to_string(), analyze(a)),
            ("crates/sm-zk/src/b.rs".to_string(), analyze(b)),
        ]);
        let entry = &g.fns[0];
        let callees = g.callees(entry);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.fns[callees[0]].file, "crates/sm-zk/src/b.rs");
    }

    #[test]
    fn local_closure_shadows_free_fn() {
        let a = "\
pub fn entry() {
    let parse = |s: &str| s.len();
    parse(\"x\");
}
";
        let b = "pub fn parse(s: &str) -> usize { s[0..1].len() }\n";
        let g = Graph::build(&[
            ("crates/sm-core/src/a.rs".to_string(), analyze(a)),
            ("crates/sm-zk/src/b.rs".to_string(), analyze(b)),
        ]);
        let entry = &g.fns[0];
        assert!(entry.local_closures.contains("parse"), "{entry:?}");
        assert!(
            g.callees(entry).is_empty(),
            "closure call must not resolve to the free fn"
        );
    }

    #[test]
    fn fn_header_waiver_governs_all_body_facts() {
        let src = "\
// sm-lint: allow(P1) — fixed-size state, const indices
pub fn step(s: &mut [u64; 4]) -> u64 {
    let r = s[0].wrapping_add(s[3]);
    s[1] ^= s[2];
    r
}
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        assert!(
            g.fns[0].panic_sites.is_empty(),
            "{:?}",
            g.fns[0].panic_sites
        );
        assert!(g.used_fact_waivers.contains(&(
            "crates/sm-core/src/x.rs".to_string(),
            2,
            RuleId::P1
        )));
    }

    #[test]
    fn ambiguous_method_names_produce_no_edges() {
        let src = "\
struct A; struct B;
impl A { pub fn get(&self) -> u32 { 1 } }
impl B { pub fn get(&self) -> u32 { 2 } }
pub fn entry(m: &A) { m.get(); }
";
        let g = build_one("crates/sm-core/src/x.rs", src);
        let entry = g.fns.iter().find(|f| f.name == "entry").expect("entry");
        assert!(
            g.callees(entry).is_empty(),
            "`get` is defined on two types — ambiguous, no edge"
        );
    }
}
