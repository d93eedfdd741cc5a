//! U1, the closed public surface: a bare-`pub` item in non-test code
//! under `crates/<c>/src` must be named by at least one scanned file
//! outside that directory — another crate, the crate's own `tests/`,
//! `benches/` or binaries, the root `tests/` / `examples/` / `src/`,
//! or the repo benchmark's `bench/src`. What nothing outside names is
//! `pub(crate)` at most, and from there `rustc`'s `dead_code` says when
//! it can go.
//!
//! Other crates also reach a type without naming it, by inference
//! through a signature, so an item named in the *face* of another
//! bare-`pub` item of its crate — a fn's header, a type's or trait's
//! body, an associated-type binding — counts as named too (demote one
//! of those anyway and `rustc`'s `private_interfaces` objects).
//!
//! The check is a *name* scan, so it errs in one direction only: a
//! common identifier (`new`, `len`) stays `pub` though unused. For a
//! `fn` only a use counts — the name called (`name(`, `name::<`) or
//! reached by path (`::name`) — so a local, a field or a struct named
//! like it keeps nothing `pub`; a method that shares its name with a
//! *called* method of another type still hides behind it. The
//! paper's components that no world drives yet stay `pub` under
//! `// sm-lint: allow(U1) — <row of PAPER.md's table>`.

use crate::rules::{waivers_governing, RuleId, Violation};
use crate::scan::LineInfo;
use std::collections::{BTreeMap, BTreeSet};

/// Item keywords U1 looks for after `pub` (`use` re-exports follow
/// their item: the compiler rejects re-exporting a `pub(crate)` one).
const ITEM_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// The crate whose *library* a file belongs to. A crate's binaries
/// (`src/bin/`, `src/main.rs`) call the library from outside it.
fn home(rel: &str) -> Option<&str> {
    let (krate, path) = rel.strip_prefix("crates/")?.split_once("/src/")?;
    (!krate.contains('/') && !path.starts_with("bin/") && path != "main.rs").then_some(krate)
}

fn idents(masked: &str) -> impl Iterator<Item = &str> {
    masked
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// Each identifier of a line, and whether it stands where a `fn` can be
/// used: called (`name(`, `name::<`) or named by path (`::name`).
fn uses(masked: &str) -> impl Iterator<Item = (&str, bool)> {
    idents(masked).map(move |word| {
        let at = word.as_ptr() as usize - masked.as_ptr() as usize;
        let after = &masked[at + word.len()..];
        let used = after.starts_with('(') || after.starts_with("::<");
        (word, used || masked[..at].ends_with("::"))
    })
}

/// The kind and name a line declares with a bare `pub` (`pub(crate)`
/// is not one).
fn pub_item(masked: &str) -> Option<(&str, &str)> {
    let mut words = masked.strip_prefix("pub ")?.split_whitespace();
    let mut kind = words.next()?;
    let mut name = words.next()?;
    // `pub const fn`, `pub async fn`, `pub const unsafe fn`.
    while ["const", "async", "unsafe"].contains(&kind) && (name == "unsafe" || name == "fn") {
        (kind, name) = (name, words.next()?);
    }
    let name = idents(name).next()?;
    ITEM_KINDS.contains(&kind).then_some((kind, name))
}

/// The lines spelling what the item declared at `idx` shows its users:
/// up to the line closing its header, and for a type or trait on to the
/// `}` closing its body (rustfmt puts it at the item's own indent).
fn face(lines: &[LineInfo], idx: usize, kind: &str) -> std::ops::RangeInclusive<usize> {
    let text = |i: usize| lines[i].masked.trim_end();
    let mut end = (idx..lines.len())
        .find(|&i| text(i).ends_with(['{', ';', '}']))
        .unwrap_or(idx);
    if ["struct", "enum", "trait"].contains(&kind) && text(end).ends_with('{') {
        let close = text(idx).len() - text(idx).trim_start().len() + 1;
        end = (end..lines.len())
            .find(|&i| text(i).len() == close && text(i).ends_with('}'))
            .unwrap_or(end);
    }
    idx..=end
}

/// Runs U1 over `files` (the linted workspace plus `bench/src`).
pub(crate) fn check<'a>(
    files: impl Iterator<Item = &'a (String, Vec<LineInfo>)> + Clone,
) -> Vec<Violation> {
    // (identifier, in use position only) → the library homes ("" = not
    // library code) naming it. A `fn` is looked up by its uses, every
    // other kind by any mention.
    let mut named_in: BTreeMap<(&str, bool), BTreeSet<&str>> = BTreeMap::new();
    for (rel, lines) in files.clone() {
        let owner = home(rel).unwrap_or("");
        for (word, used) in lines.iter().flat_map(|l| uses(&l.masked)) {
            for position in [false, used] {
                named_in.entry((word, position)).or_default().insert(owner);
            }
        }
    }
    // (crate, identifier) pairs named in the face of a bare-`pub` item.
    let mut surfaced: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut items = Vec::new();
    for (rel, lines) in files {
        let Some(krate) = home(rel) else { continue };
        for (idx, info) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            let code = info.masked.trim_start();
            let (kind, name) = match pub_item(code) {
                Some(item) => item,
                None if code.starts_with("type ") => ("type", ""),
                None => continue,
            };
            for word in face(lines, idx, kind).flat_map(|i| idents(&lines[i].masked)) {
                if word != name {
                    surfaced.insert((krate, word));
                }
            }
            if !name.is_empty() {
                items.push((rel, lines, krate, idx, name, kind == "fn"));
            }
        }
    }
    items
        .into_iter()
        .filter(|&(_, _, krate, _, name, is_fn)| {
            let outside = |owners: &BTreeSet<&str>| owners.iter().any(|owner| *owner != krate);
            // A face names types; a `fn` is not reached through one.
            !named_in.get(&(name, is_fn)).is_some_and(outside)
                && (is_fn || !surfaced.contains(&(krate, name)))
        })
        .map(|(rel, lines, _, idx, name, _)| Violation {
            rule: RuleId::U1,
            file: rel.clone(),
            line: idx + 1,
            pattern: format!("pub {name}"),
            waiver: waivers_governing(lines, idx)
                .into_iter()
                .find(|(r, _)| *r == RuleId::U1)
                .map(|(_, why)| why),
        })
        .collect()
}
