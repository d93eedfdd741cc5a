//! Lexical preprocessing: masking and test-region tracking.
//!
//! The line rules in [`crate::rules`] are substring checks and the
//! graph rules in [`crate::callrules`] work on a token stream, so
//! before matching we *mask* everything those passes must not see —
//! comment bodies, string/char literal contents — replacing each
//! masked character with a space (newlines survive, so line numbers
//! are preserved). A full `syn`-style parse would be overkill: every
//! invariant sm-lint enforces is visible at the token level, and the
//! masker only has to get Rust's lexical grammar right (nested block
//! comments, raw strings, byte literals, lifetimes vs. char literals).
//!
//! Masking produces *two* channels with identical shape:
//!
//! - the **code channel**: comments and literal bodies blanked — what
//!   rules match against;
//! - the **comment channel**: only plain (non-doc) comment bodies kept,
//!   code and literals blanked — what the waiver parser reads, so a
//!   string containing `sm-lint: allow(..)` can never waive anything
//!   and a doc comment *describing* the waiver syntax is never
//!   mistaken for a live waiver.

/// Per-line view of a masked source file.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// Line text with comments and literal bodies blanked out.
    pub masked: String,
    /// Line text with everything *but* plain comment bodies blanked
    /// out — the only channel waivers are parsed from.
    pub comment: String,
    /// Raw line text (kept for error display).
    pub raw: String,
    /// True when the line sits inside a `#[cfg(test)]` region or a
    /// `#[test]` function.
    pub in_test: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    /// `doc` distinguishes `///` / `//!` from plain `//`.
    LineComment {
        doc: bool,
    },
    BlockComment {
        depth: u32,
        doc: bool,
    },
    Str,
    RawStr(u32),
    CharLit,
}

/// Both masking channels for one source file.
pub(crate) struct Masked {
    /// Code with comments and literal bodies blanked.
    pub code: String,
    /// Plain-comment bodies with everything else blanked.
    pub comments: String,
}

/// Masks `src` into the code and comment channels (see module docs).
pub(crate) fn mask_source_full(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut code: Vec<char> = Vec::with_capacity(chars.len());
    let mut comments: Vec<char> = Vec::with_capacity(chars.len());
    let mut state = State::Code;
    let mut i = 0usize;
    // Pushes one position to both channels: comments get the char only
    // inside a plain comment body, code only outside comments/literals.
    macro_rules! emit {
        (code $c:expr) => {{
            code.push($c);
            comments.push(if $c == '\n' { '\n' } else { ' ' });
        }};
        (comment $c:expr, $doc:expr) => {{
            code.push(if $c == '\n' { '\n' } else { ' ' });
            comments.push(if $c == '\n' || !$doc { $c } else { ' ' });
        }};
        (blank $c:expr) => {{
            let keep = if $c == '\n' { '\n' } else { ' ' };
            code.push(keep);
            comments.push(keep);
        }};
    }
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    // `///x` and `//!` are doc comments; `//` and
                    // `////...` are plain. Waivers live in plain ones.
                    let c2 = chars.get(i + 2).copied();
                    let c3 = chars.get(i + 3).copied();
                    let doc = (c2 == Some('/') && c3 != Some('/')) || c2 == Some('!');
                    state = State::LineComment { doc };
                    emit!(blank c);
                }
                '/' if next == Some('*') => {
                    let c2 = chars.get(i + 2).copied();
                    let c3 = chars.get(i + 3).copied();
                    let doc =
                        (c2 == Some('*') && c3 != Some('/') && c3.is_some()) || c2 == Some('!');
                    state = State::BlockComment { depth: 1, doc };
                    emit!(blank c);
                    emit!(blank '*');
                    i += 1;
                }
                '"' => {
                    state = State::Str;
                    emit!(blank c);
                }
                'b' if next == Some('\'') => {
                    // Byte char literal `b'x'` / `b'\n'`: always a
                    // literal — the lifetime ambiguity of bare `'`
                    // does not apply after `b`.
                    if !prev_is_ident(&code) {
                        emit!(blank c);
                        emit!(blank '\'');
                        i += 1;
                        state = State::CharLit;
                    } else {
                        emit!(code c);
                    }
                }
                'b' if next == Some('"') && !prev_is_ident(&code) => {
                    // Byte string `b"..."`: escape-aware, like `"..."`
                    // (it is *not* a raw string — `b"a\"b"` must not
                    // close at the escaped quote).
                    emit!(blank c);
                    emit!(blank '"');
                    i += 1;
                    state = State::Str;
                }
                'r' | 'b' if !prev_is_ident(&code) => {
                    // Raw (byte) string: r"..", r#".."#, br#".."# —
                    // but not raw identifiers like r#fn.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (c == 'r' || j > i + 1) {
                        for _ in 0..(j - i + 1) {
                            emit!(blank ' ');
                        }
                        i = j;
                        state = State::RawStr(hashes);
                    } else {
                        emit!(code c);
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let n1 = chars.get(i + 1).copied();
                    let n2 = chars.get(i + 2).copied();
                    let is_char_lit = match n1 {
                        Some('\\') => true,
                        Some(x) if x.is_alphanumeric() || x == '_' => n2 == Some('\''),
                        Some(_) => true, // punctuation like '(' or ' '
                        None => false,
                    };
                    if is_char_lit {
                        state = State::CharLit;
                    }
                    emit!(blank c);
                }
                _ => emit!(code c),
            },
            State::LineComment { doc } => {
                if c == '\n' {
                    state = State::Code;
                    emit!(blank '\n');
                } else {
                    emit!(comment c, doc);
                }
            }
            State::BlockComment { depth, doc } => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment {
                        depth: depth + 1,
                        doc,
                    };
                    emit!(comment c, doc);
                    emit!(comment '*', doc);
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    emit!(comment c, doc);
                    emit!(comment '/', doc);
                    i += 1;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment {
                            depth: depth - 1,
                            doc,
                        }
                    };
                } else {
                    emit!(comment c, doc);
                }
            }
            State::Str => {
                if c == '\\' {
                    emit!(blank c);
                    if let Some(n) = next {
                        emit!(blank n);
                    }
                    i += 1;
                } else {
                    emit!(blank c);
                    if c == '"' {
                        state = State::Code;
                    }
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    // Close only when followed by `hashes` hash marks.
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes as usize + 1 {
                            emit!(blank ' ');
                        }
                        i += hashes as usize;
                        state = State::Code;
                    } else {
                        emit!(blank c);
                    }
                } else {
                    emit!(blank c);
                }
            }
            State::CharLit => {
                if c == '\\' {
                    emit!(blank c);
                    if let Some(n) = next {
                        emit!(blank n);
                    }
                    i += 1;
                } else {
                    emit!(blank c);
                    if c == '\'' {
                        state = State::Code;
                    }
                }
            }
        }
        i += 1;
    }
    Masked {
        code: code.into_iter().collect(),
        comments: comments.into_iter().collect(),
    }
}

fn prev_is_ident(out: &[char]) -> bool {
    matches!(out.last(), Some(c) if c.is_alphanumeric() || *c == '_')
}

/// Splits a file into [`LineInfo`]s, tracking `#[cfg(test)]` / `#[test]`
/// regions by brace depth so rule R1 can exempt test code.
pub fn analyze(src: &str) -> Vec<LineInfo> {
    let masked = mask_source_full(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.code.lines().collect();
    let comment_lines: Vec<&str> = masked.comments.lines().collect();

    let mut infos = Vec::with_capacity(raw_lines.len());
    let mut depth: i64 = 0;
    // Depth at which the innermost active test region opened.
    let mut test_region: Option<i64> = None;
    // A `#[cfg(test)]` or `#[test]` attribute was seen and its item's
    // opening brace has not arrived yet.
    let mut pending_test_attr = false;

    for (idx, mline) in masked_lines.iter().enumerate() {
        let line_is_test = test_region.is_some() || pending_test_attr || {
            let t = mline.trim_start();
            t.starts_with("#[cfg(test)]")
                || t.starts_with("#[test]")
                || t.starts_with("#[cfg(all(test")
        };
        if test_region.is_none() {
            let t = mline.trim_start();
            if t.starts_with("#[cfg(test)]")
                || t.starts_with("#[test]")
                || t.starts_with("#[cfg(all(test")
            {
                pending_test_attr = true;
            }
        }
        for c in mline.chars() {
            match c {
                '{' => {
                    if pending_test_attr && test_region.is_none() {
                        test_region = Some(depth);
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(open) = test_region {
                        if depth <= open {
                            test_region = None;
                        }
                    }
                }
                ';'
                    // `#[cfg(test)] use foo;` — attribute consumed by a
                    // braceless item. Cleared at *any* depth: inside a
                    // module the item sits at depth ≥ 1, and leaving
                    // the flag set would leak test-ness onto the next
                    // braced item and exempt live code.
                    if pending_test_attr => {
                        pending_test_attr = false;
                    }
                _ => {}
            }
        }
        infos.push(LineInfo {
            masked: (*mline).to_string(),
            comment: comment_lines.get(idx).copied().unwrap_or("").to_string(),
            raw: raw_lines.get(idx).copied().unwrap_or("").to_string(),
            in_test: line_is_test,
        });
    }
    infos
}

/// Finds `needle` in `haystack` at identifier boundaries (the chars
/// around a match must not be `[A-Za-z0-9_]`).
pub(crate) fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    let hay = haystack.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(hay[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_byte(hay[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_source(src: &str) -> String {
        mask_source_full(src).code
    }

    #[test]
    fn masks_line_and_block_comments() {
        let m = mask_source("let x = 1; // HashMap here\n/* thread_rng */ let y;\n");
        assert!(!m.contains("HashMap"));
        assert!(!m.contains("thread_rng"));
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y;"));
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask_source("a /* outer /* inner */ still */ b");
        assert!(m.contains('a'));
        assert!(m.contains('b'));
        assert!(!m.contains("outer"));
        assert!(!m.contains("still"));
    }

    #[test]
    fn masks_string_contents_but_keeps_shape() {
        let m = mask_source("call(\"unwrap() inside\") + 1");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("call("));
        assert!(m.contains("+ 1"));
    }

    #[test]
    fn masks_raw_strings() {
        let m = mask_source("let p = r#\"panic!(.unwrap())\"#; done");
        assert!(!m.contains("panic"));
        assert!(m.contains("done"));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let m = mask_source("let r#fn = 1; let after = r#fn;");
        assert!(m.contains("let after"));
    }

    #[test]
    fn masks_byte_char_literals() {
        let m = mask_source("let nl = b'\\n'; let q = b'x'; after");
        assert!(!m.contains('x'), "byte char body must be masked: {m}");
        assert!(m.contains("let nl ="));
        assert!(m.contains("after"));
    }

    #[test]
    fn byte_string_is_escape_aware() {
        // `b"a\"unwrap()"` must not close at the escaped quote.
        let m = mask_source("let s = b\"a\\\"unwrap()\"; let t = 2;");
        assert!(!m.contains("unwrap"), "{m}");
        assert!(m.contains("let t = 2;"));
    }

    #[test]
    fn raw_byte_string_without_hashes() {
        let m = mask_source("let s = br\"panic!\"; tail");
        assert!(!m.contains("panic"), "{m}");
        assert!(m.contains("tail"));
    }

    #[test]
    fn ident_ending_in_b_before_quote_is_not_a_byte_string() {
        let m = mask_source("let grab = ab\"x\";");
        // `ab` is an identifier; the string after it still masks, and
        // the identifier itself survives.
        assert!(m.contains("ab"));
        assert!(!m.contains('x'));
    }

    #[test]
    fn doc_comment_with_close_marker_in_string() {
        // A line doc comment quoting `*/` must stay a one-line comment.
        let m = mask_source("/// quoting \"*/\" here\nlet live = 1;\n");
        assert!(m.contains("let live = 1;"), "{m}");
        assert!(!m.contains("quoting"));
    }

    #[test]
    fn block_comment_closes_at_first_marker_even_inside_quotes() {
        // Rust's lexer has no string-awareness inside block comments:
        // `/* "*/` ends at the `*/` even though a quote is open. The
        // masker must agree, so `b` afterwards is live code.
        let m = mask_source("a /* quote \" then */ b");
        assert!(m.contains('a'));
        assert!(m.contains('b'), "{m}");
        assert!(!m.contains("quote"), "comment body masked: {m}");
        let m = mask_source("a /* \"*/ b");
        assert!(m.contains('b'), "close marker honored inside quote: {m}");
        assert!(!m.contains('"'), "{m}");
    }

    #[test]
    fn comment_channel_sees_plain_comments_only() {
        let src = "let a = \"sm-lint: allow(R1) in a string\"; // sm-lint: allow(D3) real\n\
                   /// doc: sm-lint: allow(D1) — syntax example\n\
                   //! inner doc: sm-lint: allow(D2)\n\
                   /* block sm-lint: allow(R2) */\n";
        let m = mask_source_full(src);
        let lines: Vec<&str> = m.comments.lines().collect();
        assert!(lines[0].contains("sm-lint: allow(D3) real"));
        assert!(
            !lines[0].contains("allow(R1)"),
            "string contents must not reach the comment channel"
        );
        assert!(!lines[1].contains("allow"), "doc comments are not waivers");
        assert!(!lines[2].contains("allow"), "inner docs are not waivers");
        assert!(lines[3].contains("allow(R2)"), "plain block comments count");
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let m = mask_source("let s = \"a\\\"unwrap()\"; let t = 2;");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let t = 2;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_masked() {
        let m = mask_source("fn f<'a>(v: &'a str) { let c = 'x'; let d = '\\n'; }");
        assert!(m.contains("fn f<"));
        assert!(m.contains("str"), "lifetime must not eat code: {m}");
        assert!(m.contains("let c ="));
        assert!(m.contains("let d ="));
        assert!(!m.contains('x'), "char literal body must be masked: {m}");
    }

    #[test]
    fn newlines_and_line_count_preserved() {
        let src = "a\n\"multi\nline\"\nb\n";
        let m = mask_source_full(src);
        assert_eq!(m.code.lines().count(), src.lines().count());
        assert_eq!(m.comments.lines().count(), src.lines().count());
        assert_eq!(m.code.chars().count(), src.chars().count());
        assert_eq!(m.comments.chars().count(), src.chars().count());
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "\
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn real2() {}
";
        let infos = analyze(src);
        assert!(!infos[0].in_test);
        assert!(infos[1].in_test);
        assert!(infos[2].in_test);
        assert!(infos[3].in_test);
        assert!(infos[4].in_test);
        assert!(!infos[5].in_test);
    }

    #[test]
    fn test_attr_fn_is_tracked() {
        let src = "\
#[test]
fn check() {
    boom.unwrap();
}
fn live() {}
";
        let infos = analyze(src);
        assert!(infos[0].in_test);
        assert!(infos[2].in_test);
        assert!(!infos[4].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
fn live() { x.unwrap(); }
";
        let infos = analyze(src);
        assert!(infos[1].in_test);
        assert!(!infos[2].in_test, "region must not leak past the `;`");
    }

    #[test]
    fn cfg_test_on_braceless_item_inside_module_does_not_leak() {
        // The attribute sits at depth 1 (inside `mod inner`); the `;`
        // of the `use` must clear it there too, or `live()` would be
        // wrongly exempted from R1.
        let src = "\
mod inner {
    #[cfg(test)]
    use std::collections::BTreeMap;
    fn live() { x.unwrap(); }
}
";
        let infos = analyze(src);
        assert!(infos[1].in_test, "the attribute line itself is test");
        assert!(infos[2].in_test, "the use item is test");
        assert!(
            !infos[3].in_test,
            "region must not leak onto the next item at depth > 0"
        );
    }

    #[test]
    fn word_boundaries() {
        assert!(find_word("x.unwrap()", "unwrap").is_some());
        assert!(find_word("x.unwrap_or(3)", "unwrap").is_none());
        assert!(find_word("let map: HashMap<A, B>", "HashMap").is_some());
        assert!(find_word("MyHashMapLike", "HashMap").is_none());
    }
}
