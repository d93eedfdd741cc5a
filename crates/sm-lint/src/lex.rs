//! A minimal Rust tokenizer over *masked* source.
//!
//! Runs after [`crate::scan::mask_source_full`], so comment bodies and
//! literal contents are already spaces: the lexer only has to split
//! what's left into identifiers, numbers, and single-character
//! punctuation, each tagged with its 1-based line. That is all the
//! call-graph extractor needs — multi-character operators (`::`, `->`,
//! `!=`) are recognized by consumers as adjacent punct tokens, which
//! keeps the lexer trivial and the token positions exact.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// An identifier or keyword (`fn`, `unwrap`, `Instant`).
    Ident,
    /// A numeric literal (`42`, `0xff`, `1_000u64`). Dots are *not*
    /// consumed, so `1.5` lexes as `1` `.` `5` — method-call detection
    /// relies on seeing every `.` as its own punct.
    Num,
    /// Any other non-whitespace character.
    Punct(char),
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Identifier / number text; empty for puncts.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Tok {
    /// True when the token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punct `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenizes masked source. Adjacent puncts are emitted one char at a
/// time; whitespace (which is what masking turns literals into) only
/// separates tokens.
pub(crate) fn lex(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::with_capacity(masked.len() / 4);
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b if b.is_ascii_whitespace() => i += 1,
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: masked[start..i].to_string(),
                    line,
                });
            }
            b if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: masked[start..i].to_string(),
                    line,
                });
            }
            _ => {
                // Multi-byte UTF-8 chars (masked prose rarely leaves
                // any) become one punct for the lead char.
                let ch = masked[i..].chars().next().unwrap_or(' ');
                toks.push(Tok {
                    kind: TokKind::Punct(ch),
                    text: String::new(),
                    line,
                });
                i += ch.len_utf8();
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask_source_full;

    fn kinds(src: &str) -> Vec<String> {
        lex(&mask_source_full(src).code)
            .into_iter()
            .map(|t| match t.kind {
                TokKind::Ident | TokKind::Num => t.text,
                TokKind::Punct(c) => c.to_string(),
            })
            .collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let toks = lex("fn foo() {\n  bar.baz();\n}\n");
        let fx: Vec<(&str, usize)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(fx, vec![("fn", 1), ("foo", 1), ("bar", 2), ("baz", 2)]);
    }

    #[test]
    fn strings_and_comments_vanish() {
        let k = kinds("call(\"unwrap()\"); // HashMap\n");
        assert!(!k.contains(&"unwrap".to_string()));
        assert!(!k.contains(&"HashMap".to_string()));
        assert!(k.contains(&"call".to_string()));
    }

    #[test]
    fn numbers_do_not_eat_dots() {
        let k = kinds("a[1..n]; x.0.send(); 1.5");
        // Ranges and tuple-field access keep their dots as puncts so
        // `.send(` is still recognizable as a method call.
        let joined = k.join(" ");
        assert!(joined.contains("1 . . n"), "{joined}");
        assert!(joined.contains("x . 0 . send"), "{joined}");
        assert!(joined.contains("1 . 5"), "{joined}");
    }

    #[test]
    fn punct_pairs_stay_adjacent() {
        let toks = lex("Instant::now()");
        let shapes: Vec<String> = toks
            .iter()
            .map(|t| match t.kind {
                TokKind::Punct(c) => c.to_string(),
                _ => t.text.clone(),
            })
            .collect();
        assert_eq!(shapes, vec!["Instant", ":", ":", "now", "(", ")"]);
    }
}
