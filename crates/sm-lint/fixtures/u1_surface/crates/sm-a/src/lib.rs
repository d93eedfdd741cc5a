//! U1 fixture: one library crate whose `pub` items are named from
//! different places — or from nowhere.

/// Named by nothing outside this crate's `src/`: flagged.
pub fn orphan() {}

/// Named by another crate (`sm-b`): fine.
pub fn shared() -> Reached {
    internal();
    Reached
}

/// Never named outside, but `shared`'s signature hands it to callers,
/// who use it by inference: fine.
pub struct Reached;

/// Named only by this file's own unit tests: flagged.
pub fn unit_tested() {}

/// Named by this crate's own binary, which is outside the library: fine.
pub fn for_the_bin() {}

/// Named by the repo benchmark, which the workspace does not contain: fine.
pub fn benched() {}

/// Named outside only as a local and a field (`sm-b`), never called
/// or reached by path: a `fn` nobody outside uses, flagged.
pub fn shadowed() {}

// sm-lint: allow(U1) — PAPER.md "Production applications" row; fixture: no world drives it yet
pub fn paper_named() {}

/// Already closed: not U1's business.
pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    #[test]
    fn covers() {
        super::unit_tested();
    }
}
