//! A value that counts its own edits.

use std::ops::Deref;

/// A value read through `Deref` and written only through
/// [`Rev::edit`], which counts: while [`Rev::rev`] stands, so does the
/// value, whoever held it in between. Replacing the value wholesale is
/// an edit too (`*x.edit() = new`), so the count never restarts.
#[derive(Debug, Default)]
pub(crate) struct Rev<T> {
    value: T,
    rev: u64,
}

impl<T> Rev<T> {
    /// The value for writing. Counts as an edit whether or not the
    /// caller goes on to change anything.
    pub(crate) fn edit(&mut self) -> &mut T {
        self.rev += 1;
        &mut self.value
    }

    /// How many times [`Self::edit`] was called.
    pub(crate) fn rev(&self) -> u64 {
        self.rev
    }
}

impl<T> From<T> for Rev<T> {
    fn from(value: T) -> Self {
        Self { value, rev: 0 }
    }
}

impl<T> Deref for Rev<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}
