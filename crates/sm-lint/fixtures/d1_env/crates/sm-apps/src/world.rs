//! D1 fixture: a seeded world that branches on the process environment
//! replays differently from one shell to the next.

fn flush(entries: usize) {
    if std::env::var("SM_DEBUG_MAP").is_ok() {
        eprintln!("map has {entries} entries");
    }
}
