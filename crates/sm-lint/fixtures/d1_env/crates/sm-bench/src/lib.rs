//! D1 fixture: the measurement tooling takes its scale from the
//! environment, which is legal there.

fn paper_scale() -> bool {
    std::env::var("SM_SCALE").as_deref() == Ok("paper")
}
