//! U1 fixture: the other crate, naming `sm_a::shared`.

fn caller() {
    sm_a::shared();
}

struct Holder {
    shadowed: u32,
}

fn reader(h: &Holder) -> u32 {
    let shadowed = h.shadowed;
    shadowed
}
