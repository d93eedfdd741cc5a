//! U1 fixture: the other crate, naming `sm_a::shared`.

fn caller() {
    sm_a::shared();
}
