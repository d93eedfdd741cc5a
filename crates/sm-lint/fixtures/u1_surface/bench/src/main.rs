//! U1 fixture: the benchmark package is read for names, never linted —
//! the `unwrap` below is nobody's R1 finding.

fn main() {
    sm_a::benched();
    std::env::args().next().unwrap();
}
