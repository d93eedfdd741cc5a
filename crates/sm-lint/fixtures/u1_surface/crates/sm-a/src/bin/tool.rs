//! U1 fixture: a binary calls its library from outside.

fn main() {
    sm_a::for_the_bin();
}
