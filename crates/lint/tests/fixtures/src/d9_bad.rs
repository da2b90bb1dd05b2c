//! D9 positive: panic-capable operations in engine library code.
pub fn head_and_tail(v: &[u64]) -> u64 {
    let head = *v.first().unwrap(); // violation: clippy::unwrap_used
    let tail = *v.last().expect("nonempty"); // violation: clippy::expect_used
    head + tail + v[0] // violation: clippy::indexing_slicing
}
