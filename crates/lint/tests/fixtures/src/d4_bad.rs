//! D4 positive: undocumented `unsafe`.
#[expect(unsafe_code, reason = "this fixture is about the missing SAFETY comment")]
pub fn read_first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) } // violation: clippy::undocumented_unsafe_blocks
}
