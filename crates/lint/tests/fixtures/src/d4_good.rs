//! D4 negative: the block carries its safety argument.
#[expect(unsafe_code, reason = "bounds are asserted before the unchecked read")]
pub fn read_first(v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    // SAFETY: the assert above guarantees index 0 is in bounds.
    unsafe { *v.get_unchecked(0) }
}
