//! D5 negative: the suppression explains itself.

#[allow(dead_code, reason = "kept for the follow-up that wires the CLI flag through")]
fn helper() {}

#[allow(clippy::cast_possible_truncation, reason = "x % 251 fits in u8")]
pub fn bucket(x: u64) -> u8 {
    (x % 251) as u8
}
