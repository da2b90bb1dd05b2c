//! D6 negative: library code returns strings; the print lives in a
//! doc example, which is a comment to the linter.
//!
//! ```
//! println!("{}", render(3));
//! ```
pub fn render(hits: u64) -> String {
    format!("hits = {hits}")
}
