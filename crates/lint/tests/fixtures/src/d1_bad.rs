//! D1 positive: wall-clock reads in deterministic code.
use std::time::{Instant, SystemTime}; // violation: clippy::disallowed_types

pub fn elapsed_wall() -> u128 {
    let start = Instant::now(); // violation: clippy::disallowed_methods
    let _epoch = SystemTime::now(); // violation: clippy::disallowed_types
    start.elapsed().as_nanos()
}
