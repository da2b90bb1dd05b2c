//! D3 positive: ambient randomness sources.
use std::hash::{DefaultHasher, RandomState}; // violation: clippy::disallowed_types

pub fn roll() -> u64 {
    let _hasher = DefaultHasher::new(); // violation: clippy::disallowed_types
    let _state = RandomState::new(); // violation: clippy::disallowed_types
    42
}
