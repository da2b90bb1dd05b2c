//! D3 positive: ambient randomness sources.
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, RandomState}; // violation: clippy::disallowed_types

pub fn roll() -> u64 {
    let _hasher = DefaultHasher::new(); // violation: clippy::disallowed_types
    let _state = RandomState::new(); // violation: clippy::disallowed_types
    let _map: HashMap<u64, u32> = HashMap::new(); // violation: clippy::disallowed_methods
    let _set: HashSet<u64> = HashSet::with_capacity(8); // violation: clippy::disallowed_methods
    42
}
