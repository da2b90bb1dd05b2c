//! D2 positive: hash-ordered iteration in a deterministic crate.
use std::collections::{HashMap, HashSet};

pub struct State {
    txns: HashMap<u64, u32>,
}

impl State {
    pub fn sweep(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (k, _v) in &self.txns { // violation: clippy::iter_over_hash_type
            out.push(*k);
        }
        let live: HashSet<u64> = HashSet::new();
        let _ids: Vec<u64> = live.iter().copied().collect(); // violation: clippy::disallowed_methods
        self.txns.retain(|_, v| *v > 0); // violation: clippy::disallowed_methods
        out
    }
}
