//! D2 positive: hash-ordered iteration in a deterministic crate, with
//! the per-process hasher and with a fixed one alike.
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

#[derive(Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

pub struct State {
    txns: HashMap<u64, u32>,
    fixed: HashMap<u64, u32, BuildHasherDefault<FixedHasher>>,
}

impl State {
    pub fn sweep(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (k, _v) in &self.txns { // violation: clippy::iter_over_hash_type
            out.push(*k);
        }
        let live: HashSet<u64> = HashSet::default();
        let _ids: Vec<u64> = live.iter().copied().collect(); // violation: clippy::disallowed_methods
        self.txns.retain(|_, v| *v > 0); // violation: clippy::disallowed_methods
        // A fixed hasher makes the order repeatable, not meaningful.
        let _keys: Vec<u64> = self.fixed.keys().copied().collect(); // violation: clippy::disallowed_methods
        for (k, _v) in &self.fixed { // violation: clippy::iter_over_hash_type
            out.push(*k);
        }
        out
    }
}
