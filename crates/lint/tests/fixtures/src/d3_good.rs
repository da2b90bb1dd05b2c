//! D3 negative: seeded generator threaded explicitly; hash maps built
//! over one fixed, seedless hasher.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub struct Prng(u64);

impl Prng {
    fn seeded(seed: u64) -> Prng {
        Prng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
    fn step(&mut self) -> u64 {
        self.0 = self.0.rotate_left(7) ^ 0xdead_beef;
        self.0
    }
}

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

pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

pub fn roll(seed: u64) -> u64 {
    let mut seen: FixedMap<u64, u64> = FixedMap::default();
    seen.insert(seed, Prng::seeded(seed).step());
    seen.get(&seed).copied().unwrap_or(0)
}
