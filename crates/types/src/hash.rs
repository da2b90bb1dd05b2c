//! One fixed, seedless hasher for the engines' hash maps.
//!
//! `std`'s `RandomState` seeds SipHash per process: it costs a SipHash
//! round on every probe and makes iteration order differ from run to run
//! (the determinism contract's D3). Engine keys are small integers and
//! tuples of them generated by the simulation itself, never input crafted
//! to collide, so a multiply-rotate hash in the style of FxHash (rustc's
//! own map hasher) is enough. The aliases below are what engine code
//! builds with: `HashMap::default()`, never `std`'s `HashMap::new()`.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate word hash: per word, rotate, xor, multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier with well-mixed high bits (FxHash's 64-bit seed).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; stateless, so every map hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `std` hash map keyed through [`FxHasher`]. Build with `default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `std` hash set keyed through [`FxHasher`]. Build with `default()`.
pub type HashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_across_builders() {
        assert_eq!(hash_of(&(3u16, 7u32)), hash_of(&(3u16, 7u32)));
        assert_ne!(hash_of(&(3u16, 7u32)), hash_of(&(7u16, 3u32)));
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
        assert_ne!(hash_of(&[1u8; 3][..]), hash_of(&[1u8; 4][..]));
    }
}
