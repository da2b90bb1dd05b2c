//! D3 negative: seeded generator threaded explicitly.
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

pub fn roll(seed: u64) -> u64 {
    Prng::seeded(seed).step()
}
