//! D2 negative: ordered structures iterate freely; hash maps are probed
//! point-wise, and each order-free iteration carries a reasoned expect.
use std::collections::{BTreeMap, HashMap};

pub struct State {
    by_time: BTreeMap<u64, u32>,
    index: HashMap<u64, u32>,
}

impl State {
    pub fn scan(&self) -> (u32, Option<u32>) {
        let mut total = 0;
        for v in self.by_time.values() {
            total += *v; // BTreeMap: deterministic order
        }
        (total, self.index.get(&7).copied())
    }

    pub fn summarize(&self) -> (usize, u32, Vec<u64>) {
        #[expect(clippy::disallowed_methods, reason = "a count is independent of visit order")]
        let live = self.index.values().filter(|v| **v > 0).count();
        #[expect(clippy::disallowed_methods, reason = "a sum is independent of visit order")]
        let total: u32 = self.index.values().sum();
        #[expect(clippy::disallowed_methods, reason = "collected, then sorted on the next line")]
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        (live, total, keys)
    }

    #[expect(clippy::disallowed_methods, reason = "collected into an ordered map")]
    pub fn reindex(&self) -> BTreeMap<u64, u32> {
        self.index.iter().map(|(k, v)| (*k, *v)).collect()
    }
}
