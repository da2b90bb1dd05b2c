//! Wait-for-graph deadlock detection.
//!
//! The paper's servers check every incoming object request against a
//! wait-for graph and enqueue it "only if it does not cause a deadlock cycle"
//! (§5.1). [`WaitForGraph::would_deadlock`] performs exactly that tentative
//! check; [`WaitForGraph::add_waits`] commits the edges once the request is
//! queued.

use std::fmt::Debug;
use std::hash::Hash;

use siteselect_types::{HashMap, HashSet};

/// A directed graph of "waits-for" edges between lock owners.
///
/// # Example
///
/// ```
/// use siteselect_locks::WaitForGraph;
///
/// let mut g: WaitForGraph<u32> = WaitForGraph::new();
/// g.add_waits(1, [2]);
/// g.add_waits(2, [3]);
/// assert!(g.would_deadlock(3, &[1])); // 3 -> 1 -> 2 -> 3 closes a cycle
/// assert!(!g.would_deadlock(3, &[4]));
/// ```
#[derive(Debug, Clone)]
pub struct WaitForGraph<N> {
    edges: HashMap<N, HashSet<N>>,
}

impl<N: Copy + Eq + Hash + Debug> WaitForGraph<N> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        WaitForGraph {
            edges: HashMap::default(),
        }
    }

    /// True if adding edges `waiter -> h` for each `h` in `holders` would
    /// close a cycle — i.e. some holder already (transitively) waits for
    /// `waiter`.
    #[must_use]
    pub fn would_deadlock(&self, waiter: N, holders: &[N]) -> bool {
        holders.iter().any(|&h| h == waiter || self.reaches(h, waiter))
    }

    /// DFS reachability: does `from` reach `to` through wait edges?
    fn reaches(&self, from: N, to: N) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::default();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(&n) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "reachability: the DFS answer does not depend on visit order"
                )]
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Records that `waiter` now waits for each of `holders`.
    pub fn add_waits(&mut self, waiter: N, holders: impl IntoIterator<Item = N>) {
        let set = self.edges.entry(waiter).or_default();
        for h in holders {
            if h != waiter {
                set.insert(h);
            }
        }
        if set.is_empty() {
            self.edges.remove(&waiter);
        }
    }

    /// Removes every outgoing edge of `waiter` (it stopped waiting).
    pub fn clear_waits(&mut self, waiter: N) {
        self.edges.remove(&waiter);
    }

    /// Removes one specific wait edge.
    pub fn remove_edge(&mut self, waiter: N, holder: N) {
        if let Some(set) = self.edges.get_mut(&waiter) {
            set.remove(&holder);
            if set.is_empty() {
                self.edges.remove(&waiter);
            }
        }
    }

    /// Removes a node entirely: its outgoing edges and every edge pointing
    /// at it (the owner released everything).
    pub fn remove_node(&mut self, node: N) {
        self.edges.remove(&node);
        #[expect(
            clippy::disallowed_methods,
            reason = "per-entry removal; result independent of visit order"
        )]
        self.edges.retain(|_, set| {
            set.remove(&node);
            !set.is_empty()
        });
    }

    /// Number of nodes with outgoing edges.
    #[must_use]
    pub fn waiting_nodes(&self) -> usize {
        self.edges.len()
    }

    /// Total number of wait edges.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "a sum is independent of visit order")]
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(HashSet::len).sum()
    }

    /// Exhaustive cycle check (O(V·E)); used by tests to validate that the
    /// incremental `would_deadlock` gate keeps the graph acyclic.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "any() over a pure predicate is independent of visit order"
    )]
    pub fn has_cycle(&self) -> bool {
        self.edges.keys().any(|&n| self.reaches_via_edges(n))
    }

    fn reaches_via_edges(&self, start: N) -> bool {
        // Does `start` reach itself through at least one edge?
        #[expect(
            clippy::disallowed_methods,
            reason = "reachability: the DFS answer does not depend on visit order"
        )]
        let mut stack: Vec<N> = self
            .edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = HashSet::default();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(&n) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "reachability: the DFS answer does not depend on visit order"
                )]
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

impl<N: Copy + Eq + Hash + Debug> Default for WaitForGraph<N> {
    fn default() -> Self {
        WaitForGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        assert!(g.would_deadlock(2, &[1]));
        assert!(!g.would_deadlock(2, &[3]));
    }

    #[test]
    fn transitive_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.add_waits(2, [3]);
        g.add_waits(3, [4]);
        assert!(g.would_deadlock(4, &[1]));
        assert!(g.would_deadlock(4, &[2]));
        assert!(!g.would_deadlock(4, &[5]));
    }

    #[test]
    fn self_wait_counts_as_deadlock() {
        let g: WaitForGraph<u32> = WaitForGraph::new();
        assert!(g.would_deadlock(1, &[1]));
    }

    #[test]
    fn clear_waits_breaks_cycle_risk() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.clear_waits(1);
        assert!(!g.would_deadlock(2, &[1]));
        assert_eq!(g.waiting_nodes(), 0);
    }

    #[test]
    fn remove_edge_is_precise() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2, 3]);
        g.remove_edge(1, 2);
        assert!(!g.would_deadlock(2, &[1]));
        assert!(g.would_deadlock(3, &[1]));
        g.remove_edge(1, 3);
        assert_eq!(g.waiting_nodes(), 0);
    }

    #[test]
    fn remove_node_removes_incoming_edges() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [2]);
        g.add_waits(3, [2]);
        g.remove_node(2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.would_deadlock(2, &[1]));
    }

    #[test]
    fn self_edges_are_ignored_on_insert() {
        let mut g = WaitForGraph::new();
        g.add_waits(1, [1]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn gate_keeps_graph_acyclic() {
        let mut g = WaitForGraph::new();
        // Build a random-ish wait pattern, only committing edges that the
        // gate approves; the graph must stay acyclic throughout.
        let mut x = 0x12345u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let waiter = (x % 20) as u32;
            let holder = ((x >> 8) % 20) as u32;
            if waiter != holder && !g.would_deadlock(waiter, &[holder]) {
                g.add_waits(waiter, [holder]);
            }
            assert!(!g.has_cycle());
            if x.is_multiple_of(7) {
                g.remove_node(((x >> 16) % 20) as u32);
            }
        }
    }

    #[test]
    fn multi_holder_check() {
        let mut g = WaitForGraph::new();
        g.add_waits(5, [6]);
        // Waiting on {7, 6-chain-to-5}? 6 doesn't reach 5... 5 waits for 6,
        // so 6 reaching 5 requires an edge 6->...; none exists.
        assert!(!g.would_deadlock(6, &[7]));
        assert!(g.would_deadlock(6, &[7, 5]));
    }
}
