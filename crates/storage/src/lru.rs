//! The intrusive recency list shared by the client cache's tiers and the
//! server buffer's LRU replacement.

/// Link sentinel: "no neighbour".
const NIL: u32 = u32::MAX;

/// One intrusive list node, indexed by member id.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    live: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            prev: NIL,
            next: NIL,
            live: false,
        }
    }
}

/// A recency order over dense `u32` ids with O(1) operations: a doubly-
/// linked list threaded through an id-indexed node vector. It runs LRU
/// (head) to MRU (tail); a touch unlinks the node and re-links it at the
/// tail, all by index arithmetic — no tree rebalance, no per-operation
/// allocation once the node vector covers the ids in use.
#[derive(Debug, Clone)]
pub(crate) struct LruList {
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    pub(crate) fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        self.nodes.get(id as usize).is_some_and(|n| n.live)
    }

    /// Pre-sizes the node vector for ids `0..n`, so later inserts never
    /// grow it.
    pub(crate) fn reserve_ids(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, Node::default());
        }
    }

    /// Detaches a live node from the list (leaves `live` set).
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from the node vector and NIL links are matched out before indexing"
    )]
    fn unlink(&mut self, id: u32) {
        let Node { prev, next, .. } = self.nodes[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attaches a node at the MRU tail.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from the node vector and NIL links are matched out before indexing"
    )]
    fn link_tail(&mut self, id: u32) {
        let node = &mut self.nodes[id as usize];
        node.live = true;
        node.next = NIL;
        node.prev = self.tail;
        match self.tail {
            NIL => self.head = id,
            t => self.nodes[t as usize].next = id,
        }
        self.tail = id;
    }

    /// Makes a member most-recently-used; returns `false` (doing nothing)
    /// if `id` is not a member.
    pub(crate) fn touch(&mut self, id: u32) -> bool {
        if !self.contains(id) {
            return false;
        }
        if self.tail != id {
            self.unlink(id);
            self.link_tail(id);
        }
        true
    }

    /// Makes `id` most-recently-used, adding it if it is not a member.
    pub(crate) fn push_mru(&mut self, id: u32) {
        if self.touch(id) {
            return;
        }
        let idx = id as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, Node::default());
        }
        self.link_tail(id);
        self.len += 1;
    }

    /// Removes a member; returns `false` if `id` was not one.
    #[expect(
        clippy::indexing_slicing,
        reason = "contains() checked that id indexes a live node"
    )]
    pub(crate) fn remove(&mut self, id: u32) -> bool {
        if !self.contains(id) {
            return false;
        }
        self.unlink(id);
        self.nodes[id as usize].live = false;
        self.len -= 1;
        true
    }

    /// Removes and returns the least-recently-used member.
    pub(crate) fn pop_lru(&mut self) -> Option<u32> {
        let lru = self.head;
        self.remove(lru).then_some(lru)
    }

    /// Members from LRU to MRU.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from the node vector and NIL links are matched out before indexing"
    )]
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = cur;
            cur = self.nodes[cur as usize].next;
            Some(id)
        })
    }
}
