//! Forward lists for the grouped-lock (lock-grouping) protocol of §3.4.
//!
//! During a *collection window* the server gathers all lock requests on one
//! object into an ordered **forward list**. The lock is granted to the first
//! entry and the object travels client→client down the list; the last client
//! returns it to the server. For `n` requests this takes `2n + 1` messages
//! instead of up to `3n` (plain 2PL) or `4n` (callback caching).
//!
//! In a real-time environment the list is ordered by transaction deadline
//! and expired entries are skipped. The object visits the entries one at a
//! time, shared requests included.

use siteselect_types::{ClientId, LockMode, ObjectId, SimTime, TransactionId};

/// One hop in a forward list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardEntry {
    /// The client to ship the object to.
    pub client: ClientId,
    /// The transaction whose request produced this entry.
    pub txn: TransactionId,
    /// That transaction's deadline (entries are served in this order and
    /// expired entries are skipped).
    pub deadline: SimTime,
    /// Requested mode; consecutive [`LockMode::Shared`] entries may be
    /// served in parallel.
    pub mode: LockMode,
}

/// A deadline-ordered list of clients an object should visit.
///
/// # Example
///
/// ```
/// use siteselect_locks::{ForwardEntry, ForwardList};
/// use siteselect_types::{ClientId, LockMode, ObjectId, SimTime, TransactionId};
///
/// let mut fl = ForwardList::new(ObjectId(1));
/// fl.push(ForwardEntry {
///     client: ClientId(2),
///     txn: TransactionId::new(ClientId(2), 0),
///     deadline: SimTime::from_secs(30),
///     mode: LockMode::Exclusive,
/// });
/// fl.push(ForwardEntry {
///     client: ClientId(1),
///     txn: TransactionId::new(ClientId(1), 0),
///     deadline: SimTime::from_secs(10),
///     mode: LockMode::Shared,
/// });
/// // Earliest deadline first.
/// assert_eq!(fl.entries()[0].client, ClientId(1));
/// assert_eq!(ForwardList::expected_messages(2), 5); // Figure 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardList {
    object: ObjectId,
    entries: Vec<ForwardEntry>,
}

impl ForwardList {
    /// Creates an empty forward list for `object`.
    #[must_use]
    pub fn new(object: ObjectId) -> Self {
        ForwardList {
            object,
            entries: Vec::new(),
        }
    }

    /// The object this list routes.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Inserts an entry in deadline order (stable for equal deadlines).
    pub fn push(&mut self, entry: ForwardEntry) {
        let pos = self
            .entries
            .iter()
            .position(|e| e.deadline > entry.deadline)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
    }

    /// The remaining entries, in service order.
    #[must_use]
    pub fn entries(&self) -> &[ForwardEntry] {
        &self.entries
    }

    /// Number of remaining entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pops the next entry whose transaction is still live at `now`,
    /// discarding (and returning in the second slot) the expired entries
    /// that were skipped — the paper uses the stored deadline "to ignore
    /// transactions that have missed their deadlines".
    pub fn pop_next_live(&mut self, now: SimTime) -> (Option<ForwardEntry>, Vec<ForwardEntry>) {
        let mut skipped = Vec::new();
        while !self.entries.is_empty() {
            let e = self.entries.remove(0);
            if e.deadline >= now {
                return (Some(e), skipped);
            }
            skipped.push(e);
        }
        (None, skipped)
    }

    /// The final destination currently scheduled — what the server reports
    /// as the object's location when asked (§4: "the server refers to the
    /// object's forward list and reports the last client in the list").
    #[must_use]
    pub fn last_client(&self) -> Option<ClientId> {
        self.entries.last().map(|e| e.client)
    }

    /// Messages needed to serve `n` grouped requests: `2n + 1` (§3.4).
    #[must_use]
    pub fn expected_messages(n: usize) -> usize {
        2 * n + 1
    }

    /// Messages plain strict 2PL needs for `n` requests on one object:
    /// `3n` (§3.4: n requests, n grants, n releases).
    #[must_use]
    pub fn two_pl_messages(n: usize) -> usize {
        3 * n
    }

    /// Worst-case messages for callback caching: `4n` (§3.4: request,
    /// grant, individual recall, return).
    #[must_use]
    pub fn callback_worst_case_messages(n: usize) -> usize {
        4 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(client: u16, deadline_s: u64, mode: LockMode) -> ForwardEntry {
        ForwardEntry {
            client: ClientId(client),
            txn: TransactionId::new(ClientId(client), deadline_s),
            deadline: SimTime::from_secs(deadline_s),
            mode,
        }
    }

    #[test]
    fn entries_sorted_by_deadline() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 30, LockMode::Exclusive));
        fl.push(entry(2, 10, LockMode::Shared));
        fl.push(entry(3, 20, LockMode::Exclusive));
        let order: Vec<u16> = fl.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(fl.last_client(), Some(ClientId(1)));
    }

    #[test]
    fn stable_for_equal_deadlines() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 10, LockMode::Shared));
        fl.push(entry(2, 10, LockMode::Shared));
        let order: Vec<u16> = fl.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn expired_entries_are_skipped() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 5, LockMode::Exclusive));
        fl.push(entry(2, 8, LockMode::Exclusive));
        fl.push(entry(3, 20, LockMode::Exclusive));
        let (next, skipped) = fl.pop_next_live(SimTime::from_secs(10));
        assert_eq!(next.unwrap().client, ClientId(3));
        assert_eq!(skipped.len(), 2);
        assert!(fl.is_empty());
    }

    #[test]
    fn all_expired_returns_none() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 5, LockMode::Shared));
        let (next, skipped) = fl.pop_next_live(SimTime::from_secs(100));
        assert!(next.is_none());
        assert_eq!(skipped.len(), 1);
    }

    #[test]
    fn live_boundary_is_inclusive() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 10, LockMode::Shared));
        let (next, _) = fl.pop_next_live(SimTime::from_secs(10));
        assert!(next.is_some());
    }

    #[test]
    fn message_count_formulas() {
        // Figure 1 vs Figure 2 for n = 2.
        assert_eq!(ForwardList::two_pl_messages(2), 6);
        assert_eq!(ForwardList::expected_messages(2), 5);
        assert_eq!(ForwardList::callback_worst_case_messages(2), 8);
        // Grouping always wins for n >= 1.
        for n in 1..100 {
            assert!(ForwardList::expected_messages(n) <= ForwardList::two_pl_messages(n));
            assert!(ForwardList::expected_messages(n) < ForwardList::callback_worst_case_messages(n));
        }
    }
}
