//! Callback (lock recall) bookkeeping for the server's global lock table.
//!
//! When a client's lock request conflicts with locks cached at other clients,
//! the server *calls back* those locks (§2). The callback message carries the
//! requester's desired mode so that a holder asked to give up an EL for a
//! shared request can merely **downgrade** to SL, return the object, and keep
//! reading — the paper's relaxation of pure callback locking.
//!
//! [`CallbackTracker`] remembers, per object, which holders still owe an
//! answer, so the server knows when the recall completed and the blocked
//! request can be granted.

use siteselect_obs::{Event, EventSink};
use siteselect_types::{
    ClientId, HashMap, InlineVec, LockMode, ObjectId, SimDuration, SimTime, SiteId,
};

/// Holders a recall newly messages, in the order they were offered. A recall
/// names one holder per cached copy, and copies are few, so the list stays
/// inline.
pub type Recalled = InlineVec<ClientId, 4>;

/// Progress of an in-flight recall after one acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallProgress {
    /// More holders still owe an acknowledgement.
    Pending {
        /// Number of outstanding acknowledgements.
        remaining: usize,
    },
    /// Every holder answered; the blocked request can proceed.
    Complete,
}

#[derive(Debug, Clone)]
struct Recall {
    /// Holders still owing an answer, sorted by client, with the instant
    /// their callback was issued (for lease expiry; `SimTime::ZERO` for
    /// untimed callers).
    outstanding: InlineVec<(ClientId, SimTime), 4>,
    desired: LockMode,
}

impl Recall {
    /// Where `client` sits in the sorted outstanding list: `Ok` at its
    /// entry, `Err` at the slot it would be inserted into.
    fn find(&self, client: ClientId) -> Result<usize, usize> {
        match self.outstanding.iter().position(|&(c, _)| c >= client) {
            Some(i) if self.outstanding.get(i).is_some_and(|&(c, _)| c == client) => Ok(i),
            Some(i) => Err(i),
            None => Err(self.outstanding.len()),
        }
    }

    /// Removes `client`'s entry; false if it owed nothing.
    fn settle(&mut self, client: ClientId) -> bool {
        match self.find(client) {
            Ok(i) => {
                self.outstanding.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

/// Tracks outstanding lock callbacks per object.
///
/// # Example
///
/// ```
/// use siteselect_locks::{CallbackTracker, RecallProgress};
/// use siteselect_types::{ClientId, LockMode, ObjectId};
///
/// let mut cb = CallbackTracker::new();
/// let targets = cb.begin(ObjectId(1), [ClientId(1), ClientId(2)], LockMode::Shared);
/// assert_eq!(targets.to_vec(), vec![ClientId(1), ClientId(2)]);
/// assert_eq!(
///     cb.acknowledge(ObjectId(1), ClientId(1)),
///     Some(RecallProgress::Pending { remaining: 1 })
/// );
/// assert_eq!(cb.acknowledge(ObjectId(1), ClientId(2)), Some(RecallProgress::Complete));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallbackTracker {
    recalls: HashMap<ObjectId, Recall>,
    issued: u64,
    completed: u64,
    sink: EventSink,
}

impl CallbackTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        CallbackTracker::default()
    }

    /// Attaches an event sink; recall issuance is emitted at the server
    /// site (acknowledgements are emitted by the caller, which knows the
    /// delivery time).
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// Starts (or extends) a recall of `object` from `holders`; `desired` is
    /// the mode the blocked requester wants, carried in the callback message.
    ///
    /// Returns the holders that must *newly* be messaged (holders already
    /// being recalled are not re-messaged). A stronger desired mode upgrades
    /// the recall in place.
    pub fn begin(
        &mut self,
        object: ObjectId,
        holders: impl IntoIterator<Item = ClientId>,
        desired: LockMode,
    ) -> Recalled {
        self.begin_at(object, holders, desired, SimTime::ZERO)
    }

    /// [`begin`](Self::begin) with the issue instant recorded, so unanswered
    /// callbacks can later be found by [`expired`](Self::expired). A holder
    /// already being recalled keeps its original issue time (it is not
    /// re-messaged, so its lease keeps running).
    pub fn begin_at(
        &mut self,
        object: ObjectId,
        holders: impl IntoIterator<Item = ClientId>,
        desired: LockMode,
        now: SimTime,
    ) -> Recalled {
        let recall = self.recalls.entry(object).or_insert_with(|| Recall {
            outstanding: InlineVec::new(),
            desired,
        });
        recall.desired = recall.desired.stronger(desired);
        let mut fresh = Recalled::new();
        for h in holders {
            if let Err(at) = recall.find(h) {
                recall.outstanding.insert(at, (h, now));
                fresh.push(h);
                self.issued += 1;
            }
        }
        if recall.outstanding.is_empty() {
            self.recalls.remove(&object);
        }
        if !fresh.is_empty() {
            let holders = fresh.len() as u32;
            self.sink
                .emit(now, SiteId::Server, || Event::CallbackIssued { object, holders });
        }
        fresh
    }

    /// Callbacks issued at least `lease` ago and still unanswered, sorted by
    /// `(object, holder)`. A zero lease disables expiry (the pre-fault
    /// behaviour: wait forever).
    ///
    /// The server presumes these holders dead: it should
    /// [`forget_client`](Self::forget_client) them, reclaim their locks and
    /// invalidate their cached copies.
    #[must_use]
    pub fn expired(&self, now: SimTime, lease: SimDuration) -> Vec<(ObjectId, ClientId)> {
        if lease.is_zero() {
            return Vec::new();
        }
        #[expect(clippy::disallowed_methods, reason = "collected, then sorted before returning")]
        let mut out: Vec<(ObjectId, ClientId)> = self
            .recalls
            .iter()
            .flat_map(|(&obj, r)| {
                r.outstanding
                    .iter()
                    .filter(move |&&(_, t)| now.duration_since(t) >= lease)
                    .map(move |&(c, _)| (obj, c))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Records that `from` answered the callback on `object` (returned or
    /// downgraded its lock). Returns `None` if no recall was outstanding for
    /// that pair.
    pub fn acknowledge(&mut self, object: ObjectId, from: ClientId) -> Option<RecallProgress> {
        let recall = self.recalls.get_mut(&object)?;
        if !recall.settle(from) {
            return None;
        }
        let remaining = recall.outstanding.len();
        if remaining == 0 {
            self.recalls.remove(&object);
            self.completed += 1;
            Some(RecallProgress::Complete)
        } else {
            Some(RecallProgress::Pending { remaining })
        }
    }

    /// The mode desired by the requester that triggered the recall on
    /// `object`, if a recall is outstanding.
    #[must_use]
    pub fn desired_mode(&self, object: ObjectId) -> Option<LockMode> {
        self.recalls.get(&object).map(|r| r.desired)
    }

    /// True if a recall of `object` is still outstanding.
    #[must_use]
    pub fn is_recalling(&self, object: ObjectId) -> bool {
        self.recalls.contains_key(&object)
    }

    /// True if `client` still owes an answer for `object`.
    #[must_use]
    pub fn is_outstanding(&self, object: ObjectId, client: ClientId) -> bool {
        self.recalls
            .get(&object)
            .is_some_and(|r| r.find(client).is_ok())
    }

    /// Drops a holder from every recall (client crashed / evicted without
    /// ack); returns the objects whose recalls completed as a result.
    pub fn forget_client(&mut self, client: ClientId) -> Vec<ObjectId> {
        let mut done = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "per-entry removal; the completed list is sorted before returning"
        )]
        self.recalls.retain(|&obj, r| {
            r.settle(client);
            if r.outstanding.is_empty() {
                done.push(obj);
                false
            } else {
                true
            }
        });
        self.completed += done.len() as u64;
        done.sort_unstable();
        done
    }

    /// Total callback messages issued.
    #[must_use]
    pub fn total_issued(&self) -> u64 {
        self.issued
    }

    /// Total recalls fully completed.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(4);

    #[test]
    fn recall_life_cycle() {
        let mut cb = CallbackTracker::new();
        let fresh = cb.begin(OBJ, [ClientId(1), ClientId(2)], LockMode::Exclusive);
        assert_eq!(fresh.len(), 2);
        assert!(cb.is_recalling(OBJ));
        assert_eq!(cb.desired_mode(OBJ), Some(LockMode::Exclusive));
        assert_eq!(
            cb.acknowledge(OBJ, ClientId(2)),
            Some(RecallProgress::Pending { remaining: 1 })
        );
        assert_eq!(cb.acknowledge(OBJ, ClientId(1)), Some(RecallProgress::Complete));
        assert!(!cb.is_recalling(OBJ));
        assert_eq!(cb.total_issued(), 2);
        assert_eq!(cb.total_completed(), 1);
    }

    #[test]
    fn duplicate_targets_not_remessaged() {
        let mut cb = CallbackTracker::new();
        let first = cb.begin(OBJ, [ClientId(1)], LockMode::Shared);
        assert_eq!(first.to_vec(), vec![ClientId(1)]);
        let second = cb.begin(OBJ, [ClientId(3), ClientId(1), ClientId(2)], LockMode::Shared);
        assert_eq!(second.to_vec(), vec![ClientId(3), ClientId(2)]);
        for (c, owes) in [(0, false), (1, true), (2, true), (3, true), (4, false)] {
            assert_eq!(cb.is_outstanding(OBJ, ClientId(c)), owes, "client {c}");
        }
    }

    #[test]
    fn desired_mode_upgrades_but_never_downgrades() {
        let mut cb = CallbackTracker::new();
        cb.begin(OBJ, [ClientId(1)], LockMode::Shared);
        assert_eq!(cb.desired_mode(OBJ), Some(LockMode::Shared));
        cb.begin(OBJ, [ClientId(2)], LockMode::Exclusive);
        assert_eq!(cb.desired_mode(OBJ), Some(LockMode::Exclusive));
        cb.begin(OBJ, [ClientId(3)], LockMode::Shared);
        assert_eq!(cb.desired_mode(OBJ), Some(LockMode::Exclusive));
    }

    #[test]
    fn unknown_acks_are_ignored() {
        let mut cb = CallbackTracker::new();
        assert_eq!(cb.acknowledge(OBJ, ClientId(1)), None);
        cb.begin(OBJ, [ClientId(1)], LockMode::Shared);
        assert_eq!(cb.acknowledge(OBJ, ClientId(9)), None);
        assert!(cb.is_recalling(OBJ));
    }

    #[test]
    fn empty_holder_set_is_a_noop() {
        let mut cb = CallbackTracker::new();
        let fresh = cb.begin(OBJ, [], LockMode::Shared);
        assert!(fresh.is_empty());
        assert!(!cb.is_recalling(OBJ));
    }

    #[test]
    fn leases_expire_only_after_the_full_lease() {
        let mut cb = CallbackTracker::new();
        let lease = SimDuration::from_secs(5);
        cb.begin_at(OBJ, [ClientId(1)], LockMode::Exclusive, SimTime::from_secs(10));
        cb.begin_at(ObjectId(9), [ClientId(2)], LockMode::Shared, SimTime::from_secs(12));

        assert!(cb.expired(SimTime::from_secs(14), lease).is_empty());
        assert_eq!(
            cb.expired(SimTime::from_secs(15), lease),
            vec![(OBJ, ClientId(1))]
        );
        assert_eq!(
            cb.expired(SimTime::from_secs(30), lease),
            vec![(OBJ, ClientId(1)), (ObjectId(9), ClientId(2))]
        );

        // An acknowledged callback no longer expires.
        cb.acknowledge(OBJ, ClientId(1));
        assert_eq!(
            cb.expired(SimTime::from_secs(30), lease),
            vec![(ObjectId(9), ClientId(2))]
        );
    }

    #[test]
    fn zero_lease_never_expires() {
        let mut cb = CallbackTracker::new();
        cb.begin_at(OBJ, [ClientId(1)], LockMode::Shared, SimTime::ZERO);
        assert!(cb.expired(SimTime::from_secs(10_000), SimDuration::ZERO).is_empty());
    }

    #[test]
    fn re_recall_keeps_the_original_lease_clock() {
        let mut cb = CallbackTracker::new();
        let lease = SimDuration::from_secs(5);
        cb.begin_at(OBJ, [ClientId(1)], LockMode::Shared, SimTime::from_secs(0));
        // Re-recalled later: not re-messaged, so the old clock keeps running.
        let fresh = cb.begin_at(OBJ, [ClientId(1)], LockMode::Exclusive, SimTime::from_secs(4));
        assert!(fresh.is_empty());
        assert_eq!(cb.expired(SimTime::from_secs(5), lease), vec![(OBJ, ClientId(1))]);
    }

    #[test]
    fn forget_client_completes_recalls() {
        let mut cb = CallbackTracker::new();
        cb.begin(ObjectId(1), [ClientId(1)], LockMode::Shared);
        cb.begin(ObjectId(2), [ClientId(1), ClientId(2)], LockMode::Shared);
        let done = cb.forget_client(ClientId(1));
        assert_eq!(done, vec![ObjectId(1)]);
        assert!(cb.is_recalling(ObjectId(2)));
        assert!(!cb.is_outstanding(ObjectId(2), ClientId(1)));
        assert!(cb.is_outstanding(ObjectId(2), ClientId(2)));
    }
}
