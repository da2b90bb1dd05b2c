//! A strict-2PL lock table with shared/exclusive modes, upgrades, downgrades
//! and configurable waiter ordering.
//!
//! Per-object state is stored in a dense slab indexed by `ObjectId` rather
//! than a `HashMap`: the paper's database is a flat array of objects
//! numbered `0..10_000`, so a bounds-checked vector index replaces a SipHash
//! round plus probe on every request, release and promotion. A slot whose
//! state empties out returns its box to a recycling pool, so live boxes
//! track the *concurrently* locked set and steady-state first-touch
//! requests pop a warm box instead of allocating. Holder and waiter lists
//! use [`InlineVec`] so the common one- or two-entry case never touches the
//! heap.
//!
//! Each holder entry also records its slot in the owner's held list, so a
//! release swap-removes that slot in O(1) instead of scanning a list that,
//! under inter-transaction caching, runs to ~1 000 locks per client.

use std::fmt::Debug;
use std::hash::Hash;

use siteselect_types::{HashMap, InlineVec, LockMode, ObjectId, SimTime};

/// Trait alias for lock-owner identifiers (clients at the server's global
/// table, transactions at a site's local table).
pub trait LockOwner: Copy + Eq + Hash + Ord + Debug {}
impl<T: Copy + Eq + Hash + Ord + Debug> LockOwner for T {}

/// Ordering of blocked requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-come first-served (the non-real-time baseline, §3.3).
    #[default]
    Fifo,
    /// Earliest-deadline-first: waiters are served in deadline order, the
    /// real-time ordering used by the LS system's object request scheduling.
    Deadline,
}

/// A blocked lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter<O> {
    /// Who is waiting.
    pub owner: O,
    /// Requested mode.
    pub mode: LockMode,
    /// Deadline of the requesting transaction (drives [`QueueDiscipline::Deadline`]).
    pub deadline: SimTime,
    /// Set on a *granted* waiter whose grant converted the owner's held
    /// shared lock in place. Undoing such a grant must downgrade back to
    /// shared rather than release the entry outright.
    pub upgrade: bool,
    seq: u64,
}

/// The lock owners a request conflicts with: the holders of a contended
/// object (one writer, or a few readers), kept inline.
pub type Conflicts<O> = InlineVec<O, 4>;

/// Waiters granted by one release, downgrade or cancellation, in grant
/// order. A release usually promotes one writer or a short run of readers,
/// so the list stays inline.
pub type Granted<O> = InlineVec<Waiter<O>, 2>;

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire<O> {
    /// The lock was granted immediately.
    Granted,
    /// The owner already held a covering lock.
    AlreadyHeld,
    /// A held shared lock was upgraded to exclusive immediately.
    Upgraded,
    /// The request conflicts and was queued behind the listed holders.
    Blocked {
        /// Current holders whose locks conflict with the request.
        conflicts: Conflicts<O>,
    },
}

impl<O> Acquire<O> {
    /// True if the request holds the lock after this call.
    #[must_use]
    pub fn is_granted(&self) -> bool {
        matches!(
            self,
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded
        )
    }
}

#[derive(Debug)]
struct ObjectLocks<O> {
    // (owner, mode, the owner's `held_by` slot naming this object)
    holders: InlineVec<(O, LockMode, u32), 2>,
    waiters: InlineVec<Waiter<O>, 2>,
}

impl<O> Default for ObjectLocks<O> {
    fn default() -> Self {
        ObjectLocks {
            holders: InlineVec::new(),
            waiters: InlineVec::new(),
        }
    }
}

impl<O: LockOwner> ObjectLocks<O> {
    /// Removes `owner`'s holder entry, keeping the others in order;
    /// returns its `held_by` slot.
    fn remove_holder(&mut self, owner: O) -> Option<u32> {
        let pos = self.holders.iter().position(|h| h.0 == owner)?;
        Some(self.holders.remove(pos).2)
    }

    fn holder_mode(&self, owner: O) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|h| h.0 == owner)
            .map(|h| h.1)
    }

    /// Allocation-free conflict probe: the granted fast path only needs to
    /// know *whether* a conflicting holder exists, not who they are.
    fn has_conflict(&self, owner: O, mode: LockMode) -> bool {
        self.holders
            .iter()
            .any(|(o, m, _)| *o != owner && !m.compatible_with(mode))
    }

    fn conflicts_with(&self, owner: O, mode: LockMode) -> Conflicts<O> {
        self.holders
            .iter()
            .filter(|(o, m, _)| *o != owner && !m.compatible_with(mode))
            .map(|h| h.0)
            .collect()
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// Upper bound on how many per-object boxes [`LockTable::reserve_objects`]
/// pre-loads into the recycling pool. The pool only has to cover objects
/// locked *concurrently* — bounded by in-flight transactions times accesses
/// per transaction, far below the database size — so seeding is capped well
/// under the paper's 10 000-object database.
const FREE_POOL_SEED: usize = 1024;

/// Waiters cancelled by [`LockTable::cancel_expired`], tagged by object.
pub type ExpiredWaiters<O> = Vec<(ObjectId, Waiter<O>)>;
/// Grants unblocked by a pruning pass, grouped by object.
pub type UnblockedGrants<O> = Vec<(ObjectId, Granted<O>)>;

/// A strict-2PL lock table.
///
/// See the [crate-level example](crate) for typical use. Grants are
/// conservative: a new request is granted only when it is compatible with
/// every current holder *and* no request is already queued (preventing
/// starvation of queued writers); otherwise it waits in FIFO or deadline
/// order. Releases promote the longest prefix of now-grantable waiters.
///
/// Object state lives in a dense slab indexed by object id; an emptied
/// slot's box is recycled through a free pool, so `objects.len()` tracks the
/// largest id ever locked, not the live count (see
/// [`active_objects`](Self::active_objects)).
#[derive(Debug)]
pub struct LockTable<O> {
    discipline: QueueDiscipline,
    objects: Vec<Option<Box<ObjectLocks<O>>>>,
    // Retired per-object state, recycled by the next first-touch request.
    // A slot whose holders and waiters both empty out returns its box here,
    // so the slab's live boxes stay proportional to the *concurrently*
    // locked set (not every object ever touched) and steady-state requests
    // never allocate: they pop a warm box instead.
    free: Vec<Box<ObjectLocks<O>>>,
    // Objects each owner holds, in no particular order; a holder entry's
    // slot names its position here.
    held_by: HashMap<O, InlineVec<ObjectId, 16>>,
    // Reverse index of queued waiters (multiset: one entry per queued
    // waiter), so release_all never has to scan the whole slab for an
    // owner's pending requests.
    waits_of: HashMap<O, InlineVec<ObjectId, 4>>,
    // Recycled between release_all / cancel_expired calls so the per-
    // transaction cleanup path stays allocation-free at steady state.
    scratch: Vec<ObjectId>,
    next_seq: u64,
}

impl<O: LockOwner> LockTable<O> {
    /// Creates an empty table with the given waiter ordering.
    #[must_use]
    pub fn new(discipline: QueueDiscipline) -> Self {
        LockTable {
            discipline,
            objects: Vec::new(),
            free: Vec::new(),
            held_by: HashMap::default(),
            waits_of: HashMap::default(),
            scratch: Vec::new(),
            next_seq: 0,
        }
    }

    /// Removes one instance of `object` from `owner`'s waiting index.
    fn forget_wait_one(
        waits_of: &mut HashMap<O, InlineVec<ObjectId, 4>>,
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            let pos = v.iter().position(|&o| o == object);
            if let Some(pos) = pos {
                v.remove(pos);
            }
            if v.is_empty() {
                waits_of.remove(&owner);
            }
        }
    }

    /// Removes every instance of `object` from `owner`'s waiting index
    /// (the counterpart of a `retain` that drops all of the owner's
    /// waiters on that object).
    fn forget_wait_all(
        waits_of: &mut HashMap<O, InlineVec<ObjectId, 4>>,
        owner: O,
        object: ObjectId,
    ) {
        if let Some(v) = waits_of.get_mut(&owner) {
            v.retain(|&o| o != object);
            if v.is_empty() {
                waits_of.remove(&owner);
            }
        }
    }

    /// Pre-sizes the slab for object ids `0..n` and seeds the recycling
    /// pool, so first-touch lock requests mid-run neither grow the slab nor
    /// allocate per-object state. Engines that know the database size call
    /// this at setup; the slab still grows on demand past `n`, and the pool
    /// is capacity rather than a limit — a workload that pins more objects
    /// at once than the seed simply allocates the excess on demand.
    pub fn reserve_objects(&mut self, n: usize) {
        if self.objects.len() < n {
            self.objects.resize_with(n, || None);
        }
        let seed = n.min(FREE_POOL_SEED);
        while self.free.len() < seed {
            self.free.push(Box::default());
        }
    }

    /// Records a grant: `owner` holds `mode` on `object`.
    fn grant(
        held_by: &mut HashMap<O, InlineVec<ObjectId, 16>>,
        entry: &mut ObjectLocks<O>,
        object: ObjectId,
        owner: O,
        mode: LockMode,
    ) {
        let held = held_by.entry(owner).or_default();
        entry.holders.push((owner, mode, held.len() as u32));
        held.push(object);
    }

    /// Swap-removes `slot` from `owner`'s held list and re-points the
    /// holder entry of the object moved into it.
    fn forget_held(&mut self, owner: O, slot: u32) {
        let Some(held) = self.held_by.get_mut(&owner) else {
            return;
        };
        held.swap_remove(slot as usize);
        let Some(&moved) = held.get(slot as usize) else {
            return;
        };
        if let Some(e) = self
            .objects
            .get_mut(moved.index() as usize)
            .and_then(|s| s.as_deref_mut())
        {
            if let Some(h) = e.holders.iter_mut().find(|h| h.0 == owner) {
                h.2 = slot;
            }
        }
    }

    fn entry(&self, object: ObjectId) -> Option<&ObjectLocks<O>> {
        self.objects
            .get(object.index() as usize)
            .and_then(|slot| slot.as_deref())
    }

    /// Mutable entry access, growing the slab on demand. An empty slot is
    /// filled from the recycling pool, so inside a pre-seeded table a fresh
    /// object costs no allocation. Takes the two fields it needs, so
    /// callers keep `held_by` borrowable.
    #[expect(clippy::indexing_slicing, reason = "the slab is resized to cover idx just above")]
    fn entry_mut<'a>(
        objects: &'a mut Vec<Option<Box<ObjectLocks<O>>>>,
        free: &mut Vec<Box<ObjectLocks<O>>>,
        object: ObjectId,
    ) -> &'a mut ObjectLocks<O> {
        let idx = object.index() as usize;
        if idx >= objects.len() {
            objects.resize_with(idx + 1, || None);
        }
        objects[idx].get_or_insert_with(|| free.pop().unwrap_or_default())
    }

    /// Returns an emptied slot's box to the recycling pool.
    fn reclaim(&mut self, object: ObjectId) {
        let idx = object.index() as usize;
        if let Some(slot) = self.objects.get_mut(idx) {
            if slot.as_deref().is_some_and(ObjectLocks::is_unused) {
                if let Some(boxed) = slot.take() {
                    self.free.push(boxed);
                }
            }
        }
    }

    /// Requests `mode` on `object` for `owner`.
    ///
    /// `deadline` orders the wait queue under
    /// [`QueueDiscipline::Deadline`]; it is remembered either way so
    /// callers can prune expired waiters with
    /// [`cancel_expired`](Self::cancel_expired).
    pub fn request(
        &mut self,
        object: ObjectId,
        owner: O,
        mode: LockMode,
        deadline: SimTime,
    ) -> Acquire<O> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let discipline = self.discipline;
        let entry = Self::entry_mut(&mut self.objects, &mut self.free, object);

        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return Acquire::AlreadyHeld;
            }
            // Upgrade SL -> EL: immediate only as the sole holder.
            if entry.holders.iter().all(|h| h.0 == owner) {
                for h in entry.holders.iter_mut() {
                    if h.0 == owner {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return Acquire::Upgraded;
            }
            let others: Conflicts<O> = entry
                .holders
                .iter()
                .filter(|h| h.0 != owner)
                .map(|h| h.0)
                .collect();
            let waiter = Waiter {
                owner,
                mode,
                deadline,
                upgrade: false,
                seq,
            };
            // Upgrades go to the front of their discipline class so the
            // upgrading holder cannot deadlock behind newcomers it blocks.
            Self::insert_waiter(&mut entry.waiters, waiter, discipline, true);
            self.waits_of.entry(owner).or_default().push(object);
            return Acquire::Blocked { conflicts: others };
        }

        if !entry.has_conflict(owner, mode) && entry.waiters.is_empty() {
            Self::grant(&mut self.held_by, entry, object, owner, mode);
            return Acquire::Granted;
        }
        let conflicts = entry.conflicts_with(owner, mode);
        let blockers = if conflicts.is_empty() {
            // Blocked behind queued waiters rather than holders.
            entry.waiters.iter().map(|w| w.owner).collect()
        } else {
            conflicts
        };
        let waiter = Waiter {
            owner,
            mode,
            deadline,
            upgrade: false,
            seq,
        };
        Self::insert_waiter(&mut entry.waiters, waiter, discipline, false);
        self.waits_of.entry(owner).or_default().push(object);
        Acquire::Blocked { conflicts: blockers }
    }

    fn insert_waiter(
        waiters: &mut InlineVec<Waiter<O>, 2>,
        w: Waiter<O>,
        discipline: QueueDiscipline,
        upgrade_priority: bool,
    ) {
        if upgrade_priority {
            waiters.insert(0, w);
            return;
        }
        match discipline {
            QueueDiscipline::Fifo => waiters.push(w),
            QueueDiscipline::Deadline => {
                let pos = waiters
                    .iter()
                    .position(|x| (x.deadline, x.seq) > (w.deadline, w.seq))
                    .unwrap_or(waiters.len());
                waiters.insert(pos, w);
            }
        }
    }

    /// Grants `mode` on `object` to `owner` immediately if it is compatible
    /// with every current holder, *bypassing* the wait queue. Used by the
    /// load-sharing grant-all fast path, where a shared grant may overtake
    /// queued compatible readers. Returns `false` (taking no lock) when a
    /// conflicting holder exists.
    pub fn try_grant_bypass(&mut self, object: ObjectId, owner: O, mode: LockMode) -> bool {
        let entry = Self::entry_mut(&mut self.objects, &mut self.free, object);
        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return true;
            }
            let sole = entry.holders.iter().all(|h| h.0 == owner);
            if sole {
                for h in entry.holders.iter_mut() {
                    if h.0 == owner {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return true;
            }
            return false;
        }
        if entry.has_conflict(owner, mode) {
            return false;
        }
        Self::grant(&mut self.held_by, entry, object, owner, mode);
        true
    }

    /// Releases `owner`'s lock on `object` (and removes any queued request
    /// by the same owner). Returns the waiters granted as a result, in grant
    /// order.
    pub fn release(&mut self, object: ObjectId, owner: O) -> Granted<O> {
        let idx = object.index() as usize;
        let Some(entry) = self.objects.get_mut(idx).and_then(|s| s.as_deref_mut()) else {
            return Granted::new();
        };
        let slot = entry.remove_holder(owner);
        let waiting = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        if entry.waiters.len() != waiting {
            Self::forget_wait_all(&mut self.waits_of, owner, object);
        }
        if let Some(slot) = slot {
            self.forget_held(owner, slot);
        }
        let granted = self.promote(object);
        self.reclaim(object);
        granted
    }

    /// Releases every lock `owner` holds or awaits; returns, per object, the
    /// newly granted waiters.
    #[expect(
        clippy::indexing_slicing,
        reason = "split was taken from work.len() before extending it"
    )]
    pub fn release_all(&mut self, owner: O) -> UnblockedGrants<O> {
        // Held objects first (ascending), then awaited objects (ascending),
        // matching the order of the original held-then-slab-scan walk; an
        // object appearing in both lists is processed twice, which is a
        // harmless no-op the second time. The work list is a recycled
        // scratch buffer so the common commit path never allocates.
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        if let Some(held) = self.held_by.remove(&owner) {
            work.extend(held.iter().copied());
        }
        work.sort_unstable();
        work.dedup();
        let split = work.len();
        if let Some(queued) = self.waits_of.remove(&owner) {
            work.extend(queued.iter().copied());
        }
        work[split..].sort_unstable();
        let mut out = Vec::new();
        for &obj in &work {
            if let Some(entry) = self
                .objects
                .get_mut(obj.index() as usize)
                .and_then(|s| s.as_deref_mut())
            {
                entry.remove_holder(owner);
                entry.waiters.retain(|w| w.owner != owner);
            }
            let granted = self.promote(obj);
            self.reclaim(obj);
            if !granted.is_empty() {
                out.push((obj, granted));
            }
        }
        work.clear();
        self.scratch = work;
        out
    }

    /// Downgrades `owner`'s exclusive lock on `object` to shared (the
    /// callback optimization of §2). Returns newly granted waiters. No-op
    /// if the owner does not hold an EL.
    pub fn downgrade(&mut self, object: ObjectId, owner: O) -> Granted<O> {
        let idx = object.index() as usize;
        let Some(entry) = self.objects.get_mut(idx).and_then(|s| s.as_deref_mut()) else {
            return Granted::new();
        };
        let mut changed = false;
        for h in entry.holders.iter_mut() {
            if h.0 == owner && h.1 == LockMode::Exclusive {
                h.1 = LockMode::Shared;
                changed = true;
            }
        }
        if changed {
            self.promote(object)
        } else {
            Granted::new()
        }
    }

    /// Removes a queued (not yet granted) request. Returns `true` if one was
    /// removed; promotes followers that may now be grantable.
    pub fn cancel_wait(&mut self, object: ObjectId, owner: O) -> (bool, Granted<O>) {
        let idx = object.index() as usize;
        let Some(entry) = self.objects.get_mut(idx).and_then(|s| s.as_deref_mut()) else {
            return (false, Granted::new());
        };
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        let removed = entry.waiters.len() != before;
        if removed {
            Self::forget_wait_all(&mut self.waits_of, owner, object);
        }
        let granted = if removed {
            self.promote(object)
        } else {
            Granted::new()
        };
        self.reclaim(object);
        (removed, granted)
    }

    /// Drops every queued waiter whose deadline precedes `now`; returns the
    /// cancelled waiters and any grants unblocked by the pruning.
    pub fn cancel_expired(&mut self, now: SimTime) -> (ExpiredWaiters<O>, UnblockedGrants<O>) {
        let mut expired = Vec::new();
        if self.waits_of.is_empty() {
            // Nothing is blocked anywhere: the sweep is free. This is the
            // common case, and it must not walk the object slab.
            return (expired, Vec::new());
        }
        // Visit only objects with queued waiters, straight from the
        // reverse index; pruning and promotion are no-ops elsewhere.
        let mut touched = std::mem::take(&mut self.scratch);
        touched.clear();
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "the touched set is sorted and deduplicated right after"
        )]
        for objs in self.waits_of.values() {
            touched.extend(objs.iter().copied());
        }
        touched.sort_unstable();
        touched.dedup();
        for &obj in &touched {
            let Some(entry) = self
                .objects
                .get_mut(obj.index() as usize)
                .and_then(|s| s.as_deref_mut())
            else {
                continue;
            };
            for w in entry.waiters.iter() {
                if w.deadline < now {
                    expired.push((obj, *w));
                }
            }
            entry.waiters.retain(|w| w.deadline >= now);
        }
        for &(obj, w) in &expired {
            Self::forget_wait_one(&mut self.waits_of, w.owner, obj);
        }
        let mut grants = Vec::new();
        for &obj in &touched {
            let g = self.promote(obj);
            self.reclaim(obj);
            if !g.is_empty() {
                grants.push((obj, g));
            }
        }
        touched.clear();
        self.scratch = touched;
        (expired, grants)
    }

    /// Promotes the longest grantable prefix of the wait queue.
    fn promote(&mut self, object: ObjectId) -> Granted<O> {
        let idx = object.index() as usize;
        let Some(entry) = self.objects.get_mut(idx).and_then(|s| s.as_deref_mut()) else {
            return Granted::new();
        };
        let mut granted = Granted::new();
        while let Some(head) = entry.waiters.first().copied() {
            // Upgrade waiter: grantable when it is the sole holder.
            if let Some(held) = entry.holder_mode(head.owner) {
                let sole = entry.holders.iter().all(|h| h.0 == head.owner);
                if sole && held == LockMode::Shared && head.mode == LockMode::Exclusive {
                    for h in entry.holders.iter_mut() {
                        if h.0 == head.owner {
                            h.1 = LockMode::Exclusive;
                        }
                    }
                    entry.waiters.remove(0);
                    Self::forget_wait_one(&mut self.waits_of, head.owner, object);
                    granted.push(Waiter {
                        upgrade: true,
                        ..head
                    });
                    continue;
                }
                break;
            }
            if !entry.has_conflict(head.owner, head.mode) {
                Self::grant(&mut self.held_by, entry, object, head.owner, head.mode);
                entry.waiters.remove(0);
                Self::forget_wait_one(&mut self.waits_of, head.owner, object);
                granted.push(head);
            } else {
                break;
            }
        }
        granted
    }

    /// Current holders of `object` with their modes, in grant order.
    pub fn holders(&self, object: ObjectId) -> impl Iterator<Item = (O, LockMode)> + '_ {
        self.entry(object)
            .into_iter()
            .flat_map(|e| e.holders.iter().map(|&(o, m, _)| (o, m)))
    }

    /// True if anyone holds a lock on `object`.
    #[must_use]
    pub fn has_holders(&self, object: ObjectId) -> bool {
        self.entry(object).is_some_and(|e| !e.holders.is_empty())
    }

    /// The mode `owner` holds on `object`, if any.
    #[must_use]
    pub fn held_mode(&self, object: ObjectId, owner: O) -> Option<LockMode> {
        self.entry(object).and_then(|e| e.holder_mode(owner))
    }

    /// Holders whose locks conflict with a hypothetical request — the input
    /// to the paper's H2 site-selection heuristic.
    #[must_use]
    pub fn conflicting_holders(&self, object: ObjectId, owner: O, mode: LockMode) -> Conflicts<O> {
        self.entry(object)
            .map(|e| e.conflicts_with(owner, mode))
            .unwrap_or_default()
    }

    /// Queued waiters on `object`, in service order.
    pub fn waiters(&self, object: ObjectId) -> impl Iterator<Item = Waiter<O>> + '_ {
        self.entry(object)
            .into_iter()
            .flat_map(|e| e.waiters.iter().copied())
    }

    /// True if any request is queued on `object`.
    #[must_use]
    pub fn has_waiters(&self, object: ObjectId) -> bool {
        self.entry(object).is_some_and(|e| !e.waiters.is_empty())
    }

    /// Objects currently locked by `owner`.
    #[must_use]
    pub fn locks_of(&self, owner: O) -> Vec<ObjectId> {
        let mut v = self
            .held_by
            .get(&owner)
            .map(InlineVec::to_vec)
            .unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of objects with any lock state.
    #[must_use]
    pub fn active_objects(&self) -> usize {
        self.objects.iter().flatten().filter(|e| !e.is_unused()).count()
    }

    /// Internal consistency check (tests / debug builds): no conflicting
    /// holders coexist, each holder's slot names its object in the owner's
    /// held list, and the reverse indexes hold nothing else.
    #[expect(clippy::indexing_slicing, reason = "i < j < holders.len() by the loop bounds")]
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut held = 0usize;
        for (i, slot) in self.objects.iter().enumerate() {
            let Some(e) = slot.as_deref() else { continue };
            let obj = ObjectId(i as u32);
            let holders: Vec<(O, LockMode, u32)> = e.holders.to_vec();
            for i in 0..holders.len() {
                for j in (i + 1)..holders.len() {
                    let (a, ma, _) = holders[i];
                    let (b, mb, _) = holders[j];
                    if a == b {
                        return Err(format!("{obj}: duplicate holder {a:?}"));
                    }
                    if !ma.compatible_with(mb) {
                        return Err(format!(
                            "{obj}: conflicting holders {a:?}:{ma} and {b:?}:{mb}"
                        ));
                    }
                }
            }
            for &(o, _, slot) in &holders {
                let listed = self.held_by.get(&o).and_then(|v| v.get(slot as usize));
                if listed != Some(&obj) {
                    return Err(format!(
                        "{obj}: holder {o:?} slot {slot} names {listed:?} in its held list"
                    ));
                }
                held += 1;
            }
            for w in e.waiters.iter() {
                let indexed = self
                    .waits_of
                    .get(&w.owner)
                    .map_or(0, |v| v.iter().filter(|&&x| x == obj).count());
                let queued = e.waiters.iter().filter(|x| x.owner == w.owner).count();
                if indexed != queued {
                    return Err(format!(
                        "{obj}: waiter {:?} indexed {indexed}x but queued {queued}x",
                        w.owner
                    ));
                }
            }
        }
        // No stale entries: every held-list slot is named by one holder (the
        // slots checked above are distinct), and everything in the waiting
        // index points at a live waiter.
        #[expect(
            clippy::disallowed_methods,
            reason = "a sum is independent of visit order"
        )]
        let listed: usize = self.held_by.values().map(InlineVec::len).sum();
        if listed != held {
            return Err(format!("held lists name {listed} locks, holders {held}"));
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "validation sweep; any violation fails the check regardless of visit order"
        )]
        for (o, objs) in &self.waits_of {
            if objs.is_empty() {
                return Err(format!("empty waits_of entry for {o:?}"));
            }
            for &obj in objs.iter() {
                let live = self
                    .entry(obj)
                    .is_some_and(|e| e.waiters.iter().any(|w| w.owner == *o));
                if !live {
                    return Err(format!("stale waits_of entry {o:?} -> {obj}"));
                }
            }
        }
        Ok(())
    }
}

impl<O: LockOwner> Default for LockTable<O> {
    fn default() -> Self {
        LockTable::new(QueueDiscipline::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;
    use LockMode::{Exclusive, Shared};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn table() -> LockTable<ClientId> {
        LockTable::new(QueueDiscipline::Fifo)
    }

    const A: ClientId = ClientId(0);
    const B: ClientId = ClientId(1);
    const C: ClientId = ClientId(2);
    const OBJ: ObjectId = ObjectId(7);

    #[test]
    fn shared_locks_coexist() {
        let mut lt = table();
        assert!(lt.request(OBJ, A, Shared, t(10)).is_granted());
        assert!(lt.request(OBJ, B, Shared, t(10)).is_granted());
        assert_eq!(lt.holders(OBJ).count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lt = table();
        assert!(lt.request(OBJ, A, Exclusive, t(10)).is_granted());
        let r = lt.request(OBJ, B, Shared, t(10));
        assert_eq!(r, Acquire::Blocked { conflicts: [A].into_iter().collect() });
        let r = lt.request(OBJ, C, Exclusive, t(10));
        assert!(matches!(r, Acquire::Blocked { .. }));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn already_held_and_covering() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(lt.request(OBJ, A, Shared, t(10)), Acquire::AlreadyHeld);
        assert_eq!(lt.request(OBJ, A, Exclusive, t(10)), Acquire::AlreadyHeld);
    }

    #[test]
    fn sole_holder_upgrade_is_immediate() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        assert_eq!(lt.request(OBJ, A, Exclusive, t(10)), Acquire::Upgraded);
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_then_wins() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Shared, t(10));
        let r = lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(r, Acquire::Blocked { conflicts: [B].into_iter().collect() });
        let granted = lt.release(OBJ, B);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].owner, A);
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_promotes_fifo_order() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Exclusive, t(10));
        lt.request(OBJ, C, Exclusive, t(5));
        let granted = lt.release(OBJ, A);
        // FIFO: B first even though C has an earlier deadline.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].owner, B);
    }

    #[test]
    fn deadline_discipline_orders_by_deadline() {
        let mut lt: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Exclusive, t(20));
        lt.request(OBJ, C, Exclusive, t(5));
        let granted = lt.release(OBJ, A);
        assert_eq!(granted[0].owner, C);
    }

    #[test]
    fn release_grants_batch_of_readers() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Shared, t(10));
        lt.request(OBJ, C, Shared, t(10));
        let granted = lt.release(OBJ, A);
        assert_eq!(granted.len(), 2);
        assert_eq!(lt.holders(OBJ).count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn new_reader_does_not_starve_queued_writer() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Exclusive, t(10)); // queued
        let r = lt.request(OBJ, C, Shared, t(10));
        assert!(
            matches!(r, Acquire::Blocked { .. }),
            "reader must queue behind writer"
        );
        let g = lt.release(OBJ, A);
        assert_eq!(g[0].owner, B);
        let g = lt.release(OBJ, B);
        assert_eq!(g[0].owner, C);
    }

    #[test]
    fn downgrade_unblocks_readers() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        lt.request(OBJ, B, Shared, t(10));
        let granted = lt.downgrade(OBJ, A);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].owner, B);
        assert_eq!(lt.held_mode(OBJ, A), Some(Shared));
        assert_eq!(lt.held_mode(OBJ, B), Some(Shared));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn downgrade_of_shared_is_noop() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        assert!(lt.downgrade(OBJ, A).is_empty());
        assert_eq!(lt.held_mode(OBJ, A), Some(Shared));
    }

    #[test]
    fn cancel_wait_removes_and_promotes() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Exclusive, t(10));
        lt.request(OBJ, C, Shared, t(10));
        let (removed, granted) = lt.cancel_wait(OBJ, B);
        assert!(removed);
        // C is now compatible with holder A.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].owner, C);
        let (removed, _) = lt.cancel_wait(OBJ, B);
        assert!(!removed);
    }

    #[test]
    fn cancel_expired_prunes_old_deadlines() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(100));
        lt.request(OBJ, B, Exclusive, t(5));
        lt.request(OBJ, C, Exclusive, t(50));
        let (expired, _grants) = lt.cancel_expired(t(10));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1.owner, B);
        assert_eq!(lt.waiters(OBJ).count(), 1);
        assert!(lt.has_waiters(OBJ) && lt.has_holders(OBJ));
    }

    #[test]
    fn release_all_frees_every_object() {
        let mut lt = table();
        let o1 = ObjectId(1);
        let o2 = ObjectId(2);
        lt.request(o1, A, Exclusive, t(10));
        lt.request(o2, A, Shared, t(10));
        lt.request(o1, B, Shared, t(10));
        lt.request(o2, B, Exclusive, t(10));
        let grants = lt.release_all(A);
        assert_eq!(grants.len(), 2);
        assert_eq!(lt.locks_of(A), Vec::<ObjectId>::new());
        assert_eq!(lt.held_mode(o1, B), Some(Shared));
        assert_eq!(lt.held_mode(o2, B), Some(Exclusive));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn conflicting_holders_reports_for_h2() {
        let mut lt = table();
        lt.request(OBJ, A, Shared, t(10));
        lt.request(OBJ, B, Shared, t(10));
        assert_eq!(lt.conflicting_holders(OBJ, C, Exclusive).to_vec(), vec![A, B]);
        assert!(lt.conflicting_holders(OBJ, C, Shared).is_empty());
        // A requesting EL conflicts only with B.
        assert_eq!(lt.conflicting_holders(OBJ, A, Exclusive).to_vec(), vec![B]);
    }

    #[test]
    fn locks_of_tracks_holdings() {
        let mut lt = table();
        lt.request(ObjectId(3), A, Shared, t(10));
        lt.request(ObjectId(1), A, Exclusive, t(10));
        assert_eq!(lt.locks_of(A), vec![ObjectId(1), ObjectId(3)]);
        lt.release(ObjectId(1), A);
        assert_eq!(lt.locks_of(A), vec![ObjectId(3)]);
    }

    #[test]
    fn empty_object_state_is_garbage_collected() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        assert_eq!(lt.active_objects(), 1);
        lt.release(OBJ, A);
        assert_eq!(lt.active_objects(), 0);
        assert!(!lt.has_holders(OBJ) && !lt.has_waiters(OBJ));
    }

    #[test]
    fn bypass_grants_compatible_and_refuses_conflicts() {
        let mut lt = table();
        assert!(lt.request(OBJ, A, Shared, t(10)).is_granted());
        lt.request(OBJ, B, Exclusive, t(10)); // queued writer
        // A shared bypass overtakes the queued writer (compatible with the
        // holder)...
        assert!(lt.try_grant_bypass(OBJ, C, Shared));
        assert_eq!(lt.held_mode(OBJ, C), Some(Shared));
        // ...but an exclusive bypass cannot get past the shared holders.
        let d = ClientId(3);
        assert!(!lt.try_grant_bypass(OBJ, d, Exclusive));
        assert_eq!(lt.held_mode(OBJ, d), None);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn bypass_covering_and_sole_upgrade() {
        let mut lt = table();
        lt.request(OBJ, A, Exclusive, t(10));
        // Covering: no-op success.
        assert!(lt.try_grant_bypass(OBJ, A, Shared));
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
        lt.release(OBJ, A);
        // Sole-holder upgrade through the bypass.
        lt.request(OBJ, A, Shared, t(10));
        assert!(lt.try_grant_bypass(OBJ, A, Exclusive));
        assert_eq!(lt.held_mode(OBJ, A), Some(Exclusive));
        // Contended upgrade refused.
        lt.downgrade(OBJ, A);
        lt.request(OBJ, B, Shared, t(10));
        assert!(!lt.try_grant_bypass(OBJ, A, Exclusive));
        assert_eq!(lt.held_mode(OBJ, A), Some(Shared));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn bypass_on_fresh_object_grants() {
        let mut lt = table();
        assert!(lt.try_grant_bypass(OBJ, A, Exclusive));
        assert_eq!(lt.locks_of(A), vec![OBJ]);
        let grants = lt.release(OBJ, A);
        assert!(grants.is_empty());
        assert_eq!(lt.active_objects(), 0);
    }

    #[test]
    fn release_of_unknown_is_safe() {
        let mut lt = table();
        assert!(lt.release(OBJ, A).is_empty());
        assert!(lt.downgrade(OBJ, A).is_empty());
        assert!(lt.release_all(A).is_empty());
    }
}
