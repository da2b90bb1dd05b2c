//! The pre-optimization `HashMap`-based lock table, kept verbatim as a
//! test-only reference oracle.
//!
//! The dense slab rewrite of [`crate::table::LockTable`] must be
//! behaviorally indistinguishable from this implementation — identical
//! grant orders, blocked-conflict reports and observable state for every
//! operation sequence. The property test at the bottom of this module
//! drives both tables with long random acquire/release/upgrade/downgrade/
//! cancel sequences and asserts they never diverge.

use siteselect_types::{HashMap, LockMode, ObjectId, SimTime};

use crate::table::{Acquire, LockOwner, QueueDiscipline};

/// A blocked request in the reference table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefWaiter<O> {
    pub owner: O,
    pub mode: LockMode,
    pub deadline: SimTime,
    seq: u64,
}

#[derive(Debug)]
struct ObjectLocks<O> {
    holders: Vec<(O, LockMode)>,
    waiters: Vec<RefWaiter<O>>,
}

impl<O> Default for ObjectLocks<O> {
    fn default() -> Self {
        ObjectLocks {
            holders: Vec::new(),
            waiters: Vec::new(),
        }
    }
}

impl<O: LockOwner> ObjectLocks<O> {
    fn holder_mode(&self, owner: O) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(o, _)| *o == owner)
            .map(|&(_, m)| m)
    }

    fn conflicts_with(&self, owner: O, mode: LockMode) -> Vec<O> {
        self.holders
            .iter()
            .filter(|(o, m)| *o != owner && !m.compatible_with(mode))
            .map(|&(o, _)| o)
            .collect()
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

/// The original `HashMap`-keyed strict-2PL lock table.
#[derive(Debug)]
pub struct RefLockTable<O> {
    discipline: QueueDiscipline,
    objects: HashMap<ObjectId, ObjectLocks<O>>,
    held_by: HashMap<O, Vec<ObjectId>>,
    next_seq: u64,
}

impl<O: LockOwner> RefLockTable<O> {
    #[must_use]
    pub fn new(discipline: QueueDiscipline) -> Self {
        RefLockTable {
            discipline,
            objects: HashMap::default(),
            held_by: HashMap::default(),
            next_seq: 0,
        }
    }

    pub fn request(
        &mut self,
        object: ObjectId,
        owner: O,
        mode: LockMode,
        deadline: SimTime,
    ) -> Acquire<O> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = self.objects.entry(object).or_default();

        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return Acquire::AlreadyHeld;
            }
            let others: Vec<O> = entry
                .holders
                .iter()
                .filter(|(o, _)| *o != owner)
                .map(|&(o, _)| o)
                .collect();
            if others.is_empty() {
                for h in &mut entry.holders {
                    if h.0 == owner {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return Acquire::Upgraded;
            }
            let waiter = RefWaiter {
                owner,
                mode,
                deadline,
                seq,
            };
            Self::insert_waiter(&mut entry.waiters, waiter, self.discipline, true);
            return Acquire::Blocked { conflicts: others };
        }

        let conflicts = entry.conflicts_with(owner, mode);
        if conflicts.is_empty() && entry.waiters.is_empty() {
            entry.holders.push((owner, mode));
            self.held_by.entry(owner).or_default().push(object);
            return Acquire::Granted;
        }
        let blockers = if conflicts.is_empty() {
            entry.waiters.iter().map(|w| w.owner).collect()
        } else {
            conflicts
        };
        let waiter = RefWaiter {
            owner,
            mode,
            deadline,
            seq,
        };
        Self::insert_waiter(&mut entry.waiters, waiter, self.discipline, false);
        Acquire::Blocked { conflicts: blockers }
    }

    fn insert_waiter(
        waiters: &mut Vec<RefWaiter<O>>,
        w: RefWaiter<O>,
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

    pub fn try_grant_bypass(&mut self, object: ObjectId, owner: O, mode: LockMode) -> bool {
        let entry = self.objects.entry(object).or_default();
        if let Some(held) = entry.holder_mode(owner) {
            if held.covers(mode) {
                return true;
            }
            let sole = entry.holders.iter().all(|(o, _)| *o == owner);
            if sole {
                for h in &mut entry.holders {
                    if h.0 == owner {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return true;
            }
            return false;
        }
        if !entry.conflicts_with(owner, mode).is_empty() {
            if entry.is_unused() {
                self.objects.remove(&object);
            }
            return false;
        }
        entry.holders.push((owner, mode));
        self.held_by.entry(owner).or_default().push(object);
        true
    }

    pub fn release(&mut self, object: ObjectId, owner: O) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let before = entry.holders.len();
        entry.holders.retain(|(o, _)| *o != owner);
        if entry.holders.len() != before {
            if let Some(v) = self.held_by.get_mut(&owner) {
                v.retain(|&o| o != object);
            }
        }
        entry.waiters.retain(|w| w.owner != owner);
        self.promote(object)
    }

    pub fn release_all(&mut self, owner: O) -> Vec<(ObjectId, Vec<RefWaiter<O>>)> {
        let mut held = self.held_by.remove(&owner).unwrap_or_default();
        held.sort_unstable();
        held.dedup();
        #[expect(
            clippy::disallowed_methods,
            reason = "collected, then sorted on the next statement"
        )]
        let mut queued: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, e)| e.waiters.iter().any(|w| w.owner == owner))
            .map(|(&o, _)| o)
            .collect();
        queued.sort_unstable();
        let mut out = Vec::new();
        for obj in held.into_iter().chain(queued) {
            if let Some(entry) = self.objects.get_mut(&obj) {
                entry.holders.retain(|(o, _)| *o != owner);
                entry.waiters.retain(|w| w.owner != owner);
            }
            let granted = self.promote(obj);
            if !granted.is_empty() {
                out.push((obj, granted));
            }
        }
        out
    }

    pub fn downgrade(&mut self, object: ObjectId, owner: O) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let mut changed = false;
        for h in &mut entry.holders {
            if h.0 == owner && h.1 == LockMode::Exclusive {
                h.1 = LockMode::Shared;
                changed = true;
            }
        }
        if changed {
            self.promote(object)
        } else {
            Vec::new()
        }
    }

    pub fn cancel_wait(&mut self, object: ObjectId, owner: O) -> (bool, Vec<RefWaiter<O>>) {
        let Some(entry) = self.objects.get_mut(&object) else {
            return (false, Vec::new());
        };
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.owner != owner);
        let removed = entry.waiters.len() != before;
        let granted = if removed { self.promote(object) } else { Vec::new() };
        (removed, granted)
    }

    #[expect(
        clippy::type_complexity,
        reason = "the nested tuple mirrors LockTable::cancel_expired so the property tests diff the two verbatim"
    )]
    pub fn cancel_expired(
        &mut self,
        now: SimTime,
    ) -> (
        Vec<(ObjectId, RefWaiter<O>)>,
        Vec<(ObjectId, Vec<RefWaiter<O>>)>,
    ) {
        let mut expired = Vec::new();
        #[expect(clippy::disallowed_methods, reason = "collected, then sorted on the next line")]
        let mut objs: Vec<ObjectId> = self.objects.keys().copied().collect();
        objs.sort_unstable();
        for obj in &objs {
            let entry = self.objects.get_mut(obj).expect("key just listed");
            let mut kept = Vec::with_capacity(entry.waiters.len());
            for w in entry.waiters.drain(..) {
                if w.deadline < now {
                    expired.push((*obj, w));
                } else {
                    kept.push(w);
                }
            }
            entry.waiters = kept;
        }
        let mut grants = Vec::new();
        for obj in objs {
            let g = self.promote(obj);
            if !g.is_empty() {
                grants.push((obj, g));
            }
        }
        (expired, grants)
    }

    fn promote(&mut self, object: ObjectId) -> Vec<RefWaiter<O>> {
        let Some(entry) = self.objects.get_mut(&object) else {
            return Vec::new();
        };
        let mut granted = Vec::new();
        while let Some(head) = entry.waiters.first().copied() {
            if let Some(held) = entry.holder_mode(head.owner) {
                let sole = entry.holders.iter().all(|(o, _)| *o == head.owner);
                if sole && held == LockMode::Shared && head.mode == LockMode::Exclusive {
                    for h in &mut entry.holders {
                        if h.0 == head.owner {
                            h.1 = LockMode::Exclusive;
                        }
                    }
                    entry.waiters.remove(0);
                    granted.push(head);
                    continue;
                }
                break;
            }
            if entry.conflicts_with(head.owner, head.mode).is_empty() {
                entry.holders.push((head.owner, head.mode));
                self.held_by.entry(head.owner).or_default().push(object);
                entry.waiters.remove(0);
                granted.push(head);
            } else {
                break;
            }
        }
        if entry.is_unused() {
            self.objects.remove(&object);
        }
        granted
    }

    #[must_use]
    pub fn holders(&self, object: ObjectId) -> Vec<(O, LockMode)> {
        self.objects
            .get(&object)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    #[must_use]
    pub fn waiters(&self, object: ObjectId) -> Vec<RefWaiter<O>> {
        self.objects
            .get(&object)
            .map(|e| e.waiters.clone())
            .unwrap_or_default()
    }

    #[must_use]
    pub fn locks_of(&self, owner: O) -> Vec<ObjectId> {
        let mut v = self.held_by.get(&owner).cloned().unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[must_use]
    pub fn active_objects(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::table::{LockTable, Waiter};
    use siteselect_types::ClientId;

    /// `(object, owner, mode, deadline)` — the observable identity of a
    /// grant, comparable across the two `Waiter` types.
    type Grant = (ObjectId, ClientId, LockMode, SimTime);

    fn grants_new(obj: ObjectId, ws: &[Waiter<ClientId>]) -> Vec<Grant> {
        ws.iter().map(|w| (obj, w.owner, w.mode, w.deadline)).collect()
    }

    fn grants_ref(obj: ObjectId, ws: &[RefWaiter<ClientId>]) -> Vec<Grant> {
        ws.iter().map(|w| (obj, w.owner, w.mode, w.deadline)).collect()
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// Asserts the full observable state of both tables agrees.
    fn assert_same_state(
        dense: &LockTable<ClientId>,
        oracle: &RefLockTable<ClientId>,
        objects: u32,
        owners: u16,
        step: usize,
    ) {
        for id in 0..objects {
            let obj = ObjectId(id);
            assert_eq!(
                dense.holders(obj),
                oracle.holders(obj),
                "holders diverge on {obj} at step {step}"
            );
            let dw: Vec<Grant> = grants_new(obj, &dense.waiters(obj));
            let ow: Vec<Grant> = grants_ref(obj, &oracle.waiters(obj));
            assert_eq!(dw, ow, "waiters diverge on {obj} at step {step}");
        }
        for c in 0..owners {
            let owner = ClientId(c);
            assert_eq!(
                dense.locks_of(owner),
                oracle.locks_of(owner),
                "locks_of diverge for {owner:?} at step {step}"
            );
        }
        assert_eq!(
            dense.active_objects(),
            oracle.active_objects(),
            "active_objects diverge at step {step}"
        );
        dense.check_invariants().unwrap();
    }

    /// Table shape and operation mix of one differential run.
    struct Shape {
        objects: u32,
        owners: u16,
        /// One in this many drawn `release_all`s runs; the rest become
        /// requests, so owners can build up long held lists.
        release_all_one_in: u64,
    }

    /// Few objects and owners: heavy contention, every queue path.
    const CONTENDED: Shape = Shape {
        objects: 8,
        owners: 5,
        release_all_one_in: 1,
    };

    /// Owners hold well over 16 locks, so each held list spills past its
    /// inline capacity and release swap-removes across that boundary.
    const SPILLING: Shape = Shape {
        objects: 96,
        owners: 3,
        release_all_one_in: 24,
    };

    /// Runs both tables side by side; returns the longest held list seen.
    fn run_property(seed: u64, discipline: QueueDiscipline, shape: &Shape) -> usize {
        const STEPS: usize = 4000;

        let mut rng = Xorshift(seed);
        let mut dense: LockTable<ClientId> = LockTable::new(discipline);
        let mut oracle: RefLockTable<ClientId> = RefLockTable::new(discipline);
        let mut longest = 0;

        for step in 0..STEPS {
            let obj = ObjectId(rng.below(u64::from(shape.objects)) as u32);
            let owner = ClientId(rng.below(u64::from(shape.owners)) as u16);
            let mode = if rng.below(2) == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            let deadline = SimTime::from_secs(rng.below(200));
            let mut op = rng.below(10);
            // No extra draw at one-in-one, so CONTENDED replays the
            // original sequences.
            if op == 6 && shape.release_all_one_in > 1 && rng.below(shape.release_all_one_in) != 0 {
                op = 0;
            }
            match op {
                0..=3 => {
                    let a = dense.request(obj, owner, mode, deadline);
                    let b = oracle.request(obj, owner, mode, deadline);
                    assert_eq!(a, b, "request result diverges at step {step}");
                }
                4..=5 => {
                    let a = grants_new(obj, &dense.release(obj, owner));
                    let b = grants_ref(obj, &oracle.release(obj, owner));
                    assert_eq!(a, b, "release grants diverge at step {step}");
                }
                6 => {
                    let a: Vec<Grant> = dense
                        .release_all(owner)
                        .into_iter()
                        .flat_map(|(o, ws)| grants_new(o, &ws))
                        .collect();
                    let b: Vec<Grant> = oracle
                        .release_all(owner)
                        .into_iter()
                        .flat_map(|(o, ws)| grants_ref(o, &ws))
                        .collect();
                    assert_eq!(a, b, "release_all grants diverge at step {step}");
                }
                7 => {
                    let a = grants_new(obj, &dense.downgrade(obj, owner));
                    let b = grants_ref(obj, &oracle.downgrade(obj, owner));
                    assert_eq!(a, b, "downgrade grants diverge at step {step}");
                }
                8 => {
                    let (ra, ga) = dense.cancel_wait(obj, owner);
                    let (rb, gb) = oracle.cancel_wait(obj, owner);
                    assert_eq!(ra, rb, "cancel_wait removal diverges at step {step}");
                    assert_eq!(
                        grants_new(obj, &ga),
                        grants_ref(obj, &gb),
                        "cancel_wait grants diverge at step {step}"
                    );
                }
                _ => {
                    if rng.below(4) == 0 {
                        let now = SimTime::from_secs(rng.below(200));
                        let (ea, ga) = dense.cancel_expired(now);
                        let (eb, gb) = oracle.cancel_expired(now);
                        let ea: Vec<Grant> = ea
                            .into_iter()
                            .map(|(o, w)| (o, w.owner, w.mode, w.deadline))
                            .collect();
                        let eb: Vec<Grant> = eb
                            .into_iter()
                            .map(|(o, w)| (o, w.owner, w.mode, w.deadline))
                            .collect();
                        assert_eq!(ea, eb, "cancel_expired pruning diverges at step {step}");
                        let ga: Vec<Grant> = ga
                            .into_iter()
                            .flat_map(|(o, ws)| grants_new(o, &ws))
                            .collect();
                        let gb: Vec<Grant> = gb
                            .into_iter()
                            .flat_map(|(o, ws)| grants_ref(o, &ws))
                            .collect();
                        assert_eq!(ga, gb, "cancel_expired grants diverge at step {step}");
                    } else {
                        let a = dense.try_grant_bypass(obj, owner, mode);
                        let b = oracle.try_grant_bypass(obj, owner, mode);
                        assert_eq!(a, b, "bypass result diverges at step {step}");
                    }
                }
            }
            assert_same_state(&dense, &oracle, shape.objects, shape.owners, step);
            for c in 0..shape.owners {
                longest = longest.max(dense.locks_of(ClientId(c)).len());
            }
        }
        longest
    }

    #[test]
    fn dense_table_matches_hashmap_oracle_fifo() {
        for seed in [0x5173_5e1e, 0xdead_beef, 42] {
            run_property(seed, QueueDiscipline::Fifo, &CONTENDED);
        }
    }

    #[test]
    fn dense_table_matches_hashmap_oracle_deadline() {
        for seed in [0x5173_5e1e, 0xcafe_f00d, 7] {
            run_property(seed, QueueDiscipline::Deadline, &CONTENDED);
        }
    }

    #[test]
    fn dense_table_matches_hashmap_oracle_past_the_inline_held_list() {
        for (seed, discipline) in [
            (0x5173_5e1e, QueueDiscipline::Fifo),
            (0xcafe_f00d, QueueDiscipline::Deadline),
        ] {
            let longest = run_property(seed, discipline, &SPILLING);
            assert!(longest > 16, "held lists never spilled (longest {longest})");
        }
    }
}
