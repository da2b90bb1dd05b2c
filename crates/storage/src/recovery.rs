//! Crash-restart recovery: redo-then-undo replay over the paged file, plus
//! the [`DurableStore`] facade the simulation engines write through.
//!
//! Replay follows ARIES shape on the simplified physical log of
//! [`wal`](crate::wal):
//!
//! 1. **Analysis** — scan the surviving log image (tolerating a torn tail),
//!    classify every transaction as committed, aborted, or a *loser*
//!    (updates but no outcome record), and find the last checkpoint's
//!    `redo_lsn`.
//! 2. **Redo** — repeat history: reapply the after-image of every update
//!    record from `redo_lsn` on, winners and losers alike. Runtime rollbacks
//!    were logged as compensation updates, so redo alone reproduces the
//!    exact pre-crash page state reachable from the durable log.
//! 3. **Undo** — roll the losers back with their before-images in reverse
//!    LSN order, logging each restoration as a compensation update followed
//!    by an abort record, then force the log and the pages. A second crash
//!    during or after recovery therefore replays to the same state
//!    (idempotence).
//!
//! The store stamps every logical page write with a unique, monotonically
//! increasing value derived from the update record's LSN and keeps it in the
//! first u64 of the page (stamp 0 = never written). The recovery oracle in
//! `crates/check` compares post-restart stamps against the committed history
//! to prove that every committed effect survived and no aborted effect
//! resurfaced.

use std::collections::BTreeMap;

use siteselect_types::ObjectId;

use crate::disk::DiskFile;
use crate::pagedfile::PagedFile;
use crate::wal::{scan, LogRecord, Lsn, Wal};

/// Page offset holding the write stamp.
pub const STAMP_OFFSET: usize = 0;

/// Commits between automatic fuzzy checkpoints.
pub const CHECKPOINT_EVERY: u32 = 64;

/// What a replay pass did, used to charge recovery I/O to the seeded disk
/// model and to report `RecoveryDone` events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryOutcome {
    /// Records scanned from the surviving log image.
    pub scanned: u64,
    /// Update records reapplied by the redo pass.
    pub redo_applied: u64,
    /// Loser updates rolled back by the undo pass.
    pub undone: u64,
    /// Loser transactions rolled back (ascending id order).
    pub losers: Vec<u64>,
    /// True if the log image ended in a torn record.
    pub torn_tail: bool,
    /// Bytes of log scanned.
    pub log_bytes: usize,
    /// Distinct pages written during replay.
    pub pages_touched: u32,
}

impl RecoveryOutcome {
    /// Disk operations the replay is charged for under the simulator's disk
    /// model: sequential log read (one I/O per 2 KB of log) plus one I/O per
    /// page touched by redo/undo.
    #[must_use]
    pub fn replay_ios(&self) -> u64 {
        let log_pages = (self.log_bytes as u64).div_ceil(crate::page::PAGE_SIZE as u64);
        log_pages + u64::from(self.pages_touched)
    }
}

/// Replays a crash-surviving log image against the disk image it belongs to,
/// returning the reopened log (with compensation records appended and
/// forced) and what the replay did. The paged file is flushed on return.
#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "the log only names pages of this database, and valid_bytes <= log_image.len() by the scan"
)]
pub fn replay(log_image: &[u8], file: &mut PagedFile) -> (Wal, RecoveryOutcome) {
    // Analysis classification: transaction outcomes as of the end of the log.
    #[derive(PartialEq)]
    enum Status {
        Active,
        Committed,
        Aborted,
    }

    let parsed = scan(log_image);
    let mut outcome = RecoveryOutcome {
        scanned: parsed.records.len() as u64,
        torn_tail: parsed.torn_tail,
        log_bytes: log_image.len(),
        ..RecoveryOutcome::default()
    };

    // Analysis: transaction outcomes and the redo horizon.
    let mut status: BTreeMap<u64, Status> = BTreeMap::new();
    let mut updates: Vec<(Lsn, u64, ObjectId, u16, u64, u64)> = Vec::new();
    let mut redo_lsn: Lsn = 0;
    for (i, rec) in parsed.records.iter().enumerate() {
        let lsn = i as Lsn;
        match rec {
            LogRecord::Update {
                txn,
                page,
                offset,
                before,
                after,
            } => {
                status.entry(*txn).or_insert(Status::Active);
                updates.push((lsn, *txn, *page, *offset, *before, *after));
            }
            LogRecord::Commit { txn } => {
                status.insert(*txn, Status::Committed);
            }
            LogRecord::Abort { txn } => {
                status.insert(*txn, Status::Aborted);
            }
            LogRecord::Checkpoint { redo_lsn: r, .. } => {
                redo_lsn = *r;
            }
        }
    }

    let mut touched = std::collections::BTreeSet::new();

    // Redo: repeat history from the checkpoint horizon. After-images are
    // absolute, so reapplying is idempotent.
    for &(lsn, _, page, offset, _, after) in &updates {
        if lsn < redo_lsn {
            continue;
        }
        file.with_page_mut(page, |p| p.write_u64_at(offset as usize, after))
            .expect("recovered log references an existing page");
        touched.insert(page.0);
        outcome.redo_applied += 1;
    }

    // Undo: roll back losers with before-images, newest first, logging the
    // compensation so a repeat crash replays to the same state.
    let mut wal = Wal::from_recovered(log_image[..parsed.valid_bytes].to_vec(), outcome.scanned);
    for &(_, txn, page, offset, before, after) in updates.iter().rev() {
        if status.get(&txn) != Some(&Status::Active) {
            continue;
        }
        wal.append(&LogRecord::Update {
            txn,
            page,
            offset,
            before: after,
            after: before,
        });
        file.with_page_mut(page, |p| p.write_u64_at(offset as usize, before))
            .expect("recovered log references an existing page");
        touched.insert(page.0);
        outcome.undone += 1;
    }
    for (&txn, st) in &status {
        if *st == Status::Active {
            wal.append(&LogRecord::Abort { txn });
            outcome.losers.push(txn);
        }
    }

    // Log-before-data, then persist the replayed pages.
    wal.flush();
    file.flush();
    outcome.pages_touched = touched.len() as u32;
    (wal, outcome)
}

/// One logged page write: `(page, offset, before, after)`.
type UndoEntry = (ObjectId, u16, u64, u64);

/// The undo chains of the active transactions, sorted by transaction id.
/// Few transactions are active at once, so a sorted vector serves them, and
/// a resolved transaction's chain is cleared and kept for the next writer
/// instead of freed.
#[derive(Debug, Default)]
struct UndoChains {
    active: Vec<(u64, Vec<UndoEntry>)>,
    spare: Vec<Vec<UndoEntry>>,
}

impl UndoChains {
    fn find(&self, txn: u64) -> Result<usize, usize> {
        self.active.binary_search_by_key(&txn, |&(t, _)| t)
    }

    /// Appends `entry` to `txn`'s chain, starting one if needed.
    fn push(&mut self, txn: u64, entry: UndoEntry) {
        match self.find(txn) {
            Ok(i) => {
                if let Some((_, chain)) = self.active.get_mut(i) {
                    chain.push(entry);
                }
            }
            Err(i) => {
                let mut chain = self.spare.pop().unwrap_or_default();
                chain.push(entry);
                self.active.insert(i, (txn, chain));
            }
        }
    }

    /// Removes and returns `txn`'s chain, if it has one.
    fn take(&mut self, txn: u64) -> Option<Vec<UndoEntry>> {
        let i = self.find(txn).ok()?;
        Some(self.active.remove(i).1)
    }

    /// Keeps a resolved chain's buffer for a later transaction.
    fn recycle(&mut self, mut chain: Vec<UndoEntry>) {
        chain.clear();
        self.spare.push(chain);
    }

    /// The active transactions, ascending.
    fn txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.active.iter().map(|&(t, _)| t)
    }

    fn len(&self) -> usize {
        self.active.len()
    }
}

/// The durability facade the engines write through: a [`PagedFile`] guarded
/// by a [`Wal`] observing log-before-data and force-at-commit, with fuzzy
/// checkpoints every [`CHECKPOINT_EVERY`] commits.
///
/// No simulated time is charged here — the engines translate
/// [`RecoveryOutcome::replay_ios`] into disk-model delay at restart, and
/// normal-operation log writes are modeled as free sequential appends (the
/// paper's timing model already charges object I/O at buffer misses).
///
/// # Example
///
/// ```
/// use siteselect_storage::recovery::DurableStore;
/// use siteselect_types::ObjectId;
///
/// let mut store = DurableStore::new(16, 4);
/// let stamp = store.write(1, ObjectId(3));
/// store.commit(1);
/// let (log, disk) = store.crash(0);
/// let (recovered, outcome) = DurableStore::restart(&log, disk, 4);
/// assert_eq!(recovered.stamp_of(ObjectId(3)), stamp);
/// assert!(outcome.losers.is_empty());
/// ```
#[derive(Debug)]
pub struct DurableStore {
    file: PagedFile,
    wal: Wal,
    undo: UndoChains,
    commits_since_checkpoint: u32,
    checkpoints: u64,
}

impl DurableStore {
    /// Creates a store over `num_pages` zeroed pages (stamp 0 = pristine)
    /// with `buffer_frames` buffer-pool frames.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_frames` is zero.
    #[must_use]
    pub fn new(num_pages: u32, buffer_frames: usize) -> Self {
        DurableStore {
            file: PagedFile::from_disk(DiskFile::new(num_pages), buffer_frames),
            wal: Wal::new(),
            undo: UndoChains::default(),
            commits_since_checkpoint: 0,
            checkpoints: 0,
        }
    }

    /// Ensures the staged log is durable before a buffer fetch that may
    /// steal (write back) a dirty page — the log-before-data rule.
    fn guard_steal(&mut self, page: ObjectId) {
        if !self.file.is_buffered(page) {
            self.wal.flush();
        }
    }

    /// Logs and applies one page write for `txn`, returning the unique stamp
    /// now stored in the page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the database.
    #[expect(clippy::expect_used, reason = "engine writes stay inside the database")]
    pub fn write(&mut self, txn: u64, page: ObjectId) -> u64 {
        // Stamps are LSN + 1 so that 0 remains "never written"; LSNs are
        // monotone across restarts, so stamps on disk are unique.
        let stamp = self.wal.next_lsn() + 1;
        self.guard_steal(page);
        let before = self
            .file
            .with_page_mut(page, |p| {
                let before = p.read_u64_at(STAMP_OFFSET);
                p.write_u64_at(STAMP_OFFSET, stamp);
                before
            })
            .expect("engine writes stay inside the database");
        self.wal.append(&LogRecord::Update {
            txn,
            page,
            offset: STAMP_OFFSET as u16,
            before,
            after: stamp,
        });
        self.undo.push(txn, (page, STAMP_OFFSET as u16, before, stamp));
        stamp
    }

    /// Commits `txn`: appends and **forces** the commit record (the caller
    /// may acknowledge once this returns), then takes a fuzzy checkpoint
    /// every [`CHECKPOINT_EVERY`] commits.
    pub fn commit(&mut self, txn: u64) {
        if let Some(chain) = self.undo.take(txn) {
            self.undo.recycle(chain);
        }
        self.wal.append(&LogRecord::Commit { txn });
        self.wal.flush();
        self.commits_since_checkpoint += 1;
        if self.commits_since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint();
        }
    }

    /// Rolls back `txn` in place, logging each restoration as a
    /// compensation update followed by an abort record. Not forced: if the
    /// site crashes first, replay reaches the same state via undo.
    #[expect(clippy::expect_used, reason = "the undo chain only references pages of this database")]
    pub fn abort(&mut self, txn: u64) {
        let chain = self.undo.take(txn).unwrap_or_default();
        for &(page, offset, before, after) in chain.iter().rev() {
            self.wal.append(&LogRecord::Update {
                txn,
                page,
                offset,
                before: after,
                after: before,
            });
            self.guard_steal(page);
            self.file
                .with_page_mut(page, |p| p.write_u64_at(offset as usize, before))
                .expect("undo chain references an existing page");
        }
        self.undo.recycle(chain);
        self.wal.append(&LogRecord::Abort { txn });
    }

    /// Takes a fuzzy checkpoint: forces the log, writes back all dirty pages
    /// (log first — the WAL rule), then logs the checkpoint with a redo
    /// horizon at the current LSN. Active transactions are not quiesced.
    pub fn checkpoint(&mut self) {
        self.wal.flush();
        self.file.flush();
        let active: Vec<u64> = self.undo.txns().collect();
        self.wal.append(&LogRecord::Checkpoint {
            active,
            redo_lsn: self.wal.next_lsn(),
        });
        self.wal.flush();
        self.commits_since_checkpoint = 0;
        self.checkpoints += 1;
    }

    /// Crashes the site: the buffer pool and the staged log tail past
    /// `staged_keep` bytes are lost (a mid-record cut leaves a torn tail).
    /// Returns the surviving log image and disk image.
    #[must_use]
    pub fn crash(self, staged_keep: usize) -> (Vec<u8>, DiskFile) {
        (self.wal.crash_image(staged_keep), self.file.into_disk())
    }

    /// Reopens a crashed site: replays the log against the disk image, ends
    /// with a checkpoint (so a second crash replays almost nothing), and
    /// returns the recovered store.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_frames` is zero.
    #[must_use]
    pub fn restart(
        log_image: &[u8],
        disk: DiskFile,
        buffer_frames: usize,
    ) -> (Self, RecoveryOutcome) {
        let mut file = PagedFile::from_disk(disk, buffer_frames);
        let (wal, outcome) = replay(log_image, &mut file);
        let mut store = DurableStore {
            file,
            wal,
            undo: UndoChains::default(),
            commits_since_checkpoint: 0,
            checkpoints: 0,
        };
        store.checkpoint();
        (store, outcome)
    }

    /// Current stamp of a page (0 = never written), reading the buffered
    /// copy if newer. Non-counted.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the database.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "engine reads stay inside the database; documented under # Panics"
    )]
    pub fn stamp_of(&self, page: ObjectId) -> u64 {
        self.file
            .peek(page)
            .expect("engine reads stay inside the database")
            .read_u64_at(STAMP_OFFSET)
    }

    /// All pages with a nonzero stamp, in ascending page order.
    #[must_use]
    pub fn stamps(&self) -> Vec<(ObjectId, u64)> {
        (0..self.file.num_pages())
            .filter_map(|i| {
                let id = ObjectId(i);
                let stamp = self.stamp_of(id);
                (stamp != 0).then_some((id, stamp))
            })
            .collect()
    }

    /// Bytes the staged (volatile) log tail currently holds.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.wal.staged_len()
    }

    /// Records appended to the log so far.
    #[must_use]
    pub fn log_records(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Transactions with unresolved logged updates.
    #[must_use]
    pub fn active_txns(&self) -> usize {
        self.undo.len()
    }

    /// True if `txn` has logged updates that are not yet resolved by a
    /// commit or abort.
    #[must_use]
    pub fn has_updates(&self, txn: u64) -> bool {
        self.undo.find(txn).is_ok()
    }

    /// Checkpoints taken since this store (re)opened.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Number of pages in the database.
    #[must_use]
    pub fn num_pages(&self) -> u32 {
        self.file.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_effects_survive_restart() {
        let mut store = DurableStore::new(8, 2);
        let s1 = store.write(1, ObjectId(0));
        let s2 = store.write(1, ObjectId(5));
        store.commit(1);
        let (log, disk) = store.crash(0);
        let (recovered, outcome) = DurableStore::restart(&log, disk, 2);
        assert_eq!(recovered.stamp_of(ObjectId(0)), s1);
        assert_eq!(recovered.stamp_of(ObjectId(5)), s2);
        assert!(outcome.losers.is_empty());
        assert!(outcome.replay_ios() > 0);
    }

    #[test]
    fn in_flight_transactions_are_rolled_back() {
        let mut store = DurableStore::new(8, 2);
        let s1 = store.write(1, ObjectId(3));
        store.commit(1);
        let _s2 = store.write(2, ObjectId(3)); // loser: overwrote committed stamp
        let _s3 = store.write(2, ObjectId(4)); // loser: pristine page
        store.wal.flush(); // make the loser's updates durable, then crash
        let (log, disk) = store.crash(0);
        let (recovered, outcome) = DurableStore::restart(&log, disk, 2);
        assert_eq!(outcome.losers, vec![2]);
        assert_eq!(outcome.undone, 2);
        assert_eq!(recovered.stamp_of(ObjectId(3)), s1);
        assert_eq!(recovered.stamp_of(ObjectId(4)), 0);
    }

    #[test]
    fn runtime_abort_does_not_resurface_after_restart() {
        let mut store = DurableStore::new(8, 2);
        let s1 = store.write(1, ObjectId(2));
        store.commit(1);
        store.write(2, ObjectId(2));
        store.abort(2); // in-place rollback, compensation logged
        let s3 = store.write(3, ObjectId(2));
        store.commit(3);
        let (log, disk) = store.crash(0);
        let (recovered, outcome) = DurableStore::restart(&log, disk, 2);
        assert!(outcome.losers.is_empty());
        assert_ne!(recovered.stamp_of(ObjectId(2)), s1);
        assert_eq!(recovered.stamp_of(ObjectId(2)), s3);
    }

    #[test]
    fn aborted_steal_is_undone_by_redo_of_compensation() {
        // A loser page can reach disk via eviction (steal); the in-place
        // abort's compensation must also survive via the log.
        let mut store = DurableStore::new(8, 1); // single frame: every access steals
        store.write(1, ObjectId(0));
        // Thrash so the loser's page is written back to disk.
        let _ = store.write(9, ObjectId(1));
        store.commit(9);
        store.abort(1);
        let (log, disk) = store.crash(0);
        assert_ne!(disk.peek(ObjectId(0)).unwrap().read_u64_at(0), 0);
        let (recovered, _) = DurableStore::restart(&log, disk, 2);
        assert_eq!(recovered.stamp_of(ObjectId(0)), 0);
    }

    #[test]
    fn torn_staged_tail_loses_only_unforced_records() {
        let mut store = DurableStore::new(8, 2);
        store.write(1, ObjectId(1));
        store.commit(1); // forced
        store.write(2, ObjectId(2)); // staged only
        let committed_stamp = store.stamp_of(ObjectId(1));
        let staged = store.staged_len();
        for keep in [0, 1, staged.saturating_sub(1)] {
            let mut clone = DurableStore::new(8, 2);
            clone.write(1, ObjectId(1));
            clone.commit(1);
            clone.write(2, ObjectId(2));
            let (log, disk) = clone.crash(keep);
            let (recovered, outcome) = DurableStore::restart(&log, disk, 2);
            assert_eq!(recovered.stamp_of(ObjectId(1)), committed_stamp);
            assert_eq!(recovered.stamp_of(ObjectId(2)), 0, "keep={keep}");
            assert_eq!(outcome.torn_tail, keep != 0);
        }
    }

    #[test]
    fn replay_is_idempotent_across_double_crash() {
        let mut store = DurableStore::new(8, 2);
        store.write(1, ObjectId(1));
        store.commit(1);
        store.write(2, ObjectId(2)); // loser
        let (log, disk) = store.crash(usize::MAX);
        let (first, _) = DurableStore::restart(&log, disk, 2);
        let snapshot = first.stamps();
        let (log2, disk2) = first.crash(0);
        let (second, outcome2) = DurableStore::restart(&log2, disk2, 2);
        assert_eq!(second.stamps(), snapshot);
        assert!(outcome2.losers.is_empty());
        // The end-of-recovery checkpoint bounds the second replay's redo.
        assert_eq!(outcome2.redo_applied, 0);
    }

    #[test]
    fn checkpoint_bounds_redo_and_preserves_state() {
        let mut store = DurableStore::new(16, 4);
        for txn in 0..u64::from(CHECKPOINT_EVERY) + 5 {
            store.write(txn, ObjectId((txn % 16) as u32));
            store.commit(txn);
        }
        assert!(store.checkpoints() >= 1);
        let expected = store.stamps();
        let (log, disk) = store.crash(0);
        let (recovered, outcome) = DurableStore::restart(&log, disk, 4);
        assert_eq!(recovered.stamps(), expected);
        // Redo starts at the checkpoint horizon, not LSN 0.
        assert!(outcome.redo_applied < outcome.scanned);
    }

    #[test]
    fn stamps_reads_through_the_buffer() {
        let mut store = DurableStore::new(4, 2);
        let s = store.write(1, ObjectId(0));
        // Not yet flushed: the newest copy lives in the buffer pool.
        assert_eq!(store.stamps(), vec![(ObjectId(0), s)]);
    }
}
