//! The PF-layer buffer manager: pinned frames with LRU or Clock replacement
//! and dirty write-back, as in the MiniRel system the paper builds on.

use std::error::Error;
use std::fmt;

use siteselect_types::{ObjectId, ObjectMap};

use crate::disk::DiskFile;
use crate::lru::LruList;
use crate::page::Page;

/// Replacement policy for unpinned frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict the least-recently-used unpinned frame (default).
    #[default]
    Lru,
    /// Second-chance clock sweep.
    Clock,
}

/// Cumulative buffer-manager statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Fetches satisfied without disk I/O.
    pub hits: u64,
    /// Fetches that required reading the page from disk.
    pub misses: u64,
    /// Victim frames recycled.
    pub evictions: u64,
    /// Dirty victim pages written back to disk.
    pub writebacks: u64,
}

impl BufferStats {
    /// Hit fraction in `[0, 1]` (zero when no fetches occurred).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Error returned by buffer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// Every frame is pinned; no victim can be chosen.
    AllFramesPinned,
    /// The requested page does not exist in the backing file.
    NoSuchPage(ObjectId),
    /// The frame handle does not name an occupied frame.
    BadFrame,
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::AllFramesPinned => write!(f, "all buffer frames are pinned"),
            BufferError::NoSuchPage(id) => write!(f, "page {id} does not exist"),
            BufferError::BadFrame => write!(f, "invalid frame handle"),
        }
    }
}

impl Error for BufferError {}

#[derive(Debug, Clone)]
struct Frame {
    page: Page,
    pin_count: u32,
    dirty: bool,
    referenced: bool,
}

/// A fixed-capacity page buffer over a [`DiskFile`].
///
/// Frames are identified by index handles returned from
/// [`BufferManager::fetch`]. A frame with a positive pin count is never
/// evicted; dirty frames are written back to disk when evicted or flushed.
/// Empty frames fill in index order and, once filled, stay occupied. LRU
/// order is a recency list over frame indices that only `fetch` bumps, so
/// the victim is the first unpinned frame from its LRU end.
///
/// # Example
///
/// ```
/// use siteselect_storage::{BufferManager, DiskFile, Replacement};
/// use siteselect_types::{ObjectId, ObjectMap};
///
/// let mut disk = DiskFile::with_patterned_pages(100);
/// let mut buf = BufferManager::new(4, Replacement::Lru);
/// let f = buf.fetch(ObjectId(1), &mut disk).unwrap();
/// assert_eq!(buf.page(f).unwrap().id(), ObjectId(1));
/// buf.unpin(f).unwrap();
/// ```
#[derive(Debug)]
pub struct BufferManager {
    capacity: usize,
    policy: Replacement,
    frames: Vec<Option<Frame>>,
    map: ObjectMap<usize>,
    // Frames `0..filled` are occupied.
    filled: usize,
    recency: LruList,
    clock_hand: usize,
    stats: BufferStats,
}

impl BufferManager {
    /// Creates a buffer with `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: Replacement) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        let mut recency = LruList::new();
        recency.reserve_ids(capacity);
        BufferManager {
            capacity,
            policy,
            frames: (0..capacity).map(|_| None).collect(),
            map: ObjectMap::new(),
            filled: 0,
            recency,
            clock_hand: 0,
            stats: BufferStats::default(),
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no frame is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if the page is currently buffered.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains(id)
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Brings `id` into the buffer (reading from `disk` on a miss), pins the
    /// frame, and returns its handle.
    ///
    /// # Errors
    ///
    /// [`BufferError::NoSuchPage`] if the page is not in the file;
    /// [`BufferError::AllFramesPinned`] if no victim frame is available.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "map only names occupied frames, find_victim returns an in-range free frame, and contains() was checked"
    )]
    pub fn fetch(&mut self, id: ObjectId, disk: &mut DiskFile) -> Result<usize, BufferError> {
        if let Some(&idx) = self.map.get(id) {
            let frame = self.frames[idx].as_mut().expect("mapped frame occupied");
            frame.pin_count += 1;
            frame.referenced = true;
            self.recency.touch(idx as u32);
            self.stats.hits += 1;
            return Ok(idx);
        }
        if !disk.contains(id) {
            return Err(BufferError::NoSuchPage(id));
        }
        let idx = self.find_victim(disk)?;
        let page = disk.read(id).expect("contains() checked above");
        self.frames[idx] = Some(Frame {
            page,
            pin_count: 1,
            dirty: false,
            referenced: true,
        });
        self.recency.push_mru(idx as u32);
        self.map.insert(id, idx);
        self.stats.misses += 1;
        Ok(idx)
    }

    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the buffer is full and victims come from its index range"
    )]
    fn find_victim(&mut self, disk: &mut DiskFile) -> Result<usize, BufferError> {
        // Prefer an empty frame.
        if self.filled < self.capacity {
            self.filled += 1;
            return Ok(self.filled - 1);
        }
        let victim = match self.policy {
            Replacement::Lru => {
                let frames = &self.frames;
                self.recency
                    .iter()
                    .map(|i| i as usize)
                    .find(|&i| frames[i].as_ref().is_some_and(|f| f.pin_count == 0))
            }
            Replacement::Clock => self.clock_sweep(),
        };
        let idx = victim.ok_or(BufferError::AllFramesPinned)?;
        let frame = self.frames[idx].take().expect("victim occupied");
        self.map.remove(frame.page.id());
        self.stats.evictions += 1;
        if frame.dirty {
            disk.write(&frame.page);
            self.stats.writebacks += 1;
        }
        Ok(idx)
    }

    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the sweep runs only on a full buffer and the hand wraps at frames.len()"
    )]
    fn clock_sweep(&mut self) -> Option<usize> {
        // Two full sweeps guarantee termination: the first clears reference
        // bits, the second must find an unpinned frame if one exists.
        for _ in 0..2 * self.capacity {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.capacity;
            let frame = self.frames[idx].as_mut().expect("full buffer");
            if frame.pin_count > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
            } else {
                return Some(idx);
            }
        }
        None
    }

    /// Increments the pin count of an occupied frame.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale.
    pub fn pin(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
        frame.pin_count += 1;
        Ok(())
    }

    /// Decrements the pin count of an occupied frame.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale or the frame is not
    /// pinned.
    pub fn unpin(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
        if frame.pin_count == 0 {
            return Err(BufferError::BadFrame);
        }
        frame.pin_count -= 1;
        Ok(())
    }

    /// Marks a frame dirty so its page is written back on eviction/flush.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale.
    pub fn mark_dirty(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
        frame.dirty = true;
        Ok(())
    }

    /// Read access to a buffered page.
    #[must_use]
    pub fn page(&self, idx: usize) -> Option<&Page> {
        self.frames.get(idx).and_then(Option::as_ref).map(|f| &f.page)
    }

    /// Write access to a buffered page (the caller must also
    /// [`mark_dirty`](Self::mark_dirty)).
    pub fn page_mut(&mut self, idx: usize) -> Option<&mut Page> {
        self.frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .map(|f| &mut f.page)
    }

    /// Read access to a buffered page by id, without pinning or touching
    /// recency state (used for non-counted inspection).
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "map only names in-range frames")]
    pub fn peek(&self, id: ObjectId) -> Option<&Page> {
        let &idx = self.map.get(id)?;
        self.frames[idx].as_ref().map(|f| &f.page)
    }

    /// Writes every dirty page back to `disk` and clears the dirty bits.
    pub fn flush_all(&mut self, disk: &mut DiskFile) {
        for frame in self.frames.iter_mut().flatten() {
            if frame.dirty {
                disk.write(&frame.page);
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
    }

    /// Pin count of a frame (testing / assertions).
    #[must_use]
    pub fn pin_count(&self, idx: usize) -> Option<u32> {
        self.frames
            .get(idx)
            .and_then(Option::as_ref)
            .map(|f| f.pin_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cap: usize, policy: Replacement) -> (DiskFile, BufferManager) {
        (
            DiskFile::with_patterned_pages(64),
            BufferManager::new(cap, policy),
        )
    }

    #[test]
    fn hit_after_miss() {
        let (mut disk, mut buf) = setup(4, Replacement::Lru);
        let f = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        let f2 = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(f2).unwrap();
        assert_eq!(buf.stats().misses, 1);
        assert_eq!(buf.stats().hits, 1);
        assert!((buf.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let a = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(a).unwrap();
        let b = buf.fetch(ObjectId(2), &mut disk).unwrap();
        buf.unpin(b).unwrap();
        // Touch 1 so 2 becomes LRU.
        let a = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(a).unwrap();
        let c = buf.fetch(ObjectId(3), &mut disk).unwrap();
        buf.unpin(c).unwrap();
        assert!(buf.contains(ObjectId(1)));
        assert!(!buf.contains(ObjectId(2)));
        assert!(buf.contains(ObjectId(3)));
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let _a = buf.fetch(ObjectId(1), &mut disk).unwrap(); // stays pinned
        let b = buf.fetch(ObjectId(2), &mut disk).unwrap();
        buf.unpin(b).unwrap();
        let c = buf.fetch(ObjectId(3), &mut disk).unwrap();
        assert!(buf.contains(ObjectId(1)));
        assert!(!buf.contains(ObjectId(2)));
        buf.unpin(c).unwrap();
    }

    #[test]
    fn all_pinned_errors() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.fetch(ObjectId(2), &mut disk).unwrap();
        assert_eq!(
            buf.fetch(ObjectId(3), &mut disk),
            Err(BufferError::AllFramesPinned)
        );
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (mut disk, mut buf) = setup(1, Replacement::Lru);
        let f = buf.fetch(ObjectId(5), &mut disk).unwrap();
        buf.page_mut(f).unwrap().write_u64_at(0, 999);
        buf.mark_dirty(f).unwrap();
        buf.unpin(f).unwrap();
        let g = buf.fetch(ObjectId(6), &mut disk).unwrap();
        buf.unpin(g).unwrap();
        assert_eq!(disk.peek(ObjectId(5)).unwrap().read_u64_at(0), 999);
        assert_eq!(buf.stats().writebacks, 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (mut disk, mut buf) = setup(4, Replacement::Lru);
        let f = buf.fetch(ObjectId(7), &mut disk).unwrap();
        buf.page_mut(f).unwrap().write_u64_at(8, 123);
        buf.mark_dirty(f).unwrap();
        buf.flush_all(&mut disk);
        assert_eq!(disk.peek(ObjectId(7)).unwrap().read_u64_at(8), 123);
        // Second flush writes nothing new.
        let w = buf.stats().writebacks;
        buf.flush_all(&mut disk);
        assert_eq!(buf.stats().writebacks, w);
        buf.unpin(f).unwrap();
    }

    #[test]
    fn clock_policy_eventually_evicts() {
        let (mut disk, mut buf) = setup(3, Replacement::Clock);
        for i in 0..10u32 {
            let f = buf.fetch(ObjectId(i), &mut disk).unwrap();
            buf.unpin(f).unwrap();
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.stats().evictions, 7);
    }

    #[test]
    fn missing_page_reports_error() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        assert_eq!(
            buf.fetch(ObjectId(999), &mut disk),
            Err(BufferError::NoSuchPage(ObjectId(999)))
        );
    }

    #[test]
    fn bad_frame_handles() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        assert_eq!(buf.unpin(0), Err(BufferError::BadFrame));
        assert_eq!(buf.mark_dirty(7), Err(BufferError::BadFrame));
        assert_eq!(buf.pin(1), Err(BufferError::BadFrame));
        let f = buf.fetch(ObjectId(0), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        assert_eq!(buf.unpin(f), Err(BufferError::BadFrame)); // double unpin
    }

    #[test]
    fn pin_stacks() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let f = buf.fetch(ObjectId(0), &mut disk).unwrap();
        buf.pin(f).unwrap();
        assert_eq!(buf.pin_count(f), Some(2));
        buf.unpin(f).unwrap();
        assert_eq!(buf.pin_count(f), Some(1));
    }

    /// The replacement rules in their plainest form: the lowest empty
    /// frame first, then the unpinned frame with the smallest fetch stamp
    /// (LRU) or a second-chance sweep (Clock), both by scanning every frame.
    #[derive(Clone)]
    struct NaiveFrame {
        page: Page,
        pins: u32,
        dirty: bool,
        stamp: u64,
        referenced: bool,
    }

    struct NaiveBuffer {
        policy: Replacement,
        frames: Vec<Option<NaiveFrame>>,
        tick: u64,
        hand: usize,
        stats: BufferStats,
    }

    impl NaiveBuffer {
        fn new(capacity: usize, policy: Replacement) -> Self {
            NaiveBuffer {
                policy,
                frames: vec![None; capacity],
                tick: 0,
                hand: 0,
                stats: BufferStats::default(),
            }
        }

        fn fetch(&mut self, id: ObjectId, disk: &mut DiskFile) -> Result<usize, BufferError> {
            self.tick += 1;
            let hit = self
                .frames
                .iter()
                .position(|f| f.as_ref().is_some_and(|f| f.page.id() == id));
            if let Some(idx) = hit {
                let f = self.frames[idx].as_mut().unwrap();
                f.pins += 1;
                f.stamp = self.tick;
                f.referenced = true;
                self.stats.hits += 1;
                return Ok(idx);
            }
            if !disk.contains(id) {
                return Err(BufferError::NoSuchPage(id));
            }
            let idx = match self.frames.iter().position(Option::is_none) {
                Some(idx) => idx,
                None => {
                    let victim = match self.policy {
                        Replacement::Lru => self
                            .frames
                            .iter()
                            .enumerate()
                            .filter(|(_, f)| f.as_ref().unwrap().pins == 0)
                            .min_by_key(|(_, f)| f.as_ref().unwrap().stamp)
                            .map(|(i, _)| i),
                        Replacement::Clock => self.sweep(),
                    };
                    let idx = victim.ok_or(BufferError::AllFramesPinned)?;
                    let victim = self.frames[idx].take().unwrap();
                    self.stats.evictions += 1;
                    if victim.dirty {
                        disk.write(&victim.page);
                        self.stats.writebacks += 1;
                    }
                    idx
                }
            };
            let page = disk.read(id).unwrap();
            self.frames[idx] = Some(NaiveFrame {
                page,
                pins: 1,
                dirty: false,
                stamp: self.tick,
                referenced: true,
            });
            self.stats.misses += 1;
            Ok(idx)
        }

        fn sweep(&mut self) -> Option<usize> {
            let n = self.frames.len();
            for _ in 0..2 * n {
                let idx = self.hand;
                self.hand = (self.hand + 1) % n;
                let f = self.frames[idx].as_mut().unwrap();
                if f.pins > 0 {
                    continue;
                }
                if f.referenced {
                    f.referenced = false;
                } else {
                    return Some(idx);
                }
            }
            None
        }

        fn frame(&mut self, idx: usize) -> Result<&mut NaiveFrame, BufferError> {
            self.frames
                .get_mut(idx)
                .and_then(Option::as_mut)
                .ok_or(BufferError::BadFrame)
        }
    }

    fn differential_run(policy: Replacement, seed: u64) {
        const PAGES: u32 = 24;
        const FRAMES: usize = 6;
        let mut state = seed;
        let mut rng = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut disk = DiskFile::with_patterned_pages(PAGES);
        let mut model_disk = disk.clone();
        let mut buf = BufferManager::new(FRAMES, policy);
        let mut model = NaiveBuffer::new(FRAMES, policy);
        for step in 0..5000u64 {
            let frame = rng(FRAMES as u64 + 1) as usize;
            match rng(20) {
                0..=7 => {
                    // Mostly resident-range ids, a few past the file's end.
                    let id = ObjectId(rng(u64::from(PAGES) + 2) as u32);
                    let got = buf.fetch(id, &mut disk);
                    let want = model.fetch(id, &mut model_disk);
                    assert_eq!(got, want, "fetch at step {step}");
                }
                8..=14 => {
                    let want = model.frame(frame).and_then(|f| {
                        if f.pins == 0 {
                            return Err(BufferError::BadFrame);
                        }
                        f.pins -= 1;
                        Ok(())
                    });
                    assert_eq!(buf.unpin(frame), want, "unpin at step {step}");
                }
                15 => {
                    let want = model.frame(frame).map(|f| f.pins += 1);
                    assert_eq!(buf.pin(frame), want, "pin at step {step}");
                }
                16..=18 => {
                    let want = model.frame(frame).map(|f| {
                        f.page.write_u64_at(0, step);
                        f.dirty = true;
                    });
                    if let Some(page) = buf.page_mut(frame) {
                        page.write_u64_at(0, step);
                    }
                    assert_eq!(buf.mark_dirty(frame), want, "mark_dirty at step {step}");
                }
                _ => {
                    buf.flush_all(&mut disk);
                    for f in model.frames.iter_mut().flatten() {
                        if f.dirty {
                            model_disk.write(&f.page);
                            f.dirty = false;
                            model.stats.writebacks += 1;
                        }
                    }
                }
            }
            assert_eq!(buf.stats(), model.stats, "stats at step {step}");
            assert_eq!(disk.stats(), model_disk.stats(), "disk I/O at step {step}");
            for idx in 0..FRAMES {
                let want = model.frames[idx].as_ref();
                let (page, pins) = (want.map(|f| &f.page), want.map(|f| f.pins));
                assert_eq!(buf.page(idx), page, "frame {idx} at step {step}");
                assert_eq!(buf.pin_count(idx), pins, "pins of {idx} at step {step}");
            }
            for id in 0..PAGES {
                let id = ObjectId(id);
                let want = model_disk.peek(id);
                assert_eq!(disk.peek(id), want, "disk page {id} at step {step}");
            }
        }
        assert!(buf.stats().evictions > 100 && buf.stats().writebacks > 10);
    }

    #[test]
    fn lru_matches_the_naive_min_stamp_model() {
        for seed in [0x5173_5e1e, 0xcafe_f00d, 7] {
            differential_run(Replacement::Lru, seed);
        }
    }

    #[test]
    fn clock_matches_the_naive_sweep_model() {
        for seed in [0x5173_5e1e, 0xdead_beef, 42] {
            differential_run(Replacement::Clock, seed);
        }
    }

    #[test]
    fn display_of_errors() {
        assert!(BufferError::AllFramesPinned.to_string().contains("pinned"));
        assert!(BufferError::NoSuchPage(ObjectId(3)).to_string().contains("obj#3"));
    }
}
