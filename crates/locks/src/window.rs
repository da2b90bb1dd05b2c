//! Collection windows for the grouped-lock protocol (§3.4).
//!
//! The object server "collects all the lock requests for each database
//! object for a specified time interval (*collection window*) in an ordered
//! list (*forward list*)". [`WindowManager`] owns the open windows; the
//! simulator schedules a close event when a window opens and harvests the
//! forward list when it fires.

use siteselect_obs::{Event, EventSink, SpanKind};
use siteselect_types::{HashMap, ObjectId, SimDuration, SimTime, SiteId, TransactionId};

use crate::forward::{ForwardEntry, ForwardList};

/// Result of offering a request to the window manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOffer {
    /// A new window was opened; the caller must schedule its close.
    Opened {
        /// When the window closes and the forward list ships.
        closes_at: SimTime,
    },
    /// An existing window absorbed the request.
    Joined,
}

#[derive(Debug, Clone)]
struct OpenWindow {
    closes_at: SimTime,
    list: ForwardList,
    /// Trace-only: who entered the window when, in offer order (feeds the
    /// window-residency spans stamped at close). Empty when tracing is off.
    offered: Vec<(TransactionId, SimTime)>,
}

/// Per-object collection-window state.
///
/// # Example
///
/// ```
/// use siteselect_locks::{ForwardEntry, WindowManager, WindowOffer};
/// use siteselect_types::{ClientId, LockMode, ObjectId, SimDuration, SimTime, TransactionId};
///
/// let mut wm = WindowManager::new(SimDuration::from_millis(100));
/// let e = ForwardEntry {
///     client: ClientId(1),
///     txn: TransactionId::new(ClientId(1), 0),
///     deadline: SimTime::from_secs(10),
///     mode: LockMode::Shared,
/// };
/// let offer = wm.offer(ObjectId(5), e, SimTime::ZERO);
/// assert!(matches!(offer, WindowOffer::Opened { .. }));
/// let list = wm.close(ObjectId(5)).unwrap();
/// assert_eq!(list.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowManager {
    window: SimDuration,
    open: HashMap<ObjectId, OpenWindow>,
    total_opened: u64,
    total_requests: u64,
    sink: EventSink,
}

impl WindowManager {
    /// Creates a manager with the given collection-window length.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        WindowManager {
            window,
            open: HashMap::default(),
            total_opened: 0,
            total_requests: 0,
            sink: EventSink::disabled(),
        }
    }

    /// Attaches an event sink; window open/close events are emitted at the
    /// server site.
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// The configured window length.
    #[must_use]
    pub fn window_length(&self) -> SimDuration {
        self.window
    }

    /// Adds a request for `object` to its open window, opening one if
    /// needed.
    pub fn offer(&mut self, object: ObjectId, entry: ForwardEntry, now: SimTime) -> WindowOffer {
        self.total_requests += 1;
        let traced = self.sink.is_enabled();
        if let Some(w) = self.open.get_mut(&object) {
            if traced {
                w.offered.push((entry.txn, now));
            }
            w.list.push(entry);
            return WindowOffer::Joined;
        }
        let closes_at = now + self.window;
        let mut list = ForwardList::new(object);
        let offered = if traced {
            vec![(entry.txn, now)]
        } else {
            Vec::new()
        };
        list.push(entry);
        self.open.insert(
            object,
            OpenWindow {
                closes_at,
                list,
                offered,
            },
        );
        self.total_opened += 1;
        self.sink
            .emit(now, SiteId::Server, || Event::WindowOpen { object });
        WindowOffer::Opened { closes_at }
    }

    /// Closes the window on `object`, returning its deadline-ordered forward
    /// list. Returns `None` if no window is open (e.g. already closed).
    pub fn close(&mut self, object: ObjectId) -> Option<ForwardList> {
        self.open.remove(&object).map(|w| w.list)
    }

    /// Like [`close`](Self::close), but stamps a `WindowClose` event with
    /// the batch size at `now` when a window was actually open, plus one
    /// window-residency span per collected request.
    pub fn close_at(&mut self, object: ObjectId, now: SimTime) -> Option<ForwardList> {
        self.expire(object, now)?;
        self.close(object)
    }

    /// Ends the collection period of the window on `object` at `now`: stamps
    /// the `WindowClose` event and residency spans of
    /// [`close_at`](Self::close_at) and returns the collected list, but
    /// leaves the window in place. The caller then either takes the list
    /// with [`close`](Self::close) or keeps collecting with
    /// [`rearm`](Self::rearm). Returns `None` if no window is open.
    pub fn expire(&mut self, object: ObjectId, now: SimTime) -> Option<&ForwardList> {
        let w = self.open.get(&object)?;
        let batch = w.list.len() as u32;
        self.sink
            .emit(now, SiteId::Server, || Event::WindowClose { object, batch });
        for &(txn, offered_at) in &w.offered {
            if offered_at < now {
                self.sink.emit(now, SiteId::Server, || Event::Span {
                    txn: Some(txn),
                    kind: SpanKind::Window,
                    start: offered_at,
                    blocker: None,
                });
            }
        }
        Some(&w.list)
    }

    /// Keeps collecting on an expired window whose object is not servable
    /// yet: the forward list stays as it is and the window closes again one
    /// period from `now`. The bookkeeping is exactly that of closing the
    /// window and re-offering each entry in list order (re-inserting a
    /// deadline-sorted list reproduces it): one more window opened, one more
    /// request per entry, a `WindowOpen` event, and, when tracing, every
    /// entry's residency restarting at `now`. Untraced, no per-entry work is
    /// done. Returns the new close time, or `None` if no window is open.
    pub fn rearm(&mut self, object: ObjectId, now: SimTime) -> Option<SimTime> {
        let w = self.open.get_mut(&object)?;
        w.closes_at = now + self.window;
        self.total_opened += 1;
        self.total_requests += w.list.len() as u64;
        if self.sink.is_enabled() {
            w.offered.clear();
            w.offered
                .extend(w.list.entries().iter().map(|e| (e.txn, now)));
        }
        self.sink
            .emit(now, SiteId::Server, || Event::WindowOpen { object });
        Some(w.closes_at)
    }

    /// True if a window is currently collecting for `object`.
    #[must_use]
    pub fn is_open(&self, object: ObjectId) -> bool {
        self.open.contains_key(&object)
    }

    /// When the open window on `object` closes, if any.
    #[must_use]
    pub fn closes_at(&self, object: ObjectId) -> Option<SimTime> {
        self.open.get(&object).map(|w| w.closes_at)
    }

    /// Requests currently collected for `object`.
    #[must_use]
    pub fn pending(&self, object: ObjectId) -> usize {
        self.open.get(&object).map_or(0, |w| w.list.len())
    }

    /// Windows ever opened.
    #[must_use]
    pub fn total_opened(&self) -> u64 {
        self.total_opened
    }

    /// Requests ever offered.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Mean requests batched per window (the grouping factor behind the
    /// message savings of Table 4).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.total_opened == 0 {
            0.0
        } else {
            self.total_requests as f64 / self.total_opened as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ClientId, LockMode, TransactionId};

    fn entry(client: u16, deadline_s: u64) -> ForwardEntry {
        ForwardEntry {
            client: ClientId(client),
            txn: TransactionId::new(ClientId(client), 0),
            deadline: SimTime::from_secs(deadline_s),
            mode: LockMode::Exclusive,
        }
    }

    const OBJ: ObjectId = ObjectId(1);

    #[test]
    fn first_offer_opens_followers_join() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        let o1 = wm.offer(OBJ, entry(1, 30), SimTime::from_secs(1));
        assert_eq!(
            o1,
            WindowOffer::Opened {
                closes_at: SimTime::from_secs(1) + SimDuration::from_millis(50)
            }
        );
        assert_eq!(wm.offer(OBJ, entry(2, 20), SimTime::from_secs(1)), WindowOffer::Joined);
        assert_eq!(wm.pending(OBJ), 2);
        assert!(wm.is_open(OBJ));
        assert_eq!(wm.closes_at(OBJ), Some(SimTime::from_secs(1) + SimDuration::from_millis(50)));
    }

    #[test]
    fn close_returns_deadline_ordered_list() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(OBJ, entry(1, 30), SimTime::ZERO);
        wm.offer(OBJ, entry(2, 10), SimTime::ZERO);
        wm.offer(OBJ, entry(3, 20), SimTime::ZERO);
        let list = wm.close(OBJ).unwrap();
        let order: Vec<u16> = list.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(!wm.is_open(OBJ));
        assert!(wm.close(OBJ).is_none());
    }

    #[test]
    fn windows_are_per_object() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(ObjectId(1), entry(1, 10), SimTime::ZERO);
        wm.offer(ObjectId(2), entry(2, 10), SimTime::ZERO);
        assert_eq!(wm.total_opened(), 2);
        assert_eq!(wm.pending(ObjectId(1)), 1);
        assert_eq!(wm.pending(ObjectId(2)), 1);
    }

    #[test]
    fn reopening_after_close_is_a_fresh_window() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(OBJ, entry(1, 10), SimTime::ZERO);
        wm.close(OBJ);
        let again = wm.offer(OBJ, entry(2, 10), SimTime::from_secs(5));
        assert!(matches!(again, WindowOffer::Opened { .. }));
        assert_eq!(wm.total_opened(), 2);
    }

    /// Re-arming a window in place must be indistinguishable from closing
    /// it and re-offering each entry in list order: the same lists, pending
    /// counts, close times, counters and trace records, step by step.
    #[test]
    fn rearm_matches_close_then_reoffer() {
        const OBJECTS: u32 = 4;
        let len = SimDuration::from_millis(50);
        for seed in 1..=100u64 {
            let (sink_a, sink_b) = (EventSink::enabled(1 << 12), EventSink::enabled(1 << 12));
            let mut rearmed = WindowManager::new(len);
            rearmed.set_sink(sink_a.clone());
            let mut reoffered = WindowManager::new(len);
            reoffered.set_sink(sink_b.clone());
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut now = SimTime::ZERO;
            for step in 0..200u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                now += SimDuration::from_millis(x % 40);
                let object = ObjectId((x >> 8) as u32 % OBJECTS);
                match (x >> 16) % 4 {
                    0 | 1 => {
                        // Few distinct deadlines, so ties exercise the
                        // stable insertion order.
                        let client = ClientId((x >> 24) as u16 % 8);
                        let e = ForwardEntry {
                            client,
                            txn: TransactionId::new(client, step),
                            deadline: SimTime::from_secs((x >> 32) % 6),
                            mode: LockMode::for_write((x >> 40) % 2 == 0),
                        };
                        assert_eq!(rearmed.offer(object, e, now), reoffered.offer(object, e, now));
                    }
                    2 => assert_eq!(rearmed.close_at(object, now), reoffered.close_at(object, now)),
                    _ => {
                        let expired = rearmed.expire(object, now).is_some();
                        let closes_at = rearmed.rearm(object, now);
                        assert_eq!(expired, closes_at.is_some());
                        let mut reopened = None;
                        if let Some(list) = reoffered.close_at(object, now) {
                            for &e in list.entries() {
                                if let WindowOffer::Opened { closes_at } = reoffered.offer(object, e, now) {
                                    reopened = Some(closes_at);
                                }
                            }
                        }
                        assert_eq!(closes_at, reopened, "seed {seed} step {step}");
                    }
                }
                for o in (0..OBJECTS).map(ObjectId) {
                    let list = |wm: &WindowManager| wm.open.get(&o).map(|w| w.list.clone());
                    assert_eq!(list(&rearmed), list(&reoffered), "seed {seed} step {step}");
                    assert_eq!(rearmed.pending(o), reoffered.pending(o));
                    assert_eq!(rearmed.closes_at(o), reoffered.closes_at(o));
                }
                assert_eq!(rearmed.total_opened(), reoffered.total_opened());
                assert_eq!(rearmed.total_requests(), reoffered.total_requests());
                assert_eq!(sink_a.finish(), sink_b.finish(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn untraced_rearm_keeps_the_list_in_place() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(OBJ, entry(1, 10), SimTime::ZERO);
        wm.offer(OBJ, entry(2, 5), SimTime::ZERO);
        let t = SimTime::from_secs(1);
        let list_at = |wm: &WindowManager| wm.open.get(&OBJ).map(|w| w.list.entries().as_ptr());
        let before = list_at(&wm);
        assert_eq!(wm.expire(OBJ, t).map(ForwardList::len), Some(2));
        assert_eq!(wm.rearm(OBJ, t), Some(t + SimDuration::from_millis(50)));
        // The same list buffer, never rebuilt, and no residency stamps.
        assert_eq!(list_at(&wm), before);
        assert!(wm.open.get(&OBJ).is_some_and(|w| w.offered.is_empty()));
        assert_eq!((wm.total_opened(), wm.total_requests()), (2, 4));
        assert_eq!(wm.rearm(ObjectId(9), t), None);
    }

    #[test]
    fn batch_size_statistic() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        assert_eq!(wm.mean_batch_size(), 0.0);
        wm.offer(OBJ, entry(1, 10), SimTime::ZERO);
        wm.offer(OBJ, entry(2, 10), SimTime::ZERO);
        wm.offer(OBJ, entry(3, 10), SimTime::ZERO);
        assert!((wm.mean_batch_size() - 3.0).abs() < 1e-12);
    }
}
