//! Thin wrappers over `std::sync` primitives with a non-poisoning API.
//!
//! The cluster deliberately keeps working when a worker thread panics (the
//! runtime reports [`ClusterError::WorkerPanicked`](crate::ClusterError)
//! instead of cascading), so every lock acquisition here recovers from
//! poisoning rather than propagating it.

#![allow(
    clippy::disallowed_methods,
    reason = "D1 allowlist: the threaded runtime times out on the wall clock; the cluster is outside the deterministic set (D2)"
)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Instant;

/// A mutex whose `lock` recovers from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the data if a panicking thread
    /// poisoned it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

/// Guard returned by [`Mutex::lock`].
///
/// Internally an `Option` so [`Condvar::wait`] can move the underlying
/// guard through `std`'s by-value wait API while callers keep `&mut` style.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

/// Result of a timed wait; mirrors `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the deadline passed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable operating on [`MutexGuard`]s in place.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified, atomically releasing and re-acquiring the
    /// guard's mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present before wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Blocks until notified or `deadline` passes.
    pub fn wait_until<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present before wait");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn notify_wakes_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
