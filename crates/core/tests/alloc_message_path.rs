//! Asserts the client-server engines' allocation budget: CS and LS message
//! handling reuses pooled payload vectors, inline lock and callback lists
//! and recycled scratch, so the event loop allocates well under once per
//! delivered message.
//!
//! The budget is not zero. Growth that tracks what the run has touched so
//! far (lock-table slots and buffer frames for objects seen for the first
//! time, the append-only WAL, the simulated disk's page copies) still
//! allocates. Each engine therefore runs twice, at two durations, and the
//! test divides the difference in allocations by the difference in
//! delivered messages. That cancels setup and trace generation and leaves
//! the per-message cost.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this test
//! binary only; the one test runs both engines in sequence so no other
//! thread allocates while it counts.

#![allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; this counting wrapper forwards verbatim to the system allocator"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use siteselect_core::ClientServerSim;
use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect with no aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` per the
        // caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: delegates to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most allocations the event loop may make per delivered message.
const BUDGET: f64 = 0.5;

/// Allocations made by the event loop (after trace generation) and
/// messages delivered after warm-up, for one run of `system` lasting
/// `secs` simulated seconds at the Figure 5 update rate.
fn run(system: SystemKind, secs: u64) -> (u64, u64) {
    let mut cfg = ExperimentConfig::paper(system, 20, 0.2);
    cfg.runtime.duration = SimDuration::from_secs(secs);
    cfg.runtime.seed = 0x5173_5e1e;
    let mut sim = ClientServerSim::new(cfg);
    sim.prepare();
    let before = ALLOCS.load(Ordering::Relaxed);
    while sim.step() {}
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, sim.finalize().messages.total_messages())
}

#[test]
fn client_server_engines_allocate_under_half_an_allocation_per_message() {
    for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
        let (short_allocs, short_msgs) = run(system, 400);
        let (long_allocs, long_msgs) = run(system, 800);
        let msgs = long_msgs.saturating_sub(short_msgs);
        assert!(msgs >= 5_000, "{system:?}: too few extra messages measured: {msgs}");
        let per_msg = long_allocs.saturating_sub(short_allocs) as f64 / msgs as f64;
        assert!(
            per_msg <= BUDGET,
            "{system:?}: {per_msg:.3} allocations per delivered message \
             (runs of 400 s and 800 s: {short_allocs} and {long_allocs} allocations, \
             {short_msgs} and {long_msgs} messages); the budget is {BUDGET}"
        );
    }
}
