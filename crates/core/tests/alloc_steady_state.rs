//! Asserts the centralized hot loop's allocation discipline: after warm-up,
//! steady-state event processing performs **zero** heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this test
//! binary only. The run uses a read-only workload (`update_fraction = 0`) so
//! the append-only WAL — which grows by design — stays quiet and the test
//! isolates the submit→lock→I/O→commit→result path: pooled event-queue
//! slots, inline transaction state, the slab-backed caches, and the
//! pre-sized lock table must all recycle without touching the allocator.

#![allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; this counting wrapper forwards verbatim to the system allocator"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use siteselect_core::CentralizedSim;
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

#[test]
fn centralized_steady_state_allocates_nothing() {
    let mut cfg = ExperimentConfig::paper(SystemKind::Centralized, 6, 0.0);
    cfg.runtime.duration = SimDuration::from_secs(200);
    cfg.runtime.warmup = SimDuration::from_secs(40);
    cfg.runtime.seed = 0x5173_5e1e;
    let warmup_end = siteselect_types::SimTime::ZERO + cfg.runtime.warmup;

    let mut sim = CentralizedSim::new(cfg);
    sim.prepare();
    // Warm up: capacities (queue slots, lock-table maps, buffer slabs,
    // scratch vectors) reach their steady-state sizes here.
    while sim.now() < warmup_end {
        assert!(sim.step(), "run drained before the warm-up window ended");
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut measured = 0u64;
    for _ in 0..200 {
        if !sim.step() {
            break;
        }
        measured += 1;
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(measured >= 100, "too few steady-state events measured: {measured}");
    assert_eq!(
        after - before,
        0,
        "steady-state event processing allocated ({} allocations over {measured} events)",
        after - before
    );
}
