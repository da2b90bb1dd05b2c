//! Benchmark harness support for the `siteselect` reproduction.
//!
//! The interesting entry points are:
//!
//! * `src/bin/repro.rs` — regenerates every table and figure of the paper
//!   (`cargo run -p siteselect-bench --release --bin repro -- all`);
//! * `benches/*.rs` — micro/macro benchmarks of the substrates and one
//!   end-to-end bench per experiment (`cargo bench`), driven by the small
//!   self-contained [`harness`] in this crate.
//!
//! This library only hosts small helpers shared by those targets.

#![allow(
    clippy::disallowed_methods,
    clippy::print_stdout,
    reason = "D1/D6 allowlist: the bench harness times on the wall clock and prints its reports"
)]

pub mod harness;
pub mod suite;

use siteselect_core::experiments::SweepOptions;
use siteselect_types::SimDuration;

/// Sweep options used by the `repro` binary: paper-scale by default,
/// reduced with `--quick`.
#[must_use]
pub fn repro_options(quick: bool) -> SweepOptions {
    if quick {
        SweepOptions {
            duration: SimDuration::from_secs(400),
            warmup: SimDuration::from_secs(80),
            ..SweepOptions::paper()
        }
    } else {
        SweepOptions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_options_are_shorter() {
        let q = repro_options(true);
        let p = repro_options(false);
        assert!(q.duration < p.duration);
        assert!(q.warmup < q.duration);
    }
}
