//! The three real-time database system models of *Kanitkar & Delis, "Site
//! Selection for Real-Time Client Request Handling" (ICDCS 1999)* and the
//! paper's load-sharing algorithm, as deterministic discrete-event
//! simulations.
//!
//! * [`CentralizedSim`] — CE-RTDBS: all processing at the server.
//! * [`ClientServerSim`] — CS-RTDBS and LS-CS-RTDBS: object-shipping
//!   client-server with callback locking; the LS variant adds transaction
//!   shipping (heuristics H1/H2), transaction decomposition, deadline-
//!   ordered object request scheduling and grouped locks / forward lists.
//! * [`run_experiment`] — one-call driver returning [`RunMetrics`].
//! * [`experiments`] — parameter sweeps that regenerate every figure and
//!   table of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use siteselect_core::run_experiment;
//! use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};
//!
//! let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 4, 0.05);
//! cfg.runtime.duration = SimDuration::from_secs(120); // keep the doctest fast
//! cfg.runtime.warmup = SimDuration::from_secs(20);
//! let metrics = run_experiment(&cfg).unwrap();
//! assert!(metrics.measured > 0);
//! assert!(metrics.is_consistent());
//! ```

// D9 (DESIGN.md §11): a panic in engine library code would invalidate a
// replay or pass for a site crash in the recovery oracle. Each accepted
// site carries `#[expect(…, reason = "<invariant>")]` on its fn; tests
// are exempt via clippy.toml.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod centralized;
pub mod clientserver;
pub mod cpu;
pub mod driver;
pub mod experiments;
pub mod metrics;
pub mod report;

pub use centralized::CentralizedSim;
pub use clientserver::ClientServerSim;
pub use driver::{run_experiment, run_experiment_traced};
pub use metrics::{
    CacheReport, FailureBreakdown, FaultReport, LoadSharingReport, ResponseReport, RunMetrics,
};
