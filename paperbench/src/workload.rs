//! The benchmark's workloads and the cells each one runs.
//!
//! A cell is one simulated experiment (an `ExperimentConfig`): one engine at one Figure 3/5 point
//! with one seed. The load is the simulation's own open-loop Poisson
//! arrivals (every client submits on its own schedule whatever the system's
//! state), so a slow engine gets no relief from a smaller offered load.
//! Cell seeds derive from the run's base seed; the engines of a workload
//! share each seed, as the paper's figures compare systems on one trace.

use siteselect_sim::Prng;
use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CS and LS at 100 clients and 20 % updates: the paper's headline
    /// point, where callbacks, windows, forward lists and the fabric work
    /// hardest.
    Fig5Contended,
    /// The same engines at 1 % updates: the client cache dominates, with
    /// few recalls and windows.
    Fig3ReadMostly,
    /// CE at 100 clients and 20 % updates: server lock table, wait-for
    /// graph, EDF CPU, buffer and WAL, two messages per transaction.
    CeOverload,
    /// The `Fig5Contended` cells traced with full history, judged by all
    /// four oracles and reduced to blame reports.
    Fig5Judged,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Contended,
        Workload::Fig3ReadMostly,
        Workload::CeOverload,
        Workload::Fig5Judged,
    ];

    /// The name given to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Contended => "fig5_contended",
            Workload::Fig3ReadMostly => "fig3_readmostly",
            Workload::CeOverload => "ce_overload",
            Workload::Fig5Judged => "fig5_judged",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engines run at each seed.
    #[must_use]
    pub fn systems(self) -> &'static [SystemKind] {
        match self {
            Workload::CeOverload => &[SystemKind::Centralized],
            _ => &[SystemKind::ClientServer, SystemKind::LoadSharing],
        }
    }

    /// Per-access update probability.
    #[must_use]
    pub fn update_fraction(self) -> f64 {
        match self {
            Workload::Fig3ReadMostly => 0.01,
            _ => 0.20,
        }
    }

    /// Whether each cell is traced with full history and judged by the
    /// oracles as part of the measured work.
    #[must_use]
    pub fn judged(self) -> bool {
        self == Workload::Fig5Judged
    }
}

/// The size of a workload's cells: how many clients, how long, how many
/// seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Client workstations per cell.
    pub clients: u16,
    /// Simulated seconds per cell, warm-up included.
    pub duration: SimDuration,
    /// Simulated warm-up excluded from the run's statistics.
    pub warmup: SimDuration,
    /// Seeds per run; each seed runs every engine of the workload.
    pub seeds: usize,
}

impl Shape {
    /// Table 1 scale: 100 clients, 2,000 s simulated, 200 s warm-up. The
    /// seed counts make one pass of every workload take seconds, and
    /// enough seeds to average out the seed-to-seed cost swings (CE's
    /// per-cell host time varies about 4x across seeds, and some LS seeds
    /// cost nearly twice the others).
    #[must_use]
    pub fn paper(workload: Workload) -> Shape {
        let seeds = match workload {
            Workload::Fig5Contended => 12,
            Workload::Fig3ReadMostly => 12,
            Workload::CeOverload => 40,
            Workload::Fig5Judged => 2,
        };
        Shape {
            clients: 100,
            duration: SimDuration::from_secs(2_000),
            warmup: SimDuration::from_secs(200),
            seeds,
        }
    }

    /// A few-client, short-run shape for the benchmark's own tests.
    #[must_use]
    pub fn tiny() -> Shape {
        Shape {
            clients: 6,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(20),
            seeds: 1,
        }
    }
}

/// Short label of a cell for reports: engine and seed.
#[must_use]
pub fn label(cfg: &ExperimentConfig) -> String {
    let system = match cfg.system {
        SystemKind::Centralized => "CE",
        SystemKind::ClientServer => "CS",
        SystemKind::LoadSharing => "LS",
    };
    format!("{system} seed {:#018x}", cfg.runtime.seed)
}

/// The cells of `workload` at `shape`, seed-major: every engine at the
/// first derived seed, then every engine at the next. The same base seed
/// always gives the same cells.
#[must_use]
pub fn cells(workload: Workload, shape: Shape, base_seed: u64) -> Vec<ExperimentConfig> {
    let root = Prng::seed_from_u64(base_seed);
    let mut out = Vec::new();
    for i in 0..shape.seeds {
        let seed = root.derive(i as u64 + 1).next_u64();
        for &system in workload.systems() {
            let mut cfg =
                ExperimentConfig::paper(system, shape.clients, workload.update_fraction());
            cfg.runtime.duration = shape.duration;
            cfg.runtime.warmup = shape.warmup;
            cfg.runtime.seed = seed;
            out.push(cfg);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig4"), None);
    }

    #[test]
    fn seeds_derive_from_the_base_seed() {
        let shape = Shape::paper(Workload::Fig5Contended);
        let a = cells(Workload::Fig5Contended, shape, 1);
        let b = cells(Workload::Fig5Contended, shape, 1);
        let c = cells(Workload::Fig5Contended, shape, 2);
        let seeds = |v: &[ExperimentConfig]| v.iter().map(|c| c.runtime.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        assert_eq!(a.len(), 2 * shape.seeds);
        // Both engines of a seed see the same trace.
        assert_eq!(a[0].runtime.seed, a[1].runtime.seed);
        assert_ne!(a[0].system, a[1].system);
    }

    #[test]
    fn paper_cells_use_table1_run_control() {
        for w in Workload::ALL {
            for cell in cells(w, Shape::paper(w), 7) {
                assert_eq!(cell.clients, 100);
                assert_eq!(cell.runtime.duration, SimDuration::from_secs(2_000));
                assert_eq!(cell.runtime.warmup, SimDuration::from_secs(200));
                assert!(cell.validate().is_ok());
            }
        }
    }
}
