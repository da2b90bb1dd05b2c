//! Seed sensitivity of the Figure 5 headline point (100 clients, 20%).

#![allow(clippy::print_stdout, reason = "a binary: stdout is its interface")]
use siteselect_core::run_experiment;
use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};
fn main() {
    for seed in [1u64, 2, 3] {
        let mut line = format!("seed {seed}:");
        for sys in [SystemKind::ClientServer, SystemKind::LoadSharing] {
            let mut cfg = ExperimentConfig::paper(sys, 100, 0.20);
            cfg.runtime.duration = SimDuration::from_secs(2000);
            cfg.runtime.warmup = SimDuration::from_secs(200);
            cfg.runtime.seed = seed;
            let m = run_experiment(&cfg).unwrap();
            line += &format!("  {} {:.2}%", sys.label(), m.success_percent());
        }
        println!("{line}");
    }
}
