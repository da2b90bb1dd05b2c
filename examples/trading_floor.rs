//! Trading floor: an update-heavy financial workload with tight deadlines.
//!
//! Position updates and risk checks hammer a shared hot book (heavily
//! overlapping hot regions) with 25% update accesses and deadlines only 2×
//! the nominal transaction length. This is the regime the paper's
//! load-sharing algorithm was designed for: the experiment compares all
//! three systems at increasing desk counts.
//!
//! ```text
//! cargo run --release --example trading_floor
//! ```

#![allow(clippy::print_stdout, reason = "a runnable example: stdout is its interface")]

use siteselect::core::run_experiment;
use siteselect::types::{
    DeadlinePolicy, ExperimentConfig, SimDuration, SystemKind,
};

fn config(system: SystemKind, desks: u16) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(system, desks, 0.25);
    // Tight, length-proportional deadlines: a risk check that cannot keep
    // up with the market is worthless.
    cfg.workload.deadline = DeadlinePolicy::ProportionalSlack { factor: 3.0 };
    // One shared hot book: every desk's hot region is most of the same
    // 2,000 instruments.
    cfg.workload.access_pattern.hot_region_objects = 2_000;
    cfg.workload.mean_objects_per_txn = 6.0;
    cfg.workload.mean_interarrival = SimDuration::from_secs(5);
    cfg.runtime.duration = SimDuration::from_secs(600);
    cfg.runtime.warmup = SimDuration::from_secs(120);
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Trading floor: 25% updates, deadlines = 3x transaction length\n");
    println!(
        "{:>6}  {:>12}  {:>12}  {:>14}",
        "desks", "CE-RTDBS %", "CS-RTDBS %", "LS-CS-RTDBS %"
    );
    for desks in [10u16, 20, 40] {
        let mut row = Vec::new();
        for system in SystemKind::ALL {
            let metrics = run_experiment(&config(system, desks))?;
            row.push(metrics.success_percent());
        }
        println!(
            "{desks:>6}  {:>12.2}  {:>12.2}  {:>14.2}",
            row[0], row[1], row[2]
        );
    }
    println!("\nDeadline success under contention is where deadline-aware");
    println!("shipping and grouped locks earn their keep.");
    Ok(())
}
