//! Process control: short periodic control tasks with hard-ish deadlines.
//!
//! A plant floor runs monitoring and actuation transactions: small access
//! sets, short processing, deadlines proportional to the task length
//! (a control loop result is useless after ~4 periods). The workstations
//! mostly touch their own cell's sensors (strong locality, few updates
//! crossing cells), which is the sweet spot for client-side caching: the
//! experiment shows the client-server systems beating the centralized
//! server as cells are added.
//!
//! ```text
//! cargo run --release --example process_control
//! ```

#![allow(clippy::print_stdout, reason = "a runnable example: stdout is its interface")]

use siteselect::core::run_experiment;
use siteselect::types::{DeadlinePolicy, ExperimentConfig, SimDuration, SystemKind};

fn config(system: SystemKind, cells: u16) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(system, cells, 0.10);
    cfg.workload.mean_interarrival = SimDuration::from_secs(2);
    cfg.workload.mean_length = SimDuration::from_secs(2);
    cfg.workload.mean_objects_per_txn = 4.0;
    cfg.workload.deadline = DeadlinePolicy::ProportionalSlack { factor: 4.0 };
    // Tight per-cell locality: each cell reads its own sensor block.
    cfg.workload.access_pattern.hot_region_objects = 200;
    cfg.workload.access_pattern.hot_access_fraction = 0.9;
    cfg.runtime.duration = SimDuration::from_secs(400);
    cfg.runtime.warmup = SimDuration::from_secs(80);
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Process control: 2s tasks, deadline = 4x length, 90% in-cell locality\n");
    println!(
        "{:>6}  {:>12}  {:>12}  {:>14}",
        "cells", "CE-RTDBS %", "CS-RTDBS %", "LS-CS-RTDBS %"
    );
    for cells in [8u16, 16, 32, 64] {
        let mut row = Vec::new();
        for system in SystemKind::ALL {
            let metrics = run_experiment(&config(system, cells))?;
            row.push(metrics.success_percent());
        }
        println!(
            "{cells:>6}  {:>12.2}  {:>12.2}  {:>14.2}",
            row[0], row[1], row[2]
        );
    }
    println!("\nWith strong locality and short tasks the client-server systems");
    println!("keep control loops on time long after the central server saturates.");
    Ok(())
}
