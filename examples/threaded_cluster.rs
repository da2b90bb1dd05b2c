//! Threaded cluster: run the *real* multi-threaded mini CS-RTDBS (OS
//! threads, channels, real 2 KB pages) and verify that the concurrent
//! execution was conflict-serializable.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

#![allow(clippy::print_stdout, reason = "a runnable example: stdout is its interface")]

use siteselect::cluster::{Cluster, ClusterConfig};
use siteselect::types::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = ClusterConfig {
        clients: 8,
        db_objects: 128,
        server_buffer: 64,
        client_cache: 24,
        txns_per_client: 40,
        ..ClusterConfig::default()
    };
    // Contended update-heavy mix so callbacks and downgrades actually fire.
    cfg.workload.update_fraction = 0.4;
    cfg.workload.mean_interarrival = SimDuration::from_secs(2);
    cfg.workload.access_pattern.hot_region_objects = 64;

    println!(
        "Running {} clients x {} transactions on real threads...",
        cfg.clients, cfg.txns_per_client
    );
    let report = Cluster::run(cfg)?;
    print!("{report}");

    print!("History of {} committed operations: ", report.history.len());
    match report.history.check_serializable() {
        Ok(()) => println!("conflict-serializable ✓"),
        Err(e) => {
            println!("VIOLATION: {e}");
            return Err(e.into());
        }
    }
    Ok(())
}
