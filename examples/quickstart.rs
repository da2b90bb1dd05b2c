//! Quickstart: run one load-sharing experiment and print its metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, reason = "a runnable example: stdout is its interface")]

use siteselect::core::run_experiment;
use siteselect::types::{ExperimentConfig, SimDuration, SystemKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Table 1 parameterization: 20 clients, 5% of accesses are
    // updates, Localized-RW access pattern.
    let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 20, 0.05);

    // Keep the example snappy: 10 simulated minutes with a 2-minute
    // warm-up. (The full evaluation uses SweepOptions::paper().)
    cfg.runtime.duration = SimDuration::from_secs(600);
    cfg.runtime.warmup = SimDuration::from_secs(120);

    let metrics = run_experiment(&cfg)?;

    println!("{metrics}");
    println!(
        "Headline: {:.2}% of transactions met their deadlines.",
        metrics.success_percent()
    );
    println!(
        "Client cache hit rate: {:.2}% | shared-lock response {:.3}s | exclusive {:.3}s",
        metrics.cache.hit_percent(),
        metrics.response.shared.mean(),
        metrics.response.exclusive.mean(),
    );
    println!("Messages on the wire:\n{}", metrics.messages);
    Ok(())
}
