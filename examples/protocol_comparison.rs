//! Protocol comparison: the message economics of plain callback 2PL vs the
//! paper's grouped locks (Figures 1 and 2), exactly as message traces.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

#![allow(clippy::print_stdout, reason = "a runnable example: stdout is its interface")]

use siteselect::locks::protocol_costs::{
    cached_two_pl_trace, figure1_trace, figure2_trace, grouped_trace, render_trace,
};
use siteselect::locks::ForwardList;

fn main() {
    println!("=== Figure 1: moving an object from Client A to Client B under");
    println!("    callback 2PL with inter-transaction caching ===\n");
    let f1 = figure1_trace();
    print!("{}", render_trace(&f1));
    println!("-> {} messages\n", f1.len());

    println!("=== Figure 2: the same movement with a collection window and a");
    println!("    forward list ===\n");
    let f2 = figure2_trace();
    print!("{}", render_trace(&f2));
    println!("-> {} messages\n", f2.len());

    println!("=== Scaling: n requests on one object ===\n");
    println!(
        "{:>4}  {:>14}  {:>12}  {:>9}",
        "n", "callback 2PL", "grouped", "saved"
    );
    for n in [1usize, 2, 4, 8, 16, 32] {
        let plain = cached_two_pl_trace(n).len();
        let grouped = grouped_trace(n).len();
        println!(
            "{n:>4}  {plain:>14}  {grouped:>12}  {:>8.0}%",
            (plain - grouped) as f64 * 100.0 / plain as f64
        );
    }

    println!(
        "\nClosed forms: callback 2PL needs 4n-1 messages, grouping needs 2n+1"
    );
    println!(
        "(formulas: {} and {} for n = 10).",
        ForwardList::callback_worst_case_messages(10),
        ForwardList::expected_messages(10)
    );
}
