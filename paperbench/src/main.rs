//! `paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report whose last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 2 on a usage error.

use std::process::ExitCode;

use paperbench::workload::{Shape, Workload};
use paperbench::Options;

const USAGE: &str =
    "usage: paperbench --workload <fig5_contended|fig3_readmostly|ce_overload|fig5_judged> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        shape: Shape::paper(workload),
    })
}

fn main() -> ExitCode {
    let started = paperbench::host::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("paperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match paperbench::run(&opts, started) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}
