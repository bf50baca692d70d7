//! `hos-miner` — the demo system CLI (paper Figure 2, demo part 4).
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic CSV workload with planted outliers;
//! * `info`     — dataset summary statistics;
//! * `query`    — find the outlying subspaces of a point (by id or
//!   coordinates): index → threshold → learn → dynamic search → filter;
//! * `scan`     — rank dataset points by full-space OD and report the
//!   minimal outlying subspaces of the top ones;
//! * `fit`, `stream`, `bench serve`, `probe` — save a model, monitor a
//!   sliding window, gate the server's throughput ratios, and smoke-check
//!   a running server over hosbin.
//!
//! Each subcommand accepts only the flags it reads. Run `hos-miner help`
//! for usage.

mod args;
mod commands;
mod data;
mod fit;
mod probe;
mod query;
mod scan;
mod serve_bench;
mod stream;
mod tuning;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
