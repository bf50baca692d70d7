//! `scan`: rank points by full-space OD and search the top ones.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::{build_miner, load, parse_normalizer};
use hos_data::table::fmt_f64;

/// `scan`'s own flags; it also takes the data and tuning flags.
pub const SCAN_FLAGS: &[&str] = &["top"];

pub fn cmd_scan(args: &Args) -> CmdResult {
    let raw = load(args)?;
    let (ds, _) = parse_normalizer(args, &raw)?;
    let miner = build_miner(args, ds)?;
    let top = args.get_or("top", 5usize)?;
    let report = hos_core::scan_outliers(&miner, top).map_err(|e| e.to_string())?;
    println!(
        "top {top} points by full-space OD (threshold T = {}):\n",
        fmt_f64(report.threshold)
    );
    if report.hits.is_empty() {
        println!("no point reaches the threshold in any subspace.");
    }
    for hit in &report.hits {
        println!(
            "point #{}: full-space OD = {}",
            hit.id,
            fmt_f64(hit.full_od)
        );
        let minimal: Vec<String> = hit.outcome.minimal.iter().map(|s| s.to_string()).collect();
        println!(
            "  minimal outlying subspaces: {}  ({} OD evals)\n",
            minimal.join(" "),
            hit.outcome.stats.od_evals
        );
    }
    println!(
        "({} of {} points skipped without any subspace search: full-space OD < T)",
        report.skipped,
        report.skipped + report.truncated + report.hits.len()
    );
    Ok(())
}
