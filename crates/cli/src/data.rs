//! `generate` writes a planted-outlier CSV; `info` summarises one.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::load;
use hos_data::csv::write_csv_path;
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::table::{fmt_f64, Table};
use hos_data::Subspace;

pub const GENERATE_FLAGS: &[&str] = &["out", "n", "d", "clusters", "targets", "shift", "seed"];
pub const INFO_FLAGS: &[&str] = &["data", "header"];

pub fn cmd_generate(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let n = args.get_or("n", 2000usize)?;
    let d = args.get_or("d", 8usize)?;
    let targets: Vec<Subspace> = match args.get("targets") {
        None => vec![
            Subspace::from_dims(&[0, 1]),
            Subspace::from_dims(&[d.saturating_sub(1)]),
        ],
        Some(spec) => spec
            .split(';')
            .map(|s| s.parse::<Subspace>())
            .collect::<Result<Vec<_>, _>>()?,
    };
    let spec = PlantedSpec {
        n_background: n,
        d,
        n_clusters: args.get_or("clusters", 3usize)?,
        cluster_sigma: 1.0,
        extent: 100.0,
        targets,
        shift_sigmas: args.get_or("shift", 12.0f64)?,
        seed: args.get_or("seed", 0u64)?,
    };
    let w = generate(&spec).map_err(|e| e.to_string())?;
    write_csv_path(&w.dataset, out, ',').map_err(|e| e.to_string())?;
    println!("wrote {} points x {} dims to {out}", w.dataset.len(), d);
    for o in &w.outliers {
        println!(
            "planted outlier: point #{} in subspace {}",
            o.id, o.subspace
        );
    }
    Ok(())
}

pub fn cmd_info(args: &Args) -> CmdResult {
    let ds = load(args)?;
    println!("{} points, {} dimensions", ds.len(), ds.dim());
    let mut t = Table::new(vec!["col", "name", "mean", "std", "min", "max"]);
    for c in 0..ds.dim() {
        let col = ds.column_vec(c);
        let (mean, std, lo, hi) = hos_data::stats::column_summary(&col).ok_or("empty dataset")?;
        let name = ds
            .names()
            .map(|n| n[c].clone())
            .unwrap_or_else(|| format!("x{}", c + 1));
        t.push(vec![
            (c + 1).to_string(),
            name,
            fmt_f64(mean),
            fmt_f64(std),
            fmt_f64(lo),
            fmt_f64(hi),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}
