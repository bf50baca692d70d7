//! `query`: the outlying subspaces of one point, or of a list of ids.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::{build_miner, load, parse_normalizer};
use hos_core::{HosMiner, QueryOutcome, QuerySpec};
use hos_data::table::{fmt_f64, Table};

/// `query`'s own flags; it also takes the data and tuning flags.
pub const QUERY_FLAGS: &[&str] = &["id", "ids", "point", "verbose"];

/// Prints one outcome and, with `verbose`, the explanation of `query`'s
/// deviations.
fn print_outcome(
    miner: &HosMiner,
    out: &QueryOutcome,
    query: &[f64],
    exclude: Option<usize>,
    verbose: bool,
) -> CmdResult {
    let threshold = miner.threshold();
    if out.minimal.is_empty() {
        println!(
            "not an outlier in any subspace (threshold T = {})",
            fmt_f64(threshold)
        );
    } else {
        println!("minimal outlying subspaces (T = {}):", fmt_f64(threshold));
        let mut t = Table::new(vec!["subspace", "dims", "OD"]);
        for s in &out.minimal {
            let od = out
                .outlying
                .iter()
                .find(|x| x.subspace == *s)
                .and_then(|x| x.od)
                .map(fmt_f64)
                .unwrap_or_else(|| ">= T".to_string());
            t.push(vec![s.to_string(), s.dim().to_string(), od]);
        }
        println!("{}", t.render());
        println!(
            "({} outlying subspaces total before refinement)",
            out.outlying.len()
        );
    }
    println!(
        "search: {} OD evals, {} pruned-in, {} pruned-out, lattice {}, {} kernel folds, {:.1} ms",
        out.stats.od_evals,
        out.stats.pruned_outlier,
        out.stats.pruned_non_outlier,
        out.stats.lattice_size,
        out.stats.nodes_visited,
        out.stats.seconds * 1e3
    );
    if verbose {
        let ex = hos_core::explain(miner, query, exclude, out).map_err(|e| e.to_string())?;
        let names = miner.engine().dataset().names().map(|n| n.to_vec());
        println!("{}", hos_core::explain::render(&ex, names.as_deref()));
    }
    Ok(())
}

pub fn cmd_query(args: &Args) -> CmdResult {
    // Parse and validate the batch id list BEFORE the (expensive)
    // fit: a typo in --ids must not cost a full learning phase.
    let batch_ids = match args.get("ids") {
        None => None,
        Some(spec) => {
            if args.get("id").is_some() || args.get("point").is_some() {
                return Err("--ids is mutually exclusive with --id and --point".into());
            }
            let ids: Vec<usize> = spec
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad point id {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if ids.is_empty() {
                return Err("--ids needs at least one point id".into());
            }
            Some(ids)
        }
    };
    let raw = load(args)?;
    let (ds, norm) = parse_normalizer(args, &raw)?;
    let miner = build_miner(args, ds)?;
    if let Some(ids) = batch_ids {
        return cmd_query_batch(&miner, &ids, args.switch("verbose"));
    }
    let (out, query, exclude) = match (args.get_opt::<usize>("id")?, args.get("point")) {
        (Some(_), Some(_)) => return Err("--id and --point are mutually exclusive".into()),
        (Some(id), None) => {
            let out = miner.query_id(id).map_err(|e| e.to_string())?;
            let query: Vec<f64> = miner
                .engine()
                .dataset()
                .try_row(id)
                .map_err(|e| e.to_string())?
                .to_vec();
            (out, query, Some(id))
        }
        (None, Some(spec)) => {
            let raw_point: Vec<f64> = spec
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad coordinate {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let point = match &norm {
                Some(n) => n.apply_row(&raw_point).map_err(|e| e.to_string())?,
                None => raw_point,
            };
            let out = miner.query_point(&point).map_err(|e| e.to_string())?;
            (out, point, None)
        }
        (None, None) => return Err("query needs --id or --point".into()),
    };
    print_outcome(&miner, &out, &query, exclude, args.switch("verbose"))
}

/// Multi-query front-end: `query --ids 3,17,256` runs every search in
/// one [`HosMiner::query_each`] batch, parallelised across the miner's
/// configured threads. Nothing prints unless every id is valid: the
/// first invalid id fails the command with the error `--id` gives.
fn cmd_query_batch(miner: &HosMiner, ids: &[usize], verbose: bool) -> CmdResult {
    let specs: Vec<QuerySpec> = ids.iter().map(|&id| QuerySpec::Member(id)).collect();
    let outcomes: Vec<QueryOutcome> = miner
        .query_each(&specs)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut outliers = 0usize;
    for (&id, out) in ids.iter().zip(&outcomes) {
        println!("--- point #{id} ---");
        print_outcome(
            miner,
            out,
            miner.engine().dataset().row(id),
            Some(id),
            verbose,
        )?;
        if out.is_outlier() {
            outliers += 1;
        }
        println!();
    }
    println!(
        "batch: {} queries, {} outlying in at least one subspace, {} total OD evals",
        ids.len(),
        outliers,
        outcomes.iter().map(|o| o.stats.od_evals).sum::<u64>()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run, tmp};

    #[test]
    fn batch_query_via_ids() {
        let path = tmp("batch.csv");
        run(&[
            "generate",
            "--out",
            &path,
            "--n",
            "250",
            "--d",
            "5",
            "--targets",
            "[1,2];[4]",
            "--seed",
            "6",
        ])
        .unwrap();
        // Planted outliers are rows 250 and 251; mix in inliers and
        // fan out across threads.
        run(&[
            "query",
            "--data",
            &path,
            "--ids",
            "250,251,0,1,2",
            "--samples",
            "5",
            "--threads",
            "4",
        ])
        .unwrap();
        // --verbose renders per-point explanations in batch mode too.
        run(&[
            "query",
            "--data",
            &path,
            "--ids",
            "250,0",
            "--samples",
            "5",
            "--verbose",
        ])
        .unwrap();
        // Validation: bad ids, empty list, flag exclusivity.
        assert!(run(&["query", "--data", &path, "--ids", "0,99999"]).is_err());
        assert!(run(&["query", "--data", &path, "--ids", "0,oops"]).is_err());
        assert!(run(&["query", "--data", &path, "--ids", "0", "--id", "1"]).is_err());
        assert!(run(&[
            "query",
            "--data",
            &path,
            "--ids",
            "0",
            "--point",
            "1,2,3,4,5"
        ])
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_flag_validation() {
        let path = tmp("valid.csv");
        run(&["generate", "--out", &path, "--n", "100", "--d", "4"]).unwrap();
        assert!(run(&["query", "--data", &path]).is_err());
        assert!(run(&["query", "--data", &path, "--id", "0", "--point", "1,2,3,4"]).is_err());
        assert!(run(&[
            "query",
            "--data",
            &path,
            "--id",
            "0",
            "--threshold",
            "5",
            "--quantile",
            "0.9"
        ])
        .is_err());
        assert!(run(&["query", "--data", &path, "--id", "0", "--metric", "cosine"]).is_err());
        assert!(run(&["query", "--data", &path, "--point", "1,2,oops,4"]).is_err());
        assert!(run(&["query", "--data", "/nonexistent.csv", "--id", "0"]).is_err());
        std::fs::remove_file(&path).ok();
    }
}
