//! The helpers every model-building subcommand shares: loading the
//! CSV, `--metric`, `--normalize`, and the tuning flags that assemble a
//! [`HosMinerConfig`] or load a saved model.

use crate::args::Args;
use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::csv::{read_csv_path, CsvOptions};
use hos_data::normalize::{normalize, NormKind, Normalizer};
use hos_data::{Dataset, Metric};
use hos_index::{shard_count, Engine};

/// The flags [`load`], [`parse_normalizer`] and [`build_miner`] read
/// besides the tuning flags, accepted by every subcommand that builds a
/// miner from a CSV or a saved model.
pub const DATA_FLAGS: &[&str] = &["data", "header", "normalize", "model"];

/// The flags [`miner_config`] reads, accepted by every subcommand that
/// fits or loads a miner.
pub const TUNING_FLAGS: &[&str] = &[
    "k",
    "threshold",
    "quantile",
    "engine",
    "metric",
    "samples",
    "smoothing",
    "threads",
    "seed",
];

pub fn load(args: &Args) -> Result<Dataset, String> {
    let path = args.require("data")?;
    let opts = CsvOptions {
        delimiter: ',',
        has_header: args.switch("header"),
    };
    read_csv_path(path, &opts).map_err(|e| format!("loading {path}: {e}"))
}

pub fn parse_metric(args: &Args) -> Result<Metric, String> {
    match args.get("metric").unwrap_or("l2") {
        "l1" => Ok(Metric::L1),
        "l2" => Ok(Metric::L2),
        "linf" => Ok(Metric::LInf),
        other => Err(format!("unknown metric {other:?} (expected l1|l2|linf)")),
    }
}

pub fn parse_normalizer(
    args: &Args,
    ds: &Dataset,
) -> Result<(Dataset, Option<Normalizer>), String> {
    match args.get("normalize").unwrap_or("none") {
        "none" => Ok((ds.clone(), None)),
        "minmax" => {
            let (z, n) = normalize(ds, NormKind::MinMax).map_err(|e| e.to_string())?;
            Ok((z, Some(n)))
        }
        "zscore" => {
            let (z, n) = normalize(ds, NormKind::ZScore).map_err(|e| e.to_string())?;
            Ok((z, Some(n)))
        }
        other => Err(format!("unknown normalization {other:?}")),
    }
}

/// Builds a miner either from a saved model (`--model`) or by fitting
/// with the tuning flags.
pub fn build_miner(args: &Args, ds: Dataset) -> Result<HosMiner, String> {
    if let Some(path) = args.get("model") {
        let model = hos_core::ModelFile::load(path).map_err(|e| e.to_string())?;
        // Parallelism is machine-specific, not part of the fitted
        // model: honour --threads here too, as the help promises.
        let threads = args.get_or("threads", 1usize)?;
        let shards = shard_count(model.engine, ds.len(), threads);
        return model
            .into_miner_with(ds, shards, threads)
            .map_err(|e| e.to_string());
    }
    fit_miner(args, ds)
}

/// Assembles a [`HosMinerConfig`] from the shared tuning flags for a
/// miner over `rows` rows, which with `--threads` set the row-range
/// count ([`shard_count`]).
pub fn miner_config(args: &Args, rows: usize) -> Result<HosMinerConfig, String> {
    let k = args.get_or("k", 5usize)?;
    let threshold = match (
        args.get_opt::<f64>("threshold")?,
        args.get_opt::<f64>("quantile")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("--threshold and --quantile are mutually exclusive".into())
        }
        (Some(t), None) => ThresholdPolicy::Fixed(t),
        (None, q) => ThresholdPolicy::FullSpaceQuantile {
            q: q.unwrap_or(0.95),
            sample: 200,
        },
    };
    let engine: Engine = args
        .get("engine")
        .unwrap_or("linear")
        .parse()
        .map_err(|e: String| e)?;
    let threads = args.get_or("threads", 1usize)?;
    Ok(HosMinerConfig {
        k,
        threshold,
        metric: parse_metric(args)?,
        engine,
        sample_size: args.get_or("samples", 20usize)?,
        prior_smoothing: args.get_or("smoothing", 1.0f64)?,
        threads,
        shards: shard_count(engine, rows, threads),
        seed: args.get_or("seed", 0u64)?,
    })
}

pub fn fit_miner(args: &Args, ds: Dataset) -> Result<HosMiner, String> {
    let config = miner_config(args, ds.len())?;
    HosMiner::fit(ds, config).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run, tmp};

    #[test]
    fn normalization_options() {
        let path = tmp("norm.csv");
        run(&[
            "generate", "--out", &path, "--n", "200", "--d", "4", "--seed", "9",
        ])
        .unwrap();
        for mode in ["none", "minmax", "zscore"] {
            run(&[
                "query",
                "--data",
                &path,
                "--id",
                "0",
                "--normalize",
                mode,
                "--samples",
                "0",
            ])
            .unwrap();
        }
        assert!(run(&["query", "--data", &path, "--id", "0", "--normalize", "log"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_load_honours_threads() {
        let data = tmp("threaded_model.csv");
        let model = tmp("threaded.model");
        run(&[
            "generate", "--out", &data, "--n", "250", "--d", "4", "--seed", "5",
        ])
        .unwrap();
        run(&[
            "fit",
            "--data",
            &data,
            "--save-model",
            &model,
            "--quantile",
            "0.9",
            "--samples",
            "5",
        ])
        .unwrap();
        run(&[
            "query",
            "--data",
            &data,
            "--id",
            "250",
            "--model",
            &model,
            "--threads",
            "2",
        ])
        .unwrap();
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn xtree_engine_via_cli() {
        let path = tmp("xtree.csv");
        run(&[
            "generate", "--out", &path, "--n", "400", "--d", "5", "--seed", "2",
        ])
        .unwrap();
        run(&[
            "query",
            "--data",
            &path,
            "--id",
            "400",
            "--engine",
            "xtree",
            "--samples",
            "3",
        ])
        .unwrap();
        std::fs::remove_file(&path).ok();
    }
}
