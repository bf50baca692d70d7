//! `fit`: learn a model once and save it, optionally as a snapshot store.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::{fit_miner, load, miner_config, parse_normalizer};
use hos_data::table::fmt_f64;

/// `fit`'s own flags; it also takes the tuning flags.
pub const FIT_FLAGS: &[&str] = &["data", "header", "normalize", "save-model", "snapshot"];

pub fn cmd_fit(args: &Args) -> CmdResult {
    let out = args.require("save-model")?;
    let raw = load(args)?;
    let (ds, _) = parse_normalizer(args, &raw)?;
    let miner = fit_miner(args, ds)?;
    let model = hos_core::ModelFile::from_miner(&miner);
    model.save(out).map_err(|e| e.to_string())?;
    println!(
        "fitted: k={}, metric={}, T={}, {} learning samples; model written to {out}",
        model.k,
        model.metric.name(),
        fmt_f64(model.threshold),
        model.samples
    );
    // --snapshot DIR also checkpoints the fitted state as a columnar
    // snapshot store, the format `stream --wal` and `hos-serve
    // --data-dir` recover from.
    if let Some(dir) = args.get("snapshot") {
        let config = miner_config(args, miner.engine().dataset().len())?;
        let store_config = hos_storage::StoreConfig {
            meta: hos_storage::config_fingerprint(&config, None),
            ..Default::default()
        };
        let (mut store, _) = hos_storage::Store::open(std::path::Path::new(dir), store_config)
            .map_err(|e| format!("opening snapshot dir {dir}: {e}"))?;
        let n = miner.engine().dataset().len() as u64;
        hos_storage::snapshot_miner(&mut store, &miner, (0, 0, n))
            .map_err(|e| format!("writing snapshot: {e}"))?;
        println!("snapshot written to {dir} at seq {}", store.last_seq());
    }
    println!("note: apply the same --normalize flag on query/scan as used here.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run, tmp};

    #[test]
    fn fit_then_query_with_saved_model() {
        let data = tmp("model_data.csv");
        let model = tmp("fitted.model");
        run(&[
            "generate", "--out", &data, "--n", "300", "--d", "5", "--seed", "8",
        ])
        .unwrap();
        run(&[
            "fit",
            "--data",
            &data,
            "--save-model",
            &model,
            "--k",
            "4",
            "--quantile",
            "0.9",
            "--samples",
            "8",
        ])
        .unwrap();
        run(&["query", "--data", &data, "--id", "300", "--model", &model]).unwrap();
        run(&["scan", "--data", &data, "--top", "2", "--model", &model]).unwrap();
        // A corrupt model file is an error, not a panic.
        std::fs::write(&model, "garbage").unwrap();
        assert!(run(&["query", "--data", &data, "--id", "0", "--model", &model]).is_err());
        assert!(run(&["fit", "--data", &data]).is_err()); // missing --save-model
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }
}
