//! `hos-serve` binary: fit a miner once, serve it until `/shutdown`.

use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::csv::{read_csv_path, CsvOptions};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::Engine;
use hos_serve::{ServeConfig, Server};
use std::time::{Duration, Instant};

const HELP: &str = "\
hos-serve — resident HTTP query server for HOS-Miner

USAGE:
  hos-serve (--data FILE [--header] | --n 2000 --d 6) [--seed 0]
            [--model FILE] [--data-dir DIR]
            [--k 5] [--threshold T | --quantile 0.95]
            [--engine linear|xtree|hnsw] [--metric l1|l2|linf]
            [--ef N] [--recall-target 0.95]
            [--threads 1] [--shards 1] [--samples 20]
            [--addr 127.0.0.1:7878] [--workers 0]
            [--batch-window-ms 2] [--batch-max 64] [--queue-cap 1024]
            [--fixed-window] [--query-weight 3] [--scan-weight 1]
            [--sync-every 64] [--snapshot-every 4096]

Fits once at startup, then serves POST /query /scan /insert /retire
/explain and GET /stats /healthz until POST /shutdown, which drains
gracefully: admitted work finishes, new work gets 503. --workers 0
means one HTTP worker per core. --batch-max 1 disables cross-request
batching (answers are bit-identical either way). Batch windows are
adaptive by default: the batcher holds a dry window open only while
its arrival/cost model says waiting beats executing now (capped by
--batch-window-ms); --fixed-window restores close-when-dry windows.
--query-weight/--scan-weight split worker capacity between endpoints:
at most workers*scan/(query+scan) scans run at once, so scan bursts
cannot starve point queries (excess scans get 429 after a short wait).
The same listener also speaks hosbin, the length-prefixed binary
protocol (DESIGN.md §13): a connection opening with the `\\0HSB`
preamble switches to framed binary with identical semantics.
--model FILE loads a model written by `hos-miner fit` instead of
re-learning (the data flags still supply the rows). --engine hnsw
serves approximate k-NN with exact distances; --ef fixes its
candidate-pool width, --recall-target calibrates it.
--data-dir DIR makes the server durable: on start it recovers the
newest snapshot plus the WAL tail written there (by a previous serve
run, `hos-miner stream --wal` or `fit --snapshot`); every applied
insert/retire is logged to the WAL (fsync batched every --sync-every
ops) before the client is acknowledged, and a compacted columnar
snapshot is checkpointed every --snapshot-every writes and at drain.
A fresh --data-dir is initialised from the data flags. The tuning
flags must match the ones the store was created with (a mismatch is
a typed startup error, not silent divergence).
The listening line ends with the set-up phase times as key=value
pairs: load_ms and fit_ms after a fit (or model load); after a
recovery open_ms (store read), replay_ms (snapshot decoded and the
WAL tail's ops folded into its rows), rebuild_ms (the one engine
build over the result) and ops (the tail's length).";

/// Flags that take no value.
const SWITCHES: &[&str] = &["header", "help", "fixed-window"];

/// Flags that take one value: exactly the ones HELP documents.
const VALUE_FLAGS: &[&str] = &[
    "data",
    "n",
    "d",
    "seed",
    "model",
    "data-dir",
    "k",
    "threshold",
    "quantile",
    "engine",
    "metric",
    "ef",
    "recall-target",
    "threads",
    "shards",
    "samples",
    "addr",
    "workers",
    "batch-window-ms",
    "batch-max",
    "queue-cap",
    "query-weight",
    "scan-weight",
    "sync-every",
    "snapshot-every",
];

struct Flags {
    map: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `--name value` pairs and bare switches. A misspelt or
    /// repeated flag is an error, never silently ignored or overridden.
    fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut map = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if map.iter().any(|(n, _)| n == name) || switches.iter().any(|s| s == name) {
                return Err(format!("flag --{name} given twice"));
            }
            if SWITCHES.contains(&name) {
                switches.push(name.to_string());
                i += 1;
            } else if VALUE_FLAGS.contains(&name) {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                map.push((name.to_string(), value.clone()));
                i += 2;
            } else {
                return Err(format!("unknown flag --{name} (see --help)"));
            }
        }
        Ok(Flags { map, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

fn load_dataset(flags: &Flags) -> Result<Dataset, String> {
    if let Some(path) = flags.get("data") {
        let opts = CsvOptions {
            delimiter: ',',
            has_header: flags.switch("header"),
        };
        return read_csv_path(path, &opts).map_err(|e| format!("loading {path}: {e}"));
    }
    let n: usize = flags.num("n", 2000)?;
    let d: usize = flags.num("d", 6)?;
    let seed: u64 = flags.num("seed", 0)?;
    let spec = PlantedSpec {
        n_background: n,
        d,
        n_clusters: 3,
        cluster_sigma: 1.0,
        extent: 60.0,
        targets: vec![Subspace::from_dims(&[0, 1])],
        shift_sigmas: 12.0,
        seed,
    };
    generate(&spec)
        .map(|w| w.dataset)
        .map_err(|e| e.to_string())
}

fn miner_config(flags: &Flags) -> Result<HosMinerConfig, String> {
    let threshold = match (flags.get("threshold"), flags.get("quantile")) {
        (Some(t), _) => ThresholdPolicy::Fixed(
            t.parse()
                .map_err(|_| format!("--threshold: bad value {t:?}"))?,
        ),
        (None, q) => ThresholdPolicy::FullSpaceQuantile {
            q: q.map_or(Ok(0.95), |v| {
                v.parse()
                    .map_err(|_| format!("--quantile: bad value {v:?}"))
            })?,
            sample: 200,
        },
    };
    let engine: Engine = flags.get("engine").unwrap_or("linear").parse()?;
    let metric = match flags.get("metric").unwrap_or("l2") {
        "l1" => Metric::L1,
        "l2" => Metric::L2,
        "linf" => Metric::LInf,
        other => return Err(format!("unknown metric {other:?}")),
    };
    let ef = match flags.get("ef") {
        None => None,
        Some(v) => {
            let ef: usize = v.parse().map_err(|_| format!("--ef: bad value {v:?}"))?;
            if ef == 0 {
                return Err("--ef must be positive".into());
            }
            Some(ef)
        }
    };
    let recall_target = match flags.get("recall-target") {
        None => None,
        Some(v) => {
            let t: f64 = v
                .parse()
                .map_err(|_| format!("--recall-target: bad value {v:?}"))?;
            if !(t.is_finite() && t > 0.0 && t <= 1.0) {
                return Err(format!("--recall-target {t} must be in (0, 1]"));
            }
            Some(t)
        }
    };
    Ok(HosMinerConfig {
        k: flags.num("k", 5)?,
        threshold,
        metric,
        engine,
        sample_size: flags.num("samples", 20)?,
        threads: flags.num("threads", 1)?,
        shards: flags.num("shards", 1)?,
        seed: flags.num("seed", 0)?,
        ef,
        recall_target,
        ..HosMinerConfig::default()
    })
}

/// Milliseconds since `t`, for the start-up report.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Loads the rows and fits (or loads) the miner; also returns the
/// `load_ms=… fit_ms=…` phase report.
fn build_miner(flags: &Flags, config: &HosMinerConfig) -> Result<(HosMiner, String), String> {
    let t = Instant::now();
    let ds = load_dataset(flags)?;
    let load_ms = ms_since(t);
    let t = Instant::now();
    let miner = fit_or_load(flags, config, ds)?;
    let report = format!("load_ms={load_ms:.1} fit_ms={:.1}", ms_since(t));
    Ok((miner, report))
}

fn fit_or_load(flags: &Flags, config: &HosMinerConfig, ds: Dataset) -> Result<HosMiner, String> {
    if let Some(path) = flags.get("model") {
        let model = hos_core::ModelFile::load(path).map_err(|e| e.to_string())?;
        let miner = model
            .into_miner_with(ds, config.shards, config.threads)
            .map_err(|e| e.to_string())?;
        // Search width is machine tuning, never part of the model
        // file: honour the flags at load time, like the CLI does.
        if let Some(ef) = config.ef {
            miner.engine().set_search_width(ef);
        }
        if let Some(target) = config.recall_target {
            hos_index::calibrate_search_width(
                miner.engine(),
                miner.config().k,
                target,
                16,
                config.seed.wrapping_add(2),
            );
        }
        return Ok(miner);
    }
    HosMiner::fit(ds, *config).map_err(|e| e.to_string())
}

/// The durable store and the stream counters it carries.
type DurableStore = (hos_storage::Store, (u64, u64, u64));

/// With `--data-dir`, recovers the miner from the durable store (or
/// initialises a fresh store from the data flags); without it, plain
/// fit/load. Returns the store so the writer thread can keep logging
/// to it, plus the stream counters to carry into future snapshots, and
/// the set-up phase report (`key=value` pairs).
fn recover_or_fit(
    flags: &Flags,
    config: &HosMinerConfig,
) -> Result<(HosMiner, Option<DurableStore>, String), String> {
    let Some(dir) = flags.get("data-dir") else {
        let (miner, report) = build_miner(flags, config)?;
        return Ok((miner, None, report));
    };
    let sync_every: usize = flags.num("sync-every", 64)?;
    let expected = hos_storage::config_fingerprint(config, None);
    let open = |meta: String| {
        hos_storage::Store::open(
            std::path::Path::new(dir),
            hos_storage::StoreConfig { sync_every, meta },
        )
    };
    let t = Instant::now();
    let (mut store, recovery) = match open(expected.clone()) {
        Ok(pair) => pair,
        // A store written by `stream --wal` fingerprints the window
        // too. The window only drives stream-side decisions, which are
        // already logged as explicit ops — every replay-relevant flag
        // still matches, so adopt the stored meta.
        Err(hos_storage::StorageError::MetaMismatch { found, .. })
            if found.starts_with(&expected) && found[expected.len()..].starts_with(" window=") =>
        {
            open(found).map_err(|e| format!("opening data dir {dir}: {e}"))?
        }
        Err(e) => return Err(format!("opening data dir {dir}: {e}")),
    };
    let open_ms = ms_since(t);
    if let Some(snap) = &recovery.snapshot {
        // `recover_miner`'s two phases, timed apart: the WAL tail
        // folds into the snapshot's data, then the engine builds once.
        let t = Instant::now();
        let folded = hos_storage::Folded::new(snap, &recovery.ops)
            .map_err(|e| format!("recovering from {dir}: {e}"))?;
        let replay_ms = ms_since(t);
        let t = Instant::now();
        let miner = folded
            .into_miner(config)
            .map_err(|e| format!("recovering from {dir}: {e}"))?;
        let report = format!(
            "open_ms={open_ms:.1} rebuild_ms={:.1} replay_ms={replay_ms:.1} ops={}",
            ms_since(t),
            recovery.ops.len()
        );
        let m = snap.meta();
        println!(
            "hos-serve recovered: snapshot seq {}, {} wal ops replayed, live={}",
            m.seq,
            recovery.ops.len(),
            miner.live_len()
        );
        let carry = (m.base, m.oldest, m.rows_consumed);
        return Ok((miner, Some((store, carry)), report));
    }
    if !recovery.ops.is_empty() {
        return Err(format!(
            "data dir {dir} has WAL ops but no snapshot (a pre-bootstrap stream log); \
             recover it with `hos-miner stream --wal {dir}`"
        ));
    }
    // Fresh directory: fit from the data flags and checkpoint
    // immediately so a restart recovers instead of refitting.
    let (miner, report) = build_miner(flags, config)?;
    let model_text = hos_core::ModelFile::from_miner(&miner).to_text();
    let n = miner.engine().dataset().len() as u64;
    store
        .snapshot(&hos_storage::store::SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&model_text),
            base: 0,
            oldest: 0,
            rows_consumed: n,
            search_width: hos_storage::snapshot_search_width(&miner),
        })
        .map_err(|e| format!("initialising data dir {dir}: {e}"))?;
    println!(
        "hos-serve initialised data dir {dir} at seq {}",
        store.last_seq()
    );
    Ok((miner, Some((store, (0, 0, n))), report))
}

fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    if flags.switch("help") {
        println!("{HELP}");
        return Ok(());
    }
    let miner_config = miner_config(&flags)?;
    let (miner, store, setup_report) = recover_or_fit(&flags, &miner_config)?;
    let config = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: flags.num("workers", 0)?,
        batch_window: Duration::from_millis(flags.num("batch-window-ms", 2)?),
        batch_max: flags.num("batch-max", 64)?,
        query_queue_cap: flags.num("queue-cap", 1024)?,
        write_queue_cap: flags.num("queue-cap", 1024)?,
        adaptive_window: !flags.switch("fixed-window"),
        query_weight: flags.num("query-weight", 3)?,
        scan_weight: flags.num("scan-weight", 1)?,
    };
    if config.query_weight == 0 || config.scan_weight == 0 {
        return Err("--query-weight and --scan-weight must be positive".into());
    }
    let live = miner.live_len();
    let dim = miner.engine().dataset().dim();
    let snapshot_every: u64 = flags.num("snapshot-every", 4096)?;
    let server = Server::start_with_store(
        miner,
        &config,
        store.map(|(s, carry)| (s, snapshot_every, carry)),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "hos-serve listening on {} (live={live} dim={dim} workers={} batch_max={} window={}ms) \
         {setup_report}",
        server.addr(),
        if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        },
        config.batch_max,
        config.batch_window.as_millis()
    );
    let report = server.wait();
    println!(
        "hos-serve drained: requests={} bin_requests={} specs={} batches={} max_batch={} \
         writes={} rejected={}",
        report.http_requests,
        report.bin_requests,
        report.specs,
        report.batches,
        report.max_batch,
        report.writes,
        report.rejected
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("hos-serve: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_flags_are_the_documented_ones() {
        for name in SWITCHES.iter().chain(VALUE_FLAGS).filter(|&&n| n != "help") {
            let flag = format!("--{name}");
            let documented = HELP.match_indices(&flag).any(|(at, _)| {
                !HELP[at + flag.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            });
            assert!(documented, "{flag} missing from HELP");
        }
    }
}
