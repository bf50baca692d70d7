//! CLI subcommand implementations.

use crate::args::Args;
use crate::stream::{StreamEvent, StreamState};
use hos_core::{HosMiner, HosMinerConfig, QueryOutcome, QuerySpec, ThresholdPolicy};
use hos_data::csv::{read_csv_path, write_csv_path, CsvOptions};
use hos_data::normalize::{normalize, NormKind, Normalizer};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::table::{fmt_f64, Table};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::Engine;

type CmdResult = Result<(), String>;

const HELP: &str = "\
hos-miner — detect the outlying subspaces of high-dimensional data
(reproduction of Zhang et al., VLDB 2004)

USAGE:
  hos-miner generate --out FILE [--n 2000] [--d 8] [--clusters 3]
                     [--targets \"[1,2];[5]\"] [--shift 12] [--seed 0]
  hos-miner info     --data FILE [--header]
  hos-miner fit      --data FILE --save-model FILE [--snapshot DIR]
                     [... tuning flags]
  hos-miner query    --data FILE (--id N | --ids N1,N2,... | --point \"x1,x2,...\")
                     [--model FILE]
                     [--k 5] [--threshold T | --quantile 0.95]
                     [--engine linear|xtree|hnsw] [--samples 20]
                     [--metric l1|l2|linf] [--normalize none|minmax|zscore]
                     [--smoothing 1.0] [--threads 1] [--shards 1]
                     [--ef N] [--recall-target 0.95]
                     [--seed 0] [--header]
  hos-miner scan     --data FILE [--top 5] [--model FILE] [... tuning flags]
  hos-miner stream   [--data FILE]  (no --data: rows from stdin)
                     [--window 500] [--every 200] [--top 3] [--reestimate]
                     [--wal DIR] [--sync-every 64] [... tuning flags]
  hos-miner bench    (--data FILE | --n 5000 --d 8) [--queries 16]
                     [--threads 1] [--shards 1] [--summary FILE]
                     [--kernel] [... tuning flags]
  hos-miner bench serve (--data FILE | --n 20000 --d 8)
                     [--clients 8] [--requests 25] [--threads CORES]
                     [--min-speedup 0.5] [--min-bin-speedup 0.5]
                     [--pipeline 4] [--summary FILE]
                     [... tuning flags]
  hos-miner probe    [--addr 127.0.0.1:7878]
  hos-miner bench compare [--baseline BENCH_BASELINE.json]
                     [--summary BENCH_SUMMARY.json]
                     [--tolerance 0.5] [--strict] [--keys a,b,...]
  hos-miner help

With --model, the threshold and learned priors come from a file written
by `fit` and the per-dataset learning phase is skipped.
With --ids, the queries are fanned out across --threads workers; the
results are identical to running each --id query on its own.
--threads sets the worker count for OD batches and multi-query fan-out;
--shards splits the dataset into that many partitions so a SINGLE query
also runs in parallel (per-shard k-NN, exact merge). Neither flag
changes any result: sharded and threaded answers are bit-identical to
the serial ones.
--engine hnsw answers k-NN through an approximate graph index whose
reported distances and ODs are still exact — only recall is
approximate. --ef sets its candidate-pool width (wider = higher
recall, slower); --recall-target T instead calibrates the width until
a sampled recall@k reaches T. Both are machine-tuning knobs (like
--threads) and are not persisted in models; exact engines ignore them.
`bench` fits a miner and times a batch of member queries end to end
(reporting queries/s) — point it at a real CSV or let it generate a
synthetic workload with --n/--d. Every run writes a machine-readable
summary (default BENCH_SUMMARY.json; --summary - disables). With
--kernel it also times the fixed deterministic kernel workloads (the
blocked all-points scan, the full-lattice prefix walker, the hnsw
query batch, and the storage tier's snapshot write + WAL replay) and
adds their millisecond keys to the summary. `bench serve` drives an
in-process hos-serve instance with concurrent clients under a 90/10
read/write mix across four arms — unbatched, batched with a fixed
window, batched with the adaptive window, and the hosbin binary
protocol with a pipelined client (--pipeline frames in flight) — and
merges serve_qps / serve_adaptive_qps / serve_bin_qps (plus their
p99_ms keys) into the summary; --min-speedup sets a floor on the
batched/unbatched throughput ratio and --min-bin-speedup one on the
hosbin/batched-JSON ratio, enforced on any core count.
`probe` opens a hosbin connection to a running hos-serve, walks
healthz / stats / a member query over framed binary and prints
`hosbin probe: ok` — a deploy smoke check for the binary protocol.
`bench compare` diffs a summary
against a committed baseline snapshot within --tolerance: a
non-blocking report unless --strict; --keys restricts the comparison
to a comma-separated key list (each then required in both files).
`stream` consumes rows one at a time (CSV file or stdin), maintains a
sliding window of the last --window rows with incremental engine
updates (no refits), and reports the window's top outlying points
every --every rows; --reestimate re-derives the OD threshold from the
live window at each report. Reported point ids are absolute row
numbers in the stream. With --wal DIR every state transition is
logged to a write-ahead log (fsynced every --sync-every ops) and
compactions write columnar snapshots; a killed run restarted on the
same DIR recovers the snapshot + WAL tail and resumes mid-stream with
a bit-identical window (`state digest:` pins it). `fit --snapshot DIR`
seeds such a directory from a one-shot fit, and `hos-serve --data-dir`
serves one durably.
Subspaces are printed 1-based, e.g. [1,3] = first and third columns.";

/// Dispatches an argv to a subcommand.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv)?;
    match args.positional().first().map(String::as_str) {
        Some("generate") => cmd_generate(&args),
        Some("info") => cmd_info(&args),
        Some("fit") => cmd_fit(&args),
        Some("query") => cmd_query(&args),
        Some("scan") => cmd_scan(&args),
        Some("stream") => cmd_stream(&args),
        Some("bench") => cmd_bench(&args),
        Some("probe") => cmd_probe(&args),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand {other:?}; try `hos-miner help`"
        )),
    }
}

fn load(args: &Args) -> Result<Dataset, String> {
    let path = args.require("data")?;
    let opts = CsvOptions {
        delimiter: ',',
        has_header: args.switch("header"),
    };
    read_csv_path(path, &opts).map_err(|e| format!("loading {path}: {e}"))
}

fn parse_metric(args: &Args) -> Result<Metric, String> {
    match args.get("metric").unwrap_or("l2") {
        "l1" => Ok(Metric::L1),
        "l2" => Ok(Metric::L2),
        "linf" => Ok(Metric::LInf),
        other => Err(format!("unknown metric {other:?} (expected l1|l2|linf)")),
    }
}

fn parse_normalizer(args: &Args, ds: &Dataset) -> Result<(Dataset, Option<Normalizer>), String> {
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
fn build_miner(args: &Args, ds: Dataset) -> Result<HosMiner, String> {
    if let Some(path) = args.get("model") {
        let model = hos_core::ModelFile::load(path).map_err(|e| e.to_string())?;
        // Parallelism is machine-specific, not part of the fitted
        // model: honour --threads and --shards here too, as the help
        // promises.
        let miner = model
            .into_miner_with(
                ds,
                args.get_or("shards", 1usize)?,
                args.get_or("threads", 1usize)?,
            )
            .map_err(|e| e.to_string())?;
        // Search width is machine tuning like --threads, so the model
        // file never carries it: honour the flags at load time too.
        if let Some(ef) = args.get_opt::<usize>("ef")? {
            if ef == 0 {
                return Err("--ef must be positive".into());
            }
            miner.engine().set_search_width(ef);
        }
        if let Some(target) = args.get_opt::<f64>("recall-target")? {
            if !(target.is_finite() && target > 0.0 && target <= 1.0) {
                return Err(format!("--recall-target {target} must be in (0, 1]"));
            }
            hos_index::calibrate_search_width(
                miner.engine(),
                miner.config().k,
                target,
                16,
                args.get_or("seed", 0u64)?.wrapping_add(2),
            );
        }
        return Ok(miner);
    }
    fit_miner(args, ds)
}

/// Assembles a [`HosMinerConfig`] from the shared tuning flags.
fn miner_config(args: &Args) -> Result<HosMinerConfig, String> {
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
    Ok(HosMinerConfig {
        k,
        threshold,
        metric: parse_metric(args)?,
        engine,
        sample_size: args.get_or("samples", 20usize)?,
        prior_smoothing: args.get_or("smoothing", 1.0f64)?,
        threads: args.get_or("threads", 1usize)?,
        shards: args.get_or("shards", 1usize)?,
        ef: args.get_opt("ef")?,
        recall_target: args.get_opt("recall-target")?,
        seed: args.get_or("seed", 0u64)?,
    })
}

fn fit_miner(args: &Args, ds: Dataset) -> Result<HosMiner, String> {
    HosMiner::fit(ds, miner_config(args)?).map_err(|e| e.to_string())
}

fn cmd_generate(args: &Args) -> CmdResult {
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

fn cmd_fit(args: &Args) -> CmdResult {
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
        let config = miner_config(args)?;
        let store_config = hos_storage::StoreConfig {
            meta: hos_storage::config_fingerprint(&config, None),
            ..Default::default()
        };
        let (mut store, _) = hos_storage::Store::open(std::path::Path::new(dir), store_config)
            .map_err(|e| format!("opening snapshot dir {dir}: {e}"))?;
        let model_text = model.to_text();
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
            .map_err(|e| format!("writing snapshot: {e}"))?;
        println!("snapshot written to {dir} at seq {}", store.last_seq());
    }
    println!("note: apply the same --normalize flag on query/scan as used here.");
    Ok(())
}

fn cmd_info(args: &Args) -> CmdResult {
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

fn print_outcome(out: &hos_core::QueryOutcome, threshold: f64) {
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
}

fn cmd_query(args: &Args) -> CmdResult {
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
    print_outcome(&out, miner.threshold());
    if args.switch("verbose") {
        let ex = hos_core::explain(&miner, &query, exclude, &out).map_err(|e| e.to_string())?;
        let names = miner.engine().dataset().names().map(|n| n.to_vec());
        println!("{}", hos_core::explain::render(&ex, names.as_deref()));
    }
    Ok(())
}

/// Multi-query front-end: `query --ids 3,17,256` runs every search in
/// one [`HosMiner::query_each`] batch, parallelised across the miner's
/// configured threads. Nothing prints unless every id is valid: the
/// first invalid id fails the command with the error `--id` gives.
fn cmd_query_batch(miner: &HosMiner, ids: &[usize], verbose: bool) -> CmdResult {
    let outcomes = query_members(miner, ids)?;
    let mut outliers = 0usize;
    for (id, out) in ids.iter().zip(&outcomes) {
        println!("--- point #{id} ---");
        print_outcome(out, miner.threshold());
        if verbose {
            let query: Vec<f64> = miner.engine().dataset().row(*id).to_vec();
            let ex = hos_core::explain(miner, &query, Some(*id), out).map_err(|e| e.to_string())?;
            let names = miner.engine().dataset().names().map(|n| n.to_vec());
            println!("{}", hos_core::explain::render(&ex, names.as_deref()));
        }
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

/// Answers member queries through [`HosMiner::query_each`], failing
/// with the first error in input order.
fn query_members(miner: &HosMiner, ids: &[usize]) -> Result<Vec<QueryOutcome>, String> {
    let specs: Vec<QuerySpec> = ids.iter().map(|&id| QuerySpec::Member(id)).collect();
    miner
        .query_each(&specs)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

fn cmd_scan(args: &Args) -> CmdResult {
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

/// Streaming front-end: consume rows one at a time, maintain a
/// sliding window of the last `--window` rows through the incremental
/// engine path (`HosMiner::insert_point` / `retire_point` — no refits
/// on the steady-state path), and report the window's top outlying
/// points every `--every` rows.
///
/// Memory is bounded: tombstones accumulate until they outnumber the
/// live window 3:1, then the window is compacted into a fresh miner
/// (the only non-incremental step, amortised over 3·W rows). Reported
/// ids are absolute row numbers in the stream, stable across
/// compactions.
fn cmd_stream(args: &Args) -> CmdResult {
    let window = args.get_or("window", 500usize)?;
    let every = args.get_or("every", 200usize)?.max(1);
    let top = args.get_or("top", 3usize)?;
    let reestimate = args.switch("reestimate");
    let config = miner_config(args)?;
    if window <= config.k + 1 {
        return Err(format!(
            "--window {window} too small: need more than k + 1 = {} rows live",
            config.k + 1
        ));
    }

    let reader: Box<dyn std::io::BufRead> = match args.get("data") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };

    // Durable mode (--wal DIR): every state transition is logged to a
    // write-ahead log before it is applied, and a crashed run recovers
    // by replaying the newest snapshot plus the WAL tail through the
    // exact same `StreamState::apply`. Without --wal the state machine
    // runs with a no-op logger and behaves as before.
    let mut store: Option<hos_storage::Store> = None;
    let mut state = StreamState::new(config, window, reestimate);
    if let Some(dir) = args.get("wal") {
        let store_config = hos_storage::StoreConfig {
            sync_every: args.get_or("sync-every", 64usize)?,
            meta: hos_storage::config_fingerprint(&config, Some(window)),
        };
        let (s, recovery) = hos_storage::Store::open(std::path::Path::new(dir), store_config)
            .map_err(|e| format!("opening wal dir {dir}: {e}"))?;
        if recovery.truncated_tail {
            println!("(wal: torn final record truncated)");
        }
        let replayed = recovery.ops.len();
        let snap_seq = recovery.snapshot.as_ref().map(|sn| sn.meta().seq);
        state = StreamState::from_recovery(config, window, reestimate, &recovery)?;
        if snap_seq.is_some() || replayed > 0 {
            println!(
                "recovered: snapshot seq {}, {replayed} wal ops replayed, resuming at row {}",
                snap_seq.map_or_else(|| "none".into(), |q| q.to_string()),
                state.rows_consumed
            );
        }
        store = Some(s);
    }
    // A recovered run already consumed this many input rows; skip them.
    let resume_skip = state.rows_consumed;

    let mut seen = state.rows_consumed as usize;
    let mut scans = 0usize;
    let mut outlier_rows = 0usize;
    let mut last_report = usize::MAX;
    let mut skip_header = args.switch("header");
    let mut data_rows = 0u64;

    fn log_op(store: &mut Option<hos_storage::Store>, op: &hos_storage::Op) -> CmdResult {
        if let Some(s) = store.as_mut() {
            s.append(op).map(|_| ()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn report(
        state: &mut StreamState,
        store: &mut Option<hos_storage::Store>,
        top: usize,
        seen: usize,
        scans: &mut usize,
        outlier_rows: &mut usize,
    ) -> CmdResult {
        // --reestimate mutates the threshold, so in durable mode it is
        // a logged op like any other transition.
        if state.reestimate {
            let op = hos_storage::Op::Reestimate;
            log_op(store, &op)?;
            state.apply(&op)?;
        }
        let base = state.base as usize;
        let m = state.miner.as_mut().expect("report before fit");
        let rep = hos_core::scan_outliers(m, top).map_err(|e| e.to_string())?;
        *scans += 1;
        println!(
            "-- row {seen}: window {} live, T = {}",
            m.live_len(),
            fmt_f64(rep.threshold)
        );
        if rep.hits.is_empty() {
            println!("   (no point above T in any subspace)");
        }
        for hit in &rep.hits {
            *outlier_rows += 1;
            let minimal: Vec<String> = hit.outcome.minimal.iter().map(|s| s.to_string()).collect();
            println!(
                "   outlier row #{}: full OD {}, minimal subspaces {}",
                base + hit.id,
                fmt_f64(hit.full_od),
                minimal.join(" ")
            );
        }
        Ok(())
    }

    for line in std::io::BufRead::lines(reader) {
        let line = line.map_err(|e| format!("reading stream: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if skip_header {
            skip_header = false;
            continue;
        }
        data_rows += 1;
        if data_rows <= resume_skip {
            continue;
        }
        let row: Vec<f64> = trimmed
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("row {}: bad value {v:?}", seen + 1))
            })
            .collect::<Result<Vec<_>, _>>()?;
        seen += 1;

        let events = state.consume_row(row, &mut |op| log_op(&mut store, op))?;
        for ev in events {
            match ev {
                StreamEvent::Bootstrapped { threshold } => println!(
                    "bootstrapped on first {window} rows: k={}, engine={}, T = {}",
                    config.k,
                    config.engine,
                    fmt_f64(threshold)
                ),
                StreamEvent::Compacted { tombstones } => {
                    println!(
                        "(compacted {tombstones} tombstones at row {seen}; \
                         window ids renumbered from {})",
                        state.base
                    );
                    // Compaction is the snapshot cadence: the window
                    // was just rewritten densely, so checkpoint it and
                    // rotate the WAL before the next 3·W rows accrue.
                    if let Some(s) = store.as_mut() {
                        state.snapshot_into(s)?;
                        println!("(snapshot written at seq {})", s.last_seq());
                    }
                }
            }
        }
        if state.miner.is_some() && seen >= window && (seen - window).is_multiple_of(every) {
            report(
                &mut state,
                &mut store,
                top,
                seen,
                &mut scans,
                &mut outlier_rows,
            )?;
            last_report = seen;
        }
    }

    // A short stream never reached the window size: fit on what there
    // is so the final report still happens. The fit is a logged
    // transition like any other, so a durable short stream recovers
    // identically too.
    if state.miner.is_none() {
        if state.bootstrap_len() <= config.k + 1 {
            return Err(format!(
                "stream ended after {} rows; need more than k + 1 = {} to fit",
                state.bootstrap_len(),
                config.k + 1
            ));
        }
        let op = hos_storage::Op::Bootstrap;
        log_op(&mut store, &op)?;
        state.apply(&op)?;
    }
    // Final report unless the loop just emitted one at this exact row.
    if last_report != seen {
        report(
            &mut state,
            &mut store,
            top,
            seen,
            &mut scans,
            &mut outlier_rows,
        )?;
    }
    if let Some(s) = store.as_mut() {
        state.snapshot_into(s)?;
        println!("(snapshot written at seq {})", s.last_seq());
        println!("state digest: {:016x}", state.digest());
    }
    let m = state.miner.as_ref().expect("fitted above");
    println!(
        "stream: {seen} rows, window {} live, {} inserts, {} retires, \
         {scans} scans, {outlier_rows} outlier reports, final T = {}",
        m.live_len(),
        state.inserts,
        state.retires,
        fmt_f64(m.threshold())
    );
    Ok(())
}

/// End-to-end throughput measurement: fit a miner, run a batch of
/// member queries, report wall time and queries/s. The knob the
/// scaling story cares about: the same workload re-run with
/// `--threads`/`--shards` varied shows exactly what each buys, with
/// results guaranteed identical.
///
/// Every run also writes a machine-readable summary (default
/// `BENCH_SUMMARY.json`, overridable with `--summary PATH`, disabled
/// with `--summary -`): the workload config plus fit/query timings,
/// one JSON field per line so the `bench compare` parser — and any
/// CI script — can read it without a JSON library. `bench compare`
/// diffs a summary against a committed baseline with a tolerance.
fn cmd_bench(args: &Args) -> CmdResult {
    match args.positional().get(1).map(String::as_str) {
        Some("compare") => return cmd_bench_compare(args),
        Some("serve") => return cmd_bench_serve(args),
        _ => {}
    }
    let ds = if args.get("data").is_some() {
        load(args)?
    } else {
        let n = args.get_or("n", 5000usize)?;
        let d = args.get_or("d", 8usize)?;
        let spec = PlantedSpec {
            n_background: n,
            d,
            n_clusters: 3,
            cluster_sigma: 1.0,
            extent: 100.0,
            targets: vec![
                Subspace::from_dims(&[0, 1]),
                Subspace::from_dims(&[d.saturating_sub(1)]),
            ],
            shift_sigmas: 12.0,
            seed: args.get_or("seed", 0u64)?,
        };
        generate(&spec).map_err(|e| e.to_string())?.dataset
    };
    // Same preprocessing as fit/query/scan: the timed workload must be
    // the one the user actually serves.
    let (ds, _) = parse_normalizer(args, &ds)?;
    let n_queries = args.get_or("queries", 16usize)?.max(1).min(ds.len());
    let threads = args.get_or("threads", 1usize)?;
    let shards = args.get_or("shards", 1usize)?;

    let fit_start = std::time::Instant::now();
    let miner = build_miner(args, ds)?;
    let fit_seconds = fit_start.elapsed().as_secs_f64();

    // Evenly spread member queries across the dataset, deterministic.
    let n = miner.engine().dataset().len();
    let ids: Vec<usize> = (0..n_queries).map(|i| i * n / n_queries).collect();
    let query_start = std::time::Instant::now();
    let outcomes = query_members(&miner, &ids)?;
    let query_seconds = query_start.elapsed().as_secs_f64();

    let od_evals: u64 = outcomes.iter().map(|o| o.stats.od_evals).sum();
    let outliers = outcomes.iter().filter(|o| o.is_outlier()).count();
    println!(
        "bench: {} points x {} dims, k={}, engine={}, threads={threads}, shards={shards}",
        n,
        miner.engine().dataset().dim(),
        miner.config().k,
        miner.config().engine,
    );
    println!(
        "fit:   {:.3} s (threshold T = {})",
        fit_seconds,
        fmt_f64(miner.threshold())
    );
    let queries_per_s = ids.len() as f64 / query_seconds.max(1e-12);
    println!(
        "query: {} queries in {:.3} s  ->  {:.1} queries/s  ({} OD evals, {} outliers)",
        ids.len(),
        query_seconds,
        queries_per_s,
        od_evals,
        outliers
    );

    let mut kernel_fields = String::new();
    if args.switch("kernel") {
        for (key, val) in kernel_benchmarks() {
            // Non-`_ms` keys are counts (e.g. the crossover n), not
            // durations.
            if key.ends_with("_ms") {
                println!("kernel: {key} = {val:.3} ms");
            } else {
                println!("kernel: {key} = {val:.0}");
            }
            kernel_fields.push_str(&format!(",\n    \"{key}\": {val:.3}"));
        }
    }

    let summary_path = args.get("summary").unwrap_or("BENCH_SUMMARY.json");
    if summary_path != "-" {
        let summary = format!(
            "{{\n  \"config\": {{\n    \"n\": {},\n    \"d\": {},\n    \"k\": {},\n    \
             \"engine\": \"{}\",\n    \"metric\": \"{}\",\n    \"threads\": {},\n    \
             \"shards\": {},\n    \"queries\": {}\n  }},\n  \"results\": {{\n    \
             \"fit_seconds\": {:.6},\n    \"query_seconds\": {:.6},\n    \
             \"queries_per_s\": {:.3},\n    \"od_evals\": {},\n    \"outliers\": {}{}\n  }}\n}}\n",
            n,
            miner.engine().dataset().dim(),
            miner.config().k,
            miner.config().engine,
            miner.config().metric.name(),
            threads,
            shards,
            ids.len(),
            fit_seconds,
            query_seconds,
            queries_per_s,
            od_evals,
            outliers,
            kernel_fields
        );
        std::fs::write(summary_path, summary)
            .map_err(|e| format!("writing {summary_path}: {e}"))?;
        println!("wrote {summary_path}");
    }
    Ok(())
}

/// Deterministic data for the kernel workloads: a fixed LCG, no
/// dependence on the bench flags, so the timings are comparable across
/// runs and machines (same work, always).
fn kernel_dataset(n: usize, d: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let flat: Vec<f64> = (0..n * d)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 10000) as f64 / 100.0
        })
        .collect();
    Dataset::from_flat(flat, d).expect("finite synthetic data")
}

/// The fixed kernel micro-workloads behind `bench --kernel`, as
/// `(summary key, best-of-iters milliseconds)`:
///
/// * `blocked_scan_ms` — the blocked all-points full-space OD kernel
///   (quantized admission path) on n=2002, d=8, k=5, L2;
/// * `full_lattice_d{10,12}_ms` — the prefix-stack walker evaluating
///   all `2^d - 1` subspace ODs of one query (k=10);
/// * `hnsw_knn_ms` — 32 full-space hnsw k-NN queries (default `ef`)
///   at the largest sweep size (n=8000, d=8, k=5, L2), graph build
///   excluded;
/// * `hnsw_crossover_n` — the smallest sweep n where that hnsw query
///   batch beats the exact linear scan on the same batch (the
///   approximate-first break-even point; `16000` = beyond the sweep);
/// * `snapshot_ms` / `wal_replay_ms` — the storage tier: writing a
///   columnar snapshot of a 4000x8 dataset (encode + fsync + WAL
///   rotation), and recovering a 2000-op WAL tail via `Store::open`.
///
/// Best-of rather than mean: the workloads are deterministic, so the
/// minimum is the cleanest estimate of the kernel's cost.
fn kernel_benchmarks() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    {
        let ds = kernel_dataset(2002, 8, 0x243F6A8885A308D3);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let scan = hos_index::all_points_full_od(&ds, Metric::L2, 5).expect("enough points");
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            assert!(!scan.is_empty());
            best = best.min(ms);
        }
        out.push(("blocked_scan_ms", best));
    }
    for (key, d) in [
        ("full_lattice_d10_ms", 10usize),
        ("full_lattice_d12_ms", 12),
    ] {
        let ds = kernel_dataset(2000, d, 0x9E3779B97F4A7C15);
        let query: Vec<f64> = ds.row(17).to_vec();
        let ctx = hos_index::QueryContext::build(&ds, Metric::L2, &query);
        let mut ordered: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        ordered.sort_by(|a, b| a.walk_cmp(*b));
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let mut w = ctx.walker();
            let mut sink = 0.0;
            for &s in &ordered {
                w.seek(s);
                sink += w.od(10, Some(17));
            }
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            assert!(sink.is_finite());
            best = best.min(ms);
        }
        out.push((key, best));
    }
    {
        // Approximate-vs-exact crossover sweep: same query batch
        // through HnswEngine (graph candidates + exact re-rank) and
        // LinearScan, per dataset size. Build time is excluded — the
        // key measures steady-state query cost, which is what the
        // crossover argument is about.
        let (d, k, queries) = (8usize, 5usize, 32usize);
        let sizes = [1000usize, 2000, 4000, 8000];
        let mut crossover = (2 * sizes[sizes.len() - 1]) as f64;
        let mut hnsw_ms = 0.0;
        for &n in &sizes {
            let ds = kernel_dataset(n, d, 0xB529_7A4D_4496_CF3D);
            let qids: Vec<usize> = (0..queries).map(|i| i * n / queries).collect();
            let hnsw = hos_index::HnswEngine::build(ds.clone(), Metric::L2, Default::default());
            let linear = hos_index::LinearScan::new(ds.clone(), Metric::L2);
            let s = ds.full_space();
            let time_batch = |engine: &dyn hos_index::KnnEngine| {
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = std::time::Instant::now();
                    let mut sink = 0usize;
                    for &qid in &qids {
                        sink += engine.knn(ds.row(qid), k, s, Some(qid)).len();
                    }
                    let ms = t.elapsed().as_secs_f64() * 1000.0;
                    assert_eq!(sink, queries * k);
                    best = best.min(ms);
                }
                best
            };
            let approx = time_batch(&hnsw);
            let exact = time_batch(&linear);
            if approx < exact && crossover > n as f64 {
                crossover = n as f64;
            }
            hnsw_ms = approx;
        }
        out.push(("hnsw_knn_ms", hnsw_ms));
        out.push(("hnsw_crossover_n", crossover));
    }
    {
        // Storage-tier kernels: columnar snapshot encode + fsync of a
        // 4000x8 dataset, and `Store::open` recovery of a 2000-op WAL
        // tail over that snapshot (read, checksum, decode). Both are
        // wall-clock including fsync, so they carry more machine noise
        // than the pure CPU kernels above — they ride in the summary
        // as optional, non-gating keys.
        use hos_storage::store::SnapshotState;
        let dir = std::env::temp_dir().join(format!("hos-bench-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = kernel_dataset(4000, 8, 0x1357_9BDF_2468_ACE0);
        let sc = || hos_storage::StoreConfig {
            sync_every: 64,
            meta: "bench kernel".into(),
        };
        let (mut store, _) = hos_storage::Store::open(&dir, sc()).expect("bench store dir");
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            store
                .snapshot(&SnapshotState {
                    dataset: &ds,
                    model: None,
                    base: 0,
                    oldest: 0,
                    rows_consumed: ds.len() as u64,
                    search_width: 0,
                })
                .expect("bench snapshot");
            best = best.min(t.elapsed().as_secs_f64() * 1000.0);
        }
        out.push(("snapshot_ms", best));
        for i in 0..2000u64 {
            let op = if i % 2 == 0 {
                hos_storage::Op::Insert(ds.row(i as usize % ds.len()).to_vec())
            } else {
                hos_storage::Op::Retire(i / 2)
            };
            store.append(&op).expect("bench append");
        }
        store.sync().expect("bench sync");
        drop(store);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let (s, rec) = hos_storage::Store::open(&dir, sc()).expect("bench reopen");
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(rec.ops.len(), 2000, "bench wal tail intact");
            drop(s);
            best = best.min(ms);
        }
        out.push(("wal_replay_ms", best));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// `bench serve`: sustained-load benchmark of the resident query
/// server under a 90/10 read/write mix, across four arms that all
/// answer bit-identically (pinned by the serve concurrency and
/// protocol oracles) so each comparison isolates one mechanism:
///
/// * unbatched (`batch_max 1`) vs **fixed-window batched** — what
///   cross-request batching buys (`serve_qps`, meaning unchanged
///   from earlier baselines);
/// * fixed vs **adaptive window** — what the arrival/cost model buys
///   in tail latency (`serve_adaptive_*`);
/// * batched JSON vs **hosbin** with a pipelined binary client —
///   what the length-prefixed protocol and `--pipeline` in-flight
///   frames buy (`serve_bin_*`).
///
/// The speedup gates (`--min-speedup`, `--min-bin-speedup`) are plain
/// floors on the measured ratios, enforced on every machine. Each arm
/// serves only a few hundred requests, so the ratios are noisy: on a
/// two-core host batched/unbatched spans about 0.6–1.6× between
/// identical runs. A gate that must pass on the hardware it runs on
/// is a no-regression floor below that spread, not a speedup claim.
fn cmd_bench_serve(args: &Args) -> CmdResult {
    let ds = if args.get("data").is_some() {
        load(args)?
    } else {
        // Default to a workload where one query costs real work (a
        // full 20k x 8 OD scan minimum): dynamic batching buys
        // throughput by fanning execution out across cores, so the
        // benchmark must not be dominated by per-request socket
        // overhead the way a toy dataset would be.
        let n = args.get_or("n", 20_000usize)?;
        let d = args.get_or("d", 8usize)?;
        let spec = PlantedSpec {
            n_background: n,
            d,
            n_clusters: 3,
            cluster_sigma: 1.0,
            extent: 100.0,
            targets: vec![Subspace::from_dims(&[0, 1])],
            shift_sigmas: 12.0,
            seed: args.get_or("seed", 0u64)?,
        };
        generate(&spec).map_err(|e| e.to_string())?.dataset
    };
    let (ds, _) = parse_normalizer(args, &ds)?;
    let clients = args.get_or("clients", 8usize)?.max(1);
    let per_client = args.get_or("requests", 25usize)?.max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Batching wins by turning a window of concurrent requests into
    // one parallel fan-out — give the miner the machine's cores
    // unless --threads says otherwise.
    let threads = args.get_or("threads", cores)?;

    let fit_start = std::time::Instant::now();
    let mut miner = build_miner(args, ds)?;
    miner.set_threads(threads);
    let fit_seconds = fit_start.elapsed().as_secs_f64();
    let n = miner.engine().dataset().len();
    let dim = miner.engine().dataset().dim();
    println!(
        "bench serve: {n} points x {dim} dims, k={}, engine={}, threads={threads}, \
         {clients} clients x {per_client} requests, 90/10 read/write",
        miner.config().k,
        miner.config().engine,
    );

    /// One sustained run against a fresh in-process server; returns
    /// `(qps, p99_ms)`.
    fn drive(
        miner: hos_core::HosMiner,
        batch_max: usize,
        adaptive: bool,
        clients: usize,
        per_client: usize,
        n: usize,
        dim: usize,
    ) -> Result<(f64, f64), String> {
        let config = hos_serve::ServeConfig {
            workers: clients.min(16),
            batch_window: std::time::Duration::from_millis(2),
            batch_max,
            adaptive_window: adaptive,
            ..hos_serve::ServeConfig::default()
        };
        let server = hos_serve::Server::start(miner, &config).map_err(|e| e.to_string())?;
        let addr = server.addr();
        let start = std::time::Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_client);
                        let mut inserted: Vec<usize> = Vec::new();
                        for i in 0..per_client {
                            // 90/10 read/write; writes alternate
                            // insert / retire-own-insert so the live
                            // set stays near its starting size.
                            let (path, body) = if i % 10 == 9 {
                                match inserted.pop() {
                                    Some(id) => ("/retire", format!("{{\"id\":{id}}}")),
                                    None => {
                                        let v = ((c * 131 + i * 17) % 100) as f64;
                                        let row: Vec<String> =
                                            (0..dim).map(|j| format!("{}", v + j as f64)).collect();
                                        ("/insert", format!("{{\"row\":[{}]}}", row.join(",")))
                                    }
                                }
                            } else {
                                ("/query", format!("{{\"id\":{}}}", (c * 97 + i * 13) % n))
                            };
                            let t = std::time::Instant::now();
                            let (status, resp) =
                                tinyhttp::client_request(addr, "POST", path, body.as_bytes())
                                    .expect("server reachable");
                            lat.push(t.elapsed().as_secs_f64() * 1000.0);
                            assert!(
                                status == 200,
                                "unexpected status {status} on {path}: {}",
                                String::from_utf8_lossy(&resp)
                            );
                            if path == "/insert" {
                                let text = String::from_utf8_lossy(&resp);
                                if let Some(id) = summary_number(&text, "id") {
                                    inserted.push(id as usize);
                                }
                            }
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        server.initiate_shutdown();
        let report = server.join();
        let total = latencies.len();
        assert_eq!(report.http_requests as usize, total);
        let mut sorted = latencies;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let p99 = sorted[((total as f64 * 0.99).ceil() as usize).clamp(1, total) - 1];
        Ok((total as f64 / elapsed.max(1e-12), p99))
    }

    /// One sustained hosbin run: same workload mix, but framed binary
    /// over one persistent connection per client with up to `pipeline`
    /// requests in flight (replies come back in order, so latency is
    /// measured send-to-matching-reply).
    fn drive_bin(
        miner: hos_core::HosMiner,
        clients: usize,
        per_client: usize,
        n: usize,
        dim: usize,
        pipeline: usize,
    ) -> Result<(f64, f64), String> {
        use hos_serve::codec;
        use std::collections::VecDeque;
        type InFlight = VecDeque<(bool, std::time::Instant)>;

        fn recv_one(
            cli: &mut tinyhttp::bin::BinClient,
            inflight: &mut InFlight,
            lat: &mut Vec<f64>,
            inserted: &mut Vec<usize>,
        ) {
            let (was_insert, sent) = inflight.pop_front().expect("reply for a sent frame");
            let (op, resp) = cli.recv().expect("server reachable");
            lat.push(sent.elapsed().as_secs_f64() * 1000.0);
            let (status, json) = codec::bin_reply_to_json(op, resp).expect("decodable reply");
            assert!(status == 200, "unexpected status {status}: {json:?}");
            if was_insert {
                if let Some(id) = json.get("id").and_then(hos_serve::Json::as_usize) {
                    inserted.push(id);
                }
            }
        }

        let config = hos_serve::ServeConfig {
            workers: clients.min(16),
            batch_window: std::time::Duration::from_millis(2),
            batch_max: 64,
            ..hos_serve::ServeConfig::default()
        };
        let server = hos_serve::Server::start(miner, &config).map_err(|e| e.to_string())?;
        let addr = server.addr();
        let start = std::time::Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut cli =
                            tinyhttp::bin::BinClient::connect(addr).expect("server reachable");
                        let mut lat = Vec::with_capacity(per_client);
                        let mut inserted: Vec<usize> = Vec::new();
                        let mut body = Vec::new();
                        let mut inflight: InFlight = VecDeque::with_capacity(pipeline);
                        for i in 0..per_client {
                            // Same 90/10 read/write mix as the HTTP arms.
                            let (req, is_insert) = if i % 10 == 9 {
                                match inserted.pop() {
                                    Some(id) => (hos_serve::ApiRequest::Retire(id), false),
                                    None => {
                                        let v = ((c * 131 + i * 17) % 100) as f64;
                                        let row: Vec<f64> =
                                            (0..dim).map(|j| v + j as f64).collect();
                                        (hos_serve::ApiRequest::Insert(row), true)
                                    }
                                }
                            } else {
                                let id = (c * 97 + i * 13) % n;
                                (
                                    hos_serve::ApiRequest::Query(vec![QuerySpec::Member(id)]),
                                    false,
                                )
                            };
                            let op = codec::encode_bin_request(&req, &mut body);
                            inflight.push_back((is_insert, std::time::Instant::now()));
                            cli.send(op, &body).expect("server reachable");
                            while inflight.len() >= pipeline {
                                recv_one(&mut cli, &mut inflight, &mut lat, &mut inserted);
                            }
                        }
                        while !inflight.is_empty() {
                            recv_one(&mut cli, &mut inflight, &mut lat, &mut inserted);
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        server.initiate_shutdown();
        let report = server.join();
        let total = latencies.len();
        assert_eq!(report.bin_requests as usize, total);
        let mut sorted = latencies;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let p99 = sorted[((total as f64 * 0.99).ceil() as usize).clamp(1, total) - 1];
        Ok((total as f64 / elapsed.max(1e-12), p99))
    }

    // The server consumes its miner; fit identical twins for the
    // other arms (fitting is deterministic, so the workloads match).
    let fit_twin = || -> Result<hos_core::HosMiner, String> {
        let mut m = build_miner(args, miner.engine().dataset().clone())?;
        m.set_threads(threads);
        Ok(m)
    };
    let twin_unbatched = fit_twin()?;
    let twin_fixed = fit_twin()?;
    let twin_bin = fit_twin()?;
    let pipeline = args.get_or("pipeline", 4usize)?.max(1);
    let (unbatched_qps, unbatched_p99) =
        drive(twin_unbatched, 1, false, clients, per_client, n, dim)?;
    let (serve_qps, serve_p99) = drive(twin_fixed, 64, false, clients, per_client, n, dim)?;
    let (adaptive_qps, adaptive_p99) = drive(miner, 64, true, clients, per_client, n, dim)?;
    let (bin_qps, bin_p99) = drive_bin(twin_bin, clients, per_client, n, dim, pipeline)?;
    let speedup = serve_qps / unbatched_qps.max(1e-12);
    let bin_speedup = bin_qps / serve_qps.max(1e-12);
    println!("serve unbatched: {unbatched_qps:.1} req/s, p99 {unbatched_p99:.2} ms  (batch_max 1)");
    println!(
        "serve batched:   {serve_qps:.1} req/s, p99 {serve_p99:.2} ms  (batch_max 64, fixed window)"
    );
    println!(
        "serve adaptive:  {adaptive_qps:.1} req/s, p99 {adaptive_p99:.2} ms  \
         (batch_max 64, adaptive window)"
    );
    println!(
        "serve hosbin:    {bin_qps:.1} req/s, p99 {bin_p99:.2} ms  \
         (binary protocol, pipeline {pipeline})"
    );
    println!("serve speedup:   {speedup:.2}x batched over unbatched");
    println!("serve bin speedup: {bin_speedup:.2}x hosbin over batched JSON");
    if let Some(min) = args.get_opt::<f64>("min-speedup")? {
        if speedup < min {
            return Err(format!(
                "batched serve throughput only {speedup:.2}x unbatched (floor: {min}x)"
            ));
        }
    }
    if let Some(min) = args.get_opt::<f64>("min-bin-speedup")? {
        if bin_speedup < min {
            return Err(format!(
                "hosbin throughput only {bin_speedup:.2}x batched JSON (floor: {min}x)"
            ));
        }
    }

    // Merge the serve keys into the bench summary so `bench compare`
    // sees one file; standalone summaries (no prior `bench` run) still
    // carry enough structure for the optional-key path.
    let summary_path = args.get("summary").unwrap_or("BENCH_SUMMARY.json");
    if summary_path != "-" {
        let serve_fields = format!(
            "\"serve_qps\": {serve_qps:.3},\n    \"serve_p99_ms\": {serve_p99:.3},\n    \
             \"serve_unbatched_qps\": {unbatched_qps:.3},\n    \"serve_speedup\": {speedup:.3},\n    \
             \"serve_adaptive_qps\": {adaptive_qps:.3},\n    \
             \"serve_adaptive_p99_ms\": {adaptive_p99:.3},\n    \
             \"serve_bin_qps\": {bin_qps:.3},\n    \"serve_bin_p99_ms\": {bin_p99:.3},\n    \
             \"serve_bin_speedup\": {bin_speedup:.3}"
        );
        let merged = match std::fs::read_to_string(summary_path) {
            Ok(text) if text.contains("\n  }\n}") && !text.contains("\"serve_qps\"") => {
                text.replacen("\n  }\n}", &format!(",\n    {serve_fields}\n  }}\n}}"), 1)
            }
            _ => format!(
                "{{\n  \"config\": {{\n    \"n\": {n},\n    \"d\": {dim},\n    \
                 \"serve_clients\": {clients}\n  }},\n  \"results\": {{\n    \
                 \"fit_seconds\": {fit_seconds:.6},\n    {serve_fields}\n  }}\n}}\n"
            ),
        };
        std::fs::write(summary_path, merged).map_err(|e| format!("writing {summary_path}: {e}"))?;
        println!("wrote {summary_path}");
    }
    Ok(())
}

/// `probe`: open a hosbin connection to a running `hos-serve` and
/// walk the read-only endpoints over framed binary — healthz, stats,
/// and (when the store is non-empty) one member query. Every reply
/// must decode; any error frame or framing fault is a hard failure.
/// Prints `hosbin probe: ok` on success, the deploy smoke contract.
fn cmd_probe(args: &Args) -> CmdResult {
    use hos_serve::codec;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr: bad address {addr:?}"))?;
    let mut cli =
        tinyhttp::bin::BinClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut body = Vec::new();
    let mut walk = |req: &hos_serve::ApiRequest| -> Result<hos_serve::Json, String> {
        let op = codec::encode_bin_request(req, &mut body);
        let (rop, resp) = cli.call(op, &body).map_err(|e| format!("{addr}: {e}"))?;
        let (status, json) =
            codec::bin_reply_to_json(rop, &resp).map_err(|e| format!("{addr}: bad reply: {e}"))?;
        if status != 200 {
            return Err(format!("{addr}: status {status}: {json:?}"));
        }
        Ok(json)
    };
    walk(&hos_serve::ApiRequest::Healthz)?;
    let stats = walk(&hos_serve::ApiRequest::Stats)?;
    let live = stats
        .get("live")
        .and_then(hos_serve::Json::as_usize)
        .ok_or_else(|| format!("{addr}: stats reply lacks live"))?;
    let version = stats
        .get("version")
        .and_then(hos_serve::Json::as_usize)
        .ok_or_else(|| format!("{addr}: stats reply lacks version"))?;
    let mut queried = 0usize;
    if live > 0 {
        let reply = walk(&hos_serve::ApiRequest::Query(vec![QuerySpec::Member(0)]))?;
        queried = reply
            .get("results")
            .and_then(|r| r.as_array().map(<[hos_serve::Json]>::len))
            .ok_or_else(|| format!("{addr}: query reply lacks results"))?;
    }
    println!("hosbin probe: ok (live={live} version={version} queried={queried})");
    Ok(())
}

/// One numeric field out of a bench summary: scans for `"key":` and
/// parses the number that follows. Line-oriented and dependency-free,
/// matching the exact shape `cmd_bench` writes.
fn summary_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
}

/// One string field out of a bench summary.
fn summary_string(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = text.find(&needle)? + needle.len();
    text[start..].split('"').next().map(str::to_string)
}

/// `bench compare`: diffs the current `BENCH_SUMMARY.json` against a
/// committed `BENCH_BASELINE.json` within `--tolerance` (a relative
/// fraction, default 0.5 — generous because the baseline was captured
/// on one particular machine). Reports per-metric ratios; exits
/// successfully even on regressions — this is a *report*, wired into
/// CI as a non-blocking step — unless `--strict` is passed.
fn cmd_bench_compare(args: &Args) -> CmdResult {
    let baseline_path = args.get("baseline").unwrap_or("BENCH_BASELINE.json");
    let summary_path = args.get("summary").unwrap_or("BENCH_SUMMARY.json");
    let tolerance = args.get_or("tolerance", 0.5f64)?;
    if !(0.0..10.0).contains(&tolerance) {
        return Err(format!("--tolerance {tolerance} out of range [0, 10)"));
    }
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading baseline {baseline_path}: {e}"))?;
    let current = std::fs::read_to_string(summary_path)
        .map_err(|e| format!("reading summary {summary_path}: {e}"))?;

    // Config drift makes the numbers incomparable; flag it loudly but
    // still print the report (CI may intentionally scale the workload).
    let mut config_drift = false;
    for key in ["n", "d", "k", "threads", "shards", "queries"] {
        let (b, c) = (
            summary_number(&baseline, key),
            summary_number(&current, key),
        );
        if b != c {
            println!(
                "note: config {key} differs (baseline {b:?}, current {c:?}) — ratios are indicative only"
            );
            config_drift = true;
        }
    }
    if summary_string(&baseline, "engine") != summary_string(&current, "engine") {
        println!("note: engines differ — ratios are indicative only");
        config_drift = true;
    }

    // (key, higher_is_better, required): the kernel keys only exist in
    // summaries written with `bench --kernel`, so by default a side
    // lacking one is a note, not an error. Naming a key in --keys
    // makes it required — a strict CI compare must never silently
    // compare nothing.
    let registry: [(&str, bool, bool); 15] = [
        ("queries_per_s", true, true),
        ("fit_seconds", false, true),
        ("blocked_scan_ms", false, false),
        ("full_lattice_d10_ms", false, false),
        ("full_lattice_d12_ms", false, false),
        // hnsw keys are optional for the same reason the kernel keys
        // are: baselines recorded before the hnsw tier (or without
        // --kernel) simply lack them, and that must read as a
        // skip-with-note, not a REGRESSION.
        ("hnsw_knn_ms", false, false),
        ("hnsw_crossover_n", false, false),
        // serve keys exist only in summaries touched by `bench
        // serve`; older baselines skip-with-note.
        ("serve_qps", true, false),
        ("serve_p99_ms", false, false),
        // adaptive-window and hosbin arms (bench serve since the
        // binary protocol); older baselines skip-with-note.
        ("serve_adaptive_qps", true, false),
        ("serve_adaptive_p99_ms", false, false),
        ("serve_bin_qps", true, false),
        ("serve_bin_p99_ms", false, false),
        // storage kernels (bench --kernel since the durable tier):
        // wall-clock including fsync, so optional and non-gating.
        ("snapshot_ms", false, false),
        ("wal_replay_ms", false, false),
    ];
    let requested: Option<Vec<&str>> = args.get("keys").map(|s| s.split(',').collect());
    if let Some(keys) = &requested {
        for key in keys {
            if !registry.iter().any(|(k, _, _)| k == key) {
                return Err(format!(
                    "--keys: unknown metric {key:?}; known: {}",
                    registry.map(|(k, _, _)| k).join(", ")
                ));
            }
        }
    }

    // Additive epsilon floor on both sides of the ratio: the metrics
    // are seconds/milliseconds-scale, so anything this small is timer
    // noise. Without the floor a zero-valued baseline entry (a fast
    // machine flooring a tiny fit to 0.000000) turns the ratio into
    // `inf` and every such compare into a fake REGRESSION.
    const ABS_EPS: f64 = 1e-3;
    let mut regressions = 0usize;
    let mut t = Table::new(vec!["metric", "baseline", "current", "ratio", "verdict"]);
    for (key, higher_is_better, required) in registry {
        let explicit = requested.as_ref().is_some_and(|keys| keys.contains(&key));
        if requested.is_some() && !explicit {
            continue;
        }
        let required = required || explicit;
        let (b, c) = (
            summary_number(&baseline, key),
            summary_number(&current, key),
        );
        let (b, c) = match (b, c) {
            (Some(b), Some(c)) => (b, c),
            (b, _) if required => {
                let (path, side) = if b.is_none() {
                    (baseline_path, "baseline")
                } else {
                    (summary_path, "summary")
                };
                return Err(format!("{side} {path} lacks {key}"));
            }
            _ => {
                let how = if key.starts_with("serve_") {
                    "bench serve"
                } else {
                    "bench --kernel"
                };
                println!("note: {key} missing on one side — skipped (run `{how}` to record it)");
                continue;
            }
        };
        let ratio = (c.abs() + ABS_EPS) / (b.abs() + ABS_EPS);
        let regressed = if higher_is_better {
            ratio < 1.0 - tolerance
        } else {
            ratio > 1.0 + tolerance
        };
        let improved = if higher_is_better {
            ratio > 1.0 + tolerance
        } else {
            ratio < 1.0 - tolerance
        };
        let verdict = if regressed {
            regressions += 1;
            "REGRESSION"
        } else if improved {
            "improved"
        } else {
            "ok"
        };
        t.push(vec![
            key.to_string(),
            fmt_f64(b),
            fmt_f64(c),
            format!("{ratio:.2}x"),
            verdict.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "bench compare: {} regression(s) beyond ±{:.0}% vs {baseline_path}{}",
        regressions,
        tolerance * 100.0,
        if config_drift { " (config drift!)" } else { "" }
    );
    if regressions > 0 && args.switch("strict") {
        return Err(format!(
            "{regressions} bench metric(s) regressed beyond tolerance {tolerance}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> CmdResult {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hos_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&["help"]).is_ok());
        assert!(run(&[]).is_ok());
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn generate_info_query_scan_pipeline() {
        let path = tmp("pipeline.csv");
        run(&[
            "generate",
            "--out",
            &path,
            "--n",
            "300",
            "--d",
            "5",
            "--targets",
            "[1,2];[4]",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&["info", "--data", &path]).unwrap();
        // Planted outliers are the last two rows: ids 300 and 301.
        run(&["query", "--data", &path, "--id", "300", "--samples", "5"]).unwrap();
        run(&[
            "query",
            "--data",
            &path,
            "--id",
            "300",
            "--samples",
            "5",
            "--verbose",
        ])
        .unwrap();
        run(&[
            "query",
            "--data",
            &path,
            "--point",
            "0,0,0,0,0",
            "--quantile",
            "0.9",
            "--samples",
            "0",
        ])
        .unwrap();
        run(&["scan", "--data", &path, "--top", "3", "--samples", "5"]).unwrap();
        std::fs::remove_file(&path).ok();
    }

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

    #[test]
    fn shards_flag_accepted_and_validated() {
        let path = tmp("shards.csv");
        run(&[
            "generate", "--out", &path, "--n", "250", "--d", "5", "--seed", "7",
        ])
        .unwrap();
        run(&[
            "query",
            "--data",
            &path,
            "--id",
            "250",
            "--samples",
            "0",
            "--shards",
            "4",
            "--threads",
            "2",
        ])
        .unwrap();
        run(&[
            "scan",
            "--data",
            &path,
            "--top",
            "2",
            "--samples",
            "0",
            "--shards",
            "3",
        ])
        .unwrap();
        // shards = 0 is a config error, not a panic.
        assert!(run(&["query", "--data", &path, "--id", "0", "--shards", "0"]).is_err());
        assert!(run(&["query", "--data", &path, "--id", "0", "--shards", "oops"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_subcommand_windows_and_reports() {
        let path = tmp("stream.csv");
        run(&[
            "generate",
            "--out",
            &path,
            "--n",
            "400",
            "--d",
            "4",
            "--targets",
            "[1,2]",
            "--seed",
            "11",
        ])
        .unwrap();
        // Window smaller than the stream: bootstraps, slides, reports.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "150",
            "--every",
            "100",
            "--top",
            "2",
            "--samples",
            "0",
            "--quantile",
            "0.95",
        ])
        .unwrap();
        // Reestimation, sharded engine, alternative index.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "120",
            "--every",
            "150",
            "--samples",
            "0",
            "--reestimate",
            "--shards",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "100",
            "--every",
            "200",
            "--samples",
            "0",
            "--engine",
            "xtree",
        ])
        .unwrap();
        // Stream shorter than the window: fits on what arrived.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "5000",
            "--samples",
            "0",
        ])
        .unwrap();
        // Validation: window must exceed k + 1; bad file is an error.
        assert!(run(&["stream", "--data", &path, "--window", "5", "--k", "5"]).is_err());
        assert!(run(&["stream", "--data", "/nonexistent.csv"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_compacts_long_runs_with_small_windows() {
        // 400 rows over a 30-row window: > 3x tombstone ratio is hit
        // repeatedly, so the compaction path (id renumbering, base
        // offset, refit with pinned threshold) is exercised.
        let path = tmp("stream_compact.csv");
        run(&[
            "generate", "--out", &path, "--n", "400", "--d", "3", "--seed", "13",
        ])
        .unwrap();
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "30",
            "--every",
            "120",
            "--samples",
            "0",
            "--k",
            "3",
        ])
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_subcommand_synthetic_and_file() {
        run(&[
            "bench",
            "--n",
            "300",
            "--d",
            "4",
            "--queries",
            "4",
            "--samples",
            "0",
            "--shards",
            "2",
            "--threads",
            "2",
            "--summary",
            "-",
        ])
        .unwrap();
        let path = tmp("bench.csv");
        run(&[
            "generate", "--out", &path, "--n", "200", "--d", "4", "--seed", "3",
        ])
        .unwrap();
        run(&[
            "bench",
            "--data",
            &path,
            "--queries",
            "3",
            "--samples",
            "0",
            "--summary",
            "-",
        ])
        .unwrap();
        // --normalize is honoured (and validated) like fit/query/scan.
        run(&[
            "bench",
            "--data",
            &path,
            "--queries",
            "3",
            "--samples",
            "0",
            "--normalize",
            "zscore",
            "--summary",
            "-",
        ])
        .unwrap();
        assert!(run(&["bench", "--data", &path, "--normalize", "log"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_summary_and_compare_roundtrip() {
        let baseline = tmp("bench_baseline.json");
        let summary = tmp("bench_summary.json");
        run(&[
            "bench",
            "--n",
            "250",
            "--d",
            "4",
            "--queries",
            "8",
            "--samples",
            "0",
            "--summary",
            &baseline,
        ])
        .unwrap();
        // The summary is machine-readable: config and results fields
        // present with parseable numbers.
        let text = std::fs::read_to_string(&baseline).unwrap();
        for key in [
            "\"n\":",
            "\"queries\":",
            "\"fit_seconds\":",
            "\"queries_per_s\":",
            "\"od_evals\":",
        ] {
            assert!(text.contains(key), "summary lacks {key}: {text}");
        }
        assert!(summary_number(&text, "queries_per_s").unwrap() > 0.0);
        assert_eq!(summary_string(&text, "engine").as_deref(), Some("linear"));

        // Same workload again: compare passes within any tolerance.
        run(&[
            "bench",
            "--n",
            "250",
            "--d",
            "4",
            "--queries",
            "8",
            "--samples",
            "0",
            "--summary",
            &summary,
        ])
        .unwrap();
        run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--tolerance",
            "5.0",
        ])
        .unwrap();

        // A fabricated 100x regression: still Ok as a report, an
        // error under --strict.
        let slow = text.replace(
            &format!(
                "\"queries_per_s\": {:.3}",
                summary_number(&text, "queries_per_s").unwrap()
            ),
            "\"queries_per_s\": 0.001",
        );
        assert!(slow.contains("0.001"), "fabrication failed: {slow}");
        std::fs::write(&summary, slow).unwrap();
        run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
        ])
        .unwrap();
        assert!(run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--strict",
        ])
        .is_err());

        // Validation: missing files and bad tolerances are errors.
        assert!(run(&["bench", "compare", "--baseline", "/nonexistent.json"]).is_err());
        assert!(run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--tolerance",
            "-1",
        ])
        .is_err());
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&summary).ok();
    }

    /// Regression for the compare divide-by-zero family: a baseline
    /// whose `fit_seconds` floored to 0.000000 (tiny dataset, coarse
    /// timer) used to make `ratio = c / b.max(1e-12)` explode to ~1e9x
    /// and fail every --strict compare. The additive epsilon floor
    /// keeps the ratio finite and ~1 when both sides are timer noise.
    #[test]
    fn bench_compare_zero_baseline_and_kernel_keys() {
        let write = |path: &str, fit: &str, kernel: &str| {
            std::fs::write(
                path,
                format!(
                    "{{\n  \"results\": {{\n    \"fit_seconds\": {fit},\n    \
                     \"queries_per_s\": 5000.000{kernel}\n  }}\n}}\n"
                ),
            )
            .unwrap();
        };
        let baseline = tmp("cmp_zero_baseline.json");
        let summary = tmp("cmp_zero_summary.json");

        // Zero-valued baseline entry, non-zero (but still noise-scale)
        // current: no inf/NaN ratio, no false regression even strict.
        write(&baseline, "0.000000", "");
        write(&summary, "0.000100", "");
        run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--strict",
        ])
        .unwrap();

        // Kernel keys absent from both sides: skipped with a note by
        // default, an error once --keys names them.
        run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--keys",
            "queries_per_s",
            "--strict",
        ])
        .unwrap();
        assert!(run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--keys",
            "blocked_scan_ms",
        ])
        .is_err());
        assert!(run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--keys",
            "no_such_metric",
        ])
        .is_err());

        // Kernel keys present on both sides: compared, and a genuine
        // kernel regression trips --strict while the matched core
        // keys alone would pass.
        write(&baseline, "0.010000", ",\n    \"blocked_scan_ms\": 12.000");
        write(&summary, "0.010000", ",\n    \"blocked_scan_ms\": 40.000");
        run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
        ])
        .unwrap();
        assert!(run(&[
            "bench",
            "compare",
            "--baseline",
            &baseline,
            "--summary",
            &summary,
            "--keys",
            "blocked_scan_ms",
            "--strict",
        ])
        .is_err());
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&summary).ok();
    }

    #[test]
    fn model_load_honours_shards_and_threads() {
        let data = tmp("sharded_model.csv");
        let model = tmp("sharded.model");
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
            "--shards",
            "4",
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
