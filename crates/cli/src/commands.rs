//! Subcommand dispatch, the usage text, and the flags each subcommand
//! accepts.

use crate::args::Args;
use crate::data::{cmd_generate, cmd_info, GENERATE_FLAGS, INFO_FLAGS};
use crate::fit::{cmd_fit, FIT_FLAGS};
use crate::probe::{cmd_probe, PROBE_FLAGS};
use crate::query::{cmd_query, QUERY_FLAGS};
use crate::scan::{cmd_scan, SCAN_FLAGS};
use crate::serve_bench::{cmd_bench_serve, BENCH_SERVE_FLAGS};
use crate::stream::{cmd_stream, STREAM_FLAGS};
use crate::tuning::{DATA_FLAGS, TUNING_FLAGS};

pub type CmdResult = Result<(), String>;

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
                     [--model FILE] [--verbose]
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
  hos-miner bench serve (--data FILE | --n 20000 --d 8)
                     [--clients 8] [--requests 25] [--threads CORES]
                     [--min-speedup 0.5] [--min-bin-speedup 0.5]
                     [--pipeline 4] [--summary FILE]
                     [... tuning flags]
  hos-miner probe    [--addr 127.0.0.1:7878]
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
`bench serve` drives an in-process hos-serve instance with concurrent
clients under a 90/10 read/write mix across four arms — unbatched,
batched with a fixed window, batched with the adaptive window, and the
hosbin binary protocol with a pipelined client (--pipeline frames in
flight) — and writes serve_qps / serve_adaptive_qps / serve_bin_qps
(plus their p99_ms keys) to a summary (default BENCH_SUMMARY.json;
--summary - disables); --min-speedup sets a floor on the
batched/unbatched throughput ratio and --min-bin-speedup one on the
hosbin/batched-JSON ratio, enforced on any core count. The served
system is timed by `python3 perfbench/run.py` and the kernels by
`cargo bench -p hos-bench`.
`probe` opens a hosbin connection to a running hos-serve, walks
healthz / stats / a member query over framed binary and prints
`hosbin probe: ok` — a deploy smoke check for the binary protocol.
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

/// Why `bench` without `serve` fails: its timings moved to the served
/// benchmark and the criterion benches.
const BENCH_MOVED: &str = "`hos-miner bench` only runs `bench serve` now: time the served \
     system with `python3 perfbench/run.py` and the kernels with `cargo bench -p hos-bench`";

/// One subcommand: its name, the flags it reads, and its entry point.
type Command = (
    &'static str,
    &'static [&'static [&'static str]],
    fn(&Args) -> CmdResult,
);

const COMMANDS: &[Command] = &[
    ("generate", &[GENERATE_FLAGS], cmd_generate),
    ("info", &[INFO_FLAGS], cmd_info),
    ("fit", &[FIT_FLAGS, TUNING_FLAGS], cmd_fit),
    ("query", &[DATA_FLAGS, TUNING_FLAGS, QUERY_FLAGS], cmd_query),
    ("scan", &[DATA_FLAGS, TUNING_FLAGS, SCAN_FLAGS], cmd_scan),
    ("stream", &[STREAM_FLAGS, TUNING_FLAGS], cmd_stream),
    (
        "bench serve",
        &[DATA_FLAGS, TUNING_FLAGS, BENCH_SERVE_FLAGS],
        cmd_bench_serve,
    ),
    ("probe", &[PROBE_FLAGS], cmd_probe),
];

/// Dispatches an argv to a subcommand.
pub fn dispatch(argv: &[String]) -> CmdResult {
    // Checked before parsing, since the retired harness's switches no
    // longer parse.
    if argv.first().is_some_and(|a| a == "bench") && argv.get(1).is_none_or(|a| a != "serve") {
        return Err(BENCH_MOVED.into());
    }
    let args = Args::parse(argv)?;
    let name = match args.positional().first().map(String::as_str) {
        Some("help") | None => {
            println!("{HELP}");
            return Ok(());
        }
        Some(name) => name,
    };
    let Some(&(command, flags, run)) = COMMANDS
        .iter()
        .find(|(command, _, _)| command.split(' ').next() == Some(name))
    else {
        return Err(format!("unknown subcommand {name:?}; try `hos-miner help`"));
    };
    args.reject_unknown(command, flags)?;
    run(&args)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn run(argv: &[&str]) -> CmdResult {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    pub(crate) fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hos_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn every_accepted_flag_is_documented() {
        let all = COMMANDS
            .iter()
            .flat_map(|(_, lists, _)| lists.iter().copied());
        for name in all.flatten() {
            let flag = format!("--{name}");
            let documented = HELP.match_indices(&flag).any(|(at, _)| {
                !HELP[at + flag.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            });
            assert!(documented, "{flag} missing from HELP");
        }
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
}
