//! End-to-end tests of the compiled `hos-miner` binary: real process
//! spawns, real files, real exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hos-miner")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn hos-miner")
}

/// A run's stdout without its timing lines.
fn strip_timing(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains(" ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hos_cli_binary_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_exits_zero_and_mentions_subcommands() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "info", "query", "scan"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = run(&["explode"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("explode"));
}

#[test]
fn full_pipeline_via_binary() {
    let csv = tmp("pipeline.csv");
    let csv_s = csv.to_str().unwrap();
    let out = run(&[
        "generate",
        "--out",
        csv_s,
        "--n",
        "400",
        "--d",
        "6",
        "--targets",
        "[1,2]",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("planted outlier: point #400 in subspace [1,2]"));

    // Query the planted outlier: must report at least one subspace and
    // print the search statistics line.
    let out = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "400",
        "--k",
        "5",
        "--quantile",
        "0.95",
        "--samples",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("minimal outlying subspaces"),
        "unexpected query output:\n{text}"
    );
    assert!(text.contains("OD evals"));

    // A point at a cluster core: typically clean. Either outcome must
    // exit zero; the output must be one of the two known shapes.
    let out = run(&["query", "--data", csv_s, "--id", "0", "--samples", "0"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("not an outlier") || text.contains("minimal outlying subspaces"),
        "unexpected output:\n{text}"
    );

    // info renders one row per column.
    let out = run(&["info", "--data", csv_s]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("401 points, 6 dimensions"));

    // scan ranks and reports.
    let out = run(&["scan", "--data", csv_s, "--top", "2", "--samples", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top 2 points by full-space OD"));
    assert!(
        text.contains("#400"),
        "planted outlier should rank top:\n{text}"
    );

    std::fs::remove_file(csv).ok();
}

#[test]
fn batch_query_reports_each_point_and_totals() {
    let csv = tmp("batch.csv");
    let csv_s = csv.to_str().unwrap();
    let out = run(&[
        "generate",
        "--out",
        csv_s,
        "--n",
        "300",
        "--d",
        "5",
        "--targets",
        "[1,2]",
        "--seed",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&[
        "query",
        "--data",
        csv_s,
        "--ids",
        "300,0,1",
        "--samples",
        "3",
        "--threads",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for header in ["--- point #300 ---", "--- point #0 ---", "--- point #1 ---"] {
        assert!(text.contains(header), "missing {header}:\n{text}");
    }
    assert!(
        text.contains("batch: 3 queries"),
        "missing batch summary:\n{text}"
    );
    std::fs::remove_file(csv).ok();
}

#[test]
fn ids_flag_fails_on_any_invalid_id_like_id_flag() {
    let csv = tmp("ids_invalid.csv");
    let csv_s = csv.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "120", "--d", "4", "--seed", "9"])
            .status
            .success()
    );
    let single = run(&["query", "--data", csv_s, "--id", "5000", "--samples", "0"]);
    assert!(!single.status.success());
    let want = String::from_utf8_lossy(&single.stderr).into_owned();
    assert!(want.contains("point id 5000 out of bounds"), "{want}");
    // The invalid id first, in the middle, last, and ahead of a second
    // invalid one: the command fails with `--id`'s message for the
    // first invalid id and prints no outcome.
    for ids in ["5000,0,1", "0,5000,1", "0,1,5000", "0,5000,7000"] {
        let out = run(&[
            "query",
            "--data",
            csv_s,
            "--ids",
            ids,
            "--samples",
            "0",
            "--threads",
            "2",
        ]);
        assert!(!out.status.success(), "--ids {ids} succeeded");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "--ids {ids}");
        assert!(out.stdout.is_empty(), "--ids {ids} printed output");
    }
    std::fs::remove_file(csv).ok();
}

#[test]
fn threads_flag_on_query_and_fit() {
    let csv = tmp("threads.csv");
    let csv_s = csv.to_str().unwrap();
    let model = tmp("threads.model");
    let model_s = model.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "300", "--d", "5", "--seed", "7"])
            .status
            .success()
    );
    // query --threads: parallel per-level batches, identical output
    // to the serial run.
    let serial = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "300",
        "--samples",
        "3",
        "--threads",
        "1",
    ]);
    let parallel = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "300",
        "--samples",
        "3",
        "--threads",
        "4",
    ]);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(
        strip_timing(&serial),
        strip_timing(&parallel),
        "--threads changed the answer"
    );
    // fit --threads: learning fans out, model still written.
    let out = run(&[
        "fit",
        "--data",
        csv_s,
        "--save-model",
        model_s,
        "--samples",
        "5",
        "--threads",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(csv).ok();
    std::fs::remove_file(model).ok();
}

/// The row-range count always comes from the rows and `--threads`
/// (`hos_index::shard_count`), so an explicit count is an unknown flag.
#[test]
fn shards_flag_is_unknown() {
    let csv = tmp("shards.csv");
    let csv_s = csv.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "300", "--d", "5", "--seed", "9"])
            .status
            .success()
    );
    let out = run(&["query", "--data", csv_s, "--id", "0", "--shards", "2"]);
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unknown flag --shards for query (see hos-miner help)\n"
    );
    std::fs::remove_file(csv).ok();
}

#[test]
fn retired_bench_modes_point_to_perfbench_and_criterion() {
    for argv in [
        &["bench"][..],
        &["bench", "--kernel"],
        &["bench", "--n", "300", "--d", "4"],
        &["bench", "compare", "--strict"],
    ] {
        let out = run(argv);
        assert!(!out.status.success(), "{argv:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("python3 perfbench/run.py") && err.contains("cargo bench -p hos-bench"),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn stream_consumes_stdin_and_reports_windows() {
    use std::io::Write;
    use std::process::Stdio;

    let csv = tmp("stream_stdin.csv");
    let csv_s = csv.to_str().unwrap();
    assert!(run(&[
        "generate",
        "--out",
        csv_s,
        "--n",
        "300",
        "--d",
        "4",
        "--targets",
        "[1,2]",
        "--seed",
        "21"
    ])
    .status
    .success());
    let rows = std::fs::read(&csv).unwrap();

    // Pipe the CSV through stdin: the windowed scan must report the
    // planted outlier (row 300, displaced in dims [1,2]) once it
    // enters the window, and print the final stream summary.
    let mut child = Command::new(bin())
        .args([
            "stream",
            "--window",
            "150",
            "--every",
            "160",
            "--top",
            "3",
            "--samples",
            "0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hos-miner stream");
    child.stdin.take().unwrap().write_all(&rows).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bootstrapped on first 150 rows"), "{text}");
    assert!(text.contains("-- row"), "no windowed report:\n{text}");
    assert!(
        text.contains("outlier row #300"),
        "planted outlier not reported:\n{text}"
    );
    assert!(text.contains("stream: 301 rows"), "{text}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn misspelt_flags_are_errors_not_ignored() {
    let csv = tmp("misspelt.csv");
    let csv_s = csv.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "120", "--d", "4", "--seed", "3"])
            .status
            .success()
    );
    let out = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "17",
        "--thread",
        "4",
        "--treshold",
        "3",
    ]);
    assert!(!out.status.success(), "a misspelt flag was ignored");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unknown flag --thread for query (see hos-miner help)\n"
    );
    assert!(out.stdout.is_empty());
    // A flag another subcommand reads is still unknown here.
    let out = run(&["info", "--data", csv_s, "--k", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --k for info"));
    let out = run(&["bench", "serve", "--n", "300", "--client", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --client for bench serve"));
    std::fs::remove_file(csv).ok();
}

#[test]
fn missing_file_reports_error() {
    let out = run(&["query", "--data", "/definitely/not/here.csv", "--id", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"));
}

#[test]
fn engine_flag_accepts_all_engines() {
    let csv = tmp("engines.csv");
    let csv_s = csv.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "300", "--d", "5", "--seed", "1"])
            .status
            .success()
    );
    for engine in ["linear", "xtree"] {
        let out = run(&[
            "query",
            "--data",
            csv_s,
            "--id",
            "300",
            "--engine",
            engine,
            "--samples",
            "0",
        ]);
        assert!(out.status.success(), "engine {engine}");
    }
    // A removed engine name is refused with the names that exist.
    for removed in ["vafile", "hnsw"] {
        let out = run(&["query", "--data", csv_s, "--id", "300", "--engine", removed]);
        assert!(!out.status.success(), "{removed}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("(expected linear|xtree)"), "{removed}: {err}");
    }
    std::fs::remove_file(csv).ok();
}
