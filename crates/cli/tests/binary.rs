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
fn threads_flag_on_query_fit_and_bench() {
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
    let strip_timing = |out: &std::process::Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains(" ms"))
            .collect::<Vec<_>>()
            .join("\n")
    };
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
    // bench --threads.
    let out = run(&[
        "bench",
        "--data",
        csv_s,
        "--queries",
        "4",
        "--samples",
        "0",
        "--threads",
        "2",
        "--summary",
        "-",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("queries/s"));
    std::fs::remove_file(csv).ok();
    std::fs::remove_file(model).ok();
}

#[test]
fn shards_flag_on_query_fit_and_bench() {
    let csv = tmp("shards.csv");
    let csv_s = csv.to_str().unwrap();
    let model = tmp("shards.model");
    let model_s = model.to_str().unwrap();
    assert!(
        run(&["generate", "--out", csv_s, "--n", "300", "--d", "5", "--seed", "9"])
            .status
            .success()
    );
    // query --shards: intra-query parallel execution, identical
    // output to the unsharded run.
    let unsharded = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "300",
        "--samples",
        "3",
        "--shards",
        "1",
    ]);
    let sharded = run(&[
        "query",
        "--data",
        csv_s,
        "--id",
        "300",
        "--samples",
        "3",
        "--shards",
        "4",
        "--threads",
        "2",
    ]);
    assert!(unsharded.status.success() && sharded.status.success());
    let strip_timing = |out: &std::process::Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains(" ms"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_timing(&unsharded),
        strip_timing(&sharded),
        "--shards changed the answer"
    );
    // fit --shards: the sharded engine backs learning too.
    let out = run(&[
        "fit",
        "--data",
        csv_s,
        "--save-model",
        model_s,
        "--samples",
        "5",
        "--shards",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // bench --shards (synthetic workload path).
    let out = run(&[
        "bench",
        "--n",
        "400",
        "--d",
        "5",
        "--queries",
        "4",
        "--samples",
        "0",
        "--shards",
        "4",
        "--summary",
        "-",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("shards=4"),
        "bench must echo its config:\n{text}"
    );
    // Invalid shard counts fail cleanly.
    let out = run(&["query", "--data", csv_s, "--id", "0", "--shards", "0"]);
    assert!(!out.status.success());
    std::fs::remove_file(csv).ok();
    std::fs::remove_file(model).ok();
}

#[test]
fn bench_summary_file_and_compare_via_binary() {
    let baseline = tmp("bin_baseline.json");
    let baseline_s = baseline.to_str().unwrap();
    let out = run(&[
        "bench",
        "--n",
        "300",
        "--d",
        "4",
        "--queries",
        "6",
        "--samples",
        "0",
        "--summary",
        baseline_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&baseline).unwrap();
    assert!(text.contains("\"queries_per_s\":"), "summary:\n{text}");
    // Self-compare: zero regressions, exit 0, the verdict table prints.
    let out = run(&[
        "bench",
        "compare",
        "--baseline",
        baseline_s,
        "--summary",
        baseline_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("0 regression(s)"), "{report}");
    // Missing baseline is a clean error.
    let out = run(&["bench", "compare", "--baseline", "/nonexistent.json"]);
    assert!(!out.status.success());
    std::fs::remove_file(baseline).ok();
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
    let out = run(&[
        "query", "--data", csv_s, "--id", "300", "--engine", "vafile",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("linear|xtree|hnsw"), "{err}");
    std::fs::remove_file(csv).ok();
}
