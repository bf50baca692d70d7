//! `bench serve`: the batching and hosbin throughput floors.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::{build_miner, load, parse_normalizer};
use hos_core::QuerySpec;
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::Subspace;

/// `bench serve`'s own flags; it also takes the data and tuning
/// flags.
pub const BENCH_SERVE_FLAGS: &[&str] = &[
    "n",
    "d",
    "clients",
    "requests",
    "pipeline",
    "min-speedup",
    "min-bin-speedup",
    "summary",
];

/// `bench serve`: sustained-load benchmark of the resident query
/// server under a 90/10 read/write mix, across three arms that all
/// answer bit-identically (pinned by the serve concurrency and
/// protocol oracles) so each comparison isolates one mechanism:
///
/// * unbatched (`batch_max 1`) vs **batched** (`batch_max 64`, a
///   window closes when the queue is dry) — what cross-request
///   batching buys (`serve_qps`, meaning unchanged from earlier
///   baselines);
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
pub fn cmd_bench_serve(args: &Args) -> CmdResult {
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
        clients: usize,
        per_client: usize,
        n: usize,
        dim: usize,
    ) -> Result<(f64, f64), String> {
        let config = hos_serve::ServeConfig {
            workers: clients.min(16),
            batch_max,
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
                                if let Some(id) = hos_serve::Json::parse(&text)
                                    .ok()
                                    .and_then(|j| j.get("id").and_then(hos_serve::Json::as_usize))
                                {
                                    inserted.push(id);
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
    let twin_bin = fit_twin()?;
    let pipeline = args.get_or("pipeline", 4usize)?.max(1);
    let (unbatched_qps, unbatched_p99) = drive(twin_unbatched, 1, clients, per_client, n, dim)?;
    let (serve_qps, serve_p99) = drive(miner, 64, clients, per_client, n, dim)?;
    let (bin_qps, bin_p99) = drive_bin(twin_bin, clients, per_client, n, dim, pipeline)?;
    let speedup = serve_qps / unbatched_qps.max(1e-12);
    let bin_speedup = bin_qps / serve_qps.max(1e-12);
    println!("serve unbatched: {unbatched_qps:.1} req/s, p99 {unbatched_p99:.2} ms  (batch_max 1)");
    println!("serve batched:   {serve_qps:.1} req/s, p99 {serve_p99:.2} ms  (batch_max 64)");
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

    let summary_path = args.get("summary").unwrap_or("BENCH_SUMMARY.json");
    if summary_path != "-" {
        let summary = format!(
            "{{\n  \"config\": {{\n    \"n\": {n},\n    \"d\": {dim},\n    \
             \"serve_clients\": {clients}\n  }},\n  \"results\": {{\n    \
             \"fit_seconds\": {fit_seconds:.6},\n    \
             \"serve_qps\": {serve_qps:.3},\n    \"serve_p99_ms\": {serve_p99:.3},\n    \
             \"serve_unbatched_qps\": {unbatched_qps:.3},\n    \"serve_speedup\": {speedup:.3},\n    \
             \"serve_bin_qps\": {bin_qps:.3},\n    \"serve_bin_p99_ms\": {bin_p99:.3},\n    \
             \"serve_bin_speedup\": {bin_speedup:.3}\n  }}\n}}\n"
        );
        std::fs::write(summary_path, summary)
            .map_err(|e| format!("writing {summary_path}: {e}"))?;
        println!("wrote {summary_path}");
    }
    Ok(())
}
