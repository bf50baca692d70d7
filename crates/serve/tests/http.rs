//! End-to-end endpoint coverage over real sockets: every route, the
//! error envelope, and graceful drain.

use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::Subspace;
use hos_serve::{Json, ServeConfig, Server};
use std::time::Duration;
use tinyhttp::client_request;

fn fitted_miner() -> HosMiner {
    let spec = PlantedSpec {
        n_background: 200,
        d: 4,
        n_clusters: 2,
        cluster_sigma: 1.0,
        extent: 50.0,
        targets: vec![Subspace::from_dims(&[0, 1])],
        shift_sigmas: 12.0,
        seed: 42,
    };
    let w = generate(&spec).unwrap();
    HosMiner::fit(
        w.dataset,
        HosMinerConfig {
            k: 4,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 100,
            },
            sample_size: 10,
            ..HosMinerConfig::default()
        },
    )
    .unwrap()
}

fn start() -> Server {
    Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 2,
            batch_max: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).unwrap()).unwrap()
}

#[test]
fn every_endpoint_round_trips() {
    let server = start();
    let addr = server.addr();

    // healthz
    let (status, body) = client_request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("ok").unwrap().as_bool(), Some(true));

    // query by id
    let (status, body) = client_request(addr, "POST", "/query", br#"{"id":0}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(0));
    assert_eq!(v.get("results").unwrap().as_array().unwrap().len(), 1);

    // mixed query: ids + point + a per-item error (dead id) — the
    // bad item fails alone, its batch-mates answer normally.
    let (status, body) = client_request(
        addr,
        "POST",
        "/query",
        br#"{"ids":[1,99999],"point":[0,0,0,0]}"#,
    )
    .unwrap();
    assert_eq!(status, 200);
    let results = json(&body);
    let results = results.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].get("minimal").is_some());
    assert_eq!(
        results[1]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("query")
    );
    assert!(results[2].get("minimal").is_some());

    // scan
    let (status, body) = client_request(addr, "POST", "/scan", br#"{"top":3}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert!(v.get("threshold").unwrap().as_f64().is_some());
    assert!(v.get("hits").unwrap().as_array().unwrap().len() <= 3);

    // insert bumps the version and returns the new id
    let (status, body) =
        client_request(addr, "POST", "/insert", br#"{"row":[100,100,100,100]}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(1));
    let id = v.get("id").unwrap().as_usize().unwrap();

    // the inserted point is queryable and clearly outlying
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/query", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(1));
    let r = &v.get("results").unwrap().as_array().unwrap()[0];
    assert!(!r.get("minimal").unwrap().as_array().unwrap().is_empty());

    // explain
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/explain", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("deviations").unwrap().as_array().unwrap().len(), 4);
    assert!(!v.get("subspaces").unwrap().as_array().unwrap().is_empty());

    // retire
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/retire", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("version").unwrap().as_usize(), Some(2));

    // retiring again is a typed 422 (dead point)
    let (status, body) = client_request(addr, "POST", "/retire", req.as_bytes()).unwrap();
    assert_eq!(status, 422);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("index")
    );

    // stats reflects everything
    let (status, body) = client_request(addr, "GET", "/stats", b"").unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2));
    assert_eq!(v.get("writes").unwrap().as_usize(), Some(2));
    assert!(v.get("specs").unwrap().as_usize().unwrap() >= 4);
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(false));

    // error envelope: bad json, bad request, unknown route, bad method
    let (status, body) = client_request(addr, "POST", "/query", b"{not json").unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("bad_json")
    );
    let (status, body) = client_request(addr, "POST", "/query", b"{}").unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("bad_request")
    );
    let (status, _) = client_request(addr, "POST", "/nope", b"{}").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client_request(addr, "DELETE", "/query", b"").unwrap();
    assert_eq!(status, 405);

    // graceful drain: /shutdown acknowledges, then the server joins
    // with a faithful report.
    let (status, body) = client_request(addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("draining").unwrap().as_bool(), Some(true));
    let report = server.wait();
    assert_eq!(report.writes, 2);
    assert!(report.specs >= 4);
    assert!(report.batches >= 1);
    assert!(report.http_requests >= 14);
    assert_eq!(report.rejected, 0);
}

#[test]
fn unbatched_mode_still_answers() {
    // batch_max == 1 degenerates to unbatched execution; answers are
    // identical (the oracle test pins bit-identity, this pins
    // liveness of the degenerate path).
    let server = Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 1,
            batch_max: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (status, body) =
        client_request(server.addr(), "POST", "/query", br#"{"ids":[0,1,2]}"#).unwrap();
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("results").unwrap().as_array().unwrap().len(), 3);
    let report = server.join();
    assert_eq!(report.specs, 3);
    server_report_sane(&report);
}

/// Reads one HTTP response off a keep-alive connection: the head, then
/// exactly `Content-Length` body bytes.
fn read_keep_alive_reply(stream: &mut std::net::TcpStream) -> (u16, Json) {
    use std::io::Read;
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).unwrap();
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().unwrap())
        })
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    (status, json(&body))
}

#[test]
fn healthz_turns_503_draining_once_shutdown_starts_on_both_wires() {
    use hos_serve::{codec, ApiRequest};
    use std::io::Write;

    // One worker per open connection: a keep-alive HTTP client, a
    // hosbin client and the one-shot /shutdown.
    let server = Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let healthz = b"GET /healthz HTTP/1.1\r\nHost: hos\r\n\r\n";
    let mut http = std::net::TcpStream::connect(addr).unwrap();
    http.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut bin = tinyhttp::bin::BinClient::connect(addr).unwrap();
    let mut body = Vec::new();
    let op = codec::encode_bin_request(&ApiRequest::Healthz, &mut body);
    let bin_healthz = |bin: &mut tinyhttp::bin::BinClient| {
        let (rop, reply) = bin.call(op, &body).unwrap();
        codec::bin_reply_to_json(rop, &reply).unwrap()
    };

    http.write_all(healthz).unwrap();
    let (status, v) = read_keep_alive_reply(&mut http);
    assert_eq!(status, 200);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let (status, v) = bin_healthz(&mut bin);
    assert_eq!(status, 200);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

    let (status, _) = client_request(addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);

    // Both connections outlive the shutdown; neither may still be
    // told the server is healthy.
    http.write_all(healthz).unwrap();
    let (status, v) = read_keep_alive_reply(&mut http);
    let kind = |v: &Json| {
        let err = v.get("error").unwrap();
        err.get("kind").unwrap().as_str().unwrap().to_string()
    };
    assert_eq!((status, kind(&v).as_str()), (503, "draining"));
    let (status, v) = bin_healthz(&mut bin);
    assert_eq!((status, kind(&v).as_str()), (503, "draining"));

    drop(http);
    drop(bin);
    let report = server.wait();
    assert_eq!(report.rejected, 0);
}

fn server_report_sane(report: &hos_serve::ServeReport) {
    assert_eq!(report.rejected, 0);
    assert!(report.batches >= 1);
}

/// A running `hos-serve` binary: the child, its remaining stdout
/// lines, its `listening` line and the address it bound.
struct Served {
    child: std::process::Child,
    lines: std::io::Lines<std::io::BufReader<std::process::ChildStdout>>,
    listening: String,
    addr: std::net::SocketAddr,
}

/// Spawns the hos-serve BINARY on an ephemeral port and reads up to
/// its `listening` line, which carries the bound address.
fn spawn_serve(args: &[&str]) -> Served {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_hos-serve"))
        .args(args)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hos-serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let listening = loop {
        match lines.next() {
            Some(Ok(line)) if line.contains("listening on") => break line,
            Some(Ok(_)) => continue,
            other => {
                let _ = child.kill();
                panic!("no listening line, got {other:?}");
            }
        }
    };
    // "hos-serve listening on 127.0.0.1:PORT (...) key=value ..."
    let addr = listening
        .split_whitespace()
        .nth(3)
        .expect("address token")
        .parse()
        .expect("parse bound address");
    Served {
        child,
        lines,
        listening,
        addr,
    }
}

impl Served {
    /// Graceful `/shutdown`, then checks the drain summary.
    fn shutdown(mut self) {
        let (status, _) = client_request(self.addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(status, 200);
        let rest: Vec<String> = self.lines.map_while(Result::ok).collect();
        let status = self.child.wait().expect("binary exits");
        assert!(status.success(), "serve exited non-zero");
        assert!(
            rest.iter().any(|l| l.contains("hos-serve drained:")),
            "missing drain summary in {rest:?}"
        );
    }
}

/// End-to-end smoke of the hos-serve BINARY after a fit: its
/// `listening` line reports the fit's set-up phases, and every
/// endpoint answers from healthz through retire. The binary prints
/// its bound address, so an ephemeral port works.
#[test]
fn fitted_binary_reports_setup_phases_and_endpoints_answer() {
    let served = spawn_serve(&[
        "--n", "300", "--d", "4", "--k", "4", "--seed", "7", "--engine", "xtree",
    ]);
    for key in ["load_ms=", "fit_ms=", "shards=1 "] {
        assert!(
            served.listening.contains(key),
            "no {key} in {:?}",
            served.listening
        );
    }
    let addr = served.addr;
    let walk: &[(&str, &str, &[u8])] = &[
        ("GET", "/healthz", b""),
        ("GET", "/stats", b""),
        ("POST", "/query", br#"{"ids":[0,1,2]}"#),
        ("POST", "/scan", br#"{"top":2}"#),
        ("POST", "/insert", br#"{"row":[1.0,2.0,3.0,4.0]}"#),
        ("POST", "/explain", br#"{"id":0}"#),
        ("POST", "/retire", br#"{"id":301}"#),
    ];
    for (method, path, body) in walk {
        let (status, resp) = client_request(addr, method, path, body).unwrap();
        assert_eq!(
            status,
            200,
            "{method} {path}: {}",
            String::from_utf8_lossy(&resp)
        );
    }
    // The row count and the write counter reflect the write walk
    // above.
    let (_, body) = client_request(addr, "GET", "/stats", b"").unwrap();
    let stats = json(&body);
    assert_eq!(stats.get("live").unwrap().as_usize(), Some(301));
    assert_eq!(stats.get("writes").unwrap().as_usize(), Some(2));
    served.shutdown();
}

/// A linear fit is split one row range per thread once every range
/// gets `MIN_SHARD_ROWS` rows, and the `listening` line says so; the
/// split server (2 threads, 2 ranges) answers byte for byte like the
/// unsplit one (1 thread, 1 range).
#[test]
fn linear_fit_reports_its_computed_shard_count() {
    let shards_of = |served: &Served| {
        served
            .listening
            .split_whitespace()
            .find_map(|t| t.strip_prefix("shards="))
            .expect("shards= on the listening line")
            .to_string()
    };
    let small = spawn_serve(&["--n", "2000", "--d", "4", "--threads", "2"]);
    assert_eq!(shards_of(&small), "1", "{}", small.listening);
    small.shutdown();

    let n = (2 * hos_index::MIN_SHARD_ROWS).to_string();
    let base = ["--n", n.as_str(), "--d", "4", "--samples", "2"];
    // A batch, then a lone spec (the path that walks the ranges).
    let queries: [&[u8]; 2] = [
        br#"{"ids":[0,1,17,4000,9999,10000],"point":[9,9,9,9]}"#,
        br#"{"ids":[10000]}"#,
    ];
    let mut bodies = Vec::new();
    for (threads, want) in [("2", "2"), ("1", "1")] {
        let args: Vec<&str> = base.iter().copied().chain(["--threads", threads]).collect();
        let served = spawn_serve(&args);
        assert_eq!(shards_of(&served), want, "{}", served.listening);
        for query in queries {
            let (status, body) = client_request(served.addr, "POST", "/query", query).unwrap();
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            bodies.push(body);
        }
        served.shutdown();
    }
    assert_eq!(bodies[..2], bodies[2..], "split and unsplit answers differ");
}

/// A durable X-tree server killed after acknowledged writes restarts
/// on its data dir with the WAL tail folded into one engine build, and
/// answers byte for byte as before the kill (the in-memory `version`
/// counter restarts, so it is stripped).
#[test]
fn xtree_data_dir_restart_answers_byte_identically() {
    let dir = std::env::temp_dir().join(format!("hos-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let args = [
        "--n",
        "400",
        "--d",
        "4",
        "--k",
        "4",
        "--seed",
        "7",
        "--engine",
        "xtree",
        "--sync-every",
        "1",
        "--data-dir",
        dir_arg,
    ];
    let strip_version = |body: &[u8]| {
        let text = String::from_utf8(body.to_vec()).unwrap();
        let at = text.find("\"version\":").expect("version key") + "\"version\":".len();
        let digits = text[at..].chars().take_while(char::is_ascii_digit).count();
        format!("{}{}", &text[..at], &text[at + digits..])
    };
    let query = br#"{"ids":[0,5,17,42,399,400,401,402],"point":[9,9,9,9]}"#;

    let mut first = spawn_serve(&args);
    let writes: &[&[u8]] = &[
        br#"{"row":[50,50,50,50]}"#,
        br#"{"row":[0.5,0.5,0.5,0.5]}"#,
        br#"{"row":[1,2,3,4]}"#,
    ];
    for row in writes {
        let (status, _) = client_request(first.addr, "POST", "/insert", row).unwrap();
        assert_eq!(status, 200);
    }
    // A fitted row and a row the tail inserted.
    for id in [5, 401] {
        let body = format!("{{\"id\":{id}}}");
        let (status, resp) =
            client_request(first.addr, "POST", "/retire", body.as_bytes()).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    }
    let (status, before) = client_request(first.addr, "POST", "/query", query).unwrap();
    assert_eq!(status, 200);
    let results = json(&before);
    let results = results.get("results").unwrap().as_array().unwrap();
    let answered = results
        .iter()
        .filter(|r| r.get("minimal").is_some())
        .count();
    assert_eq!((results.len(), answered), (9, 7), "two retired ids");
    // SIGKILL: no drain snapshot, so the restart must replay the tail.
    first.child.kill().unwrap();
    first.child.wait().unwrap();

    let second = spawn_serve(&args);
    let keys: Vec<&str> = second.listening.split_whitespace().collect();
    for key in ["open_ms=", "rebuild_ms=", "replay_ms="] {
        assert!(
            keys.iter().any(|t| t.starts_with(key)),
            "no {key} in {:?}",
            second.listening
        );
    }
    assert!(keys.contains(&"ops=5"), "{:?}", second.listening);
    assert!(keys.contains(&"shards=1"), "{:?}", second.listening);
    let (status, after) = client_request(second.addr, "POST", "/query", query).unwrap();
    assert_eq!(status, 200);
    assert_eq!(strip_version(&before), strip_version(&after));
    second.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The hos-serve BINARY refuses a misspelt flag, a repeated flag, a
/// removed flag and a removed engine name with exit 2 and the
/// offending name, instead of starting on defaults. Each case is
/// killed after a deadline, so a binary that starts serving anyway
/// fails rather than hangs.
#[test]
fn bad_flags_make_the_binary_exit_2() {
    use std::process::{Command, Stdio};
    use std::time::Instant;

    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "--enigne", "xtree", "--engine", "linear", "--engine", "xtree",
            ],
            "--enigne",
        ),
        (&["--engine", "linear", "--engine", "xtree"], "--engine"),
        (&["--header", "--header"], "--header"),
        (&["--engine", "vafile"], "(expected linear|xtree)"),
        (&["--engine", "hnsw"], "(expected linear|xtree)"),
        (&["--ef", "48"], "unknown flag --ef"),
        (&["--recall-target", "0.9"], "unknown flag --recall-target"),
        (&["--shards", "2"], "unknown flag --shards"),
        (
            &["--threshold", "5", "--quantile", "0.9"],
            "--threshold and --quantile are mutually exclusive",
        ),
        (&["--queue-cap", "8"], "unknown flag --queue-cap"),
        (&["--query-weight", "3"], "unknown flag --query-weight"),
        (&["--scan-weight", "1"], "unknown flag --scan-weight"),
        (&["--fixed-window"], "unknown flag --fixed-window"),
        (
            &["--batch-window-ms", "2"],
            "unknown flag --batch-window-ms",
        ),
        (&["--batch-max", "8"], "unknown flag --batch-max"),
    ];
    for (extra, needle) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hos-serve"))
            .args(["--n", "300", "--d", "4", "--addr", "127.0.0.1:0"])
            .args(*extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hos-serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll hos-serve") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("hos-serve {extra:?} kept running");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
    }
}
