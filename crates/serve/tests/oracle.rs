//! The serve concurrency oracle: concurrent mixed query/insert/retire
//! traffic against the batching server must be **bit-identical** to a
//! serial replay.
//!
//! How the proof works:
//!
//! * Every successful write returns the version it produced; versions
//!   are assigned under the write lock, so they totally order the
//!   writes (1, 2, 3, … with no gaps).
//! * Every query response carries the version it observed, read under
//!   the read lock — so the answer was computed against the state
//!   with *exactly that many* writes applied.
//! * The replay fits a second, identically-configured miner (fitting
//!   is deterministic), applies the recorded writes in version order,
//!   and at each version evaluates the queries that observed it —
//!   serially, one `query_each` per request.
//! * Comparison is on **bits**: the server formats `f64`s with Rust's
//!   shortest round-trip representation, the oracle parses them back
//!   and compares `to_bits()`. No epsilon anywhere.
//!
//! This pins at once: batching does not change answers, concurrent
//! readers/writers serialize cleanly, per-item errors are stable, and
//! insert id assignment is the serial one.
//!
//! The second oracle in this file is **cross-protocol**: the same
//! sequential op list driven over HTTP/JSON and over hosbin (framed
//! binary) against identically-fitted twin servers must produce
//! field-for-field identical replies, `f64`s compared on bits.

use hos_core::{HosError, HosMiner, HosMinerConfig, QueryOutcome, QuerySpec, ThresholdPolicy};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::Subspace;
use hos_serve::{Json, ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::Mutex;
use tinyhttp::client_request;

fn fitted_miner() -> HosMiner {
    let spec = PlantedSpec {
        n_background: 150,
        d: 4,
        n_clusters: 2,
        cluster_sigma: 1.0,
        extent: 50.0,
        targets: vec![Subspace::from_dims(&[1, 2])],
        shift_sigmas: 10.0,
        seed: 7,
    };
    let w = generate(&spec).unwrap();
    HosMiner::fit(
        w.dataset,
        HosMinerConfig {
            k: 4,
            threshold: ThresholdPolicy::FullSpaceQuantile { q: 0.9, sample: 80 },
            sample_size: 8,
            ..HosMinerConfig::default()
        },
    )
    .unwrap()
}

/// Deterministic row for write `i` of writer `w` — near the data so
/// inserts genuinely shift neighbourhoods (version-sensitive answers).
fn row_for(w: usize, i: usize) -> Vec<f64> {
    let base = (w * 31 + i * 7) as f64;
    vec![
        (base % 11.0) - 5.0,
        (base % 13.0) - 6.0,
        (base % 17.0) - 8.0,
        (base % 19.0) - 9.0,
    ]
}

#[derive(Debug)]
enum WriteRecord {
    Insert { row: Vec<f64>, id: usize },
    Retire { id: usize },
}

struct QueryRecord {
    specs: Vec<QuerySpec>,
    version: u64,
    /// Parsed `results` array, verbatim from the wire.
    results: Vec<Json>,
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let (status, raw) = client_request(addr, "POST", path, body.as_bytes()).unwrap();
    let v = Json::parse(std::str::from_utf8(&raw).unwrap())
        .unwrap_or_else(|e| panic!("bad json from {path}: {e}"));
    (status, v)
}

/// Asserts the wire representation of one result slot matches the
/// serially-computed outcome, bit for bit.
fn assert_slot_matches(wire: &Json, serial: &Result<QueryOutcome, HosError>, ctx: &str) {
    match serial {
        Err(e) => {
            let err = wire.get("error").unwrap_or_else(|| {
                panic!("{ctx}: serial replay errored ({e}) but the wire has an outcome")
            });
            assert_eq!(err.get("kind").unwrap().as_str(), Some(e.kind()), "{ctx}");
            assert_eq!(
                err.get("message").unwrap().as_str(),
                Some(e.to_string().as_str()),
                "{ctx}"
            );
        }
        Ok(outcome) => {
            assert!(
                wire.get("error").is_none(),
                "{ctx}: serial replay succeeded but the wire has an error"
            );
            // minimal: exact subspace lists.
            let minimal = wire.get("minimal").unwrap().as_array().unwrap();
            assert_eq!(minimal.len(), outcome.minimal.len(), "{ctx}: minimal len");
            for (got, want) in minimal.iter().zip(&outcome.minimal) {
                let dims: Vec<usize> = got
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|d| d.as_usize().unwrap())
                    .collect();
                assert_eq!(dims, want.dim_vec(), "{ctx}: minimal subspace");
            }
            // outlying: subspaces + ODs compared on bits.
            let outlying = wire.get("outlying").unwrap().as_array().unwrap();
            assert_eq!(
                outlying.len(),
                outcome.outlying.len(),
                "{ctx}: outlying len"
            );
            for (got, want) in outlying.iter().zip(&outcome.outlying) {
                let dims: Vec<usize> = got
                    .get("subspace")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|d| d.as_usize().unwrap())
                    .collect();
                assert_eq!(dims, want.subspace.dim_vec(), "{ctx}: outlying subspace");
                match (got.get("od").unwrap().as_f64(), want.od) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: od bits");
                    }
                    (None, None) => {}
                    (g, w) => panic!("{ctx}: od presence differs ({g:?} vs {w:?})"),
                }
            }
            let evals = wire
                .get("stats")
                .unwrap()
                .get("od_evals")
                .unwrap()
                .as_usize()
                .unwrap() as u64;
            assert_eq!(evals, outcome.stats.od_evals, "{ctx}: od_evals");
        }
    }
}

#[test]
fn concurrent_mixed_traffic_equals_serial_replay() {
    let server = Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 4,
            batch_max: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let writes: Mutex<BTreeMap<u64, WriteRecord>> = Mutex::new(BTreeMap::new());
    let queries: Mutex<Vec<QueryRecord>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Two writers: inserts then retires of their own inserts,
        // interleaving freely with each other and with the queries.
        for w in 0..2usize {
            let writes = &writes;
            scope.spawn(move || {
                let mut my_ids = Vec::new();
                for i in 0..6 {
                    let row = row_for(w, i);
                    let body = format!(
                        "{{\"row\":[{}]}}",
                        row.iter()
                            .map(|v| format!("{v}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    let (status, v) = post(addr, "/insert", &body);
                    assert_eq!(status, 200);
                    let version = v.get("version").unwrap().as_usize().unwrap() as u64;
                    let id = v.get("id").unwrap().as_usize().unwrap();
                    my_ids.push(id);
                    writes
                        .lock()
                        .unwrap()
                        .insert(version, WriteRecord::Insert { row, id });
                }
                for &id in my_ids.iter().take(3) {
                    let (status, v) = post(addr, "/retire", &format!("{{\"id\":{id}}}"));
                    assert_eq!(status, 200);
                    let version = v.get("version").unwrap().as_usize().unwrap() as u64;
                    writes
                        .lock()
                        .unwrap()
                        .insert(version, WriteRecord::Retire { id });
                }
            });
        }
        // Three query clients: member ids (some of which get retired
        // mid-run by the writers — a race the versioning resolves) and
        // near-data points whose neighbourhoods shift with every write.
        for c in 0..3usize {
            let queries = &queries;
            scope.spawn(move || {
                for i in 0..8 {
                    let id = (c * 17 + i * 5) % 150;
                    let p = row_for(c + 7, i);
                    let body = format!(
                        "{{\"ids\":[{id},{}],\"point\":[{}]}}",
                        (id + 31) % 150,
                        p.iter()
                            .map(|v| format!("{v}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    let (status, v) = post(addr, "/query", &body);
                    assert_eq!(status, 200);
                    let version = v.get("version").unwrap().as_usize().unwrap() as u64;
                    let results = v.get("results").unwrap().as_array().unwrap().to_vec();
                    queries.lock().unwrap().push(QueryRecord {
                        specs: vec![
                            QuerySpec::Member(id),
                            QuerySpec::Member((id + 31) % 150),
                            QuerySpec::Point(p),
                        ],
                        version,
                        results,
                    });
                }
            });
        }
    });

    let report = server.join();
    let writes = writes.into_inner().unwrap();
    let mut queries = queries.into_inner().unwrap();
    assert_eq!(writes.len(), 18, "12 inserts + 6 retires");
    assert_eq!(report.writes, 18);
    assert_eq!(queries.len(), 24);

    // Versions must be exactly 1..=18 — the single-writer discipline
    // leaves no gaps and no duplicates.
    let versions: Vec<u64> = writes.keys().copied().collect();
    assert_eq!(versions, (1..=18).collect::<Vec<u64>>());

    // Serial replay on a second identical miner.
    let mut replay = fitted_miner();
    queries.sort_by_key(|q| q.version);
    let mut next = queries.iter().peekable();
    for applied in 0..=18u64 {
        // Evaluate every query that observed exactly `applied` writes.
        while next.peek().is_some_and(|q| q.version == applied) {
            let q = next.next().unwrap();
            let serial = replay.query_each(&q.specs);
            assert_eq!(q.results.len(), serial.len());
            for (slot, (wire, serial)) in q.results.iter().zip(&serial).enumerate() {
                assert_slot_matches(wire, serial, &format!("version {applied}, slot {slot}"));
            }
        }
        // Apply the next write.
        if let Some(rec) = writes.get(&(applied + 1)) {
            match rec {
                WriteRecord::Insert { row, id } => {
                    let got = replay.insert_point(row).unwrap();
                    assert_eq!(got, *id, "insert id at version {}", applied + 1);
                }
                WriteRecord::Retire { id } => replay.retire_point(*id).unwrap(),
            }
        }
    }
    assert!(next.peek().is_none(), "every query was replayed");

    // The workload genuinely exercised batching, not just serial luck.
    assert!(report.batches >= 1);
    assert_eq!(report.specs, 24 * 3);
}

/// Structural bit-equality of two JSON trees. Objects must agree on
/// key order too (both protocols promise a fixed field order), except
/// that per-protocol request counters are each server's own tally and
/// are skipped by value (their keys must still be present).
fn assert_bits_equal(a: &Json, b: &Json, path: &str) {
    const PROTOCOL_LOCAL: [&str; 2] = ["http_requests", "bin_requests"];
    match (a, b) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(x), Json::Bool(y)) => assert_eq!(x, y, "{path}"),
        (Json::Num(x), Json::Num(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{path}: {x} vs {y}");
        }
        (Json::Str(x), Json::Str(y)) => assert_eq!(x, y, "{path}"),
        (Json::Arr(x), Json::Arr(y)) => {
            assert_eq!(x.len(), y.len(), "{path}: array length");
            for (i, (xa, ya)) in x.iter().zip(y).enumerate() {
                assert_bits_equal(xa, ya, &format!("{path}[{i}]"));
            }
        }
        (Json::Obj(x), Json::Obj(y)) => {
            assert_eq!(
                x.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                y.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                "{path}: object keys"
            );
            for ((k, xa), (_, ya)) in x.iter().zip(y) {
                if PROTOCOL_LOCAL.contains(&k.as_str()) {
                    continue;
                }
                assert_bits_equal(xa, ya, &format!("{path}.{k}"));
            }
        }
        _ => panic!("{path}: shape differs ({a:?} vs {b:?})"),
    }
}

#[test]
fn every_endpoint_is_bit_identical_across_protocols() {
    use hos_serve::{codec, ApiRequest};
    use tinyhttp::bin::BinClient;

    let config = ServeConfig {
        workers: 2,
        batch_max: 16,
        ..ServeConfig::default()
    };
    let http_server = Server::start(fitted_miner(), &config).unwrap();
    let bin_server = Server::start(fitted_miner(), &config).unwrap();
    let haddr = http_server.addr();
    let mut bcli = BinClient::connect(bin_server.addr()).unwrap();
    let mut frame = Vec::new();
    let mut ops = 0u64;

    // One op over both wires; replies must agree on status and bits.
    let mut step = |method: &str, path: &str, json_body: &str, req: &ApiRequest| -> Json {
        let (hstatus, raw) = client_request(haddr, method, path, json_body.as_bytes()).unwrap();
        let hjson = Json::parse(std::str::from_utf8(&raw).unwrap()).unwrap();
        let op = codec::encode_bin_request(req, &mut frame);
        let (rop, resp) = bcli.call(op, &frame).unwrap();
        let (bstatus, bjson) = codec::bin_reply_to_json(rop, &resp).unwrap();
        assert_eq!(hstatus, bstatus, "{path}: status");
        assert_bits_equal(&hjson, &bjson, path);
        ops += 1;
        hjson
    };

    step("GET", "/healthz", "", &ApiRequest::Healthz);
    step("GET", "/stats", "", &ApiRequest::Stats);
    let near = row_for(9, 3);
    let near_s = near
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    step(
        "POST",
        "/query",
        &format!("{{\"ids\":[3,9],\"point\":[{near_s}]}}"),
        &ApiRequest::Query(vec![
            QuerySpec::Member(3),
            QuerySpec::Member(9),
            QuerySpec::Point(near.clone()),
        ]),
    );
    step("POST", "/scan", "{\"top\":3}", &ApiRequest::Scan { top: 3 });
    // The JSON default for a bodyless scan must equal an explicit
    // top=5 over the binary wire.
    step("POST", "/scan", "{}", &ApiRequest::Scan { top: 5 });
    let row = row_for(4, 2);
    let row_s = row
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let inserted = step(
        "POST",
        "/insert",
        &format!("{{\"row\":[{row_s}]}}"),
        &ApiRequest::Insert(row.clone()),
    );
    let id = inserted.get("id").unwrap().as_usize().unwrap();
    step(
        "POST",
        "/query",
        &format!("{{\"id\":{id}}}"),
        &ApiRequest::Query(vec![QuerySpec::Member(id)]),
    );
    step(
        "POST",
        "/explain",
        &format!("{{\"id\":{id}}}"),
        &ApiRequest::ExplainId(id),
    );
    step(
        "POST",
        "/explain",
        &format!("{{\"point\":[{near_s}]}}"),
        &ApiRequest::ExplainPoint(near.clone()),
    );
    step(
        "POST",
        "/retire",
        &format!("{{\"id\":{id}}}"),
        &ApiRequest::Retire(id),
    );
    // Typed errors must cross protocols identically too: retiring
    // twice is a 422 data error; querying the retired member is a
    // per-item error inside a 200 batch.
    step(
        "POST",
        "/retire",
        &format!("{{\"id\":{id}}}"),
        &ApiRequest::Retire(id),
    );
    step(
        "POST",
        "/query",
        &format!("{{\"ids\":[{id},3]}}"),
        &ApiRequest::Query(vec![QuerySpec::Member(id), QuerySpec::Member(3)]),
    );
    step("GET", "/stats", "", &ApiRequest::Stats);
    step("POST", "/shutdown", "{}", &ApiRequest::Shutdown);

    let total = ops;
    let hreport = http_server.join();
    let breport = bin_server.join();
    assert_eq!(hreport.http_requests, total);
    assert_eq!(hreport.bin_requests, 0);
    assert_eq!(breport.bin_requests, total);
    assert_eq!(breport.http_requests, 0);
    // Identical workloads → identical execution tallies.
    assert_eq!(hreport.specs, breport.specs);
    assert_eq!(hreport.writes, breport.writes);
    assert_eq!(hreport.rejected, breport.rejected);
}
