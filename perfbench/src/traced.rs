//! The traced run: replays a workload's seeded request stream
//! in-process through each layer's public calls, with a span around
//! every call, and reports the per-layer metrics.
//!
//! Per request, one root span (`request`) holds the path a served
//! request takes: wire decode, the `serve::state` admission path
//! (`submit_query`, `submit_write`, or the scan gate plus
//! `scan_outliers`), and encode. Probes run outside the root, so they
//! never inflate it: the other wire's codec, a standalone `query_each`
//! of the same spec (what admission adds is the difference), the write
//! applied to a probe miner and logged to a probe store (what the
//! writer queue adds is the difference), the blocked scan kernel on
//! its own, and engine-level ODs, context builds and lattice walks on a
//! sample of the queries.

use crate::durable;
use crate::stats::{mean, median, sorted};
use crate::trace::{self_times, Tracer};
use crate::workload::{encode, Data, Item, Req, Wire, Workload};
use crate::Metrics;
use hos_core::{HosError, HosMiner, QueryOutcome, QuerySpec, SearchStats};
use hos_data::Subspace;
use hos_index::QueryContext;
use hos_serve::codec::{self, ApiReply, ApiRequest};
use hos_serve::{Json, SharedState, WriteOk, WriteOp};
use hos_storage::Op;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries replayed twice, untraced then traced, for the overhead.
const SHADOW: usize = 300;
/// Queries probed at the engine layer.
const ENGINE_SAMPLE: usize = 64;
/// Deep queries whose context build is timed, and whose full lattice
/// is walked.
const CONTEXTS: usize = 16;
const WALKS: usize = 2;
/// The median request's root may leave at most this share of its time
/// outside its child spans.
const ACCOUNTING_BOUND: f64 = 0.05;
/// Checkpoint cadence of the probe store for workloads served without
/// a data dir: `hos-serve`'s default.
const DEFAULT_SNAPSHOT_EVERY: u64 = 4096;

/// What the served pass measured that the per-layer report needs.
pub struct Served {
    pub query_p50_us: f64,
    pub specs_per_batch: f64,
    pub rejected: f64,
}

pub struct Input<'a> {
    pub w: &'static Workload,
    pub data: &'a Data,
    /// `(connection, request)` in send order.
    pub stream: &'a [(usize, Item)],
    pub served: &'a Served,
    pub prepared: Option<&'a Path>,
    pub work_dir: &'a Path,
    pub spans_out: &'a Path,
}

fn names(wire: Wire) -> (&'static str, &'static str) {
    match wire {
        Wire::Json => ("codec.json_decode", "codec.json_encode"),
        Wire::Bin => ("codec.bin_decode", "codec.bin_encode"),
    }
}

fn other(wire: Wire) -> Wire {
    match wire {
        Wire::Json => Wire::Bin,
        Wire::Bin => Wire::Json,
    }
}

/// Wire bytes to request, as `hos-serve` decodes them: the HTTP reader
/// and JSON parser plus the request build, or the frame reader plus
/// the hosbin decoder.
fn decode(wire: Wire, bytes: &[u8]) -> Result<ApiRequest, String> {
    match wire {
        Wire::Json => {
            let req = tinyhttp::read_request(&mut Cursor::new(bytes), &tinyhttp::Limits::default())
                .map_err(|e| e.to_string())?
                .ok_or("empty request")?;
            let body = Json::parse(&req.body_utf8()).map_err(|e| e.to_string())?;
            build(&req.path, &body).ok_or_else(|| format!("unexpected request {}", req.path))
        }
        Wire::Bin => {
            let mut body = Vec::new();
            let op = tinyhttp::bin::read_frame(&mut Cursor::new(bytes), &mut body, usize::MAX)
                .map_err(|e| e.to_string())?
                .ok_or("empty frame")?;
            codec::decode_bin_request(op, &body).map_err(|e| e.to_string())
        }
    }
}

fn build(path: &str, body: &Json) -> Option<ApiRequest> {
    let point = |v: &Json| {
        v.as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()
    };
    Some(match path {
        "/query" => ApiRequest::Query(vec![match body.get("id") {
            Some(id) => QuerySpec::Member(id.as_usize()?),
            None => QuerySpec::Point(point(body.get("point")?)?),
        }]),
        "/insert" => ApiRequest::Insert(point(body.get("row")?)?),
        "/retire" => ApiRequest::Retire(body.get("id")?.as_usize()?),
        "/scan" => ApiRequest::Scan {
            top: body.get("top")?.as_usize()?,
        },
        _ => return None,
    })
}

/// Encodes a reply in `wire` format; returns its length.
fn encode_reply(wire: Wire, reply: &ApiReply, text: &mut String, bin: &mut Vec<u8>) -> usize {
    match wire {
        Wire::Json => {
            codec::encode_json_reply(reply, text);
            text.len()
        }
        Wire::Bin => {
            codec::encode_bin_reply(reply, bin);
            bin.len()
        }
    }
}

/// One request's served path under a root span: decode, execute
/// through `serve::state`, encode. Returns the reply and its size.
fn serve_one(
    t: &mut Tracer,
    req: u64,
    wire: Wire,
    bytes: &[u8],
    state: &SharedState,
    text: &mut String,
    bin: &mut Vec<u8>,
) -> Result<(ApiReply, usize), String> {
    let (dec, enc) = names(wire);
    t.span("request", req, |t| {
        let api = t.span(dec, req, |_| decode(wire, bytes))?;
        let reply = match api {
            ApiRequest::Query(specs) => {
                let (version, results) = t
                    .span("state.submit_query", req, |_| state.submit_query(specs))
                    .map_err(|e| e.to_string())?;
                ApiReply::Query { version, results }
            }
            ApiRequest::Insert(row) => {
                match t.span("state.submit_write", req, |_| {
                    state.submit_write(WriteOp::Insert(row))
                }) {
                    Ok((version, Ok(WriteOk::Inserted(id)))) => ApiReply::Insert { version, id },
                    other => return Err(format!("insert failed: {other:?}")),
                }
            }
            ApiRequest::Retire(id) => {
                match t.span("state.submit_write", req, |_| {
                    state.submit_write(WriteOp::Retire(id))
                }) {
                    Ok((version, Ok(WriteOk::Retired))) => ApiReply::Retire { version },
                    other => return Err(format!("retire failed: {other:?}")),
                }
            }
            ApiRequest::Scan { top } => {
                let permit = t
                    .span("state.acquire_scan", req, |_| state.acquire_scan())
                    .map_err(|e| e.to_string())?;
                let (version, report) = t.span("core.scan_outliers", req, |_| {
                    state.with_read(|m, v| (v, hos_core::scan_outliers(m, top)))
                });
                drop(permit);
                ApiReply::Scan {
                    version,
                    report: report.map_err(|e| e.to_string())?,
                }
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        let len = t.span(enc, req, |_| encode_reply(wire, &reply, text, bin));
        Ok((reply, len))
    })
}

/// Per-layer accumulators of the replay.
#[derive(Default)]
struct Acc {
    query_roots: Vec<usize>,
    shadow_us: Vec<f64>,
    admit_wait_us: Vec<f64>,
    write_wait_us: Vec<f64>,
    search: Vec<SearchStats>,
    specs: Vec<QuerySpec>,
    reply_bytes: Vec<f64>,
    blocked_evals: u64,
    blocked_filtered: u64,
    writes: u64,
    user_bytes: u64,
    written_bytes: u64,
    fsync_calls: u64,
}

fn ns_of(t: &Tracer, name: &str) -> f64 {
    t.last(name).map_or(0.0, |i| t.spans()[i].ns() as f64)
}

pub fn run(inp: &Input, m: &mut Metrics) -> Result<(), String> {
    let w = inp.w;
    let config = w.config();
    let d = inp.data.dataset.dim();
    let mut t = Tracer::new();

    let fitted = t
        .span("miner.fit", 0, |_| {
            HosMiner::fit(inp.data.dataset.clone(), config)
        })
        .map_err(|e| e.to_string())?;
    let fit_s = ns_of(&t, "miner.fit") / 1e9;

    // The state's miner and store, plus a probe miner and probe store
    // the write path is replayed on outside the root spans.
    let probe_dir = inp.work_dir.join("trace-probe");
    let mut open_ms = None;
    let (state_miner, state_store, mut probe_miner, mut probe_store) =
        match (inp.prepared, w.durable) {
            (Some(prep), Some(dur)) => {
                let dir = inp.work_dir.join("trace-store");
                crate::serve_proc::copy_dir(prep, &dir)?;
                let (store, recovery) = t.span("store.open", 0, |_| {
                    durable::open(&dir, &config, dur.sync_every)
                })?;
                open_ms = Some((ns_of(&t, "store.open") / 1e6, recovery.ops.len()));
                let miner = t.span("storage.rebuild", 0, |_| {
                    durable::rebuild(&recovery, &config)
                })?;
                crate::serve_proc::copy_dir(prep, &probe_dir)?;
                let (probe_store, probe_rec) = durable::open(&probe_dir, &config, 0)?;
                let probe_miner = durable::rebuild(&probe_rec, &config)?;
                (miner, Some(store), probe_miner, probe_store)
            }
            _ => {
                let probe_miner =
                    HosMiner::fit(inp.data.dataset.clone(), config).map_err(|e| e.to_string())?;
                let (mut probe_store, _) = durable::open(&probe_dir, &config, 0)?;
                durable::snapshot(&mut probe_store, &probe_miner)?;
                (fitted, None, probe_miner, probe_store)
            }
        };
    let snapshot_every = w
        .durable
        .map_or(DEFAULT_SNAPSHOT_EVERY, |dur| dur.snapshot_every);
    let state = SharedState::new(
        state_miner,
        Duration::from_millis(2),
        64,
        1024,
        1024,
        true,
        1,
    );
    let durable_state = state_store.is_some();
    if let Some(store) = state_store {
        state.attach_store(store, snapshot_every, (0, 0, inp.data.dataset.len() as u64));
    }
    let threads = [
        std::thread::spawn({
            let s = Arc::clone(&state);
            move || s.batcher_loop()
        }),
        std::thread::spawn({
            let s = Arc::clone(&state);
            move || s.writer_loop()
        }),
    ];
    let replay = replay(
        inp,
        &mut t,
        &state,
        &mut probe_miner,
        &mut probe_store,
        snapshot_every,
        durable_state,
    );
    state.start_drain();
    for h in threads {
        h.join().map_err(|_| "a serving thread panicked")?;
    }
    let mut acc = replay?;

    let batch = (inp.served.specs_per_batch.round() as usize).max(1);
    let miner_probes =
        state.with_read(|miner, _| probe_miner_layers(&mut t, miner, &acc.specs, batch));
    let (query_each_us, deep_frac, od_evals, walk_ns) = miner_probes;

    // Storage: recovery of the probe store, then a checkpoint at the
    // workload's size.
    let (open_ms, replay_ops) = match open_ms {
        Some(v) => v,
        None => {
            drop(probe_store);
            let (store, recovery) =
                t.span("store.open", 0, |_| durable::open(&probe_dir, &config, 0))?;
            probe_store = store;
            (ns_of(&t, "store.open") / 1e6, recovery.ops.len())
        }
    };
    t.span("store.snapshot", 0, |_| {
        durable::snapshot(&mut probe_store, &probe_miner)
    })?;
    acc.fsync_calls += 1;
    let live_bytes = (probe_miner.live_len() * d * 8) as f64;
    let space_amp = crate::serve_proc::dir_bytes(&probe_dir) as f64 / live_bytes;

    // Accounting of the median query request, and tracing overhead.
    let own = self_times(t.spans());
    let mut roots: Vec<(u64, usize)> = acc
        .query_roots
        .iter()
        .map(|&i| (t.spans()[i].ns(), i))
        .collect();
    roots.sort_unstable();
    let (root_ns, root) = *roots
        .get(roots.len().saturating_sub(1) / 2)
        .ok_or("no query was replayed")?;
    let unaccounted = own[root] as f64 / root_ns.max(1) as f64;
    let traced_us: Vec<f64> = acc
        .query_roots
        .iter()
        .map(|&i| t.spans()[i].ns() as f64 / 1e3)
        .collect();
    let shadowed = sorted(traced_us.iter().take(acc.shadow_us.len()).copied());
    let overhead = median(&shadowed) / median(&sorted(acc.shadow_us.iter().copied())) - 1.0;
    t.write_tsv(inp.spans_out)
        .map_err(|e| format!("writing {}: {e}", inp.spans_out.display()))?;
    println!(
        "trace: {} spans to {}; median query root {:.1} us, {:.2}% outside its children",
        t.spans().len(),
        inp.spans_out.display(),
        root_ns as f64 / 1e3,
        unaccounted * 100.0
    );
    if unaccounted > ACCOUNTING_BOUND {
        return Err(format!(
            "trace accounting check failed: the median request's root span leaves {:.1}% of its time outside its children (bound {:.0}%)",
            unaccounted * 100.0,
            ACCOUNTING_BOUND * 100.0
        ));
    }

    let med = |name: &str| {
        let v = sorted(t.us(name));
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let s = &acc.search;
    let per_query = |f: &dyn Fn(&SearchStats) -> f64| mean(&s.iter().map(f).collect::<Vec<_>>());
    let served = inp.served;
    m.put("codec.json_decode_us", med("codec.json_decode"), "us");
    m.put("codec.json_encode_us", med("codec.json_encode"), "us");
    m.put("codec.bin_decode_us", med("codec.bin_decode"), "us");
    m.put("codec.bin_encode_us", med("codec.bin_encode"), "us");
    m.put("codec.reply_bytes", mean(&acc.reply_bytes), "count");
    m.put(
        "wire.socket_us",
        served.query_p50_us - median(&sorted(traced_us)),
        "us",
    );
    m.put(
        "state.admit_wait_us",
        median(&sorted(acc.admit_wait_us.iter().copied())),
        "us",
    );
    m.put("state.specs_per_batch", served.specs_per_batch, "count");
    m.put(
        "state.write_wait_us",
        median(&sorted(acc.write_wait_us.iter().copied())),
        "us",
    );
    m.put("state.scan_permit_wait_us", med("state.acquire_scan"), "us");
    m.put("state.rejected", served.rejected, "count");
    m.put("miner.fit_s", fit_s, "s");
    m.put("miner.query_each_us", query_each_us, "us");
    m.put("miner.insert_us", med("miner.insert"), "us");
    m.put("miner.retire_us", med("miner.retire"), "us");
    m.put("search.us_per_query", per_query(&|x| x.seconds * 1e6), "us");
    m.put(
        "search.od_evals_per_query",
        per_query(&|x| x.od_evals as f64),
        "count",
    );
    m.put(
        "search.pruned_frac",
        per_query(&|x| (x.pruned_outlier + x.pruned_non_outlier) as f64 / x.lattice_size as f64),
        "ratio",
    );
    m.put(
        "search.nodes_visited_per_query",
        per_query(&|x| x.nodes_visited as f64),
        "count",
    );
    m.put(
        "search.rounds_per_query",
        per_query(&|x| x.rounds as f64),
        "count",
    );
    m.put("search.deep_query_frac", deep_frac, "ratio");
    m.put("index.context_build_us", med("index.context_build"), "us");
    m.put("index.walker_node_ns", mean(&walk_ns), "ns");
    m.put("engine.od_us", med("engine.od"), "us");
    m.put("engine.distance_evals_per_od", mean(&od_evals), "count");
    m.put(
        "index.blocked_scan_ms",
        med("index.blocked_scan") / 1e3,
        "ms",
    );
    m.put(
        "index.blocked_filtered_frac",
        acc.blocked_filtered as f64 / (acc.blocked_evals + acc.blocked_filtered).max(1) as f64,
        "ratio",
    );
    m.put("scan.ms", med("core.scan_outliers") / 1e3, "ms");
    m.put("wal.append_us", med("wal.append"), "us");
    m.put("wal.sync_ms", med("wal.sync") / 1e3, "ms");
    m.put("store.snapshot_ms", med("store.snapshot") / 1e3, "ms");
    m.put("store.open_ms", open_ms, "ms");
    m.put("store.replay_ops", replay_ops as f64, "count");
    m.put(
        "storage.write_amp",
        acc.written_bytes as f64 / acc.user_bytes.max(1) as f64,
        "ratio",
    );
    m.put(
        "storage.fsyncs_per_write",
        acc.fsync_calls as f64 / acc.writes.max(1) as f64,
        "count",
    );
    m.put("storage.space_amp", space_amp, "ratio");
    m.put("trace.unaccounted_frac", unaccounted, "ratio");
    m.put("trace.overhead_frac", overhead, "ratio");
    Ok(())
}

/// Miner- and index-layer probes against the replayed state: batched
/// `query_each` at the served batch size, then full-space ODs, context
/// builds and whole-lattice walks on a sample of the queries. Returns
/// (µs per spec, deep share, distance evals per OD, ns per walked node).
fn probe_miner_layers(
    t: &mut Tracer,
    miner: &HosMiner,
    specs: &[QuerySpec],
    batch: usize,
) -> (f64, f64, Vec<f64>, Vec<f64>) {
    let mut each_ns = 0.0;
    for chunk in specs.chunks(batch) {
        t.span("miner.query_each", 0, |_| miner.query_each(chunk));
        each_ns += ns_of(t, "miner.query_each");
    }
    let query_each_us = each_ns / 1e3 / specs.len().max(1) as f64;
    let engine = miner.engine();
    let k = miner.config().k;
    let d = engine.dataset().dim();
    let full = Subspace::full(d);
    let mut deep = Vec::new();
    let mut od_evals = Vec::new();
    let sample: Vec<(Vec<f64>, Option<usize>)> = specs
        .iter()
        .take(ENGINE_SAMPLE)
        .map(|s| match s {
            QuerySpec::Member(id) => (engine.dataset().row(*id).to_vec(), Some(*id)),
            QuerySpec::Point(p) => (p.clone(), None),
        })
        .collect();
    for (i, (q, ex)) in sample.iter().enumerate() {
        let before = engine.distance_evals();
        let od = t.span("engine.od", i as u64, |_| engine.od(q, k, full, *ex));
        od_evals.push((engine.distance_evals() - before) as f64);
        if od >= miner.threshold() {
            deep.push(i);
        }
    }
    let deep_frac = deep.len() as f64 / sample.len().max(1) as f64;
    // With no deep query in the sample, time the sampled ones instead.
    let probed: Vec<usize> = if deep.is_empty() {
        (0..sample.len()).collect()
    } else {
        deep.clone()
    };
    for &i in probed.iter().take(CONTEXTS) {
        let ctx = t.span("index.context_build", i as u64, |_| {
            QueryContext::build(engine.dataset(), engine.metric(), &sample[i].0)
        });
        drop(ctx);
    }
    let mut lattice: Vec<Subspace> = Subspace::all_nonempty(d).collect();
    lattice.sort_by(|a, b| a.walk_cmp(*b));
    let mut walk_ns = Vec::new();
    for &i in probed.iter().take(WALKS) {
        let ctx = QueryContext::build(engine.dataset(), engine.metric(), &sample[i].0);
        let mut walker = ctx.walker();
        let started = Instant::now();
        let mut sum = 0.0;
        for s in &lattice {
            walker.seek(*s);
            sum += walker.od(k, sample[i].1);
        }
        std::hint::black_box(sum);
        walk_ns.push(started.elapsed().as_nanos() as f64 / lattice.len() as f64);
    }

    (query_each_us, deep_frac, od_evals, walk_ns)
}

/// Replays the stream: root spans for the served path, probes beside
/// them.
fn replay(
    inp: &Input,
    t: &mut Tracer,
    state: &SharedState,
    probe_miner: &mut HosMiner,
    probe_store: &mut hos_storage::Store,
    snapshot_every: u64,
    durable_state: bool,
) -> Result<Acc, String> {
    let w = inp.w;
    let (odec, oenc) = names(other(w.wire));
    let mut acc = Acc::default();
    let mut own: [Option<usize>; 2] = [None, None];
    let mut off = Tracer::off();
    let (mut text, mut bin, mut scratch) = (String::new(), Vec::new(), Vec::new());
    let probe_dir = probe_store.dir().to_path_buf();
    for (i, (conn, item)) in inp.stream.iter().enumerate() {
        let req = i as u64;
        let resolved = match item.req {
            Req::RetireOwn => own[*conn].take(),
            _ => own[*conn],
        };
        let Some(api) = item.req.api(resolved) else {
            continue;
        };
        let mut bytes = [Vec::new(), Vec::new()];
        for (b, wire) in bytes.iter_mut().zip([w.wire, other(w.wire)]) {
            encode(wire, &api, b, &mut scratch);
        }
        // The untraced twin of a query runs before or after the traced
        // one, alternately, so warm-cache effects cancel.
        let shadow = matches!(api, ApiRequest::Query(_)) && acc.shadow_us.len() < SHADOW;
        let shadow_first = acc.shadow_us.len() % 2 == 0;
        let mut untraced =
            |acc: &mut Acc, text: &mut String, bin: &mut Vec<u8>| -> Result<(), String> {
                let started = Instant::now();
                serve_one(&mut off, req, w.wire, &bytes[0], state, text, bin)?;
                acc.shadow_us
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
                Ok(())
            };
        if shadow && shadow_first {
            untraced(&mut acc, &mut text, &mut bin)?;
        }
        let (reply, len) = serve_one(t, req, w.wire, &bytes[0], state, &mut text, &mut bin)?;
        if shadow && !shadow_first {
            untraced(&mut acc, &mut text, &mut bin)?;
        }
        let root = t.last("request").expect("root span");
        acc.reply_bytes.push(len as f64);
        t.span(odec, req, |_| decode(other(w.wire), &bytes[1]))?;
        t.span(oenc, req, |_| {
            encode_reply(other(w.wire), &reply, &mut text, &mut bin)
        });
        match (&api, &reply) {
            (ApiRequest::Query(specs), ApiReply::Query { results, .. }) => {
                acc.query_roots.push(root);
                let single = t.span("miner.query_each.single", req, |_| {
                    state.with_read(|m, _| m.query_each(specs))
                });
                std::hint::black_box(single);
                acc.admit_wait_us.push(
                    (ns_of(t, "state.submit_query") - ns_of(t, "miner.query_each.single")) / 1e3,
                );
                for r in results {
                    let out: &QueryOutcome = r.as_ref().map_err(|e: &HosError| e.to_string())?;
                    acc.search.push(out.stats);
                }
                acc.specs.extend(specs.iter().cloned());
            }
            (ApiRequest::Insert(_) | ApiRequest::Retire(_), _) => {
                let (op, apply) = match (&api, &reply) {
                    (ApiRequest::Insert(row), ApiReply::Insert { id, .. }) => {
                        own[*conn] = Some(*id);
                        let probe_id = t
                            .span("miner.insert", req, |_| probe_miner.insert_point(row))
                            .map_err(|e| e.to_string())?;
                        if probe_id != *id {
                            return Err(format!("probe miner assigned id {probe_id}, state {id}"));
                        }
                        acc.user_bytes += (row.len() * 8) as u64;
                        (Op::Insert(row.clone()), "miner.insert")
                    }
                    (ApiRequest::Retire(id), _) => {
                        t.span("miner.retire", req, |_| probe_miner.retire_point(*id))
                            .map_err(|e| e.to_string())?;
                        acc.user_bytes += 8;
                        (Op::Retire(*id as u64), "miner.retire")
                    }
                    _ => unreachable!("write replies match their requests"),
                };
                let before = crate::serve_proc::dir_bytes(&probe_dir);
                t.span("wal.append", req, |_| probe_store.append(&op))
                    .map_err(|e| e.to_string())?;
                t.span("wal.sync", req, |_| probe_store.sync())
                    .map_err(|e| e.to_string())?;
                acc.fsync_calls += 1;
                acc.written_bytes +=
                    crate::serve_proc::dir_bytes(&probe_dir).saturating_sub(before);
                acc.writes += 1;
                let mut storage_ns = ns_of(t, "wal.append") + ns_of(t, "wal.sync");
                if acc.writes % snapshot_every == 0 {
                    t.span("store.snapshot", req, |_| {
                        durable::snapshot(probe_store, probe_miner)
                    })?;
                    acc.fsync_calls += 1;
                    acc.written_bytes += crate::serve_proc::dir_bytes(&probe_dir);
                    storage_ns += ns_of(t, "store.snapshot");
                }
                let waited = ns_of(t, "state.submit_write")
                    - ns_of(t, apply)
                    - if durable_state { storage_ns } else { 0.0 };
                acc.write_wait_us.push(waited / 1e3);
            }
            (ApiRequest::Scan { .. }, _) => {
                let (evals, filtered) = t
                    .span("index.blocked_scan", req, |_| {
                        state.with_read(|m, _| {
                            let e = m.engine();
                            hos_index::all_points_full_od_counted(
                                e.dataset(),
                                e.metric(),
                                m.config().k,
                            )
                            .map(|s| (s.distance_evals, s.filtered))
                        })
                    })
                    .map_err(|e| e.to_string())?;
                acc.blocked_evals += evals;
                acc.blocked_filtered += filtered;
            }
            _ => return Err("reply does not match its request".into()),
        }
    }
    Ok(acc)
}
