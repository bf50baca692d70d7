//! The shared protocol seam: one typed request/reply model, one
//! execution path, two encoders.
//!
//! Both wire protocols decode into [`ApiRequest`], run through
//! [`execute`] (the ONLY place endpoint semantics live), and encode
//! the resulting [`ApiReply`] with either the JSON writer (byte-for-
//! byte the PR 7 format) or the hosbin writer (`f64`s as raw bits).
//! Identical replies across protocols are therefore structural, not
//! coincidental — the differential oracle in `tests/oracle.rs` pins
//! it end to end.
//!
//! hosbin opcodes (request; reply is `op | 0x80`, errors `0xFF`):
//!
//! | op   | endpoint  | body                                             |
//! |------|-----------|--------------------------------------------------|
//! | 0x01 | query     | `u32 n` then per spec `u8 tag` (0 = member `u64 id`, 1 = point `u32 dim` + `dim × f64`) |
//! | 0x02 | scan      | `u64 top`                                        |
//! | 0x03 | insert    | `u32 dim` + `dim × f64`                          |
//! | 0x04 | retire    | `u64 id`                                         |
//! | 0x05 | explain   | `u8 tag` (0 = `u64 id`, 1 = `u32 dim` + `dim × f64`) |
//! | 0x06 | stats     | empty                                            |
//! | 0x07 | healthz   | empty                                            |
//! | 0x08 | shutdown  | empty                                            |
//!
//! Strings travel as `u32 len` + UTF-8; error frames carry `u16
//! status`, `str kind`, `str message` — the same envelope the JSON
//! path serializes as `{"error":{"kind":K,"message":M}}`.

use crate::json::{fmt_f64_roundtrip, push_json_string, Json};
use crate::state::{ServeError, SharedState, WriteOk, WriteOp};
use hos_core::{explain, Explanation, HosError, QueryOutcome, QuerySpec, ScanReport};
use hos_data::Subspace;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use tinyhttp::bin::{put_f64, put_str, put_u16, put_u32, put_u64, put_u8, BinError, WireReader};

/// hosbin opcodes.
pub mod op {
    /// `POST /query` equivalent.
    pub const QUERY: u8 = 0x01;
    /// `POST /scan` equivalent.
    pub const SCAN: u8 = 0x02;
    /// `POST /insert` equivalent.
    pub const INSERT: u8 = 0x03;
    /// `POST /retire` equivalent.
    pub const RETIRE: u8 = 0x04;
    /// `POST /explain` equivalent.
    pub const EXPLAIN: u8 = 0x05;
    /// `GET /stats` equivalent.
    pub const STATS: u8 = 0x06;
    /// `GET /healthz` equivalent.
    pub const HEALTHZ: u8 = 0x07;
    /// `POST /shutdown` equivalent.
    pub const SHUTDOWN: u8 = 0x08;
    /// OR-ed onto the request opcode in a success reply.
    pub const REPLY: u8 = 0x80;
    /// Error reply opcode.
    pub const ERROR: u8 = 0xFF;
}

/// One decoded API request, whichever wire it arrived on.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiRequest {
    /// Query one or more specs (batched through the admission queue).
    Query(Vec<QuerySpec>),
    /// Rank live points and search the top hits.
    Scan { top: usize },
    /// Insert a row.
    Insert(Vec<f64>),
    /// Retire a live point.
    Retire(usize),
    /// Explain a member point.
    ExplainId(usize),
    /// Explain an arbitrary point.
    ExplainPoint(Vec<f64>),
    /// Counters snapshot.
    Stats,
    /// Liveness probe.
    Healthz,
    /// Graceful drain.
    Shutdown,
}

/// Counters snapshot for a stats reply.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    pub version: u64,
    pub live: usize,
    pub dim: usize,
    pub threshold: f64,
    pub threads: usize,
    pub draining: bool,
    pub queries: u64,
    pub specs: u64,
    pub batches: u64,
    pub max_batch: usize,
    pub writes: u64,
    pub rejected: u64,
    pub http_requests: u64,
    pub bin_requests: u64,
}

/// One successful API reply, ready for either encoder.
pub enum ApiReply {
    /// Per-spec outcomes (item errors stay per-item, like the JSON
    /// results array).
    Query {
        version: u64,
        results: Vec<Result<QueryOutcome, HosError>>,
    },
    /// A scan report.
    Scan { version: u64, report: ScanReport },
    /// The id an insert produced.
    Insert { version: u64, id: usize },
    /// Retire acknowledged.
    Retire { version: u64 },
    /// An explanation.
    Explain {
        version: u64,
        explanation: Explanation,
    },
    /// Counters snapshot.
    Stats(StatsSnapshot),
    /// `{"ok":true}`.
    Healthz,
    /// `{"draining":true}`.
    Shutdown,
}

/// A failed API request: status + the stable kind tag + message —
/// exactly the `{"error":{...}}` envelope, protocol-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiError {
    pub status: u16,
    pub kind: &'static str,
    pub message: String,
}

impl ApiError {
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            kind: "bad_request",
            message: message.into(),
        }
    }

    pub fn bad_json(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            kind: "bad_json",
            message: message.into(),
        }
    }

    pub fn from_hos(e: &HosError) -> ApiError {
        let status = match e {
            HosError::Query(_) | HosError::Config(_) => 400,
            HosError::Index(_) | HosError::Data(_) => 422,
        };
        ApiError {
            status,
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    pub fn from_serve(e: &ServeError) -> ApiError {
        ApiError {
            status: e.status(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

// ----------------------------------------------------------- execute

/// Runs one request against the shared state. Both protocols call
/// this and nothing else — endpoint semantics live here once.
pub fn execute(state: &SharedState, req: ApiRequest) -> Result<ApiReply, ApiError> {
    match req {
        ApiRequest::Query(specs) => {
            let (version, results) = state
                .submit_query(specs)
                .map_err(|e| ApiError::from_serve(&e))?;
            Ok(ApiReply::Query { version, results })
        }
        ApiRequest::Scan { top } => {
            if state.is_draining() {
                return Err(ApiError::from_serve(&ServeError::Draining));
            }
            let _permit = state.acquire_scan().map_err(|e| ApiError::from_serve(&e))?;
            let (version, report) =
                state.with_read(|miner, version| (version, hos_core::scan_outliers(miner, top)));
            let report = report.map_err(|e| ApiError::from_hos(&e))?;
            Ok(ApiReply::Scan { version, report })
        }
        ApiRequest::Insert(row) => match state.submit_write(WriteOp::Insert(row)) {
            Ok((version, Ok(WriteOk::Inserted(id)))) => Ok(ApiReply::Insert { version, id }),
            Ok((_, Ok(WriteOk::Retired))) => unreachable!("insert cannot retire"),
            Ok((_, Err(e))) => Err(ApiError::from_hos(&e)),
            Err(e) => Err(ApiError::from_serve(&e)),
        },
        ApiRequest::Retire(id) => match state.submit_write(WriteOp::Retire(id)) {
            Ok((version, Ok(_))) => Ok(ApiReply::Retire { version }),
            Ok((_, Err(e))) => Err(ApiError::from_hos(&e)),
            Err(e) => Err(ApiError::from_serve(&e)),
        },
        ApiRequest::ExplainId(_) | ApiRequest::ExplainPoint(_) => {
            if state.is_draining() {
                return Err(ApiError::from_serve(&ServeError::Draining));
            }
            let result = state.with_read(|miner, version| {
                let (query, exclude, outcome) = match &req {
                    ApiRequest::ExplainId(id) => {
                        let outcome = miner.query_id(*id).map_err(|e| ApiError::from_hos(&e))?;
                        let row = miner.engine().dataset().row(*id).to_vec();
                        (row, Some(*id), outcome)
                    }
                    ApiRequest::ExplainPoint(point) => {
                        let outcome = miner
                            .query_point(point)
                            .map_err(|e| ApiError::from_hos(&e))?;
                        (point.clone(), None, outcome)
                    }
                    _ => unreachable!("outer match covers explain only"),
                };
                let ex = explain(miner, &query, exclude, &outcome)
                    .map_err(|e| ApiError::from_hos(&e))?;
                Ok((version, ex))
            });
            let (version, explanation) = result?;
            Ok(ApiReply::Explain {
                version,
                explanation,
            })
        }
        ApiRequest::Stats => {
            let (version, live, dim, threshold, threads) = state.with_read(|miner, version| {
                (
                    version,
                    miner.live_len(),
                    miner.engine().dataset().dim(),
                    miner.threshold(),
                    miner.config().threads,
                )
            });
            let c = &state.counters;
            Ok(ApiReply::Stats(StatsSnapshot {
                version,
                live,
                dim,
                threshold,
                threads,
                draining: state.is_draining(),
                queries: c.queries.load(Ordering::Relaxed),
                specs: c.specs.load(Ordering::Relaxed),
                batches: c.batches.load(Ordering::Relaxed),
                max_batch: c.max_batch.load(Ordering::Relaxed),
                writes: c.writes.load(Ordering::Relaxed),
                rejected: c.rejected.load(Ordering::Relaxed),
                http_requests: c.http_requests.load(Ordering::Relaxed),
                bin_requests: c.bin_requests.load(Ordering::Relaxed),
            }))
        }
        // A draining server cannot take new work: not healthy.
        ApiRequest::Healthz if state.is_draining() => {
            Err(ApiError::from_serve(&ServeError::Draining))
        }
        ApiRequest::Healthz => Ok(ApiReply::Healthz),
        ApiRequest::Shutdown => {
            state.start_drain();
            Ok(ApiReply::Shutdown)
        }
    }
}

// ------------------------------------------------------ JSON encoder

fn push_subspace(out: &mut String, s: Subspace) {
    out.push('[');
    for (i, d) in s.dims().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{d}");
    }
    out.push(']');
}

/// Serializes one outcome. Dimensions are 0-based (machine API; the
/// CLI's 1-based convention is presentation only). ODs use the
/// round-trip `f64` format, so parsing the JSON back recovers the
/// exact bits — the basis of the serve bit-identity oracle.
fn push_outcome(out: &mut String, o: &QueryOutcome) {
    out.push_str("{\"outlying\":[");
    for (i, s) in o.outlying.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"subspace\":");
        push_subspace(out, s.subspace);
        out.push_str(",\"od\":");
        match s.od {
            Some(od) => {
                let _ = write!(out, "{}", fmt_f64_roundtrip(od));
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("],\"minimal\":[");
    for (i, s) in o.minimal.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_subspace(out, *s);
    }
    let _ = write!(
        out,
        "],\"stats\":{{\"od_evals\":{},\"pruned_outlier\":{},\"pruned_non_outlier\":{}}}}}",
        o.stats.od_evals, o.stats.pruned_outlier, o.stats.pruned_non_outlier
    );
}

fn push_item_error(out: &mut String, e: &HosError) {
    out.push_str("{\"error\":{\"kind\":");
    push_json_string(out, e.kind());
    out.push_str(",\"message\":");
    push_json_string(out, &e.to_string());
    out.push_str("}}");
}

/// Encodes a reply as the PR 7 JSON wire format into `out` (cleared
/// first; the caller's reusable scratch).
pub fn encode_json_reply(reply: &ApiReply, out: &mut String) {
    out.clear();
    match reply {
        ApiReply::Query { version, results } => {
            let _ = write!(out, "{{\"version\":{version},\"results\":[");
            for (i, r) in results.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match r {
                    Ok(outcome) => push_outcome(out, outcome),
                    Err(e) => push_item_error(out, e),
                }
            }
            out.push_str("]}");
        }
        ApiReply::Scan { version, report } => {
            let _ = write!(
                out,
                "{{\"version\":{version},\"threshold\":{},\"truncated\":{},\"skipped\":{},\"hits\":[",
                fmt_f64_roundtrip(report.threshold),
                report.truncated,
                report.skipped
            );
            for (i, hit) in report.hits.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"full_od\":{},\"minimal\":[",
                    hit.id,
                    fmt_f64_roundtrip(hit.full_od)
                );
                for (j, s) in hit.outcome.minimal.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_subspace(out, *s);
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        ApiReply::Insert { version, id } => {
            let _ = write!(out, "{{\"version\":{version},\"id\":{id}}}");
        }
        ApiReply::Retire { version } => {
            let _ = write!(out, "{{\"version\":{version}}}");
        }
        ApiReply::Explain {
            version,
            explanation: ex,
        } => {
            let _ = write!(
                out,
                "{{\"version\":{version},\"threshold\":{},\"deviations\":[",
                fmt_f64_roundtrip(ex.threshold)
            );
            for (i, d) in ex.deviations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"dim\":{},\"value\":{},\"median\":{},\"robust_z\":{}}}",
                    d.dim,
                    fmt_f64_roundtrip(d.value),
                    fmt_f64_roundtrip(d.median),
                    fmt_f64_roundtrip(d.robust_z)
                );
            }
            out.push_str("],\"subspaces\":[");
            for (i, s) in ex.subspaces.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"subspace\":");
                push_subspace(out, s.subspace);
                let _ = write!(
                    out,
                    ",\"od\":{},\"margin\":{}}}",
                    fmt_f64_roundtrip(s.od),
                    fmt_f64_roundtrip(s.margin)
                );
            }
            out.push_str("]}");
        }
        ApiReply::Stats(s) => {
            let _ = write!(
                out,
                "{{\"version\":{},\"live\":{},\"dim\":{},\"threshold\":{},\
                 \"threads\":{},\"draining\":{},\
                 \"queries\":{},\"specs\":{},\"batches\":{},\"max_batch\":{},\
                 \"writes\":{},\"rejected\":{},\"http_requests\":{},\"bin_requests\":{}}}",
                s.version,
                s.live,
                s.dim,
                fmt_f64_roundtrip(s.threshold),
                s.threads,
                s.draining,
                s.queries,
                s.specs,
                s.batches,
                s.max_batch,
                s.writes,
                s.rejected,
                s.http_requests,
                s.bin_requests
            );
        }
        ApiReply::Healthz => out.push_str("{\"ok\":true}"),
        ApiReply::Shutdown => out.push_str("{\"draining\":true}"),
    }
}

/// Encodes the error envelope as JSON into `out` (cleared first).
pub fn encode_json_error(e: &ApiError, out: &mut String) {
    out.clear();
    out.push_str("{\"error\":{\"kind\":");
    push_json_string(out, e.kind);
    out.push_str(",\"message\":");
    push_json_string(out, &e.message);
    out.push_str("}}");
}

// ----------------------------------------------------- hosbin decode

fn decode_point(r: &mut WireReader<'_>, what: &str) -> Result<Vec<f64>, BinError> {
    let dim = r.u32(what)? as usize;
    if r.remaining() < dim * 8 {
        return Err(BinError::BadBody(format!(
            "{what}: declared {dim} coords, only {} bytes left",
            r.remaining()
        )));
    }
    let mut point = Vec::with_capacity(dim);
    for _ in 0..dim {
        point.push(r.f64(what)?);
    }
    Ok(point)
}

/// Decodes one hosbin request frame. Unknown opcodes and undecodable
/// bodies are typed, recoverable errors — the frame boundary is
/// intact, the connection keeps serving.
pub fn decode_bin_request(opcode: u8, body: &[u8]) -> Result<ApiRequest, BinError> {
    let mut r = WireReader::new(body);
    let req = match opcode {
        op::QUERY => {
            let n = r.u32("spec count")? as usize;
            if n == 0 {
                return Err(BinError::BadBody(
                    "query needs at least one spec".to_string(),
                ));
            }
            // Each spec is at least 2 wire bytes: cheap sanity bound
            // before reserving anything.
            if n > r.remaining() {
                return Err(BinError::BadBody(format!(
                    "declared {n} specs, only {} bytes left",
                    r.remaining()
                )));
            }
            let mut specs = Vec::with_capacity(n);
            for _ in 0..n {
                match r.u8("spec tag")? {
                    0 => specs.push(QuerySpec::Member(r.u64("member id")? as usize)),
                    1 => specs.push(QuerySpec::Point(decode_point(&mut r, "point")?)),
                    t => {
                        return Err(BinError::BadBody(format!("unknown spec tag {t}")));
                    }
                }
            }
            ApiRequest::Query(specs)
        }
        op::SCAN => ApiRequest::Scan {
            top: r.u64("top")? as usize,
        },
        op::INSERT => ApiRequest::Insert(decode_point(&mut r, "row")?),
        op::RETIRE => ApiRequest::Retire(r.u64("id")? as usize),
        op::EXPLAIN => match r.u8("explain tag")? {
            0 => ApiRequest::ExplainId(r.u64("id")? as usize),
            1 => ApiRequest::ExplainPoint(decode_point(&mut r, "point")?),
            t => {
                return Err(BinError::BadBody(format!("unknown explain tag {t}")));
            }
        },
        op::STATS => ApiRequest::Stats,
        op::HEALTHZ => ApiRequest::Healthz,
        op::SHUTDOWN => ApiRequest::Shutdown,
        other => return Err(BinError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok(req)
}

/// Encodes a request as a hosbin frame body into `out` (cleared
/// first), returning the opcode to send it under. The client half of
/// [`decode_bin_request`]; `bench serve` and the CI probe use it.
pub fn encode_bin_request(req: &ApiRequest, out: &mut Vec<u8>) -> u8 {
    out.clear();
    match req {
        ApiRequest::Query(specs) => {
            put_u32(out, specs.len() as u32);
            for s in specs {
                match s {
                    QuerySpec::Member(id) => {
                        put_u8(out, 0);
                        put_u64(out, *id as u64);
                    }
                    QuerySpec::Point(p) => {
                        put_u8(out, 1);
                        put_u32(out, p.len() as u32);
                        for x in p {
                            put_f64(out, *x);
                        }
                    }
                }
            }
            op::QUERY
        }
        ApiRequest::Scan { top } => {
            put_u64(out, *top as u64);
            op::SCAN
        }
        ApiRequest::Insert(row) => {
            put_u32(out, row.len() as u32);
            for x in row {
                put_f64(out, *x);
            }
            op::INSERT
        }
        ApiRequest::Retire(id) => {
            put_u64(out, *id as u64);
            op::RETIRE
        }
        ApiRequest::ExplainId(id) => {
            put_u8(out, 0);
            put_u64(out, *id as u64);
            op::EXPLAIN
        }
        ApiRequest::ExplainPoint(p) => {
            put_u8(out, 1);
            put_u32(out, p.len() as u32);
            for x in p {
                put_f64(out, *x);
            }
            op::EXPLAIN
        }
        ApiRequest::Stats => op::STATS,
        ApiRequest::Healthz => op::HEALTHZ,
        ApiRequest::Shutdown => op::SHUTDOWN,
    }
}

// ----------------------------------------------------- hosbin encode

/// A subspace as its dimension count, then its dimensions ascending,
/// each a `u32`: written straight from the mask, with no per-subspace
/// buffer (a deep-search reply holds thousands of subspaces).
fn put_subspace(out: &mut Vec<u8>, s: Subspace) {
    put_u32(out, s.dim() as u32);
    for d in s.dims() {
        put_u32(out, d as u32);
    }
}

fn put_bin_outcome(out: &mut Vec<u8>, o: &QueryOutcome) {
    put_u8(out, 0); // ok
    put_u32(out, o.outlying.len() as u32);
    for s in &o.outlying {
        put_subspace(out, s.subspace);
        match s.od {
            Some(od) => {
                put_u8(out, 1);
                put_f64(out, od);
            }
            None => put_u8(out, 0),
        }
    }
    put_u32(out, o.minimal.len() as u32);
    for s in &o.minimal {
        put_subspace(out, *s);
    }
    put_u64(out, o.stats.od_evals);
    put_u64(out, o.stats.pruned_outlier);
    put_u64(out, o.stats.pruned_non_outlier);
}

/// Encodes a reply as a hosbin frame body into `out` (cleared first),
/// returning the reply opcode. `f64`s go out as raw bits: bit-exact
/// by construction.
pub fn encode_bin_reply(reply: &ApiReply, out: &mut Vec<u8>) -> u8 {
    out.clear();
    match reply {
        ApiReply::Query { version, results } => {
            put_u64(out, *version);
            put_u32(out, results.len() as u32);
            for r in results {
                match r {
                    Ok(outcome) => put_bin_outcome(out, outcome),
                    Err(e) => {
                        put_u8(out, 1); // item error
                        put_str(out, e.kind());
                        put_str(out, &e.to_string());
                    }
                }
            }
            op::QUERY | op::REPLY
        }
        ApiReply::Scan { version, report } => {
            put_u64(out, *version);
            put_f64(out, report.threshold);
            put_u64(out, report.truncated as u64);
            put_u64(out, report.skipped as u64);
            put_u32(out, report.hits.len() as u32);
            for hit in &report.hits {
                put_u64(out, hit.id as u64);
                put_f64(out, hit.full_od);
                put_u32(out, hit.outcome.minimal.len() as u32);
                for s in &hit.outcome.minimal {
                    put_subspace(out, *s);
                }
            }
            op::SCAN | op::REPLY
        }
        ApiReply::Insert { version, id } => {
            put_u64(out, *version);
            put_u64(out, *id as u64);
            op::INSERT | op::REPLY
        }
        ApiReply::Retire { version } => {
            put_u64(out, *version);
            op::RETIRE | op::REPLY
        }
        ApiReply::Explain {
            version,
            explanation: ex,
        } => {
            put_u64(out, *version);
            put_f64(out, ex.threshold);
            put_u32(out, ex.deviations.len() as u32);
            for d in &ex.deviations {
                put_u32(out, d.dim as u32);
                put_f64(out, d.value);
                put_f64(out, d.median);
                put_f64(out, d.robust_z);
            }
            put_u32(out, ex.subspaces.len() as u32);
            for s in &ex.subspaces {
                put_subspace(out, s.subspace);
                put_f64(out, s.od);
                put_f64(out, s.margin);
            }
            op::EXPLAIN | op::REPLY
        }
        ApiReply::Stats(s) => {
            put_u64(out, s.version);
            put_u64(out, s.live as u64);
            put_u64(out, s.dim as u64);
            put_f64(out, s.threshold);
            put_u64(out, s.threads as u64);
            put_u8(out, s.draining as u8);
            put_u64(out, s.queries);
            put_u64(out, s.specs);
            put_u64(out, s.batches);
            put_u64(out, s.max_batch as u64);
            put_u64(out, s.writes);
            put_u64(out, s.rejected);
            put_u64(out, s.http_requests);
            put_u64(out, s.bin_requests);
            op::STATS | op::REPLY
        }
        ApiReply::Healthz => {
            put_u8(out, 1);
            op::HEALTHZ | op::REPLY
        }
        ApiReply::Shutdown => {
            put_u8(out, 1);
            op::SHUTDOWN | op::REPLY
        }
    }
}

/// Encodes the error envelope as a hosbin `0xFF` frame body into
/// `out` (cleared first).
pub fn encode_bin_error(status: u16, kind: &str, message: &str, out: &mut Vec<u8>) {
    out.clear();
    put_u16(out, status);
    put_str(out, kind);
    put_str(out, message);
}

// ---------------------------------------------- client-side decoding

fn json_subspace(r: &mut WireReader<'_>) -> Result<Json, BinError> {
    let n = r.u32("subspace len")? as usize;
    let mut dims = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
    for _ in 0..n {
        dims.push(Json::Num(r.u32("subspace dim")? as f64));
    }
    Ok(Json::Arr(dims))
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Decodes a hosbin reply frame into `(status, Json)` with exactly
/// the shape (and key order) of the JSON protocol's reply for the
/// same request — the bridge the differential oracle compares
/// across. Numbers keep their bits: `f64`s come straight from
/// `from_bits`, so `to_bits` equality against the JSON path's
/// round-trip formatting is exact.
pub fn bin_reply_to_json(opcode: u8, body: &[u8]) -> Result<(u16, Json), BinError> {
    let mut r = WireReader::new(body);
    let (status, value) = match opcode {
        op::ERROR => {
            let status = r.u16("status")?;
            let kind = r.str("kind")?.to_string();
            let message = r.str("message")?.to_string();
            (
                status,
                obj(vec![(
                    "error",
                    obj(vec![
                        ("kind", Json::Str(kind)),
                        ("message", Json::Str(message)),
                    ]),
                )]),
            )
        }
        o if o == op::QUERY | op::REPLY => {
            let version = r.u64("version")?;
            let n = r.u32("result count")? as usize;
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                match r.u8("result tag")? {
                    0 => {
                        let n_out = r.u32("outlying count")? as usize;
                        let mut outlying = Vec::with_capacity(n_out.min(1024));
                        for _ in 0..n_out {
                            let sub = json_subspace(&mut r)?;
                            let od = match r.u8("od flag")? {
                                0 => Json::Null,
                                _ => Json::Num(r.f64("od")?),
                            };
                            outlying.push(obj(vec![("subspace", sub), ("od", od)]));
                        }
                        let n_min = r.u32("minimal count")? as usize;
                        let mut minimal = Vec::with_capacity(n_min.min(1024));
                        for _ in 0..n_min {
                            minimal.push(json_subspace(&mut r)?);
                        }
                        let stats = obj(vec![
                            ("od_evals", Json::Num(r.u64("od_evals")? as f64)),
                            ("pruned_outlier", Json::Num(r.u64("pruned_outlier")? as f64)),
                            (
                                "pruned_non_outlier",
                                Json::Num(r.u64("pruned_non_outlier")? as f64),
                            ),
                        ]);
                        results.push(obj(vec![
                            ("outlying", Json::Arr(outlying)),
                            ("minimal", Json::Arr(minimal)),
                            ("stats", stats),
                        ]));
                    }
                    _ => {
                        let kind = r.str("kind")?.to_string();
                        let message = r.str("message")?.to_string();
                        results.push(obj(vec![(
                            "error",
                            obj(vec![
                                ("kind", Json::Str(kind)),
                                ("message", Json::Str(message)),
                            ]),
                        )]));
                    }
                }
            }
            (
                200,
                obj(vec![
                    ("version", Json::Num(version as f64)),
                    ("results", Json::Arr(results)),
                ]),
            )
        }
        o if o == op::SCAN | op::REPLY => {
            let version = r.u64("version")?;
            let threshold = r.f64("threshold")?;
            let truncated = r.u64("truncated")?;
            let skipped = r.u64("skipped")?;
            let n = r.u32("hit count")? as usize;
            let mut hits = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let id = r.u64("hit id")?;
                let full_od = r.f64("full_od")?;
                let n_min = r.u32("minimal count")? as usize;
                let mut minimal = Vec::with_capacity(n_min.min(1024));
                for _ in 0..n_min {
                    minimal.push(json_subspace(&mut r)?);
                }
                hits.push(obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("full_od", Json::Num(full_od)),
                    ("minimal", Json::Arr(minimal)),
                ]));
            }
            (
                200,
                obj(vec![
                    ("version", Json::Num(version as f64)),
                    ("threshold", Json::Num(threshold)),
                    ("truncated", Json::Num(truncated as f64)),
                    ("skipped", Json::Num(skipped as f64)),
                    ("hits", Json::Arr(hits)),
                ]),
            )
        }
        o if o == op::INSERT | op::REPLY => {
            let version = r.u64("version")?;
            let id = r.u64("id")?;
            (
                200,
                obj(vec![
                    ("version", Json::Num(version as f64)),
                    ("id", Json::Num(id as f64)),
                ]),
            )
        }
        o if o == op::RETIRE | op::REPLY => {
            let version = r.u64("version")?;
            (200, obj(vec![("version", Json::Num(version as f64))]))
        }
        o if o == op::EXPLAIN | op::REPLY => {
            let version = r.u64("version")?;
            let threshold = r.f64("threshold")?;
            let n_dev = r.u32("deviation count")? as usize;
            let mut deviations = Vec::with_capacity(n_dev.min(1024));
            for _ in 0..n_dev {
                deviations.push(obj(vec![
                    ("dim", Json::Num(r.u32("dim")? as f64)),
                    ("value", Json::Num(r.f64("value")?)),
                    ("median", Json::Num(r.f64("median")?)),
                    ("robust_z", Json::Num(r.f64("robust_z")?)),
                ]));
            }
            let n_sub = r.u32("subspace count")? as usize;
            let mut subspaces = Vec::with_capacity(n_sub.min(1024));
            for _ in 0..n_sub {
                let sub = json_subspace(&mut r)?;
                subspaces.push(obj(vec![
                    ("subspace", sub),
                    ("od", Json::Num(r.f64("od")?)),
                    ("margin", Json::Num(r.f64("margin")?)),
                ]));
            }
            (
                200,
                obj(vec![
                    ("version", Json::Num(version as f64)),
                    ("threshold", Json::Num(threshold)),
                    ("deviations", Json::Arr(deviations)),
                    ("subspaces", Json::Arr(subspaces)),
                ]),
            )
        }
        o if o == op::STATS | op::REPLY => {
            let version = r.u64("version")?;
            let live = r.u64("live")?;
            let dim = r.u64("dim")?;
            let threshold = r.f64("threshold")?;
            let threads = r.u64("threads")?;
            let draining = r.u8("draining")? != 0;
            let fields = [
                "queries",
                "specs",
                "batches",
                "max_batch",
                "writes",
                "rejected",
                "http_requests",
                "bin_requests",
            ];
            let mut out = vec![
                ("version".to_string(), Json::Num(version as f64)),
                ("live".to_string(), Json::Num(live as f64)),
                ("dim".to_string(), Json::Num(dim as f64)),
                ("threshold".to_string(), Json::Num(threshold)),
                ("threads".to_string(), Json::Num(threads as f64)),
                ("draining".to_string(), Json::Bool(draining)),
            ];
            for f in fields {
                out.push((f.to_string(), Json::Num(r.u64(f)? as f64)));
            }
            (200, Json::Obj(out))
        }
        o if o == op::HEALTHZ | op::REPLY => {
            let _ = r.u8("ok")?;
            (200, obj(vec![("ok", Json::Bool(true))]))
        }
        o if o == op::SHUTDOWN | op::REPLY => {
            let _ = r.u8("ack")?;
            (200, obj(vec![("draining", Json::Bool(true))]))
        }
        other => return Err(BinError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok((status, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_request_roundtrip_every_variant() {
        let reqs = vec![
            ApiRequest::Query(vec![
                QuerySpec::Member(7),
                QuerySpec::Point(vec![1.5, -0.0, f64::MIN_POSITIVE]),
            ]),
            ApiRequest::Scan { top: 12 },
            ApiRequest::Insert(vec![3.25, 4.75]),
            ApiRequest::Retire(99),
            ApiRequest::ExplainId(3),
            ApiRequest::ExplainPoint(vec![0.1, 0.2]),
            ApiRequest::Stats,
            ApiRequest::Healthz,
            ApiRequest::Shutdown,
        ];
        let mut buf = Vec::new();
        for req in reqs {
            let opcode = encode_bin_request(&req, &mut buf);
            let back = decode_bin_request(opcode, &buf).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn bin_decode_rejects_malformed_bodies_typed() {
        // Unknown opcode.
        assert!(matches!(
            decode_bin_request(0x7e, b""),
            Err(BinError::UnknownOpcode(0x7e))
        ));
        // Trailing garbage after a valid payload.
        let mut buf = Vec::new();
        let opcode = encode_bin_request(&ApiRequest::Retire(1), &mut buf);
        buf.push(0xaa);
        assert!(matches!(
            decode_bin_request(opcode, &buf),
            Err(BinError::BadBody(_))
        ));
        // Declared point larger than the body.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            decode_bin_request(op::INSERT, &buf),
            Err(BinError::BadBody(_))
        ));
        // Zero-spec query.
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        assert!(matches!(
            decode_bin_request(op::QUERY, &buf),
            Err(BinError::BadBody(_))
        ));
        // Spec-count larger than the remaining bytes: rejected before
        // any allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u8(&mut buf, 0);
        assert!(matches!(
            decode_bin_request(op::QUERY, &buf),
            Err(BinError::BadBody(_))
        ));
    }

    #[test]
    fn bin_query_reply_bytes_are_pinned() {
        // Each subspace goes out as its dimension count, then its
        // dimensions ascending, all little-endian u32s.
        use hos_core::{ScoredSubspace, SearchStats};
        let outcome = QueryOutcome {
            outlying: vec![
                ScoredSubspace {
                    subspace: Subspace::from_dims(&[0]),
                    od: Some(2.0),
                },
                ScoredSubspace {
                    subspace: Subspace::from_dims(&[1, 3]),
                    od: None,
                },
            ],
            minimal: vec![Subspace::from_dims(&[0])],
            stats: SearchStats {
                od_evals: 3,
                pruned_outlier: 1,
                pruned_non_outlier: 2,
                ..SearchStats::default()
            },
        };
        let reply = ApiReply::Query {
            version: 9,
            results: vec![Ok(outcome)],
        };
        let mut buf = vec![0xee; 5];
        assert_eq!(encode_bin_reply(&reply, &mut buf), op::QUERY | op::REPLY);
        #[rustfmt::skip]
        let want: &[u8] = &[
            9, 0, 0, 0, 0, 0, 0, 0, // version
            1, 0, 0, 0,             // one result
            0,                      // ok
            2, 0, 0, 0,             // two outlying subspaces
            1, 0, 0, 0, 0, 0, 0, 0, // {0}
            1,                      // with an OD:
            0, 0, 0, 0, 0, 0, 0, 0x40, // 2.0
            2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, // {1,3}
            0,                      // pruned in: no OD
            1, 0, 0, 0,             // one minimal subspace
            1, 0, 0, 0, 0, 0, 0, 0, // {0}
            3, 0, 0, 0, 0, 0, 0, 0, // od_evals
            1, 0, 0, 0, 0, 0, 0, 0, // pruned_outlier
            2, 0, 0, 0, 0, 0, 0, 0, // pruned_non_outlier
        ];
        assert_eq!(buf, want);
    }

    #[test]
    fn bin_error_envelope_roundtrips_to_json_shape() {
        let mut buf = Vec::new();
        encode_bin_error(422, "index", "point 3 is retired", &mut buf);
        let (status, v) = bin_reply_to_json(op::ERROR, &buf).unwrap();
        assert_eq!(status, 422);
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("index"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("point 3 is retired")
        );
    }
}
