//! The serving front end: thread-per-core accept workers, protocol
//! negotiation, route dispatch.
//!
//! Each worker thread owns the connection it accepted end to end.
//! The first byte of a connection selects the protocol
//! ([`tinyhttp::Conn::sniff`]): HTTP/1.1 keep-alive, or `hosbin`
//! length-prefixed binary frames — one listener, two wire formats.
//! Both loops decode into [`crate::codec::ApiRequest`], run
//! [`crate::codec::execute`] (the single shared endpoint path) and
//! encode with their protocol's writer into reusable per-worker
//! scratch buffers; responses go out through the connection's
//! reusable write buffer ([`tinyhttp::Conn::reply`] /
//! [`tinyhttp::Conn::write_frame`]) — the steady-state request loop
//! allocates no response `String`.
//!
//! Error mapping, uniform across routes and protocols (JSON:
//! `{"error":{"kind":K,"message":M}}`; hosbin: an `0xFF` frame with
//! `u16 status` + kind + message):
//!
//! | source                      | status | kind                  |
//! |-----------------------------|--------|-----------------------|
//! | malformed HTTP              | per [`tinyhttp::HttpError::status`] | per [`tinyhttp::HttpError::kind`] |
//! | malformed hosbin frame      | per `BinError::status`    | per `BinError::kind`    |
//! | malformed JSON body         | 400    | `bad_json`            |
//! | missing/invalid fields      | 400    | `bad_request`         |
//! | `HosError::Query`/`Config`  | 400    | `query` / `config`    |
//! | `HosError::Index`/`Data`    | 422    | `index` / `data`      |
//! | queue full / scan gate      | 429    | `backpressure`        |
//! | draining                    | 503    | `draining`            |
//! | unknown path / opcode       | 404    | `not_found` / `unknown_opcode` |
//! | wrong method                | 405    | `method_not_allowed`  |

use crate::codec::{self, ApiError, ApiRequest};
use crate::json::Json;
use crate::state::SharedState;
use hos_core::{HosMiner, QuerySpec};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use tinyhttp::{Conn, HttpServer, Protocol, Request};

/// Tuning knobs of one server instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads; `0` = one per available core.
    pub workers: usize,
    /// Longest the batcher holds a window open after the first
    /// request arrives (hard cap in adaptive mode too).
    pub batch_window: Duration,
    /// Maximum specs per batch; `1` disables cross-request batching.
    pub batch_max: usize,
    /// Admission queue capacity (requests, not specs).
    pub query_queue_cap: usize,
    /// Write queue capacity.
    pub write_queue_cap: usize,
    /// Adaptive batch windows: hold a dry window open only while the
    /// arrival/cost model says the wait beats executing now. `false`
    /// restores the fixed close-when-dry window.
    pub adaptive_window: bool,
    /// Relative weight of point queries when splitting worker
    /// capacity between endpoints (see `scan_weight`).
    pub query_weight: usize,
    /// Relative weight of scans: at most
    /// `max(1, workers * scan_weight / (query_weight + scan_weight))`
    /// scans run concurrently, so a scan burst cannot occupy every
    /// worker and starve point queries.
    pub scan_weight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            batch_window: Duration::from_millis(2),
            batch_max: 64,
            query_queue_cap: 1024,
            write_queue_cap: 1024,
            adaptive_window: true,
            query_weight: 3,
            scan_weight: 1,
        }
    }
}

/// Final tallies printed by the drain summary.
#[derive(Clone, Copy, Debug)]
pub struct ServeReport {
    /// HTTP requests served (any status).
    pub http_requests: u64,
    /// hosbin frames served (any outcome).
    pub bin_requests: u64,
    /// Query specs executed.
    pub specs: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: usize,
    /// Writes applied.
    pub writes: u64,
    /// Requests rejected with backpressure.
    pub rejected: u64,
}

/// A running server: bound address plus the handles needed to drain
/// and join it. Dropping without [`Server::join`] leaks the threads —
/// call `join` (tests, bench) or block forever in `main`.
pub struct Server {
    http: Arc<HttpServer>,
    state: Arc<SharedState>,
    addr: SocketAddr,
    workers: Vec<thread::JoinHandle<()>>,
    batcher: thread::JoinHandle<()>,
    writer: thread::JoinHandle<()>,
    done_rx: mpsc::Receiver<()>,
}

impl Server {
    /// Binds, spawns the worker/batcher/writer threads and returns
    /// immediately. `miner` must already be fitted.
    pub fn start(miner: HosMiner, config: &ServeConfig) -> io::Result<Server> {
        Server::start_with_store(miner, config, None)
    }

    /// Like [`Server::start`], but with a durable store attached
    /// before any request can be admitted, so no applied write ever
    /// misses the WAL. `store` is `(store, snapshot_every, carry)` as
    /// for [`SharedState::attach_store`].
    pub fn start_with_store(
        miner: HosMiner,
        config: &ServeConfig,
        store: Option<(hos_storage::Store, u64, (u64, u64, u64))>,
    ) -> io::Result<Server> {
        let workers = if config.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let scan_permits = (workers * config.scan_weight)
            .checked_div(config.query_weight + config.scan_weight)
            .unwrap_or(workers)
            .max(1);
        let state = SharedState::new(
            miner,
            config.batch_window,
            config.batch_max,
            config.query_queue_cap,
            config.write_queue_cap,
            config.adaptive_window,
            scan_permits,
        );
        if let Some((s, snapshot_every, carry)) = store {
            state.attach_store(s, snapshot_every, carry);
        }
        let http = Arc::new(HttpServer::bind(config.addr.as_str())?);
        let addr = http.local_addr();
        let (done_tx, done_rx) = mpsc::channel::<()>();

        let batcher = {
            let s = Arc::clone(&state);
            thread::Builder::new()
                .name("hos-serve-batch".into())
                .spawn(move || s.batcher_loop())?
        };
        let writer = {
            let s = Arc::clone(&state);
            thread::Builder::new()
                .name("hos-serve-write".into())
                .spawn(move || s.writer_loop())?
        };
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let http = Arc::clone(&http);
            let state = Arc::clone(&state);
            let done = done_tx.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("hos-serve-{i}"))
                    .spawn(move || worker_loop(&http, &state, &done))?,
            );
        }
        Ok(Server {
            http,
            state,
            addr,
            workers: handles,
            batcher,
            writer,
            done_rx,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests and the bench reach in for counters).
    pub fn state(&self) -> &Arc<SharedState> {
        &self.state
    }

    /// Blocks until some client POSTs `/shutdown`, then drains and
    /// returns the final tallies.
    pub fn wait(self) -> ServeReport {
        // A worker signals on the done channel once drain starts; the
        // channel also closes if every worker dies, so a wedged server
        // cannot block forever here.
        let _ = self.done_rx.recv();
        self.join()
    }

    /// Initiates drain from the host process (equivalent to
    /// `/shutdown` but in-process — the bench uses this).
    pub fn initiate_shutdown(&self) {
        self.state.start_drain();
        self.http.shutdown();
    }

    /// Drains and joins everything: stop accepting, finish in-flight
    /// connections and queued work, join all threads.
    pub fn join(self) -> ServeReport {
        self.state.start_drain();
        self.http.shutdown();
        for w in self.workers {
            let _ = w.join();
        }
        // Workers are gone, so nothing can enqueue; the queues drain
        // to empty and both loops exit.
        let _ = self.batcher.join();
        let _ = self.writer.join();
        let c = &self.state.counters;
        ServeReport {
            http_requests: c.http_requests.load(Ordering::Relaxed),
            bin_requests: c.bin_requests.load(Ordering::Relaxed),
            specs: c.specs.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
        }
    }
}

/// One worker: accept → sniff → per-protocol keep-alive loop. The
/// response body buffers are the worker's reusable scratch; the
/// connection's own write buffer stages heads/frames — the
/// steady-state loop allocates nothing per response.
fn worker_loop(http: &HttpServer, state: &Arc<SharedState>, done: &mpsc::Sender<()>) {
    let mut json_scratch = String::with_capacity(4 * 1024);
    let mut frame_body = Vec::with_capacity(4 * 1024);
    let mut frame_out = Vec::with_capacity(4 * 1024);
    loop {
        let mut conn = match http.accept() {
            Ok(Some(conn)) => conn,
            Ok(None) => return, // shutdown
            Err(_) => continue,
        };
        match conn.sniff() {
            Ok(Protocol::Http) => serve_conn_http(conn, state, &mut json_scratch, http, done),
            Ok(Protocol::Hosbin) => {
                serve_conn_bin(conn, state, &mut frame_body, &mut frame_out, http, done)
            }
            // Bad preamble or dead socket: close silently (nothing
            // useful is writable before a protocol is agreed).
            Err(_) => {}
        }
    }
}

fn serve_conn_http(
    mut conn: Conn,
    state: &Arc<SharedState>,
    scratch: &mut String,
    http: &HttpServer,
    done: &mpsc::Sender<()>,
) {
    loop {
        match conn.next_request() {
            Ok(Some(req)) => {
                state.counters.http_requests.fetch_add(1, Ordering::Relaxed);
                let keep = req.keep_alive;
                let (status, shutdown) = dispatch_http(&req, state, scratch);
                let close = !keep || shutdown;
                let _ = conn.reply(status, "application/json", scratch.as_bytes(), close);
                if shutdown {
                    // Drain: stop accepting (this worker and all
                    // others), wake the main thread, finish this
                    // connection.
                    http.shutdown();
                    let _ = done.send(());
                    return;
                }
                if close {
                    return;
                }
            }
            Ok(None) => return, // clean close between requests
            Err(e) => {
                // Malformed bytes: answer with the typed error when
                // the socket is still writable, then close. Never
                // panics — the protocol property tests pin this.
                let err = ApiError {
                    status: e.status(),
                    kind: e.kind(),
                    message: e.to_string(),
                };
                codec::encode_json_error(&err, scratch);
                let _ = conn.reply(err.status, "application/json", scratch.as_bytes(), true);
                return;
            }
        }
    }
}

/// Routes one HTTP request through the shared codec path, leaving
/// the response body in `scratch`. Returns `(status, shutdown_ack)`.
fn dispatch_http(req: &Request, state: &Arc<SharedState>, scratch: &mut String) -> (u16, bool) {
    match parse_http_request(req) {
        Ok(api) => {
            let shutdown = matches!(api, ApiRequest::Shutdown);
            match codec::execute(state, api) {
                Ok(reply) => {
                    codec::encode_json_reply(&reply, scratch);
                    (200, shutdown)
                }
                Err(e) => {
                    codec::encode_json_error(&e, scratch);
                    (e.status, false)
                }
            }
        }
        Err(e) => {
            codec::encode_json_error(&e, scratch);
            (e.status, false)
        }
    }
}

/// The hosbin connection loop: read frame → decode → execute (same
/// [`codec::execute`] as HTTP) → encode reply into the reusable
/// frame buffer. Recoverable decode errors (unknown opcode, bad
/// body) answer a typed `0xFF` frame and keep the connection; framing
/// and transport errors answer (best effort) and close.
fn serve_conn_bin(
    mut conn: Conn,
    state: &Arc<SharedState>,
    body: &mut Vec<u8>,
    out: &mut Vec<u8>,
    http: &HttpServer,
    done: &mpsc::Sender<()>,
) {
    loop {
        match conn.next_frame(body) {
            Ok(None) => return, // clean close at a frame boundary
            Ok(Some(opcode)) => {
                state.counters.bin_requests.fetch_add(1, Ordering::Relaxed);
                match codec::decode_bin_request(opcode, body) {
                    Ok(api) => {
                        let shutdown = matches!(api, ApiRequest::Shutdown);
                        let reply_op = match codec::execute(state, api) {
                            Ok(reply) => codec::encode_bin_reply(&reply, out),
                            Err(e) => {
                                codec::encode_bin_error(e.status, e.kind, &e.message, out);
                                codec::op::ERROR
                            }
                        };
                        if conn.write_frame(reply_op, out).is_err() {
                            return;
                        }
                        if shutdown && reply_op != codec::op::ERROR {
                            http.shutdown();
                            let _ = done.send(());
                            return;
                        }
                    }
                    Err(e) => {
                        codec::encode_bin_error(e.status(), e.kind(), &e.to_string(), out);
                        if conn.write_frame(codec::op::ERROR, out).is_err() || !e.recoverable() {
                            return;
                        }
                    }
                }
            }
            Err(e) => {
                // Framing/transport error: best-effort typed error
                // frame, then close (the stream position is lost).
                codec::encode_bin_error(e.status(), e.kind(), &e.to_string(), out);
                let _ = conn.write_frame(codec::op::ERROR, out);
                return;
            }
        }
    }
}

fn bad_request(msg: &str) -> ApiError {
    ApiError::bad_request(msg)
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text = req.body_utf8();
    Json::parse(&text).map_err(|e| ApiError::bad_json(e.to_string()))
}

fn parse_point(v: &Json) -> Result<Vec<f64>, ApiError> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad_request("point must be an array of numbers"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad_request("point must be an array of numbers"))
        })
        .collect()
}

/// `{"id":N}` | `{"ids":[..]}` | `{"point":[..]}` | `{"points":[[..]]}`,
/// mixable in one request; specs run in field order.
fn parse_specs(body: &Json) -> Result<Vec<QuerySpec>, ApiError> {
    let mut specs = Vec::new();
    if let Some(v) = body.get("id") {
        specs
            .push(QuerySpec::Member(v.as_usize().ok_or_else(|| {
                bad_request("id must be a non-negative integer")
            })?));
    }
    if let Some(v) = body.get("ids") {
        let arr = v
            .as_array()
            .ok_or_else(|| bad_request("ids must be an array of integers"))?;
        for x in arr {
            specs.push(QuerySpec::Member(x.as_usize().ok_or_else(|| {
                bad_request("ids must be an array of non-negative integers")
            })?));
        }
    }
    if let Some(v) = body.get("point") {
        specs.push(QuerySpec::Point(parse_point(v)?));
    }
    if let Some(v) = body.get("points") {
        let arr = v
            .as_array()
            .ok_or_else(|| bad_request("points must be an array of arrays"))?;
        for p in arr {
            specs.push(QuerySpec::Point(parse_point(p)?));
        }
    }
    if specs.is_empty() {
        return Err(bad_request("query needs id, ids, point or points"));
    }
    Ok(specs)
}

/// Parses one HTTP request (route + JSON body) into the shared
/// [`ApiRequest`] model.
fn parse_http_request(req: &Request) -> Result<ApiRequest, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(ApiRequest::Healthz),
        ("GET", "/stats") => Ok(ApiRequest::Stats),
        ("POST", "/query") => {
            let body = parse_body(req)?;
            Ok(ApiRequest::Query(parse_specs(&body)?))
        }
        ("POST", "/scan") => {
            let body = parse_body(req)?;
            let top = match body.get("top") {
                None => 5,
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| bad_request("top must be a non-negative integer"))?,
            };
            Ok(ApiRequest::Scan { top })
        }
        ("POST", "/insert") => {
            let body = parse_body(req)?;
            match body.get("row") {
                Some(v) => Ok(ApiRequest::Insert(parse_point(v)?)),
                None => Err(bad_request("insert needs a row array")),
            }
        }
        ("POST", "/retire") => {
            let body = parse_body(req)?;
            match body.get("id").and_then(Json::as_usize) {
                Some(id) => Ok(ApiRequest::Retire(id)),
                None => Err(bad_request("retire needs an integer id")),
            }
        }
        ("POST", "/explain") => {
            let body = parse_body(req)?;
            if let Some(v) = body.get("id") {
                let id = v
                    .as_usize()
                    .ok_or_else(|| bad_request("id must be a non-negative integer"))?;
                Ok(ApiRequest::ExplainId(id))
            } else if let Some(v) = body.get("point") {
                Ok(ApiRequest::ExplainPoint(parse_point(v)?))
            } else {
                Err(bad_request("explain needs id or point"))
            }
        }
        ("POST", "/shutdown") => Ok(ApiRequest::Shutdown),
        ("GET" | "POST", _) => Err(ApiError {
            status: 404,
            kind: "not_found",
            message: format!("no route {}", req.path),
        }),
        (m, _) => Err(ApiError {
            status: 405,
            kind: "method_not_allowed",
            message: format!("method {m} not supported"),
        }),
    }
}
