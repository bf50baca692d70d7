//! Shared serving state: the miner behind a single-writer/many-reader
//! lock, the cross-request dynamic batcher and the write queue.
//!
//! Concurrency discipline (DESIGN.md §11):
//!
//! * **Reads** (query batches, scans, explains, stats) take the
//!   `RwLock` read side — any number run at once.
//! * **Writes** (insert/retire) go through a bounded queue drained by
//!   ONE writer thread that takes the write side, applies the
//!   mutation, and bumps [`SharedState::version`] *while still
//!   holding the lock*. A reader that loads `version` under the read
//!   lock therefore observes the state exactly as of that version —
//!   the serialization point the concurrency oracle replays against.
//! * **Query batching**: requests enqueue their [`QuerySpec`]s on a
//!   bounded admission queue; one batcher thread collects a window
//!   (first arrival opens it, it closes after `batch_window` or at
//!   `batch_max` specs) and drives the whole window through ONE
//!   [`HosMiner::query_each`] call — the same fan-out the CLI's
//!   `query --ids` uses, so every answer is bit-identical to running
//!   that query alone. In **adaptive** mode (DESIGN.md §13) the batcher
//!   additionally holds a non-full window open for one expected
//!   inter-arrival gap when the EWMA cost model says the wait is
//!   cheaper than executing now — and closes immediately otherwise.
//! * **Per-endpoint weights**: scans run on worker threads under the
//!   read lock, so a burst of `/scan` requests could occupy every
//!   worker and starve point queries. A semaphore sized from the
//!   configured query:scan weights caps concurrent scans; waiting is
//!   bounded, then typed backpressure (429).
//! * **Backpressure**: a full queue rejects immediately with a typed
//!   error the HTTP layer maps to 429; nothing blocks unboundedly.
//! * **Drain**: shutdown flips `draining` (new work is refused with a
//!   503-mapped error), wakes both queues, and the batcher/writer
//!   threads finish everything already admitted before exiting — no
//!   admitted request is ever dropped.

use hos_core::{HosError, HosMiner, ModelFile, QueryOutcome, QuerySpec};
use hos_data::PointId;
use hos_storage::store::SnapshotState;
use hos_storage::{snapshot_search_width, Op, Store};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Why the serving layer refused or failed a request before (or
/// while) the miner saw it.
#[derive(Debug)]
pub enum ServeError {
    /// The admission or write queue is full — try again later (429).
    Backpressure(&'static str),
    /// The server is draining and takes no new work (503).
    Draining,
    /// The executing thread disappeared without replying (500).
    Internal(&'static str),
}

impl ServeError {
    /// Stable tag for the JSON error envelope.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Backpressure(_) => "backpressure",
            ServeError::Draining => "draining",
            ServeError::Internal(_) => "internal",
        }
    }

    /// HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Backpressure(_) => 429,
            ServeError::Draining => 503,
            ServeError::Internal(_) => 500,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backpressure(which) => {
                write!(f, "{which} queue full, retry later")
            }
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

/// One admitted query request: its specs plus the channel its
/// response goes back on. The batcher replies with the version the
/// batch observed and one result per spec, in order.
struct QueryJob {
    specs: Vec<QuerySpec>,
    reply: mpsc::Sender<(u64, Vec<Result<QueryOutcome, HosError>>)>,
}

/// A mutation for the writer thread.
pub enum WriteOp {
    /// Insert a row, returning its new id.
    Insert(Vec<f64>),
    /// Retire a live point.
    Retire(PointId),
}

/// What a successful write produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOk {
    /// The id the inserted row received.
    Inserted(PointId),
    /// The retire completed.
    Retired,
}

struct WriteJob {
    op: WriteOp,
    reply: mpsc::Sender<(u64, Result<WriteOk, HosError>)>,
}

/// A bounded MPSC queue with condvar wakeups: `push` never blocks
/// (full = typed backpressure), consumers wait on the condvar.
struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn push(&self, item: T, which: &'static str) -> Result<(), ServeError> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.len() >= self.cap {
            return Err(ServeError::Backpressure(which));
        }
        q.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Monotonic counters exported by `/stats`.
#[derive(Default)]
pub struct Counters {
    /// Query requests admitted (each may carry several specs).
    pub queries: AtomicU64,
    /// Individual query specs executed.
    pub specs: AtomicU64,
    /// Batches the batcher executed.
    pub batches: AtomicU64,
    /// Largest spec count any single batch reached.
    pub max_batch: AtomicUsize,
    /// Writes applied (insert + retire).
    pub writes: AtomicU64,
    /// Requests refused with backpressure (429).
    pub rejected: AtomicU64,
    /// HTTP requests served, any status.
    pub http_requests: AtomicU64,
    /// hosbin frames served, any outcome.
    pub bin_requests: AtomicU64,
}

/// The attached durable store plus its checkpoint cadence. Only the
/// writer thread touches it after attach, but it lives behind a mutex
/// so `attach_store` can run before the threads exist.
struct StoreSlot {
    store: Option<Store>,
    snapshot_every: u64,
    writes_since_snapshot: u64,
    /// Stream counters (`base`, `oldest`, `rows_consumed`) recovered
    /// with the store, written back verbatim into every snapshot this
    /// server takes — serve does not advance them.
    carry: (u64, u64, u64),
}

/// EWMA of the query inter-arrival gap, updated on every admission.
#[derive(Default)]
struct ArrivalEwma {
    last: Option<Instant>,
    /// Smoothed gap in microseconds; `0.0` = no estimate yet.
    gap_us: f64,
}

/// EWMAs of batch execution cost, updated after every batch.
#[derive(Default)]
struct ExecEwma {
    /// Smoothed wall time of a single-job batch, microseconds.
    single_us: f64,
    /// Smoothed per-job marginal wall time inside a batch.
    marginal_us: f64,
}

/// Counting semaphore capping concurrent scans (per-endpoint queue
/// weights): waiting is bounded, then typed backpressure.
struct ScanGate {
    slots: Mutex<usize>,
    ready: Condvar,
}

/// EWMA smoothing factor for the adaptive-window cost model.
const EWMA_ALPHA: f64 = 0.2;
/// Smallest hold the batcher will bother sleeping for.
const MIN_HOLD_US: f64 = 20.0;
/// How long a scan waits for a permit before 429.
const SCAN_GATE_WAIT: Duration = Duration::from_millis(10);

fn ewma(prev: f64, sample: f64) -> f64 {
    if prev == 0.0 {
        sample
    } else {
        (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * sample
    }
}

/// Everything the HTTP workers, batcher and writer share.
pub struct SharedState {
    miner: RwLock<HosMiner>,
    /// Bumped under the write lock on every successful mutation;
    /// queries report the version they observed.
    version: AtomicU64,
    draining: AtomicBool,
    query_queue: BoundedQueue<QueryJob>,
    write_queue: BoundedQueue<WriteJob>,
    batch_window: Duration,
    batch_max: usize,
    /// Adaptive batch windows: hold a non-full window open only while
    /// the expected marginal wait beats the expected batching gain.
    batch_adaptive: bool,
    arrival: Mutex<ArrivalEwma>,
    exec: Mutex<ExecEwma>,
    scan_gate: ScanGate,
    store: Mutex<StoreSlot>,
    /// Counters for `/stats` and the drain summary.
    pub counters: Counters,
}

impl SharedState {
    /// Wraps a fitted miner for serving. `scan_permits` caps
    /// concurrent scans (see [`SharedState::acquire_scan`]);
    /// `adaptive` selects the adaptive batch-window policy.
    pub fn new(
        miner: HosMiner,
        batch_window: Duration,
        batch_max: usize,
        query_queue_cap: usize,
        write_queue_cap: usize,
        adaptive: bool,
        scan_permits: usize,
    ) -> Arc<SharedState> {
        Arc::new(SharedState {
            miner: RwLock::new(miner),
            version: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            query_queue: BoundedQueue::new(query_queue_cap),
            write_queue: BoundedQueue::new(write_queue_cap),
            batch_window,
            batch_max: batch_max.max(1),
            batch_adaptive: adaptive,
            arrival: Mutex::new(ArrivalEwma::default()),
            exec: Mutex::new(ExecEwma::default()),
            scan_gate: ScanGate {
                slots: Mutex::new(scan_permits.max(1)),
                ready: Condvar::new(),
            },
            store: Mutex::new(StoreSlot {
                store: None,
                snapshot_every: u64::MAX,
                writes_since_snapshot: 0,
                carry: (0, 0, 0),
            }),
            counters: Counters::default(),
        })
    }

    /// Attaches a durable store (`--data-dir`): the writer thread logs
    /// every applied mutation to its WAL and checkpoints a snapshot
    /// every `snapshot_every` writes and at drain. `carry` preserves
    /// the stream counters recovered with the store.
    pub fn attach_store(&self, store: Store, snapshot_every: u64, carry: (u64, u64, u64)) {
        let mut slot = self.store.lock().expect("store lock poisoned");
        *slot = StoreSlot {
            store: Some(store),
            snapshot_every: snapshot_every.max(1),
            writes_since_snapshot: 0,
            carry,
        };
    }

    /// The current dataset version (number of applied writes).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the draining flag and wakes both queue consumers so they
    /// can finish admitted work and exit.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.query_queue.wake_all();
        self.write_queue.wake_all();
        self.scan_gate.ready.notify_all();
    }

    /// Takes one scan permit, waiting at most `SCAN_GATE_WAIT`:
    /// the per-endpoint weight cap that keeps a burst of scans from
    /// occupying every worker thread. Timeout is typed backpressure
    /// (429), drain a typed 503. The permit releases on drop.
    pub fn acquire_scan(&self) -> Result<ScanPermit<'_>, ServeError> {
        let deadline = Instant::now() + SCAN_GATE_WAIT;
        let mut slots = self.scan_gate.slots.lock().expect("scan gate poisoned");
        while *slots == 0 {
            if self.is_draining() {
                return Err(ServeError::Draining);
            }
            let now = Instant::now();
            if now >= deadline {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Backpressure("scan"));
            }
            let (s, _timeout) = self
                .scan_gate
                .ready
                .wait_timeout(slots, deadline - now)
                .expect("scan gate poisoned");
            slots = s;
        }
        *slots -= 1;
        Ok(ScanPermit { state: self })
    }

    /// Runs `f` under the read lock — scans, explains, stats.
    pub fn with_read<R>(&self, f: impl FnOnce(&HosMiner, u64) -> R) -> R {
        let guard = self.miner.read().expect("miner lock poisoned");
        let version = self.version();
        f(&guard, version)
    }

    /// Admits a query request: enqueues its specs and blocks until the
    /// batcher replies. Returns the observed version and one result
    /// per spec, in input order.
    pub fn submit_query(
        &self,
        specs: Vec<QuerySpec>,
    ) -> Result<(u64, Vec<Result<QueryOutcome, HosError>>), ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let (tx, rx) = mpsc::channel();
        self.query_queue
            .push(QueryJob { specs, reply: tx }, "query")
            .inspect_err(|_| {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            })?;
        self.note_arrival();
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        rx.recv()
            .map_err(|_| ServeError::Internal("batcher exited without replying"))
    }

    /// Admits a write: enqueues it for the single writer thread and
    /// blocks until it is applied. Returns the version the write
    /// produced (or, on a rejected write, the version it observed).
    pub fn submit_write(
        &self,
        op: WriteOp,
    ) -> Result<(u64, Result<WriteOk, HosError>), ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let (tx, rx) = mpsc::channel();
        self.write_queue
            .push(WriteJob { op, reply: tx }, "write")
            .inspect_err(|_| {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            })?;
        rx.recv()
            .map_err(|_| ServeError::Internal("writer exited without replying"))
    }

    /// Records one admission for the arrival-rate EWMA.
    fn note_arrival(&self) {
        let mut a = self.arrival.lock().expect("arrival lock poisoned");
        let now = Instant::now();
        if let Some(last) = a.last {
            let gap = now.duration_since(last).as_secs_f64() * 1e6;
            a.gap_us = ewma(a.gap_us, gap);
        }
        a.last = Some(now);
    }

    /// Records one executed batch for the cost EWMAs.
    fn note_exec(&self, njobs: usize, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6;
        let mut e = self.exec.lock().expect("exec lock poisoned");
        e.marginal_us = ewma(e.marginal_us, us / njobs.max(1) as f64);
        if njobs == 1 {
            e.single_us = ewma(e.single_us, us);
        }
    }

    /// The adaptive-window policy: with `njobs` already holding the
    /// window open, is one more expected inter-arrival gap of waiting
    /// cheaper than executing now? Batching gain per coalesced job is
    /// `single - marginal` (one whole batch execution amortized away);
    /// the cost is every held job waiting out the expected gap. Cold
    /// start (no estimates yet) and fixed mode never hold — identical
    /// to the close-when-dry policy the fixed window uses.
    fn profitable_hold(&self, njobs: usize, until_deadline: Duration) -> Option<Duration> {
        if !self.batch_adaptive {
            return None;
        }
        let (single, marginal) = {
            let e = self.exec.lock().expect("exec lock poisoned");
            (e.single_us, e.marginal_us)
        };
        if single <= 0.0 || marginal <= 0.0 {
            return None;
        }
        let gain = single - marginal;
        if gain <= 0.0 {
            return None;
        }
        let expected_wait_us = {
            let a = self.arrival.lock().expect("arrival lock poisoned");
            if a.gap_us <= 0.0 {
                return None;
            }
            let since_last = a.last.map_or(0.0, |l| l.elapsed().as_secs_f64() * 1e6);
            (a.gap_us - since_last).max(MIN_HOLD_US)
        };
        if njobs as f64 * expected_wait_us > gain {
            return None;
        }
        let hold = Duration::from_micros(expected_wait_us.ceil() as u64).min(until_deadline);
        (hold > Duration::ZERO).then_some(hold)
    }

    /// The batcher thread body: collect a window of admitted requests,
    /// execute them as ONE `query_each` batch under the read lock,
    /// scatter the results. Exits once draining AND the queue is empty.
    pub fn batcher_loop(self: &Arc<SharedState>) {
        loop {
            // Block until at least one job is admitted (or drain).
            let mut window: Vec<QueryJob> = Vec::new();
            {
                let mut q = self.query_queue.inner.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        window.push(job);
                        break;
                    }
                    if self.is_draining() {
                        return;
                    }
                    q = self.query_queue.ready.wait(q).expect("queue poisoned");
                }
            }
            // The window is open: keep admitting until it is full, the
            // deadline passes, or the queue runs dry. When the queue
            // is dry, fixed mode closes the window immediately — every
            // waiting client is blocked on a reply, so sleeping out
            // the deadline cannot attract more work, only add latency
            // (on one core it made batched throughput *lower* than
            // unbatched). Adaptive mode instead asks the cost model
            // whether one expected inter-arrival gap of extra wait is
            // cheaper than executing the current window now, and only
            // then sleeps — bounded by the `batch_window` deadline.
            // batch_max == 1 degenerates to unbatched execution.
            let deadline = Instant::now() + self.batch_window;
            let mut nspecs = window[0].specs.len();
            'fill: while nspecs < self.batch_max {
                {
                    let mut q = self.query_queue.inner.lock().expect("queue poisoned");
                    while nspecs < self.batch_max {
                        match q.pop_front() {
                            Some(job) => {
                                nspecs += job.specs.len();
                                window.push(job);
                            }
                            None => break,
                        }
                    }
                    if nspecs >= self.batch_max || self.is_draining() {
                        break 'fill;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break 'fill;
                    }
                    let Some(hold) = self.profitable_hold(window.len(), deadline - now) else {
                        break 'fill;
                    };
                    // Queue is dry and the model says waiting pays:
                    // sleep for one expected arrival (or a wakeup).
                    let (q2, _timeout) = self
                        .query_queue
                        .ready
                        .wait_timeout(q, hold)
                        .expect("queue poisoned");
                    drop(q2);
                }
                // Re-enter the drain loop; if nothing arrived the
                // deadline or the cost model will close the window.
            }
            // Execute the whole window as one batch. `version` is read
            // under the read lock, so it names exactly the state these
            // answers were computed from.
            let all: Vec<QuerySpec> = window.iter().flat_map(|j| j.specs.clone()).collect();
            let started = Instant::now();
            let (version, mut results) =
                self.with_read(|miner, version| (version, miner.query_each(&all).into_iter()));
            self.note_exec(window.len(), started.elapsed());
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters
                .specs
                .fetch_add(all.len() as u64, Ordering::Relaxed);
            self.counters
                .max_batch
                .fetch_max(all.len(), Ordering::Relaxed);
            for job in window {
                let part: Vec<_> = results.by_ref().take(job.specs.len()).collect();
                // A receiver that gave up (client gone) is fine.
                let _ = job.reply.send((version, part));
            }
        }
    }

    /// The single writer thread body: applies queued mutations one at
    /// a time under the write lock, bumping the version before the
    /// lock is released. With a store attached, every applied mutation
    /// is appended to the WAL before the client sees the reply
    /// (apply-then-log; this thread is the only appender, so log order
    /// equals apply order). Exits once draining AND the queue is
    /// empty, checkpointing a final snapshot on the way out.
    pub fn writer_loop(self: &Arc<SharedState>) {
        'serve: loop {
            let job = {
                let mut q = self.write_queue.inner.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.is_draining() {
                        break 'serve;
                    }
                    q = self.write_queue.ready.wait(q).expect("queue poisoned");
                }
            };
            let mut miner = self.miner.write().expect("miner lock poisoned");
            let (res, logged) = match job.op {
                WriteOp::Insert(row) => {
                    let res = miner.insert_point(&row).map(WriteOk::Inserted);
                    (res, Op::Insert(row))
                }
                WriteOp::Retire(id) => (
                    miner.retire_point(id).map(|()| WriteOk::Retired),
                    Op::Retire(id as u64),
                ),
            };
            let version = if res.is_ok() {
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
                self.version.fetch_add(1, Ordering::SeqCst) + 1
            } else {
                self.version()
            };
            drop(miner);
            if res.is_ok() {
                self.log_write(&logged);
            }
            let _ = job.reply.send((version, res));
        }
        self.checkpoint(true);
    }

    /// Appends one applied op to the attached WAL (group-committed per
    /// the store's `sync_every`) and checkpoints when the cadence is
    /// due. An append failure drains the server: refusing new writes
    /// beats acknowledging work that was never made durable.
    fn log_write(self: &Arc<SharedState>, op: &Op) {
        let due = {
            let mut slot = self.store.lock().expect("store lock poisoned");
            let Some(store) = slot.store.as_mut() else {
                return;
            };
            if let Err(e) = store.append(op) {
                eprintln!("hos-serve: wal append failed, draining: {e}");
                drop(slot);
                self.start_drain();
                return;
            }
            slot.writes_since_snapshot += 1;
            slot.writes_since_snapshot >= slot.snapshot_every
        };
        if due {
            self.checkpoint(false);
        }
    }

    /// Writes a snapshot of the current miner into the attached store
    /// (no-op without one). `final_sync` additionally fsyncs the WAL
    /// tail even if the snapshot fails — the drain path. The write
    /// counter restarts only on success, so after a failed snapshot
    /// the next write retries the checkpoint.
    pub fn checkpoint(self: &Arc<SharedState>, final_sync: bool) {
        let mut slot = self.store.lock().expect("store lock poisoned");
        let (base, oldest, rows_consumed) = slot.carry;
        let Some(store) = slot.store.as_mut() else {
            return;
        };
        let miner = self.miner.read().expect("miner lock poisoned");
        let model_text = ModelFile::from_miner(&miner).to_text();
        let result = store.snapshot(&SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&model_text),
            base,
            oldest,
            rows_consumed,
            search_width: snapshot_search_width(&miner),
        });
        drop(miner);
        let snapshotted = match result {
            Ok(_) => {
                println!("hos-serve snapshot: seq {}", store.last_seq());
                true
            }
            Err(e) => {
                eprintln!("hos-serve: snapshot failed: {e}");
                false
            }
        };
        if final_sync {
            if let Err(e) = store.sync() {
                eprintln!("hos-serve: wal sync failed: {e}");
            }
        }
        if snapshotted {
            slot.writes_since_snapshot = 0;
        }
    }
}

/// RAII scan permit: releases its `ScanGate` slot on drop.
pub struct ScanPermit<'a> {
    state: &'a SharedState,
}

impl Drop for ScanPermit<'_> {
    fn drop(&mut self) {
        let mut slots = self
            .state
            .scan_gate
            .slots
            .lock()
            .expect("scan gate poisoned");
        *slots += 1;
        drop(slots);
        self.state.scan_gate.ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_core::{HosMinerConfig, ThresholdPolicy};
    use hos_data::Dataset;
    use std::thread;

    fn small_miner() -> HosMiner {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let x = (i % 7) as f64;
                let y = (i % 5) as f64;
                vec![x, y, x + y]
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        HosMiner::fit(
            ds,
            HosMinerConfig {
                k: 3,
                threshold: ThresholdPolicy::Fixed(6.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap()
    }

    fn spawn_state(batch_max: usize) -> (Arc<SharedState>, Vec<thread::JoinHandle<()>>) {
        let state = SharedState::new(
            small_miner(),
            Duration::from_millis(2),
            batch_max,
            64,
            64,
            true,
            1,
        );
        let b = {
            let s = Arc::clone(&state);
            thread::spawn(move || s.batcher_loop())
        };
        let w = {
            let s = Arc::clone(&state);
            thread::spawn(move || s.writer_loop())
        };
        (state, vec![b, w])
    }

    fn drain(state: &Arc<SharedState>, handles: Vec<thread::JoinHandle<()>>) {
        state.start_drain();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batched_queries_match_direct_query_each() {
        let (state, handles) = spawn_state(64);
        let solo = state.with_read(|m, _| m.query_id(0).unwrap());
        let (version, results) = state
            .submit_query(vec![QuerySpec::Member(0), QuerySpec::Member(1)])
            .unwrap();
        assert_eq!(version, 0);
        assert_eq!(results.len(), 2);
        let got = results[0].as_ref().unwrap();
        assert_eq!(got.outlying, solo.outlying);
        assert_eq!(got.minimal, solo.minimal);
        drain(&state, handles);
    }

    #[test]
    fn writes_bump_version_and_queries_observe_it() {
        let (state, handles) = spawn_state(64);
        let (v1, res) = state
            .submit_write(WriteOp::Insert(vec![100.0, 100.0, 100.0]))
            .unwrap();
        assert_eq!(v1, 1);
        let id = match res.unwrap() {
            WriteOk::Inserted(id) => id,
            other => panic!("expected insert, got {other:?}"),
        };
        let (v2, results) = state.submit_query(vec![QuerySpec::Member(id)]).unwrap();
        assert_eq!(v2, 1);
        assert!(results[0].is_ok());
        let (v3, res) = state.submit_write(WriteOp::Retire(id)).unwrap();
        assert_eq!(v3, 2);
        assert!(res.is_ok());
        // A failed write does not bump the version.
        let (v4, res) = state.submit_write(WriteOp::Retire(id)).unwrap();
        assert_eq!(v4, 2);
        assert!(res.is_err());
        drain(&state, handles);
    }

    #[test]
    fn failed_snapshot_is_retried_on_the_next_write() {
        let dir = std::env::temp_dir().join(format!("hos-serve-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = Store::open(
            &dir,
            hos_storage::StoreConfig {
                sync_every: 1,
                meta: String::new(),
            },
        )
        .unwrap();
        let (state, handles) = spawn_state(64);
        state.attach_store(store, 2, (0, 0, 0));
        let snapshots = || {
            std::fs::read_dir(&dir).map_or(0, |entries| {
                entries
                    .filter(|e| {
                        let name = e.as_ref().unwrap().file_name();
                        name.to_str().unwrap().starts_with("snap-")
                    })
                    .count()
            })
        };
        let pending = || state.store.lock().unwrap().writes_since_snapshot;
        let insert = |x: f64| {
            let (_, res) = state.submit_write(WriteOp::Insert(vec![x, x, x])).unwrap();
            assert!(res.is_ok());
        };
        // The store's directory vanishes: the checkpoint due at the
        // second write fails, and the writes stay counted.
        std::fs::remove_dir_all(&dir).unwrap();
        insert(50.0);
        insert(51.0);
        assert_eq!(pending(), 2, "a failed snapshot must not restart the count");
        assert_eq!(snapshots(), 0);
        // Once the directory is back, the very next write retries.
        std::fs::create_dir_all(&dir).unwrap();
        insert(52.0);
        assert_eq!(snapshots(), 1);
        assert_eq!(pending(), 0);
        drain(&state, handles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_refuses_new_work_but_serves_admitted() {
        let (state, handles) = spawn_state(64);
        state.start_drain();
        assert!(matches!(
            state.submit_query(vec![QuerySpec::Member(0)]),
            Err(ServeError::Draining)
        ));
        assert!(matches!(
            state.submit_write(WriteOp::Retire(0)),
            Err(ServeError::Draining)
        ));
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn full_query_queue_is_backpressure_not_blocking() {
        // No batcher thread running: the queue only fills.
        let state = SharedState::new(small_miner(), Duration::from_millis(1), 8, 2, 2, true, 1);
        let (tx, _rx) = mpsc::channel();
        for _ in 0..2 {
            state
                .query_queue
                .push(
                    QueryJob {
                        specs: vec![QuerySpec::Member(0)],
                        reply: tx.clone(),
                    },
                    "query",
                )
                .unwrap();
        }
        assert!(matches!(
            state.submit_query(vec![QuerySpec::Member(0)]),
            Err(ServeError::Backpressure("query"))
        ));
        assert_eq!(state.counters.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        let (state, handles) = spawn_state(16);
        let mut joins = Vec::new();
        for i in 0..8 {
            let s = Arc::clone(&state);
            joins.push(thread::spawn(move || {
                let (_, results) = s.submit_query(vec![QuerySpec::Member(i % 4)]).unwrap();
                assert_eq!(results.len(), 1);
                assert!(results[0].is_ok());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let batches = state.counters.batches.load(Ordering::Relaxed);
        let specs = state.counters.specs.load(Ordering::Relaxed);
        assert_eq!(specs, 8);
        assert!((1..=8).contains(&batches));
        drain(&state, handles);
    }

    #[test]
    fn scan_gate_bounds_concurrency_then_backpressures() {
        let state = SharedState::new(small_miner(), Duration::from_millis(1), 8, 8, 8, true, 1);
        let permit = state.acquire_scan().unwrap();
        // The single slot is held: a second acquire waits out the
        // bounded gate and comes back as typed backpressure.
        match state.acquire_scan() {
            Err(ServeError::Backpressure("scan")) => {}
            Err(other) => panic!("expected scan backpressure, got {other:?}"),
            Ok(_) => panic!("expected scan backpressure, got a permit"),
        }
        assert_eq!(state.counters.rejected.load(Ordering::Relaxed), 1);
        drop(permit);
        // Slot released on drop: acquire succeeds again.
        let permit = state.acquire_scan().unwrap();
        drop(permit);
        // Draining turns waiting into a typed 503.
        let held = state.acquire_scan().unwrap();
        state.start_drain();
        assert!(matches!(state.acquire_scan(), Err(ServeError::Draining)));
        drop(held);
    }

    #[test]
    fn adaptive_policy_holds_only_when_the_model_says_it_pays() {
        let state = SharedState::new(small_miner(), Duration::from_millis(2), 8, 8, 8, true, 1);
        let budget = Duration::from_millis(2);
        // Cold start: no estimates, never hold (same as fixed mode).
        assert!(state.profitable_hold(1, budget).is_none());
        // Teach the model: single-job batches cost ~500us, marginal
        // ~50us, arrivals every ~100us → holding 1 job for ~100us
        // saves ~450us. Profitable.
        {
            let mut e = state.exec.lock().unwrap();
            e.single_us = 500.0;
            e.marginal_us = 50.0;
            let mut a = state.arrival.lock().unwrap();
            a.gap_us = 100.0;
            a.last = Some(Instant::now());
        }
        let hold = state.profitable_hold(1, budget).expect("should hold");
        assert!(hold <= budget);
        // 20 jobs already waiting: 20 x 100us of added latency beats
        // the 450us gain — close the window instead.
        assert!(state.profitable_hold(20, budget).is_none());
        // Arrivals slower than the gain: never hold.
        {
            let mut a = state.arrival.lock().unwrap();
            a.gap_us = 10_000.0;
            a.last = Some(Instant::now());
        }
        assert!(state.profitable_hold(1, budget).is_none());
        // Fixed mode ignores the model entirely.
        let fixed = SharedState::new(small_miner(), Duration::from_millis(2), 8, 8, 8, false, 1);
        {
            let mut e = fixed.exec.lock().unwrap();
            e.single_us = 500.0;
            e.marginal_us = 50.0;
            let mut a = fixed.arrival.lock().unwrap();
            a.gap_us = 100.0;
            a.last = Some(Instant::now());
        }
        assert!(fixed.profitable_hold(1, budget).is_none());
    }

    #[test]
    fn adaptive_batcher_still_answers_everything_under_load() {
        let (state, handles) = spawn_state(16);
        // Warm the cost model with sequential singles, then hammer.
        for _ in 0..4 {
            let (_, r) = state.submit_query(vec![QuerySpec::Member(0)]).unwrap();
            assert!(r[0].is_ok());
        }
        let mut joins = Vec::new();
        for i in 0..16 {
            let s = Arc::clone(&state);
            joins.push(thread::spawn(move || {
                let (_, results) = s.submit_query(vec![QuerySpec::Member(i % 4)]).unwrap();
                assert_eq!(results.len(), 1);
                assert!(results[0].is_ok());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(state.counters.specs.load(Ordering::Relaxed), 20);
        drain(&state, handles);
    }
}
