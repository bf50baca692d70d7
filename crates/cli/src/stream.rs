//! The `stream` subcommand and the state machine it shares with
//! recovery.
//!
//! `stream` used to interleave its window logic with I/O inside one
//! loop; durability needs the state transitions separated out, because
//! crash recovery replays the *same* transitions from the WAL. The
//! contract is log-then-apply: the driver appends an [`Op`] to the WAL
//! (when one is configured) and then feeds it to
//! [`StreamState::apply`]; recovery feeds the recorded ops to the same
//! `apply`. One code path for both directions is what makes the
//! recovered process bit-identical to an uninterrupted twin — there is
//! no second implementation to drift.

use crate::args::Args;
use crate::commands::CmdResult;
use crate::tuning::miner_config;
use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::table::fmt_f64;
use hos_data::Dataset;
use hos_storage::store::SnapshotState;
use hos_storage::{miner_from_snapshot, snapshot_search_width, Op, Recovery, Store};

/// A state transition worth reporting to the console.
#[derive(Debug, PartialEq)]
pub enum StreamEvent {
    /// The bootstrap window filled and the initial fit ran.
    Bootstrapped { threshold: f64 },
    /// The tombstone valve fired: ids renumbered, window refitted.
    Compacted { tombstones: u64 },
}

/// The full mutable state of a `stream` run. All transitions go
/// through [`StreamState::apply`].
pub struct StreamState {
    pub config: HosMinerConfig,
    pub window: usize,
    pub reestimate: bool,
    pub miner: Option<HosMiner>,
    /// Rows buffered before the first fit.
    bootstrap: Vec<Vec<f64>>,
    /// Stream row number of engine id 0 (compaction shifts it).
    pub base: u64,
    /// Next engine id FIFO retirement will evict.
    pub oldest: u64,
    /// Input rows consumed (= `Insert` ops applied) since stream
    /// start. A restart skips this many input rows.
    pub rows_consumed: u64,
    pub inserts: u64,
    pub retires: u64,
    pub compactions: u64,
}

impl StreamState {
    pub fn new(config: HosMinerConfig, window: usize, reestimate: bool) -> Self {
        StreamState {
            config,
            window,
            reestimate,
            miner: None,
            bootstrap: Vec::new(),
            base: 0,
            oldest: 0,
            rows_consumed: 0,
            inserts: 0,
            retires: 0,
            compactions: 0,
        }
    }

    /// Reconstructs the state a crashed (or cleanly stopped) run had:
    /// snapshot → miner, then WAL tail → `apply`, op by op.
    pub fn from_recovery(
        config: HosMinerConfig,
        window: usize,
        reestimate: bool,
        recovery: &Recovery,
    ) -> Result<Self, String> {
        let mut state = StreamState::new(config, window, reestimate);
        if let Some(snap) = &recovery.snapshot {
            let m = snap.meta();
            state.miner = Some(
                miner_from_snapshot(snap, &config).map_err(|e| format!("recovering miner: {e}"))?,
            );
            state.base = m.base;
            state.oldest = m.oldest;
            state.rows_consumed = m.rows_consumed;
        }
        for (_, op) in &recovery.ops {
            state.apply(op)?;
        }
        Ok(state)
    }

    /// Applies one logged transition. Used identically by the live
    /// path (after logging) and by recovery replay.
    pub fn apply(&mut self, op: &Op) -> Result<Option<StreamEvent>, String> {
        match op {
            Op::Insert(row) => {
                self.rows_consumed += 1;
                match &mut self.miner {
                    None => self.bootstrap.push(row.clone()),
                    Some(m) => {
                        m.insert_point(row).map_err(|e| e.to_string())?;
                        self.inserts += 1;
                    }
                }
                Ok(None)
            }
            Op::Bootstrap => {
                if self.miner.is_some() {
                    return Err("bootstrap op after the miner was already fitted".into());
                }
                let ds = Dataset::from_rows(&self.bootstrap).map_err(|e| e.to_string())?;
                self.bootstrap.clear();
                let m = HosMiner::fit(ds, self.config).map_err(|e| e.to_string())?;
                let threshold = m.threshold();
                self.miner = Some(m);
                Ok(Some(StreamEvent::Bootstrapped { threshold }))
            }
            Op::Retire(id) => {
                let m = self.miner.as_mut().ok_or("retire op before bootstrap")?;
                m.retire_point(*id as usize).map_err(|e| e.to_string())?;
                self.oldest = id + 1;
                self.retires += 1;
                Ok(None)
            }
            Op::Compact => {
                // Move the dataset out of the retiring miner and
                // compact it in place: `Dataset::compact` is a pure
                // order-preserving renumbering (copy_within +
                // truncate), so peak memory stays at ONE copy of the
                // window — the old clone-then-compact doubled it at
                // exactly the moment the valve fired.
                let m = self.miner.take().ok_or("compact op before bootstrap")?;
                let threshold = m.threshold();
                let mut ds = m.into_dataset();
                ds.compact();
                let tombstones = self.oldest;
                self.base += self.oldest;
                // Keep the current threshold unless --reestimate
                // re-derives it at each report anyway.
                let refit_config = if self.reestimate {
                    self.config
                } else {
                    HosMinerConfig {
                        threshold: ThresholdPolicy::Fixed(threshold),
                        ..self.config
                    }
                };
                self.miner = Some(HosMiner::fit(ds, refit_config).map_err(|e| e.to_string())?);
                self.oldest = 0;
                self.compactions += 1;
                Ok(Some(StreamEvent::Compacted { tombstones }))
            }
            Op::Reestimate => {
                let m = self
                    .miner
                    .as_mut()
                    .ok_or("reestimate op before bootstrap")?;
                m.reestimate_threshold().map_err(|e| e.to_string())?;
                Ok(None)
            }
        }
    }

    /// Drives one input row through the decision logic, logging every
    /// resulting op through `log` *before* applying it. Returns the
    /// events worth printing.
    pub fn consume_row(
        &mut self,
        row: Vec<f64>,
        log: &mut dyn FnMut(&Op) -> Result<(), String>,
    ) -> Result<Vec<StreamEvent>, String> {
        let mut events = Vec::new();
        let mut step = |state: &mut Self, op: Op| -> Result<Option<StreamEvent>, String> {
            log(&op)?;
            state.apply(&op)
        };
        events.extend(step(self, Op::Insert(row))?);
        if self.miner.is_none() && self.bootstrap.len() == self.window {
            events.extend(step(self, Op::Bootstrap)?);
        }
        if self.miner.is_some() {
            while self.live_len() > self.window {
                events.extend(step(self, Op::Retire(self.oldest))?);
            }
            // Bounded memory: compact once tombstones outnumber the
            // live window 3:1. Retirement is strictly FIFO, so the
            // tombstones are exactly the id prefix [0, oldest).
            let ds = self.miner.as_ref().expect("fitted").engine().dataset();
            if ds.dead_count() > 3 * ds.live_len() {
                events.extend(step(self, Op::Compact)?);
            }
        }
        Ok(events)
    }

    pub fn live_len(&self) -> usize {
        self.miner.as_ref().map_or(0, |m| m.live_len())
    }

    /// Rows buffered while waiting for the window to fill.
    pub fn bootstrap_len(&self) -> usize {
        self.bootstrap.len()
    }

    /// Writes a snapshot of the current state into `store` and rotates
    /// the WAL. Only meaningful post-fit (the pre-fit state is fully
    /// reconstructible from the WAL alone).
    pub fn snapshot_into(&self, store: &mut Store) -> Result<(), String> {
        let Some(m) = &self.miner else {
            return Ok(());
        };
        let model_text = hos_core::ModelFile::from_miner(m).to_text();
        store
            .snapshot(&SnapshotState {
                dataset: m.engine().dataset(),
                model: Some(&model_text),
                base: self.base,
                oldest: self.oldest,
                rows_consumed: self.rows_consumed,
                search_width: snapshot_search_width(m),
            })
            .map_err(|e| format!("writing snapshot: {e}"))?;
        Ok(())
    }

    /// A deterministic digest of the replay-relevant state: threshold
    /// bits, live rows (bit-exact, in id order), id counters. Two
    /// processes holding the same logical state print the same digest
    /// — the grep-pinnable comparator the kill-and-recover CI job
    /// diffs against an uninterrupted twin.
    pub fn digest(&self) -> u64 {
        // FNV-1a, 64-bit.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        feed(self.base);
        feed(self.oldest);
        feed(self.rows_consumed);
        feed(self.window as u64);
        for row in &self.bootstrap {
            for v in row {
                feed(v.to_bits());
            }
        }
        if let Some(m) = &self.miner {
            feed(m.threshold().to_bits());
            let ds = m.engine().dataset();
            let flat = ds.as_flat();
            let d = ds.dim();
            feed(ds.live_len() as u64);
            for i in 0..ds.len() {
                if ds.is_live(i) {
                    feed(i as u64);
                    for v in &flat[i * d..(i + 1) * d] {
                        feed(v.to_bits());
                    }
                }
            }
        }
        h
    }
}

/// `stream`'s own flags; it also takes the tuning flags.
pub const STREAM_FLAGS: &[&str] = &[
    "data",
    "header",
    "window",
    "every",
    "top",
    "reestimate",
    "wal",
    "sync-every",
];

/// Streaming front-end: consume rows one at a time, maintain a
/// sliding window of the last `--window` rows through the incremental
/// engine path (`HosMiner::insert_point` / `retire_point` — no refits
/// on the steady-state path), and report the window's top outlying
/// points every `--every` rows.
///
/// Memory is bounded: tombstones accumulate until they outnumber the
/// live window 3:1, then the window is compacted into a fresh miner
/// (the only non-incremental step, amortised over 3·W rows). Reported
/// ids are absolute row numbers in the stream, stable across
/// compactions.
pub fn cmd_stream(args: &Args) -> CmdResult {
    let window = args.get_or("window", 500usize)?;
    let every = args.get_or("every", 200usize)?.max(1);
    let top = args.get_or("top", 3usize)?;
    let reestimate = args.switch("reestimate");
    let config = miner_config(args)?;
    if window <= config.k + 1 {
        return Err(format!(
            "--window {window} too small: need more than k + 1 = {} rows live",
            config.k + 1
        ));
    }

    let reader: Box<dyn std::io::BufRead> = match args.get("data") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };

    // Durable mode (--wal DIR): every state transition is logged to a
    // write-ahead log before it is applied, and a crashed run recovers
    // by replaying the newest snapshot plus the WAL tail through the
    // exact same `StreamState::apply`. Without --wal the state machine
    // runs with a no-op logger and behaves as before.
    let mut store: Option<hos_storage::Store> = None;
    let mut state = StreamState::new(config, window, reestimate);
    if let Some(dir) = args.get("wal") {
        let store_config = hos_storage::StoreConfig {
            sync_every: args.get_or("sync-every", 64usize)?,
            meta: hos_storage::config_fingerprint(&config, Some(window)),
        };
        let (s, recovery) = hos_storage::Store::open(std::path::Path::new(dir), store_config)
            .map_err(|e| format!("opening wal dir {dir}: {e}"))?;
        if recovery.truncated_tail {
            println!("(wal: torn final record truncated)");
        }
        let replayed = recovery.ops.len();
        let snap_seq = recovery.snapshot.as_ref().map(|sn| sn.meta().seq);
        state = StreamState::from_recovery(config, window, reestimate, &recovery)?;
        if snap_seq.is_some() || replayed > 0 {
            println!(
                "recovered: snapshot seq {}, {replayed} wal ops replayed, resuming at row {}",
                snap_seq.map_or_else(|| "none".into(), |q| q.to_string()),
                state.rows_consumed
            );
        }
        store = Some(s);
    }
    // A recovered run already consumed this many input rows; skip them.
    let resume_skip = state.rows_consumed;

    let mut seen = state.rows_consumed as usize;
    let mut scans = 0usize;
    let mut outlier_rows = 0usize;
    let mut last_report = usize::MAX;
    let mut skip_header = args.switch("header");
    let mut data_rows = 0u64;

    fn log_op(store: &mut Option<hos_storage::Store>, op: &hos_storage::Op) -> CmdResult {
        if let Some(s) = store.as_mut() {
            s.append(op).map(|_| ()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn report(
        state: &mut StreamState,
        store: &mut Option<hos_storage::Store>,
        top: usize,
        seen: usize,
        scans: &mut usize,
        outlier_rows: &mut usize,
    ) -> CmdResult {
        // --reestimate mutates the threshold, so in durable mode it is
        // a logged op like any other transition.
        if state.reestimate {
            let op = hos_storage::Op::Reestimate;
            log_op(store, &op)?;
            state.apply(&op)?;
        }
        let base = state.base as usize;
        let m = state.miner.as_mut().expect("report before fit");
        let rep = hos_core::scan_outliers(m, top).map_err(|e| e.to_string())?;
        *scans += 1;
        println!(
            "-- row {seen}: window {} live, T = {}",
            m.live_len(),
            fmt_f64(rep.threshold)
        );
        if rep.hits.is_empty() {
            println!("   (no point above T in any subspace)");
        }
        for hit in &rep.hits {
            *outlier_rows += 1;
            let minimal: Vec<String> = hit.outcome.minimal.iter().map(|s| s.to_string()).collect();
            println!(
                "   outlier row #{}: full OD {}, minimal subspaces {}",
                base + hit.id,
                fmt_f64(hit.full_od),
                minimal.join(" ")
            );
        }
        Ok(())
    }

    for line in std::io::BufRead::lines(reader) {
        let line = line.map_err(|e| format!("reading stream: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if skip_header {
            skip_header = false;
            continue;
        }
        data_rows += 1;
        if data_rows <= resume_skip {
            continue;
        }
        let row: Vec<f64> = trimmed
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("row {}: bad value {v:?}", seen + 1))
            })
            .collect::<Result<Vec<_>, _>>()?;
        seen += 1;

        let events = state.consume_row(row, &mut |op| log_op(&mut store, op))?;
        for ev in events {
            match ev {
                StreamEvent::Bootstrapped { threshold } => println!(
                    "bootstrapped on first {window} rows: k={}, engine={}, T = {}",
                    config.k,
                    config.engine,
                    fmt_f64(threshold)
                ),
                StreamEvent::Compacted { tombstones } => {
                    println!(
                        "(compacted {tombstones} tombstones at row {seen}; \
                         window ids renumbered from {})",
                        state.base
                    );
                    // Compaction is the snapshot cadence: the window
                    // was just rewritten densely, so checkpoint it and
                    // rotate the WAL before the next 3·W rows accrue.
                    if let Some(s) = store.as_mut() {
                        state.snapshot_into(s)?;
                        println!("(snapshot written at seq {})", s.last_seq());
                    }
                }
            }
        }
        if state.miner.is_some() && seen >= window && (seen - window).is_multiple_of(every) {
            report(
                &mut state,
                &mut store,
                top,
                seen,
                &mut scans,
                &mut outlier_rows,
            )?;
            last_report = seen;
        }
    }

    // A short stream never reached the window size: fit on what there
    // is so the final report still happens. The fit is a logged
    // transition like any other, so a durable short stream recovers
    // identically too.
    if state.miner.is_none() {
        if state.bootstrap_len() <= config.k + 1 {
            return Err(format!(
                "stream ended after {} rows; need more than k + 1 = {} to fit",
                state.bootstrap_len(),
                config.k + 1
            ));
        }
        let op = hos_storage::Op::Bootstrap;
        log_op(&mut store, &op)?;
        state.apply(&op)?;
    }
    // Final report unless the loop just emitted one at this exact row.
    if last_report != seen {
        report(
            &mut state,
            &mut store,
            top,
            seen,
            &mut scans,
            &mut outlier_rows,
        )?;
    }
    if let Some(s) = store.as_mut() {
        state.snapshot_into(s)?;
        println!("(snapshot written at seq {})", s.last_seq());
        println!("state digest: {:016x}", state.digest());
    }
    let m = state.miner.as_ref().expect("fitted above");
    println!(
        "stream: {seen} rows, window {} live, {} inserts, {} retires, \
         {scans} scans, {outlier_rows} outlier reports, final T = {}",
        m.live_len(),
        state.inserts,
        state.retires,
        fmt_f64(m.threshold())
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::{run, tmp};
    use hos_core::ThresholdPolicy;

    fn config() -> HosMinerConfig {
        HosMinerConfig {
            k: 3,
            threshold: ThresholdPolicy::Fixed(5.0),
            sample_size: 0,
            ..HosMinerConfig::default()
        }
    }

    fn row(i: usize) -> Vec<f64> {
        vec![(i % 7) as f64, (i % 5) as f64 * 0.5, (i % 11) as f64 * 0.25]
    }

    /// Regression for the stream compaction bug: the valve used to
    /// `clone()` the whole dataset before compacting, doubling peak
    /// memory at exactly the moment memory pressure fired it. In-place
    /// compaction keeps the SAME heap allocation: `Dataset::compact`
    /// is copy_within + truncate, and `into_dataset` moves (never
    /// copies) the buffer through the engine teardown and refit.
    #[test]
    fn compaction_reuses_the_window_allocation() {
        let mut state = StreamState::new(config(), 20, false);
        let mut sink = |_: &Op| Ok(());
        // Fill the window and retire enough rows to arm the 3:1 valve.
        let mut i = 0;
        while state.miner.as_ref().is_none_or(|m| {
            let ds = m.engine().dataset();
            ds.dead_count() < 3 * ds.live_len()
        }) {
            state.consume_row(row(i), &mut sink).unwrap();
            i += 1;
            assert!(i < 10_000, "valve never armed");
        }
        let before = state
            .miner
            .as_ref()
            .unwrap()
            .engine()
            .dataset()
            .as_flat()
            .as_ptr();
        let event = state.apply(&Op::Compact).unwrap();
        assert!(matches!(event, Some(StreamEvent::Compacted { .. })));
        let after = state
            .miner
            .as_ref()
            .unwrap()
            .engine()
            .dataset()
            .as_flat()
            .as_ptr();
        assert_eq!(
            before, after,
            "compaction allocated a second copy of the window"
        );
        assert_eq!(state.oldest, 0);
        assert!(
            state
                .miner
                .as_ref()
                .unwrap()
                .engine()
                .dataset()
                .dead_count()
                == 0
        );
    }

    /// Log-then-apply completeness: replaying exactly the ops the live
    /// path logged must land in a bit-identical state (the WAL replay
    /// contract, minus the files).
    #[test]
    fn replaying_logged_ops_reproduces_the_state() {
        let mut live = StreamState::new(config(), 20, false);
        let mut logged: Vec<Op> = Vec::new();
        for i in 0..500 {
            live.consume_row(row(i), &mut |op| {
                logged.push(op.clone());
                Ok(())
            })
            .unwrap();
        }
        assert!(live.compactions > 0, "workload must exercise compaction");
        let mut replayed = StreamState::new(config(), 20, false);
        for op in &logged {
            replayed.apply(op).unwrap();
        }
        assert_eq!(live.digest(), replayed.digest());
        assert_eq!(live.base, replayed.base);
        assert_eq!(live.rows_consumed, replayed.rows_consumed);
        let (a, b) = (live.miner.unwrap(), replayed.miner.unwrap());
        assert_eq!(a.threshold().to_bits(), b.threshold().to_bits());
        assert_eq!(a.live_len(), b.live_len());
    }

    /// Ops out of order are typed errors, not panics — a corrupt or
    /// hand-edited WAL cannot crash recovery.
    #[test]
    fn out_of_order_ops_are_errors() {
        let mut state = StreamState::new(config(), 20, false);
        assert!(state.apply(&Op::Retire(0)).is_err());
        assert!(state.apply(&Op::Compact).is_err());
        assert!(state.apply(&Op::Reestimate).is_err());
        let mut fitted = StreamState::new(config(), 5, false);
        for i in 0..6 {
            fitted.consume_row(row(i), &mut |_| Ok(())).unwrap();
        }
        assert!(fitted.miner.is_some());
        assert!(fitted.apply(&Op::Bootstrap).is_err());
    }

    #[test]
    fn stream_subcommand_windows_and_reports() {
        let path = tmp("stream.csv");
        run(&[
            "generate",
            "--out",
            &path,
            "--n",
            "400",
            "--d",
            "4",
            "--targets",
            "[1,2]",
            "--seed",
            "11",
        ])
        .unwrap();
        // Window smaller than the stream: bootstraps, slides, reports.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "150",
            "--every",
            "100",
            "--top",
            "2",
            "--samples",
            "0",
            "--quantile",
            "0.95",
        ])
        .unwrap();
        // Reestimation, sharded engine, alternative index.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "120",
            "--every",
            "150",
            "--samples",
            "0",
            "--reestimate",
            "--shards",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "100",
            "--every",
            "200",
            "--samples",
            "0",
            "--engine",
            "xtree",
        ])
        .unwrap();
        // Stream shorter than the window: fits on what arrived.
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "5000",
            "--samples",
            "0",
        ])
        .unwrap();
        // Validation: window must exceed k + 1; bad file is an error.
        assert!(run(&["stream", "--data", &path, "--window", "5", "--k", "5"]).is_err());
        assert!(run(&["stream", "--data", "/nonexistent.csv"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_compacts_long_runs_with_small_windows() {
        // 400 rows over a 30-row window: > 3x tombstone ratio is hit
        // repeatedly, so the compaction path (id renumbering, base
        // offset, refit with pinned threshold) is exercised.
        let path = tmp("stream_compact.csv");
        run(&[
            "generate", "--out", &path, "--n", "400", "--d", "3", "--seed", "13",
        ])
        .unwrap();
        run(&[
            "stream",
            "--data",
            &path,
            "--window",
            "30",
            "--every",
            "120",
            "--samples",
            "0",
            "--k",
            "3",
        ])
        .unwrap();
        std::fs::remove_file(&path).ok();
    }
}
