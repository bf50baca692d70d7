//! Store orchestration: one directory holding the newest snapshot and
//! the WAL that extends it.
//!
//! Lifecycle:
//!
//! 1. [`Store::open`] recovers — pick the highest-sequence snapshot,
//!    read the WAL files, and return the snapshot plus the ops with
//!    `seq > snapshot.seq` (records the snapshot already covers are
//!    skipped, which is what makes a crash *between* snapshot write
//!    and WAL rotation replay-safe instead of double-applied).
//! 2. [`Store::append`] logs ops (fsync batched per `sync_every`).
//! 3. [`Store::snapshot`] writes a new snapshot at the last appended
//!    sequence, rotates to a fresh WAL, and prunes old files.
//!
//! Crash windows and their recovery:
//!
//! * mid-append → torn tail, truncated on reopen ([`crate::wal`]);
//! * mid-snapshot-write → only a `.tmp` exists; ignored;
//! * after snapshot, before new WAL → old WAL replays, filter skips
//!   covered seqs; rotation is completed on open;
//! * after new WAL, before old files deleted → both WALs read in
//!   order; pruning finishes on open.

use crate::snapshot::{list_snapshots, write_snapshot, Snapshot, SnapshotContents};
use crate::wal::{parse_wal_name, read_wal, Op, WalWriter};
use crate::{Result, StorageError};
use std::path::{Path, PathBuf};

/// Knobs for opening a store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Fsync after this many appended records (group commit); 0 means
    /// only on explicit [`Store::sync`] / snapshot.
    pub sync_every: usize,
    /// Free-form configuration fingerprint (k, metric, engine, …).
    /// Recorded in every file; a mismatch on open is a typed error,
    /// because replaying ops under a different configuration would
    /// silently produce a different miner than the one that logged
    /// them.
    pub meta: String,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            sync_every: 64,
            meta: String::new(),
        }
    }
}

/// What [`Store::open`] recovered from disk.
pub struct Recovery {
    /// Highest-sequence snapshot, if any exists yet.
    pub snapshot: Option<Snapshot>,
    /// WAL records to replay on top of it, ascending, contiguous,
    /// all with `seq > snapshot.seq`.
    pub ops: Vec<(u64, Op)>,
    /// Whether a torn final record was truncated during recovery.
    pub truncated_tail: bool,
}

impl Recovery {
    /// Sequence number of the recovered state (snapshot + replay).
    pub fn last_seq(&self) -> u64 {
        self.ops
            .last()
            .map(|(s, _)| *s)
            .or(self.snapshot.as_ref().map(|s| s.meta().seq))
            .unwrap_or(0)
    }
}

/// The live state handed to [`Store::snapshot`] — everything the
/// snapshot records besides what the store itself tracks (seq, meta).
pub struct SnapshotState<'a> {
    pub dataset: &'a hos_data::Dataset,
    /// `ModelFile` text of the fitted model, if one exists.
    pub model: Option<&'a str>,
    pub base: u64,
    pub oldest: u64,
    pub rows_consumed: u64,
    /// Reserved v1 snapshot field, always 0 (see
    /// [`crate::snapshot::SnapshotMeta::search_width`]).
    pub search_width: u64,
}

/// An open store: the active WAL writer plus directory bookkeeping.
pub struct Store {
    dir: PathBuf,
    writer: WalWriter,
    config: StoreConfig,
}

fn list_wals(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_wal_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

impl Store {
    /// Opens (creating if needed) the store at `dir` and recovers its
    /// state. See the module docs for the crash-window analysis.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<(Store, Recovery)> {
        std::fs::create_dir_all(dir)?;

        // Sweep half-written temp files from crashed snapshot/rotation
        // attempts; they are never part of recovered state.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }

        // Newest snapshot wins. It was published by rename, so if it
        // exists it is complete — a checksum failure there is real
        // corruption, not a crash artifact, and recovery stops rather
        // than silently serving older state.
        let snaps = list_snapshots(dir)?;
        let snapshot = match snaps.last() {
            Some((_, path)) => Some(Snapshot::open(path)?),
            None => None,
        };
        let snap_seq = snapshot.as_ref().map_or(0, |s| s.meta().seq);
        if let Some(s) = &snapshot {
            if s.meta().meta != config.meta {
                return Err(StorageError::MetaMismatch {
                    expected: config.meta,
                    found: s.meta().meta.clone(),
                });
            }
        }

        // Read every WAL in start-seq order; keep records newer than
        // the snapshot. Only the newest file may legitimately have a
        // torn tail (older ones stopped receiving appends at rotation).
        let wals = list_wals(dir)?;
        let mut ops: Vec<(u64, Op)> = Vec::new();
        let mut truncated_tail = false;
        for (i, (_, path)) in wals.iter().enumerate() {
            let contents = read_wal(path)?;
            if contents.meta != config.meta {
                return Err(StorageError::MetaMismatch {
                    expected: config.meta,
                    found: contents.meta,
                });
            }
            if contents.truncated_tail && i + 1 < wals.len() {
                return Err(StorageError::Corrupt {
                    what: "torn record in a rotated (non-final) wal",
                    offset: contents.valid_len,
                });
            }
            truncated_tail |= contents.truncated_tail;
            for (seq, op) in contents.ops {
                if seq > snap_seq {
                    ops.push((seq, op));
                }
            }
        }
        // Contiguity across files: replay must cover snap_seq+1..=last
        // with no gaps (a gap means a WAL file went missing).
        for (k, (seq, _)) in ops.iter().enumerate() {
            if *seq != snap_seq + 1 + k as u64 {
                return Err(StorageError::Corrupt {
                    what: "wal sequence gap across files",
                    offset: *seq,
                });
            }
        }

        let last_seq = ops.last().map_or(snap_seq, |(s, _)| *s);

        // Normalise: end with exactly one WAL named for the snapshot it
        // extends, containing exactly the replay tail. Rewriting the
        // tail (rather than appending to whichever file survived)
        // completes any interrupted rotation.
        let newest_matches = wals
            .last()
            .is_some_and(|(s, _)| *s == snap_seq && wals.len() == 1);
        let writer = if newest_matches && !truncated_tail {
            let (writer, _) = WalWriter::reopen(&wals.last().unwrap().1, config.sync_every)?;
            writer
        } else {
            // Rewrite the tail under a temp name first — the target
            // name may be one of the files being replaced — then
            // publish by rename and drop the superseded files.
            let rotate_tmp = dir.join("wal.rotate.tmp");
            let mut w = WalWriter::create_at(&rotate_tmp, snap_seq, &config.meta, 0)?;
            for (_, op) in &ops {
                w.append(op)?;
            }
            w.sync()?;
            drop(w);
            let final_path = dir.join(crate::wal::wal_file_name(snap_seq));
            std::fs::rename(&rotate_tmp, &final_path)?;
            crate::wal::sync_dir(dir)?;
            for (s, path) in &wals {
                if *s != snap_seq {
                    let _ = std::fs::remove_file(path);
                }
            }
            let (writer, _) = WalWriter::reopen(&final_path, config.sync_every)?;
            writer
        };
        debug_assert_eq!(writer.last_seq(), last_seq);

        // Prune snapshots older than the one recovered.
        for (s, path) in &snaps {
            if *s != snap_seq {
                let _ = std::fs::remove_file(path);
            }
        }

        Ok((
            Store {
                dir: dir.to_path_buf(),
                writer,
                config,
            },
            Recovery {
                snapshot,
                ops,
                truncated_tail,
            },
        ))
    }

    /// Logs one op; durability batched per `sync_every`.
    pub fn append(&mut self, op: &Op) -> Result<u64> {
        self.writer.append(op)
    }

    /// Forces all logged ops to stable storage (group-commit flush).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.sync()
    }

    /// Sequence number of the last logged op.
    pub fn last_seq(&self) -> u64 {
        self.writer.last_seq()
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a snapshot of `state` at the current sequence, rotates
    /// to a fresh WAL, and prunes superseded files. On return, crash
    /// recovery needs zero replay.
    pub fn snapshot(&mut self, state: &SnapshotState<'_>) -> Result<PathBuf> {
        self.sync()?;
        let seq = self.writer.last_seq();
        let old_wal = self.writer.path().to_path_buf();
        let old_start = self.writer.start_seq();
        let path = write_snapshot(
            &self.dir,
            &SnapshotContents {
                seq,
                base: state.base,
                oldest: state.oldest,
                rows_consumed: state.rows_consumed,
                search_width: state.search_width,
                dataset: state.dataset,
                model: state.model,
                meta: &self.config.meta,
            },
        )?;
        if old_start != seq {
            // Rotate: fresh WAL named for the new snapshot, then drop
            // superseded files. Crash anywhere here is recovered by
            // the seq filter + normalisation in `open`.
            self.writer =
                WalWriter::create(&self.dir, seq, &self.config.meta, self.config.sync_every)?;
            let _ = std::fs::remove_file(&old_wal);
        }
        for (s, p) in list_snapshots(&self.dir)? {
            if s != seq {
                let _ = std::fs::remove_file(p);
            }
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::Dataset;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hos-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> StoreConfig {
        StoreConfig {
            sync_every: 1,
            meta: "k=3 metric=l2".into(),
        }
    }

    fn ds(n: usize) -> Dataset {
        Dataset::from_flat((0..n * 2).map(|i| i as f64).collect(), 2).unwrap()
    }

    #[test]
    fn fresh_store_appends_and_recovers() {
        let dir = temp_dir("fresh");
        let (mut store, rec) = Store::open(&dir, cfg()).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.ops.is_empty());
        store.append(&Op::Insert(vec![1.0, 2.0])).unwrap();
        store.append(&Op::Retire(0)).unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir, cfg()).unwrap();
        assert_eq!(rec.ops.len(), 2);
        assert_eq!(rec.last_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotates_and_skips_covered_ops() {
        let dir = temp_dir("rotate");
        let (mut store, _) = Store::open(&dir, cfg()).unwrap();
        for i in 0..5 {
            store.append(&Op::Insert(vec![i as f64, 0.0])).unwrap();
        }
        store
            .snapshot(&SnapshotState {
                dataset: &ds(5),
                model: Some("model-text"),
                base: 0,
                oldest: 0,
                rows_consumed: 5,
                search_width: 0,
            })
            .unwrap();
        store.append(&Op::Retire(0)).unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir, cfg()).unwrap();
        let snap = rec.snapshot.as_ref().expect("snapshot recovered");
        assert_eq!(snap.meta().seq, 5);
        assert_eq!(snap.meta().rows_consumed, 5);
        assert_eq!(snap.meta().model.as_deref(), Some("model-text"));
        // Only the post-snapshot op replays.
        assert_eq!(rec.ops, vec![(6, Op::Retire(0))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_rotation_replays_once() {
        let dir = temp_dir("dup");
        let (mut store, _) = Store::open(&dir, cfg()).unwrap();
        for i in 0..4 {
            store.append(&Op::Insert(vec![i as f64, 1.0])).unwrap();
        }
        store.sync().unwrap();
        // Simulate the crash window: snapshot written, but the WAL was
        // never rotated — the old WAL still holds seqs 1..=4.
        write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 4,
                base: 0,
                oldest: 0,
                rows_consumed: 4,
                search_width: 0,
                dataset: &ds(4),
                model: None,
                meta: &cfg().meta,
            },
        )
        .unwrap();
        drop(store);
        let (store2, rec) = Store::open(&dir, cfg()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().meta().seq, 4);
        assert!(rec.ops.is_empty(), "covered ops must not replay");
        assert_eq!(store2.last_seq(), 4);
        // Normalisation leaves exactly one WAL, named for seq 4.
        let wals = list_wals(&dir).unwrap();
        assert_eq!(wals.len(), 1);
        assert_eq!(wals[0].0, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_mismatch_is_typed_error() {
        let dir = temp_dir("meta");
        let (mut store, _) = Store::open(&dir, cfg()).unwrap();
        store.append(&Op::Compact).unwrap();
        store.sync().unwrap();
        drop(store);
        let other = StoreConfig {
            sync_every: 1,
            meta: "k=9 metric=l1".into(),
        };
        assert!(matches!(
            Store::open(&dir, other),
            Err(StorageError::MetaMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovery_then_continue() {
        let dir = temp_dir("torn");
        let (mut store, _) = Store::open(&dir, cfg()).unwrap();
        for i in 0..3 {
            store.append(&Op::Insert(vec![i as f64, 2.0])).unwrap();
        }
        store.sync().unwrap();
        let wal_path = store.writer.path().to_path_buf();
        drop(store);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut store2, rec) = Store::open(&dir, cfg()).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.ops.len(), 2);
        // Appends continue from the truncated position.
        let seq = store2.append(&Op::Compact).unwrap();
        assert_eq!(seq, 3);
        drop(store2);
        let (_, rec2) = Store::open(&dir, cfg()).unwrap();
        assert_eq!(rec2.ops.len(), 3);
        assert!(!rec2.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_then_no_replay_needed() {
        let dir = temp_dir("clean");
        let (mut store, _) = Store::open(&dir, cfg()).unwrap();
        for i in 0..3 {
            store.append(&Op::Insert(vec![i as f64, 3.0])).unwrap();
        }
        store
            .snapshot(&SnapshotState {
                dataset: &ds(3),
                model: None,
                base: 0,
                oldest: 0,
                rows_consumed: 3,
                search_width: 0,
            })
            .unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir, cfg()).unwrap();
        assert!(rec.ops.is_empty());
        assert_eq!(rec.last_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
