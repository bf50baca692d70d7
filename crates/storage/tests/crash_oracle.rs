//! Kill-and-recover differential oracle plus WAL edge-case coverage.
//!
//! The tentpole contract: a process killed at an ARBITRARY WAL byte
//! offset, restarted, and re-queried must answer bit-identically to an
//! uninterrupted twin. We simulate the kill exactly — copy the store
//! directory and truncate the newest WAL at every byte offset — then
//! recover, re-apply the ops the "crash" lost (a real client would
//! resubmit unacknowledged writes), and compare queries bit for bit:
//! f64 `to_bits`, subspace sets, and `od_evals` counts.

use hos_core::{HosMiner, HosMinerConfig, ModelFile, ThresholdPolicy};
use hos_data::Dataset;
use hos_storage::store::SnapshotState;
use hos_storage::{
    miner_from_snapshot, recover_miner, snapshot_search_width, Op, StorageError, Store, StoreConfig,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hos-crash-oracle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn config() -> HosMinerConfig {
    HosMinerConfig {
        k: 4,
        threshold: ThresholdPolicy::Fixed(2.5),
        sample_size: 8,
        seed: 5,
        ..HosMinerConfig::default()
    }
}

fn row(i: usize) -> Vec<f64> {
    vec![
        (i % 17) as f64 * 0.5,
        ((i * 7) % 13) as f64 * 0.25,
        ((i * 3) % 11) as f64,
    ]
}

fn apply(miner: &mut HosMiner, op: &Op) {
    match op {
        Op::Insert(r) => {
            miner.insert_point(r).unwrap();
        }
        Op::Retire(id) => {
            miner.retire_point(*id as usize).unwrap();
        }
        other => panic!("oracle only drives insert/retire, got {other:?}"),
    }
}

fn checkpoint(store: &mut Store, miner: &HosMiner) -> u64 {
    let text = ModelFile::from_miner(miner).to_text();
    store
        .snapshot(&SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&text),
            base: 0,
            oldest: 0,
            rows_consumed: 0,
            search_width: snapshot_search_width(miner),
        })
        .unwrap();
    store.last_seq()
}

fn newest_wal(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    wals.sort();
    wals.pop().expect("store has a wal")
}

fn wal_header_len(bytes: &[u8]) -> usize {
    // "HOSWAL01" | u64 start_seq | u32 meta_len | meta | u32 crc
    assert_eq!(&bytes[..8], b"HOSWAL01");
    let meta_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    20 + meta_len + 4
}

/// Bit-exact comparison of everything a client can observe.
fn assert_same_answers(recovered: &HosMiner, twin: &HosMiner, cut: usize) {
    assert_eq!(
        recovered.threshold().to_bits(),
        twin.threshold().to_bits(),
        "threshold diverged at cut {cut}"
    );
    let (rd, td) = (recovered.engine().dataset(), twin.engine().dataset());
    assert_eq!(rd.len(), td.len(), "row count diverged at cut {cut}");
    assert_eq!(rd.live_len(), td.live_len(), "live count at cut {cut}");
    for (a, b) in rd.as_flat().iter().zip(td.as_flat()) {
        assert_eq!(a.to_bits(), b.to_bits(), "row bytes diverged at cut {cut}");
    }
    // Query a spread of live ids: newest, mid-window, oldest live.
    let n = td.len();
    for id in [n - 1, n - 8, n - td.live_len()] {
        let qa = recovered.query_id(id).unwrap();
        let qb = twin.query_id(id).unwrap();
        assert_eq!(qa.minimal, qb.minimal, "minimal set for id {id}, cut {cut}");
        assert_eq!(
            qa.stats.od_evals, qb.stats.od_evals,
            "od_evals for id {id}, cut {cut}"
        );
        assert_eq!(
            qa.outlying.len(),
            qb.outlying.len(),
            "outlying count for id {id}, cut {cut}"
        );
        for (sa, sb) in qa.outlying.iter().zip(&qb.outlying) {
            assert_eq!(sa.subspace, sb.subspace, "subspace for id {id}, cut {cut}");
            assert_eq!(
                sa.od.map(f64::to_bits),
                sb.od.map(f64::to_bits),
                "od bits for id {id}, cut {cut}"
            );
        }
    }
}

/// The tentpole oracle: for EVERY byte offset of the newest WAL,
/// truncating there (the torn-write model: a crash preserves an
/// arbitrary prefix), recovering, and re-applying the lost suffix
/// must reproduce the uninterrupted twin bit for bit.
#[test]
fn kill_at_every_wal_offset_recovers_bit_identical() {
    let cfg = config();
    let meta = "oracle k=4".to_string();
    let dir = temp_dir("sweep-main");
    let (mut store, rec) = Store::open(
        &dir,
        StoreConfig {
            sync_every: 8,
            meta: meta.clone(),
        },
    )
    .unwrap();
    assert!(rec.snapshot.is_none() && rec.ops.is_empty());

    // Bootstrap on 30 rows, snapshot, then a serve-style mixed write
    // stream: insert row i, retire the oldest live id (FIFO window).
    let window = 30;
    let total = 100;
    let rows: Vec<Vec<f64>> = (0..total).map(row).collect();
    let mut twin = HosMiner::fit(Dataset::from_rows(&rows[..window]).unwrap(), cfg).unwrap();
    checkpoint(&mut store, &twin);

    let mut ops: Vec<Op> = Vec::new();
    for (i, r) in rows[window..].iter().enumerate() {
        ops.push(Op::Insert(r.clone()));
        ops.push(Op::Retire(i as u64));
    }
    // Mid-sequence snapshot so the sweep exercises snapshot + WAL-tail
    // recovery, not just cold replay. Ops are applied then logged
    // (serve's discipline); only applied ops reach the WAL.
    let mid = ops.len() / 2;
    for (j, op) in ops.iter().enumerate() {
        apply(&mut twin, op);
        store.append(op).unwrap();
        if j == mid {
            checkpoint(&mut store, &twin);
        }
    }
    store.sync().unwrap();
    let last_seq = store.last_seq();
    assert_eq!(last_seq, ops.len() as u64, "one seq per logged op");
    drop(store);

    let wal_path = newest_wal(&dir);
    let full = std::fs::read(&wal_path).unwrap();
    let header_len = wal_header_len(&full);
    assert!(full.len() > header_len, "post-snapshot wal holds records");

    let crash_dir = temp_dir("sweep-crash");
    for cut in header_len..=full.len() {
        copy_dir(&dir, &crash_dir);
        let wal = crash_dir.join(wal_path.file_name().unwrap());
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        // Recovery must never fail on a torn tail — only truncate it.
        let (_store2, rec2) = Store::open(
            &crash_dir,
            StoreConfig {
                sync_every: 8,
                meta: meta.clone(),
            },
        )
        .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let snap = rec2.snapshot.as_ref().expect("snapshot survives the cut");
        let mut recovered = miner_from_snapshot(snap, &cfg).unwrap();
        // Recovered ops must be exactly a prefix of what was logged
        // after the snapshot the store chose to recover from.
        let snap_seq = snap.meta().seq as usize;
        for (k, (seq, op)) in rec2.ops.iter().enumerate() {
            assert_eq!(
                *seq as usize,
                snap_seq + k + 1,
                "contiguous seqs, cut {cut}"
            );
            assert_eq!(op, &ops[*seq as usize - 1], "op payload intact, cut {cut}");
            apply(&mut recovered, op);
        }
        // A real client re-submits writes the crash never acknowledged:
        // re-apply the lost suffix, then demand bit-identity.
        for op in &ops[rec2.last_seq() as usize..] {
            apply(&mut recovered, op);
        }
        assert_same_answers(&recovered, &twin, cut);

        // Recovery is idempotent: reopening the already-normalised dir
        // recovers the same sequence point with no torn tail left.
        if cut % 16 == 0 {
            let (_s3, rec3) = Store::open(
                &crash_dir,
                StoreConfig {
                    sync_every: 8,
                    meta: meta.clone(),
                },
            )
            .unwrap();
            assert_eq!(rec3.last_seq(), rec2.last_seq(), "idempotent at cut {cut}");
            assert!(!rec3.truncated_tail, "second open is clean at cut {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The folded recovery against the op-by-op one, over the same
/// sweep: at EVERY truncation offset of the newest WAL,
/// `recover_miner` (tail folded into the data, one engine build) must
/// equal `miner_from_snapshot` plus the tail applied op by op — the
/// recovery `kill_at_every_wal_offset_recovers_bit_identical` checks
/// against the uninterrupted twin — and, with the lost suffix
/// re-applied, the twin itself.
#[test]
fn folded_recovery_equals_op_by_op_at_every_wal_offset() {
    let xtree = HosMinerConfig {
        engine: hos_index::Engine::XTree,
        ..config()
    };
    for cfg in [config(), xtree] {
        fold_sweep(cfg);
    }
}

fn fold_sweep(cfg: HosMinerConfig) {
    let meta = "oracle k=4".to_string();
    let sc = || StoreConfig {
        sync_every: 8,
        meta: meta.clone(),
    };
    let dir = temp_dir(&format!("fold-main-{}", cfg.engine));
    let (mut store, _) = Store::open(&dir, sc()).unwrap();
    let (window, total) = (30, 100);
    let rows: Vec<Vec<f64>> = (0..total).map(row).collect();
    let mut twin = HosMiner::fit(Dataset::from_rows(&rows[..window]).unwrap(), cfg).unwrap();
    checkpoint(&mut store, &twin);
    let mut ops: Vec<Op> = Vec::new();
    for (i, r) in rows[window..].iter().enumerate() {
        ops.push(Op::Insert(r.clone()));
        ops.push(Op::Retire(i as u64));
    }
    let mid = ops.len() / 2;
    for (j, op) in ops.iter().enumerate() {
        apply(&mut twin, op);
        store.append(op).unwrap();
        if j == mid {
            checkpoint(&mut store, &twin);
        }
    }
    store.sync().unwrap();
    drop(store);

    let wal_path = newest_wal(&dir);
    let full = std::fs::read(&wal_path).unwrap();
    let crash_dir = temp_dir(&format!("fold-crash-{}", cfg.engine));
    for cut in wal_header_len(&full)..=full.len() {
        copy_dir(&dir, &crash_dir);
        let wal = crash_dir.join(wal_path.file_name().unwrap());
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let (_store2, rec2) = Store::open(&crash_dir, sc()).unwrap();
        let snap = rec2.snapshot.as_ref().expect("snapshot survives the cut");
        let mut replayed = miner_from_snapshot(snap, &cfg).unwrap();
        for (_, op) in &rec2.ops {
            apply(&mut replayed, op);
        }
        let mut folded = recover_miner(&rec2, &cfg).unwrap();
        assert_same_answers(&folded, &replayed, cut);
        for op in &ops[rec2.last_seq() as usize..] {
            apply(&mut folded, op);
        }
        assert_same_answers(&folded, &twin, cut);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// A checksum-corrupt record mid-file (valid records follow it) is a
/// typed `StorageError::Corrupt` — never a panic, and never silent
/// truncation, because the bytes after it prove the file does not end
/// there.
#[test]
fn mid_file_corruption_is_a_typed_error() {
    let dir = temp_dir("corrupt");
    let meta = "oracle k=4".to_string();
    let (mut store, _) = Store::open(
        &dir,
        StoreConfig {
            sync_every: 1,
            meta: meta.clone(),
        },
    )
    .unwrap();
    for i in 0..20 {
        store.append(&Op::Insert(row(i))).unwrap();
    }
    drop(store);

    let wal = newest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let header_len = wal_header_len(&bytes);
    // Flip a byte inside the FIRST record's payload: its CRC fails
    // while 19 intact records follow.
    let target = header_len + 8 + 2;
    bytes[target] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();

    let err = Store::open(
        &dir,
        StoreConfig {
            sync_every: 1,
            meta,
        },
    )
    .err()
    .expect("corrupt mid-file record must refuse to open");
    match err {
        StorageError::Corrupt { what, offset } => {
            assert!(what.contains("checksum"), "unexpected kind: {what}");
            assert_eq!(offset, header_len as u64, "points at the bad record");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash between WAL fsync and snapshot rotation: the snapshot file
/// exists, but the old WAL (whose records the snapshot already
/// covers) is still in place. Recovery must NOT replay those records
/// a second time.
#[test]
fn no_duplicate_replay_when_crash_lands_between_snapshot_and_rotation() {
    let meta = "oracle k=4".to_string();
    let sc = || StoreConfig {
        sync_every: 1,
        meta: meta.clone(),
    };
    let pre = temp_dir("dup-pre");
    let (mut store, _) = Store::open(&pre, sc()).unwrap();
    for i in 0..10 {
        store.append(&Op::Insert(row(i))).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    // `crash` is the directory as it looked the instant before the
    // snapshot: wal-0 holding ops 1..=10.
    let crash = temp_dir("dup-crash");
    copy_dir(&pre, &crash);

    // Take the snapshot in `pre`, then transplant ONLY the snapshot
    // file into `crash` — exactly the torn window where the snapshot
    // hit disk but the WAL was never rotated.
    let rows: Vec<Vec<f64>> = (0..10).map(row).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let (mut store, _) = Store::open(&pre, sc()).unwrap();
    store
        .snapshot(&SnapshotState {
            dataset: &ds,
            model: None,
            base: 0,
            oldest: 0,
            rows_consumed: 10,
            search_width: 0,
        })
        .unwrap();
    drop(store);
    let snap_file = std::fs::read_dir(&pre)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("snap-")
        })
        .expect("snapshot written");
    std::fs::copy(&snap_file, crash.join(snap_file.file_name().unwrap())).unwrap();

    let (mut store, rec) = Store::open(&crash, sc()).unwrap();
    let snap = rec.snapshot.as_ref().expect("snapshot recovered");
    assert_eq!(snap.meta().seq, 10);
    assert!(
        rec.ops.is_empty(),
        "ops at or below the snapshot seq must not replay twice: {:?}",
        rec.ops
    );
    assert_eq!(rec.last_seq(), 10);

    // Sequence numbering resumes where the snapshot left off.
    assert_eq!(store.append(&Op::Retire(3)).unwrap(), 11);
    store.sync().unwrap();
    drop(store);
    let (_store, rec2) = Store::open(&crash, sc()).unwrap();
    assert_eq!(rec2.ops, vec![(11, Op::Retire(3))]);
    let _ = std::fs::remove_dir_all(&pre);
    let _ = std::fs::remove_dir_all(&crash);
}

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property test over random op sequences: whatever interleaving
    /// of appends, snapshots, and clean reopens happens, recovery
    /// always returns exactly the ops logged since the last snapshot,
    /// in order, with contiguous sequence numbers.
    #[test]
    fn random_op_sequences_round_trip(plan in prop::collection::vec((0u8..=9, 0u64..40), 1..40)) {
            let dir = temp_dir(&format!("prop-{}", CASE.fetch_add(1, Ordering::Relaxed)));
            let meta = "prop k=4".to_string();
            let sc = || StoreConfig { sync_every: 3, meta: meta.clone() };
            let rows: Vec<Vec<f64>> = (0..5).map(row).collect();
            let ds = Dataset::from_rows(&rows).unwrap();

            let (mut store, rec) = Store::open(&dir, sc()).unwrap();
            prop_assert!(rec.ops.is_empty() && rec.snapshot.is_none());
            // Shadow model of what recovery must return.
            let mut since_snap: Vec<(u64, Op)> = Vec::new();
            let mut snap_seq: Option<u64> = None;
            let mut next_seq = 0u64;

            for (code, x) in plan {
                match code {
                    0..=5 => {
                        next_seq += 1;
                        let op = Op::Insert(row(x as usize));
                        prop_assert_eq!(store.append(&op).unwrap(), next_seq);
                        since_snap.push((next_seq, op));
                    }
                    6 | 7 => {
                        next_seq += 1;
                        let op = Op::Retire(x);
                        prop_assert_eq!(store.append(&op).unwrap(), next_seq);
                        since_snap.push((next_seq, op));
                    }
                    8 => {
                        store.snapshot(&SnapshotState {
                            dataset: &ds,
                            model: None,
                            base: 0,
                            oldest: 0,
                            rows_consumed: next_seq,
                            search_width: 0,
                        }).unwrap();
                        snap_seq = Some(next_seq);
                        since_snap.clear();
                    }
                    _ => {
                        // Clean shutdown + reopen mid-sequence.
                        drop(store);
                        let (s, rec) = Store::open(&dir, sc()).unwrap();
                        store = s;
                        prop_assert!(!rec.truncated_tail);
                        prop_assert_eq!(rec.snapshot.as_ref().map(|s| s.meta().seq), snap_seq);
                        prop_assert_eq!(&rec.ops, &since_snap);
                    }
                }
            }
            drop(store);
            let (_s, rec) = Store::open(&dir, sc()).unwrap();
            prop_assert!(!rec.truncated_tail);
            prop_assert_eq!(rec.snapshot.as_ref().map(|s| s.meta().seq), snap_seq);
            prop_assert_eq!(&rec.ops, &since_snap);
            let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Snapshot seq and WAL start_seq march together, strictly
/// monotonically, across snapshot cycles — and superseded files are
/// pruned so the directory always holds exactly one snapshot and its
/// tail WAL.
#[test]
fn snapshot_and_wal_versions_are_monotone() {
    let dir = temp_dir("monotone");
    let meta = "oracle k=4".to_string();
    let (mut store, _) = Store::open(
        &dir,
        StoreConfig {
            sync_every: 4,
            meta,
        },
    )
    .unwrap();
    let rows: Vec<Vec<f64>> = (0..5).map(row).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let mut prev_seq = None;
    let mut expect = 0u64;
    for round in 0..4u64 {
        for i in 0..(3 + round) {
            expect += 1;
            assert_eq!(store.append(&Op::Insert(row(i as usize))).unwrap(), expect);
        }
        store
            .snapshot(&SnapshotState {
                dataset: &ds,
                model: None,
                base: 0,
                oldest: 0,
                rows_consumed: expect,
                search_width: 0,
            })
            .unwrap();
        let snaps = hos_storage::snapshot::list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 1, "superseded snapshots pruned");
        assert_eq!(snaps[0].0, expect, "snapshot named by its seq");
        if let Some(p) = prev_seq {
            assert!(snaps[0].0 > p, "snapshot seqs strictly increase");
        }
        prev_seq = Some(snaps[0].0);
        // Exactly one WAL, rotated to start at the snapshot seq.
        let wal = newest_wal(&dir);
        assert!(wal
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains(&format!("{expect:016x}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
