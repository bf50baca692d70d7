//! Snapshot (+ WAL tail) → miner reconstruction, shared by `stream
//! --wal`, `fit --snapshot` consumers and `hos-serve --data-dir`.
//!
//! The recovered miner must answer **bit-identically** to the process
//! that wrote the snapshot and the tail, which pins two choices here:
//!
//! * the model (threshold, priors) comes from the embedded
//!   [`hos_core::ModelFile`] text — never re-learned;
//! * the snapshot's tombstones and a WAL tail of `Insert`/`Retire` ops
//!   are folded into the *dataset* (rows appended in log order, so ids
//!   stay sequential; retired ids marked dead), and the engine is then
//!   built once over the result. Every engine's build skips dead rows,
//!   and answers never depend on index shape (DESIGN.md §7, "Why
//!   incremental == rebuild"), so one build answers like the live
//!   miner that absorbed the same ops one at a time.

use crate::snapshot::Snapshot;
use crate::store::{Recovery, SnapshotState, Store};
use crate::wal::Op;
use crate::{Result, StorageError};
use hos_core::{HosMiner, HosMinerConfig, LearnedModel, ModelFile, SearchStats};
use hos_data::Dataset;
use std::path::PathBuf;

/// Flattens the replay-relevant configuration into the fingerprint
/// string stored in every WAL header and snapshot. Opening a store
/// with a different fingerprint is a typed error: replaying ops under
/// changed semantics (k, metric, engine, threshold policy, …) would
/// silently produce a different miner than the one that logged them.
/// Machine knobs that never change results (`threads`, and the
/// `shards` row-range count derived from it) are deliberately absent,
/// so a restart may re-tune them freely.
pub fn config_fingerprint(config: &HosMinerConfig, window: Option<usize>) -> String {
    let mut s = format!(
        "v1 k={} metric={} engine={} threshold={:?} samples={} smoothing={:?} seed={}",
        config.k,
        config.metric.name(),
        config.engine,
        config.threshold,
        config.sample_size,
        config.prior_smoothing,
        config.seed,
    );
    if let Some(w) = window {
        s.push_str(&format!(" window={w}"));
    }
    s
}

/// Rebuilds a ready-to-query miner from a snapshot alone: the
/// snapshot's rows with its tombstones, one engine build and the
/// embedded model. `config` supplies the live
/// threshold *policy* (so later re-estimation replays identically)
/// and the machine knobs; everything learned comes from the snapshot.
pub fn miner_from_snapshot(snap: &Snapshot, config: &HosMinerConfig) -> Result<HosMiner> {
    Folded::new(snap, &[])?.into_miner(config)
}

/// Recovers the miner a store's [`Recovery`] describes: the snapshot
/// with the WAL tail folded into its dataset, then one engine build
/// (see the module docs and [`Folded`]).
pub fn recover_miner(recovery: &Recovery, config: &HosMinerConfig) -> Result<HosMiner> {
    let snap = recovery.snapshot.as_ref().ok_or_else(|| {
        StorageError::BadHeader("store holds no snapshot; cannot rebuild a miner".into())
    })?;
    Folded::new(snap, &recovery.ops)?.into_miner(config)
}

/// The two phases of [`recover_miner`], split so a caller can time
/// them: [`Folded::new`] applies the WAL tail to the data, and
/// [`Folded::into_miner`] builds the engine once.
pub struct Folded {
    model: ModelFile,
    dataset: Dataset,
}

impl Folded {
    /// Decodes the snapshot's rows and tombstones, then appends each
    /// tail `Insert` (ids stay sequential) and marks each tail
    /// `Retire` dead. No index work happens here.
    ///
    /// A tail op the live miner would have refused (a retire of a dead
    /// or out-of-range id, an insert of the wrong arity or with a
    /// non-finite value) is a typed [`StorageError::Data`]; a
    /// streaming op (`Compact`, `Reestimate`, `Bootstrap`) is a typed
    /// [`StorageError::StreamingOp`], since only `hos-miner stream
    /// --wal` can replay those.
    pub fn new(snap: &Snapshot, tail: &[(u64, Op)]) -> Result<Self> {
        let model_text = snap.meta().model.as_deref().ok_or_else(|| {
            StorageError::BadHeader("snapshot carries no model; cannot rebuild a miner".into())
        })?;
        let model = ModelFile::from_text(model_text).map_err(StorageError::Model)?;
        let mut dataset = snap.to_dataset()?;
        for (seq, op) in tail {
            match op {
                Op::Insert(row) => {
                    dataset.push_row(row)?;
                }
                // An id past `usize` is out of range like any other.
                Op::Retire(id) => dataset.remove_row(usize::try_from(*id).unwrap_or(usize::MAX))?,
                streaming => {
                    return Err(StorageError::StreamingOp {
                        seq: *seq,
                        op: streaming.name(),
                    })
                }
            }
        }
        Ok(Folded { model, dataset })
    }

    /// Rows of the folded dataset, dead ones included: what the engine
    /// build partitions.
    pub fn rows(&self) -> usize {
        self.dataset.len()
    }

    /// Builds the engine once over the folded dataset (dead rows are
    /// skipped by every engine's build) and installs the snapshot's
    /// model.
    pub fn into_miner(self, config: &HosMinerConfig) -> Result<HosMiner> {
        let model = LearnedModel {
            priors: self.model.priors,
            samples: self.model.samples,
            threshold: self.model.threshold,
            total_stats: SearchStats::default(),
        };
        HosMiner::from_parts(self.dataset, *config, model).map_err(StorageError::Model)
    }
}

/// The snapshot's `search_width` field for a miner: always 0, since
/// both engines are exact and neither has a search width. The v1
/// layout keeps the field so existing data directories still open.
pub fn snapshot_search_width(_miner: &HosMiner) -> u64 {
    0
}

/// Checkpoints a fitted miner into `store` ([`Store::snapshot`]): its
/// dataset, its model as [`ModelFile`] text, and the stream counters
/// `carry = (base, oldest, rows_consumed)` that recovery hands back.
pub fn snapshot_miner(
    store: &mut Store,
    miner: &HosMiner,
    (base, oldest, rows_consumed): (u64, u64, u64),
) -> Result<PathBuf> {
    let model = ModelFile::from_miner(miner).to_text();
    store.snapshot(&SnapshotState {
        dataset: miner.engine().dataset(),
        model: Some(&model),
        base,
        oldest,
        rows_consumed,
        search_width: snapshot_search_width(miner),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_snapshot, SnapshotContents};
    use hos_data::synth::uniform;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hos-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recovered_miner_answers_bit_identically() {
        let dir = temp_dir("bitident");
        let mut ds = uniform(150, 4, 0.0, 1.0, 3).unwrap();
        ds.push_row(&[9.0, 0.5, 0.5, 0.5]).unwrap();
        let config = HosMinerConfig {
            k: 4,
            sample_size: 10,
            ..HosMinerConfig::default()
        };
        let mut original = HosMiner::fit(ds, config).unwrap();
        // Mutate: retire a few, insert one — the snapshot must capture
        // the tombstoned shape.
        original.retire_point(3).unwrap();
        original.retire_point(77).unwrap();
        original.insert_point(&[0.25, 0.25, 0.25, 0.25]).unwrap();
        let model_text = ModelFile::from_miner(&original).to_text();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 12,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: snapshot_search_width(&original),
                dataset: original.engine().dataset(),
                model: Some(&model_text),
                meta: &config_fingerprint(&config, None),
            },
        )
        .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let recovered = miner_from_snapshot(&snap, &config).unwrap();
        assert_eq!(
            recovered.threshold().to_bits(),
            original.threshold().to_bits()
        );
        assert_eq!(recovered.live_len(), original.live_len());
        for id in [0usize, 50, 150, 151] {
            let a = original.query_id(id).unwrap();
            let b = recovered.query_id(id).unwrap();
            assert_eq!(a.minimal, b.minimal, "point {id}");
            assert_eq!(a.outlying.len(), b.outlying.len(), "point {id}");
            assert_eq!(a.stats.od_evals, b.stats.od_evals, "point {id}");
            assert_eq!(a.stats.nodes_visited, b.stats.nodes_visited, "point {id}");
        }
        // Dead ids stay dead on both sides.
        assert!(original.query_id(3).is_err());
        assert!(recovered.query_id(3).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every bit of an answer: the outlying set with each evaluated OD,
    /// the minimal frontier and the search accounting.
    fn answer_bits(out: &hos_core::miner::QueryOutcome) -> impl PartialEq + std::fmt::Debug {
        let outlying: Vec<_> = out
            .outlying
            .iter()
            .map(|s| (s.subspace, s.od.map(f64::to_bits)))
            .collect();
        let stats = SearchStats {
            seconds: 0.0,
            ..out.stats
        };
        (outlying, out.minimal.clone(), stats)
    }

    /// The X-tree arm: the recovered tree is bulk-loaded over every
    /// snapshot row, then retires the tombstones and replays a WAL tail
    /// by insertion; the live miner was bulk-loaded at fit and has been
    /// insertion-maintained since. Tree shapes differ, answers may not.
    #[test]
    fn recovered_xtree_miner_answers_bit_identically() {
        use rand::{Rng, SeedableRng};
        let dir = temp_dir("xtree");
        let mut ds = uniform(1200, 5, 0.0, 1.0, 7).unwrap();
        ds.push_row(&[0.5, 9.0, 0.5, 0.5, 0.5]).unwrap();
        let config = HosMinerConfig {
            k: 4,
            sample_size: 8,
            engine: hos_index::Engine::XTree,
            // A low threshold, so most answers carry evaluated ODs.
            threshold: hos_core::ThresholdPolicy::FullSpaceQuantile {
                q: 0.5,
                sample: 200,
            },
            ..HosMinerConfig::default()
        };
        let mut live = HosMiner::fit(ds, config).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let row = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
            (0..5).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        for id in (0..1200).step_by(40) {
            live.retire_point(id).unwrap();
        }
        for _ in 0..25 {
            live.insert_point(&row(&mut rng)).unwrap();
        }
        let model_text = ModelFile::from_miner(&live).to_text();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 55,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: snapshot_search_width(&live),
                dataset: live.engine().dataset(),
                model: Some(&model_text),
                meta: &config_fingerprint(&config, None),
            },
        )
        .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert!(!snap.dead_ids().is_empty());
        let mut recovered = miner_from_snapshot(&snap, &config).unwrap();
        // The WAL tail: inserts and retires, applied to both.
        for step in 0..400 {
            if step % 3 == 0 {
                let id = rng.gen_range(0..live.engine().dataset().len());
                if live.engine().dataset().is_live(id) {
                    live.retire_point(id).unwrap();
                    recovered.retire_point(id).unwrap();
                }
            } else {
                let r = row(&mut rng);
                assert_eq!(
                    live.insert_point(&r).unwrap(),
                    recovered.insert_point(&r).unwrap()
                );
            }
        }
        assert_eq!(recovered.live_len(), live.live_len());
        assert_eq!(recovered.threshold().to_bits(), live.threshold().to_bits());
        let n = live.engine().dataset().len();
        let (mut queried, mut ods) = (0, 0);
        for id in (0..n).step_by(3).chain([1200]) {
            match (live.query_id(id), recovered.query_id(id)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(answer_bits(&a), answer_bits(&b), "point {id}");
                    queried += 1;
                    ods += a.outlying.iter().filter(|s| s.od.is_some()).count();
                }
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "point {id}"),
            }
        }
        assert!(queried > 300 && ods > 100, "{queried} answers, {ods} ODs");
        let q = [0.5, 0.5, 9.0, 0.5, 0.1];
        assert_eq!(
            answer_bits(&live.query_point(&q).unwrap()),
            answer_bits(&recovered.query_point(&q).unwrap())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `miner`'s state as a snapshot into `dir` and opens it.
    fn snapshot_of(dir: &std::path::Path, miner: &HosMiner) -> Snapshot {
        let model_text = ModelFile::from_miner(miner).to_text();
        let path = write_snapshot(
            dir,
            &SnapshotContents {
                seq: 1,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: snapshot_search_width(miner),
                dataset: miner.engine().dataset(),
                model: Some(&model_text),
                meta: &config_fingerprint(miner.config(), None),
            },
        )
        .unwrap();
        Snapshot::open(&path).unwrap()
    }

    /// A coarse-grid row, so distance ties at the k-th neighbour are
    /// common and the `(distance, id)` tie-break is exercised.
    fn grid_row(rng: &mut rand::rngs::StdRng, d: usize) -> Vec<f64> {
        use rand::Rng;
        (0..d).map(|_| rng.gen_range(0..6) as f64 * 0.5).collect()
    }

    /// A random insert/retire tail over `snap`'s dataset with every op
    /// valid at its position: retires of live snapshot rows, retires
    /// of earlier tail rows, and rows inserted and retired again
    /// within the tail.
    fn random_tail(snap: &Snapshot, seed: u64, len: usize) -> Vec<(u64, Op)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ds = snap.to_dataset().unwrap();
        let (base, d) = (ds.len(), ds.dim());
        let mut ops = Vec::with_capacity(len + 1);
        while ops.len() < len {
            let pick = |rng: &mut rand::rngs::StdRng, ids: Vec<usize>| {
                (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())] as u64)
            };
            let live: Vec<usize> = ds.live_ids().collect();
            let (fitted, tail): (Vec<usize>, Vec<usize>) = live.iter().partition(|&&i| i < base);
            let batch = match rng.gen_range(0..4) {
                0 if fitted.len() > 20 => vec![Op::Retire(pick(&mut rng, fitted).unwrap())],
                1 => pick(&mut rng, tail).map(Op::Retire).into_iter().collect(),
                // Inserted, then retired by the very next op.
                2 => vec![
                    Op::Insert(grid_row(&mut rng, d)),
                    Op::Retire(ds.len() as u64),
                ],
                _ => vec![Op::Insert(grid_row(&mut rng, d))],
            };
            for op in batch {
                match &op {
                    Op::Insert(row) => drop(ds.push_row(row).unwrap()),
                    Op::Retire(id) => ds.remove_row(*id as usize).unwrap(),
                    _ => unreachable!(),
                }
                ops.push((ops.len() as u64 + 2, op));
            }
        }
        ops
    }

    /// Recovers `tail` over `snap` both ways — folded ([`recover_miner`])
    /// and op by op through the incremental engine path — and demands
    /// the same answers for every id, bit for bit.
    fn assert_fold_equals_replay(snap: Snapshot, tail: Vec<(u64, Op)>, config: &HosMinerConfig) {
        let mut replayed = miner_from_snapshot(&snap, config).unwrap();
        for (_, op) in &tail {
            match op {
                Op::Insert(row) => drop(replayed.insert_point(row).unwrap()),
                Op::Retire(id) => replayed.retire_point(*id as usize).unwrap(),
                _ => unreachable!(),
            }
        }
        let recovery = Recovery {
            snapshot: Some(snap),
            ops: tail,
            truncated_tail: false,
        };
        let folded = recover_miner(&recovery, config).unwrap();
        let (a, b) = (folded.engine().dataset(), replayed.engine().dataset());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.live_len(), b.live_len());
        assert_eq!(folded.threshold().to_bits(), replayed.threshold().to_bits());
        let (mut answered, mut ods) = (0, 0);
        for id in 0..a.len() {
            assert_eq!(a.is_live(id), b.is_live(id), "liveness of {id}");
            match (folded.query_id(id), replayed.query_id(id)) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(answer_bits(&x), answer_bits(&y), "point {id}");
                    answered += 1;
                    ods += x.outlying.iter().filter(|s| s.od.is_some()).count();
                }
                (x, y) => assert_eq!(x.is_err(), y.is_err(), "point {id}"),
            }
        }
        assert_eq!(answered, a.live_len());
        assert!(4 * ods >= answered, "{answered} answers, {ods} ODs");
        let q = vec![1.25; a.dim()];
        assert_eq!(
            answer_bits(&folded.query_point(&q).unwrap()),
            answer_bits(&replayed.query_point(&q).unwrap())
        );
        // One bulk load over the live rows: the folded X-tree holds no
        // tombstones, where the op-by-op path carries every retire it
        // has not yet compacted away.
        let tail_retires = recovery
            .ops
            .iter()
            .any(|(_, op)| matches!(op, Op::Retire(_)));
        if let Some(tree) = folded.engine().as_xtree() {
            if tail_retires {
                assert_eq!(tree.stale_points(), 0);
            }
        }
    }

    /// A fitted miner over a coarse grid whose snapshot already holds
    /// tombstones.
    fn churned_miner(config: HosMinerConfig, seed: u64) -> HosMiner {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..240).map(|_| grid_row(&mut rng, 4)).collect();
        let mut miner =
            HosMiner::fit(hos_data::Dataset::from_rows(&rows).unwrap(), config).unwrap();
        for _ in 0..20 {
            let id = rng.gen_range(0..240);
            if miner.engine().dataset().is_live(id) {
                miner.retire_point(id).unwrap();
            }
        }
        miner
    }

    /// The arms the fold must match: both exact engines, and the linear
    /// scan split into two row ranges.
    fn arms() -> [HosMinerConfig; 3] {
        let base = HosMinerConfig {
            k: 4,
            sample_size: 6,
            // A low threshold, so most answers carry evaluated ODs.
            threshold: hos_core::ThresholdPolicy::FullSpaceQuantile {
                q: 0.5,
                sample: 100,
            },
            ..HosMinerConfig::default()
        };
        [
            base,
            HosMinerConfig {
                engine: hos_index::Engine::XTree,
                ..base
            },
            HosMinerConfig {
                engine: hos_index::Engine::Linear,
                shards: 2,
                ..base
            },
        ]
    }

    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Folding a random tail into the data and building once
        /// answers like replaying it op by op, on every engine arm.
        #[test]
        fn tail_fold_equals_op_by_op_replay(seed in 0u64..1_000_000, len in 1usize..160) {
            for (arm, config) in arms().into_iter().enumerate() {
                let dir = temp_dir(&format!("fold-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                let snap = snapshot_of(&dir, &churned_miner(config, seed));
                prop_assert!(!snap.dead_ids().is_empty(), "arm {arm}");
                let tail = random_tail(&snap, seed ^ 0x5eed, len);
                assert_fold_equals_replay(snap, tail, &config);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// The X-tree the fold builds holds no tombstones, where the same
    /// recovery op by op still carries the snapshot's and the tail's
    /// retires in its nodes.
    #[test]
    fn folded_xtree_holds_no_stale_points() {
        let dir = temp_dir("stale");
        let config = arms()[1];
        let snap = snapshot_of(&dir, &churned_miner(config, 3));
        let tail = random_tail(&snap, 4, 60);
        let mut replayed = miner_from_snapshot(&snap, &config).unwrap();
        for (_, op) in &tail {
            match op {
                Op::Insert(row) => drop(replayed.insert_point(row).unwrap()),
                Op::Retire(id) => replayed.retire_point(*id as usize).unwrap(),
                _ => unreachable!(),
            }
        }
        let stale = |m: &HosMiner| m.engine().as_xtree().unwrap().stale_points();
        assert!(stale(&replayed) > 0, "the op-by-op path keeps tombstones");
        let recovery = Recovery {
            snapshot: Some(snap),
            ops: tail,
            truncated_tail: false,
        };
        assert_eq!(stale(&recover_miner(&recovery, &config).unwrap()), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every tail op the live miner would have refused is a typed
    /// error at recovery, never a panic, and so is a streaming op.
    #[test]
    fn invalid_and_streaming_tail_ops_are_typed_errors() {
        let dir = temp_dir("badtail");
        let config = arms()[1];
        let miner = churned_miner(config, 9);
        let dead = (0..240)
            .find(|&i| !miner.engine().dataset().is_live(i))
            .unwrap() as u64;
        let snap = snapshot_of(&dir, &miner);
        let mut recovery = Recovery {
            snapshot: Some(snap),
            ops: Vec::new(),
            truncated_tail: false,
        };
        let fresh = vec![0.5; 4];
        let bad_tails: Vec<Vec<Op>> = vec![
            vec![Op::Retire(dead)],
            vec![Op::Retire(240)],
            vec![Op::Retire(u64::MAX)],
            vec![Op::Insert(fresh.clone()), Op::Retire(240), Op::Retire(240)],
            vec![Op::Insert(vec![0.5; 3])],
            vec![Op::Insert(vec![0.5; 5])],
            vec![Op::Insert(vec![0.5, f64::NAN, 0.5, 0.5])],
            vec![Op::Insert(vec![0.5, 0.5, f64::INFINITY, 0.5])],
        ];
        for tail in bad_tails {
            recovery.ops = tail
                .into_iter()
                .enumerate()
                .map(|(i, op)| (i as u64 + 2, op))
                .collect();
            match recover_miner(&recovery, &config) {
                Err(StorageError::Data(_)) => {}
                Err(e) => panic!("{:?}: expected a data error, got {e}", recovery.ops),
                Ok(_) => panic!("{:?}: recovered", recovery.ops),
            }
        }
        for op in [Op::Compact, Op::Reestimate, Op::Bootstrap] {
            let name = op.name();
            recovery.ops = vec![(2, Op::Insert(fresh.clone())), (3, op)];
            match recover_miner(&recovery, &config) {
                Err(e @ StorageError::StreamingOp { seq: 3, .. }) => {
                    let msg = e.to_string();
                    assert!(msg.contains(name), "{msg}");
                    assert!(msg.contains("hos-miner stream --wal DIR"), "{msg}");
                }
                Err(e) => panic!("{name}: expected a streaming-op error, got {e}"),
                Ok(_) => panic!("{name}: recovered"),
            }
        }
        // And a store that never reached a snapshot has nothing to
        // fold into.
        recovery.snapshot = None;
        recovery.ops.clear();
        assert!(matches!(
            recover_miner(&recovery, &config),
            Err(StorageError::BadHeader(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn modelless_snapshot_is_typed_error() {
        let dir = temp_dir("nomodel");
        let ds = uniform(30, 3, 0.0, 1.0, 1).unwrap();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 0,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: 0,
                dataset: &ds,
                model: None,
                meta: "",
            },
        )
        .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let config = HosMinerConfig::default();
        assert!(miner_from_snapshot(&snap, &config).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_separates_result_affecting_flags() {
        let base = HosMinerConfig::default();
        let a = config_fingerprint(&base, None);
        assert_eq!(a, config_fingerprint(&base, None));
        // The bytes existing data directories were written with.
        assert_eq!(
            a,
            "v1 k=5 metric=L2 engine=linear threshold=FullSpaceQuantile \
             { q: 0.95, sample: 200 } samples=20 smoothing=1.0 seed=0"
        );
        let xtree = HosMinerConfig {
            engine: hos_index::Engine::XTree,
            ..base
        };
        assert_eq!(
            config_fingerprint(&xtree, None),
            "v1 k=5 metric=L2 engine=xtree threshold=FullSpaceQuantile \
             { q: 0.95, sample: 200 } samples=20 smoothing=1.0 seed=0"
        );
        let mut k9 = base;
        k9.k = 9;
        assert_ne!(a, config_fingerprint(&k9, None));
        assert_ne!(a, config_fingerprint(&base, Some(500)));
        // Machine knobs do NOT change the fingerprint.
        let mut fast = base;
        fast.threads = 8;
        fast.shards = 4;
        assert_eq!(a, config_fingerprint(&fast, None));
    }
}
