//! Snapshot → miner reconstruction, shared by `stream --wal`,
//! `fit --snapshot` consumers and `hos-serve --data-dir`.
//!
//! The recovered miner must answer **bit-identically** to the process
//! that wrote the snapshot, which pins three choices here:
//!
//! * the model (threshold, priors) comes from the embedded
//!   [`hos_core::ModelFile`] text — never re-learned;
//! * tombstones are re-applied through the incremental engine path
//!   over an all-live build (the op shape the engines' equivalence
//!   oracle guarantees), instead of asking index builders to accept a
//!   pre-tombstoned dataset;
//! * a width-tunable engine gets the *persisted* resolved width, not a
//!   fresh calibration — calibrating on the recovered window would
//!   resolve a different `ef` than the original fit did.

use crate::snapshot::Snapshot;
use crate::{Result, StorageError};
use hos_core::{HosMiner, HosMinerConfig, LearnedModel, ModelFile, SearchStats};

/// Flattens the replay-relevant configuration into the fingerprint
/// string stored in every WAL header and snapshot. Opening a store
/// with a different fingerprint is a typed error: replaying ops under
/// changed semantics (k, metric, engine, threshold policy, …) would
/// silently produce a different miner than the one that logged them.
/// Machine knobs that never change results (`--threads`, `--shards`)
/// are deliberately absent, so a restart may re-tune them freely.
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
    if let Some(ef) = config.ef {
        s.push_str(&format!(" ef={ef}"));
    }
    if let Some(rt) = config.recall_target {
        s.push_str(&format!(" recall-target={rt:?}"));
    }
    if let Some(w) = window {
        s.push_str(&format!(" window={w}"));
    }
    s
}

/// Rebuilds a ready-to-query miner from a snapshot: all-live engine
/// build, embedded model installed, tombstones retired incrementally,
/// persisted search width restored. `config` supplies the live
/// threshold *policy* (so later re-estimation replays identically)
/// and the machine knobs; everything learned comes from the snapshot.
pub fn miner_from_snapshot(snap: &Snapshot, config: &HosMinerConfig) -> Result<HosMiner> {
    let meta = snap.meta();
    let model_text = meta.model.as_deref().ok_or_else(|| {
        StorageError::BadHeader("snapshot carries no model; cannot rebuild a miner".into())
    })?;
    let mf = ModelFile::from_text(model_text).map_err(StorageError::Model)?;
    let ds = snap.to_dataset_all_live()?;
    let mut cfg = *config;
    // The persisted resolved width wins over both tuning flags; see
    // the module docs.
    cfg.ef = (meta.search_width > 0).then_some(meta.search_width as usize);
    cfg.recall_target = None;
    let model = LearnedModel {
        priors: mf.priors,
        samples: mf.samples,
        threshold: mf.threshold,
        total_stats: SearchStats::default(),
    };
    let mut miner = HosMiner::from_parts(ds, cfg, model).map_err(StorageError::Model)?;
    for id in snap.dead_ids() {
        miner.retire_point(id).map_err(StorageError::Model)?;
    }
    Ok(miner)
}

/// The resolved search width of a miner's engine, in snapshot
/// encoding (0 = the engine is not width-tunable).
pub fn snapshot_search_width(miner: &HosMiner) -> u64 {
    miner.engine().search_width().map_or(0, |w| w as u64)
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
