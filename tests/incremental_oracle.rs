//! Differential-equivalence harness for incremental maintenance: the
//! PR's pinning test.
//!
//! For proptest-generated sequences of insert/remove/query operations,
//! the incrementally-maintained engine must be indistinguishable from
//! a **cold rebuild** over the surviving rows — across both engine
//! kinds (linear scan, X-tree), every metric, and the linear scan
//! split into 1..=4 row ranges:
//!
//! * **ODs bit-identical** (`assert_eq!` on `f64`, no epsilon): the
//!   distances are computed by the same code over the same row bytes
//!   and summed in the same ascending `(distance, id)` order whichever
//!   maintenance path produced the candidate set.
//! * **Top-k neighbour lists identical** after translating ids through
//!   the compaction map (incremental ids are append-only and the map
//!   is strictly increasing, so the `(distance, id)` tie-break order
//!   is preserved by the translation).
//!
//! A deterministic miner-level differential test extends the statement
//! end to end: `HosMiner::insert_point`/`retire_point` against a fresh
//! `HosMiner::fit` on the compacted dataset.

use hos_miner::core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_miner::data::{Dataset, Metric, PointId};
use hos_miner::index::knn::build_engine;
use hos_miner::index::{Engine, KnnEngine, LazyContextEvaluator};
use hos_miner::Subspace;
use proptest::prelude::*;

const D: usize = 3;
const K: usize = 3;

/// The engine arms as `(kind, row ranges)`: the linear scan split into
/// 1..=4 ranges, and the X-tree, which has no cached walk to split.
const ARMS: [(Engine, usize); 5] = [
    (Engine::Linear, 1),
    (Engine::Linear, 2),
    (Engine::Linear, 3),
    (Engine::Linear, 4),
    (Engine::XTree, 1),
];

/// One step of a generated stream.
#[derive(Clone, Debug)]
enum Op {
    /// Append this row.
    Insert(Vec<f64>),
    /// Remove the live point at this (index modulo live-count)
    /// position — resolved against the current live set at apply time.
    Remove(usize),
}

/// Coarse grid values force plenty of exact distance ties, so the
/// `(distance, id)` tie-break is genuinely exercised by the
/// equivalence assertions.
fn arb_row() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..8).prop_map(|v| v as f64 * 0.5), D)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            arb_row().prop_map(Op::Insert),
            (0usize..64).prop_map(Op::Remove),
        ],
        1..16,
    )
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

/// The mirror the oracle is rebuilt from: the live rows in insertion
/// order, each tagged with its id in the *incremental* engine.
struct Mirror {
    live: Vec<(PointId, Vec<f64>)>,
    next_id: PointId,
}

impl Mirror {
    fn new(rows: &[Vec<f64>]) -> Mirror {
        Mirror {
            live: rows.iter().cloned().enumerate().collect(),
            next_id: rows.len(),
        }
    }

    fn dataset(&self) -> Dataset {
        let rows: Vec<Vec<f64>> = self.live.iter().map(|(_, r)| r.clone()).collect();
        if rows.is_empty() {
            Dataset::empty()
        } else {
            Dataset::from_rows(&rows).unwrap()
        }
    }
}

/// Asserts that the incremental engine and a cold rebuild agree on
/// every subspace OD (bitwise) and every top-k neighbour list (ids
/// translated through the mirror's id map) for a spread of query
/// points — external and live members alike.
fn assert_equivalent(
    inc: &dyn KnnEngine,
    mirror: &Mirror,
    kind: Engine,
    metric: Metric,
    shards: usize,
    step: usize,
) {
    let cold_ds = mirror.dataset();
    let cold = build_engine(kind, cold_ds, metric, shards);
    let ctx = format!("{kind} metric={metric:?} shards={shards} step={step}");

    // Queries: one external probe plus up to three live members.
    let mut queries: Vec<(Vec<f64>, Option<usize>)> = vec![(vec![1.25; D], None)];
    for idx in [
        0usize,
        mirror.live.len() / 2,
        mirror.live.len().saturating_sub(1),
    ] {
        if idx < mirror.live.len() {
            queries.push((mirror.live[idx].1.clone(), Some(idx)));
        }
    }

    for (q, cold_exclude) in queries {
        let inc_exclude = cold_exclude.map(|j| mirror.live[j].0);
        let k = K.min(
            mirror
                .live
                .len()
                .saturating_sub(usize::from(cold_exclude.is_some())),
        );
        for s in Subspace::all_nonempty(D) {
            let a = inc.knn(&q, k, s, inc_exclude);
            let b = cold.knn(&q, k, s, cold_exclude);
            assert_eq!(a.len(), b.len(), "{ctx} {s}: lengths differ");
            for (x, y) in a.iter().zip(&b) {
                // Bitwise distance equality AND exact id correspondence
                // through the (strictly increasing) compaction map.
                assert_eq!(x.dist, y.dist, "{ctx} {s}: distances differ");
                assert_eq!(
                    x.id, mirror.live[y.id].0,
                    "{ctx} {s}: ids differ beyond the compaction map"
                );
            }
            assert_eq!(
                inc.od(&q, k, s, inc_exclude),
                cold.od(&q, k, s, cold_exclude),
                "{ctx} {s}: OD differs"
            );
        }
        // The evaluator path (what the dynamic search actually calls)
        // agrees too, through its cached and uncached phases — and,
        // since the prefix-stack port, the batch runs the walker
        // kernel: pin it against BOTH the cold rebuild and the direct
        // per-subspace engine queries (no walker, no cache), so the
        // walker is bit-identical to the canonical combine across
        // engines, metrics, shard counts and mutation histories.
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(D).collect();
        let direct: Vec<f64> = subspaces
            .iter()
            .map(|&s| inc.od(&q, k, s, inc_exclude))
            .collect();
        let mut ev_inc = LazyContextEvaluator::new(inc, &q, k, inc_exclude);
        let mut ev_cold = LazyContextEvaluator::new(cold.as_ref(), &q, k, cold_exclude);
        let batch = ev_inc.od_batch(&subspaces, 2);
        assert_eq!(
            batch,
            ev_cold.od_batch(&subspaces, 2),
            "{ctx}: evaluator batch differs"
        );
        assert_eq!(batch, direct, "{ctx}: walker batch != direct engine ODs");

        // Where the engine hands out a distance cache, drive the
        // standalone PrefixWalker over the whole lattice (walker order
        // AND adversarial mask order) and pin ODs and top-k neighbour
        // lists against the direct QueryContext combine, bit for bit.
        if let Some(walk_ctx) = inc.query_context(&q) {
            let mut w = walk_ctx.walker();
            let mut ordered = subspaces.clone();
            ordered.sort_by(|a, b| a.walk_cmp(*b));
            for pass in [&ordered, &subspaces] {
                for &s in pass {
                    w.seek(s);
                    assert_eq!(
                        w.od(k, inc_exclude),
                        walk_ctx.od(k, s, inc_exclude),
                        "{ctx} {s}: walker OD != direct combine"
                    );
                    assert_eq!(
                        w.knn(k, inc_exclude),
                        walk_ctx.knn(k, s, inc_exclude),
                        "{ctx} {s}: walker top-k != direct combine"
                    );
                }
            }
        }
    }
}

/// Applies one op to both the incremental engine and the mirror.
fn apply(op: &Op, inc: &mut Box<dyn KnnEngine>, mirror: &mut Mirror) {
    match op {
        Op::Insert(row) => {
            let id = inc.insert(row).expect("valid insert");
            assert_eq!(id, mirror.next_id, "insert ids are append-only");
            mirror.live.push((id, row.clone()));
            mirror.next_id += 1;
        }
        Op::Remove(pick) => {
            if mirror.live.is_empty() {
                return;
            }
            let idx = pick % mirror.live.len();
            let (id, _) = mirror.live.remove(idx);
            inc.remove(id).expect("valid remove");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: after EVERY op in a random stream, the
    /// incremental engine state is bit-identical (ODs, neighbour
    /// lists, evaluator batches) to a cold rebuild — for both engine
    /// kinds, every metric, and the linear scan split into 1..=4 row
    /// ranges, recomputed after every op.
    #[test]
    fn incremental_state_equals_cold_rebuild(
        initial in prop::collection::vec(arb_row(), 8..20),
        ops in arb_ops(),
        metric in arb_metric(),
    ) {
        for (kind, shards) in ARMS {
            let mut inc = build_engine(kind, Dataset::from_rows(&initial).unwrap(), metric, shards);
            let mut mirror = Mirror::new(&initial);
            assert_equivalent(inc.as_ref(), &mirror, kind, metric, shards, 0);
            for (step, op) in ops.iter().enumerate() {
                apply(op, &mut inc, &mut mirror);
                assert_equivalent(inc.as_ref(), &mirror, kind, metric, shards, step + 1);
            }
        }
    }
}

/// Deterministic, denser long-run variant: hundreds of ops drive the
/// X-tree through several bounded re-bulk-loads; equivalence is
/// checked at checkpoints.
#[test]
fn long_streams_with_rebuilds_stay_equivalent() {
    // A deterministic pseudo-stream with values drifting out of the
    // initial range (every insert lands outside the X-tree's build-time
    // bounding boxes) and heavy removal pressure (forces X-tree
    // re-bulk-loads).
    let initial: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 5) as f64, (i % 7) as f64 * 0.5, (i % 3) as f64])
        .collect();
    let mut ops = Vec::new();
    for i in 0..220usize {
        if i % 3 == 0 {
            ops.push(Op::Remove(i * 7 + 1));
        } else {
            // Drift: coordinates wander far beyond the build range.
            let t = i as f64;
            ops.push(Op::Insert(vec![
                10.0 + t * 0.5,
                -(t * 0.25),
                (i % 9) as f64,
            ]));
        }
    }
    for (kind, shards) in [(Engine::Linear, 1), (Engine::Linear, 3), (Engine::XTree, 1)] {
        for metric in [Metric::L2, Metric::LInf] {
            let mut inc = build_engine(kind, Dataset::from_rows(&initial).unwrap(), metric, shards);
            let mut mirror = Mirror::new(&initial);
            for (step, op) in ops.iter().enumerate() {
                apply(op, &mut inc, &mut mirror);
                if step % 20 == 19 || step + 1 == ops.len() {
                    assert_equivalent(inc.as_ref(), &mirror, kind, metric, shards, step + 1);
                }
            }
            // The stream kept a healthy live set throughout.
            assert!(inc.dataset().live_len() > K, "{kind} shards={shards}");
        }
    }
}

/// Miner-level differential: insert/retire through `HosMiner` equals a
/// fresh fit on the compacted dataset — outcomes (outlying sets,
/// minimal frontiers, evaluation counts) are identical once member ids
/// pass through the compaction map.
#[test]
fn miner_incremental_equals_refit_on_compacted_data() {
    let mut rows: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            vec![
                (i % 8) as f64 * 0.25,
                (i % 5) as f64 * 0.25,
                (i % 3) as f64 * 0.25,
            ]
        })
        .collect();
    rows.push(vec![40.0, 0.25, 0.5]); // outlying along dim 0
    let config = HosMinerConfig {
        k: 4,
        threshold: ThresholdPolicy::Fixed(8.0),
        sample_size: 0, // uniform priors: fit is dataset-order invariant
        ..HosMinerConfig::default()
    };
    for (engine, shards) in ARMS {
        let cfg = HosMinerConfig {
            engine,
            shards,
            threads: 2,
            ..config
        };
        let mut inc = HosMiner::fit(Dataset::from_rows(&rows).unwrap(), cfg).unwrap();
        let mut mirror = Mirror::new(&rows);
        // Stream: retire a band of early rows, insert replacements
        // plus a fresh outlier along dim 2.
        for id in [3usize, 9, 17, 25, 33] {
            inc.retire_point(id).unwrap();
            let pos = mirror.live.iter().position(|(mid, _)| *mid == id).unwrap();
            mirror.live.remove(pos);
        }
        for j in 0..6 {
            let row = vec![(j % 4) as f64 * 0.25, (j % 3) as f64 * 0.25, 0.25];
            let id = inc.insert_point(&row).unwrap();
            mirror.live.push((id, row));
        }
        let out_row = vec![0.5, 0.25, 60.0];
        let out_id = inc.insert_point(&out_row).unwrap();
        mirror.live.push((out_id, out_row));

        let cold = HosMiner::fit(mirror.dataset(), cfg).unwrap();
        assert_eq!(inc.threshold(), cold.threshold());
        // Every live member: identical outcome through the id map.
        for (cold_id, (inc_id, _)) in mirror.live.iter().enumerate() {
            let a = inc.query_id(*inc_id).unwrap();
            let b = cold.query_id(cold_id).unwrap();
            assert_eq!(
                a.outlying, b.outlying,
                "{engine} shards={shards} id={inc_id}"
            );
            assert_eq!(a.minimal, b.minimal, "{engine} shards={shards} id={inc_id}");
            assert_eq!(
                a.stats.od_evals, b.stats.od_evals,
                "{engine} shards={shards} id={inc_id}"
            );
        }
        // The fresh outlier is found exactly where it was planted.
        let out = inc.query_id(out_id).unwrap();
        assert_eq!(out.minimal, vec![Subspace::from_dims(&[2])], "{engine}");
        // External probes agree without any id mapping.
        let probe = vec![0.1, 0.2, 0.3];
        assert_eq!(
            inc.query_point(&probe).unwrap().outlying,
            cold.query_point(&probe).unwrap().outlying
        );
    }
}

/// The k >= n / empty-dataset regression, exercised end to end at the
/// workspace level: removals drive every engine below `k` and all the
/// way to empty; checked queries return the typed error and unchecked
/// ones degrade gracefully (shorter lists), never panicking.
#[test]
fn draining_every_engine_below_k_is_a_typed_error() {
    use hos_miner::index::IndexError;
    let rows: Vec<Vec<f64>> = (0..6)
        .map(|i| vec![i as f64, (i % 2) as f64, 0.0])
        .collect();
    for (kind, shards) in ARMS {
        let mut e = build_engine(kind, Dataset::from_rows(&rows).unwrap(), Metric::L2, shards);
        let s = Subspace::full(3);
        for id in 0..6 {
            let removed = 6 - e.dataset().live_len();
            let expect_err = e.dataset().live_len() < K;
            let got = e.try_knn(&[0.0; 3], K, s, None);
            if expect_err {
                assert_eq!(
                    got,
                    Err(IndexError::InsufficientPoints {
                        available: e.dataset().live_len(),
                        k: K
                    }),
                    "{kind} shards={shards} removed={removed}"
                );
            } else {
                assert_eq!(got.unwrap().len(), K, "{kind} shards={shards}");
            }
            // Unchecked queries degrade to shorter lists, no panic.
            assert_eq!(
                e.knn(&[0.0; 3], K, s, None).len(),
                K.min(e.dataset().live_len()),
                "{kind} shards={shards}"
            );
            e.remove(id).unwrap();
        }
        // Fully drained: empty results, typed error on the checked path.
        assert!(e.knn(&[0.0; 3], K, s, None).is_empty());
        assert!(e.range(&[0.0; 3], 100.0, s, None).is_empty());
        assert_eq!(
            e.try_knn(&[0.0; 3], 1, s, None),
            Err(IndexError::InsufficientPoints { available: 0, k: 1 })
        );
    }
}
