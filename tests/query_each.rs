//! Batch-query determinism: `HosMiner::query_each`, the one
//! multi-query path, must be indistinguishable from running every
//! query alone — same answer sets, same minimal frontiers, and the
//! same `SearchStats` evaluation accounting (everything except
//! wall-clock seconds) at any thread count.

use hos_miner::core::search::{dynamic_search, SearchStats};
use hos_miner::core::{
    minimal_subspaces, HosMiner, HosMinerConfig, QueryOutcome, QuerySpec, ThresholdPolicy,
};
use hos_miner::data::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const D: usize = 6;

fn dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat: Vec<f64> = (0..n * D).map(|_| rng.gen_range(0.0..10.0)).collect();
    // Two planted outliers: one along dim 0, one along dims {2,4}.
    flat.extend([90.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
    flat.extend([5.0, 5.0, 70.0, 5.0, 70.0, 5.0]);
    Dataset::from_flat(flat, D).unwrap()
}

/// A miner with uniform priors (no learning) and a fixed threshold.
fn miner(ds: Dataset, metric: Metric, k: usize, threshold: f64, threads: usize) -> HosMiner {
    HosMiner::fit(
        ds,
        HosMinerConfig {
            k,
            threshold: ThresholdPolicy::Fixed(threshold),
            metric,
            sample_size: 0,
            threads,
            ..HosMinerConfig::default()
        },
    )
    .unwrap()
}

fn assert_stats_eq(a: &SearchStats, b: &SearchStats, what: &str) {
    assert_eq!(a.od_evals, b.od_evals, "{what}: od_evals differ");
    assert_eq!(a.pruned_outlier, b.pruned_outlier, "{what}");
    assert_eq!(a.pruned_non_outlier, b.pruned_non_outlier, "{what}");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
    assert_eq!(a.lattice_size, b.lattice_size, "{what}");
}

fn assert_outcome_eq(a: &QueryOutcome, b: &QueryOutcome, what: &str) {
    assert_eq!(a.outlying, b.outlying, "{what}: answer sets differ");
    assert_eq!(a.minimal, b.minimal, "{what}: minimal sets differ");
    assert_stats_eq(&a.stats, &b.stats, what);
}

#[test]
fn query_each_deterministic_across_thread_counts() {
    let ds = dataset(5, 150);
    let n = ds.len();
    let specs: Vec<QuerySpec> = (0..n).step_by(7).map(QuerySpec::Member).collect();
    let mut miner = miner(ds, Metric::L2, 4, 25.0, 1);

    let serial: Vec<QueryOutcome> = miner
        .query_each(&specs)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    for threads in [2, 3, 8, 64] {
        miner.set_threads(threads);
        let parallel = miner.query_each(&specs);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            let what = format!("query {i} with {threads} threads");
            assert_outcome_eq(a, b.as_ref().unwrap(), &what);
        }
    }
}

#[test]
fn query_each_matches_standalone_dynamic_search() {
    let ds = dataset(9, 120);
    let n = ds.len();
    let miner = miner(ds, Metric::L1, 5, 30.0, 4);
    let ids = [n - 2, 0]; // planted outlier, background
    let specs: Vec<QuerySpec> = ids.iter().map(|&id| QuerySpec::Member(id)).collect();
    let batch = miner.query_each(&specs);
    for (&id, got) in ids.iter().zip(&batch) {
        let got = got.as_ref().unwrap();
        let row = miner.engine().dataset().row(id);
        let solo = dynamic_search(
            miner.engine(),
            row,
            Some(id),
            5,
            30.0,
            &miner.model().priors,
            1,
        );
        assert_eq!(got.outlying, solo.outlying, "point {id}");
        assert_eq!(
            got.minimal,
            minimal_subspaces(&solo.subspaces()),
            "point {id}"
        );
        assert_stats_eq(&got.stats, &solo.stats, "batch vs standalone");
    }
    assert!(
        batch[0].as_ref().unwrap().is_outlier(),
        "planted outlier not found"
    );
}

#[test]
fn miner_query_each_agrees_with_single_query_apis() {
    let miner = miner(dataset(13, 200), Metric::L2, 4, 25.0, 4);

    let ids: Vec<usize> = vec![200, 201, 0, 11, 42];
    let specs: Vec<QuerySpec> = ids.iter().map(|&id| QuerySpec::Member(id)).collect();
    let batch: Vec<QueryOutcome> = miner
        .query_each(&specs)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    for (&id, got) in ids.iter().zip(&batch) {
        let solo = miner.query_id(id).unwrap();
        assert_eq!(got.outlying, solo.outlying, "point {id}");
        assert_eq!(got.minimal, solo.minimal, "point {id}");
        assert_eq!(got.stats.od_evals, solo.stats.od_evals, "point {id}");
    }
    // The planted outliers are outlying; the background points vary
    // but must agree with the single-query API (checked above).
    assert!(batch[0].is_outlier());
    assert!(batch[1].is_outlier());

    let points = [vec![1e3; D], vec![5.0; D]];
    let specs: Vec<QuerySpec> = points.iter().cloned().map(QuerySpec::Point).collect();
    for (p, got) in points.iter().zip(miner.query_each(&specs)) {
        let got = got.unwrap();
        let solo = miner.query_point(p).unwrap();
        assert_eq!(got.outlying, solo.outlying);
        assert_eq!(got.minimal, solo.minimal);
    }
}
