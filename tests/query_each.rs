//! Batch-query determinism: `HosMiner::query_each`, the one
//! multi-query path, must be indistinguishable from running every
//! query alone — same answer sets, same minimal frontiers, and the
//! same `SearchStats` evaluation accounting (everything except
//! wall-clock seconds) at any thread and shard count, whether a batch
//! holds many specs or one.

use hos_miner::core::search::{dynamic_search, SearchStats};
use hos_miner::core::{
    minimal_subspaces, HosMiner, HosMinerConfig, QueryOutcome, QuerySpec, ThresholdPolicy,
};
use hos_miner::data::{Dataset, Metric};
use hos_miner::index::MIN_SHARD_ROWS;
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
    sharded_miner(ds, metric, k, threshold, threads, 1)
}

/// [`miner`] over `shards` data shards.
fn sharded_miner(
    ds: Dataset,
    metric: Metric,
    k: usize,
    threshold: f64,
    threads: usize,
    shards: usize,
) -> HosMiner {
    HosMiner::fit(
        ds,
        HosMinerConfig {
            k,
            threshold: ThresholdPolicy::Fixed(threshold),
            metric,
            sample_size: 0,
            threads,
            shards,
            ..HosMinerConfig::default()
        },
    )
    .unwrap()
}

/// Asserts that `miner` answers `specs` exactly as `serial` says,
/// both as one batch and as one-spec batches.
fn assert_batches_match(miner: &HosMiner, specs: &[QuerySpec], serial: &[QueryOutcome], at: &str) {
    let batch = miner.query_each(specs);
    assert_eq!(serial.len(), batch.len());
    for (i, (a, b)) in serial.iter().zip(&batch).enumerate() {
        assert_outcome_eq(a, b.as_ref().unwrap(), &format!("query {i} {at}"));
    }
    for (i, (spec, a)) in specs.iter().zip(serial).enumerate() {
        let alone = miner.query_each(std::slice::from_ref(spec));
        assert_eq!(alone.len(), 1);
        let what = format!("query {i} alone {at}");
        assert_outcome_eq(a, alone[0].as_ref().unwrap(), &what);
    }
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
    for threads in [1, 2, 3, 8, 64] {
        miner.set_threads(threads);
        assert_batches_match(&miner, &specs, &serial, &format!("with {threads} threads"));
    }

    // Above the shard floor: a lone spec spreads its walks over the
    // shards, and every outcome still equals the serial unsharded one.
    let ds = dataset(21, 3 * MIN_SHARD_ROWS);
    let n = ds.len();
    let specs: Vec<QuerySpec> = [n - 2, n - 1, 0, 4321, n / 2]
        .into_iter()
        .map(QuerySpec::Member)
        .chain([QuerySpec::Point(vec![5.0; D])])
        .collect();
    let fit = |shards| sharded_miner(ds.clone(), Metric::L2, 4, 8.0, 1, shards);
    let serial: Vec<QueryOutcome> = fit(1)
        .query_each(&specs)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert!(serial[0].is_outlier() && serial[1].is_outlier());
    assert!(serial.iter().any(|o| !o.is_outlier()));
    for shards in [2, 3] {
        let mut miner = fit(shards);
        for threads in [1, 2, 3, 8] {
            miner.set_threads(threads);
            let at = format!("with {shards} shards and {threads} threads");
            assert_batches_match(&miner, &specs, &serial, &at);
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
