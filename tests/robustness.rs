//! Robustness and failure-injection tests: degenerate datasets,
//! adversarial parameter choices, and the error paths a production
//! user would hit.

use hos_miner::core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_miner::data::{Dataset, Metric};
use hos_miner::index::{Engine, KnnEngine, LinearScan, XTree, XTreeConfig};
use hos_miner::Subspace;

fn cfg_fixed(t: f64, k: usize) -> HosMinerConfig {
    HosMinerConfig {
        k,
        threshold: ThresholdPolicy::Fixed(t),
        sample_size: 0,
        ..HosMinerConfig::default()
    }
}

#[test]
fn all_duplicate_points() {
    // Every pairwise distance is zero: nothing can be an outlier.
    let rows: Vec<Vec<f64>> = (0..30).map(|_| vec![1.0, 2.0, 3.0]).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let miner = HosMiner::fit(ds, cfg_fixed(0.001, 3)).unwrap();
    for id in [0, 15, 29] {
        let out = miner.query_id(id).unwrap();
        assert!(!out.is_outlier(), "duplicate point {id} flagged");
    }
    // But a distant external query is outlying everywhere.
    let out = miner.query_point(&[100.0, 2.0, 3.0]).unwrap();
    assert!(out.is_outlier());
    assert_eq!(out.minimal, vec![Subspace::from_dims(&[0])]);
}

#[test]
fn constant_columns() {
    // One live column among dead ones.
    let mut rows: Vec<Vec<f64>> = (0..40).map(|i| vec![5.0, i as f64, 7.0]).collect();
    rows.push(vec![5.0, 1000.0, 7.0]);
    let ds = Dataset::from_rows(&rows).unwrap();
    let miner = HosMiner::fit(ds, cfg_fixed(50.0, 3)).unwrap();
    let out = miner.query_id(40).unwrap();
    assert_eq!(out.minimal, vec![Subspace::from_dims(&[1])]);
    // The X-tree survives constant columns too.
    let ds2 = miner.engine().dataset().clone();
    let e = hos_miner::index::knn::build_engine(Engine::XTree, ds2, Metric::L2, 1);
    let nn = e.knn(&[5.0, 0.0, 7.0], 3, Subspace::full(3), None);
    assert_eq!(nn.len(), 3);
}

#[test]
fn k_equals_dataset_minus_one() {
    let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64]).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let miner = HosMiner::fit(ds, cfg_fixed(1.0, 9)).unwrap();
    let out = miner.query_id(0).unwrap();
    // With k = n - 1 every remaining point is a neighbour; ODs are
    // large, so everything is outlying and the minimal set is level 1.
    assert!(out.is_outlier());
    assert!(out.minimal.iter().all(|s| s.dim() == 1));
}

#[test]
fn threshold_extremes() {
    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 7) as f64, (i % 5) as f64, (i % 3) as f64])
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    // Minuscule threshold: every subspace outlying, minimal = singles.
    let lo = HosMiner::fit(ds.clone(), cfg_fixed(1e-9, 3)).unwrap();
    let out = lo.query_point(&[100.0, 100.0, 100.0]).unwrap();
    assert_eq!(out.outlying.len(), 7);
    assert_eq!(out.minimal.len(), 3);
    // Astronomical threshold: nothing outlying, 1 OD evaluation
    // settles it (full space below T prunes the whole lattice down).
    let hi = HosMiner::fit(ds, cfg_fixed(1e12, 3)).unwrap();
    let out = hi.query_point(&[100.0, 100.0, 100.0]).unwrap();
    assert!(!out.is_outlier());
    assert_eq!(out.stats.od_evals, 1);
}

#[test]
fn one_dimensional_data() {
    let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let miner = HosMiner::fit(ds, cfg_fixed(30.0, 2)).unwrap();
    let out = miner.query_point(&[1000.0]).unwrap();
    assert_eq!(out.minimal, vec![Subspace::from_dims(&[0])]);
    let inl = miner.query_id(10).unwrap();
    assert!(!inl.is_outlier());
}

#[test]
fn huge_coordinate_magnitudes() {
    // 1e12-scale coordinates: pre-metric accumulation must not
    // overflow into inf (1e12 squared = 1e24, well within f64).
    let rows: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![1e12 + i as f64 * 1e9, -1e12 + i as f64 * 1e9])
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    for (name, e) in [
        (
            "linear",
            Box::new(LinearScan::new(ds.clone(), Metric::L2)) as Box<dyn KnnEngine>,
        ),
        (
            "xtree",
            Box::new(XTree::build(ds.clone(), Metric::L2, XTreeConfig::default())),
        ),
    ] {
        let nn = e.knn(ds.row(0), 3, Subspace::full(2), Some(0));
        assert_eq!(nn.len(), 3, "{name}");
        assert!(nn.iter().all(|n| n.dist.is_finite()), "{name}");
    }
}

#[test]
fn adversarial_engine_agreement_on_grid_data() {
    // Integer-grid data maximises distance ties — the worst case for
    // heap-based selection determinism. All engines must agree on the
    // distance multiset.
    let mut rows = Vec::new();
    for x in 0..6 {
        for y in 0..6 {
            for z in 0..3 {
                rows.push(vec![x as f64, y as f64, z as f64]);
            }
        }
    }
    let ds = Dataset::from_rows(&rows).unwrap();
    let lin = LinearScan::new(ds.clone(), Metric::L1);
    let xt = XTree::build(ds.clone(), Metric::L1, XTreeConfig::default());
    for q in [[0.0, 0.0, 0.0], [2.5, 2.5, 1.5], [5.0, 0.0, 2.0]] {
        for s in [Subspace::full(3), Subspace::from_dims(&[0, 2])] {
            let a: Vec<f64> = lin.knn(&q, 8, s, None).iter().map(|n| n.dist).collect();
            let b: Vec<f64> = xt.knn(&q, 8, s, None).iter().map(|n| n.dist).collect();
            assert_eq!(a, b, "xtree vs linear at {q:?} {s}");
        }
    }
}

#[test]
fn error_paths_are_errors_not_panics() {
    let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
    // k >= n.
    assert!(HosMiner::fit(ds.clone(), cfg_fixed(1.0, 3)).is_err());
    // Non-positive threshold.
    assert!(HosMiner::fit(ds.clone(), cfg_fixed(0.0, 1)).is_err());
    assert!(HosMiner::fit(ds.clone(), cfg_fixed(f64::NAN, 1)).is_err());
    // Bad queries on a good miner.
    let miner = HosMiner::fit(ds, cfg_fixed(1.0, 1)).unwrap();
    assert!(miner.query_point(&[1.0]).is_err());
    assert!(miner.query_point(&[f64::INFINITY, 0.0]).is_err());
    assert!(miner.query_id(99).is_err());
}

#[test]
fn dataset_rejects_poison_values() {
    assert!(Dataset::from_rows(&[vec![f64::NAN]]).is_err());
    assert!(Dataset::from_rows(&[vec![f64::NEG_INFINITY]]).is_err());
    let mut ds = Dataset::empty();
    ds.push_row(&[1.0]).unwrap();
    assert!(ds.push_row(&[f64::NAN]).is_err());
    // The failed push must not have corrupted the dataset.
    assert_eq!(ds.len(), 1);
}

#[test]
fn learning_with_more_samples_than_points() {
    let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i % 4) as f64]).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let miner = HosMiner::fit(
        ds,
        HosMinerConfig {
            k: 2,
            threshold: ThresholdPolicy::Fixed(3.0),
            sample_size: 1000, // > n, must cap silently
            ..HosMinerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(miner.model().samples, 12);
}

#[test]
fn heavy_tailed_marginals_end_to_end() {
    // Skewed data: the exponential tail produces natural full-space
    // outliers; the pipeline must stay exact (dynamic == oracle) and
    // sane (answers non-empty only above threshold).
    use hos_miner::baselines::{exhaustive_search, ExhaustiveMode};
    use hos_miner::core::od::OdMode;
    use hos_miner::data::synth::skewed::{mixed_marginals, ColumnDist};
    let cols = [
        ColumnDist::Exponential { lambda: 1.0 },
        ColumnDist::LogNormal {
            mu: 0.0,
            sigma: 0.8,
        },
        ColumnDist::Normal { mean: 0.0, sd: 1.0 },
        ColumnDist::Uniform { lo: 0.0, hi: 1.0 },
    ];
    let ds = mixed_marginals(500, &cols, 19).unwrap();
    let miner = HosMiner::fit(
        ds.clone(),
        HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 200,
            },
            sample_size: 8,
            ..HosMinerConfig::default()
        },
    )
    .unwrap();
    let mut outliers = 0;
    for id in (0..500).step_by(25) {
        let out = miner.query_id(id).unwrap();
        let row: Vec<f64> = ds.row(id).to_vec();
        let oracle = exhaustive_search(
            miner.engine(),
            &row,
            Some(id),
            5,
            miner.threshold(),
            ExhaustiveMode::Full,
            OdMode::Raw,
        );
        let got: Vec<Subspace> = out.outlying.iter().map(|s| s.subspace).collect();
        assert_eq!(got, oracle.subspaces(), "point {id}");
        if out.is_outlier() {
            outliers += 1;
        }
    }
    // A 0.95-quantile threshold flags a handful of the sampled 20.
    assert!(outliers <= 5, "{outliers} of 20 skewed points flagged");
}

#[test]
fn xtree_survives_pathological_insert_orders() {
    // Sorted insertion order is the classic R-tree worst case.
    let mut rows: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![i as f64, (600 - i) as f64, (i * i % 101) as f64])
        .collect();
    rows.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
    let ds = Dataset::from_rows(&rows).unwrap();
    let t = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
    t.check_invariants().unwrap();
    let lin = LinearScan::new(ds.clone(), Metric::L2);
    for id in [0, 300, 599] {
        let q: Vec<f64> = ds.row(id).to_vec();
        let a = t.knn(&q, 4, Subspace::full(3), Some(id));
        let b = lin.knn(&q, 4, Subspace::full(3), Some(id));
        for (x, y) in a.iter().zip(&b) {
            assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }
}
