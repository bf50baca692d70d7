//! Criterion micro-benchmarks for the k-NN engines (feeds E7):
//! X-tree vs linear scan across projected dimensionalities, timed on
//! the tree `build_engine` hands out, plus the X-tree's two builds.
//!
//! The served build (`build_engine`, the bulk loader) is also gated
//! against sequential insertion on the same machine: the bench fails
//! unless it builds at least [`BUILD_FLOOR`] times faster, so a served
//! build that has fallen back to insertion fails on any hardware.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hos_bench::assert_floor;
use hos_data::{Dataset, Metric, Subspace};
use hos_index::knn::build_engine;
use hos_index::{Engine, KnnEngine, LinearScan, XTree, XTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, d: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(42);
    // Clustered data, the regime the X-tree is built for.
    let centers: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    let mut flat = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = &centers[i % centers.len()];
        for &mu in c {
            flat.push(mu + rng.gen_range(-2.0..2.0));
        }
    }
    Dataset::from_flat(flat, d).unwrap()
}

fn bench_knn(c: &mut Criterion) {
    let n = 8000;
    let d = 12;
    let ds = dataset(n, d);
    let xtree = build_engine(Engine::XTree, ds.clone(), Metric::L2, 1);
    let linear = LinearScan::new(ds.clone(), Metric::L2);
    let query: Vec<f64> = ds.row(17).to_vec();

    let mut group = c.benchmark_group("knn_subspace");
    for sub_dim in [2usize, 6, 12] {
        let s = Subspace::from_dims(&(0..sub_dim).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::new("xtree", sub_dim), &s, |b, &s| {
            b.iter(|| black_box(xtree.knn(&query, 5, s, Some(17))));
        });
        group.bench_with_input(BenchmarkId::new("linear", sub_dim), &s, |b, &s| {
            b.iter(|| black_box(linear.knn(&query, 5, s, Some(17))));
        });
    }
    group.finish();
}

/// The least speedup the bulk loader must show over sequential
/// insertion. Over 12 runs on 2 vCPUs the ratios read 29.1–39.1× (bulk
/// 1.1–1.5 ms, insertion 32–47 ms); the floor is half the smallest,
/// rounded down, so timing noise does not trip it but a loader running
/// at insertion speed does.
const BUILD_FLOOR: f64 = 14.0;

fn bench_build(c: &mut Criterion) {
    let ds = dataset(4000, 8);
    let insert = || XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
    // The served build: `build_engine` bulk-loads the tree.
    let bulk = || build_engine(Engine::XTree, ds.clone(), Metric::L2, 1);

    // Equivalence guard: both trees answer every subspace OD of a few
    // points bit for bit, so the floor never compares different work.
    let (inserted, loaded) = (insert(), bulk());
    for id in [17usize, 1234, 3999] {
        let q = ds.row(id);
        for s in Subspace::all_nonempty(8) {
            assert_eq!(
                inserted.od(q, 5, s, Some(id)).to_bits(),
                loaded.od(q, 5, s, Some(id)).to_bits(),
                "point {id} subspace {s}"
            );
        }
    }
    assert_floor(
        "xtree_build_4k_8d",
        BUILD_FLOOR,
        ("build_engine", bulk),
        ("insert", insert),
    );

    let mut group = c.benchmark_group("xtree_build_4k_8d");
    group.bench_function("insert", |b| {
        b.iter(|| black_box(insert()));
    });
    group.bench_function("bulk_load", |b| {
        b.iter(|| black_box(bulk()));
    });
    group.finish();
}

fn bench_range(c: &mut Criterion) {
    let ds = dataset(8000, 8);
    let xtree = build_engine(Engine::XTree, ds.clone(), Metric::L2, 1);
    let linear = LinearScan::new(ds.clone(), Metric::L2);
    let query: Vec<f64> = ds.row(3).to_vec();
    let s = Subspace::full(8);
    let mut group = c.benchmark_group("range_query");
    group.bench_function("xtree", |b| {
        b.iter(|| black_box(xtree.range(&query, 5.0, s, Some(3))));
    });
    group.bench_function("linear", |b| {
        b.iter(|| black_box(linear.range(&query, 5.0, s, Some(3))));
    });
    group.finish();
}

criterion_group!(benches, bench_knn, bench_build, bench_range);
criterion_main!(benches);
