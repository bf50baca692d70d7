//! Criterion benchmarks for the query-context distance cache: a full
//! lattice of per-subspace OD evaluations (the workload of one
//! dynamic-search query, n=5000, d=10, k=10) with and without the
//! cached per-dimension pre-distance matrix.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::{KnnEngine, LinearScan, QueryContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 5000;
const D: usize = 10;
const K: usize = 10;

fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let flat: Vec<f64> = (0..N * D).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, D).unwrap()
}

fn bench_full_lattice_od(c: &mut Criterion) {
    let ds = dataset();
    let engine = LinearScan::new(ds.clone(), Metric::L2);
    let query: Vec<f64> = ds.row(17).to_vec();
    let subspaces: Vec<Subspace> = Subspace::all_nonempty(D).collect();

    let mut group = c.benchmark_group("full_lattice_od_n5000_d10_k10");
    group.sample_size(10);
    group.bench_function("uncached_scan", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &s in &subspaces {
                total += engine.od(&query, K, s, Some(17));
            }
            black_box(total)
        });
    });
    group.bench_function("cached_context", |b| {
        b.iter(|| {
            let ctx = QueryContext::build(&ds, Metric::L2, &query);
            let mut total = 0.0;
            for &s in &subspaces {
                total += ctx.od(K, s, Some(17));
            }
            black_box(total)
        });
    });
    group.finish();

    // A single level (the shape od_batch sees per search round), to
    // show the cache also pays before the lattice is fully walked.
    let level5: Vec<Subspace> = Subspace::all_of_dim(D, 5).collect();
    let mut group = c.benchmark_group("level5_od_n5000_d10_k10");
    group.sample_size(10);
    group.bench_function("uncached_scan", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &s in &level5 {
                total += engine.od(&query, K, s, Some(17));
            }
            black_box(total)
        });
    });
    group.bench_function("cached_context", |b| {
        b.iter(|| {
            let ctx = QueryContext::build(&ds, Metric::L2, &query);
            let mut total = 0.0;
            for &s in &level5 {
                total += ctx.od(K, s, Some(17));
            }
            black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_full_lattice_od);
criterion_main!(benches);
