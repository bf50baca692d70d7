//! Approximate-vs-exact crossover benchmarks for the HNSW tier.
//!
//! The question this file answers: at what dataset size does
//! candidate-generation-plus-exact-re-rank (`HnswEngine`) beat the
//! exact scans it competes with — and what does the default `ef` buy
//! in recall at that point? Three groups:
//!
//! * `hnsw_vs_linear_knn` — one full-space k-NN query per engine
//!   across the n sweep; the per-n pair locates the crossover, the
//!   smallest n at which the graph beats the exact scan.
//! * `hnsw_ef_sweep` — query latency as `ef` widens at the largest n:
//!   the recall/latency dial the calibration routine climbs.
//! * `hnsw_build` — graph construction per n, the cost the query-side
//!   wins have to amortise.
//!
//! Every timed configuration is recall-sanity-checked against the
//! exact engine before the clock starts (mean recall@k over a probe
//! batch must clear the 0.95 contract at default `ef`), so a broken
//! graph can never post a flattering number. Results land in
//! `bench-summary.json` (see the criterion stub); the single-core
//! container makes the absolute numbers conservative.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::{recall_at_k, HnswConfig, HnswEngine, KnnEngine, LinearScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const D: usize = 8;
const K: usize = 5;
const SIZES: [usize; 3] = [2_000, 8_000, 32_000];

fn dataset(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(42);
    let flat: Vec<f64> = (0..n * D).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, D).unwrap()
}

/// Mean recall@k of `approx` against `exact` over a probe batch of
/// member queries.
fn mean_recall(exact: &dyn KnnEngine, approx: &dyn KnnEngine, n: usize) -> f64 {
    let s = Subspace::full(D);
    let ds = exact.dataset();
    let probes: Vec<usize> = (0..32).map(|i| i * n / 32).collect();
    probes
        .iter()
        .map(|&qid| {
            let q = ds.row(qid);
            recall_at_k(
                &exact.knn(q, K, s, Some(qid)),
                &approx.knn(q, K, s, Some(qid)),
            )
        })
        .sum::<f64>()
        / probes.len() as f64
}

fn bench_hnsw_crossover(c: &mut Criterion) {
    let full = Subspace::full(D);

    let mut group = c.benchmark_group(format!("hnsw_vs_linear_knn_d{D}_k{K}"));
    group.sample_size(20);
    for n in SIZES {
        let ds = dataset(n);
        let hnsw = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let recall = mean_recall(&linear, &hnsw, n);
        assert!(recall >= 0.95, "n={n}: recall {recall} below contract");
        let query: Vec<f64> = ds.row(17).to_vec();
        group.bench_function(format!("hnsw_n{n}"), |b| {
            b.iter(|| black_box(hnsw.knn(&query, K, full, Some(17))));
        });
        group.bench_function(format!("linear_n{n}"), |b| {
            b.iter(|| black_box(linear.knn(&query, K, full, Some(17))));
        });
    }
    group.finish();

    let n = SIZES[SIZES.len() - 1];
    let ds = dataset(n);
    let hnsw = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
    let query: Vec<f64> = ds.row(17).to_vec();
    let mut group = c.benchmark_group(format!("hnsw_ef_sweep_n{n}_d{D}_k{K}"));
    group.sample_size(20);
    for ef in [32usize, 96, 256, 1024] {
        hnsw.set_search_width(ef);
        group.bench_function(format!("ef{ef}"), |b| {
            b.iter(|| black_box(hnsw.knn(&query, K, full, Some(17))));
        });
    }
    hnsw.set_search_width(HnswConfig::default().ef_search);
    group.finish();

    let mut group = c.benchmark_group(format!("hnsw_build_d{D}"));
    group.sample_size(10);
    for n in SIZES {
        let ds = dataset(n);
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                black_box(HnswEngine::build(
                    ds.clone(),
                    Metric::L2,
                    HnswConfig::default(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hnsw_crossover);
criterion_main!(benches);
