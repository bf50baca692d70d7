//! Range-scaling benchmarks for the split linear walk.
//!
//! The workload the ROADMAP cares about: ONE query against a large
//! dataset (n = 50k, d = 10) — the case the per-query fan-out cannot
//! parallelise at all. `LinearScan::with_ranges` splits each cached
//! walk into contiguous row ranges, one per worker, and merges the
//! per-range top-k lists exactly, so the single-query latency should
//! drop roughly with the range count up to the core count (the merge
//! is k·ranges work, noise next to the walks).
//!
//! Two shapes per range count:
//!
//! * `od_full_space` — full-space ODs of a fixed batch of
//!   [`MEMBERS`] member queries, one fresh evaluator each, on as many
//!   workers as ranges: the pure intra-query parallelism story
//!   (context builds plus one fold per range). One OD takes about a
//!   millisecond, too little for one timed sample to read steadily, so
//!   each sample times the whole batch.
//! * `level5_batch` — one lattice level (all 252 five-dimensional
//!   subspaces) through `od_batch` with 4 worker threads: the range
//!   walks over a whole level, the shape a lone query's search runs.
//!
//! Every configuration must return the unsplit ODs bit for bit; the
//! bench asserts that before timing. Results land in
//! `bench-summary.json` (see the criterion stub) so the scaling
//! trajectory is tracked across PRs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::{KnnEngine, LazyContextEvaluator, LinearScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 50_000;
const D: usize = 10;
const K: usize = 10;
/// Member queries per `od_full_space` sample.
const MEMBERS: usize = 32;

fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(42);
    let flat: Vec<f64> = (0..N * D).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, D).unwrap()
}

fn bench_range_scaling(c: &mut Criterion) {
    let ds = dataset();
    let query: Vec<f64> = ds.row(17).to_vec();
    let full = Subspace::full(D);
    let level5: Vec<Subspace> = Subspace::all_of_dim(D, 5).collect();

    let engines: Vec<(usize, LinearScan)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|ranges| {
            (
                ranges,
                LinearScan::with_ranges(ds.clone(), Metric::L2, ranges),
            )
        })
        .collect();

    // Sanity before timing: every configuration must agree bitwise
    // with the unsplit engine, on both shapes.
    let members: Vec<usize> = (0..MEMBERS).map(|i| i * (N / MEMBERS) + 17).collect();
    // Full-space ODs of the member batch, one fresh evaluator each.
    let member_ods = |engine: &LinearScan, ranges: usize| -> Vec<f64> {
        members
            .iter()
            .map(|&id| {
                LazyContextEvaluator::new(engine, ds.row(id), K, Some(id)).od_batch(&[full], ranges)
                    [0]
            })
            .collect()
    };
    let reference: Vec<f64> = members
        .iter()
        .map(|&id| engines[0].1.od(ds.row(id), K, full, Some(id)))
        .collect();
    let level_reference: Vec<f64> = level5
        .iter()
        .map(|&s| engines[0].1.od(&query, K, s, Some(17)))
        .collect();
    for (ranges, engine) in &engines {
        assert_eq!(
            member_ods(engine, *ranges),
            reference,
            "ranges={ranges} diverged"
        );
        let mut ev = LazyContextEvaluator::new(engine, &query, K, Some(17));
        assert_eq!(
            ev.od_batch(&level5, 4),
            level_reference,
            "ranges={ranges} level 5 diverged"
        );
    }

    let mut group = c.benchmark_group(format!("od_full_space_n{N}_d{D}_k{K}_members{MEMBERS}"));
    group.sample_size(20);
    for (ranges, engine) in &engines {
        group.bench_function(format!("ranges{ranges}"), |b| {
            b.iter(|| black_box(member_ods(engine, *ranges)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group(format!("level5_batch_n{N}_d{D}_k{K}_threads4"));
    group.sample_size(10);
    for (ranges, engine) in &engines {
        group.bench_function(format!("ranges{ranges}"), |b| {
            b.iter(|| {
                let mut ev = LazyContextEvaluator::new(engine, &query, K, Some(17));
                black_box(ev.od_batch(&level5, 4))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_scaling);
criterion_main!(benches);
