//! Streaming-maintenance throughput: updates/s and queries/s under a
//! sliding window, per engine.
//!
//! The workload the `stream` CLI serves: a window of `W` points over
//! an endless row stream, each arrival paired with one retirement
//! (steady state), with full-space OD queries interleaved. Three
//! shapes per engine configuration:
//!
//! * `updates` — one insert + one remove of the oldest live point per
//!   iteration: the pure maintenance cost. Inverse time = sliding
//!   window updates/s.
//! * `queries_under_churn` — one full-space OD against the churned
//!   window: detection latency while tombstones and appended rows are
//!   present (the X-tree's bounded re-bulk-load is in play by then).
//! * `interleaved` — ten updates then one OD query, the CLI's
//!   steady-state mix.
//!
//! Results land in `bench-summary.json` (criterion stub) and CI
//! uploads them next to the range-scaling summary, so streaming
//! throughput is tracked across PRs alongside batch latency.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::knn::build_engine;
use hos_index::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const W: usize = 10_000;
const D: usize = 8;
const K: usize = 8;

fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat: Vec<f64> = (0..n * D).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, D).unwrap()
}

/// Engine configurations under test: every engine kind.
fn configs() -> [(&'static str, Engine); 2] {
    [("linear", Engine::Linear), ("xtree", Engine::XTree)]
}

/// A rotating supply of fresh rows to insert.
struct RowFeed {
    rows: Vec<f64>,
    at: usize,
}

impl RowFeed {
    fn new(seed: u64) -> RowFeed {
        let mut rng = StdRng::seed_from_u64(seed);
        RowFeed {
            rows: (0..4096 * D).map(|_| rng.gen_range(0.0..100.0)).collect(),
            at: 0,
        }
    }

    fn next(&mut self) -> &[f64] {
        let i = self.at % 4096;
        self.at += 1;
        &self.rows[i * D..(i + 1) * D]
    }
}

fn bench_stream(c: &mut Criterion) {
    let full = Subspace::full(D);

    let mut group = c.benchmark_group(format!("stream_updates_w{W}_d{D}"));
    group.sample_size(10);
    for (name, kind) in configs() {
        let mut engine = build_engine(kind, dataset(W, 1), Metric::L2, 1);
        let mut feed = RowFeed::new(2);
        let mut oldest = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let id = engine.insert(feed.next()).expect("insert");
                engine.remove(oldest).expect("remove");
                oldest += 1;
                black_box(id)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group(format!("stream_queries_under_churn_w{W}_d{D}_k{K}"));
    group.sample_size(10);
    for (name, kind) in configs() {
        let mut engine = build_engine(kind, dataset(W, 3), Metric::L2, 1);
        // Churn 20% of the window first so tombstones, appended rows
        // and any rebuilds are in play when the queries run.
        let mut feed = RowFeed::new(4);
        for oldest in 0..W / 5 {
            engine.insert(feed.next()).expect("insert");
            engine.remove(oldest).expect("remove");
        }
        let query: Vec<f64> = engine.dataset().row(W - 1).to_vec();
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.od(&query, K, full, Some(W - 1))));
        });
    }
    group.finish();

    let mut group = c.benchmark_group(format!("stream_interleaved_w{W}_d{D}_k{K}"));
    group.sample_size(10);
    for (name, kind) in configs() {
        let mut engine = build_engine(kind, dataset(W, 5), Metric::L2, 1);
        let mut feed = RowFeed::new(6);
        let mut oldest = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut last = 0usize;
                for _ in 0..10 {
                    last = engine.insert(feed.next()).expect("insert");
                    engine.remove(oldest).expect("remove");
                    oldest += 1;
                }
                let query: Vec<f64> = engine.dataset().row(last).to_vec();
                black_box(engine.od(&query, K, full, Some(last)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
