//! Fit-phase costs: what `HosMiner::fit` spends, phase by phase, on
//! the two linear shapes the served benchmark fits at start-up
//! (20000 × 12 and 2000 × 6 planted data, L2, k = 5).
//!
//! * `build` — the engine over a fresh copy of the dataset.
//! * `resolve_t1` / `resolve_t2` — the default threshold policy (the
//!   0.95-quantile of 200 sampled full-space ODs) on one and two
//!   workers.
//! * `learn_t2` — the learning phase (20 sampled searches, the
//!   served default) on two workers.
//!
//! ```sh
//! cargo bench -p hos-bench --bench fit
//! ```

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use hos_core::{learn_with_smoothing, ThresholdPolicy};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::{Metric, Subspace};
use hos_index::{build_engine_sharded, Engine};

const K: usize = 5;

fn bench_fit_phases(c: &mut Criterion) {
    for (n, d) in [(20_000usize, 12usize), (2_000, 6)] {
        let ds = generate(&PlantedSpec {
            n_background: n,
            d,
            n_clusters: 4,
            cluster_sigma: 1.0,
            extent: 60.0,
            targets: vec![Subspace::from_dims(&[0]), Subspace::from_dims(&[1, 2])],
            shift_sigmas: 12.0,
            seed: 7,
        })
        .unwrap()
        .dataset;
        let policy = ThresholdPolicy::default();
        let engine = build_engine_sharded(Engine::Linear, ds.clone(), Metric::L2, 1, 2);
        let t = policy.resolve(engine.as_ref(), K, 0, 1).unwrap();

        let mut group = c.benchmark_group(format!("fit_n{n}_d{d}_linear"));
        group.sample_size(15);
        group.bench_function("build", |b| {
            b.iter_batched(
                || ds.clone(),
                |ds| build_engine_sharded(Engine::Linear, ds, Metric::L2, 1, 2),
                BatchSize::LargeInput,
            );
        });
        for threads in [1usize, 2] {
            group.bench_function(format!("resolve_t{threads}"), |b| {
                b.iter(|| black_box(policy.resolve(engine.as_ref(), K, 0, threads).unwrap()));
            });
        }
        group.bench_function("learn_t2", |b| {
            b.iter(|| {
                black_box(learn_with_smoothing(engine.as_ref(), K, t, 20, 1, 2, 1.0).unwrap())
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_fit_phases);
criterion_main!(benches);
