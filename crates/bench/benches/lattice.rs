//! Criterion benchmarks for the lattice machinery (feeds E3): the
//! prefix-stack lattice kernel against the direct per-subspace
//! combine (the headline `>= 2x` full-lattice target), the blocked
//! all-points scan against a per-point exact scan, per-node cost
//! across levels (the `|s|`-independence claim), plus pruning closures
//! and per-round TSF computation — the bookkeeping overhead the
//! dynamic search pays on top of OD evaluations.
//!
//! Two kernels are also gated here, against their own reference path
//! on the same machine: the bench fails unless the prefix walker beats
//! the direct combine, and the blocked scan the per-point loop, by at
//! least [`KERNEL_FLOOR`]. A kernel that has fallen back to its
//! reference path fails on any hardware.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hos_core::priors::Priors;
use hos_data::{Dataset, Metric, Subspace};
use hos_index::{
    all_points_full_od, all_points_full_od_counted, KnnEngine, LinearScan, QueryContext,
};
use hos_lattice::{Lattice, TsfComputer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 2000;
const K: usize = 10;

/// The least speedup each gated kernel must show over its reference
/// path. Over 12 runs on 2 vCPUs the smallest ratios seen were 5.06×
/// (walker, d = 10), 5.60× (walker, d = 12) and 4.59× (blocked scan);
/// the floor is half the smallest, rounded down, so timing noise does
/// not trip it but a kernel running at its reference speed does.
const KERNEL_FLOOR: f64 = 2.25;

/// Timed repetitions of each side of a floor.
const FLOOR_REPS: usize = 7;

/// Times `kernel` and `reference` best-of-[`FLOOR_REPS`], alternating
/// so a burst of machine noise lands on both, prints the speedup, and
/// fails the bench if it is below [`KERNEL_FLOOR`]. The workloads are
/// deterministic, so the minimum is the cleanest estimate of each
/// cost.
fn assert_floor<A, B>(
    name: &str,
    (kernel_name, mut kernel): (&str, impl FnMut() -> A),
    (reference_name, mut reference): (&str, impl FnMut() -> B),
) {
    fn ms<O>(f: &mut impl FnMut() -> O) -> f64 {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64() * 1e3
    }
    let (mut kernel_ms, mut reference_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..FLOOR_REPS {
        kernel_ms = kernel_ms.min(ms(&mut kernel));
        reference_ms = reference_ms.min(ms(&mut reference));
    }
    let ratio = reference_ms / kernel_ms;
    println!(
        "floor {name}: {kernel_name} {kernel_ms:.3} ms vs {reference_name} {reference_ms:.3} ms \
         = {ratio:.2}x (floor {KERNEL_FLOOR}x)"
    );
    assert!(
        ratio >= KERNEL_FLOOR,
        "{name}: {kernel_name} took {kernel_ms:.3} ms and {reference_name} {reference_ms:.3} ms, \
         only {ratio:.2}x (floor {KERNEL_FLOOR}x)"
    );
}

fn dataset(d: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let flat: Vec<f64> = (0..N * d).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, d).unwrap()
}

/// Full-lattice query workload (all `2^d - 1` subspace ODs of one
/// query point, the cost of one worst-case dynamic search): the
/// pre-PR baseline recombines `|s|` cached columns per node
/// (`QueryContext::od`); the prefix-stack walker folds exactly one
/// column per node. Both paths produce bit-identical ODs — asserted
/// here, so the bench can never silently compare different work.
fn bench_full_lattice_kernel(c: &mut Criterion) {
    for d in [10usize, 12] {
        let ds = dataset(d);
        let query: Vec<f64> = ds.row(17).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L2, &query);
        let mut ordered: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        ordered.sort_by(|a, b| a.walk_cmp(*b));

        // Equivalence guard: identical sums, bit for bit.
        {
            let mut w = ctx.walker();
            let direct: f64 = ordered.iter().map(|&s| ctx.od(K, s, Some(17))).sum();
            let walked: f64 = ordered
                .iter()
                .map(|&s| {
                    w.seek(s);
                    w.od(K, Some(17))
                })
                .sum();
            assert_eq!(direct, walked, "kernel must stay bit-identical");
        }

        assert_floor(
            &format!("full_lattice_d{d}"),
            ("prefix_walker", || {
                let mut w = ctx.walker();
                ordered
                    .iter()
                    .map(|&s| {
                        w.seek(s);
                        w.od(K, Some(17))
                    })
                    .sum::<f64>()
            }),
            ("direct_combine", || {
                ordered.iter().map(|&s| ctx.od(K, s, Some(17))).sum::<f64>()
            }),
        );

        let mut group = c.benchmark_group(format!("full_lattice_n{N}_d{d}_k{K}"));
        group.sample_size(10);
        group.bench_function("direct_combine", |b| {
            b.iter(|| {
                let mut total = 0.0;
                for &s in &ordered {
                    total += ctx.od(K, s, Some(17));
                }
                black_box(total)
            });
        });
        group.bench_function("prefix_walker", |b| {
            b.iter(|| {
                let mut w = ctx.walker();
                let mut total = 0.0;
                for &s in &ordered {
                    w.seek(s);
                    total += w.od(K, Some(17));
                }
                black_box(total)
            });
        });
        group.finish();
    }
}

/// Deterministic LCG data, independent of the `rand` stub's streams:
/// the fixed workload the blocked-scan numbers have always been
/// reported on.
fn lcg_dataset(n: usize, d: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let flat: Vec<f64> = (0..n * d)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 10000) as f64 / 100.0
        })
        .collect();
    Dataset::from_flat(flat, d).unwrap()
}

/// The blocked all-points full-space OD kernel (quantized admission,
/// one thread) against one exact `LinearScan::od` per point. Every
/// point's OD is asserted bit-identical, and the admission filter
/// asserted active, before anything is timed.
fn bench_blocked_scan(c: &mut Criterion) {
    let (n, d, k) = (2002usize, 8usize, 5usize);
    let ds = lcg_dataset(n, d, 0x243F6A8885A308D3);
    let linear = LinearScan::new(ds.clone(), Metric::L2);
    let full = ds.full_space();
    let per_point = || -> Vec<f64> {
        (0..n)
            .map(|i| linear.od(ds.row(i), k, full, Some(i)))
            .collect()
    };

    let blocked = all_points_full_od_counted(&ds, Metric::L2, k).unwrap();
    let reference = per_point();
    assert_eq!(blocked.ods.len(), n);
    for (&(id, od), want) in blocked.ods.iter().zip(&reference) {
        assert_eq!(od.to_bits(), want.to_bits(), "blocked OD of point {id}");
    }
    // Losing the quantized admission filter alone leaves the blocked
    // exact path, still ~3.8× the per-point loop, so the timing floor
    // below would pass; the pair accounting catches it instead.
    let filtered = blocked.filtered as f64 / (blocked.filtered + blocked.distance_evals) as f64;
    println!("blocked_scan_n{n}_d{d}_k{k}: quantized admission filtered {filtered:.3} of pairs");
    assert!(
        blocked.filtered > 0,
        "quantized admission filtered no pairs"
    );

    assert_floor(
        &format!("blocked_scan_n{n}_d{d}_k{k}"),
        ("all_points_full_od", || {
            all_points_full_od(&ds, Metric::L2, k).unwrap()
        }),
        ("linear_per_point", per_point),
    );

    let mut group = c.benchmark_group(format!("blocked_scan_n{n}_d{d}_k{k}"));
    group.sample_size(10);
    group.bench_function("all_points_full_od", |b| {
        b.iter(|| all_points_full_od(&ds, Metric::L2, k).unwrap());
    });
    group.bench_function("linear_per_point", |b| b.iter(per_point));
    group.finish();
}

/// Per-node cost across single levels of a d=12 lattice: the direct
/// combine grows linearly in `|s| = m`; the walker's per-node cost is
/// one fold per distinct trie prefix — flat in `m`. Ids encode the
/// level so the summary JSON tracks the shape across PRs.
fn bench_per_node_level_cost(c: &mut Criterion) {
    let d = 12usize;
    let ds = dataset(d);
    let query: Vec<f64> = ds.row(17).to_vec();
    let ctx = QueryContext::build(&ds, Metric::L2, &query);
    let mut group = c.benchmark_group(format!("level_walk_n{N}_d{d}_k{K}"));
    group.sample_size(10);
    for m in [2usize, 6, 10] {
        let mut level: Vec<Subspace> = Subspace::all_of_dim(d, m).collect();
        level.sort_by(|a, b| a.walk_cmp(*b));
        group.bench_with_input(BenchmarkId::new("direct_combine", m), &m, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for &s in &level {
                    total += ctx.od(K, s, Some(17));
                }
                black_box(total)
            });
        });
        group.bench_with_input(BenchmarkId::new("prefix_walker", m), &m, |b, _| {
            b.iter(|| {
                let mut w = ctx.walker();
                let mut total = 0.0;
                for &s in &level {
                    w.seek(s);
                    total += w.od(K, Some(17));
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

fn bench_prune_closures(c: &mut Criterion) {
    let mut group = c.benchmark_group("prune_closure");
    for d in [12usize, 16, 20] {
        // Prune down from a mid-level subspace: 2^(d/2) subsets.
        let mid = Subspace::from_dims(&(0..d / 2).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::new("down_mid", d), &d, |b, _| {
            b.iter_batched(
                || Lattice::new(d),
                |mut l| black_box(l.prune_down(mid)),
                criterion::BatchSize::SmallInput,
            );
        });
        let single = Subspace::from_dims(&[0]);
        group.bench_with_input(BenchmarkId::new("up_single", d), &d, |b, _| {
            b.iter_batched(
                || Lattice::new(d),
                |mut l| black_box(l.prune_up(single)),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_tsf_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsf_all_levels");
    for d in [12usize, 16, 20] {
        let tsf = TsfComputer::new(d);
        let lattice = Lattice::new(d);
        let priors = Priors::uniform(d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut best = 0.0f64;
                for m in 1..=d {
                    best = best.max(tsf.tsf(m, priors.up(m), priors.down(m), &lattice));
                }
                black_box(best)
            });
        });
    }
    group.finish();
}

fn bench_open_at_level(c: &mut Criterion) {
    let d = 16;
    let lattice = Lattice::new(d);
    c.bench_function("open_at_level_8_of_16", |b| {
        b.iter(|| black_box(lattice.open_at_level(8).len()));
    });
}

criterion_group!(
    benches,
    bench_full_lattice_kernel,
    bench_blocked_scan,
    bench_per_node_level_cost,
    bench_prune_closures,
    bench_tsf_round,
    bench_open_at_level
);
criterion_main!(benches);
