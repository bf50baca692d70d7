//! Property tests: the X-tree must be indistinguishable from the
//! brute-force oracle on arbitrary data, metrics, subspaces and k —
//! and so must the range-split walk and the OD evaluator.

use hos_data::{Dataset, Metric, Subspace};
use hos_index::{
    all_points_full_od_counted, quantized_lower_bounds, KnnEngine, LazyContextEvaluator,
    LinearScan, QueryContext, XTree, XTreeConfig,
};
use proptest::prelude::*;

const D: usize = 5;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, D), 1..120)
        .prop_map(|rows| Dataset::from_rows(&rows).unwrap())
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

fn arb_metric_all() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::L1),
        Just(Metric::L2),
        Just(Metric::LInf),
        Just(Metric::Lp(3.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xtree_knn_equals_linear(ds in arb_dataset(),
                               q in prop::collection::vec(-60.0f64..60.0, D),
                               k in 1usize..12,
                               mask in 1u64..(1 << D),
                               metric in arb_metric()) {
        let s = Subspace::from_mask(mask);
        let tree = XTree::build(ds.clone(), metric, XTreeConfig {
            max_leaf: 8, max_dir: 4, ..XTreeConfig::default()
        });
        tree.check_invariants().unwrap();
        let lin = LinearScan::new(ds, metric);
        let a = tree.knn(&q, k, s, None);
        let b = lin.knn(&q, k, s, None);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Distances must agree exactly (ids may differ on ties).
            prop_assert!((x.dist - y.dist).abs() < 1e-9,
                "{} vs {} in {}", x.dist, y.dist, s);
        }
    }

    #[test]
    fn xtree_range_equals_linear(ds in arb_dataset(),
                                 q in prop::collection::vec(-60.0f64..60.0, D),
                                 radius in 0.0f64..100.0,
                                 mask in 1u64..(1 << D),
                                 metric in arb_metric()) {
        let s = Subspace::from_mask(mask);
        let tree = XTree::build(ds.clone(), metric, XTreeConfig {
            max_leaf: 8, max_dir: 4, ..XTreeConfig::default()
        });
        let lin = LinearScan::new(ds, metric);
        let mut a: Vec<usize> = tree.range(&q, radius, s, None).iter().map(|n| n.id).collect();
        let mut b: Vec<usize> = lin.range(&q, radius, s, None).iter().map(|n| n.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The query-context cache is indistinguishable from the uncached
    /// scan: for arbitrary data, queries, metrics and k, the cached OD
    /// agrees with `LinearScan::od` to 1e-12 (they are in fact
    /// bit-identical) over EVERY subspace of the lattice, with and
    /// without self-exclusion.
    #[test]
    fn query_context_od_equals_uncached_scan(ds in arb_dataset(),
                                             q in prop::collection::vec(-60.0f64..60.0, D),
                                             k in 1usize..10,
                                             metric in arb_metric()) {
        let lin = LinearScan::new(ds.clone(), metric);
        let ctx = QueryContext::build(&ds, metric, &q);
        for s in Subspace::all_nonempty(D) {
            let cached = ctx.od(k, s, None);
            let direct = lin.od(&q, k, s, None);
            prop_assert!((cached - direct).abs() <= 1e-12,
                "cached {} vs direct {} in {} ({:?})", cached, direct, s, metric);
            let cached_ex = ctx.od(k, s, Some(0));
            let direct_ex = lin.od(&q, k, s, Some(0));
            prop_assert!((cached_ex - direct_ex).abs() <= 1e-12,
                "excluded: cached {} vs direct {} in {}", cached_ex, direct_ex, s);
        }
    }

    /// The cached k-NN lists match the engine's exactly: same ids,
    /// same distances, same order.
    #[test]
    fn query_context_knn_equals_uncached_scan(ds in arb_dataset(),
                                              q in prop::collection::vec(-60.0f64..60.0, D),
                                              k in 1usize..8,
                                              mask in 1u64..(1 << D),
                                              metric in arb_metric()) {
        let s = Subspace::from_mask(mask);
        let lin = LinearScan::new(ds.clone(), metric);
        let ctx = lin.query_context(&q).expect("linear scan provides a context");
        prop_assert_eq!(ctx.knn(k, s, None), lin.knn(&q, k, s, None));
    }

    /// The range-split linear engine is **bit-identical** to the
    /// unsplit scan: for arbitrary data, queries, metrics, k and range
    /// counts 1..=8, its k-NN lists (ids AND distances) and ODs — the
    /// engine queries and the split evaluator's single ODs, whose
    /// per-range top-k lists are merged — equal `LinearScan`'s exactly:
    /// `assert_eq!`, no tolerance. This is the exactness contract of
    /// the range split.
    #[test]
    fn range_split_knn_and_od_equal_linear_bitwise(ds in arb_dataset(),
                                                   q in prop::collection::vec(-60.0f64..60.0, D),
                                                   k in 1usize..12,
                                                   ranges in 1usize..=8,
                                                   mask in 1u64..(1 << D),
                                                   metric in arb_metric()) {
        let s = Subspace::from_mask(mask);
        let lin = LinearScan::new(ds.clone(), metric);
        let split = LinearScan::with_ranges(ds, metric, ranges);
        prop_assert_eq!(split.knn(&q, k, s, None), lin.knn(&q, k, s, None));
        prop_assert_eq!(split.od(&q, k, s, None), lin.od(&q, k, s, None));
        prop_assert_eq!(LazyContextEvaluator::new(&split, &q, k, None).od(s), lin.od(&q, k, s, None));
        // Self-exclusion lands in the range that holds the point.
        prop_assert_eq!(split.knn(&q, k, s, Some(0)), lin.knn(&q, k, s, Some(0)));
        prop_assert_eq!(split.od(&q, k, s, Some(0)), lin.od(&q, k, s, Some(0)));
        prop_assert_eq!(LazyContextEvaluator::new(&split, &q, k, Some(0)).od(s), lin.od(&q, k, s, Some(0)));
    }

    /// The range-split evaluator (per-range lazy contexts + exact
    /// merge) agrees with the unsplit scan over entire lattices,
    /// bitwise.
    #[test]
    fn range_split_evaluator_equals_linear_over_lattice(ds in arb_dataset(),
                                                        q in prop::collection::vec(-60.0f64..60.0, D),
                                                        k in 1usize..8,
                                                        ranges in 1usize..=8,
                                                        metric in arb_metric()) {
        let lin = LinearScan::new(ds.clone(), metric);
        let split = LinearScan::with_ranges(ds, metric, ranges);
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(D).collect();
        let expected: Vec<f64> = subspaces.iter().map(|&s| lin.od(&q, k, s, Some(0))).collect();
        let mut ev = LazyContextEvaluator::new(&split, &q, k, Some(0));
        prop_assert_eq!(ev.od_batch(&subspaces, 2), expected);
    }

    /// The evaluator path of the context-less X-tree returns exactly
    /// what per-subspace `engine.od` calls return — the evaluator
    /// cannot silently change its results, batched or single, at any
    /// thread count.
    #[test]
    fn evaluator_path_preserves_contextless_engines(ds in arb_dataset(),
                                                    q in prop::collection::vec(-60.0f64..60.0, D),
                                                    k in 1usize..8,
                                                    metric in arb_metric()) {
        let tree = XTree::build(ds.clone(), metric, XTreeConfig {
            max_leaf: 8, max_dir: 4, ..XTreeConfig::default()
        });
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(D).collect();
        let expected: Vec<f64> = subspaces
            .iter()
            .map(|&s| tree.od(&q, k, s, Some(0)))
            .collect();
        for threads in [1usize, 3] {
            let mut ev = LazyContextEvaluator::new(&tree, &q, k, Some(0));
            prop_assert_eq!(ev.od_batch(&subspaces, threads), expected.clone());
        }
        // Single-od streaming agrees too (the X-tree has no cache to
        // switch onto).
        let mut ev = LazyContextEvaluator::new(&tree, &q, k, Some(0));
        for (i, &s) in subspaces.iter().enumerate() {
            prop_assert_eq!(ev.od(s), expected[i]);
        }
    }

    /// The chunked/blocked all-points kernel is **bit-identical** to
    /// per-point `LinearScan` queries — `==` on `f64`, no tolerance —
    /// for arbitrary data, every metric (including `Lp`, which takes
    /// the exact-fallback route), arbitrary k and arbitrary tombstone
    /// patterns. This pins the two tentpole claims at once: chunking
    /// lanes span points (so per-pair fold order is unchanged) and
    /// the quantized admission filter only ever skips losers.
    #[test]
    fn blocked_kernel_bit_identical_to_linear_scan(ds in arb_dataset(),
                                                   k in 0usize..12,
                                                   kill_seed in 0u64..u64::MAX,
                                                   metric in arb_metric_all()) {
        let mut ds = ds;
        // Tombstone a pseudo-random subset (never all rows).
        for i in 0..ds.len() {
            if (kill_seed >> (i % 64)) & 1 == 1 && ds.live_len() > 1 {
                ds.remove_row(i).unwrap();
            }
        }
        let live = ds.live_len();
        match all_points_full_od_counted(&ds, metric, k) {
            Err(_) => prop_assert!(live.saturating_sub(1) < k,
                "errored with {} live points available for k={k}", live - 1),
            Ok(scan) => {
                prop_assert!(live.saturating_sub(1) >= k);
                // Every live pair is either exactly evaluated or
                // provably filtered — nothing is silently dropped.
                prop_assert_eq!(
                    scan.distance_evals + scan.filtered,
                    (live * live.saturating_sub(1)) as u64);
                let lin = LinearScan::new(ds.clone(), metric);
                let full = ds.full_space();
                prop_assert_eq!(scan.ods.len(), live);
                for &(id, od) in &scan.ods {
                    let direct = lin.od(ds.row(id), k, full, Some(id));
                    prop_assert_eq!(od, direct,
                        "row {} diverged under {:?}", id, metric);
                }
            }
        }
    }

    /// The quantized `f32` admission bounds are *conservative*: for
    /// every live row, the lower bound never exceeds the exact `f64`
    /// pre-distance it stands in for. This is the property that makes
    /// skipping on `lb > top.bound()` exact rather than approximate.
    #[test]
    fn quantized_bounds_never_exceed_exact_pre(ds in arb_dataset(),
                                               qsel in 0usize..1024,
                                               metric in arb_metric()) {
        let q = qsel % ds.len();
        let lbs = quantized_lower_bounds(&ds, metric, q)
            .expect("small-magnitude data is always admissible");
        let qrow: Vec<f64> = ds.row(q).to_vec();
        for (i, &lb) in lbs.iter().enumerate() {
            let mut exact = 0.0f64;
            for (j, &qv) in qrow.iter().enumerate() {
                exact = metric.accumulate(exact, (qv - ds.get(i, j)).abs());
            }
            prop_assert!(lb <= exact,
                "bound {} exceeds exact pre {} for pair ({q},{i}) under {:?}",
                lb, exact, metric);
        }
        // Lp admits no order-safe quantized bound: always exact-path.
        prop_assert!(quantized_lower_bounds(&ds, Metric::Lp(3.0), q).is_none());
    }

    /// OD is monotone under subspace inclusion regardless of engine —
    /// the fact the whole paper rests on (Property 1/2).
    #[test]
    fn od_monotone_under_inclusion(ds in arb_dataset(),
                                   q in prop::collection::vec(-60.0f64..60.0, D),
                                   k in 1usize..8,
                                   m1 in 1u64..(1 << D),
                                   m2 in 1u64..(1 << D),
                                   metric in arb_metric()) {
        let sub = Subspace::from_mask(m1 & m2);
        let sup = Subspace::from_mask(m1);
        prop_assume!(!sub.is_empty());
        let lin = LinearScan::new(ds, metric);
        let od_sub = lin.od(&q, k, sub, None);
        let od_sup = lin.od(&q, k, sup, None);
        prop_assert!(od_sub <= od_sup + 1e-9,
            "OD({sub}) = {od_sub} > OD({sup}) = {od_sup}");
    }
}
