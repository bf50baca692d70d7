//! The OD evaluator every search layer streams subspaces at.
//!
//! Every search layer in `hos-core` reduces to the same inner loop:
//! given one `(engine, query)` pair, evaluate `OD(query, s)` for a
//! stream of subspaces — one at a time or a whole lattice level per
//! call. The per-query state that loop amortises (the distance caches
//! and the prefix stacks) lives here once, in [`LazyContextEvaluator`]:
//! one per `(engine, query)` pair, with one walk,
//! [`LazyContextEvaluator::decide_batch`]: each subspace is either
//! settled below the threshold `T` without a scan or given its exact
//! OD ([`LazyContextEvaluator::od`] and
//! [`LazyContextEvaluator::od_batch`] are that walk with `T = -inf`).
//! It builds the engine's pre-distance caches
//! ([`KnnEngine::range_context`]) on the first call, and every OD after
//! it is a prefix-stack walk over cached columns. An engine without a
//! context (the X-tree) stays on its own search for every call.
//!
//! # Row ranges: the one intra-query parallelism
//!
//! An engine may ask for its walk to be split
//! ([`KnnEngine::row_ranges`]; the linear scan built with
//! [`crate::LinearScan::with_ranges`]). The evaluator then cuts the
//! dataset's physical rows into that many contiguous, balanced ranges
//! (worked out again for each query, so inserts need no routing),
//! builds one [`QueryContext`] and one persistent [`PrefixStack`] per
//! range, walks every batch on up to `threads` pool workers, one range
//! per worker, and merges the per-range top-k lists exactly. One range
//! is the plain serial walk.
//!
//! Exactness: every OD the evaluator returns is bit-identical to
//! calling [`KnnEngine::od`] per subspace — the cache is pinned by the
//! context equivalence tests, the merge by the range-split property
//! tests (DESIGN.md §6), and the evaluator-path equivalence tests in
//! `tests/properties.rs` pin the context-less engine too — and a
//! subspace is settled below `T` only when its exact OD is below `T`
//! (DESIGN.md §8; `tests/decide.rs`).

use crate::batch::{parallel_map, parallel_map_mut};
use crate::context::QueryContext;
use crate::knn::{Engine, KnnEngine};
use crate::topk::TopK;
use crate::walker::{walk_order, PrefixStack};
use hos_data::{PointId, Subspace};
use std::ops::Range;

/// Least rows a range is given when the range count is left to
/// [`shard_count`]: two ranges start paying for their fan-out near
/// twice this many rows. On 2 vCPUs, lone `query_each` calls on
/// deep-search-shaped data (planted, d = 12, 70% displaced points),
/// one call every 20 ms alternating one range against two, both at 2
/// threads, read p50s of 0.50 vs 0.83 ms at 2000 rows (two ranges
/// faster in 16 of 300 pairs), 0.64 vs 1.10 ms at 5000 (43/300), 0.80
/// vs 0.99 ms at 8000 (251/600), 1.08 vs 1.18 ms at 10000 (362/600,
/// median pair difference −0.04 ms), 1.15 vs 1.05 ms at 12000
/// (401/600), 1.29 vs 1.08 ms at 15000 (499/600) and 1.74 vs 1.45 ms
/// at 20000 (259/300).
pub const MIN_SHARD_ROWS: usize = 5000;

/// The row-range count a served miner uses (`HosMinerConfig::shards`):
/// as many ranges as `threads`, but never fewer than
/// [`MIN_SHARD_ROWS`] rows each, and at least one. Only the linear
/// engine is split: the X-tree has no query context to cut, and always
/// gets 1. Answers are bit-identical at any count; this only decides
/// whether a lone query's walk is spread over the cores.
pub fn shard_count(engine: Engine, rows: usize, threads: usize) -> usize {
    match engine {
        Engine::Linear => threads.min(rows / MIN_SHARD_ROWS).max(1),
        Engine::XTree => 1,
    }
}

/// Cuts the physical rows `0..rows` into `parts` contiguous ranges
/// whose sizes differ by at most one (the first `rows % parts` hold
/// the extra row). `parts` is clamped to `1..=rows`, so no range is
/// empty, except that zero rows give the one range `0..0`.
fn split_rows(rows: usize, parts: usize) -> Vec<Range<PointId>> {
    let parts = parts.clamp(1, rows.max(1));
    let mut lo = 0;
    (0..parts)
        .map(|i| {
            let hi = lo + rows / parts + usize::from(i < rows % parts);
            let range = lo..hi;
            lo = hi;
            range
        })
        .collect()
}

/// Walk-order positions per block on the split path: bounds the
/// per-range top-k lists held at once to `ranges × WALK_BLOCK` instead
/// of `ranges × batch`.
const WALK_BLOCK: usize = 256;

/// One subspace's answer from [`LazyContextEvaluator::decide_batch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// `OD < T`, proven from `k` candidates' distances without a scan.
    Below,
    /// The exact OD, bit-identical to [`KnnEngine::od`]; it may be
    /// below `T` too.
    Od(f64),
}

impl Decision {
    /// The exact OD, when one was computed.
    pub fn od(self) -> Option<f64> {
        match self {
            Decision::Below => None,
            Decision::Od(od) => Some(od),
        }
    }

    /// Whether the subspace is outlying at `threshold` (`OD >= T`);
    /// a [`Decision::Below`] from the same threshold never is.
    pub fn is_outlying(self, threshold: f64) -> bool {
        matches!(self, Decision::Od(od) if od >= threshold)
    }
}

/// One row range's cached walk: its context and its prefix stack,
/// reused across batches.
struct Lane<'a> {
    ctx: QueryContext<'a>,
    stack: PrefixStack,
}

/// Evaluates the outlying degree of one fixed query point across many
/// subspaces, amortising per-query state across calls: per-range
/// distance caches built on the first OD call, each walked by its own
/// prefix-stack kernel (see the module docs for the range split).
///
/// Build one per `(engine, query)` pair, then stream subspaces at it
/// level by level. The evaluator is stateful (`&mut self`) so it can
/// build its caches lazily, but its *results* are pure: every call
/// returns exactly what [`KnnEngine::od`] would.
///
/// # Cost model
///
/// A cached OD is one `O(n)` column fold per visited lattice node
/// (DESIGN.md §8), split `n / ranges` per worker; an uncached
/// linear-scan OD re-reads every row-major row whatever `|s|` is. The
/// one-pass build costs less than one uncached full-space OD (≈ 0.4 vs
/// 0.9 ms at 20000 × 12), so even a search that ends after the
/// full-space OD comes out ahead by building first (DESIGN.md §3).
pub struct LazyContextEvaluator<'a> {
    engine: &'a dyn KnnEngine,
    query: &'a [f64],
    k: usize,
    exclude: Option<PointId>,
    /// `None` until the first OD call; then one lane per row range, or
    /// none for an engine that offers no context.
    lanes: Option<Vec<Lane<'a>>>,
    /// Reused walk-order index scratch.
    order: Vec<usize>,
    /// Reused heap for the per-subspace merge of the range lists.
    merge: TopK,
}

impl<'a> LazyContextEvaluator<'a> {
    /// Creates the evaluator; no work happens until the first OD call.
    pub fn new(
        engine: &'a dyn KnnEngine,
        query: &'a [f64],
        k: usize,
        exclude: Option<PointId>,
    ) -> Self {
        LazyContextEvaluator {
            engine,
            query,
            k,
            exclude,
            lanes: None,
            order: Vec::new(),
            merge: TopK::new(0),
        }
    }

    /// `OD(query, s)`: the sum of distances from the query to its `k`
    /// nearest neighbours in subspace `s`.
    pub fn od(&mut self, s: Subspace) -> f64 {
        self.od_batch(&[s], 1)[0]
    }

    /// `OD(query, s)` for every subspace in `subspaces`, in input
    /// order: [`LazyContextEvaluator::decide_batch`] against `-inf`,
    /// which no seed sum is below, so every subspace gets its exact OD
    /// from the same walk. Equals calling [`LazyContextEvaluator::od`]
    /// per subspace, bit for bit, regardless of `threads`.
    pub fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        self.decide_batch(subspaces, f64::NEG_INFINITY, threads)
            .into_iter()
            .map(|d| d.od().expect("nothing is settled below -inf"))
            .collect()
    }

    /// Decides every subspace in `subspaces` against `threshold`, in
    /// input order: [`Decision::Below`] when `OD < threshold` is proven
    /// without a scan, else the exact OD (which may still be below).
    /// `threads` bounds the fan-out over row ranges, the one way a
    /// single query uses more than one core: an engine split into
    /// ranges walks them on up to `threads` workers, and an unsplit one
    /// runs the batch serially. Every [`Decision::Od`] equals
    /// [`KnnEngine::od`] bit for bit, regardless of `threads`.
    ///
    /// Batches are traversed in walker order
    /// ([`Subspace::walk_cmp`]) so the prefix-stack kernel pays `O(n)`
    /// per node. Before a node seeks, its lane prices the winners of
    /// the last node it computed in the node's subspace
    /// (`PrefixStack::settles`); when their sum is below `threshold`
    /// the node is settled and the lane never seeks to it, so neither
    /// its fold nor any prefix fold only it needed is paid. With row
    /// ranges each lane settles on its own winners — any `k` live
    /// candidates bound the global OD — and a node is below if any lane
    /// settled it; otherwise the per-range lists merge exactly. The
    /// context-less engine (the X-tree) answers every subspace with its
    /// own `KnnEngine::od`.
    pub fn decide_batch(
        &mut self,
        subspaces: &[Subspace],
        threshold: f64,
        threads: usize,
    ) -> Vec<Decision> {
        if subspaces.is_empty() {
            return Vec::new();
        }
        let (engine, query, k, exclude) = (self.engine, self.query, self.k, self.exclude);
        // Contexts are built on the first call, one per range, on up to
        // `threads` workers (a one-range build runs inline).
        let lanes = self.lanes.get_or_insert_with(|| {
            let ranges = split_rows(engine.dataset().len(), engine.row_ranges());
            parallel_map(&ranges, threads, |rows| {
                engine.range_context(query, rows.clone())
            })
            .into_iter()
            .map(|ctx| {
                ctx.map(|ctx| Lane {
                    ctx,
                    stack: PrefixStack::new(),
                })
            })
            .collect::<Option<Vec<Lane>>>()
            .unwrap_or_default()
        });
        let mut out = vec![Decision::Below; subspaces.len()];
        match lanes.as_mut_slice() {
            [] => {
                for (o, &s) in out.iter_mut().zip(subspaces) {
                    *o = Decision::Od(engine.od(query, k, s, exclude));
                }
            }
            // Prefix-stack kernel: traverse in walker order so
            // consecutive subspaces share accumulator prefixes, and
            // scatter results back into input order. Each decision is a
            // pure function of its subspace and the lane's last
            // winners, and either way it is exact, so the reordering
            // never shows in the results.
            [Lane { ctx, stack }] => {
                walk_order(subspaces, &mut self.order);
                for &i in &self.order {
                    let s = subspaces[i];
                    if !stack.settles(ctx, s, k, exclude, threshold) {
                        stack.seek(ctx, s);
                        out[i] = Decision::Od(stack.od(ctx, k, exclude));
                    }
                }
            }
            // Split walk: every range walks each block in walker order
            // on its own stack, ranges in parallel; the exact
            // `(distance, id)` merge then reduces each subspace no lane
            // settled. Ordering by finished distance equals ordering by
            // pre-metric distance (`Metric::finish` is monotone), and
            // the sum runs in the same ascending order as one range's.
            lanes => {
                walk_order(subspaces, &mut self.order);
                for block in self.order.chunks(WALK_BLOCK) {
                    let lists = parallel_map_mut(lanes, threads, |Lane { ctx, stack }| {
                        block
                            .iter()
                            .map(|&i| {
                                let s = subspaces[i];
                                (!stack.settles(ctx, s, k, exclude, threshold)).then(|| {
                                    stack.seek(ctx, s);
                                    stack.knn(ctx, k, exclude)
                                })
                            })
                            .collect::<Vec<_>>()
                    });
                    for (pos, &i) in block.iter().enumerate() {
                        if lists.iter().any(|list| list[pos].is_none()) {
                            continue;
                        }
                        self.merge.reset(k);
                        for n in lists.iter().flat_map(|list| list[pos].iter().flatten()) {
                            self.merge.offer(n.dist, n.id);
                        }
                        out[i] = Decision::Od(self.merge.sorted().iter().map(|c| c.pre).sum());
                    }
                }
            }
        }
        out
    }

    /// Lattice nodes entered by the prefix-stack kernel so far (one
    /// per column fold, summed over row ranges; see
    /// [`crate::walker::PrefixStack::node_visits`]). `0` until a cached
    /// phase is reached: the uncached engine path does not use the
    /// kernel.
    pub fn node_visits(&self) -> u64 {
        self.lanes
            .iter()
            .flatten()
            .map(|lane| lane.stack.node_visits())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::xtree::{XTree, XTreeConfig};
    use hos_data::{Dataset, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-20.0..20.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn matches_per_subspace_engine_queries_across_paths() {
        // Drive the evaluator through single calls, then whole-lattice
        // batches, and pin every result against the engine reference,
        // bit for bit.
        let d = 5;
        let ds = dataset(120, d, 1);
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let engine = LinearScan::new(ds.clone(), metric);
            let q: Vec<f64> = ds.row(3).to_vec();
            let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
            let reference: Vec<f64> = subspaces
                .iter()
                .map(|&s| engine.od(&q, 4, s, Some(3)))
                .collect();
            let mut ev = LazyContextEvaluator::new(&engine, &q, 4, Some(3));
            for (i, &s) in subspaces.iter().take(4).enumerate() {
                assert_eq!(ev.od(s), reference[i], "{metric:?} {s}");
            }
            let batched = ev.od_batch(&subspaces, 3);
            assert_eq!(batched, reference, "{metric:?}");
        }
    }

    #[test]
    fn context_builds_on_the_first_od_call() {
        // The contract: engines that offer a context get it on the
        // evaluator's first call — a single `od` or an `od_batch` —
        // and every OD from then on is a walker fold (node visits).
        // Context-less engines never get one and never fold.
        let d = 5;
        let ds = dataset(90, d, 2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let single = Subspace::single(3);
        let lattice: Vec<Subspace> = Subspace::all_nonempty(d).collect();

        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let mut ev = LazyContextEvaluator::new(&linear, &q, 3, Some(0));
        assert!(ev.lanes.is_none(), "nothing happens before the first call");
        assert_eq!(ev.od(single), linear.od(&q, 3, single, Some(0)));
        assert_eq!(
            ev.lanes.as_ref().map(Vec::len),
            Some(1),
            "built on the first od"
        );
        assert_eq!(ev.node_visits(), 1);
        let mut ev = LazyContextEvaluator::new(&linear, &q, 3, Some(0));
        ev.od_batch(&[single], 1);
        assert_eq!(
            ev.lanes.as_ref().map(Vec::len),
            Some(1),
            "built on the first od_batch"
        );

        let split = LinearScan::with_ranges(ds.clone(), Metric::L2, 3);
        let mut ev = LazyContextEvaluator::new(&split, &q, 3, Some(0));
        assert_eq!(ev.od(single), linear.od(&q, 3, single, Some(0)));
        assert_eq!(ev.node_visits(), 3, "one fold per range context");

        let xtree = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let mut ev = LazyContextEvaluator::new(&xtree, &q, 3, Some(0));
        ev.od(single);
        ev.od_batch(&lattice, 2);
        assert_eq!(ev.node_visits(), 0, "context-less engines never fold");
        let mut ev = LazyContextEvaluator::new(&xtree, &q, 3, Some(0));
        ev.od(single);
        assert_eq!(
            ev.lanes.as_ref().map(Vec::len),
            Some(0),
            "asked once, declined"
        );
    }

    #[test]
    fn contextless_engine_stays_on_engine_path() {
        let d = 4;
        let ds = dataset(60, d, 3);
        let xtree = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let q: Vec<f64> = ds.row(5).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| xtree.od(&q, 3, s, Some(5)))
            .collect();
        let mut ev = LazyContextEvaluator::new(&xtree, &q, 3, Some(5));
        assert_eq!(ev.od_batch(&subspaces, 2), reference);
        // Repeat batch: still correct with the context resolved to none.
        assert_eq!(ev.od_batch(&subspaces, 1), reference);
    }

    #[test]
    fn full_lattice_batch_visits_each_node_once() {
        // The kernel's cost claim, exact: a full-lattice batch in the
        // cached phase performs one O(n) column fold per node —
        // node_visits == 2^d - 1 — versus Σ|s| = d·2^(d-1) folds for
        // the per-subspace recombine it replaces.
        let d = 7;
        let ds = dataset(50, d, 9);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(3).to_vec();
        let mut ev = LazyContextEvaluator::new(&engine, &q, 4, Some(3));
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let ods = ev.od_batch(&subspaces, 1);
        assert_eq!(ods.len(), subspaces.len());
        assert_eq!(ev.node_visits(), Subspace::lattice_size(d));
        // A second identical batch re-walks the lattice: again one
        // fold per node, same results bit for bit (steady-state
        // traversal reuses every buffer).
        let again = ev.od_batch(&subspaces, 1);
        assert_eq!(again, ods);
        assert_eq!(ev.node_visits(), 2 * Subspace::lattice_size(d));
        // Asking for more threads changes nothing: the batch still
        // runs serially, one fold per node.
        let mut ev_wide = LazyContextEvaluator::new(&engine, &q, 4, Some(3));
        assert_eq!(ev_wide.od_batch(&subspaces, 4), ods);
        assert_eq!(ev_wide.node_visits(), Subspace::lattice_size(d));
    }

    #[test]
    fn decide_batch_settles_below_threshold_nodes_without_folding() {
        // A query pushed out along dim 0 only: every subspace without
        // dim 0 is below T, and the winners of the last computed node
        // already prove most of them so. Settled nodes cost no fold,
        // and everything the walk does compute is the exact OD.
        let d = 6;
        let ds = dataset(200, d, 12);
        for ranges in [1, 2] {
            let engine = LinearScan::with_ranges(ds.clone(), Metric::L2, ranges);
            let mut q: Vec<f64> = ds.row(0).to_vec();
            q[0] += 500.0;
            let t = 0.5 * engine.od(&q, 4, Subspace::single(0), None);
            let lattice: Vec<Subspace> = Subspace::all_nonempty(d).collect();
            let mut ev = LazyContextEvaluator::new(&engine, &q, 4, None);
            let decisions = ev.decide_batch(&lattice, t, 2);
            let mut settled = 0;
            for (&s, decision) in lattice.iter().zip(&decisions) {
                let od = engine.od(&q, 4, s, None);
                assert_eq!(od >= t, s.contains_dim(0), "ranges={ranges} {s}");
                match *decision {
                    Decision::Below => settled += 1,
                    Decision::Od(got) => assert_eq!(got, od, "ranges={ranges} {s}"),
                }
                assert_eq!(decision.is_outlying(t), od >= t, "ranges={ranges} {s}");
            }
            let below = lattice.iter().filter(|s| !s.contains_dim(0)).count();
            assert!(2 * settled > below, "ranges={ranges}: {settled} of {below}");
            let folds = ev.node_visits();
            assert!(
                folds < ranges as u64 * Subspace::lattice_size(d),
                "ranges={ranges}: {folds} folds"
            );
        }
    }

    #[test]
    fn empty_batch_is_empty_and_costs_nothing() {
        let ds = dataset(30, 3, 4);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let before = engine.distance_evals();
        let mut ev = LazyContextEvaluator::new(&engine, &q, 2, None);
        assert!(ev.od_batch(&[], 4).is_empty());
        assert_eq!(engine.distance_evals(), before);
    }

    #[test]
    fn evaluator_usable_through_dyn_engine() {
        let ds = dataset(40, 3, 5);
        let engine: Box<dyn KnnEngine> = Box::new(LinearScan::new(ds.clone(), Metric::L1));
        let q: Vec<f64> = ds.row(1).to_vec();
        let s = Subspace::full(3);
        let mut ev = LazyContextEvaluator::new(engine.as_ref(), &q, 2, Some(1));
        assert_eq!(ev.od(s), engine.od(&q, 2, s, Some(1)));
    }

    /// Coarse grid values force plenty of distance ties, so the
    /// `(distance, id)` merge tie-break is actually exercised.
    fn grid(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d)
            .map(|_| (rng.gen_range(0..8) as f64) * 0.5)
            .collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn split_rows_is_contiguous_balanced_and_clamped() {
        for rows in [0usize, 1, 7, 10] {
            for parts in 0..=12 {
                let ranges = split_rows(rows, parts);
                assert_eq!(ranges.len(), parts.clamp(1, rows.max(1)));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, rows);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{rows} rows, {parts} parts");
                }
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced {lens:?}");
                assert!(rows == 0 || *lo > 0, "empty range in {lens:?}");
            }
        }
    }

    #[test]
    fn split_walk_matches_unsplit_singles_and_batches() {
        // Single calls (the first builds the per-range contexts), then
        // whole-lattice batches at several widths: every OD must equal
        // the unsplit engine's bit for bit, for every metric.
        let d = 5;
        let ds = grid(120, d, 2);
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let linear = LinearScan::new(ds.clone(), metric);
            let reference: Vec<f64> = subspaces
                .iter()
                .map(|&s| linear.od(ds.row(7), 5, s, Some(7)))
                .collect();
            for ranges in [2, 4, 7] {
                let engine = LinearScan::with_ranges(ds.clone(), metric, ranges);
                let q: Vec<f64> = ds.row(7).to_vec();
                let mut ev = LazyContextEvaluator::new(&engine, &q, 5, Some(7));
                for (i, &s) in subspaces.iter().take(3).enumerate() {
                    assert_eq!(ev.od(s), reference[i], "{metric:?} ranges={ranges} {s}");
                }
                for threads in [1, 4] {
                    assert_eq!(
                        ev.od_batch(&subspaces, threads),
                        reference,
                        "{metric:?} ranges={ranges} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn walked_batch_across_blocks_stays_exact() {
        // d = 9: 511 subspaces — more than one WALK_BLOCK, so the
        // blocked loop crosses a boundary with the per-range stacks
        // carried over. Must stay bit-identical to the unsplit walk.
        let d = 9;
        let ds = grid(140, d, 11);
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(9).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        assert!(subspaces.len() > WALK_BLOCK);
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| linear.od(&q, 4, s, Some(9)))
            .collect();
        for ranges in [2usize, 3] {
            let engine = LinearScan::with_ranges(ds.clone(), Metric::L2, ranges);
            for threads in [1usize, ranges] {
                let mut ev = LazyContextEvaluator::new(&engine, &q, 4, Some(9));
                assert_eq!(
                    ev.od_batch(&subspaces, threads),
                    reference,
                    "ranges={ranges} threads={threads}"
                );
                assert!(ev.node_visits() > 0, "ranges={ranges} threads={threads}");
            }
        }
    }

    #[test]
    fn ranges_follow_inserts_and_retires() {
        // The ranges are recomputed from the physical row count at each
        // evaluator, so rows inserted after the build are split like
        // any other and tombstones stay excluded in their range.
        let d = 3;
        let ds = grid(40, d, 8);
        let mut split = LinearScan::with_ranges(ds.clone(), Metric::L2, 4);
        let mut mirror = LinearScan::new(ds, Metric::L2);
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..60 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
            for e in [&mut split, &mut mirror] {
                e.insert(&row).unwrap();
                if i % 5 == 0 {
                    e.remove(i).unwrap();
                }
            }
        }
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        for qid in [1usize, 46, 99] {
            let q: Vec<f64> = mirror.dataset().row(qid).to_vec();
            let reference: Vec<f64> = subspaces
                .iter()
                .map(|&s| mirror.od(&q, 5, s, Some(qid)))
                .collect();
            let mut ev = LazyContextEvaluator::new(&split, &q, 5, Some(qid));
            assert_eq!(ev.od_batch(&subspaces, 2), reference, "qid={qid}");
        }
    }

    #[test]
    fn split_contexts_count_every_row_once() {
        let ds = grid(50, 3, 4);
        let split = LinearScan::with_ranges(ds.clone(), Metric::L2, 5);
        let q: Vec<f64> = ds.row(0).to_vec();
        LazyContextEvaluator::new(&split, &q, 3, Some(0)).od(Subspace::full(3));
        // Every non-excluded point is touched exactly once in total.
        assert_eq!(split.distance_evals(), 49);
    }

    #[test]
    fn shard_count_splits_only_large_linear_inputs() {
        let floor = MIN_SHARD_ROWS;
        // Below two ranges' worth of rows, one range.
        assert_eq!(shard_count(Engine::Linear, 2000, 2), 1);
        assert_eq!(shard_count(Engine::Linear, 2 * floor - 1, 2), 1);
        assert_eq!(shard_count(Engine::Linear, 2 * floor, 2), 2);
        // Never more ranges than threads, never fewer than one.
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 2), 2);
        assert_eq!(shard_count(Engine::Linear, 3 * floor, 8), 3);
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 1), 1);
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 0), 1);
        assert_eq!(shard_count(Engine::Linear, 0, 4), 1);
        // The X-tree is never split.
        assert_eq!(shard_count(Engine::XTree, 100 * floor, 8), 1);
    }
}
