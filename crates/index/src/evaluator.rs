//! The engine-agnostic OD-evaluation seam.
//!
//! Every search layer in `hos-core` reduces to the same inner loop:
//! given one `(engine, query)` pair, evaluate `OD(query, s)` for a
//! stream of subspaces — one at a time or a whole lattice level per
//! call. The per-query state that loop amortises (the distance cache,
//! the prefix stack, per-shard fan-out) lives here once, behind a
//! trait:
//!
//! * [`OdEvaluator`] — one object per `(engine, query)` pair with
//!   [`OdEvaluator::od`] and [`OdEvaluator::od_batch`] methods. The
//!   evaluator owns [`QueryContext`] construction; callers just stream
//!   subspaces at it.
//! * [`LazyContextEvaluator`] — the default implementation every
//!   [`KnnEngine`] hands out: the engine's pre-distance cache is built
//!   on the first OD call and every OD after it is a prefix-stack
//!   walk over cached columns. An engine without a context (the
//!   X-tree) stays on its own search for every call.
//!
//! Engines with their own execution strategy override
//! [`KnnEngine::evaluator`]: [`crate::sharded::ShardedEngine`] returns
//! an evaluator that fans every OD over data shards with one
//! `QueryContext` **per shard** and merges exact per-shard top-k lists.
//!
//! Exactness: evaluator results are bit-identical to calling
//! [`KnnEngine::od`] per subspace — the cache is pinned by the
//! context equivalence tests, and the evaluator-path equivalence tests
//! in `tests/properties.rs` pin the context-less engines too.
//!
//! [`QueryContext`]: crate::context::QueryContext

use crate::context::QueryContext;
use crate::knn::KnnEngine;
use crate::walker::{walk_order, PrefixStack};
use hos_data::{PointId, Subspace};

/// Evaluates the outlying degree of one fixed query point across many
/// subspaces, amortising per-query state (distance caches, prefix
/// stacks, per-shard fan-out) across calls.
///
/// An evaluator is the unit the search layers program against: build
/// one per `(engine, query)` pair via [`KnnEngine::evaluator`], then
/// stream subspaces at it level by level. Evaluators are stateful
/// (`&mut self`) so they can build caches lazily, but their *results*
/// are pure: every call returns exactly what [`KnnEngine::od`] would.
pub trait OdEvaluator {
    /// `OD(query, s)`: the sum of distances from the query to its `k`
    /// nearest neighbours in subspace `s`.
    fn od(&mut self, s: Subspace) -> f64;

    /// `OD(query, s)` for every subspace in `subspaces`, in input
    /// order. `threads` bounds the fan-out over data shards, the one
    /// way a single query uses more than one core: the sharded
    /// evaluator spreads its per-shard walks over up to `threads`
    /// workers, and every other evaluator runs the batch serially.
    /// Equals calling [`OdEvaluator::od`] per subspace, bit for bit,
    /// regardless of `threads`. Batches are internally traversed in
    /// walker order ([`Subspace::walk_cmp`]) so the prefix-stack
    /// kernel pays `O(n)` per node; since every subspace's OD is a
    /// pure function of the subspace, traversal order never shows in
    /// the results.
    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64>;

    /// Lattice nodes entered by the prefix-stack kernel so far (one
    /// per `O(n)` column fold; see
    /// [`crate::walker::PrefixStack::node_visits`]). `0` for
    /// evaluators that never reached a cached phase — the uncached
    /// engine path does not use the kernel.
    fn node_visits(&self) -> u64 {
        0
    }
}

/// The default [`OdEvaluator`]: a per-query distance cache built on
/// the first OD call, walked by the prefix-stack kernel. It runs every
/// batch serially on the calling thread and ignores `threads`: a query
/// that should use more cores is served by a sharded engine instead
/// (DESIGN.md §6).
///
/// # Cost model
///
/// A cached OD is one `O(n)` column fold per visited lattice node
/// (DESIGN.md §8); an uncached linear-scan OD re-reads every row-major
/// row whatever `|s|` is. The one-pass build costs less than one
/// uncached full-space OD (≈ 0.4 vs 0.9 ms at 20000 × 12), so even a
/// search that ends after the full-space OD comes out ahead by
/// building first (DESIGN.md §3).
pub struct LazyContextEvaluator<'a, E: KnnEngine + ?Sized> {
    engine: &'a E,
    query: &'a [f64],
    k: usize,
    exclude: Option<PointId>,
    /// `None` until the first OD call; then the engine's context, or
    /// `Some(None)` for engines that offer none.
    ctx: Option<Option<QueryContext<'a>>>,
    /// The prefix-stack kernel state, reused across calls so
    /// steady-state traversal allocates nothing (an owned sibling of
    /// `ctx`, threaded into it per call — see [`PrefixStack`]).
    stack: PrefixStack,
    /// Reused walk-order index scratch.
    order: Vec<usize>,
}

impl<'a, E: KnnEngine + ?Sized> LazyContextEvaluator<'a, E> {
    /// Creates the evaluator; no work happens until the first OD call.
    pub fn new(engine: &'a E, query: &'a [f64], k: usize, exclude: Option<PointId>) -> Self {
        LazyContextEvaluator {
            engine,
            query,
            k,
            exclude,
            ctx: None,
            stack: PrefixStack::new(),
            order: Vec::new(),
        }
    }
}

impl<E: KnnEngine + ?Sized> OdEvaluator for LazyContextEvaluator<'_, E> {
    fn od(&mut self, s: Subspace) -> f64 {
        let (engine, query) = (self.engine, self.query);
        match self.ctx.get_or_insert_with(|| engine.query_context(query)) {
            Some(ctx) => {
                self.stack.seek(ctx, s);
                self.stack.od(ctx, self.k, self.exclude)
            }
            None => engine.od(query, self.k, s, self.exclude),
        }
    }

    fn od_batch(&mut self, subspaces: &[Subspace], _threads: usize) -> Vec<f64> {
        if subspaces.is_empty() {
            return Vec::new();
        }
        let (engine, query, k, exclude) = (self.engine, self.query, self.k, self.exclude);
        match self.ctx.get_or_insert_with(|| engine.query_context(query)) {
            Some(ctx) => {
                // Prefix-stack kernel: traverse in walker order so
                // consecutive subspaces share accumulator prefixes,
                // scatter results back into input order. Each OD is a
                // pure function of its subspace, so the reordering is
                // invisible in the results.
                walk_order(subspaces, &mut self.order);
                let mut out = vec![0.0f64; subspaces.len()];
                for &i in &self.order {
                    self.stack.seek(ctx, subspaces[i]);
                    out[i] = self.stack.od(ctx, k, exclude);
                }
                out
            }
            None => subspaces
                .iter()
                .map(|&s| engine.od(query, k, s, exclude))
                .collect(),
        }
    }

    fn node_visits(&self) -> u64 {
        self.stack.node_visits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Engine;
    use crate::linear::LinearScan;
    use crate::sharded::ShardedEngine;
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
            let mut ev = engine.evaluator(&q, 4, Some(3));
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
        assert!(ev.ctx.is_none(), "nothing happens before the first call");
        assert_eq!(ev.od(single), linear.od(&q, 3, single, Some(0)));
        assert!(matches!(ev.ctx, Some(Some(_))), "built on the first od");
        assert_eq!(ev.node_visits(), 1);
        let mut ev = LazyContextEvaluator::new(&linear, &q, 3, Some(0));
        ev.od_batch(&[single], 1);
        assert!(
            matches!(ev.ctx, Some(Some(_))),
            "built on the first od_batch"
        );

        let sharded = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 3, 2);
        let mut ev = sharded.evaluator(&q, 3, Some(0));
        assert_eq!(ev.od(single), linear.od(&q, 3, single, Some(0)));
        assert_eq!(ev.node_visits(), 3, "one fold per shard context");

        let xtree = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let sharded_xtree = ShardedEngine::build(ds.clone(), Metric::L2, Engine::XTree, 3, 2);
        let contextless: [&dyn KnnEngine; 2] = [&xtree, &sharded_xtree];
        for engine in contextless {
            let mut ev = engine.evaluator(&q, 3, Some(0));
            ev.od(single);
            ev.od_batch(&lattice, 2);
            assert_eq!(ev.node_visits(), 0, "context-less engines never fold");
        }
        let mut ev = LazyContextEvaluator::new(&xtree, &q, 3, Some(0));
        ev.od(single);
        assert!(matches!(ev.ctx, Some(None)), "asked once, declined");
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
        let mut ev = xtree.evaluator(&q, 3, Some(5));
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
        let mut ev = engine.evaluator(&q, 4, Some(3));
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
        let mut ev_wide = engine.evaluator(&q, 4, Some(3));
        assert_eq!(ev_wide.od_batch(&subspaces, 4), ods);
        assert_eq!(ev_wide.node_visits(), Subspace::lattice_size(d));
    }

    #[test]
    fn empty_batch_is_empty_and_costs_nothing() {
        let ds = dataset(30, 3, 4);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let before = engine.distance_evals();
        let mut ev = engine.evaluator(&q, 2, None);
        assert!(ev.od_batch(&[], 4).is_empty());
        assert_eq!(engine.distance_evals(), before);
    }

    #[test]
    fn evaluator_usable_through_dyn_engine() {
        let ds = dataset(40, 3, 5);
        let engine: Box<dyn KnnEngine> = Box::new(LinearScan::new(ds.clone(), Metric::L1));
        let q: Vec<f64> = ds.row(1).to_vec();
        let s = Subspace::full(3);
        let mut ev = engine.evaluator(&q, 2, Some(1));
        assert_eq!(ev.od(s), engine.od(&q, 2, s, Some(1)));
    }
}
