//! The prefix-stack lattice kernel: `O(n)` per visited subspace.
//!
//! [`crate::context::QueryContext`] already turned each subspace OD
//! into a combine over `|s|` cached columns — but a lattice traversal
//! re-combines those columns **from scratch at every node**, paying
//! `O(n · |s|)` per visit. The traversal itself is a walk over the
//! prefix trie of ascending dimension lists, and the additive
//! decomposition that justified the cache (paper §3: every metric's
//! pre-distance is a fold of independent per-dimension terms) also
//! means a child node's accumulator is its parent's accumulator plus
//! **one** more column. [`PrefixStack`] exploits exactly that:
//!
//! * [`PrefixStack::descend`]`(dim)` folds one cached column into the
//!   top-of-stack accumulator (dimensions must be pushed in strictly
//!   ascending order), an `O(n)` streaming pass over two contiguous
//!   arrays;
//! * [`PrefixStack::ascend`]`()` pops — the parent accumulator is
//!   still on the stack, untouched;
//! * [`PrefixStack::od`]`(k)` runs bounded top-k selection over the
//!   current `n`-vector, with `crate::topk::TopK`'s cached
//!   kth-distance bound rejecting non-candidates before any heap
//!   operation.
//!
//! # Bit-identity
//!
//! `QueryContext::pre_dist` folds the cached columns of `s` in
//! ascending dimension order starting from `0.0`. Because `descend`
//! *requires* ascending order, the accumulator at a node whose path is
//! `d_1 < d_2 < … < d_m` is produced by the identical sequence of
//! floating-point operations per point — same terms, same order, same
//! combine — so walker pre-distances, and therefore ODs and top-k
//! lists (selection and summation are shared code), are **bit-identical**
//! to the direct canonical combine. This extends the equivalence
//! argument of DESIGN.md §3/§8; `walker_bit_identical_to_direct_combine`
//! below and the workspace proptests pin it across metrics, engines,
//! row-range splits and incremental mutation.
//!
//! # Amortised cost
//!
//! Traversing subspaces in walker order ([`hos_data::Subspace::walk_cmp`];
//! DFS preorder of the prefix trie) makes consecutive nodes share the
//! longest possible prefix: a full-lattice walk performs exactly one
//! `descend` per node (`2^d - 1` column folds total, versus
//! `d · 2^(d-1)` for per-node recombines), and a single lattice level
//! costs one fold per distinct trie prefix — in both cases the
//! per-node cost is independent of `|s|`. [`PrefixStack::node_visits`]
//! counts the folds so the claim is testable, and `SearchStats`
//! reports it per search.
//!
//! # Allocation discipline
//!
//! The stack's level buffers, path scratch and top-k heap are all
//! reused across nodes and across batches: after the first descent to
//! a given depth, traversal is allocation-free. [`PrefixStack`] is a
//! plain owned object (no borrow of the context), so evaluators store
//! one per query — or one per row range — and thread the context in per
//! call; [`PrefixWalker`] bundles a stack with a borrowed context for
//! ergonomic standalone use.

use crate::context::QueryContext;
use crate::knn::Neighbor;
use crate::topk::TopK;
use hos_data::{PointId, Subspace};

/// The owned, reusable prefix-stack state: accumulator levels, the
/// current path, a recycled top-k heap and the node-visit counter.
/// All methods take the [`QueryContext`] explicitly so the stack can
/// live inside the same struct that owns the context (evaluators)
/// without self-reference.
pub struct PrefixStack {
    /// `levels[i]` = per-point pre-distance accumulator over
    /// `path[0..=i]`. Buffers are allocated (or sized from the
    /// thread's spare slot) on first use at each depth and never
    /// shrunk.
    levels: Vec<Vec<f64>>,
    /// The dimensions of the current subspace, strictly ascending.
    path: Vec<usize>,
    /// Whether the top of `path` has been pushed but its column fold
    /// deferred. The fold runs at the first use of the top accumulator:
    /// a deeper [`PrefixStack::descend`] materialises it standalone,
    /// while [`PrefixStack::od`]/[`PrefixStack::knn`] materialise it
    /// *fused* with their selection ([`QueryContext::fold_select_acc`])
    /// so the selection reads each freshly folded block while it is
    /// still L1-resident. A deferred top that is popped again was never
    /// folded at all.
    pending: bool,
    /// Scratch for [`PrefixStack::seek`]'s target dimension list.
    dims: Vec<usize>,
    /// Scratch for the previous node's winning ids, used to seed the
    /// next fused selection's admission bound
    /// ([`QueryContext::fold_select_acc`]).
    seed_ids: Vec<PointId>,
    /// Reused selection heap. Between selections it still holds the
    /// last selection's winners, which seed the next one's admission
    /// bound and price [`PrefixStack::settles`].
    top: TopK,
    /// The [`QueryContext::uid`] the winners in `top` were selected
    /// under (`0` = none yet): ids from another context may be dead or
    /// out of range in this one.
    top_uid: u64,
    /// Scratch for [`PrefixStack::settles`]' finished seed distances.
    seed_dists: Vec<f64>,
    /// Total `descend` calls: one per `O(n)` column fold.
    visits: u64,
    /// The [`QueryContext::uid`] the current accumulators were folded
    /// under. Accumulators from one context are meaningless under
    /// another: [`PrefixStack::seek`] discards the stack when the
    /// context changes, and [`PrefixStack::descend`] debug-asserts the
    /// match — so cross-context reuse recomputes instead of silently
    /// returning another query's sums.
    ctx_uid: u64,
}

/// Ensures the accumulator for `depth` exists and holds `n` slots, and
/// hands it out with its parent for folding. Shared by the standalone
/// and fused materialisation paths. A buffer taken from the thread's
/// spare slot arrives empty and is sized here; every slot is then
/// overwritten by the fold before anything reads it.
fn level_buffers(
    levels: &mut Vec<Vec<f64>>,
    depth: usize,
    n: usize,
) -> (Option<&[f64]>, &mut Vec<f64>) {
    debug_assert!(depth > 0);
    if levels.len() < depth {
        levels.push(vec![0.0f64; n]);
    }
    let (parents, rest) = levels.split_at_mut(depth - 1);
    let child = &mut rest[0];
    if child.len() != n {
        child.clear();
        child.resize(n, 0.0);
    }
    (parents.last().map(|v| v.as_slice()), child)
}

impl Drop for PrefixStack {
    fn drop(&mut self) {
        crate::scratch::give_levels(std::mem::take(&mut self.levels));
    }
}

impl Default for PrefixStack {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixStack {
    /// An empty stack. Its accumulators come from this thread's spare
    /// slot when an earlier stack parked some there, and go back to it
    /// on drop (capacity only: path, visit count and context id start
    /// fresh; DESIGN.md §3).
    pub fn new() -> Self {
        PrefixStack {
            levels: crate::scratch::take_levels(),
            path: Vec::new(),
            dims: Vec::new(),
            seed_ids: Vec::new(),
            top: TopK::new(0),
            top_uid: 0,
            seed_dists: Vec::new(),
            visits: 0,
            ctx_uid: 0,
            pending: false,
        }
    }

    /// The subspace currently on the stack.
    pub fn subspace(&self) -> Subspace {
        Subspace::from_dims(&self.path)
    }

    /// Current depth (`|s|` of the current subspace).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Total column folds performed so far — the kernel's cost in
    /// `O(n)` units; on a full-lattice walk this equals the number of
    /// visited nodes exactly.
    pub fn node_visits(&self) -> u64 {
        self.visits
    }

    /// Pushes `dim`; the column fold itself is *deferred* until the
    /// new accumulator is first used. A deeper descend materialises it
    /// standalone (one streaming `O(n)` pass, exactly as before); an
    /// [`PrefixStack::od`]/[`PrefixStack::knn`] materialises it fused
    /// with the selection, which reads each folded block while it is
    /// still L1-hot instead of re-streaming the whole accumulator. The
    /// fold sequence per point is identical either way, so every
    /// result bit is unchanged.
    ///
    /// # Panics
    /// Panics if `dim` is not strictly greater than the current top of
    /// the path — the ascending-order invariant the bit-identity
    /// argument rests on.
    pub fn descend(&mut self, ctx: &QueryContext<'_>, dim: usize) {
        assert!(
            self.path.last().is_none_or(|&last| dim > last),
            "descend({dim}) after {:?}: dimensions must strictly ascend",
            self.path
        );
        debug_assert!(
            self.path.is_empty() || self.ctx_uid == ctx.uid(),
            "descend under a different QueryContext than the stack's \
             accumulators were folded with — use seek(), which resets"
        );
        self.ctx_uid = ctx.uid();
        if self.pending {
            self.materialize(ctx);
        }
        self.path.push(dim);
        self.pending = true;
    }

    /// Runs the deferred column fold of the current top standalone —
    /// one chunked `O(n)` pass ([`QueryContext::fold_column_into`]:
    /// 4-lane fixed-width body the vectorizer handles, dispatched on
    /// the metric once per fold instead of per element; lanes span
    /// points, so each point's fold order — and every result bit — is
    /// unchanged).
    fn materialize(&mut self, ctx: &QueryContext<'_>) {
        let dim = *self.path.last().expect("materialize at the root");
        let (parent, child) = level_buffers(&mut self.levels, self.path.len(), ctx.len());
        ctx.fold_column_into(dim, parent, child);
        self.pending = false;
        self.visits += 1;
    }

    /// Pops the top dimension; the parent accumulator is live again.
    /// A deferred (never-used) top is simply dropped — its fold never
    /// runs.
    ///
    /// # Panics
    /// Panics if the stack is empty.
    pub fn ascend(&mut self) {
        self.path.pop().expect("ascend from the root");
        // Only the top can be deferred, so whatever is now on top has
        // been materialised.
        self.pending = false;
    }

    /// Pops everything: back to the empty subspace.
    pub fn reset(&mut self) {
        self.path.clear();
        self.pending = false;
    }

    /// Moves the stack to subspace `s` with the fewest possible
    /// operations: pop to the longest common ascending-dim prefix,
    /// then descend the remaining dimensions. In walker order
    /// ([`Subspace::walk_cmp`]) over a batch, this is what amortises
    /// to ~one descend per node. A stack handed a *different* context
    /// than its accumulators were folded under discards them first —
    /// cross-context reuse recomputes, never returns stale sums.
    pub fn seek(&mut self, ctx: &QueryContext<'_>, s: Subspace) {
        if self.ctx_uid != ctx.uid() {
            self.path.clear();
            self.pending = false;
        }
        self.dims.clear();
        self.dims.extend(s.dims());
        let keep = self
            .path
            .iter()
            .zip(&self.dims)
            .take_while(|(a, b)| a == b)
            .count();
        if keep < self.path.len() {
            self.path.truncate(keep);
            // A deferred top is gone (or no longer on top of a shorter
            // path): everything kept is materialised.
            self.pending = false;
        }
        for i in keep..self.dims.len() {
            let dim = self.dims[i];
            self.descend(ctx, dim);
        }
    }

    /// OD of the query in the current subspace: bounded top-k over the
    /// top-of-stack accumulator, finished and summed in ascending
    /// `(pre, id)` order — bit-identical to
    /// [`QueryContext::od`] on [`PrefixStack::subspace`].
    pub fn od(&mut self, ctx: &QueryContext<'_>, k: usize, exclude: Option<PointId>) -> f64 {
        match self.path.len() {
            // Empty subspace: no accumulator on the stack; delegate to
            // the direct path (every pre-distance is the fold identity).
            0 => ctx.od(k, Subspace::empty(), exclude),
            depth => {
                self.select_top(ctx, k, exclude, depth);
                ctx.finish_od(&mut self.top)
            }
        }
    }

    /// Selection over the current top accumulator into the reused
    /// heap: fused with the deferred fold when one is pending
    /// ([`QueryContext::fold_select_acc`]), plain bounded selection
    /// otherwise. Both paths produce bit-identical kept sets.
    fn select_top(
        &mut self,
        ctx: &QueryContext<'_>,
        k: usize,
        exclude: Option<PointId>,
        depth: usize,
    ) {
        self.top_uid = ctx.uid();
        if self.pending {
            debug_assert_eq!(self.ctx_uid, ctx.uid());
            let dim = self.path[depth - 1];
            // The previous node's winners seed the next admission
            // bound: any k live non-excluded ids majorise the true
            // kth-best, and lattice neighbours overlap heavily, so the
            // bound starts near-optimal. (The heap still holds them —
            // `fold_select_acc` resets it after reading the seeds.)
            self.seed_ids.clear();
            self.seed_ids.extend(self.top.ids());
            let (parent, child) = level_buffers(&mut self.levels, depth, ctx.len());
            ctx.fold_select_acc(
                dim,
                parent,
                child,
                k,
                exclude,
                &mut self.top,
                &self.seed_ids,
            );
            self.pending = false;
            self.visits += 1;
        } else {
            ctx.select_acc(&self.levels[depth - 1], k, exclude, &mut self.top);
        }
    }

    /// Whether the last selection's `k` winners prove `OD(s) <
    /// threshold` without a scan: their distances in `s` are priced
    /// `O(|s|)` each from the cached columns
    /// ([`QueryContext::pre_dist`]), finished, sorted ascending and
    /// summed. The true top-k, sorted, is elementwise `<=` any `k`
    /// distinct live non-excluded candidates, sorted; `Metric::finish`
    /// and rounded addition are both monotone, so the exact OD — the
    /// same ascending sum over the true winners — is `<=` this sum,
    /// bit for bit, with no epsilon (DESIGN.md §8). Touches neither
    /// the stack nor the selection, so the winners stay on hand for the
    /// next node.
    ///
    /// Settles only with exactly `k` seeds selected under `ctx` and
    /// `exclude` (the evaluator's lanes keep both fixed); never for
    /// `threshold = -inf`, which is how the plain OD walk skips the
    /// pricing.
    pub(crate) fn settles(
        &mut self,
        ctx: &QueryContext<'_>,
        s: Subspace,
        k: usize,
        exclude: Option<PointId>,
        threshold: f64,
    ) -> bool {
        if threshold == f64::NEG_INFINITY || k == 0 || self.top_uid != ctx.uid() {
            return false;
        }
        self.seed_dists.clear();
        for id in self.top.ids() {
            if Some(id) == exclude {
                return false;
            }
            self.seed_dists
                .push(ctx.metric().finish(ctx.pre_dist(id, s)));
        }
        if self.seed_dists.len() != k {
            return false;
        }
        self.seed_dists.sort_unstable_by(f64::total_cmp);
        self.seed_dists.iter().sum::<f64>() < threshold
    }

    /// The `k` nearest neighbours in the current subspace, ascending
    /// by `(distance, id)` — bit-identical to [`QueryContext::knn`].
    pub fn knn(
        &mut self,
        ctx: &QueryContext<'_>,
        k: usize,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        match self.path.len() {
            0 => ctx.knn(k, Subspace::empty(), exclude),
            depth => {
                self.select_top(ctx, k, exclude, depth);
                ctx.finish_knn(&mut self.top)
            }
        }
    }
}

/// A [`PrefixStack`] bundled with the [`QueryContext`] it walks —
/// the object [`QueryContext::walker`] hands out.
///
/// ```
/// use hos_data::{Dataset, Metric, Subspace};
/// use hos_index::{KnnEngine, LinearScan};
///
/// let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 5) as f64, 0.5]).collect();
/// let ds = Dataset::from_rows(&rows).unwrap();
/// let engine = LinearScan::new(ds, Metric::L2);
/// let ctx = engine.query_context(&[3.0, 1.0, 0.2]).expect("linear scan caches");
/// let mut w = ctx.walker();
/// w.descend(0);                       // subspace {0}
/// w.descend(2);                       // subspace {0,2}
/// let od = w.od(4, None);
/// // Bit-identical to the direct canonical combine:
/// assert_eq!(od, ctx.od(4, Subspace::from_dims(&[0, 2]), None));
/// w.ascend();                         // back to {0}
/// assert_eq!(w.od(4, None), ctx.od(4, Subspace::from_dims(&[0]), None));
/// ```
pub struct PrefixWalker<'a> {
    ctx: &'a QueryContext<'a>,
    stack: PrefixStack,
}

impl<'a> PrefixWalker<'a> {
    pub(crate) fn new(ctx: &'a QueryContext<'a>) -> Self {
        PrefixWalker {
            ctx,
            stack: PrefixStack::new(),
        }
    }

    /// The underlying context.
    pub fn ctx(&self) -> &QueryContext<'a> {
        self.ctx
    }

    /// See [`PrefixStack::descend`].
    pub fn descend(&mut self, dim: usize) {
        self.stack.descend(self.ctx, dim);
    }

    /// See [`PrefixStack::ascend`].
    pub fn ascend(&mut self) {
        self.stack.ascend();
    }

    /// See [`PrefixStack::seek`].
    pub fn seek(&mut self, s: Subspace) {
        self.stack.seek(self.ctx, s);
    }

    /// See [`PrefixStack::subspace`].
    pub fn subspace(&self) -> Subspace {
        self.stack.subspace()
    }

    /// See [`PrefixStack::depth`].
    pub fn depth(&self) -> usize {
        self.stack.depth()
    }

    /// See [`PrefixStack::node_visits`].
    pub fn node_visits(&self) -> u64 {
        self.stack.node_visits()
    }

    /// See [`PrefixStack::od`].
    pub fn od(&mut self, k: usize, exclude: Option<PointId>) -> f64 {
        self.stack.od(self.ctx, k, exclude)
    }

    /// See [`PrefixStack::knn`].
    pub fn knn(&mut self, k: usize, exclude: Option<PointId>) -> Vec<Neighbor> {
        self.stack.knn(self.ctx, k, exclude)
    }
}

/// Sorts batch indices into walker order over `subspaces` — the
/// shared preamble of every walker-backed `od_batch`.
pub(crate) fn walk_order(subspaces: &[Subspace], idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..subspaces.len());
    idx.sort_unstable_by(|&a, &b| subspaces[a].walk_cmp(subspaces[b]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnEngine;
    use crate::linear::LinearScan;
    use hos_data::{Dataset, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        // Coarse grid: plenty of exact ties so the (pre, id) tie-break
        // is exercised through the kernel's selection too.
        let flat: Vec<f64> = (0..n * d)
            .map(|_| (rng.gen_range(0..12) as f64) * 0.5)
            .collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn walker_bit_identical_to_direct_combine() {
        let d = 6;
        let ds = random_dataset(90, d, 1);
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let q: Vec<f64> = ds.row(11).to_vec();
            let ctx = QueryContext::build(&ds, metric, &q);
            let mut w = ctx.walker();
            // Walk the whole lattice in walker order; every OD and
            // every top-k list must equal the direct combine bitwise.
            let mut subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
            subspaces.sort_by(|a, b| a.walk_cmp(*b));
            for &s in &subspaces {
                w.seek(s);
                assert_eq!(w.subspace(), s, "{metric:?} {s}");
                assert_eq!(w.od(5, Some(11)), ctx.od(5, s, Some(11)), "{metric:?} {s}");
                assert_eq!(
                    w.knn(5, Some(11)),
                    ctx.knn(5, s, Some(11)),
                    "{metric:?} {s}"
                );
            }
            // Full-lattice walk in walker order: exactly one descend
            // per node — the O(n)-per-node claim, exact.
            assert_eq!(w.node_visits(), Subspace::lattice_size(d), "{metric:?}");
        }
    }

    #[test]
    fn seek_in_arbitrary_order_still_exact() {
        let d = 5;
        let ds = random_dataset(60, d, 2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L2, &q);
        let mut w = ctx.walker();
        // Mask order (NOT walker order): correctness must not depend
        // on the traversal order, only the amortisation does.
        for s in Subspace::all_nonempty(d) {
            w.seek(s);
            assert_eq!(w.od(3, None), ctx.od(3, s, None), "{s}");
        }
        // More folds than nodes (prefixes re-descended), but never
        // more than the direct combine's total dimensionality.
        let total_dims: u64 = Subspace::all_nonempty(d).map(|s| s.dim() as u64).sum();
        assert!(w.node_visits() > Subspace::lattice_size(d));
        assert!(w.node_visits() <= total_dims);
    }

    #[test]
    fn manual_descend_ascend_walk() {
        let ds = random_dataset(40, 4, 3);
        let q: Vec<f64> = ds.row(5).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L1, &q);
        let mut w = ctx.walker();
        assert_eq!(w.depth(), 0);
        w.descend(1);
        w.descend(3);
        assert_eq!(w.subspace(), Subspace::from_dims(&[1, 3]));
        assert_eq!(
            w.od(4, Some(5)),
            ctx.od(4, Subspace::from_dims(&[1, 3]), Some(5))
        );
        w.ascend();
        w.descend(2);
        assert_eq!(
            w.od(4, Some(5)),
            ctx.od(4, Subspace::from_dims(&[1, 2]), Some(5))
        );
        w.ascend();
        w.ascend();
        assert_eq!(w.depth(), 0);
        // Re-descending reuses buffers; values stay exact.
        w.descend(0);
        assert_eq!(
            w.od(4, Some(5)),
            ctx.od(4, Subspace::from_dims(&[0]), Some(5))
        );
    }

    #[test]
    fn tombstones_and_exclusion_respected() {
        let mut ds = random_dataset(30, 3, 4);
        ds.remove_row(7).unwrap();
        ds.remove_row(19).unwrap();
        let q: Vec<f64> = ds.row(2).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L2, &q);
        let mut w = ctx.walker();
        for s in Subspace::all_nonempty(3) {
            w.seek(s);
            let nn = w.knn(6, Some(2));
            assert_eq!(nn, ctx.knn(6, s, Some(2)), "{s}");
            assert!(nn.iter().all(|n| n.id != 7 && n.id != 19 && n.id != 2));
        }
    }

    #[test]
    fn distance_eval_accounting_matches_direct_path() {
        let ds = random_dataset(25, 3, 5);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let ctx = engine.query_context(&q).expect("linear scan caches");
        let mut w = ctx.walker();
        w.seek(Subspace::from_dims(&[0, 2]));
        w.od(3, Some(0));
        // Same logical count as ctx.od: every non-excluded live point.
        assert_eq!(engine.distance_evals(), 24);
    }

    #[test]
    fn walk_order_sorts_prefix_first() {
        let d = 3;
        let mut subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        subspaces.sort_by(|a, b| a.walk_cmp(*b));
        let dims: Vec<Vec<usize>> = subspaces.iter().map(|s| s.dim_vec()).collect();
        assert_eq!(
            dims,
            vec![
                vec![0],
                vec![0, 1],
                vec![0, 1, 2],
                vec![0, 2],
                vec![1],
                vec![1, 2],
                vec![2],
            ]
        );
        // walk_order produces the same permutation as indices.
        let mut idx = Vec::new();
        let shuffled = [subspaces[4], subspaces[0], subspaces[2]];
        walk_order(&shuffled, &mut idx);
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn seek_across_contexts_discards_stale_accumulators() {
        // A PrefixStack takes its context per call, so nothing stops a
        // caller from reusing one stack across two query points. The
        // context-uid guard must make that recompute, not silently
        // blend accumulators from different queries.
        let ds = random_dataset(35, 4, 7);
        let qa: Vec<f64> = ds.row(1).to_vec();
        let qb: Vec<f64> = ds.row(2).to_vec();
        let ctx_a = QueryContext::build(&ds, Metric::L2, &qa);
        let ctx_b = QueryContext::build(&ds, Metric::L2, &qb);
        let mut stack = PrefixStack::new();
        let s01 = Subspace::from_dims(&[0, 1]);
        let s02 = Subspace::from_dims(&[0, 2]);
        stack.seek(&ctx_a, s01);
        assert_eq!(stack.od(&ctx_a, 4, Some(1)), ctx_a.od(4, s01, Some(1)));
        // Same dim-0 prefix, different context: without the guard the
        // level-0 accumulator would still hold ctx_a's column.
        stack.seek(&ctx_b, s02);
        assert_eq!(stack.od(&ctx_b, 4, Some(2)), ctx_b.od(4, s02, Some(2)));
        // And back, with the full lattice for good measure.
        for s in Subspace::all_nonempty(4) {
            stack.seek(&ctx_a, s);
            assert_eq!(stack.od(&ctx_a, 3, None), ctx_a.od(3, s, None), "{s}");
        }
    }

    #[test]
    #[should_panic]
    fn non_ascending_descend_panics() {
        let ds = random_dataset(10, 3, 6);
        let q: Vec<f64> = ds.row(0).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L2, &q);
        let mut w = ctx.walker();
        w.descend(2);
        w.descend(1);
    }
}
