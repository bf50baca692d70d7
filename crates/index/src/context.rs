//! Per-query distance cache: the `n x d` pre-distance matrix.
//!
//! The dynamic subspace search (paper §3.3) evaluates the OD of one
//! query point in up to `2^d - 1` subspaces. An uncached engine
//! re-reads every raw coordinate and recomputes every per-dimension
//! delta for each of those evaluations, so the same `|q_j - p_j|` is
//! computed up to `2^(d-1)` times. [`QueryContext`] computes each
//! per-dimension *pre-distance term* (`|q_j - p_j|` for L1/L∞, the
//! squared delta for L2, the `p`-th power for Lp) exactly once per
//! `(point, dimension)` pair; every subsequent subspace OD is then a
//! subset-combine over cached columns plus bounded top-k selection —
//! no raw coordinate is touched again.
//!
//! Exactness: the cached terms are precisely what
//! [`Metric::pre_dist_sub`] folds over, combined in the same ascending
//! dimension order with the same floating-point operations, so cached
//! ODs are **bit-identical** to uncached [`LinearScan`] ODs — not just
//! close. The equivalence property test in `tests/properties.rs` pins
//! this across all metrics and entire lattices.
//!
//! Engines opt in through [`crate::knn::KnnEngine::query_context`];
//! the [`crate::evaluator`] seam (and so `hos-core`'s
//! `dynamic_search`) uses the cache transparently whenever the engine
//! provides one.
//!
//! [`LinearScan`]: crate::linear::LinearScan

use crate::knn::Neighbor;
use crate::topk::TopK;
use crate::walker::PrefixWalker;
use hos_data::{Dataset, Metric, PointId, Subspace};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// The cached `n x d` pre-distance matrix of one query point.
///
/// Column-major: all `n` per-point terms of one dimension are
/// contiguous, so a subspace combine streams `|s|` cache-friendly
/// columns instead of `n` strided rows.
///
/// ```
/// use hos_data::{Dataset, Metric, Subspace};
/// use hos_index::{KnnEngine, LinearScan, QueryContext};
///
/// let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![9.0, 9.0]]).unwrap();
/// let engine = LinearScan::new(ds, Metric::L2);
/// let query = [0.0, 0.0];
/// let ctx = engine.query_context(&query).expect("linear scan caches");
/// let s = Subspace::full(2);
/// // Cached OD is exactly the engine's OD:
/// assert_eq!(ctx.od(2, s, None), engine.od(&query, 2, s, None));
/// ```
pub struct QueryContext<'a> {
    metric: Metric,
    /// Dataset id of the first cached row: the context covers rows
    /// `base..base + n`, and every id it takes or reports is a dataset
    /// id, so selections over different row ranges merge directly.
    base: PointId,
    n: usize,
    /// `cols[j * n + i]` = pre-distance term of row `base + i` in dim
    /// `j`.
    cols: Vec<f64>,
    /// Tombstone snapshot of the cached rows at build time (empty = all
    /// of them live): cached terms exist for every physical row, but
    /// dead rows never enter selection — matching the live-only engine
    /// scans.
    dead: Vec<bool>,
    /// The owning engine's distance-evaluation counter, so cached OD
    /// work stays visible to the efficiency experiments.
    evals: Option<&'a AtomicU64>,
    /// Process-unique build id, so a [`crate::walker::PrefixStack`]
    /// can detect (and discard) accumulators computed under a
    /// different context instead of silently reusing them.
    uid: u64,
}

impl Drop for QueryContext<'_> {
    fn drop(&mut self) {
        crate::scratch::give_cols(std::mem::take(&mut self.cols));
    }
}

/// Source of [`QueryContext::uid`] values.
static NEXT_CTX_UID: AtomicU64 = AtomicU64::new(1);

/// Accumulator lanes of the chunked column folds. Four `f64`s span a
/// 256-bit vector register; rustc unrolls the fixed-width body into
/// straight-line code the auto-vectorizer handles without any SIMD
/// crate. The lanes run over *points* — each point's own fold order is
/// untouched, so chunking cannot change a single result bit (the
/// DESIGN.md §9 argument).
const FOLD_LANES: usize = 4;

/// `child[i] = parent[i] + col[i]` — the additive-metric column fold
/// (L1/L2/Lp cached terms are all summed), chunked for the vectorizer.
fn fold_add(child: &mut [f64], parent: &[f64], col: &[f64]) {
    let head = child.len() - child.len() % FOLD_LANES;
    for ((c, p), t) in child[..head]
        .chunks_exact_mut(FOLD_LANES)
        .zip(parent[..head].chunks_exact(FOLD_LANES))
        .zip(col[..head].chunks_exact(FOLD_LANES))
    {
        c[0] = p[0] + t[0];
        c[1] = p[1] + t[1];
        c[2] = p[2] + t[2];
        c[3] = p[3] + t[3];
    }
    for ((c, &p), &t) in child[head..]
        .iter_mut()
        .zip(&parent[head..])
        .zip(&col[head..])
    {
        *c = p + t;
    }
}

/// `child[i] = parent[i].max(col[i])` — the L∞ column fold.
fn fold_max(child: &mut [f64], parent: &[f64], col: &[f64]) {
    let head = child.len() - child.len() % FOLD_LANES;
    for ((c, p), t) in child[..head]
        .chunks_exact_mut(FOLD_LANES)
        .zip(parent[..head].chunks_exact(FOLD_LANES))
        .zip(col[..head].chunks_exact(FOLD_LANES))
    {
        c[0] = p[0].max(t[0]);
        c[1] = p[1].max(t[1]);
        c[2] = p[2].max(t[2]);
        c[3] = p[3].max(t[3]);
    }
    for ((c, &p), &t) in child[head..]
        .iter_mut()
        .zip(&parent[head..])
        .zip(&col[head..])
    {
        *c = p.max(t);
    }
}

/// Candidate lanes of the chunked bounded selection below.
const SEL_LANES: usize = 16;

/// Scalar elements offered after the fill phase before chunk-skipping
/// starts. Right after the fill the bound is the worst of the first
/// `k` elements — loose enough that early chunks would nearly all be
/// admitted (and pay per-element heap traffic). A short scalar warmup
/// tightens the bound to the running kth-best before the chunked loop
/// relies on it, capping total admissions near the k·log(n/k) optimum.
const SEL_WARMUP: usize = 32;

/// Offers a contiguous accumulator run (point ids `base..`) into
/// `top`, skipping [`SEL_LANES`]-wide chunks whose every pre-distance
/// lies strictly beyond the admission bound. The bound is the tighter
/// of [`TopK::bound`] and `w0`, a caller-supplied *seed*: any value
/// known to be `>=` the true kth-smallest pre-distance of the run (the
/// walker derives one from the previous lattice node's winners; pass
/// `+inf` for none). A skipped element satisfies `pre > bound >=
/// final kth-best`, which is exactly the condition [`TopK::offer`]'s
/// fast path rejects on — so the kept set, the tie-break and therefore
/// every downstream OD are bit-identical to offering every element;
/// ties *at* the bound stay in the chunk's offer loop (a smaller id
/// can still evict the worst). The bound is re-read only after a chunk
/// lands an offer: it only tightens, so a stale bound skips less,
/// never more.
fn offer_bounded(acc: &[f64], base: usize, top: &mut TopK, warmup: bool, w0: f64) {
    let mut i = 0usize;
    if w0.is_infinite() {
        // No seed: nothing can be skipped until the selection is full,
        // so offer the fill directly.
        while i < acc.len() && !top.is_full() {
            top.offer(acc[i], base + i);
            i += 1;
        }
        // Warmup phase: scalar offers that tighten the bound (see
        // SEL_WARMUP) before the chunked loop starts trusting it.
        // Callers resuming a selection whose bound is already tight
        // skip it.
        if warmup {
            let warm = (i + SEL_WARMUP).min(acc.len());
            while i < warm {
                top.offer(acc[i], base + i);
                i += 1;
            }
        }
    }
    // With a seed, the chunked loop runs from element 0: the heap
    // fills with survivors only (offer pushes while slots remain), and
    // the guaranteed >= k elements at or under `w0` ensure it fills by
    // the end of the run(s).
    let mut w = top.bound().min(w0);
    while i + SEL_LANES <= acc.len() {
        let c = &acc[i..i + SEL_LANES];
        // Tree-reduced chunk minimum: `min <= w` iff some lane is
        // admissible. Raw comparisons (not f64::min) keep the lowered
        // code branch-free (minpd), and the whole test vectorizes;
        // pre-distances are finite by construction.
        let mut m = [0.0f64; SEL_LANES / 2];
        for j in 0..SEL_LANES / 2 {
            m[j] = if c[j] < c[j + SEL_LANES / 2] {
                c[j]
            } else {
                c[j + SEL_LANES / 2]
            };
        }
        let mut width = SEL_LANES / 2;
        while width > 1 {
            width /= 2;
            for j in 0..width {
                m[j] = if m[j] < m[j + width] {
                    m[j]
                } else {
                    m[j + width]
                };
            }
        }
        let min = m[0];
        if min <= w {
            // Branchless compress of the chunk's true survivors: the
            // unconditional store + conditional increment has no
            // data-dependent control flow, so only the ~1-2 admissible
            // lanes reach `offer`'s branchy fast path instead of all
            // eight. The `& (SEL_LANES - 1)` is a no-op (len never
            // exceeds the chunk length) that makes the store provably
            // in-bounds — no per-lane panic branch.
            let mut buf = [0u32; SEL_LANES];
            let mut len = 0usize;
            for (j, &v) in c.iter().enumerate() {
                buf[len & (SEL_LANES - 1)] = j as u32;
                len += (v <= w) as usize;
            }
            for &j in &buf[..len] {
                top.offer(c[j as usize], base + i + j as usize);
            }
            if len > 0 {
                w = top.bound().min(w0);
            }
        }
        i += SEL_LANES;
    }
    for (j, &pre) in acc[i..].iter().enumerate() {
        top.offer(pre, base + i + j);
    }
}

/// Transposes the row-major `flat` matrix (`n` rows of `query.len()`
/// values) into column-major pre-distance terms, `term(|q_j - x_ij|)`
/// per slot, in one sequential pass over the rows. Each row's `d`
/// stores go to `d` separate column streams, each advancing by one
/// slot per row — `d` sequential write streams instead of `d` strided
/// read passes over the whole matrix. The output is written straight
/// into the spare capacity of `cols` (this thread's reused buffer, see
/// the `scratch` module), skipping a zero-fill of `n · d` slots that
/// would all be overwritten (measured ≈ 0.44 → 0.31 ms at 20000 × 12).
#[inline(always)]
fn column_terms(
    mut cols: Vec<f64>,
    flat: &[f64],
    query: &[f64],
    n: usize,
    term: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let d = query.len();
    let len = n * d;
    cols.clear();
    cols.reserve(len);
    if len == 0 {
        return cols;
    }
    let spare = &mut cols.spare_capacity_mut()[..len];
    for (i, row) in flat[..len].chunks_exact(d).enumerate() {
        for (j, (&q, &x)) in query.iter().zip(row).enumerate() {
            spare[j * n + i].write(term((q - x).abs()));
        }
    }
    // SAFETY: `cols` was cleared and then reserved for `len` slots, so
    // `spare` covers exactly slots `0..len` whatever an earlier search
    // left in the buffer's capacity. `flat[..len].chunks_exact(d)`
    // yields exactly `n` rows of `d` values and `query` has `d` values,
    // so the loop above wrote every slot `j * n + i` for `i < n`,
    // `j < d` — exactly the `len` slots now exposed.
    unsafe { cols.set_len(len) };
    cols
}

impl<'a> QueryContext<'a> {
    /// Computes the pre-distance matrix for `query` against `dataset`:
    /// one sequential pass over the raw row-major coordinates, `n * d`
    /// stored terms. The metric is dispatched once, outside the loop;
    /// each term is the same `metric.accumulate(0.0, |q_j - x_ij|)`
    /// expression the engines fold, so every cached bit matches. The
    /// matrix is written into this thread's spare buffer when one is
    /// parked, and dropping the context parks it again (one spare
    /// buffer per thread, capacity only; DESIGN.md §3).
    ///
    /// # Panics
    /// Panics if `query.len()` differs from `dataset.dim()`.
    pub fn build(dataset: &Dataset, metric: Metric, query: &[f64]) -> QueryContext<'a> {
        Self::build_rows(dataset, metric, query, 0..dataset.len())
    }

    /// [`QueryContext::build`] over the physical rows `rows` of
    /// `dataset` only: `rows.len() x d` terms, the tombstones of those
    /// rows, and dataset ids in and out (an exclusion outside `rows`
    /// excludes nothing here). The per-range selections of a split walk
    /// are therefore plain top-k lists over one id space, and their
    /// exact merge is the whole-dataset selection (DESIGN.md §6).
    ///
    /// # Panics
    /// Panics if `query.len()` differs from `dataset.dim()` or `rows`
    /// is not within `0..dataset.len()`.
    pub fn build_rows(
        dataset: &Dataset,
        metric: Metric,
        query: &[f64],
        rows: Range<PointId>,
    ) -> QueryContext<'a> {
        let d = dataset.dim();
        assert_eq!(query.len(), d, "query arity mismatch");
        assert!(rows.end <= dataset.len(), "rows {rows:?} out of bounds");
        let n = rows.len();
        let flat = &dataset.as_flat()[rows.start * d..rows.end * d];
        let buf = crate::scratch::take_cols();
        let cols = match metric {
            Metric::L1 => column_terms(buf, flat, query, n, |g| Metric::L1.accumulate(0.0, g)),
            Metric::L2 => column_terms(buf, flat, query, n, |g| Metric::L2.accumulate(0.0, g)),
            Metric::LInf => column_terms(buf, flat, query, n, |g| Metric::LInf.accumulate(0.0, g)),
            Metric::Lp(p) => {
                column_terms(buf, flat, query, n, |g| Metric::Lp(p).accumulate(0.0, g))
            }
        };
        // Only a range that holds a tombstone pays the liveness check
        // on selection.
        let dead = if dataset.dead_count() > 0 && rows.clone().any(|i| !dataset.is_live(i)) {
            rows.clone().map(|i| !dataset.is_live(i)).collect()
        } else {
            Vec::new()
        };
        QueryContext {
            metric,
            base: rows.start,
            n,
            cols,
            dead,
            evals: None,
            uid: NEXT_CTX_UID.fetch_add(1, AtomicOrdering::Relaxed),
        }
    }

    /// The process-unique id of this build (see the `uid` field).
    #[inline]
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Attaches an engine's distance counter: every subsequent OD /
    /// k-NN call adds its logical point-distance count there.
    pub(crate) fn with_counter(mut self, evals: &'a AtomicU64) -> QueryContext<'a> {
        self.evals = Some(evals);
        self
    }

    /// The cached slot of dataset id `id`, when the id lies in this
    /// context's rows.
    #[inline]
    fn slot(&self, id: PointId) -> Option<usize> {
        id.checked_sub(self.base).filter(|&i| i < self.n)
    }

    /// Number of points in the cached matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cached dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The metric the terms were computed under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// A [`PrefixWalker`] over this context: the prefix-stack lattice
    /// kernel that makes each visited node an `O(n)` column fold
    /// instead of an `O(n · |s|)` recombine — bit-identical to
    /// [`QueryContext::od`] because both fold the same cached columns
    /// in the same ascending-dimension order.
    pub fn walker(&self) -> PrefixWalker<'_> {
        PrefixWalker::new(self)
    }

    /// Folds one cached column term into a running accumulator —
    /// the cached analogue of [`Metric::accumulate`].
    #[inline]
    pub(crate) fn combine(&self, acc: f64, term: f64) -> f64 {
        match self.metric {
            Metric::LInf => acc.max(term),
            _ => acc + term,
        }
    }

    /// The cached pre-distance column of dimension `j`: one term per
    /// cached row, in row order.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.n..(j + 1) * self.n]
    }

    /// Folds the cached column of `dim` into `child` on top of
    /// `parent` (`None` = the fold identity, i.e. the root level) —
    /// the prefix-stack descend step, dispatched once per call to the
    /// chunked per-metric kernel instead of matching on the metric per
    /// element. `combine(0.0, term)` equals `term` bit for bit for
    /// every metric (terms are absolute gaps, never `-0.0`), so the
    /// root level is a plain chunk-friendly copy.
    pub(crate) fn fold_column_into(&self, dim: usize, parent: Option<&[f64]>, child: &mut [f64]) {
        let col = self.col(dim);
        match (parent, self.metric) {
            (None, _) => child.copy_from_slice(col),
            (Some(p), Metric::LInf) => fold_max(child, p, col),
            (Some(p), _) => fold_add(child, p, col),
        }
    }

    /// Top-k selection over an externally accumulated pre-distance
    /// vector (one slot per cached row) — the prefix-stack kernel's
    /// selection step. Applies exactly the same exclusion, liveness
    /// and eval-accounting rules as [`QueryContext::od`]'s own
    /// selection, into a caller-owned reusable [`TopK`]; the kept
    /// candidates are left in the scratch (read them via
    /// [`TopK::sorted`]).
    pub(crate) fn select_acc(
        &self,
        acc: &[f64],
        k: usize,
        exclude: Option<PointId>,
        top: &mut TopK,
    ) {
        top.reset(k);
        if k == 0 || self.n == 0 {
            return;
        }
        debug_assert_eq!(acc.len(), self.n);
        let count = if self.dead.is_empty() {
            // All rows live: split the scan at the excluded id instead
            // of testing it per element, then run the chunked bounded
            // offer over each contiguous run. Offer order stays
            // ascending by id and skips only provably-rejected
            // elements, so the kept set and tie-break are unchanged.
            let ex = exclude.and_then(|e| self.slot(e)).unwrap_or(usize::MAX);
            let (head, tail, tail_base) = if ex < acc.len() {
                (&acc[..ex], &acc[ex + 1..], ex + 1)
            } else {
                (acc, &[][..], 0)
            };
            offer_bounded(head, self.base, top, true, f64::INFINITY);
            offer_bounded(
                tail,
                self.base + tail_base,
                top,
                head.len() < SEL_WARMUP,
                f64::INFINITY,
            );
            (head.len() + tail.len()) as u64
        } else {
            let ex = exclude.and_then(|e| self.slot(e));
            let mut live = 0u64;
            for (i, &pre) in acc.iter().enumerate() {
                if Some(i) == ex || self.dead[i] {
                    continue;
                }
                live += 1;
                top.offer(pre, self.base + i);
            }
            live
        };
        if let Some(evals) = self.evals {
            evals.fetch_add(count, AtomicOrdering::Relaxed);
        }
    }

    /// Fused descend + selection: folds the cached column of `dim`
    /// into `child` on top of `parent` *and* runs the same bounded
    /// top-k selection as [`QueryContext::select_acc`], block by
    /// block — each `child` block is offered while its lines are still
    /// L1-resident from the fold's store. A fold over `n` points
    /// streams `3·8n` bytes (parent + column + child) through the
    /// cache, so by the time a separate selection pass starts, the
    /// early two-thirds of `child` have been evicted to L2; fusing
    /// removes that whole re-read (~half the per-node selection cost
    /// on a 2000-point walk).
    ///
    /// Bit-identity: the fold performs the identical per-point
    /// operation sequence as [`QueryContext::fold_column_into`] (the
    /// blocks partition the same chunked loops), and the offers arrive
    /// in the identical ascending-id order with the identical
    /// bound-skip rule as `select_acc` — so the kept set, tie-breaks,
    /// eval accounting and every downstream OD are unchanged bit for
    /// bit. `child` is fully materialised on return in all paths
    /// (callers reuse it as the parent of deeper folds).
    ///
    /// `seeds` are candidate point ids from a previous, related
    /// selection (the walker passes the previous lattice node's
    /// winners; empty = none). If `k` of them are live under the
    /// current exclusion, the worst of their pre-distances *in this
    /// subspace* — `O(1)` each from the parent accumulator plus the
    /// column — is an upper bound on the true kth-smallest
    /// pre-distance (any `k` distinct candidates majorise the true
    /// top-k), so the scan starts with a near-optimal admission bound
    /// instead of warming one up. Seeding never changes the kept set:
    /// the bound-skip rule still rejects only provably-losing
    /// elements, and [`TopK`]'s kept set is offer-order-independent.
    #[allow(clippy::too_many_arguments)] // internal fused kernel: the args ARE the fusion
    pub(crate) fn fold_select_acc(
        &self,
        dim: usize,
        parent: Option<&[f64]>,
        child: &mut [f64],
        k: usize,
        exclude: Option<PointId>,
        top: &mut TopK,
        seeds: &[PointId],
    ) {
        /// Per-block fused footprint: 3 streams × 8 bytes × 512 =
        /// 12 KiB, comfortably inside a 32 KiB L1d.
        const FUSE_BLOCK: usize = 512;
        top.reset(k);
        debug_assert_eq!(child.len(), self.n);
        if k == 0 || self.n == 0 || !self.dead.is_empty() {
            // Cold paths (empty selection, tombstones): materialise the
            // child in one pass and reuse the scalar selection loop so
            // liveness filtering and eval accounting stay one piece of
            // code. (`select_acc` resets `top` again — harmless.)
            self.fold_column_into(dim, parent, child);
            if k != 0 && self.n != 0 {
                self.select_acc(child, k, exclude, top);
            }
            return;
        }
        let col = self.col(dim);
        let ex = exclude.and_then(|e| self.slot(e)).unwrap_or(usize::MAX);
        // Seed admission bound from prior winners, when a full set of
        // k valid ids is on hand (see the doc comment).
        let mut w0 = f64::INFINITY;
        if !seeds.is_empty() {
            let mut m = f64::NEG_INFINITY;
            let mut cnt = 0usize;
            for i in seeds.iter().filter_map(|&id| self.slot(id)) {
                if i != ex {
                    let pre = match parent {
                        Some(p) => self.combine(p[i], col[i]),
                        None => col[i],
                    };
                    m = if pre > m { pre } else { m };
                    cnt += 1;
                    if cnt == k {
                        break;
                    }
                }
            }
            if cnt == k {
                w0 = m;
            }
        }
        let mut i = 0usize;
        while i < self.n {
            let end = (i + FUSE_BLOCK).min(self.n);
            match (parent, self.metric) {
                (None, _) => child[i..end].copy_from_slice(&col[i..end]),
                (Some(p), Metric::LInf) => fold_max(&mut child[i..end], &p[i..end], &col[i..end]),
                (Some(p), _) => fold_add(&mut child[i..end], &p[i..end], &col[i..end]),
            }
            // Warmup only in the first block — later blocks resume a
            // selection whose bound is already tight.
            let warm = i == 0;
            if ex >= i && ex < end {
                offer_bounded(&child[i..ex], self.base + i, top, warm, w0);
                offer_bounded(
                    &child[ex + 1..end],
                    self.base + ex + 1,
                    top,
                    warm && ex < SEL_WARMUP,
                    w0,
                );
            } else {
                offer_bounded(&child[i..end], self.base + i, top, warm, w0);
            }
            i = end;
        }
        if let Some(evals) = self.evals {
            evals.fetch_add(
                (self.n - usize::from(ex < self.n)) as u64,
                AtomicOrdering::Relaxed,
            );
        }
    }

    /// Sums the finished distances of a selection produced by
    /// [`QueryContext::select_acc`] in ascending `(pre, id)` order —
    /// the same summation order as [`QueryContext::od`], so the result
    /// is bit-identical to the direct combine.
    #[inline]
    pub(crate) fn finish_od(&self, top: &mut TopK) -> f64 {
        top.sorted().iter().map(|c| self.metric.finish(c.pre)).sum()
    }

    /// Converts a selection produced by [`QueryContext::select_acc`]
    /// into finished [`Neighbor`]s in ascending `(distance, id)` order.
    #[inline]
    pub(crate) fn finish_knn(&self, top: &mut TopK) -> Vec<Neighbor> {
        top.sorted()
            .iter()
            .map(|c| Neighbor {
                id: c.id,
                dist: self.metric.finish(c.pre),
            })
            .collect()
    }

    /// Pre-metric distance of dataset point `id` in subspace `s`, from
    /// cache.
    ///
    /// # Panics
    /// Panics if `id` is not one of the cached rows.
    #[inline]
    pub fn pre_dist(&self, id: PointId, s: Subspace) -> f64 {
        self.pre_slot(self.slot(id).expect("id outside the cached rows"), s)
    }

    /// [`QueryContext::pre_dist`] of cached slot `i`.
    #[inline]
    fn pre_slot(&self, i: usize, s: Subspace) -> f64 {
        let mut acc = 0.0f64;
        for j in s.dims() {
            acc = self.combine(acc, self.cols[j * self.n + i]);
        }
        acc
    }

    /// The `k` nearest neighbours of the query in subspace `s`,
    /// ascending by distance, ties broken on ascending id — the same
    /// contract (and the same values) as the uncached engine.
    pub fn knn(&self, k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor> {
        let mut top = self.select(k, s, exclude);
        top.drain(..)
            .map(|c| Neighbor {
                id: c.id,
                dist: self.metric.finish(c.pre),
            })
            .collect()
    }

    /// The outlying degree of the query in `s`: the sum of distances
    /// to its `k` nearest neighbours (paper §2), entirely from cache.
    pub fn od(&self, k: usize, s: Subspace, exclude: Option<PointId>) -> f64 {
        self.select(k, s, exclude)
            .iter()
            .map(|c| self.metric.finish(c.pre))
            .sum()
    }

    fn select(
        &self,
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<crate::topk::Candidate> {
        if k == 0 || self.n == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k);
        let mut count = 0u64;
        let ex = exclude.and_then(|e| self.slot(e));
        for i in 0..self.n {
            if Some(i) == ex || self.dead.get(i).copied().unwrap_or(false) {
                continue;
            }
            count += 1;
            top.offer(self.pre_slot(i, s), self.base + i);
        }
        if let Some(evals) = self.evals {
            evals.fetch_add(count, AtomicOrdering::Relaxed);
        }
        top.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnEngine;
    use crate::linear::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-50.0..50.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn od_bit_identical_to_linear_scan_across_lattice() {
        let d = 5;
        let ds = random_dataset(80, d, 3);
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let engine = LinearScan::new(ds.clone(), metric);
            let q: Vec<f64> = ds.row(7).to_vec();
            let ctx = QueryContext::build(&ds, metric, &q);
            for s in Subspace::all_nonempty(d) {
                let cached = ctx.od(4, s, Some(7));
                let direct = engine.od(&q, 4, s, Some(7));
                assert_eq!(cached, direct, "{metric:?} {s}");
            }
        }
    }

    #[test]
    fn one_pass_build_stores_the_engine_term_bits() {
        // n = 1037 is a multiple of no lane width (FOLD_LANES,
        // SEL_LANES, FUSE_BLOCK), and the tombstones must not shift
        // any column: terms exist for every physical row.
        let (n, d) = (1037, 7);
        let mut ds = random_dataset(n, d, 12);
        for id in [0, 5, 511, 1036] {
            ds.remove_row(id).unwrap();
        }
        let q: Vec<f64> = ds.row(3).iter().map(|x| x * 0.5 + 1.0).collect();
        let flat = ds.as_flat();
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let ctx = QueryContext::build(&ds, metric, &q);
            assert_eq!(ctx.len(), n);
            for (j, &qj) in q.iter().enumerate() {
                for (i, &term) in ctx.col(j).iter().enumerate() {
                    let want = metric.accumulate(0.0, (qj - flat[i * d + j]).abs());
                    assert_eq!(term.to_bits(), want.to_bits(), "{metric:?} row {i} dim {j}");
                }
            }
            let dead: Vec<usize> = (0..n).filter(|&i| ctx.dead[i]).collect();
            assert_eq!(dead, [0, 5, 511, 1036], "{metric:?}");
        }
    }

    #[test]
    fn knn_matches_linear_scan_exactly() {
        let d = 4;
        let ds = random_dataset(60, d, 9);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L2, &q);
        for s in Subspace::all_nonempty(d) {
            let a = ctx.knn(5, s, None);
            let b = engine.knn(&q, 5, s, None);
            assert_eq!(a, b, "{s}");
        }
    }

    #[test]
    fn empty_subspace_gives_zero_od() {
        let ds = random_dataset(10, 3, 1);
        let ctx = QueryContext::build(&ds, Metric::L2, &[0.0, 0.0, 0.0]);
        assert_eq!(ctx.od(3, Subspace::empty(), None), 0.0);
    }

    #[test]
    fn exclusion_and_k_edge_cases() {
        let ds = random_dataset(5, 2, 2);
        let q: Vec<f64> = ds.row(1).to_vec();
        let ctx = QueryContext::build(&ds, Metric::L1, &q);
        let s = Subspace::full(2);
        assert!(ctx.knn(0, s, None).is_empty());
        let nn = ctx.knn(99, s, Some(1));
        assert_eq!(nn.len(), 4);
        assert!(nn.iter().all(|n| n.id != 1));
        // Self-inclusion: distance zero to itself, id 1 first.
        let with_self = ctx.knn(1, s, None);
        assert_eq!(with_self[0].id, 1);
        assert_eq!(with_self[0].dist, 0.0);
    }

    #[test]
    fn counter_attribution() {
        let ds = random_dataset(10, 3, 4);
        let q: Vec<f64> = ds.row(0).to_vec();
        let evals = AtomicU64::new(0);
        let ctx = QueryContext::build(&ds, Metric::L2, &q).with_counter(&evals);
        ctx.od(3, Subspace::full(3), None);
        assert_eq!(evals.load(AtomicOrdering::Relaxed), 10);
        ctx.od(3, Subspace::full(3), Some(0));
        assert_eq!(evals.load(AtomicOrdering::Relaxed), 19);
    }

    #[test]
    fn engine_hands_out_contexts_that_count() {
        let ds = random_dataset(12, 3, 5);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(2).to_vec();
        let ctx = engine.query_context(&q).expect("linear scan caches");
        ctx.od(3, Subspace::full(3), Some(2));
        assert_eq!(engine.distance_evals(), 11);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let ds = random_dataset(4, 3, 6);
        let _ = QueryContext::build(&ds, Metric::L2, &[0.0, 0.0]);
    }
}
