//! Approximate k-NN tier: an HNSW graph engine with an exact re-rank.
//!
//! Every other engine in this crate is exact-scan-shaped — even the
//! blocked kernel pays `O(n)` per lattice node. [`HnswEngine`] breaks
//! that: a vendored, dependency-free hierarchical navigable-small-world
//! graph ([`graph`]) generates a *candidate pool* of `ef` points in
//! sub-linear time, and an exact re-rank stage re-selects the top-`k`
//! from that pool with the same f64 arithmetic and the same
//! `(pre-distance, id)` tie-break as [`crate::linear::LinearScan`].
//!
//! # What is approximate, and what is not
//!
//! Only **recall** is approximate: the candidate pool may miss a true
//! neighbour, so the reported k-NN set can differ from the exact one.
//! Every *number* attached to what is reported is exact — candidate
//! distances come from [`Metric::pre_dist_sub`] over the raw rows (or
//! the cached [`QueryContext`] fold on the evaluator path, bit-identical
//! by the context equivalence tests), the re-rank uses the shared
//! [`TopK`] `(pre, id)` order, and ODs sum finished distances in the
//! same ascending order as every exact engine. The graph is built once
//! in the **full space**; queries navigate it with distances projected
//! onto the queried subspace, so one graph serves all `2^d - 1`
//! subspaces.
//!
//! # The exactness escape hatch
//!
//! Each query first consults [`HnswEngine::plan`]: when `ef >= live`
//! (the pool would cover everything — including the `ef = n` contract
//! pinned in `tests/properties.rs`), when `k >= ef` (a pool barely
//! wider than `k` has hopeless recall), or when the filtered pool
//! comes up shorter than `k` (tombstones, tiny data), the query falls
//! back to the exact scan loop — bit-identical to `LinearScan`. So
//! approximation is strictly opt-in by workload size.
//!
//! # Incremental seam
//!
//! Inserts extend the graph in place (`O(ef_construction)` beam per
//! insert); removals tombstone the dataset row while the vertex stays
//! *routable* so connectivity never degrades. Once tombstones reach
//! [`HnswEngine::REBUILD_DEAD_FRACTION`] of the graph, a bounded
//! rebuild re-indexes the live rows — the same amortisation the X-tree
//! uses. Because recall (not the result set) is the approximate part,
//! the churn contract is the measured recall oracle in
//! `tests/incremental_oracle.rs`, not bit-identity.
//!
//! [`Metric::pre_dist_sub`]: hos_data::Metric::pre_dist_sub
//! [`QueryContext`]: crate::context::QueryContext
//! [`TopK`]: crate::topk::TopK

mod graph;

use crate::context::QueryContext;
use crate::error::{validate_insert, validate_remove, IndexError};
use crate::evaluator::OdEvaluator;
use crate::knn::{IncrementalEngine, KnnEngine, Neighbor};
use crate::topk::TopK;
use graph::Graph;
use hos_data::{Dataset, Metric, PointId, Subspace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

use crate::batch::parallel_map;

/// Default candidate-pool width (`ef_search`): wide enough that the
/// seeded oracle workloads measure recall@k well above the 0.95
/// contract, small enough that the pool stays sub-linear where it
/// matters (`n` in the tens of thousands and up).
pub const DEFAULT_EF: usize = 96;

/// Construction/search parameters of the HNSW graph.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Degree bound on levels above 0 (level 0 allows `2 * m`).
    pub m: usize,
    /// Beam width while building the graph.
    pub ef_construction: usize,
    /// Initial candidate-pool width for queries; retunable at runtime
    /// through [`KnnEngine::set_search_width`].
    pub ef_search: usize,
    /// Level-assignment seed (levels are a pure hash of
    /// `(seed, id)`, so rebuilds reproduce them).
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 12,
            ef_construction: 80,
            ef_search: DEFAULT_EF,
            seed: 0x9E37_79B9,
        }
    }
}

/// How one query will execute — decided per query, never globally.
enum Plan {
    /// Exact scan, bit-identical to [`crate::linear::LinearScan`].
    Exact,
    /// Graph candidate generation with this pool width, then exact
    /// re-rank (with a per-query fallback to [`Plan::Exact`] if the
    /// filtered pool comes up short).
    Approx { ef: usize },
}

/// The approximate k-NN engine: HNSW candidate generation + exact
/// re-rank. See the module docs for the contract.
///
/// ```
/// use hos_data::{Dataset, Metric, Subspace};
/// use hos_index::{HnswConfig, HnswEngine, KnnEngine};
///
/// let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![(i % 17) as f64, (i % 23) as f64]).collect();
/// let ds = Dataset::from_rows(&rows).unwrap();
/// let engine = HnswEngine::build(ds, Metric::L2, HnswConfig::default());
/// let nn = engine.knn(&[3.0, 3.0], 5, Subspace::full(2), None);
/// assert_eq!(nn.len(), 5);
/// // Reported distances are exact f64, never estimates:
/// assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
/// ```
pub struct HnswEngine {
    dataset: Dataset,
    metric: Metric,
    config: HnswConfig,
    graph: Graph,
    /// Runtime-tunable candidate-pool width (`ef_search`).
    ef: AtomicUsize,
    /// Tombstones since the last (re)build.
    stale: usize,
    evals: AtomicU64,
}

impl HnswEngine {
    /// Tombstoned fraction of the graph that triggers a bounded
    /// rebuild over the live rows — same cadence rationale as
    /// [`crate::xtree::XTree::REBULK_DEAD_FRACTION`]: per-removal cost
    /// amortises to `O(build / n)`, and the gate counts tombstones
    /// since the last rebuild so it cannot re-trigger per removal.
    pub const REBUILD_DEAD_FRACTION: f64 = 0.25;

    /// Projection factor (`d / |s|`) at which a subspace query stops
    /// using the graph and goes straight to the exact scan — see
    /// [`Self::plan`]. At or past this mismatch the full-space links
    /// predict projected proximity too poorly for any affordable beam.
    pub const EXACT_PROJECTION_FACTOR: usize = 4;

    /// Builds the graph over the live rows of `dataset`.
    pub fn build(dataset: Dataset, metric: Metric, config: HnswConfig) -> Self {
        let mut engine = HnswEngine {
            graph: Graph::new(dataset.len(), config.m, config.ef_construction, config.seed),
            ef: AtomicUsize::new(config.ef_search.max(1)),
            dataset,
            metric,
            config,
            stale: 0,
            evals: AtomicU64::new(0),
        };
        engine.rebuild();
        engine
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// The current candidate-pool width.
    pub fn ef(&self) -> usize {
        self.ef.load(AtomicOrdering::Relaxed)
    }

    /// (Re)builds the graph over the live rows, in ascending id order.
    /// Levels are a pure hash of `(seed, id)`, so a rebuild assigns
    /// every surviving point the level it already had.
    fn rebuild(&mut self) {
        let mut graph = Graph::new(
            self.dataset.len(),
            self.config.m,
            self.config.ef_construction,
            self.config.seed,
        );
        let ds = &self.dataset;
        let metric = self.metric;
        let full = ds.full_space();
        let mut count = 0u64;
        let mut dist = |a: PointId, b: PointId| {
            count += 1;
            metric.pre_dist_sub(ds.row(a), ds.row(b), full)
        };
        for id in ds.live_ids() {
            graph.insert(id, &mut dist);
        }
        self.evals.fetch_add(count, AtomicOrdering::Relaxed);
        self.graph = graph;
        self.stale = 0;
    }

    /// Decides how a `k`-query in subspace `s` executes under the
    /// current pool width. The configured `ef` buys a candidate pool
    /// per *projected* dimension: navigation runs on subspace
    /// distances over links chosen in full space, and the thinner the
    /// projection the worse those links predict projected proximity —
    /// measured recall at fixed `ef` degrades roughly with `|s| / d`
    /// as `n` grows. Scaling the pool by `d / |s|` holds the recall
    /// contract across subspace dims instead of only in (near-)full
    /// space. The query is exact when the scaled pool would cover the
    /// live set anyway (`ef >= live`, which includes the `ef = n`
    /// exactness contract) or when `k >= ef` (approximation could not
    /// help) — so low-dim projections route to the exact scan sooner,
    /// which is also where the scan's per-row fold is cheapest.
    ///
    /// Extreme projections (factor >= [`Self::EXACT_PROJECTION_FACTOR`],
    /// i.e. at most a quarter of the dimensions survive) skip the graph
    /// entirely: there the beam would need to grow past the point where
    /// it costs more than the exact scan's (cheap, thin) per-row fold
    /// while still missing true neighbours — measured at d=8, n=32k the
    /// 2-dim beam was both slower than the scan and under 0.9 recall.
    fn plan(&self, k: usize, s: Subspace) -> Plan {
        let base = self.ef();
        let factor = (self.dataset.dim() / s.dim().max(1)).max(1);
        let ef = base.saturating_mul(factor);
        if factor >= Self::EXACT_PROJECTION_FACTOR
            || k >= ef
            || ef >= self.dataset.live_len()
            || self.graph.members() == 0
        {
            Plan::Exact
        } else {
            Plan::Approx { ef }
        }
    }

    /// The exact scan loop — deliberately the same per-row operation
    /// sequence as [`crate::linear::LinearScan::knn`], so every
    /// fallback (and the `ef = n` mode) is bit-identical to it.
    fn exact_topk(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> TopK {
        let mut top = TopK::new(k);
        let mut count = 0u64;
        for (id, row) in self.dataset.iter() {
            if Some(id) == exclude {
                continue;
            }
            count += 1;
            top.offer(self.metric.pre_dist_sub(query, row, s), id);
        }
        self.evals.fetch_add(count, AtomicOrdering::Relaxed);
        top
    }

    /// Candidate generation + exact re-rank; `None` when the filtered
    /// pool holds fewer than `k` points (the caller then falls back to
    /// the exact scan, keeping the "short only when the data runs out"
    /// contract).
    fn approx_topk(
        &self,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
        ef: usize,
    ) -> Option<TopK> {
        let mut count = 0u64;
        let found = {
            let ds = &self.dataset;
            let metric = self.metric;
            let mut dist = |i: PointId| {
                count += 1;
                metric.pre_dist_sub(query, ds.row(i), s)
            };
            self.graph.search(&mut dist, ef)
        };
        self.evals.fetch_add(count, AtomicOrdering::Relaxed);
        // Exact re-rank over the pool: the candidate pre-distances are
        // already exact, so re-selection through the shared TopK
        // reproduces the exact engine's ordering contract on whatever
        // the pool contains.
        let mut top = TopK::new(k);
        let mut offered = 0usize;
        for c in &found {
            if Some(c.id) == exclude || !self.dataset.is_live(c.id) {
                continue;
            }
            offered += 1;
            top.offer(c.pre, c.id);
        }
        (offered >= k).then_some(top)
    }

    fn finish(&self, top: TopK) -> Vec<Neighbor> {
        top.into_sorted()
            .into_iter()
            .map(|c| Neighbor {
                id: c.id,
                dist: self.metric.finish(c.pre),
            })
            .collect()
    }

    /// OD through a cached [`QueryContext`]: the evaluator path.
    /// Candidate generation navigates the graph with the context's
    /// per-subspace column fold ([`QueryContext::pre_dist`] — cached,
    /// still exact f64), the re-rank re-selects with the shared
    /// `(pre, id)` order, and the sum runs in the same ascending order
    /// as [`QueryContext::od`]. Falls back to the context's exact fold
    /// per the usual plan.
    pub(crate) fn od_with_ctx(
        &self,
        ctx: &QueryContext<'_>,
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> f64 {
        if let Plan::Approx { ef } = self.plan(k, s) {
            let mut count = 0u64;
            let found = {
                let mut dist = |i: PointId| {
                    count += 1;
                    ctx.pre_dist(i, s)
                };
                self.graph.search(&mut dist, ef)
            };
            self.evals.fetch_add(count, AtomicOrdering::Relaxed);
            let mut top = TopK::new(k);
            let mut offered = 0usize;
            for c in &found {
                if Some(c.id) == exclude || !self.dataset.is_live(c.id) {
                    continue;
                }
                offered += 1;
                top.offer(c.pre, c.id);
            }
            if offered >= k {
                return top
                    .into_sorted()
                    .iter()
                    .map(|c| self.metric.finish(c.pre))
                    .sum();
            }
        }
        ctx.od(k, s, exclude)
    }
}

impl KnnEngine for HnswEngine {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn into_dataset(self: Box<Self>) -> Dataset {
        self.dataset
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn knn(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor> {
        if k == 0 || self.dataset.is_empty() {
            return Vec::new();
        }
        let top = match self.plan(k, s) {
            Plan::Approx { ef } => self
                .approx_topk(query, k, s, exclude, ef)
                .unwrap_or_else(|| self.exact_topk(query, k, s, exclude)),
            Plan::Exact => self.exact_topk(query, k, s, exclude),
        };
        self.finish(top)
    }

    /// Range queries stay exact: a radius query cannot tolerate missed
    /// members (there is no "recall" notion callers opted into), and
    /// none of the hot paths issue them, so the scan loop is the right
    /// tool.
    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        let mut count = 0u64;
        for (id, row) in self.dataset.iter() {
            if Some(id) == exclude {
                continue;
            }
            count += 1;
            let d = self.metric.dist_sub(query, row, s);
            if d <= radius {
                out.push(Neighbor { id, dist: d });
            }
        }
        self.evals.fetch_add(count, AtomicOrdering::Relaxed);
        out
    }

    fn distance_evals(&self) -> u64 {
        self.evals.load(AtomicOrdering::Relaxed)
    }

    // No whole-dataset `query_context`: handing one out would route
    // the sharded evaluator (and any other context consumer) onto the
    // exact full fold, silently bypassing the graph this engine
    // exists to use. The evaluator below builds its own context for
    // the *re-rank* side only.

    fn set_search_width(&self, ef: usize) {
        self.ef.store(ef.max(1), AtomicOrdering::Relaxed);
    }

    fn search_width(&self) -> Option<usize> {
        Some(self.ef())
    }

    fn evaluator<'a>(
        &'a self,
        query: &'a [f64],
        k: usize,
        exclude: Option<PointId>,
    ) -> Box<dyn OdEvaluator + 'a> {
        Box::new(HnswOdEvaluator {
            engine: self,
            query,
            k,
            exclude,
            ctx: None,
            ctx_pending: true,
            dims_evaluated: 0,
        })
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalEngine> {
        Some(self)
    }
}

/// Incremental maintenance: graph insert + tombstone-aware search +
/// bounded rebuild (module docs). The equivalence contract is the
/// *recall* oracle, not bit-identity — except for every fallback-path
/// query, which stays bit-identical to a cold `LinearScan`.
impl IncrementalEngine for HnswEngine {
    fn insert(&mut self, row: &[f64]) -> Result<PointId, IndexError> {
        validate_insert(&self.dataset, row)?;
        let id = self.dataset.push_row(row)?;
        let ds = &self.dataset;
        let metric = self.metric;
        let full = ds.full_space();
        let mut count = 0u64;
        let mut dist = |a: PointId, b: PointId| {
            count += 1;
            metric.pre_dist_sub(ds.row(a), ds.row(b), full)
        };
        self.graph.insert(id, &mut dist);
        self.evals.fetch_add(count, AtomicOrdering::Relaxed);
        Ok(id)
    }

    fn remove(&mut self, id: PointId) -> Result<(), IndexError> {
        validate_remove(&self.dataset, id)?;
        self.dataset.remove_row(id)?;
        self.stale += 1;
        if self.stale as f64 >= Self::REBUILD_DEAD_FRACTION * self.graph.members() as f64 {
            self.rebuild();
        }
        Ok(())
    }
}

/// The candidate-then-exact [`OdEvaluator`]. Unlike
/// [`crate::evaluator::LazyContextEvaluator`], which builds its context
/// on the first call, this one keeps an uncached phase — the
/// approximate beam is what the engine is for: uncached engine queries
/// until the cumulative evaluated dimensionality `Σ|s|` clears `2d`,
/// then a [`QueryContext`] whose cached columns serve
/// *both* sides of the split — candidate generation navigates the
/// graph with `ctx.pre_dist` folds, and the exact re-rank re-selects
/// from the same values. Per-query fallback to the context's exact
/// fold whenever the plan or a short pool demands it.
struct HnswOdEvaluator<'a> {
    engine: &'a HnswEngine,
    query: &'a [f64],
    k: usize,
    exclude: Option<PointId>,
    ctx: Option<QueryContext<'a>>,
    ctx_pending: bool,
    dims_evaluated: usize,
}

impl<'a> HnswOdEvaluator<'a> {
    fn note_dims(&mut self, dims: usize) {
        self.dims_evaluated += dims;
        if self.ctx_pending && self.dims_evaluated > 2 * self.engine.dataset.dim() {
            self.ctx = Some(
                QueryContext::build(&self.engine.dataset, self.engine.metric, self.query)
                    .with_counter(&self.engine.evals),
            );
            self.ctx_pending = false;
        }
    }
}

impl OdEvaluator for HnswOdEvaluator<'_> {
    fn od(&mut self, s: Subspace) -> f64 {
        self.note_dims(s.dim());
        match &self.ctx {
            Some(ctx) => self.engine.od_with_ctx(ctx, self.k, s, self.exclude),
            None => self.engine.od(self.query, self.k, s, self.exclude),
        }
    }

    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        if subspaces.is_empty() {
            return Vec::new();
        }
        self.note_dims(subspaces.iter().map(|s| s.dim()).sum());
        let (engine, query, k, exclude) = (self.engine, self.query, self.k, self.exclude);
        match &self.ctx {
            Some(ctx) => parallel_map(subspaces, threads, |&s| {
                engine.od_with_ctx(ctx, k, s, exclude)
            }),
            None => parallel_map(subspaces, threads, |&s| engine.od(query, k, s, exclude)),
        }
    }
}

/// Measured recall@k of an approximate k-NN list against the exact
/// one: `|approx ∩ exact| / |exact|` over the returned ids (`1.0`
/// when the exact list is empty). Both lists follow the shared
/// `(distance, id)` ordering contract, so id-set intersection is the
/// right comparison even under distance ties.
pub fn recall_at_k(exact: &[Neighbor], approx: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact
        .iter()
        .filter(|e| approx.iter().any(|a| a.id == e.id))
        .count();
    hit as f64 / exact.len() as f64
}

/// Calibrates an engine's candidate-pool width to a measured recall
/// target: doubles `ef` from `max(2k, 16)` until mean recall@k over a
/// deterministic sample of self-excluded member queries (full space —
/// the widest, most common query) reaches `target`, or the pool covers
/// the live set (whereupon the engine is exact by construction).
/// Returns the chosen width, which is left applied via
/// [`KnnEngine::set_search_width`].
///
/// Works through the `KnnEngine` trait alone — the exact reference is
/// the engine itself at `ef = usize::MAX` (the exhaustive escape
/// hatch), so sharded hnsw engines calibrate their per-shard graphs in
/// one pass, and exact engines (whose recall is identically 1) return
/// after the first probe.
pub fn calibrate_search_width(
    engine: &dyn KnnEngine,
    k: usize,
    target: f64,
    sample: usize,
    seed: u64,
) -> usize {
    let ds = engine.dataset();
    let n = ds.live_len();
    let s = ds.full_space();
    let mut ef = (2 * k).max(16);
    if n == 0 || k == 0 || sample == 0 {
        engine.set_search_width(ef);
        return ef;
    }
    // Deterministic sample of live member ids.
    let live: Vec<PointId> = ds.live_ids().collect();
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let ids: Vec<PointId> = (0..sample.min(live.len()))
        .map(|_| {
            state = graph::splitmix64(state);
            live[(state % live.len() as u64) as usize]
        })
        .collect();
    engine.set_search_width(usize::MAX);
    let refs: Vec<(Vec<f64>, PointId, Vec<Neighbor>)> = ids
        .iter()
        .map(|&id| {
            let q = ds.row(id).to_vec();
            let exact = engine.knn(&q, k, s, Some(id));
            (q, id, exact)
        })
        .collect();
    loop {
        engine.set_search_width(ef);
        let mean: f64 = refs
            .iter()
            .map(|(q, id, exact)| recall_at_k(exact, &engine.knn(q, k, s, Some(*id))))
            .sum::<f64>()
            / refs.len() as f64;
        if mean >= target || ef >= n {
            return ef;
        }
        ef *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-10.0..10.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn reported_distances_are_exact() {
        let ds = dataset(400, 4, 1);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        for s in [Subspace::full(4), Subspace::from_dims(&[1, 3])] {
            let q: Vec<f64> = ds.row(7).to_vec();
            for n in e.knn(&q, 5, s, Some(7)) {
                let true_d = Metric::L2.dist_sub(&q, ds.row(n.id), s);
                assert_eq!(n.dist, true_d, "{s} id={}", n.id);
            }
        }
    }

    #[test]
    fn exhaustive_ef_is_bit_identical_to_linear_scan() {
        let ds = dataset(150, 3, 2);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        e.set_search_width(ds.len());
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(3).to_vec();
        for s in Subspace::all_nonempty(3) {
            assert_eq!(
                e.knn(&q, 6, s, Some(3)),
                linear.knn(&q, 6, s, Some(3)),
                "{s}"
            );
            assert_eq!(e.od(&q, 6, s, Some(3)), linear.od(&q, 6, s, Some(3)), "{s}");
        }
    }

    #[test]
    fn k_at_or_above_ef_plans_exact() {
        let ds = dataset(300, 3, 3);
        let e = HnswEngine::build(ds.clone(), Metric::L1, HnswConfig::default());
        e.set_search_width(4);
        let linear = LinearScan::new(ds.clone(), Metric::L1);
        let q: Vec<f64> = ds.row(0).to_vec();
        let s = Subspace::full(3);
        // k = 4 >= ef = 4: exact plan, identical to the scan.
        assert_eq!(e.knn(&q, 4, s, Some(0)), linear.knn(&q, 4, s, Some(0)));
    }

    #[test]
    fn extreme_projections_route_to_the_exact_scan() {
        // d=8 with a 2-dim subspace: projection factor 4 hits
        // EXACT_PROJECTION_FACTOR, so the query must be a plain scan —
        // bit-identical to LinearScan AND costing exactly one fold per
        // live row, however small ef is.
        let ds = dataset(500, 8, 5);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        e.set_search_width(8);
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(11).to_vec();
        let s = Subspace::from_dims(&[2, 6]);
        let before = e.distance_evals();
        assert_eq!(e.knn(&q, 5, s, Some(11)), linear.knn(&q, 5, s, Some(11)));
        assert_eq!(e.distance_evals() - before, 500 - 1);
        // A 4-dim subspace (factor 2) still navigates the graph: the
        // eval count of a beam search cannot reach the full scan's.
        let s4 = Subspace::from_dims(&[0, 2, 4, 6]);
        let before = e.distance_evals();
        e.knn(&q, 5, s4, Some(11));
        assert!(e.distance_evals() - before < 499, "beam did a full scan");
    }

    #[test]
    fn default_recall_is_high_on_seeded_data() {
        let ds = dataset(600, 6, 4);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let s = Subspace::full(6);
        let mut total = 0.0;
        let mut queries = 0;
        for qid in (0..600).step_by(37) {
            let q: Vec<f64> = ds.row(qid).to_vec();
            let exact = linear.knn(&q, 8, s, Some(qid));
            let approx = e.knn(&q, 8, s, Some(qid));
            total += recall_at_k(&exact, &approx);
            queries += 1;
        }
        let mean = total / queries as f64;
        assert!(mean >= 0.95, "mean recall {mean}");
    }

    #[test]
    fn evaluator_matches_engine_through_both_phases() {
        // The evaluator's two phases (uncached engine queries, then the
        // ctx-navigated pool) must agree with the engine's own knn/od —
        // same plan, same candidates, same arithmetic.
        let ds = dataset(250, 5, 5);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        let q: Vec<f64> = ds.row(9).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(5).collect();
        let reference: Vec<f64> = subspaces.iter().map(|&s| e.od(&q, 4, s, Some(9))).collect();
        let mut ev = e.evaluator(&q, 4, Some(9));
        for (i, &s) in subspaces.iter().take(3).enumerate() {
            assert_eq!(ev.od(s), reference[i], "uncached {s}");
        }
        for threads in [1, 3] {
            assert_eq!(ev.od_batch(&subspaces, threads), reference, "t={threads}");
        }
    }

    #[test]
    fn evaluator_defers_its_context_past_the_breakeven() {
        // Unlike the exact engines' evaluators, hnsw keeps its
        // uncached phase: the approximate beam is what the engine is
        // for. Level-1 singles stay at Σ|s| = d ≤ 2d, uncached; one
        // level-2 batch pushes the total past 2d and builds.
        let d = 6;
        let ds = dataset(120, d, 2);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        let q: Vec<f64> = ds.row(0).to_vec();
        let mut ev = HnswOdEvaluator {
            engine: &e,
            query: &q,
            k: 3,
            exclude: Some(0),
            ctx: None,
            ctx_pending: true,
            dims_evaluated: 0,
        };
        for dim in 0..d {
            ev.od(Subspace::single(dim));
        }
        assert!(ev.ctx.is_none());
        assert!(ev.ctx_pending);
        let level2: Vec<Subspace> = Subspace::all_of_dim(d, 2).collect();
        ev.od_batch(&level2, 2);
        assert!(ev.ctx.is_some());
        assert!(!ev.ctx_pending);
    }

    #[test]
    fn churn_keeps_answering_and_rebuild_triggers() {
        let ds = dataset(120, 3, 6);
        let mut e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        // Remove 40% → crosses the rebuild gate at least once.
        for id in 0..48 {
            e.remove(id).unwrap();
        }
        // The gate fires at removal 30 (0.25 * 120); only the 18
        // removals after that rebuild are still pending.
        assert!(e.stale < 48, "no rebuild happened (stale = {})", e.stale);
        let id = e.insert(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(id, 120);
        let nn = e.knn(&[0.5, 0.5, 0.5], 3, Subspace::full(3), None);
        assert_eq!(nn[0].id, 120);
        assert_eq!(nn[0].dist, 0.0);
        // Dead ids never appear in results.
        assert!(nn.iter().all(|n| n.id >= 48));
    }

    #[test]
    fn calibration_reaches_target_or_exhausts() {
        let ds = dataset(500, 5, 7);
        let e = HnswEngine::build(ds.clone(), Metric::L2, HnswConfig::default());
        let ef = calibrate_search_width(&e, 5, 0.95, 12, 11);
        assert_eq!(e.search_width(), Some(ef));
        // The chosen width must actually deliver the target on the
        // calibration sample (or have exhausted the live set).
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let s = Subspace::full(5);
        let mut total = 0.0;
        let mut count = 0;
        for qid in (0..500).step_by(29) {
            let q: Vec<f64> = ds.row(qid).to_vec();
            total += recall_at_k(
                &linear.knn(&q, 5, s, Some(qid)),
                &e.knn(&q, 5, s, Some(qid)),
            );
            count += 1;
        }
        assert!(total / count as f64 >= 0.9, "calibrated recall too low");
    }

    #[test]
    fn empty_and_k_zero_edges() {
        let e = HnswEngine::build(Dataset::empty(), Metric::L2, HnswConfig::default());
        assert!(e.knn(&[], 3, Subspace::empty(), None).is_empty());
        let ds = dataset(50, 2, 8);
        let e = HnswEngine::build(ds, Metric::L2, HnswConfig::default());
        assert!(e.knn(&[0.0, 0.0], 0, Subspace::full(2), None).is_empty());
    }
}
