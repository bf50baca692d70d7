//! Exact sharded query execution: intra-query parallelism across data
//! partitions.
//!
//! The dynamic search parallelises *across* subspaces and queries, but
//! a single k-NN query still scans one monolithic dataset on one core.
//! [`ShardedEngine`] splits the dataset into `s` contiguous row shards
//! ([`Dataset::shard`], global [`PointId`]s preserved), builds one
//! sub-engine per shard, fans every query over the shards with
//! [`crate::batch::parallel_map`], and merges the per-shard top-k
//! lists exactly.
//!
//! # Why the merge is lossless
//!
//! If point `p` is among the `k` nearest neighbours of the query over
//! the whole dataset, it is among the `k` nearest within its own shard
//! (a shard holds a subset of the points, so at most `k - 1` shard
//! members can beat `p`). The union of per-shard top-`k` lists
//! therefore contains the global top-`k`, and re-selecting `k` from
//! the union — with the same `crate::topk::TopK` `(distance, id)`
//! tie-break used everywhere else — yields exactly the global list.
//! Per-point distances are computed by the same code over the same
//! row bytes whichever shard a point lands in, and OD sums the merged
//! list in the same ascending `(distance, id)` order as the unsharded
//! engine, so ODs are **bit-identical**, not just close. (Ordering by
//! finished distance equals ordering by pre-metric distance because
//! every [`Metric::finish`] is strictly monotone.) The property tests
//! in `tests/properties.rs` pin this with `assert_eq!` across shard
//! counts, metrics and engines.
//!
//! # Evaluator
//!
//! [`ShardedEngine::evaluator`] returns a sharded
//! [`OdEvaluator`]: each shard builds its **own** [`QueryContext`] on
//! the evaluator's first OD call (the builds fan over the shards), and
//! each OD is a k-way merge of per-shard top-k lists from one prefix
//! stack per shard, shards in parallel — so a single full-space OD
//! also uses every core, which is precisely what the unsharded engine
//! cannot do. Shards over the context-less X-tree answer every OD
//! through its own search instead.

use crate::batch::{parallel_map, parallel_map_mut};
use crate::context::QueryContext;
use crate::error::{validate_insert, validate_remove, IndexError};
use crate::evaluator::OdEvaluator;
use crate::knn::{build_engine, Engine, IncrementalEngine, KnnEngine, Neighbor};
use crate::topk::TopK;
use crate::walker::{walk_order, PrefixStack};
use hos_data::{Dataset, Metric, PointId, Subspace};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// One data shard: a sub-engine over a contiguous base row slice
/// (`offset .. offset + base_len` in global ids) plus the global ids
/// of rows routed here by later inserts (`extra`, one per local id
/// `base_len..`). Global ids only grow, and each insert appends to
/// exactly one shard, so `extra` is always sorted — the global→local
/// translation stays a range check plus a binary search.
struct Shard {
    engine: Box<dyn KnnEngine>,
    offset: PointId,
    /// Rows the shard was built with (its contiguous global range).
    base_len: usize,
    /// Global ids of rows inserted after the build, in local id order.
    extra: Vec<PointId>,
}

impl Shard {
    /// The global id of one of this shard's local row ids.
    #[inline]
    fn global_of(&self, local: PointId) -> PointId {
        if local < self.base_len {
            self.offset + local
        } else {
            self.extra[local - self.base_len]
        }
    }

    /// The local row id owning global id `g`, if this shard owns it.
    fn local_of(&self, g: PointId) -> Option<PointId> {
        if g >= self.offset && g < self.offset + self.base_len {
            return Some(g - self.offset);
        }
        self.extra.binary_search(&g).ok().map(|i| self.base_len + i)
    }

    /// Translates a global exclusion id into this shard's local id
    /// space (None if the excluded point lives elsewhere).
    fn local_exclude(&self, exclude: Option<PointId>) -> Option<PointId> {
        exclude.and_then(|g| self.local_of(g))
    }

    /// The shard's top-k for one subspace from its sub-engine, with
    /// **global** ids and finished distances.
    fn topk(
        &self,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        let mut list = self.engine.knn(query, k, s, self.local_exclude(exclude));
        for n in &mut list {
            n.id = self.global_of(n.id);
        }
        list
    }
}

/// Re-selects the global top-`k` from per-shard top-`k` lists using
/// the shared `(distance, id)` tie-break, ascending.
fn merge_topk(k: usize, lists: &[Vec<Neighbor>]) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for list in lists {
        for n in list {
            top.offer(n.dist, n.id);
        }
    }
    top.into_sorted()
        .into_iter()
        .map(|c| Neighbor {
            id: c.id,
            dist: c.pre,
        })
        .collect()
}

/// A [`KnnEngine`] that answers every query by fanning it over
/// per-shard sub-engines and exactly merging the partial results.
///
/// ```
/// use hos_data::{Dataset, Metric, Subspace};
/// use hos_index::{Engine, KnnEngine, LinearScan, ShardedEngine};
///
/// let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
/// let ds = Dataset::from_rows(&rows).unwrap();
/// let sharded = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 4, 2);
/// let linear = LinearScan::new(ds, Metric::L2);
/// let s = Subspace::full(2);
/// // Bit-identical to the unsharded engine:
/// assert_eq!(sharded.knn(&[3.0, 3.0], 5, s, None), linear.knn(&[3.0, 3.0], 5, s, None));
/// assert_eq!(sharded.od(&[3.0, 3.0], 5, s, None), linear.od(&[3.0, 3.0], 5, s, None));
/// ```
pub struct ShardedEngine {
    /// The full dataset (the [`KnnEngine::dataset`] contract); shards
    /// hold their own row copies.
    dataset: Dataset,
    metric: Metric,
    shards: Vec<Shard>,
    /// Worker threads for the per-shard fan-out. Atomic so
    /// [`KnnEngine::set_threads`] can retune a built engine (the
    /// `HosMiner` facade forwards its own `set_threads` here).
    threads: AtomicUsize,
}

impl ShardedEngine {
    /// Partitions `dataset` into `shards` contiguous slices
    /// ([`Dataset::shard`]; the count is clamped to `1..=n`) and
    /// builds one `inner`-kind sub-engine per shard. `threads` bounds
    /// the per-query shard fan-out (clamped to at least 1).
    pub fn build(
        dataset: Dataset,
        metric: Metric,
        inner: Engine,
        shards: usize,
        threads: usize,
    ) -> Self {
        let parts = dataset.shard(shards);
        let shards = parts
            .into_iter()
            .map(|p| Shard {
                offset: p.offset,
                base_len: p.dataset.len(),
                extra: Vec::new(),
                engine: build_engine(inner, p.dataset, metric),
            })
            .collect();
        ShardedEngine {
            dataset,
            metric,
            shards,
            threads: AtomicUsize::new(threads.max(1)),
        }
    }

    /// Number of shards actually built (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-query shard fan-out width.
    pub fn threads(&self) -> usize {
        self.threads.load(AtomicOrdering::Relaxed)
    }

    /// Per-shard top-k lists for one subspace, fanned across up to
    /// `threads` workers.
    fn fan_topk(
        &self,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
        threads: usize,
    ) -> Vec<Vec<Neighbor>> {
        parallel_map(&self.shards, threads, |sh| sh.topk(query, k, s, exclude))
    }
}

impl KnnEngine for ShardedEngine {
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
        let lists = self.fan_topk(query, k, s, exclude, self.threads());
        merge_topk(k, &lists)
    }

    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        let lists = parallel_map(&self.shards, self.threads(), |sh| {
            let mut list = sh.engine.range(query, radius, s, sh.local_exclude(exclude));
            for n in &mut list {
                n.id = sh.global_of(n.id);
            }
            list
        });
        lists.into_iter().flatten().collect()
    }

    fn distance_evals(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.engine.distance_evals())
            .sum()
    }

    fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), AtomicOrdering::Relaxed);
    }

    // No whole-dataset query context: a single `n x d` matrix would
    // serialise exactly the work sharding exists to spread. The
    // sharded evaluator below builds one context *per shard* instead.

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalEngine> {
        Some(self)
    }

    fn evaluator<'a>(
        &'a self,
        query: &'a [f64],
        k: usize,
        exclude: Option<PointId>,
    ) -> Box<dyn OdEvaluator + 'a> {
        Box::new(ShardedOdEvaluator {
            shards: &self.shards,
            query,
            k,
            exclude,
            shard_threads: self.threads(),
            ctxs: None,
            stacks: self.shards.iter().map(|_| PrefixStack::new()).collect(),
            order: Vec::new(),
            merge: TopK::new(k),
            extra_visits: 0,
        })
    }
}

/// The sharded [`OdEvaluator`]: per-shard query contexts built on the
/// first OD call, plus the exact k-way merge. Every cached OD runs the
/// prefix-stack kernel **per shard** (one [`PrefixStack`] and one walk
/// over the batch per shard, shards in parallel), so sharded lattice
/// queries get the same `O(n/shards)`-per-node cost the unsharded
/// walker gets over `n`.
struct ShardedOdEvaluator<'a> {
    shards: &'a [Shard],
    query: &'a [f64],
    k: usize,
    exclude: Option<PointId>,
    /// Shard fan-out width for single-OD calls (from the engine).
    shard_threads: usize,
    /// `None` until the first OD call; then one context per shard
    /// (slot `i` for shard `i`), or `Some(None)` when the sub-engines
    /// offer none (X-tree).
    ctxs: Option<Option<Vec<QueryContext<'a>>>>,
    /// One prefix stack per shard, reused across batches.
    stacks: Vec<PrefixStack>,
    /// Reused walk-order index scratch.
    order: Vec<usize>,
    /// Reused merge heap for the per-subspace k-way re-selection.
    merge: TopK,
    /// Node visits performed by throwaway per-segment stacks on the
    /// oversubscribed parallel path (the persistent per-shard stacks
    /// count their own).
    extra_visits: u64,
}

impl ShardedOdEvaluator<'_> {
    /// Builds the per-shard contexts on first use: together one `n x d`
    /// pass, fanned over the shards on up to `threads` workers — the
    /// width of the call that needs them, so a batch asked to run on
    /// one thread queues no pool jobs. (Mapped over `&'a Shard` refs
    /// so the returned contexts keep the evaluator's lifetime rather
    /// than the worker closure's.) Returns whether the sub-engines
    /// offered contexts.
    fn ensure_contexts(&mut self, threads: usize) -> bool {
        if self.ctxs.is_none() {
            let query = self.query;
            let shard_refs: Vec<&Shard> = self.shards.iter().collect();
            let built = parallel_map(&shard_refs, threads, |sh| sh.engine.query_context(query));
            self.ctxs = Some(built.into_iter().collect());
        }
        matches!(self.ctxs, Some(Some(_)))
    }

    /// One OD through the sub-engines: per-shard top-k, exact merge,
    /// sum in ascending `(distance, id)` order — the unsharded
    /// summation order. `threads` bounds the shard fan-out.
    fn od_merged(&self, s: Subspace, threads: usize) -> f64 {
        let lists = parallel_map(self.shards, threads, |sh| {
            sh.topk(self.query, self.k, s, self.exclude)
        });
        merge_topk(self.k, &lists).iter().map(|n| n.dist).sum()
    }
}

impl OdEvaluator for ShardedOdEvaluator<'_> {
    fn od(&mut self, s: Subspace) -> f64 {
        if self.ensure_contexts(self.shard_threads) {
            self.od_batch_walked(&[s], self.shard_threads)[0]
        } else {
            self.od_merged(s, self.shard_threads)
        }
    }

    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        if subspaces.is_empty() {
            return Vec::new();
        }
        if self.ensure_contexts(threads) {
            return self.od_batch_walked(subspaces, threads);
        }
        if subspaces.len() >= threads.max(1) {
            // Wide batch: enough subspaces to saturate the workers on
            // their own; nested shard fan-out would only oversubscribe.
            let this = &*self;
            parallel_map(subspaces, threads, |&s| this.od_merged(s, 1))
        } else {
            // Few subspaces (e.g. the last open level): spread each
            // one across the shards instead.
            subspaces
                .iter()
                .map(|&s| self.od_merged(s, threads))
                .collect()
        }
    }

    fn node_visits(&self) -> u64 {
        // Summed across shards: each shard's fold streams its own
        // `n / shards` rows, so the total O(n)-equivalent work is the
        // sum divided by the shard count.
        self.stacks.iter().map(|s| s.node_visits()).sum::<u64>() + self.extra_visits
    }
}

/// Walk-order positions per block in the cached sharded batch path:
/// bounds the per-shard top-k lists held at once to `shards × BLOCK`
/// instead of `shards × batch`.
const WALK_BLOCK: usize = 256;

impl ShardedOdEvaluator<'_> {
    /// One shard's top-k for one subspace inside a walked batch, with
    /// global ids, through the shard's prefix stack. Bit-identical to
    /// [`Shard::topk`] — same candidates, same `(pre, id)` selection.
    fn lane_topk(
        shard: &Shard,
        ctx: &QueryContext<'_>,
        stack: &mut PrefixStack,
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        stack.seek(ctx, s);
        let mut list = stack.knn(ctx, k, shard.local_exclude(exclude));
        for n in &mut list {
            n.id = shard.global_of(n.id);
        }
        list
    }

    /// The cached batch path: every shard walks the batch in walker
    /// order with its own prefix stack, shards in parallel; when more
    /// threads than shards are available, each block additionally
    /// splits into per-shard sub-segments on throwaway stacks (the
    /// same trade the unsharded parallel path makes), so `--threads`
    /// beyond the shard count still buys parallelism. The walk is
    /// processed in [`WALK_BLOCK`]-sized blocks so at most
    /// `shards × block` top-k lists are alive at once; per-shard
    /// persistent stacks survive across blocks, keeping prefix sharing
    /// intact at block boundaries. The exact `(distance, id)` k-way
    /// merge then reduces each subspace and results scatter back into
    /// input order. Bit-identical to `od_merged` per subspace — same
    /// per-shard candidates, same merge, same summation order.
    fn od_batch_walked(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        walk_order(subspaces, &mut self.order);
        let (k, exclude) = (self.k, self.exclude);
        let Some(Some(ctxs)) = self.ctxs.as_ref() else {
            unreachable!("walked batches run only once the contexts exist")
        };
        let nshards = self.shards.len();
        let width = threads.max(1);
        // Sub-segments per shard per block when oversubscribed
        // (width > shards); 1 keeps the persistent-stack fast path.
        // Blocks stay WALK_BLOCK positions either way — splitting
        // *within* the block preserves the shards × WALK_BLOCK memory
        // bound under any thread count.
        let subsplit = width.div_ceil(nshards).min(WALK_BLOCK);
        let mut out = vec![0.0f64; subspaces.len()];
        let block_len = WALK_BLOCK;

        let mut lanes: Vec<(&Shard, &QueryContext<'_>, &mut PrefixStack)> = self
            .shards
            .iter()
            .zip(ctxs)
            .zip(&mut self.stacks)
            .map(|((shard, ctx), stack)| (shard, ctx, stack))
            .collect();

        let mut block_start = 0usize;
        while block_start < self.order.len() {
            let block = &self.order[block_start..(block_start + block_len).min(self.order.len())];
            // Per-shard lists for this block, slot `s * block.len() + p`.
            let per_shard: Vec<Vec<Neighbor>> = if subsplit <= 1 {
                let rows = parallel_map_mut(&mut lanes, width, |(shard, ctx, stack)| {
                    block
                        .iter()
                        .map(|&i| Self::lane_topk(shard, ctx, stack, k, subspaces[i], exclude))
                        .collect::<Vec<Vec<Neighbor>>>()
                });
                rows.into_iter().flatten().collect()
            } else {
                // Oversubscribed: (shard, sub-segment) tasks with
                // throwaway stacks — allocation returns exactly where
                // extra threads were requested.
                let seg = block.len().div_ceil(subsplit).max(1);
                let mut tasks: Vec<(usize, usize)> = Vec::new();
                for s in 0..nshards {
                    for (j, _) in block.chunks(seg).enumerate() {
                        tasks.push((s, j));
                    }
                }
                let shards = self.shards;
                let results = parallel_map(&tasks, width, |&(s, j)| {
                    let shard = &shards[s];
                    let ctx = &ctxs[s];
                    let mut stack = PrefixStack::new();
                    let segment = &block[j * seg..((j + 1) * seg).min(block.len())];
                    let lists: Vec<Vec<Neighbor>> = segment
                        .iter()
                        .map(|&i| Self::lane_topk(shard, ctx, &mut stack, k, subspaces[i], exclude))
                        .collect();
                    (s, j * seg, lists, stack.node_visits())
                });
                let mut flat: Vec<Vec<Neighbor>> = vec![Vec::new(); nshards * block.len()];
                for (s, start, lists, visits) in results {
                    self.extra_visits += visits;
                    for (off, list) in lists.into_iter().enumerate() {
                        flat[s * block.len() + start + off] = list;
                    }
                }
                flat
            };

            for (pos, &i) in block.iter().enumerate() {
                self.merge.reset(k);
                for s in 0..nshards {
                    for n in &per_shard[s * block.len() + pos] {
                        self.merge.offer(n.dist, n.id);
                    }
                }
                // Ordering by finished distance equals ordering by
                // pre-metric distance (Metric::finish is strictly
                // monotone), and the sum runs in the same ascending
                // (distance, id) order as the unsharded engine.
                out[i] = self.merge.sorted().iter().map(|c| c.pre).sum();
            }
            block_start += block.len();
        }
        out
    }
}

/// Incremental maintenance by per-shard routing.
///
/// Every global id has exactly one owning shard: its contiguous base
/// range, or the shard an insert was routed to (tracked in
/// `Shard::extra`).
///
/// * **Insert** — routed to the **least-loaded** shard by live row
///   count (ties to the lowest shard index, for determinism), so
///   long-running streams keep the shards balanced and the per-query
///   fan-out keeps its speedup. Correctness never depended on the
///   placement — the top-k merge is lossless for *any* partition of
///   the points — but the old route-to-last policy ground parallel
///   efficiency down as one shard absorbed the whole stream. The row
///   is appended to both the engine-level dataset (which issues the
///   global id) and the chosen shard's sub-engine.
/// * **Remove** — routed to the owning shard; tombstoned in both the
///   sub-engine and the engine-level dataset (which the `dataset()`
///   contract and `try_knn`'s live-count validation read).
impl IncrementalEngine for ShardedEngine {
    fn insert(&mut self, row: &[f64]) -> Result<PointId, IndexError> {
        validate_insert(&self.dataset, row)?;
        let shard = self
            .shards
            .iter_mut()
            .min_by_key(|sh| sh.engine.dataset().live_len())
            .expect("at least one shard");
        let local = shard
            .engine
            .as_incremental()
            .ok_or(IndexError::Immutable("sharded sub-engine"))?
            .insert(row)?;
        let global = self
            .dataset
            .push_row(row)
            .expect("row validated before insert");
        debug_assert_eq!(local, shard.base_len + shard.extra.len());
        shard.extra.push(global);
        Ok(global)
    }

    fn remove(&mut self, id: PointId) -> Result<(), IndexError> {
        validate_remove(&self.dataset, id)?;
        let (shard, local) = self
            .shards
            .iter_mut()
            .find_map(|sh| sh.local_of(id).map(|local| (sh, local)))
            .expect("every id has an owning shard");
        shard
            .engine
            .as_incremental()
            .ok_or(IndexError::Immutable("sharded sub-engine"))?
            .remove(local)?;
        self.dataset
            .remove_row(id)
            .expect("id validated before removal");
        Ok(())
    }
}

/// Builds either a plain engine (`shards <= 1`) or a [`ShardedEngine`]
/// wrapping `shards` sub-engines of the chosen kind — the one
/// constructor configs and CLIs need.
pub fn build_engine_sharded(
    engine: Engine,
    dataset: Dataset,
    metric: Metric,
    shards: usize,
    threads: usize,
) -> Box<dyn KnnEngine> {
    if shards <= 1 {
        build_engine(engine, dataset, metric)
    } else {
        Box::new(ShardedEngine::build(
            dataset, metric, engine, shards, threads,
        ))
    }
}

/// Least rows a shard is given when the shard count is left to
/// [`shard_count`]: two shards start paying for their fan-out near
/// twice this many rows. On 2 vCPUs, lone `query_each` calls on
/// deep-search-shaped data (planted, d = 12, 70% displaced points),
/// one call every 20 ms alternating one shard against two, both at 2
/// threads, read p50s of 0.50 vs 0.83 ms at 2000 rows (two shards
/// faster in 16 of 300 pairs), 0.64 vs 1.10 ms at 5000 (43/300), 0.80
/// vs 0.99 ms at 8000 (251/600), 1.08 vs 1.18 ms at 10000 (362/600,
/// median pair difference −0.04 ms), 1.15 vs 1.05 ms at 12000
/// (401/600), 1.29 vs 1.08 ms at 15000 (499/600) and 1.74 vs 1.45 ms
/// at 20000 (259/300).
pub const MIN_SHARD_ROWS: usize = 5000;

/// The shard count a served miner uses when none is asked for: as many
/// shards as `threads`, but never fewer than [`MIN_SHARD_ROWS`] rows
/// each, and at least one. Only the linear engine is split: the X-tree
/// has no query context, so its shards could only fan whole k-NN
/// searches, and it always gets 1. Answers are bit-identical at any
/// count; this only decides whether a lone query's walks are spread
/// over the cores.
pub fn shard_count(engine: Engine, rows: usize, threads: usize) -> usize {
    match engine {
        Engine::Linear => threads.min(rows / MIN_SHARD_ROWS).max(1),
        Engine::XTree => 1,
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
        // Coarse grid values force plenty of distance ties, so the
        // (distance, id) merge tie-break is actually exercised.
        let flat: Vec<f64> = (0..n * d)
            .map(|_| (rng.gen_range(0..8) as f64) * 0.5)
            .collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn knn_and_od_bit_identical_to_linear_scan() {
        let d = 4;
        let ds = dataset(90, d, 1);
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let linear = LinearScan::new(ds.clone(), metric);
            for shards in [1, 2, 3, 5, 8] {
                let sharded = ShardedEngine::build(ds.clone(), metric, Engine::Linear, shards, 2);
                for qid in [0usize, 17, 89] {
                    let q: Vec<f64> = ds.row(qid).to_vec();
                    for s in Subspace::all_nonempty(d) {
                        assert_eq!(
                            sharded.knn(&q, 6, s, Some(qid)),
                            linear.knn(&q, 6, s, Some(qid)),
                            "{metric:?} shards={shards} {s}"
                        );
                        assert_eq!(
                            sharded.od(&q, 6, s, Some(qid)),
                            linear.od(&q, 6, s, Some(qid)),
                            "{metric:?} shards={shards} {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn evaluator_matches_unsharded_singles_and_batches() {
        // Single calls (the first builds the per-shard contexts), then
        // whole-lattice batches: every OD must equal the unsharded
        // engine's bit for bit.
        let d = 5;
        let ds = dataset(120, d, 2);
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| linear.od(ds.row(7), 5, s, Some(7)))
            .collect();
        for shards in [2, 4, 7] {
            let engine = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, shards, 3);
            let q: Vec<f64> = ds.row(7).to_vec();
            let mut ev = engine.evaluator(&q, 5, Some(7));
            // Single calls first, then a big batch.
            for (i, &s) in subspaces.iter().take(3).enumerate() {
                assert_eq!(ev.od(s), reference[i], "shards={shards} single {s}");
            }
            for threads in [1, 4] {
                assert_eq!(
                    ev.od_batch(&subspaces, threads),
                    reference,
                    "shards={shards} threads={threads}"
                );
            }
            // Small batch, more threads than shards.
            assert_eq!(ev.od_batch(&subspaces[..2], 8), reference[..2]);
        }
    }

    #[test]
    fn walked_batch_blocks_and_oversubscription_stay_exact() {
        // d = 9: 511 subspaces — more than one WALK_BLOCK, so the
        // blocked loop crosses a boundary; threads > shards exercises
        // the throwaway-stack sub-segment path. Both must stay
        // bit-identical to the unsharded reference.
        let d = 9;
        let ds = dataset(140, d, 11);
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(9).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        assert!(subspaces.len() > WALK_BLOCK);
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| linear.od(&q, 4, s, Some(9)))
            .collect();
        for shards in [2usize, 3] {
            let engine = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, shards, 2);
            for threads in [1usize, shards, 8] {
                let mut ev = engine.evaluator(&q, 4, Some(9));
                assert_eq!(
                    ev.od_batch(&subspaces, threads),
                    reference,
                    "shards={shards} threads={threads}"
                );
                assert!(ev.node_visits() > 0, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn range_matches_linear_scan() {
        let ds = dataset(70, 3, 3);
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let sharded = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 4, 2);
        let q: Vec<f64> = ds.row(10).to_vec();
        let s = Subspace::full(3);
        let mut a: Vec<(usize, f64)> = sharded
            .range(&q, 1.25, s, Some(10))
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        let mut b: Vec<(usize, f64)> = linear
            .range(&q, 1.25, s, Some(10))
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
    }

    #[test]
    fn distance_evals_aggregate_across_shards() {
        let ds = dataset(50, 3, 4);
        let sharded = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 5, 1);
        assert_eq!(sharded.distance_evals(), 0);
        let q: Vec<f64> = ds.row(0).to_vec();
        sharded.knn(&q, 3, Subspace::full(3), Some(0));
        // Every non-excluded point is touched exactly once in total.
        assert_eq!(sharded.distance_evals(), 49);
    }

    #[test]
    fn shard_count_clamps_and_exposes() {
        let ds = dataset(6, 2, 5);
        let e = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 64, 0);
        assert_eq!(e.shard_count(), 6);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.dataset().len(), 6);
        // Still exact after clamping to one point per shard.
        let linear = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(1).to_vec();
        assert_eq!(
            e.knn(&q, 3, Subspace::full(2), None),
            linear.knn(&q, 3, Subspace::full(2), None)
        );
    }

    #[test]
    fn set_threads_retunes_fanout_without_changing_results() {
        let ds = dataset(60, 3, 9);
        let e = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 4, 1);
        let q: Vec<f64> = ds.row(5).to_vec();
        let s = Subspace::full(3);
        let before = e.knn(&q, 4, s, Some(5));
        assert_eq!(e.threads(), 1);
        e.set_threads(4);
        assert_eq!(e.threads(), 4);
        assert_eq!(e.knn(&q, 4, s, Some(5)), before);
        e.set_threads(0); // clamped
        assert_eq!(e.threads(), 1);
        // Plain engines accept the call as a no-op.
        LinearScan::new(ds, Metric::L2).set_threads(8);
    }

    #[test]
    fn k_zero_and_empty_edge_cases() {
        let ds = dataset(10, 2, 6);
        let e = ShardedEngine::build(ds, Metric::L2, Engine::Linear, 3, 2);
        assert!(e.knn(&[0.0, 0.0], 0, Subspace::full(2), None).is_empty());
        let empty = ShardedEngine::build(Dataset::empty(), Metric::L2, Engine::Linear, 3, 2);
        assert!(empty.knn(&[], 3, Subspace::empty(), None).is_empty());
        assert_eq!(empty.shard_count(), 1);
    }

    /// Satellite regression: a long insert stream must spread across
    /// the shards (least-loaded routing), not pile onto the last one —
    /// and every query over the rebalanced layout must stay
    /// bit-identical to an unsharded mirror.
    #[test]
    fn insert_stream_balances_across_shards_and_stays_exact() {
        let d = 3;
        let ds = dataset(40, d, 8);
        let mut e = ShardedEngine::build(ds.clone(), Metric::L2, Engine::Linear, 4, 2);
        let mut mirror = LinearScan::new(ds, Metric::L2);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..60 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
            let a = e.as_incremental().unwrap().insert(&row).unwrap();
            let b = mirror.as_incremental().unwrap().insert(&row).unwrap();
            assert_eq!(a, b);
        }
        // 100 live rows over 4 shards: balanced routing caps the
        // spread at 1 row. The old route-to-last policy put all 60
        // inserts on one shard (70 vs 10).
        let live: Vec<usize> = e
            .shards
            .iter()
            .map(|sh| sh.engine.dataset().live_len())
            .collect();
        let (lo, hi) = (*live.iter().min().unwrap(), *live.iter().max().unwrap());
        assert!(hi - lo <= 1, "unbalanced shards: {live:?}");
        // Rebalanced ids resolve correctly on every query path.
        let s = Subspace::full(d);
        for qid in [0usize, 45, 99] {
            let q: Vec<f64> = mirror.dataset().row(qid).to_vec();
            assert_eq!(
                e.knn(&q, 7, s, Some(qid)),
                mirror.knn(&q, 7, s, Some(qid)),
                "qid={qid}"
            );
        }
        // Removing an insert-routed id reaches its owning shard (the
        // first extra row cannot live on the last shard under balanced
        // routing of this layout) and the engine stays exact.
        e.as_incremental().unwrap().remove(41).unwrap();
        mirror.as_incremental().unwrap().remove(41).unwrap();
        assert_eq!(
            e.as_incremental().unwrap().remove(41),
            Err(IndexError::DeadPoint(41))
        );
        let q: Vec<f64> = mirror.dataset().row(0).to_vec();
        assert_eq!(e.knn(&q, 9, s, None), mirror.knn(&q, 9, s, None));
        // The evaluator's cached walked path sees the extra rows too.
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| mirror.od(&q, 5, s, Some(0)))
            .collect();
        let mut ev = e.evaluator(&q, 5, Some(0));
        assert_eq!(ev.od_batch(&subspaces, 2), reference);
    }

    #[test]
    fn shard_count_splits_only_large_linear_inputs() {
        let floor = MIN_SHARD_ROWS;
        // Below two shards' worth of rows, one shard.
        assert_eq!(shard_count(Engine::Linear, 2000, 2), 1);
        assert_eq!(shard_count(Engine::Linear, 2 * floor - 1, 2), 1);
        assert_eq!(shard_count(Engine::Linear, 2 * floor, 2), 2);
        // Never more shards than threads, never fewer than one.
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 2), 2);
        assert_eq!(shard_count(Engine::Linear, 3 * floor, 8), 3);
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 1), 1);
        assert_eq!(shard_count(Engine::Linear, 100 * floor, 0), 1);
        assert_eq!(shard_count(Engine::Linear, 0, 4), 1);
        // The X-tree is never split.
        assert_eq!(shard_count(Engine::XTree, 100 * floor, 8), 1);
    }

    #[test]
    fn build_engine_sharded_picks_the_right_backend() {
        let ds = dataset(20, 2, 7);
        let plain = build_engine_sharded(Engine::Linear, ds.clone(), Metric::L2, 1, 4);
        assert!(
            plain.query_context(&[0.0, 0.0]).is_some(),
            "unsharded keeps its context"
        );
        let sharded = build_engine_sharded(Engine::Linear, ds, Metric::L2, 4, 4);
        assert!(
            sharded.query_context(&[0.0, 0.0]).is_none(),
            "sharded declines a whole-dataset context"
        );
    }
}
