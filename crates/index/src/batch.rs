//! Multi-threaded batch OD evaluation.
//!
//! The dynamic subspace search evaluates OD for a whole *level* of the
//! lattice at a time (all unpruned subspaces with the same
//! dimensionality), which parallelises embarrassingly: each subspace's
//! k-NN query is independent. The subspace list is split into
//! `threads` chunks executed on the persistent [`crate::pool`] worker
//! pool — threads are spawned once per process and reused across
//! every call, so a resident server pays no spawn/join latency per
//! admission batch.

use crate::context::QueryContext;
use crate::knn::KnnEngine;
use crate::pool::run_scoped;
use hos_data::{PointId, Subspace};

/// Evaluates `OD(query, s)` for every subspace in `subspaces`,
/// returning results in input order.
///
/// A thin convenience wrapper over the [`crate::evaluator`] seam: one
/// throwaway [`crate::evaluator::OdEvaluator`] evaluates the batch, so
/// context handling lives in exactly one place. When the engine
/// provides a [`QueryContext`] (linear scan does), the pre-distance
/// matrix is computed once and every subspace OD becomes a walk over
/// cached columns; otherwise each OD is an independent engine query.
/// Callers that evaluate several batches for the *same* query point —
/// level-by-level searches do — should hold one
/// [`KnnEngine::evaluator`] and call `od_batch` on it per level
/// instead, so one build serves every batch.
///
/// `threads == 1` (or a single subspace) short-circuits to a serial
/// loop, where thread spawn overhead would dominate small batches.
pub fn batch_od(
    engine: &dyn KnnEngine,
    query: &[f64],
    k: usize,
    subspaces: &[Subspace],
    exclude: Option<PointId>,
    threads: usize,
) -> Vec<f64> {
    engine
        .evaluator(query, k, exclude)
        .od_batch(subspaces, threads)
}

/// [`batch_od`] over an already-built [`QueryContext`]: every OD is a
/// subset-combine over cached columns. Results are in input order and
/// identical to the uncached path bit for bit.
pub fn batch_od_with_context(
    ctx: &QueryContext<'_>,
    k: usize,
    subspaces: &[Subspace],
    exclude: Option<PointId>,
    threads: usize,
) -> Vec<f64> {
    parallel_map(subspaces, threads, |&s| ctx.od(k, s, exclude))
}

/// Applies `f` to every item, fanned out across up to `threads`
/// pooled workers with static chunking; results are in input order.
/// `threads <= 1` (or a single item) short-circuits to a serial loop,
/// where even pool hand-off overhead would dominate small batches.
/// The chunk boundaries are identical to the serial iteration order
/// and every chunk writes its own disjoint output slice, so results
/// are **bit-identical** to the serial path for any thread count. The
/// shared scatter behind [`batch_od`], [`batch_od_with_context`] and
/// `hos-core`'s `batch_search`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    {
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(slice_in, slice_out)| {
                Box::new(move || {
                    for (i, o) in slice_in.iter().zip(slice_out.iter_mut()) {
                        *o = Some(f(i));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
    }
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

/// [`parallel_map`] over mutable items: applies `f` to every item with
/// exclusive access, fanned across up to `threads` pooled workers with
/// static chunking; results are in input order. Used by the sharded
/// evaluator to drive one mutable [`crate::walker::PrefixStack`] per
/// shard in parallel.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter_mut().map(&f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    {
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(slice_in, slice_out)| {
                Box::new(move || {
                    for (i, o) in slice_in.iter_mut().zip(slice_out.iter_mut()) {
                        *o = Some(f(i));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
    }
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use hos_data::{Dataset, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (LinearScan, Vec<f64>, Vec<Subspace>) {
        let mut rng = StdRng::seed_from_u64(4);
        let d = 6;
        let flat: Vec<f64> = (0..500 * d).map(|_| rng.gen_range(0.0..10.0)).collect();
        let ds = Dataset::from_flat(flat, d).unwrap();
        let q: Vec<f64> = ds.row(17).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        (LinearScan::new(ds, Metric::L2), q, subspaces)
    }

    #[test]
    fn parallel_matches_serial() {
        let (engine, q, subspaces) = setup();
        let serial = batch_od(&engine, &q, 5, &subspaces, Some(17), 1);
        let parallel = batch_od(&engine, &q, 5, &subspaces, Some(17), 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_input() {
        let (engine, q, _) = setup();
        assert!(batch_od(&engine, &q, 5, &[], None, 4).is_empty());
    }

    #[test]
    fn more_threads_than_work() {
        let (engine, q, subspaces) = setup();
        let r = batch_od(&engine, &q, 3, &subspaces[..2], None, 64);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let (engine, q, subspaces) = setup();
        let r = batch_od(&engine, &q, 3, &subspaces[..3], None, 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn cached_batch_identical_to_per_subspace_engine_queries() {
        // batch_od takes the QueryContext fast path for LinearScan;
        // it must agree bit for bit with one engine.od call per
        // subspace (the uncached reference), serial and parallel.
        let (engine, q, subspaces) = setup();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| engine.od(&q, 5, s, Some(17)))
            .collect();
        for threads in [1, 4] {
            let cached = batch_od(&engine, &q, 5, &subspaces, Some(17), threads);
            assert_eq!(cached, reference, "threads={threads}");
        }
        let ctx = engine.query_context(&q).expect("linear scan caches");
        let direct = batch_od_with_context(&ctx, 5, &subspaces, Some(17), 2);
        assert_eq!(direct, reference);
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [0, 1, 2, 7, 64, 1000] {
            assert_eq!(
                parallel_map(&items, threads, |&x| x * 3),
                expected,
                "threads={threads}"
            );
        }
        assert!(parallel_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_mut_mutates_every_item_in_order() {
        let mut items: Vec<u64> = (0..53).collect();
        for threads in [0, 1, 3, 64] {
            let out = parallel_map_mut(&mut items, threads, |x| {
                *x += 1;
                *x * 2
            });
            let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
        // Four rounds of +1 applied to each item exactly once.
        assert_eq!(items[0], 4);
        assert_eq!(items[52], 56);
        assert!(parallel_map_mut(&mut [] as &mut [u64], 4, |&mut x| x).is_empty());
    }

    #[test]
    fn cached_batch_counts_distance_evals() {
        let (engine, q, subspaces) = setup();
        let before = engine.distance_evals();
        batch_od(&engine, &q, 5, &subspaces[..4], Some(17), 1);
        // 4 subspace ODs over 499 non-excluded points each.
        assert_eq!(engine.distance_evals() - before, 4 * 499);
    }
}
