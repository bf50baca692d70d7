//! Order-preserving fan-out over the persistent [`crate::pool`].
//!
//! Every parallel region in the system — per-range walks and merges,
//! the blocked all-points scan, threshold resolution, learning's
//! sample searches and `HosMiner::query_each` across queries — splits
//! its items into `threads` static chunks and runs them on the pooled
//! workers: threads are spawned once per process and reused across
//! every call, so a resident server pays no spawn/join latency per
//! admission batch.

use crate::pool::run_scoped;

/// Applies `f` to every item, fanned out across up to `threads`
/// pooled workers with static chunking; results are in input order.
/// `threads <= 1` (or a single item) short-circuits to a serial loop,
/// where even pool hand-off overhead would dominate small batches.
/// The chunk boundaries are identical to the serial iteration order
/// and every chunk writes its own disjoint output slice, so results
/// are **bit-identical** to the serial path for any thread count.
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
/// static chunking; results are in input order. Used by the evaluator
/// to drive one mutable [`crate::walker::PrefixStack`] per row range
/// in parallel.
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
    use crate::evaluator::LazyContextEvaluator;
    use crate::knn::KnnEngine;
    use crate::linear::LinearScan;
    use hos_data::{Dataset, Metric, PointId, Subspace};
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

    /// One evaluator's `od_batch` for `query` — the per-level batch
    /// every search layer runs.
    fn od_batch(
        engine: &LinearScan,
        query: &[f64],
        k: usize,
        subspaces: &[Subspace],
        exclude: Option<PointId>,
        threads: usize,
    ) -> Vec<f64> {
        LazyContextEvaluator::new(engine, query, k, exclude).od_batch(subspaces, threads)
    }

    #[test]
    fn parallel_matches_serial() {
        let (engine, q, subspaces) = setup();
        let serial = od_batch(&engine, &q, 5, &subspaces, Some(17), 1);
        let parallel = od_batch(&engine, &q, 5, &subspaces, Some(17), 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_input() {
        let (engine, q, _) = setup();
        assert!(od_batch(&engine, &q, 5, &[], None, 4).is_empty());
    }

    #[test]
    fn more_threads_than_work() {
        let (engine, q, subspaces) = setup();
        let r = od_batch(&engine, &q, 3, &subspaces[..2], None, 64);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let (engine, q, subspaces) = setup();
        let r = od_batch(&engine, &q, 3, &subspaces[..3], None, 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn cached_batch_identical_to_per_subspace_engine_queries() {
        // od_batch takes the QueryContext fast path for LinearScan;
        // it must agree bit for bit with one engine.od call per
        // subspace (the uncached reference) at any requested width.
        let (engine, q, subspaces) = setup();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| engine.od(&q, 5, s, Some(17)))
            .collect();
        for threads in [1, 4] {
            let cached = od_batch(&engine, &q, 5, &subspaces, Some(17), threads);
            assert_eq!(cached, reference, "threads={threads}");
        }
        let ctx = engine.query_context(&q).expect("linear scan caches");
        let direct = parallel_map(&subspaces, 2, |&s| ctx.od(5, s, Some(17)));
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
        od_batch(&engine, &q, 5, &subspaces[..4], Some(17), 1);
        // 4 subspace ODs over 499 non-excluded points each.
        assert_eq!(engine.distance_evals() - before, 4 * 499);
    }
}
