//! Exact brute-force k-NN with a bounded max-heap.
//!
//! The workhorse engine: for the dataset sizes of the paper's
//! experiments a well-written scan is often faster than any index once
//! the projected dimensionality grows (experiment E7 quantifies the
//! crossover), and it doubles as the correctness oracle for the
//! X-tree.

use crate::context::QueryContext;
use crate::error::{validate_insert, validate_remove, IndexError};
use crate::knn::{KnnEngine, Neighbor};
use crate::topk::TopK;
use hos_data::{Dataset, Metric, PointId, Subspace};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Brute-force exact k-NN engine.
///
/// ```
/// use hos_data::{Dataset, Metric, Subspace};
/// use hos_index::{KnnEngine, LinearScan};
///
/// let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![9.0, 9.0]]).unwrap();
/// let engine = LinearScan::new(ds, Metric::L2);
/// let nn = engine.knn(&[0.0, 0.0], 2, Subspace::full(2), None);
/// assert_eq!(nn[0].id, 0);
/// assert_eq!(nn[1].id, 1);
/// // OD = sum of the k nearest distances (the paper's §2 measure):
/// assert_eq!(engine.od(&[0.0, 0.0], 2, Subspace::full(2), None), 1.0);
/// ```
pub struct LinearScan {
    dataset: Dataset,
    metric: Metric,
    evals: AtomicU64,
    /// Row ranges a cached walk is split into ([`KnnEngine::row_ranges`]).
    ranges: usize,
}

impl LinearScan {
    /// Wraps a dataset; no preprocessing needed.
    pub fn new(dataset: Dataset, metric: Metric) -> Self {
        Self::with_ranges(dataset, metric, 1)
    }

    /// [`LinearScan::new`] whose evaluators split each cached walk into
    /// `ranges` contiguous row ranges (at least 1), walked on that many
    /// workers and merged exactly (see [`crate::evaluator`]). Every
    /// answer is bit-identical to the unsplit scan's.
    ///
    /// ```
    /// use hos_data::{Dataset, Metric, Subspace};
    /// use hos_index::{KnnEngine, LazyContextEvaluator, LinearScan};
    ///
    /// let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
    /// let ds = Dataset::from_rows(&rows).unwrap();
    /// let split = LinearScan::with_ranges(ds.clone(), Metric::L2, 4);
    /// let linear = LinearScan::new(ds, Metric::L2);
    /// let s = Subspace::full(2);
    /// let q = [3.0, 3.0];
    /// let od = LazyContextEvaluator::new(&split, &q, 5, None).od_batch(&[s], 2)[0];
    /// assert_eq!(od, linear.od(&q, 5, s, None));
    /// ```
    pub fn with_ranges(dataset: Dataset, metric: Metric, ranges: usize) -> Self {
        LinearScan {
            dataset,
            metric,
            evals: AtomicU64::new(0),
            ranges: ranges.max(1),
        }
    }
}

impl KnnEngine for LinearScan {
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
        // TopK::into_sorted is already ascending by (pre, id), and
        // Metric::finish is monotone, so the result needs no re-sort;
        // `knn_result_is_sorted_by_distance_then_id` pins the contract.
        top.into_sorted()
            .into_iter()
            .map(|c| Neighbor {
                id: c.id,
                dist: self.metric.finish(c.pre),
            })
            .collect()
    }

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

    fn range_context<'a>(
        &'a self,
        query: &[f64],
        rows: Range<PointId>,
    ) -> Option<QueryContext<'a>> {
        Some(
            QueryContext::build_rows(&self.dataset, self.metric, query, rows)
                .with_counter(&self.evals),
        )
    }

    fn row_ranges(&self) -> usize {
        self.ranges
    }

    // The linear scan is natively incremental: an insert appends a
    // row, a removal tombstones one, and the scan loop (which iterates
    // live rows only) needs no other state.
    fn insert(&mut self, row: &[f64]) -> Result<PointId, IndexError> {
        validate_insert(&self.dataset, row)?;
        Ok(self.dataset.push_row(row)?)
    }

    fn remove(&mut self, id: PointId) -> Result<(), IndexError> {
        validate_remove(&self.dataset, id)?;
        self.dataset.remove_row(id)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 3.0],
            vec![10.0, 10.0],
        ])
        .unwrap()
    }

    #[test]
    fn knn_orders_by_distance() {
        let e = LinearScan::new(ds(), Metric::L2);
        let nn = e.knn(&[0.0, 0.0], 3, Subspace::full(2), None);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[0].dist, 0.0);
        assert_eq!(nn[1].id, 1);
        assert_eq!(nn[2].id, 2);
        assert!(nn[1].dist <= nn[2].dist);
    }

    #[test]
    fn exclusion_removes_self() {
        let e = LinearScan::new(ds(), Metric::L2);
        let nn = e.knn(&[0.0, 0.0], 2, Subspace::full(2), Some(0));
        assert_eq!(nn[0].id, 1);
        assert!(nn.iter().all(|n| n.id != 0));
    }

    #[test]
    fn subspace_query_uses_only_masked_dims() {
        let e = LinearScan::new(ds(), Metric::L2);
        // Along dim 1 only, point 1 (y=0) ties point 0; id tiebreak.
        let nn = e.knn(&[0.0, 0.0], 2, Subspace::from_dims(&[1]), None);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[1].id, 1);
        assert_eq!(nn[1].dist, 0.0);
    }

    #[test]
    fn k_larger_than_dataset() {
        let e = LinearScan::new(ds(), Metric::L1);
        let nn = e.knn(&[0.0, 0.0], 99, Subspace::full(2), Some(4));
        assert_eq!(nn.len(), 4);
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let e = LinearScan::new(ds(), Metric::L2);
        assert!(e.knn(&[0.0, 0.0], 0, Subspace::full(2), None).is_empty());
        let empty = LinearScan::new(Dataset::empty(), Metric::L2);
        assert!(empty.knn(&[], 3, Subspace::empty(), None).is_empty());
    }

    #[test]
    fn od_is_sum_of_knn_distances() {
        let e = LinearScan::new(ds(), Metric::L1);
        let s = Subspace::full(2);
        let nn = e.knn(&[0.0, 0.0], 3, s, None);
        let od = e.od(&[0.0, 0.0], 3, s, None);
        let sum: f64 = nn.iter().map(|n| n.dist).sum();
        assert!((od - sum).abs() < 1e-12);
    }

    #[test]
    fn range_query() {
        let e = LinearScan::new(ds(), Metric::L2);
        let r = e.range(&[0.0, 0.0], 2.0, Subspace::full(2), None);
        let mut ids: Vec<PointId> = r.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let r2 = e.range(&[0.0, 0.0], 2.0, Subspace::full(2), Some(0));
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn empty_subspace_gives_zero_distances() {
        let e = LinearScan::new(ds(), Metric::L2);
        let nn = e.knn(&[0.0, 0.0], 2, Subspace::empty(), None);
        assert!(nn.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn distance_evals_counted() {
        let e = LinearScan::new(ds(), Metric::L2);
        assert_eq!(e.distance_evals(), 0);
        e.knn(&[0.0, 0.0], 1, Subspace::full(2), None);
        assert_eq!(e.distance_evals(), 5);
        e.range(&[0.0, 0.0], 1.0, Subspace::full(2), Some(0));
        assert_eq!(e.distance_evals(), 9);
    }

    #[test]
    fn knn_result_is_sorted_by_distance_then_id() {
        // Regression test for the sorted-order contract: the heap's
        // into_sorted output is returned directly (the old redundant
        // re-sort is gone), so pin that the result really is ascending
        // by distance with ties broken on ascending id — across
        // metrics, subspaces and exclusions on adversarial tie-heavy
        // data.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 4) as f64, (i % 3) as f64, (i % 5) as f64])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let e = LinearScan::new(ds.clone(), metric);
            for s in [
                Subspace::full(3),
                Subspace::from_dims(&[0]),
                Subspace::from_dims(&[1, 2]),
            ] {
                for exclude in [None, Some(0)] {
                    let nn = e.knn(&[1.0, 1.0, 1.0], 15, s, exclude);
                    assert_eq!(nn.len(), 15);
                    for w in nn.windows(2) {
                        assert!(
                            w[0].dist < w[1].dist || (w[0].dist == w[1].dist && w[0].id < w[1].id),
                            "unsorted pair {:?} then {:?} ({metric:?}, {s})",
                            w[0],
                            w[1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_ties_break_by_id() {
        // Points 1 and 2 are equidistant from the query under L1.
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![-1.0]]).unwrap();
        let e = LinearScan::new(ds, Metric::L1);
        let nn = e.knn(&[0.0], 3, Subspace::full(1), None);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[1].id, 1);
        assert_eq!(nn[2].id, 2);
    }
}
