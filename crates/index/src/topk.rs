//! Bounded top-k selection over pre-metric distances, shared by the
//! engines ([`crate::linear::LinearScan`]), the query-context cache
//! ([`crate::context::QueryContext`]) and the prefix-stack lattice
//! kernel ([`crate::walker::PrefixStack`]).
//!
//! A max-heap of capacity `k` keeps the *worst* current candidate on
//! top, ready to be evicted; ties break on ascending point id so every
//! consumer is deterministic. The heap is a plain `Vec` with manual
//! sift operations rather than `std::collections::BinaryHeap`, for two
//! reasons the hot selection loops care about:
//!
//! * **Bound fast path** — once the heap is full, [`TopK::offer`]
//!   rejects a losing candidate with at most two raw `f64`/id
//!   compares against the cached root, before any `Candidate` is
//!   built or any heap operation runs. (The reject must use the full
//!   `(pre, id)` order, not `pre` alone: a candidate *tying* the worst
//!   pre-distance still wins when its id is smaller, and the
//!   row-range merge offers candidates out of id order, where that
//!   case is live.
//!   `equal_pre_keeps_smaller_id_regardless_of_offer_order` pins it.)
//! * **Reuse** — [`TopK::reset`] recycles the backing allocation, so a
//!   walker evaluating thousands of lattice nodes performs zero heap
//!   allocations after the first node.
//!
//! `into_sorted` returns candidates in ascending `(pre, id)` order —
//! exactly what `BinaryHeap::into_sorted_vec` used to yield, pinned by
//! the sorted-order regression tests here and in [`crate::linear`].

use hos_data::PointId;
use std::cmp::Ordering;

/// One candidate: pre-metric distance plus point id.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    pub pre: f64,
    pub id: PointId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.pre == other.pre && self.id == other.id
    }
}
impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances are finite by Dataset validation; tie-break on id
        // for determinism.
        self.pre
            .partial_cmp(&other.pre)
            .expect("finite distances")
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Keeps the `k` smallest `(pre, id)` candidates seen so far.
pub(crate) struct TopK {
    k: usize,
    /// Max-heap by `(pre, id)`: `heap[0]` is the worst kept candidate.
    /// After [`TopK::sorted`] the invariant is traded for ascending
    /// order; [`TopK::reset`] restores a clean (empty) state.
    heap: Vec<Candidate>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Empties the selection and retargets it to a new `k`, keeping
    /// the backing allocation — the zero-alloc path for callers that
    /// run one selection per lattice node.
    #[inline]
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k);
    }

    /// Offers one candidate; keeps it only if it beats the current
    /// worst (or the heap is not yet full). Eviction compares the
    /// full `(pre, id)` order, so the kept set — and the tie-break —
    /// is independent of the order candidates are offered in (the
    /// range-split merge offers range by range; the
    /// X-tree's own heap, which visits leaves in tree order, keeps the
    /// same rule so its lists equal these bit for bit).
    ///
    /// `inline(always)`: the chunked selection loop in
    /// `context::offer_bounded` offers up to eight candidates per
    /// accepted chunk; an outlined call there costs more than the two
    /// compares of the fast path it guards.
    #[inline(always)]
    pub fn offer(&mut self, pre: f64, id: PointId) {
        if self.heap.len() < self.k {
            self.heap.push(Candidate { pre, id });
            self.sift_up(self.heap.len() - 1);
            return;
        }
        if self.k == 0 {
            return;
        }
        // Fast bound check against the cached worst: a candidate at or
        // beyond `(worst.pre, worst.id)` can never be kept. This is
        // the common case on sorted-ish data and costs one or two
        // scalar compares, no heap traffic.
        let worst = self.heap[0];
        if pre > worst.pre || (pre == worst.pre && id >= worst.id) {
            return;
        }
        self.heap[0] = Candidate { pre, id };
        self.sift_down(0);
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] > self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let biggest = if r < len && self.heap[r] > self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[biggest] > self.heap[i] {
                self.heap.swap(i, biggest);
                i = biggest;
            } else {
                break;
            }
        }
    }

    /// Whether the heap holds its full `k` candidates.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The admission bound for candidate pre-distances: the cached
    /// worst kept pre once the selection is full, `+inf` while free
    /// slots remain (everything admissible), `-inf` for `k == 0`
    /// (nothing ever kept). A candidate with `pre > bound()` is
    /// provably rejected by [`TopK::offer`]'s fast path, so callers
    /// may skip constructing it entirely; a candidate *at* the bound
    /// must still be offered — a smaller id ties into the heap.
    #[inline]
    pub fn bound(&self) -> f64 {
        if !self.is_full() {
            f64::INFINITY
        } else {
            self.heap
                .first()
                .map(|c| c.pre)
                .unwrap_or(f64::NEG_INFINITY)
        }
    }

    /// The ids currently kept, in arbitrary (heap) order — used by the
    /// lattice walker to seed the next node's admission bound with the
    /// previous node's winners.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.heap.iter().map(|c| c.id)
    }

    /// The kept candidates in ascending `(pre, id)` order, sorted in
    /// place. The heap invariant is consumed: call [`TopK::reset`]
    /// before the next selection (which every reusing caller does
    /// anyway).
    #[inline]
    pub fn sorted(&mut self) -> &[Candidate] {
        self.heap.sort_unstable();
        &self.heap
    }

    /// The kept candidates in ascending `(pre, id)` order, consuming
    /// the selection.
    pub fn into_sorted(mut self) -> Vec<Candidate> {
        self.heap.sort_unstable();
        self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest_in_ascending_order() {
        let mut t = TopK::new(3);
        for (pre, id) in [(5.0, 0), (1.0, 1), (4.0, 2), (0.5, 3), (2.0, 4)] {
            t.offer(pre, id);
        }
        let out = t.into_sorted();
        let pairs: Vec<(f64, usize)> = out.iter().map(|c| (c.pre, c.id)).collect();
        assert_eq!(pairs, vec![(0.5, 3), (1.0, 1), (2.0, 4)]);
    }

    #[test]
    fn ties_break_on_ascending_id() {
        let mut t = TopK::new(4);
        for id in [3usize, 0, 2, 1] {
            t.offer(7.0, id);
        }
        let ids: Vec<usize> = t.into_sorted().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.offer(2.0, 0);
        t.offer(1.0, 1);
        assert_eq!(t.into_sorted().len(), 2);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut t = TopK::new(0);
        t.offer(1.0, 0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn equal_pre_keeps_smaller_id_regardless_of_offer_order() {
        // Ties resolve to the smaller id whether it arrives first
        // (LinearScan/QueryContext offer in id order) or last (the
        // row-range merge does not): the kept set depends only on the
        // candidates, not their sequence. This is exactly
        // the case the bound fast path must NOT reject: pre == worst.pre
        // with a smaller id still enters the heap.
        for ids in [[0usize, 1], [1, 0]] {
            let mut t = TopK::new(1);
            for id in ids {
                t.offer(3.0, id);
            }
            let out = t.into_sorted();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].id, 0, "offer order {ids:?}");
        }
    }

    /// The regression the bound fast path is pinned by: against a
    /// sort-everything reference, the kept set AND its order are
    /// identical on adversarial tie-heavy streams in several offer
    /// orders (ascending id, descending id, interleaved) — i.e. the
    /// cheap reject never changes behaviour, it only skips heap work.
    #[test]
    fn equivalent_to_full_sort_reference_under_ties() {
        let base: Vec<(f64, usize)> = (0..64).map(|i| ((i % 5) as f64 * 0.25, i)).collect();
        let mut shuffled = base.clone();
        shuffled.reverse();
        let mut interleaved: Vec<(f64, usize)> = Vec::new();
        for i in 0..32 {
            interleaved.push(base[i]);
            interleaved.push(base[63 - i]);
        }
        for k in [0usize, 1, 3, 7, 64, 100] {
            // Reference: full sort by (pre, id), take k.
            let mut reference = base.clone();
            reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            reference.truncate(k);
            for (label, stream) in [
                ("ascending", &base),
                ("descending", &shuffled),
                ("interleaved", &interleaved),
            ] {
                let mut t = TopK::new(k);
                for &(pre, id) in stream {
                    t.offer(pre, id);
                }
                let got: Vec<(f64, usize)> =
                    t.into_sorted().iter().map(|c| (c.pre, c.id)).collect();
                assert_eq!(got, reference, "k={k} order={label}");
            }
        }
    }

    #[test]
    fn reset_recycles_for_the_next_selection() {
        let mut t = TopK::new(2);
        for (pre, id) in [(9.0, 0), (1.0, 1), (5.0, 2)] {
            t.offer(pre, id);
        }
        assert_eq!(t.sorted().len(), 2);
        // sorted() consumed the heap order; reset restores a clean
        // selection with a different k.
        t.reset(3);
        assert!(!t.is_full());
        for (pre, id) in [(4.0, 4), (2.0, 5), (8.0, 6), (3.0, 7)] {
            t.offer(pre, id);
        }
        let pairs: Vec<(f64, usize)> = t.sorted().iter().map(|c| (c.pre, c.id)).collect();
        assert_eq!(pairs, vec![(2.0, 5), (3.0, 7), (4.0, 4)]);
    }

    #[test]
    fn bound_tracks_the_kth_best() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f64::INFINITY);
        t.offer(5.0, 0);
        assert_eq!(t.bound(), f64::INFINITY);
        t.offer(1.0, 1);
        assert!(t.is_full());
        assert_eq!(t.bound(), 5.0);
        t.offer(2.0, 2);
        assert_eq!(t.bound(), 2.0);
        assert_eq!(TopK::new(0).bound(), f64::NEG_INFINITY);
    }
}
