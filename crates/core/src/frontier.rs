//! Frontier search: minimal outlying subspaces without a materialised
//! lattice.
//!
//! The dynamic search (paper §3.3) keeps a state byte for all `2^d - 1`
//! subspaces, which caps it at `d ≤ 26`. This module provides the
//! natural extension for genuinely high-dimensional data: a bottom-up,
//! Apriori-style levelwise search over only the *open frontier*:
//!
//! * level 1 evaluates all `d` single dimensions;
//! * a subspace with `OD ≥ T` is a **minimal outlying subspace** by
//!   construction (every proper subset was evaluated below `T` at an
//!   earlier level) and is never extended;
//! * candidates at level `m + 1` are joins of non-outlying level-`m`
//!   subspaces sharing an `(m-1)`-prefix, kept only if **all** their
//!   `m`-subsets are known non-outlying (the Apriori condition — valid
//!   here because OD is monotone, so a candidate with an outlying
//!   subset cannot be minimal);
//! * an initial full-space OD check settles inlier queries with a
//!   single evaluation (monotonicity: the full space carries the
//!   maximum OD).
//!
//! Exactness caveat, stated plainly: the boundary between outlying and
//! non-outlying regions of the lattice can be exponentially wide, so a
//! complete search cannot be polynomial. `max_dim` bounds the explored
//! dimensionality — the same pragmatic restriction the authors adopt
//! in their follow-up work on outlying-subspace detection — and the
//! result is exactly the set of minimal outlying subspaces of
//! dimensionality `≤ max_dim`. With `max_dim = d` the result equals
//! the filtered answer of the exhaustive/dynamic searches.

use crate::search::SearchStats;
use hos_data::{PointId, Subspace};
use hos_index::{Decision, KnnEngine, LazyContextEvaluator};
use std::collections::HashSet;
use std::time::Instant;

/// Outcome of a frontier search.
#[derive(Clone, Debug)]
pub struct FrontierOutcome {
    /// Minimal outlying subspaces of dimensionality `<= max_dim`,
    /// sorted by (dimensionality, mask).
    pub minimal: Vec<Subspace>,
    /// Whether the search is exhaustive: true when `max_dim >= d` or
    /// the frontier emptied before reaching `max_dim` (no deeper
    /// minimal subspace can exist).
    pub complete: bool,
    /// Cost accounting (only `od_evals`, `settled_evals`,
    /// `nodes_visited`, `rounds` and `seconds` are meaningful; the
    /// lattice is never materialised).
    pub stats: SearchStats,
}

/// Runs the frontier search.
///
/// # Panics
/// Panics if `k == 0`, the query arity mismatches, or `max_dim == 0`.
pub fn frontier_search(
    engine: &dyn KnnEngine,
    query: &[f64],
    exclude: Option<PointId>,
    k: usize,
    threshold: f64,
    max_dim: usize,
    threads: usize,
) -> FrontierOutcome {
    let d = engine.dataset().dim();
    assert!(k > 0, "k must be positive");
    assert!(max_dim >= 1, "max_dim must be positive");
    assert_eq!(query.len(), d, "query arity mismatch");
    let start = Instant::now();
    let max_dim = max_dim.min(d);

    let mut evals = 0u64;
    let mut settled = 0u64;
    let mut rounds = 0u32;
    let mut minimal: Vec<Subspace> = Vec::new();

    // One OD evaluator for the whole search: the per-query cache lives
    // in `hos_index::LazyContextEvaluator`, shared with
    // `dynamic_search`.
    let mut evaluator = LazyContextEvaluator::new(engine, query, k, exclude);

    // Inlier fast path: the full space has the maximum OD. (The first
    // decision has no earlier winners to settle it from.)
    let full = Subspace::full(d);
    let full_outlying =
        evaluator.decide_batch(&[full], threshold, threads)[0].is_outlying(threshold);
    evals += 1;
    if !full_outlying {
        return FrontierOutcome {
            minimal,
            complete: true,
            stats: SearchStats {
                od_evals: evals,
                rounds: 1,
                seconds: start.elapsed().as_secs_f64(),
                lattice_size: Subspace::lattice_size(d),
                ..SearchStats::default()
            },
        };
    }

    // Level 1 (singles ascending — already walker order).
    let mut open: Vec<Subspace> = (0..d).map(Subspace::single).collect();
    let mut level = 1usize;
    let exhausted_frontier;
    loop {
        rounds += 1;
        let decisions = evaluator.decide_batch(&open, threshold, threads);
        evals += open.len() as u64;
        let mut survivors: Vec<Subspace> = Vec::new();
        for (&s, &decision) in open.iter().zip(&decisions) {
            settled += u64::from(decision == Decision::Below);
            if decision.is_outlying(threshold) {
                minimal.push(s);
            } else {
                survivors.push(s);
            }
        }
        if level >= max_dim {
            // Frontier exhausted only if nothing was left to extend.
            exhausted_frontier = survivors.is_empty();
            break;
        }
        if survivors.is_empty() {
            exhausted_frontier = true;
            break;
        }
        // Apriori join: survivors share masks sorted ascending; two
        // subspaces join if they differ only in their highest bit.
        let survivor_set: HashSet<u64> = survivors.iter().map(|s| s.mask()).collect();
        let mut next: Vec<Subspace> = Vec::new();
        for i in 0..survivors.len() {
            for j in i + 1..survivors.len() {
                let a = survivors[i].mask();
                let b = survivors[j].mask();
                let a_top = 63 - a.leading_zeros();
                let b_top = 63 - b.leading_zeros();
                // Same (m-1)-prefix = equal after clearing the top bit.
                if a & !(1 << a_top) != b & !(1 << b_top) {
                    continue;
                }
                let cand = Subspace::from_mask(a | b);
                // Apriori condition: every m-subset must be a survivor.
                let all_open = cand
                    .dims()
                    .all(|dim| survivor_set.contains(&cand.without_dim(dim).mask()));
                if all_open {
                    next.push(cand);
                }
            }
        }
        if next.is_empty() {
            exhausted_frontier = true;
            break;
        }
        // Walker order (prefix-trie DFS): consecutive candidates share
        // ascending-dim prefixes, so the evaluator's prefix-stack
        // kernel pays O(n) per candidate. Equal masks compare equal
        // under walk_cmp, so dedup still sees duplicates adjacent.
        next.sort_by(|a, b| a.walk_cmp(*b));
        next.dedup();
        open = next;
        level += 1;
    }

    minimal.sort_by_key(|s| (s.dim(), s.mask()));
    FrontierOutcome {
        complete: max_dim >= d || exhausted_frontier,
        minimal,
        stats: SearchStats {
            od_evals: evals,
            settled_evals: settled,
            nodes_visited: evaluator.node_visits(),
            rounds,
            seconds: start.elapsed().as_secs_f64(),
            lattice_size: Subspace::lattice_size(d),
            ..SearchStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::minimal_subspaces;
    use crate::priors::Priors;
    use crate::search::dynamic_search;
    use hos_data::{Dataset, Metric};
    use hos_index::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(seed: u64, n: usize, d: usize) -> LinearScan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        rows.push((0..d).map(|i| if i == 0 { 9.0 } else { 0.5 }).collect());
        rows.push(
            (0..d)
                .map(|i| if i == 1 || i == 2 { 4.0 } else { 0.4 })
                .collect(),
        );
        LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2)
    }

    #[test]
    fn matches_dynamic_search_minimal_frontier() {
        let d = 6;
        let e = engine(3, 120, d);
        let n = e.dataset().len();
        for qid in [n - 2, n - 1, 0, 5] {
            let q: Vec<f64> = e.dataset().row(qid).to_vec();
            for t in [1.5, 3.0, 8.0] {
                let frontier = frontier_search(&e, &q, Some(qid), 4, t, d, 1);
                assert!(frontier.complete);
                let dynamic = dynamic_search(&e, &q, Some(qid), 4, t, &Priors::uniform(d), 1);
                let expected = minimal_subspaces(&dynamic.subspaces());
                assert_eq!(frontier.minimal, expected, "point {qid} T {t}");
            }
        }
    }

    #[test]
    fn inlier_fast_path_costs_one_evaluation() {
        let e = engine(5, 100, 5);
        let q: Vec<f64> = e.dataset().row(10).to_vec();
        let out = frontier_search(&e, &q, Some(10), 4, 1e9, 5, 1);
        assert!(out.minimal.is_empty());
        assert!(out.complete);
        assert_eq!(out.stats.od_evals, 1);
    }

    #[test]
    fn works_beyond_the_lattice_limit() {
        // d = 40 would need a 2^40-byte lattice; the frontier search
        // handles it directly.
        let d = 40;
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut outlier: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
        outlier[7] = 30.0;
        outlier[23] = 30.0;
        rows.push(outlier);
        let e = LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2);
        let q: Vec<f64> = e.dataset().row(300).to_vec();
        let out = frontier_search(&e, &q, Some(300), 4, 20.0, 2, 1);
        assert_eq!(
            out.minimal,
            vec![Subspace::from_dims(&[7]), Subspace::from_dims(&[23])]
        );
        // Exact cost accounting: 1 full-space check + 40 singles +
        // C(38,2) pairs over the surviving dimensions.
        assert_eq!(out.stats.od_evals, 1 + 40 + 38 * 37 / 2);
    }

    #[test]
    fn max_dim_truncation_is_reported() {
        // A point whose only minimal outlying subspace is 3-d: with
        // max_dim = 2 the search must return nothing and admit
        // incompleteness.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let a = rng.gen_range(0.0..1.0);
            let b = rng.gen_range(0.0..1.0);
            // c tracks a+b: only the triple breaks.
            let c = (a + b) / 2.0 + rng.gen_range(-0.02..0.02);
            rows.push(vec![a, b, c, rng.gen_range(0.0..1.0)]);
        }
        rows.push(vec![0.2, 0.2, 0.95, 0.5]);
        let e = LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2);
        let q: Vec<f64> = e.dataset().row(200).to_vec();
        // Find a threshold separating the triple from all pairs.
        let triple = Subspace::from_dims(&[0, 1, 2]);
        let od3 = e.od(&q, 4, triple, Some(200));
        let worst_pair = Subspace::all_of_dim(4, 2)
            .map(|s| e.od(&q, 4, s, Some(200)))
            .fold(0.0f64, f64::max);
        let t = (od3 + worst_pair) / 2.0;
        assert!(od3 > worst_pair, "workload does not isolate the triple");

        let capped = frontier_search(&e, &q, Some(200), 4, t, 2, 1);
        assert!(capped.minimal.is_empty());
        assert!(!capped.complete);
        let full = frontier_search(&e, &q, Some(200), 4, t, 4, 1);
        assert!(full.complete);
        assert!(full.minimal.contains(&triple), "{:?}", full.minimal);
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let e = engine(13, 150, 7);
        let q: Vec<f64> = e.dataset().row(150).to_vec();
        let a = frontier_search(&e, &q, Some(150), 4, 3.0, 7, 1);
        let b = frontier_search(&e, &q, Some(150), 4, 3.0, 7, 4);
        assert_eq!(a.minimal, b.minimal);
    }

    #[test]
    #[should_panic]
    fn zero_max_dim_panics() {
        let e = engine(1, 20, 3);
        let q = vec![0.5; 3];
        let _ = frontier_search(&e, &q, None, 2, 1.0, 0, 1);
    }
}
