//! The dynamic subspace search (paper §3.3).
//!
//! The search walks the subspace lattice **level by level, in TSF
//! order**: each round it computes the Total Saving Factor of every
//! level that still has open subspaces, evaluates the OD of every
//! open subspace at the winning level, and applies the two pruning
//! closures after each evaluation:
//!
//! * `OD >= T` — the subspace joins the answer set and every strict
//!   superset is pruned *in* (Property 2);
//! * `OD < T` — every strict subset is pruned *out* (Property 1).
//!
//! The search terminates when the lattice is closed: every subspace is
//! evaluated or pruned. Unlike a fixed bottom-up or top-down sweep,
//! the TSF ordering adapts to where pruning is most likely to pay —
//! that adaptivity is the paper's core algorithmic idea, and the
//! learned priors are what feed it.

use crate::filter::minimal_subspaces;
use crate::priors::Priors;
use hos_data::{PointId, Subspace};
use hos_index::{Decision, KnnEngine, LazyContextEvaluator};
use hos_lattice::{Lattice, SubspaceState, TsfComputer};
use std::time::Instant;

/// One subspace in the answer set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredSubspace {
    /// The outlying subspace.
    pub subspace: Subspace,
    /// Its OD if it was evaluated directly; `None` when it entered the
    /// answer set through upward pruning (its OD is only known to be
    /// `>= T`).
    pub od: Option<f64>,
}

/// Search-cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Subspaces evaluated directly, as opposed to pruned: each was
    /// given its exact OD (a k-NN scan) or settled below `T` without
    /// one (`settled_evals`).
    pub od_evals: u64,
    /// ODs computed in a level batch but discarded because an earlier
    /// evaluation *in the same batch* had already disposed of the
    /// subspace by pruning. Every batched OD is either consumed
    /// (`od_evals`) or wasted, so `od_evals + wasted_evals` equals the
    /// total ODs the engine computed for the search. With the current
    /// same-level batching this stays 0 — Property 1/2 closures only
    /// touch *strictly* smaller/larger subspaces, which live on other
    /// levels — but the counter measures the waste the moment any
    /// batching scheme (cross-level, speculative) can introduce it.
    pub wasted_evals: u64,
    /// Evaluations decided below `T` without a scan, out of the
    /// `od_evals + wasted_evals` decisions the evaluator made: the `k`
    /// winners of the last node it computed already summed to less
    /// than `T` in the subspace, which bounds the OD from above
    /// (`hos_index::LazyContextEvaluator::decide_batch`; DESIGN.md §8).
    /// A settled evaluation is still counted in `od_evals` — the search
    /// disposes of it exactly as it would of its OD — but it folds no
    /// column, so the ODs the engine computed number
    /// `od_evals - settled_evals + wasted_evals`.
    pub settled_evals: u64,
    /// Subspaces pruned in as certain outliers (Property 2).
    pub pruned_outlier: u64,
    /// Subspaces pruned out as certain non-outliers (Property 1).
    pub pruned_non_outlier: u64,
    /// Lattice nodes entered by the prefix-stack kernel: one per
    /// `O(n)` column fold (`hos_index::PrefixStack::node_visits`,
    /// summed over row ranges for a range-split engine, where each
    /// fold streams `n / ranges` rows). The testable cost claim of the kernel: a
    /// direct per-subspace recombine would pay `Σ|s|` folds over the
    /// evaluated subspaces; walker-order traversal pays at most that,
    /// and exactly one fold per node on full-lattice walks. Stays 0 on
    /// engine paths that never build a distance cache.
    pub nodes_visited: u64,
    /// Search rounds (levels evaluated).
    pub rounds: u32,
    /// Total non-empty subspaces in the lattice (`2^d - 1`).
    pub lattice_size: u64,
    /// Wall-clock duration of the search in seconds.
    pub seconds: f64,
}

impl SearchStats {
    /// Fraction of the lattice that needed a direct OD evaluation.
    pub fn evaluated_fraction(&self) -> f64 {
        if self.lattice_size == 0 {
            0.0
        } else {
            self.od_evals as f64 / self.lattice_size as f64
        }
    }
}

/// Complete outcome of one dynamic search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Every outlying subspace (evaluated or pruned-in), ascending by
    /// mask for determinism.
    pub outlying: Vec<ScoredSubspace>,
    /// Cost accounting.
    pub stats: SearchStats,
    /// Per-level fraction of subspaces that were outlying (index =
    /// level, `0..=d`; level 0 is 0), counting pruned dispositions —
    /// the exact fraction over the whole level.
    pub level_outlier_fraction: Vec<f64>,
    /// Per-level `(directly evaluated, evaluated with OD >= T)`
    /// counts. The learning phase derives `p_up(m, sp)` from these:
    /// the paper updates a level's probability only once subspaces of
    /// that level have actually been *evaluated*; untouched levels
    /// keep their initialised prior.
    pub level_eval_stats: Vec<(u64, u64)>,
}

impl SearchOutcome {
    /// Just the outlying subspaces, no scores.
    pub fn subspaces(&self) -> Vec<Subspace> {
        self.outlying.iter().map(|s| s.subspace).collect()
    }

    /// The minimal outlying subspaces (paper §3.4), equal to
    /// [`minimal_subspaces`] over the whole answer set but computed
    /// from the directly evaluated outliers only: a pruned-in subspace
    /// is a strict superset of the evaluated outlier that pruned it
    /// in, so it is never minimal, and the evaluated outliers are a few
    /// dozen where the answer set can hold thousands.
    pub fn minimal(&self) -> Vec<Subspace> {
        let evaluated: Vec<Subspace> = self
            .outlying
            .iter()
            .filter(|s| s.od.is_some())
            .map(|s| s.subspace)
            .collect();
        minimal_subspaces(&evaluated)
    }

    /// Whether a particular subspace was found outlying.
    pub fn contains(&self, s: Subspace) -> bool {
        self.outlying.iter().any(|x| x.subspace == s)
    }
}

/// Runs the dynamic subspace search for one query point.
///
/// * `engine` — k-NN engine over the dataset.
/// * `query` — the query point's coordinates (arity = dataset dim).
/// * `exclude` — the query's own id when it is a dataset member.
/// * `k`, `threshold` — the OD parameters.
/// * `priors` — per-level pruning probabilities (uniform during
///   learning, learned for user queries).
/// * `threads` — workers for per-level OD batches; only an engine
///   split into row ranges uses more than one (it walks its ranges on
///   them), an unsplit one runs the batch serially.
///
/// # Panics
/// Panics if `priors.dim()` differs from the dataset dimensionality,
/// or `k == 0` (upheld by [`crate::miner::HosMiner`]'s validation).
pub fn dynamic_search(
    engine: &dyn KnnEngine,
    query: &[f64],
    exclude: Option<PointId>,
    k: usize,
    threshold: f64,
    priors: &Priors,
    threads: usize,
) -> SearchOutcome {
    search(
        engine, query, exclude, k, threshold, priors, threads, threshold,
    )
}

/// [`dynamic_search`], with the evaluator settling subspaces whose OD
/// it proves below `settle_below` without a scan (`threshold` for the
/// search itself; `-inf` computes every OD exactly, which the tests
/// compare against). Answers and dispositions do not depend on it.
#[allow(clippy::too_many_arguments)]
fn search(
    engine: &dyn KnnEngine,
    query: &[f64],
    exclude: Option<PointId>,
    k: usize,
    threshold: f64,
    priors: &Priors,
    threads: usize,
    settle_below: f64,
) -> SearchOutcome {
    let d = engine.dataset().dim();
    assert!(k > 0, "k must be positive");
    assert_eq!(priors.dim(), d, "priors dimensionality mismatch");
    assert_eq!(query.len(), d, "query arity mismatch");
    let start = Instant::now();

    let mut lattice = Lattice::new(d);
    let tsf = TsfComputer::new(d);
    let mut evaluated_outliers: Vec<ScoredSubspace> = Vec::new();
    let mut level_eval_stats = vec![(0u64, 0u64); d + 1];
    let mut rounds = 0u32;
    let mut wasted_evals = 0u64;
    let mut settled_evals = 0u64;

    // One OD evaluator for the whole search: it owns the per-query
    // distance caches, built on the first batch (engines without a
    // cache just answer queries directly; a range-split engine walks
    // each batch over its ranges). See `hos_index::evaluator`.
    let mut evaluator = LazyContextEvaluator::new(engine, query, k, exclude);

    while !lattice.is_complete() {
        // Pick the open level with the highest TSF; ties break toward
        // the lower level (cheaper OD evaluations, matching the
        // paper's preference for starting low when indifferent).
        let m = (1..=d)
            .filter(|&m| lattice.remaining_at(m) > 0)
            .max_by(|&a, &b| {
                let ta = tsf.tsf(a, priors.up(a), priors.down(a), &lattice);
                let tb = tsf.tsf(b, priors.up(b), priors.down(b), &lattice);
                ta.partial_cmp(&tb)
                    .expect("finite TSF")
                    .then_with(|| b.cmp(&a))
            })
            .expect("lattice not complete implies an open level");

        // Walker-order enumeration: the level batch arrives at the
        // evaluator already in prefix-trie DFS order, so the
        // prefix-stack kernel shares accumulators across consecutive
        // subspaces (and across rounds — the evaluator's stack
        // persists between batches).
        let open = lattice.open_at_level_walk(m);
        debug_assert!(!open.is_empty());
        // A below-`T` OD is only ever compared with `T`, so the
        // evaluator may settle it from the last winners without a scan.
        let decisions = evaluator.decide_batch(&open, settle_below, threads);
        for (&s, &decision) in open.iter().zip(&decisions) {
            settled_evals += u64::from(decision == Decision::Below);
            // A subspace may have been pruned by an earlier evaluation
            // in this same batch — its OD was computed wastefully but
            // its disposal must not change. `wasted_evals` measures
            // exactly this batch overshoot.
            if lattice.state(s) != SubspaceState::Unevaluated {
                wasted_evals += 1;
                continue;
            }
            lattice.mark_evaluated(s);
            level_eval_stats[m].0 += 1;
            match decision {
                Decision::Od(od) if od >= threshold => {
                    level_eval_stats[m].1 += 1;
                    evaluated_outliers.push(ScoredSubspace {
                        subspace: s,
                        od: Some(od),
                    });
                    lattice.prune_up(s);
                }
                _ => {
                    lattice.prune_down(s);
                }
            }
        }
        rounds += 1;
    }

    // Assemble the answer set in mask order, one pass over the
    // lattice: everything pruned in by Property 2, merged with the few
    // directly evaluated outliers (sorted first; there are far fewer).
    evaluated_outliers.sort_unstable_by_key(|s| s.subspace.mask());
    let counters = lattice.counters();
    let mut outlying =
        Vec::with_capacity(evaluated_outliers.len() + counters.pruned_outlier as usize);
    let mut evaluated = evaluated_outliers.into_iter().peekable();
    for mask in 1..=Subspace::lattice_size(d) {
        let s = Subspace::from_mask(mask);
        if lattice.state(s) == SubspaceState::PrunedOutlier {
            outlying.push(ScoredSubspace {
                subspace: s,
                od: None,
            });
        } else if let Some(e) = evaluated.next_if(|e| e.subspace == s) {
            outlying.push(e);
        }
    }
    debug_assert!(evaluated.next().is_none(), "every evaluated outlier merged");

    // Per-level outlier fractions for the learning phase.
    let mut outlier_count = vec![0u64; d + 1];
    for s in &outlying {
        outlier_count[s.subspace.dim()] += 1;
    }
    let level_outlier_fraction: Vec<f64> = (0..=d)
        .map(|m| {
            if m == 0 {
                0.0
            } else {
                let total = hos_lattice::binomial(d, m);
                outlier_count[m] as f64 / total
            }
        })
        .collect();

    let stats = SearchStats {
        od_evals: counters.evaluated,
        wasted_evals,
        settled_evals,
        pruned_outlier: counters.pruned_outlier,
        pruned_non_outlier: counters.pruned_non_outlier,
        nodes_visited: evaluator.node_visits(),
        rounds,
        lattice_size: Subspace::lattice_size(d),
        seconds: start.elapsed().as_secs_f64(),
    };

    SearchOutcome {
        outlying,
        stats,
        level_outlier_fraction,
        level_eval_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::{Dataset, Metric};
    use hos_index::LinearScan;

    /// A dataset where point 0 is an extreme outlier along dim 0 only.
    fn axis_outlier_engine() -> LinearScan {
        let mut rows = vec![vec![100.0, 0.5, 0.5]];
        for i in 0..60 {
            rows.push(vec![
                (i % 10) as f64 * 0.01,
                (i % 7) as f64 * 0.01,
                (i % 5) as f64 * 0.01,
            ]);
        }
        LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2)
    }

    fn exhaustive_reference(
        engine: &dyn KnnEngine,
        query: &[f64],
        exclude: Option<PointId>,
        k: usize,
        t: f64,
    ) -> Vec<Subspace> {
        Subspace::all_nonempty(engine.dataset().dim())
            .filter(|&s| engine.od(query, k, s, exclude) >= t)
            .collect()
    }

    #[test]
    fn finds_exactly_the_exhaustive_answer() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let t = 10.0;
        let out = dynamic_search(&e, &q, Some(0), 4, t, &priors, 1);
        let mut got = out.subspaces();
        got.sort_by_key(|s| s.mask());
        let mut expected = exhaustive_reference(&e, &q, Some(0), 4, t);
        expected.sort_by_key(|s| s.mask());
        assert_eq!(got, expected);
        // Every subspace containing dim 0 must be outlying; none other.
        for s in &got {
            assert!(s.contains_dim(0));
        }
        assert_eq!(got.len(), 4); // {0},{0,1},{0,2},{0,1,2}
    }

    #[test]
    fn inlier_point_has_empty_answer() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(5).to_vec();
        let priors = Priors::uniform(3);
        let out = dynamic_search(&e, &q, Some(5), 4, 10.0, &priors, 1);
        assert!(out.outlying.is_empty());
        // The whole lattice must still be disposed of.
        let s = &out.stats;
        assert_eq!(
            s.od_evals + s.pruned_outlier + s.pruned_non_outlier,
            s.lattice_size
        );
    }

    #[test]
    fn accounting_adds_up() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        let s = &out.stats;
        assert_eq!(s.lattice_size, 7);
        assert_eq!(
            s.od_evals + s.pruned_outlier + s.pruned_non_outlier,
            s.lattice_size
        );
        assert!(s.rounds >= 1);
        assert!(s.seconds >= 0.0);
        assert!(s.evaluated_fraction() <= 1.0);
    }

    #[test]
    fn pruning_saves_evaluations_for_extreme_points() {
        // For a point outlying in a single dimension, upward pruning
        // from level 1 should spare most of the lattice.
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        assert!(
            out.stats.od_evals < out.stats.lattice_size,
            "no savings at all: {:?}",
            out.stats
        );
        assert!(out.stats.pruned_outlier > 0);
    }

    #[test]
    fn scored_subspaces_report_od_when_evaluated() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        // At least one answer member must carry a concrete OD >= T, and
        // every concrete OD must meet the threshold.
        assert!(out.outlying.iter().any(|s| s.od.is_some()));
        for s in &out.outlying {
            if let Some(od) = s.od {
                assert!(od >= 10.0);
            }
        }
        assert!(out.contains(Subspace::from_dims(&[0])));
        assert!(!out.contains(Subspace::from_dims(&[1])));
    }

    #[test]
    fn level_fractions_match_answer_set() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        // d=3: levels hold 3, 3, 1 subspaces; the answer set is the 4
        // supersets of {0}: one of 3 at level 1, two of 3 at level 2,
        // one of 1 at level 3.
        let f = &out.level_outlier_fraction;
        assert_eq!(f.len(), 4);
        assert!((f[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((f[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((f[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wasted_evals_accounting_matches_engine_work() {
        // Every decision the evaluator made for the search is either
        // consumed (`od_evals`) or wasted (`wasted_evals`), and a
        // settled one (`settled_evals`) scanned nothing. Derive the
        // scans actually run from the engine's distance-eval counter —
        // each scan over the n-point dataset with self-exclusion
        // touches exactly n-1 points, and pricing a settled node's
        // seeds touches none — and pin the identity
        // od_evals - settled_evals + wasted_evals == scans.
        let mut settled = 0;
        for threads in [1, 4] {
            for (qid, t) in [(0, 10.0), (5, 10.0), (0, 1e9)] {
                let e = axis_outlier_engine();
                let n = e.dataset().len() as u64;
                let q: Vec<f64> = e.dataset().row(qid).to_vec();
                let before = e.distance_evals();
                let out = dynamic_search(&e, &q, Some(qid), 4, t, &Priors::uniform(3), threads);
                let scans = (e.distance_evals() - before) / (n - 1);
                let s = &out.stats;
                let at = format!("threads={threads} point {qid} T={t}");
                assert!(s.settled_evals <= s.od_evals + s.wasted_evals, "{at}");
                assert_eq!(s.od_evals - s.settled_evals + s.wasted_evals, scans, "{at}");
                // Same-level batching cannot overshoot: the Property 1/2
                // closures only dispose of *strictly* smaller/larger
                // subspaces, which live on other levels.
                assert_eq!(s.wasted_evals, 0, "{at}");
                settled += s.settled_evals;
            }
        }
        assert!(settled > 0, "the identity was checked with settled nodes");
    }

    #[test]
    fn displaced_point_settles_most_below_threshold_evaluations() {
        // A member row pushed far out in one dimension, as the served
        // deep-search queries are: most of its lattice is below `T`,
        // and the winners of the last computed node settle most of
        // those evaluations without a fold. Against the same search
        // with every OD computed (`od_batch`'s walk over the same
        // batches), answers and dispositions are identical, and the
        // kernel folds fewer columns.
        use crate::od::ThresholdPolicy;
        use hos_data::synth::planted::{generate, PlantedSpec};
        let (n, d, k) = (2000, 8, 5);
        let planted = generate(&PlantedSpec {
            n_background: n,
            d,
            targets: vec![Subspace::from_dims(&[1, 2])],
            seed: 7,
            ..PlantedSpec::default()
        })
        .unwrap();
        let e = LinearScan::new(planted.dataset, Metric::L2);
        let t = ThresholdPolicy::default().resolve(&e, k, 7, 1).unwrap();
        let mut q = e.dataset().row(3).to_vec();
        q[4] += 200.0;
        let priors = Priors::uniform(d);
        let settled = search(&e, &q, None, k, t, &priors, 1, t);
        let exact = search(&e, &q, None, k, t, &priors, 1, f64::NEG_INFINITY);
        let mut same = fingerprint(&settled);
        same.1 = SearchStats {
            settled_evals: 0,
            nodes_visited: 0,
            ..same.1
        };
        let mut reference = fingerprint(&exact);
        reference.1.nodes_visited = 0;
        assert_eq!(same, reference, "settling changed the search");
        assert_eq!(exact.stats.settled_evals, 0);

        let s = &settled.stats;
        let outlying_evals: u64 = settled.level_eval_stats.iter().map(|e| e.1).sum();
        let below = s.od_evals - outlying_evals;
        assert!(!settled.outlying.is_empty(), "the point is outlying");
        assert!(
            2 * s.settled_evals > below,
            "{} of {below} below-T evaluations settled",
            s.settled_evals
        );
        assert!(
            s.nodes_visited < exact.stats.nodes_visited,
            "{} folds settling vs {} computing every OD",
            s.nodes_visited,
            exact.stats.nodes_visited
        );
    }

    #[test]
    fn nodes_visited_bounded_by_direct_recombine_cost() {
        // The prefix-stack cost claim at search level: the kernel's
        // column folds never exceed what the direct per-subspace
        // recombine would pay (Σ|s| over every batched subspace), and
        // every search over a caching engine reports a non-zero
        // counter — the cache is built on the first batch.
        let mut rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                vec![
                    (i % 9) as f64 * 0.3,
                    (i % 7) as f64 * 0.3,
                    (i % 5) as f64 * 0.3,
                    (i % 4) as f64 * 0.3,
                    (i % 3) as f64 * 0.3,
                ]
            })
            .collect();
        rows.push(vec![50.0, 0.3, 0.3, 0.3, 0.3]);
        let e = LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2);
        let q: Vec<f64> = e.dataset().row(80).to_vec();
        for threads in [1, 3] {
            let out = dynamic_search(&e, &q, Some(80), 4, 1e-6, &Priors::uniform(5), threads);
            // Threshold ~0: everything is outlying, level 1 prunes the
            // rest in — a shallow search, still walked from the cache.
            let s = &out.stats;
            assert!(s.nodes_visited > 0, "threads={threads}");
            assert!(
                s.nodes_visited <= s.lattice_size * 5,
                "threads={threads}: {} folds for a d=5 lattice",
                s.nodes_visited
            );
        }
        // A genuinely deep search (high threshold, everything below T:
        // downward pruning from the top level) that walks many
        // subspaces reports its folds, and they are bounded by the
        // evaluated dimensionality.
        let inlier: Vec<f64> = e.dataset().row(5).to_vec();
        let out = dynamic_search(&e, &inlier, Some(5), 4, 1e9, &Priors::uniform(5), 1);
        let s = &out.stats;
        assert!(s.nodes_visited <= s.od_evals * 5 + 2 * 5);
    }

    #[test]
    fn threshold_monotone_in_answer_size() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let lo = dynamic_search(&e, &q, Some(0), 4, 0.5, &priors, 1);
        let hi = dynamic_search(&e, &q, Some(0), 4, 50.0, &priors, 1);
        assert!(lo.outlying.len() >= hi.outlying.len());
        // Everything outlying at the high threshold is outlying at the low one.
        for s in &hi.outlying {
            assert!(lo.contains(s.subspace));
        }
    }

    #[test]
    fn parallel_threads_agree_with_serial() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let a = dynamic_search(&e, &q, Some(0), 4, 10.0, &priors, 1);
        let b = dynamic_search(&e, &q, Some(0), 4, 10.0, &priors, 4);
        assert_eq!(a.subspaces(), b.subspaces());
    }

    #[test]
    fn single_dimension_dataset() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![50.0]]).unwrap();
        let e = LinearScan::new(ds, Metric::L2);
        let out = dynamic_search(&e, &[50.0], Some(3), 2, 10.0, &Priors::uniform(1), 1);
        assert_eq!(out.subspaces(), vec![Subspace::from_dims(&[0])]);
    }

    /// Everything a search reports except its wall time, with every
    /// float as bits.
    type Fingerprint = (
        Vec<(Subspace, Option<u64>)>,
        SearchStats,
        Vec<u64>,
        Vec<(u64, u64)>,
    );

    fn fingerprint(out: &SearchOutcome) -> Fingerprint {
        (
            out.outlying
                .iter()
                .map(|s| (s.subspace, s.od.map(f64::to_bits)))
                .collect(),
            SearchStats {
                seconds: 0.0,
                ..out.stats
            },
            out.level_outlier_fraction
                .iter()
                .map(|f| f.to_bits())
                .collect(),
            out.level_eval_stats.clone(),
        )
    }

    #[test]
    fn reused_scratch_never_leaks_between_searches() {
        // Back-to-back searches on one thread reuse its spare context
        // and prefix-stack buffers. Each search below must report
        // exactly what the same search reports when it runs first on a
        // fresh thread, whose spare slot is empty — through growth,
        // tombstones and a second engine of another shape.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const K: usize = 4;
        fn engine(n: usize, d: usize, seed: u64) -> LinearScan {
            let mut rng = StdRng::seed_from_u64(seed);
            let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(0.0..10.0)).collect();
            LinearScan::new(Dataset::from_flat(flat, d).unwrap(), Metric::L2)
        }
        fn grow(e: &mut LinearScan) {
            for i in 0..30 {
                let row: Vec<f64> = (0..5).map(|j| ((i * 7 + j * 3) % 11) as f64).collect();
                e.insert(&row).unwrap();
            }
        }
        fn retire(e: &mut LinearScan) {
            for id in [0, 9, 100, 239, 250] {
                e.remove(id).unwrap();
            }
        }
        /// The engine after `step` of the mutation sequence.
        fn state(step: usize) -> LinearScan {
            if step == 3 {
                return engine(170, 6, 2);
            }
            let mut e = engine(240, 5, 1);
            if step >= 1 {
                grow(&mut e);
            }
            if step >= 2 {
                retire(&mut e);
            }
            e
        }
        /// One displaced point and one member.
        fn search(e: &LinearScan, member: PointId) -> [Fingerprint; 2] {
            let d = e.dataset().dim();
            let mut displaced = e.dataset().row(member).to_vec();
            displaced[1] += 60.0;
            let priors = Priors::uniform(d);
            let t = 0.6 * e.od(&displaced, K, Subspace::full(d), None);
            [
                dynamic_search(e, &displaced, None, K, t, &priors, 1),
                dynamic_search(e, e.dataset().row(member), Some(member), K, t, &priors, 1),
            ]
            .map(|out| fingerprint(&out))
        }
        const MEMBER: [PointId; 4] = [3, 260, 261, 5];

        let reused = std::thread::spawn(|| {
            let mut e = state(0);
            let mut got = vec![search(&e, MEMBER[0])];
            grow(&mut e);
            got.push(search(&e, MEMBER[1]));
            retire(&mut e);
            got.push(search(&e, MEMBER[2]));
            got.push(search(&state(3), MEMBER[3]));
            got
        })
        .join()
        .unwrap();

        for (step, got) in reused.iter().enumerate() {
            let fresh = std::thread::spawn(move || search(&state(step), MEMBER[step]))
                .join()
                .unwrap();
            assert_eq!(got, &fresh, "step {step}");
            assert!(
                fresh.iter().all(|f| f.1.nodes_visited > 0),
                "step {step} ran on the cached walker"
            );
        }
        assert!(
            !reused[0][0].0.is_empty(),
            "the displaced point is outlying"
        );
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let e = axis_outlier_engine();
        let q = vec![0.0; 3];
        let _ = dynamic_search(&e, &q, None, 0, 1.0, &Priors::uniform(3), 1);
    }

    #[test]
    #[should_panic]
    fn wrong_priors_dim_panics() {
        let e = axis_outlier_engine();
        let q = vec![0.0; 3];
        let _ = dynamic_search(&e, &q, None, 3, 1.0, &Priors::uniform(5), 1);
    }
}
