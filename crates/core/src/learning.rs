//! The sampling-based learning process (paper §3.2).
//!
//! Before answering user queries, HOS-Miner randomly samples `S`
//! dataset points and runs the dynamic subspace search on each with
//! the fixed uniform priors. For every sample the search reports, per
//! lattice level `m`, the fraction of `m`-dimensional subspaces that
//! turned out outlying — that is `p_up(m, sp)`; its complement is
//! `p_down(m, sp)`. Averaging over samples (and fixing the boundary
//! conventions `p_down(1) = p_up(d) = 0`) yields the learned priors
//! used to order the lattice levels for real queries.
//!
//! Two points the paper leaves implicit, resolved here (and ablatable
//! in experiment E4):
//!
//! 1. **Which subspaces enter the fraction.** The paper initialises
//!    `p_up(m, sp) = p_down(m, sp) = 0.5` and updates a level "after
//!    all the m-dimensional subspaces have been evaluated for sp". We
//!    read this as: a level's fraction is computed over the subspaces
//!    the search actually *evaluated* there; a level the search
//!    disposed of purely by pruning keeps its initialised 0.5. (The
//!    alternative — exact fractions over whole levels, counting
//!    pruned dispositions — degenerates: random samples are almost
//!    all inliers whose exact fractions are identically zero, giving
//!    `p_up ≡ 0`, killing the TSF up-term and with it upward pruning
//!    for every future query. We implement both; the evaluated-only
//!    reading is the default.)
//! 2. **Smoothing.** Even evaluated-only fractions are noisy at small
//!    `S`, so the per-level averages are Laplace-smoothed toward the
//!    0.5 prior with pseudo-count `alpha` (default 1, from
//!    `HosMinerConfig::prior_smoothing`). `alpha = 0` gives the
//!    unsmoothed average.

use crate::error::HosError;
use crate::priors::Priors;
use crate::search::{dynamic_search, SearchStats};
use crate::Result;
use hos_index::batch::parallel_map;
use hos_index::{IndexError, KnnEngine};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// The outcome of the learning phase.
#[derive(Clone, Debug)]
pub struct LearnedModel {
    /// The averaged priors.
    pub priors: Priors,
    /// How many sample points were actually searched.
    pub samples: usize,
    /// The threshold the searches used.
    pub threshold: f64,
    /// Accumulated cost of the learning searches. `seconds` is the sum
    /// of the searches' own durations, not the wall time of a learning
    /// phase whose searches ran in parallel.
    pub total_stats: SearchStats,
}

/// How a sample's per-level outlier fraction is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FractionMode {
    /// Fractions over the subspaces the search *evaluated* at each
    /// level; untouched levels keep the initialised 0.5 (module docs,
    /// point 1). The default.
    #[default]
    EvaluatedOnly,
    /// The literal whole-level fraction, counting pruned dispositions
    /// (each level's exact share of outlying subspaces). Ablation
    /// E4 shows why this degrades outlier queries.
    WholeLevel,
}

/// Runs the learning process.
///
/// * `sample_size` — `S`; capped at the dataset size. `0` is allowed
///   and yields the uniform priors (useful as the "no learning"
///   ablation in experiment E4).
/// * `threshold` — the already-resolved global `T` (see
///   [`crate::ThresholdPolicy`]).
/// * `threads` — workers the sample searches are fanned over, one
///   search per worker at a time. Every search and the sample-order
///   fold are independent of it, so the priors keep every bit at any
///   thread count.
/// * `alpha` — Laplace smoothing pseudo-count toward the uniform
///   prior; `0` gives the unsmoothed average (see module docs).
/// * `mode` — see [`FractionMode`].
///
/// # Errors
/// [`HosError::Index`] with [`IndexError::InsufficientPoints`] when
/// `sample_size > 0` and fewer than `k` live points remain besides a
/// sample, so no sample could have a full `k`-neighbourhood.
#[allow(clippy::too_many_arguments)]
pub fn learn(
    engine: &dyn KnnEngine,
    k: usize,
    threshold: f64,
    sample_size: usize,
    seed: u64,
    threads: usize,
    alpha: f64,
    mode: FractionMode,
) -> Result<LearnedModel> {
    let ds = engine.dataset();
    let d = ds.dim();
    if d == 0 {
        return Err(HosError::Config("cannot learn on an empty dataset".into()));
    }
    if k == 0 {
        return Err(HosError::Config("k must be positive".into()));
    }
    if !(0.0..=1e6).contains(&alpha) {
        return Err(HosError::Config(format!(
            "smoothing alpha {alpha} out of range"
        )));
    }
    let uniform = Priors::uniform(d);
    if sample_size == 0 {
        return Ok(LearnedModel {
            priors: uniform,
            samples: 0,
            threshold,
            total_stats: SearchStats::default(),
        });
    }

    let available = ds.live_len().saturating_sub(1);
    if available < k {
        return Err(IndexError::InsufficientPoints { available, k }.into());
    }

    let mut ids: Vec<usize> = ds.live_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(sample_size);

    // Each sample search runs on one worker and depends only on its
    // point, so fanning the samples changes no outcome; the fold below
    // runs in sample order, so no sum changes either.
    let outcomes = parallel_map(&ids, threads, |&id| {
        dynamic_search(engine, ds.row(id), Some(id), k, threshold, &uniform, 1)
    });
    let mut sum_up = vec![0.0f64; d + 1];
    let mut total_stats = SearchStats::default();
    for out in &outcomes {
        match mode {
            FractionMode::EvaluatedOnly => {
                for (m, &(evaluated, outlying)) in out.level_eval_stats.iter().enumerate() {
                    // Untouched levels keep the initialised 0.5
                    // (module docs, point 1).
                    sum_up[m] += if evaluated > 0 {
                        outlying as f64 / evaluated as f64
                    } else {
                        0.5
                    };
                }
            }
            FractionMode::WholeLevel => {
                for (m, &f) in out.level_outlier_fraction.iter().enumerate() {
                    sum_up[m] += f;
                }
            }
        }
        total_stats.od_evals += out.stats.od_evals;
        total_stats.pruned_outlier += out.stats.pruned_outlier;
        total_stats.pruned_non_outlier += out.stats.pruned_non_outlier;
        total_stats.rounds += out.stats.rounds;
        total_stats.seconds += out.stats.seconds;
        total_stats.lattice_size = out.stats.lattice_size;
    }

    let s = ids.len() as f64;
    let p_up: Vec<f64> = sum_up
        .iter()
        .map(|v| (v + alpha * 0.5) / (s + alpha))
        .collect();
    let p_down: Vec<f64> = p_up.iter().map(|v| 1.0 - v).collect();
    let priors = Priors::from_values(p_up, p_down)?;

    Ok(LearnedModel {
        priors,
        samples: ids.len(),
        threshold,
        total_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::od::ThresholdPolicy;
    use hos_data::{Dataset, Metric};
    use hos_index::LinearScan;
    use rand::Rng;

    fn clustered_engine(seed: u64) -> LinearScan {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 4;
        let mut rows = Vec::new();
        for _ in 0..150 {
            rows.push(
                (0..d)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect::<Vec<f64>>(),
            );
        }
        // A few extreme points so some subspaces are outlying.
        rows.push(vec![10.0, 0.5, 0.5, 0.5]);
        rows.push(vec![0.5, 12.0, 0.5, 0.5]);
        LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2)
    }

    #[test]
    fn zero_samples_returns_uniform() {
        let e = clustered_engine(3);
        let m = learn(&e, 3, 1.0, 0, 0, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        assert_eq!(m.samples, 0);
        assert_eq!(m.priors, Priors::uniform(4));
        assert_eq!(m.total_stats.od_evals, 0);
    }

    #[test]
    fn learned_priors_are_valid_probabilities() {
        let e = clustered_engine(5);
        let m = learn(&e, 3, 2.0, 12, 7, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        assert_eq!(m.samples, 12);
        let d = 4;
        for lvl in 1..=d {
            let u = m.priors.up(lvl);
            let dn = m.priors.down(lvl);
            assert!((0.0..=1.0).contains(&u), "p_up({lvl}) = {u}");
            assert!((0.0..=1.0).contains(&dn), "p_down({lvl}) = {dn}");
        }
        // Paper boundary conventions survive the averaging.
        assert_eq!(m.priors.down(1), 0.0);
        assert_eq!(m.priors.up(d), 0.0);
        assert!(m.total_stats.od_evals > 0);
    }

    #[test]
    fn untouched_levels_keep_half_prior() {
        // A workload whose sample searches dispose of everything from
        // the full space alone (all inliers, high threshold): every
        // level except d is never evaluated, so the unsmoothed learned
        // p_up stays at the initialised 0.5.
        let e = clustered_engine(9);
        let m = learn(&e, 3, 1e12, 6, 3, 1, 0.0, FractionMode::EvaluatedOnly).unwrap();
        for lvl in 2..4 {
            assert!(
                (m.priors.up(lvl) - 0.5).abs() < 1e-12,
                "level {lvl}: {}",
                m.priors.up(lvl)
            );
        }
        // And the evaluated top level observed only sub-threshold ODs.
        assert_eq!(m.priors.up(4), 0.0);
    }

    #[test]
    fn smoothing_pulls_toward_half() {
        let e = clustered_engine(9);
        let raw = learn(&e, 3, 2.0, 10, 3, 1, 0.0, FractionMode::EvaluatedOnly).unwrap();
        let smooth = learn(&e, 3, 2.0, 10, 3, 1, 4.0, FractionMode::EvaluatedOnly).unwrap();
        for lvl in 1..4 {
            let r = raw.priors.up(lvl);
            let s = smooth.priors.up(lvl);
            assert!(
                (s - 0.5).abs() <= (r - 0.5).abs() + 1e-12,
                "level {lvl}: smoothed {s} farther from 0.5 than raw {r}"
            );
        }
        assert!(learn(&e, 3, 2.0, 4, 0, 1, -1.0, FractionMode::EvaluatedOnly).is_err());
    }

    #[test]
    fn sample_size_capped_at_dataset() {
        let e = clustered_engine(1);
        let m = learn(&e, 3, 2.0, 10_000, 0, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        assert_eq!(m.samples, e.dataset().len());
    }

    #[test]
    fn deterministic_per_seed() {
        let e = clustered_engine(2);
        let a = learn(&e, 3, 2.0, 8, 42, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        let b = learn(&e, 3, 2.0, 8, 42, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        assert_eq!(a.priors, b.priors);
        let c = learn(&e, 3, 2.0, 8, 43, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        // Different seed → different sample → (almost surely) different
        // priors; only check it does not crash and stays valid.
        assert_eq!(c.samples, 8);
    }

    #[test]
    fn validation() {
        let e = clustered_engine(2);
        assert!(learn(&e, 0, 2.0, 4, 0, 1, 1.0, FractionMode::EvaluatedOnly).is_err());
        let empty = LinearScan::new(Dataset::empty(), Metric::L2);
        assert!(learn(&empty, 3, 2.0, 4, 0, 1, 1.0, FractionMode::EvaluatedOnly).is_err());
    }

    #[test]
    fn learning_on_too_few_live_points_is_a_typed_error() {
        // Three live rows leave two neighbours per sample: no k = 3 or
        // k = 5 neighbourhood exists, so learning must refuse instead
        // of averaging fractions over short neighbourhoods.
        let rows = [
            vec![0.0, 0.0, 0.0],
            vec![1.0, 2.0, 0.5],
            vec![3.0, 0.5, 9.0],
        ];
        let e = LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2);
        for k in [3, 5] {
            let err = learn(&e, k, 1.0, 3, 0, 1, 1.0, FractionMode::EvaluatedOnly).unwrap_err();
            assert!(
                matches!(
                    err,
                    HosError::Index(IndexError::InsufficientPoints { available: 2, k: got })
                        if got == k
                ),
                "k = {k}: {err:?}"
            );
        }
        // k = 2 fits exactly, and S = 0 never searches.
        assert!(learn(&e, 2, 1.0, 3, 0, 1, 1.0, FractionMode::EvaluatedOnly).is_ok());
        assert_eq!(
            learn(&e, 5, 1.0, 0, 0, 1, 1.0, FractionMode::EvaluatedOnly)
                .unwrap()
                .samples,
            0
        );
        // Tombstones count: 6 rows with 4 retired leave 2 live.
        let mut ds = Dataset::from_rows(&[rows.to_vec(), rows.to_vec()].concat()).unwrap();
        for id in 0..4 {
            ds.remove_row(id).unwrap();
        }
        let e = LinearScan::new(ds.clone(), Metric::L2);
        assert!(matches!(
            learn(&e, 2, 1.0, 3, 0, 1, 1.0, FractionMode::EvaluatedOnly),
            Err(HosError::Index(IndexError::InsufficientPoints {
                available: 1,
                k: 2
            }))
        ));
        // The same data through a fit with a fixed threshold, which
        // resolves without looking at the data.
        let config = crate::miner::HosMinerConfig {
            k: 2,
            threshold: ThresholdPolicy::Fixed(1.0),
            sample_size: 3,
            ..Default::default()
        };
        assert!(matches!(
            crate::miner::HosMiner::fit(ds, config),
            Err(HosError::Index(IndexError::InsufficientPoints {
                available: 1,
                k: 2
            }))
        ));
    }

    #[test]
    fn learned_priors_bit_identical_across_thread_counts() {
        use hos_index::knn::build_engine;
        use hos_index::{Engine, KnnEngine};
        let ds = clustered_engine(21).dataset().clone();
        let engines: [(&str, Box<dyn KnnEngine>); 3] = [
            (
                "linear",
                build_engine(Engine::Linear, ds.clone(), Metric::L2, 1),
            ),
            (
                "xtree",
                build_engine(Engine::XTree, ds.clone(), Metric::L2, 1),
            ),
            ("linear x2", build_engine(Engine::Linear, ds, Metric::L2, 2)),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (name, e) in &engines {
            // S = 7 splits unevenly over 2, 3 and 4 workers.
            for samples in [20, 7] {
                for mode in [FractionMode::EvaluatedOnly, FractionMode::WholeLevel] {
                    let run = |threads| {
                        learn(e.as_ref(), 3, 0.6, samples, 9, threads, 1.0, mode).unwrap()
                    };
                    let base = run(1);
                    assert_eq!(base.samples, samples);
                    for threads in 2..=4 {
                        let m = run(threads);
                        let at = format!("{name} S={samples} {mode:?} threads={threads}");
                        assert_eq!(bits(m.priors.up_all()), bits(base.priors.up_all()), "{at}");
                        assert_eq!(
                            bits(m.priors.down_all()),
                            bits(base.priors.down_all()),
                            "{at}"
                        );
                        assert_eq!(m.samples, base.samples, "{at}");
                        let (a, b) = (m.total_stats, base.total_stats);
                        assert_eq!(a.od_evals, b.od_evals, "{at}");
                        assert_eq!(a.pruned_outlier, b.pruned_outlier, "{at}");
                        assert_eq!(a.pruned_non_outlier, b.pruned_non_outlier, "{at}");
                        assert_eq!(a.rounds, b.rounds, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn resolved_threshold_then_learn_pipeline() {
        let e = clustered_engine(11);
        let policy = ThresholdPolicy::FullSpaceQuantile { q: 0.9, sample: 50 };
        let t = policy.resolve(&e, 3, 5, 1).unwrap();
        let m = learn(&e, 3, t, 6, 5, 1, 1.0, FractionMode::EvaluatedOnly).unwrap();
        assert_eq!(m.threshold, t);
        assert!(m.threshold > 0.0);
        assert_eq!(m.samples, 6);
    }
}
