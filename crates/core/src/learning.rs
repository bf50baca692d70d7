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
//!    0.5 prior with pseudo-count `alpha` (default 1). `alpha = 0`
//!    gives the unsmoothed average.

use crate::priors::Priors;
use crate::search::{dynamic_search, SearchStats};
use crate::Result;
use crate::{error::HosError, od::ThresholdPolicy};
use hos_index::KnnEngine;
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
    /// Accumulated cost of the learning searches.
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

/// Runs the learning process with the default smoothing
/// (`alpha = 1`). See [`learn_with_smoothing`].
pub fn learn(
    engine: &dyn KnnEngine,
    k: usize,
    threshold: f64,
    sample_size: usize,
    seed: u64,
    threads: usize,
) -> Result<LearnedModel> {
    learn_with_smoothing(engine, k, threshold, sample_size, seed, threads, 1.0)
}

/// Runs the learning process with explicit smoothing. See
/// [`learn_full`].
pub fn learn_with_smoothing(
    engine: &dyn KnnEngine,
    k: usize,
    threshold: f64,
    sample_size: usize,
    seed: u64,
    threads: usize,
    alpha: f64,
) -> Result<LearnedModel> {
    learn_full(
        engine,
        k,
        threshold,
        sample_size,
        seed,
        threads,
        alpha,
        FractionMode::EvaluatedOnly,
    )
}

/// Runs the learning process.
///
/// * `sample_size` — `S`; capped at the dataset size. `0` is allowed
///   and yields the uniform priors (useful as the "no learning"
///   ablation in experiment E4).
/// * `threshold` — the already-resolved global `T` (see
///   [`ThresholdPolicy`]).
/// * `alpha` — Laplace smoothing pseudo-count toward the uniform
///   prior; `0` gives the unsmoothed average (see module docs).
/// * `mode` — see [`FractionMode`].
#[allow(clippy::too_many_arguments)]
pub fn learn_full(
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

    let mut ids: Vec<usize> = ds.live_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(sample_size);

    let mut sum_up = vec![0.0f64; d + 1];
    let mut total_stats = SearchStats::default();
    for &id in &ids {
        let row: Vec<f64> = ds.row(id).to_vec();
        let out = dynamic_search(engine, &row, Some(id), k, threshold, &uniform, threads);
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

/// Convenience: resolve a threshold policy and learn in one step.
pub fn resolve_and_learn(
    engine: &dyn KnnEngine,
    k: usize,
    policy: ThresholdPolicy,
    sample_size: usize,
    seed: u64,
    threads: usize,
) -> Result<LearnedModel> {
    let t = policy.resolve(engine, k, seed, threads)?;
    learn(engine, k, t, sample_size, seed, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let m = learn(&e, 3, 1.0, 0, 0, 1).unwrap();
        assert_eq!(m.samples, 0);
        assert_eq!(m.priors, Priors::uniform(4));
        assert_eq!(m.total_stats.od_evals, 0);
    }

    #[test]
    fn learned_priors_are_valid_probabilities() {
        let e = clustered_engine(5);
        let m = learn(&e, 3, 2.0, 12, 7, 1).unwrap();
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
        let m = learn_with_smoothing(&e, 3, 1e12, 6, 3, 1, 0.0).unwrap();
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
        let raw = learn_with_smoothing(&e, 3, 2.0, 10, 3, 1, 0.0).unwrap();
        let smooth = learn_with_smoothing(&e, 3, 2.0, 10, 3, 1, 4.0).unwrap();
        for lvl in 1..4 {
            let r = raw.priors.up(lvl);
            let s = smooth.priors.up(lvl);
            assert!(
                (s - 0.5).abs() <= (r - 0.5).abs() + 1e-12,
                "level {lvl}: smoothed {s} farther from 0.5 than raw {r}"
            );
        }
        assert!(learn_with_smoothing(&e, 3, 2.0, 4, 0, 1, -1.0).is_err());
    }

    #[test]
    fn sample_size_capped_at_dataset() {
        let e = clustered_engine(1);
        let m = learn(&e, 3, 2.0, 10_000, 0, 1).unwrap();
        assert_eq!(m.samples, e.dataset().len());
    }

    #[test]
    fn deterministic_per_seed() {
        let e = clustered_engine(2);
        let a = learn(&e, 3, 2.0, 8, 42, 1).unwrap();
        let b = learn(&e, 3, 2.0, 8, 42, 1).unwrap();
        assert_eq!(a.priors, b.priors);
        let c = learn(&e, 3, 2.0, 8, 43, 1).unwrap();
        // Different seed → different sample → (almost surely) different
        // priors; only check it does not crash and stays valid.
        assert_eq!(c.samples, 8);
    }

    #[test]
    fn validation() {
        let e = clustered_engine(2);
        assert!(learn(&e, 0, 2.0, 4, 0, 1).is_err());
        let empty = LinearScan::new(Dataset::empty(), Metric::L2);
        assert!(learn(&empty, 3, 2.0, 4, 0, 1).is_err());
    }

    #[test]
    fn resolve_and_learn_pipeline() {
        let e = clustered_engine(11);
        let m = resolve_and_learn(
            &e,
            3,
            ThresholdPolicy::FullSpaceQuantile { q: 0.9, sample: 50 },
            6,
            5,
            1,
        )
        .unwrap();
        assert!(m.threshold > 0.0);
        assert_eq!(m.samples, 6);
    }
}
