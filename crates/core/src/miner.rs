//! The `HosMiner` facade: the full system of the paper's Figure 2.
//!
//! `fit` wires the four modules together — index the data (X-tree or
//! linear scan), resolve the threshold, run the sampling-based
//! learning — and `query_*` runs the dynamic subspace search followed
//! by the refinement filter.

use crate::error::HosError;
use crate::filter::minimal_subspaces;
use crate::learning::LearnedModel;
use crate::od::ThresholdPolicy;
use crate::search::{dynamic_search, ScoredSubspace, SearchOutcome, SearchStats};
use crate::Result;
use hos_data::{Dataset, Metric, PointId, Subspace};
use hos_index::batch::parallel_map;
use hos_index::{build_engine_sharded, Engine, IndexError, KnnEngine};

/// Configuration of a HOS-Miner instance.
#[derive(Clone, Copy, Debug)]
pub struct HosMinerConfig {
    /// Neighbour count `k` of the OD measure.
    pub k: usize,
    /// How the global threshold `T` is chosen.
    pub threshold: ThresholdPolicy,
    /// Distance metric (must be projection monotone — all provided
    /// metrics are).
    pub metric: Metric,
    /// k-NN engine backing the OD evaluations.
    pub engine: Engine,
    /// Sample size `S` of the learning process (0 = skip learning and
    /// use the uniform priors).
    pub sample_size: usize,
    /// Laplace smoothing pseudo-count applied to the learned priors
    /// (see `learning` module docs). `0` = the paper's literal
    /// average; default `1`.
    pub prior_smoothing: f64,
    /// Worker threads for per-level OD batches.
    pub threads: usize,
    /// Data shards for intra-query parallelism: `> 1` splits the
    /// dataset into that many contiguous row partitions behind a
    /// `ShardedEngine` whose per-shard top-k merge reproduces the
    /// unsharded engine's ODs bit for bit (see
    /// `hos_index::sharded`). `1` (the default) keeps the plain
    /// engine.
    pub shards: usize,
    /// Candidate-pool width (`ef_search`) applied to width-tunable
    /// engines (`Engine::Hnsw`) after the build; `None` keeps the
    /// engine's default. Exact engines ignore it. Like `threads`, this
    /// is a machine-tuning knob and is never persisted with a model.
    pub ef: Option<usize>,
    /// Target recall@k for width-tunable engines: when set, the fit
    /// calibrates `ef` upward (doubling ladder, measured against the
    /// engine's own exhaustive mode) until a deterministic sample of
    /// member queries reaches this mean recall. Applied after `ef`,
    /// so `ef` becomes the starting point rather than the final word.
    pub recall_target: Option<f64>,
    /// Seed for sampling (threshold + learning).
    pub seed: u64,
}

impl Default for HosMinerConfig {
    fn default() -> Self {
        HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::default(),
            metric: Metric::L2,
            engine: Engine::Linear,
            sample_size: 20,
            prior_smoothing: 1.0,
            threads: 1,
            shards: 1,
            ef: None,
            recall_target: None,
            seed: 0,
        }
    }
}

/// Calibration sample size for [`HosMinerConfig::recall_target`] —
/// large enough for a stable mean recall, small enough that fitting
/// stays cheap (each probe is `sample` queries per ladder step).
const RECALL_CALIBRATION_SAMPLE: usize = 16;

/// The invariants of every miner, checked by both [`HosMiner::fit`]
/// and [`HosMiner::from_parts`] before any index is built: a failure
/// here is a typed `Config` error, never a panic on the first query or
/// an unsound prune.
fn validate_config(dataset: &Dataset, config: &HosMinerConfig) -> Result<()> {
    if config.k == 0 {
        return Err(HosError::Config("k must be positive".into()));
    }
    if dataset.is_empty() {
        return Err(HosError::Config("dataset must be non-empty".into()));
    }
    if dataset.len() <= config.k {
        return Err(HosError::Config(format!(
            "dataset has {} points; need more than k = {} for self-excluded k-NN",
            dataset.len(),
            config.k
        )));
    }
    if !config.metric.is_projection_monotone() {
        return Err(HosError::Config(format!(
            "metric {:?} is not projection monotone; pruning would be unsound",
            config.metric
        )));
    }
    let d = dataset.dim();
    if d > hos_lattice::lattice::MAX_LATTICE_DIM {
        return Err(HosError::Config(format!(
            "dimensionality {d} exceeds the dynamic-search limit {}",
            hos_lattice::lattice::MAX_LATTICE_DIM
        )));
    }
    if config.shards == 0 {
        return Err(HosError::Config("shards must be positive".into()));
    }
    Ok(())
}

/// Applies the config's search-width knobs to a freshly built engine:
/// `ef` first (the starting width), then recall calibration when a
/// target is set. No-ops on exact engines, whose recall is 1 at any
/// width.
fn apply_search_width(engine: &dyn KnnEngine, config: &HosMinerConfig) -> Result<()> {
    if let Some(ef) = config.ef {
        if ef == 0 {
            return Err(HosError::Config("ef must be positive".into()));
        }
        engine.set_search_width(ef);
    }
    if let Some(target) = config.recall_target {
        if !(target.is_finite() && target > 0.0 && target <= 1.0) {
            return Err(HosError::Config(format!(
                "recall target {target} must be in (0, 1]"
            )));
        }
        hos_index::calibrate_search_width(
            engine,
            config.k,
            target,
            RECALL_CALIBRATION_SAMPLE,
            config.seed.wrapping_add(2),
        );
    }
    Ok(())
}

/// One query in a mixed service batch: either a dataset member
/// (excluded from its own neighbourhoods) or an arbitrary point.
///
/// The serving layer coalesces concurrent requests of both shapes
/// into one admission window and drives them through
/// [`HosMiner::query_each`]; this enum is that seam's unit of work.
#[derive(Clone, Debug, PartialEq)]
pub enum QuerySpec {
    /// A dataset member by id (self-excluded, like
    /// [`HosMiner::query_id`]).
    Member(PointId),
    /// An arbitrary query point (like [`HosMiner::query_point`]).
    Point(Vec<f64>),
}

/// Result of one query: the answer set, its minimal frontier, and the
/// cost accounting.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Every outlying subspace found (evaluated or pruned-in).
    pub outlying: Vec<ScoredSubspace>,
    /// The refined result the system reports to the user (paper §3.4):
    /// minimal outlying subspaces only.
    pub minimal: Vec<Subspace>,
    /// Search cost accounting.
    pub stats: SearchStats,
}

impl QueryOutcome {
    fn from_search(out: SearchOutcome) -> Self {
        let subspaces: Vec<Subspace> = out.subspaces();
        QueryOutcome {
            minimal: minimal_subspaces(&subspaces),
            outlying: out.outlying,
            stats: out.stats,
        }
    }

    /// Whether the point is an outlier in at least one subspace.
    pub fn is_outlier(&self) -> bool {
        !self.outlying.is_empty()
    }
}

/// A fitted HOS-Miner ready to answer outlying-subspace queries.
///
/// ```
/// use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
/// use hos_data::{Dataset, Subspace};
///
/// // A 2-d cluster plus one point displaced along the first axis only.
/// let mut rows: Vec<Vec<f64>> =
///     (0..50).map(|i| vec![(i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1]).collect();
/// rows.push(vec![50.0, 0.2]);
/// let data = Dataset::from_rows(&rows).unwrap();
///
/// let miner = HosMiner::fit(data, HosMinerConfig {
///     k: 3,
///     threshold: ThresholdPolicy::Fixed(10.0),
///     sample_size: 0, // uniform priors; >0 runs the learning phase
///     ..HosMinerConfig::default()
/// }).unwrap();
///
/// let out = miner.query_id(50).unwrap();
/// assert_eq!(out.minimal, vec![Subspace::from_dims(&[0])]);
/// assert!(miner.query_id(0).unwrap().minimal.is_empty());
/// ```
pub struct HosMiner {
    engine: Box<dyn KnnEngine>,
    config: HosMinerConfig,
    model: LearnedModel,
}

impl HosMiner {
    /// Builds the index, resolves the threshold and runs the learning
    /// process over `dataset`.
    pub fn fit(dataset: Dataset, config: HosMinerConfig) -> Result<Self> {
        validate_config(&dataset, &config)?;
        let engine = build_engine_sharded(
            config.engine,
            dataset,
            config.metric,
            config.shards,
            config.threads,
        );
        apply_search_width(engine.as_ref(), &config)?;
        let threshold =
            config
                .threshold
                .resolve(engine.as_ref(), config.k, config.seed, config.threads)?;
        let model = crate::learning::learn_with_smoothing(
            engine.as_ref(),
            config.k,
            threshold,
            config.sample_size,
            config.seed.wrapping_add(1),
            config.threads,
            config.prior_smoothing,
        )?;
        Ok(HosMiner {
            engine,
            config,
            model,
        })
    }

    /// Assembles a miner from pre-fitted parts — used by model
    /// persistence ([`crate::model_io::ModelFile::into_miner`]) to
    /// skip threshold resolution and learning. Validates the same
    /// invariants as [`HosMiner::fit`].
    pub fn from_parts(
        dataset: Dataset,
        config: HosMinerConfig,
        model: LearnedModel,
    ) -> Result<Self> {
        validate_config(&dataset, &config)?;
        if model.priors.dim() != dataset.dim() {
            return Err(HosError::Config(format!(
                "priors cover {} dimensions, dataset has {}",
                model.priors.dim(),
                dataset.dim()
            )));
        }
        if !(model.threshold.is_finite() && model.threshold > 0.0) {
            return Err(HosError::Config(format!(
                "threshold {} must be positive and finite",
                model.threshold
            )));
        }
        let engine = build_engine_sharded(
            config.engine,
            dataset,
            config.metric,
            config.shards,
            config.threads,
        );
        apply_search_width(engine.as_ref(), &config)?;
        Ok(HosMiner {
            engine,
            config,
            model,
        })
    }

    /// Sets the worker-thread count for subsequent queries (per-level
    /// OD batches, the [`HosMiner::query_each`] fan-out, and the
    /// engine's own intra-query fan-out when it has one — the sharded
    /// engine does). Used by callers that assemble a miner from a saved
    /// model, where the persisted file carries no machine-specific
    /// parallelism setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
        self.engine.set_threads(self.config.threads);
    }

    /// The resolved global threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.model.threshold
    }

    /// The learned model (priors + learning cost).
    pub fn model(&self) -> &LearnedModel {
        &self.model
    }

    /// The fitted configuration.
    pub fn config(&self) -> &HosMinerConfig {
        &self.config
    }

    /// The underlying k-NN engine.
    pub fn engine(&self) -> &dyn KnnEngine {
        self.engine.as_ref()
    }

    /// Consumes the miner and returns its dataset without copying —
    /// the move-out counterpart of [`HosMiner::engine`], used by
    /// streaming compaction and snapshotting to avoid a second full
    /// copy of the window at peak-memory moments.
    pub fn into_dataset(self) -> Dataset {
        self.engine.into_dataset()
    }

    /// Number of live points currently backing queries (inserted and
    /// not retired).
    pub fn live_len(&self) -> usize {
        self.engine.dataset().live_len()
    }

    /// Inserts one point into the fitted system without a rebuild: the
    /// engine index absorbs the row incrementally and the new point
    /// immediately participates in every subsequent neighbourhood.
    ///
    /// The learned model (threshold `T`, priors) is **not** updated —
    /// per-query state (distance caches) is built fresh per search, so
    /// there is nothing else to invalidate. Call
    /// [`HosMiner::reestimate_threshold`] to re-derive `T` over the
    /// current live window.
    ///
    /// Returns the new point's id (stable across later mutations).
    pub fn insert_point(&mut self, row: &[f64]) -> Result<PointId> {
        let inc = self
            .engine
            .as_incremental()
            .ok_or(HosError::Index(IndexError::Immutable("configured engine")))?;
        Ok(inc.insert(row)?)
    }

    /// Retires (removes) dataset member `id`: the point stops
    /// participating in any neighbourhood, and querying it yields a
    /// typed error. Its id stays allocated (tombstone), so ids held by
    /// callers never shift.
    pub fn retire_point(&mut self, id: PointId) -> Result<()> {
        let inc = self
            .engine
            .as_incremental()
            .ok_or(HosError::Index(IndexError::Immutable("configured engine")))?;
        Ok(inc.remove(id)?)
    }

    /// Re-resolves the configured [`ThresholdPolicy`] over the current
    /// live points and installs the result as the model threshold —
    /// the sliding-window re-estimation hook for streaming workloads
    /// (a `Fixed` policy re-resolves to the same value; a quantile
    /// policy re-samples the live window).
    pub fn reestimate_threshold(&mut self) -> Result<f64> {
        self.ensure_enough_live(true)?;
        let t = self.config.threshold.resolve(
            self.engine.as_ref(),
            self.config.k,
            self.config.seed,
            self.config.threads,
        )?;
        self.model.threshold = t;
        Ok(t)
    }

    /// Validates that enough live candidates exist for a `k`-NN query
    /// (`exclude_member`: the query is a dataset member and excludes
    /// itself). Reachable once removals shrink the window below `k`.
    fn ensure_enough_live(&self, exclude_member: bool) -> Result<()> {
        let available = self
            .engine
            .dataset()
            .live_len()
            .saturating_sub(usize::from(exclude_member));
        if available < self.config.k {
            return Err(HosError::Index(IndexError::InsufficientPoints {
                available,
                k: self.config.k,
            }));
        }
        Ok(())
    }

    /// The one query validator behind [`HosMiner::query_id`],
    /// [`HosMiner::query_point`] and [`HosMiner::query_each`]: a member
    /// must be in bounds and live, a point must have the dataset's
    /// arity and finite coordinates, and enough live candidates must
    /// remain for `k`. Returns the query coordinates and the id to
    /// exclude from its own neighbourhoods.
    fn validate<'a>(&'a self, spec: &'a QuerySpec) -> Result<(&'a [f64], Option<PointId>)> {
        let ds = self.engine.dataset();
        let (point, exclude) = match spec {
            QuerySpec::Member(id) => {
                let id = *id;
                if id >= ds.len() {
                    return Err(HosError::Query(format!(
                        "point id {id} out of bounds for dataset of {} points",
                        ds.len()
                    )));
                }
                if !ds.is_live(id) {
                    return Err(HosError::Index(IndexError::DeadPoint(id)));
                }
                (ds.row(id), Some(id))
            }
            QuerySpec::Point(p) => {
                if p.len() != ds.dim() {
                    return Err(HosError::Query(format!(
                        "query has {} coordinates, dataset has {} dimensions",
                        p.len(),
                        ds.dim()
                    )));
                }
                if p.iter().any(|v| !v.is_finite()) {
                    return Err(HosError::Query("query contains non-finite values".into()));
                }
                (p.as_slice(), None)
            }
        };
        self.ensure_enough_live(exclude.is_some())?;
        Ok((point, exclude))
    }

    /// Validates `spec`, then runs its dynamic search (with `threads`
    /// workers per lattice level) and the refinement filter.
    fn run(&self, spec: &QuerySpec, threads: usize) -> Result<QueryOutcome> {
        let (point, exclude) = self.validate(spec)?;
        Ok(QueryOutcome::from_search(dynamic_search(
            self.engine.as_ref(),
            point,
            exclude,
            self.config.k,
            self.model.threshold,
            &self.model.priors,
            threads,
        )))
    }

    /// Finds the outlying subspaces of an arbitrary query point.
    pub fn query_point(&self, query: &[f64]) -> Result<QueryOutcome> {
        self.run(&QuerySpec::Point(query.to_vec()), self.config.threads)
    }

    /// Finds the outlying subspaces of dataset member `id` (excluded
    /// from its own neighbourhoods).
    pub fn query_id(&self, id: PointId) -> Result<QueryOutcome> {
        self.run(&QuerySpec::Member(id), self.config.threads)
    }

    /// Answers many member/point queries at once with per-item error
    /// reporting: the specs are fanned out across `config.threads`
    /// pooled workers, each validated and searched on its own (with
    /// per-level parallelism off, so cross-query parallelism does not
    /// oversubscribe the cores), and each slot gets either its outcome
    /// or the same typed error the corresponding
    /// [`HosMiner::query_id`] / [`HosMiner::query_point`] call would
    /// return. Results are in input order.
    ///
    /// This is the one batch path: the CLI's `query --ids` and the
    /// serving layer's admission batcher both call it. Because
    /// `dynamic_search` is deterministic and the fan-out preserves
    /// input order, every outcome is **bit-identical** to running that
    /// query alone at any thread count — one slow or invalid request
    /// can neither change nor fail its batch-mates.
    pub fn query_each(&self, specs: &[QuerySpec]) -> Vec<Result<QueryOutcome>> {
        parallel_map(specs, self.config.threads, |spec| self.run(spec, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::synth::planted::{generate, PlantedSpec};

    fn planted() -> (Dataset, Vec<(PointId, Subspace)>) {
        let spec = PlantedSpec {
            n_background: 300,
            d: 5,
            n_clusters: 2,
            cluster_sigma: 1.0,
            extent: 60.0,
            targets: vec![Subspace::from_dims(&[0, 1]), Subspace::from_dims(&[3])],
            shift_sigmas: 12.0,
            seed: 18,
        };
        let w = generate(&spec).unwrap();
        let truth = w.outliers.iter().map(|o| (o.id, o.subspace)).collect();
        (w.dataset, truth)
    }

    fn fitted(engine: Engine) -> (HosMiner, Vec<(PointId, Subspace)>) {
        let (ds, truth) = planted();
        let config = HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 150,
            },
            engine,
            sample_size: 10,
            ..HosMinerConfig::default()
        };
        (HosMiner::fit(ds, config).unwrap(), truth)
    }

    #[test]
    fn detects_planted_outlying_subspaces() {
        let (miner, truth) = fitted(Engine::Linear);
        for (id, target) in truth {
            let out = miner.query_id(id).unwrap();
            assert!(out.is_outlier(), "planted outlier {id} not detected at all");
            // The target subspace (or a subset of it) must be in the
            // minimal frontier: the deviation was injected exactly there.
            assert!(
                out.minimal.iter().any(|m| m.is_subset_of(target)),
                "target {target} not covered by minimal set {:?}",
                out.minimal
            );
        }
    }

    #[test]
    fn background_points_mostly_clean() {
        let (miner, _) = fitted(Engine::Linear);
        let clean = (0..40)
            .filter(|&id| !miner.query_id(id).unwrap().is_outlier())
            .count();
        assert!(clean >= 35, "only {clean}/40 background points clean");
    }

    #[test]
    fn sharded_miner_bit_identical_to_unsharded() {
        // The whole pipeline — threshold resolution, learning, every
        // query — must be unchanged by sharding: the sharded engine's
        // per-shard top-k merge reproduces unsharded ODs bit for bit,
        // and everything downstream is deterministic.
        let (ds, truth) = planted();
        let base = HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 150,
            },
            sample_size: 10,
            ..HosMinerConfig::default()
        };
        let unsharded = HosMiner::fit(ds.clone(), base).unwrap();
        for shards in [2, 4] {
            let sharded = HosMiner::fit(
                ds.clone(),
                HosMinerConfig {
                    shards,
                    threads: 2,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(
                sharded.threshold(),
                unsharded.threshold(),
                "shards={shards}"
            );
            assert_eq!(
                sharded.model().priors,
                unsharded.model().priors,
                "shards={shards}"
            );
            for (id, _) in &truth {
                let a = unsharded.query_id(*id).unwrap();
                let b = sharded.query_id(*id).unwrap();
                assert_eq!(a.outlying, b.outlying, "shards={shards} point {id}");
                assert_eq!(a.minimal, b.minimal, "shards={shards} point {id}");
                assert_eq!(
                    a.stats.od_evals, b.stats.od_evals,
                    "shards={shards} point {id}"
                );
            }
        }
    }

    #[test]
    fn xtree_engine_agrees_with_linear() {
        let (lin, truth) = fitted(Engine::Linear);
        let (xt, _) = fitted(Engine::XTree);
        for (id, _) in truth {
            let a = lin.query_id(id).unwrap();
            let b = xt.query_id(id).unwrap();
            assert_eq!(a.minimal, b.minimal, "engines disagree on point {id}");
        }
    }

    #[test]
    fn minimal_is_antichain_and_covers_answer() {
        let (miner, truth) = fitted(Engine::Linear);
        let out = miner.query_id(truth[0].0).unwrap();
        for a in &out.minimal {
            for b in &out.minimal {
                if a != b {
                    assert!(!a.is_subset_of(*b));
                }
            }
        }
        for s in &out.outlying {
            assert!(
                crate::filter::covered_by(s.subspace, &out.minimal),
                "answer member {} not covered",
                s.subspace
            );
        }
    }

    #[test]
    fn query_point_external() {
        let (miner, _) = fitted(Engine::Linear);
        // A point absurdly far away in every dimension is outlying
        // everywhere; its minimal set is the single dimensions.
        let far = vec![1e4; 5];
        let out = miner.query_point(&far).unwrap();
        assert!(out.is_outlier());
        assert_eq!(out.minimal.len(), 5);
        assert!(out.minimal.iter().all(|s| s.dim() == 1));
    }

    #[test]
    fn config_validation() {
        let (ds, _) = planted();
        let bad_k = HosMinerConfig {
            k: 0,
            ..HosMinerConfig::default()
        };
        assert!(HosMiner::fit(ds.clone(), bad_k).is_err());
        assert!(HosMiner::fit(Dataset::empty(), HosMinerConfig::default()).is_err());
        let tiny = Dataset::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let cfg = HosMinerConfig {
            k: 5,
            ..HosMinerConfig::default()
        };
        assert!(HosMiner::fit(tiny, cfg).is_err());
        let (ds2, _) = planted();
        let zero_shards = HosMinerConfig {
            shards: 0,
            ..HosMinerConfig::default()
        };
        assert!(HosMiner::fit(ds2, zero_shards).is_err());
    }

    #[test]
    fn query_validation() {
        let (miner, _) = fitted(Engine::Linear);
        assert!(miner.query_point(&[1.0]).is_err());
        assert!(miner.query_point(&[f64::NAN; 5]).is_err());
        assert!(miner.query_id(10_000).is_err());
    }

    #[test]
    fn query_each_members_match_individual_queries() {
        let (miner, truth) = fitted(Engine::Linear);
        let ids: Vec<PointId> = truth.iter().map(|(id, _)| *id).chain(0..6).collect();
        let specs: Vec<QuerySpec> = ids.iter().map(|&id| QuerySpec::Member(id)).collect();
        let batch = miner.query_each(&specs);
        assert_eq!(batch.len(), ids.len());
        for (&id, got) in ids.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let solo = miner.query_id(id).unwrap();
            assert_eq!(got.outlying, solo.outlying, "point {id}");
            assert_eq!(got.minimal, solo.minimal, "point {id}");
            assert_eq!(got.stats.od_evals, solo.stats.od_evals, "point {id}");
        }
        let mixed = miner.query_each(&[QuerySpec::Member(0), QuerySpec::Member(10_000)]);
        assert!(mixed[0].is_ok() && mixed[1].is_err());
        assert!(miner.query_each(&[]).is_empty());
    }

    #[test]
    fn query_each_points_match_individual_queries() {
        let (miner, _) = fitted(Engine::Linear);
        let points = [vec![1e4; 5], vec![0.0; 5]];
        let specs: Vec<QuerySpec> = points.iter().cloned().map(QuerySpec::Point).collect();
        let batch = miner.query_each(&specs);
        for (p, got) in points.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let solo = miner.query_point(p).unwrap();
            assert_eq!(got.outlying, solo.outlying);
            assert_eq!(got.minimal, solo.minimal);
        }
        let bad = miner.query_each(&[
            QuerySpec::Point(vec![0.0; 5]),
            QuerySpec::Point(vec![1.0]),
            QuerySpec::Point(vec![f64::NAN; 5]),
        ]);
        assert!(bad[0].is_ok() && bad[1].is_err() && bad[2].is_err());
    }

    #[test]
    fn query_each_matches_individual_queries_and_isolates_errors() {
        let (miner, truth) = fitted(Engine::Linear);
        let specs = vec![
            QuerySpec::Member(truth[0].0),
            QuerySpec::Point(vec![1e4; 5]),
            QuerySpec::Member(10_000),           // dead/unknown id
            QuerySpec::Point(vec![1.0]),         // wrong arity
            QuerySpec::Point(vec![f64::NAN; 5]), // non-finite
            QuerySpec::Member(0),
        ];
        let results = miner.query_each(&specs);
        assert_eq!(results.len(), specs.len());

        // Valid entries are bit-identical to the per-call paths.
        let solo_member = miner.query_id(truth[0].0).unwrap();
        let got = results[0].as_ref().unwrap();
        assert_eq!(got.outlying, solo_member.outlying);
        assert_eq!(got.minimal, solo_member.minimal);
        assert_eq!(got.stats.od_evals, solo_member.stats.od_evals);

        let solo_point = miner.query_point(&[1e4; 5]).unwrap();
        let got = results[1].as_ref().unwrap();
        assert_eq!(got.outlying, solo_point.outlying);
        assert_eq!(got.minimal, solo_point.minimal);

        let solo_bg = miner.query_id(0).unwrap();
        let got = results[5].as_ref().unwrap();
        assert_eq!(got.outlying, solo_bg.outlying);
        assert_eq!(got.minimal, solo_bg.minimal);

        // Invalid entries fail individually with the same message the
        // per-call path produces, without poisoning their neighbours.
        for (idx, solo) in [
            (2usize, miner.query_id(10_000).unwrap_err()),
            (3, miner.query_point(&[1.0]).unwrap_err()),
            (4, miner.query_point(&[f64::NAN; 5]).unwrap_err()),
        ] {
            let got = results[idx].as_ref().unwrap_err();
            assert_eq!(got.to_string(), solo.to_string(), "spec {idx}");
            assert_eq!(got.kind(), solo.kind(), "spec {idx}");
        }

        assert!(miner.query_each(&[]).is_empty());
    }

    #[test]
    fn set_threads_overrides_config() {
        let (mut miner, truth) = fitted(Engine::Linear);
        let baseline = miner.query_id(truth[0].0).unwrap();
        miner.set_threads(4);
        assert_eq!(miner.config().threads, 4);
        // Parallelism must not change any answer.
        let parallel = miner.query_id(truth[0].0).unwrap();
        assert_eq!(parallel.outlying, baseline.outlying);
        assert_eq!(parallel.minimal, baseline.minimal);
        miner.set_threads(0); // clamped to 1
        assert_eq!(miner.config().threads, 1);
    }

    #[test]
    fn insert_and_retire_maintain_queries_incrementally() {
        for engine in [Engine::Linear, Engine::XTree] {
            let (mut miner, truth) = fitted(engine);
            let n0 = miner.engine().dataset().len();
            assert_eq!(miner.live_len(), n0);
            // Insert a cluster member displaced far along dim 2 only:
            // it is immediately queryable and outlying exactly there.
            let mut displaced: Vec<f64> = miner.engine().dataset().row(10).to_vec();
            displaced[2] += 1e4;
            let new_id = miner.insert_point(&displaced).unwrap();
            assert_eq!(new_id, n0);
            assert_eq!(miner.live_len(), n0 + 1);
            let out = miner.query_id(new_id).unwrap();
            assert!(out.is_outlier(), "{engine}");
            assert_eq!(out.minimal, vec![Subspace::from_dims(&[2])], "{engine}");
            // Retire it: querying the id is now a typed error, and the
            // engine no longer sees it as anyone's neighbour.
            miner.retire_point(new_id).unwrap();
            assert_eq!(miner.live_len(), n0);
            assert!(matches!(
                miner.query_id(new_id),
                Err(HosError::Index(IndexError::DeadPoint(id))) if id == new_id
            ));
            assert!(matches!(
                miner.retire_point(new_id),
                Err(HosError::Index(IndexError::DeadPoint(_)))
            ));
            // A planted outlier is still found after the churn.
            let (id, target) = truth[0];
            let out = miner.query_id(id).unwrap();
            assert!(
                out.minimal.iter().any(|m| m.is_subset_of(target)),
                "{engine}"
            );
            // Mutation validation is typed.
            assert!(matches!(
                miner.insert_point(&[1.0]),
                Err(HosError::Index(IndexError::Shape { .. }))
            ));
            assert!(matches!(
                miner.insert_point(&[f64::NAN; 5]),
                Err(HosError::Index(IndexError::NonFinite))
            ));
        }
    }

    #[test]
    fn queries_error_below_k_live_points() {
        // Shrink a small fitted miner below k: every query path must
        // return the typed insufficiency error instead of panicking or
        // silently understating ODs.
        let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        rows.push(vec![100.0, 100.0]);
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut miner = HosMiner::fit(
            ds,
            HosMinerConfig {
                k: 4,
                threshold: ThresholdPolicy::Fixed(10.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        for id in 0..5 {
            miner.retire_point(id).unwrap();
        }
        // 4 live points: a member query has only 3 candidates left.
        assert_eq!(miner.live_len(), 4);
        assert!(matches!(
            miner.query_id(7),
            Err(HosError::Index(IndexError::InsufficientPoints {
                available: 3,
                k: 4
            }))
        ));
        for result in miner.query_each(&[QuerySpec::Member(7), QuerySpec::Member(8)]) {
            assert!(matches!(
                result,
                Err(HosError::Index(IndexError::InsufficientPoints { .. }))
            ));
        }
        // An external point still has 4 candidates — exactly k — so it
        // remains answerable…
        assert!(miner.query_point(&[0.0, 0.0]).is_ok());
        miner.retire_point(5).unwrap();
        // …until the live count itself drops below k.
        assert!(matches!(
            miner.query_point(&[0.0, 0.0]),
            Err(HosError::Index(IndexError::InsufficientPoints {
                available: 3,
                k: 4
            }))
        ));
        assert!(matches!(
            &miner.query_each(&[QuerySpec::Point(vec![0.0, 0.0])])[..],
            [Err(HosError::Index(IndexError::InsufficientPoints { .. }))]
        ));
        assert!(matches!(
            miner.reestimate_threshold(),
            Err(HosError::Index(IndexError::InsufficientPoints { .. }))
        ));
        // Refilling the window restores service.
        for i in 0..3 {
            miner.insert_point(&[i as f64, i as f64]).unwrap();
        }
        assert!(miner.query_point(&[0.0, 0.0]).is_ok());
        assert!(miner.query_id(8).is_ok());
    }

    #[test]
    fn reestimate_threshold_tracks_the_live_window() {
        let (ds, _) = planted();
        let mut miner = HosMiner::fit(
            ds,
            HosMinerConfig {
                k: 5,
                threshold: ThresholdPolicy::FullSpaceQuantile {
                    q: 0.95,
                    sample: 150,
                },
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        let t0 = miner.threshold();
        // Same window → same threshold (resolution is seed-pinned).
        assert_eq!(miner.reestimate_threshold().unwrap(), t0);
        // Insert a pile of mutually-distant points (each one's k-NN
        // distances are huge): the full-space OD quantile over the
        // live window must move up.
        for i in 0..60 {
            miner
                .insert_point(&[1e3 * (i + 1) as f64, 0.0, 0.0, 0.0, 0.0])
                .unwrap();
        }
        let t1 = miner.reestimate_threshold().unwrap();
        assert!(t1 > t0, "threshold did not track the window: {t1} <= {t0}");
        assert_eq!(miner.threshold(), t1);
        // A Fixed policy re-resolves to the same value by definition.
        let (ds2, _) = planted();
        let mut fixed = HosMiner::fit(
            ds2,
            HosMinerConfig {
                k: 5,
                threshold: ThresholdPolicy::Fixed(42.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        fixed.insert_point(&[9.0; 5]).unwrap();
        assert_eq!(fixed.reestimate_threshold().unwrap(), 42.0);
    }

    #[test]
    fn accessors() {
        let (miner, _) = fitted(Engine::Linear);
        assert!(miner.threshold() > 0.0);
        assert_eq!(miner.config().k, 5);
        assert_eq!(miner.model().samples, 10);
        assert_eq!(miner.engine().dataset().dim(), 5);
    }

    /// The quantile threshold sampled by a miner with this config: the
    /// live ids shuffled by `seed`, truncated to `sample`, each
    /// member's full-space OD taken through its own per-point
    /// `engine.od`.
    fn per_point_threshold(miner: &HosMiner, q: f64, sample: usize) -> f64 {
        use rand::rngs::StdRng;
        use rand::{seq::SliceRandom, SeedableRng};
        let engine = miner.engine();
        let ds = engine.dataset();
        let mut ids: Vec<PointId> = ds.live_ids().collect();
        ids.shuffle(&mut StdRng::seed_from_u64(miner.config().seed));
        ids.truncate(sample);
        let ods: Vec<f64> = ids
            .iter()
            .map(|&id| engine.od(ds.row(id), miner.config().k, ds.full_space(), Some(id)))
            .collect();
        hos_data::stats::quantile(&ods, q).unwrap()
    }

    /// Fitting is independent of the worker count: the kernel-resolved
    /// threshold keeps its bits and the saved model its bytes at 1, 2
    /// and 4 threads, on exact engines sharded or not, and the
    /// threshold is the quantile of per-point engine ODs over the same
    /// sampled ids. HNSW keeps its own per-point ODs as the definition.
    #[test]
    fn fit_is_deterministic_across_thread_counts() {
        use crate::model_io::ModelFile;
        let (q, sample) = (0.95, 150);
        for (engine, shards) in [
            (Engine::Linear, 1),
            (Engine::XTree, 1),
            (Engine::Linear, 3),
            (Engine::Hnsw, 1),
        ] {
            let fit = |threads: usize| {
                let config = HosMinerConfig {
                    k: 5,
                    threshold: ThresholdPolicy::FullSpaceQuantile { q, sample },
                    engine,
                    shards,
                    threads,
                    sample_size: 6,
                    seed: 3,
                    ..HosMinerConfig::default()
                };
                HosMiner::fit(planted().0, config).unwrap()
            };
            let serial = fit(1);
            let t = serial.threshold();
            assert_eq!(
                t.to_bits(),
                per_point_threshold(&serial, q, sample).to_bits(),
                "{engine} shards {shards}"
            );
            let text = ModelFile::from_miner(&serial).to_text();
            for threads in [2, 4] {
                let m = fit(threads);
                assert_eq!(
                    m.threshold().to_bits(),
                    t.to_bits(),
                    "{engine} shards {shards} threads {threads}"
                );
                assert_eq!(
                    ModelFile::from_miner(&m).to_text(),
                    text,
                    "{engine} shards {shards} threads {threads}"
                );
            }
        }
    }
}
