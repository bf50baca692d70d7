//! The k-NN engine abstraction used by every search layer.

use crate::context::QueryContext;
use crate::error::IndexError;
use crate::evaluator::{LazyContextEvaluator, OdEvaluator};
use hos_data::{Dataset, Metric, PointId, Subspace};

/// One neighbour returned by a query: the point and its distance to
/// the query in the queried subspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Row id of the neighbour in the engine's dataset.
    pub id: PointId,
    /// Distance in the queried subspace (finished, not pre-metric).
    pub dist: f64,
}

/// A k-NN engine over a fixed dataset and metric.
///
/// Implementations must report **exact** distances and ODs: HOS-Miner's
/// pruning arguments rely on true OD values, so an engine that
/// estimated them would silently invalidate Property 1/2 reasoning.
/// The exact-scan engines additionally guarantee exact *recall* (the
/// returned set is the true k-NN set); [`crate::hnsw::HnswEngine`]
/// relaxes only that half of the contract — its candidate set may miss
/// a true neighbour, but every number attached to what it returns is
/// computed with the same exact f64 arithmetic and `(distance, id)`
/// ordering, and its recall is measured and gated by the recall-oracle
/// tests.
pub trait KnnEngine: Send + Sync {
    /// The indexed dataset.
    fn dataset(&self) -> &Dataset;

    /// The distance metric.
    fn metric(&self) -> Metric;

    /// The `k` nearest neighbours of `query` in subspace `s`, sorted
    /// by ascending distance. `exclude` removes one point id from
    /// consideration (the query itself, when it is a dataset member).
    ///
    /// Returns fewer than `k` neighbours only when the dataset (minus
    /// the exclusion) holds fewer than `k` points. An empty subspace
    /// yields distance `0` to every point.
    fn knn(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor>;

    /// Every point within `radius` of `query` in subspace `s`
    /// (inclusive), in arbitrary order.
    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor>;

    /// The outlying degree of `query` in `s`: the sum of distances to
    /// its `k` nearest neighbours (paper §2).
    fn od(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> f64 {
        self.knn(query, k, s, exclude).iter().map(|n| n.dist).sum()
    }

    /// Number of distance computations performed so far, if the
    /// engine counts them (used by the efficiency experiments).
    fn distance_evals(&self) -> u64 {
        0
    }

    /// A per-query distance cache over this engine's dataset, when the
    /// engine supports one (see [`QueryContext`]). The evaluator
    /// ([`KnnEngine::evaluator`], behind `hos-core`'s `dynamic_search`)
    /// uses it transparently: one `n x d` pre-distance pass per query
    /// point replaces per-subspace raw-coordinate scans.
    ///
    /// The default is `None`: engines with their own search structure
    /// (the X-tree's pruning, HNSW's candidate graph) answer each query
    /// through that structure, and a full-matrix cache would bypass
    /// exactly what makes them worth having.
    fn query_context<'a>(&'a self, query: &[f64]) -> Option<QueryContext<'a>> {
        let _ = query;
        None
    }

    /// Sets the engine's *internal* fan-out width, for engines that
    /// parallelise single queries themselves (the sharded engine fans
    /// k-NN/range/OD calls over its shards). Plain engines answer
    /// queries on the calling thread and ignore this. Never changes
    /// any result — only how many workers compute it.
    fn set_threads(&self, threads: usize) {
        let _ = threads;
    }

    /// Sets the candidate-pool width (`ef_search`) for engines whose
    /// recall is tunable ([`crate::hnsw::HnswEngine`]; the sharded
    /// engine forwards to its shards). Exact engines ignore it — their
    /// recall is identically 1 at any width. Like
    /// [`KnnEngine::set_threads`] this is a machine-tuning knob, not
    /// part of the model: it is never persisted.
    fn set_search_width(&self, ef: usize) {
        let _ = ef;
    }

    /// The current candidate-pool width, or `None` for engines whose
    /// recall is not width-tunable.
    fn search_width(&self) -> Option<usize> {
        None
    }

    /// An [`OdEvaluator`] for one `(engine, query)` pair: the object
    /// every search layer streams subspaces at. The default is the
    /// [`LazyContextEvaluator`] (the engine's per-query distance cache,
    /// built on the first OD call when the engine provides one; direct
    /// engine queries otherwise); engines with their own execution
    /// strategy override it — [`crate::sharded::ShardedEngine`]
    /// returns a shard-fanning evaluator.
    fn evaluator<'a>(
        &'a self,
        query: &'a [f64],
        k: usize,
        exclude: Option<PointId>,
    ) -> Box<dyn OdEvaluator + 'a> {
        Box::new(LazyContextEvaluator::new(self, query, k, exclude))
    }

    /// Checked k-NN: validates the query (arity, finiteness) and that
    /// enough **live** candidates exist to return a full `k`-list,
    /// then delegates to [`KnnEngine::knn`]. The unchecked path keeps
    /// its "fewer than `k` only when the data runs out" contract for
    /// callers that want partial lists; OD consumers, whose measure is
    /// only meaningful over exactly `k` neighbours, use this one.
    fn try_knn(
        &self,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Result<Vec<Neighbor>, IndexError> {
        let ds = self.dataset();
        if query.len() != ds.dim() {
            return Err(IndexError::Shape {
                expected: ds.dim(),
                got: query.len(),
            });
        }
        if query.iter().any(|v| !v.is_finite()) {
            return Err(IndexError::NonFinite);
        }
        let mut available = ds.live_len();
        if exclude.is_some_and(|e| ds.is_live(e)) {
            available -= 1;
        }
        if available < k {
            return Err(IndexError::InsufficientPoints { available, k });
        }
        Ok(self.knn(query, k, s, exclude))
    }

    /// Checked OD: [`KnnEngine::try_knn`] summed — errors instead of
    /// silently understating the OD when fewer than `k` live
    /// candidates remain.
    fn try_od(
        &self,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Result<f64, IndexError> {
        Ok(self
            .try_knn(query, k, s, exclude)?
            .iter()
            .map(|n| n.dist)
            .sum())
    }

    /// The engine's incremental-mutation capability, if it has one.
    /// Every engine in this crate returns `Some`; the default `None`
    /// keeps the trait implementable by fit-once engines.
    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalEngine> {
        None
    }

    /// The engine as an X-tree, so tests can inspect the shape of the
    /// tree a build hands out (its height, fill, stale entries).
    fn as_xtree(&self) -> Option<&crate::xtree::XTree> {
        None
    }

    /// Consumes the engine and returns its dataset **without copying**
    /// — every engine in this crate owns its `Dataset` outright. This
    /// is what lets callers compact or snapshot a windowed dataset at
    /// peak-memory moments (the 3:1 tombstone valve) without first
    /// cloning the full matrix. The default clones, keeping the trait
    /// implementable by engines that only borrow their data.
    fn into_dataset(self: Box<Self>) -> Dataset {
        self.dataset().clone()
    }
}

/// Incremental mutation: engines that can absorb inserts and removals
/// without a rebuild.
///
/// # Equivalence contract
///
/// After any sequence of `insert`/`remove` calls, every query result
/// (`knn`, `range`, `od`, evaluator paths) must be **bit-identical**
/// to a cold rebuild of the same engine kind over the surviving rows
/// — same distances, same `(distance, id)` ordering, with incremental
/// ids related to cold-rebuild ids by the order-preserving compaction
/// map. `tests/incremental_oracle.rs` (workspace root) pins this for
/// every engine under randomized op sequences.
///
/// Ids are append-only: `insert` returns `dataset().len() - 1` and
/// `remove` tombstones without renumbering, so callers can hold ids
/// across mutations.
pub trait IncrementalEngine {
    /// Appends one point, returning its id.
    fn insert(&mut self, row: &[f64]) -> Result<PointId, IndexError>;

    /// Removes (tombstones) one point. The id stays allocated; using
    /// it again yields [`IndexError::DeadPoint`].
    fn remove(&mut self, id: PointId) -> Result<(), IndexError>;
}

/// A concrete engine choice, for configs and CLIs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// Exact brute-force scan.
    #[default]
    Linear,
    /// X-tree index.
    XTree,
    /// HNSW graph (approximate-recall candidate generation with exact
    /// re-rank; see [`crate::hnsw`]).
    Hnsw,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "linear" | "scan" => Ok(Engine::Linear),
            "xtree" | "x-tree" => Ok(Engine::XTree),
            "hnsw" => Ok(Engine::Hnsw),
            other => Err(format!(
                "unknown engine {other:?} (expected linear|xtree|hnsw)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Linear => write!(f, "linear"),
            Engine::XTree => write!(f, "xtree"),
            Engine::Hnsw => write!(f, "hnsw"),
        }
    }
}

/// Builds the chosen engine over a dataset.
pub fn build_engine(engine: Engine, dataset: Dataset, metric: Metric) -> Box<dyn KnnEngine> {
    match engine {
        Engine::Linear => Box::new(crate::linear::LinearScan::new(dataset, metric)),
        Engine::XTree => Box::new(crate::xtree::XTree::bulk_load(
            dataset,
            metric,
            crate::xtree::XTreeConfig::default(),
        )),
        Engine::Hnsw => Box::new(crate::hnsw::HnswEngine::build(
            dataset,
            metric,
            crate::hnsw::HnswConfig::default(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parse_and_display() {
        assert_eq!("linear".parse::<Engine>().unwrap(), Engine::Linear);
        assert_eq!("XTREE".parse::<Engine>().unwrap(), Engine::XTree);
        assert_eq!("x-tree".parse::<Engine>().unwrap(), Engine::XTree);
        assert_eq!("hnsw".parse::<Engine>().unwrap(), Engine::Hnsw);
        assert_eq!("HNSW".parse::<Engine>().unwrap(), Engine::Hnsw);
        // Unknown and removed engine names fail typed, naming the
        // engines that do exist.
        for name in ["quadtree", "vafile", "va", "VA-FILE"] {
            let err = name.parse::<Engine>().unwrap_err();
            assert!(err.contains("linear|xtree|hnsw"), "{name}: {err}");
        }
        assert_eq!(Engine::Linear.to_string(), "linear");
        assert_eq!(Engine::XTree.to_string(), "xtree");
        assert_eq!(Engine::Hnsw.to_string(), "hnsw");
        assert_eq!(Engine::default(), Engine::Linear);
    }

    /// The served build is the packed bulk loader, not sequential
    /// insertion: its leaves meet the fill bound and its height is
    /// minimal.
    #[test]
    fn build_engine_bulk_loads_the_xtree() {
        let ds = hos_data::synth::uniform(5000, 8, 0.0, 100.0, 77).unwrap();
        let e = build_engine(Engine::XTree, ds, Metric::L2);
        let tree = e.as_xtree().expect("an X-tree");
        tree.check_bulk_shape().unwrap();
        assert_eq!(tree.stats().supernodes, 0);
    }

    #[test]
    fn build_engine_returns_working_engines() {
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![5.0, 5.0]]).unwrap();
        for kind in [Engine::Linear, Engine::XTree, Engine::Hnsw] {
            let e = build_engine(kind, ds.clone(), Metric::L2);
            let nn = e.knn(&[0.1, 0.1], 1, Subspace::full(2), None);
            assert_eq!(nn[0].id, 0, "{kind}");
        }
    }

    /// Every engine (plain and sharded) exposes the incremental
    /// capability, and the checked query path returns typed errors —
    /// not panics, not silently short lists — once removals shrink the
    /// live set below `k`, all the way down to empty.
    #[test]
    fn try_knn_k_edge_and_incremental_smoke_per_engine() {
        use crate::error::IndexError;
        use crate::sharded::build_engine_sharded;

        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let s = Subspace::full(2);
        for kind in [Engine::Linear, Engine::XTree, Engine::Hnsw] {
            for shards in [1usize, 3] {
                let label = format!("{kind} shards={shards}");
                let mut e = build_engine_sharded(kind, ds.clone(), Metric::L2, shards, 2);
                // Checked path agrees with the unchecked one when valid.
                assert_eq!(
                    e.try_knn(&[1.0, 1.0], 3, s, Some(0)).unwrap(),
                    e.knn(&[1.0, 1.0], 3, s, Some(0)),
                    "{label}"
                );
                // Malformed queries are typed errors.
                assert_eq!(
                    e.try_knn(&[1.0], 3, s, None),
                    Err(IndexError::Shape {
                        expected: 2,
                        got: 1
                    }),
                    "{label}"
                );
                assert_eq!(
                    e.try_knn(&[f64::NAN, 0.0], 3, s, None),
                    Err(IndexError::NonFinite),
                    "{label}"
                );
                // Shrink below k: 8 live, remove 3 → 5 live; k=5 with
                // self-exclusion leaves only 4 candidates.
                let inc = e.as_incremental().expect(&label);
                for id in [1usize, 4, 6] {
                    inc.remove(id).unwrap();
                }
                assert_eq!(inc.remove(4), Err(IndexError::DeadPoint(4)), "{label}");
                assert_eq!(
                    inc.remove(99),
                    Err(IndexError::OutOfBounds { id: 99, len: 8 }),
                    "{label}"
                );
                assert_eq!(
                    e.try_knn(&[1.0, 1.0], 5, s, Some(0)),
                    Err(IndexError::InsufficientPoints { available: 4, k: 5 }),
                    "{label}"
                );
                assert!(e.try_od(&[1.0, 1.0], 4, s, Some(0)).is_ok(), "{label}");
                // Remove everything: the empty edge is an error too.
                for id in [0usize, 2, 3, 5, 7] {
                    e.as_incremental().unwrap().remove(id).unwrap();
                }
                assert_eq!(
                    e.try_knn(&[1.0, 1.0], 1, s, None),
                    Err(IndexError::InsufficientPoints { available: 0, k: 1 }),
                    "{label}"
                );
                assert!(e.knn(&[1.0, 1.0], 2, s, None).is_empty(), "{label}");
                // Inserting revives the engine; mutation validation is
                // typed as well.
                let id = e.as_incremental().unwrap().insert(&[0.5, 0.5]).unwrap();
                assert_eq!(id, 8, "{label}");
                assert_eq!(
                    e.as_incremental().unwrap().insert(&[0.5]),
                    Err(IndexError::Shape {
                        expected: 2,
                        got: 1
                    }),
                    "{label}"
                );
                assert_eq!(
                    e.as_incremental().unwrap().insert(&[f64::INFINITY, 0.0]),
                    Err(IndexError::NonFinite),
                    "{label}"
                );
                let nn = e.try_knn(&[0.0, 0.0], 1, s, None).unwrap();
                assert_eq!(nn[0].id, 8, "{label}");
            }
        }
    }

    /// Engines built over an *empty* dataset accept their first insert
    /// (which fixes the arity) and answer queries afterwards.
    #[test]
    fn incremental_insert_into_empty_engine() {
        use crate::sharded::build_engine_sharded;
        for kind in [Engine::Linear, Engine::XTree, Engine::Hnsw] {
            for shards in [1usize, 2] {
                let mut e = build_engine_sharded(kind, Dataset::empty(), Metric::L2, shards, 1);
                let inc = e.as_incremental().unwrap();
                assert_eq!(inc.insert(&[1.0, 2.0, 3.0]).unwrap(), 0);
                assert_eq!(inc.insert(&[4.0, 5.0, 6.0]).unwrap(), 1);
                let nn = e.knn(&[1.0, 2.0, 3.0], 2, Subspace::full(3), None);
                assert_eq!(nn.len(), 2, "{kind} shards={shards}");
                assert_eq!(nn[0].id, 0);
                assert_eq!(nn[0].dist, 0.0);
            }
        }
    }
}
