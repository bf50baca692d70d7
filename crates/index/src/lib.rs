//! # hos-index
//!
//! k-nearest-neighbour engines for HOS-Miner. The paper's architecture
//! (Figure 2) includes an *X-tree Indexing module* that indexes the
//! high-dimensional dataset "to facilitate k-NN search in every
//! subspace"; this crate provides that module plus a linear-scan
//! reference engine used both as a baseline (experiment E7) and as a
//! correctness oracle in tests.
//!
//! * [`knn::KnnEngine`] — the engine abstraction: k-NN and range
//!   queries in an arbitrary axis-parallel subspace, with optional
//!   self-exclusion for queries that are dataset members.
//! * [`linear::LinearScan`] — exact brute force with a bounded heap.
//! * [`xtree::XTree`] — a from-scratch X-tree (Berchtold, Keim,
//!   Kriegel, VLDB'96): an R-tree derivative whose directory nodes
//!   degenerate into *supernodes* when no low-overlap split exists,
//!   which is what keeps it functional in high dimensionality.
//!   Subspace queries use MINDIST lower bounds computed only over the
//!   projected dimensions.
//! * [`context`] — the per-query distance cache: one `n x d`
//!   pre-distance matrix per query point turns every subspace OD into
//!   a subset-combine over cached columns (no raw coordinate reads).
//! * [`walker`] — the prefix-stack lattice kernel: a stack of partial
//!   pre-distance accumulators makes every visited lattice node an
//!   `O(n)` column fold (plus bounded top-k) instead of an
//!   `O(n · |s|)` recombine, bit-identical to the direct path.
//! * [`evaluator`] — the engine-agnostic OD-evaluation seam: one
//!   [`evaluator::OdEvaluator`] per `(engine, query)` pair builds the
//!   context on its first OD call and owns the walker traversal; every
//!   search layer streams subspaces at it.
//! * [`block`] — the blocked full-space OD kernel behind dataset-wide
//!   scans and threshold resolution, fanned over threads by query
//!   chunk: SoA layout, reused selection heaps, and a
//!   quantized `f32` admission filter that rejects provably-losing
//!   pairs before any exact fold — bit-identical to per-point engine
//!   queries, with typed errors and eval/filter accounting.
//! * [`hnsw`] — the approximate-recall tier: a vendored, dependency-
//!   free HNSW graph generates a sub-linear candidate pool per query,
//!   and an exact re-rank recomputes every reported distance/OD with
//!   the same f64 arithmetic and `(pre, id)` ordering as the exact
//!   engines — only recall is approximate, tunable via `ef_search`
//!   and measured by [`hnsw::calibrate_search_width`].
//! * [`sharded`] — exact intra-query parallelism: [`ShardedEngine`]
//!   fans each query over contiguous data shards and merges per-shard
//!   top-k lists losslessly (bit-identical ODs).
//! * [`batch`] — multi-threaded batch OD evaluation over subspaces,
//!   cache-accelerated when the engine provides a
//!   [`context::QueryContext`].
//! * [`pool`] — the persistent worker pool behind every parallel
//!   region: threads spawn once per process and are reused across
//!   calls (and shared between the CLI and `hos-serve`), so parallel
//!   batches pay queue hand-off instead of thread spawn + join.

pub mod batch;
pub mod block;
pub mod context;
pub mod error;
pub mod evaluator;
pub mod hnsw;
pub mod knn;
pub mod linear;
pub mod pool;
pub mod sharded;
mod topk;
pub mod walker;
pub mod xtree;

pub use block::{
    all_points_full_od, all_points_full_od_counted, full_space_ods, quantized_lower_bounds,
    BlockedScan,
};
pub use context::QueryContext;
pub use error::IndexError;
pub use evaluator::{LazyContextEvaluator, OdEvaluator};
pub use hnsw::{calibrate_search_width, recall_at_k, HnswConfig, HnswEngine};
pub use knn::{Engine, IncrementalEngine, KnnEngine, Neighbor};
pub use linear::LinearScan;
pub use sharded::{build_engine_sharded, ShardedEngine};
pub use walker::{PrefixStack, PrefixWalker};
pub use xtree::{XTree, XTreeConfig};
