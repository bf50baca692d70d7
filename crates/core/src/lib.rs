//! # hos-core
//!
//! The HOS-Miner algorithm proper (Zhang, Lou, Ling, Wang — VLDB'04):
//! given a query point, find every subspace in which its **outlying
//! degree** (sum of distances to its k nearest neighbours, paper §2)
//! meets a global threshold `T`, and return the minimal ones.
//!
//! Module map (mirrors the paper's Figure 2 architecture):
//!
//! * [`od`] — the OD measure, the dimension-normalised extension and
//!   threshold-selection policies.
//! * [`priors`] — per-level pruning probabilities `p_up(m)` /
//!   `p_down(m)`: the fixed priors of §3.2 and learned values.
//! * [`search`] — the dynamic subspace search of §3.3: evaluate the
//!   lattice level with the highest Total Saving Factor, prune up and
//!   down after every evaluation, repeat until the lattice closes.
//! * [`learning`] — the sampling-based learning process of §3.2.
//! * [`filter`] — the result-refinement filter of §3.4 (keep only
//!   minimal outlying subspaces).
//! * [`miner`] — the `HosMiner` facade tying indexing, learning,
//!   search and filtering together; `HosMiner::query_each` fans many
//!   independent queries out across threads, bit-reproducibly.

pub mod error;
pub mod explain;
pub mod filter;
pub mod frontier;
pub mod learning;
pub mod miner;
pub mod model_io;
pub mod od;
pub mod priors;
pub mod scan;
pub mod search;

pub use error::HosError;
pub use explain::{explain, Explanation};
pub use filter::minimal_subspaces;
pub use frontier::{frontier_search, FrontierOutcome};
pub use learning::{learn, learn_full, learn_with_smoothing, FractionMode, LearnedModel};
pub use miner::{HosMiner, HosMinerConfig, QueryOutcome, QuerySpec};
pub use model_io::ModelFile;
pub use od::{OdMode, ThresholdPolicy};
pub use priors::Priors;
pub use scan::{scan_outliers, ScanHit, ScanReport};
pub use search::{dynamic_search, ScoredSubspace, SearchOutcome, SearchStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HosError>;
