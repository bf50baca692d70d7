//! # hos-data
//!
//! Foundational data layer for the HOS-Miner reproduction
//! (Zhang, Lou, Ling, Wang — VLDB 2004).
//!
//! This crate provides everything the search layers build on:
//!
//! * [`Subspace`] — an axis-parallel subspace of `R^d` encoded as a
//!   `u64` bitmask, with lattice navigation helpers (subsets, supersets,
//!   fixed-cardinality enumeration).
//! * [`Dataset`] — a dense, row-major `n x d` matrix of `f64` with
//!   optional column names and validation.
//! * [`Metric`] — the `L1`/`L2`/`L∞`/`Lp` family, all of which satisfy
//!   the *projection monotonicity* that the paper's Property 1/2 rely
//!   on: `dist_{s2}(a,b) <= dist_{s1}(a,b)` whenever `s2 ⊆ s1`.
//! * [`normalize`] — min–max and z-score dataset transforms.
//! * [`csv`] — dependency-free CSV reading/writing.
//! * [`stats`] — means, variances, quantiles and equi-depth boundaries
//!   (the latter feed the Aggarwal–Yu baseline's φ-grid).
//! * [`synth`] — synthetic workload generators, including planted
//!   subspace outliers with verifiable ground truth.
//! * [`table`] — small plain-text / CSV table rendering used by the
//!   experiment harness and examples.
//!
//! The crate is deliberately free of heavyweight dependencies; only
//! `rand` (generation) and `serde` (result serialisation in the
//! harness) are used.

pub mod csv;
pub mod dataset;
pub mod error;
pub mod metric;
pub mod normalize;
pub mod stats;
pub mod subspace;
pub mod synth;
pub mod table;

pub use dataset::{Dataset, DatasetBuilder, PointId, QuantizedColumns};
pub use error::DataError;
pub use metric::Metric;
pub use subspace::Subspace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
