//! Typed errors for engine queries and incremental mutation.
//!
//! Before the streaming path existed, every engine invariant ("k-NN
//! needs at least `k` candidates", "queries match the dataset arity")
//! was upheld by construction: `HosMiner::fit` validated once and the
//! dataset never changed. Removals make those conditions *reachable at
//! query time* — a window can shrink below `k`, a retired point can be
//! queried by a stale id — so the failure modes get a typed error
//! instead of a panic or a silently-short neighbour list.

use hos_data::PointId;
use std::fmt;

/// Errors produced by checked engine queries ([`crate::knn::KnnEngine::try_knn`])
/// and incremental mutation ([`crate::knn::KnnEngine::insert`],
/// [`crate::knn::KnnEngine::remove`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// A row or query had the wrong arity for the engine's dataset.
    Shape {
        /// The engine dataset's dimensionality.
        expected: usize,
        /// The arity actually supplied.
        got: usize,
    },
    /// A query or inserted row contained NaN or an infinity.
    NonFinite,
    /// A point id beyond the dataset's id space.
    OutOfBounds {
        /// The offending id.
        id: PointId,
        /// The exclusive bound (physical dataset length).
        len: usize,
    },
    /// The point exists but has been removed (tombstoned).
    DeadPoint(PointId),
    /// A k-NN query needs `k` candidates but fewer live points are
    /// available (after self-exclusion). Reachable once removals can
    /// shrink the dataset below `k` — including all the way to empty.
    InsufficientPoints {
        /// Live candidates available to the query.
        available: usize,
        /// The `k` that was asked for.
        k: usize,
    },
    /// A data-layer failure surfaced through an engine mutation.
    Data(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Shape { expected, got } => {
                write!(f, "arity mismatch: expected {expected} values, got {got}")
            }
            IndexError::NonFinite => write!(f, "non-finite value (NaN or infinity)"),
            IndexError::OutOfBounds { id, len } => {
                write!(f, "point id {id} out of bounds for id space of {len}")
            }
            IndexError::DeadPoint(id) => write!(f, "point {id} has been removed"),
            IndexError::InsufficientPoints { available, k } => write!(
                f,
                "k-NN needs k = {k} candidates but only {available} live points are available"
            ),
            IndexError::Data(msg) => write!(f, "data error: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<hos_data::DataError> for IndexError {
    fn from(e: hos_data::DataError) -> Self {
        IndexError::Data(e.to_string())
    }
}

/// Validates a row about to be inserted into an engine: arity must
/// match the dataset (unless the dataset is still 0-dimensional and
/// the row will fix its arity) and every value must be finite.
pub(crate) fn validate_insert(ds: &hos_data::Dataset, row: &[f64]) -> Result<(), IndexError> {
    if ds.dim() != 0 && row.len() != ds.dim() {
        return Err(IndexError::Shape {
            expected: ds.dim(),
            got: row.len(),
        });
    }
    if row.iter().any(|v| !v.is_finite()) {
        return Err(IndexError::NonFinite);
    }
    Ok(())
}

/// Validates a removal target: in bounds and still live.
pub(crate) fn validate_remove(ds: &hos_data::Dataset, id: PointId) -> Result<(), IndexError> {
    if id >= ds.len() {
        return Err(IndexError::OutOfBounds { id, len: ds.len() });
    }
    if !ds.is_live(id) {
        return Err(IndexError::DeadPoint(id));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(IndexError::Shape {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("expected 3"));
        assert!(IndexError::InsufficientPoints { available: 2, k: 5 }
            .to_string()
            .contains("k = 5"));
        assert!(IndexError::DeadPoint(7).to_string().contains('7'));
        assert!(IndexError::NonFinite.to_string().contains("finite"));
        assert!(IndexError::OutOfBounds { id: 9, len: 4 }
            .to_string()
            .contains('9'));
        let from: IndexError = hos_data::DataError::Empty.into();
        assert!(matches!(from, IndexError::Data(_)));
    }

    #[test]
    fn validators() {
        let ds = hos_data::Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(validate_insert(&ds, &[3.0, 4.0]).is_ok());
        assert!(validate_insert(&ds, &[3.0]).is_err());
        assert!(validate_insert(&ds, &[f64::NAN, 0.0]).is_err());
        // 0-dimensional (empty) datasets accept any finite arity: the
        // first insert fixes it.
        let empty = hos_data::Dataset::empty();
        assert!(validate_insert(&empty, &[1.0, 2.0, 3.0]).is_ok());
        assert!(validate_remove(&ds, 0).is_ok());
        assert_eq!(
            validate_remove(&ds, 5),
            Err(IndexError::OutOfBounds { id: 5, len: 1 })
        );
        let mut dead = ds.clone();
        dead.remove_row(0).unwrap();
        assert_eq!(validate_remove(&dead, 0), Err(IndexError::DeadPoint(0)));
    }
}
