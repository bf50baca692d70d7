//! Dense, row-major dataset storage.
//!
//! HOS-Miner evaluates distances in arbitrary axis-parallel projections
//! of the data, so the representation favours fast row access: one
//! contiguous `Vec<f64>` of `n * d` values. Columns are secondary
//! (needed only for normalisation and equi-depth statistics) and are
//! accessed through strided iterators.
//!
//! # Mutation model (streaming)
//!
//! The streaming path mutates a dataset in place: [`Dataset::push_row`]
//! appends (ids only ever grow), and [`Dataset::remove_row`]
//! **tombstones** a row — the data stays where it is so every other
//! [`PointId`] remains stable, but the row no longer participates in
//! [`Dataset::iter`], [`Dataset::live_len`] or anything built on them.
//! [`Dataset::compact`] reclaims the space by dropping tombstoned rows
//! and renumbering, returning the id map. Indexed accessors
//! ([`Dataset::row`], [`Dataset::get`], [`Dataset::column`]) address
//! the *physical* matrix including tombstoned rows; callers that care
//! filter with [`Dataset::is_live`].

use crate::error::DataError;
use crate::subspace::{Subspace, MAX_DIM};
use crate::Result;

/// Identifier of a point: its row index in the [`Dataset`].
pub type PointId = usize;

/// The quantized companion column set produced by
/// [`Dataset::to_column_major_f32`]: half-width column-major values
/// plus the per-column magnitude scales that admission kernels turn
/// into conservative slack.
pub struct QuantizedColumns {
    /// `cols[j * n + i]` = value of point `i` in dimension `j`,
    /// rounded to the nearest `f32` (tombstoned rows included
    /// positionally, like [`Dataset::to_column_major`]).
    pub cols: Vec<f32>,
    /// `scale[j]` = max `|v|` over column `j` in exact `f64` — the
    /// magnitude that bounds every rounding error a kernel's `f32`
    /// arithmetic over the column can commit.
    pub scale: Vec<f64>,
}

/// A dense `n x d` matrix of `f64`, row-major, with optional
/// tombstones (see the module docs' mutation model).
#[derive(Clone, Debug)]
pub struct Dataset {
    n: usize,
    d: usize,
    data: Vec<f64>,
    names: Option<Vec<String>>,
    /// Tombstone flags; empty means "all rows live" (the common,
    /// never-mutated case allocates nothing).
    dead: Vec<bool>,
    dead_count: usize,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        // Liveness compares semantically: an empty `dead` vec equals
        // an all-false one.
        self.n == other.n
            && self.d == other.d
            && self.data == other.data
            && self.names == other.names
            && self.dead_count == other.dead_count
            && (0..self.n).all(|i| self.is_live(i) == other.is_live(i))
    }
}

impl Dataset {
    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Errors
    /// * [`DataError::Shape`] if `data.len()` is not a multiple of `d`
    ///   or `d == 0` with non-empty data.
    /// * [`DataError::DimTooLarge`] if `d` exceeds [`MAX_DIM`].
    /// * [`DataError::NonFinite`] if any value is NaN or infinite.
    pub fn from_flat(data: Vec<f64>, d: usize) -> Result<Self> {
        if d > MAX_DIM {
            return Err(DataError::DimTooLarge {
                dim: d,
                max: MAX_DIM,
            });
        }
        if d == 0 {
            if data.is_empty() {
                return Ok(Dataset {
                    n: 0,
                    d: 0,
                    data,
                    names: None,
                    dead: Vec::new(),
                    dead_count: 0,
                });
            }
            return Err(DataError::Shape {
                expected: 0,
                got: data.len(),
            });
        }
        if !data.len().is_multiple_of(d) {
            return Err(DataError::Shape {
                expected: d,
                got: data.len() % d,
            });
        }
        let n = data.len() / d;
        for (idx, v) in data.iter().enumerate() {
            if !v.is_finite() {
                return Err(DataError::NonFinite {
                    row: idx / d,
                    col: idx % d,
                });
            }
        }
        Ok(Dataset {
            n,
            d,
            data,
            names: None,
            dead: Vec::new(),
            dead_count: 0,
        })
    }

    /// Creates a dataset from rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let mut b = DatasetBuilder::new();
        for r in rows {
            b.push_row(r)?;
        }
        b.build()
    }

    /// Number of rows in the physical matrix — the size of the
    /// [`PointId`] space, **including** tombstoned rows. Live-only
    /// counting is [`Dataset::live_len`].
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset holds no rows at all (live or tombstoned).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of live (non-tombstoned) points.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.n - self.dead_count
    }

    /// Number of tombstoned rows awaiting [`Dataset::compact`].
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Whether row `i` exists and is not tombstoned.
    #[inline]
    pub fn is_live(&self, i: PointId) -> bool {
        i < self.n && !self.dead.get(i).copied().unwrap_or(false)
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The full space over this dataset's dimensions.
    #[inline]
    pub fn full_space(&self) -> Subspace {
        Subspace::full(self.d)
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: PointId) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Checked row access.
    pub fn try_row(&self, i: PointId) -> Result<&[f64]> {
        if i >= self.n {
            return Err(DataError::OutOfBounds {
                what: "row",
                index: i,
                len: self.n,
            });
        }
        Ok(self.row(i))
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.n && col < self.d);
        self.data[row * self.d + col]
    }

    /// Iterates `(id, row)` pairs over the **live** rows (tombstoned
    /// rows are skipped; ids keep their physical values, so the
    /// sequence can have gaps). Empty for a 0-dimensional dataset.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        // chunks_exact panics on 0; a 0-d dataset is necessarily empty.
        self.data
            .chunks_exact(self.d.max(1))
            .enumerate()
            .filter(move |(i, _)| self.is_live(*i))
    }

    /// Iterates the ids of the live rows, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        (0..self.n).filter(move |&i| self.is_live(i))
    }

    /// Iterates the values of one column.
    pub fn column(&self, col: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(
            col < self.d,
            "column {col} out of bounds for dim {}",
            self.d
        );
        self.data.iter().skip(col).step_by(self.d).copied()
    }

    /// Copies a column into a `Vec`.
    pub fn column_vec(&self, col: usize) -> Vec<f64> {
        self.column(col).collect()
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// A column-major (structure-of-arrays) snapshot of the physical
    /// matrix: `d` contiguous blocks of `n` values, block `j` holding
    /// column `j` in row order (tombstoned rows included — callers
    /// filter with [`Dataset::is_live`]). Kernels that stream one
    /// dimension across many rows (the blocked all-points OD scan)
    /// read this layout sequentially instead of striding the
    /// row-major buffer by `d`.
    pub fn to_column_major(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.n * self.d];
        for (j, slot) in out.chunks_exact_mut(self.n.max(1)).enumerate() {
            for (i, v) in slot.iter_mut().enumerate() {
                *v = self.data[i * self.d + j];
            }
        }
        out
    }

    /// A quantized `f32` companion of [`Dataset::to_column_major`]:
    /// the same column-major layout, each value rounded to the nearest
    /// `f32`, plus one per-column magnitude scale. Admission kernels
    /// stream these half-width columns to compute *lower bounds* on
    /// exact `f64` pre-distances; the conservative part is the scale —
    /// `scale[j]` bounds `|v|` over column `j`, so a kernel can
    /// subtract `scale[j] * eps` per term and provably stay below the
    /// exact value despite the rounding in the narrowing conversion
    /// and the `f32` arithmetic that follows.
    pub fn to_column_major_f32(&self) -> QuantizedColumns {
        let mut cols = vec![0.0f32; self.n * self.d];
        let mut scale = vec![0.0f64; self.d];
        for (j, slot) in cols.chunks_exact_mut(self.n.max(1)).enumerate() {
            let mut m = 0.0f64;
            for (i, v) in slot.iter_mut().enumerate() {
                let x = self.data[i * self.d + j];
                m = m.max(x.abs());
                *v = x as f32;
            }
            scale[j] = m;
        }
        QuantizedColumns { cols, scale }
    }

    /// Optional column names.
    pub fn names(&self) -> Option<&[String]> {
        self.names.as_deref()
    }

    /// Attaches column names (must match dimensionality).
    pub fn with_names(mut self, names: Vec<String>) -> Result<Self> {
        if names.len() != self.d {
            return Err(DataError::Shape {
                expected: self.d,
                got: names.len(),
            });
        }
        self.names = Some(names);
        Ok(self)
    }

    /// Projects the dataset onto a subspace, producing a smaller,
    /// `|s|`-dimensional dataset with rows in the same order.
    ///
    /// This is mostly useful for exporting views (e.g. the Figure 1
    /// scatter plots); the search code never materialises projections,
    /// it evaluates metrics directly through subspace masks.
    pub fn project(&self, s: Subspace) -> Result<Dataset> {
        let dims = s.dim_vec();
        if let Some(&max) = dims.last() {
            if max >= self.d {
                return Err(DataError::OutOfBounds {
                    what: "column",
                    index: max,
                    len: self.d,
                });
            }
        }
        let mut data = Vec::with_capacity(self.n * dims.len());
        for i in 0..self.n {
            let row = self.row(i);
            for &c in &dims {
                data.push(row[c]);
            }
        }
        let names = self
            .names
            .as_ref()
            .map(|ns| dims.iter().map(|&c| ns[c].clone()).collect::<Vec<_>>());
        let mut out = Dataset::from_flat(data, dims.len())?;
        if let Some(ns) = names {
            out = out.with_names(ns)?;
        }
        // The projection keeps the physical row layout, so tombstones
        // carry over positionally.
        if self.dead_count > 0 {
            out.dead = self.dead.clone();
            out.dead_count = self.dead_count;
        }
        Ok(out)
    }

    /// Appends a row, consuming and returning the dataset.
    pub fn push_row(&mut self, row: &[f64]) -> Result<PointId> {
        if self.n == 0 && self.d == 0 {
            // First row fixes the dimensionality.
            if row.is_empty() || row.len() > MAX_DIM {
                return Err(DataError::DimTooLarge {
                    dim: row.len(),
                    max: MAX_DIM,
                });
            }
            self.d = row.len();
        }
        if row.len() != self.d {
            return Err(DataError::Shape {
                expected: self.d,
                got: row.len(),
            });
        }
        for (c, v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(DataError::NonFinite {
                    row: self.n,
                    col: c,
                });
            }
        }
        self.data.extend_from_slice(row);
        self.n += 1;
        if !self.dead.is_empty() {
            self.dead.push(false);
        }
        Ok(self.n - 1)
    }

    /// Tombstones row `i`: the data stays in place (every other
    /// [`PointId`] remains valid) but the row stops participating in
    /// [`Dataset::iter`] and [`Dataset::live_len`].
    ///
    /// # Errors
    /// * [`DataError::OutOfBounds`] if `i >= len()`.
    /// * [`DataError::InvalidParam`] if row `i` is already tombstoned.
    pub fn remove_row(&mut self, i: PointId) -> Result<()> {
        if i >= self.n {
            return Err(DataError::OutOfBounds {
                what: "row",
                index: i,
                len: self.n,
            });
        }
        if !self.is_live(i) {
            return Err(DataError::InvalidParam(format!(
                "row {i} is already removed"
            )));
        }
        if self.dead.is_empty() {
            self.dead = vec![false; self.n];
        }
        self.dead[i] = true;
        self.dead_count += 1;
        Ok(())
    }

    /// Drops every tombstoned row, renumbering the survivors `0..m`
    /// in their original order. Returns the id map: entry `j` is the
    /// **old** id of the row now numbered `j`, ascending (so the map
    /// is strictly increasing and order-preserving).
    pub fn compact(&mut self) -> Vec<PointId> {
        if self.dead_count == 0 {
            self.dead = Vec::new();
            return (0..self.n).collect();
        }
        let mut map = Vec::with_capacity(self.live_len());
        let mut write = 0usize;
        for i in 0..self.n {
            if !self.is_live(i) {
                continue;
            }
            if write != i {
                self.data
                    .copy_within(i * self.d..(i + 1) * self.d, write * self.d);
            }
            map.push(i);
            write += 1;
        }
        self.n = write;
        self.data.truncate(write * self.d);
        self.dead = Vec::new();
        self.dead_count = 0;
        map
    }

    /// Creates an empty dataset whose dimensionality is fixed by the
    /// first pushed row.
    pub fn empty() -> Self {
        Dataset {
            n: 0,
            d: 0,
            data: Vec::new(),
            names: None,
            dead: Vec::new(),
            dead_count: 0,
        }
    }
}

/// Incremental dataset construction with shape validation.
#[derive(Default)]
pub struct DatasetBuilder {
    d: Option<usize>,
    data: Vec<f64>,
    names: Option<Vec<String>>,
    rows: usize,
}

impl DatasetBuilder {
    /// New, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declares the dimensionality (otherwise fixed by first row).
    pub fn with_dim(mut self, d: usize) -> Self {
        self.d = Some(d);
        self
    }

    /// Sets column names.
    pub fn with_names(mut self, names: Vec<String>) -> Self {
        self.names = Some(names);
        self
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        let d = *self.d.get_or_insert(row.len());
        if row.len() != d {
            return Err(DataError::Shape {
                expected: d,
                got: row.len(),
            });
        }
        if d == 0 || d > MAX_DIM {
            return Err(DataError::DimTooLarge {
                dim: d,
                max: MAX_DIM,
            });
        }
        for (c, v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(DataError::NonFinite {
                    row: self.rows,
                    col: c,
                });
            }
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Finalises the dataset.
    pub fn build(self) -> Result<Dataset> {
        let d = self.d.unwrap_or(0);
        let mut ds = Dataset::from_flat(self.data, d)?;
        if let Some(names) = self.names {
            ds = ds.with_names(names)?;
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn basic_shape() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 3);
        assert!(!ds.is_empty());
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.get(2, 0), 7.0);
        assert_eq!(ds.full_space(), Subspace::full(3));
    }

    #[test]
    fn from_flat_validates() {
        assert!(Dataset::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(Dataset::from_flat(vec![1.0, f64::NAN], 2).is_err());
        assert!(Dataset::from_flat(vec![1.0, f64::INFINITY], 2).is_err());
        assert!(Dataset::from_flat(vec![], 0).unwrap().is_empty());
        assert!(Dataset::from_flat(vec![1.0], 0).is_err());
        assert!(Dataset::from_flat(vec![0.0; 64], 64).is_err());
    }

    #[test]
    fn column_access() {
        let ds = small();
        assert_eq!(ds.column_vec(0), vec![1.0, 4.0, 7.0]);
        assert_eq!(ds.column_vec(2), vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let ds = small();
        let ids: Vec<PointId> = ds.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn projection() {
        let ds = small();
        let p = ds.project(Subspace::from_dims(&[0, 2])).unwrap();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.row(0), &[1.0, 3.0]);
        assert_eq!(p.row(2), &[7.0, 9.0]);
        assert!(ds.project(Subspace::from_dims(&[5])).is_err());
    }

    #[test]
    fn projection_preserves_names() {
        let ds = small()
            .with_names(vec!["a".into(), "b".into(), "c".into()])
            .unwrap();
        let p = ds.project(Subspace::from_dims(&[2])).unwrap();
        assert_eq!(p.names().unwrap(), &["c".to_string()]);
    }

    #[test]
    fn builder_fixes_dim_from_first_row() {
        let mut b = DatasetBuilder::new();
        b.push_row(&[1.0, 2.0]).unwrap();
        assert!(b.push_row(&[3.0]).is_err());
        b.push_row(&[3.0, 4.0]).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 2);
    }

    #[test]
    fn builder_rejects_nonfinite() {
        let mut b = DatasetBuilder::new();
        assert!(b.push_row(&[f64::NAN]).is_err());
    }

    #[test]
    fn names_must_match_dim() {
        assert!(small().with_names(vec!["x".into()]).is_err());
    }

    #[test]
    fn push_row_on_dataset() {
        let mut ds = Dataset::empty();
        let id0 = ds.push_row(&[1.0, 2.0]).unwrap();
        let id1 = ds.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(ds.len(), 2);
        assert!(ds.push_row(&[1.0]).is_err());
    }

    #[test]
    fn try_row_bounds() {
        let ds = small();
        assert!(ds.try_row(2).is_ok());
        assert!(ds.try_row(3).is_err());
    }

    #[test]
    fn remove_row_tombstones_without_moving_data() {
        let mut ds = small();
        assert_eq!(ds.live_len(), 3);
        ds.remove_row(1).unwrap();
        assert_eq!(ds.len(), 3, "id space unchanged");
        assert_eq!(ds.live_len(), 2);
        assert_eq!(ds.dead_count(), 1);
        assert!(!ds.is_live(1));
        assert!(ds.is_live(0) && ds.is_live(2));
        // Physical access still works; iteration skips the tombstone.
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
        let ids: Vec<PointId> = ds.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(ds.live_ids().collect::<Vec<_>>(), vec![0, 2]);
        // Double-remove and out-of-bounds are typed errors.
        assert!(ds.remove_row(1).is_err());
        assert!(ds.remove_row(9).is_err());
        // Pushing after a removal keeps flags consistent.
        let id = ds.push_row(&[9.0, 9.0, 9.0]).unwrap();
        assert_eq!(id, 3);
        assert!(ds.is_live(3));
        assert_eq!(ds.live_len(), 3);
    }

    #[test]
    fn compact_renumbers_and_returns_increasing_id_map() {
        let mut ds =
            Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        ds.remove_row(0).unwrap();
        ds.remove_row(3).unwrap();
        let map = ds.compact();
        assert_eq!(map, vec![1, 2, 4]);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.live_len(), 3);
        assert_eq!(ds.dead_count(), 0);
        for (new_id, &old_id) in map.iter().enumerate() {
            assert_eq!(ds.row(new_id), &[old_id as f64]);
        }
        // Compacting a fully-live dataset is the identity map.
        assert_eq!(ds.compact(), vec![0, 1, 2]);
    }

    #[test]
    fn tombstone_equality_is_semantic() {
        let mut a = small();
        let b = small();
        assert_eq!(a, b);
        a.remove_row(2).unwrap();
        assert_ne!(a, b);
        // Remove + compact == never having had the row.
        a.compact();
        let c = Dataset::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn project_carries_tombstones() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, -(i as f64)]).collect();
        let mut ds = Dataset::from_rows(&rows).unwrap();
        ds.remove_row(2).unwrap();
        ds.remove_row(5).unwrap();
        let p = ds.project(Subspace::from_dims(&[0])).unwrap();
        assert_eq!(p.live_len(), ds.live_len());
        assert!(!p.is_live(2) && !p.is_live(5));
    }
}
