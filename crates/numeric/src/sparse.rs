//! Compressed sparse column (CSC) matrices and a coordinate (triplet)
//! builder.
//!
//! Circuit matrices are assembled by *stamping*: each device adds a handful of
//! entries at fixed positions. The [`TripletBuilder`] accepts duplicate
//! coordinates and sums them on conversion, which makes stamping trivial; the
//! resulting [`SparseMatrix`] is consumed by the sparse LU in [`crate::splu`].
//! Both are generic over the [`Scalar`] field: real (`f64`, the default)
//! for DC and transient Newton systems, [`crate::Complex64`] for AC.

use crate::{NumericError, Scalar};

/// Coordinate-format builder for sparse matrices.
///
/// Duplicate `(row, col)` entries are summed when converting to CSC, matching
/// the accumulate-semantics of MNA stamps.
///
/// # Example
///
/// ```
/// use gabm_numeric::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 0, 1.0);
/// b.push(0, 0, 2.0); // duplicates accumulate
/// b.push(1, 1, 5.0);
/// let m = b.to_csc();
/// assert_eq!(m.get(0, 0), 3.0);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder<T = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletBuilder<T> {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discards all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Converts to compressed sparse column form, summing duplicates.
    pub fn to_csc(&self) -> SparseMatrix<T> {
        // Count entries per column after an in-column sort; do a simple
        // sort of a copy (assembly is not the hot path — factorization is).
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; self.cols + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut it = sorted.into_iter().peekable();
        #[allow(clippy::needless_range_loop)]
        for col in 0..self.cols {
            col_ptr[col] = row_idx.len();
            while let Some(&(r, c, _)) = it.peek() {
                if c != col {
                    break;
                }
                let mut sum = T::zero();
                while let Some(&(r2, c2, v2)) = it.peek() {
                    if r2 == r && c2 == c {
                        sum += v2;
                        it.next();
                    } else {
                        break;
                    }
                }
                row_idx.push(r);
                values.push(sum);
            }
        }
        col_ptr[self.cols] = row_idx.len();
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

/// A matrix in compressed sparse column format.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix<T = f64> {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> SparseMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of structurally non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or zero if structurally absent.
    pub fn get(&self, row: usize, col: usize) -> T {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => T::zero(),
        }
    }

    /// Slot of the structural entry `(row, col)` in [`SparseMatrix::values`],
    /// found by scanning that column's row list; `None` if absent.
    pub fn position(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.col_ptr[col];
        self.row_idx[lo..self.col_ptr[col + 1]]
            .iter()
            .position(|&r| r == row)
            .map(|k| lo + k)
    }

    /// Value of every structural entry, column-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable values; the structural pattern stays fixed, so a caller can
    /// reassemble a matrix in place.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Column pointer array of the CSC layout (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index of every structural entry, column-major.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_idx
    }

    /// `true` if `other` has exactly the same dimensions and structural
    /// pattern (column pointers and row indices); values are ignored.
    /// Explicit zeros are structural, so two value sets assembled at the
    /// same stamp positions share a pattern — the condition under which
    /// [`crate::SparseLu::refactor`] can reuse a symbolic analysis.
    pub fn same_pattern(&self, other: &SparseMatrix<T>) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
    }

    /// Iterates over the structural entries of column `col` as
    /// `(row, value)` pairs.
    pub fn col_iter(&self, col: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![T::zero(); self.rows];
        #[allow(clippy::needless_range_loop)]
        for col in 0..self.cols {
            let xc = x[col];
            if xc == T::zero() {
                continue;
            }
            for (row, v) in self.col_iter(col) {
                y[row] += v * xc;
            }
        }
        Ok(y)
    }
}

impl std::ops::Index<(usize, usize)> for SparseMatrix<f64> {
    type Output = f64;

    /// Entry `(row, col)`; structurally absent entries read as `0.0`.
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        match self.position(row, col) {
            Some(k) => &self.values[k],
            None => &0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicates() {
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 0, -0.25);
        b.push(2, 1, 4.0);
        let m = b.to_csc();
        assert_eq!(m.get(0, 0), 0.75);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn builder_clear_and_len() {
        let mut b = TripletBuilder::new(2, 2);
        assert!(b.is_empty());
        b.push(0, 1, 1.0);
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.to_csc().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut b = TripletBuilder::new(1, 1);
        b.push(0, 1, 1.0);
    }

    #[test]
    fn same_pattern_ignores_values() {
        let mut a = TripletBuilder::new(2, 2);
        a.push(0, 0, 1.0);
        a.push(1, 1, 2.0);
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, -7.0);
        b.push(1, 1, 0.0); // explicit zero is still structural
        let (ma, mb) = (a.to_csc(), b.to_csc());
        assert!(ma.same_pattern(&mb));
        let mut c = TripletBuilder::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 1, 2.0);
        assert!(!ma.same_pattern(&c.to_csc()));
        assert_eq!(ma.col_ptr(), &[0, 1, 2]);
        assert_eq!(ma.row_indices(), &[0, 1]);
    }

    #[test]
    fn mat_vec() {
        let mut b = TripletBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        let m = b.to_csc();
        let y = m.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn position_values_and_index() {
        let mut b = TripletBuilder::new(3, 2);
        b.push(2, 0, 4.0);
        b.push(0, 0, 1.0);
        b.push(1, 1, 0.0);
        let mut m = b.to_csc();
        assert_eq!(m.position(2, 0), Some(1));
        assert_eq!(m.position(1, 1), Some(2));
        assert_eq!(m.position(1, 0), None);
        m.values_mut()[2] += 5.0;
        assert_eq!(m.values(), &[1.0, 4.0, 5.0]);
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m[(2, 1)], 0.0);
    }

    #[test]
    fn col_iter_sorted_by_row() {
        let mut b = TripletBuilder::new(4, 1);
        b.push(3, 0, 3.0);
        b.push(1, 0, 1.0);
        let m = b.to_csc();
        let col: Vec<_> = m.col_iter(0).collect();
        assert_eq!(col, vec![(1, 1.0), (3, 3.0)]);
    }
}
