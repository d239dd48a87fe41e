//! Dense matrices over GF(2^8).
//!
//! The matrices here are small (at most 256×256 for any supported erasure
//! code), so a simple row-major `Vec<u8>` representation with Gauss–Jordan
//! elimination is both adequate and easy to audit.

use core::fmt;

use crate::tables;
use crate::Gf256;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is not square, but the operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// Dimensions of the operands are incompatible.
    DimensionMismatch {
        /// Description of the mismatch.
        context: &'static str,
    },
    /// A requested row or column index is out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The valid bound (exclusive).
        bound: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::NotSquare { rows, cols } => {
                write!(f, "matrix of size {rows}x{cols} is not square")
            }
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            MatrixError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (< {bound})")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
///
/// # Example
///
/// ```
/// use pbrs_gf::Matrix;
///
/// let v = Matrix::vandermonde(4, 3);
/// // Any 3 rows of a Vandermonde matrix over distinct points are invertible.
/// let top = v.submatrix_rows(&[0, 1, 2]).unwrap();
/// let inv = top.inverted().unwrap();
/// assert_eq!(top.multiply(&inv).unwrap(), Matrix::identity(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major byte vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<u8>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// A `rows`×`cols` Vandermonde matrix whose row `i` is
    /// `[α_i^0, α_i^1, ..., α_i^(cols-1)]` with `α_i = generator^i`, so all
    /// evaluation points are distinct for `rows ≤ 255`.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 255` (evaluation points would repeat).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 255, "at most 255 distinct evaluation points exist");
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            let x = Gf256::alpha(r);
            let mut acc = Gf256::ONE;
            for c in 0..cols {
                m.set(r, c, acc.value());
                acc *= x;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Entry mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u8) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row(&self, row: usize) -> &[u8] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "lhs.cols must equal rhs.rows",
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let prod = tables::mul(a, rhs.get(k, c));
                    let idx = r * out.cols + c;
                    out.data[idx] ^= prod;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `v.len() != cols()`.
    pub fn multiply_vec(&self, v: &[u8]) -> Result<Vec<u8>, MatrixError> {
        if v.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "vector length must equal matrix cols",
            });
        }
        let mut out = vec![0u8; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = 0u8;
            for (c, &vc) in v.iter().enumerate() {
                acc ^= tables::mul(self.get(r, c), vc);
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if the row counts differ.
    pub fn augment(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.rows != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "augment requires equal row counts",
            });
        }
        let mut out = Matrix::zero(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c));
            }
            for c in 0..rhs.cols {
                out.set(r, self.cols + c, rhs.get(r, c));
            }
        }
        Ok(out)
    }

    /// Vertical concatenation of `self` on top of `bottom`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if the column counts differ.
    pub fn stack(&self, bottom: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != bottom.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "stack requires equal column counts",
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&bottom.data);
        Ok(Matrix {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        })
    }

    /// Extracts the submatrix made of the given rows, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] for an invalid row index.
    pub fn submatrix_rows(&self, rows: &[usize]) -> Result<Matrix, MatrixError> {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    index: r,
                    bound: self.rows,
                });
            }
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(r));
        }
        Ok(out)
    }

    /// Extracts a rectangular region `[row0, row1) x [col0, col1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if the region exceeds the
    /// matrix bounds or is empty.
    pub fn submatrix(
        &self,
        row0: usize,
        col0: usize,
        row1: usize,
        col1: usize,
    ) -> Result<Matrix, MatrixError> {
        if row1 > self.rows || row0 >= row1 {
            return Err(MatrixError::IndexOutOfBounds {
                index: row1,
                bound: self.rows,
            });
        }
        if col1 > self.cols || col0 >= col1 {
            return Err(MatrixError::IndexOutOfBounds {
                index: col1,
                bound: self.cols,
            });
        }
        let mut out = Matrix::zero(row1 - row0, col1 - col0);
        for r in row0..row1 {
            for c in col0..col1 {
                out.set(r - row0, c - col0, self.get(r, c));
            }
        }
        Ok(out)
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (first, second) = self.data.split_at_mut(hi * self.cols);
        first[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut second[..self.cols]);
    }

    /// The rank of the matrix (dimension of its row space).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        let mut pivot_row = 0;
        for col in 0..m.cols {
            // Find a pivot at or below pivot_row.
            let mut pivot = None;
            for r in pivot_row..m.rows {
                if m.get(r, col) != 0 {
                    pivot = Some(r);
                    break;
                }
            }
            let Some(p) = pivot else { continue };
            m.swap_rows(pivot_row, p);
            // pbrs-lint: allow(panic-hygiene) -- pivot was chosen as a non-zero entry by the search above
            let inv = tables::inverse(m.get(pivot_row, col)).expect("pivot is non-zero");
            for c in col..m.cols {
                let v = tables::mul(m.get(pivot_row, c), inv);
                m.set(pivot_row, c, v);
            }
            for r in 0..m.rows {
                if r != pivot_row && m.get(r, col) != 0 {
                    let factor = m.get(r, col);
                    for c in col..m.cols {
                        let v = m.get(r, c) ^ tables::mul(factor, m.get(pivot_row, c));
                        m.set(r, c, v);
                    }
                }
            }
            rank += 1;
            pivot_row += 1;
            if pivot_row == m.rows {
                break;
            }
        }
        rank
    }

    /// Returns `true` if the matrix is square and invertible.
    pub fn is_invertible(&self) -> bool {
        self.is_square() && self.rank() == self.rows
    }

    /// The inverse of the matrix, computed by Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square inputs and
    /// [`MatrixError::Singular`] when no inverse exists.
    pub fn inverted(&self) -> Result<Matrix, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut work = self.augment(&Matrix::identity(n))?;
        // Forward elimination with partial "pivoting" (any non-zero pivot).
        for col in 0..n {
            let pivot = (col..n).find(|&r| work.get(r, col) != 0);
            let Some(pivot) = pivot else {
                return Err(MatrixError::Singular);
            };
            work.swap_rows(col, pivot);
            // pbrs-lint: allow(panic-hygiene) -- pivot was chosen as a non-zero entry by the search above
            let inv = tables::inverse(work.get(col, col)).expect("pivot is non-zero");
            for c in 0..2 * n {
                let v = tables::mul(work.get(col, c), inv);
                work.set(col, c, v);
            }
            for r in 0..n {
                if r != col && work.get(r, col) != 0 {
                    let factor = work.get(r, col);
                    for c in 0..2 * n {
                        let v = work.get(r, c) ^ tables::mul(factor, work.get(col, c));
                        work.set(r, c, v);
                    }
                }
            }
        }
        work.submatrix(0, n, n, 2 * n)
    }

    /// Solves `self * x = b` for `x` when `self` is square and invertible.
    ///
    /// # Errors
    ///
    /// Propagates [`MatrixError::NotSquare`] / [`MatrixError::Singular`] from
    /// inversion, and [`MatrixError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[u8]) -> Result<Vec<u8>, MatrixError> {
        if b.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "rhs length must equal matrix rows",
            });
        }
        let inv = self.inverted()?;
        inv.multiply_vec(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let id = Matrix::identity(4);
        let m = Matrix::vandermonde(4, 4);
        assert_eq!(id.multiply(&m).unwrap(), m);
        assert_eq!(m.multiply(&id).unwrap(), m);
    }

    #[test]
    fn vandermonde_rows_and_values() {
        let v = Matrix::vandermonde(5, 3);
        assert_eq!(v.rows(), 5);
        assert_eq!(v.cols(), 3);
        for r in 0..5 {
            assert_eq!(v.get(r, 0), 1);
            let x = Gf256::alpha(r);
            assert_eq!(v.get(r, 1), x.value());
            assert_eq!(v.get(r, 2), (x * x).value());
        }
    }

    #[test]
    fn any_k_rows_of_vandermonde_are_invertible() {
        let v = Matrix::vandermonde(8, 4);
        // Exhaustively test all 4-row subsets of 8 rows (70 subsets).
        let mut subsets = vec![];
        for a in 0..8 {
            for b in a + 1..8 {
                for c in b + 1..8 {
                    for d in c + 1..8 {
                        subsets.push([a, b, c, d]);
                    }
                }
            }
        }
        assert_eq!(subsets.len(), 70);
        for s in subsets {
            let sub = v.submatrix_rows(&s).unwrap();
            assert!(sub.is_invertible(), "subset {s:?} should be invertible");
        }
    }

    #[test]
    fn inverse_round_trip() {
        let m = Matrix::vandermonde(6, 6);
        let inv = m.inverted().unwrap();
        assert_eq!(m.multiply(&inv).unwrap(), Matrix::identity(6));
        assert_eq!(inv.multiply(&m).unwrap(), Matrix::identity(6));
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut m = Matrix::zero(3, 3);
        // Two identical rows -> singular.
        for c in 0..3 {
            m.set(0, c, c as u8 + 1);
            m.set(1, c, c as u8 + 1);
            m.set(2, c, (c as u8 + 1) * 2);
        }
        assert_eq!(m.inverted().unwrap_err(), MatrixError::Singular);
        assert!(!m.is_invertible());
        assert!(m.rank() < 3);
    }

    #[test]
    fn non_square_inversion_rejected() {
        let m = Matrix::zero(2, 3);
        assert_eq!(
            m.inverted().unwrap_err(),
            MatrixError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert!(matches!(
            a.multiply(&b).unwrap_err(),
            MatrixError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn multiply_vec_matches_multiply() {
        let m = Matrix::vandermonde(5, 4);
        let v = vec![9u8, 0, 0xAB, 3];
        let as_col = Matrix::from_rows(4, 1, v.clone());
        let prod = m.multiply(&as_col).unwrap();
        let vecprod = m.multiply_vec(&v).unwrap();
        for (r, &expect) in vecprod.iter().enumerate() {
            assert_eq!(prod.get(r, 0), expect);
        }
    }

    #[test]
    fn augment_and_stack_and_submatrix() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(2, 2, vec![5, 6, 7, 8]);
        let aug = a.augment(&b).unwrap();
        assert_eq!(aug.cols(), 4);
        assert_eq!(aug.get(0, 2), 5);
        assert_eq!(aug.get(1, 3), 8);
        let st = a.stack(&b).unwrap();
        assert_eq!(st.rows(), 4);
        assert_eq!(st.get(2, 0), 5);
        let sub = st.submatrix(2, 0, 4, 2).unwrap();
        assert_eq!(sub, b);
    }

    #[test]
    fn solve_linear_system() {
        let m = Matrix::vandermonde(4, 4);
        let x = vec![1u8, 2, 3, 4];
        let b = m.multiply_vec(&x).unwrap();
        let solved = m.solve(&b).unwrap();
        assert_eq!(solved, x);
    }

    #[test]
    fn rank_of_rectangular() {
        let v = Matrix::vandermonde(6, 3);
        assert_eq!(v.rank(), 3);
        assert_eq!(Matrix::vandermonde(3, 6).rank(), 3);
        let z = Matrix::zero(4, 4);
        assert_eq!(z.rank(), 0);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(3, 2, vec![1, 2, 3, 4, 5, 6]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5, 6]);
        assert_eq!(m.row(2), &[1, 2]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[3, 4]);
    }

    #[test]
    fn debug_output_contains_dimensions() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
    }

    #[test]
    fn submatrix_rows_out_of_bounds() {
        let m = Matrix::identity(2);
        assert!(matches!(
            m.submatrix_rows(&[0, 5]).unwrap_err(),
            MatrixError::IndexOutOfBounds { index: 5, bound: 2 }
        ));
    }
}
