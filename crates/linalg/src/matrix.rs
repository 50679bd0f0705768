//! Dense row-major matrix.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense `f64` matrix in row-major storage.
///
/// Sized for the workloads in this workspace: Galerkin matrices up to a few
/// thousand rows and the `N x N_g` Monte Carlo sample blocks of the SSTA.
/// Multiplication can fan out across threads ([`Matrix::mul_threaded`]).
///
/// ```
/// use klest_linalg::Matrix;
/// # fn main() -> Result<(), klest_linalg::LinalgError> {
/// let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
/// let b = Matrix::identity(2);
/// let c = a.mul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        if r == 0 {
            return Err(LinalgError::Empty);
        }
        let c = rows[0].len();
        if c == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    left: (i, row.len()),
                    right: (0, c),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Takes ownership of a row-major buffer.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Is the matrix square?
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrow the contiguous block of `count` rows starting at row
    /// `start` (row-major, so a row block is one flat slice). Parallel
    /// producers use this to hand out disjoint regions.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > rows`.
    #[inline]
    pub fn row_block(&self, start: usize, count: usize) -> &[f64] {
        assert!(
            start + count <= self.rows,
            "row block {start}..{} exceeds {} rows",
            start + count,
            self.rows
        );
        &self.data[start * self.cols..(start + count) * self.cols]
    }

    /// Borrow the contiguous block of `count` rows starting at row
    /// `start` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > rows`.
    #[inline]
    pub fn row_block_mut(&mut self, start: usize, count: usize) -> &mut [f64] {
        assert!(
            start + count <= self.rows,
            "row block {start}..{} exceeds {} rows",
            start + count,
            self.rows
        );
        &mut self.data[start * self.cols..(start + count) * self.cols]
    }

    /// Splits the whole matrix into disjoint mutable row blocks at the
    /// given row boundaries (`bounds[i]..bounds[i+1]` is block `i`;
    /// implicit leading 0 and trailing `rows`). The returned slices
    /// partition the buffer, so independent threads may fill them
    /// concurrently through a scoped spawn.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not non-decreasing or exceeds `rows`.
    pub fn split_row_blocks_mut(&mut self, bounds: &[usize]) -> Vec<&mut [f64]> {
        let cols = self.cols;
        let mut blocks = Vec::with_capacity(bounds.len() + 1);
        let mut rest: &mut [f64] = &mut self.data;
        let mut prev = 0usize;
        for &b in bounds {
            assert!(b >= prev && b <= self.rows, "bad row bound {b}");
            let (head, tail) = rest.split_at_mut((b - prev) * cols);
            blocks.push(head);
            rest = tail;
            prev = b;
        }
        blocks.push(rest);
        blocks
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutably: for in-crate kernels
    /// that need two rows at once.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs` (single-threaded, cache-friendly i-k-j
    /// loop ordering).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if inner dimensions differ.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product using up to `threads` worker threads, splitting the
    /// left operand by row blocks. Falls back to [`Matrix::mul`] for small
    /// problems or `threads <= 1`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if inner dimensions differ.
    pub fn mul_threaded(&self, rhs: &Matrix, threads: usize) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let work = self.rows.saturating_mul(self.cols).saturating_mul(rhs.cols);
        if threads <= 1 || work < 1 << 20 {
            return self.mul(rhs);
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let chunk = self.rows.div_ceil(threads);
        let cols = self.cols;
        std::thread::scope(|scope| {
            for (block, out_block) in self
                .data
                .chunks(chunk * cols)
                .zip(out.data.chunks_mut(chunk * rhs.cols))
            {
                scope.spawn(move || {
                    for (a_row, out_row) in block.chunks(cols).zip(out_block.chunks_mut(rhs.cols)) {
                        for (k, &aik) in a_row.iter().enumerate() {
                            if aik == 0.0 {
                                continue;
                            }
                            let b_row = rhs.row(k);
                            for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                                *o += aik * b;
                            }
                        }
                    }
                });
            }
        });
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect())
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (max norm); 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Maximum absolute asymmetry `|A_ij - A_ji|`; 0 for symmetric.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn asymmetry(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (self.rows, self.cols),
            });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Entrywise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            let cols = self.cols.min(8);
            let row: Vec<String> = self.row(i)[..cols]
                .iter()
                .map(|v| format!("{v:>10.4}"))
                .collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_blocks_partition_the_buffer() {
        let mut m = Matrix::from_fn(6, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.row_block(0, 2), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row_block(5, 1), m.row(5));
        m.row_block_mut(2, 1)[0] = -1.0;
        assert_eq!(m[(2, 0)], -1.0);
        // Disjoint mutable blocks cover every row exactly once.
        let rows = m.rows();
        let cols = m.cols();
        let blocks = m.split_row_blocks_mut(&[2, 4]);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len(), 2 * cols);
        assert_eq!(blocks[1].len(), 2 * cols);
        assert_eq!(blocks[2].len(), 2 * cols);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, rows * cols);
        blocks.into_iter().for_each(|b| b.fill(0.0));
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    #[should_panic]
    fn row_block_out_of_range_panics() {
        let m = Matrix::zeros(3, 3);
        let _ = m.row_block(2, 2);
    }

    #[test]
    fn construction() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);

        let f = Matrix::from_fn(2, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(f[(1, 0)], 10.0);
        assert_eq!(f[(1, 1)], 11.0);
    }

    #[test]
    fn from_rows_errors() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
        let ragged = Matrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0].as_slice()]);
        assert!(matches!(
            ragged.unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(0, 2)], m[(2, 0)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mul_identity_and_known() {
        let a = Matrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
        let b = Matrix::from_rows(&[[5.0, 6.0].as_slice(), [7.0, 8.0].as_slice()]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b).unwrap_err(),
            LinalgError::DimensionMismatch { op: "mul", .. }
        ));
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn mul_threaded_matches_serial() {
        let a = Matrix::from_fn(37, 53, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(53, 29, |i, j| ((i * 3 + j * 17) % 7) as f64 - 3.0);
        let serial = a.mul(&b).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = a.mul_threaded(&b, threads).unwrap();
            let diff = serial.sub(&par).unwrap().max_abs();
            assert_eq!(diff, 0.0, "threads = {threads}");
        }
    }

    #[test]
    fn mul_threaded_large_forced() {
        // Big enough to cross the parallel threshold.
        let a = Matrix::from_fn(128, 128, |i, j| ((i + j) % 5) as f64);
        let b = Matrix::from_fn(128, 128, |i, j| ((i * j) % 3) as f64);
        let serial = a.mul(&b).unwrap();
        let par = a.mul_threaded(&b, 4).unwrap();
        assert_eq!(serial.sub(&par).unwrap().max_abs(), 0.0);
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()]).unwrap();
        let y = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn norms_and_asymmetry() {
        let a = Matrix::from_rows(&[[3.0, 0.0].as_slice(), [0.0, 4.0].as_slice()]).unwrap();
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.asymmetry().unwrap(), 0.0);
        let b = Matrix::from_rows(&[[0.0, 1.0].as_slice(), [2.0, 0.0].as_slice()]).unwrap();
        assert_eq!(b.asymmetry().unwrap(), 1.0);
        assert!(Matrix::zeros(2, 3).asymmetry().is_err());
    }

    #[test]
    fn rows_and_cols_access() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.col(2), vec![2.0, 5.0, 8.0]);
        let mut m2 = m.clone();
        m2.row_mut(0)[0] = 42.0;
        assert_eq!(m2[(0, 0)], 42.0);
        let mut m3 = m;
        m3.scale(2.0);
        assert_eq!(m3[(2, 2)], 16.0);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
        let big = Matrix::zeros(20, 20);
        assert!(format!("{big:?}").contains("..."));
    }
}
