//! Row-major dense matrices.
//!
//! Matrices are only needed by the learning-model substrate (dataset feature
//! matrices, MLP weight layers); the aggregation rules themselves operate on
//! [`Vector`]s. The implementation favours clarity over raw speed, but the
//! mat-mul kernel is cache-friendly (i-k-j loop order) which is plenty for the
//! paper-scale experiments.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};
use serde::{Deserialize, Serialize};

use crate::error::{ShapeError, TensorError};
use crate::vector::Vector;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use krum_tensor::{Matrix, Vector};
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let x = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(m.matvec(&x).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                len: data.len(),
                rows,
                cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally long rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::Shape`] if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, TensorError> {
        let first = rows.first().ok_or(TensorError::Empty("from_rows"))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(ShapeError::new(vec![cols], vec![row.len()], "from_rows").into());
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Samples a matrix with i.i.d. `N(mean, std^2)` entries.
    pub fn gaussian<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        rng: &mut R,
    ) -> Self {
        let normal = Normal::new(mean, std).expect("standard deviation must be finite and >= 0");
        let mut data = vec![0.0; rows * cols];
        normal.fill(rng, &mut data);
        Self { rows, cols, data }
    }

    /// Samples a matrix with i.i.d. uniform entries on `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Self {
        let uniform = Uniform::new(lo, hi);
        Self {
            rows,
            cols,
            data: (0..rows * cols).map(|_| uniform.sample(rng)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the row-major buffer mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a [`Vector`].
    pub fn row_vector(&self, r: usize) -> Vector {
        Vector::from(self.row(r))
    }

    /// Copies column `c` into a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column_vector(&self, c: usize) -> Vector {
        assert!(
            c < self.cols,
            "column {c} out of range for {} cols",
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch; use [`Matrix::try_matvec`] for a checked
    /// variant.
    pub fn matvec(&self, x: &Vector) -> Vector {
        self.try_matvec(x).expect("dimension mismatch in matvec")
    }

    /// Checked matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Shape`] if `x.dim() != cols`.
    pub fn try_matvec(&self, x: &Vector) -> Result<Vector, TensorError> {
        if x.dim() != self.cols {
            return Err(ShapeError::new(vec![self.cols], vec![x.dim()], "matvec").into());
        }
        let xs = x.as_slice();
        let mut out = vec![0.0; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            *o = row.iter().zip(xs).map(|(a, b)| a * b).sum();
        }
        Ok(Vector::from(out))
    }

    /// Transposed matrix–vector product `selfᵀ · x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Shape`] if `x.dim() != rows`.
    pub fn try_matvec_transposed(&self, x: &Vector) -> Result<Vector, TensorError> {
        if x.dim() != self.rows {
            return Err(
                ShapeError::new(vec![self.rows], vec![x.dim()], "matvec_transposed").into(),
            );
        }
        let xs = x.as_slice();
        let mut out = vec![0.0; self.cols];
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            let xr = xs[r];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * xr;
            }
        }
        Ok(Vector::from(out))
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Shape`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(
                vec![self.cols, other.cols],
                vec![other.rows, other.cols],
                "matmul",
            )
            .into());
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Outer product `x · yᵀ`.
    pub fn outer(x: &Vector, y: &Vector) -> Self {
        let mut out = Self::zeros(x.dim(), y.dim());
        for (r, &xr) in x.iter().enumerate() {
            for (c, &yc) in y.iter().enumerate() {
                out.data[r * y.dim() + c] = xr * yc;
            }
        }
        out
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in Matrix::axpy"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns `self * alpha` without consuming `self`.
    pub fn scaled(&self, alpha: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Flattens the matrix into a row-major [`Vector`].
    pub fn flatten(&self) -> Vector {
        Vector::from(self.data.clone())
    }

    /// Rebuilds a matrix from a flattened row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `v.dim() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, v: &Vector) -> Result<Self, TensorError> {
        Self::from_vec(rows, cols, v.as_slice().to_vec())
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &Self::Output {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Self::Output {
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self.data[r * self.cols + c])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::BadBuffer { .. })
        ));
    }

    #[test]
    fn from_rows_validates_consistency() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(3);
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_and_transpose_consistency() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let x = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[-2.0, -2.0]);
        let y = Vector::from(vec![1.0, 1.0]);
        let a = m.try_matvec_transposed(&y).unwrap();
        let b = m.transpose().matvec(&y);
        assert_eq!(a, b);
    }

    #[test]
    fn matvec_rejects_bad_dims() {
        let m = Matrix::zeros(2, 3);
        assert!(m.try_matvec(&Vector::zeros(2)).is_err());
        assert!(m.try_matvec_transposed(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_matches_manual_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn matmul_with_identity_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::gaussian(4, 4, 0.0, 1.0, &mut rng);
        let c = a.matmul(&Matrix::identity(4)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn outer_product() {
        let x = Vector::from(vec![1.0, 2.0]);
        let y = Vector::from(vec![3.0, 4.0, 5.0]);
        let o = Matrix::outer(&x, &y);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
    }

    #[test]
    fn rows_columns_and_iteration() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row_vector(2).as_slice(), &[5.0, 6.0]);
        assert_eq!(m.column_vector(1).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let m = Matrix::uniform(3, 5, -1.0, 1.0, &mut rng);
        let flat = m.flatten();
        let back = Matrix::from_flat(3, 5, &flat).unwrap();
        assert_eq!(m, back);
        assert!(Matrix::from_flat(4, 4, &flat).is_err());
    }

    #[test]
    fn axpy_scale_and_operators() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let c = &a + &b;
        assert_eq!(c[(0, 0)], 2.0);
        let d = &c - &b;
        assert_eq!(d, a);
        let e = &a * 2.0;
        assert_eq!(e[(1, 1)], 8.0);
        assert!((a.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn map_and_is_finite() {
        let a = Matrix::from_rows(&[vec![-1.0, 4.0]]).unwrap();
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 4.0]);
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(!b.is_finite());
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn display_is_not_empty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }
}
