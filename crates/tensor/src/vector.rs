//! Dense `f64` vectors in `R^d`.
//!
//! [`Vector`] is the central data type of the reproduction: worker gradient
//! estimates, the parameter vector held by the server, and the output of every
//! aggregation rule are all `Vector`s.

use std::fmt;
use std::iter::FromIterator;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};
use serde::{Deserialize, Serialize};

use crate::error::{ShapeError, TensorError};

/// A dense vector in `R^d` backed by a `Vec<f64>`.
///
/// The type eagerly implements the arithmetic the paper's aggregation rules
/// need: addition, subtraction, scaling, dot products, Euclidean norms and
/// squared distances. All binary operations panic on dimension mismatch (the
/// checked variants `try_*` return [`TensorError`] instead), mirroring the
/// standard-library convention for slices.
///
/// # Example
///
/// ```
/// use krum_tensor::Vector;
///
/// let a = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(a.norm(), 5.0);
/// let b = &a * 2.0;
/// assert_eq!(b.as_slice(), &[6.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![0.0; dim],
        }
    }

    /// Creates a vector of dimension `dim` with every coordinate set to `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Self {
            data: vec![value; dim],
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = Self::zeros(dim);
        v.data[i] = 1.0;
        v
    }

    /// Samples a vector whose coordinates are i.i.d. `N(mean, std^2)`.
    ///
    /// Draws in bulk through [`Normal::fill`]: coordinates `2k` and `2k + 1`
    /// are the two halves of one Box–Muller pair, and the draw consumes
    /// `2⌈dim/2⌉` keystream words.
    pub fn gaussian<R: Rng + ?Sized>(dim: usize, mean: f64, std: f64, rng: &mut R) -> Self {
        let normal = Normal::new(mean, std).expect("standard deviation must be finite and >= 0");
        let mut data = vec![0.0; dim];
        normal.fill(rng, &mut data);
        Self { data }
    }

    /// Samples a vector whose coordinates are i.i.d. uniform on `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(dim: usize, lo: f64, hi: f64, rng: &mut R) -> Self {
        let uniform = Uniform::new(lo, hi);
        Self {
            data: (0..dim).map(|_| uniform.sample(rng)).collect(),
        }
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the coordinates as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the coordinates.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates mutably over the coordinates.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product `<self, other>`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use [`Vector::try_dot`] for a checked variant.
    pub fn dot(&self, other: &Self) -> f64 {
        self.try_dot(other).expect("dimension mismatch in dot")
    }

    /// Checked dot product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Shape`] if the dimensions differ.
    pub fn try_dot(&self, other: &Self) -> Result<f64, TensorError> {
        self.check_same_dim(other, "dot")?;
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Squared Euclidean norm `‖self‖²`.
    pub fn squared_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// Euclidean norm `‖self‖`.
    pub fn norm(&self) -> f64 {
        self.squared_norm().sqrt()
    }

    /// Squared Euclidean distance `‖self − other‖²`.
    ///
    /// This is the quantity Krum sums over a proposal's closest neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ; use [`Vector::try_squared_distance`]
    /// for a checked variant.
    pub fn squared_distance(&self, other: &Self) -> f64 {
        self.try_squared_distance(other)
            .expect("dimension mismatch in squared_distance")
    }

    /// Checked squared Euclidean distance.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Shape`] if the dimensions differ.
    pub fn try_squared_distance(&self, other: &Self) -> Result<f64, TensorError> {
        self.check_same_dim(other, "squared_distance")?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum())
    }

    /// Euclidean distance `‖self − other‖`.
    pub fn distance(&self, other: &Self) -> f64 {
        self.squared_distance(other).sqrt()
    }

    /// In-place `self += alpha * other` (the classic BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch in axpy: {} vs {}",
            self.dim(),
            other.dim()
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sets every coordinate to `value` without changing the dimension (or
    /// reallocating).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Resizes the vector to `dim` coordinates in place, filling any new
    /// coordinates with `value`. Shrinking keeps the existing allocation, so
    /// repeated resizes to the same dimension never reallocate.
    pub fn resize(&mut self, dim: usize, value: f64) {
        self.data.resize(dim, value);
    }

    /// Overwrites the vector with the contents of `src`, adopting its length.
    /// Reuses the existing allocation whenever the capacity suffices — the
    /// zero-allocation primitive behind the aggregation workspace.
    pub fn assign(&mut self, src: &[f64]) {
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    /// Returns `self * alpha` without consuming `self`.
    pub fn scaled(&self, alpha: f64) -> Self {
        Self {
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// Scales the vector in place by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a unit-norm copy of the vector, or `None` if its norm is zero
    /// (or not finite).
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self.scaled(1.0 / n))
        } else {
            None
        }
    }

    /// Cosine of the angle between `self` and `other`, or `None` when either
    /// vector has zero norm.
    pub fn cosine_similarity(&self, other: &Self) -> Option<f64> {
        let denom = self.norm() * other.norm();
        if denom > 0.0 && denom.is_finite() {
            Some(self.dot(other) / denom)
        } else {
            None
        }
    }

    /// Applies `f` to every coordinate, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Applies `f` to every coordinate in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Coordinate-wise sum of the vector.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the coordinates (0.0 for the empty vector).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest coordinate, or `None` for the empty vector.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Smallest coordinate, or `None` for the empty vector.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.min(x)),
        })
    }

    /// Index of the largest coordinate, or `None` for the empty vector.
    /// Ties are broken towards the smallest index.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Returns `true` when every coordinate is finite (neither NaN nor ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Coordinate-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hadamard(&self, other: &Self) -> Self {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch in hadamard: {} vs {}",
            self.dim(),
            other.dim()
        );
        Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Computes the arithmetic mean of a non-empty family of vectors.
    ///
    /// This is the `F_bary` choice function of Section 4 of the paper (plain
    /// averaging), provided here because several crates need it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty family and
    /// [`TensorError::Shape`] if the vectors disagree on dimension.
    pub fn mean_of(vectors: &[Self]) -> Result<Self, TensorError> {
        let first = vectors.first().ok_or(TensorError::Empty("mean_of"))?;
        let mut acc = Self::zeros(first.dim());
        for v in vectors {
            if v.dim() != first.dim() {
                return Err(ShapeError::new(vec![first.dim()], vec![v.dim()], "mean_of").into());
            }
            acc.axpy(1.0, v);
        }
        acc.scale(1.0 / vectors.len() as f64);
        Ok(acc)
    }

    /// Clamps every coordinate into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        self.map(|a| a.clamp(lo, hi))
    }

    /// Concatenates a family of vectors into one long vector.
    pub fn concat(parts: &[Self]) -> Self {
        let mut data = Vec::with_capacity(parts.iter().map(Self::dim).sum());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Self { data }
    }

    /// Splits the vector into consecutive chunks of the given lengths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the lengths do not sum to
    /// the vector's dimension.
    pub fn split(&self, lengths: &[usize]) -> Result<Vec<Self>, TensorError> {
        let total: usize = lengths.iter().sum();
        if total != self.dim() {
            return Err(TensorError::invalid(
                "split",
                format!(
                    "lengths sum to {total} but vector has dimension {}",
                    self.dim()
                ),
            ));
        }
        let mut out = Vec::with_capacity(lengths.len());
        let mut offset = 0;
        for &len in lengths {
            out.push(Self::from(self.data[offset..offset + len].to_vec()));
            offset += len;
        }
        Ok(out)
    }

    fn check_same_dim(&self, other: &Self, context: &'static str) -> Result<(), ShapeError> {
        if self.dim() != other.dim() {
            Err(ShapeError::new(
                vec![self.dim()],
                vec![other.dim()],
                context,
            ))
        } else {
            Ok(())
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &Self::Output {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut Self::Output {
        &mut self.data[index]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl Extend<f64> for Vector {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.data.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(4);
        assert_eq!(z.dim(), 4);
        assert_eq!(z.sum(), 0.0);
        let f = Vector::filled(3, 2.5);
        assert_eq!(f.sum(), 7.5);
    }

    #[test]
    fn basis_vectors_are_orthonormal() {
        let e0 = Vector::basis(3, 0);
        let e1 = Vector::basis(3, 1);
        assert_eq!(e0.norm(), 1.0);
        assert_eq!(e0.dot(&e1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(3, 3);
    }

    #[test]
    fn dot_norm_distance_consistency() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert!((a.squared_distance(&b) - 27.0).abs() < 1e-12);
        assert!((a.distance(&b) - 27.0_f64.sqrt()).abs() < 1e-12);
        // ‖a−b‖² = ‖a‖² + ‖b‖² − 2⟨a,b⟩
        let lhs = a.squared_distance(&b);
        let rhs = a.squared_norm() + b.squared_norm() - 2.0 * a.dot(&b);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn try_dot_rejects_mismatch() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(a.try_dot(&b), Err(TensorError::Shape(_))));
        assert!(a.try_squared_distance(&b).is_err());
    }

    #[test]
    fn fill_resize_assign_reuse_the_allocation() {
        let mut v = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        v.fill(7.0);
        assert_eq!(v.as_slice(), &[7.0; 4]);
        v.resize(2, 0.0);
        assert_eq!(v.as_slice(), &[7.0, 7.0]);
        v.resize(4, 9.0);
        assert_eq!(v.as_slice(), &[7.0, 7.0, 9.0, 9.0]);
        v.assign(&[1.5, 2.5]);
        assert_eq!(v.as_slice(), &[1.5, 2.5]);
        assert_eq!(v.dim(), 2);
    }

    #[test]
    fn axpy_and_operators() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
        let c = &a - &b;
        assert_eq!(c.as_slice(), &[3.0, 4.0]);
        let d = &c * 2.0;
        assert_eq!(d.as_slice(), &[6.0, 8.0]);
        let e = -&d;
        assert_eq!(e.as_slice(), &[-6.0, -8.0]);
        let mut f = Vector::zeros(2);
        f += &d;
        f -= &c;
        assert_eq!(f.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn normalized_and_cosine() {
        let a = Vector::from(vec![3.0, 4.0]);
        let u = a.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(Vector::zeros(2).normalized().is_none());
        let b = Vector::from(vec![6.0, 8.0]);
        assert!((a.cosine_similarity(&b).unwrap() - 1.0).abs() < 1e-12);
        assert!(a.cosine_similarity(&Vector::zeros(2)).is_none());
    }

    #[test]
    fn mean_of_family() {
        let vs = vec![
            Vector::from(vec![1.0, 2.0]),
            Vector::from(vec![3.0, 4.0]),
            Vector::from(vec![5.0, 6.0]),
        ];
        let m = Vector::mean_of(&vs).unwrap();
        assert_eq!(m.as_slice(), &[3.0, 4.0]);
        assert!(matches!(
            Vector::mean_of(&[]),
            Err(TensorError::Empty("mean_of"))
        ));
        let bad = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Vector::mean_of(&bad).is_err());
    }

    #[test]
    fn map_and_reductions() {
        let a = Vector::from(vec![-1.0, 2.0, -3.0]);
        let abs = a.map(f64::abs);
        assert_eq!(abs.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.max(), Some(2.0));
        assert_eq!(a.min(), Some(-3.0));
        assert_eq!(a.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
        assert_eq!(a.mean(), (-1.0 + 2.0 - 3.0) / 3.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn argmax_breaks_ties_towards_smallest_index() {
        let a = Vector::from(vec![1.0, 5.0, 5.0, 2.0]);
        assert_eq!(a.argmax(), Some(1));
    }

    #[test]
    fn gaussian_sampling_is_reproducible_and_roughly_centred() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(7);
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let a = Vector::gaussian(10_000, 1.0, 2.0, &mut rng1);
        let b = Vector::gaussian(10_000, 1.0, 2.0, &mut rng2);
        assert_eq!(a, b);
        assert!((a.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn uniform_sampling_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Vector::uniform(1000, -1.0, 1.0, &mut rng);
        assert!(a.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn hadamard_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![2.0, 0.5, -1.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 1.0, -3.0]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0]);
        let c = Vector::from(vec![4.0, 5.0, 6.0]);
        let whole = Vector::concat(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(whole.dim(), 6);
        let parts = whole.split(&[2, 1, 3]).unwrap();
        assert_eq!(parts, vec![a, b, c]);
        assert!(whole.split(&[2, 2]).is_err());
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn clamp_bounds_coordinates() {
        let a = Vector::from(vec![-5.0, 0.5, 9.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn serde_round_trip() {
        let a = Vector::from(vec![1.5, -2.25]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Vector = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn display_formats_all_coordinates() {
        let a = Vector::from(vec![1.0, 2.0]);
        let s = format!("{a}");
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("1.000000") && s.contains("2.000000"));
    }

    #[test]
    fn from_iterator_and_extend() {
        let v: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        let mut w = Vector::zeros(0);
        w.extend([1.0, 2.0]);
        assert_eq!(w.dim(), 2);
    }
}
