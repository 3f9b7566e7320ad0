//! Random parameter-initialisation strategies.
//!
//! The learning models in `krum-models` initialise their weights through one
//! of these strategies so that every experiment is reproducible from a seed.

use rand::Rng;
use rand_distr::{Distribution, Uniform};
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::vector::Vector;

/// How to draw initial weights.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum InitStrategy {
    /// Every weight is zero. Useful for convex models where the optimum is
    /// independent of the start point.
    Zeros,
    /// i.i.d. Gaussian entries with the given standard deviation.
    Gaussian {
        /// Standard deviation of each entry.
        std: f64,
    },
    /// i.i.d. uniform entries on `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f64,
    },
    /// Xavier/Glorot uniform initialisation: uniform on
    /// `[-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]`.
    #[default]
    XavierUniform,
}

impl InitStrategy {
    /// Samples a `rows × cols` weight matrix (`fan_out × fan_in` convention).
    pub fn sample_matrix<R: Rng + ?Sized>(&self, rows: usize, cols: usize, rng: &mut R) -> Matrix {
        match *self {
            Self::Zeros => Matrix::zeros(rows, cols),
            Self::Gaussian { std } => Matrix::gaussian(rows, cols, 0.0, std, rng),
            Self::Uniform { limit } => Matrix::uniform(rows, cols, -limit, limit, rng),
            Self::XavierUniform => xavier_uniform(rows, cols, rng),
        }
    }

    /// Samples a vector of dimension `dim` (used for bias terms).
    pub fn sample_vector<R: Rng + ?Sized>(&self, dim: usize, rng: &mut R) -> Vector {
        match *self {
            Self::Zeros => Vector::zeros(dim),
            Self::Gaussian { std } => Vector::gaussian(dim, 0.0, std, rng),
            Self::Uniform { limit } => Vector::uniform(dim, -limit, limit, rng),
            // Biases are conventionally initialised at zero under Xavier.
            Self::XavierUniform => Vector::zeros(dim),
        }
    }
}

/// Xavier/Glorot uniform initialisation for a `fan_out × fan_in` matrix.
///
/// # Example
///
/// ```
/// use krum_tensor::xavier_uniform;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let w = xavier_uniform(10, 20, &mut rng);
/// let limit = (6.0_f64 / 30.0).sqrt();
/// assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
/// ```
pub fn xavier_uniform<R: Rng + ?Sized>(fan_out: usize, fan_in: usize, rng: &mut R) -> Matrix {
    let denom = (fan_in + fan_out).max(1) as f64;
    let limit = (6.0 / denom).sqrt();
    if limit == 0.0 {
        return Matrix::zeros(fan_out, fan_in);
    }
    let dist = Uniform::new_inclusive(-limit, limit);
    let data = (0..fan_out * fan_in).map(|_| dist.sample(rng)).collect();
    Matrix::from_vec(fan_out, fan_in, data).expect("buffer length matches by construction")
}

/// Samples a point uniformly on the unit sphere in `R^dim`.
///
/// Used by attack strategies that need an arbitrary direction, and by the
/// resilience estimator when probing worst-case directions.
pub fn random_unit_vector<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Vector {
    loop {
        if let Some(u) = Vector::gaussian(dim, 0.0, 1.0, rng).normalized() {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_strategy() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = InitStrategy::Zeros.sample_matrix(3, 4, &mut rng);
        assert_eq!(m, Matrix::zeros(3, 4));
        assert_eq!(
            InitStrategy::Zeros.sample_vector(5, &mut rng),
            Vector::zeros(5)
        );
    }

    #[test]
    fn gaussian_strategy_is_seed_deterministic() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let strat = InitStrategy::Gaussian { std: 0.5 };
        assert_eq!(
            strat.sample_matrix(4, 4, &mut a),
            strat.sample_matrix(4, 4, &mut b)
        );
    }

    #[test]
    fn uniform_strategy_respects_limit() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let strat = InitStrategy::Uniform { limit: 0.1 };
        let m = strat.sample_matrix(10, 10, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= 0.1));
        let v = strat.sample_vector(10, &mut rng);
        assert!(v.iter().all(|&x| x.abs() <= 0.1));
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let w = xavier_uniform(32, 64, &mut rng);
        let limit = (6.0_f64 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit + 1e-12));
        // Degenerate fan sizes do not panic.
        let z = xavier_uniform(0, 0, &mut rng);
        assert!(z.is_empty());
    }

    #[test]
    fn xavier_biases_are_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(
            InitStrategy::XavierUniform.sample_vector(8, &mut rng),
            Vector::zeros(8)
        );
    }

    #[test]
    fn default_is_xavier() {
        assert_eq!(InitStrategy::default(), InitStrategy::XavierUniform);
    }

    #[test]
    fn random_unit_vector_has_unit_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for dim in [1, 3, 100] {
            let u = random_unit_vector(dim, &mut rng);
            assert_eq!(u.dim(), dim);
            assert!((u.norm() - 1.0).abs() < 1e-12);
        }
    }
}
