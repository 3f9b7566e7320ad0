//! Synthetic quadratic cost function.
//!
//! `Q(x) = ½ (x − x*)ᵀ diag(a) (x − x*) + c` with known optimum `x*` and known
//! gradient `∇Q(x) = diag(a)(x − x*)`. The theory-facing experiments (E4, E5)
//! use this cost because every quantity appearing in Definition 3.2 and
//! Propositions 4.2/4.3 — `g = ∇Q(x)`, `σ(x)`, `sin α` — can be computed
//! exactly, so measured behaviour can be compared against the analytic bound.

use krum_data::Batch;
use krum_tensor::{InitStrategy, Vector};
use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::model::{Model, Prediction};

/// A strictly convex quadratic cost over `R^d` with diagonal curvature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuadraticCost {
    optimum: Vector,
    curvature: Vector,
    offset: f64,
}

impl QuadraticCost {
    /// Isotropic quadratic `½‖x − x*‖² + offset` centred at `optimum`.
    pub fn isotropic(optimum: Vector, offset: f64) -> Self {
        let curvature = Vector::filled(optimum.dim(), 1.0);
        Self {
            optimum,
            curvature,
            offset,
        }
    }

    /// General diagonal quadratic with per-coordinate curvature `a_i > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] when dimensions differ or any
    /// curvature entry is not strictly positive.
    pub fn diagonal(optimum: Vector, curvature: Vector, offset: f64) -> Result<Self, ModelError> {
        if optimum.dim() != curvature.dim() {
            return Err(ModelError::BadConfig(format!(
                "optimum has dimension {} but curvature has {}",
                optimum.dim(),
                curvature.dim()
            )));
        }
        if curvature.iter().any(|&a| a <= 0.0) {
            return Err(ModelError::BadConfig(
                "curvature entries must be strictly positive".into(),
            ));
        }
        Ok(Self {
            optimum,
            curvature,
            offset,
        })
    }

    /// The unique minimiser `x*`.
    pub fn optimum(&self) -> &Vector {
        &self.optimum
    }

    /// Cost value `Q(x)`.
    pub fn cost(&self, x: &Vector) -> f64 {
        let diff = x - &self.optimum;
        0.5 * diff
            .iter()
            .zip(self.curvature.iter())
            .map(|(d, a)| a * d * d)
            .sum::<f64>()
            + self.offset
    }

    /// Exact gradient `∇Q(x) = diag(a)(x − x*)`, computed as
    /// `(x_i − x*_i) · a_i` in one pass and one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the cost's dimension.
    pub fn true_gradient(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.dim(),
            self.optimum.dim(),
            "dimension mismatch in true_gradient: {} vs {}",
            x.dim(),
            self.optimum.dim()
        );
        self.gradient_terms(x).collect()
    }

    /// Adds `∇Q(x)` into `out` in place: `out_i + (x_i − x*_i) · a_i`.
    /// IEEE addition commutes, so the bits are those of `∇Q(x) + out`.
    /// The caller checks the dimensions.
    pub(crate) fn add_gradient(&self, x: &Vector, out: &mut Vector) {
        for (o, g) in out.iter_mut().zip(self.gradient_terms(x)) {
            *o += g;
        }
    }

    /// The coordinates `(x_i − x*_i) · a_i` of `∇Q(x)`, in order.
    fn gradient_terms<'a>(&'a self, x: &'a Vector) -> impl Iterator<Item = f64> + 'a {
        x.iter()
            .zip(self.optimum.iter().zip(self.curvature.iter()))
            .map(|(x, (opt, a))| (x - opt) * a)
    }
}

impl Model for QuadraticCost {
    fn dim(&self) -> usize {
        self.optimum.dim()
    }

    fn init_parameters(&self, strategy: InitStrategy, rng: &mut dyn rand::RngCore) -> Vector {
        strategy.sample_vector(self.dim(), rng)
    }

    /// The quadratic cost ignores the batch: its loss depends on the
    /// parameters only. The batch may therefore be empty.
    fn loss(&self, params: &Vector, _batch: &Batch) -> Result<f64, ModelError> {
        self.check_params(params)?;
        Ok(self.cost(params))
    }

    /// Exact (deterministic) gradient; stochasticity is added by
    /// [`GaussianEstimator`](crate::GaussianEstimator), not here.
    fn gradient(&self, params: &Vector, _batch: &Batch) -> Result<Vector, ModelError> {
        self.check_params(params)?;
        Ok(self.true_gradient(params))
    }

    fn predict(&self, params: &Vector, _features: &Vector) -> Result<Prediction, ModelError> {
        self.check_params(params)?;
        Ok(Prediction::Value(self.cost(params)))
    }

    fn name(&self) -> &'static str {
        "quadratic-cost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_tensor::Matrix;

    fn empty_batch(dim: usize) -> Batch {
        Batch {
            features: Matrix::zeros(0, dim),
            labels: vec![],
        }
    }

    #[test]
    fn isotropic_cost_and_gradient() {
        let q = QuadraticCost::isotropic(Vector::from(vec![1.0, -1.0]), 0.5);
        assert_eq!(q.dim(), 2);
        let x = Vector::from(vec![2.0, 0.0]);
        // ½ (1 + 1) + 0.5 = 1.5
        assert!((q.cost(&x) - 1.5).abs() < 1e-12);
        assert_eq!(q.true_gradient(&x).as_slice(), &[1.0, 1.0]);
        assert_eq!(q.true_gradient(q.optimum()).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn one_pass_gradient_matches_subtract_then_hadamard_bit_for_bit() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let dim = 257;
        let optimum = Vector::gaussian(dim, 0.0, 3.0, &mut rng);
        let curvature = Vector::uniform(dim, 0.1, 5.0, &mut rng);
        let q = QuadraticCost::diagonal(optimum.clone(), curvature.clone(), 0.0).unwrap();
        for _ in 0..4 {
            let mut x = Vector::gaussian(dim, 1.0, 2.0, &mut rng);
            // Signed zeros and exact cancellation at the optimum.
            x[0] = -0.0;
            x[1] = optimum[1];
            let mut diff = x.clone();
            diff.axpy(-1.0, &optimum);
            let want = diff.hadamard(&curvature);
            let got = q.true_gradient(&x);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn diagonal_validation() {
        let opt = Vector::zeros(3);
        assert!(QuadraticCost::diagonal(opt.clone(), Vector::zeros(2), 0.0).is_err());
        assert!(
            QuadraticCost::diagonal(opt.clone(), Vector::from(vec![1.0, 0.0, 1.0]), 0.0).is_err()
        );
        assert!(QuadraticCost::diagonal(opt, Vector::from(vec![1.0, 2.0, 3.0]), 0.0).is_ok());
    }

    #[test]
    fn diagonal_curvature_scales_gradient() {
        let q = QuadraticCost::diagonal(Vector::zeros(3), Vector::from(vec![1.0, 2.0, 4.0]), 0.0)
            .unwrap();
        let x = Vector::from(vec![1.0, 1.0, 1.0]);
        assert_eq!(q.true_gradient(&x).as_slice(), &[1.0, 2.0, 4.0]);
        assert!((q.cost(&x) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn model_trait_implementation() {
        let q = QuadraticCost::isotropic(Vector::from(vec![0.0, 0.0, 0.0]), 0.0);
        let x = Vector::from(vec![3.0, 0.0, 4.0]);
        let batch = empty_batch(3);
        assert_eq!(q.loss(&x, &batch).unwrap(), 12.5);
        assert_eq!(q.gradient(&x, &batch).unwrap(), x);
        assert!(q.loss(&Vector::zeros(2), &batch).is_err());
        assert_eq!(
            q.predict(&x, &Vector::zeros(0)).unwrap().value(),
            Some(12.5)
        );
        assert_eq!(q.name(), "quadratic-cost");
    }

    #[test]
    fn gradient_descent_converges_to_optimum() {
        let q = QuadraticCost::isotropic(Vector::from(vec![2.0, -3.0, 1.0]), 0.0);
        let batch = empty_batch(3);
        let mut x = Vector::zeros(3);
        for _ in 0..200 {
            let g = q.gradient(&x, &batch).unwrap();
            x.axpy(-0.1, &g);
        }
        assert!(x.distance(q.optimum()) < 1e-6);
    }
}
