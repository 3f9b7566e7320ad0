//! Stochastic gradient estimators — the paper's `G(x, ξ)`.
//!
//! A correct worker computes `V = G(x_t, ξ)` with `E G(x, ξ) = ∇Q(x)`. This
//! module abstracts that computation behind [`GradientEstimator`], with two
//! implementations:
//!
//! * [`BatchGradientEstimator`] — samples a mini-batch from the worker's data
//!   shard and backpropagates a model (the realistic path used by the
//!   MLP/regression experiments);
//! * [`GaussianEstimator`] — returns `∇Q(x) + N(0, σ² I)` for a cost with a
//!   known analytic gradient, which realises *exactly* the
//!   `E‖G − g‖² = d·σ²` assumption of Proposition 4.2 and is used by the
//!   theory-facing experiments.

use krum_data::BatchSampler;
use krum_tensor::Vector;
use rand::Rng;

use crate::error::ModelError;
use crate::model::Model;
use crate::quadratic::QuadraticCost;

/// A source of stochastic gradient estimates at a given parameter vector.
///
/// Estimators are deliberately object-safe so the distributed runtime can hold
/// heterogeneous workers behind `Box<dyn GradientEstimator>`.
pub trait GradientEstimator: Send + Sync {
    /// Dimension `d` of the produced gradients (and of the parameter vector).
    fn dim(&self) -> usize;

    /// Draws one stochastic gradient estimate `G(params, ξ)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when `params` is incompatible with the
    /// underlying model.
    fn estimate(&self, params: &Vector, rng: &mut dyn rand::RngCore) -> Result<Vector, ModelError>;

    /// The true gradient `∇Q(params)` when it is analytically available
    /// (synthetic costs), or a full-data gradient when it is computable, or
    /// `None` otherwise.
    fn true_gradient(&self, params: &Vector) -> Option<Vector>;

    /// Loss at `params` when the estimator can evaluate it (used for metrics
    /// only; `None` when unavailable).
    fn loss(&self, params: &Vector) -> Option<f64>;
}

/// Mini-batch gradient estimator: `G(x, ξ)` = gradient of the model loss on a
/// batch drawn uniformly from the worker's shard.
pub struct BatchGradientEstimator<M> {
    model: M,
    sampler: BatchSampler,
}

impl<M: Model> BatchGradientEstimator<M> {
    /// Creates an estimator for `model` drawing batches from `sampler`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureDimension`] if the sampler's dataset and
    /// the model disagree on the feature dimension (detected lazily for models
    /// whose input dimension is not visible here — the first `estimate` call
    /// surfaces the error).
    pub fn new(model: M, sampler: BatchSampler) -> Result<Self, ModelError> {
        Ok(Self { model, sampler })
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The wrapped batch sampler.
    pub fn sampler(&self) -> &BatchSampler {
        &self.sampler
    }
}

impl<M: Model> GradientEstimator for BatchGradientEstimator<M> {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn estimate(&self, params: &Vector, rng: &mut dyn rand::RngCore) -> Result<Vector, ModelError> {
        let batch = self.sampler.sample(rng);
        self.model.gradient(params, &batch)
    }

    fn true_gradient(&self, params: &Vector) -> Option<Vector> {
        let batch = self.sampler.full_batch();
        self.model.gradient(params, &batch).ok()
    }

    fn loss(&self, params: &Vector) -> Option<f64> {
        let batch = self.sampler.full_batch();
        self.model.loss(params, &batch).ok()
    }
}

/// Gaussian estimator around an analytic gradient:
/// `G(x, ξ) = ∇Q(x) + ξ`, `ξ ~ N(0, σ² I_d)`, so that
/// `E‖G(x, ξ) − ∇Q(x)‖² = d σ²` exactly as in Proposition 4.2.
pub struct GaussianEstimator {
    cost: QuadraticCost,
    sigma: f64,
}

impl GaussianEstimator {
    /// Creates an estimator with per-coordinate noise `σ = sigma` around the
    /// gradient of `cost`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] for a negative `sigma`.
    pub fn new(cost: QuadraticCost, sigma: f64) -> Result<Self, ModelError> {
        if sigma < 0.0 || !sigma.is_finite() {
            return Err(ModelError::BadConfig(format!(
                "sigma must be finite and >= 0, got {sigma}"
            )));
        }
        Ok(Self { cost, sigma })
    }

    /// Per-coordinate noise standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The underlying quadratic cost.
    pub fn cost(&self) -> &QuadraticCost {
        &self.cost
    }
}

impl GradientEstimator for GaussianEstimator {
    fn dim(&self) -> usize {
        self.cost.dim()
    }

    fn estimate(&self, params: &Vector, rng: &mut dyn rand::RngCore) -> Result<Vector, ModelError> {
        if params.dim() != self.dim() {
            return Err(ModelError::ParameterDimension {
                expected: self.dim(),
                found: params.dim(),
            });
        }
        if self.sigma == 0.0 {
            return Ok(self.cost.true_gradient(params));
        }
        // One vector: ξ is drawn into it and ∇Q(x) added in place.
        let mut g = Vector::gaussian(self.dim(), 0.0, self.sigma, rng);
        self.cost.add_gradient(params, &mut g);
        Ok(g)
    }

    fn true_gradient(&self, params: &Vector) -> Option<Vector> {
        (params.dim() == self.dim()).then(|| self.cost.true_gradient(params))
    }

    fn loss(&self, params: &Vector) -> Option<f64> {
        (params.dim() == self.dim()).then(|| self.cost.cost(params))
    }
}

/// Draws `count` i.i.d. estimates at the same parameter vector — a convenience
/// used by the resilience experiments, which need a cloud of "correct worker"
/// proposals at a fixed `x`.
///
/// # Errors
///
/// Propagates the first estimator error encountered.
pub fn sample_estimates<E: GradientEstimator + ?Sized, R: Rng>(
    estimator: &E,
    params: &Vector,
    count: usize,
    rng: &mut R,
) -> Result<Vec<Vector>, ModelError> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(estimator.estimate(params, rng)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use krum_data::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gaussian_estimator_validation() {
        let cost = QuadraticCost::isotropic(Vector::zeros(3), 0.0);
        assert!(GaussianEstimator::new(cost.clone(), -1.0).is_err());
        assert!(GaussianEstimator::new(cost.clone(), f64::NAN).is_err());
        let est = GaussianEstimator::new(cost, 0.5).unwrap();
        assert_eq!(est.dim(), 3);
        assert_eq!(est.sigma(), 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(est.estimate(&Vector::zeros(2), &mut rng).is_err());
        assert!(est.true_gradient(&Vector::zeros(2)).is_none());
    }

    #[test]
    fn gaussian_estimator_is_unbiased_with_variance_d_sigma_squared() {
        let dim = 20;
        let sigma = 0.3;
        let cost = QuadraticCost::isotropic(Vector::zeros(dim), 0.0);
        let est = GaussianEstimator::new(cost, sigma).unwrap();
        let x = Vector::filled(dim, 1.0);
        let g = est.true_gradient(&x).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let samples = sample_estimates(&est, &x, 4000, &mut rng).unwrap();
        let mean = Vector::mean_of(&samples).unwrap();
        assert!(mean.distance(&g) < 0.05, "estimator should be unbiased");
        let mean_sq_dev: f64 =
            samples.iter().map(|s| s.squared_distance(&g)).sum::<f64>() / samples.len() as f64;
        let expected = dim as f64 * sigma * sigma;
        assert!(
            (mean_sq_dev - expected).abs() / expected < 0.1,
            "E‖G − g‖² = {mean_sq_dev}, expected ≈ {expected}"
        );
    }

    #[test]
    fn gaussian_estimate_is_the_gradient_plus_its_noise_bit_for_bit() {
        // Odd d, zero gradient coordinates of both signs.
        let dim = 65;
        let optimum = Vector::from((0..dim).map(|i| 0.25 * i as f64 - 4.0).collect::<Vec<_>>());
        let curvature = Vector::from((0..dim).map(|i| 1.0 + (i % 7) as f64).collect::<Vec<_>>());
        let cost = QuadraticCost::diagonal(optimum.clone(), curvature, 0.0).unwrap();
        let est = GaussianEstimator::new(cost.clone(), 0.3).unwrap();
        let mut params = optimum.clone();
        // x*_16 = +0, so x_16 = −0 gives a −0 gradient coordinate.
        params.as_mut_slice()[16] = -0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut reference = rng.clone();
        let got = est.estimate(&params, &mut rng).unwrap();
        let mut want = cost.true_gradient(&params);
        want.axpy(1.0, &Vector::gaussian(dim, 0.0, 0.3, &mut reference));
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn gaussian_estimator_with_zero_noise_is_exact() {
        let cost = QuadraticCost::isotropic(Vector::from(vec![1.0, 2.0]), 0.0);
        let est = GaussianEstimator::new(cost.clone(), 0.0).unwrap();
        let x = Vector::from(vec![3.0, 3.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(est.estimate(&x, &mut rng).unwrap(), cost.true_gradient(&x));
        assert_eq!(est.loss(&x), Some(cost.cost(&x)));
    }

    #[test]
    fn batch_estimator_is_approximately_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (ds, _, _) = generators::linear_regression(400, 4, 0.1, &mut rng).unwrap();
        let model = LinearRegression::new(4);
        let full = BatchSampler::new(ds.clone(), ds.len()).unwrap();
        let mini = BatchSampler::new(ds, 16).unwrap();
        let est = BatchGradientEstimator::new(model.clone(), mini).unwrap();
        let full_est = BatchGradientEstimator::new(model, full).unwrap();
        assert_eq!(est.dim(), 5);
        let params = Vector::gaussian(5, 0.0, 1.0, &mut rng);
        let exact = full_est.true_gradient(&params).unwrap();
        let samples = sample_estimates(&est, &params, 2000, &mut rng).unwrap();
        let mean = Vector::mean_of(&samples).unwrap();
        let relative = mean.distance(&exact) / exact.norm().max(1e-9);
        assert!(relative < 0.1, "relative bias {relative}");
        assert!(est.loss(&params).is_some());
    }

    #[test]
    fn estimators_are_object_safe() {
        let cost = QuadraticCost::isotropic(Vector::zeros(2), 0.0);
        let boxed: Box<dyn GradientEstimator> =
            Box::new(GaussianEstimator::new(cost, 0.1).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = boxed.estimate(&Vector::zeros(2), &mut rng).unwrap();
        assert_eq!(g.dim(), 2);
    }

    #[test]
    fn accessors_expose_configuration() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ds = generators::gaussian_blobs(20, 2, 2, 1.0, 0.2, &mut rng).unwrap();
        let sampler = BatchSampler::new(ds, 4).unwrap();
        let est = BatchGradientEstimator::new(LinearRegression::new(2), sampler).unwrap();
        assert_eq!(est.model().input_dim(), 2);
        assert_eq!(est.sampler().batch_size(), 4);
        let cost = QuadraticCost::isotropic(Vector::zeros(2), 0.0);
        let gauss = GaussianEstimator::new(cost, 0.2).unwrap();
        assert_eq!(gauss.cost().dim(), 2);
    }
}
