//! Multi-layer perceptron with manual backpropagation.
//!
//! This is the model family used in the full version of the paper's
//! evaluation (an MLP classifier trained on MNIST / spambase). The network is
//! a stack of fully connected layers with a configurable activation, followed
//! by a softmax cross-entropy output layer.

use krum_data::{Batch, Label};
use krum_tensor::{InitStrategy, Matrix, Vector};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::error::ModelError;
use crate::loss::softmax;
use crate::model::{Model, Prediction};

/// Rows per gradient range. [`Mlp::gradient`] splits a batch into
/// consecutive ranges of this many rows and folds their partial sums in
/// range order, so the gradient's bits depend on the batch alone, never on
/// the host's core count. A batch of more than one range fans the ranges out
/// across threads.
const PARALLEL_THRESHOLD: usize = 64;

/// Layer sizes and activation of an MLP; build one with [`MlpBuilder`].
///
/// Parameter layout: for each layer `l` (input → output order), the row-major
/// `out_l × in_l` weight matrix followed by the `out_l` bias vector.
///
/// # Example
///
/// ```
/// use krum_models::{Mlp, MlpBuilder, Model, Activation};
///
/// let mlp: Mlp = MlpBuilder::new(784, 10)
///     .hidden_layer(100)
///     .activation(Activation::Relu)
///     .build()
///     .unwrap();
/// assert_eq!(mlp.dim(), 784 * 100 + 100 + 100 * 10 + 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// Layer widths, including input and output: `[in, h1, …, out]`.
    sizes: Vec<usize>,
    activation: Activation,
}

/// Builder for [`Mlp`] (non-consuming).
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    classes: usize,
    hidden: Vec<usize>,
    activation: Activation,
}

impl MlpBuilder {
    /// Starts a builder for a network mapping `input_dim` features to
    /// `classes` output logits.
    pub fn new(input_dim: usize, classes: usize) -> Self {
        Self {
            input_dim,
            classes,
            hidden: Vec::new(),
            activation: Activation::Relu,
        }
    }

    /// Appends a hidden layer of the given width.
    pub fn hidden_layer(&mut self, width: usize) -> &mut Self {
        self.hidden.push(width);
        self
    }

    /// Sets the hidden-layer activation (default ReLU).
    pub fn activation(&mut self, activation: Activation) -> &mut Self {
        self.activation = activation;
        self
    }

    /// Builds the [`Mlp`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] when the input dimension is zero, the
    /// number of classes is below 2, or any hidden layer has zero width.
    pub fn build(&self) -> Result<Mlp, ModelError> {
        if self.input_dim == 0 {
            return Err(ModelError::BadConfig("input_dim must be >= 1".into()));
        }
        if self.classes < 2 {
            return Err(ModelError::BadConfig("classes must be >= 2".into()));
        }
        if self.hidden.contains(&0) {
            return Err(ModelError::BadConfig(
                "hidden layers must have width >= 1".into(),
            ));
        }
        let mut sizes = Vec::with_capacity(self.hidden.len() + 2);
        sizes.push(self.input_dim);
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.classes);
        Ok(Mlp {
            sizes,
            activation: self.activation,
        })
    }
}

/// Per-layer view of an unpacked parameter vector.
struct Layers {
    weights: Vec<Matrix>,
    biases: Vec<Vector>,
}

impl Mlp {
    /// Layer widths including input and output.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Hidden activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        *self.sizes.last().expect("sizes always has >= 2 entries")
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Number of weight layers.
    fn num_layers(&self) -> usize {
        self.sizes.len() - 1
    }

    fn layer_lengths(&self) -> Vec<usize> {
        let mut lengths = Vec::with_capacity(self.num_layers() * 2);
        for l in 0..self.num_layers() {
            lengths.push(self.sizes[l + 1] * self.sizes[l]);
            lengths.push(self.sizes[l + 1]);
        }
        lengths
    }

    fn unpack(&self, params: &Vector) -> Layers {
        let parts = params
            .split(&self.layer_lengths())
            .expect("parameter layout is fixed by construction");
        let mut weights = Vec::with_capacity(self.num_layers());
        let mut biases = Vec::with_capacity(self.num_layers());
        for l in 0..self.num_layers() {
            let w = Matrix::from_flat(self.sizes[l + 1], self.sizes[l], &parts[2 * l])
                .expect("weight block has rows*cols elements");
            weights.push(w);
            biases.push(parts[2 * l + 1].clone());
        }
        Layers { weights, biases }
    }

    fn pack(&self, weights: &[Matrix], biases: &[Vector]) -> Vector {
        let mut flat = Vec::with_capacity(self.dim());
        for (w, b) in weights.iter().zip(biases) {
            flat.extend_from_slice(w.as_slice());
            flat.extend_from_slice(b.as_slice());
        }
        Vector::from(flat)
    }

    fn check_batch(&self, batch: &Batch) -> Result<(), ModelError> {
        if batch.is_empty() {
            return Err(ModelError::EmptyBatch("Mlp"));
        }
        if batch.features.cols() != self.input_dim() {
            return Err(ModelError::FeatureDimension {
                expected: self.input_dim(),
                found: batch.features.cols(),
            });
        }
        Ok(())
    }

    fn class_target(&self, label: &Label) -> Result<usize, ModelError> {
        match label {
            Label::Class(c) if *c < self.classes() => Ok(*c),
            Label::Class(c) => Err(ModelError::BadLabel(format!(
                "class {c} out of range for {} classes",
                self.classes()
            ))),
            Label::Real(v) => Err(ModelError::BadLabel(format!(
                "MLP expects class labels, got real value {v}"
            ))),
        }
    }

    /// Forward pass for one sample, returning per-layer pre-activations and
    /// activations (the input counts as activation 0).
    fn forward(&self, layers: &Layers, x: &Vector) -> (Vec<Vector>, Vec<Vector>) {
        let mut pre = Vec::with_capacity(self.num_layers());
        let mut act = Vec::with_capacity(self.num_layers() + 1);
        act.push(x.clone());
        for l in 0..self.num_layers() {
            let mut z = layers.weights[l].matvec(act.last().expect("non-empty"));
            z.axpy(1.0, &layers.biases[l]);
            let a = if l + 1 == self.num_layers() {
                // Output layer: logits are passed to softmax by the caller.
                z.clone()
            } else {
                z.map(|v| self.activation.apply(v))
            };
            pre.push(z);
            act.push(a);
        }
        (pre, act)
    }

    /// Softmax probabilities for a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on dimension mismatch.
    pub fn probabilities(
        &self,
        params: &Vector,
        features: &Vector,
    ) -> Result<Vec<f64>, ModelError> {
        self.check_params(params)?;
        if features.dim() != self.input_dim() {
            return Err(ModelError::FeatureDimension {
                expected: self.input_dim(),
                found: features.dim(),
            });
        }
        let layers = self.unpack(params);
        let (_, act) = self.forward(&layers, features);
        Ok(softmax(act.last().expect("non-empty").as_slice()))
    }

    /// Loss and gradient contribution of a contiguous range of samples,
    /// returned as (sum of sample losses, per-layer weight grads, per-layer
    /// bias grads).
    fn range_loss_and_gradient(
        &self,
        layers: &Layers,
        batch: &Batch,
        range: std::ops::Range<usize>,
    ) -> Result<(f64, Vec<Matrix>, Vec<Vector>), ModelError> {
        let mut grad_w: Vec<Matrix> = (0..self.num_layers())
            .map(|l| Matrix::zeros(self.sizes[l + 1], self.sizes[l]))
            .collect();
        let mut grad_b: Vec<Vector> = (0..self.num_layers())
            .map(|l| Vector::zeros(self.sizes[l + 1]))
            .collect();
        let mut loss_sum = 0.0;
        for i in range {
            let (x, label) = batch.sample(i);
            let y = self.class_target(&label)?;
            let (pre, act) = self.forward(layers, &x);
            let probs = softmax(act.last().expect("non-empty").as_slice());
            loss_sum += -probs[y].clamp(1e-12, 1.0).ln();
            // Output delta: softmax − one-hot.
            let mut delta = Vector::from(probs);
            delta[y] -= 1.0;
            // Backwards through the layers.
            for l in (0..self.num_layers()).rev() {
                // Accumulate gradients for layer l: delta ⊗ act[l].
                for (r, &dr) in delta.iter().enumerate() {
                    if dr != 0.0 {
                        grad_b[l][r] += dr;
                        for (c, &ac) in act[l].iter().enumerate() {
                            grad_w[l][(r, c)] += dr * ac;
                        }
                    }
                }
                if l > 0 {
                    // Propagate: delta_{l-1} = (W_lᵀ delta_l) ⊙ act'(pre_{l-1}).
                    let back = layers.weights[l]
                        .try_matvec_transposed(&delta)
                        .expect("delta has layer output dimension");
                    let deriv = pre[l - 1].map(|z| self.activation.derivative(z));
                    delta = back.hadamard(&deriv);
                }
            }
        }
        Ok((loss_sum, grad_w, grad_b))
    }
}

impl Model for Mlp {
    fn dim(&self) -> usize {
        self.layer_lengths().iter().sum()
    }

    fn init_parameters(&self, strategy: InitStrategy, rng: &mut dyn rand::RngCore) -> Vector {
        let mut weights = Vec::with_capacity(self.num_layers());
        let mut biases = Vec::with_capacity(self.num_layers());
        for l in 0..self.num_layers() {
            weights.push(strategy.sample_matrix(self.sizes[l + 1], self.sizes[l], rng));
            biases.push(strategy.sample_vector(self.sizes[l + 1], rng));
        }
        self.pack(&weights, &biases)
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> Result<f64, ModelError> {
        self.check_params(params)?;
        self.check_batch(batch)?;
        let layers = self.unpack(params);
        let mut total = 0.0;
        for i in 0..batch.len() {
            let (x, label) = batch.sample(i);
            let y = self.class_target(&label)?;
            let (_, act) = self.forward(&layers, &x);
            let probs = softmax(act.last().expect("non-empty").as_slice());
            total += -probs[y].clamp(1e-12, 1.0).ln();
        }
        Ok(total / batch.len() as f64)
    }

    fn gradient(&self, params: &Vector, batch: &Batch) -> Result<Vector, ModelError> {
        self.check_params(params)?;
        self.check_batch(batch)?;
        let layers = self.unpack(params);
        let n = batch.len();
        let (_, mut grad_w, mut grad_b) = if n > PARALLEL_THRESHOLD {
            let ranges: Vec<std::ops::Range<usize>> = (0..n)
                .step_by(PARALLEL_THRESHOLD)
                .map(|start| start..(start + PARALLEL_THRESHOLD).min(n))
                .collect();
            let partials: Result<Vec<_>, ModelError> = ranges
                .into_par_iter()
                .map(|r| self.range_loss_and_gradient(&layers, batch, r))
                .collect();
            let mut partials = partials?.into_iter();
            let first = partials.next().expect("at least one range");
            partials.fold(first, |mut acc, part| {
                acc.0 += part.0;
                for (a, p) in acc.1.iter_mut().zip(&part.1) {
                    a.axpy(1.0, p);
                }
                for (a, p) in acc.2.iter_mut().zip(&part.2) {
                    a.axpy(1.0, p);
                }
                acc
            })
        } else {
            self.range_loss_and_gradient(&layers, batch, 0..n)?
        };
        let scale = 1.0 / n as f64;
        for w in &mut grad_w {
            w.scale(scale);
        }
        for b in &mut grad_b {
            b.scale(scale);
        }
        Ok(self.pack(&grad_w, &grad_b))
    }

    fn predict(&self, params: &Vector, features: &Vector) -> Result<Prediction, ModelError> {
        let probs = self.probabilities(params, features)?;
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(Prediction::Class(best))
    }

    fn name(&self) -> &'static str {
        "mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{accuracy, finite_difference_check};
    use krum_data::{generators, BatchSampler};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_mlp() -> Mlp {
        MlpBuilder::new(2, 2)
            .hidden_layer(8)
            .activation(Activation::Tanh)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation_and_dim() {
        assert!(MlpBuilder::new(0, 2).build().is_err());
        assert!(MlpBuilder::new(4, 1).build().is_err());
        assert!(MlpBuilder::new(4, 2).hidden_layer(0).build().is_err());
        let mlp = MlpBuilder::new(4, 3)
            .hidden_layer(5)
            .hidden_layer(6)
            .build()
            .unwrap();
        assert_eq!(mlp.sizes(), &[4, 5, 6, 3]);
        assert_eq!(mlp.dim(), 4 * 5 + 5 + 5 * 6 + 6 + 6 * 3 + 3);
        assert_eq!(mlp.classes(), 3);
        assert_eq!(mlp.input_dim(), 4);
    }

    #[test]
    fn init_round_trips_through_pack_unpack() {
        let mlp = small_mlp();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = mlp.init_parameters(InitStrategy::XavierUniform, &mut rng);
        assert_eq!(params.dim(), mlp.dim());
        let layers = mlp.unpack(&params);
        let repacked = mlp.pack(&layers.weights, &layers.biases);
        assert_eq!(params, repacked);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mlp = small_mlp();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ds = generators::gaussian_blobs(20, 2, 2, 2.0, 0.4, &mut rng).unwrap();
        let batch = BatchSampler::new(ds, 20).unwrap().full_batch();
        let params = mlp.init_parameters(InitStrategy::Gaussian { std: 0.4 }, &mut rng);
        let err = finite_difference_check(&mlp, &params, &batch, 1e-5).unwrap();
        assert!(err < 1e-5, "finite-difference error too large: {err}");
    }

    #[test]
    fn gradient_matches_finite_differences_with_relu_and_two_hidden_layers() {
        let mlp = MlpBuilder::new(3, 3)
            .hidden_layer(6)
            .hidden_layer(4)
            .activation(Activation::Relu)
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ds = generators::gaussian_blobs(15, 3, 3, 2.0, 0.3, &mut rng).unwrap();
        let batch = BatchSampler::new(ds, 15).unwrap().full_batch();
        let params = mlp.init_parameters(InitStrategy::Gaussian { std: 0.4 }, &mut rng);
        let err = finite_difference_check(&mlp, &params, &batch, 1e-5).unwrap();
        // ReLU kinks can inflate the numeric error slightly.
        assert!(err < 1e-4, "finite-difference error too large: {err}");
    }

    #[test]
    fn parallel_and_sequential_gradients_agree() {
        let mlp = MlpBuilder::new(4, 3).hidden_layer(10).build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ds = generators::gaussian_blobs(200, 4, 3, 2.0, 0.3, &mut rng).unwrap();
        let big = BatchSampler::new(ds, 200).unwrap().full_batch();
        let params = mlp.init_parameters(InitStrategy::XavierUniform, &mut rng);
        // The same computation executed sequentially on the full range.
        let layers = mlp.unpack(&params);
        let (_, mut gw, mut gb) = mlp
            .range_loss_and_gradient(&layers, &big, 0..big.len())
            .unwrap();
        let scale = 1.0 / big.len() as f64;
        for w in &mut gw {
            w.scale(scale);
        }
        for b in &mut gb {
            b.scale(scale);
        }
        let sequential = mlp.pack(&gw, &gb);
        let parallel = mlp.gradient(&params, &big).unwrap();
        let diff = (&sequential - &parallel).norm();
        assert!(diff < 1e-9, "parallel/sequential mismatch: {diff}");
    }

    /// The gradient is a serial, in-order fold over fixed 64-row ranges,
    /// bit for bit: its value cannot depend on how many threads the host
    /// offers.
    #[test]
    fn gradient_is_an_in_order_fold_over_fixed_ranges() {
        let mlp = MlpBuilder::new(4, 3).hidden_layer(10).build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let params = mlp.init_parameters(InitStrategy::XavierUniform, &mut rng);
        let layers = mlp.unpack(&params);
        for rows in [63, 64, 65, 200, 3200] {
            let ds = generators::gaussian_blobs(rows, 4, 3, 2.0, 0.3, &mut rng).unwrap();
            let batch = BatchSampler::new(ds, rows).unwrap().full_batch();
            let mut folded: Option<(f64, Vec<Matrix>, Vec<Vector>)> = None;
            for start in (0..rows).step_by(64) {
                let range = start..(start + 64).min(rows);
                let part = mlp.range_loss_and_gradient(&layers, &batch, range).unwrap();
                folded = Some(match folded {
                    None => part,
                    Some(mut acc) => {
                        acc.0 += part.0;
                        for (a, p) in acc.1.iter_mut().zip(&part.1) {
                            a.axpy(1.0, p);
                        }
                        for (a, p) in acc.2.iter_mut().zip(&part.2) {
                            a.axpy(1.0, p);
                        }
                        acc
                    }
                });
            }
            let (_, mut gw, mut gb) = folded.unwrap();
            let scale = 1.0 / rows as f64;
            gw.iter_mut().for_each(|w| w.scale(scale));
            gb.iter_mut().for_each(|b| b.scale(scale));
            let serial = mlp.pack(&gw, &gb);
            let gradient = mlp.gradient(&params, &batch).unwrap();
            assert_eq!(gradient.dim(), serial.dim());
            for (k, (g, s)) in gradient.iter().zip(serial.iter()).enumerate() {
                assert_eq!(g.to_bits(), s.to_bits(), "{rows} rows, coordinate {k}");
            }
        }
    }

    #[test]
    fn training_learns_blobs() {
        let mlp = MlpBuilder::new(2, 3).hidden_layer(16).build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ds = generators::gaussian_blobs(150, 2, 3, 3.0, 0.3, &mut rng).unwrap();
        let batch = BatchSampler::new(ds.clone(), ds.len())
            .unwrap()
            .full_batch();
        let mut params = mlp.init_parameters(InitStrategy::XavierUniform, &mut rng);
        let initial_loss = mlp.loss(&params, &batch).unwrap();
        for _ in 0..200 {
            let g = mlp.gradient(&params, &batch).unwrap();
            params.axpy(-0.5, &g);
        }
        let final_loss = mlp.loss(&params, &batch).unwrap();
        assert!(final_loss < initial_loss * 0.5);
        let acc = accuracy(&mlp, &params, &ds).unwrap().unwrap();
        assert!(acc > 0.9, "accuracy only {acc}");
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let mlp = small_mlp();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let params = mlp.init_parameters(InitStrategy::XavierUniform, &mut rng);
        let p = mlp
            .probabilities(&params, &Vector::from(vec![0.3, -0.7]))
            .unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mlp = small_mlp();
        let params = Vector::zeros(mlp.dim());
        assert!(mlp.predict(&params, &Vector::zeros(5)).is_err());
        assert!(mlp
            .loss(
                &Vector::zeros(3),
                &Batch {
                    features: krum_tensor::Matrix::zeros(1, 2),
                    labels: vec![Label::Class(0)],
                }
            )
            .is_err());
        let bad_label = Batch {
            features: krum_tensor::Matrix::zeros(1, 2),
            labels: vec![Label::Real(0.5)],
        };
        assert!(matches!(
            mlp.gradient(&params, &bad_label),
            Err(ModelError::BadLabel(_))
        ));
        let empty = Batch {
            features: krum_tensor::Matrix::zeros(0, 2),
            labels: vec![],
        };
        assert!(matches!(
            mlp.loss(&params, &empty),
            Err(ModelError::EmptyBatch(_))
        ));
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(small_mlp().name(), "mlp");
    }
}
