//! Multi-layer perceptron built from [`DenseLayer`]s.

use nnbo_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, DenseLayer};

/// Configuration of an [`Mlp`]: input dimension, hidden widths and output width.
///
/// The paper's feature network (Fig. 1) is "4 fully-connected layers including an
/// input layer, 2 hidden layers and an output layer" with ReLU activations; that
/// corresponds to `MlpConfig::new(d, &[h, h], m)` with the default activations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    input_dim: usize,
    hidden_dims: Vec<usize>,
    output_dim: usize,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl MlpConfig {
    /// Creates a configuration with the given layer sizes, ReLU hidden activations
    /// and a linear output layer.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero, or any hidden width is zero.
    pub fn new(input_dim: usize, hidden_dims: &[usize], output_dim: usize) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(output_dim > 0, "output dimension must be positive");
        assert!(
            hidden_dims.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        MlpConfig {
            input_dim,
            hidden_dims: hidden_dims.to_vec(),
            output_dim,
            hidden_activation: Activation::ReLU,
            output_activation: Activation::Identity,
        }
    }

    /// Sets the hidden-layer activation.
    pub fn with_hidden_activation(mut self, activation: Activation) -> Self {
        self.hidden_activation = activation;
        self
    }

    /// Sets the output-layer activation.
    pub fn with_output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden layer widths.
    pub fn hidden_dims(&self) -> &[usize] {
        &self.hidden_dims
    }

    /// Output (feature) dimension.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }
}

/// Reusable buffers of a training forward/backward pass.
///
/// One workspace serves every epoch of a descent: [`Mlp::forward_cached`]
/// fills it and [`Mlp::backward`] reads it, and neither allocates once the
/// buffers match the batch size.  It holds, per layer, the pre-activations
/// `Z`, the layer outputs `act(Z)` and the gradient with respect to the
/// layer output, which back-propagation turns into the delta `∂loss/∂Z` in
/// place.  The last layer's gradient buffer is the `∂loss/∂output` the
/// caller fills between the two passes ([`TrainWorkspace::output_and_grad`]).
/// The network input is never copied: the first layer reads it by
/// reference.
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// Pre-activations `Z_l`, `N × out_l`.
    pre: Vec<Matrix>,
    /// Layer outputs `act(Z_l)`, `N × out_l`.
    out: Vec<Matrix>,
    /// `∂loss/∂(output of layer l)`, overwritten by `∂loss/∂Z_l` during
    /// [`Mlp::backward`], `N × out_l`.
    grad: Vec<Matrix>,
}

impl TrainWorkspace {
    /// An empty workspace; the first forward pass sizes it.
    pub fn new() -> Self {
        TrainWorkspace::default()
    }

    /// Resizes the buffers for a batch of `n` rows through `mlp`, keeping
    /// them when the shapes already match.
    fn prepare(&mut self, mlp: &Mlp, n: usize) {
        let layers = mlp.layers();
        let fits = self.pre.len() == layers.len()
            && layers
                .iter()
                .zip(&self.pre)
                .all(|(l, z)| z.shape() == (n, l.output_dim()));
        if !fits {
            let buffers = || {
                layers
                    .iter()
                    .map(|l| Matrix::zeros(n, l.output_dim()))
                    .collect::<Vec<_>>()
            };
            self.pre = buffers();
            self.out = buffers();
            self.grad = buffers();
        }
    }

    /// The network output of the last [`Mlp::forward_cached`] (`N ×
    /// output_dim`), together with the `∂loss/∂output` buffer (same shape)
    /// that [`Mlp::backward`] back-propagates.  The caller overwrites
    /// every entry of the buffer; its previous contents are stale.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    pub fn output_and_grad(&mut self) -> (&Matrix, &mut Matrix) {
        let out = self.out.last().expect("forward_cached has not run");
        let grad = self.grad.last_mut().expect("forward_cached has not run");
        (out, grad)
    }
}

/// A multi-layer perceptron.
///
/// In this workspace the MLP is used as a *feature map* `φ: R^d → R^M`: the output
/// of the network is not a prediction by itself but the feature vector that defines
/// the Gaussian-process kernel of the paper's surrogate model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Creates a network with freshly initialised weights.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        let mut layers = Vec::new();
        let mut prev = config.input_dim;
        for &h in &config.hidden_dims {
            layers.push(DenseLayer::new(prev, h, config.hidden_activation, rng));
            prev = h;
        }
        layers.push(DenseLayer::new(
            prev,
            config.output_dim,
            config.output_activation,
            rng,
        ));
        Mlp {
            config: config.clone(),
            layers,
        }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The layers of the network, input to output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.config.input_dim
    }

    /// Output (feature) dimension.
    pub fn output_dim(&self) -> usize {
        self.config.output_dim
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_params).sum()
    }

    /// All parameters flattened into one vector (layer by layer, weights then bias).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            l.append_params(&mut out);
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Self::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != num_params()`.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "parameter count mismatch");
        let mut offset = 0;
        for l in &mut self.layers {
            offset += l.load_params(&flat[offset..]);
        }
    }

    /// Forward pass for a single input point, returning the feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let out = self.forward_batch(&Matrix::from_rows(&[x.to_vec()]));
        out.row(0).to_vec()
    }

    /// Batched forward pass: `X` is `N x input_dim`, the result is `N x output_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        let mut cur = x.clone();
        for l in &self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    /// Training forward pass: runs the batch `x` (`N × input_dim`) through
    /// the network with the parameters read from `params` (the
    /// [`Self::flat_params`] layout) and keeps everything back-propagation
    /// needs in `ws`.  The network's own weights are not read, so a descent
    /// can keep one flat parameter vector and load it into the network only
    /// at the end.  Same arithmetic as [`Self::forward_batch`] at the same
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `x.ncols() != input_dim()` or `params.len() != num_params()`.
    pub fn forward_cached(&self, params: &[f64], x: &Matrix, ws: &mut TrainWorkspace) {
        assert_eq!(x.ncols(), self.input_dim(), "input dimension mismatch");
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        ws.prepare(self, x.nrows());
        let mut offset = 0;
        for (idx, layer) in self.layers.iter().enumerate() {
            let layer_params = &params[offset..offset + layer.num_params()];
            offset += layer.num_params();
            let (done, rest) = ws.out.split_at_mut(idx);
            let input = done.last().map_or(x.as_slice(), Matrix::as_slice);
            layer.forward_into(layer_params, input, &mut ws.pre[idx], &mut rest[0]);
        }
    }

    /// Back-propagates the `∂loss/∂output` the caller wrote into
    /// [`TrainWorkspace::output_and_grad`] through the network, writing the
    /// parameter gradient into `grad` (the [`Self::flat_params`] layout).
    /// `params`, `x` and `ws` must be those of the preceding
    /// [`Self::forward_cached`].  Every entry of `grad` is overwritten, and
    /// the gradient with respect to the network input is not computed.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grad` does not have `num_params()` entries, or
    /// `ws` was not filled by a forward pass over `x`.
    pub fn backward(&self, params: &[f64], x: &Matrix, ws: &mut TrainWorkspace, grad: &mut [f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(grad.len(), self.num_params(), "gradient length mismatch");
        assert!(
            ws.pre.len() == self.layers.len()
                && ws.pre.first().is_some_and(|z| z.nrows() == x.nrows()),
            "workspace does not hold a forward pass over this batch"
        );
        let mut end = self.num_params();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let start = end - layer.num_params();
            let input = match idx {
                0 => x.as_slice(),
                _ => ws.out[idx - 1].as_slice(),
            };
            let (below, at) = ws.grad.split_at_mut(idx);
            layer.backward_into(
                &params[start..end],
                input,
                &ws.pre[idx],
                &mut at[0],
                &mut grad[start..end],
                below.last_mut(),
            );
            end = start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_mlp(seed: u64) -> Mlp {
        let config = MlpConfig::new(3, &[5, 4], 2).with_hidden_activation(Activation::Tanh);
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&config, &mut rng)
    }

    #[test]
    fn shapes_are_consistent() {
        let mlp = small_mlp(1);
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        let y = mlp.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 2);
        let batch = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![1.0, -1.0, 0.5]]);
        assert_eq!(mlp.forward_batch(&batch).shape(), (2, 2));
    }

    #[test]
    fn single_and_batch_forward_agree() {
        let mlp = small_mlp(2);
        let x = vec![0.4, -0.9, 1.3];
        let single = mlp.forward(&x);
        let batch = mlp.forward_batch(&Matrix::from_rows(std::slice::from_ref(&x)));
        for j in 0..2 {
            assert!((single[j] - batch[(0, j)]).abs() < 1e-14);
        }
    }

    #[test]
    fn flat_params_roundtrip() {
        let mlp = small_mlp(3);
        let flat = mlp.flat_params();
        assert_eq!(flat.len(), mlp.num_params());
        let mut copy = small_mlp(99);
        assert_ne!(copy.flat_params(), flat);
        copy.set_flat_params(&flat);
        assert_eq!(copy.flat_params(), flat);
        let x = [0.3, 0.1, -0.2];
        assert_eq!(copy.forward(&x), mlp.forward(&x));
    }

    /// Gradient of the sum-of-squares loss `Σ out²` at the network's own
    /// parameters, through a caller-provided workspace and gradient buffer.
    fn sum_of_squares_gradient(mlp: &Mlp, x: &Matrix, ws: &mut TrainWorkspace, grad: &mut [f64]) {
        let params = mlp.flat_params();
        mlp.forward_cached(&params, x, ws);
        let (out, grad_out) = ws.output_and_grad();
        for (g, o) in grad_out.as_mut_slice().iter_mut().zip(out.as_slice()) {
            *g = 2.0 * o;
        }
        mlp.backward(&params, x, ws, grad);
    }

    #[test]
    fn gradient_append_flat_reuses_the_buffer() {
        // A reused workspace and gradient buffer — stale values from another
        // batch and another network — give the bits of fresh ones.
        let mlp = small_mlp(8);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8]]);
        let mut fresh = vec![0.0; mlp.num_params()];
        sum_of_squares_gradient(&mlp, &x, &mut TrainWorkspace::new(), &mut fresh);

        let mut ws = TrainWorkspace::new();
        let mut reused = vec![42.0; mlp.num_params()];
        let other = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.5, 0.0]]);
        sum_of_squares_gradient(&small_mlp(9), &other, &mut ws, &mut reused);
        sum_of_squares_gradient(&mlp, &x, &mut ws, &mut reused);
        assert_eq!(
            reused.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn training_forward_is_bit_identical_to_the_batched_forward() {
        let mlp = small_mlp(10);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8], vec![-0.3, 0.6, 0.1]]);
        let mut ws = TrainWorkspace::new();
        mlp.forward_cached(&mlp.flat_params(), &x, &mut ws);
        let batched = mlp.forward_batch(&x);
        assert!(ws
            .output_and_grad()
            .0
            .as_slice()
            .iter()
            .zip(batched.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mlp = small_mlp(4);
        let x = Matrix::from_rows(&[vec![0.2, -0.5, 0.8], vec![-0.3, 0.6, 0.1]]);
        // Scalar loss: sum of squares of the outputs.
        let loss = |m: &Mlp| {
            let out = m.forward_batch(&x);
            out.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let mut analytic = vec![0.0; mlp.num_params()];
        sum_of_squares_gradient(&mlp, &x, &mut TrainWorkspace::new(), &mut analytic);

        let base = mlp.flat_params();
        let h = 1e-6;
        let mut max_err = 0.0_f64;
        for k in 0..base.len() {
            let mut plus = base.clone();
            plus[k] += h;
            let mut minus = base.clone();
            minus[k] -= h;
            let mut mp = mlp.clone();
            mp.set_flat_params(&plus);
            let mut mm = mlp.clone();
            mm.set_flat_params(&minus);
            let fd = (loss(&mp) - loss(&mm)) / (2.0 * h);
            max_err = max_err.max((fd - analytic[k]).abs());
        }
        assert!(max_err < 1e-4, "max gradient error {max_err}");
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dimension_panics() {
        let mlp = small_mlp(6);
        let _ = mlp.forward(&[1.0, 2.0]);
    }

    #[test]
    fn relu_network_is_piecewise_linear_in_scale() {
        // Scaling a positive-activation input by a positive factor scales a bias-free
        // ReLU network's output by the same factor (positive homogeneity).
        let config = MlpConfig::new(2, &[8], 3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&config, &mut rng);
        // Zero the biases so homogeneity holds exactly.
        let mut flat = mlp.flat_params();
        // Layer 0: 2*8 weights then 8 biases; layer 1: 8*3 weights then 3 biases.
        for b in flat.iter_mut().skip(16).take(8) {
            *b = 0.0;
        }
        let len = flat.len();
        for b in flat.iter_mut().skip(len - 3) {
            *b = 0.0;
        }
        mlp.set_flat_params(&flat);
        let x = [0.3, 0.9];
        let y1 = mlp.forward(&x);
        let y2 = mlp.forward(&[x[0] * 2.0, x[1] * 2.0]);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-10);
        }
    }
}
