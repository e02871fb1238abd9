//! A single fully-connected layer.

use nnbo_linalg::{matmul_slices, matmul_transpose_slices, transpose_matmul_slices, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Activation;

/// A dense (fully-connected) layer `y = act(W x + b)`.
///
/// Weights are stored as an `out x in` matrix so a batched forward pass over an
/// `N x in` input matrix is `X Wᵀ + b` (row-wise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with He-style initialisation for ReLU layers and
    /// Xavier-style initialisation otherwise.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let scale = match activation {
            Activation::ReLU => (2.0 / input_dim as f64).sqrt(),
            _ => (1.0 / input_dim as f64).sqrt(),
        };
        let mut weights = Matrix::zeros(output_dim, input_dim);
        for v in weights.as_mut_slice() {
            // Uniform in [-sqrt(3), sqrt(3)] * scale has the desired variance scale².
            *v = rng.gen_range(-1.0..1.0) * 3.0_f64.sqrt() * scale;
        }
        let bias = vec![0.0; output_dim];
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.ncols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.nrows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Number of scalar parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.nrows() * self.weights.ncols() + self.bias.len()
    }

    /// Appends the layer parameters to a flat vector (weights row-major, then bias).
    pub fn append_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads the layer parameters back from a flat slice, returning how many values
    /// were consumed.
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than [`Self::num_params`].
    pub fn load_params(&mut self, flat: &[f64]) -> usize {
        let nw = self.weights.nrows() * self.weights.ncols();
        assert!(
            flat.len() >= nw + self.bias.len(),
            "parameter slice too short"
        );
        let nb = self.bias.len();
        self.weights.as_mut_slice().copy_from_slice(&flat[..nw]);
        self.bias.copy_from_slice(&flat[nw..nw + nb]);
        nw + nb
    }

    /// Batched pre-activation: `Z = X Wᵀ + b` where `X` is `N x in`.
    pub fn pre_activation(&self, input: &Matrix) -> Matrix {
        let mut z = input.matmul_transpose(&self.weights);
        for i in 0..z.nrows() {
            let row = z.row_mut(i);
            for (zj, bj) in row.iter_mut().zip(self.bias.iter()) {
                *zj += bj;
            }
        }
        z
    }

    /// Batched forward pass: activation applied to the pre-activation.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let act = self.activation;
        self.pre_activation(input).map(|x| act.apply(x))
    }

    /// Splits this layer's slice of a flat parameter vector (the
    /// [`Self::append_params`] layout) into weights (`out × in`, row-major)
    /// and bias.
    fn split_params<'p>(&self, params: &'p [f64]) -> (&'p [f64], &'p [f64]) {
        assert_eq!(
            params.len(),
            self.num_params(),
            "layer parameter count mismatch"
        );
        params.split_at(self.output_dim() * self.input_dim())
    }

    /// Training forward pass with the parameters read from `params` (this
    /// layer's slice of a flat parameter vector) instead of the layer's own
    /// storage: writes `Z = X Wᵀ + b` into `pre` and `act(Z)` into `out`,
    /// both `N × out`, where `input` is the row-major `N × in` batch.  Same
    /// arithmetic as [`Self::forward`].
    pub(crate) fn forward_into(
        &self,
        params: &[f64],
        input: &[f64],
        pre: &mut Matrix,
        out: &mut Matrix,
    ) {
        let (weights, bias) = self.split_params(params);
        let n = pre.nrows();
        matmul_transpose_slices(
            input,
            n,
            self.input_dim(),
            weights,
            self.output_dim(),
            pre.as_mut_slice(),
        );
        for i in 0..n {
            for (zj, bj) in pre.row_mut(i).iter_mut().zip(bias) {
                *zj += bj;
            }
        }
        self.activation
            .apply_into(pre.as_slice(), out.as_mut_slice());
    }

    /// Back-propagation through the layer, with the parameters read from
    /// `params` as in [`Self::forward_into`].
    ///
    /// On entry `delta` holds `∂loss/∂output` (`N × out`); on exit it holds
    /// `∂loss/∂Z`.  The weight gradient `deltaᵀ X` and the bias gradient
    /// (column sums of `delta`) are written into `grad`, this layer's slice
    /// of the flat gradient (same layout as `params`).  `∂loss/∂input =
    /// delta W` (`N × in`) is written into `grad_input` only when one is
    /// given: the first layer's input gradient is never needed in training.
    pub(crate) fn backward_into(
        &self,
        params: &[f64],
        input: &[f64],
        pre: &Matrix,
        delta: &mut Matrix,
        grad: &mut [f64],
        grad_input: Option<&mut Matrix>,
    ) {
        let (weights, _) = self.split_params(params);
        let (n, out_dim, in_dim) = (delta.nrows(), self.output_dim(), self.input_dim());
        self.activation
            .scale_by_derivative(pre.as_slice(), delta.as_mut_slice());
        let (grad_weights, grad_bias) = grad.split_at_mut(out_dim * in_dim);
        transpose_matmul_slices(delta.as_slice(), n, out_dim, input, in_dim, grad_weights);
        grad_bias.fill(0.0);
        for i in 0..n {
            for (gb, d) in grad_bias.iter_mut().zip(delta.row(i)) {
                *gb += d;
            }
        }
        if let Some(grad_input) = grad_input {
            matmul_slices(
                delta.as_slice(),
                n,
                out_dim,
                weights,
                in_dim,
                grad_input.as_mut_slice(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(3, 2, Activation::Identity, &mut rng);
        // Overwrite with known parameters.
        let flat = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5, -0.5];
        layer.load_params(&flat);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (1, 2));
        assert!((y[(0, 0)] - 1.5).abs() < 1e-12);
        assert!((y[(0, 1)] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = DenseLayer::new(4, 3, Activation::ReLU, &mut rng);
        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        assert_eq!(flat.len(), layer.num_params());
        let mut copy = layer.clone();
        let consumed = copy.load_params(&flat);
        assert_eq!(consumed, layer.num_params());
        assert_eq!(copy, layer);
    }

    #[test]
    fn relu_layer_zeroes_negative_preactivations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DenseLayer::new(1, 1, Activation::ReLU, &mut rng);
        layer.load_params(&[-1.0, 0.0]);
        let y = layer.forward(&Matrix::from_rows(&[vec![2.0]]));
        assert_eq!(y[(0, 0)], 0.0);
    }

    /// Forward then backward through `layer` at its own parameters with
    /// `∂loss/∂output = 1` (loss = sum of outputs); returns the parameter
    /// gradient and the input gradient.
    fn backward_of_sum(layer: &DenseLayer, x: &Matrix) -> (Vec<f64>, Matrix) {
        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        let shape = (x.nrows(), layer.output_dim());
        let mut pre = Matrix::zeros(shape.0, shape.1);
        let mut out = Matrix::zeros(shape.0, shape.1);
        layer.forward_into(&flat, x.as_slice(), &mut pre, &mut out);
        assert_eq!(out, layer.forward(x), "training forward must equal forward");
        let mut delta = Matrix::filled(shape.0, shape.1, 1.0);
        // Stale values in the reused buffers must be overwritten, not summed.
        let mut grad = vec![f64::NAN; flat.len()];
        let mut grad_in = Matrix::filled(x.nrows(), layer.input_dim(), f64::NAN);
        layer.backward_into(
            &flat,
            x.as_slice(),
            &pre,
            &mut delta,
            &mut grad,
            Some(&mut grad_in),
        );
        (grad, grad_in)
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = DenseLayer::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.4, 0.9], vec![1.1, 0.2, -0.6]]);
        // Loss = sum of outputs, so grad_output is all ones.
        let loss = |l: &DenseLayer| l.forward(&x).sum();
        let (grad_flat, _) = backward_of_sum(&layer, &x);

        let mut flat = Vec::new();
        layer.append_params(&mut flat);

        let h = 1e-6;
        for k in 0..flat.len() {
            let mut plus = flat.clone();
            plus[k] += h;
            let mut minus = flat.clone();
            minus[k] -= h;
            let mut lp = layer.clone();
            lp.load_params(&plus);
            let mut lm = layer.clone();
            lm.load_params(&minus);
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!(
                (fd - grad_flat[k]).abs() < 1e-5,
                "param {k}: fd {fd} vs analytic {}",
                grad_flat[k]
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = DenseLayer::new(2, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![0.5, -0.2]]);
        let (_, grad_in) = backward_of_sum(&layer, &x);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[(0, j)] += h;
            let mut xm = x.clone();
            xm[(0, j)] -= h;
            let fd = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * h);
            assert!((fd - grad_in[(0, j)]).abs() < 1e-5);
        }
    }
}
