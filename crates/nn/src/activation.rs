//! Elementwise activation functions.

use serde::{Deserialize, Serialize};

/// Elementwise activation function used by [`crate::DenseLayer`].
///
/// The paper's feature network uses ReLU in the hidden layers (Fig. 1); the output
/// layer is linear (identity) so that the features can take arbitrary sign, and Tanh
/// is provided for experimentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    #[default]
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear) activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation evaluated at pre-activation `x`.
    ///
    /// For ReLU the sub-gradient at exactly zero is taken to be 0.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// `dst[i] = apply(src[i])`, with the activation chosen once outside the
    /// loop so the ReLU and identity cases vectorise.
    pub(crate) fn apply_into(self, src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len());
        match self {
            Activation::ReLU => dst.iter_mut().zip(src).for_each(|(d, &x)| *d = x.max(0.0)),
            Activation::Tanh => dst.iter_mut().zip(src).for_each(|(d, &x)| *d = x.tanh()),
            Activation::Identity => dst.copy_from_slice(src),
        }
    }

    /// `grad[i] *= derivative(pre[i])`: turns `∂loss/∂output` into
    /// `∂loss/∂pre-activation` in place, with the same per-element product
    /// as the scalar [`Activation::derivative`].
    pub(crate) fn scale_by_derivative(self, pre: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(pre.len(), grad.len());
        let pairs = grad.iter_mut().zip(pre);
        match self {
            Activation::ReLU => pairs.for_each(|(g, &x)| *g *= Activation::ReLU.derivative(x)),
            Activation::Tanh => pairs.for_each(|(g, &x)| *g *= Activation::Tanh.derivative(x)),
            Activation::Identity => pairs.for_each(|(g, _)| *g *= 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_values_and_derivative() {
        assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
        assert_eq!(Activation::ReLU.apply(3.0), 3.0);
        assert_eq!(Activation::ReLU.derivative(-1.0), 0.0);
        assert_eq!(Activation::ReLU.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_matches_std() {
        let x = 0.7;
        assert!((Activation::Tanh.apply(x) - x.tanh()).abs() < 1e-15);
        let d = Activation::Tanh.derivative(x);
        assert!((d - (1.0 - x.tanh() * x.tanh())).abs() < 1e-15);
    }

    #[test]
    fn identity_is_transparent() {
        assert_eq!(Activation::Identity.apply(-5.5), -5.5);
        assert_eq!(Activation::Identity.derivative(123.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::ReLU, Activation::Tanh, Activation::Identity] {
            for &x in &[-1.3, -0.2, 0.4, 2.1] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (act.derivative(x) - fd).abs() < 1e-5,
                    "{act:?} derivative mismatch at {x}"
                );
            }
        }
    }
}
