//! Feed-forward neural-network substrate for the `nnbo` workspace.
//!
//! The paper's surrogate model replaces the explicit Gaussian-process kernel by a
//! learned feature map: a fully-connected network with two hidden layers and ReLU
//! activations (Fig. 1) whose output features `φ(x)` define the kernel
//! `k(x1,x2) = φ(x1)ᵀ Σp φ(x2)`.  This crate provides exactly the pieces that the
//! neural GP needs:
//!
//! * [`Mlp`] — a multi-layer perceptron with batched forward pass and full
//!   back-propagation through cached activations;
//! * [`TrainWorkspace`] — the reusable buffers of a training forward/backward
//!   pass (see below);
//! * [`Activation`] — ReLU / Tanh / Identity activations;
//! * [`Adam`] — the first-order optimizer, operating on flat parameter vectors
//!   so that network weights and GP hyper-parameters can be optimized jointly;
//! * gradient checking helpers used by the test-suite.
//!
//! # Training workspace
//!
//! Training the neural GP is thousands of epochs of one forward pass, one
//! backward pass and one Adam step, so an epoch must not allocate or copy.
//! The training path is built for that:
//!
//! * The descent owns **one flat parameter vector** in the
//!   [`Mlp::flat_params`] layout (the neural GP prepends `log σn, log σp`).
//!   [`Mlp::forward_cached`] and [`Mlp::backward`] read the weights from
//!   that slice, not from the network, and Adam updates it in place.  The
//!   network is loaded from it once, when the descent ends.
//! * A [`TrainWorkspace`] holds the per-layer pre-activations, layer outputs
//!   and output gradients.  It is sized by the first forward pass and reused
//!   by every later one.  The first layer reads the input batch by
//!   reference.  The caller writes `∂loss/∂output` into the buffer returned
//!   by [`TrainWorkspace::output_and_grad`].  Back-propagation turns each
//!   layer's output gradient into its delta in place.
//! * [`Mlp::backward`] writes each layer's weight and bias gradients straight
//!   into the flat gradient slice at the parameter offsets, and skips the
//!   gradient with respect to the network input, which training never reads.
//! * [`Adam`]'s update is branch-free: a non-finite gradient component is
//!   skipped by a select, not a `continue`, so the loop vectorises.  A second
//!   copy is compiled for AVX2 and chosen by [`nnbo_linalg::simd_active`],
//!   the same dispatch as the linear-algebra kernels
//!   (`NNBO_PORTABLE_KERNELS=1` forces the portable copy).  Both copies run
//!   the same IEEE operations per element, so they give the same bits.
//!   [`Adam::step_with_squared_norm`] takes `Σ g²` from a caller that has
//!   already computed it for an early-stop test.
//!
//! The training forward pass runs the same kernels on the same values as
//! [`Mlp::forward_batch`], so training and prediction agree bit for bit.
//!
//! # Example
//!
//! ```
//! use nnbo_nn::{Activation, Mlp, MlpConfig};
//! use rand::SeedableRng;
//!
//! let config = MlpConfig::new(2, &[16, 16], 8)
//!     .with_hidden_activation(Activation::ReLU);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mlp = Mlp::new(&config, &mut rng);
//! let features = mlp.forward(&[0.3, -0.7]);
//! assert_eq!(features.len(), 8);
//! ```

#![warn(missing_docs)]

mod activation;
mod gradcheck;
mod layer;
mod mlp;
mod optimizer;

pub use activation::Activation;
pub use gradcheck::finite_difference_gradient;
pub use layer::DenseLayer;
pub use mlp::{Mlp, MlpConfig, TrainWorkspace};
pub use optimizer::{squared_norm, Adam, AdamConfig};
