//! The Adam optimizer on flat parameter vectors.
//!
//! The neural GP of the paper trains the network weights *and* the GP
//! hyper-parameters `σn`, `σp` jointly by minimising the negative log marginal
//! likelihood (eq. 11).  Representing the full parameter set as one flat `Vec<f64>`
//! lets a single optimizer state drive all of them.

use serde::{Deserialize, Serialize};

/// Configuration for the [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (default `1e-2`).
    pub learning_rate: f64,
    /// Exponential decay rate for the first moment (default `0.9`).
    pub beta1: f64,
    /// Exponential decay rate for the second moment (default `0.999`).
    pub beta2: f64,
    /// Numerical stabiliser added to the denominator (default `1e-8`).
    pub epsilon: f64,
    /// Maximum allowed gradient L2 norm; gradients are rescaled above it
    /// (default `1e3`, which effectively disables clipping for well-scaled losses).
    pub grad_clip: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            learning_rate: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            grad_clip: 1e3,
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with optional gradient-norm clipping.
///
/// # Example
///
/// ```
/// use nnbo_nn::{Adam, AdamConfig};
///
/// // Minimise f(x) = (x - 3)².
/// let mut adam = Adam::new(AdamConfig { learning_rate: 0.1, ..AdamConfig::default() });
/// let mut params = vec![0.0];
/// for _ in 0..500 {
///     let grad = vec![2.0 * (params[0] - 3.0)];
///     adam.step(&mut params, &grad);
/// }
/// assert!((params[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(AdamConfig::default())
    }
}

impl Adam {
    /// Creates an Adam optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Creates an Adam optimizer with default hyper-parameters and the given
    /// learning rate.
    pub fn with_learning_rate(learning_rate: f64) -> Self {
        Adam::new(AdamConfig {
            learning_rate,
            ..AdamConfig::default()
        })
    }

    /// The configuration of this optimizer.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Performs one update step on `params` given the gradient `grad` of the
    /// loss.  A length change from the previous call restarts the moment
    /// estimates.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grad.len()`.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        self.step_with_squared_norm(params, grad, squared_norm(grad));
    }

    /// [`Adam::step`] with the gradient's sum of squares `Σ g²`
    /// ([`squared_norm`]) already computed by the caller — a training loop
    /// that also reads the gradient norm (for an early stop) computes it once
    /// and shares it.  Gives the bits of `step` when `sum_sq` is
    /// `squared_norm(grad)`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grad.len()`.
    pub fn step_with_squared_norm(&mut self, params: &mut [f64], grad: &[f64], sum_sq: f64) {
        assert_eq!(
            params.len(),
            grad.len(),
            "parameter/gradient length mismatch"
        );
        let coeffs = self.begin_step(params.len(), sum_sq);
        #[cfg(target_arch = "x86_64")]
        if nnbo_linalg::simd_active() {
            // SAFETY: `simd_active()` is only true once the CPU has been
            // probed for AVX2 (and FMA), the one feature the copy enables.
            unsafe { adam_update_avx2(&coeffs, params, grad, &mut self.m, &mut self.v) };
            return;
        }
        adam_update(&coeffs, params, grad, &mut self.m, &mut self.v);
    }

    /// Advances the step counter (sizing the moment estimates on the first
    /// step or a length change) and returns this step's scalars.
    fn begin_step(&mut self, len: usize, sum_sq: f64) -> AdamCoeffs {
        if self.m.len() != len {
            self.m = vec![0.0; len];
            self.v = vec![0.0; len];
            self.t = 0;
        }
        self.t += 1;
        let AdamConfig {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            grad_clip,
        } = self.config;

        let norm = sum_sq.sqrt();
        let scale = if norm > grad_clip && norm > 0.0 {
            grad_clip / norm
        } else {
            1.0
        };
        AdamCoeffs {
            scale,
            beta1,
            one_minus_beta1: 1.0 - beta1,
            beta2,
            one_minus_beta2: 1.0 - beta2,
            bc1: 1.0 - beta1.powi(self.t as i32),
            bc2: 1.0 - beta2.powi(self.t as i32),
            learning_rate,
            epsilon,
        }
    }
}

/// `Σ g²`, summed sequentially in index order — the quantity Adam's
/// gradient clipping takes the norm of, and the one a training loop's
/// gradient-RMS early stop reads.
pub fn squared_norm(grad: &[f64]) -> f64 {
    grad.iter().map(|g| g * g).sum::<f64>()
}

/// The per-step scalars of one Adam update.
struct AdamCoeffs {
    /// Gradient scale from norm clipping (`1.0` when unclipped).
    scale: f64,
    beta1: f64,
    one_minus_beta1: f64,
    beta2: f64,
    one_minus_beta2: f64,
    /// Bias corrections `1 − βᵗ`.
    bc1: f64,
    bc2: f64,
    learning_rate: f64,
    epsilon: f64,
}

/// The element-wise Adam update.  A non-finite scaled gradient component
/// would poison its moment estimates forever, so that component keeps its
/// moments and parameter unchanged; the skip is a select rather than a
/// branch, so the loop vectorises.  Every lane runs the same IEEE operations
/// in the same order, so the result does not depend on the vector width.
#[inline(always)]
fn adam_update_body(
    c: &AdamCoeffs,
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    let n = params.len();
    let (grad, m, v) = (&grad[..n], &mut m[..n], &mut v[..n]);
    for i in 0..n {
        let g = grad[i] * c.scale;
        let keep = g.is_finite();
        let mi = c.beta1 * m[i] + c.one_minus_beta1 * g;
        let vi = c.beta2 * v[i] + c.one_minus_beta2 * g * g;
        let m_hat = mi / c.bc1;
        let v_hat = vi / c.bc2;
        let pi = params[i] - c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
        m[i] = if keep { mi } else { m[i] };
        v[i] = if keep { vi } else { v[i] };
        params[i] = if keep { pi } else { params[i] };
    }
}

/// The portable copy of [`adam_update_body`].
fn adam_update(c: &AdamCoeffs, params: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
    adam_update_body(c, params, grad, m, v);
}

/// [`adam_update_body`] compiled for AVX2 (four lanes per instruction).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn adam_update_avx2(
    c: &AdamCoeffs,
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    adam_update_body(c, params, grad, m, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rosenbrock function and gradient, a classic non-convex optimizer test.
    fn rosenbrock(p: &[f64]) -> (f64, Vec<f64>) {
        let (x, y) = (p[0], p[1]);
        let f = (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2);
        let gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
        let gy = 200.0 * (y - x * x);
        (f, vec![gx, gy])
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut adam = Adam::with_learning_rate(0.05);
        let mut p = vec![5.0, -4.0, 2.0];
        for _ in 0..2000 {
            let grad: Vec<f64> = p.iter().map(|x| 2.0 * x).collect();
            adam.step(&mut p, &grad);
        }
        for x in &p {
            assert!(x.abs() < 1e-3, "param {x} did not converge");
        }
    }

    #[test]
    fn adam_makes_progress_on_rosenbrock() {
        let mut adam = Adam::with_learning_rate(0.02);
        let mut p = vec![-1.0, 1.0];
        let (f0, _) = rosenbrock(&p);
        for _ in 0..5000 {
            let (_, g) = rosenbrock(&p);
            adam.step(&mut p, &g);
        }
        let (f1, _) = rosenbrock(&p);
        assert!(f1 < f0 * 1e-3, "insufficient progress: {f0} -> {f1}");
    }

    #[test]
    fn gradient_clipping_limits_update_size() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.1,
            grad_clip: 1.0,
            ..AdamConfig::default()
        });
        let mut p = vec![0.0, 0.0];
        adam.step(&mut p, &[1e9, 1e9]);
        // Even with a huge gradient the first Adam step is bounded by the LR.
        for x in &p {
            assert!(x.abs() <= 0.1 + 1e-12);
        }
    }

    #[test]
    fn non_finite_gradients_are_ignored() {
        let mut adam = Adam::with_learning_rate(0.1);
        let mut p = vec![1.0, 1.0];
        adam.step(&mut p, &[f64::NAN, 0.5]);
        assert!(p[0].is_finite());
        assert!(
            (p[0] - 1.0).abs() < 1e-12,
            "NaN gradient must not move the parameter"
        );
        assert!(p[1] < 1.0);
    }

    /// Adam as it was written before the update was vectorised: one scalar
    /// loop with a `continue` on every non-finite component.
    struct ReferenceAdam {
        config: AdamConfig,
        m: Vec<f64>,
        v: Vec<f64>,
        t: u64,
    }

    impl ReferenceAdam {
        fn step(&mut self, params: &mut [f64], grad: &[f64]) {
            if self.m.len() != params.len() {
                self.m = vec![0.0; params.len()];
                self.v = vec![0.0; params.len()];
                self.t = 0;
            }
            self.t += 1;
            let AdamConfig {
                learning_rate,
                beta1,
                beta2,
                epsilon,
                grad_clip,
            } = self.config;
            let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            let scale = if norm > grad_clip && norm > 0.0 {
                grad_clip / norm
            } else {
                1.0
            };
            let bc1 = 1.0 - beta1.powi(self.t as i32);
            let bc2 = 1.0 - beta2.powi(self.t as i32);
            for i in 0..params.len() {
                let g = grad[i] * scale;
                if !g.is_finite() {
                    continue;
                }
                self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
                self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
                let m_hat = self.m[i] / bc1;
                let v_hat = self.v[i] / bc2;
                params[i] -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn vectorised_update_matches_the_scalar_reference_bit_for_bit() {
        let config = AdamConfig {
            learning_rate: 0.05,
            grad_clip: 3.0,
            ..AdamConfig::default()
        };
        // 37 components: not a multiple of any vector width.
        let n = 37;
        let gradients: Vec<Vec<f64>> = (0..8)
            .map(|step| {
                (0..n)
                    .map(|i| {
                        let g = ((i * 7 + step * 13) % 11) as f64 * 0.37 - 1.6;
                        match (step, i % 9) {
                            // Steps 0 and 4: finite norm far above the clip.
                            (0 | 4, _) => 25.0 * g,
                            (2, 3) => f64::NAN,
                            (3, 5) => f64::INFINITY,
                            (5, 1) => f64::NEG_INFINITY,
                            (6, 8) => f64::NAN,
                            _ => g,
                        }
                    })
                    .collect()
            })
            .collect();
        assert!(squared_norm(&gradients[0]).sqrt() > config.grad_clip);
        let start: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 1.0).collect();

        let mut reference = ReferenceAdam {
            config,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        };
        let mut expected = start.clone();
        for g in &gradients {
            reference.step(&mut expected, g);
        }

        // Each compiled copy of the update, driven directly (not through the
        // process-wide dispatch), plus `step` on whichever copy it selects.
        type Update = fn(&AdamCoeffs, &mut [f64], &[f64], &mut [f64], &mut [f64]);
        let mut copies: Vec<(&str, Update)> = vec![("portable", adam_update)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just probed for AVX2.
            copies.push(("avx2", |c, p, g, m, v| unsafe {
                adam_update_avx2(c, p, g, m, v)
            }));
        }
        for (name, update) in copies {
            let mut adam = Adam::new(config);
            let mut params = start.clone();
            for g in &gradients {
                let c = adam.begin_step(n, squared_norm(g));
                update(&c, &mut params, g, &mut adam.m, &mut adam.v);
            }
            assert_eq!(bits(&params), bits(&expected), "{name}: parameters");
            assert_eq!(bits(&adam.m), bits(&reference.m), "{name}: first moments");
            assert_eq!(bits(&adam.v), bits(&reference.v), "{name}: second moments");
        }
        let mut adam = Adam::new(config);
        let mut params = start;
        for g in &gradients {
            adam.step(&mut params, g);
        }
        assert_eq!(bits(&params), bits(&expected), "dispatched step");
    }
}
