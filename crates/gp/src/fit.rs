//! The shared fit context and the warm/cold hyper-parameter optimizer.
//!
//! Refitting a GP during Bayesian optimization has two structural redundancies
//! that this module removes:
//!
//! * **Within one fit** — every Adam iteration needs the kernel matrix and the
//!   gradient of the log marginal likelihood with respect to each
//!   log-lengthscale.  Both are functions of the *pairwise per-dimension
//!   squared differences* of the training rows, which do not depend on the
//!   hyper-parameters at all.  [`FitContext`] computes that `N × N × D` tensor
//!   once per refit; every iteration then builds the Gram matrix by a weighted
//!   reduction over it and accumulates all `D` lengthscale gradients in a
//!   single fused pass — no per-iteration `∂K/∂θ` matrices are materialised.
//! * **Across outputs** — the constrained BO loop fits one surrogate per
//!   output (objective plus each constraint) over the *same* `X`, so one
//!   [`FitContext`] serves every output of a
//!   [`crate::GpModel::fit_multi`] call; only the per-output Adam state,
//!   Cholesky factors and gradient scratch ([`FitScratch`]) are private.
//!
//! Warm starts remove a third redundancy *across refits*: once a model has
//! been fitted, the next refit (one appended observation) starts Adam from the
//! previous optimum and runs [`crate::GpConfig::warm_iters`] iterations instead
//! of `restarts × max_iters`, with a cold-restart fallback when the warm
//! path's NLL regresses past the standard initial point.

use nnbo_linalg::{Cholesky, Matrix};
use nnbo_nn::Adam;
use rand::Rng;

use crate::{GpConfig, GpError, GpHyperParams};

/// Hyper-parameter-independent structure shared by every output and every
/// optimizer iteration of one refit: the pairwise per-dimension squared
/// differences of the training rows.
///
/// The tensor is stored with *capacity-strided* rows so a Bayesian-
/// optimization loop can grow it by one observation at a time
/// ([`FitContext::append`], `O(N·D)` amortised) instead of rebuilding the
/// whole `N × N × D` tensor every refit; [`FitContext::update_to`] applies
/// that incrementally whenever the new design matrix extends the previous
/// one and falls back to a full rebuild otherwise.  Appended entries are
/// computed by exactly the arithmetic the full rebuild uses, so an
/// incrementally grown context is bit-identical to a fresh one.
#[derive(Debug, Clone)]
pub struct FitContext {
    n: usize,
    dim: usize,
    /// Row stride of the tensor in points (`cap ≥ n`); rows are laid out at
    /// this stride so appends only re-layout when the capacity is exhausted.
    cap: usize,
    /// `sqdiff[(i·cap + j)·dim + d] = (x_i,d − x_j,d)²` — symmetric in
    /// `(i, j)`, zero diagonal; laid out with `d` fastest so the fused
    /// gradient pass reads one contiguous `D`-stripe per matrix entry.
    sqdiff: Vec<f64>,
    /// The training rows the tensor describes, kept so [`FitContext::append`]
    /// can difference a new point against them and
    /// [`FitContext::update_to`] can verify the prefix.
    x: Matrix,
}

impl FitContext {
    /// Builds the context for the training rows of `x` (`N × D`).
    pub fn new(x: &Matrix) -> Self {
        let n = x.nrows();
        let dim = x.ncols();
        let mut sqdiff = vec![0.0; n * n * dim];
        for i in 0..n {
            let xi = x.row(i);
            for j in 0..i {
                let xj = x.row(j);
                let lower = (i * n + j) * dim;
                let upper = (j * n + i) * dim;
                for d in 0..dim {
                    let diff = xi[d] - xj[d];
                    let sq = diff * diff;
                    sqdiff[lower + d] = sq;
                    sqdiff[upper + d] = sq;
                }
            }
        }
        FitContext {
            n,
            dim,
            cap: n,
            sqdiff,
            x: x.clone(),
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the context covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `D`-stripe of squared per-dimension differences between points `i`
    /// and `j`.
    #[inline]
    pub(crate) fn stripe(&self, i: usize, j: usize) -> &[f64] {
        let base = (i * self.cap + j) * self.dim;
        &self.sqdiff[base..base + self.dim]
    }

    /// Appends one training point: one new row/column of squared differences,
    /// `O(N·D)` work (amortised — the tensor re-layouts only when its
    /// capacity is exhausted, growing by 25% then).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub fn append(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "append dimension mismatch");
        let n = self.n;
        let dim = self.dim;
        if n + 1 > self.cap {
            let new_cap = (n + 1) + (n + 1) / 4;
            let mut grown = vec![0.0; new_cap * new_cap * dim];
            for i in 0..n {
                grown[i * new_cap * dim..(i * new_cap + n) * dim]
                    .copy_from_slice(&self.sqdiff[i * self.cap * dim..(i * self.cap + n) * dim]);
            }
            self.sqdiff = grown;
            self.cap = new_cap;
        }
        let cap = self.cap;
        for j in 0..n {
            let xj = self.x.row(j);
            let lower = (n * cap + j) * dim;
            let upper = (j * cap + n) * dim;
            for d in 0..dim {
                let diff = row[d] - xj[d];
                let sq = diff * diff;
                self.sqdiff[lower + d] = sq;
                self.sqdiff[upper + d] = sq;
            }
        }
        let diag = (n * cap + n) * dim;
        self.sqdiff[diag..diag + dim].fill(0.0);
        self.x = Matrix::vstack(&self.x, &Matrix::from_rows(&[row.to_vec()]));
        self.n = n + 1;
    }

    /// Brings the context up to date with `x`: when `x` extends the rows the
    /// context was built from (the append-only growth of a BO history), the
    /// missing points are [`FitContext::append`]ed in `O(N·D)` each and the
    /// call returns `true`; any other change triggers a full rebuild and
    /// returns `false`.  Either way the context describes exactly `x`
    /// afterwards, bit-identical to `FitContext::new(x)`.
    pub fn update_to(&mut self, x: &Matrix) -> bool {
        let extends = self.n > 0
            && x.ncols() == self.dim
            && x.nrows() >= self.n
            && x.as_slice()[..self.n * self.dim] == *self.x.as_slice();
        if !extends {
            *self = FitContext::new(x);
            return false;
        }
        for r in self.n..x.nrows() {
            self.append(x.row(r));
        }
        true
    }

    /// Writes the ARD-SE kernel matrix for inverse squared lengthscale weights
    /// `inv_sq` and signal variance `sf2` into `out` (resized when needed).
    ///
    /// The direct distance evaluation is at least as accurate as the norm
    /// expansion used on the prediction path (no cancellation of large common
    /// offsets), and exactly symmetric with `σf²` on the diagonal.  The
    /// weighted reduction per entry runs on the dispatched FMA dot kernel.
    pub(crate) fn gram_into(&self, inv_sq: &[f64], sf2: f64, out: &mut Matrix) {
        debug_assert_eq!(inv_sq.len(), self.dim);
        let n = self.n;
        if out.shape() != (n, n) {
            *out = Matrix::zeros(n, n);
        }
        for i in 0..n {
            out[(i, i)] = sf2;
            for j in 0..i {
                let d2 = nnbo_linalg::fused_dot(self.stripe(i, j), inv_sq);
                let v = sf2 * (-0.5 * d2).exp();
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
    }
}

/// Per-output scratch buffers of the NLL/gradient evaluation, allocated once
/// per output and reused across every Adam iteration of a fit.
#[derive(Debug, Clone)]
pub struct FitScratch {
    /// Kernel matrix without noise (kept for the gradient pass).
    gram: Matrix,
    /// `K + σn² I`, the matrix handed to the Cholesky factorization.
    k: Matrix,
    /// Dense `(K + σn² I)⁻¹` for the trace terms.
    k_inv: Matrix,
    /// Scratch for the triangular inverse `L⁻¹` of the dpotri-style pass.
    k_inv_work: Matrix,
    /// Centred targets `y − µ0`.
    residual: Vec<f64>,
    /// Inverse squared lengthscales of the current iterate.
    inv_sq: Vec<f64>,
    /// Per-dimension lengthscale trace-term accumulators.
    ls_grad: Vec<f64>,
    /// Gradient with respect to `[log σf, log l_1.., log σn, µ0]`.
    pub(crate) grad: Vec<f64>,
}

impl FitScratch {
    /// Allocates scratch for `n` training points in `dim` dimensions.
    pub fn new(n: usize, dim: usize) -> Self {
        FitScratch {
            gram: Matrix::zeros(n, n),
            k: Matrix::zeros(n, n),
            k_inv: Matrix::zeros(n, n),
            k_inv_work: Matrix::zeros(n, n),
            residual: vec![0.0; n],
            inv_sq: vec![0.0; dim],
            ls_grad: vec![0.0; dim],
            grad: vec![0.0; dim + 3],
        }
    }

    /// The gradient left by the last evaluation, ordered
    /// `[log σf, log l_1.., log σn, µ0]`.
    pub fn grad(&self) -> &[f64] {
        &self.grad
    }
}

/// How the NLL gradient obtains the dense `(K + σn²I)⁻¹` it traces against.
///
/// [`InverseStrategy::Symmetric`] is the production path; the dense-sweep
/// variant is kept so benchmarks and property tests can compare the two on
/// identical inputs (`reproduce fit`'s `symmetric_inverse` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InverseStrategy {
    /// dpotri-style: invert the triangular factor, form `WᵀW` touching only
    /// the lower triangle, and run the fused trace pass over that triangle
    /// (off-diagonal terms doubled) — roughly half the work of the sweeps.
    Symmetric,
    /// Two dense triangular sweeps over the identity
    /// ([`Cholesky::inverse_into`]) and a full-square trace pass — the
    /// pre-dpotri reference.
    DenseSweeps,
}

/// Negative log marginal likelihood (eq. 4) at `hyper`, with the gradient with
/// respect to the flat hyper-parameter vector left in `scratch.grad`.
///
/// Returns `None` when the kernel matrix cannot be factored or the likelihood
/// or gradient is not finite, which the optimizer treats as "stop here".
/// Arithmetic notes: the Gram matrix comes from the context's distance tensor
/// (one weighted reduction per entry), and all `D` lengthscale trace terms are
/// accumulated in one fused pass over `(K⁻¹ − ααᵀ) ∘ K` — the only
/// per-iteration allocations left are inside the Cholesky factorization
/// itself.
pub(crate) fn nll_and_grad_into(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
) -> Option<f64> {
    nll_into(
        ctx,
        y,
        hyper,
        jitter,
        scratch,
        true,
        InverseStrategy::Symmetric,
    )
}

/// Public probe of one NLL/gradient evaluation with an explicit
/// [`InverseStrategy`] — the entry point `reproduce fit` times and the
/// equivalence property tests compare.  The gradient is left in
/// [`FitScratch::grad`].
///
/// # Panics
///
/// Panics if `y` or `scratch` do not match the context's size and
/// dimensionality (`scratch` must come from
/// `FitScratch::new(ctx.len(), ctx.dim())`).
pub fn nll_and_grad_with(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
    strategy: InverseStrategy,
) -> Option<f64> {
    assert_eq!(y.len(), ctx.len(), "targets/context length mismatch");
    assert_eq!(hyper.dim(), ctx.dim(), "hyper/context dimension mismatch");
    assert_eq!(
        scratch.residual.len(),
        ctx.len(),
        "scratch sized for a different training-set length"
    );
    assert_eq!(
        scratch.inv_sq.len(),
        ctx.dim(),
        "scratch sized for a different dimensionality"
    );
    nll_into(ctx, y, hyper, jitter, scratch, true, strategy)
}

/// [`nll_and_grad_into`] with an optional gradient: `want_grad = false` stops
/// after the likelihood (one factorization + one solve), skipping the dense
/// `O(N³)` inverse and the fused trace pass — the mode used by warm-start
/// anchor checks and end-of-descent evaluations, which only read the scalar.
pub(crate) fn nll_into(
    ctx: &FitContext,
    y: &[f64],
    hyper: &GpHyperParams,
    jitter: f64,
    scratch: &mut FitScratch,
    want_grad: bool,
    strategy: InverseStrategy,
) -> Option<f64> {
    let n = ctx.len();
    let dim = ctx.dim();
    debug_assert_eq!(y.len(), n);
    debug_assert_eq!(hyper.dim(), dim);
    let FitScratch {
        gram,
        k,
        k_inv,
        k_inv_work,
        residual,
        inv_sq,
        ls_grad,
        grad,
    } = scratch;

    for (w, l) in inv_sq.iter_mut().zip(hyper.log_lengthscales.iter()) {
        let ls = l.exp();
        *w = 1.0 / (ls * ls);
    }
    let sf2 = hyper.signal_variance();
    ctx.gram_into(inv_sq, sf2, gram);
    k.clone_from(gram);
    k.add_diag(hyper.noise_variance());
    let (chol, _) = Cholesky::decompose_with_jitter(k, jitter, 8).ok()?;

    for (r, v) in residual.iter_mut().zip(y.iter()) {
        *r = v - hyper.mean;
    }
    let alpha = chol.solve_vec(residual);
    let fit_term: f64 = residual.iter().zip(alpha.iter()).map(|(r, a)| r * a).sum();
    let log_det = chol.log_det();
    let nll = 0.5 * (fit_term + log_det + n as f64 * (2.0 * std::f64::consts::PI).ln());
    if !nll.is_finite() {
        return None;
    }
    if !want_grad {
        return Some(nll);
    }

    // Gradient: dL/dθ = ½ tr((K⁻¹ - α αᵀ) ∂K/∂θ), with
    //   ∂K/∂log σf = 2 K,   ∂K/∂log l_d = K ∘ sqdiff_d / l_d²,
    //   ∂K/∂log σn = 2 σn² I,   dL/dµ0 = -Σ α.
    let mut g_signal = 0.0;
    grad.fill(0.0);
    ls_grad.fill(0.0);
    match strategy {
        InverseStrategy::Symmetric => {
            // Every matrix in the trace — K⁻¹, ααᵀ, K, the distance stripes —
            // is symmetric, so the fused pass visits only `j < i`, doubling
            // those terms, plus the diagonal (whose distance stripes are
            // zero, so it contributes to the signal term alone).
            chol.symmetric_inverse_into(k_inv, k_inv_work);
            for i in 0..n {
                let kinv_row = k_inv.row(i);
                let gram_row = gram.row(i);
                let ai = alpha[i];
                let mut row_signal = 0.0;
                for j in 0..i {
                    let m = kinv_row[j] - ai * alpha[j];
                    let mg = m * gram_row[j];
                    row_signal += mg;
                    nnbo_linalg::add_scaled_product(ls_grad, inv_sq, ctx.stripe(i, j), mg);
                }
                let m_diag = kinv_row[i] - ai * ai;
                g_signal += 2.0 * (2.0 * row_signal + m_diag * gram_row[i]);
            }
            for g in ls_grad.iter_mut() {
                *g *= 2.0;
            }
        }
        InverseStrategy::DenseSweeps => {
            chol.inverse_into(k_inv);
            for i in 0..n {
                let kinv_row = k_inv.row(i);
                let gram_row = gram.row(i);
                let ai = alpha[i];
                for j in 0..n {
                    let m = kinv_row[j] - ai * alpha[j];
                    let mg = m * gram_row[j];
                    g_signal += 2.0 * mg;
                    let stripe = ctx.stripe(i, j);
                    for ((g, &w), &s) in ls_grad.iter_mut().zip(inv_sq.iter()).zip(stripe.iter()) {
                        *g += mg * w * s;
                    }
                }
            }
        }
    }
    let noise_var = hyper.noise_variance();
    let mut g_noise = 0.0;
    for i in 0..n {
        g_noise += (k_inv[(i, i)] - alpha[i] * alpha[i]) * 2.0 * noise_var;
    }
    grad[0] = 0.5 * g_signal;
    for (g, v) in grad[1..1 + dim].iter_mut().zip(ls_grad.iter()) {
        *g = 0.5 * v;
    }
    grad[1 + dim] = 0.5 * g_noise;
    grad[2 + dim] = -alpha.iter().sum::<f64>();

    if grad.iter().any(|g| !g.is_finite()) {
        return None;
    }
    Some(nll)
}

/// Runs `iters` Adam steps from `start` and returns the clamped end point with
/// its NLL (`None` when no finite likelihood is ever reached).
///
/// With `grad_tol = Some(tol)` the descent stops early once the gradient RMS
/// drops to `tol` — the adaptive-`warm_iters` check warm refits use, since a
/// warm start that begins at (or quickly reaches) the optimum has nothing
/// left to descend.
fn run_adam(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    start: GpHyperParams,
    iters: usize,
    grad_tol: Option<f64>,
    scratch: &mut FitScratch,
) -> Option<(f64, GpHyperParams)> {
    let dim = ctx.dim();
    let mut hyper = start;
    let mut adam = Adam::with_learning_rate(config.learning_rate);
    let mut flat = hyper.to_flat();
    for _ in 0..iters {
        hyper = GpHyperParams::from_flat(&flat, dim);
        hyper.clamp(config.min_log_noise);
        flat = hyper.to_flat();
        if nll_and_grad_into(ctx, y, &hyper, config.jitter, scratch).is_none() {
            break;
        }
        if let Some(tol) = grad_tol {
            let rms = (scratch.grad.iter().map(|g| g * g).sum::<f64>() / scratch.grad.len() as f64)
                .sqrt();
            if rms <= tol {
                break;
            }
        }
        adam.step(&mut flat, &scratch.grad);
    }
    hyper = GpHyperParams::from_flat(&flat, dim);
    hyper.clamp(config.min_log_noise);
    nll_into(
        ctx,
        y,
        &hyper,
        config.jitter,
        scratch,
        false,
        InverseStrategy::Symmetric,
    )
    .map(|nll| (nll, hyper))
}

/// Cold path: multi-restart Adam from the standard initial point plus
/// `config.restarts − 1` random initialisations drawn from `rng`.
fn optimize_cold<R: Rng + ?Sized>(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    rng: &mut R,
    scratch: &mut FitScratch,
) -> Option<(f64, GpHyperParams)> {
    let dim = ctx.dim();
    let mut best: Option<(f64, GpHyperParams)> = None;
    for restart in 0..config.restarts.max(1) {
        let start = initial_hyper(dim, restart, rng);
        if let Some((nll, hyper)) = run_adam(ctx, y, config, start, config.max_iters, None, scratch)
        {
            if nll.is_finite() && best.as_ref().is_none_or(|(b, _)| nll < *b) {
                best = Some((nll, hyper));
            }
        }
    }
    best
}

/// Finds hyper-parameters for one output: warm-started from `warm` when
/// given, cold multi-restart otherwise.
///
/// The warm path runs a single Adam descent of *at most* `config.warm_iters`
/// steps from the previous optimum — stopping early once the gradient RMS
/// falls to [`GpConfig::warm_grad_tol`], which trims refits whose warm start
/// is already converged — and accepts the result as long as it does not
/// regress past the likelihood of the *standard* initial point (evaluated,
/// not optimized) — the cheap anchor that detects a stale or diverged warm
/// start.  On regression it falls back to the full cold path and keeps the
/// better of the two, so a warm fit is never worse than that fallback anchor.
/// Only the fallback consumes `rng`.
pub(crate) fn optimize_hypers<R: Rng + ?Sized>(
    ctx: &FitContext,
    y: &[f64],
    config: &GpConfig,
    rng: &mut R,
    warm: Option<&GpHyperParams>,
    scratch: &mut FitScratch,
) -> Result<(f64, GpHyperParams), GpError> {
    let dim = ctx.dim();
    if let Some(prev) = warm {
        if prev.dim() == dim {
            let mut start = prev.clone();
            start.clamp(config.min_log_noise);
            let grad_tol = (config.warm_grad_tol > 0.0).then_some(config.warm_grad_tol);
            let warm_result = run_adam(ctx, y, config, start, config.warm_iters, grad_tol, scratch);
            let anchor = {
                let standard = GpHyperParams::standard(dim);
                nll_into(
                    ctx,
                    y,
                    &standard,
                    config.jitter,
                    scratch,
                    false,
                    InverseStrategy::Symmetric,
                )
            };
            match (&warm_result, anchor) {
                (Some((warm_nll, _)), Some(anchor_nll)) if *warm_nll <= anchor_nll => {
                    let (nll, hyper) = warm_result.expect("matched Some above");
                    return Ok((nll, hyper));
                }
                (Some((warm_nll, _)), None) if warm_nll.is_finite() => {
                    let (nll, hyper) = warm_result.expect("matched Some above");
                    return Ok((nll, hyper));
                }
                _ => {
                    // Warm path regressed (or died): cold-restart fallback,
                    // keeping the warm result if it still wins.
                    let cold = optimize_cold(ctx, y, config, rng, scratch);
                    let best = match (warm_result, cold) {
                        (Some(w), Some(c)) => Some(if w.0 <= c.0 { w } else { c }),
                        (w, c) => w.or(c),
                    };
                    return best.ok_or(GpError::OptimizationFailed);
                }
            }
        }
    }
    optimize_cold(ctx, y, config, rng, scratch).ok_or(GpError::OptimizationFailed)
}

/// Initial hyper-parameters of restart `restart` (the first restart uses the
/// deterministic standard point; later ones draw from `rng`).
pub(crate) fn initial_hyper<R: Rng + ?Sized>(
    dim: usize,
    restart: usize,
    rng: &mut R,
) -> GpHyperParams {
    if restart == 0 {
        GpHyperParams::standard(dim)
    } else {
        GpHyperParams {
            log_signal: rng.gen_range(-1.0..1.0),
            log_lengthscales: (0..dim).map(|_| rng.gen_range(-1.5..1.5)).collect(),
            log_noise: rng.gen_range(-6.0..-2.0),
            mean: rng.gen_range(-0.5..0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_distance_tensor_is_symmetric_with_zero_diagonal() {
        let x = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.4], vec![-0.5, 0.2]]);
        let ctx = FitContext::new(&x);
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.dim(), 2);
        assert!(!ctx.is_empty());
        for i in 0..3 {
            for d in 0..2 {
                assert_eq!(ctx.sqdiff[(i * 3 + i) * 2 + d], 0.0);
            }
            for j in 0..3 {
                for d in 0..2 {
                    let expect = (x[(i, d)] - x[(j, d)]) * (x[(i, d)] - x[(j, d)]);
                    assert_eq!(ctx.sqdiff[(i * 3 + j) * 2 + d], expect);
                    assert_eq!(ctx.sqdiff[(j * 3 + i) * 2 + d], expect);
                }
            }
        }
    }

    #[test]
    fn incrementally_grown_context_is_bit_identical_to_full_rebuild() {
        // Grow point by point across several capacity re-layouts and compare
        // every stripe and the Gram matrix against a fresh build.
        let dim = 3;
        let rows: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 7 + d * 13) % 19) as f64 * 0.11 - 1.0)
                    .collect()
            })
            .collect();
        let mut grown = FitContext::new(&Matrix::from_rows(&rows[..1]));
        for r in &rows[1..] {
            grown.append(r);
        }
        let fresh = FitContext::new(&Matrix::from_rows(&rows));
        assert_eq!(grown.len(), fresh.len());
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                assert_eq!(grown.stripe(i, j), fresh.stripe(i, j), "stripe ({i},{j})");
            }
        }
        let inv_sq = [0.9, 1.4, 0.3];
        let mut g_grown = Matrix::zeros(1, 1);
        let mut g_fresh = Matrix::zeros(1, 1);
        grown.gram_into(&inv_sq, 1.3, &mut g_grown);
        fresh.gram_into(&inv_sq, 1.3, &mut g_fresh);
        assert_eq!(g_grown.as_slice(), g_fresh.as_slice());
    }

    #[test]
    fn update_to_appends_on_extension_and_rebuilds_on_change() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![i as f64 * 0.2, 1.0 - i as f64 * 0.1])
            .collect();
        let mut ctx = FitContext::new(&Matrix::from_rows(&rows[..4]));
        // Extension: incremental path.
        let extended = Matrix::from_rows(&rows);
        assert!(ctx.update_to(&extended));
        let fresh = FitContext::new(&extended);
        assert_eq!(ctx.len(), 6);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(ctx.stripe(i, j), fresh.stripe(i, j));
            }
        }
        // A changed prefix forces a rebuild.
        let mut altered_rows = rows.clone();
        altered_rows[0][0] += 0.5;
        let altered = Matrix::from_rows(&altered_rows);
        assert!(!ctx.update_to(&altered));
        let rebuilt = FitContext::new(&altered);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(ctx.stripe(i, j), rebuilt.stripe(i, j));
            }
        }
        // Shrinking also rebuilds.
        let shorter = Matrix::from_rows(&rows[..3]);
        assert!(!ctx.update_to(&shorter));
        assert_eq!(ctx.len(), 3);
    }

    #[test]
    fn symmetric_and_dense_sweep_strategies_agree() {
        let x = Matrix::from_rows(
            &(0..17)
                .map(|i| {
                    vec![
                        i as f64 * 0.07,
                        ((i * i) % 11) as f64 * 0.09,
                        1.0 / (1.0 + i as f64),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let y: Vec<f64> = (0..17).map(|i| ((i * 5 % 7) as f64 - 3.0) * 0.4).collect();
        let ctx = FitContext::new(&x);
        let hyper = GpHyperParams {
            log_signal: 0.3,
            log_lengthscales: vec![-0.4, 0.2, 0.6],
            log_noise: -2.2,
            mean: 0.05,
        };
        let mut scratch = FitScratch::new(17, 3);
        let nll_sym = nll_and_grad_with(
            &ctx,
            &y,
            &hyper,
            1e-10,
            &mut scratch,
            InverseStrategy::Symmetric,
        )
        .unwrap();
        let grad_sym = scratch.grad.clone();
        let nll_dense = nll_and_grad_with(
            &ctx,
            &y,
            &hyper,
            1e-10,
            &mut scratch,
            InverseStrategy::DenseSweeps,
        )
        .unwrap();
        let grad_dense = scratch.grad.clone();
        assert!(
            (nll_sym - nll_dense).abs() < 1e-9 * (1.0 + nll_dense.abs()),
            "nll {nll_sym} vs {nll_dense}"
        );
        for (a, b) in grad_sym.iter().zip(grad_dense.iter()) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "grad {a} vs {b}");
        }
    }

    #[test]
    fn warm_descent_stops_early_when_gradient_rms_is_tiny() {
        let x = Matrix::from_rows(
            &(0..12)
                .map(|i| vec![i as f64 / 11.0, (i as f64 / 11.0).powi(2)])
                .collect::<Vec<_>>(),
        );
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).sin()).collect();
        let ctx = FitContext::new(&x);
        let mut scratch = FitScratch::new(12, 2);
        let config = GpConfig::default();
        let start = GpHyperParams {
            log_signal: 0.1,
            log_lengthscales: vec![0.3, -0.2],
            log_noise: -2.0,
            mean: 0.0,
        };
        let mut expected = start.clone();
        expected.clamp(config.min_log_noise);
        // An infinite tolerance stops the descent before its first Adam step:
        // the result is exactly the clamped start point.
        let (_, stopped) = run_adam(
            &ctx,
            &y,
            &config,
            start.clone(),
            config.warm_iters,
            Some(f64::INFINITY),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(stopped, expected);
        // No tolerance: the same descent takes its steps and moves.
        let (_, moved) = run_adam(
            &ctx,
            &y,
            &config,
            start,
            config.warm_iters,
            None,
            &mut scratch,
        )
        .unwrap();
        assert_ne!(moved, expected, "full descent should move off the start");
    }

    #[test]
    fn context_gram_matches_scalar_kernel_eval() {
        let k = crate::ArdSquaredExponential::new(1.7, vec![0.4, 1.2, 2.5]);
        let x = Matrix::from_rows(
            &(0..7)
                .map(|i| {
                    vec![
                        i as f64 * 0.11,
                        (i * i % 5) as f64 * 0.2,
                        1.0 - i as f64 * 0.07,
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let ctx = FitContext::new(&x);
        let inv_sq: Vec<f64> = k.lengthscales().iter().map(|l| 1.0 / (l * l)).collect();
        let mut g = Matrix::zeros(1, 1);
        ctx.gram_into(&inv_sq, k.signal_variance(), &mut g);
        for i in 0..x.nrows() {
            for j in 0..x.nrows() {
                let reference = k.eval(x.row(i), x.row(j));
                assert!((g[(i, j)] - reference).abs() < 1e-12, "gram ({i},{j})");
            }
        }
    }
}
