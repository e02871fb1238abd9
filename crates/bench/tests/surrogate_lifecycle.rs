//! End-to-end surrogate-lifecycle harness: pins the full
//! suggest → append → drift-check → refit cycle of the Bayesian-optimization
//! loop under *both* kernel dispatch paths (packed AVX2+FMA with the fused
//! `exp` prediction kernel, and the portable scalar fallback), so future
//! kernel or policy work cannot silently change BO behaviour.
//!
//! The tests live in their own integration-test binary because
//! [`nnbo_linalg::force_portable_kernels`] is a process-global switch; a
//! mutex serialises every test that touches it.  The "golden" contract is
//! three-fold:
//!
//! 1. **Determinism** — a seeded run reproduces its entire evaluation
//!    trajectory bit for bit on whichever path is active, and the two paths
//!    draw the identical (model-free) initial design.
//! 2. **Policy equivalences** — `RefitPolicy::NllDrift` with `threshold = 0`
//!    reproduces always-refit (`Fixed(1)`) suggestions bit-identically on
//!    both dispatch paths.
//! 3. **Drift economics** — the drift policy performs measurably fewer full
//!    refits than always-refit at equal observation count while its final
//!    likelihood stays within a tight band of the always-refit one
//!    (`run_refit_lifecycle`, the same decision rule the loop applies).

use std::sync::Mutex;

use nnbo_baselines::GpSurrogateTrainer;
use nnbo_bench::run_refit_lifecycle;
use nnbo_core::problems::ConstrainedBranin;
use nnbo_core::{BayesOpt, BoConfig, OptimizationResult, RefitPolicy};
use nnbo_gp::GpConfig;
use nnbo_linalg::force_portable_kernels;

static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    DISPATCH_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with the portable kernels forced, restoring the automatic
/// dispatch afterwards (also on panic).
fn with_portable<T>(f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_portable_kernels(false);
        }
    }
    let _restore = Restore;
    force_portable_kernels(true);
    f()
}

fn weibo_run(seed: u64, budget: usize, policy: RefitPolicy) -> OptimizationResult {
    BayesOpt::with_trainer(
        BoConfig::fast(8, budget)
            .with_seed(seed)
            .with_refit_policy(policy),
        GpSurrogateTrainer::fast(),
    )
    .run(&ConstrainedBranin::new())
    .expect("WEIBO run")
}

/// Structural golden invariants every healthy run satisfies on any path.
fn assert_run_invariants(result: &OptimizationResult, budget: usize, best_bound: f64) {
    assert_eq!(result.num_evaluations(), budget);
    for (x, _) in result.evaluations() {
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "point {x:?}");
    }
    let curve = result.convergence_curve();
    for w in curve.windows(2) {
        assert!(w[1] <= w[0], "incumbent trajectory must be monotone");
    }
    let best = result.best_objective().expect("feasible point found");
    assert!(
        best < best_bound,
        "Branin best {best} is far from the optimum"
    );
}

#[test]
fn seeded_runs_are_golden_deterministic_on_both_dispatch_paths() {
    let _guard = serial();
    let budget = 16;
    let run = || weibo_run(33, budget, RefitPolicy::Fixed(1));
    let packed_a = run();
    let packed_b = run();
    assert_eq!(
        packed_a.evaluations(),
        packed_b.evaluations(),
        "active-path rerun diverged"
    );
    assert_eq!(packed_a.full_refits(), packed_b.full_refits());
    assert_run_invariants(&packed_a, budget, 6.0);

    let (portable_a, portable_b) = with_portable(|| (run(), run()));
    assert_eq!(
        portable_a.evaluations(),
        portable_b.evaluations(),
        "portable-path rerun diverged"
    );
    assert_run_invariants(&portable_a, budget, 6.0);

    // The model-free initial design depends only on the rng, so the two
    // dispatch paths must agree on it bit for bit; the model-guided tail may
    // differ in argmax rounding, but both must optimize.
    assert_eq!(
        &packed_a.evaluations()[..8],
        &portable_a.evaluations()[..8],
        "initial design differs between dispatch paths"
    );
}

#[test]
fn zero_threshold_drift_reproduces_always_refit_on_both_dispatch_paths() {
    let _guard = serial();
    let budget = 14;
    let zero_drift = RefitPolicy::NllDrift {
        threshold: 0.0,
        min_gap: 1,
        max_gap: 1000,
    };
    let check = || {
        let always = weibo_run(51, budget, RefitPolicy::Fixed(1));
        let drift = weibo_run(51, budget, zero_drift);
        assert_eq!(
            always.evaluations(),
            drift.evaluations(),
            "threshold = 0 must reproduce always-refit bit-identically"
        );
        assert_eq!(always.full_refits(), drift.full_refits());
    };
    check();
    with_portable(check);
}

#[test]
fn drift_policy_saves_full_refits_at_matched_final_quality() {
    let _guard = serial();
    // The exact decision rule the loop applies, driven over a growing
    // observation stream long enough for the policies to diverge.
    let (xs, targets) = nnbo_bench::fit_dataset(72, 6, 17);
    let ys = &targets[0];
    let config = GpConfig {
        max_iters: 40,
        warm_iters: 12,
        ..GpConfig::default()
    };
    let policy = RefitPolicy::NllDrift {
        threshold: 0.01,
        min_gap: 1,
        max_gap: 16,
    };
    let check = || {
        let fixed = run_refit_lifecycle(&xs, ys, &config, RefitPolicy::Fixed(1), 24, 5)
            .expect("fixed-policy lifecycle runs");
        let drift =
            run_refit_lifecycle(&xs, ys, &config, policy, 24, 5).expect("drift lifecycle runs");
        assert_eq!(
            fixed.full_refits,
            xs.len() - 24,
            "Fixed(1) refits each step"
        );
        assert!(
            drift.full_refits < fixed.full_refits,
            "drift performed {} full refits vs always-refit's {}",
            drift.full_refits,
            fixed.full_refits
        );
        assert!(fixed.final_nll.is_finite() && drift.final_nll.is_finite());
        // Final quality stays in a tight band of always-refit (per-point).
        let per_point_gap = (drift.final_nll - fixed.final_nll).abs() / xs.len() as f64;
        assert!(
            per_point_gap < 0.05,
            "drift final NLL {} vs always-refit {} (per-point gap {per_point_gap})",
            drift.final_nll,
            fixed.final_nll
        );
    };
    check();
    with_portable(check);
}

#[test]
fn neural_loop_runs_the_drift_policy_end_to_end_on_the_active_path() {
    let _guard = serial();
    // The paper's own surrogate (neural-GP ensemble) through the same
    // lifecycle: suggest → append (rank-1, NLL refreshed) → drift check →
    // warm refit, on whichever kernel path the machine dispatches.
    use nnbo_core::EnsembleConfig;
    let result = BayesOpt::neural_with(
        BoConfig::fast(8, 18)
            .with_seed(3)
            .with_refit_policy(RefitPolicy::nll_drift(0.25)),
        EnsembleConfig::fast(),
    )
    .run(&ConstrainedBranin::new())
    .expect("neural drift run");
    assert_run_invariants(&result, 18, 12.0);
    assert!(
        result.full_refits() <= 10,
        "drift policy refitted {} times in 10 iterations",
        result.full_refits()
    );
}
