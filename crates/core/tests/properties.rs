//! Property-based tests of the optimizer building blocks: acquisition functions,
//! sampling, design-space transforms and the surrogate abstraction.

use nnbo_core::acquisition::{
    evaluate, expected_improvement, feasibility_probability, joint_feasibility, normal_cdf,
    normal_pdf, probability_of_improvement, weighted_expected_improvement, AcquisitionKind,
};
use nnbo_core::{
    latin_hypercube, uniform_random, DesignSpace, EnsembleConfig, NeuralGp, NeuralGpConfig,
    NeuralGpEnsemble, Prediction, SurrogateModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn surrogate_training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![i as f64 / (n - 1) as f64, ((i * 13) % n) as f64 / n as f64])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (5.0 * x[0]).sin() + x[1] * x[1] - 0.3 * x[0] * x[1])
        .collect();
    (xs, ys)
}

fn query_grid(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0])
        .collect()
}

/// `predict_batch` must return exactly what per-point `predict` calls would —
/// the acquisition maximiser depends on the two paths being interchangeable.
#[test]
fn neural_gp_predict_batch_matches_per_point_exactly() {
    let (xs, ys) = surrogate_training_data(24);
    let mut rng = StdRng::seed_from_u64(5);
    let model = NeuralGp::fit(&xs, &ys, &NeuralGpConfig::fast(), &mut rng).unwrap();
    let queries = query_grid(33);
    let batch = model.predict_batch(&queries);
    assert_eq!(batch.len(), queries.len());
    for (q, b) in queries.iter().zip(batch.iter()) {
        let single = model.predict(q);
        assert_eq!(single.mean, b.mean, "mean mismatch at {q:?}");
        assert_eq!(single.variance, b.variance, "variance mismatch at {q:?}");
    }
    assert!(model.predict_batch(&[]).is_empty());
}

#[test]
fn ensemble_predict_batch_matches_per_point_exactly() {
    let (xs, ys) = surrogate_training_data(20);
    let mut rng = StdRng::seed_from_u64(7);
    let ensemble = NeuralGpEnsemble::fit(&xs, &ys, &EnsembleConfig::fast(), &mut rng).unwrap();
    // Cross the parallel-prediction threshold to also exercise the threaded path.
    let queries = query_grid(300);
    let batch = ensemble.predict_batch(&queries);
    for (q, b) in queries.iter().zip(batch.iter()) {
        let single = ensemble.predict(q);
        assert_eq!(single.mean, b.mean, "mean mismatch at {q:?}");
        assert_eq!(single.variance, b.variance, "variance mismatch at {q:?}");
    }
}

#[test]
fn neural_gp_append_observation_absorbs_the_new_point() {
    let (xs, ys) = surrogate_training_data(18);
    let mut rng = StdRng::seed_from_u64(9);
    let model = NeuralGp::fit(&xs, &ys, &NeuralGpConfig::fast(), &mut rng).unwrap();
    let x_new = vec![0.45_f64, 0.55];
    let y_new = (5.0 * x_new[0]).sin() + x_new[1] * x_new[1] - 0.3 * x_new[0] * x_new[1];
    let updated = model.append_observation(&x_new, y_new).unwrap();
    assert_eq!(updated.train_size(), model.train_size() + 1);
    let before = model.predict(&x_new);
    let after = updated.predict(&x_new);
    assert!((after.mean - y_new).abs() <= (before.mean - y_new).abs() + 1e-9);
    assert!(after.variance <= before.variance + 1e-12);
    // Batched prediction stays consistent on the updated model too.
    let queries = query_grid(10);
    let batch = updated.predict_batch(&queries);
    for (q, b) in queries.iter().zip(batch.iter()) {
        let single = updated.predict(q);
        assert_eq!(single.mean, b.mean);
        assert_eq!(single.variance, b.variance);
    }
    assert!(model.append_observation(&[f64::NAN, 0.0], 0.0).is_err());
}

/// The warm-start plumbing must leave the cold path untouched: `fit` and
/// `fit_warm` without a previous model are the same code path, bit for bit.
#[test]
fn neural_gp_cold_path_is_unchanged_by_the_warm_plumbing() {
    let (xs, ys) = surrogate_training_data(16);
    let config = NeuralGpConfig::fast();
    let a = NeuralGp::fit(&xs, &ys, &config, &mut StdRng::seed_from_u64(33)).unwrap();
    let b = NeuralGp::fit_warm(&xs, &ys, &config, &mut StdRng::seed_from_u64(33), None).unwrap();
    assert_eq!(a.nll(), b.nll());
    let q = [0.4, 0.2];
    assert_eq!(a.predict(&q).mean, b.predict(&q).mean);
    assert_eq!(a.predict(&q).variance, b.predict(&q).variance);
}

/// `append_observation` freezes the standardiser at fit-time statistics; a
/// later warm refit re-standardises on the extended data while continuing
/// from the appended model's network, and must still report in original units.
#[test]
fn warm_refit_after_append_respects_the_frozen_standardizer_contract() {
    let xs: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![i as f64 / 19.0, (i % 5) as f64 / 4.0])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 500.0 + 40.0 * x[0] + 10.0 * x[1])
        .collect();
    let config = NeuralGpConfig::fast();
    let mut rng = StdRng::seed_from_u64(21);
    let fitted = NeuralGp::fit(&xs, &ys, &config, &mut rng).unwrap();

    let x_new = vec![0.5, 0.5];
    let y_new = 500.0 + 40.0 * 0.5 + 10.0 * 0.5;
    let appended = fitted.append_observation(&x_new, y_new).unwrap();

    let mut xs2 = xs.clone();
    xs2.push(x_new.clone());
    let mut ys2 = ys.clone();
    ys2.push(y_new);
    let warm = NeuralGp::fit_warm(
        &xs2,
        &ys2,
        &config,
        &mut StdRng::seed_from_u64(22),
        Some(&appended),
    )
    .unwrap();
    assert_eq!(warm.train_size(), 21);
    assert!(warm.nll().is_finite());
    // Predictions come back in original units despite the re-standardisation.
    let p = warm.predict(&x_new);
    assert!((p.mean - y_new).abs() < 30.0, "mean {}", p.mean);
}

#[test]
fn ensemble_append_observation_updates_every_member() {
    let (xs, ys) = surrogate_training_data(16);
    let mut rng = StdRng::seed_from_u64(11);
    let ensemble = NeuralGpEnsemble::fit(&xs, &ys, &EnsembleConfig::fast(), &mut rng).unwrap();
    let x_new = vec![0.3_f64, 0.7];
    let updated = ensemble.append_observation(&x_new, 0.25).unwrap();
    assert_eq!(updated.len(), ensemble.len());
    for member in updated.members() {
        assert_eq!(member.train_size(), xs.len() + 1);
    }
}

fn prediction() -> impl Strategy<Value = Prediction> {
    (-10.0..10.0f64, 0.0..25.0f64).prop_map(|(m, v)| Prediction::new(m, v))
}

/// Every acquisition variant, for the cross-variant properties.
const ALL_KINDS: [AcquisitionKind; 4] = [
    AcquisitionKind::WeightedExpectedImprovement,
    AcquisitionKind::ExpectedImprovement,
    AcquisitionKind::LowerConfidenceBound { kappa: 1.5 },
    AcquisitionKind::ProbabilityOfImprovement,
];

/// Index of the strict argmax of the scores, plus the margin to the runner-up
/// (used to discard near-ties before asserting argmax invariance: an affine
/// shift re-rounds every score, so only well-separated maxima are stable).
fn argmax_with_margin(scores: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    let runner_up = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != best)
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    (best, scores[best] - runner_up)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normal_cdf_is_monotone_and_bounded(a in -8.0..8.0f64, b in -8.0..8.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (cl, ch) = (normal_cdf(lo), normal_cdf(hi));
        prop_assert!(cl <= ch + 1e-12);
        prop_assert!((0.0..=1.0).contains(&cl) && (0.0..=1.0).contains(&ch));
        // Symmetry: Φ(-x) = 1 - Φ(x).
        prop_assert!((normal_cdf(-a) - (1.0 - normal_cdf(a))).abs() < 1e-6);
    }

    #[test]
    fn normal_pdf_is_nonnegative_and_symmetric(x in -10.0..10.0f64) {
        prop_assert!(normal_pdf(x) >= 0.0);
        prop_assert!((normal_pdf(x) - normal_pdf(-x)).abs() < 1e-12);
    }

    #[test]
    fn expected_improvement_is_nonnegative(p in prediction(), tau in -10.0..10.0f64) {
        prop_assert!(expected_improvement(&p, tau) >= 0.0);
    }

    #[test]
    fn expected_improvement_grows_with_a_looser_incumbent(
        p in prediction(),
        tau in -5.0..5.0f64,
        delta in 0.0..5.0f64,
    ) {
        // A larger (worse) incumbent can only make improvement easier.
        let tight = expected_improvement(&p, tau);
        let loose = expected_improvement(&p, tau + delta);
        prop_assert!(loose + 1e-12 >= tight);
    }

    #[test]
    fn ei_is_bounded_below_by_mean_improvement(p in prediction(), tau in -10.0..10.0f64) {
        // EI >= max(tau - mu, 0) for any Gaussian (Jensen / convexity of max).
        let lower = (tau - p.mean).max(0.0);
        prop_assert!(expected_improvement(&p, tau) + 1e-9 >= lower);
    }

    #[test]
    fn probability_of_improvement_is_a_probability(p in prediction(), tau in -10.0..10.0f64) {
        let v = probability_of_improvement(&p, tau);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn feasibility_probability_decreases_with_the_constraint_mean(
        mean in -5.0..5.0f64,
        shift in 0.0..5.0f64,
        var in 0.01..9.0f64,
    ) {
        let easier = feasibility_probability(&Prediction::new(mean, var));
        let harder = feasibility_probability(&Prediction::new(mean + shift, var));
        prop_assert!(harder <= easier + 1e-12);
    }

    #[test]
    fn joint_feasibility_never_exceeds_any_single_factor(
        preds in prop::collection::vec(prediction(), 1..5)
    ) {
        let joint = joint_feasibility(&preds);
        prop_assert!((0.0..=1.0).contains(&joint));
        for p in &preds {
            prop_assert!(joint <= feasibility_probability(p) + 1e-12);
        }
    }

    #[test]
    fn wei_is_bounded_by_unweighted_ei(
        obj in prediction(),
        cons in prop::collection::vec(prediction(), 0..4),
        tau in -5.0..5.0f64,
    ) {
        let wei = weighted_expected_improvement(&obj, &cons, Some(tau));
        let ei = expected_improvement(&obj, tau);
        prop_assert!(wei <= ei + 1e-12);
        prop_assert!(wei >= 0.0);
    }

    #[test]
    fn latin_hypercube_is_stratified_in_every_dimension(
        n in 2..30usize,
        dim in 1..8usize,
        seed in 0..1000u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = latin_hypercube(n, dim, &mut rng);
        prop_assert_eq!(points.len(), n);
        for d in 0..dim {
            let mut counts = vec![0usize; n];
            for p in &points {
                prop_assert!((0.0..=1.0).contains(&p[d]));
                let stratum = ((p[d] * n as f64).floor() as usize).min(n - 1);
                counts[stratum] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn uniform_samples_stay_inside_the_unit_cube(
        n in 1..40usize,
        dim in 1..10usize,
        seed in 0..1000u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = uniform_random(n, dim, &mut rng);
        prop_assert_eq!(points.len(), n);
        prop_assert!(points.iter().flatten().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn design_space_roundtrip_is_identity(
        bounds in prop::collection::vec((-100.0..100.0f64, 0.1..100.0f64), 1..8),
        coords in prop::collection::vec(0.0..1.0f64, 8),
    ) {
        let bounds: Vec<(f64, f64)> = bounds.iter().map(|(lo, w)| (*lo, lo + w)).collect();
        let dim = bounds.len();
        let space = DesignSpace::new(bounds);
        let x = &coords[..dim];
        let phys = space.denormalize(x);
        let back = space.normalize(&phys);
        for (a, b) in back.iter().zip(x.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // Physical values respect the bounds.
        for (v, (lo, hi)) in phys.iter().zip(space.bounds().iter()) {
            prop_assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12);
        }
    }

    #[test]
    fn prediction_std_is_sqrt_of_variance(p in prediction()) {
        prop_assert!((p.std() * p.std() - p.variance).abs() < 1e-9);
    }

    /// wEI and EI are non-negative for every prediction, incumbent and
    /// constraint set (LCB and PI·pf are separately bounded: PI in [0, 1],
    /// LCB unbounded by design).
    #[test]
    fn wei_and_ei_evaluations_are_nonnegative(
        obj in prediction(),
        cons in prop::collection::vec(prediction(), 0..4),
        tau_value in -5.0..5.0f64,
    ) {
        for tau in [Some(tau_value), None] {
            for kind in [
                AcquisitionKind::WeightedExpectedImprovement,
                AcquisitionKind::ExpectedImprovement,
            ] {
                let score = evaluate(kind, &obj, &cons, tau);
                prop_assert!(score >= 0.0, "{kind:?} gave {score}");
            }
            let pi = evaluate(AcquisitionKind::ProbabilityOfImprovement, &obj, &cons, tau);
            prop_assert!((0.0..=1.0).contains(&pi));
        }
    }

    /// The lower-confidence-bound score is monotone non-decreasing in the
    /// exploration weight κ: more exploration can only raise the optimism.
    #[test]
    fn lcb_score_is_monotone_in_kappa(
        obj in prediction(),
        cons in prop::collection::vec(prediction(), 0..4),
        kappa in 0.0..5.0f64,
        extra in 0.0..5.0f64,
        tau_value in -5.0..5.0f64,
    ) {
        for tau in [Some(tau_value), None] {
            let tight = evaluate(AcquisitionKind::LowerConfidenceBound { kappa }, &obj, &cons, tau);
            let loose = evaluate(
                AcquisitionKind::LowerConfidenceBound { kappa: kappa + extra },
                &obj,
                &cons,
                tau,
            );
            prop_assert!(loose + 1e-12 >= tight, "kappa {kappa}+{extra}: {loose} < {tight}");
        }
    }

    /// The argmax over a candidate set is invariant under positive-affine
    /// transformations of the objective (means/incumbent shifted and scaled
    /// together, standard deviations scaled): for every variant without
    /// constraints, and for the multiplicative variants (wEI, PI) under
    /// constraints too.  Near-ties are skipped — an affine shift legitimately
    /// re-rounds the scores.
    #[test]
    fn acquisition_argmax_is_invariant_under_affine_objective_shifts(
        objs in prop::collection::vec(prediction(), 2..8),
        cons_means in prop::collection::vec(-3.0..3.0f64, 2..8),
        tau in -5.0..5.0f64,
        shift in -50.0..50.0f64,
        log_scale in -2.0..2.0f64,
    ) {
        let scale = log_scale.exp();
        let affine = |p: &Prediction| Prediction::new(scale * p.mean + shift, scale * scale * p.variance);
        let no_cons: Vec<Vec<Prediction>> = vec![Vec::new(); objs.len()];
        let with_cons: Vec<Vec<Prediction>> = cons_means
            .iter()
            .cycle()
            .take(objs.len())
            .map(|&m| vec![Prediction::new(m, 0.5)])
            .collect();
        for kind in ALL_KINDS {
            for cons in [&no_cons, &with_cons] {
                let constrained = cons.iter().any(|c| !c.is_empty());
                // LCB's additive form and EI's additive penalty are only
                // affine-equivariant without constraints.
                if constrained
                    && !matches!(
                        kind,
                        AcquisitionKind::WeightedExpectedImprovement
                            | AcquisitionKind::ProbabilityOfImprovement
                    )
                {
                    continue;
                }
                let base: Vec<f64> = objs
                    .iter()
                    .zip(cons.iter())
                    .map(|(o, c)| evaluate(kind, o, c, Some(tau)))
                    .collect();
                let (best, margin) = argmax_with_margin(&base);
                let spread = base
                    .iter()
                    .fold(0.0f64, |acc, s| acc.max(s.abs()));
                if margin <= 1e-6 * (1.0 + spread) {
                    continue; // near-tie: rounding may legitimately flip it
                }
                let shifted: Vec<f64> = objs
                    .iter()
                    .zip(cons.iter())
                    .map(|(o, c)| evaluate(kind, &affine(o), c, Some(scale * tau + shift)))
                    .collect();
                let (best_shifted, _) = argmax_with_margin(&shifted);
                prop_assert!(
                    best == best_shifted,
                    "{kind:?} (constrained: {constrained}): argmax moved under x -> {scale}·x + {shift}"
                );
            }
        }
    }

    /// σ → 0 limits: with deterministic predictions every variant collapses
    /// to its documented closed form.
    #[test]
    fn degenerate_variance_limits_match_closed_forms(
        mu in -5.0..5.0f64,
        tau in -5.0..5.0f64,
        cons_means in prop::collection::vec(-2.0..2.0f64, 0..4),
        kappa in 0.1..3.0f64,
    ) {
        let obj = Prediction::new(mu, 0.0);
        let cons: Vec<Prediction> = cons_means.iter().map(|&m| Prediction::new(m, 0.0)).collect();
        let feasible = cons.iter().all(|c| c.mean < 0.0);
        let indicator = if feasible { 1.0 } else { 0.0 };

        let wei = evaluate(AcquisitionKind::WeightedExpectedImprovement, &obj, &cons, Some(tau));
        prop_assert!((wei - (tau - mu).max(0.0) * indicator).abs() < 1e-12);

        let violation: f64 = cons.iter().map(|c| c.mean.max(0.0)).sum();
        let ei = evaluate(AcquisitionKind::ExpectedImprovement, &obj, &cons, Some(tau));
        prop_assert!((ei - (tau - (mu + 10.0 * violation)).max(0.0)).abs() < 1e-12);

        let lcb = evaluate(AcquisitionKind::LowerConfidenceBound { kappa }, &obj, &cons, Some(tau));
        prop_assert!((lcb - (-mu) * indicator.max(1e-6)).abs() < 1e-12);

        let pi = evaluate(AcquisitionKind::ProbabilityOfImprovement, &obj, &cons, Some(tau));
        let pi_expected = if mu < tau { indicator } else { 0.0 };
        prop_assert!((pi - pi_expected).abs() < 1e-12);
    }

    #[test]
    fn ensemble_warm_fit_is_deterministic_and_never_non_finite(seed in 0..200u64) {
        let config = EnsembleConfig {
            members: 2,
            member_config: NeuralGpConfig {
                hidden_dims: vec![6],
                feature_dim: 4,
                epochs: 12,
                warm_epochs: 5,
                ..NeuralGpConfig::fast()
            },
        };
        let (xs, ys) = surrogate_training_data(12);
        let mut rng = StdRng::seed_from_u64(seed);
        let prev = NeuralGpEnsemble::fit(&xs, &ys, &config, &mut rng).unwrap();
        let warm_fit = || {
            NeuralGpEnsemble::fit_warm(
                &xs,
                &ys,
                &config,
                &mut StdRng::seed_from_u64(seed + 1),
                Some(&prev),
            )
            .unwrap()
        };
        let warm1 = warm_fit();
        let warm2 = warm_fit();
        prop_assert_eq!(warm1.len(), warm2.len());
        for (a, b) in warm1.members().iter().zip(warm2.members().iter()) {
            prop_assert!(a.nll().is_finite());
            prop_assert_eq!(a.nll(), b.nll());
        }
        let q = [0.3, 0.6];
        prop_assert_eq!(warm1.predict(&q).mean, warm2.predict(&q).mean);
        prop_assert_eq!(warm1.predict(&q).variance, warm2.predict(&q).variance);
    }
}
