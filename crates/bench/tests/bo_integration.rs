//! Cross-crate integration tests: every optimizer through the full stack on
//! synthetic constrained problems.

use nnbo_baselines::{weibo, DeConfig, DifferentialEvolution, Gaspad, GaspadConfig, RandomSearch};
use nnbo_core::problems::{ConstrainedBranin, GardnerSine, Hartmann6, Problem};
use nnbo_core::{BayesOpt, BoConfig, EnsembleConfig, NeuralGpConfig, RunStatistics, RunSummary};

fn fast_ensemble() -> EnsembleConfig {
    EnsembleConfig {
        members: 2,
        member_config: NeuralGpConfig {
            epochs: 60,
            ..NeuralGpConfig::fast()
        },
    }
}

#[test]
fn neural_bo_beats_random_search_on_constrained_branin() {
    let problem = ConstrainedBranin::new();
    let budget = 30;
    let mut bo_best = Vec::new();
    let mut random_best = Vec::new();
    for seed in 0..3u64 {
        let bo = BayesOpt::neural_with(BoConfig::fast(10, budget).with_seed(seed), fast_ensemble())
            .run(&problem)
            .expect("bo run");
        bo_best.push(bo.best_objective().expect("feasible"));
        let rs = RandomSearch::new(budget, seed).run(&problem);
        random_best.push(rs.best_objective().unwrap_or(f64::INFINITY));
    }
    let bo_mean: f64 = bo_best.iter().sum::<f64>() / bo_best.len() as f64;
    let rs_mean: f64 = random_best.iter().sum::<f64>() / random_best.len() as f64;
    assert!(
        bo_mean <= rs_mean + 0.5,
        "BO mean {bo_mean} should not lose to random search mean {rs_mean}"
    );
}

#[test]
fn all_four_algorithms_complete_on_gardner_sine() {
    let problem = GardnerSine::new();
    let ours = BayesOpt::neural_with(BoConfig::fast(8, 16).with_seed(1), fast_ensemble())
        .run(&problem)
        .expect("ours");
    let wb = weibo(BoConfig::fast(8, 16).with_seed(1))
        .run(&problem)
        .expect("weibo");
    let gp = Gaspad::new(GaspadConfig::new(8, 16).with_seed(1)).run(&problem);
    let de = DifferentialEvolution::new(DeConfig::new(8, 40).with_seed(1)).run(&problem);
    for (name, result) in [("ours", &ours), ("weibo", &wb), ("gaspad", &gp)] {
        assert_eq!(result.num_evaluations(), 16, "{name} budget mismatch");
    }
    assert_eq!(de.num_evaluations(), 40);
}

#[test]
fn statistics_aggregate_repeated_runs() {
    let problem = Hartmann6::new();
    let mut summaries = Vec::new();
    for seed in 0..3u64 {
        let result = BayesOpt::neural_with(BoConfig::fast(10, 18).with_seed(seed), fast_ensemble())
            .run(&problem)
            .expect("run");
        summaries.push(RunSummary::from_result(&result, 1e-3));
    }
    let stats = RunStatistics::from_summaries(&summaries).expect("some run succeeded");
    assert_eq!(stats.runs, 3);
    assert_eq!(stats.successes, 3);
    assert!(stats.best <= stats.median && stats.median <= stats.worst);
    assert!(
        stats.mean < 0.0,
        "Hartmann6 values are negative near the optimum"
    );
}

#[test]
fn weibo_and_neural_bo_share_the_same_loop_semantics() {
    // Identical configuration and seed: both methods evaluate the same initial
    // design (the surrogates only influence the model-guided phase).
    let problem = ConstrainedBranin::new();
    let config = BoConfig::fast(9, 12).with_seed(33);
    let ours = BayesOpt::neural_with(config.clone(), fast_ensemble())
        .run(&problem)
        .expect("ours");
    let wb = weibo(config).run(&problem).expect("weibo");
    for i in 0..9 {
        assert_eq!(
            ours.evaluations()[i].1.objective,
            wb.evaluations()[i].1.objective,
            "initial design diverged at sample {i}"
        );
    }
}

#[test]
fn unconstrained_problem_reports_every_point_feasible() {
    let problem = Hartmann6::new();
    assert_eq!(problem.num_constraints(), 0);
    let result = BayesOpt::neural_with(BoConfig::fast(8, 12).with_seed(2), fast_ensemble())
        .run(&problem)
        .expect("run");
    assert!(result.evaluations().iter().all(|(_, e)| e.is_feasible()));
    assert_eq!(result.first_feasible_at(), Some(1));
}
