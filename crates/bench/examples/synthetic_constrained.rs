//! Algorithm shoot-out on synthetic constrained benchmarks.
//!
//! Runs the paper's method and the three baselines (WEIBO, GASPAD, DE) on the
//! constrained Branin and Gardner-sine problems with a small budget, and prints a
//! comparison table — a fast, circuit-free way to see the sample-efficiency gap the
//! paper reports.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p nnbo-bench --example synthetic_constrained
//! ```

use nnbo_baselines::{weibo, DeConfig, DifferentialEvolution, Gaspad, GaspadConfig};
use nnbo_core::problems::{ConstrainedBranin, GardnerSine, Problem};
use nnbo_core::{BayesOpt, BoConfig, EnsembleConfig, NeuralGpConfig, OptimizationResult};

const INIT: usize = 10;
const BUDGET_BO: usize = 35;
const BUDGET_EVOLUTIONARY: usize = 80;

fn main() {
    let problems: Vec<(&str, Box<dyn Problem>)> = vec![
        ("constrained-branin", Box::new(ConstrainedBranin::new())),
        ("gardner-sine", Box::new(GardnerSine::new())),
    ];
    for (name, problem) in &problems {
        println!("== {name} ==");
        println!(
            "  {:<10} {:>8} {:>12} {:>16}",
            "algorithm", "budget", "best value", "first feasible"
        );
        for (alg, result) in run_all(problem.as_ref()) {
            println!(
                "  {:<10} {:>8} {:>12} {:>16}",
                alg,
                result.num_evaluations(),
                result
                    .best_objective()
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_else(|| "-".to_string()),
                result
                    .first_feasible_at()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        println!();
    }
}

fn run_all(problem: &dyn Problem) -> Vec<(&'static str, OptimizationResult)> {
    let ensemble = EnsembleConfig {
        members: 3,
        member_config: NeuralGpConfig {
            epochs: 100,
            ..NeuralGpConfig::default()
        },
    };
    let ours = BayesOpt::neural_with(BoConfig::new(INIT, BUDGET_BO).with_seed(1), ensemble)
        .run(problem)
        .expect("neural BO failed");
    let weibo_result = weibo(BoConfig::new(INIT, BUDGET_BO).with_seed(1))
        .run(problem)
        .expect("WEIBO failed");
    let gaspad =
        Gaspad::new(GaspadConfig::new(INIT, BUDGET_EVOLUTIONARY).with_seed(1)).run(problem);
    let de = DifferentialEvolution::new(DeConfig::new(INIT, BUDGET_EVOLUTIONARY).with_seed(1))
        .run(problem);
    vec![
        ("Ours", ours),
        ("WEIBO", weibo_result),
        ("GASPAD", gaspad),
        ("DE", de),
    ]
}
