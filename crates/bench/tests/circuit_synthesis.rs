//! End-to-end circuit-synthesis integration tests: the optimizer driving the
//! circuit-simulation substrate, exactly as in the paper's experiments (at reduced
//! budgets so the test-suite stays fast).

use nnbo_circuits::PvtCorner;
use nnbo_core::problems::{ChargePumpProblem, OpAmpProblem, Problem};
use nnbo_core::{BayesOpt, BoConfig, EnsembleConfig, NeuralGpConfig};

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
fn opamp_sizing_finds_a_feasible_high_gain_design() {
    let problem = OpAmpProblem::new();
    let result = BayesOpt::neural_with(BoConfig::fast(18, 30).with_seed(5), fast_ensemble())
        .run(&problem)
        .expect("op-amp sizing run failed");
    let (x, eval) = result.best().expect("a feasible op-amp design exists");
    let perf = problem.performances(x);
    assert!(perf.ugf_hz > 40e6, "UGF {} violates the spec", perf.ugf_hz);
    assert!(perf.pm_deg > 60.0, "PM {} violates the spec", perf.pm_deg);
    assert!(
        -eval.objective > 60.0,
        "gain {} dB is implausibly low",
        -eval.objective
    );
}

#[test]
fn opamp_objective_improves_over_the_initial_design() {
    let problem = OpAmpProblem::new();
    let result = BayesOpt::neural_with(BoConfig::fast(15, 28).with_seed(9), fast_ensemble())
        .run(&problem)
        .expect("run failed");
    let best = result.best_objective().expect("feasible design");
    let initial_best = result.evaluations()[..15]
        .iter()
        .filter(|(_, e)| e.is_feasible())
        .map(|(_, e)| e.objective)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best <= initial_best,
        "model-guided phase ({best}) did not improve on the initial design ({initial_best})"
    );
}

#[test]
fn charge_pump_nominal_corner_sizing_reaches_feasibility() {
    // Use the nominal corner only so the test stays cheap; the full 18-corner
    // problem is exercised by the reproduction harness.
    let bench = nnbo_circuits::ChargePump::with_corners(vec![PvtCorner::nominal()]);
    let problem = ChargePumpProblem::from_bench(bench);
    assert_eq!(problem.dim(), 36);
    let result = BayesOpt::neural_with(BoConfig::fast(20, 32).with_seed(11), fast_ensemble())
        .run(&problem)
        .expect("charge-pump sizing run failed");
    let (x, eval) = result.best().expect("a feasible charge-pump design exists");
    let perf = problem.performances(x);
    assert!(perf.feasible());
    assert!(
        eval.objective < 15.0,
        "FOM {} is implausibly high",
        eval.objective
    );
}

#[test]
fn full_18_corner_charge_pump_problem_is_consistent() {
    let problem = ChargePumpProblem::new();
    let x = vec![0.6; 36];
    let eval = problem.evaluate(&x);
    let perf = problem.performances(&x);
    // The worst case over 18 corners can only be as good as the nominal corner.
    let nominal = ChargePumpProblem::from_bench(nnbo_circuits::ChargePump::with_corners(vec![
        PvtCorner::nominal(),
    ]));
    let nominal_eval = nominal.evaluate(&x);
    assert!(eval.objective >= nominal_eval.objective - 1e-9);
    assert_eq!(eval.is_feasible(), perf.feasible());
}
