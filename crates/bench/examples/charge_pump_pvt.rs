//! Charge-pump sizing over PVT corners (the paper's Table-II workload).
//!
//! Minimises the current-matching figure of merit of the 36-variable charge pump
//! over 18 process/voltage/temperature corners, then reports the per-corner metrics
//! (diff1..diff4, deviation) of the best design — the quantities of eq. 16.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p nnbo-bench --example charge_pump_pvt
//! ```

use nnbo_core::problems::ChargePumpProblem;
use nnbo_core::{BayesOpt, BoConfig, BoError, EnsembleConfig, NeuralGpConfig};

const INITIAL_SAMPLES: usize = 30;
const MAX_SIMS: usize = 55;

fn main() -> Result<(), BoError> {
    let problem = ChargePumpProblem::new();
    println!(
        "charge-pump sizing: 36 design variables, {} PVT corners, {} simulations",
        problem.bench().corners().len(),
        MAX_SIMS
    );

    let config = BoConfig::new(INITIAL_SAMPLES, MAX_SIMS).with_seed(3);
    let ensemble = EnsembleConfig {
        members: 3,
        member_config: NeuralGpConfig {
            epochs: 100,
            ..NeuralGpConfig::default()
        },
    };
    let result = BayesOpt::neural_with(config, ensemble).run(&problem)?;

    match result.best() {
        Some((x, eval)) => {
            let perf = problem.performances(x);
            println!("\nbest feasible design:");
            println!("  FOM       = {:.3} uA (objective)", eval.objective);
            println!("  diff1     = {:.3} uA (spec < 20)", perf.diff1);
            println!("  diff2     = {:.3} uA (spec < 20)", perf.diff2);
            println!("  diff3     = {:.3} uA (spec < 5)", perf.diff3);
            println!("  diff4     = {:.3} uA (spec < 5)", perf.diff4);
            println!("  deviation = {:.3} uA (spec < 5)", perf.deviation);
            println!(
                "\nconvergence: first feasible at simulation {:?}, best reached by simulation {:?}",
                result.first_feasible_at(),
                result.simulations_to_converge(0.05)
            );
        }
        None => println!("no feasible design found within the budget — increase MAX_SIMS"),
    }
    Ok(())
}
