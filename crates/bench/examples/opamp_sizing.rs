//! Two-stage operational-amplifier sizing (the paper's Table-I workload).
//!
//! Sizes the 10-variable two-stage Miller op-amp for maximum gain subject to
//! UGF > 40 MHz and PM > 60°, using the neural-GP Bayesian optimizer, and prints
//! the circuit performances of the best design found.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p nnbo-bench --example opamp_sizing
//! ```
//!
//! Increase `MAX_SIMS` (e.g. to the paper's 100) for better designs at the cost of
//! a longer run.

use nnbo_core::problems::OpAmpProblem;
use nnbo_core::{BayesOpt, BoConfig, BoError, EnsembleConfig, NeuralGpConfig};

const INITIAL_SAMPLES: usize = 20;
const MAX_SIMS: usize = 45;

fn main() -> Result<(), BoError> {
    let problem = OpAmpProblem::new();

    let config = BoConfig::new(INITIAL_SAMPLES, MAX_SIMS).with_seed(7);
    let ensemble = EnsembleConfig {
        members: 3,
        member_config: NeuralGpConfig {
            epochs: 120,
            ..NeuralGpConfig::default()
        },
    };
    println!(
        "sizing the two-stage op-amp: {} initial samples, {} total simulations",
        INITIAL_SAMPLES, MAX_SIMS
    );
    let result = BayesOpt::neural_with(config, ensemble).run(&problem)?;

    match result.best() {
        Some((x, eval)) => {
            let perf = problem.performances(x);
            let phys = problem.bench().denormalize(x);
            println!(
                "\nbest feasible design (found after {:?} sims to first feasible):",
                result.first_feasible_at()
            );
            println!("  GAIN = {:.2} dB", -eval.objective);
            println!("  UGF  = {:.2} MHz (spec > 40 MHz)", perf.ugf_hz / 1e6);
            println!("  PM   = {:.2} deg (spec > 60 deg)", perf.pm_deg);
            println!("  power = {:.2} mW", perf.power_w * 1e3);
            println!("\ndevice sizes:");
            let names = [
                "W1 (diff pair)",
                "L1",
                "W3 (mirror)",
                "L3",
                "W5 (tail)",
                "L5",
                "W6 (2nd stage)",
                "L6",
                "Cc",
                "Ibias",
            ];
            for (name, value) in names.iter().zip(phys.iter()) {
                if name.starts_with('W') || name.starts_with('L') {
                    println!("  {name:<16} = {:.2} um", value * 1e6);
                } else if *name == "Cc" {
                    println!("  {name:<16} = {:.2} pF", value * 1e12);
                } else {
                    println!("  {name:<16} = {:.2} uA", value * 1e6);
                }
            }
        }
        None => println!("no feasible design found within the budget — increase MAX_SIMS"),
    }
    Ok(())
}
