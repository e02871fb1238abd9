//! Experimental protocols (paper-scale and CI-scale) and environment overrides.

use nnbo_core::{BoConfig, EnsembleConfig, NeuralGpConfig};
use serde::{Deserialize, Serialize};

/// The optimizers compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's method: BO with the neural-GP ensemble surrogate ("Ours").
    NeuralBo,
    /// WEIBO: BO with the classical GP surrogate.
    Weibo,
    /// LinEasyBO: WEIBO's surrogate with the one-dimensional line-subspace
    /// acquisition search (arXiv 2109.00617) — the high-dimensional baseline.
    LinEasyBo,
    /// GASPAD-style surrogate-assisted evolutionary search.
    Gaspad,
    /// Plain differential evolution.
    De,
}

impl Algorithm {
    /// All five algorithms, in the column order of the reports (the paper's
    /// four plus the LinEasyBO subspace baseline).
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::NeuralBo,
            Algorithm::Weibo,
            Algorithm::LinEasyBo,
            Algorithm::Gaspad,
            Algorithm::De,
        ]
    }

    /// Display name used in the reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::NeuralBo => "Ours",
            Algorithm::Weibo => "WEIBO",
            Algorithm::LinEasyBo => "LinEasyBO",
            Algorithm::Gaspad => "GASPAD",
            Algorithm::De => "DE",
        }
    }
}

/// The protocol of one experiment: repetition count, budgets per algorithm and the
/// surrogate settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Protocol {
    /// Number of repeated runs per algorithm.
    pub runs: usize,
    /// Initial (space-filling) samples for the BO methods.
    pub initial_samples: usize,
    /// Simulation budget of the BO methods (Ours and WEIBO).
    pub max_sims_bo: usize,
    /// Simulation budget of GASPAD.
    pub max_sims_gaspad: usize,
    /// Simulation budget of DE.
    pub max_sims_de: usize,
    /// Ensemble size K of the neural-GP surrogate.
    pub ensemble_members: usize,
    /// Training epochs of each neural-GP member.
    pub epochs: usize,
    /// Acquisition candidate-pool size of the BO methods.
    pub candidate_pool: usize,
    /// Base random seed; run `r` of an algorithm uses `seed + r`.
    pub seed: u64,
}

impl Protocol {
    /// The paper's Table-I protocol (two-stage op-amp): 10 runs, 30 initial samples,
    /// 100 simulations for the BO methods, 200 for GASPAD and 1100 for DE.
    pub fn table1_paper() -> Self {
        Protocol {
            runs: 10,
            initial_samples: 30,
            max_sims_bo: 100,
            max_sims_gaspad: 200,
            max_sims_de: 1100,
            ensemble_members: 5,
            epochs: 200,
            candidate_pool: 1024,
            seed: 2019,
        }
    }

    /// A reduced Table-I protocol that finishes in minutes on one core.
    pub fn table1_quick() -> Self {
        Protocol {
            runs: 3,
            initial_samples: 20,
            max_sims_bo: 50,
            max_sims_gaspad: 80,
            max_sims_de: 400,
            ensemble_members: 3,
            epochs: 100,
            candidate_pool: 256,
            seed: 2019,
        }
    }

    /// The paper's Table-II protocol (charge pump): 12 runs, 100 initial samples,
    /// 790 simulations for the BO methods, ≈2300 for GASPAD and ≈1500 for DE.
    pub fn table2_paper() -> Self {
        Protocol {
            runs: 12,
            initial_samples: 100,
            max_sims_bo: 790,
            max_sims_gaspad: 2328,
            max_sims_de: 1538,
            ensemble_members: 5,
            epochs: 200,
            candidate_pool: 1024,
            seed: 40,
        }
    }

    /// A reduced Table-II protocol for CI-scale runs.
    pub fn table2_quick() -> Self {
        Protocol {
            runs: 2,
            initial_samples: 40,
            max_sims_bo: 90,
            max_sims_gaspad: 140,
            max_sims_de: 400,
            ensemble_members: 3,
            epochs: 80,
            candidate_pool: 192,
            seed: 40,
        }
    }

    /// Applies the environment overrides used by the `reproduce` binary:
    /// `NNBO_FULL=1` switches to the paper protocol, `NNBO_RUNS` and
    /// `NNBO_MAX_SIMS` override the repetition count and the BO budget.
    pub fn with_env_overrides(mut self, paper: Self) -> Self {
        if std::env::var("NNBO_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            self = paper;
        }
        if let Ok(runs) = std::env::var("NNBO_RUNS") {
            if let Ok(runs) = runs.parse::<usize>() {
                self.runs = runs.max(1);
            }
        }
        if let Ok(sims) = std::env::var("NNBO_MAX_SIMS") {
            if let Ok(sims) = sims.parse::<usize>() {
                self.max_sims_bo = sims.max(self.initial_samples + 1);
            }
        }
        self
    }

    /// The BO-loop configuration for run index `run`.
    pub fn bo_config(&self, run: usize) -> BoConfig {
        let mut config =
            BoConfig::new(self.initial_samples, self.max_sims_bo).with_seed(self.seed + run as u64);
        config.candidate_pool = self.candidate_pool;
        config.local_candidates = (self.candidate_pool / 4).max(16);
        config
    }

    /// The neural-GP ensemble configuration for this protocol.
    pub fn ensemble_config(&self) -> EnsembleConfig {
        EnsembleConfig {
            members: self.ensemble_members,
            member_config: NeuralGpConfig {
                epochs: self.epochs,
                ..NeuralGpConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocols_match_the_published_budgets() {
        let t1 = Protocol::table1_paper();
        assert_eq!(t1.runs, 10);
        assert_eq!(t1.initial_samples, 30);
        assert_eq!(t1.max_sims_bo, 100);
        assert_eq!(t1.ensemble_members, 5);
        let t2 = Protocol::table2_paper();
        assert_eq!(t2.runs, 12);
        assert_eq!(t2.initial_samples, 100);
        assert_eq!(t2.max_sims_bo, 790);
    }

    #[test]
    fn bo_config_derives_seed_from_run_index() {
        let p = Protocol::table1_quick();
        assert_ne!(p.bo_config(0).seed, p.bo_config(1).seed);
        assert_eq!(p.bo_config(2).max_evaluations, p.max_sims_bo);
        assert_eq!(p.ensemble_config().members, p.ensemble_members);
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Algorithm::NeuralBo.name(), "Ours");
        assert_eq!(Algorithm::LinEasyBo.name(), "LinEasyBO");
        assert_eq!(Algorithm::all().len(), 5);
    }
}
