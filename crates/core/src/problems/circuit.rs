//! Circuit-synthesis problems: the paper's two evaluation circuits.

use nnbo_circuits::{ChargePump, TwoStageOpAmp, CHARGE_PUMP_DIM, OPAMP_DIM};

use super::{EvalOutcome, Evaluation, Problem};

/// The two-stage op-amp sizing problem of Table I:
///
/// ```text
/// maximize  GAIN
/// s.t.      UGF > 40 MHz
///           PM  > 60°
/// ```
///
/// rewritten as a minimisation of `-GAIN` with constraints in `g_i(x) < 0` form.
/// The constraints are expressed in natural units — MHz of UGF shortfall and degrees
/// of phase-margin shortfall — so that the constraint surrogates see well-scaled
/// targets.
///
/// # Example
///
/// ```
/// use nnbo_core::problems::{OpAmpProblem, Problem};
///
/// let problem = OpAmpProblem::new();
/// assert_eq!(problem.dim(), 10);
/// assert_eq!(problem.num_constraints(), 2);
/// let eval = problem.evaluate(&[0.5; 10]);
/// assert!(eval.objective.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct OpAmpProblem {
    bench: TwoStageOpAmp,
    min_ugf_hz: f64,
    min_pm_deg: f64,
}

impl Default for OpAmpProblem {
    fn default() -> Self {
        OpAmpProblem {
            bench: TwoStageOpAmp::new(),
            min_ugf_hz: 40e6,
            min_pm_deg: 60.0,
        }
    }
}

impl OpAmpProblem {
    /// Creates the problem with the paper's specification (UGF > 40 MHz, PM > 60°).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the problem with a custom specification.
    pub fn with_spec(min_ugf_hz: f64, min_pm_deg: f64) -> Self {
        OpAmpProblem {
            bench: TwoStageOpAmp::new(),
            min_ugf_hz,
            min_pm_deg,
        }
    }

    /// Creates the problem from a custom-configured testbench.
    pub fn from_bench(bench: TwoStageOpAmp) -> Self {
        OpAmpProblem {
            bench,
            ..Self::default()
        }
    }

    /// The corner-stress fixture: the paper's specification on the
    /// deliberately broken [`TwoStageOpAmp::stressed`] bench, whose AC
    /// analysis fails at every design point.  [`Problem::try_evaluate`]
    /// reports [`EvalOutcome::Failed`] deterministically — use it to
    /// exercise the optimization loop's failure policy end to end.
    pub fn corner_stress() -> Self {
        Self::from_bench(TwoStageOpAmp::stressed())
    }

    /// The underlying circuit testbench.
    pub fn bench(&self) -> &TwoStageOpAmp {
        &self.bench
    }

    /// Full circuit performances at a normalised design point (useful for reporting
    /// UGF and PM alongside the gain, as Table I does).
    pub fn performances(&self, x: &[f64]) -> nnbo_circuits::OpAmpPerformance {
        self.bench.evaluate_normalized(x)
    }
}

impl Problem for OpAmpProblem {
    fn dim(&self) -> usize {
        OPAMP_DIM
    }

    fn num_constraints(&self) -> usize {
        2
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let p = self.bench.evaluate_normalized(x);
        // Maximising GAIN == minimising -GAIN (dB).
        let objective = -p.gain_db;
        // UGF constraint in MHz, PM constraint in degrees (both "shortfall < 0").
        let g_ugf = (self.min_ugf_hz - p.ugf_hz) / 1e6;
        let g_pm = self.min_pm_deg - p.pm_deg;
        Evaluation::new(objective, vec![g_ugf, g_pm])
    }

    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        // Honest path: a singular MNA system is a failed simulation, not a
        // −100 dB op-amp.  (`evaluate` keeps the penalty projection.)
        match self.bench.try_evaluate_normalized(x) {
            Ok(p) => EvalOutcome::Ok(Evaluation::new(
                -p.gain_db,
                vec![
                    (self.min_ugf_hz - p.ugf_hz) / 1e6,
                    self.min_pm_deg - p.pm_deg,
                ],
            )),
            Err(reason) => EvalOutcome::Failed(format!("op-amp simulation failed: {reason}")),
        }
    }

    fn name(&self) -> &str {
        "two-stage-opamp"
    }
}

/// The charge-pump sizing problem of Table II:
///
/// ```text
/// minimize  FOM = 0.3·diff + 0.5·deviation
/// s.t.      diff1 < 20 µA, diff2 < 20 µA,
///           diff3 < 5 µA,  diff4 < 5 µA,
///           deviation < 5 µA
/// ```
///
/// evaluated over 18 PVT corners (eq. 15–16 of the paper).
///
/// # Example
///
/// ```
/// use nnbo_core::problems::{ChargePumpProblem, Problem};
///
/// let problem = ChargePumpProblem::new();
/// assert_eq!(problem.dim(), 36);
/// assert_eq!(problem.num_constraints(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ChargePumpProblem {
    bench: ChargePump,
}

impl Default for ChargePumpProblem {
    fn default() -> Self {
        ChargePumpProblem {
            bench: ChargePump::new(),
        }
    }
}

impl ChargePumpProblem {
    /// Creates the problem with the standard 18 PVT corners.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the problem from a custom-configured testbench.
    pub fn from_bench(bench: ChargePump) -> Self {
        ChargePumpProblem { bench }
    }

    /// The underlying testbench.
    pub fn bench(&self) -> &ChargePump {
        &self.bench
    }

    /// Full charge-pump metrics at a normalised design point (for Table-II style
    /// reporting of diff1..4 and deviation).
    pub fn performances(&self, x: &[f64]) -> nnbo_circuits::ChargePumpPerformance {
        self.bench.evaluate_normalized(x)
    }
}

impl Problem for ChargePumpProblem {
    fn dim(&self) -> usize {
        CHARGE_PUMP_DIM
    }

    fn num_constraints(&self) -> usize {
        5
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let p = self.bench.evaluate_normalized(x);
        Evaluation::new(
            p.fom,
            vec![
                p.diff1 - 20.0,
                p.diff2 - 20.0,
                p.diff3 - 5.0,
                p.diff4 - 5.0,
                p.deviation - 5.0,
            ],
        )
    }

    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        match self.bench.try_evaluate_normalized(x) {
            Ok(p) => EvalOutcome::Ok(Evaluation::new(
                p.fom,
                vec![
                    p.diff1 - 20.0,
                    p.diff2 - 20.0,
                    p.diff3 - 5.0,
                    p.diff4 - 5.0,
                    p.deviation - 5.0,
                ],
            )),
            Err(reason) => EvalOutcome::Failed(format!("charge-pump simulation failed: {reason}")),
        }
    }

    fn name(&self) -> &str {
        "charge-pump"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opamp_objective_is_negated_gain() {
        let problem = OpAmpProblem::new();
        let x = vec![0.5; 10];
        let eval = problem.evaluate(&x);
        let perf = problem.performances(&x);
        assert!((eval.objective + perf.gain_db).abs() < 1e-12);
        assert_eq!(eval.constraints.len(), 2);
    }

    #[test]
    fn opamp_constraints_flip_sign_with_spec() {
        // With an impossible spec every point is infeasible; with a trivial spec the
        // same point becomes feasible.
        let x = vec![0.5; 10];
        let strict = OpAmpProblem::with_spec(1e12, 179.0);
        assert!(!strict.evaluate(&x).is_feasible());
        let trivial = OpAmpProblem::with_spec(1.0, 0.1);
        let eval = trivial.evaluate(&x);
        assert!(eval.constraints[0] < 0.0);
    }

    #[test]
    fn chargepump_constraints_match_table_ii_limits() {
        let problem = ChargePumpProblem::new();
        let x = vec![0.5; 36];
        let eval = problem.evaluate(&x);
        let perf = problem.performances(&x);
        assert!((eval.objective - perf.fom).abs() < 1e-12);
        assert!((eval.constraints[0] - (perf.diff1 - 20.0)).abs() < 1e-12);
        assert!((eval.constraints[4] - (perf.deviation - 5.0)).abs() < 1e-12);
        assert_eq!(eval.is_feasible(), perf.feasible());
    }

    #[test]
    fn problems_report_their_shapes() {
        assert_eq!(OpAmpProblem::new().dim(), 10);
        assert_eq!(OpAmpProblem::new().name(), "two-stage-opamp");
        assert_eq!(ChargePumpProblem::new().dim(), 36);
        assert_eq!(ChargePumpProblem::new().num_constraints(), 5);
    }

    #[test]
    fn honest_path_matches_the_infallible_projection_on_healthy_points() {
        let opamp = OpAmpProblem::new();
        let x = vec![0.5; 10];
        match opamp.try_evaluate(&x) {
            crate::problems::EvalOutcome::Ok(e) => assert_eq!(e, opamp.evaluate(&x)),
            other => panic!("healthy op-amp point failed: {other:?}"),
        }
        let pump = ChargePumpProblem::new();
        let x = vec![0.5; 36];
        match pump.try_evaluate(&x) {
            crate::problems::EvalOutcome::Ok(e) => assert_eq!(e, pump.evaluate(&x)),
            other => panic!("healthy charge-pump point failed: {other:?}"),
        }
    }

    #[test]
    fn corner_stress_fixture_fails_deterministically_with_a_reason() {
        let stressed = OpAmpProblem::corner_stress();
        for x in [vec![0.1; 10], vec![0.5; 10], vec![0.9; 10]] {
            match stressed.try_evaluate(&x) {
                crate::problems::EvalOutcome::Failed(reason) => {
                    assert!(reason.contains("singular"), "reason: {reason}");
                }
                other => panic!("stressed bench unexpectedly produced {other:?}"),
            }
            // The legacy projection still yields a finite penalty evaluation.
            let e = stressed.evaluate(&x);
            assert!(e.objective.is_finite());
        }
    }
}
