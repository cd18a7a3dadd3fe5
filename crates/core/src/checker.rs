//! The single-operation satisfiability check (Algorithm 1 of the paper).

use crate::budget::BudgetMeter;
use crate::engine::{MeanEstimate, NblEngine, StepAnswer};
use crate::error::Result;
use crate::transform::NblSatInstance;
use cnf::{Assignment, Literal, PartialAssignment};
use std::fmt;

/// The outcome of an NBL-SAT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The mean of S_N is (statistically) positive: the instance is satisfiable.
    Satisfiable,
    /// The mean of S_N is (statistically) zero: the instance is unsatisfiable.
    Unsatisfiable,
}

impl Verdict {
    /// Returns `true` for [`Verdict::Satisfiable`].
    pub fn is_sat(self) -> bool {
        self == Verdict::Satisfiable
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Satisfiable => write!(f, "SAT"),
            Verdict::Unsatisfiable => write!(f, "UNSAT"),
        }
    }
}

/// Algorithm 1: `NBL-SAT check` — observe S_N = τ_N · Σ_N once and decide
/// SAT/UNSAT from the sign of its average.
///
/// The checker is generic over the [`NblEngine`] that produces the mean
/// estimate: with the exact [`crate::SymbolicEngine`] the decision is the
/// ideal hardware answer; with the [`crate::SampledEngine`] it follows the
/// statistical decision rule of [`MeanEstimate::is_positive`] with the
/// configured confidence threshold.
#[derive(Debug, Clone)]
pub struct SatChecker<E> {
    engine: E,
    decision_sigmas: f64,
    /// Number of checks performed so far (each check is "one operation" in the
    /// paper's accounting).
    checks_performed: u64,
}

impl<E: NblEngine> SatChecker<E> {
    /// Creates a checker around an engine with the default 3σ decision rule.
    pub fn new(engine: E) -> Self {
        SatChecker {
            engine,
            decision_sigmas: 3.0,
            checks_performed: 0,
        }
    }

    /// Overrides the decision threshold (in standard errors of the mean).
    pub fn with_decision_sigmas(mut self, sigmas: f64) -> Self {
        self.decision_sigmas = sigmas;
        self
    }

    /// Checks satisfiability of the full instance (no bindings).
    ///
    /// # Errors
    ///
    /// Propagates engine errors (size limits, mismatched bindings).
    pub fn check(&mut self, instance: &NblSatInstance) -> Result<Verdict> {
        let bindings = instance.empty_bindings();
        self.check_with_bindings(instance, &bindings)
    }

    /// Checks satisfiability of the instance restricted to a τ_N subspace.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (size limits, mismatched bindings).
    pub fn check_with_bindings(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<Verdict> {
        let estimate = self.estimate_with_bindings(instance, bindings)?;
        Ok(self.decide(&estimate))
    }

    /// Returns the raw mean estimate for a restricted check, for callers that
    /// want the magnitude (e.g. the hybrid solver's branching guidance) and
    /// not just the verdict.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (size limits, mismatched bindings).
    pub fn estimate_with_bindings(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<MeanEstimate> {
        self.checks_performed += 1;
        self.engine.estimate(instance, bindings)
    }

    /// Budgeted restricted check: charges one coprocessor check against the
    /// meter and runs the engine's budget-aware estimate, so both the check
    /// allowance and the wall-clock/sample limits can interrupt it.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus any
    /// engine error.
    pub fn check_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<Verdict> {
        let estimate = self.estimate_budgeted(instance, bindings, meter)?;
        Ok(self.decide(&estimate))
    }

    /// Budgeted raw estimate, charging the meter like
    /// [`SatChecker::check_budgeted`].
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus any
    /// engine error.
    pub fn estimate_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<MeanEstimate> {
        meter.charge_check()?;
        self.checks_performed += 1;
        self.engine.estimate_budgeted(instance, bindings, meter)
    }

    /// Budgeted checks of every child of a search node through
    /// [`NblEngine::literal_means`], counting each check the engine charges
    /// to `meter` as one operation.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus any
    /// engine error.
    pub fn literal_means_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
        visit: &mut dyn FnMut(Literal, MeanEstimate),
    ) -> Result<()> {
        self.count_charged(meter, |engine, meter| {
            engine.literal_means(instance, bindings, meter, visit)
        })
    }

    /// One budgeted Algorithm 2 check through [`NblEngine::extraction_step`],
    /// counted as one operation once the engine has charged it.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus any
    /// engine error.
    pub fn extraction_step_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        witness: Option<&Assignment>,
        meter: &mut BudgetMeter,
    ) -> Result<StepAnswer> {
        self.count_charged(meter, |engine, meter| {
            engine.extraction_step(instance, bindings, witness, meter)
        })
    }

    /// Runs `batch` on the engine and counts each check it charged to
    /// `meter` as one operation, also when it fails.
    fn count_charged<T>(
        &mut self,
        meter: &mut BudgetMeter,
        batch: impl FnOnce(&mut E, &mut BudgetMeter) -> Result<T>,
    ) -> Result<T> {
        let charged = meter.checks_used();
        let result = batch(&mut self.engine, meter);
        self.checks_performed += meter.checks_used() - charged;
        result
    }

    /// Applies the decision rule of Algorithm 1 to a mean estimate.
    pub fn decide(&self, estimate: &MeanEstimate) -> Verdict {
        if estimate.is_positive(self.decision_sigmas) {
            Verdict::Satisfiable
        } else {
            Verdict::Unsatisfiable
        }
    }

    /// Number of check operations performed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks_performed
    }

    /// Access to the underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Consumes the checker and returns the engine.
    pub fn into_engine(self) -> E {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::sampled::SampledEngine;
    use crate::symbolic::SymbolicEngine;
    use cnf::generators::{self, RandomKSatConfig};

    fn instance(f: &cnf::CnfFormula) -> NblSatInstance {
        NblSatInstance::new(f).unwrap()
    }

    #[test]
    fn verdict_display_and_accessors() {
        assert_eq!(Verdict::Satisfiable.to_string(), "SAT");
        assert_eq!(Verdict::Unsatisfiable.to_string(), "UNSAT");
        assert!(Verdict::Satisfiable.is_sat());
        assert!(!Verdict::Unsatisfiable.is_sat());
    }

    #[test]
    fn single_operation_check_on_paper_examples_symbolic() {
        let mut checker = SatChecker::new(SymbolicEngine::new());
        assert_eq!(
            checker
                .check(&instance(&generators::example6_sat()))
                .unwrap(),
            Verdict::Satisfiable
        );
        assert_eq!(
            checker
                .check(&instance(&generators::example7_unsat()))
                .unwrap(),
            Verdict::Unsatisfiable
        );
        assert_eq!(
            checker
                .check(&instance(&generators::section4_sat_instance()))
                .unwrap(),
            Verdict::Satisfiable
        );
        assert_eq!(
            checker
                .check(&instance(&generators::section4_unsat_instance()))
                .unwrap(),
            Verdict::Unsatisfiable
        );
        // Each decision costs exactly one check operation.
        assert_eq!(checker.checks_performed(), 4);
    }

    #[test]
    fn single_operation_check_on_paper_examples_sampled() {
        let engine = SampledEngine::new(
            EngineConfig::new()
                .with_seed(13)
                .with_max_samples(80_000)
                .with_check_interval(20_000),
        );
        let mut checker = SatChecker::new(engine);
        assert_eq!(
            checker
                .check(&instance(&generators::example6_sat()))
                .unwrap(),
            Verdict::Satisfiable
        );
        assert_eq!(
            checker
                .check(&instance(&generators::example7_unsat()))
                .unwrap(),
            Verdict::Unsatisfiable
        );
        assert_eq!(checker.engine().config().seed, 13);
    }

    #[test]
    fn symbolic_checker_matches_model_counting_on_random_instances() {
        let mut checker = SatChecker::new(SymbolicEngine::new());
        for seed in 0..30 {
            let f =
                generators::random_ksat(&RandomKSatConfig::new(7, 30, 3).with_seed(seed)).unwrap();
            let expected = f.count_satisfying_assignments() > 0;
            let verdict = checker.check(&instance(&f)).unwrap();
            assert_eq!(verdict.is_sat(), expected, "seed {seed}");
        }
    }

    #[test]
    fn restricted_checks_follow_example8() {
        let inst = instance(&generators::example6_sat());
        let mut checker = SatChecker::new(SymbolicEngine::new());
        let mut bindings = inst.empty_bindings();
        bindings.assign(cnf::Variable::new(0), true);
        assert_eq!(
            checker.check_with_bindings(&inst, &bindings).unwrap(),
            Verdict::Satisfiable
        );
        bindings.assign(cnf::Variable::new(1), true);
        assert_eq!(
            checker.check_with_bindings(&inst, &bindings).unwrap(),
            Verdict::Unsatisfiable
        );
    }

    #[test]
    fn custom_decision_threshold_is_respected() {
        // With an absurdly high threshold even a positive sampled mean is
        // treated as not-yet-significant.
        let estimate = MeanEstimate {
            mean: 1.0,
            std_error: 0.3,
            samples: 100,
            converged: true,
            exact: false,
        };
        let checker = SatChecker::new(SymbolicEngine::new()).with_decision_sigmas(10.0);
        assert_eq!(checker.decide(&estimate), Verdict::Unsatisfiable);
        let relaxed = SatChecker::new(SymbolicEngine::new()).with_decision_sigmas(2.0);
        assert_eq!(relaxed.decide(&estimate), Verdict::Satisfiable);
    }

    #[test]
    fn engine_access() {
        let mut checker = SatChecker::new(SymbolicEngine::new());
        let _ = checker.engine_mut();
        let engine = checker.into_engine();
        assert_eq!(nbl_sat_core_engine_name(&engine), "symbolic");
    }

    fn nbl_sat_core_engine_name<E: NblEngine>(e: &E) -> &'static str {
        e.name()
    }
}
