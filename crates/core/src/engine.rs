//! The engine abstraction: anything that can estimate ⟨S_N⟩.

use crate::budget::BudgetMeter;
use crate::error::Result;
use crate::transform::NblSatInstance;
use cnf::{Assignment, Literal, PartialAssignment, Variable};
use std::fmt;

/// An estimate of the mean of `S_N = τ_N · Σ_N` under a set of bindings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanEstimate {
    /// The estimated (or exact) mean ⟨S_N⟩.
    pub mean: f64,
    /// Standard error of the estimate (0 for exact engines).
    pub std_error: f64,
    /// Number of noise samples used (0 for exact engines).
    pub samples: u64,
    /// Whether the engine's own convergence criterion was met.
    pub converged: bool,
    /// `true` if the estimate is exact (symbolic/algebraic engines).
    pub exact: bool,
}

impl MeanEstimate {
    /// Creates an exact estimate (no sampling error).
    pub fn exact(mean: f64) -> Self {
        MeanEstimate {
            mean,
            std_error: 0.0,
            samples: 0,
            converged: true,
            exact: true,
        }
    }

    /// Decides whether the mean is positive with the given confidence
    /// threshold (in standard errors).
    ///
    /// Exact estimates just compare against zero; sampled estimates require
    /// the mean to exceed `sigmas` standard errors, which keeps the UNSAT
    /// false-positive rate at the corresponding Gaussian tail probability.
    pub fn is_positive(&self, sigmas: f64) -> bool {
        if self.exact || self.std_error == 0.0 {
            self.mean > 0.0
        } else {
            self.mean > sigmas * self.std_error
        }
    }

    /// Signal-to-noise proxy of the estimate: mean divided by standard error
    /// (infinite for exact estimates with non-zero mean).
    pub fn snr(&self) -> f64 {
        if self.std_error == 0.0 {
            if self.mean > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.mean / self.std_error
        }
    }
}

impl fmt::Display for MeanEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.6e} ± {:.2e} (samples={}, {}{})",
            self.mean,
            self.std_error,
            self.samples,
            if self.exact { "exact" } else { "sampled" },
            if self.converged { ", converged" } else { "" }
        )
    }
}

/// How an engine answered one step of Algorithm 2: whether the subspace with
/// the step's variable set to 1 holds a model.
#[derive(Debug, Clone, PartialEq)]
pub enum StepAnswer {
    /// A mean estimate of the subspace; the checker's decision rule reads it.
    Estimate(MeanEstimate),
    /// An exact answer: a model of the formula inside the subspace, or `None`
    /// if the subspace holds none.
    Model(Option<Assignment>),
}

/// An engine capable of estimating ⟨S_N⟩ for an NBL-SAT instance under
/// τ_N-side variable bindings.
///
/// The three provided implementations are [`crate::SymbolicEngine`] (exact,
/// counting-based), [`crate::AlgebraicEngine`] (exact, term-expansion based)
/// and [`crate::SampledEngine`] (Monte-Carlo simulation of the analog
/// datapath).
///
/// # Batches of checks
///
/// The hybrid solver and Algorithm 2 ask for many restricted checks against
/// one instance. They ask through [`NblEngine::literal_means`] and
/// [`NblEngine::extraction_step`], whose default bodies run one
/// [`NblEngine::estimate_budgeted`] per logical check.
/// [`crate::SymbolicEngine`] overrides both to answer a whole batch with one
/// search. An override must keep the per-check accounting: it charges one
/// check to the meter for every logical check, in the default body's order,
/// and returns the answers the default body would return.
pub trait NblEngine {
    /// Estimates ⟨S_N⟩ for `instance` with the given τ_N bindings.
    ///
    /// # Errors
    ///
    /// Implementations return an error if the instance exceeds their size
    /// limits or the bindings do not match the instance.
    fn estimate(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<MeanEstimate>;

    /// Estimates ⟨S_N⟩ while charging the given [`BudgetMeter`].
    ///
    /// Engines with internal loops override this so the budget genuinely
    /// *interrupts* the work: [`crate::SampledEngine`] clamps its convergence
    /// loop to the remaining sample allowance and polls the deadline every
    /// sample, [`crate::SymbolicEngine`] polls the deadline inside its
    /// model search. The default implementation only pre-checks the
    /// deadline and sample allowance, then charges the samples the estimate
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus
    /// everything [`NblEngine::estimate`] can return.
    fn estimate_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<MeanEstimate> {
        meter.ensure_time()?;
        meter.ensure_samples()?;
        let estimate = self.estimate(instance, bindings)?;
        meter.charge_samples(estimate.samples);
        Ok(estimate)
    }

    /// Estimates ⟨S_N⟩ for every child of a search node: each free variable
    /// of `bindings` bound each way, one logical check per child. `visit`
    /// receives each child's literal and estimate in variable-index order,
    /// true before false.
    ///
    /// The default body charges a check to `meter` and runs
    /// [`NblEngine::estimate_budgeted`] for each child in turn, so a budget
    /// stops it between children. An override may compute every child in one
    /// pass, but must charge the first check before that pass and each later
    /// check before visiting its child.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus
    /// everything [`NblEngine::estimate`] can return for a child. The
    /// children visited before the error stay visited.
    fn literal_means(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
        visit: &mut dyn FnMut(Literal, MeanEstimate),
    ) -> Result<()> {
        let mut child = bindings.clone();
        for var in (0..instance.num_vars()).map(Variable::new) {
            if bindings.value(var).is_some() {
                continue;
            }
            for value in [true, false] {
                meter.charge_check()?;
                child.assign(var, value);
                let estimate = self.estimate_budgeted(instance, &child, meter);
                child.unassign(var);
                visit(Literal::with_phase(var, value), estimate?);
            }
        }
        Ok(())
    }

    /// Answers one step of Algorithm 2, one logical check: does the subspace
    /// of `bindings` (the decided prefix with the step's variable set to 1)
    /// hold a model? `witness`, when given, is the last model an earlier step
    /// returned.
    ///
    /// The default body charges a check to `meter` and returns
    /// [`StepAnswer::Estimate`] of [`NblEngine::estimate_budgeted`]. An exact
    /// override may answer [`StepAnswer::Model`] instead, from `witness` when
    /// it lies inside the subspace or from a search for one model, but must
    /// charge the check either way.
    ///
    /// # Errors
    ///
    /// [`crate::NblSatError::BudgetExhausted`] when a limit fires, plus
    /// everything [`NblEngine::estimate`] can return.
    fn extraction_step(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        witness: Option<&Assignment>,
        meter: &mut BudgetMeter,
    ) -> Result<StepAnswer> {
        let _ = witness;
        meter.charge_check()?;
        self.estimate_budgeted(instance, bindings, meter)
            .map(StepAnswer::Estimate)
    }

    /// Short human-readable engine name.
    fn name(&self) -> &'static str;
}

/// Test oracle for the batch methods: forwards only the single-check methods,
/// so [`NblEngine::literal_means`] and [`NblEngine::extraction_step`] run
/// their default per-check bodies over the wrapped engine.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct PerCheck<E>(pub E);

#[cfg(test)]
impl<E: NblEngine> NblEngine for PerCheck<E> {
    fn estimate(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<MeanEstimate> {
        self.0.estimate(instance, bindings)
    }

    fn estimate_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<MeanEstimate> {
        self.0.estimate_budgeted(instance, bindings, meter)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The corpus on which the batch methods must match [`PerCheck`]: random
/// 3-SAT at n = 12–20 and α ∈ {3, 4.26, 5}, seeds 1000–1006, plus the
/// paper's worked examples and php(4,3).
#[cfg(test)]
pub(crate) fn batch_corpus() -> Vec<(String, cnf::CnfFormula)> {
    use cnf::generators::{self, RandomKSatConfig};
    let mut corpus = vec![
        ("running example".to_owned(), generators::running_example()),
        ("example 6".to_owned(), generators::example6_sat()),
        ("example 7".to_owned(), generators::example7_unsat()),
        (
            "section 4 SAT".to_owned(),
            generators::section4_sat_instance(),
        ),
        (
            "section 4 UNSAT".to_owned(),
            generators::section4_unsat_instance(),
        ),
        ("php(4,3)".to_owned(), generators::pigeonhole(4, 3)),
    ];
    for n in 12..=20 {
        for alpha in [3.0, 4.26, 5.0] {
            for seed in 1000..1007 {
                let config = RandomKSatConfig::from_ratio(n, alpha, 3).with_seed(seed);
                let label = format!("random 3-SAT n={n} alpha={alpha} seed={seed}");
                corpus.push((label, generators::random_ksat(&config).unwrap()));
            }
        }
    }
    corpus
}

/// The corpus on which budgets and caps must stop the batch methods where
/// they stop [`PerCheck`]: example 6, php(4,3) and two random 3-SAT formulas
/// at n = 10, α = 4.26 (seed 1000 satisfiable, seed 1001 not). None has a unit clause,
/// so a search root has every variable free.
#[cfg(test)]
pub(crate) fn budget_corpus() -> Vec<(String, cnf::CnfFormula)> {
    use cnf::generators::{self, RandomKSatConfig};
    let mut corpus = vec![
        ("example 6".to_owned(), generators::example6_sat()),
        ("php(4,3)".to_owned(), generators::pigeonhole(4, 3)),
    ];
    for seed in [1000, 1001] {
        let config = RandomKSatConfig::from_ratio(10, 4.26, 3).with_seed(seed);
        let label = format!("random 3-SAT n=10 seed={seed}");
        corpus.push((label, generators::random_ksat(&config).unwrap()));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimate_properties() {
        let e = MeanEstimate::exact(0.25);
        assert!(e.exact);
        assert!(e.converged);
        assert_eq!(e.samples, 0);
        assert!(e.is_positive(3.0));
        assert_eq!(e.snr(), f64::INFINITY);
        assert!(e.to_string().contains("exact"));

        let zero = MeanEstimate::exact(0.0);
        assert!(!zero.is_positive(3.0));
        assert_eq!(zero.snr(), 0.0);
    }

    #[test]
    fn sampled_estimate_decision_rule() {
        let strong = MeanEstimate {
            mean: 1.0,
            std_error: 0.1,
            samples: 1000,
            converged: true,
            exact: false,
        };
        let weak = MeanEstimate {
            mean: 0.1,
            std_error: 0.2,
            samples: 1000,
            converged: false,
            exact: false,
        };
        assert!(strong.is_positive(3.0));
        assert!(!weak.is_positive(3.0));
        assert!((strong.snr() - 10.0).abs() < 1e-12);
        assert!(weak.to_string().contains("sampled"));
    }
}
