//! The engine abstraction: anything that can estimate ⟨S_N⟩.

use crate::budget::BudgetMeter;
use crate::error::Result;
use crate::transform::NblSatInstance;
use cnf::PartialAssignment;
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

/// An engine capable of estimating ⟨S_N⟩ for an NBL-SAT instance under
/// τ_N-side variable bindings.
///
/// The three provided implementations are [`crate::SymbolicEngine`] (exact,
/// counting-based), [`crate::AlgebraicEngine`] (exact, term-expansion based)
/// and [`crate::SampledEngine`] (Monte-Carlo simulation of the analog
/// datapath).
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

    /// Short human-readable engine name.
    fn name(&self) -> &'static str;
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
