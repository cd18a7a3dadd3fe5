//! The common solver interface.

use crate::limits::SearchLimits;
use crate::share::ShareHandle;
use cnf::{Assignment, CnfFormula};
use std::fmt;

/// Result of a SAT solver run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// The instance is satisfiable; the contained assignment is a model.
    Satisfiable(Assignment),
    /// The instance is unsatisfiable.
    Unsatisfiable,
    /// The solver gave up (only incomplete solvers such as WalkSAT return this).
    Unknown,
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Satisfiable`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Satisfiable(_))
    }

    /// Returns `true` for [`SolveResult::Unsatisfiable`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsatisfiable)
    }

    /// Returns the model if the result is satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveResult::Satisfiable(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for SolveResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveResult::Satisfiable(a) => write!(f, "SAT {a}"),
            SolveResult::Unsatisfiable => write!(f, "UNSAT"),
            SolveResult::Unknown => write!(f, "UNKNOWN"),
        }
    }
}

/// Search statistics shared by all solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals assigned by unit propagation.
    pub propagations: u64,
    /// Number of restarts performed (CDCL only).
    pub restarts: u64,
    /// Number of learned clauses (CDCL only).
    pub learned_clauses: u64,
    /// Number of complete assignments tried (brute force / local search).
    pub assignments_tried: u64,
    /// Number of local-search flips performed (WalkSAT only).
    pub flips: u64,
    /// Learned clauses this solver published into a shared clause pool
    /// (cooperative portfolio members only).
    pub clauses_exported: u64,
    /// Clauses this solver consumed from a shared clause pool (cooperative
    /// portfolio members only).
    pub clauses_imported: u64,
    /// Name of the member that produced the definitive answer (meta-solvers
    /// such as [`crate::Portfolio`] only; `None` for direct solvers).
    pub winner: Option<&'static str>,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} conflicts={} propagations={} restarts={} learned={} tried={} flips={}",
            self.decisions,
            self.conflicts,
            self.propagations,
            self.restarts,
            self.learned_clauses,
            self.assignments_tried,
            self.flips
        )?;
        if self.clauses_exported > 0 || self.clauses_imported > 0 {
            write!(
                f,
                " exported={} imported={}",
                self.clauses_exported, self.clauses_imported
            )?;
        }
        if let Some(winner) = self.winner {
            write!(f, " winner={winner}")?;
        }
        Ok(())
    }
}

/// A SAT solver.
///
/// Implementations must leave the formula untouched and report their own
/// search statistics after each [`Solver::solve`] call.
pub trait Solver {
    /// Solves the given formula under the given resource limits.
    ///
    /// Implementations check the limits inside their search loops and return
    /// [`SolveResult::Unknown`] once a limit fires, so an expired deadline
    /// interrupts the search instead of letting it run unbounded.
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult;

    /// Solves the given formula without resource limits.
    fn solve(&mut self, formula: &CnfFormula) -> SolveResult {
        self.solve_limited(formula, &SearchLimits::unlimited())
    }

    /// Reseeds the solver's pseudo-random state for the next solve.
    ///
    /// Stochastic solvers (WalkSAT, GSAT, Schöning) override this so that
    /// meta-solvers — the portfolios, the per-request seeding of the unified
    /// API's backend registry — can make a whole solver ensemble
    /// deterministic for a fixed request seed. Deterministic solvers keep the
    /// default no-op.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Attaches a shared-clause-pool handle for the next solve.
    ///
    /// Cooperative meta-solvers ([`crate::ParallelPortfolio`] with sharing
    /// enabled) call this on every member before a solve; members that can
    /// exploit the pool (CDCL exports and imports, the local searches import
    /// as soft constraints) override it, everyone else keeps the default
    /// no-op. The handle stays attached until [`Solver::detach_share`].
    fn attach_share(&mut self, handle: ShareHandle) {
        let _ = handle;
    }

    /// Drops any attached shared-clause-pool handle (default no-op).
    fn detach_share(&mut self) {}

    /// Statistics of the most recent [`Solver::solve`] call.
    fn stats(&self) -> SolverStats;

    /// Short human-readable solver name (for reports and benches).
    fn name(&self) -> &'static str;
}

/// The corpus the packed local searches and brute force are checked
/// against their scalar reference oracles on: the paper's worked examples
/// (two SAT, two UNSAT) and four random 3-SAT formulas (n=16, m=60).
#[cfg(test)]
pub(crate) fn reference_instances() -> Vec<CnfFormula> {
    use cnf::generators::{self, RandomKSatConfig};
    let mut instances = vec![
        generators::example6_sat(),
        generators::example7_unsat(),
        generators::section4_sat_instance(),
        generators::section4_unsat_instance(),
    ];
    for seed in 0..4u64 {
        instances.push(
            generators::random_ksat(&RandomKSatConfig::new(16, 60, 3).with_seed(seed)).unwrap(),
        );
    }
    instances
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_accessors() {
        let sat = SolveResult::Satisfiable(Assignment::all_true(2));
        assert!(sat.is_sat());
        assert!(!sat.is_unsat());
        assert!(sat.model().is_some());
        assert!(sat.to_string().starts_with("SAT"));

        assert!(SolveResult::Unsatisfiable.is_unsat());
        assert_eq!(SolveResult::Unsatisfiable.model(), None);
        assert_eq!(SolveResult::Unknown.to_string(), "UNKNOWN");
    }

    #[test]
    fn stats_display() {
        let stats = SolverStats {
            decisions: 3,
            ..SolverStats::default()
        };
        assert!(stats.to_string().contains("decisions=3"));
    }
}
