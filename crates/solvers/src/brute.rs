//! Exhaustive-enumeration solver (test oracle).

use crate::limits::SearchLimits;
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::bits::WORD_BITS;
use cnf::{Assignment, AssignmentBlock, CnfFormula, PackedFormula};

/// A brute-force solver that enumerates all `2^n` assignments.
///
/// It is exponential by construction and intended as a trusted oracle for
/// tests and for small NBL-SAT validation instances, mirroring how the paper
/// validates its engine on small formulas.
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{BruteForceSolver, Solver};
///
/// let mut solver = BruteForceSolver::new();
/// assert!(solver.solve(&cnf_formula![[1, 2], [-1, -2]]).is_sat());
/// assert!(solver.solve(&cnf_formula![[1], [-1]]).is_unsat());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BruteForceSolver {
    stats: SolverStats,
    /// Refuse instances with more variables than this (guard against
    /// accidental exponential blow-up). Default: 24.
    max_vars: usize,
}

impl Default for BruteForceSolver {
    fn default() -> Self {
        BruteForceSolver::new()
    }
}

impl BruteForceSolver {
    /// Creates a brute-force solver with the default 24-variable limit.
    pub fn new() -> Self {
        BruteForceSolver {
            stats: SolverStats::default(),
            max_vars: 24,
        }
    }

    /// Overrides the variable limit.
    pub fn with_max_vars(mut self, max_vars: usize) -> Self {
        self.max_vars = max_vars;
        self
    }

    /// Packed enumeration: 64 minterms per block, still reporting the first
    /// model in minterm order and the same `assignments_tried` totals.
    fn solve_packed(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let packed = PackedFormula::new(formula);
        let n = formula.num_vars();
        let total = 1u64 << n;
        let mut base = 0u64;
        while base < total {
            if limits.expired() {
                return SolveResult::Unknown;
            }
            let lanes = WORD_BITS.min((total - base) as usize);
            let block = AssignmentBlock::minterm_range(n, base, lanes);
            let sat = packed.eval_block(&block);
            if let Some(lane) = sat.lowest_set_bit() {
                self.stats.assignments_tried += lane as u64 + 1;
                let model = Assignment::from_index(n, base + lane as u64);
                debug_assert!(formula.evaluate(&model));
                return SolveResult::Satisfiable(model);
            }
            self.stats.assignments_tried += lanes as u64;
            base += lanes as u64;
        }
        SolveResult::Unsatisfiable
    }
}

impl Solver for BruteForceSolver {
    /// # Panics
    ///
    /// Panics if the formula has more variables than the configured limit.
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        assert!(
            formula.num_vars() <= self.max_vars,
            "brute force limited to {} variables (formula has {})",
            self.max_vars,
            formula.num_vars()
        );
        self.stats = SolverStats::default();
        self.solve_packed(formula, limits)
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }
}

/// The scalar enumeration [`BruteForceSolver`] ran before the packed core
/// became its only one: a test-only oracle, kept verbatim, that the
/// production enumeration must match bit for bit (result and
/// [`SolverStats`]).
#[cfg(test)]
impl BruteForceSolver {
    /// Scalar enumeration: one minterm at a time, in index order.
    fn solve_scalar(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        for assignment in Assignment::enumerate_all(formula.num_vars()) {
            if limits.expired() {
                return SolveResult::Unknown;
            }
            self.stats.assignments_tried += 1;
            if formula.evaluate(&assignment) {
                return SolveResult::Satisfiable(assignment);
            }
        }
        SolveResult::Unsatisfiable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::cnf_formula;
    use cnf::generators;

    #[test]
    fn solves_paper_examples() {
        let mut solver = BruteForceSolver::new();
        assert!(solver.solve(&generators::example6_sat()).is_sat());
        assert!(solver.solve(&generators::example7_unsat()).is_unsat());
        assert!(solver.solve(&generators::section4_sat_instance()).is_sat());
        assert!(solver
            .solve(&generators::section4_unsat_instance())
            .is_unsat());
    }

    #[test]
    fn returned_model_is_valid() {
        let f = cnf_formula![[1, -2, 3], [-1, 2], [2, -3]];
        let mut solver = BruteForceSolver::new();
        let result = solver.solve(&f);
        let model = result.model().expect("satisfiable");
        assert!(f.evaluate(model));
        assert!(solver.stats().assignments_tried >= 1);
        assert_eq!(solver.name(), "brute-force");
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = cnf::CnfFormula::new(3);
        assert!(BruteForceSolver::new().solve(&f).is_sat());
    }

    #[test]
    #[should_panic]
    fn too_many_variables_panics() {
        let f = cnf::CnfFormula::new(64);
        let _ = BruteForceSolver::new().solve(&f);
    }

    #[test]
    fn max_vars_override() {
        let f = cnf::CnfFormula::new(26);
        // 26 unconstrained variables is fine with a raised limit.
        assert!(BruteForceSolver::new().with_max_vars(26).solve(&f).is_sat());
    }

    #[test]
    fn default_solves_like_new() {
        // A derived `Default` would set a 0-variable limit and panic here.
        let f = generators::example6_sat();
        let mut default = BruteForceSolver::default();
        let mut new = BruteForceSolver::new();
        let result = default.solve(&f);
        assert!(result.is_sat());
        assert_eq!(result, new.solve(&f));
        assert_eq!(default.stats(), new.stats());
    }

    #[test]
    fn enumeration_matches_the_scalar_reference() {
        use cnf::generators::RandomKSatConfig;
        let mut formulas = crate::solver::reference_instances();
        formulas.extend([
            cnf::CnfFormula::new(0),
            // 7 vars spans two blocks of 64 minterms.
            generators::random_ksat(&RandomKSatConfig::new(7, 30, 3).with_seed(4)).unwrap(),
        ]);
        let mut with_empty = cnf::CnfFormula::new(2);
        with_empty.push_clause(cnf::Clause::new());
        formulas.push(with_empty);
        for f in formulas {
            let mut scalar = BruteForceSolver::new();
            let mut packed = BruteForceSolver::new();
            let expected = scalar.solve_scalar(&f, &SearchLimits::unlimited());
            assert_eq!(packed.solve(&f), expected, "formula {f}");
            assert_eq!(scalar.stats(), packed.stats(), "formula {f}");
        }
    }
}
