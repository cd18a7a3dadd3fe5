//! Schöning's randomized k-SAT algorithm.

use crate::limits::SearchLimits;
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::{Assignment, BitVector, CnfFormula, PackedFormula};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of [`Schoening`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchoeningConfig {
    /// Number of independent random-restart trials.
    pub max_restarts: u64,
    /// Walk length per trial as a multiple of the variable count
    /// (Schöning's analysis uses 3·n).
    pub walk_length_factor: u64,
    /// PRNG seed; the search is deterministic for a fixed seed.
    pub seed: u64,
}

impl Default for SchoeningConfig {
    fn default() -> Self {
        SchoeningConfig {
            max_restarts: 200,
            walk_length_factor: 3,
            seed: 0,
        }
    }
}

/// Schöning's random-walk algorithm for k-SAT: start from a uniformly random
/// assignment and, for `3·n` steps, pick any unsatisfied clause and flip a
/// *uniformly random* variable from it; restart if no model was found.
///
/// For 3-SAT each trial succeeds with probability `(3/4)^n` on satisfiable
/// instances, giving the well-known `O(1.334^n)` expected running time — a
/// useful stochastic baseline to contrast with NBL-SAT's single-operation
/// check. The solver is incomplete: it answers [`SolveResult::Satisfiable`]
/// or [`SolveResult::Unknown`] (`Unsatisfiable` only for the trivial case of
/// a formula containing an empty clause).
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{Schoening, Solver};
/// let mut solver = Schoening::new();
/// assert!(solver.solve(&cnf_formula![[1, 2], [-1, 2], [1, -2]]).is_sat());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Schoening {
    config: SchoeningConfig,
    stats: SolverStats,
}

impl Schoening {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Schoening::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SchoeningConfig) -> Self {
        Schoening {
            config,
            stats: SolverStats::default(),
        }
    }

    /// The packed walk: identical RNG stream, but the first-unsatisfied
    /// clause scan runs word-at-a-time over a [`BitVector`] mirror of the
    /// current assignment.
    fn solve_packed(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let packed = PackedFormula::new(formula);
        let n = formula.num_vars();
        let walk_length = (self.config.walk_length_factor.max(1)) * n as u64;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        for _ in 0..self.config.max_restarts.max(1) {
            self.stats.restarts += 1;
            let mut assignment = Assignment::from_bools((0..n).map(|_| rng.gen()).collect());
            let mut bits = BitVector::from(&assignment);
            self.stats.assignments_tried += 1;
            for _ in 0..walk_length {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                let Some(c) = packed.first_unsatisfied(&bits) else {
                    debug_assert!(formula.evaluate(&assignment));
                    return SolveResult::Satisfiable(assignment);
                };
                let clause = formula.clause(c).expect("index valid");
                let lit = clause.literals()[rng.gen_range(0..clause.len())];
                let var = lit.variable();
                let flipped = !assignment.value(var);
                assignment.set(var, flipped);
                bits.set(var.index(), flipped);
                self.stats.flips += 1;
            }
            if packed.satisfied(&bits) {
                return SolveResult::Satisfiable(assignment);
            }
        }
        SolveResult::Unknown
    }
}

impl Solver for Schoening {
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        self.stats = SolverStats::default();
        // An empty clause can never be satisfied, so even this incomplete
        // solver may answer UNSAT definitively instead of giving up.
        if formula.has_empty_clause() {
            return SolveResult::Unsatisfiable;
        }
        if formula.num_vars() == 0 {
            return SolveResult::Satisfiable(Assignment::from_bools(Vec::new()));
        }
        self.solve_packed(formula, limits)
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "schoening"
    }

    fn reseed(&mut self, seed: u64) {
        self.config.seed = seed;
    }
}

/// The scalar walk [`Schoening`] ran before the packed core became its only
/// one: a test-only oracle, kept verbatim, that the production walk must
/// match bit for bit (result and [`SolverStats`]).
#[cfg(test)]
impl Schoening {
    /// The scalar reference walk: clause checks one literal at a time.
    fn solve_scalar(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let n = formula.num_vars();
        let walk_length = (self.config.walk_length_factor.max(1)) * n as u64;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        for _ in 0..self.config.max_restarts.max(1) {
            self.stats.restarts += 1;
            let mut assignment = Assignment::from_bools((0..n).map(|_| rng.gen()).collect());
            self.stats.assignments_tried += 1;
            for _ in 0..walk_length {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                let unsatisfied = formula.iter().find(|clause| !clause.evaluate(&assignment));
                let Some(clause) = unsatisfied else {
                    return SolveResult::Satisfiable(assignment);
                };
                let lit = clause.literals()[rng.gen_range(0..clause.len())];
                let var = lit.variable();
                assignment.set(var, !assignment.value(var));
                self.stats.flips += 1;
            }
            if formula.evaluate(&assignment) {
                return SolveResult::Satisfiable(assignment);
            }
        }
        SolveResult::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::cnf_formula;
    use cnf::generators::{self, RandomKSatConfig};

    #[test]
    fn walk_matches_the_scalar_reference() {
        for seed in [0u64, 7, 42] {
            let config = SchoeningConfig {
                seed,
                max_restarts: 30,
                ..SchoeningConfig::default()
            };
            for formula in crate::solver::reference_instances() {
                let mut packed = Schoening::with_config(config);
                let mut scalar = Schoening::with_config(config);
                let expected = scalar.solve_scalar(&formula, &SearchLimits::unlimited());
                assert_eq!(packed.solve(&formula), expected, "seed {seed}: {formula}");
                assert_eq!(packed.stats(), scalar.stats(), "seed {seed}: {formula}");
            }
        }
    }

    #[test]
    fn solves_worked_examples() {
        let mut solver = Schoening::new();
        for formula in [
            generators::example6_sat(),
            generators::section4_sat_instance(),
            cnf_formula![[1], [2, 3], [-1, 3], [1, -2, -3]],
        ] {
            match solver.solve(&formula) {
                SolveResult::Satisfiable(model) => assert!(formula.evaluate(&model)),
                other => panic!("expected SAT, got {other}"),
            }
        }
    }

    #[test]
    fn unsatisfiable_instances_return_unknown() {
        let mut solver = Schoening::with_config(SchoeningConfig {
            max_restarts: 20,
            ..SchoeningConfig::default()
        });
        assert_eq!(
            solver.solve(&generators::example7_unsat()),
            SolveResult::Unknown
        );
        assert_eq!(
            solver.solve(&generators::section4_unsat_instance()),
            SolveResult::Unknown
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(14, 50, 3).with_seed(5)).unwrap();
        let mut a = Schoening::with_config(SchoeningConfig {
            seed: 9,
            ..SchoeningConfig::default()
        });
        let mut b = Schoening::with_config(SchoeningConfig {
            seed: 9,
            ..SchoeningConfig::default()
        });
        assert_eq!(a.solve(&formula), b.solve(&formula));
        assert_eq!(a.stats().flips, b.stats().flips);
    }

    #[test]
    fn models_from_random_instances_verify() {
        for seed in 0..6u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(12, 30, 3).with_seed(seed)).unwrap();
            let mut solver = Schoening::new();
            if let SolveResult::Satisfiable(model) = solver.solve(&formula) {
                assert!(formula.evaluate(&model));
            }
        }
    }

    #[test]
    fn trivial_formulas() {
        let mut solver = Schoening::new();
        assert!(solver.solve(&CnfFormula::new(0)).is_sat());
        // Empty clause ⇒ trivially UNSAT, answered definitively.
        let mut with_empty = CnfFormula::new(2);
        with_empty.add_clause([]);
        assert_eq!(solver.solve(&with_empty), SolveResult::Unsatisfiable);
    }

    #[test]
    fn walk_length_scales_with_variable_count() {
        // A contradiction over many variables exhausts exactly
        // max_restarts * walk_length flips (no early exit is possible).
        let formula = cnf_formula![[1], [-1], [2, 3], [4, 5, 6]];
        let mut solver = Schoening::with_config(SchoeningConfig {
            max_restarts: 4,
            walk_length_factor: 3,
            seed: 1,
        });
        assert_eq!(solver.solve(&formula), SolveResult::Unknown);
        assert_eq!(solver.stats().flips, 4 * 3 * 6);
        assert_eq!(solver.stats().restarts, 4);
    }
}
