//! GSAT greedy local search.

use crate::limits::SearchLimits;
#[cfg(test)]
use crate::score;
use crate::score::FlipScorer;
use crate::share::ShareHandle;
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::{Assignment, BitVector, CnfFormula, Variable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the GSAT local-search solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GsatConfig {
    /// Maximum number of flips per restart (the "max-flips" GSAT parameter).
    pub max_flips: u64,
    /// Maximum number of random restarts (the "max-tries" GSAT parameter).
    pub max_restarts: u64,
    /// Whether sideways moves (flips with zero net gain) are allowed.
    pub allow_sideways: bool,
    /// PRNG seed; the search is deterministic for a fixed seed.
    pub seed: u64,
}

impl Default for GsatConfig {
    fn default() -> Self {
        GsatConfig {
            max_flips: 10_000,
            max_restarts: 10,
            allow_sideways: true,
            seed: 0,
        }
    }
}

/// The GSAT incomplete solver (paper reference \[9\]): hill-climbing on the
/// number of satisfied clauses.
///
/// Each step flips the variable whose flip yields the largest increase in the
/// number of satisfied clauses (ties broken uniformly at random); when no
/// improving flip exists, sideways moves are taken if enabled, otherwise the
/// search restarts from a fresh random assignment.
///
/// Like WalkSAT it is incomplete: it answers [`SolveResult::Satisfiable`] or
/// [`SolveResult::Unknown`] — `Unsatisfiable` only for the trivial case of a
/// formula containing an empty clause.
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{Gsat, Solver};
/// let mut solver = Gsat::new();
/// assert!(solver.solve(&cnf_formula![[1, 2], [-1, -2], [1, -2]]).is_sat());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gsat {
    config: GsatConfig,
    stats: SolverStats,
    /// Cooperative-portfolio pool handle. Imported clauses become *soft*
    /// scoring constraints: they join the gain computation but never decide
    /// the verdict, which is only declared on the hard input formula.
    share: Option<ShareHandle>,
}

impl Gsat {
    /// Creates a GSAT solver with default parameters.
    pub fn new() -> Self {
        Gsat::default()
    }

    /// Creates a GSAT solver with an explicit configuration.
    pub fn with_config(config: GsatConfig) -> Self {
        Gsat {
            config,
            stats: SolverStats::default(),
            share: None,
        }
    }

    /// Pulls unseen pool clauses into the soft formula (called at restart
    /// boundaries). Clauses mentioning variables beyond the current instance
    /// are skipped — they cannot score against this assignment.
    fn import_soft(&mut self, soft: &mut CnfFormula) {
        let Some(mut share) = self.share.take() else {
            return;
        };
        let num_vars = soft.num_vars();
        let mut imported = 0u64;
        share.import(|lits| {
            if lits.iter().all(|l| l.variable().index() < num_vars) {
                soft.push_clause(cnf::Clause::from_literals(lits.to_vec()));
                imported += 1;
            }
        });
        self.share = Some(share);
        self.stats.clauses_imported += imported;
    }

    /// The packed search: identical RNG stream and tie list, but the
    /// satisfaction check runs word-at-a-time over a [`BitVector`] mirror and
    /// all gains come from one clause sweep instead of one scan per variable.
    fn solve_packed(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let mut scorer = FlipScorer::new(formula);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut soft = CnfFormula::new(formula.num_vars());
        // A second scorer covers the imported soft clauses; it only exists
        // once imports arrive, so the empty-pool search stays byte-identical
        // to the racing baseline.
        let mut soft_scorer: Option<FlipScorer> = None;
        let mut combined: Vec<i64> = Vec::new();
        for _ in 0..self.config.max_restarts.max(1) {
            let before = soft.num_clauses();
            self.import_soft(&mut soft);
            if soft.num_clauses() > before {
                soft_scorer = Some(FlipScorer::new(&soft));
            }
            self.stats.restarts += 1;
            let mut assignment =
                Assignment::from_bools((0..formula.num_vars()).map(|_| rng.gen()).collect());
            let mut bits = BitVector::from(&assignment);
            self.stats.assignments_tried += 1;
            for _ in 0..self.config.max_flips {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                if scorer.packed().satisfied(&bits) {
                    debug_assert!(formula.evaluate(&assignment));
                    return SolveResult::Satisfiable(assignment);
                }
                // Greedy step over the packed gain sweep; the tie list is
                // built in the same variable order as the scalar path.
                let gains = match &mut soft_scorer {
                    None => scorer.gains(&assignment),
                    Some(soft_scorer) => {
                        // Hard + soft gains, variable-wise. The hard slice
                        // borrows the scorer's buffer, so copy it out before
                        // sweeping the soft side.
                        combined.clear();
                        combined.extend_from_slice(scorer.gains(&assignment));
                        for (acc, soft_gain) in
                            combined.iter_mut().zip(soft_scorer.gains(&assignment))
                        {
                            *acc += soft_gain;
                        }
                        &combined[..]
                    }
                };
                let mut best_gain = i64::MIN;
                let mut best_vars: Vec<Variable> = Vec::new();
                for (v, &gain) in gains.iter().enumerate() {
                    if gain > best_gain {
                        best_gain = gain;
                        best_vars.clear();
                        best_vars.push(Variable::new(v));
                    } else if gain == best_gain {
                        best_vars.push(Variable::new(v));
                    }
                }
                if best_gain < 0 || (best_gain == 0 && !self.config.allow_sideways) {
                    break; // local minimum -> restart
                }
                let var = best_vars[rng.gen_range(0..best_vars.len())];
                let flipped = !assignment.value(var);
                assignment.set(var, flipped);
                bits.set(var.index(), flipped);
                self.stats.flips += 1;
            }
            if scorer.packed().satisfied(&bits) {
                return SolveResult::Satisfiable(assignment);
            }
        }
        SolveResult::Unknown
    }
}

impl Solver for Gsat {
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
        "gsat"
    }

    fn reseed(&mut self, seed: u64) {
        self.config.seed = seed;
    }

    fn attach_share(&mut self, handle: ShareHandle) {
        self.share = Some(handle);
    }

    fn detach_share(&mut self) {
        self.share = None;
    }
}

/// The scalar search [`Gsat`] ran before the packed core became its only
/// one: a test-only oracle, kept verbatim, that the production search must
/// match bit for bit (result and [`SolverStats`]).
#[cfg(test)]
impl Gsat {
    /// Net change in the number of satisfied clauses if `var` were flipped.
    fn flip_gain(formula: &CnfFormula, assignment: &Assignment, var: Variable) -> i64 {
        score::flip_gain(formula, assignment, var)
    }

    /// The scalar reference search: gains recomputed one variable at a time.
    fn solve_scalar(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut soft = CnfFormula::new(formula.num_vars());
        for _ in 0..self.config.max_restarts.max(1) {
            self.import_soft(&mut soft);
            self.stats.restarts += 1;
            let mut assignment =
                Assignment::from_bools((0..formula.num_vars()).map(|_| rng.gen()).collect());
            self.stats.assignments_tried += 1;
            for _ in 0..self.config.max_flips {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                if formula.evaluate(&assignment) {
                    return SolveResult::Satisfiable(assignment);
                }
                // Greedy step: find the maximum-gain flip.
                let mut best_gain = i64::MIN;
                let mut best_vars: Vec<Variable> = Vec::new();
                for var in formula.variables() {
                    // The empty soft formula contributes zero gain, so the
                    // baseline (racing) search is untouched without imports.
                    let gain = Self::flip_gain(formula, &assignment, var)
                        + score::flip_gain(&soft, &assignment, var);
                    if gain > best_gain {
                        best_gain = gain;
                        best_vars.clear();
                        best_vars.push(var);
                    } else if gain == best_gain {
                        best_vars.push(var);
                    }
                }
                if best_gain < 0 || (best_gain == 0 && !self.config.allow_sideways) {
                    break; // local minimum -> restart
                }
                let var = best_vars[rng.gen_range(0..best_vars.len())];
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

    /// The production search and the scalar reference, as interchangeable
    /// runs on a freshly built solver.
    const RUNS: [fn(&mut Gsat, &CnfFormula) -> SolveResult; 2] = [
        |solver, formula| solver.solve(formula),
        |solver, formula| solver.solve_scalar(formula, &SearchLimits::unlimited()),
    ];

    #[test]
    fn search_matches_the_scalar_reference() {
        for seed in [0u64, 7, 42] {
            let config = GsatConfig {
                seed,
                max_flips: 500,
                max_restarts: 4,
                ..GsatConfig::default()
            };
            for formula in crate::solver::reference_instances() {
                let [packed, scalar] = RUNS.map(|run| {
                    let mut solver = Gsat::with_config(config);
                    (run(&mut solver, &formula), solver.stats())
                });
                assert_eq!(packed, scalar, "seed {seed} diverged on {formula}");
            }
        }
    }

    #[test]
    fn solves_small_satisfiable_instances() {
        let mut solver = Gsat::new();
        for formula in [
            cnf_formula![[1, 2], [-1, -2], [1, -2]],
            cnf_formula![[1], [2], [3], [-1, -2, 3]],
            generators::section4_sat_instance(),
        ] {
            match solver.solve(&formula) {
                SolveResult::Satisfiable(model) => assert!(formula.evaluate(&model)),
                other => panic!("expected SAT, got {other}"),
            }
        }
    }

    #[test]
    fn returns_unknown_for_unsatisfiable_instances() {
        let mut solver = Gsat::with_config(GsatConfig {
            max_flips: 200,
            max_restarts: 3,
            ..GsatConfig::default()
        });
        let result = solver.solve(&generators::section4_unsat_instance());
        assert_eq!(result, SolveResult::Unknown);
        assert!(solver.stats().restarts >= 1);
    }

    #[test]
    fn trivial_formulas() {
        let mut solver = Gsat::new();
        assert!(solver.solve(&CnfFormula::new(0)).is_sat());
        // Empty clause ⇒ trivially UNSAT, answered definitively.
        let mut empty_clause = CnfFormula::new(1);
        empty_clause.add_clause([]);
        assert_eq!(solver.solve(&empty_clause), SolveResult::Unsatisfiable);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(7)).unwrap();
        let mut a = Gsat::with_config(GsatConfig {
            seed: 11,
            ..GsatConfig::default()
        });
        let mut b = Gsat::with_config(GsatConfig {
            seed: 11,
            ..GsatConfig::default()
        });
        assert_eq!(a.solve(&formula), b.solve(&formula));
        assert_eq!(a.stats().flips, b.stats().flips);
    }

    #[test]
    fn models_from_random_instances_verify() {
        for seed in 0..5u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(10, 25, 3).with_seed(seed)).unwrap();
            let mut solver = Gsat::new();
            if let SolveResult::Satisfiable(model) = solver.solve(&formula) {
                assert!(formula.evaluate(&model));
            }
        }
    }

    #[test]
    fn soft_imports_bias_but_never_decide() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;
        for seed in 0..5 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::from_ratio(12, 2.0, 3).with_seed(seed))
                    .unwrap();
            // Each run gets its own, identically seeded pool.
            let [packed, scalar] = RUNS.map(|run| {
                let pool = Arc::new(SharedClausePool::default());
                let foreign = ShareHandle::new(Arc::clone(&pool), 1);
                // Original clauses are trivially implied by the formula, so
                // they make a sound pool seed.
                for clause in formula.iter().take(4) {
                    assert!(foreign.export(clause.literals(), 2));
                }
                let mut solver = Gsat::with_config(GsatConfig {
                    seed: 7,
                    ..GsatConfig::default()
                });
                solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
                let result = run(&mut solver, &formula);
                assert!(solver.stats().clauses_imported > 0);
                // Soft clauses only bias scoring: any SAT answer still
                // carries a model of the *hard* formula.
                if let Some(model) = result.model() {
                    assert!(formula.evaluate(model));
                }
                (result, solver.stats())
            });
            assert_eq!(packed, scalar, "seed {seed} diverged from the reference");
        }
    }

    #[test]
    fn empty_pool_matches_racing_baseline() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(7)).unwrap();
        let config = GsatConfig {
            seed: 11,
            ..GsatConfig::default()
        };
        let [packed, scalar] = RUNS.map(|run| {
            let mut baseline = Gsat::with_config(config);
            let expected = run(&mut baseline, &formula);
            let mut cooperative = Gsat::with_config(config);
            let pool = Arc::new(SharedClausePool::default());
            cooperative.attach_share(ShareHandle::new(pool, 0));
            // Nothing to import: the search must be byte-identical.
            assert_eq!(run(&mut cooperative, &formula), expected);
            assert_eq!(cooperative.stats().clauses_imported, 0);
            assert_eq!(cooperative.stats().flips, baseline.stats().flips);
            (expected, baseline.stats())
        });
        assert_eq!(packed, scalar);
    }

    #[test]
    fn gain_computation_matches_recount() {
        let formula = cnf_formula![[1, 2], [-1, 3], [-2, -3], [1, -3]];
        let assignment = Assignment::from_bools(vec![false, true, true]);
        for var in formula.variables() {
            let before = formula.count_satisfied_clauses(&assignment) as i64;
            let mut flipped = assignment.clone();
            flipped.set(var, !flipped.value(var));
            let after = formula.count_satisfied_clauses(&flipped) as i64;
            assert_eq!(
                Gsat::flip_gain(&formula, &assignment, var),
                after - before,
                "gain mismatch for {var}"
            );
        }
    }
}
