//! WalkSAT stochastic local search.

use crate::limits::SearchLimits;
use crate::score::{self, FlipScorer};
use crate::share::ShareHandle;
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::{Assignment, BitVector, CnfFormula, Variable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the WalkSAT local-search solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkSatConfig {
    /// Probability of taking a purely random flip inside an unsatisfied clause.
    pub noise: f64,
    /// Maximum number of flips per restart.
    pub max_flips: u64,
    /// Maximum number of random restarts.
    pub max_restarts: u64,
    /// PRNG seed (the search is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for WalkSatConfig {
    fn default() -> Self {
        WalkSatConfig {
            noise: 0.5,
            max_flips: 10_000,
            max_restarts: 10,
            seed: 0,
        }
    }
}

/// The WalkSAT incomplete solver (paper reference \[8\]): repeatedly picks an
/// unsatisfied clause and flips one of its variables, choosing either the
/// least-breaking variable or a random one.
///
/// Being incomplete, it can only answer [`SolveResult::Satisfiable`] or
/// [`SolveResult::Unknown`] — it never *proves* unsatisfiability, except for
/// the trivial case of a formula containing an empty clause, which is
/// unsatisfiable by inspection.
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{Solver, WalkSat};
/// let mut solver = WalkSat::new();
/// assert!(solver.solve(&cnf_formula![[1, 2], [-1, -2]]).is_sat());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WalkSat {
    config: WalkSatConfig,
    stats: SolverStats,
    /// Cooperative-portfolio pool handle. Imported clauses become *soft*
    /// scoring constraints: they bias the greedy flip choice but never decide
    /// the verdict, which is only declared on the hard input formula.
    share: Option<ShareHandle>,
}

impl WalkSat {
    /// Creates a WalkSAT solver with default parameters.
    pub fn new() -> Self {
        WalkSat::default()
    }

    /// Creates a WalkSAT solver with an explicit configuration.
    pub fn with_config(config: WalkSatConfig) -> Self {
        WalkSat {
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

    /// Number of clauses that would become unsatisfied by flipping `var`.
    fn break_count(formula: &CnfFormula, assignment: &Assignment, var: Variable) -> usize {
        score::break_count(formula, assignment, var)
    }

    /// The packed search: identical RNG stream and tie-breaking, but clause
    /// checks run 64 variables per word over a [`BitVector`] mirror and a
    /// whole clause of candidate flips is break-scored in one pass.
    fn solve_packed(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let mut scorer = FlipScorer::new(formula);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut candidates: Vec<Variable> = Vec::new();
        let mut soft = CnfFormula::new(formula.num_vars());
        // A second scorer covers the imported soft clauses; it only exists
        // once imports arrive, so the empty-pool search stays byte-identical
        // to the racing baseline.
        let mut soft_scorer: Option<FlipScorer> = None;
        let mut combined: Vec<u32> = Vec::new();
        for _ in 0..self.config.max_restarts.max(1) {
            let before = soft.num_clauses();
            self.import_soft(&mut soft);
            if soft.num_clauses() > before {
                soft_scorer = Some(FlipScorer::new(&soft));
            }
            let mut assignment =
                Assignment::from_bools((0..formula.num_vars()).map(|_| rng.gen()).collect());
            let mut bits = BitVector::from(&assignment);
            self.stats.assignments_tried += 1;
            for _ in 0..self.config.max_flips {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                let unsatisfied: Vec<usize> = (0..scorer.packed().num_clauses())
                    .filter(|&c| !scorer.packed().clause_satisfied(c, &bits))
                    .collect();
                if unsatisfied.is_empty() {
                    debug_assert!(formula.evaluate(&assignment));
                    return SolveResult::Satisfiable(assignment);
                }
                let clause = formula
                    .clause(unsatisfied[rng.gen_range(0..unsatisfied.len())])
                    .expect("index valid");
                let var = if rng.gen_bool(self.config.noise) {
                    clause.literals()[rng.gen_range(0..clause.len())].variable()
                } else if clause.len() <= cnf::bits::WORD_BITS {
                    // Score the whole clause of candidate flips in one pass;
                    // the first minimum matches `min_by_key` tie-breaking.
                    candidates.clear();
                    candidates.extend(clause.iter().map(|l| l.variable()));
                    let breaks = match &mut soft_scorer {
                        None => scorer.break_counts(&assignment, &candidates),
                        Some(soft_scorer) => {
                            // Hard + soft break counts, lane-wise. The hard
                            // slice borrows the scorer's buffer, so copy it
                            // out before scoring the soft side.
                            combined.clear();
                            combined
                                .extend_from_slice(scorer.break_counts(&assignment, &candidates));
                            for (acc, soft_breaks) in combined
                                .iter_mut()
                                .zip(soft_scorer.break_counts(&assignment, &candidates))
                            {
                                *acc += soft_breaks;
                            }
                            &combined[..]
                        }
                    };
                    let best = breaks
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, b)| b)
                        .expect("clause non-empty")
                        .0;
                    candidates[best]
                } else {
                    // Clauses wider than a word fall back to the scalar scan.
                    clause
                        .iter()
                        .map(|l| l.variable())
                        .min_by_key(|&v| {
                            Self::break_count(formula, &assignment, v)
                                + score::break_count(&soft, &assignment, v)
                        })
                        .expect("clause non-empty")
                };
                let flipped = !assignment.value(var);
                assignment.set(var, flipped);
                bits.set(var.index(), flipped);
                self.stats.flips += 1;
            }
        }
        SolveResult::Unknown
    }
}

impl Solver for WalkSat {
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
        "walksat"
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

/// The scalar search [`WalkSat`] ran before the packed core became its only
/// one: a test-only oracle, kept verbatim, that the production search must
/// match bit for bit (result and [`SolverStats`]).
#[cfg(test)]
impl WalkSat {
    /// The scalar reference search: one assignment and one candidate flip at
    /// a time over `Vec<bool>` structures.
    fn solve_scalar(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut soft = CnfFormula::new(formula.num_vars());
        for _ in 0..self.config.max_restarts.max(1) {
            self.import_soft(&mut soft);
            // Random initial assignment.
            let mut assignment =
                Assignment::from_bools((0..formula.num_vars()).map(|_| rng.gen()).collect());
            self.stats.assignments_tried += 1;
            for _ in 0..self.config.max_flips {
                if limits.expired() {
                    return SolveResult::Unknown;
                }
                let unsatisfied: Vec<usize> = formula
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.evaluate(&assignment))
                    .map(|(i, _)| i)
                    .collect();
                if unsatisfied.is_empty() {
                    debug_assert!(formula.evaluate(&assignment));
                    return SolveResult::Satisfiable(assignment);
                }
                let clause = formula
                    .clause(unsatisfied[rng.gen_range(0..unsatisfied.len())])
                    .expect("index valid");
                let var = if rng.gen_bool(self.config.noise) {
                    clause.literals()[rng.gen_range(0..clause.len())].variable()
                } else {
                    // Imported soft clauses join the break score: a flip that
                    // would violate shared knowledge is penalized, but the
                    // empty soft formula contributes zero and leaves the
                    // baseline search untouched.
                    clause
                        .iter()
                        .map(|l| l.variable())
                        .min_by_key(|&v| {
                            Self::break_count(formula, &assignment, v)
                                + score::break_count(&soft, &assignment, v)
                        })
                        .expect("clause non-empty")
                };
                assignment.set(var, !assignment.value(var));
                self.stats.flips += 1;
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
    const RUNS: [fn(&mut WalkSat, &CnfFormula) -> SolveResult; 2] = [
        |solver, formula| solver.solve(formula),
        |solver, formula| solver.solve_scalar(formula, &SearchLimits::unlimited()),
    ];

    #[test]
    fn search_matches_the_scalar_reference() {
        for seed in [0u64, 7, 42] {
            let config = WalkSatConfig {
                seed,
                max_flips: 2_000,
                max_restarts: 4,
                ..WalkSatConfig::default()
            };
            for formula in crate::solver::reference_instances() {
                let [packed, scalar] = RUNS.map(|run| {
                    let mut solver = WalkSat::with_config(config);
                    (run(&mut solver, &formula), solver.stats())
                });
                assert_eq!(packed, scalar, "seed {seed} diverged on {formula}");
            }
        }
    }

    #[test]
    fn finds_models_for_satisfiable_instances() {
        let mut solver = WalkSat::new();
        for f in [
            generators::example6_sat(),
            generators::section4_sat_instance(),
            generators::parity_chain(5, false),
        ] {
            let result = solver.solve(&f);
            let model = result.model().expect("satisfiable instance");
            assert!(f.evaluate(model));
            assert!(solver.stats().assignments_tried >= 1);
        }
    }

    #[test]
    fn returns_unknown_on_unsat() {
        let config = WalkSatConfig {
            max_flips: 200,
            max_restarts: 2,
            ..WalkSatConfig::default()
        };
        let mut solver = WalkSat::with_config(config);
        assert_eq!(
            solver.solve(&generators::example7_unsat()),
            SolveResult::Unknown
        );
        assert_eq!(
            solver.solve(&generators::pigeonhole(3, 2)),
            SolveResult::Unknown
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(3)).unwrap();
        let mut a = WalkSat::with_config(WalkSatConfig {
            seed: 9,
            ..WalkSatConfig::default()
        });
        let mut b = WalkSat::with_config(WalkSatConfig {
            seed: 9,
            ..WalkSatConfig::default()
        });
        assert_eq!(a.solve(&f), b.solve(&f));
    }

    #[test]
    fn solves_easy_random_instances() {
        // Under-constrained random 3-SAT (ratio 2.0) is almost surely satisfiable
        // and easy for local search.
        for seed in 0..10 {
            let f =
                generators::random_ksat(&RandomKSatConfig::from_ratio(15, 2.0, 3).with_seed(seed))
                    .unwrap();
            let mut solver = WalkSat::new();
            let result = solver.solve(&f);
            let model = result.model().expect("under-constrained instance");
            assert!(f.evaluate(model));
        }
    }

    #[test]
    fn empty_formula_and_empty_clause_edge_cases() {
        let mut solver = WalkSat::new();
        assert!(solver.solve(&cnf::CnfFormula::new(0)).is_sat());
        // A formula with an empty clause is trivially UNSAT, and even an
        // incomplete solver must say so rather than give up.
        let mut f = cnf::CnfFormula::new(1);
        f.push_clause(cnf::Clause::new());
        assert_eq!(solver.solve(&f), SolveResult::Unsatisfiable);
        assert_eq!(solver.name(), "walksat");
    }

    #[test]
    fn reseed_changes_then_restores_the_search() {
        let f = generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(3)).unwrap();
        let mut solver = WalkSat::with_config(WalkSatConfig {
            seed: 1,
            ..WalkSatConfig::default()
        });
        let first = solver.solve(&f);
        let first_stats = solver.stats();
        solver.reseed(99);
        let _ = solver.solve(&f);
        solver.reseed(1);
        assert_eq!(solver.solve(&f), first);
        assert_eq!(solver.stats(), first_stats);
    }

    #[test]
    fn soft_imports_bias_but_never_decide() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;
        for seed in 0..5 {
            let f =
                generators::random_ksat(&RandomKSatConfig::from_ratio(12, 2.0, 3).with_seed(seed))
                    .unwrap();
            // Each run gets its own, identically seeded pool.
            let [packed, scalar] = RUNS.map(|run| {
                let pool = Arc::new(SharedClausePool::default());
                let foreign = ShareHandle::new(Arc::clone(&pool), 1);
                // Original clauses are trivially implied by the formula, so
                // they make a sound pool seed.
                for clause in f.iter().take(4) {
                    assert!(foreign.export(clause.literals(), 2));
                }
                let mut solver = WalkSat::with_config(WalkSatConfig {
                    seed: 7,
                    ..WalkSatConfig::default()
                });
                solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
                let result = run(&mut solver, &f);
                assert!(solver.stats().clauses_imported > 0);
                // Soft clauses only bias scoring: any SAT answer still
                // carries a model of the *hard* formula.
                if let Some(model) = result.model() {
                    assert!(f.evaluate(model));
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
        let f = generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(3)).unwrap();
        let config = WalkSatConfig {
            seed: 11,
            ..WalkSatConfig::default()
        };
        let [packed, scalar] = RUNS.map(|run| {
            let mut baseline = WalkSat::with_config(config);
            let expected = run(&mut baseline, &f);
            let mut cooperative = WalkSat::with_config(config);
            let pool = Arc::new(SharedClausePool::default());
            cooperative.attach_share(ShareHandle::new(pool, 0));
            // Nothing to import: the search must be byte-identical.
            assert_eq!(run(&mut cooperative, &f), expected);
            assert_eq!(cooperative.stats().clauses_imported, 0);
            assert_eq!(cooperative.stats().flips, baseline.stats().flips);
            (expected, baseline.stats())
        });
        assert_eq!(packed, scalar);
    }

    #[test]
    fn break_count_identifies_critical_variable() {
        // (x1)(x1+x2): flipping x1 from true breaks both clauses; flipping x2 breaks none.
        let f = cnf_formula![[1], [1, 2]];
        let a = Assignment::from_bools(vec![true, false]);
        assert_eq!(WalkSat::break_count(&f, &a, Variable::new(0)), 2);
        assert_eq!(WalkSat::break_count(&f, &a, Variable::new(1)), 0);
    }
}
