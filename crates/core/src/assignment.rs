//! Satisfying-assignment determination (Algorithm 2 of the paper).
//!
//! Algorithm 2 binds x_1, …, x_n to 1 in turn and keeps each 1 whose
//! subspace still holds a model. Each step is one logical check, asked for
//! through [`NblEngine::extraction_step`]. The exact [`crate::SymbolicEngine`]
//! answers a step with a search that stops at its first model, or with no
//! search at all when the last model it returned already lies in the step's
//! subspace. Other engines answer with a mean estimate. The decisions, the
//! model and the check count are the same either way.

use crate::budget::BudgetMeter;
use crate::checker::{SatChecker, Verdict};
use crate::engine::{NblEngine, StepAnswer};
use crate::error::{NblSatError, Result};
use crate::transform::NblSatInstance;
use cnf::{Assignment, CnfFormula, Cube, Literal, Variable};
use std::fmt;

/// Shrinks a satisfying assignment to a prime-implicant cube by greedily
/// dropping variables whose removal keeps the cube an implicant of the
/// formula. `model` must satisfy `formula`.
///
/// A cube implies a clause iff the clause is a tautology or contains one of
/// the cube's literals, so the shrink reduces to support counting: each
/// non-tautological clause tracks how many literal occurrences the still-
/// included variables satisfy, and a variable can be dropped iff every
/// clause it supports keeps at least one supporter. This is linear in the
/// formula size overall, instead of re-running the implicant test per
/// variable.
///
/// Shared by [`AssignmentExtractor::extract_cube`] and the classical backends
/// of the unified solving API, which produce a model first and derive the
/// cube from it.
pub fn prime_implicant_cube(formula: &CnfFormula, model: &Assignment) -> Cube {
    debug_assert!(
        formula.evaluate(model),
        "prime_implicant_cube requires a satisfying model"
    );
    let n = model.num_vars();
    let mut support = vec![0usize; formula.num_clauses()];
    // Clause indices each variable's model-phase literal occurs in, with
    // multiplicity (duplicate literals in a clause count separately so the
    // support arithmetic below stays consistent).
    let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, clause) in formula.iter().enumerate() {
        if clause.is_tautology() {
            continue;
        }
        for &lit in clause.iter() {
            if model.satisfies(lit) {
                support[j] += 1;
                occurrences[lit.variable().index()].push(j);
            }
        }
    }
    let mut included = vec![true; n];
    for i in 0..n {
        for &j in &occurrences[i] {
            support[j] -= 1;
        }
        if occurrences[i].iter().all(|&j| support[j] >= 1) {
            included[i] = false;
        } else {
            for &j in &occurrences[i] {
                support[j] += 1;
            }
        }
    }
    (0..n)
        .filter(|&k| included[k])
        .map(|k| Literal::with_phase(Variable::new(k), model.value(Variable::new(k))))
        .collect()
}

/// Result of an assignment-extraction run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionOutcome {
    /// The satisfying minterm (Algorithm 2) or `None` when only a cube was
    /// requested.
    pub assignment: Option<Assignment>,
    /// The satisfying cube (populated by [`AssignmentExtractor::extract_cube`];
    /// for minterm extraction it is the full minterm cube).
    pub cube: Cube,
    /// Number of NBL-SAT check operations used (the paper's complexity metric:
    /// at most `n` for a minterm, at most `2n` for a cube).
    pub checks_used: u64,
}

impl fmt::Display for ExtractionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cube {} ({} checks{})",
            self.cube,
            self.checks_used,
            if self.assignment.is_some() {
                ", full minterm"
            } else {
                ""
            }
        )
    }
}

/// Algorithm 2: determine a satisfying assignment with at most `n` additional
/// NBL-SAT check operations.
///
/// Each iteration binds the next variable to 1 inside τ_N and re-runs the
/// single-operation check on the reduced instance: if the reduced hyperspace
/// still overlaps a satisfying minterm the variable is kept at 1, otherwise it
/// must be 0 (the instance is known satisfiable a priori). The cube variant
/// additionally detects don't-care variables by probing both polarities.
#[derive(Debug, Clone)]
pub struct AssignmentExtractor<E> {
    checker: SatChecker<E>,
}

impl<E: NblEngine> AssignmentExtractor<E> {
    /// Creates an extractor around an engine.
    pub fn new(engine: E) -> Self {
        AssignmentExtractor {
            checker: SatChecker::new(engine),
        }
    }

    /// Creates an extractor around an existing checker (keeps its decision
    /// threshold and operation count).
    pub fn from_checker(checker: SatChecker<E>) -> Self {
        AssignmentExtractor { checker }
    }

    /// Access to the inner checker (e.g. to read the total operation count).
    pub fn checker(&self) -> &SatChecker<E> {
        &self.checker
    }

    /// Runs Algorithm 2 and returns a satisfying minterm.
    ///
    /// The instance must be satisfiable (the paper assumes Algorithm 1 has
    /// already answered SAT). If the extracted assignment does not verify,
    /// the failure is classified from the engine's own telemetry: when every
    /// restricted check was exact the instance is provably unsatisfiable
    /// ([`NblSatError::InstanceUnsatisfiable`]); with a statistical engine
    /// the run is merely [`NblSatError::Inconclusive`] (an unlucky restricted
    /// decision), since distinguishing the two would require an exponential
    /// recount.
    ///
    /// # Errors
    ///
    /// * [`NblSatError::InstanceUnsatisfiable`] if the instance has no model
    ///   (exact engines).
    /// * [`NblSatError::Inconclusive`] if a statistical engine mis-steered.
    /// * Any engine error (size limits, mismatched bindings).
    pub fn extract(&mut self, instance: &NblSatInstance) -> Result<ExtractionOutcome> {
        self.extract_budgeted(instance, &mut BudgetMeter::default())
    }

    /// Budgeted Algorithm 2: identical to [`AssignmentExtractor::extract`]
    /// but charges each of the `n` restricted checks against `meter`, so a
    /// check, sample or wall-clock limit interrupts the extraction.
    ///
    /// # Errors
    ///
    /// [`NblSatError::BudgetExhausted`] when a limit fires, plus everything
    /// [`AssignmentExtractor::extract`] can return.
    pub fn extract_budgeted(
        &mut self,
        instance: &NblSatInstance,
        meter: &mut BudgetMeter,
    ) -> Result<ExtractionOutcome> {
        let checks_before = self.checker.checks_performed();
        let mut bindings = instance.empty_bindings();
        let mut all_exact = true;
        let mut last_estimate: Option<crate::MeanEstimate> = None;
        // The last model an exact step returned. It agrees with every
        // decision so far: a step that keeps x_i = 1 either reused it or
        // replaced it, and a step that sets x_i = 0 found no model with
        // x_i = 1, so it has x_i = 0 as well.
        let mut witness: Option<Assignment> = None;
        for i in 0..instance.num_vars() {
            let var = Variable::new(i);
            // Line 4: bind x_i to 1 in the (already reduced) hyperspace.
            bindings.assign(var, true);
            let holds_model = match self.checker.extraction_step_budgeted(
                instance,
                &bindings,
                witness.as_ref(),
                meter,
            )? {
                StepAnswer::Estimate(estimate) => {
                    all_exact &= estimate.exact;
                    last_estimate = Some(estimate);
                    self.checker.decide(&estimate) == Verdict::Satisfiable
                }
                StepAnswer::Model(None) => false,
                StepAnswer::Model(model) => {
                    witness = model;
                    true
                }
            };
            if !holds_model {
                // The solution lies in the x̄_i subspace (line 8).
                bindings.assign(var, false);
            }
        }
        let assignment = bindings
            .try_to_complete()
            .expect("every variable was bound");
        if !instance.formula().evaluate(&assignment) {
            // Exact restricted checks steer correctly on satisfiable
            // instances, so a non-verifying result proves unsatisfiability.
            // A statistical engine may simply have made an unlucky decision;
            // report that without an exponential recount (which no budget
            // could interrupt).
            return if all_exact {
                Err(NblSatError::InstanceUnsatisfiable)
            } else {
                let estimate = last_estimate.expect("at least one variable was bound");
                Err(NblSatError::Inconclusive {
                    mean: estimate.mean,
                    samples: estimate.samples,
                })
            };
        }
        Ok(ExtractionOutcome {
            cube: Cube::from_assignment(&assignment),
            assignment: Some(assignment),
            checks_used: self.checker.checks_performed() - checks_before,
        })
    }

    /// Runs the cube variant of Algorithm 2: first a satisfying minterm is
    /// extracted with `n` NBL-SAT checks, then each variable is probed as a
    /// potential don't-care and dropped from the cube when the remaining cube
    /// is still an implicant of the formula (every minterm it covers satisfies
    /// the instance).
    ///
    /// The paper sketches the don't-care probe as a pair of restricted NBL
    /// checks; a "both polarities satisfiable" probe alone, however, only
    /// proves that each half-space *contains* a model, not that the whole
    /// enlarged cube is an implicant, so this implementation confirms each
    /// drop with the exact linear-time implicant test
    /// ([`Cube::is_implicant_of`]) over the freed variables. The NBL-check
    /// budget remains the paper's `n` operations.
    ///
    /// # Errors
    ///
    /// Same as [`AssignmentExtractor::extract`].
    pub fn extract_cube(&mut self, instance: &NblSatInstance) -> Result<ExtractionOutcome> {
        self.extract_cube_budgeted(instance, &mut BudgetMeter::default())
    }

    /// Budgeted variant of [`AssignmentExtractor::extract_cube`]; only the
    /// minterm extraction spends NBL checks, the don't-care shrink is pure
    /// CPU-side post-processing.
    ///
    /// # Errors
    ///
    /// Same as [`AssignmentExtractor::extract_budgeted`].
    pub fn extract_cube_budgeted(
        &mut self,
        instance: &NblSatInstance,
        meter: &mut BudgetMeter,
    ) -> Result<ExtractionOutcome> {
        let minterm = self.extract_budgeted(instance, meter)?;
        let assignment = minterm
            .assignment
            .as_ref()
            .expect("extract always returns a full minterm");
        Ok(ExtractionOutcome {
            assignment: None,
            cube: prime_implicant_cube(instance.formula(), assignment),
            checks_used: minterm.checks_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, ExhaustedResource};
    use crate::config::EngineConfig;
    use crate::engine::{batch_corpus, budget_corpus, PerCheck};
    use crate::sampled::SampledEngine;
    use crate::symbolic::SymbolicEngine;
    use cnf::cnf_formula;
    use cnf::generators::{self, RandomKSatConfig};
    use std::time::Duration;

    fn instance(f: &cnf::CnfFormula) -> NblSatInstance {
        NblSatInstance::new(f).unwrap()
    }

    #[test]
    fn example8_walkthrough() {
        // Example 8: S = (x1+x2)(¬x1+¬x2); the paper's run finds x1·x̄2.
        let inst = instance(&generators::example6_sat());
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        let outcome = extractor.extract(&inst).unwrap();
        let model = outcome.assignment.as_ref().unwrap();
        assert!(inst.formula().evaluate(model));
        // x1 = 1, and x2 is forced to 0 (matching the paper's walkthrough).
        assert!(model.value(Variable::new(0)));
        assert!(!model.value(Variable::new(1)));
        assert_eq!(outcome.checks_used, 2); // exactly n = 2 operations
        assert_eq!(outcome.cube.to_string(), "x1·¬x2");
    }

    #[test]
    fn linear_number_of_checks_on_random_satisfiable_instances() {
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        let mut found = 0;
        for seed in 0..40 {
            let f =
                generators::random_ksat(&RandomKSatConfig::new(8, 20, 3).with_seed(seed)).unwrap();
            if f.count_satisfying_assignments() == 0 {
                continue;
            }
            found += 1;
            let inst = instance(&f);
            let outcome = extractor.extract(&inst).unwrap();
            assert!(
                f.evaluate(outcome.assignment.as_ref().unwrap()),
                "seed {seed}"
            );
            assert_eq!(outcome.checks_used, f.num_vars() as u64, "seed {seed}");
        }
        assert!(
            found > 10,
            "need enough satisfiable instances to be meaningful"
        );
    }

    #[test]
    fn unsatisfiable_instance_is_detected() {
        let inst = instance(&generators::section4_unsat_instance());
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        assert!(matches!(
            extractor.extract(&inst),
            Err(NblSatError::InstanceUnsatisfiable)
        ));
        assert!(matches!(
            extractor.extract_cube(&inst),
            Err(NblSatError::InstanceUnsatisfiable)
        ));
    }

    #[test]
    fn cube_extraction_finds_dont_cares() {
        // S = (x1): x2 and x3 are don't-cares; the prime cube is just x1.
        let inst = instance(&cnf_formula![[1], [1, 2, 3]]);
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        let outcome = extractor.extract_cube(&inst).unwrap();
        assert_eq!(outcome.cube.to_string(), "x1");
        assert_eq!(outcome.checks_used, inst.num_vars() as u64);
        assert!(outcome.assignment.is_none());
        // Every expansion of the cube satisfies the formula.
        for a in outcome.cube.expand(inst.num_vars()) {
            assert!(inst.formula().evaluate(&a));
        }
        assert!(outcome.to_string().contains("checks"));
    }

    #[test]
    fn cube_extraction_on_xor_like_instance_returns_full_minterm() {
        // (x1+x2)(¬x1+¬x2): no don't-cares exist, the cube has both variables.
        let inst = instance(&generators::example6_sat());
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        let outcome = extractor.extract_cube(&inst).unwrap();
        assert_eq!(outcome.cube.len(), 2);
        for a in outcome.cube.expand(2) {
            assert!(inst.formula().evaluate(&a));
        }
    }

    #[test]
    fn sampled_engine_extracts_a_model_on_the_small_example() {
        let inst = instance(&generators::example6_sat());
        let engine = SampledEngine::new(
            EngineConfig::new()
                .with_seed(23)
                .with_max_samples(80_000)
                .with_check_interval(20_000),
        );
        let mut extractor = AssignmentExtractor::new(engine);
        let outcome = extractor.extract(&inst).unwrap();
        assert!(inst
            .formula()
            .evaluate(outcome.assignment.as_ref().unwrap()));
    }

    #[test]
    fn prime_implicant_helper_matches_expansion_semantics() {
        // S = (x1): x2, x3 are don't-cares.
        let f = cnf_formula![[1], [1, 2, 3]];
        let model = Assignment::from_bools(vec![true, false, true]);
        let cube = prime_implicant_cube(&f, &model);
        assert_eq!(cube.to_string(), "x1");
        for a in cube.expand(3) {
            assert!(f.evaluate(&a));
        }
        // XOR-like instance: no don't-cares exist.
        let g = cnf_formula![[1, 2], [-1, -2]];
        let model = Assignment::from_bools(vec![true, false]);
        assert_eq!(prime_implicant_cube(&g, &model).len(), 2);
    }

    #[test]
    fn prime_implicant_cube_is_a_prime_implicant_on_random_instances() {
        use cnf::generators::RandomKSatConfig;
        let mut covered = 0;
        for seed in 0..30 {
            let f =
                generators::random_ksat(&RandomKSatConfig::new(7, 18, 3).with_seed(seed)).unwrap();
            let Some(model) =
                sat_solvers::Solver::solve(&mut sat_solvers::BruteForceSolver::new(), &f)
                    .model()
                    .cloned()
            else {
                continue;
            };
            covered += 1;
            let cube = prime_implicant_cube(&f, &model);
            // Implicant...
            assert!(cube.is_implicant_of(&f), "seed {seed}");
            // ...and prime: no single literal can be removed.
            for skip in 0..cube.len() {
                let smaller: Cube = cube
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != skip)
                    .map(|(_, &l)| l)
                    .collect();
                assert!(!smaller.is_implicant_of(&f), "seed {seed} literal {skip}");
            }
        }
        assert!(covered > 10, "need satisfiable instances to be meaningful");
    }

    #[test]
    fn witness_reuse_matches_per_check_extraction() {
        let mut satisfiable = 0;
        for (label, formula) in batch_corpus() {
            let inst = instance(&formula);
            let mut batched = AssignmentExtractor::new(SymbolicEngine::new());
            let mut per_check = AssignmentExtractor::new(PerCheck(SymbolicEngine::new()));
            let outcome = batched.extract(&inst);
            assert_eq!(outcome, per_check.extract(&inst), "{label}");
            assert_eq!(
                batched.checker().checks_performed(),
                per_check.checker().checks_performed(),
                "{label}"
            );
            match outcome {
                Ok(outcome) => {
                    assert!(formula.evaluate(outcome.assignment.as_ref().unwrap()));
                    satisfiable += 1;
                }
                Err(e) => assert_eq!(e, NblSatError::InstanceUnsatisfiable, "{label}"),
            }
        }
        assert!(satisfiable > 100, "{satisfiable} satisfiable formulas");
    }

    /// Algorithm 1 and then, on SAT, Algorithm 2 on one meter, as the
    /// `nbl-symbolic` backend runs them for a model. Returns the result, the
    /// checks counted and the checks charged.
    fn check_then_extract<E: NblEngine>(
        engine: E,
        inst: &NblSatInstance,
        budget: &Budget,
    ) -> (Result<Option<ExtractionOutcome>>, u64, u64) {
        let mut meter = BudgetMeter::start(budget);
        let mut checker = SatChecker::new(engine);
        let verdict = checker.check_budgeted(inst, &inst.empty_bindings(), &mut meter);
        let mut extractor = AssignmentExtractor::from_checker(checker);
        let result = match verdict {
            Ok(Verdict::Satisfiable) => extractor.extract_budgeted(inst, &mut meter).map(Some),
            Ok(Verdict::Unsatisfiable) => Ok(None),
            Err(e) => Err(e),
        };
        let counted = extractor.checker().checks_performed();
        (result, counted, meter.checks_used())
    }

    #[test]
    fn check_budget_interrupts_extraction() {
        // Algorithm 2 needs n = 2 checks; a 1-check allowance must interrupt.
        let inst = instance(&generators::example6_sat());
        let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_checks(1));
        let err = extractor.extract_budgeted(&inst, &mut meter).unwrap_err();
        assert!(matches!(
            err,
            NblSatError::BudgetExhausted {
                resource: ExhaustedResource::CoprocessorChecks
            }
        ));
        assert_eq!(meter.checks_used(), 1);
        // With exactly n checks the extraction completes.
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_checks(2));
        let outcome = extractor.extract_budgeted(&inst, &mut meter).unwrap();
        assert!(outcome.assignment.is_some());
        assert_eq!(meter.checks_used(), 2);

        // At every check allowance up to the unlimited run's count, witness
        // reuse stops where the per-check extraction stops.
        for (label, formula) in budget_corpus() {
            let inst = instance(&formula);
            let unlimited = Budget::unlimited();
            let (result, checks, _) = check_then_extract(SymbolicEngine::new(), &inst, &unlimited);
            assert!(result.is_ok(), "{label}: {result:?}");
            for k in 0..=checks {
                let budget = Budget::unlimited().with_max_checks(k);
                let batched = check_then_extract(SymbolicEngine::new(), &inst, &budget);
                let per_check = check_then_extract(PerCheck(SymbolicEngine::new()), &inst, &budget);
                assert_eq!(batched, per_check, "{label} with {k} checks");
                assert_eq!(batched.0.is_err(), k < checks, "{label} with {k} checks");
            }
            // An expired deadline still stops it.
            let expired = Budget::unlimited().with_wall_time(Duration::ZERO);
            let mut meter = BudgetMeter::start(&expired);
            assert_eq!(
                AssignmentExtractor::new(SymbolicEngine::new()).extract_budgeted(&inst, &mut meter),
                Err(NblSatError::BudgetExhausted {
                    resource: ExhaustedResource::WallClock
                }),
                "{label}"
            );
        }
    }

    #[test]
    fn free_variable_cap_matches_per_check_extraction() {
        // Step i checks a subspace with n - 1 - i free variables, so a cap of
        // n - 2 stops the first step with that step's size.
        for (label, formula) in budget_corpus() {
            let inst = instance(&formula);
            let n = inst.num_vars();
            for cap in [n - 2, n - 1, n] {
                let mut batched =
                    AssignmentExtractor::new(SymbolicEngine::new().with_max_free_vars(cap));
                let mut per_check = AssignmentExtractor::new(PerCheck(
                    SymbolicEngine::new().with_max_free_vars(cap),
                ));
                let expected = per_check.extract(&inst);
                assert_eq!(
                    batched.extract(&inst),
                    expected,
                    "{label} with a cap of {cap}"
                );
                if cap == n - 2 {
                    assert!(
                        matches!(expected, Err(NblSatError::InstanceTooLarge { actual, .. }) if actual == n - 1),
                        "{label}: {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extractor_exposes_its_checker() {
        let extractor = AssignmentExtractor::new(SymbolicEngine::new());
        assert_eq!(extractor.checker().checks_performed(), 0);
        let checker = SatChecker::new(SymbolicEngine::new()).with_decision_sigmas(4.0);
        let extractor = AssignmentExtractor::from_checker(checker);
        assert_eq!(extractor.checker().checks_performed(), 0);
    }
}
