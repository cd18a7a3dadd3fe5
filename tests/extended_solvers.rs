//! Cross-crate integration and property tests for the extended solver suite:
//! GSAT, Schöning, the polynomial 2-SAT solver, the portfolio and the MUS
//! extractor, all cross-validated against the exact oracles and the NBL-SAT
//! symbolic engine.

use nbl_sat_repro::nbl_sat::{NblSatInstance, SatChecker, SymbolicEngine};
use nbl_sat_repro::prelude::*;
use nbl_sat_repro::solvers::{MusOutcome, SchoeningConfig};
use proptest::prelude::*;

/// Strategy: a random CNF formula over `1..=max_vars` variables with clauses
/// of exactly `width` literals.
fn arb_fixed_width_formula(
    max_vars: usize,
    max_clauses: usize,
    width: usize,
) -> impl Strategy<Value = cnf::CnfFormula> {
    (2..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec((0..n, proptest::bool::ANY), width);
        proptest::collection::vec(clause, 1..=max_clauses).prop_map(move |clauses| {
            let mut formula = cnf::CnfFormula::new(n);
            for lits in clauses {
                formula.add_clause(
                    lits.into_iter()
                        .map(|(v, phase)| Literal::with_phase(Variable::new(v), phase)),
                );
            }
            formula
        })
    })
}

#[test]
fn all_solvers_agree_with_nbl_on_the_worked_examples() {
    let instances = [
        (cnf::generators::example6_sat(), true),
        (cnf::generators::example7_unsat(), false),
        (cnf::generators::section4_sat_instance(), true),
        (cnf::generators::section4_unsat_instance(), false),
    ];
    for (formula, expected_sat) in instances {
        let nbl = SatChecker::new(SymbolicEngine::new())
            .check(&NblSatInstance::new(&formula).unwrap())
            .unwrap();
        assert_eq!(nbl.is_sat(), expected_sat);
        assert_eq!(TwoSatSolver::new().solve(&formula).is_sat(), expected_sat);
        assert_eq!(Portfolio::new().solve(&formula).is_sat(), expected_sat);
        assert_eq!(CdclSolver::new().solve(&formula).is_sat(), expected_sat);
        // Incomplete solvers must find models of the satisfiable instances
        // and must never claim UNSAT.
        for result in [
            Gsat::new().solve(&formula),
            Schoening::new().solve(&formula),
            WalkSat::new().solve(&formula),
        ] {
            if expected_sat {
                assert!(result.is_sat());
            } else {
                assert!(!result.is_sat());
                assert!(!result.is_unsat());
            }
        }
    }
}

#[test]
fn unified_api_covers_the_worked_examples_across_backend_families() {
    // The same four paper instances as above, but dispatched through the
    // unified request/outcome API: one classical, one NBL and one hybrid
    // backend must tell the same story, including artifacts.
    let registry = BackendRegistry::default();
    let instances = [
        (cnf::generators::example6_sat(), true),
        (cnf::generators::example7_unsat(), false),
        (cnf::generators::section4_sat_instance(), true),
        (cnf::generators::section4_unsat_instance(), false),
    ];
    for (formula, expected_sat) in instances {
        let request = SolveRequest::new(&formula).artifacts(Artifacts::PrimeCube);
        for backend in ["cdcl", "nbl-symbolic", "hybrid-symbolic"] {
            let outcome = registry.solve(backend, &request).unwrap();
            assert_eq!(outcome.verdict.is_sat(), expected_sat, "{backend}");
            assert!(outcome.verdict.is_definitive(), "{backend}");
            if expected_sat {
                assert!(
                    formula.evaluate(outcome.model.as_ref().unwrap()),
                    "{backend}"
                );
                assert!(outcome.cube.unwrap().is_implicant_of(&formula), "{backend}");
            } else {
                assert!(outcome.model.is_none(), "{backend}");
            }
        }
    }
}

#[test]
fn mus_extraction_on_the_pigeonhole_family() {
    let formula = cnf::generators::pigeonhole(4, 3);
    let mut extractor = MusExtractor::new();
    let MusOutcome::Core(core) = extractor.extract(&formula) else {
        panic!("pigeonhole instances are unsatisfiable");
    };
    assert!(!core.is_empty());
    assert!(core.len() <= formula.num_clauses());
    // The core itself must be unsatisfiable.
    let core_formula = cnf::CnfFormula::from_clauses(
        formula.num_vars(),
        core.iter().map(|&i| formula.clauses()[i].clone()),
    );
    assert!(CdclSolver::new().solve(&core_formula).is_unsat());
    // ... and the NBL-SAT engine agrees it has no models.
    let verdict = SatChecker::new(SymbolicEngine::new())
        .check(&NblSatInstance::new(&core_formula).unwrap())
        .unwrap();
    assert!(!verdict.is_sat());
}

#[test]
fn schoening_walk_length_is_linear_in_n() {
    let formula = cnf::generators::pigeonhole(3, 2); // UNSAT, 6 variables
    let mut solver = Schoening::with_config(SchoeningConfig {
        max_restarts: 5,
        walk_length_factor: 3,
        seed: 0,
    });
    assert!(!solver.solve(&formula).is_sat());
    assert_eq!(solver.stats().flips, 5 * 3 * formula.num_vars() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The polynomial 2-SAT solver agrees with DPLL on random 2-CNF, and its
    /// models verify.
    #[test]
    fn two_sat_agrees_with_dpll(formula in arb_fixed_width_formula(8, 14, 2)) {
        let fast = TwoSatSolver::new().solve(&formula);
        let exact = DpllSolver::new().solve(&formula);
        prop_assert_eq!(fast.is_sat(), exact.is_sat());
        if let SolveResult::Satisfiable(model) = fast {
            prop_assert!(formula.evaluate(&model));
        }
    }

    /// The portfolio is complete and agrees with brute force on small 3-CNF.
    #[test]
    fn portfolio_agrees_with_brute_force(formula in arb_fixed_width_formula(7, 12, 3)) {
        let portfolio = Portfolio::new().solve(&formula);
        let oracle = BruteForceSolver::new().solve(&formula);
        prop_assert_eq!(portfolio.is_sat(), oracle.is_sat());
        prop_assert_ne!(portfolio, SolveResult::Unknown);
    }

    /// Local-search models always verify, and local search never claims UNSAT.
    #[test]
    fn local_search_models_verify(formula in arb_fixed_width_formula(8, 16, 3)) {
        for result in [Gsat::new().solve(&formula), Schoening::new().solve(&formula)] {
            prop_assert!(!result.is_unsat());
            if let SolveResult::Satisfiable(model) = result {
                prop_assert!(formula.evaluate(&model));
            }
        }
    }

    /// Every MUS is unsatisfiable and minimal (removing any clause makes it SAT),
    /// and extraction returns `Satisfiable` exactly on satisfiable formulas.
    #[test]
    fn mus_cores_are_minimal_and_unsat(formula in arb_fixed_width_formula(5, 9, 2)) {
        let satisfiable = BruteForceSolver::new().solve(&formula).is_sat();
        let mut extractor = MusExtractor::new();
        match extractor.extract(&formula) {
            MusOutcome::Satisfiable => prop_assert!(satisfiable),
            MusOutcome::Core(core) => {
                prop_assert!(!satisfiable);
                let subset = |indices: &[usize]| {
                    cnf::CnfFormula::from_clauses(
                        formula.num_vars(),
                        indices.iter().map(|&i| formula.clauses()[i].clone()),
                    )
                };
                prop_assert!(CdclSolver::new().solve(&subset(&core)).is_unsat());
                for skip in 0..core.len() {
                    let reduced: Vec<usize> = core
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, &c)| c)
                        .collect();
                    prop_assert!(CdclSolver::new().solve(&subset(&reduced)).is_sat());
                }
            }
        }
    }
}
