//! Property-based equivalence suite for IPASIR-style assumption solving.
//!
//! The contract under test: for any formula F and assumption literals A,
//! `CdclSolver::solve_under_assumptions(A)` must agree with solving
//! `F ∧ (unit clauses for A)` from scratch — verified against the
//! brute-force oracle. On UNSAT the failed-assumption core must be a subset
//! of A that is already unsatisfiable together with F; on SAT the model must
//! satisfy F and every assumption. Learned clauses carried across calls must
//! never flip a later verdict.

use nbl_sat_repro::prelude::*;
use proptest::prelude::*;

use cnf::generators::{self, RandomKSatConfig};

/// Strategy: a random CNF formula with `1..=max_vars` variables and
/// `1..=max_clauses` clauses of 1–3 literals, plus `0..=4` assumption
/// literals over the same variables (duplicates and contradictory pairs
/// included on purpose).
fn arb_instance(
    max_vars: usize,
    max_clauses: usize,
) -> impl Strategy<Value = (CnfFormula, Vec<Literal>)> {
    (1..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec((0..n, proptest::bool::ANY), 1..=3);
        let clauses = proptest::collection::vec(clause, 1..=max_clauses);
        let assumptions = proptest::collection::vec((0..n, proptest::bool::ANY), 0..=4);
        (clauses, assumptions).prop_map(move |(clauses, assumptions)| {
            let mut formula = CnfFormula::new(n);
            for lits in clauses {
                formula.add_clause(
                    lits.into_iter()
                        .map(|(v, phase)| Literal::with_phase(Variable::new(v), phase)),
                );
            }
            let assumptions = assumptions
                .into_iter()
                .map(|(v, phase)| Literal::with_phase(Variable::new(v), phase))
                .collect();
            (formula, assumptions)
        })
    })
}

/// The assumption list re-encoded the pedestrian way: one unit clause each.
fn with_units(formula: &CnfFormula, assumptions: &[Literal]) -> CnfFormula {
    let mut augmented = formula.clone();
    for &lit in assumptions {
        augmented.add_clause([lit]);
    }
    augmented
}

fn brute_is_sat(formula: &CnfFormula) -> bool {
    BruteForceSolver::new().solve(formula).is_sat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `solve_under_assumptions(A)` agrees with `F ∧ units(A)`; SAT models
    /// verify, UNSAT cores refute.
    #[test]
    fn assumption_solve_matches_unit_clause_oracle((formula, assumptions) in arb_instance(6, 8)) {
        let oracle = with_units(&formula, &assumptions);
        let sat = brute_is_sat(&oracle);

        let mut solver = CdclSolver::new();
        solver.push(&formula);
        match solver.solve_under_assumptions(&assumptions, &SearchLimits::unlimited()) {
            IncrementalResult::Satisfiable(model) => {
                prop_assert!(sat, "SAT claimed on an UNSAT oracle");
                prop_assert!(formula.evaluate(&model));
                for &lit in &assumptions {
                    prop_assert!(model.satisfies(lit), "assumption {lit} violated");
                }
            }
            IncrementalResult::Unsatisfiable(core) => {
                prop_assert!(!sat, "UNSAT claimed on a SAT oracle");
                // The failed core is a subset of the call's assumptions…
                for lit in &core {
                    prop_assert!(assumptions.contains(lit), "core literal {lit} never assumed");
                }
                // …already unsatisfiable with the formula.
                let refuted = with_units(&formula, &core);
                prop_assert!(!brute_is_sat(&refuted));
            }
            IncrementalResult::Unknown => {
                prop_assert!(false, "unlimited search returned Unknown");
            }
        }
    }

    /// Verdicts are stable across repeated calls on one solver: the learned
    /// clauses and saved phases carried over must never flip an answer.
    #[test]
    fn repeated_assumption_solves_are_stable((formula, assumptions) in arb_instance(6, 8)) {
        let oracle = brute_is_sat(&with_units(&formula, &assumptions));
        let mut solver = CdclSolver::new();
        solver.push(&formula);
        let limits = SearchLimits::unlimited();
        let first = solver.solve_under_assumptions(&assumptions, &limits);
        // An unrelated call in between perturbs activities and the clause DB.
        let _ = solver.solve_under_assumptions(&[], &limits);
        let second = solver.solve_under_assumptions(&assumptions, &limits);
        prop_assert_eq!(first.is_sat(), oracle);
        prop_assert_eq!(second.is_sat(), oracle);
    }

    /// A cube dispatched as assumptions decides exactly "is there a model in
    /// the cube's subspace" — the contract the shard coordinator relies on.
    #[test]
    fn cube_assumptions_decide_the_subspace((formula, assumptions) in arb_instance(5, 7)) {
        let cube = Cube::from_literals(assumptions);
        let expected = Assignment::enumerate_all(formula.num_vars())
            .any(|a| cube.evaluate(&a) && formula.evaluate(&a));
        let mut solver = CdclSolver::new();
        solver.push(&formula);
        let result =
            solver.solve_under_assumptions(&cube.to_assumptions(), &SearchLimits::unlimited());
        prop_assert_eq!(result.is_sat(), expected);
    }
}

/// Frames, learned-clause minimization and scheduled reduction together, on
/// formulas big enough for the clause database to be managed: two push
/// frames of random 3-SAT near the α≈4.26 threshold, a run of assumption
/// calls whose conflicts add up past the first reduction round (after 2 000
/// conflicts), then a pop of the top frame. Every answer before and after
/// the pop must match a from-scratch solve of the frames still pushed.
#[test]
fn two_frames_through_reduction_rounds_pop_to_the_base_oracle() {
    fn oracle(frames: &[&CnfFormula], assumptions: &[Literal]) -> bool {
        let mut formula = CnfFormula::new(frames[0].num_vars());
        for frame in frames {
            for clause in frame.iter() {
                formula.push_clause(clause.clone());
            }
        }
        CdclSolver::new()
            .solve(&with_units(&formula, assumptions))
            .is_sat()
    }
    let limits = SearchLimits::unlimited();
    for seed in [11u64, 14] {
        let n = 100;
        let config = |alpha, seed| RandomKSatConfig::from_ratio(n, alpha, 3).with_seed(seed);
        let base = generators::random_ksat(&config(3.9, seed)).unwrap();
        let top = generators::random_ksat(&config(0.15, seed + 1000)).unwrap();
        let mut solver = CdclSolver::new();
        solver.push(&base);
        solver.push(&top);
        // Three distinct variables per call, spread by a fixed LCG.
        let assumption = |call: u64, seed: u64| {
            let mut state = (call + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            let mut cube: Vec<Literal> = Vec::new();
            while cube.len() < 3 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let var = Variable::new((state >> 33) as usize % n);
                if cube.iter().all(|l| l.variable() != var) {
                    cube.push(Literal::with_phase(var, state >> 63 == 1));
                }
            }
            cube
        };
        let mut conflicts = 0;
        let mut calls = 0;
        while conflicts < 2_600 {
            let assumptions = assumption(calls, seed);
            let result = solver.solve_under_assumptions(&assumptions, &limits);
            conflicts += solver.stats().conflicts;
            calls += 1;
            assert_eq!(
                result.is_sat(),
                oracle(&[&base, &top], &assumptions),
                "seed {seed} call {calls}: two frames"
            );
            if let IncrementalResult::Satisfiable(model) = &result {
                assert!(base.evaluate(model) && top.evaluate(model));
            }
            assert!(
                calls < 400,
                "seed {seed}: too few conflicts to reach a reduction"
            );
        }
        assert!(solver.pop());
        for call in 0..12 {
            let assumptions = assumption(call + 500, seed);
            let result = solver.solve_under_assumptions(&assumptions, &limits);
            assert_eq!(
                result.is_sat(),
                oracle(&[&base], &assumptions),
                "seed {seed} call {call}: after the pop"
            );
            if let IncrementalResult::Satisfiable(model) = &result {
                assert!(base.evaluate(model));
            }
        }
    }
}
