//! End-to-end integration tests across the workspace crates: DIMACS input →
//! NBL transform → single-operation check → assignment extraction → classical
//! cross-validation.

use nbl_sat_repro::prelude::*;

const DIMACS_SAT: &str = "c paper section IV satisfiable instance\n\
p cnf 2 4\n1 2 0\n1 2 0\n1 -2 0\n-1 2 0\n";

const DIMACS_UNSAT: &str = "c paper section IV unsatisfiable instance\n\
p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";

#[test]
fn dimacs_to_nbl_verdicts_match_the_paper() {
    let sat = cnf::dimacs::parse_str(DIMACS_SAT).unwrap();
    let unsat = cnf::dimacs::parse_str(DIMACS_UNSAT).unwrap();
    let mut checker = SatChecker::new(SymbolicEngine::new());
    assert_eq!(
        checker.check(&NblSatInstance::new(&sat).unwrap()).unwrap(),
        Verdict::Satisfiable
    );
    assert_eq!(
        checker
            .check(&NblSatInstance::new(&unsat).unwrap())
            .unwrap(),
        Verdict::Unsatisfiable
    );
}

#[test]
fn full_pipeline_dimacs_check_extract_verify() {
    let formula = cnf::dimacs::parse_str(DIMACS_SAT).unwrap();
    let instance = NblSatInstance::new(&formula).unwrap();

    // Algorithm 1 then Algorithm 2.
    let mut checker = SatChecker::new(SymbolicEngine::new());
    assert!(checker.check(&instance).unwrap().is_sat());
    let mut extractor = AssignmentExtractor::new(SymbolicEngine::new());
    let outcome = extractor.extract(&instance).unwrap();
    let model = outcome.assignment.unwrap();
    assert!(formula.evaluate(&model));
    assert_eq!(outcome.checks_used, formula.num_vars() as u64);

    // Cross-validate with every classical baseline.
    assert!(BruteForceSolver::new().solve(&formula).is_sat());
    assert!(DpllSolver::new().solve(&formula).is_sat());
    assert!(CdclSolver::new().solve(&formula).is_sat());
    let walksat_model = WalkSat::new().solve(&formula);
    assert!(formula.evaluate(walksat_model.model().unwrap()));

    // Round-trip the formula through DIMACS and re-check.
    let text = cnf::dimacs::to_string(&formula);
    let reparsed = cnf::dimacs::parse_str(&text).unwrap();
    assert_eq!(reparsed, formula);
}

#[test]
fn sampled_engine_end_to_end_on_paper_examples() {
    let formula = cnf::generators::example6_sat();
    let instance = NblSatInstance::new(&formula).unwrap();
    let config = EngineConfig::new()
        .with_seed(99)
        .with_max_samples(120_000)
        .with_check_interval(30_000);
    let mut extractor = AssignmentExtractor::new(SampledEngine::new(config));
    let outcome = extractor.extract(&instance).unwrap();
    assert!(formula.evaluate(&outcome.assignment.unwrap()));
}

#[test]
fn workload_generators_feed_every_solver_and_the_nbl_checker() {
    let registry = BackendRegistry::default();
    let workloads: Vec<(cnf::CnfFormula, bool)> = vec![
        (cnf::generators::pigeonhole(3, 3), true),
        (cnf::generators::pigeonhole(4, 3), false),
        (cnf::generators::parity_chain(4, false), true),
        (
            cnf::generators::graph_coloring(&cnf::generators::cycle_graph(5), 2),
            false,
        ),
        (cnf::generators::buggy_adder_miter(1, 0), true),
        (cnf::generators::adder_equivalence_miter(1), false),
    ];
    for (formula, expected_sat) in workloads {
        let request = SolveRequest::new(&formula).artifacts(Artifacts::Model);
        for backend in ["cdcl", "dpll"] {
            let outcome = registry.solve(backend, &request).unwrap();
            assert_eq!(
                outcome.verdict.is_sat(),
                expected_sat,
                "{backend} {formula}"
            );
            if let Some(model) = &outcome.model {
                assert!(formula.evaluate(model), "{backend} {formula}");
            }
        }
        if formula.num_vars() <= 14 {
            let outcome = registry.solve("nbl-symbolic", &request).unwrap();
            assert_eq!(
                outcome.verdict.is_sat(),
                expected_sat,
                "NBL disagreed on {formula}"
            );
        }
    }
}

#[test]
fn hybrid_backend_agrees_with_cdcl_across_workloads() {
    let registry = BackendRegistry::default();
    for seed in 0..10 {
        let formula = cnf::generators::random_ksat(
            &cnf::generators::RandomKSatConfig::new(8, 33, 3).with_seed(seed),
        )
        .unwrap();
        let request = SolveRequest::new(&formula).artifacts(Artifacts::Model);
        let hybrid = registry.solve("hybrid-symbolic", &request).unwrap();
        let cdcl = registry.solve("cdcl", &request).unwrap();
        assert_eq!(hybrid.verdict, cdcl.verdict, "seed {seed}");
        assert!(hybrid.verdict.is_definitive(), "seed {seed}");
        if let Some(m) = &hybrid.model {
            assert!(formula.evaluate(m));
        }
        assert!(hybrid.stats.coprocessor_checks > 0);
    }
}

#[test]
fn snr_model_matches_symbolic_engine_scale() {
    // The symbolic engine's single-minterm weight must equal the SNR model's
    // predicted mean for K = 1 across a range of instance shapes.
    let model = SnrModel::new();
    for (n, m) in [(1usize, 2usize), (2, 2), (2, 4), (3, 3)] {
        let formula = cnf::generators::random_ksat(
            &cnf::generators::RandomKSatConfig::new(n, m, 1.min(n)).with_seed(5),
        )
        .unwrap();
        let instance = NblSatInstance::new(&formula).unwrap();
        let engine = SymbolicEngine::new();
        // Both sides compute (1/12)^{nm} with `f64::powi`, whose precision
        // Rust leaves unspecified: optimized builds may round differently,
        // so the two can differ by an ulp. An absolute bound of 1e-24 is
        // below one ulp of (1/12)^4, so compare relative to the value.
        let (weight, predicted) = (
            engine.minterm_weight(&instance),
            model.predicted_mean(n, m, 1),
        );
        assert!(
            (weight - predicted).abs() <= 1e-12 * predicted,
            "n={n} m={m}: {weight:e} vs {predicted:e}"
        );
    }
}
