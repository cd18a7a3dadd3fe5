//! Workspace-level acceptance suite for the cooperative clause-sharing
//! portfolio: a default (shared) [`BackendRegistry`] against a
//! `racing_only` one, across every registered backend.
//!
//! Clause sharing only changes the `parallel-portfolio` backend, and there
//! only *how* members search — every imported clause is implied by the input
//! formula, so verdicts must be identical between the two registries and
//! must match the brute-force oracle (the PR 3 determinism contract:
//! verdicts seed-deterministic, attribution race-dependent). The stress test
//! at the bottom hammers the cooperative path repeatedly and is part of the
//! CI concurrency re-run (`RUST_TEST_THREADS=1`), where it proves the
//! sharing machinery also behaves when member threads are serialised onto
//! one core.

use nbl_sat_repro::prelude::*;
use nbl_sat_repro::solvers::SharingConfig;

fn registries() -> (BackendRegistry, BackendRegistry) {
    (
        // Default = cooperative sharing on.
        BackendRegistry::default(),
        BackendRegistry::with_sharing(SharingConfig::racing_only()),
    )
}

/// Corpus for polynomially-priced backends: the paper's worked examples,
/// seeded random 3-SAT around the phase transition, random 2-SAT, and two
/// pigeonhole rungs (UNSAT, the clause-learning regime where sharing
/// actually carries traffic).
fn full_corpus() -> Vec<CnfFormula> {
    let mut corpus = vec![
        cnf::generators::example6_sat(),
        cnf::generators::example7_unsat(),
        cnf::generators::section4_sat_instance(),
        cnf::generators::section4_unsat_instance(),
        cnf::generators::pigeonhole(3, 2),
        cnf::generators::pigeonhole(4, 3),
    ];
    for seed in 0..6 {
        corpus.push(
            cnf::generators::random_ksat(
                &cnf::generators::RandomKSatConfig::new(8, 34, 3).with_seed(seed),
            )
            .unwrap(),
        );
    }
    for seed in 0..3 {
        corpus.push(
            cnf::generators::random_ksat(
                &cnf::generators::RandomKSatConfig::new(6, 12, 2).with_seed(50 + seed),
            )
            .unwrap(),
        );
    }
    corpus
}

/// Reduced corpus for the engines whose cost scales with `2^{n·m}` (term
/// expansion, Monte-Carlo sampling): the paper's own worked examples.
fn paper_corpus() -> Vec<CnfFormula> {
    vec![
        cnf::generators::example6_sat(),
        cnf::generators::example7_unsat(),
    ]
}

fn exponential_in_nm(name: &str) -> bool {
    name.contains("sampled") || name.contains("algebraic")
}

fn oracle(formula: &CnfFormula) -> bool {
    BruteForceSolver::new().solve(formula).is_sat()
}

/// Every backend, shared registry vs racing registry vs the brute-force
/// oracle: definitive verdicts must agree three ways, and any model must
/// satisfy the formula.
#[test]
fn shared_and_racing_registries_agree_on_every_backend() {
    let (shared, racing) = registries();
    assert_eq!(shared.names(), racing.names());
    let full = full_corpus();
    let paper = paper_corpus();
    for name in shared.names() {
        let corpus = if exponential_in_nm(name) {
            &paper
        } else {
            &full
        };
        for (i, formula) in corpus.iter().enumerate() {
            let expected = oracle(formula);
            let request = SolveRequest::new(formula)
                .artifacts(Artifacts::Model)
                .seed(2012);
            let a = shared.solve(name, &request).unwrap();
            let b = racing.solve(name, &request).unwrap();
            assert_eq!(
                a.verdict, b.verdict,
                "{name} verdict diverged between shared and racing on instance {i}"
            );
            for (mode, outcome) in [("shared", &a), ("racing", &b)] {
                match outcome.verdict {
                    SolveVerdict::Satisfiable => {
                        assert!(expected, "{name}/{mode} claimed SAT on UNSAT instance {i}");
                        let model = outcome.model.as_ref().unwrap();
                        assert!(
                            formula.evaluate(model),
                            "{name}/{mode} model invalid on {i}"
                        );
                    }
                    SolveVerdict::Unsatisfiable => {
                        assert!(!expected, "{name}/{mode} claimed UNSAT on SAT instance {i}");
                    }
                    SolveVerdict::Unknown(_) => {}
                }
            }
        }
    }
}

/// The sharing counters surface through the facade: a cooperative
/// parallel-portfolio solve on a clause-learning workload reports exports in
/// its merged [`SolveStats`]; the racing registry reports none.
#[test]
fn sharing_counters_surface_in_solve_stats() {
    let (shared, racing) = registries();
    let formula = cnf::generators::pigeonhole(5, 4);
    let request = SolveRequest::new(&formula).seed(7);

    let cooperative = shared.solve("parallel-portfolio", &request).unwrap();
    assert_eq!(cooperative.verdict, SolveVerdict::Unsatisfiable);
    assert!(
        cooperative.stats.clauses_exported > 0,
        "cooperative solve exported no clauses: {:?}",
        cooperative.stats
    );

    let raced = racing.solve("parallel-portfolio", &request).unwrap();
    assert_eq!(raced.verdict, SolveVerdict::Unsatisfiable);
    assert_eq!(raced.stats.clauses_exported, 0);
    assert_eq!(raced.stats.clauses_imported, 0);
}

/// Stress/acceptance for the CI concurrency re-run: repeated cooperative
/// solves across seeds — SAT and UNSAT, fresh pool every time — always match
/// the oracle, and UNSAT clause-learning runs keep carrying pool traffic.
#[test]
fn cooperative_portfolio_stress() {
    let registry = BackendRegistry::default();
    let mut exported_total = 0u64;
    for round in 0..8u64 {
        let formula = if round % 2 == 0 {
            cnf::generators::pigeonhole(4, 3)
        } else {
            cnf::generators::random_ksat(
                &cnf::generators::RandomKSatConfig::new(10, 42, 3).with_seed(round),
            )
            .unwrap()
        };
        let expected = oracle(&formula);
        let request = SolveRequest::new(&formula)
            .artifacts(Artifacts::Model)
            .seed(round);
        let outcome = registry.solve("parallel-portfolio", &request).unwrap();
        assert_eq!(
            outcome.verdict,
            if expected {
                SolveVerdict::Satisfiable
            } else {
                SolveVerdict::Unsatisfiable
            },
            "round {round} verdict wrong"
        );
        if let Some(model) = &outcome.model {
            assert!(formula.evaluate(model), "round {round} model invalid");
        }
        exported_total += outcome.stats.clauses_exported;
    }
    assert!(
        exported_total > 0,
        "eight cooperative rounds never exported a clause"
    );
}
