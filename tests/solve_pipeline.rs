//! Acceptance suite for the shared solve pipeline (ISSUE 9): preprocessing
//! never changes any backend's verdict, isomorphic resubmissions answer
//! from the cache without dispatch, cached and preprocessed models always
//! verify against the *original* formula, and the fleet coordinator runs
//! the same preprocessing pass before splitting a single cube.

use nbl_sat_repro::prelude::*;

use cnf::generators::{self, RandomKSatConfig};

fn paper_instances() -> Vec<CnfFormula> {
    vec![
        generators::example6_sat(),
        generators::example7_unsat(),
        generators::section4_sat_instance(),
        generators::section4_unsat_instance(),
    ]
}

fn random_instances() -> Vec<CnfFormula> {
    (0..3u64)
        .map(|seed| {
            generators::random_ksat(&RandomKSatConfig::new(14, 50, 3).with_seed(seed)).unwrap()
        })
        .collect()
}

fn is_definitive(verdict: &SolveVerdict) -> bool {
    matches!(
        verdict,
        SolveVerdict::Satisfiable | SolveVerdict::Unsatisfiable
    )
}

/// Differential harness: `registry.solve` (which routes through the
/// preprocessing pipeline) against the raw backend with no pipeline at all.
/// Whenever both paths are definitive they must agree, and any model the
/// pipeline reports must satisfy the formula *as the caller wrote it* —
/// i.e. the reduction trace lifted it back correctly.
fn assert_pipeline_preserves_verdicts(backend: &str, instances: &[CnfFormula]) {
    let registry = BackendRegistry::default();
    for (i, formula) in instances.iter().enumerate() {
        for seed in [0u64, 17] {
            let request = SolveRequest::new(formula)
                .seed(seed)
                .artifacts(Artifacts::Model);
            let direct = registry
                .create(backend)
                .unwrap()
                .solve(&request)
                .unwrap_or_else(|e| panic!("{backend} direct solve failed: {e}"));
            let piped = registry
                .solve(backend, &request)
                .unwrap_or_else(|e| panic!("{backend} pipeline solve failed: {e}"));
            if is_definitive(&direct.verdict) && is_definitive(&piped.verdict) {
                assert_eq!(
                    direct.verdict, piped.verdict,
                    "{backend} verdict changed under the pipeline on instance {i} seed {seed}"
                );
            }
            if piped.verdict.is_sat() {
                let model = piped
                    .model
                    .as_ref()
                    .expect("pipeline SAT outcomes carry the requested model");
                assert!(
                    formula.evaluate(model),
                    "{backend} pipeline model fails the original formula \
                     on instance {i} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn pipeline_preserves_classical_backend_verdicts() {
    let mut instances = paper_instances();
    instances.extend(random_instances());
    for backend in [
        "brute-force",
        "dpll",
        "cdcl",
        "two-sat",
        "walksat",
        "gsat",
        "schoening",
        "portfolio",
        "parallel-portfolio",
    ] {
        assert_pipeline_preserves_verdicts(backend, &instances);
    }
}

#[test]
fn pipeline_preserves_nbl_backend_verdicts() {
    // The NBL and hybrid backends pay `2^{n·m}`-ish costs, so they run the
    // paper's worked instances only.
    for backend in [
        "nbl-symbolic",
        "nbl-algebraic",
        "nbl-sampled",
        "hybrid-symbolic",
        "hybrid-sampled",
    ] {
        assert_pipeline_preserves_verdicts(backend, &paper_instances());
    }
}

/// A SAT instance no preprocessing rule touches (no units, no pure
/// literals, no duplicates, no tautologies): it must reach the backend and
/// therefore the cache.
fn irreducible_sat() -> CnfFormula {
    cnf::cnf_formula![[1, 2], [-1, -2], [1, -2]]
}

/// [`irreducible_sat`] with the two variables swapped: isomorphic, so it
/// canonicalizes to the same cache key, but its unique model is the
/// *mirror* of the original's — a cache that replayed the stored model
/// verbatim would hand back a falsifying assignment.
fn irreducible_sat_renamed() -> CnfFormula {
    cnf::cnf_formula![[2, 1], [-2, -1], [2, -1]]
}

#[test]
fn isomorphic_resubmission_hits_the_cache_with_a_lifted_model() {
    let registry = BackendRegistry::default();
    let pipeline = SolvePipeline::new(PipelineConfig::new().with_cache(64));

    let first = irreducible_sat();
    let request = SolveRequest::new(&first).artifacts(Artifacts::Model);
    let outcome = pipeline.solve(&registry, "cdcl", &request).unwrap();
    assert!(outcome.verdict.is_sat());
    assert_eq!(outcome.stats.cache_hits, 0);
    assert!(first.evaluate(outcome.model.as_ref().unwrap()));

    let second = irreducible_sat_renamed();
    let request = SolveRequest::new(&second).artifacts(Artifacts::Model);
    let outcome = pipeline.solve(&registry, "cdcl", &request).unwrap();
    assert!(outcome.verdict.is_sat());
    assert_eq!(
        outcome.stats.cache_hits, 1,
        "isomorphic resubmission missed"
    );
    assert_eq!(outcome.stats.winner, Some("cache"));
    assert!(
        second.evaluate(outcome.model.as_ref().unwrap()),
        "cached model was not mapped into the resubmission's variable space"
    );

    let snapshot = pipeline.snapshot();
    assert_eq!(snapshot.cache_hits, 1);
    assert_eq!(snapshot.cache_misses, 1);
    assert_eq!(snapshot.cache_entries, 1);
    // Zero dispatch on the hit: only the first solve reached a backend.
    let dispatched: u64 = snapshot.backends.values().map(|b| b.count).sum();
    assert_eq!(dispatched, 1, "cache hit must not dispatch");
}

#[test]
fn fleet_coordinator_preprocesses_before_splitting() {
    // Unit-propagation refutes `example7_unsat` outright: the coordinator
    // must answer UNSAT without splitting a single cube.
    let coordinator = ShardCoordinator::connect(&[], ShardConfig::default()).unwrap();
    let outcome = coordinator.solve(&generators::example7_unsat());
    assert_eq!(outcome.verdict, SolveVerdict::Unsatisfiable);
    assert_eq!(outcome.fleet.cubes_split, 0, "fleet: {}", outcome.fleet);
    assert!(outcome.stats.preprocessed_vars_removed >= 1);

    // A unit clause on top of an irreducible core: preprocessing strips the
    // unit, the fleet machinery solves the reduced core, and the winning
    // model must lift back to satisfy the caller's formula (variable 3
    // included).
    let reducible_sat = cnf::cnf_formula![[3], [1, 2], [-1, -2], [1, -2]];
    let outcome = coordinator.solve(&reducible_sat);
    assert_eq!(outcome.verdict, SolveVerdict::Satisfiable);
    assert!(reducible_sat.evaluate(outcome.model.as_ref().unwrap()));
    assert!(
        outcome.stats.preprocessed_vars_removed >= 1,
        "stats: {}",
        outcome.stats
    );
}

/// A statistical backend's UNSAT must not reach the verdict cache: the
/// sampled engine answers UNSAT on these small satisfiable formulas, and a
/// later `cdcl` request for the same formula on the same pipeline (or
/// service) must still be solved, not answered from the cache. Verified SAT
/// answers stay cacheable from any backend.
#[test]
fn incomplete_backend_unsat_never_poisons_the_cache() {
    let registry = BackendRegistry::default();
    let pipeline = SolvePipeline::new(PipelineConfig::new().with_default_cache());
    let service = SolveService::builder(&registry)
        .workers(1)
        .cache_capacity(64)
        .start();
    let mut false_unsats = 0;
    for seed in 0..8u64 {
        let formula =
            generators::random_ksat(&RandomKSatConfig::from_ratio(5, 3.0, 3).with_seed(seed))
                .unwrap();
        let raw = registry
            .create("cdcl")
            .unwrap()
            .solve(&SolveRequest::new(&formula))
            .unwrap();
        assert!(
            raw.verdict.is_sat(),
            "seed {seed}: raw cdcl must find the model"
        );
        let request = SolveRequest::new(&formula).artifacts(Artifacts::Model);
        let sampled = pipeline.solve(&registry, "nbl-sampled", &request).unwrap();
        false_unsats += usize::from(sampled.verdict.is_unsat());
        let exact = pipeline.solve(&registry, "cdcl", &request).unwrap();
        assert!(
            exact.verdict.is_sat(),
            "seed {seed}: cdcl answered {:?} after nbl-sampled said {:?} (winner {:?})",
            exact.verdict,
            sampled.verdict,
            exact.stats.winner
        );
        assert!(formula.evaluate(exact.model.as_ref().unwrap()));
        // The verified model is cached: any backend now hits it.
        let again = pipeline.solve(&registry, "nbl-sampled", &request).unwrap();
        assert_eq!(again.stats.winner, Some("cache"), "seed {seed}");
        assert!(again.verdict.is_sat());

        let sampled = service.submit("nbl-sampled", &request).wait().unwrap();
        let exact = service.submit("cdcl", &request).wait().unwrap();
        assert!(
            exact.verdict.is_sat(),
            "seed {seed}: service cdcl answered {:?} after nbl-sampled said {:?}",
            exact.verdict,
            sampled.verdict
        );
    }
    service.shutdown();
    assert!(false_unsats > 0, "the sampled engine never answered UNSAT");
}
