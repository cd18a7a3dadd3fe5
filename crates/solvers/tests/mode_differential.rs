//! Solver-level reseed tests: [`Solver::reseed`] must restore every
//! stochastic local-search solver to the exact state of a freshly
//! constructed one with the same seed. (The packed cores are checked against
//! their scalar reference oracles by each solver's own unit tests.)

use cnf::generators::{self, RandomKSatConfig};
use sat_solvers::{Gsat, GsatConfig, Schoening, SchoeningConfig, Solver, WalkSat, WalkSatConfig};

/// Reseeding an already-used solver must be indistinguishable from building a
/// fresh solver with that seed: same verdict, same model, same stats.
fn assert_reseed_matches_fresh<S: Solver>(mut make: impl FnMut(u64) -> S) {
    let formula = generators::random_ksat(&RandomKSatConfig::new(14, 55, 3).with_seed(11)).unwrap();
    for mode_seed in [3u64, 19] {
        // Use the solver once with a different seed so reseed has stale
        // state to overwrite, then reseed and solve again.
        let mut reseeded = make(999);
        let _ = reseeded.solve(&formula);
        reseeded.reseed(mode_seed);
        let reseeded_result = reseeded.solve(&formula);

        let mut fresh = make(mode_seed);
        let fresh_result = fresh.solve(&formula);

        assert_eq!(reseeded_result, fresh_result, "reseed diverged from fresh");
        assert_eq!(reseeded.stats(), fresh.stats(), "reseed stats diverged");
    }
}

#[test]
fn walksat_reseed_matches_fresh_construction() {
    assert_reseed_matches_fresh(|seed| {
        WalkSat::with_config(WalkSatConfig {
            seed,
            max_flips: 2_000,
            max_restarts: 4,
            ..WalkSatConfig::default()
        })
    });
}

#[test]
fn gsat_reseed_matches_fresh_construction() {
    assert_reseed_matches_fresh(|seed| {
        Gsat::with_config(GsatConfig {
            seed,
            max_flips: 500,
            max_restarts: 4,
            ..GsatConfig::default()
        })
    });
}

#[test]
fn schoening_reseed_matches_fresh_construction() {
    assert_reseed_matches_fresh(|seed| {
        Schoening::with_config(SchoeningConfig {
            seed,
            max_restarts: 30,
            ..SchoeningConfig::default()
        })
    });
}
