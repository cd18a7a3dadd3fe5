//! A sequential solver portfolio.

use crate::cdcl::CdclSolver;
use crate::limits::SearchLimits;
use crate::solver::{SolveResult, Solver, SolverStats};
use crate::two_sat::TwoSatSolver;
use crate::walksat::{WalkSat, WalkSatConfig};
use cnf::CnfFormula;
use std::fmt;

/// Derives a per-member seed from a portfolio seed and the member's index
/// (SplitMix64 finalizer), so every stochastic member of an ensemble walks an
/// independent — yet fully request-deterministic — pseudo-random stream.
pub(crate) fn member_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add(1 + index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential portfolio: run a list of member solvers in order and return
/// the first definitive (SAT or UNSAT) answer.
///
/// The default portfolio mirrors how a practical front end would dispatch the
/// workloads in this workspace:
///
/// 1. [`TwoSatSolver`] — answers 2-CNF instances (the paper's worked examples)
///    in polynomial time and bows out of everything else,
/// 2. a short [`WalkSat`] burst — cheaply finds models of easy satisfiable
///    instances,
/// 3. [`CdclSolver`] — the complete backstop, so the portfolio as a whole is
///    complete.
///
/// Before each solve, every stochastic member is reseeded with a value
/// derived from the portfolio seed ([`Portfolio::with_seed`]) and the
/// member's position, so a fixed portfolio seed makes the whole ensemble
/// deterministic — the property the unified API's per-request seeding relies
/// on. Members must be [`Send`] so the same member list type also powers the
/// thread-racing [`crate::ParallelPortfolio`].
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{Portfolio, Solver};
///
/// let mut portfolio = Portfolio::new();
/// assert!(portfolio.solve(&cnf_formula![[1, 2], [-1, -2]]).is_sat());
/// assert_eq!(portfolio.winner(), Some("two-sat"));
///
/// assert!(portfolio.solve(&cnf_formula![[1, 2, 3], [-1], [-2], [-3]]).is_unsat());
/// assert_eq!(portfolio.winner(), Some("cdcl"));
/// ```
pub struct Portfolio {
    members: Vec<Box<dyn Solver + Send>>,
    stats: SolverStats,
    seed: u64,
}

impl fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Portfolio")
            .field("members", &self.member_names())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::new()
    }
}

/// The default member trio shared by [`Portfolio::new`] and
/// [`crate::ParallelPortfolio::new`]: 2-SAT, a short WalkSAT burst, CDCL.
/// One definition keeps the sequential and racing portfolios comparable.
pub(crate) fn default_members() -> Vec<Box<dyn Solver + Send>> {
    let walksat = WalkSat::with_config(WalkSatConfig {
        max_flips: 2_000,
        max_restarts: 2,
        ..WalkSatConfig::default()
    });
    vec![
        Box::new(TwoSatSolver::new()),
        Box::new(walksat),
        Box::new(CdclSolver::new()),
    ]
}

impl Portfolio {
    /// Creates the default three-member portfolio (2-SAT, WalkSAT, CDCL).
    pub fn new() -> Self {
        Portfolio::with_members(default_members())
    }

    /// Creates a portfolio from an explicit member list (tried in order).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn with_members(members: Vec<Box<dyn Solver + Send>>) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        Portfolio {
            members,
            stats: SolverStats::default(),
            seed: 0,
        }
    }

    /// Sets the seed from which the per-member seeds of the stochastic
    /// members are derived on every solve.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The name of the member that produced the last definitive answer, if
    /// any. Also surfaced as [`SolverStats::winner`] so downstream stats
    /// consumers can tell the members apart.
    pub fn winner(&self) -> Option<&'static str> {
        self.stats.winner
    }

    /// Names of the member solvers, in dispatch order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

/// Folds one member's statistics into a portfolio total (shared by the
/// sequential and the thread-racing portfolio, so a new [`SolverStats`]
/// counter only needs to be wired up here).
pub(crate) fn accumulate(total: &mut SolverStats, part: SolverStats) {
    total.decisions += part.decisions;
    total.conflicts += part.conflicts;
    total.propagations += part.propagations;
    total.restarts += part.restarts;
    total.learned_clauses += part.learned_clauses;
    total.assignments_tried += part.assignments_tried;
    total.flips += part.flips;
    total.clauses_exported += part.clauses_exported;
    total.clauses_imported += part.clauses_imported;
}

impl Solver for Portfolio {
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        self.stats = SolverStats::default();
        let seed = self.seed;
        for (index, member) in self.members.iter_mut().enumerate() {
            if limits.expired() {
                break;
            }
            // Reseed per solve (not per construction) so the per-request seed
            // of the unified API actually reaches the stochastic members.
            member.reseed(member_seed(seed, index));
            let result = member.solve_limited(formula, limits);
            accumulate(&mut self.stats, member.stats());
            match result {
                SolveResult::Unknown => continue,
                definitive => {
                    self.stats.winner = Some(member.name());
                    return definitive;
                }
            }
        }
        SolveResult::Unknown
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceSolver, Gsat, Schoening};
    use cnf::cnf_formula;
    use cnf::generators::{self, RandomKSatConfig};

    #[test]
    fn two_sat_member_wins_on_2cnf() {
        let mut portfolio = Portfolio::new();
        assert!(portfolio.solve(&generators::example6_sat()).is_sat());
        assert_eq!(portfolio.winner(), Some("two-sat"));
        assert!(portfolio.solve(&generators::example7_unsat()).is_unsat());
        assert_eq!(portfolio.winner(), Some("two-sat"));
    }

    #[test]
    fn cdcl_backstop_makes_portfolio_complete() {
        let mut portfolio = Portfolio::new();
        let unsat3 = generators::pigeonhole(4, 3);
        assert!(portfolio.solve(&unsat3).is_unsat());
        assert_eq!(portfolio.winner(), Some("cdcl"));
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        for seed in 0..15u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(9, 36, 3).with_seed(seed)).unwrap();
            let mut portfolio = Portfolio::new();
            let mut oracle = BruteForceSolver::new();
            assert_eq!(
                portfolio.solve(&formula).is_sat(),
                oracle.solve(&formula).is_sat(),
                "seed {seed}"
            );
            assert!(portfolio.winner().is_some());
        }
    }

    #[test]
    fn custom_member_list() {
        let mut portfolio =
            Portfolio::with_members(vec![Box::new(Schoening::new()), Box::new(Gsat::new())]);
        assert_eq!(portfolio.member_names(), vec!["schoening", "gsat"]);
        // Both members are incomplete, so an UNSAT instance stays Unknown.
        assert_eq!(
            portfolio.solve(&generators::section4_unsat_instance()),
            SolveResult::Unknown
        );
        assert_eq!(portfolio.winner(), None);
        // A satisfiable instance is found by the first member that succeeds.
        assert!(portfolio.solve(&cnf_formula![[1, 2], [2, 3]]).is_sat());
        assert_eq!(portfolio.winner(), Some("schoening"));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_panics() {
        let _ = Portfolio::with_members(Vec::new());
    }

    #[test]
    fn stats_are_accumulated_across_members() {
        let mut portfolio = Portfolio::new();
        let formula = generators::pigeonhole(4, 3);
        let _ = portfolio.solve(&formula);
        // WalkSAT flips plus CDCL decisions should both be visible.
        let stats = portfolio.stats();
        assert!(stats.flips > 0, "walksat member must have run");
        assert!(stats.decisions > 0, "cdcl member must have run");
    }

    #[test]
    fn winning_member_is_reported_in_stats() {
        let mut portfolio = Portfolio::new();
        let _ = portfolio.solve(&generators::example6_sat());
        assert_eq!(portfolio.stats().winner, Some("two-sat"));
        assert_eq!(portfolio.winner(), portfolio.stats().winner);
        assert!(portfolio.stats().to_string().contains("winner=two-sat"));
        let _ = portfolio.solve(&generators::pigeonhole(4, 3));
        assert_eq!(portfolio.stats().winner, Some("cdcl"));
    }

    #[test]
    fn expired_deadline_interrupts_with_unknown() {
        let mut portfolio = Portfolio::new();
        let limits = crate::SearchLimits::deadline_in(std::time::Duration::ZERO);
        assert_eq!(
            portfolio.solve_limited(&generators::pigeonhole(5, 4), &limits),
            SolveResult::Unknown
        );
        assert_eq!(portfolio.winner(), None);
    }

    #[test]
    fn same_seed_solves_identically_different_seed_reaches_members() {
        // Regression for the fixed-config portfolio: the seed must reach the
        // stochastic members on *every* solve, so two solves of the same
        // request are bit-identical (outcome and stats).
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(14, 56, 3).with_seed(11)).unwrap();
        let mut a = Portfolio::new().with_seed(42);
        let mut b = Portfolio::new().with_seed(42);
        let ra = a.solve(&formula);
        let rb = b.solve(&formula);
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
        // Re-solving on the same instance is also stable (the reseed happens
        // per call, not per construction).
        assert_eq!(a.solve(&formula), ra);
        assert_eq!(a.stats(), b.stats());
        // Reseeding the whole portfolio steers the stochastic members.
        let mut c = Portfolio::new().with_seed(43);
        let _ = c.solve(&formula);
        assert!(c.winner().is_some());
    }

    #[test]
    fn member_seed_is_deterministic_and_spread() {
        assert_eq!(member_seed(7, 0), member_seed(7, 0));
        assert_ne!(member_seed(7, 0), member_seed(7, 1));
        assert_ne!(member_seed(7, 0), member_seed(8, 0));
    }

    #[test]
    fn empty_clause_is_unsat_through_the_portfolio() {
        let mut portfolio = Portfolio::new();
        assert!(portfolio.solve(&cnf_formula![[]]).is_unsat());
        assert_eq!(portfolio.winner(), Some("two-sat"));
    }
}
