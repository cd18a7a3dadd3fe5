//! A thread-racing solver portfolio.
//!
//! The paper's core pitch is massive parallelism: every candidate assignment
//! is present "at once" in the NBL hyperspace, so the check is one concurrent
//! operation rather than a sequential scan. [`ParallelPortfolio`] is the
//! classical-solver expression of the same idea at the ensemble level — all
//! members attack the instance *simultaneously* on their own OS threads, and
//! the first definitive answer cancels the rest.

use crate::limits::SearchLimits;
use crate::portfolio::{accumulate, default_members, member_seed};
use crate::share::{ShareHandle, SharedClausePool, SharingConfig};
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::CnfFormula;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// A parallel portfolio: race every member solver on its own thread and
/// return the first definitive (SAT or UNSAT) answer.
///
/// Where [`crate::Portfolio`] tries its members one after another, this
/// portfolio spawns each member on a scoped [`std::thread`] and hands all of
/// them the same [`SearchLimits`] deadline plus a shared cancellation token
/// ([`SearchLimits::with_cancel`]). The first member to answer SAT or UNSAT
/// raises the token; every losing member observes it at its next poll (one
/// search node / conflict / flip / enumerated assignment) and returns
/// `Unknown`, so the losers are joined promptly instead of running to their
/// own caps.
///
/// The default member list is the same complete trio as the sequential
/// portfolio — [`crate::TwoSatSolver`], a [`crate::WalkSat`] burst,
/// [`crate::CdclSolver`] — so the racing portfolio is complete as long as
/// the instance is in scope for at least one complete member.
///
/// # Cooperation
///
/// By default the members don't just race, they *cooperate*: every solve
/// builds a [`SharedClausePool`] and hands each member a [`ShareHandle`].
/// CDCL members export short learned clauses on learn and import foreign
/// ones at restart boundaries; the local searches consume imports as soft
/// scoring constraints. [`ParallelPortfolio::with_sharing`] tunes the pool
/// ([`SharingConfig`]); [`SharingConfig::racing_only`] disables it entirely.
/// The per-member export/import traffic is accumulated into
/// [`SolverStats::clauses_exported`] / [`SolverStats::clauses_imported`].
///
/// # Determinism
///
/// Member searches are individually deterministic for a fixed portfolio seed
/// ([`ParallelPortfolio::with_seed`] reseeds every stochastic member per
/// solve, exactly like the sequential portfolio). The *verdict* is
/// deterministic, because all members are sound and every shared clause is
/// implied by the input formula (only frame-0 CDCL derivations are exported,
/// and local searches treat imports as soft constraints that never decide a
/// verdict): no race and no import can turn SAT into UNSAT. Which member
/// wins the race — and hence which model and [`SolverStats::winner`] are
/// reported — depends on OS scheduling, and under sharing the members'
/// search *trajectories* (conflict/flip counts, export/import totals) are
/// race-dependent too; only the verdict is contractual.
///
/// ```
/// use cnf::cnf_formula;
/// use sat_solvers::{ParallelPortfolio, Solver};
///
/// let mut portfolio = ParallelPortfolio::new();
/// assert!(portfolio.solve(&cnf_formula![[1, 2], [-1, -2]]).is_sat());
/// assert!(portfolio.solve(&cnf_formula![[1, 2, 3], [-1], [-2], [-3]]).is_unsat());
/// assert!(portfolio.winner().is_some());
/// ```
pub struct ParallelPortfolio {
    members: Vec<Box<dyn Solver + Send>>,
    stats: SolverStats,
    seed: u64,
    sharing: SharingConfig,
}

impl fmt::Debug for ParallelPortfolio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelPortfolio")
            .field("members", &self.member_names())
            .field("stats", &self.stats)
            .field("seed", &self.seed)
            .field("sharing", &self.sharing)
            .finish()
    }
}

impl Default for ParallelPortfolio {
    fn default() -> Self {
        ParallelPortfolio::new()
    }
}

/// What a member thread reports back to the collector.
struct MemberReport {
    name: &'static str,
    result: SolveResult,
    stats: SolverStats,
}

impl ParallelPortfolio {
    /// Creates the default three-member racing portfolio (2-SAT ∥ WalkSAT ∥
    /// CDCL — the same trio as the sequential [`crate::Portfolio`], so the
    /// two are directly comparable).
    pub fn new() -> Self {
        ParallelPortfolio::with_members(default_members())
    }

    /// Creates a racing portfolio from an explicit member list.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn with_members(members: Vec<Box<dyn Solver + Send>>) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        ParallelPortfolio {
            members,
            stats: SolverStats::default(),
            seed: 0,
            sharing: SharingConfig::default(),
        }
    }

    /// Sets the seed from which the per-member seeds of the stochastic
    /// members are derived on every solve.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the clause-sharing configuration. Sharing is on by default;
    /// [`SharingConfig::racing_only`] restores the pure racing portfolio.
    pub fn with_sharing(mut self, sharing: SharingConfig) -> Self {
        self.sharing = sharing;
        self
    }

    /// The active clause-sharing configuration.
    pub fn sharing(&self) -> &SharingConfig {
        &self.sharing
    }

    /// The name of the member that won the last race, if any. Also surfaced
    /// as [`SolverStats::winner`].
    pub fn winner(&self) -> Option<&'static str> {
        self.stats.winner
    }

    /// Names of the member solvers, in spawn order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl Solver for ParallelPortfolio {
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        self.stats = SolverStats::default();
        if limits.expired() {
            return SolveResult::Unknown;
        }
        let seed = self.seed;
        for (index, member) in self.members.iter_mut().enumerate() {
            member.reseed(member_seed(seed, index));
        }

        // Cooperative mode: a fresh shared clause pool per solve, one handle
        // per member. A single member has nobody to cooperate with, so it
        // races (the pool would only cost overhead).
        if self.sharing.enabled && self.members.len() > 1 {
            let pool = Arc::new(SharedClausePool::new(self.sharing));
            for (index, member) in self.members.iter_mut().enumerate() {
                member.attach_share(ShareHandle::new(Arc::clone(&pool), index));
            }
        }

        // The race flag is raised by the collector on the first definitive
        // answer. It is *chained* onto the caller's own limits, so members
        // observe the caller's deadline and cancellation tokens directly in
        // their search loops — no forwarding needed.
        let race = Arc::new(AtomicBool::new(false));
        let member_limits = limits.clone().with_cancel(Arc::clone(&race));

        let member_count = self.members.len();
        let (tx, rx) = mpsc::channel::<MemberReport>();
        let mut winner: Option<MemberReport> = None;

        thread::scope(|scope| {
            for member in self.members.iter_mut() {
                let tx = tx.clone();
                let member_limits = member_limits.clone();
                scope.spawn(move || {
                    let name = member.name();
                    // A panicking member must not poison the whole race: the
                    // panic is caught at this thread boundary and reported as
                    // an Unknown, so the surviving members still decide the
                    // instance. (The member's internal state may be
                    // inconsistent after the unwind, so its stats are not
                    // trusted; every solve reseeds and resets state anyway.)
                    let report = match catch_unwind(AssertUnwindSafe(|| {
                        member.solve_limited(formula, &member_limits)
                    })) {
                        Ok(result) => MemberReport {
                            name,
                            result,
                            stats: member.stats(),
                        },
                        Err(_panic) => MemberReport {
                            name,
                            result: SolveResult::Unknown,
                            stats: SolverStats::default(),
                        },
                    };
                    // The collector may already have hung up; a dead channel
                    // just means the report is dropped with the race.
                    let _ = tx.send(report);
                });
            }
            drop(tx);

            // Collect every member's report. Losers come back quickly once
            // the race flag is up (bounded by their search-loop poll
            // interval), so this loop also joins the losers promptly. The
            // members' limits chain the caller's deadline and cancellation
            // tokens, so there is nothing to forward — block until a report
            // lands.
            let mut received = 0usize;
            while received < member_count {
                let report = match rx.recv() {
                    Ok(report) => report,
                    Err(mpsc::RecvError) => break,
                };
                received += 1;
                accumulate(&mut self.stats, report.stats);
                if winner.is_none() && !matches!(report.result, SolveResult::Unknown) {
                    race.store(true, Ordering::Relaxed);
                    winner = Some(report);
                }
            }
            // `scope` joins all member threads here; every member has already
            // returned (its report was received or the channel disconnected).
        });

        // The pool dies with the solve: handles must not leak into the next
        // request (each solve builds a fresh pool with fresh cursors).
        for member in self.members.iter_mut() {
            member.detach_share();
        }

        match winner {
            Some(report) => {
                self.stats.winner = Some(report.name);
                report.result
            }
            None => SolveResult::Unknown,
        }
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "parallel-portfolio"
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceSolver, Gsat, Portfolio, Schoening};
    use cnf::cnf_formula;
    use cnf::generators::{self, RandomKSatConfig};
    use std::time::Duration;

    #[test]
    fn races_to_definitive_answers_on_paper_instances() {
        let mut portfolio = ParallelPortfolio::new();
        assert!(portfolio.solve(&generators::example6_sat()).is_sat());
        assert!(portfolio.winner().is_some());
        assert!(portfolio.solve(&generators::example7_unsat()).is_unsat());
        assert!(portfolio.winner().is_some());
    }

    #[test]
    fn complete_backstop_refutes_hard_instances() {
        let mut portfolio = ParallelPortfolio::new();
        let unsat = generators::pigeonhole(4, 3);
        assert!(portfolio.solve(&unsat).is_unsat());
        // Only the complete members can refute; WalkSAT cannot win this race.
        assert_ne!(portfolio.winner(), Some("walksat"));
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        for seed in 0..15u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(9, 36, 3).with_seed(seed)).unwrap();
            let mut portfolio = ParallelPortfolio::new().with_seed(seed);
            let mut oracle = BruteForceSolver::new();
            let result = portfolio.solve(&formula);
            assert_eq!(
                result.is_sat(),
                oracle.solve(&formula).is_sat(),
                "seed {seed}"
            );
            if let Some(model) = result.model() {
                assert!(formula.evaluate(model), "seed {seed}");
            }
            assert!(portfolio.winner().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn verdict_agrees_with_sequential_portfolio() {
        for seed in 0..8u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(8, 34, 3).with_seed(100 + seed))
                    .unwrap();
            let mut parallel = ParallelPortfolio::new().with_seed(seed);
            let mut sequential = Portfolio::new().with_seed(seed);
            assert_eq!(
                parallel.solve(&formula).is_sat(),
                sequential.solve(&formula).is_sat(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn incomplete_members_only_leave_unknown() {
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(Schoening::new()),
            Box::new(Gsat::new()),
        ]);
        assert_eq!(portfolio.member_names(), vec!["schoening", "gsat"]);
        assert_eq!(
            portfolio.solve(&generators::section4_unsat_instance()),
            SolveResult::Unknown
        );
        assert_eq!(portfolio.winner(), None);
        assert!(portfolio.solve(&cnf_formula![[1, 2], [2, 3]]).is_sat());
        assert!(portfolio.winner().is_some());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_panics() {
        let _ = ParallelPortfolio::with_members(Vec::new());
    }

    #[test]
    fn expired_deadline_interrupts_with_unknown() {
        let mut portfolio = ParallelPortfolio::new();
        let limits = SearchLimits::deadline_in(Duration::ZERO);
        assert_eq!(
            portfolio.solve_limited(&generators::pigeonhole(5, 4), &limits),
            SolveResult::Unknown
        );
        assert_eq!(portfolio.winner(), None);
    }

    #[test]
    fn external_cancellation_stops_the_whole_race() {
        // A pre-raised caller token must stop the portfolio without any
        // member finishing its search.
        let flag = Arc::new(AtomicBool::new(true));
        let limits = SearchLimits::unlimited().with_cancel(flag);
        let mut portfolio = ParallelPortfolio::new();
        assert_eq!(
            portfolio.solve_limited(&generators::pigeonhole(6, 5), &limits),
            SolveResult::Unknown
        );
    }

    #[test]
    fn empty_clause_is_unsat_through_the_race() {
        let mut portfolio = ParallelPortfolio::new();
        assert!(portfolio.solve(&cnf_formula![[]]).is_unsat());
    }

    /// A member that panics as soon as it is asked to solve anything.
    struct PanickingSolver;

    impl Solver for PanickingSolver {
        fn solve_limited(&mut self, _formula: &CnfFormula, _limits: &SearchLimits) -> SolveResult {
            panic!("deliberate mock panic");
        }

        fn stats(&self) -> SolverStats {
            SolverStats::default()
        }

        fn name(&self) -> &'static str {
            "panicker"
        }
    }

    #[test]
    fn panicking_member_does_not_poison_the_race() {
        // Regression: a member panic used to propagate through the scoped
        // join and take the whole portfolio down. It must now count as an
        // Unknown report while the healthy members decide the instance.
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(PanickingSolver),
            Box::new(crate::CdclSolver::new()),
        ]);
        assert!(portfolio.solve(&generators::example6_sat()).is_sat());
        assert_eq!(portfolio.winner(), Some("cdcl"));
        assert!(portfolio.solve(&generators::example7_unsat()).is_unsat());
    }

    #[test]
    fn all_members_panicking_is_unknown_not_a_crash() {
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(PanickingSolver),
            Box::new(PanickingSolver),
        ]);
        assert_eq!(
            portfolio.solve(&generators::example6_sat()),
            SolveResult::Unknown
        );
        assert_eq!(portfolio.winner(), None);
    }

    #[test]
    fn verdict_is_deterministic_for_a_fixed_seed() {
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(10, 42, 3).with_seed(5)).unwrap();
        let mut a = ParallelPortfolio::new().with_seed(9);
        let mut b = ParallelPortfolio::new().with_seed(9);
        assert_eq!(a.solve(&formula).is_sat(), b.solve(&formula).is_sat());
    }

    #[test]
    fn cooperating_cdcl_members_export_clauses() {
        use crate::CdclSolver;
        // Two CDCL members with aggressive restarts on a conflict-rich
        // instance: both publish learned clauses into the shared pool.
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(CdclSolver::new().with_restart_base(1)),
            Box::new(CdclSolver::new().with_restart_base(1)),
        ]);
        assert!(portfolio.sharing().enabled);
        assert!(portfolio.solve(&generators::pigeonhole(5, 4)).is_unsat());
        assert!(portfolio.stats().clauses_exported > 0);
    }

    #[test]
    fn racing_only_disables_the_pool() {
        use crate::share::SharingConfig;
        use crate::CdclSolver;
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(CdclSolver::new().with_restart_base(1)),
            Box::new(CdclSolver::new().with_restart_base(1)),
        ])
        .with_sharing(SharingConfig::racing_only());
        assert!(portfolio.solve(&generators::pigeonhole(5, 4)).is_unsat());
        assert_eq!(portfolio.stats().clauses_exported, 0);
        assert_eq!(portfolio.stats().clauses_imported, 0);
    }

    #[test]
    fn losing_members_stats_reach_the_outcome() {
        // Regression guard: the collector must merge *every* member's stats,
        // not just the winner's. GSAT cannot refute a pigeonhole instance, so
        // CDCL wins — yet GSAT's tried assignments and CDCL's conflicts and
        // exports must all land in the portfolio totals.
        let mut portfolio = ParallelPortfolio::with_members(vec![
            Box::new(Gsat::new()),
            Box::new(crate::CdclSolver::new().with_restart_base(1)),
        ]);
        assert!(portfolio.solve(&generators::pigeonhole(4, 3)).is_unsat());
        assert_eq!(portfolio.winner(), Some("cdcl"));
        let stats = portfolio.stats();
        assert!(stats.assignments_tried >= 1, "loser (GSAT) stats missing");
        assert!(stats.conflicts > 0, "winner (CDCL) stats missing");
        assert!(stats.clauses_exported > 0, "sharing counters missing");
    }

    #[test]
    fn shared_and_racing_verdicts_agree() {
        use crate::share::SharingConfig;
        for seed in 0..10u64 {
            let formula =
                generators::random_ksat(&RandomKSatConfig::new(9, 36, 3).with_seed(300 + seed))
                    .unwrap();
            let mut shared = ParallelPortfolio::new().with_seed(seed);
            let mut racing = ParallelPortfolio::new()
                .with_seed(seed)
                .with_sharing(SharingConfig::racing_only());
            assert_eq!(
                shared.solve(&formula).is_sat(),
                racing.solve(&formula).is_sat(),
                "seed {seed}"
            );
        }
    }
}
