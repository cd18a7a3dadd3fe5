//! Name-based backend registry.

use crate::algebraic::AlgebraicEngine;
use crate::config::EngineConfig;
use crate::error::{NblSatError, Result};
use crate::hybrid::HybridSolver;
use crate::sampled::SampledEngine;
use crate::solve::adapters::{ClassicalBackend, HybridBackend, NblCheckBackend};
use crate::solve::backend::SatBackend;
use crate::solve::outcome::SolveOutcome;
use crate::solve::pipeline::SolvePipeline;
use crate::solve::request::SolveRequest;
use crate::solve::session::{CdclSessionBackend, IncrementalBackend, SolveSession};
use crate::symbolic::SymbolicEngine;
use sat_solvers::{
    BruteForceSolver, CdclSolver, DpllSolver, Gsat, GsatConfig, ParallelPortfolio, Portfolio,
    Schoening, SchoeningConfig, SharingConfig, TwoSatSolver, WalkSat, WalkSatConfig,
};
use std::fmt;
use std::sync::Arc;

/// Points per decade of the log-spaced convergence trace the sampled backend
/// records when a request asks for one.
const TRACE_POINTS_PER_DECADE: u32 = 4;

type BackendFactory = Arc<dyn Fn() -> Box<dyn SatBackend> + Send + Sync>;
type SessionFactory = Arc<dyn Fn() -> Box<dyn IncrementalBackend> + Send + Sync>;

/// A registry mapping backend names to factories, with enumeration in
/// registration order.
///
/// Backends are stateful (they carry per-solve statistics), so the registry
/// hands out fresh instances via [`BackendRegistry::create`] rather than
/// sharing one. The factories are reference-counted, so cloning a registry is
/// cheap — this is how the long-lived worker threads of a
/// [`crate::SolveService`] get their own handle on the backend set.
/// [`BackendRegistry::default`] registers every solving engine in the
/// workspace:
///
/// | name | engine | complete |
/// |---|---|---|
/// | `brute-force` | exhaustive enumeration (≤ 24 vars) | yes |
/// | `dpll` | DPLL with unit propagation + pure literals | yes |
/// | `cdcl` | CDCL (watched literals, VSIDS, Luby restarts) | yes |
/// | `two-sat` | Aspvall–Plass–Tarjan 2-SAT | scope-limited |
/// | `walksat` | WalkSAT local search | no |
/// | `gsat` | GSAT local search | no |
/// | `schoening` | Schöning's random walk | no |
/// | `portfolio` | 2-SAT → WalkSAT → CDCL portfolio | yes |
/// | `parallel-portfolio` | 2-SAT ∥ WalkSAT ∥ CDCL raced across threads | yes |
/// | `nbl-symbolic` | NBL check, exact counting engine | yes |
/// | `nbl-algebraic` | NBL check, exact term expansion | yes |
/// | `nbl-sampled` | NBL check, Monte-Carlo engine | statistical |
/// | `hybrid-symbolic` | §V hybrid flow, ideal coprocessor | yes |
/// | `hybrid-sampled` | §V hybrid flow, sampled coprocessor | statistical |
///
/// "Scope-limited" and "statistical" backends report
/// [`SatBackend::is_complete`] `false`: 2-SAT answers only 2-CNF, and the
/// sampled engines' verdicts carry the §III.F statistical decision rule whose
/// sample cost grows as `2^{n·m}`.
#[derive(Clone)]
pub struct BackendRegistry {
    entries: Vec<(&'static str, BackendFactory)>,
    session_entries: Vec<(&'static str, SessionFactory)>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.names())
            .field("session_backends", &self.session_names())
            .finish()
    }
}

impl BackendRegistry {
    /// An empty registry (use [`BackendRegistry::default`] for the full set).
    pub fn empty() -> Self {
        BackendRegistry {
            entries: Vec::new(),
            session_entries: Vec::new(),
        }
    }

    /// Registers (or replaces) a backend factory under `name`.
    pub fn register(
        &mut self,
        name: &'static str,
        factory: impl Fn() -> Box<dyn SatBackend> + Send + Sync + 'static,
    ) {
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = Arc::new(factory);
        } else {
            self.entries.push((name, Arc::new(factory)));
        }
    }

    /// Creates a fresh instance of the named backend.
    ///
    /// # Errors
    ///
    /// [`NblSatError::UnknownBackend`] if no backend is registered under
    /// `name`.
    pub fn create(&self, name: &str) -> Result<Box<dyn SatBackend>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, factory)| factory())
            .ok_or_else(|| NblSatError::UnknownBackend(name.to_string()))
    }

    /// Registers (or replaces) an incremental session factory under `name`.
    /// A session factory is independent of the one-shot factory registered
    /// under the same name; most backends only have the latter.
    pub fn register_session(
        &mut self,
        name: &'static str,
        factory: impl Fn() -> Box<dyn IncrementalBackend> + Send + Sync + 'static,
    ) {
        if let Some(entry) = self.session_entries.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = Arc::new(factory);
        } else {
            self.session_entries.push((name, Arc::new(factory)));
        }
    }

    /// Opens a fresh incremental [`SolveSession`] on the named backend.
    ///
    /// # Errors
    ///
    /// [`NblSatError::UnknownBackend`] if no *session-capable* backend is
    /// registered under `name` (a name may support one-shot solves only).
    pub fn open_session(&self, name: &str) -> Result<SolveSession> {
        self.session_entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, factory)| SolveSession::new(factory()))
            .ok_or_else(|| NblSatError::UnknownBackend(name.to_string()))
    }

    /// Returns `true` if the named backend can host incremental sessions.
    pub fn supports_sessions(&self, name: &str) -> bool {
        self.session_entries.iter().any(|(n, _)| *n == name)
    }

    /// The session-capable backend names, in registration order.
    pub fn session_names(&self) -> Vec<&'static str> {
        self.session_entries.iter().map(|(name, _)| *name).collect()
    }

    /// The registered backend names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(name, _)| *name).collect()
    }

    /// Returns `true` if a backend is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| *n == name)
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The full default backend set with an explicit clause-sharing
    /// configuration for the `parallel-portfolio` backend (cooperative by
    /// default; pass [`SharingConfig::racing_only`] for the pure racing
    /// ensemble). `BackendRegistry::default()` is `with_sharing` under the
    /// default cooperative [`SharingConfig`].
    pub fn with_sharing(sharing: SharingConfig) -> Self {
        let mut registry = BackendRegistry::empty();
        registry.register("brute-force", || {
            Box::new(
                ClassicalBackend::new("brute-force", true, |_| BruteForceSolver::new())
                    .with_var_limit(24),
            )
        });
        registry.register("dpll", || {
            Box::new(ClassicalBackend::new("dpll", true, |_| DpllSolver::new()))
        });
        registry.register("cdcl", || {
            Box::new(ClassicalBackend::new("cdcl", true, |_| CdclSolver::new()))
        });
        // Complete only on 2-CNF; the unified API is formula-agnostic, so the
        // backend is advertised as incomplete (it answers Unknown out of
        // scope).
        registry.register("two-sat", || {
            Box::new(ClassicalBackend::new("two-sat", false, |_| {
                TwoSatSolver::new()
            }))
        });
        registry.register("walksat", || {
            Box::new(ClassicalBackend::new("walksat", false, |seed| {
                WalkSat::with_config(WalkSatConfig {
                    seed,
                    ..WalkSatConfig::default()
                })
            }))
        });
        registry.register("gsat", || {
            Box::new(ClassicalBackend::new("gsat", false, |seed| {
                Gsat::with_config(GsatConfig {
                    seed,
                    ..GsatConfig::default()
                })
            }))
        });
        registry.register("schoening", || {
            Box::new(ClassicalBackend::new("schoening", false, |seed| {
                Schoening::with_config(SchoeningConfig {
                    seed,
                    ..SchoeningConfig::default()
                })
            }))
        });
        // The portfolios are seed-aware so the request seed reaches their
        // stochastic members (reseeded per solve, not per construction).
        registry.register("portfolio", || {
            Box::new(ClassicalBackend::new("portfolio", true, |seed| {
                Portfolio::new().with_seed(seed)
            }))
        });
        registry.register("parallel-portfolio", move || {
            Box::new(ClassicalBackend::new(
                "parallel-portfolio",
                true,
                move |seed| {
                    ParallelPortfolio::new()
                        .with_seed(seed)
                        .with_sharing(sharing)
                },
            ))
        });
        registry.register("nbl-symbolic", || {
            Box::new(NblCheckBackend::new("nbl-symbolic", true, |_| {
                SymbolicEngine::new()
            }))
        });
        registry.register("nbl-algebraic", || {
            Box::new(NblCheckBackend::new("nbl-algebraic", true, |_| {
                AlgebraicEngine::new()
            }))
        });
        registry.register("nbl-sampled", || {
            Box::new(
                NblCheckBackend::new("nbl-sampled", false, |seed| {
                    SampledEngine::new(EngineConfig::new().with_seed(seed))
                })
                .with_trace_fn(|seed, instance, sample_allowance| {
                    let mut config = EngineConfig::new().with_seed(seed);
                    if let Some(allowance) = sample_allowance {
                        config = config.with_max_samples(allowance.min(config.max_samples).max(1));
                    }
                    let mut engine = SampledEngine::new(config);
                    engine.trace_logspaced(
                        instance,
                        &instance.empty_bindings(),
                        "S_N running mean",
                        TRACE_POINTS_PER_DECADE,
                    )
                }),
            )
        });
        registry.register("hybrid-symbolic", || {
            Box::new(HybridBackend::new("hybrid-symbolic", true, |_| {
                HybridSolver::with_ideal_coprocessor()
            }))
        });
        registry.register("hybrid-sampled", || {
            Box::new(HybridBackend::new("hybrid-sampled", false, |seed| {
                HybridSolver::new(SampledEngine::new(EngineConfig::new().with_seed(seed)))
            }))
        });
        // CDCL is the one engine with true incremental state worth keeping
        // between calls; it doubles as the session backend under its one-shot
        // name.
        registry.register_session("cdcl", || Box::new(CdclSessionBackend::new()));
        registry
    }

    /// Convenience: solve one request with the named backend through an
    /// ephemeral preprocessing pipeline (no cache — one-shot callers have no
    /// re-solve traffic to hit it with). The request's formula is normalized,
    /// unit-propagated and canonicalized before dispatch, and any model is
    /// mapped back to the caller's variable space; requests carrying
    /// assumptions, or asking for a convergence trace or prime-implicant
    /// cube, are dispatched untouched.
    ///
    /// # Errors
    ///
    /// [`NblSatError::UnknownBackend`] for unregistered names, plus whatever
    /// the backend's [`SatBackend::solve`] returns.
    pub fn solve(&self, name: &str, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        SolvePipeline::default().solve(self, name, request)
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::with_sharing(SharingConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::generators;

    #[test]
    fn default_registry_has_fourteen_backends() {
        let registry = BackendRegistry::default();
        assert_eq!(registry.len(), 14, "got {:?}", registry.names());
        assert!(!registry.is_empty());
        for name in [
            "brute-force",
            "dpll",
            "cdcl",
            "two-sat",
            "walksat",
            "gsat",
            "schoening",
            "portfolio",
            "parallel-portfolio",
            "nbl-symbolic",
            "nbl-algebraic",
            "nbl-sampled",
            "hybrid-symbolic",
            "hybrid-sampled",
        ] {
            assert!(registry.contains(name), "missing {name}");
            let backend = registry.create(name).unwrap();
            assert_eq!(backend.name(), name);
        }
    }

    #[test]
    fn session_support_is_advertised_and_opens() {
        let registry = BackendRegistry::default();
        assert!(registry.supports_sessions("cdcl"));
        assert!(!registry.supports_sessions("dpll"));
        assert_eq!(registry.session_names(), vec!["cdcl"]);
        let mut session = registry.open_session("cdcl").unwrap();
        assert_eq!(session.backend_name(), "cdcl");
        session.push(&generators::example7_unsat());
        let outcome = session
            .solve(&crate::solve::session::SessionCall::new())
            .unwrap();
        assert!(outcome.verdict.is_unsat());
        let err = registry.open_session("walksat").unwrap_err();
        assert!(matches!(err, NblSatError::UnknownBackend(ref n) if n == "walksat"));
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let registry = BackendRegistry::default();
        let err = registry.create("minisat").unwrap_err();
        assert!(matches!(err, NblSatError::UnknownBackend(ref n) if n == "minisat"));
        let f = generators::example6_sat();
        assert!(registry.solve("minisat", &SolveRequest::new(&f)).is_err());
    }

    #[test]
    fn register_replaces_existing_names() {
        let mut registry = BackendRegistry::empty();
        registry.register("cdcl", || {
            Box::new(ClassicalBackend::new("cdcl", true, |_| CdclSolver::new()))
        });
        registry.register("cdcl", || {
            Box::new(ClassicalBackend::new("cdcl", true, |_| {
                CdclSolver::new().with_restart_base(10)
            }))
        });
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["cdcl"]);
    }

    #[test]
    fn registry_solve_round_trip() {
        let registry = BackendRegistry::default();
        let f = generators::section4_sat_instance();
        let request = SolveRequest::new(&f);
        for name in ["cdcl", "nbl-symbolic", "hybrid-symbolic"] {
            let outcome = registry.solve(name, &request).unwrap();
            assert!(outcome.verdict.is_sat(), "{name}");
        }
        let unsat = generators::section4_unsat_instance();
        let request = SolveRequest::new(&unsat);
        for name in ["dpll", "portfolio", "nbl-algebraic"] {
            let outcome = registry.solve(name, &request).unwrap();
            assert!(outcome.verdict.is_unsat(), "{name}");
        }
    }

    #[test]
    fn parallel_portfolio_sharing_is_on_by_default_and_opts_out() {
        let f = generators::pigeonhole(5, 4);
        // Default registry: cooperative portfolio, counters flow into the
        // unified stats (CDCL must decide, so exports are guaranteed).
        let cooperative = BackendRegistry::default();
        let outcome = cooperative
            .solve("parallel-portfolio", &SolveRequest::new(&f).seed(1))
            .unwrap();
        assert!(outcome.verdict.is_unsat());
        assert!(outcome.stats.clauses_exported > 0);
        // Racing-only registry: same verdict, zero sharing traffic.
        let racing = BackendRegistry::with_sharing(SharingConfig::racing_only());
        let outcome = racing
            .solve("parallel-portfolio", &SolveRequest::new(&f).seed(1))
            .unwrap();
        assert!(outcome.verdict.is_unsat());
        assert_eq!(outcome.stats.clauses_exported, 0);
        assert_eq!(outcome.stats.clauses_imported, 0);
    }

    #[test]
    fn trace_requests_stay_inside_the_budget() {
        use crate::budget::Budget;
        let registry = BackendRegistry::default();
        let f = generators::example7_unsat();
        // Once the sample allowance is spent by the check itself, the trace
        // must be skipped rather than silently re-running the simulation.
        let request = SolveRequest::new(&f)
            .seed(3)
            .trace(true)
            .budget(Budget::unlimited().with_max_samples(150));
        let outcome = registry.solve("nbl-sampled", &request).unwrap();
        assert!(outcome.trace.is_none());
        assert!(outcome.exhausted.is_some());
        assert!(outcome.stats.samples <= 150);
        // With headroom (the engine's own 10⁶-sample cap plus room for the
        // trace) the trace runs, stays inside the allowance, and its samples
        // are charged to the unified stats on top of the check's.
        let request = SolveRequest::new(&f)
            .seed(3)
            .trace(true)
            .budget(Budget::unlimited().with_max_samples(2_500_000));
        let outcome = registry.solve("nbl-sampled", &request).unwrap();
        let trace = outcome.trace.expect("trace affordable");
        assert!(trace.final_samples().unwrap() <= 1_000_000);
        assert!(outcome.stats.samples <= 2_500_000);
        assert!(outcome.stats.samples > trace.final_samples().unwrap());
    }

    #[test]
    fn sampled_backend_produces_a_trace_on_request() {
        let registry = BackendRegistry::default();
        let f = generators::example6_sat();
        let request = SolveRequest::new(&f).seed(5).trace(true);
        let outcome = registry.solve("nbl-sampled", &request).unwrap();
        assert!(outcome.verdict.is_sat());
        let trace = outcome.trace.expect("trace requested");
        assert!(!trace.is_empty());
        // Without the flag no trace is produced.
        let quiet = registry
            .solve("nbl-sampled", &SolveRequest::new(&f).seed(5))
            .unwrap();
        assert!(quiet.trace.is_none());
    }
}
