//! Facade crate for the NBL-SAT reproduction workspace.
//!
//! `nbl-sat-repro` re-exports the public APIs of every crate in the workspace
//! so that applications (and the examples in `examples/`) can depend on a
//! single crate:
//!
//! * [`cnf`] — CNF formulas, DIMACS I/O, workload generators
//! * [`circuit`] (crate `nbl-circuit`) — gate-level netlists, Tseitin
//!   encoding, equivalence-checking miters, stuck-at ATPG, `.bench` I/O
//! * [`noise`] (crate `nbl-noise`) — carrier banks, statistics, correlators
//! * [`analog`] (crate `nbl-analog`) — analog block and netlist simulation
//! * [`logic`] (crate `nbl-logic`) — the noise-based logic algebra
//! * [`nbl_sat`] (crate `nbl-sat-core`) — the NBL-SAT transform, engines,
//!   checker, assignment extraction, SNR model, hybrid solver **and the
//!   unified solving API**
//! * [`solvers`] (crate `sat-solvers`) — DPLL / CDCL / WalkSAT / brute force
//! * [`net`] (crate `nbl-net`) — the wire protocol, the `nbl-satd` TCP
//!   server and the blocking client for out-of-process solving
//! * [`shard`] (crate `nbl-shard`) — the cube splitter and the
//!   cube-and-conquer coordinator distributing a solve over a fleet of
//!   `nbl-satd` servers
//!
//! # The unified solving API
//!
//! The recommended entry point is the request/outcome API of `nbl-sat-core`:
//! describe the job with a [`SolveRequest`](prelude::SolveRequest) (formula,
//! desired artifacts, deterministic seed, resource
//! [`Budget`](prelude::Budget)), pick a backend by name from the
//! [`BackendRegistry`](prelude::BackendRegistry) — classical solvers, the
//! NBL check/extract pipeline and the §V hybrid flow all sit behind the same
//! [`SatBackend`](prelude::SatBackend) trait — and inspect the
//! [`SolveOutcome`](prelude::SolveOutcome) (three-valued verdict including
//! `Unknown(BudgetExhausted)`, optional model / prime-implicant cube, merged
//! statistics, engine trace).
//!
//! ```
//! use nbl_sat_repro::prelude::*;
//!
//! let formula = cnf::cnf_formula![[1, 2], [-1, -2]];
//! let registry = BackendRegistry::default();
//! let outcome = registry.solve(
//!     "nbl-symbolic",
//!     &SolveRequest::new(&formula).artifacts(Artifacts::Model),
//! )?;
//! assert!(outcome.verdict.is_sat());
//! assert!(formula.evaluate(outcome.model.as_ref().unwrap()));
//! # Ok::<(), NblSatError>(())
//! ```
//!
//! For many requests at once, [`SolveBatch`](prelude::SolveBatch) fans a
//! one-shot batch out over a bounded worker pool against a shared budget, and
//! the persistent [`SolveService`](prelude::SolveService) job queue serves a
//! *stream* of requests: non-blocking submission, priorities, per-job
//! cancellation, refillable budgets, and drain-vs-abort shutdown.
//!
//! Every entry point — registry, service, wire server, fleet coordinator —
//! routes through the shared [`SolvePipeline`](prelude::SolvePipeline):
//! canonicalizing preprocessing (unit propagation, pure literals), an
//! optional verdict/model cache keyed on canonical fingerprints so
//! isomorphic resubmissions answer without dispatch, and a
//! [`MetricsRegistry`](prelude::MetricsRegistry) whose
//! [`MetricsSnapshot`](prelude::MetricsSnapshot) (queue depth, cache hit
//! rates, per-backend latency) is also served as the `METRICS` wire frame
//! by `nbl-satd`.
//!
//! The lower-level building blocks ([`SatChecker`](prelude::SatChecker),
//! [`AssignmentExtractor`](prelude::AssignmentExtractor),
//! [`HybridSolver`](prelude::HybridSolver), the [`Solver`](prelude::Solver)
//! trait) remain available for callers that need direct control.

#![deny(missing_docs)]

pub use cnf;
pub use nbl_analog as analog;
pub use nbl_circuit as circuit;
pub use nbl_logic as logic;
pub use nbl_net as net;
pub use nbl_noise as noise;
pub use nbl_sat_core as nbl_sat;
pub use nbl_shard as shard;
pub use sat_solvers as solvers;

/// Commonly used items, importable with a single `use nbl_sat_repro::prelude::*`.
pub mod prelude {
    pub use cnf::{Assignment, Clause, CnfFormula, Cube, Literal, PartialAssignment, Variable};
    pub use nbl_circuit::{
        Circuit, CircuitBuilder, GateKind, Simulator, StuckAtFault, TseitinEncoder,
    };
    pub use nbl_net::{
        ClientConfig, NblSatClient, NblSatServer, NetError, RemoteJob, RemoteOutcome,
        RemoteSession, ServerConfig, SolveFrame, WireBacklog, WireMetrics, WireVerdict,
    };
    pub use nbl_noise::{CarrierKind, RunningStats};
    pub use nbl_sat_core::{
        AlgebraicEngine, Artifacts, AssignmentExtractor, BackendRegistry, Budget, BudgetMeter,
        EngineConfig, ExhaustedResource, HybridSolver, IncrementalBackend, JobHandle, JobPriority,
        JobStatus, MeanEstimate, MetricsRegistry, MetricsSnapshot, NblEngine, NblSatError,
        NblSatInstance, PipelineConfig, SampledEngine, SatBackend, SatChecker, ServiceBuilder,
        SessionCall, SessionHandle, SharedBudget, SnrModel, SolveBatch, SolveOutcome,
        SolvePipeline, SolveRequest, SolveService, SolveSession, SolveStats, SolveVerdict,
        SymbolicEngine, UnknownCause, Verdict, VerdictCache,
    };
    pub use nbl_shard::{
        CubeSplit, FleetOutcome, FleetStats, ShardConfig, ShardCoordinator, ShardError, SplitConfig,
    };
    pub use sat_solvers::{
        BruteForceSolver, CdclSolver, DpllSolver, Gsat, IncrementalResult, MusExtractor,
        MusOutcome, ParallelPortfolio, Portfolio, Schoening, SearchLimits, ShareHandle,
        SharedClausePool, SharingConfig, SolveResult, Solver, SolverStats, TwoSatSolver, WalkSat,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let formula = cnf::generators::section4_sat_instance();
        let instance = NblSatInstance::new(&formula).unwrap();
        let mut checker = SatChecker::new(SymbolicEngine::new());
        assert_eq!(checker.check(&instance).unwrap(), Verdict::Satisfiable);
        let mut cdcl = CdclSolver::new();
        assert!(cdcl.solve(&formula).is_sat());
    }

    #[test]
    fn unified_api_is_reachable_through_the_facade() {
        let formula = cnf::generators::section4_unsat_instance();
        let registry = BackendRegistry::default();
        let request = SolveRequest::new(&formula).budget(Budget::unlimited().with_max_checks(8));
        let outcome = registry.solve("nbl-symbolic", &request).unwrap();
        assert_eq!(outcome.verdict, SolveVerdict::Unsatisfiable);
        assert_eq!(outcome.stats.coprocessor_checks, 1);
    }
}
