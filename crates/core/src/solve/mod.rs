//! The unified solving API: one request, one outcome, many backends.
//!
//! The paper's central claim is that a single NBL correlation answers
//! SAT/UNSAT for all `2^n` candidate assignments at once, and its §V
//! deployment story treats that check as a *coprocessor operation* invoked
//! from a conventional solver. This module is the workspace's expression of
//! that separation: callers describe *what* they want solved — a
//! [`SolveRequest`] carrying the formula, the desired artifacts (verdict,
//! model, prime-implicant cube), a deterministic seed and a resource
//! [`Budget`](crate::Budget) — and a [`SatBackend`] describes *how*, whether
//! that is a classical CDCL search, the NBL check/extract pipeline
//! (Algorithms 1 and 2) or the hybrid CPU + coprocessor flow.
//!
//! Every backend answers with a [`SolveOutcome`]: a three-valued
//! [`SolveVerdict`] (`Satisfiable`, `Unsatisfiable`, or `Unknown` with its
//! cause — budget exhaustion or genuine incompleteness), the requested
//! artifacts, merged [`SolveStats`] telemetry and, for the sampled engine,
//! the convergence trace. Budgets are enforced *inside* the search loops:
//! the classical solvers poll the wall-clock deadline per node/flip, the
//! sampled engine clamps its convergence loop to the sample allowance, and
//! the NBL pipeline charges each check operation — so a tight budget always
//! yields `Unknown(BudgetExhausted)` instead of an unbounded run.
//!
//! The [`BackendRegistry`] names every engine in the workspace
//! (`"cdcl"`, `"dpll"`, `"walksat"`, `"gsat"`, `"schoening"`, `"two-sat"`,
//! `"brute-force"`, `"portfolio"`, `"parallel-portfolio"`, `"nbl-symbolic"`,
//! `"nbl-sampled"`, `"nbl-algebraic"`, `"hybrid-symbolic"`,
//! `"hybrid-sampled"`) so front ends can dispatch by configuration instead
//! of by type. For many requests sharing one resource envelope, the batch
//! entry point [`SolveBatch`] fans jobs out across a bounded worker pool
//! against a [`SharedBudget`](crate::SharedBudget); for a *stream* of
//! requests, the persistent [`SolveService`] job queue accepts submissions
//! without blocking and answers through cancellable, prioritised
//! [`JobHandle`]s.
//!
//! ```
//! use cnf::cnf_formula;
//! use nbl_sat_core::{Artifacts, BackendRegistry, Budget, SolveRequest};
//!
//! let formula = cnf_formula![[1, 2], [-1, -2]];
//! let registry = BackendRegistry::default();
//! let request = SolveRequest::new(&formula).artifacts(Artifacts::PrimeCube);
//! for name in ["cdcl", "nbl-symbolic", "hybrid-symbolic"] {
//!     let outcome = registry.solve(name, &request)?;
//!     assert!(outcome.verdict.is_sat());
//!     assert!(outcome.cube.unwrap().is_implicant_of(&formula));
//! }
//! # Ok::<(), nbl_sat_core::NblSatError>(())
//! ```

pub mod adapters;
pub mod backend;
pub mod batch;
pub mod cache;
pub mod metrics;
pub mod outcome;
pub mod pipeline;
pub mod registry;
pub mod request;
pub mod service;
pub mod session;

pub use adapters::{ClassicalBackend, HybridBackend, NblCheckBackend};
pub use backend::SatBackend;
pub use batch::SolveBatch;
pub use cache::{CacheStats, CachedAnswer, VerdictCache, DEFAULT_CACHE_CAPACITY};
pub use metrics::{BackendLatency, MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS};
pub use outcome::{CounterRow, SolveOutcome, SolveStats, SolveVerdict, UnknownCause};
pub use pipeline::{PipelineConfig, PipelineDecision, PreparedRequest, SolvePipeline};
pub use registry::BackendRegistry;
pub use request::{Artifacts, SolveRequest};
pub use service::{
    JobHandle, JobPriority, JobStatus, ServiceBuilder, SessionHandle, SessionSolve, SolveService,
};
pub use session::{CdclSessionBackend, IncrementalBackend, SessionCall, SolveSession};
