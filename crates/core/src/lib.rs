//! NBL-SAT: Boolean satisfiability using noise-based logic.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Boolean Satisfiability using Noise Based Logic"* (Lin, Mandal, Khatri,
//! DAC 2012): a SAT decision procedure that applies the additive superposition
//! of **all `2^n` candidate assignments simultaneously** to a CNF instance
//! encoded in noise-based logic, and reads the SAT/UNSAT answer off the DC
//! component of a single correlation.
//!
//! # The construction
//!
//! For an instance with `n` variables and `m` clauses the transform
//! ([`NblSatInstance`]) allocates `2·m·n` independent basis noise sources —
//! one per (clause, variable, polarity) triple — and forms
//!
//! * `τ_N`, the *valid-minterm hyperspace* (Eq. 2): the superposition of all
//!   `2^n` logically consistent noise minterms, optionally restricted by
//!   variable bindings, and
//! * `Σ_N`, the *NBL-encoded instance*: per clause, the superposition of the
//!   cube subspaces of its literals; clauses are multiplied together.
//!
//! The product `S_N = τ_N · Σ_N` has strictly positive mean iff the instance
//! is satisfiable (Theorem 3.1); [`SatChecker`] implements that single-shot
//! decision (Algorithm 1) and [`AssignmentExtractor`] recovers a model or
//! prime-implicant cube with at most `n` additional checks (Algorithm 2).
//!
//! # Engines
//!
//! Two interchangeable engines evaluate ⟨S_N⟩ behind the [`NblEngine`] trait:
//!
//! * [`SymbolicEngine`] — the infinite-sample ideal-hardware limit, computed
//!   exactly from the orthogonality rules of the noise algebra by a
//!   branch-and-prune weighted model count over the free variables,
//! * [`SampledEngine`] — a faithful Monte-Carlo simulation of the analog
//!   datapath (the paper's MATLAB experiment), supporting every carrier family
//!   in [`nbl_noise::CarrierKind`], the §IV convergence stopping rule, and
//!   convergence traces for reproducing Figure 1.
//!
//! A third, [`AlgebraicEngine`], fully expands both superpositions with the
//! `nbl-logic` term algebra; it is exponential in `n·m` and exists to validate
//! Theorem 3.1 term-by-term on small instances.
//!
//! The [`SnrModel`] reproduces the §III.F scaling analysis, and
//! [`HybridSolver`] the §V CPU + NBL-coprocessor flow where the NBL mean
//! guides branching of a classical complete solver.
//!
//! # The unified solving API
//!
//! The recommended front door is the request/outcome API in [`solve`]: a
//! [`SolveRequest`] describes the job (formula, desired artifacts — verdict,
//! model or prime-implicant cube —, deterministic seed, resource [`Budget`])
//! and any [`SatBackend`] answers with a [`SolveOutcome`] (three-valued
//! [`SolveVerdict`] including `Unknown(BudgetExhausted)`, the artifacts,
//! merged [`SolveStats`] and an optional convergence trace). The
//! [`BackendRegistry`] names every engine — the classical baselines of
//! `sat-solvers`, the three NBL engines and the hybrid flows — so callers
//! dispatch by configuration string, the way the paper treats the NBL engine
//! as an interchangeable coprocessor.
//!
//! ```
//! use cnf::cnf_formula;
//! use nbl_sat_core::{Artifacts, BackendRegistry, Budget, SolveRequest};
//! use std::time::Duration;
//!
//! // Example 6 of the paper: (x1 + x2)(¬x1 + ¬x2) — satisfiable.
//! let formula = cnf_formula![[1, 2], [-1, -2]];
//! let request = SolveRequest::new(&formula)
//!     .artifacts(Artifacts::Model)
//!     .seed(2012)
//!     .budget(Budget::unlimited().with_wall_time(Duration::from_secs(5)));
//! let outcome = BackendRegistry::default().solve("nbl-symbolic", &request)?;
//! assert!(outcome.verdict.is_sat());
//! assert!(formula.evaluate(outcome.model.as_ref().unwrap()));
//! # Ok::<(), nbl_sat_core::NblSatError>(())
//! ```
//!
//! Budgets ([`Budget`] / [`BudgetMeter`]) meter wall-clock time, noise
//! samples and coprocessor check operations, and are threaded *into* the
//! search and convergence loops, so a tight budget interrupts the work
//! instead of being checked after the fact.
//!
//! # The low-level pipeline
//!
//! The building blocks behind the backends remain public:
//!
//! ```
//! use cnf::cnf_formula;
//! use nbl_sat_core::{NblSatInstance, SatChecker, SymbolicEngine, Verdict};
//!
//! let formula = cnf_formula![[1, 2], [-1, -2]];
//! let instance = NblSatInstance::new(&formula)?;
//! let mut checker = SatChecker::new(SymbolicEngine::new());
//! assert_eq!(checker.check(&instance)?, Verdict::Satisfiable);
//! # Ok::<(), nbl_sat_core::NblSatError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod algebraic;
pub mod assignment;
pub mod budget;
pub mod checker;
pub mod config;
pub mod convergence;
pub mod counting;
pub mod engine;
pub mod error;
pub mod hybrid;
pub mod sampled;
pub mod snr;
pub mod solve;
pub mod symbolic;
pub mod transform;

pub use algebraic::AlgebraicEngine;
pub use assignment::{prime_implicant_cube, AssignmentExtractor, ExtractionOutcome};
pub use budget::{Budget, BudgetMeter, ExhaustedResource, SharedBudget};
pub use checker::{SatChecker, Verdict};
pub use config::EngineConfig;
pub use convergence::{ConvergenceTrace, TracePoint};
pub use counting::{CountResult, ModelCounter};
pub use engine::{MeanEstimate, NblEngine};
pub use error::{NblSatError, Result};
pub use hybrid::{HybridSolver, HybridStats};
pub use sampled::SampledEngine;
pub use snr::SnrModel;
pub use solve::{
    Artifacts, BackendLatency, BackendRegistry, CacheStats, CachedAnswer, CdclSessionBackend,
    ClassicalBackend, CounterRow, HybridBackend, IncrementalBackend, JobHandle, JobPriority,
    JobStatus, MetricsRegistry, MetricsSnapshot, NblCheckBackend, PipelineConfig, PipelineDecision,
    PreparedRequest, SatBackend, ServiceBuilder, SessionCall, SessionHandle, SessionSolve,
    SolveBatch, SolveOutcome, SolvePipeline, SolveRequest, SolveService, SolveSession, SolveStats,
    SolveVerdict, UnknownCause, VerdictCache, DEFAULT_CACHE_CAPACITY, LATENCY_BUCKETS,
};
pub use symbolic::SymbolicEngine;
pub use transform::{NblSatInstance, SourceIndex};
