//! Backend adapters: every solving engine in the workspace behind
//! [`SatBackend`].
//!
//! Three adapter families cover the whole landscape:
//!
//! * [`ClassicalBackend`] — any [`sat_solvers::Solver`] (DPLL, CDCL, brute
//!   force, 2-SAT, the local searches and the portfolio). The budget's
//!   wall-clock limit is translated into a [`SearchLimits`] deadline that the
//!   solvers poll inside their search loops.
//! * [`NblCheckBackend`] — the paper's Algorithm 1 + Algorithm 2 pipeline
//!   over any [`NblEngine`] (symbolic, algebraic, sampled). Check, sample and
//!   wall-clock limits are charged through a [`BudgetMeter`].
//! * [`HybridBackend`] — the §V CPU + NBL-coprocessor flow, budgeted the same
//!   way.

use crate::assignment::{prime_implicant_cube, AssignmentExtractor};
use crate::budget::BudgetMeter;
use crate::checker::SatChecker;
use crate::convergence::ConvergenceTrace;
use crate::engine::NblEngine;
use crate::error::{NblSatError, Result};
use crate::hybrid::HybridSolver;
use crate::solve::backend::SatBackend;
use crate::solve::outcome::{SolveOutcome, SolveVerdict, UnknownCause};
use crate::solve::request::SolveRequest;
use crate::transform::NblSatInstance;
use cnf::Assignment;
use sat_solvers::{SearchLimits, SolveResult, Solver};
use std::sync::Arc;
use std::time::Instant;

/// Seed-aware constructor for a trace run of the sampled engine (the only
/// engine that has a convergence trace to offer). The third argument is the
/// remaining noise-sample allowance the trace must stay within (`None` when
/// unlimited).
type TraceFn =
    Box<dyn Fn(u64, &NblSatInstance, Option<u64>) -> Result<ConvergenceTrace> + Send + Sync>;

/// Builds the classical-solver limits for one request: the meter's deadline
/// plus the request's whole cancellation-token chain.
fn search_limits(meter: &BudgetMeter, request: &SolveRequest<'_>) -> SearchLimits {
    let mut limits = match meter.deadline() {
        Some(deadline) => SearchLimits::with_deadline(deadline),
        None => SearchLimits::unlimited(),
    };
    for token in request.cancel_tokens() {
        limits = limits.with_cancel(Arc::clone(token));
    }
    limits
}

/// Attaches the request's cancellation-token chain to a budget meter, so the
/// metered (NBL / hybrid) engines observe cancellation in the same loops that
/// poll the deadline.
fn metered_cancel(mut meter: BudgetMeter, request: &SolveRequest<'_>) -> BudgetMeter {
    for token in request.cancel_tokens() {
        meter = meter.with_cancel(Arc::clone(token));
    }
    meter
}

/// Attaches the artifacts a satisfiable outcome owes the caller, given the
/// model the backend found.
fn attach_artifacts(outcome: &mut SolveOutcome, request: &SolveRequest<'_>, model: Assignment) {
    let artifacts = request.requested_artifacts();
    if artifacts.wants_cube() {
        outcome.cube = Some(prime_implicant_cube(request.formula(), &model));
    }
    if artifacts.wants_model() {
        outcome.model = Some(model);
    }
}

/// Adapter wrapping any classical [`Solver`] as a [`SatBackend`].
///
/// The factory is invoked once per solve with the request's seed, so
/// stochastic solvers are reseeded deterministically per request.
pub struct ClassicalBackend<S> {
    name: &'static str,
    complete: bool,
    var_limit: Option<usize>,
    factory: Box<dyn Fn(u64) -> S + Send + Sync>,
}

impl<S: Solver> ClassicalBackend<S> {
    /// Creates an adapter. `complete` declares whether the solver answers
    /// every in-scope instance definitively given unlimited resources.
    pub fn new(
        name: &'static str,
        complete: bool,
        factory: impl Fn(u64) -> S + Send + Sync + 'static,
    ) -> Self {
        ClassicalBackend {
            name,
            complete,
            var_limit: None,
            factory: Box::new(factory),
        }
    }

    /// Rejects formulas with more variables than `limit` up front (used for
    /// the brute-force oracle, whose enumeration is exponential by design).
    pub fn with_var_limit(mut self, limit: usize) -> Self {
        self.var_limit = Some(limit);
        self
    }
}

impl<S> std::fmt::Debug for ClassicalBackend<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassicalBackend")
            .field("name", &self.name)
            .field("complete", &self.complete)
            .field("var_limit", &self.var_limit)
            .finish_non_exhaustive()
    }
}

impl<S: Solver> SatBackend for ClassicalBackend<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        if !request.requested_assumptions().is_empty() {
            let augmented = request.formula_with_assumptions();
            return self.solve(&request.reborrow(&augmented));
        }
        if let Some(limit) = self.var_limit {
            if request.formula().num_vars() > limit {
                return Err(NblSatError::InstanceTooLarge {
                    limit: format!("{limit} variables ({} backend)", self.name),
                    actual: request.formula().num_vars(),
                });
            }
        }
        let started = Instant::now();
        let meter = BudgetMeter::start(request.requested_budget());
        let limits = search_limits(&meter, request);
        let mut solver = (self.factory)(request.requested_seed());
        let result = solver.solve_limited(request.formula(), &limits);
        let mut outcome = match result {
            SolveResult::Satisfiable(model) => {
                debug_assert!(request.formula().evaluate(&model));
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
                attach_artifacts(&mut outcome, request, model);
                outcome
            }
            SolveResult::Unsatisfiable => SolveOutcome::of_verdict(SolveVerdict::Unsatisfiable),
            SolveResult::Unknown => {
                // Cancellation outranks the deadline: a raised token is a
                // definitive caller intent, while an expired deadline may
                // only have been raced past on the way out.
                let cause = if request.cancelled() {
                    UnknownCause::Cancelled
                } else {
                    match meter.ensure_time() {
                        Err(NblSatError::BudgetExhausted { resource }) => {
                            UnknownCause::BudgetExhausted(resource)
                        }
                        _ => UnknownCause::Incomplete,
                    }
                };
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unknown(cause));
                outcome.exhausted = outcome.verdict.exhausted_resource();
                outcome
            }
        };
        outcome.stats.absorb_solver(&solver.stats());
        outcome.stats.wall_time = started.elapsed();
        Ok(outcome)
    }
}

/// Adapter running Algorithm 1 (and, on demand, Algorithm 2) over an
/// [`NblEngine`] as a [`SatBackend`].
pub struct NblCheckBackend<E> {
    name: &'static str,
    complete: bool,
    factory: Box<dyn Fn(u64) -> E + Send + Sync>,
    trace_fn: Option<TraceFn>,
}

impl<E: NblEngine> NblCheckBackend<E> {
    /// Creates an adapter over a seed-aware engine factory.
    pub fn new(
        name: &'static str,
        complete: bool,
        factory: impl Fn(u64) -> E + Send + Sync + 'static,
    ) -> Self {
        NblCheckBackend {
            name,
            complete,
            factory: Box::new(factory),
            trace_fn: None,
        }
    }

    /// Installs a convergence-trace producer, honoured when a request sets
    /// [`SolveRequest::trace`]. The trace re-runs the simulation with the
    /// request seed; it is a diagnostic artifact, but it still lives inside
    /// the budget: it is skipped entirely once any limit has fired, the
    /// producer receives the remaining sample allowance to clamp its run to,
    /// and the samples it draws are charged to the meter. (A wall-clock
    /// deadline expiring *mid-trace* is only caught at the next sample-cap
    /// boundary, so the overrun is bounded by one clamped trace run.)
    pub fn with_trace_fn(
        mut self,
        trace_fn: impl Fn(u64, &NblSatInstance, Option<u64>) -> Result<ConvergenceTrace>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.trace_fn = Some(Box::new(trace_fn));
        self
    }
}

impl<E> std::fmt::Debug for NblCheckBackend<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NblCheckBackend")
            .field("name", &self.name)
            .field("complete", &self.complete)
            .field("has_trace_fn", &self.trace_fn.is_some())
            .finish_non_exhaustive()
    }
}

/// Degenerate formulas the NBL transform cannot encode are answered directly:
/// an empty clause is trivially false; no clauses (or no variables and no
/// clauses) is trivially true. Returns `None` for encodable formulas.
fn degenerate_outcome(request: &SolveRequest<'_>) -> Option<SolveOutcome> {
    let formula = request.formula();
    if formula.has_empty_clause() {
        return Some(SolveOutcome::of_verdict(SolveVerdict::Unsatisfiable));
    }
    if formula.num_clauses() == 0 {
        let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
        // The prime-implicant shrink drops every variable against a clause-free
        // formula, so the cube artifact comes out as ⊤ without special-casing.
        attach_artifacts(
            &mut outcome,
            request,
            Assignment::all_false(formula.num_vars()),
        );
        return Some(outcome);
    }
    None
}

impl<E: NblEngine> SatBackend for NblCheckBackend<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        if !request.requested_assumptions().is_empty() {
            let augmented = request.formula_with_assumptions();
            return self.solve(&request.reborrow(&augmented));
        }
        let started = Instant::now();
        if let Some(mut outcome) = degenerate_outcome(request) {
            outcome.stats.wall_time = started.elapsed();
            return Ok(outcome);
        }
        let seed = request.requested_seed();
        let mut meter = metered_cancel(BudgetMeter::start(request.requested_budget()), request);
        let mut checker = SatChecker::new((self.factory)(seed));
        let instance = NblSatInstance::new(request.formula())?;
        let bindings = instance.empty_bindings();

        // Algorithm 1: one check operation decides SAT/UNSAT.
        let mut outcome = match checker.estimate_budgeted(&instance, &bindings, &mut meter) {
            Ok(estimate) => {
                let verdict = if checker.decide(&estimate).is_sat() {
                    SolveVerdict::Satisfiable
                } else {
                    SolveVerdict::Unsatisfiable
                };
                let mut outcome = SolveOutcome::of_verdict(verdict);
                outcome.stats.last_estimate = Some(estimate);
                outcome
            }
            Err(NblSatError::BudgetExhausted { resource }) => {
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unknown(
                    UnknownCause::BudgetExhausted(resource),
                ));
                outcome.exhausted = Some(resource);
                outcome
            }
            Err(NblSatError::Cancelled) => {
                SolveOutcome::of_verdict(SolveVerdict::Unknown(UnknownCause::Cancelled))
            }
            Err(e) => return Err(e),
        };

        // Algorithm 2: model (and cube) extraction, budget permitting.
        if outcome.verdict.is_sat() && request.requested_artifacts().wants_model() {
            let mut extractor = AssignmentExtractor::from_checker(checker);
            match extractor.extract_budgeted(&instance, &mut meter) {
                Ok(extraction) => {
                    let model = extraction
                        .assignment
                        .expect("extract always returns a full minterm");
                    attach_artifacts(&mut outcome, request, model);
                }
                Err(NblSatError::BudgetExhausted { resource }) => {
                    // The verdict stands; only the artifact is missing.
                    outcome.exhausted = Some(resource);
                }
                Err(NblSatError::Cancelled) => {
                    // Cancelled mid-extraction: the verdict stands, the
                    // artifact is missing.
                }
                Err(NblSatError::Inconclusive { .. } | NblSatError::InstanceUnsatisfiable) => {
                    // A statistical engine contradicted its own Algorithm-1
                    // verdict during extraction. That is incompleteness, not
                    // a structural failure: downgrade to Unknown per the
                    // SatBackend contract (`Err` is reserved for structural
                    // problems).
                    outcome.verdict = SolveVerdict::Unknown(UnknownCause::Incomplete);
                }
                Err(e) => return Err(e),
            }
            outcome.stats.coprocessor_checks = extractor.checker().checks_performed();
        } else {
            outcome.stats.coprocessor_checks = checker.checks_performed();
        }

        if request.wants_trace() {
            if let Some(trace_fn) = &self.trace_fn {
                if outcome.exhausted.is_some() || meter.cancelled() {
                    // A limit already fired (or the job was cancelled);
                    // starting more uncharged simulation work would defeat
                    // the budget contract.
                } else if let Err(NblSatError::BudgetExhausted { resource }) =
                    meter.ensure_time().and_then(|()| meter.ensure_samples())
                {
                    outcome.exhausted = Some(resource);
                } else {
                    let trace = trace_fn(seed, &instance, meter.remaining_samples())?;
                    if let Some(samples) = trace.final_samples() {
                        meter.charge_samples(samples);
                    }
                    outcome.trace = Some(trace);
                }
            }
        }
        outcome.stats.samples = meter.samples_used();
        outcome.stats.wall_time = started.elapsed();
        Ok(outcome)
    }
}

/// Adapter running the §V hybrid CPU + NBL-coprocessor flow as a
/// [`SatBackend`].
pub struct HybridBackend<E> {
    name: &'static str,
    complete: bool,
    factory: Box<dyn Fn(u64) -> HybridSolver<E> + Send + Sync>,
}

impl<E: NblEngine> HybridBackend<E> {
    /// Creates an adapter over a seed-aware hybrid-solver factory.
    pub fn new(
        name: &'static str,
        complete: bool,
        factory: impl Fn(u64) -> HybridSolver<E> + Send + Sync + 'static,
    ) -> Self {
        HybridBackend {
            name,
            complete,
            factory: Box::new(factory),
        }
    }
}

impl<E> std::fmt::Debug for HybridBackend<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridBackend")
            .field("name", &self.name)
            .field("complete", &self.complete)
            .finish_non_exhaustive()
    }
}

impl<E: NblEngine> SatBackend for HybridBackend<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        if !request.requested_assumptions().is_empty() {
            let augmented = request.formula_with_assumptions();
            return self.solve(&request.reborrow(&augmented));
        }
        let started = Instant::now();
        let mut meter = metered_cancel(BudgetMeter::start(request.requested_budget()), request);
        let mut solver = (self.factory)(request.requested_seed());
        let mut outcome = match solver.solve_budgeted(request.formula(), &mut meter) {
            Ok(Some(model)) => {
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
                attach_artifacts(&mut outcome, request, model);
                outcome
            }
            Ok(None) => SolveOutcome::of_verdict(SolveVerdict::Unsatisfiable),
            Err(NblSatError::BudgetExhausted { resource }) => {
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unknown(
                    UnknownCause::BudgetExhausted(resource),
                ));
                outcome.exhausted = Some(resource);
                outcome
            }
            Err(NblSatError::Cancelled) => {
                SolveOutcome::of_verdict(SolveVerdict::Unknown(UnknownCause::Cancelled))
            }
            Err(e) => return Err(e),
        };
        outcome.stats.absorb_hybrid(&solver.stats());
        outcome.stats.samples = meter.samples_used();
        outcome.stats.wall_time = started.elapsed();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::solve::request::Artifacts;
    use crate::symbolic::SymbolicEngine;
    use cnf::generators;
    use sat_solvers::CdclSolver;
    use std::time::Duration;

    fn cdcl_backend() -> ClassicalBackend<CdclSolver> {
        ClassicalBackend::new("cdcl", true, |_| CdclSolver::new())
    }

    fn symbolic_backend() -> NblCheckBackend<SymbolicEngine> {
        NblCheckBackend::new("nbl-symbolic", true, |_| SymbolicEngine::new())
    }

    #[test]
    fn classical_backend_round_trip_with_artifacts() {
        let f = generators::section4_sat_instance();
        let request = SolveRequest::new(&f).artifacts(Artifacts::PrimeCube);
        let outcome = cdcl_backend().solve(&request).unwrap();
        assert!(outcome.verdict.is_sat());
        assert!(f.evaluate(outcome.model.as_ref().unwrap()));
        assert!(outcome.cube.as_ref().unwrap().is_implicant_of(&f));
        assert_eq!(outcome.exhausted, None);
    }

    #[test]
    fn classical_backend_reports_budget_exhaustion_not_incompleteness() {
        let f = generators::pigeonhole(6, 5);
        let request =
            SolveRequest::new(&f).budget(Budget::unlimited().with_wall_time(Duration::ZERO));
        let outcome = cdcl_backend().solve(&request).unwrap();
        assert_eq!(
            outcome.verdict.exhausted_resource(),
            Some(crate::budget::ExhaustedResource::WallClock)
        );
        assert!(outcome.exhausted.is_some());
    }

    #[test]
    fn nbl_backend_decides_and_extracts() {
        let f = generators::example6_sat();
        let request = SolveRequest::new(&f).artifacts(Artifacts::Model);
        let outcome = symbolic_backend().solve(&request).unwrap();
        assert!(outcome.verdict.is_sat());
        assert!(f.evaluate(outcome.model.as_ref().unwrap()));
        // 1 check for Algorithm 1 + n = 2 for Algorithm 2.
        assert_eq!(outcome.stats.coprocessor_checks, 3);
        assert!(outcome.stats.last_estimate.unwrap().exact);
    }

    #[test]
    fn nbl_backend_keeps_sat_verdict_when_extraction_budget_runs_out() {
        let f = generators::example6_sat();
        let request = SolveRequest::new(&f)
            .artifacts(Artifacts::Model)
            .budget(Budget::unlimited().with_max_checks(2));
        let outcome = symbolic_backend().solve(&request).unwrap();
        assert!(outcome.verdict.is_sat());
        assert!(outcome.model.is_none());
        assert_eq!(
            outcome.exhausted,
            Some(crate::budget::ExhaustedResource::CoprocessorChecks)
        );
    }

    #[test]
    fn nbl_backend_handles_degenerate_formulas() {
        let mut with_empty = cnf::CnfFormula::new(2);
        with_empty.push_clause(cnf::Clause::new());
        let request = SolveRequest::new(&with_empty);
        assert!(symbolic_backend()
            .solve(&request)
            .unwrap()
            .verdict
            .is_unsat());

        let trivial = cnf::CnfFormula::new(3);
        let request = SolveRequest::new(&trivial).artifacts(Artifacts::PrimeCube);
        let outcome = symbolic_backend().solve(&request).unwrap();
        assert!(outcome.verdict.is_sat());
        assert_eq!(outcome.model.as_ref().unwrap().num_vars(), 3);
        assert!(outcome.cube.as_ref().unwrap().is_empty());
    }

    #[test]
    fn hybrid_backend_round_trip_and_budget() {
        let f = generators::section4_sat_instance();
        let mut backend = HybridBackend::new("hybrid-symbolic", true, |_| {
            HybridSolver::with_ideal_coprocessor()
        });
        let request = SolveRequest::new(&f).artifacts(Artifacts::Model);
        let outcome = backend.solve(&request).unwrap();
        assert!(outcome.verdict.is_sat());
        assert!(f.evaluate(outcome.model.as_ref().unwrap()));
        assert!(outcome.stats.coprocessor_checks > 0);

        let hard = generators::pigeonhole(4, 3);
        let request = SolveRequest::new(&hard).budget(Budget::unlimited().with_max_checks(3));
        let outcome = backend.solve(&request).unwrap();
        assert_eq!(
            outcome.verdict.exhausted_resource(),
            Some(crate::budget::ExhaustedResource::CoprocessorChecks)
        );
    }

    #[test]
    fn symbolic_backends_stop_where_the_per_check_path_stops() {
        use crate::engine::{budget_corpus, PerCheck};
        fn run(
            backend: &mut dyn SatBackend,
            formula: &cnf::CnfFormula,
            checks: Option<u64>,
        ) -> SolveOutcome {
            let budget = Budget {
                max_checks: checks,
                ..Budget::unlimited()
            };
            let request = SolveRequest::new(formula)
                .artifacts(Artifacts::Model)
                .budget(budget);
            backend.solve(&request).unwrap()
        }
        let mut batched: [Box<dyn SatBackend>; 2] = [
            Box::new(symbolic_backend()),
            Box::new(HybridBackend::new("hybrid-symbolic", true, |_| {
                HybridSolver::with_ideal_coprocessor()
            })),
        ];
        let mut per_check: [Box<dyn SatBackend>; 2] = [
            Box::new(NblCheckBackend::new("nbl-symbolic", true, |_| {
                PerCheck(SymbolicEngine::new())
            })),
            Box::new(HybridBackend::new("hybrid-symbolic", true, |_| {
                HybridSolver::new(PerCheck(SymbolicEngine::new()))
            })),
        ];
        for (label, formula) in budget_corpus() {
            for (batched, per_check) in batched.iter_mut().zip(&mut per_check) {
                let label = format!("{label} on {}", batched.name());
                let unlimited = run(batched.as_mut(), &formula, None);
                assert!(unlimited.verdict.is_definitive(), "{label}");
                for k in 0..=unlimited.stats.coprocessor_checks {
                    let got = run(batched.as_mut(), &formula, Some(k));
                    let expected = run(per_check.as_mut(), &formula, Some(k));
                    assert_eq!(
                        (
                            got.verdict,
                            got.exhausted,
                            got.stats.coprocessor_checks,
                            got.model
                        ),
                        (
                            expected.verdict,
                            expected.exhausted,
                            expected.stats.coprocessor_checks,
                            expected.model
                        ),
                        "{label} with {k} checks"
                    );
                }
            }
        }
    }
}
