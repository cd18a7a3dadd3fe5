//! The shared pre-dispatch pipeline every solve entry point flows through.
//!
//! Production SAT traffic is dominated by re-solves of small variations on
//! formulas the deployment has already answered, and the NBL engines of the
//! paper scale exponentially in *live* variables — so the two highest-value
//! moves happen before a backend ever runs: shrink the instance, and check
//! whether an isomorphic instance was already solved. [`SolvePipeline`]
//! packages both, plus the observability to see them working:
//!
//! 1. **Preprocess** — [`cnf::preprocess`]: normalization (tautology and
//!    duplicate removal, sorted literals), unit propagation and pure-literal
//!    elimination to fixpoint, then canonicalization (dense variable renaming
//!    in a structure-derived order). The [`ReductionTrace`] makes the
//!    reduction invertible: models found on the reduced formula lift back to
//!    the caller's variable space.
//! 2. **Cache** — an optional canonical-key [`VerdictCache`]. Because the key
//!    hashes the *canonicalized* formula, a renamed/permuted isomorphic
//!    resubmission hits and is answered with zero backend dispatch.
//! 3. **Metrics** — a [`MetricsRegistry`] counting dispatches, per-backend
//!    latency, cache traffic, preprocessing reductions and budget spend.
//!
//! The pipeline is two-phase so queueing front ends can keep their own
//! dispatch machinery: [`SolvePipeline::prepare`] either resolves the request
//! outright (preprocessing decided it, or the cache had it) or hands back a
//! [`PreparedRequest`] to dispatch; [`SolvePipeline::complete`] then folds
//! the backend's outcome back into the caller's variable space and feeds the
//! cache and metrics. [`SolvePipeline::solve`] wraps both phases around a
//! registry dispatch for one-shot callers.
//!
//! Requests that need artifacts the reduction cannot lift — convergence
//! traces, prime-implicant cubes (don't-care structure is not preserved by
//! variable elimination) or assumption literals (they name caller-space
//! variables) — bypass preprocessing and the cache entirely; only their
//! dispatch metrics are recorded.

use crate::error::Result;
use crate::solve::cache::{CacheStats, VerdictCache, DEFAULT_CACHE_CAPACITY};
use crate::solve::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::solve::outcome::{SolveOutcome, SolveVerdict};
use crate::solve::registry::BackendRegistry;
use crate::solve::request::SolveRequest;
use cnf::{fingerprint, preprocess, CnfFormula, PreprocessOutcome, ReductionTrace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`SolvePipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Run the preprocessing stage (normalize, propagate, canonicalize).
    /// When off the pipeline is a pure dispatch-metrics shim.
    pub preprocess: bool,
    /// Capacity of the verdict/model cache; `None` disables caching. The
    /// cache requires preprocessing (keys hash the canonical formula), so it
    /// is inert while `preprocess` is off.
    pub cache_capacity: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            preprocess: true,
            cache_capacity: None,
        }
    }
}

impl PipelineConfig {
    /// Preprocessing on, cache off.
    pub fn new() -> Self {
        PipelineConfig::default()
    }

    /// Enables the verdict/model cache with the given capacity.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Enables the verdict/model cache at [`DEFAULT_CACHE_CAPACITY`].
    pub fn with_default_cache(self) -> Self {
        self.with_cache(DEFAULT_CACHE_CAPACITY)
    }

    /// Turns the preprocessing stage on or off.
    pub fn preprocessing(mut self, enabled: bool) -> Self {
        self.preprocess = enabled;
        self
    }
}

/// What [`SolvePipeline::prepare`] decided about a request.
#[derive(Debug)]
pub enum PipelineDecision {
    /// The request is answered without any backend dispatch: preprocessing
    /// decided it outright, or the cache held an isomorphic instance. The
    /// outcome is already in the caller's variable space.
    Resolved(SolveOutcome),
    /// A backend must run. Dispatch against [`PreparedRequest::formula`] and
    /// hand the result to [`SolvePipeline::complete`].
    Dispatch(PreparedRequest),
}

/// A request that passed through [`SolvePipeline::prepare`] and needs a
/// backend dispatch. Holds the (possibly reduced and canonicalized) formula
/// to solve and everything `complete` needs to map the outcome back.
#[derive(Debug)]
pub struct PreparedRequest {
    formula: CnfFormula,
    trace: Option<ReductionTrace>,
    key: Option<u64>,
    vars_removed: u64,
}

impl PreparedRequest {
    /// The formula the backend must solve. In caller space for bypassed
    /// requests, in canonical reduced space otherwise.
    pub fn formula(&self) -> &CnfFormula {
        &self.formula
    }

    /// Whether preprocessing reduced or renamed the formula (in which case
    /// the backend's model is lifted by [`SolvePipeline::complete`]).
    pub fn is_reduced(&self) -> bool {
        self.trace.is_some()
    }

    /// Builds the inner request to dispatch: the prepared formula with the
    /// original request's artifacts, seed, budget and cancellation tokens.
    pub fn request<'a>(&'a self, original: &SolveRequest<'_>) -> SolveRequest<'a> {
        original.reborrow(&self.formula)
    }
}

/// The shared solve pipeline: preprocessing, canonical-key caching and
/// metrics in front of backend dispatch. Cheap to clone; clones share the
/// cache and metrics.
#[derive(Debug, Clone)]
pub struct SolvePipeline {
    config: PipelineConfig,
    cache: Option<Arc<VerdictCache>>,
    metrics: MetricsRegistry,
}

impl Default for SolvePipeline {
    fn default() -> Self {
        SolvePipeline::new(PipelineConfig::default())
    }
}

impl SolvePipeline {
    /// A pipeline with the given configuration and fresh cache/metrics.
    pub fn new(config: PipelineConfig) -> Self {
        SolvePipeline {
            config,
            cache: config
                .cache_capacity
                .map(|capacity| Arc::new(VerdictCache::new(capacity))),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|cache| cache.stats())
    }

    /// A point-in-time metrics snapshot with the cache gauges filled in.
    /// Queue gauges stay zero; front ends that own a queue overlay them.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        if let Some(stats) = self.cache_stats() {
            snapshot.cache_hits = stats.hits;
            snapshot.cache_misses = stats.misses;
            snapshot.cache_evictions = stats.evictions;
            snapshot.cache_insertions = stats.insertions;
            snapshot.cache_entries = stats.entries;
        }
        snapshot
    }

    /// Runs the pre-dispatch stages on `request`.
    ///
    /// Returns [`PipelineDecision::Resolved`] when no backend needs to run
    /// (preprocessing proved the verdict, or an isomorphic instance was
    /// cached — the outcome's `stats.cache_hits` is 1 in the latter case),
    /// or [`PipelineDecision::Dispatch`] with the prepared formula.
    pub fn prepare(&self, request: &SolveRequest<'_>) -> PipelineDecision {
        if self.bypasses(request) {
            return PipelineDecision::Dispatch(PreparedRequest {
                formula: request.formula().clone(),
                trace: None,
                key: None,
                vars_removed: 0,
            });
        }
        let prepared = preprocess(request.formula());
        let report = prepared.report;
        let vars_removed = report.vars_removed() as u64;
        let clauses_removed = report.clauses_removed() as u64;
        match prepared.outcome {
            PreprocessOutcome::Satisfiable(model) => {
                self.metrics
                    .record_preprocess(vars_removed, clauses_removed, true);
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
                if request.requested_artifacts().wants_model() {
                    outcome.model = Some(model);
                }
                outcome.stats.preprocessed_vars_removed = vars_removed;
                outcome.stats.winner = Some("preprocess");
                PipelineDecision::Resolved(outcome)
            }
            PreprocessOutcome::Unsatisfiable => {
                self.metrics
                    .record_preprocess(vars_removed, clauses_removed, true);
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unsatisfiable);
                outcome.stats.preprocessed_vars_removed = vars_removed;
                outcome.stats.winner = Some("preprocess");
                PipelineDecision::Resolved(outcome)
            }
            PreprocessOutcome::Reduced { formula, trace } => {
                self.metrics
                    .record_preprocess(vars_removed, clauses_removed, false);
                // The key only serves the cache: a cacheless pipeline skips
                // the hash.
                let mut key = None;
                if let Some(cache) = &self.cache {
                    let hash = fingerprint(&formula);
                    if let Some(answer) = cache.lookup(hash, &formula) {
                        let mut outcome = SolveOutcome::of_verdict(answer.verdict);
                        if request.requested_artifacts().wants_model() {
                            outcome.model = answer.model.map(|model| trace.lift_model(&model));
                        }
                        outcome.stats.cache_hits = 1;
                        outcome.stats.preprocessed_vars_removed = vars_removed;
                        outcome.stats.winner = Some("cache");
                        return PipelineDecision::Resolved(outcome);
                    }
                    key = Some(hash);
                }
                PipelineDecision::Dispatch(PreparedRequest {
                    formula,
                    trace: Some(trace),
                    key,
                    vars_removed,
                })
            }
        }
    }

    /// [`Self::complete_with`] for an answer from a complete backend, whose
    /// UNSAT verdicts are cacheable. Callers that dispatch to a backend
    /// which may answer UNSAT wrongly (see [`SatBackend::is_complete`]) must
    /// use `complete_with` instead.
    ///
    /// [`SatBackend::is_complete`]: crate::SatBackend::is_complete
    pub fn complete(
        &self,
        prepared: PreparedRequest,
        outcome: SolveOutcome,
        backend: &str,
        latency: Duration,
    ) -> SolveOutcome {
        self.complete_with(prepared, outcome, backend, true, latency)
    }

    /// Folds a backend's `outcome` for a [`PreparedRequest`] back into the
    /// caller's variable space: records dispatch metrics and budget spend,
    /// feeds the cache and lifts the model through the reduction trace.
    ///
    /// Only definitive verdicts are cached. A satisfiable one needs a model,
    /// which is verified against the canonical formula on insert. An
    /// unsatisfiable one cannot be verified, so it is cached only when
    /// `backend_complete` says the answering backend is complete: a
    /// statistical engine's false UNSAT would otherwise answer every later
    /// request for the same formula, whichever backend it names.
    pub fn complete_with(
        &self,
        prepared: PreparedRequest,
        mut outcome: SolveOutcome,
        backend: &str,
        backend_complete: bool,
        latency: Duration,
    ) -> SolveOutcome {
        self.metrics.record_dispatch(backend, latency);
        self.metrics
            .record_budget_spend(outcome.stats.samples, outcome.stats.coprocessor_checks);
        if outcome.stats.clauses_exported > 0 || outcome.stats.clauses_imported > 0 {
            self.metrics.record_sharing(
                outcome.stats.clauses_exported,
                outcome.stats.clauses_imported,
            );
        }
        let PreparedRequest {
            formula,
            trace,
            key,
            vars_removed,
            ..
        } = prepared;
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            let cacheable = match outcome.verdict {
                SolveVerdict::Satisfiable => outcome.model.is_some(),
                SolveVerdict::Unsatisfiable => backend_complete,
                SolveVerdict::Unknown(_) => false,
            };
            if cacheable {
                cache.insert(key, formula, outcome.verdict, outcome.model.clone());
            }
        }
        if let Some(trace) = &trace {
            if let Some(model) = outcome.model.take() {
                outcome.model = Some(trace.lift_model(&model));
            }
            outcome.stats.preprocessed_vars_removed = vars_removed;
        }
        outcome
    }

    /// One-shot convenience: `prepare`, dispatch through `registry` when
    /// needed, `complete`.
    ///
    /// # Errors
    ///
    /// Whatever [`BackendRegistry::create`] or the backend's solve returns.
    pub fn solve(
        &self,
        registry: &BackendRegistry,
        backend: &str,
        request: &SolveRequest<'_>,
    ) -> Result<SolveOutcome> {
        match self.prepare(request) {
            PipelineDecision::Resolved(outcome) => Ok(outcome),
            PipelineDecision::Dispatch(prepared) => {
                let started = Instant::now();
                let mut engine = registry.create(backend)?;
                let outcome = engine.solve(&prepared.request(request))?;
                Ok(self.complete_with(
                    prepared,
                    outcome,
                    backend,
                    engine.is_complete(),
                    started.elapsed(),
                ))
            }
        }
    }

    /// Whether this request must skip preprocessing and the cache: it wants
    /// artifacts the reduction cannot lift back (a convergence trace, a
    /// prime-implicant cube) or names caller-space variables (assumptions) —
    /// or the stage is disabled outright.
    fn bypasses(&self, request: &SolveRequest<'_>) -> bool {
        !self.config.preprocess
            || request.wants_trace()
            || request.requested_artifacts().wants_cube()
            || !request.requested_assumptions().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::request::Artifacts;
    use cnf::{cnf_formula, Literal, Variable};

    fn registry() -> BackendRegistry {
        BackendRegistry::default()
    }

    #[test]
    fn preprocessing_resolves_trivial_instances_without_dispatch() {
        let pipeline = SolvePipeline::default();
        // Unit-propagation refutable: no backend should ever run.
        let unsat = cnf_formula![[1], [-1]];
        let request = SolveRequest::new(&unsat);
        match pipeline.prepare(&request) {
            PipelineDecision::Resolved(outcome) => {
                assert!(outcome.verdict.is_unsat());
                assert_eq!(outcome.stats.preprocessed_vars_removed, 1);
            }
            PipelineDecision::Dispatch(_) => panic!("UP-refutable formula dispatched"),
        }
        // Pure-literal satisfiable, model in caller space.
        let sat = cnf_formula![[1, 2], [1, -2]];
        let request = SolveRequest::new(&sat).artifacts(Artifacts::Model);
        match pipeline.prepare(&request) {
            PipelineDecision::Resolved(outcome) => {
                assert!(outcome.verdict.is_sat());
                assert!(sat.evaluate(outcome.model.as_ref().expect("model requested")));
            }
            PipelineDecision::Dispatch(_) => panic!("pure-literal SAT formula dispatched"),
        }
        assert_eq!(pipeline.snapshot().pre_solved, 2);
        assert_eq!(pipeline.snapshot().dispatches, 0);
    }

    #[test]
    fn isomorphic_resubmission_hits_the_cache_with_zero_dispatch() {
        let pipeline = SolvePipeline::new(PipelineConfig::new().with_cache(16));
        let registry = registry();
        // Irreducible under UP/pure literals: both polarities of both
        // variables occur and there are no unit clauses.
        let original = cnf_formula![[1, 2], [-1, -2], [1, -2]];
        let request = SolveRequest::new(&original).artifacts(Artifacts::Model);
        let first = pipeline.solve(&registry, "cdcl", &request).unwrap();
        assert!(first.verdict.is_sat());
        assert!(original.evaluate(first.model.as_ref().unwrap()));
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(pipeline.snapshot().dispatches, 1);

        // Rename x1 <-> x2 and permute clause/literal order.
        let renamed = cnf_formula![[-2, -1], [2, 1], [-1, 2]];
        let request = SolveRequest::new(&renamed).artifacts(Artifacts::Model);
        let second = pipeline.solve(&registry, "cdcl", &request).unwrap();
        assert!(second.verdict.is_sat());
        assert!(renamed.evaluate(second.model.as_ref().unwrap()));
        assert_eq!(second.stats.cache_hits, 1);
        // Zero additional dispatch: the cache answered.
        let snapshot = pipeline.snapshot();
        assert_eq!(snapshot.dispatches, 1);
        assert_eq!(snapshot.cache_hits, 1);
        assert_eq!(snapshot.cache_misses, 1);
        assert_eq!(snapshot.cache_entries, 1);
    }

    #[test]
    fn unsat_verdicts_are_cached_without_models() {
        let pipeline = SolvePipeline::new(PipelineConfig::new().with_cache(16));
        let registry = registry();
        // Irreducible UNSAT: all four binary clauses over two variables.
        let original = cnf_formula![[1, 2], [1, -2], [-1, 2], [-1, -2]];
        let outcome = pipeline
            .solve(&registry, "cdcl", &SolveRequest::new(&original))
            .unwrap();
        assert!(outcome.verdict.is_unsat());
        let renamed = cnf_formula![[2, 1], [-2, 1], [2, -1], [-2, -1]];
        let cached = pipeline
            .solve(&registry, "cdcl", &SolveRequest::new(&renamed))
            .unwrap();
        assert!(cached.verdict.is_unsat());
        assert_eq!(cached.stats.cache_hits, 1);
        assert_eq!(pipeline.snapshot().dispatches, 1);
    }

    #[test]
    fn verdict_only_sat_answers_are_not_cached() {
        let pipeline = SolvePipeline::new(PipelineConfig::new().with_cache(16));
        let registry = registry();
        let formula = cnf_formula![[1, 2], [-1, -2], [1, -2]];
        let request = SolveRequest::new(&formula); // Artifacts::Verdict
        pipeline.solve(&registry, "cdcl", &request).unwrap();
        // No model → not cached → the resubmission dispatches again.
        let second = pipeline.solve(&registry, "cdcl", &request).unwrap();
        assert_eq!(second.stats.cache_hits, 0);
        assert_eq!(pipeline.snapshot().dispatches, 2);
    }

    #[test]
    fn special_requests_bypass_preprocessing_and_cache() {
        let pipeline = SolvePipeline::new(PipelineConfig::new().with_cache(16));
        // A UP-refutable formula would normally resolve in prepare; with a
        // trace request, assumptions or a cube it must dispatch untouched.
        let formula = cnf_formula![[1], [-1]];
        let traced = SolveRequest::new(&formula).trace(true);
        let cubed = SolveRequest::new(&formula).artifacts(Artifacts::PrimeCube);
        let assumed =
            SolveRequest::new(&formula).assumptions([Literal::positive(Variable::new(0))]);
        for request in [&traced, &cubed, &assumed] {
            match pipeline.prepare(request) {
                PipelineDecision::Dispatch(prepared) => {
                    assert!(!prepared.is_reduced());
                    assert_eq!(prepared.formula(), &formula);
                }
                PipelineDecision::Resolved(_) => panic!("bypass request was resolved"),
            }
        }
        assert_eq!(pipeline.snapshot().cache_misses, 0);
    }

    #[test]
    fn cacheless_pipeline_computes_no_cache_key() {
        // Irreducible: no units, both polarities of both variables.
        let formula = cnf_formula![[1, 2], [-1, -2], [1, -2]];
        let request = SolveRequest::new(&formula);
        let cacheless = SolvePipeline::default();
        let cached = SolvePipeline::new(PipelineConfig::new().with_cache(16));
        for (pipeline, keyed) in [(&cacheless, false), (&cached, true)] {
            match pipeline.prepare(&request) {
                PipelineDecision::Dispatch(prepared) => {
                    assert!(prepared.is_reduced());
                    assert_eq!(prepared.key.is_some(), keyed);
                }
                PipelineDecision::Resolved(_) => panic!("irreducible formula was resolved"),
            }
        }
    }

    #[test]
    fn models_lift_through_variable_elimination() {
        let pipeline = SolvePipeline::default();
        let registry = registry();
        // x3 is forced by the unit clause; x1/x2 survive reduction.
        let formula = cnf_formula![[3], [1, 2], [-1, -2], [-3, 1, 2]];
        let request = SolveRequest::new(&formula).artifacts(Artifacts::Model);
        match pipeline.prepare(&request) {
            PipelineDecision::Dispatch(prepared) => {
                assert!(prepared.is_reduced());
                assert!(prepared.formula().num_vars() < formula.num_vars());
                let outcome = {
                    let inner = prepared.request(&request);
                    registry.create("cdcl").unwrap().solve(&inner).unwrap()
                };
                let lifted = pipeline.complete(prepared, outcome, "cdcl", Duration::from_micros(1));
                assert!(lifted.verdict.is_sat());
                assert!(formula.evaluate(lifted.model.as_ref().unwrap()));
                assert_eq!(lifted.stats.preprocessed_vars_removed, 1);
            }
            PipelineDecision::Resolved(_) => panic!("irreducible core was resolved"),
        }
    }
}
