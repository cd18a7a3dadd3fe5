//! The Monte-Carlo (analog-simulation) engine.
//!
//! This engine is the Rust counterpart of the MATLAB simulation the paper
//! validates its scheme with (§IV): every basis noise source is an explicit
//! carrier stream, the superpositions τ_N and Σ_N are evaluated sample by
//! sample exactly as the analog datapath would produce them, and the SAT
//! decision observes the running mean of the product waveform.

use crate::budget::{BudgetMeter, ExhaustedResource};
use crate::config::EngineConfig;
use crate::convergence::{log_spaced_checkpoints, ConvergenceTrace};
use crate::engine::{MeanEstimate, NblEngine};
use crate::error::{NblSatError, Result};
use crate::transform::NblSatInstance;
use cnf::bits::WORD_BITS;
use cnf::{PartialAssignment, Variable};
use nbl_noise::{CarrierBank, ConvergenceTracker, Correlator};

/// Monte-Carlo simulation engine for ⟨S_N⟩.
///
/// One *sample* corresponds to one simulated time step: every one of the
/// `2·m·n` basis sources produces a value, τ_N and Σ_N are evaluated on those
/// values, and their product is integrated by a correlator. The engine stops
/// when the §IV criterion is met (running mean stable to
/// [`EngineConfig::significant_digits`] significant digits) or when the sample
/// cap is reached.
///
/// ```
/// use cnf::generators::example7_unsat;
/// use nbl_sat_core::{EngineConfig, NblEngine, NblSatInstance, SampledEngine};
///
/// let instance = NblSatInstance::new(&example7_unsat())?;
/// let mut engine = SampledEngine::new(EngineConfig::new().with_max_samples(20_000));
/// let estimate = engine.estimate(&instance, &instance.empty_bindings())?;
/// assert!(!estimate.is_positive(3.0)); // UNSAT: mean statistically zero
/// # Ok::<(), nbl_sat_core::NblSatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SampledEngine {
    config: EngineConfig,
}

impl Default for SampledEngine {
    fn default() -> Self {
        SampledEngine::new(EngineConfig::default())
    }
}

/// Reusable per-sample evaluation state.
#[derive(Debug)]
struct Evaluator {
    values: Vec<f64>,
    bank: Box<dyn CarrierBank>,
}

/// Flattened evaluation plan of S_N = τ_N · Σ_N, the one sample evaluator
/// behind both the convergence loop and [`SampledEngine::trace`]: the τ_N /
/// Σ_N datapath with every source lookup resolved to a flat index up front,
/// so the per-sample inner loop touches only contiguous index arrays.
///
/// The multiplication order is *identical* to the scalar τ_N and Σ_N
/// evaluators it replaced (kept as test-only reference helpers), so the plan
/// produces a bit-identical floating-point stream.
#[derive(Debug)]
struct SamplePlan {
    tau: Vec<TauTerm>,
    sigma: Vec<SigmaClause>,
}

/// One τ_N factor: the binding of variable `i` plus the flat source indices
/// of its positive and negative carrier products across all clauses.
#[derive(Debug)]
struct TauTerm {
    binding: Option<bool>,
    pos: Vec<u32>,
    neg: Vec<u32>,
}

/// One Σ_N factor (clause hyperspace Z_j): the cube-subspace terms summed.
#[derive(Debug)]
struct SigmaClause {
    terms: Vec<SigmaTerm>,
}

/// One cube subspace T^j_lit: the literal's own source index and the
/// `(positive, negative)` source pairs of every other variable.
#[derive(Debug)]
struct SigmaTerm {
    lit_source: u32,
    others: Vec<(u32, u32)>,
}

impl SamplePlan {
    fn new(instance: &NblSatInstance, bindings: &PartialAssignment) -> Self {
        let m = instance.num_clauses();
        let n = instance.num_vars();
        let tau = (0..n)
            .map(|i| {
                let var = Variable::new(i);
                TauTerm {
                    binding: bindings.value(var),
                    pos: (0..m)
                        .map(|j| instance.source(j, var, true).index() as u32)
                        .collect(),
                    neg: (0..m)
                        .map(|j| instance.source(j, var, false).index() as u32)
                        .collect(),
                }
            })
            .collect();
        let sigma = instance
            .formula()
            .iter()
            .enumerate()
            .map(|(j, clause)| SigmaClause {
                terms: clause
                    .iter()
                    .map(|&lit| SigmaTerm {
                        lit_source: instance.literal_source(j, lit).index() as u32,
                        others: (0..n)
                            .filter(|&i| Variable::new(i) != lit.variable())
                            .map(|i| {
                                let var = Variable::new(i);
                                (
                                    instance.source(j, var, true).index() as u32,
                                    instance.source(j, var, false).index() as u32,
                                )
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        SamplePlan { tau, sigma }
    }

    /// One sample of S_N = τ_N · Σ_N through the flattened plan.
    fn s_sample(&self, values: &[f64]) -> f64 {
        let mut tau = 1.0;
        for term in &self.tau {
            let product = |indices: &[u32]| {
                let mut p = 1.0;
                for &s in indices {
                    p *= values[s as usize];
                }
                p
            };
            tau *= match term.binding {
                None => product(&term.pos) + product(&term.neg),
                Some(true) => product(&term.pos),
                Some(false) => product(&term.neg),
            };
        }
        let mut sigma = 1.0;
        for clause in &self.sigma {
            let mut z_j = 0.0;
            for term in &clause.terms {
                let mut t = values[term.lit_source as usize];
                for &(pos, neg) in &term.others {
                    t *= values[pos as usize] + values[neg as usize];
                }
                z_j += t;
            }
            sigma *= z_j;
        }
        tau * sigma
    }
}

/// Mutable state threaded through the convergence loop.
#[derive(Debug)]
struct LoopState {
    eval: Evaluator,
    correlator: Correlator,
    tracker: ConvergenceTracker,
    samples: u64,
    converged: bool,
    timed_out: bool,
}

impl SampledEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        SampledEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn evaluator(&self, instance: &NblSatInstance) -> Evaluator {
        Evaluator {
            values: vec![0.0; instance.num_sources()],
            bank: self
                .config
                .carrier
                .bank(instance.num_sources(), self.config.seed),
        }
    }

    /// The convergence loop: samples are drawn and charged a 64-lane word at
    /// a time through a flattened [`SamplePlan`]. Each full word charges
    /// [`WORD_BITS`] samples to the meter; the tail word is clamped to `cap`
    /// and an early convergence break charges exactly the lanes drawn, so the
    /// meter sees every sample exactly once. The wall-clock deadline is
    /// polled at word boundaries.
    fn converge_packed(
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        cap: u64,
        meter: &mut BudgetMeter,
        state: &mut LoopState,
    ) {
        let plan = SamplePlan::new(instance, bindings);
        while state.samples < cap {
            if meter.ensure_time().is_err() {
                state.timed_out = true;
                break;
            }
            let lanes = (WORD_BITS as u64).min(cap - state.samples);
            let mut drawn = 0u64;
            for _ in 0..lanes {
                state.eval.bank.next_sample(&mut state.eval.values);
                state
                    .correlator
                    .push_product(plan.s_sample(&state.eval.values));
                state.samples += 1;
                drawn += 1;
                if state
                    .tracker
                    .observe(state.samples, state.correlator.mean_product())
                {
                    state.converged = true;
                    break;
                }
            }
            meter.charge_samples(drawn);
            if state.converged {
                break;
            }
        }
    }

    /// Runs the simulation and records the running mean at the given sample
    /// checkpoints (used to regenerate Figure 1). The simulation always runs
    /// to the last checkpoint, ignoring the convergence stopping rule.
    ///
    /// # Errors
    ///
    /// Returns an error if the bindings do not match the instance.
    pub fn trace(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        label: impl Into<String>,
        checkpoints: &[u64],
    ) -> Result<ConvergenceTrace> {
        instance.validate_bindings(bindings)?;
        let mut trace = ConvergenceTrace::new(label);
        if checkpoints.is_empty() {
            return Ok(trace);
        }
        let mut sorted: Vec<u64> = checkpoints.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let max = *sorted.last().expect("non-empty");
        let plan = SamplePlan::new(instance, bindings);
        let mut eval = self.evaluator(instance);
        let mut correlator = Correlator::new();
        let mut next_checkpoint = 0usize;
        for sample in 1..=max {
            eval.bank.next_sample(&mut eval.values);
            correlator.push_product(plan.s_sample(&eval.values));
            if sample == sorted[next_checkpoint] {
                trace.push(sample, correlator.mean_product());
                next_checkpoint += 1;
                if next_checkpoint == sorted.len() {
                    break;
                }
            }
        }
        Ok(trace)
    }

    /// Convenience wrapper around [`SampledEngine::trace`] with
    /// logarithmically spaced checkpoints up to the configured sample cap.
    ///
    /// # Errors
    ///
    /// Returns an error if the bindings do not match the instance.
    pub fn trace_logspaced(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        label: impl Into<String>,
        points_per_decade: u32,
    ) -> Result<ConvergenceTrace> {
        let checkpoints = log_spaced_checkpoints(self.config.max_samples, points_per_decade);
        self.trace(instance, bindings, label, &checkpoints)
    }
}

impl NblEngine for SampledEngine {
    fn estimate(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<MeanEstimate> {
        // One convergence loop serves both entry points: an unlimited meter
        // imposes no clamp and polls no deadline that can fire.
        self.estimate_budgeted(instance, bindings, &mut BudgetMeter::default())
    }

    /// Budgeted variant of the convergence loop: the sample cap is clamped to
    /// the meter's remaining allowance and the wall-clock deadline is polled
    /// every few samples, so a budget genuinely interrupts the simulation.
    ///
    /// When a limit fires before the engine's own stopping rule (§IV
    /// convergence) is met, the exhaustion is reported as
    /// [`NblSatError::BudgetExhausted`] — the partial estimate is *not*
    /// returned, because the engine cannot know the decision threshold its
    /// caller (e.g. a [`crate::SatChecker`] with custom sigmas) would apply
    /// to it, and a truncated mean must never masquerade as a definitive
    /// verdict.
    fn estimate_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<MeanEstimate> {
        meter.ensure_time()?;
        meter.ensure_samples()?;
        instance.validate_bindings(bindings)?;
        let budget_cap = meter.remaining_samples().unwrap_or(u64::MAX);
        let cap = self.config.max_samples.min(budget_cap);
        let budget_clamped = budget_cap < self.config.max_samples;
        let mut state = LoopState {
            eval: self.evaluator(instance),
            correlator: Correlator::new(),
            tracker: ConvergenceTracker::new(
                self.config.significant_digits,
                self.config.check_interval,
            ),
            samples: 0,
            converged: false,
            timed_out: false,
        };
        Self::converge_packed(instance, bindings, cap, meter, &mut state);
        if state.timed_out && !state.converged {
            return Err(NblSatError::BudgetExhausted {
                resource: ExhaustedResource::WallClock,
            });
        }
        if budget_clamped && state.samples == cap && !state.converged {
            return Err(NblSatError::BudgetExhausted {
                resource: ExhaustedResource::Samples,
            });
        }
        Ok(MeanEstimate {
            mean: state.correlator.mean_product(),
            std_error: state.correlator.std_error(),
            samples: state.samples,
            converged: state.converged,
            exact: false,
        })
    }

    fn name(&self) -> &'static str {
        "sampled"
    }
}

/// How often (in samples) the budgeted convergence loop polls the wall-clock
/// deadline. Each sample already costs `O(n·m)` multiplications, so polling
/// every few samples keeps the overhead negligible while bounding the
/// reaction latency. Kept equal to [`WORD_BITS`] so the scalar and packed
/// loops poll at the same instants (word boundaries) and therefore interrupt
/// identically.
#[cfg(test)]
const DEADLINE_POLL_INTERVAL: u64 = WORD_BITS as u64;

/// The scalar sample evaluator and convergence loop this module ran before
/// [`SamplePlan`] became its only evaluator: a test-only oracle, kept
/// verbatim, that the production estimate and trace must match bit for bit
/// ([`MeanEstimate`] and [`ConvergenceTrace`]).
#[cfg(test)]
impl SampledEngine {
    /// Evaluates one sample of τ_N on the current source values.
    fn tau_sample(instance: &NblSatInstance, bindings: &PartialAssignment, values: &[f64]) -> f64 {
        let m = instance.num_clauses();
        let mut tau = 1.0;
        for i in 0..instance.num_vars() {
            let var = Variable::new(i);
            let pos: f64 = (0..m)
                .map(|j| values[instance.source(j, var, true).index()])
                .product();
            let neg: f64 = (0..m)
                .map(|j| values[instance.source(j, var, false).index()])
                .product();
            tau *= match bindings.value(var) {
                None => pos + neg,
                Some(true) => pos,
                Some(false) => neg,
            };
        }
        tau
    }

    /// Evaluates one sample of Σ_N on the current source values.
    fn sigma_sample(instance: &NblSatInstance, values: &[f64]) -> f64 {
        let n = instance.num_vars();
        let mut sigma = 1.0;
        for (j, clause) in instance.formula().iter().enumerate() {
            let mut z_j = 0.0;
            for &lit in clause.iter() {
                // Cube subspace T^j_lit evaluated on clause j's sources.
                let mut term = values[instance.literal_source(j, lit).index()];
                for i in 0..n {
                    let var = Variable::new(i);
                    if var == lit.variable() {
                        continue;
                    }
                    term *= values[instance.source(j, var, true).index()]
                        + values[instance.source(j, var, false).index()];
                }
                z_j += term;
            }
            sigma *= z_j;
        }
        sigma
    }

    /// Evaluates one full sample of S_N = τ_N · Σ_N.
    fn s_sample(instance: &NblSatInstance, bindings: &PartialAssignment, values: &[f64]) -> f64 {
        Self::tau_sample(instance, bindings, values) * Self::sigma_sample(instance, values)
    }

    /// The scalar reference convergence loop: one sample per iteration, the
    /// whole run charged to the meter in one piece at the end.
    fn converge_scalar(
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        cap: u64,
        meter: &mut BudgetMeter,
        state: &mut LoopState,
    ) {
        while state.samples < cap {
            if state.samples.is_multiple_of(DEADLINE_POLL_INTERVAL) && meter.ensure_time().is_err()
            {
                state.timed_out = true;
                break;
            }
            state.eval.bank.next_sample(&mut state.eval.values);
            state
                .correlator
                .push_product(Self::s_sample(instance, bindings, &state.eval.values));
            state.samples += 1;
            if state
                .tracker
                .observe(state.samples, state.correlator.mean_product())
            {
                state.converged = true;
                break;
            }
        }
        meter.charge_samples(state.samples);
    }

    /// [`NblEngine::estimate`] through the scalar convergence loop.
    fn estimate_scalar(
        &self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> MeanEstimate {
        let mut state = LoopState {
            eval: self.evaluator(instance),
            correlator: Correlator::new(),
            tracker: ConvergenceTracker::new(
                self.config.significant_digits,
                self.config.check_interval,
            ),
            samples: 0,
            converged: false,
            timed_out: false,
        };
        let mut meter = BudgetMeter::default();
        Self::converge_scalar(
            instance,
            bindings,
            self.config.max_samples,
            &mut meter,
            &mut state,
        );
        MeanEstimate {
            mean: state.correlator.mean_product(),
            std_error: state.correlator.std_error(),
            samples: state.samples,
            converged: state.converged,
            exact: false,
        }
    }

    /// [`SampledEngine::trace`] as it ran before [`SamplePlan`]: every
    /// sample through the scalar [`SampledEngine::s_sample`].
    fn trace_scalar(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        label: impl Into<String>,
        checkpoints: &[u64],
    ) -> Result<ConvergenceTrace> {
        instance.validate_bindings(bindings)?;
        let mut trace = ConvergenceTrace::new(label);
        if checkpoints.is_empty() {
            return Ok(trace);
        }
        let mut sorted: Vec<u64> = checkpoints.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let max = *sorted.last().expect("non-empty");
        let mut eval = self.evaluator(instance);
        let mut correlator = Correlator::new();
        let mut next_checkpoint = 0usize;
        for sample in 1..=max {
            eval.bank.next_sample(&mut eval.values);
            correlator.push_product(Self::s_sample(instance, bindings, &eval.values));
            if sample == sorted[next_checkpoint] {
                trace.push(sample, correlator.mean_product());
                next_checkpoint += 1;
                if next_checkpoint == sorted.len() {
                    break;
                }
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicEngine;
    use cnf::generators;
    use nbl_noise::CarrierKind;

    fn instance(f: &cnf::CnfFormula) -> NblSatInstance {
        NblSatInstance::new(f).unwrap()
    }

    fn quick_config(seed: u64) -> EngineConfig {
        EngineConfig::new()
            .with_seed(seed)
            .with_max_samples(60_000)
            .with_check_interval(5_000)
    }

    #[test]
    fn sat_instance_has_positive_mean_unsat_has_zero_mean() {
        // The §IV instances have n·m = 8, so the single-minterm mean is
        // 4·(1/12)^8 ≈ 9·10⁻⁹ and needs a few hundred thousand samples to
        // clear the 3σ detection threshold (SNR ≈ √N / (3·2^{nm})).
        let sat = instance(&generators::section4_sat_instance());
        let unsat = instance(&generators::section4_unsat_instance());
        let mut engine = SampledEngine::new(
            EngineConfig::new()
                .with_seed(1)
                .with_max_samples(500_000)
                .with_check_interval(100_000),
        );
        let sat_est = engine.estimate(&sat, &sat.empty_bindings()).unwrap();
        let unsat_est = engine.estimate(&unsat, &unsat.empty_bindings()).unwrap();
        assert!(
            sat_est.is_positive(3.0),
            "SAT mean should be positive: {sat_est}"
        );
        assert!(
            !unsat_est.is_positive(3.0),
            "UNSAT mean should be statistically zero: {unsat_est}"
        );
    }

    #[test]
    fn sampled_mean_approaches_symbolic_mean() {
        // Example 6: expected mean 2·(1/12)^4 ≈ 9.6e-5.
        let inst = instance(&generators::example6_sat());
        let exact = SymbolicEngine::new()
            .estimate(&inst, &inst.empty_bindings())
            .unwrap()
            .mean;
        let mut engine = SampledEngine::new(
            EngineConfig::new()
                .with_seed(7)
                .with_max_samples(400_000)
                .with_check_interval(400_000),
        );
        let est = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        // Within 5 standard errors of the exact value.
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error,
            "sampled {est} vs exact {exact}"
        );
    }

    #[test]
    fn bindings_flip_the_answer_for_example8() {
        // Example 8: binding x1=1 keeps the instance satisfiable; adding x2=1
        // makes the reduced hyperspace miss every satisfying minterm.
        let inst = instance(&generators::example6_sat());
        let mut engine = SampledEngine::new(quick_config(3));
        let mut bindings = inst.empty_bindings();
        bindings.assign(Variable::new(0), true);
        assert!(engine.estimate(&inst, &bindings).unwrap().is_positive(3.0));
        bindings.assign(Variable::new(1), true);
        assert!(!engine.estimate(&inst, &bindings).unwrap().is_positive(3.0));
    }

    #[test]
    fn stochastic_carrier_families_reach_the_same_verdict() {
        // Uniform, Gaussian and RTW carriers satisfy the exact independence
        // algebra, so they all discriminate the paper's examples. Sinusoidal
        // carriers with consecutive integer frequencies do NOT: products of
        // four or more carriers can hit frequency collisions (Σ±f_i = 0) that
        // leave a spurious DC term, which is precisely the carrier-planning
        // caveat §V raises for SBL. The sinusoid case is therefore exercised
        // separately (it must still run without error) and its quantitative
        // behaviour is reported by the carrier-ablation experiment (E7).
        let sat = instance(&generators::example6_sat());
        let unsat = instance(&generators::example7_unsat());
        for kind in [
            CarrierKind::Uniform,
            CarrierKind::Gaussian,
            CarrierKind::Rtw,
        ] {
            let cfg = quick_config(11).with_carrier(kind);
            let mut engine = SampledEngine::new(cfg);
            assert!(
                engine
                    .estimate(&sat, &sat.empty_bindings())
                    .unwrap()
                    .is_positive(3.0),
                "{kind} failed on SAT instance"
            );
            assert!(
                !engine
                    .estimate(&unsat, &unsat.empty_bindings())
                    .unwrap()
                    .is_positive(3.0),
                "{kind} failed on UNSAT instance"
            );
        }
        let mut sbl = SampledEngine::new(quick_config(11).with_carrier(CarrierKind::Sinusoid));
        let est = sbl.estimate(&sat, &sat.empty_bindings()).unwrap();
        assert!(est.samples > 0);
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let inst = instance(&generators::section4_sat_instance());
        let mut a = SampledEngine::new(quick_config(42));
        let mut b = SampledEngine::new(quick_config(42));
        let ea = a.estimate(&inst, &inst.empty_bindings()).unwrap();
        let eb = b.estimate(&inst, &inst.empty_bindings()).unwrap();
        assert_eq!(ea, eb);
        let mut c = SampledEngine::new(quick_config(43));
        let ec = c.estimate(&inst, &inst.empty_bindings()).unwrap();
        assert_ne!(ea.mean, ec.mean);
    }

    #[test]
    fn trace_is_monotone_in_samples_and_matches_estimate_protocol() {
        let inst = instance(&generators::section4_sat_instance());
        let mut engine = SampledEngine::new(quick_config(5));
        let checkpoints = [10, 100, 1_000, 10_000];
        let trace = engine
            .trace(&inst, &inst.empty_bindings(), "S_SAT", &checkpoints)
            .unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.final_samples(), Some(10_000));
        let samples: Vec<u64> = trace.points.iter().map(|p| p.samples).collect();
        assert_eq!(samples, checkpoints);
        assert_eq!(engine.name(), "sampled");
    }

    #[test]
    fn logspaced_trace_reaches_the_cap() {
        let inst = instance(&generators::example7_unsat());
        let mut engine =
            SampledEngine::new(EngineConfig::new().with_seed(2).with_max_samples(10_000));
        let trace = engine
            .trace_logspaced(&inst, &inst.empty_bindings(), "S_UNSAT", 3)
            .unwrap();
        assert_eq!(trace.final_samples(), Some(10_000));
        // UNSAT trace hovers around zero.
        assert!(trace.final_mean().unwrap().abs() < 1e-2);
    }

    #[test]
    fn empty_checkpoints_give_empty_trace() {
        let inst = instance(&generators::example6_sat());
        let mut engine = SampledEngine::new(quick_config(0));
        let trace = engine
            .trace(&inst, &inst.empty_bindings(), "empty", &[])
            .unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn sample_budget_interrupts_the_convergence_loop() {
        use crate::budget::{Budget, BudgetMeter, ExhaustedResource};
        // The §IV UNSAT instance needs ~10⁵ samples to converge; a 200-sample
        // allowance must interrupt with a Samples exhaustion, not block.
        let inst = instance(&generators::section4_unsat_instance());
        let mut engine = SampledEngine::new(quick_config(1));
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_samples(200));
        let err = engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::NblSatError::BudgetExhausted {
                resource: ExhaustedResource::Samples
            }
        ));
        assert_eq!(meter.samples_used(), 200);
        // A second attempt finds the allowance already empty.
        assert!(engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .is_err());
    }

    #[test]
    fn generous_budget_matches_unbudgeted_estimate() {
        use crate::budget::{Budget, BudgetMeter};
        let inst = instance(&generators::section4_sat_instance());
        let mut engine = SampledEngine::new(quick_config(42));
        let plain = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_samples(10_000_000));
        let budgeted = engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .unwrap();
        assert_eq!(plain, budgeted);
        assert_eq!(meter.samples_used(), budgeted.samples);
    }

    #[test]
    fn expired_deadline_interrupts_the_convergence_loop() {
        use crate::budget::{Budget, BudgetMeter, ExhaustedResource};
        use std::time::Duration;
        let inst = instance(&generators::section4_unsat_instance());
        let mut engine = SampledEngine::new(quick_config(2));
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_wall_time(Duration::ZERO));
        let err = engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::NblSatError::BudgetExhausted {
                resource: ExhaustedResource::WallClock
            }
        ));
    }

    /// The paper's four worked instances, each unbound and with x0 bound
    /// either way.
    fn reference_cases() -> Vec<(NblSatInstance, PartialAssignment)> {
        let mut cases = Vec::new();
        for formula in [
            generators::example6_sat(),
            generators::example7_unsat(),
            generators::section4_sat_instance(),
            generators::section4_unsat_instance(),
        ] {
            let inst = instance(&formula);
            for binding in [None, Some(false), Some(true)] {
                let mut bindings = inst.empty_bindings();
                if let Some(value) = binding {
                    bindings.assign(Variable::new(0), value);
                }
                cases.push((inst.clone(), bindings));
            }
        }
        cases
    }

    #[test]
    fn estimate_matches_the_scalar_reference() {
        // The flattened SamplePlan preserves the scalar path's f64
        // multiplication order exactly, so the two must agree on every bit
        // of the estimate — mean, std error, sample count, convergence.
        for (inst, bindings) in reference_cases() {
            let expected = SampledEngine::new(quick_config(9)).estimate_scalar(&inst, &bindings);
            let mut engine = SampledEngine::new(quick_config(9));
            let estimate = engine.estimate(&inst, &bindings).unwrap();
            assert_eq!(estimate, expected, "diverged on {bindings:?}");
        }
    }

    #[test]
    fn trace_matches_the_scalar_reference() {
        let checkpoints = log_spaced_checkpoints(20_000, 4);
        for (inst, bindings) in reference_cases() {
            let mut reference = SampledEngine::new(quick_config(4));
            let expected = reference
                .trace_scalar(&inst, &bindings, "S_N", &checkpoints)
                .unwrap();
            let mut engine = SampledEngine::new(quick_config(4));
            let trace = engine.trace(&inst, &bindings, "S_N", &checkpoints).unwrap();
            assert_eq!(trace, expected, "diverged on {bindings:?}");
        }
    }

    #[test]
    fn packed_budget_accounting_is_exact() {
        use crate::budget::{Budget, BudgetMeter};
        // A 200-sample allowance is not a multiple of anything the packed
        // loop cares about beyond three full words plus an 8-lane tail; the
        // per-word charges must still add up to exactly 200.
        let inst = instance(&generators::section4_unsat_instance());
        let mut engine = SampledEngine::new(quick_config(1));
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_samples(200));
        assert!(engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .is_err());
        assert_eq!(meter.samples_used(), 200);
        // And when the engine converges early, only the drawn lanes of the
        // final word are charged.
        let mut engine = SampledEngine::new(quick_config(1));
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_samples(10_000_000));
        let est = engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .unwrap();
        assert_eq!(meter.samples_used(), est.samples);
    }

    #[test]
    fn mismatched_bindings_error() {
        let inst = instance(&generators::example6_sat());
        let mut engine = SampledEngine::new(quick_config(0));
        let wrong = PartialAssignment::new(7);
        assert!(engine.estimate(&inst, &wrong).is_err());
        assert!(engine.trace(&inst, &wrong, "x", &[10]).is_err());
    }
}
