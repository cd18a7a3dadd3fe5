//! The Monte-Carlo (analog-simulation) engine.
//!
//! This engine is the Rust counterpart of the MATLAB simulation the paper
//! validates its scheme with (§IV): every basis noise source is an explicit
//! carrier stream, the superpositions τ_N and Σ_N are evaluated on every
//! simulated time step exactly as the analog datapath would produce them, and
//! the SAT decision observes the running mean of the product waveform.
//!
//! The simulation advances in blocks of 16 time steps. One
//! [`CarrierBank::fill`] writes 16 steps of every carrier into one row per
//! source, τ_N and Σ_N are evaluated lane by lane across those rows, and the
//! 16 products enter the correlator and the §IV stopping rule in time order.
//! Every lane performs the floating-point operations of a one-step-at-a-time
//! evaluation, in the same order, so the block size changes no estimate and
//! no trace.

use crate::budget::{BudgetMeter, ExhaustedResource};
use crate::config::EngineConfig;
use crate::convergence::{log_spaced_checkpoints, ConvergenceTrace};
use crate::engine::{MeanEstimate, NblEngine};
use crate::error::{NblSatError, Result};
use crate::transform::{NblSatInstance, SourceIndex};
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
/// cap is reached. Samples are simulated 16 at a time (see the module docs);
/// the estimate is the one a sample-by-sample simulation of the same carrier
/// stream gives, bit for bit.
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

/// Time steps simulated per block: enough lanes for the lane loops to
/// vectorize, few enough that a block of a few hundred sources stays in L1.
const LANES: usize = 16;

/// One value per time step of a block.
type Lanes = [f64; LANES];

/// Flat evaluation plan of S_N = τ_N · Σ_N: every source lookup of the τ_N /
/// Σ_N datapath resolved to an index up front.
#[derive(Debug)]
struct SamplePlan {
    /// The τ_N binding of each of the `n` variables.
    bindings: Vec<Option<bool>>,
    /// The `[positive, negative]` source pair of every clause × variable,
    /// clause-major: entry `j·n + i` is clause `j`, variable `i`.
    pairs: Vec<[u32; 2]>,
    /// The Σ_N literals of every clause in clause order, clause after clause.
    literals: Vec<SigmaLiteral>,
    /// Where each clause's run in `literals` ends.
    clause_ends: Vec<usize>,
}

/// One cube subspace T^j_lit of Σ_N: the literal's own source times the pair
/// sum of every other variable of clause `j`.
#[derive(Debug)]
struct SigmaLiteral {
    source: u32,
    var: u32,
}

impl SamplePlan {
    fn new(instance: &NblSatInstance, bindings: &PartialAssignment) -> Self {
        let n = instance.num_vars();
        let index = |source: SourceIndex| {
            u32::try_from(source.index()).expect("a block row per source fits in memory")
        };
        let mut pairs = Vec::with_capacity(instance.nm());
        let mut literals = Vec::new();
        let mut clause_ends = Vec::with_capacity(instance.num_clauses());
        for (j, clause) in instance.formula().iter().enumerate() {
            pairs.extend((0..n).map(|i| {
                let var = Variable::new(i);
                [
                    index(instance.source(j, var, true)),
                    index(instance.source(j, var, false)),
                ]
            }));
            literals.extend(clause.iter().map(|&lit| SigmaLiteral {
                source: index(instance.literal_source(j, lit)),
                var: u32::try_from(lit.variable().index()).expect("fewer variables than sources"),
            }));
            clause_ends.push(literals.len());
        }
        SamplePlan {
            bindings: (0..n).map(|i| bindings.value(Variable::new(i))).collect(),
            pairs,
            literals,
            clause_ends,
        }
    }
}

/// The carrier bank and the block buffers a [`SamplePlan`] is evaluated on.
#[derive(Debug)]
struct Evaluator {
    plan: SamplePlan,
    bank: Box<dyn CarrierBank>,
    /// One row per source: its values at the block's time steps.
    block: Vec<Lanes>,
    /// `positive + negative` of every clause × variable pair, indexed like
    /// [`SamplePlan::pairs`].
    sums: Vec<Lanes>,
}

/// How an [`Evaluator::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// The caller's stopping rule fired.
    Stopped,
    /// The sample cap was reached.
    Capped,
    /// The meter's deadline passed or its cancellation token was raised.
    TimedOut,
}

impl Evaluator {
    /// Simulates the next `lanes` time steps and returns S_N at each. The
    /// values past `lanes` are computed on the previous block's carrier values
    /// and mean nothing.
    fn next_block(&mut self, lanes: usize) -> Lanes {
        self.bank.fill(self.block.as_flattened_mut(), LANES, lanes);
        let plan = &self.plan;
        let n = plan.bindings.len();
        let block = &self.block;
        let row = |source: u32| &block[source as usize];

        let mut tau = [1.0; LANES];
        for (i, binding) in plan.bindings.iter().enumerate() {
            // Π_j N^j over variable i's sources of one sign, j in order.
            let product = |sign: usize| {
                let mut p = [1.0; LANES];
                for pair in plan.pairs[i..].iter().step_by(n) {
                    mul_lanes(&mut p, row(pair[sign]));
                }
                p
            };
            let factor = match binding {
                None => {
                    let mut sum = product(0);
                    add_lanes(&mut sum, &product(1));
                    sum
                }
                Some(true) => product(0),
                Some(false) => product(1),
            };
            mul_lanes(&mut tau, &factor);
        }

        for (sum, &[pos, neg]) in self.sums.iter_mut().zip(&plan.pairs) {
            // Summed in a local: `sums` and `block` could alias for all the
            // compiler knows, and writing through `sum` lane by lane would
            // keep it from vectorizing.
            let mut lanes = *row(pos);
            add_lanes(&mut lanes, row(neg));
            *sum = lanes;
        }
        let mut sigma = [1.0; LANES];
        let mut start = 0;
        for (clause_sums, &end) in self.sums.chunks_exact(n).zip(&plan.clause_ends) {
            let mut z = [0.0; LANES];
            for literal in &plan.literals[start..end] {
                let var = literal.var as usize;
                let mut term = *row(literal.source);
                for sum in clause_sums[..var].iter().chain(&clause_sums[var + 1..]) {
                    mul_lanes(&mut term, sum);
                }
                add_lanes(&mut z, &term);
            }
            mul_lanes(&mut sigma, &z);
            start = end;
        }
        mul_lanes(&mut tau, &sigma);
        tau
    }

    /// Pushes S_N samples into `correlator` until `stop(samples, correlator)`
    /// returns `true` after a sample, `cap` samples have been pushed, or the
    /// meter's deadline passes.
    ///
    /// The deadline is polled, and the meter charged, once per 64-sample
    /// word; the charges add up to exactly the samples pushed. A stop in the
    /// middle of a block discards the block's remaining lanes.
    fn run(
        &mut self,
        cap: u64,
        meter: &mut BudgetMeter,
        correlator: &mut Correlator,
        mut stop: impl FnMut(u64, &Correlator) -> bool,
    ) -> RunEnd {
        let mut samples = 0u64;
        while samples < cap {
            if meter.ensure_time().is_err() {
                return RunEnd::TimedOut;
            }
            let word_start = samples;
            let word_end = samples + (WORD_BITS as u64).min(cap - samples);
            let mut stopped = false;
            'word: while samples < word_end {
                let lanes = (LANES as u64).min(word_end - samples) as usize;
                for &product in &self.next_block(lanes)[..lanes] {
                    correlator.push_product(product);
                    samples += 1;
                    if stop(samples, correlator) {
                        stopped = true;
                        break 'word;
                    }
                }
            }
            meter.charge_samples(samples - word_start);
            if stopped {
                return RunEnd::Stopped;
            }
        }
        RunEnd::Capped
    }
}

/// `acc[k] *= x[k]` in every lane.
fn mul_lanes(acc: &mut Lanes, x: &Lanes) {
    for (a, &b) in acc.iter_mut().zip(x) {
        *a *= b;
    }
}

/// `acc[k] += x[k]` in every lane.
fn add_lanes(acc: &mut Lanes, x: &Lanes) {
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += b;
    }
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

    fn evaluator(&self, instance: &NblSatInstance, bindings: &PartialAssignment) -> Evaluator {
        let plan = SamplePlan::new(instance, bindings);
        Evaluator {
            bank: self
                .config
                .carrier
                .bank(instance.num_sources(), self.config.seed),
            block: vec![[0.0; LANES]; instance.num_sources()],
            sums: vec![[0.0; LANES]; plan.pairs.len()],
            plan,
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
        let mut next_checkpoint = 0usize;
        // An unlimited meter: a trace has no deadline to poll.
        self.evaluator(instance, bindings).run(
            max,
            &mut BudgetMeter::default(),
            &mut Correlator::new(),
            |samples, correlator| {
                if samples == sorted[next_checkpoint] {
                    trace.push(samples, correlator.mean_product());
                    next_checkpoint += 1;
                }
                next_checkpoint == sorted.len()
            },
        );
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
    /// every 64 samples, so a budget genuinely interrupts the simulation.
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
        let mut correlator = Correlator::new();
        let mut tracker =
            ConvergenceTracker::new(self.config.significant_digits, self.config.check_interval);
        let end = self.evaluator(instance, bindings).run(
            cap,
            meter,
            &mut correlator,
            |samples, correlator| tracker.observe(samples, correlator.mean_product()),
        );
        let exhausted = |resource| Err(NblSatError::BudgetExhausted { resource });
        match end {
            RunEnd::TimedOut => return exhausted(ExhaustedResource::WallClock),
            RunEnd::Capped if budget_clamped => return exhausted(ExhaustedResource::Samples),
            RunEnd::Stopped | RunEnd::Capped => {}
        }
        Ok(MeanEstimate {
            mean: correlator.mean_product(),
            std_error: correlator.std_error(),
            samples: correlator.count(),
            converged: end == RunEnd::Stopped,
            exact: false,
        })
    }

    fn name(&self) -> &'static str {
        "sampled"
    }
}

/// The scalar evaluator and loops: a test-only oracle that draws and
/// evaluates one sample at a time, resolving every source through the
/// instance. The block engine's estimate and trace must match it bit for bit
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

    /// The scalar S_N stream: one [`CarrierBank::next_sample`] and one
    /// [`SampledEngine::s_sample`] per call of `next`.
    fn scalar_stream<'a>(
        &self,
        instance: &'a NblSatInstance,
        bindings: &'a PartialAssignment,
    ) -> impl FnMut() -> f64 + 'a {
        let mut bank = self
            .config
            .carrier
            .bank(instance.num_sources(), self.config.seed);
        let mut values = vec![0.0; instance.num_sources()];
        move || {
            bank.next_sample(&mut values);
            Self::s_sample(instance, bindings, &values)
        }
    }

    /// [`NblEngine::estimate`] through the scalar convergence loop: one
    /// sample per iteration, no budget.
    fn converge_scalar(
        &self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> MeanEstimate {
        let mut next = self.scalar_stream(instance, bindings);
        let mut correlator = Correlator::new();
        let mut tracker =
            ConvergenceTracker::new(self.config.significant_digits, self.config.check_interval);
        let mut converged = false;
        while correlator.count() < self.config.max_samples {
            correlator.push_product(next());
            if tracker.observe(correlator.count(), correlator.mean_product()) {
                converged = true;
                break;
            }
        }
        MeanEstimate {
            mean: correlator.mean_product(),
            std_error: correlator.std_error(),
            samples: correlator.count(),
            converged,
            exact: false,
        }
    }

    /// [`SampledEngine::trace`] through the scalar stream.
    fn trace_scalar(
        &self,
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
        let mut next = self.scalar_stream(instance, bindings);
        let mut correlator = Correlator::new();
        let mut next_checkpoint = 0usize;
        for sample in 1..=max {
            correlator.push_product(next());
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
    use cnf::generators::{self, RandomKSatConfig};
    use cnf::PreprocessOutcome;
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

    /// Random 3-SAT at `num_vars` variables and ratio `alpha`, reduced as the
    /// solve pipeline reduces it before dispatch: the formula of the first
    /// seed from `seed` on that preprocessing does not answer outright.
    fn preprocessed_random_3sat(num_vars: usize, alpha: f64, seed: u64) -> cnf::CnfFormula {
        (seed..)
            .find_map(|seed| {
                let config = RandomKSatConfig::from_ratio(num_vars, alpha, 3).with_seed(seed);
                match cnf::preprocess(&generators::random_ksat(&config).unwrap()).outcome {
                    PreprocessOutcome::Reduced { formula, .. } => Some(formula),
                    PreprocessOutcome::Satisfiable(_) | PreprocessOutcome::Unsatisfiable => None,
                }
            })
            .expect("some seed leaves a residual")
    }

    /// The paper's four worked instances, each unbound and with x0 bound
    /// either way, and preprocessed random 3-SAT at n = 4–6 and
    /// α ∈ {3, 4.26, 5}, each unbound, with x0 bound and with x0 and the last
    /// variable bound.
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
        for num_vars in 4..=6 {
            for (k, alpha) in [3.0, 4.26, 5.0].into_iter().enumerate() {
                let seed = 10 * num_vars as u64 + k as u64;
                let inst = instance(&preprocessed_random_3sat(num_vars, alpha, seed));
                let last = Variable::new(inst.num_vars() - 1);
                let mut bindings = inst.empty_bindings();
                cases.push((inst.clone(), bindings.clone()));
                bindings.assign(Variable::new(0), true);
                cases.push((inst.clone(), bindings.clone()));
                bindings.assign(last, false);
                cases.push((inst, bindings));
            }
        }
        cases
    }

    /// Every carrier family at a cap (10 003) and a convergence-check
    /// interval (1 001) that fall in the middle of a block and of a word.
    fn reference_configs(seed: u64) -> impl Iterator<Item = EngineConfig> {
        CarrierKind::all().into_iter().map(move |kind| {
            EngineConfig::new()
                .with_seed(seed)
                .with_max_samples(10_003)
                .with_check_interval(1_001)
                .with_carrier(kind)
        })
    }

    /// An estimate's fields, floats as bit patterns.
    fn estimate_bits(estimate: &MeanEstimate) -> (u64, u64, u64, bool, bool) {
        (
            estimate.mean.to_bits(),
            estimate.std_error.to_bits(),
            estimate.samples,
            estimate.converged,
            estimate.exact,
        )
    }

    #[test]
    fn estimate_matches_the_scalar_reference() {
        // Each block lane repeats the scalar path's f64 operations in order,
        // so the two must agree on every bit of the estimate — mean, std
        // error, sample count, convergence — for every carrier family.
        let cases = reference_cases();
        let (mut converged_mid_block, mut capped) = (0, 0);
        for config in reference_configs(9) {
            for (inst, bindings) in &cases {
                let expected = SampledEngine::new(config).converge_scalar(inst, bindings);
                let estimate = SampledEngine::new(config).estimate(inst, bindings).unwrap();
                assert_eq!(
                    estimate_bits(&estimate),
                    estimate_bits(&expected),
                    "{} diverged on {bindings:?}: {estimate} vs {expected}",
                    config.carrier
                );
                converged_mid_block += usize::from(
                    expected.converged && !expected.samples.is_multiple_of(LANES as u64),
                );
                capped += usize::from(expected.samples == config.max_samples);
            }
        }
        // Both ways a run can end inside a block are exercised.
        assert!(converged_mid_block > 0 && capped > 0);
    }

    #[test]
    fn trace_matches_the_scalar_reference() {
        let mut checkpoints = log_spaced_checkpoints(5_000, 4);
        checkpoints.extend([15, 16, 17, 1_001, 5_003]);
        checkpoints.sort_unstable();
        checkpoints.dedup();
        let cases = reference_cases();
        for config in reference_configs(4) {
            for (inst, bindings) in &cases {
                let expected = SampledEngine::new(config)
                    .trace_scalar(inst, bindings, "S_N", &checkpoints)
                    .unwrap();
                let trace = SampledEngine::new(config)
                    .trace(inst, bindings, "S_N", &checkpoints)
                    .unwrap();
                let bits = |trace: &ConvergenceTrace| -> Vec<(u64, u64)> {
                    trace
                        .points
                        .iter()
                        .map(|point| (point.samples, point.mean.to_bits()))
                        .collect()
                };
                assert_eq!(
                    bits(&trace),
                    bits(&expected),
                    "{} diverged on {bindings:?}",
                    config.carrier
                );
                assert_eq!(trace.points.len(), checkpoints.len());
            }
        }
    }

    #[test]
    fn packed_budget_accounting_is_exact() {
        use crate::budget::{Budget, BudgetMeter};
        // A 200-sample allowance is three full 64-sample words plus an
        // 8-sample tail that ends half way through a 16-sample block; the
        // per-word charges must still add up to exactly 200.
        let inst = instance(&generators::section4_unsat_instance());
        let mut engine = SampledEngine::new(quick_config(1));
        let mut meter = BudgetMeter::start(&Budget::unlimited().with_max_samples(200));
        assert!(engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .is_err());
        assert_eq!(meter.samples_used(), 200);
        // And when the engine converges early, only the samples pushed in the
        // final word are charged, not the rest of its last block.
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
