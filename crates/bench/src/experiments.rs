//! Reusable experiment drivers (E1–E8).

use cnf::generators::{self, RandomKSatConfig};
use cnf::{CnfFormula, Variable};
use nbl_noise::CarrierKind;
use nbl_sat_core::{
    AssignmentExtractor, ConvergenceTrace, EngineConfig, HybridSolver, NblEngine, NblSatInstance,
    SampledEngine, SatChecker, SnrModel, SymbolicEngine,
};
use sat_solvers::{CdclSolver, DpllSolver, Solver};
use std::fmt::Write as _;

/// E1 (Figure 1): running mean of S_N vs. number of noise samples for the
/// paper's §IV S_SAT and S_UNSAT instances.
///
/// Returns the two traces (SAT first) and a rendered report.
pub fn fig1_convergence(
    max_samples: u64,
    seed: u64,
) -> (ConvergenceTrace, ConvergenceTrace, String) {
    let sat = NblSatInstance::new(&generators::section4_sat_instance()).expect("valid instance");
    let unsat =
        NblSatInstance::new(&generators::section4_unsat_instance()).expect("valid instance");
    let config = EngineConfig::new()
        .with_seed(seed)
        .with_max_samples(max_samples);
    let mut engine = SampledEngine::new(config);
    let sat_trace = engine
        .trace_logspaced(&sat, &sat.empty_bindings(), "S_SAT", 4)
        .expect("trace");
    let unsat_trace = engine
        .trace_logspaced(&unsat, &unsat.empty_bindings(), "S_UNSAT", 4)
        .expect("trace");

    let expected = SymbolicEngine::new()
        .estimate(&sat, &sat.empty_bindings())
        .expect("exact mean")
        .mean;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E1 / Figure 1: S_N running mean vs noise samples (uniform [-0.5,0.5] carriers, seed {seed})"
    );
    let _ = writeln!(
        report,
        "# exact (infinite-sample) S_SAT mean = {expected:.3e}; S_UNSAT mean = 0"
    );
    let _ = writeln!(report, "samples\tS_SAT_mean\tS_UNSAT_mean");
    for (s, u) in sat_trace.points.iter().zip(unsat_trace.points.iter()) {
        let _ = writeln!(report, "{}\t{:+.6e}\t{:+.6e}", s.samples, s.mean, u.mean);
    }
    (sat_trace, unsat_trace, report)
}

/// One row of the E2 SNR-scaling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SnrRow {
    /// Variables in the 3-SAT instance.
    pub n: usize,
    /// Clauses in the 3-SAT instance.
    pub m: usize,
    /// Noise samples per trial.
    pub samples: u64,
    /// Analytic SNR from §III.F.
    pub predicted_snr: f64,
    /// Measured separation between the SAT and UNSAT mean populations.
    pub measured_separation: f64,
}

/// E2 (§III.F): predicted vs. measured SNR across instance sizes and sample
/// budgets. For each (n, m) a satisfiable instance with one model and an
/// unsatisfiable instance of the same shape are compared.
pub fn snr_scaling(samples_list: &[u64], trials: u32, seed: u64) -> (Vec<SnrRow>, String) {
    // (n, m, SAT instance with exactly one model, UNSAT instance of equal shape)
    let shapes: Vec<(usize, usize, CnfFormula, CnfFormula)> = vec![
        (
            1,
            2,
            CnfFormula::from_dimacs_clauses(&[vec![1], vec![1]]).expect("valid"),
            CnfFormula::from_dimacs_clauses(&[vec![1], vec![-1]]).expect("valid"),
        ),
        (
            2,
            2,
            CnfFormula::from_dimacs_clauses(&[vec![1], vec![2]]).expect("valid"),
            {
                // (x1)(¬x1) declared over two variables, so the UNSAT partner
                // has the same (n, m) shape and noise-source count.
                let mut f = CnfFormula::new(2);
                f.add_clause([Variable::new(0).positive()]);
                f.add_clause([Variable::new(0).negative()]);
                f
            },
        ),
        (
            2,
            4,
            generators::section4_sat_instance(),
            generators::section4_unsat_instance(),
        ),
    ];
    let model = SnrModel::new();
    let mut rows = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E2 / SNR scaling: predicted sqrt(N-1)/(3*2^nm) vs measured separation ({trials} trials)"
    );
    let _ = writeln!(report, "n\tm\tsamples\tpredicted_snr\tmeasured_separation");
    for (n, m, sat_f, unsat_f) in &shapes {
        let sat = NblSatInstance::new(sat_f).expect("valid instance");
        let unsat = NblSatInstance::new(unsat_f).expect("valid instance");
        for &samples in samples_list {
            let measurement = model
                .measure(&sat, &unsat, samples, trials, seed)
                .expect("measurement");
            let row = SnrRow {
                n: *n,
                m: *m,
                samples,
                predicted_snr: model.predicted_snr(*n, *m, samples, 1),
                measured_separation: measurement.separation_sigmas() / 3.0,
            };
            let _ = writeln!(
                report,
                "{}\t{}\t{}\t{:.3}\t{:.3}",
                row.n, row.m, row.samples, row.predicted_snr, row.measured_separation
            );
            rows.push(row);
        }
    }
    (rows, report)
}

/// E3: the worked Examples 6 and 7 of the paper, checked with the exact and
/// the sampled engine.
pub fn worked_examples(samples: u64, seed: u64) -> String {
    let cases = [
        (
            "Example 6  (x1+x2)(¬x1+¬x2)",
            generators::example6_sat(),
            true,
        ),
        ("Example 7  (x1)(¬x1)", generators::example7_unsat(), false),
        (
            "§IV S_SAT  (x1+x2)(x1+x2)(x1+¬x2)(¬x1+x2)",
            generators::section4_sat_instance(),
            true,
        ),
        (
            "§IV S_UNSAT (x1+x2)(x1+¬x2)(¬x1+x2)(¬x1+¬x2)",
            generators::section4_unsat_instance(),
            false,
        ),
    ];
    let mut report = String::new();
    let _ = writeln!(report, "# E3 / worked examples: one-operation SAT checks");
    let _ = writeln!(
        report,
        "instance\texpected\texact_mean\texact_verdict\tsampled_mean\tsampled_verdict\tsamples"
    );
    for (name, formula, expected_sat) in cases {
        let instance = NblSatInstance::new(&formula).expect("valid instance");
        let mut exact = SatChecker::new(SymbolicEngine::new());
        let exact_estimate = exact
            .estimate_with_bindings(&instance, &instance.empty_bindings())
            .expect("estimate");
        let mut sampled = SatChecker::new(SampledEngine::new(
            EngineConfig::new()
                .with_seed(seed)
                .with_max_samples(samples)
                .with_check_interval(samples / 10),
        ));
        let sampled_estimate = sampled
            .estimate_with_bindings(&instance, &instance.empty_bindings())
            .expect("estimate");
        let _ = writeln!(
            report,
            "{name}\t{}\t{:.3e}\t{}\t{:+.3e}\t{}\t{}",
            if expected_sat { "SAT" } else { "UNSAT" },
            exact_estimate.mean,
            exact.decide(&exact_estimate),
            sampled_estimate.mean,
            sampled.decide(&sampled_estimate),
            sampled_estimate.samples
        );
    }
    report
}

/// One row of the E4 assignment-extraction experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionRow {
    /// Number of variables of the instance.
    pub n: usize,
    /// Number of clauses of the instance.
    pub m: usize,
    /// NBL check operations used by Algorithm 2.
    pub checks_used: u64,
    /// Whether the returned assignment satisfies the formula.
    pub model_valid: bool,
}

/// E4 (Algorithm 2): extraction cost (in check operations) is linear in `n`,
/// and every returned assignment is a model.
pub fn assignment_extraction(num_instances: u32, seed: u64) -> (Vec<ExtractionRow>, String) {
    let mut rows = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E4 / Algorithm 2: satisfying-assignment extraction cost (paper bound: n checks)"
    );
    let _ = writeln!(report, "n\tm\tchecks_used\tmodel_valid");
    let mut produced = 0u32;
    let mut attempt = 0u64;
    while produced < num_instances {
        let n = 4 + (attempt % 5) as usize; // 4..=8 variables
        let m = (2.5 * n as f64) as usize;
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(n, m, 3).with_seed(seed + attempt))
                .expect("valid config");
        attempt += 1;
        if formula.count_satisfying_assignments() == 0 {
            continue;
        }
        let instance = NblSatInstance::new(&formula).expect("valid instance");
        let outcome = AssignmentExtractor::new(SymbolicEngine::new())
            .extract(&instance)
            .expect("satisfiable instance");
        let row = ExtractionRow {
            n,
            m,
            checks_used: outcome.checks_used,
            model_valid: formula.evaluate(outcome.assignment.as_ref().expect("minterm")),
        };
        let _ = writeln!(
            report,
            "{}\t{}\t{}\t{}",
            row.n, row.m, row.checks_used, row.model_valid
        );
        rows.push(row);
        produced += 1;
    }
    (rows, report)
}

/// E5 (§III.C): the exact S_N mean is proportional to the number of satisfying
/// minterms `K` (multiplicity-weighted).
pub fn mean_vs_k(seed: u64) -> String {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E5 / mean vs K: exact S_N mean against the (weighted) satisfying-minterm count"
    );
    let _ = writeln!(
        report,
        "instance\tn\tm\tK\tweighted_K\texact_mean\tmean/(Var^nm)"
    );
    let mut emit = |name: &str, formula: &CnfFormula| {
        let instance = NblSatInstance::new(formula).expect("valid instance");
        let engine = SymbolicEngine::new();
        let (k, weighted) = engine
            .count_models(&instance, &instance.empty_bindings())
            .expect("count");
        let mean = SymbolicEngine::new()
            .estimate(&instance, &instance.empty_bindings())
            .expect("estimate")
            .mean;
        let normalized = mean / engine.minterm_weight(&instance);
        let _ = writeln!(
            report,
            "{name}\t{}\t{}\t{k}\t{weighted:.1}\t{mean:.3e}\t{normalized:.3}",
            instance.num_vars(),
            instance.num_clauses()
        );
    };
    emit("example6", &generators::example6_sat());
    emit("example7 (UNSAT)", &generators::example7_unsat());
    emit("section4 SAT", &generators::section4_sat_instance());
    emit("section4 UNSAT", &generators::section4_unsat_instance());
    for k in 0..4u64 {
        let formula = generators::random_ksat(&RandomKSatConfig::new(4, 9, 3).with_seed(seed + k))
            .expect("valid config");
        emit(&format!("random 3-SAT #{k}"), &formula);
    }
    report
}

/// One row of the E6 hybrid-guidance experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridRow {
    /// Instance label.
    pub name: String,
    /// Whether the instance is satisfiable.
    pub satisfiable: bool,
    /// Decisions taken by the NBL-guided hybrid solver.
    pub hybrid_decisions: u64,
    /// Conflicts hit by the hybrid solver.
    pub hybrid_conflicts: u64,
    /// NBL coprocessor checks issued.
    pub coprocessor_checks: u64,
    /// Decisions taken by the plain DPLL baseline.
    pub dpll_decisions: u64,
    /// Conflicts hit by DPLL.
    pub dpll_conflicts: u64,
    /// Decisions taken by the CDCL baseline.
    pub cdcl_decisions: u64,
    /// Conflicts hit by CDCL.
    pub cdcl_conflicts: u64,
}

/// E6 (§V): NBL-guided branching vs. unguided DPLL and CDCL.
pub fn hybrid_guidance(seed: u64) -> (Vec<HybridRow>, String) {
    let mut instances: Vec<(String, CnfFormula)> = vec![
        ("pigeonhole 3→3".into(), generators::pigeonhole(3, 3)),
        ("pigeonhole 4→3".into(), generators::pigeonhole(4, 3)),
        ("parity chain n=5".into(), generators::parity_chain(5, true)),
    ];
    for (i, ratio) in [2.0f64, 3.0, 4.0, 4.5].iter().enumerate() {
        let formula = generators::random_ksat(
            &RandomKSatConfig::from_ratio(8, *ratio, 3).with_seed(seed + i as u64),
        )
        .expect("valid config");
        instances.push((format!("random 3-SAT n=8 m/n={ratio}"), formula));
    }
    let mut rows = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E6 / hybrid CPU + NBL coprocessor: guided vs unguided branching"
    );
    let _ = writeln!(
        report,
        "instance\tresult\thybrid_decisions\thybrid_conflicts\tcoproc_checks\tdpll_decisions\tdpll_conflicts\tcdcl_decisions\tcdcl_conflicts"
    );
    for (name, formula) in instances {
        let mut hybrid = HybridSolver::with_ideal_coprocessor();
        let hybrid_model = hybrid.solve(&formula).expect("coprocessor fits");
        let mut dpll = DpllSolver::new();
        let dpll_result = dpll.solve(&formula);
        let mut cdcl = CdclSolver::new();
        let cdcl_result = cdcl.solve(&formula);
        assert_eq!(hybrid_model.is_some(), dpll_result.is_sat());
        assert_eq!(hybrid_model.is_some(), cdcl_result.is_sat());
        let row = HybridRow {
            name: name.clone(),
            satisfiable: hybrid_model.is_some(),
            hybrid_decisions: hybrid.stats().decisions,
            hybrid_conflicts: hybrid.stats().conflicts,
            coprocessor_checks: hybrid.stats().coprocessor_checks,
            dpll_decisions: dpll.stats().decisions,
            dpll_conflicts: dpll.stats().conflicts,
            cdcl_decisions: cdcl.stats().decisions,
            cdcl_conflicts: cdcl.stats().conflicts,
        };
        let _ = writeln!(
            report,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.name,
            if row.satisfiable { "SAT" } else { "UNSAT" },
            row.hybrid_decisions,
            row.hybrid_conflicts,
            row.coprocessor_checks,
            row.dpll_decisions,
            row.dpll_conflicts,
            row.cdcl_decisions,
            row.cdcl_conflicts
        );
        rows.push(row);
    }
    (rows, report)
}

/// One row of the E7 carrier-ablation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CarrierRow {
    /// Carrier family.
    pub carrier: CarrierKind,
    /// Mean estimated on the satisfiable instance.
    pub sat_mean: f64,
    /// Verdict reached on the satisfiable instance.
    pub sat_correct: bool,
    /// Mean estimated on the unsatisfiable instance.
    pub unsat_mean: f64,
    /// Verdict reached on the unsatisfiable instance.
    pub unsat_correct: bool,
}

/// E7 (§V realizations): the same SAT check under uniform, Gaussian, RTW and
/// sinusoidal carriers.
pub fn carrier_ablation(samples: u64, seed: u64) -> (Vec<CarrierRow>, String) {
    let sat = NblSatInstance::new(&generators::example6_sat()).expect("valid instance");
    let unsat = NblSatInstance::new(&generators::example7_unsat()).expect("valid instance");
    let mut rows = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E7 / carrier ablation: Example 6 (SAT) and Example 7 (UNSAT) under every carrier family"
    );
    let _ = writeln!(
        report,
        "carrier\tsat_mean\tsat_verdict_correct\tunsat_mean\tunsat_verdict_correct"
    );
    for kind in CarrierKind::all() {
        let config = EngineConfig::new()
            .with_carrier(kind)
            .with_seed(seed)
            .with_max_samples(samples)
            .with_check_interval(samples / 10);
        let mut checker = SatChecker::new(SampledEngine::new(config));
        let sat_est = checker
            .estimate_with_bindings(&sat, &sat.empty_bindings())
            .expect("estimate");
        let unsat_est = checker
            .estimate_with_bindings(&unsat, &unsat.empty_bindings())
            .expect("estimate");
        let row = CarrierRow {
            carrier: kind,
            sat_mean: sat_est.mean,
            sat_correct: checker.decide(&sat_est).is_sat(),
            unsat_mean: unsat_est.mean,
            unsat_correct: !checker.decide(&unsat_est).is_sat(),
        };
        let _ = writeln!(
            report,
            "{}\t{:+.3e}\t{}\t{:+.3e}\t{}",
            row.carrier, row.sat_mean, row.sat_correct, row.unsat_mean, row.unsat_correct
        );
        rows.push(row);
    }
    let _ = writeln!(
        report,
        "# note: sinusoidal carriers with consecutive integer frequencies suffer product-frequency\n\
         # collisions for n·m ≥ 4 and may mis-rank instances — the carrier-planning caveat of §V."
    );
    (rows, report)
}

/// How many identical estimates [`cost_scaling`] times per row; it prints
/// their median.
const COST_SCALING_RUNS: usize = 5;

/// E8 (§III.F): the O(2^{nm}) product count and the software engine's
/// per-sample cost across instance sizes. Each row's cost is the median of
/// five identical estimates, each on a fresh engine.
pub fn cost_scaling(seed: u64) -> String {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E8 / cost model: NBL product-term count (O(2^nm)) and per-sample simulation cost \
         (median of {COST_SCALING_RUNS} identical estimates)"
    );
    let _ = writeln!(
        report,
        "n\tm\tnm\tnoise_sources\tproduct_terms\tns_per_sample"
    );
    for (n, m) in [(2usize, 2usize), (2, 4), (3, 4), (4, 6), (5, 10), (6, 12)] {
        let formula =
            generators::random_ksat(&RandomKSatConfig::new(n, m, 3.min(n)).with_seed(seed))
                .expect("valid config");
        let instance = NblSatInstance::new(&formula).expect("valid instance");
        let samples = 20_000u64;
        let config = EngineConfig::new()
            .with_seed(seed)
            .with_max_samples(samples)
            .with_check_interval(samples);
        let mut elapsed: Vec<std::time::Duration> = (0..COST_SCALING_RUNS)
            .map(|_| {
                let start = std::time::Instant::now();
                let mut engine = SampledEngine::new(config);
                let _ = engine
                    .estimate(&instance, &instance.empty_bindings())
                    .expect("estimate");
                start.elapsed()
            })
            .collect();
        elapsed.sort();
        let median = elapsed[COST_SCALING_RUNS / 2];
        let _ = writeln!(
            report,
            "{}\t{}\t{}\t{}\t{:.3e}\t{:.0}",
            n,
            m,
            n * m,
            instance.num_sources(),
            instance.product_term_count(&instance.empty_bindings()),
            median.as_nanos() as f64 / samples as f64
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_traces_have_the_expected_shape() {
        let (sat, unsat, report) = fig1_convergence(20_000, 3);
        assert_eq!(sat.final_samples(), Some(20_000));
        assert_eq!(unsat.final_samples(), Some(20_000));
        assert!(report.contains("Figure 1"));
        assert!(report.lines().count() > 10);
    }

    #[test]
    fn snr_rows_cover_every_shape_and_sample_count() {
        let (rows, report) = snr_scaling(&[5_000, 20_000], 3, 7);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.predicted_snr > 0.0));
        // Larger sample budgets never decrease the predicted SNR.
        for pair in rows.chunks(2) {
            assert!(pair[1].predicted_snr >= pair[0].predicted_snr);
        }
        assert!(report.contains("predicted_snr"));
    }

    #[test]
    fn worked_examples_report_matches_expectations() {
        let report = worked_examples(30_000, 5);
        assert!(report.contains("Example 6"));
        assert!(report.contains("Example 7"));
        // The exact engine's verdict column must show SAT for example 6 and
        // UNSAT for example 7.
        let line6 = report.lines().find(|l| l.starts_with("Example 6")).unwrap();
        assert!(line6.contains("SAT"));
        let line7 = report.lines().find(|l| l.starts_with("Example 7")).unwrap();
        assert!(line7.contains("UNSAT"));
    }

    #[test]
    fn extraction_rows_respect_the_linear_bound() {
        let (rows, _) = assignment_extraction(5, 11);
        assert_eq!(rows.len(), 5);
        for row in rows {
            assert!(row.model_valid);
            assert_eq!(row.checks_used, row.n as u64);
        }
    }

    #[test]
    fn mean_vs_k_reports_zero_for_unsat() {
        let report = mean_vs_k(5);
        let unsat_line = report.lines().find(|l| l.starts_with("example7")).unwrap();
        assert!(unsat_line.contains("\t0\t"));
    }

    #[test]
    fn hybrid_rows_agree_on_satisfiability() {
        let (rows, report) = hybrid_guidance(3);
        assert!(rows.len() >= 6);
        for row in &rows {
            if row.satisfiable {
                assert_eq!(row.hybrid_conflicts, 0, "{}", row.name);
            }
        }
        assert!(report.contains("coproc_checks"));
    }

    #[test]
    fn carrier_ablation_stochastic_families_are_correct() {
        let (rows, _) = carrier_ablation(40_000, 9);
        for row in rows {
            if row.carrier != CarrierKind::Sinusoid {
                assert!(row.sat_correct, "{:?}", row.carrier);
                assert!(row.unsat_correct, "{:?}", row.carrier);
            }
        }
    }

    #[test]
    fn cost_scaling_reports_all_rows() {
        let report = cost_scaling(1);
        assert_eq!(report.lines().count(), 2 + 6);
    }
}
