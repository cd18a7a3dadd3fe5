//! The four workloads as seeded request lists, the renamer used for
//! resubmissions, and the ground truth every answer is checked against.
//!
//! Why each workload exists, and which layer it isolates, is recorded in
//! `BENCHMARK.json` and `satd-bench/README.md`.

use cnf::generators::{
    adder_equivalence_miter, buggy_adder_miter, example6_sat, example7_unsat, pigeonhole,
    random_ksat, running_example, section4_sat_instance, section4_unsat_instance, RandomKSatConfig,
};
use cnf::{dimacs, fingerprint, preprocess, Clause, CnfFormula, PreprocessOutcome, Variable};
use nbl_circuit::{atpg_sweep, fault_list, library};
use nbl_net::SolveFrame;
use nbl_sat_core::{Artifacts, BackendRegistry, SolveRequest, SolveVerdict};
use std::collections::{HashMap, HashSet};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NblPaper,
    CdclThreshold,
    StructuredResubmit,
    SmallBurst,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "nbl-paper" => Some(Workload::NblPaper),
            "cdcl-threshold" => Some(Workload::CdclThreshold),
            "structured-resubmit" => Some(Workload::StructuredResubmit),
            "small-burst" => Some(Workload::SmallBurst),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NblPaper => "nbl-paper",
            Workload::CdclThreshold => "cdcl-threshold",
            Workload::StructuredResubmit => "structured-resubmit",
            Workload::SmallBurst => "small-burst",
        }
    }

    /// Requests a run sends per second of `--seconds`. A run is sized by
    /// request count, not by a clock: the count fixes the tail percentile,
    /// the verdict-cache fill and the per-connection job map (so the peak
    /// RSS), which a clock-sized run would let drift with machine speed.
    /// The rates are the closed-loop rates measured on a 2-vCPU x86-64 VM,
    /// so a run lasts about `--seconds` there.
    fn requests_per_second(self) -> f64 {
        match self {
            Workload::NblPaper => 46.0,
            Workload::CdclThreshold => 54.0,
            Workload::StructuredResubmit => 18.0,
            Workload::SmallBurst => 4400.0,
        }
    }

    /// `(load threads, outstanding requests per thread)` on the one
    /// connection. Only `small-burst` keeps more requests in flight than
    /// the server has workers (2), so only it builds a queue.
    pub fn concurrency(self) -> (usize, usize) {
        match self {
            Workload::SmallBurst => (2, 2),
            _ => (1, 1),
        }
    }
}

/// How a request's formula relates to earlier requests of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// First time this formula (up to renaming) is sent.
    Fresh,
    /// The same text as an earlier request.
    Verbatim,
    /// An earlier request's formula under a variable permutation with
    /// shuffled clauses and literals.
    Renamed,
}

/// One request of a run.
#[derive(Debug)]
pub struct Request {
    /// Where the formula came from, for reports.
    pub label: String,
    /// Registry name of the backend the request asks for.
    pub backend: &'static str,
    /// The `SOLVE` frame exactly as sent.
    pub frame: SolveFrame,
    /// The frame's DIMACS body parsed back: the formula exactly as sent.
    pub formula: CnfFormula,
    pub submission: Submission,
    /// The verdict the construction fixes, where it fixes one.
    pub by_construction: Option<bool>,
    /// Whether preprocessing answers the request without a backend (only
    /// computed for `nbl-paper`, whose dispatch count is checked).
    pub presolved: bool,
    /// Ground truth (satisfiable?), filled in by [`ground_truth`].
    pub truth: Option<bool>,
}

impl Request {
    fn new(label: String, backend: &'static str, formula: &CnfFormula, seed: u64) -> Self {
        let mut frame = SolveFrame::new(backend, &dimacs::to_string(formula));
        frame.seed = seed;
        let formula = dimacs::parse_str(&frame.dimacs()).expect("generated DIMACS parses");
        Request {
            label,
            backend,
            frame,
            formula,
            submission: Submission::Fresh,
            by_construction: None,
            presolved: false,
            truth: None,
        }
    }
}

/// Backends whose verdicts are exact: a wrong answer from one of them is a
/// bug, and aborts the run.
pub fn is_complete(backend: &str) -> bool {
    matches!(backend, "cdcl" | "nbl-symbolic" | "hybrid-symbolic")
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend only on
/// `--seed` and not on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Builds the request list of one run of `workload`.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Vec<Request> {
    let count = (seconds as f64 * workload.requests_per_second())
        .round()
        .max(1.0) as usize;
    let mut rng = Rng::new(seed);
    match workload {
        Workload::NblPaper => nbl_paper(&mut rng, count),
        Workload::CdclThreshold => cdcl_threshold(&mut rng, count),
        Workload::StructuredResubmit => structured_resubmit(&mut rng, count),
        Workload::SmallBurst => small_burst(&mut rng, count),
    }
}

fn random_3sat(num_vars: usize, alpha: f64, rng: &mut Rng) -> CnfFormula {
    let config = RandomKSatConfig::from_ratio(num_vars, alpha, 3).with_seed(rng.next_u64());
    random_ksat(&config).expect("valid random 3-SAT configuration")
}

/// The canonical cache key the server computes for `formula`, or `None`
/// when preprocessing answers it outright (it never reaches the cache).
fn cache_key(formula: &CnfFormula) -> Option<u64> {
    match preprocess(formula).outcome {
        PreprocessOutcome::Reduced { formula, .. } => Some(fingerprint(&formula)),
        PreprocessOutcome::Satisfiable(_) | PreprocessOutcome::Unsatisfiable => None,
    }
}

/// `(backend, n, alpha)` of the random `nbl-paper` requests, cycled in
/// order. Each class costs 5–55 ms per request, and the costliest tenth of
/// the requests comes from narrow classes (`nbl-sampled` at n = 5–6,
/// `nbl-symbolic` at n = 18), so the tail sits in a dense part of the
/// distribution instead of on a few outliers (`hybrid-symbolic` at n = 15
/// would spread it over 15–60 ms). `nbl-sampled` runs at n = 4–6: n = 3 has
/// too few distinct formulas to draw from, and at n = 6 above α = 4 it
/// answers `UNKNOWN` after ~0.5 s. `hybrid-sampled` (0.1–3 s per random
/// formula) only sees a worked example.
const NBL_CLASSES: [(&str, usize, f64); 19] = [
    ("nbl-sampled", 4, 3.0),
    ("nbl-sampled", 4, 4.26),
    ("nbl-sampled", 4, 5.0),
    ("nbl-sampled", 5, 3.0),
    ("nbl-sampled", 5, 4.26),
    ("nbl-sampled", 5, 5.0),
    ("nbl-sampled", 6, 3.0),
    ("nbl-symbolic", 17, 3.0),
    ("nbl-symbolic", 17, 4.26),
    ("nbl-symbolic", 17, 5.0),
    ("nbl-symbolic", 18, 3.0),
    ("nbl-symbolic", 18, 4.26),
    ("nbl-symbolic", 18, 5.0),
    ("hybrid-symbolic", 13, 3.0),
    ("hybrid-symbolic", 13, 4.26),
    ("hybrid-symbolic", 13, 5.0),
    ("hybrid-symbolic", 14, 3.0),
    ("hybrid-symbolic", 14, 4.26),
    ("hybrid-symbolic", 14, 5.0),
];

/// The paper's §III/§IV worked examples, each sent once to one backend, with
/// the verdict the paper gives.
fn worked_examples() -> [(&'static str, CnfFormula, &'static str, bool); 5] {
    [
        ("running-example", running_example(), "nbl-symbolic", true),
        ("example6", example6_sat(), "hybrid-sampled", true),
        ("example7", example7_unsat(), "nbl-sampled", false),
        ("s4-unsat", section4_unsat_instance(), "nbl-sampled", false),
        ("s4-sat", section4_sat_instance(), "nbl-sampled", true),
    ]
}

fn nbl_paper(rng: &mut Rng, count: usize) -> Vec<Request> {
    let mut requests = Vec::with_capacity(count);
    // Every formula reaches the cache at most once, so no answer is served
    // from a verdict another backend produced (see README.md, cache hygiene).
    let mut seen = HashSet::new();
    for (label, formula, backend, sat) in worked_examples() {
        let mut request = Request::new(label.to_owned(), backend, &formula, rng.next_u64());
        request.by_construction = Some(sat);
        match cache_key(&request.formula) {
            Some(key) => {
                seen.insert(key);
            }
            None => request.presolved = true,
        }
        requests.push(request);
    }
    let mut class = 0;
    while requests.len() < count {
        let (backend, num_vars, alpha) = NBL_CLASSES[class % NBL_CLASSES.len()];
        let formula = random_3sat(num_vars, alpha, rng);
        // Only formulas a backend must decide, each up to renaming once.
        if cache_key(&formula).is_some_and(|key| seen.insert(key)) {
            let label = format!("{backend} n={num_vars} a={alpha}");
            requests.push(Request::new(label, backend, &formula, rng.next_u64()));
            class += 1;
        }
    }
    requests
}

/// `(n, alpha)` of the `cdcl-threshold` requests, cycled in order: below, at
/// and above the random 3-SAT phase transition.
const THRESHOLD_CLASSES: [(usize, f64); 9] = [
    (100, 3.8),
    (100, 4.26),
    (100, 4.6),
    (125, 3.8),
    (125, 4.26),
    (125, 4.6),
    (150, 3.8),
    (150, 4.26),
    (150, 4.6),
];

fn cdcl_threshold(rng: &mut Rng, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let (num_vars, alpha) = THRESHOLD_CLASSES[i % THRESHOLD_CLASSES.len()];
            let formula = random_3sat(num_vars, alpha, rng);
            let label = format!("r3sat n={num_vars} a={alpha}");
            Request::new(label, "cdcl", &formula, 0)
        })
        .collect()
}

/// The structured bases, each preprocessing in 5–150 ms: adder equivalence
/// miters (UNSAT), buggy adder miters over the upper half of their bug
/// positions (SAT; low bug bits cost up to 10x more), pigeonhole `php(p,
/// p-1)` (UNSAT; p = 8 spends 200 ms in search) and full-fault-list ATPG
/// sweeps (SAT iff a fault is testable; left to the ground truth). Larger
/// ATPG sweeps (rca6: 1.2 s) would set the tail alone.
fn structured_bases() -> Vec<(String, CnfFormula, Option<bool>)> {
    let mut bases = Vec::new();
    for width in 4..=6 {
        let label = format!("adder-eq w={width}");
        bases.push((label, adder_equivalence_miter(width), Some(false)));
    }
    for width in 6..=16 {
        for bit in width / 2..width {
            let label = format!("adder-bug w={width} bit={bit}");
            bases.push((label, buggy_adder_miter(width, bit), Some(true)));
        }
    }
    for pigeons in 5..=7 {
        let label = format!("php({pigeons},{})", pigeons - 1);
        bases.push((label, pigeonhole(pigeons, pigeons - 1), Some(false)));
    }
    let circuits = [
        ("rca4", library::ripple_carry_adder(4)),
        ("mul3", library::array_multiplier(3)),
        ("mul4", library::array_multiplier(4)),
    ];
    for (name, circuit) in circuits {
        let sweep = atpg_sweep(&circuit, &fault_list(&circuit)).expect("library circuits sweep");
        bases.push((format!("atpg {name}"), sweep.formula().clone(), None));
    }
    bases
}

/// Each base is sent three times: fresh, verbatim, renamed. A run of 12 s
/// sends all 72 bases, so the seed changes the order and the renamings but
/// not which formulas the cache has to hold (which moves the peak RSS). The
/// copies
/// trail by one and two places (`F0 F1 V0 F2 V1 R0 F3 V2 R1 ...`), so every
/// resubmission meets a warm cache entry while requests stay interleaved.
fn structured_resubmit(rng: &mut Rng, count: usize) -> Vec<Request> {
    let mut bases = structured_bases();
    rng.shuffle(&mut bases);
    bases.truncate(count.div_ceil(3).max(1));
    let fresh: Vec<Request> = bases
        .iter()
        .map(|(label, formula, sat)| {
            let mut request = Request::new(label.clone(), "cdcl", formula, 0);
            request.by_construction = *sat;
            request
        })
        .collect();
    let copy = |base: &Request, formula: &CnfFormula, submission| {
        let mut request = Request::new(base.label.clone(), "cdcl", formula, 0);
        request.by_construction = base.by_construction;
        request.submission = submission;
        request
    };
    let mut requests = Vec::with_capacity(3 * fresh.len());
    for step in 0..fresh.len() + 2 {
        if let Some(base) = fresh.get(step) {
            requests.push(copy(base, &base.formula, Submission::Fresh));
        }
        if let Some(base) = step.checked_sub(1).and_then(|i| fresh.get(i)) {
            requests.push(copy(base, &base.formula, Submission::Verbatim));
        }
        if let Some(base) = step.checked_sub(2).and_then(|i| fresh.get(i)) {
            let (renamed, _) = rename(&base.formula, rng);
            requests.push(copy(base, &renamed, Submission::Renamed));
        }
    }
    requests
}

fn small_burst(rng: &mut Rng, count: usize) -> Vec<Request> {
    let mut requests = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut num_vars = 8;
    while requests.len() < count {
        let formula = random_3sat(num_vars, 3.0, rng);
        // Distinct up to renaming, so the verdict cache never answers.
        if cache_key(&formula).is_none_or(|key| seen.insert(key)) {
            let label = format!("r3sat n={num_vars} a=3");
            requests.push(Request::new(label, "cdcl", &formula, 0));
            num_vars = if num_vars == 20 { 8 } else { num_vars + 1 };
        }
    }
    requests
}

/// Renames `formula`: a seeded variable permutation plus shuffled clauses
/// and shuffled literals inside each clause. Returns the renamed formula and
/// the permutation (`perm[old] = new`). Polarities are kept: the canonical
/// cache key depends on literal phase, so a phase-flipped copy is a
/// different key, not a renamed resubmission.
pub fn rename(formula: &CnfFormula, rng: &mut Rng) -> (CnfFormula, Vec<Variable>) {
    let mut perm: Vec<Variable> = (0..formula.num_vars()).map(Variable::new).collect();
    rng.shuffle(&mut perm);
    let mut clauses: Vec<Clause> = formula
        .iter()
        .map(|clause| {
            let mut literals: Vec<_> = clause
                .iter()
                .map(|lit| perm[lit.variable().index()].literal(lit.phase()))
                .collect();
            rng.shuffle(&mut literals);
            literals.into_iter().collect()
        })
        .collect();
    rng.shuffle(&mut clauses);
    (CnfFormula::from_clauses(formula.num_vars(), clauses), perm)
}

/// Solves `formula` with in-process `cdcl` (no pipeline, no cache) and
/// returns whether it is satisfiable, checking the model of a SAT answer.
fn cdcl_truth(registry: &BackendRegistry, formula: &CnfFormula) -> Result<bool, String> {
    let request = SolveRequest::new(formula).artifacts(Artifacts::Model);
    let mut backend = registry.create("cdcl").map_err(|e| e.to_string())?;
    let outcome = backend.solve(&request).map_err(|e| e.to_string())?;
    match outcome.verdict {
        SolveVerdict::Satisfiable => match &outcome.model {
            Some(model) if formula.evaluate(model) => Ok(true),
            _ => Err("in-process cdcl returned SAT without a valid model".to_owned()),
        },
        SolveVerdict::Unsatisfiable => Ok(false),
        SolveVerdict::Unknown(cause) => Err(format!("in-process cdcl returned {cause:?}")),
    }
}

/// Fills in every request's ground truth with in-process `cdcl`, split over
/// two threads, and cross-checks it against the verdict the construction
/// fixes. Verbatim resubmissions reuse their fresh twin's answer.
pub fn ground_truth(requests: &mut [Request]) -> Result<(), String> {
    let todo: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].submission != Submission::Verbatim)
        .collect();
    let registry = BackendRegistry::default();
    let shared: &[Request] = requests;
    let answers: Vec<(usize, Result<bool, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|offset| {
                let (todo, registry) = (&todo, &registry);
                scope.spawn(move || {
                    todo.iter()
                        .skip(offset)
                        .step_by(2)
                        .map(|&i| (i, cdcl_truth(registry, &shared[i].formula)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("ground-truth thread panicked"))
            .collect()
    });
    for (i, answer) in answers {
        let request = &mut requests[i];
        let sat = answer.map_err(|e| format!("{}: {e}", request.label))?;
        if request
            .by_construction
            .is_some_and(|expected| expected != sat)
        {
            return Err(format!(
                "{}: in-process cdcl says sat={sat}, the construction says otherwise",
                request.label
            ));
        }
        request.truth = Some(sat);
    }
    let fresh: HashMap<String, Option<bool>> = requests
        .iter()
        .filter(|r| r.submission == Submission::Fresh)
        .map(|r| (r.label.clone(), r.truth))
        .collect();
    for request in requests.iter_mut() {
        if request.submission == Submission::Verbatim {
            request.truth = fresh[&request.label];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Assignment;

    #[test]
    fn renaming_keeps_the_verdict_and_maps_models() {
        let registry = BackendRegistry::default();
        let mut rng = Rng::new(7);
        let sat = buggy_adder_miter(6, 4);
        let unsat = pigeonhole(5, 4);
        for (formula, expected) in [(sat, true), (unsat, false)] {
            let (renamed, perm) = rename(&formula, &mut rng);
            assert_ne!(renamed, formula);
            assert_eq!(renamed.num_clauses(), formula.num_clauses());
            assert_eq!(cdcl_truth(&registry, &renamed), Ok(expected));
            if expected {
                let outcome = registry
                    .create("cdcl")
                    .unwrap()
                    .solve(&SolveRequest::new(&formula).artifacts(Artifacts::Model))
                    .unwrap();
                let model = outcome.model.unwrap();
                let mut mapped = Assignment::all_false(renamed.num_vars());
                for (var, value) in model.iter() {
                    mapped.set(perm[var.index()], value);
                }
                assert!(renamed.evaluate(&mapped));
            }
        }
    }

    #[test]
    fn renaming_never_flips_a_polarity() {
        let formula = random_3sat(20, 4.26, &mut Rng::new(1));
        let (renamed, perm) = rename(&formula, &mut Rng::new(2));
        let count = |f: &CnfFormula, positive: bool| {
            f.iter()
                .flat_map(|c| c.iter())
                .filter(|l| l.is_positive() == positive)
                .count()
        };
        assert_eq!(count(&renamed, true), count(&formula, true));
        let mut inverse = vec![0; perm.len()];
        for (old, new) in perm.iter().enumerate() {
            inverse[new.index()] = old;
        }
        let back: Vec<Clause> = renamed
            .iter()
            .map(|c| {
                c.iter()
                    .map(|l| Variable::new(inverse[l.variable().index()]).literal(l.phase()))
                    .collect()
            })
            .collect();
        let normal = |f: &CnfFormula| cnf::normalize(f);
        assert_eq!(
            normal(&CnfFormula::from_clauses(formula.num_vars(), back)),
            normal(&formula)
        );
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for workload in [Workload::NblPaper, Workload::SmallBurst] {
            let a = build(workload, 3, 1);
            let b = build(workload, 3, 1);
            let c = build(workload, 4, 1);
            let bodies = |r: &[Request]| r.iter().map(|q| q.frame.clone()).collect::<Vec<_>>();
            assert_eq!(bodies(&a), bodies(&b));
            assert_ne!(bodies(&a), bodies(&c));
        }
    }

    #[test]
    fn no_two_requests_share_a_cache_key_where_hits_are_ruled_out() {
        for workload in [Workload::NblPaper, Workload::SmallBurst] {
            let requests = build(workload, 11, 1);
            let mut keys = HashSet::new();
            for request in &requests {
                if let Some(key) = cache_key(&request.formula) {
                    assert!(keys.insert(key), "{} repeats a key", request.label);
                }
            }
        }
    }
}
