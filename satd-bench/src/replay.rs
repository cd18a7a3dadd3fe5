//! The traced run: the request list replayed in order, in-process and
//! single-threaded, through the public calls the server makes for a
//! `SOLVE`, with one span per call. Spans wrap only the program's entry
//! points and never re-implement a stage, so a change inside a stage shows
//! up in that stage's self time.

use crate::load::Reply;
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::Request;
use cnf::{canonicalize, dimacs, normalize, simplify};
use nbl_net::{Frame, WireVerdict};
use nbl_sat_core::{
    BackendRegistry, PipelineConfig, PipelineDecision, SolvePipeline, SolveRequest, SolveVerdict,
};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Spans of one request share its index as trace id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn with_capacity(capacity: usize) -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn open(&mut self, name: &'static str, trace: usize, parent: Option<usize>) -> usize {
        let start = self.base.elapsed();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.base.elapsed();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.trace,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-request stage times of the replay.
#[derive(Debug, Default)]
pub struct Stages {
    /// `Frame::read_from` + `dimacs::parse_str`.
    pub decode: Duration,
    pub prepare: Duration,
    /// `BackendRegistry::create(..)?.solve(..)`, when the request dispatched.
    pub solve: Option<Duration>,
    pub complete: Option<Duration>,
    /// `Frame::write_to` of the `v`/`RESULT` frames.
    pub encode: Duration,
    /// The whole replayed request (the root span).
    pub total: Duration,
    /// `cnf::canonicalize` on the normalized residual, timed outside the
    /// span tree; `None` when preprocessing decides the formula first.
    pub canonicalize: Option<Duration>,
    pub conflicts: u64,
    pub propagations: u64,
    pub samples: u64,
    pub checks: u64,
}

impl Stages {
    /// The time the spans under the root account for.
    fn span_sum(&self) -> Duration {
        self.decode
            + self.prepare
            + self.solve.unwrap_or_default()
            + self.complete.unwrap_or_default()
            + self.encode
    }
}

#[derive(Debug)]
pub struct Replay {
    pub stages: Vec<Stages>,
    pub tracer: Tracer,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Cost of recording one span, calibrated on this machine.
    pub span_cost: Duration,
}

/// Replays `requests` in order through a pipeline configured like the
/// server's (preprocessing on, default cache capacity) and the default
/// registry.
pub fn replay(requests: &[Request]) -> Result<Replay, String> {
    let pipeline = SolvePipeline::new(PipelineConfig::new().with_default_cache());
    let registry = BackendRegistry::default();
    // The bytes on the wire, encoded before any span opens.
    let wire: Vec<String> = requests
        .iter()
        .map(|r| Frame::Solve(r.frame.clone()).encode())
        .collect();
    let mut tracer = Tracer::with_capacity(7 * requests.len());
    let mut sink = Vec::new();
    let mut stages = Vec::with_capacity(requests.len());
    for (i, bytes) in wire.iter().enumerate() {
        let mut stage = Stages::default();
        let root = tracer.open("request", i, None);

        let span = tracer.open("net.read_frame", i, Some(root));
        let frame = Frame::read_from(&mut bytes.as_bytes());
        tracer.close(span);
        let Ok(Some(Frame::Solve(solve))) = frame else {
            return Err(format!(
                "request {i}: the encoded SOLVE frame does not decode"
            ));
        };
        let span_parse = tracer.open("net.parse_dimacs", i, Some(root));
        let formula = dimacs::parse_str(&solve.dimacs());
        tracer.close(span_parse);
        let formula = formula.map_err(|e| format!("request {i}: dimacs: {e}"))?;
        stage.decode = duration(&tracer, span) + duration(&tracer, span_parse);

        let request = SolveRequest::new(&formula)
            .artifacts(solve.artifacts.into())
            .seed(solve.seed)
            .budget(solve.budget());
        let span = tracer.open("pipeline.prepare", i, Some(root));
        let decision = pipeline.prepare(&request);
        tracer.close(span);
        stage.prepare = duration(&tracer, span);

        let outcome = match decision {
            PipelineDecision::Resolved(outcome) => outcome,
            PipelineDecision::Dispatch(prepared) => {
                let span = tracer.open("backend.solve", i, Some(root));
                let started = Instant::now();
                let solved = registry
                    .create(&solve.backend)
                    .and_then(|mut backend| backend.solve(&prepared.request(&request)));
                let latency = started.elapsed();
                tracer.close(span);
                stage.solve = Some(duration(&tracer, span));
                let solved = solved.map_err(|e| format!("request {i}: {e}"))?;
                stage.conflicts = solved.stats.conflicts;
                stage.propagations = solved.stats.propagations;
                stage.samples = solved.stats.samples;
                stage.checks = solved.stats.coprocessor_checks;
                let span = tracer.open("pipeline.complete", i, Some(root));
                let outcome = pipeline.complete(prepared, solved, &solve.backend, latency);
                tracer.close(span);
                stage.complete = Some(duration(&tracer, span));
                outcome
            }
        };

        let span = tracer.open("net.write_frames", i, Some(root));
        sink.clear();
        let job = i as u64;
        if let Some(model) = &outcome.model {
            let literals = model
                .iter()
                .map(|(var, value)| {
                    let dimacs = (var.index() + 1) as i64;
                    if value {
                        dimacs
                    } else {
                        -dimacs
                    }
                })
                .collect();
            Frame::Model { job, literals }
                .write_to(&mut sink)
                .map_err(|e| e.to_string())?;
        }
        let verdict = match outcome.verdict {
            SolveVerdict::Satisfiable => WireVerdict::Satisfiable,
            SolveVerdict::Unsatisfiable => WireVerdict::Unsatisfiable,
            SolveVerdict::Unknown(cause) => WireVerdict::Unknown(cause.into()),
        };
        Frame::Result { job, verdict }
            .write_to(&mut sink)
            .map_err(|e| e.to_string())?;
        tracer.close(span);
        stage.encode = duration(&tracer, span);
        tracer.close(root);
        stage.total = duration(&tracer, root);

        stage.canonicalize = canonicalize_time(&formula);
        stages.push(stage);
    }
    let cache = pipeline.cache_stats().unwrap_or_default();
    Ok(Replay {
        stages,
        tracer,
        cache_hits: cache.hits,
        cache_lookups: cache.hits + cache.misses,
        span_cost: span_cost(),
    })
}

fn duration(tracer: &Tracer, id: usize) -> Duration {
    let span = tracer.spans[id];
    span.end.saturating_sub(span.start)
}

/// Times `cnf::canonicalize` on the residual `cnf::preprocess` would
/// canonicalize, for the requests whose residual reaches it.
fn canonicalize_time(formula: &cnf::CnfFormula) -> Option<Duration> {
    let normalized = normalize(formula);
    if normalized.has_empty_clause() {
        return None;
    }
    let (residual, report) = simplify(&normalized);
    if report.proved_sat || report.proved_unsat {
        return None;
    }
    let residual = normalize(&residual);
    let started = Instant::now();
    black_box(canonicalize(black_box(&residual)));
    Some(started.elapsed())
}

/// The cost of recording one span (open + close), measured over a batch.
fn span_cost() -> Duration {
    const BATCH: usize = 100_000;
    let mut tracer = Tracer::with_capacity(BATCH);
    let started = Instant::now();
    for i in 0..BATCH {
        let span = tracer.open("calibration", i, None);
        tracer.close(black_box(span));
    }
    started.elapsed() / BATCH as u32
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Share of `part` in `whole`, in percent.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `numerator / denominator`, or 0 when the layer did no work this run.
fn rate(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced run. Each stage is reported as its
/// median over the requests it ran for, and as its share of the untraced
/// wire latency summed over all requests.
pub fn layer_metrics(
    requests: &[Request],
    replies: &[Reply],
    replay: &Replay,
    connect: &[Duration],
) -> Vec<Metric> {
    let stages = &replay.stages;
    let wire: Vec<f64> = replies.iter().map(|r| micros(r.latency)).collect();
    let wire_total: f64 = wire.iter().sum();
    let stage = |pick: &dyn Fn(&Stages) -> Option<Duration>| -> (f64, f64) {
        let times: Vec<f64> = stages.iter().filter_map(pick).map(micros).collect();
        (median(&times), share(times.iter().sum(), wire_total))
    };
    let (decode, decode_share) = stage(&|s| Some(s.decode));
    let (encode, encode_share) = stage(&|s| Some(s.encode));
    let (prepare, prepare_share) = stage(&|s| Some(s.prepare));
    let (canon, canon_share) = stage(&|s| s.canonicalize);
    let (complete, complete_share) = stage(&|s| s.complete);
    let (solve, solve_share) = stage(&|s| s.solve);
    let residuals: Vec<f64> = stages
        .iter()
        .zip(&wire)
        .map(|(s, w)| w - micros(s.span_sum()))
        .collect();
    let (tail_p, _) = tail_percentile(wire.len());
    let tail_cut = percentile(&wire, tail_p);
    let (tail_solve, tail_wire) = stages
        .iter()
        .zip(&wire)
        .filter(|(_, &w)| w >= tail_cut)
        .fold((0.0, 0.0), |(s, t), (stage, w)| {
            (s + micros(stage.solve.unwrap_or_default()), t + w)
        });

    let sum_over = |backends: &[&str], pick: &dyn Fn(&Stages) -> f64| -> f64 {
        requests
            .iter()
            .zip(stages)
            .filter(|(r, s)| s.solve.is_some() && backends.contains(&r.backend))
            .map(|(_, s)| pick(s))
            .sum()
    };
    let cdcl = ["cdcl"];
    let cdcl_seconds = sum_over(&cdcl, &|s| s.solve.unwrap_or_default().as_secs_f64());
    let sampled = ["nbl-sampled", "hybrid-sampled"];
    let sampled_seconds = sum_over(&sampled, &|s| s.solve.unwrap_or_default().as_secs_f64());
    let sampled_samples = sum_over(&sampled, &|s| s.samples as f64);
    let sampled_checks = sum_over(&sampled, &|s| s.checks as f64);
    let nbl = [
        "nbl-sampled",
        "hybrid-sampled",
        "nbl-symbolic",
        "hybrid-symbolic",
    ];
    let nbl_solves = sum_over(&nbl, &|_| 1.0);
    let nbl_checks = sum_over(&nbl, &|s| s.checks as f64);

    let spans = replay.tracer.spans.len() as f64;
    let overhead_total = spans * micros(replay.span_cost);
    let replay_total: f64 = stages.iter().map(|s| micros(s.total)).sum();
    let connect_ms: Vec<f64> = connect.iter().map(|d| d.as_secs_f64() * 1e3).collect();

    vec![
        ("net.connect_ms", median(&connect_ms), "ms"),
        ("net.decode_us", decode, "us"),
        ("net.decode_share", decode_share, "%"),
        ("net.encode_us", encode, "us"),
        ("net.encode_share", encode_share, "%"),
        ("service.residual_us", median(&residuals), "us"),
        (
            "service.residual_share",
            share(residuals.iter().sum(), wire_total),
            "%",
        ),
        ("pipeline.prepare_us", prepare, "us"),
        ("pipeline.prepare_share", prepare_share, "%"),
        ("pipeline.canonicalize_us", canon, "us"),
        ("pipeline.canonicalize_share", canon_share, "%"),
        ("pipeline.complete_us", complete, "us"),
        ("pipeline.complete_share", complete_share, "%"),
        (
            "cache.hit_ratio",
            rate(replay.cache_hits as f64, replay.cache_lookups as f64),
            "ratio",
        ),
        ("backend.solve_us", solve, "us"),
        ("backend.solve_share", solve_share, "%"),
        ("backend.tail_share", share(tail_solve, tail_wire), "%"),
        (
            "cdcl.conflicts_per_s",
            rate(sum_over(&cdcl, &|s| s.conflicts as f64), cdcl_seconds),
            "1/s",
        ),
        (
            "cdcl.propagations_per_s",
            rate(sum_over(&cdcl, &|s| s.propagations as f64), cdcl_seconds),
            "1/s",
        ),
        (
            "nbl.samples_per_s",
            rate(sampled_samples, sampled_seconds),
            "1/s",
        ),
        (
            "nbl.checks_per_solve",
            rate(nbl_checks, nbl_solves),
            "count",
        ),
        (
            "nbl.samples_per_check",
            rate(sampled_samples, sampled_checks),
            "count",
        ),
        (
            "trace.overhead_us",
            rate(overhead_total, stages.len() as f64),
            "us",
        ),
        (
            "trace.overhead_share",
            share(overhead_total, replay_total),
            "%",
        ),
    ]
}
