//! `satd-bench`: drives `nbl-satd` over loopback with one workload, checks
//! every answer, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced replay (`--trace 1`).
//!
//! ```text
//! satd-bench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!            [--trace-dir DIR]
//! ```
//!
//! `run.sh` builds `nbl-satd` and this program from source, then runs it. The
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it (starting with
//! `#`) name every metric with its unit, the tail percentile with its sample
//! count, the failures, and the server's counters.

mod host;
mod load;
mod replay;
mod server;
mod stats;
mod workload;

use load::Reply;
use nbl_net::WireMetrics;
use server::Server;
use stats::{median, percentile, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Request, Submission, Workload};

const USAGE: &str = "usage: satd-bench --server PATH --workload \
    nbl-paper|cdcl-threshold|structured-resubmit|small-burst --seed N --seconds S \
    --trace 0|1 [--trace-dir DIR]";

/// Server starts per run. One start takes 1.5–37 ms (the accept loop polls
/// every 10 ms), so `setup_s` is the median of several.
const SETUP_STARTS: usize = 15;

/// New connections opened against the running server for `net.connect_ms`.
const CONNECTS: usize = 15;

/// The timed phase runs as this many consecutive rounds of equal request
/// count. `solves_per_s` is the median over rounds, so a few seconds of
/// interference from outside the benchmark move it less than a whole-run
/// mean would.
const ROUNDS: usize = 10;

#[derive(Debug)]
struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("satd-bench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("satd-bench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One round of the timed phase.
struct Round {
    wall: Duration,
    server_cpu: Duration,
    completed: usize,
    /// Share of the host's CPU time the hypervisor stole during the round.
    steal: f64,
}

/// What the untraced pass over the wire measured.
struct WirePass {
    setups: Vec<Duration>,
    replies: Vec<Reply>,
    rounds: Vec<Round>,
    peak_rss_mb: f64,
    metrics: WireMetrics,
    connects: Vec<Duration>,
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    println!(
        "# satd-bench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut requests = workload::build(workload, args.seed, args.seconds);
    let started = Instant::now();
    workload::ground_truth(&mut requests)?;
    let sat = requests.iter().filter(|r| r.truth == Some(true)).count();
    println!(
        "# requests: {} ({sat} SAT, {} UNSAT by ground truth: in-process cdcl on 2 threads, {:.1} s)",
        requests.len(),
        requests.len() - sat,
        started.elapsed().as_secs_f64()
    );

    let pass = wire_pass(args, &requests)?;
    let verdicts = load::check(&requests, &pass.replies);
    if let Some(fatal) = &verdicts.fatal {
        return Err(format!("wrong answer from a complete backend: {fatal}"));
    }
    let attempted = requests.len();
    println!("# failed/attempted = {}/{attempted}", verdicts.failed);
    for (reason, count) in &verdicts.reasons {
        println!("#   failed: {reason} x{count}");
    }
    print_server_metrics(&pass.metrics);
    let mechanism = mechanism_check(workload, &requests, &pass.metrics);
    match &mechanism {
        Ok(summary) => println!("# mechanism check: ok ({summary})"),
        Err(problem) => println!("# mechanism check FAILED: {problem}"),
    }

    let end_to_end = end_to_end_metrics(&pass);
    let (threads, window) = workload.concurrency();
    let wall: Duration = pass.rounds.iter().map(|r| r.wall).sum();
    println!(
        "# timed phase: {attempted} requests in {:.2} s ({} rounds), {threads} thread(s) x {window} outstanding on one connection, nbl-satd --workers {}",
        wall.as_secs_f64(),
        pass.rounds.len(),
        server::WORKERS
    );
    let (tail_p, beyond) = tail_percentile(attempted);
    println!("# latency tail: p{tail_p} with {beyond} of {attempted} samples beyond it");
    let metrics = if args.trace {
        for (name, value, unit) in &end_to_end {
            println!("# wire pass: {name} = {value:.4} {unit}");
        }
        traced_metrics(args, &requests, &pass)?
    } else {
        for (name, value, unit) in &end_to_end {
            println!("# {name} = {value:.4} {unit}");
        }
        end_to_end
    };
    Ok(result_json(
        mechanism.is_ok(),
        attempted,
        verdicts.failed,
        &metrics,
    ))
}

/// Set-up timing, then the timed phase on the last server started, then the
/// server's own counters, then a clean shutdown.
fn wire_pass(args: &Args, requests: &[Request]) -> Result<WirePass, String> {
    let mut setups = Vec::with_capacity(SETUP_STARTS);
    let mut last = None;
    for start in 0..SETUP_STARTS {
        let (server, client, setup) = Server::start(&args.server)?;
        setups.push(setup);
        if start + 1 < SETUP_STARTS {
            server.shutdown(client)?;
        } else {
            last = Some((server, client));
        }
    }
    let (server, client) = last.expect("at least one start");

    let (threads, window) = args.workload.concurrency();
    let mut replies = Vec::with_capacity(requests.len());
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut quiet = host::Quiet::new();
    for part in requests.chunks(requests.len().div_ceil(ROUNDS)) {
        // Rounds follow each other without a gap while the host stays quiet.
        if rounds
            .last()
            .is_none_or(|r: &Round| r.steal >= host::QUIET_STEAL)
        {
            quiet.wait()?;
        }
        let steal_before = host::cpu_ticks()?;
        let cpu_before = server.cpu_time()?;
        let started = Instant::now();
        let mut answered = load::drive(&client, part, threads, window);
        let wall = started.elapsed();
        let server_cpu = server.cpu_time()?.saturating_sub(cpu_before);
        let steal = host::steal_share(steal_before, host::cpu_ticks()?);
        let completed = answered.iter().filter(|r| r.outcome.is_ok()).count();
        rounds.push(Round {
            wall,
            server_cpu,
            completed,
            steal,
        });
        replies.append(&mut answered);
    }
    let steals: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", 100.0 * r.steal))
        .collect();
    println!(
        "# host CPU steal per round (%): {}; waited {:.1} s for a quiet host",
        steals.join(" "),
        quiet.waited().as_secs_f64()
    );

    let metrics = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    let mut connects = Vec::new();
    if args.trace {
        for _ in 0..CONNECTS {
            let started = Instant::now();
            let extra = server.connect()?;
            connects.push(started.elapsed());
            drop(extra);
        }
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown(client)?;
    Ok(WirePass {
        setups,
        replies,
        rounds,
        peak_rss_mb,
        metrics,
        connects,
    })
}

fn end_to_end_metrics(pass: &WirePass) -> Vec<replay::Metric> {
    let latencies: Vec<f64> = pass
        .replies
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let (tail_p, _) = tail_percentile(latencies.len());
    let setups: Vec<f64> = pass.setups.iter().map(Duration::as_secs_f64).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&pass.rounds.iter().map(f).collect::<Vec<_>>())
    };
    // CPU time comes in 10 ms ticks, too coarse to split by round.
    let server_cpu: Duration = pass.rounds.iter().map(|r| r.server_cpu).sum();
    let completed: usize = pass.rounds.iter().map(|r| r.completed).sum();
    vec![
        ("setup_s", median(&setups), "s"),
        ("latency_p50_ms", median(&latencies), "ms"),
        ("latency_tail_ms", percentile(&latencies, tail_p), "ms"),
        (
            "solves_per_s",
            per_round(&|r| r.completed as f64 / r.wall.as_secs_f64()),
            "1/s",
        ),
        (
            "cpu_ms_per_solve",
            server_cpu.as_secs_f64() * 1e3 / completed as f64,
            "ms",
        ),
        ("peak_rss_mb", pass.peak_rss_mb, "MB"),
    ]
}

fn traced_metrics(
    args: &Args,
    requests: &[Request],
    pass: &WirePass,
) -> Result<Vec<replay::Metric>, String> {
    let replayed = replay::replay(requests)?;
    let metrics = replay::layer_metrics(requests, &pass.replies, &replayed, &pass.connects);
    for (name, value, unit) in &metrics {
        println!("# {name} = {value:.4} {unit}");
    }
    let spans = replayed.tracer.spans().len();
    println!(
        "# tracing overhead: {spans} spans, {:.0} ns each",
        replayed.span_cost.as_secs_f64() * 1e9
    );
    if let Some(dir) = &args.trace_dir {
        let path = dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        replayed
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(metrics)
}

fn print_server_metrics(metrics: &WireMetrics) {
    let backends: Vec<String> = metrics
        .backends
        .iter()
        .map(|b| format!("{}={}", b.name, b.count))
        .collect();
    println!(
        "# server METRICS: cache-hits={} cache-misses={} pre-solved={} dispatches: {}",
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.pre_solved,
        backends.join(" ")
    );
}

/// Asserts the server counts each workload is built to produce.
fn mechanism_check(
    workload: Workload,
    requests: &[Request],
    metrics: &WireMetrics,
) -> Result<String, String> {
    let dispatches: u64 = metrics.backends.iter().map(|b| b.count).sum();
    let hits = metrics.cache_hits;
    match workload {
        Workload::NblPaper => {
            let presolved = requests.iter().filter(|r| r.presolved).count() as u64;
            let expected = requests.len() as u64 - presolved;
            if hits != 0 {
                Err(format!("{hits} cache hits, expected none"))
            } else if metrics.pre_solved != presolved || dispatches != expected {
                Err(format!(
                    "{dispatches} dispatches and {} pre-solved, expected {expected} and {presolved}",
                    metrics.pre_solved
                ))
            } else {
                Ok(format!(
                    "all {expected} requests preprocessing leaves open were dispatched"
                ))
            }
        }
        Workload::CdclThreshold | Workload::SmallBurst => {
            if hits == 0 {
                Ok("no cache hits".to_owned())
            } else {
                Err(format!("{hits} cache hits, expected none"))
            }
        }
        Workload::StructuredResubmit => {
            let count = |kind| requests.iter().filter(|r| r.submission == kind).count() as u64;
            let (verbatim, renamed) = (count(Submission::Verbatim), count(Submission::Renamed));
            if hits <= verbatim || hits > verbatim + renamed {
                Err(format!(
                    "{hits} cache hits, expected every one of {verbatim} verbatim resubmissions and 1 to {renamed} renamed ones"
                ))
            } else {
                Ok(format!(
                    "{hits} cache hits: all {verbatim} verbatim resubmissions and {} of {renamed} renamed ones",
                    hits - verbatim
                ))
            }
        }
    }
}

/// The result line. Values print with every digit Rust keeps for an `f64`;
/// a metric a layer did not produce this run reads 0.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[replay::Metric],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
