//! The `nbl-satd` wire protocol: a line-delimited text codec.
//!
//! Every frame is one line of UTF-8 text terminated by `\n` (a trailing `\r`
//! is tolerated), except `SOLVE`, whose header line announces how many raw
//! DIMACS body lines follow it. The same [`Frame`] enum models both
//! directions; servers and clients simply never emit the other side's verbs.
//!
//! # Grammar
//!
//! Client → server:
//!
//! ```text
//! SOLVE <backend> seed=<u64> priority=<low|normal|high> artifacts=<verdict|model>
//!       [wall-ms=<u64>] [samples=<u64>] [checks=<u64>] [stats=<true|false>]
//!       body-lines=<n>
//! <n raw DIMACS lines>
//! CANCEL <job-id>
//! STATUS <job-id>
//! REFILL [samples=<u64>] [checks=<u64>] [wall-ms=<u64>]     (at least one key)
//! PING
//! HELLO
//! SHUTDOWN
//! SESSION OPEN backend=<name>
//! SESSION ADDCLAUSES <session-id> body-lines=<n>
//! <n raw DIMACS lines>
//! SESSION ASSUME <session-id> [lits=<l1,l2,...>] [wall-ms=<u64>]
//!         [samples=<u64>] [checks=<u64>]
//! SESSION POP <session-id>
//! SESSION CLOSE <session-id>
//! METRICS
//! ```
//!
//! (The `SOLVE` header is a single line; it is wrapped above for readability.
//! `body-lines` is mandatory and must be the last key. The same rule applies
//! to `SESSION ADDCLAUSES`. `SESSION ASSUME` literals are DIMACS-signed,
//! comma-separated, never zero; an absent `lits` key means no assumptions.)
//!
//! Server → client:
//!
//! ```text
//! QUEUED <job-id>
//! v <job-id> [<lit> ...] 0
//! f <job-id> [<lit> ...] 0
//! STATS <job-id> decisions=<u64> conflicts=<u64> propagations=<u64>
//!       restarts=<u64> learned=<u64> tried=<u64> flips=<u64> checks=<u64>
//!       samples=<u64> wall-us=<u64> cache-hits=<u64> pre-vars-removed=<u64>
//!       clauses-exported=<u64> clauses-imported=<u64>
//! RESULT <job-id> s <SATISFIABLE|UNSATISFIABLE|UNKNOWN <cause>>
//! INFO <job-id> <queued|running|finished> [queue-depth=<u64>
//!      backlog-high=<u64> backlog-normal=<u64> backlog-low=<u64>]
//! SESSIONOK <session-id> depth=<u64>
//! CAPS sessions=<true|false>
//! OK refill
//! PONG
//! BYE
//! ERR <job-id|-> <message>
//! METRICS queue-depth=<u64> backlog-high=<u64> backlog-normal=<u64>
//!         backlog-low=<u64> cache-hits=<u64> cache-misses=<u64>
//!         cache-evictions=<u64> cache-entries=<u64> pre-vars-removed=<u64>
//!         pre-clauses-removed=<u64> pre-solved=<u64>
//!         budget-samples-spent=<u64> budget-checks-spent=<u64>
//!         clauses-exported=<u64> clauses-imported=<u64> body-lines=<n>
//! <n lines: backend <name> count=<u64> total-us=<u64> max-us=<u64>>
//! ```
//!
//! # Observability
//!
//! A bare `METRICS` line from the client asks the server for a point-in-time
//! snapshot of its solve pipeline; the server answers with the `METRICS`
//! response frame above (the verb is shared — direction disambiguates: the
//! request carries no keys, the response always does). The header gauges are
//! the live queue depth and per-priority backlog plus the verdict-cache and
//! preprocessing counters; each body line carries one backend's dispatch
//! count and latency aggregate. `INFO` answers append the same queue gauges
//! after the lifecycle token; the keys are optional on the wire, so `INFO`
//! frames from servers predating them still parse (the backlog reads absent).
//!
//! `STATUS` answers for `SESSION ASSUME` jobs too. Such a job reads `running`
//! from its `QUEUED` ack until its outcome exists, even while it waits behind
//! an earlier call of the same session (a session runs its calls in order),
//! and `finished` after that.
//!
//! # Incremental sessions
//!
//! `SESSION OPEN` pins a persistent incremental solver to the connection and
//! answers `SESSIONOK` with the server-assigned session id. `ADDCLAUSES`
//! pushes a frame of clauses (acked by `SESSIONOK` carrying the new depth),
//! `POP` retracts the most recent frame, `CLOSE` releases the solver.
//! `ASSUME` queues one solve under the given assumption literals and is
//! answered like `SOLVE`: a `QUEUED` ack (session jobs draw ids from a
//! dedicated high range so they never collide with one-shot jobs), then the
//! completion group — the model `v`-line when satisfiable, the
//! failed-assumption-core `f`-line when unsatisfiable under assumptions
//! (empty core = the clause database itself is unsatisfiable), then
//! `RESULT`. `HELLO` lets a client probe whether the server speaks this
//! extension before relying on it (`CAPS sessions=true`).
//!
//! A job's model `v`-line (present only when the job requested
//! `artifacts=model` and was satisfiable) and its `STATS` line (present only
//! when the job asked `stats=true` — the frame is opt-in so pre-existing
//! clients never see an unexpected verb) are written *before* its `RESULT`
//! line, so the `RESULT` frame is always the completion marker of a job.
//! `STATS` keys may be any subset (absent counters read 0); the single-line
//! wrap above is for readability. Causes are `cancelled`, `incomplete`,
//! `budget-wall-clock`, `budget-samples` and `budget-checks`.
//!
//! # Types
//!
//! Frames carry the core types wherever the wire says the same thing:
//! [`JobPriority`], [`JobStatus`], [`UnknownCause`] and [`SolveStats`], whose
//! [`SolveStats::COUNTERS`] table is the `STATS` key list. The wire keeps a
//! type of its own only where it differs from the core:
//!
//! - [`WireArtifacts`] admits only `verdict|model` (there is no `cube`
//!   token), so it enforces the wire's subset of [`Artifacts`].
//! - [`WireVerdict`] adds the SAT-competition exit code, and
//!   [`WireMetrics`] with [`WireBackendLatency`] carries the count, total and
//!   maximum of each backend's latency instead of the full histograms of
//!   [`MetricsSnapshot`]. The `satd-bench` benchmark builds against all
//!   three, so they stay public types.
//! - [`WireBacklog`] carries the queue gauges of an `INFO` answer.
//!
//! # Strictness
//!
//! The parser is strict: unknown verbs, unknown or duplicate keys, missing
//! mandatory keys, trailing tokens, non-UTF-8 bytes, numbers that do not
//! parse, and oversized lines or bodies are all [`ProtocolError`]s — never
//! panics. Errors distinguish recoverable [`ProtocolError::Malformed`] frames
//! (the stream is still line-synchronised, the connection can continue) from
//! [`ProtocolError::Desync`] conditions (framing is lost, the connection
//! should close).

use nbl_sat_core::{
    counter_row, Artifacts, Budget, CounterRow, ExhaustedResource, JobPriority, JobStatus,
    MetricsSnapshot, SolveStats, UnknownCause,
};
use std::fmt::{self, Write as _};
use std::io::{BufRead, Read, Write};
use std::time::Duration;

/// Longest accepted frame line, in bytes (excluding the newline).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest accepted `body-lines` count of a `SOLVE` frame.
pub const MAX_BODY_LINES: usize = 1 << 20;

/// Errors produced while reading or parsing frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The frame violated the grammar, but the stream is still synchronised
    /// on line boundaries; the connection can answer `ERR` and continue.
    Malformed(String),
    /// Framing was lost (an oversized line or body declaration); the
    /// connection cannot be re-synchronised and should close.
    Desync(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Malformed(message) => write!(f, "malformed frame: {message}"),
            ProtocolError::Desync(message) => write!(f, "protocol desync: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// Returns `true` when the connection can keep reading frames after this
    /// error (the stream is still synchronised on line boundaries).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, ProtocolError::Malformed(_))
    }
}

fn malformed(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(message.into())
}

fn priority_token(priority: JobPriority) -> &'static str {
    match priority {
        JobPriority::Low => "low",
        JobPriority::Normal => "normal",
        JobPriority::High => "high",
    }
}

fn parse_priority(token: &str) -> Result<JobPriority, ProtocolError> {
    match token {
        "low" => Ok(JobPriority::Low),
        "normal" => Ok(JobPriority::Normal),
        "high" => Ok(JobPriority::High),
        other => Err(malformed(format!("unknown priority '{other}'"))),
    }
}

fn status_token(status: JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Finished => "finished",
    }
}

fn parse_status(token: &str) -> Result<JobStatus, ProtocolError> {
    match token {
        "queued" => Ok(JobStatus::Queued),
        "running" => Ok(JobStatus::Running),
        "finished" => Ok(JobStatus::Finished),
        other => Err(malformed(format!("unknown job status '{other}'"))),
    }
}

fn cause_token(cause: UnknownCause) -> &'static str {
    match cause {
        UnknownCause::Cancelled => "cancelled",
        UnknownCause::Incomplete => "incomplete",
        UnknownCause::BudgetExhausted(ExhaustedResource::WallClock) => "budget-wall-clock",
        UnknownCause::BudgetExhausted(ExhaustedResource::Samples) => "budget-samples",
        UnknownCause::BudgetExhausted(ExhaustedResource::CoprocessorChecks) => "budget-checks",
    }
}

fn parse_cause(token: &str) -> Result<UnknownCause, ProtocolError> {
    match token {
        "cancelled" => Ok(UnknownCause::Cancelled),
        "incomplete" => Ok(UnknownCause::Incomplete),
        "budget-wall-clock" => Ok(UnknownCause::BudgetExhausted(ExhaustedResource::WallClock)),
        "budget-samples" => Ok(UnknownCause::BudgetExhausted(ExhaustedResource::Samples)),
        "budget-checks" => Ok(UnknownCause::BudgetExhausted(
            ExhaustedResource::CoprocessorChecks,
        )),
        other => Err(malformed(format!("unknown cause '{other}'"))),
    }
}

/// Requested artifacts on the wire. Only the verdict and the model can be
/// streamed back, so `artifacts=cube` is not part of the grammar; this type
/// enforces that subset of [`Artifacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireArtifacts {
    /// `artifacts=verdict` — only the `RESULT` line.
    #[default]
    Verdict,
    /// `artifacts=model` — a `v`-line precedes the `RESULT` line when
    /// satisfiable.
    Model,
}

impl WireArtifacts {
    fn token(self) -> &'static str {
        match self {
            WireArtifacts::Verdict => "verdict",
            WireArtifacts::Model => "model",
        }
    }

    fn parse(token: &str) -> Result<Self, ProtocolError> {
        match token {
            "verdict" => Ok(WireArtifacts::Verdict),
            "model" => Ok(WireArtifacts::Model),
            other => Err(malformed(format!("unknown artifacts '{other}'"))),
        }
    }
}

impl From<WireArtifacts> for Artifacts {
    fn from(artifacts: WireArtifacts) -> Self {
        match artifacts {
            WireArtifacts::Verdict => Artifacts::Verdict,
            WireArtifacts::Model => Artifacts::Model,
        }
    }
}

/// The three-valued verdict of a `RESULT` frame, with its SAT-competition
/// exit code. The `satd-bench` benchmark matches on this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireVerdict {
    /// `s SATISFIABLE`
    Satisfiable,
    /// `s UNSATISFIABLE`
    Unsatisfiable,
    /// `s UNKNOWN <cause>`
    Unknown(UnknownCause),
}

impl WireVerdict {
    /// Returns `true` for `s SATISFIABLE`.
    pub fn is_sat(self) -> bool {
        self == WireVerdict::Satisfiable
    }

    /// Returns `true` for `s UNSATISFIABLE`.
    pub fn is_unsat(self) -> bool {
        self == WireVerdict::Unsatisfiable
    }

    /// The conventional SAT-competition exit code of this verdict: 10 for
    /// SATISFIABLE, 20 for UNSATISFIABLE, 0 for UNKNOWN.
    pub fn exit_code(self) -> i32 {
        match self {
            WireVerdict::Satisfiable => 10,
            WireVerdict::Unsatisfiable => 20,
            WireVerdict::Unknown(_) => 0,
        }
    }
}

impl fmt::Display for WireVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireVerdict::Satisfiable => write!(f, "s SATISFIABLE"),
            WireVerdict::Unsatisfiable => write!(f, "s UNSATISFIABLE"),
            WireVerdict::Unknown(cause) => write!(f, "s UNKNOWN {}", cause_token(*cause)),
        }
    }
}

/// One queried job's live queue gauges, appended to `INFO` answers. The keys
/// are optional on the wire (frames from servers predating them parse to
/// `None`); current servers always send all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WireBacklog {
    /// `queue-depth=` — jobs queued and not yet picked up, all priorities.
    pub queue_depth: u64,
    /// `backlog-high=` — queued high-priority jobs.
    pub high: u64,
    /// `backlog-normal=` — queued normal-priority jobs.
    pub normal: u64,
    /// `backlog-low=` — queued low-priority jobs.
    pub low: u64,
}

impl WireBacklog {
    /// The gauges, in wire order.
    const COUNTERS: &'static [CounterRow<WireBacklog>] = &[
        counter_row!("queue-depth", queue_depth),
        counter_row!("backlog-high", high),
        counter_row!("backlog-normal", normal),
        counter_row!("backlog-low", low),
    ];
}

/// One backend's dispatch-latency aggregate, carried as a `METRICS` body
/// line: `backend <name> count=<u64> total-us=<u64> max-us=<u64>`. The core
/// keeps a histogram per backend instead; `satd-bench` reads these counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct WireBackendLatency {
    /// The backend's registry name.
    pub name: String,
    /// Jobs dispatched to this backend.
    pub count: u64,
    /// Total wall-clock microseconds spent in this backend.
    pub total_us: u64,
    /// Slowest single dispatch, in microseconds.
    pub max_us: u64,
}

impl WireBackendLatency {
    /// The body line's counters, in wire order.
    const COUNTERS: &'static [CounterRow<WireBackendLatency>] = &[
        counter_row!("count", count),
        counter_row!("total-us", total_us),
        counter_row!("max-us", max_us),
    ];

    /// Mean dispatch latency in microseconds (0 when nothing ran).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// The server's point-in-time pipeline snapshot answering a `METRICS`
/// request: queue gauges, verdict-cache and preprocessing counters, budget
/// spend, and one [`WireBackendLatency`] body line per backend that has
/// dispatched at least one job. It is the wire subset of [`MetricsSnapshot`]:
/// latency histograms stay server-side, and the body lines carry the
/// count/total/max aggregate. `satd-bench` reads its counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireMetrics {
    /// `queue-depth=` — jobs queued and not yet picked up.
    pub queue_depth: u64,
    /// `backlog-high=` — queued high-priority jobs.
    pub backlog_high: u64,
    /// `backlog-normal=` — queued normal-priority jobs.
    pub backlog_normal: u64,
    /// `backlog-low=` — queued low-priority jobs.
    pub backlog_low: u64,
    /// `cache-hits=` — verdict-cache hits.
    pub cache_hits: u64,
    /// `cache-misses=` — verdict-cache misses.
    pub cache_misses: u64,
    /// `cache-evictions=` — entries evicted to stay under capacity.
    pub cache_evictions: u64,
    /// `cache-entries=` — entries currently resident.
    pub cache_entries: u64,
    /// `pre-vars-removed=` — variables eliminated by preprocessing.
    pub pre_vars_removed: u64,
    /// `pre-clauses-removed=` — clauses eliminated by preprocessing.
    pub pre_clauses_removed: u64,
    /// `pre-solved=` — submissions preprocessing answered outright.
    pub pre_solved: u64,
    /// `budget-samples-spent=` — noise samples charged across all dispatches.
    pub budget_samples_spent: u64,
    /// `budget-checks-spent=` — coprocessor checks charged across all
    /// dispatches.
    pub budget_checks_spent: u64,
    /// `clauses-exported=` — clauses published into cooperative-portfolio
    /// pools across all dispatches.
    pub clauses_exported: u64,
    /// `clauses-imported=` — clauses consumed from cooperative-portfolio
    /// pools across all dispatches.
    pub clauses_imported: u64,
    /// Per-backend dispatch-latency aggregates (the body lines).
    pub backends: Vec<WireBackendLatency>,
}

impl WireMetrics {
    /// The header counters, in wire order.
    const COUNTERS: &'static [CounterRow<WireMetrics>] = &[
        counter_row!("queue-depth", queue_depth),
        counter_row!("backlog-high", backlog_high),
        counter_row!("backlog-normal", backlog_normal),
        counter_row!("backlog-low", backlog_low),
        counter_row!("cache-hits", cache_hits),
        counter_row!("cache-misses", cache_misses),
        counter_row!("cache-evictions", cache_evictions),
        counter_row!("cache-entries", cache_entries),
        counter_row!("pre-vars-removed", pre_vars_removed),
        counter_row!("pre-clauses-removed", pre_clauses_removed),
        counter_row!("pre-solved", pre_solved),
        counter_row!("budget-samples-spent", budget_samples_spent),
        counter_row!("budget-checks-spent", budget_checks_spent),
        counter_row!("clauses-exported", clauses_exported),
        counter_row!("clauses-imported", clauses_imported),
    ];
}

impl From<&MetricsSnapshot> for WireMetrics {
    fn from(snapshot: &MetricsSnapshot) -> Self {
        WireMetrics {
            queue_depth: snapshot.queue_depth,
            backlog_high: snapshot.backlog_high,
            backlog_normal: snapshot.backlog_normal,
            backlog_low: snapshot.backlog_low,
            cache_hits: snapshot.cache_hits,
            cache_misses: snapshot.cache_misses,
            cache_evictions: snapshot.cache_evictions,
            cache_entries: snapshot.cache_entries,
            pre_vars_removed: snapshot.pre_vars_removed,
            pre_clauses_removed: snapshot.pre_clauses_removed,
            pre_solved: snapshot.pre_solved,
            budget_samples_spent: snapshot.budget_samples_spent,
            budget_checks_spent: snapshot.budget_checks_spent,
            clauses_exported: snapshot.clauses_exported,
            clauses_imported: snapshot.clauses_imported,
            backends: snapshot
                .backends
                .iter()
                .map(|(name, latency)| WireBackendLatency {
                    name: name.clone(),
                    count: latency.count,
                    total_us: latency.total_us,
                    max_us: latency.max_us,
                })
                .collect(),
        }
    }
}

/// The payload of a `SOLVE` frame: everything a [`nbl_sat_core::SolveRequest`]
/// needs, plus the inline DIMACS body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveFrame {
    /// Registry name of the backend to run (`cdcl`, `nbl-sampled`, ...).
    pub backend: String,
    /// Deterministic seed handed to stochastic backends.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: JobPriority,
    /// Requested artifacts.
    pub artifacts: WireArtifacts,
    /// Wall-clock budget cap in milliseconds, if any.
    pub wall_ms: Option<u64>,
    /// Noise-sample budget cap, if any.
    pub max_samples: Option<u64>,
    /// Coprocessor-check budget cap, if any.
    pub max_checks: Option<u64>,
    /// `stats=true` — ask the server to stream a `STATS` frame before this
    /// job's `RESULT`. Off by default (the frame is opt-in on the wire).
    pub stats: bool,
    /// The DIMACS body, one entry per raw line (no newlines inside).
    pub body: Vec<String>,
}

impl SolveFrame {
    /// A model-requesting frame for `backend` over the given DIMACS text.
    pub fn new(backend: impl Into<String>, dimacs: &str) -> Self {
        SolveFrame {
            backend: backend.into(),
            artifacts: WireArtifacts::Model,
            body: dimacs.lines().map(str::to_owned).collect(),
            ..SolveFrame::default()
        }
    }

    /// The DIMACS body as one string, lines joined with `\n`.
    pub fn dimacs(&self) -> String {
        self.body.join("\n")
    }

    /// The [`Budget`] the frame's caps describe.
    pub fn budget(&self) -> Budget {
        caps_budget(self.wall_ms, self.max_samples, self.max_checks)
    }
}

/// The [`Budget`] that the `wall-ms`, `samples` and `checks` caps of a
/// `SOLVE` or `SESSION ASSUME` frame describe.
pub(crate) fn caps_budget(
    wall_ms: Option<u64>,
    max_samples: Option<u64>,
    max_checks: Option<u64>,
) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(ms) = wall_ms {
        budget = budget.with_wall_time(Duration::from_millis(ms));
    }
    if let Some(samples) = max_samples {
        budget = budget.with_max_samples(samples);
    }
    if let Some(checks) = max_checks {
        budget = budget.with_max_checks(checks);
    }
    budget
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client: submit a job.
    Solve(SolveFrame),
    /// Client: cancel a job by id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Client: ask where a job is in its lifecycle.
    Status {
        /// The job to report on.
        job: u64,
    },
    /// Client: return spent allowance to the server's shared budget pool.
    Refill {
        /// Samples to return, if any.
        samples: Option<u64>,
        /// Checks to return, if any.
        checks: Option<u64>,
        /// Milliseconds to push the pool deadline out by, if any.
        wall_ms: Option<u64>,
    },
    /// Client: liveness probe.
    Ping,
    /// Client: capability probe, answered by `CAPS`.
    Hello,
    /// Client: wind the server down gracefully (drain, then exit).
    Shutdown,
    /// Client: open an incremental solving session.
    SessionOpen {
        /// Registry name of the incremental backend to pin.
        backend: String,
    },
    /// Client: push a frame of clauses into a session; the header line
    /// announces how many raw DIMACS body lines follow, like `SOLVE`.
    SessionAddClauses {
        /// The session to push into.
        session: u64,
        /// The DIMACS body, one entry per raw line.
        body: Vec<String>,
    },
    /// Client: solve a session under assumption literals. Queued like
    /// `SOLVE`; the completion frames reference the `QUEUED` job id.
    SessionAssume {
        /// The session to solve.
        session: u64,
        /// DIMACS-signed assumption literals, in decision order (never 0).
        literals: Vec<i64>,
        /// Wall-clock budget cap in milliseconds for this call, if any.
        wall_ms: Option<u64>,
        /// Noise-sample budget cap for this call, if any.
        max_samples: Option<u64>,
        /// Coprocessor-check budget cap for this call, if any.
        max_checks: Option<u64>,
    },
    /// Client: pop the most recent clause frame of a session.
    SessionPop {
        /// The session to pop.
        session: u64,
    },
    /// Client: close a session, releasing its pinned solver.
    SessionClose {
        /// The session to close.
        session: u64,
    },
    /// Client: ask for the server's pipeline metrics snapshot, answered by
    /// the `Metrics` response frame. A bare `METRICS` line on the wire.
    MetricsRequest,
    /// Server: the job was accepted under this id.
    Queued {
        /// The service-assigned job id.
        job: u64,
    },
    /// Server: a job's satisfying assignment (precedes its `RESULT`).
    Model {
        /// The job the model belongs to.
        job: u64,
        /// DIMACS-signed literals, without the terminating `0`.
        literals: Vec<i64>,
    },
    /// Server: a job's search statistics (precedes its `RESULT`; sent only
    /// when the `SOLVE` asked `stats=true`).
    Stats {
        /// The job the statistics belong to.
        job: u64,
        /// The counters of [`SolveStats::COUNTERS`]; the other fields are
        /// not sent and parse as their defaults.
        stats: SolveStats,
    },
    /// Server: a job's final verdict — the completion marker.
    Result {
        /// The finished job.
        job: u64,
        /// Its verdict.
        verdict: WireVerdict,
    },
    /// Server: an UNSAT-under-assumptions job's failed-assumption core
    /// (precedes its `RESULT`). An empty core means the session's clause
    /// database is unsatisfiable on its own.
    FailedAssumptions {
        /// The job the core belongs to.
        job: u64,
        /// DIMACS-signed assumption literals, without the terminating `0`.
        literals: Vec<i64>,
    },
    /// Server: answer to `STATUS`.
    Info {
        /// The queried job.
        job: u64,
        /// Its lifecycle stage.
        status: JobStatus,
        /// The service's live queue gauges at answer time. Optional on the
        /// wire for compatibility with older servers; always sent by this
        /// one.
        backlog: Option<WireBacklog>,
    },
    /// Server: pipeline metrics snapshot answering `METRICS`. The header
    /// line carries the gauges and counters; `body-lines=<n>` announces the
    /// per-backend latency lines that follow.
    Metrics(WireMetrics),
    /// Server: a session operation was applied; reports the session's
    /// current push depth.
    SessionOk {
        /// The session the acknowledged operation targeted.
        session: u64,
        /// The session's push depth after the operation.
        depth: u64,
    },
    /// Server: capability summary answering `HELLO`.
    Caps {
        /// Whether the server speaks the `SESSION` extension.
        sessions: bool,
    },
    /// Server: `REFILL` was applied.
    OkRefill,
    /// Server: answer to `PING`.
    Pong,
    /// Server: acknowledges `SHUTDOWN`; no further frames follow.
    Bye,
    /// Server: the request failed; the connection stays open.
    Error {
        /// The job the error belongs to, when it is job-scoped.
        job: Option<u64>,
        /// Human-readable description (single line).
        message: String,
    },
}

impl Frame {
    /// Serialises the frame to its exact wire text, including newlines.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Frame::Solve(solve) => {
                let _ = write!(
                    out,
                    "SOLVE {} seed={} priority={} artifacts={}",
                    solve.backend,
                    solve.seed,
                    priority_token(solve.priority),
                    solve.artifacts.token()
                );
                write_present(
                    &mut out,
                    &[
                        ("wall-ms", solve.wall_ms),
                        ("samples", solve.max_samples),
                        ("checks", solve.max_checks),
                    ],
                );
                if solve.stats {
                    out.push_str(" stats=true");
                }
                write_body(&mut out, &solve.body);
            }
            Frame::Cancel { job } => {
                let _ = writeln!(out, "CANCEL {job}");
            }
            Frame::Status { job } => {
                let _ = writeln!(out, "STATUS {job}");
            }
            Frame::Refill {
                samples,
                checks,
                wall_ms,
            } => {
                out.push_str("REFILL");
                write_present(
                    &mut out,
                    &[
                        ("samples", *samples),
                        ("checks", *checks),
                        ("wall-ms", *wall_ms),
                    ],
                );
                out.push('\n');
            }
            Frame::Ping => out.push_str("PING\n"),
            Frame::Hello => out.push_str("HELLO\n"),
            Frame::Shutdown => out.push_str("SHUTDOWN\n"),
            Frame::SessionOpen { backend } => {
                let _ = writeln!(out, "SESSION OPEN backend={backend}");
            }
            Frame::SessionAddClauses { session, body } => {
                let _ = write!(out, "SESSION ADDCLAUSES {session}");
                write_body(&mut out, body);
            }
            Frame::SessionAssume {
                session,
                literals,
                wall_ms,
                max_samples,
                max_checks,
            } => {
                let _ = write!(out, "SESSION ASSUME {session}");
                for (index, lit) in literals.iter().enumerate() {
                    let _ = write!(out, "{}{lit}", if index == 0 { " lits=" } else { "," });
                }
                write_present(
                    &mut out,
                    &[
                        ("wall-ms", *wall_ms),
                        ("samples", *max_samples),
                        ("checks", *max_checks),
                    ],
                );
                out.push('\n');
            }
            Frame::SessionPop { session } => {
                let _ = writeln!(out, "SESSION POP {session}");
            }
            Frame::SessionClose { session } => {
                let _ = writeln!(out, "SESSION CLOSE {session}");
            }
            Frame::MetricsRequest => out.push_str("METRICS\n"),
            Frame::Metrics(metrics) => {
                out.push_str("METRICS");
                write_counters(&mut out, metrics, WireMetrics::COUNTERS);
                let _ = writeln!(out, " body-lines={}", metrics.backends.len());
                for backend in &metrics.backends {
                    let _ = write!(out, "backend {}", backend.name);
                    write_counters(&mut out, backend, WireBackendLatency::COUNTERS);
                    out.push('\n');
                }
            }
            Frame::Queued { job } => {
                let _ = writeln!(out, "QUEUED {job}");
            }
            Frame::Model { job, literals } => write_terminated(&mut out, "v", *job, literals),
            Frame::Stats { job, stats } => {
                let _ = write!(out, "STATS {job}");
                write_counters(&mut out, stats, SolveStats::COUNTERS);
                out.push('\n');
            }
            Frame::Result { job, verdict } => {
                let _ = writeln!(out, "RESULT {job} {verdict}");
            }
            Frame::FailedAssumptions { job, literals } => {
                write_terminated(&mut out, "f", *job, literals);
            }
            Frame::Info {
                job,
                status,
                backlog,
            } => {
                let _ = write!(out, "INFO {job} {}", status_token(*status));
                if let Some(backlog) = backlog {
                    write_counters(&mut out, backlog, WireBacklog::COUNTERS);
                }
                out.push('\n');
            }
            Frame::SessionOk { session, depth } => {
                let _ = writeln!(out, "SESSIONOK {session} depth={depth}");
            }
            Frame::Caps { sessions } => {
                let _ = writeln!(out, "CAPS sessions={sessions}");
            }
            Frame::OkRefill => out.push_str("OK refill\n"),
            Frame::Pong => out.push_str("PONG\n"),
            Frame::Bye => out.push_str("BYE\n"),
            Frame::Error { job, message } => {
                match job {
                    Some(job) => {
                        let _ = write!(out, "ERR {job} ");
                    }
                    None => out.push_str("ERR - "),
                }
                let _ = writeln!(out, "{message}");
            }
        }
        out
    }

    /// Writes the frame to `writer` (one `write_all`, so concurrent writers
    /// holding a lock around this call interleave whole frames, never bytes).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.encode().as_bytes())?;
        writer.flush()
    }

    /// Reads the next frame off `reader`. Answers `Ok(None)` on a clean EOF
    /// at a frame boundary.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Option<Frame>, ProtocolError> {
        let line = match read_limited_line(reader)? {
            Some(line) => line,
            None => return Ok(None),
        };
        let text = decode_utf8(line)?;
        parse_header(&text, reader)
    }
}

/// Appends ` key=value` for each key whose value is present.
fn write_present(out: &mut String, pairs: &[(&str, Option<u64>)]) {
    for &(key, value) in pairs {
        if let Some(value) = value {
            let _ = write!(out, " {key}={value}");
        }
    }
}

/// Appends ` key=value` for every counter of `table`, in table order.
fn write_counters<T>(out: &mut String, record: &T, table: &[CounterRow<T>]) {
    for row in table {
        let _ = write!(out, " {}={}", row.key, (row.get)(record));
    }
}

/// Ends a header line with ` body-lines=<n>` and appends the `n` body lines.
fn write_body(out: &mut String, body: &[String]) {
    let _ = writeln!(out, " body-lines={}", body.len());
    for line in body {
        out.push_str(line);
        out.push('\n');
    }
}

/// Writes a `v`- or `f`-line: the verb, the job id, the literals and `0`.
fn write_terminated(out: &mut String, verb: &str, job: u64, literals: &[i64]) {
    let _ = write!(out, "{verb} {job}");
    for lit in literals {
        let _ = write!(out, " {lit}");
    }
    out.push_str(" 0\n");
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes (the
/// newline is stripped, a trailing `\r` too). `Ok(None)` on EOF before any
/// byte.
fn read_limited_line<R: BufRead>(reader: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut line = Vec::new();
    let mut limited = reader.take(MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Desync(format!(
            "line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    // A final line without a newline (EOF mid-frame) is still parsed; the
    // next read answers EOF.
    Ok(Some(line))
}

fn decode_utf8(line: Vec<u8>) -> Result<String, ProtocolError> {
    String::from_utf8(line).map_err(|_| malformed("frame is not valid UTF-8"))
}

fn parse_u64(token: &str, what: &str) -> Result<u64, ProtocolError> {
    // Reject signs and leading plus explicitly: only ASCII digits.
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed(format!("invalid {what} '{token}'")));
    }
    token
        .parse()
        .map_err(|_| malformed(format!("{what} '{token}' out of range")))
}

fn parse_i64(token: &str) -> Result<i64, ProtocolError> {
    let digits = token.strip_prefix('-').unwrap_or(token);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed(format!("invalid literal '{token}'")));
    }
    token
        .parse()
        .map_err(|_| malformed(format!("literal '{token}' out of range")))
}

fn parse_bool(value: &str, key: &str) -> Result<bool, ProtocolError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(malformed(format!("invalid {key} value '{other}'"))),
    }
}

/// Errors unless `tokens` is exhausted; `after` names what the line ended
/// with.
fn expect_end<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    after: impl fmt::Display,
) -> Result<(), ProtocolError> {
    match tokens.next() {
        None => Ok(()),
        Some(extra) => Err(malformed(format!(
            "unexpected trailing token '{extra}' after {after}"
        ))),
    }
}

fn parse_backend_name(name: &str) -> Result<&str, ProtocolError> {
    let valid = !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if !valid {
        return Err(malformed(format!("invalid backend name '{name}'")));
    }
    Ok(name)
}

/// Splits `key=value`, erroring when there is no `=`.
fn split_key_value(token: &str) -> Result<(&str, &str), ProtocolError> {
    token
        .split_once('=')
        .ok_or_else(|| malformed(format!("expected key=value, got '{token}'")))
}

/// Stores `value` into `slot`, erroring on a duplicate key.
fn store_once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), ProtocolError> {
    if slot.replace(value).is_some() {
        return Err(malformed(format!("duplicate key '{key}'")));
    }
    Ok(())
}

/// Parses the id (`what` is `job id` or `session id`) that follows `verb`.
fn parse_id<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    verb: &str,
    what: &str,
) -> Result<u64, ProtocolError> {
    let token = tokens
        .next()
        .ok_or_else(|| malformed(format!("{verb} needs a {what}")))?;
    parse_u64(token, what)
}

/// Parses a frame that is `verb` followed by one id and nothing else.
fn parse_lone_id<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    verb: &str,
    what: &str,
) -> Result<u64, ProtocolError> {
    let id = parse_id(&mut tokens, verb, what)?;
    expect_end(tokens, verb)?;
    Ok(id)
}

/// Parses the one `key=value` token `verb` requires next and returns its
/// value.
fn expect_key<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    verb: &str,
    key: &str,
) -> Result<&'a str, ProtocolError> {
    let token = tokens
        .next()
        .ok_or_else(|| malformed(format!("{verb} needs a {key} key")))?;
    let (found, value) = split_key_value(token)?;
    if found != key {
        return Err(malformed(format!("unknown {verb} key '{found}'")));
    }
    Ok(value)
}

/// Parses one counter of `table` into `record`. `seen` has bit `i` set once
/// row `i` was parsed, so a repeated key is an error; a table therefore
/// holds at most 64 rows.
fn parse_counter<T>(
    key: &str,
    value: &str,
    record: &mut T,
    table: &[CounterRow<T>],
    seen: &mut u64,
    verb: &str,
) -> Result<(), ProtocolError> {
    let index = table
        .iter()
        .position(|row| row.key == key)
        .ok_or_else(|| malformed(format!("unknown {verb} key '{key}'")))?;
    let value = parse_u64(value, key)?;
    if *seen & (1 << index) != 0 {
        return Err(malformed(format!("duplicate key '{key}'")));
    }
    *seen |= 1 << index;
    (table[index].set)(record, value);
    Ok(())
}

/// Parses every remaining token as a counter of `table`; absent counters
/// keep their value in `record`. Answers whether any counter was present.
fn parse_counters<'a, T>(
    tokens: impl Iterator<Item = &'a str>,
    record: &mut T,
    table: &[CounterRow<T>],
    verb: &str,
) -> Result<bool, ProtocolError> {
    let mut seen = 0;
    for token in tokens {
        let (key, value) = split_key_value(token)?;
        parse_counter(key, value, record, table, &mut seen, verb)?;
    }
    Ok(seen != 0)
}

/// Parses the literals of a `v`- or `f`-line up to its terminating `0`,
/// which must end the line.
fn parse_terminated<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<Vec<i64>, ProtocolError> {
    let mut literals = Vec::new();
    for token in tokens.by_ref() {
        let lit = parse_i64(token)?;
        if lit == 0 {
            expect_end(tokens, format_args!("the {line} terminator"))?;
            return Ok(literals);
        }
        literals.push(lit);
    }
    Err(malformed(format!("{line} missing terminating 0")))
}

/// Parses a `body-lines=` count. A count above [`MAX_BODY_LINES`] loses
/// framing, since the body that follows cannot be skipped.
fn parse_body_lines(value: &str) -> Result<usize, ProtocolError> {
    let count = parse_u64(value, "body-lines")?;
    // Compare in u64 before narrowing: `as usize` would wrap huge counts into
    // the accepted range on 32-bit targets.
    if count > MAX_BODY_LINES as u64 {
        return Err(ProtocolError::Desync(format!(
            "body-lines={count} exceeds the {MAX_BODY_LINES}-line cap"
        )));
    }
    Ok(count as usize)
}

/// Reads and parses the `count` body lines of a frame; `what` names the body
/// when the connection closes inside it.
fn read_body<R: BufRead, T>(
    reader: &mut R,
    count: usize,
    what: &str,
    mut parse: impl FnMut(String) -> Result<T, ProtocolError>,
) -> Result<Vec<T>, ProtocolError> {
    let mut body = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let line = read_limited_line(reader)?
            .ok_or_else(|| ProtocolError::Desync(format!("connection closed inside {what}")))?;
        body.push(parse(decode_utf8(line)?)?);
    }
    Ok(body)
}

fn parse_header<R: BufRead>(line: &str, reader: &mut R) -> Result<Option<Frame>, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| malformed("empty frame line"))?;
    let frame = match verb {
        "SOLVE" => return parse_solve(tokens, reader).map(Some),
        "CANCEL" => Frame::Cancel {
            job: parse_lone_id(tokens, verb, "job id")?,
        },
        "STATUS" => Frame::Status {
            job: parse_lone_id(tokens, verb, "job id")?,
        },
        "REFILL" => {
            let mut samples = None;
            let mut checks = None;
            let mut wall_ms = None;
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                let value = parse_u64(value, key)?;
                match key {
                    "samples" => store_once(&mut samples, key, value)?,
                    "checks" => store_once(&mut checks, key, value)?,
                    "wall-ms" => store_once(&mut wall_ms, key, value)?,
                    other => return Err(malformed(format!("unknown REFILL key '{other}'"))),
                }
            }
            if samples.is_none() && checks.is_none() && wall_ms.is_none() {
                return Err(malformed(
                    "REFILL needs at least one of samples/checks/wall-ms",
                ));
            }
            Frame::Refill {
                samples,
                checks,
                wall_ms,
            }
        }
        "PING" => {
            expect_end(tokens, verb)?;
            Frame::Ping
        }
        "HELLO" => {
            expect_end(tokens, verb)?;
            Frame::Hello
        }
        "SHUTDOWN" => {
            expect_end(tokens, verb)?;
            Frame::Shutdown
        }
        "SESSION" => return parse_session(tokens, reader).map(Some),
        "METRICS" => return parse_metrics(tokens, reader).map(Some),
        "QUEUED" => Frame::Queued {
            job: parse_lone_id(tokens, verb, "job id")?,
        },
        "v" => Frame::Model {
            job: parse_id(&mut tokens, verb, "job id")?,
            literals: parse_terminated(tokens, "v-line")?,
        },
        "f" => Frame::FailedAssumptions {
            job: parse_id(&mut tokens, verb, "job id")?,
            literals: parse_terminated(tokens, "f-line")?,
        },
        "SESSIONOK" => {
            let session = parse_id(&mut tokens, verb, "session id")?;
            let depth = parse_u64(expect_key(&mut tokens, verb, "depth")?, "depth")?;
            expect_end(tokens, verb)?;
            Frame::SessionOk { session, depth }
        }
        "CAPS" => {
            let sessions = parse_bool(expect_key(&mut tokens, verb, "sessions")?, "sessions")?;
            expect_end(tokens, verb)?;
            Frame::Caps { sessions }
        }
        "STATS" => {
            let job = parse_id(&mut tokens, verb, "job id")?;
            let mut stats = SolveStats::default();
            parse_counters(tokens, &mut stats, SolveStats::COUNTERS, verb)?;
            Frame::Stats { job, stats }
        }
        "RESULT" => {
            let job = parse_id(&mut tokens, verb, "job id")?;
            match tokens.next() {
                Some("s") => {}
                other => return Err(malformed(format!("RESULT expects 's', got {other:?}"))),
            }
            let verdict = match tokens.next() {
                Some("SATISFIABLE") => WireVerdict::Satisfiable,
                Some("UNSATISFIABLE") => WireVerdict::Unsatisfiable,
                Some("UNKNOWN") => WireVerdict::Unknown(parse_cause(
                    tokens
                        .next()
                        .ok_or_else(|| malformed("UNKNOWN needs a cause"))?,
                )?),
                other => return Err(malformed(format!("unknown verdict {other:?}"))),
            };
            expect_end(tokens, verb)?;
            Frame::Result { job, verdict }
        }
        "INFO" => {
            let job = parse_id(&mut tokens, verb, "job id")?;
            let status = parse_status(
                tokens
                    .next()
                    .ok_or_else(|| malformed("INFO needs a status"))?,
            )?;
            let mut backlog = WireBacklog::default();
            let any_gauge = parse_counters(tokens, &mut backlog, WireBacklog::COUNTERS, verb)?;
            Frame::Info {
                job,
                status,
                backlog: any_gauge.then_some(backlog),
            }
        }
        "OK" => {
            match tokens.next() {
                Some("refill") => {}
                other => return Err(malformed(format!("unknown OK payload {other:?}"))),
            }
            expect_end(tokens, verb)?;
            Frame::OkRefill
        }
        "PONG" => {
            expect_end(tokens, verb)?;
            Frame::Pong
        }
        "BYE" => {
            expect_end(tokens, verb)?;
            Frame::Bye
        }
        "ERR" => {
            let scope = tokens
                .next()
                .ok_or_else(|| malformed("ERR needs a scope"))?;
            let job = if scope == "-" {
                None
            } else {
                Some(parse_u64(scope, "job id")?)
            };
            // The message is the rest of the line, whitespace-normalised by
            // the tokenizer-free slice: find the scope token and take what
            // follows it.
            let rest: Vec<&str> = tokens.collect();
            if rest.is_empty() {
                return Err(malformed("ERR needs a message"));
            }
            Frame::Error {
                job,
                message: rest.join(" "),
            }
        }
        other => return Err(malformed(format!("unknown verb '{other}'"))),
    };
    Ok(Some(frame))
}

fn parse_solve<'a, R: BufRead>(
    mut tokens: impl Iterator<Item = &'a str>,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    let backend = parse_backend_name(
        tokens
            .next()
            .ok_or_else(|| malformed("SOLVE needs a backend name"))?,
    )?;
    let mut seed = None;
    let mut priority = None;
    let mut artifacts = None;
    let mut wall_ms = None;
    let mut max_samples = None;
    let mut max_checks = None;
    let mut stats = None;
    let mut body_lines = None;
    for token in tokens {
        if body_lines.is_some() {
            return Err(malformed("body-lines must be the last SOLVE key"));
        }
        let (key, value) = split_key_value(token)?;
        match key {
            "seed" => store_once(&mut seed, key, parse_u64(value, key)?)?,
            "stats" => store_once(&mut stats, key, parse_bool(value, key)?)?,
            "priority" => store_once(&mut priority, key, parse_priority(value)?)?,
            "artifacts" => store_once(&mut artifacts, key, WireArtifacts::parse(value)?)?,
            "wall-ms" => store_once(&mut wall_ms, key, parse_u64(value, key)?)?,
            "samples" => store_once(&mut max_samples, key, parse_u64(value, key)?)?,
            "checks" => store_once(&mut max_checks, key, parse_u64(value, key)?)?,
            "body-lines" => body_lines = Some(parse_body_lines(value)?),
            other => return Err(malformed(format!("unknown SOLVE key '{other}'"))),
        }
    }
    let body_lines =
        body_lines.ok_or_else(|| malformed("SOLVE needs a trailing body-lines key"))?;
    let body = read_body(reader, body_lines, "a SOLVE body", Ok)?;
    Ok(Frame::Solve(SolveFrame {
        backend: backend.to_string(),
        seed: seed.unwrap_or(0),
        priority: priority.unwrap_or_default(),
        artifacts: artifacts.unwrap_or_default(),
        wall_ms,
        max_samples,
        max_checks,
        stats: stats.unwrap_or(false),
        body,
    }))
}

/// Parses a `METRICS` line: bare (the client's request) or keyed (the
/// server's snapshot response, whose `body-lines=` count announces the
/// per-backend latency lines that follow).
fn parse_metrics<'a, R: BufRead>(
    tokens: impl Iterator<Item = &'a str>,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    // Counter keys may be any subset (absent reads 0), like STATS; only the
    // trailing body-lines key distinguishes the response and is mandatory
    // there.
    let mut metrics = WireMetrics::default();
    let mut seen = 0;
    let mut body_lines = None;
    let mut any_key = false;
    for token in tokens {
        if body_lines.is_some() {
            return Err(malformed("body-lines must be the last METRICS key"));
        }
        any_key = true;
        let (key, value) = split_key_value(token)?;
        if key == "body-lines" {
            body_lines = Some(parse_body_lines(value)?);
        } else {
            parse_counter(
                key,
                value,
                &mut metrics,
                WireMetrics::COUNTERS,
                &mut seen,
                "METRICS",
            )?;
        }
    }
    if !any_key {
        return Ok(Frame::MetricsRequest);
    }
    let body_lines =
        body_lines.ok_or_else(|| malformed("METRICS response needs a trailing body-lines key"))?;
    metrics.backends = read_body(reader, body_lines, "a METRICS body", |line| {
        parse_metrics_backend(&line)
    })?;
    Ok(Frame::Metrics(metrics))
}

/// Parses one `METRICS` body line:
/// `backend <name> count=<u64> total-us=<u64> max-us=<u64>`.
fn parse_metrics_backend(line: &str) -> Result<WireBackendLatency, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some("backend") => {}
        other => {
            return Err(malformed(format!(
                "METRICS body line must start with 'backend', got {other:?}"
            )))
        }
    }
    let name = parse_backend_name(
        tokens
            .next()
            .ok_or_else(|| malformed("METRICS body line needs a backend name"))?,
    )?;
    let mut backend = WireBackendLatency {
        name: name.to_string(),
        ..WireBackendLatency::default()
    };
    parse_counters(
        tokens,
        &mut backend,
        WireBackendLatency::COUNTERS,
        "METRICS body",
    )?;
    Ok(backend)
}

/// Parses the comma-separated DIMACS literals of a `lits=` value.
fn parse_lit_list(value: &str) -> Result<Vec<i64>, ProtocolError> {
    let mut literals = Vec::new();
    for token in value.split(',') {
        let lit = parse_i64(token)?;
        if lit == 0 {
            return Err(malformed("assumption literal must be non-zero"));
        }
        literals.push(lit);
    }
    Ok(literals)
}

fn parse_session<'a, R: BufRead>(
    mut tokens: impl Iterator<Item = &'a str>,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    let subverb = tokens
        .next()
        .ok_or_else(|| malformed("SESSION needs a subverb"))?;
    let frame = match subverb {
        "OPEN" => {
            let backend = parse_backend_name(expect_key(&mut tokens, "SESSION OPEN", "backend")?)?;
            expect_end(tokens, "SESSION OPEN")?;
            Frame::SessionOpen {
                backend: backend.to_string(),
            }
        }
        "ADDCLAUSES" => {
            let verb = "SESSION ADDCLAUSES";
            let session = parse_id(&mut tokens, verb, "session id")?;
            let count = parse_body_lines(expect_key(&mut tokens, verb, "body-lines")?)?;
            expect_end(tokens, verb)?;
            let body = read_body(reader, count, "an ADDCLAUSES body", Ok)?;
            Frame::SessionAddClauses { session, body }
        }
        "ASSUME" => {
            let session = parse_id(&mut tokens, "SESSION ASSUME", "session id")?;
            let mut literals = None;
            let mut wall_ms = None;
            let mut max_samples = None;
            let mut max_checks = None;
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                match key {
                    "lits" => store_once(&mut literals, key, parse_lit_list(value)?)?,
                    "wall-ms" => store_once(&mut wall_ms, key, parse_u64(value, key)?)?,
                    "samples" => store_once(&mut max_samples, key, parse_u64(value, key)?)?,
                    "checks" => store_once(&mut max_checks, key, parse_u64(value, key)?)?,
                    other => {
                        return Err(malformed(format!("unknown SESSION ASSUME key '{other}'")))
                    }
                }
            }
            Frame::SessionAssume {
                session,
                literals: literals.unwrap_or_default(),
                wall_ms,
                max_samples,
                max_checks,
            }
        }
        "POP" => Frame::SessionPop {
            session: parse_lone_id(tokens, "SESSION POP", "session id")?,
        },
        "CLOSE" => Frame::SessionClose {
            session: parse_lone_id(tokens, "SESSION CLOSE", "session id")?,
        },
        other => return Err(malformed(format!("unknown SESSION subverb '{other}'"))),
    };
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) {
        let text = frame.encode();
        let mut cursor = Cursor::new(text.clone());
        let parsed = Frame::read_from(&mut cursor)
            .unwrap_or_else(|e| panic!("parse failed for {text:?}: {e}"))
            .expect("one frame");
        assert_eq!(parsed, frame, "round-trip mismatch for {text:?}");
        // The whole encoding was consumed.
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn every_verb_round_trips() {
        roundtrip(Frame::Solve(SolveFrame::new(
            "cdcl",
            "p cnf 2 2\n1 2 0\n-1 -2 0",
        )));
        roundtrip(Frame::Solve(SolveFrame {
            backend: "parallel-portfolio".into(),
            seed: u64::MAX,
            priority: JobPriority::High,
            artifacts: WireArtifacts::Verdict,
            wall_ms: Some(5000),
            max_samples: Some(0),
            max_checks: Some(64),
            stats: true,
            body: vec![],
        }));
        roundtrip(Frame::Cancel { job: 7 });
        roundtrip(Frame::Status { job: 0 });
        roundtrip(Frame::Refill {
            samples: Some(10),
            checks: None,
            wall_ms: Some(1),
        });
        roundtrip(Frame::Ping);
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Queued { job: 3 });
        roundtrip(Frame::Model {
            job: 3,
            literals: vec![1, -2, 3],
        });
        roundtrip(Frame::Model {
            job: 9,
            literals: vec![],
        });
        roundtrip(Frame::Stats {
            job: 6,
            stats: SolveStats {
                decisions: 12,
                conflicts: 3,
                propagations: 40,
                restarts: 1,
                learned_clauses: 3,
                assignments_tried: 0,
                flips: 0,
                coprocessor_checks: 9,
                samples: 512,
                wall_time: Duration::from_micros(1234),
                cache_hits: 1,
                preprocessed_vars_removed: 4,
                clauses_exported: 7,
                clauses_imported: 2,
                ..SolveStats::default()
            },
        });
        roundtrip(Frame::Stats {
            job: 0,
            stats: SolveStats::default(),
        });
        roundtrip(Frame::Result {
            job: 3,
            verdict: WireVerdict::Satisfiable,
        });
        roundtrip(Frame::Result {
            job: 4,
            verdict: WireVerdict::Unknown(UnknownCause::BudgetExhausted(
                ExhaustedResource::Samples,
            )),
        });
        roundtrip(Frame::Info {
            job: 5,
            status: JobStatus::Running,
            backlog: None,
        });
        roundtrip(Frame::Info {
            job: 5,
            status: JobStatus::Queued,
            backlog: Some(WireBacklog {
                queue_depth: 6,
                high: 1,
                normal: 4,
                low: 1,
            }),
        });
        roundtrip(Frame::OkRefill);
        roundtrip(Frame::Pong);
        roundtrip(Frame::Bye);
        roundtrip(Frame::Error {
            job: Some(12),
            message: "unknown backend 'minisat'".into(),
        });
        roundtrip(Frame::Error {
            job: None,
            message: "unknown verb 'FROB'".into(),
        });
    }

    #[test]
    fn session_frames_round_trip() {
        roundtrip(Frame::Hello);
        roundtrip(Frame::Caps { sessions: true });
        roundtrip(Frame::Caps { sessions: false });
        roundtrip(Frame::SessionOpen {
            backend: "cdcl".into(),
        });
        roundtrip(Frame::SessionAddClauses {
            session: 3,
            body: vec!["p cnf 2 2".into(), "1 2 0".into(), "-1 -2 0".into()],
        });
        roundtrip(Frame::SessionAddClauses {
            session: 0,
            body: vec![],
        });
        roundtrip(Frame::SessionAssume {
            session: 3,
            literals: vec![1, -2, 7],
            wall_ms: Some(250),
            max_samples: None,
            max_checks: Some(9),
        });
        roundtrip(Frame::SessionAssume {
            session: 3,
            literals: vec![],
            wall_ms: None,
            max_samples: None,
            max_checks: None,
        });
        roundtrip(Frame::SessionPop { session: 3 });
        roundtrip(Frame::SessionClose { session: 3 });
        roundtrip(Frame::SessionOk {
            session: 3,
            depth: 2,
        });
        roundtrip(Frame::FailedAssumptions {
            job: 9,
            literals: vec![-2, 7],
        });
        roundtrip(Frame::FailedAssumptions {
            job: 9,
            literals: vec![],
        });
    }

    #[test]
    fn session_parser_is_strict() {
        let bad = [
            "SESSION\n",
            "SESSION FROB 1\n",
            "SESSION OPEN\n",
            "SESSION OPEN cdcl\n",
            "SESSION OPEN backend=bad name\n",
            "SESSION OPEN backend=\n",
            "SESSION ADDCLAUSES 1\n",
            "SESSION ADDCLAUSES 1 lines=0\n",
            "SESSION ADDCLAUSES x body-lines=0\n",
            "SESSION ASSUME\n",
            "SESSION ASSUME 1 lits=0\n",
            "SESSION ASSUME 1 lits=1,,2\n",
            "SESSION ASSUME 1 lits=1 lits=2\n",
            "SESSION ASSUME 1 wall-ms=1 wall-ms=2\n",
            "SESSION ASSUME 1 frobs=2\n",
            "SESSION POP\n",
            "SESSION POP 1 2\n",
            "SESSION CLOSE -1\n",
            "SESSIONOK 1\n",
            "SESSIONOK 1 depth=x\n",
            "SESSIONOK 1 depth=0 extra\n",
            "CAPS\n",
            "CAPS sessions=maybe\n",
            "CAPS frobs=true\n",
            "HELLO there\n",
            "f 1 2 3\n",
            "f 1 2 0 4\n",
        ];
        for text in bad {
            let mut cursor = Cursor::new(text.to_string());
            let error = Frame::read_from(&mut cursor)
                .err()
                .unwrap_or_else(|| panic!("{text:?} must not parse"));
            assert!(error.is_recoverable(), "{text:?} should stay synchronised");
        }
        // An over-long ADDCLAUSES body declaration loses framing.
        let text = format!("SESSION ADDCLAUSES 1 body-lines={}\n", MAX_BODY_LINES + 1);
        let mut cursor = Cursor::new(text);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
        // A body cut off by EOF loses framing too.
        let mut cursor = Cursor::new("SESSION ADDCLAUSES 1 body-lines=2\np cnf 1 1\n".to_string());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
    }

    #[test]
    fn streams_of_frames_parse_in_order() {
        let mut text = String::new();
        let frames = vec![
            Frame::Ping,
            Frame::Solve(SolveFrame::new("dpll", "p cnf 1 1\n1 0")),
            Frame::Cancel { job: 1 },
        ];
        for frame in &frames {
            text.push_str(&frame.encode());
        }
        let mut cursor = Cursor::new(text);
        for frame in &frames {
            assert_eq!(Frame::read_from(&mut cursor).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn crlf_and_missing_final_newline_are_tolerated() {
        let mut cursor = Cursor::new("PING\r\n".to_string());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Ping));
        let mut cursor = Cursor::new("PONG".to_string());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Pong));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn solve_budget_mapping() {
        let frame = SolveFrame {
            wall_ms: Some(1500),
            max_samples: Some(7),
            ..SolveFrame::new("cdcl", "")
        };
        let budget = frame.budget();
        assert_eq!(budget.wall_time, Some(Duration::from_millis(1500)));
        assert_eq!(budget.max_samples, Some(7));
        assert_eq!(budget.max_checks, None);
        assert!(SolveFrame::new("cdcl", "").budget().is_unlimited());
    }

    #[test]
    fn stats_keys_may_be_any_subset_but_never_duplicate_or_unknown() {
        let mut cursor = Cursor::new("STATS 4 flips=17 wall-us=9\n".to_string());
        let frame = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(
            frame,
            Frame::Stats {
                job: 4,
                stats: SolveStats {
                    flips: 17,
                    wall_time: Duration::from_micros(9),
                    ..SolveStats::default()
                },
            }
        );
        let mut cursor = Cursor::new("STATS 4 flips=1 flips=2\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("STATS 4 wat=1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("STATS 4 flips=-1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn solve_stats_key_is_strict_and_off_by_default() {
        let plain = SolveFrame::new("cdcl", "p cnf 1 1\n1 0");
        assert!(!plain.stats);
        assert!(!Frame::Solve(plain).encode().contains("stats="));
        let mut cursor = Cursor::new("SOLVE cdcl stats=true body-lines=0\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Solve(solve) => assert!(solve.stats),
            other => panic!("expected SOLVE, got {other:?}"),
        }
        let mut cursor = Cursor::new("SOLVE cdcl stats=false body-lines=0\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Solve(solve) => assert!(!solve.stats),
            other => panic!("expected SOLVE, got {other:?}"),
        }
        let mut cursor = Cursor::new("SOLVE cdcl stats=yes body-lines=0\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("SOLVE cdcl stats=true stats=true body-lines=0\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    /// Every numeric field of [`SolveStats`] gets a distinct value, so a
    /// counter missing from [`SolveStats::COUNTERS`] parses back as 0 and
    /// fails the comparison. The literal names every field, so a new field
    /// does not compile here until it is given a value.
    #[test]
    fn every_solve_stats_counter_crosses_the_wire() {
        let stats = SolveStats {
            decisions: 5,
            conflicts: 2,
            propagations: 11,
            restarts: 1,
            learned_clauses: 3,
            assignments_tried: 64,
            flips: 7,
            coprocessor_checks: 13,
            samples: 100,
            last_estimate: None,
            winner: None,
            wall_time: Duration::from_micros(4321),
            cache_hits: 8,
            preprocessed_vars_removed: 6,
            clauses_exported: 9,
            clauses_imported: 4,
        };
        let text = Frame::Stats {
            job: 1,
            stats: stats.clone(),
        }
        .encode();
        match Frame::read_from(&mut Cursor::new(text)).unwrap().unwrap() {
            Frame::Stats {
                job: 1,
                stats: parsed,
            } => assert_eq!(parsed, stats),
            other => panic!("expected STATS, got {other:?}"),
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        // A bare METRICS line is the client's request...
        roundtrip(Frame::MetricsRequest);
        // ...and a keyed one is the server's snapshot response.
        roundtrip(Frame::Metrics(WireMetrics {
            queue_depth: 6,
            backlog_high: 1,
            backlog_normal: 4,
            backlog_low: 1,
            cache_hits: 17,
            cache_misses: 40,
            cache_evictions: 2,
            cache_entries: 38,
            pre_vars_removed: 120,
            pre_clauses_removed: 64,
            pre_solved: 9,
            budget_samples_spent: 100_000,
            budget_checks_spent: 4_096,
            clauses_exported: 512,
            clauses_imported: 301,
            backends: vec![
                WireBackendLatency {
                    name: "cdcl".into(),
                    count: 31,
                    total_us: 88_000,
                    max_us: 12_000,
                },
                WireBackendLatency {
                    name: "nbl-sampled".into(),
                    count: 9,
                    total_us: 4_500,
                    max_us: 900,
                },
            ],
        }));
        roundtrip(Frame::Metrics(WireMetrics::default()));
    }

    #[test]
    fn metrics_parser_is_strict() {
        let bad = [
            // Counter keys without the mandatory trailing body-lines.
            "METRICS cache-hits=3\n",
            // body-lines must come last.
            "METRICS body-lines=0 cache-hits=3\n",
            "METRICS wat=1 body-lines=0\n",
            "METRICS cache-hits=1 cache-hits=2 body-lines=0\n",
            "METRICS cache-hits=-1 body-lines=0\n",
            // Malformed body lines.
            "METRICS body-lines=1\nfrob cdcl count=1\n",
            "METRICS body-lines=1\nbackend\n",
            "METRICS body-lines=1\nbackend bad name count=1\n",
            "METRICS body-lines=1\nbackend cdcl count=1 count=2\n",
            "METRICS body-lines=1\nbackend cdcl wat=1\n",
        ];
        for text in bad {
            let mut cursor = Cursor::new(text.to_string());
            assert!(
                Frame::read_from(&mut cursor).is_err(),
                "{text:?} must not parse"
            );
        }
        // Body-line counter keys may be any subset; absent counters read 0.
        let mut cursor = Cursor::new("METRICS body-lines=1\nbackend cdcl count=5\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Metrics(metrics) => {
                assert_eq!(metrics.backends.len(), 1);
                assert_eq!(metrics.backends[0].count, 5);
                assert_eq!(metrics.backends[0].total_us, 0);
                assert_eq!(metrics.cache_hits, 0);
            }
            other => panic!("expected METRICS, got {other:?}"),
        }
        // A body cut off by EOF loses framing.
        let mut cursor = Cursor::new("METRICS body-lines=2\nbackend cdcl count=1\n".to_string());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
    }

    #[test]
    fn info_backlog_keys_are_optional_and_strict() {
        // A bare INFO (an older server) parses with no backlog.
        let mut cursor = Cursor::new("INFO 5 running\n".to_string());
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap().unwrap(),
            Frame::Info {
                job: 5,
                status: JobStatus::Running,
                backlog: None,
            }
        );
        // Any gauge key present yields a backlog (absent gauges read 0).
        let mut cursor = Cursor::new("INFO 5 queued backlog-normal=3\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Info {
                backlog: Some(backlog),
                ..
            } => {
                assert_eq!(backlog.normal, 3);
                assert_eq!(backlog.queue_depth, 0);
            }
            other => panic!("expected INFO with backlog, got {other:?}"),
        }
        let mut cursor = Cursor::new("INFO 5 running wat=1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("INFO 5 running queue-depth=1 queue-depth=2\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn exit_codes_follow_the_sat_competition_convention() {
        assert_eq!(WireVerdict::Satisfiable.exit_code(), 10);
        assert_eq!(WireVerdict::Unsatisfiable.exit_code(), 20);
        assert_eq!(WireVerdict::Unknown(UnknownCause::Cancelled).exit_code(), 0);
    }

    #[test]
    fn recoverability_classification() {
        assert!(malformed("x").is_recoverable());
        assert!(!ProtocolError::Desync("x".into()).is_recoverable());
        assert!(!ProtocolError::Io(std::io::Error::other("x")).is_recoverable());
    }
}
