//! The `nbl-satd` TCP server: an accept loop in front of one shared
//! [`SolveService`].
//!
//! Every connection gets a dedicated reader thread that parses frames off the
//! socket and maps them 1:1 onto the service API: `SOLVE` →
//! [`SolveService::submit_with_priority`], `CANCEL` → [`JobHandle::cancel`],
//! `STATUS` → [`JobHandle::status`], `REFILL` → the service's budget refills,
//! `SHUTDOWN` → a graceful drain of the whole server. Each submitted job also
//! gets a lightweight waiter thread that blocks on [`JobHandle::wait_ref`]
//! and streams the job's `v`/`RESULT` frames back the moment the outcome
//! lands — so one connection multiplexes any number of in-flight jobs and
//! completions arrive out of submission order when a later job finishes
//! first. All writers share one per-connection lock and write whole frames
//! under it, so concurrent completions interleave frame-by-frame, never
//! byte-by-byte.
//!
//! Malformed frames are answered with `ERR - <reason>` and the connection
//! keeps going; only a lost framing (oversized line or body declaration) or
//! an I/O error closes the connection. A closing connection cancels its still
//! unfinished jobs — an out-of-process client that vanishes must not keep
//! burning the pool's budget.
//!
//! # Sessions
//!
//! `SESSION OPEN` maps onto [`SolveService::open_session`]: the connection
//! owns a map of [`SessionHandle`]s keyed by server-assigned session ids.
//! Structural operations (`ADDCLAUSES`, `POP`, `CLOSE`) are served on the
//! reader thread — they queue behind any in-flight solve of the same session
//! and are acked with `SESSIONOK` carrying the new depth. `ASSUME` queues a
//! solve like `SOLVE` does: the `QUEUED` ack assigns a job id from a
//! dedicated high range (so one-shot ids never collide), a waiter thread
//! streams the completion (`v`-line, failed-assumption `f`-line, `RESULT`),
//! and `CANCEL` of that id raises the call's cancellation token. A closing
//! connection drops its sessions, which releases each pinned solver.

use crate::protocol::{Frame, SolveFrame, WireBacklog, WireVerdict};
use cnf::{dimacs, Literal};
use nbl_sat_core::{
    BackendRegistry, Budget, JobHandle, JobStatus, SessionCall, SessionHandle, SolveOutcome,
    SolveRequest, SolveService, SolveVerdict, DEFAULT_CACHE_CAPACITY,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle as ThreadHandle};
use std::time::Duration;

/// How long the accept loop backs off after a failed accept (out of file
/// descriptors, say) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// First job id handed to `SESSION ASSUME` solves. One-shot ids count up from
/// 0 and session ids count up from here, so the two ranges cannot collide on
/// a connection's wire.
const SESSION_JOB_BASE: u64 = 1 << 63;

/// Configuration of a [`NblSatServer`].
#[derive(Debug)]
pub struct ServerConfig {
    registry: BackendRegistry,
    workers: Option<usize>,
    budget: Budget,
    cache_capacity: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry: BackendRegistry::default(),
            workers: None,
            budget: Budget::unlimited(),
            cache_capacity: Some(DEFAULT_CACHE_CAPACITY),
        }
    }
}

impl ServerConfig {
    /// A configuration with the default backend registry, one worker per
    /// CPU, an unlimited shared budget, and the verdict cache enabled at
    /// [`DEFAULT_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Serves backends from (a cheap clone of) `registry` instead of the
    /// default one.
    pub fn registry(mut self, registry: &BackendRegistry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Sets the solve-service worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the shared budget pool every job is charged against
    /// (refillable over the wire via `REFILL`).
    pub fn shared_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Resizes the verdict/model cache isomorphic resubmissions are answered
    /// from (default [`DEFAULT_CACHE_CAPACITY`] entries).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Disables the verdict/model cache: every submission dispatches to a
    /// backend (preprocessing still runs).
    pub fn no_cache(mut self) -> Self {
        self.cache_capacity = None;
        self
    }
}

/// Everything the accept loop and the connection threads share.
struct ServerShared {
    service: SolveService,
    /// Raised by `SHUTDOWN` frames and [`NblSatServer::stop`].
    stop: AtomicBool,
    stopped: Condvar,
    stopped_lock: Mutex<bool>,
}

impl ServerShared {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.notify_stopped();
    }

    /// Wakes [`NblSatServer::wait`]; the stop flag must already be raised.
    fn notify_stopped(&self) {
        let mut stopped = self
            .stopped_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *stopped = true;
        self.stopped.notify_all();
    }
}

/// The out-of-process solving server: a [`TcpListener`] accept loop in front
/// of a [`SolveService`].
///
/// ```no_run
/// use nbl_net::{NblSatServer, ServerConfig};
///
/// let server = NblSatServer::bind("127.0.0.1:0", ServerConfig::new())?;
/// println!("listening on {}", server.local_addr());
/// server.wait(); // blocks until a client sends SHUTDOWN (or stop() is called)
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct NblSatServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<ThreadHandle<()>>>,
}

impl std::fmt::Debug for NblSatServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NblSatServer")
            .field("local_addr", &self.local_addr)
            .field("stopping", &self.shared.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl NblSatServer {
    /// Binds the listener (use port 0 for an ephemeral port), starts the
    /// solve service and the accept loop, and returns immediately.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut builder = SolveService::builder(&config.registry).shared_budget(config.budget);
        if let Some(workers) = config.workers {
            builder = builder.workers(workers);
        }
        if let Some(capacity) = config.cache_capacity {
            builder = builder.cache_capacity(capacity);
        }
        let shared = Arc::new(ServerShared {
            service: builder.start(),
            stop: AtomicBool::new(false),
            stopped: Condvar::new(),
            stopped_lock: Mutex::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(NblSatServer {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address the server is listening on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying solve service, for in-process observability (pending
    /// jobs, shared budget) alongside the wire interface.
    pub fn service(&self) -> &SolveService {
        &self.shared.service
    }

    /// Returns `true` once a `SHUTDOWN` frame or [`NblSatServer::stop`] has
    /// been seen.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Blocks until the server is asked to stop (by a client's `SHUTDOWN`
    /// frame or a concurrent [`NblSatServer::stop`]), then joins the accept
    /// loop and drains the solve service.
    pub fn wait(&self) {
        let mut stopped = self
            .shared
            .stopped_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*stopped {
            stopped = self
                .shared
                .stopped
                .wait(stopped)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(stopped);
        self.finish();
    }

    /// Stops the server: no new connections are accepted, the accept loop is
    /// joined, and the solve service drains its accepted jobs. Idempotent.
    pub fn stop(&self) {
        self.shared.request_stop();
        self.finish();
    }

    fn finish(&self) {
        if let Some(handle) = self
            .accept_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            // The accept loop blocks in `accept`. One connection of our own
            // wakes it to see the stop flag; if that connect fails, the
            // thread may never wake, so it is left detached.
            if TcpStream::connect(wake_addr(self.local_addr)).is_ok() {
                let _ = handle.join();
            }
        }
        self.shared.service.shutdown();
    }
}

/// The address that reaches a listener bound to `local`: `local` itself, or
/// the loopback address of the same family when `local` is unspecified.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

impl Drop for NblSatServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        // Once the stop flag is up, whatever woke the accept (the server's
        // own wake-up connection, or a late client) is dropped unserved.
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    // A connection failing to set up or desyncing tears down
                    // only itself.
                    let _ = serve_connection(stream, &shared);
                });
            }
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// The per-connection state shared between the reader thread and the per-job
/// waiter threads.
struct Connection {
    writer: Mutex<BufWriter<TcpStream>>,
    /// Every job this connection submitted, by id; entries live until the
    /// connection closes so `STATUS`/`CANCEL` keep working after completion.
    /// Once the completion is written the handle (and with it the outcome)
    /// is dropped and `None` marks the job finished.
    jobs: Mutex<HashMap<u64, Option<Arc<JobHandle>>>>,
    /// Every session this connection opened, by server-assigned id.
    sessions: Mutex<HashMap<u64, SessionHandle>>,
    /// Cancellation flags of `SESSION ASSUME` solves, by job id; `CANCEL`
    /// falls through to this map when the id is not a one-shot job.
    session_cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// The next `SESSION OPEN` ack's session id.
    next_session: AtomicU64,
    /// Offset above [`SESSION_JOB_BASE`] of the next `SESSION ASSUME` job id.
    next_session_job: AtomicU64,
    /// Jobs whose completion frame has not been written yet. `SHUTDOWN`
    /// drains this to zero before answering `BYE`, so `BYE` really is the
    /// connection's last frame.
    inflight: Mutex<usize>,
    drained: Condvar,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Connection {
            writer: Mutex::new(BufWriter::new(stream)),
            jobs: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            session_cancels: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_session_job: AtomicU64::new(0),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    /// Called by a waiter thread after it wrote (or failed to write) its
    /// job's completion.
    fn completion_written(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        *inflight = inflight.saturating_sub(1);
        if *inflight == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every submitted job's completion frame has been written.
    fn drain_completions(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        while *inflight > 0 {
            inflight = self
                .drained
                .wait(inflight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    /// Writes one frame atomically with respect to other writers.
    fn send(&self, frame: &Frame) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        frame.write_to(&mut *writer)
    }

    /// Writes a job's completion: the model `v`-line (when there is one) and
    /// the `STATS` line (when the job asked for it) immediately followed by
    /// the `RESULT` line, under one lock so the group never interleaves with
    /// another job's frames.
    fn send_completion(
        &self,
        job: u64,
        outcome: &SolveOutcome,
        want_stats: bool,
    ) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
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
            Frame::Model { job, literals }.write_to(&mut *writer)?;
        }
        if want_stats {
            Frame::Stats {
                job,
                stats: (&outcome.stats).into(),
            }
            .write_to(&mut *writer)?;
        }
        if let Some(core) = &outcome.failed_assumptions {
            let literals = core.iter().map(|lit| lit.to_dimacs()).collect();
            Frame::FailedAssumptions { job, literals }.write_to(&mut *writer)?;
        }
        let verdict = match outcome.verdict {
            SolveVerdict::Satisfiable => WireVerdict::Satisfiable,
            SolveVerdict::Unsatisfiable => WireVerdict::Unsatisfiable,
            SolveVerdict::Unknown(cause) => WireVerdict::Unknown(cause.into()),
        };
        Frame::Result { job, verdict }.write_to(&mut *writer)
    }

    fn send_error(&self, job: Option<u64>, message: impl Into<String>) -> std::io::Result<()> {
        let mut message = message.into();
        // ERR is a single-line frame; collapse anything that would break it.
        message.retain(|c| c != '\n' && c != '\r');
        if message.is_empty() {
            message.push_str("error");
        }
        self.send(&Frame::Error { job, message })
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone()?;
    let connection = Arc::new(Connection::new(stream));
    let served = read_loop(reader_stream, &connection, shared);
    // The client is gone (or told to go): stop spending budget on its
    // unfinished jobs. This must run no matter how the read loop ended —
    // a write failing on a vanished client's socket included.
    let jobs = connection
        .jobs
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for handle in jobs.values().flatten() {
        if handle.status() != JobStatus::Finished {
            handle.cancel();
        }
    }
    drop(jobs);
    // Same for sessions: raise every in-flight ASSUME's cancel flag, then
    // drop the handles without joining — the pinned solver threads notice
    // the disconnect and release themselves.
    for flag in connection
        .session_cancels
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        flag.store(true, Ordering::Relaxed);
    }
    connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    served
}

fn read_loop(
    reader_stream: TcpStream,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(reader_stream);
    loop {
        match Frame::read_from(&mut reader) {
            Ok(None) => return Ok(()),
            Ok(Some(frame)) => {
                if !handle_frame(frame, connection, shared)? {
                    return Ok(());
                }
            }
            Err(error) => {
                let recoverable = error.is_recoverable();
                connection.send_error(None, error.to_string())?;
                if !recoverable {
                    return Ok(());
                }
            }
        }
    }
}

/// Dispatches one parsed frame. Returns `false` when the connection should
/// close (after `SHUTDOWN`).
fn handle_frame(
    frame: Frame,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
) -> std::io::Result<bool> {
    match frame {
        Frame::Solve(solve) => handle_solve(solve, connection, shared)?,
        Frame::Cancel { job } => {
            let jobs = connection
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match jobs.get(&job) {
                Some(Some(handle)) => handle.cancel(),
                // Finished: nothing left to cancel.
                Some(None) => {}
                None => {
                    drop(jobs);
                    let cancels = connection
                        .session_cancels
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    match cancels.get(&job) {
                        Some(flag) => flag.store(true, Ordering::Relaxed),
                        None => {
                            drop(cancels);
                            connection.send_error(Some(job), format!("unknown job {job}"))?;
                        }
                    }
                }
            }
        }
        Frame::Status { job } => {
            let jobs = connection
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match jobs.get(&job) {
                Some(entry) => {
                    let status = entry
                        .as_ref()
                        .map_or(JobStatus::Finished, |handle| handle.status())
                        .into();
                    drop(jobs);
                    connection.send(&Frame::Info {
                        job,
                        status,
                        backlog: Some(live_backlog(&shared.service)),
                    })?;
                }
                None => {
                    drop(jobs);
                    connection.send_error(Some(job), format!("unknown job {job}"))?;
                }
            }
        }
        Frame::MetricsRequest => {
            let snapshot = shared.service.metrics_snapshot();
            connection.send(&Frame::Metrics((&snapshot).into()))?;
        }
        Frame::Refill {
            samples,
            checks,
            wall_ms,
        } => {
            if let Some(samples) = samples {
                shared.service.refill_samples(samples);
            }
            if let Some(checks) = checks {
                shared.service.refill_checks(checks);
            }
            if let Some(ms) = wall_ms {
                shared.service.extend_deadline(Duration::from_millis(ms));
            }
            connection.send(&Frame::OkRefill)?;
        }
        Frame::Ping => connection.send(&Frame::Pong)?,
        Frame::Hello => connection.send(&Frame::Caps { sessions: true })?,
        Frame::SessionOpen { backend } => handle_session_open(&backend, connection, shared)?,
        Frame::SessionAddClauses { session, body } => {
            handle_session_add(session, &body, connection)?;
        }
        Frame::SessionAssume {
            session,
            literals,
            wall_ms,
            max_samples,
            max_checks,
        } => {
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
            handle_session_assume(session, &literals, budget, connection)?;
        }
        Frame::SessionPop { session } => handle_session_pop(session, connection)?,
        Frame::SessionClose { session } => {
            let handle = connection
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&session);
            match handle {
                // `close` joins the pinned solver thread, so the ack really
                // means the solver is gone. An in-flight ASSUME of the same
                // session finishes (and streams its completion) first.
                Some(handle) => {
                    handle.close();
                    connection.send(&Frame::SessionOk { session, depth: 0 })?;
                }
                None => connection.send_error(None, format!("unknown session {session}"))?,
            }
        }
        Frame::Shutdown => {
            // Graceful drain: every job this connection already submitted
            // still streams its completion, then BYE closes the exchange.
            // The stop flag is raised before BYE so that a client observing
            // the ack also observes the server stopping. `wait()` is woken
            // only after BYE is written: `nbl-satd` exits as soon as it
            // returns, and must not exit with BYE unsent.
            connection.drain_completions();
            shared.stop.store(true, Ordering::Relaxed);
            let sent = connection.send(&Frame::Bye);
            shared.notify_stopped();
            sent?;
            return Ok(false);
        }
        // Server-side verbs arriving at the server are grammar-valid but
        // direction-invalid; answer ERR like any other bad frame.
        Frame::Queued { .. }
        | Frame::Model { .. }
        | Frame::Result { .. }
        | Frame::Info { .. }
        | Frame::Stats { .. }
        | Frame::FailedAssumptions { .. }
        | Frame::SessionOk { .. }
        | Frame::Caps { .. }
        | Frame::Metrics(_)
        | Frame::OkRefill
        | Frame::Pong
        | Frame::Bye
        | Frame::Error { .. } => {
            connection.send_error(None, "server-direction verb sent by client")?;
        }
    }
    Ok(true)
}

fn handle_solve(
    solve: SolveFrame,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
) -> std::io::Result<()> {
    let formula = match dimacs::parse_str(&solve.dimacs()) {
        Ok(formula) => formula,
        Err(e) => {
            return connection.send_error(None, format!("dimacs: {e}"));
        }
    };
    let request = SolveRequest::new(&formula)
        .artifacts(solve.artifacts.into())
        .seed(solve.seed)
        .budget(solve.budget());
    let handle = Arc::new(shared.service.submit_with_priority(
        &solve.backend,
        &request,
        solve.priority.into(),
    ));
    let job = handle.id();
    let want_stats = solve.stats;
    connection
        .jobs
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(job, Some(Arc::clone(&handle)));
    *connection
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner) += 1;
    connection.send(&Frame::Queued { job })?;
    // One waiter thread per in-flight job streams the completion back the
    // moment it lands, independently of submission order.
    let connection = Arc::clone(connection);
    thread::spawn(move || {
        let result = handle.wait_ref();
        let written = match &result {
            Ok(outcome) => connection.send_completion(job, outcome, want_stats),
            Err(error) => connection.send_error(Some(job), error.to_string()),
        };
        // A send failing means the client is gone; the reader thread notices
        // the same condition and cleans up, nothing to do here.
        let _ = written;
        // Keep only the finished marker: the outcome is on the wire, and
        // holding it until the connection closes would grow memory with
        // every job the client ever sent.
        connection
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(job, None);
        connection.completion_written();
    });
    Ok(())
}

fn handle_session_open(
    backend: &str,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
) -> std::io::Result<()> {
    let handle = match shared.service.open_session(backend) {
        Ok(handle) => handle,
        Err(e) => return connection.send_error(None, e.to_string()),
    };
    let session = connection.next_session.fetch_add(1, Ordering::Relaxed);
    connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(session, handle);
    connection.send(&Frame::SessionOk { session, depth: 0 })
}

fn handle_session_add(
    session: u64,
    body: &[String],
    connection: &Arc<Connection>,
) -> std::io::Result<()> {
    // The body is raw DIMACS clause lines; the `p cnf` header is optional.
    let formula = match dimacs::parse_str(&body.join("\n")) {
        Ok(formula) => formula,
        Err(e) => return connection.send_error(None, format!("dimacs: {e}")),
    };
    let sessions = connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(handle) = sessions.get(&session) else {
        drop(sessions);
        return connection.send_error(None, format!("unknown session {session}"));
    };
    let pushed = handle.push(&formula);
    drop(sessions);
    match pushed {
        Ok(depth) => connection.send(&Frame::SessionOk {
            session,
            depth: depth as u64,
        }),
        Err(e) => connection.send_error(None, e.to_string()),
    }
}

fn handle_session_pop(session: u64, connection: &Arc<Connection>) -> std::io::Result<()> {
    let sessions = connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(handle) = sessions.get(&session) else {
        drop(sessions);
        return connection.send_error(None, format!("unknown session {session}"));
    };
    let popped = handle.pop();
    let depth = handle.depth();
    drop(sessions);
    match (popped, depth) {
        (Ok(true), Ok(depth)) => connection.send(&Frame::SessionOk {
            session,
            depth: depth as u64,
        }),
        (Ok(false), _) => {
            connection.send_error(None, format!("session {session} has no frame to pop"))
        }
        (Err(e), _) | (_, Err(e)) => connection.send_error(None, e.to_string()),
    }
}

fn handle_session_assume(
    session: u64,
    literals: &[i64],
    budget: Budget,
    connection: &Arc<Connection>,
) -> std::io::Result<()> {
    let mut assumptions = Vec::with_capacity(literals.len());
    for &value in literals {
        match Literal::from_dimacs(value) {
            Ok(lit) => assumptions.push(lit),
            Err(e) => return connection.send_error(None, format!("lits: {e}")),
        }
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let call = SessionCall::new()
        .assumptions(assumptions)
        .budget(budget)
        .cancel_token(Arc::clone(&cancel));
    let sessions = connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(handle) = sessions.get(&session) else {
        drop(sessions);
        return connection.send_error(None, format!("unknown session {session}"));
    };
    // `start_solve` only enqueues, so the reader thread stays responsive
    // even while the pinned solver is busy; the waiter thread below blocks.
    let solve = match handle.start_solve(&call) {
        Ok(solve) => solve,
        Err(e) => {
            drop(sessions);
            return connection.send_error(None, e.to_string());
        }
    };
    drop(sessions);
    let job = SESSION_JOB_BASE + connection.next_session_job.fetch_add(1, Ordering::Relaxed);
    connection
        .session_cancels
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(job, cancel);
    *connection
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner) += 1;
    connection.send(&Frame::Queued { job })?;
    let connection = Arc::clone(connection);
    thread::spawn(move || {
        let result = solve.wait();
        let written = match &result {
            // Session solves always report stats: incremental clients (the
            // shard coordinator in particular) merge them fleet-wide.
            Ok(outcome) => connection.send_completion(job, outcome, true),
            Err(error) => connection.send_error(Some(job), error.to_string()),
        };
        let _ = written;
        connection.completion_written();
    });
    Ok(())
}

/// The service's live queue gauges, for `INFO` answers.
fn live_backlog(service: &SolveService) -> WireBacklog {
    let [high, normal, low] = service.pending_by_priority();
    WireBacklog {
        queue_depth: (high + normal + low) as u64,
        high: high as u64,
        normal: normal as u64,
        low: low as u64,
    }
}

/// Closes both directions of a stream, tolerating already-closed sockets.
/// Used by the client to deterministically unblock its reader thread.
pub(crate) fn shutdown_stream(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireJobStatus;

    #[test]
    fn finished_jobs_keep_only_a_marker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let connection = Arc::new(Connection::new(listener.accept().unwrap().0));
        let shared = Arc::new(ServerShared {
            service: SolveService::builder(&BackendRegistry::default())
                .workers(1)
                .start(),
            stop: AtomicBool::new(false),
            stopped: Condvar::new(),
            stopped_lock: Mutex::new(false),
        });
        let solve = SolveFrame::new("cdcl", "p cnf 2 2\n1 2 0\n-1 -2 0\n");
        for _ in 0..3 {
            handle_solve(solve.clone(), &connection, &shared).unwrap();
        }
        connection.drain_completions();
        let jobs = connection.jobs.lock().unwrap();
        assert_eq!(jobs.len(), 3);
        assert!(
            jobs.values().all(Option::is_none),
            "a finished job still holds its handle"
        );
        drop(jobs);

        // The marker still answers STATUS, CANCEL stays a no-op, and an
        // unknown id still gets ERR.
        for frame in [
            Frame::Cancel { job: 0 },
            Frame::Status { job: 0 },
            Frame::Status { job: 3 },
        ] {
            assert!(handle_frame(frame, &connection, &shared).unwrap());
        }
        let mut reader = BufReader::new(client);
        let mut frames = Vec::new();
        while frames.len() < 11 {
            frames.push(Frame::read_from(&mut reader).unwrap().unwrap());
        }
        // Three QUEUED acks plus a `v`-line and RESULT per job come first.
        assert!(matches!(
            frames[9],
            Frame::Info {
                job: 0,
                status: WireJobStatus::Finished,
                ..
            }
        ));
        assert!(matches!(frames[10], Frame::Error { job: Some(3), .. }));
        shared.service.shutdown();
    }

    #[test]
    fn shutdown_wakes_wait_only_after_bye_is_written() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let connection = Arc::new(Connection::new(listener.accept().unwrap().0));
        let shared = Arc::new(ServerShared {
            service: SolveService::builder(&BackendRegistry::default())
                .workers(1)
                .start(),
            stop: AtomicBool::new(false),
            stopped: Condvar::new(),
            stopped_lock: Mutex::new(false),
        });
        // Holding the writer lock keeps BYE from being written.
        let writer = connection.writer.lock().unwrap();
        let handler = {
            let (connection, shared) = (Arc::clone(&connection), Arc::clone(&shared));
            thread::spawn(move || handle_frame(Frame::Shutdown, &connection, &shared))
        };
        while !shared.stop.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        // The stop flag is up, but `wait()` must not wake while BYE is unsent.
        let stopped = shared.stopped_lock.lock().unwrap();
        let (stopped, _) = shared
            .stopped
            .wait_timeout_while(stopped, Duration::from_millis(200), |stopped| !*stopped)
            .unwrap();
        assert!(!*stopped, "wait() woke before BYE was written");
        drop(stopped);

        drop(writer);
        let stopped = shared.stopped_lock.lock().unwrap();
        let (stopped, _) = shared
            .stopped
            .wait_timeout_while(stopped, Duration::from_secs(30), |stopped| !*stopped)
            .unwrap();
        assert!(*stopped, "wait() never woke after BYE");
        drop(stopped);
        assert!(
            !handler.join().unwrap().unwrap(),
            "SHUTDOWN keeps the connection open"
        );
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(client);
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Some(Frame::Bye));
        shared.service.shutdown();
    }

    #[test]
    fn new_connections_are_accepted_without_a_poll_delay() {
        use crate::client::NblSatClient;
        use std::time::Instant;
        let server = NblSatServer::bind("127.0.0.1:0", ServerConfig::new().workers(1)).unwrap();
        let mut round_trips: Vec<Duration> = (0..30)
            .map(|_| {
                let start = Instant::now();
                let client = NblSatClient::connect(server.local_addr()).unwrap();
                client.ping().unwrap();
                start.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median connect + PING round trip {median:?}"
        );
        server.stop();
    }
}
