//! The `nbl-satd` TCP server: an accept loop in front of one shared
//! [`SolveService`].
//!
//! Every connection gets a reader thread and a writer thread. The reader
//! parses frames off the socket and maps them 1:1 onto the service API:
//! `SOLVE` → [`SolveService::submit_with_priority`], `CANCEL` →
//! [`JobHandle::cancel`], `STATUS` → [`JobHandle::status`], `REFILL` → the
//! service's budget refills, `SHUTDOWN` → a graceful drain of the whole
//! server. The writer owns the socket's write half and drains an ordered
//! outbox of encoded frames. The reader enqueues its own replies there, and
//! each job's completion hook ([`JobHandle::on_finish`]) enqueues the job's
//! `v`/`STATS`/`RESULT` group (or `ERR`) as one entry the moment the outcome
//! lands, on whichever thread finished the job. So one connection
//! multiplexes any number of in-flight jobs without a thread per job,
//! completions arrive out of submission order when a later job finishes
//! first, groups never interleave, and no worker or session thread ever
//! touches a socket: a client that stops reading stalls only its own writer
//! and, once its outbox holds more than 1 MiB, its own reader.
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
//! dedicated high range (so one-shot ids never collide), the session
//! thread's completion hook ([`SessionHandle::start_solve`]) enqueues the
//! completion (`v`-line, `STATS`, failed-assumption `f`-line, `RESULT`),
//! `CANCEL` of that id raises the call's cancellation token, and `STATUS`
//! answers `running` until the call's outcome exists. A closing
//! connection drops its sessions, which releases each pinned solver.

use crate::protocol::{caps_budget, Frame, SolveFrame, WireBacklog, WireVerdict};
use cnf::{dimacs, Literal};
use nbl_sat_core::{
    BackendRegistry, Budget, JobHandle, JobStatus, NblSatError, SessionCall, SessionHandle,
    SolveOutcome, SolveRequest, SolveService, SolveVerdict, DEFAULT_CACHE_CAPACITY,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle as ThreadHandle};
use std::time::Duration;

/// How long the accept loop backs off after a failed accept (out of file
/// descriptors, say) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bytes of encoded frames a connection's outbox may hold before its reader
/// stops taking requests. A client that sends without reading then stalls
/// its own connection, as a full socket buffer stalls it, instead of growing
/// the server's memory. Completion hooks never wait on it.
const OUTBOX_LIMIT: usize = 1 << 20;

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

/// A job id of a connection, as [`Connection::entry`] finds it.
#[derive(Clone)]
enum JobEntry {
    /// A one-shot job whose completion is not enqueued yet.
    OneShot(Arc<JobHandle>),
    /// A `SESSION ASSUME` job whose completion is not enqueued yet, with its
    /// cancellation flag.
    Session(Arc<AtomicBool>),
    /// A job of either kind whose completion is enqueued.
    Finished,
}

impl JobEntry {
    fn cancel(&self) {
        match self {
            JobEntry::OneShot(handle) => handle.cancel(),
            JobEntry::Session(flag) => flag.store(true, Ordering::Relaxed),
            JobEntry::Finished => {}
        }
    }
}

/// The per-connection state the reader thread and the completion hooks
/// share. Each holder of it can enqueue frames, so the writer stops only once
/// the reader and every pending hook let go of it.
struct Connection {
    /// The writer thread's queue of encoded frames, written in order.
    outbox: Sender<String>,
    /// Bytes enqueued in the outbox and not yet written; shared with the
    /// writer.
    unsent: Arc<AtomicUsize>,
    /// Every job this connection submitted, by id; entries live until the
    /// connection closes so `STATUS`/`CANCEL` keep working after completion.
    /// Once the completion is enqueued, the entry keeps only the finished
    /// marker, not the handle or the outcome.
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// Every session this connection opened, by server-assigned id.
    sessions: Mutex<HashMap<u64, SessionHandle>>,
    /// The next `SESSION OPEN` ack's session id.
    next_session: AtomicU64,
    /// Offset above [`SESSION_JOB_BASE`] of the next `SESSION ASSUME` job id.
    next_session_job: AtomicU64,
}

impl Connection {
    fn new(outbox: Sender<String>) -> Self {
        Connection {
            outbox,
            unsent: Arc::new(AtomicUsize::new(0)),
            jobs: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_session_job: AtomicU64::new(0),
        }
    }

    fn jobs(&self) -> MutexGuard<'_, HashMap<u64, JobEntry>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What `job` names on this connection; `None` for an id this connection
    /// never issued. The map is unlocked again on return: cancelling the
    /// entry may run the job's completion hook, which locks it.
    fn entry(&self, job: u64) -> Option<JobEntry> {
        self.jobs().get(&job).cloned()
    }

    /// Hands encoded frames to the writer; fails once the writer has stopped
    /// because the client is gone.
    fn enqueue(&self, frames: String) -> std::io::Result<()> {
        self.unsent.fetch_add(frames.len(), Ordering::Relaxed);
        self.outbox
            .send(frames)
            .map_err(|_| std::io::ErrorKind::BrokenPipe.into())
    }

    fn send(&self, frame: &Frame) -> std::io::Result<()> {
        self.enqueue(frame.encode())
    }

    fn send_error(&self, job: Option<u64>, message: impl Into<String>) -> std::io::Result<()> {
        self.send(&error_frame(job, message))
    }

    /// The completion hook of `job`: marks the job finished, then enqueues
    /// its completion group as one entry, so the group is written with one
    /// flush and never interleaves with another job's frames. The hook runs
    /// on whichever thread finishes the job and never touches the socket.
    fn completion(
        self: &Arc<Self>,
        job: u64,
        want_stats: bool,
    ) -> impl FnOnce(&Result<SolveOutcome, NblSatError>) + Send + 'static {
        let connection = Arc::clone(self);
        move |result| {
            // Marked before the RESULT is enqueued, so a STATUS sent after
            // the client read it never answers `running`.
            connection.jobs().insert(job, JobEntry::Finished);
            let group = match result {
                Ok(outcome) => completion_group(job, outcome, want_stats),
                Err(error) => error_frame(Some(job), error.to_string()).encode(),
            };
            // A failed send means the client is gone; the reader notices
            // the same and cleans up.
            let _ = connection.enqueue(group);
        }
    }
}

/// A job's completion group: the model `v`-line (when there is one), the
/// `STATS` line (when the job asked for it), the failed-assumption `f`-line
/// (when there is one) and the `RESULT` line.
fn completion_group(job: u64, outcome: &SolveOutcome, want_stats: bool) -> String {
    let mut group = String::new();
    if let Some(model) = &outcome.model {
        let literals = model
            .iter()
            .map(|(var, value)| Literal::with_phase(var, value).to_dimacs())
            .collect();
        group.push_str(&Frame::Model { job, literals }.encode());
    }
    if want_stats {
        let stats = outcome.stats.clone();
        group.push_str(&Frame::Stats { job, stats }.encode());
    }
    if let Some(core) = &outcome.failed_assumptions {
        let literals = core.iter().map(|lit| lit.to_dimacs()).collect();
        group.push_str(&Frame::FailedAssumptions { job, literals }.encode());
    }
    let verdict = match outcome.verdict {
        SolveVerdict::Satisfiable => WireVerdict::Satisfiable,
        SolveVerdict::Unsatisfiable => WireVerdict::Unsatisfiable,
        SolveVerdict::Unknown(cause) => WireVerdict::Unknown(cause),
    };
    group.push_str(&Frame::Result { job, verdict }.encode());
    group
}

fn error_frame(job: Option<u64>, message: impl Into<String>) -> Frame {
    let mut message = message.into();
    // ERR is a single-line frame; collapse anything that would break it.
    message.retain(|c| c != '\n' && c != '\r');
    if message.is_empty() {
        message.push_str("error");
    }
    Frame::Error { job, message }
}

/// The writer thread: writes the outbox's frames in order, with one flush
/// whenever the outbox runs dry, until every sender is gone or the client
/// stops taking bytes.
fn write_loop(outbox: &Receiver<String>, unsent: &AtomicUsize, stream: TcpStream) {
    let mut writer = BufWriter::new(stream);
    while let Ok(first) = outbox.recv() {
        for frames in std::iter::once(first).chain(outbox.try_iter()) {
            if writer.write_all(frames.as_bytes()).is_err() {
                return;
            }
            unsent.fetch_sub(frames.len(), Ordering::Relaxed);
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let write_half = stream.try_clone()?;
    let (outbox, frames) = mpsc::channel();
    let connection = Arc::new(Connection::new(outbox));
    let unsent = Arc::clone(&connection.unsent);
    let writer = thread::spawn(move || write_loop(&frames, &unsent, write_half));
    let mut reader = BufReader::new(stream);
    let served = read_loop(&mut reader, &connection, shared, &writer);
    let shutdown = matches!(served, Ok(true));
    if !shutdown {
        // The client is gone (or lost framing): stop spending budget on its
        // unfinished jobs. This must run no matter how the read loop ended,
        // the writer failing on a vanished client's socket included. After
        // SHUTDOWN they drain instead.
        let unfinished: Vec<JobEntry> = connection.jobs().values().cloned().collect();
        for entry in unfinished {
            entry.cancel();
        }
    }
    // Dropping the sessions lets each pinned solver thread release itself
    // once it has answered its queued calls.
    connection
        .sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    drop(connection);
    // The writer stops once every completion hook has run and its group is
    // written, so after SHUTDOWN, BYE really is the connection's last frame.
    let _ = writer.join();
    if shutdown {
        say_bye(shared, reader.get_mut())?;
    }
    served.map(drop)
}

/// Answers `SHUTDOWN` once the connection's completions are written. The
/// stop flag is raised before BYE so that a client observing the ack also
/// observes the server stopping. `wait()` is woken only after BYE is
/// written: `nbl-satd` exits as soon as it returns, and must not exit with
/// BYE unsent.
fn say_bye(shared: &ServerShared, out: &mut impl Write) -> std::io::Result<()> {
    shared.stop.store(true, Ordering::Relaxed);
    let sent = Frame::Bye.write_to(out);
    shared.notify_stopped();
    sent
}

/// Reads and dispatches frames until the client leaves or framing is lost
/// (`Ok(false)`), or `SHUTDOWN` arrives (`Ok(true)`).
fn read_loop(
    reader: &mut BufReader<TcpStream>,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
    writer: &ThreadHandle<()>,
) -> std::io::Result<bool> {
    loop {
        while connection.unsent.load(Ordering::Relaxed) > OUTBOX_LIMIT && !writer.is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        match Frame::read_from(reader) {
            Ok(None) => return Ok(false),
            Ok(Some(frame)) => {
                if !handle_frame(frame, connection, shared)? {
                    return Ok(true);
                }
            }
            Err(error) => {
                let recoverable = error.is_recoverable();
                connection.send_error(None, error.to_string())?;
                if !recoverable {
                    return Ok(false);
                }
            }
        }
    }
}

/// Dispatches one parsed frame. Returns `false` on `SHUTDOWN`.
fn handle_frame(
    frame: Frame,
    connection: &Arc<Connection>,
    shared: &Arc<ServerShared>,
) -> std::io::Result<bool> {
    match frame {
        Frame::Solve(solve) => handle_solve(solve, connection, shared)?,
        Frame::Cancel { job } => match connection.entry(job) {
            // Cancelling a finished job is a no-op.
            Some(entry) => entry.cancel(),
            None => connection.send_error(Some(job), format!("unknown job {job}"))?,
        },
        Frame::Status { job } => match connection.entry(job) {
            Some(entry) => {
                let status = match entry {
                    JobEntry::OneShot(handle) => handle.status(),
                    // A session runs its calls in order, so a call whose
                    // outcome is pending counts as running.
                    JobEntry::Session(_) => JobStatus::Running,
                    JobEntry::Finished => JobStatus::Finished,
                };
                connection.send(&Frame::Info {
                    job,
                    status,
                    backlog: Some(live_backlog(&shared.service)),
                })?;
            }
            None => connection.send_error(Some(job), format!("unknown job {job}"))?,
        },
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
            let budget = caps_budget(wall_ms, max_samples, max_checks);
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
                // session finishes (and enqueues its completion) first.
                Some(handle) => {
                    handle.close();
                    connection.send(&Frame::SessionOk { session, depth: 0 })?;
                }
                None => connection.send_error(None, format!("unknown session {session}"))?,
            }
        }
        // Graceful drain: every job this connection already submitted still
        // streams its completion, then BYE closes the exchange (see
        // `serve_connection`).
        Frame::Shutdown => return Ok(false),
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
        solve.priority,
    ));
    let job = handle.id();
    connection
        .jobs()
        .insert(job, JobEntry::OneShot(Arc::clone(&handle)));
    connection.send(&Frame::Queued { job })?;
    // Registered only now, after QUEUED is enqueued, so the completion
    // cannot overtake its ack. A job that already finished runs the hook
    // right here.
    handle.on_finish(connection.completion(job, solve.stats));
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
    // `start_solve` only enqueues, so the reader thread stays responsive even
    // while the pinned solver is busy. The session thread may answer before
    // QUEUED is enqueued, but its hook first takes the job map, which is
    // held here until the ack is enqueued: the completion cannot overtake it.
    let mut jobs = connection.jobs();
    let job = SESSION_JOB_BASE + connection.next_session_job.load(Ordering::Relaxed);
    // Session solves always report stats: incremental clients (the shard
    // coordinator in particular) merge them fleet-wide.
    if let Err(e) = handle.start_solve(&call, connection.completion(job, true)) {
        return connection.send_error(None, e.to_string());
    }
    connection.next_session_job.fetch_add(1, Ordering::Relaxed);
    jobs.insert(job, JobEntry::Session(cancel));
    connection.send(&Frame::Queued { job })
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
    use nbl_sat_core::SatBackend;

    /// Server state with a one-worker service and no accept loop.
    fn shared(registry: &BackendRegistry) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            service: SolveService::builder(registry).workers(1).start(),
            stop: AtomicBool::new(false),
            stopped: Condvar::new(),
            stopped_lock: Mutex::new(false),
        })
    }

    /// A connected loopback pair: (client end, server end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (client, listener.accept().unwrap().0)
    }

    fn read_frame(reader: &mut BufReader<TcpStream>) -> Option<Frame> {
        Frame::read_from(reader).unwrap()
    }

    /// Waits at most `timeout` for `wait()` to be woken; answers whether it
    /// was.
    fn woken_within(shared: &ServerShared, timeout: Duration) -> bool {
        let stopped = shared.stopped_lock.lock().unwrap();
        let (stopped, _) = shared
            .stopped
            .wait_timeout_while(stopped, timeout, |stopped| !*stopped)
            .unwrap();
        *stopped
    }

    #[test]
    fn finished_jobs_keep_only_a_marker() {
        let (client, server_end) = socket_pair();
        let (outbox, frames) = mpsc::channel();
        let connection = Arc::new(Connection::new(outbox));
        let unsent = Arc::clone(&connection.unsent);
        thread::spawn(move || write_loop(&frames, &unsent, server_end));
        let shared = shared(&BackendRegistry::default());
        let solve = SolveFrame::new("cdcl", "p cnf 2 2\n1 2 0\n-1 -2 0\n");
        for _ in 0..3 {
            handle_solve(solve.clone(), &connection, &shared).unwrap();
        }
        // Three QUEUED acks plus a `v`-line and RESULT per job. A job's
        // entry becomes the marker before its RESULT is enqueued.
        let mut reader = BufReader::new(client);
        for _ in 0..9 {
            read_frame(&mut reader).unwrap();
        }
        let jobs = connection.jobs();
        assert_eq!(jobs.len(), 3);
        assert!(
            jobs.values()
                .all(|entry| matches!(entry, JobEntry::Finished)),
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
        assert!(matches!(
            read_frame(&mut reader),
            Some(Frame::Info {
                job: 0,
                status: JobStatus::Finished,
                ..
            })
        ));
        assert!(matches!(
            read_frame(&mut reader),
            Some(Frame::Error { job: Some(3), .. })
        ));
        shared.service.shutdown();
    }

    /// A sink whose writes block until its gate opens.
    struct GatedSink {
        gate: Arc<AtomicBool>,
        written: Vec<u8>,
    }

    impl Write for GatedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            while !self.gate.load(Ordering::Relaxed) {
                thread::yield_now();
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn shutdown_wakes_wait_only_after_bye_is_written() {
        let shared = shared(&BackendRegistry::default());
        let gate = Arc::new(AtomicBool::new(false));
        let bye = {
            let shared = Arc::clone(&shared);
            let mut sink = GatedSink {
                gate: Arc::clone(&gate),
                written: Vec::new(),
            };
            thread::spawn(move || {
                say_bye(&shared, &mut sink).unwrap();
                sink.written
            })
        };
        while !shared.stop.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        // The stop flag is up, but `wait()` must not wake while BYE is unsent.
        assert!(
            !woken_within(&shared, Duration::from_millis(200)),
            "wait() woke before BYE was written"
        );
        gate.store(true, Ordering::Relaxed);
        assert!(
            woken_within(&shared, Duration::from_secs(30)),
            "wait() never woke after BYE"
        );
        assert_eq!(bye.join().unwrap(), b"BYE\n");
        shared.service.shutdown();
    }

    /// Answers SAT once its gate opens, or `Unknown(Cancelled)` when
    /// cancelled first.
    #[derive(Debug)]
    struct Gated(Arc<AtomicBool>);

    impl SatBackend for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }
        fn is_complete(&self) -> bool {
            true
        }
        fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome, NblSatError> {
            while !self.0.load(Ordering::Relaxed) {
                if request.cancelled() {
                    let cancelled = nbl_sat_core::UnknownCause::Cancelled;
                    return Ok(SolveOutcome::of_verdict(SolveVerdict::Unknown(cancelled)));
                }
                thread::yield_now();
            }
            Ok(SolveOutcome::of_verdict(SolveVerdict::Satisfiable))
        }
    }

    #[test]
    fn shutdown_drains_completions_then_writes_bye_last() {
        let gate = Arc::new(AtomicBool::new(false));
        let mut registry = BackendRegistry::default();
        {
            let gate = Arc::clone(&gate);
            registry.register("gated", move || Box::new(Gated(Arc::clone(&gate))));
        }
        let shared = shared(&registry);
        let (client, server_end) = socket_pair();
        let served = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || serve_connection(server_end, &shared))
        };
        let solve = SolveFrame::new("gated", "p cnf 2 2\n1 2 0\n-1 -2 0\n");
        let mut requests = client.try_clone().unwrap();
        Frame::Solve(solve).write_to(&mut requests).unwrap();
        Frame::Shutdown.write_to(&mut requests).unwrap();
        let mut reader = BufReader::new(client);
        assert_eq!(read_frame(&mut reader), Some(Frame::Queued { job: 0 }));

        // The job in flight holds the drain, and with it BYE and the stop
        // flag.
        assert!(!woken_within(&shared, Duration::from_millis(200)));
        assert!(!shared.stop.load(Ordering::Relaxed));
        gate.store(true, Ordering::Relaxed);
        assert_eq!(
            read_frame(&mut reader),
            Some(Frame::Result {
                job: 0,
                verdict: WireVerdict::Satisfiable
            })
        );
        assert_eq!(read_frame(&mut reader), Some(Frame::Bye));
        // BYE is the last frame: the connection closes after it.
        assert_eq!(read_frame(&mut reader), None);
        served.join().unwrap().unwrap();
        assert!(shared.stop.load(Ordering::Relaxed));
        assert!(woken_within(&shared, Duration::ZERO));
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
