//! A blocking client for the `nbl-satd` wire protocol.
//!
//! [`NblSatClient`] owns one TCP connection. A background reader thread
//! demultiplexes the server's frame stream — completions arrive in whatever
//! order the jobs finish — into per-job mailboxes, so any number of threads
//! can hold [`RemoteJob`] tickets against one connection and block on their
//! own outcomes concurrently. All waits are condition-variable based and are
//! woken by connection loss, so a dying server answers every pending wait
//! with [`NetError::ConnectionClosed`] instead of hanging.
//!
//! Deadlines are configurable via [`ClientConfig`]: a connect timeout bounds
//! the TCP handshake, and a read timeout bounds every blocking wait (acks,
//! control replies, [`RemoteJob::wait`]) with [`NetError::TimedOut`]. The
//! read deadline is enforced on the waiting side — the reader thread keeps
//! draining the socket, so a wait that times out abandons nothing and the
//! frame is still collectable later.

use crate::protocol::{Frame, SolveFrame, WireBacklog, WireMetrics, WireVerdict};
use crate::server::shutdown_stream;
use nbl_sat_core::{JobStatus, SolveStats};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle as ThreadHandle};
use std::time::{Duration, Instant};

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum NetError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The connection closed (EOF or protocol desync) before the awaited
    /// frame arrived.
    ConnectionClosed,
    /// The configured read timeout elapsed before the awaited frame arrived.
    /// The connection is still alive; the wait can be retried.
    TimedOut,
    /// The server answered `ERR` for this request.
    Remote(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::ConnectionClosed => write!(f, "connection closed"),
            NetError::TimedOut => write!(f, "read timed out"),
            NetError::Remote(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A finished remote job: the verdict, the model when one was streamed, and
/// the completion rank on this connection.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// The verdict of the `RESULT` frame.
    pub verdict: WireVerdict,
    /// The model `v`-line's literals (DIMACS-signed), when the job requested
    /// a model and was satisfiable.
    pub model: Option<Vec<i64>>,
    /// The job's `STATS` counters, when the `SOLVE` asked `stats=true` or
    /// the job was a `SESSION ASSUME`. Only [`SolveStats::COUNTERS`] travel;
    /// the other fields read as their defaults.
    pub stats: Option<SolveStats>,
    /// The `f`-line's failed-assumption core (DIMACS-signed), when a
    /// `SESSION ASSUME` answered UNSAT under its assumptions. An empty
    /// vector means the session's clause database is UNSAT on its own.
    pub failed: Option<Vec<i64>>,
    /// 0-based rank of this completion among all completions this connection
    /// has received — lets callers observe out-of-order completion.
    pub arrival: u64,
}

/// The control-channel replies (`PONG`, `OK refill`, `BYE`) a request/response
/// verb waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlReply {
    Pong,
    OkRefill,
    Bye,
}

#[derive(Default)]
struct ClientState {
    /// `QUEUED` acks, FIFO — submission order is preserved because `SOLVE`
    /// frames are serialised under the submit lock.
    queued: VecDeque<u64>,
    /// Completed jobs, by id, until their ticket collects them.
    outcomes: HashMap<u64, RemoteOutcome>,
    /// Models staged until the job's `RESULT` (the completion marker) lands.
    staged_models: HashMap<u64, Vec<i64>>,
    /// `STATS` counters staged until the job's `RESULT` lands.
    staged_stats: HashMap<u64, SolveStats>,
    /// Failed-assumption cores staged until the job's `RESULT` lands.
    staged_failed: HashMap<u64, Vec<i64>>,
    /// `SESSIONOK` acks as `(session, depth)`, FIFO — like `queued`, exact
    /// pairing holds because session requests are serialised under the
    /// request lock.
    session_oks: VecDeque<(u64, u64)>,
    /// `CAPS` replies (the `sessions` flag), FIFO.
    caps: VecDeque<bool>,
    /// `INFO` replies, by job id, with the server's live queue gauges.
    infos: HashMap<u64, VecDeque<(JobStatus, Option<WireBacklog>)>>,
    /// `METRICS` snapshot replies, FIFO — exact pairing holds because
    /// metrics requests are serialised under the request lock.
    metrics: VecDeque<WireMetrics>,
    /// Job-scoped `ERR` frames, by job id.
    job_errors: HashMap<u64, String>,
    /// Connection-scoped `ERR -` frames.
    connection_errors: VecDeque<String>,
    /// Control-channel replies, FIFO.
    control: VecDeque<ControlReply>,
    /// Completions seen so far (source of [`RemoteOutcome::arrival`]).
    arrivals: u64,
    /// Set once the reader thread exits; wakes and fails every pending wait.
    closed: bool,
}

impl ClientState {
    /// Pops the oldest connection-scoped `ERR -` as the failure of the
    /// request that is waiting for its reply.
    fn remote_error<T>(&mut self) -> Option<Result<T, NetError>> {
        self.connection_errors
            .pop_front()
            .map(|message| Err(NetError::Remote(message)))
    }
}

struct ClientShared {
    state: Mutex<ClientState>,
    changed: Condvar,
}

impl ClientShared {
    fn lock(&self) -> MutexGuard<'_, ClientState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `take` answers `Some`, the connection closes, or (with a
    /// timeout) the deadline passes.
    fn wait_for<T>(
        &self,
        timeout: Option<Duration>,
        mut take: impl FnMut(&mut ClientState) -> Option<Result<T, NetError>>,
    ) -> Result<T, NetError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.lock();
        loop {
            if let Some(result) = take(&mut state) {
                return result;
            }
            if state.closed {
                return Err(NetError::ConnectionClosed);
            }
            state = match deadline {
                None => self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    self.changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

/// Connection deadlines for [`NblSatClient`]. The default has no deadlines,
/// matching the pre-existing blocking behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientConfig {
    /// Bounds the TCP handshake of [`NblSatClient::connect_with_config`].
    pub connect_timeout: Option<Duration>,
    /// Default deadline applied to every blocking wait on the connection
    /// (submit acks, control replies, [`RemoteJob::wait`]); exceeded waits
    /// answer [`NetError::TimedOut`].
    pub read_timeout: Option<Duration>,
}

impl ClientConfig {
    /// A config with no deadlines.
    pub fn new() -> Self {
        ClientConfig::default()
    }

    /// Sets the connect timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Sets the read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }
}

/// A blocking `nbl-satd` client over one TCP connection.
///
/// ```no_run
/// use nbl_net::{NblSatClient, SolveFrame};
///
/// let client = NblSatClient::connect("127.0.0.1:7878")?;
/// let job = client.submit(SolveFrame::new("cdcl", "p cnf 2 2\n1 2 0\n-1 -2 0\n"))?;
/// let outcome = job.wait()?;
/// assert!(outcome.verdict.is_sat());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NblSatClient {
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Serialises every request that awaits an *uncorrelated* reply
    /// (`SOLVE`→`QUEUED`, `PING`→`PONG`, `REFILL`→`OK`, `SHUTDOWN`→`BYE`,
    /// and the connection-scoped `ERR -` rejections): at most one such
    /// request is ever outstanding, so FIFO pairing is exact and two
    /// threads can never swap each other's replies. Job-scoped frames
    /// (`RESULT`, `v`, `INFO`, `ERR <id>`) carry their id and need no
    /// serialisation.
    request_lock: Mutex<()>,
    shared: Arc<ClientShared>,
    reader_thread: Mutex<Option<ThreadHandle<()>>>,
    read_timeout: Option<Duration>,
}

impl fmt::Debug for NblSatClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NblSatClient")
            .field("peer", &self.stream.peer_addr().ok())
            .finish_non_exhaustive()
    }
}

impl NblSatClient {
    /// Connects to a running server with no deadlines.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// Connects with the given deadlines: the handshake is bounded by
    /// `config.connect_timeout`, and every later blocking wait on the
    /// connection by `config.read_timeout`.
    pub fn connect_with_config<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> std::io::Result<Self> {
        Self::from_stream(open_stream(addr, config.connect_timeout)?, config)
    }

    /// Connects, retrying for up to `timeout` while the server is still
    /// coming up (connection refused / reset / timed out). Permanent-looking
    /// errors — an unresolvable host name, an unreachable network — fail
    /// immediately instead of burning the whole timeout. Useful for smoke
    /// scripts that race the server's bind.
    pub fn connect_with_retries<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        Self::connect_with_retries_and_config(addr, timeout, ClientConfig::default())
    }

    /// [`NblSatClient::connect_with_retries`] with explicit deadlines: each
    /// attempt's handshake is bounded by `config.connect_timeout`, and the
    /// retry loop as a whole by `timeout`.
    pub fn connect_with_retries_and_config<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
        config: ClientConfig,
    ) -> std::io::Result<Self> {
        use std::io::ErrorKind;
        let deadline = Instant::now() + timeout;
        loop {
            match open_stream(addr.clone(), config.connect_timeout) {
                Ok(stream) => return Self::from_stream(stream, config),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionRefused
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::TimedOut
                            | ErrorKind::WouldBlock
                    ) && Instant::now() < deadline =>
                {
                    thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn from_stream(stream: TcpStream, config: ClientConfig) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone()?;
        let writer = Mutex::new(BufWriter::new(stream.try_clone()?));
        let shared = Arc::new(ClientShared {
            state: Mutex::new(ClientState::default()),
            changed: Condvar::new(),
        });
        let reader_shared = Arc::clone(&shared);
        let reader_thread = thread::spawn(move || {
            reader_loop(reader_stream, &reader_shared);
        });
        Ok(NblSatClient {
            stream,
            writer,
            request_lock: Mutex::new(()),
            shared,
            reader_thread: Mutex::new(Some(reader_thread)),
            read_timeout: config.read_timeout,
        })
    }

    /// Takes the request lock, so this request's uncorrelated reply cannot
    /// be swapped with another thread's.
    fn serialise(&self) -> MutexGuard<'_, ()> {
        self.request_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn send(&self, frame: &Frame) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        frame.write_to(&mut *writer)
    }

    /// Submits a job and blocks until the server's `QUEUED` ack assigns its
    /// id. The returned ticket observes only this job.
    pub fn submit(&self, solve: SolveFrame) -> Result<RemoteJob<'_>, NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::Solve(solve))?;
        let id = self.wait_queued()?;
        Ok(RemoteJob { client: self, id })
    }

    /// Blocks for the `QUEUED` ack of a `SOLVE` or `SESSION ASSUME` sent
    /// under the request lock. Either can be rejected before queueing (a bad
    /// DIMACS body, an unknown session): the connection-scoped ERR is then
    /// this request's failure.
    fn wait_queued(&self) -> Result<u64, NetError> {
        self.shared.wait_for(self.read_timeout, |state| {
            if let Some(id) = state.queued.pop_front() {
                return Some(Ok(id));
            }
            state.remote_error()
        })
    }

    /// Liveness probe: sends `PING`, blocks for `PONG`.
    pub fn ping(&self) -> Result<(), NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::Ping)?;
        self.wait_control(ControlReply::Pong)
    }

    /// Returns spent allowance to the server's shared pool; blocks for the
    /// `OK refill` ack.
    pub fn refill(
        &self,
        samples: Option<u64>,
        checks: Option<u64>,
        wall_ms: Option<u64>,
    ) -> Result<(), NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::Refill {
            samples,
            checks,
            wall_ms,
        })?;
        self.wait_control(ControlReply::OkRefill)
    }

    /// Asks the server to wind down gracefully; blocks for `BYE` (which the
    /// server sends only after draining this connection's in-flight jobs).
    pub fn shutdown_server(&self) -> Result<(), NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::Shutdown)?;
        self.wait_control(ControlReply::Bye)
    }

    fn wait_control(&self, expected: ControlReply) -> Result<(), NetError> {
        self.shared.wait_for(self.read_timeout, |state| {
            if let Some(reply) = state.control.pop_front() {
                return Some(if reply == expected {
                    Ok(())
                } else {
                    Err(NetError::Remote(format!(
                        "expected {expected:?} reply, got {reply:?}"
                    )))
                });
            }
            state.remote_error()
        })
    }

    /// Capability probe: sends `HELLO`, blocks for `CAPS`, and returns
    /// whether the server speaks the `SESSION` extension. Servers predating
    /// `HELLO` answer `ERR -`, which surfaces as `Ok(false)` — so this is
    /// safe to use as a feature probe against any protocol generation.
    pub fn hello(&self) -> Result<bool, NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::Hello)?;
        self.shared.wait_for(self.read_timeout, |state| {
            if let Some(sessions) = state.caps.pop_front() {
                return Some(Ok(sessions));
            }
            state.connection_errors.pop_front().map(|_| Ok(false))
        })
    }

    /// Asks the server for a point-in-time snapshot of its solve-pipeline
    /// metrics (queue gauges, verdict-cache and preprocessing counters,
    /// per-backend latency aggregates); sends `METRICS`, blocks for the
    /// `METRICS` response frame.
    pub fn metrics(&self) -> Result<WireMetrics, NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::MetricsRequest)?;
        self.shared.wait_for(self.read_timeout, |state| {
            if let Some(metrics) = state.metrics.pop_front() {
                return Some(Ok(metrics));
            }
            state.remote_error()
        })
    }

    /// Opens an incremental solving session pinned to `backend` on the
    /// server; blocks for the `SESSIONOK` ack that assigns the session id.
    pub fn open_session(&self, backend: &str) -> Result<RemoteSession<'_>, NetError> {
        let _serialised = self.serialise();
        self.send(&Frame::SessionOpen {
            backend: backend.to_owned(),
        })?;
        let (id, _depth) = self.shared.wait_for(self.read_timeout, |state| {
            if let Some(ack) = state.session_oks.pop_front() {
                return Some(Ok(ack));
            }
            state.remote_error()
        })?;
        Ok(RemoteSession { client: self, id })
    }

    /// Blocks for the `SESSIONOK` ack of a session operation and returns the
    /// acked depth. Callers hold the request lock, so FIFO pairing is exact;
    /// the session id is still verified defensively.
    fn wait_session_ok(&self, session: u64) -> Result<u64, NetError> {
        self.shared.wait_for(self.read_timeout, |state| {
            if let Some((sid, depth)) = state.session_oks.pop_front() {
                return Some(if sid == session {
                    Ok(depth)
                } else {
                    Err(NetError::Remote(format!(
                        "SESSIONOK for unexpected session {sid}"
                    )))
                });
            }
            state.remote_error()
        })
    }

    /// Pops the oldest unconsumed connection-scoped `ERR -` message, if any.
    pub fn take_connection_error(&self) -> Option<String> {
        self.shared.lock().connection_errors.pop_front()
    }

    /// Completions received on this connection so far.
    pub fn completions_seen(&self) -> u64 {
        self.shared.lock().arrivals
    }
}

impl Drop for NblSatClient {
    fn drop(&mut self) {
        shutdown_stream(&self.stream);
        if let Some(handle) = self
            .reader_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

/// A ticket for one remote job on a [`NblSatClient`] connection.
#[derive(Debug)]
pub struct RemoteJob<'a> {
    client: &'a NblSatClient,
    id: u64,
}

impl RemoteJob<'_> {
    /// The server-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job's `RESULT` (or job-scoped `ERR`) arrives, bounded
    /// by the connection's configured read timeout, if any.
    pub fn wait(&self) -> Result<RemoteOutcome, NetError> {
        self.wait_bounded(self.client.read_timeout)
    }

    /// Blocks like [`RemoteJob::wait`], but with an explicit deadline that
    /// overrides the connection's read timeout. On [`NetError::TimedOut`] the
    /// job is still in flight and the wait can be retried.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<RemoteOutcome, NetError> {
        self.wait_bounded(Some(timeout))
    }

    fn wait_bounded(&self, timeout: Option<Duration>) -> Result<RemoteOutcome, NetError> {
        let id = self.id;
        self.client.shared.wait_for(timeout, |state| {
            if let Some(outcome) = state.outcomes.remove(&id) {
                return Some(Ok(outcome));
            }
            state
                .job_errors
                .remove(&id)
                .map(|message| Err(NetError::Remote(message)))
        })
    }

    /// Non-blocking check: `Some` once the completion arrived.
    pub fn poll(&self) -> Option<Result<RemoteOutcome, NetError>> {
        let id = self.id;
        let mut state = self.client.shared.lock();
        if let Some(outcome) = state.outcomes.remove(&id) {
            return Some(Ok(outcome));
        }
        if let Some(message) = state.job_errors.remove(&id) {
            return Some(Err(NetError::Remote(message)));
        }
        if state.closed {
            return Some(Err(NetError::ConnectionClosed));
        }
        None
    }

    /// Sends `CANCEL` for this job. Fire-and-forget: the observable effect is
    /// the job's `RESULT ... s UNKNOWN cancelled` completion.
    pub fn cancel(&self) -> Result<(), NetError> {
        self.client.send(&Frame::Cancel { job: self.id })?;
        Ok(())
    }

    /// Queries the job's lifecycle stage over the wire (`STATUS` → `INFO`).
    pub fn status(&self) -> Result<JobStatus, NetError> {
        self.status_detailed().map(|(status, _backlog)| status)
    }

    /// Like [`RemoteJob::status`], but also returns the server's live queue
    /// gauges from the `INFO` answer (`None` when talking to a server that
    /// predates them).
    pub fn status_detailed(&self) -> Result<(JobStatus, Option<WireBacklog>), NetError> {
        self.client.send(&Frame::Status { job: self.id })?;
        let id = self.id;
        self.client
            .shared
            .wait_for(self.client.read_timeout, |state| {
                if let Some(info) = state.infos.get_mut(&id).and_then(VecDeque::pop_front) {
                    return Some(Ok(info));
                }
                // Peek, don't consume: the job-scoped ERR also answers a later
                // wait() on this ticket.
                state
                    .job_errors
                    .get(&id)
                    .map(|message| Err(NetError::Remote(message.clone())))
            })
    }
}

/// A handle on one incremental solving session of a [`NblSatClient`]
/// connection, mirroring the in-process
/// [`SessionHandle`](nbl_sat_core::SessionHandle) over the wire.
///
/// Clause pushes and pops are blocking round-trips ([`SESSIONOK` acks
/// carry the new depth), while [`RemoteSession::assume`] queues a solve and
/// hands back a [`RemoteJob`] ticket like [`NblSatClient::submit`] does —
/// so a slow solve never blocks interleaved one-shot traffic. Dropping the
/// handle without [`RemoteSession::close`] leaves the session open on the
/// server until the connection closes.
///
/// ```no_run
/// use nbl_net::NblSatClient;
///
/// let client = NblSatClient::connect("127.0.0.1:7878")?;
/// let session = client.open_session("cdcl")?;
/// session.add_clauses("1 2 0\n-1 -2 0\n")?;
/// let outcome = session.assume(&[1])?.wait()?;
/// assert!(outcome.verdict.is_sat());
/// session.close()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RemoteSession<'a> {
    client: &'a NblSatClient,
    id: u64,
}

impl<'a> RemoteSession<'a> {
    /// The server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pushes one frame of clauses (raw DIMACS clause lines; the `p cnf`
    /// header is optional) and returns the session's new push depth.
    pub fn add_clauses(&self, dimacs: &str) -> Result<u64, NetError> {
        let _serialised = self.client.serialise();
        self.client.send(&Frame::SessionAddClauses {
            session: self.id,
            body: dimacs.lines().map(str::to_owned).collect(),
        })?;
        self.client.wait_session_ok(self.id)
    }

    /// Queues a solve of the session under the given DIMACS-signed assumption
    /// literals with no per-call budget caps; blocks only for the `QUEUED`
    /// ack. The outcome's [`RemoteOutcome::failed`] carries the
    /// failed-assumption core on UNSAT answers.
    pub fn assume(&self, literals: &[i64]) -> Result<RemoteJob<'a>, NetError> {
        self.assume_with_budget(literals, None, None, None)
    }

    /// [`RemoteSession::assume`] with per-call budget caps (wall-clock
    /// milliseconds, noise samples, coprocessor checks).
    pub fn assume_with_budget(
        &self,
        literals: &[i64],
        wall_ms: Option<u64>,
        max_samples: Option<u64>,
        max_checks: Option<u64>,
    ) -> Result<RemoteJob<'a>, NetError> {
        let _serialised = self.client.serialise();
        self.client.send(&Frame::SessionAssume {
            session: self.id,
            literals: literals.to_vec(),
            wall_ms,
            max_samples,
            max_checks,
        })?;
        let id = self.client.wait_queued()?;
        Ok(RemoteJob {
            client: self.client,
            id,
        })
    }

    /// Pops the most recent clause frame and returns the new depth. Popping
    /// an empty session is a remote error.
    pub fn pop(&self) -> Result<u64, NetError> {
        let _serialised = self.client.serialise();
        self.client.send(&Frame::SessionPop { session: self.id })?;
        self.client.wait_session_ok(self.id)
    }

    /// Closes the session, releasing its pinned solver on the server; blocks
    /// for the ack. A still-running `assume` of this session finishes (and
    /// its completion streams) before the ack arrives.
    pub fn close(self) -> Result<(), NetError> {
        let _serialised = self.client.serialise();
        self.client
            .send(&Frame::SessionClose { session: self.id })?;
        self.client.wait_session_ok(self.id).map(|_depth| ())
    }
}

/// Opens the TCP stream, trying every resolved address; with a timeout each
/// handshake attempt is individually bounded.
fn open_stream<A: ToSocketAddrs>(
    addr: A,
    connect_timeout: Option<Duration>,
) -> std::io::Result<TcpStream> {
    match connect_timeout {
        None => TcpStream::connect(addr),
        Some(timeout) => {
            let mut last_error = None;
            for candidate in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&candidate, timeout) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last_error = Some(e),
                }
            }
            Err(last_error.unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to no candidates",
                )
            }))
        }
    }
}

fn reader_loop(stream: TcpStream, shared: &ClientShared) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(error) => {
                if error.is_recoverable() {
                    // Not expected from a well-behaved server; record and
                    // keep the stream alive.
                    let mut state = shared.lock();
                    state
                        .connection_errors
                        .push_back(format!("unparseable server frame: {error}"));
                    shared.changed.notify_all();
                    continue;
                }
                break;
            }
        };
        let mut state = shared.lock();
        match frame {
            Frame::Queued { job } => state.queued.push_back(job),
            Frame::Model { job, literals } => {
                state.staged_models.insert(job, literals);
            }
            Frame::Stats { job, stats } => {
                state.staged_stats.insert(job, stats);
            }
            Frame::Result { job, verdict } => {
                let model = state.staged_models.remove(&job);
                let stats = state.staged_stats.remove(&job);
                let failed = state.staged_failed.remove(&job);
                let arrival = state.arrivals;
                state.arrivals += 1;
                state.outcomes.insert(
                    job,
                    RemoteOutcome {
                        verdict,
                        model,
                        stats,
                        failed,
                        arrival,
                    },
                );
            }
            Frame::FailedAssumptions { job, literals } => {
                state.staged_failed.insert(job, literals);
            }
            Frame::Info {
                job,
                status,
                backlog,
            } => {
                state
                    .infos
                    .entry(job)
                    .or_default()
                    .push_back((status, backlog));
            }
            Frame::Metrics(metrics) => state.metrics.push_back(metrics),
            Frame::SessionOk { session, depth } => {
                state.session_oks.push_back((session, depth));
            }
            Frame::Caps { sessions } => state.caps.push_back(sessions),
            Frame::Pong => state.control.push_back(ControlReply::Pong),
            Frame::OkRefill => state.control.push_back(ControlReply::OkRefill),
            Frame::Bye => state.control.push_back(ControlReply::Bye),
            Frame::Error {
                job: Some(job),
                message,
            } => {
                state.job_errors.insert(job, message);
            }
            Frame::Error { job: None, message } => {
                state.connection_errors.push_back(message);
            }
            // Client-direction verbs from the server would be a server bug;
            // drop them rather than wedge the stream.
            Frame::Solve(_)
            | Frame::Cancel { .. }
            | Frame::Status { .. }
            | Frame::Refill { .. }
            | Frame::Ping
            | Frame::Hello
            | Frame::SessionOpen { .. }
            | Frame::SessionAddClauses { .. }
            | Frame::SessionAssume { .. }
            | Frame::SessionPop { .. }
            | Frame::SessionClose { .. }
            | Frame::MetricsRequest
            | Frame::Shutdown => {}
        }
        shared.changed.notify_all();
        drop(state);
    }
    let mut state = shared.lock();
    state.closed = true;
    shared.changed.notify_all();
}
