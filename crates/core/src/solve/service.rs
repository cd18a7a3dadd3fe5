//! An asynchronous job-queue front end over the solving backends.
//!
//! [`SolveBatch`](crate::SolveBatch) is one-shot and blocking: the caller
//! collects a whole batch up front, then stalls until every job drains. A
//! long-lived service ingesting a *stream* of requests needs the opposite
//! shape — the paper's pitch is that NBL's multi-wire parallelism turns SAT
//! into a throughput problem, and a throughput problem wants a queue, not an
//! epoch. [`SolveService`] is that front end: a persistent bounded pool of
//! worker threads fed by a priority queue. [`SolveService::submit`] returns
//! immediately with a [`JobHandle`] that supports non-blocking
//! [`JobHandle::poll`], blocking [`JobHandle::wait`], a completion hook
//! ([`JobHandle::on_finish`]) and per-job [`JobHandle::cancel`]; every job
//! is charged against one refillable [`SharedBudget`]; and the service
//! winds down either gracefully ([`SolveService::shutdown`] drains the
//! queue) or immediately ([`SolveService::abort`] cancels everything).
//!
//! # Scheduling
//!
//! Workers pull the highest-[`JobPriority`] job first, FIFO within a
//! priority class, so equal-priority traffic is served in submission order
//! and can never starve itself. A job observed with an exhausted budget pool
//! is answered `Unknown(BudgetExhausted)` without running; a job whose
//! cancellation token is already raised is answered `Unknown(Cancelled)`
//! without running. Cancellation of a *running* job is delivered through the
//! same chained-token machinery the parallel portfolio uses
//! ([`sat_solvers::SearchLimits::with_cancel`]): the per-job token and the
//! service-wide abort token are chained onto the job's request, and every
//! solver family polls them in its innermost loop, so a raised flag stops the
//! search within one poll interval.
//!
//! # Fault isolation
//!
//! A panicking backend is caught at the worker boundary and surfaced as that
//! job's [`NblSatError::BackendPanicked`]; the worker thread survives and the
//! sibling jobs keep their outcomes.
//!
//! # Incremental sessions
//!
//! Next to the one-shot queue, [`SolveService::open_session`] pins a
//! persistent [`SolveSession`] to a dedicated thread and
//! hands back a [`SessionHandle`]: push/pop clause frames and solve under
//! per-call assumptions, with learned clauses surviving between calls. Every
//! session solve is charged against the same [`SharedBudget`] pool as the
//! queued jobs and observes the service-wide abort token, so the service
//! remains the single resource authority. A session thread that sits idle
//! longer than [`ServiceBuilder::session_idle_timeout`] evicts itself
//! (releasing the pinned solver); subsequent operations answer
//! [`NblSatError::SessionClosed`].
//!
//! ```
//! use cnf::cnf_formula;
//! use nbl_sat_core::{BackendRegistry, JobPriority, SolveRequest, SolveService};
//!
//! let registry = BackendRegistry::default();
//! let service = SolveService::builder(&registry).workers(2).start();
//!
//! let sat = cnf_formula![[1, 2], [-1, -2]];
//! let unsat = cnf_formula![[1], [-1]];
//! let first = service.submit("cdcl", &SolveRequest::new(&sat));
//! let second = service.submit_with_priority(
//!     "nbl-symbolic",
//!     &SolveRequest::new(&unsat),
//!     JobPriority::High,
//! );
//!
//! assert!(first.wait().unwrap().verdict.is_sat());
//! assert!(second.wait().unwrap().verdict.is_unsat());
//! service.shutdown();
//! ```

use crate::budget::{Budget, SharedBudget};
use crate::error::{NblSatError, Result};
use crate::solve::metrics::MetricsSnapshot;
use crate::solve::outcome::{SolveOutcome, SolveVerdict, UnknownCause};
use crate::solve::pipeline::{PipelineConfig, PipelineDecision, SolvePipeline};
use crate::solve::registry::BackendRegistry;
use crate::solve::request::{Artifacts, SolveRequest};
use crate::solve::session::{SessionCall, SolveSession};
use cnf::CnfFormula;
use std::any::Any;
use std::collections::BinaryHeap;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Scheduling priority of a submitted job. Workers always pull the highest
/// priority available; within one class, jobs run in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum JobPriority {
    /// Background work, run when nothing more urgent is queued.
    Low,
    /// The default service level.
    #[default]
    Normal,
    /// Latency-sensitive work, served before everything else.
    High,
}

/// Where a job currently is in its lifecycle, as seen by
/// [`JobHandle::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Waiting in the service queue.
    Queued,
    /// Claimed by a worker and currently solving.
    Running,
    /// The outcome is available ([`JobHandle::poll`] answers `Some`).
    Finished,
}

/// Internal lifecycle state of one job. The result is shared so that the
/// completion hook can read it after the job's lock is released.
enum JobState {
    Queued,
    Running,
    Finished(Arc<Result<SolveOutcome>>),
    /// The result was moved out by [`JobHandle::wait`].
    Claimed,
}

/// A completion hook: runs once, with the result, on whichever thread
/// finishes the job or session call.
type Completion = Box<dyn FnOnce(&Result<SolveOutcome>) + Send>;

/// What one job's lock guards.
struct JobSlot {
    state: JobState,
    /// Registered by [`JobHandle::on_finish`] before the job finished.
    hook: Option<Completion>,
}

/// The state one job shares between its handle, the queue entry and the
/// worker that runs it.
struct JobShared {
    id: u64,
    cancel: Arc<AtomicBool>,
    slot: Mutex<JobSlot>,
    finished: Condvar,
}

fn lock_slot(shared: &JobShared) -> MutexGuard<'_, JobSlot> {
    shared.slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl JobShared {
    /// Stores the result, wakes every waiter and runs the completion hook,
    /// unless the job already finished (e.g. it was cancelled while queued).
    fn try_finish(&self, result: Result<SolveOutcome>) {
        let slot = lock_slot(self);
        if !matches!(slot.state, JobState::Finished(_) | JobState::Claimed) {
            self.finish(slot, result);
        }
    }

    /// Finishes the job whose `slot` the caller locked. The hook runs after
    /// the lock is released, so it may observe the job itself.
    fn finish(&self, mut slot: MutexGuard<'_, JobSlot>, result: Result<SolveOutcome>) {
        let result = Arc::new(result);
        slot.state = JobState::Finished(Arc::clone(&result));
        let hook = slot.hook.take();
        drop(slot);
        self.finished.notify_all();
        if let Some(hook) = hook {
            hook(&result);
        }
    }

    /// A worker claims the job for execution. Answers `false` when the job
    /// was already finished (cancelled while still queued), in which case the
    /// worker skips it.
    fn begin_running(&self) -> bool {
        let mut slot = lock_slot(self);
        if matches!(slot.state, JobState::Queued) {
            slot.state = JobState::Running;
            true
        } else {
            false
        }
    }
}

/// The `Unknown(Cancelled)` outcome a cancelled job answers without (or
/// instead of finishing) a run.
fn cancelled_outcome() -> SolveOutcome {
    SolveOutcome::of_verdict(SolveVerdict::Unknown(UnknownCause::Cancelled))
}

/// A ticket for one submitted job.
///
/// The handle is the only way to observe the job: [`JobHandle::status`] and
/// [`JobHandle::poll`] never block, [`JobHandle::wait`] blocks until the
/// outcome lands, [`JobHandle::on_finish`] hands the outcome to a hook
/// without any thread waiting for it, and [`JobHandle::cancel`] stops the
/// job — immediately if it is still queued, within one solver poll interval
/// if it is already running. Dropping the handle does not cancel the job.
pub struct JobHandle {
    backend: String,
    priority: JobPriority,
    shared: Arc<JobShared>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("backend", &self.backend)
            .field("priority", &self.priority)
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    /// The service-unique id of this job (also its FIFO rank within its
    /// priority class).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The backend name the job was submitted against.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// The priority the job was submitted with.
    pub fn priority(&self) -> JobPriority {
        self.priority
    }

    /// Where the job currently is in its lifecycle. Never blocks.
    pub fn status(&self) -> JobStatus {
        match lock_slot(&self.shared).state {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Finished(_) | JobState::Claimed => JobStatus::Finished,
        }
    }

    /// Non-blocking check for the outcome: `None` while the job is queued or
    /// running, `Some` (a clone of the outcome) once it finished.
    pub fn poll(&self) -> Option<Result<SolveOutcome>> {
        match &lock_slot(&self.shared).state {
            JobState::Finished(result) => Some(result.as_ref().clone()),
            _ => None,
        }
    }

    /// Registers the job's completion hook, which runs exactly once, with the
    /// job's result, after the job's lock is released. It runs on whichever
    /// thread finishes the job: the worker that ran it, the thread that
    /// cancels it while queued, or [`SolveService::abort`] for a queued job.
    /// When the job has already finished (a submission after shutdown
    /// included), it runs on this thread before `on_finish` returns. A job
    /// keeps one hook: registering another before the first ran replaces it.
    pub fn on_finish(&self, hook: impl FnOnce(&Result<SolveOutcome>) + Send + 'static) {
        let mut slot = lock_slot(&self.shared);
        let result = match &slot.state {
            JobState::Finished(result) => Arc::clone(result),
            // Only `wait` claims the result, and it consumes the handle.
            JobState::Claimed => Arc::new(Ok(cancelled_outcome())),
            JobState::Queued | JobState::Running => {
                slot.hook = Some(Box::new(hook));
                return;
            }
        };
        drop(slot);
        hook(&result);
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn wait(self) -> Result<SolveOutcome> {
        let mut slot = lock_slot(&self.shared);
        loop {
            match &slot.state {
                JobState::Finished(_) => {
                    let JobState::Finished(result) =
                        std::mem::replace(&mut slot.state, JobState::Claimed)
                    else {
                        unreachable!("matched Finished above");
                    };
                    return Arc::unwrap_or_clone(result);
                }
                JobState::Claimed => {
                    // `wait` consumes the only handle, so the result can only
                    // have been claimed by it; this arm is unreachable through
                    // the public API but must not hang if it ever fires.
                    return Ok(cancelled_outcome());
                }
                JobState::Queued | JobState::Running => {
                    slot = self
                        .shared
                        .finished
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Cancels the job. A job still in the queue is answered
    /// `Unknown(Cancelled)` immediately, without waiting for a worker; a
    /// running job observes its raised token at the next poll of its search
    /// loop and stops within one poll interval. Cancelling a finished job is
    /// a no-op.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
        let slot = lock_slot(&self.shared);
        if matches!(slot.state, JobState::Queued) {
            self.shared.finish(slot, Ok(cancelled_outcome()));
        }
    }
}

/// One queue entry: everything a worker needs to run the job, owned so the
/// service outlives the caller's borrows.
struct QueuedJob {
    seq: u64,
    priority: JobPriority,
    backend: String,
    formula: Arc<CnfFormula>,
    artifacts: Artifacts,
    seed: u64,
    budget: Budget,
    trace: bool,
    /// Cancellation tokens the caller had already chained onto the submitted
    /// request; preserved so outer cancellation scopes keep working.
    caller_cancels: Vec<Arc<AtomicBool>>,
    shared: Arc<JobShared>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO (lower seq) within a
        // priority class.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    /// Once `true` the service accepts no new jobs and workers exit as soon
    /// as the heap is empty.
    closed: bool,
}

/// Everything the worker threads share.
struct ServiceInner {
    registry: BackendRegistry,
    pool: SharedBudget,
    /// The shared pre-dispatch pipeline (preprocessing, optional cache,
    /// metrics) every queued job flows through.
    pipeline: SolvePipeline,
    /// The service-wide abort token, chained onto every job's request.
    abort: Arc<AtomicBool>,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// How long a pinned session thread waits for its next operation before
    /// evicting itself.
    session_idle_timeout: Duration,
}

fn lock_queue(inner: &ServiceInner) -> MutexGuard<'_, QueueState> {
    inner.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload for [`NblSatError::BackendPanicked`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker loop: pull the highest-priority job, run it, repeat; exit once
/// the queue is closed and drained.
fn worker_loop(inner: &ServiceInner) {
    loop {
        let job = {
            let mut queue = lock_queue(inner);
            loop {
                if let Some(job) = queue.heap.pop() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = inner
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if !job.shared.begin_running() {
            // Finished while still queued (cancelled); nothing to run.
            continue;
        }
        let result = run_job(inner, &job);
        job.shared.try_finish(result);
    }
}

/// The steps every queued job and session call share, so the service meters
/// both alike. A cancelled run, and every run once the service aborts,
/// answers `Unknown(Cancelled)`; a spent pool answers
/// `Unknown(BudgetExhausted)`; neither runs anything. Otherwise `solve` runs
/// under the pool's slice of `requested`, and the spend of its outcome is
/// charged back to the pool. A panic is caught as `backend`'s
/// [`NblSatError::BackendPanicked`], so a faulty backend costs one run, not
/// a thread; the flag reports it.
fn metered(
    inner: &ServiceInner,
    cancelled: bool,
    requested: &Budget,
    backend: &str,
    solve: impl FnOnce(Budget) -> Result<SolveOutcome>,
) -> (Result<SolveOutcome>, bool) {
    if cancelled || inner.abort.load(Ordering::Relaxed) {
        return (Ok(cancelled_outcome()), false);
    }
    if let Some(resource) = inner.pool.exhausted() {
        let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unknown(
            UnknownCause::BudgetExhausted(resource),
        ));
        outcome.exhausted = Some(resource);
        return (Ok(outcome), false);
    }
    let slice = inner.pool.slice(requested);
    match catch_unwind(AssertUnwindSafe(|| solve(slice))) {
        Ok(Ok(outcome)) => {
            inner
                .pool
                .charge(outcome.stats.samples, outcome.stats.coprocessor_checks);
            (Ok(outcome), false)
        }
        Ok(Err(error)) => (Err(error), false),
        Err(payload) => (
            Err(NblSatError::BackendPanicked {
                backend: backend.to_string(),
                message: panic_message(payload.as_ref()),
            }),
            true,
        ),
    }
}

/// Runs one claimed job, with the per-job and service-wide cancellation
/// tokens chained onto the request.
fn run_job(inner: &ServiceInner, job: &QueuedJob) -> Result<SolveOutcome> {
    let cancelled = job.shared.cancel.load(Ordering::Relaxed)
        || job
            .caller_cancels
            .iter()
            .any(|flag| flag.load(Ordering::Relaxed));
    let (result, _) = metered(inner, cancelled, &job.budget, &job.backend, |slice| {
        let mut request = SolveRequest::new(&job.formula)
            .artifacts(job.artifacts)
            .seed(job.seed)
            .budget(slice)
            .trace(job.trace)
            .cancel_token(Arc::clone(&job.shared.cancel))
            .cancel_token(Arc::clone(&inner.abort));
        for token in &job.caller_cancels {
            request = request.cancel_token(Arc::clone(token));
        }
        let prepared = match inner.pipeline.prepare(&request) {
            // Preprocessing or the cache answered: no backend runs, nothing
            // is charged (the pipeline spent no metered resource).
            PipelineDecision::Resolved(outcome) => return Ok(outcome),
            PipelineDecision::Dispatch(prepared) => prepared,
        };
        let started = Instant::now();
        let dispatch = prepared.request(&request);
        let mut engine = inner.registry.create(&job.backend)?;
        let outcome = engine.solve(&dispatch)?;
        Ok(inner.pipeline.complete_with(
            prepared,
            outcome,
            &job.backend,
            engine.is_complete(),
            started.elapsed(),
        ))
    });
    result
}

/// One operation travelling from a [`SessionHandle`] to its pinned session
/// thread; each carries its way back to the caller.
enum SessionOp {
    Push(CnfFormula, Sender<usize>),
    Pop(Sender<bool>),
    Depth(Sender<usize>),
    Solve(Box<SessionCall>, SessionReply),
    Close,
}

/// A session solve's completion hook. Dropped before it ran, because the
/// session ended before answering, it runs with
/// [`NblSatError::SessionClosed`].
struct SessionReply {
    hook: Option<Completion>,
    shared: Arc<SessionShared>,
}

impl Drop for SessionReply {
    fn drop(&mut self) {
        if let Some(hook) = self.hook.take() {
            hook(&Err(NblSatError::SessionClosed {
                reason: self.shared.close_reason(),
            }));
        }
    }
}

/// State shared between a session handle and its thread: why the thread
/// exited, once it has.
struct SessionShared {
    closed: Mutex<Option<String>>,
}

impl SessionShared {
    fn mark_closed(&self, reason: &str) {
        let mut closed = self.closed.lock().unwrap_or_else(PoisonError::into_inner);
        if closed.is_none() {
            *closed = Some(reason.to_string());
        }
    }

    fn close_reason(&self) -> String {
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .unwrap_or_else(|| "the session channel is closed".to_string())
    }

    fn is_open(&self) -> bool {
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_none()
    }
}

/// The pinned session thread: serve operations in arrival order until the
/// handle closes, every handle is dropped, the idle timeout fires, or the
/// backend panics mid-solve.
fn session_loop(
    inner: &ServiceInner,
    shared: &SessionShared,
    ops: &Receiver<SessionOp>,
    mut session: SolveSession,
) {
    let reason = loop {
        let op = match ops.recv_timeout(inner.session_idle_timeout) {
            Ok(op) => op,
            Err(RecvTimeoutError::Timeout) => break "evicted after the idle timeout",
            Err(RecvTimeoutError::Disconnected) => break "every handle was dropped",
        };
        match op {
            SessionOp::Push(formula, reply) => {
                let _ = reply.send(session.push(&formula));
            }
            SessionOp::Pop(reply) => {
                let _ = reply.send(session.pop());
            }
            SessionOp::Depth(reply) => {
                let _ = reply.send(session.depth());
            }
            SessionOp::Solve(call, mut reply) => {
                let (result, panicked) = run_session_call(inner, &mut session, &call);
                if let Some(hook) = reply.hook.take() {
                    hook(&result);
                }
                if panicked {
                    // A panicking backend may have left the solver's internal
                    // state inconsistent; the session dies with the call.
                    break "the session backend panicked";
                }
            }
            SessionOp::Close => break "closed",
        }
    };
    shared.mark_closed(reason);
}

/// Runs one session solve under the pool's slice, with the service-wide
/// abort token chained onto the call. The flag reports whether the backend
/// panicked.
fn run_session_call(
    inner: &ServiceInner,
    session: &mut SolveSession,
    call: &SessionCall,
) -> (Result<SolveOutcome>, bool) {
    let backend = session.backend_name();
    metered(
        inner,
        call.cancelled(),
        call.requested_budget(),
        backend,
        |slice| {
            session.solve(
                &call
                    .clone()
                    .budget(slice)
                    .cancel_token(Arc::clone(&inner.abort)),
            )
        },
    )
}

/// A handle on one pinned incremental solving session, obtained from
/// [`SolveService::open_session`].
///
/// Operations are serviced in submission order by the session's dedicated
/// thread. [`SessionHandle::solve`] blocks until the call's outcome lands;
/// [`SessionHandle::start_solve`] hands it to a completion hook instead, so
/// no thread waits for it. Chain a cancellation token onto the
/// [`SessionCall`] to interrupt a solve from another thread. Once the
/// session ends — [`SessionHandle::close`], idle eviction, a backend panic,
/// or dropping the handle — every further operation answers
/// [`NblSatError::SessionClosed`] with the reason.
pub struct SessionHandle {
    backend: String,
    ops: Sender<SessionOp>,
    shared: Arc<SessionShared>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("backend", &self.backend)
            .field("open", &self.is_open())
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// The backend name the session was opened against.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Whether the session thread is still alive. A `true` answer can go
    /// stale (the idle timeout may fire right after); a `false` answer is
    /// definitive.
    pub fn is_open(&self) -> bool {
        self.shared.is_open()
    }

    fn closed_error(&self) -> NblSatError {
        NblSatError::SessionClosed {
            reason: self.shared.close_reason(),
        }
    }

    /// Sends one operation and blocks for its reply.
    fn roundtrip<T>(&self, op: SessionOp, reply: Receiver<T>) -> Result<T> {
        self.ops.send(op).map_err(|_| self.closed_error())?;
        reply.recv().map_err(|_| self.closed_error())
    }

    /// Pushes a frame of clauses; returns the new push depth (≥ 1).
    ///
    /// # Errors
    ///
    /// [`NblSatError::SessionClosed`] once the session ended.
    pub fn push(&self, formula: &CnfFormula) -> Result<usize> {
        let (tx, rx) = mpsc::channel();
        self.roundtrip(SessionOp::Push(formula.clone(), tx), rx)
    }

    /// Pops the most recent frame; `false` when no frame is open.
    ///
    /// # Errors
    ///
    /// [`NblSatError::SessionClosed`] once the session ended.
    pub fn pop(&self) -> Result<bool> {
        let (tx, rx) = mpsc::channel();
        self.roundtrip(SessionOp::Pop(tx), rx)
    }

    /// The number of currently open frames.
    ///
    /// # Errors
    ///
    /// [`NblSatError::SessionClosed`] once the session ended.
    pub fn depth(&self) -> Result<usize> {
        let (tx, rx) = mpsc::channel();
        self.roundtrip(SessionOp::Depth(tx), rx)
    }

    /// Solves the pushed clauses under the call's assumptions, blocking until
    /// the outcome lands. The call's budget is sliced against the service's
    /// [`SharedBudget`] pool and the actual spend charged back, exactly like
    /// a queued job.
    ///
    /// # Errors
    ///
    /// [`NblSatError::SessionClosed`] once the session ended;
    /// [`NblSatError::BackendPanicked`] when the solver panicked (which also
    /// closes the session).
    pub fn solve(&self, call: &SessionCall) -> Result<SolveOutcome> {
        let (tx, rx) = mpsc::channel();
        self.start_solve(call, move |result| {
            let _ = tx.send(result.clone());
        })?;
        rx.recv().map_err(|_| self.closed_error())?
    }

    /// Enqueues a solve without blocking on it. `on_finish` runs exactly
    /// once, on the session thread, with what [`SessionHandle::solve`] would
    /// have returned: the outcome, or [`NblSatError::SessionClosed`] when the
    /// session ends before answering. Operations sent after this one queue
    /// behind the solve in submission order.
    ///
    /// # Errors
    ///
    /// [`NblSatError::SessionClosed`] when the session had already ended;
    /// `on_finish` then never runs.
    pub fn start_solve(
        &self,
        call: &SessionCall,
        on_finish: impl FnOnce(&Result<SolveOutcome>) + Send + 'static,
    ) -> Result<()> {
        let reply = SessionReply {
            hook: Some(Box::new(on_finish)),
            shared: Arc::clone(&self.shared),
        };
        let op = SessionOp::Solve(Box::new(call.clone()), reply);
        if let Err(SendError(SessionOp::Solve(_, mut reply))) = self.ops.send(op) {
            // Refused: the caller hears it here, so the hook must not.
            reply.hook = None;
            return Err(self.closed_error());
        }
        Ok(())
    }

    /// Closes the session gracefully and joins its thread. Dropping the
    /// handle closes the session too (the thread notices the disconnected
    /// channel), but without the join.
    pub fn close(mut self) {
        let _ = self.ops.send(SessionOp::Close);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Configures and starts a [`SolveService`].
pub struct ServiceBuilder {
    registry: BackendRegistry,
    workers: usize,
    budget: Budget,
    session_idle_timeout: Duration,
    pipeline: PipelineConfig,
}

impl fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("workers", &self.workers)
            .field("budget", &self.budget)
            .field("session_idle_timeout", &self.session_idle_timeout)
            .field("pipeline", &self.pipeline)
            .finish_non_exhaustive()
    }
}

impl ServiceBuilder {
    /// Sets the worker-pool size (clamped to at least 1). Defaults to one
    /// worker per available CPU.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the shared budget every job is charged against. Each job's own
    /// request budget still applies on top (the tighter limit wins, resource
    /// by resource). Defaults to unlimited.
    pub fn shared_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets how long a session thread opened through
    /// [`SolveService::open_session`] waits for its next operation before
    /// evicting itself and releasing the pinned solver. Defaults to five
    /// minutes.
    pub fn session_idle_timeout(mut self, timeout: Duration) -> Self {
        self.session_idle_timeout = timeout;
        self
    }

    /// Replaces the pre-dispatch pipeline configuration wholesale. Defaults
    /// to preprocessing on, cache off.
    pub fn pipeline(mut self, config: PipelineConfig) -> Self {
        self.pipeline = config;
        self
    }

    /// Enables the canonical-key verdict/model cache with the given entry
    /// capacity: isomorphic resubmissions are then answered with zero backend
    /// dispatch. Off by default.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.pipeline = self.pipeline.with_cache(capacity);
        self
    }

    /// Spawns the worker threads and starts the service. The shared budget's
    /// wall-clock deadline is fixed now.
    pub fn start(self) -> SolveService {
        let inner = Arc::new(ServiceInner {
            registry: self.registry,
            pool: SharedBudget::start(&self.budget),
            pipeline: SolvePipeline::new(self.pipeline),
            abort: Arc::new(AtomicBool::new(false)),
            queue: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            session_idle_timeout: self.session_idle_timeout,
        });
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        SolveService {
            inner,
            worker_count: workers.len(),
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(0),
        }
    }
}

/// A persistent, queue-fed solving service: a bounded pool of long-lived
/// worker threads draining a condvar-signalled priority queue against one
/// refillable [`SharedBudget`].
///
/// Built with [`SolveService::builder`]; submit jobs from any thread with
/// [`SolveService::submit`] (the service is `Sync`, submission never blocks
/// on solving) and observe them through the returned [`JobHandle`]s. The
/// one-shot [`SolveBatch`](crate::SolveBatch) is a submit-all-then-wait
/// wrapper over this service, so both front ends share one scheduling code
/// path.
///
/// # Winding down
///
/// * [`SolveService::shutdown`] — graceful drain: no new jobs are accepted,
///   every already-accepted job still runs to its outcome, then the workers
///   exit.
/// * [`SolveService::abort`] — immediate stop: queued jobs are answered
///   `Unknown(Cancelled)` without running, running jobs are interrupted
///   through the service-wide abort token within one solver poll interval.
/// * Dropping the service without calling either behaves like
///   [`SolveService::abort`] (a drop must not block on a long drain).
///
/// Both take `&self`, so a service shared across threads (e.g. behind an
/// `Arc`) can be wound down while producers still hold references; their
/// subsequent submissions come back finished with
/// [`NblSatError::ServiceStopped`]. Stopping twice is a no-op.
pub struct SolveService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    next_id: AtomicU64,
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveService")
            .field("workers", &self.worker_count())
            .field("pending_jobs", &self.pending_jobs())
            .field("accepting", &self.is_accepting())
            .finish_non_exhaustive()
    }
}

impl SolveService {
    /// Starts configuring a service over (a cheap clone of) `registry`.
    pub fn builder(registry: &BackendRegistry) -> ServiceBuilder {
        ServiceBuilder {
            registry: registry.clone(),
            workers: thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            budget: Budget::unlimited(),
            session_idle_timeout: Duration::from_secs(300),
            pipeline: PipelineConfig::default(),
        }
    }

    /// Submits a job at [`JobPriority::Normal`]. Returns immediately; the
    /// formula is cloned out of the request so the caller's borrow ends here.
    pub fn submit(&self, backend: &str, request: &SolveRequest<'_>) -> JobHandle {
        self.submit_with_priority(backend, request, JobPriority::Normal)
    }

    /// Submits a job at an explicit priority. Returns immediately with the
    /// job's [`JobHandle`]; a job submitted after [`SolveService::shutdown`]
    /// or [`SolveService::abort`] comes back already finished with
    /// [`NblSatError::ServiceStopped`].
    pub fn submit_with_priority(
        &self,
        backend: &str,
        request: &SolveRequest<'_>,
        priority: JobPriority,
    ) -> JobHandle {
        self.submit_arc(
            backend,
            Arc::new(request.formula().clone()),
            request,
            priority,
        )
    }

    /// The clone-free submission path: the caller provides the owned formula
    /// (which must be the request's formula), so many jobs over one instance
    /// — the [`SolveBatch`](crate::SolveBatch) shape — share a single
    /// allocation instead of deep-copying it per job.
    pub(crate) fn submit_arc(
        &self,
        backend: &str,
        formula: Arc<CnfFormula>,
        request: &SolveRequest<'_>,
        priority: JobPriority,
    ) -> JobHandle {
        debug_assert_eq!(*formula, *request.formula());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(JobShared {
            id,
            cancel: Arc::new(AtomicBool::new(false)),
            slot: Mutex::new(JobSlot {
                state: JobState::Queued,
                hook: None,
            }),
            finished: Condvar::new(),
        });
        let handle = JobHandle {
            backend: backend.to_string(),
            priority,
            shared: Arc::clone(&shared),
        };
        let job = QueuedJob {
            seq: id,
            priority,
            backend: backend.to_string(),
            formula,
            artifacts: request.requested_artifacts(),
            seed: request.requested_seed(),
            budget: *request.requested_budget(),
            trace: request.wants_trace(),
            caller_cancels: request.cancel_tokens().to_vec(),
            shared,
        };
        {
            let mut queue = lock_queue(&self.inner);
            if queue.closed {
                drop(queue);
                handle.shared.try_finish(Err(NblSatError::ServiceStopped));
                return handle;
            }
            queue.heap.push(job);
        }
        self.inner.work_ready.notify_one();
        handle
    }

    /// Opens a persistent incremental solving session against `backend`,
    /// pinned to its own dedicated thread (separate from the one-shot worker
    /// pool, so a long-lived session never starves queued jobs). The session
    /// shares the service's budget pool and abort token; it evicts itself
    /// after [`ServiceBuilder::session_idle_timeout`] without an operation.
    ///
    /// # Errors
    ///
    /// [`NblSatError::UnknownBackend`] when `backend` has no registered
    /// session factory, [`NblSatError::ServiceStopped`] after
    /// [`SolveService::shutdown`] or [`SolveService::abort`].
    pub fn open_session(&self, backend: &str) -> Result<SessionHandle> {
        if !self.is_accepting() {
            return Err(NblSatError::ServiceStopped);
        }
        let session = self.inner.registry.open_session(backend)?;
        let (ops, receiver) = mpsc::channel();
        let shared = Arc::new(SessionShared {
            closed: Mutex::new(None),
        });
        let inner = Arc::clone(&self.inner);
        let thread_shared = Arc::clone(&shared);
        let thread =
            thread::spawn(move || session_loop(&inner, &thread_shared, &receiver, session));
        Ok(SessionHandle {
            backend: backend.to_string(),
            ops,
            shared,
            thread: Some(thread),
        })
    }

    /// Number of worker threads the service was started with.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of jobs currently waiting in the queue (not counting running
    /// ones, nor jobs cancelled while queued — those are finished and merely
    /// await a worker's lazy discard of their heap entry).
    pub fn pending_jobs(&self) -> usize {
        lock_queue(&self.inner)
            .heap
            .iter()
            .filter(|job| matches!(lock_slot(&job.shared).state, JobState::Queued))
            .count()
    }

    /// Waiting jobs broken down by priority class, as
    /// `[high, normal, low]` — the live backlog the wire server's `INFO`
    /// frame and the `METRICS` verb report.
    pub fn pending_by_priority(&self) -> [usize; 3] {
        let mut backlog = [0usize; 3];
        for job in lock_queue(&self.inner).heap.iter() {
            if matches!(lock_slot(&job.shared).state, JobState::Queued) {
                match job.priority {
                    JobPriority::High => backlog[0] += 1,
                    JobPriority::Normal => backlog[1] += 1,
                    JobPriority::Low => backlog[2] += 1,
                }
            }
        }
        backlog
    }

    /// A point-in-time metrics snapshot: the pipeline's cache/preprocessing/
    /// latency counters with the live queue gauges overlaid.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.pipeline.snapshot();
        let [high, normal, low] = self.pending_by_priority();
        snapshot.backlog_high = high as u64;
        snapshot.backlog_normal = normal as u64;
        snapshot.backlog_low = low as u64;
        snapshot.queue_depth = (high + normal + low) as u64;
        snapshot
    }

    /// Returns `true` while the service accepts new submissions.
    pub fn is_accepting(&self) -> bool {
        !lock_queue(&self.inner).closed
    }

    /// The shared budget pool, for observability (remaining allowances,
    /// deadline).
    pub fn shared_budget(&self) -> &SharedBudget {
        &self.inner.pool
    }

    /// Returns `samples` of spent allowance to the pool (see
    /// [`SharedBudget::refill_samples`]); jobs that would have starved now
    /// run.
    pub fn refill_samples(&self, samples: u64) {
        self.inner.pool.refill_samples(samples);
    }

    /// Returns `checks` of spent allowance to the pool (see
    /// [`SharedBudget::refill_checks`]).
    pub fn refill_checks(&self, checks: u64) {
        self.inner.pool.refill_checks(checks);
    }

    /// Pushes the pool's wall-clock deadline `extra` further out (see
    /// [`SharedBudget::extend_deadline`]).
    pub fn extend_deadline(&self, extra: Duration) {
        self.inner.pool.extend_deadline(extra);
    }

    /// Graceful shutdown: stops accepting jobs, lets the workers drain every
    /// already-accepted job to its outcome, then joins them. Idempotent.
    pub fn shutdown(&self) {
        self.stop(false);
    }

    /// Immediate stop: stops accepting jobs, answers every queued job
    /// `Unknown(Cancelled)` without running it, interrupts running jobs
    /// through the service-wide abort token, and joins the workers.
    /// Idempotent.
    pub fn abort(&self) {
        self.stop(true);
    }

    fn stop(&self, abort: bool) {
        let mut drained = Vec::new();
        {
            let mut queue = lock_queue(&self.inner);
            queue.closed = true;
            if abort {
                self.inner.abort.store(true, Ordering::Relaxed);
                drained.extend(queue.heap.drain());
            }
        }
        self.inner.work_ready.notify_all();
        // Queued jobs are answered directly instead of waiting for a worker
        // to pop and discard them; their hooks run outside the queue's lock.
        for job in drained {
            job.shared.try_finish(Ok(cancelled_outcome()));
        }
        let workers: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for worker in workers {
            // Worker panics cannot happen through `run_job` (it catches
            // them); a join error would mean a bug in the loop itself, and
            // the remaining workers should still be joined.
            let _ = worker.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.stop(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ExhaustedResource;
    use crate::solve::backend::SatBackend;
    use cnf::generators;
    use std::time::Instant;

    fn service(workers: usize) -> SolveService {
        SolveService::builder(&BackendRegistry::default())
            .workers(workers)
            .start()
    }

    #[test]
    fn submit_returns_immediately_and_wait_answers() {
        let service = service(2);
        let sat = generators::example6_sat();
        let unsat = generators::example7_unsat();
        let a = service.submit("cdcl", &SolveRequest::new(&sat));
        let b = service.submit("dpll", &SolveRequest::new(&unsat));
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(a.backend(), "cdcl");
        assert_eq!(a.priority(), JobPriority::Normal);
        assert!(a.wait().unwrap().verdict.is_sat());
        assert!(b.wait().unwrap().verdict.is_unsat());
        service.shutdown();
    }

    #[test]
    fn poll_transitions_from_none_to_some() {
        let service = service(1);
        let sat = generators::example6_sat();
        let handle = service.submit("cdcl", &SolveRequest::new(&sat));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(result) = handle.poll() {
                assert!(result.unwrap().verdict.is_sat());
                break;
            }
            assert!(Instant::now() < deadline, "job never finished");
            thread::yield_now();
        }
        assert_eq!(handle.status(), JobStatus::Finished);
        service.shutdown();
    }

    #[test]
    fn unknown_backend_is_a_per_job_error() {
        let service = service(1);
        let f = generators::example6_sat();
        let bad = service.submit("minisat", &SolveRequest::new(&f));
        let good = service.submit("cdcl", &SolveRequest::new(&f));
        assert!(matches!(
            bad.wait().unwrap_err(),
            NblSatError::UnknownBackend(name) if name == "minisat"
        ));
        assert!(good.wait().unwrap().verdict.is_sat());
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_answers_service_stopped() {
        let service = service(1);
        let f = generators::example6_sat();
        assert!(service.is_accepting());
        service.shutdown();
        assert!(!service.is_accepting());
        let late = service.submit("cdcl", &SolveRequest::new(&f));
        assert_eq!(late.status(), JobStatus::Finished);
        assert!(matches!(
            late.wait().unwrap_err(),
            NblSatError::ServiceStopped
        ));
        // Stopping again is a no-op.
        service.shutdown();
        service.abort();
    }

    /// A backend that records the seed of every request it answers, and
    /// optionally blocks on a gate first (until cancelled) — enough to freeze
    /// the single worker while a test arranges the queue behind it.
    #[derive(Debug)]
    struct Recorder {
        log: Arc<Mutex<Vec<u64>>>,
        gate: Option<Arc<AtomicBool>>,
    }

    impl SatBackend for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn is_complete(&self) -> bool {
            true
        }
        fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
            if let Some(gate) = &self.gate {
                while !gate.load(Ordering::Relaxed) {
                    if request.cancelled() {
                        return Ok(cancelled_outcome());
                    }
                    thread::yield_now();
                }
            }
            self.log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(request.requested_seed());
            Ok(SolveOutcome::of_verdict(SolveVerdict::Satisfiable))
        }
    }

    fn recording_registry(log: &Arc<Mutex<Vec<u64>>>, gate: &Arc<AtomicBool>) -> BackendRegistry {
        let mut registry = BackendRegistry::empty();
        {
            let log = Arc::clone(log);
            registry.register("recorder", move || {
                Box::new(Recorder {
                    log: Arc::clone(&log),
                    gate: None,
                })
            });
        }
        {
            let log = Arc::clone(log);
            let gate = Arc::clone(gate);
            registry.register("gated-recorder", move || {
                Box::new(Recorder {
                    log: Arc::clone(&log),
                    gate: Some(Arc::clone(&gate)),
                })
            });
        }
        registry
    }

    #[test]
    fn priorities_pop_high_first_fifo_within_class() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let registry = recording_registry(&log, &gate);
        let service = SolveService::builder(&registry).workers(1).start();
        let f = generators::example6_sat();
        // Freeze the single worker on a gated job, then queue behind it once
        // the worker has actually claimed it (so nothing can jump ahead).
        let blocker = service.submit("gated-recorder", &SolveRequest::new(&f).seed(99));
        while blocker.status() != JobStatus::Running {
            thread::yield_now();
        }
        let submissions = [
            (0u64, JobPriority::Low),
            (1, JobPriority::Normal),
            (2, JobPriority::High),
            (3, JobPriority::Normal),
            (4, JobPriority::High),
        ];
        let handles: Vec<JobHandle> = submissions
            .iter()
            .map(|&(seed, priority)| {
                service.submit_with_priority(
                    "recorder",
                    &SolveRequest::new(&f).seed(seed),
                    priority,
                )
            })
            .collect();
        gate.store(true, Ordering::Relaxed);
        assert!(blocker.wait().unwrap().verdict.is_sat());
        for handle in handles {
            assert!(handle.wait().unwrap().verdict.is_sat());
        }
        service.shutdown();
        let order = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        // Gate job first, then High FIFO (2, 4), Normal FIFO (1, 3), Low (0).
        assert_eq!(order, vec![99, 2, 4, 1, 3, 0]);
    }

    #[test]
    fn cancelling_a_queued_job_answers_without_running_it() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let registry = recording_registry(&log, &gate);
        let service = SolveService::builder(&registry).workers(1).start();
        let f = generators::example6_sat();
        let blocker = service.submit("gated-recorder", &SolveRequest::new(&f).seed(99));
        while blocker.status() != JobStatus::Running {
            thread::yield_now();
        }
        let doomed = service.submit("recorder", &SolveRequest::new(&f).seed(7));
        assert_eq!(doomed.status(), JobStatus::Queued);
        doomed.cancel();
        // The cancelled job is answered immediately, while the worker is
        // still frozen on the gate.
        assert_eq!(doomed.status(), JobStatus::Finished);
        assert!(doomed.wait().unwrap().verdict.is_cancelled());
        gate.store(true, Ordering::Relaxed);
        assert!(blocker.wait().unwrap().verdict.is_sat());
        service.shutdown();
        // Seed 7 never reached the backend.
        let order = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert_eq!(order, vec![99]);
    }

    #[test]
    fn drop_behaves_like_abort_and_never_hangs() {
        let hard = generators::pigeonhole(8, 7);
        let started = Instant::now();
        let handle;
        {
            let service = service(1);
            handle = service.submit("cdcl", &SolveRequest::new(&hard));
            // Dropped here: running job must be interrupted via the abort
            // token.
        }
        let outcome = handle.wait().unwrap();
        assert!(
            outcome.verdict.is_cancelled() || outcome.verdict.is_definitive(),
            "unexpected {:?}",
            outcome.verdict
        );
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn session_coexists_with_the_one_shot_queue() {
        use cnf::{cnf_formula, Literal};
        let lit = |i: i64| Literal::from_dimacs(i).unwrap();
        let service = service(2);
        let session = service.open_session("cdcl").expect("open session");
        assert_eq!(session.backend(), "cdcl");
        assert!(session.is_open());
        assert_eq!(session.push(&cnf_formula![[1, 2], [-1, 2]]).unwrap(), 1);
        assert_eq!(session.depth().unwrap(), 1);

        // A one-shot job runs through the worker pool while the session is
        // pinned to its own thread.
        let sat = generators::example6_sat();
        let job = service.submit("cdcl", &SolveRequest::new(&sat));

        let unsat = session
            .solve(&crate::SessionCall::new().assumptions([lit(-2)]))
            .unwrap();
        assert!(unsat.verdict.is_unsat());
        assert_eq!(
            unsat.failed_assumptions.as_deref(),
            Some([lit(-2)].as_slice())
        );
        let sat_call = session
            .solve(&crate::SessionCall::new().assumptions([lit(1)]))
            .unwrap();
        assert!(sat_call.verdict.is_sat());
        assert!(job.wait().unwrap().verdict.is_sat());

        assert!(session.pop().unwrap());
        assert_eq!(session.depth().unwrap(), 0);
        session.close();
        service.shutdown();
    }

    #[test]
    fn idle_session_is_evicted_and_answers_session_closed() {
        let service = SolveService::builder(&BackendRegistry::default())
            .workers(1)
            .session_idle_timeout(Duration::from_millis(20))
            .start();
        let session = service.open_session("cdcl").expect("open session");
        let deadline = Instant::now() + Duration::from_secs(30);
        while session.is_open() {
            assert!(Instant::now() < deadline, "session never evicted");
            thread::sleep(Duration::from_millis(5));
        }
        let err = session.push(&generators::example6_sat()).unwrap_err();
        assert!(
            matches!(&err, NblSatError::SessionClosed { reason } if reason.contains("idle")),
            "unexpected {err:?}"
        );
        service.shutdown();
    }

    #[test]
    fn open_session_rejects_unknown_backends_and_stopped_services() {
        let service = service(1);
        assert!(matches!(
            service.open_session("walksat").unwrap_err(),
            NblSatError::UnknownBackend(name) if name == "walksat"
        ));
        service.shutdown();
        assert!(matches!(
            service.open_session("cdcl").unwrap_err(),
            NblSatError::ServiceStopped
        ));
    }

    #[test]
    fn abort_interrupts_a_running_session_solve() {
        let service = service(1);
        let session = service.open_session("cdcl").expect("open session");
        session.push(&generators::pigeonhole(8, 7)).unwrap();
        let started = Instant::now();
        thread::scope(|scope| {
            scope.spawn(|| {
                thread::sleep(Duration::from_millis(50));
                service.abort();
            });
            let outcome = session.solve(&crate::SessionCall::new()).unwrap();
            assert!(
                outcome.verdict.is_cancelled() || outcome.verdict.is_definitive(),
                "unexpected {:?}",
                outcome.verdict
            );
        });
        assert!(started.elapsed() < Duration::from_secs(30));
        // After the abort token is raised, further session solves answer
        // cancelled without running.
        let outcome = session.solve(&crate::SessionCall::new()).unwrap();
        assert!(outcome.verdict.is_cancelled());
        session.close();
    }

    #[test]
    fn session_solves_are_charged_against_the_shared_pool() {
        let service = SolveService::builder(&BackendRegistry::default())
            .workers(1)
            .shared_budget(Budget::unlimited().with_wall_time(Duration::ZERO))
            .start();
        let session = service.open_session("cdcl").expect("open session");
        session.push(&generators::example6_sat()).unwrap();
        let outcome = session.solve(&crate::SessionCall::new()).unwrap();
        assert_eq!(
            outcome.verdict.exhausted_resource(),
            Some(ExhaustedResource::WallClock)
        );
        // Refilling the pool revives the session, like a queued job.
        service.extend_deadline(Duration::from_secs(3600));
        assert!(session
            .solve(&crate::SessionCall::new())
            .unwrap()
            .verdict
            .is_sat());
        session.close();
        service.shutdown();
    }

    #[test]
    fn isomorphic_resubmission_is_served_from_the_service_cache() {
        use crate::solve::request::Artifacts;
        use cnf::cnf_formula;
        let service = SolveService::builder(&BackendRegistry::default())
            .workers(2)
            .cache_capacity(16)
            .start();
        // Irreducible under UP/pure literals, so a backend must run once.
        let original = cnf_formula![[1, 2], [-1, -2], [1, -2]];
        let first = service
            .submit(
                "cdcl",
                &SolveRequest::new(&original).artifacts(Artifacts::Model),
            )
            .wait()
            .unwrap();
        assert!(first.verdict.is_sat());
        assert!(original.evaluate(first.model.as_ref().unwrap()));
        // The same instance with x1 <-> x2 renamed and clauses/literals
        // permuted: answered from cache with zero additional dispatch, and
        // the model verifies against *this* formula's variable space.
        let renamed = cnf_formula![[-2, -1], [-1, 2], [1, 2]];
        let second = service
            .submit(
                "cdcl",
                &SolveRequest::new(&renamed).artifacts(Artifacts::Model),
            )
            .wait()
            .unwrap();
        assert!(second.verdict.is_sat());
        assert!(renamed.evaluate(second.model.as_ref().unwrap()));
        assert_eq!(second.stats.cache_hits, 1);
        let snapshot = service.metrics_snapshot();
        assert_eq!(snapshot.dispatches, 1);
        assert_eq!(snapshot.cache_hits, 1);
        assert_eq!(snapshot.queue_depth, 0);
        service.shutdown();
    }

    #[test]
    fn pending_by_priority_reports_the_live_backlog() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let registry = recording_registry(&log, &gate);
        let service = SolveService::builder(&registry).workers(1).start();
        let f = generators::example6_sat();
        let blocker = service.submit("gated-recorder", &SolveRequest::new(&f).seed(99));
        while blocker.status() != JobStatus::Running {
            thread::yield_now();
        }
        let handles: Vec<JobHandle> = [
            JobPriority::High,
            JobPriority::Normal,
            JobPriority::Normal,
            JobPriority::Low,
        ]
        .iter()
        .map(|&priority| service.submit_with_priority("recorder", &SolveRequest::new(&f), priority))
        .collect();
        assert_eq!(service.pending_by_priority(), [1, 2, 1]);
        let snapshot = service.metrics_snapshot();
        assert_eq!(snapshot.queue_depth, 4);
        assert_eq!(snapshot.backlog_high, 1);
        assert_eq!(snapshot.backlog_normal, 2);
        assert_eq!(snapshot.backlog_low, 1);
        gate.store(true, Ordering::Relaxed);
        for handle in handles {
            assert!(handle.wait().unwrap().verdict.is_sat());
        }
        assert!(blocker.wait().unwrap().verdict.is_sat());
        service.shutdown();
        assert_eq!(service.pending_by_priority(), [0, 0, 0]);
    }

    #[test]
    fn starved_pool_answers_budget_exhausted() {
        let registry = BackendRegistry::default();
        let service = SolveService::builder(&registry)
            .workers(2)
            .shared_budget(Budget::unlimited().with_wall_time(Duration::ZERO))
            .start();
        let f = generators::example6_sat();
        let handle = service.submit("cdcl", &SolveRequest::new(&f));
        let outcome = handle.wait().unwrap();
        assert_eq!(
            outcome.verdict.exhausted_resource(),
            Some(ExhaustedResource::WallClock)
        );
        assert_eq!(outcome.exhausted, Some(ExhaustedResource::WallClock));
        // Refilling the wall clock revives the service.
        service.extend_deadline(Duration::from_secs(3600));
        let revived = service.submit("cdcl", &SolveRequest::new(&f));
        assert!(revived.wait().unwrap().verdict.is_sat());
        service.shutdown();
    }

    /// The thread that ran a hook, and the result it got.
    type HookRun = (thread::ThreadId, Result<SolveOutcome>);

    /// A completion hook that counts its runs and remembers the last one.
    #[derive(Clone, Default)]
    struct HookLog {
        runs: Arc<AtomicU64>,
        last: Arc<Mutex<Option<HookRun>>>,
    }

    impl HookLog {
        fn hook(&self) -> impl FnOnce(&Result<SolveOutcome>) + Send + 'static {
            let log = self.clone();
            move |result| {
                *log.last.lock().unwrap() = Some((thread::current().id(), result.clone()));
                log.runs.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn runs(&self) -> u64 {
            self.runs.load(Ordering::SeqCst)
        }

        /// Waits until the hook ran, then answers its thread and result.
        fn ran(&self) -> HookRun {
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.runs() == 0 {
                assert!(Instant::now() < deadline, "the hook never ran");
                thread::yield_now();
            }
            self.last.lock().unwrap().clone().unwrap()
        }
    }

    #[test]
    fn on_finish_runs_once_on_the_worker_outside_the_job_lock() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let service = SolveService::builder(&recording_registry(&log, &gate))
            .workers(1)
            .start();
        let f = generators::example6_sat();
        let job = Arc::new(service.submit("gated-recorder", &SolveRequest::new(&f)));
        while job.status() != JobStatus::Running {
            thread::yield_now();
        }
        let hook = HookLog::default();
        let observed = Arc::new(Mutex::new(None));
        {
            let (observer, observed, hook) = (Arc::clone(&job), Arc::clone(&observed), hook.hook());
            // The hook reads its own job, which would deadlock under the
            // job's lock.
            job.on_finish(move |result| {
                *observed.lock().unwrap() = Some(observer.status());
                hook(result);
            });
        }
        assert_eq!(hook.runs(), 0, "the hook ran before the job finished");
        gate.store(true, Ordering::Relaxed);
        let (thread, result) = hook.ran();
        assert_ne!(thread, thread::current().id(), "not run by the worker");
        assert!(result.unwrap().verdict.is_sat());
        assert_eq!(*observed.lock().unwrap(), Some(JobStatus::Finished));
        // The handle still answers after the hook ran.
        assert!(job.poll().unwrap().unwrap().verdict.is_sat());
        service.shutdown();
        assert_eq!(hook.runs(), 1);
    }

    #[test]
    fn on_finish_runs_once_on_every_other_finishing_path() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let service = SolveService::builder(&recording_registry(&log, &gate))
            .workers(1)
            .start();
        let f = generators::example6_sat();
        let here = thread::current().id();

        // Registered after the job finished: this thread runs it at once.
        let done = service.submit("recorder", &SolveRequest::new(&f));
        while done.status() != JobStatus::Finished {
            thread::yield_now();
        }
        let finished = HookLog::default();
        done.on_finish(finished.hook());
        assert_eq!(finished.runs(), 1);
        assert_eq!(finished.ran().0, here);

        // Freeze the worker, then queue two jobs behind it.
        let blocker = service.submit("gated-recorder", &SolveRequest::new(&f));
        while blocker.status() != JobStatus::Running {
            thread::yield_now();
        }
        let cancelled = service.submit("recorder", &SolveRequest::new(&f));
        let drained = service.submit("recorder", &SolveRequest::new(&f));
        let (on_cancel, on_abort, on_blocker) =
            (HookLog::default(), HookLog::default(), HookLog::default());
        cancelled.on_finish(on_cancel.hook());
        drained.on_finish(on_abort.hook());
        blocker.on_finish(on_blocker.hook());

        // Cancelling a queued job: the cancelling thread runs it.
        cancelled.cancel();
        assert_eq!(on_cancel.runs(), 1);
        let (thread, result) = on_cancel.ran();
        assert_eq!(thread, here);
        assert!(result.unwrap().verdict.is_cancelled());

        // Abort's drain: the aborting thread runs the queued job's hook; the
        // worker runs the interrupted job's.
        service.abort();
        assert_eq!(on_abort.runs(), 1);
        let (thread, result) = on_abort.ran();
        assert_eq!(thread, here);
        assert!(result.unwrap().verdict.is_cancelled());
        let (thread, result) = on_blocker.ran();
        assert_ne!(thread, here);
        assert!(result.unwrap().verdict.is_cancelled());

        // A submission after shutdown finished at submit: the registering
        // thread runs it.
        let late = service.submit("recorder", &SolveRequest::new(&f));
        let stopped = HookLog::default();
        late.on_finish(stopped.hook());
        let (thread, result) = stopped.ran();
        assert_eq!(thread, here);
        assert!(matches!(result, Err(NblSatError::ServiceStopped)));

        for hook in [finished, on_cancel, on_abort, on_blocker, stopped] {
            assert_eq!(hook.runs(), 1);
        }
        // Neither the cancelled nor the drained job reached the backend.
        assert_eq!(log.lock().unwrap().len(), 1);
    }

    /// An incremental backend that waits for a gate, then panics.
    #[derive(Debug)]
    struct PanicsAfterGate {
        gate: Arc<AtomicBool>,
    }

    impl crate::solve::session::IncrementalBackend for PanicsAfterGate {
        fn name(&self) -> &'static str {
            "panics-after-gate"
        }
        fn push(&mut self, _formula: &CnfFormula) -> usize {
            1
        }
        fn pop(&mut self) -> bool {
            false
        }
        fn depth(&self) -> usize {
            0
        }
        fn num_vars(&self) -> usize {
            0
        }
        fn solve(&mut self, _call: &SessionCall) -> Result<SolveOutcome> {
            while !self.gate.load(Ordering::Relaxed) {
                thread::yield_now();
            }
            panic!("gate opened");
        }
    }

    #[test]
    fn start_solve_runs_the_hook_once_on_every_session_path() {
        let gate = Arc::new(AtomicBool::new(false));
        let mut registry = BackendRegistry::default();
        {
            let gate = Arc::clone(&gate);
            registry.register_session("panics-after-gate", move || {
                Box::new(PanicsAfterGate {
                    gate: Arc::clone(&gate),
                })
            });
        }
        let service = SolveService::builder(&registry).workers(1).start();
        let here = thread::current().id();

        // The session thread answers a call.
        let session = service.open_session("cdcl").expect("open session");
        session.push(&generators::example6_sat()).unwrap();
        let answered = HookLog::default();
        session
            .start_solve(&SessionCall::new(), answered.hook())
            .unwrap();
        let (thread, result) = answered.ran();
        assert_ne!(thread, here);
        assert!(result.unwrap().verdict.is_sat());
        session.close();

        // The first call panics, which ends the session with the second call
        // still queued: the second hears why.
        let session = service
            .open_session("panics-after-gate")
            .expect("open session");
        let (panicked, unanswered) = (HookLog::default(), HookLog::default());
        session
            .start_solve(&SessionCall::new(), panicked.hook())
            .unwrap();
        session
            .start_solve(&SessionCall::new(), unanswered.hook())
            .unwrap();
        gate.store(true, Ordering::Relaxed);
        assert!(matches!(
            panicked.ran().1,
            Err(NblSatError::BackendPanicked { .. })
        ));
        let (thread, result) = unanswered.ran();
        assert_ne!(thread, here);
        assert!(
            matches!(&result, Err(NblSatError::SessionClosed { reason }) if reason.contains("panicked")),
            "unexpected {result:?}"
        );

        // A call on the ended session is refused, and its hook never runs.
        let refused = HookLog::default();
        assert!(matches!(
            session.start_solve(&SessionCall::new(), refused.hook()),
            Err(NblSatError::SessionClosed { .. })
        ));
        service.shutdown();
        assert_eq!(
            [
                answered.runs(),
                panicked.runs(),
                unanswered.runs(),
                refused.runs()
            ],
            [1, 1, 1, 0]
        );
    }
}
