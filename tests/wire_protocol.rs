//! Acceptance suite for the `nbl-satd` wire layer: a real [`NblSatServer`]
//! on a loopback ephemeral port, exercised through real sockets.
//!
//! Proves the ISSUE 5 acceptance criteria: concurrent clients with
//! interleaved jobs all receive correct, job-id-matched verdicts agreeing
//! with the in-process oracle; a `CANCEL` for a running job comes back
//! `UNKNOWN cancelled` within one solver poll interval; malformed frames get
//! an `ERR` response without killing the connection or the server; budgets
//! exhaust and refill over the wire; `SHUTDOWN` drains.

use nbl_sat_repro::prelude::*;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nbl_sat_repro::net::{Frame, ServerConfig, WireArtifacts};

/// Binds a default-config server on an ephemeral loopback port.
fn start_server(config: ServerConfig) -> NblSatServer {
    NblSatServer::bind("127.0.0.1:0", config).expect("bind ephemeral loopback port")
}

/// The mixed SAT/UNSAT workload the concurrency tests interleave.
fn workload() -> Vec<CnfFormula> {
    vec![
        cnf::generators::example6_sat(),
        cnf::generators::example7_unsat(),
        cnf::generators::section4_sat_instance(),
        cnf::generators::section4_unsat_instance(),
        cnf::generators::random_ksat(
            &cnf::generators::RandomKSatConfig::from_ratio(12, 3.0, 3).with_seed(7),
        )
        .unwrap(),
        cnf::generators::pigeonhole(4, 3),
    ]
}

#[test]
fn concurrent_clients_interleaved_jobs_match_the_oracle() {
    let server = start_server(ServerConfig::new().workers(4));
    let addr = server.local_addr();
    let formulas = workload();
    let backends = ["cdcl", "dpll", "nbl-symbolic", "portfolio"];

    // The in-process oracle for every (backend, formula) pair.
    let registry = BackendRegistry::default();
    let mut expected = Vec::new();
    for (slot, formula) in formulas.iter().enumerate() {
        let backend = backends[slot % backends.len()];
        let outcome = registry
            .solve(backend, &SolveRequest::new(formula).seed(slot as u64))
            .unwrap();
        expected.push(outcome.verdict);
    }

    // ≥4 concurrent clients, each submitting every job before collecting any
    // result, so jobs from all clients interleave inside the service queue.
    thread::scope(|scope| {
        for client_id in 0..4u64 {
            let formulas = &formulas;
            let expected = &expected;
            scope.spawn(move || {
                let client = NblSatClient::connect(addr).expect("connect");
                let jobs: Vec<_> = formulas
                    .iter()
                    .enumerate()
                    .map(|(slot, formula)| {
                        let mut frame = SolveFrame::new(
                            backends[slot % backends.len()],
                            &cnf::dimacs::to_string(formula),
                        );
                        frame.seed = slot as u64;
                        frame.artifacts = WireArtifacts::Model;
                        let job = client.submit(frame).expect("submit");
                        (slot, job)
                    })
                    .collect();
                for (slot, job) in jobs {
                    let outcome = job.wait().expect("job outcome");
                    // Verdicts are job-id matched: each ticket saw its own
                    // formula's verdict, which must agree with the oracle.
                    match expected[slot] {
                        SolveVerdict::Satisfiable => {
                            assert!(
                                outcome.verdict.is_sat(),
                                "client {client_id} slot {slot}: {:?}",
                                outcome.verdict
                            );
                            let model = outcome.model.expect("model was requested");
                            let assignment =
                                assignment_from_lits(&model, formulas[slot].num_vars());
                            assert!(
                                formulas[slot].evaluate(&assignment),
                                "client {client_id} slot {slot}: model does not satisfy"
                            );
                        }
                        SolveVerdict::Unsatisfiable => {
                            assert!(
                                outcome.verdict.is_unsat(),
                                "client {client_id} slot {slot}: {:?}",
                                outcome.verdict
                            );
                            assert!(outcome.model.is_none());
                        }
                        SolveVerdict::Unknown(_) => {
                            assert!(
                                !outcome.verdict.is_sat() && !outcome.verdict.is_unsat(),
                                "client {client_id} slot {slot}: {:?}",
                                outcome.verdict
                            );
                        }
                    }
                }
            });
        }
    });
    server.stop();
}

/// Reconstructs an [`Assignment`] from DIMACS-signed wire literals.
fn assignment_from_lits(lits: &[i64], num_vars: usize) -> Assignment {
    let mut assignment = Assignment::all_false(num_vars);
    for &lit in lits {
        let var = Variable::new(lit.unsigned_abs() as usize - 1);
        assignment.set(var, lit > 0);
    }
    assignment
}

/// A backend that blocks on a shared gate before answering SAT — lets a test
/// freeze one job while others overtake it.
#[derive(Debug)]
struct GatedBackend {
    gate: Arc<AtomicBool>,
}

impl SatBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn is_complete(&self) -> bool {
        true
    }
    fn solve(&mut self, request: &SolveRequest<'_>) -> Result<SolveOutcome, NblSatError> {
        while !self.gate.load(Ordering::Relaxed) {
            if request.cancelled() {
                return Ok(SolveOutcome::of_verdict(SolveVerdict::Unknown(
                    UnknownCause::Cancelled,
                )));
            }
            thread::yield_now();
        }
        Ok(SolveOutcome::of_verdict(SolveVerdict::Satisfiable))
    }
}

fn registry_with_gate(gate: &Arc<AtomicBool>) -> BackendRegistry {
    let mut registry = BackendRegistry::default();
    let gate = Arc::clone(gate);
    registry.register("gated", move || {
        Box::new(GatedBackend {
            gate: Arc::clone(&gate),
        })
    });
    registry
}

#[test]
fn one_connection_multiplexes_out_of_order_completions() {
    let gate = Arc::new(AtomicBool::new(false));
    let registry = registry_with_gate(&gate);
    let server = start_server(ServerConfig::new().registry(&registry).workers(2));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");

    let sat = cnf::generators::example6_sat();
    let dimacs = cnf::dimacs::to_string(&sat);
    let slow = client
        .submit(SolveFrame::new("gated", &dimacs))
        .expect("submit slow");
    // Make sure the slow job is actually running before racing it, so the
    // fast job cannot win by queue order alone.
    let deadline = Instant::now() + Duration::from_secs(30);
    while slow.status().expect("status") != JobStatus::Running {
        assert!(Instant::now() < deadline, "gated job never started");
        thread::yield_now();
    }
    let fast = client
        .submit(SolveFrame::new("cdcl", &dimacs))
        .expect("submit fast");

    // The job submitted second completes first: out-of-order completion on
    // one connection.
    let fast_outcome = fast.wait().expect("fast outcome");
    assert!(fast_outcome.verdict.is_sat());
    assert_eq!(fast_outcome.arrival, 0);
    assert_eq!(client.completions_seen(), 1);

    gate.store(true, Ordering::Relaxed);
    let slow_outcome = slow.wait().expect("slow outcome");
    assert!(slow_outcome.verdict.is_sat());
    assert_eq!(slow_outcome.arrival, 1);
    server.stop();
}

#[test]
fn client_disconnect_cancels_its_unfinished_jobs() {
    // The gate is never released: the job can only end via cancellation.
    let gate = Arc::new(AtomicBool::new(false));
    let registry = registry_with_gate(&gate);
    let server = start_server(ServerConfig::new().registry(&registry).workers(1));
    {
        let client = NblSatClient::connect(server.local_addr()).expect("connect");
        let job = client
            .submit(SolveFrame::new(
                "gated",
                &cnf::dimacs::to_string(&cnf::generators::example6_sat()),
            ))
            .expect("submit");
        let deadline = Instant::now() + Duration::from_secs(30);
        while job.status().expect("status") != JobStatus::Running {
            assert!(Instant::now() < deadline, "gated job never started");
            thread::yield_now();
        }
        // The client vanishes with its job still running.
    }
    // The server must have cancelled the orphaned job — otherwise the single
    // worker stays wedged on the gate forever and this solve can never run.
    let client = NblSatClient::connect(server.local_addr()).expect("reconnect");
    let outcome = client
        .submit(SolveFrame::new(
            "cdcl",
            &cnf::dimacs::to_string(&cnf::generators::example7_unsat()),
        ))
        .expect("submit after disconnect")
        .wait()
        .expect("the worker was freed");
    assert!(outcome.verdict.is_unsat());
    server.stop();
}

#[test]
fn cancel_of_a_running_job_answers_unknown_cancelled_over_the_wire() {
    let server = start_server(ServerConfig::new().workers(1));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");

    // Hard enough that CDCL runs for minutes if nobody stops it.
    let hard = cnf::generators::pigeonhole(10, 9);
    let job = client
        .submit(SolveFrame::new("cdcl", &cnf::dimacs::to_string(&hard)))
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    while job.status().expect("status") != JobStatus::Running {
        assert!(Instant::now() < deadline, "job never started running");
        thread::yield_now();
    }

    let cancelled_at = Instant::now();
    job.cancel().expect("cancel");
    let outcome = job.wait().expect("outcome");
    let latency = cancelled_at.elapsed();
    assert_eq!(
        outcome.verdict,
        nbl_sat_repro::net::WireVerdict::Unknown(UnknownCause::Cancelled),
        "expected UNKNOWN cancelled, got {:?}",
        outcome.verdict
    );
    // One solver poll interval is microseconds; seconds of slack keep the
    // assertion meaningful yet robust on loaded CI machines.
    assert!(
        latency < Duration::from_secs(10),
        "cancellation took {latency:?}"
    );
    server.stop();
}

#[test]
fn budget_exhaustion_and_refill_over_the_wire() {
    // A pool with exactly one coprocessor check: the first NBL solve spends
    // it, the second starves, a REFILL revives the service.
    let server = start_server(
        ServerConfig::new()
            .workers(1)
            .shared_budget(Budget::unlimited().with_max_checks(1)),
    );
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    let dimacs = cnf::dimacs::to_string(&cnf::generators::example6_sat());

    let mut first = SolveFrame::new("nbl-symbolic", &dimacs);
    first.artifacts = WireArtifacts::Verdict;
    let outcome = client.submit(first.clone()).unwrap().wait().unwrap();
    assert!(outcome.verdict.is_sat());

    let starved = client.submit(first.clone()).unwrap().wait().unwrap();
    assert_eq!(
        starved.verdict,
        nbl_sat_repro::net::WireVerdict::Unknown(UnknownCause::BudgetExhausted(
            ExhaustedResource::CoprocessorChecks
        )),
        "expected budget exhaustion, got {:?}",
        starved.verdict
    );

    client.refill(None, Some(1), None).expect("refill ack");
    let revived = client.submit(first).unwrap().wait().unwrap();
    assert!(revived.verdict.is_sat());
    server.stop();
}

#[test]
fn per_request_budget_caps_apply_over_the_wire() {
    let server = start_server(ServerConfig::new().workers(1));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    // Mirrors the in-process budget-exhaustion battery: 200 samples are far
    // below the §IV convergence needs on this instance.
    let mut frame = SolveFrame::new(
        "nbl-sampled",
        &cnf::dimacs::to_string(&cnf::generators::section4_unsat_instance()),
    );
    frame.artifacts = WireArtifacts::Verdict;
    frame.seed = 7;
    frame.max_samples = Some(200);
    let outcome = client.submit(frame).unwrap().wait().unwrap();
    assert_eq!(
        outcome.verdict,
        nbl_sat_repro::net::WireVerdict::Unknown(UnknownCause::BudgetExhausted(
            ExhaustedResource::Samples
        )),
        "expected sample exhaustion, got {:?}",
        outcome.verdict
    );
    server.stop();
}

/// Reads one `\n`-terminated line off a raw socket.
fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end().to_string()
}

#[test]
fn malformed_frames_get_err_without_killing_connection_or_server() {
    let server = start_server(ServerConfig::new().workers(1));
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // 1. Unknown verb.
    stream.write_all(b"FROB 1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR - "), "unknown verb");
    // 2. Non-UTF8 bytes on a complete line.
    stream.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    assert!(read_line(&mut reader).contains("UTF-8"), "non-UTF8");
    // 3. Bad job id.
    stream.write_all(b"CANCEL notanumber\n").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR - "), "bad id");
    // 4. SOLVE with an unknown key.
    stream
        .write_all(b"SOLVE cdcl frobnicate=1 body-lines=0\n")
        .unwrap();
    assert!(read_line(&mut reader).starts_with("ERR - "), "bad key");
    // 5. SOLVE whose body is not DIMACS.
    stream
        .write_all(b"SOLVE cdcl body-lines=1\nthis is not dimacs\n")
        .unwrap();
    assert!(read_line(&mut reader).contains("dimacs"), "bad body");
    // 6. Truncated SOLVE header (missing body-lines).
    stream.write_all(b"SOLVE cdcl seed=1\n").unwrap();
    assert!(
        read_line(&mut reader).contains("body-lines"),
        "no body-lines"
    );

    // The connection survived all of it: a PING and a real solve still work.
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");
    stream
        .write_all(b"SOLVE cdcl artifacts=verdict body-lines=3\np cnf 2 2\n1 2 0\n-1 -2 0\n")
        .unwrap();
    assert_eq!(read_line(&mut reader), "QUEUED 0");
    assert_eq!(read_line(&mut reader), "RESULT 0 s SATISFIABLE");

    // And the server survived too: a second, well-behaved client solves.
    let client = NblSatClient::connect(addr).expect("second client");
    let outcome = client
        .submit(SolveFrame::new(
            "cdcl",
            &cnf::dimacs::to_string(&cnf::generators::example7_unsat()),
        ))
        .unwrap()
        .wait()
        .unwrap();
    assert!(outcome.verdict.is_unsat());
    server.stop();
}

#[test]
fn status_reports_the_job_lifecycle_and_unknown_jobs_err() {
    let server = start_server(ServerConfig::new().workers(1));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    let job = client
        .submit(SolveFrame::new(
            "cdcl",
            &cnf::dimacs::to_string(&cnf::generators::example6_sat()),
        ))
        .expect("submit");
    let outcome = job.wait().expect("outcome");
    assert!(outcome.verdict.is_sat());
    // After completion the server still answers STATUS for the job.
    assert_eq!(job.status().expect("status"), JobStatus::Finished);
    drop(client);

    // STATUS (and CANCEL) for a job this connection never submitted err
    // without disturbing the connection — raw socket, job ids are scoped per
    // connection.
    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"STATUS 999\n").unwrap();
    let err = read_line(&mut reader);
    assert!(
        err.starts_with("ERR 999") && err.contains("unknown job"),
        "got {err:?}"
    );
    stream.write_all(b"CANCEL 999\n").unwrap();
    let err = read_line(&mut reader);
    assert!(
        err.starts_with("ERR 999") && err.contains("unknown job"),
        "got {err:?}"
    );
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");
    server.stop();
}

#[test]
fn status_of_a_session_job_keeps_its_wait_intact() {
    let server = start_server(ServerConfig::new().workers(1));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    let session = client.open_session("cdcl").expect("open session");
    let php = cnf::dimacs::to_string(&cnf::generators::pigeonhole(8, 7));
    session.add_clauses(&php).expect("push");
    let job = session.assume(&[]).expect("queue");
    // A job-scoped ERR here would also become the answer of the wait below.
    let status = job.status().expect("STATUS of a session job");
    assert_ne!(status, JobStatus::Queued, "session calls read running");
    job.cancel().expect("cancel");
    let outcome = job.wait().expect("the job's RESULT");
    assert!(
        matches!(
            outcome.verdict,
            WireVerdict::Unsatisfiable | WireVerdict::Unknown(UnknownCause::Cancelled)
        ),
        "got {:?}",
        outcome.verdict
    );
    assert_eq!(job.status().expect("status"), JobStatus::Finished);
    // CANCEL of the finished job is a no-op: no ERR lands in its mailbox.
    job.cancel().expect("cancel");
    client.ping().expect("ping");
    assert!(
        job.poll().is_none(),
        "CANCEL of a finished session job erred"
    );
    session.close().expect("close");
    server.stop();
}

#[test]
fn incremental_sessions_over_the_wire() {
    let server = start_server(ServerConfig::new().workers(1));
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    assert!(
        client.hello().expect("CAPS reply"),
        "server must advertise session support"
    );

    let session = client.open_session("cdcl").expect("open session");
    // Frame 1: (x1 ∨ x2) ∧ (¬x1 ∨ ¬x2) — SAT, an exclusive-or core.
    assert_eq!(session.add_clauses("1 2 0\n-1 -2 0\n").expect("push"), 1);

    let outcome = session.assume(&[1]).expect("queue").wait().expect("solve");
    assert!(outcome.verdict.is_sat());
    let model = outcome.model.expect("session solves stream their model");
    assert!(model.contains(&1), "assumption must hold in the model");
    assert!(model.contains(&-2), "the xor clause forces ¬x2");
    assert!(outcome.failed.is_none());

    // Frame 2 pins x2, contradicting x1 under the xor: UNSAT with a core
    // drawn from the assumptions.
    assert_eq!(session.add_clauses("2 0\n").expect("push"), 2);
    let outcome = session.assume(&[1]).expect("queue").wait().expect("solve");
    assert!(outcome.verdict.is_unsat());
    let failed = outcome.failed.expect("UNSAT under assumptions has a core");
    assert_eq!(failed, vec![1]);

    // Popping frame 2 restores satisfiability under the same assumption —
    // the state the wire protocol must round-trip is the *stack*, not one
    // formula.
    assert_eq!(session.pop().expect("pop"), 1);
    let outcome = session.assume(&[1]).expect("queue").wait().expect("solve");
    assert!(outcome.verdict.is_sat());

    session.close().expect("close ack");

    // Sessions coexist with one-shot traffic on the same connection.
    let outcome = client
        .submit(SolveFrame::new(
            "cdcl",
            &cnf::dimacs::to_string(&cnf::generators::example7_unsat()),
        ))
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(outcome.verdict.is_unsat());
    server.stop();
}

#[test]
fn session_errors_and_raw_framing_over_the_wire() {
    let server = start_server(ServerConfig::new().workers(1));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    stream.write_all(b"HELLO\n").unwrap();
    assert_eq!(read_line(&mut reader), "CAPS sessions=true");

    // Ops on a session id never opened.
    stream.write_all(b"SESSION POP 7\n").unwrap();
    assert!(read_line(&mut reader).contains("unknown session"));
    // Unknown backends and backends without session support refuse to open.
    stream
        .write_all(b"SESSION OPEN backend=frobnicator\n")
        .unwrap();
    assert!(read_line(&mut reader).starts_with("ERR - "));
    stream.write_all(b"SESSION OPEN backend=dpll\n").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR - "));

    // A real session: an empty pop errs without killing the session, and the
    // ASSUME completion group is QUEUED → f-line → RESULT with job ids from
    // the dedicated high range.
    stream.write_all(b"SESSION OPEN backend=cdcl\n").unwrap();
    assert_eq!(read_line(&mut reader), "SESSIONOK 1 depth=0");
    stream.write_all(b"SESSION POP 1\n").unwrap();
    assert!(read_line(&mut reader).contains("no frame to pop"));
    stream
        .write_all(b"SESSION ADDCLAUSES 1 body-lines=1\n1 0\n")
        .unwrap();
    assert_eq!(read_line(&mut reader), "SESSIONOK 1 depth=1");
    let job = 1u64 << 63;
    stream.write_all(b"SESSION ASSUME 1 lits=-1\n").unwrap();
    assert_eq!(read_line(&mut reader), format!("QUEUED {job}"));
    // Session completions always carry stats, then the failed core.
    let stats = read_line(&mut reader);
    assert!(
        stats.starts_with(&format!("STATS {job} ")),
        "expected a stats line, got {stats:?}"
    );
    assert_eq!(read_line(&mut reader), format!("f {job} -1 0"));
    assert_eq!(
        read_line(&mut reader),
        format!("RESULT {job} s UNSATISFIABLE")
    );

    // CLOSE acks once; the id is then gone.
    stream.write_all(b"SESSION CLOSE 1\n").unwrap();
    assert_eq!(read_line(&mut reader), "SESSIONOK 1 depth=0");
    stream.write_all(b"SESSION CLOSE 1\n").unwrap();
    assert!(read_line(&mut reader).contains("unknown session"));
    server.stop();
}

#[test]
fn shutdown_verb_drains_the_server() {
    let server = start_server(ServerConfig::new().workers(2));
    let addr = server.local_addr();
    let client = NblSatClient::connect(addr).expect("connect");
    let job = client
        .submit(SolveFrame::new(
            "cdcl",
            &cnf::dimacs::to_string(&cnf::generators::example6_sat()),
        ))
        .expect("submit");
    client.shutdown_server().expect("BYE");
    assert!(server.is_stopping());
    // Graceful drain: BYE is the connection's last frame, so the completion
    // of the already-accepted job was streamed before it.
    let outcome = job.wait().expect("drained result precedes BYE");
    assert!(outcome.verdict.is_sat());
    server.wait(); // returns because SHUTDOWN stopped the server
                   // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn cache_metrics_and_backlog_over_the_wire() {
    // Default server config: verdict/model cache ON. The second submission
    // is a variable-swapped isomorphic twin of the first, so it must answer
    // from the cache — hit counter up, zero extra backend dispatch — with a
    // model mapped into *its* variable space, not the first formula's.
    let server = start_server(ServerConfig::new());
    let client = NblSatClient::connect(server.local_addr()).expect("connect");

    let first = cnf::cnf_formula![[1, 2], [-1, -2], [1, -2]];
    let mut frame = SolveFrame::new("cdcl", &cnf::dimacs::to_string(&first));
    frame.artifacts = WireArtifacts::Model;
    frame.stats = true;
    let job = client.submit(frame).expect("submit");
    let (_status, backlog) = job.status_detailed().expect("status");
    assert!(backlog.is_some(), "STATUS must carry live queue gauges");
    let outcome = job.wait().expect("first outcome");
    assert!(outcome.verdict.is_sat());
    assert_eq!(
        outcome.stats.as_ref().expect("stats requested").cache_hits,
        0
    );

    let second = cnf::cnf_formula![[2, 1], [-2, -1], [2, -1]];
    let mut frame = SolveFrame::new("cdcl", &cnf::dimacs::to_string(&second));
    frame.artifacts = WireArtifacts::Model;
    frame.stats = true;
    let outcome = client
        .submit(frame)
        .expect("submit")
        .wait()
        .expect("second outcome");
    assert!(outcome.verdict.is_sat());
    assert_eq!(
        outcome.stats.as_ref().expect("stats requested").cache_hits,
        1,
        "isomorphic resubmission missed the server cache"
    );
    let model = assignment_from_lits(outcome.model.as_ref().expect("model"), second.num_vars());
    assert!(
        second.evaluate(&model),
        "cached model was not lifted into the resubmission's variable space"
    );

    let metrics = client.metrics().expect("METRICS round trip");
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.cache_entries, 1);
    assert_eq!(metrics.queue_depth, 0, "both jobs drained");
    let dispatched: u64 = metrics.backends.iter().map(|b| b.count).sum();
    assert_eq!(dispatched, 1, "the cache hit must not dispatch a backend");
    server.stop();
}

/// The job a server-side frame belongs to, and whether it ends the job.
fn job_of(frame: &Frame) -> Option<(u64, bool)> {
    match frame {
        Frame::Model { job, .. }
        | Frame::Stats { job, .. }
        | Frame::FailedAssumptions { job, .. } => Some((*job, false)),
        Frame::Result { job, .. } => Some((*job, true)),
        Frame::Error { job: Some(job), .. } => Some((*job, true)),
        _ => None,
    }
}

#[test]
fn queued_precedes_every_frame_of_its_job() {
    // The fastest completions there are, pipelined on one connection, so a
    // completion has every chance to overtake its QUEUED ack.
    const EACH: usize = 200;
    let server = start_server(ServerConfig::new().workers(2));
    let stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut requests = stream;
    requests
        .write_all(b"SESSION OPEN backend=cdcl\nSESSION ADDCLAUSES 1 body-lines=1\n1 2 0\n")
        .unwrap();
    assert_eq!(read_line(&mut reader), "SESSIONOK 1 depth=0");
    assert_eq!(read_line(&mut reader), "SESSIONOK 1 depth=1");
    // Irreducible under preprocessing; solved once, so that later copies
    // are answered from the cache.
    let cached = "p cnf 2 3\n1 2 0\n-1 -2 0\n1 -2 0\n";
    let mut first = SolveFrame::new("cdcl", cached);
    first.stats = true;
    requests
        .write_all(Frame::Solve(first.clone()).encode().as_bytes())
        .unwrap();
    assert_eq!(read_line(&mut reader), "QUEUED 0");
    while !read_line(&mut reader).starts_with("RESULT 0 ") {}

    let mut batch = String::new();
    for i in 0..EACH {
        // Answered by preprocessing: two unit clauses.
        let mut units = SolveFrame::new("cdcl", &format!("p cnf 3 2\n1 0\n-{} 0\n", 2 + i % 2));
        units.stats = true;
        batch.push_str(&Frame::Solve(units).encode());
        // Answered by the cache.
        batch.push_str(&Frame::Solve(first.clone()).encode());
        // The idle session answers SAT (a v-line) or UNSAT (an f-line).
        batch.push_str(if i % 2 == 0 {
            "SESSION ASSUME 1 lits=1\n"
        } else {
            "SESSION ASSUME 1 lits=-1,-2\n"
        });
        // A job-scoped ERR: the backend does not exist, and the formula is
        // neither preprocessed away nor cached.
        let uncached = "p cnf 2 2\n1 2 0\n-1 -2 0\n";
        batch.push_str(&Frame::Solve(SolveFrame::new("no-such-backend", uncached)).encode());
    }
    let writer = thread::spawn(move || requests.write_all(batch.as_bytes()));

    let jobs = 4 * EACH;
    let mut queued = HashSet::new();
    let mut done = HashSet::new();
    let mut kinds = HashSet::new();
    while done.len() < jobs {
        let frame = Frame::read_from(&mut reader).expect("frame").expect("open");
        if let Frame::Queued { job } = frame {
            assert!(queued.insert(job), "QUEUED {job} twice");
            continue;
        }
        let (job, ends) = job_of(&frame).unwrap_or_else(|| panic!("unexpected {frame:?}"));
        assert!(queued.contains(&job), "{frame:?} came before QUEUED {job}");
        assert!(!done.contains(&job), "{frame:?} came after the job ended");
        kinds.insert(std::mem::discriminant(&frame));
        if ends {
            done.insert(job);
        }
    }
    writer.join().unwrap().unwrap();
    assert_eq!(queued.len(), jobs);
    assert_eq!(
        kinds.len(),
        5,
        "v, STATS, f, RESULT and ERR frames all seen"
    );
    let metrics = server.service().metrics_snapshot();
    assert!(metrics.cache_hits >= EACH as u64, "{metrics:?}");
    server.stop();
}

#[test]
fn a_client_that_never_reads_does_not_delay_other_connections() {
    const BIG: u64 = 256;
    // One worker: a worker blocked on a socket would hold up every job.
    let server = start_server(ServerConfig::new().workers(1));
    // Preprocessing answers an empty formula over 8 000 variables with a
    // v-line of about 47 KB; 256 of them are 12 MB, more than the loopback
    // socket buffers hold, so this connection's writer blocks.
    let mut idle = TcpStream::connect(server.local_addr()).expect("connect raw");
    let big = Frame::Solve(SolveFrame::new("cdcl", "p cnf 8000 0\n")).encode();
    for _ in 0..BIG {
        idle.write_all(big.as_bytes()).unwrap();
    }
    // Let the service answer as many of them as it will.
    let solved = || server.service().metrics_snapshot().pre_solved;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = (solved(), Instant::now());
    while last.0 < BIG && last.1.elapsed() < Duration::from_secs(1) {
        assert!(Instant::now() < deadline, "the server never settled");
        thread::sleep(Duration::from_millis(20));
        if solved() != last.0 {
            last = (solved(), Instant::now());
        }
    }

    let client = NblSatClient::connect_with_config(
        server.local_addr(),
        ClientConfig::new().with_read_timeout(Duration::from_secs(30)),
    )
    .expect("connect");
    let hard = cnf::generators::section4_unsat_instance();
    let outcome = client
        .submit(SolveFrame::new("cdcl", &cnf::dimacs::to_string(&hard)))
        .expect("submit")
        .wait()
        .expect("the other connection's SOLVE was held up");
    assert!(outcome.verdict.is_unsat());
    drop(idle);
    server.stop();
}

#[test]
fn a_client_that_never_reads_stops_being_read() {
    // Sixteen megabytes of PINGs, more than the loopback socket buffers
    // hold: a server that read them all would queue sixteen megabytes of
    // PONGs for a client that takes none.
    const CAP: usize = 16 << 20;
    let server = start_server(ServerConfig::new().workers(1));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let ping = b"PING\n";
    let batch = ping.repeat(4096);
    let mut sent = 0;
    while sent < CAP {
        match stream.write(&batch[sent % batch.len()..]) {
            Ok(n) => sent += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => panic!("write: {e}"),
        }
    }
    assert!(
        sent < CAP,
        "the server kept reading from a client that reads nothing"
    );

    // Reading resumes the connection, and no request is lost: a PONG for
    // every PING, the one the stall cut short included, then one for a
    // last PING.
    let pings = sent.div_ceil(ping.len()) + 1;
    let drain = {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        thread::spawn(move || (0..pings).all(|_| read_line(&mut reader) == "PONG"))
    };
    let cut = sent % ping.len();
    if cut > 0 {
        stream.write_all(&ping[cut..]).unwrap();
    }
    stream.write_all(ping).unwrap();
    assert!(drain.join().unwrap(), "a reply other than PONG");
    server.stop();
}
