//! `nbl-satd` runs no thread per job: jobs in flight on a connection add no
//! threads to the server.
//!
//! This is its own test binary, so `/proc/self/task` counts only the threads
//! of this test: the in-process server's, the client's and the harness's.
#![cfg(target_os = "linux")]

use nbl_sat_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Answers SAT once its gate opens.
#[derive(Debug)]
struct Gated(Arc<AtomicBool>);

impl SatBackend for Gated {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn is_complete(&self) -> bool {
        true
    }
    fn solve(&mut self, _request: &SolveRequest<'_>) -> Result<SolveOutcome, NblSatError> {
        while !self.0.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        Ok(SolveOutcome::of_verdict(SolveVerdict::Satisfiable))
    }
}

#[test]
fn jobs_in_flight_add_no_threads() {
    const JOBS: usize = 32;
    let gate = Arc::new(AtomicBool::new(false));
    let mut registry = BackendRegistry::default();
    {
        let gate = Arc::clone(&gate);
        registry.register("gated", move || Box::new(Gated(Arc::clone(&gate))));
    }
    let server = NblSatServer::bind(
        "127.0.0.1:0",
        ServerConfig::new().registry(&registry).workers(1),
    )
    .expect("bind ephemeral loopback port");
    let client = NblSatClient::connect(server.local_addr()).expect("connect");
    // The round trip means the connection's threads are all up.
    client.ping().expect("PING");
    let idle = threads();

    // Irreducible, so every job reaches the gated backend: one runs on the
    // single worker, the rest wait in the queue.
    let dimacs = "p cnf 2 2\n1 2 0\n-1 -2 0\n";
    let first = client
        .submit(SolveFrame::new("gated", dimacs))
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    while first.status().expect("status") != JobStatus::Running {
        assert!(Instant::now() < deadline, "the gated job never started");
        thread::yield_now();
    }
    let one_in_flight = threads();
    let rest: Vec<RemoteJob<'_>> = (1..JOBS)
        .map(|_| {
            client
                .submit(SolveFrame::new("gated", dimacs))
                .expect("submit")
        })
        .collect();
    let all_in_flight = threads();

    gate.store(true, Ordering::Relaxed);
    for job in std::iter::once(first).chain(rest) {
        assert!(job.wait().expect("outcome").verdict.is_sat());
    }
    server.stop();
    assert!(
        one_in_flight <= idle + 1 && all_in_flight <= one_in_flight,
        "threads: {idle} idle, {one_in_flight} with one job in flight, \
         {all_in_flight} with {JOBS}"
    );
}
