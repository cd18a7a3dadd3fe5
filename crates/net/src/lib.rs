//! `nbl-net`: the wire layer of the NBL-SAT reproduction — an out-of-process
//! front end for the [`nbl_sat_core::SolveService`] job queue.
//!
//! The paper frames the NBL engine as a *coprocessor* you hand formulas to
//! and get verdicts back; this crate gives that shape a network seam. It has
//! three parts, all std-only (no external dependencies, no async runtime):
//!
//! * [`protocol`] — the line-delimited text codec: the [`Frame`] enum, a
//!   strict parser and an exact encoder. `SOLVE` frames carry the backend
//!   name, seed, budget caps, priority and an inline DIMACS body; responses
//!   stream `QUEUED`, `v`-model lines and `RESULT` verdicts, plus
//!   `CANCEL`/`STATUS`/`REFILL`/`METRICS`/`SHUTDOWN` control verbs mapping
//!   1:1 onto the service API.
//! * [`server`] — [`NblSatServer`]: a [`std::net::TcpListener`] accept loop;
//!   each connection runs one reader and one writer thread, whatever the
//!   number of jobs in flight. Completions reach the writer through the
//!   service's completion hooks, so a single connection multiplexes many
//!   jobs and streams completions out of submission order.
//! * [`client`] — [`NblSatClient`]: a blocking client whose background
//!   reader demultiplexes the response stream into per-job mailboxes
//!   ([`RemoteJob`] tickets), usable from many threads over one connection.
//!
//! The protocol also speaks IPASIR-style *incremental sessions*: `SESSION
//! OPEN/ADDCLAUSES/ASSUME/POP/CLOSE` verbs pin one solver per session on the
//! server ([`nbl_sat_core::SessionHandle`]) and [`RemoteSession`] drives it
//! from the client, with failed-assumption cores streamed back as `f`-lines.
//! `HELLO` → `CAPS` lets clients probe for the extension before using it.
//!
//! The `nbl-satd` and `nbl-sat-client` binaries in `src/bin/` wrap the two
//! ends into runnable processes; both follow the SAT-competition exit-code
//! convention (10 satisfiable, 20 unsatisfiable, 0 unknown).
//!
//! ```no_run
//! use nbl_net::{NblSatClient, NblSatServer, ServerConfig, SolveFrame};
//!
//! let server = NblSatServer::bind("127.0.0.1:0", ServerConfig::new())?;
//! let client = NblSatClient::connect(server.local_addr())?;
//! let job = client.submit(SolveFrame::new("cdcl", "p cnf 2 2\n1 2 0\n-1 -2 0\n"))?;
//! assert!(job.wait()?.verdict.is_sat());
//! client.shutdown_server()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientConfig, NblSatClient, NetError, RemoteJob, RemoteOutcome, RemoteSession};
pub use protocol::{
    Frame, ProtocolError, SolveFrame, WireArtifacts, WireBackendLatency, WireBacklog, WireMetrics,
    WireVerdict, MAX_BODY_LINES, MAX_LINE_BYTES,
};
pub use server::{NblSatServer, ServerConfig};
