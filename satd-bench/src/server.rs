//! `nbl-satd` as a child process: start-up timing, CPU and peak-RSS readings
//! from `/proc`, and a clean shutdown.

use nbl_net::{ClientConfig, NblSatClient};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker-pool size of every server the benchmark starts (the VM has two
/// vCPUs).
pub const WORKERS: usize = 2;

/// Longest wait for any reply. No request of any workload takes a second, so
/// a server that stops answering fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of `USER_HZ`,
/// which is 100 on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `nbl-satd` child. Dropping it kills the child if it is still
/// running, so no server outlives the benchmark.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns `nbl-satd` on an ephemeral loopback port and connects to it.
    /// Returns the server, the connected client and the set-up time: from the
    /// spawn to the first `PONG` on that connection.
    pub fn start(binary: &Path) -> Result<(Server, NblSatClient, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        // The server prints its address only after binding, so the connect
        // below needs no retry loop (whose back-off would dominate the time).
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading nbl-satd's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected first line from nbl-satd: {line:?}"))?
            .to_owned();
        let client = server.connect()?;
        let setup = started.elapsed();
        Ok((server, client, setup))
    }

    /// Opens a new connection and waits for its first `PONG`.
    pub fn connect(&self) -> Result<NblSatClient, String> {
        let config = ClientConfig::new().with_read_timeout(REPLY_TIMEOUT);
        let client = NblSatClient::connect_with_config(self.addr.as_str(), config)
            .map_err(|e| format!("connecting to nbl-satd at {}: {e}", self.addr))?;
        client.ping().map_err(|e| format!("PING: {e}"))?;
        Ok(client)
    }

    /// The server's user + system CPU time so far.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("{path}: no command name"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| format!("{path}: bad CPU field"))
        };
        Ok(Duration::from_secs_f64(
            (ticks(11)? + ticks(12)?) / TICKS_PER_SECOND,
        ))
    }

    /// The server's peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| {
                value
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Sends `SHUTDOWN` on `client`, closes the connection and waits for the
    /// server process to exit cleanly.
    pub fn shutdown(mut self, client: NblSatClient) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        drop(client);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for nbl-satd: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("nbl-satd exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
