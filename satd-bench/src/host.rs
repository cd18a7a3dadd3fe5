//! The host's CPU steal, read from `/proc/stat`. On a shared VM the
//! hypervisor can take a large share of the CPU away for minutes at a time,
//! which slows every timing alike; the timed phase starts a round only once
//! the host is quiet, within a bounded wait.

use std::time::{Duration, Instant};

/// A round starts once the hypervisor steals less than this share of the
/// host's CPU over one window (or over the previous round).
pub const QUIET_STEAL: f64 = 0.02;

/// Length of one steal sample.
const QUIET_WINDOW: Duration = Duration::from_millis(250);

/// The longest a run waits for quiet in total, so it still ends in time.
const WAIT_BUDGET: Duration = Duration::from_secs(8);

/// Host-wide CPU ticks since boot: `(stolen, all)`.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map(|field| field.parse::<u64>().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest times are already counted in user and nice.
    let steal = *fields.get(7).ok_or("/proc/stat: no steal field")?;
    Ok((steal, fields.iter().take(8).sum()))
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.1.saturating_sub(before.1);
    if all == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / all as f64
}

/// The wait budget of one run.
#[derive(Debug)]
pub struct Quiet {
    waited: Duration,
}

impl Quiet {
    pub fn new() -> Self {
        Quiet {
            waited: Duration::ZERO,
        }
    }

    /// Blocks until one window shows a quiet host, or the run's budget is
    /// spent.
    pub fn wait(&mut self) -> Result<(), String> {
        while self.waited < WAIT_BUDGET {
            let started = Instant::now();
            let before = cpu_ticks()?;
            std::thread::sleep(QUIET_WINDOW);
            let share = steal_share(before, cpu_ticks()?);
            self.waited += started.elapsed();
            if share < QUIET_STEAL {
                break;
            }
        }
        Ok(())
    }

    /// Total time spent waiting so far.
    pub fn waited(&self) -> Duration {
        self.waited
    }
}
