//! The timed phase: closed-loop load over one connection, and the check of
//! every answer against the ground truth.

use crate::workload::{is_complete, Request};
use cnf::{Assignment, CnfFormula, Variable};
use nbl_net::{NblSatClient, RemoteJob, RemoteOutcome, WireVerdict};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One request's answer as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// From just before `submit` to the collected `RESULT` (or `ERR`).
    pub latency: Duration,
    pub outcome: Result<RemoteOutcome, String>,
}

/// Sends every request over `client` from `threads` threads, each keeping
/// `window` requests outstanding (closed loop: a thread sends its next
/// request when its oldest one is answered). Thread `t` sends requests `t`,
/// `t + threads`, ... in order. Returns the replies in request order.
///
/// A thread collects its replies oldest first, so with a window above one a
/// reply that overtakes an older one is timed when the older one lands.
pub fn drive(
    client: &NblSatClient,
    requests: &[Request],
    threads: usize,
    window: usize,
) -> Vec<Reply> {
    let per_thread: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|offset| {
                scope.spawn(move || {
                    let mine = (offset..requests.len()).step_by(threads);
                    let mut replies = Vec::with_capacity(requests.len() / threads + 1);
                    let mut in_flight: VecDeque<(usize, Instant, Result<RemoteJob<'_>, String>)> =
                        VecDeque::with_capacity(window);
                    let collect = |(i, sent, job): (usize, Instant, Result<RemoteJob<'_>, _>)| {
                        let outcome = job.and_then(|job| job.wait().map_err(|e| e.to_string()));
                        let latency = sent.elapsed();
                        (i, Reply { latency, outcome })
                    };
                    for i in mine {
                        if in_flight.len() == window {
                            replies.push(collect(in_flight.pop_front().expect("window is full")));
                        }
                        let frame = requests[i].frame.clone();
                        let sent = Instant::now();
                        let job = client.submit(frame).map_err(|e| e.to_string());
                        in_flight.push_back((i, sent, job));
                    }
                    replies.extend(in_flight.into_iter().map(collect));
                    replies
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("load thread panicked"))
            .collect()
    });
    let mut replies: Vec<Option<Reply>> = (0..requests.len()).map(|_| None).collect();
    for (i, reply) in per_thread.into_iter().flatten() {
        replies[i] = Some(reply);
    }
    replies
        .into_iter()
        .map(|reply| reply.expect("every request is answered"))
        .collect()
}

/// Failed requests, and the first wrong answer from a complete backend.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub failed: usize,
    /// Failures by reason, for the report.
    pub reasons: Vec<(String, usize)>,
    /// Any failure of a backend whose answers are exact.
    pub fatal: Option<String>,
}

impl Verdicts {
    fn fail(&mut self, request: &Request, reason: &str) {
        self.failed += 1;
        let key = format!("{}: {reason}", request.backend);
        match self.reasons.iter_mut().find(|(r, _)| *r == key) {
            Some((_, count)) => *count += 1,
            None => self.reasons.push((key, 1)),
        }
        if self.fatal.is_none() && is_complete(request.backend) {
            self.fatal = Some(format!("{} [{}]: {reason}", request.label, request.backend));
        }
    }
}

/// Checks every reply: `ERR`, `UNKNOWN`, a verdict contradicting the ground
/// truth, and a model that does not satisfy the formula as sent all fail.
pub fn check(requests: &[Request], replies: &[Reply]) -> Verdicts {
    let mut verdicts = Verdicts::default();
    for (request, reply) in requests.iter().zip(replies) {
        let truth = request
            .truth
            .expect("ground truth is computed before timing");
        match &reply.outcome {
            Err(error) => verdicts.fail(request, &format!("ERR {error}")),
            Ok(outcome) => match outcome.verdict {
                WireVerdict::Unknown(_) => verdicts.fail(request, "UNKNOWN"),
                WireVerdict::Unsatisfiable if truth => verdicts.fail(request, "false UNSAT"),
                WireVerdict::Satisfiable if !truth => verdicts.fail(request, "false SAT"),
                WireVerdict::Satisfiable => match &outcome.model {
                    Some(literals) if satisfies(&request.formula, literals) => {}
                    Some(_) => verdicts.fail(request, "model does not satisfy the formula"),
                    None => verdicts.fail(request, "SAT without the requested model"),
                },
                WireVerdict::Unsatisfiable => {}
            },
        }
    }
    verdicts
}

/// Whether the DIMACS-signed `v`-line literals satisfy `formula`, reading
/// unmentioned variables as false.
fn satisfies(formula: &CnfFormula, literals: &[i64]) -> bool {
    let mut model = Assignment::all_false(formula.num_vars());
    for &literal in literals {
        let index = literal.unsigned_abs() as usize;
        if literal == 0 || index > formula.num_vars() {
            return false;
        }
        model.set(Variable::new(index - 1), literal > 0);
    }
    formula.evaluate(&model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_are_checked_against_the_formula_as_sent() {
        let formula = CnfFormula::from_dimacs_clauses(&[vec![1, -2], vec![2, 3]]).unwrap();
        assert!(satisfies(&formula, &[1, 2, -3]));
        assert!(!satisfies(&formula, &[-1, 2, 3]));
        assert!(!satisfies(&formula, &[1, 2, 4]), "out-of-range variable");
    }
}
