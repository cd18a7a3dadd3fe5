//! Property and table-driven tests for the wire-protocol codec:
//! `parse(encode(frame)) == frame` over generated frames, and a malformed
//! corpus proving the strict parser errors — it never panics — on truncated
//! frames, oversized bodies, bad verbs and non-UTF-8 input.

use nbl_net::{
    Frame, ProtocolError, SolveFrame, WireArtifacts, WireBackendLatency, WireBacklog, WireMetrics,
    WireVerdict,
};
use nbl_sat_core::{ExhaustedResource, JobPriority, JobStatus, SolveStats, UnknownCause};
use proptest::prelude::*;
use std::io::Cursor;
use std::time::Duration;

const BACKENDS: &[&str] = &[
    "cdcl",
    "dpll",
    "brute-force",
    "nbl-symbolic",
    "nbl-sampled",
    "parallel-portfolio",
    "hybrid_sampled",
    "x",
];

/// Raw body lines the generator draws from: DIMACS-ish, empty, comments,
/// junk — the codec transports them verbatim either way.
const BODY_LINES: &[&str] = &[
    "p cnf 3 2",
    "1 -2 0",
    "-1 2 3 0",
    "c a comment",
    "",
    "%",
    "not dimacs at all",
    "  leading and trailing  ",
];

const WORDS: &[&str] = &["unknown", "backend", "job", "budget", "'minisat'", "42"];

const PRIORITIES: &[JobPriority] = &[JobPriority::Low, JobPriority::Normal, JobPriority::High];
const ARTIFACTS: &[WireArtifacts] = &[WireArtifacts::Verdict, WireArtifacts::Model];
const CAUSES: &[UnknownCause] = &[
    UnknownCause::Cancelled,
    UnknownCause::Incomplete,
    UnknownCause::BudgetExhausted(ExhaustedResource::WallClock),
    UnknownCause::BudgetExhausted(ExhaustedResource::Samples),
    UnknownCause::BudgetExhausted(ExhaustedResource::CoprocessorChecks),
];
const STATUSES: &[JobStatus] = &[JobStatus::Queued, JobStatus::Running, JobStatus::Finished];

type OptU64 = (bool, u64);

fn opt(flagged: OptU64) -> Option<u64> {
    let (present, value) = flagged;
    present.then_some(value)
}

#[allow(clippy::too_many_arguments)]
fn build_frame(
    variant: u8,
    job: u64,
    seed: u64,
    lits: Vec<(u64, bool)>,
    body: Vec<usize>,
    caps: (OptU64, OptU64, OptU64),
    backend: usize,
    selector: usize,
    words: Vec<usize>,
    scoped: bool,
) -> Frame {
    let literals: Vec<i64> = lits
        .iter()
        .map(|&(magnitude, negative)| {
            let lit = magnitude as i64;
            if negative {
                -lit
            } else {
                lit
            }
        })
        .collect();
    let (wall, samples, checks) = caps;
    match variant {
        0 => Frame::Solve(SolveFrame {
            backend: BACKENDS[backend].to_string(),
            seed,
            priority: PRIORITIES[selector % PRIORITIES.len()],
            artifacts: ARTIFACTS[selector % ARTIFACTS.len()],
            wall_ms: opt(wall),
            max_samples: opt(samples),
            max_checks: opt(checks),
            stats: selector.is_multiple_of(3),
            body: body.iter().map(|&i| BODY_LINES[i].to_string()).collect(),
        }),
        1 => Frame::Cancel { job },
        2 => Frame::Status { job },
        3 => {
            // REFILL needs at least one key; force one when all flags are off.
            let mut samples = opt(samples);
            if samples.is_none() && opt(checks).is_none() && opt(wall).is_none() {
                samples = Some(seed % 1000);
            }
            Frame::Refill {
                samples,
                checks: opt(checks),
                wall_ms: opt(wall),
            }
        }
        4 => Frame::Ping,
        5 => Frame::Shutdown,
        6 => Frame::Queued { job },
        7 => Frame::Model { job, literals },
        8 => {
            let verdict = match selector % 3 {
                0 => WireVerdict::Satisfiable,
                1 => WireVerdict::Unsatisfiable,
                _ => WireVerdict::Unknown(CAUSES[selector % CAUSES.len()]),
            };
            Frame::Result { job, verdict }
        }
        9 => Frame::Info {
            job,
            status: STATUSES[selector % STATUSES.len()],
            backlog: selector.is_multiple_of(2).then_some(WireBacklog {
                queue_depth: seed % 64,
                high: job % 8,
                normal: seed % 32,
                low: job % 5,
            }),
        },
        10 => Frame::OkRefill,
        11 => Frame::Pong,
        12 => Frame::Bye,
        13 => Frame::Stats {
            job,
            stats: SolveStats {
                decisions: seed % 1009,
                conflicts: job % 97,
                propagations: seed % 7919,
                restarts: selector as u64,
                learned_clauses: job % 13,
                assignments_tried: seed % 65537,
                flips: job % 29,
                coprocessor_checks: seed % 3,
                samples: job % 11,
                wall_time: Duration::from_micros(seed % 1_000_003),
                cache_hits: job % 2,
                preprocessed_vars_removed: seed % 17,
                clauses_exported: seed % 257,
                clauses_imported: job % 127,
                ..SolveStats::default()
            },
        },
        14 => Frame::MetricsRequest,
        15 => Frame::Metrics(WireMetrics {
            queue_depth: seed % 128,
            backlog_high: job % 8,
            backlog_normal: seed % 64,
            backlog_low: job % 5,
            cache_hits: seed % 1009,
            cache_misses: job % 997,
            cache_evictions: seed % 31,
            cache_entries: job % 1024,
            pre_vars_removed: seed % 211,
            pre_clauses_removed: job % 499,
            pre_solved: seed % 23,
            budget_samples_spent: seed % 1_000_003,
            budget_checks_spent: job % 65_537,
            clauses_exported: seed % 4099,
            clauses_imported: job % 2053,
            backends: body
                .iter()
                .enumerate()
                .map(|(rank, &i)| WireBackendLatency {
                    name: format!("{}-{rank}", BACKENDS[i % BACKENDS.len()]),
                    count: seed % 100,
                    total_us: seed % 50_000,
                    max_us: job % 9_000,
                })
                .collect(),
        }),
        _ => Frame::Error {
            job: scoped.then_some(job),
            message: words
                .iter()
                .map(|&i| WORDS[i])
                .collect::<Vec<_>>()
                .join(" "),
        },
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (0u8..17, 0u64..10_000_000, 0u64..u64::MAX),
        proptest::collection::vec((1u64..100, proptest::bool::ANY), 0..8),
        proptest::collection::vec(0usize..BODY_LINES.len(), 0..6),
        (
            (proptest::bool::ANY, 0u64..100_000),
            (proptest::bool::ANY, 0u64..100_000),
            (proptest::bool::ANY, 0u64..100_000),
        ),
        (
            0usize..BACKENDS.len(),
            0usize..30,
            proptest::collection::vec(0usize..WORDS.len(), 1..5),
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |((variant, job, seed), lits, body, caps, (backend, selector, words, scoped))| {
                build_frame(
                    variant, job, seed, lits, body, caps, backend, selector, words, scoped,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The round-trip law: parsing an encoding yields the original frame and
    /// consumes the whole encoding.
    #[test]
    fn parse_encode_round_trip(frame in arb_frame()) {
        let text = frame.encode();
        let mut cursor = Cursor::new(text.clone());
        let parsed = Frame::read_from(&mut cursor)
            .map_err(|e| TestCaseError::fail(format!("parse failed for {text:?}: {e}")))?;
        prop_assert_eq!(parsed.as_ref(), Some(&frame));
        let eof = Frame::read_from(&mut cursor)
            .map_err(|e| TestCaseError::fail(format!("trailing parse failed: {e}")))?;
        prop_assert_eq!(eof, None);
    }

    /// Concatenated encodings parse back as the same sequence — frames are
    /// self-delimiting.
    #[test]
    fn frame_streams_are_self_delimiting(frames in proptest::collection::vec(arb_frame(), 1..6)) {
        let mut text = String::new();
        for frame in &frames {
            text.push_str(&frame.encode());
        }
        let mut cursor = Cursor::new(text);
        for expected in &frames {
            let parsed = Frame::read_from(&mut cursor)
                .map_err(|e| TestCaseError::fail(format!("stream parse failed: {e}")))?;
            prop_assert_eq!(parsed.as_ref(), Some(expected));
        }
        let eof = Frame::read_from(&mut cursor)
            .map_err(|e| TestCaseError::fail(format!("stream EOF failed: {e}")))?;
        prop_assert_eq!(eof, None);
    }
}

/// Whether a malformed input must be recoverable (`Malformed`: the stream is
/// still line-synchronised) or fatal (`Desync`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Recoverable,
    Fatal,
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    use Expect::*;
    let oversized_line = {
        let mut line = vec![b'a'; nbl_net::MAX_LINE_BYTES + 10];
        line.push(b'\n');
        line
    };
    let cases: Vec<(&str, Vec<u8>, Expect)> = vec![
        ("empty line", b"\n".to_vec(), Recoverable),
        ("unknown verb", b"FROB 1\n".to_vec(), Recoverable),
        ("lowercase verb", b"ping\n".to_vec(), Recoverable),
        ("bare SOLVE", b"SOLVE\n".to_vec(), Recoverable),
        (
            "SOLVE missing body-lines",
            b"SOLVE cdcl seed=1\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE bad backend charset",
            b"SOLVE bad/name body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE keyless token",
            b"SOLVE cdcl nokey body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE unknown key",
            b"SOLVE cdcl frob=1 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE duplicate key",
            b"SOLVE cdcl seed=1 seed=2 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE body-lines not last",
            b"SOLVE cdcl body-lines=0 seed=1\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE negative seed",
            b"SOLVE cdcl seed=-1 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE seed overflow",
            b"SOLVE cdcl seed=99999999999999999999 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE bad priority",
            b"SOLVE cdcl priority=urgent body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE bad artifacts",
            b"SOLVE cdcl artifacts=cube body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE bad stats value",
            b"SOLVE cdcl stats=maybe body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE duplicate stats key",
            b"SOLVE cdcl stats=true stats=false body-lines=0\n".to_vec(),
            Recoverable,
        ),
        ("STATS without id", b"STATS\n".to_vec(), Recoverable),
        (
            "STATS unknown key",
            b"STATS 3 frobs=1\n".to_vec(),
            Recoverable,
        ),
        (
            "STATS duplicate key",
            b"STATS 3 flips=1 flips=2\n".to_vec(),
            Recoverable,
        ),
        (
            "STATS keyless token",
            b"STATS 3 flips\n".to_vec(),
            Recoverable,
        ),
        (
            "STATS negative counter",
            b"STATS 3 decisions=-4\n".to_vec(),
            Recoverable,
        ),
        (
            "SOLVE truncated body",
            b"SOLVE cdcl body-lines=3\np cnf 1 1\n".to_vec(),
            Fatal,
        ),
        (
            "SOLVE oversized body declaration",
            b"SOLVE cdcl body-lines=99999999\n".to_vec(),
            Fatal,
        ),
        (
            "SOLVE non-UTF8 body line",
            [
                b"SOLVE cdcl body-lines=1\n".as_slice(),
                &[0xff, 0xfe, b'\n'],
            ]
            .concat(),
            Recoverable,
        ),
        ("CANCEL without id", b"CANCEL\n".to_vec(), Recoverable),
        ("CANCEL negative id", b"CANCEL -3\n".to_vec(), Recoverable),
        (
            "CANCEL non-numeric id",
            b"CANCEL seven\n".to_vec(),
            Recoverable,
        ),
        (
            "CANCEL trailing token",
            b"CANCEL 1 2\n".to_vec(),
            Recoverable,
        ),
        (
            "CANCEL id overflow",
            b"CANCEL 99999999999999999999999\n".to_vec(),
            Recoverable,
        ),
        ("STATUS without id", b"STATUS\n".to_vec(), Recoverable),
        ("REFILL without keys", b"REFILL\n".to_vec(), Recoverable),
        (
            "REFILL unknown key",
            b"REFILL frob=1\n".to_vec(),
            Recoverable,
        ),
        (
            "REFILL duplicate key",
            b"REFILL samples=1 samples=2\n".to_vec(),
            Recoverable,
        ),
        ("PING with payload", b"PING 1\n".to_vec(), Recoverable),
        (
            "SHUTDOWN with payload",
            b"SHUTDOWN now\n".to_vec(),
            Recoverable,
        ),
        ("QUEUED without id", b"QUEUED\n".to_vec(), Recoverable),
        ("v without terminator", b"v 3 1 2\n".to_vec(), Recoverable),
        (
            "v tokens after terminator",
            b"v 3 1 0 2\n".to_vec(),
            Recoverable,
        ),
        ("v bad literal", b"v 3 one 0\n".to_vec(), Recoverable),
        (
            "RESULT bad verdict",
            b"RESULT 3 s MAYBE\n".to_vec(),
            Recoverable,
        ),
        (
            "RESULT missing s",
            b"RESULT 3 SATISFIABLE\n".to_vec(),
            Recoverable,
        ),
        (
            "RESULT UNKNOWN without cause",
            b"RESULT 3 s UNKNOWN\n".to_vec(),
            Recoverable,
        ),
        (
            "RESULT unknown cause",
            b"RESULT 3 s UNKNOWN frob\n".to_vec(),
            Recoverable,
        ),
        (
            "RESULT trailing token",
            b"RESULT 3 s SATISFIABLE yes\n".to_vec(),
            Recoverable,
        ),
        (
            "INFO unknown status",
            b"INFO 3 paused\n".to_vec(),
            Recoverable,
        ),
        (
            "INFO unknown gauge key",
            b"INFO 3 running frob=1\n".to_vec(),
            Recoverable,
        ),
        (
            "INFO duplicate gauge key",
            b"INFO 3 running backlog-low=1 backlog-low=2\n".to_vec(),
            Recoverable,
        ),
        (
            "INFO negative gauge",
            b"INFO 3 running queue-depth=-1\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS response without body-lines",
            b"METRICS cache-hits=1\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS body-lines not last",
            b"METRICS body-lines=0 cache-hits=1\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS unknown key",
            b"METRICS frob=1 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS duplicate key",
            b"METRICS cache-hits=1 cache-hits=2 body-lines=0\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS bad body line verb",
            b"METRICS body-lines=1\nfrob cdcl count=1\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS body line unknown key",
            b"METRICS body-lines=1\nbackend cdcl frob=1\n".to_vec(),
            Recoverable,
        ),
        (
            "METRICS truncated body",
            b"METRICS body-lines=2\nbackend cdcl count=1\n".to_vec(),
            Fatal,
        ),
        (
            "METRICS oversized body declaration",
            b"METRICS body-lines=99999999\n".to_vec(),
            Fatal,
        ),
        ("OK without payload", b"OK\n".to_vec(), Recoverable),
        ("OK unknown payload", b"OK frob\n".to_vec(), Recoverable),
        ("BYE with payload", b"BYE bye\n".to_vec(), Recoverable),
        ("ERR without scope", b"ERR\n".to_vec(), Recoverable),
        ("ERR without message", b"ERR -\n".to_vec(), Recoverable),
        ("ERR bad scope", b"ERR x message\n".to_vec(), Recoverable),
        ("non-UTF8 frame line", vec![0xc3, 0x28, b'\n'], Recoverable),
        ("oversized line", oversized_line, Fatal),
    ];
    for (label, bytes, expect) in cases {
        let mut cursor = Cursor::new(bytes);
        let result = Frame::read_from(&mut cursor);
        let error = match result {
            Err(error) => error,
            Ok(frame) => panic!("{label}: expected an error, parsed {frame:?}"),
        };
        match expect {
            Expect::Recoverable => assert!(
                error.is_recoverable(),
                "{label}: expected recoverable, got {error}"
            ),
            Expect::Fatal => assert!(
                matches!(error, ProtocolError::Desync(_)),
                "{label}: expected desync, got {error}"
            ),
        }
    }
}

/// After a recoverable malformed line, the next frame on the stream parses
/// normally — the parser really is line-synchronised.
#[test]
fn parser_resynchronises_after_recoverable_errors() {
    let mut cursor = Cursor::new(b"FROB 1\nPING\n".to_vec());
    assert!(Frame::read_from(&mut cursor).unwrap_err().is_recoverable());
    assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Ping));
    assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
}

/// Pins the exact wire text of every frame variant: each priority, job
/// status and UNKNOWN cause, INFO with and without its gauges, STATS with
/// all fourteen counters and METRICS with all fifteen keys plus two backend
/// lines. Each string must also parse back to the frame that produced it.
#[test]
fn golden_bytes_for_every_frame() {
    let solve = |priority, artifacts| {
        Frame::Solve(SolveFrame {
            backend: "cdcl".into(),
            seed: 9,
            priority,
            artifacts,
            wall_ms: None,
            max_samples: None,
            max_checks: None,
            stats: false,
            body: vec!["p cnf 2 1".into(), "1 -2 0".into()],
        })
    };
    let result = |verdict| Frame::Result { job: 4, verdict };
    let info = |status| Frame::Info {
        job: 6,
        status,
        backlog: None,
    };
    let golden: Vec<(Frame, &str)> =
        vec![
        (
            solve(JobPriority::Low, WireArtifacts::Verdict),
            "SOLVE cdcl seed=9 priority=low artifacts=verdict body-lines=2\np cnf 2 1\n1 -2 0\n",
        ),
        (
            solve(JobPriority::Normal, WireArtifacts::Model),
            "SOLVE cdcl seed=9 priority=normal artifacts=model body-lines=2\np cnf 2 1\n1 -2 0\n",
        ),
        (
            Frame::Solve(SolveFrame {
                backend: "nbl-sampled".into(),
                seed: 18_446_744_073_709_551_615,
                priority: JobPriority::High,
                artifacts: WireArtifacts::Model,
                wall_ms: Some(250),
                max_samples: Some(4096),
                max_checks: Some(3),
                stats: true,
                body: vec![],
            }),
            "SOLVE nbl-sampled seed=18446744073709551615 priority=high artifacts=model \
             wall-ms=250 samples=4096 checks=3 stats=true body-lines=0\n",
        ),
        (Frame::Cancel { job: 17 }, "CANCEL 17\n"),
        (Frame::Status { job: 18 }, "STATUS 18\n"),
        (
            Frame::Refill {
                samples: Some(100),
                checks: Some(7),
                wall_ms: Some(5),
            },
            "REFILL samples=100 checks=7 wall-ms=5\n",
        ),
        (
            Frame::Refill {
                samples: None,
                checks: Some(2),
                wall_ms: None,
            },
            "REFILL checks=2\n",
        ),
        (Frame::Ping, "PING\n"),
        (Frame::Hello, "HELLO\n"),
        (Frame::Shutdown, "SHUTDOWN\n"),
        (
            Frame::SessionOpen {
                backend: "cdcl".into(),
            },
            "SESSION OPEN backend=cdcl\n",
        ),
        (
            Frame::SessionAddClauses {
                session: 2,
                body: vec!["1 2 0".into(), "-1 0".into()],
            },
            "SESSION ADDCLAUSES 2 body-lines=2\n1 2 0\n-1 0\n",
        ),
        (
            Frame::SessionAssume {
                session: 2,
                literals: vec![-1, 3],
                wall_ms: Some(40),
                max_samples: Some(8),
                max_checks: Some(1),
            },
            "SESSION ASSUME 2 lits=-1,3 wall-ms=40 samples=8 checks=1\n",
        ),
        (
            Frame::SessionAssume {
                session: 3,
                literals: vec![],
                wall_ms: None,
                max_samples: None,
                max_checks: None,
            },
            "SESSION ASSUME 3\n",
        ),
        (Frame::SessionPop { session: 2 }, "SESSION POP 2\n"),
        (Frame::SessionClose { session: 2 }, "SESSION CLOSE 2\n"),
        (Frame::MetricsRequest, "METRICS\n"),
        (Frame::Queued { job: 4 }, "QUEUED 4\n"),
        (
            Frame::Model {
                job: 4,
                literals: vec![1, -2, 3],
            },
            "v 4 1 -2 3 0\n",
        ),
        (
            Frame::Model {
                job: 5,
                literals: vec![],
            },
            "v 5 0\n",
        ),
        (
            Frame::FailedAssumptions {
                job: 9_223_372_036_854_775_808,
                literals: vec![-1, 3],
            },
            "f 9223372036854775808 -1 3 0\n",
        ),
        (
            Frame::Stats {
                job: 4,
                stats: SolveStats {
                    decisions: 11,
                    conflicts: 12,
                    propagations: 13,
                    restarts: 14,
                    learned_clauses: 15,
                    assignments_tried: 16,
                    flips: 17,
                    coprocessor_checks: 18,
                    samples: 19,
                    wall_time: Duration::from_micros(20),
                    cache_hits: 21,
                    preprocessed_vars_removed: 22,
                    clauses_exported: 23,
                    clauses_imported: 24,
                    ..SolveStats::default()
                },
            },
            "STATS 4 decisions=11 conflicts=12 propagations=13 restarts=14 learned=15 \
             tried=16 flips=17 checks=18 samples=19 wall-us=20 cache-hits=21 \
             pre-vars-removed=22 clauses-exported=23 clauses-imported=24\n",
        ),
        (result(WireVerdict::Satisfiable), "RESULT 4 s SATISFIABLE\n"),
        (result(WireVerdict::Unsatisfiable), "RESULT 4 s UNSATISFIABLE\n"),
        (
            result(WireVerdict::Unknown(UnknownCause::Cancelled)),
            "RESULT 4 s UNKNOWN cancelled\n",
        ),
        (
            result(WireVerdict::Unknown(UnknownCause::Incomplete)),
            "RESULT 4 s UNKNOWN incomplete\n",
        ),
        (
            result(WireVerdict::Unknown(UnknownCause::BudgetExhausted(
                ExhaustedResource::WallClock,
            ))),
            "RESULT 4 s UNKNOWN budget-wall-clock\n",
        ),
        (
            result(WireVerdict::Unknown(UnknownCause::BudgetExhausted(
                ExhaustedResource::Samples,
            ))),
            "RESULT 4 s UNKNOWN budget-samples\n",
        ),
        (
            result(WireVerdict::Unknown(UnknownCause::BudgetExhausted(
                ExhaustedResource::CoprocessorChecks,
            ))),
            "RESULT 4 s UNKNOWN budget-checks\n",
        ),
        (info(JobStatus::Queued), "INFO 6 queued\n"),
        (info(JobStatus::Running), "INFO 6 running\n"),
        (info(JobStatus::Finished), "INFO 6 finished\n"),
        (
            Frame::Info {
                job: 6,
                status: JobStatus::Queued,
                backlog: Some(WireBacklog {
                    queue_depth: 7,
                    high: 1,
                    normal: 4,
                    low: 2,
                }),
            },
            "INFO 6 queued queue-depth=7 backlog-high=1 backlog-normal=4 backlog-low=2\n",
        ),
        (
            Frame::Metrics(WireMetrics {
                queue_depth: 31,
                backlog_high: 32,
                backlog_normal: 33,
                backlog_low: 34,
                cache_hits: 35,
                cache_misses: 36,
                cache_evictions: 37,
                cache_entries: 38,
                pre_vars_removed: 39,
                pre_clauses_removed: 40,
                pre_solved: 41,
                budget_samples_spent: 42,
                budget_checks_spent: 43,
                clauses_exported: 44,
                clauses_imported: 45,
                backends: vec![
                    WireBackendLatency {
                        name: "cdcl".into(),
                        count: 3,
                        total_us: 900,
                        max_us: 500,
                    },
                    WireBackendLatency {
                        name: "nbl-symbolic".into(),
                        count: 1,
                        total_us: 70,
                        max_us: 70,
                    },
                ],
            }),
            "METRICS queue-depth=31 backlog-high=32 backlog-normal=33 backlog-low=34 \
             cache-hits=35 cache-misses=36 cache-evictions=37 cache-entries=38 \
             pre-vars-removed=39 pre-clauses-removed=40 pre-solved=41 \
             budget-samples-spent=42 budget-checks-spent=43 clauses-exported=44 \
             clauses-imported=45 body-lines=2\n\
             backend cdcl count=3 total-us=900 max-us=500\n\
             backend nbl-symbolic count=1 total-us=70 max-us=70\n",
        ),
        (
            Frame::SessionOk {
                session: 2,
                depth: 1,
            },
            "SESSIONOK 2 depth=1\n",
        ),
        (Frame::Caps { sessions: true }, "CAPS sessions=true\n"),
        (Frame::Caps { sessions: false }, "CAPS sessions=false\n"),
        (Frame::OkRefill, "OK refill\n"),
        (Frame::Pong, "PONG\n"),
        (Frame::Bye, "BYE\n"),
        (
            Frame::Error {
                job: Some(4),
                message: "unknown job 4".into(),
            },
            "ERR 4 unknown job 4\n",
        ),
        (
            Frame::Error {
                job: None,
                message: "unknown verb 'FROB'".into(),
            },
            "ERR - unknown verb 'FROB'\n",
        ),
    ];
    for (frame, text) in golden {
        assert_eq!(frame.encode(), text, "encoding of {frame:?}");
        let mut cursor = Cursor::new(text.as_bytes());
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap().as_ref(),
            Some(&frame),
            "parse of {text:?}"
        );
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None, "{text:?}");
    }
}
