//! `cold-classify`: a fresh server with an empty cache; two lock-step
//! connections (a closed loop) send every problem of the list once.

use crate::inputs::{mix, Problem};
use crate::oracle;
use crate::report::Tally;
use crate::server::{Conn, Serve};
use crate::trace::Tracer;
use lcl_paths::classifier::Verdict;
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::RequestEnvelope;
use lcl_server::Client;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Problems per traced run whose solvable verdict is also checked on a
/// cycle longer than the algorithm's round count. Such a check costs
/// seconds (a log* algorithm with ~1,400 rounds on ~2,800 nodes takes
/// ~1 s), so only the traced run does it, on a seeded sample. Every run
/// checks every solvable verdict on a 64-node cycle, and every witness by
/// brute force.
pub const DEEP_CHECKS: usize = 3;

/// One problem's served reply: the verdict's canonical JSON, or the error.
pub type Served = Result<String, String>;

/// Per-connection results: (problem index, value) pairs, or the error that
/// ended the connection.
type PerConn<T> = Vec<Result<Vec<(usize, T)>, String>>;

/// What one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub peak_rss_bytes: u64,
    /// RSS growth over the pass, for the cache's bytes-per-entry.
    pub rss_growth_bytes: u64,
    pub stats: JsonValue,
    pub served: Vec<Served>,
}

impl Pass {
    pub fn verdicts_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }
}

/// Each problem's lowest latency over `passes`. The host's contention
/// only ever slows a request down, so the best of the passes is the
/// steadiest estimate of a problem's own cost; p50 and p95 are then taken
/// over problems.
pub fn best_latencies_ms(passes: &[Pass]) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.latencies_ms.len());
    (0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.latencies_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The `classify` frame of problem `i`.
pub fn frames(problems: &[Problem]) -> Vec<String> {
    problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let payload = JsonValue::object([("problem", p.problem.to_spec().to_json())]);
            RequestEnvelope::new(i as i64 + 1, "classify", payload).to_json_string()
        })
        .collect()
}

/// The verdict object of a `classify` reply, re-serialized canonically.
pub fn verdict_of(reply: &str) -> Served {
    let value = JsonValue::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if let Some(verdict) = value.get("payload").and_then(|p| p.get("verdict")) {
        return Ok(verdict.to_json_string());
    }
    let message = value
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(|m| m.as_str().ok())
        .unwrap_or("reply without a verdict");
    Err(format!("error reply: {message}"))
}

/// Runs one pass on a fresh server, and hands the server back still
/// running (with every verdict cached) for the oracle's checks. With a
/// tracer, every request is wrapped in an `rpc.classify` span.
pub fn pass(
    bin: &Path,
    frames: &[String],
    tracer: Option<&Tracer>,
) -> Result<(Pass, Serve), String> {
    let serve = Serve::start(bin, &[])?;
    let rss_before = serve.rss_bytes();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_conn: PerConn<(f64, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::connect(serve.addr)?;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= frames.len() {
                            return Ok(out);
                        }
                        let span = tracer.map(|t| t.open("rpc.classify", None, i as u64 + 1));
                        let sent = Instant::now();
                        let reply = conn.call(&frames[i])?;
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(span)) = (tracer, span) {
                            t.close(span);
                        }
                        out.push((i, (ms, reply)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut latencies_ms = vec![0.0; frames.len()];
    let mut served = vec![Err("no reply".to_string()); frames.len()];
    for result in per_conn {
        for (i, (ms, reply)) in result? {
            latencies_ms[i] = ms;
            served[i] = verdict_of(&reply);
        }
    }
    let stats = serve.stats()?;
    let pass = Pass {
        setup_s: serve.setup_s,
        latencies_ms,
        wall_s,
        peak_rss_bytes: serve.peak_rss_bytes(),
        rss_growth_bytes: serve.rss_bytes().saturating_sub(rss_before),
        stats,
        served,
    };
    Ok((pass, serve))
}

/// Checks every verdict of a pass with the oracle, on the pass's server
/// after its measurements were taken. Returns one outcome per problem.
pub fn check(
    serve: &Serve,
    problems: &[Problem],
    served: &[Served],
    seed: u64,
) -> Result<Vec<Result<(), String>>, String> {
    on_two_clients(serve, problems.len(), |client, i| match &served[i] {
        Err(e) => Err(e.clone()),
        Ok(text) => match Verdict::from_json_str(text) {
            Err(e) => Err(format!("malformed verdict: {e}")),
            Ok(verdict) => oracle::check_verdict(
                client,
                &problems[i].problem,
                &problems[i].known,
                &verdict,
                mix(seed, i as u64),
            ),
        },
    })
}

/// Runs the deep checks on a seeded sample of the solvable verdicts (the
/// lowest seeded keys) and counts each as one operation of the
/// `deep-check` slice.
pub fn deep_checks(
    serve: &Serve,
    problems: &[Problem],
    served: &[Served],
    seed: u64,
) -> Result<Tally, String> {
    let mut solvable: Vec<(u64, usize)> = served
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.as_ref().is_ok_and(|v| {
                !v.contains("\"complexity\":\"unsolvable\"")
                    && !v.contains("\"complexity\":\"linear\"")
            })
        })
        .map(|(i, _)| (mix(seed ^ 0xdee9, i as u64), i))
        .collect();
    solvable.sort_unstable();
    let sample: Vec<usize> = solvable.iter().take(DEEP_CHECKS).map(|&(_, i)| i).collect();
    let outcomes = on_two_clients(serve, sample.len(), |client, k| {
        let i = sample[k];
        oracle::deep_check(client, &problems[i].problem, mix(seed, i as u64))
    })?;
    let mut tally = Tally::default();
    for outcome in &outcomes {
        tally.record(oracle::DEEP_CHECK_SLICE, outcome);
    }
    Ok(tally)
}

/// Runs `check(client, i)` for every `i` in `0..count` over two
/// connections to `serve`, and returns the results in index order.
fn on_two_clients<T: Send>(
    serve: &Serve,
    count: usize,
    check: impl Fn(&mut Client, usize) -> T + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicUsize::new(0);
    let per_conn: PerConn<T> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(serve.addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return Ok(out);
                        }
                        out.push((i, check(&mut client, i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut all: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for result in per_conn {
        for (i, value) in result? {
            all[i] = Some(value);
        }
    }
    Ok(all
        .into_iter()
        .map(|v| v.expect("every index is checked"))
        .collect())
}

/// Counts one pass's operations: a problem fails when its verdict differs
/// from the checked first pass's, or when the oracle rejected that one.
pub fn tally(
    problems: &[Problem],
    reference: &[Served],
    outcomes: &[Result<(), String>],
    pass: &Pass,
) -> Tally {
    let mut tally = Tally::default();
    for (i, served) in pass.served.iter().enumerate() {
        let group = &problems[i].group;
        let same = match (served, &reference[i]) {
            (Ok(served), Ok(reference)) => {
                oracle::same_verdict(&problems[i].problem, served, reference)
            }
            (Err(a), Err(b)) if a == b => Ok(()),
            _ => Err("reply differs from the checked pass".to_string()),
        };
        match same {
            Ok(()) => tally.record(group, &outcomes[i]),
            Err(what) => tally.fail(group, &what),
        }
    }
    tally
}
