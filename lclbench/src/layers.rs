//! The traced run's in-process probes: each layer's public functions,
//! called directly and timed in spans.

use crate::inputs::{Leg, Problem};
use crate::report::{median, quantile, Metrics};
use crate::server::Conn;
use crate::trace::Tracer;
use crate::warm::WarmSet;
use lcl_paths::classifier::feasibility::find_feasible;
use lcl_paths::classifier::{
    approximate_entry_weight, classify_with_options, ClassifierError, ClassifierOptions,
    Complexity, ConstantAlgorithm, Engine, GapTypes, LogStarAlgorithm,
};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{InLabel, NormalizedLcl, ProblemSpec};
use lcl_paths::semigroup::primitive_strings_up_to;
use lcl_server::Service;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The canonical (least-rotation) primitive input words up to `max_len`:
/// the periodic patterns the `O(1)` search must label.
fn canonical_patterns(alpha: usize, max_len: usize) -> Vec<Vec<InLabel>> {
    primitive_strings_up_to(alpha, max_len)
        .into_iter()
        .filter(|w| {
            (1..w.len()).all(|s| {
                let rot: Vec<InLabel> = (0..w.len()).map(|i| w[(i + s) % w.len()]).collect();
                rot >= *w
            })
        })
        .collect()
}

/// Outcome of one phase-by-phase classification.
struct Phased {
    verdict: Result<Complexity, String>,
    num_types: Option<usize>,
    /// `Some(found)` when the `O(1)` search ran.
    constant_found: Option<bool>,
    budget_exceeded: bool,
    /// `approximate_entry_weight` of the problem's classification, the
    /// cache's price for keeping it.
    weight: Option<u64>,
}

/// The decision procedure one phase at a time, each phase in its own span:
/// type semigroup, solvability witness, `O(1)` pattern search and
/// synthesis, then the `log*` search and synthesis.
fn classify_phased(tracer: &Tracer, parent: u32, request: u64, problem: &NormalizedLcl) -> Phased {
    let options = ClassifierOptions::default();
    let mut out = Phased {
        verdict: Err(String::new()),
        num_types: None,
        constant_found: None,
        budget_exceeded: false,
        weight: None,
    };
    let budget_error = |e: ClassifierError, out: &mut Phased| {
        out.budget_exceeded = matches!(e, ClassifierError::SearchBudgetExceeded { .. });
        Err(e.to_string())
    };
    let (info, _) = tracer.time("types.compute", Some(parent), request, |_| {
        GapTypes::compute(problem, options.type_budget)
    });
    let info = match info {
        Ok(info) => info,
        Err(e) => {
            out.verdict = budget_error(e, &mut out);
            return out;
        }
    };
    out.num_types = Some(info.semigroup().len());
    let (witness, _) = tracer.time("types.witness", Some(parent), request, |_| {
        info.solvability_witness()
    });
    match witness {
        Ok(Some(_)) => {
            out.verdict = Ok(Complexity::Unsolvable);
            return out;
        }
        Ok(None) => {}
        Err(e) => {
            out.verdict = budget_error(e, &mut out);
            return out;
        }
    }
    let kappa = info
        .semigroup()
        .pump_threshold()
        .min(options.pattern_length_cap)
        .max(1);
    let patterns = canonical_patterns(problem.num_inputs(), kappa);
    let (found, _) = tracer.time("feasibility.constant", Some(parent), request, |_| {
        find_feasible(&info, &patterns, options.search_budget)
    });
    match found {
        Ok(Some(structure)) => {
            out.constant_found = Some(true);
            tracer.time("synthesis", Some(parent), request, |_| {
                ConstantAlgorithm::new(&info, structure, kappa)
            });
            out.verdict = Ok(Complexity::Constant);
            return out;
        }
        Ok(None) => out.constant_found = Some(false),
        Err(e) => {
            out.verdict = budget_error(e, &mut out);
            return out;
        }
    }
    let (found, _) = tracer.time("feasibility.logstar", Some(parent), request, |_| {
        find_feasible(&info, &[], options.search_budget)
    });
    out.verdict = match found {
        Ok(Some(structure)) => {
            tracer.time("synthesis", Some(parent), request, |_| {
                LogStarAlgorithm::new(&info, structure)
            });
            Ok(Complexity::LogStar)
        }
        Ok(None) => Ok(Complexity::Linear),
        Err(e) => budget_error(e, &mut out),
    };
    out
}

/// Re-runs every cold problem phase by phase as jobs on an engine's worker
/// pool (two closed-loop submitters, like the two cold connections), and
/// compares each verdict with the one the server returned (`served`:
/// complexity wire name, or `None` for an error reply). Returns the
/// workload slice of every problem where the two disagree.
pub fn cold_phases(
    tracer: &Arc<Tracer>,
    problems: &[Problem],
    served: &[Option<String>],
    m: &mut Metrics,
) -> Vec<String> {
    let engine = Engine::builder().parallelism(2).build();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Phased)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= problems.len() {
                    return;
                }
                let request = i as u64 + 1;
                let problem = problems[i].problem.clone();
                let job_tracer = Arc::clone(tracer);
                let submitted = Instant::now();
                let reply = engine.dispatch(move || {
                    job_tracer.record("pool.queue_wait", None, request, submitted, Instant::now());
                    let (mut phased, _) = job_tracer.time("classify", None, request, |id| {
                        classify_phased(&job_tracer, id, request, &problem)
                    });
                    phased.weight = classify_with_options(&problem, &ClassifierOptions::default())
                        .ok()
                        .map(|c| approximate_entry_weight(&Arc::new(c)));
                    phased
                });
                let phased = reply.recv().expect("pool job completed");
                results.lock().expect("results lock").push((i, phased));
            });
        }
    });
    let results = results.into_inner().expect("results lock");
    let mut mismatches = Vec::new();
    let (mut attempted, mut found, mut budget, mut types) = (0u64, 0u64, 0u64, Vec::new());
    let weights: Vec<f64> = results
        .iter()
        .filter_map(|(_, p)| p.weight.map(|w| w as f64))
        .collect();
    m.set(
        "cache.weight_bytes_per_entry",
        weights.iter().sum::<f64>() / weights.len().max(1) as f64,
        "B",
    );
    for (i, phased) in &results {
        let phased_name = phased
            .verdict
            .as_ref()
            .ok()
            .map(|c| c.wire_name().to_string());
        if phased_name != served[*i] {
            mismatches.push(problems[*i].group.clone());
            eprintln!(
                "[trace] {}: phase-by-phase verdict {:?} != served {:?}",
                problems[*i].group, phased_name, served[*i]
            );
        }
        if let Some(f) = phased.constant_found {
            attempted += 1;
            found += u64::from(f);
        }
        budget += u64::from(phased.budget_exceeded);
        types.extend(phased.num_types.map(|n| n as f64));
    }
    for (span, metric) in [
        ("types.compute", "types.compute_ms"),
        ("feasibility.constant", "feasibility.constant_ms"),
        ("feasibility.logstar", "feasibility.logstar_ms"),
    ] {
        let d = tracer.durations_ms(span);
        m.set(format!("{metric}.sum"), d.iter().sum(), "ms");
        m.set(format!("{metric}.p95"), quantile(&d, 0.95), "ms");
    }
    m.set(
        "types.witness_ms.sum",
        tracer.durations_ms("types.witness").iter().sum(),
        "ms",
    );
    m.set(
        "synthesis_ms.sum",
        tracer.durations_ms("synthesis").iter().sum(),
        "ms",
    );
    m.set(
        "types.num_types.mean",
        types.iter().sum::<f64>() / types.len().max(1) as f64,
        "count",
    );
    m.set("feasibility.constant_attempted", attempted as f64, "count");
    m.set("feasibility.constant_found", found as f64, "count");
    m.set(
        "feasibility.constant_found_ratio",
        found as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.set("feasibility.budget_exceeded", budget as f64, "count");
    m.set(
        "pool.queue_wait_ms.p95",
        quantile(&tracer.durations_ms("pool.queue_wait"), 0.95),
        "ms",
    );
    m.set("verdict.phase_mismatches", mismatches.len() as f64, "count");
    mismatches
}

/// Parse, snapshot restore and in-process service handling on the hot set,
/// then the lock-step round trip to the running warm server.
pub fn warm_layers(
    tracer: &Tracer,
    set: &WarmSet,
    warm_addr: SocketAddr,
    m: &mut Metrics,
) -> Result<(), String> {
    let frames: Vec<String> = (0..set.hot).map(|i| set.frame(i as u64 + 1, i)).collect();
    let mut parse_us = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let request = i as u64 + 1;
        let (_, ms) = tracer.time("parse", None, request, |id| {
            let (value, _) =
                tracer.time("parse.json", Some(id), request, |_| JsonValue::parse(frame));
            let value = value.map_err(|e| e.to_string())?;
            let problem = value
                .get("payload")
                .and_then(|p| p.get("problem"))
                .ok_or("frame without a problem")?;
            let (spec, _) = tracer.time("parse.spec", Some(id), request, |_| {
                ProblemSpec::from_json(problem)
            });
            let spec = spec.map_err(|e| e.to_string())?;
            let (normalized, _) =
                tracer.time("parse.normalize", Some(id), request, |_| spec.to_problem());
            normalized.map(|_| ()).map_err(|e| e.to_string())
        });
        parse_us.push(ms * 1e3);
    }
    m.set("parse_us.p50", median(&parse_us), "us");

    let engine = Engine::builder().parallelism(2).build();
    let (report, ms) = tracer.time("snapshot.restore", None, 0, |_| {
        engine.restore_snapshot(&set.snapshot_document)
    });
    let report = report.map_err(|e| format!("restore: {e}"))?;
    m.set("snapshot.restore_ms", ms, "ms");
    m.set("snapshot.entries", report.restored as f64, "count");

    // One pass attaches every hit's reply bytes; the second is measured.
    let service = Service::new(engine);
    for frame in &frames {
        service.handle_line_string(frame);
    }
    let mut handle_us = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let (_, ms) = tracer.time("service.handle", None, i as u64 + 1, |_| {
            service.handle_line_string(frame)
        });
        handle_us.push(ms * 1e3);
    }
    let handle_p50 = median(&handle_us);
    m.set("service.handle_us.p50", handle_p50, "us");
    m.set("service.handle_us.p99", quantile(&handle_us, 0.99), "us");

    let mut conn = Conn::connect(warm_addr)?;
    let mut rtt_us = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let open = tracer.open("rpc.classify_hit", None, i as u64 + 1);
        conn.call(frame)?;
        rtt_us.push(tracer.close(open) * 1e3);
    }
    let rtt_p50 = median(&rtt_us);
    m.set("rtt_us.p50", rtt_p50, "us");
    m.set("transport_us.p50", rtt_p50 - handle_p50, "us");
    Ok(())
}

/// Streams every measured leg in-process through `StreamSolution`, with
/// the server's chunk size, and returns the summed `next_chunk` time per
/// leg in milliseconds.
pub fn stream_layers(tracer: &Tracer, legs: &[Leg], m: &mut Metrics) -> Result<Vec<f64>, String> {
    // `(--max-chunk-bytes - 128) / 8`, as the server sizes chunks.
    const CHUNK_NODES: usize = (crate::stream::CHUNK_BYTES - 128) / 8;
    let engine = Engine::builder().parallelism(1).build();
    let mut chunk_sums = Vec::new();
    for (i, leg) in legs.iter().enumerate() {
        let request = i as u64 + 1;
        let mut sum = 0.0;
        if leg.leg != "known_defect" {
            let mut solution = engine
                .solve_stream(&leg.problem, &leg.instance)
                .map_err(|e| format!("{}: {e}", leg.name))?;
            tracer
                .time("stream.leg", None, request, |id| -> Result<(), String> {
                    loop {
                        let (chunk, ms) =
                            tracer.time("stream.next_chunk", Some(id), request, |_| {
                                solution.next_chunk(CHUNK_NODES)
                            });
                        match chunk {
                            None => return Ok(()),
                            Some(Err(e)) => return Err(format!("{}: {e}", leg.name)),
                            Some(Ok(_)) => sum += ms,
                        }
                    }
                })
                .0?;
            let rounds = format!("stream.rounds.{}", leg.leg);
            let peak = format!("stream.peak_resident_nodes.{}", leg.leg);
            let max = |m: &Metrics, name: &str, v: f64| m.get(name).map_or(v, |old| old.max(v));
            m.set(
                rounds.clone(),
                max(m, &rounds, solution.rounds() as f64),
                "count",
            );
            m.set(
                peak.clone(),
                max(m, &peak, solution.peak_resident_nodes() as f64),
                "count",
            );
        }
        chunk_sums.push(sum);
    }
    m.set(
        "stream.chunk_ms.p50",
        median(&tracer.durations_ms("stream.next_chunk")),
        "ms",
    );
    Ok(chunk_sums)
}
