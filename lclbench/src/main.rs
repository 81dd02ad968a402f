//! lclbench: the repository's benchmark. Measures three phases (cold
//! verdicts, warm serving, streamed labelings) against the release
//! `lcl-serve` binary over loopback TCP, checks every verdict and labeling
//! with an oracle that does not trust the classifier, and prints one JSON
//! result line. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path lclbench/Cargo.toml -- \
//!     --workload cold-classify --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every run runs all three phases, so every end-to-end metric is
//! reported on every workload. The workload (`cold-classify` or
//! `warm-serve`) names the primary phase: its servers give `setup_s` and
//! `peak_rss_mb`, and the traced run measures its tracing overhead. Every
//! timing moves with the host from one minute to the next, beyond any
//! bound, so the timings are traced-run figures (see README.md).

mod cold;
mod inputs;
mod layers;
mod oracle;
mod report;
mod server;
mod stream;
mod trace;
mod warm;

use report::{median, Metrics, Tally};
use server::{int_at, Serve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

/// Seconds one round of the untraced run takes: a cold pass (2.5-4 s), a
/// warm pass (3.7 s) and the bare start-ups. A run of `--seconds` makes
/// `seconds / ROUND_SECONDS` rounds (at least two) after one stream pass:
/// the operation counts depend on `--seconds` alone, never on timing.
const ROUND_SECONDS: u64 = 8;

/// Bare start-ups of the primary phase's server after each round, so
/// `setup_s` is a median over many.
const SETUPS_PER_ROUND: usize = 16;

const PHASES: [Phase; 3] = [Phase::Cold, Phase::Warm, Phase::Stream];

/// The phases every run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Cold,
    Warm,
    Stream,
}

/// A workload names the primary phase of a run. The stream phase runs in
/// every run but is no workload of its own (see README.md).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Cold,
    Warm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-classify" => Some(Workload::Cold),
            "warm-serve" => Some(Workload::Warm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-classify",
            Workload::Warm => "warm-serve",
        }
    }

    fn phase(self) -> Phase {
        match self {
            Workload::Cold => Phase::Cold,
            Workload::Warm => Phase::Warm,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(value("--workload")?)
            .ok_or("--workload is one of cold-classify, warm-serve")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? == 1,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("lclbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one run measured, by phase.
#[derive(Default)]
struct Measured {
    cold: Vec<cold::Pass>,
    warm: Vec<warm::Pass>,
    stream: Vec<stream::Pass>,
    tally: Tally,
    /// Extra bare start-ups of the primary phase's server.
    setups: Vec<f64>,
}

/// Inputs, made once per run from the seed.
struct Inputs {
    bin: PathBuf,
    seed: u64,
    cold_problems: Vec<inputs::Problem>,
    cold_frames: Vec<String>,
    warm: warm::WarmSet,
    warm_schedule: Vec<Vec<usize>>,
    legs: Vec<inputs::Leg>,
}

/// Oracle state of the cold phase: the first pass's replies and their
/// checked outcomes; later passes are compared with them.
#[derive(Default)]
struct ColdOracle {
    reference: Vec<cold::Served>,
    outcomes: Vec<Result<(), String>>,
}

fn run(args: Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // <target>/release/lclbench: lcl-serve is built into the same <target>.
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .to_path_buf();
    let bin = server::build_lcl_serve(&target_dir)?;
    let run_dir = target_dir.join("lclbench-run");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;

    let cold_problems = inputs::cold_problems(args.seed);
    let warm = warm::prepare(args.seed, &run_dir)?;
    let inputs = Inputs {
        cold_frames: cold::frames(&cold_problems),
        cold_problems,
        warm_schedule: warm::schedule(args.seed, &warm),
        warm,
        legs: inputs::stream_legs(args.seed),
        bin,
        seed: args.seed,
    };
    let mut oracle = ColdOracle::default();
    let mut measured = Measured::default();
    let mut metrics = Metrics::default();

    let tracer = Arc::new(Tracer::default());
    if args.trace {
        traced_run(
            &args,
            &inputs,
            &tracer,
            &mut oracle,
            &mut measured,
            &mut metrics,
            &run_dir,
        )?;
    } else {
        // The stream phase gives no end-to-end figure: one pass checks
        // every streamed labeling and counts the known-defect legs.
        run_pass(Phase::Stream, &inputs, None, &mut oracle, &mut measured)?;
        // Rounds interleave the cold and warm phases, so a burst of noise
        // from outside the benchmark does not land on one phase only.
        for round in 0..(args.seconds / ROUND_SECONDS).max(2) {
            for phase in [Phase::Cold, Phase::Warm] {
                let started = std::time::Instant::now();
                run_pass(phase, &inputs, None, &mut oracle, &mut measured)?;
                eprintln!(
                    "[{phase:?}] pass {round} took {:.1} s",
                    started.elapsed().as_secs_f64()
                );
            }
            measured.setups.extend(bare_setups(args.workload, &inputs)?);
        }
        end_to_end(&args, &measured, &mut metrics);
    }
    report_counters(&measured);
    measured.tally.log(args.workload.name());
    let correct = measured.tally.unexpected == 0;
    Ok(metrics.result_line(correct, &measured.tally))
}

/// Runs one pass of `phase`, counts its operations and keeps its numbers;
/// returns the pass's server, still running, to the traced run.
fn run_pass(
    phase: Phase,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    oracle: &mut ColdOracle,
    measured: &mut Measured,
) -> Result<Serve, String> {
    Ok(match phase {
        Phase::Cold => {
            let (pass, serve) = cold::pass(&inputs.bin, &inputs.cold_frames, tracer)?;
            if oracle.outcomes.is_empty() {
                oracle.outcomes =
                    cold::check(&serve, &inputs.cold_problems, &pass.served, inputs.seed)?;
                oracle.reference = pass.served.clone();
                if tracer.is_some() {
                    measured.tally.merge(cold::deep_checks(
                        &serve,
                        &inputs.cold_problems,
                        &pass.served,
                        inputs.seed,
                    )?);
                }
            }
            measured.tally.merge(cold::tally(
                &inputs.cold_problems,
                &oracle.reference,
                &oracle.outcomes,
                &pass,
            ));
            measured.cold.push(pass);
            serve
        }
        Phase::Warm => {
            let (mut pass, serve) = warm::pass(&inputs.bin, &inputs.warm, &inputs.warm_schedule)?;
            measured.tally.merge(std::mem::take(&mut pass.tally));
            measured.warm.push(pass);
            serve
        }
        Phase::Stream => {
            let (mut pass, serve) = stream::pass(&inputs.bin, &inputs.legs, tracer)?;
            measured.tally.merge(std::mem::take(&mut pass.tally));
            measured.stream.push(pass);
            serve
        }
    })
}

/// Bare start-ups of the primary phase's server: spawn to first `health`
/// reply, then stop.
fn bare_setups(workload: Workload, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let snapshot = inputs.warm.snapshot.to_string_lossy().into_owned();
    let flags: Vec<&str> = match workload {
        Workload::Warm => vec!["--cache-snapshot", &snapshot],
        Workload::Cold => Vec::new(),
    };
    (0..SETUPS_PER_ROUND)
        .map(|_| Serve::start(&inputs.bin, &flags).map(|serve| serve.setup_s))
        .collect()
}

/// The end-to-end metrics: `setup_s` and `peak_rss_mb` are medians.
fn end_to_end(args: &Args, measured: &Measured, m: &mut Metrics) {
    let (setups, rss): (Vec<f64>, Vec<u64>) = match args.workload {
        Workload::Cold => measured
            .cold
            .iter()
            .map(|p| (p.setup_s, p.peak_rss_bytes))
            .unzip(),
        Workload::Warm => measured
            .warm
            .iter()
            .map(|p| (p.setup_s, p.peak_rss_bytes))
            .unzip(),
    };
    let setups: Vec<f64> = setups
        .into_iter()
        .chain(measured.setups.iter().copied())
        .collect();
    m.set("setup_s", median(&setups), "s");
    let rss_mb: Vec<f64> = rss.iter().map(|&b| b as f64 / 1e6).collect();
    m.set("peak_rss_mb", median(&rss_mb), "MB");
    let tally = &measured.tally;
    m.set(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
}

/// Prints the server's own counters after each phase, every ratio with
/// its numerator and denominator.
fn report_counters(measured: &Measured) {
    let last = |phase: &str, stats: Option<&lcl_paths::problem::json::JsonValue>| {
        let Some(stats) = stats else { return };
        let hits = int_at(stats, &["cache", "hits"]);
        let misses = int_at(stats, &["cache", "misses"]);
        let classify = int_at(stats, &["server", "kinds", "classify", "count"]);
        let spliced = int_at(stats, &["server", "spliced_frames"]);
        eprintln!(
            "[{phase}] cache hits {hits} / lookups {} ; misses {misses} ; flight joins {} ; evictions {} ; \
             entries {} ; spliced {spliced} / classify frames {classify} ; shed {} ; pool jobs {} ; queue depth {}",
            hits + misses,
            int_at(stats, &["cache", "flight_joins"]),
            int_at(stats, &["cache", "evictions"]),
            int_at(stats, &["cache", "entries"]),
            shed_total(stats),
            int_at(stats, &["pool", "jobs_completed"]),
            int_at(stats, &["pool", "queue_depth"]),
        );
    };
    last("cold-classify", measured.cold.last().map(|p| &p.stats));
    last("warm-serve", measured.warm.last().map(|p| &p.stats));
    last("stream", measured.stream.last().map(|p| &p.stats));
}

/// Frames shed by admission control, summed over request kinds.
fn shed_total(stats: &lcl_paths::problem::json::JsonValue) -> i64 {
    [
        "classify",
        "classify_many",
        "solve",
        "solve_stream",
        "generate",
    ]
    .iter()
    .map(|kind| int_at(stats, &["server", "kinds", kind, "shed"]))
    .sum()
}

/// The traced run: one traced pass of each phase, an untraced twin of the
/// primary phase's pass (their difference is the tracing overhead), then
/// the in-process layer probes.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
    oracle: &mut ColdOracle,
    measured: &mut Measured,
    m: &mut Metrics,
    run_dir: &Path,
) -> Result<(), String> {
    // Traced passes first: the first cold pass runs the oracle, and in a
    // traced run that includes the deep checks.
    let mut servers = Vec::new();
    for phase in PHASES {
        servers.push(run_pass(phase, inputs, Some(tracer), oracle, measured)?);
    }
    let traced = primary_figure(args.workload, measured);
    // The untraced twin of the primary pass; its operations are counted
    // like any other.
    drop(run_pass(
        args.workload.phase(),
        inputs,
        None,
        oracle,
        measured,
    )?);
    let untraced = primary_figure(args.workload, measured);
    m.set("trace.overhead_ratio", traced / untraced - 1.0, "ratio");

    // The warm figures ride on the host's wake-up stalls: the vCPUs idle
    // between frames, and waking one takes up to milliseconds, or longer
    // for whole runs while the host is busy (the 8k rung's p50 read
    // 109-435 us in three of ten runs, against 37-46 us in the rest).
    // Across seeds they spread 0.3-1.9 times their median, beyond any
    // bound, so they are reported here, unbounded.
    m.set("warm_max_rps", 0.0, "1/s");
    for rung in warm::pool(&measured.warm) {
        if rung.rate == 2_000 || rung.rate == 8_000 {
            m.set(format!("warm_p50_us.r{}", rung.rate), rung.p50_us, "us");
        }
        if rung.rate == 2_000 || rung.rate == 8_000 {
            m.set(format!("warm_p99_us.r{}", rung.rate), rung.p99_us, "us");
        }
        if rung.meets_limit {
            m.set("warm_max_rps", f64::from(rung.rate), "1/s");
        }
    }
    // The cold and stream timings: the server's work there is
    // memory-bound, and the host's memory contention moves it by up to 2x
    // between minutes (the same leg took 0.72 s and 1.33 s a minute
    // apart), so across ten seeds each of these spread 0.24-0.34 of its
    // median, as wide as any bound. They are reported here, unbounded.
    let cold = cold::best_latencies_ms(&measured.cold);
    m.set("cold_verdict_ms_p50", median(&cold), "ms");
    m.set("cold_verdict_ms_p95", report::quantile(&cold, 0.95), "ms");
    let rates = measured.cold.iter().map(cold::Pass::verdicts_per_s);
    m.set("cold_verdicts_per_s", rates.fold(0.0, f64::max), "1/s");
    let stream_pass = measured.stream.last().expect("a stream pass ran");
    for kind in ["logstar", "constant_irregular", "constant_periodic"] {
        m.set(
            format!("stream_us_per_node.{kind}"),
            stream::us_per_node(stream_pass, &inputs.legs, kind),
            "us",
        );
    }

    // The open loop gets no per-frame spans (they would perturb the
    // sender's schedule); its per-frame latencies are measured anyway.
    let warm_pass = measured.warm.last().expect("a warm pass ran");
    for rung in &warm_pass.rungs {
        m.set(
            format!("generator.lag_ms.p99.r{}", rung.rate),
            report::quantile(&rung.lag_ms, 0.99),
            "ms",
        );
    }
    let lag: Vec<f64> = warm_pass
        .rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    m.set("generator.lag_ms.p99", report::quantile(&lag, 0.99), "ms");

    // Cold: phase by phase in-process, verdicts against the served ones.
    let cold_pass = measured.cold.last().expect("a cold pass ran");
    let served: Vec<Option<String>> = cold_pass
        .served
        .iter()
        .map(|s| {
            s.as_ref().ok().and_then(|v| {
                lcl_paths::classifier::Verdict::from_json_str(v)
                    .ok()
                    .map(|v| v.complexity.wire_name().to_string())
            })
        })
        .collect();
    for group in layers::cold_phases(tracer, &inputs.cold_problems, &served, m) {
        measured
            .tally
            .fail(&group, "phase-by-phase verdict differs from the served one");
    }
    // The server weighs entries only under --cache-weight-bytes, so the
    // weight comes from the in-process pass above; the RSS growth of the
    // cold server over its verdicts retained is the real price.
    let entries = int_at(&cold_pass.stats, &["cache", "entries"]).max(1) as f64;
    let rss = cold_pass.rss_growth_bytes as f64 / entries;
    let weight = m.get("cache.weight_bytes_per_entry").unwrap_or(0.0);
    m.set("cache.cold_entries", entries, "count");
    m.set(
        "cache.cold_rss_growth_bytes",
        cold_pass.rss_growth_bytes as f64,
        "B",
    );
    m.set("cache.rss_bytes_per_entry", rss, "B");
    m.set("cache.weight_to_rss_ratio", rss / weight.max(1.0), "ratio");

    layers::warm_layers(tracer, &inputs.warm, servers[1].addr, m)?;

    let chunk_sums = layers::stream_layers(tracer, &inputs.legs, m)?;
    let (wall, chunks): (f64, f64) = inputs
        .legs
        .iter()
        .enumerate()
        .zip(&chunk_sums)
        .filter(|((_, leg), _)| leg.leg == "constant_periodic")
        .fold((0.0, 0.0), |(w, c), ((i, _), &sum)| {
            (w + stream_pass.wall_s[i] * 1e3, c + sum)
        });
    m.set("stream.client_wall_ms.constant_periodic", wall, "ms");
    m.set("stream.next_chunk_ms.constant_periodic", chunks, "ms");
    m.set(
        "stream.transport_share",
        (wall - chunks) / wall.max(1e-9),
        "ratio",
    );
    drop(servers);

    // Counters of the primary phase's last pass, each with its base.
    let stats = match args.workload {
        Workload::Cold => &measured.cold.last().expect("cold pass").stats,
        Workload::Warm => &measured.warm.last().expect("warm pass").stats,
    };
    let hits = int_at(stats, &["cache", "hits"]) as f64;
    let lookups = hits + int_at(stats, &["cache", "misses"]) as f64;
    m.set("cache.hits", hits, "count");
    m.set("cache.lookups", lookups, "count");
    m.set("cache.hit_ratio", hits / lookups.max(1.0), "ratio");
    m.set(
        "cache.misses",
        int_at(stats, &["cache", "misses"]) as f64,
        "count",
    );
    m.set(
        "cache.flight_joins",
        int_at(stats, &["cache", "flight_joins"]) as f64,
        "count",
    );
    m.set(
        "cache.evictions",
        int_at(stats, &["cache", "evictions"]) as f64,
        "count",
    );
    let spliced = int_at(stats, &["server", "spliced_frames"]) as f64;
    let classify = int_at(stats, &["server", "kinds", "classify", "count"]) as f64;
    m.set("splice.spliced_frames", spliced, "count");
    m.set("splice.classify_frames", classify, "count");
    m.set("splice.lane_ratio", spliced / classify.max(1.0), "ratio");
    m.set("admission.shed", shed_total(stats) as f64, "count");
    m.set(
        "pool.jobs_completed",
        int_at(stats, &["pool", "jobs_completed"]) as f64,
        "count",
    );
    m.set(
        "pool.queue_depth",
        int_at(stats, &["pool", "queue_depth"]) as f64,
        "count",
    );

    for (name, ms) in tracer.self_ms_by_name() {
        m.set(format!("self_ms.{name}"), ms, "ms");
    }
    m.set("trace.spans", tracer.spans().len() as f64, "count");
    let path = run_dir.join(format!(
        "spans-{}-s{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "[trace] {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// The end-to-end figure of the last primary pass that the tracing
/// overhead compares: cold pass wall, or warm p50 at 8k req/s.
fn primary_figure(workload: Workload, measured: &Measured) -> f64 {
    match workload {
        Workload::Cold => measured.cold.last().map_or(f64::NAN, |p| p.wall_s),
        Workload::Warm => measured.warm.last().map_or(f64::NAN, |p| {
            p.rungs
                .iter()
                .find(|r| r.rate == 8_000)
                .map_or(f64::NAN, |r| median(&r.latency_us))
        }),
    }
}
