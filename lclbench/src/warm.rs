//! `warm-serve`: a server restored from a snapshot of a ~2,000-problem hot
//! set answers an open loop of Zipf-distributed `classify` frames, about
//! 2% of them first-seen problems, at rates stepping 1k..32k req/s.

use crate::inputs::{mix, small_distinct, HOT_SET};
use crate::report::{median, quantile, Tally};
use crate::server::Serve;
use lcl_paths::classifier::{Engine, Verdict};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::NormalizedLcl;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The rate ladder, in requests per second.
pub const RUNGS: [u32; 6] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000];
/// How long each rung holds (at least 1,000 replies).
const STEP_S: f64 = 0.5;
/// Share of frames (per mille) that carry a first-seen problem.
const MISS_PER_MILLE: u64 = 20;
/// The latency limit on p99 that `warm_max_rps` asks each rung to meet.
pub const P99_LIMIT_US: f64 = 1_000.0;

/// The prepared inputs: canonical `classify` frame parts, the expected
/// reply payload of each problem, and the snapshot file.
pub struct WarmSet {
    /// `"payload"` text per problem: hot set first, then the miss pool.
    payloads: Vec<String>,
    /// Every problem, in the same order.
    problems: Vec<NormalizedLcl>,
    /// Expected `payload` of each problem's reply.
    expected: Vec<String>,
    /// Size of the hot set (the first problems).
    pub hot: usize,
    pub snapshot: PathBuf,
    pub snapshot_document: String,
}

impl WarmSet {
    /// A canonical frame, exactly as `RequestEnvelope::to_json_string`
    /// renders it (the shape the server's raw-text lane accepts).
    pub fn frame(&self, id: u64, problem: usize) -> String {
        format!(
            "{{\"id\":{id},\"kind\":\"classify\",\"payload\":{},\"v\":1}}",
            self.payloads[problem]
        )
    }

    /// Checks a reply: byte-identical to the fresh computation's, or (for
    /// a first-seen unsolvable problem, whose witness search differs
    /// between processes) the same verdict with a witness brute force
    /// confirms.
    fn check_reply(&self, reply: &str, id: u64, problem: usize) -> Result<(), String> {
        let expected = format!(
            "{{\"id\":{id},\"kind\":\"classify\",\"ok\":true,\"payload\":{}}}",
            self.expected[problem]
        );
        if reply == expected {
            return Ok(());
        }
        let value = JsonValue::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
        if value.get("id").and_then(|v| v.as_int().ok()) != Some(id as i64) {
            return Err("reply id does not echo the request".into());
        }
        let verdict = value
            .get("payload")
            .and_then(|p| p.get("verdict"))
            .ok_or("error reply")?
            .to_json_string();
        let reference = JsonValue::parse(&self.expected[problem])
            .ok()
            .and_then(|p| p.get("verdict").map(JsonValue::to_json_string))
            .unwrap_or_default();
        crate::oracle::same_verdict(&self.problems[problem], &verdict, &reference)
    }
}

/// Builds the hot set and miss pool, classifies both in-process (the
/// reference replies: a served reply must be byte-identical to a freshly
/// computed one), and writes the hot set's snapshot into `run_dir`.
pub fn prepare(seed: u64, run_dir: &Path) -> Result<WarmSet, String> {
    let mut taken = HashSet::new();
    let hot_problems = small_distinct(seed, 0x4075e7, HOT_SET, &mut taken);
    let total: usize = RUNGS.iter().map(|&r| frames_at(r)).sum();
    let misses = small_distinct(
        seed,
        0x3155,
        total * 2 * MISS_PER_MILLE as usize / 1000 + 64,
        &mut taken,
    );
    let engine = Engine::builder().parallelism(2).build();
    let mut expected = Vec::new();
    let render = |problems: &[NormalizedLcl], expected: &mut Vec<String>| -> Result<(), String> {
        for (problem, result) in problems.iter().zip(engine.classify_many(problems)) {
            let classification = result.map_err(|e| format!("reference classify: {e}"))?;
            let payload =
                JsonValue::object([("verdict", Verdict::new(problem, &classification).to_json())]);
            expected.push(payload.to_json_string());
        }
        Ok(())
    };
    render(&hot_problems, &mut expected)?;
    let snapshot_document = engine.snapshot_document();
    render(&misses, &mut expected)?;
    let snapshot = run_dir.join("warm.snapshot");
    std::fs::write(&snapshot, &snapshot_document).map_err(|e| format!("write snapshot: {e}"))?;
    let problems: Vec<NormalizedLcl> = hot_problems.iter().chain(&misses).cloned().collect();
    let payloads = problems
        .iter()
        .map(|p| JsonValue::object([("problem", p.to_spec().to_json())]).to_json_string())
        .collect();
    Ok(WarmSet {
        payloads,
        problems,
        expected,
        hot: hot_problems.len(),
        snapshot,
        snapshot_document,
    })
}

fn frames_at(rate: u32) -> usize {
    ((f64::from(rate) * STEP_S) as usize).max(1_000)
}

/// The problem index of every frame of every rung: Zipf (s = 1) over a
/// seeded ranking of the hot set, and about 2% misses, each a problem the
/// server has not seen in this pass.
pub fn schedule(seed: u64, set: &WarmSet) -> Vec<Vec<usize>> {
    let rank_of: Vec<usize> = {
        let mut keyed: Vec<(u64, usize)> = (0..set.hot)
            .map(|i| (mix(seed ^ 0x21bf, i as u64), i))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    };
    let mut cdf = Vec::with_capacity(set.hot);
    let mut total = 0.0;
    for k in 0..set.hot {
        total += 1.0 / (k + 1) as f64;
        cdf.push(total);
    }
    let mut next_miss = set.hot;
    let mut draw = 0u64;
    RUNGS
        .iter()
        .map(|&rate| {
            (0..frames_at(rate))
                .map(|_| {
                    draw += 1;
                    let r = mix(seed ^ 0x21f, draw);
                    if r % 1000 < MISS_PER_MILLE && next_miss < set.payloads.len() {
                        next_miss += 1;
                        return next_miss - 1;
                    }
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64 * total;
                    rank_of[cdf.partition_point(|&c| c < u).min(set.hot - 1)]
                })
                .collect()
        })
        .collect()
}

/// One rung's measurements.
pub struct Rung {
    pub rate: u32,
    pub latency_us: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// Frames due minus replies received, at the middle and at the end of
    /// the step.
    pub backlog_mid: i64,
    pub backlog_end: i64,
    pub failed: u64,
}

/// What one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub rungs: Vec<Rung>,
    pub peak_rss_bytes: u64,
    pub stats: JsonValue,
    pub tally: Tally,
}

/// A rung's figures over every pass of a run.
pub struct Pooled {
    pub rate: u32,
    /// The lower quartile of the window p50s.
    pub p50_us: f64,
    /// The median window p99.
    pub p99_us: f64,
    pub meets_limit: bool,
}

/// Frames per latency window (10 samples beyond a window's p99). The host
/// freezes this VM for 10-30 ms at times (the sender then runs up to
/// 16 ms late), and a freeze at 8k req/s can leave half a step's frames
/// queued behind it. Windows keep a freeze to the windows it hits: p50 is
/// the lower quartile of the window p50s (the server's latency while the
/// host lets it run), p99 the median window p99.
const WINDOW: usize = 1_000;

/// Pools each rung's windows over `passes`. A rung meets the limit when
/// its p99 is within [`P99_LIMIT_US`], no frame failed, and the backlog
/// did not grow: in the median pass it rose from the middle to the end of
/// the step by no more than the frames that arrive within one latency
/// limit (the backlog also counts replies merely in flight).
pub fn pool(passes: &[Pass]) -> Vec<Pooled> {
    RUNGS
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let rungs: Vec<&Rung> = passes.iter().map(|p| &p.rungs[i]).collect();
            let windows = || rungs.iter().flat_map(|r| r.latency_us.chunks_exact(WINDOW));
            let window_p50: Vec<f64> = windows().map(median).collect();
            let window_p99: Vec<f64> = windows().map(|w| quantile(w, 0.99)).collect();
            let growth: Vec<f64> = rungs
                .iter()
                .map(|r| (r.backlog_end - r.backlog_mid) as f64)
                .collect();
            let slack = (f64::from(rate) * P99_LIMIT_US / 1e6).ceil();
            let p99_us = median(&window_p99);
            Pooled {
                rate,
                p50_us: quantile(&window_p50, 0.25),
                p99_us,
                meets_limit: p99_us <= P99_LIMIT_US
                    && rungs.iter().all(|r| r.failed == 0)
                    && median(&growth) <= slack,
            }
        })
        .collect()
}

/// Runs the ladder once on a server restored from the snapshot. The
/// server is handed back still running, for the traced run's probes.
pub fn pass(bin: &Path, set: &WarmSet, schedule: &[Vec<usize>]) -> Result<(Pass, Serve), String> {
    let snapshot = set.snapshot.to_string_lossy().into_owned();
    let serve = Serve::start(bin, &["--cache-snapshot", &snapshot])?;
    let mut rungs = Vec::new();
    let mut tally = Tally::default();
    let mut next_id = 1u64;
    for (&rate, problems) in RUNGS.iter().zip(schedule) {
        let ids: Vec<u64> = (next_id..next_id + problems.len() as u64).collect();
        next_id += problems.len() as u64;
        let frames: Vec<String> = ids
            .iter()
            .zip(problems)
            .map(|(&id, &p)| set.frame(id, p))
            .collect();
        let (mut rung, replies) = open_loop(serve.addr, &frames, rate)?;
        for ((reply, &id), &p) in replies.iter().zip(&ids).zip(problems) {
            let outcome = set.check_reply(reply, id, p);
            rung.failed += u64::from(outcome.is_err());
            tally.record(&format!("warm-r{rate}"), &outcome);
        }
        eprintln!(
            "[warm] r{rate}: p50 {:.0} us, p99 {:.0} us, max {:.0} us, generator lag p50 {:.3} ms p99 {:.3} ms, backlog mid {} end {}, failed {}",
            median(&rung.latency_us),
            quantile(&rung.latency_us, 0.99),
            quantile(&rung.latency_us, 1.0),
            median(&rung.lag_ms),
            quantile(&rung.lag_ms, 0.99),
            rung.backlog_mid,
            rung.backlog_end,
            rung.failed
        );
        rungs.push(rung);
        // Let the server drain before the next rate.
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = serve.stats()?;
    Ok((
        Pass {
            setup_s: serve.setup_s,
            rungs,
            peak_rss_bytes: serve.peak_rss_bytes(),
            stats,
            tally,
        },
        serve,
    ))
}

/// Lowers this thread's timer slack to 1 ns. With the default 50 us slack,
/// every paced send wakes ~60 us late, and that lateness would count in
/// every latency timed from the schedule.
fn precise_sleep() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument, touches
    // no memory of this process and only changes the calling thread's
    // timer slack; a failure just leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Sends `frames` on one connection at `rate` per second from a sender
/// thread while a receiver thread reads the replies. Latency is timed from
/// each frame's scheduled send time, so a stall also counts against the
/// frames queued behind it.
fn open_loop(
    addr: SocketAddr,
    frames: &[String],
    rate: u32,
) -> Result<(Rung, Vec<String>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = BufReader::with_capacity(1 << 16, stream);
    let gap = Duration::from_secs_f64(1.0 / f64::from(rate));
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| t0 + gap * k as u32;
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
            precise_sleep();
            let mut sent = Vec::with_capacity(frames.len());
            let mut bytes = Vec::new();
            while sent.len() < frames.len() {
                let now = Instant::now();
                let k0 = sent.len();
                if due(k0) > now {
                    std::thread::sleep(due(k0) - now);
                    continue;
                }
                // Everything already due goes out in one write.
                bytes.clear();
                let mut k = k0;
                while k < frames.len() && due(k) <= now {
                    bytes.extend_from_slice(frames[k].as_bytes());
                    bytes.push(b'\n');
                    k += 1;
                }
                writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
                let at = Instant::now();
                sent.extend(std::iter::repeat_n(at, k - k0));
            }
            Ok(sent)
        });
        let receiver = s.spawn(move || -> Result<Vec<(Instant, String)>, String> {
            let mut reader = reader;
            let mut out = Vec::with_capacity(frames.len());
            for _ in 0..frames.len() {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => return Err("connection closed mid-rung".to_string()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("recv: {e}")),
                }
                let at = Instant::now();
                line.truncate(line.trim_end().len());
                out.push((at, line));
            }
            Ok(out)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (sent, received) = (sent?, received?);
    let latency_us = received
        .iter()
        .enumerate()
        .map(|(k, (at, _))| at.saturating_duration_since(due(k)).as_secs_f64() * 1e6)
        .collect();
    let lag_ms = sent
        .iter()
        .enumerate()
        .map(|(k, at)| at.saturating_duration_since(due(k)).as_secs_f64() * 1e3)
        .collect();
    let backlog = |t: Instant| {
        let due_by = (0..frames.len()).filter(|&k| due(k) <= t).count() as i64;
        let got_by = received.iter().filter(|(at, _)| *at <= t).count() as i64;
        due_by - got_by
    };
    let n = frames.len();
    let rung = Rung {
        rate,
        latency_us,
        lag_ms,
        backlog_mid: backlog(due(n / 2)),
        backlog_end: backlog(due(n - 1)),
        failed: 0,
    };
    Ok((rung, received.into_iter().map(|(_, line)| line).collect()))
}
