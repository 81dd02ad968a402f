//! The metrics views: one table of every exported value, and the two
//! renderers that walk it — the `stats` reply payload ([`render_stats`])
//! and the plaintext scrape document ([`render_exposition`]).
//!
//! Each table entry names a value once: its path in the `stats` JSON (e.g.
//! `cache.hits`), its exposition family (name, type, HELP text), and how to
//! read it from one snapshot of the service's [`ServerMetrics`] and the
//! engine's cache, per-shard cache and worker-pool stats. Either name may
//! be absent, since some values appear in only one view: the cache and pool
//! summaries, the hit ratio and the latency quantiles are `stats`-only;
//! histograms, per-shard families and `build_info` are exposition-only.
//! Per-kind entries render once per request kind (`kind="…"` labels, and
//! `server.kinds.<kind>` in `stats`), per-shard entries once per cache
//! shard (`shard="N"`).
//!
//! The exposition is the Prometheus text format (version 0.0.4): `# HELP` /
//! `# TYPE` headers per family, one `name{labels} value` sample per line,
//! histograms as cumulative `le` buckets plus `_sum` / `_count`. The same
//! document is served by the `metrics` request kind (inside a JSON reply)
//! and by the `--metrics-addr` HTTP listener ([`crate::scrape`]).
//!
//! The document is a *pure function of the counter state*: same counters,
//! same bytes, whichever front-end produced them. Only `lcl_uptime_seconds`
//! (wall clock) and the `backend` label of `lcl_build_info` depend on
//! anything other than the counters. Families render in table order and
//! every label value the renderer emits is `[a-zA-Z0-9_.-]+`, so no label
//! escaping is ever needed. The `stats` payload is a JSON object with
//! canonically sorted keys, so inserting each value at its path yields the
//! same bytes whatever the table order.
//!
//! [`validate_exposition`] is the matching line-by-line checker used by the
//! integration tests and the `--smoke` harness: it fails on any sample
//! without a preceding `# TYPE`, duplicated families or samples,
//! non-monotone histogram buckets, or a histogram whose `+Inf` bucket
//! disagrees with its `_count`.
//!
//! [`ServerMetrics`]: crate::ServerMetrics

use crate::metrics::{Counter, KindStats, COUNTERS};
use crate::service::{RequestKind, Service};
use lcl_paths::classifier::obs::HistogramSnapshot;
use lcl_paths::classifier::{CacheStats, PoolStats, ShardStats};
use lcl_paths::problem::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::time::Duration;
use Read::{Identity, PerKind, PerShard, Scalar};
use Value::{Histogram, Int, Text};

/// Every metric family shares this prefix.
const PREFIX: &str = "lcl";

/// One exported value, or one per label for per-kind and per-shard rows.
struct Entry {
    /// Where the value sits in the `stats` payload; per-kind paths continue
    /// under `server.kinds.<kind>`. Empty: exposition only.
    path: &'static [&'static str],
    /// The exposition family: name after the `lcl_` prefix, and type.
    /// `None`: `stats` only.
    family: Option<(&'static str, &'static str)>,
    /// The family's HELP text.
    help: &'static str,
    read: Read,
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";
const HISTOGRAM: &str = "histogram";

/// A `stats`-only entry.
const fn stat(path: &'static [&'static str], read: Read) -> Entry {
    Entry {
        path,
        family: None,
        help: "",
        read,
    }
}

/// Reads one value out of a `T`.
type Reader<T> = fn(&T) -> Value<'_>;

/// How an entry reads its value from a [`Snap`].
enum Read {
    /// The [`IDENTITY`] fields: `stats` keys under the entry's path, and the
    /// labels of the family's one sample (value 1).
    Identity,
    /// One value.
    Scalar(Reader<Snap>),
    /// One value per request kind, `invalid` last.
    PerKind(Reader<KindView>),
    /// One value per cache shard.
    PerShard(Reader<ShardStats>),
}

/// One rendered value.
enum Value<'a> {
    Int(u64),
    Text(String),
    /// Exposition only: cumulative buckets, `_sum` and `_count`.
    Histogram(&'a HistogramSnapshot),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int(value) => write!(f, "{value}"),
            Text(text) => f.write_str(text),
            Histogram(_) => unreachable!("a histogram renders as several samples"),
        }
    }
}

impl Value<'_> {
    fn to_json(&self) -> JsonValue {
        match self {
            Int(value) => JsonValue::Int(i64::try_from(*value).unwrap_or(i64::MAX)),
            Text(text) => JsonValue::Str(text.clone()),
            Histogram(_) => unreachable!("histograms are exposition-only"),
        }
    }
}

/// The server identity and configuration, in label order: `server.<key>`
/// in `stats`, the labels of `lcl_build_info` in the exposition.
const IDENTITY: [(&str, Reader<Snap>); 4] = [
    ("backend", |s| Text(s.backend.to_string())),
    ("cache_shards", |s| Int(s.cache_shards as u64)),
    ("version", |_| Text(env!("CARGO_PKG_VERSION").to_string())),
    ("workers", |s| Int(s.workers as u64)),
];

/// Every exported value, in exposition order.
const TABLE: &[Entry] = &[
    Entry {
        path: &["server"],
        family: Some(("build_info", GAUGE)),
        help: "Constant 1; the labels carry the server identity and configuration.",
        read: Identity,
    },
    Entry {
        path: &["server", "uptime_seconds"],
        family: Some(("uptime_seconds", GAUGE)),
        help: "Wall-clock seconds since the service was constructed.",
        read: Scalar(|s| Int(s.uptime.as_secs())),
    },
    stat(
        &["uptime_ms"],
        Scalar(|s| Int(u64::try_from(s.uptime.as_millis()).unwrap_or(u64::MAX))),
    ),
    stat(
        &["server", "requests_served"],
        Scalar(|s| Int(s.kinds.iter().map(|k| k.stats.count).sum())),
    ),
    Entry {
        path: &["count"],
        family: Some(("requests_total", COUNTER)),
        help: "Frames handled, by request kind (invalid = never resolved to one).",
        read: PerKind(|k| Int(k.stats.count)),
    },
    Entry {
        path: &["errors"],
        family: Some(("request_errors_total", COUNTER)),
        help: "Frames answered with an error reply, by request kind.",
        read: PerKind(|k| Int(k.stats.errors)),
    },
    Entry {
        path: &["shed"],
        family: Some(("shed_total", COUNTER)),
        help: "Frames rejected at admission (load shed or quota), by request kind; \
               every shed frame is also counted in requests_total and \
               request_errors_total.",
        read: PerKind(|k| Int(k.stats.shed)),
    },
    Entry {
        path: &[],
        family: Some(("request_latency_micros", HISTOGRAM)),
        help: "End-to-end request handling latency in microseconds, by kind \
               (empty while detailed metrics are off).",
        read: PerKind(|k| Histogram(&k.latency)),
    },
    stat(&["total_micros"], PerKind(|k| Int(k.stats.total_micros))),
    stat(&["max_micros"], PerKind(|k| Int(k.stats.max_micros))),
    stat(&["mean_micros"], PerKind(|k| Int(k.stats.mean_micros()))),
    stat(&["p50_micros"], PerKind(|k| Int(k.latency.quantile(0.50)))),
    stat(&["p90_micros"], PerKind(|k| Int(k.latency.quantile(0.90)))),
    stat(&["p99_micros"], PerKind(|k| Int(k.latency.quantile(0.99)))),
    stat(
        &["p999_micros"],
        PerKind(|k| Int(k.latency.quantile(0.999))),
    ),
    Entry {
        path: &[],
        family: Some(("stream_first_chunk_micros", HISTOGRAM)),
        help: "solve_stream time-to-first-chunk in microseconds (the kind \
               histogram has the full drain).",
        read: Scalar(|s| Histogram(&s.first_chunk)),
    },
    stat(
        &["server", "stream_first_chunk", "count"],
        Scalar(|s| Int(s.first_chunk.count)),
    ),
    stat(
        &["server", "stream_first_chunk", "mean_micros"],
        Scalar(|s| Int(s.first_chunk.mean())),
    ),
    stat(
        &["server", "stream_first_chunk", "max_micros"],
        Scalar(|s| Int(s.first_chunk.max)),
    ),
    stat(
        &["server", "stream_first_chunk", "p50_micros"],
        Scalar(|s| Int(s.first_chunk.quantile(0.50))),
    ),
    stat(
        &["server", "stream_first_chunk", "p99_micros"],
        Scalar(|s| Int(s.first_chunk.quantile(0.99))),
    ),
    Entry {
        path: &["server", "pipeline", "inflight"],
        family: Some(("pipeline_inflight", GAUGE)),
        help: "Pipelined requests dispatched and not yet answered.",
        read: Scalar(|s| Int(s.counters[Counter::PipelineInflight as usize])),
    },
    Entry {
        path: &["server", "pipeline", "peak_inflight"],
        family: Some(("pipeline_peak_inflight", GAUGE)),
        help: "High-water mark of pipeline_inflight.",
        read: Scalar(|s| Int(s.counters[Counter::PipelinePeak as usize])),
    },
    Entry {
        path: &["server", "connections", "open"],
        family: Some(("connections_open", GAUGE)),
        help: "Currently open connections.",
        read: Scalar(|s| Int(s.counters[Counter::ConnectionsOpen as usize])),
    },
    Entry {
        path: &["server", "connections", "peak"],
        family: Some(("connections_peak", GAUGE)),
        help: "High-water mark of connections_open.",
        read: Scalar(|s| Int(s.counters[Counter::ConnectionsPeak as usize])),
    },
    Entry {
        path: &["server", "connections", "accepted"],
        family: Some(("connections_accepted_total", COUNTER)),
        help: "Connections accepted and served.",
        read: Scalar(|s| Int(s.counters[Counter::ConnectionsAccepted as usize])),
    },
    Entry {
        path: &["server", "connections", "rejected"],
        family: Some(("connections_rejected_total", COUNTER)),
        help: "Connections closed at accept time by the --max-conns cap.",
        read: Scalar(|s| Int(s.counters[Counter::ConnectionsRejected as usize])),
    },
    Entry {
        path: &["server", "reactor", "wakeups"],
        family: Some(("reactor_wakeups_total", COUNTER)),
        help: "Event-loop returns from epoll_wait (0 on other backends).",
        read: Scalar(|s| Int(s.counters[Counter::ReactorWakeups as usize])),
    },
    Entry {
        path: &["server", "reactor", "completions"],
        family: Some(("reactor_completions_total", COUNTER)),
        help: "Worker-pool completions the reactor consumed (0 on other backends).",
        read: Scalar(|s| Int(s.counters[Counter::ReactorCompletions as usize])),
    },
    Entry {
        path: &["server", "spliced_frames"],
        family: Some(("spliced_frames_total", COUNTER)),
        help: "classify replies answered by splicing cached payload bytes around \
               the request id, skipping serialization and the worker pool.",
        read: Scalar(|s| Int(s.counters[Counter::SplicedFrames as usize])),
    },
    Entry {
        path: &["server", "writev_batches"],
        family: Some(("writev_batches_total", COUNTER)),
        help: "Vectored reply flushes issued by the reactor (one writev per \
               sample; 0 on other backends).",
        read: Scalar(|s| Int(s.counters[Counter::WritevBatches as usize])),
    },
    Entry {
        path: &["cache", "hits"],
        family: Some(("cache_hits_total", COUNTER)),
        help: "Classification lookups served from the memo cache.",
        read: Scalar(|s| Int(s.cache.hits)),
    },
    Entry {
        path: &["cache", "fast_hits"],
        family: Some(("cache_fast_hits_total", COUNTER)),
        help: "Cache hits served on the read fast lane with the LRU recency touch \
               skipped (the shard's LRU mutex was busy).",
        read: Scalar(|s| Int(s.cache.fast_hits)),
    },
    Entry {
        path: &["cache", "locked_hits"],
        family: Some(("cache_locked_hits_total", COUNTER)),
        help: "Cache hits that also refreshed LRU recency under the shard mutex.",
        read: Scalar(|s| Int(s.cache.locked_hits)),
    },
    Entry {
        path: &["cache", "flight_leaders"],
        family: Some(("cache_flight_leaders_total", COUNTER)),
        help: "Single-flight leaders elected: cold-key classifications started.",
        read: Scalar(|s| Int(s.cache.flight_leaders)),
    },
    Entry {
        path: &["cache", "flight_joins"],
        family: Some(("cache_flight_joins_total", COUNTER)),
        help: "Requests served by parking on another request's in-flight \
               classification (stampedes absorbed).",
        read: Scalar(|s| Int(s.cache.flight_joins)),
    },
    Entry {
        path: &["cache", "misses"],
        family: Some(("cache_misses_total", COUNTER)),
        help: "Classification lookups that had to be computed.",
        read: Scalar(|s| Int(s.cache.misses)),
    },
    Entry {
        path: &["cache", "bytes_hits"],
        family: Some(("cache_bytes_hits_total", COUNTER)),
        help: "Classify hits answered by splicing the cached reply bytes \
               (no JSON serialization).",
        read: Scalar(|s| Int(s.cache.bytes_hits)),
    },
    Entry {
        path: &["cache", "bytes_misses"],
        family: Some(("cache_bytes_misses_total", COUNTER)),
        help: "Classify hits that had to render and attach the reply bytes \
               (first hit per entry).",
        read: Scalar(|s| Int(s.cache.bytes_misses)),
    },
    Entry {
        path: &["cache", "inserts"],
        family: Some(("cache_inserts_total", COUNTER)),
        help: "Entries ever inserted into the memo cache.",
        read: Scalar(|s| Int(s.cache.inserts)),
    },
    Entry {
        path: &["cache", "evictions"],
        family: Some(("cache_evictions_total", COUNTER)),
        help: "Entries removed from the memo cache (LRU victims and clears).",
        read: Scalar(|s| Int(s.cache.evictions)),
    },
    Entry {
        path: &["cache", "entries"],
        family: Some(("cache_entries", GAUGE)),
        help: "Problems currently cached.",
        read: Scalar(|s| Int(s.cache.entries as u64)),
    },
    Entry {
        path: &["cache", "weight"],
        family: Some(("cache_weight", GAUGE)),
        help: "Total weight of the resident cache entries.",
        read: Scalar(|s| Int(s.cache.weight)),
    },
    Entry {
        path: &["cache", "peak_entries"],
        family: Some(("cache_peak_entries", GAUGE)),
        help: "Upper bound on entries ever resident at once.",
        read: Scalar(|s| Int(s.cache.peak_entries as u64)),
    },
    Entry {
        path: &["cache", "peak_weight"],
        family: Some(("cache_peak_weight", GAUGE)),
        help: "Upper bound on resident weight ever held at once.",
        read: Scalar(|s| Int(s.cache.peak_weight)),
    },
    stat(&["cache", "shards"], Scalar(|s| Int(s.cache.shards as u64))),
    stat(
        &["cache", "hit_ratio"],
        Scalar(|s| Text(format!("{:.4}", s.cache.hit_ratio()))),
    ),
    stat(&["cache", "summary"], Scalar(|s| Text(s.cache.to_string()))),
    Entry {
        path: &[],
        family: Some(("cache_shard_hits_total", COUNTER)),
        help: "Memo-cache hits, by shard.",
        read: PerShard(|shard| Int(shard.hits)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_fast_hits_total", COUNTER)),
        help: "Fast-lane hits with the recency touch skipped, by shard.",
        read: PerShard(|shard| Int(shard.fast_hits)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_locked_hits_total", COUNTER)),
        help: "Hits that refreshed LRU recency, by shard.",
        read: PerShard(|shard| Int(shard.locked_hits)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_flight_leaders_total", COUNTER)),
        help: "Single-flight leaders elected, by shard.",
        read: PerShard(|shard| Int(shard.flight_leaders)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_flight_joins_total", COUNTER)),
        help: "Requests that joined an in-flight computation, by shard.",
        read: PerShard(|shard| Int(shard.flight_joins)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_misses_total", COUNTER)),
        help: "Memo-cache misses, by shard.",
        read: PerShard(|shard| Int(shard.misses)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_bytes_hits_total", COUNTER)),
        help: "Reply-bytes splices served, by shard.",
        read: PerShard(|shard| Int(shard.bytes_hits)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_bytes_misses_total", COUNTER)),
        help: "Reply-bytes renders attached, by shard.",
        read: PerShard(|shard| Int(shard.bytes_misses)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_entries", GAUGE)),
        help: "Resident memo-cache entries, by shard.",
        read: PerShard(|shard| Int(shard.entries as u64)),
    },
    Entry {
        path: &[],
        family: Some(("cache_shard_evictions_total", COUNTER)),
        help: "Memo-cache evictions, by shard.",
        read: PerShard(|shard| Int(shard.evictions)),
    },
    Entry {
        path: &["pool", "workers"],
        family: Some(("pool_workers", GAUGE)),
        help: "Long-lived worker threads.",
        read: Scalar(|s| Int(s.pool.workers as u64)),
    },
    Entry {
        path: &["pool", "queue_depth"],
        family: Some(("pool_queue_depth", GAUGE)),
        help: "Jobs submitted but not yet picked up by a worker.",
        read: Scalar(|s| Int(s.pool.queue_depth as u64)),
    },
    Entry {
        path: &["pool", "jobs_completed"],
        family: Some(("pool_jobs_completed_total", COUNTER)),
        help: "Jobs fully executed since the pool was built.",
        read: Scalar(|s| Int(s.pool.jobs_completed)),
    },
    stat(&["pool", "summary"], Scalar(|s| Text(s.pool.to_string()))),
];

/// One request kind's counters and latency histogram.
struct KindView {
    label: &'static str,
    stats: KindStats,
    latency: HistogramSnapshot,
}

/// One read of everything the table exports, taken once per render.
struct Snap {
    backend: &'static str,
    cache_shards: usize,
    workers: usize,
    uptime: Duration,
    counters: [u64; COUNTERS],
    kinds: Vec<KindView>,
    first_chunk: HistogramSnapshot,
    cache: CacheStats,
    shards: Vec<ShardStats>,
    pool: PoolStats,
}

impl Snap {
    fn take(service: &Service) -> Snap {
        let (metrics, engine) = (service.metrics(), service.engine());
        let kinds = RequestKind::ALL.iter().map(|&k| (Some(k), k.wire_name()));
        Snap {
            backend: metrics.backend_name(),
            cache_shards: engine.cache_shards(),
            workers: engine.parallelism(),
            uptime: service.uptime(),
            counters: metrics.counters(),
            kinds: kinds
                .chain([(None, "invalid")])
                .map(|(kind, label)| KindView {
                    label,
                    stats: metrics.snapshot(kind),
                    latency: metrics.histogram(kind),
                })
                .collect(),
            first_chunk: metrics.stream_first_chunk_histogram(),
            cache: engine.cache_stats(),
            shards: engine.cache_shard_stats(),
            pool: engine.pool_stats(),
        }
    }
}

/// Renders the `stats` reply payload for one service: every table entry
/// with a `stats` path, inserted at that path.
pub(crate) fn render_stats(service: &Service) -> JsonValue {
    fn insert(root: &mut BTreeMap<String, JsonValue>, path: &[&str], value: JsonValue) {
        let (leaf, parents) = path.split_last().expect("a stats path is never empty");
        let mut node = root;
        for key in parents {
            let child = node
                .entry(key.to_string())
                .or_insert_with(|| JsonValue::Object(BTreeMap::new()));
            let JsonValue::Object(child) = child else {
                unreachable!("`{key}` is both a value and an object in the stats table");
            };
            node = child;
        }
        node.insert(leaf.to_string(), value);
    }
    let snap = Snap::take(service);
    let mut root = BTreeMap::new();
    for entry in TABLE.iter().filter(|entry| !entry.path.is_empty()) {
        match &entry.read {
            Identity => {
                for (key, read) in IDENTITY {
                    let path = [entry.path, &[key]].concat();
                    insert(&mut root, &path, read(&snap).to_json());
                }
            }
            Scalar(read) => insert(&mut root, entry.path, read(&snap).to_json()),
            PerKind(read) => {
                for kind in &snap.kinds {
                    let path = [&["server", "kinds", kind.label], entry.path].concat();
                    insert(&mut root, &path, read(kind).to_json());
                }
            }
            PerShard(_) => unreachable!("per-shard values are exposition-only"),
        }
    }
    JsonValue::Object(root)
}

/// Renders the full metrics exposition document for one service: every
/// table entry with a family, in table order. See the module docs for the
/// format and stability guarantees.
pub fn render_exposition(service: &Service) -> String {
    let snap = Snap::take(service);
    let mut out = String::with_capacity(8 * 1024);
    for entry in TABLE {
        let Some((name, kind)) = entry.family else {
            continue;
        };
        let _ = writeln!(out, "# HELP {PREFIX}_{name} {}", entry.help);
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} {kind}");
        match &entry.read {
            Identity => {
                let labels: Vec<String> = IDENTITY
                    .iter()
                    .map(|(key, read)| format!("{key}=\"{}\"", read(&snap)))
                    .collect();
                sample(&mut out, name, &labels.join(","), &Int(1));
            }
            Scalar(read) => sample(&mut out, name, "", &read(&snap)),
            PerKind(read) => {
                for kind in &snap.kinds {
                    let labels = format!("kind=\"{}\"", kind.label);
                    sample(&mut out, name, &labels, &read(kind));
                }
            }
            PerShard(read) => {
                for (at, shard) in snap.shards.iter().enumerate() {
                    sample(&mut out, name, &format!("shard=\"{at}\""), &read(shard));
                }
            }
        }
    }
    out
}

/// Writes one labelled sample; a histogram becomes its cumulative `le`
/// buckets (only the occupied ones, plus the mandatory `+Inf`), then `_sum`
/// and `_count`. `labels` is the rendered label set without braces (e.g.
/// `kind="solve"`), empty for an unlabelled sample.
fn sample(out: &mut String, name: &str, labels: &str, value: &Value) {
    let braced = |extra: &str| match (labels, extra) {
        ("", "") => String::new(),
        ("", extra) => format!("{{{extra}}}"),
        (labels, "") => format!("{{{labels}}}"),
        (labels, extra) => format!("{{{labels},{extra}}}"),
    };
    let Histogram(snapshot) = value else {
        let _ = writeln!(out, "{PREFIX}_{name}{} {value}", braced(""));
        return;
    };
    let mut cumulative = 0u64;
    for (upper, count) in snapshot.nonzero_buckets() {
        cumulative += count;
        let le = braced(&format!("le=\"{upper}\""));
        let _ = writeln!(out, "{PREFIX}_{name}_bucket{le} {cumulative}");
    }
    let (inf, plain) = (braced("le=\"+Inf\""), braced(""));
    let _ = writeln!(out, "{PREFIX}_{name}_bucket{inf} {}", snapshot.count);
    let _ = writeln!(out, "{PREFIX}_{name}_sum{plain} {}", snapshot.sum);
    let _ = writeln!(out, "{PREFIX}_{name}_count{plain} {}", snapshot.count);
}

/// One parsed sample line: family-qualified name, rendered label set, value.
struct Sample<'a> {
    name: &'a str,
    labels: Vec<(&'a str, &'a str)>,
    value: f64,
}

/// Splits `name{labels} value` (labels optional); `Err` describes the flaw.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample without a value: `{line}`"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("unparseable sample value: `{line}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("sample value out of range: `{line}`"));
    }
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels, Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set: `{line}`"))?;
            let mut labels = Vec::new();
            for pair in body.split(',') {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without `=`: `{line}`"))?;
                let value = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value: `{line}`"))?;
                labels.push((key, value));
            }
            (name, labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(format!("invalid metric name: `{line}`"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// The state accumulated for one histogram label set (labels minus `le`).
#[derive(Default)]
struct HistogramSeries {
    /// `(le, cumulative count)` in encounter order; `le` is `f64::INFINITY`
    /// for the `+Inf` bucket.
    buckets: Vec<(f64, f64)>,
    count: Option<f64>,
}

/// Line-by-line structural validation of a metrics exposition document.
///
/// Enforces what a scraper needs to trust the document: every sample's
/// family is declared by exactly one preceding `# TYPE` with a known type,
/// `# HELP` lines name their own family, histogram samples use only the
/// `_bucket` / `_sum` / `_count` suffixes, no `(name, labels)` pair repeats,
/// and every histogram label set has strictly increasing `le` bounds with
/// nondecreasing cumulative counts, ending in a `+Inf` bucket equal to its
/// `_count`. Returns the first flaw found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut seen_samples: Vec<String> = Vec::new();
    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            return Err("blank line in exposition".to_string());
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, metric_type) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line: `{line}`"))?;
            if !matches!(metric_type, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown metric type: `{line}`"));
            }
            if types.insert(family, metric_type).is_some() {
                return Err(format!("duplicate TYPE for `{family}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if rest.split_once(' ').is_none() {
                return Err(format!("HELP without text: `{line}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment line: `{line}`"));
        }

        let sample = parse_sample(line)?;
        // Resolve the sample to its declared family: exact for counters and
        // gauges, suffixed for histograms.
        let histogram_family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            sample
                .name
                .strip_suffix(suffix)
                .filter(|family| types.get(family) == Some(&"histogram"))
                .map(|family| (family, *suffix))
        });
        let family = match histogram_family {
            Some((family, _)) => family,
            None => sample.name,
        };
        match types.get(family) {
            None => return Err(format!("sample before its TYPE: `{line}`")),
            Some(&"histogram") if histogram_family.is_none() => {
                return Err(format!("bare sample of a histogram family: `{line}`"));
            }
            Some(_) => {}
        }

        let key = format!("{}{:?}", sample.name, sample.labels);
        if seen_samples.contains(&key) {
            return Err(format!("duplicate sample: `{line}`"));
        }
        seen_samples.push(key);

        if let Some((family, suffix)) = histogram_family {
            let series_labels: Vec<&(&str, &str)> = sample
                .labels
                .iter()
                .filter(|(key, _)| *key != "le")
                .collect();
            let series = histograms
                .entry(format!("{family}{series_labels:?}"))
                .or_default();
            match suffix {
                "_bucket" => {
                    let le = sample
                        .labels
                        .iter()
                        .find(|(key, _)| *key == "le")
                        .ok_or_else(|| format!("bucket without le: `{line}`"))?
                        .1;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse()
                            .map_err(|_| format!("unparseable le bound: `{line}`"))?
                    };
                    if let Some(&(last_bound, last_count)) = series.buckets.last() {
                        if bound <= last_bound {
                            return Err(format!("le bounds not increasing: `{line}`"));
                        }
                        if sample.value < last_count {
                            return Err(format!("bucket counts not monotone: `{line}`"));
                        }
                    }
                    series.buckets.push((bound, sample.value));
                }
                "_count" => series.count = Some(sample.value),
                _ => {}
            }
        }
    }

    if types.is_empty() {
        return Err("empty exposition".to_string());
    }
    for (key, series) in &histograms {
        let Some(&(last_bound, last_count)) = series.buckets.last() else {
            return Err(format!("histogram series without buckets: {key}"));
        };
        if last_bound != f64::INFINITY {
            return Err(format!("histogram series without +Inf bucket: {key}"));
        }
        let Some(count) = series.count else {
            return Err(format!("histogram series without _count: {key}"));
        };
        if last_count != count {
            return Err(format!(
                "+Inf bucket ({last_count}) disagrees with _count ({count}): {key}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_paths::Engine;
    use std::time::Duration;

    fn service() -> Service {
        Service::new(Engine::builder().parallelism(1).build())
    }

    /// The wall-clock-dependent line; everything else is pure counter state.
    fn strip_uptime(expo: &str) -> String {
        expo.lines()
            .filter(|line| !line.starts_with("lcl_uptime_seconds "))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn every_family_and_stats_path_is_named_once() {
        let mut families = Vec::new();
        let mut paths = Vec::new();
        for entry in TABLE {
            if let Some((name, kind)) = entry.family {
                assert!([COUNTER, GAUGE, HISTOGRAM].contains(&kind), "{name}");
                assert!(!entry.help.is_empty(), "{name} has no HELP text");
                families.push(name);
            }
            let exposition_only =
                matches!(entry.family, Some((_, HISTOGRAM))) || matches!(entry.read, PerShard(_));
            assert_eq!(
                entry.path.is_empty(),
                exposition_only,
                "{:?}: histograms and per-shard values, and only they, have no stats path",
                entry.family
            );
            match entry.read {
                Identity => paths.extend(IDENTITY.map(|(key, _)| [entry.path, &[key]].concat())),
                PerKind(_) if !exposition_only => {
                    paths.push([&["server", "kinds", "*"], entry.path].concat());
                }
                Scalar(_) if !exposition_only => paths.push(entry.path.to_vec()),
                _ => {}
            }
        }
        for (at, name) in families.iter().enumerate() {
            assert!(!families[..at].contains(name), "family {name} twice");
        }
        for (at, path) in paths.iter().enumerate() {
            assert!(!paths[..at].contains(path), "stats path {path:?} twice");
        }
    }

    #[test]
    fn the_stats_payload_reports_recorded_counters() {
        let service = service();
        let metrics = service.metrics();
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(30), true);
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(10), false);
        metrics.record_shed(Some(RequestKind::Solve));
        metrics.record(None, Duration::ZERO, false);
        metrics.add(Counter::ConnectionsRejected, 1);
        metrics.enter(Counter::PipelineInflight, Counter::PipelinePeak);
        metrics.set_backend(crate::Backend::Stdio);
        let stats = render_stats(&service);
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&stats, |node, key| node.get(key))
                .unwrap_or_else(|| panic!("stats has no {path:?}"))
                .clone()
        };
        let solve = ["server", "kinds", "solve"];
        for (field, want) in [
            ("count", 2),
            ("errors", 1),
            ("shed", 1),
            ("total_micros", 40),
            ("max_micros", 30),
            ("mean_micros", 20),
            ("p50_micros", 10),
            ("p999_micros", 30),
        ] {
            assert_eq!(
                at(&[&solve[..], &[field]].concat()),
                JsonValue::Int(want),
                "{field}"
            );
        }
        assert_eq!(
            at(&["server", "kinds", "invalid", "count"]),
            JsonValue::Int(1)
        );
        assert_eq!(at(&["server", "requests_served"]), JsonValue::Int(3));
        assert_eq!(
            at(&["server", "connections", "rejected"]),
            JsonValue::Int(1)
        );
        assert_eq!(
            at(&["server", "pipeline", "peak_inflight"]),
            JsonValue::Int(1)
        );
        assert_eq!(
            at(&["server", "stream_first_chunk", "count"]),
            JsonValue::Int(0)
        );
        assert_eq!(at(&["server", "backend"]), JsonValue::Str("stdio".into()));
        assert_eq!(at(&["server", "workers"]), JsonValue::Int(1));
        assert_eq!(at(&["cache", "hit_ratio"]), JsonValue::Str("0.0000".into()));
        assert_eq!(at(&["pool", "workers"]), JsonValue::Int(1));
        assert!(matches!(at(&["uptime_ms"]), JsonValue::Int(_)));
    }

    #[test]
    fn a_fresh_service_renders_a_valid_exposition() {
        let expo = render_exposition(&service());
        validate_exposition(&expo).expect("fresh exposition validates");
        assert!(expo.ends_with('\n'));
        assert!(expo.contains("# TYPE lcl_requests_total counter"), "{expo}");
        assert!(expo.contains("lcl_requests_total{kind=\"metrics\"} 0"));
        assert!(expo.contains("# TYPE lcl_request_latency_micros histogram"));
        assert!(expo.contains("lcl_build_info{backend=\"none\""));
    }

    #[test]
    fn recorded_traffic_shows_up_with_monotone_buckets() {
        let service = service();
        for micros in [3u64, 9, 70, 70, 5_000] {
            service.metrics().record(
                Some(RequestKind::Classify),
                Duration::from_micros(micros),
                micros == 9,
            );
        }
        service.metrics().record(None, Duration::ZERO, false);
        let expo = render_exposition(&service);
        validate_exposition(&expo).expect("validates");
        assert!(expo.contains("lcl_requests_total{kind=\"classify\"} 5"));
        assert!(expo.contains("lcl_request_errors_total{kind=\"classify\"} 4"));
        assert!(expo.contains("lcl_requests_total{kind=\"invalid\"} 1"));
        assert!(expo.contains("lcl_request_latency_micros_bucket{kind=\"classify\",le=\"+Inf\"} 5"));
        assert!(expo.contains("lcl_request_latency_micros_count{kind=\"classify\"} 5"));
        // The 1µs clamp: the invalid frame's zero elapsed still occupies a
        // bucket.
        assert!(expo.contains("lcl_request_latency_micros_bucket{kind=\"invalid\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn the_exposition_is_a_pure_function_of_counter_state() {
        let build = || {
            let service = service();
            for micros in [10u64, 200, 9_000] {
                service.metrics().record(
                    Some(RequestKind::Solve),
                    Duration::from_micros(micros),
                    true,
                );
            }
            service
                .metrics()
                .record_stream_first_chunk(Duration::from_micros(42));
            service.metrics().set_backend(crate::Backend::Stdio);
            service
        };
        let (a, b) = (build(), build());
        assert_eq!(
            strip_uptime(&render_exposition(&a)),
            strip_uptime(&render_exposition(&b)),
            "identical counter state must render to identical bytes"
        );
        // And rendering twice from the same quiesced service is stable too.
        assert_eq!(
            strip_uptime(&render_exposition(&a)),
            strip_uptime(&render_exposition(&a))
        );
    }

    #[test]
    fn the_validator_rejects_malformed_documents() {
        for (doc, why) in [
            ("", "empty"),
            ("lcl_x 1\n", "sample before TYPE"),
            (
                "# TYPE lcl_x counter\nlcl_x 1\nlcl_x 1\n",
                "duplicate sample",
            ),
            (
                "# TYPE lcl_x counter\n# TYPE lcl_x counter\n",
                "duplicate TYPE",
            ),
            ("# TYPE lcl_x summary\n", "unknown type"),
            ("# TYPE lcl_x counter\nlcl_x nope\n", "bad value"),
            (
                "# TYPE lcl_x histogram\nlcl_x_bucket{le=\"1\"} 2\nlcl_x_bucket{le=\"8\"} 1\n",
                "non-monotone buckets",
            ),
            (
                "# TYPE lcl_x histogram\nlcl_x_bucket{le=\"+Inf\"} 2\nlcl_x_count 1\n",
                "+Inf vs _count disagreement",
            ),
            (
                "# TYPE lcl_x histogram\nlcl_x_sum 3\nlcl_x_count 0\n",
                "histogram without buckets",
            ),
            ("# TYPE lcl_x histogram\nlcl_x 1\n", "bare histogram sample"),
        ] {
            assert!(validate_exposition(doc).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn the_validator_accepts_a_well_formed_histogram() {
        let doc = "\
# HELP lcl_x latency
# TYPE lcl_x histogram
lcl_x_bucket{kind=\"a\",le=\"8\"} 1
lcl_x_bucket{kind=\"a\",le=\"64\"} 3
lcl_x_bucket{kind=\"a\",le=\"+Inf\"} 3
lcl_x_sum{kind=\"a\"} 90
lcl_x_count{kind=\"a\"} 3
lcl_x_bucket{kind=\"b\",le=\"+Inf\"} 0
lcl_x_sum{kind=\"b\"} 0
lcl_x_count{kind=\"b\"} 0
";
        validate_exposition(doc).expect("two label sets, one family");
    }
}
