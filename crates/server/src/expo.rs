//! Plaintext metrics exposition: the pull-style scrape document.
//!
//! [`render_exposition`] serializes every counter the server keeps — the
//! per-kind request counters and latency histograms ([`ServerMetrics`]),
//! the engine's cache (total and per-shard) and worker-pool stats, and the
//! stream time-to-first-chunk histogram — as one text document in the
//! Prometheus exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! headers per family, one `name{labels} value` sample per line,
//! histograms as cumulative `le` buckets plus `_sum` / `_count`. The same
//! document is served by the `metrics` request kind (inside a JSON reply)
//! and by the `--metrics-addr` HTTP listener ([`crate::scrape`]).
//!
//! The document is a *pure function of the counter state*: same counters,
//! same bytes, whichever front-end produced them. Only `lcl_uptime_seconds`
//! (wall clock) and the `backend` label of `lcl_build_info` depend on
//! anything other than the counters. Families render in a fixed order and
//! every label value the renderer emits is `[a-zA-Z0-9_.-]+`, so no label
//! escaping is ever needed.
//!
//! [`validate_exposition`] is the matching line-by-line checker used by the
//! integration tests and the `--smoke` harness: it fails on any sample
//! without a preceding `# TYPE`, duplicated families or samples,
//! non-monotone histogram buckets, or a histogram whose `+Inf` bucket
//! disagrees with its `_count`.
//!
//! [`ServerMetrics`]: crate::ServerMetrics

use crate::service::{RequestKind, Service};
use lcl_paths::classifier::obs::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Every metric family shares this prefix.
const PREFIX: &str = "lcl";

/// The request-kind label values, protocol order then `invalid` — the same
/// iteration order every per-kind family uses.
fn kinds() -> impl Iterator<Item = (Option<RequestKind>, &'static str)> {
    RequestKind::ALL
        .iter()
        .map(|&k| (Some(k), k.wire_name()))
        .chain(std::iter::once((None, "invalid")))
}

/// One exposition document under construction.
struct Expo {
    out: String,
}

impl Expo {
    fn header(&mut self, name: &str, metric_type: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {PREFIX}_{name} {help}");
        let _ = writeln!(self.out, "# TYPE {PREFIX}_{name} {metric_type}");
    }

    fn sample(&mut self, name: &str, labels: &str, value: u64) {
        let _ = writeln!(self.out, "{PREFIX}_{name}{labels} {value}");
    }

    /// A whole histogram family body for one label set: cumulative `le`
    /// buckets (only the occupied ones, plus the mandatory `+Inf`), then
    /// `_sum` and `_count`. `labels` is the rendered non-`le` label set
    /// (e.g. `kind="solve"`), empty for an unlabeled family.
    fn histogram(&mut self, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
        let mut cumulative = 0u64;
        for (upper, count) in snapshot.nonzero_buckets() {
            cumulative += count;
            let le = if labels.is_empty() {
                format!("{{le=\"{upper}\"}}")
            } else {
                format!("{{{labels},le=\"{upper}\"}}")
            };
            self.sample(&format!("{name}_bucket"), &le, cumulative);
        }
        let inf = if labels.is_empty() {
            "{le=\"+Inf\"}".to_string()
        } else {
            format!("{{{labels},le=\"+Inf\"}}")
        };
        self.sample(&format!("{name}_bucket"), &inf, snapshot.count);
        let plain = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        self.sample(&format!("{name}_sum"), &plain, snapshot.sum);
        self.sample(&format!("{name}_count"), &plain, snapshot.count);
    }
}

/// Renders the full metrics exposition document for one service. See the
/// module docs for the format and stability guarantees.
pub fn render_exposition(service: &Service) -> String {
    let metrics = service.metrics();
    let engine = service.engine();
    let mut expo = Expo {
        out: String::with_capacity(8 * 1024),
    };

    expo.header(
        "build_info",
        "gauge",
        "Constant 1; the labels carry the server identity and configuration.",
    );
    expo.sample(
        "build_info",
        &format!(
            "{{backend=\"{}\",cache_shards=\"{}\",version=\"{}\",workers=\"{}\"}}",
            metrics.backend_name(),
            engine.cache_shards(),
            env!("CARGO_PKG_VERSION"),
            engine.parallelism(),
        ),
        1,
    );

    expo.header(
        "uptime_seconds",
        "gauge",
        "Wall-clock seconds since the service was constructed.",
    );
    expo.sample("uptime_seconds", "", service.uptime().as_secs());

    expo.header(
        "requests_total",
        "counter",
        "Frames handled, by request kind (invalid = never resolved to one).",
    );
    for (kind, label) in kinds() {
        expo.sample(
            "requests_total",
            &format!("{{kind=\"{label}\"}}"),
            metrics.snapshot(kind).count,
        );
    }

    expo.header(
        "request_errors_total",
        "counter",
        "Frames answered with an error reply, by request kind.",
    );
    for (kind, label) in kinds() {
        expo.sample(
            "request_errors_total",
            &format!("{{kind=\"{label}\"}}"),
            metrics.snapshot(kind).errors,
        );
    }

    expo.header(
        "shed_total",
        "counter",
        "Frames rejected at admission (load shed or quota), by request kind; \
         every shed frame is also counted in requests_total and \
         request_errors_total.",
    );
    for (kind, label) in kinds() {
        expo.sample(
            "shed_total",
            &format!("{{kind=\"{label}\"}}"),
            metrics.snapshot(kind).shed,
        );
    }

    expo.header(
        "request_latency_micros",
        "histogram",
        "End-to-end request handling latency in microseconds, by kind \
         (empty while detailed metrics are off).",
    );
    for (kind, label) in kinds() {
        expo.histogram(
            "request_latency_micros",
            &format!("kind=\"{label}\""),
            &metrics.histogram(kind),
        );
    }

    expo.header(
        "stream_first_chunk_micros",
        "histogram",
        "solve_stream time-to-first-chunk in microseconds (the kind \
         histogram has the full drain).",
    );
    expo.histogram(
        "stream_first_chunk_micros",
        "",
        &metrics.stream_first_chunk_histogram(),
    );

    expo.header(
        "pipeline_inflight",
        "gauge",
        "Pipelined requests dispatched and not yet answered.",
    );
    expo.sample("pipeline_inflight", "", metrics.pipelined_inflight());
    expo.header(
        "pipeline_peak_inflight",
        "gauge",
        "High-water mark of pipeline_inflight.",
    );
    expo.sample("pipeline_peak_inflight", "", metrics.pipelined_peak());

    expo.header("connections_open", "gauge", "Currently open connections.");
    expo.sample("connections_open", "", metrics.open_connections());
    expo.header(
        "connections_peak",
        "gauge",
        "High-water mark of connections_open.",
    );
    expo.sample("connections_peak", "", metrics.peak_connections());
    expo.header(
        "connections_accepted_total",
        "counter",
        "Connections accepted and served.",
    );
    expo.sample("connections_accepted_total", "", metrics.total_accepted());
    expo.header(
        "connections_rejected_total",
        "counter",
        "Connections closed at accept time by the --max-conns cap.",
    );
    expo.sample("connections_rejected_total", "", metrics.total_rejected());

    expo.header(
        "reactor_wakeups_total",
        "counter",
        "Event-loop returns from epoll_wait (0 on other backends).",
    );
    expo.sample("reactor_wakeups_total", "", metrics.reactor_wakeups());
    expo.header(
        "reactor_completions_total",
        "counter",
        "Worker-pool completions the reactor consumed (0 on other backends).",
    );
    expo.sample(
        "reactor_completions_total",
        "",
        metrics.reactor_completion_count(),
    );

    expo.header(
        "spliced_frames_total",
        "counter",
        "classify replies answered by splicing cached payload bytes around \
         the request id, skipping serialization and the worker pool.",
    );
    expo.sample("spliced_frames_total", "", metrics.spliced_frames());
    expo.header(
        "writev_batches_total",
        "counter",
        "Vectored reply flushes issued by the reactor (one writev per \
         sample; 0 on other backends).",
    );
    expo.sample("writev_batches_total", "", metrics.writev_batches());

    let cache = engine.cache_stats();
    expo.header(
        "cache_hits_total",
        "counter",
        "Classification lookups served from the memo cache.",
    );
    expo.sample("cache_hits_total", "", cache.hits);
    expo.header(
        "cache_fast_hits_total",
        "counter",
        "Cache hits served on the read fast lane with the LRU recency touch \
         skipped (the shard's LRU mutex was busy).",
    );
    expo.sample("cache_fast_hits_total", "", cache.fast_hits);
    expo.header(
        "cache_locked_hits_total",
        "counter",
        "Cache hits that also refreshed LRU recency under the shard mutex.",
    );
    expo.sample("cache_locked_hits_total", "", cache.locked_hits);
    expo.header(
        "cache_flight_leaders_total",
        "counter",
        "Single-flight leaders elected: cold-key classifications started.",
    );
    expo.sample("cache_flight_leaders_total", "", cache.flight_leaders);
    expo.header(
        "cache_flight_joins_total",
        "counter",
        "Requests served by parking on another request's in-flight \
         classification (stampedes absorbed).",
    );
    expo.sample("cache_flight_joins_total", "", cache.flight_joins);
    expo.header(
        "cache_misses_total",
        "counter",
        "Classification lookups that had to be computed.",
    );
    expo.sample("cache_misses_total", "", cache.misses);
    expo.header(
        "cache_bytes_hits_total",
        "counter",
        "Classify hits answered by splicing the cached reply bytes \
         (no JSON serialization).",
    );
    expo.sample("cache_bytes_hits_total", "", cache.bytes_hits);
    expo.header(
        "cache_bytes_misses_total",
        "counter",
        "Classify hits that had to render and attach the reply bytes \
         (first hit per entry).",
    );
    expo.sample("cache_bytes_misses_total", "", cache.bytes_misses);
    expo.header(
        "cache_inserts_total",
        "counter",
        "Entries ever inserted into the memo cache.",
    );
    expo.sample("cache_inserts_total", "", cache.inserts);
    expo.header(
        "cache_evictions_total",
        "counter",
        "Entries removed from the memo cache (LRU victims and clears).",
    );
    expo.sample("cache_evictions_total", "", cache.evictions);
    expo.header("cache_entries", "gauge", "Problems currently cached.");
    expo.sample("cache_entries", "", cache.entries as u64);
    expo.header(
        "cache_weight",
        "gauge",
        "Total weight of the resident cache entries.",
    );
    expo.sample("cache_weight", "", cache.weight);
    expo.header(
        "cache_peak_entries",
        "gauge",
        "Upper bound on entries ever resident at once.",
    );
    expo.sample("cache_peak_entries", "", cache.peak_entries as u64);
    expo.header(
        "cache_peak_weight",
        "gauge",
        "Upper bound on resident weight ever held at once.",
    );
    expo.sample("cache_peak_weight", "", cache.peak_weight);

    let shards = engine.cache_shard_stats();
    expo.header(
        "cache_shard_hits_total",
        "counter",
        "Memo-cache hits, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_hits_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.hits,
        );
    }
    expo.header(
        "cache_shard_fast_hits_total",
        "counter",
        "Fast-lane hits with the recency touch skipped, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_fast_hits_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.fast_hits,
        );
    }
    expo.header(
        "cache_shard_locked_hits_total",
        "counter",
        "Hits that refreshed LRU recency, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_locked_hits_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.locked_hits,
        );
    }
    expo.header(
        "cache_shard_flight_leaders_total",
        "counter",
        "Single-flight leaders elected, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_flight_leaders_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.flight_leaders,
        );
    }
    expo.header(
        "cache_shard_flight_joins_total",
        "counter",
        "Requests that joined an in-flight computation, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_flight_joins_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.flight_joins,
        );
    }
    expo.header(
        "cache_shard_misses_total",
        "counter",
        "Memo-cache misses, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_misses_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.misses,
        );
    }
    expo.header(
        "cache_shard_bytes_hits_total",
        "counter",
        "Reply-bytes splices served, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_bytes_hits_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.bytes_hits,
        );
    }
    expo.header(
        "cache_shard_bytes_misses_total",
        "counter",
        "Reply-bytes renders attached, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_bytes_misses_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.bytes_misses,
        );
    }
    expo.header(
        "cache_shard_entries",
        "gauge",
        "Resident memo-cache entries, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_entries",
            &format!("{{shard=\"{at}\"}}"),
            shard.entries as u64,
        );
    }
    expo.header(
        "cache_shard_evictions_total",
        "counter",
        "Memo-cache evictions, by shard.",
    );
    for (at, shard) in shards.iter().enumerate() {
        expo.sample(
            "cache_shard_evictions_total",
            &format!("{{shard=\"{at}\"}}"),
            shard.evictions,
        );
    }

    let pool = engine.pool_stats();
    expo.header("pool_workers", "gauge", "Long-lived worker threads.");
    expo.sample("pool_workers", "", pool.workers as u64);
    expo.header(
        "pool_queue_depth",
        "gauge",
        "Jobs submitted but not yet picked up by a worker.",
    );
    expo.sample("pool_queue_depth", "", pool.queue_depth as u64);
    expo.header(
        "pool_jobs_completed_total",
        "counter",
        "Jobs fully executed since the pool was built.",
    );
    expo.sample("pool_jobs_completed_total", "", pool.jobs_completed);

    expo.out
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
            service.metrics().set_backend("stdio");
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
