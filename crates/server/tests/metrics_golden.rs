//! Shape golden for the two metrics views: the `stats` reply and the
//! Prometheus exposition.
//!
//! A fixed script runs through the stdio front-end of a pinned service
//! (two workers, two cache shards); then both documents are rendered and
//! reduced to their *shape*: for `stats`, every key path in order with its
//! value; for the exposition, every `# HELP`/`# TYPE` line verbatim and
//! every sample's `name{labels}` in order with its value. Only values that
//! depend on time are masked (`*`): latencies (`*_micros*`), uptimes, and
//! the finite `le` histogram buckets, whose set depends on which buckets the
//! latencies landed in (the `+Inf` bucket, `_count` and every request,
//! error, cache and pool count are kept exactly).
//!
//! `tests/data/metrics_golden.txt` pins the result. Any renamed family,
//! reworded HELP text, moved or dropped `stats` key, or changed count fails
//! this test. After a deliberate wire change, re-record it with
//! `cargo test -p lcl-server --test metrics_golden -- --ignored`.

use lcl_paths::gen::GenConfig;
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{Instance, RequestEnvelope, StreamInputs, StreamInstanceSpec, Topology};
use lcl_paths::{problems, Engine};
use lcl_server::{render_exposition, serve_stdio, Service};
use std::sync::Arc;
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/metrics_golden.txt");

fn frame(id: i64, kind: &str, payload: JsonValue) -> String {
    RequestEnvelope::new(id, kind, payload).to_json_string()
}

/// The fixed stdio script: every request kind but `stats`/`metrics` (those
/// are rendered after the session), a repeated classify (a cache hit, then
/// a spliced bytes hit), a failing `snapshot` (no path configured), a
/// malformed frame, an unknown kind and a blank line.
fn script() -> String {
    let spec = problems::coloring(3).to_spec();
    let classify = |id, spec: &lcl_paths::problem::ProblemSpec| {
        frame(
            id,
            "classify",
            JsonValue::object([("problem", spec.to_json())]),
        )
    };
    let stream = StreamInstanceSpec {
        topology: Topology::Cycle,
        length: 64,
        inputs: StreamInputs::Uniform { label: 0 },
    };
    [
        frame(1, "health", JsonValue::Null),
        classify(2, &spec),
        classify(3, &spec),
        classify(4, &spec),
        classify(5, &problems::coloring(4).to_spec()),
        frame(
            6,
            "classify_many",
            JsonValue::object([(
                "problems",
                JsonValue::Array(vec![
                    spec.to_json(),
                    problems::coloring(2).to_spec().to_json(),
                ]),
            )]),
        ),
        frame(
            7,
            "solve",
            JsonValue::object([
                ("problem", spec.to_json()),
                (
                    "instance",
                    Instance::from_indices(Topology::Cycle, &[0; 12]).to_json(),
                ),
            ]),
        ),
        frame(
            8,
            "solve_stream",
            JsonValue::object([("problem", spec.to_json()), ("instance", stream.to_json())]),
        ),
        frame(9, "generate", GenConfig::new(11).to_json()),
        frame(10, "snapshot", JsonValue::Null),
        String::new(),
        "{\"v\":1,\"id\":11,\"kind\":".to_string(),
        frame(12, "no_such_kind", JsonValue::Null),
    ]
    .join("\n")
        + "\n"
}

/// Drives the script, waits for the worker pool to settle (a job counts as
/// completed just *after* its reply is sent), and renders both documents.
fn render_both() -> (JsonValue, String) {
    let service = Arc::new(Service::new(
        Engine::builder().parallelism(2).cache_shards(2).build(),
    ));
    let mut output = Vec::new();
    serve_stdio(&service, script().as_bytes(), &mut output).expect("stdio session");
    let mut settled = service.engine().pool_stats();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(10));
        let now = service.engine().pool_stats();
        if now == settled && now.queue_depth == 0 {
            break;
        }
        settled = now;
    }
    let stats = service.handle_line_string(&frame(100, "stats", JsonValue::Null));
    let stats = JsonValue::parse(&stats).expect("stats reply parses");
    assert_eq!(stats.get("ok"), Some(&JsonValue::Bool(true)), "{stats:?}");
    let payload = stats.require("payload").expect("stats payload").clone();
    (payload, render_exposition(&service))
}

/// Values that depend on the wall clock or on measured latency.
fn time_dependent(key: &str) -> bool {
    key.contains("_micros") || key.starts_with("uptime")
}

/// Every key path of the `stats` payload in document order, with its value
/// (strings JSON-quoted, time-dependent values masked).
fn stats_shape(value: &JsonValue, path: &str, out: &mut Vec<String>) {
    match value {
        JsonValue::Object(fields) => {
            for (key, field) in fields {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if time_dependent(key) && !matches!(field, JsonValue::Object(_)) {
                    out.push(format!("{path} *"));
                } else {
                    stats_shape(field, &path, out);
                }
            }
        }
        JsonValue::Int(v) => out.push(format!("{path} {v}")),
        other => out.push(format!("{path} {}", other.to_json_string())),
    }
}

/// The exposition with time-dependent values masked and finite `le`
/// bucket lines dropped; HELP/TYPE lines and every other sample verbatim.
fn exposition_shape(expo: &str, out: &mut Vec<String>) {
    for line in expo.lines() {
        if line.starts_with('#') {
            out.push(line.to_string());
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap_or(series);
        if name.ends_with("_bucket") && !series.contains("le=\"+Inf\"") {
            continue;
        }
        let masked = name.starts_with("lcl_uptime") || name.ends_with("_micros_sum");
        out.push(format!("{series} {}", if masked { "*" } else { value }));
    }
}

fn shape() -> String {
    let (stats, expo) = render_both();
    let mut out = vec!["## stats".to_string()];
    stats_shape(&stats, "", &mut out);
    out.push("## exposition".to_string());
    exposition_shape(&expo, &mut out);
    out.join("\n") + "\n"
}

#[test]
fn stats_and_exposition_match_the_recorded_shape() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    let actual = shape();
    for (at, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden line {} differs", at + 1);
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "golden and rendered shapes differ in length"
    );
}

#[test]
fn the_shape_is_stable_across_fresh_services() {
    assert_eq!(shape(), shape());
}

/// Re-records the golden file from the current build.
#[test]
#[ignore = "re-records tests/data/metrics_golden.txt"]
fn record_the_golden() {
    std::fs::write(GOLDEN_PATH, shape()).expect("write golden");
}
