//! Per-kind request counters and latency metrics of a running [`Service`].
//!
//! Every dispatched frame — including unparseable ones, which are accounted
//! under the `invalid` pseudo-kind — bumps one [`KindStats`] bucket (request
//! count, error count, cumulative and maximum latency) **and** one
//! [`LatencyHistogram`], so the `stats` reply and the `metrics` exposition
//! can report p50/p90/p99/p99.9 per kind, not just mean/max. Accounted
//! latencies are clamped to ≥ 1 µs: a frame that was handled was not free,
//! and the `invalid` histogram in particular must never hide rejected
//! frames behind zero-duration samples.
//!
//! Histogram recording (not the plain counters) is gated by the *detailed*
//! flag ([`ServerMetrics::set_detailed`]): the no-op-recorder mode the
//! throughput bench compares against to bound observability overhead.
//!
//! [`Service`]: crate::Service

use crate::service::RequestKind;
use lcl_paths::classifier::obs::{HistogramSnapshot, LatencyHistogram};
use lcl_paths::problem::json::JsonValue;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Clamps an accounted latency to at least one microsecond: every handled
/// frame must leave a nonzero trail in its histogram.
fn accounted_micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
}

/// Lock-free counters for one request kind.
#[derive(Debug, Default)]
struct KindCounters {
    count: AtomicU64,
    errors: AtomicU64,
    /// Frames rejected at admission (load shed or quota). A shed frame is
    /// also counted in `count`/`errors` and its (sub-millisecond) handling
    /// latency lands in the histogram like any other reply — admission
    /// rejections must never be invisible in the latency accounting.
    shed: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    histogram: LatencyHistogram,
}

impl KindCounters {
    fn record(&self, elapsed: Duration, ok: bool, detailed: bool) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let micros = accounted_micros(elapsed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        if detailed {
            self.histogram.record(micros);
        }
    }

    fn snapshot(&self) -> KindStats {
        KindStats {
            count: self.count.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one request kind's counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct KindStats {
    /// Requests of this kind handled (successful or not).
    pub count: u64,
    /// Requests of this kind that produced an error reply.
    pub errors: u64,
    /// Requests of this kind rejected at admission (load shed or quota);
    /// every shed frame is also counted in `count` and `errors`.
    pub shed: u64,
    /// Cumulative handling latency, in microseconds.
    pub total_micros: u64,
    /// Largest single-request handling latency, in microseconds.
    pub max_micros: u64,
}

impl KindStats {
    /// Mean handling latency in microseconds (0 before any request).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-kind request counters of a running service. All methods are lock-free
/// and safe to call from any connection thread.
#[derive(Debug)]
pub struct ServerMetrics {
    classify: KindCounters,
    classify_many: KindCounters,
    solve: KindCounters,
    solve_stream: KindCounters,
    generate: KindCounters,
    stats: KindCounters,
    health: KindCounters,
    metrics: KindCounters,
    snapshot: KindCounters,
    /// Frames that never resolved to a known request kind.
    invalid: KindCounters,
    /// `solve_stream` time-to-first-chunk: request read to the first chunk
    /// frame handed to the writer. The per-kind `solve_stream` histogram is
    /// the full drain; splitting the two is what keeps streaming latency
    /// from hiding behind drain time.
    stream_first_chunk: LatencyHistogram,
    /// Whether histogram recording is on (the plain counters always are).
    detailed: AtomicBool,
    /// The serving front-end, for the `stats` reply and the exposition's
    /// `build_info`: 0 = none yet, 1 = reactor, 2 = stdio.
    /// Last-started front-end wins when several share one service (the
    /// `--smoke` harness does this deliberately).
    backend: AtomicU8,
    /// Requests currently dispatched to the worker pool by pipelined
    /// connections and not yet answered (a gauge, not a counter).
    pipelined_inflight: AtomicU64,
    /// High-water mark of `pipelined_inflight` since the service started.
    pipelined_peak: AtomicU64,
    /// Currently open TCP connections (a gauge).
    open_connections: AtomicU64,
    /// High-water mark of `open_connections` since the service started.
    peak_connections: AtomicU64,
    /// Connections accepted and served since the service started.
    total_accepted: AtomicU64,
    /// Connections closed at accept time by the `--max-conns` cap.
    total_rejected: AtomicU64,
    /// TCP only: times the reactor's event loop woke from `epoll_wait`.
    reactor_wakeups: AtomicU64,
    /// TCP only: completed worker-pool jobs whose eventfd
    /// notification the reactor consumed.
    reactor_completions: AtomicU64,
    /// `classify` replies answered by the zero-serialization fast lane: the
    /// cached payload bytes were spliced around the request id instead of
    /// serializing the verdict ([`crate::SplicedReply`]).
    spliced_frames: AtomicU64,
    /// TCP only: successful `writev` calls that flushed
    /// connection output (each gathers up to a batch of reply segments —
    /// compare with `reactor_wakeups` for the coalescing ratio).
    writev_batches: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            classify: KindCounters::default(),
            classify_many: KindCounters::default(),
            solve: KindCounters::default(),
            solve_stream: KindCounters::default(),
            generate: KindCounters::default(),
            stats: KindCounters::default(),
            health: KindCounters::default(),
            metrics: KindCounters::default(),
            snapshot: KindCounters::default(),
            invalid: KindCounters::default(),
            stream_first_chunk: LatencyHistogram::new(),
            detailed: AtomicBool::new(true),
            backend: AtomicU8::new(0),
            pipelined_inflight: AtomicU64::new(0),
            pipelined_peak: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            total_accepted: AtomicU64::new(0),
            total_rejected: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_completions: AtomicU64::new(0),
            spliced_frames: AtomicU64::new(0),
            writev_batches: AtomicU64::new(0),
        }
    }
}

impl ServerMetrics {
    fn counters(&self, kind: Option<RequestKind>) -> &KindCounters {
        match kind {
            Some(RequestKind::Classify) => &self.classify,
            Some(RequestKind::ClassifyMany) => &self.classify_many,
            Some(RequestKind::Solve) => &self.solve,
            Some(RequestKind::SolveStream) => &self.solve_stream,
            Some(RequestKind::Generate) => &self.generate,
            Some(RequestKind::Stats) => &self.stats,
            Some(RequestKind::Health) => &self.health,
            Some(RequestKind::Metrics) => &self.metrics,
            Some(RequestKind::Snapshot) => &self.snapshot,
            None => &self.invalid,
        }
    }

    /// Records one handled frame (`None` = unparseable / unknown kind).
    ///
    /// For requests dispatched through the pipelined path the elapsed time
    /// is measured from frame parse to reply production, so it *includes*
    /// the time the job spent queued behind the worker pool — the latency a
    /// pipelined client observes, not just the compute time.
    pub(crate) fn record(&self, kind: Option<RequestKind>, elapsed: Duration, ok: bool) {
        self.counters(kind).record(elapsed, ok, self.detailed());
    }

    /// Records one frame rejected at admission (load shed or quota denial).
    /// Callers must *also* call [`record`](Self::record) for the frame so
    /// the count/error/latency accounting stays symmetric with served
    /// frames; this only bumps the dedicated shed tally.
    pub(crate) fn record_shed(&self, kind: Option<RequestKind>) {
        self.counters(kind).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `solve_stream` request's time-to-first-chunk (request read
    /// to the first chunk frame leaving the handler).
    pub(crate) fn record_stream_first_chunk(&self, elapsed: Duration) {
        if self.detailed() {
            self.stream_first_chunk.record(accounted_micros(elapsed));
        }
    }

    /// Turns histogram recording on or off. Off is the no-op-recorder mode
    /// the throughput bench compares against; the plain count/error/mean/max
    /// counters keep working either way. On by default.
    pub fn set_detailed(&self, detailed: bool) {
        self.detailed.store(detailed, Ordering::Relaxed);
    }

    /// Whether histogram recording (and per-request tracing) is on.
    pub fn detailed(&self) -> bool {
        self.detailed.load(Ordering::Relaxed)
    }

    /// Registers the serving front-end by name (`reactor` or `stdio`); the
    /// last started front-end wins when several share one service.
    pub fn set_backend(&self, name: &str) {
        let code = match name {
            "reactor" => 1,
            "stdio" => 2,
            _ => 0,
        };
        self.backend.store(code, Ordering::Relaxed);
    }

    /// The registered serving front-end (`none` before any registered).
    pub fn backend_name(&self) -> &'static str {
        match self.backend.load(Ordering::Relaxed) {
            1 => "reactor",
            2 => "stdio",
            _ => "none",
        }
    }

    /// Accounts one request entering the pipelined in-flight window,
    /// updating the high-water mark.
    pub(crate) fn pipeline_enter(&self) {
        let now = self.pipelined_inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.pipelined_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts one pipelined request leaving the window (its reply was
    /// produced — successfully or not).
    pub(crate) fn pipeline_exit(&self) {
        self.pipelined_inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts one accepted connection entering service, updating the
    /// open-connection gauge and its high-water mark.
    pub(crate) fn connection_opened(&self) {
        self.total_accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts one connection leaving service (EOF, error or shutdown).
    pub(crate) fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts one connection closed at accept time by the `--max-conns`
    /// cap.
    pub(crate) fn connection_rejected(&self) {
        self.total_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one return from the reactor's `epoll_wait`.
    pub(crate) fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts `n` job-completion notifications consumed by the reactor.
    pub(crate) fn reactor_completions(&self, n: u64) {
        self.reactor_completions.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts one `classify` reply answered by the zero-serialization
    /// fast lane (cached payload bytes spliced around the request id).
    pub(crate) fn record_spliced_frame(&self) {
        self.spliced_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one successful vectored write flushing connection output on
    /// the reactor.
    pub(crate) fn record_writev_batch(&self) {
        self.writev_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// The largest number of simultaneously open connections observed since
    /// the service started.
    pub fn peak_connections(&self) -> u64 {
        self.peak_connections.load(Ordering::Relaxed)
    }

    /// Connections accepted and served since the service started (rejected
    /// ones are counted separately).
    pub fn total_accepted(&self) -> u64 {
        self.total_accepted.load(Ordering::Relaxed)
    }

    /// Connections closed at accept time by the `--max-conns` cap.
    pub fn total_rejected(&self) -> u64 {
        self.total_rejected.load(Ordering::Relaxed)
    }

    /// Requests currently dispatched by pipelined connections and not yet
    /// answered.
    pub fn pipelined_inflight(&self) -> u64 {
        self.pipelined_inflight.load(Ordering::Relaxed)
    }

    /// The largest number of simultaneously in-flight pipelined requests
    /// observed since the service started.
    pub fn pipelined_peak(&self) -> u64 {
        self.pipelined_peak.load(Ordering::Relaxed)
    }

    /// Times the reactor's event loop woke from `epoll_wait` (0 on stdio).
    pub fn reactor_wakeups(&self) -> u64 {
        self.reactor_wakeups.load(Ordering::Relaxed)
    }

    /// Completed worker-pool jobs whose eventfd notification the reactor
    /// consumed (0 on stdio).
    pub fn reactor_completion_count(&self) -> u64 {
        self.reactor_completions.load(Ordering::Relaxed)
    }

    /// `classify` replies answered by the zero-serialization fast lane.
    pub fn spliced_frames(&self) -> u64 {
        self.spliced_frames.load(Ordering::Relaxed)
    }

    /// Successful vectored writes flushing connection output (0 on stdio).
    pub fn writev_batches(&self) -> u64 {
        self.writev_batches.load(Ordering::Relaxed)
    }

    /// Snapshot of one kind's counters (`None` = the `invalid` pseudo-kind).
    pub fn snapshot(&self, kind: Option<RequestKind>) -> KindStats {
        self.counters(kind).snapshot()
    }

    /// Snapshot of one kind's latency histogram (`None` = the `invalid`
    /// pseudo-kind). Empty while detailed metrics are off.
    pub fn histogram(&self, kind: Option<RequestKind>) -> HistogramSnapshot {
        self.counters(kind).histogram.snapshot()
    }

    /// Snapshot of the `solve_stream` time-to-first-chunk histogram (the
    /// per-kind `solve_stream` histogram is the full drain).
    pub fn stream_first_chunk_histogram(&self) -> HistogramSnapshot {
        self.stream_first_chunk.snapshot()
    }

    /// Total number of frames handled, across all kinds (including invalid
    /// ones).
    pub fn requests_served(&self) -> u64 {
        RequestKind::ALL
            .iter()
            .map(|&k| self.snapshot(Some(k)).count)
            .sum::<u64>()
            + self.snapshot(None).count
    }

    /// Serializes all counters for the `stats` response payload. Per-kind
    /// quantiles come from the latency histograms and are upper-bound
    /// estimates with ≤ 12.5% relative error (0 while detailed metrics are
    /// off).
    pub fn to_json(&self) -> JsonValue {
        let kind_json = |kind: Option<RequestKind>| {
            let stats = self.snapshot(kind);
            let histogram = self.histogram(kind);
            JsonValue::object([
                ("count", JsonValue::Int(stats.count as i64)),
                ("errors", JsonValue::Int(stats.errors as i64)),
                ("shed", JsonValue::Int(stats.shed as i64)),
                ("total_micros", JsonValue::Int(stats.total_micros as i64)),
                ("max_micros", JsonValue::Int(stats.max_micros as i64)),
                ("mean_micros", JsonValue::Int(stats.mean_micros() as i64)),
                (
                    "p50_micros",
                    JsonValue::Int(histogram.quantile(0.50) as i64),
                ),
                (
                    "p90_micros",
                    JsonValue::Int(histogram.quantile(0.90) as i64),
                ),
                (
                    "p99_micros",
                    JsonValue::Int(histogram.quantile(0.99) as i64),
                ),
                (
                    "p999_micros",
                    JsonValue::Int(histogram.quantile(0.999) as i64),
                ),
            ])
        };
        let first_chunk = self.stream_first_chunk_histogram();
        JsonValue::object([
            (
                "requests_served",
                JsonValue::Int(self.requests_served() as i64),
            ),
            (
                "pipeline",
                JsonValue::object([
                    ("inflight", JsonValue::Int(self.pipelined_inflight() as i64)),
                    (
                        "peak_inflight",
                        JsonValue::Int(self.pipelined_peak() as i64),
                    ),
                ]),
            ),
            (
                "connections",
                JsonValue::object([
                    ("open", JsonValue::Int(self.open_connections() as i64)),
                    ("peak", JsonValue::Int(self.peak_connections() as i64)),
                    ("accepted", JsonValue::Int(self.total_accepted() as i64)),
                    ("rejected", JsonValue::Int(self.total_rejected() as i64)),
                ]),
            ),
            (
                "reactor",
                JsonValue::object([
                    ("wakeups", JsonValue::Int(self.reactor_wakeups() as i64)),
                    (
                        "completions",
                        JsonValue::Int(self.reactor_completion_count() as i64),
                    ),
                ]),
            ),
            (
                "spliced_frames",
                JsonValue::Int(self.spliced_frames() as i64),
            ),
            (
                "writev_batches",
                JsonValue::Int(self.writev_batches() as i64),
            ),
            (
                "stream_first_chunk",
                JsonValue::object([
                    ("count", JsonValue::Int(first_chunk.count as i64)),
                    ("mean_micros", JsonValue::Int(first_chunk.mean() as i64)),
                    ("max_micros", JsonValue::Int(first_chunk.max as i64)),
                    (
                        "p50_micros",
                        JsonValue::Int(first_chunk.quantile(0.50) as i64),
                    ),
                    (
                        "p99_micros",
                        JsonValue::Int(first_chunk.quantile(0.99) as i64),
                    ),
                ]),
            ),
            (
                "kinds",
                JsonValue::object([
                    ("classify", kind_json(Some(RequestKind::Classify))),
                    ("classify_many", kind_json(Some(RequestKind::ClassifyMany))),
                    ("solve", kind_json(Some(RequestKind::Solve))),
                    ("solve_stream", kind_json(Some(RequestKind::SolveStream))),
                    ("generate", kind_json(Some(RequestKind::Generate))),
                    ("stats", kind_json(Some(RequestKind::Stats))),
                    ("health", kind_json(Some(RequestKind::Health))),
                    ("metrics", kind_json(Some(RequestKind::Metrics))),
                    ("snapshot", kind_json(Some(RequestKind::Snapshot))),
                    ("invalid", kind_json(None)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_kind() {
        let metrics = ServerMetrics::default();
        metrics.record(Some(RequestKind::Classify), Duration::from_micros(10), true);
        metrics.record(
            Some(RequestKind::Classify),
            Duration::from_micros(30),
            false,
        );
        metrics.record(None, Duration::from_micros(5), false);

        let classify = metrics.snapshot(Some(RequestKind::Classify));
        assert_eq!(classify.count, 2);
        assert_eq!(classify.errors, 1);
        assert_eq!(classify.total_micros, 40);
        assert_eq!(classify.max_micros, 30);
        assert_eq!(classify.mean_micros(), 20);

        assert_eq!(metrics.snapshot(Some(RequestKind::Solve)).count, 0);
        assert_eq!(metrics.snapshot(None).errors, 1);
        assert_eq!(metrics.requests_served(), 3);

        let json = metrics.to_json().to_json_string();
        assert!(json.contains("\"requests_served\":3"), "{json}");
        assert!(json.contains("\"invalid\""), "{json}");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(json.contains("\"p99_micros\""), "{json}");
    }

    #[test]
    fn shed_frames_keep_latency_accounting_symmetric() {
        let metrics = ServerMetrics::default();
        // A shed frame records through both channels, like the dispatch
        // path does: the regular record() plus the shed tally.
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(7), false);
        metrics.record_shed(Some(RequestKind::Solve));
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(90), true);

        let solve = metrics.snapshot(Some(RequestKind::Solve));
        assert_eq!(solve.count, 2);
        assert_eq!(solve.errors, 1);
        assert_eq!(solve.shed, 1);
        let histogram = metrics.histogram(Some(RequestKind::Solve));
        assert_eq!(
            histogram.count, solve.count,
            "shed frames must land in the histogram too"
        );
        assert_eq!(metrics.snapshot(Some(RequestKind::Classify)).shed, 0);

        let json = metrics.to_json().to_json_string();
        assert!(json.contains("\"shed\":1"), "{json}");
        assert!(json.contains("\"shed\":0"), "{json}");
    }

    #[test]
    fn histograms_mirror_the_counters_and_report_quantiles() {
        let metrics = ServerMetrics::default();
        for micros in [10u64, 20, 30, 40, 1000] {
            metrics.record(
                Some(RequestKind::Solve),
                Duration::from_micros(micros),
                true,
            );
        }
        let stats = metrics.snapshot(Some(RequestKind::Solve));
        let histogram = metrics.histogram(Some(RequestKind::Solve));
        assert_eq!(histogram.count, stats.count);
        assert_eq!(histogram.sum, stats.total_micros);
        assert_eq!(histogram.max, stats.max_micros);
        assert!(histogram.quantile(0.5) >= 20 && histogram.quantile(0.5) <= 40);
        assert_eq!(histogram.quantile(1.0), 1000);
    }

    #[test]
    fn accounted_latency_is_never_zero() {
        let metrics = ServerMetrics::default();
        metrics.record(None, Duration::ZERO, false);
        let invalid = metrics.snapshot(None);
        assert_eq!(invalid.count, 1);
        assert_eq!(invalid.total_micros, 1, "zero elapsed clamps to 1µs");
        assert_eq!(invalid.max_micros, 1);
        let histogram = metrics.histogram(None);
        assert_eq!(histogram.count, 1);
        assert_eq!(histogram.sum, 1);
    }

    #[test]
    fn detailed_off_skips_histograms_but_keeps_counters() {
        let metrics = ServerMetrics::default();
        assert!(metrics.detailed(), "detailed is the default");
        metrics.set_detailed(false);
        metrics.record(Some(RequestKind::Classify), Duration::from_micros(50), true);
        metrics.record_stream_first_chunk(Duration::from_micros(5));
        assert_eq!(metrics.snapshot(Some(RequestKind::Classify)).count, 1);
        assert_eq!(metrics.histogram(Some(RequestKind::Classify)).count, 0);
        assert_eq!(metrics.stream_first_chunk_histogram().count, 0);
        metrics.set_detailed(true);
        metrics.record_stream_first_chunk(Duration::from_micros(5));
        assert_eq!(metrics.stream_first_chunk_histogram().count, 1);
    }

    #[test]
    fn backend_registration_is_last_wins() {
        let metrics = ServerMetrics::default();
        assert_eq!(metrics.backend_name(), "none");
        metrics.set_backend("reactor");
        assert_eq!(metrics.backend_name(), "reactor");
        metrics.set_backend("stdio");
        assert_eq!(metrics.backend_name(), "stdio");
        metrics.set_backend("bogus");
        assert_eq!(metrics.backend_name(), "none");
    }

    #[test]
    fn connection_gauges_track_open_peak_accepted_rejected() {
        let metrics = ServerMetrics::default();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.connection_opened();
        assert_eq!(metrics.open_connections(), 3);
        assert_eq!(metrics.peak_connections(), 3);
        assert_eq!(metrics.total_accepted(), 3);
        metrics.connection_closed();
        metrics.connection_closed();
        assert_eq!(metrics.open_connections(), 1);
        assert_eq!(metrics.peak_connections(), 3, "peak is a high-water mark");
        metrics.connection_rejected();
        assert_eq!(metrics.total_rejected(), 1);
        assert_eq!(
            metrics.total_accepted(),
            3,
            "rejected connections are not accepted ones"
        );

        metrics.reactor_wakeup();
        metrics.reactor_completions(5);
        assert_eq!(metrics.reactor_wakeups(), 1);
        assert_eq!(metrics.reactor_completion_count(), 5);

        let json = metrics.to_json().to_json_string();
        assert!(json.contains("\"connections\""), "{json}");
        assert!(json.contains("\"peak\":3"), "{json}");
        assert!(json.contains("\"rejected\":1"), "{json}");
        assert!(json.contains("\"reactor\""), "{json}");
        assert!(json.contains("\"completions\":5"), "{json}");
    }

    #[test]
    fn pipeline_gauges_track_inflight_and_peak() {
        let metrics = ServerMetrics::default();
        assert_eq!(metrics.pipelined_inflight(), 0);
        metrics.pipeline_enter();
        metrics.pipeline_enter();
        metrics.pipeline_enter();
        assert_eq!(metrics.pipelined_inflight(), 3);
        assert_eq!(metrics.pipelined_peak(), 3);
        metrics.pipeline_exit();
        metrics.pipeline_exit();
        assert_eq!(metrics.pipelined_inflight(), 1);
        assert_eq!(metrics.pipelined_peak(), 3, "peak is a high-water mark");
        metrics.pipeline_enter();
        assert_eq!(metrics.pipelined_peak(), 3, "returning below peak keeps it");

        let json = metrics.to_json().to_json_string();
        assert!(json.contains("\"pipeline\""), "{json}");
        assert!(json.contains("\"peak_inflight\":3"), "{json}");
    }
}
