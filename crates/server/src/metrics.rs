//! The counters a running [`Service`] keeps: the storage half of its
//! metrics. What they are called on the wire, and how the `stats` reply and
//! the metrics exposition render them, lives in one table in `expo.rs`.
//!
//! Every dispatched frame — including unparseable ones, which are accounted
//! under the `invalid` pseudo-kind — bumps one per-kind bucket (request
//! count, error count, cumulative and maximum latency) **and** one
//! [`LatencyHistogram`], so both views can report p50/p90/p99/p99.9 per
//! kind, not just mean/max. Accounted latencies are clamped to ≥ 1 µs: a
//! frame that was handled was not free, and the `invalid` histogram in
//! particular must never hide rejected frames behind zero-duration samples.
//! The scalar counters and gauges are one array indexed by [`Counter`], so
//! recording one is a single relaxed atomic operation.
//!
//! Histogram recording (not the plain counters) is gated by the *detailed*
//! flag ([`ServerMetrics::set_detailed`]): the no-op-recorder mode the
//! throughput bench compares against to bound observability overhead.
//!
//! [`Service`]: crate::Service

use crate::service::RequestKind;
use lcl_paths::classifier::obs::{HistogramSnapshot, LatencyHistogram};
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

/// The scalar counters and gauges of a [`ServerMetrics`], read with
/// [`ServerMetrics::get`]; the HELP text of each one's exposition family
/// says exactly what it counts.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Pipelined requests in flight (a gauge).
    PipelineInflight,
    /// High-water mark of `PipelineInflight`.
    PipelinePeak,
    /// Open TCP connections (a gauge).
    ConnectionsOpen,
    /// High-water mark of `ConnectionsOpen`.
    ConnectionsPeak,
    /// Connections accepted.
    ConnectionsAccepted,
    /// Connections refused by the `--max-conns` cap.
    ConnectionsRejected,
    /// Reactor returns from `epoll_wait`.
    ReactorWakeups,
    /// Pool completions the reactor consumed.
    ReactorCompletions,
    /// `classify` replies spliced from cached bytes.
    SplicedFrames,
    /// Vectored reply flushes on the reactor.
    WritevBatches,
}

/// How many [`Counter`]s there are.
pub(crate) const COUNTERS: usize = Counter::WritevBatches as usize + 1;

/// Per-kind buckets: one per [`RequestKind`], in [`RequestKind::ALL`]
/// order, then `invalid`.
const KINDS: usize = RequestKind::ALL.len() + 1;

/// The serving front-end a service runs under, for the `stats` reply and
/// the exposition's `build_info` (`none` before one registers).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The epoll reactor serving TCP.
    Reactor = 1,
    /// The stdio pipe front-end.
    Stdio = 2,
}

/// Request counters and gauges of a running service. All methods are
/// lock-free and safe to call from any connection thread.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Indexed by [`RequestKind`], with `invalid` (frames that never
    /// resolved to a known kind) last.
    kinds: [KindCounters; KINDS],
    /// `solve_stream` time-to-first-chunk: request read to the first chunk
    /// frame handed to the writer. The per-kind `solve_stream` histogram is
    /// the full drain; splitting the two is what keeps streaming latency
    /// from hiding behind drain time.
    stream_first_chunk: LatencyHistogram,
    /// Whether histogram recording is on (the plain counters always are).
    detailed: AtomicBool,
    /// The registered [`Backend`] as its discriminant, 0 before any.
    /// Last-started front-end wins when several share one service (the
    /// `--smoke` harness does this deliberately).
    backend: AtomicU8,
    /// Indexed by [`Counter`].
    counters: [AtomicU64; COUNTERS],
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            kinds: Default::default(),
            stream_first_chunk: LatencyHistogram::new(),
            detailed: AtomicBool::new(true),
            backend: AtomicU8::new(0),
            counters: Default::default(),
        }
    }
}

impl ServerMetrics {
    fn kind(&self, kind: Option<RequestKind>) -> &KindCounters {
        &self.kinds[kind.map_or(KINDS - 1, |kind| kind as usize)]
    }

    /// Records one handled frame (`None` = unparseable / unknown kind).
    ///
    /// For requests dispatched through the pipelined path the elapsed time
    /// is measured from frame parse to reply production, so it *includes*
    /// the time the job spent queued behind the worker pool — the latency a
    /// pipelined client observes, not just the compute time.
    pub(crate) fn record(&self, kind: Option<RequestKind>, elapsed: Duration, ok: bool) {
        self.kind(kind).record(elapsed, ok, self.detailed());
    }

    /// Records one frame rejected at admission (load shed or quota denial).
    /// Callers must *also* call [`record`](Self::record) for the frame so
    /// the count/error/latency accounting stays symmetric with served
    /// frames; this only bumps the dedicated shed tally.
    pub(crate) fn record_shed(&self, kind: Option<RequestKind>) {
        self.kind(kind).shed.fetch_add(1, Ordering::Relaxed);
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

    /// Registers the serving front-end; the last started front-end wins
    /// when several share one service.
    pub fn set_backend(&self, backend: Backend) {
        self.backend.store(backend as u8, Ordering::Relaxed);
    }

    /// The registered serving front-end's wire name: `reactor`, `stdio`, or
    /// `none` before any registered.
    pub fn backend_name(&self) -> &'static str {
        match self.backend.load(Ordering::Relaxed) {
            1 => "reactor",
            2 => "stdio",
            _ => "none",
        }
    }

    /// Adds `n` to one counter.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a gauge by one and its high-water mark `peak` with it.
    pub(crate) fn enter(&self, gauge: Counter, peak: Counter) {
        let now = self.counters[gauge as usize].fetch_add(1, Ordering::Relaxed) + 1;
        self.counters[peak as usize].fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers a gauge by one.
    pub(crate) fn leave(&self, gauge: Counter) {
        self.counters[gauge as usize].fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value of one counter or gauge.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Every counter's current value, indexed by [`Counter`].
    pub(crate) fn counters(&self) -> [u64; COUNTERS] {
        self.counters
            .each_ref()
            .map(|counter| counter.load(Ordering::Relaxed))
    }

    /// Snapshot of one kind's counters (`None` = the `invalid` pseudo-kind).
    pub fn snapshot(&self, kind: Option<RequestKind>) -> KindStats {
        self.kind(kind).snapshot()
    }

    /// Snapshot of one kind's latency histogram (`None` = the `invalid`
    /// pseudo-kind). Empty while detailed metrics are off.
    pub fn histogram(&self, kind: Option<RequestKind>) -> HistogramSnapshot {
        self.kind(kind).histogram.snapshot()
    }

    /// Snapshot of the `solve_stream` time-to-first-chunk histogram (the
    /// per-kind `solve_stream` histogram is the full drain).
    pub fn stream_first_chunk_histogram(&self) -> HistogramSnapshot {
        self.stream_first_chunk.snapshot()
    }

    /// Total number of frames handled, across all kinds (including invalid
    /// ones).
    pub fn requests_served(&self) -> u64 {
        self.kinds
            .iter()
            .map(|kind| kind.count.load(Ordering::Relaxed))
            .sum()
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
        metrics.set_backend(Backend::Reactor);
        assert_eq!(metrics.backend_name(), "reactor");
        metrics.set_backend(Backend::Stdio);
        assert_eq!(metrics.backend_name(), "stdio");
        metrics.set_backend(Backend::Reactor);
        assert_eq!(metrics.backend_name(), "reactor");
    }

    #[test]
    fn connection_gauges_track_open_peak_accepted_rejected() {
        let metrics = ServerMetrics::default();
        let open = || {
            metrics.add(Counter::ConnectionsAccepted, 1);
            metrics.enter(Counter::ConnectionsOpen, Counter::ConnectionsPeak);
        };
        open();
        open();
        open();
        assert_eq!(metrics.get(Counter::ConnectionsOpen), 3);
        assert_eq!(metrics.get(Counter::ConnectionsPeak), 3);
        assert_eq!(metrics.get(Counter::ConnectionsAccepted), 3);
        metrics.leave(Counter::ConnectionsOpen);
        metrics.leave(Counter::ConnectionsOpen);
        assert_eq!(metrics.get(Counter::ConnectionsOpen), 1);
        assert_eq!(
            metrics.get(Counter::ConnectionsPeak),
            3,
            "peak is a high-water mark"
        );
        metrics.add(Counter::ConnectionsRejected, 1);
        assert_eq!(metrics.get(Counter::ConnectionsRejected), 1);
        assert_eq!(
            metrics.get(Counter::ConnectionsAccepted),
            3,
            "rejected connections are not accepted ones"
        );

        metrics.add(Counter::ReactorWakeups, 1);
        metrics.add(Counter::ReactorCompletions, 5);
        assert_eq!(metrics.get(Counter::ReactorWakeups), 1);
        assert_eq!(metrics.get(Counter::ReactorCompletions), 5);
        assert_eq!(metrics.get(Counter::WritevBatches), 0, "counters are apart");
    }

    #[test]
    fn pipeline_gauges_track_inflight_and_peak() {
        let metrics = ServerMetrics::default();
        let enter = || metrics.enter(Counter::PipelineInflight, Counter::PipelinePeak);
        assert_eq!(metrics.get(Counter::PipelineInflight), 0);
        enter();
        enter();
        enter();
        assert_eq!(metrics.get(Counter::PipelineInflight), 3);
        assert_eq!(metrics.get(Counter::PipelinePeak), 3);
        metrics.leave(Counter::PipelineInflight);
        metrics.leave(Counter::PipelineInflight);
        assert_eq!(metrics.get(Counter::PipelineInflight), 1);
        assert_eq!(
            metrics.get(Counter::PipelinePeak),
            3,
            "peak is a high-water mark"
        );
        enter();
        assert_eq!(
            metrics.get(Counter::PipelinePeak),
            3,
            "returning below peak keeps it"
        );
    }
}
