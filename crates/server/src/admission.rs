//! Admission control: load shedding and per-client quotas.
//!
//! Both checks run at dispatch time, *before* a frame takes a worker-pool
//! slot or a pipeline in-flight slot, and both reject with the structured
//! `overloaded` error category (retryable, with a `retry_after_millis`
//! hint) so well-behaved clients can back off instead of piling on.
//!
//! * **Load shedding** ([`ShedPolicy`]) — trips on either of two signals:
//!   the worker pool's queue depth (`--shed-queue-depth`: jobs submitted
//!   but not yet picked up) or the per-kind latency p99
//!   (`--shed-p99-micros`, read from the detailed-metrics histograms).
//!   Shedding is *global*: once the server is saturated, every compute
//!   frame is cheap-rejected until the backlog drains, which is what keeps
//!   shed replies fast (they never queue behind the work that caused the
//!   overload).
//! * **Per-client quotas** ([`QuotaLimiter`]) — a token bucket per peer
//!   address (`--quota-rps` / `--quota-burst`). A client that exceeds its
//!   rate is rejected individually, before the global shed signals are
//!   even consulted, so one greedy client cannot push the server into
//!   shedding everyone else.
//!
//! Control kinds (`stats`, `health`, `metrics`, `snapshot`) are always
//! admitted — an operator must be able to observe an overloaded server —
//! and replies served by the splice fast lane bypass admission entirely
//! (splicing cached bytes is cheaper than building a shed reply would be).

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Admission rejections never suggest waiting less than this.
const MIN_RETRY_MILLIS: u64 = 10;

/// Admission rejections never suggest waiting longer than this.
const MAX_RETRY_MILLIS: u64 = 5_000;

/// Per-peer quota buckets are capped at this many tracked peers; beyond
/// it, stale buckets are evicted before a new peer is admitted, and when
/// none is stale the newcomer shares the sentinel bucket.
const MAX_TRACKED_PEERS: usize = 10_000;

/// Admission-control thresholds, all disabled (0) by default.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Shed compute frames whose kind's latency p99 exceeds this many
    /// microseconds (0 = disabled). Needs detailed metrics: with
    /// histograms off the p99 reads 0 and this signal is inert.
    pub shed_p99_micros: u64,
    /// Shed compute frames while the worker pool has at least this many
    /// queued jobs (0 = disabled).
    pub shed_queue_depth: usize,
    /// Steady-state per-peer request rate in requests/second
    /// (0 = disabled).
    pub quota_rps: u64,
    /// Per-peer burst allowance in requests; defaults to `quota_rps` when
    /// left 0 with a nonzero rate.
    pub quota_burst: u64,
}

impl AdmissionConfig {
    /// Whether any admission check is configured.
    pub fn is_enabled(&self) -> bool {
        self.shed_p99_micros > 0 || self.shed_queue_depth > 0 || self.quota_rps > 0
    }
}

/// One admission rejection: the human-readable reason and the back-off
/// hint that go into the `overloaded` error reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Denial {
    /// Goes into the error reply's `message`.
    pub message: String,
    /// Goes into the error reply's `retry_after_millis` hint.
    pub retry_after_millis: u64,
}

/// The load-shedding thresholds and their trip logic. Stateless: the
/// signals (queue depth, worker count, per-kind p99) are sampled by the
/// caller at dispatch time.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ShedPolicy {
    p99_micros: u64,
    queue_depth: usize,
}

impl ShedPolicy {
    pub(crate) fn new(config: &AdmissionConfig) -> Option<ShedPolicy> {
        if config.shed_p99_micros == 0 && config.shed_queue_depth == 0 {
            return None;
        }
        Some(ShedPolicy {
            p99_micros: config.shed_p99_micros,
            queue_depth: config.shed_queue_depth,
        })
    }

    /// Decides whether a compute frame must be shed given the sampled
    /// signals: the worker pool's current queue depth and worker count,
    /// and the requested kind's latency p99 in microseconds.
    pub(crate) fn evaluate(
        &self,
        queue_depth: usize,
        workers: usize,
        p99_micros: u64,
    ) -> Option<Denial> {
        if self.queue_depth > 0 && queue_depth >= self.queue_depth {
            // The deeper the backlog relative to the workers draining it,
            // the longer the suggested back-off.
            let per_worker = queue_depth / workers.max(1);
            let retry = (10 + 5 * per_worker as u64).clamp(MIN_RETRY_MILLIS, MAX_RETRY_MILLIS);
            return Some(Denial {
                message: format!(
                    "overloaded: {queue_depth} jobs queued (shedding at {})",
                    self.queue_depth
                ),
                retry_after_millis: retry,
            });
        }
        if self.p99_micros > 0 && p99_micros > self.p99_micros {
            let retry = (p99_micros / 1_000).clamp(MIN_RETRY_MILLIS, MAX_RETRY_MILLIS);
            return Some(Denial {
                message: format!(
                    "overloaded: p99 latency {p99_micros}µs exceeds {}µs",
                    self.p99_micros
                ),
                retry_after_millis: retry,
            });
        }
        None
    }
}

/// One peer's token bucket.
#[derive(Copy, Clone, Debug)]
struct Bucket {
    /// Fractional tokens currently available, in `0.0..=burst`.
    tokens: f64,
    /// When the bucket was last refilled.
    last: Instant,
}

/// A per-peer token-bucket rate limiter. Each admitted frame costs one
/// token; tokens refill at `rps` per second up to `burst`. Connections
/// without a peer address (stdio) share one sentinel bucket.
#[derive(Debug)]
pub(crate) struct QuotaLimiter {
    rps: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl QuotaLimiter {
    pub(crate) fn new(config: &AdmissionConfig) -> Option<QuotaLimiter> {
        if config.quota_rps == 0 {
            return None;
        }
        let burst = if config.quota_burst == 0 {
            config.quota_rps
        } else {
            config.quota_burst
        };
        Some(QuotaLimiter {
            rps: config.quota_rps as f64,
            burst: burst as f64,
            buckets: Mutex::new(HashMap::new()),
        })
    }

    /// The bucket peers without an address (stdio) are accounted under.
    pub(crate) fn sentinel_peer() -> IpAddr {
        IpAddr::from([0u8, 0, 0, 0])
    }

    /// Spends one token from `peer`'s bucket, or explains when to retry.
    /// `now` is injected so tests can drive time deterministically.
    pub(crate) fn admit(&self, peer: IpAddr, now: Instant) -> Result<(), Denial> {
        let mut buckets = match self.buckets.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        // A new peer only gets its own bucket while one slot stays free for
        // the sentinel bucket, which peers past the cap share.
        let sentinel = Self::sentinel_peer();
        let full = |buckets: &HashMap<IpAddr, Bucket>| {
            buckets.len() + usize::from(!buckets.contains_key(&sentinel)) >= MAX_TRACKED_PEERS
        };
        let mut peer = peer;
        if !buckets.contains_key(&peer) && full(&buckets) {
            // Evict refilled-to-burst buckets: they carry no state a fresh
            // bucket would not.
            let (rps, burst) = (self.rps, self.burst);
            buckets
                .retain(|_, bucket| refilled(bucket.tokens, bucket.last, now, rps, burst) < burst);
            // Every tracked peer is still limited: evicting one would hand
            // it a fresh burst, so the newcomer is accounted under the
            // sentinel bucket instead and the table stays within the cap.
            if full(&buckets) {
                peer = sentinel;
            }
        }
        let bucket = buckets.entry(peer).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        bucket.tokens = refilled(bucket.tokens, bucket.last, now, self.rps, self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - bucket.tokens;
        let retry = ((deficit / self.rps) * 1_000.0).ceil() as u64;
        Err(Denial {
            message: format!(
                "overloaded: per-client rate limit exceeded ({} requests/s, burst {})",
                self.rps, self.burst
            ),
            retry_after_millis: retry.clamp(MIN_RETRY_MILLIS, MAX_RETRY_MILLIS),
        })
    }

    /// Peers with live buckets (for tests and the eviction cap).
    #[cfg(test)]
    fn tracked_peers(&self) -> usize {
        match self.buckets.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }
}

/// The token count after refilling from `last` to `now` at `rps`, capped
/// at `burst`.
fn refilled(tokens: f64, last: Instant, now: Instant, rps: f64, burst: f64) -> f64 {
    let elapsed = now.saturating_duration_since(last).as_secs_f64();
    (tokens + elapsed * rps).min(burst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn config(p99: u64, queue: usize, rps: u64, burst: u64) -> AdmissionConfig {
        AdmissionConfig {
            shed_p99_micros: p99,
            shed_queue_depth: queue,
            quota_rps: rps,
            quota_burst: burst,
        }
    }

    #[test]
    fn disabled_config_builds_no_checkers() {
        let config = AdmissionConfig::default();
        assert!(!config.is_enabled());
        assert!(ShedPolicy::new(&config).is_none());
        assert!(QuotaLimiter::new(&config).is_none());
    }

    #[test]
    fn queue_depth_threshold_sheds_at_and_above() {
        let policy = ShedPolicy::new(&config(0, 8, 0, 0)).expect("enabled");
        assert!(policy.evaluate(7, 4, u64::MAX).is_none(), "below threshold");
        let denial = policy.evaluate(8, 4, 0).expect("at threshold");
        assert!(denial.message.contains("8 jobs queued"), "{denial:?}");
        assert_eq!(denial.retry_after_millis, 10 + 5 * 2);
        // A deep backlog suggests a longer wait, clamped to 5s.
        let deep = policy.evaluate(1_000_000, 1, 0).expect("deep backlog");
        assert_eq!(deep.retry_after_millis, MAX_RETRY_MILLIS);
        // Zero workers must not divide by zero.
        assert!(policy.evaluate(8, 0, 0).is_some());
    }

    #[test]
    fn p99_threshold_sheds_strictly_above() {
        let policy = ShedPolicy::new(&config(1_000, 0, 0, 0)).expect("enabled");
        assert!(policy.evaluate(usize::MAX, 1, 1_000).is_none(), "at = ok");
        let denial = policy.evaluate(0, 1, 250_000).expect("p99 blown");
        assert!(denial.message.contains("250000µs"), "{denial:?}");
        assert_eq!(denial.retry_after_millis, 250);
        // A barely-exceeded p99 still suggests the minimum wait.
        let barely = policy.evaluate(0, 1, 1_001).expect("barely over");
        assert_eq!(barely.retry_after_millis, MIN_RETRY_MILLIS);
    }

    #[test]
    fn queue_signal_wins_over_p99_when_both_trip() {
        let policy = ShedPolicy::new(&config(10, 1, 0, 0)).expect("enabled");
        let denial = policy.evaluate(5, 1, 99_999).expect("shed");
        assert!(denial.message.contains("jobs queued"), "{denial:?}");
    }

    #[test]
    fn quota_spends_burst_then_refills() {
        let limiter = QuotaLimiter::new(&config(0, 0, 10, 3)).expect("enabled");
        let peer = IpAddr::from([192, 0, 2, 7]);
        let t0 = Instant::now();
        for _ in 0..3 {
            limiter.admit(peer, t0).expect("burst admits");
        }
        let denial = limiter.admit(peer, t0).expect_err("burst spent");
        assert!(denial.message.contains("rate limit"), "{denial:?}");
        // One token refills after 1/rps = 100ms.
        assert!(denial.retry_after_millis >= 100);
        limiter
            .admit(peer, t0 + Duration::from_millis(150))
            .expect("a token refilled");
        // A different peer has its own untouched bucket.
        limiter
            .admit(IpAddr::from([192, 0, 2, 8]), t0)
            .expect("fresh peer admits");
    }

    #[test]
    fn quota_refill_is_capped_at_burst() {
        let limiter = QuotaLimiter::new(&config(0, 0, 1_000, 2)).expect("enabled");
        let peer = QuotaLimiter::sentinel_peer();
        let t0 = Instant::now();
        limiter.admit(peer, t0).expect("first");
        // A long idle period refills to burst (2), not more.
        let later = t0 + Duration::from_secs(3600);
        limiter.admit(peer, later).expect("one");
        limiter.admit(peer, later).expect("two");
        assert!(limiter.admit(peer, later).is_err(), "burst is the cap");
    }

    #[test]
    fn quota_burst_defaults_to_rps() {
        let limiter = QuotaLimiter::new(&config(0, 0, 5, 0)).expect("enabled");
        let peer = QuotaLimiter::sentinel_peer();
        let t0 = Instant::now();
        for _ in 0..5 {
            limiter.admit(peer, t0).expect("burst = rps = 5");
        }
        assert!(limiter.admit(peer, t0).is_err());
    }

    #[test]
    fn stale_peers_are_evicted_at_the_cap() {
        let limiter = QuotaLimiter::new(&config(0, 0, 1_000, 1)).expect("enabled");
        let t0 = Instant::now();
        for n in 0..MAX_TRACKED_PEERS {
            let peer = IpAddr::from(u32::try_from(n).expect("fits").to_be_bytes());
            limiter.admit(peer, t0).expect("admit");
        }
        assert_eq!(limiter.tracked_peers(), MAX_TRACKED_PEERS);
        // By now every bucket has refilled to burst; a new peer triggers
        // the sweep and the map collapses to just the newcomer.
        let late = t0 + Duration::from_secs(60);
        let newcomer = IpAddr::from([203, 0, 113, 1]);
        limiter.admit(newcomer, late).expect("admit after sweep");
        assert_eq!(limiter.tracked_peers(), 1);
    }

    #[test]
    fn limited_peers_never_grow_the_table_past_the_cap() {
        let limiter = QuotaLimiter::new(&config(0, 0, 1_000, 1)).expect("enabled");
        let t0 = Instant::now();
        for n in 0..MAX_TRACKED_PEERS {
            let peer = IpAddr::from(u32::try_from(n).expect("fits").to_be_bytes());
            limiter.admit(peer, t0).expect("admit");
        }
        // Nothing has refilled at t0, so the sweep frees nothing: the
        // newcomer is accounted under the (spent) sentinel bucket rather
        // than growing the table or getting a fresh burst of its own.
        let newcomer = IpAddr::from([203, 0, 113, 1]);
        assert!(limiter.admit(newcomer, t0).is_err(), "no fresh burst");
        assert!(limiter.tracked_peers() <= MAX_TRACKED_PEERS);
        let v6 = IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]);
        assert!(limiter.admit(v6, t0).is_err());
        assert!(limiter.tracked_peers() <= MAX_TRACKED_PEERS);
    }
}
