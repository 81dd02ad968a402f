//! Dependency-free observability primitives: lock-free log-bucketed latency
//! histograms and a lock-free ring buffer of recent request traces.
//!
//! Built for `lcl-server`'s request path but deliberately generic — nothing
//! in here knows about protocols or sockets:
//!
//! * [`LatencyHistogram`] — an HDR-style histogram over `u64` microsecond
//!   values: power-of-two octaves split into [`SUB_BUCKETS`] linear
//!   sub-buckets each, so recording is two shifts and one relaxed
//!   `fetch_add`, memory is a fixed ~4 KiB of atomics, and any quantile can
//!   be estimated with bounded relative error (≤ 1/[`SUB_BUCKETS`], i.e.
//!   12.5%) from a [`HistogramSnapshot`]. Snapshots are mergeable, which is
//!   what makes per-shard or per-thread histograms aggregatable.
//! * [`TraceRing`] — a fixed-size lock-free ring of [`TraceRecord`]s (the
//!   per-stage timing of one finished request). Writers take a ticket with
//!   one `fetch_add`, claim the ticket's slot by moving its sequence counter
//!   from even to odd, and publish by making it even again (a seqlock
//!   flattened onto atomics — no `unsafe`, which this crate forbids);
//!   readers that race a writer simply skip the slot.
//!
//! Recording into either structure never allocates. Histogram recording
//! never blocks; a trace push waits only while another writer, a whole
//! number of laps away on the same slot, is mid-store.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Sub-bucket bits per power-of-two octave: values within one octave are
/// split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;

/// Linear sub-buckets per octave (`2^SUB_BITS`): bounds the histogram's
/// relative quantile error at `1 / SUB_BUCKETS` = 12.5%.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count: `SUB_BUCKETS` linear buckets for values below
/// [`SUB_BUCKETS`], then `SUB_BUCKETS` for each of the `64 - SUB_BITS`
/// octaves (msb `SUB_BITS..=63`) up to `u64::MAX`.
pub const BUCKETS: usize = SUB_BUCKETS + SUB_BUCKETS * (64 - SUB_BITS as usize);

/// The bucket a value lands in. Total order is preserved: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= SUB_BITS
    let octave = msb - SUB_BITS as usize;
    let sub = ((value >> octave) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + octave * SUB_BUCKETS + sub
}

/// The smallest value that lands in bucket `index` (the inclusive lower
/// bound of the bucket's range).
pub fn bucket_lower(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let msb = octave + SUB_BITS as usize;
    (1u64 << msb) + (sub << octave)
}

/// The largest value that lands in bucket `index` (the inclusive upper
/// bound of the bucket's range). This is what a quantile estimate reports,
/// so estimates never understate the true value by more than one bucket.
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// A lock-free log-bucketed latency histogram over `u64` values
/// (conventionally microseconds).
///
/// [`LatencyHistogram::record`] is safe from any thread: every counter is a
/// relaxed atomic, so concurrent recorders never contend on more than a
/// cache line. Reads go through [`LatencyHistogram::snapshot`], which is a
/// point-in-time copy (not a consistent cut — counters recorded mid-copy may
/// or may not appear; for quiesced states the snapshot is exact).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free, allocation-free, any thread.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = Box::new([0u64; BUCKETS]);
        for (slot, counter) in counts.iter_mut().zip(self.counts.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]: mergeable, and the basis
/// for quantile estimation and text exposition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    counts: Box<[u64; BUCKETS]>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` — the merge of two histograms is exactly
    /// the histogram of the union of their observations (buckets align
    /// because the layout is global).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) as the **upper bound**
    /// of the bucket holding the `ceil(q * count)`-th smallest observation,
    /// so the estimate never understates the true value by more than one
    /// bucket width (≤ 12.5% relative error above [`SUB_BUCKETS`]). Returns
    /// 0 for an empty histogram; `q = 0` reports the first nonempty bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                // The max is a tighter bound than the top bucket's ceiling.
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts paired with their inclusive upper bounds, for
    /// nonempty buckets only — the shape a text exposition wants.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_upper(index), count))
    }
}

/// Number of `u64` words one [`TraceRecord`] flattens into inside the ring.
const TRACE_WORDS: usize = 10;

/// Request kinds a [`TraceRecord`] can carry: an opaque small integer the
/// embedder maps to its own kind enum (`lcl-server` uses the protocol
/// order, with [`TraceRecord::KIND_INVALID`] for unparseable frames).
pub type TraceKind = u8;

/// The per-stage timing of one finished request, as stored in a
/// [`TraceRing`] and emitted on a slow-trace log line.
///
/// Stage durations are microseconds and **disjoint**: `queue` is the wait
/// between dispatch and a pool worker picking the job up, `parse` /
/// `compute` / `serialize` are the worker's phases, and `write` is the time
/// from the serialized reply being ready to its last byte leaving for the
/// socket. `total` is measured independently end-to-end, so it may exceed
/// the stage sum by scheduling gaps between stages.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Request id echoed on the wire (`None` when unsalvageable).
    pub id: Option<i64>,
    /// Embedder-defined request kind ([`TraceRecord::KIND_INVALID`] for
    /// frames that never resolved to one).
    pub kind: TraceKind,
    /// Whether the request produced an ok reply.
    pub ok: bool,
    /// Canonical hash of the problem the request touched, when it had one.
    pub problem_hash: Option<u64>,
    /// Whether the classification was served from the memo cache (`None`
    /// when the request never consulted it).
    pub cache_hit: Option<bool>,
    /// Pool-queue wait, in microseconds.
    pub queue_micros: u64,
    /// Frame parse time, in microseconds.
    pub parse_micros: u64,
    /// Execution time, in microseconds.
    pub compute_micros: u64,
    /// Reply serialization time, in microseconds.
    pub serialize_micros: u64,
    /// Reply write/flush time, in microseconds.
    pub write_micros: u64,
    /// End-to-end latency (frame read to reply written), in microseconds.
    pub total_micros: u64,
}

impl Default for TraceRecord {
    /// An empty record of kind [`TraceRecord::KIND_INVALID`] — the kind of
    /// a frame that never resolved to one, not kind index 0.
    fn default() -> TraceRecord {
        TraceRecord {
            id: None,
            kind: TraceRecord::KIND_INVALID,
            ok: false,
            problem_hash: None,
            cache_hit: None,
            queue_micros: 0,
            parse_micros: 0,
            compute_micros: 0,
            serialize_micros: 0,
            write_micros: 0,
            total_micros: 0,
        }
    }
}

impl TraceRecord {
    /// The [`TraceRecord::kind`] of a frame that never resolved to a
    /// request kind.
    pub const KIND_INVALID: TraceKind = u8::MAX;

    fn encode(&self) -> [u64; TRACE_WORDS] {
        let flags = u64::from(self.ok)
            | (u64::from(self.id.is_some()) << 1)
            | (u64::from(self.problem_hash.is_some()) << 2)
            | (u64::from(self.cache_hit.is_some()) << 3)
            | (u64::from(self.cache_hit.unwrap_or(false)) << 4)
            | (u64::from(self.kind) << 8);
        [
            flags,
            self.id.unwrap_or(0) as u64,
            self.problem_hash.unwrap_or(0),
            self.queue_micros,
            self.parse_micros,
            self.compute_micros,
            self.serialize_micros,
            self.write_micros,
            self.total_micros,
            0,
        ]
    }

    fn decode(words: &[u64; TRACE_WORDS]) -> TraceRecord {
        let flags = words[0];
        TraceRecord {
            id: (flags & 2 != 0).then_some(words[1] as i64),
            kind: ((flags >> 8) & 0xff) as TraceKind,
            ok: flags & 1 != 0,
            problem_hash: (flags & 4 != 0).then_some(words[2]),
            cache_hit: (flags & 8 != 0).then_some(flags & 16 != 0),
            queue_micros: words[3],
            parse_micros: words[4],
            compute_micros: words[5],
            serialize_micros: words[6],
            write_micros: words[7],
            total_micros: words[8],
        }
    }
}

/// One ring slot: a per-slot sequence counter (odd = a writer is mid-store,
/// 0 = never written) plus the record flattened into relaxed atomics. A
/// flattened seqlock: a writer claims the slot by a compare-exchange from
/// even to odd, so two writers never store into it at once; readers detect
/// torn reads by re-checking the sequence.
#[derive(Debug)]
struct TraceSlot {
    seq: AtomicU64,
    words: [AtomicU64; TRACE_WORDS],
}

/// A fixed-size lock-free ring buffer of the most recent [`TraceRecord`]s.
///
/// [`TraceRing::push`] takes a ticket with one `fetch_add` and overwrites the
/// oldest record; [`TraceRing::recent`] returns the still-readable records,
/// oldest first, skipping any slot a concurrent writer holds. Pushing is
/// allocation-free and waits only when a writer whose ticket is a whole
/// number of laps away holds the same slot — with a ring larger than the
/// number of concurrent writers that never happens, so it suits a request
/// hot path. When two writers lap each other on one slot, the slot ends up
/// holding one of their records whole, never a mix.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<TraceSlot>,
    next: AtomicU64,
}

impl TraceRing {
    /// A ring holding the `capacity` (at least 1) most recent records.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity.max(1))
                .map(|_| TraceSlot {
                    seq: AtomicU64::new(0),
                    words: [0u64; TRACE_WORDS].map(AtomicU64::new),
                })
                .collect(),
            next: AtomicU64::new(0),
        }
    }

    /// How many records the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records pushed since construction (≥ retained records).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Stores one record, overwriting the oldest.
    pub fn push(&self, record: &TraceRecord) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Claim the slot: even → odd. Tickets alone do not serialize its
        // writers — a writer one lap ahead can reach the slot while this
        // one is still storing — so wait out any writer that holds it.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if !seq.is_multiple_of(2) {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => seq = current,
            }
        }
        // The fence keeps the word stores after the odd claim for any
        // reader that observes one of them; the Release store of the next
        // even value publishes the words to readers' Acquire loads.
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(record.encode()) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// The retained records, oldest first. Slots a concurrent writer is
    /// mid-overwrite in, and slots no push has finished writing yet, are
    /// skipped rather than read torn or empty.
    pub fn recent(&self) -> Vec<TraceRecord> {
        let end = self.next.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let start = end.saturating_sub(len);
        let mut out = Vec::with_capacity((end - start) as usize);
        for ticket in start..end {
            let slot = &self.slots[(ticket % len) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || !before.is_multiple_of(2) {
                continue; // never written, or mid-write
            }
            let mut words = [0u64; TRACE_WORDS];
            for (value, word) in words.iter_mut().zip(slot.words.iter()) {
                *value = word.load(Ordering::Relaxed);
            }
            // Orders the word loads before the re-check: a word stored by
            // a later writer makes the re-check see its odd claim or later.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == before {
                out.push(TraceRecord::decode(&words));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_inverts() {
        let mut previous = None;
        for &value in &[
            0u64,
            1,
            2,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "{value} → {index}");
            assert!(
                bucket_lower(index) <= value && value <= bucket_upper(index),
                "{value} outside bucket {index}: [{}, {}]",
                bucket_lower(index),
                bucket_upper(index)
            );
            if let Some(prev) = previous {
                assert!(index >= prev, "bucket order broke at {value}");
            }
            previous = Some(index);
        }
        // Exhaustive inversion over the linear region and octave starts.
        for index in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(index)), index);
            assert_eq!(bucket_index(bucket_upper(index)), index);
        }
    }

    /// Seeded xorshift so the distribution test is deterministic.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn quantiles_match_a_reference_sorted_vector_within_one_bucket() {
        let histogram = LatencyHistogram::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        // A long-tailed mix: mostly small, some mid, occasional huge.
        for i in 0..10_000u64 {
            let r = xorshift(&mut state);
            let value = match r % 100 {
                0..=79 => r % 200,
                80..=97 => 1_000 + r % 50_000,
                _ => 1_000_000 + r % 10_000_000,
            } + i % 3;
            histogram.record(value);
            reference.push(value);
        }
        reference.sort_unstable();
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, reference.len() as u64);
        assert_eq!(snapshot.sum, reference.iter().sum::<u64>());
        assert_eq!(snapshot.max, *reference.last().unwrap());
        for &q in &[0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
            let exact = reference[rank - 1];
            let estimate = snapshot.quantile(q);
            let exact_bucket = bucket_index(exact);
            let estimate_bucket = bucket_index(estimate);
            assert!(
                estimate_bucket.abs_diff(exact_bucket) <= 1,
                "q={q}: estimate {estimate} (bucket {estimate_bucket}) vs exact {exact} \
                 (bucket {exact_bucket})"
            );
            assert!(
                estimate >= bucket_lower(exact_bucket),
                "q={q}: estimate {estimate} understates exact {exact} by over a bucket"
            );
        }
    }

    #[test]
    fn merged_snapshots_equal_the_union_histogram() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        let mut state = 42u64;
        for i in 0..2_000u64 {
            let value = xorshift(&mut state) % 1_000_000;
            if i % 2 == 0 { &a } else { &b }.record(value);
            union.record(value);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
        assert_eq!(merged.mean(), union.snapshot().mean());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snapshot = LatencyHistogram::new().snapshot();
        assert_eq!(snapshot.count, 0);
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.mean(), 0);
        assert_eq!(snapshot.nonzero_buckets().count(), 0);
    }

    #[test]
    fn trace_records_round_trip_through_the_ring() {
        let ring = TraceRing::new(4);
        let record = TraceRecord {
            id: Some(-7),
            kind: 3,
            ok: true,
            problem_hash: Some(0xdead_beef_cafe_f00d),
            cache_hit: Some(true),
            queue_micros: 10,
            parse_micros: 20,
            compute_micros: 30,
            serialize_micros: 40,
            write_micros: 50,
            total_micros: 160,
        };
        ring.push(&record);
        assert_eq!(ring.recent(), vec![record]);

        // Overflow keeps only the newest `capacity` records, oldest first.
        for i in 0..10i64 {
            ring.push(&TraceRecord {
                id: Some(i),
                kind: TraceRecord::KIND_INVALID,
                ..TraceRecord::default()
            });
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(
            recent.iter().map(|r| r.id.unwrap()).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.pushed(), 11);
        assert_eq!(ring.capacity(), 4);

        // None-valued fields survive the flattening.
        let bare = TraceRecord::default();
        ring.push(&bare);
        assert_eq!(*ring.recent().last().unwrap(), bare);
    }

    #[test]
    fn concurrent_pushes_never_tear_reads() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(8));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        // Every field derived from one seed: a torn read
                        // would produce an inconsistent tuple.
                        let seed = t * 1_000 + i;
                        ring.push(&TraceRecord {
                            id: Some(seed as i64),
                            kind: (seed % 7) as TraceKind,
                            ok: true,
                            problem_hash: Some(seed * 31),
                            cache_hit: Some(seed % 2 == 0),
                            queue_micros: seed,
                            parse_micros: seed + 1,
                            compute_micros: seed + 2,
                            serialize_micros: seed + 3,
                            write_micros: seed + 4,
                            total_micros: seed * 5 + 10,
                        });
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for record in ring.recent() {
                let seed = record.queue_micros;
                assert_eq!(record.id, Some(seed as i64));
                assert_eq!(record.kind, (seed % 7) as TraceKind);
                assert_eq!(record.problem_hash, Some(seed * 31));
                assert_eq!(record.cache_hit, Some(seed % 2 == 0));
                assert_eq!(record.parse_micros, seed + 1);
                assert_eq!(record.write_micros, seed + 4);
                assert_eq!(record.total_micros, seed * 5 + 10);
            }
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(ring.pushed(), 2_000);
    }

    /// A record whose every field derives from `seed`.
    fn seeded_record(seed: u64) -> TraceRecord {
        TraceRecord {
            id: Some(seed as i64),
            problem_hash: Some(seed.wrapping_mul(31)),
            queue_micros: seed,
            parse_micros: seed + 1,
            compute_micros: seed + 2,
            serialize_micros: seed + 3,
            write_micros: seed + 4,
            total_micros: seed + 5,
            ..TraceRecord::default()
        }
    }

    #[test]
    fn a_lapped_slot_keeps_one_whole_record() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // A one-slot ring makes every push lap the previous one, so writers
        // whose tickets are a ring apart race for the slot on nearly every
        // push. Before slots were claimed by compare-exchange, two of them
        // could both write it and leave an even sequence over mixed words;
        // release builds returned such torn records in most runs.
        const WRITERS: u64 = 4;
        const PUSHES: u64 = 200_000;
        for round in 0..3 {
            let ring = Arc::new(TraceRing::new(1));
            let done = Arc::new(AtomicBool::new(false));
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    std::thread::spawn(move || {
                        for i in 0..PUSHES {
                            ring.push(&seeded_record(t * PUSHES + i));
                        }
                    })
                })
                .collect();
            let reader = {
                let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
                std::thread::spawn(move || {
                    let (mut reads, mut torn) = (0u64, 0u64);
                    while !done.load(Ordering::Relaxed) {
                        for record in ring.recent() {
                            reads += 1;
                            torn += u64::from(record != seeded_record(record.queue_micros));
                        }
                    }
                    (reads, torn)
                })
            };
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            let (reads, torn) = reader.join().unwrap();
            assert_eq!(torn, 0, "round {round}: {torn} of {reads} reads were torn");
            assert_eq!(ring.pushed(), WRITERS * PUSHES);
            assert_eq!(ring.recent().len(), 1);
        }
    }
}
