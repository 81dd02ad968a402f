//! In-memory spans for the traced run: name, start, end, parent span and
//! request id, written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span that has started and not yet ended.
pub struct Open(Span);

impl Open {
    pub fn id(&self) -> u32 {
        self.0.id
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u32>, request: u64) -> Open {
        Open(Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        })
    }

    /// Ends the span and returns its duration in milliseconds.
    pub fn close(&self, open: Open) -> f64 {
        let mut span = open.0;
        span.end_ns = self.now_ns();
        let ms = span.ms();
        self.spans.lock().expect("span list lock").push(span);
        ms
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, request);
        let value = f(open.id());
        let ms = self.close(open);
        (value, ms)
    }

    /// Records an already measured interval (such as a queue wait that
    /// starts on one thread and ends on another).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let to_ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent,
            request,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name: each span's duration minus the part
    /// of its interval that its child spans cover.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        file.flush()
    }
}
