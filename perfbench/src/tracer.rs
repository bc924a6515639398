//! In-memory spans for the traced run.
//!
//! Spans sit only at the benchmark's own calls into the library's layers.
//! Each records a name, its start and end relative to the run's origin,
//! the span that caused it and the request or workload it served. They
//! stay in memory until [`Tracer::write_jsonl`] runs at the end, so the
//! file write never lands inside a measured interval.

use bdb_engine::json::Value;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.machine`.
    pub name: &'static str,
    /// The request or workload id the span served.
    pub request: String,
    /// Start, in nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a span whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a previously reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            request: request.to_owned(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .push(span);
    }

    /// Runs `f` inside a span and returns its result and duration. `f`
    /// receives the span's id so it can parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, name, parent, request, start, end);
        (out, end - start)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .clone()
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<(Span, Duration)> {
        let spans = self.spans();
        let mut child_time = std::collections::BTreeMap::<u64, Duration>::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_time.entry(parent).or_default() += span.duration();
            }
        }
        spans
            .into_iter()
            .map(|span| {
                let children = child_time.get(&span.id).copied().unwrap_or_default();
                let own = span.duration().saturating_sub(children);
                (span, own)
            })
            .collect()
    }

    /// Sum of self time and count over spans named `name`.
    pub fn self_time_of(&self, name: &str) -> (Duration, u64) {
        self.self_times()
            .iter()
            .filter(|(span, _)| span.name == name)
            .fold((Duration::ZERO, 0), |(total, n), (_, own)| {
                (total + *own, n + 1)
            })
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (span, own) in self.self_times() {
            let line = Value::object(vec![
                ("id", Value::UInt(span.id)),
                ("parent", span.parent.map_or(Value::Null, Value::UInt)),
                ("name", Value::Str(span.name.to_owned())),
                ("request", Value::Str(span.request.clone())),
                ("start_ns", Value::UInt(span.start_ns)),
                ("end_ns", Value::UInt(span.end_ns)),
                ("self_ns", Value::UInt(own.as_nanos() as u64)),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
        std::fs::write(path, text)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = Tracer::new();
        tracer.span("outer", None, "r", |outer| {
            tracer.span("inner", Some(outer), "r", |_| {
                std::thread::sleep(Duration::from_millis(2));
            });
        });
        let (outer_self, n) = tracer.self_time_of("outer");
        let (inner_self, _) = tracer.self_time_of("inner");
        assert_eq!(n, 1);
        assert!(inner_self >= Duration::from_millis(2));
        assert!(outer_self < inner_self);
    }
}
