//! The benchmark's own span recorder.
//!
//! Spans are taken around the benchmark's calls into each crate's
//! public functions (nothing inside the program is instrumented), kept
//! in memory, and written out once when the run ends. Every span of
//! one request carries that request's id, and every span names the
//! span that caused it (`parent`, 0 for a root). A disabled tracer
//! records nothing and reads no clock, which is how the end-to-end
//! runs measure with tracing off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tcim_telemetry::json::{num_u64, object};
use tcim_telemetry::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id, for a request or a span (0 is never handed out).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so the calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        self.push(
            Span { id, parent, request, name, start_ns: 0, end_ns: 0 },
            start,
            Instant::now(),
        );
        out
    }

    /// Records a span whose bounds were taken elsewhere (a request timed
    /// from its due time, say) under `id`, which the caller drew from
    /// [`Tracer::next_id`] so children recorded earlier could name it.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.push(Span { id, parent, request, name, start_ns: 0, end_ns: 0 }, start, end);
        }
    }

    fn push(&self, mut span: Span, start: Instant, end: Instant) {
        span.start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        span.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span store is never poisoned").push(span);
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Every span as JSON, ordered by start time.
    pub fn to_json(&self) -> Json {
        let mut spans = self.spans.lock().expect("span store is never poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Json::Array(
            spans
                .into_iter()
                .map(|s| {
                    object([
                        ("id", num_u64(s.id)),
                        ("parent", num_u64(s.parent)),
                        ("request", num_u64(s.request)),
                        ("name", Json::String(s.name.to_string())),
                        ("start_ns", num_u64(s.start_ns)),
                        ("end_ns", num_u64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent_and_share_the_request() {
        let tracer = Tracer::new(true);
        let request = tracer.next_id();
        tracer.span("outer", request, 0, |outer| {
            tracer.span("inner", request, outer, |_| ());
        });
        let spans = tracer.spans.lock().unwrap().clone();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(spans.iter().all(|s| s.request == request));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, 0, |id| id), 0);
        tracer.record(5, "y", 1, 0, Instant::now(), Instant::now());
        assert!(tracer.spans.lock().unwrap().is_empty());
    }
}
