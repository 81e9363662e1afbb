//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory and written out as JSON lines when the run ends.
//! With tracing off, [`Tracer::open`]/[`Tracer::close`] still time the
//! call (the untraced run needs the durations) but record nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (0 when tracing is off).
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: SpanId,
    /// The causing span, if any.
    pub parent: Option<SpanId>,
    /// Layer call, e.g. `runner.run_campaign`.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

/// An open span: close it with [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for use as the parent of nested spans.
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(self.id)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Open {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span and returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        self.record(open.id, open.parent, open.name, open.start, end);
        end - open.start
    }

    /// Records a span timed elsewhere (worker threads time their own
    /// calls and hand the instants back).
    pub fn record_at(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.record(id, parent, name, start, end);
        }
    }

    fn record(&self, id: SpanId, parent: Option<SpanId>, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Writes every span as one JSON line, sorted by start.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
