//! In-memory spans for the traced replay.
//!
//! A span is one call into one layer, timed from the benchmark's own
//! code: name, start, end, parent span, job id. Spans stay in memory
//! until the run ends, then [`Tracer::write_jsonl`] writes them out.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.cache`.
    pub name: &'static str,
    /// Job the span belongs to (its position in the replayed stream).
    pub job: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Whether the call is on the workload's blocking path. Off-path
    /// spans re-time a cost another span already includes (or one the
    /// workload's server does not pay) to isolate it.
    pub on_path: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: usize, on_path: bool) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            on_path,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`] (innermost first) and
    /// returns its duration in ns (0 when tracing is off).
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(index) = open.0 else {
            return 0;
        };
        self.spans[index].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].dur_ns()
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: usize,
        on_path: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, job, on_path);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"on_path\": {}}}",
                s.name, s.job, s.start_ns, s.end_ns, s.on_path
            );
        }
        std::fs::write(path, text)
    }
}
