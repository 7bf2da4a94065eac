//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span holds a name (`layer.call`), its start and end relative to the
//! tracer's epoch, its parent span and a group id shared by every span
//! of one iteration or one chunk. Spans stay in memory during the run and
//! are written out once at the end. The untraced run uses the same
//! [`Tracer::span`] calls with recording off, so both runs time exactly
//! the same stretches of code; only span bookkeeping differs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `simx.run_plan`.
    pub name: &'static str,
    /// Enclosing span (index into the tracer's span list).
    pub parent: Option<usize>,
    /// Iteration or chunk id the span belongs to.
    pub group: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: the part of its name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates untraced
    /// passes, for the tracing-overhead figure, with traced ones).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (when recording) as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, group: u32) {
        if !self.enabled {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            group,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result with its wall time.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let t0 = Instant::now();
        self.begin(name, group);
        let r = f(self);
        self.end();
        (r, t0.elapsed())
    }

    /// Open-span depth, to restore after a caught panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (a panic unwound through
    /// them).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span");
            self.spans[id].end_ns = now;
        }
    }

    /// Number of spans recorded so far (a mark for [`Self::self_times`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer over the spans recorded since `mark`, in
    /// seconds: each span's duration minus the part its direct children
    /// cover. Calls are sequential, so children never overlap.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.duration_ns().saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// Every recorded span as Chrome trace-event JSON (loadable in
    /// Perfetto), with span id, parent and group in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"group\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.group
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_nests_parents() {
        let mut t = Tracer::new(true);
        let mark = t.mark();
        t.span("bench.pass", 0, |t| {
            t.span("simx.run_plan", 0, |_| {
                std::thread::sleep(Duration::from_millis(3))
            });
            t.span("cosmos.eval", 1, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].group, 1);
        let st = t.self_times(mark);
        assert!(st["simx"] >= 0.003 && st["cosmos"] >= 0.002);
        let total: f64 = st.values().sum();
        let root = t.spans[0].duration_ns() as f64 / 1e9;
        assert!((total - root).abs() < 1e-6, "self times add up to the root");
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, _) = t.span("simx.run_plan", 0, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(t.mark(), 0);
    }

    #[test]
    fn unwind_closes_spans_left_open_by_a_panic() {
        let mut t = Tracer::new(true);
        let depth = t.depth();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("simx.run_plan", 0, |_| panic!("boom"))
        }));
        assert!(r.is_err());
        t.unwind_to(depth);
        assert_eq!(t.depth(), 0);
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }
}
