//! Host wall-clock spans recorded at layer boundaries by the benchmark
//! itself, around each call it makes into a simulator layer.
//!
//! Spans are kept in memory and written out once, as Chrome trace-event
//! JSON, when the run ends. A disabled tracer records nothing and never
//! reads the clock, so the untraced run that produces the end-to-end
//! numbers pays for none of this.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cycle: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u32,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    /// Tag the spans that follow with measurement cycle `cycle`.
    pub fn set_cycle(&mut self, cycle: u32) {
        self.cycle = cycle;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named after the layer about to be called; its parent
    /// is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cycle: self.cycle,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Self time per (layer, cycle) in nanoseconds: each span's duration
    /// minus the part of it that its child spans cover.
    pub fn self_time(&self) -> BTreeMap<&'static str, BTreeMap<u32, u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default().entry(s.cycle).or_default() += own;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Spans of one measurement cycle share its id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"cycle\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.cycle
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let st = t.self_time();
        let inner = st["inner"][&0];
        let outer = st["outer"][&0];
        assert!(inner >= 2_000_000);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
