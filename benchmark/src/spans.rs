//! In-memory spans recorded from outside the simulator.
//!
//! The traced run wraps each public call it makes into the crates in a
//! span (name, start, end, parent, id). Nothing is written while the run
//! measures; the spans go out as Chrome-trace JSON when it ends.

use numa_gpu_testkit::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` only for the root.
    pub parent: Option<usize>,
    /// Spans of one request share an id: the job index for per-job and
    /// per-submission spans, 0 for everything that belongs to the run.
    pub id: u64,
}

/// Span recorder. Spans nest by call order: `enter` pushes, `exit` pops.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// Starts a tracer with its `workload` root span open.
    pub fn new() -> Tracer {
        let mut t = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        };
        t.enter("workload", 0);
        t
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn timed<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let index = self.enter(name, id);
        let out = f();
        self.exit(index);
        let span = &self.spans[index];
        (out, (span.end_ns - span.start_ns) as f64 / 1e9)
    }

    /// Records a span measured elsewhere (a client thread), given its
    /// instants, as a child of `parent`.
    pub fn record_under(
        &mut self,
        parent: usize,
        name: &str,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: Some(parent),
            id,
        });
        self.spans.len() - 1
    }

    /// Closes the root span and returns every span.
    pub fn finish(mut self) -> Vec<Span> {
        while let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
        self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap on one thread; spans
/// recorded from concurrent client threads may, so the result saturates).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document of `spans`:
/// complete events in microseconds, one track per request id.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(workload.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.id)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::UInt(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("self_us", Json::Float(own[i] as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 0);
        let ((), inner_s) = t.timed("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "workload");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].id, 7);
        assert!(inner_s >= 0.002);
        let own = self_times_ns(&spans);
        let outer_dur = spans[1].end_ns - spans[1].start_ns;
        let inner_dur = spans[2].end_ns - spans[2].start_ns;
        assert_eq!(own[1], outer_dur - inner_dur);
        assert_eq!(own[2], inner_dur);
        assert!(spans[0].end_ns >= spans[1].end_ns, "finish closes the root");
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut t = Tracer::new();
        t.timed("a", 0, || ());
        let doc = chrome_trace("w", &t.finish());
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("a"));
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
