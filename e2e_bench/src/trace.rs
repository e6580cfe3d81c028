//! In-memory span recorder for the traced pass.
//!
//! The harness wraps each call into a layer in a span; spans of one
//! operation share `op_id`, and a span opened while another is open is its
//! child. Nothing is written until the workload ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub op_id: u32,
    /// 1-based position in the recording; 0 is "no span".
    pub span_id: u32,
    /// `span_id` of the enclosing span, 0 for the root of an operation.
    pub parent_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work counts measured at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

/// Records spans on one thread.
pub struct Tracer {
    epoch: Instant,
    op_id: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            op_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        assert!(self.open.is_empty(), "operation changed inside a span");
        self.op_id = op_id;
    }

    /// Runs `f` inside a span named `name`; spans `f` records are children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            op_id: self.op_id,
            span_id: index as u32 + 1,
            parent_id: self.open.last().map_or(0, |&p| p as u32 + 1),
            name,
            start_ns: 0,
            dur_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = (start - self.epoch).as_nanos() as u64;
        span.dur_ns = dur.as_nanos() as u64;
        out
    }

    /// Attaches a work count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let index = *self.open.last().expect("count outside a span");
        self.spans[index].counts.push((name, value));
    }

    /// Ends the recording.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one span never overlap (one thread records them), so
/// that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if s.parent_id != 0 {
            let parent = &mut own[s.parent_id as usize - 1];
            *parent = parent.saturating_sub(s.dur_ns);
        }
    }
    own
}

/// Total duration, in milliseconds, of the spans named `name` in each
/// operation, in operation order (0 for an operation without such a span).
pub fn per_op_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let ops = spans.iter().map(|s| s.op_id).max().map_or(0, |m| m + 1);
    let mut totals = vec![0.0; ops as usize];
    for s in spans.iter().filter(|s| s.name == name) {
        totals[s.op_id as usize] += s.dur_ns as f64 / 1e6;
    }
    totals
}

/// The recording as JSON lines, one span a line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(own) {
        write!(
            out,
            "{{\"op_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}",
            s.op_id, s.span_id, s.parent_id, s.name, s.start_ns, s.dur_ns, self_ns
        )
        .unwrap();
        if !s.counts.is_empty() {
            out.push_str(",\"counts\":{");
            for (i, (name, value)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{name}\":{value}").unwrap();
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent_id: u32, name: &'static str, dur_ns: u64) -> Span {
        Span {
            op_id: 0,
            span_id,
            parent_id,
            name,
            start_ns: 0,
            dur_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op(100) -> eval(60) -> {run(25), sample(20)}, op -> mlft(30)
        let spans = vec![
            span(1, 0, "op", 100),
            span(2, 1, "eval", 60),
            span(3, 2, "run", 25),
            span(4, 2, "sample", 20),
            span(5, 1, "mlft", 30),
        ];
        assert_eq!(self_times(&spans), vec![10, 15, 25, 20, 30]);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut t = Tracer::new();
        t.set_op(3);
        t.span("outer", |t| {
            t.span("inner", |t| t.count("variants", 7.0));
            t.span("inner", |_| ());
        });
        let s = t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent_id, s[1].parent_id, s[2].parent_id), (0, 1, 1));
        assert!(s.iter().all(|x| x.op_id == 3));
        assert_eq!(s[1].counts, vec![("variants", 7.0)]);
        assert!(s[0].dur_ns >= s[1].dur_ns + s[2].dur_ns);
        assert!(s[1].start_ns >= s[0].start_ns);
        let lines = to_jsonl(&s);
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"counts\":{\"variants\":7}"));
    }

    #[test]
    fn per_op_totals_sum_spans_of_one_name() {
        let mut spans = vec![span(1, 0, "run", 2_000_000), span(2, 0, "run", 3_000_000)];
        spans.push(Span {
            op_id: 1,
            ..span(3, 0, "run", 1_000_000)
        });
        assert_eq!(per_op_ms(&spans, "run"), vec![5.0, 1.0]);
        assert_eq!(per_op_ms(&spans, "absent"), vec![0.0, 0.0]);
    }
}
