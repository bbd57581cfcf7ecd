//! The benchmark's own span recorder.
//!
//! A traced run wraps each call the benchmark makes into a layer in a span
//! (name, start, end, parent, op id), kept in a per-thread in-memory buffer
//! and written out as Chrome-trace JSON when the run ends. A layer's *self
//! time* is its span minus the part of it its child spans cover. Nothing in
//! here runs during an untraced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is a root of its thread.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the buffer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `msg.send`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (`0` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer: fixed capacity, allocated up front, so that
/// recording never allocates. Once full, further spans are counted as
/// dropped and not recorded (their children attach to the last recorded
/// ancestor).
pub struct SpanBuf {
    epoch: Instant,
    inner: RefCell<Inner>,
}

struct Inner {
    spans: Vec<Span>,
    /// Indices of the open spans, outermost first; `None` marks an open
    /// span that was dropped because the buffer was full.
    open: Vec<Option<u32>>,
    op: u64,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer of `capacity` spans timed against `epoch`.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        Self {
            epoch,
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
                op: 0,
                dropped: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the op id stamped on spans begun from now on.
    pub fn set_op(&self, op: u64) {
        self.inner.borrow_mut().op = op;
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&self, name: &'static str) {
        let now = self.now_ns();
        let mut g = self.inner.borrow_mut();
        if g.spans.len() == g.spans.capacity() {
            g.dropped += 1;
            g.open.push(None);
            return;
        }
        let parent = g.open.iter().rev().flatten().next().copied();
        let idx = g.spans.len() as u32;
        let op = g.op;
        g.spans.push(Span {
            name,
            start_ns: now,
            end_ns: 0,
            parent: parent.unwrap_or(NO_PARENT),
            op,
        });
        g.open.push(Some(idx));
    }

    /// Close the innermost open span.
    pub fn end(&self) {
        let now = self.now_ns();
        let mut g = self.inner.borrow_mut();
        if let Some(Some(idx)) = g.open.pop() {
            g.spans[idx as usize].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn scoped<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// The recorded spans and the count dropped for lack of room.
    pub fn into_spans(self) -> (Vec<Span>, u64) {
        let g = self.inner.into_inner();
        (g.spans, g.dropped)
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover. Children of one span are recorded by one thread
/// and so never overlap each other; each is clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Sum durations and self times by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Durations of the spans called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Render per-thread span lists as Chrome `trace_event` JSON (complete
/// `"X"` events, one `tid` per thread, the op id and parent in `args`), at
/// most `max_per_thread` spans of each thread. Loadable in Perfetto.
pub fn chrome_trace(threads: &[(String, Vec<Span>)], max_per_thread: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (label, spans)) in threads.iter().enumerate() {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
        for s in spans.iter().take(max_per_thread) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{layer}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_nested_children() {
        // op [0,100] > send [10,40] > copy [15,25]; op > recv [50,90].
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("msg.send", 10, 40, 0),
            span("copy", 15, 25, 1),
            span("msg.recv", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn adjacent_children_cover_the_parent_exactly() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 0, 50, 0),
            span("b", 50, 100, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 50]);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = [span("op", 10, 50, NO_PARENT), span("late", 40, 80, 0)];
        assert_eq!(self_times(&spans), vec![30, 40]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let buf = SpanBuf::new(8, Instant::now());
        buf.set_op(7);
        buf.begin("op");
        buf.scoped("msg.send", || ());
        buf.scoped("msg.recv", || ());
        buf.end();
        buf.set_op(8);
        buf.scoped("op", || ());
        let (spans, dropped) = buf.into_spans();
        assert_eq!(dropped, 0);
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", NO_PARENT, 7),
                ("msg.send", 0, 7),
                ("msg.recv", 0, 7),
                ("op", NO_PARENT, 8)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].count, 2);
        assert!(t["op"].self_ns <= t["op"].total_ns);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_instead_of_growing() {
        let buf = SpanBuf::new(2, Instant::now());
        buf.begin("a");
        buf.begin("b");
        buf.begin("c"); // dropped
        buf.end();
        buf.end();
        buf.end();
        let (spans, dropped) = buf.into_spans();
        assert_eq!((spans.len(), dropped), (2, 1));
        assert!(spans.iter().all(|s| s.end_ns > 0 || s.start_ns == 0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("msg.send", 1000, 3000, NO_PARENT),
            span("x.y", 1500, 2000, 0),
        ];
        let text = chrome_trace(&[("rank 0".to_string(), spans)], 10);
        let doc = pure_core::util::json::Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3); // one thread_name + two spans
        let x = &events[1];
        assert_eq!(x.get("name").and_then(|n| n.as_str()), Some("msg.send"));
        assert_eq!(x.get("cat").and_then(|n| n.as_str()), Some("msg"));
        assert_eq!(x.get("dur").and_then(|n| n.as_f64()), Some(2.0));
    }
}
