//! Bench-side tracing: spans recorded by the benchmark's own code around
//! each call into a layer, kept in memory and written out at the end.
//!
//! A disabled [`Tracer`] records nothing, so the untraced run and the
//! traced run execute the same loop; the difference between their
//! throughputs is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval on the bench thread and the span
/// that was open when it began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call the span wraps (e.g. `engine.run_parted`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Open a span named `name` only when `when` holds; otherwise a
    /// handle that closes nothing.
    #[inline]
    pub fn enter_if(&mut self, when: bool, name: &'static str) -> Open {
        if when {
            self.enter(name)
        } else {
            Open(None)
        }
    }

    /// Close a span opened by [`enter`](Self::enter). Spans close in
    /// reverse order of opening.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover. Overlapping children are counted
/// once (their union is subtracted), and children are clipped to the
/// parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Totals per span name: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// Durations, in nanoseconds, of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Total nanoseconds over every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    durations(spans, name).iter().sum()
}

/// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `self_ns`), one per span, in opening order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: [10, 50) is 40, not 50
            span("c", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn nested_and_contained_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 80, Some(0)),
            span("a.inner", 10, 20, Some(1)),
            span("b", 30, 40, Some(0)), // inside a's interval: covered already
        ];
        assert_eq!(self_times(&spans), vec![20, 70, 10, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_records_parents_and_off_records_nothing() {
        let mut t = Tracer::on();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = by_name(spans);
        assert_eq!(totals["outer"].0, 1);
        assert_eq!(totals["outer"].2 + spans[1].dur_ns(), spans[0].dur_ns());

        let mut off = Tracer::off();
        let o = off.enter("outer");
        off.exit(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![span("root", 0, 10, None), span("a", 2, 4, Some(0))];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"self_ns\":8"));
    }
}
