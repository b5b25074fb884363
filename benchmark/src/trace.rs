//! Harness-side spans: `name, start, end, parent, request id`.
//!
//! Spans are recorded around the harness's own calls into each layer
//! (never inside the program), kept in memory, and written to
//! `<out>/<workload>.trace.jsonl` when the run ends. A layer's self
//! time is its span minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`roundtrip`, `submit`, `encode_request`, ...).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

/// An in-memory span sink. One per thread; merge with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A sink whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records an interval that was timed by the caller.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: None,
            request,
        });
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in span order: its duration minus the
/// union of its children's intervals (clipped to the span), so
/// overlapping siblings are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name `(span count, median self time in ns)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(own as f64);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, (v.len(), crate::stats::median(&v))))
        .collect()
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
            request: 1,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root [0,100] > mid [10,60] > leaf [20,30]
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn siblings_sum_and_overlaps_count_once() {
        // Disjoint siblings [10,20] and [30,50]: 30 covered.
        let disjoint = [
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 30, 50, Some(0)),
        ];
        assert_eq!(self_times(&disjoint)[0], 70);
        // Overlapping siblings [10,40] and [30,50] cover [10,50] = 40,
        // not 30 + 20; a child contained in another adds nothing.
        let overlapping = [
            span("root", 0, 100, None),
            span("b", 30, 50, Some(0)),
            span("a", 10, 40, Some(0)),
            span("inside", 15, 25, Some(0)),
        ];
        assert_eq!(self_times(&overlapping)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("root", 10, 20, None),
            span("early", 0, 12, Some(0)),
            span("late", 18, 40, Some(0)),
            span("outside", 30, 35, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 6);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("root", 1, None);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let outer = b.begin("outer", 2, None);
        let inner = b.begin("inner", 2, Some(outer));
        b.end(inner);
        b.end(outer);
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, None, Some(1)]);
    }
}
