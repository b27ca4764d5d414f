//! Spans for the traced run: name, start, end, parent and request id,
//! kept in memory and written out when the run ends.
//!
//! The benchmark records a span around every call it makes into a
//! layer's public functions. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover; whatever no
//! layer span covers inside a thread's root span is that root's own
//! self time, reported as the unattributed row.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one traced run, shared by every thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span now; [`Tracer::close`] stamps its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.log();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.log()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.log();
        spans.push(span);
        spans.len() - 1
    }

    /// Sets the parent of every `child` span to the `parent` span with
    /// the same request id: how spans recorded on the far side of a
    /// connection join the exchange that caused them.
    pub fn link_by_request(&self, child: &str, parent: &str) {
        let mut spans = self.log();
        let by_request: BTreeMap<u64, SpanId> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(id, s)| (s.request, id))
            .collect();
        for span in spans.iter_mut().filter(|s| s.name == child) {
            span.parent = by_request.get(&span.request).copied();
        }
    }

    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.log().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own, so overlapping children are
/// not counted twice.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The durations, in nanoseconds, of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Samples {
    let mut samples = Samples::default();
    for span in spans.iter().filter(|s| s.name == name) {
        samples.push(span.duration_ns() as f64);
    }
    samples
}

/// One row of the self-time table: a layer's self time under one root.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub root: &'static str,
    pub layer: &'static str,
    pub self_ns: u64,
    pub calls: u64,
}

/// Self time per (root, layer), where a span's root is the span reached
/// by following parents to the top; a root's own self time is reported
/// under the layer `unattributed`.
#[must_use]
pub fn attribute(spans: &[Span]) -> Vec<SelfRow> {
    let own = self_times(spans);
    let root_of: Vec<SpanId> = (0..spans.len())
        .map(|id| {
            let mut at = id;
            // Bounded walk: a malformed parent cycle ends at the bound.
            for _ in 0..spans.len() {
                match spans[at].parent {
                    Some(parent) => at = parent,
                    None => break,
                }
            }
            at
        })
        .collect();
    let mut rows: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let root = spans[root_of[id]].name;
        let layer = if root_of[id] == id {
            "unattributed"
        } else {
            span.name
        };
        let row = rows.entry((root, layer)).or_default();
        row.0 += own[id];
        row.1 += 1;
    }
    rows.into_iter()
        .map(|((root, layer), (self_ns, calls))| SelfRow {
            root,
            layer,
            self_ns,
            calls,
        })
        .collect()
}

/// The span log as tab-separated text: `id name start_ns end_ns parent request`.
#[must_use]
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}\t{}",
            span.name, span.start_ns, span.end_ns, span.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![span("root", 0, 100, None), span("a", 10, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![80, 20]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two children on different threads overlap in 20..30, and a
        // third sticks out past the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
            span("d", 25, 35, Some(0)),
        ];
        let own = self_times(&spans);
        // Covered: 10..40 (30) + 90..100 (10) = 40.
        assert_eq!(own[0], 60);
        assert_eq!(&own[1..], &[20, 20, 30, 10]);
    }

    #[test]
    fn nested_children_only_reduce_their_direct_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 10, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        let rows = attribute(&spans);
        let get = |layer: &str| {
            rows.iter()
                .find(|row| row.layer == layer)
                .map(|row| row.self_ns)
        };
        assert_eq!(get("unattributed"), Some(50));
        assert_eq!(get("a"), Some(40));
        assert_eq!(get("b"), Some(10));
        let total: u64 = rows.iter().map(|row| row.self_ns).sum();
        assert_eq!(total, 100, "self times tile the root");
    }

    #[test]
    fn cross_connection_spans_join_by_request_id() {
        let tracer = Tracer::default();
        let exchange = tracer.record(Span {
            request: 7,
            ..span("exchange", 0, 100, None)
        });
        tracer.record(Span {
            request: 7,
            ..span("handle", 20, 60, None)
        });
        tracer.record(Span {
            request: 8,
            ..span("handle", 120, 130, None)
        });
        tracer.link_by_request("handle", "exchange");
        let spans = tracer.snapshot();
        assert_eq!(spans[1].parent, Some(exchange));
        assert_eq!(spans[2].parent, None);
        assert_eq!(self_times(&spans)[0], 60);
    }
}
