//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the id
//! of the payment it belongs to (shared by every span of one payment).
//! Spans are kept in memory and written out once the traced run ends. A
//! span's **self time** is its duration minus the part of that interval
//! its children cover; children may overlap each other (two calls made on
//! parallel workers), so the covered part is the union of their intervals.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub payment: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        payment: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            payment,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name, over the spans recorded
    /// since `first` (a value of `spans().len()` taken earlier).
    pub fn totals_from(&self, first: usize) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let recent = &self.spans[first..];
        for (span, self_ns) in recent.iter().zip(self_times(recent, first)) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Runs `f` `repeats` times, each under a span, and returns its last
    /// result with the host seconds of its quickest call: interference
    /// from the host only ever adds time.
    pub fn best_of<R>(
        &mut self,
        repeats: usize,
        name: &'static str,
        mut f: impl FnMut(&mut Tracer) -> R,
    ) -> (R, f64) {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..repeats.max(1) {
            let t0 = Instant::now();
            last = Some(self.span(name, None, &mut f));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (last.expect("at least one repeat"), best)
    }

    /// One JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(w, "{{\"id\":{id},\"name\":\"{}\",\"parent\":", s.name)?;
            match s.parent {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            write!(w, ",\"payment\":")?;
            match s.payment {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            writeln!(w, ",\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Self time of every span of `spans`, which starts at index `base` of the
/// whole recording (parents are named by whole-recording index, and a
/// span's children always follow it): its duration minus the union of its
/// children's intervals, each clipped to the span itself.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            payment: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans, 0), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover [10,60) ∪ [40,80) ∪ [45,50) = [10,80): 70 of 100.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 40, 80),
            span(Some(0), 10, 60),
            span(Some(0), 45, 50),
        ];
        assert_eq!(self_times(&spans, 0)[0], 30);
    }

    #[test]
    fn a_child_reaching_outside_its_parent_is_clipped() {
        let spans = [span(None, 100, 200), span(Some(0), 50, 150)];
        assert_eq!(self_times(&spans, 0)[0], 50);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 20, 80),
            span(Some(1), 30, 70),
        ];
        assert_eq!(self_times(&spans, 0), vec![40, 20, 40]);
    }

    #[test]
    fn tracer_nests_spans_and_shares_the_payment_id() {
        let mut t = Tracer::new();
        t.span("payment", Some(7), |t| {
            t.span("build", Some(7), |_| ());
            t.span("run", Some(7), |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s
            .iter()
            .all(|s| s.payment == Some(7) && s.end_ns >= s.start_ns));
        let totals = t.totals_from(0);
        assert_eq!(totals["payment"].count, 1);
        assert!(totals["payment"].self_ns <= totals["payment"].total_ns);
        // From the second span on, the first payment's children are
        // counted without their parent.
        t.span("payment", Some(8), |t| t.span("run", Some(8), |_| ()));
        let recent = t.totals_from(1);
        assert_eq!((recent["payment"].count, recent["run"].count), (1, 2));
    }

    #[test]
    fn best_of_keeps_the_quickest_call() {
        let mut t = Tracer::new();
        let mut calls = 0;
        let (last, best) = t.best_of(3, "call", |_| {
            calls += 1;
            calls
        });
        assert_eq!((last, t.spans().len()), (3, 3));
        let quickest = t
            .spans()
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .min()
            .unwrap();
        assert!(best >= quickest as f64 / 1e9);
    }
}
