//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (`trace::span("core.ga.select")`), kept in a buffer sized
//! up front, and written out when the benchmark ends. Nothing is
//! recorded on a thread that never called [`start`], so the untraced
//! run pays one thread-local check per wrapped call and nothing else.
//!
//! The buffer never grows: a full buffer counts further spans as
//! dropped instead of allocating, so the span recorder itself never
//! shows up in the allocation counts it sits next to.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, interval (ns since the trace started) and
/// the span that was open when it began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.ga.select`.
    pub name: &'static str,
    /// Start, in ns since the trace started.
    pub start_ns: u64,
    /// End, in ns since the trace started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one thread recorded.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Trace {
    /// Recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`
    /// lines (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread into a buffer of `capacity`
/// spans, replacing any trace in progress.
pub fn start(capacity: usize) {
    TRACE.with(|t| {
        *t.borrow_mut() = Some(Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(64),
            dropped: 0,
        });
    });
}

/// Stops recording on the calling thread and returns what was recorded.
pub fn finish() -> Option<Trace> {
    TRACE.with(|t| t.borrow_mut().take())
}

/// Free span slots left in the calling thread's buffer (0 when not
/// recording).
#[must_use]
pub fn room() -> usize {
    TRACE.with(|t| {
        t.borrow()
            .as_ref()
            .map_or(0, |t| t.spans.capacity() - t.spans.len())
    })
}

/// Open span; closes when dropped. Inert when the thread is not
/// recording or the buffer is full.
#[must_use = "a span closes when the guard drops"]
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` on the calling thread.
pub fn span(name: &'static str) -> SpanGuard {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return SpanGuard(None);
        };
        if t.spans.len() == t.spans.capacity() {
            t.dropped += 1;
            return SpanGuard(None);
        }
        let id = t.spans.len() as u32;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: t.open.last().copied(),
        });
        t.open.push(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        TRACE.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[id as usize].end_ns = t.epoch.elapsed().as_nanos() as u64;
                if t.open.last() == Some(&id) {
                    t.open.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// child time outside the parent not at all).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals for every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Per-name totals over `spans`.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own;
    }
    out
}

/// Per-name totals over the direct children of spans named `parent`.
#[must_use]
pub fn totals_under(spans: &[Span], parent: &str) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some_and(|p| spans[p as usize].name == parent) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += own;
        }
    }
    out
}

/// Durations (µs) of every span named `name`.
#[must_use]
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            at("step", 0, 100, None),
            at("select", 10, 30, Some(0)),
            // Overlaps the first child: [20, 30] is already covered.
            at("mutate", 20, 40, Some(0)),
            // Reaches past the parent: only [90, 100] is inside it.
            at("evaluate", 90, 120, Some(0)),
            // A grandchild is its parent's, not the step's.
            at("inner", 95, 100, Some(3)),
            at("other", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 25, 5, 50]);
        let t = totals(&spans);
        assert_eq!(
            t["step"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(t["evaluate"].self_ns, 25);
    }

    #[test]
    fn recorder_nests_spans_and_stops_at_capacity() {
        start(3);
        {
            let _outer = span("outer");
            {
                let _a = span("a");
            }
            let _b = span("b");
            // Buffer full: recorded as dropped, closes harmlessly.
            let _c = span("c");
        }
        assert_eq!(room(), 0);
        let trace = finish().expect("recording");
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(trace.dropped(), 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        // Not recording: guards are inert.
        drop(span("ignored"));
        assert!(finish().is_none());
    }
}
