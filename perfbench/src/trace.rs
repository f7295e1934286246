//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public function (name, start, end, parent span, request id,
//! vector length), keeps them in a pre-sized vector, and writes them
//! out after the run. A layer's self time is its span's duration minus
//! the part covered by its child spans. A unit span (one request, step
//! or head call, named [`UNIT`]) reconciles when its children account
//! for all but a small share of it, and when its children add up to what
//! the same unit takes untraced.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// No parent: the span is a root (a unit, or a probe call outside the
/// timed units).
pub const ROOT: u32 = u32::MAX;

/// Name of the root span of one timed unit: a request, a decode step or
/// a head call.
pub const UNIT: &str = "root";

/// Unexplained root time (root self time over root duration, summed
/// over every root) the reconciliation check tolerates.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// How far the median traced unit's child-span sum may lie from the
/// median untraced unit's duration, as a share of the latter. Traced
/// and untraced units alternate within one run, so the two medians see
/// the same host.
pub const UNIT_TOLERANCE: f64 = 0.15;

/// Slack for clock granularity when checking that children fit inside
/// their parent.
const FIT_SLACK_NS: u64 = 1_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u64,
    /// Vector length the call worked on (0 when not one vector).
    pub len: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span log. When tracing is off every method is a no-op
/// that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool, capacity: usize) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        len: usize,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent,
            req,
            len: len as u32,
            start,
            end,
        })
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64, len: usize) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.ns(Instant::now());
        self.push(Span {
            name,
            parent,
            req,
            len: len as u32,
            start,
            end: start,
        })
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            let end = self.ns(Instant::now());
            self.spans[id as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        len: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, parent, req, len, t0, t1);
        out
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, optionally only those
    /// at vector length `len`.
    pub fn durations_us(&self, name: &str, len: Option<usize>) -> Samples {
        let mut out = Samples::default();
        for s in &self.spans {
            if s.name == name && len.is_none_or(|l| s.len as usize == l) {
                out.push(s.dur() as f64 / 1e3);
            }
        }
        out
    }

    /// Writes every span as tab-separated values after `header` lines
    /// (each prefixed with `#`).
    pub fn write_tsv(&self, path: &std::path::Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "id\tparent\treq\tname\tlen\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.len, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time per layer and the reconciliation of roots against their
/// children.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Σ self time (ns) per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Σ root duration (ns).
    pub root_ns: u64,
    /// Σ root self time (ns): root time no child span accounts for.
    pub root_self_ns: u64,
    pub roots: usize,
    /// Σ child-span duration (ns) of each unit span.
    pub unit_child_ns: Vec<u64>,
    /// Spans whose children together outlast them.
    pub overfull: usize,
}

impl Analysis {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut a = Self::default();
        for (s, &covered) in spans.iter().zip(&child_ns) {
            if covered > s.dur() + FIT_SLACK_NS {
                a.overfull += 1;
            }
            let own = s.dur().saturating_sub(covered);
            *a.self_ns.entry(s.name).or_default() += own;
            if s.parent == ROOT {
                a.roots += 1;
                a.root_ns += s.dur();
                a.root_self_ns += own;
                if s.name == UNIT {
                    a.unit_child_ns.push(covered);
                }
            }
        }
        a
    }

    /// Share of root time no child span accounts for.
    pub fn unexplained_share(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.root_self_ns as f64 / self.root_ns as f64
        }
    }

    /// Self time of `name` as a share of all root time.
    pub fn self_share(&self, name: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.root_ns as f64
    }

    /// The median traced unit's child-span sum over `untraced_ms`, the
    /// median duration of the same units untraced.
    pub fn children_over_untraced(&self, untraced_ms: f64) -> Option<f64> {
        if self.unit_child_ns.is_empty() || untraced_ms <= 0.0 {
            return None;
        }
        let ns: Vec<f64> = self.unit_child_ns.iter().map(|&n| n as f64).collect();
        Some(crate::stats::median(&ns) / 1e6 / untraced_ms)
    }

    /// Children never outlast their parent, roots are explained by
    /// their children within [`RECONCILE_TOLERANCE`], and the traced
    /// units' children add up to the untraced units' median duration
    /// within [`UNIT_TOLERANCE`].
    pub fn reconciles(&self, untraced_ms: f64) -> bool {
        self.roots > 0
            && self.overfull == 0
            && self.unexplained_share() <= RECONCILE_TOLERANCE
            && self
                .children_over_untraced(untraced_ms)
                .is_some_and(|r| (r - 1.0).abs() <= UNIT_TOLERANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            len: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", ROOT, 0, 100_000),
            span("a", 0, 0, 60_000),
            span("b", 0, 60_000, 98_000),
            span("c", 2, 60_000, 70_000),
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.self_ns["root"], 2_000);
        assert_eq!(a.self_ns["b"], 28_000);
        assert_eq!(a.self_ns["c"], 10_000);
        assert_eq!(a.roots, 1);
        assert!((a.unexplained_share() - 0.02).abs() < 1e-12);
        assert_eq!(a.unit_child_ns, [98_000]);
        // The children sum to 0.098 ms; the unit took 0.1 ms untraced.
        assert!(a.reconciles(0.1));
        assert!(
            !a.reconciles(0.2),
            "children explain half the untraced unit"
        );
        assert!(!a.reconciles(0.05), "children outlast the untraced unit");
    }

    #[test]
    fn unexplained_or_overfull_roots_fail() {
        let gap = [span("root", ROOT, 0, 100_000), span("a", 0, 0, 50_000)];
        assert!(!Analysis::of(&gap).reconciles(0.05));
        let overfull = [
            span("root", ROOT, 0, 100_000),
            span("a", 0, 0, 60_000),
            span("b", 0, 40_000, 100_000),
        ];
        assert!(!Analysis::of(&overfull).reconciles(0.12));
        // Probe roots count towards root time but are not units.
        let probe = [span("probe", ROOT, 0, 10_000), span("a", 0, 0, 10_000)];
        let a = Analysis::of(&probe);
        assert_eq!((a.roots, a.unit_child_ns.len()), (1, 0));
        assert!(!a.reconciles(0.01), "no unit to reconcile");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 16);
        let id = t.open("root", ROOT, 0, 0);
        assert_eq!(t.span("a", id, 0, 0, || 7), 7);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
