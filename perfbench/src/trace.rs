//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (traced runs only). Spans are written out
//! when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer started) and
/// the index of the span that was open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Self time and call count of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub self_ns: u64,
    pub calls: usize,
}

impl Layer {
    /// Mean self time per call, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.calls.max(1) as f64
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index].end_ns = now;
        let popped = self.tracer.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.index), "spans close in LIFO order");
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.stack.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// Per-name self time and call count.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        self_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let mut clipped: Vec<(u64, u64)> = kids
            .iter()
            .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        clipped.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in clipped {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let layer = out.entry(s.name).or_default();
        layer.self_ns += (s.end_ns - s.start_ns) - covered;
        layer.calls += 1;
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

    fn layer(self_ns: u64, calls: usize) -> Layer {
        Layer { self_ns, calls }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("mc", 0, 100, None),
            span("draw", 10, 30, Some(0)),
            span("sta", 30, 70, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["mc"], layer(40, 1));
        assert_eq!(layers["draw"], layer(20, 1));
        assert_eq!(layers["sta"], layer(30, 1));
        assert_eq!(layers["inner"], layer(10, 1));
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered inside [100, 200]: [100, 150] and [190, 200] = 60 ns.
        assert_eq!(self_times(&spans)["p"].self_ns, 40);
    }

    #[test]
    fn calls_aggregate_per_name() {
        let spans = vec![
            span("loop", 0, 50, None),
            span("draw", 0, 10, Some(0)),
            span("draw", 20, 25, Some(0)),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["draw"], layer(15, 2));
        assert_eq!(layers["loop"].self_ns, 35);
        assert!((layers["draw"].mean_ms() - 7.5e-6).abs() < 1e-15);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || std::hint::black_box(1 + 1));
        }
        let spans = tracer.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
