//! Spans recorded by the benchmark's own code around each call into a
//! layer's public API. Kept in memory during the traced pass and written
//! to `out/trace-<workload>.jsonl` when it ends; the untraced pass never
//! constructs a [`Tracer`], so end-to-end numbers carry no tracing cost.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused this one (an
/// index into the same span list); spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span recorder. Threads of one workload share `origin`
/// and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Records an interval measured elsewhere (a wait that began before
    /// its cause was known, such as a subscriber blocked on a push).
    pub fn record(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent: None,
            op_id,
        });
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Parents every root `child` span under the `parent` span with the
    /// same `op_id` — the cross-thread causal link (a push is caused by
    /// the ingest that produced its epoch).
    pub fn link_by_op(&mut self, child: &str, parent: &str) {
        let parents: std::collections::HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, s)| (s.op_id, i))
            .collect();
        for s in &mut self.spans {
            if s.name == child && s.parent.is_none() {
                s.parent = parents.get(&s.op_id).copied();
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Writes the spans to `out/trace-<workload>.jsonl`. A trace that
    /// cannot be written is reported, not fatal: the metrics stand.
    pub fn save(&self, workload: &str) {
        let path = crate::out_dir().join(format!("trace-{workload}.jsonl"));
        if let Err(e) = self.write_jsonl(&path) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }

    /// Writes one JSON object per span.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover (children clipped to the parent and
/// overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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

/// [`Tracer::enter`] when tracing; the untraced pass passes `None` and
/// pays one branch.
pub fn enter(tracer: &mut Option<Tracer>, name: &'static str, op_id: u64) -> Option<usize> {
    tracer.as_mut().map(|t| t.enter(name, op_id))
}

/// Closes what [`enter`] opened.
pub fn exit(tracer: &mut Option<Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.exit(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),
            // Two overlapping children cover 10..60, one more covers 70..80.
            span(10, 50, Some(0)),
            span(40, 60, Some(0)),
            span(70, 80, Some(0)),
            // A grandchild only reduces its own parent.
            span(15, 25, Some(1)),
            // A child that outlives its parent is clipped to it.
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 20, 10, 10, 40]);
    }

    #[test]
    fn nesting_and_cross_thread_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let op = a.enter("ingest", 7);
        let call = a.enter("client.ingest", 7);
        a.exit(call);
        a.exit(op);
        let mut b = Tracer::new(origin);
        b.record("push", 7, origin, Instant::now());
        b.record("push", 8, origin, Instant::now());
        a.absorb(b);
        a.link_by_op("push", "ingest");
        let s = a.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None, "no ingest with op_id 8");
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
