//! Spans for the traced run: one per call into a layer, kept in memory
//! and written out when the run ends. Spans nest through the closure
//! passed to [`Tracer::span`], so every span has a parent chain to the
//! workload root and its interval lies inside its parent's.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rid: u64,
}

/// Records spans on one thread; the root span is the workload itself.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Opens the root span `name`.
    pub fn new(name: &'static str, rid: u64) -> Tracer {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        tracer.open(name, rid);
        tracer
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn open(&mut self, name: &'static str, rid: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rid,
        });
        self.open.push(index);
        index
    }

    fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close in LIFO order");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` (`layer` or `layer.call`),
    /// tagged with the request id `rid` (a job hash or trace key hash).
    pub fn span<R>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.open(name, rid);
        let out = f(self);
        self.close(index);
        out
    }

    /// Closes the root and renders every span as a JSON array of
    /// `{"name", "start_ns", "end_ns", "parent", "rid"}` objects; the root
    /// is index 0 with parent `null`.
    pub fn finish(mut self) -> String {
        let root = self.open.first().copied().expect("root span is open");
        self.close(root);
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rid\": \"{:016x}\"}}",
                s.name, s.start_ns, s.end_ns, s.rid
            );
        }
        out.push(']');
        out
    }
}
