//! Host-time spans recorded at the benchmark's calls into each layer,
//! kept in memory and exported once at exit as a Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

use pimdsm_obs::Tracer;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    pass: usize,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Pass that newly opened spans belong to.
    pub pass: usize,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            pass: self.pass,
            start_ns: 0,
            dur_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id` and every span still open inside it (a panic may
    /// leave inner spans open); returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = now - self.spans[top].start_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].dur_ns as f64 * 1e-9
    }

    /// Records `dur_ns` of work aggregated over many calls (`next_op`) as
    /// one child of `parent`, placed at the parent's start.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let p = &self.spans[parent];
        self.spans.push(Span {
            name,
            parent: Some(parent),
            pass: p.pass,
            start_ns: p.start_ns,
            dur_ns,
        });
    }

    /// Self time (duration minus the children's) per span name and pass.
    pub fn self_times(&self, passes: usize) -> BTreeMap<&'static str, Vec<f64>> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.dur_ns as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns as i128;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.pass < passes {
                out.entry(s.name).or_insert_with(|| vec![0.0; passes])[s.pass] += ns as f64 * 1e-9;
            }
        }
        out
    }

    /// The spans as trace events (1 ns of host time per trace tick; the
    /// pass index is the track).
    pub fn to_tracer(&self) -> Tracer {
        let tracer = Tracer::enabled();
        for s in &self.spans {
            tracer.span(
                0,
                s.pass as u32,
                s.name,
                "simbench",
                s.start_ns,
                s.dur_ns,
                &[],
            );
        }
        tracer
    }
}
