//! Benchmark-side spans: name, start, end and parent, kept in memory and
//! written out once the traced run ends.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented here. A span's
//! layer is its name up to the first `.` (`http.post_hit` belongs to
//! `http`); `op` spans are the benchmark's own root per timed operation.
//! Recording is per thread and off unless [`start`] was called, so the
//! untraced workloads pay one thread-local flag check per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dynagraph::{EdgeDelta, EvolvingGraph, ShardAccess, Snapshot};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// The traced-run section (workload) the span was recorded in.
    pub section: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    epoch: Instant,
    section: &'static str,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, attributed to `section`.
pub fn start(section: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        match t.as_mut() {
            Some(tracer) => tracer.section = section,
            None => {
                *t = Some(Tracer {
                    epoch: Instant::now(),
                    section,
                    spans: Vec::new(),
                    stack: Vec::new(),
                })
            }
        }
    });
}

/// Pauses recording; spans recorded so far are kept.
pub fn pause() {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.section = "";
        }
    });
}

/// Runs `f` inside a span named `name` (a no-op wrapper when not
/// recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tracer = t.as_mut().filter(|tr| !tr.section.is_empty())?;
        let id = tracer.spans.len();
        let start = tracer.epoch.elapsed().as_secs_f64();
        tracer.spans.push(SpanRec {
            name,
            section: tracer.section,
            start,
            end: start,
            parent: tracer.stack.last().copied(),
        });
        tracer.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let tracer = t.as_mut().expect("tracer outlives its open spans");
            tracer.spans[id].end = tracer.epoch.elapsed().as_secs_f64();
            tracer.stack.pop();
        });
    }
    out
}

/// Every span recorded on this thread so far.
pub fn spans() -> Vec<SpanRec> {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .map(|tr| tr.spans.clone())
            .unwrap_or_default()
    })
}

/// Self time per span: its duration minus what its children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(SpanRec::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur();
        }
    }
    out
}

/// The root span of each span (itself when it has no parent).
fn roots(spans: &[SpanRec]) -> Vec<usize> {
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        out.push(s.parent.map_or(i, |p| out[p]));
    }
    out
}

/// Coverage of one section: the summed self time of layer spans under
/// `op` roots over the summed `op` wall, plus the self time per layer.
pub fn coverage(spans: &[SpanRec], section: &str) -> (f64, BTreeMap<&'static str, f64>) {
    let selfs = self_times(spans);
    let roots = roots(spans);
    let mut op_wall = 0.0;
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.section != section || spans[roots[i]].name != "op" {
            continue;
        }
        if s.name == "op" {
            op_wall += s.dur();
        } else {
            *layers.entry(s.layer()).or_default() += selfs[i];
        }
    }
    let covered: f64 = layers.values().sum();
    (covered / op_wall.max(f64::MIN_POSITIVE), layers)
}

/// Durations of every span named `name` in `section`.
pub fn durations(spans: &[SpanRec], section: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.section == section && s.name == name)
        .map(SpanRec::dur)
        .collect()
}

/// The spans as Chrome trace-event JSON (opens in Perfetto), with the
/// parent index carried in `args`.
pub fn to_chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
            s.name,
            s.section,
            s.start * 1e6,
            s.dur() * 1e6
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// A model wrapper that records `engine.reset` spans around
/// [`EvolvingGraph::reset`] and otherwise delegates unchanged, so the
/// realization (and every record) is identical to the bare model's.
pub struct Timed<G>(pub G);

impl<G: EvolvingGraph> EvolvingGraph for Timed<G> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        self.0.step()
    }

    fn reset(&mut self, seed: u64) {
        span("engine.reset", || self.0.reset(seed));
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        self.0.step_delta(delta);
    }

    fn has_native_deltas(&self) -> bool {
        self.0.has_native_deltas()
    }

    fn rebase_deltas(&mut self) {
        self.0.rebase_deltas();
    }

    fn warm_up(&mut self, rounds: usize) {
        self.0.warm_up(rounds);
    }

    fn sharding(&mut self) -> Option<&mut dyn ShardAccess> {
        self.0.sharding()
    }
}
