//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (never inside the library), kept in memory, and
//! written out once the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries a span can sit at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// `peer_sampling::Sampler::sample` over Chord.
    Draw,
    /// `ChordDht::h`, through the forwarding wrapper.
    H,
    /// `ChordDht::next`, through the forwarding wrapper.
    Next,
    /// `ChordNetwork::bootstrap`.
    Bootstrap,
    /// `ChordNetwork::crash`.
    Crash,
    /// `ChordNetwork::join`.
    Join,
    /// `ChordNetwork::batched_maintenance_round`.
    Maintenance,
    /// A batch of `LookupEngine::submit` calls.
    Submit,
    /// `LookupEngine::run_until`.
    RunUntil,
    /// A batch of `ChordNetwork::find_successor_with_policy` calls.
    SyncLookup,
    /// A batch of `RingIndex::successor` calls.
    RingSuccessor,
    /// A batch of `Sampler::sample` calls on an `OracleDht`.
    OracleDraw,
    /// A batch of standalone `telemetry::Recorder` hop event bundles.
    RecorderBundle,
    /// A batch of `simnet::EventQueue` pop + schedule pairs.
    QueuePushPop,
}

impl Name {
    /// How many names there are (`QueuePushPop` is the last).
    pub const COUNT: usize = Name::QueuePushPop as usize + 1;

    /// The span's name in the written trace.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Draw => "core.sampler.sample",
            Name::H => "chord.dht.h",
            Name::Next => "chord.dht.next",
            Name::Bootstrap => "chord.network.bootstrap",
            Name::Crash => "chord.network.crash",
            Name::Join => "chord.network.join",
            Name::Maintenance => "chord.network.batched_maintenance_round",
            Name::Submit => "chord.engine.submit",
            Name::RunUntil => "chord.engine.run_until",
            Name::SyncLookup => "chord.network.find_successor_with_policy",
            Name::RingSuccessor => "ringidx.successor",
            Name::OracleDraw => "core.sampler.sample_oracle",
            Name::RecorderBundle => "telemetry.recorder.hop_events",
            Name::QueuePushPop => "simnet.event_queue.push_pop",
        }
    }
}

/// Spans kept free for what runs after a loop stops.
pub const RESERVE: usize = 150_000;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. `count` is the work the span covered, read at
/// its boundary: trials for a draw, hops for an `h` lookup, calls for a
/// batch span, repair lookups for a maintenance round, completions for a
/// `run_until` window.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` once the tracer is full.
pub type Open = Option<u32>;

/// Records spans in memory up to a fixed capacity.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    op: Cell<u32>,
    capacity: usize,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity.min(1 << 20))),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
            capacity,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    /// Whether the buffer is within [`RESERVE`] spans of full: loops
    /// stop starting ops here, leaving room for the op in progress and the
    /// layer probes after the loop.
    pub fn nearly_full(&self) -> bool {
        self.spans.borrow().len() + RESERVE >= self.capacity
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&self, name: Name) -> Open {
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= self.capacity {
            return None;
        }
        let mut stack = self.stack.borrow_mut();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            parent: stack.last().copied().unwrap_or(ROOT),
            op: self.op.get(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&self, open: Open, count: u64) {
        let Some(id) = open else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Runs `f` inside a span whose count is `f`'s second result.
    pub fn wrap<T>(&self, name: Name, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.begin(name);
        let (out, count) = f();
        self.end(open, count);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Runs `f` in a span when a tracer is present, else just runs it.
pub fn traced<T>(tracer: Option<&Tracer>, name: Name, f: impl FnOnce() -> (T, u64)) -> T {
    match tracer {
        Some(t) => t.wrap(name, f),
        None => f().0,
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans seen.
    pub spans: u64,
    /// Summed duration.
    pub dur_ns: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
    /// Summed `count`.
    pub count: u64,
}

impl Agg {
    /// Mean duration per unit of `count` (per call, for batch spans).
    pub fn ns_per_count(&self) -> f64 {
        self.dur_ns as f64 / self.count.max(1) as f64
    }

    /// Mean duration per span.
    pub fn ns_per_span(&self) -> f64 {
        self.dur_ns as f64 / self.spans.max(1) as f64
    }
}

/// Totals per name over the spans `keep` selects; self times subtract
/// every child span, selected or not.
pub fn aggregate(spans: &[Span], keep: impl Fn(&Span) -> bool) -> [Agg; Name::COUNT] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = [Agg::default(); Name::COUNT];
    for (s, &children) in spans.iter().zip(&child_ns) {
        if !keep(s) {
            continue;
        }
        let a = &mut out[s.name as usize];
        a.spans += 1;
        a.dur_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(children);
        a.count += s.count;
    }
    out
}

/// Writes the spans as CSV, one span per line.
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,name,start_ns,end_ns,count")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{id},{parent},{},{},{},{},{}",
            s.op,
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: Name::Draw,
                parent: ROOT,
                op: 0,
                start_ns: 0,
                end_ns: 100,
                count: 2,
            },
            Span {
                name: Name::H,
                parent: 0,
                op: 0,
                start_ns: 10,
                end_ns: 40,
                count: 5,
            },
            Span {
                name: Name::Next,
                parent: 0,
                op: 0,
                start_ns: 50,
                end_ns: 60,
                count: 1,
            },
        ];
        let agg = aggregate(&spans, |_| true);
        let draw = agg[Name::Draw as usize];
        assert_eq!(
            (draw.spans, draw.dur_ns, draw.self_ns, draw.count),
            (1, 100, 60, 2)
        );
        assert_eq!(agg[Name::H as usize].self_ns, 30);
        let draws_only = aggregate(&spans, |s| s.name == Name::Draw);
        assert_eq!(draws_only[Name::Draw as usize].self_ns, 60);
        assert_eq!(draws_only[Name::H as usize].spans, 0);
    }

    #[test]
    fn full_tracer_drops_spans() {
        let t = Tracer::new(1);
        let a = t.begin(Name::Draw);
        let b = t.begin(Name::H);
        assert!(a.is_some() && b.is_none());
        t.end(b, 0);
        t.end(a, 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 1);
    }
}
