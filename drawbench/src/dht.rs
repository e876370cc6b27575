//! The forwarding `Dht` wrapper the benchmark draws through, and the
//! recorder counters it reads at each lookup's boundary.

use std::cell::{Cell, RefCell};

use chord::{ChordDht, ChordNetwork, NodeId};
use keyspace::{KeySpace, Point};
use peer_sampling::{Dht, DhtError, Resolved};

use crate::spans::{Name, Tracer};

/// The public recorder counters the benchmark reads before and after
/// each lookup and each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `lookup.hops`.
    pub hops: u64,
    /// `lookup.dead_probe`.
    pub dead_probes: u64,
    /// `lookup.retries`.
    pub retries: u64,
    /// `lookup.fallback_depth`.
    pub fallback_depth: u64,
    /// `engine.timeouts`.
    pub timeouts: u64,
}

impl Counters {
    pub fn read(net: &ChordNetwork) -> Counters {
        let r = net.metrics().recorder();
        let c = net.counters();
        Counters {
            hops: r.counter_value(c.lookup_hops),
            dead_probes: r.counter_value(c.lookup_dead_probe),
            retries: r.counter_value(c.lookup_retries),
            fallback_depth: r.counter_value(c.lookup_fallback_depth),
            timeouts: r.counter_value(c.engine_timeouts),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            hops: self.hops - earlier.hops,
            dead_probes: self.dead_probes - earlier.dead_probes,
            retries: self.retries - earlier.retries,
            fallback_depth: self.fallback_depth - earlier.fallback_depth,
            timeouts: self.timeouts - earlier.timeouts,
        }
    }

    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            hops: self.hops + other.hops,
            dead_probes: self.dead_probes + other.dead_probes,
            retries: self.retries + other.retries,
            fallback_depth: self.fallback_depth + other.fallback_depth,
            timeouts: self.timeouts + other.timeouts,
        }
    }
}

/// What the draw loop collects from the wrapper across draws.
#[derive(Default)]
pub struct LookupLog {
    /// `h` calls made.
    pub lookups: Cell<u64>,
    /// Counter deltas summed over those calls.
    pub counters: Cell<Counters>,
    /// `(target, answered point, answered peer)` of each `h` answer since
    /// the last drain, for the owner check on static rings.
    pub owners: RefCell<Vec<(Point, Point, NodeId)>>,
    /// Fault injection for the benchmark's own test: the next `h`
    /// answer is replaced by its owner's successor, a live but wrong
    /// owner that the owner check must reject.
    pub corrupt_next_answer: Cell<bool>,
}

/// Forwards every call to a [`ChordDht`], recording a span around `h`
/// and `next` when tracing and logging each `h` answer and counter delta.
pub struct Probed<'a> {
    pub dht: ChordDht<'a>,
    pub tracer: Option<&'a Tracer>,
    pub log: &'a LookupLog,
    pub log_owners: bool,
}

impl Dht for Probed<'_> {
    type Peer = NodeId;

    fn space(&self) -> KeySpace {
        self.dht.space()
    }

    fn h(&self, x: Point) -> Result<Resolved<NodeId>, DhtError> {
        let net = self.dht.network();
        let open = self.tracer.and_then(|t| t.begin(Name::H));
        let before = Counters::read(net);
        let mut out = self.dht.h(x);
        let delta = Counters::read(net).since(before);
        if let Some(t) = self.tracer {
            t.end(open, delta.hops);
        }
        self.log.lookups.set(self.log.lookups.get() + 1);
        self.log.counters.set(self.log.counters.get().plus(delta));
        if let Ok(hit) = &mut out {
            if self.log.corrupt_next_answer.replace(false) {
                let wrong = self.dht.next(hit.peer)?;
                hit.peer = wrong.peer;
                hit.point = wrong.point;
            }
            if self.log_owners {
                self.log.owners.borrow_mut().push((x, hit.point, hit.peer));
            }
        }
        out
    }

    fn next(&self, p: NodeId) -> Result<Resolved<NodeId>, DhtError> {
        let open = self.tracer.and_then(|t| t.begin(Name::Next));
        let out = self.dht.next(p);
        if let Some(t) = self.tracer {
            t.end(open, 1);
        }
        out
    }

    fn point_of(&self, p: NodeId) -> Result<Point, DhtError> {
        self.dht.point_of(p)
    }
}
