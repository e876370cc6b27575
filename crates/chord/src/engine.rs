//! Async message-passing lookup engine: in-flight lookups through simnet.
//!
//! A lookup's protocol — routed attempts, retry with backoff, then the
//! successor-walk and verified-quorum tiers — is one per-request state
//! machine, `Lookup` (in `lookup.rs`), with two drivers. The sync walk
//! ([`find_successor_with_policy`]) takes every step inline at zero
//! latency; this engine turns the same steps into messages
//! (`FindSuccessor`, `NextHop`, `Notify`, `Timeout`) driven through a
//! [`simnet::EventQueue`], so delay-based faults become
//! expressible: per-hop [`simnet::LatencyModel`] delays stretch into
//! simulated wall-clock, a [`SlowOverlay`] can make a ring sector
//! slow-but-alive, per-attempt deadlines fail attempts into the
//! [`RetryPolicy`](crate::RetryPolicy) tiers, and thousands of requests
//! multiplex over one deterministic event loop.
//!
//! The engine keeps only what is asynchronous: attempt generations,
//! deadlines, the answer's trip back to the origin, the backlog and the
//! slow overlay. Every routing decision and recorder side effect is a
//! machine transition, so a sequentially-driven engine with deadlines
//! disarmed is **bit-identical** to the sync walk — same owners, same
//! hops, same costs, same ordinals, same trace digest (pinned by
//! `tests/engine_equivalence.rs`). Concurrency then changes
//! *interleaving* only: requests draw latency from per-request RNG
//! streams and routing consumes randomness nowhere else, which is what
//! makes 10k interleaved lookups replay byte-identically and submission
//! order not matter.
//!
//! One modeling artifact is deliberate: a request's lifecycle is
//! attributed to its *origin*. `NextHop`/`Notify` answers return to the
//! origin, which re-issues the next `FindSuccessor` in the same tick —
//! iterative Chord, like the sync walk, not recursive routing.
//!
//! [`find_successor_with_policy`]: ChordNetwork::find_successor_with_policy

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use keyspace::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{EventQueue, SimDuration, SimTime};

use crate::lookup::{Lookup, Step};
use crate::network::{ChordNetwork, NodeId};
use crate::{LookupError, LookupResult};

/// Sentinel node index in [`Message::NextHop`]: the hop could not route
/// (its candidate set was exhausted, or it died before answering) — the
/// origin fails the attempt with `SuccessorsAllDead`.
const NO_NEXT: u32 = u32::MAX;

/// One protocol message of the engine. `req` is the request tag; `gen`
/// the attempt it was sent under — a delivery whose attempt was since
/// retried or completed is stale and dropped, which is what makes
/// completion exactly-once under timeout races.
enum Message {
    /// Origin → hop: route one step of the walk at node `at` (arena
    /// index).
    FindSuccessor { req: u64, gen: u8, at: u32 },
    /// Hop → origin: forward the walk to `next` (arena index), or
    /// [`NO_NEXT`] when the hop made no progress.
    NextHop { req: u64, gen: u8, next: u32 },
    /// Hop → origin: the walk resolved; the answer waits in the request.
    Notify { req: u64, gen: u8 },
    /// Self-addressed wakeup: the attempt's deadline expired.
    Timeout { req: u64, gen: u8 },
}

/// Knobs of one [`LookupEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Per-attempt deadline in ticks; `None` disarms deadlines entirely
    /// (no timeout events are ever scheduled — the equivalence tests run
    /// this way so stranded wakeups cannot advance the clock). When a
    /// deadline fires with a [`RetryPolicy`](crate::RetryPolicy) armed,
    /// the attempt is preempted into the policy's retry/fallback tiers;
    /// without one it only counts (`engine.timeouts`) and re-arms.
    pub timeout_ticks: Option<u64>,
    /// In-flight cap: requests beyond it queue in submission order and
    /// are admitted as completions free slots.
    pub max_inflight: usize,
    /// Master seed for the per-request RNG streams (latency draws).
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            timeout_ticks: None,
            max_inflight: usize::MAX,
            seed: 0,
        }
    }
}

/// A latency-skewed (not dead) ring sector: while `from <= now < until`,
/// every delivery produced by a hop processed at a node in `nodes` takes
/// `factor`× its sampled latency in wall-clock. Protocol *cost*
/// accounting is untouched — the slowdown shows up purely as in-flight
/// age, which is exactly what the watchdog's in-flight-age SLO measures.
#[derive(Debug, Clone)]
pub struct SlowOverlay {
    /// The slow sector's members.
    pub nodes: BTreeSet<NodeId>,
    /// Wall-clock multiplier (≥ 2 to mean anything).
    pub factor: u64,
    /// First tick of the slowdown window.
    pub from: SimTime,
    /// First tick after the slowdown window.
    pub until: SimTime,
}

/// One finished request: the terminal record the determinism tests
/// digest. Wall-clock fields are simulated time; with deadlines disarmed
/// and no slow overlay, `completed_at − started_at` equals the result's
/// accounted latency exactly (the latency-wiring invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Caller-chosen request tag (unique per engine).
    pub tag: u64,
    /// When the request entered the engine (backlog included).
    pub submitted_at: SimTime,
    /// When it was admitted in-flight and its first attempt began.
    pub started_at: SimTime,
    /// When the terminal answer landed at the origin.
    pub completed_at: SimTime,
    /// Routed attempts consumed (1 = no retry).
    pub attempts: u8,
    /// Deadlines that fired against this request.
    pub timeouts: u32,
    /// The lookup's outcome, cost fully attributed as in the sync walk.
    pub result: Result<LookupResult, LookupError>,
}

/// Per-request in-flight state (the request table): the protocol
/// machine plus what only the async driver needs.
struct Pending {
    lookup: Lookup,
    /// Private latency stream — `derive_seed(engine seed, tag)` — so a
    /// request's draws are independent of interleaving.
    rng: StdRng,
    /// The walk resolved and this answer is on its way home. Deadlines
    /// no longer preempt, making completion exactly-once.
    answer: Option<LookupResult>,
    submitted_at: SimTime,
    started_at: SimTime,
    /// Node whose answer the origin is currently waiting on — the peer a
    /// firing deadline penalizes in the score table.
    current: NodeId,
    timeouts: u32,
}

impl Pending {
    /// Whether a delivery sent under attempt `gen` still applies.
    fn live(&self, gen: u8) -> bool {
        self.lookup.attempt() == gen && self.answer.is_none()
    }
}

/// Every tag submitted to an engine: all tags below `floor`, plus the
/// sparse `above`. Sequential tags only advance `floor`, so the common
/// [`LookupEngine::submit`] path inserts into no tree.
#[derive(Default)]
struct SeenTags {
    floor: u64,
    above: BTreeSet<u64>,
}

impl SeenTags {
    /// Records `tag`; false if it was already recorded.
    fn insert(&mut self, tag: u64) -> bool {
        if tag != self.floor {
            return tag > self.floor && self.above.insert(tag);
        }
        self.floor += 1;
        while self.above.first() == Some(&self.floor) {
            self.above.pop_first();
            self.floor += 1;
        }
        true
    }
}

/// The deterministic async lookup event loop. See the module docs.
///
/// The engine holds no borrow of the network: every method takes
/// `&ChordNetwork`, so a driver can interleave `run_until` windows with
/// churn (`crash`/`join`/maintenance, which need `&mut`) — in-flight
/// requests then observe the ring changing under them, exactly the
/// production hazard the sync walk cannot express.
pub struct LookupEngine {
    config: EngineConfig,
    queue: EventQueue<Message>,
    now: SimTime,
    /// Boxed so tree nodes stay small: a request entering or leaving
    /// moves pointers, not whole `Pending` values.
    pending: BTreeMap<u64, Box<Pending>>,
    backlog: VecDeque<(u64, NodeId, Point)>,
    completions: Vec<Completion>,
    seen_tags: SeenTags,
    slow: Option<SlowOverlay>,
    next_tag: u64,
}
impl LookupEngine {
    /// Creates an idle engine at tick 0.
    pub fn new(config: EngineConfig) -> LookupEngine {
        LookupEngine {
            config,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            pending: BTreeMap::new(),
            backlog: VecDeque::new(),
            completions: Vec::new(),
            seen_tags: SeenTags::default(),
            slow: None,
            next_tag: 0,
        }
    }

    /// Installs (or clears) the slow-sector overlay.
    pub fn set_slow_overlay(&mut self, slow: Option<SlowOverlay>) {
        self.slow = slow;
    }

    /// Requests admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Requests waiting for an in-flight slot.
    pub fn backlog(&self) -> usize {
        self.backlog.len()
    }

    /// Everything completed so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Submits a lookup with the next sequential tag; returns the tag.
    pub fn submit(&mut self, net: &ChordNetwork, from: NodeId, target: Point) -> u64 {
        let tag = self.next_tag;
        self.submit_tagged(net, tag, from, target);
        tag
    }

    /// Submits a lookup under a caller-chosen `tag` (the permutation
    /// tests submit one workload in shuffled order but with stable
    /// per-request identity, hence stable per-request RNG streams).
    ///
    /// # Panics
    ///
    /// If `tag` was already submitted to this engine.
    pub fn submit_tagged(&mut self, net: &ChordNetwork, tag: u64, from: NodeId, target: Point) {
        assert!(self.seen_tags.insert(tag), "duplicate request tag {tag}");
        self.next_tag = self.next_tag.max(tag + 1);
        self.backlog.push_back((tag, from, target));
        self.admit(net);
    }

    /// Runs the event loop up to and including `deadline`, then parks the
    /// clock there. Apply churn between calls — never during one.
    pub fn run_until(&mut self, net: &ChordNetwork, faults: &crate::FaultPlan, deadline: SimTime) {
        self.admit(net);
        while let Some((t, msg)) = self.queue.pop_due(deadline) {
            self.now = t;
            self.process(net, faults, msg);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until every admitted *and backlogged* request has completed.
    pub fn drain(&mut self, net: &ChordNetwork, faults: &crate::FaultPlan) {
        self.admit(net);
        while let Some((t, msg)) = self.queue.pop() {
            self.now = t;
            self.process(net, faults, msg);
        }
    }

    /// FNV-1a digest of every completion, keyed by tag — independent of
    /// completion order, so it is the byte-identity the determinism and
    /// permutation-invariance tests compare. Covers outcomes, costs,
    /// attempts/timeouts and simulated wall-clock stamps; excludes op
    /// ordinals (global submission-order artifacts by design).
    pub fn report_digest(&self) -> u64 {
        let mut sorted: Vec<&Completion> = self.completions.iter().collect();
        sorted.sort_by_key(|c| c.tag);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in sorted {
            put(c.tag);
            put(c.submitted_at.ticks());
            put(c.started_at.ticks());
            put(c.completed_at.ticks());
            put(u64::from(c.attempts));
            put(u64::from(c.timeouts));
            match &c.result {
                Ok(hit) => {
                    put(1);
                    put(hit.node.index() as u64);
                    put(hit.point.get());
                    put(u64::from(hit.hops));
                    put(hit.cost.messages);
                    put(hit.cost.latency);
                }
                Err(e) => {
                    put(2);
                    put(match e {
                        LookupError::StartDead => 1,
                        LookupError::HopLimitExceeded { .. } => 2,
                        LookupError::SuccessorsAllDead => 3,
                        LookupError::TimedOut { .. } => 4,
                    });
                }
            }
        }
        h
    }

    /// Wall-clock delay of a delivery produced by a hop processed at
    /// `at`: the accounted latency, stretched by the slow overlay when
    /// `at` sits in the slow sector during its window.
    fn wall_delay(&self, at: NodeId, latency: u64) -> SimDuration {
        let factor = match &self.slow {
            Some(o) if self.now >= o.from && self.now < o.until && o.nodes.contains(&at) => {
                o.factor
            }
            _ => 1,
        };
        SimDuration::from_ticks(latency.saturating_mul(factor))
    }

    fn schedule_in(&mut self, delay: SimDuration, msg: Message) {
        self.queue.schedule(self.now.saturating_add(delay), msg);
    }

    /// Admits backlogged requests while in-flight slots are free.
    fn admit(&mut self, net: &ChordNetwork) {
        while self.pending.len() < self.config.max_inflight {
            let Some((tag, from, target)) = self.backlog.pop_front() else {
                return;
            };
            self.start_request(net, tag, from, target);
        }
    }

    fn start_request(&mut self, net: &ChordNetwork, tag: u64, from: NodeId, target: Point) {
        let mut lookup = Lookup::new(from, target);
        let step = lookup.begin(net, net.retry_policy());
        let p = Pending {
            lookup,
            rng: StdRng::seed_from_u64(simnet::rng::derive_seed(self.config.seed, tag)),
            answer: None,
            submitted_at: self.now,
            started_at: self.now,
            current: from,
            timeouts: 0,
        };
        self.pending.insert(tag, Box::new(p));
        self.follow(net, tag, step, SimDuration::ZERO);
    }

    /// Carries out a machine [`Step`] for request `req` as messages.
    /// `hop_delay` is the wall-clock the hop just processed took; it
    /// delays the hop's answer to the origin.
    fn follow(&mut self, net: &ChordNetwork, req: u64, step: Step, hop_delay: SimDuration) {
        let p = self.pending.get_mut(&req).expect("step for live request");
        let gen = p.lookup.attempt();
        match step {
            Step::Attempt { at, backoff } => {
                p.current = at;
                let delay = SimDuration::from_ticks(backoff);
                let at = arena_index(at);
                self.schedule_in(delay, Message::FindSuccessor { req, gen, at });
                if let Some(ticks) = self.config.timeout_ticks {
                    let deadline = SimDuration::from_ticks(backoff.saturating_add(ticks));
                    self.schedule_in(deadline, Message::Timeout { req, gen });
                }
            }
            Step::Forward(next) => {
                let next = arena_index(next);
                self.schedule_in(hop_delay, Message::NextHop { req, gen, next });
            }
            Step::Stuck(e) => {
                debug_assert_eq!(e, LookupError::SuccessorsAllDead);
                // The failure travels back to the origin before the
                // policy reacts (its probes' latency is already charged).
                let next = NO_NEXT;
                self.schedule_in(hop_delay, Message::NextHop { req, gen, next });
            }
            Step::Resolved(hit) => {
                p.answer = Some(hit);
                self.schedule_in(hop_delay, Message::Notify { req, gen });
            }
            Step::Finished { result, after } => {
                let at = self.now.saturating_add(SimDuration::from_ticks(after));
                self.complete(net, req, result, at);
            }
        }
    }

    fn process(&mut self, net: &ChordNetwork, faults: &crate::FaultPlan, msg: Message) {
        match msg {
            Message::FindSuccessor { req, gen, at } => self.on_find(net, faults, req, gen, at),
            Message::NextHop { req, gen, next } => self.on_next(net, req, gen, next),
            Message::Notify { req, gen } => self.on_notify(net, req, gen),
            Message::Timeout { req, gen } => self.on_timeout(net, req, gen),
        }
    }

    /// A hop processes one step of the walk: the machine's hop
    /// transition, its answer delayed by the hop's latency.
    fn on_find(
        &mut self,
        net: &ChordNetwork,
        faults: &crate::FaultPlan,
        req: u64,
        gen: u8,
        at: u32,
    ) {
        let Some(p) = self.pending.get_mut(&req).filter(|p| p.live(gen)) else {
            return; // stale: the attempt was retried out from under it
        };
        let current = NodeId::from_index(at as usize);
        p.current = current;
        let before = p.lookup.latency();
        let step = p
            .lookup
            .hop(net, current, faults, net.retry_policy(), &mut p.rng);
        let hop_latency = p.lookup.latency() - before;
        let delay = self.wall_delay(current, hop_latency);
        self.follow(net, req, step, delay);
    }

    /// The origin hears back from a hop: either forward the walk one
    /// step (same tick — iterative routing charges nothing between
    /// hops), or fail the attempt.
    fn on_next(&mut self, net: &ChordNetwork, req: u64, gen: u8, next: u32) {
        let Some(p) = self.pending.get_mut(&req).filter(|p| p.live(gen)) else {
            return;
        };
        if next != NO_NEXT {
            let msg = Message::FindSuccessor { req, gen, at: next };
            self.schedule_in(SimDuration::ZERO, msg);
            return;
        }
        let e = LookupError::SuccessorsAllDead;
        let step = p.lookup.fail(net, e, net.retry_policy(), &mut p.rng);
        self.follow(net, req, step, SimDuration::ZERO);
    }

    /// The terminal answer lands at the origin: exactly-once completion.
    fn on_notify(&mut self, net: &ChordNetwork, req: u64, gen: u8) {
        let answer = self.pending.get(&req).and_then(|p| {
            // Stale unless it is the resolved attempt's own answer.
            p.answer.filter(|_| p.lookup.attempt() == gen)
        });
        if let Some(hit) = answer {
            self.complete(net, req, Ok(hit), self.now);
        }
    }

    /// A deadline fired. Stale generations and resolved attempts (the
    /// answer is already on the wire) are no-ops; a live one counts,
    /// penalizes the peer being waited on, and — with a policy armed —
    /// fails the attempt into retry/fallback. Without a policy it merely
    /// re-arms: pure observation.
    fn on_timeout(&mut self, net: &ChordNetwork, req: u64, gen: u8) {
        let Some(p) = self.pending.get_mut(&req).filter(|p| p.live(gen)) else {
            return;
        };
        let timeout_ticks = self
            .config
            .timeout_ticks
            .expect("a deadline fired, so deadlines are armed");
        net.metrics()
            .recorder()
            .incr(net.counters().engine_timeouts);
        p.timeouts += 1;
        // A deadline is stronger evidence than one failed probe: record
        // two strikes, enough to penalize a slow-but-alive peer on the
        // spot, so the retry (and every concurrent lookup) routes around
        // it while the overlay lasts.
        if let Some(scores) = net.scores() {
            let mut scores = scores.borrow_mut();
            scores.record(p.current, false);
            scores.record(p.current, false);
        }
        let Some(policy) = net.retry_policy() else {
            let deadline = SimDuration::from_ticks(timeout_ticks);
            self.schedule_in(deadline, Message::Timeout { req, gen });
            return;
        };
        // Preempt: the attempt's probes were paid for even though it
        // never failed outright.
        let e = LookupError::TimedOut { timeout_ticks };
        let step = p.lookup.fail(net, e, Some(policy), &mut p.rng);
        self.follow(net, req, step, SimDuration::ZERO);
    }

    /// Removes the request, records the engine-level telemetry
    /// (`engine.completions`, the `engine.inflight_age` tail the
    /// watchdog gates), stores the [`Completion`] and admits backlog.
    fn complete(
        &mut self,
        net: &ChordNetwork,
        tag: u64,
        result: Result<LookupResult, LookupError>,
        completed_at: SimTime,
    ) {
        let p = self.pending.remove(&tag).expect("completion has state");
        let recorder = net.metrics().recorder();
        recorder.incr(net.counters().engine_completions);
        let age = completed_at - p.submitted_at;
        recorder.record_with_exemplar(
            net.counters().engine_age_hist,
            age.ticks(),
            p.lookup.ordinal(),
        );
        self.completions.push(Completion {
            tag,
            submitted_at: p.submitted_at,
            started_at: p.started_at,
            completed_at,
            attempts: p.lookup.attempt(),
            timeouts: p.timeouts,
            result,
        });
        self.admit(net);
    }
}

/// A node's arena index as carried in a [`Message`].
fn arena_index(id: NodeId) -> u32 {
    u32::try_from(id.index()).expect("arena indexes fit u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_tags_catch_every_repeat_in_any_order() {
        let mut seen = SeenTags::default();
        for tag in [3, 0, 5, 1, 2, 4, 9] {
            assert!(seen.insert(tag), "first sight of {tag}");
        }
        assert_eq!(seen.floor, 6);
        for tag in [0, 3, 5, 9] {
            assert!(!seen.insert(tag), "repeat of {tag}");
        }
        assert!(seen.insert(6) && seen.insert(7));
    }
}
