use core::fmt;

use keyspace::{Distance, Point};
use peer_sampling::Cost;
use rand::Rng;
use telemetry::{FallbackTier, HopRecord, LookupTrace, TraceOutcome};

use crate::network::{ChordNetwork, NodeId};
use crate::RetryPolicy;

/// Per-attempt trace state, allocated only when the recorder's tracing
/// flag is on — the disabled hot path pays one relaxed atomic load.
/// Owned by the [`Lookup`] machine, so the sync loop and the async
/// [`engine`](crate::engine) build the same traces hop-for-hop.
struct TraceBuilder {
    from: Point,
    target: Point,
    hops: Vec<HopRecord>,
    /// Latency accounted so far, to attribute per-hop deltas (probe
    /// timeouts included in the hop that paid for them).
    seen_latency: u64,
    /// Retry attempt stamped on every routed hop (0 = first try).
    attempt: u8,
    /// Operation ordinal (from `Recorder::next_op_ordinal`) — the id
    /// histogram exemplars carry, so tail buckets join back to traces.
    ordinal: u64,
}

impl TraceBuilder {
    fn hop(&mut self, net: &ChordNetwork, origin: Point, to: NodeId, forged: bool, cost: &Cost) {
        let to_point = net.node(to).point();
        let distance = net.space().distance(origin, to_point).get();
        let finger_level = if distance == 0 {
            0
        } else {
            (64 - distance.leading_zeros()) as u8
        };
        self.hops.push(HopRecord {
            node: to_point.get(),
            finger_level,
            forged,
            latency: cost.latency - self.seen_latency,
            attempt: self.attempt,
            tier: FallbackTier::Direct,
        });
        self.seen_latency = cost.latency;
    }

    /// A synthetic fallback-tier hop (successor-walk step or quorum
    /// round); `finger_level` is 0 — no finger resolved it.
    fn fallback_hop(&mut self, node: Point, tier: FallbackTier, total_latency: u64) {
        self.hops.push(HopRecord {
            node: node.get(),
            finger_level: 0,
            forged: false,
            latency: total_latency - self.seen_latency,
            attempt: self.attempt,
            tier,
        });
        self.seen_latency = total_latency;
    }

    fn finish(self, net: &ChordNetwork, outcome: TraceOutcome, cost: &Cost) {
        net.metrics().recorder().push_trace(LookupTrace {
            from: self.from.get(),
            target: self.target.get(),
            hops: self.hops,
            outcome,
            messages: cost.messages,
            latency: cost.latency,
            ordinal: self.ordinal,
        });
    }
}

/// Error from a routed Chord lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// The starting node is dead.
    StartDead,
    /// The hop cap was exceeded (routing loop or pathological churn).
    HopLimitExceeded {
        /// Configured cap that was hit.
        max_hops: u32,
    },
    /// A hop's entire successor list was dead — the ring is partitioned
    /// from this node's perspective.
    SuccessorsAllDead,
    /// Every async-engine attempt ran past its deadline (the routed walk
    /// never failed outright — it was simply too slow). Sync lookups
    /// never return this; only the [`engine`](crate::engine) arms
    /// deadlines.
    TimedOut {
        /// The per-attempt deadline that expired, in ticks.
        timeout_ticks: u64,
    },
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupError::StartDead => write!(f, "lookup started at a dead node"),
            LookupError::HopLimitExceeded { max_hops } => {
                write!(f, "lookup exceeded the {max_hops}-hop cap")
            }
            LookupError::SuccessorsAllDead => {
                write!(f, "every successor of a hop was dead (ring partition)")
            }
            LookupError::TimedOut { timeout_ticks } => {
                write!(
                    f,
                    "every attempt ran past its {timeout_ticks}-tick deadline"
                )
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// A successful routed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the target point (its successor on the ring).
    pub node: NodeId,
    /// That node's point.
    pub point: Point,
    /// Routing hops taken (nodes traversed).
    pub hops: u32,
    /// Messages and latency spent, **including** probes of dead nodes
    /// (failure detection is not free).
    pub cost: Cost,
}

/// What one [`ChordNetwork::hop_step`] decided: the routed walk either
/// resolved, must forward to a next hop, or cannot make progress.
enum HopOutcome {
    /// The lookup resolved (or was Byzantine-captured) at this hop.
    Done(LookupResult),
    /// Forward the lookup to this next node (one more hop).
    Forward(NodeId),
    /// The hop could not make progress; the walk fails with this error.
    Failed(LookupError),
}

/// What a [`Lookup`] transition asks its driver to do next.
pub(crate) enum Step {
    /// Route the current attempt from the origin `at`, `backoff` ticks
    /// from now (nonzero only on a retry).
    Attempt {
        /// The origin.
        at: NodeId,
        /// Retry backoff to wait first, in ticks.
        backoff: u64,
    },
    /// Ask this node for the walk's next step.
    Forward(NodeId),
    /// The hop just processed could not make progress; the driver hands
    /// the error back to [`Lookup::fail`].
    Stuck(LookupError),
    /// The attempt resolved, its cost fully attributed.
    Resolved(LookupResult),
    /// The lookup is over, `after` ticks from now (a retry's backoff
    /// before a dead-origin exit, or the fallback tiers' latency).
    Finished {
        /// The final answer.
        result: Result<LookupResult, LookupError>,
        /// Simulated time the last transition still spends, in ticks.
        after: u64,
    },
}

/// One lookup's protocol: routed attempts, retry with backoff, then the
/// successor-walk and verified-quorum tiers, as a per-request state
/// machine with plain transitions — [`begin`](Lookup::begin),
/// [`hop`](Lookup::hop) and [`fail`](Lookup::fail).
///
/// It has two drivers. [`ChordNetwork::find_successor`] and
/// [`ChordNetwork::find_successor_with_policy`] run it in an inline
/// zero-latency loop; the async [`engine`](crate::engine) runs it from
/// `EventQueue` messages and adds only time. Every recorder side effect
/// (counters, spans, ordinals, traces) happens inside a transition, in
/// one fixed order, so the drivers agree bit for bit at zero latency.
///
/// Each transition takes the [`RetryPolicy`] as an argument rather than
/// reading the network's: `find_successor` runs without one even while
/// a policy is armed.
pub(crate) struct Lookup {
    from: NodeId,
    target: Point,
    /// 1-based routed attempt.
    attempt: u8,
    /// Cost folded in from closed attempts plus backoff.
    spent: Cost,
    /// Running cost of the current attempt.
    cost: Cost,
    /// Latency of the current attempt's dead probes against
    /// score-demoted candidates, for the `lookup;demoted_skip` span.
    skip: u64,
    /// Hops taken by the current attempt.
    hops: u32,
    /// Op ordinal of the current attempt (exemplar / trace id).
    ordinal: u64,
    trace: Option<TraceBuilder>,
}

impl Lookup {
    /// A lookup for `target` from `from`, before its first attempt.
    pub(crate) fn new(from: NodeId, target: Point) -> Lookup {
        Lookup {
            from,
            target,
            attempt: 1,
            spent: Cost::FREE,
            cost: Cost::FREE,
            skip: 0,
            hops: 0,
            ordinal: 0,
            trace: None,
        }
    }

    /// The current 1-based attempt.
    pub(crate) fn attempt(&self) -> u8 {
        self.attempt
    }

    /// Op ordinal of the current attempt.
    pub(crate) fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// Latency accounted so far, every attempt and backoff included.
    pub(crate) fn latency(&self) -> u64 {
        self.spent.latency + self.cost.latency
    }

    /// Begins the current attempt: charges the backoff of a retry, exits
    /// on a dead origin (no tier can act for it), then draws the op
    /// ordinal and allocates the trace.
    pub(crate) fn begin(&mut self, net: &ChordNetwork, policy: Option<RetryPolicy>) -> Step {
        let counters = net.counters();
        let recorder = net.metrics().recorder();
        let mut backoff = 0;
        if self.attempt > 1 {
            let policy = policy.expect("retries imply a policy");
            // Backoff is pure waiting: latency, no messages.
            backoff = policy.backoff_ticks(self.attempt - 1);
            self.spent.latency += backoff;
            recorder.incr(counters.lookup_retries);
            recorder
                .profiler()
                .add(counters.span_retry_backoff, backoff);
        }
        if !net.node(self.from).is_alive() {
            self.close_attempt(net);
            return Step::Finished {
                result: Err(LookupError::StartDead),
                after: backoff,
            };
        }
        // Drawn whether or not tracing is on, so exemplar ids agree
        // between traced and untraced replays of the same seed.
        self.ordinal = recorder.next_op_ordinal();
        self.hops = 0;
        self.trace = recorder.tracing_enabled().then(|| TraceBuilder {
            from: net.node(self.from).point(),
            target: self.target,
            hops: Vec::new(),
            seen_latency: 0,
            attempt: self.attempt - 1,
            ordinal: self.ordinal,
        });
        Step::Attempt {
            at: self.from,
            backoff,
        }
    }

    /// Processes the current attempt's hop at `at`: the hop cap first,
    /// then a hop that died while the walk was on its way to it (one
    /// timed-out probe, no progress — only the engine can deliver one),
    /// then one [`hop_step`](ChordNetwork::hop_step). A resolving hop
    /// closes the attempt.
    pub(crate) fn hop<R: Rng + ?Sized>(
        &mut self,
        net: &ChordNetwork,
        at: NodeId,
        faults: &crate::FaultPlan,
        policy: Option<RetryPolicy>,
        rng: &mut R,
    ) -> Step {
        let max_hops = net.config().max_hops();
        if self.hops > max_hops {
            return self.fail(net, LookupError::HopLimitExceeded { max_hops }, policy, rng);
        }
        if !net.node(at).is_alive() {
            self.cost.messages += 1;
            self.cost.latency += net.config().latency().sample(rng).ticks();
            return Step::Stuck(LookupError::SuccessorsAllDead);
        }
        match net.hop_step(self, at, faults, rng) {
            HopOutcome::Forward(next) => {
                self.hops += 1;
                Step::Forward(next)
            }
            HopOutcome::Failed(e) => Step::Stuck(e),
            HopOutcome::Done(mut hit) => {
                self.close_attempt(net);
                hit.cost = self.spent;
                if self.attempt > 1 {
                    net.metrics()
                        .recorder()
                        .add(net.counters().lookup_fallback_depth, 1);
                }
                Step::Resolved(hit)
            }
        }
    }

    /// Fails the current attempt with `e`: closes it, then retries with
    /// backoff, degrades through
    /// [`fallback_resolve`](ChordNetwork::fallback_resolve) once the
    /// attempts are spent, or — with no policy — ends with `e`.
    pub(crate) fn fail<R: Rng + ?Sized>(
        &mut self,
        net: &ChordNetwork,
        e: LookupError,
        policy: Option<RetryPolicy>,
        rng: &mut R,
    ) -> Step {
        self.close_attempt(net);
        let Some(policy) = policy else {
            return Step::Finished {
                result: Err(e),
                after: 0,
            };
        };
        if self.attempt < policy.max_attempts.max(1) {
            self.attempt += 1;
            return self.begin(net, Some(policy));
        }
        let entry = self.spent.latency;
        let result = net.fallback_resolve(self.from, self.target, self.spent, e, &policy, rng);
        let after = result.as_ref().map_or(0, |hit| hit.cost.latency - entry);
        Step::Finished { result, after }
    }

    /// Ends the current attempt: finishes a trace still open as
    /// `Unresolved`, charges the attempt's routed latency to
    /// `lookup;finger_walk` (minus the share burnt probing score-demoted
    /// candidates, which goes to `lookup;demoted_skip`) and folds its
    /// cost into `spent`.
    fn close_attempt(&mut self, net: &ChordNetwork) {
        if let Some(t) = self.trace.take() {
            t.finish(net, TraceOutcome::Unresolved, &self.cost);
        }
        let counters = net.counters();
        let profiler = net.metrics().recorder().profiler();
        profiler.add(counters.span_finger_walk, self.cost.latency - self.skip);
        if self.skip > 0 {
            profiler.add(counters.span_demoted_skip, self.skip);
        }
        self.spent.messages += self.cost.messages;
        self.spent.latency += self.cost.latency;
        self.cost = Cost::FREE;
        self.skip = 0;
    }
}

impl ChordNetwork {
    /// Routes a lookup for `target` starting at node `from`, returning the
    /// live node whose point is the clockwise successor of `target`.
    ///
    /// This is the iterative Chord algorithm (SIGCOMM Fig. 5): at each hop
    /// the current node either answers from its successor list (when the
    /// target falls between itself and a live successor) or forwards to
    /// the closest preceding finger. Each contacted node costs one message
    /// and one latency sample; contacting a dead node costs the same (a
    /// timed-out probe) and the router falls back to the next candidate.
    ///
    /// An armed [`RetryPolicy`] is ignored here (maintenance and storage
    /// route through this entry); see
    /// [`find_successor_with_policy`](ChordNetwork::find_successor_with_policy).
    ///
    /// # Errors
    ///
    /// * [`LookupError::StartDead`] — `from` is dead.
    /// * [`LookupError::SuccessorsAllDead`] — some hop lost its entire
    ///   successor list (only possible when churn outpaces stabilization).
    /// * [`LookupError::HopLimitExceeded`] — the configured cap was hit.
    pub fn find_successor<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        self.run_lookup(from, target, &crate::FaultPlan::none(), None, rng)
    }

    /// [`find_successor`](ChordNetwork::find_successor) with routing-level
    /// fault injection, under the armed [`RetryPolicy`] — the
    /// graceful-degradation entry point used by the DHT facade.
    ///
    /// Any hop that reaches a node for which
    /// [`FaultPlan::claims_ownership`](crate::FaultPlan::claims_ownership)
    /// holds is answered by that node claiming the target for itself,
    /// regardless of ring position. The originating node is exempt (a peer
    /// trusts its own state; the attack is on *remote* answers). With an
    /// empty plan and no policy armed this is byte-for-byte
    /// `find_successor`.
    ///
    /// With a policy, a failed routed attempt is retried up to
    /// `max_attempts` times, each retry paying a deterministic backoff
    /// (`backoff_base << (k − 1)` latency ticks, no messages) — with
    /// adaptive scoring on, the failed attempt's dead probes have already
    /// re-ranked the next attempt's candidates. If every routed attempt
    /// fails, the lookup *degrades* instead of erroring:
    ///
    /// * **successor-walk** (fallback depth 2): pure `next`-pointer
    ///   progress from the origin for up to `walk_limit` hops, one
    ///   message per hop — correct on any ring whose live successor
    ///   chain is intact, no fingers needed;
    /// * **verified-quorum resolution** (fallback depth 3): an
    ///   out-of-band query of the quorum-verified position directory,
    ///   charged `quorum_messages` messages plus one parallel round of
    ///   latency. Returns the true owner whenever any live node exists.
    ///
    /// All failed-attempt cost is carried into the returned
    /// [`LookupResult::cost`], and every escalation bumps
    /// `lookup.retries` / `lookup.fallback_depth`, so degraded answers
    /// arrive with their extra cost attributed.
    ///
    /// # Errors
    ///
    /// [`LookupError::StartDead`] when `from` is dead (no fallback can
    /// act for a dead origin); with a policy, the last routed error only
    /// if the ring has no live nodes left to resolve against; without
    /// one, the errors of [`find_successor`](ChordNetwork::find_successor).
    pub fn find_successor_with_policy<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        self.run_lookup(from, target, faults, self.retry_policy(), rng)
    }

    /// The zero-latency driver of the [`Lookup`] machine: every step the
    /// engine would send as a message is taken inline.
    fn run_lookup<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        faults: &crate::FaultPlan,
        policy: Option<RetryPolicy>,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        let mut walk = Lookup::new(from, target);
        let mut step = walk.begin(self, policy);
        loop {
            step = match step {
                Step::Attempt { at, .. } | Step::Forward(at) => {
                    walk.hop(self, at, faults, policy, rng)
                }
                Step::Stuck(e) => walk.fail(self, e, policy, rng),
                Step::Resolved(hit) => return Ok(hit),
                Step::Finished { result, .. } => return result,
            };
        }
    }

    /// One hop of the iterative walk at `current`, the routing half of
    /// [`Lookup::hop`]: it charges the hop's probes to `walk`'s current
    /// attempt and records its counters and trace hops in a fixed order.
    /// The machine owns the hop cap and the attempt's span close.
    fn hop_step<R: Rng + ?Sized>(
        &self,
        walk: &mut Lookup,
        current: NodeId,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> HopOutcome {
        let (target, hops, ordinal) = (walk.target, walk.hops, walk.ordinal);
        let Lookup {
            cost, skip, trace, ..
        } = walk;
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        let latency_model = self.config().latency();
        let cur_point = self.node(current).point();

        // Fault injection: a Byzantine hop answers the lookup with
        // itself instead of routing on, *and* forges its reported ring
        // position as the target itself — the most advantageous lie,
        // since any interval check the caller runs (the sampler's
        // `|I(s, l(h(s)))| < λ` test in particular) then passes. The
        // origin never lies to itself, so `hops > 0` guards the first
        // iteration.
        if hops > 0 && faults.claims_ownership(current) {
            recorder.incr(counters.lookup_byzantine_claim);
            recorder.add(counters.lookup_hops, hops as u64);
            recorder.record_with_exemplar(counters.hop_hist, hops as u64, ordinal);
            if let Some(t) = trace.take() {
                t.finish(self, TraceOutcome::Captured(cur_point.get()), cost);
            }
            return HopOutcome::Done(LookupResult {
                node: current,
                point: target,
                hops,
                cost: *cost,
            });
        }

        // Singleton special case: a node that is its own successor
        // owns the whole ring.
        let successors = self.node(current).successors();
        if successors.len() == 1 && successors.first() == Some(current) {
            recorder.add(counters.lookup_hops, hops as u64);
            recorder.record_with_exemplar(counters.hop_hist, hops as u64, ordinal);
            if let Some(t) = trace.take() {
                t.finish(self, TraceOutcome::Resolved(cur_point.get()), cost);
            }
            return HopOutcome::Done(LookupResult {
                node: current,
                point: cur_point,
                hops,
                cost: *cost,
            });
        }

        // Case 1: the target falls between us and some successor-list
        // entry. The first such entry is the locally-believed answer;
        // if it turns out dead, the next live list entry is the true
        // successor (list entries are consecutive ring nodes), at the
        // price of one timed-out probe per dead entry.
        if successors.is_empty() {
            if let Some(t) = trace.take() {
                t.finish(self, TraceOutcome::Unresolved, cost);
            }
            return HopOutcome::Failed(LookupError::SuccessorsAllDead);
        }
        let answer_rank = successors
            .iter()
            .position(|e| self.between_open_closed(cur_point, target, self.node(e).point()));
        if let Some(rank) = answer_rank {
            let mut found = None;
            for cand in successors.iter().skip(rank) {
                // Probe / handoff message.
                cost.messages += 1;
                cost.latency += latency_model.sample(rng).ticks();
                let alive = self.node(cand).is_alive();
                if let Some(scores) = self.scores() {
                    scores.borrow_mut().record(cand, alive);
                }
                if alive {
                    found = Some(cand);
                    break;
                }
                recorder.incr(counters.lookup_dead_probe);
            }
            if let Some(cand) = found {
                recorder.add(counters.lookup_hops, (hops + 1) as u64);
                recorder.record_with_exemplar(counters.hop_hist, (hops + 1) as u64, ordinal);
                let answer_point = self.node(cand).point();
                if let Some(mut t) = trace.take() {
                    t.hop(self, cur_point, cand, faults.is_byzantine(cand), cost);
                    t.finish(self, TraceOutcome::Resolved(answer_point.get()), cost);
                }
                return HopOutcome::Done(LookupResult {
                    node: cand,
                    point: answer_point,
                    hops: hops + 1,
                    cost: *cost,
                });
            }
            // The whole tail of the list was dead: fall through to
            // finger routing, which forwards to a live node *before*
            // the target; that node's (fresher) list resolves it.
        }

        // Case 2: forward to the closest preceding live candidate
        // (fingers first, then the successor list).
        let Some(next_hop) = self.closest_preceding(current, target, cost, skip, rng) else {
            if let Some(t) = trace.take() {
                t.finish(self, TraceOutcome::Unresolved, cost);
            }
            return HopOutcome::Failed(LookupError::SuccessorsAllDead);
        };
        if let Some(t) = trace.as_mut() {
            t.hop(
                self,
                cur_point,
                next_hop,
                faults.is_byzantine(next_hop),
                cost,
            );
        }
        HopOutcome::Forward(next_hop)
    }

    /// `at`'s routing candidates in input order: the distinct finger
    /// values in run order, then the successor list. A node may appear
    /// more than once.
    fn routing_candidates(&self, at: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let node = self.node(at);
        node.fingers().distinct().chain(node.successors().iter())
    }

    /// `c`'s clockwise distance from `at` if `c` lies strictly inside
    /// (`at`, `target`), the only candidates that make progress.
    #[inline]
    fn preceding_distance(
        &self,
        at: NodeId,
        at_point: Point,
        target: Point,
        c: NodeId,
    ) -> Option<Distance> {
        let p = self.node(c).point();
        (c != at && self.between_open(at_point, p, target))
            .then(|| self.space().distance(at_point, p))
    }

    /// The closest node preceding `target` among `at`'s fingers and
    /// successor list, probing candidates from closest-preceding downward
    /// and skipping dead ones (each probe costs a message). `skip`
    /// accumulates latency burnt on probes of score-demoted candidates
    /// that were dead anyway, for span attribution.
    ///
    /// The probe order is a contract: take the [`routing_candidates`]
    /// strictly inside (`at`, `target`), stable-sort them by distance
    /// from `at`, drop consecutive duplicates, stable-sort score-penalized
    /// ones to the front, and probe from the back — so a healthy lower
    /// finger is tried before a closer but flaky one. The first probe is
    /// therefore the candidate maximising (not penalized, distance), the
    /// later one in input order on ties. One allocation-free pass picks
    /// it — on a static ring it is the only probe — and the rest of the
    /// order is built only after it finds a dead node.
    ///
    /// [`routing_candidates`]: ChordNetwork::routing_candidates
    fn closest_preceding<R: Rng + ?Sized>(
        &self,
        at: NodeId,
        target: Point,
        cost: &mut Cost,
        skip: &mut u64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let at_point = self.node(at).point();
        let latency_model = self.config().latency();
        let scores = self.scores();

        // `>=` keeps the later of equally ranked candidates.
        let first = {
            let scores = scores.map(|s| s.borrow());
            let mut best = None;
            for c in self.routing_candidates(at) {
                let Some(d) = self.preceding_distance(at, at_point, target, c) else {
                    continue;
                };
                let rank = (!scores.as_ref().is_some_and(|s| s.penalized(c)), d);
                if best.is_none_or(|(_, top)| rank >= top) {
                    best = Some((c, rank));
                }
            }
            best
        };

        let mut probe = |cand: NodeId| {
            cost.messages += 1;
            let probe_latency = latency_model.sample(rng).ticks();
            cost.latency += probe_latency;
            let was_penalized = scores.is_some_and(|s| s.borrow().penalized(cand));
            let alive = self.node(cand).is_alive();
            if let Some(scores) = scores {
                scores.borrow_mut().record(cand, alive);
            }
            if !alive {
                if was_penalized {
                    *skip += probe_latency;
                }
                self.metrics()
                    .recorder()
                    .incr(self.counters().lookup_dead_probe);
            }
            alive
        };

        if let Some((first, (first_healthy, _))) = first {
            if probe(first) {
                return Some(first);
            }
            // The first probe was dead: build the whole order and drop
            // `first` from its back. `first` keeps the class it had before
            // its probe, which may just have penalized it; no other score
            // changed.
            let mut order: Vec<(NodeId, Distance)> = self
                .routing_candidates(at)
                .filter_map(|c| Some((c, self.preceding_distance(at, at_point, target, c)?)))
                .collect();
            order.sort_by_key(|&(_, d)| d);
            order.dedup();
            if let Some(scores) = scores {
                let scores = scores.borrow();
                order.sort_by_key(|&(c, _)| {
                    if c == first {
                        first_healthy
                    } else {
                        !scores.penalized(c)
                    }
                });
            }
            let probed = order.pop();
            debug_assert_eq!(probed.map(|(c, _)| c), Some(first));
            for &(cand, _) in order.iter().rev() {
                if probe(cand) {
                    return Some(cand);
                }
            }
        }
        // No usable finger: fall back to the first live successor, which
        // always makes clockwise progress.
        self.first_live_successor(at)
            .filter(|&s| s != at)
            .inspect(|_s| {
                cost.messages += 1;
                cost.latency += latency_model.sample(rng).ticks();
            })
    }

    /// The degradation tail [`Lookup::fail`] hands off to once `policy`'s
    /// routed attempts are spent: successor-walk, then verified-quorum
    /// resolution. `spent` carries the cost of the failed routed attempts
    /// (and any backoff) so the degraded answer arrives fully attributed;
    /// `last_err` is returned when even the quorum tier has nothing live
    /// to resolve against.
    fn fallback_resolve<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        mut spent: Cost,
        last_err: LookupError,
        policy: &RetryPolicy,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        let latency_model = self.config().latency();
        // The fallback tiers are one logical operation: one ordinal
        // (drawn traced or not, keeping exemplar ids replay-stable) and
        // one trace carrying synthetic walk/quorum hops.
        let fallback_ordinal = recorder.next_op_ordinal();
        let last_attempt = policy.max_attempts.max(1) - 1;
        let mut trace = recorder.tracing_enabled().then(|| TraceBuilder {
            from: self.node(from).point(),
            target,
            hops: Vec::new(),
            seen_latency: spent.latency,
            attempt: last_attempt,
            ordinal: fallback_ordinal,
        });

        // Fallback tier: successor-walk from the origin. Immune to the
        // stale fingers that defeated routing; every hop is guaranteed
        // clockwise progress through live nodes.
        let walk_start = spent.latency;
        let mut cur = from;
        let mut walked = 0u32;
        while walked < policy.walk_limit {
            let cur_point = self.node(cur).point();
            let Some(next) = self.first_live_successor(cur).filter(|&s| s != cur) else {
                break; // the walk itself hit a dead arc: escalate
            };
            spent.messages += 1;
            spent.latency += latency_model.sample(rng).ticks();
            walked += 1;
            let next_point = self.node(next).point();
            if let Some(t) = trace.as_mut() {
                t.fallback_hop(next_point, telemetry::FallbackTier::Walk, spent.latency);
            }
            if self.between_open_closed(cur_point, target, next_point) {
                recorder.add(counters.lookup_hops, u64::from(walked));
                recorder.record_with_exemplar(
                    counters.hop_hist,
                    u64::from(walked),
                    fallback_ordinal,
                );
                recorder.add(counters.lookup_fallback_depth, 2);
                recorder
                    .profiler()
                    .add(counters.span_successor_walk, spent.latency - walk_start);
                if let Some(t) = trace.take() {
                    t.finish(self, TraceOutcome::Resolved(next_point.get()), &spent);
                }
                return Ok(LookupResult {
                    node: next,
                    point: next_point,
                    hops: walked,
                    cost: spent,
                });
            }
            cur = next;
        }
        if spent.latency > walk_start {
            recorder
                .profiler()
                .add(counters.span_successor_walk, spent.latency - walk_start);
        }

        // Last-resort tier: verified-quorum resolution against the
        // ground-truth directory — always correct while anything lives,
        // charged as a quorum of parallel queries.
        if let Some(owner) = self.truth_successor_id(target) {
            spent.messages += policy.quorum_messages;
            let quorum_latency = latency_model.sample(rng).ticks();
            spent.latency += quorum_latency;
            recorder.add(counters.lookup_fallback_depth, 3);
            recorder
                .profiler()
                .add(counters.span_verified_quorum, quorum_latency);
            let owner_point = self.node(owner).point();
            if let Some(mut t) = trace.take() {
                t.fallback_hop(owner_point, telemetry::FallbackTier::Quorum, spent.latency);
                t.finish(self, TraceOutcome::Resolved(owner_point.get()), &spent);
            }
            return Ok(LookupResult {
                node: owner,
                point: owner_point,
                hops: 0,
                cost: spent,
            });
        }
        if let Some(t) = trace.take() {
            t.finish(self, TraceOutcome::Unresolved, &spent);
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordConfig;
    use keyspace::KeySpace;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn bootstrap(n: usize, seed: u64) -> ChordNetwork {
        let space = KeySpace::full();
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, n),
            ChordConfig::default(),
        )
    }

    #[test]
    fn lookup_matches_ground_truth() {
        let net = bootstrap(256, 1);
        let mut r = rng();
        let start = net.live_ids()[0];
        for _ in 0..200 {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
    }

    #[test]
    fn lookup_from_every_start_matches() {
        let net = bootstrap(64, 2);
        let mut r = rng();
        let target = net.space().random_point(&mut r);
        let truth = net.ground_truth_successor(target);
        for start in net.live_ids() {
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert_eq!(hit.point, truth, "start {start}");
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let net = bootstrap(1024, 3);
        let mut r = rng();
        let start = net.live_ids()[0];
        let mut total_hops = 0u64;
        let lookups = 300;
        for _ in 0..lookups {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            total_hops += hit.hops as u64;
            assert!(hit.hops <= 30, "hop count {} too high for n=1024", hit.hops);
        }
        let mean = total_hops as f64 / lookups as f64;
        // Chord's expected path length is ~½ log2 n = 5; allow slack.
        assert!((2.0..10.0).contains(&mean), "mean hops {mean}");
    }

    #[test]
    fn messages_track_hops_on_healthy_ring() {
        let net = bootstrap(128, 4);
        let mut r = rng();
        let start = net.live_ids()[0];
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        // On a fault-free ring: one message per forwarding step plus the
        // final handoff; no dead probes.
        assert!(hit.cost.messages >= hit.hops as u64);
        assert!(hit.cost.messages <= hit.hops as u64 + 2);
        assert_eq!(net.metrics().get("lookup.dead_probe"), 0);
    }

    #[test]
    fn lookup_self_point_returns_self() {
        let net = bootstrap(32, 5);
        let mut r = rng();
        let start = net.live_ids()[7];
        let hit = net
            .find_successor(start, net.node(start).point(), &mut r)
            .unwrap();
        assert_eq!(hit.node, start);
    }

    #[test]
    fn lookup_routes_around_crashes() {
        let mut net = bootstrap(128, 6);
        let mut r = rng();
        // Crash 20 nodes without any repair rounds.
        let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(6).take(20).collect();
        for v in &victims {
            net.crash(*v);
        }
        let start = net.live_ids()[0];
        for _ in 0..100 {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert!(net.node(hit.node).is_alive());
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
        // Dead fingers cost extra probe messages.
        assert!(net.metrics().get("lookup.dead_probe") > 0);
    }

    #[test]
    fn start_dead_is_an_error() {
        let mut net = bootstrap(8, 7);
        let mut r = rng();
        let id = net.live_ids()[0];
        net.crash(id);
        assert_eq!(
            net.find_successor(id, Point::new(1), &mut r).unwrap_err(),
            LookupError::StartDead
        );
    }

    #[test]
    fn singleton_owns_everything() {
        let space = KeySpace::full();
        let mut net = ChordNetwork::new(space, ChordConfig::default());
        let id = net.create(Point::new(99));
        let mut r = rng();
        let hit = net.find_successor(id, Point::new(5), &mut r).unwrap();
        assert_eq!(hit.node, id);
        assert_eq!(hit.hops, 0);
    }

    #[test]
    fn latency_accumulates_per_message() {
        let space = KeySpace::full();
        let mut r = rng();
        let net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 64),
            ChordConfig::default().with_latency(simnet::LatencyModel::Constant(10)),
        );
        let start = net.live_ids()[0];
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        assert_eq!(hit.cost.latency, hit.cost.messages * 10);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_honest_routing() {
        let net = bootstrap(128, 21);
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::none();
        let mut targets = rng();
        let mut lookups = rng();
        for _ in 0..50 {
            let target = net.space().random_point(&mut targets);
            let honest = net.find_successor(start, target, &mut lookups).unwrap();
            let faulted = net
                .find_successor_with_policy(start, target, &plan, &mut lookups)
                .unwrap();
            // Unit latency draws nothing from the rng, so the whole result
            // (owner, hops, cost) must match exactly, and be the true owner.
            assert_eq!(honest, faulted);
            assert_eq!(faulted.point, net.ground_truth_successor(target));
        }
        assert_eq!(net.metrics().get("lookup.byzantine_claim"), 0);
    }

    #[test]
    fn byzantine_hops_capture_lookups() {
        let net = bootstrap(256, 22);
        let mut r = rng();
        let start = net.live_ids()[0];
        // Every node except the origin lies: any multi-hop lookup must be
        // captured at its first remote hop.
        let liars: Vec<NodeId> = net.live_ids().into_iter().filter(|&n| n != start).collect();
        let plan = crate::FaultPlan::for_nodes(liars);
        let mut captured = 0;
        let mut honest_answers = 0;
        for _ in 0..100 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_policy(start, target, &plan, &mut r)
                .unwrap();
            if hit.point == net.ground_truth_successor(target) {
                honest_answers += 1;
            } else {
                captured += 1;
                assert!(plan.is_byzantine(hit.node), "wrong answers come from liars");
            }
        }
        assert!(
            captured > 50,
            "a fully Byzantine remote ring must capture most lookups \
             (captured {captured}, honest {honest_answers})"
        );
        assert!(net.metrics().get("lookup.byzantine_claim") > 0);
    }

    #[test]
    fn origin_is_exempt_from_its_own_fault_entry() {
        let net = bootstrap(32, 23);
        let mut r = rng();
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::for_nodes([start]);
        // Targets owned by other nodes must still resolve correctly: the
        // origin does not "capture" its own lookups.
        for _ in 0..20 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_policy(start, target, &plan, &mut r)
                .unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
    }

    #[test]
    fn traces_capture_hop_paths_and_attribution() {
        let net = bootstrap(256, 31);
        let rec = net.metrics().recorder();
        rec.set_tracing(true);
        let mut r = rng();
        let start = net.live_ids()[0];

        // Honest lookups: hops resolve, per-hop latency sums to the cost.
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        let traces = rec.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.from, net.node(start).point().get());
        assert_eq!(t.target, target.get());
        assert_eq!(t.hops.len(), hit.hops as usize);
        assert_eq!(t.messages, hit.cost.messages);
        assert_eq!(t.latency, hit.cost.latency);
        assert_eq!(
            t.hops.iter().map(|h| h.latency).sum::<u64>(),
            hit.cost.latency,
            "per-hop latencies must account for the whole walk"
        );
        assert!(t.hops.iter().all(|h| !h.forged));
        assert!(matches!(
            t.outcome,
            telemetry::TraceOutcome::Resolved(p) if p == hit.point.get()
        ));

        // Byzantine capture: the capturing hop is marked forged.
        let liars: Vec<NodeId> = net.live_ids().into_iter().filter(|&n| n != start).collect();
        let plan = crate::FaultPlan::for_nodes(liars);
        let mut captured_seen = false;
        for _ in 0..20 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_policy(start, target, &plan, &mut r)
                .unwrap();
            if hit.point != net.ground_truth_successor(target) {
                captured_seen = true;
            }
        }
        assert!(captured_seen);
        assert!(rec.traces().iter().any(|t| matches!(
            t.outcome,
            telemetry::TraceOutcome::Captured(_)
        ) && t.hops.iter().any(|h| h.forged)));

        // The hop histogram agrees with the per-lookup results.
        let hist = rec.histogram_snapshot(net.counters().hop_hist);
        assert_eq!(hist.count(), rec.traces_recorded());
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let net = bootstrap(64, 32);
        let mut r = rng();
        let start = net.live_ids()[0];
        for _ in 0..10 {
            let target = net.space().random_point(&mut r);
            net.find_successor(start, target, &mut r).unwrap();
        }
        let rec = net.metrics().recorder();
        assert_eq!(rec.traces_recorded(), 0);
        assert!(rec.traces().is_empty());
        // Counters and the hop histogram stay on regardless.
        assert!(rec.histogram_snapshot(net.counters().hop_hist).count() >= 10);
        assert!(net.metrics().get("lookup.hops") > 0);
    }

    #[test]
    fn policy_entry_without_a_policy_is_byte_identical() {
        let net = bootstrap(128, 43);
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::none();
        let mut targets = rng();
        let mut plain_rng = rng();
        let mut policy_rng = rng();
        for _ in 0..30 {
            let target = net.space().random_point(&mut targets);
            let plain = net.find_successor(start, target, &mut plain_rng).unwrap();
            let policied = net
                .find_successor_with_policy(start, target, &plan, &mut policy_rng)
                .unwrap();
            // Unit latency draws nothing from the rng, so answers and costs
            // must match exactly.
            assert_eq!(plain.node, policied.node);
            assert_eq!(plain.cost, policied.cost);
        }
        assert_eq!(net.metrics().get("lookup.byzantine_claim"), 0);
        assert_eq!(net.metrics().get("lookup.retries"), 0);
        assert_eq!(net.metrics().get("lookup.fallback_depth"), 0);
    }

    #[test]
    fn policy_degrades_through_a_dead_arc_and_stays_correct() {
        let mut net = bootstrap(64, 41);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        net.enable_retry_policy(crate::RetryPolicy::default());
        // Crash a contiguous arc longer than the successor-list depth:
        // the arc's predecessor loses its entire list, which is exactly
        // the partition plain routing cannot cross.
        let mut ring: Vec<NodeId> = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let arc = ring[20..36].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let start = ring[0];
        let target = net.node(arc[8]).point(); // deep inside the dead arc
        let mut r = rng();
        assert_eq!(
            net.find_successor(start, target, &mut r).unwrap_err(),
            LookupError::SuccessorsAllDead,
            "plain routing must fail across the dead arc"
        );
        let hit = net
            .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
            .unwrap();
        assert_eq!(
            hit.point,
            net.ground_truth_successor(target),
            "the degraded answer must still be the true owner"
        );
        assert!(
            net.metrics().get("lookup.retries") >= 1,
            "a retry must have been attempted"
        );
        assert!(
            net.metrics().get("lookup.fallback_depth") >= 2,
            "the answer came from a fallback tier"
        );
        assert!(
            hit.cost.messages > 1,
            "degradation must carry its attributed cost"
        );
    }

    #[test]
    fn walk_tier_rescues_hop_capped_lookups() {
        // A pathologically low hop cap defeats finger routing while the
        // successor chain stays fully intact: exactly the case the
        // successor-walk tier exists for.
        let space = KeySpace::full();
        let mut r = rng();
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 64),
            ChordConfig::default().with_max_hops(1),
        );
        net.enable_retry_policy(crate::RetryPolicy {
            walk_limit: 64,
            ..crate::RetryPolicy::default()
        });
        let start = net.live_ids()[0];
        let mut rescued = 0;
        for _ in 0..40 {
            let target = net.space().random_point(&mut r);
            let capped = net.find_successor(start, target, &mut r);
            let hit = net
                .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
                .unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
            if capped.is_err() {
                rescued += 1;
            }
        }
        assert!(rescued > 0, "some lookups must have needed the fallback");
        assert!(net.metrics().get("lookup.fallback_depth") > 0);
    }

    #[test]
    fn adaptive_scoring_learns_to_avoid_dead_fingers() {
        let mut net = bootstrap(128, 42);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(3).take(30).collect();
        for v in victims {
            net.crash(v);
        }
        let start = net.live_ids()[0];
        let mut r = rng();
        let targets: Vec<Point> = (0..60).map(|_| net.space().random_point(&mut r)).collect();
        // First pass pays dead probes and feeds the score table.
        for &t in &targets {
            net.find_successor(start, t, &mut r).unwrap();
        }
        let first_pass = net.metrics().get("lookup.dead_probe");
        assert!(first_pass > 0, "crashed fingers must cost probes initially");
        // Second pass over the same targets: penalized peers now rank
        // last, so known-dead fingers are no longer probed first.
        for &t in &targets {
            let hit = net.find_successor(start, t, &mut r).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(t));
        }
        let second_pass = net.metrics().get("lookup.dead_probe") - first_pass;
        assert!(
            second_pass < first_pass,
            "scoring must cut repeat dead probes: {first_pass} then {second_pass}"
        );
        assert!(net.score_bytes() > 0);
        assert!(net.peer_score(start) == crate::score::SCORE_MAX);
    }

    #[test]
    fn spans_and_trace_annotations_explain_degraded_lookups() {
        let mut net = bootstrap(64, 41);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        net.enable_retry_policy(crate::RetryPolicy::default());
        net.metrics().recorder().set_tracing(true);
        let mut ring: Vec<NodeId> = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let arc = ring[20..36].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let start = ring[0];
        let target = net.node(arc[8]).point();
        let mut r = rng();
        // A few healthy lookups first: they claim hop-histogram exemplar
        // slots and leave replayable traces behind them.
        for _ in 0..10 {
            let t = net.space().random_point(&mut r);
            net.find_successor_with_policy(start, t, &crate::FaultPlan::none(), &mut r)
                .unwrap();
        }
        let hit = net
            .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
            .unwrap();
        assert_eq!(hit.point, net.ground_truth_successor(target));

        // The profiler attributes the slow lookup to its actual causes:
        // backoff plus a fallback tier, not just the finger walk.
        let totals = net.metrics().recorder().profiler().totals();
        assert!(totals["lookup;retry_backoff"].cost > 0, "{totals:?}");
        assert!(
            totals["lookup;successor_walk"].cost > 0 || totals["lookup;verified_quorum"].cost > 0,
            "{totals:?}"
        );
        let collapsed = net.metrics().recorder().profiler().collapsed();
        assert!(collapsed.contains("lookup;finger_walk "));

        // The degradation path is visible on the trace itself.
        let traces = net.metrics().recorder().traces();
        let fallback = traces.last().unwrap();
        assert!(fallback
            .hops
            .iter()
            .any(|h| h.tier != telemetry::FallbackTier::Direct));
        assert!(fallback.hops.iter().all(|h| h.attempt > 0));

        // Exemplars link the hop histogram's buckets back to ordinals of
        // retained traces.
        let hist = net
            .metrics()
            .recorder()
            .histogram_snapshot(net.counters().hop_hist);
        assert!(!hist.exemplars().is_empty());
        let ordinals: Vec<u64> = traces.iter().map(|t| t.ordinal).collect();
        assert!(hist
            .exemplars()
            .iter()
            .any(|e| ordinals.contains(&e.trace_id)));
    }

    #[test]
    fn untraced_lookups_draw_the_same_ordinals() {
        // Exemplar trace ids must agree between traced and untraced runs
        // of the same seed, or a tail exemplar could never be replayed.
        let run = |tracing: bool| {
            let net = bootstrap(64, 44);
            net.metrics().recorder().set_tracing(tracing);
            let mut r = rng();
            let start = net.live_ids()[0];
            for _ in 0..50 {
                let target = net.space().random_point(&mut r);
                net.find_successor(start, target, &mut r).unwrap();
            }
            net.metrics()
                .recorder()
                .histogram_snapshot(net.counters().hop_hist)
                .exemplars()
                .to_vec()
        };
        let traced = run(true);
        let untraced = run(false);
        assert!(!traced.is_empty());
        assert_eq!(traced, untraced);
    }

    #[test]
    fn errors_display() {
        assert!(LookupError::StartDead.to_string().contains("dead"));
        assert!(LookupError::HopLimitExceeded { max_hops: 9 }
            .to_string()
            .contains('9'));
        assert!(LookupError::SuccessorsAllDead
            .to_string()
            .contains("partition"));
    }

    impl ChordNetwork {
        /// The gather-first probe order `closest_preceding` replaced, kept
        /// verbatim as its oracle: collect every candidate, sort by
        /// distance, dedup, demote penalized candidates, then probe from the
        /// back.
        fn closest_preceding_reference<R: Rng + ?Sized>(
            &self,
            at: NodeId,
            target: Point,
            cost: &mut Cost,
            skip: &mut u64,
            rng: &mut R,
        ) -> Option<NodeId> {
            let at_point = self.node(at).point();
            let latency_model = self.config().latency();

            // Collect candidates strictly inside (at, target), dedup, order by
            // distance from `at` descending (closest to target first). The
            // finger table is iterated by its ~log n *distinct* run values
            // rather than all 64 bit entries — same candidate set after the
            // dedup below, a fraction of the scanning.
            let node = self.node(at);
            let mut candidates: Vec<NodeId> = node
                .fingers()
                .distinct()
                .chain(node.successors().iter())
                .filter(|&c| c != at && self.between_open(at_point, self.node(c).point(), target))
                .collect();
            candidates.sort_by_key(|&c| self.space().distance(at_point, self.node(c).point()));
            candidates.dedup();

            // Adaptive ranking: candidates the score table currently holds
            // penalized sink to the *front* of the vec — the probe loop below
            // walks it back-to-front, so they are tried last and a healthy
            // lower finger level (or successor-list entry) is preferred over
            // a closer-but-flaky one. The sort is stable, so within each
            // class the closest-preceding order is untouched; with scoring
            // disabled this block is skipped and the routing is byte-identical
            // to the pre-adaptive overlay.
            if let Some(scores) = self.scores() {
                let scores = scores.borrow();
                candidates.sort_by_key(|&c| !scores.penalized(c));
            }

            for &cand in candidates.iter().rev() {
                cost.messages += 1;
                let probe_latency = latency_model.sample(rng).ticks();
                cost.latency += probe_latency;
                let was_penalized = self
                    .scores()
                    .map(|s| s.borrow().penalized(cand))
                    .unwrap_or(false);
                let alive = self.node(cand).is_alive();
                if let Some(scores) = self.scores() {
                    scores.borrow_mut().record(cand, alive);
                }
                if alive {
                    return Some(cand);
                }
                if was_penalized {
                    *skip += probe_latency;
                }
                self.metrics()
                    .recorder()
                    .incr(self.counters().lookup_dead_probe);
            }
            // No usable finger: fall back to the first live successor, which
            // always makes clockwise progress.
            self.first_live_successor(at)
                .filter(|&s| s != at)
                .inspect(|_s| {
                    cost.messages += 1;
                    cost.latency += latency_model.sample(rng).ticks();
                })
        }
    }

    // ---- the probe-order contract: `closest_preceding` against the
    // gather-first order it replaced.

    /// A `KeySpace` ring of `n` peers under jittered latency (so every
    /// probe draws from the rng), damaged with no repair: `crashes`
    /// silent crashes, `joins` protocol joins, then `scrambles` finger
    /// entries of live nodes pointed at arbitrary (possibly dead) nodes —
    /// stale, non-monotone tables with repeated values. Pure in its
    /// arguments, so two calls build two equal networks.
    fn damaged_ring(
        space: KeySpace,
        n: usize,
        seed: u64,
        damage: (usize, usize, usize),
        scoring: Option<crate::AdaptiveConfig>,
    ) -> ChordNetwork {
        let (crashes, joins, scrambles) = damage;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, n),
            ChordConfig::default().with_latency(simnet::LatencyModel::Uniform { lo: 1, hi: 9 }),
        );
        if let Some(config) = scoring {
            net.enable_adaptive_routing(config);
        }
        for _ in 0..crashes.min(n - 2) {
            let live = net.live_slice();
            net.crash(live[r.gen_range(0..live.len())]);
        }
        for _ in 0..joins {
            let live = net.live_slice();
            let via = live[r.gen_range(0..live.len())];
            let _ = net.join(space.random_point(&mut r), via, &mut r);
        }
        let all = net.node_ids();
        for _ in 0..scrambles {
            let live = net.live_slice();
            let id = live[r.gen_range(0..live.len())];
            let bit = r.gen_range(0..net.finger_bits());
            let to = all[r.gen_range(0..all.len())];
            net.write_finger(id, bit, Some(to));
        }
        net
    }

    /// What one `closest_preceding` call leaves behind, beyond its answer.
    #[derive(Debug, PartialEq)]
    struct ProbeEffects {
        next: Option<NodeId>,
        cost: Cost,
        skip: u64,
        rng: rand::rngs::StdRng,
        dead_probes: u64,
        scores: Vec<(u8, u8)>,
    }

    fn effects(
        net: &ChordNetwork,
        next: Option<NodeId>,
        cost: Cost,
        skip: u64,
        rng: &rand::rngs::StdRng,
    ) -> ProbeEffects {
        let scores = net.scores().map_or(Vec::new(), |s| {
            let s = s.borrow();
            net.node_ids()
                .into_iter()
                .map(|id| (s.score(id), s.consecutive_failures(id)))
                .collect()
        });
        ProbeEffects {
            next,
            cost,
            skip,
            rng: rng.clone(),
            dead_probes: net.metrics().get("lookup.dead_probe"),
            scores,
        }
    }

    /// Runs `calls` probes from random live nodes towards random targets
    /// on `fast` (the one-pass `closest_preceding`) and `reference` (the
    /// gather-first order), which start equal, and checks every effect
    /// stays equal. Returns how many calls probed a dead node and how
    /// many had candidates that were all dead.
    fn assert_same_probes(
        fast: &ChordNetwork,
        reference: &ChordNetwork,
        seed: u64,
        calls: usize,
    ) -> (usize, usize) {
        let mut pick = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut ref_rng = fast_rng.clone();
        let (mut dead_calls, mut exhausted_calls) = (0, 0);
        for call in 0..calls {
            let live = fast.live_slice();
            let at = live[pick.gen_range(0..live.len())];
            let target = fast.space().random_point(&mut pick);
            let before = fast.metrics().get("lookup.dead_probe");
            let at_point = fast.node(at).point();
            let mut candidates = fast
                .routing_candidates(at)
                .filter(|&c| fast.preceding_distance(at, at_point, target, c).is_some())
                .peekable();
            let all_dead =
                candidates.peek().is_some() && candidates.all(|c| !fast.node(c).is_alive());
            let (mut cost, mut skip) = (Cost::FREE, 0);
            let next = fast.closest_preceding(at, target, &mut cost, &mut skip, &mut fast_rng);
            let got = effects(fast, next, cost, skip, &fast_rng);
            let (mut cost, mut skip) = (Cost::FREE, 0);
            let next = reference.closest_preceding_reference(
                at,
                target,
                &mut cost,
                &mut skip,
                &mut ref_rng,
            );
            let want = effects(reference, next, cost, skip, &ref_rng);
            assert_eq!(got, want, "call {call}: at {at}, target {target:?}");
            dead_calls += usize::from(got.dead_probes > before);
            exhausted_calls += usize::from(all_dead);
        }
        (dead_calls, exhausted_calls)
    }

    /// Scores that penalize a peer after one failed probe, and an EWMA
    /// floor high enough that a few failures keep it penalized.
    fn touchy_scoring() -> crate::AdaptiveConfig {
        crate::AdaptiveConfig {
            ewma_shift: 2,
            penalty_floor: 200,
            fail_threshold: 1,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn first_probe_scan_keeps_the_probe_order_on_stale_rings(
            seed in proptest::prelude::any::<u64>(),
            crashes in 0usize..80,
            joins in 0usize..40,
            scrambles in 0usize..400,
            scoring in proptest::prelude::any::<bool>(),
        ) {
            let scoring = scoring.then(touchy_scoring);
            let build = || damaged_ring(KeySpace::full(), 160, seed, (crashes, joins, scrambles), scoring);
            assert_same_probes(&build(), &build(), seed, 400);
        }

        #[test]
        fn first_probe_scan_keeps_the_probe_order_on_colliding_points(
            seed in proptest::prelude::any::<u64>(),
            crashes in 0usize..20,
            joins in 0usize..30,
            scrambles in 0usize..200,
            scoring in proptest::prelude::any::<bool>(),
        ) {
            // 48 peers on 64 points: many share a point with another.
            let space = KeySpace::with_modulus(64).unwrap();
            let scoring = scoring.then(touchy_scoring);
            let build = || damaged_ring(space, 48, seed, (crashes, joins, scrambles), scoring);
            assert_same_probes(&build(), &build(), seed, 400);
        }

        #[test]
        fn first_probe_scan_keeps_the_probe_order_with_penalized_candidates(
            seed in proptest::prelude::any::<u64>(),
            crashes in 20usize..60,
            scrambles in 0usize..300,
        ) {
            let build = || {
                let net = damaged_ring(KeySpace::full(), 128, seed, (crashes, 0, scrambles), Some(touchy_scoring()));
                // Warm the score tables with routed lookups so many
                // candidates start out penalized.
                let mut r = rand::rngs::StdRng::seed_from_u64(seed);
                for _ in 0..200 {
                    let live = net.live_slice();
                    let from = live[r.gen_range(0..live.len())];
                    let _ = net.find_successor(from, net.space().random_point(&mut r), &mut r);
                }
                net
            };
            let (fast, reference) = (build(), build());
            let penalized = fast.node_ids().into_iter().filter(|&id| fast.peer_penalized(id)).count();
            proptest::prop_assert!(penalized > 0, "the warm-up must penalize someone");
            assert_same_probes(&fast, &reference, seed, 400);
        }

        #[test]
        fn first_probe_scan_keeps_the_probe_order_when_every_candidate_is_dead(
            seed in proptest::prelude::any::<u64>(),
            scoring in proptest::prelude::any::<bool>(),
        ) {
            // Nine in ten peers crash with no repair: most hops find every
            // finger and successor dead and fall through to the fallback.
            let scoring = scoring.then(touchy_scoring);
            let build = || damaged_ring(KeySpace::full(), 200, seed, (180, 0, 0), scoring);
            let (dead_calls, exhausted_calls) = assert_same_probes(&build(), &build(), seed, 300);
            proptest::prop_assert!(dead_calls > 0 && exhausted_calls > 0);
        }
    }

    /// FNV-1a over 10k lookups — owner, hops, messages, latency, or the
    /// error — on a churned 2k-node ring with adaptive scoring on and
    /// jittered latency. Pins the probe order, the rng draws and the
    /// score feedback end to end.
    #[test]
    fn churned_ring_lookup_digest_is_pinned() {
        let space = KeySpace::full();
        let mut net = damaged_ring(
            space,
            2_000,
            77,
            (300, 100, 0),
            Some(crate::AdaptiveConfig::default()),
        );
        let mut r = rand::rngs::StdRng::seed_from_u64(78);
        net.batched_maintenance_round(crate::MaintenanceBudget::per_round(400), &mut r);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for _ in 0..10_000 {
            let live = net.live_slice();
            let from = live[r.gen_range(0..live.len())];
            match net.find_successor(from, space.random_point(&mut r), &mut r) {
                Ok(hit) => {
                    fold(hit.node.index() as u64);
                    fold(hit.hops as u64);
                    fold(hit.cost.messages);
                    fold(hit.cost.latency);
                }
                Err(_) => fold(u64::MAX),
            }
        }
        assert!(net.metrics().get("lookup.dead_probe") > 0);
        assert_eq!(
            digest, 0x1f82_fb37_dd6c_3acc,
            "probe order, rng use or score feedback changed"
        );
    }
}
