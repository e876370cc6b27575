use std::cell::RefCell;

use keyspace::{KeySpace, Point};
use peer_sampling::{Cost, Dht, DhtError, Resolved};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::network::{ChordNetwork, NodeId};
use crate::{FaultPlan, LookupError};

/// Adapter exposing a [`ChordNetwork`] as the paper's DHT interface.
///
/// The view is anchored at a `start` node — the peer "running" the
/// algorithm: `h(x)` is a routed [`find_successor`] *from that node* (so
/// its cost is the real hop count), and `next(p)` is one successor-pointer
/// query at `p`.
///
/// The adapter holds its own latency RNG behind a `RefCell` because the
/// [`Dht`] trait takes `&self` (the sampler must not be able to mutate the
/// network) while latency sampling needs mutable RNG state.
///
/// # Example
///
/// ```
/// use chord::{ChordConfig, ChordDht, ChordNetwork};
/// use keyspace::KeySpace;
/// use peer_sampling::{Sampler, SamplerConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let space = KeySpace::full();
/// let net = ChordNetwork::bootstrap(
///     space,
///     space.random_points(&mut rng, 200),
///     ChordConfig::default(),
/// );
/// let dht = ChordDht::new(&net, net.live_ids()[0], 42);
/// let sampler = Sampler::new(SamplerConfig::new(200));
/// let sample = sampler.sample(&dht, &mut rng)?;
/// assert!(net.node(sample.peer).is_alive());
/// # Ok::<(), peer_sampling::SampleError>(())
/// ```
///
/// [`find_successor`]: ChordNetwork::find_successor
#[derive(Debug)]
pub struct ChordDht<'a> {
    net: &'a ChordNetwork,
    start: NodeId,
    rng: RefCell<StdRng>,
    faults: FaultPlan,
    /// The plan `h` lookups route under: equal to `faults`, except that a
    /// verifying client strips ownership claims (a naked claim cannot
    /// terminate an iterative lookup it drives itself).
    route_faults: FaultPlan,
    verified_positions: bool,
}

impl<'a> ChordDht<'a> {
    /// Anchors a DHT view at `start` with a dedicated latency-RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `start` is dead — a dead peer cannot run the algorithm.
    pub fn new(net: &'a ChordNetwork, start: NodeId, latency_seed: u64) -> ChordDht<'a> {
        assert!(
            net.node(start).is_alive(),
            "anchor node {start} must be alive"
        );
        ChordDht {
            net,
            start,
            rng: RefCell::new(StdRng::seed_from_u64(latency_seed)),
            faults: FaultPlan::none(),
            route_faults: FaultPlan::none(),
            verified_positions: false,
        }
    }

    /// Applies a routing fault plan: every `h(x)` lookup and `next(p)`
    /// probe issued through this view is subject to the plan's Byzantine
    /// behaviours (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> ChordDht<'a> {
        self.faults = faults;
        self.route_faults = if self.verified_positions {
            self.faults.clone().without_ownership_claims()
        } else {
            self.faults.clone()
        };
        self
    }

    /// Only accepts `h(x)` answer positions corroborated by the overlay's
    /// own tables (the neighbours and routing hops that learned the
    /// answer node's point at join time), never a per-answer assertion.
    ///
    /// By default a resolved peer confirms its own ring position — the
    /// natural reading of the paper's cost model, where `l(h(s))` travels
    /// in the final response — which is the surface both position lies
    /// forge: a capturing hop reports the target itself
    /// ([`FaultPlan::claims_ownership`]) and an adaptive arc-liar
    /// stretches its arc ([`FaultPlan::forges_owned_position`]). A
    /// verifying client demands interval evidence instead, with two
    /// consequences:
    ///
    /// * every answer carries the resolved node's true ring point (the
    ///   position its neighbours learned at join time);
    /// * a naked ownership claim cannot *terminate* the lookup — the
    ///   client drives the iterative routing itself, and a hop whose
    ///   claim carries no corroborating evidence is simply routed past
    ///   (the capture attack degrades from redirection to nothing; what
    ///   remains for the adversary on `h` is at most denial, which the
    ///   quorum's redundant entries in `adversary::DefendedSampler`
    ///   absorb).
    pub fn with_verified_positions(mut self) -> ChordDht<'a> {
        self.verified_positions = true;
        self.route_faults = self.faults.clone().without_ownership_claims();
        self
    }

    /// The fault plan in effect (empty for an honest view).
    #[cfg(test)]
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The anchor node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The underlying network.
    pub fn network(&self) -> &ChordNetwork {
        self.net
    }
}

impl Dht for ChordDht<'_> {
    type Peer = NodeId;

    fn space(&self) -> KeySpace {
        self.net.space()
    }

    fn h(&self, x: Point) -> Result<Resolved<NodeId>, DhtError> {
        let mut rng = self.rng.borrow_mut();
        // The policy entry point delegates verbatim to the plain routed
        // lookup when no `RetryPolicy` is armed on the network, so honest
        // and adversarial arms without one are byte-identical to before.
        match self
            .net
            .find_successor_with_policy(self.start, x, &self.route_faults, &mut *rng)
        {
            Ok(hit) => {
                let point = if self.verified_positions {
                    // Verified mode: only positions corroborated by the
                    // network's own tables are trusted, so every answer
                    // carries the resolved node's true ring point — a
                    // capturing hop or forging owner can still *name*
                    // itself, but cannot place itself; the sampler's
                    // exact interval check then does the rejecting.
                    self.net.node(hit.node).point()
                } else if hit.node != self.start && self.faults.forges_owned_position(hit.node) {
                    // The adaptive arc-liar: the genuine owner of `x`
                    // confirms ownership but self-reports its position as
                    // the target, stretching the SMALL acceptance over
                    // its whole trailing arc. The origin never lies to
                    // itself.
                    self.net
                        .metrics()
                        .recorder()
                        .incr(self.net.counters().lookup_forged_position);
                    x
                } else {
                    hit.point
                };
                Ok(Resolved {
                    peer: hit.node,
                    point,
                    cost: hit.cost,
                })
            }
            Err(e) => Err(lookup_to_dht_error(e)),
        }
    }

    fn next(&self, p: NodeId) -> Result<Resolved<NodeId>, DhtError> {
        if !self.net.node(p).is_alive() {
            return Err(DhtError::PeerUnavailable);
        }
        let latency = self.net.config().latency();
        let mut rng = self.rng.borrow_mut();
        let mut cost = Cost::FREE;
        // A Byzantine `p` eclipses its true successor: it skips the first
        // live entry and reports the one after it, erasing an honest peer
        // from any scan passing through `p`. (With fewer than two live
        // entries there is nothing to hide behind; it answers honestly so
        // the lie stays plausible.)
        let mut eclipses_left = if self.faults.eclipses_next(p) {
            let live = self
                .net
                .node(p)
                .successors()
                .iter()
                .filter(|&s| self.net.node(s).is_alive())
                .count();
            usize::from(live >= 2)
        } else {
            0
        };
        // Probe the successor list in order; each probe is one message.
        for cand in self.net.node(p).successors().iter() {
            cost.messages += 1;
            cost.latency += latency.sample(&mut *rng).ticks();
            if self.net.node(cand).is_alive() {
                if eclipses_left > 0 {
                    eclipses_left -= 1;
                    continue;
                }
                return Ok(Resolved {
                    peer: cand,
                    point: self.net.node(cand).point(),
                    cost,
                });
            }
        }
        // The whole successor list is dead: a correlated outage took the
        // arc clockwise of `p` with it. Under an armed `RetryPolicy` the
        // probe degrades instead of failing — the same verified-quorum
        // directory that backs `h`'s last-resort tier resolves the first
        // live node strictly after `p`, charged at quorum cost.
        if let Some(policy) = self.net.retry_policy() {
            let after = self
                .net
                .space()
                .add(self.net.node(p).point(), keyspace::Distance::new(1));
            if let Some(owner) = self.net.truth_successor_id(after) {
                cost.messages += policy.quorum_messages;
                cost.latency += latency.sample(&mut *rng).ticks();
                self.net
                    .metrics()
                    .recorder()
                    .add(self.net.counters().lookup_fallback_depth, 3);
                return Ok(Resolved {
                    peer: owner,
                    point: self.net.node(owner).point(),
                    cost,
                });
            }
        }
        Err(DhtError::RoutingFailed {
            hops: cost.messages,
        })
    }

    fn point_of(&self, p: NodeId) -> Result<Point, DhtError> {
        if !self.net.node(p).is_alive() {
            return Err(DhtError::PeerUnavailable);
        }
        Ok(self.net.node(p).point())
    }
}

fn lookup_to_dht_error(e: LookupError) -> DhtError {
    match e {
        LookupError::StartDead => DhtError::PeerUnavailable,
        LookupError::HopLimitExceeded { max_hops } => DhtError::RoutingFailed {
            hops: max_hops as u64,
        },
        LookupError::SuccessorsAllDead => DhtError::RoutingFailed { hops: 0 },
        LookupError::TimedOut { .. } => DhtError::PeerUnavailable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordConfig;
    use peer_sampling::{NetworkSizeEstimator, Sampler};

    fn bootstrap(n: usize, seed: u64) -> ChordNetwork {
        let space = KeySpace::full();
        let mut r = StdRng::seed_from_u64(seed);
        ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, n),
            ChordConfig::default(),
        )
    }

    #[test]
    fn h_matches_oracle() {
        let net = bootstrap(128, 1);
        let dht = ChordDht::new(&net, net.live_ids()[0], 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let x = net.space().random_point(&mut rng);
            let hit = dht.h(x).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(x));
            assert!(hit.cost.messages > 0, "routed lookups cost messages");
        }
    }

    #[test]
    fn next_walks_the_ring_in_order() {
        let net = bootstrap(64, 2);
        let dht = ChordDht::new(&net, net.live_ids()[0], 3);
        // Walk the full ring via next: must visit all 64 nodes.
        let start = net.live_ids()[0];
        let mut seen = std::collections::HashSet::new();
        let mut cur = start;
        loop {
            let nxt = dht.next(cur).unwrap();
            assert_eq!(nxt.cost.messages, 1, "healthy next is one message");
            cur = nxt.peer;
            if cur == start {
                break;
            }
            assert!(seen.insert(cur), "ring walk revisited {cur} early");
        }
        assert_eq!(seen.len(), 63);
    }

    #[test]
    fn next_skips_crashed_successor_at_extra_cost() {
        let mut net = bootstrap(64, 3);
        let ids = net.live_ids();
        let anchor = ids[0];
        let succ = net.first_live_successor(anchor).unwrap();
        net.crash(succ);
        let dht = ChordDht::new(&net, anchor, 4);
        let nxt = dht.next(anchor).unwrap();
        assert!(net.node(nxt.peer).is_alive());
        assert!(nxt.cost.messages >= 2, "dead probe must be paid for");
    }

    #[test]
    fn dead_peer_operations_error() {
        let mut net = bootstrap(16, 4);
        let ids = net.live_ids();
        let victim = ids[5];
        net.crash(victim);
        let dht = ChordDht::new(&net, ids[0], 5);
        assert_eq!(dht.next(victim).unwrap_err(), DhtError::PeerUnavailable);
        assert_eq!(dht.point_of(victim).unwrap_err(), DhtError::PeerUnavailable);
    }

    #[test]
    #[should_panic(expected = "must be alive")]
    fn anchoring_at_dead_node_panics() {
        let mut net = bootstrap(8, 5);
        let id = net.live_ids()[0];
        net.crash(id);
        let _ = ChordDht::new(&net, id, 6);
    }

    #[test]
    fn full_sampler_stack_runs_on_chord() {
        let net = bootstrap(300, 6);
        let dht = ChordDht::new(&net, net.live_ids()[0], 7);
        let mut rng = StdRng::seed_from_u64(8);
        // Estimate n through the real protocol, then sample with it.
        let est = NetworkSizeEstimator::default()
            .estimate(&dht, dht.start())
            .unwrap();
        assert!(
            est.n_hat > 40.0 && est.n_hat < 2100.0,
            "n_hat {}",
            est.n_hat
        );
        let sampler = Sampler::new(est.to_sampler_config());
        let mut total_messages = 0u64;
        let draws = 20;
        for _ in 0..draws {
            let s = sampler.sample(&dht, &mut rng).unwrap();
            assert!(net.node(s.peer).is_alive());
            total_messages += s.cost.messages;
        }
        // Theorem 7 shape: expected messages are O(m_h + log n) per trial
        // with O(1) expected trials — far below n per sample on average
        // (individual samples have geometric tails).
        let mean = total_messages as f64 / draws as f64;
        assert!(mean < 300.0, "mean cost {mean} too high for n = 300");
    }

    #[test]
    fn eclipsing_next_skips_the_true_successor() {
        let net = bootstrap(64, 31);
        let anchor = net.live_ids()[0];
        let honest = ChordDht::new(&net, anchor, 32);
        let true_succ = honest.next(anchor).unwrap().peer;
        let lying = ChordDht::new(&net, anchor, 32)
            .with_fault_plan(FaultPlan::for_nodes([anchor]).without_ownership_claims());
        let reported = lying.next(anchor).unwrap().peer;
        assert_ne!(reported, true_succ, "the true successor must be eclipsed");
        // The reported node is the successor-after-next on a healthy ring.
        assert_eq!(honest.next(true_succ).unwrap().peer, reported);
        assert!(lying.fault_plan().is_byzantine(anchor));
    }

    #[test]
    fn byzantine_h_biases_samples_toward_the_adversary() {
        use peer_sampling::SamplerConfig;
        let net = bootstrap(200, 33);
        let mut rng = StdRng::seed_from_u64(34);
        let anchor = net.live_ids()[0];
        // 10% of remote nodes capture lookups.
        let plan = FaultPlan::sample_fraction(&net, 0.10, &mut rng).without_next_eclipse();
        let byz: std::collections::HashSet<_> = plan.byzantine_nodes().into_iter().collect();
        let dht = ChordDht::new(&net, anchor, 35).with_fault_plan(plan);
        let sampler = Sampler::new(SamplerConfig::new(200).with_max_trials(256));
        let draws = 400;
        let mut captured = 0;
        for _ in 0..draws {
            let s = sampler.sample(&dht, &mut rng).unwrap();
            if byz.contains(&s.peer) {
                captured += 1;
            }
        }
        let share = captured as f64 / draws as f64;
        // Under honesty the adversary's share would be ~10%; ownership
        // claims inflate it far beyond that.
        assert!(
            share > 0.2,
            "10% Byzantine routers captured only {:.1}% of samples",
            share * 100.0
        );
    }

    #[test]
    fn arc_liar_forges_self_reported_position_but_not_route_position() {
        use crate::NodeFaults;
        let net = bootstrap(128, 41);
        let anchor = net.live_ids()[0];
        let mut rng = StdRng::seed_from_u64(42);
        // Find a target owned by a remote node.
        let (x, owner) = loop {
            let x = net.space().random_point(&mut rng);
            let honest = ChordDht::new(&net, anchor, 43);
            let hit = honest.h(x).unwrap();
            if hit.peer != anchor {
                break (x, hit);
            }
        };
        assert_ne!(owner.point, x, "pick a target off the owner's point");
        let plan = FaultPlan::with_behavior(
            [owner.peer],
            NodeFaults {
                forge_owned_position: true,
                ..NodeFaults::HONEST
            },
        );
        // Undefended view: the owner's self-report is the forged target.
        let lying = ChordDht::new(&net, anchor, 43).with_fault_plan(plan.clone());
        let forged = lying.h(x).unwrap();
        assert_eq!(forged.peer, owner.peer, "ownership is genuine");
        assert_eq!(forged.point, x, "position is forged to the target");
        // Verified-position view: the route's table knowledge survives.
        let defended = ChordDht::new(&net, anchor, 43)
            .with_fault_plan(plan)
            .with_verified_positions();
        let routed = defended.h(x).unwrap();
        assert_eq!(routed.peer, owner.peer);
        assert_eq!(routed.point, owner.point, "route position is honest");
    }

    #[test]
    fn arc_liar_never_lies_to_itself() {
        use crate::NodeFaults;
        let net = bootstrap(32, 44);
        let anchor = net.live_ids()[3];
        let plan = FaultPlan::with_behavior(
            [anchor],
            NodeFaults {
                forge_owned_position: true,
                ..NodeFaults::HONEST
            },
        );
        let dht = ChordDht::new(&net, anchor, 45).with_fault_plan(plan);
        // A target the anchor itself owns: the self-report is honest.
        let own_point = net.node(anchor).point();
        let hit = dht.h(own_point).unwrap();
        assert_eq!(hit.peer, anchor);
        assert_eq!(hit.point, own_point);
    }

    #[test]
    fn h_degrades_gracefully_under_a_retry_policy() {
        let mut net = bootstrap(64, 51);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        net.enable_retry_policy(crate::RetryPolicy::default());
        let mut ring = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        // A dead arc longer than the successor list partitions plain
        // routing; `h` must still resolve every target through fallback.
        let arc = ring[10..26].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let dht = ChordDht::new(&net, ring[0], 52);
        for &v in &arc {
            let x = net.node(v).point();
            let hit = dht.h(x).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(x));
            assert!(net.node(hit.peer).is_alive());
        }
        assert!(net.metrics().get("lookup.fallback_depth") > 0);
    }

    #[test]
    fn next_degrades_gracefully_under_a_retry_policy() {
        let mut net = bootstrap(64, 53);
        let mut ring = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        // Kill the whole successor window after ring[9]: every entry in
        // its list is dead, so a plain `next` probe has nothing left.
        let arc = ring[10..26].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let plain = ChordDht::new(&net, ring[0], 54);
        assert!(matches!(
            plain.next(ring[9]).unwrap_err(),
            DhtError::RoutingFailed { .. }
        ));
        net.enable_retry_policy(crate::RetryPolicy::default());
        let fallback = ChordDht::new(&net, ring[0], 54);
        let nxt = fallback.next(ring[9]).unwrap();
        assert_eq!(nxt.peer, ring[26], "first live node after the dead arc");
        assert!(
            nxt.cost.messages > crate::RetryPolicy::default().quorum_messages,
            "the degraded probe pays the dead probes plus the quorum"
        );
        assert!(net.metrics().get("lookup.fallback_depth") > 0);
    }

    #[test]
    fn accessors() {
        let net = bootstrap(8, 7);
        let dht = ChordDht::new(&net, net.live_ids()[2], 9);
        assert_eq!(dht.start(), net.live_ids()[2]);
        assert_eq!(dht.network().live_len(), 8);
        assert_eq!(dht.space().modulus(), net.space().modulus());
    }
}
