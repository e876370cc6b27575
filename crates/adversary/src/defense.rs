//! The defense arm: verified redundant sampling.
//!
//! A [`DefendedSampler`] wraps the paper's [`Sampler`] with three
//! hardening rules, each aimed at one of the coalition lies:
//!
//! 1. **Redundant disjoint-entry lookups** — every `h(x)` resolution is
//!    issued through `k` independent DHT views (distinct entry nodes, so
//!    the routes are as disjoint as the overlay allows) and a strict
//!    majority must agree on the *pair* `(peer, position)`. A route
//!    captured by a `claim_ownership` hop answers with a forged pair that
//!    honest routes contradict, so the capture loses the vote.
//! 2. **Exact interval position verification, promoted to a quorum
//!    rule** — the paper's `|I(s, l(h(s)))| < λ` check runs against the
//!    quorum-agreed position, never the answer's self-report (the views
//!    run in `with_verified_positions` mode). An adaptive arc-liar's
//!    forged self-report therefore never reaches the accumulator: the
//!    node is credited exactly `λ` of measure like everyone else.
//! 3. **Supplementation by verified lookup** — the scan's `next(p)` step
//!    is replaced by a quorum lookup of `l(p) + 1`, the successor's
//!    defining point. An eclipsing `p` is simply never asked; the erased
//!    victim is rediscovered by routing, at the price of a full `O(log
//!    n)` lookup per scan step instead of one message.
//!
//! When no quorum forms, the *trial* is rejected and the sampler redraws
//! `s` — disagreement costs messages, never bias. Off the attack path the
//! defense is **zero-bias by construction**: for the same seed, the
//! accepted peer sequence is bit-identical to the plain [`Sampler`]'s
//! (property-tested in `tests/defense_properties.rs`); only the cost
//! differs. That cost — expected messages per accepted sample — is the
//! defense overhead the e16 coalition battery reports.

use keyspace::{Distance, Point};
use peer_sampling::{Cost, Dht, SampleError, Sampler, SamplerConfig};
use rand::Rng;

/// A successfully drawn peer with defense telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefendedSample<P> {
    /// The chosen peer — uniform over all peers when a majority of views
    /// are honest.
    pub peer: P,
    /// The quorum-agreed ring point of the chosen peer.
    pub point: Point,
    /// Trials used (bit-identical to the plain sampler's count off the
    /// attack path).
    pub trials: u32,
    /// Trials rejected because no strict majority agreed on an answer —
    /// each one is a detected attack (or partitioned view), resolved by
    /// redrawing.
    pub quorum_failures: u32,
    /// Individual `h` lookups issued across all views and trials.
    pub lookups: u64,
    /// Total cost: messages summed over every redundant lookup; latency
    /// summed per quorum round as the *maximum* across views (the
    /// redundant lookups fan out in parallel).
    pub cost: Cost,
}

/// Outcome of one defended trial for a fixed start point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefendedOutcome<P> {
    /// A quorum-verified acceptance.
    Accepted {
        /// The owning peer.
        peer: P,
        /// Its quorum-agreed point.
        point: Point,
        /// Scan steps consumed.
        steps: u32,
    },
    /// The trial rejected; the caller redraws `s`.
    Rejected {
        /// Whether the rejection was a quorum failure (an attack or
        /// partition signal) rather than the algorithm's own `T ≥ 0`
        /// rejection.
        quorum_failed: bool,
        /// Scan steps consumed before rejecting.
        steps: u32,
    },
}

/// Per-trial cost ledger threaded through the quorum rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    cost: Cost,
    lookups: u64,
}

/// The *Choose Random Peer* algorithm hardened by quorum verification.
///
/// Generic over the number of views: `sample(&[view], rng)` with a single
/// honest view degenerates to the plain sampler's accept/reject map
/// (supplementation via `h(l(p)+1)` instead of `next(p)` resolves the
/// same peers on an honest ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefendedSampler {
    inner: Sampler,
}

impl DefendedSampler {
    /// Creates a defended sampler with the given (plain-sampler)
    /// configuration.
    pub fn new(config: SamplerConfig) -> DefendedSampler {
        DefendedSampler {
            inner: Sampler::new(config),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SamplerConfig {
        self.inner.config()
    }

    /// Draws one uniform random peer through `views`, requiring a strict
    /// majority of views to agree on every resolution.
    ///
    /// `views` are DHT views of the same overlay anchored at distinct
    /// entry nodes (for Chord, built `with_verified_positions`). The
    /// randomness consumed is exactly the plain sampler's — one
    /// `random_point` per trial — so off the attack path the draw
    /// sequence is bit-identical to [`Sampler::sample`].
    ///
    /// # Errors
    ///
    /// * [`SampleError::Config`] — `λ` is zero on this key space.
    /// * [`SampleError::TrialsExhausted`] — the retry cap was hit (quorum
    ///   failures count as rejected trials, so a fully-partitioned or
    ///   majority-Byzantine view set surfaces here, not as a biased
    ///   answer).
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty.
    pub fn sample<D: Dht, R: Rng + ?Sized>(
        &self,
        views: &[&D],
        rng: &mut R,
    ) -> Result<DefendedSample<D::Peer>, SampleError> {
        self.sample_tracked(views, rng, &mut 0)
    }

    /// Like [`sample`](DefendedSampler::sample), but quorum-failure
    /// telemetry survives a *failed* draw: when the result is `Err`, the
    /// failures the exhausted trials observed are added to
    /// `quorum_failures_on_err` (on `Ok` they ride in the sample as
    /// usual and the counter is untouched). A majority-captured or
    /// partitioned view set exhausts every trial through quorum
    /// failures — exactly the case a "blocked attacks" metric must not
    /// read as zero.
    ///
    /// # Errors / Panics
    ///
    /// As [`sample`](DefendedSampler::sample).
    pub fn sample_tracked<D: Dht, R: Rng + ?Sized>(
        &self,
        views: &[&D],
        rng: &mut R,
        quorum_failures_on_err: &mut u64,
    ) -> Result<DefendedSample<D::Peer>, SampleError> {
        assert!(!views.is_empty(), "defense needs at least one view");
        let space = views[0].space();
        let mut ledger = Ledger::default();
        let mut quorum_failures = 0u32;
        for trial in 1..=self.config().max_trials() {
            let s = space.random_point(rng);
            match self.trial_with(views, s, &mut ledger)? {
                DefendedOutcome::Accepted { peer, point, .. } => {
                    return Ok(DefendedSample {
                        peer,
                        point,
                        trials: trial,
                        quorum_failures,
                        lookups: ledger.lookups,
                        cost: ledger.cost,
                    });
                }
                DefendedOutcome::Rejected { quorum_failed, .. } => {
                    quorum_failures += u32::from(quorum_failed);
                }
            }
        }
        *quorum_failures_on_err += quorum_failures as u64;
        Err(SampleError::TrialsExhausted {
            attempts: self.config().max_trials(),
        })
    }

    /// Runs the deterministic part of one defended trial for a fixed
    /// start point `s`.
    ///
    /// # Errors
    ///
    /// [`SampleError::Config`] — `λ` is zero on this key space. (View
    /// lookup errors are *not* propagated: a failing view simply does not
    /// vote, and a vote-less round is a quorum-failed rejection.)
    #[cfg(test)]
    pub(crate) fn trial<D: Dht>(
        &self,
        views: &[&D],
        s: Point,
    ) -> Result<DefendedOutcome<D::Peer>, SampleError> {
        let mut ledger = Ledger::default();
        self.trial_with(views, s, &mut ledger)
    }

    fn trial_with<D: Dht>(
        &self,
        views: &[&D],
        s: Point,
        ledger: &mut Ledger,
    ) -> Result<DefendedOutcome<D::Peer>, SampleError> {
        let space = views[0].space();
        let lambda = self.config().lambda(space)? as i128;
        let bound = self.config().step_bound();

        let Some((peer, point)) = quorum_h(views, s, ledger) else {
            return Ok(DefendedOutcome::Rejected {
                quorum_failed: true,
                steps: 0,
            });
        };

        // Step 2 of Figure 1 with the quorum-agreed position: the exact
        // SMALL check |I(s, l(h(s)))| < λ.
        let mut t: i128 = space.distance(s, point).to_u128() as i128 - lambda;
        if t < 0 {
            return Ok(DefendedOutcome::Accepted {
                peer,
                point,
                steps: 0,
            });
        }
        if t >= bound as i128 * lambda {
            return Ok(DefendedOutcome::Rejected {
                quorum_failed: false,
                steps: 0,
            });
        }

        // Step 3: supplementation scan. Each step resolves the current
        // peer's successor as the *owner of l(cur) + 1* through the same
        // quorum rule, instead of trusting next(cur) — the step that
        // defeats eclipse chains. Accept/reject bookkeeping is exactly
        // the plain sampler's (strict T < 0, same short-circuit).
        let mut cur_point = point;
        for step in 1..=bound {
            let probe = space.add(cur_point, Distance::new(1));
            let Some((nxt_peer, nxt_point)) = quorum_h(views, probe, ledger) else {
                return Ok(DefendedOutcome::Rejected {
                    quorum_failed: true,
                    steps: step,
                });
            };
            t += space.distance(cur_point, nxt_point).to_u128() as i128 - lambda;
            if t < 0 {
                return Ok(DefendedOutcome::Accepted {
                    peer: nxt_peer,
                    point: nxt_point,
                    steps: step,
                });
            }
            if t >= (bound - step) as i128 * lambda {
                return Ok(DefendedOutcome::Rejected {
                    quorum_failed: false,
                    steps: step,
                });
            }
            cur_point = nxt_point;
        }
        Ok(DefendedOutcome::Rejected {
            quorum_failed: false,
            steps: bound,
        })
    }
}

/// Builds the `entries` disjoint-entry Chord views a defended client
/// quorums over: anchored first at the measuring client itself, the rest
/// spread evenly across the live list for route diversity, every view in
/// verified-position mode under the same fault plan.
///
/// Entries are *not* vetted for honesty — the client cannot know — so an
/// adversary can host a view; the quorum absorbs a captured minority.
/// This is the production wiring (`scenarios` defended arms) and the
/// end-to-end election experiment both build from, so they cannot drift
/// apart.
///
/// # Panics
///
/// Panics if `entries` is zero.
pub fn spread_verified_views<'a>(
    net: &'a chord::ChordNetwork,
    anchor: chord::NodeId,
    plan: &chord::FaultPlan,
    entries: usize,
    latency_seed: u64,
) -> Vec<chord::ChordDht<'a>> {
    assert!(entries > 0, "a defended client needs at least one view");
    let live = net.live_ids();
    let m = entries.min(live.len());
    // Entries must be *distinct* — duplicate entries are deterministic
    // duplicate voters, silently shrinking the redundancy the quorum
    // advertises. Prefer the evenly-spread slots; when spreading collides
    // (tiny overlays, anchor landing on a slot), fill from the live list
    // in order until `m` distinct entries are found.
    let mut chosen: Vec<chord::NodeId> = Vec::with_capacity(m);
    chosen.push(anchor);
    let spread = (1..m).map(|k| live[(k * live.len()) / m]);
    for cand in spread.chain(live.iter().copied()) {
        if chosen.len() == m {
            break;
        }
        if !chosen.contains(&cand) {
            chosen.push(cand);
        }
    }
    chosen
        .into_iter()
        .enumerate()
        .map(|(k, entry)| {
            chord::ChordDht::new(net, entry, latency_seed ^ ((k as u64) << 8))
                .with_fault_plan(plan.clone())
                .with_verified_positions()
        })
        .collect()
}

/// Resolves `h(x)` on every view and returns the strict-majority
/// `(peer, point)` answer, or `None` when no answer reaches a majority
/// (disagreement, or too many failed views — failures do not vote).
///
/// Messages from every view are paid for; latency is charged as the
/// *maximum* across views (the fan-out is parallel).
fn quorum_h<D: Dht>(views: &[&D], x: Point, ledger: &mut Ledger) -> Option<(D::Peer, Point)> {
    let mut votes: Vec<(D::Peer, Point, usize)> = Vec::with_capacity(views.len());
    let mut round_latency = 0u64;
    for view in views {
        ledger.lookups += 1;
        // A failed view does not vote. It still spent messages getting
        // nowhere, but we cannot know how many, so charge nothing — the
        // undercount only makes the *reported* defense overhead
        // conservative.
        if let Ok(resolved) = view.h(x) {
            ledger.cost.messages += resolved.cost.messages;
            round_latency = round_latency.max(resolved.cost.latency);
            match votes
                .iter_mut()
                .find(|(p, pt, _)| *p == resolved.peer && *pt == resolved.point)
            {
                Some((_, _, count)) => *count += 1,
                None => votes.push((resolved.peer, resolved.point, 1)),
            }
        }
    }
    ledger.cost.latency += round_latency;
    votes
        .into_iter()
        .find(|&(_, _, count)| 2 * count > views.len())
        .map(|(peer, point, _)| (peer, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyspace::{KeySpace, SortedRing};
    use peer_sampling::OracleDht;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn oracle(n: usize, seed: u64) -> OracleDht {
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(seed);
        OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, n)))
    }

    #[test]
    fn honest_single_view_matches_plain_sampler_bitwise() {
        let dht = oracle(150, 1);
        let plain = Sampler::new(SamplerConfig::new(150));
        let defended = DefendedSampler::new(SamplerConfig::new(150));
        let mut rng_a = StdRng::seed_from_u64(2);
        let mut rng_b = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a = plain.sample(&dht, &mut rng_a).unwrap();
            let b = defended.sample(&[&dht], &mut rng_b).unwrap();
            assert_eq!(a.peer, b.peer);
            assert_eq!(a.point, b.point);
            assert_eq!(a.trials, b.trials);
            assert_eq!(b.quorum_failures, 0);
        }
    }

    #[test]
    fn honest_replicated_views_agree_unanimously() {
        let dht = oracle(80, 3);
        let defended = DefendedSampler::new(SamplerConfig::new(80));
        let views = [&dht, &dht, &dht];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let s = defended.sample(&views, &mut rng).unwrap();
            assert_eq!(s.quorum_failures, 0);
            // 3 views per quorum round; at least one round per trial.
            assert!(s.lookups >= 3 * s.trials as u64);
        }
    }

    #[test]
    fn quorum_cost_sums_messages_and_maxes_latency() {
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(5);
        let points = space.random_points(&mut rng, 40);
        let cheap = OracleDht::with_costs(
            SortedRing::new(space, points.clone()),
            Cost::new(2, 3),
            Cost::new(1, 1),
        );
        let pricey = OracleDht::with_costs(
            SortedRing::new(space, points),
            Cost::new(5, 9),
            Cost::new(1, 1),
        );
        let defended = DefendedSampler::new(SamplerConfig::new(40));
        let views: [&OracleDht; 2] = [&cheap, &pricey];
        let s = defended.sample(&views, &mut rng).unwrap();
        let rounds = s.lookups / 2;
        // messages: 2 + 5 per round; latency: max(3, 9) per round.
        assert_eq!(s.cost.messages, 7 * rounds);
        assert_eq!(s.cost.latency, 9 * rounds);
    }

    #[test]
    fn split_views_never_reach_quorum() {
        // Two views of *different* rings can never produce a 2-of-2
        // majority on every round; with max_trials 4 the draw exhausts.
        let a = oracle(64, 6);
        let b = oracle(64, 7);
        let defended = DefendedSampler::new(SamplerConfig::new(64).with_max_trials(4));
        let views: [&OracleDht; 2] = [&a, &b];
        let mut rng = StdRng::seed_from_u64(8);
        let err = defended.sample(&views, &mut rng).unwrap_err();
        assert_eq!(err, SampleError::TrialsExhausted { attempts: 4 });
        // The tracked variant preserves the blocked-attack telemetry the
        // plain error discards.
        let mut on_err = 0u64;
        let err = defended
            .sample_tracked(&views, &mut rng, &mut on_err)
            .unwrap_err();
        assert_eq!(err, SampleError::TrialsExhausted { attempts: 4 });
        assert_eq!(on_err, 4, "every exhausted trial was a quorum failure");
    }

    #[test]
    fn trial_is_deterministic_in_s() {
        let dht = oracle(90, 9);
        let defended = DefendedSampler::new(SamplerConfig::new(90));
        let views = [&dht, &dht, &dht];
        let space = dht.space();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let s = space.random_point(&mut rng);
            let a = defended.trial(&views, s).unwrap();
            let b = defended.trial(&views, s).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn config_error_propagates() {
        let space = KeySpace::with_modulus(100).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let dht = OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, 30)));
        let defended = DefendedSampler::new(SamplerConfig::new(1000)); // λ = 0
        let err = defended.sample(&[&dht], &mut rng).unwrap_err();
        assert!(matches!(err, SampleError::Config(_)));
    }

    #[test]
    fn spread_views_are_anchored_first_and_entry_distinct() {
        use chord::{ChordConfig, ChordNetwork, FaultPlan};
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(21);
        let net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut rng, 8),
            ChordConfig::default(),
        );
        let anchor = net.live_ids()[3];
        // More entries than live nodes: every live node becomes exactly
        // one entry; no deterministic duplicate voters.
        let views = spread_verified_views(&net, anchor, &FaultPlan::none(), 15, 5);
        assert_eq!(views.len(), 8);
        assert_eq!(views[0].start(), anchor);
        let mut starts: Vec<_> = views.iter().map(|v| v.start()).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 8, "entries must be distinct");
    }

    #[test]
    #[should_panic(expected = "at least one view")]
    fn empty_views_panic() {
        let defended = DefendedSampler::new(SamplerConfig::new(10));
        let mut rng = StdRng::seed_from_u64(12);
        let _ = defended.sample::<OracleDht, _>(&[], &mut rng);
    }
}
