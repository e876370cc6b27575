//! Biased peer selection — the paper's third open problem (§4).
//!
//! > "In some applications, we may want to choose a peer with a biased
//! > probability. For example, we may want to choose a peer with
//! > probability that is inversely proportional to its distance from us
//! > on the unit circle."
//!
//! Figure 1 generalizes directly: instead of subtracting one global `λ`
//! per visited peer, the scan subtracts a **per-peer measure** `λ(p)`
//! computed from the peer's ring point alone. The telescoping argument of
//! Theorem 6 is unchanged — the quantity
//! `f_p(s) = d(s, l(p)) − Σ_{q ∈ (s, p]} λ(q)` is still piecewise linear
//! with unit slope and per-peer drops — so each peer `p` owns **exactly
//! `λ(p)`** ring points provided the total demanded measure
//! `Σ_p λ(p)` does not exceed the ring:
//!
//! * acceptance probability per trial is exactly `Σ_p λ(p) / M`, and
//! * conditioned on acceptance, peer `p` is chosen with probability
//!   exactly `λ(p) / Σ_q λ(q)`.
//!
//! Both statements are verified **exhaustively** in the test suite (every
//! ring point enumerated), the same way Theorem 6 is.
//!
//! The weight function must be computable *locally* from a peer's point —
//! exactly the information the scan already has in hand — which is what
//! keeps the cost profile of Figure 1 (`1 × h` + `O(log n) × next`).
//! [`InverseDistanceWeight`] implements the paper's own example.

use core::fmt;

use keyspace::{KeySpace, Point};
use rand::Rng;

use crate::{Cost, Dht, SampleError, Sampler};

/// A locally computable per-peer measure `λ(p)`, in ring points.
///
/// Implementations must be deterministic: the exactness proof requires
/// every trial to see the same `λ(p)` for the same peer.
pub trait PeerWeight {
    /// The measure (number of ring points) assigned to the peer whose
    /// point is `peer_point`. Returning 0 makes the peer unselectable.
    fn lambda(&self, peer_point: Point) -> u64;
}

impl<F: Fn(Point) -> u64> PeerWeight for F {
    fn lambda(&self, peer_point: Point) -> u64 {
        self(peer_point)
    }
}

/// Uniform weights: every peer gets the same `λ`, recovering Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformWeight {
    /// The common per-peer measure.
    pub lambda: u64,
}

impl PeerWeight for UniformWeight {
    fn lambda(&self, _peer_point: Point) -> u64 {
        self.lambda
    }
}

/// The paper's example bias: selection probability inversely proportional
/// to the clockwise distance from the caller.
///
/// `λ(p) = scale / max(d(origin, l(p)), 1)` — near peers get large
/// measures, antipodal peers small ones. `scale` trades acceptance rate
/// against feasibility: the total demanded measure must stay below the
/// ring size (callers can check a sample of peers or use
/// [`suggested_scale`](InverseDistanceWeight::suggested_scale)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InverseDistanceWeight {
    space: KeySpace,
    origin: Point,
    scale: u128,
}

impl InverseDistanceWeight {
    /// Creates the weight function for a caller at `origin`.
    pub fn new(space: KeySpace, origin: Point, scale: u128) -> InverseDistanceWeight {
        InverseDistanceWeight {
            space,
            origin,
            scale,
        }
    }

    /// A scale under which `n` peers demand roughly a `1/7` fraction of
    /// the ring in total (mirroring Figure 1's acceptance rate): the
    /// expected total measure of `n` i.i.d. peers is `≈ scale · ln M`,
    /// so `scale = M / (7 ln M · n)` ... conservatively rounded down.
    pub fn suggested_scale(space: KeySpace, n: u64) -> u128 {
        let ln_m = 128 - space.modulus().leading_zeros() as u128; // ≈ log2 M ≥ ln M
        (space.modulus() / (7 * ln_m * n as u128)).max(1)
    }
}

impl PeerWeight for InverseDistanceWeight {
    fn lambda(&self, peer_point: Point) -> u64 {
        let d = self
            .space
            .distance(self.origin, peer_point)
            .to_u128()
            .max(1);
        // λ = scale·M/d, capped at half the ring so one adjacent peer can
        // never demand the whole circle.
        let m = self.space.modulus();
        (self.scale.saturating_mul(m) / d).min(m / 2) as u64
    }
}

/// A uniform-at-random sample drawn from the biased distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedSample<P> {
    /// The chosen peer.
    pub peer: P,
    /// The chosen peer's ring point.
    pub point: Point,
    /// The measure `λ(p)` of the chosen peer (its selection weight).
    pub lambda: u64,
    /// Trials used.
    pub trials: u32,
    /// Total messages/latency across all trials.
    pub cost: Cost,
}

/// The weighted generalization of *Choose Random Peer*.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, SortedRing};
/// use peer_sampling::weighted::{UniformWeight, WeightedSampler};
/// use peer_sampling::OracleDht;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let space = KeySpace::full();
/// let dht = OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, 100)));
/// // Uniform weights recover the paper's Figure 1 exactly.
/// let lambda = (space.modulus() / 700) as u64;
/// let sampler = WeightedSampler::new(64, 4096);
/// let sample = sampler.sample(&dht, &UniformWeight { lambda }, &mut rng)?;
/// assert_eq!(sample.lambda, lambda);
/// # Ok::<(), peer_sampling::SampleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedSampler {
    step_bound: u32,
    max_trials: u32,
}

impl WeightedSampler {
    /// Creates a sampler with an explicit scan bound and retry cap.
    ///
    /// Use `step_bound = ⌈6 ln n′⌉` for uniform-magnitude weights; skewed
    /// weights may need a deeper scan for the heavy peers' supplementation
    /// chains (the E14 ablation quantifies this).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(step_bound: u32, max_trials: u32) -> WeightedSampler {
        assert!(step_bound > 0, "step bound must be positive");
        assert!(max_trials > 0, "need at least one trial");
        WeightedSampler {
            step_bound,
            max_trials,
        }
    }

    /// The scan bound.
    #[cfg(test)]
    pub(crate) fn step_bound(&self) -> u32 {
        self.step_bound
    }

    /// The retry cap.
    #[cfg(test)]
    pub(crate) fn max_trials(&self) -> u32 {
        self.max_trials
    }

    /// Draws one peer with probability proportional to `weights`.
    ///
    /// # Errors
    ///
    /// * [`SampleError::Dht`] — a lookup failed.
    /// * [`SampleError::TrialsExhausted`] — the retry cap was hit (check
    ///   that the total demanded measure is a constant fraction of the
    ///   ring).
    pub fn sample<D: Dht, W: PeerWeight + ?Sized, R: Rng + ?Sized>(
        &self,
        dht: &D,
        weights: &W,
        rng: &mut R,
    ) -> Result<WeightedSample<D::Peer>, SampleError> {
        let space = dht.space();
        let mut total_cost = Cost::FREE;
        for trial in 1..=self.max_trials {
            let s = space.random_point(rng);
            match self.trial(dht, weights, s)? {
                WeightedTrial::Accepted {
                    peer,
                    point,
                    lambda,
                    cost,
                } => {
                    return Ok(WeightedSample {
                        peer,
                        point,
                        lambda,
                        trials: trial,
                        cost: total_cost + cost,
                    });
                }
                WeightedTrial::Rejected { cost } => total_cost += cost,
            }
        }
        Err(SampleError::TrialsExhausted {
            attempts: self.max_trials,
        })
    }

    /// The deterministic scan for a fixed start point (exposed for the
    /// exhaustive verification).
    ///
    /// # Errors
    ///
    /// Propagates DHT failures.
    pub fn trial<D: Dht, W: PeerWeight + ?Sized>(
        &self,
        dht: &D,
        weights: &W,
        s: Point,
    ) -> Result<WeightedTrial<D::Peer>, SampleError> {
        let space = dht.space();
        let first = dht.h(s)?;
        let mut cost = first.cost;
        let lambda_first = weights.lambda(first.point) as i128;
        let mut t: i128 = space.distance(s, first.point).to_u128() as i128 - lambda_first;
        if t < 0 {
            return Ok(WeightedTrial::Accepted {
                peer: first.peer,
                point: first.point,
                lambda: lambda_first as u64,
                cost,
            });
        }
        let mut current = first;
        for _ in 0..self.step_bound {
            let nxt = dht.next(current.peer)?;
            cost += nxt.cost;
            let lambda_next = weights.lambda(nxt.point) as i128;
            t += space.distance(current.point, nxt.point).to_u128() as i128 - lambda_next;
            if t < 0 {
                return Ok(WeightedTrial::Accepted {
                    peer: nxt.peer,
                    point: nxt.point,
                    lambda: lambda_next as u64,
                    cost,
                });
            }
            current = nxt;
        }
        Ok(WeightedTrial::Rejected { cost })
    }
}

/// Outcome of one weighted trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedTrial<P> {
    /// The start point belongs to this peer's intervals.
    Accepted {
        /// The owning peer.
        peer: P,
        /// Its ring point.
        point: Point,
        /// Its measure `λ(p)`.
        lambda: u64,
        /// Scan cost.
        cost: Cost,
    },
    /// The start point is unassigned; redraw.
    Rejected {
        /// Scan cost.
        cost: Cost,
    },
}

impl<P: Copy> WeightedTrial<P> {
    /// The accepted peer, if any.
    pub fn accepted_peer(&self) -> Option<P> {
        match *self {
            WeightedTrial::Accepted { peer, .. } => Some(peer),
            WeightedTrial::Rejected { .. } => None,
        }
    }
}

impl From<Sampler> for WeightedSampler {
    /// A uniform [`Sampler`]'s parameters reused for weighted sampling.
    fn from(sampler: Sampler) -> WeightedSampler {
        WeightedSampler::new(sampler.config().step_bound(), sampler.config().max_trials())
    }
}

impl fmt::Display for WeightedSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedSampler(R = {}, max_trials = {})",
            self.step_bound, self.max_trials
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleDht, SamplerConfig};
    use keyspace::SortedRing;
    use rand::SeedableRng;

    fn small_ring(modulus: u128, n: usize, seed: u64) -> SortedRing {
        let space = KeySpace::with_modulus(modulus).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SortedRing::new(space, space.random_distinct_points(&mut rng, n))
    }

    /// Exhaustively count each peer's preimages under the weighted scan.
    fn measure_per_peer<W: PeerWeight>(
        ring: &SortedRing,
        weights: &W,
        step_bound: u32,
    ) -> Vec<u64> {
        let dht = OracleDht::free(ring.clone());
        let sampler = WeightedSampler::new(step_bound, 1);
        let mut counts = vec![0u64; ring.len()];
        for c in 0..ring.space().modulus() as u64 {
            if let Some(peer) = sampler
                .trial(&dht, weights, Point::new(c))
                .unwrap()
                .accepted_peer()
            {
                counts[peer] += 1;
            }
        }
        counts
    }

    #[test]
    fn uniform_weights_reproduce_figure_1_exactly() {
        let n = 16usize;
        let ring = small_ring(1 << 13, n, 1);
        let lambda = (1u64 << 13) / (7 * n as u64);
        let counts = measure_per_peer(&ring, &UniformWeight { lambda }, n as u32 + 1);
        assert!(counts.iter().all(|&c| c == lambda), "{counts:?}");
    }

    #[test]
    fn heterogeneous_weights_give_each_peer_exactly_lambda_p() {
        // λ(p) derived deterministically from the point: 20 + (p mod 37).
        let n = 12usize;
        let ring = small_ring(1 << 13, n, 2);
        let weight = |p: Point| 20 + p.get() % 37;
        let counts = measure_per_peer(&ring, &weight, n as u32 + 1);
        for (rank, &count) in counts.iter().enumerate() {
            let expected = weight(ring.point(rank));
            assert_eq!(
                count, expected,
                "peer {rank} owns {count} != lambda(p) {expected}"
            );
        }
    }

    #[test]
    fn extreme_skew_still_exact() {
        // One peer demands 50x the measure of the others.
        let n = 10usize;
        let ring = small_ring(1 << 13, n, 3);
        let heavy = ring.point(4);
        let weight = move |p: Point| if p == heavy { 500 } else { 10 };
        let counts = measure_per_peer(&ring, &weight, n as u32 * 4);
        for (rank, &count) in counts.iter().enumerate() {
            let expected = if rank == 4 { 500 } else { 10 };
            assert_eq!(count, expected, "rank {rank}");
        }
    }

    #[test]
    fn zero_weight_peer_is_never_chosen() {
        let n = 8usize;
        let ring = small_ring(1 << 12, n, 4);
        let excluded = ring.point(3);
        let weight = move |p: Point| if p == excluded { 0 } else { 40 };
        let counts = measure_per_peer(&ring, &weight, n as u32 + 1);
        assert_eq!(counts[3], 0);
        for (rank, &c) in counts.iter().enumerate() {
            if rank != 3 {
                assert_eq!(c, 40, "rank {rank}");
            }
        }
    }

    #[test]
    fn acceptance_probability_is_total_measure() {
        let n = 10usize;
        let modulus = 1u128 << 12;
        let ring = small_ring(modulus, n, 5);
        let weight = |p: Point| 15 + p.get() % 11;
        let counts = measure_per_peer(&ring, &weight, n as u32 + 1);
        let total_owned: u64 = counts.iter().sum();
        let total_demanded: u64 = (0..n).map(|r| weight(ring.point(r))).sum();
        assert_eq!(total_owned, total_demanded);
    }

    #[test]
    fn sampled_frequencies_match_weights() {
        let n = 6usize;
        let modulus = 1u128 << 12;
        let ring = small_ring(modulus, n, 6);
        // Weights 1:2:3:4:5:6 (scaled to be a decent ring fraction).
        let points: Vec<Point> = (0..n).map(|r| ring.point(r)).collect();
        let weight = move |p: Point| {
            let rank = points.iter().position(|&q| q == p).unwrap() as u64;
            (rank + 1) * 40
        };
        let dht = OracleDht::free(ring.clone());
        let sampler = WeightedSampler::new(n as u32 + 1, 4096);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; n];
        let draws = 42_000;
        for _ in 0..draws {
            let s = sampler.sample(&dht, &weight, &mut rng).unwrap();
            counts[ring.index_of(s.point).unwrap()] += 1;
        }
        let total_weight = 21.0 * 40.0;
        for (rank, &c) in counts.iter().enumerate() {
            let expected = draws as f64 * ((rank as f64 + 1.0) * 40.0) / total_weight;
            assert!(
                (c as f64 - expected).abs() < expected * 0.12,
                "rank {rank}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn inverse_distance_weight_biases_toward_origin() {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 200usize;
        let ring = SortedRing::new(space, space.random_points(&mut rng, n));
        let origin = ring.point(0);
        let scale = InverseDistanceWeight::suggested_scale(space, n as u64);
        let weight = InverseDistanceWeight::new(space, origin, scale);
        let dht = OracleDht::free(ring.clone());
        let sampler = WeightedSampler::new(128, 4096);
        // Peers just clockwise of the origin should be chosen far more
        // often than peers near the antipode.
        let mut near = 0u64;
        let mut far = 0u64;
        for _ in 0..3000 {
            let s = sampler.sample(&dht, &weight, &mut rng).unwrap();
            let d = space.distance(origin, s.point).to_u128();
            if d < space.modulus() / 8 {
                near += 1;
            } else if d > space.modulus() * 3 / 8 {
                far += 1;
            }
        }
        assert!(
            near > 4 * far.max(1),
            "inverse-distance bias missing: near {near}, far {far}"
        );
    }

    #[test]
    fn from_sampler_inherits_parameters() {
        let sampler = Sampler::new(SamplerConfig::new(100).with_max_trials(9));
        let weighted = WeightedSampler::from(sampler);
        assert_eq!(weighted.max_trials(), 9);
        assert_eq!(weighted.step_bound(), sampler.config().step_bound());
        assert!(weighted.to_string().contains("max_trials = 9"));
    }

    #[test]
    #[should_panic(expected = "step bound")]
    fn zero_step_bound_panics() {
        let _ = WeightedSampler::new(0, 1);
    }
}
