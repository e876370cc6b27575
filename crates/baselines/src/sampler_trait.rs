use rand::RngCore;

use keyspace::SortedRing;
use peer_sampling::{OracleDht, Sampler, SamplerConfig};

/// A source of peer indices in `0..len()`.
///
/// Applications (polling, random links, load balancing, committees) only
/// need "give me a peer"; this trait lets them swap the exactly-uniform
/// King–Saia sampler, the biased baselines, and the ideal RNG freely, so
/// every experiment can report the same workload under every sampler.
///
/// The trait is object-safe (`&mut dyn RngCore`) so experiment harnesses
/// can hold heterogeneous sampler collections.
pub trait IndexSampler {
    /// Number of peers being sampled over.
    fn len(&self) -> usize;

    /// Whether there are no peers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws one peer index in `0..len()`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the sampler is empty or its backing
    /// configuration is inconsistent (each documents its own conditions).
    fn sample_index(&self, rng: &mut dyn RngCore) -> usize;

    /// Messages an application would spend per draw (0 for local-only
    /// samplers like [`TrueUniform`]). Used to compare samplers at equal
    /// message budgets (experiment E7).
    fn cost_per_sample_hint(&self) -> f64 {
        0.0
    }
}

/// The ideal uniform sampler: a local RNG draw, zero messages.
///
/// This is the unreachable gold standard the King–Saia algorithm matches
/// in distribution (but not in cost): use it to calibrate the statistical
/// tests themselves.
///
/// # Example
///
/// ```
/// use baselines::{IndexSampler, TrueUniform};
/// use rand::SeedableRng;
///
/// let s = TrueUniform::new(10);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert!(s.sample_index(&mut rng) < 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrueUniform {
    len: usize,
}

impl TrueUniform {
    /// A uniform sampler over `len` peers.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> TrueUniform {
        assert!(len > 0, "cannot sample from zero peers");
        TrueUniform { len }
    }
}

impl IndexSampler for TrueUniform {
    fn len(&self) -> usize {
        self.len
    }

    fn sample_index(&self, rng: &mut dyn RngCore) -> usize {
        use rand::Rng;
        rng.gen_range(0..self.len)
    }
}

/// The King–Saia sampler adapted to the [`IndexSampler`] interface,
/// running over an [`OracleDht`] (peer indices are ring ranks).
///
/// # Example
///
/// ```
/// use baselines::{IndexSampler, KingSaiaIndexSampler};
/// use keyspace::{KeySpace, SortedRing};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let space = KeySpace::full();
/// let ring = SortedRing::new(space, space.random_points(&mut rng, 64));
/// let sampler = KingSaiaIndexSampler::from_ring(ring);
/// assert!(sampler.sample_index(&mut rng) < 64);
/// ```
#[derive(Debug, Clone)]
pub struct KingSaiaIndexSampler {
    dht: OracleDht,
    sampler: Sampler,
}

impl KingSaiaIndexSampler {
    /// Builds the sampler over a ring, configured with the true peer count
    /// (experiments isolating distributional properties from estimation
    /// error use this).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn from_ring(ring: SortedRing) -> KingSaiaIndexSampler {
        assert!(!ring.is_empty(), "cannot sample from an empty ring");
        let n = ring.len() as u64;
        KingSaiaIndexSampler {
            dht: OracleDht::new(ring),
            sampler: Sampler::new(SamplerConfig::new(n)),
        }
    }

    /// The underlying DHT view.
    #[cfg(test)]
    pub(crate) fn dht(&self) -> &OracleDht {
        &self.dht
    }
}

impl IndexSampler for KingSaiaIndexSampler {
    fn len(&self) -> usize {
        self.dht.len()
    }

    /// # Panics
    ///
    /// Panics if the sampler configuration is invalid for the ring's key
    /// space or the (astronomically unlikely) retry cap is hit.
    fn sample_index(&self, rng: &mut dyn RngCore) -> usize {
        self.sampler
            .sample(&self.dht, rng)
            .expect("oracle-backed sampling cannot fail with a sane config")
            .peer
    }

    fn cost_per_sample_hint(&self) -> f64 {
        // E[trials] ≈ 7 with n_upper = n; each trial costs ~log2 n + O(1).
        let denom = self.sampler.config().lambda_denominator() as f64;
        denom * ((self.dht.len().max(2) as f64).log2() + 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyspace::KeySpace;
    use rand::SeedableRng;

    #[test]
    fn true_uniform_is_unbiased() {
        let s = TrueUniform::new(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut counts = [0u64; 8];
        for _ in 0..8000 {
            counts[s.sample_index(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800 && c < 1200), "{counts:?}");
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.cost_per_sample_hint(), 0.0);
    }

    #[test]
    fn king_saia_draws_valid_indices() {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let ring = SortedRing::new(space, space.random_points(&mut rng, 50));
        let s = KingSaiaIndexSampler::from_ring(ring);
        for _ in 0..100 {
            assert!(s.sample_index(&mut rng) < 50);
        }
        assert_eq!(s.len(), 50);
        assert!(s.cost_per_sample_hint() > 0.0);
        assert_eq!(s.dht().len(), 50);
    }

    #[test]
    fn samplers_work_as_trait_objects() {
        let samplers: Vec<Box<dyn IndexSampler>> = vec![Box::new(TrueUniform::new(4))];
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        assert!(samplers[0].sample_index(&mut rng) < 4);
    }

    #[test]
    #[should_panic(expected = "zero peers")]
    fn empty_uniform_panics() {
        let _ = TrueUniform::new(0);
    }
}
