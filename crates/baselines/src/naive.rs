use rand::RngCore;

use keyspace::SortedRing;

use crate::IndexSampler;

/// The naive heuristic the paper opens with: return `h(s)` for a uniform
/// random ring point `s`.
///
/// Cheap — one lookup, no retries — but biased: peer `p` is selected with
/// probability `arc_before(p)/M`, and arcs vary from `Θ(1/n²)` to
/// `Θ(log n / n)` of the circle, so the most-likely peer is `Θ(n log n)`
/// more likely than the least (experiment E8 reproduces this).
///
/// # Example
///
/// ```
/// use baselines::{IndexSampler, NaiveSampler};
/// use keyspace::{KeySpace, Point, SortedRing};
/// use rand::SeedableRng;
///
/// // Peer 0 (at point 0) is preceded by the 900-point arc from 100 back
/// // around to 0 — 90% of the circle — while peer 1 gets only 10%.
/// let space = KeySpace::with_modulus(1000).unwrap();
/// let ring = SortedRing::new(space, vec![Point::new(0), Point::new(100)]);
/// let s = NaiveSampler::new(ring);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let hits = (0..1000).filter(|_| s.sample_index(&mut rng) == 1).count();
/// assert!(hits < 200, "peer 1 should be chosen rarely, got {hits}/1000");
/// ```
#[derive(Debug, Clone)]
pub struct NaiveSampler {
    ring: SortedRing,
}

impl NaiveSampler {
    /// Wraps a ring.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn new(ring: SortedRing) -> NaiveSampler {
        assert!(!ring.is_empty(), "cannot sample from an empty ring");
        NaiveSampler { ring }
    }

    /// The ring being sampled.
    #[cfg(test)]
    pub(crate) fn ring(&self) -> &SortedRing {
        &self.ring
    }

    /// The exact selection probability of each peer under this heuristic:
    /// `arc_before(p) / M`. Used as the reference distribution when
    /// chi-square-testing the heuristic against its own model (E8).
    pub fn selection_probabilities(&self) -> Vec<f64> {
        let space = self.ring.space();
        (0..self.ring.len())
            .map(|i| space.fraction(self.ring.arc_before(i)))
            .collect()
    }
}

impl IndexSampler for NaiveSampler {
    fn len(&self) -> usize {
        self.ring.len()
    }

    fn sample_index(&self, rng: &mut dyn RngCore) -> usize {
        let s = self.ring.space().random_point(rng);
        self.ring.successor_of(s)
    }

    fn cost_per_sample_hint(&self) -> f64 {
        (self.ring.len().max(2) as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyspace::{KeySpace, Point};
    use rand::SeedableRng;

    #[test]
    fn bias_follows_arc_lengths() {
        // Arcs 10%, 40%, 50% → selection probabilities match.
        let space = KeySpace::with_modulus(1000).unwrap();
        let ring = SortedRing::new(space, vec![Point::new(0), Point::new(400), Point::new(900)]);
        let s = NaiveSampler::new(ring);
        let probs = s.selection_probabilities();
        assert_eq!(probs, vec![0.1, 0.4, 0.5]);

        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut counts = [0u64; 3];
        let draws = 30_000;
        for _ in 0..draws {
            counts[s.sample_index(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / draws as f64;
            assert!(
                (freq - probs[i]).abs() < 0.02,
                "peer {i}: freq {freq} vs prob {}",
                probs[i]
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ring = SortedRing::new(space, space.random_points(&mut rng, 100));
        let s = NaiveSampler::new(ring);
        let total: f64 = s.selection_probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(s.len(), 100);
        assert!(s.cost_per_sample_hint() > 0.0);
        assert_eq!(s.ring().len(), 100);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics() {
        let space = KeySpace::full();
        let _ = NaiveSampler::new(SortedRing::new(space, vec![]));
    }
}
