//! Data collection by peer polling (§1 "Data Collection").
//!
//! The statistical contract of survey sampling — the sample mean is an
//! unbiased estimator of the population mean — requires uniform sampling.
//! This module polls a boolean attribute through any
//! [`IndexSampler`] and reports the estimate;
//! [`arc_correlated_attribute`] builds the adversarial-but-realistic
//! population where the attribute correlates with ring-arc length, which
//! maximally exposes the naive heuristic's bias (experiment E12/E8
//! companion).

use baselines::IndexSampler;
use keyspace::SortedRing;
use rand::RngCore;

/// Result of polling `sample_size` peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollResult {
    /// Fraction of polled peers with the attribute.
    pub estimate: f64,
    /// True population fraction (for error reporting).
    pub truth: f64,
    /// Peers polled.
    pub sample_size: usize,
}

impl PollResult {
    /// Signed estimation error (`estimate − truth`).
    pub fn error(&self) -> f64 {
        self.estimate - self.truth
    }
}

/// Polls `sample_size` peers (with replacement) for a boolean attribute.
///
/// # Panics
///
/// Panics if `attribute.len() != sampler.len()`, the population is empty,
/// or `sample_size == 0`.
pub fn poll(
    sampler: &dyn IndexSampler,
    attribute: &[bool],
    sample_size: usize,
    rng: &mut dyn RngCore,
) -> PollResult {
    assert_eq!(
        attribute.len(),
        sampler.len(),
        "attribute vector must cover every peer"
    );
    assert!(!attribute.is_empty(), "population is empty");
    assert!(sample_size > 0, "must poll at least one peer");
    let mut hits = 0usize;
    for _ in 0..sample_size {
        if attribute[sampler.sample_index(rng)] {
            hits += 1;
        }
    }
    let truth = attribute.iter().filter(|&&b| b).count() as f64 / attribute.len() as f64;
    PollResult {
        estimate: hits as f64 / sample_size as f64,
        truth,
        sample_size,
    }
}

/// Assigns the attribute to the `⌈fraction·n⌉` peers with the **longest**
/// preceding arcs.
///
/// This is the adversarial population for the naive heuristic: its
/// selection probability is exactly proportional to the preceding arc, so
/// the attribute is maximally over-represented in naive samples. Any
/// real-world attribute correlated with key placement behaves like a
/// diluted version of this.
///
/// # Panics
///
/// Panics if the ring is empty or `fraction` is outside `[0, 1]`.
pub fn arc_correlated_attribute(ring: &SortedRing, fraction: f64) -> Vec<bool> {
    assert!(!ring.is_empty(), "ring is empty");
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction {fraction} outside [0, 1]"
    );
    let n = ring.len();
    let count = (fraction * n as f64).ceil() as usize;
    let mut by_arc: Vec<usize> = (0..n).collect();
    by_arc.sort_by_key(|&i| std::cmp::Reverse(ring.arc_before(i)));
    let mut attr = vec![false; n];
    for &i in by_arc.iter().take(count.min(n)) {
        attr[i] = true;
    }
    attr
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{NaiveSampler, TrueUniform};
    use keyspace::KeySpace;
    use rand::SeedableRng;

    fn ring(n: usize, seed: u64) -> SortedRing {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SortedRing::new(space, space.random_points(&mut rng, n))
    }

    #[test]
    fn uniform_poll_is_unbiased() {
        let r = ring(500, 1);
        let attr = arc_correlated_attribute(&r, 0.3);
        let sampler = TrueUniform::new(500);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = poll(&sampler, &attr, 20_000, &mut rng);
        assert!((result.truth - 0.3).abs() < 0.01);
        assert!(
            result.error().abs() < 0.02,
            "uniform estimate off by {}",
            result.error()
        );
    }

    #[test]
    fn naive_poll_overestimates_arc_correlated_attribute() {
        let r = ring(500, 3);
        let attr = arc_correlated_attribute(&r, 0.3);
        let sampler = NaiveSampler::new(r);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let result = poll(&sampler, &attr, 20_000, &mut rng);
        // The 30% of peers with the longest arcs carry far more than 30%
        // of the arc measure (arcs are ~exponential: top 30% carry ~65%).
        assert!(
            result.error() > 0.2,
            "naive bias should be large, got {}",
            result.error()
        );
    }

    #[test]
    fn attribute_marks_longest_arc_peers() {
        let r = ring(100, 5);
        let attr = arc_correlated_attribute(&r, 0.1);
        assert_eq!(attr.iter().filter(|&&b| b).count(), 10);
        // Every marked peer's arc is at least as long as every unmarked one.
        let min_marked = (0..100)
            .filter(|&i| attr[i])
            .map(|i| r.arc_before(i))
            .min()
            .unwrap();
        let max_unmarked = (0..100)
            .filter(|&i| !attr[i])
            .map(|i| r.arc_before(i))
            .max()
            .unwrap();
        assert!(min_marked >= max_unmarked);
    }

    #[test]
    fn fraction_boundaries() {
        let r = ring(10, 6);
        assert_eq!(
            arc_correlated_attribute(&r, 0.0)
                .iter()
                .filter(|&&b| b)
                .count(),
            0
        );
        assert_eq!(
            arc_correlated_attribute(&r, 1.0)
                .iter()
                .filter(|&&b| b)
                .count(),
            10
        );
    }

    #[test]
    fn poll_result_error_is_signed() {
        let result = PollResult {
            estimate: 0.4,
            truth: 0.5,
            sample_size: 10,
        };
        assert!((result.error() + 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cover every peer")]
    fn mismatched_attribute_panics() {
        let sampler = TrueUniform::new(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let _ = poll(&sampler, &[true; 4], 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_sample_size_panics() {
        let sampler = TrueUniform::new(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let _ = poll(&sampler, &[true; 5], 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fraction_panics() {
        let _ = arc_correlated_attribute(&ring(5, 9), 1.5);
    }
}
