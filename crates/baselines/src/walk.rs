use rand::{Rng, RngCore};

use crate::{IndexSampler, OverlayGraph};

/// Transition rule of a [`RandomWalkSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkKind {
    /// Move to a uniform random neighbor. Stationary distribution is
    /// proportional to degree — biased on irregular overlays.
    Simple,
    /// Lazy max-degree walk: move to neighbor `j` if `j < deg(v)` for
    /// `j` drawn from `0..cap`, else stay. Stationary distribution is
    /// exactly uniform when `cap ≥ max_degree`.
    MaxDegree {
        /// The degree cap `Δ`; must be at least the graph's max degree for
        /// uniformity.
        cap: usize,
    },
    /// Metropolis–Hastings: propose a uniform neighbor `u`, accept with
    /// probability `min(1, deg(v)/deg(u))`. Stationary distribution is
    /// exactly uniform.
    MetropolisHastings,
}

/// Random-walk peer sampling — the Gkantsidis et al. \[5\] comparator.
///
/// Walks `length` steps over the overlay from a fixed start vertex and
/// returns the endpoint. The distribution converges to the walk's
/// stationary distribution at a rate governed by the spectral gap; it is
/// never *exactly* uniform at finite length, which is precisely the
/// shortcoming the King–Saia algorithm removes. Each step costs one
/// message, so `length` is directly comparable to the sampler's message
/// cost (experiment E7).
///
/// # Example
///
/// ```
/// use baselines::{IndexSampler, OverlayGraph, RandomWalkSampler, WalkKind};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = OverlayGraph::random_regular(64, 6, &mut rng);
/// let walk = RandomWalkSampler::new(g, 0, 50, WalkKind::MetropolisHastings);
/// assert!(walk.sample_index(&mut rng) < 64);
/// ```
#[derive(Debug, Clone)]
pub struct RandomWalkSampler {
    graph: OverlayGraph,
    start: usize,
    length: usize,
    kind: WalkKind,
}

impl RandomWalkSampler {
    /// Creates a walk sampler.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty, `start` is out of range, any vertex
    /// is isolated (the walk would strand), or a
    /// [`WalkKind::MaxDegree`] cap is below the graph's max degree (the
    /// stationary distribution would not be uniform — a misconfiguration,
    /// not a comparison point).
    pub fn new(
        graph: OverlayGraph,
        start: usize,
        length: usize,
        kind: WalkKind,
    ) -> RandomWalkSampler {
        assert!(!graph.is_empty(), "cannot walk an empty graph");
        assert!(start < graph.len(), "start vertex out of range");
        assert!(
            (0..graph.len()).all(|v| graph.degree(v) > 0),
            "graph has an isolated vertex"
        );
        if let WalkKind::MaxDegree { cap } = kind {
            assert!(
                cap >= graph.max_degree(),
                "max-degree cap {cap} below the graph's max degree {}",
                graph.max_degree()
            );
        }
        RandomWalkSampler {
            graph,
            start,
            length,
            kind,
        }
    }

    /// The walk length (= message cost per sample).
    #[cfg(test)]
    pub(crate) fn length(&self) -> usize {
        self.length
    }

    /// The transition rule.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> WalkKind {
        self.kind
    }

    /// The overlay being walked.
    #[cfg(test)]
    pub(crate) fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Runs one walk and returns the endpoint.
    pub fn walk<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut v = self.start;
        for _ in 0..self.length {
            v = self.step(v, rng);
        }
        v
    }

    fn step<R: Rng + ?Sized>(&self, v: usize, rng: &mut R) -> usize {
        let neighbors = self.graph.neighbors(v);
        match self.kind {
            WalkKind::Simple => neighbors[rng.gen_range(0..neighbors.len())],
            WalkKind::MaxDegree { cap } => {
                let j = rng.gen_range(0..cap);
                if j < neighbors.len() {
                    neighbors[j]
                } else {
                    v
                }
            }
            WalkKind::MetropolisHastings => {
                let u = neighbors[rng.gen_range(0..neighbors.len())];
                let accept = self.graph.degree(v) as f64 / self.graph.degree(u) as f64;
                if accept >= 1.0 || rng.gen::<f64>() < accept {
                    u
                } else {
                    v
                }
            }
        }
    }
}

impl IndexSampler for RandomWalkSampler {
    fn len(&self) -> usize {
        self.graph.len()
    }

    fn sample_index(&self, rng: &mut dyn RngCore) -> usize {
        self.walk(rng)
    }

    fn cost_per_sample_hint(&self) -> f64 {
        self.length as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(9)
    }

    /// A small irregular graph: a star glued to a path, degrees 1..=4.
    fn irregular() -> OverlayGraph {
        OverlayGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (1, 2)])
    }

    #[test]
    fn simple_walk_is_degree_biased() {
        let g = irregular();
        let degrees: Vec<usize> = (0..g.len()).map(|v| g.degree(v)).collect();
        let walk = RandomWalkSampler::new(g, 2, 100, WalkKind::Simple);
        let mut r = rng();
        let mut counts = [0u64; 6];
        let draws = 20_000;
        for _ in 0..draws {
            counts[walk.sample_index(&mut r)] += 1;
        }
        // Stationary: deg(v)/2|E|, |E| = 6.
        for (v, &c) in counts.iter().enumerate() {
            let expected = degrees[v] as f64 / 12.0;
            let freq = c as f64 / draws as f64;
            assert!(
                (freq - expected).abs() < 0.02,
                "v = {v}: freq {freq} vs degree-stationary {expected}"
            );
        }
    }

    #[test]
    fn metropolis_hastings_converges_to_uniform() {
        let walk = RandomWalkSampler::new(irregular(), 0, 200, WalkKind::MetropolisHastings);
        let mut r = rng();
        let mut counts = [0u64; 6];
        let draws = 30_000;
        for _ in 0..draws {
            counts[walk.sample_index(&mut r)] += 1;
        }
        let uniform = draws as f64 / 6.0;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - uniform).abs() < uniform * 0.1,
                "v = {v}: count {c} vs uniform {uniform}"
            );
        }
    }

    #[test]
    fn max_degree_walk_converges_to_uniform() {
        let g = irregular();
        let cap = g.max_degree();
        let walk = RandomWalkSampler::new(g, 0, 300, WalkKind::MaxDegree { cap });
        let mut r = rng();
        let mut counts = [0u64; 6];
        let draws = 30_000;
        for _ in 0..draws {
            counts[walk.sample_index(&mut r)] += 1;
        }
        let uniform = draws as f64 / 6.0;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - uniform).abs() < uniform * 0.1,
                "v = {v}: count {c} vs uniform {uniform}"
            );
        }
    }

    #[test]
    fn short_walks_stay_near_start() {
        // Length 1 from vertex 4 can only reach its neighbors {0, 5}.
        let walk = RandomWalkSampler::new(irregular(), 4, 1, WalkKind::Simple);
        let mut r = rng();
        for _ in 0..100 {
            let v = walk.sample_index(&mut r);
            assert!(v == 0 || v == 5, "reached {v} in one step from 4");
        }
    }

    #[test]
    fn zero_length_walk_returns_start() {
        let walk = RandomWalkSampler::new(irregular(), 3, 0, WalkKind::Simple);
        let mut r = rng();
        assert_eq!(walk.sample_index(&mut r), 3);
        assert_eq!(walk.length(), 0);
        assert_eq!(walk.kind(), WalkKind::Simple);
        assert_eq!(walk.cost_per_sample_hint(), 0.0);
        assert_eq!(walk.graph().len(), 6);
    }

    #[test]
    #[should_panic(expected = "below the graph's max degree")]
    fn undersized_cap_panics() {
        let _ = RandomWalkSampler::new(irregular(), 0, 10, WalkKind::MaxDegree { cap: 2 });
    }

    #[test]
    #[should_panic(expected = "isolated vertex")]
    fn isolated_vertex_panics() {
        let g = OverlayGraph::from_edges(3, &[(0, 1)]);
        let _ = RandomWalkSampler::new(g, 0, 10, WalkKind::Simple);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_panics() {
        let _ = RandomWalkSampler::new(irregular(), 99, 10, WalkKind::Simple);
    }
}
