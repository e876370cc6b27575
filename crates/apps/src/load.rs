//! Load balancing by random assignment (§1, Karger–Ruhl \[7\]).
//!
//! Assigning `m` tasks to uniformly random peers is the classic
//! balls-in-bins process: for `m = n` the maximum load is
//! `(1 + o(1)) ln n / ln ln n` w.h.p. A biased sampler inflates the
//! maximum by funnelling tasks to high-probability peers. Experiment E12
//! compares the distributions.

use baselines::IndexSampler;
use rand::RngCore;

/// Loads after assigning tasks through a sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadAssignment {
    loads: Vec<u64>,
    tasks: u64,
}

impl LoadAssignment {
    /// Per-peer task counts.
    #[cfg(test)]
    pub(crate) fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Total tasks assigned.
    #[cfg(test)]
    pub(crate) fn tasks(&self) -> u64 {
        self.tasks
    }

    /// The maximum load.
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The mean load.
    #[cfg(test)]
    pub(crate) fn mean_load(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.tasks as f64 / self.loads.len() as f64
        }
    }

    /// Number of peers that received no tasks.
    pub fn idle_peers(&self) -> usize {
        self.loads.iter().filter(|&&l| l == 0).count()
    }
}

/// Assigns `tasks` tasks to sampler-chosen peers.
///
/// # Panics
///
/// Panics if the sampler is empty or `tasks == 0`.
pub fn assign_tasks(
    sampler: &dyn IndexSampler,
    tasks: u64,
    rng: &mut dyn RngCore,
) -> LoadAssignment {
    assert!(!sampler.is_empty(), "no peers to assign tasks to");
    assert!(tasks > 0, "must assign at least one task");
    let mut loads = vec![0u64; sampler.len()];
    for _ in 0..tasks {
        loads[sampler.sample_index(rng)] += 1;
    }
    LoadAssignment { loads, tasks }
}

/// The balls-in-bins benchmark: expected maximum load of `m` uniform balls
/// in `n` bins, `≈ ln n / ln ln n` for `m = n` and
/// `≈ m/n + √(2 (m/n) ln n)` for `m ≫ n ln n` (Raab & Steger).
///
/// Used as the theory line in experiment E12's table.
///
/// # Panics
///
/// Panics if `n < 3` (the `ln ln n` regime needs `n ≥ 3`) or `m == 0`.
pub fn uniform_max_load_benchmark(m: u64, n: u64) -> f64 {
    assert!(n >= 3, "benchmark needs at least 3 bins");
    assert!(m > 0, "benchmark needs at least one ball");
    let nf = n as f64;
    let mf = m as f64;
    let ratio = mf / nf;
    if ratio <= (nf.ln()) {
        // Sparse regime.
        nf.ln() / nf.ln().ln() + ratio
    } else {
        // Dense regime.
        ratio + (2.0 * ratio * nf.ln()).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{NaiveSampler, TrueUniform};
    use keyspace::{KeySpace, SortedRing};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn all_tasks_are_assigned() {
        let mut r = rng();
        let a = assign_tasks(&TrueUniform::new(50), 1000, &mut r);
        assert_eq!(a.loads().iter().sum::<u64>(), 1000);
        assert_eq!(a.tasks(), 1000);
        assert!((a.mean_load() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_max_load_matches_balls_in_bins() {
        let mut r = rng();
        let n = 1000u64;
        // m = n: max load should be near ln n / ln ln n ≈ 3.6, certainly ≤ 10.
        let a = assign_tasks(&TrueUniform::new(n as usize), n, &mut r);
        assert!(
            a.max_load() <= 10,
            "uniform max load {} far above theory",
            a.max_load()
        );
        let bench = uniform_max_load_benchmark(n, n);
        assert!((2.0..8.0).contains(&bench), "benchmark {bench}");
    }

    #[test]
    fn biased_sampler_inflates_max_load() {
        let mut r = rng();
        let space = KeySpace::full();
        let n = 1000usize;
        let ring = SortedRing::new(space, space.random_points(&mut r, n));
        let naive = NaiveSampler::new(ring);
        let uniform_max: u64 = (0..5)
            .map(|_| assign_tasks(&TrueUniform::new(n), n as u64, &mut r).max_load())
            .max()
            .unwrap();
        let biased_max: u64 = (0..5)
            .map(|_| assign_tasks(&naive, n as u64, &mut r).max_load())
            .min()
            .unwrap();
        // The longest-arc peer receives ~arc·n ≈ ln n ≈ 7+ tasks on its own.
        assert!(
            biased_max > uniform_max,
            "bias must inflate max load: biased {biased_max} vs uniform {uniform_max}"
        );
    }

    #[test]
    fn idle_peers_counted() {
        let mut r = rng();
        let a = assign_tasks(&TrueUniform::new(100), 10, &mut r);
        assert!(a.idle_peers() >= 90);
    }

    #[test]
    fn dense_regime_benchmark_scales_with_ratio() {
        let sparse = uniform_max_load_benchmark(1000, 1000);
        let dense = uniform_max_load_benchmark(1_000_000, 1000);
        assert!(dense > 1000.0, "dense benchmark {dense}");
        assert!(sparse < 10.0, "sparse benchmark {sparse}");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_panics() {
        let mut r = rng();
        let _ = assign_tasks(&TrueUniform::new(5), 0, &mut r);
    }

    #[test]
    #[should_panic(expected = "at least 3 bins")]
    fn tiny_benchmark_panics() {
        let _ = uniform_max_load_benchmark(10, 2);
    }
}
