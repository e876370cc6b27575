//! Distances between discrete probability distributions.
//!
//! The paper's headline guarantee is *exact* uniformity (Theorem 6), while
//! the comparators (naive `h(s)`, random walks) are only approximately
//! uniform. These functions quantify the gap:
//!
//! * [`total_variation`] — `½ Σ |pᵢ − qᵢ|`, the probability mass that would
//!   have to move; the metric used by Gkantsidis et al. for walk mixing.
//! * [`max_min_ratio`] — the paper's §1 bias measure: the most-likely peer
//!   of the naive heuristic is chosen `Θ(n log n)` times more often than the
//!   least-likely one.
//! * [`normalize_counts`] — empirical distribution from selection counts.

/// Converts raw selection counts into an empirical probability distribution.
///
/// # Panics
///
/// Panics if the total count is zero.
pub fn normalize_counts(counts: &[u64]) -> Vec<f64> {
    let total: u128 = counts.iter().map(|&c| c as u128).sum();
    assert!(total > 0, "cannot normalize all-zero counts");
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Total-variation distance `½ Σ |pᵢ − qᵢ|` between two distributions.
///
/// Ranges over `[0, 1]`; 0 iff identical, 1 iff disjoint support.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must have equal support");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Total-variation distance of an empirical count vector from uniform.
///
/// Convenience wrapper for the common E5/E7 measurement.
///
/// # Panics
///
/// Panics if `counts` is empty or all zero.
pub fn tv_from_uniform(counts: &[u64]) -> f64 {
    assert!(!counts.is_empty(), "empty count vector");
    let p = normalize_counts(counts);
    let u = 1.0 / counts.len() as f64;
    0.5 * p.iter().map(|&x| (x - u).abs()).sum::<f64>()
}

/// Ratio of the largest to the smallest empirical probability.
///
/// This is the paper's §1 bias measure. Returns `+∞` when some category was
/// never selected (its empirical probability is zero).
///
/// # Panics
///
/// Panics if `counts` is empty or all zero.
pub fn max_min_ratio(counts: &[u64]) -> f64 {
    assert!(!counts.is_empty(), "empty count vector");
    let max = *counts.iter().max().expect("non-empty");
    let min = *counts.iter().min().expect("non-empty");
    assert!(max > 0, "all-zero counts");
    if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_counts_sums_to_one() {
        let p = normalize_counts(&[1, 2, 3, 4]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p[3], 0.4);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn normalize_rejects_zero_total() {
        let _ = normalize_counts(&[0, 0]);
    }

    #[test]
    fn tv_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    fn tv_disjoint_is_one() {
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
    }

    #[test]
    fn tv_known_value() {
        // ½(|0.5−0.25| + |0.5−0.75|) = 0.25.
        assert!((total_variation(&[0.5, 0.5], &[0.25, 0.75]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tv_from_uniform_matches_manual() {
        let counts = [30u64, 10, 10, 10];
        // p = [.5, 1/6, 1/6, 1/6], u = .25 → ½(.25 + 3·(1/12)) = 0.25.
        assert!((tv_from_uniform(&counts) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_min_ratio_basic() {
        assert_eq!(max_min_ratio(&[10, 5, 20]), 4.0);
        assert_eq!(max_min_ratio(&[7, 7]), 1.0);
        assert_eq!(max_min_ratio(&[3, 0]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "equal support")]
    fn mismatched_lengths_panic() {
        let _ = total_variation(&[1.0], &[0.5, 0.5]);
    }
}
