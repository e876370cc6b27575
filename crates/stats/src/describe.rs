use core::fmt;

/// Streaming mean/variance accumulator (Welford's online algorithm).
///
/// Numerically stable single-pass computation of mean and variance; used by
/// the experiment harness to aggregate per-call message counts and latencies
/// without storing every observation.
///
/// # Example
///
/// ```
/// use stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Welford {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite — a NaN would silently poison every
    /// downstream statistic.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "Welford observation must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`; 0 when `n < 2`).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    #[cfg(test)]
    pub(crate) fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+∞` when empty).
    #[cfg(test)]
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    #[cfg(test)]
    pub(crate) fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Welford {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

impl fmt::Display for Welford {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Batch descriptive summary with exact percentiles.
///
/// Stores (a sorted copy of) the sample, so prefer [`Welford`] when only
/// moments are needed. Percentiles use the nearest-rank method, which is
/// exact and monotone and therefore safe for assertions in tests.
///
/// # Example
///
/// ```
/// use stats::Summary;
///
/// let s = Summary::from_samples((1..=100).map(f64::from)).unwrap();
/// assert_eq!(s.median(), 50.0);
/// assert_eq!(s.percentile(99.0), 99.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    moments: Welford,
}

impl Summary {
    /// Builds a summary from samples.
    ///
    /// Returns `None` for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Option<Summary> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        let moments: Welford = sorted.iter().copied().collect();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Some(Summary { sorted, moments })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Nearest-rank percentile, `p ∈ [0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if p == 0.0 {
            return self.min();
        }
        let rank = (p / 100.0 * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The 50th percentile.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} p50={:.4} p99={:.4} max={:.4}",
            self.count(),
            self.mean(),
            self.std_dev(),
            self.median(),
            self.percentile(99.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_textbook_example() {
        let w: Welford = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(w.count(), 8);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.population_variance(), 4.0);
        assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn welford_rejects_nan() {
        Welford::new().push(f64::NAN);
    }

    #[test]
    fn summary_percentiles_nearest_rank() {
        let s = Summary::from_samples((1..=10).map(f64::from)).unwrap();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(10.0), 1.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(91.0), 10.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_samples(std::iter::empty()).is_none());
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples([42.0]).unwrap();
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn summary_percentile_range_checked() {
        let s = Summary::from_samples([1.0]).unwrap();
        let _ = s.percentile(101.0);
    }

    #[test]
    fn displays_are_nonempty() {
        let w: Welford = [1.0, 2.0].into_iter().collect();
        assert!(w.to_string().contains("mean"));
        let s = Summary::from_samples([1.0, 2.0]).unwrap();
        assert!(s.to_string().contains("p50"));
    }
}
