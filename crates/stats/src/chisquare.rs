use core::fmt;

use crate::gamma::chi_square_sf;

/// Error constructing a [`ChiSquare`] test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChiSquareError {
    /// Fewer than two categories — no test is possible.
    TooFewCategories,
    /// Observed and expected slices have different lengths.
    LengthMismatch {
        /// Number of observed categories supplied.
        observed: usize,
        /// Number of expected categories supplied.
        expected: usize,
    },
    /// An expected count was zero or negative (the statistic is undefined).
    NonPositiveExpected {
        /// Index of the offending category.
        index: usize,
    },
}

impl fmt::Display for ChiSquareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChiSquareError::TooFewCategories => {
                write!(f, "chi-square test needs at least two categories")
            }
            ChiSquareError::LengthMismatch { observed, expected } => write!(
                f,
                "observed has {observed} categories but expected has {expected}"
            ),
            ChiSquareError::NonPositiveExpected { index } => {
                write!(f, "expected count at index {index} is not positive")
            }
        }
    }
}

impl std::error::Error for ChiSquareError {}

/// Pearson chi-square goodness-of-fit test.
///
/// The workhorse of experiment **E5**: after drawing many samples from the
/// peer-selection algorithm, the per-peer selection counts are tested
/// against the uniform expectation `N/n`. Under the null hypothesis (the
/// sampler is exactly uniform, Theorem 6), the statistic
/// `Σ (Oᵢ − Eᵢ)²/Eᵢ` is asymptotically chi-square with `n − 1` degrees of
/// freedom, so the reported [`p_value`](ChiSquare::p_value) is uniform on
/// `(0, 1)` — large values are *expected* for a correct sampler, while a
/// biased sampler drives it to 0.
///
/// # Example
///
/// ```
/// use stats::ChiSquare;
///
/// // A grossly biased sampler is rejected...
/// let biased = ChiSquare::uniform(&[500u64, 100, 100, 100]).unwrap();
/// assert!(biased.p_value() < 1e-6);
/// // ...while balanced counts are not.
/// let fair = ChiSquare::uniform(&[201u64, 199, 195, 205]).unwrap();
/// assert!(fair.p_value() > 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    statistic: f64,
    dof: u64,
    p_value: f64,
}

impl ChiSquare {
    /// Tests observed counts against a uniform expectation.
    ///
    /// # Errors
    ///
    /// Returns [`ChiSquareError::TooFewCategories`] for fewer than two
    /// categories, or [`ChiSquareError::NonPositiveExpected`] if the total
    /// observed count is zero.
    pub fn uniform(observed: &[u64]) -> Result<ChiSquare, ChiSquareError> {
        if observed.len() < 2 {
            return Err(ChiSquareError::TooFewCategories);
        }
        let total: u128 = observed.iter().map(|&c| c as u128).sum();
        if total == 0 {
            return Err(ChiSquareError::NonPositiveExpected { index: 0 });
        }
        let expected = total as f64 / observed.len() as f64;
        let statistic = observed
            .iter()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();
        Ok(ChiSquare::from_statistic(
            statistic,
            observed.len() as u64 - 1,
        ))
    }

    /// Tests observed counts against explicit expected counts.
    ///
    /// `expected` need not be normalized: it is scaled so its sum matches
    /// the observed total (the usual convention for GOF tests against a
    /// model distribution).
    ///
    /// # Errors
    ///
    /// Returns an error when lengths differ, there are fewer than two
    /// categories, or any expected weight is non-positive.
    pub fn against(observed: &[u64], expected: &[f64]) -> Result<ChiSquare, ChiSquareError> {
        if observed.len() != expected.len() {
            return Err(ChiSquareError::LengthMismatch {
                observed: observed.len(),
                expected: expected.len(),
            });
        }
        if observed.len() < 2 {
            return Err(ChiSquareError::TooFewCategories);
        }
        if let Some(index) = expected.iter().position(|&e| e <= 0.0 || e.is_nan()) {
            return Err(ChiSquareError::NonPositiveExpected { index });
        }
        let obs_total: f64 = observed.iter().map(|&c| c as f64).sum();
        let exp_total: f64 = expected.iter().sum();
        let scale = obs_total / exp_total;
        let statistic = observed
            .iter()
            .zip(expected)
            .map(|(&o, &e)| {
                let e = e * scale;
                let d = o as f64 - e;
                d * d / e
            })
            .sum();
        Ok(ChiSquare::from_statistic(
            statistic,
            observed.len() as u64 - 1,
        ))
    }

    /// Wraps a precomputed statistic with the given degrees of freedom.
    ///
    /// # Panics
    ///
    /// Panics if `dof == 0` or the statistic is negative/not finite.
    pub fn from_statistic(statistic: f64, dof: u64) -> ChiSquare {
        assert!(
            statistic.is_finite() && statistic >= 0.0,
            "invalid chi-square statistic {statistic}"
        );
        ChiSquare {
            statistic,
            dof,
            p_value: chi_square_sf(statistic, dof),
        }
    }

    /// The Pearson statistic `Σ (Oᵢ − Eᵢ)²/Eᵢ`.
    #[cfg(test)]
    pub(crate) fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Degrees of freedom (`categories − 1`).
    #[cfg(test)]
    pub(crate) fn dof(&self) -> u64 {
        self.dof
    }

    /// Right-tail p-value: probability of a statistic at least this large
    /// under the null hypothesis.
    pub fn p_value(&self) -> f64 {
        self.p_value
    }

    /// Whether the null hypothesis is rejected at significance `alpha`.
    #[cfg(test)]
    pub(crate) fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

impl fmt::Display for ChiSquare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chi2({}) = {:.3}, p = {:.4}",
            self.dof, self.statistic, self.p_value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_uniform_counts_have_zero_statistic() {
        let t = ChiSquare::uniform(&[100, 100, 100, 100]).unwrap();
        assert_eq!(t.statistic(), 0.0);
        assert_eq!(t.dof(), 3);
        assert_eq!(t.p_value(), 1.0);
        assert!(!t.rejects_at(0.05));
    }

    #[test]
    fn known_statistic_value() {
        // Observed [10, 20], expected [15, 15]: χ² = 25/15 + 25/15 = 10/3.
        let t = ChiSquare::uniform(&[10, 20]).unwrap();
        assert!((t.statistic() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.dof(), 1);
    }

    #[test]
    fn strong_bias_rejected() {
        let t = ChiSquare::uniform(&[1000, 10, 10, 10]).unwrap();
        assert!(t.p_value() < 1e-10);
        assert!(t.rejects_at(0.001));
    }

    #[test]
    fn against_matches_uniform_when_flat() {
        let obs = [120u64, 95, 110, 80];
        let a = ChiSquare::uniform(&obs).unwrap();
        let b = ChiSquare::against(&obs, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!((a.statistic() - b.statistic()).abs() < 1e-12);
    }

    #[test]
    fn against_unnormalized_expected_is_scaled() {
        // Model 2:1, observed exactly 2:1 → statistic 0.
        let t = ChiSquare::against(&[200, 100], &[2.0, 1.0]).unwrap();
        assert!(t.statistic().abs() < 1e-12);
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            ChiSquare::uniform(&[5]).unwrap_err(),
            ChiSquareError::TooFewCategories
        );
        assert_eq!(
            ChiSquare::against(&[1, 2], &[1.0]).unwrap_err(),
            ChiSquareError::LengthMismatch {
                observed: 2,
                expected: 1
            }
        );
        assert_eq!(
            ChiSquare::against(&[1, 2], &[1.0, 0.0]).unwrap_err(),
            ChiSquareError::NonPositiveExpected { index: 1 }
        );
        assert!(ChiSquare::uniform(&[0, 0]).is_err());
        // Errors have readable Display forms.
        assert!(ChiSquareError::TooFewCategories.to_string().contains("two"));
    }

    #[test]
    fn display_is_informative() {
        let t = ChiSquare::uniform(&[10, 20]).unwrap();
        let s = t.to_string();
        assert!(s.contains("chi2(1)"));
        assert!(s.contains("p ="));
    }
}
