//! The likelihood-ratio (G) test.
//!
//! A second, independent statistical lens on uniformity: the G-test is
//! twice the sample size times the KL divergence of the observed
//! frequencies from uniform, the likelihood-ratio counterpart of
//! Pearson's chi-square (asymptotically equivalent, differently
//! sensitive at finite samples). The calibration tests check that it
//! tracks the chi-square test under the null.

use crate::gamma::chi_square_sf;

/// The likelihood-ratio goodness-of-fit test (`G-test`) against a uniform
/// expectation: `G = 2 Σ Oᵢ ln(Oᵢ/Eᵢ)`, asymptotically `χ²(n−1)`.
///
/// # Example
///
/// ```
/// use stats::entropy::GTest;
///
/// let biased = GTest::uniform(&[500u64, 100, 100, 100]).unwrap();
/// assert!(biased.p_value() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GTest {
    statistic: f64,
    dof: u64,
    p_value: f64,
}

impl GTest {
    /// Runs the test against the uniform expectation.
    ///
    /// Returns `None` for fewer than two categories or a zero total.
    pub fn uniform(observed: &[u64]) -> Option<GTest> {
        if observed.len() < 2 {
            return None;
        }
        let total: u128 = observed.iter().map(|&c| c as u128).sum();
        if total == 0 {
            return None;
        }
        let expected = total as f64 / observed.len() as f64;
        let statistic = 2.0
            * observed
                .iter()
                .filter(|&&o| o > 0)
                .map(|&o| o as f64 * (o as f64 / expected).ln())
                .sum::<f64>();
        let statistic = statistic.max(0.0);
        let dof = observed.len() as u64 - 1;
        Some(GTest {
            statistic,
            dof,
            p_value: chi_square_sf(statistic, dof),
        })
    }

    /// The G statistic.
    #[cfg(test)]
    pub(crate) fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Degrees of freedom.
    #[cfg(test)]
    pub(crate) fn dof(&self) -> u64 {
        self.dof
    }

    /// Right-tail p-value under the `χ²(dof)` asymptotics.
    pub fn p_value(&self) -> f64 {
        self.p_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_test_agrees_with_chi_square_in_regime() {
        // Mild deviation, large counts: G and χ² should nearly coincide.
        let counts = [1020u64, 980, 1010, 990];
        let g = GTest::uniform(&counts).unwrap();
        let chi = crate::ChiSquare::uniform(&counts).unwrap();
        assert!((g.statistic() - chi.statistic()).abs() < 0.05);
        assert!((g.p_value() - chi.p_value()).abs() < 0.01);
        assert_eq!(g.dof(), 3);
    }

    #[test]
    fn g_test_rejects_bias() {
        let g = GTest::uniform(&[1000u64, 10, 10, 10]).unwrap();
        assert!(g.p_value() < 1e-10);
    }

    #[test]
    fn g_test_accepts_uniform() {
        let g = GTest::uniform(&[100u64, 100, 100, 100]).unwrap();
        assert_eq!(g.statistic(), 0.0);
        assert_eq!(g.p_value(), 1.0);
    }

    #[test]
    fn g_test_degenerate_inputs() {
        assert!(GTest::uniform(&[5]).is_none());
        assert!(GTest::uniform(&[0, 0]).is_none());
        // Empty categories are fine (contribute 0).
        assert!(GTest::uniform(&[10, 0]).is_some());
    }
}
