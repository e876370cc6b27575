//! Confidence intervals for binomial proportions.
//!
//! Used to report per-trial success rates (Theorem 7 argues the per-trial
//! acceptance probability is `Ω(1)`) and failure rates under churn (E11)
//! with honest uncertainty.

use core::fmt;

/// A two-sided confidence interval for a binomial proportion, computed with
/// the Wilson score method (well-behaved even for extreme proportions and
/// small samples, unlike the normal approximation).
///
/// # Example
///
/// ```
/// use stats::proportion::wilson;
///
/// let ci = wilson(480, 1000, 0.95);
/// assert!(ci.contains(0.48));
/// assert!(ci.low() > 0.44 && ci.high() < 0.52);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionCi {
    point: f64,
    low: f64,
    high: f64,
    confidence: f64,
}

impl ProportionCi {
    /// The point estimate `successes / trials`.
    #[cfg(test)]
    pub(crate) fn point(&self) -> f64 {
        self.point
    }

    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// The confidence level the interval was built for.
    #[cfg(test)]
    pub(crate) fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Whether `p` lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        (self.low..=self.high).contains(&p)
    }
}

impl fmt::Display for ProportionCi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] @ {:.0}%",
            self.point,
            self.low,
            self.high,
            self.confidence * 100.0
        )
    }
}

/// Wilson score interval for `successes` out of `trials`.
///
/// # Panics
///
/// Panics if `trials == 0`, `successes > trials`, or `confidence` is not in
/// `(0, 1)`.
pub fn wilson(successes: u64, trials: u64, confidence: f64) -> ProportionCi {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "successes exceed trials");
    assert!(
        (0.0..1.0).contains(&confidence) && confidence > 0.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    let z = standard_normal_quantile(0.5 + confidence / 2.0);
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ProportionCi {
        point: p,
        low: (center - half).max(0.0),
        high: (center + half).min(1.0),
        confidence,
    }
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's rational approximation; absolute error below `1.2e-9`, ample for
/// interval construction.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires 0 < p < 1, got {p}");
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let tail = |q: f64| -> f64 {
        let r = (-2.0 * q.ln()).sqrt();
        (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
    };

    if p < P_LOW {
        tail(p)
    } else if p > 1.0 - P_LOW {
        -tail(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((standard_normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
        assert!((standard_normal_quantile(0.8413) - 1.0).abs() < 1e-3);
        assert!((standard_normal_quantile(0.999) - 3.090_232).abs() < 1e-5);
    }

    #[test]
    fn quantile_is_odd_around_half() {
        for &p in &[0.01, 0.1, 0.3, 0.49] {
            let a = standard_normal_quantile(p);
            let b = standard_normal_quantile(1.0 - p);
            assert!((a + b).abs() < 1e-9, "asymmetry at {p}");
        }
    }

    #[test]
    fn wilson_covers_true_proportion() {
        let ci = wilson(500, 1000, 0.95);
        assert!(ci.contains(0.5));
        assert!((ci.point() - 0.5).abs() < 1e-12);
        assert!(ci.low() > 0.46 && ci.high() < 0.54);
        assert_eq!(ci.confidence(), 0.95);
    }

    #[test]
    fn wilson_extremes_stay_in_unit_interval() {
        let zero = wilson(0, 20, 0.95);
        assert_eq!(zero.point(), 0.0);
        assert_eq!(zero.low(), 0.0);
        assert!(zero.high() > 0.0 && zero.high() < 0.3);
        let all = wilson(20, 20, 0.95);
        assert_eq!(all.high(), 1.0);
        assert!(all.low() > 0.7);
    }

    #[test]
    fn wider_confidence_gives_wider_interval() {
        let narrow = wilson(50, 100, 0.8);
        let wide = wilson(50, 100, 0.99);
        assert!(wide.high() - wide.low() > narrow.high() - narrow.low());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = wilson(0, 0, 0.95);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn successes_exceeding_trials_panics() {
        let _ = wilson(5, 4, 0.95);
    }

    #[test]
    fn display_shows_interval() {
        let ci = wilson(1, 2, 0.95);
        assert!(ci.to_string().contains('['));
    }
}
