//! Gamma-family special functions.
//!
//! The chi-square survival function needed for goodness-of-fit p-values is
//! `Q(k/2, x/2)` where `Q` is the regularized **upper** incomplete gamma
//! function. This module implements the textbook pair of algorithms
//! (series expansion for small `x`, Lentz continued fraction for large `x`;
//! see *Numerical Recipes* §6.2) on top of a Lanczos log-gamma.
//!
//! Accuracy is ~1e-12 relative over the ranges used by the test suite, which
//! is far tighter than any statistical decision made with it.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with `g = 7`, 9 coefficients (double
/// precision). Relative error is below `1e-13` for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0` or `x` is not finite.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// `P(a, 0) = 0` and `P(a, ∞) = 1`; `P` is the CDF of the Gamma(a, 1)
/// distribution.
///
/// # Panics
///
/// Panics if `a <= 0`, `x < 0`, or either argument is not finite.
#[cfg(test)]
pub(crate) fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    check_incomplete_args(a, x);
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        lower_series(a, x)
    } else {
        1.0 - upper_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0`, `x < 0`, or either argument is not finite.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    check_incomplete_args(a, x);
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - lower_series(a, x)
    } else {
        upper_continued_fraction(a, x)
    }
}

/// Survival function of the chi-square distribution with `dof` degrees of
/// freedom: `Pr[X ≥ x] = Q(dof/2, x/2)`.
///
/// This is the p-value of a chi-square statistic.
///
/// # Panics
///
/// Panics if `dof == 0`, `x < 0`, or `x` is not finite.
pub fn chi_square_sf(x: f64, dof: u64) -> f64 {
    assert!(dof > 0, "chi-square needs at least 1 degree of freedom");
    reg_upper_gamma(dof as f64 / 2.0, x / 2.0)
}

fn check_incomplete_args(a: f64, x: f64) {
    assert!(
        a.is_finite() && a > 0.0,
        "incomplete gamma requires a > 0, got {a}"
    );
    assert!(
        x.is_finite() && x >= 0.0,
        "incomplete gamma requires x >= 0, got {x}"
    );
}

/// Series representation of `P(a, x)`, converging fast for `x < a + 1`.
fn lower_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut denom = a;
    for _ in 0..MAX_ITER {
        denom += 1.0;
        term *= x / denom;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp().min(1.0)
}

/// Modified Lentz continued fraction for `Q(a, x)`, for `x ≥ a + 1`.
fn upper_continued_fraction(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (h.ln() + a * x.ln() - x - ln_gamma(a))
        .exp()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(k) = (k−1)!
        let mut fact = 1.0f64;
        for k in 1..15u32 {
            assert!(close(ln_gamma(k as f64), fact.ln(), 1e-12), "ln_gamma({k})");
            fact *= k as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12));
        assert!(close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_boundaries() {
        assert_eq!(reg_lower_gamma(2.5, 0.0), 0.0);
        assert_eq!(reg_upper_gamma(2.5, 0.0), 1.0);
        assert!(reg_lower_gamma(2.5, 1e6) > 1.0 - 1e-12);
        assert!(reg_upper_gamma(2.5, 1e6) < 1e-12);
    }

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.1, 0.9, 1.0, 2.0, 5.0, 20.0, 80.0] {
                let p = reg_lower_gamma(a, x);
                let q = reg_upper_gamma(a, x);
                assert!(close(p + q, 1.0, 1e-12), "a={a} x={x}: p+q={}", p + q);
            }
        }
    }

    #[test]
    fn exponential_special_case() {
        // For a = 1, P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!(close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12));
        }
    }

    #[test]
    fn chi_square_sf_known_values() {
        // Classic table: χ²(1 dof) at 3.841 ≈ 0.05; χ²(10) at 18.307 ≈ 0.05.
        assert!((chi_square_sf(3.841, 1) - 0.05).abs() < 5e-4);
        assert!((chi_square_sf(18.307, 10) - 0.05).abs() < 5e-4);
        // χ²(2) is exponential(1/2): SF(x) = e^{−x/2}.
        for &x in &[0.5, 2.0, 7.0] {
            assert!(close(chi_square_sf(x, 2), (-x / 2.0).exp(), 1e-12));
        }
    }

    #[test]
    fn chi_square_sf_monotone_in_x() {
        let mut prev = 1.0;
        for i in 0..200 {
            let x = i as f64 * 0.5;
            let sf = chi_square_sf(x, 7);
            assert!(sf <= prev + 1e-14, "SF must be non-increasing");
            prev = sf;
        }
    }

    #[test]
    fn gamma_cdf_median_sanity() {
        // Median of Gamma(a, 1) is ≈ a − 1/3 for large a; P at the median ≈ 0.5.
        let a = 30.0;
        let p = reg_lower_gamma(a, a - 1.0 / 3.0);
        assert!((p - 0.5).abs() < 0.01, "P(a, a - 1/3) = {p}");
    }
}
