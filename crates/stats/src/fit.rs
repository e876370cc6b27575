//! Least-squares curve fitting for scaling-law verification.
//!
//! The paper's asymptotic claims become slope checks after a transform:
//!
//! * Theorem 8 (`min arc = Θ(1/n²)`) — a log–log fit of min-arc vs `n`
//!   should have slope ≈ −2 ([`log_log_fit`]).
//! * Theorem 7 (`messages = O(log n)`) — a log-linear fit of mean messages
//!   vs `n` should be an excellent linear fit ([`log_linear_fit`]), while a
//!   fit against `n` itself should be poor.

use core::fmt;

/// Result of an ordinary least-squares line fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R² ∈ [0, 1]` (1 = perfect line).
    pub r_squared: f64,
}

impl LineFit {
    /// Predicted `y` at `x`.
    #[cfg(test)]
    pub(crate) fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

impl fmt::Display for LineFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.4}x + {:.4} (R^2 = {:.4})",
            self.slope, self.intercept, self.r_squared
        )
    }
}

/// Ordinary least-squares fit of `y` on `x`.
///
/// # Panics
///
/// Panics if the slices differ in length, have fewer than two points, or
/// all `x` values coincide (the slope is undefined).
pub fn linear_fit(x: &[f64], y: &[f64]) -> LineFit {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    assert!(x.len() >= 2, "need at least two points to fit a line");
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "all x values identical; slope undefined");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0 // constant y is fit perfectly by a horizontal line
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LineFit {
        slope,
        intercept,
        r_squared,
    }
}

/// Fits `ln y = slope · ln x + c`, i.e. a power law `y ∝ x^slope`.
///
/// # Panics
///
/// Panics under the same conditions as [`linear_fit`], or if any value is
/// non-positive (logarithm undefined).
pub fn log_log_fit(x: &[f64], y: &[f64]) -> LineFit {
    let lx: Vec<f64> = x.iter().map(|&v| positive_ln(v, "x")).collect();
    let ly: Vec<f64> = y.iter().map(|&v| positive_ln(v, "y")).collect();
    linear_fit(&lx, &ly)
}

/// Fits `y = slope · ln x + c`, i.e. logarithmic growth `y ∝ log x`.
///
/// # Panics
///
/// Panics under the same conditions as [`linear_fit`], or if any `x` is
/// non-positive.
pub fn log_linear_fit(x: &[f64], y: &[f64]) -> LineFit {
    let lx: Vec<f64> = x.iter().map(|&v| positive_ln(v, "x")).collect();
    linear_fit(&lx, y)
}

fn positive_ln(v: f64, axis: &str) -> f64 {
    assert!(v > 0.0, "log fit requires positive {axis} values, got {v}");
    v.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v - 1.0).collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(10.0) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_reasonable() {
        let x: Vec<f64> = (1..50).map(f64::from).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * v + 5.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 2.0).abs() < 0.01);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn power_law_slope_recovered() {
        // y = 7 / n² → log-log slope −2.
        let x: Vec<f64> = (1..=10).map(|k| (1 << k) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 7.0 / (v * v)).collect();
        let fit = log_log_fit(&x, &y);
        assert!((fit.slope + 2.0).abs() < 1e-10);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn logarithmic_growth_recovered() {
        // y = 3 ln n + 2.
        let x: Vec<f64> = (1..=12).map(|k| (1u64 << k) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v.ln() + 2.0).collect();
        let fit = log_linear_fit(&x, &y);
        assert!((fit.slope - 3.0).abs() < 1e-10);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn constant_y_has_perfect_r2() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn one_point_panics() {
        let _ = linear_fit(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn vertical_line_panics() {
        let _ = linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "positive x")]
    fn log_fit_rejects_nonpositive() {
        let _ = log_log_fit(&[0.0, 1.0], &[1.0, 2.0]);
    }

    #[test]
    fn display_mentions_r2() {
        let fit = linear_fit(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(fit.to_string().contains("R^2"));
    }
}
