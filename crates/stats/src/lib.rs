//! Statistical verification toolkit for the `random-peer` reproduction.
//!
//! The claims in King & Saia's paper are distributional ("each peer is chosen
//! with probability exactly `1/n`", "the minimum arc is `Θ(1/n²)`", "expected
//! messages are `O(log n)`"). This crate provides the machinery the
//! experiment harness uses to check them:
//!
//! * [`ChiSquare`] — Pearson goodness-of-fit test against a uniform (or any
//!   discrete) distribution, with p-values computed from the regularized
//!   incomplete gamma function ([`gamma`]).
//! * [`divergence`] — total-variation distance and min/max probability
//!   ratios between empirical and reference distributions.
//! * [`Summary`] / [`Welford`] — streaming and batch descriptive statistics
//!   with percentiles and standard errors.
//! * [`fit`] — least-squares fits, in particular log–log slope estimation
//!   used to check `Θ(1/n²)` / `Θ(log n)` scaling claims.
//! * [`proportion`] — Wilson confidence intervals for success rates.
//!
//! Everything is `f64`-based, allocation-light and dependency-free, so it
//! can be reused from tests, benches and binaries alike.
//!
//! # Example: is a die fair?
//!
//! ```
//! use stats::ChiSquare;
//!
//! let observed = [98u64, 103, 100, 96, 102, 101];
//! let test = ChiSquare::uniform(&observed).unwrap();
//! assert!(test.p_value() > 0.05, "a fair die should not be rejected");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chisquare;
mod describe;
pub mod divergence;
pub mod entropy;
pub mod fit;
pub mod gamma;
mod histogram;
pub mod proportion;

pub use chisquare::{ChiSquare, ChiSquareError};
pub use describe::{Summary, Welford};
pub use histogram::{Exemplar, LogHistogram};
