use core::fmt;

use crate::Point;

/// A half-open clockwise arc `(start, end]` on the key-space circle.
///
/// This mirrors the paper's interval notation `I(a, b)` — "the interval
/// `(a, b]` on the unit circle from point `a` clockwise to point `b`". The
/// degenerate interval with `start == end` is **empty** (length 0), not the
/// full circle; see [`KeySpace::length`](crate::KeySpace::length).
///
/// `Interval` stores only its endpoints; length and membership queries need
/// the modulus and therefore live on [`KeySpace`](crate::KeySpace).
///
/// # Example
///
/// ```
/// use keyspace::{Interval, KeySpace, Point};
///
/// let space = KeySpace::with_modulus(100).unwrap();
/// let i = Interval::new(Point::new(90), Point::new(10));
/// assert_eq!(space.length(i).get(), 20);
/// assert!(space.interval_contains(i, Point::new(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Interval {
    start: Point,
    end: Point,
}

impl Interval {
    /// Creates the interval `(start, end]`.
    pub const fn new(start: Point, end: Point) -> Interval {
        Interval { start, end }
    }

    /// The open (excluded) counter-clockwise endpoint `a` of `(a, b]`.
    pub const fn start(self) -> Point {
        self.start
    }

    /// The closed (included) clockwise endpoint `b` of `(a, b]`.
    pub const fn end(self) -> Point {
        self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let i = Interval::new(Point::new(3), Point::new(9));
        assert_eq!(i.start(), Point::new(3));
        assert_eq!(i.end(), Point::new(9));
    }

    #[test]
    fn display_uses_half_open_notation() {
        assert_eq!(
            Interval::new(Point::new(1), Point::new(2)).to_string(),
            "(1, 2]"
        );
    }
}
