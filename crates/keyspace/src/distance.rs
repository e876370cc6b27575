use core::fmt;

/// A clockwise arc length on the key-space circle.
///
/// `Distance` is the discrete analogue of the paper's `d(x, y)` — the length
/// of the clockwise arc from `x` to `y`. It is always smaller than the
/// modulus `M` of the [`KeySpace`](crate::KeySpace) that produced it, so a
/// full turn of the circle is *not* representable: `d(x, x) = 0`.
///
/// Distances of a single space are totally ordered and can be summed; sums
/// may exceed `M` (e.g. when accumulating consecutive arcs), so
/// [`Distance::to_u128`] is provided for overflow-free aggregation.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, Point};
///
/// let space = KeySpace::with_modulus(100).unwrap();
/// let d = space.distance(Point::new(90), Point::new(30));
/// assert_eq!(d.get(), 40);
/// assert_eq!(space.fraction(d), 0.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Distance(u64);

impl Distance {
    /// The zero arc length.
    pub const ZERO: Distance = Distance(0);

    /// Creates a distance from a raw arc length.
    ///
    /// The value must be smaller than the modulus of every
    /// [`KeySpace`](crate::KeySpace) it is used with.
    pub const fn new(length: u64) -> Distance {
        Distance(length)
    }

    /// Returns the raw arc length.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the arc length widened to `u128`, for overflow-free sums.
    pub const fn to_u128(self) -> u128 {
        self.0 as u128
    }

    /// Returns whether this is the empty arc.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Distance {
    fn from(length: u64) -> Distance {
        Distance(length)
    }
}

impl From<Distance> for u64 {
    fn from(distance: Distance) -> u64 {
        distance.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let d = Distance::new(9);
        assert_eq!(d.get(), 9);
        assert_eq!(u64::from(d), 9);
        assert_eq!(Distance::from(9u64), d);
        assert_eq!(d.to_u128(), 9u128);
    }

    #[test]
    fn zero_checks() {
        assert!(Distance::ZERO.is_zero());
        assert!(!Distance::new(1).is_zero());
        assert_eq!(Distance::default(), Distance::ZERO);
    }

    #[test]
    fn ordering_is_length_order() {
        assert!(Distance::new(1) < Distance::new(2));
    }
}
