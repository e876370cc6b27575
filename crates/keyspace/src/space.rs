use core::fmt;

use rand::Rng;

use crate::{Distance, Interval, Point};

/// The modulus of [`KeySpace::full`]: `2^64`, matching a 64-bit identifier
/// ring (Chord-style key space truncated to one machine word).
const FULL_MODULUS: u128 = 1 << 64;

/// Error returned when constructing a [`KeySpace`] with an invalid modulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpaceError {
    modulus: u128,
}

impl fmt::Display for KeySpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "key-space modulus must be in [2, 2^64], got {}",
            self.modulus
        )
    }
}

impl std::error::Error for KeySpaceError {}

/// A discrete key-space circle `ℤ_M`.
///
/// This is the discrete analogue of the paper's unit circle with unit
/// circumference: `M` equally spaced points, clockwise direction of
/// increasing coordinate, wrap-around at `M`. The default modulus
/// ([`KeySpace::full`]) is `2^64`; small moduli are supported so tests can
/// *exhaustively enumerate* the circle (used to verify Theorem 6's exact
/// uniformity point-by-point).
///
/// `KeySpace` is a tiny `Copy` value — pass it around freely.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, Point};
///
/// let space = KeySpace::with_modulus(360).unwrap();
/// let noon = Point::new(0);
/// let three = Point::new(90);
/// assert_eq!(space.distance(noon, three).get(), 90);
/// assert_eq!(space.distance(three, noon).get(), 270); // clockwise, so the long way
/// assert_eq!(space.fraction(space.distance(noon, three)), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct KeySpace {
    modulus: u128,
}

impl KeySpace {
    /// The full 64-bit ring, `M = 2^64`.
    pub const fn full() -> KeySpace {
        KeySpace {
            modulus: FULL_MODULUS,
        }
    }

    /// A ring with the given modulus.
    ///
    /// # Errors
    ///
    /// Returns [`KeySpaceError`] unless `2 ≤ modulus ≤ 2^64`.
    pub const fn with_modulus(modulus: u128) -> Result<KeySpace, KeySpaceError> {
        if modulus < 2 || modulus > FULL_MODULUS {
            Err(KeySpaceError { modulus })
        } else {
            Ok(KeySpace { modulus })
        }
    }

    /// The ring modulus `M` (number of distinct points).
    pub const fn modulus(&self) -> u128 {
        self.modulus
    }

    /// Whether `point` is a valid coordinate on this ring.
    pub const fn contains_point(&self, point: Point) -> bool {
        (point.get() as u128) < self.modulus
    }

    /// Whether `distance` is a representable arc on this ring (`< M`).
    pub const fn contains_distance(&self, distance: Distance) -> bool {
        (distance.get() as u128) < self.modulus
    }

    /// Clockwise distance `d(from, to)`: the paper's
    /// `d(x, y) = y − x` if `y ≥ x`, else `(1 − x) + y`, scaled by `M`.
    ///
    /// `d(x, x) = 0`; a full turn is not representable.
    pub fn distance(&self, from: Point, to: Point) -> Distance {
        self.debug_check(from);
        self.debug_check(to);
        let from = from.get() as u128;
        let to = to.get() as u128;
        let d = if to >= from {
            to - from
        } else {
            self.modulus - from + to
        };
        Distance::new(d as u64)
    }

    /// The point `distance` clockwise of `point`.
    pub fn add(&self, point: Point, distance: Distance) -> Point {
        self.debug_check(point);
        debug_assert!(self.contains_distance(distance));
        let sum = (point.get() as u128 + distance.get() as u128) % self.modulus;
        Point::new(sum as u64)
    }

    /// The point `distance` counter-clockwise of `point`.
    pub fn sub(&self, point: Point, distance: Distance) -> Point {
        self.debug_check(point);
        debug_assert!(self.contains_distance(distance));
        let p = point.get() as u128;
        let d = distance.get() as u128;
        let res = if p >= d {
            p - d
        } else {
            self.modulus - (d - p)
        };
        Point::new(res as u64)
    }

    /// The half-open clockwise interval `(start, end]`, the paper's
    /// `I(start, end)`.
    pub fn interval(&self, start: Point, end: Point) -> Interval {
        self.debug_check(start);
        self.debug_check(end);
        Interval::new(start, end)
    }

    /// Length of an interval `(a, b]`, i.e. `d(a, b)`.
    ///
    /// Note `|I(x, x)| = 0`: on this ring the degenerate interval is empty,
    /// not the full circle.
    pub fn length(&self, interval: Interval) -> Distance {
        self.distance(interval.start(), interval.end())
    }

    /// Whether `x ∈ (a, b]`.
    ///
    /// `x` is in the interval iff walking clockwise from `a`, one meets `x`
    /// after `a` itself and no later than `b`.
    pub fn interval_contains(&self, interval: Interval, x: Point) -> bool {
        let dx = self.distance(interval.start(), x);
        let db = self.length(interval);
        !dx.is_zero() && dx <= db
    }

    /// A point drawn uniformly at random from the ring.
    ///
    /// Matches the paper's "random number in `(0, 1]`": every one of the `M`
    /// coordinates is equally likely. (On a discrete ring, `[0, M)` and
    /// `(0, M]` are the same set.)
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let raw = if self.modulus == FULL_MODULUS {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0..self.modulus as u64)
        };
        Point::new(raw)
    }

    /// `count` points drawn independently and uniformly at random.
    ///
    /// This is the paper's peer-placement model: peer points are i.i.d.
    /// uniform (the random-oracle assumption on the base hash function).
    /// Duplicate coordinates are possible on small rings and are retained;
    /// [`SortedRing::new`](crate::SortedRing::new) deduplicates.
    pub fn random_points<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Point> {
        (0..count).map(|_| self.random_point(rng)).collect()
    }

    /// `count` *distinct* points drawn uniformly at random.
    ///
    /// Retries on collision, which keeps the marginal distribution of the
    /// resulting set identical to conditioning i.i.d. placement on
    /// distinctness.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the modulus (no such set exists).
    pub fn random_distinct_points<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Point> {
        assert!(
            (count as u128) <= self.modulus,
            "cannot place {count} distinct points on a ring of {} points",
            self.modulus
        );
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let p = self.random_point(rng);
            if seen.insert(p) {
                out.push(p);
            }
        }
        out
    }

    /// The fraction of the circle covered by `distance`, in `[0, 1)`.
    ///
    /// This converts a discrete arc back to the paper's continuous units;
    /// use it for reporting only — never in algorithm decision paths.
    pub fn fraction(&self, distance: Distance) -> f64 {
        distance.get() as f64 / self.modulus as f64
    }

    #[inline]
    fn debug_check(&self, point: Point) {
        debug_assert!(
            self.contains_point(point),
            "point {point} outside ring of modulus {}",
            self.modulus
        );
    }
}

impl Default for KeySpace {
    fn default() -> KeySpace {
        KeySpace::full()
    }
}

impl fmt::Display for KeySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z_{}", self.modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small() -> KeySpace {
        KeySpace::with_modulus(100).unwrap()
    }

    #[test]
    fn modulus_bounds_enforced() {
        assert!(KeySpace::with_modulus(0).is_err());
        assert!(KeySpace::with_modulus(1).is_err());
        assert!(KeySpace::with_modulus(2).is_ok());
        assert!(KeySpace::with_modulus(FULL_MODULUS).is_ok());
        assert!(KeySpace::with_modulus(FULL_MODULUS + 1).is_err());
        let err = KeySpace::with_modulus(1).unwrap_err();
        assert!(err.to_string().contains("modulus"));
    }

    #[test]
    fn full_space_has_pow2_64_modulus() {
        assert_eq!(KeySpace::full().modulus(), 1u128 << 64);
        assert_eq!(KeySpace::default(), KeySpace::full());
    }

    #[test]
    fn distance_matches_paper_definition() {
        let s = small();
        // y >= x: d = y - x
        assert_eq!(s.distance(Point::new(10), Point::new(30)).get(), 20);
        // y < x: d = (M - x) + y
        assert_eq!(s.distance(Point::new(90), Point::new(10)).get(), 20);
        // d(x, x) = 0
        assert_eq!(s.distance(Point::new(5), Point::new(5)).get(), 0);
    }

    #[test]
    fn add_and_sub_are_inverses() {
        let s = small();
        let p = Point::new(93);
        let d = Distance::new(44);
        assert_eq!(s.sub(s.add(p, d), d), p);
        assert_eq!(s.add(s.sub(p, d), d), p);
    }

    #[test]
    fn add_wraps_around() {
        let s = small();
        assert_eq!(s.add(Point::new(95), Distance::new(10)), Point::new(5));
        assert_eq!(s.sub(Point::new(5), Distance::new(10)), Point::new(95));
    }

    #[test]
    fn distance_then_add_recovers_endpoint() {
        let s = small();
        for a in [0u64, 7, 50, 99] {
            for b in [0u64, 7, 50, 99] {
                let (a, b) = (Point::new(a), Point::new(b));
                assert_eq!(s.add(a, s.distance(a, b)), b);
            }
        }
    }

    #[test]
    fn interval_membership_half_open() {
        let s = small();
        let i = s.interval(Point::new(10), Point::new(20));
        assert!(!s.interval_contains(i, Point::new(10))); // open at start
        assert!(s.interval_contains(i, Point::new(11)));
        assert!(s.interval_contains(i, Point::new(20))); // closed at end
        assert!(!s.interval_contains(i, Point::new(21)));
        assert!(!s.interval_contains(i, Point::new(5)));
    }

    #[test]
    fn interval_membership_wrapping() {
        let s = small();
        let i = s.interval(Point::new(90), Point::new(10));
        assert!(s.interval_contains(i, Point::new(95)));
        assert!(s.interval_contains(i, Point::new(0)));
        assert!(s.interval_contains(i, Point::new(10)));
        assert!(!s.interval_contains(i, Point::new(90)));
        assert!(!s.interval_contains(i, Point::new(50)));
    }

    #[test]
    fn degenerate_interval_is_empty() {
        let s = small();
        let i = s.interval(Point::new(42), Point::new(42));
        assert_eq!(s.length(i).get(), 0);
        for x in 0..100 {
            assert!(!s.interval_contains(i, Point::new(x)));
        }
    }

    #[test]
    fn random_points_in_range() {
        let s = small();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(s.contains_point(s.random_point(&mut rng)));
        }
    }

    #[test]
    fn random_distinct_points_are_distinct() {
        let s = small();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pts = s.random_distinct_points(&mut rng, 50);
        let set: std::collections::HashSet<_> = pts.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    #[should_panic(expected = "distinct points")]
    fn too_many_distinct_points_panics() {
        let s = KeySpace::with_modulus(4).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let _ = s.random_distinct_points(&mut rng, 5);
    }

    #[test]
    fn fraction_conversions() {
        let s = small();
        assert_eq!(s.fraction(Distance::new(25)), 0.25);
    }

    #[test]
    fn display_forms() {
        assert_eq!(small().to_string(), "Z_100");
    }

    #[test]
    fn full_space_random_point_covers_high_bits() {
        let s = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let saw_high_bit = (0..64).any(|_| s.random_point(&mut rng).get() > u64::MAX / 2);
        assert!(saw_high_bit);
    }
}
