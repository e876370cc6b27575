use core::fmt;

use crate::{Distance, KeySpace, Point};

/// A set of peer points in clockwise ring order, with idealized DHT queries.
///
/// `SortedRing` is the "god's-eye view" of the DHT: it stores every peer
/// point in sorted order and answers the paper's two primitive operations —
/// `h(x)` ([`SortedRing::successor_of`]) and `next(p)`
/// ([`SortedRing::next_index`]) — directly, with no routing. It backs the
/// oracle DHT used for algorithm-level correctness tests, the theory
/// predicates (Lemmas 1, 2, 4; Theorem 8), and the reference data for Chord
/// integration tests.
///
/// Peers are identified by their **rank**: index `i` is the `i`-th point in
/// clockwise order starting from the smallest coordinate.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, Point, SortedRing};
///
/// let space = KeySpace::with_modulus(100).unwrap();
/// let ring = SortedRing::new(space, vec![Point::new(70), Point::new(10), Point::new(40)]);
/// assert_eq!(ring.point(0), Point::new(10));
/// assert_eq!(ring.successor_of(Point::new(50)), 2);      // h(50) = peer at 70
/// assert_eq!(ring.successor_of(Point::new(90)), 0);      // wraps to peer at 10
/// assert_eq!(ring.next_index(2), 0);                     // next(peer@70) = peer@10
/// assert_eq!(ring.arc_after(2).get(), 40);               // 70 → 10 wraps: 40
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedRing {
    space: KeySpace,
    points: Vec<Point>,
}

impl SortedRing {
    /// Builds a ring from peer points, sorting and removing duplicates.
    ///
    /// Duplicate coordinates collapse to a single peer, so `len()` may be
    /// smaller than `points.len()`; with i.i.d. uniform placement on the
    /// `2^64` ring, collisions are vanishingly rare.
    pub fn new(space: KeySpace, mut points: Vec<Point>) -> SortedRing {
        debug_assert!(points.iter().all(|&p| space.contains_point(p)));
        points.sort_unstable();
        points.dedup();
        SortedRing { space, points }
    }

    /// Builds a ring from points already in ascending order, skipping the
    /// O(n log n) sort — the constructor for index-backed membership views
    /// that maintain ring order incrementally. Consecutive duplicates
    /// (co-located peers) still collapse to one peer.
    ///
    /// # Panics
    ///
    /// Debug-panics if `points` is not sorted.
    pub fn from_sorted(space: KeySpace, mut points: Vec<Point>) -> SortedRing {
        debug_assert!(points.iter().all(|&p| space.contains_point(p)));
        debug_assert!(
            points.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted requires ascending points"
        );
        points.dedup();
        SortedRing { space, points }
    }

    /// The key space this ring lives on.
    pub const fn space(&self) -> KeySpace {
        self.space
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no peers.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The peer point at clockwise rank `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn point(&self, index: usize) -> Point {
        self.points[index]
    }

    /// All peer points in clockwise order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The rank of an exact peer point, if present.
    pub fn index_of(&self, point: Point) -> Option<usize> {
        self.points.binary_search(&point).ok()
    }

    /// `h(x)`: the rank of the peer whose point is closest **clockwise** of
    /// `x` (inclusive: if `x` is itself a peer point, that peer is returned).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn successor_of(&self, x: Point) -> usize {
        assert!(!self.points.is_empty(), "successor_of on empty ring");
        match self.points.binary_search(&x) {
            Ok(i) => i,
            Err(i) => {
                if i == self.points.len() {
                    0
                } else {
                    i
                }
            }
        }
    }

    /// The rank of the peer strictly clockwise of peer `index` — the paper's
    /// `next(p)`. Wraps around the ring.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn next_index(&self, index: usize) -> usize {
        assert!(index < self.points.len());
        if index + 1 == self.points.len() {
            0
        } else {
            index + 1
        }
    }

    /// The rank of the peer strictly counter-clockwise of peer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn prev_index(&self, index: usize) -> usize {
        assert!(index < self.points.len());
        if index == 0 {
            self.points.len() - 1
        } else {
            index - 1
        }
    }

    /// Arc length from peer `index` clockwise to its successor:
    /// `d(l(p), l(next(p)))`. This is the arc the naive heuristic implicitly
    /// assigns to `next(p)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`. For a single-peer ring the arc is 0
    /// (the "full circle" is not representable; callers treating a singleton
    /// ring should special-case it).
    pub fn arc_after(&self, index: usize) -> Distance {
        let next = self.next_index(index);
        self.space.distance(self.points[index], self.points[next])
    }

    /// Arc length from the predecessor of peer `index` clockwise to it.
    ///
    /// This is the arc that makes the naive heuristic `h(s)` biased: peer
    /// `p` is selected with probability proportional to `arc_before(p)`.
    pub fn arc_before(&self, index: usize) -> Distance {
        let prev = self.prev_index(index);
        self.space.distance(self.points[prev], self.points[index])
    }

    /// Iterator over all `arc_after` lengths in rank order.
    ///
    /// For `len() ≥ 2` the arcs partition the circle: they sum to `M`.
    pub fn arcs(&self) -> ArcLengths<'_> {
        ArcLengths {
            ring: self,
            index: 0,
        }
    }

    /// The shortest peer-to-peer arc (Theorem 8 studies its scaling).
    ///
    /// Returns `None` when the ring has fewer than 2 peers.
    pub fn min_arc(&self) -> Option<Distance> {
        if self.points.len() < 2 {
            return None;
        }
        self.arcs().min()
    }

    /// The longest peer-to-peer arc (w.h.p. `Θ(log n / n)` of the circle).
    ///
    /// Returns `None` when the ring has fewer than 2 peers.
    pub fn max_arc(&self) -> Option<Distance> {
        if self.points.len() < 2 {
            return None;
        }
        self.arcs().max()
    }
}

impl fmt::Display for SortedRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SortedRing({} peers on {})",
            self.points.len(),
            self.space
        )
    }
}

/// Iterator over consecutive arc lengths of a [`SortedRing`], produced by
/// [`SortedRing::arcs`].
#[derive(Debug, Clone)]
pub struct ArcLengths<'a> {
    ring: &'a SortedRing,
    index: usize,
}

impl Iterator for ArcLengths<'_> {
    type Item = Distance;

    fn next(&mut self) -> Option<Distance> {
        if self.index >= self.ring.len() {
            return None;
        }
        let arc = self.ring.arc_after(self.index);
        self.index += 1;
        Some(arc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.ring.len() - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ArcLengths<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn space() -> KeySpace {
        KeySpace::with_modulus(100).unwrap()
    }

    fn ring() -> SortedRing {
        SortedRing::new(
            space(),
            vec![
                Point::new(70),
                Point::new(10),
                Point::new(40),
                Point::new(95),
            ],
        )
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let r = SortedRing::new(
            space(),
            vec![Point::new(40), Point::new(10), Point::new(40)],
        );
        assert_eq!(r.points(), &[Point::new(10), Point::new(40)]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn from_sorted_matches_new() {
        let pts = vec![
            Point::new(10),
            Point::new(40),
            Point::new(40),
            Point::new(95),
        ];
        let sorted = SortedRing::from_sorted(space(), pts.clone());
        assert_eq!(sorted, SortedRing::new(space(), pts));
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn successor_of_basic_and_wrapping() {
        let r = ring();
        assert_eq!(r.successor_of(Point::new(0)), 0); // → 10
        assert_eq!(r.successor_of(Point::new(10)), 0); // exact hit
        assert_eq!(r.successor_of(Point::new(11)), 1); // → 40
        assert_eq!(r.successor_of(Point::new(71)), 3); // → 95
        assert_eq!(r.successor_of(Point::new(96)), 0); // wraps → 10
    }

    #[test]
    fn successor_minimizes_clockwise_distance() {
        let s = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let r = SortedRing::new(s, s.random_points(&mut rng, 64));
        for _ in 0..256 {
            let x = s.random_point(&mut rng);
            let h = r.point(r.successor_of(x));
            let dh = s.distance(x, h);
            for &p in r.points() {
                assert!(dh <= s.distance(x, p), "h(x) not closest clockwise");
            }
        }
    }

    #[test]
    fn next_and_prev_are_inverses_and_wrap() {
        let r = ring();
        for i in 0..r.len() {
            assert_eq!(r.prev_index(r.next_index(i)), i);
            assert_eq!(r.next_index(r.prev_index(i)), i);
        }
        assert_eq!(r.next_index(3), 0);
        assert_eq!(r.prev_index(0), 3);
    }

    #[test]
    fn arcs_partition_the_circle() {
        let r = ring();
        let total: u128 = r.arcs().map(Distance::to_u128).sum();
        assert_eq!(total, 100);
        assert_eq!(r.arcs().len(), 4);
    }

    #[test]
    fn arc_before_and_after_agree() {
        let r = ring();
        for i in 0..r.len() {
            assert_eq!(r.arc_after(i), r.arc_before(r.next_index(i)));
        }
    }

    #[test]
    fn min_max_arcs() {
        let r = ring(); // arcs: 10→40:30, 40→70:30, 70→95:25, 95→10:15
        assert_eq!(r.min_arc().unwrap().get(), 15);
        assert_eq!(r.max_arc().unwrap().get(), 30);
    }

    #[test]
    fn min_arc_none_for_tiny_rings() {
        let r = SortedRing::new(space(), vec![Point::new(5)]);
        assert!(r.min_arc().is_none());
        assert!(r.max_arc().is_none());
        let empty = SortedRing::new(space(), vec![]);
        assert!(empty.min_arc().is_none());
    }

    #[test]
    fn index_of_finds_exact_points_only() {
        let r = ring();
        assert_eq!(r.index_of(Point::new(40)), Some(1));
        assert_eq!(r.index_of(Point::new(41)), None);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn successor_of_empty_panics() {
        let empty = SortedRing::new(space(), vec![]);
        let _ = empty.successor_of(Point::new(1));
    }

    #[test]
    fn display_mentions_peer_count() {
        assert_eq!(ring().to_string(), "SortedRing(4 peers on Z_100)");
    }
}
