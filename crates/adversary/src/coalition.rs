//! Coalition-level attack strategies: coordinated placement plus
//! coordinated lies.
//!
//! The per-node [`FaultPlan`] model answers *how one node lies*; a
//! coalition additionally chooses *where its nodes sit* and *which lie
//! each member tells*, coordinated toward one objective. A
//! [`CoalitionStrategy`] compiles — against the honest membership, using
//! `ringidx` range/order queries for the geometry — into a
//! [`CompiledCoalition`]: sybil ring positions to join with, a count of
//! existing nodes to corrupt, and the [`NodeFaults`] behaviour every
//! coalition member runs.
//!
//! The three strategies each lie on a *different* protocol surface (see
//! the threat-model table in this crate's README):
//!
//! * [`SybilArcCapture`](CoalitionStrategy::SybilArcCapture) — sybils
//!   seize the largest honest gap-arcs: each sits at the trailing end of
//!   one of the `budget` longest empty arcs, so its trailing arc *is*
//!   that gap, then forges its self-reported position
//!   (`forge_owned_position`) so the SMALL check accepts every start
//!   point in the gap. Routed lookups that pass through a sybil are
//!   captured outright (`claim_ownership`).
//! * [`AdaptiveArcLiars`](CoalitionStrategy::AdaptiveArcLiars) — no
//!   placement control (the coalition corrupts existing uniformly-placed
//!   nodes); each liar forges only its own position, only for lookups it
//!   genuinely owns. No honest node ever contradicts the ownership claim,
//!   so the lie is invisible to global routing audits; only independent
//!   position evidence (the defense's quorum rule) catches it.
//! * [`EclipseRun`](CoalitionStrategy::EclipseRun) — sybils shadow a run
//!   of consecutive honest victims: each sits immediately
//!   counter-clockwise of its victim (stealing the victim's arc by
//!   *placement*, no lie needed) and eclipses it from `next(p)` answers
//!   (`eclipse_next`), so supplementation scans walk
//!   sybil → sybil → sybil and the victims' assigned measure — which the
//!   uniformity theorem says must reach them through those scans — never
//!   does. The run chosen is the window of maximum ring span, the one
//!   whose victims carry the most stealable measure.

use chord::{ChordNetwork, NodeFaults, NodeId};
use keyspace::{Distance, KeySpace, Point};
use ringidx::RingIndex;

/// A coordinated coalition attack on the uniform sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalitionStrategy {
    /// Seize the `budget` largest honest gap-arcs and forge owned
    /// positions to claim their full measure; capture routed lookups
    /// passing through coalition members.
    SybilArcCapture,
    /// Corrupt existing nodes; each lies only about its own position and
    /// only for lookups landing in its own arc.
    AdaptiveArcLiars,
    /// Shadow a maximal run of consecutive honest victims and eclipse
    /// them from every supplementation scan.
    EclipseRun,
}

impl CoalitionStrategy {
    /// Stable lowercase name used in reports and spec presets.
    pub fn name(self) -> &'static str {
        match self {
            CoalitionStrategy::SybilArcCapture => "sybil-arc-capture",
            CoalitionStrategy::AdaptiveArcLiars => "adaptive-liars",
            CoalitionStrategy::EclipseRun => "eclipse-run",
        }
    }
}

/// A strategy compiled against a concrete honest membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCoalition {
    /// Ring positions the coalition joins with (empty for
    /// corrupt-existing strategies). Distinct from every honest point and
    /// from each other, so overlay construction cannot collapse them.
    pub sybil_points: Vec<Point>,
    /// How many *existing* nodes the coalition corrupts instead of (or in
    /// addition to) placing sybils.
    pub corrupt_existing: usize,
    /// The behaviour every coalition member runs.
    pub behavior: NodeFaults,
}

impl CompiledCoalition {
    /// Total coalition size (sybils + corrupted incumbents).
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        self.sybil_points.len() + self.corrupt_existing
    }
}

/// Compiles `strategy` with `budget` coalition members against the honest
/// membership in `honest`.
///
/// Placement is deterministic — the strongest adversary knows the honest
/// ring exactly and places optimally, so there is nothing to randomize.
/// Corrupt-existing strategies leave victim selection to the caller
/// (which owns the scenario's fault stream).
///
/// # Panics
///
/// Panics when `honest` has fewer than two distinct points (there is no
/// geometry to attack) or `budget` is zero.
pub fn compile_coalition<I: Copy + Ord>(
    strategy: CoalitionStrategy,
    honest: &RingIndex<I>,
    budget: usize,
) -> CompiledCoalition {
    assert!(budget > 0, "a coalition needs at least one member");
    let space = honest.space();
    let mut points = honest.points();
    points.dedup();
    assert!(
        points.len() >= 2,
        "need >= 2 distinct honest points to attack"
    );
    match strategy {
        CoalitionStrategy::SybilArcCapture => CompiledCoalition {
            sybil_points: capture_largest_gaps(space, &points, budget),
            corrupt_existing: 0,
            behavior: NodeFaults {
                claim_ownership: true,
                eclipse_next: false,
                forge_owned_position: true,
            },
        },
        CoalitionStrategy::AdaptiveArcLiars => CompiledCoalition {
            sybil_points: Vec::new(),
            corrupt_existing: budget,
            behavior: NodeFaults {
                claim_ownership: false,
                eclipse_next: false,
                forge_owned_position: true,
            },
        },
        CoalitionStrategy::EclipseRun => CompiledCoalition {
            sybil_points: shadow_max_span_run(space, &points, budget),
            corrupt_existing: 0,
            behavior: NodeFaults {
                claim_ownership: false,
                eclipse_next: true,
                forge_owned_position: false,
            },
        },
    }
}

/// Resolves the arena ids the overlay assigned to the coalition's sybil
/// points (exact point matches in the network's ground-truth ring index).
///
/// # Panics
///
/// Panics if some sybil point is not a live member — the caller must have
/// joined every compiled point before asking.
pub fn sybil_ids(net: &ChordNetwork, sybil_points: &[Point]) -> Vec<NodeId> {
    sybil_points
        .iter()
        .map(|&p| {
            let (point, id) = net
                .ring_index()
                .successor(p)
                .expect("overlay cannot be empty");
            assert_eq!(point, p, "sybil point {p:?} was never joined");
            id
        })
        .collect()
}

/// One sybil at the trailing end of each of the `budget` longest honest
/// gaps: the point immediately counter-clockwise of the honest node that
/// terminates the gap (nudged further if occupied), so the sybil's
/// trailing arc is essentially the whole gap.
fn capture_largest_gaps(space: KeySpace, honest: &[Point], budget: usize) -> Vec<Point> {
    // Gap i runs (honest[i], honest[i+1]); rank by length, longest first,
    // ties broken by gap-end point for determinism.
    let mut gaps: Vec<(Distance, Point)> = (0..honest.len())
        .map(|i| {
            let end = honest[(i + 1) % honest.len()];
            (space.distance(honest[i], end), end)
        })
        .collect();
    gaps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut taken: Vec<Point> = Vec::with_capacity(budget);
    for &(length, end) in gaps.iter().take(budget) {
        // A 1-point gap has no room for a shadow; skip it (the coalition
        // simply fields fewer sybils on absurdly dense rings).
        if length.get() >= 2 {
            taken.push(free_point_before(space, end, honest, &taken));
        }
    }
    taken
}

/// One sybil immediately counter-clockwise of each victim in the
/// `budget`-node run of consecutive honest nodes spanning the most ring
/// measure (the victims with the most supplementation to erase).
fn shadow_max_span_run(space: KeySpace, honest: &[Point], budget: usize) -> Vec<Point> {
    let n = honest.len();
    let w = budget.min(n - 1);
    // The run starting at index j covers victims honest[j..j+w]; its arc
    // mass is the span from the run's predecessor to its last victim.
    let (mut best_span, mut best_j) = (Distance::ZERO, 0);
    for j in 0..n {
        let pred = honest[(j + n - 1) % n];
        let last = honest[(j + w - 1) % n];
        let span = space.distance(pred, last);
        if span > best_span {
            best_span = span;
            best_j = j;
        }
    }
    let mut taken: Vec<Point> = Vec::with_capacity(w);
    for k in 0..w {
        let victim = honest[(best_j + k) % n];
        taken.push(free_point_before(space, victim, honest, &taken));
    }
    taken
}

/// The nearest unoccupied point counter-clockwise of `target`.
///
/// # Panics
///
/// Panics if no free point exists within 64 steps — impossible on any
/// non-degenerate ring (the scan would need 64 co-located members).
fn free_point_before(space: KeySpace, target: Point, honest: &[Point], taken: &[Point]) -> Point {
    let mut q = space.sub(target, Distance::new(1));
    for _ in 0..64 {
        if honest.binary_search(&q).is_err() && !taken.contains(&q) {
            return q;
        }
        q = space.sub(q, Distance::new(1));
    }
    panic!("no free shadow position within 64 points of {target:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::ChordConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn honest_index(n: usize, seed: u64) -> RingIndex<u64> {
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(seed);
        RingIndex::bulk(
            space,
            space
                .random_points(&mut rng, n)
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, i as u64))
                .collect(),
        )
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            CoalitionStrategy::SybilArcCapture.name(),
            "sybil-arc-capture"
        );
        assert_eq!(CoalitionStrategy::AdaptiveArcLiars.name(), "adaptive-liars");
        assert_eq!(CoalitionStrategy::EclipseRun.name(), "eclipse-run");
    }

    #[test]
    fn sybil_arc_capture_shadows_the_largest_gaps() {
        let honest = honest_index(200, 1);
        let c = compile_coalition(CoalitionStrategy::SybilArcCapture, &honest, 10);
        assert_eq!(c.sybil_points.len(), 10);
        assert_eq!(c.corrupt_existing, 0);
        assert!(c.behavior.claim_ownership && c.behavior.forge_owned_position);
        assert!(!c.behavior.eclipse_next);
        let space = honest.space();
        let mut points = honest.points();
        points.dedup();
        // Every sybil sits one point before an honest node terminating one
        // of the 10 largest gaps; its own trailing arc is that gap minus
        // one point.
        let mut gaps: Vec<Distance> = (0..points.len())
            .map(|i| space.distance(points[i], points[(i + 1) % points.len()]))
            .collect();
        gaps.sort_unstable_by(|a, b| b.cmp(a));
        let cutoff = gaps[9];
        for &s in &c.sybil_points {
            assert!(!points.contains(&s), "sybil must not collide");
            let (pred_point, _) = honest.predecessor(s).unwrap();
            let trailing = space.distance(pred_point, s);
            assert!(
                trailing >= Distance::new(cutoff.get().saturating_sub(2)),
                "sybil arc {trailing:?} should be a top-10 gap (cutoff {cutoff:?})"
            );
        }
    }

    #[test]
    fn adaptive_liars_corrupt_existing_nodes_only() {
        let honest = honest_index(100, 2);
        let c = compile_coalition(CoalitionStrategy::AdaptiveArcLiars, &honest, 7);
        assert!(c.sybil_points.is_empty());
        assert_eq!(c.corrupt_existing, 7);
        assert_eq!(c.size(), 7);
        assert!(c.behavior.forge_owned_position);
        assert!(!c.behavior.claim_ownership && !c.behavior.eclipse_next);
    }

    #[test]
    fn eclipse_run_shadows_consecutive_victims() {
        let honest = honest_index(150, 3);
        let c = compile_coalition(CoalitionStrategy::EclipseRun, &honest, 8);
        assert_eq!(c.sybil_points.len(), 8);
        assert!(c.behavior.eclipse_next);
        assert!(!c.behavior.claim_ownership && !c.behavior.forge_owned_position);
        let space = honest.space();
        // Each sybil is immediately before a distinct honest victim, and
        // the victims are consecutive on the ring.
        let mut victims: Vec<Point> = c
            .sybil_points
            .iter()
            .map(|&s| honest.successor(space.add(s, Distance::new(1))).unwrap().0)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 8, "eight distinct victims");
        for w in victims.windows(2) {
            let (succ, _) = honest.successor(space.add(w[0], Distance::new(1))).unwrap();
            assert_eq!(succ, w[1], "victims must be a consecutive run");
        }
    }

    #[test]
    fn compiled_points_are_distinct_and_join_cleanly() {
        let honest = honest_index(64, 4);
        for strategy in [
            CoalitionStrategy::SybilArcCapture,
            CoalitionStrategy::EclipseRun,
        ] {
            let c = compile_coalition(strategy, &honest, 6);
            let mut pts = c.sybil_points.clone();
            pts.sort_unstable();
            pts.dedup();
            assert_eq!(pts.len(), c.sybil_points.len(), "{strategy:?}");
            // Joining honest + sybil points builds an overlay where every
            // sybil resolves to a distinct live id.
            let mut all = honest.points();
            all.extend(c.sybil_points.iter().copied());
            let net = ChordNetwork::bootstrap(honest.space(), all, ChordConfig::default());
            let ids = sybil_ids(&net, &c.sybil_points);
            assert_eq!(ids.len(), c.sybil_points.len());
            let mut uniq = ids.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), ids.len(), "sybil ids must be distinct");
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let honest = honest_index(120, 5);
        let a = compile_coalition(CoalitionStrategy::SybilArcCapture, &honest, 12);
        let b = compile_coalition(CoalitionStrategy::SybilArcCapture, &honest, 12);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_budget_panics() {
        let honest = honest_index(10, 6);
        let _ = compile_coalition(CoalitionStrategy::AdaptiveArcLiars, &honest, 0);
    }

    #[test]
    #[should_panic(expected = ">= 2 distinct honest points")]
    fn degenerate_ring_panics() {
        let space = KeySpace::full();
        let mut index = RingIndex::new(space);
        index.insert(Point::new(5), 0u64);
        let _ = compile_coalition(CoalitionStrategy::EclipseRun, &index, 1);
    }
}
