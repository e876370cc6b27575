//! Equivalence property of the incremental ring verifier.
//!
//! After **every** operation of randomized join/fail/stabilize
//! interleavings, the incrementally maintained `RingReport` must equal a
//! from-scratch `verify_ring_full()` re-scan — the counters drift for no
//! event order. (That the compact arena views equal plain per-node
//! vectors is a model test of `RoutingArena` itself, in `arena.rs`.)
//!
//! Two regimes: the full 2⁶⁴ ring (the experiment configuration) and a
//! tiny modulus-256 ring, where point collisions force the co-located
//! tie-break paths in the ground-truth index and the finger tables are
//! only 8 bits wide.

use chord::{ChordConfig, ChordNetwork};
use keyspace::{KeySpace, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scripted operation; fields are interpreted modulo current state.
type Op = (u8, u64, u64);

fn splat(x: u64) -> u64 {
    // Cheap avalanche so small strategy ranges cover the whole ring.
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

fn check(net: &ChordNetwork, what: &str) {
    assert_eq!(
        net.verify_ring(),
        net.verify_ring_full(),
        "incremental report diverged after {what}"
    );
}

fn run_script(space: KeySpace, initial: usize, succ_len: usize, ops: &[Op]) {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    let mut net = ChordNetwork::bootstrap(
        space,
        space.random_points(&mut rng, initial),
        ChordConfig::default().with_successor_list_len(succ_len),
    );
    check(&net, "bootstrap");
    for &(kind, a, b) in ops {
        let live = net.live_ids();
        match kind % 7 {
            0 => {
                // Protocol join through a random live gateway; collisions
                // with occupied points are allowed on small rings.
                let via = live[splat(a) as usize % live.len()];
                let point = Point::new((splat(b) as u128 % space.modulus()) as u64);
                let _ = net.join(point, via, &mut rng);
            }
            1 => {
                if live.len() > 2 {
                    net.crash(live[splat(a) as usize % live.len()]);
                }
            }
            2 => {
                if live.len() > 2 {
                    net.leave(live[splat(a) as usize % live.len()]);
                }
            }
            3 => net.stabilize(live[splat(a) as usize % live.len()]),
            4 => {
                let id = live[splat(a) as usize % live.len()];
                net.fix_finger(id, splat(b) as usize % net.finger_bits(), &mut rng);
            }
            5 => net.maintenance_round(a as usize, &mut rng),
            6 => {
                let batch: Vec<Point> = (0..3)
                    .map(|k| Point::new((splat(a ^ (b + k)) as u128 % space.modulus()) as u64))
                    .collect();
                net.bulk_join(batch);
            }
            _ => unreachable!(),
        }
        check(&net, &format!("op ({kind}, {a}, {b})"));
    }
    // A final full convergence keeps the scripts from only ever visiting
    // degraded states.
    net.converge(&mut rng);
    check(&net, "converge");
}

fn ops_strategy(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..7, 0u64..1 << 48, 0u64..1 << 48), 0..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_ring_views_and_report_stay_equivalent(ops in ops_strategy(36)) {
        run_script(KeySpace::full(), 20, 4, &ops);
    }

    #[test]
    fn tiny_colliding_ring_views_and_report_stay_equivalent(ops in ops_strategy(36)) {
        run_script(KeySpace::with_modulus(256).unwrap(), 12, 3, &ops);
    }

    #[test]
    fn dense_collision_ring_views_and_report_stay_equivalent(ops in ops_strategy(36)) {
        // Modulus 64 with 8 initial peers: joins land on occupied points
        // constantly, hammering the id tie-break paths (whole-arc
        // ownership transfers between co-located twins).
        run_script(KeySpace::with_modulus(64).unwrap(), 8, 2, &ops);
    }
}

#[test]
fn long_mixed_run_stays_equivalent() {
    // One deeper deterministic soak than the proptest cases: heavy churn
    // with interleaved maintenance, checked at every step.
    let space = KeySpace::full();
    let ops: Vec<Op> = (0..220)
        .map(|i| (splat(i) as u8, splat(i ^ 0xAA), splat(i ^ 0x55)))
        .collect();
    run_script(space, 32, 8, &ops);
}
