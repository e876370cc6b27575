//! Committee election for Byzantine agreement (§1, Lewis–Saia \[8\]).
//!
//! Scalable Byzantine agreement protocols elect a small committee by
//! random sampling and require that Byzantine peers not reach a committee
//! majority. With *uniform* sampling and a Byzantine population fraction
//! `b < 1/2`, a committee of size `c` has a Byzantine majority with
//! probability `exp(−Θ(c))` (Chernoff). A *biased* sampler is strictly
//! worse: the adversary corrupts the peers the sampler likes best, and the
//! effective Byzantine sampling probability becomes the *mass* of that
//! set, which for the naive heuristic approaches 1 with even a small
//! corrupted fraction. Experiment E12 quantifies the gap.

use baselines::IndexSampler;
use rand::RngCore;

/// Marks the `⌈fraction·n⌉` peers an *adaptive* adversary corrupts: those
/// with the highest selection probability under the sampler being
/// attacked.
///
/// Pass the true per-peer selection probabilities (e.g.
/// [`NaiveSampler::selection_probabilities`]); for a uniform sampler any
/// set of the same size is equivalent, so ties are broken by index.
///
/// # Panics
///
/// Panics if `probabilities` is empty or `fraction` is outside `[0, 1]`.
///
/// [`NaiveSampler::selection_probabilities`]: baselines::NaiveSampler::selection_probabilities
pub fn adaptive_byzantine_set(probabilities: &[f64], fraction: f64) -> Vec<bool> {
    assert!(!probabilities.is_empty(), "no peers to corrupt");
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction {fraction} outside [0, 1]"
    );
    let n = probabilities.len();
    let count = (fraction * n as f64).ceil() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        probabilities[b]
            .partial_cmp(&probabilities[a])
            .expect("finite probabilities")
            .then(a.cmp(&b))
    });
    let mut byzantine = vec![false; n];
    for &i in order.iter().take(count.min(n)) {
        byzantine[i] = true;
    }
    byzantine
}

/// Outcome of repeated committee elections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitteeReport {
    /// Fraction of elections where Byzantine members reached a majority.
    pub capture_rate: f64,
    /// Mean Byzantine fraction per committee.
    pub mean_byzantine_fraction: f64,
    /// Committee size used.
    pub committee_size: usize,
    /// Elections simulated.
    pub elections: u32,
}

/// Elects `elections` committees of `committee_size` sampler-chosen peers
/// and reports how often the Byzantine set captured a majority.
///
/// Committee members are drawn with replacement (matching the sampling
/// primitive the paper provides; the distinction is negligible for
/// `c ≪ n`).
///
/// # Panics
///
/// Panics if sizes are zero or `byzantine.len() != sampler.len()`.
pub fn simulate_elections(
    sampler: &dyn IndexSampler,
    byzantine: &[bool],
    committee_size: usize,
    elections: u32,
    rng: &mut dyn RngCore,
) -> CommitteeReport {
    assert_eq!(
        byzantine.len(),
        sampler.len(),
        "byzantine vector must cover every peer"
    );
    assert!(committee_size > 0, "committee must have members");
    assert!(elections > 0, "need at least one election");
    let mut captures = 0u32;
    let mut byz_total = 0u64;
    for _ in 0..elections {
        let mut byz = 0usize;
        for _ in 0..committee_size {
            if byzantine[sampler.sample_index(rng)] {
                byz += 1;
            }
        }
        byz_total += byz as u64;
        if 2 * byz > committee_size {
            captures += 1;
        }
    }
    CommitteeReport {
        capture_rate: captures as f64 / elections as f64,
        mean_byzantine_fraction: byz_total as f64
            / (elections as u64 * committee_size as u64) as f64,
        committee_size,
        elections,
    }
}

/// Elects committees through an arbitrary fallible draw — the bridge
/// from `IndexSampler` micro-benchmarks to *end-to-end* elections run
/// over a real DHT-backed sampler (plain or defended).
///
/// `draw` returns `Some(is_byzantine)` for a successful sample and `None`
/// when the draw failed (routing failure, trial exhaustion, quorum
/// exhaustion). A failed draw invalidates its election — Byzantine
/// agreement cannot seat a partial committee — so the report's
/// `elections` counts completed elections and `failed_elections` the
/// abandoned ones.
///
/// # Panics
///
/// Panics if sizes are zero or every election fails.
#[cfg(test)]
pub(crate) fn simulate_elections_via<F>(
    mut draw: F,
    committee_size: usize,
    elections: u32,
) -> (CommitteeReport, u32)
where
    F: FnMut() -> Option<bool>,
{
    assert!(committee_size > 0, "committee must have members");
    assert!(elections > 0, "need at least one election");
    let mut captures = 0u32;
    let mut byz_total = 0u64;
    let mut completed = 0u32;
    let mut failed_elections = 0u32;
    for _ in 0..elections {
        let mut byz = 0usize;
        let mut abandoned = false;
        for _ in 0..committee_size {
            match draw() {
                Some(true) => byz += 1,
                Some(false) => {}
                None => {
                    abandoned = true;
                    break;
                }
            }
        }
        if abandoned {
            failed_elections += 1;
            continue;
        }
        completed += 1;
        byz_total += byz as u64;
        if 2 * byz > committee_size {
            captures += 1;
        }
    }
    assert!(completed > 0, "every election failed");
    (
        CommitteeReport {
            capture_rate: captures as f64 / completed as f64,
            mean_byzantine_fraction: byz_total as f64
                / (completed as u64 * committee_size as u64) as f64,
            committee_size,
            elections: completed,
        },
        failed_elections,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{NaiveSampler, TrueUniform};
    use keyspace::{KeySpace, SortedRing};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn uniform_committees_resist_one_third_adversary() {
        let mut r = rng();
        let n = 600;
        let byz = adaptive_byzantine_set(&vec![1.0 / n as f64; n], 1.0 / 3.0);
        let report = simulate_elections(&TrueUniform::new(n), &byz, 61, 2000, &mut r);
        assert!(
            report.capture_rate < 0.02,
            "uniform capture rate {}",
            report.capture_rate
        );
        assert!((report.mean_byzantine_fraction - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn naive_committees_fall_to_the_same_adversary() {
        let mut r = rng();
        let space = KeySpace::full();
        let n = 600;
        let ring = SortedRing::new(space, space.random_points(&mut r, n));
        let naive = NaiveSampler::new(ring);
        // Adversary corrupts the third of peers the heuristic likes best.
        let byz = adaptive_byzantine_set(&naive.selection_probabilities(), 1.0 / 3.0);
        let report = simulate_elections(&naive, &byz, 61, 2000, &mut r);
        // The top third by arc mass carries well over half the measure.
        assert!(
            report.capture_rate > 0.5,
            "naive capture rate {} should be catastrophic",
            report.capture_rate
        );
        assert!(report.mean_byzantine_fraction > 0.5);
    }

    #[test]
    fn larger_committees_are_safer_under_uniform_sampling() {
        let mut r = rng();
        let n = 300;
        let byz = adaptive_byzantine_set(&vec![1.0 / n as f64; n], 0.4);
        let small = simulate_elections(&TrueUniform::new(n), &byz, 5, 4000, &mut r);
        let large = simulate_elections(&TrueUniform::new(n), &byz, 101, 4000, &mut r);
        assert!(
            large.capture_rate < small.capture_rate,
            "large {} vs small {}",
            large.capture_rate,
            small.capture_rate
        );
    }

    #[test]
    fn adaptive_set_targets_high_probability_peers() {
        let probs = [0.1, 0.5, 0.05, 0.35];
        let byz = adaptive_byzantine_set(&probs, 0.5);
        assert_eq!(byz, vec![false, true, false, true]);
    }

    #[test]
    fn fraction_boundaries() {
        let probs = [0.25; 4];
        assert_eq!(
            adaptive_byzantine_set(&probs, 0.0),
            vec![false, false, false, false]
        );
        assert_eq!(
            adaptive_byzantine_set(&probs, 1.0),
            vec![true, true, true, true]
        );
    }

    #[test]
    fn report_fields_are_consistent() {
        let mut r = rng();
        let byz = vec![true; 10];
        let report = simulate_elections(&TrueUniform::new(10), &byz, 3, 100, &mut r);
        assert_eq!(report.capture_rate, 1.0);
        assert_eq!(report.mean_byzantine_fraction, 1.0);
        assert_eq!(report.committee_size, 3);
        assert_eq!(report.elections, 100);
    }

    #[test]
    fn elections_via_draws_count_failures_per_election() {
        // Draws cycle byz, honest, FAIL: every third election attempt
        // dies; completed ones carry one byzantine of three members.
        let mut i = 0u32;
        let (report, failed) = simulate_elections_via(
            || {
                i += 1;
                match i % 7 {
                    0 => None,
                    k => Some(k % 3 == 0),
                }
            },
            3,
            50,
        );
        assert!(failed > 0, "the failing draw must abandon elections");
        assert_eq!(report.committee_size, 3);
        assert!(report.elections > 0 && report.elections < 50);
        assert!(report.capture_rate < 1.0);
    }

    /// The end-to-end defended election experiment: a real Chord overlay
    /// seized by a sybil coalition, committees elected through the
    /// *actual* sampler stack. Undefended elections collapse (the
    /// coalition owns most committees); defended elections are as safe as
    /// the honest baseline predicts.
    #[test]
    fn defended_elections_restore_committee_safety_on_chord() {
        use adversary::{compile_coalition, sybil_ids, CoalitionStrategy, DefendedSampler};
        use chord::{ChordConfig, ChordDht, ChordNetwork, FaultPlan};
        use peer_sampling::{Sampler, SamplerConfig};

        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let honest_points = space.random_points(&mut rng, 120);
        let honest = ringidx::RingIndex::bulk(
            space,
            honest_points
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as u64))
                .collect(),
        );
        let coalition = compile_coalition(CoalitionStrategy::SybilArcCapture, &honest, 13);

        let mut points = honest_points.clone();
        points.extend(coalition.sybil_points.iter().copied());
        let net = ChordNetwork::bootstrap(space, points, ChordConfig::default());
        let live = net.live_ids();
        let sybils: std::collections::HashSet<_> = sybil_ids(&net, &coalition.sybil_points)
            .into_iter()
            .collect();
        let plan = FaultPlan::with_behavior(sybils.iter().copied(), coalition.behavior);
        let anchor = live
            .iter()
            .copied()
            .find(|id| !sybils.contains(id))
            .expect("honest anchor");

        let config = SamplerConfig::new(live.len() as u64).with_max_trials(256);
        let committee = 9;
        let elections = 120;

        // Undefended: the plain sampler believes the coalition's lies.
        let dht = ChordDht::new(&net, anchor, 72).with_fault_plan(plan.clone());
        let sampler = Sampler::new(config);
        let (attacked, _) = simulate_elections_via(
            || {
                sampler
                    .sample(&dht, &mut rng)
                    .ok()
                    .map(|s| sybils.contains(&s.peer))
            },
            committee,
            elections,
        );

        // Defended: quorum-verified redundant sampling over 3 entries,
        // built by the same helper the scenario runner ships.
        let views = adversary::spread_verified_views(&net, anchor, &plan, 3, 73);
        let view_refs: Vec<&ChordDht> = views.iter().collect();
        let defended_sampler = DefendedSampler::new(config);
        let (defended, _) = simulate_elections_via(
            || {
                defended_sampler
                    .sample(&view_refs, &mut rng)
                    .ok()
                    .map(|s| sybils.contains(&s.peer))
            },
            committee,
            elections,
        );

        let population_share = sybils.len() as f64 / live.len() as f64;
        assert!(
            attacked.mean_byzantine_fraction > 3.0 * population_share,
            "attack must flood committees: {} vs population {}",
            attacked.mean_byzantine_fraction,
            population_share
        );
        assert!(
            attacked.capture_rate > 0.5,
            "undefended capture rate {} should be catastrophic",
            attacked.capture_rate
        );
        assert!(
            defended.capture_rate < 0.05,
            "defended capture rate {} should be near the honest baseline",
            defended.capture_rate
        );
        assert!(
            (defended.mean_byzantine_fraction - population_share).abs() < 0.08,
            "defended committees mirror the population: {} vs {}",
            defended.mean_byzantine_fraction,
            population_share
        );
    }

    #[test]
    #[should_panic(expected = "cover every peer")]
    fn mismatched_byzantine_vector_panics() {
        let mut r = rng();
        let _ = simulate_elections(&TrueUniform::new(5), &[true; 4], 3, 10, &mut r);
    }

    #[test]
    #[should_panic(expected = "must have members")]
    fn empty_committee_panics() {
        let mut r = rng();
        let _ = simulate_elections(&TrueUniform::new(5), &[false; 5], 0, 10, &mut r);
    }
}
