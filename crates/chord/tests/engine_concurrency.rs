//! Determinism of the async engine *under concurrency*: 10k in-flight
//! lookups multiplexed over one event loop, interleaved with churn,
//! must produce byte-identical reports across runs and independent of
//! submission order — and a delayed (not dead) hop must trigger the
//! timeout/retry tiers without ever double-delivering a completion.

use std::collections::BTreeSet;

use chord::{
    AdaptiveConfig, ChordConfig, ChordNetwork, EngineConfig, FaultPlan, LookupEngine, LookupError,
    NodeId, RetryPolicy, SlowOverlay,
};
use keyspace::{KeySpace, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{LatencyModel, SimTime};

const SEED: u64 = 0x10_4B1D;

fn build_net(n: usize, latency: LatencyModel) -> ChordNetwork {
    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(SEED);
    ChordNetwork::bootstrap(
        space,
        space.random_points(&mut rng, n),
        ChordConfig::default().with_latency(latency),
    )
}

/// A seeded workload: (origin, target) pairs over the live ring.
fn workload(net: &ChordNetwork, count: usize, seed: u64) -> Vec<(NodeId, Point)> {
    let live = net.live_ids();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let origin = live[rng.gen_range(0..live.len())];
            (origin, net.space().random_point(&mut rng))
        })
        .collect()
}

fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    items
}

/// One full churn run: submit the whole workload up front, then advance
/// the clock in windows, crashing a deterministic batch of nodes between
/// windows so in-flight requests observe the ring changing under them.
fn churn_run(lookups: usize) -> (u64, usize) {
    let mut net = build_net(512, LatencyModel::Uniform { lo: 1, hi: 5 });
    net.enable_retry_policy(RetryPolicy::default());
    net.enable_adaptive_routing(AdaptiveConfig::default());
    let work = workload(&net, lookups, SEED ^ 1);

    let mut engine = LookupEngine::new(EngineConfig {
        seed: SEED ^ 2,
        ..EngineConfig::default()
    });
    let faults = FaultPlan::none();
    for (tag, &(origin, target)) in work.iter().enumerate() {
        engine.submit_tagged(&net, tag as u64, origin, target);
    }
    let mut churn_rng = StdRng::seed_from_u64(SEED ^ 3);
    for window in 1..=8u64 {
        engine.run_until(&net, &faults, SimTime::from_ticks(window * 16));
        // Crash a batch of survivors mid-flight (deterministic victims).
        let mut live = net.live_ids();
        live.sort_by_key(|&id| net.node(id).point());
        for _ in 0..6 {
            let victim = live.swap_remove(churn_rng.gen_range(0..live.len()));
            net.crash(victim);
        }
    }
    engine.drain(&net, &faults);
    (engine.report_digest(), engine.completions().len())
}

/// 10k concurrent lookups under churn: the terminal report is a pure
/// function of (ring seed, workload seed, engine seed, churn seed) —
/// byte-identical across three fresh runs.
#[test]
fn ten_thousand_churning_lookups_replay_byte_identically() {
    let (d1, n1) = churn_run(10_000);
    let (d2, n2) = churn_run(10_000);
    let (d3, n3) = churn_run(10_000);
    assert_eq!(n1, 10_000, "every request must complete exactly once");
    assert_eq!((n1, d1), (n2, d2), "report must replay byte-identically");
    assert_eq!((n1, d1), (n3, d3), "report must replay byte-identically");
}

/// Every attempt leaves a trace, including one whose next hop crashed
/// while the walk was on its way to it: that attempt fails as
/// `SuccessorsAllDead` and its trace is finished `Unresolved`, as the
/// sync walk finishes every failed attempt's. With no policy each
/// request is a single attempt, so every completion except a
/// dead-origin exit (which never starts a trace) accounts for exactly
/// one recorded trace.
#[test]
fn hops_that_crash_in_flight_still_finish_their_traces() {
    let mut net = build_net(512, LatencyModel::Uniform { lo: 1, hi: 5 });
    net.metrics().recorder().set_tracing(true);
    let mut engine = LookupEngine::new(EngineConfig {
        seed: SEED ^ 11,
        ..EngineConfig::default()
    });
    let faults = FaultPlan::none();
    let mut churn_rng = StdRng::seed_from_u64(SEED ^ 12);
    for window in 1..=8u64 {
        // A fresh batch each window, so crashes land mid-walk.
        for (origin, target) in workload(&net, 250, SEED ^ 10 ^ window) {
            engine.submit(&net, origin, target);
        }
        engine.run_until(&net, &faults, SimTime::from_ticks(window * 16));
        let mut live = net.live_ids();
        for _ in 0..24 {
            let victim = live.swap_remove(churn_rng.gen_range(0..live.len()));
            net.crash(victim);
        }
    }
    engine.drain(&net, &faults);

    let done = engine.completions();
    assert_eq!(done.len(), 2_000);
    let failed = done.iter().filter(|c| c.result.is_err()).count();
    assert!(failed > 0, "crashes must race some in-flight walks");
    let traced = done
        .iter()
        .filter(|c| c.result != Err(LookupError::StartDead))
        .count();
    assert_eq!(
        net.metrics().recorder().traces_recorded(),
        traced as u64,
        "every started attempt must finish its trace"
    );
}

/// Submission order is not identity: the same tagged workload submitted
/// in a permuted order produces the same tag-keyed report, because each
/// request's latency stream is derived from its tag, routing consumes no
/// randomness, and (with scoring off) requests share no mutable state.
#[test]
fn permuted_submission_order_produces_identical_reports() {
    let run = |order_seed: Option<u64>| {
        let mut net = build_net(256, LatencyModel::Uniform { lo: 1, hi: 9 });
        net.enable_retry_policy(RetryPolicy::default());
        let mut work: Vec<(u64, NodeId, Point)> = workload(&net, 4_000, SEED ^ 4)
            .into_iter()
            .enumerate()
            .map(|(tag, (o, t))| (tag as u64, o, t))
            .collect();
        if let Some(s) = order_seed {
            work = shuffled(work, s);
        }
        let mut engine = LookupEngine::new(EngineConfig {
            seed: SEED ^ 5,
            ..EngineConfig::default()
        });
        for &(tag, origin, target) in &work {
            engine.submit_tagged(&net, tag, origin, target);
        }
        engine.drain(&net, &FaultPlan::none());
        assert_eq!(engine.completions().len(), 4_000);
        engine.report_digest()
    };
    let in_order = run(None);
    assert_eq!(in_order, run(Some(11)));
    assert_eq!(in_order, run(Some(12)));
}

/// The PR's delay-fault scenario in miniature: a ring sector is slow —
/// not dead — so the walk's answers still arrive, just late. Deadlines
/// fire, the policy retries with backoff, peers get penalized, and every
/// request completes exactly once with the right owner: the stale
/// attempt's late answers are stranded by the generation guard, never
/// double-delivered.
#[test]
fn delayed_hop_times_out_retries_and_completes_exactly_once() {
    let mut net = build_net(256, LatencyModel::Constant(4));
    net.enable_retry_policy(RetryPolicy::default());
    net.enable_adaptive_routing(AdaptiveConfig::default());

    // Slow sector: a contiguous arc of the ring, 32× slower for a while.
    let mut ring = net.live_ids();
    ring.sort_by_key(|&id| net.node(id).point());
    let slow_nodes: BTreeSet<NodeId> = ring[64..128].iter().copied().collect();
    let mut engine = LookupEngine::new(EngineConfig {
        timeout_ticks: Some(96),
        seed: SEED ^ 6,
        ..EngineConfig::default()
    });
    engine.set_slow_overlay(Some(SlowOverlay {
        nodes: slow_nodes.clone(),
        factor: 32,
        from: SimTime::ZERO,
        until: SimTime::from_ticks(1 << 20),
    }));

    // Origins outside the slow sector (a slow origin cannot be routed
    // around); targets spread over the whole ring so many walks must
    // traverse or terminate inside it.
    let fast: Vec<NodeId> = ring
        .iter()
        .copied()
        .filter(|id| !slow_nodes.contains(id))
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let work: Vec<(NodeId, Point)> = (0..500)
        .map(|_| {
            let origin = fast[rng.gen_range(0..fast.len())];
            (origin, net.space().random_point(&mut rng))
        })
        .collect();
    for (tag, &(origin, target)) in work.iter().enumerate() {
        engine.submit_tagged(&net, tag as u64, origin, target);
    }
    engine.drain(&net, &FaultPlan::none());

    // Exactly-once: every tag completed, none twice.
    let tags: BTreeSet<u64> = engine.completions().iter().map(|c| c.tag).collect();
    assert_eq!(engine.completions().len(), work.len());
    assert_eq!(tags.len(), work.len());

    // The slowdown was *observed* (deadlines fired, retries happened)...
    assert!(
        net.metrics().get("engine.timeouts") > 0,
        "deadlines must fire"
    );
    let retried = engine
        .completions()
        .iter()
        .filter(|c| c.attempts > 1)
        .count();
    assert!(
        retried > 0,
        "timed-out attempts must re-enter the retry tier"
    );
    assert!(
        engine
            .completions()
            .iter()
            .any(|c| c.timeouts > 0 && c.result.is_ok()),
        "a timed-out request must still complete with an answer"
    );

    // ...and answered around: nothing was dead, so every lookup must
    // land on the true owner, late or not.
    for c in engine.completions() {
        let hit = c.result.as_ref().unwrap_or_else(|e| {
            panic!("tag {} failed: {e} (nothing is dead)", c.tag);
        });
        assert_eq!(hit.point, net.ground_truth_successor(hit.point));
        assert!(c.completed_at >= c.started_at);
    }
}

/// The in-flight cap is honoured: excess requests queue in the backlog
/// and are admitted as completions free slots, and the cap costs nothing
/// in answers.
#[test]
fn backlog_respects_the_inflight_cap() {
    let net = build_net(128, LatencyModel::Constant(2));
    let mut engine = LookupEngine::new(EngineConfig {
        max_inflight: 8,
        seed: SEED ^ 8,
        ..EngineConfig::default()
    });
    let work = workload(&net, 200, SEED ^ 9);
    for (tag, &(origin, target)) in work.iter().enumerate() {
        engine.submit_tagged(&net, tag as u64, origin, target);
    }
    assert_eq!(engine.in_flight(), 8);
    assert_eq!(engine.backlog(), 192);

    // Step the clock one tick at a time so the cap is observable at
    // every quiescent point of the loop.
    let faults = FaultPlan::none();
    let mut t = 0u64;
    while engine.completions().len() < work.len() {
        t += 1;
        engine.run_until(&net, &faults, SimTime::from_ticks(t));
        assert!(engine.in_flight() <= 8, "cap breached at tick {t}");
        assert!(t < 1 << 20, "lookups must make progress");
    }
    assert_eq!(engine.backlog(), 0);
    for c in engine.completions() {
        let hit = c.result.as_ref().unwrap();
        assert_eq!(hit.point, net.ground_truth_successor(hit.point));
    }
}

/// Wakeup cancellation at the engine level: an answer and its own
/// deadline landing in the same tick must resolve to the answer. The
/// walk resolved when the final hop was processed (the `resolved` guard
/// flips before the answer travels home), so the deadline — even though
/// FIFO pops it first at that tick — is stranded, not fired.
#[test]
fn completion_beats_its_own_deadline_on_the_same_tick() {
    // Two nodes, Constant(3): the origin's single successor probe costs
    // exactly 3 ticks, so the answer lands at tick 3 — the very tick the
    // deadline is armed for.
    let net = build_net(2, LatencyModel::Constant(3));
    let mut engine = LookupEngine::new(EngineConfig {
        timeout_ticks: Some(3),
        seed: 1,
        ..EngineConfig::default()
    });
    let mut ring = net.live_ids();
    ring.sort_by_key(|&id| net.node(id).point());
    let origin = ring[0];
    let target = net.node(ring[1]).point();
    engine.submit(&net, origin, target);
    engine.drain(&net, &FaultPlan::none());

    let c = &engine.completions()[0];
    assert_eq!(c.timeouts, 0, "deadline must lose the tie and be stranded");
    assert_eq!(c.attempts, 1);
    assert!(c.result.is_ok());
    assert_eq!(net.metrics().get("engine.timeouts"), 0);
}
