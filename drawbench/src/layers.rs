//! The traced run's layer probes and the per-layer metrics derived from
//! its spans.
//!
//! The workload's own loop covers the layers it drives. Every other layer
//! is measured on the same ring by a fixed-size probe after the loop, so
//! every workload reports every per-layer metric: standalone `ringidx`,
//! oracle-draw, recorder and event-queue probes everywhere; a short engine
//! epoch where the loop has no engine; draws where it has none; and
//! crash-and-join writes with one maintenance round where it has no writes
//! (last, since they change the ring). Counts come from the loop's prefix and the
//! fixed-size probes, so they repeat exactly for a seed.

use std::hint::black_box;

use chord::{ChordNetwork, FaultPlan, MaintenanceBudget, NodeId};
use keyspace::{Point, SortedRing};
use peer_sampling::{OracleDht, Sampler, SamplerConfig};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{EventQueue, SimTime};
use telemetry::Recorder;

use crate::spans::{aggregate, traced, Name, Span, Tracer};
use crate::workloads::{
    crash_and_join, engine_epoch, probe_rng, Budget, Drawer, EngineLoad, Kind, Owners, Phase,
    Tally, Workload, ENGINE_LOAD,
};
use crate::Metric;

const SUCCESSOR_CALLS: u64 = 50_000;
const ORACLE_DRAWS: u64 = 5_000;
const RECORDER_BUNDLES: u64 = 100_000;
/// Events in one hop bundle — op ordinal, counter add, histogram record
/// with exemplar, profiler add — what a resolved lookup records.
const EVENTS_PER_BUNDLE: u64 = 4;
const QUEUE_PAIRS: u64 = 200_000;
const PROBE_DRAWS: u64 = 1_000;
const PROBE_WRITES: usize = 32;
/// A tenth of the engine workload's epoch.
const PROBE_LOAD: EngineLoad = EngineLoad {
    windows: 10,
    ..ENGINE_LOAD
};

/// Tallies of the probes that stand in for layers the loop lacks.
#[derive(Default)]
pub struct Probes {
    /// Draws (the engine workload).
    pub draws: Option<Tally>,
    /// One engine epoch (workloads without the engine).
    pub engine: Option<Tally>,
    /// Writes and one maintenance round (workloads without writes).
    pub writes: Option<Tally>,
    /// The first failed check of a probe.
    pub error: Option<String>,
}

/// Runs every probe on `net` after the traced loop `phase`, numbering
/// span ops on from `first_op`.
pub fn run_probes(
    w: &Workload,
    net: &mut ChordNetwork,
    seed: u64,
    first_op: u32,
    phase: &Phase,
    tracer: &Tracer,
) -> Probes {
    let mut rng = probe_rng(seed);
    let mut out = Probes::default();
    let mut op = first_op;
    let next_op = |op: &mut u32| {
        tracer.set_op(*op);
        *op += 1;
    };
    let t = Some(tracer);

    next_op(&mut op);
    let space = net.space();
    traced(t, Name::RingSuccessor, || {
        let index = net.ring_index();
        for _ in 0..SUCCESSOR_CALLS {
            black_box(index.successor(space.random_point(&mut rng)));
        }
        ((), SUCCESSOR_CALLS)
    });

    next_op(&mut op);
    let oracle = OracleDht::new(SortedRing::from_sorted(space, net.ring_index().points()));
    let sampler = Sampler::new(SamplerConfig::new(oracle.len() as u64));
    traced(t, Name::OracleDraw, || {
        for _ in 0..ORACLE_DRAWS {
            black_box(
                sampler
                    .sample(&oracle, &mut rng)
                    .expect("oracle draws never fail"),
            );
        }
        ((), ORACLE_DRAWS)
    });
    drop(oracle);

    next_op(&mut op);
    recorder_bundles(tracer);

    // The engine's requests, replayed through the sync walk.
    let mut probe = Phase {
        span_ops: op,
        ..Phase::default()
    };
    let requests = if w.kind == Kind::Engine {
        &phase.requests
    } else {
        let owners = if w.kind == Kind::Churn {
            Owners::Unchecked
        } else {
            Owners::Checked
        };
        engine_epoch(net, PROBE_LOAD, rng.gen(), t, &mut probe, true, owners);
        out.error = out.error.or(probe.error.take());
        op = probe.span_ops;
        out.engine = Some(probe.prefix.clone());
        &probe.requests
    };
    next_op(&mut op);
    replay(net, requests, &mut rng, tracer);

    next_op(&mut op);
    let engine = out.engine.as_ref().unwrap_or(&phase.prefix);
    let depth = ratio(engine.inflight_ticks, engine.submit_ticks).round() as u64;
    queue_pairs(depth.max(1), &mut rng, tracer);

    if w.kind == Kind::Engine {
        let mut probe = Phase {
            span_ops: op,
            ..Phase::default()
        };
        let budget = Budget {
            prefix: PROBE_DRAWS,
            max_units: PROBE_DRAWS,
            seconds: 0.0,
        };
        Drawer::new(net, t, true).run_draws(&mut probe, &mut rng, budget);
        op = probe.span_ops;
        out.draws = Some(probe.prefix);
        out.error = out.error.or(probe.error);
    }

    if w.kind != Kind::Churn {
        next_op(&mut op);
        for _ in 0..PROBE_WRITES {
            if let Err(e) = crash_and_join(net, &mut rng, t) {
                out.error.get_or_insert(e);
                break;
            }
        }
        let work = traced(t, Name::Maintenance, || {
            let work = net.batched_maintenance_round(MaintenanceBudget::unlimited(), &mut rng);
            (work, work.lookups)
        });
        out.writes = Some(Tally {
            rounds: 1,
            repair_lookups: work.lookups,
            backlog_after: net.maintenance_backlog() as u64,
            ..Tally::default()
        });
    }
    out
}

/// The recorder events a resolved lookup makes, on a standalone recorder.
fn recorder_bundles(tracer: &Tracer) {
    let recorder = Recorder::new();
    let counter = recorder.counter("lookup.hops");
    let hist = recorder.histogram("lookup.hops");
    let span = recorder.profiler().span("lookup;finger_walk");
    traced(Some(tracer), Name::RecorderBundle, || {
        for i in 0..RECORDER_BUNDLES {
            let hops = black_box(i & 15);
            let ordinal = recorder.next_op_ordinal();
            recorder.add(counter, hops);
            recorder.record_with_exemplar(hist, hops, ordinal);
            recorder.profiler().add(span, hops);
        }
        ((), RECORDER_BUNDLES * EVENTS_PER_BUNDLE)
    });
}

/// Pop + reschedule pairs on an event queue held at `depth` events.
fn queue_pairs(depth: u64, rng: &mut StdRng, tracer: &Tracer) {
    let mut queue = EventQueue::new();
    for i in 0..depth {
        queue.schedule(SimTime::from_ticks(rng.gen_range(0..256)), i);
    }
    traced(Some(tracer), Name::QueuePushPop, || {
        for _ in 0..QUEUE_PAIRS {
            let (at, event) = queue.pop().expect("the queue stays at depth");
            let delay: u64 = rng.gen_range(1..=64);
            queue.schedule(SimTime::from_ticks(at.ticks() + delay), event);
        }
        ((), QUEUE_PAIRS)
    });
    black_box(queue.len());
}

/// Replays lookups through the sync walk, in one span.
fn replay(net: &ChordNetwork, requests: &[(NodeId, Point)], rng: &mut StdRng, tracer: &Tracer) {
    let faults = FaultPlan::none();
    traced(Some(tracer), Name::SyncLookup, || {
        for &(origin, target) in requests {
            let _ = black_box(net.find_successor_with_policy(origin, target, &faults, rng));
        }
        ((), requests.len() as u64)
    });
}

/// What the per-layer metrics are derived from.
pub struct Traced<'a> {
    pub spans: &'a [Span],
    /// The traced loop.
    pub main: &'a Phase,
    pub probes: &'a Probes,
    /// Traced against untraced ops/s over the same ops, in percent.
    pub overhead_pct: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let main_end = t.main.span_ops;
    let prefix_end = t.main.prefix_span_ops;
    // Times: every span. Counts: the loop's prefix plus the probes.
    // Shares of the loop's wall time: the loop's spans only.
    let all = aggregate(t.spans, |_| true);
    let exact = aggregate(t.spans, |s| s.op < prefix_end || s.op >= main_end);
    let in_loop = aggregate(t.spans, |s| s.op < main_end);
    let a = |n: Name| all[n as usize];
    let c = |n: Name| exact[n as usize];
    let loop_ns = t.main.wall_s * 1e9;

    let draws = t.probes.draws.as_ref().unwrap_or(&t.main.prefix);
    let engine = t.probes.engine.as_ref().unwrap_or(&t.main.prefix);
    let maintenance = t.probes.writes.as_ref().unwrap_or(&t.main.prefix);

    let successor_ns = a(Name::RingSuccessor).ns_per_count();
    let hop_ns = ratio(a(Name::H).dur_ns, a(Name::H).count);
    let engine_ns = ratio(
        a(Name::Submit).dur_ns + a(Name::RunUntil).dur_ns,
        a(Name::RunUntil).count,
    );
    let lookups = draws.lookups;
    let share = |names: &[Name]| {
        names
            .iter()
            .map(|&n| in_loop[n as usize].dur_ns as f64)
            .sum::<f64>()
            / loop_ns
    };
    let bytes = t.main.bytes;

    #[rustfmt::skip]
    let metrics = [
        ("core.sampler.oracle_draw_ns", a(Name::OracleDraw).ns_per_count(), "ns"),
        ("core.sampler.self_ns_per_draw", ratio(a(Name::Draw).self_ns, a(Name::Draw).spans), "ns"),
        ("core.sampler.trials_per_draw", ratio(c(Name::Draw).count, c(Name::Draw).spans), "count"),
        ("core.sampler.next_calls_per_draw", ratio(c(Name::Next).spans, c(Name::Draw).spans), "count"),
        ("core.sampler.accept_ratio", ratio(c(Name::Draw).spans, c(Name::Draw).count), "ratio"),
        ("chord.dht.h_ns", a(Name::H).ns_per_span(), "ns"),
        ("chord.dht.next_ns", a(Name::Next).ns_per_span(), "ns"),
        ("chord.dht.h_share", ratio(a(Name::H).self_ns, a(Name::Draw).dur_ns), "ratio"),
        ("chord.lookup.hops_per_lookup", ratio(draws.lookup_counters.hops, lookups), "count"),
        ("chord.lookup.hop_ns", hop_ns, "ns"),
        ("chord.lookup.hop_over_ringidx", hop_ns / successor_ns, "ratio"),
        ("chord.lookup.dead_probes_per_lookup", ratio(draws.lookup_counters.dead_probes, lookups), "count"),
        ("chord.lookup.retries_per_lookup", ratio(draws.lookup_counters.retries, lookups), "count"),
        ("chord.lookup.fallback_per_lookup", ratio(draws.lookup_counters.fallback_depth, lookups), "count"),
        ("ringidx.successor_ns", successor_ns, "ns"),
        ("chord.network.bootstrap_s", a(Name::Bootstrap).ns_per_span() / 1e9, "s"),
        ("chord.network.crash_ns", a(Name::Crash).ns_per_span(), "ns"),
        ("chord.network.join_ns", a(Name::Join).ns_per_span(), "ns"),
        ("chord.network.write_share", share(&[Name::Crash, Name::Join]), "ratio"),
        ("chord.network.verifier_bytes_per_node", bytes.per_node(bytes.verifier), "B"),
        ("chord.maintenance.round_ms", a(Name::Maintenance).ns_per_span() / 1e6, "ms"),
        ("chord.maintenance.lookups_per_round", ratio(maintenance.repair_lookups, maintenance.rounds), "count"),
        ("chord.maintenance.ns_per_repair_lookup", a(Name::Maintenance).ns_per_count(), "ns"),
        ("chord.maintenance.wall_share", share(&[Name::Maintenance]), "ratio"),
        ("chord.maintenance.backlog_after_round", ratio(maintenance.backlog_after, maintenance.rounds), "count"),
        ("chord.maintenance.bytes_per_node", bytes.per_node(bytes.maintenance), "B"),
        ("chord.arena.routing_bytes_per_node", bytes.per_node(bytes.routing), "B"),
        ("chord.engine.ns_per_lookup", engine_ns, "ns"),
        ("chord.engine.overhead_ratio", engine_ns / a(Name::SyncLookup).ns_per_count(), "ratio"),
        ("chord.engine.inflight_mean", ratio(engine.inflight_ticks, engine.submit_ticks), "count"),
        ("chord.engine.backlog_max", engine.backlog_max as f64, "count"),
        ("chord.engine.timeouts_per_lookup", ratio(engine.timeouts, engine.ok), "count"),
        ("chord.engine.attempts_per_lookup", ratio(engine.attempts, engine.ok), "count"),
        ("simnet.event_queue.push_pop_ns", a(Name::QueuePushPop).ns_per_count(), "ns"),
        ("telemetry.recorder.event_ns", a(Name::RecorderBundle).ns_per_count(), "ns"),
        ("trace.overhead_pct", t.overhead_pct, "pct"),
    ];
    metrics
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}
