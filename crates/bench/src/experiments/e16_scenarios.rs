//! E16 — the adversarial scenario battery.
//!
//! Runs the `scenarios` crate's preset battery (honest-static,
//! crash-churn with a stale-oracle arm, byzantine-routers,
//! clustered-ring, flash-crowd) as a parallel multi-seed sweep against
//! every backend the specs name, emits the full structured JSON report to
//! `target/e16_scenarios.json`, and summarizes one table row per
//! scenario × backend. A second table runs the **coalition battery**:
//! every `adversary` strategy × budget `b ∈ {0.05, 0.1}` × {undefended,
//! defended}, asserting the attack→defense loop end to end.
//!
//! The headline comparisons:
//!
//! * honest-static is the control: near-zero TV distance, no failures, on
//!   both backends — Theorem 6 survives the trip from oracle to Chord.
//! * crash-churn and flash-crowd measure what churn costs: failure rate
//!   and message inflation on Chord vs the membership-only oracle; the
//!   crash-churn *stale-oracle* arm splits that delta further into
//!   staleness cost (oracle vs stale) and routing-repair cost (stale vs
//!   chord).
//! * byzantine-routers shows the capture attack: the adversary's sample
//!   share vs its population share on Chord (the oracle arm is immune).
//! * clustered-ring stresses the geometry: cost and uniformity on a ring
//!   that violates the i.i.d. placement assumption.
//! * the coalition battery demands, per strategy and budget: the
//!   undefended sampler *fails* chi-square uniformity on every seed, the
//!   defended sampler *passes* it, committee-capture probability returns
//!   to within 2× of the uniform baseline, and the defense overhead is
//!   reported in messages per accepted sample.

use adversary::majority_capture_probability;
use scenarios::{
    run_scenario_seed_traced, Backend, BackendAggregate, MaintenanceSpec, ScenarioReport,
    ScenarioSpec, Sweep, SweepReport, COMMITTEE_SIZE,
};

use crate::{fmt_f, ExpContext, Table};

/// Scales the preset battery down for the context.
fn battery(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::presets();
    if ctx.quick {
        specs.truncate(3);
    }
    for spec in &mut specs {
        if ctx.quick {
            spec.n_initial = 96;
            spec.workload.draws = 500;
        }
    }
    specs
}

/// `RP_SCALE=<n>`: run the scale-stress arms instead of the full battery,
/// with `n` the ring size of **both** backends' arms.
///
/// # Panics
///
/// Panics on an unusable value (non-numeric or `< 20`) instead of
/// silently falling back to the full battery — a CI typo must fail the
/// scale job loudly, not skip the scale path.
fn scale_from_env() -> Option<usize> {
    let raw = std::env::var("RP_SCALE").ok()?;
    match raw.parse::<usize>() {
        Ok(n) if n >= 20 => Some(n),
        _ => panic!("RP_SCALE={raw:?} is not a ring size >= 20"),
    }
}

/// The paper's latency/message bound, as a per-lookup hop gate: a healthy
/// Chord ring resolves `find_successor` in O(log n) hops, so the run's
/// 99th-percentile hop count must stay under `4·log₂(live) + 4` (the
/// histogram never under-reports, so the gate cannot pass on bucketing
/// slack). Returns `None` when the arm holds, or a description when it
/// does not. Oracle arms (no routing, hop tail 0) are skipped.
fn hop_tail_violation(scenario: &str, agg: &BackendAggregate) -> Option<String> {
    if agg.backend != "chord" || agg.hop_p99_max == 0 {
        return None;
    }
    let bound = 4.0 * agg.live_peers_mean.max(2.0).log2() + 4.0;
    (agg.hop_p99_max as f64 > bound).then(|| {
        format!(
            "{scenario}:chord hop_p99 {} > O(log n) bound {bound:.1}",
            agg.hop_p99_max
        )
    })
}

/// `RP_TRACE=<path>`: replay one representative chord arm with lookup
/// tracing on and write the flight recorder as a Chrome `trace_event`
/// file (load in `chrome://tracing` or Perfetto). The export is
/// schema-checked in process before it is written, so a malformed trace
/// fails the run instead of failing the viewer later.
fn export_trace_if_requested(ctx: &ExpContext) {
    let Ok(path) = std::env::var("RP_TRACE") else {
        return;
    };
    // The representative arm: Byzantine routers on a small ring, so the
    // trace shows honest and forged hops side by side.
    let mut spec = ScenarioSpec::preset_byzantine_routers();
    spec.n_initial = 96;
    spec.workload.draws = 200;
    spec.telemetry.flight_recorder_capacity = 256;
    let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, ctx.stream(16, 3));
    let json = dump.chrome_trace_json();
    let value: serde_json::Value =
        serde_json::from_str(&json).expect("chrome trace export must be valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .expect("chrome trace export must carry a traceEvents array");
    assert!(
        !events.is_empty(),
        "traced run recorded {} lookups but exported no events",
        dump.recorded
    );
    std::fs::write(&path, &json)
        .unwrap_or_else(|e| panic!("RP_TRACE={path}: cannot write trace: {e}"));
    println!(
        "RP_TRACE: {} events from {} lookups (digest {}) -> {path}",
        events.len(),
        dump.recorded,
        record.trace_digest
    );
}

/// On a `CHECK` verdict, replays the first chord arm of the report with
/// tracing forced on and writes the flight-recorder dump under `target/`
/// — the hop-level post-mortem for whatever the gate flagged. Records are
/// pure functions of `(spec, backend, seed)`, so the replay reproduces
/// the failing run's routing exactly.
fn dump_flight_on_check(verdict: String, report: &SweepReport, file: &str) -> String {
    if !verdict.starts_with("CHECK") {
        return verdict;
    }
    let Some((mut spec, seed)) = report.scenarios.iter().find_map(|s| {
        s.runs
            .iter()
            .find(|r| r.backend == "chord")
            .map(|r| (s.spec.clone(), r.seed))
    }) else {
        return verdict;
    };
    // The replay's flight ring keeps the *last* N traces while tail
    // exemplars keep the *first* claimant per window bucket, so a
    // production-sized ring would usually have evicted the cited ops by
    // run end. Record fields are capacity-independent (the digest covers
    // every push), so widening the ring for the post-mortem changes
    // nothing but trace retention.
    spec.telemetry.flight_recorder_capacity = 1 << 20;
    let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, seed);
    // The windowed series and attributed health events travel with the
    // hop-level flight traces: the post-mortem shows *when* the run went
    // bad, not just which lookups were in flight.
    let mut health = String::new();
    health.push_str(&format!(
        "health: {} windows, {} breaches, ttd {}, ttr {}\n",
        record.watchdog_windows,
        record.health_breaches,
        record.time_to_detect,
        record.time_to_recover
    ));
    for line in &record.health_events {
        health.push_str(&format!("  {line}\n"));
    }
    for (gauge, column) in &record.series {
        let rendered: Vec<String> = column.iter().map(|v| format!("{v:.3}")).collect();
        health.push_str(&format!("series {gauge}: [{}]\n", rendered.join(", ")));
    }
    health.push_str(&explain_tail(&record, &dump));
    let text = format!(
        "flight recorder: scenario {:?}, backend chord, seed {seed}\n{health}{}",
        spec.name,
        dump.pretty()
    );
    let path = persist(&text, file);
    format!("{verdict}; flight -> {path}")
}

/// The "why" section of a flight dump: the top span contributors (where
/// the simulated routing cost actually went — a degraded run's leader is
/// a retry/fallback span, not the finger walk) and every tail exemplar
/// resolved back to its retained trace, so a breaching histogram bucket
/// names a concrete replayable lookup instead of an anonymous count.
fn explain_tail(record: &scenarios::SeedRunRecord, dump: &telemetry::TraceDump) -> String {
    let mut out = String::new();
    let mut spans: Vec<(&String, u64)> = record
        .span_costs
        .iter()
        .filter(|&(_, &cost)| cost > 0)
        .map(|(name, &cost)| (name, cost))
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = spans.iter().map(|(_, c)| c).sum();
    out.push_str("top spans:\n");
    for (name, cost) in spans.iter().take(3) {
        out.push_str(&format!(
            "  {name}: {cost} ({:.1}%)\n",
            100.0 * *cost as f64 / total.max(1) as f64
        ));
    }
    let by_ordinal: std::collections::BTreeMap<u64, &telemetry::LookupTrace> =
        dump.traces.iter().map(|t| (t.ordinal, t)).collect();
    out.push_str(&format!(
        "tail exemplars ({} captured):\n",
        record.tail_exemplars.len()
    ));
    for e in &record.tail_exemplars {
        match by_ordinal.get(&e.trace_id) {
            Some(t) => out.push_str(&format!(
                "  exemplar window {} value {} (bucket <= {}) -> op {}: {} hops, {:?}\n",
                e.window,
                e.value,
                e.bucket_upper,
                t.ordinal,
                t.hops.len(),
                t.outcome
            )),
            None => out.push_str(&format!(
                "  exemplar window {} value {} (bucket <= {}) -> op {} (not retained)\n",
                e.window, e.value, e.bucket_upper, e.trace_id
            )),
        }
    }
    out
}

/// The scale-stress battery at its reference size: 10⁵ peers on *both*
/// arms, rescaled together by [`Sweep::with_scale`]. The chord arm used
/// to run a decade smaller because the routed overlay carried ~1.2 KB of
/// routing state per node; the compact `RoutingArena` (~130 B/node,
/// `BENCH_chord_scale.json`) plus O(1) incremental ring verification
/// removed that gap and carried the arm to n = 10⁶. The next wall was
/// the maintenance cadence itself — a classic round routes one
/// `fix_finger` lookup per live node, O(n) per round — so the chord arm
/// now runs **batched incremental maintenance** (`BatchedDrain`):
/// each tick repairs only what the churn actually invalidated,
/// amortized O(changes · log n), which is what lets `RP_SCALE=10000000`
/// run a 10⁷-node chord overlay inside CI's wall-clock budget. The
/// cadence (every 500 ticks, 20 rounds over the horizon) is now about
/// staleness, not cost; the leftover staleness is reported per record.
fn scale_battery() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec::preset_scale_stress();
    let mut oracle = base.clone();
    oracle.name = "scale-stress-oracle".to_string();
    oracle.backends = vec![Backend::Oracle];
    oracle.n_initial = REFERENCE_ORACLE_N;
    let mut chord = base;
    chord.name = "scale-stress-chord".to_string();
    chord.backends = vec![Backend::Chord];
    chord.n_initial = REFERENCE_ORACLE_N;
    chord.chord.stabilize_every_ticks = 500;
    chord.chord.maintenance = MaintenanceSpec::BatchedDrain;
    vec![oracle, chord]
}

/// Ring size of the reference scale run's oracle arm (`RP_SCALE` rescales
/// relative to this).
const REFERENCE_ORACLE_N: usize = 100_000;

/// The `RP_SCALE` run: both scale-stress arms, deterministically, with the
/// JSON report under `target/`.
fn run_scale(ctx: &ExpContext, oracle_n: usize) -> Table {
    let (report, json_path) = sweep_to(
        &Sweep::new(scale_battery())
            .with_scale(oracle_n as f64 / REFERENCE_ORACLE_N as f64)
            .with_master_seed(ctx.stream(16, 1))
            .with_seeds(2),
        "e16_scale.json",
    );
    let mut table = sweep_table(
        &format!("E16-scale: scale-stress at n = {oracle_n} (oracle and chord)"),
        "compact routing arenas, bulk construction, incremental verification and batched \
         O(changes log n) maintenance carry 10^4-10^7-node rings through churn and \
         sampling deterministically",
        &report,
        &[
            ("scenario", |s, _| s.spec.name.clone()),
            ("backend", |_, a| a.backend.clone()),
            ("n_initial", |s, _| s.spec.n_initial.to_string()),
            ("live", |_, a| fmt_f(a.live_peers_mean)),
            ("fail_rate", |_, a| fmt_f(a.fail_rate_mean)),
            ("msgs/draw", |_, a| fmt_f(a.messages_mean)),
            ("hop_p99", |_, a| a.hop_p99_max.to_string()),
            ("draw_p99", |_, a| a.draw_msgs_p99_max.to_string()),
            ("tv", |_, a| fmt_f(a.tv_mean)),
            ("staleness", |_, a| fmt_f(a.finger_staleness_mean)),
            ("backlog", |_, a| fmt_f(a.maintenance_backlog_mean)),
            ("ttd", |_, a| a.time_to_detect_max.to_string()),
            ("ttr", |_, a| a.time_to_recover_min.to_string()),
        ],
    );
    table.set_verdict(dump_flight_on_check(
        scale_verdict(&report, &json_path),
        &report,
        "e16_scale_flight.txt",
    ));
    table
}

/// The scale-arm gates: a bounded hop tail, few failed draws and no
/// population collapse on both arms, and a chord overlay that stays fresh
/// and healthy under batched maintenance.
fn scale_verdict(report: &SweepReport, json_path: &str) -> String {
    let mut gates = Gates::default();
    for scenario in &report.scenarios {
        let name = &scenario.spec.name;
        for agg in &scenario.aggregates {
            let arm = format!("{name}:{}", agg.backend);
            gates.flag(hop_tail_violation(name, agg));
            gates.require(
                agg.fail_rate_mean <= 0.05,
                format!("{arm} fail={:.3}", agg.fail_rate_mean),
            );
            gates.require(
                agg.live_peers_mean >= scenario.spec.n_initial as f64 * 0.5,
                format!("{arm} live collapsed to {:.0}", agg.live_peers_mean),
            );
            if agg.backend == "chord" {
                // The drain cadence must keep the routed overlay
                // essentially fresh: standing staleness above 5% of
                // fingers means the batched maintenance stopped keeping up.
                gates.require(
                    agg.finger_staleness_mean <= 0.05,
                    format!("{name}: staleness {:.3}", agg.finger_staleness_mean),
                );
                // The batched arm must end every seed healthy: whatever the
                // churn phase breached, the final drain rounds recover it
                // before the run ends.
                gates.recovers(name, agg.time_to_recover_min);
            }
        }
    }
    gates.verdict(
        &format!("2 arms x {} seeds", report.seeds_per_scenario),
        json_path,
    )
}

/// The e16 batteries, in the fixed order their tables come out in.
const BATTERIES: [&str; 4] = ["presets", "coalition", "domains", "engine"];

/// Parses `RP_BATTERY` (a comma list of [`BATTERIES`] names) into one
/// flag per battery; unset selects all four.
///
/// # Panics
///
/// Panics on an unknown or empty name: a CI typo must fail the job
/// loudly, not silently run the wrong battery set.
fn battery_selection(raw: Option<&str>) -> [bool; 4] {
    let Some(raw) = raw else {
        return [true; 4];
    };
    let mut selected = [false; 4];
    for name in raw.split(',') {
        let Some(i) = BATTERIES.iter().position(|&b| b == name) else {
            panic!(
                "RP_BATTERY={raw:?}: {name:?} is not one of {}",
                BATTERIES.join(",")
            );
        };
        selected[i] = true;
    }
    selected
}

/// Runs the batteries `RP_BATTERY` selects, a comma list drawn from
/// `presets,coalition,domains,engine` (unset: all four — the preset
/// sweep, the coalition battery, the failure-domain battery and the
/// async-engine battery), rendering one summary table for each, always
/// in that order. An unknown or empty name panics. `RP_SCALE=<n>` runs
/// the scale arms instead.
pub fn run(ctx: &ExpContext) -> Vec<Table> {
    export_trace_if_requested(ctx);
    if let Some(oracle_n) = scale_from_env() {
        return vec![run_scale(ctx, oracle_n)];
    }
    let runners: [fn(&ExpContext) -> Table; 4] =
        [run_presets, run_coalition, run_domains, run_engine];
    let selected = battery_selection(std::env::var("RP_BATTERY").ok().as_deref());
    runners
        .iter()
        .zip(selected)
        .filter(|&(_, on)| on)
        .map(|(run, _)| run(ctx))
        .collect()
}

/// The failure-domain battery at sizes whose outage edges land exactly on
/// watchdog window boundaries (the realized window is
/// `max(500, 5·n_initial)` draws), so the per-window success-ratio rule
/// sees one clean window, two outage windows, and one healed window on
/// every arm.
fn domain_battery_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::domain_battery();
    for spec in &mut specs {
        if ctx.quick {
            spec.n_initial = 96; // window 500
            spec.workload.draws = 2_000;
        } else {
            spec.n_initial = 256; // window 1280
            spec.workload.draws = 5_120;
        }
    }
    specs
}

/// The failure-domain battery: one correlated rack/region outage (25% of
/// the ring crashing as a single arc mid-run, healing later) crossed with
/// the resilience knobs — {baseline, scored, retry, scored+retry} — all
/// chord-only, all undefended.
fn run_domains(ctx: &ExpContext) -> Table {
    let seeds = if ctx.quick { 2 } else { 3 };
    let (report, json_path) = sweep_to(
        &Sweep::new(domain_battery_specs(ctx))
            .with_master_seed(ctx.stream(16, 4))
            .with_seeds(seeds),
        "e16_domains.json",
    );
    let mut table = sweep_table(
        "E16-domains: correlated domain outage vs adaptive routing (chord)",
        "a rack-sized correlated crash partitions plain routing; peer scoring plus \
         retry/fallback degradation holds lookup success through the outage at an \
         attributed extra cost, and the watchdog pins the breach on the failed domains",
        &report,
        &[
            ("scenario", |s, _| s.spec.name.clone()),
            ("live", |_, a| fmt_f(a.live_peers_mean)),
            ("fail_rate", |_, a| fmt_f(a.fail_rate_mean)),
            ("msgs/draw", |_, a| fmt_f(a.messages_mean)),
            ("latency", |_, a| fmt_f(a.latency_mean)),
            ("outage_ok_min", |_, a| fmt_f(a.outage_success_ratio_min)),
            ("retries", |_, a| counter(a, "lookup.retries").to_string()),
            ("fallbacks", |_, a| {
                counter(a, "lookup.fallback_depth").to_string()
            }),
            ("dom_events", |_, a| counter(a, "domain.events").to_string()),
            ("ttd", |_, a| a.time_to_detect_max.to_string()),
            ("ttr", |_, a| a.time_to_recover_min.to_string()),
        ],
    );
    table.set_verdict(dump_flight_on_check(
        domains_verdict(&report, seeds, &json_path),
        &report,
        "e16_domains_flight.txt",
    ));
    table
}

/// The failure-domain acceptance gates: the outage must hurt the plain
/// arm, the full adaptive arm must hold ≥ 99% success *during* the
/// outage with its degradation cost attributed, every arm's watchdog
/// must detect the outage promptly and confirm recovery by run end, and
/// the success/latency deltas vs the non-adaptive baseline are reported.
fn domains_verdict(report: &SweepReport, seeds: u32, json_path: &str) -> String {
    let (Some(base), Some(adaptive)) = (
        first_arm(report, "domain-outage-baseline"),
        first_arm(report, "domain-outage-adaptive"),
    ) else {
        return format!("CHECK: battery arms missing; json -> {json_path}");
    };
    let mut gates = Gates::default();
    // Same outage, same draws, on both comparison arms.
    gates.require(
        base.outage_draws_sum != 0 && base.outage_draws_sum == adaptive.outage_draws_sum,
        format!(
            "outage draws mismatch (baseline {}, adaptive {})",
            base.outage_draws_sum, adaptive.outage_draws_sum
        ),
    );
    // The correlated crash must actually break plain routing...
    gates.require(
        base.outage_success_ratio_mean < 0.99,
        format!(
            "baseline survived the outage unscathed ({:.4})",
            base.outage_success_ratio_mean
        ),
    );
    // ...while the full adaptive arm holds the SLO on every seed.
    gates.require(
        adaptive.outage_success_ratio_min >= 0.99,
        format!(
            "adaptive arm broke the 99% during-outage SLO ({:.4})",
            adaptive.outage_success_ratio_min
        ),
    );
    // Degradation is paid for and attributed, never free.
    gates.require(
        counter(adaptive, "lookup.retries") != 0 && counter(adaptive, "lookup.fallback_depth") != 0,
        "adaptive arm shows no attributed retry/fallback cost",
    );
    for scenario in &report.scenarios {
        let (name, a) = (&scenario.spec.name, &scenario.aggregates[0]);
        // Two transitions (crash, heal) over two domains, every seed.
        let events = counter(a, "domain.events");
        gates.require(
            events == 4 * u64::from(seeds),
            format!("{name}: domain.events {events} != {}", 4 * seeds),
        );
        // The watchdog must flag the outage within 2 windows of the
        // crash on every seed, and the heal must leave every seed
        // healthy by run end.
        gates.detects(name, a.time_to_detect_max);
        gates.recovers(name, a.time_to_recover_min);
    }
    gates.verdict(
        &format!(
            "4 arms x {seeds} seeds; outage success {:.3} -> {:.3}, latency/draw {:.1} -> {:.1}",
            base.outage_success_ratio_mean,
            adaptive.outage_success_ratio_mean,
            base.latency_mean,
            adaptive.latency_mean,
        ),
        json_path,
    )
}

/// The async-engine battery sized for the context: the quick shape is
/// the unit suite's (128-node ring, 2k in-flight lookups per arm); the
/// full shape pushes 10k lookups through a 10k-wide in-flight window
/// per arm.
fn engine_battery_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::engine_battery();
    for spec in &mut specs {
        if ctx.quick {
            spec.n_initial = 128;
            spec.workload.draws = 400;
        } else {
            spec.n_initial = 256;
            spec.workload.draws = 1_000;
            let engine = spec
                .engine
                .as_mut()
                .expect("engine battery arms carry an engine phase");
            engine.lookups = 10_000;
            engine.inflight = 10_000;
        }
    }
    specs
}

/// The in-harness zero-latency equivalence spot check: one ring, one
/// origin, 256 lookups driven *concurrently* through the engine vs the
/// sequential sync walk — owner, point, hops and attributed cost must
/// match bit-for-bit. The arbitrary-ring/fault property battery lives in
/// `chord/tests/engine_equivalence.rs`; this pins the same contract
/// inside the experiment harness, so a regression fails the battery and
/// not just the unit suite.
fn equivalence_violation(seed: u64) -> Option<String> {
    use chord::{ChordConfig, ChordNetwork, Completion, EngineConfig, FaultPlan, LookupEngine};
    use keyspace::KeySpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(seed);
    let points = space.random_points(&mut rng, 128);
    let sync_net = ChordNetwork::bootstrap(space, points.clone(), ChordConfig::default());
    let async_net = ChordNetwork::bootstrap(space, points, ChordConfig::default());
    let origin = sync_net.live_ids()[0];
    let targets: Vec<_> = (0..256).map(|_| space.random_point(&mut rng)).collect();

    let mut engine = LookupEngine::new(EngineConfig {
        seed,
        ..EngineConfig::default()
    });
    let tags: Vec<u64> = targets
        .iter()
        .map(|&t| engine.submit(&async_net, origin, t))
        .collect();
    engine.drain(&async_net, &FaultPlan::none());
    let by_tag: std::collections::BTreeMap<u64, &Completion> =
        engine.completions().iter().map(|c| (c.tag, c)).collect();

    let mut walk_rng = StdRng::seed_from_u64(seed ^ 0x51DE);
    for (tag, &t) in tags.iter().zip(&targets) {
        let done = by_tag.get(tag)?;
        let sync =
            sync_net.find_successor_with_policy(origin, t, &FaultPlan::none(), &mut walk_rng);
        match (&done.result, &sync) {
            (Ok(a), Ok(s))
                if a.node == s.node
                    && a.point == s.point
                    && a.hops == s.hops
                    && a.cost == s.cost => {}
            (Err(a), Err(s)) if a == s => {}
            (a, s) => {
                return Some(format!(
                    "engine/sync divergence on target {t:?}: {a:?} vs {s:?}"
                ))
            }
        }
    }
    None
}

/// The async-engine battery: both `engine-slowdomain` arms — baseline
/// deadlines-only vs adaptive deadlines+retry/fallback — against a
/// latency-skewed (not dead) sector mid-run, plus two determinism pins:
/// the in-harness zero-latency sync-equivalence spot check and a full
/// byte-identical sweep replay.
fn run_engine(ctx: &ExpContext) -> Table {
    let seeds = if ctx.quick { 2 } else { 3 };
    let sweep = Sweep::new(engine_battery_specs(ctx))
        .with_master_seed(ctx.stream(16, 5))
        .with_seeds(seeds);
    let (report, json_path) = sweep_to(&sweep, "e16_engine.json");
    let replay_identical = sweep.run().to_json_pretty() == report.to_json_pretty();
    let mut table = sweep_table(
        "E16-engine: async in-flight lookups vs a slow domain (chord)",
        "thousands of lookups in flight over one deterministic event loop; a \
         latency-skewed sector breaches the in-flight-age SLO within 2 windows, \
         deadlines+retries pay attributed timeouts, and the whole battery replays \
         byte-identically",
        &report,
        &[
            ("scenario", |s, _| s.spec.name.clone()),
            ("live", |_, a| fmt_f(a.live_peers_mean)),
            ("lookups", |_, a| a.engine_lookups_sum.to_string()),
            ("done", |_, a| a.engine_completed_sum.to_string()),
            ("timeouts", |_, a| a.engine_timeouts_sum.to_string()),
            ("age_p999", |_, a| fmt_f(a.engine_age_p999_mean)),
            ("age_p999_max", |_, a| a.engine_age_p999_max.to_string()),
            ("ttd", |_, a| a.engine_ttd_max.to_string()),
            ("ttr", |_, a| a.engine_ttr_min.to_string()),
        ],
    );
    let equiv = equivalence_violation(ctx.stream(16, 6));
    table.set_verdict(dump_flight_on_check(
        engine_verdict(&report, replay_identical, equiv, seeds, &json_path),
        &report,
        "e16_engine_flight.txt",
    ));
    table
}

/// The async-engine acceptance gates: exactly-once completion, prompt
/// slow-sector detection (ttd ≤ 2 windows) with recovery confirmed by
/// run end, a visible latency tail on both arms, attributed deadline
/// cost on the adaptive arm, and bit-for-bit determinism (sync
/// equivalence + sweep replay). The adaptive arm's p999 is *reported*,
/// not gated against the baseline: under a regional delay fault the slow
/// owner probe is unavoidable, so preemptive retry bounds attempts, not
/// the worst-case age.
fn engine_verdict(
    report: &SweepReport,
    replay_identical: bool,
    equivalence: Option<String>,
    seeds: u32,
    json_path: &str,
) -> String {
    let (Some(base), Some(adaptive)) = (
        first_arm(report, "engine-slowdomain-baseline"),
        first_arm(report, "engine-slowdomain-adaptive"),
    ) else {
        return format!("CHECK: battery arms missing; json -> {json_path}");
    };
    let mut gates = Gates::default();
    gates.require(
        replay_identical,
        "sweep replay diverged (report not byte-identical)",
    );
    gates.flag(equivalence);
    for (name, a) in [
        ("engine-slowdomain-baseline", base),
        ("engine-slowdomain-adaptive", adaptive),
    ] {
        // Every submitted lookup completes exactly once, on every seed.
        gates.require(
            a.engine_lookups_sum != 0 && a.engine_completed_sum == a.engine_lookups_sum,
            format!(
                "{name}: {}/{} lookups completed",
                a.engine_completed_sum, a.engine_lookups_sum
            ),
        );
        // The in-flight-age rule must flag the slow sector within 2
        // windows of the fault onset on every seed, and the heal must
        // leave every seed recovered by run end.
        gates.detects(name, a.engine_ttd_max);
        gates.recovers(name, a.engine_ttr_min);
        // The fault is visible in the tail: the slowed sector multiplies
        // one wire delay (4 ticks) by 32, so a p999 under one slow hop
        // means the skew never reached the in-flight window.
        gates.require(
            a.engine_age_p999_max >= 128,
            format!(
                "{name}: age p999 {} never saw a slow hop",
                a.engine_age_p999_max
            ),
        );
    }
    // The adaptive arm's deadlines actually fired and were accounted.
    gates.require(
        adaptive.engine_timeouts_sum != 0,
        "adaptive arm fired no deadlines",
    );
    gates.verdict(
        &format!(
            "2 arms x {seeds} seeds; replay {}; age p999 max {} -> {} (baseline -> adaptive)",
            if replay_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            },
            base.engine_age_p999_max,
            adaptive.engine_age_p999_max,
        ),
        json_path,
    )
}

/// The preset battery sweep and its table.
fn run_presets(ctx: &ExpContext) -> Table {
    let (report, json_path) = sweep_to(
        &Sweep::new(battery(ctx))
            .with_master_seed(ctx.stream(16, 0))
            .with_seeds(if ctx.quick { 4 } else { 8 }),
        "e16_scenarios.json",
    );
    let mut table = sweep_table(
        "E16: adversarial scenario battery (oracle vs chord)",
        "uniformity holds on honest rings under every topology; churn costs messages not \
         correctness; Byzantine routers capture samples only on the routed backend",
        &report,
        &[
            ("scenario", |s, _| s.spec.name.clone()),
            ("backend", |_, a| a.backend.clone()),
            ("live", |_, a| fmt_f(a.live_peers_mean)),
            ("fail_rate", |_, a| fmt_f(a.fail_rate_mean)),
            ("msgs/draw", |_, a| fmt_f(a.messages_mean)),
            ("hop_p99", |_, a| a.hop_p99_max.to_string()),
            ("draw_p99", |_, a| a.draw_msgs_p99_max.to_string()),
            ("tv", |_, a| fmt_f(a.tv_mean)),
            ("byz_pop", |_, a| fmt_f(a.byzantine_population_share_mean)),
            ("byz_samples", |_, a| fmt_f(a.byzantine_sample_share_mean)),
            ("ttd", |_, a| a.time_to_detect_max.to_string()),
            ("ttr", |_, a| a.time_to_recover_min.to_string()),
        ],
    );
    table.set_verdict(dump_flight_on_check(
        verdict(&report, &json_path),
        &report,
        "e16_flight.txt",
    ));
    table
}

/// The coalition battery: strategy × budget × {undefended, defended},
/// with per-arm bias and committee-capture verdicts.
fn run_coalition(ctx: &ExpContext) -> Table {
    // Quick mode shrinks to the 10% budget at small n — the smoke shape;
    // the full battery is the acceptance grid.
    let (fractions, seeds): (&[f64], u32) = if ctx.quick {
        (&[0.10], 2)
    } else {
        (&[0.05, 0.10], 6)
    };
    let mut specs = ScenarioSpec::coalition_battery(fractions);
    if ctx.quick {
        for spec in &mut specs {
            spec.n_initial = 96;
            spec.workload.draws = 1_500;
        }
    }
    let (report, json_path) = sweep_to(
        &Sweep::new(specs)
            .with_master_seed(ctx.stream(16, 2))
            .with_seeds(seeds),
        "e16_coalition.json",
    );
    let mut table = sweep_table(
        "E16-coalition: coalition attacks vs the verified-sampling defense (chord)",
        "every coalition strategy breaks chi-square uniformity undefended and is \
         restored by quorum-verified redundant sampling, with committee capture back at \
         the uniform baseline and the defense overhead priced in messages per sample",
        &report,
        &[
            ("scenario", |s, _| s.spec.name.clone()),
            ("live", |_, a| fmt_f(a.live_peers_mean)),
            ("byz_pop", |_, a| fmt_f(a.byzantine_population_share_mean)),
            ("byz_share", |_, a| fmt_f(a.byzantine_sample_share_mean)),
            ("chi_p_max", |_, a| format!("{:.1e}", a.chi_square_p_max)),
            ("capture_p", |_, a| {
                format!("{:.1e}", a.committee_capture_p_mean)
            }),
            ("capture_uniform", |_, a| {
                format!("{:.1e}", a.committee_capture_p_uniform_mean)
            }),
            ("msgs/draw", |_, a| fmt_f(a.messages_mean)),
            ("quorum_fails", |_, a| fmt_f(a.quorum_failures_mean)),
            ("ttd", |_, a| a.time_to_detect_max.to_string()),
            ("ttr", |_, a| a.time_to_recover_min.to_string()),
        ],
    );
    table.set_verdict(dump_flight_on_check(
        coalition_verdict(&report, ctx.quick, &json_path),
        &report,
        "e16_coalition_flight.txt",
    ));
    table
}

/// Pairs each undefended arm with its `-defended` partner and checks the
/// acceptance criteria.
fn coalition_verdict(report: &SweepReport, quick: bool, json_path: &str) -> String {
    // Capture probabilities are recomputed from the *mean* sample share
    // (capture is convex in the share, so per-seed means overweight noisy
    // high seeds). Quick mode runs 2 seeds × 1,500 draws, so its share
    // estimate is noisier; the restoration bound widens accordingly.
    let restore_bar = if quick { 3.0 } else { 2.0 };
    let mut gates = Gates::default();
    let mut pairs = 0;
    for scenario in &report.scenarios {
        let name = &scenario.spec.name;
        if name.ends_with("-defended") {
            continue;
        }
        let attack = &scenario.aggregates[0];
        let Some(defended) = first_arm(report, &format!("{name}-defended")) else {
            gates.flag(Some(format!("{name}: no defended arm")));
            continue;
        };
        pairs += 1;
        // Both arms must actually sample: trial exhaustion would leave
        // the bias (and its chi-square, sentinel -1.0) unmeasured, not
        // absent.
        gates.require(
            attack.fail_rate_mean <= 0.05 && defended.fail_rate_mean <= 0.05,
            format!(
                "{name}: draws failing (attack {:.3}, defended {:.3})",
                attack.fail_rate_mean, defended.fail_rate_mean
            ),
        );
        // Attack lands: uniformity measured and failing on every seed.
        gates.require(
            (0.0..=1e-4).contains(&attack.chi_square_p_max),
            format!("{name}: attack p_max {:.1e}", attack.chi_square_p_max),
        );
        // Defense restores: uniformity passes on every seed.
        gates.require(
            defended.chi_square_p_min >= 1e-4,
            format!("{name}: defended p_min {:.1e}", defended.chi_square_p_min),
        );
        // Committee capture returns to the uniform baseline's
        // neighbourhood.
        let restored =
            majority_capture_probability(defended.byzantine_sample_share_mean, COMMITTEE_SIZE);
        let baseline =
            majority_capture_probability(defended.byzantine_population_share_mean, COMMITTEE_SIZE)
                .max(1e-12);
        gates.require(
            restored <= restore_bar * baseline,
            format!("{name}: capture {restored:.1e} > {restore_bar}x baseline {baseline:.1e}"),
        );
        // The defense must cost something measurable — a free defense
        // means the redundant lookups silently stopped running.
        gates.require(
            defended.messages_mean > attack.messages_mean,
            format!(
                "{name}: defense overhead vanished ({} <= {})",
                defended.messages_mean, attack.messages_mean
            ),
        );
        // The watchdog's chi-drift rule must flag the undefended attack
        // within 2 draw windows of the fault (active from window 0) on
        // every seed, and the defended arm must end every seed healthy
        // (recovery confirmed, or no breach at all).
        gates.detects(&format!("{name} attack"), attack.time_to_detect_max);
        gates.recovers(&format!("{name} defended"), defended.time_to_recover_min);
    }
    gates.require(pairs > 0, "no attack/defense pairs");
    gates.verdict(
        &format!(
            "{pairs} attack/defense pairs x {} seeds",
            report.seeds_per_scenario
        ),
        json_path,
    )
}

/// The preset battery's gates.
fn verdict(report: &SweepReport, json_path: &str) -> String {
    let mut gates = Gates::default();
    for scenario in &report.scenarios {
        let name = scenario.spec.name.as_str();
        for agg in &scenario.aggregates {
            let arm = format!("{name}:{}", agg.backend);
            let fail = agg.fail_rate_mean;
            // The paper's O(log n) bound is a *tail* claim: gate the
            // worst per-seed hop p99, not the mean.
            gates.flag(hop_tail_violation(name, agg));
            // The stale-oracle arm is *supposed* to fail draws (that is
            // the staleness cost it measures); it only has to stay
            // usable.
            if agg.backend == "stale-oracle" {
                gates.require(
                    fail != 0.0 && fail <= 0.6,
                    format!("{arm} fail={fail:.3} (expected in (0, 0.6])"),
                );
                continue;
            }
            let chord = agg.backend == "chord";
            match name {
                // Honest rings: no failures, uniformity intact.
                "honest-static" | "clustered-ring" => gates.require(
                    fail <= 0.01 && agg.chi_square_p_min >= 1e-6,
                    format!("{arm} fail={fail:.3} p_min={:.1e}", agg.chi_square_p_min),
                ),
                // Churn may fail a few draws but must stay usable.
                "crash-churn" | "flash-crowd" | "scale-stress" => {
                    gates.require(fail <= 0.10, format!("{arm} fail={fail:.3}"))
                }
                // The capture attack must show up on the routed backend...
                "byzantine-routers" if chord => gates.require(
                    agg.byzantine_sample_share_mean > agg.byzantine_population_share_mean,
                    format!(
                        "{arm} capture {:.3} <= share {:.3}",
                        agg.byzantine_sample_share_mean, agg.byzantine_population_share_mean
                    ),
                ),
                // ...and only there.
                "byzantine-routers" => gates.require(
                    agg.byzantine_sample_share_mean == 0.0,
                    format!("{arm} captured samples"),
                ),
                _ => {}
            }
            // The watchdog must flag the churn fault promptly on every
            // seed: crash churn is active from window 0, so the first
            // breach may lag it by at most 2 windows.
            if name == "crash-churn" && chord {
                gates.detects(&arm, agg.time_to_detect_max);
            }
        }
    }
    gates.verdict(
        &format!(
            "{} scenarios x {} seeds x 2 backends",
            report.scenarios.len(),
            report.seeds_per_scenario
        ),
        json_path,
    )
}

/// The flagged gates of one battery verdict. Every check runs on its
/// own, so one failing gate never hides another.
#[derive(Default)]
struct Gates {
    flagged: Vec<String>,
}

impl Gates {
    /// Flags `why` unless `pass`.
    fn require(&mut self, pass: bool, why: impl Into<String>) {
        if !pass {
            self.flagged.push(why.into());
        }
    }

    /// Flags a problem a check has already described.
    fn flag(&mut self, problem: Option<String>) {
        self.flagged.extend(problem);
    }

    /// The watchdog flagged `arm`'s fault within 2 windows on every seed
    /// (ttd −1: some seed never detected it).
    fn detects(&mut self, arm: &str, ttd: i64) {
        self.require(
            (0..=2).contains(&ttd),
            format!("{arm}: ttd {ttd} outside [0, 2]"),
        );
    }

    /// `arm` ended every seed healthy (ttr −1: recovery unconfirmed).
    fn recovers(&mut self, arm: &str, ttr: i64) {
        self.require(ttr >= 0, format!("{arm}: unhealthy at run end (ttr {ttr})"));
    }

    /// `HOLDS|CHECK: <summary>; json -> <path>[; flagged: …]`.
    fn verdict(self, summary: &str, json_path: &str) -> String {
        if self.flagged.is_empty() {
            format!("HOLDS: {summary}; json -> {json_path}")
        } else {
            format!(
                "CHECK: {summary}; json -> {json_path}; flagged: {}",
                self.flagged.join(", ")
            )
        }
    }
}

/// One table column: its header, and how an arm's cell renders.
type Column = (
    &'static str,
    fn(&ScenarioReport, &BackendAggregate) -> String,
);

/// A battery table with one row per scenario × backend aggregate.
fn sweep_table(title: &str, claim: &str, report: &SweepReport, columns: &[Column]) -> Table {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let mut table = Table::new(title, claim, &headers);
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(
                columns
                    .iter()
                    .map(|(_, cell)| cell(scenario, agg))
                    .collect(),
            );
        }
    }
    table
}

/// The first aggregate of the scenario called `name`.
fn first_arm<'a>(report: &'a SweepReport, name: &str) -> Option<&'a BackendAggregate> {
    report
        .scenarios
        .iter()
        .find(|s| s.spec.name == name)
        .map(|s| &s.aggregates[0])
}

/// A telemetry counter summed across seeds (0 when never bumped).
fn counter(agg: &BackendAggregate, name: &str) -> u64 {
    agg.counters.get(name).copied().unwrap_or(0)
}

/// Runs `sweep` and writes its JSON report to `target/<file>`; returns
/// the report and where its JSON went.
fn sweep_to(sweep: &Sweep, file: &str) -> (SweepReport, String) {
    let report = sweep.run();
    let path = persist(&report.to_json_pretty(), file);
    (report, path)
}

/// Writes `text` to `target/<file>`; falls back to stdout-only when the
/// directory is not writable (e.g. read-only CI caches).
fn persist(text: &str, file: &str) -> String {
    let path = std::path::Path::new("target").join(file);
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(_) => {
            println!("{text}");
            "(stdout)".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One battery's quick-sized report, swept with its runner's specs,
    /// seeds and master stream (scale: the unit-suite size, n = 1000).
    fn quick_report(name: &str) -> SweepReport {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let (specs, stream, seeds, scale) = match name {
            "presets" => (battery(&ctx), 0, 4, 1.0),
            "coalition" => {
                let mut specs = ScenarioSpec::coalition_battery(&[0.10]);
                for spec in &mut specs {
                    spec.n_initial = 96;
                    spec.workload.draws = 1_500;
                }
                (specs, 2, 2, 1.0)
            }
            "domains" => (domain_battery_specs(&ctx), 4, 2, 1.0),
            "engine" => (engine_battery_specs(&ctx), 5, 2, 1.0),
            "scale" => (scale_battery(), 1, 2, 0.01),
            other => panic!("no battery {other}"),
        };
        Sweep::new(specs)
            .with_scale(scale)
            .with_master_seed(ctx.stream(16, stream))
            .with_seeds(seeds)
            .run()
    }

    /// The verdict each battery's runner renders for `report`.
    fn judge(name: &str, report: &SweepReport) -> String {
        match name {
            "presets" => verdict(report, "x.json"),
            "coalition" => coalition_verdict(report, true, "x.json"),
            "domains" => domains_verdict(report, 2, "x.json"),
            "engine" => engine_verdict(report, true, None, 2, "x.json"),
            "scale" => scale_verdict(report, "x.json"),
            other => panic!("no battery {other}"),
        }
    }

    fn arm<'a>(
        report: &'a mut SweepReport,
        scenario: &str,
        backend: &str,
    ) -> &'a mut BackendAggregate {
        report
            .scenarios
            .iter_mut()
            .filter(|s| s.spec.name == scenario)
            .flat_map(|s| s.aggregates.iter_mut())
            .find(|a| a.backend == backend)
            .unwrap_or_else(|| panic!("no arm {scenario}:{backend}"))
    }

    fn drop_scenario(report: &mut SweepReport, scenario: &str) {
        report.scenarios.retain(|s| s.spec.name != scenario);
    }

    /// `(battery, push one field, substrings the verdict must name)`; an
    /// empty list means the push sits exactly on the bound and must hold.
    type GateCase = (&'static str, fn(&mut SweepReport), &'static [&'static str]);

    const SYBIL: &str = "sybil-arc-capture-b10";
    const SYBIL_DEFENDED: &str = "sybil-arc-capture-b10-defended";
    const ENGINE_BASE: &str = "engine-slowdomain-baseline";
    const ENGINE_ADAPTIVE: &str = "engine-slowdomain-adaptive";

    #[rustfmt::skip]
    const GATE_CASES: &[GateCase] = &[
        // Presets.
        ("presets", |r| arm(r, "honest-static", "chord").hop_p99_max = 10_000, &["honest-static:chord", "hop_p99"]),
        ("presets", |r| arm(r, "crash-churn", "stale-oracle").fail_rate_mean = 0.0, &["crash-churn:stale-oracle", "fail"]),
        ("presets", |r| arm(r, "crash-churn", "stale-oracle").fail_rate_mean = 0.7, &["crash-churn:stale-oracle", "fail"]),
        ("presets", |r| arm(r, "crash-churn", "stale-oracle").fail_rate_mean = 0.6, &[]),
        ("presets", |r| arm(r, "honest-static", "oracle").fail_rate_mean = 0.02, &["honest-static:oracle", "fail"]),
        ("presets", |r| arm(r, "honest-static", "chord").fail_rate_mean = 0.01, &[]),
        ("presets", |r| arm(r, "honest-static", "chord").chi_square_p_min = 1e-9, &["honest-static:chord", "p_min"]),
        ("presets", |r| arm(r, "honest-static", "chord").chi_square_p_min = 1e-6, &[]),
        ("presets", |r| arm(r, "crash-churn", "oracle").fail_rate_mean = 0.2, &["crash-churn:oracle", "fail"]),
        ("presets", |r| arm(r, "crash-churn", "chord").fail_rate_mean = 0.10, &[]),
        ("presets", |r| arm(r, "crash-churn", "chord").time_to_detect_max = -1, &["crash-churn:chord", "ttd"]),
        ("presets", |r| arm(r, "crash-churn", "chord").time_to_detect_max = 3, &["crash-churn:chord", "ttd"]),
        ("presets", |r| arm(r, "crash-churn", "chord").time_to_detect_max = 2, &[]),
        ("presets", |r| {
            let a = arm(r, "byzantine-routers", "chord");
            a.byzantine_sample_share_mean = a.byzantine_population_share_mean;
        }, &["byzantine", "chord capture"]),
        ("presets", |r| arm(r, "byzantine-routers", "oracle").byzantine_sample_share_mean = 0.01, &["byzantine", "oracle captured"]),
        // Coalition.
        ("coalition", |r| arm(r, SYBIL, "chord").fail_rate_mean = 0.06, &[SYBIL, "draws failing"]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").fail_rate_mean = 0.06, &[SYBIL, "draws failing"]),
        ("coalition", |r| arm(r, SYBIL, "chord").fail_rate_mean = 0.05, &[]),
        ("coalition", |r| arm(r, SYBIL, "chord").chi_square_p_max = 1e-3, &[SYBIL, "p_max"]),
        ("coalition", |r| arm(r, SYBIL, "chord").chi_square_p_max = -1.0, &[SYBIL, "p_max"]),
        ("coalition", |r| arm(r, SYBIL, "chord").chi_square_p_max = 1e-4, &[]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").chi_square_p_min = 1e-5, &[SYBIL, "p_min"]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").chi_square_p_min = 1e-4, &[]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").byzantine_sample_share_mean = 0.5, &[SYBIL, "capture"]),
        ("coalition", |r| {
            let attack = arm(r, SYBIL, "chord").messages_mean;
            arm(r, SYBIL_DEFENDED, "chord").messages_mean = attack;
        }, &[SYBIL, "overhead"]),
        ("coalition", |r| arm(r, SYBIL, "chord").time_to_detect_max = -1, &[SYBIL, "ttd"]),
        ("coalition", |r| arm(r, SYBIL, "chord").time_to_detect_max = 3, &[SYBIL, "ttd"]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").time_to_recover_min = -1, &[SYBIL, "ttr"]),
        ("coalition", |r| arm(r, SYBIL_DEFENDED, "chord").time_to_recover_min = 0, &[]),
        ("coalition", |r| drop_scenario(r, SYBIL_DEFENDED), &[SYBIL, "no defended arm"]),
        ("coalition", |r| r.scenarios.retain(|s| s.spec.name.ends_with("-defended")), &["0 attack/defense pairs"]),
        // Failure domains.
        ("domains", |r| arm(r, "domain-outage-adaptive", "chord").outage_draws_sum += 1, &["outage draws"]),
        ("domains", |r| {
            arm(r, "domain-outage-baseline", "chord").outage_draws_sum = 0;
            arm(r, "domain-outage-adaptive", "chord").outage_draws_sum = 0;
        }, &["outage draws"]),
        ("domains", |r| arm(r, "domain-outage-baseline", "chord").outage_success_ratio_mean = 0.995, &["baseline survived"]),
        ("domains", |r| arm(r, "domain-outage-adaptive", "chord").outage_success_ratio_min = 0.9, &["adaptive", "99%"]),
        ("domains", |r| arm(r, "domain-outage-adaptive", "chord").outage_success_ratio_min = 0.99, &[]),
        ("domains", |r| {
            arm(r, "domain-outage-adaptive", "chord").counters.insert("lookup.retries".to_string(), 0);
        }, &["adaptive", "retry/fallback"]),
        ("domains", |r| {
            arm(r, "domain-outage-adaptive", "chord").counters.remove("lookup.fallback_depth");
        }, &["adaptive", "retry/fallback"]),
        ("domains", |r| {
            *arm(r, "domain-outage-scored", "chord").counters.get_mut("domain.events").unwrap() += 1;
        }, &["domain-outage-scored", "domain.events"]),
        ("domains", |r| arm(r, "domain-outage-retry", "chord").time_to_detect_max = -1, &["domain-outage-retry", "ttd"]),
        ("domains", |r| arm(r, "domain-outage-retry", "chord").time_to_detect_max = 3, &["domain-outage-retry", "ttd"]),
        ("domains", |r| arm(r, "domain-outage-baseline", "chord").time_to_recover_min = -1, &["domain-outage-baseline", "ttr"]),
        ("domains", |r| drop_scenario(r, "domain-outage-adaptive"), &["battery arms missing"]),
        // Async engine.
        ("engine", |r| arm(r, ENGINE_BASE, "chord").engine_completed_sum -= 1, &[ENGINE_BASE, "lookups completed"]),
        ("engine", |r| {
            let a = arm(r, ENGINE_ADAPTIVE, "chord");
            a.engine_lookups_sum = 0;
            a.engine_completed_sum = 0;
        }, &[ENGINE_ADAPTIVE, "lookups completed"]),
        ("engine", |r| arm(r, ENGINE_ADAPTIVE, "chord").engine_ttd_max = -1, &[ENGINE_ADAPTIVE, "ttd"]),
        ("engine", |r| arm(r, ENGINE_BASE, "chord").engine_ttd_max = 3, &[ENGINE_BASE, "ttd"]),
        ("engine", |r| arm(r, ENGINE_BASE, "chord").engine_ttr_min = -1, &[ENGINE_BASE, "ttr"]),
        ("engine", |r| arm(r, ENGINE_ADAPTIVE, "chord").engine_age_p999_max = 100, &[ENGINE_ADAPTIVE, "p999"]),
        ("engine", |r| arm(r, ENGINE_ADAPTIVE, "chord").engine_age_p999_max = 128, &[]),
        ("engine", |r| arm(r, ENGINE_ADAPTIVE, "chord").engine_timeouts_sum = 0, &["adaptive", "deadlines"]),
        ("engine", |r| drop_scenario(r, ENGINE_BASE), &["battery arms missing"]),
        // Scale arms.
        ("scale", |r| arm(r, "scale-stress-chord", "chord").hop_p99_max = 10_000, &["scale-stress-chord", "hop_p99"]),
        ("scale", |r| arm(r, "scale-stress-oracle", "oracle").fail_rate_mean = 0.06, &["scale-stress-oracle", "fail"]),
        ("scale", |r| arm(r, "scale-stress-chord", "chord").fail_rate_mean = 0.05, &[]),
        ("scale", |r| arm(r, "scale-stress-oracle", "oracle").live_peers_mean = 1.0, &["scale-stress-oracle", "live collapsed"]),
        ("scale", |r| arm(r, "scale-stress-chord", "chord").finger_staleness_mean = 0.06, &["scale-stress-chord", "staleness"]),
        ("scale", |r| arm(r, "scale-stress-chord", "chord").finger_staleness_mean = 0.05, &[]),
        ("scale", |r| arm(r, "scale-stress-chord", "chord").time_to_recover_min = -1, &["scale-stress-chord", "ttr"]),
    ];

    #[test]
    fn every_verdict_gate_flags_its_arm() {
        for name in ["presets", "coalition", "domains", "engine", "scale"] {
            let report = quick_report(name);
            let holds = judge(name, &report);
            assert!(holds.starts_with("HOLDS"), "{name}: {holds}");
            for (i, (_, push, flags)) in GATE_CASES.iter().enumerate().filter(|(_, c)| c.0 == name)
            {
                let mut pushed = report.clone();
                push(&mut pushed);
                let got = judge(name, &pushed);
                if flags.is_empty() {
                    assert!(
                        got.starts_with("HOLDS"),
                        "{name} case {i} is on its bound: {got}"
                    );
                    continue;
                }
                assert!(got.starts_with("CHECK"), "{name} case {i} must trip: {got}");
                for flag in *flags {
                    assert!(
                        got.contains(flag),
                        "{name} case {i} must name {flag:?}: {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_determinism_pins_are_gated() {
        // The two determinism pins are inputs, not aggregate fields.
        let report = quick_report("engine");
        let diverged = engine_verdict(&report, false, None, 2, "x.json");
        assert!(
            diverged.starts_with("CHECK") && diverged.contains("replay"),
            "{diverged}"
        );
        let unequal = engine_verdict(
            &report,
            true,
            Some("engine/sync divergence".into()),
            2,
            "x.json",
        );
        assert!(
            unequal.starts_with("CHECK") && unequal.contains("engine/sync divergence"),
            "{unequal}"
        );
    }

    #[test]
    fn crash_churn_flags_failed_draws_and_a_lost_detection_together() {
        // Every preset gate runs on its own: a crash-churn chord arm that
        // both fails draws and never detects must name both problems.
        let mut report = quick_report("presets");
        let churn = arm(&mut report, "crash-churn", "chord");
        churn.fail_rate_mean = 0.2;
        churn.time_to_detect_max = -1;
        let got = verdict(&report, "x.json");
        assert!(got.starts_with("CHECK"), "{got}");
        assert!(got.contains("crash-churn:chord fail=0.200"), "{got}");
        assert!(got.contains("ttd -1"), "{got}");
    }

    #[test]
    fn battery_selector_keeps_the_fixed_table_order() {
        assert_eq!(battery_selection(None), [true; 4]);
        assert_eq!(
            battery_selection(Some("coalition")),
            [false, true, false, false]
        );
        assert_eq!(
            battery_selection(Some("engine,presets,engine")),
            [true, false, false, true]
        );
        assert_eq!(
            battery_selection(Some("presets,coalition,domains,engine")),
            [true; 4]
        );
    }

    #[test]
    fn battery_selector_rejects_unknown_and_empty_names() {
        for raw in ["", "coalition,", "only", "Presets", "presets, engine"] {
            let got = std::panic::catch_unwind(|| battery_selection(Some(raw)));
            assert!(got.is_err(), "RP_BATTERY={raw:?} must panic");
        }
    }

    #[test]
    fn quick_battery_holds() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run_presets(&ctx);
        // 3 quick scenarios x 2 backends, plus crash-churn's stale arm.
        assert_eq!(t.rows.len(), 7);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
    }

    #[test]
    fn quick_coalition_battery_holds() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run_coalition(&ctx);
        // 3 strategies x 1 budget x {attack, defended}.
        assert_eq!(t.rows.len(), 6);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(
            t.verdict.contains("3 attack/defense pairs"),
            "{}",
            t.verdict
        );
    }

    #[test]
    fn quick_domain_battery_holds() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run_domains(&ctx);
        // 4 resilience arms x 1 backend (chord-only).
        assert_eq!(t.rows.len(), 4);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(t.verdict.contains("outage success"), "{}", t.verdict);
    }

    #[test]
    fn domain_battery_sizes_align_with_watchdog_windows() {
        for (quick, window) in [(true, 500u64), (false, 1_280u64)] {
            let ctx = ExpContext {
                quick,
                ..ExpContext::default()
            };
            for spec in domain_battery_specs(&ctx) {
                spec.validate().unwrap();
                assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
                // The realized window is max(500, 5·n) and the outage
                // runs over draws [0.25, 0.75): both edges and the run
                // end must land on window boundaries, or the watchdog's
                // final window straddles the heal and ttr never clears.
                assert_eq!(window, 500.max(5 * spec.n_initial as u64));
                let draws = u64::from(spec.workload.draws);
                assert_eq!(draws % window, 0, "{}", spec.name);
                assert_eq!(draws / 4 % window, 0, "{}", spec.name);
                assert_eq!(3 * draws / 4 % window, 0, "{}", spec.name);
            }
        }
    }

    #[test]
    fn quick_engine_battery_holds() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run_engine(&ctx);
        // 2 resilience arms (baseline, adaptive), chord-only.
        assert_eq!(t.rows.len(), 2);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(t.verdict.contains("byte-identical"), "{}", t.verdict);
    }

    #[test]
    fn engine_battery_scales_to_ten_thousand_inflight_lookups() {
        for quick in [true, false] {
            let ctx = ExpContext {
                quick,
                ..ExpContext::default()
            };
            for spec in engine_battery_specs(&ctx) {
                spec.validate().unwrap();
                assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
                let engine = spec.engine.as_ref().unwrap();
                if quick {
                    assert_eq!(engine.lookups, 2_000, "{}", spec.name);
                } else {
                    // The acceptance shape: 10k lookups through a
                    // 10k-wide in-flight window.
                    assert_eq!(engine.lookups, 10_000, "{}", spec.name);
                    assert_eq!(engine.inflight, 10_000, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn engine_equivalence_spot_check_passes_and_detects() {
        // The harness-side pin agrees with the chord property battery.
        assert_eq!(equivalence_violation(9), None);
        assert_eq!(equivalence_violation(77), None);
    }

    #[test]
    fn quick_battery_covers_both_backends_per_scenario() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let specs = battery(&ctx);
        assert_eq!(specs.len(), 3);
        for spec in specs {
            assert!(spec.backends.len() >= 2, "{}", spec.name);
            assert!(spec.backends.contains(&Backend::Oracle), "{}", spec.name);
            assert!(spec.backends.contains(&Backend::Chord), "{}", spec.name);
        }
    }

    #[test]
    fn scale_battery_runs_both_backends_at_full_scale() {
        let specs = scale_battery();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].backends, vec![Backend::Oracle]);
        assert_eq!(specs[1].backends, vec![Backend::Chord]);
        // The compact arena closed the decade gap: both arms same size.
        assert_eq!(specs[0].n_initial, specs[1].n_initial);
        assert_eq!(specs[1].chord.stabilize_every_ticks, 500);
        // Scale arms opt into batched maintenance: classic full rounds
        // are O(n) routed lookups each, which 10^7 cannot afford.
        assert_eq!(specs[1].chord.maintenance, MaintenanceSpec::BatchedDrain);
        for spec in &specs {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn tiny_scale_run_holds() {
        // The RP_SCALE code path, shrunk far below the acceptance sizes so
        // the unit suite stays fast: oracle at 1000, chord at 100.
        let ctx = ExpContext::default();
        let t = run_scale(&ctx, 1_000);
        assert_eq!(t.rows.len(), 2, "one row per arm");
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
    }

    #[test]
    fn hop_gate_skips_oracle_and_bounds_chord() {
        let mut spec = ScenarioSpec::preset_honest_static();
        spec.n_initial = 96;
        spec.workload.draws = 300;
        let report = Sweep::new(vec![spec]).with_seeds(2).run();
        for agg in &report.scenarios[0].aggregates {
            assert_eq!(
                hop_tail_violation("honest-static", agg),
                None,
                "healthy {} arm must pass the O(log n) gate",
                agg.backend
            );
        }
        // A fabricated pathological tail trips the gate.
        let mut broken = report.scenarios[0]
            .aggregates
            .iter()
            .find(|a| a.backend == "chord")
            .unwrap()
            .clone();
        broken.hop_p99_max = 10_000;
        let violation = hop_tail_violation("honest-static", &broken).unwrap();
        assert!(violation.contains("O(log n)"), "{violation}");
    }

    #[test]
    fn check_verdicts_dump_the_flight_recorder() {
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        spec.n_initial = 96;
        spec.workload.draws = 200;
        let report = Sweep::new(vec![spec]).with_seeds(1).run();
        // HOLDS verdicts pass through untouched — no replay, no file.
        let holds = dump_flight_on_check("HOLDS: fine".to_string(), &report, "unused.txt");
        assert_eq!(holds, "HOLDS: fine");
        // CHECK verdicts replay the first chord arm traced and point at
        // the dump.
        let verdict =
            dump_flight_on_check("CHECK: forced".to_string(), &report, "e16_test_flight.txt");
        assert!(verdict.contains("flight -> "), "{verdict}");
        let path = verdict.rsplit("flight -> ").next().unwrap();
        let dump = std::fs::read_to_string(path).unwrap();
        assert!(dump.contains("flight recorder: scenario"), "{path}");
        assert!(dump.contains("hop"), "dump must carry hop paths");
    }

    #[test]
    fn flight_dump_explains_an_induced_hop_tail_breach() {
        // The explainability acceptance arm: a crash burst takes half the
        // ring down for most of the draw loop, the adaptive knobs degrade
        // through retries and fallbacks, and the resulting CHECK dump must
        // (a) name at least one tail exemplar that resolves to a retained
        // trace whose replayed hop count is exactly the exemplar's
        // recorded value (i.e. the lookup sits in the breaching bucket),
        // and (b) rank a retry/fallback span — not the healthy finger
        // walk — as the top cost contributor.
        let mut spec = ScenarioSpec::preset_domain_outage();
        spec.name = "crash-burst-explain".to_string();
        spec.n_initial = 96;
        spec.workload.draws = 2_000;
        spec.domains = Some(scenarios::FailureDomainSpec {
            domains: 4,
            crash_domains: 2,
            outage_start: 0.05,
            outage_end: 0.95,
        });
        let report = Sweep::new(vec![spec.clone()]).with_seeds(1).run();
        let verdict = dump_flight_on_check(
            "CHECK: forced".to_string(),
            &report,
            "e16_explain_flight.txt",
        );
        let path = verdict.rsplit("flight -> ").next().unwrap();
        let dump = std::fs::read_to_string(path).unwrap();
        // The watchdog attributed the burst...
        assert!(dump.contains("breach"), "no watchdog breach in dump");
        // ...the span breakdown names the injected cause first...
        let top = dump
            .lines()
            .skip_while(|l| !l.starts_with("top spans:"))
            .nth(1)
            .expect("dump must carry a top-spans section");
        let degradation = [
            "lookup;demoted_skip",
            "lookup;retry_backoff",
            "lookup;successor_walk",
            "lookup;verified_quorum",
        ];
        assert!(
            degradation.iter().any(|s| top.contains(s)),
            "top span must be a degradation span, got: {top}"
        );
        // ...and at least one exemplar resolves to a retained trace whose
        // replayed hop count lands in the cited bucket.
        let mut resolved = 0;
        for line in dump.lines().filter(|l| l.contains("-> op ")) {
            let value: u64 = line
                .split("value ")
                .nth(1)
                .and_then(|r| r.split(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap();
            let upper: u64 = line
                .split("bucket <= ")
                .nth(1)
                .and_then(|r| r.split(')').next())
                .and_then(|v| v.parse().ok())
                .unwrap();
            if let Some(hops) = line
                .split(": ")
                .nth(1)
                .and_then(|r| r.split(" hops").next())
                .and_then(|v| v.parse::<u64>().ok())
            {
                assert_eq!(hops, value, "replayed hop count must match: {line}");
                assert!(value <= upper, "exemplar outside its bucket: {line}");
                resolved += 1;
            }
        }
        assert!(resolved > 0, "no exemplar resolved to a retained trace");
    }

    #[test]
    fn representative_trace_export_is_schema_valid_chrome_json() {
        // The RP_TRACE arm, minus the env-var plumbing (env mutation would
        // race parallel tests): the traced replay must export parseable
        // trace_event JSON with one complete event per lookup and hop.
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        spec.n_initial = 96;
        spec.workload.draws = 200;
        spec.telemetry.flight_recorder_capacity = 256;
        let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, 5);
        let json = dump.chrome_trace_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        assert!(events.len() >= dump.traces.len());
        for event in events {
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(event.get("name").is_some());
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
        }
        assert!(!record.trace_digest.is_empty());
    }
}
