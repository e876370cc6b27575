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
    run_scenario_seed_traced, Backend, BackendAggregate, MaintenanceSpec, ScenarioSpec, Sweep,
    SweepReport, COMMITTEE_SIZE,
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
    let path = persist_named_report(&text, file);
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
    let report = Sweep::new(scale_battery())
        .with_scale(oracle_n as f64 / REFERENCE_ORACLE_N as f64)
        .with_master_seed(ctx.stream(16, 1))
        .with_seeds(2)
        .run();

    let json = report.to_json_pretty();
    let json_path = persist_named_report(&json, "e16_scale.json");

    let mut table = Table::new(
        format!("E16-scale: scale-stress at n = {oracle_n} (oracle and chord)"),
        "compact routing arenas, bulk construction, incremental verification and batched \
         O(changes log n) maintenance carry 10^4-10^7-node rings through churn and \
         sampling deterministically",
        &[
            "scenario",
            "backend",
            "n_initial",
            "live",
            "fail_rate",
            "msgs/draw",
            "hop_p99",
            "draw_p99",
            "tv",
            "staleness",
            "backlog",
            "ttd",
            "ttr",
        ],
    );
    let mut ok = true;
    let mut flagged = Vec::new();
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(vec![
                scenario.spec.name.clone(),
                agg.backend.clone(),
                scenario.spec.n_initial.to_string(),
                fmt_f(agg.live_peers_mean),
                fmt_f(agg.fail_rate_mean),
                fmt_f(agg.messages_mean),
                agg.hop_p99_max.to_string(),
                agg.draw_msgs_p99_max.to_string(),
                fmt_f(agg.tv_mean),
                fmt_f(agg.finger_staleness_mean),
                fmt_f(agg.maintenance_backlog_mean),
                agg.time_to_detect_max.to_string(),
                agg.time_to_recover_min.to_string(),
            ]);
            if let Some(violation) = hop_tail_violation(&scenario.spec.name, agg) {
                ok = false;
                flagged.push(violation);
            }
            if agg.fail_rate_mean > 0.05 {
                ok = false;
                flagged.push(format!(
                    "{}:{} fail={:.3}",
                    scenario.spec.name, agg.backend, agg.fail_rate_mean
                ));
            }
            if agg.live_peers_mean < scenario.spec.n_initial as f64 * 0.5 {
                ok = false;
                flagged.push(format!(
                    "{}:{} live collapsed to {:.0}",
                    scenario.spec.name, agg.backend, agg.live_peers_mean
                ));
            }
            // The drain cadence must keep the routed overlay essentially
            // fresh: standing staleness above 5% of fingers means the
            // batched maintenance stopped keeping up.
            if agg.backend == "chord" && agg.finger_staleness_mean > 0.05 {
                ok = false;
                flagged.push(format!(
                    "{}: staleness {:.3}",
                    scenario.spec.name, agg.finger_staleness_mean
                ));
            }
            // The batched arm must end every seed healthy: whatever the
            // churn phase breached, the final drain rounds recover it
            // before the run ends (ttr −1 = recovery unconfirmed).
            if agg.backend == "chord" && agg.time_to_recover_min < 0 {
                ok = false;
                flagged.push(format!(
                    "{}: unhealthy at run end (ttr {})",
                    scenario.spec.name, agg.time_to_recover_min
                ));
            }
        }
    }
    let verdict = format!(
        "{}: 2 arms x {} seeds; json -> {}{}",
        if ok { "HOLDS" } else { "CHECK" },
        report.seeds_per_scenario,
        json_path,
        if flagged.is_empty() {
            String::new()
        } else {
            format!("; flagged: {}", flagged.join(", "))
        }
    );
    table.set_verdict(dump_flight_on_check(
        verdict,
        &report,
        "e16_scale_flight.txt",
    ));
    table
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
    let report = Sweep::new(domain_battery_specs(ctx))
        .with_master_seed(ctx.stream(16, 4))
        .with_seeds(seeds)
        .run();
    let json = report.to_json_pretty();
    let json_path = persist_named_report(&json, "e16_domains.json");

    let mut table = Table::new(
        "E16-domains: correlated domain outage vs adaptive routing (chord)",
        "a rack-sized correlated crash partitions plain routing; peer scoring plus \
         retry/fallback degradation holds lookup success through the outage at an \
         attributed extra cost, and the watchdog pins the breach on the failed domains",
        &[
            "scenario",
            "live",
            "fail_rate",
            "msgs/draw",
            "latency",
            "outage_ok_min",
            "retries",
            "fallbacks",
            "dom_events",
            "ttd",
            "ttr",
        ],
    );
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(vec![
                scenario.spec.name.clone(),
                fmt_f(agg.live_peers_mean),
                fmt_f(agg.fail_rate_mean),
                fmt_f(agg.messages_mean),
                fmt_f(agg.latency_mean),
                fmt_f(agg.outage_success_ratio_min),
                agg.counters
                    .get("lookup.retries")
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                agg.counters
                    .get("lookup.fallback_depth")
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                agg.counters
                    .get("domain.events")
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                agg.time_to_detect_max.to_string(),
                agg.time_to_recover_min.to_string(),
            ]);
        }
    }
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
    let agg = |name: &str| {
        report
            .scenarios
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| &s.aggregates[0])
    };
    let mut checks = Vec::new();
    let mut ok = true;
    let (Some(base), Some(adaptive)) =
        (agg("domain-outage-baseline"), agg("domain-outage-adaptive"))
    else {
        return format!("CHECK: battery arms missing; json -> {json_path}");
    };
    // Same outage, same draws, on both comparison arms.
    if base.outage_draws_sum == 0 || base.outage_draws_sum != adaptive.outage_draws_sum {
        ok = false;
        checks.push(format!(
            "outage draws mismatch (baseline {}, adaptive {})",
            base.outage_draws_sum, adaptive.outage_draws_sum
        ));
    }
    // The correlated crash must actually break plain routing...
    if base.outage_success_ratio_mean >= 0.99 {
        ok = false;
        checks.push(format!(
            "baseline survived the outage unscathed ({:.4})",
            base.outage_success_ratio_mean
        ));
    }
    // ...while the full adaptive arm holds the SLO on every seed.
    if adaptive.outage_success_ratio_min < 0.99 {
        ok = false;
        checks.push(format!(
            "adaptive arm broke the 99% during-outage SLO ({:.4})",
            adaptive.outage_success_ratio_min
        ));
    }
    // Degradation is paid for and attributed, never free.
    if adaptive
        .counters
        .get("lookup.retries")
        .copied()
        .unwrap_or(0)
        == 0
        || adaptive
            .counters
            .get("lookup.fallback_depth")
            .copied()
            .unwrap_or(0)
            == 0
    {
        ok = false;
        checks.push("adaptive arm shows no attributed retry/fallback cost".to_string());
    }
    for scenario in &report.scenarios {
        let a = &scenario.aggregates[0];
        let name = &scenario.spec.name;
        // Two transitions (crash, heal) over two domains, every seed.
        let events = a.counters.get("domain.events").copied().unwrap_or(0);
        if events != 4 * u64::from(seeds) {
            ok = false;
            checks.push(format!("{name}: domain.events {events} != {}", 4 * seeds));
        }
        // The watchdog must flag the outage within 2 windows of the
        // crash on every seed...
        if !(0..=2).contains(&a.time_to_detect_max) {
            ok = false;
            checks.push(format!(
                "{name}: ttd {} outside [0, 2]",
                a.time_to_detect_max
            ));
        }
        // ...and the heal must leave every seed healthy by run end.
        if a.time_to_recover_min < 0 {
            ok = false;
            checks.push(format!(
                "{name}: unhealthy at run end (ttr {})",
                a.time_to_recover_min
            ));
        }
    }
    format!(
        "{}: 4 arms x {seeds} seeds; outage success {:.3} -> {:.3}, \
         latency/draw {:.1} -> {:.1}; json -> {}{}",
        if ok { "HOLDS" } else { "CHECK" },
        base.outage_success_ratio_mean,
        adaptive.outage_success_ratio_mean,
        base.latency_mean,
        adaptive.latency_mean,
        json_path,
        if checks.is_empty() {
            String::new()
        } else {
            format!("; flagged: {}", checks.join(", "))
        }
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
    let specs = engine_battery_specs(ctx);
    let master = ctx.stream(16, 5);
    let report = Sweep::new(specs.clone())
        .with_master_seed(master)
        .with_seeds(seeds)
        .run();
    let replay = Sweep::new(specs)
        .with_master_seed(master)
        .with_seeds(seeds)
        .run();
    let json = report.to_json_pretty();
    let replay_identical = json == replay.to_json_pretty();
    let json_path = persist_named_report(&json, "e16_engine.json");

    let mut table = Table::new(
        "E16-engine: async in-flight lookups vs a slow domain (chord)",
        "thousands of lookups in flight over one deterministic event loop; a \
         latency-skewed sector breaches the in-flight-age SLO within 2 windows, \
         deadlines+retries pay attributed timeouts, and the whole battery replays \
         byte-identically",
        &[
            "scenario",
            "live",
            "lookups",
            "done",
            "timeouts",
            "age_p999",
            "age_p999_max",
            "ttd",
            "ttr",
        ],
    );
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(vec![
                scenario.spec.name.clone(),
                fmt_f(agg.live_peers_mean),
                agg.engine_lookups_sum.to_string(),
                agg.engine_completed_sum.to_string(),
                agg.engine_timeouts_sum.to_string(),
                fmt_f(agg.engine_age_p999_mean),
                agg.engine_age_p999_max.to_string(),
                agg.engine_ttd_max.to_string(),
                agg.engine_ttr_min.to_string(),
            ]);
        }
    }
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
    let agg = |name: &str| {
        report
            .scenarios
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| &s.aggregates[0])
    };
    let mut checks = Vec::new();
    let mut ok = true;
    if !replay_identical {
        ok = false;
        checks.push("sweep replay diverged (report not byte-identical)".to_string());
    }
    if let Some(problem) = equivalence {
        ok = false;
        checks.push(problem);
    }
    let (Some(base), Some(adaptive)) = (
        agg("engine-slowdomain-baseline"),
        agg("engine-slowdomain-adaptive"),
    ) else {
        return format!("CHECK: battery arms missing; json -> {json_path}");
    };
    for (name, a) in [
        ("engine-slowdomain-baseline", base),
        ("engine-slowdomain-adaptive", adaptive),
    ] {
        // Every submitted lookup completes exactly once, on every seed.
        if a.engine_lookups_sum == 0 || a.engine_completed_sum != a.engine_lookups_sum {
            ok = false;
            checks.push(format!(
                "{name}: {}/{} lookups completed",
                a.engine_completed_sum, a.engine_lookups_sum
            ));
        }
        // The in-flight-age rule must flag the slow sector within 2
        // windows of the fault onset, on every seed...
        if !(0..=2).contains(&a.engine_ttd_max) {
            ok = false;
            checks.push(format!(
                "{name}: engine ttd {} outside [0, 2]",
                a.engine_ttd_max
            ));
        }
        // ...and the heal must leave every seed recovered by run end.
        if a.engine_ttr_min < 0 {
            ok = false;
            checks.push(format!(
                "{name}: engine unhealthy at run end (ttr {})",
                a.engine_ttr_min
            ));
        }
        // The fault is visible in the tail: the slowed sector multiplies
        // one wire delay (4 ticks) by 32, so a p999 under one slow hop
        // means the skew never reached the in-flight window.
        if a.engine_age_p999_max < 128 {
            ok = false;
            checks.push(format!(
                "{name}: age p999 {} never saw a slow hop",
                a.engine_age_p999_max
            ));
        }
    }
    // The adaptive arm's deadlines actually fired and were accounted.
    if adaptive.engine_timeouts_sum == 0 {
        ok = false;
        checks.push("adaptive arm fired no deadlines".to_string());
    }
    format!(
        "{}: 2 arms x {seeds} seeds; replay {}; age p999 max {} -> {} (baseline -> adaptive); json -> {}{}",
        if ok { "HOLDS" } else { "CHECK" },
        if replay_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        base.engine_age_p999_max,
        adaptive.engine_age_p999_max,
        json_path,
        if checks.is_empty() {
            String::new()
        } else {
            format!("; flagged: {}", checks.join(", "))
        }
    )
}

/// The preset battery sweep and its table.
fn run_presets(ctx: &ExpContext) -> Table {
    let specs = battery(ctx);
    let seeds = if ctx.quick { 4 } else { 8 };
    let report = Sweep::new(specs)
        .with_master_seed(ctx.stream(16, 0))
        .with_seeds(seeds)
        .run();

    let json = report.to_json_pretty();
    let json_path = persist_report(&json);

    let mut table = Table::new(
        "E16: adversarial scenario battery (oracle vs chord)",
        "uniformity holds on honest rings under every topology; churn costs messages not \
         correctness; Byzantine routers capture samples only on the routed backend",
        &[
            "scenario",
            "backend",
            "live",
            "fail_rate",
            "msgs/draw",
            "hop_p99",
            "draw_p99",
            "tv",
            "byz_pop",
            "byz_samples",
            "ttd",
            "ttr",
        ],
    );
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(vec![
                scenario.spec.name.clone(),
                agg.backend.clone(),
                fmt_f(agg.live_peers_mean),
                fmt_f(agg.fail_rate_mean),
                fmt_f(agg.messages_mean),
                agg.hop_p99_max.to_string(),
                agg.draw_msgs_p99_max.to_string(),
                fmt_f(agg.tv_mean),
                fmt_f(agg.byzantine_population_share_mean),
                fmt_f(agg.byzantine_sample_share_mean),
                agg.time_to_detect_max.to_string(),
                agg.time_to_recover_min.to_string(),
            ]);
        }
    }
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
    let report = Sweep::new(specs)
        .with_master_seed(ctx.stream(16, 2))
        .with_seeds(seeds)
        .run();
    let json = report.to_json_pretty();
    let json_path = persist_named_report(&json, "e16_coalition.json");

    let mut table = Table::new(
        "E16-coalition: coalition attacks vs the verified-sampling defense (chord)",
        "every coalition strategy breaks chi-square uniformity undefended and is \
         restored by quorum-verified redundant sampling, with committee capture back at \
         the uniform baseline and the defense overhead priced in messages per sample",
        &[
            "scenario",
            "live",
            "byz_pop",
            "byz_share",
            "chi_p_max",
            "capture_p",
            "capture_uniform",
            "msgs/draw",
            "quorum_fails",
            "ttd",
            "ttr",
        ],
    );
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(vec![
                scenario.spec.name.clone(),
                fmt_f(agg.live_peers_mean),
                fmt_f(agg.byzantine_population_share_mean),
                fmt_f(agg.byzantine_sample_share_mean),
                format!("{:.1e}", agg.chi_square_p_max),
                format!("{:.1e}", agg.committee_capture_p_mean),
                format!("{:.1e}", agg.committee_capture_p_uniform_mean),
                fmt_f(agg.messages_mean),
                fmt_f(agg.quorum_failures_mean),
                agg.time_to_detect_max.to_string(),
                agg.time_to_recover_min.to_string(),
            ]);
        }
    }
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
    let mut checks = Vec::new();
    let mut ok = true;
    let mut pairs = 0;
    for scenario in &report.scenarios {
        let name = &scenario.spec.name;
        if name.ends_with("-defended") {
            continue;
        }
        let attack = &scenario.aggregates[0];
        let Some(defended) = report
            .scenarios
            .iter()
            .find(|s| s.spec.name == format!("{name}-defended"))
            .map(|s| &s.aggregates[0])
        else {
            ok = false;
            checks.push(format!("{name}: no defended arm"));
            continue;
        };
        pairs += 1;
        // Both arms must actually sample: trial exhaustion would leave
        // the bias (and its chi-square, sentinel -1.0) unmeasured, not
        // absent.
        if attack.fail_rate_mean > 0.05 || defended.fail_rate_mean > 0.05 {
            ok = false;
            checks.push(format!(
                "{name}: draws failing (attack {:.3}, defended {:.3})",
                attack.fail_rate_mean, defended.fail_rate_mean
            ));
        }
        // Attack lands: uniformity measured and failing on every seed.
        if attack.chi_square_p_max > 1e-4 || attack.chi_square_p_max < 0.0 {
            ok = false;
            checks.push(format!(
                "{name}: attack p_max {:.1e}",
                attack.chi_square_p_max
            ));
        }
        // Defense restores: uniformity passes on every seed.
        if defended.chi_square_p_min < 1e-4 {
            ok = false;
            checks.push(format!(
                "{name}: defended p_min {:.1e}",
                defended.chi_square_p_min
            ));
        }
        // Committee capture returns to the uniform baseline's
        // neighbourhood.
        let restored =
            majority_capture_probability(defended.byzantine_sample_share_mean, COMMITTEE_SIZE);
        let baseline =
            majority_capture_probability(defended.byzantine_population_share_mean, COMMITTEE_SIZE)
                .max(1e-12);
        if restored > restore_bar * baseline {
            ok = false;
            checks.push(format!(
                "{name}: capture {restored:.1e} > {restore_bar}x baseline {baseline:.1e}"
            ));
        }
        // The defense must cost something measurable — a free defense
        // means the redundant lookups silently stopped running.
        if defended.messages_mean <= attack.messages_mean {
            ok = false;
            checks.push(format!(
                "{name}: defense overhead vanished ({} <= {})",
                defended.messages_mean, attack.messages_mean
            ));
        }
        // The watchdog's chi-drift rule must flag the undefended attack
        // within 2 draw windows of the fault (active from window 0) on
        // every seed...
        if !(0..=2).contains(&attack.time_to_detect_max) {
            ok = false;
            checks.push(format!(
                "{name}: attack ttd {} outside [0, 2]",
                attack.time_to_detect_max
            ));
        }
        // ...and the defended arm must end every seed healthy (recovery
        // confirmed, or no breach at all).
        if defended.time_to_recover_min < 0 {
            ok = false;
            checks.push(format!(
                "{name}: defended arm unhealthy at run end (ttr {})",
                defended.time_to_recover_min
            ));
        }
    }
    format!(
        "{}: {} attack/defense pairs x {} seeds; json -> {}{}",
        if ok && pairs > 0 { "HOLDS" } else { "CHECK" },
        pairs,
        report.seeds_per_scenario,
        json_path,
        if checks.is_empty() {
            String::new()
        } else {
            format!("; flagged: {}", checks.join(", "))
        }
    )
}

/// Writes the JSON report under `target/`; falls back to stdout-only when
/// the directory is not writable (e.g. read-only CI caches).
fn persist_report(json: &str) -> String {
    persist_named_report(json, "e16_scenarios.json")
}

fn persist_named_report(json: &str, file: &str) -> String {
    let path = std::path::Path::new("target").join(file);
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => path.display().to_string(),
        Err(_) => {
            println!("{json}");
            "(stdout)".to_string()
        }
    }
}

fn verdict(report: &SweepReport, json_path: &str) -> String {
    let mut checks = Vec::new();
    let mut ok = true;
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            // The paper's O(log n) bound is a *tail* claim: gate the
            // worst per-seed hop p99, not the mean.
            if let Some(violation) = hop_tail_violation(&scenario.spec.name, agg) {
                ok = false;
                checks.push(violation);
            }
            // The stale-oracle arm is *supposed* to fail draws (that is
            // the staleness cost it measures); it only has to stay
            // usable.
            if agg.backend == "stale-oracle" {
                if agg.fail_rate_mean == 0.0 || agg.fail_rate_mean > 0.6 {
                    ok = false;
                    checks.push(format!(
                        "{}:stale-oracle fail={:.3} (expected in (0, 0.6])",
                        scenario.spec.name, agg.fail_rate_mean
                    ));
                }
                continue;
            }
            match scenario.spec.name.as_str() {
                // Honest rings: no failures, uniformity intact.
                "honest-static" | "clustered-ring"
                    if agg.fail_rate_mean > 0.01 || agg.chi_square_p_min < 1e-6 =>
                {
                    ok = false;
                    checks.push(format!(
                        "{}:{} fail={:.3} p_min={:.1e}",
                        scenario.spec.name, agg.backend, agg.fail_rate_mean, agg.chi_square_p_min
                    ));
                }
                // Churn may fail a few draws but must stay usable.
                "crash-churn" | "flash-crowd" | "scale-stress" if agg.fail_rate_mean > 0.10 => {
                    ok = false;
                    checks.push(format!(
                        "{}:{} fail={:.3}",
                        scenario.spec.name, agg.backend, agg.fail_rate_mean
                    ));
                }
                // The watchdog must flag the churn fault promptly on
                // every seed: crash churn is active from window 0, so
                // the first breach may lag it by at most 2 windows.
                "crash-churn"
                    if agg.backend == "chord" && !(0..=2).contains(&agg.time_to_detect_max) =>
                {
                    ok = false;
                    checks.push(format!(
                        "crash-churn:chord ttd {} outside [0, 2]",
                        agg.time_to_detect_max
                    ));
                }
                // The capture attack must show up on the routed backend...
                "byzantine-routers"
                    if agg.backend == "chord"
                        && agg.byzantine_sample_share_mean
                            <= agg.byzantine_population_share_mean =>
                {
                    ok = false;
                    checks.push(format!(
                        "byzantine:chord capture {:.3} <= share {:.3}",
                        agg.byzantine_sample_share_mean, agg.byzantine_population_share_mean
                    ));
                }
                // ...and only there.
                "byzantine-routers"
                    if agg.backend != "chord" && agg.byzantine_sample_share_mean != 0.0 =>
                {
                    ok = false;
                    checks.push("byzantine:oracle captured samples".to_string());
                }
                _ => {}
            }
        }
    }
    format!(
        "{}: {} scenarios x {} seeds x 2 backends; json -> {}{}",
        if ok { "HOLDS" } else { "CHECK" },
        report.scenarios.len(),
        report.seeds_per_scenario,
        json_path,
        if checks.is_empty() {
            String::new()
        } else {
            format!("; flagged: {}", checks.join(", "))
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
