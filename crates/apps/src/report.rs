//! Report regression diffing for `exp -- report`.
//!
//! Loads two machine-readable reports produced by the harness — either two
//! e16 sweep reports (`target/e16_*.json`, the object with a `"scenarios"`
//! key) or two bench trajectory files (`BENCH_*.json`, a history array) —
//! and diffs the gated metrics with tolerance bands. The driver exits
//! non-zero when any metric regressed, so CI can pin a revision range:
//!
//! ```text
//! cargo run --release -p bench --bin exp -- report baseline.json candidate.json
//! ```
//!
//! **Sweep reports** are compared per `(scenario, backend)` pair. Each
//! gated metric has a direction (lower- or higher-is-better) and a band of
//! `max(abs, rel · |baseline|)`; the candidate regresses when it is worse
//! than the baseline by more than the band. A pair present in the baseline
//! but missing from the candidate is itself a regression (an arm silently
//! dropped from the battery); new pairs are reported but benign. The
//! watchdog verdict columns get loss rules instead of bands: a baseline
//! that detected a fault (`time_to_detect ≥ 0`) regresses when the
//! candidate never does (−1) or detects more than two windows later, and a
//! confirmed recovery (`time_to_recover ≥ 0`) regresses when the candidate
//! ends the run still breached.
//!
//! **Bench histories** compare the *latest* entry of each side; a file
//! whose last element is not a `{"sha", "timestamp", "rows"}` entry (an
//! empty array, or the old flat-row layout) is an `Err`. Metric direction
//! is inferred from the key: `*speedup*`/`*ratio*` are higher-is-better —
//! except `*overhead*` keys, which are costs — and everything
//! else numeric (ns, ms, pct, bytes, lookups) is lower-is-better;
//! configuration keys (`bench`, `n`, `*_bar`, `*_budget*`) and scenario
//! constants are skipped. Bands are wide (35% rel) because wall-clock
//! benches are noisy — the *hard* budget enforcement lives in the benches
//! themselves under `RP_ENFORCE_BENCH=1`; this diff flags trajectory
//! drift between recorded points.

use serde_json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Smaller values are better (costs, error rates, tail latencies).
    Lower,
    /// Larger values are better (speedups, p-values).
    Higher,
}

/// A gated sweep metric: where it lives in `BackendAggregate`, which way
/// it improves, and its tolerance band.
struct Gate {
    key: &'static str,
    better: Direction,
    rel: f64,
    abs: f64,
}

/// The `BackendAggregate` columns the sweep diff gates. Bands are sized to
/// the noise observed across seeds: rates get absolute floors so a 0 → ε
/// flip is not a regression, tails get a one-hop/one-message allowance.
const SWEEP_GATES: &[Gate] = &[
    Gate {
        key: "fail_rate_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.01,
    },
    Gate {
        key: "messages_mean",
        better: Direction::Lower,
        rel: 0.15,
        abs: 0.5,
    },
    Gate {
        key: "latency_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.5,
    },
    Gate {
        key: "trials_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.25,
    },
    Gate {
        key: "tv_worst",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.02,
    },
    Gate {
        key: "chi_square_p_min",
        better: Direction::Higher,
        rel: 0.5,
        abs: 0.05,
    },
    Gate {
        key: "byzantine_sample_share_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.02,
    },
    Gate {
        key: "committee_capture_p_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.02,
    },
    Gate {
        key: "quorum_failures_mean",
        better: Direction::Lower,
        rel: 0.5,
        abs: 0.5,
    },
    Gate {
        key: "finger_staleness_mean",
        better: Direction::Lower,
        rel: 0.25,
        abs: 0.02,
    },
    Gate {
        key: "maintenance_backlog_mean",
        better: Direction::Lower,
        rel: 0.5,
        abs: 64.0,
    },
    Gate {
        key: "hop_p99_max",
        better: Direction::Lower,
        rel: 0.25,
        abs: 1.0,
    },
    Gate {
        key: "draw_msgs_p99_max",
        better: Direction::Lower,
        rel: 0.25,
        abs: 2.0,
    },
    Gate {
        key: "health_breaches_mean",
        better: Direction::Lower,
        rel: 0.5,
        abs: 1.0,
    },
    // Async-engine columns (PR 10). The in-flight-age tail is tick-noisy
    // across seeds, and the adaptive arm's deadline count is a cost, not
    // a correctness bit — both get wide bands.
    Gate {
        key: "engine_age_p999_mean",
        better: Direction::Lower,
        rel: 0.30,
        abs: 32.0,
    },
    Gate {
        key: "engine_timeouts_sum",
        better: Direction::Lower,
        rel: 0.5,
        abs: 8.0,
    },
];

/// Allowed detection slowdown before `time_to_detect` counts as
/// regressed, in watchdog windows (matches the e16 `ttd ≤ 2` gate).
const TTD_SLACK_WINDOWS: i64 = 2;

/// Relative band for bench-history metrics (wall-clock noise).
const BENCH_REL: f64 = 0.35;
/// Absolute floor for bench-history bands.
const BENCH_ABS: f64 = 1.0;

/// The outcome of diffing two reports.
///
/// `lines` is the full human-readable comparison (every gated metric,
/// regressed or not); `regressions` repeats just the failures so callers
/// can print a summary and exit non-zero when it is non-empty.
#[derive(Debug, Default)]
pub struct ReportDiff {
    /// One line per compared metric or pair, in report order.
    pub lines: Vec<String>,
    /// One line per detected regression (empty ⇒ candidate is no worse).
    pub regressions: Vec<String>,
}

impl ReportDiff {
    /// True when no gated metric regressed.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs two report JSON documents (baseline, candidate).
///
/// Both must be the same kind — sweep report or bench history; mixing
/// kinds, unparseable JSON, or an unrecognized shape is an `Err` (distinct
/// from a regression: the caller should treat it as usage error).
pub fn diff_reports(baseline: &str, candidate: &str) -> Result<ReportDiff, String> {
    let base: Value =
        serde_json::from_str(baseline).map_err(|e| format!("baseline: unparseable JSON ({e})"))?;
    let cand: Value = serde_json::from_str(candidate)
        .map_err(|e| format!("candidate: unparseable JSON ({e})"))?;
    match (kind_of(&base)?, kind_of(&cand)?) {
        (Kind::Sweep, Kind::Sweep) => Ok(diff_sweeps(&base, &cand)),
        (Kind::Bench, Kind::Bench) => diff_bench_histories(&base, &cand),
        (b, c) => Err(format!(
            "kind mismatch: baseline is {b:?}, candidate is {c:?}"
        )),
    }
}

/// Recognized report shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// An e16 `SweepReport` (object with a `scenarios` array).
    Sweep,
    /// A `BENCH_*.json` trajectory (array of history entries).
    Bench,
}

/// The shape of a parsed report, or a usage error naming what it is.
pub(crate) fn kind_of(v: &Value) -> Result<Kind, String> {
    if v.get("scenarios").is_some() {
        Ok(Kind::Sweep)
    } else if v.as_seq().is_some() {
        Ok(Kind::Bench)
    } else {
        Err(format!(
            "unrecognized report shape ({}): expected a sweep report object \
             with \"scenarios\" or a bench history array",
            v.kind()
        ))
    }
}

/// Numeric coercion for the shim's `Value`.
fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Integer coercion (for the ttd/ttr columns, which are exact).
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => i64::try_from(*i).ok(),
        _ => None,
    }
}

/// `(scenario name, backend name) -> aggregate` for one sweep report.
fn aggregate_index(report: &Value) -> Vec<((String, String), &Value)> {
    let mut out = Vec::new();
    let scenarios = report
        .get("scenarios")
        .and_then(Value::as_seq)
        .unwrap_or(&[]);
    for scenario in scenarios {
        let name = scenario
            .get("spec")
            .and_then(|s| s.get("name"))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let aggregates = scenario
            .get("aggregates")
            .and_then(Value::as_seq)
            .unwrap_or(&[]);
        for agg in aggregates {
            let backend = agg
                .get("backend")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            out.push(((name.clone(), backend), agg));
        }
    }
    out
}

/// How much worse the candidate is than the baseline (positive = worse).
fn worse_by(better: Direction, base: f64, cand: f64) -> f64 {
    match better {
        Direction::Lower => cand - base,
        Direction::Higher => base - cand,
    }
}

fn diff_sweeps(base: &Value, cand: &Value) -> ReportDiff {
    let mut diff = ReportDiff::default();
    let base_index = aggregate_index(base);
    let cand_index = aggregate_index(cand);
    for ((scenario, backend), base_agg) in &base_index {
        let arm = format!("{scenario}/{backend}");
        let Some((_, cand_agg)) = cand_index
            .iter()
            .find(|(k, _)| k == &(scenario.clone(), backend.clone()))
        else {
            let line = format!("{arm}: MISSING from candidate");
            diff.lines.push(line.clone());
            diff.regressions.push(line);
            continue;
        };
        for gate in SWEEP_GATES {
            let (Some(b), Some(c)) = (
                base_agg.get(gate.key).and_then(num),
                cand_agg.get(gate.key).and_then(num),
            ) else {
                continue; // column absent on one side (older report) — not gated
            };
            let band = gate.abs.max(gate.rel * b.abs());
            let worse = worse_by(gate.better, b, c);
            let regressed = worse > band;
            let status = if regressed { "REGRESSED" } else { "ok" };
            diff.lines.push(format!(
                "{arm} {key}: {b:.4} -> {c:.4} (band {band:.4}, {status})",
                key = gate.key,
            ));
            if regressed {
                diff.regressions.push(format!(
                    "{arm} {key}: {b:.4} -> {c:.4} exceeds band {band:.4}",
                    key = gate.key
                ));
            }
        }
        diff_watchdog_columns(&arm, base_agg, cand_agg, &mut diff);
        // Columns the candidate reports but the baseline predates are
        // surfaced, not silently skipped: a freshly-gated metric (say a
        // new success-ratio verdict column) must show up in the diff
        // even though there is nothing to compare it against yet.
        for (key, val) in cand_agg.as_map().into_iter().flatten() {
            if base_agg.get(key).is_none() && num(val).is_some() {
                diff.lines
                    .push(format!("{arm} {key}: new metric, not compared"));
            }
        }
    }
    for ((scenario, backend), _) in &cand_index {
        if !base_index
            .iter()
            .any(|(k, _)| k == &(scenario.clone(), backend.clone()))
        {
            diff.lines.push(format!(
                "{scenario}/{backend}: new in candidate (not gated)"
            ));
        }
    }
    diff
}

/// Loss rules for the watchdog verdict columns (−1 sentinels make plain
/// numeric bands meaningless here). The draw-phase watchdog columns and
/// the engine phase's in-flight-age columns share the same semantics, so
/// they share the same rules.
fn diff_watchdog_columns(arm: &str, base: &Value, cand: &Value, diff: &mut ReportDiff) {
    for detect_key in ["time_to_detect_max", "engine_ttd_max"] {
        if let (Some(b), Some(c)) = (
            base.get(detect_key).and_then(int),
            cand.get(detect_key).and_then(int),
        ) {
            let regressed = b >= 0 && (c < 0 || c > b + TTD_SLACK_WINDOWS);
            diff.lines.push(format!(
                "{arm} {detect_key}: {b} -> {c} ({})",
                if regressed { "REGRESSED" } else { "ok" }
            ));
            if regressed {
                diff.regressions.push(format!(
                    "{arm} {detect_key}: baseline detected in {b} windows, candidate {}",
                    if c < 0 {
                        "never detects".to_string()
                    } else {
                        format!("takes {c}")
                    }
                ));
            }
        }
    }
    for recover_key in ["time_to_recover_min", "engine_ttr_min"] {
        if let (Some(b), Some(c)) = (
            base.get(recover_key).and_then(int),
            cand.get(recover_key).and_then(int),
        ) {
            let regressed = b >= 0 && c < 0;
            diff.lines.push(format!(
                "{arm} {recover_key}: {b} -> {c} ({})",
                if regressed { "REGRESSED" } else { "ok" }
            ));
            if regressed {
                diff.regressions.push(format!(
                    "{arm} {recover_key}: baseline recovered, candidate still breached at run end"
                ));
            }
        }
    }
}

/// The rows of a bench history's last entry
/// (`{"sha", "timestamp", "rows": [...]}`), plus its sha.
fn latest_rows<'a>(history: &'a Value, side: &str) -> Result<(&'a str, &'a [Value]), String> {
    let last = history.as_seq().and_then(<[Value]>::last);
    let rows = last.and_then(|e| e.get("rows")).and_then(Value::as_seq);
    match (last, rows) {
        (Some(last), Some(rows)) => {
            Ok((last.get("sha").and_then(Value::as_str).unwrap_or("?"), rows))
        }
        _ => Err(format!(
            "{side}: not a bench history (the last element is not a \
             {{\"sha\", \"timestamp\", \"rows\"}} entry)"
        )),
    }
}

/// Keys that are configuration or scenario constants, not measurements.
fn bench_key_skipped(key: &str) -> bool {
    key == "bench"
        || key == "n"
        || key == "maintenance_full_round_lookups"
        || key == "maintenance_dirty_after_64_crashes"
        || key.ends_with("_bar")
        || key.contains("_budget")
}

fn bench_direction(key: &str) -> Direction {
    // Overhead ratios (e.g. `engine_overhead_ratio`) are cost divided by
    // baseline: lower is better, despite the `ratio` suffix.
    if key.contains("overhead") {
        Direction::Lower
    } else if key.contains("speedup") || key.contains("ratio") {
        Direction::Higher
    } else {
        Direction::Lower
    }
}

fn diff_bench_histories(base: &Value, cand: &Value) -> Result<ReportDiff, String> {
    let mut diff = ReportDiff::default();
    let (base_sha, base_rows) = latest_rows(base, "baseline")?;
    let (cand_sha, cand_rows) = latest_rows(cand, "candidate")?;
    diff.lines
        .push(format!("comparing bench entries {base_sha} -> {cand_sha}"));
    let row_key = |row: &Value| {
        (
            row.get("bench")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            row.get("n").and_then(int).unwrap_or(0),
        )
    };
    for base_row in base_rows {
        let (bench, n) = row_key(base_row);
        let arm = format!("{bench}@n={n}");
        let Some(cand_row) = cand_rows.iter().find(|r| row_key(r) == (bench.clone(), n)) else {
            let line = format!("{arm}: MISSING from candidate");
            diff.lines.push(line.clone());
            diff.regressions.push(line);
            continue;
        };
        for (key, base_val) in base_row.as_map().unwrap_or(&[]) {
            if bench_key_skipped(key) {
                continue;
            }
            let (Some(b), Some(c)) = (num(base_val), cand_row.get(key).and_then(num)) else {
                continue;
            };
            let band = BENCH_ABS.max(BENCH_REL * b.abs());
            let worse = worse_by(bench_direction(key), b, c);
            let regressed = worse > band;
            diff.lines.push(format!(
                "{arm} {key}: {b:.2} -> {c:.2} (band {band:.2}, {})",
                if regressed { "REGRESSED" } else { "ok" }
            ));
            if regressed {
                diff.regressions.push(format!(
                    "{arm} {key}: {b:.2} -> {c:.2} exceeds band {band:.2}"
                ));
            }
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal sweep report with one crash-churn chord arm.
    fn sweep_json(hop_p99_max: u64, ttd: i64, ttr: i64) -> String {
        format!(
            r#"{{
  "seed": 7, "seeds_per_scenario": 2,
  "scenarios": [
    {{
      "spec": {{"name": "crash-churn"}},
      "runs": [],
      "aggregates": [
        {{"backend": "chord", "fail_rate_mean": 0.0, "messages_mean": 12.5,
          "tv_worst": 0.08, "hop_p99_max": {hop_p99_max},
          "time_to_detect_max": {ttd}, "time_to_recover_min": {ttr}}}
      ]
    }}
  ]
}}"#
        )
    }

    #[test]
    fn identical_sweep_reports_are_clean() {
        let report = sweep_json(9, 0, -1);
        let diff = diff_reports(&report, &report).unwrap();
        assert!(
            diff.clean(),
            "unexpected regressions: {:?}",
            diff.regressions
        );
        assert!(!diff.lines.is_empty());
    }

    #[test]
    fn perturbed_hop_tail_regresses() {
        let diff = diff_reports(&sweep_json(9, 0, -1), &sweep_json(14, 0, -1)).unwrap();
        assert_eq!(diff.regressions.len(), 1, "{:?}", diff.regressions);
        assert!(diff.regressions[0].contains("hop_p99_max"));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let diff = diff_reports(&sweep_json(14, 0, -1), &sweep_json(9, 0, -1)).unwrap();
        assert!(diff.clean(), "{:?}", diff.regressions);
    }

    #[test]
    fn lost_detection_regresses_but_never_detected_baseline_does_not() {
        let lost = diff_reports(&sweep_json(9, 1, -1), &sweep_json(9, -1, -1)).unwrap();
        assert!(
            lost.regressions.iter().any(|r| r.contains("never detects")),
            "{:?}",
            lost.regressions
        );
        let both_undetected = diff_reports(&sweep_json(9, -1, -1), &sweep_json(9, -1, -1)).unwrap();
        assert!(both_undetected.clean());
    }

    #[test]
    fn lost_recovery_regresses() {
        let diff = diff_reports(&sweep_json(9, 0, 3), &sweep_json(9, 0, -1)).unwrap();
        assert!(
            diff.regressions
                .iter()
                .any(|r| r.contains("time_to_recover")),
            "{:?}",
            diff.regressions
        );
    }

    #[test]
    fn missing_arm_regresses() {
        let empty = r#"{"seed": 7, "seeds_per_scenario": 2, "scenarios": []}"#;
        let diff = diff_reports(&sweep_json(9, 0, -1), empty).unwrap();
        assert!(
            diff.regressions.iter().any(|r| r.contains("MISSING")),
            "{:?}",
            diff.regressions
        );
        // New arms in the candidate are benign.
        let reverse = diff_reports(empty, &sweep_json(9, 0, -1)).unwrap();
        assert!(reverse.clean());
    }

    #[test]
    fn new_verdict_column_is_reported_not_silently_skipped() {
        let base = sweep_json(9, 0, -1);
        let cand = base.replace(
            "\"tv_worst\": 0.08,",
            "\"tv_worst\": 0.08, \"outage_success_ratio_min\": 0.995,",
        );
        assert_ne!(base, cand);
        let diff = diff_reports(&base, &cand).unwrap();
        // Uncomparable but visible — and never a regression.
        assert!(diff.clean(), "{:?}", diff.regressions);
        assert!(
            diff.lines
                .iter()
                .any(|l| l.contains("outage_success_ratio_min: new metric, not compared")),
            "{:?}",
            diff.lines
        );
        // The same column on both sides is compared, not re-flagged.
        let both = diff_reports(&cand, &cand).unwrap();
        assert!(
            !both.lines.iter().any(|l| l.contains("new metric")),
            "{:?}",
            both.lines
        );
    }

    #[test]
    fn pr8_era_baseline_sees_exemplar_and_span_columns_as_new_not_regressed() {
        // A baseline recorded before the explainability columns existed
        // (no exemplar_count_sum / top_span_cost / span_costs) must diff
        // cleanly against a candidate that carries them: the numeric
        // additions surface under the "new metric, not compared" rule and
        // nothing regresses.
        let baseline = sweep_json(9, 0, -1);
        let candidate = baseline.replace(
            "\"tv_worst\": 0.08,",
            "\"tv_worst\": 0.08, \"exemplar_count_sum\": 12, \"top_span_cost\": 900, \
             \"top_span\": \"lookup;finger_walk\", \
             \"span_costs\": {\"lookup;finger_walk\": 900, \"lookup;retry_backoff\": 48},",
        );
        assert_ne!(baseline, candidate);
        let diff = diff_reports(&baseline, &candidate).unwrap();
        assert!(diff.clean(), "{:?}", diff.regressions);
        for key in ["exemplar_count_sum", "top_span_cost"] {
            assert!(
                diff.lines
                    .iter()
                    .any(|l| l.contains(&format!("{key}: new metric, not compared"))),
                "{key} not surfaced: {:?}",
                diff.lines
            );
        }
        // Same columns on both sides: compared or ignored, never re-flagged.
        let both = diff_reports(&candidate, &candidate).unwrap();
        assert!(both.clean());
        assert!(!both.lines.iter().any(|l| l.contains("new metric")));
    }

    /// A sweep report with one engine-battery chord arm (PR 10 columns).
    fn engine_sweep_json(p999: u64, timeouts: u64, ttd: i64, ttr: i64) -> String {
        format!(
            r#"{{
  "seed": 7, "seeds_per_scenario": 2,
  "scenarios": [
    {{
      "spec": {{"name": "engine-slowdomain-adaptive"}},
      "runs": [],
      "aggregates": [
        {{"backend": "chord", "fail_rate_mean": 0.0,
          "engine_age_p999_mean": {p999}.0, "engine_timeouts_sum": {timeouts},
          "engine_ttd_max": {ttd}, "engine_ttr_min": {ttr}}}
      ]
    }}
  ]
}}"#
        )
    }

    #[test]
    fn engine_columns_get_bands_and_loss_rules() {
        let base = engine_sweep_json(400, 8, 1, 4);
        assert!(diff_reports(&base, &base).unwrap().clean());
        // A doubled in-flight-age tail regresses.
        let slow = diff_reports(&base, &engine_sweep_json(800, 8, 1, 4)).unwrap();
        assert!(
            slow.regressions
                .iter()
                .any(|r| r.contains("engine_age_p999_mean")),
            "{:?}",
            slow.regressions
        );
        // Losing slow-sector detection regresses; a later-but-in-slack
        // detection does not.
        let lost = diff_reports(&base, &engine_sweep_json(400, 8, -1, 0)).unwrap();
        assert!(
            lost.regressions
                .iter()
                .any(|r| r.contains("engine_ttd_max") && r.contains("never detects")),
            "{:?}",
            lost.regressions
        );
        assert!(diff_reports(&base, &engine_sweep_json(400, 8, 2, 4))
            .unwrap()
            .clean());
        // A run that no longer recovers by run end regresses.
        let stuck = diff_reports(&base, &engine_sweep_json(400, 8, 1, -1)).unwrap();
        assert!(
            stuck
                .regressions
                .iter()
                .any(|r| r.contains("engine_ttr_min")),
            "{:?}",
            stuck.regressions
        );
        // A pre-engine baseline sees the columns as new, never regressed.
        let old = sweep_json(9, 0, -1).replace("crash-churn", "engine-slowdomain-adaptive");
        let diff = diff_reports(&old, &engine_sweep_json(400, 8, 1, 4)).unwrap();
        assert!(diff.clean(), "{:?}", diff.regressions);
    }

    fn bench_history(lookup_ns: u64, speedup: f64) -> String {
        format!(
            r#"[{{"sha": "abc", "timestamp": 1, "rows": [
                {{"bench": "chord_scale", "n": 100000, "lookup_ns": {lookup_ns},
                  "verify_speedup": {speedup}, "verify_bar": 20,
                  "telemetry_overhead_budget_pct": 2}}]}}]"#
        )
    }

    #[test]
    fn bench_history_compares_latest_entries_direction_aware() {
        let base = bench_history(4000, 300.0);
        assert!(diff_reports(&base, &base).unwrap().clean());
        // 2x slower lookups: regression.
        let slow = diff_reports(&base, &bench_history(8000, 300.0)).unwrap();
        assert!(
            slow.regressions.iter().any(|r| r.contains("lookup_ns")),
            "{:?}",
            slow.regressions
        );
        // Halved speedup: regression (higher-is-better direction).
        let unsped = diff_reports(&base, &bench_history(4000, 100.0)).unwrap();
        assert!(
            unsped
                .regressions
                .iter()
                .any(|r| r.contains("verify_speedup")),
            "{:?}",
            unsped.regressions
        );
        // Faster + bigger speedup: clean.
        assert!(diff_reports(&base, &bench_history(2000, 600.0))
            .unwrap()
            .clean());
    }

    #[test]
    fn overhead_ratios_are_lower_is_better_despite_the_ratio_suffix() {
        let row = |ratio: f64| {
            format!(
                r#"[{{"sha": "abc", "timestamp": 1, "rows": [
                    {{"bench": "chord_scale", "n": 100000,
                      "engine_overhead_ratio": {ratio}, "engine_overhead_bar": 1.1}}]}}]"#
            )
        };
        // 0.95x -> 2.4x: the engine got slower relative to the sync walk;
        // a naive `*ratio*`-means-higher rule would call this an improvement.
        let worse = diff_reports(&row(0.95), &row(2.4)).unwrap();
        assert!(
            worse
                .regressions
                .iter()
                .any(|r| r.contains("engine_overhead_ratio")),
            "{:?}",
            worse.regressions
        );
        // Getting cheaper is clean.
        assert!(diff_reports(&row(0.95), &row(0.80)).unwrap().clean());
    }

    #[test]
    fn flat_row_files_are_errors_not_histories() {
        let flat = r#"[{"bench": "ringidx_vs_scan", "n": 1000, "successor_index_ns": 22.6,
                        "successor_speedup": 51.3}]"#;
        let history = bench_history(4000, 300.0);
        for (base, cand, side) in [
            (flat, history.as_str(), "baseline"),
            (history.as_str(), flat, "candidate"),
            ("[]", history.as_str(), "baseline"),
        ] {
            let err = diff_reports(base, cand).unwrap_err();
            assert!(
                err.starts_with(side) && err.contains("not a bench history"),
                "{err}"
            );
        }
    }

    #[test]
    fn kind_mismatch_and_garbage_are_errors_not_regressions() {
        let sweep = sweep_json(9, 0, -1);
        let bench = bench_history(4000, 300.0);
        assert!(diff_reports(&sweep, &bench).is_err());
        assert!(diff_reports("not json", &sweep).is_err());
        assert!(diff_reports(r#"{"neither": 1}"#, &sweep).is_err());
    }
}
