//! The parallel multi-seed sweep harness.
//!
//! A [`Sweep`] fans a list of [`ScenarioSpec`]s out over seeds and
//! backends, runs every `(scenario, backend, seed)` task on a rayon
//! parallel iterator, and folds the records into a structured, JSON-ready
//! [`SweepReport`]. Each task derives all of its randomness from
//! `derive_seed(master, task_stream)`, and the parallel map preserves task
//! order, so reports are byte-identical across runs and thread counts.

use std::collections::BTreeMap;

use rayon::prelude::*;
use serde::Serialize;
use simnet::rng::derive_seed;
use stats::Welford;

use crate::run::{run_scenario_seed, SeedRunRecord};
use crate::{Backend, ScenarioSpec};

/// Aggregate statistics for one backend of one scenario across seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BackendAggregate {
    /// Backend name.
    pub backend: String,
    /// Seeds aggregated.
    pub seeds: u64,
    /// Mean live population at sampling time.
    pub live_peers_mean: f64,
    /// Mean draw-failure rate.
    pub fail_rate_mean: f64,
    /// Mean of per-seed mean messages per draw.
    pub messages_mean: f64,
    /// Std-dev across seeds of mean messages per draw.
    pub messages_std: f64,
    /// Mean of per-seed mean latency per draw.
    pub latency_mean: f64,
    /// Mean of per-seed mean trials per draw.
    pub trials_mean: f64,
    /// Mean total-variation distance from uniform.
    pub tv_mean: f64,
    /// Worst (largest) total-variation distance across seeds.
    pub tv_worst: f64,
    /// Smallest chi-square p-value across seeds (NaNs skipped).
    pub chi_square_p_min: f64,
    /// Largest chi-square p-value across seeds (NaNs skipped) — a biased
    /// arm must fail uniformity on *every* seed, which this bounds.
    pub chi_square_p_max: f64,
    /// Mean Byzantine population share.
    pub byzantine_population_share_mean: f64,
    /// Mean Byzantine sample share (the capture rate).
    pub byzantine_sample_share_mean: f64,
    /// Mean committee-capture probability at the measured sample share.
    pub committee_capture_p_mean: f64,
    /// Mean committee-capture probability a perfectly uniform sampler
    /// would risk at the same population share (the honest baseline).
    pub committee_capture_p_uniform_mean: f64,
    /// Mean defended-draw quorum failures per seed (0 without a defense
    /// arm).
    pub quorum_failures_mean: f64,
    /// Mean fraction of finger entries stale at sampling time (0 on
    /// oracle backends).
    pub finger_staleness_mean: f64,
    /// Mean dirty maintenance entries outstanding at sampling time (0
    /// outside batched-maintenance chord arms).
    pub maintenance_backlog_mean: f64,
    /// Mean 99th-percentile per-lookup hop count across seeds (0 on
    /// oracle backends).
    pub hop_p99_mean: f64,
    /// Worst 99th-percentile hop count across seeds — the figure the
    /// O(log n) verdict gates bound.
    pub hop_p99_max: u64,
    /// Mean 99th-percentile messages per draw across seeds.
    pub draw_msgs_p99_mean: f64,
    /// Worst 99th-percentile messages per draw across seeds.
    pub draw_msgs_p99_max: u64,
    /// Mean watchdog observation windows per seed (0 on oracle arms).
    pub watchdog_windows_mean: f64,
    /// Mean SLO breach edges per seed.
    pub health_breaches_mean: f64,
    /// Worst time-to-detect across seeds, in watchdog windows. −1 when
    /// any seed never detected a breach (including the no-fault case),
    /// so a detection gate of the form `0 ≤ ttd ≤ k` demands detection
    /// on *every* seed.
    pub time_to_detect_max: i64,
    /// Smallest time-to-recover across seeds. −1 (any seed still
    /// breached at run end) dominates the minimum, so a recovery gate of
    /// `ttr ≥ 0` demands confirmed recovery on every seed.
    pub time_to_recover_min: i64,
    /// Total draws issued while a correlated domain outage was active,
    /// summed across seeds (0 outside failure-domain scenarios).
    pub outage_draws_sum: u64,
    /// Mean during-outage lookup success ratio across seeds (1.0 when no
    /// outage ran — the vacuous case).
    pub outage_success_ratio_mean: f64,
    /// Worst during-outage success ratio across seeds — the figure the
    /// domain-outage verdicts gate (≥ 0.99 with the adaptive arm on).
    pub outage_success_ratio_min: f64,
    /// Async-engine lookups submitted, summed across seeds (0 outside
    /// engine-phase scenarios).
    pub engine_lookups_sum: u64,
    /// Async-engine lookups completed, summed across seeds — the
    /// exactly-once gate compares this against `engine_lookups_sum`.
    pub engine_completed_sum: u64,
    /// Engine deadlines fired, summed across seeds.
    pub engine_timeouts_sum: u64,
    /// Mean 99.9th-percentile engine completion age across seeds.
    pub engine_age_p999_mean: f64,
    /// Worst 99.9th-percentile engine completion age across seeds — the
    /// figure the slow-domain verdicts compare between arms.
    pub engine_age_p999_max: u64,
    /// Worst engine-phase time-to-detect for the in-flight-age rule
    /// across seeds; −1 when any seed never detected (so a gate of
    /// `0 ≤ ttd ≤ k` demands detection on every seed).
    pub engine_ttd_max: i64,
    /// Smallest engine-phase time-to-recover across seeds (−1, any seed
    /// still breached at phase end, dominates the minimum).
    pub engine_ttr_min: i64,
    /// Hop-histogram tail-exemplar slots claimed, summed across seeds (0
    /// on oracle arms) — every tail bucket that can be replayed by
    /// ordinal.
    pub exemplar_count_sum: u64,
    /// Name of the costliest profiler span summed across seeds (empty on
    /// oracle arms; ties break name-ascending, so the pick is
    /// deterministic).
    pub top_span: String,
    /// That span's summed cost, reported in the dash arms table (not
    /// gated by `exp -- report`).
    pub top_span_cost: u64,
    /// Span-profiler costs summed across seeds, name-sorted (empty on
    /// oracle arms).
    pub span_costs: std::collections::BTreeMap<String, u64>,
    /// Element-wise mean across seeds of each per-seed windowed gauge
    /// column — the longitudinal profile of the arm. Ragged seeds (ring
    /// eviction) average the windows present. Order-independent: means
    /// commute, so the aggregate is identical however rayon interleaved
    /// the tasks.
    pub series_mean: std::collections::BTreeMap<String, Vec<f64>>,
    /// Telemetry counters summed across seeds (BTreeMap, so report JSON
    /// lists them in sorted order regardless of how the rayon sweep
    /// interleaved the per-seed tasks). Empty for oracle backends.
    pub counters: std::collections::BTreeMap<String, u64>,
}

impl BackendAggregate {
    fn from_records(backend: Backend, records: &[&SeedRunRecord]) -> BackendAggregate {
        // One fold per column over `records`, in record order: each
        // Welford sees exactly the pushes a single accumulating loop would,
        // so every float is bit-identical.
        let welford =
            |f: fn(&SeedRunRecord) -> f64| records.iter().map(|r| f(r)).collect::<Welford>();
        let mean = |f: fn(&SeedRunRecord) -> f64| welford(f).mean();
        let sum = |f: fn(&SeedRunRecord) -> u64| records.iter().map(|r| f(r)).sum::<u64>();
        let max = |f: fn(&SeedRunRecord) -> u64| records.iter().map(|r| f(r)).max().unwrap_or(0);
        // Worst time-to-detect; −1 when any seed never detected (or there
        // are no seeds).
        let worst_detect = |f: fn(&SeedRunRecord) -> i64| {
            records
                .iter()
                .try_fold(-1, |worst, r| (f(r) >= 0).then(|| worst.max(f(r))))
                .unwrap_or(-1)
        };
        // Best time-to-recover; a −1 seed dominates, 0 with no seeds.
        let best_recover =
            |f: fn(&SeedRunRecord) -> i64| records.iter().map(|r| f(r)).min().unwrap_or(0);
        // Per-worker recorders are merged here by summation into one
        // sorted map, so the aggregate is independent of rayon's task
        // interleaving (each record is already a pure function of its
        // seed; the fold order over a BTreeMap is canonical).
        let sum_maps = |f: fn(&SeedRunRecord) -> &BTreeMap<String, u64>| {
            let mut total = BTreeMap::new();
            for (name, value) in records.iter().flat_map(|r| f(r)) {
                *total.entry(name.clone()).or_insert(0u64) += value;
            }
            total
        };
        let chi: Vec<f64> = records
            .iter()
            .map(|r| r.chi_square_p)
            .filter(|p| p.is_finite())
            .collect();
        let messages = welford(|r| r.mean_messages);
        let span_costs = sum_maps(|r| &r.span_costs);
        // Costliest span, cost-descending with name-ascending ties — the
        // BTreeMap iteration order plus strict `>` makes the pick
        // deterministic.
        let (top_span, top_span_cost) =
            span_costs
                .iter()
                .fold((String::new(), 0u64), |best, (name, &cost)| {
                    if cost > best.1 && cost > 0 {
                        (name.clone(), cost)
                    } else {
                        best
                    }
                });
        let mut series_sum: BTreeMap<String, (Vec<f64>, Vec<u64>)> = BTreeMap::new();
        for (name, column) in records.iter().flat_map(|r| &r.series) {
            let (sums, counts) = series_sum.entry(name.clone()).or_default();
            if sums.len() < column.len() {
                sums.resize(column.len(), 0.0);
                counts.resize(column.len(), 0);
            }
            for (i, v) in column.iter().enumerate() {
                sums[i] += v;
                counts[i] += 1;
            }
        }
        let series_mean = series_sum
            .into_iter()
            .map(|(name, (sums, counts))| {
                let means = sums
                    .into_iter()
                    .zip(counts)
                    .map(|(s, c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect();
                (name, means)
            })
            .collect();
        BackendAggregate {
            backend: backend.name().to_string(),
            seeds: records.len() as u64,
            live_peers_mean: mean(|r| r.live_peers as f64),
            fail_rate_mean: mean(|r| match r.samples_ok + r.samples_failed {
                0 => 0.0,
                total => r.samples_failed as f64 / total as f64,
            }),
            messages_mean: messages.mean(),
            messages_std: messages.std_dev(),
            latency_mean: mean(|r| r.mean_latency),
            trials_mean: mean(|r| r.mean_trials),
            tv_mean: mean(|r| r.tv_from_uniform),
            tv_worst: records
                .iter()
                .map(|r| r.tv_from_uniform)
                .fold(0.0, f64::max),
            chi_square_p_min: chi.iter().copied().reduce(f64::min).unwrap_or(-1.0),
            chi_square_p_max: chi.iter().copied().reduce(f64::max).unwrap_or(-1.0),
            byzantine_population_share_mean: mean(|r| r.byzantine_population_share),
            byzantine_sample_share_mean: mean(|r| r.byzantine_sample_share),
            committee_capture_p_mean: mean(|r| r.committee_capture_p),
            committee_capture_p_uniform_mean: mean(|r| r.committee_capture_p_uniform),
            quorum_failures_mean: mean(|r| r.quorum_failures as f64),
            finger_staleness_mean: mean(|r| r.finger_staleness),
            maintenance_backlog_mean: mean(|r| r.maintenance_backlog as f64),
            hop_p99_mean: mean(|r| r.hop_p99 as f64),
            hop_p99_max: max(|r| r.hop_p99),
            draw_msgs_p99_mean: mean(|r| r.draw_msgs_p99 as f64),
            draw_msgs_p99_max: max(|r| r.draw_msgs_p99),
            watchdog_windows_mean: mean(|r| r.watchdog_windows as f64),
            health_breaches_mean: mean(|r| r.health_breaches as f64),
            time_to_detect_max: worst_detect(|r| r.time_to_detect),
            time_to_recover_min: best_recover(|r| r.time_to_recover),
            outage_draws_sum: sum(|r| r.outage_draws),
            outage_success_ratio_mean: if records.is_empty() {
                1.0
            } else {
                mean(|r| r.outage_success_ratio)
            },
            outage_success_ratio_min: records
                .iter()
                .map(|r| r.outage_success_ratio)
                .fold(1.0, f64::min),
            engine_lookups_sum: sum(|r| r.engine_lookups),
            engine_completed_sum: sum(|r| r.engine_completed),
            engine_timeouts_sum: sum(|r| r.engine_timeouts),
            engine_age_p999_mean: mean(|r| r.engine_age_p999 as f64),
            engine_age_p999_max: max(|r| r.engine_age_p999),
            engine_ttd_max: worst_detect(|r| r.engine_ttd),
            engine_ttr_min: best_recover(|r| r.engine_ttr),
            exemplar_count_sum: sum(|r| r.exemplar_count),
            top_span,
            top_span_cost,
            span_costs,
            series_mean,
            counters: sum_maps(|r| &r.counters),
        }
    }
}

/// All results for one scenario: the spec itself (reports are
/// self-describing), every per-seed record, and per-backend aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// The scenario that produced these results.
    pub spec: ScenarioSpec,
    /// One record per `(backend, seed)`.
    pub runs: Vec<SeedRunRecord>,
    /// Per-backend aggregates over seeds.
    pub aggregates: Vec<BackendAggregate>,
}

/// The full sweep output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// Master seed every task seed derives from.
    pub master_seed: u64,
    /// Seeds run per scenario-backend pair.
    pub seeds_per_scenario: u32,
    /// One report per scenario, in input order.
    pub scenarios: Vec<ScenarioReport>,
}

impl SweepReport {
    /// Compact JSON.
    #[cfg(test)]
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string(self).expect("sweep reports always serialize")
    }

    /// Two-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep reports always serialize")
    }
}

/// A configured multi-seed sweep over a scenario battery.
///
/// # Example
///
/// ```
/// use scenarios::{ScenarioSpec, Sweep};
///
/// let mut spec = ScenarioSpec::preset_honest_static();
/// spec.n_initial = 48;
/// spec.workload.draws = 100;
/// let report = Sweep::new(vec![spec]).with_seeds(2).run();
/// assert_eq!(report.scenarios.len(), 1);
/// assert_eq!(report.scenarios[0].runs.len(), 4); // 2 backends x 2 seeds
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    specs: Vec<ScenarioSpec>,
    master_seed: u64,
    seeds_per_scenario: u32,
}

impl Sweep {
    /// A sweep over `specs` with the default master seed and 8 seeds per
    /// scenario.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<ScenarioSpec>) -> Sweep {
        assert!(!specs.is_empty(), "a sweep needs at least one scenario");
        Sweep {
            specs,
            master_seed: 0x5EED_5CEA_A210_2004,
            seeds_per_scenario: 8,
        }
    }

    /// Overrides the master seed.
    pub fn with_master_seed(mut self, master_seed: u64) -> Sweep {
        self.master_seed = master_seed;
        self
    }

    /// Sets how many seeds each scenario-backend pair runs.
    ///
    /// # Panics
    ///
    /// Panics if `seeds == 0`.
    pub fn with_seeds(mut self, seeds: u32) -> Sweep {
        assert!(seeds > 0, "need at least one seed");
        self.seeds_per_scenario = seeds;
        self
    }

    /// Scales every scenario's initial ring size by `scale` (floor 2) —
    /// the knob that turns a preset battery into a 10⁴–10⁵-node run
    /// without forking the specs. Draw counts and churn rates are left
    /// alone: population is the axis being swept.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn with_scale(mut self, scale: f64) -> Sweep {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale {scale} must be positive and finite"
        );
        for spec in &mut self.specs {
            spec.n_initial = ((spec.n_initial as f64 * scale).round() as usize).max(2);
        }
        self
    }

    /// The task seed for `(scenario_index, seed_index)`.
    ///
    /// Both backends of a pair share it, so they see the same placement
    /// and churn streams — the paired design that makes Oracle-vs-Chord
    /// deltas per-seed meaningful.
    fn task_seed(&self, scenario_index: usize, seed_index: u32) -> u64 {
        derive_seed(
            self.master_seed,
            ((scenario_index as u64) << 32) | seed_index as u64,
        )
    }

    /// Runs every `(scenario, backend, seed)` task in parallel and folds
    /// the records into a report.
    ///
    /// # Panics
    ///
    /// Panics if any spec fails validation (before spawning any work).
    pub fn run(&self) -> SweepReport {
        for spec in &self.specs {
            if let Err(problems) = spec.validate() {
                panic!("invalid scenario {:?}: {problems:?}", spec.name);
            }
        }
        // Flatten to (scenario, backend, seed) tasks; record order is
        // fixed by this list, independent of scheduling.
        let tasks: Vec<(usize, Backend, u64)> = self
            .specs
            .iter()
            .enumerate()
            .flat_map(|(si, spec)| {
                spec.backends.iter().flat_map(move |&backend| {
                    (0..self.seeds_per_scenario).map(move |k| (si, backend, self.task_seed(si, k)))
                })
            })
            .collect();

        let records: Vec<SeedRunRecord> = tasks
            .par_iter()
            .map(|&(si, backend, seed)| run_scenario_seed(&self.specs[si], backend, seed))
            .collect();

        let mut scenarios = Vec::with_capacity(self.specs.len());
        for (si, spec) in self.specs.iter().enumerate() {
            let runs: Vec<SeedRunRecord> = tasks
                .iter()
                .zip(&records)
                .filter(|((ti, _, _), _)| *ti == si)
                .map(|(_, r)| r.clone())
                .collect();
            let aggregates = spec
                .backends
                .iter()
                .map(|&backend| {
                    let of_backend: Vec<&SeedRunRecord> = runs
                        .iter()
                        .filter(|r| r.backend == backend.name())
                        .collect();
                    BackendAggregate::from_records(backend, &of_backend)
                })
                .collect();
            scenarios.push(ScenarioReport {
                spec: spec.clone(),
                runs,
                aggregates,
            });
        }
        SweepReport {
            master_seed: self.master_seed,
            seeds_per_scenario: self.seeds_per_scenario,
            scenarios,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        let mut honest = ScenarioSpec::preset_honest_static();
        let mut byz = ScenarioSpec::preset_byzantine_routers();
        for spec in [&mut honest, &mut byz] {
            spec.n_initial = 64;
            spec.workload.draws = 200;
        }
        vec![honest, byz]
    }

    #[test]
    fn sweep_covers_every_scenario_backend_seed_cell() {
        let report = Sweep::new(tiny_specs()).with_seeds(3).run();
        assert_eq!(report.scenarios.len(), 2);
        for scenario in &report.scenarios {
            assert_eq!(scenario.runs.len(), 6, "2 backends x 3 seeds");
            assert_eq!(scenario.aggregates.len(), 2);
            for agg in &scenario.aggregates {
                assert_eq!(agg.seeds, 3);
            }
            // Distinct seeds per scenario.
            let mut seeds: Vec<u64> = scenario.runs.iter().map(|r| r.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 3);
        }
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        let sweep = Sweep::new(tiny_specs()).with_seeds(2).with_master_seed(99);
        let a = sweep.run();
        let b = sweep.run();
        assert_eq!(a, b, "records must not depend on scheduling");
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
    }

    #[test]
    fn counter_snapshots_are_byte_identical_across_repeated_runs() {
        // The telemetry counter maps, watchdog health-event streams and
        // windowed series ride in every chord record and in the
        // per-backend aggregates; none may depend on how rayon striped
        // the tasks. Three runs, byte-for-byte identical JSON. The
        // crash-churn spec is included so at least one arm emits a
        // non-empty health stream with a real time-to-detect.
        let mut specs = tiny_specs();
        let mut churn = ScenarioSpec::preset_crash_churn();
        churn.n_initial = 96;
        churn.workload.draws = 400;
        specs.push(churn);
        let sweep = Sweep::new(specs).with_seeds(3).with_master_seed(7);
        let baseline = sweep.run().to_json();
        for _ in 0..2 {
            assert_eq!(sweep.run().to_json(), baseline);
        }
        let report = sweep.run();
        // The crash burst is detected on every seed, immediately, and the
        // identical JSON above pins the event stream byte-for-byte.
        let churn_chord = report.scenarios[2]
            .aggregates
            .iter()
            .find(|a| a.backend == Backend::Chord.name())
            .unwrap();
        assert!((0..=2).contains(&churn_chord.time_to_detect_max));
        assert!(churn_chord.health_breaches_mean >= 1.0);
        assert!(churn_chord.watchdog_windows_mean > 1.0);
        assert!(!churn_chord.series_mean.is_empty());
        for r in report.scenarios[2]
            .runs
            .iter()
            .filter(|r| r.backend == "chord")
        {
            assert!(!r.health_events.is_empty(), "churn must breach some rule");
            assert!(r.health_events[0].contains("breach"));
        }
        for scenario in &report.scenarios {
            let chord = scenario
                .aggregates
                .iter()
                .find(|a| a.backend == Backend::Chord.name())
                .unwrap();
            assert!(!chord.counters.is_empty());
            // Aggregate counters are the exact sum of the per-seed maps.
            let mut summed = std::collections::BTreeMap::new();
            for r in scenario.runs.iter().filter(|r| r.backend == "chord") {
                for (name, value) in &r.counters {
                    *summed.entry(name.clone()).or_insert(0u64) += value;
                }
            }
            assert_eq!(chord.counters, summed);
            let oracle = scenario
                .aggregates
                .iter()
                .find(|a| a.backend == Backend::Oracle.name())
                .unwrap();
            assert!(oracle.counters.is_empty());
        }
    }

    #[test]
    fn domain_outage_sweep_reports_are_byte_identical_across_runs() {
        // Satellite determinism gate: the full adaptive arm (scoring +
        // retry + correlated outage) keeps reports a pure function of
        // (spec, master seed) — three runs, byte-for-byte identical —
        // and the outage columns surface in the aggregates.
        let mut spec = ScenarioSpec::preset_domain_outage();
        spec.n_initial = 96;
        spec.workload.draws = 600;
        let sweep = Sweep::new(vec![spec]).with_seeds(2).with_master_seed(23);
        let baseline = sweep.run().to_json();
        for _ in 0..2 {
            assert_eq!(sweep.run().to_json(), baseline);
        }
        let report = sweep.run();
        let chord = report.scenarios[0]
            .aggregates
            .iter()
            .find(|a| a.backend == Backend::Chord.name())
            .unwrap();
        assert!(chord.outage_draws_sum > 0, "the outage must cover draws");
        assert!(chord.outage_success_ratio_min <= chord.outage_success_ratio_mean);
        assert!(
            chord.outage_success_ratio_min >= 0.99,
            "adaptive routing must hold the SLO: {}",
            chord.outage_success_ratio_min
        );
        assert!(chord.counters.contains_key("domain.events"));
    }

    #[test]
    fn aggregates_carry_tail_columns() {
        let report = Sweep::new(tiny_specs()).with_seeds(2).run();
        for scenario in &report.scenarios {
            let chord = scenario
                .aggregates
                .iter()
                .find(|a| a.backend == Backend::Chord.name())
                .unwrap();
            assert!(chord.hop_p99_max > 0);
            assert!(chord.hop_p99_mean <= chord.hop_p99_max as f64);
            assert!(chord.draw_msgs_p99_max > 0);
            let oracle = scenario
                .aggregates
                .iter()
                .find(|a| a.backend == Backend::Oracle.name())
                .unwrap();
            assert_eq!(oracle.hop_p99_max, 0, "the oracle does not route");
            assert!(oracle.draw_msgs_p99_max > 0, "synthetic cost still tails");
        }
    }

    #[test]
    fn report_json_is_machine_readable_and_self_describing() {
        let report = Sweep::new(tiny_specs()).with_seeds(1).run();
        let json = report.to_json_pretty();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let scenarios = value.get("scenarios").and_then(|v| v.as_seq()).unwrap();
        assert_eq!(scenarios.len(), 2);
        // The spec rides inside the report.
        let first = scenarios[0].get("spec").unwrap();
        assert_eq!(
            first.get("name").and_then(|v| v.as_str()),
            Some("honest-static")
        );
        // Both backends appear in the aggregates.
        let aggs = scenarios[0]
            .get("aggregates")
            .and_then(|v| v.as_seq())
            .unwrap();
        let backends: Vec<&str> = aggs
            .iter()
            .map(|a| a.get("backend").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(backends, ["oracle", "chord"]);
    }

    #[test]
    fn with_scale_resizes_every_spec() {
        let mut specs = tiny_specs();
        specs[0].n_initial = 100;
        specs[1].n_initial = 30;
        let sweep = Sweep::new(specs).with_scale(2.5);
        assert_eq!(sweep.specs[0].n_initial, 250);
        assert_eq!(sweep.specs[1].n_initial, 75);
        let shrunk = Sweep::new(tiny_specs()).with_scale(1e-9);
        assert!(shrunk.specs.iter().all(|s| s.n_initial == 2), "floor at 2");
    }

    #[test]
    fn different_master_seeds_differ() {
        let specs = vec![tiny_specs().remove(0)];
        let a = Sweep::new(specs.clone())
            .with_seeds(1)
            .with_master_seed(1)
            .run();
        let b = Sweep::new(specs).with_seeds(1).with_master_seed(2).run();
        assert_ne!(a.scenarios[0].runs, b.scenarios[0].runs);
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn empty_sweep_panics() {
        let _ = Sweep::new(vec![]);
    }
}
