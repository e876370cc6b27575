//! The declarative scenario schema.
//!
//! A [`ScenarioSpec`] is plain data — serde-round-trippable, diffable,
//! checkable into a repo — that fully determines a simulation once a seed
//! is fixed: ring placement × adversary × churn schedule × workload ×
//! backends. `ScenarioSpec::presets()` ships the standard adversarial
//! battery every sweep starts from.

use serde::{Deserialize, Serialize};

/// Which DHT implementation answers the paper's two primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// `peer_sampling::OracleDht`: direct sorted-array answers with
    /// synthetic costs — the idealized control arm. Churn is applied to
    /// the membership set only (the oracle has no routing state to go
    /// stale) and adversaries cannot subvert it (there is no routing to
    /// lie on), so Oracle-vs-Chord deltas isolate the cost of realism.
    Oracle,
    /// The oracle with a *bounded-lag* membership view: the client
    /// samples against the membership as it stood `lag_ticks` before the
    /// churn horizon, while correctness is judged against the current
    /// population. Draws that land on peers that have since departed
    /// fail (the contact bounces); peers that joined inside the lag
    /// window are unreachable. Sitting between the fresh oracle and
    /// Chord, this arm separates *staleness* cost from *routing* cost:
    /// oracle-vs-stale is pure staleness, stale-vs-chord is pure
    /// routing-repair.
    StaleOracle {
        /// How many ticks behind the churn horizon the view lags.
        lag_ticks: u64,
    },
    /// `chord::ChordDht`: real iterative routing over a simulated Chord
    /// overlay, with churn damaging routing state and Byzantine fault
    /// plans injected into `find_successor` / `next`.
    Chord,
}

impl Backend {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Oracle => "oracle",
            Backend::StaleOracle { .. } => "stale-oracle",
            Backend::Chord => "chord",
        }
    }
}

/// How peer points are placed on the ring.
///
/// The paper assumes i.i.d. uniform placement (the random-oracle hash
/// assumption); the other models deliberately break it, because topology
/// shape alone can flip cost results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementModel {
    /// I.i.d. uniform points — the paper's model.
    Uniform,
    /// Peers huddle in `clusters` equally-spaced clusters, each spanning
    /// `spread_fraction` of the ring. Produces huge empty arcs and dense
    /// runs of tiny arcs — the geometry that stresses supplementation
    /// scans hardest.
    Clustered {
        /// Number of cluster centers (equally spaced).
        clusters: usize,
        /// Fraction of the ring each cluster's points spread over.
        spread_fraction: f64,
    },
    /// Power-law-skewed placement: points land at `M · uᵉ` for uniform
    /// `u`, so mass concentrates near the ring origin as `exponent`
    /// grows above 1 (a model of correlated identifiers / bad hashes).
    Skewed {
        /// Concentration exponent (1 = uniform).
        exponent: f64,
    },
}

/// A coordinated coalition attack (serde mirror of
/// `adversary::CoalitionStrategy`; see that crate's README for the
/// threat-model table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoalitionStrategySpec {
    /// Sybils seize the largest honest gap-arcs: optimal placement at gap
    /// ends, self-reported positions forged to claim full gap measure,
    /// routed lookups through members captured.
    SybilArcCapture,
    /// Corrupted incumbents lie only about their own position, only for
    /// lookups they genuinely own — the stealthiest strategy.
    AdaptiveArcLiars,
    /// Sybils shadow a run of consecutive honest victims and eclipse them
    /// from every supplementation scan.
    EclipseRun,
}

impl CoalitionStrategySpec {
    /// Stable lowercase name used in reports and preset names.
    pub fn name(self) -> &'static str {
        self.to_strategy().name()
    }

    /// The executable strategy this spec names.
    pub fn to_strategy(self) -> adversary::CoalitionStrategy {
        match self {
            CoalitionStrategySpec::SybilArcCapture => adversary::CoalitionStrategy::SybilArcCapture,
            CoalitionStrategySpec::AdaptiveArcLiars => {
                adversary::CoalitionStrategy::AdaptiveArcLiars
            }
            CoalitionStrategySpec::EclipseRun => adversary::CoalitionStrategy::EclipseRun,
        }
    }

    /// Every strategy, in battery order.
    pub fn all() -> [CoalitionStrategySpec; 3] {
        [
            CoalitionStrategySpec::SybilArcCapture,
            CoalitionStrategySpec::AdaptiveArcLiars,
            CoalitionStrategySpec::EclipseRun,
        ]
    }
}

/// Who misbehaves, and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdversaryModel {
    /// Every peer follows the protocol.
    Honest,
    /// A fraction of peers misreport routing answers (see
    /// `chord::FaultPlan`): lookups reaching them are captured
    /// (`claim_ownership`) and/or their successor pointer eclipses the
    /// true next peer (`eclipse_next`). Chord-only; the oracle backend
    /// has no routing to subvert.
    ByzantineRouters {
        /// Fraction of live peers that are Byzantine, in `[0, 1]`.
        fraction: f64,
        /// Whether Byzantine hops capture `find_successor`.
        claim_ownership: bool,
        /// Whether Byzantine peers misreport `next(p)`.
        eclipse_next: bool,
    },
    /// A coordinated coalition: placement and per-node lies compiled by
    /// `adversary::compile_coalition` against the honest ring. Sybil
    /// strategies *add* members (so the coalition is `fraction` of the
    /// final population); corrupt-existing strategies convert incumbents.
    /// Chord-only and static-churn-only: the coalition places itself
    /// against a known ring, which churn would silently invalidate.
    Coalition {
        /// The coordinated strategy.
        strategy: CoalitionStrategySpec,
        /// Coalition share of the final population, in `(0, 0.5)`.
        fraction: f64,
    },
}

/// The client-side defense arm (see `adversary::DefendedSampler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseModel {
    /// The paper's plain sampler: trust every answer.
    None,
    /// Verified redundant sampling: every resolution is issued through
    /// `entries` disjoint-entry views in verified-position mode, and a
    /// strict majority must agree. Chord-only (the oracle cannot lie).
    Quorum {
        /// Number of disjoint entry views (odd values make the strict
        /// majority cleanest; 3 tolerates one captured route).
        entries: usize,
    },
}

impl DefenseModel {
    /// Whether any defense is active.
    pub fn is_active(&self) -> bool {
        !matches!(self, DefenseModel::None)
    }
}

/// One phase of a churn schedule, in ticks (serde-friendly mirror of
/// `simnet::churn::ChurnPhase`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPhaseSpec {
    /// Phase length in ticks.
    pub duration_ticks: u64,
    /// Mean node arrivals per 1000 ticks.
    pub arrivals_per_1000_ticks: f64,
    /// Mean session lifetime in ticks for nodes joining in this phase.
    pub mean_lifetime_ticks: u64,
    /// Fraction of departures that are silent crashes, in `[0, 1]`.
    pub crash_fraction: f64,
}

/// Membership dynamics over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnModel {
    /// No membership changes: the paper's static-ring setting.
    Static,
    /// Stationary M/M/∞ churn for `horizon_ticks`.
    Poisson {
        /// Mean node arrivals per 1000 ticks.
        arrivals_per_1000_ticks: f64,
        /// Mean session lifetime in ticks.
        mean_lifetime_ticks: u64,
        /// Fraction of departures that are crashes, in `[0, 1]`.
        crash_fraction: f64,
        /// Total schedule length in ticks.
        horizon_ticks: u64,
    },
    /// Piecewise-stationary churn: storms, flash crowds, recoveries.
    Phased {
        /// The phases, run back to back.
        phases: Vec<ChurnPhaseSpec>,
    },
}

impl ChurnModel {
    /// Whether the model produces any membership events.
    pub fn is_static(&self) -> bool {
        matches!(self, ChurnModel::Static)
    }
}

/// What the sampling client does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// Uniform-sample draws to attempt (after churn completes).
    pub draws: u32,
    /// Derive the sampler configuration from §2's network-size estimator
    /// running over the same backend (deployment mode) instead of from
    /// the true live count (oracle-knowledge mode).
    pub estimate_n: bool,
}

/// Sampler tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerTuning {
    /// Multiplier applied to the known live count when `estimate_n` is
    /// off (models a stale or conservative `n_upper`).
    pub n_upper_inflation: f64,
    /// Rejection-loop retry cap per draw.
    pub max_trials: u32,
}

impl Default for SamplerTuning {
    fn default() -> SamplerTuning {
        SamplerTuning {
            n_upper_inflation: 1.0,
            max_trials: 256,
        }
    }
}

/// How the chord overlay spends maintenance work during churny runs
/// (serde mirror of `chord::MaintenanceBudget` plus the classic path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceSpec {
    /// The classic full round: every live node stabilizes and fixes one
    /// finger level per tick — O(n) routed lookups per round, the
    /// pre-batching behaviour (and still the default).
    FullRefresh,
    /// Batched incremental maintenance, draining the whole dirty set
    /// each tick: amortized O(changes · log n) work per round. The only
    /// way 10⁷-node chord arms fit a wall-clock budget.
    BatchedDrain,
}

impl MaintenanceSpec {
    /// The chord budget this spec compiles to; `None` selects the
    /// classic full-refresh round.
    pub fn budget(self) -> Option<chord::MaintenanceBudget> {
        match self {
            MaintenanceSpec::FullRefresh => None,
            MaintenanceSpec::BatchedDrain => Some(chord::MaintenanceBudget::unlimited()),
        }
    }
}

/// Observability knobs (see the `telemetry` crate and
/// `docs/OBSERVABILITY.md`).
///
/// Counters and the hop histogram are always on — they are lock-free
/// atomics whose cost is unmeasurable against routed lookups — so the only
/// knob is span-style lookup tracing, which allocates per-hop records and
/// is therefore opt-in. Tracing never perturbs the simulation: traces draw
/// nothing from any RNG and add no messages or latency, so a record stays
/// a pure function of `(spec, backend, seed)` with tracing on or off (only
/// the report's `trace_digest` field changes, from empty to populated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Record the full hop path of every `find_successor` walk into the
    /// flight-recorder ring buffer (chord backends only; the oracle does
    /// not route).
    pub trace_lookups: bool,
    /// Flight-recorder capacity in traces: the ring keeps the most recent
    /// this-many lookups for post-mortem dumps. The trace *digest* covers
    /// every trace ever pushed, so it is capacity-independent.
    pub flight_recorder_capacity: u32,
}

impl Default for TelemetrySpec {
    fn default() -> TelemetrySpec {
        TelemetrySpec {
            trace_lookups: false,
            flight_recorder_capacity: 64,
        }
    }
}

/// Correlated failure domains and a scripted mid-workload outage.
///
/// The ring is partitioned into `domains` equal sectors (racks/regions;
/// see `simnet::DomainMap`) and domains `0..crash_domains` crash *as a
/// unit* partway through the draw loop: every live member dies in the
/// same instant at `outage_start` (a fraction of the configured draws)
/// and the survivors rejoin at `outage_end`. Unlike Poisson churn —
/// independent per-node failures with maintenance running throughout —
/// this is the correlated regime the paper's i.i.d. assumptions exclude:
/// a contiguous arc of the ring vanishes at once, successor lists die
/// in blocks, and lookups must degrade through fallbacks until repair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureDomainSpec {
    /// Number of equal ring sectors (racks). Must be >= 2.
    pub domains: u32,
    /// How many sectors (domains `0..crash_domains`) crash together.
    /// Must be >= 1 and < `domains`, so some of the ring survives.
    pub crash_domains: u32,
    /// Draw-loop fraction in `[0, 1)` at which the outage begins.
    pub outage_start: f64,
    /// Draw-loop fraction in `(outage_start, 1]` at which the crashed
    /// members rejoin and maintenance drains the repair backlog.
    pub outage_end: f64,
}

impl FailureDomainSpec {
    /// Fraction of the ring (by sector measure) the outage takes down.
    #[cfg(test)]
    pub(crate) fn crashed_fraction(&self) -> f64 {
        f64::from(self.crash_domains) / f64::from(self.domains.max(1))
    }
}

/// A serializable mirror of [`simnet::LatencyModel`]: per-message delay
/// distributions for the chord substrate. Specs carry this (plain data)
/// and compile it to the simnet model at run time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencySpec {
    /// Every message takes exactly `ticks` ticks.
    Constant {
        /// Per-message delay in ticks (clamped to >= 1 by the model).
        ticks: u64,
    },
    /// Uniform delay in `[lo, hi]` ticks.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Heavy-tailed log-normal delay around `median` ticks.
    LogNormal {
        /// Median delay in ticks.
        median: u64,
        /// Shape parameter sigma of the underlying normal.
        sigma: f64,
    },
}

impl LatencySpec {
    /// Compile to the simnet model the chord substrate samples from.
    pub fn to_model(self) -> simnet::LatencyModel {
        match self {
            LatencySpec::Constant { ticks } => simnet::LatencyModel::Constant(ticks),
            LatencySpec::Uniform { lo, hi } => simnet::LatencyModel::Uniform { lo, hi },
            LatencySpec::LogNormal { median, sigma } => {
                simnet::LatencyModel::LogNormal { median, sigma }
            }
        }
    }
}

/// A *delay* fault for the engine phase: `slow` of `domains` equal ring
/// sectors answer `factor`× late for a window of the engine phase. The
/// sector is alive — every lookup still succeeds — so crash-oriented
/// SLOs see nothing; only latency-tail and in-flight-age monitoring can
/// detect it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowDomainSpec {
    /// Number of equal ring sectors. Must be >= 2.
    pub domains: u32,
    /// How many sectors (domains `0..slow`) run slow. Must be >= 1 and
    /// < `domains`, so requests have somewhere fast to route through.
    pub slow: u32,
    /// Wall-clock delay multiplier for messages answered by slow-sector
    /// nodes. Must be >= 2 (1 would be a no-op arm).
    pub factor: u64,
    /// Engine-phase fraction in `[0, 1)` at which the slowdown starts.
    pub start_frac: f64,
    /// Engine-phase fraction in `(start_frac, 1]` at which it ends.
    pub end_frac: f64,
}

/// The async lookup-engine phase (chord-only): after the draw loop, a
/// batch of concurrent in-flight lookups is driven through
/// `chord::LookupEngine` — explicit messages over the simnet event
/// queue, per-request deadlines feeding the retry tiers — and the
/// completion-age tail is recorded and watchdog-monitored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Max concurrently in-flight lookups (excess queues in a backlog).
    pub inflight: u32,
    /// Per-attempt deadline in ticks; a request whose answer is later
    /// than this re-enters the retry tiers.
    pub timeout_ticks: u64,
    /// Total lookups submitted to the engine phase.
    pub lookups: u32,
    /// Number of observation windows the engine phase is split into
    /// (each closes a telemetry window and feeds the watchdog).
    pub windows: u32,
    /// Simulated ticks per observation window.
    pub window_ticks: u64,
    /// Optional slow-sector delay fault injected mid-phase.
    pub slow: Option<SlowDomainSpec>,
}

impl Default for EngineSpec {
    fn default() -> EngineSpec {
        EngineSpec {
            inflight: 256,
            timeout_ticks: 512,
            lookups: 2_000,
            windows: 8,
            window_ticks: 256,
            slow: None,
        }
    }
}

/// Client/substrate resilience knobs for the chord backend: adaptive
/// peer scoring and retry/fallback routing (see `chord::PeerScores` and
/// `chord::RetryPolicy`). Chord-only — the oracle has no routing to
/// score or retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdaptiveRoutingSpec {
    /// Maintain per-peer EWMA responsiveness scores and rank alternative
    /// next-hops (lower finger levels) to probe penalized peers last.
    pub peer_scoring: bool,
    /// Retry failed lookups with deterministic backoff, then degrade
    /// through successor-walk and verified-quorum fallbacks instead of
    /// surfacing the error.
    pub retry: bool,
}

impl AdaptiveRoutingSpec {
    /// Whether any resilience knob is on.
    pub fn is_active(&self) -> bool {
        self.peer_scoring || self.retry
    }

    /// Both knobs on — the full graceful-degradation arm.
    pub fn full() -> AdaptiveRoutingSpec {
        AdaptiveRoutingSpec {
            peer_scoring: true,
            retry: true,
        }
    }
}

/// Chord substrate tuning (ignored by the oracle backend).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChordTuning {
    /// Successor-list length `r`.
    pub successor_list_len: usize,
    /// Maintenance tick interval during churny runs.
    pub stabilize_every_ticks: u64,
    /// What a maintenance tick does: classic full refresh, batched
    /// drain, or a budgeted batched round.
    pub maintenance: MaintenanceSpec,
    /// Per-message latency model for the chord substrate. `None` (the
    /// default, and what omitting the key in JSON reads as) keeps the
    /// unit-constant model, under which accounted latency equals the
    /// message count.
    pub latency: Option<LatencySpec>,
}

impl Default for ChordTuning {
    fn default() -> ChordTuning {
        ChordTuning {
            successor_list_len: 8,
            stabilize_every_ticks: 250,
            maintenance: MaintenanceSpec::FullRefresh,
            latency: None,
        }
    }
}

/// A complete, runnable scenario description.
///
/// # Example
///
/// ```
/// use scenarios::ScenarioSpec;
///
/// let spec = ScenarioSpec::preset_byzantine_routers();
/// let json = serde_json::to_string_pretty(&spec).unwrap();
/// let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (report key).
    pub name: String,
    /// Initial ring size before churn.
    pub n_initial: usize,
    /// Ring-placement model.
    pub placement: PlacementModel,
    /// Adversary model.
    pub adversary: AdversaryModel,
    /// Client-side defense arm.
    pub defense: DefenseModel,
    /// Churn schedule.
    pub churn: ChurnModel,
    /// Client workload.
    pub workload: WorkloadMix,
    /// Sampler tuning.
    pub sampler: SamplerTuning,
    /// Chord substrate tuning.
    pub chord: ChordTuning,
    /// Observability knobs.
    pub telemetry: TelemetrySpec,
    /// Correlated failure domains and the scripted outage window.
    /// `None` (the default, and what omitting the key in JSON reads as)
    /// means no domain structure.
    pub domains: Option<FailureDomainSpec>,
    /// Adaptive routing / retry resilience knobs (chord-only).
    pub adaptive: AdaptiveRoutingSpec,
    /// Async lookup-engine phase (chord-only). `None` (the default, and
    /// what omitting the key in JSON reads as) skips the engine phase.
    pub engine: Option<EngineSpec>,
    /// Backends to run the spec against.
    pub backends: Vec<Backend>,
}

impl ScenarioSpec {
    /// A baseline spec: uniform placement, honest, static, both backends.
    fn baseline(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            n_initial: 256,
            placement: PlacementModel::Uniform,
            adversary: AdversaryModel::Honest,
            defense: DefenseModel::None,
            churn: ChurnModel::Static,
            workload: WorkloadMix {
                draws: 2_000,
                estimate_n: false,
            },
            sampler: SamplerTuning::default(),
            chord: ChordTuning::default(),
            telemetry: TelemetrySpec::default(),
            domains: None,
            adaptive: AdaptiveRoutingSpec::default(),
            engine: None,
            backends: vec![Backend::Oracle, Backend::Chord],
        }
    }

    /// The paper's own setting: static honest uniform ring. Everything
    /// else is measured against this control.
    pub fn preset_honest_static() -> ScenarioSpec {
        ScenarioSpec::baseline("honest-static")
    }

    /// Crash-heavy Poisson churn: sessions are short and 90% of
    /// departures are silent crashes, so routing state decays as fast as
    /// stabilization can repair it. Runs a third, *stale-oracle* arm
    /// lagging 2 000 ticks behind the horizon, so the report separates
    /// staleness cost (oracle vs stale) from routing-repair cost (stale
    /// vs chord).
    pub fn preset_crash_churn() -> ScenarioSpec {
        ScenarioSpec {
            churn: ChurnModel::Poisson {
                arrivals_per_1000_ticks: 40.0,
                mean_lifetime_ticks: 8_000,
                crash_fraction: 0.9,
                horizon_ticks: 20_000,
            },
            backends: vec![
                Backend::Oracle,
                Backend::StaleOracle { lag_ticks: 2_000 },
                Backend::Chord,
            ],
            ..ScenarioSpec::baseline("crash-churn")
        }
    }

    /// 10% of peers are Byzantine routers: they capture lookups that
    /// route through them (forging their reported position) and eclipse
    /// their true successor.
    pub fn preset_byzantine_routers() -> ScenarioSpec {
        ScenarioSpec {
            adversary: AdversaryModel::ByzantineRouters {
                fraction: 0.10,
                claim_ownership: true,
                eclipse_next: true,
            },
            ..ScenarioSpec::baseline("byzantine-routers")
        }
    }

    /// Pathological geometry: peers huddle in 8 tight clusters, leaving
    /// huge empty arcs — the adversarial placement for supplementation
    /// scans and `n`-estimation.
    pub fn preset_clustered_ring() -> ScenarioSpec {
        ScenarioSpec {
            placement: PlacementModel::Clustered {
                clusters: 8,
                spread_fraction: 0.002,
            },
            ..ScenarioSpec::baseline("clustered-ring")
        }
    }

    /// A flash crowd: calm traffic, then an arrival burst at 20× the base
    /// rate (long-lived joiners, no crashes), then calm again.
    pub fn preset_flash_crowd() -> ScenarioSpec {
        ScenarioSpec {
            churn: ChurnModel::Phased {
                phases: vec![
                    ChurnPhaseSpec {
                        duration_ticks: 5_000,
                        arrivals_per_1000_ticks: 5.0,
                        mean_lifetime_ticks: 200_000,
                        crash_fraction: 0.1,
                    },
                    ChurnPhaseSpec {
                        duration_ticks: 5_000,
                        arrivals_per_1000_ticks: 100.0,
                        mean_lifetime_ticks: 200_000,
                        crash_fraction: 0.0,
                    },
                    ChurnPhaseSpec {
                        duration_ticks: 5_000,
                        arrivals_per_1000_ticks: 5.0,
                        mean_lifetime_ticks: 200_000,
                        crash_fraction: 0.1,
                    },
                ],
            },
            ..ScenarioSpec::baseline("flash-crowd")
        }
    }

    /// The scale workload: a 10,000-peer ring (10⁴–10⁵ with the sweep
    /// harness's scale knob) under light crash churn, exercising bulk
    /// construction and the incremental ground-truth index rather than the
    /// adversary models. Fewer draws than the small presets — at this size
    /// the cost of interest is building and churning the ring itself.
    pub fn preset_scale_stress() -> ScenarioSpec {
        ScenarioSpec {
            n_initial: 10_000,
            churn: ChurnModel::Poisson {
                arrivals_per_1000_ticks: 50.0,
                mean_lifetime_ticks: 100_000,
                crash_fraction: 0.5,
                horizon_ticks: 10_000,
            },
            workload: WorkloadMix {
                draws: 1_000,
                estimate_n: false,
            },
            ..ScenarioSpec::baseline("scale-stress")
        }
    }

    /// One coalition arm: `strategy` at coalition share `fraction`,
    /// undefended. Chord-only (coalitions subvert routing; the oracle has
    /// none) and static (placement is compiled against a known ring);
    /// more draws than the small presets because the chi-square verdicts
    /// need per-cell mass.
    pub fn preset_coalition(strategy: CoalitionStrategySpec, fraction: f64) -> ScenarioSpec {
        ScenarioSpec {
            adversary: AdversaryModel::Coalition { strategy, fraction },
            workload: WorkloadMix {
                draws: 4_000,
                estimate_n: false,
            },
            backends: vec![Backend::Chord],
            ..ScenarioSpec::baseline(&format!(
                "{}-b{:02}",
                strategy.name(),
                (fraction * 100.0).round() as u32
            ))
        }
    }

    /// Returns this spec with the verified redundant-sampling defense
    /// switched on (`entries` disjoint-entry views) and `-defended`
    /// appended to the name.
    pub fn with_defense(mut self, entries: usize) -> ScenarioSpec {
        self.defense = DefenseModel::Quorum { entries };
        self.name.push_str("-defended");
        self
    }

    /// The sybil-arc-capture coalition at 10% of the population.
    pub fn preset_sybil_arc_capture() -> ScenarioSpec {
        ScenarioSpec::preset_coalition(CoalitionStrategySpec::SybilArcCapture, 0.10)
    }

    /// The adaptive arc-liar coalition at 10% of the population.
    pub fn preset_adaptive_liars() -> ScenarioSpec {
        ScenarioSpec::preset_coalition(CoalitionStrategySpec::AdaptiveArcLiars, 0.10)
    }

    /// The coordinated-eclipse coalition at 10% of the population.
    #[cfg(test)]
    pub(crate) fn preset_eclipse_run() -> ScenarioSpec {
        ScenarioSpec::preset_coalition(CoalitionStrategySpec::EclipseRun, 0.10)
    }

    /// The full coalition battery: every strategy × every budget in
    /// `fractions` × {undefended, defended with a 3-entry quorum} — the
    /// attack/defense grid e16 measures.
    pub fn coalition_battery(fractions: &[f64]) -> Vec<ScenarioSpec> {
        let mut specs =
            Vec::with_capacity(CoalitionStrategySpec::all().len() * fractions.len() * 2);
        for strategy in CoalitionStrategySpec::all() {
            for &fraction in fractions {
                let base = ScenarioSpec::preset_coalition(strategy, fraction);
                specs.push(base.clone());
                specs.push(base.with_defense(3));
            }
        }
        specs
    }

    /// A correlated rack outage with the full resilience arm on: the
    /// ring is cut into 8 sectors and 2 of them (25% of the ring, the
    /// top of the ISSUE's 10–25% band) crash as a unit a quarter of the
    /// way through the draws, healing at the three-quarter mark.
    /// Chord-only (the oracle has no routing state for a correlated
    /// crash to damage) and static-churn (the outage *is* the
    /// membership dynamics; layering Poisson churn on top would
    /// confound the attribution).
    pub fn preset_domain_outage() -> ScenarioSpec {
        ScenarioSpec {
            domains: Some(FailureDomainSpec {
                domains: 8,
                crash_domains: 2,
                outage_start: 0.25,
                outage_end: 0.75,
            }),
            adaptive: AdaptiveRoutingSpec::full(),
            backends: vec![Backend::Chord],
            ..ScenarioSpec::baseline("domain-outage")
        }
    }

    /// The domain-outage battery: the same correlated outage with the
    /// resilience knobs toggled — `baseline` (neither), `scored`
    /// (peer scoring only), `retry` (retry/fallback only) and
    /// `adaptive` (both) — so the report isolates what each knob buys
    /// *during* the outage.
    pub fn domain_battery() -> Vec<ScenarioSpec> {
        let arms = [
            ("domain-outage-baseline", false, false),
            ("domain-outage-scored", true, false),
            ("domain-outage-retry", false, true),
            ("domain-outage-adaptive", true, true),
        ];
        arms.into_iter()
            .map(|(name, peer_scoring, retry)| {
                let mut spec = ScenarioSpec::preset_domain_outage();
                spec.name = name.to_string();
                spec.adaptive = AdaptiveRoutingSpec {
                    peer_scoring,
                    retry,
                };
                spec
            })
            .collect()
    }

    /// The async-engine delay-fault scenario: a constant-4-tick wire, a
    /// concurrent in-flight lookup phase, and one of eight ring sectors
    /// turning 32× slow — *alive*, answering late — for the middle half
    /// of the phase. Chord-only and static-churn for the same
    /// attribution reasons as
    /// [`preset_domain_outage`](ScenarioSpec::preset_domain_outage):
    /// the slowdown is the only dynamics, so the age-tail verdicts are
    /// attributable to it.
    pub fn preset_engine_slowdomain() -> ScenarioSpec {
        ScenarioSpec {
            chord: ChordTuning {
                latency: Some(LatencySpec::Constant { ticks: 4 }),
                ..ChordTuning::default()
            },
            engine: Some(EngineSpec {
                timeout_ticks: 144,
                slow: Some(SlowDomainSpec {
                    domains: 8,
                    slow: 1,
                    factor: 32,
                    start_frac: 0.25,
                    end_frac: 0.75,
                }),
                ..EngineSpec::default()
            }),
            adaptive: AdaptiveRoutingSpec::full(),
            backends: vec![Backend::Chord],
            ..ScenarioSpec::baseline("engine-slowdomain")
        }
    }

    /// The engine battery: the same slow-sector delay fault with the
    /// resilience knobs off (`baseline`) and on (`adaptive`), so the
    /// report isolates what deadline-driven retries + peer scoring buy
    /// against a latency fault that kills no lookup.
    pub fn engine_battery() -> Vec<ScenarioSpec> {
        let arms = [
            ("engine-slowdomain-baseline", AdaptiveRoutingSpec::default()),
            ("engine-slowdomain-adaptive", AdaptiveRoutingSpec::full()),
        ];
        arms.into_iter()
            .map(|(name, adaptive)| {
                let mut spec = ScenarioSpec::preset_engine_slowdomain();
                spec.name = name.to_string();
                spec.adaptive = adaptive;
                spec
            })
            .collect()
    }

    /// The standard adversarial battery, one preset per model family.
    pub fn presets() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::preset_honest_static(),
            ScenarioSpec::preset_crash_churn(),
            ScenarioSpec::preset_byzantine_routers(),
            ScenarioSpec::preset_clustered_ring(),
            ScenarioSpec::preset_flash_crowd(),
            ScenarioSpec::preset_scale_stress(),
        ]
    }

    /// Validates internal consistency, returning every problem found.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.name.is_empty() {
            problems.push("name must be non-empty".to_string());
        }
        if self.n_initial < 2 {
            problems.push(format!("n_initial {} < 2", self.n_initial));
        }
        if self.backends.is_empty() {
            problems.push("backends must be non-empty".to_string());
        }
        if self.workload.draws == 0 {
            problems.push("workload.draws must be positive".to_string());
        }
        if self.sampler.max_trials == 0 {
            problems.push("sampler.max_trials must be positive".to_string());
        }
        if self.sampler.n_upper_inflation < 1.0 || !self.sampler.n_upper_inflation.is_finite() {
            problems.push(format!(
                "sampler.n_upper_inflation {} < 1",
                self.sampler.n_upper_inflation
            ));
        }
        if self.telemetry.trace_lookups && self.telemetry.flight_recorder_capacity == 0 {
            problems.push(
                "telemetry.flight_recorder_capacity must be positive when tracing".to_string(),
            );
        }
        match &self.placement {
            PlacementModel::Uniform => {}
            PlacementModel::Clustered {
                clusters,
                spread_fraction,
            } => {
                if *clusters == 0 {
                    problems.push("clustered placement needs >= 1 cluster".to_string());
                }
                if !(*spread_fraction > 0.0 && *spread_fraction <= 1.0) {
                    problems.push(format!("spread_fraction {spread_fraction} outside (0, 1]"));
                }
            }
            PlacementModel::Skewed { exponent } => {
                if !(*exponent > 0.0 && exponent.is_finite()) {
                    problems.push(format!("skew exponent {exponent} must be positive"));
                }
            }
        }
        match &self.adversary {
            AdversaryModel::Honest => {}
            AdversaryModel::ByzantineRouters { fraction, .. } => {
                if !(0.0..=1.0).contains(fraction) {
                    problems.push(format!("byzantine fraction {fraction} outside [0, 1]"));
                }
            }
            AdversaryModel::Coalition { fraction, .. } => {
                if !(*fraction > 0.0 && *fraction < 0.5) {
                    problems.push(format!("coalition fraction {fraction} outside (0, 0.5)"));
                }
                if self.backends.iter().any(|b| *b != Backend::Chord) {
                    problems.push(
                        "coalition adversaries are chord-only (no routing to subvert elsewhere)"
                            .to_string(),
                    );
                }
                if !self.churn.is_static() {
                    problems.push(
                        "coalition placement is compiled against a static ring; churn would \
                         silently invalidate it"
                            .to_string(),
                    );
                }
            }
        }
        if let DefenseModel::Quorum { entries } = &self.defense {
            if !(1..=15).contains(entries) {
                problems.push(format!("defense quorum entries {entries} outside 1..=15"));
            }
            // Oracle backends have no routing to defend and would silently
            // run undefended while the report advertises a defended arm.
            if self.backends.iter().any(|b| *b != Backend::Chord) {
                problems.push(
                    "quorum defense is chord-only (oracle backends would run undefended \
                     under a defended name)"
                        .to_string(),
                );
            }
        }
        if let Some(domains) = &self.domains {
            if domains.domains < 2 {
                problems.push(format!("failure domains {} < 2", domains.domains));
            }
            if domains.crash_domains == 0 {
                problems.push("crash_domains must be >= 1 (else there is no outage)".to_string());
            }
            if domains.crash_domains >= domains.domains {
                problems.push(format!(
                    "crash_domains {} must leave survivors (domains = {})",
                    domains.crash_domains, domains.domains
                ));
            }
            if !(domains.outage_start >= 0.0 && domains.outage_start < 1.0) {
                problems.push(format!(
                    "outage_start {} outside [0, 1)",
                    domains.outage_start
                ));
            }
            if !(domains.outage_end > domains.outage_start && domains.outage_end <= 1.0) {
                problems.push(format!(
                    "outage_end {} outside ({}, 1]",
                    domains.outage_end, domains.outage_start
                ));
            }
            // The outage crashes a correlated arc of *routing* state;
            // the oracle backends have none, and would report a
            // domain-outage arm that never experienced an outage.
            if self.backends.iter().any(|b| *b != Backend::Chord) {
                problems.push(
                    "failure domains are chord-only (the oracle has no routing state for a \
                     correlated crash to damage)"
                        .to_string(),
                );
            }
            if !self.churn.is_static() {
                problems.push(
                    "failure-domain outages require static churn (the outage is the membership \
                     dynamics; layered churn would confound attribution)"
                        .to_string(),
                );
            }
            if self.defense.is_active() {
                problems.push(
                    "failure-domain outages run undefended (one resilience mechanism per arm: \
                     quorum defense and retry/fallback would confound each other's attribution)"
                        .to_string(),
                );
            }
        }
        if self.adaptive.is_active() && self.backends.iter().any(|b| *b != Backend::Chord) {
            problems.push(
                "adaptive routing / retry is chord-only (oracle backends would silently run \
                 plain under an adaptive name)"
                    .to_string(),
            );
        }
        if let Some(LatencySpec::Uniform { lo, hi }) = &self.chord.latency {
            if lo > hi {
                problems.push(format!(
                    "chord.latency uniform bounds inverted: {lo} > {hi}"
                ));
            }
        }
        if let Some(LatencySpec::LogNormal { sigma, .. }) = &self.chord.latency {
            if !(*sigma >= 0.0 && sigma.is_finite()) {
                problems.push(format!("chord.latency log-normal sigma {sigma} invalid"));
            }
        }
        if let Some(engine) = &self.engine {
            if engine.inflight == 0 {
                problems.push("engine.inflight must be positive".to_string());
            }
            if engine.timeout_ticks == 0 {
                problems.push("engine.timeout_ticks must be positive".to_string());
            }
            if engine.lookups == 0 {
                problems.push("engine.lookups must be positive".to_string());
            }
            if engine.windows == 0 {
                problems.push("engine.windows must be positive".to_string());
            }
            if engine.window_ticks == 0 {
                problems.push("engine.window_ticks must be positive".to_string());
            }
            // The engine drives real find_successor walks; the oracle
            // backends have no messages to put in flight.
            if self.backends.iter().any(|b| *b != Backend::Chord) {
                problems.push(
                    "the engine phase is chord-only (the oracle has no messages to put in \
                     flight)"
                        .to_string(),
                );
            }
            if let Some(slow) = &engine.slow {
                if slow.domains < 2 {
                    problems.push(format!("engine slow domains {} < 2", slow.domains));
                }
                if slow.slow == 0 {
                    problems.push("engine slow sectors must be >= 1 (else no fault)".to_string());
                }
                if slow.slow >= slow.domains {
                    problems.push(format!(
                        "engine slow sectors {} must leave fast sectors (domains = {})",
                        slow.slow, slow.domains
                    ));
                }
                if slow.factor < 2 {
                    problems.push(format!("engine slow factor {} < 2 is a no-op", slow.factor));
                }
                if !(slow.start_frac >= 0.0 && slow.start_frac < 1.0) {
                    problems.push(format!(
                        "engine slow start_frac {} outside [0, 1)",
                        slow.start_frac
                    ));
                }
                if !(slow.end_frac > slow.start_frac && slow.end_frac <= 1.0) {
                    problems.push(format!(
                        "engine slow end_frac {} outside ({}, 1]",
                        slow.end_frac, slow.start_frac
                    ));
                }
            }
        }
        for backend in &self.backends {
            if matches!(backend, Backend::StaleOracle { lag_ticks: 0 }) {
                problems.push("stale-oracle lag must be positive (use Oracle for lag 0)".into());
            }
        }
        // Reports key arms by backend *name*, so two backends sharing a
        // name (e.g. two stale-oracle lags) would produce
        // indistinguishable aggregate rows; sweep lags across specs
        // instead.
        let mut names: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            problems.push("backends must have distinct report names (one arm per name)".into());
        }
        match &self.churn {
            ChurnModel::Static => {}
            ChurnModel::Poisson {
                arrivals_per_1000_ticks,
                mean_lifetime_ticks,
                crash_fraction,
                horizon_ticks,
            } => {
                if *arrivals_per_1000_ticks <= 0.0 || arrivals_per_1000_ticks.is_nan() {
                    problems.push("poisson arrival rate must be positive".to_string());
                }
                if *mean_lifetime_ticks == 0 {
                    problems.push("poisson mean lifetime must be positive".to_string());
                }
                if !(0.0..=1.0).contains(crash_fraction) {
                    problems.push(format!("crash fraction {crash_fraction} outside [0, 1]"));
                }
                if *horizon_ticks == 0 {
                    problems.push("poisson horizon must be positive".to_string());
                }
            }
            ChurnModel::Phased { phases } => {
                if phases.is_empty() {
                    problems.push("phased churn needs >= 1 phase".to_string());
                }
                for (i, p) in phases.iter().enumerate() {
                    if p.duration_ticks == 0 {
                        problems.push(format!("phase {i} duration must be positive"));
                    }
                    if p.arrivals_per_1000_ticks <= 0.0 || p.arrivals_per_1000_ticks.is_nan() {
                        problems.push(format!("phase {i} arrival rate must be positive"));
                    }
                    if p.mean_lifetime_ticks == 0 {
                        problems.push(format!("phase {i} mean lifetime must be positive"));
                    }
                    if !(0.0..=1.0).contains(&p.crash_fraction) {
                        problems.push(format!("phase {i} crash fraction outside [0, 1]"));
                    }
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_distinct_and_cover_the_required_models() {
        let presets = ScenarioSpec::presets();
        assert!(presets.len() >= 4, "the battery must ship >= 4 models");
        let names: std::collections::HashSet<_> = presets.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), presets.len(), "preset names must be unique");
        for spec in &presets {
            spec.validate().unwrap_or_else(|problems| {
                panic!("{} invalid: {problems:?}", spec.name);
            });
            assert!(spec.backends.contains(&Backend::Oracle));
            assert!(spec.backends.contains(&Backend::Chord));
        }
        // The four required model families.
        assert!(presets.iter().any(|s| s.adversary == AdversaryModel::Honest
            && s.churn.is_static()
            && s.placement == PlacementModel::Uniform));
        assert!(presets.iter().any(
            |s| matches!(&s.churn, ChurnModel::Poisson { crash_fraction, .. }
                if *crash_fraction > 0.5)
        ));
        assert!(presets
            .iter()
            .any(|s| matches!(s.adversary, AdversaryModel::ByzantineRouters { .. })));
        assert!(presets
            .iter()
            .any(|s| matches!(s.placement, PlacementModel::Clustered { .. })));
    }

    #[test]
    fn every_preset_roundtrips_through_json() {
        for spec in ScenarioSpec::presets() {
            let compact = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&compact).unwrap();
            assert_eq!(back, spec, "compact roundtrip of {}", spec.name);
            let pretty = serde_json::to_string_pretty(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&pretty).unwrap();
            assert_eq!(back, spec, "pretty roundtrip of {}", spec.name);
        }
    }

    #[test]
    fn handwritten_json_parses() {
        let text = r#"{
            "name": "tiny",
            "n_initial": 32,
            "placement": {"Skewed": {"exponent": 3.0}},
            "adversary": "Honest",
            "defense": "None",
            "churn": "Static",
            "workload": {"draws": 100, "estimate_n": true},
            "sampler": {"n_upper_inflation": 2.0, "max_trials": 64},
            "chord": {"successor_list_len": 4, "stabilize_every_ticks": 100,
                      "maintenance": "BatchedDrain"},
            "telemetry": {"trace_lookups": true, "flight_recorder_capacity": 16},
            "adaptive": {"peer_scoring": false, "retry": false},
            "backends": ["Oracle", "Chord"]
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(text).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.placement, PlacementModel::Skewed { exponent: 3.0 });
        assert!(spec.workload.estimate_n);
        // `domains`, `engine` and `chord.latency` are omitted above:
        // pre-domain / pre-engine spec files must keep parsing, with the
        // missing keys reading as "feature off".
        assert_eq!(spec.domains, None);
        assert_eq!(spec.engine, None);
        assert_eq!(spec.chord.latency, None);
        assert!(!spec.adaptive.is_active());
        assert_eq!(spec.chord.maintenance, MaintenanceSpec::BatchedDrain);
        assert!(spec.telemetry.trace_lookups);
        assert_eq!(spec.telemetry.flight_recorder_capacity, 16);
        spec.validate().unwrap();
    }

    #[test]
    fn batched_maintenance_budget_is_rejected_at_parse_time() {
        // The per-round budget knob is gone: a spec naming it must fail
        // to parse, not silently fall back to another maintenance mode.
        let text = r#"{
            "name": "tiny",
            "n_initial": 32,
            "placement": "Uniform",
            "adversary": "Honest",
            "defense": "None",
            "churn": "Static",
            "workload": {"draws": 100, "estimate_n": true},
            "sampler": {"n_upper_inflation": 2.0, "max_trials": 64},
            "chord": {"successor_list_len": 4, "stabilize_every_ticks": 100,
                      "maintenance": {"Batched": {"budget_per_round": 32}}},
            "telemetry": {"trace_lookups": false, "flight_recorder_capacity": 16},
            "adaptive": {"peer_scoring": false, "retry": false},
            "backends": ["Oracle", "Chord"]
        }"#;
        assert!(serde_json::from_str::<ScenarioSpec>(text).is_err());
        let drained = text.replace(
            r#"{"Batched": {"budget_per_round": 32}}"#,
            r#""BatchedDrain""#,
        );
        let spec: ScenarioSpec = serde_json::from_str(&drained).unwrap();
        assert_eq!(spec.chord.maintenance, MaintenanceSpec::BatchedDrain);
    }

    #[test]
    fn telemetry_defaults_off_and_validates_capacity() {
        let spec = ScenarioSpec::preset_honest_static();
        assert!(!spec.telemetry.trace_lookups, "tracing is opt-in");
        assert_eq!(spec.telemetry.flight_recorder_capacity, 64);
        // Tracing into a zero-capacity flight recorder is a spec bug.
        let mut traced = ScenarioSpec::preset_honest_static();
        traced.telemetry = TelemetrySpec {
            trace_lookups: true,
            flight_recorder_capacity: 0,
        };
        assert!(traced.validate().is_err());
        traced.telemetry.flight_recorder_capacity = 8;
        traced.validate().unwrap();
        // An idle recorder may advertise any capacity.
        let mut idle = ScenarioSpec::preset_honest_static();
        idle.telemetry.flight_recorder_capacity = 0;
        idle.validate().unwrap();
    }

    #[test]
    fn maintenance_specs_roundtrip_and_compile_to_budgets() {
        let variants = [MaintenanceSpec::FullRefresh, MaintenanceSpec::BatchedDrain];
        for m in variants {
            let json = serde_json::to_string(&m).unwrap();
            let back: MaintenanceSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m, "{json}");
        }
        assert_eq!(MaintenanceSpec::FullRefresh.budget(), None);
        assert_eq!(
            MaintenanceSpec::BatchedDrain.budget(),
            Some(chord::MaintenanceBudget::unlimited())
        );
        // The default tuning keeps the classic path: batching is opt-in.
        assert_eq!(
            ChordTuning::default().maintenance,
            MaintenanceSpec::FullRefresh
        );
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = ScenarioSpec::preset_honest_static();
        spec.name.clear();
        spec.n_initial = 1;
        spec.backends.clear();
        spec.adversary = AdversaryModel::ByzantineRouters {
            fraction: 2.0,
            claim_ownership: true,
            eclipse_next: false,
        };
        let problems = spec.validate().unwrap_err();
        assert!(problems.len() >= 4, "{problems:?}");
        // Non-finite inflation must be rejected, not silently saturate.
        let mut inf = ScenarioSpec::preset_honest_static();
        inf.sampler.n_upper_inflation = f64::INFINITY;
        assert!(inf.validate().is_err());
        let mut nan = ScenarioSpec::preset_honest_static();
        nan.sampler.n_upper_inflation = f64::NAN;
        assert!(nan.validate().is_err());
    }

    #[test]
    fn coalition_battery_covers_the_attack_defense_grid() {
        let battery = ScenarioSpec::coalition_battery(&[0.05, 0.1]);
        assert_eq!(battery.len(), 12, "3 strategies x 2 budgets x ±defense");
        let names: std::collections::HashSet<_> = battery.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), battery.len(), "names must be unique");
        for spec in &battery {
            spec.validate().unwrap_or_else(|problems| {
                panic!("{} invalid: {problems:?}", spec.name);
            });
            assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
            assert!(spec.churn.is_static(), "{}", spec.name);
            let defended = matches!(spec.defense, DefenseModel::Quorum { .. });
            assert_eq!(
                spec.name.ends_with("-defended"),
                defended,
                "{}: name must advertise the defense arm",
                spec.name
            );
        }
        for strategy in CoalitionStrategySpec::all() {
            assert_eq!(
                battery
                    .iter()
                    .filter(|s| s.name.starts_with(strategy.name()))
                    .count(),
                4,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn coalition_specs_roundtrip_and_reject_bad_shapes() {
        for spec in ScenarioSpec::coalition_battery(&[0.1]) {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
        // Coalition on a non-chord backend is rejected.
        let mut spec = ScenarioSpec::preset_sybil_arc_capture();
        spec.backends = vec![Backend::Oracle, Backend::Chord];
        assert!(spec.validate().is_err());
        // Coalition under churn is rejected.
        let mut spec = ScenarioSpec::preset_eclipse_run();
        spec.churn = ScenarioSpec::preset_crash_churn().churn;
        assert!(spec.validate().is_err());
        // Out-of-range budgets are rejected.
        for fraction in [0.0, 0.5, 0.9] {
            let mut spec = ScenarioSpec::preset_adaptive_liars();
            spec.adversary = AdversaryModel::Coalition {
                strategy: CoalitionStrategySpec::AdaptiveArcLiars,
                fraction,
            };
            assert!(spec.validate().is_err(), "fraction {fraction}");
        }
        // Degenerate quorums are rejected.
        let mut spec = ScenarioSpec::preset_sybil_arc_capture().with_defense(3);
        spec.defense = DefenseModel::Quorum { entries: 0 };
        assert!(spec.validate().is_err());
        assert!(DefenseModel::Quorum { entries: 3 }.is_active());
        assert!(!DefenseModel::None.is_active());
    }

    #[test]
    fn stale_oracle_backend_is_named_validated_and_rides_crash_churn() {
        let spec = ScenarioSpec::preset_crash_churn();
        spec.validate().unwrap();
        assert!(spec
            .backends
            .contains(&Backend::StaleOracle { lag_ticks: 2_000 }));
        assert_eq!(Backend::StaleOracle { lag_ticks: 7 }.name(), "stale-oracle");
        let mut bad = spec.clone();
        bad.backends = vec![Backend::StaleOracle { lag_ticks: 0 }];
        assert!(bad.validate().is_err(), "zero lag is the plain oracle");
        // Every entry is checked, not just the first stale one.
        let mut hidden = spec.clone();
        hidden.backends = vec![
            Backend::StaleOracle { lag_ticks: 2_000 },
            Backend::StaleOracle { lag_ticks: 0 },
        ];
        assert!(hidden.validate().is_err(), "zero lag hidden in second slot");
        // Two lags share the report name "stale-oracle": their aggregate
        // rows would be indistinguishable, so the spec is rejected.
        let mut twin = spec;
        twin.backends = vec![
            Backend::StaleOracle { lag_ticks: 1_000 },
            Backend::StaleOracle { lag_ticks: 5_000 },
        ];
        assert!(twin.validate().is_err(), "duplicate backend names");
    }

    #[test]
    fn quorum_defense_requires_chord_only_backends() {
        let mut spec = ScenarioSpec::preset_honest_static().with_defense(3);
        // The baseline runs both backends; a defended oracle arm would
        // silently run undefended under a defended name.
        assert!(spec.validate().is_err());
        spec.backends = vec![Backend::Chord];
        spec.validate().unwrap();
    }

    #[test]
    fn scale_stress_preset_is_large_churny_and_paired() {
        let spec = ScenarioSpec::preset_scale_stress();
        spec.validate().unwrap();
        assert!(spec.n_initial >= 10_000);
        assert!(!spec.churn.is_static(), "scale must exercise churn");
        assert_eq!(spec.backends, vec![Backend::Oracle, Backend::Chord]);
    }

    #[test]
    fn domain_outage_preset_is_valid_chord_only_and_roundtrips() {
        let spec = ScenarioSpec::preset_domain_outage();
        spec.validate().unwrap();
        assert_eq!(spec.backends, vec![Backend::Chord]);
        assert!(spec.churn.is_static());
        let domains = spec.domains.expect("preset must carry domain structure");
        // The ISSUE's outage band: 10–25% of the ring down at once.
        let frac = domains.crashed_fraction();
        assert!((0.10..=0.25).contains(&frac), "crashed fraction {frac}");
        assert!(domains.outage_start < domains.outage_end);
        assert!(spec.adaptive.peer_scoring && spec.adaptive.retry);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn domain_battery_toggles_each_resilience_knob() {
        let battery = ScenarioSpec::domain_battery();
        assert_eq!(battery.len(), 4, "±scoring x ±retry");
        let names: std::collections::HashSet<_> = battery.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), battery.len(), "names must be unique");
        let mut knobs: Vec<(bool, bool)> = Vec::new();
        for spec in &battery {
            spec.validate().unwrap_or_else(|problems| {
                panic!("{} invalid: {problems:?}", spec.name);
            });
            // Every arm shares the same outage; only the knobs differ.
            assert_eq!(spec.domains, ScenarioSpec::preset_domain_outage().domains);
            assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
            knobs.push((spec.adaptive.peer_scoring, spec.adaptive.retry));
        }
        knobs.sort_unstable();
        assert_eq!(
            knobs,
            vec![(false, false), (false, true), (true, false), (true, true)],
            "the battery must cover the full knob grid"
        );
    }

    #[test]
    fn domain_validation_rejects_bad_shapes() {
        // Degenerate sector counts and outage windows.
        let mut spec = ScenarioSpec::preset_domain_outage();
        spec.domains = Some(FailureDomainSpec {
            domains: 1,
            crash_domains: 1,
            outage_start: 0.9,
            outage_end: 0.1,
        });
        let problems = spec.validate().unwrap_err();
        assert!(problems.len() >= 3, "{problems:?}");
        // Crashing every domain leaves nobody to answer lookups.
        let mut all_down = ScenarioSpec::preset_domain_outage();
        all_down.domains.as_mut().unwrap().crash_domains = 8;
        assert!(all_down.validate().is_err());
        // Domain outages on an oracle backend never happen: rejected.
        let mut oracle = ScenarioSpec::preset_domain_outage();
        oracle.backends = vec![Backend::Oracle, Backend::Chord];
        assert!(oracle.validate().is_err());
        // Layering Poisson churn over the outage is rejected.
        let mut churny = ScenarioSpec::preset_domain_outage();
        churny.churn = ScenarioSpec::preset_crash_churn().churn;
        assert!(churny.validate().is_err());
        // One resilience mechanism per arm: quorum + domains is rejected.
        let mut defended = ScenarioSpec::preset_domain_outage();
        defended.defense = DefenseModel::Quorum { entries: 3 };
        assert!(defended.validate().is_err());
        // Adaptive routing on a mixed-backend spec is rejected even
        // without domain structure.
        let mut mixed = ScenarioSpec::preset_honest_static();
        mixed.adaptive = AdaptiveRoutingSpec::full();
        assert!(mixed.validate().is_err());
        mixed.backends = vec![Backend::Chord];
        mixed.validate().unwrap();
    }

    #[test]
    fn engine_preset_is_valid_chord_only_and_roundtrips() {
        let spec = ScenarioSpec::preset_engine_slowdomain();
        spec.validate().unwrap();
        assert_eq!(spec.backends, vec![Backend::Chord]);
        assert!(spec.churn.is_static());
        let engine = spec.engine.expect("preset must carry an engine phase");
        let slow = engine.slow.expect("preset must carry a slow sector");
        assert!(slow.factor >= 2 && slow.slow < slow.domains);
        // The deadline must be shorter than the slowed walk, else it
        // never fires: a walk through the slow sector pays
        // factor × wire ticks per hop.
        let wire = match spec.chord.latency.unwrap() {
            LatencySpec::Constant { ticks } => ticks,
            other => panic!("preset wire must be constant, got {other:?}"),
        };
        assert!(engine.timeout_ticks < slow.factor * wire * 8);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn engine_battery_toggles_the_resilience_arm() {
        let battery = ScenarioSpec::engine_battery();
        assert_eq!(battery.len(), 2, "baseline vs adaptive");
        let names: std::collections::HashSet<_> = battery.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), battery.len(), "names must be unique");
        for spec in &battery {
            spec.validate().unwrap_or_else(|problems| {
                panic!("{} invalid: {problems:?}", spec.name);
            });
            // Every arm shares the same fault; only the knobs differ.
            assert_eq!(spec.engine, ScenarioSpec::preset_engine_slowdomain().engine);
            assert_eq!(
                spec.chord.latency,
                ScenarioSpec::preset_engine_slowdomain().chord.latency
            );
            assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
        }
        assert!(!battery[0].adaptive.is_active(), "{}", battery[0].name);
        assert!(
            battery[1].adaptive.peer_scoring && battery[1].adaptive.retry,
            "{}",
            battery[1].name
        );
    }

    #[test]
    fn engine_validation_rejects_bad_shapes() {
        // Degenerate knobs, all reported at once.
        let mut spec = ScenarioSpec::preset_engine_slowdomain();
        spec.engine = Some(EngineSpec {
            inflight: 0,
            timeout_ticks: 0,
            lookups: 0,
            windows: 0,
            window_ticks: 0,
            slow: Some(SlowDomainSpec {
                domains: 1,
                slow: 1,
                factor: 1,
                start_frac: 0.9,
                end_frac: 0.1,
            }),
        });
        let problems = spec.validate().unwrap_err();
        assert!(problems.len() >= 8, "{problems:?}");
        // An engine phase on an oracle backend never runs: rejected.
        let mut oracle = ScenarioSpec::preset_engine_slowdomain();
        oracle.adaptive = AdaptiveRoutingSpec::default();
        oracle.backends = vec![Backend::Oracle, Backend::Chord];
        assert!(oracle.validate().is_err());
        // Slowing every sector leaves nothing fast to route through.
        let mut all_slow = ScenarioSpec::preset_engine_slowdomain();
        all_slow
            .engine
            .as_mut()
            .unwrap()
            .slow
            .as_mut()
            .unwrap()
            .slow = 8;
        assert!(all_slow.validate().is_err());
        // Inverted / non-finite latency models are rejected.
        let mut inverted = ScenarioSpec::preset_honest_static();
        inverted.chord.latency = Some(LatencySpec::Uniform { lo: 9, hi: 2 });
        assert!(inverted.validate().is_err());
        let mut nan = ScenarioSpec::preset_honest_static();
        nan.chord.latency = Some(LatencySpec::LogNormal {
            median: 8,
            sigma: f64::NAN,
        });
        assert!(nan.validate().is_err());
        // A well-formed latency model on a mixed-backend spec is fine —
        // the oracle ignores it; only the engine phase is chord-only.
        let mut latency_only = ScenarioSpec::preset_honest_static();
        latency_only.chord.latency = Some(LatencySpec::Constant { ticks: 7 });
        latency_only.validate().unwrap();
    }

    #[test]
    fn latency_specs_compile_to_the_simnet_models() {
        use simnet::LatencyModel;
        assert_eq!(
            LatencySpec::Constant { ticks: 4 }.to_model(),
            LatencyModel::Constant(4)
        );
        assert_eq!(
            LatencySpec::Uniform { lo: 1, hi: 9 }.to_model(),
            LatencyModel::Uniform { lo: 1, hi: 9 }
        );
        assert_eq!(
            LatencySpec::LogNormal {
                median: 10,
                sigma: 0.5
            }
            .to_model(),
            LatencyModel::LogNormal {
                median: 10,
                sigma: 0.5
            }
        );
    }

    #[test]
    fn points_serialize_as_plain_numbers_in_reports() {
        // keyspace's serde feature (tuple-struct derive): a Point is a
        // bare coordinate in JSON, not a wrapper object.
        let p = keyspace::Point::new(1234);
        assert_eq!(serde_json::to_string(&p).unwrap(), "1234");
        let back: keyspace::Point = serde_json::from_str("1234").unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Oracle.name(), "oracle");
        assert_eq!(Backend::Chord.name(), "chord");
    }
}
