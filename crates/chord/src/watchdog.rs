//! Health/SLO watchdog: per-window overlay health checks with attributed
//! breach/recovery events.
//!
//! The paper's guarantees (O(log n) routing, unbiased draws) are
//! steady-state claims; everything interesting under churn or attack is a
//! *transient*. The [`Watchdog`] closes one telemetry observation window
//! per maintenance round (or per draw batch), spot-checks the ring with
//! [`ChordNetwork::verify_ring_sampled`]-style sampling, evaluates the
//! SLO rules in [`SloConfig`], and emits edge-triggered [`HealthEvent`]s
//! — one breach edge when a rule first fails, one recovery edge when it
//! next holds — attributed to the offending nodes and the operation class
//! the rule observes. Events mirror into the network recorder's health log
//! ([`telemetry::Recorder::push_health`]) so breach dumps travel with the
//! flight traces.
//!
//! Determinism: the watchdog draws from its **own** RNG (seeded by the
//! caller from a dedicated stream), so attaching it perturbs neither the
//! churn nor the draw streams — a record produced with a watchdog
//! attached is byte-identical across runs and thread schedules.

use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::{HealthEventRecord, TimeSeries, WindowSnapshot};

use crate::network::ChordNetwork;

/// Which SLO rule a [`HealthEvent`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloRule {
    /// Per-window lookup hop p99 must stay ≤ `factor·log2(live) + slack`
    /// — the paper's O(log n) routing bound as a *windowed* gate.
    HopTail,
    /// Sampled ring-defect fraction — the share of spot-checked nodes
    /// failing *any* check (wrong first-live successor, wrong
    /// predecessor, or a stale finger) — must stay ≤ the configured
    /// bound. Per-finger staleness alone is insensitive to crash bursts
    /// (successor lists absorb most of the damage), so the rule gates on
    /// whole-node defects.
    Staleness,
    /// Chi-square drift: the window's draw histogram must not reject the
    /// uniform null at the configured significance.
    ChiDrift,
    /// Windowed lookup success ratio must stay ≥ the configured floor —
    /// the graceful-degradation gate for correlated-outage scenarios.
    /// Only evaluated on windows fed an outcome tally (see
    /// [`Watchdog::observe_with_outcomes`]); breaches are attributed to
    /// the suspected offenders (e.g. a crashed failure domain's members).
    SuccessRatio,
    /// Async-engine in-flight age: the window's `engine.inflight_age`
    /// p99 (submission-to-completion in simulated ticks) must stay ≤
    /// `factor · log2(live) · mean hop latency`. This is the
    /// delay-fault gate: a slow-but-alive sector fails no lookup and
    /// moves no success ratio — the *only* externally visible symptom is
    /// requests aging on the wire, which this rule detects. Evaluated
    /// only on windows where the engine recorded enough completions.
    InflightAge,
}

impl SloRule {
    /// Stable lowercase rule name used in rendered events and reports.
    pub fn name(self) -> &'static str {
        match self {
            SloRule::HopTail => "hop_p99",
            SloRule::Staleness => "staleness",
            SloRule::ChiDrift => "chi_drift",
            SloRule::SuccessRatio => "success_ratio",
            SloRule::InflightAge => "inflight_age",
        }
    }

    /// The label of the operation class this rule observes.
    pub fn scope(self) -> &'static str {
        match self {
            SloRule::HopTail => "lookup",
            SloRule::Staleness => "maintenance.round",
            SloRule::ChiDrift => "draw.defended",
            SloRule::SuccessRatio => "lookup",
            SloRule::InflightAge => "engine",
        }
    }
}

/// Breach or recovery edge of a [`HealthEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// The rule just went from holding to violated.
    Breach,
    /// The rule just went from violated back to holding.
    Recover,
}

/// One attributed, edge-triggered health event.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Watchdog window index (0 = first observed window; fault injection
    /// in the gated scenarios starts at window 0).
    pub window: u64,
    /// The rule that fired.
    pub rule: SloRule,
    /// Breach or recovery edge.
    pub kind: HealthKind,
    /// The measured value checked against the bound (a hop count, a
    /// staleness fraction, or a chi-square p-value).
    pub measured: f64,
    /// The bound in force at evaluation time.
    pub bound: f64,
    /// Ring points of sampled nodes failing verification this window
    /// (capped at 8; empty for rules without per-node attribution).
    pub nodes: Vec<u64>,
}

impl HealthEvent {
    /// Compact single-line rendering, byte-stable for a given event —
    /// record fields and the 3-run identity test serialize this.
    pub fn render(&self) -> String {
        let kind = match self.kind {
            HealthKind::Breach => "breach",
            HealthKind::Recover => "recover",
        };
        let nodes = if self.nodes.is_empty() {
            String::new()
        } else {
            let hex: Vec<String> = self.nodes.iter().map(|n| format!("{n:016x}")).collect();
            format!(" nodes=[{}]", hex.join(","))
        };
        format!(
            "w{} {kind} {} measured={:.6} bound={:.6} scope={}{nodes}",
            self.window,
            self.rule.name(),
            self.measured,
            self.bound,
            self.rule.scope(),
        )
    }

    fn to_record(&self) -> HealthEventRecord {
        HealthEventRecord {
            window: self.window,
            rule: self.rule.name().to_owned(),
            breach: self.kind == HealthKind::Breach,
            measured: self.measured,
            bound: self.bound,
            scope: self.rule.scope().to_owned(),
            nodes: self.nodes.clone(),
        }
    }
}

/// SLO rule parameters. The defaults encode the repo's standing gates:
/// the hop bound matches e16's `hop_tail_violation` check and the
/// staleness bound matches the scale-arm verdict gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Hop p99 bound is `hop_p99_factor · log2(live) + hop_p99_slack`.
    pub hop_p99_factor: f64,
    /// Additive slack of the hop bound.
    pub hop_p99_slack: f64,
    /// The hop rule is only evaluated when the window recorded at least
    /// this many lookups (tiny windows have meaningless tails).
    pub min_hop_samples: u64,
    /// Sampled ring-defect fraction bound: the share of spot-checked
    /// nodes failing any ring check (see [`SloRule::Staleness`]). A
    /// converged ring measures 0.0, a healthy batched-maintenance arm
    /// idles near 0.2–0.4 under churn (one stale finger marks the whole
    /// node defective), and a 25% crash burst measures ≈ 0.7 — the
    /// default separates the last from the first two.
    pub max_staleness: f64,
    /// Live nodes spot-checked per window (sampled without replacement).
    pub sample_k: usize,
    /// Chi-square significance: the drift rule breaches when the uniform
    /// null is rejected with `p < chi_alpha`.
    pub chi_alpha: f64,
    /// The drift rule is only evaluated when the window holds at least
    /// this many draws *per category* on average — below that the
    /// chi-square approximation is noise.
    pub chi_min_per_cell: f64,
    /// Success-ratio floor: the success-ratio rule breaches when the
    /// window's `ok / (ok + failed)` lookup ratio falls below this.
    pub min_success_ratio: f64,
    /// The success-ratio rule is only evaluated when the window tallied
    /// at least this many lookups (tiny windows have meaningless ratios).
    pub min_success_samples: u64,
    /// In-flight age p99 bound is `engine_age_factor · log2(live) ·
    /// mean-hop-latency ticks` — a lookup is expected to spend O(log n)
    /// mean hop latencies on the wire; the factor is the tolerated tail
    /// stretch over that. Sized so retries and queueing under load pass
    /// while an order-of-magnitude slow sector breaches.
    pub engine_age_factor: f64,
    /// The in-flight-age rule is only evaluated when the window recorded
    /// at least this many engine completions.
    pub min_age_samples: u64,
    /// Retained windows in the watchdog's [`TimeSeries`] ring.
    pub series_capacity: usize,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            hop_p99_factor: 4.0,
            hop_p99_slack: 4.0,
            min_hop_samples: 16,
            max_staleness: 0.5,
            sample_k: 64,
            chi_alpha: 1e-3,
            chi_min_per_cell: 4.0,
            min_success_ratio: 0.99,
            min_success_samples: 16,
            engine_age_factor: 6.0,
            min_age_samples: 32,
            series_capacity: 256,
        }
    }
}

/// Per-window lookup outcome tally, fed to the watchdog's success-ratio
/// rule via [`Watchdog::observe_with_outcomes`] by harnesses that track
/// draw success (the domain-outage scenarios in particular).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookupOutcomes {
    /// Lookups that resolved this window (degraded answers included —
    /// graceful degradation *is* success, at attributed extra cost).
    pub ok: u64,
    /// Lookups that returned an error this window.
    pub failed: u64,
    /// Ring points of suspected offenders — e.g. the members of the
    /// failure domain currently down — attached to breach events
    /// (capped at 8).
    pub suspects: Vec<u64>,
}

impl LookupOutcomes {
    /// Total lookups tallied.
    pub fn total(&self) -> u64 {
        self.ok + self.failed
    }

    /// `ok / total` (1.0 for an empty tally).
    pub fn ratio(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.ok as f64 / self.total() as f64
        }
    }
}

/// Gauge names the watchdog stamps into every observed window.
pub mod gauge {
    /// Live node count at observation time.
    pub const LIVE: &str = "live";
    /// Dirty-set backlog (batched maintenance only; 0 otherwise).
    pub const BACKLOG: &str = "backlog";
    /// Sampled finger staleness (`1 − finger_accuracy`).
    pub const STALENESS: &str = "staleness";
    /// Sampled ring-defect fraction (share of spot-checked nodes failing
    /// any ring check) — the measure the staleness SLO rule gates on.
    pub const DEFECT_RATE: &str = "defect_rate";
    /// Window hop p50 (0 when the window recorded no lookups).
    pub const HOP_P50: &str = "hop_p50";
    /// Window hop p99 (0 when the window recorded no lookups).
    pub const HOP_P99: &str = "hop_p99";
    /// Forged/captured hops per recorded hop in the window.
    pub const FORGED_RATE: &str = "forged_rate";
    /// Mean protocol messages per draw in the window (draw windows only).
    pub const DRAW_COST: &str = "draw_cost";
    /// Windowed lookup success ratio (outcome-fed windows only).
    pub const SUCCESS: &str = "success_ratio";
    /// Window p99 of async-engine in-flight age in ticks (engine-fed
    /// windows only).
    pub const AGE_P99: &str = "engine_age_p99";
}

const RULES: [SloRule; 5] = [
    SloRule::HopTail,
    SloRule::Staleness,
    SloRule::ChiDrift,
    SloRule::SuccessRatio,
    SloRule::InflightAge,
];

/// Maximum offending nodes attached to one event.
const ATTRIBUTION_CAP: usize = 8;

/// Per-window health/SLO watchdog over a [`ChordNetwork`].
///
/// Feed it one closed [`WindowSnapshot`] per observation point via
/// [`Watchdog::observe`]; it stamps the longitudinal gauges, evaluates
/// the rules, pushes the window into its [`TimeSeries`], and emits
/// edge-triggered [`HealthEvent`]s. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct Watchdog {
    config: SloConfig,
    rng: StdRng,
    window: u64,
    breached: [bool; RULES.len()],
    first_breach: Option<u64>,
    last_recover: Option<u64>,
    breaches: u64,
    events: Vec<HealthEvent>,
    series: TimeSeries,
}

impl Watchdog {
    /// Creates a watchdog with its own RNG stream. Callers derive `seed`
    /// from a dedicated stream so attaching the watchdog perturbs no
    /// other randomness in the run.
    pub fn new(config: SloConfig, seed: u64) -> Watchdog {
        Watchdog {
            config,
            rng: StdRng::seed_from_u64(seed),
            window: 0,
            breached: [false; RULES.len()],
            first_breach: None,
            last_recover: None,
            breaches: 0,
            events: Vec::new(),
            series: TimeSeries::new(config.series_capacity.max(1)),
        }
    }

    /// Observes one closed window: stamps gauges, evaluates every rule,
    /// stores the window, and emits breach/recovery events (also mirrored
    /// into `net`'s recorder health log). `draw_counts`, when given, is
    /// the window's per-live-peer draw tally for the chi-square drift
    /// rule (churn-phase windows pass `None`).
    ///
    /// The window's index is rewritten to the watchdog's own 0-based
    /// clock, so event windows and series indices agree regardless of
    /// how many recorder windows elapsed before attachment.
    pub fn observe(
        &mut self,
        net: &ChordNetwork,
        window: WindowSnapshot,
        draw_counts: Option<&[u64]>,
    ) {
        self.observe_with_outcomes(net, window, draw_counts, None);
    }

    /// [`observe`](Watchdog::observe) plus a per-window lookup outcome
    /// tally for the success-ratio rule. Windows observed without a tally
    /// leave that rule unevaluated (its state unchanged) and stamp no
    /// success gauge, so harnesses that never tally are byte-identical to
    /// the pre-rule watchdog.
    pub fn observe_with_outcomes(
        &mut self,
        net: &ChordNetwork,
        mut window: WindowSnapshot,
        draw_counts: Option<&[u64]>,
        outcomes: Option<&LookupOutcomes>,
    ) {
        window.index = self.window;
        let live = net.live_len();

        // Sampled spot-check runs every window (fixed RNG consumption),
        // with per-node defect attribution.
        let (report, mut defects) = net.verify_ring_sampled(self.config.sample_k, &mut self.rng);
        let defect_rate = defects.len() as f64 / report.live.max(1) as f64;
        defects.truncate(ATTRIBUTION_CAP);
        let staleness = 1.0 - report.finger_accuracy;

        // Window hop tail off the per-window delta histogram.
        let (hop_samples, hop_p50, hop_p99) = match window.hist("lookup.hops") {
            Some(h) if !h.is_empty() => (h.count(), h.p50(), h.p99()),
            _ => (0, 0, 0),
        };
        let hops_delta = window.counter("lookup.hops");
        let forged_delta =
            window.counter("lookup.forged_position") + window.counter("lookup.byzantine_claim");
        let forged_rate = if hops_delta == 0 {
            0.0
        } else {
            forged_delta as f64 / hops_delta as f64
        };

        window.set_gauge(gauge::LIVE, live as f64);
        window.set_gauge(gauge::BACKLOG, net.maintenance_backlog() as f64);
        window.set_gauge(gauge::STALENESS, staleness);
        window.set_gauge(gauge::DEFECT_RATE, defect_rate);
        window.set_gauge(gauge::HOP_P50, hop_p50 as f64);
        window.set_gauge(gauge::HOP_P99, hop_p99 as f64);
        window.set_gauge(gauge::FORGED_RATE, forged_rate);
        if let Some(counts) = draw_counts {
            let draws: u64 = counts.iter().sum();
            if draws > 0 {
                let messages: u64 = window
                    .counters
                    .iter()
                    .filter(|(name, _)| name.ends_with(".messages") || *name == "lookup.hops")
                    .map(|(_, &v)| v)
                    .sum();
                window.set_gauge(gauge::DRAW_COST, messages as f64 / draws as f64);
            }
        }
        if let Some(tally) = outcomes {
            window.set_gauge(gauge::SUCCESS, tally.ratio());
        }

        // Engine in-flight age tail, from the per-window delta histogram
        // the async engine feeds. Windows without engine activity stamp
        // no gauge and leave the rule unevaluated, so sync-only
        // harnesses stay byte-identical to the pre-rule watchdog.
        let (age_samples, age_p99) = match window.hist("engine.inflight_age") {
            Some(h) if !h.is_empty() => (h.count(), h.p99()),
            _ => (0, 0),
        };
        if age_samples > 0 {
            window.set_gauge(gauge::AGE_P99, age_p99 as f64);
        }

        // Rule evaluation, fixed order. `None` = not evaluable this
        // window (state unchanged); `Some((violated, measured, bound,
        // nodes))` drives the breach/recover edge detector.
        for rule in RULES {
            let verdict = match rule {
                SloRule::HopTail => (hop_samples >= self.config.min_hop_samples).then(|| {
                    let bound = self.config.hop_p99_factor * (live.max(2) as f64).log2()
                        + self.config.hop_p99_slack;
                    (hop_p99 as f64 > bound, hop_p99 as f64, bound, Vec::new())
                }),
                SloRule::Staleness => Some((
                    defect_rate > self.config.max_staleness,
                    defect_rate,
                    self.config.max_staleness,
                    defects.clone(),
                )),
                SloRule::ChiDrift => draw_counts.and_then(|counts| {
                    let total: u64 = counts.iter().sum();
                    let enough = counts.len() >= 2
                        && total as f64 >= self.config.chi_min_per_cell * counts.len() as f64;
                    if !enough {
                        return None;
                    }
                    let p = stats::ChiSquare::uniform(counts).ok()?.p_value();
                    Some((
                        p < self.config.chi_alpha,
                        p,
                        self.config.chi_alpha,
                        Vec::new(),
                    ))
                }),
                SloRule::SuccessRatio => outcomes.and_then(|tally| {
                    if tally.total() < self.config.min_success_samples {
                        return None;
                    }
                    let mut suspects = tally.suspects.clone();
                    suspects.truncate(ATTRIBUTION_CAP);
                    Some((
                        tally.ratio() < self.config.min_success_ratio,
                        tally.ratio(),
                        self.config.min_success_ratio,
                        suspects,
                    ))
                }),
                SloRule::InflightAge => (age_samples >= self.config.min_age_samples).then(|| {
                    let bound = self.config.engine_age_factor
                        * (live.max(2) as f64).log2()
                        * net.config().latency().mean_ticks();
                    (age_p99 as f64 > bound, age_p99 as f64, bound, Vec::new())
                }),
            };
            if let Some((violated, measured, bound, nodes)) = verdict {
                self.edge(net, rule, violated, measured, bound, nodes);
            }
        }

        self.series.push(window);
        self.window += 1;
    }

    fn edge(
        &mut self,
        net: &ChordNetwork,
        rule: SloRule,
        violated: bool,
        measured: f64,
        bound: f64,
        nodes: Vec<u64>,
    ) {
        let slot = RULES.iter().position(|&r| r == rule).expect("known rule");
        if violated == self.breached[slot] {
            return;
        }
        self.breached[slot] = violated;
        let kind = if violated {
            self.breaches += 1;
            self.first_breach.get_or_insert(self.window);
            HealthKind::Breach
        } else {
            self.last_recover = Some(self.window);
            HealthKind::Recover
        };
        let event = HealthEvent {
            window: self.window,
            rule,
            kind,
            measured,
            bound,
            nodes,
        };
        net.metrics().recorder().push_health(event.to_record());
        self.events.push(event);
    }

    /// Every event emitted so far, in emission order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// The windowed series (ring of the most recent windows).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Windows observed so far.
    pub fn windows_observed(&self) -> u64 {
        self.window
    }

    /// Total breach edges emitted.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Whether no rule is currently in the breached state.
    pub fn healthy(&self) -> bool {
        self.breached.iter().all(|&b| !b)
    }

    /// Window index of the first breach, as a time-to-detect figure:
    /// fault injection in the gated scenarios starts at window 0, so
    /// this *is* the detection delay in windows. −1 = never breached.
    pub fn time_to_detect(&self) -> i64 {
        self.first_breach.map_or(-1, |w| w as i64)
    }

    /// Windows from the first breach to the last recovery: 0 when no
    /// rule ever breached, −1 when some rule is still breached at the
    /// end (recovery unconfirmed), otherwise `last_recover −
    /// first_breach`.
    pub fn time_to_recover(&self) -> i64 {
        match (self.first_breach, self.last_recover, self.healthy()) {
            (None, _, _) => 0,
            (Some(_), _, false) => -1,
            (Some(b), Some(r), true) => (r - b) as i64,
            // Unreachable in practice: a breach with no recovery leaves
            // the rule breached. Kept total for robustness.
            (Some(_), None, true) => -1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChordConfig, ChordNetwork};
    use keyspace::KeySpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(n: usize, seed: u64) -> ChordNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::full();
        ChordNetwork::bootstrap(
            space,
            space.random_points(&mut rng, n),
            ChordConfig::default(),
        )
    }

    fn observe_once(wd: &mut Watchdog, net: &ChordNetwork, draws: Option<&[u64]>) {
        let win = net.metrics().recorder().reset_window();
        wd.observe(net, win, draws);
    }

    #[test]
    fn healthy_ring_emits_no_events() {
        let net = tiny_net(64, 1);
        let mut wd = Watchdog::new(SloConfig::default(), 7);
        for _ in 0..3 {
            observe_once(&mut wd, &net, None);
        }
        assert!(wd.events().is_empty());
        assert!(wd.healthy());
        assert_eq!(wd.time_to_detect(), -1);
        assert_eq!(wd.time_to_recover(), 0);
        assert_eq!(wd.windows_observed(), 3);
        assert_eq!(wd.series().len(), 3);
        assert!(wd.series().latest().unwrap().gauge(gauge::LIVE) == 64.0);
        assert!(net.metrics().recorder().health_events().is_empty());
    }

    #[test]
    fn crash_burst_breaches_staleness_and_maintenance_recovers_it() {
        let mut net = tiny_net(96, 2);
        let mut wd = Watchdog::new(SloConfig::default(), 9);
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy(), "converged bootstrap ring starts healthy");
        // Crash a quarter of the ring: sampled staleness jumps.
        let mut rng = StdRng::seed_from_u64(3);
        for id in net.live_ids().into_iter().take(24) {
            net.crash(id);
        }
        observe_once(&mut wd, &net, None);
        assert!(!wd.healthy(), "crash burst must breach");
        assert_eq!(wd.time_to_detect(), 1);
        let breach = &wd.events()[0];
        assert_eq!(breach.rule, SloRule::Staleness);
        assert_eq!(breach.kind, HealthKind::Breach);
        assert!(!breach.nodes.is_empty(), "breach carries node attribution");
        assert!(breach.nodes.len() <= 8);
        // Batched repair drains the dirty set; the watchdog logs recovery.
        while net.maintenance_backlog() > 0 {
            net.batched_maintenance_round(crate::MaintenanceBudget::unlimited(), &mut rng);
        }
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy(), "maintenance must recover the ring");
        assert_eq!(wd.time_to_recover(), 1);
        let recover = wd.events().last().unwrap();
        assert_eq!(recover.kind, HealthKind::Recover);
        // Events mirror into the recorder's health log.
        let log = net.metrics().recorder().health_events();
        assert_eq!(log.len(), wd.events().len());
        assert!(log[0].breach && !log[1].breach);
    }

    #[test]
    fn chi_drift_flags_biased_draw_windows() {
        let net = tiny_net(32, 4);
        let mut wd = Watchdog::new(SloConfig::default(), 11);
        // Heavily biased window: one peer soaks half the draws.
        let mut counts = vec![8u64; 32];
        counts[0] = 300;
        observe_once(&mut wd, &net, Some(&counts));
        assert!(!wd.healthy());
        assert!(wd
            .events()
            .iter()
            .any(|e| e.rule == SloRule::ChiDrift && e.kind == HealthKind::Breach));
        // A uniform window recovers the rule.
        observe_once(&mut wd, &net, Some(&vec![10u64; 32]));
        assert!(wd.healthy());
        // Too little mass: rule skipped, state unchanged.
        observe_once(&mut wd, &net, Some(&vec![1u64; 32]));
        assert!(wd.healthy());
        assert_eq!(wd.time_to_detect(), 0);
        assert_eq!(wd.time_to_recover(), 1);
    }

    #[test]
    fn same_seed_gives_byte_identical_event_streams() {
        let run = || {
            let mut net = tiny_net(96, 5);
            let mut wd = Watchdog::new(SloConfig::default(), 13);
            observe_once(&mut wd, &net, None);
            for id in net.live_ids().into_iter().take(30) {
                net.crash(id);
            }
            observe_once(&mut wd, &net, None);
            wd.events()
                .iter()
                .map(HealthEvent::render)
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().any(|line| line.contains("breach staleness")));
    }

    #[test]
    fn success_ratio_breaches_attributed_and_recovers() {
        let net = tiny_net(64, 6);
        let mut wd = Watchdog::new(SloConfig::default(), 15);
        let healthy = LookupOutcomes {
            ok: 100,
            failed: 0,
            suspects: Vec::new(),
        };
        let win = net.metrics().recorder().reset_window();
        wd.observe_with_outcomes(&net, win, None, Some(&healthy));
        assert!(wd.healthy());
        assert_eq!(
            wd.series().latest().unwrap().gauge(gauge::SUCCESS),
            1.0,
            "outcome-fed windows stamp the success gauge"
        );
        // Outage window: a fifth of the lookups fail; the breach names
        // the downed domain's members.
        let outage = LookupOutcomes {
            ok: 80,
            failed: 20,
            suspects: vec![0xdead, 0xbeef],
        };
        let win = net.metrics().recorder().reset_window();
        wd.observe_with_outcomes(&net, win, None, Some(&outage));
        assert!(!wd.healthy());
        assert_eq!(wd.time_to_detect(), 1);
        let breach = wd.events().last().unwrap();
        assert_eq!(breach.rule, SloRule::SuccessRatio);
        assert_eq!(breach.kind, HealthKind::Breach);
        assert_eq!(breach.measured, 0.8);
        assert_eq!(breach.bound, 0.99);
        assert_eq!(breach.nodes, vec![0xdead, 0xbeef]);
        // Recovery window.
        let win = net.metrics().recorder().reset_window();
        wd.observe_with_outcomes(&net, win, None, Some(&healthy));
        assert!(wd.healthy());
        assert_eq!(wd.time_to_recover(), 1);
        // An under-sampled tally leaves the rule unevaluated.
        let tiny = LookupOutcomes {
            ok: 1,
            failed: 5,
            suspects: Vec::new(),
        };
        let win = net.metrics().recorder().reset_window();
        wd.observe_with_outcomes(&net, win, None, Some(&tiny));
        assert!(wd.healthy(), "6 samples are under the 16-sample floor");
    }

    #[test]
    fn plain_observe_never_touches_the_success_rule() {
        let net = tiny_net(64, 7);
        let mut wd = Watchdog::new(SloConfig::default(), 17);
        for _ in 0..3 {
            observe_once(&mut wd, &net, None);
        }
        assert!(wd.healthy());
        assert!(wd.events().is_empty());
        assert!(
            !wd.series()
                .latest()
                .unwrap()
                .gauges
                .contains_key(gauge::SUCCESS),
            "no tally, no success gauge"
        );
    }

    #[test]
    fn inflight_age_breaches_on_slow_windows_and_recovers() {
        let net = tiny_net(64, 8);
        let mut wd = Watchdog::new(SloConfig::default(), 19);
        let hist = net.metrics().recorder().histogram("engine.inflight_age");
        // Default UNIT latency, 64 live: bound = 6·log2(64)·1 = 36 ticks.
        let feed = |age: u64| {
            for _ in 0..40 {
                net.metrics().recorder().record(hist, age);
            }
        };

        // No engine activity: rule unevaluated, no gauge.
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy());
        assert!(
            !wd.series()
                .latest()
                .unwrap()
                .gauges
                .contains_key(gauge::AGE_P99),
            "no engine activity, no age gauge"
        );

        // Healthy engine window: ages well under the bound.
        feed(10);
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy());
        assert_eq!(wd.series().latest().unwrap().gauge(gauge::AGE_P99), 10.0);

        // Slow-sector window: requests age an order of magnitude past
        // the bound; the rule breaches with the engine scope.
        feed(500);
        observe_once(&mut wd, &net, None);
        assert!(!wd.healthy());
        let breach = wd.events().last().unwrap();
        assert_eq!(breach.rule, SloRule::InflightAge);
        assert_eq!(breach.kind, HealthKind::Breach);
        assert!((500.0..=512.0).contains(&breach.measured), "bucketed p99");
        assert_eq!(breach.bound, 36.0);
        assert!(breach.render().contains("breach inflight_age"));
        assert!(breach.render().contains("scope=engine"));

        // Ages come back down: edge-triggered recovery.
        feed(12);
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy());
        assert_eq!(wd.events().last().unwrap().kind, HealthKind::Recover);

        // Under-sampled window: unevaluated, breached state unchanged.
        net.metrics().recorder().record(hist, 10_000);
        observe_once(&mut wd, &net, None);
        assert!(wd.healthy(), "1 sample is under the 32-sample floor");
    }

    #[test]
    fn outcome_ratio_arithmetic() {
        assert_eq!(LookupOutcomes::default().ratio(), 1.0);
        let t = LookupOutcomes {
            ok: 3,
            failed: 1,
            suspects: Vec::new(),
        };
        assert_eq!(t.total(), 4);
        assert_eq!(t.ratio(), 0.75);
    }

    #[test]
    fn render_is_compact_and_attributed() {
        let e = HealthEvent {
            window: 3,
            rule: SloRule::Staleness,
            kind: HealthKind::Breach,
            measured: 0.25,
            bound: 0.05,
            nodes: vec![0xabc],
        };
        assert_eq!(
            e.render(),
            "w3 breach staleness measured=0.250000 bound=0.050000 \
             scope=maintenance.round nodes=[0000000000000abc]"
        );
    }
}
