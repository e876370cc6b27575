//! The four workloads: ring set-up and the timed loops.
//!
//! Every input comes from the `--seed`: ring points, origins, targets,
//! crash victims and join points are drawn from per-purpose streams of
//! it, so one seed gives one op sequence. Each loop runs at least its
//! workload's prefix of ops and then until its time is up; the counts the
//! benchmark reports as exact (messages, simulated latency, trials, hops,
//! repair lookups) are summed over that prefix only, so they repeat
//! exactly for a seed however fast the host is.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use chord::{
    ChordConfig, ChordDht, ChordNetwork, EngineConfig, FaultPlan, LookupEngine, MaintenanceBudget,
    NodeId, RetryPolicy,
};
use keyspace::{KeySpace, Point};
use peer_sampling::{Sampler, SamplerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{LatencyModel, SimTime};
use stats::ChiSquare;

use crate::dht::{Counters, LookupLog, Probed};
use crate::hist::{median, Slices};
use crate::reference::Reference;
use crate::spans::{traced, Name, Tracer};

/// What a workload's loop does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Back-to-back draws on a static ring.
    Static,
    /// Steps of crashes + joins, draws, and one maintenance round.
    Churn,
    /// Open-loop lookups through the async engine.
    Engine,
}

/// One workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Live peers.
    pub n: usize,
    /// Loop units (draws, churn steps or engine epochs) always run, over
    /// which the exact counts are summed.
    pub prefix: u64,
    /// The same for the traced run, whose spans must fit in memory.
    pub trace_prefix: u64,
    /// Ring builds in set-up; the median is reported.
    pub setup_reps: usize,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["draw-1e4", "draw-1e6", "churn-1e5", "engine-1e5"];

/// Crashes (and as many joins) per churn step.
const CHURN_WRITES: usize = 16;
/// Draws per churn step.
const CHURN_DRAWS: u64 = 200;
/// Rank buckets of the uniformity spot check.
const UNIFORMITY_BUCKETS: usize = 50;
/// The uniformity check fails below this p-value. A fair sampler trips it
/// once in a million seeds; a bias of a few percent trips it reliably.
const UNIFORMITY_ALPHA: f64 = 1e-6;

/// Per-hop delay of the engine workload's network.
const ENGINE_LATENCY: LatencyModel = LatencyModel::LogNormal {
    median: 10,
    sigma: 0.6,
};

/// The open-loop schedule of one engine epoch: `per_window` lookups are
/// submitted at the start of each of `windows` windows, then the epoch
/// runs on until every lookup has completed.
#[derive(Debug, Clone, Copy)]
pub struct EngineLoad {
    pub window_ticks: u64,
    pub per_window: usize,
    pub windows: u64,
    pub timeout_ticks: u64,
    pub max_inflight: usize,
}

/// `engine-1e5`: 12 lookups per tick against a ~85-tick mean sojourn
/// keeps about a thousand in flight, half of `max_inflight`; the
/// deadline sits near the 99.5th percentile of a lookup's latency.
pub const ENGINE_LOAD: EngineLoad = EngineLoad {
    window_ticks: 16,
    per_window: 192,
    windows: 105,
    timeout_ticks: 200,
    max_inflight: 2048,
};

impl Workload {
    /// The named workload; `quick` shrinks it for the benchmark's test.
    pub fn named(name: &str, quick: bool) -> Option<Workload> {
        let (name, kind, n, prefix, trace_prefix, setup_reps) = match name {
            "draw-1e4" => ("draw-1e4", Kind::Static, 10_000, 20_000, 2_000, 15),
            "draw-1e6" => ("draw-1e6", Kind::Static, 1_000_000, 20_000, 2_000, 3),
            "churn-1e5" => ("churn-1e5", Kind::Churn, 100_000, 100, 5, 5),
            "engine-1e5" => ("engine-1e5", Kind::Engine, 100_000, 1, 1, 5),
            _ => return None,
        };
        let mut w = Workload {
            name,
            kind,
            n,
            prefix,
            trace_prefix,
            setup_reps,
        };
        if quick {
            w.n = (n / 100).max(1_000);
            w.setup_reps = 1;
            if kind == Kind::Static {
                w.prefix = 10_000;
            }
        }
        Some(w)
    }

    fn uniformity_check(&self) -> bool {
        self.name == "draw-1e4"
    }

    fn config(&self) -> ChordConfig {
        match self.kind {
            Kind::Engine => ChordConfig::default().with_latency(ENGINE_LATENCY),
            Kind::Static | Kind::Churn => ChordConfig::default(),
        }
    }
}

/// Independent per-purpose stream seeds drawn from the one `--seed`.
fn stream(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const RING: u64 = 1;
const OPS: u64 = 2;
const PROBES: u64 = 3;

/// The ring's points.
pub fn ring_points(w: &Workload, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(stream(seed, RING));
    KeySpace::full().random_distinct_points(&mut rng, w.n)
}

/// A set-up ring and what building it cost.
pub struct Setup {
    pub net: ChordNetwork,
    /// Median ring build plus policy arming, seconds at the reference
    /// host speed.
    pub setup_s: f64,
}

/// Builds the ring `setup_reps` times (dropping each before the next, so
/// peak memory holds one ring) and keeps the last. Each build's time is
/// scaled to the reference host speed measured on both sides of it.
pub fn setup(w: &Workload, points: &[Point]) -> Setup {
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut reference = Reference::default();
    let mut speed = reference.speed();
    let mut net = None;
    for _ in 0..w.setup_reps.max(1) {
        drop(net.take());
        let points = points.to_vec();
        let t = Instant::now();
        let built = build(w, points, None);
        let secs = t.elapsed().as_secs_f64();
        let after = reference.speed();
        setups.push(secs * (speed + after) / 2.0);
        speed = after;
        net = Some(built);
    }
    Setup {
        net: net.expect("at least one ring is built"),
        setup_s: median(&setups),
    }
}

/// Builds the ring (in a `bootstrap` span when tracing) and arms the
/// workload's retry policy.
pub fn build(w: &Workload, points: Vec<Point>, tracer: Option<&Tracer>) -> ChordNetwork {
    let n = points.len() as u64;
    let mut net = traced(tracer, Name::Bootstrap, || {
        (
            ChordNetwork::bootstrap(KeySpace::full(), points, w.config()),
            n,
        )
    });
    arm(w, &mut net);
    net
}

fn arm(w: &Workload, net: &mut ChordNetwork) {
    if w.kind != Kind::Static {
        net.enable_retry_policy(RetryPolicy::default());
    }
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Loop units always run, whose counts are tallied exactly.
    pub prefix: u64,
    /// Loop units never exceeded.
    pub max_units: u64,
    /// Run on past the prefix until this much wall time has passed (or
    /// the tracer's buffer is nearly full).
    pub seconds: f64,
}

impl Budget {
    fn more(&self, units: u64, start: Instant, tracer: Option<&Tracer>) -> bool {
        if units >= self.max_units {
            return false;
        }
        if units < self.prefix {
            return true;
        }
        let tracer_room = tracer.is_none_or(|t| !t.nearly_full());
        tracer_room && start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Exact counts over a loop's prefix.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Ops attempted.
    pub ops: u64,
    /// Ops completed.
    pub ok: u64,
    /// `Cost.messages` summed over completed ops.
    pub msgs: u64,
    /// Simulated latency of each completed op, ticks.
    pub sim: Vec<u64>,
    /// Draw trials and `next` calls.
    pub trials: u64,
    pub next_calls: u64,
    /// `h` lookups and the recorder counter deltas they caused.
    pub lookups: u64,
    pub lookup_counters: Counters,
    /// Maintenance rounds, their repair lookups, and the backlog left
    /// after each, summed.
    pub rounds: u64,
    pub repair_lookups: u64,
    pub backlog_after: u64,
    /// Engine: routed attempts and the `engine.timeouts` delta.
    pub attempts: u64,
    pub timeouts: u64,
    /// Engine: request-ticks in the system during the submission
    /// windows, and those windows' length; their ratio is the
    /// time-averaged number of lookups in flight (Little's law).
    pub inflight_ticks: u64,
    pub submit_ticks: u64,
    /// Engine: the largest backlog right after a submission.
    pub backlog_max: u64,
}

/// Routing-state sizes at the end of a loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bytes {
    pub live: usize,
    pub routing: usize,
    pub verifier: usize,
    pub maintenance: usize,
}

impl Bytes {
    fn of(net: &ChordNetwork) -> Bytes {
        Bytes {
            live: net.live_len(),
            routing: net.routing_bytes(),
            verifier: net.verifier_bytes(),
            maintenance: net.maintenance_bytes(),
        }
    }

    pub fn per_node(&self, bytes: usize) -> f64 {
        bytes as f64 / self.live.max(1) as f64
    }
}

/// One run of a workload's loop.
#[derive(Debug)]
pub struct Phase {
    /// Loop units run (draws, churn steps or engine epochs).
    pub units: u64,
    /// Ops attempted and failed (draws, or engine lookups).
    pub ops: u64,
    pub failed: u64,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    /// Wall time of each completed op, ns: a `Sampler::sample` call, or
    /// an engine lookup from submission to the window end it was seen in.
    pub op_ns: Slices,
    /// Exact counts over the prefix.
    pub prefix: Tally,
    /// Span op ids used, all and within the prefix.
    pub span_ops: u32,
    pub prefix_span_ops: u32,
    /// The process's peak resident set when the prefix ended, MiB: the
    /// prefix is fixed work, so a faster run that goes on to more churn
    /// steps does not read as a bigger one.
    pub prefix_peak_rss_mb: Option<f64>,
    /// The first failed correctness check.
    pub error: Option<String>,
    /// Recorder counters over the whole loop.
    pub counters: Counters,
    /// The first engine epoch's requests, for the sync replay.
    pub requests: Vec<(NodeId, Point)>,
    pub bytes: Bytes,
}

impl Default for Phase {
    fn default() -> Phase {
        Phase {
            units: 0,
            ops: 0,
            failed: 0,
            wall_s: 0.0,
            op_ns: Slices::default(),
            prefix: Tally::default(),
            span_ops: 0,
            prefix_span_ops: 0,
            prefix_peak_rss_mb: None,
            error: None,
            counters: Counters::default(),
            requests: Vec::new(),
            bytes: Bytes::default(),
        }
    }
}

impl Phase {
    pub fn completed(&self) -> u64 {
        self.ops - self.failed
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    fn end_prefix(&mut self, span_ops: u32) {
        self.prefix_span_ops = span_ops;
        self.prefix_peak_rss_mb = peak_rss_mb();
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fault injection for the benchmark's own test: corrupt one answer so
/// the owner check must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    WrongOwner,
}

/// Runs the workload's loop on `net`.
pub fn run(
    w: &Workload,
    net: &mut ChordNetwork,
    seed: u64,
    budget: Budget,
    tracer: Option<&Tracer>,
    inject: Inject,
) -> Phase {
    let before = Counters::read(net);
    let start = Instant::now();
    let mut phase = match w.kind {
        Kind::Static => static_draws(w, net, seed, budget, tracer, inject),
        Kind::Churn => churn(net, seed, budget, tracer),
        Kind::Engine => engine(net, seed, budget, tracer, inject),
    };
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.counters = Counters::read(net).since(before);
    phase.bytes = Bytes::of(net);
    phase
}

/// The draw loop's per-ring state.
pub struct Drawer<'a> {
    net: &'a ChordNetwork,
    sampler: Sampler,
    tracer: Option<&'a Tracer>,
    log: LookupLog,
    /// Check every `h` answer against the ring index (static rings).
    check_owners: bool,
    uniformity: Option<RankBuckets>,
}

impl<'a> Drawer<'a> {
    pub fn new(net: &'a ChordNetwork, tracer: Option<&'a Tracer>, check_owners: bool) -> Self {
        Drawer {
            net,
            sampler: Sampler::new(SamplerConfig::new(net.live_len() as u64)),
            tracer,
            log: LookupLog::default(),
            check_owners,
            uniformity: None,
        }
    }

    /// Also buckets the prefix's draws by rank for the chi-square check.
    fn with_uniformity_check(mut self) -> Self {
        self.uniformity = Some(RankBuckets::new(self.net));
        self
    }

    /// Draws until `budget` stops, one span op id per draw from
    /// `phase.span_ops`.
    pub fn run_draws(&self, phase: &mut Phase, rng: &mut StdRng, budget: Budget) {
        let prefix = budget.prefix;
        let first_op = phase.span_ops;
        let start = Instant::now();
        phase.op_ns.begin();
        let mut draws = 0;
        while budget.more(draws, start, self.tracer) {
            if let Some(t) = self.tracer {
                t.set_op(first_op + draws as u32);
            }
            if let Err(e) = self.draw(phase, rng, draws < prefix) {
                phase.fail(e);
                break;
            }
            draws += 1;
            if draws == prefix {
                self.close_prefix(phase);
                phase.end_prefix(first_op + draws as u32);
            }
        }
        phase.units += draws;
        phase.span_ops = first_op + draws as u32;
        if let (Some(u), None) = (&self.uniformity, &phase.error) {
            if let Err(e) = u.check() {
                phase.fail(e);
            }
        }
    }

    /// One draw from a uniform live origin, timed and folded into
    /// `phase`; then the checks that the drawn peer is live and that
    /// every `h` answer was the true owner.
    fn draw(&self, phase: &mut Phase, rng: &mut StdRng, in_prefix: bool) -> Result<(), String> {
        let live = self.net.live_slice();
        let origin = live[rng.gen_range(0..live.len())];
        let dht = Probed {
            dht: ChordDht::new(self.net, origin, rng.gen()),
            tracer: self.tracer,
            log: &self.log,
            log_owners: self.check_owners,
        };
        let open = self.tracer.and_then(|t| t.begin(Name::Draw));
        let t = Instant::now();
        let res = self.sampler.sample(&dht, rng);
        let done = Instant::now();
        let ns = (done - t).as_nanos() as u64;
        if let Some(tr) = self.tracer {
            tr.end(open, res.as_ref().map_or(0, |s| u64::from(s.trials)));
        }
        for (x, point, peer) in self.log.owners.borrow_mut().drain(..) {
            let truth = self.net.ring_index().successor(x);
            if truth != Some((point, peer)) {
                return Err(format!(
                    "h({}) answered {peer} at {}, the ring index says {truth:?}",
                    x.get(),
                    point.get()
                ));
            }
        }
        phase.ops += 1;
        if in_prefix {
            phase.prefix.ops += 1;
        }
        let Ok(s) = res else {
            phase.failed += 1;
            return Ok(());
        };
        if !self.net.node(s.peer).is_alive() {
            return Err(format!("drawn peer {} is not live", s.peer));
        }
        phase.op_ns.record(ns, done);
        if in_prefix {
            let t = &mut phase.prefix;
            t.ok += 1;
            t.msgs += s.cost.messages;
            t.sim.push(s.cost.latency);
            t.trials += u64::from(s.trials);
            t.next_calls += s.next_calls;
            if let Some(u) = &self.uniformity {
                u.count(s.peer);
            }
        }
        Ok(())
    }

    /// Copies the lookup log into the prefix tally.
    fn close_prefix(&self, phase: &mut Phase) {
        phase.prefix.lookups += self.log.lookups.get();
        phase.prefix.lookup_counters = phase.prefix.lookup_counters.plus(self.log.counters.get());
    }
}

fn static_draws(
    w: &Workload,
    net: &ChordNetwork,
    seed: u64,
    budget: Budget,
    tracer: Option<&Tracer>,
    inject: Inject,
) -> Phase {
    let mut drawer = Drawer::new(net, tracer, true);
    if w.uniformity_check() {
        drawer = drawer.with_uniformity_check();
    }
    drawer
        .log
        .corrupt_next_answer
        .set(inject == Inject::WrongOwner);
    let mut rng = StdRng::seed_from_u64(stream(seed, OPS));
    let mut phase = Phase::default();
    drawer.run_draws(&mut phase, &mut rng, budget);
    phase
}

/// Drawn peers bucketed by clockwise rank, for the chi-square spot check.
struct RankBuckets {
    rank: Vec<u32>,
    sizes: Vec<f64>,
    hist: RefCell<Vec<u64>>,
}

impl RankBuckets {
    fn new(net: &ChordNetwork) -> RankBuckets {
        let n = net.live_len();
        let mut rank = vec![u32::MAX; net.arena_len()];
        for (k, &(_, id)) in net.ring_index().entries().enumerate() {
            rank[id.index()] = (k * UNIFORMITY_BUCKETS / n) as u32;
        }
        let mut sizes = vec![0.0; UNIFORMITY_BUCKETS];
        for k in 0..n {
            sizes[k * UNIFORMITY_BUCKETS / n] += 1.0;
        }
        RankBuckets {
            rank,
            sizes,
            hist: RefCell::new(vec![0; UNIFORMITY_BUCKETS]),
        }
    }

    fn count(&self, peer: NodeId) {
        self.hist.borrow_mut()[self.rank[peer.index()] as usize] += 1;
    }

    fn check(&self) -> Result<(), String> {
        let test =
            ChiSquare::against(&self.hist.borrow(), &self.sizes).map_err(|e| e.to_string())?;
        if test.p_value() < UNIFORMITY_ALPHA {
            return Err(format!(
                "rank-bucketed draws fail the uniformity check: {test}"
            ));
        }
        Ok(())
    }
}

fn churn(net: &mut ChordNetwork, seed: u64, budget: Budget, tracer: Option<&Tracer>) -> Phase {
    let mut rng = StdRng::seed_from_u64(stream(seed, OPS));
    let mut phase = Phase::default();
    let start = Instant::now();
    phase.op_ns.begin();
    while budget.more(phase.units, start, tracer) {
        if let Some(t) = tracer {
            t.set_op(phase.units as u32);
        }
        let in_prefix = phase.units < budget.prefix;
        for _ in 0..CHURN_WRITES {
            if let Err(e) = crash_and_join(net, &mut rng, tracer) {
                phase.fail(e);
                return phase;
            }
        }
        {
            let drawer = Drawer::new(net, tracer, false);
            for _ in 0..CHURN_DRAWS {
                if let Err(e) = drawer.draw(&mut phase, &mut rng, in_prefix) {
                    phase.fail(e);
                    return phase;
                }
            }
            if in_prefix {
                drawer.close_prefix(&mut phase);
            }
        }
        let work = traced(tracer, Name::Maintenance, || {
            let work = net.batched_maintenance_round(MaintenanceBudget::unlimited(), &mut rng);
            (work, work.lookups)
        });
        if in_prefix {
            let t = &mut phase.prefix;
            t.rounds += 1;
            t.repair_lookups += work.lookups;
            t.backlog_after += net.maintenance_backlog() as u64;
        }
        phase.units += 1;
        if phase.units == budget.prefix {
            phase.end_prefix(phase.units as u32);
        }
    }
    phase.span_ops = phase.units as u32;
    phase
}

/// Crashes a uniform live peer, then joins a fresh point through a
/// uniform live gateway (retrying other gateways if routing fails).
pub fn crash_and_join(
    net: &mut ChordNetwork,
    rng: &mut StdRng,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let live = net.live_slice();
    let victim = live[rng.gen_range(0..live.len())];
    traced(tracer, Name::Crash, || (net.crash(victim), 1));
    let point = loop {
        let p = net.space().random_point(rng);
        if !net.ring_index().contains_point(p) {
            break p;
        }
    };
    let mut last = None;
    for _ in 0..4 {
        let live = net.live_slice();
        let via = live[rng.gen_range(0..live.len())];
        match traced(tracer, Name::Join, || (net.join(point, via, rng), 1)) {
            Ok(_) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(format!(
        "join at {} failed through 4 gateways: {last:?}",
        point.get()
    ))
}

fn engine(
    net: &ChordNetwork,
    seed: u64,
    budget: Budget,
    tracer: Option<&Tracer>,
    inject: Inject,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    phase.op_ns.begin();
    while budget.more(phase.units, start, tracer) {
        let in_prefix = phase.units < budget.prefix;
        let epoch_seed = stream(seed, OPS + 16 * phase.units);
        let owners = if inject == Inject::WrongOwner && phase.units == 0 {
            Owners::CheckedFirstCorrupted
        } else {
            Owners::Checked
        };
        engine_epoch(
            net,
            ENGINE_LOAD,
            epoch_seed,
            tracer,
            &mut phase,
            in_prefix,
            owners,
        );
        if phase.error.is_some() {
            break;
        }
        phase.units += 1;
        if phase.units == budget.prefix {
            phase.end_prefix(phase.span_ops);
        }
    }
    phase
}

/// Whether an engine epoch checks each completion's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owners {
    /// A churned ring: a stale but live answer is the protocol working.
    Unchecked,
    /// A static ring: every owner must be the ring index's.
    Checked,
    /// As `Checked`, with the first answer corrupted (fault injection).
    CheckedFirstCorrupted,
}

/// One engine epoch: submit on schedule, run window by window, and
/// check completions' owners against the ring index. Span op ids are
/// window numbers, continuing from `phase.span_ops`.
pub fn engine_epoch(
    net: &ChordNetwork,
    load: EngineLoad,
    seed: u64,
    tracer: Option<&Tracer>,
    phase: &mut Phase,
    in_prefix: bool,
    owners: Owners,
) {
    let mut engine = LookupEngine::new(EngineConfig {
        timeout_ticks: Some(load.timeout_ticks),
        max_inflight: load.max_inflight,
        seed,
    });
    let faults = FaultPlan::none();
    let mut rng = StdRng::seed_from_u64(stream(seed, OPS));
    // Origin, target, submission time and host-measuring time by then.
    let mut requests: Vec<(NodeId, Point, Instant, Duration)> = Vec::new();
    let timeouts_before = Counters::read(net).timeouts;
    let mut corrupt = owners == Owners::CheckedFirstCorrupted;
    let submit_end = SimTime::from_ticks(load.windows * load.window_ticks);
    let mut seen = 0;
    let mut window = 0u64;
    loop {
        let submitting = window < load.windows;
        if !submitting && engine.in_flight() == 0 && engine.backlog() == 0 {
            break;
        }
        if let Some(t) = tracer {
            t.set_op(phase.span_ops);
        }
        phase.span_ops += 1;
        if submitting {
            let paused = phase.op_ns.paused();
            traced(tracer, Name::Submit, || {
                let live = net.live_slice();
                for _ in 0..load.per_window {
                    let origin = live[rng.gen_range(0..live.len())];
                    let target = net.space().random_point(&mut rng);
                    let tag = engine.submit(net, origin, target);
                    debug_assert_eq!(tag as usize, requests.len());
                    requests.push((origin, target, Instant::now(), paused));
                }
                ((), load.per_window as u64)
            });
            let backlog = engine.backlog() as u64;
            if in_prefix {
                phase.prefix.backlog_max = phase.prefix.backlog_max.max(backlog);
            }
        }
        window += 1;
        let deadline = SimTime::from_ticks(window * load.window_ticks);
        traced(tracer, Name::RunUntil, || {
            engine.run_until(net, &faults, deadline);
            ((), (engine.completions().len() - seen) as u64)
        });
        let seen_at = Instant::now();
        let paused_at_seen = phase.op_ns.paused();
        for c in &engine.completions()[seen..] {
            let (_, target, submitted, paused) = requests[c.tag as usize];
            phase.ops += 1;
            if in_prefix {
                phase.prefix.ops += 1;
            }
            let hit = match &c.result {
                Ok(hit) => hit,
                Err(_) => {
                    phase.failed += 1;
                    continue;
                }
            };
            let mut answer = (hit.point, hit.node);
            if std::mem::take(&mut corrupt) {
                answer = net
                    .ring_index()
                    .strict_successor(hit.point, hit.node)
                    .expect("the ring has more than one peer");
            }
            let truth = net.ring_index().successor(target);
            if owners != Owners::Unchecked && truth != Some(answer) {
                phase.fail(format!(
                    "engine lookup {} for {} answered {} at {}, the ring index says {truth:?}",
                    c.tag,
                    target.get(),
                    answer.1,
                    answer.0.get()
                ));
                return;
            }
            // Time spent measuring the host is not the engine's.
            let latency = (seen_at - submitted).saturating_sub(paused_at_seen - paused);
            phase.op_ns.record(latency.as_nanos() as u64, seen_at);
            if in_prefix {
                let t = &mut phase.prefix;
                t.ok += 1;
                t.msgs += hit.cost.messages;
                t.sim.push((c.completed_at - c.submitted_at).ticks());
                t.attempts += u64::from(c.attempts);
                let until = c.completed_at.min(submit_end);
                t.inflight_ticks += (until - c.submitted_at.min(until)).ticks();
            }
        }
        seen = engine.completions().len();
    }
    if in_prefix {
        phase.prefix.timeouts += Counters::read(net).timeouts - timeouts_before;
        phase.prefix.submit_ticks += submit_end.ticks();
    }
    if phase.requests.is_empty() {
        phase.requests = requests.iter().map(|&(o, t, ..)| (o, t)).collect();
    }
}

/// The `q`-quantile (nearest rank) of `v`.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The stream the layer probes draw from.
pub fn probe_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(stream(seed, PROBES))
}
