//! Draw-level benchmark of the random-peer sampler over Chord.
//!
//! ```text
//! drawbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload's ring up, runs its loop for
//! `--seconds` with tracing off, checks every output, and prints every
//! end-to-end metric by name with its unit. With `--trace 1` it runs the
//! loop with spans recorded around each call into the library, replays the
//! same ops untraced on a rebuilt ring for the tracing overhead, probes the
//! layers the loop does not drive, writes the spans to a CSV file and
//! prints every per-layer metric. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every check passed.

mod dht;
mod hist;
mod layers;
mod reference;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use hist::{median, SLICE_OPS};
use workloads::{quantile, ring_points, Budget, Inject, Phase, Workload, NAMES};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Spans held in memory by a traced run (24 MB).
const SPAN_CAPACITY: usize = 600_000;

const USAGE: &str = "usage: drawbench --workload <draw-1e4|draw-1e6|churn-1e5|engine-1e5> \
--seed <n> --seconds <s> --trace <0|1> [--quick] [--trace-out <csv>] [--inject wrong-owner]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    inject: Inject,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut trace_out = None;
    let mut inject = Inject::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--inject" if value == "wrong-owner" => inject = Inject::WrongOwner,
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::named(&name, quick).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        inject,
    })
}

/// What one run prints.
struct Report {
    error: Option<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra lines for the human-readable table.
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drawbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "drawbench workload={} n={} seed={} seconds={} trace={}",
        w.name,
        w.n,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    if report.attempted == 0 {
        report.error.get_or_insert("no op was attempted".to_owned());
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report
            .error
            .get_or_insert(format!("metric {} is not finite", m.name));
    }
    for m in &report.metrics {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    if let Some(e) = &report.error {
        println!("  CHECK FAILED: {e}");
    }
    println!("{}", json(&report));
    if report.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn end_to_end_run(args: &Args) -> Report {
    let w = &args.workload;
    let points = ring_points(w, args.seed);
    let setup = workloads::setup(w, &points);
    drop(points);
    let mut net = setup.net;
    let budget = Budget {
        prefix: w.prefix,
        max_units: u64::MAX,
        seconds: args.seconds,
    };
    let mut phase = workloads::run(w, &mut net, args.seed, budget, None, args.inject);
    drop(net);
    let slices = &phase.op_ns;
    let p = &phase.prefix;
    let peak_rss_mb = phase.prefix_peak_rss_mb.unwrap_or(f64::NAN);
    let metrics = vec![
        m("ops_per_s", median(&slices.rates), "ops/s"),
        m("draw_p50_us", median(&slices.p50) / 1e3, "us"),
        m("draw_p99_us", median(&slices.p99) / 1e3, "us"),
        m("draw_p999_us", median(&slices.p999) / 1e3, "us"),
        m("msgs_per_op", p.msgs as f64 / p.ok.max(1) as f64, "msgs"),
        m("sim_p99_ticks", quantile(&p.sim, 0.99) as f64, "ticks"),
        m("setup_s", setup.setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let notes = vec![
        format!(
            "{:<42} {:>16.6} ratio",
            "failed_frac",
            phase.failed as f64 / phase.ops.max(1) as f64
        ),
        format!(
            "{} ops completed in {:.3} s ({:.1}/s unscaled); medians over {} slices of \
             {SLICE_OPS}; host speed {:.4}x the reference; exact counts over the first {} ops",
            phase.completed(),
            phase.wall_s,
            phase.completed() as f64 / phase.wall_s,
            slices.len(),
            median(&slices.speeds),
            p.ops
        ),
        counters_note(&phase),
    ];
    if phase.op_ns.len() == 0 {
        phase.error.get_or_insert(format!(
            "{} ops completed, fewer than one slice of {SLICE_OPS}",
            phase.completed()
        ));
    }
    Report {
        error: phase.error.take(),
        attempted: phase.ops,
        failed: phase.failed,
        metrics,
        notes,
    }
}

fn traced_run(args: &Args) -> Report {
    let w = &args.workload;
    let points = ring_points(w, args.seed);
    let mut net = workloads::setup(w, &points).net;
    let tracer = spans::Tracer::new(SPAN_CAPACITY);
    let budget = Budget {
        prefix: w.trace_prefix,
        max_units: u64::MAX,
        seconds: args.seconds / 2.0,
    };
    let traced = workloads::run(w, &mut net, args.seed, budget, Some(&tracer), args.inject);
    drop(net);

    // The same ops again, untraced, from an identical ring.
    tracer.set_op(traced.span_ops);
    let mut net = workloads::build(w, points, Some(&tracer));
    let exact = Budget {
        prefix: traced.units,
        max_units: traced.units,
        seconds: 0.0,
    };
    let untraced = workloads::run(w, &mut net, args.seed, exact, None, Inject::None);
    let rate = |p: &Phase| p.completed() as f64 / p.wall_s;
    let overhead_pct = (1.0 - rate(&traced) / rate(&untraced)) * 100.0;

    let probes = layers::run_probes(
        w,
        &mut net,
        args.seed,
        traced.span_ops + 1,
        &traced,
        &tracer,
    );
    drop(net);
    let spans = tracer.into_spans();
    let metrics = layers::per_layer(&layers::Traced {
        spans: &spans,
        main: &traced,
        probes: &probes,
        overhead_pct,
    });

    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| default_trace_path(args));
    let mut notes = vec![format!(
        "{} spans over {} traced and {} untraced loop units",
        spans.len(),
        traced.units,
        untraced.units
    )];
    notes.push(counters_note(&traced));
    let mut error = traced.error.clone().or(untraced.error).or(probes.error);
    match spans::write_csv(&spans, &path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => {
            error.get_or_insert(format!("writing spans to {}: {e}", path.display()));
        }
    }
    Report {
        error,
        attempted: traced.ops,
        failed: traced.failed,
        metrics,
        notes,
    }
}

/// `<target dir>/drawbench-trace/<workload>-seed<n>.csv`, where the target
/// dir is `$CARGO_TARGET_DIR` when set, else this package's `target/`.
fn default_trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    dir.join("drawbench-trace")
        .join(format!("{}-seed{}.csv", args.workload.name, args.seed))
}

fn counters_note(p: &Phase) -> String {
    let c = p.counters;
    format!(
        "recorder over the loop: lookup.hops={} lookup.dead_probe={} lookup.retries={} \
         lookup.fallback_depth={} engine.timeouts={}",
        c.hops, c.dead_probes, c.retries, c.fallback_depth, c.timeouts
    )
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.error.is_none(),
        r.attempted,
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
