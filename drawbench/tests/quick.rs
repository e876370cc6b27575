//! Quick-mode runs of every workload: every metric `BENCHMARK.json`
//! declares is emitted with its unit, a wrong owner fails the run, and the
//! exact counts repeat for a seed.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["draw-1e4", "draw-1e6", "churn-1e5", "engine-1e5"];

struct Run {
    success: bool,
    stdout: String,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let trace_out: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("{workload}-{seed}.csv"),
    ]
    .iter()
    .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_drawbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--trace-out", trace_out.to_str().expect("utf-8 path")])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::from_str::<Value>(last).expect("the last line is JSON");
    Run {
        success: out.status.success(),
        stdout,
        result,
    }
}

fn quick(workload: &str, seed: u64, trace: bool) -> Run {
    run(workload, seed, trace, &["--quick"])
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {}", other.kind()),
    }
}

fn metric(r: &Run, name: &str) -> f64 {
    let m = r.result.get("metrics").and_then(|m| m.get(name));
    number(
        m.and_then(|m| m.get("value"))
            .unwrap_or_else(|| panic!("no metric {name}")),
    )
}

/// `(name, unit)` of each metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str::<Value>(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
    doc.get(section)
        .and_then(Value::as_seq)
        .expect(section)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn assert_emits(r: &Run, section: &str) {
    assert!(r.success, "run failed:\n{}", r.stdout);
    assert_eq!(r.result.get("correct"), Some(&Value::Bool(true)));
    assert!(number(r.result.get("attempted").expect("attempted")) >= 1.0);
    let metrics = r
        .result
        .get("metrics")
        .and_then(Value::as_map)
        .expect("metrics");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            assert!(number(v.get("value").expect("value")).is_finite());
            (k.clone(), unit.to_owned())
        })
        .collect();
    assert_eq!(
        emitted,
        declared(section),
        "{section} metrics differ:\n{}",
        r.stdout
    );
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for w in WORKLOADS {
        let e2e = quick(w, 3, false);
        assert_emits(&e2e, "end_to_end");
        assert!(e2e.stdout.contains("failed_frac"), "{}", e2e.stdout);
        if w.starts_with("draw") {
            assert_eq!(number(e2e.result.get("failed").expect("failed")), 0.0);
        }
        assert_emits(&quick(w, 3, true), "per_layer");
    }
}

#[test]
fn a_wrong_owner_trips_the_check() {
    for w in ["draw-1e4", "engine-1e5"] {
        let r = run(w, 5, false, &["--quick", "--inject", "wrong-owner"]);
        assert!(!r.success, "{w}: a wrong owner passed:\n{}", r.stdout);
        assert_eq!(r.result.get("correct"), Some(&Value::Bool(false)));
        assert!(r.stdout.contains("the ring index says"), "{}", r.stdout);
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for w in ["draw-1e4", "churn-1e5", "engine-1e5"] {
        let (a, b) = (quick(w, 11, false), quick(w, 11, false));
        for name in ["msgs_per_op", "sim_p99_ticks"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{w} {name}");
        }
        let (a, b) = (quick(w, 11, true), quick(w, 11, true));
        for name in [
            "core.sampler.trials_per_draw",
            "chord.lookup.hops_per_lookup",
            "chord.maintenance.lookups_per_round",
        ] {
            assert_eq!(metric(&a, name), metric(&b, name), "{w} {name}");
        }
    }
}

#[test]
fn another_seed_moves_messages_per_draw_by_under_two_percent() {
    // Full size: the ring's n sets the cost, and --seconds 0 runs just the
    // counted prefix.
    let msgs = |seed: u64| {
        let r = run("draw-1e4", seed, false, &["--seconds", "0"]);
        assert!(r.success, "{}", r.stdout);
        metric(&r, "msgs_per_op")
    };
    let (a, b) = (msgs(1), msgs(2));
    assert_ne!(a, b, "different rings should cost differently");
    assert!((a - b).abs() / a.max(b) < 0.02, "{a} vs {b}");
}
