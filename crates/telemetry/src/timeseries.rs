use std::collections::{BTreeMap, VecDeque};

use stats::LogHistogram;

/// One observation window produced by
/// [`Recorder::reset_window`](crate::Recorder::reset_window): counter
/// *deltas* since the previous window boundary, per-histogram *delta*
/// tails, and feeder-set gauges.
///
/// Deltas are computed per counter **slot** against a per-slot base value,
/// never by diffing two zero-skipping
/// [`Recorder::snapshot`](crate::Recorder::snapshot) maps.
/// The distinction matters: `snapshot()`
/// omits zero-valued counters, so a counter that was nonzero in a previous
/// window and untouched in this one would silently vanish from a
/// map-difference — here it stays present with an explicit zero delta
/// (see the `window_deltas_never_drop_previously_nonzero_counters`
/// regression test in the recorder module).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Zero-based window index; increments on every
    /// `Recorder::reset_window` call and resets with `Recorder::reset`.
    pub index: u64,
    /// Delta of every *registered* counter over this window. Zero deltas
    /// are included on purpose — consumers can zip columns across windows
    /// without realigning keys.
    pub counters: BTreeMap<String, u64>,
    /// Per-histogram delta tail for this window, in registration order.
    /// Extrema are bucket-derived (see `Recorder::reset_window`), so
    /// quantiles are exact to within the histogram's 1/16 bucketing error.
    pub hists: Vec<(String, LogHistogram)>,
    /// Instantaneous gauges stamped by the feeder (live count, backlog,
    /// staleness, …) — the recorder itself never writes these.
    pub gauges: BTreeMap<String, f64>,
}

impl WindowSnapshot {
    /// Delta of a counter in this window (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// This window's delta histogram by name, if registered.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Stamps (or overwrites) a gauge value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// A stamped gauge value (0.0 if absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

/// One attributed health event as stored in the recorder's flight log:
/// which SLO rule fired, in which window, against which bound, and which
/// nodes / operation class the breach is pinned on. The typed
/// rule lives in the `chord` watchdog; telemetry stores the rendered
/// form so the crate stays dependency-free.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEventRecord {
    /// Window index the rule was evaluated in.
    pub window: u64,
    /// Stable rule name (e.g. `"hop_p99"`, `"staleness"`, `"chi_drift"`).
    pub rule: String,
    /// `true` on a breach edge, `false` on the matching recovery edge.
    pub breach: bool,
    /// The measured value that was checked against the bound.
    pub measured: f64,
    /// The bound in force when the rule was evaluated.
    pub bound: f64,
    /// Label of the operation class the rule observes
    /// (e.g. `"maintenance.round"`, `"draw.defended"`).
    pub scope: String,
    /// Ring points of the sampled nodes that failed verification in this
    /// window (empty when the rule has no per-node attribution).
    pub nodes: Vec<u64>,
}

/// Fixed-capacity, deterministic ring of [`WindowSnapshot`]s — the
/// longitudinal view the flat end-of-run counters cannot give.
///
/// Pushing past capacity evicts the oldest window, mirroring the flight
/// recorder's ring semantics so a breach dump always shows the *most
/// recent* history.
/// Everything is plain owned data: same seed ⇒ byte-identical series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    windows: VecDeque<WindowSnapshot>,
    recorded: u64,
}

impl TimeSeries {
    /// Creates an empty series retaining at most `capacity` windows
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> TimeSeries {
        let capacity = capacity.max(1);
        TimeSeries {
            capacity,
            windows: VecDeque::with_capacity(capacity.min(1024)),
            recorded: 0,
        }
    }

    /// Appends a window, evicting the oldest when full.
    pub fn push(&mut self, window: WindowSnapshot) {
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(window);
        self.recorded += 1;
    }

    /// Retained windows, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &WindowSnapshot> {
        self.windows.iter()
    }

    /// The most recent window, if any.
    pub fn latest(&self) -> Option<&WindowSnapshot> {
        self.windows.back()
    }

    /// Number of retained windows (≤ capacity).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no windows are retained.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total windows ever pushed (≥ [`TimeSeries::len`]).
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Maximum retained windows.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-window delta column for a counter, oldest first.
    #[cfg(test)]
    pub(crate) fn counter_column(&self, name: &str) -> Vec<u64> {
        self.windows.iter().map(|w| w.counter(name)).collect()
    }

    /// Per-window gauge column, oldest first (0.0 where unstamped).
    pub fn gauge_column(&self, name: &str) -> Vec<f64> {
        self.windows.iter().map(|w| w.gauge(name)).collect()
    }

    /// Merges every retained window's delta histogram for `name` back
    /// into one histogram. When no window was evicted this reproduces
    /// the whole-run histogram: bucket counts match exactly, and the
    /// extrema (hence clamped quantiles) agree to within the 1/16
    /// bucketing error — property-tested in this module.
    #[cfg(test)]
    pub(crate) fn merged_histogram(&self, name: &str) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for w in &self.windows {
            if let Some(h) = w.hist(name) {
                merged.merge(h);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use proptest::prelude::*;

    fn window(index: u64, counters: &[(&str, u64)]) -> WindowSnapshot {
        WindowSnapshot {
            index,
            counters: counters.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            hists: Vec::new(),
            gauges: BTreeMap::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_all() {
        let mut ts = TimeSeries::new(2);
        for i in 0..5 {
            ts.push(window(i, &[("x", i)]));
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.recorded(), 5);
        assert_eq!(ts.counter_column("x"), vec![3, 4]);
        assert_eq!(ts.latest().unwrap().index, 4);
    }

    #[test]
    fn gauge_columns_default_to_zero() {
        let mut ts = TimeSeries::new(4);
        let mut w = window(0, &[]);
        w.set_gauge("live", 96.0);
        ts.push(w);
        ts.push(window(1, &[]));
        assert_eq!(ts.gauge_column("live"), vec![96.0, 0.0]);
        assert_eq!(ts.gauge_column("absent"), vec![0.0, 0.0]);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut ts = TimeSeries::new(0);
        ts.push(window(0, &[]));
        ts.push(window(1, &[]));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.capacity(), 1);
    }

    /// Ring eviction drops whole windows, never mutates survivors: the
    /// retained windows' delta histograms keep their bucket counts *and*
    /// their exemplar slots after older windows fall off the front.
    #[test]
    fn eviction_preserves_surviving_deltas_and_exemplars() {
        let r = Recorder::new();
        let h = r.histogram("hops");
        let mut ts = TimeSeries::new(2);
        // Window i records one value (i+1) with trace id 100+i.
        for i in 0..5u64 {
            r.record_with_exemplar(h, i + 1, 100 + i);
            ts.push(r.reset_window());
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.recorded(), 5);
        let retained: Vec<&WindowSnapshot> = ts.iter().collect();
        for (w, i) in retained.iter().zip(3u64..) {
            assert_eq!(w.index, i);
            let hist = w.hist("hops").expect("delta hist survives eviction");
            assert_eq!(hist.count(), 1);
            let ex = hist.exemplars();
            assert_eq!(ex.len(), 1, "window {i} kept its exemplar");
            assert_eq!(ex[0].value, i + 1);
            assert_eq!(ex[0].trace_id, 100 + i);
        }
        // Merging the survivors unions their exemplars too.
        let merged = ts.merged_histogram("hops");
        let ids: Vec<u64> = merged.exemplars().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![103, 104]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tentpole property: splitting a run into windows and merging the
        /// per-window delta histograms reproduces the whole-run histogram —
        /// bucket counts exactly, quantiles to within the 1/16 bucketing
        /// error (the merged extrema are bucket-derived, the cumulative
        /// ones exact).
        #[test]
        fn merging_windows_reproduces_the_whole_run_histogram(
            windows in proptest::collection::vec(
                proptest::collection::vec(1u64..1_000_000, 0..40),
                1..8,
            ),
        ) {
            let r = Recorder::new();
            let h = r.histogram("hops");
            let mut ts = TimeSeries::new(windows.len());
            let mut whole = LogHistogram::new();
            for values in &windows {
                for &v in values {
                    r.record(h, v);
                    whole.record(v);
                }
                ts.push(r.reset_window());
            }
            let merged = ts.merged_histogram("hops");
            prop_assert_eq!(merged.bucket_counts(), whole.bucket_counts());
            prop_assert_eq!(merged.count(), whole.count());
            if !whole.is_empty() {
                for p in [50.0, 90.0, 99.0] {
                    let exact = whole.percentile(p);
                    let windowed = merged.percentile(p);
                    prop_assert!(windowed >= exact);
                    prop_assert!(
                        windowed <= exact + exact / 16 + 1,
                        "p{} drifted past bucketing error: {} vs {}",
                        p, windowed, exact
                    );
                }
            }
        }

        /// Wraparound property: with capacity smaller than the number of
        /// windows pushed, merging the survivors is bucket-exact against a
        /// reference histogram built from only the non-evicted suffix, and
        /// the surviving windows' exemplars (one per window here) are
        /// exactly the suffix's trace ids, in order.
        #[test]
        fn merge_stays_bucket_exact_after_wraparound(
            windows in proptest::collection::vec(
                proptest::collection::vec(1u64..1_000_000, 1..20),
                2..10,
            ),
            capacity in 1usize..6,
        ) {
            let r = Recorder::new();
            let h = r.histogram("hops");
            let mut ts = TimeSeries::new(capacity);
            for (i, values) in windows.iter().enumerate() {
                for &v in values {
                    // First value of each window claims the exemplar slot
                    // for its bucket; trace id encodes the window index.
                    r.record_with_exemplar(h, v, i as u64);
                }
                ts.push(r.reset_window());
            }
            let survivors = windows.len().min(capacity);
            let suffix = &windows[windows.len() - survivors..];
            let mut reference = LogHistogram::new();
            for values in suffix {
                for &v in values {
                    reference.record(v);
                }
            }
            let merged = ts.merged_histogram("hops");
            prop_assert_eq!(ts.len(), survivors);
            prop_assert_eq!(merged.bucket_counts(), reference.bucket_counts());
            prop_assert_eq!(merged.count(), reference.count());
            // Every surviving window still resolves to a suffix trace id,
            // and the merged union keeps first-claim-wins semantics: each
            // exemplar's id names a window that is still retained.
            let first_kept = (windows.len() - survivors) as u64;
            for e in merged.exemplars() {
                prop_assert!(e.trace_id >= first_kept,
                    "exemplar {} cites an evicted window", e.trace_id);
            }
            prop_assert!(!merged.exemplars().is_empty());
        }
    }
}
