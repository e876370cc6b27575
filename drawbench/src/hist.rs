//! Wall-clock latencies in fixed memory, cut into slices.
//!
//! Memory is fixed so a faster program that fits more ops into a run does
//! not grow the benchmark's own footprint (and with it `peak_rss_mb`).
//! The run is cut into slices of [`SLICE_OPS`] completed ops. Each slice's
//! throughput and latency quantiles are scaled to the reference host speed
//! measured on both sides of it (see [`crate::reference`]), and the run
//! reports the median slice, so a burst of contention moves one slice
//! rather than the result.

use std::time::{Duration, Instant};

use crate::reference::Reference;

/// Completed ops per slice: enough for ten samples beyond the 99.9th
/// percentile.
pub const SLICE_OPS: u64 = 10_000;

/// Linear sub-buckets per power of two: quantiles are exact to 0.1%.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of nanosecond latencies.
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHist {{ total: {} }}", self.total)
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB)
}

/// The midpoint of bucket `i`.
fn value(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = ((i - SUB) / SUB) as u32;
    let low = ((SUB + (i - SUB) % SUB) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank), in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        0.0
    }
}

/// Per-slice throughput and latency quantiles, scaled to the reference
/// host speed.
pub struct Slices {
    current: LatencyHist,
    started: Instant,
    reference: Reference,
    /// Host speed measured when the current slice started.
    speed_before: f64,
    /// Wall time spent in the reference kernel so far.
    paused: Duration,
    /// Ops per second of each finished slice.
    pub rates: Vec<f64>,
    /// 50th, 99th and 99.9th percentile of each finished slice, ns.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub p999: Vec<f64>,
    /// Host speed around each finished slice, relative to the reference.
    pub speeds: Vec<f64>,
}

impl Default for Slices {
    fn default() -> Slices {
        Slices {
            current: LatencyHist::default(),
            started: Instant::now(),
            reference: Reference::default(),
            speed_before: 1.0,
            paused: Duration::ZERO,
            rates: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            p999: Vec::new(),
            speeds: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Slices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slices {{ finished: {} }}", self.len())
    }
}

impl Slices {
    /// Measures the host speed and starts the first slice.
    pub fn begin(&mut self) {
        self.pause();
        self.started = Instant::now();
    }

    /// Records an op that took `ns` and completed at `at`. A full slice
    /// is closed by measuring the host speed again, outside any slice.
    pub fn record(&mut self, ns: u64, at: Instant) {
        self.current.record(ns);
        if self.current.len() < SLICE_OPS {
            return;
        }
        let secs = at.saturating_duration_since(self.started).as_secs_f64();
        let before = self.speed_before;
        self.pause();
        let speed = (before + self.speed_before) / 2.0;
        self.rates.push(SLICE_OPS as f64 / secs / speed);
        self.p50.push(self.current.quantile(0.5) * speed);
        self.p99.push(self.current.quantile(0.99) * speed);
        self.p999.push(self.current.quantile(0.999) * speed);
        self.speeds.push(speed);
        self.current = LatencyHist::default();
        self.started = Instant::now();
    }

    /// Wall time spent measuring the host so far: ops in flight across a
    /// measurement (engine lookups) subtract it from their latency.
    pub fn paused(&self) -> Duration {
        self.paused
    }

    fn pause(&mut self) {
        let t = Instant::now();
        self.speed_before = self.reference.speed();
        self.paused += t.elapsed();
    }

    /// Finished slices.
    pub fn len(&self) -> usize {
        self.rates.len()
    }
}

/// The median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[m],
        _ => (v[m - 1] + v[m]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_tight() {
        let mut last = 0;
        for ns in [
            0,
            1,
            1023,
            1024,
            1025,
            2047,
            2048,
            123_456,
            9_876_543_210,
            u64::MAX,
        ] {
            let i = index(ns);
            assert!(i >= last && i < BUCKETS);
            last = i;
            let v = value(i);
            assert!(
                (v - ns as f64).abs() <= ns as f64 / 1024.0 + 0.5,
                "{ns} -> {v}"
            );
        }
    }

    #[test]
    fn slices_close_every_slice_ops_and_scale_by_host_speed() {
        let mut s = Slices::default();
        s.begin();
        for i in 0..(2 * SLICE_OPS + 5) {
            s.record(100, Instant::now());
            assert!(i < SLICE_OPS || s.len() >= 1);
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.speeds.len(), 2);
        assert!(s.paused() > Duration::ZERO);
        // A 100 ns op reads as 100 ns on a host of reference speed.
        let p50 = s.p50[0] / s.speeds[0];
        assert!((p50 - 100.0).abs() < 0.5, "{p50}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut h = LatencyHist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.999), 999.0);
        assert_eq!(h.len(), 1000);
    }
}
