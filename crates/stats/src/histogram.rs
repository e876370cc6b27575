use core::fmt;

/// Sub-bucket resolution of [`LogHistogram`]: 2^4 = 16 linear sub-buckets
/// per power-of-two octave, bounding relative quantile error at 1/16.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// One tail exemplar: a concrete operation id pinned to the histogram
/// bucket its value landed in, so a percentile figure can be traced back
/// to a replayable operation (see `telemetry`'s flight recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Bucket index the exemplar's value landed in
    /// (see [`LogHistogram::bucket_index`]).
    pub bucket: usize,
    /// The recorded value.
    pub value: u64,
    /// Caller-supplied operation id (e.g. a lookup-trace ordinal).
    pub trace_id: u64,
}

/// Log-bucketed histogram over `u64` values with bounded relative error.
///
/// Values below 16 land in exact unit buckets; above that, each power-of-two
/// octave is split into 16 linear sub-buckets, so any reported quantile `q`
/// satisfies `exact ≤ q ≤ exact · (1 + 1/16)`. The fixed bucket count
/// ([`LogHistogram::BUCKETS`]) makes the type mergeable across workers and
/// cheap to snapshot from atomic counters (see `telemetry::Recorder`).
///
/// Percentiles use the same nearest-rank convention as [`crate::Summary`],
/// returning the *upper edge* of the selected bucket
/// clamped to the exact observed maximum — quantiles never under-report,
/// which keeps them safe for tail-bound assertions.
///
/// A histogram can optionally carry [`Exemplar`]s — at most one per
/// bucket, keep-first — linking tail buckets to concrete operation ids;
/// see [`LogHistogram::offer_exemplar`].
///
/// # Example
///
/// ```
/// use stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000);
/// let p99 = h.percentile(99.0);
/// assert!((990..=1052).contains(&p99)); // within 1/16 of exact 990
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    exemplars: Vec<Exemplar>,
}

impl LogHistogram {
    /// Number of buckets: 16 exact unit buckets plus 16 sub-buckets for
    /// each of the 60 remaining octaves of the `u64` range.
    pub const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS as usize) + SUB as usize;

    /// Maximum exemplars one histogram retains (one slot per distinct
    /// bucket, keep-first, so the cap only binds on very spread-out
    /// distributions).
    pub const MAX_EXEMPLARS: usize = 32;

    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
            exemplars: Vec::new(),
        }
    }

    /// Maps a value to its bucket index. Total order is preserved:
    /// `a <= b` implies `bucket_index(a) <= bucket_index(b)`.
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB {
            value as usize
        } else {
            let top = 63 - value.leading_zeros(); // >= SUB_BITS
            let sub = ((value >> (top - SUB_BITS)) & (SUB - 1)) as usize;
            (((top - SUB_BITS + 1) as usize) << SUB_BITS) + sub
        }
    }

    /// Upper edge (inclusive) of a bucket — the value reported for any
    /// sample that landed in it.
    pub fn bucket_upper(index: usize) -> u64 {
        assert!(index < Self::BUCKETS, "bucket index {index} out of range");
        if index < SUB as usize {
            index as u64
        } else {
            let octave = (index >> SUB_BITS) as u32 + SUB_BITS - 1;
            let sub = (index as u64) & (SUB - 1);
            let shift = octave - SUB_BITS;
            let upper = ((SUB + sub + 1) as u128) << shift;
            (upper - 1).min(u64::MAX as u128) as u64
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.total += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Rebuilds a histogram from raw bucket counts (e.g. snapshotted from
    /// atomic storage) plus the exactly-tracked min/max observations.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != LogHistogram::BUCKETS`.
    pub fn from_bucket_counts(counts: &[u64], min: u64, max: u64) -> LogHistogram {
        assert_eq!(
            counts.len(),
            Self::BUCKETS,
            "bucket snapshot has wrong length"
        );
        let total = counts.iter().sum();
        LogHistogram {
            counts: counts.to_vec(),
            total,
            min: if total == 0 { u64::MAX } else { min },
            max: if total == 0 { 0 } else { max },
            exemplars: Vec::new(),
        }
    }

    /// Records one observation and offers `trace_id` as the bucket's
    /// exemplar. The first observation to land in a bucket wins its slot
    /// (deterministic keep-first); later offers for the same bucket are
    /// ignored, as is everything past [`LogHistogram::MAX_EXEMPLARS`]
    /// distinct buckets.
    #[cfg(test)]
    pub(crate) fn record_with_exemplar(&mut self, value: u64, trace_id: u64) {
        self.record(value);
        self.offer_exemplar(value, trace_id);
    }

    /// Offers an exemplar without recording a new observation (used when
    /// the count was already tallied elsewhere, e.g. in atomic storage).
    pub fn offer_exemplar(&mut self, value: u64, trace_id: u64) {
        let bucket = Self::bucket_index(value);
        match self.exemplars.binary_search_by_key(&bucket, |e| e.bucket) {
            Ok(_) => {} // keep-first: the slot is taken
            Err(pos) => {
                if self.exemplars.len() < Self::MAX_EXEMPLARS {
                    self.exemplars.insert(
                        pos,
                        Exemplar {
                            bucket,
                            value,
                            trace_id,
                        },
                    );
                }
            }
        }
    }

    /// The retained exemplars, sorted by bucket index.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Drops every exemplar (window-reset path; counts are untouched).
    #[cfg(test)]
    pub(crate) fn clear_exemplars(&mut self) {
        self.exemplars.clear();
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, `p ∈ [0, 100]`; 0 when empty.
    ///
    /// Returns the upper edge of the bucket holding the rank-selected
    /// sample, clamped to the exact maximum, so the result is within
    /// `+1/16` relative error of the exact quantile and never below it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.total == 0 {
            return 0;
        }
        if p == 0.0 {
            return self.min();
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// The 50th percentile.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merges another histogram's counts into this one. Exemplars keep
    /// the keep-first policy: this histogram's slots win, `other`'s fill
    /// buckets still empty (in bucket order), up to the retention cap.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for e in &other.exemplars {
            self.offer_exemplar(e.value, e.trace_id);
        }
    }

    /// Raw bucket counts (length [`LogHistogram::BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loghist(n={} p50={} p90={} p99={} p999={} max={})",
            self.total,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;

    #[test]
    fn loghist_bucket_index_is_monotone_at_boundaries() {
        // Every power-of-two edge and its neighbours must stay ordered.
        let mut edges: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for delta in [-1i128, 0, 1] {
                let v = (1i128 << shift) + delta;
                if (0..=u64::MAX as i128).contains(&v) {
                    edges.push(v as u64);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut last = 0usize;
        for &v in &edges {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx >= last, "index regressed at value {v}");
            assert!(idx < LogHistogram::BUCKETS);
            assert!(LogHistogram::bucket_upper(idx) >= v);
            last = idx;
        }
        assert_eq!(
            LogHistogram::bucket_index(u64::MAX),
            LogHistogram::BUCKETS - 1
        );
        assert_eq!(
            LogHistogram::bucket_upper(LogHistogram::BUCKETS - 1),
            u64::MAX
        );
    }

    #[test]
    fn loghist_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            let p = (v + 1) as f64 / SUB as f64 * 100.0;
            assert_eq!(h.percentile(p), v, "unit bucket {v} must be exact");
        }
    }

    #[test]
    fn loghist_empty_is_benign() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn loghist_single_sample_is_exact_everywhere() {
        for v in [0u64, 1, 15, 16, 17, 1000, u64::MAX] {
            let mut h = LogHistogram::new();
            h.record(v);
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            // Max-clamping makes every percentile exact for one sample.
            for p in [0.0, 0.1, 50.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), v, "p{p} of single sample {v}");
            }
        }
    }

    #[test]
    fn loghist_all_equal_samples() {
        let mut h = LogHistogram::new();
        h.record_n(777, 10_000);
        assert_eq!(h.count(), 10_000);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 777);
        }
    }

    #[test]
    fn loghist_u64_max_does_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn loghist_merge_equals_sequential() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 4099;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn loghist_from_bucket_counts_roundtrips() {
        let mut h = LogHistogram::new();
        for v in [3u64, 99, 4096, 70_000] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_bucket_counts(h.bucket_counts(), h.min(), h.max());
        assert_eq!(rebuilt, h);
        let empty =
            LogHistogram::from_bucket_counts(&vec![0u64; LogHistogram::BUCKETS], u64::MAX, 0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn loghist_bucket_snapshot_length_checked() {
        let _ = LogHistogram::from_bucket_counts(&[0u64; 3], 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn loghist_percentile_range_checked() {
        let mut h = LogHistogram::new();
        h.record(1);
        let _ = h.percentile(-1.0);
    }

    #[test]
    fn exemplars_keep_first_per_bucket_and_stay_bucket_sorted() {
        let mut h = LogHistogram::new();
        h.record_with_exemplar(100, 7);
        h.record_with_exemplar(101, 8); // same bucket as 100: ignored
        h.record_with_exemplar(3, 9);
        assert_eq!(h.count(), 3);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!((ex[0].value, ex[0].trace_id), (3, 9));
        assert_eq!((ex[1].value, ex[1].trace_id), (100, 7));
        assert!(ex[0].bucket < ex[1].bucket, "sorted by bucket");
        assert_eq!(ex[1].bucket, LogHistogram::bucket_index(100));
        h.clear_exemplars();
        assert!(h.exemplars().is_empty());
        assert_eq!(h.count(), 3, "clearing exemplars keeps counts");
    }

    #[test]
    fn exemplar_capacity_is_bounded() {
        let mut h = LogHistogram::new();
        for i in 0..200u64 {
            // Distinct octaves so every record targets a fresh bucket.
            h.record_with_exemplar(1 << (i % 60), i);
        }
        assert!(h.exemplars().len() <= LogHistogram::MAX_EXEMPLARS);
    }

    #[test]
    fn merge_unions_exemplars_keep_first() {
        let mut a = LogHistogram::new();
        a.record_with_exemplar(50, 1);
        let mut b = LogHistogram::new();
        b.record_with_exemplar(51, 2); // same bucket: a's slot wins
        b.record_with_exemplar(4000, 3); // new bucket: adopted
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let ids: Vec<u64> = a.exemplars().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn loghist_matches_summary_on_small_values() {
        // For values < 16 buckets are exact, so LogHistogram must agree
        // with Summary's nearest-rank answer bit for bit.
        let samples: Vec<u64> = (0..500).map(|i| (i * 7 + 3) % 16).collect();
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let s = Summary::from_samples(samples.iter().map(|&v| v as f64)).unwrap();
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p) as f64, s.percentile(p), "p{p}");
        }
    }
}

#[cfg(test)]
mod loghist_properties {
    use super::*;
    use crate::Summary;
    use proptest::prelude::*;

    /// Draws 400 samples from `gen` over a SplitMix64 stream, then checks
    /// every interesting percentile against the exact sorted-vector answer:
    /// `exact <= approx <= exact * (1 + 1/16) + 1`.
    fn prop_check_distribution(seed: u64, gen: impl Fn(u64) -> u64) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let samples: Vec<u64> = (0..400).map(|_| gen(next())).collect();
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let exact = Summary::from_samples(samples.iter().map(|&v| v as f64)).unwrap();
        for p in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let approx = h.percentile(p) as f64;
            let reference = exact.percentile(p);
            assert!(
                approx >= reference,
                "p{p}: approx {approx} under-reports exact {reference}"
            );
            let bound = reference * (1.0 + 1.0 / SUB as f64) + 1.0;
            assert!(
                approx <= bound,
                "p{p}: approx {approx} exceeds bound {bound} (exact {reference})"
            );
        }
        assert_eq!(h.max() as f64, exact.max());
        assert_eq!(h.min() as f64, exact.min());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Uniform draws over several magnitude ranges.
        #[test]
        fn uniform_within_contract(seed in 0u64..1_000_000, span in 1u64..1 << 40) {
            prop_check_distribution(seed, move |x| x % span);
        }

        /// Zipf-ish heavy tail: rank r gets value span / (r + 1).
        #[test]
        fn zipf_within_contract(seed in 0u64..1_000_000) {
            prop_check_distribution(seed, |x| (1u64 << 40) / (x % 512 + 1));
        }

        /// Adversarial: values clustered hard on bucket boundaries.
        #[test]
        fn bucket_boundary_within_contract(seed in 0u64..1_000_000) {
            prop_check_distribution(seed, |x| {
                let shift = (x % 50) as u32;
                let base = 1u64 << shift;
                match x % 3 {
                    0 => base - 1,
                    1 => base,
                    _ => base + 1,
                }
            });
        }
    }
}
