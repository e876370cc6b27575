use std::collections::BTreeMap;

use telemetry::Recorder;

/// A thread-safe registry of named monotonic counters.
///
/// Chord increments counters per message kind (`lookup.hop`, `stabilize`,
/// `notify`, …) while the sampler and the experiment harness read snapshots
/// before and after an operation to attribute costs. Snapshots are
/// deterministically ordered for table output.
///
/// This type is a thin read shim over [`telemetry::Recorder`]. Writers
/// pre-register handles via [`Metrics::recorder`] →
/// [`Recorder::counter`](telemetry::Recorder::counter) and increment
/// through [`telemetry::CounterId`], a single lock-free atomic add per
/// event; [`Metrics::get`] and [`Metrics::snapshot`] read by name.
///
/// # Example
///
/// ```
/// use simnet::Metrics;
///
/// let m = Metrics::new();
/// let hop = m.recorder().counter("lookup.hop");
/// m.recorder().add(hop, 3);
/// assert_eq!(m.get("lookup.hop"), 3);
/// assert_eq!(m.get("unknown"), 0);
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    recorder: Recorder,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The underlying recorder: interned counter/histogram handles and
    /// lookup traces live there.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Current value of `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.recorder.counter_named(name)
    }

    /// A point-in-time copy of every counter that has been incremented.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.recorder.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_get() {
        let m = Metrics::new();
        let a = m.recorder().counter("a");
        let b = m.recorder().counter("b");
        m.recorder().incr(a);
        m.recorder().incr(a);
        m.recorder().add(b, 5);
        assert_eq!(m.get("a"), 2);
        assert_eq!(m.get("b"), 5);
        assert_eq!(m.get("c"), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_detached() {
        let m = Metrics::new();
        let z = m.recorder().counter("z");
        let a = m.recorder().counter("a");
        m.recorder().incr(z);
        m.recorder().incr(a);
        let snap = m.snapshot();
        let keys: Vec<_> = snap.keys().cloned().collect();
        assert_eq!(keys, vec!["a", "z"]);
        m.recorder().incr(a);
        assert_eq!(snap["a"], 1, "snapshot must not see later increments");
    }

    #[test]
    fn concurrent_increments_all_land() {
        let m = std::sync::Arc::new(Metrics::new());
        let shared = m.recorder().counter("shared");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.recorder().incr(shared);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.get("shared"), 8000);
    }
}
