//! The host-speed reference kernel.
//!
//! Shared hosts drift: on the machine this benchmark was tuned on, the
//! same run of the same seed read anywhere from 20 000 to 50 000 draws/s
//! within an hour, in spells of tens of seconds to minutes as neighbours
//! loaded the shared cores and caches, far beyond any bound a regression
//! check can use. So a fixed kernel, owned by the benchmark and untouched
//! by changes to the library, is timed next to every slice of ops, and
//! the slice's timings are scaled by the kernel's speed relative to
//! [`REFERENCE_HZ`]: they read as they would on a host where the kernel
//! runs at that speed. The kernel mixes what a draw does — sorting a small
//! vector by a table-lookup key, ordered-map range reads and writes, and
//! xorshift arithmetic — so it slows with the draws; scaled, the ten-run
//! spread of the timings fell from 18–36% to 3–12% on that host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per second on the reference host. A definition,
/// not a measurement: scaled timings equal raw ones on a host that runs
/// the kernel at this speed.
pub const REFERENCE_HZ: f64 = 1.0e6;

/// Iterations per timed pass (about 1.5 ms).
const ITERS: u64 = 2_000;
const MAP_KEYS: u64 = 4_096;
const TABLE: usize = 8_192;

/// The kernel's data: about 200 KB, so it stays in the core's caches.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            map: (0..MAP_KEYS)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
                .collect(),
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .collect(),
            keys: Vec::with_capacity(32),
        }
    }
}

impl Reference {
    /// This host's speed relative to the reference host (above 1 when
    /// faster). The first pass only warms the kernel's data back into the
    /// caches the workload evicted, so the library's own cache footprint
    /// does not leak into the figure.
    pub fn speed(&mut self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        ITERS as f64 / start.elapsed().as_secs_f64() / REFERENCE_HZ
    }

    /// One pass: identical work every time, and the map ends as it began.
    fn pass(&mut self) {
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        let mut acc = 0u64;
        for _ in 0..ITERS {
            self.keys.clear();
            for _ in 0..24 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.keys.push(x);
            }
            let table = &self.table;
            self.keys.sort_by_key(|&k| table[k as usize % TABLE]);
            if let Some((_, v)) = self.map.range(self.keys[0]..).next() {
                acc = acc.wrapping_add(*v);
            }
            let k = self.keys[1] | 1;
            if self.map.insert(k, acc).is_none() {
                self.map.remove(&k);
            }
        }
        black_box(acc);
    }
}
