//! Deterministic fault injection for DHT backends (test-only).
//!
//! [`FaultyDht`] wraps any [`Dht`] and makes each operation fail with a
//! configured probability, letting the unit tests exercise the sampler's
//! and the estimator's [`DhtError`] paths (retry exhaustion, estimate
//! failure, partial scans) without standing up a churning Chord network.
//! Failures are drawn from a dedicated seeded RNG, so failure *schedules*
//! are reproducible independent of the sampler's own randomness.

use std::cell::RefCell;

use keyspace::{KeySpace, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Dht, DhtError, Resolved};

/// A wrapper injecting random operation failures into any DHT backend.
#[derive(Debug)]
pub struct FaultyDht<D> {
    inner: D,
    failure_probability: f64,
    rng: RefCell<StdRng>,
    injected: std::cell::Cell<u64>,
}

impl<D: Dht> FaultyDht<D> {
    /// Wraps `inner`, failing each `h`/`next` call independently with
    /// `failure_probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `failure_probability ∈ [0, 1]`.
    pub fn new(inner: D, failure_probability: f64, seed: u64) -> FaultyDht<D> {
        assert!(
            (0.0..=1.0).contains(&failure_probability),
            "failure probability {failure_probability} outside [0, 1]"
        );
        FaultyDht {
            inner,
            failure_probability,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            injected: std::cell::Cell::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the backend.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.get()
    }

    fn maybe_fail(&self) -> Result<(), DhtError> {
        if self.rng.borrow_mut().gen::<f64>() < self.failure_probability {
            self.injected.set(self.injected.get() + 1);
            Err(DhtError::RoutingFailed { hops: 0 })
        } else {
            Ok(())
        }
    }
}

impl<D: Dht> Dht for FaultyDht<D> {
    type Peer = D::Peer;

    fn space(&self) -> KeySpace {
        self.inner.space()
    }

    fn h(&self, x: Point) -> Result<Resolved<D::Peer>, DhtError> {
        self.maybe_fail()?;
        self.inner.h(x)
    }

    fn next(&self, p: D::Peer) -> Result<Resolved<D::Peer>, DhtError> {
        self.maybe_fail()?;
        self.inner.next(p)
    }

    fn point_of(&self, p: D::Peer) -> Result<Point, DhtError> {
        // Local reads don't traverse the network; they never fail.
        self.inner.point_of(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkSizeEstimator, OracleDht, SampleError, Sampler, SamplerConfig};
    use keyspace::SortedRing;

    fn oracle(n: usize, seed: u64) -> OracleDht {
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(seed);
        OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, n)))
    }

    #[test]
    fn zero_probability_is_transparent() {
        let dht = FaultyDht::new(oracle(100, 1), 0.0, 2);
        let sampler = Sampler::new(SamplerConfig::new(100));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert!(sampler.sample(&dht, &mut rng).is_ok());
        }
        assert_eq!(dht.injected_failures(), 0);
    }

    #[test]
    fn total_failure_surfaces_dht_error() {
        let dht = FaultyDht::new(oracle(100, 4), 1.0, 5);
        let sampler = Sampler::new(SamplerConfig::new(100));
        let mut rng = StdRng::seed_from_u64(6);
        let err = sampler.sample(&dht, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            SampleError::Dht(DhtError::RoutingFailed { .. })
        ));
        assert!(dht.injected_failures() > 0);
    }

    #[test]
    fn estimator_propagates_injected_failures() {
        let dht = FaultyDht::new(oracle(500, 7), 1.0, 8);
        let err = NetworkSizeEstimator::default()
            .estimate(&dht, 0)
            .unwrap_err();
        assert_eq!(err, DhtError::RoutingFailed { hops: 0 });
    }

    #[test]
    fn moderate_failure_rate_still_usually_succeeds_with_retries() {
        // A full sample touches ~15 DHT ops (≈7 trials × 2 ops), so even
        // a 2% per-op failure rate fails ~26% of samples — the
        // application-level retry loop absorbs that.
        let dht = FaultyDht::new(oracle(200, 9), 0.02, 10);
        let sampler = Sampler::new(SamplerConfig::new(200));
        let mut rng = StdRng::seed_from_u64(11);
        let mut ok = 0;
        for _ in 0..100 {
            for _ in 0..8 {
                if sampler.sample(&dht, &mut rng).is_ok() {
                    ok += 1;
                    break;
                }
            }
        }
        assert!(ok >= 97, "only {ok}/100 samples succeeded with retries");
        assert!(dht.injected_failures() > 0, "failures must actually occur");
    }

    #[test]
    fn failure_schedule_is_reproducible() {
        let run = |seed| {
            let dht = FaultyDht::new(oracle(100, 12), 0.3, seed);
            let sampler = Sampler::new(SamplerConfig::new(100));
            let mut rng = StdRng::seed_from_u64(13);
            let results: Vec<bool> = (0..50)
                .map(|_| sampler.sample(&dht, &mut rng).is_ok())
                .collect();
            (results, dht.injected_failures())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn point_of_never_fails() {
        let dht = FaultyDht::new(oracle(10, 14), 1.0, 15);
        assert!(dht.point_of(3).is_ok());
        assert_eq!(dht.inner().len(), 10);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_probability_panics() {
        let _ = FaultyDht::new(oracle(10, 16), 1.5, 17);
    }

    #[test]
    fn into_inner_round_trips() {
        let dht = FaultyDht::new(oracle(10, 18), 0.5, 19);
        assert_eq!(dht.into_inner().len(), 10);
    }
}
