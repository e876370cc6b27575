//! Adaptive peer scoring and the retry/fallback lookup policy.
//!
//! Two cooperating pieces of routing robustness live here:
//!
//! * [`PeerScores`] — a deterministic per-node responsiveness table fed
//!   by per-hop probe outcomes (the same events `LookupTrace` records):
//!   an integer EWMA of probe success plus a consecutive-failure
//!   counter, **2 bytes per node** total (bench-gated at ≤ 8 B/node).
//!   `find_successor`'s finger-candidate ranking consults it to sink
//!   flaky peers to the back of the probe order — the
//!   `PeerResponseTracker` first-responder idiom, without wall clocks.
//! * [`RetryPolicy`] — bounded re-attempts with deterministic backoff
//!   (latency in ticks, no RNG), then graceful degradation through two
//!   fallback tiers: a successor-walk from the origin, and finally a
//!   verified-quorum resolution that always returns the correct owner
//!   at an attributed extra message cost. A lookup under a policy
//!   *degrades* instead of failing.
//!
//! Both are opt-in on [`ChordNetwork`](crate::ChordNetwork)
//! (`enable_adaptive_routing` / `enable_retry_policy`); with neither
//! enabled every lookup code path is byte-identical to the pre-adaptive
//! overlay.

use crate::network::NodeId;

/// Tuning for the [`PeerScores`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// EWMA decay shift `s`: each outcome folds in with weight `1/2^s`
    /// (`ewma ← ewma − ewma/2^s + outcome/2^s`, integer arithmetic).
    pub ewma_shift: u8,
    /// A peer whose EWMA falls below this floor is *penalized* — ranked
    /// behind every non-penalized candidate at the same routing step.
    pub penalty_floor: u8,
    /// Consecutive probe failures that penalize a peer outright,
    /// regardless of its EWMA (fast reaction to a fresh crash).
    pub fail_threshold: u8,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            ewma_shift: 3,
            penalty_floor: 128,
            fail_threshold: 2,
        }
    }
}

/// Maximum score: a peer that has answered every probe (and the prior
/// for a peer never probed).
pub const SCORE_MAX: u8 = u8::MAX;

/// Deterministic per-node responsiveness scores.
///
/// Stored as two lazily grown `u8` columns indexed by arena slot —
/// exactly 2 bytes of state per node ever probed. All arithmetic is
/// integer and RNG-free, so enabling scoring cannot perturb a run's
/// random streams.
#[derive(Debug, Clone)]
pub struct PeerScores {
    config: AdaptiveConfig,
    ewma: Vec<u8>,
    fails: Vec<u8>,
}

impl PeerScores {
    /// An empty table under `config`.
    pub fn new(config: AdaptiveConfig) -> PeerScores {
        PeerScores {
            config,
            ewma: Vec::new(),
            fails: Vec::new(),
        }
    }

    fn ensure(&mut self, peer: NodeId) {
        let need = peer.index() + 1;
        if self.ewma.len() < need {
            self.ewma.resize(need, SCORE_MAX);
            self.fails.resize(need, 0);
        }
    }

    /// Folds one probe outcome into `peer`'s score.
    pub fn record(&mut self, peer: NodeId, ok: bool) {
        self.ensure(peer);
        let i = peer.index();
        let s = self.config.ewma_shift.min(7) as u32;
        let decayed = self.ewma[i] - (self.ewma[i] >> s);
        self.ewma[i] = decayed + if ok { SCORE_MAX >> s } else { 0 };
        self.fails[i] = if ok {
            0
        } else {
            self.fails[i].saturating_add(1)
        };
    }

    /// Current EWMA score of `peer` ([`SCORE_MAX`] if never probed).
    pub fn score(&self, peer: NodeId) -> u8 {
        self.ewma.get(peer.index()).copied().unwrap_or(SCORE_MAX)
    }

    /// Consecutive failures recorded against `peer`.
    pub fn consecutive_failures(&self, peer: NodeId) -> u8 {
        self.fails.get(peer.index()).copied().unwrap_or(0)
    }

    /// Whether `peer` should be ranked behind non-penalized candidates:
    /// its EWMA is under the floor or its consecutive-failure streak hit
    /// the threshold.
    pub fn penalized(&self, peer: NodeId) -> bool {
        self.consecutive_failures(peer) >= self.config.fail_threshold
            || self.score(peer) < self.config.penalty_floor
    }

    /// Resident bytes of score state (the bench gates this ≤ 8 B/node).
    pub fn bytes(&self) -> usize {
        self.ewma.capacity() + self.fails.capacity()
    }
}

/// Bounded retry + graceful-degradation policy for routed lookups.
///
/// A lookup under a policy runs up to [`max_attempts`](Self::max_attempts)
/// routed attempts (each retry pays a deterministic backoff of
/// `backoff_base << (attempt − 1)` latency ticks; with adaptive scoring
/// enabled, the failed attempt's dead probes re-rank the next attempt's
/// candidates), then degrades through two tiers that trade cost for an
/// answer:
///
/// 1. **successor-walk** — pure `next`-pointer progress from the origin,
///    up to [`walk_limit`](Self::walk_limit) hops: immune to stale
///    fingers, paid per hop;
/// 2. **verified-quorum resolution** — an out-of-band query of the
///    quorum-verified position directory (the same table corroboration
///    `with_verified_positions` trusts), charged at
///    [`quorum_messages`](Self::quorum_messages) messages + one parallel
///    round's latency. Always correct when any live owner exists.
///
/// Every escalation is telemetry-countered (`lookup.retries`,
/// `lookup.fallback_depth`), so degraded answers arrive with their extra
/// cost attributed, not hidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Routed attempts before falling back (≥ 1).
    pub max_attempts: u8,
    /// Backoff base, in latency ticks: retry `k` (1-based) waits
    /// `backoff_base << (k − 1)` ticks before re-routing.
    pub backoff_base: u64,
    /// Hop budget of the successor-walk tier (0 skips the tier).
    pub walk_limit: u32,
    /// Message cost charged for the verified-quorum resolution tier.
    pub quorum_messages: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            backoff_base: 8,
            walk_limit: 32,
            quorum_messages: 8,
        }
    }
}

impl RetryPolicy {
    /// The backoff paid before (1-based) retry `attempt`, in ticks.
    pub fn backoff_ticks(&self, attempt: u8) -> u64 {
        debug_assert!(attempt >= 1);
        self.backoff_base << (u32::from(attempt) - 1).min(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn unprobed_peers_score_max_and_are_not_penalized() {
        let scores = PeerScores::new(AdaptiveConfig::default());
        assert_eq!(scores.score(id(42)), SCORE_MAX);
        assert_eq!(scores.consecutive_failures(id(42)), 0);
        assert!(!scores.penalized(id(42)));
        assert_eq!(scores.bytes(), 0);
    }

    #[test]
    fn successes_hold_the_score_at_max() {
        let mut scores = PeerScores::new(AdaptiveConfig::default());
        for _ in 0..50 {
            scores.record(id(3), true);
        }
        // 255 − 255/8 + 255/8 = 255: a fully responsive peer never decays.
        assert_eq!(scores.score(id(3)), SCORE_MAX);
        assert!(!scores.penalized(id(3)));
    }

    #[test]
    fn failures_decay_the_score_and_trip_the_streak() {
        let mut scores = PeerScores::new(AdaptiveConfig::default());
        scores.record(id(1), false);
        assert_eq!(scores.consecutive_failures(id(1)), 1);
        assert!(
            !scores.penalized(id(1)),
            "one failure is under the default threshold and floor"
        );
        scores.record(id(1), false);
        assert_eq!(scores.consecutive_failures(id(1)), 2);
        assert!(scores.penalized(id(1)), "streak threshold reached");
        assert!(scores.score(id(1)) < SCORE_MAX);
        // A success clears the streak.
        scores.record(id(1), true);
        assert_eq!(scores.consecutive_failures(id(1)), 0);
    }

    #[test]
    fn sustained_failures_sink_below_the_floor_and_recover_slowly() {
        let config = AdaptiveConfig::default();
        let mut scores = PeerScores::new(config);
        for _ in 0..8 {
            scores.record(id(0), false);
        }
        assert!(scores.score(id(0)) < config.penalty_floor);
        // Recovery: successes lift the EWMA back up, but the floor keeps
        // the peer penalized until enough evidence accumulates.
        let mut recoveries = 0;
        while scores.penalized(id(0)) {
            scores.record(id(0), true);
            recoveries += 1;
            assert!(recoveries < 64, "recovery must terminate");
        }
        assert!(
            recoveries > 1,
            "a flaky history must take more than one success to clear"
        );
    }

    #[test]
    fn scoring_is_two_bytes_per_tracked_node() {
        let mut scores = PeerScores::new(AdaptiveConfig::default());
        let n = 10_000;
        for i in 0..n {
            scores.record(id(i), i % 7 == 0);
        }
        // Lazy growth doubles capacity; even so the table stays well
        // under the 8 B/node bench budget.
        assert!(scores.bytes() >= 2 * n);
        assert!(
            (scores.bytes() as f64) / (n as f64) <= 8.0,
            "{} bytes for {n} nodes",
            scores.bytes()
        );
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ticks(1), policy.backoff_base);
        assert_eq!(policy.backoff_ticks(2), policy.backoff_base * 2);
        assert_eq!(policy.backoff_ticks(3), policy.backoff_base * 4);
    }

    #[test]
    fn determinism_identical_histories_identical_tables() {
        let run = || {
            let mut scores = PeerScores::new(AdaptiveConfig::default());
            for i in 0..100 {
                scores.record(id(i % 13), i % 3 == 0);
            }
            (0..13).map(|i| scores.score(id(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
