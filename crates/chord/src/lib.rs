//! A Chord DHT simulation — the substrate the paper's cost model assumes.
//!
//! King & Saia assume "a standard DHT like Chord \[16\]" providing the lookup
//! `h(x)` at `O(log n)` messages/latency and the successor pointer `next(p)`
//! at `O(1)`. This crate implements the actual Chord protocol (Stoica et
//! al., SIGCOMM 2001) so those costs are *measured*, not asserted:
//!
//! * [`ChordNetwork`] — the node arena: per-node successor lists, a
//!   predecessor pointer and a full finger table, stored column-wise in a
//!   compact struct-of-arrays [`arena`] (run-length
//!   compressed fingers, shared flat buffers — ~130 routing bytes per
//!   node, which is what lets chord arms run at 10⁶ nodes); iterative
//!   [`find_successor`](ChordNetwork::find_successor) routing with per-hop
//!   message/latency accounting; [`join`](ChordNetwork::join) /
//!   [`leave`](ChordNetwork::leave) / [`crash`](ChordNetwork::crash)
//!   membership and the periodic maintenance trio
//!   [`stabilize`](ChordNetwork::stabilize) /
//!   [`fix_finger`](ChordNetwork::fix_finger) /
//!   [`check_predecessor`](ChordNetwork::check_predecessor); an
//!   incrementally maintained consistency report, so
//!   [`verify_ring`](ChordNetwork::verify_ring) polling is O(1) per call
//!   instead of an O(n log n) re-scan (its reverse indexes live in
//!   compact sorted-run multimaps at ~37 B/node); and **batched
//!   incremental maintenance**
//!   ([`batched_maintenance_round`](ChordNetwork::batched_maintenance_round)
//!   under a [`MaintenanceBudget`]), which repairs only the dirty state
//!   churn actually invalidated — amortized O(changes · log n) per round
//!   instead of O(n) routed lookups, the change that runs 10⁷-node
//!   chord arms.
//! * [`ChordDht`] — an adapter implementing `peer_sampling::Dht`, so the
//!   paper's sampler runs over real Chord routing unchanged.
//! * [`ChurnSimulation`] — an event-driven run of a churning Chord overlay
//!   (joins/leaves/crashes from `simnet::churn`, interleaved with
//!   stabilization ticks), used by experiment E11.
//!
//! # Example
//!
//! ```
//! use chord::{ChordConfig, ChordNetwork};
//! use keyspace::KeySpace;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let space = KeySpace::full();
//! let net = ChordNetwork::bootstrap(
//!     space,
//!     space.random_points(&mut rng, 128),
//!     ChordConfig::default(),
//! );
//! let target = space.random_point(&mut rng);
//! let hit = net.find_successor(net.node_ids()[0], target, &mut rng)?;
//! // Routed answer matches the ground truth.
//! assert_eq!(hit.point, net.ground_truth_successor(target));
//! // ...in O(log n) hops.
//! assert!(hit.hops <= 2 * 7); // 2·log2(128)
//! # Ok::<(), chord::LookupError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod churn_sim;
mod config;
mod dht_impl;
pub mod engine;
pub mod faults;
mod lookup;
mod maintenance;
mod multimap;
mod network;
pub mod score;
mod storage;
pub mod watchdog;

pub use arena::{Fingers, NodeRef, Successors};
pub use churn_sim::{ChurnReport, ChurnSimulation};
pub use config::ChordConfig;
pub use dht_impl::ChordDht;
pub use engine::{Completion, EngineConfig, LookupEngine, SlowOverlay};
pub use faults::{FaultPlan, NodeFaults};
pub use lookup::{LookupError, LookupResult};
pub use maintenance::{MaintenanceBudget, MaintenanceWork};
pub use network::{ChordCounters, ChordNetwork, NodeId, RingReport};
pub use score::{AdaptiveConfig, PeerScores, RetryPolicy};
pub use storage::{GetResult, PutReceipt};
pub use watchdog::{HealthEvent, HealthKind, LookupOutcomes, SloConfig, SloRule, Watchdog};
