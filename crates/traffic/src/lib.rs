//! # rt-traffic
//!
//! Workload and scenario generation for the experiments:
//!
//! * [`scenario`] — network scenarios (which nodes exist, which are masters
//!   and which are slaves), including the paper's 10-master / 50-slave
//!   configuration,
//! * [`fabric`] — multi-switch fabric scenarios (lines, rings, 2-connected
//!   leaf-spine fabrics and thousand-node tori of access switches with
//!   masters and slaves on each) and request patterns that exercise the
//!   trunks,
//! * [`source`] — wire-level frame generation: deadline-stamped cross-switch
//!   workloads as bulk batches or as a pull-driven
//!   [`rt_netsim::TrafficSource`],
//! * [`pattern`] — channel-request patterns: the paper's master→slave
//!   pattern plus uniform and hotspot patterns used by the ablations, and a
//!   generator of heterogeneous channel specs,
//! * [`background`] — a Poisson best-effort background traffic generator
//!   (the coexistence integration test drives it),
//! * [`failover`] — fail-over scenarios: a fabric scenario plus the
//!   deterministic trunk cut (ring closing trunk, torus grid trunk),
//! * [`churn`] — long-running admission churn: a seeded arrival/departure
//!   process that drives a channel manager through millions of cumulative
//!   establish/release cycles with warm-up and measurement windows, and can
//!   interleave scripted trunk cut/repair events.
//!
//! Everything is deterministic given a seed (every draw comes from an
//! [`rt_types::rng::Xoshiro256`]), so every experiment run is exactly
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod churn;
pub mod fabric;
pub mod failover;
pub mod pattern;
pub mod scenario;
pub mod source;

pub use background::{BackgroundTraffic, PoissonConfig};
pub use churn::{ChurnConfig, ChurnEvent, ChurnFault, ChurnFaultKind, ChurnProcess, ChurnReport};
pub use fabric::FabricScenario;
pub use failover::FailoverScenario;
pub use pattern::{ChannelRequest, HeterogeneousSpecs, RequestPattern};
pub use scenario::Scenario;
pub use source::ScenarioFrameSource;
