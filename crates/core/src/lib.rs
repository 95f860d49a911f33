//! # rt-core
//!
//! The paper's primary contribution: real-time channels over unmodified
//! switched Ethernet, with per-link EDF admission control and deadline
//! partitioning.
//!
//! * [`channel`] — the RT channel abstraction `{P_i, C_i, d_i}` and its
//!   per-link decomposition (Eq. 18.6–18.9),
//! * [`dps`] — deadline partitioning: the paper's two-link rules (SDPS and
//!   ADPS plus two extensions used as ablations) and the choice between that
//!   family and the per-hop one,
//! * [`ledger`] — the per-link reservation books of the system state
//!   `SS = {N, K}` (§18.3.2) and the [`rt_edf`] feasibility test guarding
//!   them,
//! * [`manager`] — the interface of the switch-side RT channel management
//!   software (drives the request/response handshake) and its value types,
//! * [`rtlayer`] — the node-side RT layer: requesting channels, stamping
//!   outgoing datagrams with absolute deadlines, restoring headers on
//!   receive,
//! * [`protocol`] — shared definitions for the establishment handshake,
//! * [`network`] — glue that runs the whole stack over the [`rt_netsim`]
//!   simulator through the [`network::RtNetworkBuilder`]: establishment over
//!   the wire, periodic traffic on admitted channels, end-to-end delay
//!   measurement against the Eq. 18.1 bound,
//! * [`multihop`] — the one admission stack: route, partition, test every
//!   link of the route, commit; over the paper's single-switch star and over
//!   its stated future work, interconnected switches (trees and meshes) with
//!   pluggable path selection via [`rt_types::Router`]; and the central
//!   channel manager on top of it,
//! * [`distributed`] — the same ledger and admission sequence split one
//!   site per switch, behind a two-phase reservation protocol.
//!
//! Both managers hand a trunk cut or repair to one private fault engine
//! (`fault.rs`: fail-over and re-optimisation, written once).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod distributed;
pub mod dps;
mod fault;
pub mod ledger;
pub mod manager;
pub mod multihop;
pub mod network;
pub mod protocol;
pub mod rtlayer;

pub use channel::{DeadlineSplit, RtChannelSpec};
pub use distributed::DistributedChannelManager;
pub use dps::{DpsFamily, DpsKind};
pub use ledger::{ReservationKey, SlackLedger};
pub use manager::{ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel};
pub use multihop::{FabricChannelManager, MultiHopAdmission, MultiHopDps, Refusal, RefusalCause};
pub use network::{RtNetwork, RtNetworkBuilder};
pub use rtlayer::RtLayer;
