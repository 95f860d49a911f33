//! # rt-core
//!
//! The paper's primary contribution: real-time channels over unmodified
//! switched Ethernet, with per-link EDF admission control and deadline
//! partitioning.
//!
//! * [`channel`] — the RT channel abstraction `{P_i, C_i, d_i}` and its
//!   per-link decomposition (Eq. 18.6–18.9),
//! * [`dps`] — deadline-partitioning schemes: the paper's SDPS and ADPS plus
//!   two extensions used as ablations,
//! * [`system_state`] — the system state `SS = {N, K}` (§18.3.2) with
//!   per-directed-link task sets and link loads,
//! * [`admission`] — the switch's admission controller: partition, test both
//!   links with the [`rt_edf`] feasibility test, accept or reject,
//! * [`manager`] — the switch-side RT channel management software
//!   (assigns network-unique channel IDs, drives the request/response
//!   handshake),
//! * [`rtlayer`] — the node-side RT layer: requesting channels, stamping
//!   outgoing datagrams with absolute deadlines, restoring headers on
//!   receive,
//! * [`protocol`] — shared definitions for the establishment handshake,
//! * [`network`] — glue that runs the whole stack over the [`rt_netsim`]
//!   simulator through the [`network::RtNetworkBuilder`]: establishment over
//!   the wire, periodic traffic on admitted channels, end-to-end delay
//!   measurement against the Eq. 18.1 bound,
//! * [`multihop`] — the paper's stated future work and one step beyond:
//!   interconnected switches (trees and meshes), pluggable path selection
//!   via [`rt_types::Router`], multi-hop deadline partitioning and per-link
//!   admission control along the whole routed path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod channel;
pub mod distributed;
pub mod dps;
pub mod ledger;
pub mod manager;
pub mod multihop;
pub mod network;
pub mod protocol;
pub mod rtlayer;
pub mod system_state;

pub use admission::{AdmissionController, AdmissionDecision};
pub use channel::{DeadlineSplit, RtChannel, RtChannelSpec};
pub use distributed::DistributedChannelManager;
pub use dps::{Adps, DeadlinePartitioningScheme, DpsKind, Sdps, SearchDps, WeightedAdps};
pub use ledger::{ReservationKey, SlackLedger};
pub use manager::{
    ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel,
    SwitchChannelManager,
};
pub use multihop::{
    FabricChannelManager, HopLink, MultiHopAdmission, MultiHopChannel, MultiHopDps, Refusal,
    RefusalCause, Route, Router, SwitchId, Topology,
};
pub use network::{RtNetwork, RtNetworkBuilder};
pub use rtlayer::RtLayer;
pub use system_state::SystemState;
