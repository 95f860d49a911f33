//! # switched-rt-ethernet
//!
//! A reproduction of *"Real-Time Communication for Industrial Embedded
//! Systems Using Switched Ethernet"* (Hoang & Jonsson, 2004): hard-real-time
//! periodic traffic over unmodified full-duplex switched Ethernet, using a
//! thin RT layer, per-link EDF scheduling, switch-side admission control and
//! deadline partitioning (SDPS / ADPS).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `rt-types` | time slots, simulated time, ids, addresses, constants |
//! | [`frames`] | `rt-frames` | Ethernet/IPv4/UDP codecs, RequestFrame, ResponseFrame, deadline-stamped data frames |
//! | [`edf`] | `rt-edf` | EDF theory: utilisation, busy periods, `h(t)`, feasibility tests, EDF/FCFS queues |
//! | [`netsim`] | `rt-netsim` | discrete-event simulator of the switched Ethernet star |
//! | [`core`] | `rt-core` | RT channels, DPS (SDPS/ADPS), admission control, switch manager, node RT layer, full-stack network |
//! | [`traffic`] | `rt-traffic` | scenarios, request patterns, background traffic, admission churn |
//!
//! ## Quick example: admission control with ADPS
//!
//! ```
//! use switched_rt_ethernet::core::{DpsKind, MultiHopAdmission, RtChannelSpec};
//! use switched_rt_ethernet::types::{NodeId, SwitchId, Topology};
//!
//! // A star with one master (node 0) and three slaves.
//! let star = Topology::star(SwitchId::new(0), (0..4).map(NodeId::new));
//! let mut switch = MultiHopAdmission::new(star, DpsKind::Asymmetric);
//!
//! // Request RT channels with the paper's parameters (C=3, P=100, d=40).
//! let spec = RtChannelSpec::paper_default();
//! let decision = switch.request(NodeId::new(0), NodeId::new(1), spec).unwrap();
//! let channel = decision.expect("the empty star accepts the first channel");
//! let (d_iu, d_id) = (channel.link_deadlines[0], channel.link_deadlines[1]);
//! assert_eq!(d_iu + d_id, spec.deadline);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios that run the full
//! handshake and periodic traffic over the simulated network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Foundation types (`rt-types`).
pub mod types {
    pub use rt_types::*;
}

/// Wire formats (`rt-frames`).
pub mod frames {
    pub use rt_frames::*;
}

/// EDF scheduling theory and queues (`rt-edf`).
pub mod edf {
    pub use rt_edf::*;
}

/// Discrete-event network simulator (`rt-netsim`).
pub mod netsim {
    pub use rt_netsim::*;
}

/// The RT layer, deadline partitioning and admission control (`rt-core`).
pub mod core {
    pub use rt_core::*;
}

/// Workload and scenario generation (`rt-traffic`).
pub mod traffic {
    pub use rt_traffic::*;
}

pub use rt_core::{
    ChannelManager, DpsKind, FabricChannelManager, MultiHopAdmission, MultiHopDps, RtChannelSpec,
    RtNetwork, RtNetworkBuilder,
};
pub use rt_types::{
    ChannelId, HopLink, NodeId, Route, RoutePolicy, Router, ShortestPathRouter, Slots, SwitchId,
    Topology,
};
