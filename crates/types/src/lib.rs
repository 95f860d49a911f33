//! # rt-types
//!
//! Foundation types shared by every crate in the switched real-time Ethernet
//! workspace: the slot/nanosecond time model, node / channel / link
//! identifiers, MAC and IPv4 addresses, Ethernet constants and the common
//! error type.
//!
//! The paper (Hoang & Jonsson, 2004) expresses every traffic parameter — the
//! period `P_i`, the capacity `C_i` and the relative deadline `d_i` of an RT
//! channel — in *number of maximum-sized frames*, i.e. in time slots whose
//! length is the time it takes to put one maximum-sized Ethernet frame on the
//! wire.  [`time::Slots`] models that unit; [`time::SimTime`] is the
//! nanosecond-resolution clock used by the discrete-event simulator, and
//! [`time::LinkSpeed`] converts between the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod constants;
pub mod dense;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod router;
pub mod time;
pub mod topology;

pub use addr::{Ipv4Address, MacAddr};
pub use constants::*;
pub use dense::{IdIndex, NO_INDEX};
pub use error::{RtError, RtResult};
pub use hash::{FoldHasher, FoldState};
pub use ids::{ChannelId, ConnectionRequestId, NodeId};
pub use rng::Xoshiro256;
pub use router::{
    DenseNextHop, NextHopCache, NextHopCacheStats, NextHopTable, Route, RoutePolicy, Router,
    ShortestPathRouter,
};
pub use time::{Duration, LinkSpeed, SimTime, Slots};
pub use topology::{HopLink, ManagerPlacement, SwitchId, Topology};
