//! The shared error type for the switched real-time Ethernet stack.

use std::fmt;

use crate::ids::{ChannelId, NodeId};

/// Result alias using [`RtError`].
pub type RtResult<T> = Result<T, RtError>;

/// Errors produced anywhere in the stack.
///
/// A single flat enum is used across the workspace so that errors can travel
/// between crates (frames → core → simulation) without conversion
/// boilerplate; the variants are grouped by subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    // --- address / parsing ------------------------------------------------
    /// A textual MAC or IPv4 address could not be parsed.
    AddressParse(String),
    /// A frame could not be decoded from its wire representation.
    FrameDecode(String),
    /// A frame could not be encoded (e.g. payload too large).
    FrameEncode(String),

    // --- channel specification -------------------------------------------
    /// An RT-channel parameter is invalid (zero period, zero capacity,
    /// deadline shorter than twice the capacity, ...).
    InvalidChannelSpec(String),
    /// A deadline partitioning produced per-link deadlines violating
    /// Eq. 18.8 / 18.9.
    InvalidPartition {
        /// Human-readable description of the violated condition.
        reason: String,
    },

    // --- channels and requests ---------------------------------------------
    /// An operation referenced a channel id that is not established.
    UnknownChannel(ChannelId),
    /// An operation referenced a node that is not part of the network.
    UnknownNode(NodeId),
    /// The switch ran out of network-unique channel ids.
    ChannelIdsExhausted,
    /// A node ran out of connection-request ids (more than 256 outstanding
    /// requests).
    RequestIdsExhausted,
    /// A response arrived for a connection request that is not outstanding.
    UnknownRequest(String),

    // --- protocol / simulation ---------------------------------------------
    /// A protocol state machine received a frame it cannot handle in its
    /// current state.
    ProtocolViolation(String),
    /// The simulator was asked to do something inconsistent (schedule an
    /// event in the past, attach two nodes to one port, ...).
    Simulation(String),
    /// A configuration value is out of range or inconsistent.
    Config(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::AddressParse(m) => write!(f, "address parse error: {m}"),
            RtError::FrameDecode(m) => write!(f, "frame decode error: {m}"),
            RtError::FrameEncode(m) => write!(f, "frame encode error: {m}"),
            RtError::InvalidChannelSpec(m) => write!(f, "invalid RT channel spec: {m}"),
            RtError::InvalidPartition { reason } => {
                write!(f, "invalid deadline partition: {reason}")
            }
            RtError::UnknownChannel(id) => write!(f, "unknown RT channel {id}"),
            RtError::UnknownNode(id) => write!(f, "unknown node {id}"),
            RtError::ChannelIdsExhausted => write!(f, "no free RT channel ids"),
            RtError::RequestIdsExhausted => write!(f, "no free connection request ids"),
            RtError::UnknownRequest(m) => write!(f, "unknown connection request: {m}"),
            RtError::ProtocolViolation(m) => write!(f, "protocol violation: {m}"),
            RtError::Simulation(m) => write!(f, "simulation error: {m}"),
            RtError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RtError::InvalidPartition {
            reason: "d_u + d_d exceeds d".into(),
        };
        let s = e.to_string();
        assert!(s.contains("deadline partition"));
        assert!(s.contains("d_u + d_d"));
        assert!(RtError::UnknownNode(NodeId::new(2))
            .to_string()
            .contains("node2"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RtError::Config("bad".into()));
        assert!(e.to_string().contains("configuration"));
    }
}
