//! Identifiers for nodes, RT channels and connection requests.
//!
//! The paper identifies an RT channel by a *network-unique* 16-bit ID that
//! the switch assigns during establishment, and a connection request by an
//! 8-bit *source-node-unique* ID so that a node can match responses to its
//! outstanding requests.  Directed links are [`crate::HopLink`]s, on a star
//! and on any fabric alike.

use std::fmt;

/// Identifier of an end node (or the switch itself) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The receiver of a control-plane frame: the control plane of a
    /// switch, whichever switch of the fabric it is.
    pub const SWITCH: NodeId = NodeId(u32::MAX);

    /// Construct a node id.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// Raw value.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// `true` if this id denotes the switch.
    pub const fn is_switch(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_switch() {
            write!(f, "switch")
        } else {
            write!(f, "node{}", self.0)
        }
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Network-unique identifier of an established RT channel (16 bits on the
/// wire, Figure 18.3/18.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// Construct a channel id.
    pub const fn new(id: u16) -> Self {
        ChannelId(id)
    }

    /// Raw value.
    pub const fn get(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<u16> for ChannelId {
    fn from(v: u16) -> Self {
        ChannelId(v)
    }
}

/// Source-node-unique identifier of an outstanding connection request
/// (8 bits on the wire, Figure 18.3/18.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionRequestId(pub u8);

impl ConnectionRequestId {
    /// Construct a connection-request id.
    pub const fn new(id: u8) -> Self {
        ConnectionRequestId(id)
    }

    /// Raw value.
    pub const fn get(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ConnectionRequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_switch_sentinel() {
        assert!(NodeId::SWITCH.is_switch());
        assert!(!NodeId::new(0).is_switch());
        assert_eq!(format!("{}", NodeId::SWITCH), "switch");
        assert_eq!(format!("{}", NodeId::new(3)), "node3");
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", ChannelId::new(5)), "ch5");
        assert_eq!(format!("{}", ConnectionRequestId::new(2)), "req2");
    }
}
