//! Identifiers for nodes, ports, links, RT channels and connection requests.
//!
//! The paper identifies an RT channel by a *network-unique* 16-bit ID that
//! the switch assigns during establishment, and a connection request by an
//! 8-bit *source-node-unique* ID so that a node can match responses to its
//! outstanding requests.  Links are identified by the end-node they attach to
//! plus a direction — because the network is a star, every link connects one
//! node to the switch, and full duplex makes the two directions independent
//! scheduling resources ("two CPUs" in the paper's analogy).

use std::fmt;

/// Identifier of an end node (or the switch itself) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Conventional identifier for the switch in a single-switch star.
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

/// Direction of a link relative to the switch.
///
/// An RT channel always traverses exactly two directed links: the *uplink*
/// from the source node into the switch, and the *downlink* from the switch
/// to the destination node.  Because links are full duplex the two directions
/// of one physical cable are scheduled independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkDirection {
    /// Node → switch.
    Uplink,
    /// Switch → node.
    Downlink,
}

impl LinkDirection {
    /// Both directions, uplink first.
    pub const fn both() -> [LinkDirection; 2] {
        [LinkDirection::Uplink, LinkDirection::Downlink]
    }
}

impl fmt::Display for LinkDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkDirection::Uplink => write!(f, "uplink"),
            LinkDirection::Downlink => write!(f, "downlink"),
        }
    }
}

/// A directed link in the star network: the physical cable of `node` taken in
/// `direction`.  This is the unit on which the per-link EDF feasibility test
/// runs ("each link organises two independent CPUs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// The end node whose cable this is.
    pub node: NodeId,
    /// Which of the two full-duplex directions.
    pub direction: LinkDirection,
}

impl LinkId {
    /// The uplink of `node` (node → switch).
    pub const fn uplink(node: NodeId) -> Self {
        LinkId {
            node,
            direction: LinkDirection::Uplink,
        }
    }

    /// The downlink of `node` (switch → node).
    pub const fn downlink(node: NodeId) -> Self {
        LinkId {
            node,
            direction: LinkDirection::Downlink,
        }
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_switch_sentinel() {
        assert!(NodeId::SWITCH.is_switch());
        assert!(!NodeId::new(0).is_switch());
        assert_eq!(format!("{}", NodeId::SWITCH), "switch");
        assert_eq!(format!("{}", NodeId::new(3)), "node3");
    }

    #[test]
    fn link_direction_both_lists_two() {
        assert_eq!(LinkDirection::both().len(), 2);
    }

    #[test]
    fn link_id_constructors() {
        let n = NodeId::new(7);
        assert_eq!(
            LinkId::uplink(n),
            LinkId {
                node: n,
                direction: LinkDirection::Uplink
            }
        );
        assert_eq!(LinkId::downlink(n).direction, LinkDirection::Downlink);
        assert_eq!(format!("{}", LinkId::uplink(n)), "node7/uplink");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for i in 0..10 {
            set.insert(LinkId::uplink(NodeId::new(i)));
            set.insert(LinkId::downlink(NodeId::new(i)));
        }
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", ChannelId::new(5)), "ch5");
        assert_eq!(format!("{}", ConnectionRequestId::new(2)), "req2");
        assert_eq!(format!("{}", LinkDirection::Uplink), "uplink");
    }
}
