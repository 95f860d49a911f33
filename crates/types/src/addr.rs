//! MAC and IPv4 addresses as they appear in the paper's frame formats.
//!
//! The RequestFrame (Figure 18.3) carries source and destination MAC and IP
//! addresses; the RT data-frame encoding (§18.2.2) overwrites the IP source
//! address and the upper half of the IP destination address with the absolute
//! deadline, so both addresses need cheap conversion to and from raw bits.

use std::fmt;
use std::str::FromStr;

use crate::error::RtError;
use crate::ids::NodeId;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Construct from the low 48 bits of a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// A locally-administered unicast MAC address derived deterministically
    /// from a node id — convenient for simulated networks.
    pub const fn for_node(node: NodeId) -> Self {
        let n = node.get();
        MacAddr([
            0x02, // locally administered, unicast
            0x00,
            ((n >> 24) & 0xff) as u8,
            ((n >> 16) & 0xff) as u8,
            ((n >> 8) & 0xff) as u8,
            (n & 0xff) as u8,
        ])
    }

    /// The node id a [`MacAddr::for_node`] address encodes, or `None` for
    /// any other address.
    pub const fn node_id(self) -> Option<NodeId> {
        let o = self.0;
        if o[0] != 0x02 || o[1] != 0x00 {
            return None;
        }
        Some(NodeId::new(
            ((o[2] as u32) << 24) | ((o[3] as u32) << 16) | ((o[4] as u32) << 8) | (o[5] as u32),
        ))
    }

    /// The MAC address used for the switch in simulated networks.
    ///
    /// This is the *generic* switch address: a node addressing its control
    /// frames here reaches "the control plane", wherever it runs — the
    /// managing switch under central management, the node's access switch
    /// under distributed management.  Switch-to-switch control traffic uses
    /// the per-switch [`MacAddr::for_switch_id`] addresses instead.
    pub const fn for_switch() -> Self {
        MacAddr([0x02, 0xff, 0xff, 0xff, 0xff, 0xfe])
    }

    /// The per-switch control-plane MAC address of one specific switch,
    /// derived deterministically from its id.  Distinct from every
    /// [`MacAddr::for_node`] address (`02:00:…`) and from the generic
    /// [`MacAddr::for_switch`] address (`02:ff:…`).
    pub const fn for_switch_id(switch: crate::topology::SwitchId) -> Self {
        let s = switch.get();
        MacAddr([
            0x02,
            0xfe,
            ((s >> 24) & 0xff) as u8,
            ((s >> 16) & 0xff) as u8,
            ((s >> 8) & 0xff) as u8,
            (s & 0xff) as u8,
        ])
    }

    /// The switch id a [`MacAddr::for_switch_id`] address encodes, or `None`
    /// for any other address.
    pub const fn switch_id(self) -> Option<crate::topology::SwitchId> {
        let o = self.0;
        if o[0] != 0x02 || o[1] != 0xfe {
            return None;
        }
        Some(crate::topology::SwitchId::new(
            ((o[2] as u32) << 24) | ((o[3] as u32) << 16) | ((o[4] as u32) << 8) | (o[5] as u32),
        ))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = RtError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(RtError::AddressParse(format!(
                "expected 6 colon-separated octets, got {}",
                parts.len()
            )));
        }
        let mut octets = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = u8::from_str_radix(p, 16)
                .map_err(|e| RtError::AddressParse(format!("bad MAC octet {p:?}: {e}")))?;
        }
        Ok(MacAddr(octets))
    }
}

/// A 32-bit IPv4 address.
///
/// A local wrapper (rather than `std::net::Ipv4Addr`) so that the deadline
/// overwriting trick of §18.2.2 — treating the address bytes as plain bits —
/// is explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);

    /// Construct from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Construct from raw octets.
    pub const fn from_octets(octets: [u8; 4]) -> Self {
        Ipv4Address(octets)
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0
    }

    /// Construct from a `u32` in network bit order.
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Address(v.to_be_bytes())
    }

    /// The address as a `u32` in network bit order.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// A `10.0.x.y` address derived deterministically from a node id for
    /// simulated networks.
    pub const fn for_node(node: NodeId) -> Self {
        let n = node.get();
        Ipv4Address([10, 0, ((n >> 8) & 0xff) as u8, (n & 0xff) as u8])
    }

    /// The IPv4 address used for the switch management entity in simulated
    /// networks.
    pub const fn for_switch() -> Self {
        Ipv4Address([10, 0, 255, 254])
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ipv4Address {
    type Err = RtError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(RtError::AddressParse(format!(
                "expected 4 dot-separated octets, got {}",
                parts.len()
            )));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p
                .parse::<u8>()
                .map_err(|e| RtError::AddressParse(format!("bad IPv4 octet {p:?}: {e}")))?;
        }
        Ok(Ipv4Address(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_from_u64_takes_the_low_48_bits() {
        let m = MacAddr::new([0x02, 0x00, 0x00, 0x00, 0x01, 0x2a]);
        assert_eq!(MacAddr::from_u64(0x0200_0000_012a), m);
        assert_eq!(MacAddr::from_u64(0xffff_0200_0000_012a), m);
        assert_eq!(MacAddr::from_u64(0xffff_ffff_ffff), MacAddr::BROADCAST);
    }

    #[test]
    fn mac_display_and_parse() {
        let m = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let s = m.to_string();
        assert_eq!(s, "de:ad:be:ef:00:01");
        assert_eq!(s.parse::<MacAddr>().unwrap(), m);
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_for_node_is_unique_and_unicast() {
        let a = MacAddr::for_node(NodeId::new(1));
        let b = MacAddr::for_node(NodeId::new(2));
        assert_ne!(a, b);
        // The group bit is clear: node and switch addresses are unicast.
        assert_eq!(a.0[0] & 0x01, 0);
        assert_eq!(MacAddr::for_switch().0[0] & 0x01, 0);
    }

    #[test]
    fn node_and_switch_addresses_decode_to_their_ids() {
        for id in [0, 1, 255, 256, 70_000, u32::MAX] {
            let node = NodeId::new(id);
            let switch = crate::topology::SwitchId::new(id);
            assert_eq!(MacAddr::for_node(node).node_id(), Some(node));
            assert_eq!(MacAddr::for_node(node).switch_id(), None);
            assert_eq!(MacAddr::for_switch_id(switch).switch_id(), Some(switch));
            assert_eq!(MacAddr::for_switch_id(switch).node_id(), None);
        }
        for other in [MacAddr::for_switch(), MacAddr::BROADCAST, MacAddr::ZERO] {
            assert_eq!((other.node_id(), other.switch_id()), (None, None));
        }
    }

    #[test]
    fn ipv4_u32_round_trip() {
        let a = Ipv4Address::new(192, 168, 1, 42);
        assert_eq!(Ipv4Address::from_u32(a.to_u32()), a);
        assert_eq!(a.to_u32(), 0xc0a8_012a);
    }

    #[test]
    fn ipv4_display_and_parse() {
        let a = Ipv4Address::new(10, 0, 0, 7);
        assert_eq!(a.to_string(), "10.0.0.7");
        assert_eq!("10.0.0.7".parse::<Ipv4Address>().unwrap(), a);
        assert!("10.0.0".parse::<Ipv4Address>().is_err());
        assert!("10.0.0.300".parse::<Ipv4Address>().is_err());
    }

    #[test]
    fn per_node_addresses_are_distinct() {
        let a = Ipv4Address::for_node(NodeId::new(3));
        let b = Ipv4Address::for_node(NodeId::new(259));
        assert_ne!(a, b);
        assert_ne!(Ipv4Address::for_switch(), a);
        assert_ne!(MacAddr::for_switch(), MacAddr::for_node(NodeId::new(3)));
    }
}
