//! Frame builders for the fabric tests (`tests/fabric_properties.rs`,
//! `tests/wire_regressions.rs`), which include this file with `#[path]`.

use switched_rt_ethernet::frames::rt_data::{DeadlineStamp, RtDataFrame};
use switched_rt_ethernet::frames::{EthernetFrame, Ipv4Header, UdpHeader};
use switched_rt_ethernet::types::constants::ETHERTYPE_IPV4;
use switched_rt_ethernet::types::{ChannelId, Ipv4Address, MacAddr, NodeId, SimTime};

/// A best-effort IPv4/UDP frame from `from` to `to` with `payload_len`
/// bytes of payload.
pub fn be_frame(from: NodeId, to: NodeId, payload_len: usize) -> EthernetFrame {
    let udp = UdpHeader::new(1000, 2000, payload_len).unwrap();
    let ip = Ipv4Header::udp(
        Ipv4Address::for_node(from),
        Ipv4Address::for_node(to),
        8 + payload_len,
    )
    .unwrap();
    let mut bytes = ip.encode();
    bytes.extend_from_slice(&udp.encode());
    bytes.extend(std::iter::repeat_n(0x5au8, payload_len));
    EthernetFrame::new(
        MacAddr::for_node(to),
        MacAddr::for_node(from),
        ETHERTYPE_IPV4,
        bytes,
    )
    .unwrap()
}

/// An RT data frame of `channel`, stamped with the absolute `deadline`.
pub fn rt_frame(
    from: NodeId,
    to: NodeId,
    channel: u16,
    deadline: SimTime,
    payload_len: usize,
) -> EthernetFrame {
    RtDataFrame {
        eth_src: MacAddr::for_node(from),
        eth_dst: MacAddr::for_node(to),
        stamp: DeadlineStamp::new(deadline.as_nanos(), ChannelId::new(channel)).unwrap(),
        src_port: 5000,
        dst_port: 5001,
        payload: vec![0u8; payload_len],
    }
    .into_ethernet()
    .unwrap()
}
