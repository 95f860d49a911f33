//! Deadline-stamped real-time data frames (§18.2.2).
//!
//! Before an outgoing real-time UDP/IP datagram is handed to the Ethernet
//! layer, the RT layer rewrites its IPv4 header:
//!
//! * the **IP source address** and the **16 most significant bits of the IP
//!   destination address** — 48 bits in total — are set to the *absolute
//!   deadline* of the frame,
//! * the **16 least significant bits of the IP destination address** are set
//!   to the RT channel ID the frame belongs to,
//! * the **ToS** field is set to 255 (other values are reserved for future
//!   services).
//!
//! The switch and the destination node use the deadline for EDF ordering and
//! the channel ID for bookkeeping; the destination's RT layer restores the
//! original addresses from its channel table before delivering the datagram
//! to UDP.  [`DeadlineStamp`] implements the rewrite and its inverse, and
//! [`RtDataFrame`] is the convenience bundle of Ethernet + stamped IPv4 +
//! UDP + payload used by the simulator.

use rt_types::{
    constants::{ETHERTYPE_IPV4, IPV4_HEADER_BYTES, RT_TOS_VALUE, UDP_HEADER_BYTES},
    ChannelId, Ipv4Address, MacAddr, RtError, RtResult,
};

use crate::ethernet::EthernetFrame;
use crate::ipv4::{Ipv4Header, IP_PROTO_UDP};
use crate::udp::UdpHeader;

/// Maximum value representable by the 48-bit absolute-deadline field.
pub const MAX_DEADLINE_VALUE: u64 = (1 << 48) - 1;

/// The deadline/channel information carried inside a stamped IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineStamp {
    /// Absolute deadline of the frame, 48 bits.  The unit is whatever the RT
    /// layer schedules in (this crate does not care); the simulator uses
    /// nanoseconds of simulated time.
    pub absolute_deadline: u64,
    /// The RT channel the frame belongs to.
    pub channel: ChannelId,
}

impl DeadlineStamp {
    /// Create a stamp, rejecting deadlines that do not fit in 48 bits.
    pub fn new(absolute_deadline: u64, channel: ChannelId) -> RtResult<Self> {
        if absolute_deadline > MAX_DEADLINE_VALUE {
            return Err(RtError::FrameEncode(format!(
                "absolute deadline {absolute_deadline} exceeds the 48-bit field"
            )));
        }
        Ok(DeadlineStamp {
            absolute_deadline,
            channel,
        })
    }

    /// Apply the §18.2.2 rewrite to `header`: overwrite the addresses with
    /// deadline + channel ID and force ToS to 255.
    pub fn apply(&self, header: &Ipv4Header) -> Ipv4Header {
        let mut out = *header;
        out.tos = RT_TOS_VALUE;
        // 48-bit deadline: high 32 bits -> source address, low 16 bits ->
        // upper half of the destination address.
        out.src = Ipv4Address::from_u32((self.absolute_deadline >> 16) as u32);
        let dst_hi = (self.absolute_deadline & 0xffff) as u32;
        out.dst = Ipv4Address::from_u32((dst_hi << 16) | u32::from(self.channel.get()));
        out
    }

    /// Extract the stamp from a rewritten header.  Fails if the header is not
    /// marked as real-time (ToS ≠ 255).
    pub fn extract(header: &Ipv4Header) -> RtResult<Self> {
        if !header.is_realtime() {
            return Err(RtError::FrameDecode(format!(
                "not an RT data frame: ToS is {} (expected {})",
                header.tos, RT_TOS_VALUE
            )));
        }
        let src = u64::from(header.src.to_u32());
        let dst = header.dst.to_u32();
        let absolute_deadline = (src << 16) | u64::from(dst >> 16);
        let channel = ChannelId::new((dst & 0xffff) as u16);
        Ok(DeadlineStamp {
            absolute_deadline,
            channel,
        })
    }
}

/// Where the UDP payload starts in an RT data frame's Ethernet payload.
const PAYLOAD_START: usize = IPV4_HEADER_BYTES + UDP_HEADER_BYTES;

/// What the one parse of an RT data frame found.
struct Parsed {
    stamp: DeadlineStamp,
    udp: UdpHeader,
    /// Where the UDP payload ends in the Ethernet payload: the UDP length,
    /// cut to the IPv4 total length and to the bytes present.
    payload_end: usize,
}

/// A complete real-time data frame: Ethernet + stamped IPv4 + UDP + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtDataFrame {
    /// Ethernet source MAC.
    pub eth_src: MacAddr,
    /// Ethernet destination MAC (the switch on the uplink, the destination
    /// node on the downlink).
    pub eth_dst: MacAddr,
    /// The deadline/channel stamp.
    pub stamp: DeadlineStamp,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// UDP payload.
    pub payload: Vec<u8>,
}

impl RtDataFrame {
    /// Build the on-the-wire Ethernet frame for this RT datagram.
    pub fn into_ethernet(&self) -> RtResult<EthernetFrame> {
        let mut bytes =
            Vec::with_capacity(IPV4_HEADER_BYTES + UDP_HEADER_BYTES + self.payload.len());
        self.encode_payload_into(&mut bytes)?;
        EthernetFrame::new(self.eth_dst, self.eth_src, ETHERTYPE_IPV4, bytes)
    }

    /// Append the Ethernet *payload* of this datagram (stamped IPv4 header +
    /// UDP header + application payload) to `out` — the same bytes
    /// [`RtDataFrame::into_ethernet`] wraps in a frame, without the
    /// intermediate allocations.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) -> RtResult<()> {
        let udp = UdpHeader::new(self.src_port, self.dst_port, self.payload.len())?;
        let ip = Ipv4Header::udp(
            Ipv4Address::UNSPECIFIED,
            Ipv4Address::UNSPECIFIED,
            UDP_HEADER_BYTES + self.payload.len(),
        )?;
        let stamped = self.stamp.apply(&ip);
        stamped.encode_into(out);
        udp.encode_into(out);
        out.extend_from_slice(&self.payload);
        Ok(())
    }

    /// Validate an Ethernet frame as an RT data frame and extract its stamp
    /// *without copying the payload*.  Runs the parse of
    /// [`RtDataFrame::from_ethernet`], so the two accept and reject the same
    /// set of frames.
    pub fn peek_stamp(frame: &EthernetFrame) -> RtResult<DeadlineStamp> {
        Ok(Self::parse(frame)?.stamp)
    }

    /// [`RtDataFrame::peek_stamp`] for a caller that has decoded the frame's
    /// IPv4 header already (its ethertype is IPv4).
    pub(crate) fn peek_stamp_after(
        frame: &EthernetFrame,
        ip: &Ipv4Header,
    ) -> RtResult<DeadlineStamp> {
        Ok(Self::parse_after(frame, ip)?.stamp)
    }

    /// Parse an RT data frame back out of an Ethernet frame.  Fails when the
    /// frame is not IPv4/UDP or not marked real-time.  The frame is taken
    /// apart: its payload buffer becomes the datagram's, cut down to the
    /// UDP payload in place instead of being copied out.  The buffer keeps
    /// its capacity, the header bytes included.
    pub fn from_ethernet(frame: EthernetFrame) -> RtResult<Self> {
        let parsed = Self::parse(&frame)?;
        Ok(Self::take_apart(frame, parsed))
    }

    /// [`RtDataFrame::from_ethernet`] for a caller that has decoded the
    /// frame's IPv4 header already (its ethertype is IPv4).
    pub(crate) fn from_ethernet_after(frame: EthernetFrame, ip: &Ipv4Header) -> RtResult<Self> {
        let parsed = Self::parse_after(&frame, ip)?;
        Ok(Self::take_apart(frame, parsed))
    }

    /// The one parse of an RT data frame: ethertype, the IPv4 header, then
    /// [`RtDataFrame::parse_after`].
    fn parse(frame: &EthernetFrame) -> RtResult<Parsed> {
        if frame.ethertype != ETHERTYPE_IPV4 {
            return Err(RtError::FrameDecode(format!(
                "RtDataFrame: ethertype {:#06x} is not IPv4",
                frame.ethertype
            )));
        }
        Self::parse_after(frame, &Ipv4Header::decode(&frame.payload)?)
    }

    /// The parse past the IPv4 header `ip` (decoded from `frame`'s payload):
    /// protocol, stamp, length and the UDP header, each checked once.
    fn parse_after(frame: &EthernetFrame, ip: &Ipv4Header) -> RtResult<Parsed> {
        if ip.protocol != IP_PROTO_UDP {
            return Err(RtError::FrameDecode(format!(
                "RtDataFrame: IP protocol {} is not UDP",
                ip.protocol
            )));
        }
        let stamp = DeadlineStamp::extract(ip)?;
        let ip_payload_end = (ip.total_length as usize).min(frame.payload.len());
        if ip_payload_end < PAYLOAD_START {
            return Err(RtError::FrameDecode(
                "RtDataFrame: datagram too short for a UDP header".into(),
            ));
        }
        let udp = UdpHeader::decode(&frame.payload[IPV4_HEADER_BYTES..])?;
        Ok(Parsed {
            stamp,
            udp,
            payload_end: (PAYLOAD_START + udp.payload_length()).min(ip_payload_end),
        })
    }

    /// Move `frame`'s payload buffer into the datagram, cut down to the UDP
    /// payload `parsed` found.
    fn take_apart(frame: EthernetFrame, parsed: Parsed) -> Self {
        let mut payload = frame.payload;
        payload.truncate(parsed.payload_end);
        payload.drain(..PAYLOAD_START);
        RtDataFrame {
            eth_src: frame.src,
            eth_dst: frame.dst,
            stamp: parsed.stamp,
            src_port: parsed.udp.src_port,
            dst_port: parsed.udp.dst_port,
            payload,
        }
    }

    /// Wire size (including preamble and inter-frame gap) of this frame when
    /// transmitted, in bytes.
    pub fn wire_bytes(&self) -> RtResult<usize> {
        Ok(self.into_ethernet()?.wire_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::rng::Xoshiro256;

    #[test]
    fn stamp_apply_and_extract_round_trip() {
        let original = Ipv4Header::udp(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            100,
        )
        .unwrap();
        let stamp = DeadlineStamp::new(0x0000_1234_5678_9abc, ChannelId::new(77)).unwrap();
        let stamped = stamp.apply(&original);
        assert_eq!(stamped.tos, RT_TOS_VALUE);
        assert!(stamped.is_realtime());
        // Length/protocol fields survive untouched.
        assert_eq!(stamped.total_length, original.total_length);
        assert_eq!(stamped.protocol, original.protocol);

        let extracted = DeadlineStamp::extract(&stamped).unwrap();
        assert_eq!(extracted, stamp);
    }

    #[test]
    fn stamp_rejects_oversized_deadline() {
        assert!(DeadlineStamp::new(MAX_DEADLINE_VALUE, ChannelId::new(1)).is_ok());
        assert!(DeadlineStamp::new(MAX_DEADLINE_VALUE + 1, ChannelId::new(1)).is_err());
    }

    #[test]
    fn extract_rejects_non_rt_frames() {
        let plain = Ipv4Header::udp(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            10,
        )
        .unwrap();
        assert!(DeadlineStamp::extract(&plain).is_err());
    }

    #[test]
    fn data_frame_round_trip() {
        let frame = RtDataFrame {
            eth_src: MacAddr::new([2, 0, 0, 0, 0, 1]),
            eth_dst: MacAddr::for_switch(),
            stamp: DeadlineStamp::new(123_456_789, ChannelId::new(9)).unwrap(),
            src_port: 5555,
            dst_port: 6666,
            payload: b"sensor reading 42".to_vec(),
        };
        let eth = frame.into_ethernet().unwrap();
        // Survives serialisation to raw bytes and back (including padding).
        let eth2 = EthernetFrame::decode(&eth.encode()).unwrap();
        let parsed = RtDataFrame::from_ethernet(eth2).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn data_frame_rejects_non_ipv4_and_non_udp() {
        let eth =
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::ZERO, 0x88B5, vec![0u8; 60]).unwrap();
        assert!(RtDataFrame::from_ethernet(eth).is_err());

        // IPv4 but TCP.
        let mut ip = Ipv4Header::udp(
            Ipv4Address::new(1, 2, 3, 4),
            Ipv4Address::new(5, 6, 7, 8),
            20,
        )
        .unwrap();
        ip.protocol = crate::ipv4::IP_PROTO_TCP;
        ip.tos = RT_TOS_VALUE;
        let eth = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::ZERO,
            ETHERTYPE_IPV4,
            ip.encode(),
        )
        .unwrap();
        assert!(RtDataFrame::from_ethernet(eth).is_err());
    }

    #[test]
    fn encode_payload_into_matches_into_ethernet() {
        let frame = RtDataFrame {
            eth_src: MacAddr::new([2, 0, 0, 0, 0, 1]),
            eth_dst: MacAddr::for_switch(),
            stamp: DeadlineStamp::new(123_456_789, ChannelId::new(9)).unwrap(),
            src_port: 5555,
            dst_port: 6666,
            payload: b"sensor reading 42".to_vec(),
        };
        let mut out = Vec::new();
        frame.encode_payload_into(&mut out).unwrap();
        assert_eq!(out, frame.into_ethernet().unwrap().payload);
    }

    #[test]
    fn wire_bytes_accounts_for_headers() {
        let frame = RtDataFrame {
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::BROADCAST,
            stamp: DeadlineStamp::new(1, ChannelId::new(1)).unwrap(),
            src_port: 1,
            dst_port: 2,
            payload: vec![0u8; 1000],
        };
        // 14 (eth) + 20 (ip) + 8 (udp) + 1000 + 4 (fcs) + 20 (overhead)
        assert_eq!(frame.wire_bytes().unwrap(), 14 + 20 + 8 + 1000 + 4 + 20);
    }

    /// Randomised stamps always survive apply → extract.
    #[test]
    fn prop_stamp_round_trip() {
        let mut rng = Xoshiro256::new(0xd47a_57a3);
        for _ in 0..256 {
            let deadline = rng.range_inclusive(0, MAX_DEADLINE_VALUE);
            let chan = rng.below(1 << 16) as u16;
            let header = Ipv4Header::udp(
                Ipv4Address::new(10, 0, 0, 1),
                Ipv4Address::new(10, 0, 0, 2),
                64,
            )
            .unwrap();
            let stamp = DeadlineStamp::new(deadline, ChannelId::new(chan)).unwrap();
            let stamped = stamp.apply(&header);
            assert_eq!(DeadlineStamp::extract(&stamped).unwrap(), stamp);
        }
    }

    /// Randomised data frames survive encode → decode byte-for-byte.
    #[test]
    fn prop_data_frame_round_trip() {
        let mut rng = Xoshiro256::new(0xf4a3_0001);
        for _ in 0..128 {
            let deadline = rng.range_inclusive(0, MAX_DEADLINE_VALUE);
            let chan = rng.below(1 << 16) as u16;
            let sport = rng.below(1 << 16) as u16;
            let dport = rng.below(1 << 16) as u16;
            let payload_len = rng.below(1400) as usize;
            let payload: Vec<u8> = (0..payload_len).map(|_| rng.below(256) as u8).collect();
            let frame = RtDataFrame {
                eth_src: MacAddr::new([2, 0, 0, 0, 0, 3]),
                eth_dst: MacAddr::for_switch(),
                stamp: DeadlineStamp::new(deadline, ChannelId::new(chan)).unwrap(),
                src_port: sport,
                dst_port: dport,
                payload,
            };
            let eth = frame.into_ethernet().unwrap();
            let parsed =
                RtDataFrame::from_ethernet(EthernetFrame::decode(&eth.encode()).unwrap()).unwrap();
            assert_eq!(parsed, frame);
        }
    }
}
