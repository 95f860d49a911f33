//! Top-level frame classification.
//!
//! The switch and the end-node RT layers receive raw Ethernet frames and
//! must decide which queue and which handler they belong to:
//!
//! * RT control frames (EtherType [`ETHERTYPE_RT_CONTROL`]) → the channel
//!   management software,
//! * IPv4 frames whose ToS is 255 → the deadline-sorted real-time queue,
//! * everything else → the FCFS best-effort queue.
//!
//! [`Frame::classify`] performs that dispatch and decodes the payload into
//! the corresponding typed frame.

use rt_types::{
    constants::{
        ETHERTYPE_IPV4, ETHERTYPE_RT_CONTROL, RT_FRAME_TYPE_CONNECT, RT_FRAME_TYPE_RESERVATION,
        RT_FRAME_TYPE_RESPONSE, RT_FRAME_TYPE_TEARDOWN,
    },
    ChannelId, RtError, RtResult,
};

use crate::ethernet::EthernetFrame;
use crate::ipv4::Ipv4Header;
use crate::reservation::{ReservationFrame, ReservationOp};
use crate::rt_data::{DeadlineStamp, RtDataFrame};
use crate::rt_request::RequestFrame;
use crate::rt_response::ResponseFrame;
use crate::wire::ByteReader;

/// A channel tear-down notification (an extension beyond the paper; the
/// paper only establishes channels, but a practical system must also release
/// their reserved capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeardownFrame {
    /// The channel being torn down.
    pub rt_channel_id: ChannelId,
}

impl TeardownFrame {
    /// Wire size of the tear-down payload in bytes.
    pub const BYTES: usize = 3;

    /// Serialise: type byte + channel id.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTES);
        self.encode_into(&mut out);
        out
    }

    /// Append the serialised payload to `out` (same bytes as
    /// [`TeardownFrame::encode`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(RT_FRAME_TYPE_TEARDOWN);
        out.extend_from_slice(&self.rt_channel_id.get().to_be_bytes());
    }

    /// Parse a tear-down payload.
    pub fn decode(bytes: &[u8]) -> RtResult<Self> {
        let mut r = ByteReader::new(bytes, "TeardownFrame");
        let ty = r.get_u8()?;
        if ty != RT_FRAME_TYPE_TEARDOWN {
            return Err(RtError::FrameDecode(format!(
                "TeardownFrame: type byte {ty:#04x} is not a teardown packet"
            )));
        }
        Ok(TeardownFrame {
            rt_channel_id: ChannelId::new(r.get_u16()?),
        })
    }
}

/// The result of classifying a *borrowed* Ethernet frame with
/// [`Frame::peek`]: the queueing-relevant facts, without materialising the
/// decoded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePeek {
    /// A valid RT control frame (request / response / teardown /
    /// reservation) — real-time class, handled by the control plane.
    Control,
    /// A valid link-state flood frame (a reservation frame carrying the
    /// `LinkState` op) — same class and queueing as [`FramePeek::Control`],
    /// but accounted separately so flooding overhead is observable next to
    /// admission traffic.
    LinkState,
    /// A deadline-stamped real-time datagram; the stamp carries the absolute
    /// deadline and channel ID the queues need.
    RtData(DeadlineStamp),
    /// Everything else — FCFS best-effort traffic.
    BestEffort,
}

/// A classified, decoded frame as seen by the RT layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// RT channel establishment request (Figure 18.3).
    Request(RequestFrame),
    /// RT channel establishment response (Figure 18.4).
    Response(ResponseFrame),
    /// RT channel tear-down (extension).
    Teardown(TeardownFrame),
    /// Switch-to-switch reservation traffic of the distributed control
    /// plane (extension).
    Reservation(ReservationFrame),
    /// Deadline-stamped real-time data (§18.2.2).
    RtData(RtDataFrame),
    /// Anything else — ordinary best-effort traffic handled FCFS.
    BestEffort(EthernetFrame),
}

impl Frame {
    /// Classify and decode an Ethernet frame.
    ///
    /// Control frames with an unknown type byte and IPv4 frames that fail to
    /// parse are errors (a real implementation would count and drop them);
    /// IPv4 frames that are not marked real-time and frames of any other
    /// EtherType are passed through as [`Frame::BestEffort`].
    pub fn classify(eth: EthernetFrame) -> RtResult<Frame> {
        match eth.ethertype {
            ETHERTYPE_RT_CONTROL => {
                let ty = *eth
                    .payload
                    .first()
                    .ok_or_else(|| RtError::FrameDecode("empty RT control frame".into()))?;
                match ty {
                    RT_FRAME_TYPE_CONNECT => {
                        Ok(Frame::Request(RequestFrame::decode(&eth.payload)?))
                    }
                    RT_FRAME_TYPE_RESPONSE => {
                        Ok(Frame::Response(ResponseFrame::decode(&eth.payload)?))
                    }
                    RT_FRAME_TYPE_TEARDOWN => {
                        Ok(Frame::Teardown(TeardownFrame::decode(&eth.payload)?))
                    }
                    RT_FRAME_TYPE_RESERVATION => {
                        Ok(Frame::Reservation(ReservationFrame::decode(&eth.payload)?))
                    }
                    other => Err(RtError::FrameDecode(format!(
                        "unknown RT control frame type {other:#04x}"
                    ))),
                }
            }
            ETHERTYPE_IPV4 => {
                let ip = Ipv4Header::decode(&eth.payload)?;
                if ip.is_realtime() {
                    Ok(Frame::RtData(RtDataFrame::from_ethernet_after(eth, &ip)?))
                } else {
                    Ok(Frame::BestEffort(eth))
                }
            }
            _ => Ok(Frame::BestEffort(eth)),
        }
    }

    /// Classify a *borrowed* Ethernet frame without decoding it into owned
    /// structures — the zero-copy counterpart of [`Frame::classify`] used by
    /// the simulator hot path.
    ///
    /// Accepts and rejects exactly the same set of frames as `classify`
    /// (control frames are fully validated, RT IPv4 frames run the parse of
    /// [`RtDataFrame::from_ethernet`] on the IPv4 header decoded here); it
    /// only skips materialising the decoded payload.
    pub fn peek(eth: &EthernetFrame) -> RtResult<FramePeek> {
        match eth.ethertype {
            ETHERTYPE_RT_CONTROL => {
                let ty = *eth
                    .payload
                    .first()
                    .ok_or_else(|| RtError::FrameDecode("empty RT control frame".into()))?;
                match ty {
                    RT_FRAME_TYPE_CONNECT => {
                        RequestFrame::decode(&eth.payload)?;
                    }
                    RT_FRAME_TYPE_RESPONSE => {
                        ResponseFrame::decode(&eth.payload)?;
                    }
                    RT_FRAME_TYPE_TEARDOWN => {
                        TeardownFrame::decode(&eth.payload)?;
                    }
                    RT_FRAME_TYPE_RESERVATION => {
                        let rf = ReservationFrame::decode(&eth.payload)?;
                        if rf.op == ReservationOp::LinkState {
                            return Ok(FramePeek::LinkState);
                        }
                    }
                    other => {
                        return Err(RtError::FrameDecode(format!(
                            "unknown RT control frame type {other:#04x}"
                        )))
                    }
                }
                Ok(FramePeek::Control)
            }
            ETHERTYPE_IPV4 => {
                let ip = Ipv4Header::decode(&eth.payload)?;
                if ip.is_realtime() {
                    Ok(FramePeek::RtData(RtDataFrame::peek_stamp_after(eth, &ip)?))
                } else {
                    Ok(FramePeek::BestEffort)
                }
            }
            _ => Ok(FramePeek::BestEffort),
        }
    }

    /// `true` if this frame goes to the deadline-sorted real-time queue.
    pub fn is_realtime(&self) -> bool {
        matches!(
            self,
            Frame::Request(_)
                | Frame::Response(_)
                | Frame::Teardown(_)
                | Frame::Reservation(_)
                | Frame::RtData(_)
        )
    }

    /// `true` if this is a control-plane frame (establishment, reservation
    /// or tear-down traffic, as opposed to data or best effort).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Frame::Request(_) | Frame::Response(_) | Frame::Teardown(_) | Frame::Reservation(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationReason;
    use crate::udp::UdpHeader;
    use crate::wire::internet_checksum;
    use rt_types::constants::{IPV4_HEADER_BYTES, UDP_HEADER_BYTES};
    use rt_types::rng::Xoshiro256;
    use rt_types::{ConnectionRequestId, Ipv4Address, MacAddr, Slots};

    fn request() -> RequestFrame {
        RequestFrame {
            src_mac: MacAddr::for_node(rt_types::NodeId::new(1)),
            dst_mac: MacAddr::for_node(rt_types::NodeId::new(2)),
            src_ip: Ipv4Address::new(10, 0, 0, 1),
            dst_ip: Ipv4Address::new(10, 0, 0, 2),
            period: Slots::new(100),
            capacity: Slots::new(3),
            deadline: Slots::new(40),
            rt_channel_id: None,
            connection_request_id: ConnectionRequestId::new(1),
        }
    }

    #[test]
    fn classifies_request_and_response() {
        let req = request();
        let eth = req
            .into_ethernet(MacAddr::ZERO, MacAddr::for_switch())
            .unwrap();
        match Frame::classify(eth).unwrap() {
            Frame::Request(r) => assert_eq!(r, req),
            other => panic!("expected Request, got {other:?}"),
        }

        let resp = ResponseFrame {
            rt_channel_id: Some(ChannelId::new(3)),
            switch_mac: MacAddr::for_switch(),
            verdict: crate::rt_response::ResponseVerdict::Accepted,
            connection_request_id: ConnectionRequestId::new(1),
        };
        let eth = resp
            .into_ethernet(MacAddr::for_switch(), MacAddr::ZERO)
            .unwrap();
        assert!(matches!(
            Frame::classify(eth).unwrap(),
            Frame::Response(r) if r == resp
        ));
    }

    #[test]
    fn classifies_teardown() {
        let td = TeardownFrame {
            rt_channel_id: ChannelId::new(7),
        };
        let eth = EthernetFrame::new(
            MacAddr::for_switch(),
            MacAddr::ZERO,
            ETHERTYPE_RT_CONTROL,
            td.encode(),
        )
        .unwrap();
        assert!(matches!(
            Frame::classify(eth).unwrap(),
            Frame::Teardown(t) if t == td
        ));
    }

    #[test]
    fn teardown_round_trip_and_errors() {
        let td = TeardownFrame {
            rt_channel_id: ChannelId::new(65535),
        };
        assert_eq!(TeardownFrame::decode(&td.encode()).unwrap(), td);
        let mut out = vec![0x99];
        td.encode_into(&mut out);
        assert_eq!(&out[1..], &td.encode()[..]);
        assert!(TeardownFrame::decode(&[RT_FRAME_TYPE_TEARDOWN]).is_err());
        assert!(TeardownFrame::decode(&[0xff, 0, 1]).is_err());
    }

    #[test]
    fn classifies_rt_data_and_best_effort_ipv4() {
        // Real-time data frame.
        let data = RtDataFrame {
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::for_switch(),
            stamp: crate::rt_data::DeadlineStamp::new(99, ChannelId::new(4)).unwrap(),
            src_port: 1,
            dst_port: 2,
            payload: vec![1, 2, 3],
        };
        let frame = Frame::classify(data.into_ethernet().unwrap()).unwrap();
        assert!(frame.is_realtime());
        assert!(matches!(frame, Frame::RtData(d) if d.stamp.channel == ChannelId::new(4)));

        // Plain (non-RT) IPv4 is best effort.
        let ip = Ipv4Header::udp(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            8,
        )
        .unwrap();
        let mut payload = ip.encode();
        payload.extend_from_slice(&crate::udp::UdpHeader::new(1, 2, 0).unwrap().encode());
        let eth =
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::ZERO, ETHERTYPE_IPV4, payload).unwrap();
        let frame = Frame::classify(eth).unwrap();
        assert!(!frame.is_realtime());
        assert!(matches!(frame, Frame::BestEffort(_)));
    }

    #[test]
    fn unknown_ethertype_is_best_effort() {
        let eth =
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::ZERO, 0x0806, vec![0; 28]).unwrap();
        assert!(matches!(
            Frame::classify(eth).unwrap(),
            Frame::BestEffort(_)
        ));
    }

    /// A representative zoo of frames, well-formed and malformed: every
    /// control frame type, a link-state flood, RT data, best-effort IPv4, a
    /// foreign EtherType, an unknown control type, an empty and a truncated
    /// control payload and garbage IPv4.
    fn zoo() -> Vec<EthernetFrame> {
        // Well-formed control frames.
        let mut zoo: Vec<EthernetFrame> = vec![request()
            .into_ethernet(MacAddr::ZERO, MacAddr::for_switch())
            .unwrap()];
        let resp = ResponseFrame {
            rt_channel_id: Some(ChannelId::new(3)),
            switch_mac: MacAddr::for_switch(),
            verdict: crate::rt_response::ResponseVerdict::Accepted,
            connection_request_id: ConnectionRequestId::new(1),
        };
        zoo.push(
            resp.into_ethernet(MacAddr::for_switch(), MacAddr::ZERO)
                .unwrap(),
        );
        let td = TeardownFrame {
            rt_channel_id: ChannelId::new(7),
        };
        zoo.push(
            EthernetFrame::new(
                MacAddr::for_switch(),
                MacAddr::ZERO,
                ETHERTYPE_RT_CONTROL,
                td.encode(),
            )
            .unwrap(),
        );
        // Reservation traffic: a Probe carrying its route (plain control), a
        // ReserveFailed refusing a stale route, and a LinkState flood.
        let mut reservation = ReservationFrame {
            op: ReservationOp::Probe,
            reason: ReservationReason::None,
            coordinator: rt_types::SwitchId::new(2),
            token: 9,
            source: rt_types::NodeId::new(1),
            destination: rt_types::NodeId::new(5),
            request_id: ConnectionRequestId::new(3),
            candidate: 0,
            hop: 1,
            channel: None,
            period: Slots::new(100),
            capacity: Slots::new(3),
            deadline: Slots::new(40),
            values: vec![3, 2, 3, 4, 1, 2],
        };
        let to_3 = |reservation: &ReservationFrame| {
            reservation
                .into_ethernet(
                    MacAddr::for_switch_id(rt_types::SwitchId::new(2)),
                    MacAddr::for_switch_id(rt_types::SwitchId::new(3)),
                )
                .unwrap()
        };
        zoo.push(to_3(&reservation));
        let mut failed = reservation.clone();
        failed.op = ReservationOp::ReserveFailed;
        failed.reason = ReservationReason::StaleRoute;
        failed.values.clear();
        zoo.push(to_3(&failed));
        reservation.op = ReservationOp::LinkState;
        reservation.values = vec![2, 3, 0, 1];
        zoo.push(to_3(&reservation));
        // RT data.
        let data = RtDataFrame {
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::for_switch(),
            stamp: crate::rt_data::DeadlineStamp::new(99, ChannelId::new(4)).unwrap(),
            src_port: 1,
            dst_port: 2,
            payload: vec![1, 2, 3],
        };
        zoo.push(data.into_ethernet().unwrap());
        let data = RtDataFrame {
            payload: (0..1000).map(|i| i as u8).collect(),
            ..data
        };
        zoo.push(data.into_ethernet().unwrap());
        // Plain best-effort IPv4 and a foreign EtherType.
        let ip = Ipv4Header::udp(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            8,
        )
        .unwrap();
        let mut payload = ip.encode();
        payload.extend_from_slice(&crate::udp::UdpHeader::new(1, 2, 0).unwrap().encode());
        zoo.push(
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::ZERO, ETHERTYPE_IPV4, payload).unwrap(),
        );
        zoo.push(
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::ZERO, 0x0806, vec![0; 28]).unwrap(),
        );
        // Malformed: unknown control type, empty control payload, truncated
        // request, garbage IPv4.
        zoo.push(
            EthernetFrame::new(
                MacAddr::for_switch(),
                MacAddr::ZERO,
                ETHERTYPE_RT_CONTROL,
                vec![0x7f, 1, 2, 3],
            )
            .unwrap(),
        );
        zoo.push(
            EthernetFrame::new(
                MacAddr::for_switch(),
                MacAddr::ZERO,
                ETHERTYPE_RT_CONTROL,
                vec![],
            )
            .unwrap(),
        );
        zoo.push(
            EthernetFrame::new(
                MacAddr::for_switch(),
                MacAddr::ZERO,
                ETHERTYPE_RT_CONTROL,
                vec![RT_FRAME_TYPE_CONNECT, 1, 2],
            )
            .unwrap(),
        );
        zoo.push(
            EthernetFrame::new(
                MacAddr::BROADCAST,
                MacAddr::ZERO,
                ETHERTYPE_IPV4,
                vec![0; 30],
            )
            .unwrap(),
        );

        zoo
    }

    /// Classify `eth` both ways and check that `peek` and `classify` agree
    /// on acceptance and class (and on the stamp of RT data); `peek`'s
    /// verdict, `None` for a rejected frame.
    fn peek_agreeing_with_classify(eth: &EthernetFrame) -> Option<FramePeek> {
        let peeked = Frame::peek(eth);
        let classified = Frame::classify(eth.clone());
        match (peeked, classified) {
            (Err(_), Err(_)) => None,
            (Ok(p), Ok(c)) => {
                match p {
                    FramePeek::Control => {
                        assert!(c.is_control());
                        assert!(!matches!(
                            &c,
                            Frame::Reservation(rf) if rf.op == ReservationOp::LinkState
                        ));
                    }
                    FramePeek::LinkState => assert!(matches!(
                        &c,
                        Frame::Reservation(rf) if rf.op == ReservationOp::LinkState
                    )),
                    FramePeek::RtData(stamp) => match &c {
                        Frame::RtData(d) => assert_eq!(d.stamp, stamp),
                        other => panic!("peek said RtData, classify said {other:?}"),
                    },
                    FramePeek::BestEffort => {
                        assert!(matches!(c, Frame::BestEffort(_)))
                    }
                }
                assert_eq!(
                    matches!(
                        p,
                        FramePeek::Control | FramePeek::LinkState | FramePeek::RtData(_)
                    ),
                    c.is_realtime()
                );
                Some(p)
            }
            (p, c) => panic!("peek/classify disagree on {eth:?}: {p:?} vs {c:?}"),
        }
    }

    /// `peek` must agree with `classify` on both acceptance and class for a
    /// representative zoo of frames, including malformed ones.
    #[test]
    fn peek_agrees_with_classify() {
        for eth in zoo() {
            peek_agreeing_with_classify(&eth);
        }
    }

    /// One to three seeded mutations of a frame's wire image, biased to the
    /// Ethernet, IPv4 and UDP headers: a flipped bit, an overwritten byte, a
    /// cut, random bytes appended, or an edge value in the EtherType, the
    /// ToS or a length field.  Half the time the IPv4 checksum is made
    /// right again, so that a mutation gets past it into the protocol,
    /// stamp, length and UDP checks.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut Xoshiro256) {
        const HEADERS: u64 = 14 + 20 + 8;
        for _ in 0..1 + rng.below(3) {
            let len = bytes.len() as u64;
            match rng.below(6) {
                0 if len > 0 => {
                    let at = rng.below(len.min(HEADERS)) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                }
                1 if len > 0 => {
                    let at = rng.below(len.min(HEADERS)) as usize;
                    bytes[at] = rng.below(256) as u8;
                }
                2 if len > 0 => {
                    let at = rng.below(len) as usize;
                    bytes[at] = rng.below(256) as u8;
                }
                3 => bytes.truncate(rng.below(len + 1) as usize),
                4 => bytes.extend((0..1 + rng.below(64)).map(|_| rng.below(256) as u8)),
                _ => {
                    let (at, value): (usize, u16) = match rng.below(5) {
                        0 => (
                            12,
                            [ETHERTYPE_IPV4, ETHERTYPE_RT_CONTROL][rng.below(2) as usize],
                        ),
                        1 => (14, 0x45ff),               // version/IHL, ToS 255
                        2 => (16, rng.below(80) as u16), // IPv4 total length
                        3 => (38, rng.below(80) as u16), // UDP length
                        _ => (16 + 22 * rng.below(2) as usize, rng.next_u64() as u16),
                    };
                    if bytes.len() >= at + 2 {
                        bytes[at..at + 2].copy_from_slice(&value.to_be_bytes());
                    }
                }
            }
        }
        if bytes.len() >= 34 && rng.chance(0.5) {
            bytes[24..26].fill(0);
            let checksum = internet_checksum(&bytes[14..34]);
            bytes[24..26].copy_from_slice(&checksum.to_be_bytes());
        }
    }

    /// Seeded byte mutations of the zoo's wire images through every decoder
    /// of the frame path.  No decoder panics; `peek` accepts exactly the
    /// frames `classify` accepts, with equal class and stamp;
    /// `peek_stamp` and `from_ethernet` accept the same frames with the
    /// same stamp; whatever decodes as RT data survives
    /// `into_ethernet` → `from_ethernet` (and the wire image in between)
    /// unchanged, its payload the bytes behind its headers; and whatever
    /// decodes as a `RequestFrame`, `ResponseFrame` or `ReservationFrame`
    /// encodes to bytes that decode back to it, and a decoded reservation's
    /// `carried_route` reads its list or refuses it without panicking.  Every
    /// class, each of the three control decoders, a carried route that
    /// reads, a `StaleRoute` reason, and RT data refused after its IPv4
    /// header, must be reached.  Seeds from `RT_ADVERSARIAL_SEEDS`, else 2.
    #[test]
    fn prop_mutated_frames_never_panic_and_decode_alike() {
        let seeds = std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2u64);
        let images: Vec<Vec<u8>> = zoo().iter().map(EthernetFrame::encode).collect();
        let (mut control, mut link_state, mut rt_data, mut best_effort) = (0, 0, 0, 0);
        let (mut refused_past_ip, mut requests, mut responses, mut reservations) = (0, 0, 0, 0);
        let (mut routes, mut stale_routes) = (0, 0);
        for seed in 0..seeds {
            let mut rng = Xoshiro256::new(0x6d75_7461 ^ seed);
            for _ in 0..4_000 {
                let mut bytes = images[rng.below(images.len() as u64) as usize].clone();
                mutate(&mut bytes, &mut rng);
                let Ok(eth) = EthernetFrame::decode(&bytes) else {
                    continue;
                };
                let ip = Ipv4Header::decode(&eth.payload);
                let _ = UdpHeader::decode(eth.payload.get(IPV4_HEADER_BYTES..).unwrap_or(&[]));
                match peek_agreeing_with_classify(&eth) {
                    Some(FramePeek::Control) => control += 1,
                    Some(FramePeek::LinkState) => link_state += 1,
                    Some(FramePeek::RtData(_)) => rt_data += 1,
                    Some(FramePeek::BestEffort) => best_effort += 1,
                    None => {}
                }
                if let Ok(x) = RequestFrame::decode(&eth.payload) {
                    assert_eq!(RequestFrame::decode(&x.encode().unwrap()).unwrap(), x);
                    requests += 1;
                }
                if let Ok(x) = ResponseFrame::decode(&eth.payload) {
                    assert_eq!(ResponseFrame::decode(&x.encode()).unwrap(), x);
                    responses += 1;
                }
                if let Ok(x) = ReservationFrame::decode(&eth.payload) {
                    assert_eq!(ReservationFrame::decode(&x.encode().unwrap()).unwrap(), x);
                    reservations += 1;
                    routes += usize::from(x.carried_route().is_ok());
                    stale_routes += usize::from(x.reason == ReservationReason::StaleRoute);
                }
                let peeked = RtDataFrame::peek_stamp(&eth);
                match (peeked, RtDataFrame::from_ethernet(eth.clone())) {
                    (Err(_), Err(_)) => {
                        let ipv4 = eth.ethertype == ETHERTYPE_IPV4;
                        refused_past_ip += usize::from(ipv4 && ip.is_ok_and(|ip| ip.is_realtime()));
                    }
                    (Ok(stamp), Ok(data)) => {
                        assert_eq!(data.stamp, stamp);
                        let start = IPV4_HEADER_BYTES + UDP_HEADER_BYTES;
                        let end = start + data.payload.len();
                        assert_eq!(data.payload, eth.payload[start..end]);
                        let ip = ip.expect("an RT data frame has an IPv4 header");
                        assert!(
                            end <= usize::from(ip.total_length),
                            "past the IPv4 datagram"
                        );
                        let image = data.into_ethernet().unwrap();
                        assert_eq!(RtDataFrame::from_ethernet(image.clone()).unwrap(), data);
                        let rewired = EthernetFrame::decode(&image.encode()).unwrap();
                        assert_eq!(RtDataFrame::from_ethernet(rewired).unwrap(), data);
                    }
                    (p, f) => {
                        panic!("peek_stamp/from_ethernet disagree on {eth:?}: {p:?} vs {f:?}")
                    }
                }
            }
        }
        let reached = [
            control,
            link_state,
            rt_data,
            best_effort,
            refused_past_ip,
            requests,
            responses,
            reservations,
            routes,
            stale_routes,
        ];
        assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
    }

    #[test]
    fn malformed_control_frames_are_errors() {
        let eth = EthernetFrame::new(
            MacAddr::for_switch(),
            MacAddr::ZERO,
            ETHERTYPE_RT_CONTROL,
            vec![0x7f, 1, 2, 3],
        )
        .unwrap();
        assert!(Frame::classify(eth).is_err());

        let eth = EthernetFrame::new(
            MacAddr::for_switch(),
            MacAddr::ZERO,
            ETHERTYPE_RT_CONTROL,
            vec![],
        )
        .unwrap();
        assert!(Frame::classify(eth).is_err());
    }
}
