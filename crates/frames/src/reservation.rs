//! The switch-to-switch control frames of the *distributed* control plane
//! (an extension beyond the paper, whose channel management is centralised
//! in one switch).
//!
//! Distributed admission is a deterministic two-phase reservation along the
//! candidate route, carried in frames that really traverse the fabric:
//!
//! * **Probe** (forward, source access switch → destination access switch):
//!   carries the candidate route's switch sequence; each visited switch
//!   appends the current load of the route links it owns, so the deadline
//!   partition is computed from the same loads the central manager would
//!   have seen,
//! * **Reserve** (backward, destination access switch → coordinator): each
//!   visited switch feasibility-tests and tentatively reserves its owned
//!   links under the per-link deadlines carried by the frame,
//! * **Rollback** (from wherever a step failed, releasing every switch it
//!   visits): partial reservations never leak slack,
//! * **ReserveFailed** / **Confirm** (direct notifications to the
//!   coordinator): try the next candidate route, or commit the channel,
//! * **Release** (forward along the admitted route): tear an established
//!   channel's reservations down switch by switch,
//! * **LinkState** (flooded from the switches adjacent to a trunk event):
//!   each receiving switch applies the announced liveness to its own
//!   topology view and re-floods, so convergence happens at wire speed and
//!   two switches can briefly disagree about the fabric.
//!
//! One wire format serves all seven operations; the op-specific payload
//! (the route and its collected loads or per-link deadlines, the switch
//! itinerary, or the announced trunk) rides in the variable-length `values`
//! list.

use rt_types::{
    constants::{ETHERTYPE_RT_CONTROL, RT_FRAME_TYPE_RESERVATION},
    ChannelId, ConnectionRequestId, MacAddr, NodeId, RtError, RtResult, Slots, SwitchId,
};

use crate::ethernet::EthernetFrame;
use crate::wire::{ByteReader, ByteWriter};

/// Wire size of the fixed part of a reservation payload, in bytes.
pub const RESERVATION_FRAME_FIXED_BYTES: usize = 35;

/// What a reservation frame asks the receiving switch to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationOp {
    /// Forward pass along the carried route: append the loads of the route
    /// links you own and pass the frame on (the destination access switch
    /// then partitions the deadline and starts the Reserve pass).
    Probe,
    /// Backward pass along the carried route: feasibility-test and
    /// tentatively reserve your owned links under the carried per-link
    /// deadlines.
    Reserve,
    /// Release the tentative (or committed) reservations of this request at
    /// every switch the frame visits.
    Rollback,
    /// Direct notification to the coordinator: the current candidate route
    /// failed its reservation; try the next one.
    ReserveFailed,
    /// Direct notification to the coordinator: the destination accepted,
    /// the reservation is committed end to end.
    Confirm,
    /// Tear-down pass along an admitted route: release the committed
    /// reservations switch by switch.
    Release,
    /// Link-state flood: a switch adjacent to a trunk event announces the
    /// trunk's new liveness to its neighbours, which apply it to their own
    /// topology view and re-flood.  `values` carries
    /// `[endpoint_a, endpoint_b, alive, epoch]`; the epoch deduplicates and
    /// orders announcements, so the flood terminates and late frames can
    /// never resurrect an older view.
    LinkState,
}

impl ReservationOp {
    fn to_wire(self) -> u8 {
        match self {
            ReservationOp::Probe => 1,
            ReservationOp::Reserve => 2,
            ReservationOp::Rollback => 3,
            ReservationOp::ReserveFailed => 4,
            ReservationOp::Confirm => 5,
            ReservationOp::Release => 6,
            ReservationOp::LinkState => 7,
        }
    }

    fn from_wire(v: u8) -> RtResult<Self> {
        Ok(match v {
            1 => ReservationOp::Probe,
            2 => ReservationOp::Reserve,
            3 => ReservationOp::Rollback,
            4 => ReservationOp::ReserveFailed,
            5 => ReservationOp::Confirm,
            6 => ReservationOp::Release,
            7 => ReservationOp::LinkState,
            other => {
                return Err(RtError::FrameDecode(format!(
                    "ReservationFrame: unknown op {other:#04x}"
                )))
            }
        })
    }
}

/// Why a Rollback / ReserveFailed was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReservationReason {
    /// No failure (the op is not a failure notification).
    #[default]
    None,
    /// A link of the candidate route failed its feasibility test (or the
    /// deadline could not be partitioned over its hops).
    Infeasible,
    /// The destination node refused the channel.
    DestinationRejected,
    /// A tentative reservation's lease expired before the handshake
    /// completed (a coordinator died or the confirm path was cut); the
    /// slack was reclaimed by the owning site's sweep.
    LeaseExpired,
    /// A switch refused the route the frame carries: a trunk it owns on the
    /// route is dead in its own view, or the route does not place it where
    /// the frame says.
    StaleRoute,
}

impl ReservationReason {
    fn to_wire(self) -> u8 {
        match self {
            ReservationReason::None => 0,
            ReservationReason::Infeasible => 1,
            ReservationReason::DestinationRejected => 2,
            ReservationReason::LeaseExpired => 3,
            ReservationReason::StaleRoute => 4,
        }
    }

    fn from_wire(v: u8) -> RtResult<Self> {
        Ok(match v {
            0 => ReservationReason::None,
            1 => ReservationReason::Infeasible,
            2 => ReservationReason::DestinationRejected,
            3 => ReservationReason::LeaseExpired,
            4 => ReservationReason::StaleRoute,
            other => {
                return Err(RtError::FrameDecode(format!(
                    "ReservationFrame: unknown reason {other:#04x}"
                )))
            }
        })
    }
}

/// One switch-to-switch control frame of the two-phase reservation protocol.
///
/// The route travels in the frame, never as an index into a list a hop
/// would have to re-derive: a Probe and a Reserve carry the candidate's
/// switch sequence ahead of their per-link values
/// ([`ReservationFrame::carried_route`]), a Release carries the admitted
/// route's switch itinerary.  Rollback and Confirm carry no list: each site
/// remembers its neighbours on the route from its Reserve step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationFrame {
    /// The operation requested of the receiving switch.
    pub op: ReservationOp,
    /// Failure reason (Rollback / ReserveFailed), [`ReservationReason::None`]
    /// otherwise.
    pub reason: ReservationReason,
    /// The coordinating switch — the source node's access switch, which
    /// owns the in-flight reservation state for this request.
    pub coordinator: SwitchId,
    /// Coordinator-unique token identifying the in-flight reservation.
    pub token: u16,
    /// Source node of the requested channel.
    pub source: NodeId,
    /// Destination node of the requested channel.
    pub destination: NodeId,
    /// The source node's connection request id (echoed into the final
    /// response).
    pub request_id: ConnectionRequestId,
    /// The coordinator's attempt number: which of its candidate routes it
    /// is trying.  Only the coordinator reads it.
    pub candidate: u8,
    /// Current position in the route's switch sequence.
    pub hop: u8,
    /// The assigned channel id, once one exists (`None` on the wire as 0).
    pub channel: Option<ChannelId>,
    /// Requested period `P_i` in slots.
    pub period: Slots,
    /// Requested capacity `C_i` in slots.
    pub capacity: Slots,
    /// Requested end-to-end deadline `d_i` in slots.
    pub deadline: Slots,
    /// Op-specific payload: the route and its collected per-link loads
    /// (Probe) or per-link deadline slots (Reserve), laid out as
    /// [`ReservationFrame::carried_route`] says; the switch itinerary
    /// (Release); the announced trunk (LinkState).
    pub values: Vec<u64>,
}

impl ReservationFrame {
    /// A Probe or Reserve `values` list holding the route `switches` (its
    /// switch sequence, source side first) and room for `per_link` values
    /// after it: `[n, s_0, …, s_{n−1}]`, the leading count `n` saying where
    /// the per-link values start.  A route of `n` switches has `n + 1`
    /// links — the uplink, `n − 1` trunks, the downlink.
    pub fn route_values(switches: impl ExactSizeIterator<Item = u64>, per_link: usize) -> Vec<u64> {
        let mut values = Vec::with_capacity(1 + switches.len() + per_link);
        values.push(switches.len() as u64);
        values.extend(switches);
        values
    }

    /// The route a Probe or Reserve carries and the per-link values after
    /// it (see [`ReservationFrame::route_values`]): `(switches, per_link)`.
    /// An error when the count runs past the list or the route is shorter
    /// than `hop`: the list is not a route this frame can stand on.
    pub fn carried_route(&self) -> RtResult<(&[u64], &[u64])> {
        let (n, rest) = match self.values.split_first() {
            Some((&n, rest)) => (usize::try_from(n).unwrap_or(usize::MAX), rest),
            None => (usize::MAX, &[][..]),
        };
        if n > rest.len() || usize::from(self.hop) >= n {
            return Err(RtError::ProtocolViolation(format!(
                "{:?} at hop {} carries no route of that length in {:?}",
                self.op, self.hop, self.values
            )));
        }
        Ok(rest.split_at(n))
    }

    /// Serialise the payload: 35 fixed bytes plus `4·values.len()`.
    ///
    /// Layout (offsets in bytes): `0` type, `1` op, `2` reason,
    /// `3` request id, `4` candidate, `5` hop, `6..8` token,
    /// `8..10` channel id, `10..14` coordinator, `14..18` source,
    /// `18..22` destination, `22..26` period, `26..30` capacity,
    /// `30..34` deadline, `34` value count, then the 32-bit values.
    pub fn encode(&self) -> RtResult<Vec<u8>> {
        let mut out = Vec::with_capacity(RESERVATION_FRAME_FIXED_BYTES + 4 * self.values.len());
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Append the serialised payload to `out` (same bytes as
    /// [`ReservationFrame::encode`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> RtResult<()> {
        for (name, v) in [
            ("period", self.period.get()),
            ("capacity", self.capacity.get()),
            ("deadline", self.deadline.get()),
        ] {
            if v > u32::MAX as u64 {
                return Err(RtError::FrameEncode(format!(
                    "ReservationFrame: {name} of {v} does not fit the 32-bit wire field"
                )));
            }
        }
        if self.values.len() > u8::MAX as usize {
            return Err(RtError::FrameEncode(format!(
                "ReservationFrame: {} values do not fit the 8-bit count",
                self.values.len()
            )));
        }
        for &v in &self.values {
            if v > u32::MAX as u64 {
                return Err(RtError::FrameEncode(format!(
                    "ReservationFrame: value {v} does not fit the 32-bit wire field"
                )));
            }
        }
        let base = out.len();
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.put_u8(RT_FRAME_TYPE_RESERVATION);
        w.put_u8(self.op.to_wire());
        w.put_u8(self.reason.to_wire());
        w.put_u8(self.request_id.get());
        w.put_u8(self.candidate);
        w.put_u8(self.hop);
        w.put_u16(self.token);
        w.put_u16(self.channel.map_or(0, |c| c.get()));
        w.put_u32(self.coordinator.get());
        w.put_u32(self.source.get());
        w.put_u32(self.destination.get());
        w.put_u32(self.period.get() as u32);
        w.put_u32(self.capacity.get() as u32);
        w.put_u32(self.deadline.get() as u32);
        w.put_u8(self.values.len() as u8);
        for &v in &self.values {
            w.put_u32(v as u32);
        }
        debug_assert_eq!(
            w.len() - base,
            RESERVATION_FRAME_FIXED_BYTES + 4 * self.values.len()
        );
        *out = w.into_vec();
        Ok(())
    }

    /// Parse a reservation payload.  Trailing padding (from Ethernet
    /// minimum-size padding) is tolerated and ignored.
    pub fn decode(bytes: &[u8]) -> RtResult<Self> {
        let mut r = ByteReader::new(bytes, "ReservationFrame");
        let ty = r.get_u8()?;
        if ty != RT_FRAME_TYPE_RESERVATION {
            return Err(RtError::FrameDecode(format!(
                "ReservationFrame: type byte {ty:#04x} is not a reservation packet"
            )));
        }
        let op = ReservationOp::from_wire(r.get_u8()?)?;
        let reason = ReservationReason::from_wire(r.get_u8()?)?;
        let request_id = ConnectionRequestId::new(r.get_u8()?);
        let candidate = r.get_u8()?;
        let hop = r.get_u8()?;
        let token = r.get_u16()?;
        let raw_channel = r.get_u16()?;
        let coordinator = SwitchId::new(r.get_u32()?);
        let source = NodeId::new(r.get_u32()?);
        let destination = NodeId::new(r.get_u32()?);
        let period = Slots::new(u64::from(r.get_u32()?));
        let capacity = Slots::new(u64::from(r.get_u32()?));
        let deadline = Slots::new(u64::from(r.get_u32()?));
        let count = r.get_u8()? as usize;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(u64::from(r.get_u32()?));
        }
        Ok(ReservationFrame {
            op,
            reason,
            coordinator,
            token,
            source,
            destination,
            request_id,
            candidate,
            hop,
            channel: if raw_channel == 0 {
                None
            } else {
                Some(ChannelId::new(raw_channel))
            },
            period,
            capacity,
            deadline,
            values,
        })
    }

    /// Wrap this frame in Ethernet between two per-switch control-plane
    /// addresses ([`MacAddr::for_switch_id`]).
    pub fn into_ethernet(&self, eth_src: MacAddr, eth_dst: MacAddr) -> RtResult<EthernetFrame> {
        EthernetFrame::new(eth_dst, eth_src, ETHERTYPE_RT_CONTROL, self.encode()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::rng::Xoshiro256;

    fn sample() -> ReservationFrame {
        ReservationFrame {
            op: ReservationOp::Probe,
            reason: ReservationReason::None,
            coordinator: SwitchId::new(3),
            token: 0x1234,
            source: NodeId::new(7),
            destination: NodeId::new(19),
            request_id: ConnectionRequestId::new(5),
            candidate: 1,
            hop: 2,
            channel: None,
            period: Slots::new(100),
            capacity: Slots::new(3),
            deadline: Slots::new(40),
            values: vec![0, 4, 2],
        }
    }

    #[test]
    fn golden_bytes_layout() {
        let bytes = sample().encode().unwrap();
        assert_eq!(bytes.len(), RESERVATION_FRAME_FIXED_BYTES + 4 * 3);
        assert_eq!(bytes[0], RT_FRAME_TYPE_RESERVATION);
        assert_eq!(bytes[1], 1); // op = Probe
        assert_eq!(bytes[2], 0); // reason = None
        assert_eq!(bytes[3], 5); // request id
        assert_eq!(bytes[4], 1); // candidate
        assert_eq!(bytes[5], 2); // hop
        assert_eq!(&bytes[6..8], &0x1234u16.to_be_bytes());
        assert_eq!(&bytes[8..10], &[0, 0]); // unassigned channel
        assert_eq!(&bytes[10..14], &3u32.to_be_bytes()); // coordinator
        assert_eq!(&bytes[14..18], &7u32.to_be_bytes()); // source
        assert_eq!(&bytes[18..22], &19u32.to_be_bytes()); // destination
        assert_eq!(&bytes[22..26], &100u32.to_be_bytes()); // period
        assert_eq!(&bytes[26..30], &3u32.to_be_bytes()); // capacity
        assert_eq!(&bytes[30..34], &40u32.to_be_bytes()); // deadline
        assert_eq!(bytes[34], 3); // value count
        assert_eq!(&bytes[35..39], &0u32.to_be_bytes());
        assert_eq!(&bytes[39..43], &4u32.to_be_bytes());
        assert_eq!(&bytes[43..47], &2u32.to_be_bytes());
    }

    #[test]
    fn round_trip_every_op_and_reason() {
        for op in [
            ReservationOp::Probe,
            ReservationOp::Reserve,
            ReservationOp::Rollback,
            ReservationOp::ReserveFailed,
            ReservationOp::Confirm,
            ReservationOp::Release,
            ReservationOp::LinkState,
        ] {
            for reason in [
                ReservationReason::None,
                ReservationReason::Infeasible,
                ReservationReason::DestinationRejected,
                ReservationReason::LeaseExpired,
                ReservationReason::StaleRoute,
            ] {
                let mut f = sample();
                f.op = op;
                f.reason = reason;
                f.channel = Some(ChannelId::new(9));
                assert_eq!(ReservationFrame::decode(&f.encode().unwrap()).unwrap(), f);
            }
        }
    }

    #[test]
    fn golden_bytes_link_state() {
        let f = ReservationFrame {
            op: ReservationOp::LinkState,
            reason: ReservationReason::None,
            coordinator: SwitchId::new(4),
            token: 0,
            source: NodeId::new(0),
            destination: NodeId::new(0),
            request_id: ConnectionRequestId::new(0),
            candidate: 0,
            hop: 0,
            channel: None,
            period: Slots::new(0),
            capacity: Slots::new(0),
            deadline: Slots::new(0),
            // [endpoint_a, endpoint_b, alive, epoch]
            values: vec![4, 9, 0, 17],
        };
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.len(), RESERVATION_FRAME_FIXED_BYTES + 4 * 4);
        assert_eq!(bytes[0], RT_FRAME_TYPE_RESERVATION);
        assert_eq!(bytes[1], 7); // op = LinkState
        assert_eq!(bytes[2], 0); // reason = None
        assert_eq!(&bytes[10..14], &4u32.to_be_bytes()); // origin switch
        assert_eq!(bytes[34], 4); // value count
        assert_eq!(&bytes[35..39], &4u32.to_be_bytes()); // endpoint a
        assert_eq!(&bytes[39..43], &9u32.to_be_bytes()); // endpoint b
        assert_eq!(&bytes[43..47], &0u32.to_be_bytes()); // alive = false
        assert_eq!(&bytes[47..51], &17u32.to_be_bytes()); // epoch
        assert_eq!(ReservationFrame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn golden_bytes_lease_expired_reason() {
        let mut f = sample();
        f.op = ReservationOp::ReserveFailed;
        f.reason = ReservationReason::LeaseExpired;
        let bytes = f.encode().unwrap();
        assert_eq!(bytes[1], 4); // op = ReserveFailed
        assert_eq!(bytes[2], 3); // reason = LeaseExpired
        assert_eq!(ReservationFrame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn golden_bytes_stale_route_reason() {
        let mut f = sample();
        f.op = ReservationOp::ReserveFailed;
        f.reason = ReservationReason::StaleRoute;
        let bytes = f.encode().unwrap();
        assert_eq!(bytes[2], 4); // reason = StaleRoute
        assert_eq!(ReservationFrame::decode(&bytes).unwrap(), f);
    }

    /// A route and its per-link values: the count leads, the switches follow,
    /// and a count past the list or a route shorter than the hop is refused.
    #[test]
    fn a_carried_route_reads_back_and_a_short_one_is_refused() {
        let mut f = sample();
        f.values = ReservationFrame::route_values([3u64, 8, 5].into_iter(), 4);
        assert_eq!((f.values.len(), f.values.capacity()), (4, 8));
        f.values.extend([0, 4]);
        assert_eq!(
            f.carried_route().unwrap(),
            (&[3, 8, 5][..], &[0, 4][..]),
            "hop 2 stands on the last switch"
        );
        assert_eq!(ReservationFrame::decode(&f.encode().unwrap()).unwrap(), f);
        f.hop = 3;
        assert!(f.carried_route().is_err(), "past the last switch");
        f.hop = 0;
        for values in [vec![], vec![4, 1, 2, 3], vec![u64::MAX, 1]] {
            f.values = values;
            assert!(f.carried_route().is_err(), "{:?}", f.values);
        }
    }

    #[test]
    fn tolerates_ethernet_padding() {
        let mut f = sample();
        f.values.clear(); // 35-byte payload, padded to 46 by Ethernet
        let eth = f
            .into_ethernet(
                MacAddr::for_switch_id(SwitchId::new(0)),
                MacAddr::for_switch_id(SwitchId::new(1)),
            )
            .unwrap();
        let decoded = EthernetFrame::decode(&eth.encode()).unwrap();
        assert_eq!(decoded.payload.len(), 46);
        assert_eq!(ReservationFrame::decode(&decoded.payload).unwrap(), f);
    }

    #[test]
    fn encode_into_matches_owned_encode() {
        let mut f = sample();
        f.channel = Some(ChannelId::new(9));
        let mut out = vec![0x42];
        f.encode_into(&mut out).unwrap();
        assert_eq!(&out[1..], &f.encode().unwrap()[..]);
        // Oversized fields fail encode_into the same way they fail encode.
        let mut f = sample();
        f.values = vec![u64::from(u32::MAX) + 1];
        let mut out = Vec::new();
        assert!(f.encode_into(&mut out).is_err());
    }

    #[test]
    fn rejects_malformed_frames() {
        let mut bytes = sample().encode().unwrap();
        bytes[0] = 0x7f;
        assert!(ReservationFrame::decode(&bytes).is_err());
        let mut bytes = sample().encode().unwrap();
        bytes[1] = 0x7f; // unknown op
        assert!(ReservationFrame::decode(&bytes).is_err());
        let mut bytes = sample().encode().unwrap();
        bytes[2] = 0x7f; // unknown reason
        assert!(ReservationFrame::decode(&bytes).is_err());
        let bytes = sample().encode().unwrap();
        // Truncated inside the value list.
        assert!(ReservationFrame::decode(&bytes[..bytes.len() - 2]).is_err());
        // Oversized fields fail encode.
        let mut f = sample();
        f.period = Slots::new(u64::from(u32::MAX) + 1);
        assert!(f.encode().is_err());
        let mut f = sample();
        f.values = vec![u64::from(u32::MAX) + 1];
        assert!(f.encode().is_err());
        let mut f = sample();
        f.values = vec![1; 300];
        assert!(f.encode().is_err());
    }

    /// Randomised frames survive encode → decode.
    #[test]
    fn prop_round_trip() {
        let mut rng = Xoshiro256::new(0x4e5e_44e5);
        for _ in 0..512 {
            let ops = [
                ReservationOp::Probe,
                ReservationOp::Reserve,
                ReservationOp::Rollback,
                ReservationOp::ReserveFailed,
                ReservationOp::Confirm,
                ReservationOp::Release,
                ReservationOp::LinkState,
            ];
            let chan = rng.below(1 << 16) as u16;
            let f = ReservationFrame {
                op: ops[rng.below(ops.len() as u64) as usize],
                reason: ReservationReason::None,
                coordinator: SwitchId::new(rng.below(1 << 32) as u32),
                token: rng.below(1 << 16) as u16,
                source: NodeId::new(rng.below(1 << 32) as u32),
                destination: NodeId::new(rng.below(1 << 32) as u32),
                request_id: ConnectionRequestId::new(rng.below(256) as u8),
                candidate: rng.below(256) as u8,
                hop: rng.below(256) as u8,
                channel: if chan == 0 {
                    None
                } else {
                    Some(ChannelId::new(chan))
                },
                period: Slots::new(rng.below(1 << 32)),
                capacity: Slots::new(rng.below(1 << 32)),
                deadline: Slots::new(rng.below(1 << 32)),
                values: (0..rng.below(20)).map(|_| rng.below(1 << 32)).collect(),
            };
            assert_eq!(ReservationFrame::decode(&f.encode().unwrap()).unwrap(), f);
        }
    }
}
