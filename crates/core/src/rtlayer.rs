//! The node-side RT layer (Figure 18.2): the thin layer between the TCP/IP
//! suite and the Ethernet MAC that turns ordinary UDP datagrams into
//! deadline-scheduled real-time traffic.
//!
//! Responsibilities, following §18.2:
//!
//! * **channel establishment** — build RequestFrames for the applications'
//!   channel requests, match ResponseFrames back to the outstanding requests
//!   (via the source-node-unique connection request ID) and keep the table
//!   of established channels (both outgoing and incoming),
//! * **data path, sending** — for every outgoing real-time datagram compute
//!   the absolute deadline (generation time + `d_i` converted to wall-clock
//!   time + `T_latency`, the Eq. 18.1 bound), write it together with the
//!   channel ID over the IP addresses, set ToS = 255, and hand the frame to
//!   the deadline-sorted NIC queue,
//! * **data path, receiving** — recognise deadline-stamped frames, restore
//!   the original IP header fields from the channel table and deliver the
//!   payload to the application,
//! * **tear-down** — emit TeardownFrames so the switch can release reserved
//!   capacity (an extension beyond the paper).

use std::collections::HashMap;

use rt_frames::codec::TeardownFrame;
use rt_frames::rt_data::{DeadlineStamp, RtDataFrame, MAX_DEADLINE_VALUE};
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{EthernetFrame, Ipv4Header, RequestFrame, ResponseFrame, UdpHeader};
use rt_types::constants::{ETHERTYPE_IPV4, ETHERTYPE_RT_CONTROL, UDP_HEADER_BYTES};
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, FoldState, Ipv4Address, LinkSpeed, MacAddr, NodeId,
    RtError, RtResult, SimTime,
};

use crate::channel::{Endpoint, RtChannelSpec};
use crate::protocol::ChannelRequest;

/// Static configuration of an RT layer instance.
#[derive(Debug, Clone, Copy)]
pub struct RtLayerConfig {
    /// Link speed, used to convert slot-denominated deadlines to wall-clock
    /// time when stamping frames.
    pub link_speed: LinkSpeed,
    /// The constant latency term of Eq. 18.1 added on top of `d_i` when
    /// computing the absolute delivery deadline of a frame: every outgoing
    /// channel's until [`RtLayer::set_channel_t_latency`] sets its own.
    pub t_latency: Duration,
    /// Maximum number of incoming channels this node accepts as a
    /// destination (`None` = unlimited).
    pub max_incoming_channels: Option<usize>,
}

impl Default for RtLayerConfig {
    fn default() -> Self {
        RtLayerConfig {
            link_speed: LinkSpeed::FAST_ETHERNET,
            t_latency: Duration::ZERO,
            max_incoming_channels: None,
        }
    }
}

/// An outgoing (source-side) established channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxChannel {
    /// The network-unique channel id.
    pub id: ChannelId,
    /// The destination endpoint.
    pub destination: Endpoint,
    /// The traffic contract.
    pub spec: RtChannelSpec,
}

/// An incoming (destination-side) established channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxChannel {
    /// The network-unique channel id.
    pub id: ChannelId,
    /// The source endpoint.
    pub source: Endpoint,
    /// The traffic contract.
    pub spec: RtChannelSpec,
}

/// The outcome of a ResponseFrame as seen by the requesting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstablishmentOutcome {
    /// The channel is established and ready for data.
    Established(TxChannel),
    /// The request was rejected (by the switch or by the destination).
    Rejected {
        /// The request that was answered.
        request_id: ConnectionRequestId,
    },
}

/// A real-time message delivered to the application on the receiving side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// The channel it arrived on.
    pub channel: ChannelId,
    /// The UDP payload.
    pub payload: Vec<u8>,
    /// The absolute deadline the frame carried.
    pub absolute_deadline: SimTime,
    /// The restored original source IP (from the channel table).
    pub source: Endpoint,
}

/// What every data frame of a periodic stream carries, its deadline aside:
/// captured by [`RtLayer::prepare_stream`] when the stream is sent, so the
/// frames built from it later are byte for byte what
/// [`RtLayer::prepare_data`] built at that moment with a zeroed payload,
/// even if the channel has been torn down, moved or given another
/// `T_latency` since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataTemplate {
    eth_src: MacAddr,
    eth_dst: MacAddr,
    src_port: u16,
    dst_port: u16,
    channel: ChannelId,
    /// `d_i·slot + T_latency`: a frame's stamp is its generation time plus
    /// this.
    stamp_offset: Duration,
    payload_len: usize,
}

impl DataTemplate {
    /// The frame of the message generated at `generation_time`: the stamped
    /// IPv4 header, the UDP header and the zeroed payload in one buffer.
    pub fn frame(&self, generation_time: SimTime) -> RtResult<EthernetFrame> {
        let stamp = self.stamp(generation_time)?;
        let (udp, ip) = self.headers()?;
        let len = usize::from(ip.total_length);
        let mut bytes = Vec::with_capacity(len);
        stamp.apply(&ip).encode_into(&mut bytes);
        udp.encode_into(&mut bytes);
        bytes.resize(len, 0);
        EthernetFrame::new(self.eth_dst, self.eth_src, ETHERTYPE_IPV4, bytes)
    }

    fn stamp(&self, generation_time: SimTime) -> RtResult<DeadlineStamp> {
        let deadline = generation_time + self.stamp_offset;
        DeadlineStamp::new(deadline.as_nanos(), self.channel)
    }

    /// The headers, checked as [`RtDataFrame::into_ethernet`] checks them:
    /// the UDP and IPv4 lengths, then the Ethernet MTU.
    fn headers(&self) -> RtResult<(UdpHeader, Ipv4Header)> {
        let udp = UdpHeader::new(self.src_port, self.dst_port, self.payload_len)?;
        let ip = Ipv4Header::udp(
            Ipv4Address::UNSPECIFIED,
            Ipv4Address::UNSPECIFIED,
            UDP_HEADER_BYTES + self.payload_len,
        )?;
        EthernetFrame::check_payload_len(usize::from(ip.total_length))?;
        Ok((udp, ip))
    }
}

/// The node-side RT layer.
#[derive(Debug)]
pub struct RtLayer {
    node: NodeId,
    endpoint: Endpoint,
    config: RtLayerConfig,
    next_request_id: u8,
    outstanding: HashMap<u8, (NodeId, RtChannelSpec), FoldState>,
    /// Each outgoing channel with the `T_latency` its stamps add: the
    /// layer's default until [`RtLayer::set_channel_t_latency`] sets the
    /// channel's own.
    tx_channels: HashMap<u16, (TxChannel, Duration), FoldState>,
    rx_channels: HashMap<u16, RxChannel, FoldState>,
    frames_sent: u64,
    frames_received: u64,
}

impl RtLayer {
    /// Create the RT layer of `node`.
    pub fn new(node: NodeId, config: RtLayerConfig) -> Self {
        RtLayer {
            node,
            endpoint: Endpoint::for_node(node),
            config,
            next_request_id: 0,
            outstanding: HashMap::default(),
            tx_channels: HashMap::default(),
            rx_channels: HashMap::default(),
            frames_sent: 0,
            frames_received: 0,
        }
    }

    /// The node this layer belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration in use.
    pub fn config(&self) -> RtLayerConfig {
        self.config
    }

    /// Established outgoing channels, in ascending channel id.
    pub fn tx_channels(&self) -> impl Iterator<Item = &TxChannel> {
        ascending(&self.tx_channels).map(|(tx, _)| tx)
    }

    /// Established incoming channels, in ascending channel id.
    pub fn rx_channels(&self) -> impl Iterator<Item = &RxChannel> {
        ascending(&self.rx_channels)
    }

    /// Look up an outgoing channel.
    pub fn tx_channel(&self, id: ChannelId) -> Option<&TxChannel> {
        self.tx_channels.get(&id.get()).map(|(tx, _)| tx)
    }

    /// Number of requests still waiting for a response.
    pub fn outstanding_requests(&self) -> usize {
        self.outstanding.len()
    }

    /// Data frames sent / received so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.frames_sent, self.frames_received)
    }

    // --- establishment: source side ----------------------------------------

    /// Start establishing a channel to `destination`.  Returns the request id
    /// and the RequestFrame wrapped in Ethernet, addressed to the switch.
    pub fn request_channel(
        &mut self,
        destination: NodeId,
        spec: RtChannelSpec,
    ) -> RtResult<(ConnectionRequestId, EthernetFrame)> {
        spec.validate()?;
        if destination == self.node {
            return Err(RtError::InvalidChannelSpec(
                "cannot open an RT channel to oneself".into(),
            ));
        }
        if self.outstanding.len() >= 256 {
            return Err(RtError::RequestIdsExhausted);
        }
        // Find a free request id (8-bit, source-node unique).
        let mut id = self.next_request_id;
        while self.outstanding.contains_key(&id) {
            id = id.wrapping_add(1);
        }
        self.next_request_id = id.wrapping_add(1);
        let request_id = ConnectionRequestId::new(id);
        self.outstanding.insert(id, (destination, spec));

        let frame = ChannelRequest {
            source: self.node,
            destination,
            spec,
            request_id,
        }
        .to_frame();
        let eth = frame.into_ethernet(self.endpoint.mac, MacAddr::for_switch())?;
        Ok((request_id, eth))
    }

    /// Handle a ResponseFrame forwarded by the switch.
    pub fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<EstablishmentOutcome> {
        let key = frame.connection_request_id.get();
        let (destination, spec) = self.outstanding.remove(&key).ok_or_else(|| {
            RtError::UnknownRequest(format!(
                "node {} has no outstanding request {}",
                self.node, frame.connection_request_id
            ))
        })?;
        match (frame.verdict, frame.rt_channel_id) {
            (ResponseVerdict::Accepted, Some(id)) => {
                let tx = TxChannel {
                    id,
                    destination: Endpoint::for_node(destination),
                    spec,
                };
                self.tx_channels
                    .insert(id.get(), (tx, self.config.t_latency));
                Ok(EstablishmentOutcome::Established(tx))
            }
            (ResponseVerdict::Accepted, None) => Err(RtError::ProtocolViolation(
                "accepting response carries no channel id".into(),
            )),
            (ResponseVerdict::Rejected, _) => Ok(EstablishmentOutcome::Rejected {
                request_id: frame.connection_request_id,
            }),
        }
    }

    // --- establishment: destination side ------------------------------------

    /// Handle a RequestFrame the switch forwarded to this node as the
    /// destination of a new channel.  Returns the ResponseFrame (wrapped in
    /// Ethernet, addressed to the switch) and whether the channel was
    /// accepted.
    pub fn handle_forwarded_request(
        &mut self,
        frame: &RequestFrame,
    ) -> RtResult<(EthernetFrame, bool)> {
        let request = ChannelRequest::from_frame(frame)?;
        let channel_id = frame.rt_channel_id.ok_or_else(|| {
            RtError::ProtocolViolation("forwarded request carries no RT channel id".into())
        })?;
        if request.destination != self.node {
            return Err(RtError::ProtocolViolation(format!(
                "request for {} delivered to {}",
                request.destination, self.node
            )));
        }
        let accept = self
            .config
            .max_incoming_channels
            .is_none_or(|max| self.rx_channels.len() < max);
        if accept {
            self.rx_channels.insert(
                channel_id.get(),
                RxChannel {
                    id: channel_id,
                    source: Endpoint::for_node(request.source),
                    spec: request.spec,
                },
            );
        }
        let response = ResponseFrame {
            rt_channel_id: Some(channel_id),
            switch_mac: MacAddr::for_switch(),
            verdict: if accept {
                ResponseVerdict::Accepted
            } else {
                ResponseVerdict::Rejected
            },
            connection_request_id: request.request_id,
        };
        let eth = response.into_ethernet(self.endpoint.mac, MacAddr::for_switch())?;
        Ok((eth, accept))
    }

    // --- data path -----------------------------------------------------------

    /// Set the constant `T_latency` term of one established outgoing
    /// channel.  On a multi-switch fabric the constant depends on the hop
    /// count of the channel's route, which only the managing switch knows;
    /// the network glue calls this once establishment completes.
    pub fn set_channel_t_latency(&mut self, channel: ChannelId, t_latency: Duration) {
        if let Some((_, own)) = self.tx_channels.get_mut(&channel.get()) {
            *own = t_latency;
        }
    }

    /// The absolute delivery deadline (Eq. 18.1) of a message generated at
    /// `generation_time` on an established channel, with the channel's own
    /// `T_latency` — the stamp [`RtLayer::prepare_data`] writes on the wire.
    /// `None` if the channel is not established here.
    pub fn absolute_deadline_for(
        &self,
        channel: ChannelId,
        generation_time: SimTime,
    ) -> Option<SimTime> {
        let template = self.template(channel, 0).ok()?;
        Some(generation_time + template.stamp_offset)
    }

    /// What every data frame of `payload_len` bytes on an established
    /// channel carries but its deadline: the single place the addressing
    /// and the Eq. 18.1 stamp offset `d_i·slot + t_latency` are decided.
    fn template(&self, channel: ChannelId, payload_len: usize) -> RtResult<DataTemplate> {
        let (tx, t_latency) = self
            .tx_channels
            .get(&channel.get())
            .ok_or(RtError::UnknownChannel(channel))?;
        Ok(DataTemplate {
            eth_src: self.endpoint.mac,
            eth_dst: tx.destination.mac,
            src_port: 0x4000 | (self.node.get() & 0x3fff) as u16,
            dst_port: 0x4000,
            channel,
            stamp_offset: self.config.link_speed.slots_to_duration(tx.spec.deadline) + *t_latency,
            payload_len,
        })
    }

    /// Prepare an outgoing real-time datagram on an established channel:
    /// stamp the deadline and channel id into the IP header (§18.2.2) and
    /// wrap it for transmission.
    pub fn prepare_data(
        &mut self,
        channel: ChannelId,
        payload: Vec<u8>,
        generation_time: SimTime,
    ) -> RtResult<EthernetFrame> {
        let template = self.template(channel, payload.len())?;
        let frame = RtDataFrame {
            eth_src: template.eth_src,
            eth_dst: template.eth_dst,
            stamp: template.stamp(generation_time)?,
            src_port: template.src_port,
            dst_port: template.dst_port,
            payload,
        };
        self.frames_sent += 1;
        frame.into_ethernet()
    }

    /// Send `count` periodic messages of `C_i` zeroed frames each on an
    /// established channel, generated at `start`, `start + period`, …,
    /// without building one: every check [`RtLayer::prepare_data`] would
    /// make of them is made now, with the error it would return first, and
    /// on success the frames count as sent.  The returned template builds
    /// each message's frame when it is due ([`DataTemplate::frame`]), with
    /// the addressing and stamp offset the channel has now.  The caller
    /// checks that the last generation time plus its stamp offset fits the
    /// clock.
    pub fn prepare_stream(
        &mut self,
        channel: ChannelId,
        payload_len: usize,
        start: SimTime,
        period: Duration,
        count: u64,
    ) -> RtResult<DataTemplate> {
        let template = self.template(channel, payload_len)?;
        let capacity = self
            .tx_channel(channel)
            .map_or(0, |tx| tx.spec.capacity.get());
        if let Some(last) = count.checked_sub(1) {
            // The first message fails on its stamp or on its lengths; a
            // later one only on its stamp, the first whose stamp overflows.
            template.stamp(start)?;
            template.headers()?;
            let first = (start + template.stamp_offset).as_nanos();
            let span = period.as_nanos().saturating_mul(last);
            if first.saturating_add(span) > MAX_DEADLINE_VALUE {
                let k = (MAX_DEADLINE_VALUE - first) / period.as_nanos().max(1) + 1;
                template.stamp(start + period.saturating_mul(k))?;
            }
        }
        self.frames_sent += count.saturating_mul(capacity);
        Ok(template)
    }

    /// Handle an incoming deadline-stamped data frame: restore the original
    /// addressing from the channel table and deliver the payload — moved out
    /// of the frame, not copied.  The buffer is handed over as delivered: it
    /// keeps the capacity of the headers it held too, since shrinking it
    /// would cost a reallocation per frame and give no memory back.
    pub fn handle_data(&mut self, frame: RtDataFrame) -> RtResult<ReceivedMessage> {
        let rx = self
            .rx_channels
            .get(&frame.stamp.channel.get())
            .ok_or(RtError::UnknownChannel(frame.stamp.channel))?;
        self.frames_received += 1;
        Ok(ReceivedMessage {
            channel: rx.id,
            payload: frame.payload,
            absolute_deadline: SimTime::from_nanos(frame.stamp.absolute_deadline),
            source: rx.source,
        })
    }

    // --- tear-down -----------------------------------------------------------

    /// Build a TeardownFrame for an established outgoing channel and forget
    /// it locally.
    pub fn teardown_channel(&mut self, channel: ChannelId) -> RtResult<EthernetFrame> {
        if self.tx_channels.remove(&channel.get()).is_none() {
            return Err(RtError::UnknownChannel(channel));
        }
        let frame = TeardownFrame {
            rt_channel_id: channel,
        };
        EthernetFrame::new(
            MacAddr::for_switch(),
            self.endpoint.mac,
            ETHERTYPE_RT_CONTROL,
            frame.encode(),
        )
    }

    /// Forget an incoming channel (destination side of a tear-down).
    pub fn forget_rx_channel(&mut self, channel: ChannelId) {
        self.rx_channels.remove(&channel.get());
    }

    /// Forget an outgoing channel *without* emitting a TeardownFrame — the
    /// network side of a fail-over drop: the fabric already released the
    /// channel because no surviving route could re-admit it, so the source
    /// merely stops believing it can transmit on it.  The channel's
    /// `T_latency` goes with its entry.
    pub fn forget_tx_channel(&mut self, channel: ChannelId) {
        self.tx_channels.remove(&channel.get());
    }
}

/// A channel table's entries in ascending channel id: the tables hash, and
/// their iteration order is no output.
fn ascending<T>(table: &HashMap<u16, T, FoldState>) -> impl Iterator<Item = &T> {
    let mut entries: Vec<(&u16, &T)> = table.iter().collect();
    entries.sort_unstable_by_key(|&(id, _)| *id);
    entries.into_iter().map(|(_, entry)| entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_frames::Frame;
    use rt_types::Slots;

    fn layer(node: u32) -> RtLayer {
        RtLayer::new(NodeId::new(node), RtLayerConfig::default())
    }

    fn spec() -> RtChannelSpec {
        RtChannelSpec::paper_default()
    }

    #[test]
    fn request_channel_builds_a_connect_frame_to_the_switch() {
        let mut l = layer(3);
        let (req_id, eth) = l.request_channel(NodeId::new(9), spec()).unwrap();
        assert_eq!(eth.dst, MacAddr::for_switch());
        assert_eq!(eth.src, MacAddr::for_node(NodeId::new(3)));
        assert_eq!(l.outstanding_requests(), 1);
        match Frame::classify(eth).unwrap() {
            Frame::Request(r) => {
                assert_eq!(r.connection_request_id, req_id);
                assert_eq!(r.period, Slots::new(100));
                assert_eq!(r.rt_channel_id, None);
            }
            other => panic!("expected Request, got {other:?}"),
        }
    }

    #[test]
    fn request_ids_are_unique_across_outstanding_requests() {
        let mut l = layer(0);
        let mut ids = std::collections::HashSet::new();
        for i in 0..100u32 {
            let (id, _) = l.request_channel(NodeId::new(i + 1), spec()).unwrap();
            assert!(ids.insert(id.get()));
        }
        assert_eq!(l.outstanding_requests(), 100);
    }

    #[test]
    fn request_to_self_is_rejected() {
        let mut l = layer(5);
        assert!(l.request_channel(NodeId::new(5), spec()).is_err());
    }

    #[test]
    fn accepted_response_establishes_a_tx_channel() {
        let mut l = layer(0);
        let (req_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
        let resp = ResponseFrame {
            rt_channel_id: Some(ChannelId::new(12)),
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: req_id,
        };
        match l.handle_response(&resp).unwrap() {
            EstablishmentOutcome::Established(tx) => {
                assert_eq!(tx.id, ChannelId::new(12));
                assert_eq!(tx.destination.node, NodeId::new(1));
            }
            other => panic!("expected Established, got {other:?}"),
        }
        assert_eq!(l.outstanding_requests(), 0);
        assert!(l.tx_channel(ChannelId::new(12)).is_some());
        // A second response for the same request is a protocol error.
        assert!(l.handle_response(&resp).is_err());
    }

    #[test]
    fn rejected_response_leaves_no_channel() {
        let mut l = layer(0);
        let (req_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
        let resp = ResponseFrame {
            rt_channel_id: None,
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Rejected,
            connection_request_id: req_id,
        };
        assert_eq!(
            l.handle_response(&resp).unwrap(),
            EstablishmentOutcome::Rejected { request_id: req_id }
        );
        assert_eq!(l.tx_channels().count(), 0);
    }

    #[test]
    fn destination_accepts_and_registers_rx_channel() {
        let mut destination = layer(7);
        let mut frame = ChannelRequest {
            source: NodeId::new(1),
            destination: NodeId::new(7),
            spec: spec(),
            request_id: ConnectionRequestId::new(4),
        }
        .to_frame();
        frame.rt_channel_id = Some(ChannelId::new(33));
        let (eth, accepted) = destination.handle_forwarded_request(&frame).unwrap();
        assert!(accepted);
        assert_eq!(destination.rx_channels().count(), 1);
        assert_eq!(eth.dst, MacAddr::for_switch());
        match Frame::classify(eth).unwrap() {
            Frame::Response(r) => {
                assert!(r.verdict.is_accepted());
                assert_eq!(r.rt_channel_id, Some(ChannelId::new(33)));
            }
            other => panic!("expected Response, got {other:?}"),
        }
    }

    /// The channel tables hash; `tx_channels()` and `rx_channels()` still
    /// yield ascending ids, so two layers that learn the same channels in
    /// different orders iterate identically.
    #[test]
    fn layers_that_learn_channels_in_any_order_iterate_alike() {
        let ids = [40u16, 7, u16::MAX, 1, 300, 12, 9000, 2, 513, 64];
        let learn = |order: &[u16]| {
            let mut l = layer(0);
            for &id in order {
                let (request_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
                l.handle_response(&ResponseFrame {
                    rt_channel_id: Some(ChannelId::new(id)),
                    switch_mac: MacAddr::for_switch(),
                    verdict: ResponseVerdict::Accepted,
                    connection_request_id: request_id,
                })
                .unwrap();
                let mut forwarded = ChannelRequest {
                    source: NodeId::new(1),
                    destination: NodeId::new(0),
                    spec: spec(),
                    request_id,
                }
                .to_frame();
                forwarded.rt_channel_id = Some(ChannelId::new(id));
                l.handle_forwarded_request(&forwarded).unwrap();
            }
            let tx: Vec<ChannelId> = l.tx_channels().map(|c| c.id).collect();
            let rx: Vec<ChannelId> = l.rx_channels().map(|c| c.id).collect();
            (tx, rx)
        };
        let mut ascending: Vec<ChannelId> = ids.iter().map(|&id| ChannelId::new(id)).collect();
        ascending.sort_unstable();
        let mut rng = rt_types::rng::Xoshiro256::new(0x1d5);
        let mut order = ids;
        for _ in 0..8 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            assert_eq!(
                learn(&order),
                (ascending.clone(), ascending.clone()),
                "{order:?}"
            );
        }
    }

    #[test]
    fn destination_enforces_incoming_limit() {
        let mut destination = RtLayer::new(
            NodeId::new(7),
            RtLayerConfig {
                max_incoming_channels: Some(1),
                ..RtLayerConfig::default()
            },
        );
        for (i, expect_accept) in [(1u16, true), (2, false)] {
            let mut frame = ChannelRequest {
                source: NodeId::new(0),
                destination: NodeId::new(7),
                spec: spec(),
                request_id: ConnectionRequestId::new(i as u8),
            }
            .to_frame();
            frame.rt_channel_id = Some(ChannelId::new(i));
            let (_, accepted) = destination.handle_forwarded_request(&frame).unwrap();
            assert_eq!(accepted, expect_accept);
        }
        assert_eq!(destination.rx_channels().count(), 1);
    }

    #[test]
    fn forwarded_request_validation() {
        let mut destination = layer(7);
        // Missing channel id.
        let frame = ChannelRequest {
            source: NodeId::new(0),
            destination: NodeId::new(7),
            spec: spec(),
            request_id: ConnectionRequestId::new(1),
        }
        .to_frame();
        assert!(destination.handle_forwarded_request(&frame).is_err());
        // Wrong destination.
        let mut frame = ChannelRequest {
            source: NodeId::new(0),
            destination: NodeId::new(8),
            spec: spec(),
            request_id: ConnectionRequestId::new(1),
        }
        .to_frame();
        frame.rt_channel_id = Some(ChannelId::new(2));
        assert!(destination.handle_forwarded_request(&frame).is_err());
    }

    #[test]
    fn data_round_trip_between_source_and_destination() {
        let mut source = layer(0);
        let mut destination = layer(1);
        // Establish on the source side.
        let (req_id, _) = source.request_channel(NodeId::new(1), spec()).unwrap();
        source
            .handle_response(&ResponseFrame {
                rt_channel_id: Some(ChannelId::new(5)),
                switch_mac: MacAddr::for_switch(),
                verdict: ResponseVerdict::Accepted,
                connection_request_id: req_id,
            })
            .unwrap();
        // Register on the destination side.
        let mut fwd = ChannelRequest {
            source: NodeId::new(0),
            destination: NodeId::new(1),
            spec: spec(),
            request_id: req_id,
        }
        .to_frame();
        fwd.rt_channel_id = Some(ChannelId::new(5));
        destination.handle_forwarded_request(&fwd).unwrap();

        // Send a message.
        let gen = SimTime::from_millis(10);
        let eth = source
            .prepare_data(ChannelId::new(5), b"position=42".to_vec(), gen)
            .unwrap();
        assert_eq!(eth.dst, MacAddr::for_node(NodeId::new(1)));
        let data = match Frame::classify(eth).unwrap() {
            Frame::RtData(d) => d,
            other => panic!("expected RtData, got {other:?}"),
        };
        // The stamped deadline is gen + 40 slots (no T_latency configured).
        let expected = gen + LinkSpeed::FAST_ETHERNET.slots_to_duration(Slots::new(40));
        assert_eq!(data.stamp.absolute_deadline, expected.as_nanos());

        let msg = destination.handle_data(data).unwrap();
        assert_eq!(msg.channel, ChannelId::new(5));
        assert_eq!(msg.payload, b"position=42");
        assert_eq!(msg.source.node, NodeId::new(0));
        assert_eq!(source.counters().0, 1);
        assert_eq!(destination.counters().1, 1);
    }

    /// A source layer with channel 5 to node 1 established.
    fn source_with_channel_5() -> RtLayer {
        let mut source = layer(0);
        let (req_id, _) = source.request_channel(NodeId::new(1), spec()).unwrap();
        source
            .handle_response(&ResponseFrame {
                rt_channel_id: Some(ChannelId::new(5)),
                switch_mac: MacAddr::for_switch(),
                verdict: ResponseVerdict::Accepted,
                connection_request_id: req_id,
            })
            .unwrap();
        source
    }

    /// A stream's template builds, byte for byte, the frame `prepare_data`
    /// builds of a zeroed payload — from the channel as it was when the
    /// stream was sent, whatever happened to it since; and `prepare_stream`
    /// refuses with the error the first failing `prepare_data` of the
    /// stream returns, counting nothing.
    #[test]
    fn a_stream_template_builds_what_prepare_data_builds() {
        let ch = ChannelId::new(5);
        let mut l = source_with_channel_5();
        l.set_channel_t_latency(ch, Duration::from_micros(77));
        let period = Duration::from_micros(250);
        for len in [0, 1, 17, 18, 333, 1472] {
            for start in [SimTime::ZERO, SimTime::from_millis(10)] {
                let template = l.prepare_stream(ch, len, start, period, 4).unwrap();
                for k in 0..4 {
                    let at = start + period.saturating_mul(k);
                    let built = l.prepare_data(ch, vec![0; len], at).unwrap();
                    assert_eq!(template.frame(at).unwrap(), built, "{len} bytes at {at}");
                }
            }
        }
        assert_eq!(l.counters().0, 6 * 2 * (4 * 3 + 4));

        // Captured when sent: a new T_latency, even a forgotten channel,
        // leaves the template's frames as they were.
        let at = SimTime::from_millis(3);
        let template = l.prepare_stream(ch, 100, at, period, 1).unwrap();
        let before = l.prepare_data(ch, vec![0; 100], at).unwrap();
        l.set_channel_t_latency(ch, Duration::from_micros(5));
        assert_ne!(l.prepare_data(ch, vec![0; 100], at).unwrap(), before);
        l.forget_tx_channel(ch);
        assert_eq!(template.frame(at).unwrap(), before);

        let mut l = source_with_channel_5();
        let offset = l.absolute_deadline_for(ch, SimTime::ZERO).unwrap() - SimTime::ZERO;
        let edge = SimTime::from_nanos(MAX_DEADLINE_VALUE) - offset;
        for (len, start, count) in [
            (1473, SimTime::ZERO, 1),
            (65_600, SimTime::ZERO, 3),
            // The first message's stamp fails before its length.
            (1473, edge + Duration::from_nanos(1), 2),
            // The fourth of five messages is the first past the stamp.
            (10, edge - period.saturating_mul(2), 5),
            (
                10,
                edge - period.saturating_mul(3) + Duration::from_nanos(1),
                5,
            ),
        ] {
            let sent = l.counters().0;
            let refused = l.prepare_stream(ch, len, start, period, count).unwrap_err();
            assert_eq!(l.counters().0, sent, "a refused stream counts nothing");
            let first = (0..count)
                .find_map(|k| {
                    let at = start + period.saturating_mul(k);
                    l.prepare_data(ch, vec![0; len], at).err()
                })
                .expect("some message of the stream fails");
            assert_eq!(
                refused.to_string(),
                first.to_string(),
                "{len} bytes from {start}"
            );
        }
        assert!(l.prepare_stream(ch, 10, edge - period, period, 2).is_ok());
    }

    #[test]
    fn data_on_unknown_channels_is_rejected() {
        let mut l = layer(0);
        assert!(l
            .prepare_data(ChannelId::new(9), vec![], SimTime::ZERO)
            .is_err());
        let frame = RtDataFrame {
            eth_src: MacAddr::for_node(NodeId::new(1)),
            eth_dst: MacAddr::for_node(NodeId::new(0)),
            stamp: DeadlineStamp::new(100, ChannelId::new(9)).unwrap(),
            src_port: 1,
            dst_port: 2,
            payload: vec![],
        };
        assert!(l.handle_data(frame).is_err());
    }

    #[test]
    fn per_channel_t_latency_override_changes_the_stamp() {
        let mut l = RtLayer::new(
            NodeId::new(0),
            RtLayerConfig {
                t_latency: Duration::from_micros(10),
                ..RtLayerConfig::default()
            },
        );
        let (req_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
        l.handle_response(&ResponseFrame {
            rt_channel_id: Some(ChannelId::new(4)),
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: req_id,
        })
        .unwrap();
        let gen = SimTime::from_millis(2);
        let base = LinkSpeed::FAST_ETHERNET.slots_to_duration(spec().deadline);

        let eth = l.prepare_data(ChannelId::new(4), vec![1], gen).unwrap();
        let data = match Frame::classify(eth).unwrap() {
            Frame::RtData(d) => d,
            other => panic!("expected RtData, got {other:?}"),
        };
        assert_eq!(
            data.stamp.absolute_deadline,
            (gen + base + Duration::from_micros(10)).as_nanos()
        );

        // A longer multi-hop path gets a larger constant term.
        l.set_channel_t_latency(ChannelId::new(4), Duration::from_micros(55));
        let eth = l.prepare_data(ChannelId::new(4), vec![1], gen).unwrap();
        let data = match Frame::classify(eth).unwrap() {
            Frame::RtData(d) => d,
            other => panic!("expected RtData, got {other:?}"),
        };
        assert_eq!(
            data.stamp.absolute_deadline,
            (gen + base + Duration::from_micros(55)).as_nanos()
        );
        assert_eq!(
            l.absolute_deadline_for(ChannelId::new(4), gen),
            Some(gen + base + Duration::from_micros(55))
        );

        // The constant goes with the channel: a recycled id starts from the
        // layer's default again.
        l.forget_tx_channel(ChannelId::new(4));
        assert_eq!(l.absolute_deadline_for(ChannelId::new(4), gen), None);
        let (req_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
        l.handle_response(&ResponseFrame {
            rt_channel_id: Some(ChannelId::new(4)),
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: req_id,
        })
        .unwrap();
        assert_eq!(
            l.absolute_deadline_for(ChannelId::new(4), gen),
            Some(gen + base + Duration::from_micros(10))
        );
    }

    #[test]
    fn teardown_removes_the_channel_and_builds_a_control_frame() {
        let mut l = layer(0);
        let (req_id, _) = l.request_channel(NodeId::new(1), spec()).unwrap();
        l.handle_response(&ResponseFrame {
            rt_channel_id: Some(ChannelId::new(8)),
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: req_id,
        })
        .unwrap();
        let eth = l.teardown_channel(ChannelId::new(8)).unwrap();
        assert_eq!(eth.dst, MacAddr::for_switch());
        assert!(matches!(
            Frame::classify(eth).unwrap(),
            Frame::Teardown(t) if t.rt_channel_id == ChannelId::new(8)
        ));
        assert!(l.tx_channel(ChannelId::new(8)).is_none());
        assert!(l.teardown_channel(ChannelId::new(8)).is_err());

        let mut rx = layer(1);
        rx.forget_rx_channel(ChannelId::new(8)); // no-op, must not panic
    }
}
