//! Glue: the complete RT-layer stack running over the simulated switched
//! Ethernet.
//!
//! [`RtNetwork`] instantiates a fabric — from the single-switch star of
//! §18.1 up to arbitrary connected meshes (the paper's stated future work,
//! one step further) — and wires the control plane into it:
//!
//! * each end node gets an [`RtLayer`],
//! * the managing switch gets a [`ChannelManager`] — a
//!   [`FabricChannelManager`] (admission over every link of the route)
//!   partitioning deadlines by the paper's two-link rule on one switch or
//!   by a per-hop rule on any topology, or a [`DistributedChannelManager`] —
//! * a [`Router`] picks the path of every admitted channel; the network
//!   registers the route's forwarding entries and per-hop deadline budgets
//!   with the simulator at establishment time,
//! * every RT-layer action (RequestFrame, ResponseFrame, data frame,
//!   TeardownFrame) is carried as a real Ethernet frame through the
//!   [`rt_netsim::Simulator`], so channel establishment itself competes for
//!   the links — and crosses the trunks — exactly as in the paper.
//!
//! Networks are built through [`RtNetworkBuilder`] (see
//! [`RtNetwork::builder`]): topology, routing policy, deadline partitioning,
//! link parameters and admission limits all in one place, with the star as
//! the one-switch degenerate build.
//!
//! On top of that the type offers the conveniences the experiments need:
//! establishing channels and waiting for the handshake to complete, driving
//! periodic traffic on established channels, injecting best-effort cross
//! traffic, and validating measured end-to-end delays against the Eq. 18.1
//! bound `d_i + T_latency` (with `T_latency` hop-count-aware on multi-hop
//! paths).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use rt_frames::{EthernetFrame, Frame, Ipv4Header, RtDataFrame, UdpHeader};
use rt_netsim::{Delivery, SimConfig, Simulator, TrafficClass};
use rt_types::constants::{ETHERTYPE_IPV4, UDP_HEADER_BYTES};
use rt_types::{
    ChannelId, Duration, HopLink, IdIndex, Ipv4Address, MacAddr, ManagerPlacement, NodeId, Router,
    RtError, RtResult, ShortestPathRouter, SimTime, Slots, SwitchId, Topology,
};

use crate::channel::{Endpoint, RtChannelSpec};
use crate::distributed::DistributedChannelManager;
use crate::dps::{DpsFamily, DpsKind};
use crate::manager::{ChannelManager, FailoverReport, ReleasedChannel, SwitchAction};
use crate::multihop::{FabricChannelManager, MultiHopAdmission, MultiHopDps};
use crate::rtlayer::{
    DataTemplate, EstablishmentOutcome, ReceivedMessage, RtLayer, RtLayerConfig, TxChannel,
};

/// Builder for a simulated RT network — the single entry point for stars,
/// trees and meshes.
///
/// A star is just the one-switch degenerate build:
///
/// ```
/// use rt_core::{DpsKind, RtChannelSpec, RtNetwork};
/// use rt_types::NodeId;
///
/// let mut net = RtNetwork::builder()
///     .star(4)
///     .dps(DpsKind::Asymmetric)
///     .build()
///     .unwrap();
/// let tx = net
///     .establish_channel(NodeId::new(0), NodeId::new(1), RtChannelSpec::paper_default())
///     .unwrap()
///     .expect("the empty star accepts the first channel");
/// assert_eq!(net.manager().channel_count(), 1);
/// # let _ = tx;
/// ```
///
/// A tree fabric routes over unique paths (the default shortest-path
/// routing coincides with [`rt_types::RoutePolicy::Tree`] on trees):
///
/// ```
/// use rt_core::{MultiHopDps, RtChannelSpec, RtNetwork};
/// use rt_types::{NodeId, Topology};
///
/// let mut net = RtNetwork::builder()
///     .topology(Topology::line(3, 2)) // sw0 - sw1 - sw2, 2 nodes each
///     .multihop_dps(MultiHopDps::Asymmetric)
///     .build()
///     .unwrap();
/// let tx = net
///     .establish_channel(NodeId::new(0), NodeId::new(5), RtChannelSpec::paper_default())
///     .unwrap()
///     .expect("4-hop channel across both trunks");
/// assert_eq!(net.manager().channel_route(tx.id).unwrap().path.len(), 4);
/// ```
///
/// A ring is a *cyclic* mesh: shortest-path (or ECMP) routing picks the
/// short way around, and admission, deadline partitioning and the wire all
/// follow that route:
///
/// ```
/// use rt_core::{MultiHopDps, RtChannelSpec, RtNetwork};
/// use rt_types::{NodeId, ShortestPathRouter, Topology};
///
/// let mut net = RtNetwork::builder()
///     .topology(Topology::ring(4, 1)) // sw0 - sw1 - sw2 - sw3 - sw0
///     .router(ShortestPathRouter::new())
///     .multihop_dps(MultiHopDps::Symmetric)
///     .build()
///     .unwrap();
/// // node 0 (sw0) -> node 3 (sw3): one trunk hop via the closing edge.
/// let tx = net
///     .establish_channel(NodeId::new(0), NodeId::new(3), RtChannelSpec::paper_default())
///     .unwrap()
///     .expect("accepted");
/// assert_eq!(net.manager().channel_route(tx.id).unwrap().path.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct RtNetworkBuilder {
    sim: SimConfig,
    dps: Option<DpsFamily>,
    topology: Option<Topology>,
    router: Option<Arc<dyn Router>>,
    max_incoming_channels: Option<usize>,
    placement: ManagerPlacement,
}

impl RtNetworkBuilder {
    /// Start an empty builder (equivalent to [`RtNetwork::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the paper's single-switch star over nodes `0..n`: shorthand
    /// for [`RtNetworkBuilder::topology`] with [`Topology::star`].
    pub fn star(self, n: u32) -> Self {
        self.nodes((0..n).map(NodeId::new))
    }

    /// Build a single-switch star over an explicit node set: shorthand for
    /// [`RtNetworkBuilder::topology`] with [`Topology::star`].
    pub fn nodes(self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.topology(Topology::star(SwitchId::new(0), nodes))
    }

    /// Build over `topology`: one switch (the star) or many (tree or mesh).
    /// The topology's attachments define the end nodes.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The deadline-partitioning rule, one of the paper's two-link family:
    /// the *whole* deadline split in proportion to the two links' loads
    /// (Eq. 18.16).  Only a one-switch topology's routes have two links, so
    /// [`RtNetworkBuilder::build`] refuses it on more switches.  The rule
    /// set last, by this or [`RtNetworkBuilder::multihop_dps`], wins; with
    /// neither, a one-switch topology takes [`DpsKind::Asymmetric`] and any
    /// other [`MultiHopDps::Asymmetric`].
    ///
    /// There are two families because each measures better on its own
    /// workload: the per-hop `Asymmetric` rule put under the paper's
    /// 10-master/50-slave star accepts 100 of Figure 18.5's channels where
    /// this family's ADPS accepts 110, and Eq. 18.16 put under the fabric
    /// workloads costs up to 16 % of their accepted channels
    /// (ARCHITECTURE.md, the `rt-core` section, *Two DPS families*).
    pub fn dps(mut self, dps: DpsKind) -> Self {
        self.dps = Some(dps.into());
        self
    }

    /// The deadline-partitioning rule, one of the per-hop family: every
    /// link of the route gets `C_i` first and only the slack `d_i − k·C_i`
    /// is split, and the split goes on the wire as per-hop budgets.  Fits
    /// routes of any length.  The rule set last wins — see
    /// [`RtNetworkBuilder::dps`] for the default and why there are two
    /// families.
    pub fn multihop_dps(mut self, dps: MultiHopDps) -> Self {
        self.dps = Some(dps.into());
        self
    }

    /// The data-plane simulator configuration (link speed, propagation
    /// delay, switch latency, best-effort queue bound).
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// The path-selection policy.  Defaults to [`ShortestPathRouter::new`]
    /// (identical to the historical tree routing on trees and stars; picks
    /// shortest paths on meshes).  [`ShortestPathRouter::with_policy`] takes
    /// [`rt_types::RoutePolicy::Tree`] to *enforce* acyclic fabrics,
    /// [`rt_types::RoutePolicy::Ecmp`] to spread equal-cost channels over
    /// redundant trunks, or [`rt_types::RoutePolicy::KShortest`] to offer
    /// admission and fail-over detours.
    pub fn router(self, router: impl Router + 'static) -> Self {
        self.router_arc(Arc::new(router))
    }

    /// Like [`RtNetworkBuilder::router`], for an already-shared router.
    pub fn router_arc(mut self, router: Arc<dyn Router>) -> Self {
        self.router = Some(router);
        self
    }

    /// Per-node limit on incoming channels (`None` = unlimited).
    pub fn max_incoming_channels(mut self, limit: impl Into<Option<usize>>) -> Self {
        self.max_incoming_channels = limit.into();
        self
    }

    /// Run the control plane *distributed*: every switch hosts its own
    /// channel manager owning the slack ledgers of its local links, and
    /// multi-hop admission runs as a two-phase reservation in control
    /// frames that really traverse the fabric (see
    /// [`DistributedChannelManager`]).  Requires a per-hop rule
    /// ([`RtNetworkBuilder::multihop_dps`]); a two-link rule, the default
    /// on one switch, runs only centrally.
    pub fn distributed_control(self) -> Self {
        self.manager_placement(ManagerPlacement::Distributed)
    }

    /// Select the channel-management placement explicitly (central — the
    /// paper's model and the default — or distributed).
    pub fn manager_placement(mut self, placement: ManagerPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Build the network: validate the topology against the router and
    /// the DPS rule, build the simulator fabric, the channel manager and one
    /// RT layer per node.
    pub fn build(self) -> RtResult<RtNetwork> {
        let mut topology = self.topology.ok_or_else(|| {
            RtError::Config(
                "RtNetworkBuilder needs a fabric: call .star(n), .nodes(..) or .topology(..)"
                    .into(),
            )
        })?;
        let switches = topology.switch_count();
        let dps = match self.dps {
            None if switches == 1 => DpsKind::Asymmetric.into(),
            None => MultiHopDps::Asymmetric.into(),
            Some(DpsFamily::TwoLink(kind)) if switches > 1 => {
                return Err(RtError::Config(format!(
                    "the two-link rule {kind:?} splits a deadline over one switch's \
                     uplink and downlink; a topology of {switches} switches needs a \
                     .multihop_dps(..) rule"
                )));
            }
            Some(dps) => dps,
        };
        let router: Arc<dyn Router> = self
            .router
            .unwrap_or_else(|| Arc::new(ShortestPathRouter::new()));
        topology.set_manager_placement(self.placement);
        let manager: Box<dyn ChannelManager> = match (self.placement, dps) {
            (ManagerPlacement::Central, dps) => Box::new(FabricChannelManager::new(
                MultiHopAdmission::with_router(topology.clone(), dps, Arc::clone(&router)),
            )),
            (ManagerPlacement::Distributed, DpsFamily::PerHop(dps)) => Box::new(
                DistributedChannelManager::new(topology.clone(), dps, Arc::clone(&router)),
            ),
            (ManagerPlacement::Distributed, DpsFamily::TwoLink(_)) => {
                return Err(RtError::Config(
                    "distributed control needs a per-hop .multihop_dps(..) rule: the \
                     two-link rules, a one-switch topology's default, run centrally"
                        .into(),
                ));
            }
        };
        // Simulator::with_router runs the router's capability check (e.g.
        // the tree policy rejecting cyclic graphs) on this same topology.
        let sim = Simulator::with_router(self.sim, topology, Arc::clone(&router))?;
        // Eq. 18.1's constant term for the two-hop star path; a channel with
        // per-hop budgets gets its route's once the route is known.
        let layer_config = RtLayerConfig {
            link_speed: self.sim.link_speed,
            t_latency: self.sim.t_latency_for_hops(2),
            max_incoming_channels: self.max_incoming_channels,
        };
        let layers = Layers {
            index: IdIndex::new(sim.topology().nodes().map(NodeId::get)),
            layers: sim
                .topology()
                .nodes()
                .map(|n| RtLayer::new(n, layer_config))
                .collect(),
        };
        Ok(RtNetwork {
            sim,
            manager,
            router,
            layers,
            outcomes: BTreeMap::new(),
            received: Vec::new(),
            be_received: 0,
            deferred: Deferred::default(),
            #[cfg(test)]
            one_event_pump: false,
            #[cfg(test)]
            immediate_injection: false,
            #[cfg(test)]
            classify_every_delivery: false,
        })
    }
}

/// A delivered real-time message: what the receiving RT layer decoded of
/// it, when and where it arrived.  Its payload is not kept — the buffer is
/// parsed once by [`RtLayer::handle_data`] and freed — since `RtNetwork`
/// sends zeroed payloads only ([`RtNetwork::send_periodic`]): its length
/// is all it says.
#[derive(Debug, Clone)]
pub struct DeliveredMessage {
    /// The receiving node.
    pub receiver: NodeId,
    /// The channel it arrived on.
    pub channel: ChannelId,
    /// The length of the UDP payload.
    pub payload_len: usize,
    /// The absolute deadline the frame carried.
    pub absolute_deadline: SimTime,
    /// The restored original source (from the receiver's channel table).
    pub source: Endpoint,
    /// When the last bit arrived.
    pub delivered_at: SimTime,
    /// Whether the frame arrived after its stamped absolute deadline.
    pub missed_deadline: bool,
}

impl DeliveredMessage {
    /// The record of `message`, delivered to `receiver` at `delivered_at`
    /// against the deadline the simulator read at injection; the payload
    /// goes.
    fn new(
        receiver: NodeId,
        message: ReceivedMessage,
        delivered_at: SimTime,
        deadline: Option<SimTime>,
    ) -> Self {
        DeliveredMessage {
            receiver,
            channel: message.channel,
            payload_len: message.payload.len(),
            absolute_deadline: message.absolute_deadline,
            source: message.source,
            delivered_at,
            missed_deadline: deadline.is_some_and(|d| delivered_at > d),
        }
    }
}

/// How far past the next pending instant the pump files deferred frames:
/// the frames built ahead of the simulation are those of one such window.
const FILING_WINDOW: Duration = Duration::from_micros(200);

/// Traffic sent and not filed with the simulator yet.  Every frame got its
/// event key `(time, seq)` when it was sent
/// ([`Simulator::reserve_injections`]); the pump builds it and files it under
/// that key ([`Simulator::inject_reserved`]) just before the simulation may
/// reach its instant, so the events run exactly as if every frame had been
/// injected when it was sent.
#[derive(Debug, Default)]
struct Deferred {
    /// The periodic streams, by index; dropped together once nothing is due.
    streams: Vec<Stream>,
    /// The next message of every unfinished stream and every best-effort
    /// frame, the earliest key on top.
    due: BinaryHeap<Reverse<Due>>,
    /// Everything due at or before this instant is filed.
    filed_through: SimTime,
}

/// The `count` messages of one [`RtNetwork::send_periodic`] call.
#[derive(Debug)]
struct Stream {
    source: NodeId,
    template: DataTemplate,
    start: SimTime,
    period: Duration,
    count: u64,
    /// `C_i`: the frames of one message, filed under consecutive seqs.
    frames: u64,
}

/// One entry of [`Deferred::due`], by its key.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: SimTime,
    seq: u64,
    what: DueFrames,
}

// A best-effort frame waits in 32 B.
const _: () = assert!(std::mem::size_of::<Due>() == 32);

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum DueFrames {
    /// Message `message` of stream `stream`, its frames under `seq..seq + C`.
    Message { stream: u32, message: u64 },
    /// One [`RtNetwork::send_best_effort`] frame.
    BestEffort {
        source: NodeId,
        destination: NodeId,
        payload_len: u16,
    },
}

/// The UDP and IPv4 headers of a best-effort datagram, checked as building
/// its frame checks them: the lengths, then the Ethernet MTU.
fn best_effort_headers(
    source: NodeId,
    destination: NodeId,
    payload_len: usize,
) -> RtResult<(UdpHeader, Ipv4Header)> {
    let udp = UdpHeader::new(0x2000, 0x2001, payload_len)?;
    let ip = Ipv4Header::udp(
        Ipv4Address::for_node(source),
        Ipv4Address::for_node(destination),
        payload_len + UDP_HEADER_BYTES,
    )?;
    EthernetFrame::check_payload_len(usize::from(ip.total_length))?;
    Ok((udp, ip))
}

/// A best-effort UDP frame: headers and the zeroed payload in one buffer.
fn best_effort_frame(
    source: NodeId,
    destination: NodeId,
    payload_len: usize,
) -> RtResult<EthernetFrame> {
    let (udp, ip) = best_effort_headers(source, destination, payload_len)?;
    let mut bytes = Vec::with_capacity(usize::from(ip.total_length));
    ip.encode_into(&mut bytes);
    udp.encode_into(&mut bytes);
    bytes.resize(usize::from(ip.total_length), 0);
    EthernetFrame::new(
        MacAddr::for_node(destination),
        MacAddr::for_node(source),
        ETHERTYPE_IPV4,
        bytes,
    )
}

/// The RT layer of every attached node, in ascending node order, found
/// through the dense node index.
struct Layers {
    index: IdIndex,
    layers: Vec<RtLayer>,
}

impl Layers {
    fn get(&self, node: NodeId) -> Option<&RtLayer> {
        Some(&self.layers[self.index.get(node.get())? as usize])
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut RtLayer> {
        Some(&mut self.layers[self.index.get(node.get())? as usize])
    }
}

/// The full stack: simulator + switch manager + per-node RT layers.
pub struct RtNetwork {
    sim: Simulator,
    manager: Box<dyn ChannelManager>,
    router: Arc<dyn Router>,
    layers: Layers,
    outcomes: BTreeMap<(u32, u8), EstablishmentOutcome>,
    received: Vec<DeliveredMessage>,
    be_received: u64,
    deferred: Deferred,
    /// Pump with [`Simulator::step`], one event at a time: the oracle the
    /// tests hold the instant-draining pump against.
    #[cfg(test)]
    one_event_pump: bool,
    /// Build and inject every frame when it is sent, under fresh seqs: the
    /// oracle the tests hold the deferred filing against.
    #[cfg(test)]
    immediate_injection: bool,
    /// Dispatch every delivery through [`Frame::classify`]: the oracle the
    /// tests hold the dispatch by the simulator's classification against.
    #[cfg(test)]
    classify_every_delivery: bool,
}

impl std::fmt::Debug for RtNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtNetwork")
            .field("nodes", &self.layers.layers.len())
            .field("channels", &self.channel_count())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl RtNetwork {
    /// Start building a network: star, tree or mesh, all through the same
    /// [`RtNetworkBuilder`].
    pub fn builder() -> RtNetworkBuilder {
        RtNetworkBuilder::new()
    }

    /// The underlying simulator (read access for statistics).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The switch-side channel manager, whatever the build.  Infallible:
    /// every network has exactly one.
    pub fn manager(&self) -> &dyn ChannelManager {
        self.manager.as_ref()
    }

    /// The path-selection policy the network was built with.
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.router
    }

    /// Established channel count, in either mode.
    pub fn channel_count(&self) -> usize {
        self.manager.channel_count()
    }

    /// The RT layer of `node`.
    pub fn layer(&self, node: NodeId) -> Option<&RtLayer> {
        self.layers.get(node)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The end-to-end delay bound `d_i + T_latency` (Eq. 18.1) for a
    /// star-path channel with contract `spec`.
    pub fn deadline_bound(&self, spec: &RtChannelSpec) -> Duration {
        let config = self.sim.config();
        config.link_speed.slots_to_duration(spec.deadline) + config.t_latency_for_hops(2)
    }

    /// The hop-count-aware end-to-end delay bound of an *established*
    /// channel: `d_i·slot + T_latency(hops)` — the multi-hop analogue of
    /// Eq. 18.1.  `None` if the channel is unknown.
    pub fn channel_deadline_bound(&self, channel: ChannelId) -> Option<Duration> {
        let link_speed = self.sim.config().link_speed;
        self.manager.channel_route(channel).map(|route| {
            link_speed.slots_to_duration(route.spec.deadline)
                + self.sim.config().t_latency_for_hops(route.path.len())
        })
    }

    /// Real-time messages delivered to their destination so far.
    pub fn received_messages(&self) -> &[DeliveredMessage] {
        &self.received
    }

    /// Best-effort frames delivered to end nodes so far.
    pub fn best_effort_received(&self) -> u64 {
        self.be_received
    }

    // --- control plane -------------------------------------------------------

    /// Establish an RT channel by running the full handshake over the
    /// simulated network.  Returns the established channel, or `None` if the
    /// switch or the destination rejected it.
    ///
    /// On a fabric, a successful establishment also registers the channel's
    /// per-hop EDF deadline budgets with every port of its route and the
    /// hop-count-aware `T_latency` with the source's RT layer.
    pub fn establish_channel(
        &mut self,
        source: NodeId,
        destination: NodeId,
        spec: RtChannelSpec,
    ) -> RtResult<Option<TxChannel>> {
        let now = self.sim.now();
        let (request_id, eth) = self
            .layers
            .get_mut(source)
            .ok_or(RtError::UnknownNode(source))?
            .request_channel(destination, spec)?;
        self.sim.inject(source, eth, now)?;
        self.pump()?;
        // Under distributed control a handshake can stall instead of
        // completing — e.g. a fault mid-reservation strands a coordination
        // whose lease must expire before the requester hears `Rejected`.
        // Fire the manager's pending timeouts (lease sweeps) until the
        // outcome lands or no timeout remains.
        loop {
            if let Some(outcome) = self.outcomes.remove(&(source.get(), request_id.get())) {
                return match outcome {
                    EstablishmentOutcome::Established(tx) => {
                        self.finish_establishment(source, &tx);
                        Ok(Some(tx))
                    }
                    EstablishmentOutcome::Rejected { .. } => Ok(None),
                };
            }
            if !self.tick_manager()? {
                return Err(RtError::ProtocolViolation(format!(
                    "handshake for request {request_id} from {source} did not complete"
                )));
            }
        }
    }

    /// Advance simulated time to the manager's next timeout (a lease
    /// expiry), fire it, emit whatever it produced and pump the wire dry.
    /// Returns `false` when no timeout was pending.
    fn tick_manager(&mut self) -> RtResult<bool> {
        let Some(deadline) = self.manager.next_timeout() else {
            return Ok(false);
        };
        let at = deadline.max(self.sim.now());
        let outcome = self.manager.on_tick(at)?;
        for (origin, action) in outcome.emissions {
            self.emit(origin, action, at)?;
        }
        for released in outcome.released {
            self.process_released(released);
        }
        self.pump()?;
        Ok(true)
    }

    /// Drive the network to control-plane quiescence: pump the wire dry,
    /// then fire every pending manager timeout (lease sweeps) in order,
    /// pumping after each, until no timeout remains.  After `settle()` a
    /// distributed manager holds no leases, no half-open coordinations and
    /// no pending responders — [`ChannelManager::audit_quiescent`] is
    /// answerable.
    pub fn settle(&mut self) -> RtResult<SimTime> {
        self.pump()?;
        while self.tick_manager()? {}
        Ok(self.sim.now())
    }

    /// After a fabric handshake completes: push the per-hop deadline
    /// schedule and the route's forwarding entries into the simulator, and
    /// the per-channel `T_latency` into the source RT layer.  Star networks
    /// keep the paper's end-to-end EDF stamps, so nothing to do there.
    fn finish_establishment(&mut self, source: NodeId, tx: &TxChannel) {
        if !self.manager.schedules_hops() {
            return;
        }
        let Some(route) = self.manager.channel_route(tx.id) else {
            return;
        };
        debug_assert_eq!(route.source, source);
        self.install_channel_wire(&route);
    }

    /// Register a channel's wire state from its [`ChannelRoute`] view: the
    /// per-switch forwarding entries pinning the route, the per-hop EDF
    /// deadline budgets, and the hop-count-aware `T_latency` at the source
    /// RT layer.  Used at establishment *and* at fail-over re-admission (the
    /// new route simply replaces the old wire state under the same id).
    fn install_channel_wire(&mut self, route: &crate::manager::ChannelRoute) {
        let config = *self.sim.config();
        let link_speed = config.link_speed;
        let hops = route.path.len();
        // Cumulative per-hop budgets: by the end of link k the frame has
        // consumed the first k per-link deadlines plus the constant
        // overheads of k link traversals.
        let mut offsets: Vec<(HopLink, Duration)> = Vec::with_capacity(hops);
        let mut cumulative = Slots::ZERO;
        for (k, (link, deadline)) in route
            .path
            .iter()
            .zip(route.link_deadlines.iter())
            .enumerate()
        {
            cumulative += *deadline;
            let offset =
                link_speed.slots_to_duration(cumulative) + config.t_latency_for_hops(k + 1);
            offsets.push((*link, offset));
        }
        self.sim.set_channel_hop_schedule(route.id, offsets);
        if let Some(layer) = self.layers.get_mut(route.source) {
            layer.set_channel_t_latency(route.id, config.t_latency_for_hops(hops));
        }
    }

    /// Tear down an established channel (source side), releasing its
    /// capacity at the switch.
    pub fn teardown_channel(&mut self, source: NodeId, channel: ChannelId) -> RtResult<()> {
        let now = self.sim.now();
        let eth = self
            .layers
            .get_mut(source)
            .ok_or(RtError::UnknownNode(source))?
            .teardown_channel(channel)?;
        self.sim.inject(source, eth, now)?;
        self.pump()
    }

    // --- fault injection -----------------------------------------------------

    /// Cut a trunk at the current simulated time and fail over: the wire
    /// loses the link first (queued and in-flight frames on the dead edge
    /// are lost and counted), then the manager releases every admitted
    /// channel whose route crossed it and re-admits each over the surviving
    /// routes — keeping channel ids — and the new routes' forwarding entries
    /// and per-hop budgets replace the old wire state.  Channels that no
    /// surviving route can admit are dropped end to end: wire state torn
    /// down (their late frames drop, counted), source and destination RT
    /// layers forget them.  Channels off the failed trunk are untouched.
    pub fn fail_trunk(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.sim.fail_link(from, to)?;
        let report = self.manager.handle_link_failure(from, to)?;
        self.follow_fault(report)
    }

    /// Fail a whole switch at the current simulated time: every healthy
    /// trunk incident to it dies atomically on the wire (queued and
    /// in-flight frames lost and counted), then admission fails over every
    /// channel that crossed any of those trunks — re-routes keep their ids
    /// and get fresh wire state, unroutable channels are torn down end to
    /// end, exactly as in [`RtNetwork::fail_trunk`].  The switch keeps its
    /// access links: its local nodes can still talk to each other.
    pub fn fail_switch(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        self.sim.fail_switch(switch)?;
        let report = self.manager.handle_switch_failure(switch)?;
        self.follow_fault(report)
    }

    /// Splice a previously cut trunk back, on the wire and in admission
    /// control, then *re-optimise*: channels sitting on fail-over detours
    /// are re-admitted onto their restored primary routes (ids preserved)
    /// and their forwarding entries and per-hop budgets are refreshed on
    /// the wire.  Channels the primary route cannot admit stay on their
    /// detours — a repair never drops a channel, so the report's `dropped`
    /// is always empty.
    pub fn repair_trunk(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.sim.repair_link(from, to)?;
        let report = self.manager.handle_link_repair(from, to)?;
        self.follow_fault(report)
    }

    /// What the wire and the RT layers do after admission has handled a
    /// fault or a repair: the fault origins' link-state frames go out, the
    /// re-routed channels get their new wire state, and the dropped ones
    /// are released on the wire and forgotten at both ends.
    fn follow_fault(&mut self, report: FailoverReport) -> RtResult<FailoverReport> {
        self.flood_pending_control()?;
        for route in &report.rerouted {
            self.install_channel_wire(route);
        }
        for old in &report.dropped {
            self.sim.release_channel(old.id);
            if let Some(layer) = self.layers.get_mut(old.destination) {
                layer.forget_rx_channel(old.id);
            }
            if let Some(layer) = self.layers.get_mut(old.source) {
                layer.forget_tx_channel(old.id);
            }
        }
        Ok(report)
    }

    /// Inject the link-state frames a fault origin wants flooded — the seed
    /// hops of the topology-event flood — at the current simulated time.
    /// Deliberately does *not* pump: the caller decides when the fabric runs,
    /// so admission attempts can race the still-propagating flood (the
    /// convergence window the adversarial tests exercise).
    fn flood_pending_control(&mut self) -> RtResult<()> {
        let now = self.sim.now();
        for (origin, action) in self.manager.drain_control() {
            self.emit(origin, action, now)?;
        }
        Ok(())
    }

    // --- data plane ----------------------------------------------------------

    /// Schedule `count` periodic messages on an established channel,
    /// starting at `start` and spaced by the channel's period.  Each message
    /// is `C_i` frames of `payload_len` zeroed bytes, all stamped with the
    /// same absolute deadline (they belong to the same periodic message).
    ///
    /// Nothing is built here: the call checks what building the frames
    /// would check, counts them as sent ([`RtLayer::counters`]) and files
    /// their event keys; each message's frames are built from what the
    /// channel is now (addressing, stamp offset) just before the run
    /// reaches its release, and run exactly where frames injected now would
    /// run.  A channel torn down or failed over in between still sends
    /// them, and the fabric drops them at the first switch as it would have.
    /// The simulator sees a frame only once it is filed: its
    /// `injected_count()` and `events_pending()` do not count it before.
    ///
    /// A `count` whose frames or whose last release time and deadline do
    /// not fit the counters or the 48-bit stamp, or a payload whose
    /// datagram does not fit a frame, is an error that leaves the network
    /// untouched.
    pub fn send_periodic(
        &mut self,
        source: NodeId,
        channel: ChannelId,
        count: u64,
        payload_len: usize,
        start: SimTime,
    ) -> RtResult<()> {
        let layer = self
            .layers
            .get_mut(source)
            .ok_or(RtError::UnknownNode(source))?;
        let spec = layer
            .tx_channel(channel)
            .ok_or(RtError::UnknownChannel(channel))?
            .spec;
        let period = self.sim.config().link_speed.slots_to_duration(spec.period);
        let start = start.max(self.sim.now());
        let too_many = || {
            RtError::Simulation(format!(
                "{count} periodic messages of {} frames every {period} from {start} \
                 overflow the frame count or the simulated clock",
                spec.capacity.get()
            ))
        };
        let frames = count
            .checked_mul(spec.capacity.get())
            .ok_or_else(too_many)?;
        // The last message's release and the deadline stamped on it.
        let stamp = layer.absolute_deadline_for(channel, SimTime::ZERO);
        let stamp = stamp.ok_or(RtError::UnknownChannel(channel))? - SimTime::ZERO;
        let Some(last) = count.checked_sub(1) else {
            return Ok(());
        };
        period
            .as_nanos()
            .checked_mul(last)
            .and_then(|span| start.checked_add(Duration::from_nanos(span)))
            .and_then(|at| at.checked_add(stamp))
            .ok_or_else(too_many)?;
        let stream = u32::try_from(self.deferred.streams.len()).map_err(|_| too_many())?;
        let template = layer.prepare_stream(channel, payload_len, start, period, count)?;
        #[cfg(test)]
        if self.immediate_injection {
            let message = (start, period, spec.capacity.get());
            return tests::inject_stream_now(self, source, template, message, count);
        }
        let seq = self.sim.reserve_injections(frames)?;
        self.deferred.streams.push(Stream {
            source,
            template,
            start,
            period,
            count,
            frames: spec.capacity.get(),
        });
        let message = DueFrames::Message { stream, message: 0 };
        self.deferred.due.push(Reverse(Due {
            at: start,
            seq,
            what: message,
        }));
        Ok(())
    }

    /// Send a single best-effort (non-RT) UDP frame of `payload_len` zeroed
    /// bytes from `source` to `destination` at time `at` (now, if `at` has
    /// passed).  Like [`RtNetwork::send_periodic`], the call checks the
    /// frame and files its event key; the frame is built just before its
    /// instant.
    pub fn send_best_effort(
        &mut self,
        source: NodeId,
        destination: NodeId,
        payload_len: usize,
        at: SimTime,
    ) -> RtResult<()> {
        best_effort_headers(source, destination, payload_len)?;
        if self.layers.get(source).is_none() {
            return Err(RtError::UnknownNode(source));
        }
        let at = at.max(self.sim.now());
        #[cfg(test)]
        if self.immediate_injection {
            let eth = best_effort_frame(source, destination, payload_len)?;
            return self.sim.inject(source, eth, at).map(drop);
        }
        let seq = self.sim.reserve_injections(1)?;
        let what = DueFrames::BestEffort {
            source,
            destination,
            // At most the MTU: the headers' check passed.
            payload_len: payload_len as u16,
        };
        self.deferred.due.push(Reverse(Due { at, seq, what }));
        Ok(())
    }

    /// Build and file every deferred frame due at or before `horizon`,
    /// under the key it was given when sent.
    fn file_through(&mut self, horizon: SimTime) -> RtResult<()> {
        loop {
            let Some(top) = self.deferred.due.peek_mut() else {
                break;
            };
            if top.0.at > horizon {
                return Ok(());
            }
            let Reverse(Due { at, seq, what }) = PeekMut::pop(top);
            match what {
                DueFrames::Message { stream, message } => {
                    let s = &self.deferred.streams[stream as usize];
                    let (source, frames) = (s.source, s.frames);
                    let eth = s.template.frame(at)?;
                    if message + 1 < s.count {
                        let next = Due {
                            at: s.start + s.period.saturating_mul(message + 1),
                            seq: seq + frames,
                            what: DueFrames::Message {
                                stream,
                                message: message + 1,
                            },
                        };
                        self.deferred.due.push(Reverse(next));
                    }
                    for k in 1..frames {
                        self.sim
                            .inject_reserved(source, eth.clone(), at, seq + k - 1)?;
                    }
                    self.sim
                        .inject_reserved(source, eth, at, seq + frames - 1)?;
                }
                DueFrames::BestEffort {
                    source,
                    destination,
                    payload_len,
                } => {
                    let eth = best_effort_frame(source, destination, usize::from(payload_len))?;
                    self.sim.inject_reserved(source, eth, at, seq)?;
                }
            }
        }
        self.deferred.streams.clear();
        Ok(())
    }

    // --- execution -----------------------------------------------------------

    /// Run the simulation until no events remain, dispatching every
    /// delivered frame to the switch manager or the receiving RT layer (and
    /// injecting whatever frames they produce in response).
    pub fn run_to_completion(&mut self) -> RtResult<SimTime> {
        self.pump()?;
        Ok(self.sim.now())
    }

    /// Run and dispatch up to `limit` (inclusive); events after `limit`
    /// stay pending.  This is how a mid-run fault is scripted at the
    /// network level: run to the cut instant, call
    /// [`RtNetwork::fail_trunk`], then keep running.  Like
    /// [`RtNetwork::run_to_completion`], every delivery is dispatched at
    /// its simulated time, so a teardown inside the window takes effect on
    /// the traffic behind it.
    pub fn run_until(&mut self, limit: SimTime) -> RtResult<SimTime> {
        self.pump_until(limit)?;
        Ok(self.sim.now())
    }

    /// Run-and-dispatch until the event queue drains, reacting to every
    /// delivery at its simulated time (not after the queue empties): the
    /// switch software processes a control frame — and e.g. releases a
    /// channel's wire state — while later traffic is still in flight,
    /// exactly as a real switch would.
    fn pump(&mut self) -> RtResult<()> {
        self.pump_until(SimTime::MAX)
    }

    /// The pump loop: run the simulator to its next deliveries at or before
    /// `limit` ([`Simulator::run_until_delivery_before`]: whole instants,
    /// stopping right after a delivery that must be answered) and dispatch
    /// them in order, until nothing is left at or before `limit`.  One
    /// buffer takes the deliveries of every poll.
    ///
    /// While deferred traffic is due, the simulator runs no further than
    /// the window the pump has filed it through; when nothing is left in
    /// the window, the window moves to [`FILING_WINDOW`] past the next
    /// instant, deferred or pending, and its frames are filed first.
    fn pump_until(&mut self, limit: SimTime) -> RtResult<()> {
        let mut deliveries = Vec::new();
        loop {
            let horizon = if self.deferred.due.is_empty() {
                limit
            } else {
                limit.min(self.deferred.filed_through)
            };
            // Frames sent since the last filing may be due in the window.
            self.file_through(horizon)?;
            if self.advance(horizon) {
                self.sim.poll_deliveries_into(&mut deliveries);
                for delivery in deliveries.drain(..) {
                    self.dispatch(delivery)?;
                }
                continue;
            }
            if horizon >= limit {
                return Ok(());
            }
            let deferred = self.deferred.due.peek().map(|Reverse(due)| due.at);
            let next = match (self.sim.next_event_time(), deferred) {
                (Some(pending), Some(deferred)) => pending.min(deferred),
                (pending, deferred) => match pending.or(deferred) {
                    Some(next) => next,
                    None => return Ok(()),
                },
            };
            if next > limit {
                return Ok(());
            }
            self.deferred.filed_through = next.checked_add(FILING_WINDOW).unwrap_or(SimTime::MAX);
        }
    }

    /// One pump step; the one-event oracle in test builds that ask for it.
    #[inline]
    fn advance(&mut self, limit: SimTime) -> bool {
        #[cfg(test)]
        if self.one_event_pump {
            let due = self.sim.next_event_time().is_some_and(|t| t <= limit);
            return due && self.sim.step();
        }
        self.sim.run_until_delivery_before(limit)
    }

    /// Tear a released channel down on the wire and at the endpoints: its
    /// forwarding entries and per-hop budgets are forgotten AND its late
    /// frames are dropped at the first switch (counted in the statistics),
    /// never delivered on the stale route; the destination RT layer forgets
    /// it too.
    fn process_released(&mut self, released: ReleasedChannel) {
        self.sim.release_channel(released.id);
        if let Some(layer) = self.layers.get_mut(released.destination) {
            layer.forget_rx_channel(released.id);
        }
    }

    /// Hand a delivery to its receiver.  The simulator classified the
    /// frame's bytes at injection ([`Frame::peek`], the accept set of
    /// [`Frame::classify`]) and the bytes have not changed since, so a
    /// delivery to a node is read by its `class` and `channel`: RT data is
    /// parsed once, straight into its datagram, and best effort is counted
    /// undecoded.  Control frames, to a node or to a switch, are classified.
    fn dispatch(&mut self, delivery: Delivery) -> RtResult<()> {
        #[cfg(test)]
        if self.classify_every_delivery {
            return tests::dispatch_by_classify(self, delivery);
        }
        let Delivery {
            receiver,
            switch,
            source,
            eth,
            delivered_at,
            deadline,
            channel,
            class,
            ..
        } = delivery;
        let now = self.sim.now();
        if receiver == NodeId::SWITCH {
            // Control-plane traffic: the delivery names the switch whose
            // control plane received the frame (the managing switch under
            // central placement, any switch under distributed placement).
            let frame = Frame::classify(eth)?;
            let at = switch.unwrap_or(self.sim.manager_switch());
            let outcome = self.manager.handle_frame_at(at, source, &frame, now)?;
            for (origin, action) in outcome.emissions {
                self.emit(origin, action, now)?;
            }
            for released in outcome.released {
                self.process_released(released);
            }
            return Ok(());
        }

        // Traffic delivered to an end node.
        let Some(layer) = self.layers.get_mut(receiver) else {
            return Err(RtError::UnknownNode(receiver));
        };
        match (class, channel) {
            (TrafficClass::RealTime, Some(_)) => {
                // Taken apart by value: the frame's buffer becomes the
                // received message's payload.
                match layer.handle_data(RtDataFrame::from_ethernet(eth)?) {
                    Ok(message) => self.received.push(DeliveredMessage::new(
                        receiver,
                        message,
                        delivered_at,
                        deadline,
                    )),
                    // A frame of a channel released while it was already
                    // past its last switch (on the downlink when the
                    // teardown / fail-over drop landed): the receiver has
                    // forgotten the channel, so the late frame is ignored —
                    // a mid-run release must never abort the whole run.
                    Err(RtError::UnknownChannel(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            (TrafficClass::BestEffort, _) => self.be_received += 1,
            (TrafficClass::RealTime, None) => match Frame::classify(eth)? {
                Frame::Request(req) => {
                    // The switch forwarded a request: this node is the
                    // destination and must answer.
                    let (eth, _accepted) = layer.handle_forwarded_request(&req)?;
                    self.sim.inject(receiver, eth, now)?;
                }
                Frame::Response(resp) => {
                    let outcome = layer.handle_response(&resp)?;
                    self.outcomes
                        .insert((receiver.get(), resp.connection_request_id.get()), outcome);
                }
                // Nodes do not receive teardown or reservation frames in
                // this protocol; data and best effort were read above.
                _ => {}
            },
        }
        Ok(())
    }

    fn emit(&mut self, origin: SwitchId, action: SwitchAction, now: SimTime) -> RtResult<()> {
        match action {
            SwitchAction::ForwardRequest { to, frame } => {
                let eth = frame.into_ethernet(MacAddr::for_switch(), MacAddr::for_node(to))?;
                self.sim.inject_at_switch(origin, eth, now)?;
            }
            SwitchAction::SendResponse { to, frame } => {
                let eth = frame.into_ethernet(MacAddr::for_switch(), MacAddr::for_node(to))?;
                self.sim.inject_at_switch(origin, eth, now)?;
            }
            SwitchAction::SendControl { to, frame } => {
                let eth = frame
                    .into_ethernet(MacAddr::for_switch_id(origin), MacAddr::for_switch_id(to))?;
                self.sim.inject_at_switch(origin, eth, now)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::RoutePolicy;

    /// The dispatch that classified every delivery with [`Frame::classify`],
    /// whatever the simulator had found at injection: the oracle of
    /// `prop_dispatch_matches_the_classify_everything_oracle`.
    pub(super) fn dispatch_by_classify(net: &mut RtNetwork, delivery: Delivery) -> RtResult<()> {
        let now = net.sim.now();
        // Taken apart by value: the frame's buffer travels on into the
        // decoded frame (and, for RT data, into the received message).
        let Delivery {
            receiver,
            switch,
            source,
            eth,
            delivered_at,
            deadline,
            ..
        } = delivery;
        let frame = Frame::classify(eth)?;
        if receiver == NodeId::SWITCH {
            // Control-plane traffic: the delivery names the switch whose
            // control plane received the frame (the managing switch under
            // central placement, any switch under distributed placement).
            let at = switch.unwrap_or(net.sim.manager_switch());
            let outcome = net.manager.handle_frame_at(at, source, &frame, now)?;
            for (origin, action) in outcome.emissions {
                net.emit(origin, action, now)?;
            }
            for released in outcome.released {
                net.process_released(released);
            }
            return Ok(());
        }

        // Traffic delivered to an end node.
        let node_key = receiver.get();
        let Some(layer) = net.layers.get_mut(receiver) else {
            return Err(RtError::UnknownNode(receiver));
        };
        match frame {
            Frame::Request(req) => {
                // The switch forwarded a request: this node is the
                // destination and must answer.
                let (eth, _accepted) = layer.handle_forwarded_request(&req)?;
                net.sim.inject(receiver, eth, now)?;
            }
            Frame::Response(resp) => {
                let outcome = layer.handle_response(&resp)?;
                net.outcomes
                    .insert((node_key, resp.connection_request_id.get()), outcome);
            }
            Frame::RtData(data) => {
                match layer.handle_data(data) {
                    Ok(message) => net.received.push(DeliveredMessage::new(
                        receiver,
                        message,
                        delivered_at,
                        deadline,
                    )),
                    // A frame of a channel released while it was already
                    // past its last switch (on the downlink when the
                    // teardown / fail-over drop landed): the receiver has
                    // forgotten the channel, so the late frame is ignored —
                    // a mid-run release must never abort the whole run.
                    Err(RtError::UnknownChannel(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            Frame::Teardown(_) | Frame::Reservation(_) => {
                // Nodes do not receive teardown or reservation frames in
                // this protocol.
            }
            Frame::BestEffort(_) => {
                net.be_received += 1;
            }
        }
        Ok(())
    }

    /// The sending of the `immediate_injection` oracle: every frame of the
    /// stream built now and injected in one batch under fresh seqs, as
    /// `send_periodic` did before it deferred them.
    pub(super) fn inject_stream_now(
        net: &mut RtNetwork,
        node: NodeId,
        template: DataTemplate,
        (start, period, frames): (SimTime, Duration, u64),
        count: u64,
    ) -> RtResult<()> {
        let mut batch = Vec::new();
        for k in 0..count {
            let at = start + period.saturating_mul(k);
            let eth = template.frame(at)?;
            batch.extend(
                std::iter::repeat_n(eth, frames as usize).map(|eth| rt_netsim::FrameInjection {
                    node,
                    eth,
                    at,
                }),
            );
        }
        net.sim.inject_batch(batch).map(drop)
    }

    /// What the pump differentials compare of a finished run.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        received: String,
        best_effort: u64,
        stats: String,
        now: SimTime,
        events: u64,
    }

    /// Which of the pump's test oracles a scripted run uses.
    #[derive(Debug, Clone, Copy)]
    enum Oracle {
        /// None: the pump, the dispatch and the filing the network runs.
        None,
        /// `one_event_pump`.
        OneEvent,
        /// `classify_every_delivery`.
        ClassifyEvery,
        /// `immediate_injection`.
        Immediate,
    }

    /// One scripted run on a ring of four switches with two nodes each:
    /// channels established, periodic RT traffic plus best effort, a trunk
    /// cut mid-run (its link-state flood racing the traffic under
    /// distributed control), a teardown mid-run (its frame racing the
    /// traffic to the end of the run), RT data frames injected raw for a
    /// channel their receivers never learned, then an establishment while
    /// best effort is in flight.  One node releases an RT message and a
    /// best-effort frame at the same instant, and more traffic is sent
    /// after the cut and after the teardown, into a run already under way.
    /// `oracle` picks the pump, the dispatch or the filing it runs on.
    fn scripted_run(oracle: Oracle, distributed: bool, seed: u64) -> Outcome {
        let mut builder = RtNetwork::builder()
            .topology(Topology::ring(4, 2))
            .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
            .multihop_dps(MultiHopDps::Symmetric);
        if distributed {
            builder = builder.distributed_control();
        }
        let mut net = builder.build().unwrap();
        net.one_event_pump = matches!(oracle, Oracle::OneEvent);
        net.classify_every_delivery = matches!(oracle, Oracle::ClassifyEvery);
        net.immediate_injection = matches!(oracle, Oracle::Immediate);
        let mut rng = rt_types::rng::Xoshiro256::new(0x9a3b ^ seed);
        let spec = RtChannelSpec::paper_default();
        let mut channels = Vec::new();
        for (source, destination) in [(0, 5), (2, 7), (4, 1), (6, 3), (1, 4)] {
            let (source, destination) = (NodeId::new(source), NodeId::new(destination));
            if let Some(tx) = net.establish_channel(source, destination, spec).unwrap() {
                channels.push((source, tx.id));
            }
        }
        assert!(channels.len() >= 3, "{} channels admitted", channels.len());
        let start = net.now() + Duration::from_micros(100);
        let best_effort = |net: &mut RtNetwork, rng: &mut rt_types::rng::Xoshiro256, from| {
            for _ in 0..40 {
                let (source, destination) = (rng.below(8) as u32, rng.below(8) as u32);
                let at = from + Duration::from_micros(rng.below(3_000));
                let payload = 64 + rng.below(900) as usize;
                if source != destination {
                    net.send_best_effort(
                        NodeId::new(source),
                        NodeId::new(destination),
                        payload,
                        at,
                    )
                    .unwrap();
                }
            }
        };
        for (k, &(source, id)) in channels.iter().enumerate() {
            let at = start + Duration::from_nanos(rng.below(5_000));
            net.send_periodic(source, id, 12, 100 + 200 * k, at)
                .unwrap();
            if k == 0 {
                // An RT and a best-effort release at one instant, one node.
                let other = NodeId::new((source.get() + 1) % 8);
                net.send_best_effort(source, other, 300, at).unwrap();
            }
        }
        best_effort(&mut net, &mut rng, start);
        net.run_until(start + Duration::from_micros(300 + rng.below(1_000)))
            .unwrap();
        let report = net.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert!(!report.rerouted.is_empty(), "the cut moves a channel");
        let survivors: Vec<(NodeId, ChannelId)> = channels
            .iter()
            .copied()
            .filter(|(_, id)| report.dropped.iter().all(|old| old.id != *id))
            .collect();
        let (source, id) = *survivors.first().expect("a channel survives the cut");
        // Sent into the run: its first release may lie inside the window
        // already filed.
        let at = net.now() + Duration::from_nanos(rng.below(300_000));
        net.send_periodic(source, id, 4, 500, at).unwrap();
        net.run_until(start + Duration::from_micros(1_500 + rng.below(1_000)))
            .unwrap();
        net.teardown_channel(source, id).unwrap();
        let now = net.now();
        if let Some(&(source, id)) = survivors.get(1) {
            net.send_periodic(source, id, 3, 700, now).unwrap();
        }
        best_effort(&mut net, &mut rng, now);
        for k in 0..6u64 {
            let (source, destination) = (k as u32, 7 - k as u32);
            let at = now + Duration::from_micros(rng.below(2_000));
            let stray = RtDataFrame {
                eth_src: MacAddr::for_node(NodeId::new(source)),
                eth_dst: MacAddr::for_node(NodeId::new(destination)),
                stamp: rt_frames::rt_data::DeadlineStamp::new(
                    (at + Duration::from_millis(5)).as_nanos(),
                    ChannelId::new(0),
                )
                .unwrap(),
                src_port: 1,
                dst_port: 2,
                payload: vec![k as u8; 64 + 100 * k as usize],
            };
            net.sim
                .inject(NodeId::new(source), stray.into_ethernet().unwrap(), at)
                .unwrap();
        }
        net.establish_channel(NodeId::new(3), NodeId::new(6), spec)
            .unwrap();
        net.settle().unwrap();
        assert!(net.best_effort_received() > 0 && !net.received_messages().is_empty());
        // Channel 0 is never handed out: no receiver knows the strays'.
        let strays = net.simulator().stats().channel(ChannelId::new(0));
        assert_eq!(strays.map(|c| c.delivered), Some(6), "the strays arrive");
        assert!(net
            .received_messages()
            .iter()
            .all(|m| m.channel != ChannelId::new(0)));
        Outcome {
            received: format!("{:?}", net.received_messages()),
            best_effort: net.best_effort_received(),
            stats: format!("{:?}", net.simulator().stats()),
            now: net.now(),
            events: net.simulator().events_processed(),
        }
    }

    /// The instant-draining pump against the one-event oracle
    /// (`pump_until` over [`Simulator::step`]), central and distributed
    /// control: the same received messages in the same order, the same best
    /// effort count, statistics, clock and event count.  Seeds from
    /// `RT_ADVERSARIAL_SEEDS`, else 2.
    #[test]
    fn prop_pump_matches_the_one_event_oracle() {
        let seeds = std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        for seed in 0..seeds {
            for distributed in [false, true] {
                let oracle = scripted_run(Oracle::OneEvent, distributed, seed);
                let pump = scripted_run(Oracle::None, distributed, seed);
                let context = format!("seed {seed}, distributed {distributed}");
                assert_eq!(pump.received, oracle.received, "{context}: received");
                assert_eq!(pump.best_effort, oracle.best_effort, "{context}");
                assert_eq!(pump.stats, oracle.stats, "{context}: statistics");
                assert_eq!(pump.now, oracle.now, "{context}: clock");
                assert_eq!(pump.events, oracle.events, "{context}: events");
            }
        }
    }

    /// The dispatch by the simulator's classification (RT data parsed once
    /// into its datagram, best effort counted undecoded) against the oracle
    /// that classifies every delivery, central and distributed control:
    /// the same received messages in the same order, the same best effort
    /// count, statistics, clock and event count.  The script's stray RT frames, of a channel their receiver
    /// never learned, are ignored by both.  Seeds from
    /// `RT_ADVERSARIAL_SEEDS`, else 2.
    #[test]
    fn prop_dispatch_matches_the_classify_everything_oracle() {
        let seeds = std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        for seed in 0..seeds {
            for distributed in [false, true] {
                let oracle = scripted_run(Oracle::ClassifyEvery, distributed, seed);
                let dispatch = scripted_run(Oracle::None, distributed, seed);
                assert_eq!(dispatch, oracle, "seed {seed}, distributed {distributed}");
            }
        }
    }

    /// Frames filed by the pump just before their instants, under the keys
    /// reserved when they were sent, against the oracle that builds and
    /// injects every frame when it is sent (fresh seqs, one batch per
    /// stream), central and distributed control: the same received
    /// messages in the same order, the same best effort count, statistics
    /// (`SimStats` whole, its summary with it), clock and event count.  The
    /// script cuts a trunk and tears a channel down mid-run, races an
    /// establishment against traffic, sends into a run under way and
    /// releases RT and best effort at one instant on one node.  Seeds from
    /// `RT_ADVERSARIAL_SEEDS`, else 2.
    #[test]
    fn prop_deferred_filing_matches_immediate_injection() {
        let seeds = std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        for seed in 0..seeds {
            for distributed in [false, true] {
                let oracle = scripted_run(Oracle::Immediate, distributed, seed);
                let deferred = scripted_run(Oracle::None, distributed, seed);
                assert_eq!(deferred, oracle, "seed {seed}, distributed {distributed}");
            }
        }
    }

    /// A send files keys, not frames: nothing is injected or pending until
    /// the run, a refused send reserves nothing, and the run injects and
    /// delivers every frame.
    #[test]
    fn a_send_files_nothing_with_the_simulator_until_the_run() {
        let mut net = fabric(MultiHopDps::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let (src, dst) = (NodeId::new(0), NodeId::new(5));
        let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
        let (injected, pending) = (net.sim.injected_count(), net.sim.events_pending());
        let at = net.now() + Duration::from_millis(1);
        net.send_periodic(src, tx.id, 50, 1000, at).unwrap();
        net.send_best_effort(src, dst, 1200, at).unwrap();
        assert!(
            net.send_best_effort(src, dst, 1473, at).is_err(),
            "over the MTU"
        );
        assert!(
            net.send_periodic(src, tx.id, 1, 1473, at).is_err(),
            "over the MTU"
        );
        assert_eq!(net.sim.injected_count(), injected);
        assert_eq!(net.sim.events_pending(), pending);
        assert_eq!(
            net.deferred.due.len(),
            2,
            "one stream, one best-effort frame"
        );
        net.run_to_completion().unwrap();
        assert_eq!(net.sim.injected_count(), injected + 50 * 3 + 1);
        assert_eq!(net.received_messages().len(), 50 * 3);
        assert_eq!(net.best_effort_received(), 1);
        assert!(net.deferred.due.is_empty() && net.deferred.streams.is_empty());
    }

    fn network(nodes: u32, dps: DpsKind) -> RtNetwork {
        RtNetwork::builder()
            .star(nodes)
            .dps(dps)
            .build()
            .expect("a star always builds")
    }

    #[test]
    fn establish_channel_over_the_wire() {
        let mut net = network(4, DpsKind::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .expect("channel should be accepted");
        assert_eq!(tx.destination.node, NodeId::new(1));
        assert_eq!(net.manager().channel_count(), 1);
        assert_eq!(net.channel_count(), 1);
        // The destination registered the incoming channel.
        assert_eq!(net.layer(NodeId::new(1)).unwrap().rx_channels().count(), 1);
        // The handshake itself took simulated time.
        assert!(net.now() > SimTime::ZERO);
    }

    #[test]
    fn rejected_channel_reports_none() {
        let mut net = network(10, DpsKind::Symmetric);
        let spec = RtChannelSpec::paper_default();
        let mut accepted = 0;
        for dst in 1..=8u32 {
            if net
                .establish_channel(NodeId::new(0), NodeId::new(dst), spec)
                .unwrap()
                .is_some()
            {
                accepted += 1;
            }
        }
        // SDPS caps one uplink at 6 channels with the paper parameters.
        assert_eq!(accepted, 6);
        assert_eq!(net.manager().channel_count(), 6);
    }

    #[test]
    fn periodic_traffic_meets_the_delay_bound() {
        let mut net = network(3, DpsKind::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap();
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(0), tx.id, 20, 1000, start)
            .unwrap();
        net.run_to_completion().unwrap();
        let received = net.received_messages();
        assert_eq!(received.len(), 20 * 3, "C=3 frames per message");
        assert!(received.iter().all(|m| !m.missed_deadline));
        assert!(net.simulator().stats().all_deadlines_met());
        // Every latency respects d + T_latency.
        let bound = net.deadline_bound(&spec);
        assert_eq!(net.channel_deadline_bound(tx.id), Some(bound));
        let worst = net
            .simulator()
            .stats()
            .worst_case_latency()
            .expect("frames were delivered");
        assert!(worst <= bound, "worst {worst} exceeds bound {bound}");
    }

    /// Frames built by `prepare_data` and injected raw arrive as messages
    /// of the lengths they were given — headers cut off, nothing of a short
    /// frame's padding counted — on the channel they were sent on.
    #[test]
    fn payload_lengths_survive_the_pump() {
        let mut net = fabric(MultiHopDps::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let (src, dst) = (NodeId::new(0), NodeId::new(5));
        let tx = net.establish_channel(src, dst, spec).unwrap().unwrap();
        // A short frame (padded on the wire), an odd length, a full one.
        let payloads: Vec<Vec<u8>> = [1usize, 17, 333, 1400]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8 | 1).collect())
            .collect();
        let mut at = net.now() + Duration::from_millis(1);
        for payload in &payloads {
            let layer = net.layers.get_mut(src).unwrap();
            let eth = layer.prepare_data(tx.id, payload.clone(), at).unwrap();
            net.sim.inject(src, eth, at).unwrap();
            at += Duration::from_millis(1);
        }
        net.run_to_completion().unwrap();
        let received: Vec<usize> = net
            .received_messages()
            .iter()
            .map(|m| m.payload_len)
            .collect();
        assert_eq!(received, payloads.iter().map(Vec::len).collect::<Vec<_>>());
        assert!(net
            .received_messages()
            .iter()
            .all(|m| { m.receiver == dst && m.channel == tx.id && !m.missed_deadline }));
    }

    #[test]
    fn teardown_over_the_wire_releases_capacity() {
        let mut net = network(3, DpsKind::Symmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap();
        assert_eq!(net.manager().channel_count(), 1);
        net.teardown_channel(NodeId::new(0), tx.id).unwrap();
        assert_eq!(net.manager().channel_count(), 0);
        assert_eq!(net.layer(NodeId::new(1)).unwrap().rx_channels().count(), 0);
    }

    #[test]
    fn best_effort_coexists_without_breaking_rt_deadlines() {
        let mut net = network(3, DpsKind::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap();
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(0), tx.id, 10, 1200, start)
            .unwrap();
        // Flood best-effort traffic from the same source to the same
        // destination: it shares both links with the RT channel.
        for k in 0..200u64 {
            net.send_best_effort(
                NodeId::new(0),
                NodeId::new(1),
                1400,
                start + Duration::from_micros(30 * k),
            )
            .unwrap();
        }
        net.run_to_completion().unwrap();
        assert!(net.simulator().stats().all_deadlines_met());
        assert!(net.best_effort_received() > 0);
        assert_eq!(net.received_messages().len(), 30);
    }

    #[test]
    fn unknown_nodes_are_errors() {
        let mut net = network(2, DpsKind::Symmetric);
        let spec = RtChannelSpec::paper_default();
        assert!(net
            .establish_channel(NodeId::new(9), NodeId::new(0), spec)
            .is_err());
        assert!(net
            .send_periodic(NodeId::new(9), ChannelId::new(1), 1, 10, SimTime::ZERO)
            .is_err());
        assert!(net
            .send_periodic(NodeId::new(0), ChannelId::new(99), 1, 10, SimTime::ZERO)
            .is_err());
    }

    // --- multi-switch fabric ----------------------------------------------

    /// A 3-switch line with 2 nodes per switch (nodes 0..6, switch-major).
    fn fabric(dps: MultiHopDps) -> RtNetwork {
        RtNetwork::builder()
            .topology(Topology::line(3, 2))
            .multihop_dps(dps)
            .build()
            .expect("a line fabric always builds")
    }

    #[test]
    fn fabric_establishes_channels_across_trunks_on_the_wire() {
        let mut net = fabric(MultiHopDps::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        // node 0 (sw0) -> node 5 (sw2): 4 link hops.
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(5), spec)
            .unwrap()
            .expect("an empty fabric accepts the first channel");
        assert_eq!(net.channel_count(), 1);
        let channel = net.manager().channel_route(tx.id).unwrap();
        assert_eq!(channel.path.len(), 4);
        // The handshake itself crossed the trunks.
        assert!(net
            .simulator()
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            })
            .is_some());
        // The destination registered the incoming channel.
        assert_eq!(net.layer(NodeId::new(5)).unwrap().rx_channels().count(), 1);
        // The bound is hop-count aware: larger than the star bound.
        let bound = net.channel_deadline_bound(tx.id).unwrap();
        assert!(bound > net.deadline_bound(&spec));
    }

    #[test]
    fn fabric_periodic_traffic_meets_the_multihop_bound() {
        let mut net = fabric(MultiHopDps::Asymmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(5), spec)
            .unwrap()
            .unwrap();
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(0), tx.id, 25, 1000, start)
            .unwrap();
        net.run_to_completion().unwrap();
        assert_eq!(net.received_messages().len(), 25 * 3);
        assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
        assert!(net.simulator().stats().all_deadlines_met());
        let bound = net.channel_deadline_bound(tx.id).unwrap();
        let worst = net
            .simulator()
            .stats()
            .channel(tx.id)
            .expect("frames delivered")
            .max_latency;
        assert!(
            worst <= bound,
            "worst {worst} exceeds multi-hop bound {bound}"
        );
    }

    #[test]
    fn fabric_same_switch_channel_behaves_like_a_star_channel() {
        let mut net = fabric(MultiHopDps::Symmetric);
        let spec = RtChannelSpec::paper_default();
        // node 2 and node 3 both live on switch 1.
        let tx = net
            .establish_channel(NodeId::new(2), NodeId::new(3), spec)
            .unwrap()
            .unwrap();
        let channel = net.manager().channel_route(tx.id).unwrap();
        assert_eq!(channel.path.len(), 2);
        assert_eq!(channel.link_deadlines, vec![Slots::new(20), Slots::new(20)]);
        assert_eq!(
            net.channel_deadline_bound(tx.id),
            Some(net.deadline_bound(&spec))
        );
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(2), tx.id, 10, 900, start)
            .unwrap();
        net.run_to_completion().unwrap();
        assert!(net.simulator().stats().all_deadlines_met());
    }

    #[test]
    fn fabric_teardown_releases_every_hop_over_the_wire() {
        let mut net = fabric(MultiHopDps::Symmetric);
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(5), spec)
            .unwrap()
            .unwrap();
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        assert_eq!(net.manager().link_load(trunk), 1);
        net.teardown_channel(NodeId::new(0), tx.id).unwrap();
        assert_eq!(net.channel_count(), 0);
        assert_eq!(net.manager().link_load(trunk), 0);
        assert_eq!(net.layer(NodeId::new(5)).unwrap().rx_channels().count(), 0);
    }

    #[test]
    fn fabric_rejects_when_the_trunk_saturates() {
        let mut net = fabric(MultiHopDps::Symmetric);
        let spec = RtChannelSpec::paper_default();
        // All channels from switch-0 nodes to switch-2 nodes: every one
        // crosses both trunks (4 hops, 10 slots per hop symmetric).
        let mut accepted = 0;
        let mut rejected = 0;
        for k in 0..12u32 {
            let src = NodeId::new(k % 2);
            let dst = NodeId::new(4 + (k % 2));
            match net.establish_channel(src, dst, spec).unwrap() {
                Some(_) => accepted += 1,
                None => rejected += 1,
            }
        }
        assert!(accepted > 0, "an empty fabric must accept some channels");
        assert!(rejected > 0, "the shared trunks must eventually saturate");
        assert_eq!(net.channel_count(), accepted);
    }

    // --- builder + router (mesh) ------------------------------------------

    #[test]
    fn builder_requires_a_fabric_shape() {
        assert!(RtNetwork::builder().build().is_err());
        assert!(RtNetwork::builder().star(0).build().is_ok());
    }

    /// A two-link rule is refused where routes have more than two links,
    /// whichever call set it last; a per-hop rule set after it wins.
    #[test]
    fn a_two_link_rule_on_more_than_one_switch_is_a_build_error() {
        let line = || RtNetwork::builder().topology(Topology::line(3, 2));
        for builder in [
            line().dps(DpsKind::Symmetric),
            line()
                .multihop_dps(MultiHopDps::Asymmetric)
                .dps(DpsKind::Asymmetric),
        ] {
            assert!(matches!(builder.build(), Err(RtError::Config(_))));
        }
        let per_hop = line()
            .dps(DpsKind::Symmetric)
            .multihop_dps(MultiHopDps::Symmetric);
        assert!(per_hop.build().unwrap().manager().schedules_hops());
    }

    /// Establishment plus ten periodic messages across a ring: control and
    /// data events interleaved in one calendar (debug builds check every
    /// pop of it against the reference heap).
    #[test]
    fn an_established_channel_run_on_a_ring_delivers_every_frame_in_time() {
        let mut net = RtNetwork::builder()
            .topology(Topology::ring(4, 2))
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .unwrap();
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(7), spec)
            .unwrap()
            .expect("empty ring accepts the channel");
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(0), tx.id, 10, 900, start)
            .unwrap();
        net.run_to_completion().unwrap();
        let received = net.received_messages();
        assert_eq!(received.len() as u64, 10 * spec.capacity.get());
        assert!(received
            .iter()
            .all(|m| m.receiver == NodeId::new(7) && !m.missed_deadline));
    }

    #[test]
    fn tree_router_rejects_mesh_builds_at_build_time() {
        let result = RtNetwork::builder()
            .topology(Topology::ring(4, 1))
            .router(ShortestPathRouter::with_policy(RoutePolicy::Tree))
            .build();
        assert!(
            result.is_err(),
            "the tree policy must refuse a cyclic fabric"
        );
        // The same router on the spanning line is fine.
        assert!(RtNetwork::builder()
            .topology(Topology::line(4, 1))
            .router(ShortestPathRouter::with_policy(RoutePolicy::Tree))
            .build()
            .is_ok());
    }

    #[test]
    fn ring_mesh_establishes_channels_and_meets_the_hop_aware_bound() {
        // The acceptance bar of the mesh redesign: a cyclic topology built
        // through the builder admits channels via shortest-path routing and
        // every measured delay stays within d·slot + T_latency(h).
        let mut net = RtNetwork::builder()
            .topology(Topology::ring(4, 2))
            .router(ShortestPathRouter::new())
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .unwrap();
        let spec = RtChannelSpec::paper_default();
        // node 1 (sw0) -> node 7 (sw3): the closing trunk makes this 3 hops.
        let tx = net
            .establish_channel(NodeId::new(1), NodeId::new(7), spec)
            .unwrap()
            .expect("the empty ring accepts the channel");
        let route = net.manager().channel_route(tx.id).unwrap();
        assert_eq!(route.path.len(), 3, "shortest path uses the closing trunk");
        assert!(route.path.contains(&HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(3),
        }));
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(1), tx.id, 20, 1000, start)
            .unwrap();
        net.run_to_completion().unwrap();
        assert_eq!(net.received_messages().len(), 20 * 3);
        assert!(net.simulator().stats().all_deadlines_met());
        let bound = net.channel_deadline_bound(tx.id).unwrap();
        let worst = net.simulator().stats().channel(tx.id).unwrap().max_latency;
        assert!(worst <= bound, "worst {worst} exceeds mesh bound {bound}");
        // The data really used the closing trunk, not the long way.
        assert!(net
            .simulator()
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(2),
            })
            .is_none());
    }

    #[test]
    fn ecmp_router_is_deterministic_end_to_end() {
        let run = |seed: u64| {
            let mut net = RtNetwork::builder()
                .topology(Topology::ring(4, 2))
                .router(ShortestPathRouter::with_policy(RoutePolicy::Ecmp { seed }))
                .multihop_dps(MultiHopDps::Symmetric)
                .build()
                .unwrap();
            let spec = RtChannelSpec::paper_default();
            let mut routes = Vec::new();
            // Opposite corners of the ring: sw0 -> sw2 has two equal-cost
            // paths; every (src, dst) pair hashes to one of them.
            for (src, dst) in [(0u32, 4u32), (1, 5), (0, 5), (1, 4)] {
                let tx = net
                    .establish_channel(NodeId::new(src), NodeId::new(dst), spec)
                    .unwrap()
                    .expect("ring has capacity for four channels");
                routes.push(net.manager().channel_route(tx.id).unwrap().path.clone());
            }
            routes
        };
        let first = run(42);
        let second = run(42);
        assert_eq!(first, second, "a fixed seed must reproduce every route");
        for route in &first {
            assert_eq!(route.len(), 4, "ECMP must pick a shortest (2-trunk) path");
        }
    }

    // --- fault injection and fail-over --------------------------------------

    #[test]
    fn fail_trunk_reroutes_established_channels_on_the_wire() {
        let mut net = RtNetwork::builder()
            .topology(Topology::ring(4, 1))
            .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
            .multihop_dps(MultiHopDps::Symmetric)
            .build()
            .unwrap();
        let spec = RtChannelSpec::paper_default();
        // node 0 (sw0) -> node 3 (sw3): 3 hops via the closing trunk.
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(3), spec)
            .unwrap()
            .unwrap();
        assert_eq!(net.manager().channel_route(tx.id).unwrap().path.len(), 3);
        let bound_before = net.channel_deadline_bound(tx.id).unwrap();

        let report = net.fail_trunk(SwitchId::new(3), SwitchId::new(0)).unwrap();
        assert_eq!(report.rerouted.len(), 1);
        assert!(report.dropped.is_empty());
        // The re-routed channel now runs the long way around, same id.
        let route = net.manager().channel_route(tx.id).unwrap();
        assert_eq!(route.path.len(), 5);
        let bound_after = net.channel_deadline_bound(tx.id).unwrap();
        assert!(bound_after > bound_before, "more hops, larger bound");

        // Traffic flows on the surviving route and meets the new bound.
        let start = net.now() + Duration::from_millis(1);
        net.send_periodic(NodeId::new(0), tx.id, 15, 900, start)
            .unwrap();
        net.run_to_completion().unwrap();
        assert_eq!(net.received_messages().len(), 15 * 3);
        assert!(net.simulator().stats().all_deadlines_met());
        let worst = net.simulator().stats().channel(tx.id).unwrap().max_latency;
        assert!(
            worst <= bound_after,
            "worst {worst} exceeds post-failover bound {bound_after}"
        );
        // The wire really used the detour.
        assert!(net
            .simulator()
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(2),
            })
            .is_some());
        assert_eq!(net.simulator().stats().failed_link_dropped, 0);
    }

    #[test]
    fn fail_trunk_drops_unroutable_channels_end_to_end() {
        // A 2-switch line: cutting the only trunk splits the fabric, so the
        // cross-switch channel cannot be re-admitted anywhere.
        let mut net = RtNetwork::builder()
            .topology(Topology::line(2, 1))
            .multihop_dps(MultiHopDps::Symmetric)
            .build()
            .unwrap();
        let spec = RtChannelSpec::paper_default();
        let tx = net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap();
        let report = net.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        assert!(report.rerouted.is_empty());
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].id, tx.id);
        assert_eq!(net.channel_count(), 0);
        // Source and destination both forgot the channel.
        assert_eq!(net.layer(NodeId::new(0)).unwrap().tx_channels().count(), 0);
        assert_eq!(net.layer(NodeId::new(1)).unwrap().rx_channels().count(), 0);
        assert!(net
            .send_periodic(NodeId::new(0), tx.id, 1, 100, net.now())
            .is_err());
        // Repair restores the fabric for fresh establishments.
        net.repair_trunk(SwitchId::new(0), SwitchId::new(1))
            .unwrap();
        assert!(net
            .establish_channel(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .is_some());
    }

    #[test]
    fn unaffected_channels_deliver_identically_with_and_without_a_cut() {
        // A same-switch channel (both endpoints on sw2) shares no link with
        // the cut trunk or any re-route, so its delivery sequence must be
        // byte-for-byte identical between a failure run and a fault-free
        // run.
        let drive = |cut: bool| {
            let mut net = RtNetwork::builder()
                .topology(Topology::ring(4, 2))
                .multihop_dps(MultiHopDps::Symmetric)
                .build()
                .unwrap();
            let spec = RtChannelSpec::paper_default();
            // The affected channel: node 0 (sw0) -> node 7 (sw3).
            let affected = net
                .establish_channel(NodeId::new(0), NodeId::new(7), spec)
                .unwrap()
                .unwrap();
            // The unaffected channel: node 4 -> node 5, both on sw2.
            let local = net
                .establish_channel(NodeId::new(4), NodeId::new(5), spec)
                .unwrap()
                .unwrap();
            let start = net.now() + Duration::from_millis(1);
            net.send_periodic(NodeId::new(0), affected.id, 10, 700, start)
                .unwrap();
            net.send_periodic(NodeId::new(4), local.id, 10, 700, start)
                .unwrap();
            let cut_at = start + Duration::from_micros(2500);
            net.run_until(cut_at).unwrap();
            if cut {
                net.fail_trunk(SwitchId::new(3), SwitchId::new(0)).unwrap();
            }
            net.run_to_completion().unwrap();
            let local_seq: Vec<(u64, bool)> = net
                .received_messages()
                .iter()
                .filter(|m| m.channel == local.id)
                .map(|m| (m.delivered_at.as_nanos(), m.missed_deadline))
                .collect();
            (local_seq, net.simulator().stats().all_deadlines_met())
        };
        let (with_cut, _) = drive(true);
        let (without_cut, clean) = drive(false);
        assert!(clean);
        assert!(!with_cut.is_empty());
        assert_eq!(
            with_cut, without_cut,
            "a same-switch channel must not notice a remote trunk cut"
        );
    }

    #[test]
    fn star_networks_reject_link_failures() {
        let mut net = network(3, DpsKind::Symmetric);
        assert!(net.fail_trunk(SwitchId::new(0), SwitchId::new(1)).is_err());
        assert!(net
            .repair_trunk(SwitchId::new(0), SwitchId::new(1))
            .is_err());
    }

    /// The one place a star build and a fabric build differ: the same
    /// one-switch topology partitions by the paper's two-link rule or by the
    /// per-hop rule, whichever was set last (the two-link ADPS when none
    /// was), and only the latter puts per-hop budgets on the wire.
    #[test]
    fn star_and_fabric_builds_of_one_switch_differ_only_in_the_dps_family() {
        let spec = RtChannelSpec::paper_default();
        let one_switch = || Topology::star(SwitchId::new(0), (0..4).map(NodeId::new));
        let star = || RtNetwork::builder().star(4);
        let two_link = (false, [27, 13]);
        let per_hop = (true, [26, 14]);
        for (builder, (hops_scheduled, second_split)) in [
            (star().dps(DpsKind::Asymmetric), two_link),
            (
                RtNetwork::builder()
                    .topology(one_switch())
                    .multihop_dps(MultiHopDps::Asymmetric),
                per_hop,
            ),
            (star().multihop_dps(MultiHopDps::Asymmetric), per_hop),
            (
                RtNetwork::builder()
                    .topology(one_switch())
                    .multihop_dps(MultiHopDps::Asymmetric)
                    .dps(DpsKind::Asymmetric),
                two_link,
            ),
            (
                star()
                    .dps(DpsKind::Asymmetric)
                    .multihop_dps(MultiHopDps::Asymmetric),
                per_hop,
            ),
            (star(), two_link),
            (RtNetwork::builder().topology(one_switch()), two_link),
        ] {
            let mut net = builder.build().unwrap();
            let mut establish = |dst: u32| {
                let tx = net.establish_channel(NodeId::new(0), NodeId::new(dst), spec);
                net.manager()
                    .channel_route(tx.unwrap().expect("accepted").id)
                    .unwrap()
            };
            // Empty links: both families halve the deadline.
            let first = establish(1);
            assert_eq!(first.link_deadlines, [Slots::new(20); 2]);
            assert_eq!(
                *first.path,
                [
                    HopLink::Uplink(NodeId::new(0)),
                    HopLink::Downlink(NodeId::new(1))
                ]
            );
            // One channel on the uplink, none on the downlink — loads 2:1
            // counting the candidate: 40·2/3 against 3 + 34·2/3.
            let second = establish(2);
            assert_eq!(second.link_deadlines, second_split.map(Slots::new));
            assert_eq!(second.destination, NodeId::new(2));
            assert_eq!(net.manager().channel_ids(), [first.id, second.id]);
            assert_eq!(net.manager().link_load(HopLink::Uplink(NodeId::new(0))), 2);
            assert_eq!(net.manager().pending_count(), 0);
            assert_eq!(net.manager().schedules_hops(), hops_scheduled);
        }
    }
}
