//! Glue: the complete RT-layer stack running over the simulated switched
//! Ethernet.
//!
//! [`RtNetwork`] instantiates a fabric — from the single-switch star of
//! §18.1 up to arbitrary connected meshes (the paper's stated future work,
//! one step further) — and wires the control plane into it:
//!
//! * each end node gets an [`RtLayer`],
//! * the managing switch gets a [`ChannelManager`] — one stack, three
//!   builds: a [`FabricChannelManager`] (admission over every link of the
//!   route) over the star's one-switch topology with the paper's two-link
//!   deadline partitioning, the same manager over a fabric with multi-hop
//!   partitioning, or a [`DistributedChannelManager`] —
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

use std::collections::BTreeMap;
use std::sync::Arc;

use rt_frames::{EthernetFrame, Frame};
use rt_netsim::{Delivery, FrameInjection, SimConfig, Simulator};
use rt_types::constants::ETHERTYPE_IPV4;
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, HopLink, Ipv4Address, LinkSpeed, MacAddr,
    ManagerPlacement, NodeId, Router, RtError, RtResult, ShortestPathRouter, SimTime, Slots,
    SwitchId, Topology,
};

use crate::channel::RtChannelSpec;
use crate::distributed::DistributedChannelManager;
use crate::dps::{DpsFamily, DpsKind};
use crate::manager::{ChannelManager, FailoverReport, ReleasedChannel, SwitchAction};
use crate::multihop::{FabricChannelManager, MultiHopAdmission, MultiHopDps};
use crate::rtlayer::{EstablishmentOutcome, ReceivedMessage, RtLayer, RtLayerConfig, TxChannel};

/// What the network is built over, and with it which family of rules
/// partitions its deadlines.
#[derive(Debug, Clone)]
enum FabricShape {
    /// Single-switch star over the given nodes: every route is `uplink →
    /// downlink`, partitioned by the paper's §18.4 rules ([`DpsKind`]).
    Star(Vec<NodeId>),
    /// Explicit multi-switch topology: routes of any length, partitioned
    /// per hop ([`MultiHopDps`]).
    Fabric(Topology),
}

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
#[derive(Debug)]
pub struct RtNetworkBuilder {
    sim: SimConfig,
    dps: DpsKind,
    multihop_dps: MultiHopDps,
    shape: Option<FabricShape>,
    router: Option<Arc<dyn Router>>,
    max_incoming_channels: Option<usize>,
    placement: ManagerPlacement,
}

impl Default for RtNetworkBuilder {
    fn default() -> Self {
        RtNetworkBuilder {
            sim: SimConfig::default(),
            dps: DpsKind::Asymmetric,
            multihop_dps: MultiHopDps::Asymmetric,
            shape: None,
            router: None,
            max_incoming_channels: None,
            placement: ManagerPlacement::Central,
        }
    }
}

impl RtNetworkBuilder {
    /// Start an empty builder (equivalent to [`RtNetwork::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the paper's single-switch star over nodes `0..n`.
    pub fn star(self, n: u32) -> Self {
        self.nodes((0..n).map(NodeId::new))
    }

    /// Build a single-switch star over an explicit node set.
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.shape = Some(FabricShape::Star(nodes.into_iter().collect()));
        self
    }

    /// Build a multi-switch fabric over `topology` (tree or mesh).  The
    /// topology's attachments define the end nodes.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.shape = Some(FabricShape::Fabric(topology));
        self
    }

    /// The deadline-partitioning rule of a star build (`.star(n)` /
    /// `.nodes(..)`), one of the paper's two-link family: the *whole*
    /// deadline split in proportion to the two links' loads (Eq. 18.16).
    /// Ignored on fabrics, which take a [`RtNetworkBuilder::multihop_dps`].
    ///
    /// There are two families because each measures better on its own
    /// workload: the per-hop `Asymmetric` rule put under the paper's
    /// 10-master/50-slave star accepts 100 of Figure 18.5's channels where
    /// this family's ADPS accepts 110, and Eq. 18.16 put under the fabric
    /// workloads costs up to 16 % of their accepted channels
    /// (ARCHITECTURE.md, the `rt-core` section, *Two DPS families*).
    pub fn dps(mut self, dps: DpsKind) -> Self {
        self.dps = dps;
        self
    }

    /// The deadline-partitioning rule of a fabric build (`.topology(..)`),
    /// one of the per-hop family: every link of the route gets `C_i` first
    /// and only the slack `d_i − k·C_i` is split.  Ignored on stars, which
    /// take a [`RtNetworkBuilder::dps`] — see there for why there are two
    /// families.
    pub fn multihop_dps(mut self, dps: MultiHopDps) -> Self {
        self.multihop_dps = dps;
        self
    }

    /// The data-plane simulator configuration (link speed, propagation
    /// delay, switch latency, best-effort queue bound).
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Shorthand: override only the link speed of the simulator
    /// configuration.
    pub fn link_speed(mut self, speed: LinkSpeed) -> Self {
        self.sim.link_speed = speed;
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
    /// [`DistributedChannelManager`]).  Requires a
    /// [`RtNetworkBuilder::topology`] fabric — the single-switch star has
    /// nothing to distribute.
    pub fn distributed_control(self) -> Self {
        self.manager_placement(ManagerPlacement::Distributed)
    }

    /// Select the channel-management placement explicitly (central — the
    /// paper's model and the default — or distributed).
    pub fn manager_placement(mut self, placement: ManagerPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Build the network: validate the topology against the router, build
    /// the simulator fabric, the channel manager and one RT layer per node.
    pub fn build(self) -> RtResult<RtNetwork> {
        let shape = self.shape.ok_or_else(|| {
            RtError::Config(
                "RtNetworkBuilder needs a fabric: call .star(n), .nodes(..) or .topology(..)"
                    .into(),
            )
        })?;
        let router: Arc<dyn Router> = self
            .router
            .unwrap_or_else(|| Arc::new(ShortestPathRouter::new()));
        let (mut topology, dps): (Topology, DpsFamily) = match shape {
            FabricShape::Star(nodes) => (Topology::star(SwitchId::new(0), nodes), self.dps.into()),
            FabricShape::Fabric(topology) => (topology, self.multihop_dps.into()),
        };
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
                    "distributed control needs a .topology(..) fabric: a single-switch \
                     star has nothing to distribute"
                        .into(),
                ));
            }
        };
        // Simulator::with_router runs the router's capability check (e.g.
        // the tree policy rejecting cyclic graphs) on this same topology.
        let sim = Simulator::with_router(self.sim, topology, Arc::clone(&router))?;
        // Eq. 18.1's constant term for the two-hop star path; multi-hop
        // channels get a per-channel override once their route is known.
        let t_latency = self.sim.t_latency();
        let layer_config = RtLayerConfig {
            link_speed: self.sim.link_speed,
            t_latency,
            max_incoming_channels: self.max_incoming_channels,
        };
        let layers: BTreeMap<u32, RtLayer> = sim
            .topology()
            .nodes()
            .map(|n| (n.get(), RtLayer::new(n, layer_config)))
            .collect();
        Ok(RtNetwork {
            sim,
            manager,
            router,
            layers,
            outcomes: BTreeMap::new(),
            received: Vec::new(),
            be_received: 0,
            t_latency,
        })
    }
}

/// A delivered real-time message together with when and where it arrived.
#[derive(Debug, Clone)]
pub struct DeliveredMessage {
    /// The receiving node.
    pub receiver: NodeId,
    /// The decoded message.
    pub message: ReceivedMessage,
    /// When the last bit arrived.
    pub delivered_at: SimTime,
    /// Whether the frame arrived after its stamped absolute deadline.
    pub missed_deadline: bool,
}

/// The full stack: simulator + switch manager + per-node RT layers.
pub struct RtNetwork {
    sim: Simulator,
    manager: Box<dyn ChannelManager>,
    router: Arc<dyn Router>,
    layers: BTreeMap<u32, RtLayer>,
    outcomes: BTreeMap<(u32, u8), EstablishmentOutcome>,
    received: Vec<DeliveredMessage>,
    be_received: u64,
    t_latency: Duration,
}

impl std::fmt::Debug for RtNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtNetwork")
            .field("nodes", &self.layers.len())
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
        self.layers.get(&node.get())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The constant latency term `T_latency` (Eq. 18.1) of a two-hop star
    /// path in this network.
    pub fn t_latency(&self) -> Duration {
        self.t_latency
    }

    /// The end-to-end delay bound `d_i + T_latency` (Eq. 18.1) for a
    /// star-path channel with contract `spec`.
    pub fn deadline_bound(&self, spec: &RtChannelSpec) -> Duration {
        self.sim
            .config()
            .link_speed
            .slots_to_duration(spec.deadline)
            + self.t_latency
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
            .get_mut(&source.get())
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
        if let Some(layer) = self.layers.get_mut(&route.source.get()) {
            layer.set_channel_t_latency(route.id, config.t_latency_for_hops(hops));
        }
    }

    /// Tear down an established channel (source side), releasing its
    /// capacity at the switch.
    pub fn teardown_channel(&mut self, source: NodeId, channel: ChannelId) -> RtResult<()> {
        let now = self.sim.now();
        let eth = self
            .layers
            .get_mut(&source.get())
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
        self.flood_pending_control()?;
        for route in &report.rerouted {
            self.install_channel_wire(route);
        }
        for old in &report.dropped {
            self.sim.release_channel(old.id);
            if let Some(layer) = self.layers.get_mut(&old.destination.get()) {
                layer.forget_rx_channel(old.id);
            }
            if let Some(layer) = self.layers.get_mut(&old.source.get()) {
                layer.forget_tx_channel(old.id);
            }
        }
        Ok(report)
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
        self.flood_pending_control()?;
        for route in &report.rerouted {
            self.install_channel_wire(route);
        }
        for old in &report.dropped {
            self.sim.release_channel(old.id);
            if let Some(layer) = self.layers.get_mut(&old.destination.get()) {
                layer.forget_rx_channel(old.id);
            }
            if let Some(layer) = self.layers.get_mut(&old.source.get()) {
                layer.forget_tx_channel(old.id);
            }
        }
        Ok(report)
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
        self.flood_pending_control()?;
        for route in &report.rerouted {
            self.install_channel_wire(route);
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
    /// is `C_i` frames of `payload_len` bytes, all stamped with the same
    /// absolute deadline (they belong to the same periodic message).
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
            .get_mut(&source.get())
            .ok_or(RtError::UnknownNode(source))?;
        let spec = layer
            .tx_channel(channel)
            .ok_or(RtError::UnknownChannel(channel))?
            .spec;
        let period = self.sim.config().link_speed.slots_to_duration(spec.period);
        let start = start.max(self.sim.now());
        let mut batch = Vec::with_capacity((count * spec.capacity.get()) as usize);
        for k in 0..count {
            let at = start + period.saturating_mul(k);
            let message = layer.prepare_message(channel, vec![0u8; payload_len], at)?;
            batch.extend(message.map(|eth| FrameInjection {
                node: source,
                eth,
                at,
            }));
        }
        // One call per channel: validated as a whole, the frame store
        // reserved once, ids and event order as frame-by-frame injection.
        self.sim.inject_batch(batch)?;
        Ok(())
    }

    /// Inject a single best-effort (non-RT) UDP frame from `source` to
    /// `destination` at time `at`.
    pub fn send_best_effort(
        &mut self,
        source: NodeId,
        destination: NodeId,
        payload_len: usize,
        at: SimTime,
    ) -> RtResult<()> {
        let udp = rt_frames::UdpHeader::new(0x2000, 0x2001, payload_len)?;
        let ip = rt_frames::Ipv4Header::udp(
            Ipv4Address::for_node(source),
            Ipv4Address::for_node(destination),
            payload_len + rt_types::constants::UDP_HEADER_BYTES,
        )?;
        let mut bytes = ip.encode();
        bytes.extend_from_slice(&udp.encode());
        bytes.extend(std::iter::repeat_n(0u8, payload_len));
        let eth = EthernetFrame::new(
            MacAddr::for_node(destination),
            MacAddr::for_node(source),
            ETHERTYPE_IPV4,
            bytes,
        )?;
        self.sim.inject(source, eth, at.max(self.sim.now()))?;
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
        self.pump_with(|sim| sim.run_until_delivery_before(limit))?;
        Ok(self.sim.now())
    }

    /// Run-and-dispatch until the event queue drains, reacting to every
    /// delivery at its simulated time (not after the queue empties): the
    /// switch software processes a control frame — and e.g. releases a
    /// channel's wire state — while later traffic is still in flight,
    /// exactly as a real switch would.
    fn pump(&mut self) -> RtResult<()> {
        self.pump_with(Simulator::run_until_delivery)
    }

    /// The pump loop over either stepping rule: `step` runs the simulator
    /// up to its next delivery (`true`) or until it has nothing left to run
    /// (`false`).  One buffer takes the deliveries of every poll.
    fn pump_with(&mut self, mut step: impl FnMut(&mut Simulator) -> bool) -> RtResult<()> {
        let mut deliveries = Vec::new();
        while step(&mut self.sim) {
            self.sim.poll_deliveries_into(&mut deliveries);
            for delivery in deliveries.drain(..) {
                self.dispatch(delivery)?;
            }
        }
        Ok(())
    }

    /// Tear a released channel down on the wire and at the endpoints: its
    /// forwarding entries and per-hop budgets are forgotten AND its late
    /// frames are dropped at the first switch (counted in the statistics),
    /// never delivered on the stale route; the destination RT layer forgets
    /// it too.
    fn process_released(&mut self, released: ReleasedChannel) {
        self.sim.release_channel(released.id);
        if let Some(layer) = self.layers.get_mut(&released.destination.get()) {
            layer.forget_rx_channel(released.id);
        }
    }

    fn dispatch(&mut self, delivery: Delivery) -> RtResult<()> {
        let now = self.sim.now();
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
        let node_key = receiver.get();
        let Some(layer) = self.layers.get_mut(&node_key) else {
            return Err(RtError::UnknownNode(receiver));
        };
        match frame {
            Frame::Request(req) => {
                // The switch forwarded a request: this node is the
                // destination and must answer.
                let (eth, _accepted) = layer.handle_forwarded_request(&req)?;
                self.sim.inject(receiver, eth, now)?;
            }
            Frame::Response(resp) => {
                let outcome = layer.handle_response(&resp)?;
                self.outcomes
                    .insert((node_key, resp.connection_request_id.get()), outcome);
            }
            Frame::RtData(data) => {
                match layer.handle_data(data) {
                    Ok(message) => {
                        let missed_deadline = deadline.is_some_and(|d| delivered_at > d);
                        self.received.push(DeliveredMessage {
                            receiver,
                            message,
                            delivered_at,
                            missed_deadline,
                        });
                    }
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
                self.be_received += 1;
            }
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

    /// Look up the outcome of a finished establishment attempt (mainly for
    /// tests that drive the handshake manually).
    pub fn establishment_outcome(
        &self,
        source: NodeId,
        request: ConnectionRequestId,
    ) -> Option<&EstablishmentOutcome> {
        self.outcomes.get(&(source.get(), request.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::RoutePolicy;

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

    /// The payload is *moved* from the wire into `received_messages()`
    /// (the injected buffer → the delivery → classify → `handle_data`, no copy anywhere): what
    /// arrives must still be exactly what `prepare_data` was given — headers
    /// cut off, nothing of the padding or the neighbour left in.
    #[test]
    fn payload_bytes_survive_the_move_through_the_pump() {
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
            let layer = net.layers.get_mut(&src.get()).unwrap();
            let eth = layer.prepare_data(tx.id, payload.clone(), at).unwrap();
            net.sim.inject(src, eth, at).unwrap();
            at += Duration::from_millis(1);
        }
        net.run_to_completion().unwrap();
        let received: Vec<&[u8]> = net
            .received_messages()
            .iter()
            .map(|m| m.message.payload.as_slice())
            .collect();
        assert_eq!(received, payloads);
        assert!(net
            .received_messages()
            .iter()
            .all(|m| { m.receiver == dst && m.message.channel == tx.id && !m.missed_deadline }));
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
                .filter(|m| m.message.channel == local.id)
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
    /// one-switch topology partitions by the paper's two-link rule under
    /// `.star(..)` and by the per-hop rule under `.topology(..)`, and only the
    /// latter puts per-hop budgets on the wire.
    #[test]
    fn star_and_fabric_builds_of_one_switch_differ_only_in_the_dps_family() {
        let spec = RtChannelSpec::paper_default();
        let one_switch = Topology::star(SwitchId::new(0), (0..4).map(NodeId::new));
        let star = RtNetwork::builder().star(4).dps(DpsKind::Asymmetric);
        let fabric = RtNetwork::builder()
            .topology(one_switch)
            .multihop_dps(MultiHopDps::Asymmetric);
        for (builder, hops_scheduled, second_split) in
            [(star, false, [27, 13]), (fabric, true, [26, 14])]
        {
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
