//! The simulator proper: a topology-driven fabric of store-and-forward
//! full-duplex switches with end nodes attached.
//!
//! ## Model
//!
//! * A [`Topology`] describes the fabric: every end node has one full-duplex
//!   cable to its access switch, and switches are connected by full-duplex
//!   trunk links forming any connected graph — a tree or a cyclic mesh with
//!   redundant trunks.  Every *directed* edge of that graph is
//!   driven by one [`crate::OutputPort`]: the node → switch direction (the *uplink*)
//!   by the node's NIC, the switch → node direction (the *downlink*) and each
//!   switch → switch direction (a *trunk port*) by the owning switch.  Every
//!   port is an EDF-sorted real-time queue with strict priority over a FCFS
//!   best-effort queue.
//! * Transmission time of a frame is its wire size (including preamble and
//!   inter-frame gap) divided by the configured link speed.  Frames are
//!   never preempted once started.
//! * Store-and-forward: a frame reaches a switch only after its last bit has
//!   been received; the switch then spends `switch_latency` before the frame
//!   is eligible for transmission on its output port.  Propagation delay is
//!   added per link traversal.  These constant terms, together with one
//!   non-preemptable frame already on the wire per link, form the paper's
//!   `T_latency` (Eq. 18.1) — see [`SimConfig::t_latency_for_hops`].
//! * Forwarding is route-driven: frames of an admitted RT channel follow the
//!   per-switch forwarding entries installed for that channel's [`Route`] at
//!   admission time ([`Simulator::set_channel_hop_schedule`]), so a channel
//!   pinned to a non-shortest path by its router really takes that path on
//!   the wire.  Everything else (control frames, best-effort traffic,
//!   channels without an installed route) falls back to the fabric's
//!   next-hop table, computed once per topology by the [`Router`] the
//!   simulator was built with — shortest paths on a mesh, the unique path on
//!   a tree.
//! * Frames addressed to the switch MAC itself (RT-layer control traffic)
//!   are forwarded to the *managing switch* (the lowest switch id) and
//!   delivered to its "control plane" — the caller; the caller originates
//!   frames at any switch with [`Simulator::inject_at_switch`] (used for
//!   ResponseFrames).
//! * For multi-hop RT channels, per-hop EDF deadlines can be registered with
//!   [`Simulator::set_channel_hop_schedule`]: each port then sorts the
//!   channel's frames by the per-hop deadline budget of *that* link rather
//!   than the end-to-end stamp, which is the wire-level analogue of the
//!   multi-hop deadline partitioning analysis.
//!
//! ## Hot path
//!
//! What the fabric does with one event lives in the private `switch` module
//! (the forwarding core); this file drives it — the run loops and the
//! scripted faults — and is the public front-end that builds and edits what
//! the core reads.  The per-event path is allocation- and hash-free: at
//! construction every entity gets a contiguous index — nodes, switches (via
//! the router's [`rt_types::DenseNextHop`]) and output ports (uplink `2i`,
//! downlink `2i + 1`, trunks after all access ports) — and every per-event
//! decision is a few bounds-checked array reads.  A frame's destination MAC is decoded
//! *once*, at injection time, into its dense node and access-switch
//! indices.  The pending-event set lives in [`crate::event::EventQueue`]:
//! hop events in its FIFO delay lanes, the rest in its calendar queue, but
//! for a batch's injections, which wait in the frame table until just
//! before their instant; debug builds check every pop against the
//! binary-heap reference.
//!
//! The single-switch star of the paper's §18.1 is the one-switch
//! [`Topology::star`], built like any other fabric.
//!
//! The simulator is single-threaded and deterministic: identical inputs
//! produce identical event sequences, deliveries and statistics.

use std::ops::Range;
use std::sync::Arc;

use rt_frames::{EthernetFrame, Frame};
use rt_types::constants::ETH_MTU_BYTES;
use rt_types::{
    ChannelId, Duration, HopLink, IdIndex, MacAddr, NodeId, Route, Router, RtError, RtResult,
    ShortestPathRouter, SimTime, SwitchId, Topology, NO_INDEX,
};

use crate::event::Event;
use crate::port::TrafficClass;
use crate::stats::SimStats;
use crate::switch::{
    self, ChannelWireState, Core, Fabric, FrameDest, FrameRecord, Lane, PortFlips,
};

/// Identifier of a frame inside one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    /// Construct from a raw index (mostly useful in tests).
    pub const fn new(v: u64) -> Self {
        FrameId(v)
    }

    /// The raw index.
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// Static configuration of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Bit rate of every link (the paper assumes 100 Mbit/s Fast Ethernet).
    pub link_speed: rt_types::LinkSpeed,
    /// One-way propagation delay of every link.
    pub propagation_delay: Duration,
    /// Store-and-forward processing latency inside every switch.
    pub switch_latency: Duration,
    /// Capacity of every best-effort queue (`None` = unbounded).
    pub be_queue_capacity: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_speed: rt_types::LinkSpeed::FAST_ETHERNET,
            // 100 m of cable at ~2/3 c is ~0.5 us.
            propagation_delay: Duration::from_nanos(500),
            // A small constant store-and-forward processing overhead.
            switch_latency: Duration::from_micros(5),
            be_queue_capacity: Some(1024),
        }
    }
}

impl SimConfig {
    /// The constant per-message latency term `T_latency` of Eq. 18.1 for a
    /// path of `link_hops` directed links (a star path has 2: uplink +
    /// downlink; each extra switch adds one trunk hop):
    ///
    /// * one propagation delay per link,
    /// * one store-and-forward processing latency per switch traversed
    ///   (`link_hops − 1` switches),
    /// * one maximum-size-frame blocking term per link — an already-started
    ///   frame is never preempted, so a newly urgent frame can wait up to
    ///   one full slot on every link it crosses.
    pub fn t_latency_for_hops(&self, link_hops: usize) -> Duration {
        let hops = link_hops as u64;
        self.propagation_delay * hops
            + self.switch_latency * hops.saturating_sub(1)
            + self.link_speed.slot_duration() * hops
    }
}

/// A frame delivered to its final receiver (an end node, or the switch
/// control plane for frames addressed to the switch MAC).
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The frame id.
    pub frame: FrameId,
    /// The receiving entity (`NodeId::SWITCH` for control-plane deliveries).
    pub receiver: NodeId,
    /// For control-plane deliveries: *which* switch's control plane
    /// received the frame.  `None` for deliveries to end nodes.
    pub switch: Option<SwitchId>,
    /// The node (or switch) that injected the frame.
    pub source: NodeId,
    /// The Ethernet frame as it was injected: that very buffer, never copied.
    pub eth: EthernetFrame,
    /// When the frame was injected.
    pub injected_at: SimTime,
    /// When the last bit arrived at the receiver.
    pub delivered_at: SimTime,
    /// The RT channel, for RT data frames.
    pub channel: Option<ChannelId>,
    /// The absolute deadline, for RT frames.
    pub deadline: Option<SimTime>,
    /// Which queue class the frame travelled in.
    pub class: TrafficClass,
}

impl Delivery {
    /// End-to-end latency of this delivery.
    pub fn latency(&self) -> Duration {
        self.delivered_at
            .saturating_duration_since(self.injected_at)
    }

    /// `true` if the frame had a deadline and arrived after it.
    pub fn missed_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| self.delivered_at > d)
    }
}

/// One frame for [`Simulator::inject_batch`]: where it enters the network,
/// what it carries, and when.
#[derive(Debug, Clone)]
pub struct FrameInjection {
    /// The injecting node.
    pub node: NodeId,
    /// The frame.
    pub eth: EthernetFrame,
    /// The injection time (must not lie in the simulated past).
    pub at: SimTime,
}

/// One scripted fabric fault: a trunk cut or a trunk repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Cut the trunk between the two switches.
    Fail {
        /// One end of the trunk.
        from: SwitchId,
        /// The other end.
        to: SwitchId,
    },
    /// Splice a previously cut trunk back.
    Repair {
        /// One end of the trunk.
        from: SwitchId,
        /// The other end.
        to: SwitchId,
    },
    /// Cut every healthy trunk incident to one switch, atomically (the
    /// switch dropping off the fabric; its access links survive).
    FailSwitch {
        /// The switch losing all its trunks.
        switch: SwitchId,
    },
}

impl LinkFault {
    /// The calendar event that carries this fault.
    fn into_event(self) -> Event {
        match self {
            LinkFault::Fail { from, to } => Event::FailTrunk { from, to },
            LinkFault::Repair { from, to } => Event::RepairTrunk { from, to },
            LinkFault::FailSwitch { switch } => Event::FailSwitch { switch },
        }
    }
}

/// A scripted sequence of link failures and repairs, injected up front like
/// a traffic workload ([`Simulator::schedule_faults`]): each fault becomes a
/// first-class simulator event, totally ordered with the frames around it,
/// so a fail-over scenario is exactly as reproducible as a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    events: Vec<(SimTime, LinkFault)>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trunk cut at `at` (builder style).
    pub fn fail_at(mut self, at: SimTime, from: SwitchId, to: SwitchId) -> Self {
        self.events.push((at, LinkFault::Fail { from, to }));
        self
    }

    /// Add a trunk repair at `at` (builder style).
    pub fn repair_at(mut self, at: SimTime, from: SwitchId, to: SwitchId) -> Self {
        self.events.push((at, LinkFault::Repair { from, to }));
        self
    }

    /// Add a whole-switch failure at `at` (builder style): every healthy
    /// trunk incident to `switch` is cut in one atomic event.
    pub fn fail_switch_at(mut self, at: SimTime, switch: SwitchId) -> Self {
        self.events.push((at, LinkFault::FailSwitch { switch }));
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn events(&self) -> &[(SimTime, LinkFault)] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the script holds no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A pull-driven workload generator: instead of filing every frame of a
/// long experiment up front (holding them all in the frame table), the
/// simulator asks the source for the next window's worth of frames as
/// simulated time advances — see [`Simulator::run_with_source`].
///
/// A pulled frame takes a fresh seq when its window is injected, so frames
/// of one instant run in pull order, behind everything scheduled before the
/// pull: the source fixes what runs, not where it falls among the other
/// events of its instant.  A driver that must keep the order of up-front
/// injection reserves the keys instead
/// ([`Simulator::reserve_injections`], [`Simulator::inject_reserved`]), as
/// `RtNetwork`'s traffic does.
pub trait TrafficSource {
    /// The frames to inject with `at < horizon`.  Called with a
    /// monotonically advancing horizon; return an empty batch when nothing
    /// falls before it.
    fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection>;

    /// `true` once the source will never produce another frame.
    fn is_exhausted(&self) -> bool;
}

/// The simulator.
#[derive(Debug)]
pub struct Simulator {
    topology: Topology,
    /// The path-selection policy the fabric was built with: its dense
    /// next-hop form is pulled into the [`Fabric`] at construction and
    /// after every fault, and nothing else of it is held here.
    router: Arc<dyn Router>,
    /// What the per-event path reads.
    pub(crate) fabric: Fabric,
    /// What the per-event path writes, the frames in flight included.
    pub(crate) lane: Lane,
    /// The switch hosting the RT channel management software.
    manager_switch: SwitchId,
    /// The same-time run being dispatched; its events from `run_next` on
    /// are pending yet (a run a delivery interrupted holds them here).
    run: Vec<Event>,
    run_next: usize,
}

/// `true` if the driver must answer `delivery` before the simulation may go
/// on: a frame to a switch's control plane, or control traffic (real-time
/// class without a channel) to a node.
fn needs_answer(delivery: &Delivery) -> bool {
    delivery.receiver == NodeId::SWITCH || switch::is_control(delivery.class, delivery.channel)
}

impl Simulator {
    /// Build a simulator over an arbitrary connected multi-switch topology
    /// (tree or mesh) with the default [`ShortestPathRouter`] forwarding
    /// fabric-internal traffic: one output port per directed edge — node
    /// uplinks, switch downlinks and both directions of every trunk.
    pub fn with_topology(config: SimConfig, topology: Topology) -> RtResult<Self> {
        Simulator::with_router(config, topology, Arc::new(ShortestPathRouter::new()))
    }

    /// Build a simulator over `topology` with an explicit [`Router`]: the
    /// router's capability check runs once here ([`rt_types::RoutePolicy::Tree`]
    /// rejects cyclic graphs), and its cached next-hop table forwards all
    /// traffic that has no per-route forwarding entries.
    pub fn with_router(
        config: SimConfig,
        topology: Topology,
        router: Arc<dyn Router>,
    ) -> RtResult<Self> {
        if topology.switch_count() == 0 {
            return Err(RtError::Config("a fabric needs at least one switch".into()));
        }
        if !topology.is_connected() {
            return Err(RtError::Config("the switch graph must be connected".into()));
        }
        router.validate(&topology)?;
        let dense_next_hop = router.dense_next_hop(&topology);
        let switch_count = dense_next_hop.switch_count();
        // `DenseNextHop` indexes every switch of the topology it was built
        // from, and attachments and trunks only name topology switches.
        let switch_idx = |switch: SwitchId| {
            dense_next_hop
                .index_of(switch)
                .expect("the router's dense index covers every topology switch")
        };

        // Dense node layout: `topology.nodes()` iterates in ascending id
        // order, which is exactly the IdIndex ordering.
        let node_index = IdIndex::new(topology.nodes().map(|n| n.get()));
        let mut node_access = Vec::with_capacity(node_index.len());
        let mut port_links = Vec::with_capacity(2 * node_index.len() + 2 * topology.trunk_count());
        for node in topology.nodes() {
            let access = topology
                .switch_of(node)
                .expect("nodes() yields attached nodes");
            node_access.push(switch_idx(access));
            port_links.push(HopLink::Uplink(node));
            port_links.push(HopLink::Downlink(node));
        }
        let mut trunk_ports = vec![NO_INDEX; switch_count * switch_count];
        for (a, b) in topology.trunks() {
            for (from, to) in [(a, b), (b, a)] {
                let slot = switch_idx(from) as usize * switch_count + switch_idx(to) as usize;
                trunk_ports[slot] = port_links.len() as u32;
                port_links.push(HopLink::Trunk { from, to });
            }
        }
        let manager_switch = topology
            .switches()
            .next()
            .expect("the fabric has a switch: switch_count was checked above");
        let distributed_control =
            topology.manager_placement() == rt_types::ManagerPlacement::Distributed;
        let manager_index = switch_idx(manager_switch);
        let lane = Lane::new(&config, &port_links);
        Ok(Simulator {
            topology,
            router,
            fabric: Fabric {
                config,
                dense: dense_next_hop,
                node_index,
                node_access,
                trunk_ports,
                switch_count,
                port_links,
                manager_index,
                distributed_control,
                channel_wire: Vec::new(),
                released_channels: Vec::new(),
            },
            lane,
            manager_switch,
            run: Vec::new(),
            run_next: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.fabric.config
    }

    /// The topology the fabric was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The path-selection policy the fabric was built with.
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.router
    }

    /// The switch hosting the control plane (the lowest switch id).
    pub fn manager_switch(&self) -> SwitchId {
        self.manager_switch
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.lane.events.now()
    }

    /// Number of end nodes attached to the fabric.
    pub fn node_count(&self) -> usize {
        self.fabric.node_index.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.lane.stats
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.lane.events.processed() - self.held() as u64
    }

    /// Number of frames ever registered with the fabric (every injection
    /// path counts, including switch-originated control frames).  Once the
    /// event queue drains, `injected_count() == stats().total_delivered() +
    /// stats().total_dropped()` — frame conservation.
    pub fn injected_count(&self) -> u64 {
        self.lane.frames.end()
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.lane.events.len() + self.held()
    }

    /// The time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.held() > 0 {
            return Some(self.now());
        }
        self.lane.events.peek_time()
    }

    /// Events of an interrupted run not dispatched yet.
    fn held(&self) -> usize {
        self.run.len() - self.run_next
    }

    /// Drain the deliveries that have accumulated since the last call.
    pub fn poll_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.lane.deliveries)
    }

    /// [`Simulator::poll_deliveries`] for a driver that polls after every
    /// delivery: the accumulated deliveries are moved to the end of `out`
    /// and both buffers keep their capacity, so a poll allocates nothing.
    pub fn poll_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.lane.deliveries);
    }

    // --- channel wire state ----------------------------------------------

    /// Register the wire state of an admitted multi-hop channel: for each
    /// link of its route, the offset from a frame's injection time by which
    /// the frame should have finished crossing that link.  Ports on the
    /// route then EDF-sort the channel's frames by the per-hop deadline
    /// instead of the end-to-end stamp, and — because the links identify the
    /// route — every switch on it gains a per-channel forwarding entry, so
    /// the channel's frames follow the *admitted* route even where it
    /// differs from the next-hop table (ECMP or pinned paths on a mesh).
    pub fn set_channel_hop_schedule(
        &mut self,
        channel: ChannelId,
        offsets: impl IntoIterator<Item = (HopLink, Duration)>,
    ) {
        let mut state = ChannelWireState::default();
        for (link, offset) in offsets {
            self.add_forwarding_entry(&mut state, link);
            if let Some(port) = self.fabric.port_of_link(link) {
                state.set_offset(port, offset);
            }
        }
        *self.channel_wire_slot(channel) = Some(state);
        self.mark_released(channel, false);
    }

    /// Install the forwarding entries of an admitted channel's [`Route`]
    /// without per-hop deadline budgets (frames keep EDF-sorting by their
    /// end-to-end stamp).  Useful when the route was pinned by a router but
    /// no deadline partitioning applies.
    pub fn set_channel_route(&mut self, channel: ChannelId, route: &Route) {
        let mut state = ChannelWireState::default();
        for &link in route.links() {
            self.add_forwarding_entry(&mut state, link);
        }
        *self.channel_wire_slot(channel) = Some(state);
        self.mark_released(channel, false);
    }

    /// The per-switch forwarding entry one route link contributes: a trunk
    /// is the egress of its transmitting switch, a downlink the egress of
    /// the destination's access switch, an uplink belongs to the node.
    fn add_forwarding_entry(&self, state: &mut ChannelWireState, link: HopLink) {
        let dense = &self.fabric.dense;
        match link {
            HopLink::Trunk { from, .. } => {
                if let (Some(switch), Some(port)) =
                    (dense.index_of(from), self.fabric.port_of_link(link))
                {
                    state.set_forwarding(switch, port);
                }
            }
            HopLink::Downlink(node) => {
                if let Some(node_idx) = self.fabric.node_index.get(node.get()) {
                    let access = self.fabric.node_access[node_idx as usize];
                    state.set_forwarding(access, 2 * node_idx + 1);
                }
            }
            HopLink::Uplink(_) => {}
        }
    }

    /// Forget a channel's wire state (the raw table edit; most callers want
    /// the full [`Simulator::release_channel`] teardown).
    pub fn clear_channel_hop_schedule(&mut self, channel: ChannelId) {
        if let Some(slot) = self.fabric.channel_wire.get_mut(channel.get() as usize) {
            *slot = None;
        }
    }

    /// Wire-level teardown of a released channel: its forwarding entries and
    /// per-hop budgets are forgotten *and* the channel is marked released,
    /// so any of its frames still in (or entering) the fabric are dropped at
    /// the first switch and counted in
    /// [`SimStats::released_channel_dropped`] — a real switch that tore a
    /// channel down does not keep delivering for it.  Re-admitting a channel
    /// under the same id ([`Simulator::set_channel_hop_schedule`]) clears
    /// the flag.
    pub fn release_channel(&mut self, channel: ChannelId) {
        self.clear_channel_hop_schedule(channel);
        self.mark_released(channel, true);
    }

    fn mark_released(&mut self, channel: ChannelId, released: bool) {
        let flags = &mut self.fabric.released_channels;
        let idx = channel.get() as usize;
        if idx >= flags.len() {
            if !released {
                return;
            }
            flags.resize(idx + 1, false);
        }
        flags[idx] = released;
    }

    fn channel_wire_slot(&mut self, channel: ChannelId) -> &mut Option<ChannelWireState> {
        let slots = &mut self.fabric.channel_wire;
        let idx = channel.get() as usize;
        if idx >= slots.len() {
            slots.resize_with(idx + 1, || None);
        }
        &mut slots[idx]
    }

    // --- fault injection --------------------------------------------------

    /// Cut the trunk between `from` and `to` *now*: the topology degrades
    /// ([`Topology::fail_trunk`], so the router's cached tables invalidate
    /// via the changed fingerprint and control/best-effort forwarding
    /// immediately avoids the dead edge), both directed trunk ports die,
    /// every frame queued at them is lost, and a frame mid-serialisation is
    /// lost with the cable.  Per-channel forwarding entries that still point
    /// at the dead ports drop (and count) their frames until the channel is
    /// re-routed.
    pub fn fail_link(&mut self, from: SwitchId, to: SwitchId) -> RtResult<()> {
        self.apply_fault(LinkFault::Fail { from, to })
    }

    /// Splice a previously cut trunk back: the topology recovers
    /// ([`Topology::repair_trunk`]), both trunk ports come back to life and
    /// the forwarding tables see the restored edge from this instant on.
    /// Channels stay on whatever route they were (re-)admitted on — route
    /// re-selection after a repair is an admission-control decision, not a
    /// wire-level one.
    pub fn repair_link(&mut self, from: SwitchId, to: SwitchId) -> RtResult<()> {
        self.apply_fault(LinkFault::Repair { from, to })
    }

    /// Cut every healthy trunk incident to `switch` *now*, atomically: the
    /// topology degrades in one step ([`Topology::fail_switch`]) and then
    /// every incident directed trunk port dies exactly as in
    /// [`Simulator::fail_link`] — queues drained and counted, frames
    /// mid-serialisation lost with their cables.  The switch itself (and
    /// its access links) survives; repairs splice trunks back one at a
    /// time via [`Simulator::repair_link`].
    pub fn fail_switch(&mut self, switch: SwitchId) -> RtResult<()> {
        self.apply_fault(LinkFault::FailSwitch { switch })
    }

    /// One fault, now.  A cut degrades the topology
    /// ([`Topology::fail_trunk`] / [`Topology::fail_switch`]), a repair
    /// splices the trunk back ([`Topology::repair_trunk`]); the dense
    /// next-hop form is re-pulled from the router, which caches per
    /// fingerprint (rebuilding incrementally for a single trunk flip), so
    /// control and best-effort forwarding avoid a dead edge, and see a
    /// restored one, from this instant on.  Then the ports the fault names
    /// die or come back.  An `Err` (unknown trunk, already failed, not
    /// failed) leaves everything as it was.
    fn apply_fault(&mut self, fault: LinkFault) -> RtResult<()> {
        let mut flips = PortFlips::default();
        let fabric = &mut self.fabric;
        match fault {
            LinkFault::Fail { from, to } => {
                self.topology.fail_trunk(from, to)?;
                fabric.trunk_ports_of(from, to, &mut flips.kills);
            }
            LinkFault::Repair { from, to } => {
                self.topology.repair_trunk(from, to)?;
                fabric.trunk_ports_of(from, to, &mut flips.revives);
            }
            LinkFault::FailSwitch { switch } => {
                for (a, b) in self.topology.fail_switch(switch)? {
                    fabric.trunk_ports_of(a, b, &mut flips.kills);
                }
            }
        }
        fabric.dense = self.router.dense_next_hop(&self.topology);
        let now = self.now();
        self.with_core(|core| core.flip_ports(&flips, now));
        Ok(())
    }

    /// Lend the fabric and the lane to the core for one event or fault.
    #[inline]
    fn with_core<R>(&mut self, run: impl FnOnce(&mut Core<'_>) -> R) -> R {
        run(&mut Core {
            fabric: &self.fabric,
            lane: &mut self.lane,
        })
    }

    /// Schedule a single fault as a first-class simulator event: it fires in
    /// `(time, seq)` order with every other event, so a cut interleaves
    /// deterministically with the traffic around it.
    pub fn schedule_fault(&mut self, at: SimTime, fault: LinkFault) -> RtResult<()> {
        if at < self.now() {
            return Err(Self::past_injection_error(at, self.now()));
        }
        self.lane.schedule(at, fault.into_event());
        Ok(())
    }

    /// Schedule a whole [`FaultScript`] up front, like a traffic workload.
    pub fn schedule_faults(&mut self, script: &FaultScript) -> RtResult<()> {
        for &(at, fault) in script.events() {
            self.schedule_fault(at, fault)?;
        }
        Ok(())
    }

    // --- injection -------------------------------------------------------

    /// Classify `eth` once and build its record.  `Frame::peek` borrows:
    /// classification costs no clone and no payload copy, and accepts or
    /// rejects exactly as `Frame::classify`; a payload over the Ethernet MTU
    /// is refused too, so the record's wire size fits its `u16`.
    fn record_of(&self, eth: &EthernetFrame, source: NodeId, at: SimTime) -> RtResult<FrameRecord> {
        if eth.payload.len() > ETH_MTU_BYTES {
            return Err(RtError::FrameEncode(format!(
                "payload of {} bytes exceeds the {ETH_MTU_BYTES} byte Ethernet MTU",
                eth.payload.len()
            )));
        }
        let peek = Frame::peek(eth)?;
        let dest = self.resolve_dest(eth.dst);
        Ok(FrameRecord::new(peek, dest, source, at, eth.wire_bytes()))
    }

    /// Resolve a destination MAC once, into dense indices: the generic
    /// switch address, a topology switch's [`MacAddr::for_switch_id`] or an
    /// attached node's [`MacAddr::for_node`], decoded and looked up in the
    /// dense indices; anything else is unknown.
    fn resolve_dest(&self, dst: MacAddr) -> FrameDest {
        if dst == MacAddr::for_switch() {
            return FrameDest::ControlPlane;
        }
        if let Some(switch) = dst.switch_id().and_then(|s| self.fabric.dense.index_of(s)) {
            return FrameDest::Switch { switch };
        }
        match dst
            .node_id()
            .and_then(|n| self.fabric.node_index.get(n.get()))
        {
            Some(node) => FrameDest::Node { node },
            None => FrameDest::Unknown,
        }
    }

    /// Classify and file one frame: its record and its buffer wait in the
    /// frame table for its delivery or drop (only the small `FrameId`
    /// travels through the event loop).
    fn register_frame(
        &mut self,
        eth: EthernetFrame,
        source: NodeId,
        injected_at: SimTime,
    ) -> RtResult<FrameId> {
        let record = self.record_of(&eth, source, injected_at)?;
        self.lane.count_injection(&record);
        Ok(self.lane.frames.file(record, eth))
    }

    /// One checked gate for every injection path: the entry point must be an
    /// attached node and the time must not lie in the simulated past.  The
    /// error construction is kept out of line so the (always-taken) happy
    /// path stays branch-plus-return.
    fn validate_injection(&self, node: NodeId, at: SimTime) -> RtResult<()> {
        if self.fabric.node_index.get(node.get()).is_none() {
            return Err(RtError::UnknownNode(node));
        }
        if at < self.now() {
            return Err(Self::past_injection_error(at, self.now()));
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn past_injection_error(at: SimTime, now: SimTime) -> RtError {
        RtError::Simulation(format!(
            "cannot inject at {at}, simulation time is already {now}"
        ))
    }

    /// Inject a frame at `node`'s RT layer at time `at` (it enters the NIC
    /// output queues at that instant).
    pub fn inject(&mut self, node: NodeId, eth: EthernetFrame, at: SimTime) -> RtResult<FrameId> {
        self.validate_injection(node, at)?;
        let id = self.register_frame(eth, node, at)?;
        self.lane
            .schedule(at, Event::EnqueueAtNode { node, frame: id });
        Ok(id)
    }

    /// Reserve the event keys of `count` injections to come: the seqs the
    /// next `count` [`Simulator::inject`] calls would take, in order.
    /// Returns the first; [`Simulator::inject_reserved`] files a frame
    /// under one of them later, and it runs exactly where it would have run
    /// had it been injected now.  An error if the seq space is exhausted.
    pub fn reserve_injections(&mut self, count: u64) -> RtResult<u64> {
        self.lane.events.reserve(count).ok_or_else(|| {
            RtError::Simulation(format!("{count} injections overflow the event sequence"))
        })
    }

    /// [`Simulator::inject`] under a seq from
    /// [`Simulator::reserve_injections`].  The caller files the frame before
    /// the simulation pops any event whose key lies after `(at, seq)` (a
    /// debug build asserts it), so building a frame can wait until just
    /// before its instant without moving a single event.
    pub fn inject_reserved(
        &mut self,
        node: NodeId,
        eth: EthernetFrame,
        at: SimTime,
        seq: u64,
    ) -> RtResult<FrameId> {
        self.validate_injection(node, at)?;
        let frame = self.register_frame(eth, node, at)?;
        self.lane
            .schedule_reserved(at, seq, Event::EnqueueAtNode { node, frame });
        Ok(frame)
    }

    /// Inject a whole batch of frames in one call — what scenario
    /// generators should use instead of one [`Simulator::inject`]
    /// round-trip per frame.  Returns the batch's ids: consecutive, in
    /// batch order, exactly the ids frame-by-frame injection would give.
    ///
    /// All-or-nothing: every frame is validated, classified once and filed
    /// before the first is counted, and on the first `Err` the frames filed
    /// so far are taken back out, so the simulation is exactly as it was
    /// (no id used, no statistic counted, no event pending) — retrying a
    /// corrected batch cannot double-inject the earlier frames.
    ///
    /// A frame waiting to enter the fabric is held once, in the frame
    /// table: the batch reserves the seqs frame-by-frame injection would
    /// take, and the event that hands a frame to its node is filed under
    /// its seq just before its instant runs, so every event keeps its
    /// place.  A frame earlier than one before it in the batch is scheduled
    /// at once.  `events_pending()` and `next_event_time()` count the
    /// frames not filed yet.
    pub fn inject_batch(
        &mut self,
        batch: impl IntoIterator<Item = FrameInjection>,
    ) -> RtResult<Range<FrameId>> {
        let batch = batch.into_iter();
        let start = FrameId(self.injected_count());
        self.lane.frames.reserve(batch.size_hint().0);
        for FrameInjection { node, eth, at } in batch {
            let checked = self
                .validate_injection(node, at)
                .and_then(|()| self.record_of(&eth, node, at));
            match checked {
                Ok(record) => _ = self.lane.frames.file(record, eth),
                Err(e) => {
                    self.lane.frames.unfile_from(start);
                    return Err(e);
                }
            }
        }
        let end = FrameId(self.injected_count());
        let first_seq = match self.reserve_injections(end.0 - start.0) {
            Ok(seq) => seq,
            Err(e) => {
                self.lane.frames.unfile_from(start);
                return Err(e);
            }
        };
        // Infallible from here on: count in batch order, then defer.
        for frame in (start.0..end.0).map(FrameId) {
            let record = self.lane.frames.record(frame);
            self.lane.count_injection(&record);
        }
        self.lane.defer(start..end, first_seq);
        Ok(start..end)
    }

    /// Inject a frame originated by the control plane of a *specific*
    /// switch: it enters that switch's forwarding at time `at` and is
    /// routed by its destination MAC — to an attached node, or to another
    /// switch's control-plane address, crossing (and queueing on) every
    /// trunk in between.  This is the transport of the distributed
    /// reservation protocol: a probe of a five-trunk route really costs
    /// five store-and-forward traversals of wire time.
    pub fn inject_at_switch(
        &mut self,
        at_switch: SwitchId,
        eth: EthernetFrame,
        at: SimTime,
    ) -> RtResult<FrameId> {
        if self.fabric.dense.index_of(at_switch).is_none() {
            return Err(RtError::Config(format!("unknown switch {at_switch}")));
        }
        if at < self.now() {
            return Err(Self::past_injection_error(at, self.now()));
        }
        let id = self.register_frame(eth, NodeId::SWITCH, at)?;
        self.lane.schedule(
            at,
            Event::ArriveAtSwitch {
                switch: at_switch,
                frame: id,
            },
        );
        Ok(id)
    }

    // --- execution -------------------------------------------------------

    /// Run until the event queue is empty; returns the final simulated time.
    ///
    /// Events are drained in same-time *runs*: one scheduler dispatch pulls
    /// every event scheduled at the minimal instant (in FIFO order), so a
    /// burst of simultaneous arrivals costs one min-search instead of one
    /// per event.  Events the handlers schedule at that same instant carry
    /// later sequence numbers, so handling the run before them is exactly
    /// the single-pop order.
    pub fn run_to_idle(&mut self) -> SimTime {
        self.run_instants::<false>(SimTime::MAX);
        self.now()
    }

    /// Run until deliveries are pending (`true`) or no event at or before
    /// `limit` remains (`false`); events after `limit` stay pending.  This
    /// is what a control-plane driver wants: react to deliveries *at their
    /// simulated time* instead of after the whole event queue has drained —
    /// a teardown or a fault must take effect while later traffic is still
    /// in flight, not after it.
    ///
    /// Whole instants run at a time, and the run stops:
    ///
    /// * right after a delivery the driver must answer — one to a switch's
    ///   control plane, or a real-time-class frame without a channel (a
    ///   request or response) to a node.  The rest of that instant stays
    ///   pending, and whichever entry point runs next finishes it first;
    /// * otherwise at the end of an instant that delivered anything.
    ///
    /// A driver that answers each delivery as it is polled therefore acts
    /// at the same point of the event order as one that steps event by
    /// event: what it defers to the instant's end (RT data and best effort
    /// to a node) never reaches back into the simulation.
    pub fn run_until_delivery_before(&mut self, limit: SimTime) -> bool {
        !self.lane.deliveries.is_empty() || self.run_instants::<true>(limit)
    }

    /// Run until `limit` (inclusive); events after `limit` stay pending.
    /// Same-time runs are drained in one scheduler dispatch, as in
    /// [`Simulator::run_to_idle`].
    pub fn run_until(&mut self, limit: SimTime) {
        self.run_instants::<false>(limit);
    }

    /// The one run loop: the held rest of an interrupted run first, then
    /// whole same-time runs at or before `limit`.  `UNTIL_DELIVERY` applies
    /// the stop rule of [`Simulator::run_until_delivery_before`] and returns
    /// `true` at a stop; `false` means nothing is left at or before `limit`.
    #[inline]
    fn run_instants<const UNTIL_DELIVERY: bool>(&mut self, limit: SimTime) -> bool {
        if self.held() > 0 && self.now() > limit {
            return false;
        }
        loop {
            loop {
                let delivered = self.lane.deliveries.len();
                if !self.step_held() {
                    break;
                }
                if UNTIL_DELIVERY
                    && self.lane.deliveries.len() > delivered
                    && self.lane.deliveries.last().is_some_and(needs_answer)
                {
                    return true;
                }
            }
            if UNTIL_DELIVERY && !self.lane.deliveries.is_empty() {
                return true;
            }
            self.lane.frames.retire();
            self.run_next = 0;
            if self.lane.pop_run_until(limit, &mut self.run).is_none() {
                return false;
            }
        }
    }

    /// Drive the simulation with a pull-based [`TrafficSource`]: inject the
    /// source's frames window by window (so the frames held stay
    /// proportional to one window, not to the whole experiment), then drain
    /// the fabric.  Returns the final simulated time.  Each window's frames
    /// take fresh seqs (see [`TrafficSource`] for what that does to the
    /// order within an instant).
    pub fn run_with_source(
        &mut self,
        source: &mut dyn TrafficSource,
        window: Duration,
    ) -> RtResult<SimTime> {
        let window = if window == Duration::ZERO {
            Duration::from_millis(1)
        } else {
            window
        };
        let mut horizon = self.now() + window;
        loop {
            let batch = source.next_batch(horizon);
            self.inject_batch(batch)?;
            if source.is_exhausted() {
                return Ok(self.run_to_idle());
            }
            self.run_until(horizon);
            horizon += window;
        }
    }

    /// Process a single event — the next of an interrupted run, if one is
    /// held; returns `false` when nothing is pending.  A frame the event
    /// takes out of the fabric leaves the frame table at once (the run
    /// loops retire such frames at the end of each instant).
    pub fn step(&mut self) -> bool {
        if !self.step_held() {
            let Some((time, event)) = self.lane.pop() else {
                return false;
            };
            self.dispatch(time, event);
        }
        self.lane.frames.retire();
        true
    }

    /// Dispatch the next event of the held run; `false` if none is held.
    #[inline]
    fn step_held(&mut self) -> bool {
        let Some(event) = self.run.get(self.run_next).cloned() else {
            return false;
        };
        self.run_next += 1;
        self.dispatch(self.now(), event);
        true
    }

    /// Execute one event: a scripted fault, or the forwarding core's.
    #[inline]
    fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::FailTrunk { from, to } => self.dispatch_fault(LinkFault::Fail { from, to }),
            Event::RepairTrunk { from, to } => self.dispatch_fault(LinkFault::Repair { from, to }),
            Event::FailSwitch { switch } => self.dispatch_fault(LinkFault::FailSwitch { switch }),
            forwarding => self.with_core(|core| core.handle(now, forwarding)),
        }
    }

    /// The scripted faults of a [`FaultScript`].  Out of line: they are
    /// rare, and the run loops inline `dispatch`.
    fn dispatch_fault(&mut self, fault: LinkFault) {
        // A scripted cut of an already-failed (or unknown) trunk is a script
        // bug in debug builds; release builds ignore it rather than
        // corrupting the run.
        let result = self.apply_fault(fault);
        debug_assert!(result.is_ok(), "scripted {fault:?} failed: {result:?}");
    }

    /// Always 0: frames no longer travel through a buffer pool.  Kept, with
    /// [`Simulator::arena_stats`], only because the frozen `rtbench` links
    /// against it; both leave with the benchmark's `frames.arena.*` rows.
    #[doc(hidden)]
    pub fn arena_outstanding(&self) -> usize {
        0
    }

    /// Always the zero counters: see [`Simulator::arena_outstanding`].
    #[doc(hidden)]
    pub fn arena_stats(&self) -> rt_frames::ArenaStats {
        rt_frames::ArenaStats::default()
    }

    /// Convenience: the transmission time of a frame of `wire_bytes` bytes at
    /// the configured link speed.
    pub fn transmission_time(&self, wire_bytes: usize) -> Duration {
        self.fabric.tx_time(wire_bytes)
    }
}

/// The one-thread [`Simulator`] under the name the frozen `rtbench` links
/// against: its `netsim.shard.ns_per_event_2` kernel builds one with two
/// "shards", and the row reads one thread until ROADMAP 1(A)(3) drops it.
/// The shim leaves with the row, like the arena shims above.
#[doc(hidden)]
pub struct ShardedSimulator(Simulator);

impl ShardedSimulator {
    /// [`Simulator::with_topology`]; the shard count is ignored.
    pub fn new(config: SimConfig, topology: Topology, _shards: usize) -> RtResult<Self> {
        Simulator::with_topology(config, topology).map(ShardedSimulator)
    }
}

impl std::ops::Deref for ShardedSimulator {
    type Target = Simulator;
    fn deref(&self) -> &Simulator {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedSimulator {
    fn deref_mut(&mut self) -> &mut Simulator {
        &mut self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::switch::FRAME_TABLE_FLOOR;
    use rt_frames::rt_data::{DeadlineStamp, RtDataFrame, MAX_DEADLINE_VALUE};
    use rt_types::constants::ETHERTYPE_IPV4;
    use rt_types::{Ipv4Address, Xoshiro256};

    /// The paper's single-switch star over nodes `0..n`.
    fn star(config: SimConfig, n: u32) -> Simulator {
        Simulator::with_topology(
            config,
            Topology::star(SwitchId::new(0), (0..n).map(NodeId::new)),
        )
        .expect("a one-switch star is a valid topology")
    }

    pub(crate) fn be_frame(from: NodeId, to: NodeId, payload_len: usize) -> EthernetFrame {
        // A plain (non-RT) IPv4/UDP frame.
        let udp = rt_frames::UdpHeader::new(1000, 2000, payload_len).unwrap();
        let ip = rt_frames::Ipv4Header::udp(
            Ipv4Address::for_node(from),
            Ipv4Address::for_node(to),
            8 + payload_len,
        )
        .unwrap();
        let mut bytes = ip.encode();
        bytes.extend_from_slice(&udp.encode());
        bytes.extend(std::iter::repeat_n(0xa5u8, payload_len));
        EthernetFrame::new(
            MacAddr::for_node(to),
            MacAddr::for_node(from),
            ETHERTYPE_IPV4,
            bytes,
        )
        .unwrap()
    }

    pub(crate) fn rt_frame(
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

    #[test]
    fn single_frame_end_to_end_latency() {
        let config = SimConfig::default();
        let mut sim = star(config, 2);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let eth = be_frame(n0, n1, 1000);
        let wire = eth.wire_bytes();
        sim.inject(n0, eth, SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        assert_eq!(d.receiver, n1);
        assert_eq!(d.source, n0);
        // Two serialisations + two propagations + switch latency.
        let expected = config.link_speed.transmission_time(wire) * 2
            + config.propagation_delay * 2
            + config.switch_latency;
        assert_eq!(d.latency(), expected);
        assert_eq!(sim.stats().be_delivered, 1);
    }

    /// A CONNECT from `from` to the switch's control plane.
    fn request_frame(from: NodeId) -> EthernetFrame {
        rt_frames::RequestFrame {
            src_mac: MacAddr::for_node(from),
            dst_mac: MacAddr::for_node(NodeId::new(1)),
            src_ip: Ipv4Address::for_node(from),
            dst_ip: Ipv4Address::for_node(NodeId::new(1)),
            period: rt_types::Slots::new(100),
            capacity: rt_types::Slots::new(3),
            deadline: rt_types::Slots::new(40),
            rt_channel_id: None,
            connection_request_id: rt_types::ConnectionRequestId::new(1),
        }
        .into_ethernet(MacAddr::for_node(from), MacAddr::for_switch())
        .unwrap()
    }

    /// A link-state flood from `from` to the switch's control plane.
    fn link_state_frame(from: NodeId) -> EthernetFrame {
        rt_frames::ReservationFrame {
            op: rt_frames::ReservationOp::LinkState,
            reason: rt_frames::ReservationReason::None,
            coordinator: SwitchId::new(0),
            token: 1,
            source: from,
            destination: from,
            request_id: rt_types::ConnectionRequestId::new(0),
            candidate: 0,
            hop: 0,
            channel: None,
            period: rt_types::Slots::new(100),
            capacity: rt_types::Slots::new(1),
            deadline: rt_types::Slots::new(50),
            values: vec![0, 1, 0, 1],
        }
        .into_ethernet(MacAddr::for_node(from), MacAddr::for_switch())
        .unwrap()
    }

    #[test]
    fn control_frames_to_switch_are_delivered_to_control_plane() {
        let mut sim = star(SimConfig::default(), 2);
        let n0 = NodeId::new(0);
        // Two CONNECTs and two link-state floods: control-class on the wire
        // alike, counted apart.
        for at in [SimTime::ZERO, SimTime::from_micros(50)] {
            sim.inject(n0, request_frame(n0), at).unwrap();
            sim.inject(n0, link_state_frame(n0), at).unwrap();
        }
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 4);
        for d in &deliveries {
            assert_eq!(d.receiver, NodeId::SWITCH);
            assert_eq!(d.class, TrafficClass::RealTime);
        }
        let stats = sim.stats();
        assert_eq!((stats.control_frames, stats.link_state_frames), (2, 2));
        let summary = stats.summary();
        assert!(summary.contains("control=2") && summary.contains("link_state=2"));
    }

    #[test]
    fn switch_originated_frames_reach_the_node() {
        let mut sim = star(SimConfig::default(), 2);
        let n1 = NodeId::new(1);
        let resp = rt_frames::ResponseFrame {
            rt_channel_id: Some(ChannelId::new(1)),
            switch_mac: MacAddr::for_switch(),
            verdict: rt_frames::rt_response::ResponseVerdict::Accepted,
            connection_request_id: rt_types::ConnectionRequestId::new(1),
        };
        let eth = resp
            .into_ethernet(MacAddr::for_switch(), MacAddr::for_node(n1))
            .unwrap();
        sim.inject_at_switch(sim.manager_switch(), eth, SimTime::from_micros(10))
            .unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, n1);
        assert_eq!(deliveries[0].source, NodeId::SWITCH);
    }

    #[test]
    fn rt_frames_overtake_best_effort_on_the_uplink() {
        let mut sim = star(SimConfig::default(), 2);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        // Queue three large best-effort frames first, then one RT frame, all
        // at the same instant.
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(
                sim.inject(n0, be_frame(n0, n1, 1400), SimTime::ZERO)
                    .unwrap(),
            );
        }
        let rt_id = sim
            .inject(
                n0,
                rt_frame(n0, n1, 7, SimTime::from_millis(5), 100),
                SimTime::ZERO,
            )
            .unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 4);
        // The first best-effort frame wins the race only if it started
        // before the RT frame was enqueued; both were enqueued at the same
        // event time, and enqueue events are FIFO, so the first BE frame is
        // already on the wire.  The RT frame must then beat the remaining
        // two BE frames.
        let order: Vec<FrameId> = deliveries.iter().map(|d| d.frame).collect();
        let rt_pos = order.iter().position(|&f| f == rt_id).unwrap();
        assert!(
            rt_pos <= 1,
            "RT frame delivered at position {rt_pos}, order {order:?}"
        );
        assert!(sim.stats().all_deadlines_met());
    }

    #[test]
    fn deadline_misses_are_detected() {
        let mut sim = star(SimConfig::default(), 2);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        // An impossible deadline: 1 us for a full-size frame.
        sim.inject(
            n0,
            rt_frame(n0, n1, 3, SimTime::from_micros(1), 1400),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.stats().total_deadline_misses, 1);
        let ch = sim.stats().channel(ChannelId::new(3)).unwrap();
        assert_eq!(ch.deadline_misses, 1);
        assert_eq!(ch.delivered, 1);
    }

    #[test]
    fn downlink_congestion_from_two_sources() {
        // Both node 0 and node 1 send to node 2 at the same time: the two
        // uplinks run in parallel but the downlink serialises the frames.
        let config = SimConfig::default();
        let mut sim = star(config, 3);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let n2 = NodeId::new(2);
        sim.inject(n0, be_frame(n0, n2, 1400), SimTime::ZERO)
            .unwrap();
        sim.inject(n1, be_frame(n1, n2, 1400), SimTime::ZERO)
            .unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 2);
        let downlink = sim.stats().hop_link(HopLink::Downlink(n2)).unwrap();
        assert_eq!(downlink.frames, 2);
        // The second delivery is at least one transmission time after the
        // first (serialisation on the shared downlink).
        let t0 = deliveries[0].delivered_at;
        let t1 = deliveries[1].delivered_at;
        let gap = t1.saturating_duration_since(t0);
        let tx = config
            .link_speed
            .transmission_time(deliveries[1].eth.wire_bytes());
        assert!(gap >= tx, "gap {gap} smaller than tx time {tx}");
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let mut sim = star(SimConfig::default(), 2);
        let n0 = NodeId::new(0);
        let ghost = NodeId::new(99);
        sim.inject(n0, be_frame(n0, ghost, 100), SimTime::ZERO)
            .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 0);
        assert_eq!(sim.stats().unroutable_dropped, 1);
    }

    #[test]
    fn injection_errors() {
        let mut sim = star(SimConfig::default(), 1);
        let n0 = NodeId::new(0);
        let n9 = NodeId::new(9);
        assert!(sim.inject(n9, be_frame(n0, n0, 10), SimTime::ZERO).is_err());
        assert!(sim
            .inject_at_switch(SwitchId::new(9), be_frame(n0, n0, 10), SimTime::ZERO)
            .is_err());
        // A payload over the MTU is no Ethernet frame: its record could not
        // hold its wire size.
        let mut jumbo = be_frame(n0, n0, 10);
        jumbo.payload.resize(ETH_MTU_BYTES + 1, 0);
        assert!(matches!(
            sim.inject(n0, jumbo, SimTime::ZERO),
            Err(RtError::FrameEncode(_))
        ));
        assert_eq!(sim.injected_count(), 0);
        // Advance time, then try to inject in the past.
        sim.inject(n0, be_frame(n0, n0, 10), SimTime::from_micros(100))
            .unwrap();
        sim.run_to_idle();
        assert!(sim.now() >= SimTime::from_micros(100));
        assert!(sim.inject(n0, be_frame(n0, n0, 10), SimTime::ZERO).is_err());
        // The past-time error keeps its message shape (shared helper).
        let err = sim
            .inject(n0, be_frame(n0, n0, 10), SimTime::ZERO)
            .unwrap_err();
        assert!(err.to_string().contains("simulation time is already"));
        let err = sim
            .inject_at_switch(sim.manager_switch(), be_frame(n0, n0, 10), SimTime::ZERO)
            .unwrap_err();
        assert!(err.to_string().contains("simulation time is already"));
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let mut sim = star(SimConfig::default(), 2);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        sim.inject(n0, be_frame(n0, n1, 100), SimTime::from_millis(10))
            .unwrap();
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.poll_deliveries().len(), 0);
        assert!(sim.events_pending() > 0);
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn t_latency_is_hop_count_aware() {
        let config = SimConfig::default();
        let slot = config.link_speed.slot_duration();
        // Star: 2 links, 1 switch, 2 blocking slots.
        assert_eq!(
            config.t_latency_for_hops(2),
            config.propagation_delay * 2 + config.switch_latency + slot * 2
        );
        // A 3-switch line path: 4 links, 3 switches, 4 blocking slots.
        assert_eq!(
            config.t_latency_for_hops(4),
            config.propagation_delay * 4 + config.switch_latency * 3 + slot * 4
        );
        // Each extra hop adds exactly prop + switch latency + one slot.
        let per_hop = config.propagation_delay + config.switch_latency + slot;
        assert_eq!(
            config.t_latency_for_hops(3),
            config.t_latency_for_hops(2) + per_hop
        );
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let run = || {
            let mut sim = star(SimConfig::default(), 4);
            for i in 0..4u32 {
                for j in 0..4u32 {
                    if i != j {
                        let f = rt_frame(
                            NodeId::new(i),
                            NodeId::new(j),
                            (i * 4 + j) as u16,
                            SimTime::from_millis(2),
                            500,
                        );
                        sim.inject(
                            NodeId::new(i),
                            f,
                            SimTime::from_micros(u64::from(i * 7 + j)),
                        )
                        .unwrap();
                    }
                }
            }
            sim.run_to_idle();
            let d: Vec<(FrameId, SimTime)> = sim
                .poll_deliveries()
                .iter()
                .map(|d| (d.frame, d.delivered_at))
                .collect();
            d
        };
        assert_eq!(run(), run());
    }

    // --- fabric (multi-switch) behaviour ---------------------------------

    /// Two switches, one trunk, one node on each side.
    fn dumbbell_sim(config: SimConfig) -> Simulator {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(1)).unwrap();
        Simulator::with_topology(config, t).unwrap()
    }

    #[test]
    fn with_topology_validates_the_fabric() {
        // No switches.
        assert!(Simulator::with_topology(SimConfig::default(), Topology::new()).is_err());
        // Disconnected switches.
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        assert!(Simulator::with_topology(SimConfig::default(), t).is_err());
    }

    #[test]
    fn cross_switch_frame_crosses_the_trunk_with_per_hop_latency() {
        let config = SimConfig::default();
        let mut sim = dumbbell_sim(config);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let eth = be_frame(n0, n1, 1000);
        let wire = eth.wire_bytes();
        sim.inject(n0, eth, SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        // Three serialisations (uplink, trunk, downlink), three propagation
        // delays, two switch latencies.
        let expected = config.link_speed.transmission_time(wire) * 3
            + config.propagation_delay * 3
            + config.switch_latency * 2;
        assert_eq!(deliveries[0].latency(), expected);
        // The trunk recorded exactly one transmission.
        let trunk = sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            })
            .unwrap();
        assert_eq!(trunk.frames, 1);
        // The reverse trunk direction carried nothing.
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(0),
            })
            .is_none());
    }

    #[test]
    fn same_switch_traffic_never_touches_the_trunk() {
        let config = SimConfig::default();
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(0)).unwrap();
        let mut sim = Simulator::with_topology(config, t).unwrap();
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), NodeId::new(1), 500),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            })
            .is_none());
    }

    #[test]
    fn control_plane_reaches_the_manager_switch_across_trunks() {
        // Node 1 lives on switch 1; the manager is switch 0.  A request
        // addressed to the switch MAC must cross the trunk and be delivered
        // to the control plane, and a response injected from the manager
        // must cross back.
        let mut sim = dumbbell_sim(SimConfig::default());
        let n1 = NodeId::new(1);
        assert_eq!(sim.manager_switch(), SwitchId::new(0));
        let req = rt_frames::RequestFrame {
            src_mac: MacAddr::for_node(n1),
            dst_mac: MacAddr::for_node(NodeId::new(0)),
            src_ip: Ipv4Address::for_node(n1),
            dst_ip: Ipv4Address::for_node(NodeId::new(0)),
            period: rt_types::Slots::new(100),
            capacity: rt_types::Slots::new(3),
            deadline: rt_types::Slots::new(40),
            rt_channel_id: None,
            connection_request_id: rt_types::ConnectionRequestId::new(2),
        };
        let eth = req
            .into_ethernet(MacAddr::for_node(n1), MacAddr::for_switch())
            .unwrap();
        sim.inject(n1, eth, SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, NodeId::SWITCH);
        // The request crossed the sw1 -> sw0 trunk direction.
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(0),
            })
            .is_some());

        // Response back out to node 1 crosses sw0 -> sw1.
        let resp = rt_frames::ResponseFrame {
            rt_channel_id: Some(ChannelId::new(4)),
            switch_mac: MacAddr::for_switch(),
            verdict: rt_frames::rt_response::ResponseVerdict::Accepted,
            connection_request_id: rt_types::ConnectionRequestId::new(2),
        };
        let eth = resp
            .into_ethernet(MacAddr::for_switch(), MacAddr::for_node(n1))
            .unwrap();
        sim.inject_at_switch(sim.manager_switch(), eth, sim.now())
            .unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, n1);
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            })
            .is_some());
    }

    #[test]
    fn per_hop_schedule_orders_the_trunk_queue() {
        // Two RT channels share the trunk.  Channel 1's frame is stamped
        // with a LATER end-to-end deadline but registered with a TIGHTER
        // trunk budget; with per-hop scheduling it must win the trunk.
        let config = SimConfig::default();
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        for n in 0..3 {
            t.attach_node(NodeId::new(n), SwitchId::new(0)).unwrap();
        }
        for n in 3..5 {
            t.attach_node(NodeId::new(n), SwitchId::new(1)).unwrap();
        }
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        let run = |with_schedule: bool| -> Vec<u16> {
            let mut sim = Simulator::with_topology(config, t.clone()).unwrap();
            if with_schedule {
                // Channel 1 gets a tight trunk budget, channel 2 a loose one
                // (offsets are from injection time).
                sim.set_channel_hop_schedule(
                    ChannelId::new(1),
                    [(trunk, Duration::from_micros(200))],
                );
                sim.set_channel_hop_schedule(
                    ChannelId::new(2),
                    [(trunk, Duration::from_micros(900))],
                );
            }
            // A best-effort blocker occupies the trunk first, so both RT
            // frames are waiting in the trunk's EDF queue when it frees.
            // All three frames are injected at the same instant on three
            // distinct uplinks and have identical sizes, so they reach the
            // trunk simultaneously; FIFO event order enqueues the blocker
            // first.
            sim.inject(
                NodeId::new(0),
                be_frame(NodeId::new(0), NodeId::new(3), 1400),
                SimTime::ZERO,
            )
            .unwrap();
            // Channel 2 is stamped with the EARLIER end-to-end deadline.
            sim.inject(
                NodeId::new(1),
                rt_frame(
                    NodeId::new(1),
                    NodeId::new(3),
                    2,
                    SimTime::from_micros(800),
                    1400,
                ),
                SimTime::ZERO,
            )
            .unwrap();
            sim.inject(
                NodeId::new(2),
                rt_frame(
                    NodeId::new(2),
                    NodeId::new(4),
                    1,
                    SimTime::from_micros(900),
                    1400,
                ),
                SimTime::ZERO,
            )
            .unwrap();
            sim.run_to_idle();
            sim.poll_deliveries()
                .iter()
                .filter_map(|d| d.channel.map(|c| c.get()))
                .collect()
        };
        // Without per-hop schedules, the end-to-end stamps decide: channel 2
        // (earlier stamp) crosses the trunk first.
        assert_eq!(run(false), vec![2, 1]);
        // With per-hop schedules, channel 1's tighter trunk budget wins.
        assert_eq!(run(true), vec![1, 2]);
    }

    #[test]
    fn mesh_frames_take_the_shortest_path_by_default() {
        // Ring of 4 switches, one node each: node 0 -> node 3 must use the
        // closing trunk (1 trunk hop), not the 3-hop line path.
        let config = SimConfig::default();
        let mut sim = Simulator::with_topology(config, Topology::ring(4, 1)).unwrap();
        let eth = be_frame(NodeId::new(0), NodeId::new(3), 600);
        let wire = eth.wire_bytes();
        sim.inject(NodeId::new(0), eth, SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        // 3 links (uplink, closing trunk, downlink), 2 switches.
        let expected = config.link_speed.transmission_time(wire) * 3
            + config.propagation_delay * 3
            + config.switch_latency * 2;
        assert_eq!(deliveries[0].latency(), expected);
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(3),
            })
            .is_some());
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            })
            .is_none());
    }

    #[test]
    fn installed_route_overrides_the_next_hop_table() {
        // Pin an RT channel to the LONG way around the ring; its frames
        // must follow the installed route while unpinned traffic still
        // takes the short way.
        let mut sim = Simulator::with_topology(SimConfig::default(), Topology::ring(4, 1)).unwrap();
        let long_way = Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(2),
            },
            HopLink::Trunk {
                from: SwitchId::new(2),
                to: SwitchId::new(3),
            },
            HopLink::Downlink(NodeId::new(3)),
        ])
        .unwrap();
        sim.set_channel_route(ChannelId::new(9), &long_way);
        sim.inject(
            NodeId::new(0),
            rt_frame(
                NodeId::new(0),
                NodeId::new(3),
                9,
                SimTime::from_millis(10),
                500,
            ),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
        for (from, to) in [(0u32, 1u32), (1, 2), (2, 3)] {
            assert!(
                sim.stats()
                    .hop_link(HopLink::Trunk {
                        from: SwitchId::new(from),
                        to: SwitchId::new(to),
                    })
                    .is_some(),
                "pinned route must cross sw{from}->sw{to}"
            );
        }
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(3),
            })
            .is_none());
        // Tear-down forgets the pin: the next frame takes the short way.
        sim.clear_channel_hop_schedule(ChannelId::new(9));
        sim.inject(
            NodeId::new(0),
            rt_frame(
                NodeId::new(0),
                NodeId::new(3),
                9,
                SimTime::from_millis(20),
                500,
            ),
            sim.now(),
        )
        .unwrap();
        sim.run_to_idle();
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(3),
            })
            .is_some());
    }

    #[test]
    fn with_router_runs_the_capability_check() {
        use rt_types::RoutePolicy;
        use std::sync::Arc;
        let tree_policy = || Arc::new(ShortestPathRouter::with_policy(RoutePolicy::Tree));
        // A tree-policy simulator refuses a cyclic fabric...
        assert!(
            Simulator::with_router(SimConfig::default(), Topology::ring(4, 1), tree_policy())
                .is_err()
        );
        // ...but accepts a line, and produces the same next-hop table as
        // the default shortest-path router (unique paths on a tree).
        let tree =
            Simulator::with_router(SimConfig::default(), Topology::line(3, 1), tree_policy())
                .unwrap();
        let shortest =
            Simulator::with_topology(SimConfig::default(), Topology::line(3, 1)).unwrap();
        let table = |sim: &Simulator| sim.router().next_hop_table(sim.topology());
        assert_eq!(*table(&tree), *table(&shortest));
        assert_eq!(tree.router().name(), "tree");
    }

    #[test]
    fn line_topology_delivers_across_many_switches() {
        let config = SimConfig::default();
        let t = Topology::line(4, 1); // node k on switch k
        let mut sim = Simulator::with_topology(config, t).unwrap();
        let eth = be_frame(NodeId::new(0), NodeId::new(3), 400);
        let wire = eth.wire_bytes();
        sim.inject(NodeId::new(0), eth, SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, NodeId::new(3));
        // 5 links (uplink + 3 trunks + downlink), 4 switches.
        let expected = config.link_speed.transmission_time(wire) * 5
            + config.propagation_delay * 5
            + config.switch_latency * 4;
        assert_eq!(deliveries[0].latency(), expected);
    }

    // --- scheduler wiring, batching, sources ------------------------------

    /// 200 RT frames from six nodes, three microseconds apart: a dense
    /// calendar with many same-instant events (debug builds check every pop
    /// of it against the reference heap).
    #[test]
    fn a_busy_star_delivers_everything_in_time_order() {
        let mut sim = star(SimConfig::default(), 6);
        for k in 0..200u64 {
            let src = NodeId::new((k % 6) as u32);
            let dst = NodeId::new(((k + 3) % 6) as u32);
            sim.inject(
                src,
                rt_frame(src, dst, (k % 9) as u16 + 1, SimTime::from_millis(50), 800),
                SimTime::from_micros(k * 3),
            )
            .unwrap();
        }
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 200);
        assert!(deliveries
            .windows(2)
            .all(|pair| pair[0].delivered_at <= pair[1].delivered_at));
    }

    /// 10 000 frames between nodes 0 and 1, both ways, 2 µs apart: RT data
    /// on channel 0 and at the 48-bit maximum deadline, a request, a
    /// link-state flood and best effort, in turn.
    fn mixed_batch(from: SimTime) -> Vec<FrameInjection> {
        (0..10_000u64)
            .map(|k| {
                let (node, to) = (NodeId::new((k % 2) as u32), NodeId::new(1 - (k % 2) as u32));
                let at = from + Duration::from_micros(2 * k);
                let eth = match k % 5 {
                    0 => rt_frame(node, to, 0, at + Duration::from_micros(300), 64),
                    1 => rt_frame(node, to, 9, SimTime::from_nanos(MAX_DEADLINE_VALUE), 64),
                    2 => request_frame(node),
                    3 => link_state_frame(node),
                    _ => be_frame(node, to, 200),
                };
                FrameInjection { node, eth, at }
            })
            .collect()
    }

    /// What a refused batch must leave as it was.
    fn untouched(sim: &Simulator) -> (u64, usize, u64, u64) {
        let stats = sim.stats();
        (
            sim.injected_count(),
            sim.events_pending(),
            stats.control_frames,
            stats.link_state_frames,
        )
    }

    #[test]
    fn inject_batch_matches_individual_injection() {
        let batch = mixed_batch(SimTime::ZERO);
        let mut singles = star(SimConfig::default(), 2);
        for FrameInjection { node, eth, at } in batch.clone() {
            singles.inject(node, eth, at).unwrap();
        }
        let mut batched = star(SimConfig::default(), 2);
        let ids = batched.inject_batch(batch).unwrap();
        assert_eq!(ids, FrameId::new(0)..FrameId::new(10_000));
        assert_eq!(untouched(&batched), untouched(&singles));
        let run = |sim: &mut Simulator| {
            sim.run_to_idle();
            sim.poll_deliveries()
        };
        let expected = run(&mut singles);
        let latest = Some(SimTime::from_nanos(MAX_DEADLINE_VALUE));
        assert!(expected
            .iter()
            .any(|d| d.channel == Some(ChannelId::new(0))));
        assert!(expected.iter().any(|d| d.deadline == latest));
        // `Delivery` has no `PartialEq`: every field, bytes included, is
        // compared in its `Debug` form.
        let fields = |deliveries: Vec<Delivery>| -> Vec<String> {
            deliveries.iter().map(|d| format!("{d:?}")).collect()
        };
        assert_eq!(fields(run(&mut batched)), fields(expected));
        assert_eq!(batched.stats().summary(), singles.stats().summary());
    }

    /// A bad last entry fails a whole 10 000-frame batch atomically: no id
    /// used, no control or link-state frame counted, no event pending, so
    /// a corrected retry cannot duplicate the earlier frames.  The second
    /// refusal comes mid-run, once frames have left the front of the frame
    /// table and others are still in flight: the table keeps its base and
    /// its frames, and the retry's ids start at the old end.
    #[test]
    fn a_refused_batch_leaves_the_simulation_as_it_was() {
        let mut sim = star(SimConfig::default(), 2);
        let mut batch = mixed_batch(SimTime::ZERO);
        batch.last_mut().unwrap().node = NodeId::new(77);
        let before = untouched(&sim);
        assert!(matches!(
            sim.inject_batch(batch.clone()),
            Err(RtError::UnknownNode(_))
        ));
        assert_eq!(untouched(&sim), before);
        batch.last_mut().unwrap().node = NodeId::new(0);
        let ids = sim.inject_batch(batch).unwrap();
        assert_eq!(
            ids.start,
            FrameId::new(0),
            "no ghost frames from the refusal"
        );
        sim.run_until(SimTime::from_millis(10));
        let (base, held) = frame_table(&sim);
        assert!(base > 0 && held > 0, "{base} frames left, {held} held");

        let mut late = mixed_batch(sim.now());
        late.last_mut().unwrap().at = SimTime::ZERO;
        let before = untouched(&sim);
        assert!(sim.inject_batch(late.clone()).is_err());
        assert_eq!(untouched(&sim), before);
        assert_eq!(frame_table(&sim), (base, held));
        late.last_mut().unwrap().at = sim.now() + Duration::from_millis(50);
        let ids = sim.inject_batch(late).unwrap();
        assert_eq!(ids, FrameId::new(10_000)..FrameId::new(20_000));
        sim.run_to_idle();
        let stats = sim.stats();
        assert_eq!(
            sim.injected_count(),
            stats.total_delivered() + stats.total_dropped()
        );
        assert_eq!(frame_table(&sim), (20_000, 0));
    }

    /// The frame table's base, the id of its first frame, and how many
    /// frames it holds from it on.
    pub(crate) fn frame_table(sim: &Simulator) -> (u64, usize) {
        sim.lane.frames.held()
    }

    /// A source that emits one frame every `period`, pull-driven.
    struct EveryPeriod {
        next_at: SimTime,
        period: Duration,
        remaining: u32,
    }

    impl TrafficSource for EveryPeriod {
        fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
            let mut out = Vec::new();
            while self.remaining > 0 && self.next_at < horizon {
                out.push(FrameInjection {
                    node: NodeId::new(0),
                    eth: be_frame(NodeId::new(0), NodeId::new(1), 200),
                    at: self.next_at,
                });
                self.next_at += self.period;
                self.remaining -= 1;
            }
            out
        }

        fn is_exhausted(&self) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn run_with_source_delivers_the_whole_workload() {
        let mut sim = star(SimConfig::default(), 2);
        let mut source = EveryPeriod {
            next_at: SimTime::from_micros(100),
            period: Duration::from_micros(400),
            remaining: 50,
        };
        let end = sim
            .run_with_source(&mut source, Duration::from_millis(2))
            .unwrap();
        assert!(source.is_exhausted());
        assert_eq!(sim.poll_deliveries().len(), 50);
        assert!(end >= SimTime::from_micros(100 + 49 * 400));
        assert_eq!(sim.events_pending(), 0);
    }

    /// Best effort from node 0 to node 1 of a star, frame `k` at `20·k` µs
    /// with a payload of `46 + k % 64` bytes: two or three frames in flight
    /// at a time, leaving in id order.
    fn stream(ids: Range<u64>) -> Vec<FrameInjection> {
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        ids.map(|k| FrameInjection {
            node: from,
            eth: be_frame(from, to, 46 + (k % 64) as usize),
            at: SimTime::ZERO + Duration::from_micros(20 * k),
        })
        .collect()
    }

    /// Every delivery of a `stream` carries its frame's own bytes.
    fn assert_stream_delivered(deliveries: &[Delivery], frames: u64) {
        let mut ids: Vec<u64> = deliveries.iter().map(|d| d.frame.get()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..frames).collect::<Vec<_>>());
        for d in deliveries {
            let k = d.frame.get();
            assert_eq!(d.eth, stream(k..k + 1).remove(0).eth, "frame {k}");
        }
    }

    /// A run through any entry point leaves the frame table holding the
    /// frames in flight and nothing else: 10 000 frames of a `stream`, fed
    /// a millisecond at a time to `run_until`, `run_until_delivery_before`
    /// and `step` (checked after every millisecond), or all at once to
    /// `run_to_idle` and through a `TrafficSource` to `run_with_source`.
    /// Each run ends with an empty table at base 10 000 whose storage is back
    /// within the floor, where a table of every frame ever injected would
    /// hold 10 000 slots.
    #[test]
    fn every_entry_point_leaves_the_frame_table_holding_what_is_in_flight() {
        const FRAMES: u64 = 10_000;
        const WINDOW: u64 = 50;
        type Advance = fn(&mut Simulator, SimTime, &mut Vec<Delivery>);
        let windowed: [(&str, Advance); 3] = [
            ("run_until", |sim, end, _| sim.run_until(end)),
            ("run_until_delivery_before", |sim, end, delivered| {
                while sim.run_until_delivery_before(end) {
                    sim.poll_deliveries_into(delivered);
                }
            }),
            ("step", |sim, end, _| {
                while sim.next_event_time().is_some_and(|t| t <= end) {
                    sim.step();
                }
            }),
        ];
        for (name, advance) in windowed {
            let mut sim = star(SimConfig::default(), 2);
            let mut delivered = Vec::new();
            for window in 0..FRAMES / WINDOW {
                let ids = window * WINDOW..(window + 1) * WINDOW;
                let end = SimTime::ZERO + Duration::from_micros(20 * ids.end);
                sim.inject_batch(stream(ids)).unwrap();
                advance(&mut sim, end, &mut delivered);
                let (_, held) = frame_table(&sim);
                assert_eq!(held, sim.lane.frames.in_flight(), "{name}: by {end}");
                assert!(sim.lane.frames.capacity() <= FRAME_TABLE_FLOOR, "{name}");
            }
            advance(&mut sim, SimTime::MAX, &mut delivered);
            sim.poll_deliveries_into(&mut delivered);
            assert_stream_delivered(&delivered, FRAMES);
            assert_eq!(frame_table(&sim), (FRAMES, 0), "{name}");
        }

        let mut sim = star(SimConfig::default(), 2);
        sim.inject_batch(stream(0..FRAMES)).unwrap();
        assert_eq!(frame_table(&sim), (0, FRAMES as usize));
        sim.run_to_idle();
        assert_stream_delivered(&sim.poll_deliveries(), FRAMES);
        assert_eq!(frame_table(&sim), (FRAMES, 0), "run_to_idle");
        assert!(
            sim.lane.frames.capacity() <= FRAME_TABLE_FLOOR,
            "run_to_idle"
        );

        struct Stream(Range<u64>);
        impl TrafficSource for Stream {
            fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
                let due = (horizon.as_nanos().div_ceil(20_000)).min(self.0.end);
                let batch = stream(self.0.start.min(due)..due);
                self.0.start = self.0.start.max(due);
                batch
            }
            fn is_exhausted(&self) -> bool {
                self.0.is_empty()
            }
        }
        let mut sim = star(SimConfig::default(), 2);
        let window = Duration::from_millis(1);
        sim.run_with_source(&mut Stream(0..FRAMES), window).unwrap();
        assert_stream_delivered(&sim.poll_deliveries(), FRAMES);
        assert_eq!(frame_table(&sim), (FRAMES, 0), "run_with_source");
        assert!(
            sim.lane.frames.capacity() <= FRAME_TABLE_FLOOR,
            "run_with_source"
        );
    }

    /// A frame still in flight holds the front of the frame table while the
    /// frames behind it leave: frame 100 of a 10 000-frame `stream` is filed
    /// at 500 ms instead, after the rest have gone.  At 300 ms the table
    /// starts at it and keeps the 9 899 frames behind it, every one of them
    /// delivered with its own bytes; then it leaves, byte-exact, and the
    /// table empties.
    #[test]
    fn a_lingering_frame_holds_the_front_while_later_frames_leave() {
        let mut sim = star(SimConfig::default(), 2);
        sim.inject_batch(stream(0..100)).unwrap();
        let mut lingering = stream(100..101).remove(0);
        lingering.at = SimTime::from_millis(500);
        let id = sim
            .inject(lingering.node, lingering.eth.clone(), lingering.at)
            .unwrap();
        assert_eq!(id, FrameId::new(100));
        sim.inject_batch(stream(101..10_000)).unwrap();

        sim.run_until(SimTime::from_millis(300));
        assert_eq!(frame_table(&sim), (100, 9_900));
        assert_eq!(sim.lane.frames.in_flight(), 1);
        let early = sim.poll_deliveries();
        assert_eq!(early.len(), 9_999);
        assert!(early.iter().all(|d| d.frame != id));

        sim.run_to_idle();
        let [last] = &sim.poll_deliveries()[..] else {
            panic!("only the lingering frame is left");
        };
        assert_eq!((last.frame, last.injected_at), (id, lingering.at));
        assert_eq!(last.eth, lingering.eth);
        let mut all = early;
        all.push(last.clone());
        assert_stream_delivered(&all, 10_000);
        assert_eq!(frame_table(&sim), (10_000, 0));
        assert!(sim.lane.frames.capacity() <= FRAME_TABLE_FLOOR);
    }

    /// Seeds of the seeded properties: `RT_ADVERSARIAL_SEEDS`, else 8.
    pub(crate) fn seeds() -> u64 {
        std::env::var("RT_ADVERSARIAL_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8)
    }

    /// One step of a script of injections, faults and run slices.
    enum Op {
        /// Frames, injected as one batch or one by one.
        Inject(Vec<FrameInjection>),
        Fault(SimTime, LinkFault),
        /// Run to this instant through the entry point under test.
        Advance(SimTime),
    }

    /// The fabric of the deferred-batch property: four switches in a ring,
    /// two nodes each, so a cut trunk reroutes.
    fn ring() -> Simulator {
        Simulator::with_topology(SimConfig::default(), Topology::ring(4, 2)).unwrap()
    }

    /// A seeded script for `ring`: rounds of one to three batches, the later
    /// ones overlapping the first in time, each round ended by a run slice.
    /// Frame times sit on a grid of one best-effort transmission and mostly
    /// leave nodes 0 and 1, so injections tie with each other and with the
    /// ends of transmissions on their uplinks; one frame in eight goes back
    /// below the batch's tail (never below the last slice's end).  Trunk 0 —
    /// 1 is cut, repaired and cut again, each fault at an injection
    /// instant, scheduled before or after the batch holding that instant.
    fn deferred_script(rng: &mut Xoshiro256) -> Vec<Op> {
        let grid =
            ring().transmission_time(be_frame(NodeId::new(0), NodeId::new(1), 180).wire_bytes());
        let trunk = (SwitchId::new(0), SwitchId::new(1));
        let mut ops = Vec::new();
        let (mut from, mut faults, mut last_fault) = (SimTime::ZERO, 0, SimTime::ZERO);
        for _ in 0..rng.range_inclusive(3, 6) {
            for _ in 0..rng.range_inclusive(1, 3) {
                let mut tail = from + grid * rng.below(4);
                let mut batch = Vec::new();
                for _ in 0..rng.range_inclusive(1, 60) {
                    tail += grid * rng.below(3);
                    let at = match rng.below(8) {
                        0 => {
                            let back = grid * rng.range_inclusive(1, 5);
                            tail - back.min(tail.saturating_duration_since(from))
                        }
                        _ => tail,
                    };
                    let node = NodeId::new(match rng.below(4) {
                        0 => rng.below(8) as u32,
                        _ => rng.below(2) as u32,
                    });
                    let to = NodeId::new((node.get() + 1 + rng.below(7) as u32) % 8);
                    let eth = match rng.below(4) {
                        0 => {
                            let deadline = at + Duration::from_micros(rng.range_inclusive(40, 400));
                            rt_frame(node, to, rng.below(3) as u16, deadline, 160)
                        }
                        1 => request_frame(node),
                        _ => be_frame(node, to, 180),
                    };
                    batch.push(FrameInjection { node, eth, at });
                }
                let mut fault = batch
                    .iter()
                    .map(|f| f.at)
                    .find(|&at| at > last_fault && faults < 3 && rng.below(3) == 0)
                    .map(|at| {
                        last_fault = at;
                        faults += 1;
                        let (from, to) = trunk;
                        match faults {
                            2 => Op::Fault(at, LinkFault::Repair { from, to }),
                            _ => Op::Fault(at, LinkFault::Fail { from, to }),
                        }
                    });
                let before = rng.below(2) == 0;
                ops.extend(fault.take_if(|_| before));
                ops.push(Op::Inject(batch));
                ops.extend(fault);
            }
            from += grid * rng.range_inclusive(1, 40);
            ops.push(Op::Advance(from));
        }
        ops.push(Op::Advance(SimTime::MAX));
        ops
    }

    /// What a driver sees after a slice: the clock, both event counters,
    /// the next event's time and every field of the deliveries since the
    /// last slice.
    fn slice(sim: &mut Simulator) -> String {
        format!(
            "{} {} {} {:?} {:?}",
            sim.now(),
            sim.events_processed(),
            sim.events_pending(),
            sim.next_event_time(),
            sim.poll_deliveries()
        )
    }

    type Advance = fn(&mut Simulator, SimTime, &mut Vec<String>);

    /// Replay `ops` on `ring`, each `Inject` as one batch or frame by frame,
    /// each slice through `advance`: what a driver sees after every slice,
    /// then the statistics.
    fn replay(ops: &[Op], batched: bool, advance: Advance) -> Vec<String> {
        let mut sim = ring();
        let mut seen = Vec::new();
        for op in ops {
            match op {
                Op::Inject(frames) if batched => _ = sim.inject_batch(frames.clone()).unwrap(),
                Op::Inject(frames) => {
                    for f in frames.clone() {
                        sim.inject(f.node, f.eth, f.at).unwrap();
                    }
                }
                Op::Fault(at, fault) => sim.schedule_fault(*at, *fault).unwrap(),
                Op::Advance(limit) => {
                    advance(&mut sim, *limit, &mut seen);
                    seen.push(slice(&mut sim));
                }
            }
        }
        seen.push(format!("{:?}", sim.stats()));
        seen
    }

    /// The frames of `ops`, fed to `run_with_source` a window at a time as
    /// one batch each, or injected frame by frame by the same loop written
    /// out; the faults are scheduled up front.  The whole run's deliveries,
    /// counters and statistics.
    fn replay_source(ops: &[Op], batched: bool) -> String {
        struct Frames(Vec<FrameInjection>);
        impl TrafficSource for Frames {
            fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
                let (due, later) = std::mem::take(&mut self.0)
                    .into_iter()
                    .partition(|f| f.at < horizon);
                self.0 = later;
                due
            }
            fn is_exhausted(&self) -> bool {
                self.0.is_empty()
            }
        }
        let mut source = Frames(Vec::new());
        let mut sim = ring();
        for op in ops {
            match op {
                Op::Inject(frames) => source.0.extend(frames.iter().cloned()),
                Op::Fault(at, fault) => sim.schedule_fault(*at, *fault).unwrap(),
                Op::Advance(_) => {}
            }
        }
        let window = Duration::from_micros(50);
        if batched {
            sim.run_with_source(&mut source, window).unwrap();
        } else {
            let mut horizon = sim.now() + window;
            loop {
                for f in source.next_batch(horizon) {
                    sim.inject(f.node, f.eth, f.at).unwrap();
                }
                if source.is_exhausted() {
                    sim.run_to_idle();
                    break;
                }
                sim.run_until(horizon);
                horizon += window;
            }
        }
        format!("{} {:?}", slice(&mut sim), sim.stats())
    }

    /// A deferred batch runs exactly as its frames injected one by one: on
    /// seeded scripts of `deferred_script` (equal-time ties, frames going
    /// back, overlapping batches, batches filed between slices, a trunk cut
    /// at an injection instant), driven through `run_to_idle`, `run_until`,
    /// `run_until_delivery_before`, `step` and `run_with_source`, every
    /// field of every delivery, the statistics and both event counters
    /// agree, and so do `events_pending()` and `next_event_time()` after
    /// every slice.
    #[test]
    fn prop_deferred_batches_match_injection_one_by_one() {
        let entry_points: [(&str, Advance); 4] = [
            ("run_to_idle", |sim, limit, _| {
                if limit == SimTime::MAX {
                    sim.run_to_idle();
                }
            }),
            ("run_until", |sim, limit, _| sim.run_until(limit)),
            ("run_until_delivery_before", |sim, limit, seen| {
                while sim.run_until_delivery_before(limit) {
                    seen.push(slice(sim));
                }
            }),
            ("step", |sim, limit, seen| {
                while sim.next_event_time().is_some_and(|t| t <= limit) {
                    assert!(sim.step());
                    seen.push(slice(sim));
                }
            }),
        ];
        for seed in 0..seeds() {
            let ops = deferred_script(&mut Xoshiro256::new(seed));
            for (name, advance) in entry_points {
                let (batched, single) = (replay(&ops, true, advance), replay(&ops, false, advance));
                assert_eq!(batched.len(), single.len(), "seed {seed}, {name}: slices");
                for (at, (b, s)) in batched.iter().zip(&single).enumerate() {
                    assert_eq!(b, s, "seed {seed}, {name}: slice {at}");
                }
            }
            assert_eq!(
                replay_source(&ops, true),
                replay_source(&ops, false),
                "seed {seed}, run_with_source"
            );
        }
    }

    /// A star of six nodes: nodes 0, 1 and 2 send one request each to the
    /// switch at time zero, so their three arrivals at the control plane
    /// make up one instant; node 3 sends best effort to node 4 beside them.
    fn three_requests_in_one_instant() -> Simulator {
        let mut sim = star(SimConfig::default(), 6);
        for n in 0..3 {
            let node = NodeId::new(n);
            let req = rt_frames::RequestFrame {
                src_mac: MacAddr::for_node(node),
                dst_mac: MacAddr::for_node(NodeId::new(5)),
                src_ip: Ipv4Address::for_node(node),
                dst_ip: Ipv4Address::for_node(NodeId::new(5)),
                period: rt_types::Slots::new(100),
                capacity: rt_types::Slots::new(3),
                deadline: rt_types::Slots::new(40),
                rt_channel_id: None,
                connection_request_id: rt_types::ConnectionRequestId::new(1),
            };
            let eth = req
                .into_ethernet(MacAddr::for_node(node), MacAddr::for_switch())
                .unwrap();
            sim.inject(node, eth, SimTime::ZERO).unwrap();
        }
        let (a, b) = (NodeId::new(3), NodeId::new(4));
        sim.inject(a, be_frame(a, b, 40), SimTime::ZERO).unwrap();
        sim
    }

    /// What a driver sees of a simulator: the clock, the exact event
    /// counters and the frames polled so far, with their receivers.
    fn observed(sim: &mut Simulator, polled: &mut Vec<(FrameId, NodeId)>) -> (SimTime, u64, usize) {
        polled.extend(sim.poll_deliveries().iter().map(|d| (d.frame, d.receiver)));
        (sim.now(), sim.events_processed(), sim.events_pending())
    }

    /// `run_until_delivery_before` stops right after the first request
    /// reaches the control plane, with the other two arrivals of that
    /// instant held: the clock and both counters read exactly as after
    /// stepping event by event to the same delivery.  From there `step`,
    /// `run_until`, `run_to_idle` and `run_until_delivery_before` each
    /// finish the held arrivals first, in order, and agree with the
    /// one-event oracle at every stop.
    #[test]
    fn a_run_stopped_mid_instant_is_finished_first_by_every_entry_point() {
        let mut oracle = three_requests_in_one_instant();
        let mut oracle_polled = Vec::new();
        while oracle.lane.deliveries.is_empty() {
            assert!(oracle.step());
        }
        let at_stop = observed(&mut oracle, &mut oracle_polled);

        let interrupted = || {
            let mut sim = three_requests_in_one_instant();
            let mut polled = Vec::new();
            assert!(sim.run_until_delivery_before(SimTime::MAX));
            assert_eq!(sim.held(), 2, "two arrivals of the instant are held");
            let state = observed(&mut sim, &mut polled);
            (sim, polled, state)
        };
        let (_, polled, state) = interrupted();
        assert_eq!(state, at_stop, "(now, processed, pending) at the stop");
        assert_eq!(polled, oracle_polled);
        assert_eq!(polled[0].1, NodeId::SWITCH);

        // `step`: the next held arrival, and nothing else.
        let (mut sim, mut polled, _) = interrupted();
        let mut oracle = three_requests_in_one_instant();
        let mut oracle_polled = Vec::new();
        for _ in 0..at_stop.1 + 1 {
            oracle.step();
        }
        assert!(sim.step());
        assert_eq!(
            observed(&mut sim, &mut polled),
            observed(&mut oracle, &mut oracle_polled)
        );
        assert_eq!(polled, oracle_polled);
        assert_eq!(polled.len(), 2);

        // `run_until_delivery_before` again: stops after the second request.
        let (mut sim, mut polled, _) = interrupted();
        assert!(sim.run_until_delivery_before(SimTime::MAX));
        assert_eq!(
            observed(&mut sim, &mut polled),
            observed(&mut oracle, &mut Vec::new())
        );
        assert_eq!(polled, oracle_polled);

        // `run_until` the stop instant: the whole held rest, and no more.
        let (mut sim, mut polled, _) = interrupted();
        sim.run_until(at_stop.0);
        let mut oracle = three_requests_in_one_instant();
        let mut oracle_polled = Vec::new();
        while oracle.next_event_time().is_some_and(|t| t <= at_stop.0) {
            oracle.step();
        }
        assert_eq!(
            observed(&mut sim, &mut polled),
            observed(&mut oracle, &mut oracle_polled)
        );
        assert_eq!(polled, oracle_polled);
        assert_eq!(
            polled.len(),
            3,
            "the three requests, none of the best effort"
        );

        // `run_to_idle`: everything, in the one-event order.
        let (mut sim, mut polled, _) = interrupted();
        sim.run_to_idle();
        let mut oracle = three_requests_in_one_instant();
        let mut oracle_polled = Vec::new();
        while oracle.step() {}
        assert_eq!(
            observed(&mut sim, &mut polled),
            observed(&mut oracle, &mut oracle_polled)
        );
        assert_eq!(polled, oracle_polled);
        assert_eq!(polled.len(), 4);
        assert_eq!(sim.events_pending(), 0);
    }

    /// The two hashed MAC tables `resolve_dest` once probed, kept as its
    /// oracle: generic switch MAC, then the per-switch table, then the
    /// node table.
    fn resolve_by_maps(sim: &Simulator, dst: MacAddr) -> FrameDest {
        let switch_macs: std::collections::HashMap<MacAddr, u32> = sim
            .topology
            .switches()
            .map(|s| {
                (
                    MacAddr::for_switch_id(s),
                    sim.fabric.dense.index_of(s).unwrap(),
                )
            })
            .collect();
        let forwarding: std::collections::HashMap<MacAddr, NodeId> = sim
            .topology
            .nodes()
            .map(|n| (MacAddr::for_node(n), n))
            .collect();
        if dst == MacAddr::for_switch() {
            return FrameDest::ControlPlane;
        }
        if let Some(&switch) = switch_macs.get(&dst) {
            return FrameDest::Switch { switch };
        }
        match forwarding.get(&dst) {
            Some(&node) => FrameDest::Node {
                node: sim.fabric.node_index.get(node.get()).unwrap(),
            },
            None => FrameDest::Unknown,
        }
    }

    /// Decoding a destination MAC resolves it exactly as the hashed tables
    /// did, on random connected fabrics with sparse switch and node ids:
    /// every attached node, unattached node ids, every topology switch,
    /// switch ids outside the topology, the generic switch address,
    /// broadcast, zero and random addresses.
    #[test]
    fn prop_decoded_destinations_match_the_mac_tables() {
        let mut rng = rt_types::rng::Xoshiro256::new(0xdec0de);
        for round in 0..40 {
            let mut t = Topology::new();
            let switches: Vec<SwitchId> = (0..1 + rng.below(8))
                .map(|k| SwitchId::new((k * (1 + rng.below(3_000))) as u32))
                .collect();
            for (k, &s) in switches.iter().enumerate() {
                t.add_switch(s);
                if k > 0 {
                    let parent = switches[rng.below(k as u64) as usize];
                    let _ = t.add_trunk(parent, s);
                }
            }
            let mut next_node = rng.below(5);
            for &s in &switches {
                for _ in 0..rng.below(4) {
                    next_node += 1 + rng.below(if round % 2 == 0 { 3 } else { 1 << 20 });
                    t.attach_node(NodeId::new(next_node as u32), s).unwrap();
                }
            }
            let sim = Simulator::with_topology(SimConfig::default(), t).unwrap();
            let mut probes = vec![MacAddr::for_switch(), MacAddr::BROADCAST, MacAddr::ZERO];
            probes.extend(sim.topology.nodes().map(MacAddr::for_node));
            probes.extend(sim.topology.switches().map(MacAddr::for_switch_id));
            for _ in 0..20 {
                let id = rng.below(next_node + 10) as u32;
                probes.push(MacAddr::for_node(NodeId::new(id)));
                probes.push(MacAddr::for_switch_id(SwitchId::new(id)));
                probes.push(MacAddr::from_u64(rng.next_u64()));
            }
            probes.push(MacAddr::for_node(NodeId::new(u32::MAX)));
            probes.push(MacAddr::for_switch_id(SwitchId::new(u32::MAX)));
            for dst in probes {
                assert_eq!(
                    sim.resolve_dest(dst),
                    resolve_by_maps(&sim, dst),
                    "round {round}: {dst}"
                );
            }
        }
    }

    #[test]
    fn sparse_switch_and_node_ids_still_work() {
        // Ids far apart exercise the IdIndex fallback paths.
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(10));
        t.add_switch(SwitchId::new(500));
        t.add_trunk(SwitchId::new(10), SwitchId::new(500)).unwrap();
        t.attach_node(NodeId::new(3), SwitchId::new(10)).unwrap();
        t.attach_node(NodeId::new(4_000_000), SwitchId::new(500))
            .unwrap();
        let mut sim = Simulator::with_topology(SimConfig::default(), t).unwrap();
        let (a, b) = (NodeId::new(3), NodeId::new(4_000_000));
        sim.inject(a, be_frame(a, b, 500), SimTime::ZERO).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, b);
        assert!(sim
            .stats()
            .hop_link(HopLink::Trunk {
                from: SwitchId::new(10),
                to: SwitchId::new(500),
            })
            .is_some());
    }

    // --- fault injection --------------------------------------------------

    #[test]
    fn released_channel_frames_are_dropped_and_counted() {
        // A channel with installed wire state is released mid-run: frames
        // injected before the teardown but still in flight, and frames
        // injected after it, are dropped at the first switch — never
        // silently delivered — and the drop is counted.
        let mut sim = dumbbell_sim(SimConfig::default());
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let ch = ChannelId::new(5);
        let route = Route::from_links(vec![
            HopLink::Uplink(n0),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Downlink(n1),
        ])
        .unwrap();
        sim.set_channel_route(ch, &route);
        // Before release: delivered normally.
        sim.inject(
            n0,
            rt_frame(n0, n1, 5, SimTime::from_millis(5), 400),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
        assert_eq!(sim.stats().released_channel_dropped, 0);

        // Release, then send two more frames on the dead channel.
        sim.release_channel(ch);
        for _ in 0..2 {
            sim.inject(
                n0,
                rt_frame(n0, n1, 5, SimTime::from_millis(9), 400),
                sim.now(),
            )
            .unwrap();
        }
        sim.run_to_idle();
        assert_eq!(
            sim.poll_deliveries().len(),
            0,
            "released channel must not deliver"
        );
        assert_eq!(sim.stats().released_channel_dropped, 2);
        // Conservation: every frame is accounted for.
        assert_eq!(
            sim.injected_count(),
            sim.stats().total_delivered() + sim.stats().total_dropped()
        );

        // Re-admission under the same id clears the flag.
        sim.set_channel_route(ch, &route);
        sim.inject(
            n0,
            rt_frame(n0, n1, 5, SimTime::from_millis(20), 400),
            sim.now(),
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
        assert_eq!(sim.stats().released_channel_dropped, 2);
    }

    #[test]
    fn failed_trunk_loses_queued_and_in_flight_frames() {
        let config = SimConfig::default();
        // Two masters on sw0, one slave on sw1: parallel uplinks let the
        // trunk queue actually build up.
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(2), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(3), SwitchId::new(1)).unwrap();
        let mut sim = Simulator::with_topology(config, t).unwrap();
        let dst = NodeId::new(3);
        // Three 1400-byte frames from three parallel uplinks arrive at the
        // switch together (~122 us): one starts serialising on the trunk,
        // two wait in its queue.  The cut at 200 us dooms the in-flight
        // frame and drains the two queued ones.
        for n in 0..3u32 {
            let src = NodeId::new(n);
            sim.inject(src, be_frame(src, dst, 1400), SimTime::ZERO)
                .unwrap();
        }
        sim.schedule_fault(
            SimTime::from_micros(200),
            LinkFault::Fail {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 0);
        assert_eq!(sim.stats().failed_link_dropped, 3);
        assert_eq!(
            sim.injected_count(),
            sim.stats().total_delivered() + sim.stats().total_dropped()
        );
        assert_eq!(
            sim.topology().failed_trunks().collect::<Vec<_>>(),
            vec![(SwitchId::new(0), SwitchId::new(1))]
        );
        // After the cut, cross-switch traffic is unroutable (the dumbbell
        // has no alternate path)...
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), dst, 400),
            sim.now(),
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.stats().unroutable_dropped, 1);
        // ...until the repair, after which delivery resumes.
        sim.repair_link(SwitchId::new(1), SwitchId::new(0)).unwrap();
        assert!(sim.topology().failed_trunks().next().is_none());
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), dst, 400),
            sim.now(),
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
    }

    #[test]
    fn repair_during_a_doomed_transmission_restarts_the_port() {
        // A fail/repair flap shorter than one serialisation: the in-flight
        // frame is lost with the cable, but a frame that queued at the
        // repaired port while the doomed transmission still held it busy
        // must start transmitting when the doomed one completes.
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(2), SwitchId::new(1)).unwrap();
        let mut sim = Simulator::with_topology(SimConfig::default(), t).unwrap();
        let dst = NodeId::new(2);
        // Frame A: on the trunk from ~123 us to ~240 us.
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), dst, 1400),
            SimTime::ZERO,
        )
        .unwrap();
        // Frame B: reaches the switch at ~153 us, after the repair, while
        // the trunk is still busy with doomed frame A.
        sim.inject(
            NodeId::new(1),
            be_frame(NodeId::new(1), dst, 1400),
            SimTime::from_micros(30),
        )
        .unwrap();
        let script = FaultScript::new()
            .fail_at(
                SimTime::from_micros(150),
                SwitchId::new(0),
                SwitchId::new(1),
            )
            .repair_at(
                SimTime::from_micros(152),
                SwitchId::new(0),
                SwitchId::new(1),
            );
        sim.schedule_faults(&script).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1, "frame B must cross the repaired trunk");
        assert_eq!(deliveries[0].source, NodeId::new(1));
        assert_eq!(
            sim.stats().failed_link_dropped,
            1,
            "frame A died with the cable"
        );
        assert_eq!(
            sim.injected_count(),
            sim.stats().total_delivered() + sim.stats().total_dropped()
        );
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn ring_reroutes_around_a_cut_trunk() {
        // On a ring the next-hop table recovers instantly: after the
        // closing trunk dies, node 0 -> node 3 goes the long way around.
        let mut sim = Simulator::with_topology(SimConfig::default(), Topology::ring(4, 1)).unwrap();
        sim.fail_link(SwitchId::new(3), SwitchId::new(0)).unwrap();
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), NodeId::new(3), 500),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), 1, "the ring survives a single cut");
        for (from, to) in [(0u32, 1u32), (1, 2), (2, 3)] {
            assert!(sim
                .stats()
                .hop_link(HopLink::Trunk {
                    from: SwitchId::new(from),
                    to: SwitchId::new(to),
                })
                .is_some());
        }
        assert_eq!(sim.stats().failed_link_dropped, 0);
    }

    #[test]
    fn stale_channel_forwarding_over_a_dead_trunk_drops() {
        // A channel pinned to the closing trunk keeps its (stale) entry
        // after the cut: its frames drop and are counted until re-routing
        // installs a fresh route.
        let mut sim = Simulator::with_topology(SimConfig::default(), Topology::ring(4, 1)).unwrap();
        let ch = ChannelId::new(3);
        let pinned = Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(3),
            },
            HopLink::Downlink(NodeId::new(3)),
        ])
        .unwrap();
        sim.set_channel_route(ch, &pinned);
        sim.fail_link(SwitchId::new(0), SwitchId::new(3)).unwrap();
        sim.inject(
            NodeId::new(0),
            rt_frame(
                NodeId::new(0),
                NodeId::new(3),
                3,
                SimTime::from_millis(5),
                400,
            ),
            SimTime::ZERO,
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 0);
        assert_eq!(sim.stats().failed_link_dropped, 1);
        // Re-route: install the surviving path; frames flow again.
        let around = Route::from_links(vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Trunk {
                from: SwitchId::new(1),
                to: SwitchId::new(2),
            },
            HopLink::Trunk {
                from: SwitchId::new(2),
                to: SwitchId::new(3),
            },
            HopLink::Downlink(NodeId::new(3)),
        ])
        .unwrap();
        sim.set_channel_route(ch, &around);
        sim.inject(
            NodeId::new(0),
            rt_frame(
                NodeId::new(0),
                NodeId::new(3),
                3,
                SimTime::from_millis(10),
                400,
            ),
            sim.now(),
        )
        .unwrap();
        sim.run_to_idle();
        assert_eq!(sim.poll_deliveries().len(), 1);
    }

    #[test]
    fn fault_script_interleaves_deterministically() {
        // Fail + repair scripted around a traffic burst: the same script
        // always yields the same outcome.
        let run = || {
            let mut sim =
                Simulator::with_topology(SimConfig::default(), Topology::ring(4, 1)).unwrap();
            let script = FaultScript::new()
                .fail_at(
                    SimTime::from_micros(300),
                    SwitchId::new(3),
                    SwitchId::new(0),
                )
                .repair_at(SimTime::from_millis(2), SwitchId::new(3), SwitchId::new(0));
            assert_eq!(script.len(), 2);
            assert!(!script.is_empty());
            sim.schedule_faults(&script).unwrap();
            for k in 0..8u64 {
                sim.inject(
                    NodeId::new(0),
                    be_frame(NodeId::new(0), NodeId::new(3), 900),
                    SimTime::from_micros(100 * k),
                )
                .unwrap();
            }
            sim.run_to_idle();
            let deliveries: Vec<_> = sim
                .poll_deliveries()
                .iter()
                .map(|d| (d.frame.get(), d.delivered_at.as_nanos()))
                .collect();
            (deliveries, sim.stats().summary())
        };
        assert_eq!(run(), run());
        // Scheduling a fault in the past is rejected like any injection.
        let mut sim = Simulator::with_topology(SimConfig::default(), Topology::ring(4, 1)).unwrap();
        sim.inject(
            NodeId::new(0),
            be_frame(NodeId::new(0), NodeId::new(1), 200),
            SimTime::from_millis(1),
        )
        .unwrap();
        sim.run_to_idle();
        assert!(sim
            .schedule_fault(
                SimTime::ZERO,
                LinkFault::Fail {
                    from: SwitchId::new(0),
                    to: SwitchId::new(1)
                }
            )
            .is_err());
    }
}
