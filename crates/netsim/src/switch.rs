//! The forwarding core: what one switched-Ethernet fabric does with one
//! event (§18.1, Fig. 18.2 — store-and-forward, an EDF queue over a FCFS
//! queue per output port).
//!
//! The core runs over two halves of the [`crate::sim::Simulator`]: a
//! [`Fabric`] it only reads — the dense index tables, the routing table in
//! force and the per-channel wire state — and a [`Lane`] it writes — the
//! output ports, their dead/doomed flags, the pending-event set, the
//! statistics, the [`FrameTable`] of the frames in flight and the
//! deliveries not polled yet.  A handler copies a frame's record out of the
//! table once and passes it on.  Egress selection, the queue deadline,
//! enqueueing, start of transmission, delivery, every drop rule and the
//! death and revival of a trunk's ports are [`Core`]'s and exist nowhere
//! else.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use rt_frames::rt_data::MAX_DEADLINE_VALUE;
use rt_frames::{EthernetFrame, FramePeek};
use rt_types::{
    ChannelId, DenseNextHop, Duration, HopLink, IdIndex, NodeId, SimTime, SwitchId, NO_INDEX,
};

use crate::event::{Event, EventQueue};
use crate::port::{OutputPort, TrafficClass};
use crate::sim::{Delivery, FrameId, SimConfig};
use crate::stats::SimStats;

/// Where a frame is headed, resolved once at injection time so the per-hop
/// forwarding decision never reads the MAC again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameDest {
    /// An attached end node, by dense node index: its downlink port is
    /// `2·node + 1`, its access switch `Fabric::node_access[node]`.
    Node {
        /// Dense node index.
        node: u32,
    },
    /// The generic switch MAC: deliver to the managing switch's control
    /// plane (central placement) or to the first switch that receives the
    /// frame (distributed placement).
    ControlPlane,
    /// The per-switch control-plane MAC of one specific switch (dense
    /// index): forwarded over trunks and delivered to that switch's control
    /// plane — the transport of the distributed reservation protocol.
    Switch {
        /// Dense index of the addressed switch.
        switch: u32,
    },
    /// No attached node owns the MAC; dropped as unroutable at the first
    /// switch (exactly as the per-hop lookup used to).
    Unknown,
}

/// Everything the simulator remembers about one frame in flight but its
/// bytes, which wait beside it in the [`FrameTable`]: 32 bytes, from the
/// frame's injection until it leaves the fabric.  An RT data frame's stamp
/// — a 48-bit deadline and its 16-bit channel, always found together —
/// packs into one word; the class and the link-state mark share a flags
/// byte with "stamped" (channel 0 is a legal stamp, so no channel value can
/// mean "none").
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameRecord {
    /// `deadline | channel << 48` when [`FrameRecord::STAMPED`] is set.
    stamp: u64,
    pub(crate) injected_at: SimTime,
    /// Where the frame entered the network (`NodeId::SWITCH` for frames
    /// originated by the switch control plane).
    pub(crate) source: NodeId,
    /// The resolved destination (dense indices).
    pub(crate) dest: FrameDest,
    /// At most 1 538: the payload is held to the Ethernet MTU at injection.
    wire_bytes: u16,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<FrameRecord>() <= 32);

impl FrameRecord {
    const BEST_EFFORT: u8 = 1;
    /// A link-state flood frame — control-class on the wire, but accounted
    /// as convergence overhead instead of reservation traffic.
    const LINK_STATE: u8 = 2;
    /// An RT data frame: `stamp` holds its deadline and channel.
    const STAMPED: u8 = 4;

    /// The record of a frame `peek` classified; `wire_bytes` must fit a
    /// `u16` (the caller checked the MTU).
    pub(crate) fn new(
        peek: FramePeek,
        dest: FrameDest,
        source: NodeId,
        injected_at: SimTime,
        wire_bytes: usize,
    ) -> Self {
        let (flags, stamp) = match peek {
            FramePeek::RtData(stamp) => (
                Self::STAMPED,
                stamp.absolute_deadline | u64::from(stamp.channel.get()) << 48,
            ),
            // Control frames ride the RT queue with an immediate deadline
            // so that channel management is never starved.
            FramePeek::Control => (0, 0),
            // Link-state floods queue exactly like other control frames but
            // are accounted separately.
            FramePeek::LinkState => (Self::LINK_STATE, 0),
            FramePeek::BestEffort => (Self::BEST_EFFORT, 0),
        };
        debug_assert!(
            wire_bytes <= usize::from(u16::MAX),
            "{wire_bytes} wire bytes"
        );
        FrameRecord {
            stamp,
            injected_at,
            source,
            dest,
            wire_bytes: wire_bytes as u16,
            flags,
        }
    }

    #[inline]
    pub(crate) fn class(&self) -> TrafficClass {
        if self.flags & Self::BEST_EFFORT != 0 {
            TrafficClass::BestEffort
        } else {
            TrafficClass::RealTime
        }
    }

    /// Absolute end-to-end deadline (simulated time) of an RT data frame.
    #[inline]
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        (self.flags & Self::STAMPED != 0)
            .then(|| SimTime::from_nanos(self.stamp & MAX_DEADLINE_VALUE))
    }

    /// The RT channel of an RT data frame.
    #[inline]
    pub(crate) fn channel(&self) -> Option<ChannelId> {
        (self.flags & Self::STAMPED != 0).then(|| ChannelId::new((self.stamp >> 48) as u16))
    }

    #[inline]
    pub(crate) fn link_state(&self) -> bool {
        self.flags & Self::LINK_STATE != 0
    }

    #[inline]
    pub(crate) fn wire_bytes(&self) -> usize {
        usize::from(self.wire_bytes)
    }
}

/// `true` if a frame of this classification is control-plane traffic:
/// real-time class without a data channel (establishment, reservation and
/// tear-down frames; RT data always carries its channel id).
#[inline]
pub(crate) fn is_control(class: TrafficClass, channel: Option<ChannelId>) -> bool {
    class == TrafficClass::RealTime && channel.is_none()
}

/// The frame table keeps up to this many slots of storage however few
/// frames it holds; above it, it shrinks to fit once half empty, and grows
/// by half when full.
pub(crate) const FRAME_TABLE_FLOOR: usize = 4096;

/// The frames in flight, and the one place a [`FrameId`] becomes a slot:
/// frame `base + i` has its record at `records[i]` and its bytes at
/// `bytes[i]`.  The bytes wait from the frame's filing to its delivery,
/// which takes them, or its drop, which frees them: the two ways out of the
/// fabric, and the only things that empty a slot.  An empty slot at the
/// front is therefore a frame that has left, and [`FrameTable::retire`]
/// pops it between instants; a frame still in flight holds the front, and
/// the frames behind it wait for it.
#[derive(Debug, Default)]
pub(crate) struct FrameTable {
    /// The id of `records[0]`: every frame before it has left the fabric.
    base: u64,
    records: VecDeque<FrameRecord>,
    bytes: VecDeque<Option<EthernetFrame>>,
}

impl FrameTable {
    /// The id the next frame filed gets: the number of frames ever filed.
    #[inline]
    pub(crate) fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    #[inline]
    fn slot(&self, frame: FrameId) -> usize {
        (frame.get() - self.base) as usize
    }

    /// File a frame under the next id.  A full table above
    /// [`FRAME_TABLE_FLOOR`] grows by half, not double: doubled, it would
    /// be half empty, and shrink again, as soon as one frame left.
    #[inline]
    pub(crate) fn file(&mut self, record: FrameRecord, eth: EthernetFrame) -> FrameId {
        let id = FrameId::new(self.end());
        let len = self.bytes.len();
        if len == self.bytes.capacity() && len >= FRAME_TABLE_FLOOR {
            self.records.reserve_exact(len / 2);
            self.bytes.reserve_exact(len / 2);
        }
        self.records.push_back(record);
        self.bytes.push_back(Some(eth));
        id
    }

    /// Room for `additional` more frames.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
        self.bytes.reserve(additional);
    }

    /// Take back every frame filed from `first` on, as if none had been
    /// filed: a refused batch.  The room it took goes back under the shrink
    /// rule of [`FrameTable::retire`].
    pub(crate) fn unfile_from(&mut self, first: FrameId) {
        let slot = self.slot(first);
        self.records.truncate(slot);
        self.bytes.truncate(slot);
        self.shrink_when_sparse();
    }

    /// A frame's record, by copy.
    #[inline]
    pub(crate) fn record(&self, frame: FrameId) -> FrameRecord {
        self.records[self.slot(frame)]
    }

    /// When the frame enters the fabric, and the event that hands it to
    /// its node: what a deferred injection files ([`EventQueue::defer`]).
    #[inline]
    pub(crate) fn injection(&self, frame: FrameId) -> (SimTime, Event) {
        let record = self.record(frame);
        let node = record.source;
        (record.injected_at, Event::EnqueueAtNode { node, frame })
    }

    /// The frame leaves the fabric: its bytes, for its delivery (a drop
    /// frees them).
    #[inline]
    pub(crate) fn take(&mut self, frame: FrameId) -> EthernetFrame {
        let slot = self.slot(frame);
        self.bytes[slot]
            .take()
            .expect("a frame has one event pending: one delivery or drop")
    }

    /// Pop the frames that have left off the front, and give the storage
    /// back once at most half of it is in use above [`FRAME_TABLE_FLOOR`]
    /// slots, so that it stays within twice what the table holds, or the
    /// floor.  One test of the front when nothing has left.
    #[inline]
    pub(crate) fn retire(&mut self) {
        if self.bytes.front().is_some_and(Option::is_none) {
            self.retire_front();
        }
    }

    fn retire_front(&mut self) {
        let left = self
            .bytes
            .iter()
            .position(Option::is_some)
            .unwrap_or(self.bytes.len());
        self.bytes.drain(..left);
        self.records.drain(..left);
        self.base += left as u64;
        self.shrink_when_sparse();
    }

    /// Give the storage back once at most half of it is in use above
    /// [`FRAME_TABLE_FLOOR`] slots.
    fn shrink_when_sparse(&mut self) {
        let capacity = self.bytes.capacity();
        if capacity > FRAME_TABLE_FLOOR && self.bytes.len() <= capacity / 2 {
            self.records.shrink_to_fit();
            self.bytes.shrink_to_fit();
        }
    }
}

/// Per-channel wire state installed at admission time: the EDF deadline
/// budget of every link of the route, plus the per-switch forwarding
/// entries that pin the channel's frames to the admitted route (which on a
/// mesh need not be the next-hop table's shortest path).  Both tables are
/// tiny sorted vectors keyed by dense indices — a route has a handful of
/// hops, so lookups are a short binary search over one cache line.
#[derive(Debug, Default)]
pub(crate) struct ChannelWireState {
    /// `(port, budget)`: per-link EDF deadline budget (offset from
    /// injection time), sorted by dense port id.
    offsets: Vec<(u32, Duration)>,
    /// `(switch, port)`: at each switch of the route, the egress the
    /// channel's frames take, sorted by dense switch index.
    forwarding: Vec<(u32, u32)>,
}

impl ChannelWireState {
    pub(crate) fn set_offset(&mut self, port: u32, budget: Duration) {
        match self.offsets.binary_search_by_key(&port, |e| e.0) {
            Ok(i) => self.offsets[i].1 = budget,
            Err(i) => self.offsets.insert(i, (port, budget)),
        }
    }

    pub(crate) fn set_forwarding(&mut self, switch: u32, port: u32) {
        match self.forwarding.binary_search_by_key(&switch, |e| e.0) {
            Ok(i) => self.forwarding[i].1 = port,
            Err(i) => self.forwarding.insert(i, (switch, port)),
        }
    }

    #[inline]
    fn offset_for(&self, port: u32) -> Option<Duration> {
        self.offsets
            .binary_search_by_key(&port, |e| e.0)
            .ok()
            .map(|i| self.offsets[i].1)
    }

    #[inline]
    fn forwarding_port(&self, switch: u32) -> Option<u32> {
        self.forwarding
            .binary_search_by_key(&switch, |e| e.0)
            .ok()
            .map(|i| self.forwarding[i].1)
    }
}

// ---------------------------------------------------------------------------
// The read-only view
// ---------------------------------------------------------------------------

/// The parts of the fabric no event changes: built at construction, edited
/// between events by injection, channel management and faults, and only
/// read while an event executes.
#[derive(Debug)]
pub(crate) struct Fabric {
    pub(crate) config: SimConfig,
    /// The `(at, towards) → neighbour` forwarding state of the trunk graph
    /// in dense form, re-pulled from the router after every fault.  The
    /// dense switch indexing is stable across failures (the switch set
    /// never changes), so ports and trunk indices stay valid.
    pub(crate) dense: Arc<DenseNextHop>,
    /// Raw node id → dense node index.
    pub(crate) node_index: IdIndex,
    /// Dense node index → dense index of the node's access switch.
    pub(crate) node_access: Vec<u32>,
    /// Dense `(from, to)` switch-index pair → trunk port id (`NO_INDEX`
    /// where no trunk exists); row-major `from · switch_count + to`.
    pub(crate) trunk_ports: Vec<u32>,
    pub(crate) switch_count: usize,
    /// Dense port id → the directed link it drives: uplink of node `i` at
    /// `2i`, its downlink at `2i + 1`, trunk ports after all access ports.
    pub(crate) port_links: Vec<HopLink>,
    /// Dense index of the managing switch.
    pub(crate) manager_index: u32,
    /// `true` when the topology places a channel manager on every switch:
    /// frames addressed to the generic switch MAC are then consumed by the
    /// first switch that receives them instead of being forwarded to the
    /// managing switch.
    pub(crate) distributed_control: bool,
    /// Per-channel route state (deadline budgets + forwarding entries),
    /// indexed by raw channel id.
    pub(crate) channel_wire: Vec<Option<ChannelWireState>>,
    /// Channels whose wire state was torn down
    /// ([`crate::sim::Simulator::release_channel`]), indexed by raw channel
    /// id: their late frames are dropped at the first switch and counted,
    /// never silently delivered.  Re-installing a hop schedule
    /// (re-admission under the same id) clears the flag.
    pub(crate) released_channels: Vec<bool>,
}

impl Fabric {
    /// Dense node index of an event's node.  Cannot fail: events carry node
    /// ids that passed injection validation against this same index, or
    /// that the core read back out of `port_links`.
    #[inline]
    pub(crate) fn node_idx(&self, node: NodeId) -> u32 {
        self.node_index
            .get(node.get())
            .expect("events only carry nodes validated against node_index at injection")
    }

    /// The trunk port from dense switch `from` to dense switch `to`.
    #[inline]
    pub(crate) fn trunk_port(&self, from: u32, to: u32) -> Option<u32> {
        match self.trunk_ports[from as usize * self.switch_count + to as usize] {
            NO_INDEX => None,
            port => Some(port),
        }
    }

    /// Dense index of an event's switch.  Cannot fail: events carry switch
    /// ids the core read out of `port_links` or `dense.switch_at`, or that
    /// `inject_at_switch` checked against this index; faults never change
    /// the switch set.
    #[inline]
    fn switch_idx(&self, switch: SwitchId) -> u32 {
        self.dense
            .index_of(switch)
            .expect("events only carry switches of the dense index built at construction")
    }

    /// The port id of a topology link, if the link exists in this fabric.
    pub(crate) fn port_of_link(&self, link: HopLink) -> Option<u32> {
        match link {
            HopLink::Uplink(node) => self.node_index.get(node.get()).map(|i| 2 * i),
            HopLink::Downlink(node) => self.node_index.get(node.get()).map(|i| 2 * i + 1),
            HopLink::Trunk { from, to } => {
                self.trunk_port(self.dense.index_of(from)?, self.dense.index_of(to)?)
            }
        }
    }

    /// Both directed ports of the trunk `a — b`, appended to `out`.
    pub(crate) fn trunk_ports_of(&self, a: SwitchId, b: SwitchId, out: &mut Vec<u32>) {
        for (from, to) in [(a, b), (b, a)] {
            out.extend(self.port_of_link(HopLink::Trunk { from, to }));
        }
    }

    #[inline]
    pub(crate) fn tx_time(&self, wire_bytes: usize) -> Duration {
        self.config.link_speed.transmission_time(wire_bytes)
    }

    /// How long after the last bit leaves a port the frame becomes eligible
    /// at the switch on the far side: propagation plus the store-and-forward
    /// processing latency.
    #[inline]
    fn switch_arrival_delay(&self) -> Duration {
        self.config.propagation_delay + self.config.switch_latency
    }

    /// The installed wire state of a channel, if any.
    #[inline]
    fn channel_state(&self, channel: Option<ChannelId>) -> Option<&ChannelWireState> {
        self.channel_wire.get(channel?.get() as usize)?.as_ref()
    }

    /// `true` if the channel's wire state was torn down and not re-installed.
    #[inline]
    fn is_released(&self, channel: Option<ChannelId>) -> bool {
        channel.is_some_and(|c| {
            self.released_channels
                .get(c.get() as usize)
                .copied()
                .unwrap_or(false)
        })
    }

    /// The EDF deadline a frame uses while queued at port `port`: the
    /// registered per-hop budget of its channel when one exists, the
    /// end-to-end stamp otherwise.
    #[inline]
    fn queue_deadline(&self, record: &FrameRecord, port: u32) -> Option<SimTime> {
        if let Some(offset) = self
            .channel_state(record.channel())
            .and_then(|state| state.offset_for(port))
        {
            return Some(record.injected_at + offset);
        }
        record.deadline()
    }
}

// ---------------------------------------------------------------------------
// One lane of mutable state
// ---------------------------------------------------------------------------

/// Everything events change.
#[derive(Debug)]
pub(crate) struct Lane {
    /// The frames in flight: their records and their bytes.
    pub(crate) frames: FrameTable,
    /// The deliveries not polled yet.
    pub(crate) deliveries: Vec<Delivery>,
    pub(crate) events: EventQueue,
    /// One output port per directed edge, by dense port id.
    ports: Vec<OutputPort>,
    /// Ports whose link is currently failed.  Only trunk ports can die
    /// today; access links never fail.
    dead: Vec<bool>,
    /// Ports that had a frame mid-serialisation when their link was cut:
    /// that frame is lost even if the link is repaired before the
    /// transmission-complete event fires.
    doomed: Vec<bool>,
    pub(crate) stats: SimStats,
}

impl Lane {
    pub(crate) fn new(config: &SimConfig, port_links: &[HopLink]) -> Self {
        let make_port = |_| match config.be_queue_capacity {
            Some(cap) => OutputPort::with_be_capacity(cap),
            None => OutputPort::new(),
        };
        Lane {
            frames: FrameTable::default(),
            deliveries: Vec::new(),
            events: EventQueue::new(),
            ports: (0..port_links.len()).map(make_port).collect(),
            dead: vec![false; port_links.len()],
            doomed: vec![false; port_links.len()],
            stats: SimStats::for_ports(port_links.to_vec()),
        }
    }

    /// Count an injected control or link-state frame.
    #[inline]
    pub(crate) fn count_injection(&mut self, record: &FrameRecord) {
        if record.link_state() {
            self.stats.record_link_state_frame();
        } else if is_control(record.class(), record.channel()) {
            self.stats.record_control_frame();
        }
    }

    /// Schedule an event, folding the (release-build) past-time clamp count
    /// into the run statistics.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        if self.events.schedule(at, event) {
            self.stats.record_clamped();
        }
    }

    /// [`Lane::schedule`] under a reserved seq
    /// ([`EventQueue::schedule_reserved`]).
    #[inline]
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        if self.events.schedule_reserved(at, seq, event) {
            self.stats.record_clamped();
        }
    }

    /// Take the injections of a batch's frames, seqs `first_seq..`, without
    /// filing them: they wait in the frame table ([`EventQueue::defer`]).
    pub(crate) fn defer(&mut self, frames: Range<FrameId>, first_seq: u64) {
        let table = &self.frames;
        self.events
            .defer(frames, first_seq, &|frame| table.injection(frame));
    }

    /// The next run of same-time events at or before `limit`, into `out`,
    /// the deferred injections of its instant filed first
    /// ([`EventQueue::pop_run_until_filing`]).
    #[inline]
    pub(crate) fn pop_run_until(
        &mut self,
        limit: SimTime,
        out: &mut Vec<Event>,
    ) -> Option<SimTime> {
        let table = &self.frames;
        self.events
            .pop_run_until_filing(limit, out, &|frame| table.injection(frame))
    }

    /// The next event, a deferred injection filed first if it is due.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        let table = &self.frames;
        self.events
            .pop_until_filing(SimTime::MAX, &|frame| table.injection(frame))
    }

    /// Schedule a hop event `delay` after `now`, the instant being handled:
    /// into the queue's FIFO lane of `delay` (see [`EventQueue`]).
    #[inline]
    pub(crate) fn schedule_after(&mut self, now: SimTime, delay: Duration, event: Event) {
        if self.events.schedule_after(now, delay, event) {
            self.stats.record_clamped();
        }
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// The directed ports one fault kills and revives.
#[derive(Debug, Default)]
pub(crate) struct PortFlips {
    pub(crate) kills: Vec<u32>,
    pub(crate) revives: Vec<u32>,
}

// ---------------------------------------------------------------------------
// The core
// ---------------------------------------------------------------------------

/// The fabric view and the lane, bound together for the duration of an
/// event (or a fault).
pub(crate) struct Core<'a> {
    pub(crate) fabric: &'a Fabric,
    pub(crate) lane: &'a mut Lane,
}

impl Core<'_> {
    /// Execute one forwarding event.  Inlined into the simulator's run loops,
    /// where the `Core` then dissolves into the two references it holds
    /// instead of being rebuilt in memory for every event (about 4 of 130 ns
    /// per event on the 1024-node torus).
    #[inline]
    pub(crate) fn handle(&mut self, now: SimTime, event: Event) {
        let fabric = self.fabric;
        match event {
            Event::EnqueueAtNode { node, frame } => {
                let port = 2 * fabric.node_idx(node);
                let record = self.lane.frames.record(frame);
                self.enqueue_at_port(frame, &record, port);
                self.try_start_tx(now, port);
            }
            Event::NodeTxComplete { node, frame } => {
                let node_idx = fabric.node_idx(node);
                let port = 2 * node_idx;
                // Last bit leaves the node now; it arrives at the access
                // switch after the propagation delay, and becomes eligible
                // for forwarding after the switch processing latency.
                let switch = fabric
                    .dense
                    .switch_at(fabric.node_access[node_idx as usize]);
                self.arrive_at_switch(now, switch, frame);
                self.try_start_tx(now, port);
            }
            Event::ArriveAtSwitch { switch, frame } => {
                let at = fabric.switch_idx(switch);
                let record = self.lane.frames.record(frame);
                match record.dest {
                    FrameDest::ControlPlane => {
                        // Generic control-plane traffic.  Distributed
                        // placement: the first switch to see the frame runs
                        // a manager and consumes it.  Central placement:
                        // deliver at the managing switch, forward over
                        // trunks towards it from anywhere else.
                        if fabric.distributed_control || at == fabric.manager_index {
                            self.deliver_to_switch(frame, &record, at, now);
                        } else {
                            let port = self.trunk_towards(at, fabric.manager_index);
                            self.forward(now, frame, &record, port);
                        }
                    }
                    FrameDest::Switch { switch: target } => {
                        // Switch-to-switch control traffic (reservation
                        // frames): deliver at the addressed switch, forward
                        // over trunks towards it from anywhere else.
                        if at == target {
                            self.deliver_to_switch(frame, &record, at, now);
                        } else {
                            let port = self.trunk_towards(at, target);
                            self.forward(now, frame, &record, port);
                        }
                    }
                    FrameDest::Node { node: dest_node } => {
                        let channel = record.channel();
                        if fabric.is_released(channel) {
                            // The channel was torn down: the switch has no
                            // state for it any more, so the frame is
                            // discarded, not delivered on a stale route.
                            self.drop_frame(frame, SimStats::record_released_channel_drop);
                            return;
                        }
                        let dest_switch = fabric.node_access[dest_node as usize];
                        match self.egress_port(at, dest_node, dest_switch, channel) {
                            Some(port) if self.lane.dead[port as usize] => {
                                // A stale per-channel forwarding entry still
                                // points at the cut trunk; the frame is lost
                                // until the channel is re-routed.
                                self.drop_frame(frame, SimStats::record_failed_link_drop);
                            }
                            port => self.forward(now, frame, &record, port),
                        }
                    }
                    FrameDest::Unknown => self.forward(now, frame, &record, None),
                }
            }
            Event::SwitchTxComplete { to, frame } => {
                let port = 2 * fabric.node_idx(to) + 1;
                let after = fabric.config.propagation_delay;
                self.lane
                    .schedule_after(now, after, Event::ArriveAtNode { node: to, frame });
                self.try_start_tx(now, port);
            }
            Event::TrunkTxComplete { from, to, frame } => {
                let to_idx = fabric.switch_idx(to);
                if let Some(port) = fabric.trunk_port(fabric.switch_idx(from), to_idx) {
                    let p = port as usize;
                    if self.lane.doomed[p] || self.lane.dead[p] {
                        // The cable was cut while this frame was on it (or
                        // is still cut): the frame never arrives.  A dead
                        // port has empty queues (drained at failure time,
                        // enqueues blocked), but a *repaired* port may have
                        // picked up new frames while this doomed
                        // transmission still held it busy — restart it.
                        self.lane.doomed[p] = false;
                        self.drop_frame(frame, SimStats::record_failed_link_drop);
                    } else {
                        // Store-and-forward at the receiving switch, exactly
                        // as for a frame arriving over an uplink.
                        self.arrive_at_switch(now, to, frame);
                    }
                    self.try_start_tx(now, port);
                }
            }
            Event::ArriveAtNode { node, frame } => {
                let record = self.lane.frames.record(frame);
                self.deliver_inner(frame, &record, node, None, now);
            }
            Event::FailTrunk { .. } | Event::RepairTrunk { .. } | Event::FailSwitch { .. } => {
                unreachable!("a fault never reaches the core: Simulator::dispatch takes it first")
            }
        }
    }

    /// A frame has fully crossed a link into `switch` at `now`: it becomes
    /// eligible for forwarding there after propagation and the switch's
    /// store-and-forward latency.
    #[inline]
    fn arrive_at_switch(&mut self, now: SimTime, switch: SwitchId, frame: FrameId) {
        let after = self.fabric.switch_arrival_delay();
        self.lane
            .schedule_after(now, after, Event::ArriveAtSwitch { switch, frame });
    }

    /// The trunk port at dense switch `at` on the next-hop table's way to
    /// dense switch `towards`.
    #[inline]
    fn trunk_towards(&self, at: u32, towards: u32) -> Option<u32> {
        let next = self.fabric.dense.next_hop_index(at, towards)?;
        self.fabric.trunk_port(at, next)
    }

    /// The output port a frame takes when it sits at dense switch `at` and
    /// must reach the dense destination node `dest_node` attached to dense
    /// switch `dest_switch`: the channel's installed route entry when one
    /// exists, otherwise the local downlink or the trunk port towards the
    /// next switch of the next-hop table.
    #[inline]
    pub(crate) fn egress_port(
        &self,
        at: u32,
        dest_node: u32,
        dest_switch: u32,
        channel: Option<ChannelId>,
    ) -> Option<u32> {
        if let Some(port) = self
            .fabric
            .channel_state(channel)
            .and_then(|state| state.forwarding_port(at))
        {
            return Some(port);
        }
        if dest_switch == at {
            return Some(2 * dest_node + 1);
        }
        self.trunk_towards(at, dest_switch)
    }

    /// Queue the frame at its egress and start the port if it is idle; a
    /// frame without an egress is dropped as unroutable.
    #[inline]
    pub(crate) fn forward(
        &mut self,
        now: SimTime,
        frame: FrameId,
        record: &FrameRecord,
        port: Option<u32>,
    ) {
        match port {
            Some(port) => {
                self.enqueue_at_port(frame, record, port);
                self.try_start_tx(now, port);
            }
            None => self.drop_frame(frame, SimStats::record_unroutable),
        }
    }

    /// Every undelivered exit: count the frame once and give its bytes back.
    fn drop_frame(&mut self, frame: FrameId, count: fn(&mut SimStats)) {
        count(&mut self.lane.stats);
        drop(self.lane.frames.take(frame));
    }

    fn enqueue_at_port(&mut self, frame: FrameId, record: &FrameRecord, port: u32) {
        let deadline = self.fabric.queue_deadline(record, port);
        let out = &mut self.lane.ports[port as usize];
        match record.class() {
            TrafficClass::RealTime => {
                // Control frames have no deadline; give them "now or
                // earlier" urgency by using time zero so they are never
                // queued behind data frames.
                out.enqueue_rt(frame, deadline.unwrap_or(SimTime::ZERO));
            }
            TrafficClass::BestEffort => {
                if !out.enqueue_be(frame) {
                    self.drop_frame(frame, SimStats::record_be_drop);
                }
            }
        }
    }

    fn try_start_tx(&mut self, now: SimTime, port: u32) {
        let out = &mut self.lane.ports[port as usize];
        if out.is_busy(now) || out.is_empty() {
            return;
        }
        let Some(frame) = out.dequeue_next() else {
            return;
        };
        let record = self.lane.frames.record(frame);
        let wire_bytes = record.wire_bytes();
        if record.link_state() {
            self.lane.stats.record_link_state_hop();
        } else if is_control(record.class(), record.channel()) {
            self.lane.stats.record_control_hop();
        }
        let tx = self.fabric.tx_time(wire_bytes);
        out.set_busy_until(now + tx);
        self.lane
            .stats
            .record_transmission(port as usize, wire_bytes, tx);
        let event = match self.fabric.port_links[port as usize] {
            HopLink::Uplink(node) => Event::NodeTxComplete { node, frame },
            HopLink::Downlink(node) => Event::SwitchTxComplete { to: node, frame },
            HopLink::Trunk { from, to } => Event::TrunkTxComplete { from, to, frame },
        };
        self.lane.schedule_after(now, tx, event);
    }

    /// Deliver a frame to the control plane of dense switch `at` (the
    /// receiver is [`NodeId::SWITCH`]; the `switch` field says which one).
    fn deliver_to_switch(&mut self, frame: FrameId, record: &FrameRecord, at: u32, now: SimTime) {
        let switch = self.fabric.dense.switch_at(at);
        self.deliver_inner(frame, record, NodeId::SWITCH, Some(switch), now);
    }

    fn deliver_inner(
        &mut self,
        frame: FrameId,
        record: &FrameRecord,
        receiver: NodeId,
        switch: Option<SwitchId>,
        now: SimTime,
    ) {
        let (class, channel, deadline) = (record.class(), record.channel(), record.deadline());
        match class {
            TrafficClass::RealTime => {
                self.lane
                    .stats
                    .record_rt_delivery(channel, record.injected_at, now, deadline);
            }
            TrafficClass::BestEffort => self.lane.stats.record_be_delivery(),
        }
        let eth = self.lane.frames.take(frame);
        self.lane.deliveries.push(Delivery {
            frame,
            receiver,
            switch,
            source: record.source,
            eth,
            injected_at: record.injected_at,
            delivered_at: now,
            channel,
            deadline,
            class,
        });
    }

    /// Carry out a fault's port flips at `now`.  A killed port is marked
    /// dead, a frame mid-serialisation on it is doomed (lost with the cable
    /// even across a repair), and its queues are drained and counted; a
    /// revived port simply accepts frames again.
    pub(crate) fn flip_ports(&mut self, flips: &PortFlips, now: SimTime) {
        for &port in &flips.kills {
            let p = port as usize;
            self.lane.dead[p] = true;
            if self.lane.ports[p].is_busy(now) {
                self.lane.doomed[p] = true;
            }
            for lost in self.lane.ports[p].drain() {
                self.drop_frame(lost, SimStats::record_failed_link_drop);
            }
        }
        for &port in &flips.revives {
            self.lane.dead[port as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{be_frame, frame_table, rt_frame, seeds};
    use crate::sim::{FaultScript, FrameInjection, Simulator};
    use rt_types::{MacAddr, Route, Topology, Xoshiro256};
    use std::collections::BTreeMap;

    impl FrameTable {
        /// The id of the first frame held, and how many are held from it on.
        pub(crate) fn held(&self) -> (u64, usize) {
            assert_eq!(
                self.records.len(),
                self.bytes.len(),
                "records and byte slots"
            );
            (self.base, self.records.len())
        }

        /// Frames whose bytes are still here: filed, neither delivered nor
        /// dropped.
        pub(crate) fn in_flight(&self) -> usize {
            self.bytes.iter().filter(|slot| slot.is_some()).count()
        }

        /// The storage the table keeps, in slots.
        pub(crate) fn capacity(&self) -> usize {
            self.records.capacity().max(self.bytes.capacity())
        }
    }

    /// The frame table against a map of the frames in flight, over seeded
    /// walks of filings, refused batches, takes and retirements that swing
    /// between a handful of frames and three times the floor.  Ids stay
    /// consecutive across refusals and retirements; `record` gives back the
    /// record filed and `take` the very buffer; a retirement pops exactly
    /// the frames before the first still in flight; and after every step
    /// the storage is within twice what the table holds or the floor, and a
    /// table at or under the floor has given nothing back.
    #[test]
    fn prop_the_frame_table_matches_a_map_of_the_frames_in_flight() {
        let eth = |id: u64| EthernetFrame {
            dst: MacAddr::ZERO,
            src: MacAddr::ZERO,
            ethertype: 0,
            payload: id.to_le_bytes().to_vec(),
        };
        let at = SimTime::from_nanos;
        let record =
            |id| FrameRecord::new(FramePeek::BestEffort, FrameDest::Unknown, N0, at(id), 64);
        for seed in 0..seeds() {
            let mut rng = Xoshiro256::new(seed);
            let mut table = FrameTable::default();
            // Id → the address of its payload, for the frames in flight.
            let mut model = BTreeMap::new();
            let mut end = 0;
            for step in 0..600 {
                let ctx = format!("seed {seed}, step {step}");
                // The storage just before the step may give some back: for a
                // refused batch, once its frames are filed.
                let mut before = table.capacity();
                let size = match rng.below(8) {
                    0 => rng.range_inclusive(1, 3 * FRAME_TABLE_FLOOR as u64),
                    _ => rng.range_inclusive(1, 64),
                };
                match rng.below(4) {
                    0 => {
                        for id in end..end + size {
                            let eth = eth(id);
                            model.insert(id, eth.payload.as_ptr());
                            assert_eq!(table.file(record(id), eth), FrameId::new(id), "{ctx}");
                        }
                        end += size;
                    }
                    1 => {
                        for id in end..end + size {
                            assert_eq!(table.file(record(id), eth(id)), FrameId::new(id), "{ctx}");
                        }
                        before = table.capacity();
                        table.unfile_from(FrameId::new(end));
                        assert_eq!(table.end(), end, "{ctx}: a refusal leaves no id used");
                    }
                    2 => {
                        // Mostly the oldest frame in flight, now and then any.
                        for _ in 0..size.min(model.len() as u64) {
                            let (&first, _) = model.first_key_value().expect("in flight");
                            let (&last, _) = model.last_key_value().expect("in flight");
                            let from = match rng.below(4) {
                                0 => rng.range_inclusive(first, last),
                                _ => first,
                            };
                            let (&id, &payload) = model.range(from..).next().expect("at or after");
                            let frame = FrameId::new(id);
                            assert_eq!(table.record(frame).injected_at, at(id), "{ctx}");
                            let taken = table.take(frame);
                            assert_eq!(taken.payload.as_ptr(), payload, "{ctx}: frame {id}");
                            assert_eq!(taken.payload, id.to_le_bytes(), "{ctx}: frame {id}");
                            model.remove(&id);
                        }
                    }
                    _ => {
                        table.retire();
                        let first = model.keys().next().copied().unwrap_or(end);
                        let (base, held) = table.held();
                        assert_eq!((base, held as u64), (first, end - first), "{ctx}: retired");
                    }
                }
                assert_eq!(table.in_flight(), model.len(), "{ctx}");
                let (capacity, held) = (table.capacity(), table.held().1);
                assert!(
                    capacity <= FRAME_TABLE_FLOOR.max(2 * held),
                    "{ctx}: {capacity} slots for {held} frames"
                );
                if before <= FRAME_TABLE_FLOOR {
                    assert!(capacity >= before, "{ctx}: shrunk under the floor");
                }
            }
        }
    }

    /// The frames the simulator delivered, and how many its frame table
    /// still holds once the frames that left are popped off its front.
    fn delivered_and_held(sim: &mut Simulator) -> (Vec<FrameId>, usize) {
        sim.lane.frames.retire();
        let delivered = sim.lane.deliveries.iter().map(|d| d.frame).collect();
        let (base, held) = frame_table(sim);
        assert_eq!(base + held as u64, sim.injected_count());
        (delivered, held)
    }

    const N0: NodeId = NodeId::new(0);
    const N1: NodeId = NodeId::new(1);

    /// One way for a frame to leave the fabric undelivered.
    struct Case {
        name: &'static str,
        be_capacity: Option<usize>,
        /// Channel wire state installed before the run.
        setup: fn(&mut Simulator),
        /// What node 0 injects at time zero, in order.
        frames: Vec<EthernetFrame>,
        /// When the trunk port 0 → 1 dies and comes back.
        cut_at: Option<SimTime>,
        repair_at: Option<SimTime>,
        /// The counter the losses land in, how many frames are lost, and
        /// which frames still arrive.
        counter: fn(&SimStats) -> u64,
        lost: u64,
        delivered: Vec<u64>,
    }

    /// Every undelivered exit bumps exactly one drop counter and gives the
    /// frame's bytes back; a repaired port that picked up a frame behind a
    /// doomed transmission restarts.  On a two-switch line (node 0 — switch
    /// 0 — switch 1 — node 1), driven two ways: through the core alone with
    /// the port flips applied by hand, then through `run_to_idle` with the
    /// flips scripted as faults.  Each exit retires its frame exactly once:
    /// a second exit of a frame panics in the frame table, and after either run
    /// the frame table has popped every frame off its front.
    #[test]
    fn every_undelivered_exit_counts_once() {
        let config = SimConfig::default();
        let tx = |eth: &EthernetFrame| config.link_speed.transmission_time(eth.wire_bytes());
        let hop = config.propagation_delay + config.switch_latency;
        let (long, short) = (be_frame(N0, N1, 1000), be_frame(N0, N1, 500));
        // `long` is on the trunk from `on_trunk` for `tx(long)`; `short`
        // follows it up the uplink and reaches switch 0 while it is there.
        let on_trunk = SimTime::ZERO + tx(&long) + hop;
        let short_arrives = on_trunk + tx(&short);
        assert!(short_arrives < on_trunk + tx(&long));
        let us = Duration::from_micros;
        let no_setup: fn(&mut Simulator) = |_| {};

        let cases = vec![
            Case {
                name: "unroutable",
                be_capacity: None,
                setup: no_setup,
                frames: vec![be_frame(N0, NodeId::new(99), 100)],
                cut_at: None,
                repair_at: None,
                counter: |s| s.unroutable_dropped,
                lost: 1,
                delivered: vec![],
            },
            Case {
                name: "best-effort overflow",
                // One frame on the uplink, one queued, no room for a third.
                be_capacity: Some(1),
                setup: no_setup,
                frames: vec![short.clone(), short.clone(), short.clone()],
                cut_at: None,
                repair_at: None,
                counter: |s| s.be_dropped,
                lost: 1,
                delivered: vec![0, 1],
            },
            Case {
                name: "released channel",
                be_capacity: None,
                setup: |sim| sim.release_channel(ChannelId::new(7)),
                frames: vec![rt_frame(N0, N1, 7, SimTime::from_millis(1), 200)],
                cut_at: None,
                repair_at: None,
                counter: |s| s.released_channel_dropped,
                lost: 1,
                delivered: vec![],
            },
            Case {
                name: "dead port at arrival",
                be_capacity: None,
                setup: |sim| {
                    let route = Route::from_links(vec![
                        HopLink::Uplink(N0),
                        HopLink::Trunk {
                            from: SwitchId::new(0),
                            to: SwitchId::new(1),
                        },
                        HopLink::Downlink(N1),
                    ])
                    .unwrap();
                    sim.set_channel_route(ChannelId::new(7), &route);
                },
                frames: vec![rt_frame(N0, N1, 7, SimTime::from_millis(1), 200)],
                cut_at: Some(SimTime::from_micros(1)),
                repair_at: None,
                counter: |s| s.failed_link_dropped,
                lost: 1,
                delivered: vec![],
            },
            Case {
                name: "doomed transmission",
                be_capacity: None,
                setup: no_setup,
                frames: vec![long.clone()],
                cut_at: Some(on_trunk + us(1)),
                repair_at: None,
                counter: |s| s.failed_link_dropped,
                lost: 1,
                delivered: vec![],
            },
            Case {
                name: "queue drained by a cut",
                // `long` is doomed on the wire, `short` drained behind it.
                be_capacity: None,
                setup: no_setup,
                frames: vec![long.clone(), short.clone()],
                cut_at: Some(short_arrives + us(1)),
                repair_at: None,
                counter: |s| s.failed_link_dropped,
                lost: 2,
                delivered: vec![],
            },
            Case {
                name: "repaired port restarts behind a doomed transmission",
                // The trunk is back before `short` arrives, but `long`'s
                // doomed transmission still holds the port busy.
                be_capacity: None,
                setup: no_setup,
                frames: vec![long.clone(), short.clone()],
                cut_at: Some(on_trunk + us(1)),
                repair_at: Some(on_trunk + us(2)),
                counter: |s| s.failed_link_dropped,
                lost: 1,
                delivered: vec![1],
            },
        ];

        for case in cases {
            let config = SimConfig {
                be_queue_capacity: case.be_capacity,
                ..config
            };
            let line = || Topology::line(2, 1);
            let prepare = |sim: &mut Simulator| {
                (case.setup)(sim);
                for eth in &case.frames {
                    sim.inject(N0, eth.clone(), SimTime::ZERO).unwrap();
                }
            };
            // `held`: frames the frame table still holds.
            let check = |how: &str, stats: &SimStats, delivered: Vec<FrameId>, held: usize| {
                let name = format!("{} ({how})", case.name);
                assert_eq!((case.counter)(stats), case.lost, "{name}: its counter");
                assert_eq!(stats.total_dropped(), case.lost, "{name}: no other counter");
                let delivered: Vec<u64> = delivered.iter().map(|f| f.get()).collect();
                assert_eq!(delivered, case.delivered, "{name}: deliveries");
                assert_eq!(
                    stats.total_dropped() + delivered.len() as u64,
                    case.frames.len() as u64,
                    "{name}: every frame is delivered or dropped"
                );
                assert_eq!(held, 0, "{name}: every frame leaves the frame table");
            };

            // The core alone: the port flips applied by hand, the topology
            // never changes.
            let mut sim = Simulator::with_topology(config, line()).unwrap();
            prepare(&mut sim);
            let trunk = sim
                .fabric
                .trunk_port(0, 1)
                .expect("the line has trunk 0 → 1");
            let flips = [
                (case.cut_at, vec![trunk], vec![]),
                (case.repair_at, vec![], vec![trunk]),
            ];

            let mut core = Core {
                fabric: &sim.fabric,
                lane: &mut sim.lane,
            };
            for (at, kills, revives) in flips {
                let Some(at) = at else { continue };
                while let Some((time, event)) = core.lane.events.pop_until(at) {
                    core.handle(time, event);
                }
                core.flip_ports(&PortFlips { kills, revives }, at);
            }
            while let Some((time, event)) = core.lane.events.pop() {
                core.handle(time, event);
            }

            let (delivered, held) = delivered_and_held(&mut sim);
            check("core", &sim.lane.stats, delivered, held);

            // `run_to_idle`, the cut and the repair scripted as faults.
            let (a, b) = (SwitchId::new(0), SwitchId::new(1));
            let mut script = FaultScript::new();
            if let Some(at) = case.cut_at {
                script = script.fail_at(at, a, b);
            }
            if let Some(at) = case.repair_at {
                script = script.repair_at(at, a, b);
            }
            let mut sim = Simulator::with_topology(config, line()).unwrap();
            prepare(&mut sim);
            sim.schedule_faults(&script).unwrap();
            sim.run_to_idle();
            let (delivered, held) = delivered_and_held(&mut sim);
            check("run_to_idle", sim.stats(), delivered, held);
        }
    }

    /// A delivery's payload is the very buffer that was injected, under
    /// both injection paths: moved, never copied.
    #[test]
    fn a_delivery_carries_the_injected_buffer_itself() {
        // Frame 0 goes through `inject`, frame 1 through `inject_batch`.
        let one = be_frame(N0, N1, 300);
        let eth = rt_frame(N0, N1, 7, SimTime::from_millis(1), 200);
        let injected = [one.payload.as_ptr(), eth.payload.as_ptr()];
        let batched = FrameInjection {
            node: N0,
            eth,
            at: SimTime::ZERO,
        };
        let mut sim = Simulator::with_topology(SimConfig::default(), Topology::line(2, 1)).unwrap();
        sim.inject(N0, one, SimTime::ZERO).unwrap();
        sim.inject_batch([batched]).unwrap();
        sim.run_to_idle();
        let deliveries = sim.poll_deliveries();
        assert_eq!(deliveries.len(), injected.len());
        for d in deliveries {
            let sent = injected[d.frame.get() as usize];
            assert_eq!(d.eth.payload.as_ptr(), sent, "frame {:?}", d.frame);
        }
    }
}
