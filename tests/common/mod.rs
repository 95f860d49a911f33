//! Shared test harness: drive a [`ChannelManager`] through the real control
//! protocol one frame at a time, with full control over *when* each frame
//! lands — the instrument for injecting faults between handshake phases
//! and for advancing simulated time past reservation leases.
//!
//! The wire simulator always pumps a handshake to completion; this harness
//! deliberately does not.  Tests pop frames one by one, interleave trunk
//! cuts, switch kills, repairs and lease sweeps at exact points of the
//! two-phase reservation, and then settle the manager to quiescence.

// Each integration-test target compiles its own copy of this module and
// uses a different subset of the harness, so some methods are always
// "dead" in any single target.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use switched_rt_ethernet::core::manager::SwitchAction;
use switched_rt_ethernet::core::protocol::ChannelRequest;
use switched_rt_ethernet::core::{ChannelManager, RtChannelSpec};
use switched_rt_ethernet::frames::rt_response::ResponseVerdict;
use switched_rt_ethernet::frames::{Frame, RequestFrame, ResponseFrame};
use switched_rt_ethernet::types::{
    ChannelId, ConnectionRequestId, MacAddr, NodeId, RtResult, SimTime, SwitchId, Topology,
};

/// One queued control-plane delivery: which switch receives the frame, and
/// who it came from.
pub type Pending = (SwitchId, NodeId, Frame);

/// Frame-at-a-time driver for a [`ChannelManager`].
pub struct ControlHarness {
    /// Node → access switch, for addressing destination responses.
    access: BTreeMap<NodeId, SwitchId>,
    /// Control frames awaiting delivery, in wire order.
    queue: VecDeque<Pending>,
    /// Forwarded requests the destination has not answered yet.
    forwarded: VecDeque<(NodeId, RequestFrame)>,
    /// Final verdicts, in arrival order: the admitted id, or `None`.
    pub verdicts: Vec<Option<ChannelId>>,
    /// Switches killed mid-run: frames addressed to them are discarded,
    /// exactly as the wire would lose them.
    dead: BTreeSet<SwitchId>,
}

impl ControlHarness {
    pub fn new(topology: &Topology) -> Self {
        let access = topology
            .nodes()
            .map(|n| (n, topology.switch_of(n).expect("attached node")))
            .collect();
        ControlHarness {
            access,
            queue: VecDeque::new(),
            forwarded: VecDeque::new(),
            verdicts: Vec::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Queue a fresh channel request at the source's access switch.
    pub fn submit(
        &mut self,
        source: NodeId,
        destination: NodeId,
        spec: RtChannelSpec,
        request_id: ConnectionRequestId,
    ) {
        let at = self.access[&source];
        let frame = ChannelRequest {
            source,
            destination,
            spec,
            request_id,
        }
        .to_frame();
        self.queue.push_back((at, source, Frame::Request(frame)));
    }

    /// Frames still awaiting delivery.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The delivery the next `step` makes, if any is queued.
    pub fn next(&self) -> Option<&Pending> {
        self.queue.front()
    }

    /// Forwarded requests awaiting a destination verdict.
    pub fn awaiting_answer(&self) -> usize {
        self.forwarded.len()
    }

    /// Mark a switch dead: queued and future frames addressed to it are
    /// silently dropped (the wire loses them).
    pub fn kill(&mut self, switch: SwitchId) {
        self.dead.insert(switch);
        self.queue.retain(|(at, _, _)| *at != switch);
    }

    /// Deliver the oldest queued frame at `now`.  Returns `false` when the
    /// queue is empty.
    pub fn step<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        now: SimTime,
    ) -> RtResult<bool> {
        let Some((at, from, frame)) = self.queue.pop_front() else {
            return Ok(false);
        };
        if self.dead.contains(&at) {
            return Ok(true);
        }
        let outcome = manager.handle_frame_at(at, from, &frame, now)?;
        self.absorb(outcome.emissions);
        Ok(true)
    }

    /// Deliver every queued frame (including follow-ups) at `now`.
    pub fn drain<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        now: SimTime,
    ) -> RtResult<()> {
        while self.step(manager, now)? {}
        Ok(())
    }

    /// The destination answers the oldest forwarded request.  Returns
    /// `false` if none is pending.
    pub fn answer(&mut self, accept: bool) -> bool {
        let Some((to, frame)) = self.forwarded.pop_front() else {
            return false;
        };
        let response = ResponseFrame {
            rt_channel_id: frame.rt_channel_id,
            switch_mac: MacAddr::for_switch(),
            verdict: if accept {
                ResponseVerdict::Accepted
            } else {
                ResponseVerdict::Rejected
            },
            connection_request_id: frame.connection_request_id,
        };
        let at = self.access[&to];
        self.queue.push_back((at, to, Frame::Response(response)));
        true
    }

    /// Pull the link-state frames a fault origin queued (after a
    /// `handle_link_failure` / `handle_switch_failure` / `handle_link_repair`
    /// call) into the delivery queue.
    pub fn flood<M: ChannelManager + ?Sized>(&mut self, manager: &mut M) {
        let drained = manager.drain_control();
        self.absorb(drained);
    }

    /// Run one lease sweep at exactly `now`, absorb its emissions and
    /// deliver everything queued (the sweep's follow-ups *and* any frame
    /// that was already in flight — which therefore lands *after* the
    /// sweep).
    pub fn tick<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        now: SimTime,
    ) -> RtResult<()> {
        let outcome = manager.on_tick(now)?;
        self.absorb(outcome.emissions);
        self.drain(manager, now)
    }

    /// Fire every pending manager timeout (lease sweeps) in order, draining
    /// the wire after each, until the manager is quiescent.  Returns the
    /// final simulated time.
    pub fn settle<M: ChannelManager + ?Sized>(
        &mut self,
        manager: &mut M,
        mut now: SimTime,
    ) -> RtResult<SimTime> {
        self.drain(manager, now)?;
        while let Some(deadline) = manager.next_timeout() {
            now = deadline.max(now);
            let outcome = manager.on_tick(now)?;
            self.absorb(outcome.emissions);
            self.drain(manager, now)?;
        }
        Ok(now)
    }

    fn absorb(&mut self, emissions: Vec<(SwitchId, SwitchAction)>) {
        for (_, action) in emissions {
            match action {
                SwitchAction::ForwardRequest { to, frame } => {
                    self.forwarded.push_back((to, frame));
                }
                SwitchAction::SendResponse { frame, .. } => {
                    self.verdicts.push(match frame.verdict {
                        ResponseVerdict::Accepted => frame.rt_channel_id,
                        ResponseVerdict::Rejected => None,
                    });
                }
                SwitchAction::SendControl { to, frame } => {
                    if !self.dead.contains(&to) {
                        self.queue
                            .push_back((to, NodeId::SWITCH, Frame::Reservation(frame)));
                    }
                }
            }
        }
    }
}
