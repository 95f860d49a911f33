//! The switch-side RT channel management software (Figure 18.2, box "RT
//! channel management"): the [`ChannelManager`] interface and its value
//! types.
//!
//! A manager owns the admission control and drives the switch's part of the
//! establishment handshake:
//!
//! * on a **RequestFrame** from a source node it runs admission control;
//!   if the channel is feasible it tentatively reserves it, writes the newly
//!   assigned channel ID into the frame and forwards it to the destination
//!   node; otherwise it answers the source directly with a rejection,
//! * on a **ResponseFrame** from the destination it finalises (accept) or
//!   rolls back (reject) the tentative reservation and forwards the response
//!   to the source,
//! * on a **TeardownFrame** it releases the channel's reserved capacity.
//!
//! The manager is a pure state machine: it consumes decoded frames and emits
//! [`SwitchAction`]s; actually putting those actions on the wire is the
//! caller's job (`rt-core::network` does it through the simulator).

use std::fmt;

use rt_frames::{Frame, RequestFrame, ReservationFrame, ResponseFrame};
use rt_types::{ChannelId, HopLink, NodeId, Route, RtResult, SimTime, Slots, SwitchId};

use crate::channel::RtChannelSpec;

/// Something the switch wants to transmit as a result of handling a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchAction {
    /// Forward the (channel-ID-annotated) request to the destination node.
    ForwardRequest {
        /// The destination node of the requested channel.
        to: NodeId,
        /// The annotated request.
        frame: RequestFrame,
    },
    /// Send a response towards a node (the source of the original request).
    SendResponse {
        /// The node to answer.
        to: NodeId,
        /// The response.
        frame: ResponseFrame,
    },
    /// Send a reservation frame to another switch's control plane (the
    /// distributed two-phase admission protocol; central managers never
    /// emit this).
    SendControl {
        /// The addressed switch.
        to: SwitchId,
        /// The reservation frame.
        frame: ReservationFrame,
    },
}

/// Everything a control-plane frame made the manager decide: frames to put
/// on the wire (each originating at a specific switch) and channels whose
/// wire state must be torn down.
///
/// This is the switch-located generalisation of the bare
/// `Vec<SwitchAction>`: the central manager originates everything at the
/// managing switch, while the distributed manager emits from whichever
/// switch handled the frame.
#[derive(Debug, Default)]
pub struct ControlOutcome {
    /// Frames to transmit, each from the given switch.
    pub emissions: Vec<(SwitchId, SwitchAction)>,
    /// Channels released by this frame (tear-downs): the caller must clear
    /// their wire state and tell the destination RT layer to forget them.
    pub released: Vec<ReleasedChannel>,
}

impl ControlOutcome {
    /// An outcome that transmits nothing and releases nothing.
    pub fn empty() -> Self {
        ControlOutcome::default()
    }
}

/// What the network glue needs to know about a channel it just tore down:
/// which id was released and which destination node should forget it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasedChannel {
    /// The released channel id.
    pub id: ChannelId,
    /// The node that was receiving on the channel.
    pub destination: NodeId,
}

/// The unified, manager-agnostic view of an established channel: its
/// contract, the route it was admitted on and the per-link deadline split.
///
/// A single-switch star channel reports the two-link route `uplink →
/// downlink` with the `d_iu`/`d_id` split of Eq. 18.8; a fabric channel
/// reports the full multi-hop route with its partitioned deadlines.  Either
/// way `path.len()` is the hop count `h` of the hop-aware Eq. 18.1 bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelRoute {
    /// The channel id.
    pub id: ChannelId,
    /// Source node.
    pub source: NodeId,
    /// Destination node.
    pub destination: NodeId,
    /// Traffic contract.
    pub spec: RtChannelSpec,
    /// The admitted route (derefs to its `[HopLink]`s).
    pub path: Route,
    /// Per-link deadline budgets, in the same order as `path`; they sum to
    /// the end-to-end deadline `d_i`.
    pub link_deadlines: Vec<Slots>,
}

/// The manager's answer to a trunk failure: which admitted channels were
/// re-routed over surviving paths (with their *new* routes), which had to be
/// dropped because no surviving route could admit them (with their *old*,
/// now-released routes), and how many were untouched.
///
/// The capacity story is exact: every affected channel's reservation was
/// released on all links of its old path; re-routed channels hold fresh
/// reservations on every link of their new path; dropped channels hold
/// nothing.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The failed trunk, as given to the failure handler.
    pub link: (SwitchId, SwitchId),
    /// Channels re-admitted over surviving routes, with their new
    /// [`ChannelRoute`] views (route + fresh per-link deadline split).
    pub rerouted: Vec<ChannelRoute>,
    /// Channels released without a surviving feasible route, with the route
    /// view they had before the failure.
    pub dropped: Vec<ChannelRoute>,
    /// Channels whose route never touched the failed trunk.
    pub unaffected: usize,
}

impl FailoverReport {
    /// Number of channels whose route crossed the failed trunk.
    pub fn affected(&self) -> usize {
        self.rerouted.len() + self.dropped.len()
    }
}

/// The switch-side RT channel management software, star or fabric: the one
/// interface `RtNetwork` drives, whatever the topology.
///
/// A channel manager is a pure state machine — decoded control frames in,
/// [`SwitchAction`]s out — plus read access to the channels it has
/// established.  [`crate::multihop::FabricChannelManager`] implements it
/// with one fabric-wide ledger (the paper's single-switch star is its
/// one-switch case), [`crate::distributed::DistributedChannelManager`] with
/// one ledger per switch.
pub trait ChannelManager: fmt::Debug {
    /// Handle a RequestFrame received from a source node.
    fn handle_request(&mut self, frame: &RequestFrame) -> RtResult<Vec<SwitchAction>>;

    /// Handle a ResponseFrame received from a destination node.
    fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>>;

    /// Handle a channel tear-down: release the reserved capacity on every
    /// link the channel occupied.
    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel>;

    /// Established (confirmed or pending) channel count.
    fn channel_count(&self) -> usize;

    /// Number of reservations still waiting for the destination's answer.
    fn pending_count(&self) -> usize;

    /// The ids of all established channels, in ascending order.
    fn channel_ids(&self) -> Vec<ChannelId>;

    /// The route view of an established channel, or `None` if unknown.
    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute>;

    /// The number of channels currently traversing a directed link.
    fn link_load(&self, link: HopLink) -> usize;

    /// `true` if admitted channels carry per-hop deadline budgets that the
    /// wire-level simulator should enforce per link (multi-hop deadline
    /// partitioning).  A star build keeps the paper's end-to-end EDF stamps
    /// instead.
    fn schedules_hops(&self) -> bool;

    /// React to a trunk failure: release the reservations of every admitted
    /// channel whose route crossed the failed trunk and re-admit each over
    /// the surviving routes (trying the router's candidate paths in order),
    /// preserving channel ids so the endpoints' state stays valid.  Channels
    /// no surviving route can admit are dropped.  Channels off the failed
    /// trunk are untouched — their reservations, routes and deadline splits
    /// stay byte-for-byte identical.
    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport>;

    /// React to a trunk repair: restore the trunk for future admissions and
    /// *re-optimise* — every channel whose current path differs from the
    /// router's primary route on the repaired graph is released and
    /// re-admitted onto that primary route (ids preserved, release-then-
    /// readmit like fail-over), so capacity stranded on detours flows back
    /// to the shortest paths.  A channel the primary route cannot admit
    /// stays on its detour; a repair never drops a channel, so the report's
    /// `dropped` is always empty and `rerouted` lists the migrated channels
    /// with their new routes (the caller must refresh their wire state).
    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport>;

    /// React to a whole-switch failure: every healthy trunk incident to
    /// `switch` goes down atomically, then every channel that crossed any
    /// of them fails over as in [`ChannelManager::handle_link_failure`].
    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport>;

    /// Handle any control-plane frame delivered to the control plane of
    /// switch `at`, originated by `from` (`NodeId::SWITCH` for
    /// switch-originated reservation traffic), at simulated time `now`.
    ///
    /// This is the one entry point the network glue drives.  The central
    /// manager answers with the paper's three-party handshake, every
    /// emission located at `at` and `from` and `now` unread; the distributed
    /// one with the per-switch two-phase reservation protocol, sweeping the
    /// handling site's expired leases first.
    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome>;

    /// The earliest instant at which this manager has time-driven work to
    /// do (a reservation lease or a coordination deadline expiring), or
    /// `None` if it is purely frame-driven.  The network glue advances the
    /// clock to this instant and calls [`ChannelManager::on_tick`] when a
    /// handshake stalls instead of spinning forever.
    fn next_timeout(&self) -> Option<SimTime> {
        None
    }

    /// Run all time-driven work due at or before `now`: sweep expired
    /// reservation leases and abort timed-out coordinations.  Emissions
    /// (lease-expiry rejections back to requesters, release sweeps for
    /// reclaimed slack) are returned like any frame outcome.  After this
    /// returns, [`ChannelManager::next_timeout`] is strictly after `now`
    /// (or `None`).  The default is a no-op: central managers hold no
    /// leases.
    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        let _ = now;
        Ok(ControlOutcome::empty())
    }

    /// Take the control frames this manager queued outside a frame handler
    /// (link-state floods originated by fault/repair notifications).  The
    /// caller must put them on the wire; managers without a control plane
    /// of their own return nothing.
    fn drain_control(&mut self) -> Vec<(SwitchId, SwitchAction)> {
        Vec::new()
    }

    /// Audit the control plane's book-keeping in a quiescent state (no
    /// handshake in flight): every unit of reserved slack must belong to an
    /// admitted channel, every admitted channel must hold exactly its
    /// route's reservations, and no channel id may be admitted twice.
    /// Returns a descriptive error on the first violation found.  The
    /// default accepts (a central manager's single ledger is audited
    /// through its own admission invariants).
    fn audit_quiescent(&self) -> RtResult<()> {
        Ok(())
    }
}
