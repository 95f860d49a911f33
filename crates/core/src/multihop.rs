//! Admission control over a fabric of switches — the paper's single-switch
//! star (§18.3) being the one-switch fabric — and the central channel
//! manager built on it.
//!
//! The paper's conclusions call for "investigating the use of more complex
//! network topologies, i.e. networks consisting of many interconnected
//! switches".  This module is the single-switch machinery written for an
//! arbitrary connected fabric of switches:
//!
//! * a [`Topology`] describes which switch every end node attaches to and
//!   which trunk links connect the switches (trees *and* meshes),
//! * a [`Router`] selects the [`Route`] an RT channel takes — the source's
//!   uplink, zero or more directed trunk hops, and the destination's
//!   downlink; [`rt_types::ShortestPathRouter`] under
//!   [`rt_types::RoutePolicy::Tree`] reproduces the unique-tree-path
//!   behaviour, its other policies open up cyclic fabrics with redundant
//!   trunks,
//! * the end-to-end deadline is partitioned over all links of the route by a
//!   [`MultiHopDps`]: the symmetric scheme gives every hop `d_i / k`, the
//!   asymmetric scheme distributes the slack `d_i − k·C_i` proportionally to
//!   the per-link load — or, on a star build, over its two links by one of
//!   the paper's own rules ([`DpsKind`](crate::dps::DpsKind); the two
//!   families are a [`DpsFamily`]),
//! * admission control ([`MultiHopAdmission`]) runs the same per-link EDF
//!   feasibility test on every link of the route and commits the channel only
//!   if all of them pass.
//!
//! The generalisation keeps the paper's analytical structure: each directed
//! link is still an independent EDF "processor", and the channel is feasible
//! iff every link on its path can schedule its share of the deadline.  Only
//! *path selection* is policy; the acceptance theory is untouched.

use std::collections::{hash_map, HashMap};
use std::fmt;
use std::sync::Arc;

use rt_edf::{FeasibilityTester, FeasibilityVerdict, PeriodicTask, TaskSet};
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{Frame, RequestFrame, ResponseFrame};
use rt_types::{
    ChannelId, ConnectionRequestId, FoldState, HopLink, MacAddr, NodeId, Route, Router, RtError,
    RtResult, ShortestPathRouter, SimTime, Slots, SwitchId, Topology,
};

use crate::channel::RtChannelSpec;
use crate::dps::DpsFamily;
use crate::fault::{self, ChannelStore, FaultLog};
use crate::ledger::{LinkView, ReservationKey, SlackLedger};
use crate::manager::{
    ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel, SwitchAction,
};
use crate::protocol::ChannelRequest;

/// How the end-to-end deadline is split over the links of a multi-hop path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiHopDps {
    /// Every link gets `d_i / k` (the natural generalisation of SDPS).
    Symmetric,
    /// Every link gets `C_i` plus a share of the slack `d_i − k·C_i`
    /// proportional to its link load, counting the candidate channel itself
    /// (the natural generalisation of ADPS, Eq. 18.16).
    Asymmetric,
}

impl MultiHopDps {
    /// Partition `spec.deadline` over `path`, given the per-link loads in
    /// `loads` (same order as `path`).  Every per-link deadline is at least
    /// `C_i` and the parts sum to `d_i` exactly.
    pub fn partition(
        &self,
        spec: &RtChannelSpec,
        path: &[HopLink],
        loads: &[usize],
    ) -> RtResult<Vec<Slots>> {
        debug_assert_eq!(path.len(), loads.len());
        let mut parts = Vec::with_capacity(loads.len());
        self.partition_into(spec, loads, &mut parts)?;
        // Collected in place: a `Slots` is its count.
        Ok(parts.into_iter().map(Slots::new).collect())
    }

    /// [`MultiHopDps::partition`] over a route whose links carry `loads`,
    /// appended to `out` as slot counts — a Reserve frame's list gets its
    /// split straight after its route this way.  Nothing is appended on an
    /// error.
    pub(crate) fn partition_into(
        &self,
        spec: &RtChannelSpec,
        loads: &[usize],
        out: &mut Vec<u64>,
    ) -> RtResult<()> {
        let hops = loads.len() as u64;
        if hops == 0 {
            return Err(RtError::InvalidPartition {
                reason: "empty path".into(),
            });
        }
        let c = spec.capacity.get();
        let d = spec.deadline.get();
        if d < hops * c {
            return Err(RtError::InvalidChannelSpec(format!(
                "deadline {d} is shorter than {hops} hops x capacity {c}"
            )));
        }
        let slack = d - hops * c;
        let weight = |i: usize| match self {
            MultiHopDps::Symmetric => 1.0,
            MultiHopDps::Asymmetric => loads[i] as f64 + 1.0,
        };
        let total_weight: f64 = (0..loads.len()).map(weight).sum();
        // Integer apportionment of the slack: floor of the proportional
        // share, then hand the remaining slots to the largest fractional
        // remainders (ties broken by position, so the result is
        // deterministic).  The remainders live on the stack: `out` is the
        // only thing this may ask the allocator for.
        let base = out.len();
        with_slots(loads.len(), (0.0f64, 0usize), |remainders| {
            let mut assigned = 0u64;
            for (i, remainder) in remainders.iter_mut().enumerate() {
                let exact = slack as f64 * weight(i) / total_weight;
                let floor = exact.floor() as u64;
                out.push(c + floor);
                assigned += floor;
                *remainder = (exact - floor as f64, i);
            }
            remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for k in 0..(slack - assigned) as usize {
                out[base + remainders[k % remainders.len()].1] += 1;
            }
        });
        debug_assert_eq!(out[base..].iter().sum::<u64>(), d);
        Ok(())
    }
}

/// Routes of up to this many links are admitted without a heap temporary
/// (a `fat_tree` route has at most 6, a 4-D torus diameter route 10).
const INLINE_HOPS: usize = 16;

/// Run `f` over `n` slots holding `fill`: on the stack for a route of up to
/// [`INLINE_HOPS`] links, on the heap for a longer one.
pub(crate) fn with_slots<T: Copy, R>(n: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if n <= INLINE_HOPS {
        f(&mut [fill; INLINE_HOPS][..n])
    } else {
        f(&mut vec![fill; n])
    }
}

/// Why admission refused a route: where, with which deadline, and the cause.
/// `Copy`, and built without touching the allocator — the text is produced
/// only when somebody asks for it ([`fmt::Display`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// The link that refused; `None` when the route as a whole could not be
    /// given a deadline split.
    pub link: Option<HopLink>,
    /// The deadline tried: `link`'s share of the end-to-end deadline, or the
    /// end-to-end deadline itself when it could not be partitioned.
    pub deadline: Slots,
    /// What went wrong.
    pub cause: RefusalCause,
}

/// The cause of a [`Refusal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalCause {
    /// The end-to-end deadline cannot be split over the route's links
    /// (shorter than one capacity per hop, or a two-link rule handed a route
    /// of another length).
    NotPartitionable,
    /// The link's share of the deadline does not make a valid periodic task.
    InvalidTask,
    /// The per-link EDF test failed, with its verdict: which constraint, and
    /// for Constraint 2 at which check-point with how much demand.
    Infeasible(FeasibilityVerdict),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.deadline;
        match (self.cause, self.link) {
            (RefusalCause::Infeasible(verdict), Some(link)) => {
                write!(f, "link {link} infeasible with d={d}: {verdict:?}")
            }
            (RefusalCause::NotPartitionable, _) => {
                write!(f, "deadline {d} cannot be split over the route's links")
            }
            _ => write!(f, "d={d} makes no valid periodic task"),
        }
    }
}

/// The admission sequence every control plane runs over a candidate route:
/// read each link's load, partition the deadline by those loads, and test
/// each link's share against what the link holds.  `view_of` resolves a link
/// in whichever ledger owns it and is called once per link; nothing is
/// committed.  Returns the per-link deadlines, or the first refusal.
pub(crate) fn admit_along<'a>(
    dps: DpsFamily,
    spec: &RtChannelSpec,
    path: &[HopLink],
    view_of: impl Fn(HopLink) -> LinkView<'a>,
) -> Result<Vec<Slots>, Refusal> {
    with_slots(path.len(), 0usize, |loads| {
        with_slots(path.len(), None, |views| {
            for ((view, load), link) in views.iter_mut().zip(loads.iter_mut()).zip(path) {
                let resolved = view_of(*link);
                *load = resolved.load();
                *view = Some(resolved);
            }
            let refusal = |link, deadline, cause| Refusal {
                link,
                deadline,
                cause,
            };
            let deadlines = match (dps, &*views) {
                (DpsFamily::PerHop(rule), _) => rule.partition(spec, path, loads).ok(),
                (DpsFamily::TwoLink(rule), &[Some(up), Some(down)]) => rule
                    .split(spec, up, down)
                    .ok()
                    .map(|split| vec![split.uplink, split.downlink]),
                (DpsFamily::TwoLink(_), _) => None,
            }
            .ok_or(refusal(None, spec.deadline, RefusalCause::NotPartitionable))?;
            for ((link, &deadline), view) in path.iter().zip(&deadlines).zip(views.iter().flatten())
            {
                let task = PeriodicTask::new(spec.period, spec.capacity, deadline)
                    .map_err(|_| refusal(Some(*link), deadline, RefusalCause::InvalidTask))?;
                let verdict = view.feasible_with(&task).verdict;
                if verdict != FeasibilityVerdict::Feasible {
                    let cause = RefusalCause::Infeasible(verdict);
                    return Err(refusal(Some(*link), deadline, cause));
                }
            }
            Ok(deadlines)
        })
    })
}

/// Reserve what [`admit_along`] admitted: on every link of `path` one
/// periodic task, `spec`'s period and capacity under that link's share of the
/// deadline.  `reserve` books a task in whichever ledger owns its link, under
/// the caller's key.
pub(crate) fn reserve_along(
    spec: &RtChannelSpec,
    path: &[HopLink],
    deadlines: &[Slots],
    mut reserve: impl FnMut(HopLink, PeriodicTask),
) {
    for (link, &deadline) in path.iter().zip(deadlines) {
        let task = PeriodicTask::new(spec.period, spec.capacity, deadline)
            .expect("admission built a periodic task from this very deadline");
        reserve(*link, task);
    }
}

/// The next id of the inclusive `block` that is not `taken`, searching from
/// `*cursor` and wrapping within the block; the cursor is left just past the
/// id returned.  `None` when every id of the block is taken.
pub(crate) fn next_free_id(
    cursor: &mut u16,
    (start, end): (u16, u16),
    taken: impl Fn(u16) -> bool,
) -> Option<u16> {
    let from = if (start..=end).contains(cursor) {
        *cursor
    } else {
        start
    };
    let free = (from..=end).chain(start..from).find(|id| !taken(*id))?;
    *cursor = if free == end { start } else { free + 1 };
    Some(free)
}

/// Admission control over a topology of switches, from the paper's
/// single-switch star ([`Topology::star`], partitioned by a
/// [`DpsKind`](crate::dps::DpsKind)) to a mesh (partitioned by a
/// [`MultiHopDps`]).
///
/// The reservation book-keeping lives in one fabric-wide [`SlackLedger`] —
/// the central control plane is the degenerate "one switch owns every link"
/// placement of the same ledger the distributed manager splits per switch.
pub struct MultiHopAdmission {
    topology: Topology,
    router: Arc<dyn Router>,
    dps: DpsFamily,
    ledger: SlackLedger,
    /// The admitted channels by raw id, hashed: a request, a teardown and
    /// the fault engine look channels up one id at a time, and the few
    /// outputs that promise ascending ids sort them on the way out.
    channels: HashMap<u16, ChannelRoute, FoldState>,
    faults: FaultLog,
    next_channel_id: u16,
    accepted: u64,
    rejected: u64,
}

impl fmt::Debug for MultiHopAdmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiHopAdmission")
            .field("router", &self.router.name())
            .field("dps", &self.dps)
            .field("channels", &self.channels.len())
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .finish()
    }
}

impl MultiHopAdmission {
    /// Create an admission controller for `topology` using `dps` — a
    /// [`MultiHopDps`], or one of the paper's two-link
    /// [`DpsKind`](crate::dps::DpsKind)s when every route is `uplink →
    /// downlink` — routing with the default [`ShortestPathRouter`]
    /// (identical to the tree path on tree topologies, shortest paths on
    /// meshes).
    pub fn new(topology: Topology, dps: impl Into<DpsFamily>) -> Self {
        Self::with_router(topology, dps, Arc::new(ShortestPathRouter::new()))
    }

    /// Create an admission controller with an explicit path-selection
    /// policy.  The router's capability check runs per request (through
    /// [`Router::route`]); callers that want to fail fast should invoke
    /// [`Router::validate`] when the network is built, as
    /// `rt_core::RtNetworkBuilder` does.
    pub fn with_router(
        topology: Topology,
        dps: impl Into<DpsFamily>,
        router: Arc<dyn Router>,
    ) -> Self {
        MultiHopAdmission {
            topology,
            router,
            dps: dps.into(),
            ledger: SlackLedger::new(),
            channels: HashMap::default(),
            faults: FaultLog::default(),
            next_channel_id: 1,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Guard every link with `tester` instead of the exact two-constraint
    /// test (the utilisation-only ablation).
    pub fn with_tester(mut self, tester: FeasibilityTester) -> Self {
        self.ledger = self.ledger.with_tester(tester);
        self
    }

    /// The topology being managed.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The path-selection policy in use.
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.router
    }

    /// Number of active channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Requests accepted so far.
    pub fn accepted_count(&self) -> u64 {
        self.accepted
    }

    /// Requests rejected so far.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Channels re-routed over a surviving path after a trunk failure.
    pub fn rerouted_count(&self) -> u64 {
        self.faults.rerouted
    }

    /// The number of channels currently traversing `link`.
    pub fn link_load(&self, link: HopLink) -> usize {
        self.ledger.link_load(link)
    }

    /// The task set currently reserved on `link`.
    pub fn link_taskset(&self, link: HopLink) -> TaskSet {
        self.ledger.taskset(link)
    }

    /// Links that currently carry at least one channel.
    pub fn loaded_links(&self) -> impl Iterator<Item = (HopLink, usize)> + '_ {
        self.ledger.loaded_links()
    }

    /// Look up an active channel.
    pub fn channel(&self, id: ChannelId) -> Option<&ChannelRoute> {
        self.channels.get(&id.get())
    }

    /// The active channels, in ascending id order.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelRoute> {
        let mut channels: Vec<&ChannelRoute> = self.channels.values().collect();
        channels.sort_unstable_by_key(|channel| channel.id);
        channels.into_iter()
    }

    /// The next free id of the one fabric-wide block `1..=u16::MAX` (0 means
    /// "not set yet" on the wire).
    fn allocate_channel_id(&mut self) -> RtResult<ChannelId> {
        let live = &self.channels;
        next_free_id(&mut self.next_channel_id, (1, u16::MAX), |id| {
            live.contains_key(&id)
        })
        .map(ChannelId::new)
        .ok_or(RtError::ChannelIdsExhausted)
    }

    /// Partition the deadline over `path` and run the per-link feasibility
    /// test with the candidate added, without committing anything.  Returns
    /// the per-link deadlines on success, or which link failed and why.
    fn try_admit(&self, spec: &RtChannelSpec, path: &Route) -> Result<Vec<Slots>, Refusal> {
        admit_along(self.dps, spec, path, |link| self.ledger.link(link))
    }

    /// Commit an already-tested channel: reserve capacity on every link of
    /// its path under its id.  Returns the channel as stored.
    fn commit(&mut self, channel: ChannelRoute) -> &ChannelRoute {
        let (ledger, key) = (&mut self.ledger, ReservationKey::channel(channel.id));
        reserve_along(
            &channel.spec,
            &channel.path,
            &channel.link_deadlines,
            |link, task| ledger.reserve(link, key, task),
        );
        match self.channels.entry(channel.id.get()) {
            hash_map::Entry::Vacant(slot) => slot.insert(channel),
            hash_map::Entry::Occupied(slot) => {
                let stored = slot.into_mut();
                *stored = channel;
                stored
            }
        }
    }

    /// Request a channel from `source` to `destination`.  Returns the
    /// admitted channel (as stored — clone it to keep it past the next
    /// call), or the [`Refusal`]: which link failed and why.
    ///
    /// The router's candidate routes are tried in preference order: with a
    /// single-route policy this is exactly the classic one-shot admission,
    /// while [`rt_types::RoutePolicy::KShortest`] turns a saturated (or cut)
    /// primary path into a detour instead of a rejection.  A rejection
    /// reports the *primary* path's failure — that is the bound the caller
    /// asked about.
    pub fn request(
        &mut self,
        source: NodeId,
        destination: NodeId,
        spec: RtChannelSpec,
    ) -> RtResult<Result<&ChannelRoute, Refusal>> {
        spec.validate()?;
        let candidates = self.router.routes(&self.topology, source, destination)?;
        let mut primary_failure: Option<Refusal> = None;
        for path in candidates {
            match self.try_admit(&spec, &path) {
                Ok(link_deadlines) => {
                    let id = self.allocate_channel_id()?;
                    self.accepted += 1;
                    return Ok(Ok(self.commit(ChannelRoute {
                        id,
                        source,
                        destination,
                        spec,
                        path,
                        link_deadlines,
                    })));
                }
                Err(failure) => {
                    primary_failure.get_or_insert(failure);
                }
            }
        }
        let refusal = primary_failure.ok_or_else(|| {
            RtError::Config(format!(
                "router {} offers no route from {source} to {destination}",
                self.router.name()
            ))
        })?;
        self.rejected += 1;
        Ok(Err(refusal))
    }

    /// Fail a trunk and fail over, as
    /// [`ChannelManager::handle_link_failure`] describes: every admitted
    /// channel whose route crossed it is released on *all* its links and
    /// re-admitted over the surviving candidate routes under its id, or
    /// dropped; channels off the failed trunk are not touched at all.
    pub fn fail_trunk(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.fail_trunk(from, to)?;
        Ok(fault::fail_over(self, &[(from, to)], (from, to)))
    }

    /// Fail a whole switch: every healthy trunk incident to it goes down
    /// *atomically* (the topology degrades in one step before any
    /// re-admission runs, so no re-route can be placed across a trunk that is
    /// about to die), and every admitted channel that crossed any of them
    /// fails over as in [`MultiHopAdmission::fail_trunk`].  The reported
    /// `link` is the degenerate `(switch, switch)` pair.
    pub fn fail_switch(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        let cut = self.topology.fail_switch(switch)?;
        Ok(fault::fail_over(self, &cut, (switch, switch)))
    }

    /// Repair a previously failed trunk and *re-optimise*, as
    /// [`ChannelManager::handle_link_repair`] describes: every admitted
    /// channel off the router's primary route on the repaired graph is moved
    /// back onto it (same id, fresh deadline split), or left on its detour
    /// with its exact previous reservation.  `rerouted` lists the channels
    /// moved back, with their new routes; `dropped` is always empty.
    pub fn repair_trunk(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.repair_trunk(from, to)?;
        Ok(fault::reoptimize(self, (from, to)))
    }

    /// Tear down a channel, releasing its capacity on every link of its
    /// path.
    pub fn release(&mut self, id: ChannelId) -> RtResult<ChannelRoute> {
        let channel = self
            .channels
            .remove(&id.get())
            .ok_or(RtError::UnknownChannel(id))?;
        self.faults.forget(id.get());
        // `commit` reserved this id on exactly the links of the path, so
        // releasing along it frees everything the channel holds without
        // visiting the rest of the fabric's ledger.
        let key = ReservationKey::channel(id);
        for link in channel.path.iter() {
            self.ledger.release(*link, key);
        }
        Ok(channel)
    }
}

/// The fault engine's view of the central manager: one table, one ledger that
/// owns every link, keys that are the channel ids themselves.
impl ChannelStore for MultiHopAdmission {
    type Holder = ();

    fn fabric(&self) -> &Topology {
        &self.topology
    }

    fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    fn ids(&self) -> impl ExactSizeIterator<Item = u16> + '_ {
        self.channels.keys().copied()
    }

    fn record(&self, id: u16) -> &ChannelRoute {
        &self.channels[&id]
    }

    fn faults(&self) -> &FaultLog {
        &self.faults
    }

    fn faults_mut(&mut self) -> &mut FaultLog {
        &mut self.faults
    }

    fn ids_on(&self, trunk: HopLink, ids: &mut Vec<u16>) {
        // `commit` reserved each channel's key on exactly the links of its
        // path, and reserves under channel ids only.
        for key in self.ledger.keys_on(trunk) {
            if let ReservationKey::Channel(id) = key {
                ids.push(id);
            }
        }
    }

    fn lift(&mut self, id: u16) -> (ChannelRoute, ()) {
        let lifted = self.release(ChannelId::new(id));
        (
            lifted.expect("the engine lifts only ids it read off the table or its books"),
            (),
        )
    }

    fn admit(&self, spec: &RtChannelSpec, route: &Route) -> Option<Vec<Slots>> {
        self.try_admit(spec, route).ok()
    }

    fn put(&mut self, channel: ChannelRoute, (): ()) -> &ChannelRoute {
        self.commit(channel)
    }
}

/// A reservation waiting for the destination node's confirmation.
#[derive(Debug, Clone, Copy)]
struct PendingFabricReservation {
    source: NodeId,
    request_id: ConnectionRequestId,
}

/// The managing switch's RT channel management software (Figure 18.2, box
/// "RT channel management"), for the single-switch star and for a
/// multi-switch fabric alike.
///
/// The handshake is the paper's three-party protocol — RequestFrame in,
/// admission, forwarded request, ResponseFrame back — with admission running
/// the per-link EDF feasibility test on *every* link of the route (uplink,
/// trunks if any, downlink) and the end-to-end deadline partitioned by the
/// admission controller's [`DpsFamily`].  It is a pure state machine: frames
/// in, [`SwitchAction`]s out; the caller puts the actions on the wire.
#[derive(Debug)]
pub struct FabricChannelManager {
    admission: MultiHopAdmission,
    /// Reservations keyed by the assigned channel id, awaiting the
    /// destination's ResponseFrame.
    pending: HashMap<u16, PendingFabricReservation, FoldState>,
    switch_mac: MacAddr,
}

impl FabricChannelManager {
    /// Wrap a multi-hop admission controller.
    pub fn new(admission: MultiHopAdmission) -> Self {
        FabricChannelManager {
            admission,
            pending: HashMap::default(),
            switch_mac: MacAddr::for_switch(),
        }
    }

    /// The admission controller (and through it the topology).
    pub fn admission(&self) -> &MultiHopAdmission {
        &self.admission
    }

    /// The one action a RequestFrame ends in: the annotated request forwarded
    /// to the destination, or the rejection sent back to the source.
    fn answer_request(&mut self, frame: &RequestFrame) -> RtResult<SwitchAction> {
        let request = ChannelRequest::from_frame(frame)?;
        match self
            .admission
            .request(request.source, request.destination, request.spec)?
        {
            Ok(channel) => {
                // Tentative reservation: capacity is held on every link of
                // the path, but the channel only becomes usable once the
                // destination accepts.
                let id = channel.id;
                self.pending.insert(
                    id.get(),
                    PendingFabricReservation {
                        source: request.source,
                        request_id: request.request_id,
                    },
                );
                let mut annotated = *frame;
                annotated.rt_channel_id = Some(id);
                Ok(SwitchAction::ForwardRequest {
                    to: request.destination,
                    frame: annotated,
                })
            }
            Err(_refusal) => Ok(SwitchAction::SendResponse {
                to: request.source,
                frame: ResponseFrame {
                    rt_channel_id: None,
                    switch_mac: self.switch_mac,
                    verdict: ResponseVerdict::Rejected,
                    connection_request_id: request.request_id,
                },
            }),
        }
    }

    /// The one action a ResponseFrame ends in: the destination's verdict
    /// passed on to the source, the reservation rolled back if it refused.
    fn answer_response(&mut self, frame: &ResponseFrame) -> RtResult<SwitchAction> {
        let channel_id = frame.rt_channel_id.ok_or_else(|| {
            RtError::ProtocolViolation("destination response carries no RT channel id".into())
        })?;
        let reservation = self.pending.remove(&channel_id.get()).ok_or_else(|| {
            RtError::UnknownRequest(format!("no pending reservation for channel {channel_id}"))
        })?;
        if !frame.verdict.is_accepted() {
            // Destination refused: roll the whole-path reservation back.
            self.admission.release(channel_id)?;
        }
        Ok(SwitchAction::SendResponse {
            to: reservation.source,
            frame: ResponseFrame {
                rt_channel_id: Some(channel_id),
                switch_mac: self.switch_mac,
                verdict: frame.verdict,
                connection_request_id: reservation.request_id,
            },
        })
    }

    /// A channel that is gone can no longer complete a pending handshake.
    fn forget_pending(&mut self, report: FailoverReport) -> FailoverReport {
        for dropped in &report.dropped {
            self.pending.remove(&dropped.id.get());
        }
        report
    }
}

impl ChannelManager for FabricChannelManager {
    fn handle_request(&mut self, frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        Ok(vec![self.answer_request(frame)?])
    }

    fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        Ok(vec![self.answer_response(frame)?])
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        let released = self.admission.release(channel)?;
        // Torn down while the destination's answer was outstanding: that
        // answer, when it comes, finds no request to complete.
        self.pending.remove(&channel.get());
        Ok(ReleasedChannel {
            id: released.id,
            destination: released.destination,
        })
    }

    fn channel_count(&self) -> usize {
        self.admission.channel_count()
    }

    fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.admission.channels().map(|c| c.id).collect()
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        self.admission.channel(id).cloned()
    }

    fn link_load(&self, link: HopLink) -> usize {
        self.admission.link_load(link)
    }

    fn schedules_hops(&self) -> bool {
        matches!(self.admission.dps, DpsFamily::PerHop(_))
    }

    /// The central handshake, one outcome per frame built where the answer
    /// is: every emission originates at `at` (every control frame was
    /// forwarded to the managing switch anyway), and `now` is not read — a
    /// central manager holds no leases.
    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        _from: NodeId,
        frame: &Frame,
        _now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let (emissions, released) = match frame {
            Frame::Request(request) => (vec![(at, self.answer_request(request)?)], Vec::new()),
            Frame::Response(response) => (vec![(at, self.answer_response(response)?)], Vec::new()),
            Frame::Teardown(teardown) => {
                let released = self.handle_teardown(teardown.rt_channel_id)?;
                (Vec::new(), vec![released])
            }
            other => {
                return Err(RtError::ProtocolViolation(format!(
                    "unexpected frame at the switch control plane: {other:?}"
                )))
            }
        };
        Ok(ControlOutcome {
            emissions,
            released,
        })
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        let report = self.admission.fail_trunk(from, to)?;
        Ok(self.forget_pending(report))
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.admission.repair_trunk(from, to)
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        let report = self.admission.fail_switch(switch)?;
        Ok(self.forget_pending(report))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::dps::DpsKind;
    use crate::fault::tests::{
        assert_ascending_across_the_wrap, reuse_ids_across_the_wrap, seen_on_primary,
        CountingRouter, Fault, Walked,
    };

    /// Two access switches joined by one trunk; `m` masters on switch 0 and
    /// `s` slaves on switch 1.
    fn dumbbell(m: u32, s: u32) -> Topology {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        for i in 0..m {
            t.attach_node(NodeId::new(i), SwitchId::new(0)).unwrap();
        }
        for i in 0..s {
            t.attach_node(NodeId::new(m + i), SwitchId::new(1)).unwrap();
        }
        t
    }

    /// The links the default router gives a channel from node `source` to
    /// node `destination`.
    fn links_of(t: &Topology, source: u32, destination: u32) -> RtResult<Vec<HopLink>> {
        ShortestPathRouter::new()
            .route(t, NodeId::new(source), NodeId::new(destination))
            .map(Route::into_links)
    }

    #[test]
    fn topology_construction_and_validation() {
        let mut t = Topology::new();
        t.add_switch(SwitchId::new(0));
        t.add_switch(SwitchId::new(1));
        t.add_switch(SwitchId::new(2));
        assert!(t.attach_node(NodeId::new(0), SwitchId::new(9)).is_err());
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        assert!(t.attach_node(NodeId::new(0), SwitchId::new(1)).is_err());
        t.add_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
        t.add_trunk(SwitchId::new(1), SwitchId::new(2)).unwrap();
        // Self-loop, unknown switch and duplicate trunk rejected; a cycle
        // is legal (meshes are a router concern, not a topology one).
        assert!(t.add_trunk(SwitchId::new(0), SwitchId::new(0)).is_err());
        assert!(t.add_trunk(SwitchId::new(0), SwitchId::new(7)).is_err());
        assert!(t.add_trunk(SwitchId::new(1), SwitchId::new(0)).is_err());
        t.add_trunk(SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert!(!t.is_tree());
        assert_eq!(t.switch_count(), 3);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.switch_of(NodeId::new(0)), Some(SwitchId::new(0)));
    }

    #[test]
    fn switch_paths_and_routes() {
        let t = dumbbell(2, 2);
        // Cross-switch route: uplink, trunk, downlink.
        let route = links_of(&t, 0, 2).unwrap();
        assert_eq!(
            route,
            vec![
                HopLink::Uplink(NodeId::new(0)),
                HopLink::Trunk {
                    from: SwitchId::new(0),
                    to: SwitchId::new(1)
                },
                HopLink::Downlink(NodeId::new(2)),
            ]
        );
        // Same-switch route: no trunk hop.
        let route = links_of(&t, 0, 1).unwrap();
        assert_eq!(route.len(), 2);
        assert!(links_of(&t, 0, 0).is_err());
        assert!(links_of(&t, 0, 99).is_err());
    }

    #[test]
    fn route_through_a_chain_of_switches() {
        // sw0 - sw1 - sw2 - sw3, node 0 on sw0 and node 1 on sw3.
        let mut t = Topology::new();
        for i in 0..4 {
            t.add_switch(SwitchId::new(i));
        }
        for i in 0..3 {
            t.add_trunk(SwitchId::new(i), SwitchId::new(i + 1)).unwrap();
        }
        t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
        t.attach_node(NodeId::new(1), SwitchId::new(3)).unwrap();
        let route = links_of(&t, 0, 1).unwrap();
        assert_eq!(route.len(), 5); // uplink + 3 trunks + downlink
        assert!(matches!(route[2], HopLink::Trunk { from, to }
            if from == SwitchId::new(1) && to == SwitchId::new(2)));
    }

    #[test]
    fn symmetric_partition_splits_evenly() {
        let spec = RtChannelSpec::paper_default(); // C=3, d=40
        let t = dumbbell(1, 1);
        let path = links_of(&t, 0, 1).unwrap();
        // Same-switch path would be 2 hops; cross-switch is 3.
        let parts = MultiHopDps::Symmetric
            .partition(&spec, &path, &vec![0; path.len()])
            .unwrap();
        assert_eq!(parts.iter().map(|s| s.get()).sum::<u64>(), 40);
        // Even split over 3 hops: 13/13/14 (in some order), all >= C.
        assert!(parts.iter().all(|&p| p >= Slots::new(3)));
        let max = parts.iter().max().unwrap().get();
        let min = parts.iter().min().unwrap().get();
        assert!(max - min <= 1);
    }

    #[test]
    fn asymmetric_partition_favours_loaded_links() {
        let spec = RtChannelSpec::paper_default();
        let path = vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Downlink(NodeId::new(5)),
        ];
        // The trunk is much more loaded than the access links.
        let parts = MultiHopDps::Asymmetric
            .partition(&spec, &path, &[1, 20, 1])
            .unwrap();
        assert_eq!(parts.iter().map(|s| s.get()).sum::<u64>(), 40);
        assert!(parts[1] > parts[0]);
        assert!(parts[1] > parts[2]);
        assert!(parts.iter().all(|&p| p >= spec.capacity));
    }

    #[test]
    fn partition_rejects_too_many_hops_for_the_deadline() {
        // d = 2C only allows 2 hops.
        let spec = RtChannelSpec::new(Slots::new(100), Slots::new(5), Slots::new(10)).unwrap();
        let path = vec![
            HopLink::Uplink(NodeId::new(0)),
            HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1),
            },
            HopLink::Downlink(NodeId::new(1)),
        ];
        assert!(MultiHopDps::Symmetric
            .partition(&spec, &path, &[0, 0, 0])
            .is_err());
    }

    #[test]
    fn trunk_becomes_the_bottleneck_and_asymmetric_dps_relieves_it() {
        // 6 masters on switch 0 each talking to its own slave on switch 1:
        // every channel crosses the single trunk, which becomes the
        // bottleneck link.  The asymmetric scheme hands the trunk a larger
        // share of each deadline and therefore admits more channels.
        let spec = RtChannelSpec::paper_default();
        let run = |dps: MultiHopDps| -> u64 {
            let mut admission = MultiHopAdmission::new(dumbbell(6, 6), dps);
            let mut accepted = 0;
            for round in 0..6u32 {
                for m in 0..6u32 {
                    let source = NodeId::new(m);
                    let destination = NodeId::new(6 + ((m + round) % 6));
                    if admission
                        .request(source, destination, spec)
                        .unwrap()
                        .is_ok()
                    {
                        accepted += 1;
                    }
                }
            }
            accepted
        };
        let symmetric = run(MultiHopDps::Symmetric);
        let asymmetric = run(MultiHopDps::Asymmetric);
        assert!(
            asymmetric >= symmetric,
            "asymmetric ({asymmetric}) must not trail symmetric ({symmetric})"
        );
        // With d=40 over 3 hops the trunk gets ~13 slots symmetric -> 4
        // channels fit (4*3=12<=13); asymmetric grows the trunk share as its
        // load rises.
        assert!(symmetric >= 4);
        assert!(asymmetric > 4);
    }

    #[test]
    fn admission_commits_and_releases_capacity_on_every_hop() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = MultiHopAdmission::new(dumbbell(2, 2), MultiHopDps::Asymmetric);
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        let channel = admission
            .request(NodeId::new(0), NodeId::new(2), spec)
            .unwrap()
            .unwrap()
            .clone();
        assert_eq!(channel.path.len(), 3);
        assert_eq!(admission.link_load(HopLink::Uplink(NodeId::new(0))), 1);
        assert_eq!(admission.link_load(trunk), 1);
        assert_eq!(admission.link_load(HopLink::Downlink(NodeId::new(2))), 1);
        assert_eq!(admission.channel_count(), 1);
        assert!(admission.channel(channel.id).is_some());
        assert_eq!(admission.loaded_links().count(), 3);

        let released = admission.release(channel.id).unwrap();
        assert_eq!(released.id, channel.id);
        assert_eq!(admission.link_load(trunk), 0);
        assert_eq!(admission.channel_count(), 0);
        assert!(admission.release(channel.id).is_err());
    }

    #[test]
    fn same_switch_channels_do_not_consume_trunk_capacity() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = MultiHopAdmission::new(dumbbell(3, 3), MultiHopDps::Symmetric);
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        // node0 -> node1 both live on switch 0.
        let channel = admission
            .request(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap()
            .clone();
        assert_eq!(channel.path.len(), 2);
        assert_eq!(admission.link_load(trunk), 0);
        // And the split is the single-switch SDPS: 20/20.
        assert_eq!(channel.link_deadlines, vec![Slots::new(20), Slots::new(20)]);
    }

    #[test]
    fn rejections_identify_the_bottleneck_link() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = MultiHopAdmission::new(dumbbell(8, 8), MultiHopDps::Symmetric);
        let mut last_rejection = None;
        for m in 0..8u32 {
            for round in 0..3u32 {
                let result = admission
                    .request(NodeId::new(m), NodeId::new(8 + ((m + round) % 8)), spec)
                    .unwrap();
                if let Err(refusal) = result {
                    last_rejection = Some(refusal);
                }
            }
        }
        // With 24 cross-trunk requests the trunk saturates first (13 slots
        // symmetric share -> 4 channels), so rejections blame the trunk.
        let refusal = last_rejection.expect("the trunk saturates");
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        assert_eq!(refusal.link, Some(trunk));
        // The typed cause carries what the text used to: the share tried and
        // the check-point the fifth channel's demand overran.
        assert_eq!(refusal.deadline, Slots::new(13));
        assert_eq!(
            refusal.cause,
            RefusalCause::Infeasible(FeasibilityVerdict::DemandExceeded {
                at: Slots::new(13),
                demand: Slots::new(15),
            })
        );
        assert_eq!(
            refusal.to_string(),
            format!(
                "link {trunk} infeasible with d=13 slot(s): DemandExceeded {{ at: Slots(13), demand: Slots(15) }}"
            )
        );
        assert!(admission.rejected_count() > 0);
        assert!(admission.accepted_count() > 0);
    }

    // --- the single-switch star (the paper's §18.3 system) ------------------

    fn star(nodes: u32, dps: DpsKind) -> MultiHopAdmission {
        let nodes = (0..nodes).map(NodeId::new);
        MultiHopAdmission::new(Topology::star(SwitchId::new(0), nodes), dps)
    }

    #[test]
    fn a_star_uplink_takes_six_sdps_channels_and_a_refusal_changes_nothing() {
        let spec = RtChannelSpec::paper_default(); // U = 0.03, d = 40 << P
        let mut admission = star(40, DpsKind::Symmetric);
        let ask = |admission: &mut MultiHopAdmission, dst: u32| {
            let result = admission.request(NodeId::new(0), NodeId::new(dst), spec);
            result
                .unwrap()
                .map(|channel| channel.link_deadlines.clone())
        };
        for dst in 1..=6 {
            assert_eq!(
                ask(&mut admission, dst),
                Ok(vec![Slots::new(20), Slots::new(20)])
            );
        }
        // d_iu = 20 fits six channels of C = 3; the rest are refused on the
        // master's uplink (tested before the downlink), and a refusal leaves
        // every link as it was.
        let before: Vec<_> = admission.loaded_links().collect();
        for dst in 7..=20 {
            let refusal = ask(&mut admission, dst).unwrap_err();
            assert_eq!(refusal.link, Some(HopLink::Uplink(NodeId::new(0))));
        }
        assert_eq!(admission.loaded_links().collect::<Vec<_>>(), before);
        let counts = |a: &MultiHopAdmission| (a.accepted_count(), a.rejected_count());
        assert_eq!(counts(&admission), (6, 14));
        assert_eq!(admission.channel_count(), 6);
        // Each link holds the supposed task of Eq. 18.6/18.7: the channel's
        // P and C under that link's share of the deadline.
        let held = admission.link_taskset(HopLink::Uplink(NodeId::new(0)));
        let supposed = PeriodicTask::new(spec.period, spec.capacity, Slots::new(20)).unwrap();
        assert_eq!(held.tasks(), [supposed; 6]);
        assert!(admission
            .link_taskset(HopLink::Downlink(NodeId::new(0)))
            .is_empty());

        // What the caller got wrong is an error, not a counted decision: a
        // spec with d < 2C, an unknown endpoint, a channel to oneself.
        let bad = RtChannelSpec {
            deadline: Slots::new(5),
            ..spec
        };
        let node = NodeId::new;
        assert!(admission.request(node(1), node(2), bad).is_err());
        for (src, dst) in [(1, 77), (77, 1)] {
            let unknown = admission.request(node(src), node(dst), spec).unwrap_err();
            assert_eq!(unknown, RtError::UnknownNode(node(77)));
        }
        assert!(admission.request(node(1), node(1), spec).is_err());
        assert_eq!(counts(&admission), (6, 14));

        // Ablation B's premise: with d < P the utilisation bound alone admits
        // what the exact test refuses — everything, while U <= 1.
        let mut shortcut =
            star(40, DpsKind::Symmetric).with_tester(FeasibilityTester::utilisation_only());
        assert!((1..=33).all(|dst| ask(&mut shortcut, dst).is_ok()));
        assert!(ask(&mut shortcut, 34).is_err(), "34 x 0.03 > 1");
    }

    #[test]
    fn channel_ids_wrap_past_the_live_ones_and_are_never_zero() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = star(8, DpsKind::Asymmetric);
        let next_id = |admission: &mut MultiHopAdmission, src: u32| {
            let result = admission.request(NodeId::new(src), NodeId::new(src + 1), spec);
            result.unwrap().unwrap().id.get()
        };
        assert_eq!(next_id(&mut admission, 0), 1);
        admission.next_channel_id = u16::MAX;
        assert_eq!(next_id(&mut admission, 2), u16::MAX);
        // 0 means "not set yet" on the wire and 1 is still live.
        assert_eq!(next_id(&mut admission, 4), 2);
    }

    /// The ascending-id contract on the central manager: `channels()` and
    /// `channel_ids()` read a hashed table and the fault reports come out of
    /// the engine, each in ascending id order, after ids were handed out again
    /// out of order across the end of the id space.
    #[test]
    fn ids_come_out_ascending_after_reuse_across_the_wrap() {
        let wrap = |admission: &mut MultiHopAdmission| admission.next_channel_id = u16::MAX - 3;
        let (admission, admitted, reports) = reuse_ids_across_the_wrap(wrap);
        assert!(admitted.contains(&u16::MAX) && admitted.contains(&1));
        let live: Vec<u16> = admission.channels().map(|c| c.id.get()).collect();
        assert_ascending_across_the_wrap(&admitted, &reports, &live);
        let manager = FabricChannelManager::new(admission);
        let ids: Vec<u16> = manager.channel_ids().iter().map(|id| id.get()).collect();
        assert_eq!(ids, live);
    }

    #[test]
    fn next_free_id_wraps_inside_its_block_and_runs_out() {
        let block = (10, 12);
        let mut cursor = 0; // outside the block: the search starts at its head
        assert_eq!(next_free_id(&mut cursor, block, |_| false), Some(10));
        assert_eq!(next_free_id(&mut cursor, block, |id| id == 11), Some(12));
        assert_eq!(cursor, 10, "past the block's last id is its first");
        assert_eq!(next_free_id(&mut cursor, block, |id| id != 11), Some(11));
        assert_eq!(next_free_id(&mut cursor, block, |_| true), None);
        assert_eq!(cursor, 12, "a full block moves nothing");
        assert_eq!(next_free_id(&mut cursor, (7, 7), |_| false), Some(7));
        assert_eq!(cursor, 7);
    }

    /// A router that knows no route at all is a configuration error of the
    /// caller's, reported as one.
    #[test]
    fn a_router_offering_no_route_is_an_error_not_a_panic() {
        #[derive(Debug)]
        struct NoRoutes;
        impl Router for NoRoutes {
            fn name(&self) -> &'static str {
                "no-routes"
            }
            fn validate(&self, _: &Topology) -> RtResult<()> {
                Ok(())
            }
            fn route(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Route> {
                ShortestPathRouter::new().route(t, s, d)
            }
            fn routes(&self, _: &Topology, _: NodeId, _: NodeId) -> RtResult<Vec<Route>> {
                Ok(vec![])
            }
        }
        let mut admission = MultiHopAdmission::with_router(
            dumbbell(1, 1),
            MultiHopDps::Symmetric,
            Arc::new(NoRoutes),
        );
        let spec = RtChannelSpec::paper_default();
        let error = admission
            .request(NodeId::new(0), NodeId::new(1), spec)
            .unwrap_err();
        assert!(matches!(error, RtError::Config(text) if text.contains("no-routes")));
        assert_eq!(admission.rejected_count(), 0, "an error is not a verdict");
    }

    // --- fail-over ---------------------------------------------------------

    #[test]
    fn fail_trunk_reroutes_around_a_ring() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = MultiHopAdmission::new(Topology::ring(4, 1), MultiHopDps::Symmetric);
        // node 0 (sw0) -> node 3 (sw3): the closing trunk, 3 hops.
        let affected = admission
            .request(NodeId::new(0), NodeId::new(3), spec)
            .unwrap()
            .unwrap()
            .clone();
        assert_eq!(affected.path.len(), 3);
        // node 1 (sw1) -> node 2 (sw2): off the closing trunk.
        let untouched = admission
            .request(NodeId::new(1), NodeId::new(2), spec)
            .unwrap()
            .unwrap()
            .clone();
        let untouched_before = admission.channel(untouched.id).unwrap().clone();

        let report = admission
            .fail_trunk(SwitchId::new(3), SwitchId::new(0))
            .unwrap();
        assert_eq!(report.link, (SwitchId::new(3), SwitchId::new(0)));
        assert_eq!(report.rerouted.len(), 1);
        assert_eq!(report.dropped.len(), 0);
        assert_eq!(report.unaffected, 1);
        assert_eq!(report.affected(), 1);
        // Same id, new 5-hop route the long way around.
        let rerouted = &report.rerouted[0];
        assert_eq!(rerouted.id, affected.id);
        assert_eq!(rerouted.path.len(), 5);
        assert_eq!(
            rerouted.link_deadlines.iter().map(|s| s.get()).sum::<u64>(),
            spec.deadline.get()
        );
        // Capacity follows the channel: the long-way trunks now carry it.
        assert_eq!(
            admission.link_load(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1)
            }),
            1
        );
        // The untouched channel is byte-for-byte identical.
        assert_eq!(admission.channel(untouched.id).unwrap(), &untouched_before);
        assert_eq!(admission.rerouted_count(), 1);

        // Repair restores the trunk AND re-optimises: the detoured channel
        // migrates back onto its 3-hop primary route, id preserved.
        let repair = admission
            .repair_trunk(SwitchId::new(0), SwitchId::new(3))
            .unwrap();
        assert_eq!(repair.rerouted.len(), 1);
        assert_eq!(repair.rerouted[0].id, affected.id);
        assert_eq!(repair.rerouted[0].path.len(), 3);
        assert!(repair.dropped.is_empty(), "a repair never drops a channel");
        assert_eq!(admission.channel(affected.id).unwrap().path.len(), 3);
        // The detour trunks no longer carry it.
        assert_eq!(
            admission.link_load(HopLink::Trunk {
                from: SwitchId::new(0),
                to: SwitchId::new(1)
            }),
            0
        );
        let fresh = admission
            .request(NodeId::new(0), NodeId::new(3), spec)
            .unwrap()
            .unwrap()
            .clone();
        assert_eq!(fresh.path.len(), 3, "new requests use the repaired trunk");
    }

    /// What a repair learnt about a channel goes with the channel: a new
    /// channel that is handed a torn-down one's id (ids come round, and
    /// `next_channel_id` need not wrap for it: any free id above it is next)
    /// is looked at by the next repair, even one landing on the very state
    /// the old holder was seen on its primary under.
    #[test]
    fn a_reissued_id_carries_nothing_over_from_its_last_holder() {
        let spec = RtChannelSpec::paper_default();
        let (sw0, sw2, sw3) = (SwitchId::new(0), SwitchId::new(2), SwitchId::new(3));
        let mut admission = MultiHopAdmission::new(Topology::ring(4, 1), MultiHopDps::Symmetric);
        let ask = |admission: &mut MultiHopAdmission| {
            let verdict = admission.request(NodeId::new(0), NodeId::new(3), spec);
            verdict.unwrap().unwrap().clone()
        };
        let first = ask(&mut admission);
        // A flap elsewhere: its repair sees the channel on its primary route
        // under the healthy state.
        admission.fail_trunk(sw2, sw3).unwrap();
        let seen = admission.repair_trunk(sw2, sw3).unwrap();
        assert_eq!((seen.rerouted.len(), seen.unaffected), (0, 1));
        assert_eq!(seen_on_primary(&admission), 1);

        admission.release(first.id).unwrap();
        admission.fail_trunk(sw3, sw0).unwrap();
        admission.next_channel_id = first.id.get();
        let second = ask(&mut admission);
        assert_eq!((second.id, second.path.len()), (first.id, 5), "the detour");
        // Back on the healthy state: the new holder moves onto the primary.
        let repair = admission.repair_trunk(sw3, sw0).unwrap();
        assert_eq!(repair.rerouted.len(), 1);
        assert_eq!(admission.channel(second.id).unwrap().path, first.path);
    }

    #[test]
    fn fail_trunk_drops_channels_when_the_fabric_splits() {
        let spec = RtChannelSpec::paper_default();
        let mut admission = MultiHopAdmission::new(dumbbell(1, 1), MultiHopDps::Symmetric);
        let channel = admission
            .request(NodeId::new(0), NodeId::new(1), spec)
            .unwrap()
            .unwrap()
            .clone();
        let report = admission
            .fail_trunk(SwitchId::new(0), SwitchId::new(1))
            .unwrap();
        assert_eq!(report.rerouted.len(), 0);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].id, channel.id);
        assert_eq!(admission.channel_count(), 0, "the dropped channel is gone");
        assert_eq!(
            admission.link_load(HopLink::Uplink(NodeId::new(0))),
            0,
            "released on every hop"
        );
        // Failing a non-existent trunk is an error, not a silent no-op.
        assert!(admission
            .fail_trunk(SwitchId::new(0), SwitchId::new(1))
            .is_err());
    }

    #[test]
    fn k_shortest_fallback_admits_past_a_saturated_primary() {
        let spec = RtChannelSpec::paper_default();
        // Ring of 4 with 12 nodes per switch: masters on sw0 talk to slaves
        // on sw1 over the direct trunk until it saturates; the k-shortest
        // router then detours the long way around instead of rejecting.
        let run = |router: Arc<dyn Router>| -> u64 {
            let mut admission = MultiHopAdmission::with_router(
                Topology::ring(4, 12),
                MultiHopDps::Symmetric,
                router,
            );
            for i in 0..10u32 {
                let _ = admission
                    .request(NodeId::new(i), NodeId::new(12 + i), spec)
                    .unwrap();
            }
            admission.accepted_count()
        };
        let shortest_only = run(Arc::new(rt_types::ShortestPathRouter::new()));
        let with_fallback = run(Arc::new(ShortestPathRouter::with_policy(
            rt_types::RoutePolicy::KShortest { k: 3 },
        )));
        assert!(
            with_fallback > shortest_only,
            "k-shortest fallback ({with_fallback}) must beat single-path ({shortest_only})"
        );
    }

    /// The ledger as the live channel table implies it: per link, the keys
    /// of exactly the channels whose path crosses it.  Scans the whole ledger
    /// (`loaded_links`, `keys_on`) — here, in the test, so product code can
    /// release along one path and still be checked against every link.
    /// Returns how many links hold anything.
    fn assert_ledger_matches_channels(admission: &MultiHopAdmission) -> usize {
        let mut expected: BTreeMap<HopLink, Vec<ReservationKey>> = BTreeMap::new();
        for channel in admission.channels() {
            for link in channel.path.iter() {
                expected
                    .entry(*link)
                    .or_default()
                    .push(ReservationKey::channel(channel.id));
            }
        }
        let held: BTreeMap<HopLink, Vec<ReservationKey>> = admission
            .loaded_links()
            .map(|(link, load)| {
                let keys = admission.ledger.keys_on(link);
                assert_eq!(keys.len(), load, "{link}");
                assert_eq!(admission.link_load(link), load, "{link}");
                (link, keys)
            })
            .collect();
        assert_eq!(held, expected, "ledger and channel table disagree");
        held.len()
    }

    // --- the fault path against the code it replaced -----------------------

    /// The central manager under `fault::tests`' walk.
    impl Walked for MultiHopAdmission {
        fn build(topology: &Topology, router: Arc<dyn Router>) -> Self {
            MultiHopAdmission::with_router(topology.clone(), MultiHopDps::Asymmetric, router)
        }

        fn ask(
            &mut self,
            source: NodeId,
            destination: NodeId,
            spec: RtChannelSpec,
        ) -> RtResult<Option<ChannelRoute>> {
            Ok(self.request(source, destination, spec)?.ok().cloned())
        }

        fn tear_down(&mut self, id: ChannelId) {
            self.release(id).unwrap();
        }

        fn notify(&mut self, fault: Fault) -> RtResult<FailoverReport> {
            match fault {
                Fault::Cut(a, b) => self.fail_trunk(a, b),
                Fault::Repair(a, b) => self.repair_trunk(a, b),
                Fault::Kill(switch) => self.fail_switch(switch),
            }
        }

        fn degrade(&mut self, fault: Fault) -> RtResult<Vec<(SwitchId, SwitchId)>> {
            Ok(match fault {
                Fault::Cut(a, b) => self.topology.fail_trunk(a, b).map(|()| vec![(a, b)])?,
                Fault::Repair(a, b) => self.topology.repair_trunk(a, b).map(|()| vec![])?,
                Fault::Kill(switch) => self.topology.fail_switch(switch)?,
            })
        }

        fn audit(&mut self) -> usize {
            assert_ledger_matches_channels(self)
        }
    }

    // --- the mechanism, as counts ------------------------------------------

    /// Every live channel with what the ledger holds for it, link by link.
    fn holdings(admission: &MultiHopAdmission) -> BTreeMap<u16, (ChannelRoute, Vec<PeriodicTask>)> {
        let held = |channel: &ChannelRoute| {
            let key = ReservationKey::channel(channel.id);
            let on = |link: &HopLink| {
                let at = admission.ledger.keys_on(*link).binary_search(&key).unwrap();
                admission.ledger.taskset(*link).tasks()[at]
            };
            channel.path.iter().map(on).collect()
        };
        admission
            .channels()
            .map(|c| (c.id.get(), (c.clone(), held(c))))
            .collect()
    }

    /// A fault costs what it touches, counted in router calls on the
    /// benchmark's 256-switch torus under 300 channels: a cut asks for the
    /// candidates of the channels on the cut trunk and reads or writes
    /// nothing of any other; the first repair asks about every live channel
    /// once; a second flap of the same trunk asks only about the channels
    /// admitted or re-placed since.  The counts are deterministic: pinned.
    #[test]
    fn a_fault_asks_the_router_only_about_the_channels_it_may_move() {
        let topology = Topology::torus_nd(&[4, 4, 4, 4], 4).unwrap();
        let nodes = topology.node_count() as u64;
        let router = Arc::new(CountingRouter::default());
        let mut admission =
            MultiHopAdmission::with_router(topology, MultiHopDps::Asymmetric, router.clone());
        let mut rng = rt_types::rng::Xoshiro256::new(0xfa17_c057);
        let spec = RtChannelSpec::new(Slots::new(400), Slots::new(2), Slots::new(120)).unwrap();
        let mut admit = |admission: &mut MultiHopAdmission, count: usize| {
            let mut admitted = Vec::new();
            while admitted.len() < count {
                let (src, dst) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
                if src != dst {
                    let verdict = admission.request(NodeId::new(src), NodeId::new(dst), spec);
                    admitted.push(verdict.unwrap().expect("a light fabric admits it").id);
                }
            }
            admitted
        };
        admit(&mut admission, 300);
        // The trunk most channels cross.
        let mut crossing: BTreeMap<(SwitchId, SwitchId), usize> = BTreeMap::new();
        for link in admission.channels().flat_map(|c| c.path.iter()) {
            if let HopLink::Trunk { from, to } = *link {
                *crossing.entry((from.min(to), from.max(to))).or_default() += 1;
            }
        }
        let (&(a, b), &on_the_trunk) = crossing.iter().max_by_key(|(_, count)| **count).unwrap();
        router.take();

        // (iii) The cut: one `routes` call per affected channel, and every
        // other channel is bit for bit what it was, in the table and in the
        // ledger.
        let before = holdings(&admission);
        let report = admission.fail_trunk(a, b).unwrap();
        assert_eq!(
            (report.affected(), report.unaffected),
            (on_the_trunk, 300 - on_the_trunk)
        );
        assert_eq!(router.take(), (0, report.affected() as u64));
        let after = holdings(&admission);
        let moved: Vec<u16> = report.rerouted.iter().map(|r| r.id.get()).collect();
        for (id, was) in &before {
            assert_eq!(moved.contains(id), after[id] != *was, "channel {id}");
        }
        assert!(report.dropped.is_empty(), "the torus has detours to spare");

        // (i) The first repair has seen no channel on this state: it asks
        // about each once, and moves the detoured ones back.
        let report = admission.repair_trunk(a, b).unwrap();
        assert_eq!(router.take(), (300, 0));
        assert_eq!(report.rerouted.len(), on_the_trunk);
        let back_on = |(id, (was, _)): (&u16, &(ChannelRoute, Vec<PeriodicTask>))| {
            admission.channels[id].path == was.path
        };
        assert!(
            before.iter().all(back_on),
            "every channel is back on its route"
        );

        // (ii) Seven more channels, then the same trunk flaps again: the
        // repair asks about those seven and about what the cut moved.
        let fresh = admit(&mut admission, 7);
        router.take();
        let cut = admission.fail_trunk(a, b).unwrap();
        let moved: Vec<ChannelId> = cut.rerouted.iter().map(|r| r.id).collect();
        let fresh_and_moved = fresh.iter().filter(|id| moved.contains(id)).count();
        assert_eq!(router.take(), (0, cut.affected() as u64));
        let report = admission.repair_trunk(a, b).unwrap();
        let asked = (7 + moved.len() - fresh_and_moved) as u64;
        assert_eq!(router.take(), (asked, 0));
        assert_eq!(report.rerouted.len(), moved.len());
        assert_eq!(report.unaffected, 307 - moved.len());
        assert_eq!((on_the_trunk, asked), (27, 34), "the pinned counts");
    }

    // --- FabricChannelManager (handshake over the fabric) -----------------

    fn fabric_request(src: u32, dst: u32, req_id: u8) -> RequestFrame {
        ChannelRequest {
            source: NodeId::new(src),
            destination: NodeId::new(dst),
            spec: RtChannelSpec::paper_default(),
            request_id: ConnectionRequestId::new(req_id),
        }
        .to_frame()
    }

    fn destination_accepts(frame: &RequestFrame) -> ResponseFrame {
        ResponseFrame {
            rt_channel_id: frame.rt_channel_id,
            switch_mac: MacAddr::for_switch(),
            verdict: ResponseVerdict::Accepted,
            connection_request_id: frame.connection_request_id,
        }
    }

    #[test]
    fn fabric_manager_full_accept_handshake() {
        let mut m = FabricChannelManager::new(MultiHopAdmission::new(
            dumbbell(2, 2),
            MultiHopDps::Asymmetric,
        ));
        let actions = m.handle_request(&fabric_request(0, 2, 7)).unwrap();
        let forwarded = match &actions[0] {
            SwitchAction::ForwardRequest { to, frame } => {
                assert_eq!(*to, NodeId::new(2));
                assert!(frame.rt_channel_id.is_some());
                *frame
            }
            other => panic!("expected ForwardRequest, got {other:?}"),
        };
        assert_eq!(m.pending_count(), 1);
        assert_eq!(m.channel_count(), 1);
        // The committed channel crosses all three links.
        let id = forwarded.rt_channel_id.unwrap();
        let channel = m.admission().channel(id).unwrap();
        assert_eq!(channel.path.len(), 3);

        let actions = m.handle_response(&destination_accepts(&forwarded)).unwrap();
        assert_eq!(m.pending_count(), 0);
        match &actions[0] {
            SwitchAction::SendResponse { to, frame } => {
                assert_eq!(*to, NodeId::new(0));
                assert!(frame.verdict.is_accepted());
                assert_eq!(frame.connection_request_id, ConnectionRequestId::new(7));
            }
            other => panic!("expected SendResponse, got {other:?}"),
        }
    }

    #[test]
    fn fabric_manager_rejection_answers_source_directly() {
        // Saturate the trunk, then expect a direct rejection.
        let mut m = FabricChannelManager::new(MultiHopAdmission::new(
            dumbbell(8, 8),
            MultiHopDps::Symmetric,
        ));
        let mut rejected = false;
        for i in 0..24u8 {
            let f = fabric_request(u32::from(i % 8), 8 + u32::from(i % 8), i);
            let actions = m.handle_request(&f).unwrap();
            match &actions[0] {
                SwitchAction::ForwardRequest { frame, .. } => {
                    let fwd = *frame;
                    m.handle_response(&destination_accepts(&fwd)).unwrap();
                }
                SwitchAction::SendResponse { to, frame } => {
                    assert_eq!(*to, NodeId::new(u32::from(i % 8)));
                    assert!(!frame.verdict.is_accepted());
                    assert_eq!(frame.rt_channel_id, None);
                    rejected = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected, "the trunk should have saturated");
    }

    #[test]
    fn fabric_manager_destination_rejection_rolls_back_every_hop() {
        let mut m = FabricChannelManager::new(MultiHopAdmission::new(
            dumbbell(2, 2),
            MultiHopDps::Symmetric,
        ));
        let trunk = HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        };
        let actions = m.handle_request(&fabric_request(0, 2, 1)).unwrap();
        let fwd = match &actions[0] {
            SwitchAction::ForwardRequest { frame, .. } => *frame,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(m.admission().link_load(trunk), 1);
        let mut reject = destination_accepts(&fwd);
        reject.verdict = ResponseVerdict::Rejected;
        m.handle_response(&reject).unwrap();
        assert_eq!(m.channel_count(), 0);
        assert_eq!(m.admission().link_load(trunk), 0);

        // Protocol violations are errors, and so is an unknown requester.
        assert!(m.handle_response(&reject).is_err());
        let mut no_id = reject;
        no_id.rt_channel_id = None;
        assert!(m.handle_response(&no_id).is_err());
        assert!(m.handle_request(&fabric_request(9, 0, 1)).is_err());
    }

    /// A teardown that arrives while the destination's answer is outstanding
    /// ends the handshake too: nothing stays pending for a channel that holds
    /// nothing, and the late answer — either verdict — finds no request.
    #[test]
    fn a_teardown_before_the_destination_answers_forgets_the_handshake() {
        let mut m = FabricChannelManager::new(MultiHopAdmission::new(
            dumbbell(2, 2),
            MultiHopDps::Asymmetric,
        ));
        for verdict in [ResponseVerdict::Accepted, ResponseVerdict::Rejected] {
            let actions = m.handle_request(&fabric_request(0, 2, 5)).unwrap();
            let fwd = match &actions[0] {
                SwitchAction::ForwardRequest { frame, .. } => *frame,
                other => panic!("unexpected {other:?}"),
            };
            let id = fwd.rt_channel_id.unwrap();
            let route = m.admission().channel(id).unwrap().path.clone();
            assert_eq!((route.len(), m.pending_count()), (3, 1));

            m.handle_teardown(id).unwrap();
            assert_eq!((m.pending_count(), m.channel_count()), (0, 0));
            assert!(route.iter().all(|link| m.link_load(*link) == 0));
            let mut late = destination_accepts(&fwd);
            late.verdict = verdict;
            let answer = m.handle_response(&late);
            assert!(
                matches!(answer, Err(RtError::UnknownRequest(_))),
                "{answer:?}"
            );
        }
    }

    #[test]
    fn fabric_manager_teardown_releases_the_path() {
        let mut m = FabricChannelManager::new(MultiHopAdmission::new(
            dumbbell(2, 2),
            MultiHopDps::Asymmetric,
        ));
        let actions = m.handle_request(&fabric_request(0, 2, 3)).unwrap();
        let fwd = match &actions[0] {
            SwitchAction::ForwardRequest { frame, .. } => *frame,
            other => panic!("unexpected {other:?}"),
        };
        m.handle_response(&destination_accepts(&fwd)).unwrap();
        let id = fwd.rt_channel_id.unwrap();
        let released = m.handle_teardown(id).unwrap();
        assert_eq!(released.id, id);
        assert_eq!(m.channel_count(), 0);
        assert!(m.handle_teardown(id).is_err());
    }
}
