//! The distributed control plane: per-switch channel managers and the
//! deterministic two-phase reservation protocol that replaces "teleport
//! every control frame to the one managing switch".
//!
//! ## The shape
//!
//! Every switch runs its own manager — a [`SlackLedger`] covering exactly
//! the links that switch *owns* (its outgoing trunk ports plus the uplinks
//! and downlinks of its attached nodes), so control-plane work scales with
//! switch count and no switch is a single point of failure.  Slack moves
//! only through [`ReservationFrame`]s that really traverse the fabric —
//! admission latency is paid in store-and-forward wire hops, not in a
//! zero-cost teleport.
//!
//! ## The protocol (per candidate route, coordinated by the source's access
//! switch)
//!
//! 1. **Probe** (forward): hops the route's switch sequence; each switch
//!    appends the current load of the route links it owns.  The collected
//!    loads are exactly what the central manager would have read, so the
//!    deadline partition ([`MultiHopDps`]) is identical.
//! 2. **Reserve** (backward, started by the destination's access switch
//!    after partitioning): each switch feasibility-tests and *tentatively
//!    reserves* its owned links under the per-link deadlines the frame
//!    carries, keyed by `(coordinator, token)`.
//! 3. On a mid-path failure, a **Rollback** sweeps the already-reserved
//!    switches and the destination switch answers **ReserveFailed** to the
//!    coordinator — which tries the next candidate route only *after* the
//!    rollback completed, so partial reservations never leak slack and a
//!    retry never reads its own stale state.
//! 4. On success the coordinator assigns the channel id and forwards the
//!    annotated request to the destination node, exactly as the paper's
//!    manager does; the destination's answer is relayed back by its access
//!    switch as a **Confirm** (commit) or a rolling-back rejection.
//!
//! ## Honest distribution: convergence delay, leases, id blocks
//!
//! Three properties make the control plane trustworthy when it is itself
//! degraded (they replace the oracle crutches earlier revisions documented
//! — one instantaneous topology view, a fabric-wide id sequencer, and
//! reservations stranded forever by a mid-handshake cut):
//!
//! * **Link-state flooding.**  A trunk event is announced only by the two
//!   switches adjacent to it, as [`ReservationOp::LinkState`] control
//!   frames that really traverse the fabric; every receiving site applies
//!   the announcement to its *own* [`Topology`] view and re-floods, with a
//!   per-trunk epoch deduplicating the flood and ordering late frames.
//!   Until the flood converges, two switches can disagree about the fabric
//!   — admission stays safe because each site checks *its own* trunks'
//!   liveness on every Probe/Reserve step (a site is always current about
//!   the trunks it owns), so a probe routed over a dead link by a stale
//!   coordinator fails cleanly into the Rollback path, and geometry
//!   disagreements abort into ReserveFailed instead of reserving on the
//!   wrong links.
//! * **Reservation leases.**  Every tentative reservation carries an
//!   expiry deadline in its site's [`SlackLedger`]; sites sweep expired
//!   leases whenever a frame reaches them (and on explicit clock ticks),
//!   so a handshake stranded by a cut or a killed coordinator has its
//!   partial reservations *expire* instead of leaking slack forever.  The
//!   Confirm pass walks the route backward renewing (attesting) each
//!   site's lease — a Confirm arriving after an expiry finds the lease
//!   gone and aborts with `ReserveFailed(LeaseExpired)` back to the
//!   coordinator, which answers the requester with a rejection; it never
//!   resurrects reclaimed slack.  Coordinations themselves time out the
//!   same way.
//! * **Per-switch id blocks.**  The id space `1..=u16::MAX` is sharded
//!   into one contiguous block per switch; a coordinator allocates only
//!   from its own block (wrapping within it, skipping live ids), so no
//!   fabric-wide sequencer exists and two coordinators can never race to
//!   the same id.  Parity with the central oracle is therefore checked
//!   under an *id-remapping*: the k-th admission on either side must have
//!   the same route, verdict and byte-for-byte delivery, with distributed
//!   ids mapped to central ids in admission order.
//!
//! The centralised [`crate::multihop::FabricChannelManager`] stays in the
//! tree as the property-tested oracle (`tests/fabric_properties.rs` drives
//! both over 32 seeds).  Remaining modelling simplifications, documented
//! rather than hidden: the committed-channel registry is manager-level
//! state (a site's lease sweep consults it to spare channels whose commit
//! landed but whose lease-clear frame has not), and the destination-side
//! relay state is written without a wire frame at commit time.
//!
//! Fail-over is **driven by the switches adjacent to the cut**: they own
//! the dead trunk's directed ports, so their ledgers name exactly the
//! channels that crossed it; those are released everywhere and re-admitted
//! over surviving routes with their ids preserved.  The same adjacent
//! switches originate the link-state flood for the cut.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use rt_edf::PeriodicTask;
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{
    Frame, RequestFrame, ReservationFrame, ReservationOp, ReservationReason, ResponseFrame,
};
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, MacAddr, NodeId, Route, Router, RtError, RtResult,
    SimTime, Slots, SwitchId, Topology,
};

use crate::channel::RtChannelSpec;
use crate::ledger::{ReservationKey, SlackLedger};
use crate::manager::{
    ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel, SwitchAction,
};
use crate::multihop::{admit_along, HopLink, MultiHopDps};
use crate::protocol::ChannelRequest;

/// An in-flight admission, owned by its coordinator (the source's access
/// switch).
#[derive(Debug)]
struct Coordination {
    source: NodeId,
    destination: NodeId,
    spec: RtChannelSpec,
    request_id: ConnectionRequestId,
    /// The router's candidate routes, tried in order (the memoised list,
    /// shared with the route cache).
    candidates: Arc<[Route]>,
    /// Index of the candidate currently being probed / reserved.
    candidate: usize,
    /// Per-link deadline split, once the Reserve pass completed.
    deadlines: Option<Vec<Slots>>,
    /// The assigned channel id, once the whole route is reserved.
    channel: Option<ChannelId>,
    /// When this coordination times out: refreshed on every frame the
    /// coordinator handles for it, so only a genuinely stalled handshake
    /// (lost frame, partition) is aborted.
    expires: SimTime,
}

/// Destination-side pending state: the destination's access switch must
/// relay the destination node's answer back to the coordinator.
#[derive(Debug, Clone, Copy)]
struct DestPending {
    coordinator: SwitchId,
    token: u16,
    source: NodeId,
    spec: RtChannelSpec,
    candidate: u8,
    /// When this relay entry is garbage-collected (the destination node
    /// never answered — its request or its response was lost to a fault).
    expires: SimTime,
}

/// One switch's control-plane state.
#[derive(Debug)]
struct Site {
    /// The slack ledger of the links this switch owns.
    ledger: SlackLedger,
    /// Admissions this switch coordinates, by token.
    coordinations: BTreeMap<u16, Coordination>,
    /// Destination-side pending relays, by raw channel id — the one
    /// network-unique key the destination node echoes back, so concurrent
    /// admissions from different sources can never collide here.
    expecting: BTreeMap<u16, DestPending>,
    /// This switch's own — possibly stale — view of the fabric.  Updated
    /// only by link-state flood frames (and by originating an announcement
    /// for a trunk this switch is adjacent to); never written "through the
    /// backplane".
    view: Topology,
    /// Highest link-state epoch applied per undirected trunk `(a, b)` with
    /// `a < b`: older or duplicate announcements are dropped, which both
    /// terminates the flood and keeps late frames from resurrecting a
    /// stale view.
    ls_seen: BTreeMap<(u32, u32), u64>,
    /// Next channel-id candidate inside this switch's id block.
    next_local_id: u16,
}

impl Site {
    fn new(view: Topology, block_start: u16) -> Self {
        Site {
            ledger: SlackLedger::new(),
            coordinations: BTreeMap::new(),
            expecting: BTreeMap::new(),
            view,
            ls_seen: BTreeMap::new(),
            next_local_id: block_start,
        }
    }
}

/// A committed channel, registered at commit time with the coordinator that
/// owns its reservation key.
#[derive(Debug, Clone)]
struct DistChannel {
    id: ChannelId,
    source: NodeId,
    destination: NodeId,
    spec: RtChannelSpec,
    path: Route,
    link_deadlines: Vec<Slots>,
    coordinator: SwitchId,
    token: u16,
}

impl DistChannel {
    fn key(&self) -> ReservationKey {
        ReservationKey::token(self.coordinator, self.token)
    }

    fn to_route(&self) -> ChannelRoute {
        ChannelRoute {
            id: self.id,
            source: self.source,
            destination: self.destination,
            spec: self.spec,
            path: self.path.clone(),
            link_deadlines: self.link_deadlines.clone(),
        }
    }
}

/// Memoised candidate lists, keyed by `(topology fingerprint, source,
/// destination)`.
type RouteCache = BTreeMap<(u64, u32, u32), Arc<[Route]>>;

/// The distributed channel manager: one [`Site`] per switch behind the one
/// [`ChannelManager`] seam, driven through
/// [`ChannelManager::handle_frame_at`] with real switch context.
pub struct DistributedChannelManager {
    topology: Topology,
    router: Arc<dyn Router>,
    dps: MultiHopDps,
    sites: BTreeMap<SwitchId, Site>,
    /// Memo of the router's candidate lists, keyed by `(topology
    /// fingerprint, source, destination)`: reservation frames carry only
    /// the candidate *index* and every hop re-derives the route, so without
    /// this a k-shortest enumeration would rerun per control-frame hop.
    /// The fingerprint key makes entries self-invalidating across topology
    /// changes.  Lists are shared, not copied, per look-up.
    route_cache: RouteCache,
    /// Committed channels, by raw id.  Written only through
    /// [`DistributedChannelManager::register`] /
    /// [`DistributedChannelManager::unregister`], which keep `committed` in
    /// step.
    registry: BTreeMap<u16, DistChannel>,
    /// The registry indexed by reservation key (→ raw channel id): "is this
    /// key a committed channel's" is asked by every lease sweep and every
    /// token allocation, and must not cost a walk over the whole registry.
    committed: BTreeMap<ReservationKey, u16>,
    next_token: u16,
    switch_mac: MacAddr,
    /// How long an in-flight reservation (and a coordination, and a
    /// destination-side relay entry) may live before its site reclaims it.
    lease_duration: Duration,
    /// Monotone link-state epoch source: one fresh epoch per trunk event,
    /// shared by the two adjacent origin switches so their floods absorb
    /// each other.
    ls_epoch: u64,
    /// Link-state floods originated by fault/repair notifications (which
    /// have no frame context to emit from); the caller drains these onto
    /// the wire via [`ChannelManager::drain_control`].
    pending_control: Vec<(SwitchId, SwitchAction)>,
    accepted: u64,
    rejected: u64,
    rerouted: u64,
    dropped_on_failure: u64,
    /// In-flight reservations reclaimed because their lease expired.
    lease_expired: u64,
}

impl fmt::Debug for DistributedChannelManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedChannelManager")
            .field("router", &self.router.name())
            .field("dps", &self.dps)
            .field("sites", &self.sites.len())
            .field("channels", &self.registry.len())
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .finish()
    }
}

impl DistributedChannelManager {
    /// Create a distributed control plane over `topology`: one manager per
    /// switch, the given deadline-partitioning scheme and path-selection
    /// policy shared by all.  Every site starts from the same converged
    /// view of the (healthy) fabric and thereafter learns of trunk events
    /// only through link-state flood frames, so candidate routes are
    /// recomputed per hop from each site's *own* view instead of being
    /// carried in the frames.
    pub fn new(topology: Topology, dps: MultiHopDps, router: Arc<dyn Router>) -> Self {
        let switches: Vec<SwitchId> = topology.switches().collect();
        let sites = switches
            .iter()
            .enumerate()
            .map(|(idx, &s)| {
                let (start, _) = Self::id_block_of(switches.len(), idx);
                (s, Site::new(topology.clone(), start))
            })
            .collect();
        DistributedChannelManager {
            topology,
            router,
            dps,
            sites,
            route_cache: BTreeMap::new(),
            registry: BTreeMap::new(),
            committed: BTreeMap::new(),
            next_token: 1,
            switch_mac: MacAddr::for_switch(),
            lease_duration: Duration::from_millis(50),
            ls_epoch: 0,
            pending_control: Vec::new(),
            accepted: 0,
            rejected: 0,
            rerouted: 0,
            dropped_on_failure: 0,
            lease_expired: 0,
        }
    }

    /// The ground-truth topology (what the fault-injection API has done to
    /// the fabric; individual sites' views may lag behind it until the
    /// link-state flood converges).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The topology as `switch` currently believes it to be.
    pub fn view_of(&self, switch: SwitchId) -> Option<&Topology> {
        self.sites.get(&switch).map(|s| &s.view)
    }

    /// How long in-flight reservations live before their site reclaims
    /// them.
    pub fn lease_duration(&self) -> Duration {
        self.lease_duration
    }

    /// Override the reservation lease duration (tests shorten it to force
    /// expiries; the default is generous enough that healthy handshakes
    /// never race it).
    pub fn set_lease_duration(&mut self, lease: Duration) {
        self.lease_duration = lease;
    }

    /// In-flight reservations reclaimed because their lease expired.
    pub fn lease_expired_count(&self) -> u64 {
        self.lease_expired
    }

    /// Requests accepted so far (fabric-wide).
    pub fn accepted_count(&self) -> u64 {
        self.accepted
    }

    /// Requests rejected so far (fabric-wide).
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Channels re-routed over a surviving path after a failure.
    pub fn rerouted_count(&self) -> u64 {
        self.rerouted
    }

    /// Channels dropped because no surviving route could re-admit them.
    pub fn failure_dropped_count(&self) -> u64 {
        self.dropped_on_failure
    }

    // --- ownership and geometry ------------------------------------------

    /// The switch that owns a link's slack: the access switch for uplinks
    /// and downlinks, the transmitting switch for trunks.
    fn owner_of(&self, link: HopLink) -> Option<SwitchId> {
        match link {
            HopLink::Uplink(n) | HopLink::Downlink(n) => self.topology.switch_of(n),
            HopLink::Trunk { from, .. } => Some(from),
        }
    }

    /// The link indices (into the route) owned by the switch at position
    /// `i` of the switch sequence: the uplink at position 0, the outgoing
    /// trunk at every interior position, the downlink at the last.
    fn owned_link_indices(route_len: usize, seq_len: usize, i: usize) -> Vec<usize> {
        let mut owned = Vec::with_capacity(2);
        if i == 0 {
            owned.push(0);
        }
        if i + 1 < seq_len {
            owned.push(1 + i);
        }
        if i + 1 == seq_len {
            owned.push(route_len - 1);
        }
        owned
    }

    /// The router's candidate list for one node pair as seen from `at`'s
    /// *own view*, memoised per view fingerprint (every reservation-frame
    /// hop re-derives its route from `(source, destination, candidate)`,
    /// and a k-shortest enumeration is far too expensive to rerun per
    /// hop).  Two sites whose views disagree during a link-state
    /// convergence window can derive different lists for the same pair —
    /// the per-hop geometry checks turn that disagreement into a graceful
    /// abort, never a reservation on the wrong links.
    fn candidate_routes_at(
        &mut self,
        at: SwitchId,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Arc<[Route]>> {
        let site = self
            .sites
            .get(&at)
            .ok_or_else(|| RtError::Config(format!("unknown switch {at}")))?;
        Self::cached_routes(
            &mut self.route_cache,
            self.router.as_ref(),
            &site.view,
            source,
            destination,
        )
    }

    /// The candidate list derived from the ground-truth topology — used
    /// only by the synchronous fail-over / re-optimisation engine (which
    /// models the adjacent switches' atomic recovery decision), never by
    /// the per-hop frame path.
    fn candidate_routes_global(
        &mut self,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Arc<[Route]>> {
        Self::cached_routes(
            &mut self.route_cache,
            self.router.as_ref(),
            &self.topology,
            source,
            destination,
        )
    }

    /// The memoised look-up behind both candidate-list accessors: the key's
    /// fingerprint is `view`'s memoised one, so a hit costs one map probe
    /// and one reference-count bump.
    fn cached_routes(
        cache: &mut RouteCache,
        router: &dyn Router,
        view: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Arc<[Route]>> {
        let key = (view.fingerprint(), source.get(), destination.get());
        if let Some(candidates) = cache.get(&key) {
            return Ok(Arc::clone(candidates));
        }
        let candidates: Arc<[Route]> = router.routes(view, source, destination)?.into();
        // A runaway-workload backstop, not an LRU: stale fingerprints never
        // match again, so dropping everything is always safe.
        if cache.len() >= 4096 {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&candidates));
        Ok(candidates)
    }

    /// The candidate route a reservation frame refers to, re-derived from
    /// the handling site's own view.  `None` when this view (or the frame)
    /// no longer knows such a candidate — the caller aborts the handshake
    /// gracefully instead of reserving on links the coordinator did not
    /// mean.
    fn candidate_route_at(&mut self, at: SwitchId, frame: &ReservationFrame) -> Option<Route> {
        let candidates = self
            .candidate_routes_at(at, frame.source, frame.destination)
            .ok()?;
        candidates.get(frame.candidate as usize).cloned()
    }

    /// Enter a committed channel into the registry and its key index.
    fn register(&mut self, channel: DistChannel) {
        self.committed.insert(channel.key(), channel.id.get());
        self.registry.insert(channel.id.get(), channel);
    }

    /// Take a committed channel out of the registry and its key index.
    fn unregister(&mut self, id: u16) -> Option<DistChannel> {
        let channel = self.registry.remove(&id)?;
        self.committed.remove(&channel.key());
        Some(channel)
    }

    fn site(&mut self, switch: SwitchId) -> RtResult<&mut Site> {
        self.sites
            .get_mut(&switch)
            .ok_or_else(|| RtError::Config(format!("unknown switch {switch}")))
    }

    fn allocate_token(&mut self, coordinator: SwitchId) -> u16 {
        loop {
            let candidate = self.next_token;
            self.next_token = if self.next_token == u16::MAX {
                1
            } else {
                self.next_token + 1
            };
            let in_use = self.sites[&coordinator]
                .coordinations
                .contains_key(&candidate)
                || self
                    .committed
                    .contains_key(&ReservationKey::token(coordinator, candidate));
            if !in_use {
                return candidate;
            }
        }
    }

    /// The contiguous channel-id block owned by the `idx`-th of `n`
    /// switches (in ascending switch-id order): `1..=u16::MAX` is split
    /// into `n` equal spans, the last extended to `u16::MAX`.  Inclusive
    /// `(start, end)`.
    fn id_block_of(n: usize, idx: usize) -> (u16, u16) {
        let n = (n.max(1)) as u32;
        let idx = idx as u32;
        let span = (u32::from(u16::MAX) / n).max(1);
        let start = (1 + idx * span).min(u32::from(u16::MAX));
        let end = if idx + 1 >= n {
            u32::from(u16::MAX)
        } else {
            ((idx + 1) * span).min(u32::from(u16::MAX))
        };
        (start as u16, end.max(start) as u16)
    }

    /// Allocate the next free channel id from `coordinator`'s own id
    /// block, wrapping within the block and skipping ids that are
    /// committed or carried by this coordinator's in-flight admissions.
    /// No fabric-wide sequencer exists, so two coordinators can never race
    /// to the same id — at the cost of ids that differ from the central
    /// oracle's (parity is checked under an admission-order id remapping).
    fn allocate_channel_id(&mut self, coordinator: SwitchId) -> RtResult<ChannelId> {
        let idx = self
            .sites
            .keys()
            .position(|&s| s == coordinator)
            .ok_or_else(|| RtError::Config(format!("unknown switch {coordinator}")))?;
        let (start, end) = Self::id_block_of(self.sites.len(), idx);
        let in_flight: BTreeSet<u16> = self.sites[&coordinator]
            .coordinations
            .values()
            .filter_map(|c| c.channel.map(|id| id.get()))
            .collect();
        let mut cursor = self.sites[&coordinator].next_local_id;
        if cursor < start || cursor > end {
            cursor = start;
        }
        for _ in start..=end {
            let candidate = cursor;
            cursor = if cursor == end { start } else { cursor + 1 };
            if !self.registry.contains_key(&candidate) && !in_flight.contains(&candidate) {
                self.site(coordinator)?.next_local_id = cursor;
                return Ok(ChannelId::new(candidate));
            }
        }
        Err(RtError::ChannelIdsExhausted)
    }

    // --- frame construction ----------------------------------------------

    fn reservation_frame(
        op: ReservationOp,
        coordination: (&Coordination, SwitchId, u16),
        hop: u8,
        values: Vec<u64>,
    ) -> ReservationFrame {
        let (coord, coordinator, token) = coordination;
        ReservationFrame {
            op,
            reason: ReservationReason::None,
            coordinator,
            token,
            source: coord.source,
            destination: coord.destination,
            request_id: coord.request_id,
            candidate: coord.candidate as u8,
            hop,
            channel: coord.channel,
            period: coord.spec.period,
            capacity: coord.spec.capacity,
            deadline: coord.spec.deadline,
            values,
        }
    }

    /// Derive a follow-up frame from a received one, keeping the request
    /// identity and changing op / hop / values.
    fn follow_up(
        received: &ReservationFrame,
        op: ReservationOp,
        reason: ReservationReason,
        hop: u8,
        values: Vec<u64>,
    ) -> ReservationFrame {
        // Field-by-field rather than `..received.clone()`: the update
        // syntax would clone the received frame's `values` vector (the only
        // non-`Copy` field) just to drop it — one heap round-trip per
        // forwarded hop on the reservation path.
        ReservationFrame {
            op,
            reason,
            coordinator: received.coordinator,
            token: received.token,
            source: received.source,
            destination: received.destination,
            request_id: received.request_id,
            candidate: received.candidate,
            hop,
            channel: received.channel,
            period: received.period,
            capacity: received.capacity,
            deadline: received.deadline,
            values,
        }
    }

    // --- the coordinator side --------------------------------------------

    /// Begin an admission: the source node's RequestFrame arrived at its
    /// access switch, which becomes the coordinator.  Candidate routes are
    /// derived from the coordinator's *own* view — possibly stale during a
    /// link-state convergence window; the per-hop checks downstream turn a
    /// stale candidate into a clean retry of the next one.
    fn begin_request(
        &mut self,
        at: SwitchId,
        frame: &RequestFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let request = ChannelRequest::from_frame(frame)?;
        request.spec.validate()?;
        let access = self
            .topology
            .switch_of(request.source)
            .ok_or(RtError::UnknownNode(request.source))?;
        if access != at {
            return Err(RtError::ProtocolViolation(format!(
                "request from {} reached {at}, but its access switch is {access}",
                request.source
            )));
        }
        // A view in which the endpoints are unreachable (mid-convergence or
        // genuinely partitioned) yields no candidates — the honest answer is
        // a rejection, not a control-plane fault.
        let candidates = match self.candidate_routes_at(at, request.source, request.destination) {
            Ok(candidates) => candidates,
            Err(RtError::Config(_)) => Arc::from([]),
            Err(e) => return Err(e),
        };
        let token = self.allocate_token(at);
        let expires = now.saturating_add(self.lease_duration);
        self.site(at)?.coordinations.insert(
            token,
            Coordination {
                source: request.source,
                destination: request.destination,
                spec: request.spec,
                request_id: request.request_id,
                candidates,
                candidate: 0,
                deadlines: None,
                channel: None,
                expires,
            },
        );
        self.try_candidate(at, token, now)
    }

    /// Try the coordination's current candidate route: run the whole
    /// reservation locally when the route never leaves this switch, start
    /// the Probe pass otherwise.  Exhausted candidates reject the request.
    fn try_candidate(
        &mut self,
        coordinator: SwitchId,
        token: u16,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let expires = now.saturating_add(self.lease_duration);
        if let Some(coord) = self.site(coordinator)?.coordinations.get_mut(&token) {
            coord.expires = expires;
        }
        loop {
            let coord = &self.sites[&coordinator].coordinations[&token];
            let Some(route) = coord.candidates.get(coord.candidate).cloned() else {
                // Every candidate failed: reject, exactly like the central
                // manager answering the source directly.
                let coord = self
                    .site(coordinator)?
                    .coordinations
                    .remove(&token)
                    .expect("coordination exists");
                self.rejected += 1;
                return Ok(ControlOutcome::emissions_at(
                    coordinator,
                    vec![SwitchAction::SendResponse {
                        to: coord.source,
                        frame: ResponseFrame {
                            rt_channel_id: None,
                            switch_mac: self.switch_mac,
                            verdict: ResponseVerdict::Rejected,
                            connection_request_id: coord.request_id,
                        },
                    }],
                ));
            };
            let seq = Self::route_switches(&self.sites[&coordinator].view, &route);
            if seq.len() == 1 {
                // Same-switch route: probe + reserve collapse to local
                // ledger operations on the one access switch.
                match self.reserve_local(coordinator, token, &route, now) {
                    Ok(()) => return self.complete_reservation(coordinator, token, now),
                    Err(()) => {
                        self.site(coordinator)?
                            .coordinations
                            .get_mut(&token)
                            .expect("coordination exists")
                            .candidate += 1;
                        continue;
                    }
                }
            }
            // Multi-switch: append the coordinator's own loads and send the
            // Probe to the next switch of the sequence.
            let coord = &self.sites[&coordinator].coordinations[&token];
            let mut values = Vec::with_capacity(route.len());
            for idx in Self::owned_link_indices(route.len(), seq.len(), 0) {
                values.push(self.sites[&coordinator].ledger.link_load(route[idx]) as u64);
            }
            let frame = Self::reservation_frame(
                ReservationOp::Probe,
                (coord, coordinator, token),
                1,
                values,
            );
            return Ok(ControlOutcome::emissions_at(
                coordinator,
                vec![SwitchAction::SendControl { to: seq[1], frame }],
            ));
        }
    }

    /// Same-switch admission: partition and reserve both access links on
    /// the one site, leased like any tentative reservation.  `Err(())`
    /// means "this candidate is infeasible".
    fn reserve_local(
        &mut self,
        coordinator: SwitchId,
        token: u16,
        route: &Route,
        now: SimTime,
    ) -> Result<(), ()> {
        let spec = self.sites[&coordinator].coordinations[&token].spec;
        let ledger = &self.sites[&coordinator].ledger;
        let deadlines =
            admit_along(self.dps, &spec, route, |link| ledger.link(link)).map_err(|_| ())?;
        let key = ReservationKey::token(coordinator, token);
        let expires = now.saturating_add(self.lease_duration);
        let site = self.sites.get_mut(&coordinator).expect("site exists");
        for (link, &deadline) in route.iter().zip(&deadlines) {
            let task = PeriodicTask::new(spec.period, spec.capacity, deadline)
                .expect("admit_along built this very task");
            site.ledger.reserve(*link, key, task);
        }
        site.ledger.lease(key, expires);
        let coord = site
            .coordinations
            .get_mut(&token)
            .expect("coordination exists");
        coord.deadlines = Some(deadlines);
        Ok(())
    }

    /// The whole route is reserved: assign the channel id, register the
    /// destination-side relay state at the destination's access switch
    /// (keyed by the new — unique — channel id, which the destination node
    /// echoes back in its ResponseFrame), and forward the annotated request
    /// to the destination node.
    ///
    /// The relay registration is a cross-site write without a wire frame —
    /// the one place the commit message from coordinator to destination
    /// switch is modelled as instantaneous, one of the two remaining
    /// simplifications in the module docs.  (A production switch would
    /// learn it from the annotated request passing through its egress.)
    fn complete_reservation(
        &mut self,
        coordinator: SwitchId,
        token: u16,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let id = self.allocate_channel_id(coordinator)?;
        self.accepted += 1;
        let expires = now.saturating_add(self.lease_duration);
        let coord = self
            .site(coordinator)?
            .coordinations
            .get_mut(&token)
            .expect("coordination exists");
        coord.channel = Some(id);
        coord.expires = expires;
        let request = ChannelRequest {
            source: coord.source,
            destination: coord.destination,
            spec: coord.spec,
            request_id: coord.request_id,
        };
        let pending = DestPending {
            coordinator,
            token,
            source: request.source,
            spec: request.spec,
            candidate: coord.candidate as u8,
            expires,
        };
        let dest_switch = self
            .topology
            .switch_of(request.destination)
            .ok_or(RtError::UnknownNode(request.destination))?;
        self.site(dest_switch)?.expecting.insert(id.get(), pending);
        let mut annotated = request.to_frame();
        annotated.rt_channel_id = Some(id);
        Ok(ControlOutcome::emissions_at(
            coordinator,
            vec![SwitchAction::ForwardRequest {
                to: request.destination,
                frame: annotated,
            }],
        ))
    }

    // --- the per-hop reservation protocol --------------------------------

    fn on_reservation(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        match frame.op {
            ReservationOp::Probe => self.on_probe(at, frame, now),
            ReservationOp::Reserve => self.on_reserve(at, frame, now),
            ReservationOp::Rollback => self.on_rollback(at, frame, now),
            ReservationOp::ReserveFailed => self.on_reserve_failed(at, frame, now),
            ReservationOp::Confirm => self.on_confirm(at, frame, now),
            ReservationOp::Release => self.on_release(at, frame),
            ReservationOp::LinkState => self.on_link_state(at, frame),
        }
    }

    /// Abort an in-flight handshake gracefully at `at`: release whatever
    /// its key holds here and steer the coordinator to the next candidate
    /// (inline when `at` *is* the coordinator, by ReserveFailed
    /// otherwise).  Used when a frame's geometry no longer matches this
    /// site's view — legitimate during a link-state convergence window —
    /// and for the degenerate infeasibility cases.  Reservations the
    /// direct notification skips are bounded by their leases.
    fn abort_handshake(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        reason: ReservationReason,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let key = ReservationKey::token(frame.coordinator, frame.token);
        self.site(at)?.ledger.release_key(key);
        if at == frame.coordinator {
            if self.sites[&at].coordinations.contains_key(&frame.token) {
                self.site(at)?
                    .coordinations
                    .get_mut(&frame.token)
                    .expect("checked above")
                    .candidate += 1;
                return self.try_candidate(at, frame.token, now);
            }
            // The coordination already timed out; the requester was
            // answered by the sweep.
            return Ok(ControlOutcome::empty());
        }
        let failed = Self::follow_up(
            frame,
            ReservationOp::ReserveFailed,
            reason,
            frame.hop,
            Vec::new(),
        );
        Ok(ControlOutcome::emissions_at(
            at,
            vec![SwitchAction::SendControl {
                to: frame.coordinator,
                frame: failed,
            }],
        ))
    }

    /// Probe: append the loads of our owned links; forward, or — at the
    /// destination's access switch — partition the deadline and start the
    /// backward Reserve pass.  Geometry is re-derived from this site's own
    /// view; a disagreement with the coordinator's (stale) derivation
    /// aborts the candidate cleanly — the probe pass reserves nothing, so
    /// there is nothing to sweep.
    fn on_probe(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let Some(route) = self.candidate_route_at(at, frame) else {
            return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
        };
        let seq = Self::route_switches(&self.sites[&at].view, &route);
        let i = frame.hop as usize;
        if seq.get(i) != Some(&at) {
            return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
        }
        let mut values = frame.values.clone();
        for idx in Self::owned_link_indices(route.len(), seq.len(), i) {
            values.push(self.sites[&at].ledger.link_load(route[idx]) as u64);
        }
        if i + 1 < seq.len() {
            let next = seq[i + 1];
            // We are always current about our own trunks (the switches
            // adjacent to a cut update their views the instant it
            // happens): a probe routed over our dead trunk by a stale
            // coordinator dies here, cleanly.
            if !self.sites[&at].view.has_trunk(at, next) {
                return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
            }
            let forwarded = Self::follow_up(
                frame,
                ReservationOp::Probe,
                ReservationReason::None,
                frame.hop + 1,
                values,
            );
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendControl {
                    to: next,
                    frame: forwarded,
                }],
            ));
        }
        // Last switch: all loads collected — partition and start Reserve.
        let spec = RtChannelSpec::new(frame.period, frame.capacity, frame.deadline)?;
        let loads: Vec<usize> = values.iter().map(|&v| v as usize).collect();
        let deadlines = match self.dps.partition(&spec, &route, &loads) {
            Ok(d) => d,
            Err(_) => {
                // The candidate cannot even be partitioned: tell the
                // coordinator to move on.  Nothing was reserved anywhere.
                return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
            }
        };
        // No relay state yet: it is registered — keyed by the then-known
        // channel id — only once the whole route is reserved
        // (`complete_reservation`), so failed candidates leave nothing to
        // clean up here.
        let reserve = Self::follow_up(
            frame,
            ReservationOp::Reserve,
            ReservationReason::None,
            (seq.len() - 1) as u8,
            deadlines.iter().map(|d| d.get()).collect(),
        );
        // Process our own (last-hop) reserve step inline — same switch, no
        // wire hop — then the frame travels backward.
        self.on_reserve(at, &reserve, now)
    }

    /// Reserve: feasibility-test and reserve our owned links; forward
    /// backward, or complete at the coordinator.  On failure, roll back the
    /// switches that already reserved (they sit *behind* us on the backward
    /// pass) and have the destination switch notify the coordinator.
    fn on_reserve(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let Some(route) = self.candidate_route_at(at, frame) else {
            return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
        };
        let seq = Self::route_switches(&self.sites[&at].view, &route);
        let i = frame.hop as usize;
        if seq.get(i) != Some(&at) || frame.values.len() != route.len() {
            // Our view derives a different geometry for this candidate
            // than the probe pass did — abort rather than reserve on links
            // the deadlines were not partitioned for.
            return self.abort_handshake(at, frame, ReservationReason::Infeasible, now);
        }
        let spec = RtChannelSpec::new(frame.period, frame.capacity, frame.deadline)?;
        let key = ReservationKey::token(frame.coordinator, frame.token);
        let mut reserved: Vec<HopLink> = Vec::with_capacity(2);
        let mut feasible = true;
        for idx in Self::owned_link_indices(route.len(), seq.len(), i) {
            let link = route[idx];
            // A dead owned trunk fails the candidate like any infeasible
            // link — this is the stale-coordinator path: we always know
            // about our own trunks before the flood converges.
            if let HopLink::Trunk { from, to } = link {
                if !self.sites[&at].view.has_trunk(from, to) {
                    feasible = false;
                    break;
                }
            }
            let deadline = Slots::new(frame.values[idx]);
            let Ok(task) = PeriodicTask::new(spec.period, spec.capacity, deadline) else {
                feasible = false;
                break;
            };
            let site = self.site(at)?;
            if site.ledger.feasible_with(link, &task).is_feasible() {
                site.ledger.reserve(link, key, task);
                reserved.push(link);
            } else {
                feasible = false;
                break;
            }
        }
        if feasible {
            // Lease the tentative reservation: if the handshake strands
            // here (cut trunk, killed coordinator), the slack comes back
            // at expiry instead of leaking forever.
            let expires = now.saturating_add(self.lease_duration);
            self.site(at)?.ledger.lease(key, expires);
            if i > 0 {
                let backward = Self::follow_up(
                    frame,
                    ReservationOp::Reserve,
                    ReservationReason::None,
                    frame.hop - 1,
                    frame.values.clone(),
                );
                return Ok(ControlOutcome::emissions_at(
                    at,
                    vec![SwitchAction::SendControl {
                        to: seq[i - 1],
                        frame: backward,
                    }],
                ));
            }
            // hop 0: the coordinator itself just reserved — the route is
            // fully held.
            let deadlines: Vec<Slots> = frame.values.iter().map(|&v| Slots::new(v)).collect();
            if !self.sites[&at].coordinations.contains_key(&frame.token) {
                // The coordination timed out while the backward pass was in
                // flight; the requester was already answered.  Drop our own
                // step again — everything behind us is lease-bounded.
                self.site(at)?.ledger.release_key(key);
                return Ok(ControlOutcome::empty());
            }
            self.site(at)?
                .coordinations
                .get_mut(&frame.token)
                .expect("checked above")
                .deadlines = Some(deadlines);
            return self.complete_reservation(at, frame.token, now);
        }
        // Infeasible here: undo our partial step, sweep the switches that
        // already reserved (i+1 ..= last) with a Rollback; the destination
        // switch then answers ReserveFailed to the coordinator.
        for link in reserved {
            self.site(at)?.ledger.release(link, key);
        }
        if i + 1 < seq.len() {
            let rollback = Self::follow_up(
                frame,
                ReservationOp::Rollback,
                ReservationReason::Infeasible,
                frame.hop + 1,
                Vec::new(),
            );
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendControl {
                    to: seq[i + 1],
                    frame: rollback,
                }],
            ));
        }
        // We *are* the destination switch (only possible when the reserve
        // failed on its very first step; no relay state exists yet — it is
        // only registered at commit time), or the degenerate single-switch
        // coordinator: notify / advance directly.
        self.abort_handshake(at, frame, ReservationReason::Infeasible, now)
    }

    /// Rollback: release whatever this reservation holds here, then keep
    /// sweeping.  `Infeasible` rollbacks ascend towards the destination
    /// switch (which then answers ReserveFailed); `DestinationRejected`
    /// rollbacks descend towards the coordinator (which then answers the
    /// source).
    fn on_rollback(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let key = ReservationKey::token(frame.coordinator, frame.token);
        self.site(at)?.ledger.release_key(key);
        let route = self.candidate_route_at(at, frame);
        let seq = route.map_or_else(Vec::new, |r| {
            Self::route_switches(&self.sites[&at].view, &r)
        });
        let i = frame.hop as usize;
        match frame.reason {
            ReservationReason::Infeasible => {
                if seq.get(i) == Some(&at) && i + 1 < seq.len() {
                    let onward = Self::follow_up(
                        frame,
                        ReservationOp::Rollback,
                        frame.reason,
                        frame.hop + 1,
                        Vec::new(),
                    );
                    return Ok(ControlOutcome::emissions_at(
                        at,
                        vec![SwitchAction::SendControl {
                            to: seq[i + 1],
                            frame: onward,
                        }],
                    ));
                }
                // Destination switch (or a view disagreement that stops the
                // sweep — leases bound whatever it would have reclaimed):
                // tell the coordinator to try the next candidate.  No relay
                // state exists for a never-committed reservation.
                self.abort_handshake(at, frame, ReservationReason::Infeasible, now)
            }
            ReservationReason::DestinationRejected => {
                if at == frame.coordinator {
                    // The whole-route release is complete; answer the
                    // source.  The consumed channel id is not reused —
                    // exactly the central manager's behaviour on a
                    // destination rejection.
                    return self.finish_destination_reject(at, frame.token);
                }
                if seq.get(i) == Some(&at) && i > 0 {
                    let onward = Self::follow_up(
                        frame,
                        ReservationOp::Rollback,
                        frame.reason,
                        frame.hop - 1,
                        Vec::new(),
                    );
                    return Ok(ControlOutcome::emissions_at(
                        at,
                        vec![SwitchAction::SendControl {
                            to: seq[i - 1],
                            frame: onward,
                        }],
                    ));
                }
                // View disagreement mid-descent: hand the release straight
                // to the coordinator; skipped reservations are
                // lease-bounded.
                let onward =
                    Self::follow_up(frame, ReservationOp::Rollback, frame.reason, 0, Vec::new());
                Ok(ControlOutcome::emissions_at(
                    at,
                    vec![SwitchAction::SendControl {
                        to: frame.coordinator,
                        frame: onward,
                    }],
                ))
            }
            ReservationReason::None | ReservationReason::LeaseExpired => Err(
                RtError::ProtocolViolation("rollback without a cause".into()),
            ),
        }
    }

    fn finish_destination_reject(
        &mut self,
        coordinator: SwitchId,
        token: u16,
    ) -> RtResult<ControlOutcome> {
        // The coordination may already be gone — timed out while the
        // descending rollback was in flight; the requester was answered by
        // the sweep.
        let Some(coord) = self.site(coordinator)?.coordinations.remove(&token) else {
            return Ok(ControlOutcome::empty());
        };
        self.rejected += 1;
        Ok(ControlOutcome::emissions_at(
            coordinator,
            vec![SwitchAction::SendResponse {
                to: coord.source,
                frame: ResponseFrame {
                    rt_channel_id: coord.channel,
                    switch_mac: self.switch_mac,
                    verdict: ResponseVerdict::Rejected,
                    connection_request_id: coord.request_id,
                },
            }],
        ))
    }

    /// ReserveFailed (direct to the coordinator): the current candidate is
    /// dead and its rollback has completed — try the next one.  A
    /// `LeaseExpired` reason means a lease expired *under the Confirm
    /// walk*: the admission is torn, the requester gets a rejection, and
    /// nothing is resurrected (expired slack is already reclaimed, live
    /// leases will expire on their own).
    fn on_reserve_failed(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        if at != frame.coordinator {
            return Err(RtError::ProtocolViolation(format!(
                "ReserveFailed delivered to {at}, coordinator is {}",
                frame.coordinator
            )));
        }
        if !self.sites[&at].coordinations.contains_key(&frame.token) {
            // Timed out already; the requester was answered by the sweep.
            return Ok(ControlOutcome::empty());
        }
        if frame.reason == ReservationReason::LeaseExpired {
            let coord = self
                .site(at)?
                .coordinations
                .remove(&frame.token)
                .expect("checked above");
            let key = ReservationKey::token(at, frame.token);
            self.site(at)?.ledger.release_key(key);
            self.rejected += 1;
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendResponse {
                    to: coord.source,
                    frame: ResponseFrame {
                        rt_channel_id: coord.channel,
                        switch_mac: self.switch_mac,
                        verdict: ResponseVerdict::Rejected,
                        connection_request_id: coord.request_id,
                    },
                }],
            ));
        }
        self.site(at)?
            .coordinations
            .get_mut(&frame.token)
            .expect("checked above")
            .candidate += 1;
        self.try_candidate(at, frame.token, now)
    }

    /// Confirm: the destination accepted.  The frame walks the admitted
    /// route *backward* from the destination's access switch; every site
    /// renews (attests) its lease on the way — a site whose lease already
    /// expired answers `ReserveFailed(LeaseExpired)` instead, and the
    /// admission is torn down rather than resurrected.  At the coordinator
    /// (hop 0) the channel commits.
    fn on_confirm(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let i = frame.hop as usize;
        if at == frame.coordinator {
            return self.commit_confirmed(at, frame.token, now);
        }
        let key = ReservationKey::token(frame.coordinator, frame.token);
        if self.site(at)?.ledger.lease_of(key).is_none() {
            // Our lease expired before the Confirm arrived: the slack is
            // already reclaimed — never resurrect it.
            let failed = Self::follow_up(
                frame,
                ReservationOp::ReserveFailed,
                ReservationReason::LeaseExpired,
                frame.hop,
                Vec::new(),
            );
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendControl {
                    to: frame.coordinator,
                    frame: failed,
                }],
            ));
        }
        let expires = now.saturating_add(self.lease_duration);
        self.site(at)?.ledger.lease(key, expires);
        let route = self.candidate_route_at(at, frame);
        let seq = route.map_or_else(Vec::new, |r| {
            Self::route_switches(&self.sites[&at].view, &r)
        });
        let (hop, to) = if seq.get(i) == Some(&at) && i > 0 {
            (frame.hop - 1, seq[i - 1])
        } else {
            // View disagreement mid-walk: hand the commit straight to the
            // coordinator.  Skipped sites' leases for the committed channel
            // are spared by the sweep's registry check.
            (0, frame.coordinator)
        };
        let onward = Self::follow_up(
            frame,
            ReservationOp::Confirm,
            ReservationReason::None,
            hop,
            Vec::new(),
        );
        Ok(ControlOutcome::emissions_at(
            at,
            vec![SwitchAction::SendControl { to, frame: onward }],
        ))
    }

    fn commit_confirmed(
        &mut self,
        coordinator: SwitchId,
        token: u16,
        _now: SimTime,
    ) -> RtResult<ControlOutcome> {
        // The coordination may have timed out while the Confirm walk was
        // in flight; the requester was already answered with a rejection.
        let Some(coord) = self.site(coordinator)?.coordinations.remove(&token) else {
            return Ok(ControlOutcome::empty());
        };
        let key = ReservationKey::token(coordinator, token);
        if !self.site(coordinator)?.ledger.clear_lease(key) {
            // Our own lease expired before the Confirm arrived: the slack
            // is reclaimed; reject rather than resurrect.
            self.site(coordinator)?.ledger.release_key(key);
            self.rejected += 1;
            return Ok(ControlOutcome::emissions_at(
                coordinator,
                vec![SwitchAction::SendResponse {
                    to: coord.source,
                    frame: ResponseFrame {
                        rt_channel_id: coord.channel,
                        switch_mac: self.switch_mac,
                        verdict: ResponseVerdict::Rejected,
                        connection_request_id: coord.request_id,
                    },
                }],
            ));
        }
        let id = coord.channel.ok_or_else(|| {
            RtError::ProtocolViolation("Confirm for a reservation without a channel id".into())
        })?;
        let path = coord
            .candidates
            .get(coord.candidate)
            .cloned()
            .ok_or_else(|| {
                RtError::ProtocolViolation("Confirm for a reservation without a route".into())
            })?;
        let link_deadlines = coord.deadlines.clone().ok_or_else(|| {
            RtError::ProtocolViolation("Confirm for a reservation without deadlines".into())
        })?;
        self.register(DistChannel {
            id,
            source: coord.source,
            destination: coord.destination,
            spec: coord.spec,
            path,
            link_deadlines,
            coordinator,
            token,
        });
        Ok(ControlOutcome::emissions_at(
            coordinator,
            vec![SwitchAction::SendResponse {
                to: coord.source,
                frame: ResponseFrame {
                    rt_channel_id: Some(id),
                    switch_mac: self.switch_mac,
                    verdict: ResponseVerdict::Accepted,
                    connection_request_id: coord.request_id,
                },
            }],
        ))
    }

    /// The destination node answered: its access switch relays the verdict
    /// — Confirm on accept, a descending rollback on reject.  The relay
    /// state is matched by the channel id the destination echoed back (the
    /// one key that is unique fabric-wide even under concurrent admissions
    /// from different sources).
    fn on_response(
        &mut self,
        at: SwitchId,
        from: NodeId,
        resp: &ResponseFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let channel = resp.rt_channel_id.ok_or_else(|| {
            RtError::ProtocolViolation("destination response carries no RT channel id".into())
        })?;
        let Some(pending) = self.site(at)?.expecting.remove(&channel.get()) else {
            // The relay entry was garbage-collected — the handshake stalled
            // past its lease and the coordination timeout already answered
            // the requester.  A late destination verdict changes nothing.
            let _ = from;
            return Ok(ControlOutcome::empty());
        };
        let mut notice = ReservationFrame {
            op: ReservationOp::Confirm,
            reason: ReservationReason::None,
            coordinator: pending.coordinator,
            token: pending.token,
            source: pending.source,
            destination: from,
            request_id: resp.connection_request_id,
            candidate: pending.candidate,
            hop: 0,
            channel: resp.rt_channel_id,
            period: pending.spec.period,
            capacity: pending.spec.capacity,
            deadline: pending.spec.deadline,
            values: Vec::new(),
        };
        let key = ReservationKey::token(pending.coordinator, pending.token);
        if resp.verdict.is_accepted() {
            if at == pending.coordinator {
                return self.commit_confirmed(at, pending.token, now);
            }
            if self.sites[&at].ledger.lease_of(key).is_none() {
                // Our own lease expired while the destination deliberated:
                // the slack is reclaimed — tear the admission down.
                notice.op = ReservationOp::ReserveFailed;
                notice.reason = ReservationReason::LeaseExpired;
                return Ok(ControlOutcome::emissions_at(
                    at,
                    vec![SwitchAction::SendControl {
                        to: pending.coordinator,
                        frame: notice,
                    }],
                ));
            }
            // Renew (attest) our lease and start the backward Confirm walk
            // at our predecessor on the route.
            let expires = now.saturating_add(self.lease_duration);
            self.site(at)?.ledger.lease(key, expires);
            let route = self.candidate_route_at(at, &notice);
            let seq = route.map_or_else(Vec::new, |r| {
                Self::route_switches(&self.sites[&at].view, &r)
            });
            let (hop, to) = if seq.len() >= 2 && seq.last() == Some(&at) {
                ((seq.len() - 2) as u8, seq[seq.len() - 2])
            } else {
                // View disagreement: hand the commit straight to the
                // coordinator; skipped sites' leases are spared by the
                // sweep's registry check once committed.
                (0, pending.coordinator)
            };
            notice.hop = hop;
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendControl { to, frame: notice }],
            ));
        }
        // Destination refused: release the whole route, ending at the
        // coordinator which answers the source.
        self.site(at)?.ledger.release_key(key);
        if at == pending.coordinator {
            return self.finish_destination_reject(at, pending.token);
        }
        let mut rollback = notice;
        rollback.op = ReservationOp::Rollback;
        rollback.reason = ReservationReason::DestinationRejected;
        let route = self.candidate_route_at(at, &rollback);
        let seq = route.map_or_else(Vec::new, |r| {
            Self::route_switches(&self.sites[&at].view, &r)
        });
        let (hop, to) = if seq.len() >= 2 && seq.last() == Some(&at) {
            ((seq.len() - 2) as u8, seq[seq.len() - 2])
        } else {
            // View disagreement: hand the release straight to the
            // coordinator; skipped reservations are lease-bounded.
            (0, pending.coordinator)
        };
        rollback.hop = hop;
        Ok(ControlOutcome::emissions_at(
            at,
            vec![SwitchAction::SendControl {
                to,
                frame: rollback,
            }],
        ))
    }

    // --- tear-down --------------------------------------------------------

    /// A TeardownFrame arrived at the channel's coordinator (the source's
    /// access switch): release locally and send the Release pass down the
    /// admitted route.
    fn on_teardown(&mut self, at: SwitchId, channel: ChannelId) -> RtResult<ControlOutcome> {
        let dist = self
            .unregister(channel.get())
            .ok_or(RtError::UnknownChannel(channel))?;
        let key = dist.key();
        self.site(at)?.ledger.release_key(key);
        let seq = Self::route_switches(&self.topology, &dist.path);
        let mut emissions = Vec::new();
        if seq.len() > 1 {
            // The itinerary travels in the frame: the admitted route must
            // be released even if the topology has changed since.
            let release = ReservationFrame {
                op: ReservationOp::Release,
                reason: ReservationReason::None,
                coordinator: dist.coordinator,
                token: dist.token,
                source: dist.source,
                destination: dist.destination,
                request_id: ConnectionRequestId::new(0),
                candidate: 0,
                hop: 1,
                channel: Some(dist.id),
                period: dist.spec.period,
                capacity: dist.spec.capacity,
                deadline: dist.spec.deadline,
                values: seq.iter().map(|s| u64::from(s.get())).collect(),
            };
            emissions.push((
                at,
                SwitchAction::SendControl {
                    to: seq[1],
                    frame: release,
                },
            ));
        }
        Ok(ControlOutcome {
            emissions,
            released: vec![ReleasedChannel {
                id: dist.id,
                destination: dist.destination,
            }],
        })
    }

    /// Release: free this reservation here and keep walking the itinerary
    /// carried in the frame.
    fn on_release(&mut self, at: SwitchId, frame: &ReservationFrame) -> RtResult<ControlOutcome> {
        let key = ReservationKey::token(frame.coordinator, frame.token);
        self.site(at)?.ledger.release_key(key);
        let i = frame.hop as usize;
        if i + 1 < frame.values.len() {
            let next = SwitchId::new(frame.values[i + 1] as u32);
            let onward = Self::follow_up(
                frame,
                ReservationOp::Release,
                ReservationReason::None,
                frame.hop + 1,
                frame.values.clone(),
            );
            return Ok(ControlOutcome::emissions_at(
                at,
                vec![SwitchAction::SendControl {
                    to: next,
                    frame: onward,
                }],
            ));
        }
        Ok(ControlOutcome::empty())
    }

    // --- link-state flooding ----------------------------------------------

    /// Build a `LinkState` announcement as `origin` would put it on the
    /// wire: `values = [endpoint_a, endpoint_b, alive, epoch]`, with the
    /// origin switch in the coordinator field.
    fn link_state_frame(
        origin: SwitchId,
        a: SwitchId,
        b: SwitchId,
        alive: bool,
        epoch: u64,
    ) -> ReservationFrame {
        ReservationFrame {
            op: ReservationOp::LinkState,
            reason: ReservationReason::None,
            coordinator: origin,
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
            values: vec![
                u64::from(a.get()),
                u64::from(b.get()),
                u64::from(alive),
                epoch,
            ],
        }
    }

    /// Apply one link-state announcement to `at`'s own view and return the
    /// re-flood emissions (empty when the epoch is stale — which both
    /// terminates the flood and keeps a late frame from resurrecting an
    /// old view).
    fn apply_link_state(
        &mut self,
        at: SwitchId,
        a: SwitchId,
        b: SwitchId,
        alive: bool,
        epoch: u64,
    ) -> Vec<(SwitchId, SwitchAction)> {
        let (lo, hi) = if a.get() <= b.get() {
            (a.get(), b.get())
        } else {
            (b.get(), a.get())
        };
        let Some(site) = self.sites.get_mut(&at) else {
            return Vec::new();
        };
        if site.ls_seen.get(&(lo, hi)).copied().unwrap_or(0) >= epoch {
            return Vec::new();
        }
        site.ls_seen.insert((lo, hi), epoch);
        // The mutation may be a no-op (the view already agreed — e.g. both
        // adjacent switches originate the same event); the epoch must
        // still be recorded and re-flooded so the announcement reaches
        // everyone.
        let _ = if alive {
            site.view.repair_trunk(a, b)
        } else {
            site.view.fail_trunk(a, b)
        };
        let frame = Self::link_state_frame(at, a, b, alive, epoch);
        site.view
            .neighbours(at)
            .map(|n| {
                (
                    at,
                    SwitchAction::SendControl {
                        to: n,
                        frame: frame.clone(),
                    },
                )
            })
            .collect()
    }

    /// A flooded announcement arrived at `at`: apply and re-flood.
    fn on_link_state(
        &mut self,
        at: SwitchId,
        frame: &ReservationFrame,
    ) -> RtResult<ControlOutcome> {
        if frame.values.len() != 4 {
            return Err(RtError::ProtocolViolation(format!(
                "link-state announcement carries {} values, expected 4",
                frame.values.len()
            )));
        }
        let a = SwitchId::new(frame.values[0] as u32);
        let b = SwitchId::new(frame.values[1] as u32);
        let alive = frame.values[2] != 0;
        let epoch = frame.values[3];
        Ok(ControlOutcome {
            emissions: self.apply_link_state(at, a, b, alive, epoch),
            released: Vec::new(),
        })
    }

    /// Originate the link-state flood for a set of trunk events: one fresh
    /// epoch per trunk, shared by the two adjacent switches (so their
    /// floods absorb each other), each applying the event to its own view
    /// first — a switch is never stale about its own trunks — then
    /// re-flooding to its current view neighbours.  Queued on
    /// `pending_control` for the caller to drain onto the wire.  A dead
    /// origin (`mute`) still updates its view but emits nothing.
    fn originate_link_state(
        &mut self,
        trunks: &[(SwitchId, SwitchId)],
        alive: bool,
        mute: Option<SwitchId>,
    ) {
        for &(a, b) in trunks {
            self.ls_epoch += 1;
            let epoch = self.ls_epoch;
            for origin in [a, b] {
                let emissions = self.apply_link_state(origin, a, b, alive, epoch);
                if Some(origin) != mute {
                    self.pending_control.extend(emissions);
                }
            }
        }
    }

    // --- time-driven reclamation ------------------------------------------

    /// Sweep one site's clock-driven state at `now`: expired reservation
    /// leases (sparing committed channels — their slack is permanent, only
    /// the leftover lease is dropped), timed-out coordinations (the
    /// requester gets a rejection and the candidate route a release
    /// sweep), and stale destination-side relay entries.
    fn sweep_site(
        &mut self,
        at: SwitchId,
        now: SimTime,
    ) -> RtResult<Vec<(SwitchId, SwitchAction)>> {
        let mut emissions = Vec::new();
        if !self.sites.contains_key(&at) {
            return Ok(emissions);
        }
        // Committed channels hold their slack permanently: a lease whose
        // clear never reached this site is dropped without reclaiming
        // anything — one of the two documented places the manager-global
        // registry is consulted, and only for this site's own expired
        // leases, of which there are usually none.
        let committed = &self.committed;
        let site = self.sites.get_mut(&at).expect("checked above");
        let reclaimed = site
            .ledger
            .sweep_expired(now, |key| committed.contains_key(&key));
        self.lease_expired += reclaimed.len() as u64;
        // Timed-out coordinations: a lost frame or a partition stalled the
        // handshake past its deadline — abort, answer the requester, sweep
        // the candidate route.
        let stalled: Vec<u16> = self.sites[&at]
            .coordinations
            .iter()
            .filter(|(_, c)| c.expires <= now)
            .map(|(&t, _)| t)
            .collect();
        for token in stalled {
            emissions.extend(self.abort_coordination(at, token)?);
        }
        // Stale relay entries: the destination node never answered (its
        // request or its response was lost to a fault).
        self.sites
            .get_mut(&at)
            .expect("checked above")
            .expecting
            .retain(|_, p| p.expires > now);
        Ok(emissions)
    }

    /// Abort a timed-out coordination at its coordinator: release whatever
    /// it holds here, sweep its current candidate route with a Release
    /// itinerary (anything the sweep misses is lease-bounded), and answer
    /// the requester with a rejection.
    fn abort_coordination(
        &mut self,
        coordinator: SwitchId,
        token: u16,
    ) -> RtResult<Vec<(SwitchId, SwitchAction)>> {
        let Some(coord) = self.site(coordinator)?.coordinations.remove(&token) else {
            return Ok(Vec::new());
        };
        let key = ReservationKey::token(coordinator, token);
        self.site(coordinator)?.ledger.release_key(key);
        self.rejected += 1;
        let mut emissions = Vec::new();
        if let Some(route) = coord.candidates.get(coord.candidate) {
            let seq = Self::route_switches(&self.sites[&coordinator].view, route);
            if seq.len() > 1 {
                let release = ReservationFrame {
                    op: ReservationOp::Release,
                    reason: ReservationReason::None,
                    coordinator,
                    token,
                    source: coord.source,
                    destination: coord.destination,
                    request_id: coord.request_id,
                    candidate: coord.candidate as u8,
                    hop: 1,
                    channel: coord.channel,
                    period: coord.spec.period,
                    capacity: coord.spec.capacity,
                    deadline: coord.spec.deadline,
                    values: seq.iter().map(|s| u64::from(s.get())).collect(),
                };
                emissions.push((
                    coordinator,
                    SwitchAction::SendControl {
                        to: seq[1],
                        frame: release,
                    },
                ));
            }
        }
        emissions.push((
            coordinator,
            SwitchAction::SendResponse {
                to: coord.source,
                frame: ResponseFrame {
                    rt_channel_id: coord.channel,
                    switch_mac: self.switch_mac,
                    verdict: ResponseVerdict::Rejected,
                    connection_request_id: coord.request_id,
                },
            },
        ));
        Ok(emissions)
    }

    // --- fail-over (driven by the switches adjacent to the cut) -----------

    /// The shared fail-over engine: the topology is already degraded; the
    /// switches adjacent to each cut trunk name the affected channels from
    /// their own ledgers, everything affected is released fabric-wide, then
    /// re-admitted (ascending id, ids preserved) over surviving routes.
    fn fail_over(
        &mut self,
        cut: &[(SwitchId, SwitchId)],
        link: (SwitchId, SwitchId),
    ) -> FailoverReport {
        let mut affected: BTreeSet<u16> = BTreeSet::new();
        for &(a, b) in cut {
            for (from, to) in [(a, b), (b, a)] {
                let trunk = HopLink::Trunk { from, to };
                if let Some(site) = self.sites.get(&from) {
                    for key in site.ledger.keys_on(trunk) {
                        if let Some(&id) = self.committed.get(&key) {
                            affected.insert(id);
                        }
                    }
                }
            }
        }
        let unaffected = self.registry.len() - affected.len();
        let mut report = FailoverReport {
            link,
            rerouted: Vec::new(),
            dropped: Vec::new(),
            unaffected,
        };
        // Release every affected channel fabric-wide before re-admitting
        // any (the same all-then-readmit rule as the central manager).
        let released: Vec<DistChannel> = affected
            .iter()
            .map(|id| {
                let dist = self
                    .unregister(*id)
                    .expect("affected ids come from the registry");
                let key = dist.key();
                for site in self.sites.values_mut() {
                    site.ledger.release_key(key);
                }
                dist
            })
            .collect();
        for old in released {
            let candidates = self
                .candidate_routes_global(old.source, old.destination)
                .unwrap_or_default();
            let key = old.key();
            let mut readmitted = false;
            for route in candidates.iter() {
                if let Some(deadlines) = self.try_reserve_sync(key, &old.spec, route) {
                    let renewed = DistChannel {
                        path: route.clone(),
                        link_deadlines: deadlines,
                        ..old.clone()
                    };
                    report.rerouted.push(renewed.to_route());
                    self.register(renewed);
                    self.rerouted += 1;
                    readmitted = true;
                    break;
                }
            }
            if !readmitted {
                report.dropped.push(old.to_route());
                self.dropped_on_failure += 1;
            }
        }
        report
    }

    /// The repair-side counterpart of fail-over: after a trunk repair,
    /// migrate every channel whose path differs from the router's primary
    /// route back onto that primary (ascending id, ids preserved, released
    /// fabric-wide then re-reserved synchronously).  A channel the primary
    /// cannot admit is restored onto its detour with its exact previous
    /// reservation — a repair never drops a channel, mirroring the central
    /// manager's re-optimisation decision for decision.
    fn reoptimize(&mut self, link: (SwitchId, SwitchId)) -> FailoverReport {
        let mut report = FailoverReport {
            link,
            rerouted: Vec::new(),
            dropped: Vec::new(),
            unaffected: 0,
        };
        let ids: Vec<u16> = self.registry.keys().copied().collect();
        for id in ids {
            let (source, destination) = {
                let c = &self.registry[&id];
                (c.source, c.destination)
            };
            let primary = match self.candidate_routes_global(source, destination) {
                Ok(candidates) => match candidates.first() {
                    Some(route) => route.clone(),
                    None => {
                        report.unaffected += 1;
                        continue;
                    }
                },
                Err(_) => {
                    report.unaffected += 1;
                    continue;
                }
            };
            if primary == self.registry[&id].path {
                report.unaffected += 1;
                continue;
            }
            let old = self
                .unregister(id)
                .expect("ids come from the live registry");
            let key = old.key();
            for site in self.sites.values_mut() {
                site.ledger.release_key(key);
            }
            match self.try_reserve_sync(key, &old.spec, &primary) {
                Some(deadlines) => {
                    let renewed = DistChannel {
                        path: primary,
                        link_deadlines: deadlines,
                        ..old
                    };
                    report.rerouted.push(renewed.to_route());
                    self.register(renewed);
                    self.rerouted += 1;
                }
                None => {
                    // Restore the exact reservation that was just released:
                    // the same links, the same per-link deadlines, on the
                    // same owning sites — guaranteed to hold.
                    for (hop, &deadline) in old.path.iter().zip(old.link_deadlines.iter()) {
                        let owner = self
                            .owner_of(*hop)
                            .expect("an admitted route's links all have owners");
                        let task = PeriodicTask::new(old.spec.period, old.spec.capacity, deadline)
                            .expect("the held reservation's task was valid");
                        self.sites
                            .get_mut(&owner)
                            .expect("owning site exists")
                            .ledger
                            .reserve(*hop, key, task);
                    }
                    self.register(old);
                    report.unaffected += 1;
                }
            }
        }
        report
    }

    /// Synchronous reservation across the owning sites (used by fail-over,
    /// where the re-admission runs as one atomic control-plane decision):
    /// the same loads → partition → per-link feasibility → reserve sequence
    /// the wire protocol performs hop by hop.
    fn try_reserve_sync(
        &mut self,
        key: ReservationKey,
        spec: &RtChannelSpec,
        route: &Route,
    ) -> Option<Vec<Slots>> {
        let site_of = |link: HopLink| self.owner_of(link).and_then(|owner| self.sites.get(&owner));
        if !route.iter().all(|link| site_of(*link).is_some()) {
            return None;
        }
        let view_of = |link| site_of(link).expect("checked above").ledger.link(link);
        let deadlines = admit_along(self.dps, spec, route, view_of).ok()?;
        for (link, &deadline) in route.iter().zip(&deadlines) {
            let task = PeriodicTask::new(spec.period, spec.capacity, deadline)
                .expect("admit_along built this very task");
            self.owner_of(*link)
                .and_then(|owner| self.sites.get_mut(&owner))
                .expect("checked above")
                .ledger
                .reserve(*link, key, task);
        }
        Some(deadlines)
    }

    /// The switch sequence of a route — module-level so both the
    /// construction and the per-hop handlers agree on geometry.
    fn route_switches(topology: &Topology, route: &Route) -> Vec<SwitchId> {
        let mut seq = Vec::with_capacity(route.len());
        for link in route.iter() {
            if let HopLink::Trunk { from, to } = link {
                if seq.is_empty() {
                    seq.push(*from);
                }
                seq.push(*to);
            }
        }
        if seq.is_empty() {
            if let Some(access) = topology.switch_of(route.source()) {
                seq.push(access);
            }
        }
        seq
    }
}

impl ChannelManager for DistributedChannelManager {
    fn handle_request(&mut self, _frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        Err(RtError::ProtocolViolation(
            "the distributed control plane needs switch context; drive it through handle_frame_at"
                .into(),
        ))
    }

    fn handle_response(&mut self, _frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        Err(RtError::ProtocolViolation(
            "the distributed control plane needs switch context; drive it through handle_frame_at"
                .into(),
        ))
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        // Direct (API-level) teardown: release fabric-wide synchronously.
        let dist = self
            .unregister(channel.get())
            .ok_or(RtError::UnknownChannel(channel))?;
        let key = dist.key();
        for site in self.sites.values_mut() {
            site.ledger.release_key(key);
        }
        Ok(ReleasedChannel {
            id: dist.id,
            destination: dist.destination,
        })
    }

    fn channel_count(&self) -> usize {
        let in_flight = self
            .sites
            .values()
            .flat_map(|s| s.coordinations.values())
            .filter(|c| c.channel.is_some())
            .count();
        self.registry.len() + in_flight
    }

    fn pending_count(&self) -> usize {
        self.sites
            .values()
            .flat_map(|s| s.coordinations.values())
            .filter(|c| c.channel.is_some())
            .count()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.registry.keys().map(|&id| ChannelId::new(id)).collect()
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        Some(self.registry.get(&id.get())?.to_route())
    }

    fn link_load(&self, link: HopLink) -> usize {
        match self.owner_of(link) {
            Some(owner) => self
                .sites
                .get(&owner)
                .map_or(0, |site| site.ledger.link_load(link)),
            None => 0,
        }
    }

    fn schedules_hops(&self) -> bool {
        true
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.fail_trunk(from, to)?;
        self.originate_link_state(&[(from, to)], false, None);
        Ok(self.fail_over(&[(from, to)], (from, to)))
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.repair_trunk(from, to)?;
        self.originate_link_state(&[(from, to)], true, None);
        Ok(self.reoptimize((from, to)))
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        let cut = self.topology.fail_switch(switch)?;
        // Only the surviving neighbours announce the cuts — a dead switch
        // cannot put frames on the wire.  Its control state dies with it:
        // coordinations it led and relays it owed are simply gone; the
        // slack they referenced elsewhere comes back by lease expiry.
        self.originate_link_state(&cut, false, Some(switch));
        if let Some(site) = self.sites.get_mut(&switch) {
            site.coordinations.clear();
            site.expecting.clear();
        }
        Ok(self.fail_over(&cut, (switch, switch)))
    }

    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        // Time first: anything expired at this site is reclaimed before the
        // frame is looked at, so a frame arriving one tick late finds its
        // lease gone — not a resurrection path.
        let swept = self.sweep_site(at, now)?;
        let mut outcome = match frame {
            Frame::Request(req) => self.begin_request(at, req, now),
            Frame::Response(resp) => self.on_response(at, from, resp, now),
            Frame::Teardown(td) => self.on_teardown(at, td.rt_channel_id),
            Frame::Reservation(rf) => self.on_reservation(at, rf, now),
            other => Err(RtError::ProtocolViolation(format!(
                "unexpected frame at the switch control plane: {other:?}"
            ))),
        }?;
        if !swept.is_empty() {
            let mut emissions = swept;
            emissions.append(&mut outcome.emissions);
            outcome.emissions = emissions;
        }
        Ok(outcome)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        };
        for site in self.sites.values() {
            if let Some(t) = site.ledger.next_expiry() {
                fold(t);
            }
            for coord in site.coordinations.values() {
                fold(coord.expires);
            }
            for pending in site.expecting.values() {
                fold(pending.expires);
            }
        }
        earliest
    }

    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        let sites: Vec<SwitchId> = self.sites.keys().copied().collect();
        let mut emissions = Vec::new();
        for at in sites {
            emissions.extend(self.sweep_site(at, now)?);
        }
        Ok(ControlOutcome {
            emissions,
            released: Vec::new(),
        })
    }

    fn drain_control(&mut self) -> Vec<(SwitchId, SwitchAction)> {
        std::mem::take(&mut self.pending_control)
    }

    fn audit_quiescent(&self) -> RtResult<()> {
        // Rebuilt from the registry, not read from the `committed` index:
        // the audit is what checks that index.
        let committed: BTreeSet<ReservationKey> = self.registry.values().map(|c| c.key()).collect();
        let indexed = |c: &DistChannel| self.committed.get(&c.key()) == Some(&c.id.get());
        if self.committed.len() != self.registry.len() || !self.registry.values().all(indexed) {
            return Err(RtError::ProtocolViolation(format!(
                "the key index ({} entries) has drifted from the registry ({} channels)",
                self.committed.len(),
                self.registry.len()
            )));
        }
        for (&s, site) in &self.sites {
            if let Some(token) = site.coordinations.keys().next() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still coordinates token {token} in a quiescent fabric"
                )));
            }
            if let Some(id) = site.expecting.keys().next() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still expects a destination verdict for channel {id}"
                )));
            }
            if let Some(t) = site.ledger.next_expiry() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still holds a lease expiring at {t}"
                )));
            }
            for (link, _) in site.ledger.loaded_links() {
                for key in site.ledger.keys_on(link) {
                    if !committed.contains(&key) {
                        return Err(RtError::ProtocolViolation(format!(
                            "slack leak: site {s} holds {key:?} on {link:?} \
                             for no admitted channel"
                        )));
                    }
                }
            }
        }
        // Every admitted channel holds exactly its route's reservations at
        // the owning sites, and its id sits inside its coordinator's block.
        let switches: Vec<SwitchId> = self.sites.keys().copied().collect();
        for chan in self.registry.values() {
            let key = chan.key();
            for link in chan.path.iter() {
                let owner = self.owner_of(*link).ok_or_else(|| {
                    RtError::ProtocolViolation(format!(
                        "admitted channel {} crosses unowned link {link:?}",
                        chan.id
                    ))
                })?;
                let held = self
                    .sites
                    .get(&owner)
                    .is_some_and(|site| site.ledger.holds(*link, key));
                if !held {
                    return Err(RtError::ProtocolViolation(format!(
                        "admitted channel {} lost its reservation on {link:?}",
                        chan.id
                    )));
                }
            }
            let idx = switches
                .iter()
                .position(|&s| s == chan.coordinator)
                .ok_or_else(|| {
                    RtError::ProtocolViolation(format!(
                        "admitted channel {} has unknown coordinator {}",
                        chan.id, chan.coordinator
                    ))
                })?;
            let (start, end) = Self::id_block_of(switches.len(), idx);
            if chan.id.get() < start || chan.id.get() > end {
                return Err(RtError::ProtocolViolation(format!(
                    "channel id {} outside its coordinator's block {start}..={end}",
                    chan.id
                )));
            }
        }
        Ok(())
    }
}
