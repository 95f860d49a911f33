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
//! 1. **Probe** (forward): carries the switch sequence of the candidate the
//!    coordinator picked from its own view; each switch appends the current
//!    load of the route links it owns.  The collected loads are exactly what
//!    the central manager would have read, so the deadline partition
//!    ([`MultiHopDps`]) is identical.
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
//! 5. Every frame first passes one legality rule (`admits`, tabled in
//!    ARCHITECTURE.md): a copy, a forgery, or a frame its handshake moved
//!    past is refused or ignored before any book is touched.
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
//!   Until the flood converges, two switches can disagree about the fabric;
//!   admission stays safe because a hop reads its place on the carried route
//!   and checks the trunks next to it in its *own* view, refusing a stale
//!   route with `StaleRoute`.  The ends of a trunk are always current about
//!   it, so a route a stale coordinator sent over a dead trunk dies there,
//!   and one over live trunks is accepted whatever the hop's own view would
//!   have routed.
//! * **Reservation leases.**  Every tentative reservation carries an
//!   expiry deadline in its key's record at the site; sites sweep expired
//!   leases whenever a frame reaches them (and on explicit clock ticks),
//!   so a handshake stranded by a cut or a killed coordinator has its
//!   partial reservations *expire* instead of leaking slack forever.  The
//!   Confirm pass walks the route backward renewing (attesting) each
//!   site's lease — a Confirm arriving after an expiry finds the lease
//!   gone and aborts with `ReserveFailed(LeaseExpired)` back to the
//!   coordinator, which answers the requester with a rejection; it never
//!   resurrects reclaimed slack.  Coordinations themselves time out the
//!   same way.
//! * **Per-switch id blocks.**  The id space `1..=u16::MAX` is split
//!   into one contiguous block per switch; a coordinator allocates only
//!   from its own block (wrapping within it, skipping live ids), so no
//!   fabric-wide sequencer exists and two coordinators can never race to
//!   the same id.  Parity with the central manager is therefore checked
//!   under an *id-remapping*: the k-th admission on either side must have
//!   the same route, verdict and byte-for-byte delivery, with distributed
//!   ids mapped to central ids in admission order.
//!
//! The central [`crate::multihop::FabricChannelManager`] is the same
//! admission sequence over one ledger with no protocol in between — the
//! operator's fast path — and `tests/fabric_properties.rs` holds the two to
//! the same verdicts over 32 seeds.  Remaining modelling simplifications,
//! documented rather than hidden: the committed-channel registry is
//! manager-level state (the legality rule reads it, and a site's lease sweep
//! spares channels whose commit landed but whose lease-clear frame has not),
//! and the destination-side relay state is written without a wire frame at
//! commit time.
//!
//! A trunk cut or repair is decided by the fault engine both managers share
//! (`fault.rs`), here as the atomic recovery decision of **the switches
//! adjacent to the cut**: they own the dead trunk's directed ports, so their
//! ledgers name exactly the channels that crossed it, and each of those comes
//! off and goes back on at the owners of its path links.  The same adjacent
//! switches originate the link-state flood for the cut, and abort the
//! handshakes in flight over it.
//!
//! ## What one protocol hop costs
//!
//! A hop pays for what its frame touches, not for what its site or the
//! fabric holds.  The sites sit in a dense table in switch-id order
//! (`rt_types::IdIndex`: a switch's slot *is* its id-block number).  A view
//! is one `Arc<Topology>` per *distinct fabric state*: a link-state write
//! moves the writing site alone onto the allocation that already holds "its
//! state plus this event", or onto a fresh copy, so sites that agree share
//! memory and the memoised fingerprint.  Each site keeps one `DueFloor`
//! under its deadlines, so the sweep in front of every frame looks at
//! nothing until something can be due.  A Probe or Reserve hop reads its
//! place and owned links off the carried route and asks its view about two
//! trunks at most; no hop asks a router.  A key's record — its one or two
//! links, its lease and its place — sits beside the site's [`SlackLedger`]
//! books and is found with one probe, so a release touches two books at
//! most; a Reserve step takes it once and tests and books each owned link
//! under one probe of the ledger's slot table.  The legality rule adds one
//! probe of the `committed` index per book-writing frame.  What a hop still
//! allocates is its forwarded frame's `values` and its outcome's emissions.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use rt_edf::PeriodicTask;
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{
    Frame, RequestFrame, ReservationFrame, ReservationOp, ReservationReason, ResponseFrame,
};
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, FoldState, HopLink, IdIndex, MacAddr, NodeId, Route,
    Router, RtError, RtResult, SimTime, Slots, SwitchId, Topology,
};

use crate::channel::RtChannelSpec;
use crate::fault::{self, ChannelStore, FaultLog};
use crate::ledger::{ReservationKey, SlackLedger};
use crate::manager::{
    ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel, SwitchAction,
};
use crate::multihop::{admit_along, next_free_id, reserve_along, with_slots, MultiHopDps};
use crate::protocol::ChannelRequest;

/// An in-flight admission, owned by its coordinator (the source's access
/// switch).
#[derive(Debug)]
struct Coordination {
    source: NodeId,
    destination: NodeId,
    spec: RtChannelSpec,
    request_id: ConnectionRequestId,
    /// The router's candidate routes, tried in order: the memoised list,
    /// held here because the memo may be cleared while the handshake is in
    /// flight.  Only the coordinator reads it.
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
    /// When this relay entry is garbage-collected (the destination node
    /// never answered — its request or its response was lost to a fault).
    expires: SimTime,
}

/// A lower bound on the earliest deadline a collection holds, so that its
/// sweep can return without looking while nothing can be due: every deadline
/// written lowers it, removals leave it, a real scan resets it to what is
/// left.  `None`: nothing has been held since that scan.
#[derive(Debug, Default, Clone, Copy)]
struct DueFloor(Option<SimTime>);

impl DueFloor {
    /// A deadline `at` was written into the collection.
    fn lower(&mut self, at: SimTime) {
        self.0 = Some(self.0.map_or(at, |floor| floor.min(at)));
    }

    /// `true` while nothing held can be due at `now`.
    fn is_above(&self, now: SimTime) -> bool {
        self.0.is_none_or(|floor| now < floor)
    }
}

/// What one key holds at one site: at most two links — the uplink and first
/// trunk at position 0 of its route, a same-switch route's two access links,
/// one link elsewhere; every step that reserves under a key first drops what
/// the key held here, so a record is replaced, never merged — and, while the
/// reservation is tentative, its lease.  A Reserve step also writes where the
/// site stands on the key's route, so the Rollback, the Confirm and the
/// destination's relay walk on from here without a list; a Confirm marks
/// the record `attested`.
#[derive(Debug, Default)]
struct Held {
    links: [Option<HopLink>; 2],
    lease: Option<SimTime>,
    place: Place,
    attested: bool,
}

/// Where a site stands on a route: the coordinator's candidate it is, the
/// position in its switch sequence and the switches before and after it
/// there (`None` past either end).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Place {
    candidate: u8,
    hop: u8,
    before: Option<SwitchId>,
    after: Option<SwitchId>,
}

impl Place {
    /// The links the site of switch `at`, standing here on a route from
    /// `source` to `destination`, owns, with their indices on the route: the
    /// uplink and the first trunk at position 0, the outgoing trunk inside,
    /// the downlink at the end.
    fn owned(
        self,
        at: SwitchId,
        source: NodeId,
        destination: NodeId,
    ) -> impl Iterator<Item = (usize, HopLink)> {
        let uplink = (self.hop == 0).then_some((0, HopLink::Uplink(source)));
        let trunk = |to| HopLink::Trunk { from: at, to };
        let onward = self.after.map_or(HopLink::Downlink(destination), trunk);
        uplink
            .into_iter()
            .chain([(usize::from(self.hop) + 1, onward)])
    }

    /// Where a walk back along the route goes from here: the switch before
    /// this one, or — at position 0, or for a site whose record its lease
    /// already took — straight to the coordinator.
    fn back(place: Option<Place>, coordinator: SwitchId) -> (u8, SwitchId) {
        let before = place.and_then(|p| Some((p.hop.checked_sub(1)?, p.before?)));
        before.unwrap_or((0, coordinator))
    }
}

/// One switch's control-plane state.
#[derive(Debug)]
struct Site {
    /// The switch this state belongs to.
    switch: SwitchId,
    /// The far ends of this switch's trunks, alive or not, ascending.
    trunk_ends: Box<[SwitchId]>,
    /// The slack ledger of the links this switch owns, written only by
    /// `reserve` / `release_key`, which keep `held` in step with it.
    ledger: SlackLedger,
    /// The record of every key that holds a link here.
    held: HashMap<ReservationKey, Held, FoldState>,
    /// Records looked at by sweeps, books by key releases (for the tests).
    #[cfg(test)]
    examined: (u64, u64),
    /// Admissions this switch coordinates, by token.
    coordinations: HashMap<u16, Coordination, FoldState>,
    /// Destination-side pending relays, by raw channel id — the one
    /// network-unique key the destination node echoes back, so concurrent
    /// admissions from different sources can never collide here.
    expecting: HashMap<u16, DestPending, FoldState>,
    /// This switch's own — possibly stale — view of the fabric.  Changed
    /// only by link-state flood frames (and by originating an announcement
    /// for a trunk this switch is adjacent to); never written "through the
    /// backplane".  The allocation is shared with every site that believes
    /// the same fabric state and is never written while shared:
    /// [`DistributedChannelManager::apply_link_state`], its one writer,
    /// moves this site onto another allocation instead.
    view: Arc<Topology>,
    /// Highest link-state epoch applied per undirected trunk `(a, b)` with
    /// `a < b`: older or duplicate announcements are dropped, which both
    /// terminates the flood and keeps late frames from resurrecting a
    /// stale view.
    ls_seen: BTreeMap<(u32, u32), u64>,
    /// Next channel-id candidate inside this switch's id block.
    next_local_id: u16,
    /// No lease, coordination or relay entry here falls due below this.
    due: DueFloor,
}

impl Site {
    fn new(switch: SwitchId, view: Arc<Topology>, block_start: u16) -> Self {
        let far_end = |(a, b)| (a == switch).then_some(b).or((b == switch).then_some(a));
        let failed = view.failed_trunks().filter_map(far_end);
        let mut trunk_ends: Vec<SwitchId> = view.neighbours(switch).chain(failed).collect();
        trunk_ends.sort_unstable();
        Site {
            switch,
            trunk_ends: trunk_ends.into(),
            ledger: SlackLedger::new(),
            held: HashMap::default(),
            #[cfg(test)]
            examined: (0, 0),
            coordinations: HashMap::default(),
            expecting: HashMap::default(),
            view,
            ls_seen: BTreeMap::new(),
            next_local_id: block_start,
            due: DueFloor::default(),
        }
    }

    /// Reserve `task` on `link` under `key`, in the books and the record.
    fn reserve(&mut self, link: HopLink, key: ReservationKey, task: PeriodicTask) {
        let links = &mut self.held.entry(key).or_default().links;
        if !links.contains(&Some(link)) {
            let free = links.iter_mut().find(|slot| slot.is_none());
            let why = "a route has at most two links at one switch, and every caller first \
                       released what the key held here";
            *free.expect(why) = Some(link);
        }
        self.ledger.reserve(link, key, task);
    }

    /// A Reserve step under `key` at `place` on its route: what the key held
    /// here — an earlier candidate's leftover — is freed, then each of
    /// `tasks` (one or two) is tested and booked on its link, and the key's
    /// record names exactly those links and this place under a lease to
    /// `expires`, so a stranded handshake's slack comes back then.  `false`
    /// when a task does not fit or is none: the key then holds nothing here,
    /// record included.  A record already at `place` took this very step:
    /// `true`, nothing touched.  One probe of the records, and per link one
    /// of the ledger's slot table.
    fn reserve_step(
        &mut self,
        key: ReservationKey,
        tasks: impl Iterator<Item = (HopLink, Option<PeriodicTask>)>,
        place: Place,
        expires: SimTime,
    ) -> bool {
        let held = match self.held.entry(key) {
            Entry::Occupied(record) if record.get().place == place => return true,
            Entry::Occupied(mut record) => {
                for link in record.get_mut().links.iter_mut().filter_map(Option::take) {
                    self.ledger.release(link, key);
                }
                let Some(links) = Self::book_all(&mut self.ledger, key, tasks) else {
                    record.remove();
                    return false;
                };
                let held = record.into_mut();
                held.links = links;
                held
            }
            Entry::Vacant(record) => {
                let Some(links) = Self::book_all(&mut self.ledger, key, tasks) else {
                    return false;
                };
                record.insert(Held {
                    links,
                    ..Held::default()
                })
            }
        };
        held.place = place;
        held.lease = Some(expires);
        self.due.lower(expires);
        true
    }

    /// Test and book each of `tasks` on its link under `key`, which holds
    /// none of them: the links booked, or `None` with nothing booked when a
    /// task does not fit or is none.
    fn book_all(
        ledger: &mut SlackLedger,
        key: ReservationKey,
        tasks: impl Iterator<Item = (HopLink, Option<PeriodicTask>)>,
    ) -> Option<[Option<HopLink>; 2]> {
        let mut booked = [None; 2];
        for (slot, (link, task)) in booked.iter_mut().zip(tasks) {
            if !task.is_some_and(|task| ledger.reserve_if_feasible(link, key, task)) {
                for link in booked.into_iter().flatten() {
                    ledger.release(link, key);
                }
                return None;
            }
            *slot = Some(link);
        }
        Some(booked)
    }

    /// The coordination this site leads under `token`.  Every caller has it
    /// in place — `begin_request` inserted it, or the legality rule found it
    /// — so a miss is a broken protocol path, reported rather than panicked
    /// on.
    fn coordination(&mut self, token: u16) -> RtResult<&mut Coordination> {
        let at = self.switch;
        (self.coordinations.get_mut(&token)).ok_or_else(|| lost_coordination(at, token))
    }

    /// End the coordination this site leads under `token` and hand it over;
    /// a miss as in [`Site::coordination`].
    fn end_coordination(&mut self, token: u16) -> RtResult<Coordination> {
        let at = self.switch;
        (self.coordinations.remove(&token)).ok_or_else(|| lost_coordination(at, token))
    }

    /// Release everything `key` holds here — the links its record names, not
    /// a walk over the books — and its lease; returns the links freed.
    fn release_key(&mut self, key: ReservationKey) -> usize {
        let links = self.held.remove(&key).map_or([None; 2], |held| held.links);
        #[cfg(test)]
        {
            self.examined.1 += links.iter().flatten().count() as u64;
        }
        let freed = links.into_iter().flatten();
        freed
            .map(|link| usize::from(self.ledger.release(link, key)))
            .sum()
    }

    /// Put (or move) the lease of `key`, which holds links here: they are
    /// reclaimed by the first sweep at or past `expires` unless the lease is
    /// cleared (commit) or the key released (rollback) first.
    fn lease(&mut self, key: ReservationKey, expires: SimTime) {
        if let Some(held) = self.held.get_mut(&key) {
            held.lease = Some(expires);
            self.due.lower(expires);
        }
    }

    /// Clear `key`'s lease (commit); `false` if none was held — it expired,
    /// and the slack must not be resurrected.
    fn clear_lease(&mut self, key: ReservationKey) -> bool {
        self.held
            .get_mut(&key)
            .and_then(|held| held.lease.take())
            .is_some()
    }

    /// Attest `key`'s record and renew its lease: move it to `expires`,
    /// under one probe of the records, and say where the key's Reserve step
    /// stood here; `None` if no lease was held — it expired, and the slack
    /// must not be resurrected.
    fn renew_lease(&mut self, key: ReservationKey, expires: SimTime) -> Option<Place> {
        let held = self.held.get_mut(&key)?;
        *held.lease.as_mut()? = expires;
        held.attested = true;
        self.due.lower(expires);
        Some(held.place)
    }

    /// The deadline of `key`'s lease here, if it holds one.
    #[cfg(test)]
    fn lease_of(&self, key: ReservationKey) -> Option<SimTime> {
        self.held.get(&key)?.lease
    }

    /// Every deadline held here: the leases, the coordinations and the
    /// relay entries.  The sweep's floor, the manager's next timeout and the
    /// quiescence audit all read these.
    fn deadlines(&self) -> impl Iterator<Item = SimTime> + '_ {
        let leases = self.held.values().filter_map(|held| held.lease);
        let coordinations = self.coordinations.values().map(|c| c.expires);
        let relays = self.expecting.values().map(|p| p.expires);
        leases.chain(coordinations).chain(relays)
    }

    /// Sweep what is due here at `now` (at or before it): a key whose lease
    /// ran out is reclaimed and returned (ascending) — unless it is a
    /// committed channel's (`path_of` names the path), which keeps its links
    /// on the path, permanent since the commit, and loses the lease and any
    /// link off the path, an earlier candidate's leftover no teardown will
    /// visit; stale relay entries go; stalled coordinations are returned for
    /// the manager to abort.  Below the floor this looks at nothing.
    fn sweep<'r>(
        &mut self,
        now: SimTime,
        path_of: impl Fn(ReservationKey) -> Option<&'r Route>,
    ) -> (Vec<ReservationKey>, Vec<u16>) {
        if self.due.is_above(now) {
            return (Vec::new(), Vec::new());
        }
        #[cfg(test)]
        {
            self.examined.0 += self.held.len() as u64;
        }
        self.expecting.retain(|_, p| p.expires > now);
        self.due = DueFloor(self.deadlines().filter(|&expires| expires > now).min());
        let stalled = self.coordinations.iter().filter(|(_, c)| c.expires <= now);
        let mut stalled: Vec<u16> = stalled.map(|(&token, _)| token).collect();
        stalled.sort_unstable();
        let expired = self
            .held
            .iter()
            .filter(|(_, h)| h.lease.is_some_and(|t| t <= now));
        let mut expired: Vec<_> = expired.map(|(&key, _)| key).collect();
        expired.retain(|&key| {
            let Some(path) = path_of(key) else {
                self.release_key(key);
                return true;
            };
            let why = "due keys were read off the records, and a step touches its own key only";
            let held = self.held.get_mut(&key).expect(why);
            held.lease = None;
            for slot in &mut held.links {
                if let Some(link) = slot.take_if(|link| !path.contains(link)) {
                    self.ledger.release(link, key);
                }
            }
            if held.links == [None; 2] {
                self.held.remove(&key);
            }
            false
        });
        expired.sort_unstable();
        (expired, stalled)
    }
}

/// The error for a coordination its handler's caller had but the handler
/// cannot find (see [`Site::coordination`]).
fn lost_coordination(at: SwitchId, token: u16) -> RtError {
    RtError::ProtocolViolation(format!("{at} leads no coordination under token {token}"))
}

/// What the entry points without a switch answer.
fn needs_switch_context<T>() -> RtResult<T> {
    let e = "the distributed control plane needs switch context; drive it through handle_frame_at";
    Err(RtError::ProtocolViolation(e.into()))
}

/// A committed channel: its record, registered at commit time with the
/// coordinator and token that make its reservation key.
#[derive(Debug)]
struct DistChannel {
    route: ChannelRoute,
    coordinator: SwitchId,
    token: u16,
}

impl DistChannel {
    fn key(&self) -> ReservationKey {
        ReservationKey::token(self.coordinator, self.token)
    }
}

/// The router, and its candidate lists memoised by `(view fingerprint,
/// source, destination)` for every coordinator: the one reader of a
/// candidate list is the coordinator that picks from it, and the route it
/// picks travels in the frames.  The fingerprint key makes entries
/// self-invalidating across topology changes, and coordinators that share a
/// view share the answer.
struct RouteMemo {
    router: Arc<dyn Router>,
    lists: HashMap<(u64, u32, u32), Arc<[Route]>, FoldState>,
}

impl RouteMemo {
    /// A runaway-workload backstop on the number of lists, not an LRU:
    /// stale fingerprints never match again, so dropping everything is
    /// always safe.
    const CAPACITY: usize = 4096;

    /// The router's candidate list for one node pair as seen from `view` —
    /// a coordinator's *own* view — so a hit costs one hashed probe.
    fn candidates(
        &mut self,
        view: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<&Arc<[Route]>> {
        let key = (view.fingerprint(), source.get(), destination.get());
        // Only a full memo pays a second probe, to keep a hit.
        if self.lists.len() >= Self::CAPACITY && !self.lists.contains_key(&key) {
            self.lists.clear();
        }
        match self.lists.entry(key) {
            Entry::Occupied(hit) => Ok(hit.into_mut()),
            Entry::Vacant(miss) => {
                Ok(miss.insert(self.router.routes(view, source, destination)?.into()))
            }
        }
    }
}

/// How long an in-flight reservation (and a coordination, and a
/// destination-side relay entry) may live before its site reclaims it:
/// generous enough that healthy handshakes never race it.
const LEASE_DURATION: Duration = Duration::from_millis(50);

/// The distributed channel manager: one `Site` per switch behind the one
/// [`ChannelManager`] seam, driven through
/// [`ChannelManager::handle_frame_at`] with real switch context.
pub struct DistributedChannelManager {
    topology: Topology,
    dps: MultiHopDps,
    /// One site per switch, in ascending switch-id order; `site_index` maps
    /// a switch id to its slot.
    sites: Vec<Site>,
    site_index: IdIndex,
    /// The router and its memoised candidate lists, shared by every
    /// coordinator.
    routes: RouteMemo,
    /// Committed channels, by raw id.  Written only through
    /// [`DistributedChannelManager::register`] /
    /// [`DistributedChannelManager::unregister`], which keep `committed` in
    /// step.  Hashed, as is the index: the outputs that promise ascending
    /// ids sort on the way out.
    registry: HashMap<u16, DistChannel, FoldState>,
    /// The registry indexed by reservation key (→ raw channel id): "is this
    /// key a committed channel's" is asked by every lease sweep and every
    /// token allocation, and must not cost a walk over the whole registry.
    committed: HashMap<ReservationKey, u16, FoldState>,
    next_token: u16,
    switch_mac: MacAddr,
    /// Monotone link-state epoch source: one fresh epoch per trunk event,
    /// shared by the two adjacent origin switches so their floods absorb
    /// each other.
    ls_epoch: u64,
    /// Link-state floods originated by fault/repair notifications (which
    /// have no frame context to emit from), and what aborting the
    /// handshakes over a cut trunk sends; the caller drains these onto the
    /// wire via [`ChannelManager::drain_control`].
    pending_control: Vec<(SwitchId, SwitchAction)>,
    faults: FaultLog,
    accepted: u64,
    rejected: u64,
    /// In-flight reservations reclaimed because their lease expired.
    lease_expired: u64,
}

impl fmt::Debug for DistributedChannelManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedChannelManager")
            .field("router", &self.routes.router.name())
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
    /// only through link-state flood frames.
    pub fn new(topology: Topology, dps: MultiHopDps, router: Arc<dyn Router>) -> Self {
        let site_index = IdIndex::new(topology.switches().map(|s| s.get()));
        let view = Arc::new(topology.clone());
        let sites = site_index
            .ids()
            .iter()
            .enumerate()
            .map(|(slot, &id)| {
                let (start, _) = Self::id_block_of(site_index.len(), slot);
                Site::new(SwitchId::new(id), Arc::clone(&view), start)
            })
            .collect();
        DistributedChannelManager {
            topology,
            dps,
            sites,
            site_index,
            routes: RouteMemo {
                router,
                lists: HashMap::default(),
            },
            registry: HashMap::default(),
            committed: HashMap::default(),
            next_token: 1,
            switch_mac: MacAddr::for_switch(),
            ls_epoch: 0,
            pending_control: Vec::new(),
            faults: FaultLog::default(),
            accepted: 0,
            rejected: 0,
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
        Some(&*self.sites[self.slot(switch).ok()?].view)
    }

    /// How long in-flight reservations live before their site reclaims
    /// them.
    pub fn lease_duration(&self) -> Duration {
        LEASE_DURATION
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
        self.faults.rerouted
    }

    // --- ownership and routes ---------------------------------------------

    /// The slot of `switch` in the site table.
    fn slot(&self, switch: SwitchId) -> RtResult<usize> {
        self.site_index
            .get(switch.get())
            .map(|slot| slot as usize)
            .ok_or_else(|| RtError::Config(format!("unknown switch {switch}")))
    }

    /// The switch that owns a link's slack: the access switch for uplinks
    /// and downlinks, the transmitting switch for trunks.
    fn owner_of(&self, link: HopLink) -> Option<SwitchId> {
        match link {
            HopLink::Uplink(n) | HopLink::Downlink(n) => self.topology.switch_of(n),
            HopLink::Trunk { from, .. } => Some(from),
        }
    }

    /// The site that owns a link's slack.
    fn owner_slot(&self, link: HopLink) -> Option<usize> {
        self.slot(self.owner_of(link)?).ok()
    }

    /// The switch ids a route crosses, in order — each trunk's transmitter,
    /// then the last one's receiver: the sequence a Probe and a Reserve
    /// carry, and a Release as its itinerary.  Empty for a same-switch route.
    fn switches_of(route: &Route) -> impl ExactSizeIterator<Item = u64> + '_ {
        let count = match route.len() - 2 {
            0 => 0,
            trunks => trunks + 1,
        };
        // Position 0 is the first trunk's transmitter, position i its i-th
        // trunk's receiver.
        (0..count).map(move |i| match route[i.max(1)] {
            HopLink::Trunk { from, .. } if i == 0 => u64::from(from.get()),
            HopLink::Trunk { to, .. } => u64::from(to.get()),
            _ => unreachable!("Route::from_links admits only trunks between the access links"),
        })
    }

    /// Where `site` stands on the route `switches` a Probe or Reserve
    /// carries, read off the frame and checked against the site's own view
    /// alone: the route crosses a trunk, names the site at `frame.hop` and
    /// nowhere else, runs from the coordinator — the source's access switch
    /// — to the destination's access switch, and both trunks next to the
    /// site on it exist and are alive in the view.  `None` — a stale route,
    /// refused — otherwise.  The ends of a trunk always know its state, so a
    /// route over a dead trunk dies at the trunk, whatever its coordinator
    /// believed.
    fn place_on(site: &Site, frame: &ReservationFrame, switches: &[u64]) -> Option<Place> {
        let at = site.switch;
        let switch = |i: usize| Some(SwitchId::new(u32::try_from(*switches.get(i)?).ok()?));
        // The switch at `j`, joined to this one by a trunk alive in its view.
        let joined = |j: usize| {
            let other = switch(j)?;
            let failed = (at.min(other), at.max(other));
            let alive = !site.view.failed_trunks().any(|t| t == failed);
            (site.trunk_ends.binary_search(&other).is_ok() && alive).then_some(other)
        };
        let (i, last) = (usize::from(frame.hop), switches.len().checked_sub(1)?);
        let named = |s: &&u64| **s == u64::from(at.get());
        if last == 0
            || switch(i) != Some(at)
            || switches.iter().filter(named).count() != 1
            || switch(0) != Some(frame.coordinator)
            || site.view.switch_of(frame.source) != Some(frame.coordinator)
            || site.view.switch_of(frame.destination) != switch(last)
        {
            return None;
        }
        let before = if i > 0 { Some(joined(i - 1)?) } else { None };
        let after = if i < last { Some(joined(i + 1)?) } else { None };
        Some(Place {
            candidate: frame.candidate,
            hop: frame.hop,
            before,
            after,
        })
    }

    /// Enter a committed channel into the registry and its key index.
    fn register(&mut self, channel: DistChannel) {
        self.committed.insert(channel.key(), channel.route.id.get());
        self.registry.insert(channel.route.id.get(), channel);
    }

    /// Take a committed channel out of the registry and its key index —
    /// every release of one goes through here, so this is also where the
    /// last repair's mark on its id is forgotten.
    fn unregister(&mut self, id: u16) -> Option<DistChannel> {
        let channel = self.registry.remove(&id)?;
        self.committed.remove(&channel.key());
        self.faults.forget(id);
        Some(channel)
    }

    /// Release whatever `key` holds at the owners of `path`'s links — the
    /// sites a channel on `path` reserved at, which are also the ones that
    /// may still carry its renewed lease.
    fn release_along(&mut self, path: &Route, key: ReservationKey) {
        let mut released_at = None;
        for link in path.iter() {
            let owner = self.owner_slot(*link);
            if owner != released_at {
                if let Some(s) = owner {
                    self.sites[s].release_key(key);
                }
                released_at = owner;
            }
        }
    }

    /// The next token coordinator `c` neither leads a handshake under nor
    /// holds a committed channel's reservation under.
    fn allocate_token(&mut self, c: usize) -> RtResult<u16> {
        let (site, committed) = (&self.sites[c], &self.committed);
        next_free_id(&mut self.next_token, (1, u16::MAX), |token| {
            site.coordinations.contains_key(&token)
                || committed.contains_key(&ReservationKey::token(site.switch, token))
        })
        .ok_or(RtError::ChannelIdsExhausted)
    }

    /// The contiguous channel-id block owned by the `idx`-th of `n`
    /// switches (in ascending switch-id order): `1..=u16::MAX` is split
    /// into `n` equal spans, the last extended to `u16::MAX`.  Inclusive
    /// `(start, end)`.
    fn id_block_of(n: usize, idx: usize) -> (u16, u16) {
        let (n, idx, max) = (n.max(1) as u32, idx as u32, u32::from(u16::MAX));
        let span = (max / n).max(1);
        let start = (1 + idx * span).min(max);
        let end = if idx + 1 >= n { max } else { (idx + 1) * span };
        (start as u16, end.clamp(start, max) as u16)
    }

    /// Allocate the next free channel id from the id block of the
    /// coordinator in slot `c`, wrapping within the block and skipping ids
    /// that are committed or carried by this coordinator's in-flight
    /// admissions.  No fabric-wide sequencer exists, so two coordinators can
    /// never race to the same id — at the cost of ids that differ from the
    /// central manager's (parity is checked under an admission-order id
    /// remapping).
    fn allocate_channel_id(&mut self, c: usize) -> RtResult<ChannelId> {
        let block = Self::id_block_of(self.sites.len(), c);
        let (site, registry) = (&mut self.sites[c], &self.registry);
        let coordinations = &site.coordinations;
        next_free_id(&mut site.next_local_id, block, |id| {
            let in_flight = |c: &Coordination| c.channel.is_some_and(|held| held.get() == id);
            registry.contains_key(&id) || coordinations.values().any(in_flight)
        })
        .map(ChannelId::new)
        .ok_or(RtError::ChannelIdsExhausted)
    }

    // --- frame construction ----------------------------------------------

    /// Derive a follow-up frame from a received one, keeping the request
    /// identity and changing op / reason / hop; its `values` start empty.
    fn follow_up(
        received: &ReservationFrame,
        op: ReservationOp,
        reason: ReservationReason,
        hop: u8,
    ) -> ReservationFrame {
        // Not `..received.clone()`, which would clone `values` to drop it:
        // one heap round-trip per forwarded hop.
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
            values: Vec::new(),
        }
    }

    /// The outcome of a hop that puts one action on the wire at `at`.
    fn emit(at: SwitchId, action: SwitchAction) -> ControlOutcome {
        ControlOutcome {
            emissions: vec![(at, action)],
            released: Vec::new(),
        }
    }

    /// The outcome of a hop that sends one control frame on, `at` → `to`.
    fn send(at: SwitchId, to: SwitchId, frame: ReservationFrame) -> ControlOutcome {
        Self::emit(at, SwitchAction::SendControl { to, frame })
    }

    /// The coordinator's answer to the node that asked for `coord`.
    fn response(
        &self,
        coord: &Coordination,
        channel: Option<ChannelId>,
        verdict: ResponseVerdict,
    ) -> SwitchAction {
        SwitchAction::SendResponse {
            to: coord.source,
            frame: ResponseFrame {
                rt_channel_id: channel,
                switch_mac: self.switch_mac,
                verdict,
                connection_request_id: coord.request_id,
            },
        }
    }

    /// Count a rejection and build the answer that tells the requester.
    fn rejection(&mut self, coord: &Coordination, channel: Option<ChannelId>) -> SwitchAction {
        self.rejected += 1;
        self.response(coord, channel, ResponseVerdict::Rejected)
    }

    // --- the coordinator side --------------------------------------------

    /// Begin an admission: the source node's RequestFrame arrived at its
    /// access switch, which becomes the coordinator.  Candidate routes are
    /// derived from the coordinator's *own* view — possibly stale during a
    /// link-state convergence window; the per-hop checks downstream turn a
    /// stale candidate into a clean retry of the next one.
    fn begin_request(
        &mut self,
        s: usize,
        frame: &RequestFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let request = ChannelRequest::from_frame(frame)?;
        request.spec.validate()?;
        let access = self
            .topology
            .switch_of(request.source)
            .ok_or(RtError::UnknownNode(request.source))?;
        let at = self.sites[s].switch;
        if access != at {
            return Err(RtError::ProtocolViolation(format!(
                "request from {} reached {at}, but its access switch is {access}",
                request.source
            )));
        }
        // A view in which the endpoints are unreachable (mid-convergence or
        // genuinely partitioned) yields no candidates — the honest answer is
        // a rejection, not a control-plane fault.
        let view = &self.sites[s].view;
        let candidates = match self
            .routes
            .candidates(view, request.source, request.destination)
        {
            Ok(candidates) => Arc::clone(candidates),
            Err(RtError::Config(_)) => Arc::from([]),
            Err(e) => return Err(e),
        };
        let token = self.allocate_token(s)?;
        let expires = now.saturating_add(LEASE_DURATION);
        self.sites[s].coordinations.insert(
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
        self.try_candidate(s, token, now)
    }

    /// Try the coordination's candidate routes from its current one on: run
    /// the whole reservation locally while a route never leaves this switch,
    /// start the Probe pass on the first that does.  Exhausted candidates
    /// reject the request.
    fn try_candidate(&mut self, c: usize, token: u16, now: SimTime) -> RtResult<ControlOutcome> {
        let expires = now.saturating_add(LEASE_DURATION);
        let site = &mut self.sites[c];
        let coordinator = site.switch;
        site.due.lower(expires);
        let coord = site.coordination(token)?;
        coord.expires = expires;
        let (candidates, first) = (Arc::clone(&coord.candidates), coord.candidate);
        for (n, route) in candidates.iter().enumerate().skip(first) {
            if route.len() == 2 {
                // Same-switch route: probe + reserve collapse to local
                // ledger operations on the one access switch.
                self.sites[c].coordination(token)?.candidate = n;
                if let Some(deadlines) = self.reserve_local(c, token, route, now)? {
                    return self.complete_reservation(c, token, deadlines, now);
                }
                continue;
            }
            // Multi-switch: the route's switch sequence, then the
            // coordinator's own loads; the Probe goes to the next switch.
            let site = &mut self.sites[c];
            let mut values = ReservationFrame::route_values(Self::switches_of(route), 2);
            values.extend(
                route[..2]
                    .iter()
                    .map(|&link| site.ledger.link_load(link) as u64),
            );
            let next = SwitchId::new(values[2] as u32);
            let coord = site.coordination(token)?;
            coord.candidate = n;
            let frame = ReservationFrame {
                op: ReservationOp::Probe,
                reason: ReservationReason::None,
                coordinator,
                token,
                source: coord.source,
                destination: coord.destination,
                request_id: coord.request_id,
                candidate: n as u8,
                hop: 1,
                channel: None,
                period: coord.spec.period,
                capacity: coord.spec.capacity,
                deadline: coord.spec.deadline,
                values,
            };
            return Ok(Self::send(coordinator, next, frame));
        }
        // Every candidate failed: reject, exactly like the central manager
        // answering the source directly.
        let coord = self.sites[c].end_coordination(token)?;
        let rejection = self.rejection(&coord, None);
        Ok(Self::emit(coordinator, rejection))
    }

    /// Same-switch admission: partition and reserve both access links on
    /// the one site, leased like any tentative reservation; the split, or
    /// `Ok(None)` when this candidate is infeasible.
    fn reserve_local(
        &mut self,
        c: usize,
        token: u16,
        route: &Route,
        now: SimTime,
    ) -> RtResult<Option<Vec<Slots>>> {
        let site = &mut self.sites[c];
        let spec = site.coordination(token)?.spec;
        let key = ReservationKey::token(site.switch, token);
        // What an earlier candidate left here under the key is replaced.
        site.release_key(key);
        let ledger = &site.ledger;
        let admitted = admit_along(self.dps.into(), &spec, route, |link| ledger.link(link));
        let Ok(deadlines) = admitted else {
            return Ok(None);
        };
        reserve_along(&spec, route, &deadlines, |link, task| {
            site.reserve(link, key, task)
        });
        site.lease(key, now.saturating_add(LEASE_DURATION));
        Ok(Some(deadlines))
    }

    /// The whole route is reserved under the per-link `deadlines`: assign
    /// the channel id, register the destination-side relay state at the
    /// destination's access switch (keyed by the new — unique — channel id,
    /// which the destination node echoes back in its ResponseFrame), and
    /// forward the annotated request to the destination node.  The relay
    /// registration is a cross-site write without a wire frame, one of the
    /// two simplifications the module docs name.
    fn complete_reservation(
        &mut self,
        c: usize,
        token: u16,
        deadlines: Vec<Slots>,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let id = self.allocate_channel_id(c)?;
        self.accepted += 1;
        let expires = now.saturating_add(LEASE_DURATION);
        let site = &mut self.sites[c];
        let coordinator = site.switch;
        site.due.lower(expires);
        let coord = site.coordination(token)?;
        coord.deadlines = Some(deadlines);
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
            expires,
        };
        let dest_switch = self
            .topology
            .switch_of(request.destination)
            .ok_or(RtError::UnknownNode(request.destination))?;
        let relay = self.slot(dest_switch)?;
        self.sites[relay].expecting.insert(id.get(), pending);
        self.sites[relay].due.lower(expires);
        let mut annotated = request.to_frame();
        annotated.rt_channel_id = Some(id);
        Ok(Self::emit(
            coordinator,
            SwitchAction::ForwardRequest {
                to: request.destination,
                frame: annotated,
            },
        ))
    }

    // --- the per-hop reservation protocol --------------------------------

    /// Run a reservation frame at site `s` if [`Self::admits`] lets it in, as
    /// it must the Reserve the last Probe hop builds too.
    fn on_reservation(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        if !self.admits(s, frame)? {
            return Ok(ControlOutcome::empty());
        }
        match frame.op {
            ReservationOp::Probe => self.on_probe(s, frame, now),
            ReservationOp::Reserve => self.on_reserve(s, Cow::Borrowed(frame), now),
            ReservationOp::Rollback => self.on_rollback(s, frame, now),
            ReservationOp::ReserveFailed => self.on_reserve_failed(s, frame, now),
            ReservationOp::Confirm => self.on_confirm(s, frame, now),
            ReservationOp::Release => self.on_release(s, frame),
            ReservationOp::LinkState => self.on_link_state(s, frame),
        }
    }

    /// The protocol's one legality rule, decided before any handler runs
    /// from the frame's key `(coordinator, token)`, op, reason and candidate,
    /// and what the key is at site `s`: committed, coordinated here (the
    /// candidate tried; is its route held?), held (the record's candidate and
    /// place; has a Confirm attested it?) or absent.  The first matching row
    /// decides; `Ok(false)` is a no-op:
    ///
    /// | | frame | key at `s` | verdict |
    /// |-|-------|------------|---------|
    /// | a | Reserve, Rollback, Release | committed | `ProtocolViolation` |
    /// | b | Rollback without a cause; ReserveFailed off its coordinator | any | `ProtocolViolation` |
    /// | c | any but Release, LinkState, at its coordinator | not coordinated; or another candidate or phase | no-op |
    /// | d | Rollback for `Infeasible` or `StaleRoute` elsewhere | held for another candidate, or attested | no-op |
    /// | e | any other | any | its handler |
    ///
    /// A Confirm and the `DestinationRejected` and `LeaseExpired` answers
    /// come once the route is held, the rest before.  Each no-op is a copy
    /// or a frame its handshake moved past; what that left is lease-bounded.
    /// Row d, and the rule that a Reserve step its record already took is
    /// not taken again, read the record their handler probes anyway
    /// (`on_rollback`, `Site::reserve_step`).  Cost: a probe of `committed`
    /// per book-writing frame, and one of the coordinations at the coordinator.
    fn admits(&self, s: usize, frame: &ReservationFrame) -> RtResult<bool> {
        use ReservationOp::{Confirm, LinkState, Release, Reserve, ReserveFailed, Rollback};
        use ReservationReason::{DestinationRejected, LeaseExpired};
        let key = ReservationKey::token(frame.coordinator, frame.token);
        let (site, at_coordinator) = (&self.sites[s], self.sites[s].switch == frame.coordinator);
        let why = match (frame.op, frame.reason) {
            (Reserve | Rollback | Release, _) if self.committed.contains_key(&key) => {
                "under a committed key"
            }
            (Rollback, ReservationReason::None | LeaseExpired) => "without a cause",
            (ReserveFailed, _) if !at_coordinator => "off its coordinator",
            (LinkState | Release, _) => return Ok(true),
            (op, reason) if at_coordinator => {
                let answer = op == Confirm || matches!(reason, DestinationRejected | LeaseExpired);
                let trying = |c: &Coordination| match c.channel {
                    Some(_) => answer,
                    None => !answer && c.candidate as u8 == frame.candidate,
                };
                return Ok(site.coordinations.get(&frame.token).is_some_and(trying));
            }
            _ => return Ok(true),
        };
        let e = format!("{:?} {why} at {}: {key:?}", frame.op, site.switch);
        Err(RtError::ProtocolViolation(e))
    }

    /// Abort an in-flight handshake at site `s`, where its key holds nothing:
    /// steer the coordinator to the next candidate — inline when this site
    /// *is* the coordinator, by ReserveFailed otherwise.  What the direct
    /// notification skips is lease-bounded.
    fn abort_handshake(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        reason: ReservationReason,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let site = &mut self.sites[s];
        if site.switch == frame.coordinator {
            site.coordination(frame.token)?.candidate += 1;
            return self.try_candidate(s, frame.token, now);
        }
        let failed = Self::follow_up(frame, ReservationOp::ReserveFailed, reason, frame.hop);
        Ok(Self::send(site.switch, frame.coordinator, failed))
    }

    /// Release what `frame`'s key holds here and send the frame on as a
    /// Rollback for `reason` — to `onward`, `(hop, switch)`, or, with nothing
    /// onward, back to the coordinator as ReserveFailed (`abort_handshake`).
    fn roll_on(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        reason: ReservationReason,
        onward: Option<(u8, SwitchId)>,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let site = &mut self.sites[s];
        site.release_key(ReservationKey::token(frame.coordinator, frame.token));
        let Some((hop, to)) = onward else {
            return self.abort_handshake(s, frame, reason, now);
        };
        let rollback = Self::follow_up(frame, ReservationOp::Rollback, reason, hop);
        Ok(Self::send(site.switch, to, rollback))
    }

    /// Probe: append the loads of our owned links; forward, or — at the
    /// destination's access switch — partition the deadline and start the
    /// backward Reserve pass.  Where we stand and what we own are read off
    /// the carried route; a route our own view refuses (`place_on`) aborts
    /// with `StaleRoute` — the probe pass reserves nothing, so there is
    /// nothing to sweep, and it frees nothing either.
    fn on_probe(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let (site, at) = (&self.sites[s], self.sites[s].switch);
        let (switches, loads) = frame.carried_route()?;
        // What the positions before ours own: two links at 0, one after it.
        let owned_before = match frame.hop {
            0 => 0,
            hop => usize::from(hop) + 1,
        };
        if loads.len() != owned_before {
            let count = loads.len();
            let e = format!("Probe at hop {} carries {count} loads", frame.hop);
            return Err(RtError::ProtocolViolation(e));
        }
        let Some(place) = Self::place_on(site, frame, switches) else {
            return self.abort_handshake(s, frame, ReservationReason::StaleRoute, now);
        };
        let owned = place.owned(at, frame.source, frame.destination);
        let own_loads = owned.map(|(_, link)| site.ledger.link_load(link));
        if let Some(next) = place.after {
            let mut values = Vec::with_capacity(frame.values.len() + 2);
            values.extend_from_slice(&frame.values);
            values.extend(own_loads.map(|load| load as u64));
            let none = ReservationReason::None;
            let mut forwarded = Self::follow_up(frame, ReservationOp::Probe, none, place.hop + 1);
            forwarded.values = values;
            return Ok(Self::send(at, next, forwarded));
        }
        // Last switch: all loads collected — partition, the split going
        // straight after the route in the Reserve list, and start Reserve.
        let spec = RtChannelSpec::new(frame.period, frame.capacity, frame.deadline)?;
        let links = switches.len() + 1;
        let mut values = ReservationFrame::route_values(switches.iter().copied(), links);
        let split = with_slots(links, 0, |all| {
            let collected = loads.iter().map(|&v| v as usize);
            for (slot, load) in all.iter_mut().zip(collected.chain(own_loads)) {
                *slot = load;
            }
            self.dps.partition_into(&spec, all, &mut values)
        });
        if split.is_err() {
            // Not even partitionable: nothing was reserved anywhere.
            return self.abort_handshake(s, frame, ReservationReason::Infeasible, now);
        }
        // Our own step runs inline, past the legality rule, then the frame
        // travels backward whole; relay state waits for the whole route.
        let none = ReservationReason::None;
        let mut reserve = Self::follow_up(frame, ReservationOp::Reserve, none, frame.hop);
        reserve.values = values;
        if !self.admits(s, &reserve)? {
            return Ok(ControlOutcome::empty());
        }
        self.on_reserve(s, Cow::Owned(reserve), now)
    }

    /// Reserve: feasibility-test and reserve our owned links, read off the
    /// carried route, recording where we stand on it; forward backward, or
    /// complete at the coordinator.  Refused — the test failed, or our view
    /// refuses the route — nothing is left under the key here, and a
    /// Rollback sweeps the switches after us, which reserved before us,
    /// up to the destination's access switch, which answers ReserveFailed.
    /// The frame is borrowed when it came off the wire and owned when the
    /// last Probe hop built it, which then forwards it without a copy.
    fn on_reserve(
        &mut self,
        s: usize,
        frame: Cow<'_, ReservationFrame>,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let key = ReservationKey::token(frame.coordinator, frame.token);
        let expires = now.saturating_add(LEASE_DURATION);
        let (switches, deadlines) = frame.carried_route()?;
        if deadlines.len() != switches.len() + 1 {
            let e = format!("Reserve over {switches:?} carries {deadlines:?}");
            return Err(RtError::ProtocolViolation(e));
        }
        let Some(place) = Self::place_on(&self.sites[s], &frame, switches) else {
            let hop = frame.hop.saturating_add(1);
            let after = switches
                .get(usize::from(hop))
                .and_then(|&id| u32::try_from(id).ok());
            let onward = after.map(|id| (hop, SwitchId::new(id)));
            return self.roll_on(s, &frame, ReservationReason::StaleRoute, onward, now);
        };
        let site = &mut self.sites[s];
        let at = site.switch;
        if place.before.is_none() {
            // The coordinator's own step completes the candidate its
            // coordination is trying, and no other.
            let coord = site.coordination(frame.token)?;
            let trying = coord.candidates.get(coord.candidate);
            if !trying.is_some_and(|route| Self::switches_of(route).eq(switches.iter().copied())) {
                let e = format!("Reserve off {at}'s candidate for token {}", frame.token);
                return Err(RtError::ProtocolViolation(e));
            }
        }
        let spec = RtChannelSpec::new(frame.period, frame.capacity, frame.deadline)?;
        let task = |d| PeriodicTask::new(spec.period, spec.capacity, Slots::new(d)).ok();
        let owned = place.owned(at, frame.source, frame.destination);
        let tasks = owned.map(|(idx, link)| (link, task(deadlines[idx])));
        if !site.reserve_step(key, tasks, place, expires) {
            let onward = place.after.map(|after| (place.hop + 1, after));
            return self.roll_on(s, &frame, ReservationReason::Infeasible, onward, now);
        }
        if let Some(before) = place.before {
            let mut backward = frame.into_owned();
            backward.hop = place.hop - 1;
            return Ok(Self::send(at, before, backward));
        }
        // hop 0: the coordinator itself just reserved — the route is fully
        // held.
        let deadlines = deadlines.iter().map(|&d| Slots::new(d)).collect();
        self.complete_reservation(s, frame.token, deadlines, now)
    }

    /// Rollback: release what this reservation holds here and walk on from
    /// where the key's record says this site stood — `Infeasible` and
    /// `StaleRoute` up to the destination switch, which answers
    /// ReserveFailed, `DestinationRejected` down to the coordinator, which
    /// answers the source.  With no record (its lease took it) an ascending
    /// sweep ends here — the switches past it reserved earlier, so their
    /// leases ran out first — and a descending one goes to the coordinator.
    fn on_rollback(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let key = ReservationKey::token(frame.coordinator, frame.token);
        let site = &mut self.sites[s];
        let held = site.held.get(&key).map(|held| (held.place, held.attested));
        let place = held.map(|(place, _)| place);
        let onward = match frame.reason {
            ReservationReason::DestinationRejected if site.switch == frame.coordinator => {
                // The whole-route release is complete; answer the source.
                // The consumed channel id is not reused — exactly the
                // central manager's behaviour on a destination rejection.
                site.release_key(key);
                let coord = site.end_coordination(frame.token)?;
                let rejection = self.rejection(&coord, coord.channel);
                return Ok(Self::emit(frame.coordinator, rejection));
            }
            ReservationReason::DestinationRejected => Some(Place::back(place, frame.coordinator)),
            // `Infeasible` or `StaleRoute` (one without a cause was refused);
            // row d of the legality rule, read off the record the walk reads.
            _ if held.is_some_and(|(p, attested)| p.candidate != frame.candidate || attested) => {
                return Ok(ControlOutcome::empty());
            }
            _ => place.and_then(|p| Some((p.hop + 1, p.after?))),
        };
        self.roll_on(s, frame, frame.reason, onward, now)
    }

    /// ReserveFailed (direct to the coordinator): the current candidate is
    /// infeasible or stale and its rollback has completed — try the next
    /// one.  A `LeaseExpired` reason means a lease expired *under the
    /// Confirm walk*: the admission is torn, the requester gets a
    /// rejection, and nothing is resurrected (expired slack is already
    /// reclaimed, live leases will expire on their own).
    fn on_reserve_failed(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let (site, at) = (&mut self.sites[s], frame.coordinator);
        if frame.reason == ReservationReason::LeaseExpired {
            let coord = site.end_coordination(frame.token)?;
            site.release_key(ReservationKey::token(at, frame.token));
            let rejection = self.rejection(&coord, coord.channel);
            return Ok(Self::emit(at, rejection));
        }
        site.coordination(frame.token)?.candidate += 1;
        self.try_candidate(s, frame.token, now)
    }

    /// Confirm: the destination accepted.  The frame walks the admitted
    /// route *backward* from the destination's access switch, each site
    /// sending it to the switch its record names before it and renewing
    /// (attesting) its lease on the way — a site whose lease already expired
    /// answers `ReserveFailed(LeaseExpired)` instead, and the admission is
    /// torn down rather than resurrected.  At the coordinator the channel
    /// commits.
    fn on_confirm(
        &mut self,
        s: usize,
        frame: &ReservationFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let expires = now.saturating_add(LEASE_DURATION);
        let site = &mut self.sites[s];
        let at = site.switch;
        if at == frame.coordinator {
            return self.commit_confirmed(s, frame.token);
        }
        let key = ReservationKey::token(frame.coordinator, frame.token);
        let Some(place) = site.renew_lease(key, expires) else {
            // Our lease expired before the Confirm arrived: the slack is
            // already reclaimed — never resurrect it.
            let reason = ReservationReason::LeaseExpired;
            let failed = Self::follow_up(frame, ReservationOp::ReserveFailed, reason, frame.hop);
            return Ok(Self::send(at, frame.coordinator, failed));
        };
        let (hop, to) = Place::back(Some(place), frame.coordinator);
        let onward = Self::follow_up(frame, ReservationOp::Confirm, ReservationReason::None, hop);
        Ok(Self::send(at, to, onward))
    }

    fn commit_confirmed(&mut self, c: usize, token: u16) -> RtResult<ControlOutcome> {
        let site = &mut self.sites[c];
        let coordinator = site.switch;
        let mut coord = site.end_coordination(token)?;
        let key = ReservationKey::token(coordinator, token);
        if !site.clear_lease(key) {
            // Our own lease expired before the Confirm arrived: the slack
            // is reclaimed; reject rather than resurrect.
            site.release_key(key);
            let rejection = self.rejection(&coord, coord.channel);
            return Ok(Self::emit(coordinator, rejection));
        }
        let path = coord.candidates.get(coord.candidate).cloned();
        let (Some(id), Some(path), Some(link_deadlines)) =
            (coord.channel, path, coord.deadlines.take())
        else {
            let e = "Confirm for a reservation without a channel id, route or deadlines";
            return Err(RtError::ProtocolViolation(e.into()));
        };
        self.register(DistChannel {
            route: ChannelRoute {
                id,
                source: coord.source,
                destination: coord.destination,
                spec: coord.spec,
                path,
                link_deadlines,
            },
            coordinator,
            token,
        });
        let accepted = self.response(&coord, Some(id), ResponseVerdict::Accepted);
        Ok(Self::emit(coordinator, accepted))
    }

    /// The destination node answered: its access switch relays the verdict
    /// — a Confirm on accept, a descending `DestinationRejected` Rollback on
    /// reject — as if that frame had reached it, the route's last switch.
    /// The relay state is matched by the channel id the destination echoed
    /// back (the one key that is unique fabric-wide even under concurrent
    /// admissions from different sources).
    fn on_response(
        &mut self,
        s: usize,
        from: NodeId,
        resp: &ResponseFrame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let channel = resp.rt_channel_id.ok_or_else(|| {
            RtError::ProtocolViolation("destination response carries no RT channel id".into())
        })?;
        // No relay entry: it was garbage-collected — the handshake stalled
        // past its lease and the coordination timeout already answered the
        // requester.  A late destination verdict changes nothing.
        let Some(pending) = self.sites[s].expecting.remove(&channel.get()) else {
            return Ok(ControlOutcome::empty());
        };
        let (op, reason) = match resp.verdict.is_accepted() {
            true => (ReservationOp::Confirm, ReservationReason::None),
            false => (
                ReservationOp::Rollback,
                ReservationReason::DestinationRejected,
            ),
        };
        let notice = ReservationFrame {
            op,
            reason,
            coordinator: pending.coordinator,
            token: pending.token,
            source: pending.source,
            destination: from,
            request_id: resp.connection_request_id,
            candidate: 0,
            hop: 0,
            channel: resp.rt_channel_id,
            period: pending.spec.period,
            capacity: pending.spec.capacity,
            deadline: pending.spec.deadline,
            values: Vec::new(),
        };
        self.on_reservation(s, &notice, now)
    }

    // --- tear-down --------------------------------------------------------

    /// The Release pass over `path` under `coordinator`'s `token`, sent by
    /// the route's first switch to its second: the itinerary travels in the
    /// frame, so the route is released even if the topology has changed
    /// since.  `None` for a same-switch route.
    fn release_pass(
        (coordinator, token): (SwitchId, u16),
        spec: &RtChannelSpec,
        channel: Option<ChannelId>,
        path: &Route,
    ) -> Option<(SwitchId, SwitchAction)> {
        let itinerary: Vec<u64> = Self::switches_of(path).collect();
        let to = SwitchId::new(*itinerary.get(1)? as u32);
        let frame = ReservationFrame {
            op: ReservationOp::Release,
            reason: ReservationReason::None,
            coordinator,
            token,
            source: path.source(),
            destination: path.destination(),
            request_id: ConnectionRequestId::new(0),
            candidate: 0,
            hop: 1,
            channel,
            period: spec.period,
            capacity: spec.capacity,
            deadline: spec.deadline,
            values: itinerary,
        };
        Some((coordinator, SwitchAction::SendControl { to, frame }))
    }

    /// A TeardownFrame arrived at the channel's coordinator (the source's
    /// access switch): release locally and send the Release pass down the
    /// admitted route.
    fn on_teardown(&mut self, s: usize, channel: ChannelId) -> RtResult<ControlOutcome> {
        let dist = self
            .unregister(channel.get())
            .ok_or(RtError::UnknownChannel(channel))?;
        self.sites[s].release_key(dist.key());
        let channel = &dist.route;
        let holder = (dist.coordinator, dist.token);
        let release = Self::release_pass(holder, &channel.spec, Some(channel.id), &channel.path);
        Ok(ControlOutcome {
            emissions: release.into_iter().collect(),
            released: vec![ReleasedChannel {
                id: channel.id,
                destination: channel.destination,
            }],
        })
    }

    /// Release: free this reservation here and keep walking the itinerary
    /// carried in the frame.
    fn on_release(&mut self, s: usize, frame: &ReservationFrame) -> RtResult<ControlOutcome> {
        let site = &mut self.sites[s];
        site.release_key(ReservationKey::token(frame.coordinator, frame.token));
        let Some(&next) = frame.values.get(usize::from(frame.hop) + 1) else {
            return Ok(ControlOutcome::empty());
        };
        let mut onward =
            Self::follow_up(frame, ReservationOp::Release, frame.reason, frame.hop + 1);
        onward.values = frame.values.clone();
        Ok(Self::send(site.switch, SwitchId::new(next as u32), onward))
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

    /// Apply one link-state announcement to site `s`'s own view and return
    /// the re-flood emissions (empty when the epoch is stale — which both
    /// terminates the flood and keeps a late frame from resurrecting an
    /// old view).
    ///
    /// This is the one writer of [`Site::view`], and it never writes an
    /// allocation another site reads: the site moves onto the live view that
    /// already is "mine plus this event" when there is one (all views
    /// descend from one fabric by cuts and repairs, so the failed trunks
    /// tell), and otherwise onto its own copy — made by `Arc::make_mut`,
    /// which copies exactly when the old allocation is still shared.  A
    /// flood therefore costs one copy per distinct state, not one per site,
    /// and sites that agree share one allocation again once it converges.
    fn apply_link_state(
        &mut self,
        s: usize,
        a: SwitchId,
        b: SwitchId,
        alive: bool,
        epoch: u64,
    ) -> Vec<(SwitchId, SwitchAction)> {
        let trunk = (a.min(b), a.max(b));
        let site = &mut self.sites[s];
        let seen = (trunk.0.get(), trunk.1.get());
        if site.ls_seen.get(&seen).copied().unwrap_or(0) >= epoch {
            return Vec::new();
        }
        site.ls_seen.insert(seen, epoch);
        // The event may change nothing (the view already agreed — e.g. both
        // adjacent switches originate the same event, or the trunk is not
        // one of this fabric's); the epoch must still be recorded and
        // re-flooded so the announcement reaches everyone.
        let mine = &self.sites[s].view;
        let changes = if alive {
            mine.failed_trunks().any(|failed| failed == trunk)
        } else {
            mine.has_trunk(a, b)
        };
        if changes {
            let others = |failed: &(SwitchId, SwitchId)| *failed != trunk;
            let is_mine_after = |view: &&Arc<Topology>| {
                let elsewhere = view.failed_trunks().filter(others);
                view.has_trunk(a, b) == alive && elsewhere.eq(mine.failed_trunks().filter(others))
            };
            match self.sites.iter().map(|site| &site.view).find(is_mine_after) {
                Some(shared) => self.sites[s].view = Arc::clone(shared),
                None => {
                    let own = Arc::make_mut(&mut self.sites[s].view);
                    if alive {
                        own.repair_trunk(a, b)
                            .expect("`changes`: failed in this very view");
                    } else {
                        own.fail_trunk(a, b)
                            .expect("`changes`: alive in this very view");
                    }
                }
            }
        }
        let site = &self.sites[s];
        let frame = Self::link_state_frame(site.switch, a, b, alive, epoch);
        site.view
            .neighbours(site.switch)
            .map(|to| {
                let frame = frame.clone();
                (site.switch, SwitchAction::SendControl { to, frame })
            })
            .collect()
    }

    /// A flooded announcement arrived at site `s`: apply and re-flood.
    fn on_link_state(&mut self, s: usize, frame: &ReservationFrame) -> RtResult<ControlOutcome> {
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
            emissions: self.apply_link_state(s, a, b, alive, epoch),
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
                let Ok(s) = self.slot(origin) else { continue };
                let emissions = self.apply_link_state(s, a, b, alive, epoch);
                if Some(origin) != mute {
                    self.pending_control.extend(emissions);
                }
            }
        }
    }

    /// Abort the handshakes in flight over trunks that just died — the keys
    /// of no committed channel in a dead trunk's books — as part of the
    /// adjacent switches' recovery decision: one past its Reserve step there
    /// would otherwise commit over the dead trunk, and the fail-over moves
    /// committed channels only.  Each coordination ends at once, its
    /// requester's rejection queued with the flood and its coordinator's own
    /// hold released; what it holds elsewhere is lease-bounded.
    fn abort_handshakes_over(&mut self, cut: &[(SwitchId, SwitchId)]) {
        let mut on_dead = Vec::new();
        for (from, to) in cut.iter().flat_map(|&(a, b)| [(a, b), (b, a)]) {
            let trunk = HopLink::Trunk { from, to };
            if let Some(owner) = self.owner_slot(trunk) {
                on_dead.extend(self.sites[owner].ledger.keys_on(trunk));
            }
        }
        // A committed channel's key leads no coordination any more.
        for key in on_dead {
            let ReservationKey::Token(at, token) = key else {
                continue;
            };
            let at = SwitchId::new(at);
            let Ok(c) = self.slot(at) else { continue };
            let Some(coord) = self.sites[c].coordinations.remove(&token) else {
                continue;
            };
            self.sites[c].release_key(key);
            let rejection = self.rejection(&coord, coord.channel);
            self.pending_control.push((at, rejection));
        }
    }

    // --- time-driven reclamation ------------------------------------------

    /// Sweep one site's clock-driven state at `now` (`Site::sweep`): expired
    /// leases are reclaimed, sparing what committed channels hold on their
    /// paths; a timed-out coordination — a lost frame or a partition stalled
    /// the handshake — is aborted, the requester answered and the candidate
    /// route swept.  This runs in front of every frame, so it looks only
    /// when something can be due.
    fn sweep_site(&mut self, s: usize, now: SimTime) -> Vec<(SwitchId, SwitchAction)> {
        // The manager-global index, read for this site's own expired leases
        // only, of which there are usually none.
        let (committed, registry) = (&self.committed, &self.registry);
        let path_of = |key| committed.get(&key).map(|id| &registry[id].route.path);
        let (reclaimed, stalled) = self.sites[s].sweep(now, path_of);
        self.lease_expired += reclaimed.len() as u64;
        let aborted = stalled
            .into_iter()
            .map(|token| self.abort_coordination(s, token));
        aborted.flatten().collect()
    }

    /// Abort a timed-out coordination at its coordinator: release whatever
    /// it holds here, sweep its current candidate route with a Release
    /// itinerary (anything the sweep misses is lease-bounded), and answer
    /// the requester with a rejection.
    fn abort_coordination(&mut self, c: usize, token: u16) -> Vec<(SwitchId, SwitchAction)> {
        let site = &mut self.sites[c];
        let coordinator = site.switch;
        let Some(coord) = site.coordinations.remove(&token) else {
            return Vec::new();
        };
        site.release_key(ReservationKey::token(coordinator, token));
        let route = coord.candidates.get(coord.candidate);
        let holder = (coordinator, token);
        let release = route.and_then(|r| Self::release_pass(holder, &coord.spec, coord.channel, r));
        let rejection = (coordinator, self.rejection(&coord, coord.channel));
        release.into_iter().chain([rejection]).collect()
    }
}

/// The fault engine's view of the distributed manager, on the ground-truth
/// fabric: a link's book is at the site that owns the link, and a channel's
/// key is its coordinator's token, found again through the `committed` index.
impl ChannelStore for DistributedChannelManager {
    type Holder = (SwitchId, u16);

    fn fabric(&self) -> &Topology {
        &self.topology
    }

    fn router(&self) -> &dyn Router {
        self.routes.router.as_ref()
    }

    fn ids(&self) -> impl ExactSizeIterator<Item = u16> + '_ {
        self.registry.keys().copied()
    }

    fn record(&self, id: u16) -> &ChannelRoute {
        &self.registry[&id].route
    }

    fn faults(&self) -> &FaultLog {
        &self.faults
    }

    fn faults_mut(&mut self) -> &mut FaultLog {
        &mut self.faults
    }

    fn ids_on(&self, trunk: HopLink, ids: &mut Vec<u16>) {
        // The transmitting switch owns the trunk; a key its book holds for no
        // committed channel is a handshake in flight, bounded by its lease.
        if let Some(s) = self.owner_slot(trunk) {
            let held = self.sites[s].ledger.keys_on(trunk);
            ids.extend(held.iter().filter_map(|key| self.committed.get(key)));
        }
    }

    fn lift(&mut self, id: u16) -> (ChannelRoute, (SwitchId, u16)) {
        let lifted = self.unregister(id);
        let lifted =
            lifted.expect("the engine lifts only ids it read off the registry or its index");
        self.release_along(&lifted.route.path, lifted.key());
        (lifted.route, (lifted.coordinator, lifted.token))
    }

    fn admit(&self, spec: &RtChannelSpec, route: &Route) -> Option<Vec<Slots>> {
        if !route.iter().all(|link| self.owner_slot(*link).is_some()) {
            return None;
        }
        let held = |link| {
            let owner = self.owner_slot(link);
            let owner = owner.expect("every link of the route has an owner: checked on entry");
            self.sites[owner].ledger.link(link)
        };
        admit_along(self.dps.into(), spec, route, held).ok()
    }

    fn put(&mut self, route: ChannelRoute, (coordinator, token): (SwitchId, u16)) -> &ChannelRoute {
        let id = route.id.get();
        let key = ReservationKey::token(coordinator, token);
        // What the key still holds at these sites — a leftover of an earlier
        // candidate — is replaced, not merged.
        self.release_along(&route.path, key);
        reserve_along(
            &route.spec,
            &route.path,
            &route.link_deadlines,
            |link, task| {
                let owner = self.owner_slot(link);
                let owner = owner.expect("admitted, or reserved before, at its links' owners");
                self.sites[owner].reserve(link, key, task);
            },
        );
        self.register(DistChannel {
            route,
            coordinator,
            token,
        });
        &self.registry[&id].route
    }
}

impl ChannelManager for DistributedChannelManager {
    fn handle_request(&mut self, _frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        needs_switch_context()
    }

    fn handle_response(&mut self, _frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        needs_switch_context()
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        // Direct (API-level) teardown: release along the path, synchronously.
        let dist = self
            .unregister(channel.get())
            .ok_or(RtError::UnknownChannel(channel))?;
        self.release_along(&dist.route.path, dist.key());
        Ok(ReleasedChannel {
            id: dist.route.id,
            destination: dist.route.destination,
        })
    }

    fn channel_count(&self) -> usize {
        self.registry.len() + self.pending_count()
    }

    fn pending_count(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| s.coordinations.values())
            .filter(|c| c.channel.is_some())
            .count()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        let mut ids: Vec<ChannelId> = self.registry.keys().map(|&id| ChannelId::new(id)).collect();
        ids.sort_unstable();
        ids
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        Some(self.registry.get(&id.get())?.route.clone())
    }

    fn link_load(&self, link: HopLink) -> usize {
        self.owner_slot(link)
            .map_or(0, |s| self.sites[s].ledger.link_load(link))
    }

    fn schedules_hops(&self) -> bool {
        true
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.fail_trunk(from, to)?;
        self.originate_link_state(&[(from, to)], false, None);
        self.abort_handshakes_over(&[(from, to)]);
        Ok(fault::fail_over(self, &[(from, to)], (from, to)))
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        self.topology.repair_trunk(from, to)?;
        self.originate_link_state(&[(from, to)], true, None);
        Ok(fault::reoptimize(self, (from, to)))
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        let cut = self.topology.fail_switch(switch)?;
        // Only the surviving neighbours announce the cuts — a dead switch
        // cannot put frames on the wire.  Its control state dies with it:
        // coordinations it led and relays it owed are simply gone; the
        // slack they referenced elsewhere comes back by lease expiry.
        self.originate_link_state(&cut, false, Some(switch));
        if let Ok(s) = self.slot(switch) {
            self.sites[s].coordinations.clear();
            self.sites[s].expecting.clear();
        }
        self.abort_handshakes_over(&cut);
        Ok(fault::fail_over(self, &cut, (switch, switch)))
    }

    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        let s = self.slot(at)?;
        // Time first: anything expired at this site is reclaimed before the
        // frame is looked at, so a frame arriving one tick late finds its
        // lease gone — not a resurrection path.  Below the site's floor
        // nothing can be due, and the sweep is not even called.
        let swept = if self.sites[s].due.is_above(now) {
            Vec::new()
        } else {
            self.sweep_site(s, now)
        };
        let mut outcome = match frame {
            Frame::Request(req) => self.begin_request(s, req, now),
            Frame::Response(resp) => self.on_response(s, from, resp, now),
            Frame::Teardown(td) => self.on_teardown(s, td.rt_channel_id),
            Frame::Reservation(rf) => self.on_reservation(s, rf, now),
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
        // Exact, not the sweep's lower bounds: the caller advances its clock
        // to this instant and expects the sweep there to find something.
        self.sites.iter().flat_map(Site::deadlines).min()
    }

    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        let mut emissions = Vec::new();
        for s in 0..self.sites.len() {
            emissions.extend(self.sweep_site(s, now));
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
        let indexed = |c: &DistChannel| self.committed.get(&c.key()) == Some(&c.route.id.get());
        if self.committed.len() != self.registry.len() || !self.registry.values().all(indexed) {
            return Err(RtError::ProtocolViolation(format!(
                "the key index ({} entries) has drifted from the registry ({} channels)",
                self.committed.len(),
                self.registry.len()
            )));
        }
        for site in &self.sites {
            let s = site.switch;
            if let Some(token) = site.coordinations.keys().min() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still coordinates token {token} in a quiescent fabric"
                )));
            }
            if let Some(id) = site.expecting.keys().min() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still expects a destination verdict for channel {id}"
                )));
            }
            // No coordination and no relay is left: a deadline is a lease's.
            if let Some(t) = site.deadlines().min() {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s} still holds a lease expiring at {t}"
                )));
            }
            // Every key in a book is a committed channel's and has a record
            // naming the link, and the records name nothing else.
            let recorded = |key, link| site.held.get(&key).is_some_and(|h| h.links.contains(&link));
            let mut booked = 0;
            for (link, load) in site.ledger.loaded_links() {
                booked += load;
                for key in site.ledger.keys_on(link) {
                    let why = match (committed.contains(&key), recorded(key, Some(link))) {
                        (false, _) => "for no admitted channel",
                        (true, false) => "without a record of it",
                        (true, true) => continue,
                    };
                    return Err(RtError::ProtocolViolation(format!(
                        "slack leak: site {s} holds {key:?} on {link:?} {why}"
                    )));
                }
            }
            let named = site
                .held
                .values()
                .flat_map(|h| h.links.into_iter().flatten());
            if named.count() != booked || site.held.values().any(|h| h.links == [None; 2]) {
                return Err(RtError::ProtocolViolation(format!(
                    "site {s}'s key records name other links than its books hold"
                )));
            }
        }
        // Every admitted channel holds exactly its route's reservations at
        // the owning sites, and its id sits inside its coordinator's block.
        let mut channels: Vec<&DistChannel> = self.registry.values().collect();
        channels.sort_unstable_by_key(|chan| chan.route.id);
        for chan in channels {
            let (key, id) = (chan.key(), chan.route.id);
            for link in chan.route.path.iter() {
                let owner = self.owner_of(*link).ok_or_else(|| {
                    RtError::ProtocolViolation(format!(
                        "admitted channel {id} crosses unowned link {link:?}"
                    ))
                })?;
                let held =
                    (self.slot(owner).ok()).is_some_and(|s| self.sites[s].ledger.holds(*link, key));
                if !held {
                    return Err(RtError::ProtocolViolation(format!(
                        "admitted channel {id} lost its reservation on {link:?}"
                    )));
                }
            }
            let slot = self.slot(chan.coordinator).map_err(|_| {
                RtError::ProtocolViolation(format!(
                    "admitted channel {id} has unknown coordinator {}",
                    chan.coordinator
                ))
            })?;
            let (start, end) = Self::id_block_of(self.sites.len(), slot);
            if id.get() < start || id.get() > end {
                return Err(RtError::ProtocolViolation(format!(
                    "channel id {id} outside its coordinator's block {start}..={end}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
