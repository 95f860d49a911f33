//! Tests that have to see every site's ledger and key records, which no
//! public accessor shows: what the manager-level releases leave behind, site
//! by site, and what the records cost.

use std::cell::Cell;
use std::collections::VecDeque;

use rt_frames::codec::TeardownFrame;
use rt_types::rng::Xoshiro256;
use rt_types::{RoutePolicy, ShortestPathRouter};

use super::*;
use crate::fault::tests::{
    assert_ascending_across_the_wrap, fault_walk, reuse_ids_across_the_wrap, seen_on_primary,
    CountingRouter, Fault, WalkTally, Walked,
};

/// Deliver `first` and everything it sets off, switch to switch, at time
/// zero; destinations accept.  Returns the verdict a requester heard, if one
/// was sent.
fn pump(
    manager: &mut DistributedChannelManager,
    first: (SwitchId, NodeId, Frame),
) -> Option<Option<ChannelId>> {
    pump_with(manager, first, |_, _, _| {})
}

/// [`pump`], handing every delivery to `before` just before it is made.
fn pump_with(
    manager: &mut DistributedChannelManager,
    first: (SwitchId, NodeId, Frame),
    mut before: impl FnMut(&mut DistributedChannelManager, SwitchId, &Frame),
) -> Option<Option<ChannelId>> {
    let mut queue = VecDeque::from([first]);
    let mut verdict = None;
    while let Some((at, from, frame)) = queue.pop_front() {
        before(manager, at, &frame);
        let outcome = manager
            .handle_frame_at(at, from, &frame, SimTime::ZERO)
            .expect("a well-formed control frame");
        for (_, action) in outcome.emissions {
            match action {
                SwitchAction::SendControl { to, frame } => {
                    queue.push_back((to, NodeId::SWITCH, Frame::Reservation(frame)));
                }
                SwitchAction::ForwardRequest { to, frame } => {
                    let access = manager.topology.switch_of(to).expect("attached");
                    let accept = ResponseFrame {
                        rt_channel_id: frame.rt_channel_id,
                        switch_mac: MacAddr::for_switch(),
                        verdict: ResponseVerdict::Accepted,
                        connection_request_id: frame.connection_request_id,
                    };
                    queue.push_back((access, to, Frame::Response(accept)));
                }
                SwitchAction::SendResponse { frame, .. } => {
                    verdict = Some(frame.rt_channel_id.filter(|_| frame.verdict.is_accepted()));
                }
            }
        }
    }
    verdict
}

/// Carry a fault's link-state flood to convergence.
fn flood(manager: &mut DistributedChannelManager) {
    for (_, action) in manager.drain_control() {
        if let SwitchAction::SendControl { to, frame } = action {
            pump(manager, (to, NodeId::SWITCH, Frame::Reservation(frame)));
        }
    }
}

/// Tear a channel down the way its source node does: a TeardownFrame at its
/// access switch, and the Release pass that follows.
fn tear_down_over_the_wire(manager: &mut DistributedChannelManager, id: ChannelId) {
    let source = manager.registry[&id.get()].route.source;
    let access = manager.topology.switch_of(source).expect("attached");
    let frame = Frame::Teardown(TeardownFrame { rt_channel_id: id });
    pump(manager, (access, source, frame));
}

/// Every site holds exactly what the admitted channels' paths put on the
/// links it owns — nothing on a link a channel has left, nothing at a site
/// that owns none of its links — and no site keeps a lease for a key in
/// `gone`.
fn assert_sites_match_channels(manager: &DistributedChannelManager, gone: &[ReservationKey]) {
    let mut expected: BTreeMap<(SwitchId, HopLink), Vec<ReservationKey>> = BTreeMap::new();
    for channel in manager.registry.values() {
        for link in channel.route.path.iter() {
            let owner = manager.owner_of(*link).expect("admitted links have owners");
            (expected.entry((owner, *link)).or_default()).push(channel.key());
        }
    }
    expected.values_mut().for_each(|keys| keys.sort());
    let mut held = BTreeMap::new();
    for site in &manager.sites {
        for (link, load) in site.ledger.loaded_links() {
            let keys = site.ledger.keys_on(link);
            assert_eq!(keys.len(), load, "{} {link}", site.switch);
            held.insert((site.switch, link), keys);
        }
        for key in gone {
            let lease = site.lease_of(*key);
            assert_eq!(lease, None, "{} still leases released {key:?}", site.switch);
        }
    }
    assert_eq!(held, expected, "site ledgers and the registry disagree");
}

/// The distributed twin of `multihop`'s ledger regression: the API-level
/// teardown, fail-over and re-optimisation release a channel at the owners of
/// its own path links instead of at every site, and that must leave no key —
/// and no renewed lease of an interior site — behind anywhere.
#[test]
fn path_local_release_leaves_no_key_behind_at_any_site() {
    let topology = Topology::torus(3, 3, 4);
    let nodes = topology.node_count() as u64;
    let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
    let (mut torn_down, mut rerouted, mut interior_leases) = (0, 0, 0);
    for seed in 0..8u64 {
        let mut rng = Xoshiro256::new(0x1ed6_e417 + seed);
        let router = Arc::new(ShortestPathRouter::new());
        let mut manager =
            DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router);
        let mut live: Vec<ChannelId> = Vec::new();
        let mut gone: Vec<ReservationKey> = Vec::new();
        let key_of =
            |manager: &DistributedChannelManager, id: ChannelId| manager.registry[&id.get()].key();
        for step in 0..400u32 {
            match rng.below(20) {
                // Tear one down through the API.
                0..=5 if !live.is_empty() => {
                    let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                    gone.push(key_of(&manager, id));
                    manager.handle_teardown(id).unwrap();
                }
                // Cut a trunk: moved channels keep id and key, dropped ones
                // are gone for good ...
                6 => {
                    let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
                    let keys: Vec<_> = live.iter().map(|id| key_of(&manager, *id)).collect();
                    if let Ok(report) = manager.handle_link_failure(a, b) {
                        flood(&mut manager);
                        for dropped in &report.dropped {
                            let at = live.iter().position(|id| *id == dropped.id).unwrap();
                            live.swap_remove(at);
                            gone.push(keys[at]);
                        }
                    }
                }
                // ... or splice one back, which re-optimises.
                7 => {
                    let failed = manager.topology.failed_trunks().next();
                    if let Some((a, b)) = failed {
                        let report = manager.handle_link_repair(a, b).unwrap();
                        flood(&mut manager);
                        assert!(report.dropped.is_empty());
                    }
                }
                // Otherwise ask for a new channel, over the wire protocol.
                _ => {
                    let (src, dst) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
                    let spec = RtChannelSpec::new(
                        Slots::new(rng.range_inclusive(50, 400)),
                        Slots::new(rng.range_inclusive(1, 6)),
                        Slots::new(rng.range_inclusive(30, 80)),
                    )
                    .unwrap();
                    if src != dst {
                        let source = NodeId::new(src);
                        let request = ChannelRequest {
                            source,
                            destination: NodeId::new(dst),
                            spec,
                            request_id: ConnectionRequestId::new(step as u8),
                        };
                        let access = topology.switch_of(source).unwrap();
                        let frame = Frame::Request(request.to_frame());
                        let verdict = pump(&mut manager, (access, source, frame));
                        live.extend(verdict.expect("every request is answered"));
                    }
                }
            }
            assert_sites_match_channels(&manager, &gone);
        }
        assert_eq!(manager.registry.len(), live.len());
        torn_down += gone.len();
        rerouted += manager.rerouted_count();
        // A committed channel's interior sites still carry the lease the
        // Confirm walk renewed (the churn never advances the clock) ...
        interior_leases += (manager.sites.iter())
            .filter(|site| site.deadlines().next().is_some())
            .count();
        // ... and tearing everything down, half through the API and half
        // over the wire, empties every site of reservations and leases.
        for (n, id) in live.drain(..).enumerate() {
            if n % 2 == 0 {
                manager.handle_teardown(id).unwrap();
            } else {
                tear_down_over_the_wire(&mut manager, id);
            }
        }
        for site in &manager.sites {
            assert_eq!(site.ledger.loaded_links().count(), 0, "seed {seed}");
        }
        manager.audit_quiescent().unwrap();
    }
    // The walks really released channels all three ways, past leases that
    // interior sites were still holding.
    assert!(
        torn_down > 100 && rerouted > 100 && interior_leases > 20,
        "{torn_down} released, {rerouted} moved, {interior_leases} sites with leases"
    );
}

// --- the fault engine under the distributed manager -------------------------

thread_local! {
    /// When set, the seed of the order [`Walked::ask`] delivers in, and the
    /// floods of the walk's faults wait for the next request, whose
    /// deliveries they race, instead of converging in [`Walked::audit`].
    static SHUFFLE: Cell<Option<u64>> = const { Cell::new(None) };
    /// The `StaleRoute` refusals shuffled requests met.
    static STALE: Cell<usize> = const { Cell::new(0) };
}

/// The distributed manager under `fault::tests`' walk: requests over the wire
/// protocol, teardowns alternately over the wire and through the API, every
/// link-state flood carried to convergence before the books are looked at —
/// or, shuffled, raced by the next request.
impl Walked for DistributedChannelManager {
    fn build(topology: &Topology, router: Arc<dyn Router>) -> Self {
        DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router)
    }

    fn ask(
        &mut self,
        source: NodeId,
        destination: NodeId,
        spec: RtChannelSpec,
    ) -> RtResult<Option<ChannelRoute>> {
        let request = ChannelRequest {
            source,
            destination,
            spec,
            request_id: ConnectionRequestId::new(0),
        };
        let access = self.topology.switch_of(source).expect("attached");
        let first = (access, source, Frame::Request(request.to_frame()));
        let admitted = match SHUFFLE.get() {
            None => pump(self, first).expect("every request is answered"),
            // The manager and its oracle twin are in one state here, so the
            // token they are about to hand out salts the same order for both.
            Some(seed) => {
                let (salt, mut step) = (u64::from(self.next_token) << 32, 0);
                let pick = |n: usize| {
                    step += 1;
                    Xoshiro256::new(seed ^ salt ^ step).below(n as u64) as usize
                };
                let floods = |manager: &mut Self, step| match step {
                    0 => manager.drain_control(),
                    _ => Vec::new(),
                };
                let heard = explore(self, vec![first], false, pick, floods);
                assert!(heard.refused.is_empty(), "{:?}", heard.refused);
                STALE.set(STALE.get() + heard.stale);
                heard.one_each(1)[0]
            }
        };
        Ok(admitted.map(|id| self.registry[&id.get()].route.clone()))
    }

    fn tear_down(&mut self, id: ChannelId) {
        if id.get() % 2 == 0 {
            self.handle_teardown(id).unwrap();
        } else {
            tear_down_over_the_wire(self, id);
        }
    }

    fn notify(&mut self, fault: Fault) -> RtResult<FailoverReport> {
        match fault {
            Fault::Cut(a, b) => self.handle_link_failure(a, b),
            Fault::Repair(a, b) => self.handle_link_repair(a, b),
            Fault::Kill(switch) => self.handle_switch_failure(switch),
        }
    }

    fn degrade(&mut self, fault: Fault) -> RtResult<Vec<(SwitchId, SwitchId)>> {
        Ok(match fault {
            Fault::Cut(a, b) => {
                self.topology.fail_trunk(a, b)?;
                self.originate_link_state(&[(a, b)], false, None);
                self.abort_handshakes_over(&[(a, b)]);
                vec![(a, b)]
            }
            Fault::Repair(a, b) => {
                self.topology.repair_trunk(a, b)?;
                self.originate_link_state(&[(a, b)], true, None);
                vec![]
            }
            Fault::Kill(switch) => {
                let cut = self.topology.fail_switch(switch)?;
                self.originate_link_state(&cut, false, Some(switch));
                let dead = self.slot(switch)?;
                self.sites[dead].coordinations.clear();
                self.sites[dead].expecting.clear();
                self.abort_handshakes_over(&cut);
                cut
            }
        })
    }

    fn audit(&mut self) -> usize {
        if SHUFFLE.get().is_none() {
            flood(self);
        }
        assert_sites_match_channels(self, &[]);
        // Let the leases the Confirm walks renewed run out (a committed
        // channel only loses the leftover lease), then the manager's own
        // audit must pass with every channel still in place.
        while let Some(due) = self.next_timeout() {
            let swept = self.on_tick(due).unwrap();
            assert!(swept.emissions.is_empty(), "nothing is in flight");
        }
        self.audit_quiescent().unwrap();
        let loaded = |site: &Site| site.ledger.loaded_links().count();
        self.sites.iter().map(loaded).sum()
    }
}

/// The distributed twin of `multihop`'s count test, on the same 256-switch
/// torus under the same 300 channels: a cut asks for the candidates of the
/// channels on the cut trunk, the first repair asks about every live channel
/// once, a second flap of the same trunk only about the channels admitted or
/// re-placed since — the engine's skip, which this manager's own repair never
/// had.  The handshake's route look-ups are taken off the counter before
/// every fault; the link-state floods make none.
#[test]
fn a_distributed_fault_asks_the_router_only_about_the_channels_it_may_move() {
    let topology = Topology::torus_nd(&[4, 4, 4, 4], 4).unwrap();
    let nodes = topology.node_count() as u64;
    let router = Arc::new(CountingRouter::default());
    let mut manager = DistributedChannelManager::build(&topology, router.clone());
    let mut rng = Xoshiro256::new(0xfa17_c057);
    let spec = RtChannelSpec::new(Slots::new(400), Slots::new(2), Slots::new(120)).unwrap();
    let mut admit = |manager: &mut DistributedChannelManager, count: usize| {
        let mut admitted = Vec::new();
        while admitted.len() < count {
            let (src, dst) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
            if src != dst {
                let verdict = manager.ask(NodeId::new(src), NodeId::new(dst), spec);
                admitted.push(verdict.unwrap().expect("a light fabric admits it").id);
            }
        }
        admitted
    };
    admit(&mut manager, 300);
    // The trunk most channels cross.
    let mut crossing: BTreeMap<(SwitchId, SwitchId), usize> = BTreeMap::new();
    for link in manager.registry.values().flat_map(|c| c.route.path.iter()) {
        if let HopLink::Trunk { from, to } = *link {
            *crossing.entry((from.min(to), from.max(to))).or_default() += 1;
        }
    }
    let (&(a, b), &on_the_trunk) = crossing.iter().max_by_key(|(_, count)| **count).unwrap();
    router.take();

    let report = manager.handle_link_failure(a, b).unwrap();
    assert_eq!(
        (report.affected(), report.unaffected),
        (on_the_trunk, 300 - on_the_trunk)
    );
    assert_eq!(router.take(), (0, report.affected() as u64));
    flood(&mut manager);

    let report = manager.handle_link_repair(a, b).unwrap();
    assert_eq!(router.take(), (300, 0));
    assert_eq!(report.rerouted.len(), on_the_trunk);
    flood(&mut manager);

    let fresh = admit(&mut manager, 7);
    router.take();
    let cut = manager.handle_link_failure(a, b).unwrap();
    let moved: Vec<ChannelId> = cut.rerouted.iter().map(|r| r.id).collect();
    let fresh_and_moved = fresh.iter().filter(|id| moved.contains(id)).count();
    assert_eq!(router.take(), (0, cut.affected() as u64));
    flood(&mut manager);
    let report = manager.handle_link_repair(a, b).unwrap();
    let asked = (7 + moved.len() - fresh_and_moved) as u64;
    assert_eq!(router.take(), (asked, 0));
    assert_eq!(report.rerouted.len(), moved.len());
    assert_eq!(report.unaffected, 307 - moved.len());
    assert_eq!((on_the_trunk, asked), (27, 34), "the central test's counts");
    manager.audit();
}

/// The distributed twin of `multihop`'s reissued-id test, once per way a
/// channel leaves this manager: the source's TeardownFrame, the API-level
/// teardown, a fail-over that drops it.  Each must forget what the last
/// repair learnt about the id, or the id's next holder — admitted on a detour
/// while its primary trunk is down, and back on the very fabric state the old
/// holder was marked under once that trunk is repaired — is skipped by the
/// repair that should move it home.
#[test]
fn a_reissued_id_carries_nothing_over_from_its_last_distributed_holder() {
    // A ring of four with a fifth switch hanging off switch 0: the one trunk
    // whose cut drops a channel instead of re-routing it.
    let [sw0, sw1, sw2, sw3, sw4] = [0, 1, 2, 3, 4].map(SwitchId::new);
    let mut topology = Topology::ring(4, 2);
    topology.add_switch(sw4);
    topology.add_trunk(sw0, sw4).unwrap();
    topology.attach_node(NodeId::new(8), sw4).unwrap();
    let spec = RtChannelSpec::paper_default();
    let notify = |manager: &mut DistributedChannelManager, fault: Fault| {
        let report = manager.notify(fault).unwrap();
        flood(manager);
        report
    };
    type Leave = fn(&mut DistributedChannelManager, ChannelId);
    let ways: [(&str, Leave); 3] = [
        ("TeardownFrame", tear_down_over_the_wire),
        ("handle_teardown", |manager, id| {
            manager.handle_teardown(id).unwrap();
        }),
        ("fail-over drop", |manager, id| {
            let pendant = (SwitchId::new(0), SwitchId::new(4));
            let cut = manager.handle_link_failure(pendant.0, pendant.1);
            assert_eq!(cut.unwrap().dropped[0].id, id);
            flood(manager);
            manager.handle_link_repair(pendant.0, pendant.1).unwrap();
            flood(manager);
        }),
    ];
    for (way, leave) in ways {
        let router = Arc::new(ShortestPathRouter::new());
        let mut manager = DistributedChannelManager::build(&topology, router);
        // Node 1 on switch 0 to the node on the pendant switch.
        let first = manager.ask(NodeId::new(1), NodeId::new(8), spec);
        let first = first.unwrap().expect("an empty fabric admits it");
        // A flap elsewhere: its repair sees the channel on its primary route
        // under the healthy state.
        notify(&mut manager, Fault::Cut(sw1, sw2));
        let seen = notify(&mut manager, Fault::Repair(sw1, sw2));
        assert_eq!((seen.rerouted.len(), seen.unaffected), (0, 1), "{way}");
        assert_eq!(seen_on_primary(&manager), 1, "{way}");

        leave(&mut manager, first.id);
        assert_eq!(manager.registry.len(), 0, "{way}");
        notify(&mut manager, Fault::Cut(sw3, sw0));
        // Node 0 on switch 0 to a node on switch 3, under the same id: both
        // requests are coordinated by switch 0, out of its id block.
        let coordinator = manager.slot(sw0).unwrap();
        manager.sites[coordinator].next_local_id = first.id.get();
        let second = manager.ask(NodeId::new(0), NodeId::new(6), spec);
        let second = second.unwrap().expect("the long way round admits it");
        assert_eq!((second.id, second.path.len()), (first.id, 5), "{way}");
        // Back on the healthy state: the new holder moves onto the primary.
        let repair = notify(&mut manager, Fault::Repair(sw3, sw0));
        assert_eq!(repair.rerouted.len(), 1, "{way}");
        assert_eq!(manager.record(second.id.get()).path.len(), 3, "{way}");
        manager.audit();
    }
}

// --- the sites' key records --------------------------------------------------

/// Seeds of a seeded property: the `RT_ADVERSARIAL_SEEDS` matrix the CI
/// soaks crank up, else `default`.
fn adversarial_seeds(default: u64) -> u64 {
    std::env::var("RT_ADVERSARIAL_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A site of switch 0 on its own, for the tests of its records.
fn bare_site() -> Site {
    Site::new(SwitchId::new(0), Arc::new(Topology::new()), 1)
}

fn task(period: u64, capacity: u64, deadline: u64) -> PeriodicTask {
    let slots = (
        Slots::new(period),
        Slots::new(capacity),
        Slots::new(deadline),
    );
    PeriodicTask::new(slots.0, slots.1, slots.2).unwrap()
}

/// The key records and their bounded sweep against a plain map and the full
/// scan the ledger ran before (PR 17's oracle, moved here with the leases): a
/// seeded walk of leases (new, moved earlier, moved later), lease clears,
/// whole-key releases, candidate steps (the key's old links dropped, one or
/// two new ones reserved — a record is replaced, never merged), single
/// reserves and sweeps, the clock advancing by random steps and, every so
/// often, exactly onto the next deadline.  A due key of a committed channel
/// keeps only its links on the channel's path.  After every step: what
/// `release_key` freed, the reclaimed keys, `deadlines`, `lease_of`, every
/// record against the model, `loaded_links`, `keys_on`, and the records
/// against the books.
#[test]
fn prop_bounded_sweep_matches_a_full_scan() {
    use std::collections::BTreeSet;

    let (sw, n) = (SwitchId::new, NodeId::new);
    let links = [
        HopLink::Uplink(n(0)),
        HopLink::Downlink(n(1)),
        HopLink::Trunk {
            from: sw(0),
            to: sw(1),
        },
        HopLink::Trunk {
            from: sw(0),
            to: sw(2),
        },
    ];
    // What a committed key's channel crosses: two of the four links here.
    let path = Route::from_links(vec![links[0], links[2], HopLink::Downlink(n(5))]).unwrap();
    let keys: Vec<ReservationKey> = (0..24)
        .map(|t| ReservationKey::token(sw(t % 3), t as u16))
        .collect();
    let path_of = |key| matches!(key, ReservationKey::Token(_, t) if t % 4 == 0).then_some(&path);
    let (mut fresh, mut earlier, mut later, mut on_deadline) = (0, 0, 0, 0);
    let (mut reclaimed, mut spared, mut trimmed, mut idle_sweeps) = (0, 0, 0, 0);
    let (mut replaced, mut freed) = (0, 0);

    let seeds = adversarial_seeds(32);
    for seed in 0..seeds {
        let mut rng = Xoshiro256::new(0xd0e7_1700 + seed);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let mut site = bare_site();
        let mut leases: BTreeMap<ReservationKey, SimTime> = BTreeMap::new();
        let mut held: BTreeMap<ReservationKey, BTreeSet<HopLink>> = BTreeMap::new();
        let mut now = 0u64;
        for _ in 0..500 {
            let (link, key) = (links[pick(links.len())], keys[pick(keys.len())]);
            match pick(12) {
                // A lease on a key that holds nothing here is no lease: most
                // leases go to a key that holds something.
                0..=3 => {
                    let key = match held.keys().nth(pick(held.len() + held.len() / 3 + 1)) {
                        Some(&holder) => holder,
                        None => key,
                    };
                    let expires = SimTime::from_micros(now + pick(60) as u64);
                    match held.contains_key(&key).then(|| leases.insert(key, expires)) {
                        Some(None) => fresh += 1,
                        Some(Some(old)) if expires < old => earlier += 1,
                        Some(Some(old)) if expires > old => later += 1,
                        _ => {}
                    }
                    site.lease(key, expires);
                }
                4 => assert_eq!(site.clear_lease(key), leases.remove(&key).is_some()),
                5 => {
                    leases.remove(&key);
                    let expected = held.remove(&key).map_or(0, |links| links.len());
                    freed += expected;
                    assert_eq!(site.release_key(key), expected);
                }
                // A candidate's step: what the key held here goes, one or two
                // links come.
                6 | 7 => {
                    leases.remove(&key);
                    replaced += usize::from(held.remove(&key).is_some());
                    site.release_key(key);
                    let mut step = BTreeSet::from([link]);
                    if pick(2) == 0 {
                        step.insert(links[pick(links.len())]);
                    }
                    for &link in &step {
                        site.reserve(link, key, task(100, 1, 50));
                    }
                    held.insert(key, step);
                }
                // One more link under the key, or a new task on one it holds.
                8 => {
                    let record = held.entry(key).or_default();
                    if record.len() < 2 || record.contains(&link) {
                        record.insert(link);
                        site.reserve(link, key, task(100, 1, 40));
                    }
                }
                _ => {
                    // Advance by a random step, or exactly onto the next
                    // deadline still ahead.
                    let ahead = leases.values().map(|d| d.as_nanos() / 1_000);
                    match ahead.filter(|&d| d > now).min() {
                        Some(deadline) if pick(3) == 0 => {
                            now = deadline;
                            on_deadline += 1;
                        }
                        _ => now += pick(25) as u64,
                    }
                    let at = SimTime::from_micros(now);
                    let due: Vec<_> = (leases.iter().filter(|(_, &deadline)| deadline <= at))
                        .map(|(&key, _)| key)
                        .collect();
                    idle_sweeps += usize::from(due.is_empty());
                    let mut expected = Vec::new();
                    for key in due {
                        leases.remove(&key);
                        let mut links = held.remove(&key).unwrap_or_default();
                        if path_of(key).is_some() {
                            spared += 1;
                            let before = links.len();
                            links.retain(|link| path.contains(link));
                            trimmed += before - links.len();
                            if !links.is_empty() {
                                held.insert(key, links);
                            }
                        } else {
                            expected.push(key);
                        }
                    }
                    reclaimed += expected.len();
                    assert_eq!(site.sweep(at, path_of).0, expected);
                }
            }
            held.retain(|_, links| !links.is_empty());
            assert_eq!(site.deadlines().min(), leases.values().min().copied());
            for key in &keys {
                assert_eq!(site.lease_of(*key), leases.get(key).copied());
                let record = site
                    .held
                    .get(key)
                    .map(|h| h.links.iter().flatten().copied());
                let record: BTreeSet<HopLink> = record.into_iter().flatten().collect();
                assert_eq!(record, held.get(key).cloned().unwrap_or_default());
            }
            let mut on_links: BTreeMap<HopLink, Vec<ReservationKey>> = BTreeMap::new();
            for (key, links) in &held {
                links
                    .iter()
                    .for_each(|link| on_links.entry(*link).or_default().push(*key));
            }
            let loaded: Vec<_> = on_links.iter().map(|(l, keys)| (*l, keys.len())).collect();
            assert_eq!(site.ledger.loaded_links().collect::<Vec<_>>(), loaded);
            for (link, keys) in &on_links {
                assert_eq!(&site.ledger.keys_on(*link), keys);
            }
            // The records against the books, directly.
            let in_books = site.ledger.loaded_links().flat_map(|(link, _)| {
                let keys = site.ledger.keys_on(link);
                keys.into_iter().map(move |key| (key, link))
            });
            let in_records = site
                .held
                .iter()
                .flat_map(|(key, h)| h.links.into_iter().flatten().map(|link| (*key, link)));
            assert_eq!(
                in_books.collect::<BTreeSet<_>>(),
                in_records.collect::<BTreeSet<_>>()
            );
        }
    }
    // The walk really moved leases both ways, landed on deadlines, reclaimed
    // and spared keys, trimmed committed keys' leftovers, replaced
    // candidates' links and swept with nothing due — in every seed, on
    // average.
    let n = seeds as usize;
    assert!(
        fresh > 50 * n && earlier > 10 * n && later > 10 * n && on_deadline > 20 * n,
        "{fresh} new, {earlier} earlier, {later} later, {on_deadline} on a deadline"
    );
    assert!(
        reclaimed > 30 * n && spared > 20 * n && trimmed > 5 * n && idle_sweeps > 30 * n,
        "{reclaimed} reclaimed, {spared} spared, {trimmed} trimmed, {idle_sweeps} idle sweeps"
    );
    assert!(
        replaced > 10 * n && freed > 10 * n,
        "{replaced} replaced, {freed} freed"
    );
}

/// What a sweep costs while nothing is due does not grow with what the site
/// holds: it looks at no record and returns a `Vec` that never allocated.
/// The sweep that reaches the earliest deadline looks at every record once,
/// and leaves the bound on the next deadline.
#[test]
fn sweeps_below_the_earliest_deadline_examine_nothing() {
    let mut site = bare_site();
    let link = HopLink::Uplink(NodeId::new(0));
    for t in 0..500u16 {
        let key = ReservationKey::token(SwitchId::new(1), t);
        site.reserve(link, key, task(10_000, 1, 5_000));
        site.lease(key, SimTime::from_micros(1_000 + u64::from(t / 2)));
    }
    for tick in 0..1_000 {
        let swept = site.sweep(SimTime::from_nanos(tick * 999), |_| None).0;
        assert_eq!((swept.len(), swept.capacity()), (0, 0));
    }
    assert_eq!(site.examined.0, 0);
    // Exactly at the earliest deadline: one look at each record.
    let reclaimed = site.sweep(SimTime::from_micros(1_000), |_| None).0;
    assert_eq!(reclaimed.len(), 2);
    assert_eq!(site.examined.0, 500);
    assert_eq!(site.deadlines().min(), Some(SimTime::from_micros(1_001)));
    // And below the next one, nothing again.
    site.sweep(SimTime::from_nanos(1_000_999), |_| None);
    assert_eq!(site.examined.0, 500);
}

/// Releasing a key costs the links it holds, not the books its site ever
/// filled: at a site with 24 filled books, one key's release looks at its own
/// two.  (The walk over every book it replaced looked at all 24.)
#[test]
fn releasing_a_key_examines_its_own_books_only() {
    let mut site = bare_site();
    let key = |t: u16| ReservationKey::token(SwitchId::new(0), t);
    for node in 0..12 {
        for link in [
            HopLink::Uplink(NodeId::new(node)),
            HopLink::Downlink(NodeId::new(node)),
        ] {
            site.reserve(link, key(node as u16), task(100, 1, 50));
        }
    }
    assert_eq!(site.ledger.loaded_links().count(), 24);
    assert_eq!(site.release_key(key(7)), 2);
    assert_eq!(site.examined.1, 2, "books examined");
    assert_eq!(site.release_key(key(7)), 0);
    assert_eq!(site.examined.1, 2, "a key with no record examines nothing");
    assert_eq!(site.ledger.loaded_links().count(), 22);
}

/// The route memo is one table for all sites, keyed by the view's state:
/// sites that share a view ask the router once per node pair, however many
/// of them ask and however often, and a site that hears of a cut asks once
/// for the new state — which a second site moving onto that state then finds.
#[test]
fn sites_sharing_a_view_call_the_router_once_per_pair_per_fabric_state() {
    let topology = Topology::ring(4, 2);
    let router = Arc::new(CountingRouter::default());
    let mut manager = DistributedChannelManager::build(&topology, router.clone());
    let (source, destination) = (NodeId::new(0), NodeId::new(5));
    let ask = |manager: &mut DistributedChannelManager, sites: &[usize]| {
        for &s in sites {
            let view = &manager.sites[s].view;
            manager
                .routes
                .candidates(view, source, destination)
                .unwrap();
        }
        router.take()
    };
    assert_eq!(ask(&mut manager, &[0, 1, 2, 0, 3, 3]), (0, 1));
    let (sw1, sw2, sw3) = (SwitchId::new(1), SwitchId::new(2), SwitchId::new(3));
    let cut = DistributedChannelManager::link_state_frame(sw2, sw2, sw3, false, 1);
    let cut = Frame::Reservation(cut);
    manager
        .handle_frame_at(sw1, NodeId::SWITCH, &cut, SimTime::ZERO)
        .unwrap();
    assert_eq!(
        ask(&mut manager, &[1, 1, 0, 2, 3]),
        (0, 1),
        "site 1's new state"
    );
    manager
        .handle_frame_at(sw2, NodeId::SWITCH, &cut, SimTime::ZERO)
        .unwrap();
    assert_eq!(
        ask(&mut manager, &[2, 1, 0]),
        (0, 0),
        "both states memoised"
    );
}

/// Switch 0 to switch 4 two ways: 0-1-2-3-4 (the primary) and 0-5-6-7-8-4
/// (the detour).  Nodes `s` and `100 + s` sit on switch `s`; the router
/// offers both paths (`KShortest { k: 2 }`).
fn two_paths() -> DistributedChannelManager {
    let sw = SwitchId::new;
    let mut topology = Topology::new();
    for s in 0..9 {
        topology.add_switch(sw(s));
        topology.attach_node(NodeId::new(s), sw(s)).unwrap();
        topology.attach_node(NodeId::new(100 + s), sw(s)).unwrap();
    }
    for (a, b) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (0, 5),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 4),
    ] {
        topology.add_trunk(sw(a), sw(b)).unwrap();
    }
    let policy = RoutePolicy::KShortest { k: 2 };
    let router = Arc::new(ShortestPathRouter::with_policy(policy));
    DistributedChannelManager::new(topology, MultiHopDps::Asymmetric, router)
}

/// The request frame of `source` for `{P 100, C c, d deadline}`, as its
/// access switch receives it.
fn request_frame(
    manager: &DistributedChannelManager,
    (source, destination): (u32, u32),
    (capacity, deadline): (u64, u64),
    id: u8,
) -> (SwitchId, NodeId, Frame) {
    let spec = RtChannelSpec::new(Slots::new(100), Slots::new(capacity), Slots::new(deadline));
    let request = ChannelRequest {
        source: NodeId::new(source),
        destination: NodeId::new(destination),
        spec: spec.unwrap(),
        request_id: ConnectionRequestId::new(id),
    };
    let access = manager.topology.switch_of(request.source).unwrap();
    (access, request.source, Frame::Request(request.to_frame()))
}

/// Move the clock through every lease and timeout the manager holds, each
/// sweep sending nothing.
fn tick_out(manager: &mut DistributedChannelManager) {
    while let Some(due) = manager.next_timeout() {
        assert!(manager.on_tick(due).unwrap().emissions.is_empty());
    }
}

/// A Rollback walks on from the record its key's Reserve step left, not from
/// the site's view: candidate 0 is reserved backward from switch 4 to switch
/// 2 and refused at switch 1; switch 2 hears of a cut of 2-3 just before the
/// Rollback reaches it, and the Rollback still sweeps switches 3 and 4 at
/// once.  Candidate 1 then commits, and the sites hold exactly what the
/// channels say before any lease runs out.
#[test]
fn a_view_change_mid_rollback_does_not_stop_it() {
    let sw = SwitchId::new;
    let mut manager = two_paths();
    // Three channels of U = 0.3 fill trunk 1 → 2: a fourth is over.
    for id in 0..3 {
        let first = request_frame(&manager, (1, 2), (30, 600), id);
        pump(&mut manager, first)
            .flatten()
            .expect("the trunk holds three");
    }
    let mut told = false;
    let tell = |manager: &mut DistributedChannelManager, at: SwitchId, frame: &Frame| {
        let rollback = matches!(frame, Frame::Reservation(f) if f.op == ReservationOp::Rollback);
        if at == sw(2) && rollback && !told {
            told = true;
            let cut = DistributedChannelManager::link_state_frame(sw(2), sw(2), sw(3), false, 1);
            let cut = Frame::Reservation(cut);
            manager
                .handle_frame_at(at, NodeId::SWITCH, &cut, SimTime::ZERO)
                .unwrap();
        }
    };
    let first = request_frame(&manager, (0, 4), (30, 1_200), 9);
    let id = pump_with(&mut manager, first, tell);
    let id = id.flatten().expect("candidate 1 admits it");
    assert!(told, "the Rollback reached switch 2");
    let path = &manager.registry[&id.get()].route.path;
    assert_eq!(path.len(), 7, "over the detour: {path}");
    assert_sites_match_channels(&manager, &[]);
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    tear_down_over_the_wire(&mut manager, id);
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    assert_sites_match_channels(&manager, &[]);
}

/// A frame of `two_paths`' node 0 → node 4 request for `{P 100, C 30, d
/// 1 200}` under `(coordinator, token)`: `op` for `reason` at position `hop`
/// of candidate 0, carrying `values`.
fn frame_of_0_to_4(
    (op, reason): (ReservationOp, ReservationReason),
    (coordinator, token): (SwitchId, u16),
    hop: u8,
    values: Vec<u64>,
) -> ReservationFrame {
    ReservationFrame {
        op,
        reason,
        coordinator,
        token,
        source: NodeId::new(0),
        destination: NodeId::new(4),
        request_id: ConnectionRequestId::new(9),
        candidate: 0,
        hop,
        channel: None,
        period: Slots::new(100),
        capacity: Slots::new(30),
        deadline: Slots::new(1_200),
        values,
    }
}

/// A Reserve step of `two_paths`' node 0 → node 4 request under `holder`:
/// candidate `candidate` over the switches `route`, at position `hop`, with
/// `per_link` slots on every link.
fn reserve_step(
    holder: (SwitchId, u16),
    (route, candidate): (&[u64], u8),
    hop: u8,
    per_link: u64,
) -> Frame {
    let links = route.len() + 1;
    let mut values = ReservationFrame::route_values(route.iter().copied(), links);
    values.extend(std::iter::repeat_n(per_link, links));
    let reserve = (ReservationOp::Reserve, ReservationReason::None);
    let step = frame_of_0_to_4(reserve, holder, hop, values);
    Frame::Reservation(ReservationFrame { candidate, ..step })
}

/// A committed key's leftover does not outlive its channel.  A stray
/// Reserve under the key — a copy of another candidate's step, delivered
/// while the channel's Confirm walks back along the primary — books off the
/// channel's path under a lease; the sweep at expiry must reclaim that
/// link, which no teardown will visit, instead of sparing the key
/// wholesale, and keep the channel's own links.  Reached through
/// `handle_frame_at` alone.  Once the channel has committed, such a copy is
/// refused outright (`a_replayed_reserve_never_touches_a_committed_channel`).
#[test]
fn a_committed_keys_leftover_does_not_outlive_its_channel() {
    let sw = SwitchId::new;
    let mut manager = two_paths();
    let mut stray = None;
    let copy_at_8 = |manager: &mut DistributedChannelManager, _: SwitchId, frame: &Frame| {
        let Frame::Reservation(confirm) = frame else {
            return;
        };
        if confirm.op != ReservationOp::Confirm || stray.is_some() {
            return;
        }
        // The detour's step at switch 8, which owns trunk 8 → 4: switch 8
        // books its trunk and sends the step on; the copy is lost there.
        let key = (confirm.coordinator, confirm.token);
        let copy = reserve_step(key, (&[0, 5, 6, 7, 8, 4], 1), 4, 170);
        let outcome = manager
            .handle_frame_at(sw(8), NodeId::SWITCH, &copy, SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.emissions.len(), 1);
        stray = Some(ReservationKey::token(key.0, key.1));
    };
    let first = request_frame(&manager, (0, 4), (30, 1_200), 9);
    let id = pump_with(&mut manager, first, copy_at_8)
        .flatten()
        .expect("the primary admits it");
    let channel = manager.registry[&id.get()].route.clone();
    let key = manager.registry[&id.get()].key();
    assert_eq!(stray, Some(key), "the copy went in under the channel's key");
    let leftover = HopLink::Trunk {
        from: sw(8),
        to: sw(4),
    };
    assert!(!channel.path.contains(&leftover), "{}", channel.path);
    let at_8 = manager.slot(sw(8)).unwrap();
    assert!(
        manager.sites[at_8].ledger.holds(leftover, key),
        "the leftover stays"
    );
    tick_out(&mut manager);
    assert!(
        !manager.sites[at_8].ledger.holds(leftover, key),
        "reclaimed at expiry"
    );
    assert_sites_match_channels(&manager, &[]);
    manager.audit_quiescent().unwrap();
    tear_down_over_the_wire(&mut manager, id);
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    let held: usize = (manager.sites.iter())
        .map(|site| site.ledger.loaded_links().count())
        .sum();
    assert_eq!(held, 0);
}

/// `two_paths`' node 0 → node 4 request for `{P 100, C 30, d 1 200}`,
/// admitted on the primary, 0-1-2-3-4, with every lease run out: the manager
/// and the channel's `(coordinator, token)`.
fn primary_committed() -> (DistributedChannelManager, (SwitchId, u16)) {
    let mut manager = two_paths();
    let first = request_frame(&manager, (0, 4), (30, 1_200), 9);
    let id = pump(&mut manager, first)
        .flatten()
        .expect("the primary admits it");
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    let committed = &manager.registry[&id.get()];
    let holder = (committed.coordinator, committed.token);
    (manager, holder)
}

/// Deliver `copy` at switch `at` under a committed channel's key: it is
/// refused with a `ProtocolViolation`, and the audit — which checks every
/// link of every channel against its owner's books — still passes.
fn assert_refused_untouched(manager: &mut DistributedChannelManager, at: u32, copy: Frame) {
    let what = format!("{copy:?} at {at}");
    let outcome = manager.handle_frame_at(SwitchId::new(at), NodeId::SWITCH, &copy, SimTime::ZERO);
    manager
        .audit_quiescent()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        matches!(outcome, Err(RtError::ProtocolViolation(_))),
        "{what}: {outcome:?}"
    );
}

/// A Reserve delivered again, or forged, under a committed channel's key is
/// refused before any book is touched: its step would free what the key
/// holds at the site before testing the frame's deadlines.  Copies of the
/// primary's step at its last switch, switch 4 — one with per-link
/// deadlines below `C`, which no link can hold, one with deadlines every
/// link can — are both refused, and the channel keeps its reservation on
/// the downlink switch 4 owns.
#[test]
fn a_replayed_reserve_never_touches_a_committed_channel() {
    let (mut manager, holder) = primary_committed();
    for per_link in [10, 200] {
        let copy = reserve_step(holder, (&[0, 1, 2, 3, 4], 0), 4, per_link);
        assert_refused_untouched(&mut manager, 4, copy);
    }
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    assert_sites_match_channels(&manager, &[]);
}

/// The same for a Rollback: `Rollback(Infeasible)` of the primary's route
/// at switch 2 under the live key — a copy of the sweep a refused step would
/// have sent — is refused, and switch 2 keeps the channel's trunk 2 → 3.
/// Before the rule, the Rollback freed that trunk and walked on to switch 3.
#[test]
fn a_replayed_rollback_never_touches_a_committed_channel() {
    let (mut manager, holder) = primary_committed();
    let key = ReservationKey::token(holder.0, holder.1);
    let infeasible = (ReservationOp::Rollback, ReservationReason::Infeasible);
    let copy = Frame::Reservation(frame_of_0_to_4(infeasible, holder, 2, Vec::new()));
    assert_refused_untouched(&mut manager, 2, copy);
    let trunk = HopLink::Trunk {
        from: SwitchId::new(2),
        to: SwitchId::new(3),
    };
    let at_2 = manager.slot(SwitchId::new(2)).unwrap();
    assert!(manager.sites[at_2].ledger.holds(trunk, key));
    tick_out(&mut manager);
    assert_sites_match_channels(&manager, &[]);
}

/// The same for a Release: a copy of the channel's Release pass under the
/// live key, at each switch of its route in turn, is refused, and the
/// channel keeps every link.  Before the rule, each copy freed what the
/// channel held at its switch.
#[test]
fn a_replayed_release_never_touches_a_committed_channel() {
    let (mut manager, holder) = primary_committed();
    let release = (ReservationOp::Release, ReservationReason::None);
    for at in 0..5 {
        let copy = frame_of_0_to_4(release, holder, at as u8, vec![0, 1, 2, 3, 4]);
        assert_refused_untouched(&mut manager, at, Frame::Reservation(copy));
    }
    tick_out(&mut manager);
    assert_sites_match_channels(&manager, &[]);
}

/// The ascending-id contract on the distributed manager: `channel_ids()`
/// reads the hashed registry and the fault reports come out of the engine,
/// each in ascending id order, after every coordinator handed ids out again
/// out of order across the end of its block.
#[test]
fn ids_come_out_ascending_after_reuse_across_the_wrap() {
    let block = |manager: &DistributedChannelManager, slot| {
        DistributedChannelManager::id_block_of(manager.sites.len(), slot)
    };
    let wrap = |manager: &mut DistributedChannelManager| {
        for slot in 0..manager.sites.len() {
            manager.sites[slot].next_local_id = block(manager, slot).1 - 3;
        }
    };
    let (manager, admitted, reports) = reuse_ids_across_the_wrap(wrap);
    // Switch 1 coordinates the requests from node 2.
    let (start, end) = block(&manager, 1);
    assert!(admitted.contains(&end) && admitted.contains(&start));
    let live: Vec<u16> = manager.channel_ids().iter().map(|id| id.get()).collect();
    assert_ascending_across_the_wrap(&admitted, &reports, &live);
}

// --- stale views ---------------------------------------------------------------

/// The stale-coordinator path: trunk 2 – 3 of a ring is cut and only its
/// two ends hear of it, so switches 1 and 4 still route over it.  Each asks
/// for a pair whose primary crosses the dead trunk (one direction each): the
/// primary dies at the dead trunk's near end with `StaleRoute`, nothing is
/// ever booked on the dead trunk, and the detour — candidate 1 of the stale
/// coordinator's list, which the far end's own list does not have at that
/// index — is admitted, because every hop reads the route off the frame.
#[test]
fn a_stale_coordinator_never_books_a_dead_trunk() {
    let sw = SwitchId::new;
    let topology = Topology::ring(6, 1);
    let policy = RoutePolicy::KShortest { k: 2 };
    let router = Arc::new(ShortestPathRouter::with_policy(policy));
    let mut manager =
        DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router);
    manager.handle_link_failure(sw(2), sw(3)).unwrap();
    // The flood is lost past the two adjacent switches.
    let flood = manager.drain_control();
    assert!(!flood.is_empty());
    let dead = [
        HopLink::Trunk {
            from: sw(2),
            to: sw(3),
        },
        HopLink::Trunk {
            from: sw(3),
            to: sw(2),
        },
    ];
    let booked_on_dead = |manager: &DistributedChannelManager| {
        let sites = manager.sites.iter();
        sites
            .flat_map(|site| dead.map(|link| site.ledger.link_load(link)))
            .sum::<usize>()
    };
    let node_on = |s: u32| {
        topology
            .nodes()
            .find(|&n| topology.switch_of(n) == Some(sw(s)))
    };
    for (from, to) in [(1, 3), (4, 2)] {
        let (source, destination) = (node_on(from).unwrap(), node_on(to).unwrap());
        let s = manager.slot(sw(from)).unwrap();
        assert!(
            manager.sites[s].view.has_trunk(sw(2), sw(3)),
            "switch {from} is stale"
        );
        let view = &manager.sites[s].view;
        let candidates = manager
            .routes
            .candidates(view, source, destination)
            .unwrap();
        assert!(candidates[0].iter().any(|link| dead.contains(link)));
        let spec = RtChannelSpec::new(Slots::new(100), Slots::new(2), Slots::new(60)).unwrap();
        let request = ChannelRequest {
            source,
            destination,
            spec,
            request_id: ConnectionRequestId::new(from as u8),
        };
        let first = (sw(from), source, Frame::Request(request.to_frame()));
        let verdict = pump_with(&mut manager, first, |manager, _, _| {
            assert_eq!(booked_on_dead(manager), 0, "a booking on the dead trunk");
        });
        let id = verdict.flatten().expect("the detour admits it");
        let path = &manager.registry[&id.get()].route.path;
        assert!(!path.iter().any(|link| dead.contains(link)), "{path}");
        assert_eq!(booked_on_dead(&manager), 0);
    }
    while let Some(due) = manager.next_timeout() {
        manager.on_tick(due).unwrap();
    }
    manager.audit_quiescent().unwrap();
}

// --- the delivery-order explorer ------------------------------------------------

/// A delivery waiting to be made: the switch it reaches, its sender, the
/// frame.
type Delivery = (SwitchId, NodeId, Frame);

/// What the requesters of an explored run heard, and what the switches
/// made of the reservation frames.
#[derive(Debug, Default)]
struct Heard {
    /// Every verdict each request got, by `(source, request id)`.
    verdicts: BTreeMap<(NodeId, u8), Vec<Option<ChannelId>>>,
    /// The reasons of the ReserveFailed frames delivered: `StaleRoute`,
    /// `Infeasible`.
    stale: usize,
    infeasible: usize,
    /// Reservation frames refused with a `ProtocolViolation`, by op.
    refused: BTreeMap<String, usize>,
    /// Reservation frames answered with nothing sent, by op.  A Probe,
    /// Reserve, Rollback, ReserveFailed or Confirm here is one the
    /// legality rule made a no-op: every handler of theirs sends something.
    quiet: BTreeMap<String, usize>,
    /// Every reservation frame delivered, where and from whom, in order.
    history: Vec<Delivery>,
}

impl Heard {
    /// Put what one delivery sent among the waiting ones: a reservation frame
    /// to its switch, a forwarded request to its destination — which accepts,
    /// through its access switch — and a verdict to the record.  Each
    /// delivery put there is delivered twice if `twice`.
    fn route(
        &mut self,
        manager: &DistributedChannelManager,
        emissions: Vec<(SwitchId, SwitchAction)>,
        pending: &mut Vec<(Delivery, bool)>,
        twice: bool,
    ) {
        for (_, action) in emissions {
            match action {
                SwitchAction::SendControl { to, frame } => {
                    let control = (to, NodeId::SWITCH, Frame::Reservation(frame));
                    pending.push((control, twice));
                }
                SwitchAction::ForwardRequest { to, frame } => {
                    let access = manager.topology.switch_of(to).expect("attached");
                    let accept = ResponseFrame {
                        rt_channel_id: frame.rt_channel_id,
                        switch_mac: MacAddr::for_switch(),
                        verdict: ResponseVerdict::Accepted,
                        connection_request_id: frame.connection_request_id,
                    };
                    pending.push(((access, to, Frame::Response(accept)), twice));
                }
                SwitchAction::SendResponse { to, frame } => {
                    let verdict = frame.rt_channel_id.filter(|_| frame.verdict.is_accepted());
                    let request = (to, frame.connection_request_id.get());
                    self.verdicts.entry(request).or_default().push(verdict);
                }
            }
        }
    }

    /// The one verdict of every request: none twice, none missing.
    fn one_each(&self, requests: usize) -> Vec<Option<ChannelId>> {
        assert_eq!(self.verdicts.len(), requests, "{:?}", self.verdicts);
        let once = |(request, verdicts): (&(NodeId, u8), &Vec<_>)| match verdicts[..] {
            [verdict] => verdict,
            _ => panic!("{request:?} heard {verdicts:?}"),
        };
        self.verdicts.iter().map(once).collect()
    }
}

/// What a fault between two deliveries queued for the wire.
type Queued = Vec<(SwitchId, SwitchAction)>;

/// Deliver `pending` and everything it sets off at time zero, the next
/// delivery being the one at `pick(n)` of the `n` waiting (0: first come,
/// first served); `between(manager, step)` runs before each — a fault lands
/// there — and what it returns joins the waiting.  Then the clock moves from
/// timeout to timeout until nothing is due, what the sweeps send delivered
/// first come, first served.  With `twice`, every reservation frame and
/// every response is delivered a second time right after its first
/// delivery; what the copy sets off is delivered once.  A reservation frame
/// refused with a `ProtocolViolation` is counted; any other error fails.
fn explore(
    manager: &mut DistributedChannelManager,
    pending: Vec<Delivery>,
    twice: bool,
    mut pick: impl FnMut(usize) -> usize,
    mut between: impl FnMut(&mut DistributedChannelManager, usize) -> Queued,
) -> Heard {
    let mut heard = Heard::default();
    let mut pending: Vec<(Delivery, bool)> = pending.into_iter().map(|d| (d, false)).collect();
    let (mut step, mut now) = (0, SimTime::ZERO);
    loop {
        if pending.is_empty() {
            let Some(due) = manager.next_timeout() else {
                return heard;
            };
            now = due;
            let swept = manager.on_tick(now).unwrap();
            heard.route(manager, swept.emissions, &mut pending, twice);
            continue;
        }
        let queued = between(manager, step);
        heard.route(manager, queued, &mut pending, twice);
        step += 1;
        let next = if now == SimTime::ZERO {
            pick(pending.len())
        } else {
            0
        };
        let ((at, from, frame), copied) = pending.remove(next);
        let op = match &frame {
            Frame::Reservation(f) => {
                if f.op == ReservationOp::ReserveFailed {
                    heard.stale += usize::from(f.reason == ReservationReason::StaleRoute);
                    heard.infeasible += usize::from(f.reason == ReservationReason::Infeasible);
                }
                heard.history.push((at, from, frame.clone()));
                Some(format!("{:?}", f.op))
            }
            _ => None,
        };
        for copy in [false, true].into_iter().take(1 + usize::from(copied)) {
            match (manager.handle_frame_at(at, from, &frame, now), &op) {
                (Ok(outcome), op) => {
                    if let (true, Some(op)) = (outcome.emissions.is_empty(), op) {
                        *heard.quiet.entry(op.clone()).or_default() += 1;
                    }
                    heard.route(manager, outcome.emissions, &mut pending, twice && !copy);
                }
                (Err(RtError::ProtocolViolation(_)), Some(op)) => {
                    *heard.refused.entry(op.clone()).or_default() += 1;
                }
                (Err(e), _) => panic!("{frame:?} at {at}: {e}"),
            }
        }
    }
}

/// Run `run` once per delivery order, depth first: the picker it is handed
/// replays a prefix of choices and takes the first option past it, and the
/// next run takes the next option at the deepest choice that has one.
/// Returns the number of orders.
fn every_order(mut run: impl FnMut(&mut dyn FnMut(usize) -> usize)) -> usize {
    // (choice, options) at each delivery of the run being replayed.
    let mut script: Vec<(usize, usize)> = Vec::new();
    let mut orders = 0;
    loop {
        let mut depth = 0;
        run(&mut |options| {
            if depth == script.len() {
                script.push((0, options));
            }
            assert_eq!(script[depth].1, options, "a replay sees the same choices");
            depth += 1;
            script[depth - 1].0
        });
        orders += 1;
        while let Some((choice, options)) = script.pop() {
            if choice + 1 < options {
                script.push((choice + 1, options));
                break;
            }
        }
        if script.is_empty() {
            return orders;
        }
    }
}

/// After an explored run: every request heard exactly one verdict, the
/// sites hold exactly what the live channels say and the manager's audit
/// passes (the explorer ran the leases out), every live channel crosses only
/// live trunks, and every admission the requesters heard is live unless a
/// fail-over dropped it.  Returns the live channels.
fn assert_settled(
    manager: &DistributedChannelManager,
    heard: &Heard,
    requests: usize,
    dropped: &[ChannelId],
) -> usize {
    let admitted = heard.one_each(requests).into_iter().flatten();
    for id in admitted.filter(|id| !dropped.contains(id)) {
        assert!(manager.registry.contains_key(&id.get()), "{id} is gone");
    }
    assert_sites_match_channels(manager, &[]);
    manager.audit_quiescent().unwrap();
    for channel in manager.registry.values() {
        let dead = |link: &HopLink| match *link {
            HopLink::Trunk { from, to } => !manager.topology.has_trunk(from, to),
            _ => false,
        };
        let path = &channel.route.path;
        assert!(
            !path.iter().any(dead),
            "{} crosses a dead trunk: {path}",
            channel.route.id
        );
    }
    manager.registry.len()
}

/// Two requests from switch 0 of a three-switch line, to switch 2 and to
/// switch 1, in every delivery order of their 8 and 5 deliveries (1 287
/// orders): both cross trunk 0 → 1, both are admitted — the
/// one-after-the-other answer — and nothing is refused.
#[test]
fn every_order_of_two_requests_on_a_line_admits_both() {
    let topology = Topology::line(3, 2);
    let build = || {
        let router = Arc::new(ShortestPathRouter::new());
        DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router)
    };
    let requests = |manager: &DistributedChannelManager| {
        [(0, 4), (1, 3)]
            .into_iter()
            .enumerate()
            .map(|(id, pair)| request_frame(manager, pair, (20, 300), id as u8))
            .collect::<Vec<_>>()
    };
    let mut oracle = build();
    for first in requests(&oracle) {
        pump(&mut oracle, first)
            .flatten()
            .expect("one at a time admits both");
    }
    let orders = every_order(|pick| {
        let mut manager = build();
        let pending = requests(&manager);
        let heard = explore(&mut manager, pending, false, pick, |_, _| Vec::new());
        assert_eq!(assert_settled(&manager, &heard, 2, &[]), 2);
        assert_eq!((heard.stale, heard.infeasible), (0, 0));
    });
    assert_eq!(orders, 1_287);
}

/// How many requests [`five_racing`] makes.
const RACING: usize = 5;

/// The requests of [`five_racing`] as their access switches receive them.
fn racing_requests(manager: &DistributedChannelManager) -> Vec<Delivery> {
    let pairs = [(0, 4), (100, 104)];
    (0..RACING)
        .map(|id| request_frame(manager, pairs[id % 2], (30, 600), id as u8))
        .collect()
}

/// Five concurrent requests of `{P 100, C 30, d 600}` over [`two_paths`],
/// 0 → 4 and 100 → 104 in turn, explored in the order `pick` makes (every
/// frame twice if `twice`): trunk 2 – 3 is cut before they start if
/// `converged`, its flood carried to convergence, or at step `cut_at`, its
/// flood racing the handshakes.  The manager, what was heard, and the
/// channels the cut dropped.
fn five_racing(
    converged: bool,
    cut_at: Option<usize>,
    twice: bool,
    pick: &mut dyn FnMut(usize) -> usize,
) -> (DistributedChannelManager, Heard, Vec<ChannelId>) {
    let sw = SwitchId::new;
    let mut manager = two_paths();
    if converged {
        manager.handle_link_failure(sw(2), sw(3)).unwrap();
        flood(&mut manager);
    }
    let mut dropped = Vec::new();
    let pending = racing_requests(&manager);
    let heard = explore(&mut manager, pending, twice, pick, |manager, step| {
        if Some(step) != cut_at {
            return Vec::new();
        }
        let report = manager.handle_link_failure(sw(2), sw(3)).unwrap();
        dropped.extend(report.dropped.iter().map(|d| d.id));
        manager.drain_control()
    });
    (manager, heard, dropped)
}

/// [`five_racing`] delivered first come, first served and in seeded random
/// orders; in half the random runs, and in a first come, first served run
/// per step, trunk 2 – 3 is cut at a step among the first 40, its flood
/// racing the handshakes.  Whatever the order, each request hears one
/// verdict, nothing leaks once the leases run out, no live channel crosses
/// the dead trunk and no frame is refused.  A cut racing the handshakes
/// admits what the cut fabric admits once the flood has converged: first
/// come, first served, exactly what the same run admits with the flood
/// converged before the requests (2); in any order, no fewer, and no more
/// than the converged fabric admits one request at a time (3).  A stale
/// coordinator's detour is accepted at every hop, whatever index the hop's
/// own list gives it.
///
/// Without a cut, a random order admits all five or four.  Four is
/// contention, not a lost request: the fifth hears its rejection like any
/// verdict, after both its candidates failed a feasibility test, and
/// nothing leaks.  Each request partitions its deadline from the loads its
/// Probe read while the others' holds were still landing, so the channels
/// admitted keep other per-link deadlines than one at a time gives them
/// (seed 1 214: 83 slots on node 0's uplink for the first, against 100).
/// No run of the default seed count admits four; 47 of the 5 000 uncut runs
/// at `RT_ADVERSARIAL_SEEDS=100` do.
#[test]
fn every_explored_order_admits_what_the_converged_fabric_admits() {
    let sw = SwitchId::new;
    let run = |converged: bool, cut_at: Option<usize>, pick: &mut dyn FnMut(usize) -> usize| {
        let (manager, heard, dropped) = five_racing(converged, cut_at, false, pick);
        assert!(heard.refused.is_empty(), "{:?}", heard.refused);
        let admitted = assert_settled(&manager, &heard, RACING, &dropped);
        (admitted, heard)
    };
    // The converged answers: the five one after another, and all at once,
    // first come, first served.
    let one_at_a_time = |cut: bool| {
        let mut manager = two_paths();
        if cut {
            manager.handle_link_failure(sw(2), sw(3)).unwrap();
            flood(&mut manager);
        }
        for first in racing_requests(&manager) {
            pump(&mut manager, first);
        }
        manager.registry.len()
    };
    let (whole, cut) = (one_at_a_time(false), one_at_a_time(true));
    let (admitted, heard) = run(false, None, &mut |_| 0);
    assert_eq!((admitted, heard.stale), (whole, 0));
    let (together, heard) = run(true, None, &mut |_| 0);
    assert_eq!((whole, cut, together, heard.stale), (5, 3, 2, 0));
    for at in 0..40 {
        let (admitted, heard) = run(false, Some(at), &mut |_| 0);
        assert_eq!(admitted, together, "cut at step {at}");
        assert!(at > 5 || heard.stale > 0, "cut at step {at}: {heard:?}");
    }
    // Seeded random orders.
    let mut admissions: BTreeMap<(bool, usize), usize> = BTreeMap::new();
    let (mut stale, mut infeasible) = (0, 0);
    let seeds = adversarial_seeds(2);
    for seed in 0..100 * seeds {
        let mut rng = Xoshiro256::new(0x0e7d_e125 + seed);
        let cut_at = (seed % 2 == 1).then(|| rng.below(40) as usize);
        let (admitted, heard) = run(false, cut_at, &mut |n| rng.below(n as u64) as usize);
        let range = if cut_at.is_some() {
            together..=cut
        } else {
            whole - 1..=whole
        };
        assert!(
            range.contains(&admitted),
            "seed {seed}: {admitted} admitted, cut at {cut_at:?}"
        );
        *admissions.entry((cut_at.is_some(), admitted)).or_default() += 1;
        (stale, infeasible) = (stale + heard.stale, infeasible + heard.infeasible);
    }
    println!(
        "(cut, admitted) → runs: {admissions:?}; refused {stale} stale, {infeasible} infeasible"
    );
    assert!(
        stale > 0 && infeasible > 0,
        "{stale} stale, {infeasible} infeasible"
    );
    if seeds == 2 {
        let uncut = (admissions.get(&(false, 4)), admissions.get(&(false, 5)));
        assert_eq!(uncut, (None, Some(&100)), "{admissions:?}");
    }
}

/// Add `more` to `counts`, op by op.
fn tally(counts: &mut BTreeMap<String, usize>, more: &BTreeMap<String, usize>) {
    for (op, n) in more {
        *counts.entry(op.clone()).or_default() += n;
    }
}

/// Counts by op, as [`Heard`] keeps them.
fn by_op(counts: &[(&str, usize)]) -> BTreeMap<String, usize> {
    counts.iter().map(|&(op, n)| (op.to_string(), n)).collect()
}

/// Tear the lowest live channel down over the wire, as its source node
/// does, through [`explore`] (every frame twice if `twice`): its id, and
/// what the run heard.
fn tear_down_first(
    manager: &mut DistributedChannelManager,
    twice: bool,
) -> Option<(ChannelId, Heard)> {
    let id = *manager.channel_ids().first()?;
    let source = manager.registry[&id.get()].route.source;
    let access = manager.topology.switch_of(source).expect("attached");
    let teardown = Frame::Teardown(TeardownFrame { rt_channel_id: id });
    let pending = vec![(access, source, teardown)];
    Some((
        id,
        explore(manager, pending, twice, |_| 0, |_, _| Vec::new()),
    ))
}

/// Every reservation frame of a settled run of [`five_racing`] — seeded
/// random orders, half of them racing a cut — and of one channel's teardown
/// after it, delivered once more at the switch it first reached, first
/// come, first served, and what that sets off delivered too until the
/// leases run out again.  A live channel's Reserve and Rollback are
/// refused, and so is a Probe whose last hop would book under its key;
/// a frame of a handshake its coordinator no longer leads is a no-op; the
/// rest (a refused request's steps, the torn-down channel's, a Confirm at a
/// site whose lease is gone) holds nothing past the leases.  No requester
/// hears anything more, and the run settles as before: the same channels,
/// the books audited.  The refusals and the frames answered with nothing
/// are pinned by op at the default seed count.
#[test]
fn every_frame_replayed_after_a_settled_run_is_refused_or_changes_nothing() {
    let (mut refused, mut quiet) = (BTreeMap::new(), BTreeMap::new());
    let seeds = adversarial_seeds(1);
    for seed in 0..10 * seeds {
        let mut rng = Xoshiro256::new(0x5e91_a7ed + seed);
        let cut_at = (seed % 2 == 1).then(|| rng.below(40) as usize);
        let pick = &mut |n| rng.below(n as u64) as usize;
        let (mut manager, heard, mut dropped) = five_racing(false, cut_at, false, pick);
        assert_settled(&manager, &heard, RACING, &dropped);
        let mut history = heard.history.clone();
        if let Some((id, torn_down)) = tear_down_first(&mut manager, false) {
            dropped.push(id);
            history.extend(torn_down.history);
        }
        let live = manager.channel_ids();
        let again = explore(&mut manager, history, false, |_| 0, |_, _| Vec::new());
        assert!(again.verdicts.is_empty(), "seed {seed}: {again:?}");
        assert_settled(&manager, &heard, RACING, &dropped);
        assert_eq!(manager.channel_ids(), live, "seed {seed}");
        tally(&mut refused, &again.refused);
        tally(&mut quiet, &again.quiet);
    }
    println!("replayed: refused {refused:?}, answered with nothing {quiet:?}");
    if seeds == 1 {
        let refusals = [("Probe", 157), ("Reserve", 128), ("Rollback", 13)];
        assert_eq!(refused, by_op(&refusals));
        let nothing = [("Confirm", 69), ("LinkState", 80), ("Release", 45)];
        let no_ops = [("Reserve", 110), ("ReserveFailed", 327)];
        assert_eq!(quiet, by_op(&[&nothing[..], &no_ops[..]].concat()));
    }
}

/// [`five_racing`] in seeded random orders, half of them racing a cut, and
/// one channel's teardown after it, with every reservation frame and
/// response delivered twice as it goes: each request still hears one
/// verdict, and the run settles with the books audited.  Copies cost
/// admissions — a copy that meets a step other frames moved past is a
/// no-op, not a retry — so the admissions, the refusals and the frames
/// answered with nothing are pinned at the default seed count.
#[test]
fn every_frame_delivered_twice_as_it_goes_settles() {
    let (mut refused, mut quiet) = (BTreeMap::new(), BTreeMap::new());
    let mut admissions: BTreeMap<(bool, usize), usize> = BTreeMap::new();
    let seeds = adversarial_seeds(1);
    // Seed 94 is the first whose copies lead a refused step's Rollback to a
    // record a Confirm already attested (row d of the legality rule).
    for seed in (0..10 * seeds).chain([94]) {
        let mut rng = Xoshiro256::new(0x5e91_a7ed + seed);
        let cut_at = (seed % 2 == 1).then(|| rng.below(40) as usize);
        let pick = &mut |n| rng.below(n as u64) as usize;
        let (mut manager, heard, mut dropped) = five_racing(false, cut_at, true, pick);
        let admitted = assert_settled(&manager, &heard, RACING, &dropped);
        *admissions.entry((cut_at.is_some(), admitted)).or_default() += 1;
        tally(&mut refused, &heard.refused);
        tally(&mut quiet, &heard.quiet);
        if let Some((id, torn_down)) = tear_down_first(&mut manager, true) {
            dropped.push(id);
            assert!(torn_down.verdicts.is_empty(), "seed {seed}: {torn_down:?}");
            assert_settled(&manager, &heard, RACING, &dropped);
            tally(&mut refused, &torn_down.refused);
            tally(&mut quiet, &torn_down.quiet);
        }
    }
    println!("twice: {admissions:?}; refused {refused:?}, answered with nothing {quiet:?}");
    if seeds == 1 {
        let split = [((false, 5), 6), ((true, 2), 5)];
        assert_eq!(admissions, BTreeMap::from(split));
        let refusals = [("Probe", 33), ("Reserve", 1_181), ("Rollback", 3)];
        assert_eq!(refused, by_op(&refusals));
        let nothing = [("Confirm", 390), ("LinkState", 125), ("Release", 113)];
        let no_ops = [
            ("Reserve", 1_739),
            ("ReserveFailed", 2_050),
            ("Rollback", 77),
        ];
        assert_eq!(quiet, by_op(&[&nothing[..], &no_ops[..]].concat()));
    }
}

/// `fault::tests`' walk — 400 steps of requests, teardowns, cuts, repairs,
/// flaps and switch kills, the fault reports held to the full-scan oracles
/// and the books audited after every step, leases run out — with every
/// request delivered in a seeded random order among the floods of the faults
/// before it, so requests meet views that disagree.  Under `KShortest { k:
/// 3 }`, so that stale candidates have detours.
#[test]
fn the_fault_walk_holds_with_requests_racing_the_floods() {
    let mut tally = WalkTally::default();
    STALE.set(0);
    for seed in 0..adversarial_seeds(1) {
        SHUFFLE.set(Some(0x5ca7_7e2d + seed));
        let router = || -> Arc<dyn Router> {
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
        };
        fault_walk::<DistributedChannelManager>(seed, router, &mut tally);
    }
    SHUFFLE.set(None);
    println!("{tally:?}, {} stale", STALE.get());
    assert!(
        tally.torn_down > 0 && STALE.get() > 0,
        "{tally:?}, {} stale",
        STALE.get()
    );
}

// --- hostile routes ---------------------------------------------------------------

/// Hand-built Probe and Reserve frames whose carried route is no route this
/// fabric has — shorter than the hop, another switch at the hop, an unknown
/// switch, a non-adjacent pair, a repeated switch, the wrong last switch —
/// at the switch they name at their hop (or, for the route shorter than the
/// hop, the one after).  Each is refused with an `RtError::ProtocolViolation`
/// and nothing changed, or aborted with `StaleRoute`: a Reserve refused
/// before the last switch sweeps on with a Rollback, a Probe or a last step
/// tells the coordinator.  Whatever the refusals send is delivered, and once
/// the leases run out the sites hold exactly the channel admitted before and
/// the audit passes.
#[test]
fn hostile_routes_are_refused_never_booked() {
    let sw = SwitchId::new;
    // Node s on switch s of the line 0 - 1 - 2 - 3.
    let mut manager = DistributedChannelManager::new(
        Topology::line(4, 1),
        MultiHopDps::Asymmetric,
        Arc::new(ShortestPathRouter::new()),
    );
    let first = request_frame(&manager, (0, 3), (10, 200), 0);
    pump(&mut manager, first)
        .flatten()
        .expect("an empty line admits it");
    let frame = |op, route: &[u64], hop: u8| {
        let links = route.len() + 1;
        let mut values = ReservationFrame::route_values(route.iter().copied(), links);
        let per_link = match op {
            // What the positions before the hop own: two links at 0, one after.
            ReservationOp::Probe if hop > 0 => usize::from(hop) + 1,
            ReservationOp::Probe => 0,
            _ => links,
        };
        values.extend(std::iter::repeat_n(40, per_link));
        ReservationFrame {
            op,
            reason: ReservationReason::None,
            coordinator: sw(0),
            token: 7,
            source: NodeId::new(0),
            destination: NodeId::new(3),
            request_id: ConnectionRequestId::new(1),
            candidate: 0,
            hop,
            channel: None,
            period: Slots::new(100),
            capacity: Slots::new(10),
            deadline: Slots::new(200),
            values,
        }
    };
    let routes: [(&str, &[u64], u8, u32); 6] = [
        ("shorter than the hop", &[0, 1], 2, 2),
        ("another switch at the hop", &[0, 1, 2, 3], 1, 2),
        ("an unknown switch", &[0, 1, 9, 3], 1, 1),
        ("a non-adjacent pair", &[0, 1, 3], 1, 1),
        ("a repeated switch", &[0, 1, 2, 1, 2, 3], 1, 1),
        ("the wrong last switch", &[0, 1, 2], 1, 1),
    ];
    let (mut violations, mut stale) = (0, 0);
    for op in [ReservationOp::Probe, ReservationOp::Reserve] {
        for (what, route, hop, at) in routes {
            let hostile = Frame::Reservation(frame(op, route, hop));
            let outcome = manager.handle_frame_at(sw(at), NodeId::SWITCH, &hostile, SimTime::ZERO);
            let emissions = match outcome {
                Err(RtError::ProtocolViolation(_)) => {
                    violations += 1;
                    continue;
                }
                Err(e) => panic!("{op:?} over {what}: {e}"),
                Ok(outcome) => outcome.emissions,
            };
            let [(_, SwitchAction::SendControl { to, frame })] = &emissions[..] else {
                panic!("{op:?} over {what}: {emissions:?}");
            };
            assert_eq!(
                frame.reason,
                ReservationReason::StaleRoute,
                "{op:?} over {what}"
            );
            stale += 1;
            if manager.slot(*to).is_ok() {
                let answer = Frame::Reservation(frame.clone());
                pump(&mut manager, (*to, NodeId::SWITCH, answer));
            }
        }
    }
    assert_eq!((violations, stale), (2, 10));
    tick_out(&mut manager);
    assert_sites_match_channels(&manager, &[]);
    manager.audit_quiescent().unwrap();
}
