//! Tests that have to see every site's ledger and key records, which no
//! public accessor shows: what the manager-level releases leave behind, site
//! by site, and what the records cost.

use std::collections::VecDeque;

use rt_frames::codec::TeardownFrame;
use rt_types::rng::Xoshiro256;
use rt_types::{RoutePolicy, ShortestPathRouter};

use super::*;
use crate::fault::tests::{
    assert_ascending_across_the_wrap, reuse_ids_across_the_wrap, seen_on_primary, CountingRouter,
    Fault, Walked,
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

/// The distributed manager under `fault::tests`' walk: requests over the wire
/// protocol, teardowns alternately over the wire and through the API, every
/// link-state flood carried to convergence before the books are looked at.
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
        let verdict = pump(self, (access, source, Frame::Request(request.to_frame())));
        let admitted = verdict.expect("every request is answered");
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
                cut
            }
        })
    }

    fn audit(&mut self) -> usize {
        flood(self);
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

/// A committed key's leftover does not outlive its channel.  A Rollback that
/// a view disagreement stops early leaves the failed candidate's reservations
/// past the disagreeing site in place, lease-bounded; when the next candidate
/// then commits under the same key, a sweep at expiry must reclaim those —
/// they lie on no link of the channel's path, so its teardown will never
/// visit them — instead of sparing the key wholesale and keeping them for
/// good.  Reached through `handle_frame_at` alone, one site's view moved by
/// a hand-delivered `LinkState` frame.
#[test]
fn a_committed_keys_leftover_does_not_outlive_its_channel() {
    // Switch 0 to switch 4 two ways: 0-1-2-3-4 (candidate 0) and
    // 0-5-6-7-8-4 (candidate 1).  Node s sits on switch s.
    let sw = SwitchId::new;
    let mut topology = Topology::new();
    for s in 0..9 {
        topology.add_switch(sw(s));
        topology.attach_node(NodeId::new(s), sw(s)).unwrap();
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
    let router = Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
        k: 2,
    }));
    let mut manager = DistributedChannelManager::new(topology, MultiHopDps::Asymmetric, router);
    let ask = |source: u32, destination: u32, deadline: u64, id: u8| {
        let spec = RtChannelSpec::new(Slots::new(100), Slots::new(30), Slots::new(deadline));
        let request = ChannelRequest {
            source: NodeId::new(source),
            destination: NodeId::new(destination),
            spec: spec.unwrap(),
            request_id: ConnectionRequestId::new(id),
        };
        (
            sw(source),
            NodeId::new(source),
            Frame::Request(request.to_frame()),
        )
    };
    // Three channels of U = 0.3 fill trunk 1 → 2: a fourth is over.
    for id in 0..3 {
        let verdict = pump(&mut manager, ask(1, 2, 600, id));
        verdict.flatten().expect("the trunk holds three");
    }
    // Candidate 0 is reserved backward from switch 4 to switch 2 and refused
    // at switch 1; switch 2 hears of a cut of 2-3 just before the Rollback
    // reaches it, no longer places itself on the candidate, and stops the
    // sweep there: switches 3 and 4 keep what they reserved.
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
    let id = pump_with(&mut manager, ask(0, 4, 1_200, 9), tell);
    let id = id.flatten().expect("candidate 1 admits it");
    assert!(told, "the Rollback reached switch 2");
    let channel = manager.registry[&id.get()].route.clone();
    let leftover = HopLink::Trunk {
        from: sw(3),
        to: sw(4),
    };
    assert!(!channel.path.contains(&leftover), "{}", channel.path);
    let at_3 = manager.slot(sw(3)).unwrap();
    let key = manager.registry[&id.get()].key();
    assert!(
        manager.sites[at_3].ledger.holds(leftover, key),
        "the leftover stays"
    );

    // Every lease runs out while the channel lives, then it is torn down and
    // the rest runs out: nothing may stay behind.
    let tick_out = |manager: &mut DistributedChannelManager| {
        while let Some(due) = manager.next_timeout() {
            assert!(manager.on_tick(due).unwrap().emissions.is_empty());
        }
    };
    tick_out(&mut manager);
    assert!(
        !manager.sites[at_3].ledger.holds(leftover, key),
        "reclaimed at expiry"
    );
    manager.audit_quiescent().unwrap();
    tear_down_over_the_wire(&mut manager, id);
    tick_out(&mut manager);
    manager.audit_quiescent().unwrap();
    let held = |site: &Site| {
        site.ledger
            .loaded_links()
            .map(|(_, load)| load)
            .sum::<usize>()
    };
    let held: usize = manager.sites.iter().map(held).sum();
    assert_eq!(
        held, 9,
        "the three channels on trunk 1 → 2 hold three links each"
    );
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

// --- what a site's own view guarantees -----------------------------------------

/// The invariant that lets a protocol hop skip a liveness check: every
/// candidate a site derives from its own view crosses only trunks that view
/// has, however far the view lags the fabric.  Random cuts and repairs on a
/// ring and a torus, each flood delivered only in part (every link-state
/// frame lost with probability one half, so views stay stale and disagree);
/// after every step, every site's candidates for every node pair under
/// `KShortest { k: 3 }` are checked against that site's view.  Release
/// builds compile the hop handlers' `debug_assert!`s out: this is their
/// release-build guard.
#[test]
fn prop_candidates_cross_only_trunks_their_own_view_has() {
    let (mut checked, mut stale) = (0u64, 0u64);
    for seed in 0..adversarial_seeds(3) {
        for topology in [Topology::ring(6, 1), Topology::torus(3, 3, 1)] {
            let mut rng = Xoshiro256::new(0x11fe_5ca1 + seed);
            let policy = RoutePolicy::KShortest { k: 3 };
            let router = Arc::new(ShortestPathRouter::with_policy(policy));
            let mut manager =
                DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router);
            let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
            let nodes: Vec<NodeId> = topology.nodes().collect();
            for _ in 0..30 {
                let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
                if manager.topology.has_trunk(a, b) {
                    manager.handle_link_failure(a, b).unwrap();
                } else {
                    manager.handle_link_repair(a, b).unwrap();
                }
                let mut queue = VecDeque::from(manager.drain_control());
                while let Some((_, action)) = queue.pop_front() {
                    let SwitchAction::SendControl { to, frame } = action else {
                        panic!("a flood sends only link-state frames: {action:?}");
                    };
                    if rng.below(2) == 0 {
                        continue;
                    }
                    let frame = Frame::Reservation(frame);
                    let outcome = manager
                        .handle_frame_at(to, NodeId::SWITCH, &frame, SimTime::ZERO)
                        .unwrap();
                    queue.extend(outcome.emissions);
                }
                for s in 0..manager.sites.len() {
                    let view = Arc::clone(&manager.sites[s].view);
                    let truth = manager.topology.failed_trunks();
                    stale += u64::from(!view.failed_trunks().eq(truth));
                    for (&source, &destination) in nodes
                        .iter()
                        .flat_map(|src| nodes.iter().map(move |dst| (src, dst)))
                    {
                        if source == destination {
                            continue;
                        }
                        let Ok(candidates) = manager.routes.candidates(&view, source, destination)
                        else {
                            continue;
                        };
                        for link in candidates.iter().flat_map(|route| route.iter()) {
                            if let HopLink::Trunk { from, to } = *link {
                                assert!(
                                    view.has_trunk(from, to),
                                    "seed {seed}: site {s}'s candidate for {source} → \
                                     {destination} crosses {from} → {to}, which its view lacks"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        checked > 0 && stale > 0,
        "{checked} trunks checked, {stale} stale views"
    );
}

/// The stale-coordinator path, with no liveness check in the hops: trunk
/// 2 – 3 of a ring is cut and only its two ends hear of it, so switches 1
/// and 4 still route over it.  Each asks for a pair whose primary crosses
/// the dead trunk (one direction each): the request is answered, nothing is
/// ever booked on the dead trunk, and the fabric settles quiescent: the
/// geometry check at the dead trunk's ends stops the stale candidate.
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
        // Refused: the primary dies at the dead trunk's near end, and the
        // detour (candidate 1) at its far end, whose current view knows no
        // second candidate for the pair.
        assert_eq!(verdict, Some(None), "{source} → {destination} is answered");
        assert_eq!(booked_on_dead(&manager), 0);
    }
    while let Some(due) = manager.next_timeout() {
        manager.on_tick(due).unwrap();
    }
    manager.audit_quiescent().unwrap();
}
