//! Tests that have to see every site's ledger, which no public accessor
//! shows: what the manager-level releases leave behind, site by site.

use std::collections::VecDeque;

use rt_frames::codec::TeardownFrame;
use rt_types::rng::Xoshiro256;
use rt_types::ShortestPathRouter;

use super::*;
use crate::fault::tests::{seen_on_primary, CountingRouter, Fault, Walked};

/// Deliver `first` and everything it sets off, switch to switch, at time
/// zero; destinations accept.  Returns the verdict a requester heard, if one
/// was sent.
fn pump(
    manager: &mut DistributedChannelManager,
    first: (SwitchId, NodeId, Frame),
) -> Option<Option<ChannelId>> {
    let mut queue = VecDeque::from([first]);
    let mut verdict = None;
    while let Some((at, from, frame)) = queue.pop_front() {
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
            let lease = site.ledger.lease_of(*key);
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
            .filter(|site| site.ledger.next_expiry().is_some())
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
