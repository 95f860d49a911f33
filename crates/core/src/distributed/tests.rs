//! Tests that have to see every site's ledger, which no public accessor
//! shows: what the manager-level releases leave behind, site by site.

use std::collections::VecDeque;

use rt_frames::codec::TeardownFrame;
use rt_types::rng::Xoshiro256;
use rt_types::ShortestPathRouter;

use super::*;

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

/// Every site holds exactly what the admitted channels' paths put on the
/// links it owns — nothing on a link a channel has left, nothing at a site
/// that owns none of its links — and no site keeps a lease for a key in
/// `gone`.
fn assert_sites_match_channels(manager: &DistributedChannelManager, gone: &[ReservationKey]) {
    let mut expected: BTreeMap<(SwitchId, HopLink), Vec<ReservationKey>> = BTreeMap::new();
    for channel in manager.registry.values() {
        for link in channel.path.iter() {
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
                let source = manager.registry[&id.get()].source;
                let access = topology.switch_of(source).unwrap();
                let frame = Frame::Teardown(TeardownFrame { rt_channel_id: id });
                pump(&mut manager, (access, source, frame));
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
