//! Deterministic regressions for the distributed control plane: per-switch
//! managers, two-phase reservation over the wire, rollback hygiene,
//! fail-over driven by the switches adjacent to the cut, and whole-switch
//! failures.
//!
//! The randomized central-vs-distributed equivalence property (32 seeds)
//! lives in `tests/fabric_properties.rs`; these are the hand-picked
//! scenarios with exact expectations.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::ControlHarness;
use switched_rt_ethernet::core::manager::{ChannelRoute, FailoverReport};
use switched_rt_ethernet::core::{
    ChannelManager, DistributedChannelManager, FabricChannelManager, MultiHopAdmission,
    MultiHopDps, RtChannelSpec, RtNetwork, RtNetworkBuilder,
};
use switched_rt_ethernet::traffic::FabricScenario;
use switched_rt_ethernet::types::{
    ChannelId, ConnectionRequestId, Duration, HopLink, ManagerPlacement, NextHopCache, NodeId,
    Route, RoutePolicy, Router, RtResult, ShortestPathRouter, SimTime, Slots, SwitchId, Topology,
    Xoshiro256,
};

fn spec() -> RtChannelSpec {
    RtChannelSpec::paper_default()
}

fn distributed(topology: Topology) -> RtNetworkBuilder {
    RtNetwork::builder()
        .topology(topology)
        .router(ShortestPathRouter::new())
        .multihop_dps(MultiHopDps::Asymmetric)
        .distributed_control()
}

#[test]
fn distributed_control_requires_a_fabric() {
    assert!(RtNetwork::builder()
        .star(4)
        .distributed_control()
        .build()
        .is_err());
    assert!(distributed(Topology::line(3, 2)).build().is_ok());
}

#[test]
fn distributed_establishment_crosses_the_fabric_and_meets_the_bound() {
    let mut net = distributed(Topology::line(3, 2)).build().unwrap();
    // node 0 (sw0) -> node 5 (sw2): 4 link hops, coordinator sw0, probe and
    // reserve really cross both trunks.
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(5), spec())
        .unwrap()
        .expect("an empty fabric accepts the first channel");
    let route = net.manager().channel_route(tx.id).unwrap();
    assert_eq!(route.path.len(), 4);
    assert_eq!(
        route.link_deadlines.iter().map(|s| s.get()).sum::<u64>(),
        spec().deadline.get()
    );
    // The reservation protocol consumed real wire time and real hops.
    assert!(net.now() > SimTime::ZERO);
    let stats = net.simulator().stats();
    assert!(
        stats.control_frames >= 6,
        "probe/reserve/confirm legs expected, saw {} control frames",
        stats.control_frames
    );
    assert!(stats.control_hops > stats.control_frames / 2);
    // Slack is held on every hop, owned by the right switches.
    assert_eq!(net.manager().link_load(HopLink::Uplink(NodeId::new(0))), 1);
    assert_eq!(
        net.manager().link_load(HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1)
        }),
        1
    );
    assert_eq!(
        net.manager().link_load(HopLink::Downlink(NodeId::new(5))),
        1
    );

    // Traffic on the admitted channel meets the hop-aware bound.
    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), tx.id, 20, 1000, start)
        .unwrap();
    net.run_to_completion().unwrap();
    assert_eq!(net.received_messages().len(), 20 * 3);
    assert!(net.simulator().stats().all_deadlines_met());
    let bound = net.channel_deadline_bound(tx.id).unwrap();
    let worst = net.simulator().stats().channel(tx.id).unwrap().max_latency;
    assert!(worst <= bound, "worst {worst} exceeds bound {bound}");
}

#[test]
fn same_switch_channels_never_leave_the_access_switch() {
    let mut net = distributed(Topology::line(3, 2)).build().unwrap();
    // node 2 and node 3 both live on sw1: no reservation frame may cross a
    // trunk.
    let tx = net
        .establish_channel(NodeId::new(2), NodeId::new(3), spec())
        .unwrap()
        .expect("same-switch channel admitted");
    assert_eq!(net.manager().channel_route(tx.id).unwrap().path.len(), 2);
    for (a, b) in [(0u32, 1u32), (1, 2)] {
        for (f, t) in [(a, b), (b, a)] {
            assert!(
                net.simulator()
                    .stats()
                    .hop_link(HopLink::Trunk {
                        from: SwitchId::new(f),
                        to: SwitchId::new(t),
                    })
                    .is_none(),
                "trunk {f}->{t} must stay idle for a same-switch admission"
            );
        }
    }
}

/// Drive an identical request sequence through the central and the
/// distributed control planes; the admitted sets must match under
/// admission-order id remapping — routes and per-link deadline splits
/// exactly, ids via the order-preserving map — and the rejections too.
/// (Raw ids differ by construction: the distributed manager allocates from
/// per-switch blocks, the central oracle from one global sequencer.)
/// Returns how many both admitted.
fn admitted_identically_under_both_placements(
    topology: &Topology,
    router: impl Fn() -> Arc<dyn Router>,
    requests: &[(NodeId, NodeId)],
) -> usize {
    let drive = |placement: ManagerPlacement| {
        let mut net = RtNetwork::builder()
            .topology(topology.clone())
            .router_arc(router())
            .multihop_dps(MultiHopDps::Asymmetric)
            .manager_placement(placement)
            .build()
            .unwrap();
        let mut admitted = Vec::new();
        for &(src, dst) in requests {
            if let Some(tx) = net.establish_channel(src, dst, spec()).unwrap() {
                let route = net.manager().channel_route(tx.id).unwrap();
                admitted.push((tx.id, route.path.clone(), route.link_deadlines.clone()));
            }
        }
        (admitted, net.manager().channel_count())
    };
    let (central, central_count) = drive(ManagerPlacement::Central);
    let (dist, dist_count) = drive(ManagerPlacement::Distributed);
    assert_eq!(central.len(), dist.len(), "admission counts diverge");
    for (k, ((_, c_path, c_splits), (_, d_path, d_splits))) in
        central.iter().zip(dist.iter()).enumerate()
    {
        assert_eq!(c_path, d_path, "admission {k}: routes diverge");
        assert_eq!(c_splits, d_splits, "admission {k}: deadline splits diverge");
    }
    // The id remapping is a bijection: no distributed id serves two central
    // channels.
    let mapped: std::collections::BTreeSet<ChannelId> = dist.iter().map(|(id, _, _)| *id).collect();
    assert_eq!(mapped.len(), dist.len(), "distributed ids must be distinct");
    assert_eq!(central_count, dist_count);
    central.len()
}

#[test]
fn central_and_distributed_admit_the_identical_channel_set() {
    let requests: Vec<(NodeId, NodeId)> = (0..24u32)
        .map(|i| (NodeId::new(i % 4), NodeId::new(8 + (i % 8))))
        .collect();
    let admitted = admitted_identically_under_both_placements(
        &Topology::ring(4, 4),
        || Arc::new(ShortestPathRouter::new()),
        &requests,
    );
    assert!(admitted > 0, "the workload must admit something");
    assert!(
        admitted < requests.len(),
        "the workload must also reject something"
    );
}

/// The parity at scale, with rejections that roll partial reservations
/// back: 32 requests spread over the 1 024-node 8x8 torus plus 16 all
/// contending for the sw0 <-> sw1 trunk's slack, sized beyond it so the later
/// ones detour (k-shortest) or are refused.
#[test]
fn torus_1024_hot_trunk_admits_44_of_48_under_both_placements() {
    let fabric = FabricScenario::torus(8, 8, 8, 8);
    let requests: Vec<(NodeId, NodeId)> = fabric
        .cross_switch_requests(32, spec())
        .iter()
        .chain(&fabric.hot_trunk_requests(16, spec()))
        .map(|r| (r.source, r.destination))
        .collect();
    let admitted = admitted_identically_under_both_placements(
        &fabric.topology(),
        || {
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
        },
        &requests,
    );
    assert_eq!((admitted, requests.len()), (44, 48));
}

/// A router that remembers every candidate list it was asked for.
#[derive(Debug)]
struct ViewRecorder {
    inner: ShortestPathRouter,
    asked: Mutex<Vec<Asked>>,
}

/// One candidate list: the pair, the trunks the asking view held failed,
/// and the primary.
#[derive(Debug)]
struct Asked {
    pair: (NodeId, NodeId),
    failed: Vec<(SwitchId, SwitchId)>,
    primary: Route,
}

impl Router for ViewRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn validate(&self, topology: &Topology) -> RtResult<()> {
        self.inner.validate(topology)
    }
    fn route(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Route> {
        self.inner.route(t, s, d)
    }
    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        self.inner.next_hop_cache()
    }
    fn routes(&self, t: &Topology, s: NodeId, d: NodeId) -> RtResult<Vec<Route>> {
        let routes = self.inner.routes(t, s, d)?;
        self.asked.lock().unwrap().push(Asked {
            pair: (s, d),
            failed: t.failed_trunks().collect(),
            primary: routes[0].clone(),
        });
        Ok(routes)
    }
}

/// Admission against stale views: the hot trunk sw0 — sw1 is cut, and
/// requests are established while the link-state flood is still
/// propagating.  The first comes from a master on sw6 for a slave on sw1.
/// sw6 is two trunks from the cut on the ring of switches 0..8, so the
/// request reaches its coordinator over one uplink before the flood gets
/// there over two trunks: sw6 routes it in a view without the cut (the
/// recording router shows the view it asked in), and its primary, sw6 →
/// sw7 → sw0 → sw1, crosses the dead trunk, which sw0 refuses.  Then 16
/// contend for the hot trunk's detours.  Seeded, so the counts are exact;
/// after settling nothing may be left reserved.  The same requests on the
/// fabric with the flood converged first are the reference: there sw6's
/// view has the cut and its primary avoids it.  A hop accepts a carried
/// route over live trunks whatever its own view would have routed.  (The
/// delivery-order explorer in `distributed/tests.rs` races a cut against the
/// handshakes themselves.)
#[test]
fn torus_1024_admits_2_of_16_while_the_flood_propagates_and_leaks_nothing() {
    let fabric = FabricScenario::torus(8, 8, 8, 8);
    let (stale_src, stale_dst) = (fabric.master(6, 0), fabric.slave(1, 0));
    let cut = (SwitchId::new(0), SwitchId::new(1));
    let run = |converged: bool| {
        let router = Arc::new(ViewRecorder {
            inner: ShortestPathRouter::with_policy(RoutePolicy::KShortest { k: 3 }),
            asked: Mutex::new(Vec::new()),
        });
        let mut net = RtNetwork::builder()
            .topology(fabric.topology())
            .router_arc(router.clone())
            .multihop_dps(MultiHopDps::Asymmetric)
            .distributed_control()
            .build()
            .unwrap();
        // Warm channels across the doomed trunk, so the cut also walks the
        // fail-over path of the per-switch ledgers.
        for r in fabric.hot_trunk_requests(4, spec()) {
            net.establish_channel(r.source, r.destination, spec())
                .unwrap();
        }
        let report = net.fail_trunk(cut.0, cut.1).unwrap();
        assert_eq!(report.rerouted.len(), 4);
        // `fail_trunk` injects the flood without pumping it to quiescence.
        if converged {
            net.settle().unwrap();
        }
        router.asked.lock().unwrap().clear();
        let stale = net
            .establish_channel(stale_src, stale_dst, spec())
            .unwrap()
            .is_some();
        let (view_has_cut, primary_crosses) = {
            let asked = &router.asked.lock().unwrap()[0];
            assert_eq!(asked.pair, (stale_src, stale_dst), "the first question");
            let dead = HopLink::Trunk {
                from: cut.0,
                to: cut.1,
            };
            (
                asked.failed.contains(&cut),
                asked.primary.links().contains(&dead),
            )
        };
        let accepted = fabric
            .hot_trunk_requests(16, spec())
            .iter()
            .filter(|r| {
                net.establish_channel(r.source, r.destination, spec())
                    .unwrap()
                    .is_some()
            })
            .count();
        net.settle().unwrap();
        net.manager().audit_quiescent().unwrap();
        (view_has_cut, primary_crosses, stale, accepted)
    };
    assert_eq!(
        run(false),
        (false, true, true, 2),
        "mid-flood: sw6's view, its primary, its admission, of 16"
    );
    assert_eq!(
        run(true),
        (true, false, true, 2),
        "converged: sw6's view, its primary, its admission, of 16"
    );
}

/// The two worlds must also *deliver* identically: identical admission
/// means identical wire schedules, so after remapping the distributed ids
/// onto the central ones (admission order) the delivered data — receiver,
/// channel, payload length, arrival nanosecond — must match exactly (the
/// payloads are zeroed: their length is all they carry).
#[test]
fn central_and_distributed_deliver_data_byte_for_byte() {
    let drive = |placement: ManagerPlacement| {
        let mut net = RtNetwork::builder()
            .topology(Topology::ring(4, 2))
            .router(ShortestPathRouter::new())
            .multihop_dps(MultiHopDps::Symmetric)
            .manager_placement(placement)
            .build()
            .unwrap();
        let mut admitted = Vec::new();
        for (src, dst) in [(0u32, 7u32), (1, 4), (2, 5)] {
            if let Some(tx) = net
                .establish_channel(NodeId::new(src), NodeId::new(dst), spec())
                .unwrap()
            {
                admitted.push((NodeId::new(src), tx.id));
            }
        }
        // A fixed absolute timeline, safely after both control planes are
        // done establishing, so the data world is identical by construction.
        let start = SimTime::from_millis(50);
        assert!(net.now() < start);
        for &(src, id) in &admitted {
            net.send_periodic(src, id, 10, 700, start).unwrap();
        }
        net.run_to_completion().unwrap();
        let deliveries = net
            .received_messages()
            .iter()
            .map(|m| {
                (
                    m.receiver,
                    m.channel,
                    m.payload_len,
                    m.delivered_at.as_nanos(),
                    m.missed_deadline,
                )
            })
            .collect::<Vec<_>>();
        let ids: Vec<ChannelId> = admitted.iter().map(|&(_, id)| id).collect();
        (ids, deliveries)
    };
    let (central_ids, central) = drive(ManagerPlacement::Central);
    let (dist_ids, dist) = drive(ManagerPlacement::Distributed);
    assert!(!central.is_empty());
    assert_eq!(central_ids.len(), dist_ids.len(), "admissions diverge");
    // Admission-order id remapping: distributed id → central id.
    let remap: BTreeMap<ChannelId, ChannelId> = dist_ids.iter().copied().zip(central_ids).collect();
    let dist_remapped: Vec<_> = dist
        .into_iter()
        .map(|(rx, ch, len, at, missed)| (rx, remap[&ch], len, at, missed))
        .collect();
    assert_eq!(
        central, dist_remapped,
        "data delivery must be byte-for-byte identical under id remapping"
    );
}

/// A failed reservation must leave no slack behind — on any switch of the
/// attempted route.
#[test]
fn rejected_requests_leak_no_slack_anywhere() {
    let mut net = distributed(Topology::line(3, 1)).build().unwrap();
    // Saturate the two trunks: every channel crosses sw0 -> sw1 -> sw2
    // (4 hops, 10 slots per hop symmetric-ish under asymmetric first fit).
    let mut accepted = Vec::new();
    for _ in 0..12 {
        if let Some(tx) = net
            .establish_channel(NodeId::new(0), NodeId::new(2), spec())
            .unwrap()
        {
            accepted.push(tx.id);
        }
    }
    assert!(!accepted.is_empty(), "an empty fabric admits something");
    assert!(accepted.len() < 12, "the trunks must saturate");
    // Link loads equal the accepted channel count exactly: the rejected
    // attempts' probes and reserves all rolled back.
    for link in [
        HopLink::Uplink(NodeId::new(0)),
        HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        },
        HopLink::Trunk {
            from: SwitchId::new(1),
            to: SwitchId::new(2),
        },
        HopLink::Downlink(NodeId::new(2)),
    ] {
        assert_eq!(
            net.manager().link_load(link),
            accepted.len(),
            "leaked reservation on {link}"
        );
    }
}

#[test]
fn destination_rejection_rolls_the_whole_path_back() {
    let mut net = distributed(Topology::line(3, 2))
        .max_incoming_channels(0)
        .build()
        .unwrap();
    let outcome = net
        .establish_channel(NodeId::new(0), NodeId::new(5), spec())
        .unwrap();
    assert!(outcome.is_none(), "the destination refuses every channel");
    assert_eq!(net.manager().channel_count(), 0);
    assert_eq!(net.manager().pending_count(), 0);
    for link in [
        HopLink::Uplink(NodeId::new(0)),
        HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        },
        HopLink::Trunk {
            from: SwitchId::new(1),
            to: SwitchId::new(2),
        },
        HopLink::Downlink(NodeId::new(5)),
    ] {
        assert_eq!(net.manager().link_load(link), 0, "leak on {link}");
    }
}

#[test]
fn teardown_releases_every_hop_over_the_wire() {
    let mut net = distributed(Topology::line(3, 2)).build().unwrap();
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(5), spec())
        .unwrap()
        .unwrap();
    let trunk = HopLink::Trunk {
        from: SwitchId::new(1),
        to: SwitchId::new(2),
    };
    assert_eq!(net.manager().link_load(trunk), 1);
    net.teardown_channel(NodeId::new(0), tx.id).unwrap();
    assert_eq!(net.manager().channel_count(), 0);
    assert_eq!(
        net.manager().link_load(trunk),
        0,
        "release pass must walk the route"
    );
    assert_eq!(net.layer(NodeId::new(5)).unwrap().rx_channels().count(), 0);
}

/// The acceptance scenario: a trunk cut adjacent to the *former* managing
/// switch (sw0 hosted the central manager; under distributed control it is
/// just another switch).  The fabric must survive with re-routes and zero
/// deadline misses.
#[test]
fn trunk_cut_adjacent_to_the_former_manager_is_survived() {
    let mut net = RtNetwork::builder()
        .topology(Topology::ring(4, 1))
        .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 3,
        }))
        .multihop_dps(MultiHopDps::Symmetric)
        .distributed_control()
        .build()
        .unwrap();
    // node 0 (sw0) -> node 3 (sw3): 3 hops over the closing trunk, which is
    // adjacent to sw0 — the switch that used to host the whole control
    // plane.
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(3), spec())
        .unwrap()
        .unwrap();
    assert_eq!(net.manager().channel_route(tx.id).unwrap().path.len(), 3);

    let report = net.fail_trunk(SwitchId::new(3), SwitchId::new(0)).unwrap();
    assert_eq!(report.rerouted.len(), 1);
    assert!(report.dropped.is_empty());
    let route = net.manager().channel_route(tx.id).unwrap();
    assert_eq!(route.path.len(), 5, "re-route goes the long way around");

    // Establishment still works after the cut — through the degraded
    // fabric, coordinated by sw1 (also adjacent to nothing special).
    let tx2 = net
        .establish_channel(NodeId::new(1), NodeId::new(2), spec())
        .unwrap()
        .expect("the degraded ring still admits");

    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), tx.id, 15, 900, start)
        .unwrap();
    net.send_periodic(NodeId::new(1), tx2.id, 15, 900, start)
        .unwrap();
    net.run_to_completion().unwrap();
    assert_eq!(net.received_messages().len(), 2 * 15 * 3);
    assert!(net.simulator().stats().all_deadlines_met(), "0 misses");
    let bound = net.channel_deadline_bound(tx.id).unwrap();
    let worst = net.simulator().stats().channel(tx.id).unwrap().max_latency;
    assert!(worst <= bound);
}

/// Per-site views adopt the incremental rebuild path: a link-state flood
/// mutates each site's private view by exactly one trunk, so the shared
/// router cache must repair the previous table from the cut delta instead
/// of rebuilding every column from scratch.
#[test]
fn link_state_floods_trigger_incremental_rebuilds() {
    let mut net = distributed(Topology::torus(3, 3, 1)).build().unwrap();
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(8), spec())
        .unwrap()
        .unwrap();

    let healthy = net.router().next_hop_cache().unwrap().stats();
    assert_eq!(healthy.incremental_rebuilds, 0);
    assert!(healthy.full_rebuilds >= 1, "healthy build is a full build");

    let report = net.fail_trunk(SwitchId::new(0), SwitchId::new(1)).unwrap();
    assert!(report.dropped.is_empty());

    // Re-admission routes against the flooded per-site views, whose
    // fingerprints differ from the healthy base by one failed trunk.
    let tx2 = net
        .establish_channel(NodeId::new(1), NodeId::new(7), spec())
        .unwrap()
        .expect("the degraded torus still admits");

    let degraded = net.router().next_hop_cache().unwrap().stats();
    assert!(
        degraded.incremental_rebuilds >= 1,
        "the single-trunk cut must take the incremental path, got {degraded:?}"
    );
    assert_eq!(
        degraded.full_rebuilds, healthy.full_rebuilds,
        "no view may fall back to a from-scratch rebuild"
    );

    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), tx.id, 10, 900, start)
        .unwrap();
    net.send_periodic(NodeId::new(1), tx2.id, 10, 900, start)
        .unwrap();
    net.run_to_completion().unwrap();
    assert!(net.simulator().stats().all_deadlines_met());
}

// --- whole-switch failures (satellite: Topology::fail_switch) -------------

#[test]
fn topology_fail_switch_is_atomic() {
    let mut t = Topology::ring(4, 1);
    let cut = t.fail_switch(SwitchId::new(2)).unwrap();
    assert_eq!(
        cut,
        vec![
            (SwitchId::new(2), SwitchId::new(1)),
            (SwitchId::new(2), SwitchId::new(3)),
        ]
    );
    assert_eq!(t.failed_trunks().count(), 2);
    assert!(!t.is_connected(), "sw2 is now isolated");
    // Unknown switches and already-isolated switches are errors.
    assert!(t.fail_switch(SwitchId::new(9)).is_err());
    assert!(t.fail_switch(SwitchId::new(2)).is_err());
    // Repairs splice trunks back individually.
    t.repair_trunk(SwitchId::new(2), SwitchId::new(1)).unwrap();
    t.repair_trunk(SwitchId::new(2), SwitchId::new(3)).unwrap();
    assert!(t.is_connected());
}

#[test]
fn ring_switch_failure_reroutes_through_traffic_and_drops_local_endpoints() {
    // Ring of 4, 2 nodes per switch, central manager with k-shortest
    // fallback: a channel *through* sw1 must re-route the long way, a
    // channel *terminating* at sw1 keeps only its access links (which never
    // fail) — but sw1's nodes lose all cross-switch connectivity, so such
    // channels are dropped.
    let mut net = RtNetwork::builder()
        .topology(Topology::ring(4, 2))
        .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 4,
        }))
        .multihop_dps(MultiHopDps::Symmetric)
        .build()
        .unwrap();
    // Through-channel: node 0 (sw0) -> node 4 (sw2), shortest via sw1.
    let through = net
        .establish_channel(NodeId::new(0), NodeId::new(4), spec())
        .unwrap()
        .unwrap();
    assert!(net
        .manager()
        .channel_route(through.id)
        .unwrap()
        .path
        .contains(&HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1)
        }));
    // Terminating channel: node 0 (sw0) -> node 2 (sw1).
    let terminating = net
        .establish_channel(NodeId::new(0), NodeId::new(2), spec())
        .unwrap()
        .unwrap();
    // Local channel on sw1: unaffected (access links never fail).
    let local = net
        .establish_channel(NodeId::new(2), NodeId::new(3), spec())
        .unwrap()
        .unwrap();

    let report = net.fail_switch(SwitchId::new(1)).unwrap();
    assert_eq!(report.link, (SwitchId::new(1), SwitchId::new(1)));
    assert_eq!(report.rerouted.len(), 1);
    assert_eq!(report.rerouted[0].id, through.id);
    assert_eq!(report.rerouted[0].path.len(), 4, "0 -> 3 -> 2 detour");
    assert_eq!(report.dropped.len(), 1);
    assert_eq!(report.dropped[0].id, terminating.id);
    assert_eq!(report.unaffected, 1);

    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), through.id, 10, 800, start)
        .unwrap();
    net.send_periodic(NodeId::new(2), local.id, 10, 800, start)
        .unwrap();
    net.run_to_completion().unwrap();
    assert_eq!(net.received_messages().len(), 2 * 10 * 3);
    assert!(net.simulator().stats().all_deadlines_met());
    // The dropped channel is gone end to end.
    assert!(net
        .send_periodic(NodeId::new(0), terminating.id, 1, 100, net.now())
        .is_err());
}

#[test]
fn torus_switch_failure_reroutes_everything_with_zero_misses() {
    // 3x3 torus, 1 node per switch: fail the centre switch; channels
    // crossing it re-route over the wrap-around trunks (k-shortest).
    // Distributed control plane: the fail-over is driven by the four
    // adjacent switches' ledgers.
    let mut net = RtNetwork::builder()
        .topology(Topology::torus(3, 3, 1))
        .router(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 6,
        }))
        .multihop_dps(MultiHopDps::Symmetric)
        .distributed_control()
        .build()
        .unwrap();
    // node 0 (sw0) -> node 8 (sw8, the far corner): the deterministic
    // shortest path runs through sw2 (BFS tie-break), which is about to
    // die.
    let spec60 = RtChannelSpec::new(Slots::new(100), Slots::new(3), Slots::new(60)).unwrap();
    let tx = net
        .establish_channel(NodeId::new(0), NodeId::new(8), spec60)
        .unwrap()
        .unwrap();
    let before = net.manager().channel_route(tx.id).unwrap();
    assert!(before.path.iter().any(|l| matches!(
        l,
        HopLink::Trunk { from, to } if from == &SwitchId::new(2) || to == &SwitchId::new(2)
    )));

    let report = net.fail_switch(SwitchId::new(2)).unwrap();
    assert_eq!(report.rerouted.len(), 1);
    assert!(report.dropped.is_empty(), "the torus is redundant");
    let after = net.manager().channel_route(tx.id).unwrap();
    assert!(after.path.iter().all(|l| !matches!(
        l,
        HopLink::Trunk { from, to } if from == &SwitchId::new(2) || to == &SwitchId::new(2)
    )));

    let start = net.now() + Duration::from_millis(1);
    net.send_periodic(NodeId::new(0), tx.id, 12, 900, start)
        .unwrap();
    net.run_to_completion().unwrap();
    assert_eq!(net.received_messages().len(), 12 * 3);
    assert!(net.simulator().stats().all_deadlines_met(), "0 misses");
}

// --- reservation leases (tentpole: honest fault survival) -----------------

fn direct(topology: &Topology) -> DistributedChannelManager {
    DistributedChannelManager::new(
        topology.clone(),
        MultiHopDps::Asymmetric,
        Arc::new(ShortestPathRouter::new()),
    )
}

/// The four links of the line(3,1) route node 0 → node 2.
fn line_route_links() -> [HopLink; 4] {
    [
        HopLink::Uplink(NodeId::new(0)),
        HopLink::Trunk {
            from: SwitchId::new(0),
            to: SwitchId::new(1),
        },
        HopLink::Trunk {
            from: SwitchId::new(1),
            to: SwitchId::new(2),
        },
        HopLink::Downlink(NodeId::new(2)),
    ]
}

/// Drive a line(3,1) handshake up to the moment every hop holds a leased
/// reservation and the coordinator has forwarded the request to the
/// destination — the exact gap between Reserve and Confirm.
fn strand_between_reserve_and_confirm(
    mgr: &mut DistributedChannelManager,
    h: &mut ControlHarness,
    now: SimTime,
) {
    h.submit(
        NodeId::new(0),
        NodeId::new(2),
        spec(),
        ConnectionRequestId::new(1),
    );
    while h.awaiting_answer() == 0 {
        assert!(
            h.step(mgr, now).unwrap(),
            "handshake stalled before the reserve pass completed"
        );
    }
    for link in line_route_links() {
        assert_eq!(mgr.link_load(link), 1, "reserve must lease {link}");
    }
}

/// The stranded-reservation regression: a trunk dies between the Reserve
/// pass and the Confirm walk, so the destination's accept can never reach
/// the coordinator.  The partial reservations must *expire* — every ledger
/// returns to its pre-probe state and the requester hears `Rejected` — not
/// leak forever.
#[test]
fn stranded_reservation_expires_and_returns_the_ledger_to_pre_probe_state() {
    let topology = Topology::line(3, 1);
    let mut mgr = direct(&topology);
    let mut h = ControlHarness::new(&topology);
    let now = SimTime::from_millis(1);
    strand_between_reserve_and_confirm(&mut mgr, &mut h, now);

    // The cut lands mid-handshake; the stranded response is never sent.
    mgr.handle_link_failure(SwitchId::new(1), SwitchId::new(2))
        .unwrap();
    h.flood(&mut mgr);
    let settled = h.settle(&mut mgr, now).unwrap();

    assert!(
        settled >= now.saturating_add(mgr.lease_duration()),
        "settling must cross the lease horizon"
    );
    assert_eq!(h.verdicts, vec![None], "the requester must hear Rejected");
    for link in line_route_links() {
        assert_eq!(mgr.link_load(link), 0, "stranded slack leaked on {link}");
    }
    assert_eq!(mgr.channel_count(), 0);
    assert_eq!(mgr.pending_count(), 0);
    assert!(mgr.lease_expired_count() > 0, "expiry must be observable");
    mgr.audit_quiescent().unwrap();
}

/// Lease edge case: a sweep one nanosecond before the deadline reclaims
/// nothing; the sweep at *exactly* the deadline reclaims everything.
#[test]
fn lease_expiry_lands_exactly_on_the_sweep_tick() {
    let topology = Topology::line(3, 1);
    let mut mgr = direct(&topology);
    let mut h = ControlHarness::new(&topology);
    let now = SimTime::from_millis(1);
    strand_between_reserve_and_confirm(&mut mgr, &mut h, now);

    let deadline = mgr.next_timeout().expect("leases are pending");
    assert_eq!(deadline, now.saturating_add(mgr.lease_duration()));
    h.tick(&mut mgr, SimTime::from_nanos(deadline.as_nanos() - 1))
        .unwrap();
    assert_eq!(
        mgr.lease_expired_count(),
        0,
        "early sweep must reclaim nothing"
    );
    assert!(h.verdicts.is_empty());
    for link in line_route_links() {
        assert_eq!(mgr.link_load(link), 1);
    }
    assert_eq!(mgr.next_timeout(), Some(deadline));

    h.tick(&mut mgr, deadline).unwrap();
    assert_eq!(h.verdicts, vec![None]);
    for link in line_route_links() {
        assert_eq!(mgr.link_load(link), 0);
    }
    assert_eq!(mgr.next_timeout(), None);
    mgr.audit_quiescent().unwrap();
}

/// Lease edge case: a Confirm that lands one sweep after its lease expired
/// must be answered with `ReserveFailed(LeaseExpired)` and must *not*
/// resurrect the torn-down admission.
#[test]
fn confirm_arriving_after_lease_expiry_is_rejected_not_resurrected() {
    let topology = Topology::line(3, 1);
    let mut mgr = direct(&topology);
    let mut h = ControlHarness::new(&topology);
    let now = SimTime::from_millis(1);
    strand_between_reserve_and_confirm(&mut mgr, &mut h, now);

    // The destination accepts and its access switch starts the Confirm
    // walk — but that first Confirm frame stays in flight while the lease
    // horizon passes.
    assert!(h.answer(true));
    assert!(h.step(&mut mgr, now).unwrap());
    assert!(h.queued() > 0, "a Confirm must be in flight");
    let deadline = mgr.next_timeout().expect("leases are pending");
    // The sweep fires first, then the stale Confirm (and every follow-up)
    // is delivered at the same late instant.
    h.tick(&mut mgr, deadline).unwrap();

    assert_eq!(h.verdicts, vec![None], "the admission must not resurrect");
    assert_eq!(mgr.channel_count(), 0);
    for link in line_route_links() {
        assert_eq!(mgr.link_load(link), 0, "late Confirm re-leaked {link}");
    }
    mgr.audit_quiescent().unwrap();
}

/// Lease edge case: a trunk repair — with its re-optimisation pass and
/// link-state floods — racing a still-in-flight destination-reject
/// Rollback must leave the books exact: the committed channel intact, the
/// rejection delivered, zero slack leaked.
#[test]
fn repair_racing_a_pending_rollback_leaks_nothing() {
    let topology = Topology::ring(4, 1);
    let mut mgr = DistributedChannelManager::new(
        topology.clone(),
        MultiHopDps::Symmetric,
        Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
            k: 3,
        })),
    );
    let mut h = ControlHarness::new(&topology);
    let now = SimTime::from_millis(1);

    // A committed channel node 0 (sw0) → node 1 (sw1) keeps real slack on
    // the books while the race runs.
    h.submit(
        NodeId::new(0),
        NodeId::new(1),
        spec(),
        ConnectionRequestId::new(1),
    );
    while h.awaiting_answer() == 0 {
        assert!(h.step(&mut mgr, now).unwrap());
    }
    assert!(h.answer(true));
    h.drain(&mut mgr, now).unwrap();
    assert_eq!(h.verdicts.len(), 1);
    assert!(h.verdicts[0].is_some(), "the first channel must commit");

    // Second request node 0 → node 3 (sw3); the destination refuses, so a
    // descending Rollback goes in flight toward the coordinator.
    h.submit(
        NodeId::new(0),
        NodeId::new(3),
        spec(),
        ConnectionRequestId::new(2),
    );
    while h.awaiting_answer() == 0 {
        assert!(h.step(&mut mgr, now).unwrap());
    }
    assert!(h.answer(false));
    assert!(h.step(&mut mgr, now).unwrap());
    assert!(h.queued() > 0, "a Rollback must be in flight");

    // An unrelated trunk dies and is spliced back while the Rollback is
    // pending: repair re-optimisation and link-state floods interleave
    // with it on the wire.
    mgr.handle_link_failure(SwitchId::new(1), SwitchId::new(2))
        .unwrap();
    h.flood(&mut mgr);
    mgr.handle_link_repair(SwitchId::new(1), SwitchId::new(2))
        .unwrap();
    h.flood(&mut mgr);
    h.settle(&mut mgr, now).unwrap();

    assert_eq!(h.verdicts.len(), 2);
    assert_eq!(h.verdicts[1], None, "the rejection must land");
    assert_eq!(mgr.channel_count(), 1, "the committed channel must survive");
    assert_eq!(mgr.rejected_count(), 1);
    mgr.audit_quiescent().unwrap();
}

#[test]
fn k_shortest_orders_candidates_by_cost() {
    // Square: sw0-sw1-sw2 vs sw0-sw3-sw2, two hops each, plus sw1-sw4-sw3,
    // which makes two four-hop paths.  A path costs its hop count, and
    // equal costs order by switch id: sw0-sw1-sw4-sw3-sw2 sorts before
    // sw0-sw3-sw2 by id but comes after it by length.
    let mut t = Topology::new();
    for s in 0..5 {
        t.add_switch(SwitchId::new(s));
    }
    for (a, b) in [(0, 1), (1, 2), (0, 3), (3, 2), (1, 4), (4, 3)] {
        t.add_trunk(SwitchId::new(a), SwitchId::new(b)).unwrap();
    }
    t.attach_node(NodeId::new(0), SwitchId::new(0)).unwrap();
    t.attach_node(NodeId::new(1), SwitchId::new(2)).unwrap();
    let router = ShortestPathRouter::with_policy(RoutePolicy::KShortest { k: 5 });
    let routes = router.routes(&t, NodeId::new(0), NodeId::new(1)).unwrap();
    let switches = |route: &Route| -> Vec<u32> {
        let ends = route.links().iter().filter_map(|l| match l {
            HopLink::Trunk { to, .. } => Some(to.get()),
            _ => None,
        });
        std::iter::once(0).chain(ends).collect()
    };
    let paths: Vec<Vec<u32>> = routes.iter().map(switches).collect();
    assert_eq!(
        paths,
        [
            vec![0, 1, 2],
            vec![0, 3, 2],
            vec![0, 1, 4, 3, 2],
            vec![0, 3, 4, 1, 2],
        ],
        "the lower-id two-hop branch is the primary; four loop-free paths exist"
    );
}

// --- the fault path, distributed against central ---------------------------

/// One fault notification of the walk below.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Cut(SwitchId, SwitchId),
    Repair(SwitchId, SwitchId),
    Kill(SwitchId),
}

/// Notify `manager` of `fault` and let the link-state flood it sets off
/// converge, so that the next request meets sites that agree on the fabric.
fn notify<M: ChannelManager>(
    manager: &mut M,
    harness: &mut ControlHarness,
    fault: Fault,
) -> FailoverReport {
    let report = match fault {
        Fault::Cut(a, b) => manager.handle_link_failure(a, b),
        Fault::Repair(a, b) => manager.handle_link_repair(a, b),
        Fault::Kill(switch) => manager.handle_switch_failure(switch),
    }
    .expect("the script names trunks in the state it left them in");
    harness.flood(manager);
    harness.drain(manager, SimTime::ZERO).unwrap();
    report
}

/// Establish a channel over the control protocol, the destination accepting.
fn establish<M: ChannelManager>(
    manager: &mut M,
    harness: &mut ControlHarness,
    (source, destination): (NodeId, NodeId),
    spec: RtChannelSpec,
) -> Option<ChannelId> {
    harness.submit(source, destination, spec, ConnectionRequestId::new(0));
    harness.drain(manager, SimTime::ZERO).unwrap();
    while harness.answer(true) {
        harness.drain(manager, SimTime::ZERO).unwrap();
    }
    harness.verdicts.pop().expect("every request is answered")
}

/// Seeds of the walk (the `RT_ADVERSARIAL_SEEDS` matrix the CI soaks crank
/// up), default 4: twelve walks, a good second of a debug build.
fn fault_walk_seeds() -> u64 {
    std::env::var("RT_ADVERSARIAL_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The walk of `rt-core`'s `prop_fault_reports_match_the_full_scan_oracles`
/// — 400 steps of request / teardown / cut / repair / flap / switch kill on
/// `torus(3, 3, 4)`, up to three trunks down at once, repairs in any order —
/// taken by a central and a distributed manager side by side.  That property
/// holds the one fault engine to its full-scan oracles, on each manager by
/// itself; this one holds the two managers' reports to each other: ids
/// paired in admission order, then the same channels re-routed onto the same
/// routes with the same deadline splits, the same ones dropped, the same
/// count left alone.  Both repairs are the engine's, so what this compares is
/// what the managers answer it with — whose book a link's reservations are
/// in, under which key, released how — through the public interface and the
/// wire protocol.
///
/// The generator is written out twice because the two tests sit on either
/// side of the crate boundary and sharing it would take a `pub` item.  The
/// arms of `match rng.below(40)` — their weights, the cap of three trunks
/// down, the flap's cut-repair-cut-repair, the kill only on a healthy
/// fabric, the spec ranges, the rng seed — are the unit walk's and **must be
/// changed in both places together**.  What this walk does differently, and
/// so does not cover of the unit one:
///
/// * every request comes from a node of one switch per seed (`seed % 9`),
///   so that the distributed manager's per-coordinator id blocks order the
///   channels as the central sequencer does and both re-admit in one order;
///   the unit walk draws the source from the whole fabric;
/// * the destination is uniform over the fabric; the unit walk sends half
///   of its requests towards the first switch to force fallback admissions
///   (here one switch's uplinks and trunks fill anyway);
/// * a pair the fabric cannot join is skipped; the unit walk asks and
///   compares the two errors;
/// * there is no per-step ledger audit against the channel table: the
///   distributed ledgers are checked once, by `audit_quiescent` at the end.
fn fault_walk(seed: u64, router: impl Fn() -> Arc<dyn Router>) -> (usize, usize, usize) {
    let topology = Topology::torus(3, 3, 4);
    let nodes: Vec<NodeId> = topology.nodes().collect();
    let trunks: Vec<(SwitchId, SwitchId)> = topology.trunks().collect();
    let coordinator = SwitchId::new((seed % 9) as u32);
    let sources: Vec<NodeId> = topology.nodes_of(coordinator).collect();
    let mut rng = Xoshiro256::new(0x1ed6_e400 + seed);
    let mut central = FabricChannelManager::new(MultiHopAdmission::with_router(
        topology.clone(),
        MultiHopDps::Asymmetric,
        router(),
    ));
    let mut distributed =
        DistributedChannelManager::new(topology.clone(), MultiHopDps::Asymmetric, router());
    let (mut central_wire, mut distributed_wire) = (
        ControlHarness::new(&topology),
        ControlHarness::new(&topology),
    );
    // Live channels in admission order: (central id, distributed id).
    let mut live: Vec<(ChannelId, ChannelId)> = Vec::new();
    let (mut moved_by_cuts, mut moved_by_repairs, mut dropped) = (0, 0, 0);
    let routable = ShortestPathRouter::new();

    for step in 0..400 {
        let fabric = central.admission().topology();
        let failed: Vec<_> = fabric.failed_trunks().collect();
        let healthy = |rng: &mut Xoshiro256| loop {
            let (a, b) = trunks[rng.below(trunks.len() as u64) as usize];
            if fabric.has_trunk(a, b) {
                return (a, b);
            }
        };
        let mut faults: Vec<Fault> = Vec::new();
        match rng.below(40) {
            0..=11 if !live.is_empty() => {
                let (c, d) = live.remove(rng.below(live.len() as u64) as usize);
                central.handle_teardown(c).unwrap();
                ChannelManager::handle_teardown(&mut distributed, d).unwrap();
            }
            12..=14 if failed.len() < 3 => {
                let (a, b) = healthy(&mut rng);
                faults.push(Fault::Cut(a, b));
            }
            12..=16 if !failed.is_empty() => {
                let (a, b) = failed[rng.below(failed.len() as u64) as usize];
                faults.push(Fault::Repair(a, b));
            }
            17 => {
                let (a, b) = healthy(&mut rng);
                let flap = [Fault::Cut(a, b), Fault::Repair(b, a)];
                faults.extend(flap.iter().chain(&flap));
            }
            18 | 19 if failed.is_empty() => {
                faults.push(Fault::Kill(SwitchId::new(rng.below(9) as u32)));
            }
            _ => {
                let source = sources[rng.below(sources.len() as u64) as usize];
                let destination = nodes[rng.below(nodes.len() as u64) as usize];
                let spec = RtChannelSpec::new(
                    Slots::new(rng.range_inclusive(50, 400)),
                    Slots::new(rng.range_inclusive(1, 6)),
                    Slots::new(rng.range_inclusive(30, 80)),
                )
                .unwrap();
                // Pairs the router refuses are left out: one node twice,
                // and a pair the fabric cannot join right now (a killed
                // switch not yet spliced back), which is an error to one
                // manager and a refusal to the other: not what this walk
                // compares.
                if routable.route(fabric, source, destination).is_ok() {
                    let pair = (source, destination);
                    let c = establish(&mut central, &mut central_wire, pair, spec);
                    let d = establish(&mut distributed, &mut distributed_wire, pair, spec);
                    assert_eq!(
                        c.is_some(),
                        d.is_some(),
                        "seed {seed} step {step}: verdicts"
                    );
                    live.extend(c.zip(d));
                }
            }
        }
        for fault in faults {
            let what = format!("seed {seed} step {step} {fault:?}");
            let expected = notify(&mut central, &mut central_wire, fault);
            let report = notify(&mut distributed, &mut distributed_wire, fault);
            // The distributed report in the central manager's ids.
            let in_central_ids = |routes: &[ChannelRoute]| -> Vec<ChannelRoute> {
                let mut routes: Vec<ChannelRoute> = routes
                    .iter()
                    .map(|route| ChannelRoute {
                        id: live.iter().find(|(_, d)| *d == route.id).expect(&what).0,
                        ..route.clone()
                    })
                    .collect();
                routes.sort_by_key(|route| route.id);
                routes
            };
            assert_eq!(report.link, expected.link, "{what}");
            assert_eq!(
                in_central_ids(&report.rerouted),
                expected.rerouted,
                "{what}: rerouted"
            );
            assert_eq!(
                in_central_ids(&report.dropped),
                expected.dropped,
                "{what}: dropped"
            );
            assert_eq!(report.unaffected, expected.unaffected, "{what}: unaffected");
            live.retain(|(c, _)| !expected.dropped.iter().any(|gone| gone.id == *c));
            dropped += expected.dropped.len();
            match fault {
                Fault::Repair(..) => moved_by_repairs += expected.rerouted.len(),
                _ => moved_by_cuts += expected.rerouted.len(),
            }
        }
        // The two tables hold the same channels on the same routes.
        assert_eq!(
            central.channel_count(),
            live.len(),
            "seed {seed} step {step}"
        );
        assert_eq!(
            distributed.channel_count(),
            live.len(),
            "seed {seed} step {step}"
        );
        for &(c, d) in &live {
            let (ours, theirs) = (central.channel_route(c), distributed.channel_route(d));
            let theirs = theirs.map(|route| ChannelRoute { id: c, ..route });
            assert_eq!(ours, theirs, "seed {seed} step {step}: channel {c}");
        }
    }
    distributed_wire
        .settle(&mut distributed, SimTime::ZERO)
        .unwrap();
    distributed.audit_quiescent().unwrap();
    (moved_by_cuts, moved_by_repairs, dropped)
}

#[test]
fn distributed_fault_reports_match_the_central_ones() {
    type MakeRouter = fn() -> Arc<dyn Router>;
    let policies: [(&str, MakeRouter); 3] = [
        ("shortest-path", || Arc::new(ShortestPathRouter::new())),
        ("k-shortest", || {
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::KShortest {
                k: 3,
            }))
        }),
        ("ecmp", || {
            Arc::new(ShortestPathRouter::with_policy(RoutePolicy::Ecmp {
                seed: 0xec3f,
            }))
        }),
    ];
    let seeds = fault_walk_seeds();
    for (policy, router) in policies {
        let (mut cuts, mut repairs, mut dropped) = (0, 0, 0);
        // The walks are independent: the odd seeds on a thread of their own.
        let walks = std::thread::scope(|scope| {
            let walk = |seed| fault_walk(seed, router);
            let odd = scope.spawn(move || (1..seeds).step_by(2).map(walk).collect::<Vec<_>>());
            let mut walks: Vec<_> = (0..seeds).step_by(2).map(walk).collect();
            walks.extend(odd.join().expect("every walk's checks pass"));
            walks
        });
        for (by_cuts, by_repairs, gone) in walks {
            cuts += by_cuts;
            repairs += by_repairs;
            dropped += gone;
        }
        assert!(
            cuts as u64 > 10 * seeds && repairs as u64 > 10 * seeds,
            "{policy}: {cuts} moved by cuts, {repairs} by repairs, {dropped} dropped"
        );
    }
}
