//! Integration tests for the mesh redesign's acceptance bar: a cyclic
//! topology built through `RtNetworkBuilder` admits channels via
//! `ShortestPathRouter`, every measured worst-case delay on the simulated
//! wire stays within the hop-aware bound `d·slot + T_latency(h)` of the
//! *selected* route, and `RoutePolicy::Ecmp` is deterministic for a fixed
//! seed.

use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::traffic::FabricScenario;
use switched_rt_ethernet::types::{
    Duration, HopLink, NodeId, Route, RoutePolicy, ShortestPathRouter, Topology,
};

/// Build-establish-drive-validate over a fabric; returns the routes taken.
fn drive_and_validate(
    mut net: RtNetwork,
    requests: &[(NodeId, NodeId)],
    messages: u64,
) -> Vec<Route> {
    let spec = RtChannelSpec::paper_default();
    let mut established = Vec::new();
    for &(source, destination) in requests {
        if let Some(tx) = net.establish_channel(source, destination, spec).unwrap() {
            established.push((source, tx));
        }
    }
    assert!(!established.is_empty(), "no channel admitted");
    let start = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        net.send_periodic(*source, tx.id, messages, 1200, start)
            .unwrap();
    }
    net.run_to_completion().unwrap();

    let stats = net.simulator().stats();
    assert!(stats.rt_delivered > 0);
    assert_eq!(
        stats.total_deadline_misses, 0,
        "admitted traffic missed deadlines"
    );
    let mut routes = Vec::new();
    for (_, tx) in &established {
        let route = net.manager().channel_route(tx.id).expect("channel known");
        let bound = net.channel_deadline_bound(tx.id).expect("bound");
        let measured = stats.channel(tx.id).expect("frames delivered").max_latency;
        assert!(
            measured <= bound,
            "channel {} measured {measured} exceeds its {}-hop bound {bound}",
            tx.id,
            route.path.len(),
        );
        // The per-link deadlines of the selected route sum to d_i.
        let sum: u64 = route.link_deadlines.iter().map(|s| s.get()).sum();
        assert_eq!(sum, spec.deadline.get());
        routes.push(route.path);
    }
    routes
}

#[test]
fn ring_fabric_admits_and_meets_bounds_under_shortest_path_routing() {
    let fabric = FabricScenario::ring(4, 2, 2);
    assert!(!fabric.topology().is_tree(), "the ring must be cyclic");
    let net = RtNetwork::builder()
        .topology(fabric.topology())
        .router(ShortestPathRouter::new())
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("a cyclic fabric builds with a mesh router");
    let requests: Vec<_> = fabric
        .cross_switch_requests(12, RtChannelSpec::paper_default())
        .iter()
        .map(|r| (r.source, r.destination))
        .collect();
    let routes = drive_and_validate(net, &requests, 10);
    // Shortest paths on the 4-ring never need more than 2 trunk hops.
    assert!(routes.iter().all(|r| r.len() <= 4));
    // The closing trunk is actually selected for end-of-line pairs.
    assert!(routes
        .iter()
        .any(|r| r.iter().any(|l| matches!(l, HopLink::Trunk { from, to }
            if (from.get() == 3 && to.get() == 0) || (from.get() == 0 && to.get() == 3)))));
}

#[test]
fn leaf_spine_fabric_works_with_ecmp_and_is_seed_deterministic() {
    let fabric = FabricScenario::leaf_spine(3, 2, 2);
    let requests: Vec<_> = fabric
        .cross_switch_requests(9, RtChannelSpec::paper_default())
        .iter()
        .map(|r| (r.source, r.destination))
        .collect();
    let run = |seed: u64| {
        let net = RtNetwork::builder()
            .topology(fabric.topology())
            .router(ShortestPathRouter::with_policy(RoutePolicy::Ecmp { seed }))
            .multihop_dps(MultiHopDps::Symmetric)
            .build()
            .expect("a 2-connected fabric builds with ECMP");
        drive_and_validate(net, &requests, 10)
    };
    let first = run(7);
    let second = run(7);
    assert_eq!(
        first, second,
        "a fixed ECMP seed must reproduce every route"
    );
    // Leaf-to-leaf ECMP routes cross exactly one spine: 4 links.
    assert!(first.iter().all(|r| r.len() == 4));
    // Across the request set, both spines carry channels (the point of
    // equal-cost spreading).
    let spine_of = |route: &Route| match route.links()[1] {
        HopLink::Trunk { to, .. } => to.get(),
        other => panic!("expected a trunk after the uplink, got {other:?}"),
    };
    let via_first_spine = first.iter().filter(|r| spine_of(r) == 3).count();
    assert!(
        via_first_spine > 0 && via_first_spine < first.len(),
        "ECMP must spread channels over both spines, got {via_first_spine}/{}",
        first.len()
    );
}

#[test]
fn tree_router_accepts_lines_and_rejects_rings_at_build_time() {
    assert!(RtNetwork::builder()
        .topology(Topology::line(3, 1))
        .router(ShortestPathRouter::with_policy(RoutePolicy::Tree))
        .build()
        .is_ok());
    assert!(RtNetwork::builder()
        .topology(Topology::ring(3, 1))
        .router(ShortestPathRouter::with_policy(RoutePolicy::Tree))
        .build()
        .is_err());
    // Disconnected fabrics are rejected whatever the router.
    let mut disconnected = Topology::new();
    disconnected.add_switch(switched_rt_ethernet::types::SwitchId::new(0));
    disconnected.add_switch(switched_rt_ethernet::types::SwitchId::new(1));
    assert!(RtNetwork::builder()
        .topology(disconnected)
        .router(ShortestPathRouter::new())
        .build()
        .is_err());
}
