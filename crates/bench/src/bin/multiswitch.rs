//! Ablation D (future work of the paper): RT channels over a multi-switch
//! fabric — admission analysis *and* wire-level simulation, on trees and
//! meshes.
//!
//! **Part 1 — dumbbell (tree).**  Two access switches joined by a single
//! trunk, masters on one side and slaves on the other, so every channel
//! crosses three links (uplink, trunk, downlink) and the trunk is the shared
//! bottleneck.  The experiment sweeps the number of requested channels and,
//! for each point:
//!
//! 1. runs multi-hop admission analytically (symmetric vs. load-proportional
//!    deadline split), and
//! 2. replays the *asymmetric* run on the wire: the same requests are
//!    established through the simulated fabric (handshake frames crossing
//!    the trunk), periodic traffic is driven on every admitted channel, and
//!    the measured worst-case delay is checked against the multi-hop
//!    Eq. 18.1 analogue `d_i·slot + T_latency(hops)`.
//!
//! **Part 2 — mesh (ring) vs. spanning tree.**  A ring of four access
//! switches is the line plus one *redundant* closing trunk.  The same
//! cross-switch request sequence is driven twice through `RtNetworkBuilder`:
//! once over the spanning line under `RoutePolicy::Tree` (the pre-mesh
//! behaviour) and once over the ring under the default
//! `RoutePolicy::Shortest`.  The redundant trunk
//! both shortens routes (fewer hops → more slack per link) and removes the
//! middle-trunk bottleneck, so the mesh admits more channels; every admitted
//! channel is again validated on the wire against its hop-aware bound.
//!
//! Both sweeps are deterministic, so the last row of each is pinned in-binary
//! (dumbbell: 4 symmetric / 9 asymmetric; line 16, ring 21).
//!
//! Usage: `cargo run -p rt-bench --bin multiswitch`.

use rt_bench::report::Table;
use rt_core::{MultiHopAdmission, MultiHopDps, RtChannelSpec, RtNetwork};
use rt_traffic::FabricScenario;
use rt_types::{Duration, HopLink, NodeId, RoutePolicy, ShortestPathRouter, SwitchId, Topology};

/// One router's wire-level numbers at one sweep point of the mesh
/// experiment.
#[derive(Debug, Default)]
struct WireOutcome {
    established: u64,
    frames: u64,
    misses: u64,
    worst_latency_ns: u64,
    worst_bound_ns: u64,
}

/// Two switches, `masters` nodes on switch 0 and `slaves` nodes on switch 1.
fn dumbbell(masters: u32, slaves: u32) -> Topology {
    let mut t = Topology::new();
    t.add_switch(SwitchId::new(0));
    t.add_switch(SwitchId::new(1));
    t.add_trunk(SwitchId::new(0), SwitchId::new(1))
        .expect("single fresh trunk");
    for i in 0..masters {
        t.attach_node(NodeId::new(i), SwitchId::new(0))
            .expect("fresh node");
    }
    for i in 0..slaves {
        t.attach_node(NodeId::new(masters + i), SwitchId::new(1))
            .expect("fresh node");
    }
    t
}

fn request_pair(i: u64, masters: u32, slaves: u32) -> (NodeId, NodeId) {
    (
        NodeId::new((i % u64::from(masters)) as u32),
        NodeId::new(masters + (i % u64::from(slaves)) as u32),
    )
}

/// Analytical admission only.
fn analyse(dps: MultiHopDps, masters: u32, slaves: u32, requested: u64) -> (u64, usize) {
    let spec = RtChannelSpec::paper_default();
    let mut admission = MultiHopAdmission::new(dumbbell(masters, slaves), dps);
    for i in 0..requested {
        let (source, destination) = request_pair(i, masters, slaves);
        let _ = admission
            .request(source, destination, spec)
            .expect("valid request");
    }
    let trunk_load = admission.link_load(HopLink::Trunk {
        from: SwitchId::new(0),
        to: SwitchId::new(1),
    });
    (admission.accepted_count(), trunk_load)
}

/// Establish a request sequence over the wire, drive periodic traffic and
/// validate every admitted channel against its hop-aware bound.
fn drive_on_the_wire(
    mut net: RtNetwork,
    requests: &[(NodeId, NodeId)],
    messages: u64,
) -> WireOutcome {
    let spec = RtChannelSpec::paper_default();
    let mut established = Vec::new();
    for &(source, destination) in requests {
        if let Some(tx) = net
            .establish_channel(source, destination, spec)
            .expect("establishment cannot error on a known topology")
        {
            established.push((source, tx));
        }
    }
    let start = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        net.send_periodic(*source, tx.id, messages, 1400, start)
            .expect("channel was just established");
    }
    net.run_to_completion().expect("simulation completes");

    let stats = net.simulator().stats();
    let mut outcome = WireOutcome {
        established: established.len() as u64,
        frames: stats.rt_delivered,
        misses: stats.total_deadline_misses,
        ..WireOutcome::default()
    };
    for (_, tx) in &established {
        let Some(ch) = stats.channel(tx.id) else {
            continue;
        };
        let bound = net
            .channel_deadline_bound(tx.id)
            .expect("established channel has a bound")
            .as_nanos();
        let latency = ch.max_latency.as_nanos();
        outcome.worst_latency_ns = outcome.worst_latency_ns.max(latency);
        outcome.worst_bound_ns = outcome.worst_bound_ns.max(bound);
        assert!(
            latency <= bound,
            "channel {} measured {latency} ns > bound {bound} ns",
            tx.id
        );
    }
    outcome
}

/// The same dumbbell request sequence, run over the simulated wire with the
/// asymmetric split.
fn simulate_dumbbell(masters: u32, slaves: u32, requested: u64, messages: u64) -> WireOutcome {
    let net = RtNetwork::builder()
        .topology(dumbbell(masters, slaves))
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("the dumbbell is a valid fabric");
    let requests: Vec<_> = (0..requested)
        .map(|i| request_pair(i, masters, slaves))
        .collect();
    drive_on_the_wire(net, &requests, messages)
}

/// Runs the sweep and returns the last point's (symmetric, asymmetric)
/// acceptance.
fn part1_dumbbell(masters: u32, slaves: u32, messages: u64) -> (u64, u64) {
    println!(
        "Part 1 — dumbbell fabric ({masters} masters on sw0, {slaves} slaves on sw1, one trunk)"
    );
    println!("every channel crosses uplink + trunk + downlink; C=3, P=100, D=40");
    println!("analysis: symmetric vs load-proportional multi-hop split; simulation: asymmetric run on the wire\n");

    let mut last = (0, 0);
    let mut all_met = true;
    let mut table = Table::new(&[
        "requested",
        "sym accepted",
        "asym accepted",
        "trunk ch (sym/asym)",
        "sim established",
        "sim frames",
        "sim misses",
        "worst lat (us)",
        "bound (us)",
    ]);
    for requested in (20..=200).step_by(20) {
        let (sym, sym_trunk) = analyse(MultiHopDps::Symmetric, masters, slaves, requested);
        let (asym, asym_trunk) = analyse(MultiHopDps::Asymmetric, masters, slaves, requested);
        let wire = simulate_dumbbell(masters, slaves, requested, messages);
        assert_eq!(
            wire.established, asym,
            "wire-level admission must match the analytical run"
        );
        table.row_strings(vec![
            requested.to_string(),
            sym.to_string(),
            asym.to_string(),
            format!("{sym_trunk}/{asym_trunk}"),
            wire.established.to_string(),
            wire.frames.to_string(),
            wire.misses.to_string(),
            format!("{:.1}", wire.worst_latency_ns as f64 / 1000.0),
            format!("{:.1}", wire.worst_bound_ns as f64 / 1000.0),
        ]);
        all_met &= wire.misses == 0;
        last = (sym, asym);
    }
    table.print();
    println!();
    println!(
        "The single trunk carries every channel, so it saturates long before the access links;"
    );
    println!("the load-proportional split hands the trunk most of each deadline and admits more channels.");
    println!(
        "Wire-level validation: every admitted channel met its hop-aware Eq. 18.1 bound: {}",
        if all_met { "YES" } else { "NO" }
    );
    last
}

/// Runs the sweep and returns the last point's (tree, mesh) established
/// channels.
fn part2_mesh(messages: u64) -> (u64, u64) {
    const SWITCHES: u32 = 4;
    const MASTERS: u32 = 2;
    const SLAVES: u32 = 2;
    let line = FabricScenario::line(SWITCHES, MASTERS, SLAVES);
    let ring = FabricScenario::ring(SWITCHES, MASTERS, SLAVES);
    println!("\nPart 2 — mesh vs spanning tree ({SWITCHES} access switches, {MASTERS} masters + {SLAVES} slaves each)");
    println!("identical cross-switch request sequences; the tree policy over the line vs the shortest-path policy over the ring");
    println!("(the ring = the line + one redundant closing trunk)\n");

    let spec = RtChannelSpec::paper_default();
    let mut last = (0, 0);
    let mut gained = 0;
    let mut table = Table::new(&[
        "requested",
        "tree accepted",
        "mesh accepted",
        "tree worst/bound (us)",
        "mesh worst/bound (us)",
        "misses (tree/mesh)",
    ]);
    for requested in (8..=48).step_by(8) {
        // The scenarios share node allocation, so one request list serves
        // both fabrics.
        let requests: Vec<(NodeId, NodeId)> = line
            .cross_switch_requests(requested, spec)
            .iter()
            .map(|r| (r.source, r.destination))
            .collect();
        let tree = drive_on_the_wire(
            RtNetwork::builder()
                .topology(line.topology())
                .router(ShortestPathRouter::with_policy(RoutePolicy::Tree))
                .multihop_dps(MultiHopDps::Asymmetric)
                .build()
                .expect("the tree policy accepts the line"),
            &requests,
            messages,
        );
        let mesh = drive_on_the_wire(
            RtNetwork::builder()
                .topology(ring.topology())
                .router(ShortestPathRouter::new())
                .multihop_dps(MultiHopDps::Asymmetric)
                .build()
                .expect("the shortest-path policy accepts the ring"),
            &requests,
            messages,
        );
        assert!(
            mesh.established >= tree.established,
            "the redundant trunk must never admit fewer channels"
        );
        table.row_strings(vec![
            requested.to_string(),
            tree.established.to_string(),
            mesh.established.to_string(),
            format!(
                "{:.1}/{:.1}",
                tree.worst_latency_ns as f64 / 1000.0,
                tree.worst_bound_ns as f64 / 1000.0
            ),
            format!(
                "{:.1}/{:.1}",
                mesh.worst_latency_ns as f64 / 1000.0,
                mesh.worst_bound_ns as f64 / 1000.0
            ),
            format!("{}/{}", tree.misses, mesh.misses),
        ]);
        gained += mesh.established - tree.established;
        last = (tree.established, mesh.established);
    }
    table.print();
    println!();
    println!("The closing trunk shortens end-of-line routes and bypasses the middle trunks,");
    println!("admitting {gained} extra channels over the sweep; every admitted channel still met");
    println!("its hop-aware Eq. 18.1 bound on the wire, under both routers.");
    last
}

fn main() {
    let messages = 10u64;
    assert_eq!(
        part1_dumbbell(10, 50, messages),
        (4, 9),
        "dumbbell hot-trunk acceptance at 200 requests (symmetric, asymmetric)"
    );
    assert_eq!(
        part2_mesh(messages),
        (16, 21),
        "acceptance at 48 requests (line under the tree policy, ring under shortest-path)"
    );
    println!();
}
