//! Deterministic wire regressions: orderings and edge cases of the fabric
//! simulator pinned on hand-built scenarios small enough to debug by hand.
//! Each test's comment says what it pins.

#[path = "common/frames.rs"]
mod frames;

use frames::{be_frame, rt_frame};
use switched_rt_ethernet::netsim::{
    Delivery, FaultScript, FrameInjection, SimConfig, SimStats, Simulator,
};
use switched_rt_ethernet::types::{
    ChannelId, Duration, HopLink, NodeId, Route, SimTime, SwitchId, Topology,
};

// --- driver ---------------------------------------------------------------

/// Run the workload (+ fault script) to idle; return the deliveries and the
/// statistics.
fn run(
    topology: &Topology,
    workload: &[FrameInjection],
    faults: &FaultScript,
) -> (Vec<Delivery>, SimStats) {
    let mut sim =
        Simulator::with_topology(SimConfig::default(), topology.clone()).expect("fabric is valid");
    sim.inject_batch(workload.to_vec())
        .expect("workload is valid");
    sim.schedule_faults(faults).expect("faults are in-window");
    sim.run_to_idle();
    let stats = sim.stats().clone();
    assert_eq!(
        sim.injected_count(),
        stats.total_delivered() + stats.total_dropped(),
        "every frame is delivered or dropped ({})",
        stats.summary(),
    );
    (sim.poll_deliveries(), stats)
}

// --- the regressions ------------------------------------------------------

/// Two frames injected at the *same instant* from two nodes on the same
/// access switch, bound for nodes behind the neighbouring switch: both
/// uplink transmissions finish together, both arrivals hit the shared
/// trunk at the same timestamp, and the trunk must serialise them in
/// injection `seq` order — frame 0 strictly before frame 1.
#[test]
fn same_trunk_same_timestamp_frames_keep_injection_seq_order() {
    let topology = Topology::line(2, 2);
    let at = SimTime::from_micros(10);
    // Identical payload sizes → identical uplink transmission times →
    // a genuine same-timestamp collision on the trunk port.
    let workload = vec![
        FrameInjection {
            node: NodeId::new(0),
            eth: be_frame(NodeId::new(0), NodeId::new(2), 400),
            at,
        },
        FrameInjection {
            node: NodeId::new(1),
            eth: be_frame(NodeId::new(1), NodeId::new(3), 400),
            at,
        },
    ];
    let (deliveries, _) = run(&topology, &workload, &FaultScript::new());
    assert_eq!(deliveries.len(), 2, "both frames must deliver");
    assert_eq!(
        deliveries[0].frame.get(),
        0,
        "frame 0 (lower injection seq) crosses first"
    );
    assert_eq!(deliveries[0].receiver, NodeId::new(2));
    assert_eq!(
        deliveries[1].frame.get(),
        1,
        "frame 1 serialises behind frame 0 on the trunk"
    );
    assert_eq!(deliveries[1].receiver, NodeId::new(3));
    assert!(
        deliveries[0].delivered_at < deliveries[1].delivered_at,
        "trunk serialisation must order the same-timestamp pair in time"
    );
}

/// A trunk cut while a queue of frames is still in flight across it: the
/// frames caught by the cut land in `failed_link_dropped`, and every
/// injected frame is delivered or dropped.
#[test]
fn trunk_cut_drains_in_flight_frames_into_failed_link_dropped() {
    let topology = Topology::line(2, 2);
    // Enough large frames from both uplink nodes to keep the trunk queue
    // deep past the cut instant (each ~1400-byte frame holds the trunk for
    // >100 us at Fast Ethernet).
    let mut workload = Vec::new();
    for k in 0..40u64 {
        let (src, dst) = if k % 2 == 0 {
            (NodeId::new(0), NodeId::new(2))
        } else {
            (NodeId::new(1), NodeId::new(3))
        };
        workload.push(FrameInjection {
            node: src,
            eth: be_frame(src, dst, 1400),
            at: SimTime::from_nanos(5_000 * k),
        });
    }
    let faults =
        FaultScript::new().fail_at(SimTime::from_millis(2), SwitchId::new(0), SwitchId::new(1));
    let (_, stats) = run(&topology, &workload, &faults);
    assert!(
        stats.summary().contains("link_failed=") && !stats.summary().contains("link_failed=0 "),
        "the scenario must actually drop frames on the cut trunk ({})",
        stats.summary(),
    );
}

/// Pinned routes, per-hop budgets, the released-channel drop and the
/// stale-entry-over-a-dead-port drop.  On the five-switch ring (nodes `2s`
/// and `2s + 1` on switch `s`):
///
/// * channel 1, node 0 → node 4, carries per-hop budgets and is pinned the
///   long way round, 0 → 4 → 3 → 2 (the table says 0 → 1 → 2);
/// * channel 2, node 2 → node 8, is pinned 1 → 2 → 3 → 4 by `set_channel_route`
///   (the table says 1 → 0 → 4) — across the trunk 1 — 2 the script cuts;
/// * channel 3, node 5 → node 9, is installed and then released;
/// * channel 4, node 1 → node 9, stays on the shortest path but with a trunk
///   budget tighter than channel 1's, so the shared port 0 → 4 sorts the two
///   by per-hop deadline against the order of their end-to-end stamps;
/// * channel 5, node 3 → node 7, has no wire state and follows the table.
#[test]
fn pinned_routes_hop_budgets_and_released_channels_forward_as_installed() {
    let topology = Topology::ring(5, 2);
    let mut workload = Vec::new();
    for k in 0..30u64 {
        let at = SimTime::from_micros(50 * k);
        // (source, destination, channel, end-to-end deadline offset in us)
        for (src, dst, channel, deadline) in [
            (0u32, 4u32, 1u16, 700u64),
            (2, 8, 2, 900),
            (5, 9, 3, 900),
            (1, 9, 4, 1_500),
            (3, 7, 5, 900),
        ] {
            workload.push(FrameInjection {
                node: NodeId::new(src),
                eth: rt_frame(
                    NodeId::new(src),
                    NodeId::new(dst),
                    channel,
                    at + Duration::from_micros(deadline),
                    300,
                ),
                at,
            });
        }
        workload.push(FrameInjection {
            node: NodeId::new(6),
            eth: be_frame(NodeId::new(6), NodeId::new(5), 700),
            at,
        });
    }
    let faults = FaultScript::new()
        .fail_at(
            SimTime::from_micros(300),
            SwitchId::new(1),
            SwitchId::new(2),
        )
        .repair_at(
            SimTime::from_micros(900),
            SwitchId::new(1),
            SwitchId::new(2),
        );

    let mut sim =
        Simulator::with_topology(SimConfig::default(), topology).expect("fabric is valid");
    let trunk = |from: u32, to: u32| HopLink::Trunk {
        from: SwitchId::new(from),
        to: SwitchId::new(to),
    };
    let us = Duration::from_micros;
    sim.set_channel_hop_schedule(
        ChannelId::new(1),
        [
            (HopLink::Uplink(NodeId::new(0)), us(100)),
            (trunk(0, 4), us(400)),
            (trunk(4, 3), us(500)),
            (trunk(3, 2), us(600)),
            (HopLink::Downlink(NodeId::new(4)), us(700)),
        ],
    );
    let pinned = Route::from_links(vec![
        HopLink::Uplink(NodeId::new(2)),
        trunk(1, 2),
        trunk(2, 3),
        trunk(3, 4),
        HopLink::Downlink(NodeId::new(8)),
    ])
    .expect("a contiguous loop-free route");
    sim.set_channel_route(ChannelId::new(2), &pinned);
    sim.set_channel_hop_schedule(
        ChannelId::new(3),
        [
            (HopLink::Uplink(NodeId::new(5)), us(100)),
            (trunk(2, 3), us(200)),
            (trunk(3, 4), us(300)),
            (HopLink::Downlink(NodeId::new(9)), us(400)),
        ],
    );
    sim.release_channel(ChannelId::new(3));
    sim.set_channel_hop_schedule(
        ChannelId::new(4),
        [
            (HopLink::Uplink(NodeId::new(1)), us(50)),
            (trunk(0, 4), us(100)),
            (HopLink::Downlink(NodeId::new(9)), us(150)),
        ],
    );
    sim.inject_batch(workload).expect("valid");
    sim.schedule_faults(&faults).expect("in-window");
    sim.run_to_idle();

    // The scenario must reach every rule it is there to pin.
    let stats = sim.stats();
    assert_eq!(stats.released_channel_dropped, 30, "{}", stats.summary());
    assert!(stats.failed_link_dropped > 0, "{}", stats.summary());
    let ch = |id: u16| stats.channel(ChannelId::new(id)).map_or(0, |c| c.delivered);
    assert_eq!(ch(1), 30, "channel 1 is pinned clear of the cut");
    assert!(ch(2) > 0 && ch(2) < 30, "channel 2 loses frames to the cut");
    assert_eq!(ch(3), 0, "a released channel delivers nothing");
    let frames_on = |from: u32, to: u32| stats.hop_link(trunk(from, to)).map_or(0, |l| l.frames);
    assert_eq!(frames_on(0, 1), 0, "channel 1 never takes the table's path");
    assert!(frames_on(4, 3) >= 30, "channel 1 goes the long way round");
}

/// Node 0 injects best-effort frames A and B at t = 0 and C at t = tx(A),
/// the instant A's last bit leaves the uplink.  C's injection is older than
/// A's completion, so it is handled first, finds the uplink free and starts
/// B; A's completion then must leave B's transmission alone, and C waits
/// behind B.  B (to node 1) and C (to node 2) leave the switch on different
/// downlinks, so their arrivals are exactly one transmission apart: 45 840
/// and 59 120 ns.  A port that forgets B's transmission at A's completion
/// sends C beside it, and both arrive at 45 840 ns.
#[test]
fn a_completion_does_not_free_a_port_its_own_instant_already_reused() {
    let topology = Topology::line(2, 3);
    let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    // 100 payload bytes: 166 bytes on the wire, 13 280 ns at Fast Ethernet.
    let tx = SimConfig::default().link_speed.transmission_time(166);
    assert_eq!(tx, Duration::from_nanos(13_280));
    let injection = |to: NodeId, at: SimTime| FrameInjection {
        node: n0,
        eth: be_frame(n0, to, 100),
        at,
    };
    let workload = vec![
        injection(n1, SimTime::ZERO),
        injection(n1, SimTime::ZERO),
        injection(n2, SimTime::ZERO + tx),
    ];
    let (deliveries, _) = run(&topology, &workload, &FaultScript::new());
    let arrivals: Vec<(u64, NodeId, u64)> = deliveries
        .iter()
        .map(|d| (d.frame.get(), d.receiver, d.delivered_at.as_nanos()))
        .collect();
    assert_eq!(
        arrivals,
        [(0, n1, 32_560), (1, n1, 45_840), (2, n2, 59_120)],
        "the uplink carried two frames at once"
    );
}
