//! Deterministic regressions for the sharded fabric simulator: the nasty
//! orderings and edge cases that the randomized 32-seed equivalence matrix
//! of `fabric_properties.rs` covers only probabilistically are pinned here
//! on hand-built scenarios, so a future change that breaks one of them
//! fails with a scenario small enough to debug by hand.
//!
//! Pinned behaviours:
//!
//! * two frames crossing the **same inter-shard trunk at the same
//!   timestamp** keep injection `seq` order (the staged-arrival sort key
//!   must reproduce the single-thread tie-break exactly),
//! * a `FailTrunk` on an **inter-shard** trunk drains the in-flight frames
//!   into `failed_link_dropped` — identically to the single-thread oracle,
//! * a shard whose calendar goes **empty** still honours the global
//!   conservative window (the coordinator must not let the busy shard run
//!   ahead of the idle one's horizon),
//! * a configuration whose trunk **lookahead** exceeds the minimum frame
//!   transmission time is rejected at construction (conservative windows
//!   could otherwise reorder same-instant events),
//! * on a **multiswitch mixed workload** (RT + best-effort + control +
//!   link-state traffic and a mid-run trunk cut) the per-worker statistics
//!   merged by [`SimStats::merge_from`] reproduce the oracle's accumulator
//!   exactly — the satellite check for the stats-merge path,
//! * channels with **per-hop EDF budgets and routes pinned off the shortest
//!   path**, one of them **released** before the run and one crossing a
//!   trunk the fault script cuts, forward, queue and drop identically at
//!   every shard count — the per-channel wire state reaches the shards,
//! * a frame injected at the **very instant a transmission completes** on
//!   the same uplink starts the queued frame, and the completion that
//!   follows in the same instant must not free the port again: one link
//!   carries one frame at a time.

use switched_rt_ethernet::frames::{
    EthernetFrame, RequestFrame, ReservationFrame, ReservationOp, ReservationReason, RtDataFrame,
};
use switched_rt_ethernet::netsim::{
    Delivery, FaultScript, FrameInjection, ShardedSimulator, SimConfig, Simulator,
};
use switched_rt_ethernet::types::{
    constants::ETHERTYPE_IPV4, ChannelId, ConnectionRequestId, Duration, HopLink, Ipv4Address,
    MacAddr, NodeId, Route, RtError, ShardStrategy, SimTime, Slots, SwitchId, Topology,
};

// --- frame builders -------------------------------------------------------

fn be_frame(from: NodeId, to: NodeId, payload_len: usize) -> EthernetFrame {
    let udp = switched_rt_ethernet::frames::UdpHeader::new(1000, 2000, payload_len).unwrap();
    let ip = switched_rt_ethernet::frames::Ipv4Header::udp(
        Ipv4Address::for_node(from),
        Ipv4Address::for_node(to),
        8 + payload_len,
    )
    .unwrap();
    let mut bytes = ip.encode();
    bytes.extend_from_slice(&udp.encode());
    bytes.extend(std::iter::repeat_n(0x5au8, payload_len));
    EthernetFrame::new(
        MacAddr::for_node(to),
        MacAddr::for_node(from),
        ETHERTYPE_IPV4,
        bytes,
    )
    .unwrap()
}

fn rt_frame(
    from: NodeId,
    to: NodeId,
    channel: u16,
    deadline: SimTime,
    payload_len: usize,
) -> EthernetFrame {
    RtDataFrame {
        eth_src: MacAddr::for_node(from),
        eth_dst: MacAddr::for_node(to),
        stamp: switched_rt_ethernet::frames::rt_data::DeadlineStamp::new(
            deadline.as_nanos(),
            ChannelId::new(channel),
        )
        .unwrap(),
        src_port: 5000,
        dst_port: 5001,
        payload: vec![0u8; payload_len],
    }
    .into_ethernet()
    .unwrap()
}

/// A CONNECT control frame (Figure 18.3) from `from`, addressed to the
/// control plane — classified [`FramePeek::Control`] and accounted under
/// `control_frames`.
fn connect_frame(from: NodeId, to: NodeId, request_id: u8) -> EthernetFrame {
    RequestFrame {
        src_mac: MacAddr::for_node(from),
        dst_mac: MacAddr::for_node(to),
        src_ip: Ipv4Address::for_node(from),
        dst_ip: Ipv4Address::for_node(to),
        period: Slots::new(100),
        capacity: Slots::new(2),
        deadline: Slots::new(50),
        rt_channel_id: None,
        connection_request_id: ConnectionRequestId::new(request_id),
    }
    .into_ethernet(MacAddr::for_node(from), MacAddr::for_switch())
    .unwrap()
}

/// A link-state flood frame announcing trunk `(a, b)` liveness — classified
/// [`FramePeek::LinkState`] and accounted under `link_state_frames`, not
/// `control_frames`.
fn link_state_frame(from: NodeId, a: SwitchId, b: SwitchId, epoch: u64) -> EthernetFrame {
    ReservationFrame {
        op: ReservationOp::LinkState,
        reason: ReservationReason::None,
        coordinator: a,
        token: 1,
        source: from,
        destination: from,
        request_id: ConnectionRequestId::new(0),
        candidate: 0,
        hop: 0,
        channel: None,
        period: Slots::new(100),
        capacity: Slots::new(1),
        deadline: Slots::new(50),
        values: vec![u64::from(a.get()), u64::from(b.get()), 0, epoch],
    }
    .into_ethernet(MacAddr::for_node(from), MacAddr::for_switch())
    .unwrap()
}

// --- drivers --------------------------------------------------------------

type Snapshot = Vec<(u64, NodeId, u64, Vec<u8>)>;

fn snapshot(deliveries: &[Delivery]) -> Snapshot {
    deliveries
        .iter()
        .map(|d| {
            (
                d.frame.get(),
                d.receiver,
                d.delivered_at.as_nanos(),
                d.eth.encode(),
            )
        })
        .collect()
}

/// Run the workload (+ fault script) on the single-thread [`Simulator`],
/// the oracle; return the observable outcome.
fn oracle(
    topology: &Topology,
    workload: &[FrameInjection],
    faults: &FaultScript,
) -> (Snapshot, String, u64) {
    let mut sim =
        Simulator::with_topology(SimConfig::default(), topology.clone()).expect("fabric is valid");
    sim.inject_batch(workload.to_vec())
        .expect("workload is valid");
    sim.schedule_faults(faults).expect("faults are in-window");
    sim.run_to_idle();
    let processed = sim.events_processed();
    (
        snapshot(&sim.poll_deliveries()),
        sim.stats().summary(),
        processed,
    )
}

/// The same run on the sharded simulator; returns the outcome plus the
/// number of conservative windows the coordinator executed.
fn sharded(
    topology: &Topology,
    workload: &[FrameInjection],
    faults: &FaultScript,
    shards: usize,
    strategy: ShardStrategy,
) -> ((Snapshot, String, u64), u64, ShardedSimulator) {
    let mut sim =
        ShardedSimulator::with_strategy(SimConfig::default(), topology.clone(), shards, strategy)
            .expect("fabric is valid");
    sim.inject_batch(workload.to_vec())
        .expect("workload is valid");
    sim.schedule_faults(faults).expect("faults are in-window");
    sim.run_to_idle();
    let processed = sim.events_processed();
    let outcome = (
        snapshot(&sim.poll_deliveries()),
        sim.stats().summary(),
        processed,
    );
    let windows = sim.windows_executed();
    (outcome, windows, sim)
}

/// Assert sharded == oracle across shard counts and both strategies.
fn assert_equivalent(topology: &Topology, workload: &[FrameInjection], faults: &FaultScript) {
    let expected = oracle(topology, workload, faults);
    for shards in [2usize, 4] {
        for strategy in [ShardStrategy::BfsRegions, ShardStrategy::Striped] {
            let (got, _, _) = sharded(topology, workload, faults, shards, strategy);
            assert_eq!(
                expected,
                got,
                "sharded x{shards} ({}) diverges from the oracle",
                strategy.name(),
            );
        }
    }
}

// --- the regressions ------------------------------------------------------

/// Two frames injected at the *same instant* from two nodes on the same
/// access switch, bound for nodes behind the neighbouring switch: both
/// uplink transmissions finish together, both arrivals hit the shared
/// inter-shard trunk at the same timestamp, and the trunk must serialise
/// them in injection `seq` order — frame 0 strictly before frame 1 — just
/// as the single-thread oracle does.
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
    let faults = FaultScript::new();
    assert_equivalent(&topology, &workload, &faults);

    // Striped partitioning puts switch 0 and switch 1 in different shards,
    // so the trunk between them is an inter-shard ring crossing.
    let (got, _, sim) = sharded(&topology, &workload, &faults, 2, ShardStrategy::Striped);
    assert_ne!(
        sim.shard_of(SwitchId::new(0)),
        sim.shard_of(SwitchId::new(1)),
        "the scenario requires the trunk to cross shards"
    );
    let (deliveries, _, _) = got;
    assert_eq!(deliveries.len(), 2, "both frames must deliver");
    assert_eq!(
        deliveries[0].0, 0,
        "frame 0 (lower injection seq) crosses first"
    );
    assert_eq!(deliveries[0].1, NodeId::new(2));
    assert_eq!(
        deliveries[1].0, 1,
        "frame 1 serialises behind frame 0 on the trunk"
    );
    assert_eq!(deliveries[1].1, NodeId::new(3));
    assert!(
        deliveries[0].2 < deliveries[1].2,
        "trunk serialisation must order the same-timestamp pair in time"
    );
}

/// A trunk cut on an *inter-shard* trunk while a queue of frames is still
/// in flight across it: every frame caught by the cut lands in
/// `failed_link_dropped` and the count matches the oracle exactly — on
/// both partition strategies.
#[test]
fn inter_shard_trunk_cut_drains_in_flight_frames_into_failed_link_dropped() {
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
    let expected = oracle(&topology, &workload, &faults);
    assert!(
        expected.1.contains("link_failed=") && !expected.1.contains("link_failed=0 "),
        "the scenario must actually drop frames on the cut trunk ({})",
        expected.1,
    );
    for strategy in [ShardStrategy::BfsRegions, ShardStrategy::Striped] {
        let (got, _, sim) = sharded(&topology, &workload, &faults, 2, strategy);
        assert_eq!(
            expected,
            got,
            "sharded trunk cut diverges from the oracle ({})",
            strategy.name(),
        );
        assert!(sim.stats().failed_link_dropped > 0);
        assert_eq!(
            sim.injected_count(),
            sim.stats().total_delivered() + sim.stats().total_dropped(),
            "conservation across the cut"
        );
    }
}

/// All traffic confined to shard 0's switch: shard 1's calendar is empty
/// for the whole run, yet the coordinator still advances both shards
/// through the same conservative windows — the run completes, matches the
/// oracle byte-for-byte, and executes more than one window (the idle shard
/// must not collapse the horizon to "done").
#[test]
fn an_idle_shard_still_honours_the_global_window() {
    let topology = Topology::line(2, 2);
    // node 0 → node 1, both behind switch 0; switch 1 (shard 1 under the
    // striped split) never sees a frame.
    let mut workload = Vec::new();
    for k in 0..10u64 {
        workload.push(FrameInjection {
            node: NodeId::new(0),
            eth: rt_frame(
                NodeId::new(0),
                NodeId::new(1),
                1,
                SimTime::from_micros(40 * k + 500),
                200,
            ),
            at: SimTime::from_micros(20 * k),
        });
    }
    let faults = FaultScript::new();
    let expected = oracle(&topology, &workload, &faults);
    let (got, windows, sim) = sharded(&topology, &workload, &faults, 2, ShardStrategy::Striped);
    assert_eq!(expected, got, "idle-shard run diverges from the oracle");
    assert_ne!(
        sim.shard_of(SwitchId::new(0)),
        sim.shard_of(SwitchId::new(1)),
        "the scenario requires switch 1 to sit in its own (idle) shard"
    );
    assert!(
        windows > 1,
        "a ~200 us workload under a 5.5 us lookahead must span many windows, got {windows}"
    );
}

/// Conservative windows are only sound when a frame entering a trunk
/// cannot emerge on the far side within the same window — i.e. when the
/// minimum frame transmission time covers the lookahead
/// `propagation_delay + switch_latency`.  A configuration violating that
/// bound must be rejected at construction, not silently misordered.
#[test]
fn a_lookahead_violating_config_is_rejected_at_construction() {
    // 10 us of switch latency pushes the lookahead (10.5 us) past the
    // 6.72 us minimum-frame transmission time of Fast Ethernet.
    let config = SimConfig {
        switch_latency: Duration::from_micros(10),
        ..SimConfig::default()
    };
    let err = match ShardedSimulator::new(config, Topology::line(2, 1), 2) {
        Ok(_) => panic!("a lookahead exceeding the minimum tx time must be rejected"),
        Err(e) => e,
    };
    match err {
        RtError::Config(msg) => assert!(
            msg.contains("lookahead"),
            "the error must name the violated bound: {msg}"
        ),
        other => panic!("expected RtError::Config, got {other:?}"),
    }
    // The single-thread simulator accepts the same configuration — the
    // bound is a property of conservative windowing, not of the model.
    let config = SimConfig {
        switch_latency: Duration::from_micros(10),
        ..SimConfig::default()
    };
    Simulator::with_topology(config, Topology::line(2, 1))
        .expect("the single-thread simulator has no lookahead bound");
}

/// Satellite check for the stats-merge path: on a three-switch fabric with
/// a mixed workload — RT data, best-effort, CONNECT control frames,
/// link-state floods — plus a mid-run trunk cut and repair, the per-worker
/// accumulators merged by `SimStats::merge_from` reproduce the oracle's
/// single accumulator *exactly*, including the `control=`/`link_state=`
/// split in the summary line.
#[test]
fn merged_stats_reproduce_the_oracle_on_a_mixed_multiswitch_scenario() {
    let topology = Topology::line(3, 2);
    let mut workload = Vec::new();
    // RT data criss-crossing all three switches.
    for k in 0..12u64 {
        let (src, dst) = [(0u32, 4u32), (5, 1), (2, 0), (3, 5)][(k % 4) as usize];
        workload.push(FrameInjection {
            node: NodeId::new(src),
            eth: rt_frame(
                NodeId::new(src),
                NodeId::new(dst),
                (k % 3 + 1) as u16,
                SimTime::from_micros(400 * k + 2_000),
                300,
            ),
            at: SimTime::from_micros(30 * k),
        });
    }
    // Best-effort background load.
    for k in 0..8u64 {
        let (src, dst) = [(1u32, 5u32), (4, 0)][(k % 2) as usize];
        workload.push(FrameInjection {
            node: NodeId::new(src),
            eth: be_frame(NodeId::new(src), NodeId::new(dst), 900),
            at: SimTime::from_micros(25 * k + 10),
        });
    }
    // Control plane: two CONNECTs and two link-state floods, injected at
    // non-manager switches so they cross trunks in the sharded run.
    workload.push(FrameInjection {
        node: NodeId::new(0),
        eth: connect_frame(NodeId::new(0), NodeId::new(5), 1),
        at: SimTime::from_micros(40),
    });
    workload.push(FrameInjection {
        node: NodeId::new(4),
        eth: connect_frame(NodeId::new(4), NodeId::new(1), 2),
        at: SimTime::from_micros(90),
    });
    workload.push(FrameInjection {
        node: NodeId::new(2),
        eth: link_state_frame(NodeId::new(2), SwitchId::new(1), SwitchId::new(2), 1),
        at: SimTime::from_micros(60),
    });
    workload.push(FrameInjection {
        node: NodeId::new(5),
        eth: link_state_frame(NodeId::new(5), SwitchId::new(1), SwitchId::new(2), 2),
        at: SimTime::from_micros(110),
    });
    let faults = FaultScript::new()
        .fail_at(
            SimTime::from_micros(200),
            SwitchId::new(1),
            SwitchId::new(2),
        )
        .repair_at(SimTime::from_millis(1), SwitchId::new(1), SwitchId::new(2));

    let expected = oracle(&topology, &workload, &faults);
    // The scenario must actually exercise both control-frame counters.
    assert!(
        expected.1.contains("control=2") && expected.1.contains("link_state=2"),
        "the oracle summary must account both control frame kinds ({})",
        expected.1,
    );
    for shards in [2usize, 3] {
        for strategy in [ShardStrategy::BfsRegions, ShardStrategy::Striped] {
            let (got, _, sim) = sharded(&topology, &workload, &faults, shards, strategy);
            assert_eq!(
                expected.1,
                got.1,
                "merged stats diverge from the oracle accumulator (x{shards}, {})",
                strategy.name(),
            );
            assert_eq!(
                expected,
                got,
                "mixed multiswitch scenario diverges (x{shards}, {})",
                strategy.name(),
            );
            assert_eq!(sim.stats().control_frames, 2);
            assert_eq!(sim.stats().link_state_frames, 2);
        }
    }
}

/// Install the per-channel wire state of the pinned-route scenario on either
/// simulator (the two share method names, not a trait).  On the five-switch
/// ring (nodes `2s` and `2s + 1` on switch `s`):
///
/// * channel 1, node 0 → node 4, carries per-hop budgets and is pinned the
///   long way round, 0 → 4 → 3 → 2 (the table says 0 → 1 → 2);
/// * channel 2, node 2 → node 8, is pinned 1 → 2 → 3 → 4 by `set_channel_route`
///   (the table says 1 → 0 → 4) — across the trunk 1 — 2 the script cuts;
/// * channel 3, node 5 → node 9, is installed and then released;
/// * channel 4, node 1 → node 9, stays on the shortest path but with a trunk
///   budget tighter than channel 1's, so the shared port 0 → 4 sorts the two
///   by per-hop deadline against the order of their end-to-end stamps.
macro_rules! install_pinned_channels {
    ($sim:expr) => {{
        let trunk = |from: u32, to: u32| HopLink::Trunk {
            from: SwitchId::new(from),
            to: SwitchId::new(to),
        };
        let us = Duration::from_micros;
        $sim.set_channel_hop_schedule(
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
        $sim.set_channel_route(ChannelId::new(2), &pinned);
        $sim.set_channel_hop_schedule(
            ChannelId::new(3),
            [
                (HopLink::Uplink(NodeId::new(5)), us(100)),
                (trunk(2, 3), us(200)),
                (trunk(3, 4), us(300)),
                (HopLink::Downlink(NodeId::new(9)), us(400)),
            ],
        );
        $sim.release_channel(ChannelId::new(3));
        $sim.set_channel_hop_schedule(
            ChannelId::new(4),
            [
                (HopLink::Uplink(NodeId::new(1)), us(50)),
                (trunk(0, 4), us(100)),
                (HopLink::Downlink(NodeId::new(9)), us(150)),
            ],
        );
    }};
}

/// Everything the pinned-route case compares: deliveries, the summary line,
/// per-channel and per-link counters, the two drop counters it provokes and
/// the event count.
type WireOutcome = (Snapshot, String, String, String, u64, u64, u64);

macro_rules! wire_outcome {
    ($sim:expr) => {{
        let stats = $sim.stats().clone();
        let outcome: WireOutcome = (
            snapshot(&$sim.poll_deliveries()),
            stats.summary(),
            format!("{:?}", stats.channels),
            format!("{:?}", stats.links().collect::<Vec<_>>()),
            stats.released_channel_dropped,
            stats.failed_link_dropped,
            $sim.events_processed(),
        );
        outcome
    }};
}

/// The wire state `ShardedSimulator` forwards to its inner simulator must
/// reach the shards: pinned routes, per-hop budgets, the released-channel
/// drop and the stale-entry-over-a-dead-port drop behave at every shard
/// count exactly as on the single thread.
#[test]
fn pinned_routes_hop_budgets_and_released_channels_survive_sharding() {
    let topology = Topology::ring(5, 2);
    let mut workload = Vec::new();
    for k in 0..30u64 {
        let at = SimTime::from_micros(50 * k);
        // (source, destination, channel, end-to-end deadline offset in us):
        // channel 5 has no wire state at all and follows the table.
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

    let mut oracle =
        Simulator::with_topology(SimConfig::default(), topology.clone()).expect("fabric is valid");
    install_pinned_channels!(oracle);
    oracle.inject_batch(workload.clone()).expect("valid");
    oracle.schedule_faults(&faults).expect("in-window");
    oracle.run_to_idle();
    let expected = wire_outcome!(oracle);

    // The scenario must reach every rule it is there to pin.
    let stats = oracle.stats();
    assert_eq!(stats.released_channel_dropped, 30, "{}", stats.summary());
    assert!(stats.failed_link_dropped > 0, "{}", stats.summary());
    let ch = |id: u16| stats.channel(ChannelId::new(id)).map_or(0, |c| c.delivered);
    assert_eq!(ch(1), 30, "channel 1 is pinned clear of the cut");
    assert!(ch(2) > 0 && ch(2) < 30, "channel 2 loses frames to the cut");
    assert_eq!(ch(3), 0, "a released channel delivers nothing");
    let frames_on = |from: u32, to: u32| {
        let link = HopLink::Trunk {
            from: SwitchId::new(from),
            to: SwitchId::new(to),
        };
        stats.hop_link(link).map_or(0, |l| l.frames)
    };
    assert_eq!(frames_on(0, 1), 0, "channel 1 never takes the table's path");
    assert!(frames_on(4, 3) >= 30, "channel 1 goes the long way round");

    for shards in [1usize, 2, 4] {
        for strategy in [ShardStrategy::BfsRegions, ShardStrategy::Striped] {
            let mut sim = ShardedSimulator::with_strategy(
                SimConfig::default(),
                topology.clone(),
                shards,
                strategy,
            )
            .expect("fabric is valid");
            install_pinned_channels!(sim);
            sim.inject_batch(workload.clone()).expect("valid");
            sim.schedule_faults(&faults).expect("in-window");
            sim.run_to_idle();
            let got = wire_outcome!(sim);
            assert_eq!(
                expected,
                got,
                "pinned-route scenario diverges (x{shards}, {})",
                strategy.name(),
            );
        }
    }
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
    let faults = FaultScript::new();
    let (deliveries, _, _) = oracle(&topology, &workload, &faults);
    let arrivals: Vec<(u64, NodeId, u64)> = deliveries
        .iter()
        .map(|&(frame, receiver, at, _)| (frame, receiver, at))
        .collect();
    assert_eq!(
        arrivals,
        [(0, n1, 32_560), (1, n1, 45_840), (2, n2, 59_120)],
        "the uplink carried two frames at once"
    );
    assert_equivalent(&topology, &workload, &faults);
}
