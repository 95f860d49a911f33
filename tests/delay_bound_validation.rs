//! Integration test for the Eq. 18.1 guarantee: every message on an admitted
//! RT channel is delivered within `d_i + T_latency`, measured end to end on
//! the simulated network (establishment handshake + periodic data traffic).

use switched_rt_ethernet::core::{DpsKind, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::traffic::{RequestPattern, Scenario};
use switched_rt_ethernet::types::{Duration, NodeId, Slots};

fn run_and_validate(dps: DpsKind, channels: u64, messages: u64, spec: RtChannelSpec) {
    let scenario = Scenario::new(4, 12);
    let mut net = RtNetwork::builder()
        .nodes(scenario.nodes())
        .dps(dps)
        .build()
        .unwrap();
    let requests = RequestPattern::MasterSlaveRoundRobin.generate(&scenario, channels, spec);
    let mut established = Vec::new();
    for r in &requests {
        if let Some(tx) = net
            .establish_channel(r.source, r.destination, r.spec)
            .unwrap()
        {
            established.push((r.source, tx));
        }
    }
    assert!(!established.is_empty(), "no channel admitted");

    let start = net.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        net.send_periodic(*source, tx.id, messages, 1000, start)
            .unwrap();
    }
    net.run_to_completion().unwrap();

    let stats = net.simulator().stats();
    assert_eq!(
        stats.total_deadline_misses, 0,
        "admitted traffic missed deadlines"
    );
    let bound = net.deadline_bound(&spec);
    for (_, tx) in &established {
        let ch = stats.channel(tx.id).expect("channel delivered frames");
        assert_eq!(
            ch.delivered,
            messages * spec.capacity.get(),
            "channel {} lost frames",
            tx.id
        );
        assert!(
            ch.max_latency <= bound,
            "channel {} worst latency {} exceeds bound {}",
            tx.id,
            ch.max_latency,
            bound
        );
    }
}

#[test]
fn paper_parameters_meet_the_bound_under_sdps_and_adps() {
    let spec = RtChannelSpec::paper_default();
    run_and_validate(DpsKind::Symmetric, 16, 10, spec);
    run_and_validate(DpsKind::Asymmetric, 16, 10, spec);
}

#[test]
fn tight_deadline_channels_meet_the_bound() {
    // d = 2C: the tightest deadline the store-and-forward architecture can
    // accept at all.
    let spec = RtChannelSpec::new(Slots::new(50), Slots::new(2), Slots::new(4)).unwrap();
    run_and_validate(DpsKind::Symmetric, 4, 10, spec);
}

#[test]
fn long_period_channels_meet_the_bound() {
    let spec = RtChannelSpec::new(Slots::new(500), Slots::new(5), Slots::new(100)).unwrap();
    run_and_validate(DpsKind::Asymmetric, 8, 5, spec);
}

#[test]
fn saturated_adps_system_still_meets_every_deadline() {
    // Load one master uplink close to its ADPS capacity and verify the
    // guarantee still holds for every admitted channel.
    let spec = RtChannelSpec::paper_default();
    let mut net = RtNetwork::builder()
        .star(14)
        .dps(DpsKind::Asymmetric)
        .build()
        .unwrap();
    let mut established = Vec::new();
    for dst in 1..=13u32 {
        if let Some(tx) = net
            .establish_channel(NodeId::new(0), NodeId::new(dst), spec)
            .unwrap()
        {
            established.push(tx);
        }
    }
    assert!(established.len() >= 8, "expected a heavily loaded uplink");
    let start = net.now() + Duration::from_millis(1);
    for tx in &established {
        net.send_periodic(NodeId::new(0), tx.id, 8, 1400, start)
            .unwrap();
    }
    net.run_to_completion().unwrap();
    let stats = net.simulator().stats();
    assert_eq!(stats.total_deadline_misses, 0);
    assert!(stats.worst_case_latency().unwrap() <= net.deadline_bound(&spec));
}

/// The critical instant on a hot downlink.  Channels from distinct sources
/// to one destination are admitted until the switch refuses — one more
/// slot of `C` on any admitted channel is then refused too — and every
/// source releases its messages of full-slot frames at one instant through
/// `send_periodic`, so the downlink's whole load arrives at once, its
/// frames ordered by deadline and, on ties, by the order they were sent.
/// The worst latency reaches most of the Eq. 18.1 bound; both are pinned.
#[test]
fn a_hot_downlink_filled_to_its_edge_nears_the_bound_at_the_critical_instant() {
    let spec = RtChannelSpec::paper_default();
    let sources = 24u32;
    let hot = NodeId::new(0);
    let mut net = RtNetwork::builder()
        .star(sources + 1)
        .dps(DpsKind::Asymmetric)
        .build()
        .unwrap();
    // Full-size channels while they fit, then one-slot channels into what
    // is left: the downlink ends at its edge.
    let thin = RtChannelSpec::new(spec.period, Slots::new(1), spec.deadline).unwrap();
    let mut admitted = Vec::new();
    let mut sources_left = (1..=sources).map(NodeId::new);
    for contract in [spec, thin] {
        for source in sources_left.by_ref() {
            match net.establish_channel(source, hot, contract).unwrap() {
                Some(tx) => admitted.push((source, tx.id, contract)),
                None => break,
            }
        }
    }
    assert!(
        sources_left.next().is_some(),
        "the downlink must fill before the sources run out"
    );

    let start = net.now() + Duration::from_millis(1);
    let payload = 1472; // a full frame: one slot on the wire
    for &(source, id, _) in &admitted {
        net.send_periodic(source, id, 4, payload, start).unwrap();
    }
    net.run_to_completion().unwrap();
    let stats = net.simulator().stats();
    assert_eq!(stats.total_deadline_misses, 0);
    let worst = stats.worst_case_latency().expect("frames were delivered");
    let bound = net.deadline_bound(&spec);
    // Twelve three-slot channels and one one-slot channel: 37 full frames
    // queue for the downlink at once.  The last of them arrives 4 681.52 µs
    // after its release, 0.905 of the 5 173.68 µs bound.
    assert_eq!(admitted.len(), 13);
    assert_eq!((worst.as_nanos(), bound.as_nanos()), (4_681_520, 5_173_680));
    let ratio = worst.as_nanos() as f64 / bound.as_nanos() as f64;
    assert!(ratio > 0.70, "worst / bound = {ratio:.3}");

    // One more slot of `C` on any admitted channel is refused, and the
    // channel as it was is admitted again.
    for &(source, id, contract) in &admitted {
        let wider = RtChannelSpec::new(
            contract.period,
            contract.capacity + Slots::new(1),
            contract.deadline,
        )
        .unwrap();
        net.teardown_channel(source, id).unwrap();
        assert!(
            net.establish_channel(source, hot, wider).unwrap().is_none(),
            "{id}"
        );
        assert!(net
            .establish_channel(source, hot, contract)
            .unwrap()
            .is_some());
    }
}
