//! RT channels across a 3-switch line fabric — the paper's "future work"
//! running end to end on the (simulated) wire.
//!
//! Three access switches in a chain, two masters and two slaves on each.
//! Channels are requested *across* switch boundaries, so every one crosses
//! one or both trunks; the establishment handshake itself travels through
//! the fabric to the managing switch, admission runs the per-link EDF test
//! on every hop of the route with the end-to-end deadline partitioned over
//! the hops, and admitted channels then carry periodic traffic whose
//! per-hop EDF deadlines order the trunk queues.
//!
//! The example drives more than 1000 real-time frames and checks that every
//! single one met both its stamped deadline and the hop-count-aware
//! analytical bound `d_i·slot + T_latency(hops)`.
//!
//! Run with: `cargo run --example multiswitch_fabric`

use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::traffic::FabricScenario;
use switched_rt_ethernet::types::{Duration, HopLink, SwitchId};

fn main() {
    // 1. The fabric: sw0 -- sw1 -- sw2, nodes 0..12 attached switch-major.
    let fabric = FabricScenario::line(3, 2, 2);
    let mut network = RtNetwork::builder()
        .topology(fabric.topology())
        .multihop_dps(MultiHopDps::Asymmetric)
        .build()
        .expect("a line fabric always builds");
    println!(
        "fabric: {} switches in a line, {} end nodes, managing switch {}",
        fabric.switch_count(),
        fabric.node_count(),
        network.simulator().manager_switch(),
    );

    // 2. Request cross-switch channels with the paper's traffic contract.
    let spec = RtChannelSpec::paper_default();
    let requests = fabric.cross_switch_requests(9, spec);
    let mut established = Vec::new();
    println!("\nestablishing {} cross-switch channels:", requests.len());
    for r in &requests {
        match network
            .establish_channel(r.source, r.destination, r.spec)
            .expect("handshake completes")
        {
            Some(tx) => {
                let hops = network
                    .manager()
                    .channel_route(tx.id)
                    .expect("channel known")
                    .path
                    .len();
                println!(
                    "  {} -> {}  accepted as {} ({hops} hops)",
                    r.source, r.destination, tx.id
                );
                established.push((r.source, tx));
            }
            None => println!(
                "  {} -> {}  rejected (a link on the route is full)",
                r.source, r.destination
            ),
        }
    }

    // 3. Periodic traffic: enough messages that well over 1000 RT data
    //    frames cross the fabric (C = 3 frames per message).
    let messages_per_channel = 1 + 1000 / (established.len() as u64 * spec.capacity.get());
    let start = network.now() + Duration::from_millis(1);
    for (source, tx) in &established {
        network
            .send_periodic(*source, tx.id, messages_per_channel, 1400, start)
            .expect("send periodic");
    }
    network.run_to_completion().expect("simulation runs");

    // 4. The guarantee, per channel and globally.
    let stats = network.simulator().stats();
    println!("\nper-channel results ({messages_per_channel} messages each):");
    for (_, tx) in &established {
        let ch = stats.channel(tx.id).expect("channel delivered frames");
        let bound = network.channel_deadline_bound(tx.id).expect("bound");
        println!(
            "  {}  frames={:<4} worst={:<12} mean={:<12} bound={:<12} misses={}",
            tx.id,
            ch.delivered,
            ch.max_latency.to_string(),
            ch.mean_latency().to_string(),
            bound.to_string(),
            ch.deadline_misses,
        );
        assert!(ch.max_latency <= bound, "hop-aware Eq. 18.1 bound violated");
        assert_eq!(ch.deadline_misses, 0);
    }

    for (from, to) in [(0u32, 1u32), (1, 0), (1, 2), (2, 1)] {
        if let Some(trunk) = stats.hop_link(HopLink::Trunk {
            from: SwitchId::new(from),
            to: SwitchId::new(to),
        }) {
            println!(
                "  trunk sw{from}->sw{to}: {} frames, {} busy",
                trunk.frames, trunk.busy_time,
            );
        }
    }

    println!(
        "\ndelivered {} real-time frames over the fabric, deadline misses: {}",
        stats.rt_delivered, stats.total_deadline_misses
    );
    println!("run summary: {}", stats.summary());
    assert!(
        stats.rt_delivered > 1000,
        "the example must drive > 1000 RT frames"
    );
    assert!(stats.all_deadlines_met());
    assert_eq!(stats.clamped_events, 0, "no causality clamps may occur");
    println!("every frame met its deadline -> the multi-hop guarantee HELD");
}
