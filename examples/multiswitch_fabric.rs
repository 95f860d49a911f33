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
//!
//! `--shards N` runs the sharded-simulator smoke instead: the same line
//! fabric under a pre-generated cross-switch workload plus a mid-run trunk
//! cut and repair, driven once on the single-thread simulator and once on
//! [`ShardedSimulator`] with `N` worker threads, asserting the two runs
//! are **byte-for-byte identical** — deliveries, statistics and event
//! counts.

use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::netsim::{FaultScript, ShardedSimulator, SimConfig, Simulator};
use switched_rt_ethernet::traffic::{FabricScenario, ScenarioFrameSource};
use switched_rt_ethernet::types::{Duration, HopLink, SimTime, SwitchId};

/// The `--shards N` mode: single-thread oracle vs. sharded run on the same
/// workload and fault script, compared byte for byte.
fn sharded_smoke(shards: usize) {
    let fabric = FabricScenario::line(3, 2, 2);
    let workload = ScenarioFrameSource::new(fabric.clone(), 3_000, Duration::from_micros(1))
        .payload_len(200)
        .drain_all();
    // Cut the sw1--sw2 trunk mid-run and splice it back: the smoke covers
    // the coordinator's fault barrier, not just steady-state windowing.
    let faults = FaultScript::new()
        .fail_at(
            SimTime::from_micros(800),
            SwitchId::new(1),
            SwitchId::new(2),
        )
        .repair_at(SimTime::from_millis(2), SwitchId::new(1), SwitchId::new(2));

    let mut oracle = Simulator::with_topology(SimConfig::default(), fabric.topology())
        .expect("a line fabric always builds");
    oracle
        .inject_batch(workload.clone())
        .expect("workload is valid");
    oracle
        .schedule_faults(&faults)
        .expect("faults are in-window");
    oracle.run_to_idle();
    let oracle_events = oracle.events_processed();
    let oracle_deliveries: Vec<_> = oracle
        .poll_deliveries()
        .into_iter()
        .map(|d| (d.frame, d.receiver, d.delivered_at, d.eth.encode()))
        .collect();

    let mut sharded = ShardedSimulator::new(SimConfig::default(), fabric.topology(), shards)
        .expect("a line fabric satisfies the lookahead bound");
    sharded.inject_batch(workload).expect("workload is valid");
    sharded
        .schedule_faults(&faults)
        .expect("faults are in-window");
    sharded.run_to_idle();
    println!(
        "sharded smoke: {} switches across {} shards, {} conservative windows",
        fabric.switch_count(),
        sharded.shard_count(),
        sharded.windows_executed(),
    );

    assert_eq!(
        oracle.stats().summary(),
        sharded.stats().summary(),
        "merged sharded statistics must reproduce the oracle accumulator"
    );
    let sharded_deliveries: Vec<_> = sharded
        .poll_deliveries()
        .into_iter()
        .map(|d| (d.frame, d.receiver, d.delivered_at, d.eth.encode()))
        .collect();
    assert_eq!(
        oracle_deliveries, sharded_deliveries,
        "sharded deliveries must be byte-identical to the oracle"
    );
    assert_eq!(oracle_events, sharded.events_processed());
    println!(
        "oracle and sharded runs identical: {} deliveries, {} events, summary {}",
        sharded_deliveries.len(),
        oracle_events,
        sharded.stats().summary(),
    );
    println!("byte-for-byte equivalence across {shards} shards HELD");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let shards = args
            .get(i + 1)
            .and_then(|n| n.parse().ok())
            .expect("--shards takes a shard count");
        return sharded_smoke(shards);
    }
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
