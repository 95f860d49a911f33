//! Scheduler equivalence: the calendar queue must be *indistinguishable*
//! from the binary-heap reference on the wire.
//!
//! Determinism is the simulator's foundational contract — experiments are
//! reproducible because identical inputs give identical event sequences.
//! The calendar queue buys its throughput with a completely different
//! internal organisation (buckets, overflow list, resizes), so this suite
//! pins the contract: for every fabric shape the repo ships (star, line,
//! ring, leaf-spine) and for mixed RT + best-effort + control workloads,
//! both schedulers must produce byte-for-byte identical delivery sequences
//! — same frames, same receivers, same ports, same nanosecond timestamps,
//! in the same order — and identical statistics.

use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::netsim::{Delivery, SchedulerKind, SimConfig, Simulator, TrafficSource};
use switched_rt_ethernet::traffic::{FabricScenario, ScenarioFrameSource};
use switched_rt_ethernet::types::{Duration, NodeId, SimTime};

/// Everything observable about one delivery, for exact comparison.
type DeliverySnapshot = (u64, NodeId, NodeId, u64, Option<u16>, Vec<u8>);

fn snapshot(deliveries: &[Delivery]) -> Vec<DeliverySnapshot> {
    deliveries
        .iter()
        .map(|d| {
            (
                d.frame.get(),
                d.receiver,
                d.source,
                d.delivered_at.as_nanos(),
                d.channel.map(|c| c.get()),
                d.eth.encode(),
            )
        })
        .collect()
}

fn sim_config(scheduler: SchedulerKind) -> SimConfig {
    SimConfig {
        scheduler,
        ..SimConfig::default()
    }
}

/// Drive `scenario` with a cross-switch RT workload on the given scheduler
/// and return the full delivery trace plus summary counters.
fn drive(
    scenario: &FabricScenario,
    scheduler: SchedulerKind,
    frames: u64,
) -> (Vec<DeliverySnapshot>, u64, String) {
    let mut sim = Simulator::with_topology(sim_config(scheduler), scenario.topology())
        .expect("scenario fabrics are valid");
    let mut source = ScenarioFrameSource::new(scenario.clone(), frames, Duration::from_micros(3))
        .payload_len(400);
    sim.inject_batch(source.drain_all()).unwrap();
    sim.run_to_idle();
    let deliveries = sim.poll_deliveries();
    (
        snapshot(&deliveries),
        sim.events_processed(),
        sim.stats().summary(),
    )
}

fn assert_equivalent(scenario: FabricScenario, frames: u64) {
    let (heap, heap_events, heap_stats) = drive(&scenario, SchedulerKind::Heap, frames);
    let (cal, cal_events, cal_stats) = drive(&scenario, SchedulerKind::Calendar, frames);
    assert_eq!(heap.len(), cal.len(), "delivery counts diverge");
    for (i, (h, c)) in heap.iter().zip(&cal).enumerate() {
        assert_eq!(h, c, "delivery {i} diverges between schedulers");
    }
    assert_eq!(heap_events, cal_events, "event counts diverge");
    assert_eq!(heap_stats, cal_stats, "statistics diverge");
}

#[test]
fn star_scenario_is_scheduler_invariant() {
    assert_equivalent(FabricScenario::line(1, 4, 4), 2_000);
}

#[test]
fn line_scenario_is_scheduler_invariant() {
    assert_equivalent(FabricScenario::line(4, 2, 2), 2_000);
}

#[test]
fn ring_scenario_is_scheduler_invariant() {
    assert_equivalent(FabricScenario::ring(4, 2, 2), 2_000);
}

#[test]
fn leaf_spine_scenario_is_scheduler_invariant() {
    assert_equivalent(FabricScenario::leaf_spine(3, 2, 2), 2_000);
}

/// The pull-driven path (windowed injection) must agree with the bulk path
/// on both schedulers — it reorders *when* frames are registered, which
/// must not change anything observable.
#[test]
fn pull_driven_injection_is_scheduler_invariant() {
    let scenario = FabricScenario::ring(4, 1, 1);
    let run = |scheduler: SchedulerKind| {
        let mut sim = Simulator::with_topology(sim_config(scheduler), scenario.topology()).unwrap();
        let mut source = ScenarioFrameSource::new(scenario.clone(), 500, Duration::from_micros(5));
        sim.run_with_source(&mut source, Duration::from_micros(400))
            .unwrap();
        assert!(source.is_exhausted());
        snapshot(&sim.poll_deliveries())
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
}

/// Full-stack equivalence: establishment handshakes, per-hop schedules,
/// periodic RT data and best-effort cross traffic over a leaf-spine mesh,
/// byte-for-byte identical under both schedulers.
#[test]
fn full_stack_leaf_spine_run_is_scheduler_invariant() {
    let scenario = FabricScenario::leaf_spine(3, 2, 2);
    let run = |scheduler: SchedulerKind| {
        let mut net = RtNetwork::builder()
            .topology(scenario.topology())
            .scheduler(scheduler)
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .unwrap();
        let spec = RtChannelSpec::paper_default();
        let mut established = Vec::new();
        for request in scenario.cross_switch_requests(6, spec) {
            if let Some(tx) = net
                .establish_channel(request.source, request.destination, request.spec)
                .unwrap()
            {
                established.push((request.source, tx));
            }
        }
        assert!(
            !established.is_empty(),
            "the empty mesh must admit channels"
        );
        let start = net.now() + Duration::from_millis(1);
        for (source, tx) in &established {
            net.send_periodic(*source, tx.id, 8, 700, start).unwrap();
        }
        for k in 0..40u64 {
            net.send_best_effort(
                NodeId::new(0),
                NodeId::new(5),
                1400,
                start + Duration::from_micros(25 * k),
            )
            .unwrap();
        }
        net.run_to_completion().unwrap();
        let received: Vec<_> = net
            .received_messages()
            .iter()
            .map(|m| (m.receiver, m.delivered_at.as_nanos(), m.missed_deadline))
            .collect();
        (
            received,
            net.best_effort_received(),
            net.simulator().stats().summary(),
            net.now(),
        )
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
}

/// The `wire_rt` shape at small size: every admitted channel's whole
/// periodic schedule preloaded through `send_periodic` (all channels start
/// at one instant, periods differ), best-effort cross traffic under it, then
/// one `run_to_completion` — a large far-future population with cascades of
/// near events beneath it, which is where the calendar's width estimate
/// goes blind and its ordered bucket takes over.
#[test]
fn preloaded_periodic_run_through_the_pump_is_scheduler_invariant() {
    use switched_rt_ethernet::traffic::HeterogeneousSpecs;
    let scenario = FabricScenario::torus(3, 3, 2, 2);
    let run = |scheduler: SchedulerKind| {
        let mut net = RtNetwork::builder()
            .topology(scenario.topology())
            .scheduler(scheduler)
            .multihop_dps(MultiHopDps::Asymmetric)
            .build()
            .unwrap();
        let mut specs = HeterogeneousSpecs::new(7);
        let mut established = Vec::new();
        for i in 0..40 {
            let (source, destination) = scenario.cross_switch_pair(i);
            if let Some(tx) = net
                .establish_channel(source, destination, specs.next_spec())
                .unwrap()
            {
                established.push((source, tx));
            }
        }
        assert!(established.len() >= 10, "the empty torus admits channels");
        let start = net.now() + Duration::from_millis(1);
        for (source, tx) in &established {
            net.send_periodic(*source, tx.id, 60, 1000, start).unwrap();
        }
        for k in 0..2_000u64 {
            let (source, destination) = scenario.cross_switch_pair(7 * k + 3);
            let at = start + Duration::from_micros(3 * k);
            net.send_best_effort(source, destination, 1200, at).unwrap();
        }
        net.run_to_completion().unwrap();
        let received: Vec<_> = net
            .received_messages()
            .iter()
            .map(|m| {
                (
                    m.receiver,
                    m.message.channel,
                    m.delivered_at.as_nanos(),
                    m.missed_deadline,
                )
            })
            .collect();
        assert!(received.len() > 5_000, "{} RT frames", received.len());
        (
            received,
            net.best_effort_received(),
            net.simulator().events_processed(),
            net.simulator().stats().summary(),
            net.now(),
        )
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
}

/// A pathological timing mix — bursts of simultaneous frames, then a long
/// silence, then another burst — exercises the calendar queue's overflow
/// migration and resize paths inside a full simulation and must still match
/// the heap exactly.
#[test]
fn bursty_far_future_workload_is_scheduler_invariant() {
    struct Bursts {
        pending: Vec<switched_rt_ethernet::netsim::FrameInjection>,
        emitted: usize,
    }
    impl Bursts {
        fn new() -> Self {
            let scenario = FabricScenario::line(4, 2, 2);
            let mut pending = ScenarioFrameSource::new(scenario, 400, Duration::ZERO)
                .payload_len(200)
                .drain_all();
            // Burst k: 100 simultaneous frames at k * 250 ms.
            for (i, injection) in pending.iter_mut().enumerate() {
                injection.at = SimTime::from_millis(250 * (i / 100) as u64);
            }
            Bursts {
                pending,
                emitted: 0,
            }
        }
    }
    impl TrafficSource for Bursts {
        fn next_batch(
            &mut self,
            horizon: SimTime,
        ) -> Vec<switched_rt_ethernet::netsim::FrameInjection> {
            let mut out = Vec::new();
            while self.emitted < self.pending.len() && self.pending[self.emitted].at < horizon {
                out.push(self.pending[self.emitted].clone());
                self.emitted += 1;
            }
            out
        }

        fn is_exhausted(&self) -> bool {
            self.emitted >= self.pending.len()
        }
    }

    let run = |scheduler: SchedulerKind| {
        let scenario = FabricScenario::line(4, 2, 2);
        let mut sim = Simulator::with_topology(sim_config(scheduler), scenario.topology()).unwrap();
        let mut source = Bursts::new();
        sim.run_with_source(&mut source, Duration::from_millis(50))
            .unwrap();
        snapshot(&sim.poll_deliveries())
    };
    let heap = run(SchedulerKind::Heap);
    assert_eq!(heap.len(), 400);
    assert_eq!(heap, run(SchedulerKind::Calendar));
}
