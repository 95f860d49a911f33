//! Scheduler equivalence: the calendar queue must be *indistinguishable*
//! from the binary-heap reference on the wire.
//!
//! Determinism is the simulator's foundational contract — experiments are
//! reproducible because identical inputs give identical event sequences.
//! The calendar queue buys its throughput with a completely different
//! internal organisation (buckets, overflow list, ordered bucket, resizes),
//! so this suite keeps the push patterns that stress it: every fabric shape
//! the repo ships (star, line, ring, leaf-spine), pull-driven injection, the
//! full stack, a preloaded periodic population and far-apart bursts.
//!
//! The comparison itself lives in `EventQueue`: a debug build (what
//! `cargo test` runs) pushes every event into a `HeapScheduler` as well and
//! asserts on every pop that the heap yields the same `(time, event)`, so
//! each scenario below is driven once and fails with the diverging instant
//! if the calendar ever disagrees.  A release build carries no shadow;
//! there the scenarios only check what they assert themselves, and the
//! direct calendar-vs-heap properties are `rt-netsim`'s `event::tests`.
//!
//! `Simulator::inject_batch` files each frame's injection just before its
//! instant, so a batch puts a handful of events in the calendar at a time.
//! The scenarios that need a large population there inject frame by frame
//! with `Simulator::inject`, which files at once; one scenario keeps the
//! deferred batch.

use switched_rt_ethernet::core::{MultiHopDps, RtChannelSpec, RtNetwork};
use switched_rt_ethernet::netsim::{Delivery, FrameInjection, SimConfig, Simulator, TrafficSource};
use switched_rt_ethernet::traffic::{FabricScenario, ScenarioFrameSource};
use switched_rt_ethernet::types::{Duration, NodeId, SimTime};

/// Every frame arrived, and deliveries come out in time order.
fn assert_all_delivered_in_order(deliveries: &[Delivery], frames: usize) {
    assert_eq!(deliveries.len(), frames, "delivery count");
    assert!(
        deliveries
            .windows(2)
            .all(|pair| pair[0].delivered_at <= pair[1].delivered_at),
        "deliveries out of time order"
    );
}

/// Inject `frames` one by one: each frame's event enters the calendar now.
fn inject_each(sim: &mut Simulator, frames: Vec<FrameInjection>) {
    for FrameInjection { node, eth, at } in frames {
        sim.inject(node, eth, at).unwrap();
    }
}

/// `Simulator::run_with_source`'s loop, each window's frames injected one
/// by one, so the calendar holds every pending injection of the window.
fn run_pulled(sim: &mut Simulator, source: &mut dyn TrafficSource, window: Duration) {
    let mut horizon = sim.now() + window;
    loop {
        inject_each(sim, source.next_batch(horizon));
        if source.is_exhausted() {
            sim.run_to_idle();
            return;
        }
        sim.run_until(horizon);
        horizon += window;
    }
}

/// Drive `scenario` with a cross-switch RT workload injected up front:
/// every frame's injection in the calendar from the start.
fn drive(scenario: FabricScenario, frames: u64) {
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology())
        .expect("scenario fabrics are valid");
    let mut source =
        ScenarioFrameSource::new(scenario, frames, Duration::from_micros(3)).payload_len(400);
    inject_each(&mut sim, source.drain_all());
    sim.run_to_idle();
    assert_all_delivered_in_order(&sim.poll_deliveries(), frames as usize);
    assert_eq!(sim.stats().total_dropped(), 0);
}

#[test]
fn star_scenario_is_scheduler_invariant() {
    drive(FabricScenario::line(1, 4, 4), 2_000);
}

#[test]
fn line_scenario_is_scheduler_invariant() {
    drive(FabricScenario::line(4, 2, 2), 2_000);
}

#[test]
fn ring_scenario_is_scheduler_invariant() {
    drive(FabricScenario::ring(4, 2, 2), 2_000);
}

#[test]
fn leaf_spine_scenario_is_scheduler_invariant() {
    drive(FabricScenario::leaf_spine(3, 2, 2), 2_000);
}

/// The pull-driven path (windowed injection): pushes keep landing at and
/// just ahead of the calendar's cursor between refused window probes.
#[test]
fn pull_driven_injection_is_scheduler_invariant() {
    let scenario = FabricScenario::ring(4, 1, 1);
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
    let mut source = ScenarioFrameSource::new(scenario, 500, Duration::from_micros(5));
    run_pulled(&mut sim, &mut source, Duration::from_micros(400));
    assert!(source.is_exhausted());
    assert_all_delivered_in_order(&sim.poll_deliveries(), 500);
}

/// The deferred batch: a leaf-spine preload through `inject_batch`, each
/// frame's injection filed into the calendar just before its instant, and
/// a pull-driven ring whose windows are batches.  Every deferred event
/// reaches the reference heap as it is filed.
#[test]
fn deferred_batches_are_scheduler_invariant() {
    let scenario = FabricScenario::leaf_spine(3, 2, 2);
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
    let mut source =
        ScenarioFrameSource::new(scenario, 2_000, Duration::from_micros(3)).payload_len(400);
    sim.inject_batch(source.drain_all()).unwrap();
    sim.run_to_idle();
    assert_all_delivered_in_order(&sim.poll_deliveries(), 2_000);

    let scenario = FabricScenario::ring(4, 1, 1);
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
    let mut source = ScenarioFrameSource::new(scenario, 500, Duration::from_micros(5));
    sim.run_with_source(&mut source, Duration::from_micros(400))
        .unwrap();
    assert_all_delivered_in_order(&sim.poll_deliveries(), 500);
}

/// The full stack: establishment handshakes, per-hop schedules, periodic RT
/// data and best-effort cross traffic over a leaf-spine mesh.
#[test]
fn full_stack_leaf_spine_run_is_scheduler_invariant() {
    let scenario = FabricScenario::leaf_spine(3, 2, 2);
    let mut net = RtNetwork::builder()
        .topology(scenario.topology())
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
    let frames = established.len() as u64 * 8 * spec.capacity.get();
    assert_eq!(net.received_messages().len() as u64, frames);
    assert!(net.received_messages().iter().all(|m| !m.missed_deadline));
    assert_eq!(net.best_effort_received(), 40);
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
    let mut net = RtNetwork::builder()
        .topology(scenario.topology())
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
    let received = net.received_messages();
    assert!(received.len() > 5_000, "{} RT frames", received.len());
    assert!(received.iter().all(|m| !m.missed_deadline));
    let stats = net.simulator().stats();
    assert_eq!(
        net.simulator().injected_count(),
        stats.total_delivered() + stats.total_dropped()
    );
}

/// A pathological timing mix — bursts of simultaneous frames, then a long
/// silence, then another burst — exercises the calendar queue's overflow
/// migration and resize paths inside a full simulation.
#[test]
fn bursty_far_future_workload_is_scheduler_invariant() {
    struct Bursts {
        pending: Vec<FrameInjection>,
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
        fn next_batch(&mut self, horizon: SimTime) -> Vec<FrameInjection> {
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

    let scenario = FabricScenario::line(4, 2, 2);
    let mut sim = Simulator::with_topology(SimConfig::default(), scenario.topology()).unwrap();
    run_pulled(&mut sim, &mut Bursts::new(), Duration::from_millis(50));
    assert_all_delivered_in_order(&sim.poll_deliveries(), 400);
}
